//! Virtual sensors: multi-channel devices built from signal generators.

use crate::sample::{Sample, SensorKind};
use crate::waveform::{Composite, Constant, GaussianNoise, Pulse, RandomWalk, Signal, Sine};

/// A simulated sensor device producing [`Sample`]s on demand.
///
/// The device owns one [`Signal`] per channel and a sequence counter; the
/// caller (the middleware's Sensor class, driven by a sampling timer)
/// supplies timestamps.
///
/// ```
/// use ifot_sensors::device::VirtualSensor;
/// use ifot_sensors::sample::SensorKind;
///
/// let mut s = VirtualSensor::preset(SensorKind::Temperature, 3, 42);
/// let a = s.read(1_000_000);
/// let b = s.read(2_000_000);
/// assert_eq!(a.device_id, 3);
/// assert_eq!(b.seq, a.seq + 1);
/// ```
pub struct VirtualSensor {
    kind: SensorKind,
    device_id: u16,
    channels: Vec<Box<dyn Signal>>,
    seq: u32,
}

impl std::fmt::Debug for VirtualSensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualSensor")
            .field("kind", &self.kind)
            .field("device_id", &self.device_id)
            .field("channels", &self.channels.len())
            .field("seq", &self.seq)
            .finish()
    }
}

impl VirtualSensor {
    /// Creates a sensor from explicit channel signals.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty or holds more than three signals.
    pub fn new(kind: SensorKind, device_id: u16, channels: Vec<Box<dyn Signal>>) -> Self {
        assert!(
            (1..=3).contains(&channels.len()),
            "a sensor has 1..=3 channels, got {}",
            channels.len()
        );
        VirtualSensor {
            kind,
            device_id,
            channels,
            seq: 0,
        }
    }

    /// Builds a realistic default signal set for the given kind, seeded
    /// deterministically.
    pub fn preset(kind: SensorKind, device_id: u16, seed: u64) -> Self {
        let channels: Vec<Box<dyn Signal>> = match kind {
            SensorKind::Accelerometer => {
                // Gravity on z plus small body sway and noise.
                let mut axes: Vec<Box<dyn Signal>> = Vec::new();
                for (axis, base) in [(0u64, 0.0f64), (1, 0.0), (2, 9.81)] {
                    axes.push(Box::new(Composite::new(vec![
                        Box::new(Constant(base)),
                        Box::new(Sine {
                            frequency_hz: 1.2,
                            amplitude: 0.4,
                            offset: 0.0,
                            phase: axis as f64,
                        }),
                        Box::new(GaussianNoise::new(0.05, seed ^ (axis + 1))),
                    ])));
                }
                axes
            }
            SensorKind::Illuminance => vec![Box::new(Composite::new(vec![
                // Slow daily-ish swell plus flicker.
                Box::new(Sine {
                    frequency_hz: 0.01,
                    amplitude: 200.0,
                    offset: 400.0,
                    phase: 0.0,
                }),
                Box::new(GaussianNoise::new(8.0, seed ^ 0x11)),
            ]))],
            SensorKind::Sound => vec![Box::new(Composite::new(vec![
                Box::new(Constant(40.0)),
                Box::new(RandomWalk::new(0.0, 1.5, -10.0, 35.0, seed ^ 0x22)),
                Box::new(GaussianNoise::new(1.0, seed ^ 0x33)),
            ]))],
            SensorKind::Motion => vec![Box::new(Pulse {
                period_ns: 30_000_000_000,
                duty: 0.2,
                low: 0.0,
                high: 1.0,
            })],
            SensorKind::Temperature => vec![Box::new(Composite::new(vec![
                Box::new(Constant(22.0)),
                Box::new(RandomWalk::new(0.0, 0.05, -4.0, 4.0, seed ^ 0x44)),
            ]))],
            SensorKind::Humidity => vec![Box::new(Composite::new(vec![
                Box::new(Constant(50.0)),
                Box::new(RandomWalk::new(0.0, 0.2, -15.0, 15.0, seed ^ 0x55)),
            ]))],
            SensorKind::PersonFlow => vec![Box::new(Composite::new(vec![
                Box::new(Pulse {
                    period_ns: 60_000_000_000,
                    duty: 0.5,
                    low: 1.0,
                    high: 8.0,
                }),
                Box::new(GaussianNoise::new(0.8, seed ^ 0x66)),
            ]))],
        };
        VirtualSensor::new(kind, device_id, channels)
    }

    /// The sensor kind.
    pub fn kind(&self) -> SensorKind {
        self.kind
    }

    /// The device identifier.
    pub fn device_id(&self) -> u16 {
        self.device_id
    }

    /// Samples taken so far.
    pub fn samples_taken(&self) -> u32 {
        self.seq
    }

    /// Reads all channels at `t_ns`, producing the next sample.
    pub fn read(&mut self, t_ns: u64) -> Sample {
        let sample = Sample {
            kind: self.kind,
            device_id: self.device_id,
            seq: self.seq,
            timestamp_ns: t_ns,
            values: self
                .channels
                .iter_mut()
                .map(|c| c.value_at(t_ns) as f32)
                .collect(),
        };
        self.seq = self.seq.wrapping_add(1);
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_produce_expected_channel_counts() {
        for kind in [
            SensorKind::Accelerometer,
            SensorKind::Illuminance,
            SensorKind::Sound,
            SensorKind::Motion,
            SensorKind::Temperature,
            SensorKind::Humidity,
            SensorKind::PersonFlow,
        ] {
            let mut s = VirtualSensor::preset(kind, 1, 9);
            let sample = s.read(0);
            assert_eq!(sample.values.len(), kind.channels(), "{kind:?}");
            assert_eq!(sample.kind, kind);
        }
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut s = VirtualSensor::preset(SensorKind::Sound, 2, 9);
        let a = s.read(0);
        let b = s.read(1000);
        let c = s.read(2000);
        assert_eq!(a.seq + 1, b.seq);
        assert_eq!(b.seq + 1, c.seq);
        assert_eq!(s.samples_taken(), 3);
    }

    #[test]
    fn same_seed_replays_identically() {
        let mut a = VirtualSensor::preset(SensorKind::Accelerometer, 1, 77);
        let mut b = VirtualSensor::preset(SensorKind::Accelerometer, 1, 77);
        for t in 0..100u64 {
            assert_eq!(a.read(t * 1000).values, b.read(t * 1000).values);
        }
    }

    #[test]
    fn accelerometer_sees_gravity_on_z() {
        let mut s = VirtualSensor::preset(SensorKind::Accelerometer, 1, 5);
        let sample = s.read(0);
        assert!(
            (sample.values[2] - 9.81).abs() < 1.0,
            "z-axis {}",
            sample.values[2]
        );
    }

    /// The waveform every detector threshold and benchmark checksum was
    /// tuned on: `f32` bit patterns of the first readings, taken at the
    /// commit before the generator moved in-tree.
    #[test]
    fn preset_stream_is_pinned() {
        let mut s = VirtualSensor::preset(SensorKind::Temperature, 1, 99);
        let bits: Vec<u32> = (0..8)
            .map(|i| s.read(i * 100_000_000).values[0].to_bits())
            .collect();
        assert_eq!(
            bits,
            [
                1102069435, 1102090334, 1102083691, 1102090623, 1102106093, 1102098019, 1102080587,
                1102083961
            ]
        );
    }

    #[test]
    fn samples_encode_to_wire_size() {
        let mut s = VirtualSensor::preset(SensorKind::Illuminance, 1, 5);
        assert_eq!(s.read(123).encode().len(), 32);
    }

    #[test]
    #[should_panic(expected = "1..=3 channels")]
    fn too_many_channels_rejected() {
        let chans: Vec<Box<dyn Signal>> = (0..4)
            .map(|_| Box::new(Constant(0.0)) as Box<dyn Signal>)
            .collect();
        let _ = VirtualSensor::new(SensorKind::Sound, 1, chans);
    }
}
