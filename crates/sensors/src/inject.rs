//! Anomaly injection with ground truth.
//!
//! Wraps a [`VirtualSensor`] and perturbs scheduled time windows (spikes,
//! stuck-at faults, drift). Each emitted sample carries a ground-truth
//! `anomalous` flag, so the flow-analysis examples can report detector
//! precision/recall honestly.

use crate::device::VirtualSensor;
use crate::sample::{Channels, Sample};

/// How a window perturbs the signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Adds `magnitude` to every channel (e.g. a fall spike).
    Spike {
        /// Added offset.
        magnitude: f32,
    },
    /// Freezes all channels at the last pre-fault value.
    StuckAt,
    /// Adds a ramp growing by `rate_per_sec` per second over the window.
    Drift {
        /// Offset growth per second.
        rate_per_sec: f32,
    },
}

/// A scheduled anomaly window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultWindow {
    /// Window start (inclusive), nanoseconds.
    pub from_ns: u64,
    /// Window end (exclusive), nanoseconds.
    pub until_ns: u64,
    /// Perturbation applied inside the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Whether `t_ns` falls inside the window.
    pub fn contains(&self, t_ns: u64) -> bool {
        (self.from_ns..self.until_ns).contains(&t_ns)
    }
}

/// A sample together with its ground-truth anomaly flag.
#[derive(Debug, Clone, PartialEq)]
pub struct LabelledSample {
    /// The (possibly perturbed) sample.
    pub sample: Sample,
    /// Whether a fault window was active when it was taken.
    pub anomalous: bool,
}

/// A sensor wrapper injecting scheduled faults.
///
/// ```
/// use ifot_sensors::device::VirtualSensor;
/// use ifot_sensors::inject::{AnomalyInjector, FaultKind, FaultWindow};
/// use ifot_sensors::sample::SensorKind;
///
/// let sensor = VirtualSensor::preset(SensorKind::Temperature, 1, 7);
/// let mut injector = AnomalyInjector::new(sensor);
/// injector.schedule(FaultWindow {
///     from_ns: 1_000,
///     until_ns: 2_000,
///     kind: FaultKind::Spike { magnitude: 50.0 },
/// });
/// assert!(!injector.read(0).anomalous);
/// assert!(injector.read(1_500).anomalous);
/// ```
#[derive(Debug)]
pub struct AnomalyInjector {
    inner: VirtualSensor,
    windows: Vec<FaultWindow>,
    last_clean: Option<Channels>,
    injected: u64,
}

impl AnomalyInjector {
    /// Wraps a sensor with an empty schedule.
    pub fn new(inner: VirtualSensor) -> Self {
        AnomalyInjector {
            inner,
            windows: Vec::new(),
            last_clean: None,
            injected: 0,
        }
    }

    /// Adds a fault window.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`from_ns >= until_ns`).
    pub fn schedule(&mut self, window: FaultWindow) {
        assert!(
            window.from_ns < window.until_ns,
            "fault window must be non-empty"
        );
        self.windows.push(window);
    }

    /// The wrapped sensor.
    pub fn sensor(&self) -> &VirtualSensor {
        &self.inner
    }

    /// Samples emitted inside fault windows so far.
    pub fn injected_count(&self) -> u64 {
        self.injected
    }

    /// Reads the next sample at `t_ns`, applying any active fault.
    pub fn read(&mut self, t_ns: u64) -> LabelledSample {
        let mut sample = self.inner.read(t_ns);
        let active = self.windows.iter().find(|w| w.contains(t_ns)).copied();
        match active {
            None => {
                self.last_clean = Some(sample.values);
                LabelledSample {
                    sample,
                    anomalous: false,
                }
            }
            Some(window) => {
                self.injected += 1;
                match window.kind {
                    FaultKind::Spike { magnitude } => {
                        for v in sample.values.iter_mut() {
                            *v += magnitude;
                        }
                    }
                    FaultKind::StuckAt => {
                        if let Some(frozen) = self.last_clean {
                            sample.values = frozen;
                        }
                    }
                    FaultKind::Drift { rate_per_sec } => {
                        let dt = (t_ns.saturating_sub(window.from_ns)) as f32 / 1.0e9;
                        for v in sample.values.iter_mut() {
                            *v += rate_per_sec * dt;
                        }
                    }
                }
                LabelledSample {
                    sample,
                    anomalous: true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SensorKind;
    use crate::waveform::Constant;

    fn constant_sensor(level: f64) -> VirtualSensor {
        VirtualSensor::new(SensorKind::Temperature, 1, vec![Box::new(Constant(level))])
    }

    #[test]
    fn spike_offsets_values_inside_window_only() {
        let mut inj = AnomalyInjector::new(constant_sensor(10.0));
        inj.schedule(FaultWindow {
            from_ns: 100,
            until_ns: 200,
            kind: FaultKind::Spike { magnitude: 5.0 },
        });
        assert_eq!(inj.read(50).sample.values[0], 10.0);
        let hit = inj.read(150);
        assert!(hit.anomalous);
        assert_eq!(hit.sample.values[0], 15.0);
        let after = inj.read(250);
        assert!(!after.anomalous);
        assert_eq!(after.sample.values[0], 10.0);
        assert_eq!(inj.injected_count(), 1);
    }

    #[test]
    fn stuck_at_freezes_last_clean_value() {
        let mut sensor = VirtualSensor::new(
            SensorKind::Temperature,
            1,
            vec![Box::new(crate::waveform::Sine {
                frequency_hz: 1.0,
                amplitude: 10.0,
                offset: 0.0,
                phase: 0.0,
            })],
        );
        // Prime with a clean read at the sine peak.
        let mut inj = AnomalyInjector::new(std::mem::replace(&mut sensor, constant_sensor(0.0)));
        inj.schedule(FaultWindow {
            from_ns: 300_000_000,
            until_ns: 800_000_000,
            kind: FaultKind::StuckAt,
        });
        let clean = inj.read(250_000_000); // sine ~ peak
        let stuck1 = inj.read(400_000_000);
        let stuck2 = inj.read(700_000_000);
        assert!(stuck1.anomalous && stuck2.anomalous);
        assert_eq!(stuck1.sample.values, clean.sample.values);
        assert_eq!(stuck2.sample.values, clean.sample.values);
    }

    #[test]
    fn drift_grows_with_time() {
        let mut inj = AnomalyInjector::new(constant_sensor(0.0));
        inj.schedule(FaultWindow {
            from_ns: 0,
            until_ns: 10_000_000_000,
            kind: FaultKind::Drift { rate_per_sec: 2.0 },
        });
        let early = inj.read(1_000_000_000).sample.values[0];
        let late = inj.read(4_000_000_000).sample.values[0];
        assert!((early - 2.0).abs() < 1e-5);
        assert!((late - 8.0).abs() < 1e-4);
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let w = FaultWindow {
            from_ns: 10,
            until_ns: 20,
            kind: FaultKind::StuckAt,
        };
        assert!(w.contains(10));
        assert!(w.contains(19));
        assert!(!w.contains(20));
        assert!(!w.contains(9));
    }

    #[test]
    fn overlapping_windows_apply_first_match() {
        let mut inj = AnomalyInjector::new(constant_sensor(1.0));
        inj.schedule(FaultWindow {
            from_ns: 0,
            until_ns: 100,
            kind: FaultKind::Spike { magnitude: 1.0 },
        });
        inj.schedule(FaultWindow {
            from_ns: 50,
            until_ns: 150,
            kind: FaultKind::Spike { magnitude: 10.0 },
        });
        assert_eq!(inj.read(75).sample.values[0], 2.0); // first window wins
        assert_eq!(inj.read(120).sample.values[0], 11.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        let mut inj = AnomalyInjector::new(constant_sensor(0.0));
        inj.schedule(FaultWindow {
            from_ns: 10,
            until_ns: 10,
            kind: FaultKind::StuckAt,
        });
    }
}
