//! The sensor sample: the unit of data flowing through IFoT.
//!
//! The paper's experiment transmits **32-byte sensor samples**; this module
//! defines that exact wire image. Layout (big-endian):
//!
//! ```text
//! offset  size  field
//! 0       2     magic "IF"
//! 2       1     version (1)
//! 3       1     sensor kind
//! 4       2     device id
//! 6       1     number of valid channel values (0..=3)
//! 7       1     reserved (0)
//! 8       8     timestamp, nanoseconds since epoch/sim start
//! 16      4     sequence number
//! 20      12    three f32 channel values
//! ```

/// Exact encoded size of a [`Sample`], per the paper's experiment.
pub const SAMPLE_WIRE_SIZE: usize = 32;

const MAGIC: [u8; 2] = *b"IF";
const VERSION: u8 = 1;
const MAX_CHANNELS: usize = 3;

/// What a sensor measures. Mirrors the devices named in the paper's
/// application scenarios (Section III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Three-axis accelerometer (elderly monitoring).
    Accelerometer,
    /// Ambient light level (home appliance control).
    Illuminance,
    /// Sound pressure level (home appliance control).
    Sound,
    /// Binary/graded motion detection (home appliance control).
    Motion,
    /// Air temperature.
    Temperature,
    /// Relative humidity.
    Humidity,
    /// Person-flow count (mobility support).
    PersonFlow,
}

impl SensorKind {
    /// Wire byte of the kind.
    pub fn to_byte(self) -> u8 {
        match self {
            SensorKind::Accelerometer => 0,
            SensorKind::Illuminance => 1,
            SensorKind::Sound => 2,
            SensorKind::Motion => 3,
            SensorKind::Temperature => 4,
            SensorKind::Humidity => 5,
            SensorKind::PersonFlow => 6,
        }
    }

    /// Parses the wire byte.
    ///
    /// # Errors
    ///
    /// Returns the raw value for unknown kinds.
    pub fn from_byte(b: u8) -> Result<Self, u8> {
        Ok(match b {
            0 => SensorKind::Accelerometer,
            1 => SensorKind::Illuminance,
            2 => SensorKind::Sound,
            3 => SensorKind::Motion,
            4 => SensorKind::Temperature,
            5 => SensorKind::Humidity,
            6 => SensorKind::PersonFlow,
            other => return Err(other),
        })
    }

    /// Number of channels this kind produces.
    pub fn channels(self) -> usize {
        match self {
            SensorKind::Accelerometer => 3,
            _ => 1,
        }
    }

    /// The ML datum key of each channel, `"<slug>_<channel>"`, in channel
    /// order (ascending, as it happens): static, so turning a sample into
    /// a datum builds no string.
    pub fn datum_keys(self) -> &'static [&'static str] {
        match self {
            SensorKind::Accelerometer => &["accel_x", "accel_y", "accel_z"],
            SensorKind::Illuminance => &["illuminance_lux"],
            SensorKind::Sound => &["sound_db"],
            SensorKind::Motion => &["motion_level"],
            SensorKind::Temperature => &["temperature_celsius"],
            SensorKind::Humidity => &["humidity_percent"],
            SensorKind::PersonFlow => &["personflow_count"],
        }
    }
}

/// Errors decoding a sample from its 32-byte wire image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// Input is not exactly [`SAMPLE_WIRE_SIZE`] bytes.
    WrongSize(usize),
    /// Magic bytes missing.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown sensor kind byte.
    BadKind(u8),
    /// Channel count exceeds 3.
    BadChannelCount(u8),
}

impl core::fmt::Display for SampleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SampleError::WrongSize(n) => write!(f, "sample must be 32 bytes, got {n}"),
            SampleError::BadMagic => write!(f, "sample magic bytes missing"),
            SampleError::BadVersion(v) => write!(f, "unknown sample version {v}"),
            SampleError::BadKind(k) => write!(f, "unknown sensor kind {k}"),
            SampleError::BadChannelCount(c) => write!(f, "invalid channel count {c}"),
        }
    }
}

impl std::error::Error for SampleError {}

/// The channel values of one reading: one to three `f32`s held inline, so
/// a [`Sample`] is a plain value and taking, perturbing or decoding one
/// never touches the heap. Dereferences to the slice of valid channels.
#[derive(Clone, Copy, Default)]
pub struct Channels {
    len: u8,
    values: [f32; MAX_CHANNELS],
}

impl core::ops::Deref for Channels {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        &self.values[..usize::from(self.len)]
    }
}

impl core::ops::DerefMut for Channels {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.values[..usize::from(self.len)]
    }
}

impl PartialEq for Channels {
    fn eq(&self, other: &Channels) -> bool {
        **self == **other
    }
}

impl core::fmt::Debug for Channels {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(&**self, f)
    }
}

/// Collects up to three values; further ones are dropped.
impl FromIterator<f32> for Channels {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let mut channels = Channels::default();
        for (slot, value) in channels.values.iter_mut().zip(iter) {
            *slot = value;
            channels.len += 1;
        }
        channels
    }
}

/// One timestamped sensor reading (up to three channels).
///
/// ```
/// use ifot_sensors::sample::{Sample, SensorKind};
///
/// let s = Sample::new(SensorKind::Temperature, 7, 123, 1_000_000, &[21.5]);
/// let bytes = s.encode();
/// assert_eq!(bytes.len(), 32);
/// assert_eq!(Sample::decode(&bytes)?, s);
/// # Ok::<(), ifot_sensors::sample::SampleError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// What produced the reading.
    pub kind: SensorKind,
    /// Numeric device identifier.
    pub device_id: u16,
    /// Monotone per-device sequence number.
    pub seq: u32,
    /// Sensing instant in nanoseconds.
    pub timestamp_ns: u64,
    /// Channel values (1..=3 entries).
    pub values: Channels,
}

impl Sample {
    /// Builds a sample, truncating `values` to three channels.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(
        kind: SensorKind,
        device_id: u16,
        seq: u32,
        timestamp_ns: u64,
        values: &[f32],
    ) -> Self {
        assert!(!values.is_empty(), "a sample carries at least one value");
        Sample {
            kind,
            device_id,
            seq,
            timestamp_ns,
            values: values.iter().copied().collect(),
        }
    }

    /// Encodes to the fixed 32-byte wire image.
    pub fn encode(&self) -> [u8; SAMPLE_WIRE_SIZE] {
        let mut out = [0u8; SAMPLE_WIRE_SIZE];
        out[0..2].copy_from_slice(&MAGIC);
        out[2] = VERSION;
        out[3] = self.kind.to_byte();
        out[4..6].copy_from_slice(&self.device_id.to_be_bytes());
        out[6] = self.values.len() as u8;
        out[7] = 0;
        out[8..16].copy_from_slice(&self.timestamp_ns.to_be_bytes());
        out[16..20].copy_from_slice(&self.seq.to_be_bytes());
        for (i, v) in self.values.iter().enumerate() {
            let off = 20 + i * 4;
            out[off..off + 4].copy_from_slice(&v.to_be_bytes());
        }
        out
    }

    /// Encodes to a shared [`bytes::Bytes`] buffer, for a sample that must
    /// be held (the node's offline queue). A connected publish needs no
    /// buffer of the sample's own: it writes [`Sample::encode`]'s image
    /// straight into the PUBLISH frame.
    pub fn encode_bytes(&self) -> bytes::Bytes {
        bytes::Bytes::copy_from_slice(&self.encode())
    }

    /// Decodes from a 32-byte wire image.
    ///
    /// # Errors
    ///
    /// Returns [`SampleError`] for wrong size, magic, version, kind or
    /// channel count.
    pub fn decode(bytes: &[u8]) -> Result<Self, SampleError> {
        let (kind, count) = check_header(bytes)?;
        let values = bytes[20..20 + count * 4]
            .chunks_exact(4)
            .map(|v| f32::from_be_bytes(v.try_into().expect("4 bytes")))
            .collect();
        Ok(Sample {
            kind,
            device_id: u16::from_be_bytes([bytes[4], bytes[5]]),
            seq: u32::from_be_bytes(bytes[16..20].try_into().expect("4 bytes")),
            timestamp_ns: timestamp_of(bytes),
            values,
        })
    }

    /// The sensing timestamp of a wire image, read at its fixed offset
    /// without building the sample: what a latency probe on the path
    /// needs. `None` exactly where [`Sample::decode`] fails.
    pub fn peek_timestamp_ns(bytes: &[u8]) -> Option<u64> {
        check_header(bytes).ok().map(|_| timestamp_of(bytes))
    }

    /// The MQTT topic this sample is published to:
    /// `sensor/<device_id>/<kind>` (lower-case kind).
    pub fn topic(&self) -> String {
        format!("sensor/{}/{}", self.device_id, kind_slug(self.kind))
    }
}

/// Validates size, magic, version, kind and channel count of a wire
/// image; returns the kind and the channel count.
fn check_header(bytes: &[u8]) -> Result<(SensorKind, usize), SampleError> {
    if bytes.len() != SAMPLE_WIRE_SIZE {
        return Err(SampleError::WrongSize(bytes.len()));
    }
    if bytes[0..2] != MAGIC {
        return Err(SampleError::BadMagic);
    }
    if bytes[2] != VERSION {
        return Err(SampleError::BadVersion(bytes[2]));
    }
    let kind = SensorKind::from_byte(bytes[3]).map_err(SampleError::BadKind)?;
    let count = bytes[6];
    if count == 0 || usize::from(count) > MAX_CHANNELS {
        return Err(SampleError::BadChannelCount(count));
    }
    Ok((kind, usize::from(count)))
}

/// The timestamp field of a wire image whose size was checked.
fn timestamp_of(bytes: &[u8]) -> u64 {
    u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes"))
}

/// Lower-case slug of a kind, used in topics.
pub fn kind_slug(kind: SensorKind) -> &'static str {
    match kind {
        SensorKind::Accelerometer => "accel",
        SensorKind::Illuminance => "illuminance",
        SensorKind::Sound => "sound",
        SensorKind::Motion => "motion",
        SensorKind::Temperature => "temperature",
        SensorKind::Humidity => "humidity",
        SensorKind::PersonFlow => "personflow",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_image_is_exactly_32_bytes() {
        let s = Sample::new(SensorKind::Accelerometer, 1, 2, 3, &[0.1, 0.2, 0.3]);
        assert_eq!(s.encode().len(), SAMPLE_WIRE_SIZE);
    }

    #[test]
    fn round_trip_all_kinds() {
        for (i, kind) in [
            SensorKind::Accelerometer,
            SensorKind::Illuminance,
            SensorKind::Sound,
            SensorKind::Motion,
            SensorKind::Temperature,
            SensorKind::Humidity,
            SensorKind::PersonFlow,
        ]
        .into_iter()
        .enumerate()
        {
            let n = kind.channels();
            let values: Vec<f32> = (0..n).map(|j| (i * 10 + j) as f32 * 0.5).collect();
            let s = Sample::new(kind, i as u16, i as u32 * 7, i as u64 * 1000, &values);
            let decoded = Sample::decode(&s.encode()).expect("round trip");
            assert_eq!(decoded, s);
        }
    }

    #[test]
    fn kind_bytes_round_trip() {
        for b in 0..7u8 {
            let k = SensorKind::from_byte(b).expect("known kind");
            assert_eq!(k.to_byte(), b);
        }
        assert_eq!(SensorKind::from_byte(99), Err(99));
    }

    #[test]
    fn decode_rejects_malformed() {
        let good = Sample::new(SensorKind::Sound, 1, 1, 1, &[1.0]).encode();
        assert_eq!(Sample::decode(&good[..31]), Err(SampleError::WrongSize(31)));
        let mut bad = good;
        bad[0] = b'X';
        assert_eq!(Sample::decode(&bad), Err(SampleError::BadMagic));
        let mut bad = good;
        bad[2] = 9;
        assert_eq!(Sample::decode(&bad), Err(SampleError::BadVersion(9)));
        let mut bad = good;
        bad[3] = 200;
        assert_eq!(Sample::decode(&bad), Err(SampleError::BadKind(200)));
        let mut bad = good;
        bad[6] = 0;
        assert_eq!(Sample::decode(&bad), Err(SampleError::BadChannelCount(0)));
        let mut bad = good;
        bad[6] = 4;
        assert_eq!(Sample::decode(&bad), Err(SampleError::BadChannelCount(4)));
    }

    #[test]
    fn peek_timestamp_agrees_with_decode() {
        let good = Sample::new(SensorKind::Sound, 1, 1, 987_654_321, &[1.0]).encode();
        assert_eq!(Sample::peek_timestamp_ns(&good), Some(987_654_321));
        assert_eq!(Sample::peek_timestamp_ns(&good[..31]), None);
        for (at, byte) in [(0, b'X'), (2, 9), (3, 200), (6, 0), (6, 4)] {
            let mut bad = good;
            bad[at] = byte;
            assert!(Sample::decode(&bad).is_err());
            assert_eq!(Sample::peek_timestamp_ns(&bad), None, "byte {at}");
        }
    }

    #[test]
    fn channels_behave_like_the_slice_of_valid_values() {
        let mut s = Sample::new(SensorKind::Accelerometer, 1, 1, 1, &[1.0, 2.0, 3.0]);
        assert_eq!(s.values.len(), 3);
        assert_eq!(s.values[2], 3.0);
        for v in s.values.iter_mut() {
            *v += 1.0;
        }
        assert_eq!(&*s.values, &[2.0, 3.0, 4.0]);
        let one = Sample::new(SensorKind::Sound, 1, 1, 1, &[2.0]);
        assert_ne!(one.values, s.values);
        assert_eq!(format!("{:?}", one.values), "[2.0]");
    }

    #[test]
    fn values_truncated_to_three() {
        let s = Sample::new(SensorKind::Accelerometer, 1, 1, 1, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.values.len(), 3);
    }

    #[test]
    fn topic_shape() {
        let s = Sample::new(SensorKind::Motion, 42, 0, 0, &[1.0]);
        assert_eq!(s.topic(), "sensor/42/motion");
    }

    #[test]
    fn datum_keys_are_slug_and_channel_name() {
        let channels: [(SensorKind, &[&str]); 7] = [
            (SensorKind::Accelerometer, &["x", "y", "z"]),
            (SensorKind::Illuminance, &["lux"]),
            (SensorKind::Sound, &["db"]),
            (SensorKind::Motion, &["level"]),
            (SensorKind::Temperature, &["celsius"]),
            (SensorKind::Humidity, &["percent"]),
            (SensorKind::PersonFlow, &["count"]),
        ];
        for (kind, names) in channels {
            let spelled: Vec<String> = names
                .iter()
                .map(|name| format!("{}_{name}", kind_slug(kind)))
                .collect();
            assert_eq!(kind.datum_keys(), spelled);
            assert_eq!(kind.datum_keys().len(), kind.channels());
        }
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_values_rejected() {
        let _ = Sample::new(SensorKind::Sound, 1, 1, 1, &[]);
    }
}
