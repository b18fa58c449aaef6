//! Flow items: the data units the middleware's classes exchange.
//!
//! Three payload families travel on the flow plane, all binary:
//!
//! * **Raw sensor samples** — the 32-byte binary image
//!   ([`ifot_sensors::sample::Sample`]) published by the Sensor/Publish
//!   classes on `sensor/<device>/<kind>` topics.
//! * **Flow messages** — one [`FlowMessage`] (a datum, optional label and
//!   provenance) published by an analysis operator on
//!   `flow/<recipe>/<task>`, as a message frame.
//! * **Flow batches** — N messages coalesced into one [`FlowBatch`] frame.
//!
//! [`crate::wire::decode_items_lean`] normalizes all three into
//! [`FlowItem`]s. An item is a small value: its topic, like a message's
//! producer, is a shared [`Name`] and its datum keeps up to three
//! features inline, so handing an item to one more stage, or merging
//! three of them in a join, copies no text. [`crate::wire`] holds the
//! frame layouts.

use std::sync::Arc;

use ifot_ml::feature::{Datum, FeatureKey};
use ifot_sensors::sample::Sample;

/// A shared, immutable name — a topic, a producer or a task id. Cloning
/// bumps a reference count; it dereferences to the `str` it holds.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl core::ops::Deref for Name {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl<S: Into<Arc<str>>> From<S> for Name {
    fn from(s: S) -> Self {
        Name(s.into())
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

/// A flow message: the unit exchanged between analysis operators.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowMessage {
    /// The task that produced this message.
    pub producer: Name,
    /// Earliest sensing timestamp contributing to this message
    /// (nanoseconds) — carried through the pipeline so every stage can
    /// report sensing-to-X latency, the paper's measured quantity.
    pub origin_ts_ns: u64,
    /// Monotone sequence number at the producer.
    pub seq: u64,
    /// The payload features.
    pub datum: Datum,
    /// Optional label / decision attached by an upstream stage.
    pub label: Option<String>,
    /// Optional numeric score (anomaly score, confidence).
    pub score: Option<f64>,
}

impl FlowMessage {
    /// Serializes to the wire payload: a message frame.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_message_binary(self)
    }

    /// Parses a message frame.
    ///
    /// # Errors
    ///
    /// Returns a description for anything that is not exactly one
    /// message frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        crate::wire::decode_message_binary(bytes)
    }
}

/// A batch of flow messages coalesced into one wire frame: one publish
/// (one broker routing + fan-out) carries N samples. The binary encoding
/// ([`crate::wire::encode_batch_binary`]) shares the producer header
/// and a datum-key dictionary across items and delta-encodes
/// `origin_ts_ns`/`seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowBatch {
    /// The coalesced messages, in publish order.
    pub items: Vec<FlowMessage>,
}

impl FlowBatch {
    /// Earliest sensing timestamp across the batch (`None` when empty).
    pub fn first_origin_ns(&self) -> Option<u64> {
        self.items.iter().map(|m| m.origin_ts_ns).min()
    }

    /// Number of coalesced messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the batch holds no messages.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

/// Normalized in-memory flow unit handed to operators.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowItem {
    /// Topic the item arrived on.
    pub topic: Name,
    /// Earliest sensing timestamp (nanoseconds).
    pub origin_ts_ns: u64,
    /// Producer-side sequence number.
    pub seq: u64,
    /// Features.
    pub datum: Datum,
    /// Optional upstream label.
    pub label: Option<String>,
    /// Optional upstream score.
    pub score: Option<f64>,
}

impl FlowItem {
    /// Normalizes a decoded flow message arriving on `topic`.
    pub fn from_message(topic: impl Into<Name>, msg: FlowMessage) -> FlowItem {
        FlowItem {
            topic: topic.into(),
            origin_ts_ns: msg.origin_ts_ns,
            seq: msg.seq,
            datum: msg.datum,
            label: msg.label,
            score: msg.score,
        }
    }

    /// Rebuilds the wire message for this item (used when coalescing
    /// normalized items — e.g. raw sensor samples — into a batch).
    pub fn into_message(self, producer: impl Into<Name>) -> FlowMessage {
        FlowMessage {
            producer: producer.into(),
            origin_ts_ns: self.origin_ts_ns,
            seq: self.seq,
            datum: self.datum,
            label: self.label,
            score: self.score,
        }
    }

    /// Converts a raw sensor sample into a flow item; the datum keys are
    /// the kind's static [`SensorKind::datum_keys`] table.
    ///
    /// [`SensorKind::datum_keys`]: ifot_sensors::sample::SensorKind::datum_keys
    pub fn from_sample(topic: impl Into<Name>, sample: &Sample) -> FlowItem {
        let keys = sample.kind.datum_keys().iter().copied();
        FlowItem {
            topic: topic.into(),
            origin_ts_ns: sample.timestamp_ns,
            seq: sample.seq as u64,
            datum: keys
                .map(FeatureKey::Static)
                .zip(sample.values.iter().map(|v| f64::from(*v)))
                .collect(),
            label: None,
            score: None,
        }
    }
}

/// Topic conventions used by the middleware.
pub mod topics {
    /// Topic sensors publish on: `sensor/<device>/<kind>`.
    pub fn sensor(device_id: u16, kind_slug: &str) -> String {
        format!("sensor/{device_id}/{kind_slug}")
    }

    /// Topic an operator publishes on: `flow/<recipe>/<task>`.
    pub fn flow(recipe: &str, task: &str) -> String {
        format!("flow/{recipe}/{task}")
    }

    /// Topic actuator commands are sent on: `actuator/<device>`.
    pub fn actuator(device_id: u16) -> String {
        format!("actuator/{device_id}")
    }

    /// Topic a training task publishes MIX snapshots on.
    pub fn mix_offer(recipe: &str, task: &str) -> String {
        format!("mix/{recipe}/{task}/offer")
    }

    /// Topic the MIX coordinator publishes averages on.
    pub fn mix_average(recipe: &str, task: &str) -> String {
        format!("mix/{recipe}/{task}/avg")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifot_sensors::sample::SensorKind;

    #[test]
    fn flow_message_round_trip() {
        let m = FlowMessage {
            producer: "agg".into(),
            origin_ts_ns: 123,
            seq: 7,
            datum: Datum::new().with("x", 1.0),
            label: Some("ok".into()),
            score: Some(0.5),
        };
        let back = FlowMessage::decode(&m.encode()).expect("round trip");
        assert_eq!(back, m);
        assert!(FlowMessage::decode(b"junk").is_err());
        assert!(FlowMessage::decode(b"{}").is_err());
    }

    #[test]
    fn sample_normalizes_to_item() {
        let sample = Sample::new(SensorKind::Accelerometer, 3, 9, 555, &[1.0, 2.0, 3.0]);
        let item = FlowItem::from_sample("sensor/3/accel", &sample);
        assert_eq!(item.origin_ts_ns, 555);
        assert_eq!(item.seq, 9);
        assert_eq!(item.datum.get("accel_x"), Some(1.0));
        assert_eq!(item.datum.get("accel_z"), Some(3.0));
        assert_eq!(item.label, None);
    }

    #[test]
    fn message_normalizes_to_item() {
        let m = FlowMessage {
            producer: "p".into(),
            origin_ts_ns: 1,
            seq: 2,
            datum: Datum::new().with("a", 4.0),
            label: None,
            score: None,
        };
        let item = FlowItem::from_message("flow/r/p", m.clone());
        assert_eq!(item.datum.get("a"), Some(4.0));
        assert_eq!(item.topic, "flow/r/p");
        assert_eq!(item.into_message("p"), m);
    }

    #[test]
    fn topic_helpers() {
        assert_eq!(topics::sensor(3, "accel"), "sensor/3/accel");
        assert_eq!(topics::flow("r", "t"), "flow/r/t");
        assert_eq!(topics::actuator(9), "actuator/9");
        assert_eq!(topics::mix_offer("r", "t"), "mix/r/t/offer");
        assert_eq!(topics::mix_average("r", "t"), "mix/r/t/avg");
    }
}
