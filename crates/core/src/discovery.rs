//! Stream discovery: dynamic join/leave of neuron modules.
//!
//! The paper's conclusion lists "the search function for data streams
//! generated from IoT devices that can dynamically join / leave the
//! network" as future work; this module implements it with pure MQTT
//! machinery:
//!
//! * On connect, a node publishes a **retained** [`NodeAnnouncement`] on
//!   `ifot/announce/<node>` listing the streams it produces and the
//!   capabilities it offers.
//! * Its CONNECT carries a **last will** on the same topic marking the
//!   node offline, so an ungraceful death updates the directory without
//!   any coordinator.
//! * Any party subscribing `ifot/announce/#` — late joiners included,
//!   thanks to retention — can maintain a [`FlowDirectory`] and search
//!   it by topic pattern or sensor kind.

use std::collections::BTreeMap;

use ifot_mqtt::topic::{TopicFilter, TopicName};

/// Topic prefix of the announcement plane.
pub const ANNOUNCE_PREFIX: &str = "ifot/announce";

/// The announcement topic of a node.
pub fn announce_topic(node: &str) -> String {
    format!("{ANNOUNCE_PREFIX}/{node}")
}

/// The filter that observes every announcement.
pub fn announce_filter() -> String {
    format!("{ANNOUNCE_PREFIX}/#")
}

/// One published stream of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamInfo {
    /// Topic the stream is published on.
    pub topic: String,
    /// Sensor kind slug, if the stream is a raw sensor flow.
    pub kind: Option<String>,
    /// Sampling/emission rate in Hz, if fixed.
    pub rate_hz: Option<f64>,
}

/// The retained self-description a node publishes on joining.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeAnnouncement {
    /// Node name.
    pub node: String,
    /// Whether the node is online (`false` is published by the will).
    pub online: bool,
    /// Streams this node produces.
    pub streams: Vec<StreamInfo>,
    /// Capabilities offered (`sensor:accel`, `actuator:alert`, …).
    pub capabilities: Vec<String>,
    /// Announcement time (nanoseconds, announcing node's clock).
    pub at_ns: u64,
    /// Monotone per-node revision; a retained announcement older than
    /// one already seen is stale and must not regress the directory.
    pub revision: u64,
}

impl NodeAnnouncement {
    /// Serializes to the wire payload: an announcement frame.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_announce_binary(self)
    }

    /// Parses from a wire payload.
    ///
    /// # Errors
    ///
    /// Returns a description for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        crate::wire::decode_announce_binary(bytes)
    }

    /// The offline tombstone a node leaves as its last will.
    pub fn offline(node: &str) -> Self {
        NodeAnnouncement {
            node: node.to_owned(),
            online: false,
            streams: Vec::new(),
            capabilities: Vec::new(),
            at_ns: 0,
            revision: 0,
        }
    }
}

/// A live view of the announcement plane: who is online and what streams
/// exist.
///
/// ```
/// use ifot_core::discovery::{announce_topic, FlowDirectory, NodeAnnouncement, StreamInfo};
///
/// let mut dir = FlowDirectory::new();
/// let ann = NodeAnnouncement {
///     node: "kitchen".into(),
///     online: true,
///     streams: vec![StreamInfo {
///         topic: "sensor/1/temperature".into(),
///         kind: Some("temperature".into()),
///         rate_hz: Some(10.0),
///     }],
///     capabilities: vec!["sensor:temperature".into()],
///     at_ns: 0,
///     revision: 0,
/// };
/// dir.apply(&announce_topic("kitchen"), &ann.encode());
/// assert_eq!(dir.online_nodes(), vec!["kitchen"]);
/// assert_eq!(dir.search_kind("temperature").len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlowDirectory {
    nodes: BTreeMap<String, NodeAnnouncement>,
    malformed: u64,
    stale: u64,
}

impl FlowDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one message from the announcement plane. Messages on other
    /// topics are ignored; malformed payloads are counted, and so is
    /// anything below `ifot/announce/<node>` — the plane is one level
    /// deep, and a deeper topic (a retained `…/<node>/load` heartbeat an
    /// older build left in a durable broker, say) names no node.
    pub fn apply(&mut self, topic: &str, payload: &[u8]) {
        let Some(node) = topic
            .strip_prefix(ANNOUNCE_PREFIX)
            .and_then(|rest| rest.strip_prefix('/'))
        else {
            return;
        };
        if node.contains('/') {
            self.malformed += 1;
            return;
        }
        match NodeAnnouncement::decode(payload) {
            Ok(ann) if ann.node == node => {
                // A live announcement with a lower revision than the one
                // on file is a stale retained copy — never regress.
                // Offline tombstones (last wills carry revision 0) always
                // apply: liveness beats topology freshness.
                if ann.online {
                    if let Some(existing) = self.nodes.get(node) {
                        if ann.revision < existing.revision {
                            self.stale += 1;
                            return;
                        }
                    }
                }
                self.nodes.insert(node.to_owned(), ann);
            }
            Ok(_) | Err(_) => self.malformed += 1,
        }
    }

    /// Malformed or mismatched announcements seen.
    pub fn malformed_count(&self) -> u64 {
        self.malformed
    }

    /// Stale (lower-revision) announcements that were rejected.
    pub fn stale_count(&self) -> u64 {
        self.stale
    }

    /// Names of currently online nodes, sorted.
    pub fn online_nodes(&self) -> Vec<&str> {
        self.nodes
            .values()
            .filter(|a| a.online)
            .map(|a| a.node.as_str())
            .collect()
    }

    /// The announcement of a node, online or not.
    pub fn node(&self, name: &str) -> Option<&NodeAnnouncement> {
        self.nodes.get(name)
    }

    /// Number of known nodes (including offline tombstones).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the directory has seen no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// All streams of online nodes whose topic matches `filter`
    /// (MQTT wildcards allowed).
    pub fn search_topic(&self, filter: &str) -> Vec<(&str, &StreamInfo)> {
        let Ok(f) = TopicFilter::new(filter) else {
            return Vec::new();
        };
        self.nodes
            .values()
            .filter(|a| a.online)
            .flat_map(|a| a.streams.iter().map(move |s| (a.node.as_str(), s)))
            .filter(|(_, s)| {
                TopicName::new(&s.topic)
                    .map(|t| f.matches(&t))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// All streams of online nodes with the given sensor kind slug.
    pub fn search_kind(&self, kind: &str) -> Vec<(&str, &StreamInfo)> {
        self.nodes
            .values()
            .filter(|a| a.online)
            .flat_map(|a| a.streams.iter().map(move |s| (a.node.as_str(), s)))
            .filter(|(_, s)| s.kind.as_deref() == Some(kind))
            .collect()
    }

    /// All online nodes offering a capability.
    pub fn search_capability(&self, capability: &str) -> Vec<&str> {
        self.nodes
            .values()
            .filter(|a| a.online && a.capabilities.iter().any(|c| c == capability))
            .map(|a| a.node.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(node: &str, online: bool, topics: &[(&str, &str)]) -> NodeAnnouncement {
        NodeAnnouncement {
            node: node.to_owned(),
            online,
            streams: topics
                .iter()
                .map(|(t, k)| StreamInfo {
                    topic: (*t).to_owned(),
                    kind: Some((*k).to_owned()),
                    rate_hz: Some(10.0),
                })
                .collect(),
            capabilities: vec![format!(
                "sensor:{}",
                topics.first().map(|(_, k)| *k).unwrap_or("")
            )],
            at_ns: 1,
            revision: 0,
        }
    }

    #[test]
    fn join_update_leave_lifecycle() {
        let mut dir = FlowDirectory::new();
        assert!(dir.is_empty());
        let a = ann("a", true, &[("sensor/1/sound", "sound")]);
        dir.apply(&announce_topic("a"), &a.encode());
        assert_eq!(dir.online_nodes(), vec!["a"]);
        assert_eq!(dir.len(), 1);

        // Update with more streams.
        let a2 = ann(
            "a",
            true,
            &[("sensor/1/sound", "sound"), ("sensor/2/motion", "motion")],
        );
        dir.apply(&announce_topic("a"), &a2.encode());
        assert_eq!(dir.node("a").expect("present").streams.len(), 2);

        // Will: tombstone.
        dir.apply(
            &announce_topic("a"),
            &NodeAnnouncement::offline("a").encode(),
        );
        assert!(dir.online_nodes().is_empty());
        assert_eq!(dir.len(), 1, "tombstone retained");
    }

    #[test]
    fn search_by_topic_kind_and_capability() {
        let mut dir = FlowDirectory::new();
        dir.apply(
            &announce_topic("a"),
            &ann("a", true, &[("sensor/1/sound", "sound")]).encode(),
        );
        dir.apply(
            &announce_topic("b"),
            &ann("b", true, &[("sensor/2/accel", "accel")]).encode(),
        );
        dir.apply(
            &announce_topic("c"),
            &ann("c", false, &[("sensor/3/accel", "accel")]).encode(),
        );
        assert_eq!(dir.search_topic("sensor/#").len(), 2, "offline excluded");
        assert_eq!(dir.search_topic("sensor/+/accel").len(), 1);
        assert_eq!(dir.search_kind("accel").len(), 1);
        assert_eq!(dir.search_kind("humidity").len(), 0);
        assert_eq!(dir.search_capability("sensor:sound"), vec!["a"]);
        assert!(dir.search_topic("][invalid").is_empty());
    }

    #[test]
    fn malformed_and_spoofed_announcements_counted() {
        let mut dir = FlowDirectory::new();
        dir.apply(&announce_topic("x"), b"not json");
        // Announcement claiming a different node name than its topic.
        dir.apply(
            &announce_topic("x"),
            &ann("y", true, &[("t", "sound")]).encode(),
        );
        assert_eq!(dir.malformed_count(), 2);
        assert!(dir.is_empty());
        // Non-announce topics ignored silently.
        dir.apply("sensor/1/sound", b"whatever");
        dir.apply("ifot/announcements/x", b"whatever");
        assert_eq!(dir.malformed_count(), 2);
        // The plane is one level deep: a topic below a node's own is not
        // a node, whatever the frame on it claims to be.
        let nested = ann("x/load", true, &[("t", "sound")]);
        dir.apply(&announce_topic("x/load"), &nested.encode());
        dir.apply(&announce_topic("x/load"), b"not a frame");
        dir.apply(&announce_topic("x"), &nested.encode());
        assert_eq!(dir.malformed_count(), 5);
        assert!(dir.is_empty());
    }

    #[test]
    fn stale_retained_announcements_do_not_regress() {
        let mut dir = FlowDirectory::new();
        let mut fresh = ann("a", true, &[("sensor/1/sound", "sound")]);
        fresh.revision = 5;
        dir.apply(&announce_topic("a"), &fresh.encode());

        // A stale retained copy (lower revision) must be rejected.
        let mut stale = ann("a", true, &[]);
        stale.revision = 3;
        dir.apply(&announce_topic("a"), &stale.encode());
        assert_eq!(dir.stale_count(), 1);
        assert_eq!(dir.node("a").expect("present").streams.len(), 1);

        // Equal or newer revisions overwrite (equal keeps announcements
        // that never bump their revision updatable).
        let mut newer = ann("a", true, &[]);
        newer.revision = 5;
        dir.apply(&announce_topic("a"), &newer.encode());
        assert!(dir.node("a").expect("present").streams.is_empty());

        // The offline will carries revision 0 but always applies.
        dir.apply(
            &announce_topic("a"),
            &NodeAnnouncement::offline("a").encode(),
        );
        assert!(dir.online_nodes().is_empty());
        assert_eq!(dir.stale_count(), 1);
    }

    #[test]
    fn announcement_round_trip() {
        let a = ann("n", true, &[("sensor/9/humidity", "humidity")]);
        assert_eq!(
            NodeAnnouncement::decode(&a.encode()).expect("round trip"),
            a
        );
        assert!(NodeAnnouncement::decode(b"{").is_err());
    }
}
