//! MQTT 3.1.1 control packet model.
//!
//! Implemented: CONNECT / CONNACK, PUBLISH at QoS 0/1/2 with the full
//! acknowledgement flows (PUBACK, PUBREC / PUBREL / PUBCOMP),
//! SUBSCRIBE / SUBACK, UNSUBSCRIBE / UNSUBACK, PINGREQ / PINGRESP and
//! DISCONNECT — the protocol surface Mosquitto exercised in the paper's
//! prototype.

use bytes::Bytes;

use crate::topic::{TopicFilter, TopicName};

/// Message delivery quality of service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum QoS {
    /// Fire and forget.
    #[default]
    AtMostOnce = 0,
    /// Acknowledged delivery (PUBACK), retransmitted until acked.
    AtLeastOnce = 1,
    /// Exactly-once handshake (PUBREC/PUBREL/PUBCOMP).
    ExactlyOnce = 2,
}

impl QoS {
    /// Parses the two-bit QoS field.
    ///
    /// # Errors
    ///
    /// Returns the raw value if it is not 0, 1 or 2.
    pub fn from_bits(bits: u8) -> Result<QoS, u8> {
        match bits {
            0 => Ok(QoS::AtMostOnce),
            1 => Ok(QoS::AtLeastOnce),
            2 => Ok(QoS::ExactlyOnce),
            other => Err(other),
        }
    }

    /// The two-bit wire representation.
    pub fn bits(self) -> u8 {
        self as u8
    }

    /// The lower of two QoS levels (used when granting subscriptions).
    pub fn min(self, other: QoS) -> QoS {
        if (self as u8) <= (other as u8) {
            self
        } else {
            other
        }
    }
}

/// Packet identifier for acknowledged flows (never zero on the wire).
pub type PacketId = u16;

/// CONNACK return codes (3.1.1 §3.2.2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectReturnCode {
    /// Connection accepted.
    Accepted,
    /// The protocol level is not supported.
    UnacceptableProtocolVersion,
    /// The client identifier is not allowed.
    IdentifierRejected,
    /// The service is unavailable.
    ServerUnavailable,
    /// Bad user name or password.
    BadCredentials,
    /// The client is not authorized.
    NotAuthorized,
}

impl ConnectReturnCode {
    /// Wire byte of the code.
    pub fn to_byte(self) -> u8 {
        match self {
            ConnectReturnCode::Accepted => 0,
            ConnectReturnCode::UnacceptableProtocolVersion => 1,
            ConnectReturnCode::IdentifierRejected => 2,
            ConnectReturnCode::ServerUnavailable => 3,
            ConnectReturnCode::BadCredentials => 4,
            ConnectReturnCode::NotAuthorized => 5,
        }
    }

    /// Parses the wire byte.
    ///
    /// # Errors
    ///
    /// Returns the raw value for unknown codes.
    pub fn from_byte(b: u8) -> Result<Self, u8> {
        Ok(match b {
            0 => ConnectReturnCode::Accepted,
            1 => ConnectReturnCode::UnacceptableProtocolVersion,
            2 => ConnectReturnCode::IdentifierRejected,
            3 => ConnectReturnCode::ServerUnavailable,
            4 => ConnectReturnCode::BadCredentials,
            5 => ConnectReturnCode::NotAuthorized,
            other => return Err(other),
        })
    }
}

/// A will message published by the broker when a client vanishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LastWill {
    /// Topic the will is published to.
    pub topic: TopicName,
    /// Will payload (cheaply cloneable, shared).
    pub payload: Bytes,
    /// QoS of the will publication.
    pub qos: QoS,
    /// Whether the will is retained.
    pub retain: bool,
}

/// CONNECT packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Connect {
    /// Client identifier (may be empty only with `clean_session`).
    pub client_id: String,
    /// Whether the broker must discard prior session state.
    pub clean_session: bool,
    /// Keep-alive interval in seconds (0 disables).
    pub keep_alive_secs: u16,
    /// Optional will message.
    pub will: Option<LastWill>,
    /// Optional user name.
    pub username: Option<String>,
    /// Optional password bytes.
    pub password: Option<Bytes>,
}

impl Connect {
    /// A plain clean-session connect with the given client id.
    pub fn new(client_id: impl Into<String>) -> Self {
        Connect {
            client_id: client_id.into(),
            clean_session: true,
            keep_alive_secs: 60,
            will: None,
            username: None,
            password: None,
        }
    }
}

/// CONNACK packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Connack {
    /// Whether the broker resumed stored session state.
    pub session_present: bool,
    /// Accept/refuse code.
    pub code: ConnectReturnCode,
}

/// PUBLISH packet.
///
/// A publish the codec decoded may keep the frame it came from: it does
/// when, and only when, that frame already *is* the publish's QoS 0
/// delivery — first byte `0x30` (QoS 0, no dup, no retain) and a minimal
/// remaining-length varint — so the broker forwards the buffer that
/// arrived instead of encoding an identical one. The kept frame is a
/// function of `topic` and `payload` (the payload is a view of it), which
/// is why equality ignores it and why the **topic and payload of a decoded
/// publish are not edited in place**: build a new publish with
/// [`Publish::qos0`] / [`Publish::qos1`] instead. The per-hop fields
/// (`dup`, `qos`, `retain`, `packet_id`) may be changed freely; a QoS 0
/// delivery clears them anyway.
#[derive(Debug, Clone)]
pub struct Publish {
    /// Duplicate redelivery flag.
    pub dup: bool,
    /// Delivery QoS.
    pub qos: QoS,
    /// Retain flag.
    pub retain: bool,
    /// Destination topic.
    pub topic: TopicName,
    /// Packet id; present iff `qos > 0`.
    pub packet_id: Option<PacketId>,
    /// Application payload. Stored as [`Bytes`] so one allocation made at
    /// the producer is reference-shared through codec, broker fan-out,
    /// inflight/retained state and every subscriber without copying.
    pub payload: Bytes,
    /// The frame this publish was decoded from, kept when it equals
    /// `codec::encode_qos0_delivery(self)` byte for byte (see above).
    pub(crate) qos0_frame: Option<Bytes>,
}

impl PartialEq for Publish {
    fn eq(&self, other: &Self) -> bool {
        (self.dup, self.qos, self.retain, self.packet_id)
            == (other.dup, other.qos, other.retain, other.packet_id)
            && self.topic == other.topic
            && self.payload == other.payload
    }
}

impl Eq for Publish {}

impl Publish {
    /// A QoS 0 publication.
    pub fn qos0(topic: TopicName, payload: impl Into<Bytes>) -> Self {
        Publish {
            dup: false,
            qos: QoS::AtMostOnce,
            retain: false,
            topic,
            packet_id: None,
            payload: payload.into(),
            qos0_frame: None,
        }
    }

    /// A QoS 1 publication with the given packet id.
    pub fn qos1(topic: TopicName, payload: impl Into<Bytes>, packet_id: PacketId) -> Self {
        Publish {
            qos: QoS::AtLeastOnce,
            packet_id: Some(packet_id),
            ..Publish::qos0(topic, payload)
        }
    }
}

/// One (filter, requested QoS) pair inside SUBSCRIBE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeFilter {
    /// The requested filter.
    pub filter: TopicFilter,
    /// The maximum QoS the subscriber wants.
    pub qos: QoS,
}

/// SUBSCRIBE packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscribe {
    /// Packet id of the request.
    pub packet_id: PacketId,
    /// Requested filters (non-empty).
    pub filters: Vec<SubscribeFilter>,
}

/// Per-filter SUBACK result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubackCode {
    /// Granted with the contained maximum QoS.
    Granted(QoS),
    /// The subscription was refused.
    Failure,
}

impl SubackCode {
    /// Wire byte of the code.
    pub fn to_byte(self) -> u8 {
        match self {
            SubackCode::Granted(q) => q.bits(),
            SubackCode::Failure => 0x80,
        }
    }

    /// Parses the wire byte.
    ///
    /// # Errors
    ///
    /// Returns the raw value for bytes that are neither a QoS nor 0x80.
    pub fn from_byte(b: u8) -> Result<Self, u8> {
        if b == 0x80 {
            Ok(SubackCode::Failure)
        } else {
            QoS::from_bits(b).map(SubackCode::Granted)
        }
    }
}

/// SUBACK packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suback {
    /// Packet id being answered.
    pub packet_id: PacketId,
    /// One code per requested filter, in order.
    pub codes: Vec<SubackCode>,
}

/// UNSUBSCRIBE packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsubscribe {
    /// Packet id of the request.
    pub packet_id: PacketId,
    /// Filters to remove (non-empty).
    pub filters: Vec<TopicFilter>,
}

/// Any MQTT control packet of the implemented subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Client → broker session open.
    Connect(Connect),
    /// Broker → client session accept/refuse.
    Connack(Connack),
    /// Application message, either direction.
    Publish(Publish),
    /// QoS 1 acknowledgement.
    Puback(PacketId),
    /// QoS 2 step 1: receiver got the publish.
    Pubrec(PacketId),
    /// QoS 2 step 2: sender releases the message.
    Pubrel(PacketId),
    /// QoS 2 step 3: receiver completed the handshake.
    Pubcomp(PacketId),
    /// Subscription request.
    Subscribe(Subscribe),
    /// Subscription acknowledgement.
    Suback(Suback),
    /// Unsubscription request.
    Unsubscribe(Unsubscribe),
    /// Unsubscription acknowledgement.
    Unsuback(PacketId),
    /// Keep-alive probe.
    Pingreq,
    /// Keep-alive answer.
    Pingresp,
    /// Orderly session close.
    Disconnect,
}

impl Packet {
    /// The packet-type nibble used in the fixed header.
    pub fn packet_type(&self) -> u8 {
        match self {
            Packet::Connect(_) => 1,
            Packet::Connack(_) => 2,
            Packet::Publish(_) => 3,
            Packet::Puback(_) => 4,
            Packet::Pubrec(_) => 5,
            Packet::Pubrel(_) => 6,
            Packet::Pubcomp(_) => 7,
            Packet::Subscribe(_) => 8,
            Packet::Suback(_) => 9,
            Packet::Unsubscribe(_) => 10,
            Packet::Unsuback(_) => 11,
            Packet::Pingreq => 12,
            Packet::Pingresp => 13,
            Packet::Disconnect => 14,
        }
    }

    /// A short human-readable packet-kind label.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Packet::Connect(_) => "CONNECT",
            Packet::Connack(_) => "CONNACK",
            Packet::Publish(_) => "PUBLISH",
            Packet::Puback(_) => "PUBACK",
            Packet::Pubrec(_) => "PUBREC",
            Packet::Pubrel(_) => "PUBREL",
            Packet::Pubcomp(_) => "PUBCOMP",
            Packet::Subscribe(_) => "SUBSCRIBE",
            Packet::Suback(_) => "SUBACK",
            Packet::Unsubscribe(_) => "UNSUBSCRIBE",
            Packet::Unsuback(_) => "UNSUBACK",
            Packet::Pingreq => "PINGREQ",
            Packet::Pingresp => "PINGRESP",
            Packet::Disconnect => "DISCONNECT",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qos_bits_round_trip() {
        for q in [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce] {
            assert_eq!(QoS::from_bits(q.bits()), Ok(q));
        }
        assert_eq!(QoS::from_bits(3), Err(3));
    }

    #[test]
    fn qos_min_grants_lower() {
        assert_eq!(QoS::AtLeastOnce.min(QoS::AtMostOnce), QoS::AtMostOnce);
        assert_eq!(QoS::AtMostOnce.min(QoS::ExactlyOnce), QoS::AtMostOnce);
        assert_eq!(QoS::AtLeastOnce.min(QoS::AtLeastOnce), QoS::AtLeastOnce);
    }

    #[test]
    fn return_codes_round_trip() {
        for b in 0..=5u8 {
            let code = ConnectReturnCode::from_byte(b).expect("known code");
            assert_eq!(code.to_byte(), b);
        }
        assert_eq!(ConnectReturnCode::from_byte(9), Err(9));
    }

    #[test]
    fn suback_codes_round_trip() {
        for b in [0u8, 1, 2, 0x80] {
            let c = SubackCode::from_byte(b).expect("known code");
            assert_eq!(c.to_byte(), b);
        }
        assert_eq!(SubackCode::from_byte(0x7f), Err(0x7f));
    }

    #[test]
    fn constructors_set_qos() {
        let t = TopicName::new("a").expect("valid");
        let p0 = Publish::qos0(t.clone(), vec![1]);
        assert_eq!(p0.qos, QoS::AtMostOnce);
        assert_eq!(p0.packet_id, None);
        let p1 = Publish::qos1(t, vec![1], 7);
        assert_eq!(p1.qos, QoS::AtLeastOnce);
        assert_eq!(p1.packet_id, Some(7));
    }

    #[test]
    fn packet_types_match_spec() {
        let t = TopicName::new("a").expect("valid");
        assert_eq!(Packet::Connect(Connect::new("c")).packet_type(), 1);
        assert_eq!(Packet::Publish(Publish::qos0(t, vec![])).packet_type(), 3);
        assert_eq!(Packet::Pingreq.packet_type(), 12);
        assert_eq!(Packet::Disconnect.packet_type(), 14);
        assert_eq!(Packet::Pingresp.kind_name(), "PINGRESP");
    }
}
