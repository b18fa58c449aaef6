//! The MQTT client session — used by the IFoT *Publish* and *Subscribe*
//! classes.
//!
//! Like the broker, the client is sans-I/O: calling an operation returns
//! the packets to put on the wire, feeding received packets returns
//! [`ClientEvent`]s for the application, and [`Client::poll`] drives
//! retransmission and keep-alive pings against a caller-supplied clock.
//!
//! What the per-message paths allocate: [`Client::publish_frame`] takes the
//! payload as borrowed bytes and writes the encoded frame into one buffer —
//! at QoS 1/2 the copy tracked for retransmission is a view of that frame,
//! not a second buffer. The client keeps the frames it sent in a queue,
//! oldest first, and writes the next one over the oldest once every reader
//! has let go of it (growing it where it has no room): a publisher whose
//! readers let go of its frames in the order they were sent allocates
//! nothing per message. A frame someone still holds — the transport's
//! queue, a subscriber's payload view, the in-flight copy of an
//! unacknowledged QoS 1/2 publish — is never written; while the oldest is
//! held, the publish makes one new buffer and queues it behind the others.
//! The queue drops its oldest frames only while it holds more than
//! [`FRAME_KEEP_BYTES`] (64 KiB), so a publisher allocates only while more
//! of its frames are in flight than ever before, up to that bound: a
//! reader that stalls and catches up costs nothing the next time. A
//! publish looks at one kept frame, however many are kept. Frames over
//! `FRAME_KEEP_MAX` (2 KiB) are not kept.
//! [`Client::handle_packet_into`] appends to lists the caller keeps, so an
//! inbound QoS 0 PUBLISH allocates nothing here.

use std::collections::{BTreeMap, VecDeque};

use bytes::{Bytes, BytesMut};

use crate::codec;
use crate::error::SessionError;
use crate::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, PacketId, Publish, QoS, Subscribe,
    SubscribeFilter, Unsubscribe,
};
use crate::topic::{TopicFilter, TopicName};

/// Bytes the frames a [`Client`] keeps to write later ones into may hold
/// (module docs): each frame's allocation — its capacity behind the
/// `Arc`'s two counts — and the slots of the queue they wait in. That is
/// 512 frames of 72 B (a Fig. 9 sample's PUBLISH) or 31 of 2 KiB. The Fig.
/// 9 hub holds each frame across two hops through its node thread's inbox
/// (edge to broker, broker to its own client), so a hub thread the host
/// does not run for a few milliseconds holds hundreds.
pub const FRAME_KEEP_BYTES: usize = 64 * 1024;

/// Largest frame a [`Client`] keeps, in bytes: a bigger one is its own
/// allocation, freed with its last reader. A `chain_batched_rt` batch of
/// 32 samples is a frame of ≈ 0.6 KiB.
const FRAME_KEEP_MAX: usize = 2048;

/// What one slot of a [`Client`]'s frame queue costs.
const FRAME_SLOT_BYTES: usize = std::mem::size_of::<(Bytes, usize)>();

/// What a kept frame's buffer of `capacity` bytes costs the heap: an
/// `Arc<[u8]>`, its two counts ahead of the bytes.
fn frame_bytes(capacity: usize) -> usize {
    2 * std::mem::size_of::<usize>() + capacity.next_multiple_of(std::mem::align_of::<usize>())
}

/// Client tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// Keep-alive interval in seconds (0 disables pings).
    pub keep_alive_secs: u16,
    /// Whether to request a clean session.
    pub clean_session: bool,
    /// Resend an unacked QoS 1 publish after this many nanoseconds.
    pub retransmit_timeout_ns: u64,
    /// Optional last will.
    pub will: Option<LastWill>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            keep_alive_secs: 60,
            clean_session: true,
            retransmit_timeout_ns: 2_000_000_000,
            will: None,
        }
    }
}

/// Sender-side state of one QoS 2 publication.
#[derive(Debug, Clone)]
enum Qos2Out {
    /// PUBLISH sent, awaiting PUBREC.
    AwaitRec { publish: Publish, sent_ns: u64 },
    /// PUBREL sent, awaiting PUBCOMP.
    AwaitComp { sent_ns: u64 },
}

/// Connection state of the client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientState {
    /// No CONNECT sent yet (or the session was reset).
    Disconnected,
    /// CONNECT sent, CONNACK pending.
    Connecting,
    /// CONNACK accepted.
    Connected,
}

/// Something the broker told us that the application cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// The connection was accepted.
    Connected {
        /// Whether the broker resumed a stored session.
        session_present: bool,
    },
    /// The connection was refused.
    Refused(ConnectReturnCode),
    /// An application message arrived.
    Message(Publish),
    /// A previously sent QoS 1 publish was acknowledged.
    Published(PacketId),
    /// A subscribe request completed (one code per filter).
    Subscribed(PacketId),
    /// An unsubscribe request completed.
    Unsubscribed(PacketId),
    /// The broker answered a ping.
    Pong,
}

/// Sans-I/O MQTT client session.
///
/// ```
/// use ifot_mqtt::client::{Client, ClientConfig, ClientEvent};
/// use ifot_mqtt::packet::{Packet, QoS};
/// use ifot_mqtt::topic::{TopicFilter, TopicName};
///
/// let mut client = Client::new("node-a", ClientConfig::default());
/// let connect = client.connect()?; // put this on the wire
/// assert!(matches!(connect, Packet::Connect(_)));
/// # Ok::<(), ifot_mqtt::error::SessionError>(())
/// ```
#[derive(Debug)]
pub struct Client {
    id: String,
    config: ClientConfig,
    state: ClientState,
    next_pid: u16,
    inflight: BTreeMap<PacketId, (Publish, u64)>,
    inflight2: BTreeMap<PacketId, Qos2Out>,
    /// Packet ids of incoming QoS 2 publishes whose PUBREL is pending —
    /// duplicates of these must not be re-delivered to the application.
    incoming_rec: std::collections::BTreeSet<PacketId>,
    pending_subs: BTreeMap<PacketId, (Vec<(TopicFilter, QoS)>, u64)>,
    subscriptions: Vec<TopicFilter>,
    last_sent_ns: u64,
    last_rx_ns: u64,
    ping_outstanding: bool,
    replayed_packets: u64,
    /// The frames [`Client::publish_frame`] wrote that it keeps (module
    /// docs), oldest first, each with its buffer's capacity, and what
    /// their buffers cost the heap ([`frame_bytes`]).
    frames: VecDeque<(Bytes, usize)>,
    frames_bytes: usize,
}

impl Client {
    /// Creates a session for the given client id.
    pub fn new(id: impl Into<String>, config: ClientConfig) -> Self {
        Client {
            id: id.into(),
            config,
            state: ClientState::Disconnected,
            next_pid: 0,
            inflight: BTreeMap::new(),
            inflight2: BTreeMap::new(),
            incoming_rec: std::collections::BTreeSet::new(),
            pending_subs: BTreeMap::new(),
            subscriptions: Vec::new(),
            last_sent_ns: 0,
            last_rx_ns: 0,
            ping_outstanding: false,
            replayed_packets: 0,
            // The queue's first slots are made with the client, so its
            // first publish makes its frame only.
            frames: VecDeque::with_capacity(4),
            frames_bytes: 0,
        }
    }

    /// The client identifier.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Current connection state.
    pub fn state(&self) -> ClientState {
        self.state
    }

    /// Filters this session believes it is subscribed to.
    pub fn subscriptions(&self) -> &[TopicFilter] {
        &self.subscriptions
    }

    /// Number of QoS 1 publishes awaiting PUBACK.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }

    /// Number of QoS 2 publishes in the exactly-once handshake.
    pub fn inflight2_count(&self) -> usize {
        self.inflight2.len()
    }

    /// When the last packet from the broker was received (0 before any).
    pub fn last_rx_ns(&self) -> u64 {
        self.last_rx_ns
    }

    /// Packets replayed after reconnects (QoS 1 dups, QoS 2
    /// PUBLISH/PUBREL resumes) — a session-resume activity counter.
    pub fn replayed_packets(&self) -> u64 {
        self.replayed_packets
    }

    fn alloc_pid(&mut self) -> PacketId {
        loop {
            self.next_pid = self.next_pid.wrapping_add(1);
            if self.next_pid != 0
                && !self.inflight.contains_key(&self.next_pid)
                && !self.inflight2.contains_key(&self.next_pid)
                && !self.pending_subs.contains_key(&self.next_pid)
            {
                return self.next_pid;
            }
        }
    }

    /// Builds the CONNECT packet and transitions to `Connecting`.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::ProtocolViolation`] if already connected or
    /// connecting.
    pub fn connect(&mut self) -> Result<Packet, SessionError> {
        if self.state != ClientState::Disconnected {
            return Err(SessionError::ProtocolViolation("connect while connected"));
        }
        self.state = ClientState::Connecting;
        let mut c = Connect::new(self.id.clone());
        c.clean_session = self.config.clean_session;
        c.keep_alive_secs = self.config.keep_alive_secs;
        c.will = self.config.will.clone();
        Ok(Packet::Connect(c))
    }

    /// Encodes a PUBLISH of `payload` and returns the frame to put on the
    /// wire: written into a kept frame no one holds any more, or into the
    /// only buffer the call makes (module docs).
    ///
    /// QoS 0 keeps nothing. For QoS 1 the message is tracked and
    /// retransmitted by [`Client::poll`] until a PUBACK arrives; for QoS 2
    /// the full exactly-once handshake (PUBREC/PUBREL/PUBCOMP) is driven.
    /// The tracked copy's payload is a view of the returned frame.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::NotConnected`] before a successful CONNACK.
    pub fn publish_frame(
        &mut self,
        topic: &TopicName,
        payload: &[u8],
        qos: QoS,
        retain: bool,
        now_ns: u64,
    ) -> Result<Bytes, SessionError> {
        if self.state != ClientState::Connected {
            return Err(SessionError::NotConnected);
        }
        let packet_id = (qos != QoS::AtMostOnce).then(|| self.alloc_pid());
        let len = codec::publish_len(topic, payload, packet_id);
        let frame = if len > FRAME_KEEP_MAX {
            codec::encode_publish(topic, payload, qos, retain, packet_id)
        } else {
            let buf = self.frame_buffer(len);
            let capacity = buf.capacity();
            let frame = codec::encode_publish_into(buf, topic, payload, qos, retain, packet_id);
            self.keep(frame.clone(), capacity);
            frame
        };
        if let Some(pid) = packet_id {
            let view = frame.slice(frame.len() - payload.len()..);
            let publish = Publish {
                qos,
                retain,
                ..Publish::qos1(topic.clone(), view, pid)
            };
            if qos == QoS::ExactlyOnce {
                let sent_ns = now_ns;
                self.inflight2
                    .insert(pid, Qos2Out::AwaitRec { publish, sent_ns });
            } else {
                self.inflight.insert(pid, (publish, now_ns));
            }
        }
        self.last_sent_ns = now_ns;
        Ok(frame)
    }

    /// A buffer with room for a `len`-byte frame: the oldest kept frame if
    /// no one else holds it, or else a new buffer. An oldest frame too
    /// small grows as a `BytesMut` does, at least doubling, so frames of
    /// varying length soon fit the buffers they are written into.
    fn frame_buffer(&mut self, len: usize) -> BytesMut {
        if let Some((oldest, capacity)) = self.frames.pop_front() {
            match oldest.try_into_mut() {
                Ok(mut buf) => {
                    self.frames_bytes -= frame_bytes(capacity);
                    buf.clear();
                    buf.reserve(len);
                    return buf;
                }
                Err(held) => self.frames.push_front((held, capacity)),
            }
        }
        BytesMut::with_capacity(len)
    }

    /// Queues `frame`, written into a buffer of `capacity` bytes, behind
    /// the kept frames, and drops the oldest while they cost more than
    /// [`FRAME_KEEP_BYTES`]. The queue doubles its slots when it is full,
    /// unless the doubled slots would not fit: then its oldest frame makes
    /// room.
    fn keep(&mut self, frame: Bytes, capacity: usize) {
        self.frames_bytes += frame_bytes(capacity);
        if self.frames.len() == self.frames.capacity() {
            let grown = (2 * self.frames.len()).max(4);
            if self.frames_bytes + grown * FRAME_SLOT_BYTES > FRAME_KEEP_BYTES {
                self.drop_oldest_frame();
            } else {
                self.frames.reserve_exact(grown - self.frames.len());
            }
        }
        self.frames.push_back((frame, capacity));
        while self.frames.len() > 1
            && self.frames_bytes + self.frames.capacity() * FRAME_SLOT_BYTES > FRAME_KEEP_BYTES
        {
            self.drop_oldest_frame();
        }
    }

    fn drop_oldest_frame(&mut self) {
        if let Some((_, capacity)) = self.frames.pop_front() {
            self.frames_bytes -= frame_bytes(capacity);
        }
    }

    /// [`publish_frame`](Self::publish_frame) for callers that work in
    /// packets: the PUBLISH its frame decodes to.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::NotConnected`] before a successful CONNACK.
    pub fn publish(
        &mut self,
        topic: TopicName,
        payload: impl Into<Bytes>,
        qos: QoS,
        retain: bool,
        now_ns: u64,
    ) -> Result<Packet, SessionError> {
        let frame = self.publish_frame(&topic, &payload.into(), qos, retain, now_ns)?;
        let (packet, _) = codec::decode(&frame)
            .expect("the codec's own frame")
            .expect("a whole frame");
        Ok(packet)
    }

    /// Builds a SUBSCRIBE packet for the given filters (at the given QoS).
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::NotConnected`] before a successful CONNACK,
    /// or [`SessionError::ProtocolViolation`] for an empty filter list.
    pub fn subscribe(
        &mut self,
        filters: Vec<(TopicFilter, QoS)>,
        now_ns: u64,
    ) -> Result<Packet, SessionError> {
        if self.state != ClientState::Connected {
            return Err(SessionError::NotConnected);
        }
        if filters.is_empty() {
            return Err(SessionError::ProtocolViolation("empty subscribe"));
        }
        let pid = self.alloc_pid();
        self.pending_subs.insert(pid, (filters.clone(), now_ns));
        self.last_sent_ns = now_ns;
        Ok(Packet::Subscribe(Subscribe {
            packet_id: pid,
            filters: filters
                .into_iter()
                .map(|(filter, qos)| SubscribeFilter { filter, qos })
                .collect(),
        }))
    }

    /// Builds an UNSUBSCRIBE packet.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::NotConnected`] before a successful CONNACK,
    /// or [`SessionError::ProtocolViolation`] for an empty filter list.
    pub fn unsubscribe(
        &mut self,
        filters: Vec<TopicFilter>,
        now_ns: u64,
    ) -> Result<Packet, SessionError> {
        if self.state != ClientState::Connected {
            return Err(SessionError::NotConnected);
        }
        if filters.is_empty() {
            return Err(SessionError::ProtocolViolation("empty unsubscribe"));
        }
        let pid = self.alloc_pid();
        self.subscriptions.retain(|f| !filters.contains(f));
        self.last_sent_ns = now_ns;
        Ok(Packet::Unsubscribe(Unsubscribe {
            packet_id: pid,
            filters,
        }))
    }

    /// Builds a DISCONNECT packet and resets the session to
    /// `Disconnected`.
    pub fn disconnect(&mut self) -> Packet {
        self.reset();
        Packet::Disconnect
    }

    /// Informs the session that the transport dropped; in-flight QoS 1
    /// publishes stay tracked and are replayed with `dup` set right
    /// after the next successful CONNACK.
    pub fn transport_lost(&mut self) {
        self.state = ClientState::Disconnected;
        self.ping_outstanding = false;
    }

    fn reset(&mut self) {
        self.state = ClientState::Disconnected;
        self.inflight.clear();
        self.inflight2.clear();
        self.incoming_rec.clear();
        self.pending_subs.clear();
        self.subscriptions.clear();
        self.ping_outstanding = false;
    }

    /// Feeds one packet received from the broker.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError::ProtocolViolation`] when the broker sends a
    /// client-bound packet that makes no sense in the current state.
    pub fn handle_packet(
        &mut self,
        packet: Packet,
        now_ns: u64,
    ) -> Result<(Vec<ClientEvent>, Vec<Packet>), SessionError> {
        let (mut events, mut out) = (Vec::new(), Vec::new());
        self.handle_packet_into(packet, now_ns, &mut events, &mut out)?;
        Ok((events, out))
    }

    /// [`handle_packet`](Self::handle_packet), appending what the
    /// application should see to `events` and what goes on the wire to
    /// `out`: lists the caller keeps for their room, so a packet that fits
    /// them allocates nothing.
    ///
    /// # Errors
    ///
    /// As [`handle_packet`](Self::handle_packet); nothing was appended.
    pub fn handle_packet_into(
        &mut self,
        packet: Packet,
        now_ns: u64,
        events: &mut Vec<ClientEvent>,
        out: &mut Vec<Packet>,
    ) -> Result<(), SessionError> {
        // Packets arriving after the transport was declared lost — or
        // before the new connection's CONNACK — belong to a previous
        // incarnation of the connection and are discarded, exactly as a
        // TCP client never reads bytes from a closed socket.
        if self.state == ClientState::Disconnected
            || (self.state == ClientState::Connecting && !matches!(packet, Packet::Connack(_)))
        {
            return Ok(());
        }
        self.last_rx_ns = self.last_rx_ns.max(now_ns);
        match packet {
            Packet::Connack(Connack {
                session_present,
                code,
            }) => {
                if self.state != ClientState::Connecting {
                    return Err(SessionError::ProtocolViolation("unexpected connack"));
                }
                if code == ConnectReturnCode::Accepted {
                    self.state = ClientState::Connected;
                    events.push(ClientEvent::Connected { session_present });
                    self.connack_replay(now_ns, out);
                } else {
                    self.state = ClientState::Disconnected;
                    events.push(ClientEvent::Refused(code));
                }
            }
            Packet::Publish(p) => match p.qos {
                QoS::AtMostOnce => events.push(ClientEvent::Message(p)),
                QoS::AtLeastOnce => {
                    out.push(Packet::Puback(p.packet_id.expect("qos1 carries pid")));
                    events.push(ClientEvent::Message(p));
                }
                QoS::ExactlyOnce => {
                    let pid = p.packet_id.expect("qos2 carries pid");
                    out.push(Packet::Pubrec(pid));
                    // Deliver exactly once: duplicates of a pid whose
                    // PUBREL has not arrived yet are suppressed.
                    if self.incoming_rec.insert(pid) {
                        events.push(ClientEvent::Message(p));
                    }
                }
            },
            Packet::Puback(pid) => {
                if self.inflight.remove(&pid).is_some() {
                    events.push(ClientEvent::Published(pid));
                }
            }
            Packet::Pubrec(pid) => {
                if let Some(state) = self.inflight2.get_mut(&pid) {
                    *state = Qos2Out::AwaitComp { sent_ns: now_ns };
                    out.push(Packet::Pubrel(pid));
                }
            }
            Packet::Pubrel(pid) => {
                self.incoming_rec.remove(&pid);
                out.push(Packet::Pubcomp(pid));
            }
            Packet::Pubcomp(pid) => {
                if self.inflight2.remove(&pid).is_some() {
                    events.push(ClientEvent::Published(pid));
                }
            }
            Packet::Suback(s) => {
                if let Some((filters, _)) = self.pending_subs.remove(&s.packet_id) {
                    for (f, _) in filters {
                        if !self.subscriptions.contains(&f) {
                            self.subscriptions.push(f);
                        }
                    }
                    events.push(ClientEvent::Subscribed(s.packet_id));
                }
            }
            Packet::Unsuback(pid) => {
                events.push(ClientEvent::Unsubscribed(pid));
            }
            Packet::Pingresp => {
                self.ping_outstanding = false;
                events.push(ClientEvent::Pong);
            }
            Packet::Connect(_)
            | Packet::Subscribe(_)
            | Packet::Unsubscribe(_)
            | Packet::Pingreq
            | Packet::Disconnect => {
                return Err(SessionError::ProtocolViolation(
                    "broker sent a client-bound packet",
                ));
            }
        }
        Ok(())
    }

    /// Replays the unfinished acknowledged flows after a reconnect: QoS 1
    /// publishes with `dup` set, QoS 2 publishes or their pending PUBRELs.
    fn connack_replay(&mut self, now_ns: u64, out: &mut Vec<Packet>) {
        let before = out.len();
        for (pid, (publish, sent)) in self.inflight.iter_mut() {
            let mut p = publish.clone();
            p.dup = true;
            p.packet_id = Some(*pid);
            *sent = now_ns;
            out.push(Packet::Publish(p));
        }
        for (pid, state) in self.inflight2.iter_mut() {
            match state {
                Qos2Out::AwaitRec { publish, sent_ns } => {
                    let mut p = publish.clone();
                    p.dup = true;
                    *sent_ns = now_ns;
                    out.push(Packet::Publish(p));
                }
                Qos2Out::AwaitComp { sent_ns } => {
                    *sent_ns = now_ns;
                    out.push(Packet::Pubrel(*pid));
                }
            }
        }
        self.replayed_packets += (out.len() - before) as u64;
    }

    /// Drives retransmission and keep-alive; call regularly.
    pub fn poll(&mut self, now_ns: u64) -> Vec<Packet> {
        if self.state != ClientState::Connected {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (pid, (publish, sent)) in self.inflight.iter_mut() {
            if now_ns.saturating_sub(*sent) >= self.config.retransmit_timeout_ns {
                let mut p = publish.clone();
                p.dup = true;
                p.packet_id = Some(*pid);
                *sent = now_ns;
                out.push(Packet::Publish(p));
            }
        }
        for (pid, state) in self.inflight2.iter_mut() {
            match state {
                Qos2Out::AwaitRec { publish, sent_ns }
                    if now_ns.saturating_sub(*sent_ns) >= self.config.retransmit_timeout_ns =>
                {
                    let mut p = publish.clone();
                    p.dup = true;
                    *sent_ns = now_ns;
                    out.push(Packet::Publish(p));
                }
                Qos2Out::AwaitComp { sent_ns }
                    if now_ns.saturating_sub(*sent_ns) >= self.config.retransmit_timeout_ns =>
                {
                    *sent_ns = now_ns;
                    out.push(Packet::Pubrel(*pid));
                }
                _ => {}
            }
        }
        // Unanswered SUBSCRIBEs are retransmitted too (a lost SUBACK must
        // not leave the session deaf until reconnect).
        for (pid, (filters, sent)) in self.pending_subs.iter_mut() {
            if now_ns.saturating_sub(*sent) >= self.config.retransmit_timeout_ns {
                *sent = now_ns;
                out.push(Packet::Subscribe(Subscribe {
                    packet_id: *pid,
                    filters: filters
                        .iter()
                        .map(|(filter, qos)| SubscribeFilter {
                            filter: filter.clone(),
                            qos: *qos,
                        })
                        .collect(),
                }));
            }
        }
        // Keep-alive: ping when nothing was sent for the keep-alive
        // interval (the MQTT rule), and also when nothing was *received*
        // for it — an outbound-busy QoS 0 publisher would otherwise never
        // solicit broker traffic, leaving dead-peer detection blind.
        let ka_ns = self.config.keep_alive_secs as u64 * 1_000_000_000;
        let idle_out = now_ns.saturating_sub(self.last_sent_ns) >= ka_ns;
        let idle_in = now_ns.saturating_sub(self.last_rx_ns) >= ka_ns;
        if ka_ns > 0 && !self.ping_outstanding && (idle_out || idle_in) {
            self.ping_outstanding = true;
            out.push(Packet::Pingreq);
        }
        if !out.is_empty() {
            self.last_sent_ns = now_ns;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topic(s: &str) -> TopicName {
        TopicName::new(s).expect("valid topic")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).expect("valid filter")
    }

    fn connected_client() -> Client {
        let mut c = Client::new("t", ClientConfig::default());
        let _ = c.connect().expect("first connect");
        let (ev, _) = c
            .handle_packet(
                Packet::Connack(Connack {
                    session_present: false,
                    code: ConnectReturnCode::Accepted,
                }),
                0,
            )
            .expect("connack ok");
        assert_eq!(
            ev,
            vec![ClientEvent::Connected {
                session_present: false
            }]
        );
        c
    }

    #[test]
    fn connect_lifecycle() {
        let mut c = Client::new("t", ClientConfig::default());
        assert_eq!(c.state(), ClientState::Disconnected);
        assert!(matches!(c.connect(), Ok(Packet::Connect(_))));
        assert_eq!(c.state(), ClientState::Connecting);
        assert!(c.connect().is_err());
    }

    #[test]
    fn refused_connection_resets_state() {
        let mut c = Client::new("t", ClientConfig::default());
        let _ = c.connect().expect("connect");
        let (ev, _) = c
            .handle_packet(
                Packet::Connack(Connack {
                    session_present: false,
                    code: ConnectReturnCode::NotAuthorized,
                }),
                0,
            )
            .expect("handled");
        assert_eq!(
            ev,
            vec![ClientEvent::Refused(ConnectReturnCode::NotAuthorized)]
        );
        assert_eq!(c.state(), ClientState::Disconnected);
    }

    #[test]
    fn publish_requires_connection() {
        let mut c = Client::new("t", ClientConfig::default());
        assert_eq!(
            c.publish(topic("a"), Bytes::new(), QoS::AtMostOnce, false, 0),
            Err(SessionError::NotConnected)
        );
    }

    #[test]
    fn qos0_publish_is_untracked() {
        let mut c = connected_client();
        let p = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtMostOnce, false, 0)
            .expect("publish");
        assert!(matches!(p, Packet::Publish(p) if p.packet_id.is_none()));
        assert_eq!(c.inflight_count(), 0);
    }

    #[test]
    fn qos1_publish_retransmits_until_acked() {
        let mut c = connected_client();
        let p = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtLeastOnce, false, 0)
            .expect("publish");
        let pid = match p {
            Packet::Publish(p) => p.packet_id.expect("pid"),
            other => panic!("expected publish, got {other:?}"),
        };
        assert_eq!(c.inflight_count(), 1);
        // Before the timeout: nothing.
        assert!(c.poll(1_000_000_000).is_empty());
        // After: dup retransmission.
        let re = c.poll(2_500_000_000);
        assert!(matches!(&re[0], Packet::Publish(p) if p.dup && p.packet_id == Some(pid)));
        // Ack clears the slot.
        let (ev, _) = c
            .handle_packet(Packet::Puback(pid), 3_000_000_000)
            .expect("ack");
        assert_eq!(ev, vec![ClientEvent::Published(pid)]);
        assert_eq!(c.inflight_count(), 0);
        assert!(c
            .poll(9_000_000_000)
            .iter()
            .all(|p| !matches!(p, Packet::Publish(_))));
    }

    #[test]
    fn incoming_qos1_message_is_acked() {
        let mut c = connected_client();
        let (ev, out) = c
            .handle_packet(
                Packet::Publish(Publish::qos1(topic("s"), b"m".to_vec(), 7)),
                0,
            )
            .expect("handled");
        assert!(matches!(&ev[0], ClientEvent::Message(p) if p.payload.as_ref() == b"m"));
        assert_eq!(out, vec![Packet::Puback(7)]);
    }

    #[test]
    fn subscribe_tracks_filters_after_suback() {
        let mut c = connected_client();
        let p = c
            .subscribe(vec![(filter("s/#"), QoS::AtLeastOnce)], 0)
            .expect("subscribe");
        let pid = match p {
            Packet::Subscribe(s) => s.packet_id,
            other => panic!("expected subscribe, got {other:?}"),
        };
        assert!(c.subscriptions().is_empty());
        let (ev, _) = c
            .handle_packet(
                Packet::Suback(crate::packet::Suback {
                    packet_id: pid,
                    codes: vec![crate::packet::SubackCode::Granted(QoS::AtLeastOnce)],
                }),
                1,
            )
            .expect("handled");
        assert_eq!(ev, vec![ClientEvent::Subscribed(pid)]);
        assert_eq!(c.subscriptions(), &[filter("s/#")]);
    }

    #[test]
    fn unsubscribe_forgets_filters() {
        let mut c = connected_client();
        let p = c
            .subscribe(vec![(filter("s/#"), QoS::AtMostOnce)], 0)
            .expect("subscribe");
        let pid = match p {
            Packet::Subscribe(s) => s.packet_id,
            other => panic!("expected subscribe, got {other:?}"),
        };
        c.handle_packet(
            Packet::Suback(crate::packet::Suback {
                packet_id: pid,
                codes: vec![crate::packet::SubackCode::Granted(QoS::AtMostOnce)],
            }),
            1,
        )
        .expect("handled");
        let _ = c.unsubscribe(vec![filter("s/#")], 2).expect("unsubscribe");
        assert!(c.subscriptions().is_empty());
    }

    #[test]
    fn keep_alive_pings_when_idle() {
        let mut c = connected_client();
        let out = c.poll(61_000_000_000);
        assert!(out.contains(&Packet::Pingreq));
        // No second ping while one is outstanding.
        assert!(c.poll(62_000_000_000).is_empty());
        let (ev, _) = c
            .handle_packet(Packet::Pingresp, 63_000_000_000)
            .expect("pong");
        assert_eq!(ev, vec![ClientEvent::Pong]);
    }

    #[test]
    fn keep_alive_pings_when_only_inbound_is_idle() {
        // A busy QoS 0 publisher never goes outbound-idle, but it still
        // must probe a silent broker so dead-peer detection can work.
        let mut c = connected_client();
        let mut now = 0u64;
        for _ in 0..12 {
            now += 10_000_000_000; // publish every 10 s < keep-alive 60 s
            let _ = c
                .publish(topic("a"), b"x".to_vec(), QoS::AtMostOnce, false, now)
                .expect("publish");
        }
        // 120 s without any inbound traffic: the poll solicits a PINGRESP
        // even though the last publish was recent.
        let out = c.poll(now + 1_000_000_000);
        assert!(
            out.contains(&Packet::Pingreq),
            "expected an inbound-idle ping"
        );
    }

    #[test]
    fn inbound_traffic_defers_the_inbound_idle_ping() {
        let mut c = connected_client();
        // Broker traffic at t=30s refreshes the inbound clock...
        let _ = c
            .handle_packet(
                Packet::Publish(Publish::qos0(topic("s"), b"m".to_vec())),
                30_000_000_000,
            )
            .expect("handled");
        // ...and outbound activity at t=50s refreshes the outbound clock,
        // so at t=80s neither direction is 60s-idle yet.
        let _ = c
            .publish(
                topic("a"),
                b"x".to_vec(),
                QoS::AtMostOnce,
                false,
                50_000_000_000,
            )
            .expect("publish");
        assert!(!c.poll(80_000_000_000).contains(&Packet::Pingreq));
        // At t=95s the inbound side crosses 60 s of silence.
        assert!(c.poll(95_000_000_000).contains(&Packet::Pingreq));
    }

    #[test]
    fn stale_packets_after_transport_loss_are_discarded() {
        let mut c = connected_client();
        let _ = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtLeastOnce, false, 0)
            .expect("publish");
        c.transport_lost();
        // A PUBACK from the dead connection must not complete the flow.
        let (ev, out) = c.handle_packet(Packet::Puback(1), 1).expect("ignored");
        assert!(ev.is_empty() && out.is_empty());
        assert_eq!(c.inflight_count(), 1, "inflight survives for replay");
        // While reconnecting, only CONNACK is accepted.
        let _ = c.connect().expect("reconnect");
        let (ev, out) = c
            .handle_packet(Packet::Publish(Publish::qos0(topic("s"), b"m".to_vec())), 2)
            .expect("ignored");
        assert!(ev.is_empty() && out.is_empty());
    }

    #[test]
    fn replayed_packet_counter_tracks_session_resume() {
        let mut c = connected_client();
        let _ = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtLeastOnce, false, 0)
            .expect("publish");
        let _ = c
            .publish(topic("b"), b"y".to_vec(), QoS::ExactlyOnce, false, 0)
            .expect("publish");
        assert_eq!(c.replayed_packets(), 0);
        c.transport_lost();
        let _ = c.connect().expect("reconnect");
        let (_, replays) = c
            .handle_packet(
                Packet::Connack(Connack {
                    session_present: true,
                    code: ConnectReturnCode::Accepted,
                }),
                5,
            )
            .expect("connack");
        assert_eq!(replays.len(), 2);
        assert_eq!(c.replayed_packets(), 2);
    }

    #[test]
    fn reconnect_replays_inflight_with_dup() {
        let mut c = connected_client();
        let _ = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtLeastOnce, false, 0)
            .expect("publish");
        c.transport_lost();
        assert_eq!(c.state(), ClientState::Disconnected);
        assert_eq!(c.inflight_count(), 1);
        let _ = c.connect().expect("reconnect");
        let (_, replays) = c
            .handle_packet(
                Packet::Connack(Connack {
                    session_present: true,
                    code: ConnectReturnCode::Accepted,
                }),
                5,
            )
            .expect("connack");
        assert_eq!(replays.len(), 1);
        assert!(matches!(&replays[0], Packet::Publish(p) if p.dup));
    }

    fn reconnect(c: &mut Client, now_ns: u64) -> Vec<Packet> {
        c.transport_lost();
        let _ = c.connect().expect("reconnect");
        let connack = Packet::Connack(Connack {
            session_present: true,
            code: ConnectReturnCode::Accepted,
        });
        c.handle_packet(connack, now_ns).expect("connack").1
    }

    #[test]
    fn a_frame_published_from_borrowed_bytes_replays_after_a_reconnect() {
        let payload = [0xA5u8; 40];
        for qos in [QoS::AtLeastOnce, QoS::ExactlyOnce] {
            let mut c = connected_client();
            let frame = c
                .publish_frame(&topic("a/é"), &payload, qos, true, 0)
                .expect("publish");
            let (sent, used) = codec::decode(&frame).expect("valid").expect("whole");
            assert_eq!(used, frame.len());
            let Packet::Publish(sent) = sent else {
                panic!("expected a publish, got {sent:?}");
            };
            assert_eq!((sent.qos, sent.dup, sent.retain), (qos, false, true));
            assert_eq!(sent.payload.as_ref(), payload);

            let replays = reconnect(&mut c, 5);
            let [Packet::Publish(again)] = &replays[..] else {
                panic!("expected one publish, got {replays:?}");
            };
            assert!(again.dup);
            assert_eq!(
                (again.qos, again.retain, again.packet_id, &again.topic),
                (qos, true, sent.packet_id, &sent.topic)
            );
            assert_eq!(again.payload.as_ref(), payload);
            // The tracked payload is a view of the frame that was sent, and
            // what goes on the wire is that frame with `dup` set.
            let tail = &frame[frame.len() - payload.len()..];
            assert!(std::ptr::eq(again.payload.as_ptr(), tail.as_ptr()));
            let mut expected = frame.to_vec();
            expected[0] |= 0b1000;
            assert_eq!(codec::encode(&replays[0]).as_ref(), expected);
            // The retransmission timer sends the same.
            assert_eq!(c.poll(5 + 2_000_000_000), replays);
        }
        // QoS 2 past its PUBREC resumes with the PUBREL.
        let mut c = connected_client();
        let frame = c
            .publish_frame(&topic("a"), &payload, QoS::ExactlyOnce, false, 0)
            .expect("publish");
        let pid = u16::from_be_bytes([frame[5], frame[6]]);
        let (_, out) = c.handle_packet(Packet::Pubrec(pid), 1).expect("handled");
        assert_eq!(out, vec![Packet::Pubrel(pid)]);
        assert_eq!(reconnect(&mut c, 5), vec![Packet::Pubrel(pid)]);
        assert_eq!(c.replayed_packets(), 1);
    }

    #[test]
    fn reuse_of_a_qos1_frame_waits_for_its_puback() {
        let mut c = connected_client();
        let payload = [7u8; 32];
        let first = c
            .publish_frame(&topic("a"), &payload, QoS::AtLeastOnce, false, 0)
            .expect("publish");
        let (first_at, pid) = (first.as_ptr(), u16::from_be_bytes([first[5], first[6]]));
        drop(first);
        // Its in-flight copy holds it: QoS 0 frames that fit it, each
        // dropped at once, are written somewhere else.
        for now in 1..=3 {
            let frame = c
                .publish_frame(&topic("a"), &payload, QoS::AtMostOnce, false, now)
                .expect("publish");
            assert_ne!(frame.as_ptr(), first_at, "publish {now}");
        }
        let (events, _) = c.handle_packet(Packet::Puback(pid), 4).expect("acked");
        assert_eq!(events, vec![ClientEvent::Published(pid)]);
        // Let go of, it is the oldest kept frame with room: the next
        // frame is written over it.
        let frame = c
            .publish_frame(&topic("a"), &payload, QoS::AtMostOnce, false, 5)
            .expect("publish");
        assert_eq!(frame.as_ptr(), first_at);
        assert_eq!(
            frame,
            codec::encode_publish(&topic("a"), &payload, QoS::AtMostOnce, false, None)
        );
    }

    #[test]
    fn reuse_keeps_no_frame_past_the_size_it_bounds() {
        let mut c = connected_client();
        let big = vec![1u8; FRAME_KEEP_MAX];
        let frame = c
            .publish_frame(&topic("a"), &big, QoS::AtMostOnce, false, 0)
            .expect("publish");
        assert!(frame.len() > FRAME_KEEP_MAX);
        assert!(c.frames.is_empty(), "{:?}", c.frames);
        // A small frame is kept; let go of, it is the oldest, and it grows
        // to take the next, which it has no room for.
        let small = c
            .publish_frame(&topic("a"), b"x", QoS::AtMostOnce, false, 1)
            .expect("publish");
        drop(small);
        let _ = c
            .publish_frame(&topic("a"), &[2; 64], QoS::AtMostOnce, false, 2)
            .expect("publish");
        let kept: Vec<(usize, usize)> = c.frames.iter().map(|(f, cap)| (f.len(), *cap)).collect();
        assert_eq!(kept, [(69, 69)]);
        assert_eq!(c.frames_bytes, frame_bytes(69));
    }

    /// Held frames, let go of in the order they were sent: the second
    /// round of as many is written over the first's, frame for frame.
    #[test]
    fn a_reader_that_caught_up_costs_no_new_frame() {
        let mut c = connected_client();
        let name = topic("sensor/1/sound");
        let mut round = |now: u64| -> Vec<Bytes> {
            (0..300)
                .map(|i| {
                    c.publish_frame(&name, &[i as u8; 32], QoS::AtMostOnce, false, now + i)
                        .expect("publish")
                })
                .collect()
        };
        let first: Vec<*const u8> = round(0).iter().map(|f| f.as_ptr()).collect();
        let second: Vec<*const u8> = round(300).iter().map(|f| f.as_ptr()).collect();
        assert_eq!(first, second);
        assert_eq!(c.frames.len(), 300);
    }

    /// However many frames are held, the kept ones, their buffers and the
    /// queue's slots stay within [`FRAME_KEEP_BYTES`], and the queue keeps
    /// as many as fit.
    #[test]
    fn the_kept_frames_stay_within_their_byte_bound() {
        for (payload, len, fit) in [(48, 72, 512), (2_023, 2_048, 31)] {
            let mut c = connected_client();
            let name = topic("sensor/1/temperature");
            let held: Vec<Bytes> = (0..2_000)
                .map(|now| {
                    c.publish_frame(&name, &vec![1; payload], QoS::AtMostOnce, false, now)
                        .expect("publish")
                })
                .collect();
            assert!(held.iter().all(|f| f.len() == len), "{}", held[0].len());
            let cost = c.frames_bytes + c.frames.capacity() * FRAME_SLOT_BYTES;
            assert!(cost <= FRAME_KEEP_BYTES, "{cost} B kept");
            assert_eq!(c.frames.len(), fit, "{len} B frames");
            // The newest are kept.
            let newest = held[held.len() - fit..].iter();
            assert!(c
                .frames
                .iter()
                .zip(newest)
                .all(|((kept, _), f)| kept.as_ptr() == f.as_ptr()));
        }
    }

    /// Frames posted to a consumer thread, which holds a window of them
    /// and checks each against its encoding every
    /// time one arrives, while the publisher keeps publishing: a frame is
    /// written over only after the consumer let go of it.
    #[test]
    fn reuse_across_threads_never_writes_a_frame_in_use() {
        const FRAMES: u32 = 20_000;
        const WINDOW: usize = 65;
        let name = topic("sensor/1/sound");
        let payload = |seq: u32| {
            let mut p = [0u8; 32];
            p[..4].copy_from_slice(&seq.to_be_bytes());
            p[4..].fill(seq as u8);
            p
        };
        let encoded = {
            let name = name.clone();
            move |seq: u32| {
                codec::encode_publish(&name, &payload(seq), QoS::AtMostOnce, false, None)
            }
        };
        let (tx, rx) = std::sync::mpsc::channel::<(u32, Bytes)>();
        let consumer = std::thread::spawn(move || {
            let mut window = std::collections::VecDeque::new();
            for (seq, frame) in rx {
                // Half the frames are let go of at once, half held.
                if seq % 2 == 0 {
                    assert_eq!(frame, encoded(seq), "frame {seq} on arrival");
                    continue;
                }
                window.push_back((seq, frame));
                if window.len() > WINDOW {
                    window.pop_front();
                }
                for (seq, frame) in &window {
                    assert_eq!(*frame, encoded(*seq), "frame {seq}, held");
                }
            }
        });
        let mut c = connected_client();
        for seq in 0..FRAMES {
            let frame = c
                .publish_frame(&name, &payload(seq), QoS::AtMostOnce, false, u64::from(seq))
                .expect("publish");
            tx.send((seq, frame)).expect("the consumer is running");
        }
        drop(tx);
        consumer
            .join()
            .expect("every frame held what it was written with");
    }

    #[test]
    fn handle_packet_into_appends_behind_what_the_lists_hold() {
        let mut c = connected_client();
        let mut events = vec![ClientEvent::Pong];
        let mut out = vec![Packet::Pingreq];
        let message = Publish::qos1(topic("s"), b"m".to_vec(), 7);
        c.handle_packet_into(Packet::Publish(message.clone()), 0, &mut events, &mut out)
            .expect("handled");
        assert_eq!(
            events,
            vec![ClientEvent::Pong, ClientEvent::Message(message)]
        );
        assert_eq!(out, vec![Packet::Pingreq, Packet::Puback(7)]);
        // A protocol error appends nothing.
        assert!(c
            .handle_packet_into(Packet::Pingreq, 1, &mut events, &mut out)
            .is_err());
        assert_eq!((events.len(), out.len()), (2, 2));
    }

    #[test]
    fn qos2_publish_walks_the_exactly_once_handshake() {
        let mut c = connected_client();
        let p = c
            .publish(topic("a"), b"x".to_vec(), QoS::ExactlyOnce, false, 0)
            .expect("publish");
        let pid = match p {
            Packet::Publish(p) => {
                assert_eq!(p.qos, QoS::ExactlyOnce);
                p.packet_id.expect("pid")
            }
            other => panic!("expected publish, got {other:?}"),
        };
        assert_eq!(c.inflight2_count(), 1);
        // PUBREC -> client answers PUBREL.
        let (ev, out) = c.handle_packet(Packet::Pubrec(pid), 1).expect("handled");
        assert!(ev.is_empty());
        assert_eq!(out, vec![Packet::Pubrel(pid)]);
        // PUBCOMP completes the flow.
        let (ev, out) = c.handle_packet(Packet::Pubcomp(pid), 2).expect("handled");
        assert_eq!(ev, vec![ClientEvent::Published(pid)]);
        assert!(out.is_empty());
        assert_eq!(c.inflight2_count(), 0);
    }

    #[test]
    fn qos2_sender_retransmits_per_stage() {
        let mut c = connected_client();
        let _ = c
            .publish(topic("a"), b"x".to_vec(), QoS::ExactlyOnce, false, 0)
            .expect("publish");
        // AwaitRec: the PUBLISH is resent with dup.
        let re = c.poll(2_500_000_000);
        assert!(matches!(&re[0], Packet::Publish(p) if p.dup && p.qos == QoS::ExactlyOnce));
        // After PUBREC, AwaitComp: the PUBREL is resent.
        let pid = match &re[0] {
            Packet::Publish(p) => p.packet_id.expect("pid"),
            other => panic!("expected publish, got {other:?}"),
        };
        let _ = c
            .handle_packet(Packet::Pubrec(pid), 3_000_000_000)
            .expect("handled");
        let re = c.poll(6_000_000_000);
        assert!(re.contains(&Packet::Pubrel(pid)));
    }

    #[test]
    fn incoming_qos2_duplicates_are_suppressed() {
        let mut c = connected_client();
        let mut p = Publish::qos1(topic("s"), b"m".to_vec(), 9);
        p.qos = QoS::ExactlyOnce;
        let (ev, out) = c
            .handle_packet(Packet::Publish(p.clone()), 0)
            .expect("handled");
        assert_eq!(ev.len(), 1, "first delivery reaches the application");
        assert_eq!(out, vec![Packet::Pubrec(9)]);
        // Duplicate before PUBREL: PUBREC again, but NO second message.
        let mut dup = p.clone();
        dup.dup = true;
        let (ev, out) = c.handle_packet(Packet::Publish(dup), 1).expect("handled");
        assert!(ev.is_empty(), "duplicate must be suppressed");
        assert_eq!(out, vec![Packet::Pubrec(9)]);
        // PUBREL closes the window; the client answers PUBCOMP.
        let (ev, out) = c.handle_packet(Packet::Pubrel(9), 2).expect("handled");
        assert!(ev.is_empty());
        assert_eq!(out, vec![Packet::Pubcomp(9)]);
    }

    #[test]
    fn broker_bound_packets_are_protocol_errors() {
        let mut c = connected_client();
        assert!(c.handle_packet(Packet::Pingreq, 0).is_err());
        assert!(c
            .handle_packet(Packet::Connect(Connect::new("x")), 0)
            .is_err());
    }

    #[test]
    fn disconnect_resets_everything() {
        let mut c = connected_client();
        let _ = c
            .publish(topic("a"), b"x".to_vec(), QoS::AtLeastOnce, false, 0)
            .expect("publish");
        let p = c.disconnect();
        assert_eq!(p, Packet::Disconnect);
        assert_eq!(c.state(), ClientState::Disconnected);
        assert_eq!(c.inflight_count(), 0);
    }
}
