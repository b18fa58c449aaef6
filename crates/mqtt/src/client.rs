//! The MQTT client session — used by the IFoT *Publish* and *Subscribe*
//! classes.
//!
//! Like the broker, the client is sans-I/O: calling an operation returns
//! the packets to put on the wire, feeding received packets returns
//! [`ClientEvent`]s for the application, and [`Client::poll`] drives
//! retransmission and keep-alive pings against a caller-supplied clock.
//!
//! What the per-message paths allocate: [`Client::publish_frame`] takes the
//! payload as borrowed bytes and makes one buffer, the encoded frame — at
//! QoS 1/2 the copy tracked for retransmission is a view of that frame, not
//! a second buffer; [`Client::handle_packet_into`] appends to lists the
//! caller keeps, so an inbound QoS 0 PUBLISH allocates nothing here.

use std::collections::BTreeMap;

use bytes::Bytes;

use crate::codec;
use crate::error::SessionError;
use crate::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, PacketId, Publish, QoS, Subscribe,
    SubscribeFilter, Unsubscribe,
};
use crate::topic::{TopicFilter, TopicName};

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
    /// wire: the only buffer the call makes.
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
        let frame = codec::encode_publish(topic, payload, qos, retain, packet_id);
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
