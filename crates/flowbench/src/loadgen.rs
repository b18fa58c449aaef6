//! The load generator of the `_tcp` workloads: one child process, one
//! thread, every publisher and subscriber connection multiplexed over
//! the benchmark's own [`Reactor`].
//!
//! Hygiene: the generator shares no code with the program under test. It
//! frames and scans MQTT with the minimal encoder and scanner below
//! (CONNECT, SUBSCRIBE, PUBLISH, PUBACK, DISCONNECT and the matching
//! acks) and waits on its own epoll binding, so a change to
//! `ifot_mqtt::codec` or `ifot_mqtt::poll` can speed up only the broker.
//!
//! Open loop: publish `k` is due at `k / rate` after the schedule starts
//! and every delay is timed from when the publish was *due*, so a stall
//! is charged to the requests it delayed. How late the generator itself
//! ran is reported (`late_p99_ms`) and bounds the run's validity.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::catalog::SETUP_ITEM_SECONDS;
use crate::probe;
use crate::reactor::Reactor;
use crate::stats;

/// Topic kinds; `sensor/+/<kind>` subscribers split the topics three ways.
const KINDS: [&str; 3] = ["temp", "sound", "lux"];
/// Bytes of every PUBLISH payload.
pub const PAYLOAD_LEN: usize = 32;
/// Unacknowledged QoS 1 publishes a publisher may have outstanding.
const PUBLISHER_WINDOW: usize = 16;
/// How long the drain waits for the last deliveries and acks.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// The traffic shape of one `_tcp` workload. Rates are committed, never
/// tuned per run (calibration record: README).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub qos1: bool,
    pub publishers: usize,
    /// Subscribers on `sensor/#`.
    pub wildcard_subs: usize,
    /// Subscribers on each `sensor/+/<kind>`.
    pub subs_per_kind: usize,
    pub topics: usize,
    pub publishes_per_s: u64,
}

impl Shape {
    pub fn of(workload: &str) -> Option<Shape> {
        match workload {
            "fanout_qos0_tcp" => Some(Shape {
                qos1: false,
                publishers: 4,
                wildcard_subs: 8,
                subs_per_kind: 8,
                topics: 4096,
                publishes_per_s: 1_000,
            }),
            "durable_qos1_tcp" => Some(Shape {
                qos1: true,
                publishers: 4,
                wildcard_subs: 2,
                subs_per_kind: 2,
                topics: 96,
                publishes_per_s: 1_000,
            }),
            _ => None,
        }
    }

    /// Deliveries after which set-up counts as complete.
    pub fn setup_deliveries(&self) -> u64 {
        (self.publishes_per_s as f64 * SETUP_ITEM_SECONDS) as u64 * self.fanout() as u64
    }

    /// Subscribers every publish reaches.
    pub fn fanout(&self) -> usize {
        self.wildcard_subs + self.subs_per_kind
    }

    pub fn subscribers(&self) -> usize {
        self.wildcard_subs + KINDS.len() * self.subs_per_kind
    }

    /// The filter of subscriber `i`: wildcards first, then kind by kind.
    pub fn filter(&self, i: usize) -> String {
        if i < self.wildcard_subs {
            "sensor/#".to_owned()
        } else {
            let kind = (i - self.wildcard_subs) / self.subs_per_kind;
            format!("sensor/+/{}", KINDS[kind])
        }
    }

    /// Name of topic `t`; its kind is `t % 3`.
    pub fn topic(t: usize) -> String {
        format!("sensor/{}/{}", t / KINDS.len(), KINDS[t % KINDS.len()])
    }

    /// Whether subscriber `i` receives topic `t`.
    fn receives(&self, i: usize, t: usize) -> bool {
        i < self.wildcard_subs || (i - self.wildcard_subs) / self.subs_per_kind == t % KINDS.len()
    }
}

/// xorshift64*: the generator's only randomness, seeded by `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        order
    }
}

fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5u32, |h, b| {
        (h ^ u32::from(*b)).wrapping_mul(0x0100_0193)
    })
}

/// What a payload says about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadInfo {
    pub publisher: u16,
    pub topic: u32,
    pub topic_seq: u32,
    pub due_ns: u64,
}

/// Builds the 32-byte payload: publisher, topic, per-topic sequence,
/// global sequence, due time, seeded filler and an FNV-1a checksum.
pub fn build_payload(info: PayloadInfo, global_seq: u32, filler: u64) -> [u8; PAYLOAD_LEN] {
    let mut p = [0u8; PAYLOAD_LEN];
    p[0..2].copy_from_slice(&info.publisher.to_le_bytes());
    p[2..4].copy_from_slice(&(filler as u16).to_le_bytes());
    p[4..8].copy_from_slice(&info.topic.to_le_bytes());
    p[8..12].copy_from_slice(&info.topic_seq.to_le_bytes());
    p[12..16].copy_from_slice(&global_seq.to_le_bytes());
    p[16..24].copy_from_slice(&info.due_ns.to_le_bytes());
    p[24..28].copy_from_slice(&((filler >> 16) as u32).to_le_bytes());
    let sum = fnv1a(&p[..28]);
    p[28..32].copy_from_slice(&sum.to_le_bytes());
    p
}

/// Verifies length and checksum and reads the fields back.
pub fn parse_payload(p: &[u8]) -> Option<PayloadInfo> {
    if p.len() != PAYLOAD_LEN || fnv1a(&p[..28]).to_le_bytes() != p[28..32] {
        return None;
    }
    let u16_at = |i: usize| u16::from_le_bytes([p[i], p[i + 1]]);
    let u32_at = |i: usize| u32::from_le_bytes([p[i], p[i + 1], p[i + 2], p[i + 3]]);
    Some(PayloadInfo {
        publisher: u16_at(0),
        topic: u32_at(4),
        topic_seq: u32_at(8),
        due_ns: u64::from_le_bytes(p[16..24].try_into().expect("8 bytes")),
    })
}

// ---------------------------------------------------------------------
// Minimal MQTT 3.1.1 framing
// ---------------------------------------------------------------------

fn push_remaining_length(out: &mut Vec<u8>, mut len: usize) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.push(byte);
        if len == 0 {
            break;
        }
    }
}

fn push_string(out: &mut Vec<u8>, s: &[u8]) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s);
}

pub fn frame_connect(out: &mut Vec<u8>, client_id: &str, clean_session: bool) {
    let mut body = Vec::with_capacity(12 + client_id.len());
    push_string(&mut body, b"MQTT");
    body.push(4); // protocol level 3.1.1
    body.push(if clean_session { 0x02 } else { 0x00 });
    body.extend_from_slice(&0u16.to_be_bytes()); // no keep-alive: idle shards stay parked
    push_string(&mut body, client_id.as_bytes());
    out.push(0x10);
    push_remaining_length(out, body.len());
    out.extend_from_slice(&body);
}

pub fn frame_subscribe(out: &mut Vec<u8>, packet_id: u16, filter: &str, qos: u8) {
    out.push(0x82);
    push_remaining_length(out, 2 + 2 + filter.len() + 1);
    out.extend_from_slice(&packet_id.to_be_bytes());
    push_string(out, filter.as_bytes());
    out.push(qos);
}

/// `packet_id` is `Some` for QoS 1.
pub fn frame_publish(out: &mut Vec<u8>, topic: &[u8], packet_id: Option<u16>, payload: &[u8]) {
    out.push(if packet_id.is_some() { 0x32 } else { 0x30 });
    let id_len = if packet_id.is_some() { 2 } else { 0 };
    push_remaining_length(out, 2 + topic.len() + id_len + payload.len());
    push_string(out, topic);
    if let Some(id) = packet_id {
        out.extend_from_slice(&id.to_be_bytes());
    }
    out.extend_from_slice(payload);
}

pub fn frame_puback(out: &mut Vec<u8>, packet_id: u16) {
    out.extend_from_slice(&[0x40, 0x02]);
    out.extend_from_slice(&packet_id.to_be_bytes());
}

/// One scanned frame, borrowing from the read buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    Connack {
        return_code: u8,
    },
    Suback {
        return_code: u8,
    },
    Publish {
        dup: bool,
        qos: u8,
        topic: &'a [u8],
        packet_id: u16,
        payload: &'a [u8],
    },
    Puback {
        packet_id: u16,
    },
    Other(u8),
}

/// Scans one frame from the front of `buf`: `Ok(None)` when incomplete,
/// otherwise the frame and the bytes it occupied.
///
/// # Errors
///
/// A malformed length or a truncated body inside a complete frame.
pub fn scan(buf: &[u8]) -> Result<Option<(Frame<'_>, usize)>, String> {
    let Some(&first) = buf.first() else {
        return Ok(None);
    };
    let mut len = 0usize;
    let mut header = 1;
    loop {
        let Some(&b) = buf.get(header) else {
            return Ok(None);
        };
        len |= usize::from(b & 0x7F) << (7 * (header - 1));
        header += 1;
        if b & 0x80 == 0 {
            break;
        }
        if header > 4 {
            return Err("remaining length runs past four bytes".into());
        }
    }
    let Some(body) = buf.get(header..header + len) else {
        return Ok(None);
    };
    let short = || format!("frame type {:#04x} shorter than its fields", first >> 4);
    let be16 = |at: usize| -> Result<u16, String> {
        body.get(at..at + 2)
            .map(|b| u16::from_be_bytes([b[0], b[1]]))
            .ok_or_else(short)
    };
    let frame = match first >> 4 {
        2 => Frame::Connack {
            return_code: *body.get(1).ok_or_else(short)?,
        },
        9 => Frame::Suback {
            return_code: *body.get(2).ok_or_else(short)?,
        },
        3 => {
            let qos = (first >> 1) & 0x03;
            let topic_len = usize::from(be16(0)?);
            let topic = body.get(2..2 + topic_len).ok_or_else(short)?;
            let mut at = 2 + topic_len;
            let packet_id = if qos > 0 {
                at += 2;
                be16(at - 2)?
            } else {
                0
            };
            Frame::Publish {
                dup: first & 0x08 != 0,
                qos,
                topic,
                packet_id,
                payload: body.get(at..).ok_or_else(short)?,
            }
        }
        4 => Frame::Puback {
            packet_id: be16(0)?,
        },
        other => Frame::Other(other),
    };
    Ok(Some((frame, header + len)))
}

// ---------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Read buffer; `start..end` holds unscanned bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// Bytes accepted for sending that the socket has not taken yet.
    out: Vec<u8>,
    /// Whether the reactor currently reports this socket when writable.
    wants_writable: bool,
    connacked: bool,
    subacked: bool,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("generator connects to the broker");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("nonblocking socket");
        Conn {
            stream,
            buf: vec![0; 64 * 1024],
            start: 0,
            end: 0,
            out: Vec::with_capacity(4096),
            wants_writable: false,
            connacked: false,
            subacked: false,
        }
    }

    /// Writes as much of `out` as the socket takes now.
    fn flush(&mut self) {
        let mut sent = 0;
        while sent < self.out.len() {
            match (&self.stream).write(&self.out[sent..]) {
                Ok(0) => panic!("broker closed a generator connection"),
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => panic!("generator write failed: {e}"),
            }
        }
        self.out.drain(..sent);
    }

    /// One read into the buffer. Returns the bytes read and whether the
    /// socket may hold more (the read filled the space it was given).
    fn fill(&mut self) -> (usize, bool) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let space = self.buf.len() - self.end;
        match (&self.stream).read(&mut self.buf[self.end..]) {
            Ok(0) => panic!("broker closed a generator connection"),
            Ok(n) => {
                self.end += n;
                (n, n == space)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                (0, false)
            }
            Err(e) => panic!("generator read failed: {e}"),
        }
    }
}

/// Per-subscriber verification state.
struct SubState {
    /// Next per-topic sequence expected, by topic.
    next_seq: Vec<u32>,
    received: u64,
    expected: u64,
}

struct Publisher {
    inflight: usize,
    next_id: u16,
    /// Due time of the publish sent under each packet id.
    due_by_id: Vec<u64>,
}

/// The measured window on the generator's clock (ns since its epoch).
#[derive(Default)]
struct Phase {
    window_from: u64,
    window_to: u64,
    started: bool,
    ended: bool,
    /// Tenths of the window already announced.
    ticks: u64,
}

impl Phase {
    /// When tenth `k` of the window ends.
    fn tick_due(&self, k: u64) -> u64 {
        self.window_from + (self.window_to - self.window_from) * k / stats::WINDOWS as u64
    }

    fn contains(&self, at_ns: u64) -> bool {
        at_ns >= self.window_from && at_ns < self.window_to
    }
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("parent reads our stdout");
    out.flush().expect("flush stdout");
}

/// Child-process entry: `--loadgen <addr> <workload> <seed> <warmup_s>
/// <seconds> <run|setup>`.
pub fn main(args: &[String]) -> ExitCode {
    let [addr, workload, seed, warmup_s, seconds, mode] = args else {
        eprintln!("--loadgen <addr> <workload> <seed> <warmup_s> <seconds> <run|setup>");
        return ExitCode::from(2);
    };
    let addr: SocketAddr = addr.parse().expect("broker address");
    let shape = Shape::of(workload).expect("a _tcp workload");
    let seed: u64 = seed.parse().expect("seed");
    let warmup = Duration::from_secs_f64(warmup_s.parse().expect("warm-up seconds"));
    let window = Duration::from_secs_f64(seconds.parse().expect("window seconds"));
    Generator::connect(addr, shape, seed).run(warmup, window, mode == "setup");
    ExitCode::SUCCESS
}

/// The generator's whole state: connections, schedule and tallies.
struct Generator {
    shape: Shape,
    rng: Rng,
    epoch: Instant,
    reactor: Reactor,
    /// Subscribers first (`0..subs`), then publishers.
    conns: Vec<Conn>,
    topic_names: Vec<Vec<u8>>,
    /// Seeded order in which the schedule walks the topics.
    order: Vec<usize>,
    sub_state: Vec<SubState>,
    publishers: Vec<Publisher>,
    topic_seq: Vec<u32>,
    phase: Phase,
    failures: Vec<String>,
    /// Delays (ms) of deliveries received inside the window, record order.
    delays_ms: Vec<f64>,
    /// Deliveries of publishes that were due inside the window.
    completed_of_window: u64,
    /// Publish-due → PUBACK (ms) for acks received inside the window.
    ack_ms: Vec<f64>,
    /// Send time minus due time (ms) of publishes due inside the window;
    /// its length is the number of publishes the window offered.
    late_ms: Vec<f64>,
    /// Deliveries received so far, and whether set-up has been announced.
    received_total: u64,
    setup_announced: bool,
}

impl Generator {
    /// Opens every connection and sends the handshakes.
    fn connect(addr: SocketAddr, shape: Shape, seed: u64) -> Generator {
        let mut rng = Rng::new(seed);
        let order = rng.permutation(shape.topics);
        let subs = shape.subscribers();
        let mut conns: Vec<Conn> = Vec::with_capacity(subs + shape.publishers);
        for i in 0..subs {
            let mut c = Conn::open(addr);
            // QoS 1 subscribers hold persistent sessions (clean session off).
            frame_connect(&mut c.out, &format!("fb-sub-{i}"), !shape.qos1);
            frame_subscribe(&mut c.out, 1, &shape.filter(i), u8::from(shape.qos1));
            c.flush();
            conns.push(c);
        }
        for j in 0..shape.publishers {
            let mut c = Conn::open(addr);
            frame_connect(&mut c.out, &format!("fb-pub-{j}"), true);
            c.subacked = true;
            c.flush();
            conns.push(c);
        }
        let reactor = Reactor::new();
        for (index, c) in conns.iter().enumerate() {
            reactor.add(c.stream.as_raw_fd(), index as u64);
        }
        Generator {
            shape,
            rng,
            epoch: Instant::now(),
            reactor,
            conns,
            topic_names: (0..shape.topics)
                .map(|t| Shape::topic(t).into_bytes())
                .collect(),
            order,
            sub_state: (0..subs)
                .map(|_| SubState {
                    next_seq: vec![0; shape.topics],
                    received: 0,
                    expected: 0,
                })
                .collect(),
            publishers: (0..shape.publishers)
                .map(|_| Publisher {
                    inflight: 0,
                    next_id: 1,
                    due_by_id: vec![0; 1 << 16],
                })
                .collect(),
            topic_seq: vec![0; shape.topics],
            phase: Phase::default(),
            failures: Vec::new(),
            delays_ms: Vec::new(),
            completed_of_window: 0,
            ack_ms: Vec::new(),
            late_ms: Vec::new(),
            received_total: 0,
            setup_announced: false,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn fail(&mut self, what: String) {
        // A handful of lines is enough to fail the run.
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Parks until `wake_ns` or socket readiness, then reads and applies
    /// whatever arrived.
    fn wait_and_pump(&mut self, wake_ns: u64) {
        for (index, conn) in self.conns.iter_mut().enumerate() {
            let pending = !conn.out.is_empty();
            if pending != conn.wants_writable {
                conn.wants_writable = pending;
                self.reactor
                    .want_writable(conn.stream.as_raw_fd(), index as u64, pending);
            }
        }
        let mut ready = Vec::new();
        let now = self.now_ns();
        self.reactor.wait(&mut ready, now, wake_ns);
        for token in ready {
            self.pump(token as usize);
        }
    }

    /// Reads one ready socket, scans the frames and applies them.
    fn pump(&mut self, index: usize) {
        let subs = self.sub_state.len();
        if !self.conns[index].out.is_empty() {
            self.conns[index].flush();
        }
        // Bounded reads per wake-up: the level-triggered reactor reports
        // the socket again if more is waiting.
        for _ in 0..4 {
            let (read, maybe_more) = self.conns[index].fill();
            if read == 0 {
                break;
            }
            let now_ns = self.now_ns();
            loop {
                let conn = &self.conns[index];
                let (frame, used) = match scan(&conn.buf[conn.start..conn.end]) {
                    Ok(Some(found)) => found,
                    Ok(None) => break,
                    Err(e) => panic!("broker sent a malformed frame: {e}"),
                };
                match frame {
                    Frame::Connack { return_code } => {
                        assert_eq!(return_code, 0, "broker refused a generator connection");
                        self.conns[index].connacked = true;
                    }
                    Frame::Suback { return_code } => {
                        assert!(return_code <= 2, "broker refused a subscription");
                        self.conns[index].subacked = true;
                    }
                    Frame::Puback { packet_id } if index >= subs => {
                        let publisher = &mut self.publishers[index - subs];
                        publisher.inflight = publisher.inflight.saturating_sub(1);
                        if self.phase.contains(now_ns) {
                            let due = publisher.due_by_id[usize::from(packet_id)];
                            self.ack_ms.push(now_ns.saturating_sub(due) as f64 / 1e6);
                        }
                    }
                    Frame::Publish {
                        dup,
                        qos,
                        topic,
                        packet_id,
                        payload,
                    } if index < subs => {
                        let verdict = self.check_delivery(index, dup, topic, payload);
                        if qos > 0 {
                            frame_puback(&mut self.conns[index].out, packet_id);
                        }
                        self.record_delivery(index, verdict, now_ns);
                    }
                    other => {
                        let what = format!("connection {index}: unexpected {other:?}");
                        self.fail(what);
                    }
                }
                self.conns[index].start += used;
            }
            if !self.conns[index].out.is_empty() {
                self.conns[index].flush();
            }
            if !maybe_more {
                break;
            }
        }
    }

    /// Checks one delivery against what the generator sent: checksum,
    /// topic, publisher, and this subscriber's filter.
    fn check_delivery(
        &self,
        sub: usize,
        dup: bool,
        topic: &[u8],
        payload: &[u8],
    ) -> Result<(PayloadInfo, bool), String> {
        let info = parse_payload(payload)
            .ok_or_else(|| format!("subscriber {sub}: payload fails its checksum"))?;
        let t = info.topic as usize;
        if self.topic_names.get(t).map(Vec::as_slice) != Some(topic)
            || usize::from(info.publisher) != t % self.shape.publishers
            || !self.shape.receives(sub, t)
        {
            return Err(format!(
                "subscriber {sub}: payload of topic {t} arrived on {}",
                String::from_utf8_lossy(topic)
            ));
        }
        Ok((info, dup))
    }

    /// Applies a checked delivery: per-(publisher, topic) order (each
    /// topic has one publisher), duplicates only when flagged, delay.
    fn record_delivery(
        &mut self,
        sub: usize,
        verdict: Result<(PayloadInfo, bool), String>,
        now_ns: u64,
    ) {
        let (info, dup) = match verdict {
            Ok(ok) => ok,
            Err(what) => return self.fail(what),
        };
        let t = info.topic as usize;
        let expected = self.sub_state[sub].next_seq[t];
        if info.topic_seq < expected {
            // A redelivery: allowed only when the broker flagged it.
            if !dup {
                self.fail(format!(
                    "subscriber {sub}: unflagged duplicate {} on topic {t}",
                    info.topic_seq
                ));
            }
            return;
        }
        if info.topic_seq > expected {
            self.fail(format!(
                "subscriber {sub}: topic {t} jumped from {expected} to {}",
                info.topic_seq
            ));
        }
        let state = &mut self.sub_state[sub];
        state.next_seq[t] = info.topic_seq + 1;
        state.received += 1;
        self.received_total += 1;
        if !self.setup_announced && self.received_total >= self.shape.setup_deliveries() {
            self.setup_announced = true;
            say("set_up");
        }
        if self.phase.contains(now_ns) {
            self.delays_ms
                .push(now_ns.saturating_sub(info.due_ns) as f64 / 1e6);
        }
        if self.phase.contains(info.due_ns) {
            self.completed_of_window += 1;
        }
    }

    /// Sends publish `k`, due at `due_ns`, unless its publisher's QoS 1
    /// window is full. Returns whether it was sent.
    fn send_publish(&mut self, k: u64, due_ns: u64) -> bool {
        let subs = self.sub_state.len();
        let t = self.order[(k % self.shape.topics as u64) as usize];
        let p = t % self.shape.publishers;
        if self.shape.qos1 && self.publishers[p].inflight >= PUBLISHER_WINDOW {
            return false;
        }
        let info = PayloadInfo {
            publisher: p as u16,
            topic: t as u32,
            topic_seq: self.topic_seq[t],
            due_ns,
        };
        self.topic_seq[t] += 1;
        let payload = build_payload(info, k as u32, self.rng.next());
        let packet_id = self.shape.qos1.then(|| {
            let publisher = &mut self.publishers[p];
            let id = publisher.next_id;
            publisher.next_id = if id == u16::MAX { 1 } else { id + 1 };
            publisher.due_by_id[usize::from(id)] = due_ns;
            publisher.inflight += 1;
            id
        });
        let conn = &mut self.conns[subs + p];
        frame_publish(&mut conn.out, &self.topic_names[t], packet_id, &payload);
        conn.flush();
        if self.phase.contains(due_ns) {
            let late = self.now_ns().saturating_sub(due_ns);
            self.late_ms.push(late as f64 / 1e6);
        }
        for (i, s) in self.sub_state.iter_mut().enumerate() {
            if self.shape.receives(i, t) {
                s.expected += 1;
            }
        }
        true
    }

    fn run(mut self, warmup: Duration, window: Duration, setup_only: bool) {
        let shape = self.shape;
        let total_publishes = if setup_only {
            shape.setup_deliveries() / shape.fanout() as u64
        } else {
            ((warmup + window).as_secs_f64() * shape.publishes_per_s as f64) as u64
        };
        self.delays_ms.reserve(
            (window.as_secs_f64() * 1.2) as usize * shape.publishes_per_s as usize * shape.fanout(),
        );

        // Handshake: every CONNACK and SUBACK before the schedule starts.
        let deadline = Instant::now() + Duration::from_secs(30);
        while !self.conns.iter().all(|c| c.connacked && c.subacked) {
            assert!(Instant::now() < deadline, "handshake did not complete");
            let wake = self.now_ns() + 100_000_000;
            self.wait_and_pump(wake);
        }
        say("ready");

        // The schedule: publish k is due k / rate after `start_ns`.
        let period_ns = 1_000_000_000 / shape.publishes_per_s;
        let start_ns = self.now_ns();
        let ns = |d: Duration| d.as_nanos() as u64;
        self.phase.window_from = start_ns + ns(warmup);
        self.phase.window_to = start_ns + ns(warmup + window);
        let mut next: u64 = 0;
        let mut cpu_at_window_start = None;
        let mut cpu_share = (0.0, 0.0);
        let pid = std::process::id();
        let mut drain_until: Option<Instant> = None;

        loop {
            let now = self.now_ns();
            if !setup_only {
                if !self.phase.started && now >= self.phase.window_from {
                    self.phase.started = true;
                    cpu_at_window_start = Some((probe::sched_sample(pid), Instant::now()));
                    say("window_start");
                }
                // Tenths of the window, for the parent's CPU sub-windows.
                while self.phase.started
                    && self.phase.ticks < stats::WINDOWS as u64 - 1
                    && now >= self.phase.tick_due(self.phase.ticks + 1)
                {
                    self.phase.ticks += 1;
                    say("tick");
                }
                if !self.phase.ended && now >= self.phase.window_to {
                    self.phase.ended = true;
                    say("window_end");
                    if let Some((cpu0, at0)) = cpu_at_window_start {
                        let cpu1 = probe::sched_sample(pid);
                        let wall = at0.elapsed().as_nanos() as f64;
                        cpu_share = (
                            (cpu1.on_cpu_ns - cpu0.on_cpu_ns) as f64 / wall,
                            (cpu1.runq_wait_ns - cpu0.runq_wait_ns) as f64 / wall,
                        );
                    }
                }
            }

            // Send everything that is due. A QoS 1 publisher with a full
            // window blocks the schedule; what waits behind it is late and
            // still timed from its due time.
            let mut blocked = false;
            while next < total_publishes {
                let due = start_ns + next * period_ns;
                if due > self.now_ns() {
                    break;
                }
                if !self.send_publish(next, due) {
                    blocked = true;
                    break;
                }
                next += 1;
            }

            let all_sent = next == total_publishes;
            let all_in = self.sub_state.iter().all(|s| s.received >= s.expected)
                && self.publishers.iter().all(|p| p.inflight == 0);
            if all_sent && (setup_only || self.phase.ended) {
                if all_in {
                    break;
                }
                let until = *drain_until.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
                if Instant::now() >= until {
                    break;
                }
            }

            // Park until the next due publish, the next phase boundary or
            // socket readiness, whichever comes first.
            let now = self.now_ns();
            let mut wake = now + 50_000_000;
            if blocked {
                // Only a PUBACK unblocks the schedule; do not spin on the clock.
                wake = wake.min(now + 50_000);
            } else if !all_sent {
                wake = wake.min(start_ns + next * period_ns);
            }
            for boundary in [
                self.phase.window_from,
                self.phase.tick_due(self.phase.ticks + 1),
                self.phase.window_to,
            ] {
                if boundary > now {
                    wake = wake.min(boundary);
                }
            }
            self.wait_and_pump(wake);
        }

        // Output checks: exact delivery counts (QoS 0: publishes × fan-out;
        // QoS 1: no loss, duplicates only when flagged).
        for i in 0..self.sub_state.len() {
            let (received, expected) = (self.sub_state[i].received, self.sub_state[i].expected);
            if received != expected {
                self.fail(format!(
                    "subscriber {i} received {received} of {expected} deliveries"
                ));
            }
        }
        for j in 0..self.publishers.len() {
            let inflight = self.publishers[j].inflight;
            if inflight != 0 {
                self.fail(format!("publisher {j} has {inflight} unacked publishes"));
            }
        }
        for conn in &mut self.conns {
            conn.out.extend_from_slice(&[0xE0, 0x00]); // DISCONNECT
            conn.flush();
        }

        if !setup_only {
            let window_publishes = self.late_ms.len() as u64;
            let attempted = window_publishes * shape.fanout() as u64;
            let (p50, per_window) = stats::window_median_quantile(&self.delays_ms, 0.50);
            let (p99, _) = stats::window_median_quantile(&self.delays_ms, 0.99);
            // By windows as well: one freeze of the whole machine then
            // costs one window, and does not invalidate the run.
            let (late_p50, _) = stats::window_median_quantile(&self.late_ms, 0.50);
            let (late_p99, _) = stats::window_median_quantile(&self.late_ms, 0.99);
            for (key, value) in [
                ("items", self.delays_ms.len() as f64),
                ("delay_p50_ms", p50),
                ("delay_p99_ms", p99),
                ("delay_mean_ms", stats::mean(&self.delays_ms)),
                ("samples_per_window", per_window as f64),
                ("attempted", attempted as f64),
                ("completed", self.completed_of_window as f64),
                ("late_p50_ms", late_p50),
                ("late_p99_ms", late_p99),
                ("cpu_share", cpu_share.0),
                ("runq_wait_share", cpu_share.1),
                ("ack_p50_ms", stats::quantile(&self.ack_ms, 0.50)),
            ] {
                say(&format!("stat {key} {value}"));
            }
        }
        for f in &self.failures {
            say(&format!("fail {f}"));
        }
        say("done");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_and_a_flipped_bit_fails_the_checksum() {
        let info = PayloadInfo {
            publisher: 3,
            topic: 4095,
            topic_seq: 77,
            due_ns: 123_456_789_012,
        };
        let mut p = build_payload(info, 9, 0xDEAD_BEEF_CAFE);
        assert_eq!(parse_payload(&p), Some(info));
        p[17] ^= 0x40;
        assert_eq!(parse_payload(&p), None);
        assert_eq!(parse_payload(&p[..31]), None);
    }

    #[test]
    fn own_frames_scan_back() {
        let mut out = Vec::new();
        frame_publish(&mut out, b"sensor/1/temp", Some(513), &[7u8; PAYLOAD_LEN]);
        frame_puback(&mut out, 513);
        let (frame, used) = scan(&out).expect("valid").expect("complete");
        assert_eq!(
            frame,
            Frame::Publish {
                dup: false,
                qos: 1,
                topic: b"sensor/1/temp",
                packet_id: 513,
                payload: &[7u8; PAYLOAD_LEN],
            }
        );
        let (frame, rest) = scan(&out[used..]).expect("valid").expect("complete");
        assert_eq!(frame, Frame::Puback { packet_id: 513 });
        assert_eq!(used + rest, out.len());
        // Every proper prefix is "incomplete", never an error or a frame.
        for cut in 0..used {
            assert_eq!(scan(&out[..cut]), Ok(None), "prefix of {cut} bytes");
        }
    }

    /// The generator's frames must mean to the broker what they mean to
    /// the generator: decode them with the program's own codec.
    #[test]
    fn the_program_decodes_the_generators_frames() {
        use ifot_mqtt::codec::decode;
        use ifot_mqtt::packet::{Packet, QoS};

        let mut out = Vec::new();
        frame_connect(&mut out, "fb-sub-3", false);
        let (packet, used) = decode(&out).expect("valid").expect("complete");
        assert_eq!(used, out.len());
        let Packet::Connect(c) = packet else {
            panic!("not a CONNECT: {packet:?}")
        };
        assert_eq!(c.client_id, "fb-sub-3");
        assert!(!c.clean_session);
        assert_eq!(c.keep_alive_secs, 0);

        out.clear();
        frame_subscribe(&mut out, 1, "sensor/+/lux", 1);
        let (packet, _) = decode(&out).expect("valid").expect("complete");
        let Packet::Subscribe(s) = packet else {
            panic!("not a SUBSCRIBE: {packet:?}")
        };
        assert_eq!(s.filters[0].filter.as_str(), "sensor/+/lux");
        assert_eq!(s.filters[0].qos, QoS::AtLeastOnce);

        out.clear();
        frame_publish(&mut out, b"sensor/9/sound", None, &[1u8; PAYLOAD_LEN]);
        let (packet, _) = decode(&out).expect("valid").expect("complete");
        let Packet::Publish(p) = packet else {
            panic!("not a PUBLISH: {packet:?}")
        };
        assert_eq!(p.topic.as_str(), "sensor/9/sound");
        assert_eq!(p.qos, QoS::AtMostOnce);
        assert_eq!(p.payload.len(), PAYLOAD_LEN);
    }

    #[test]
    fn shapes_give_the_stated_fanout() {
        let fan = Shape::of("fanout_qos0_tcp").expect("known");
        assert_eq!((fan.subscribers(), fan.fanout()), (32, 16));
        let durable = Shape::of("durable_qos1_tcp").expect("known");
        assert_eq!((durable.subscribers(), durable.fanout()), (8, 4));
        for shape in [fan, durable] {
            for t in 0..shape.topics {
                let n = (0..shape.subscribers())
                    .filter(|&i| shape.receives(i, t))
                    .count();
                assert_eq!(n, shape.fanout());
            }
        }
        assert_eq!(Shape::topic(7), "sensor/2/sound");
    }

    #[test]
    fn same_seed_same_order() {
        let a = Rng::new(5).permutation(96);
        let b = Rng::new(5).permutation(96);
        let c = Rng::new(6).permutation(96);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..96).collect::<Vec<_>>());
    }
}
