//! Write-ahead log + snapshot durability for broker state.
//!
//! The broker itself stays sans-I/O: every mutation of durable state
//! (persistent sessions, subscriptions, retained messages, QoS 1/2
//! in-flight transitions) is described as a [`WalRecord`] and buffered in a
//! [`Wal`]. At the end of each top-level broker entry point
//! (`handle_packet`, `poll`, `publish_internal`, `connection_lost`) the
//! buffered records are committed as **one atomic batch** — appended to the
//! backend *before* the resulting actions are handed to the transport. A
//! crash before the append means the actions were never sent, so the peer
//! retransmits and no state is invented; a crash after means the batch is on
//! disk and replay reconstructs exactly the state the actions assumed.
//!
//! ## Framing
//!
//! A batch on the wire (same varint style as `ifot-core`'s `wire.rs`):
//!
//! ```text
//! varint len(body) | u32-LE crc32(body) | body
//! body = u8 version | varint lsn | varint record-count | records...
//! ```
//!
//! Each record is a `u8` kind tag followed by kind-specific fields (strings
//! and payloads are varint-length-prefixed). The CRC covers the whole body,
//! making a batch all-or-nothing: the tolerant [`recover`] reader truncates
//! the log at the first torn or corrupt batch instead of panicking.
//!
//! ## Write form and read form
//!
//! [`WalRecord`] is how records are *read*: what [`recover`] parses,
//! [`DurableState::apply`] replays and a snapshot is built from. They are
//! *written* from borrowed fields: the broker's record sites call one of
//! the crate-private `put_*` writers with the `&str` and the borrowed
//! message (`MessageRef`) they hold, straight into the writer's batch
//! buffer, and [`encode_record`] goes through the same writers — one
//! encoding per kind. [`Wal::commit`] then
//! frames the batch in place (the buffer keeps the header's room in front
//! of the records) and appends it as one slice: a commit allocates
//! nothing.
//!
//! [`recover`] itself is read-only; [`Wal::open`] additionally *repairs* the
//! backend before the writer accepts traffic: a torn log tail is physically
//! truncated to the clean prefix ([`WalBackend::truncate_log`]) and a
//! corrupt snapshot is replaced by a fresh snapshot of the recovered state.
//! Without the repair, post-restart appends would land *behind* the torn
//! bytes and a second crash would silently lose everything acknowledged
//! since the first restart.
//!
//! ## Snapshots
//!
//! Every [`WalConfig::snapshot_every`] records the broker serialises its
//! full durable state as a single batch (led by a [`WalRecord::SnapshotHeader`]
//! carrying the log-sequence-number watermark) and asks the backend to
//! install it and truncate the log. Replay applies the snapshot first, then
//! skips any log batch whose LSN is at or below the watermark — so a crash
//! between snapshot install and log truncation never double-applies
//! non-idempotent records (e.g. offline-queue pushes).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Debug;
use std::fs;
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, PoisonError};

use bytes::Bytes;

use crate::packet::QoS;

/// Current on-disk format version; batches with any other version are
/// treated as corrupt and truncate the readable prefix.
pub const WAL_VERSION: u8 = 1;

// ---------------------------------------------------------------------------
// CRC32 (IEEE, reflected) — implemented locally so the crate gains no deps.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3 polynomial) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Varint + field helpers (LEB128, matching wire.rs)
// ---------------------------------------------------------------------------

/// Most bytes a varint takes (a `u64`).
const VARINT_MAX: usize = 10;

/// Hands `v`'s varint bytes to `push`, low group first.
fn write_varint(mut v: u64, mut push: impl FnMut(u8)) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            push(byte);
            break;
        }
        push(byte | 0x80);
    }
}

fn put_varint(out: &mut Vec<u8>, v: u64) {
    write_varint(v, |byte| out.push(byte));
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        if shift >= 63 && byte > 1 {
            return None;
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

fn put_slice(out: &mut Vec<u8>, s: &[u8]) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s);
}

fn get_slice<'a>(buf: &'a [u8], pos: &mut usize) -> Option<&'a [u8]> {
    let len = get_varint(buf, pos)? as usize;
    let end = pos.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    let s = &buf[*pos..end];
    *pos = end;
    Some(s)
}

fn get_string(buf: &[u8], pos: &mut usize) -> Option<String> {
    let s = get_slice(buf, pos)?;
    std::str::from_utf8(s).ok().map(str::to_owned)
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// Outbound QoS 1/2 delivery stage, mirrored from the broker's private
/// in-flight state machine so it can be persisted and restored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WalStage {
    /// QoS 1: waiting for PUBACK.
    AwaitPuback,
    /// QoS 2: waiting for PUBREC.
    AwaitPubrec,
    /// QoS 2: PUBREL sent, waiting for PUBCOMP.
    AwaitPubcomp,
}

impl WalStage {
    fn bits(self) -> u8 {
        match self {
            WalStage::AwaitPuback => 0,
            WalStage::AwaitPubrec => 1,
            WalStage::AwaitPubcomp => 2,
        }
    }

    fn from_bits(b: u8) -> Option<Self> {
        match b {
            0 => Some(WalStage::AwaitPuback),
            1 => Some(WalStage::AwaitPubrec),
            2 => Some(WalStage::AwaitPubcomp),
            _ => None,
        }
    }
}

/// A message payload as persisted in the log: enough to reconstruct the
/// broker-side `Publish` (packet ids are reassigned from record context).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct DurablePublish {
    /// Topic the message was published to.
    pub topic: String,
    /// Delivery QoS (for retained messages, the QoS it was published with).
    pub qos: QoS,
    /// Whether the retain flag should be set on redelivery.
    pub retain: bool,
    /// Application payload (shared, cheap to clone).
    pub payload: Bytes,
}

/// One durable mutation of broker state.
///
/// Records are grouped into atomic batches; replay applies them in order via
/// [`DurableState::apply`]. All records are scoped to persistent sessions or
/// to the retained-message store — transient (clean-session) state is never
/// logged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// First record of a snapshot batch: replay must skip log batches with
    /// `lsn <= last_lsn` because the snapshot already covers them.
    SnapshotHeader {
        /// Highest LSN whose effects are folded into this snapshot.
        last_lsn: u64,
    },
    /// A persistent session was created or re-attached (CONNECT with
    /// `clean_session = false`).
    SessionStarted {
        /// Client identifier.
        client: String,
        /// Packet-id allocator position at the time of the record.
        next_pid: u16,
    },
    /// A previously persistent session was discarded (CONNECT with
    /// `clean_session = true`).
    SessionCleared {
        /// Client identifier.
        client: String,
    },
    /// A subscription was granted (or its QoS replaced).
    Subscribed {
        /// Client identifier.
        client: String,
        /// Topic filter string.
        filter: String,
        /// Granted QoS.
        qos: QoS,
    },
    /// A subscription was removed.
    Unsubscribed {
        /// Client identifier.
        client: String,
        /// Topic filter string.
        filter: String,
    },
    /// A retained message was stored (replacing any previous one).
    RetainSet {
        /// The retained message; `message.topic` keys the store.
        message: DurablePublish,
    },
    /// The retained message for a topic was cleared (empty-payload publish).
    RetainCleared {
        /// Topic whose retained slot was emptied.
        topic: String,
    },
    /// A message was appended to a session's offline/overflow queue.
    Queued {
        /// Client identifier.
        client: String,
        /// The queued message.
        message: DurablePublish,
    },
    /// The head of a session's queue was popped for delivery.
    QueuePopped {
        /// Client identifier.
        client: String,
    },
    /// An outbound QoS 1/2 message entered the in-flight window.
    InflightInsert {
        /// Client identifier.
        client: String,
        /// Assigned packet id.
        pid: u16,
        /// Initial delivery stage.
        stage: WalStage,
        /// The in-flight message.
        message: DurablePublish,
    },
    /// An in-flight message advanced a stage (QoS 2 PUBREC → PUBCOMP wait).
    InflightStage {
        /// Client identifier.
        client: String,
        /// Packet id.
        pid: u16,
        /// New stage.
        stage: WalStage,
    },
    /// An in-flight message completed (PUBACK / PUBCOMP received).
    InflightRemove {
        /// Client identifier.
        client: String,
        /// Packet id.
        pid: u16,
    },
    /// An inbound QoS 2 publish was accepted (exactly-once dedup set).
    InQos2Insert {
        /// Client identifier.
        client: String,
        /// Inbound packet id.
        pid: u16,
    },
    /// An inbound QoS 2 exchange completed (PUBREL received).
    InQos2Remove {
        /// Client identifier.
        client: String,
        /// Inbound packet id.
        pid: u16,
    },
}

const K_SNAPSHOT_HEADER: u8 = 0x01;
const K_SESSION_STARTED: u8 = 0x02;
const K_SESSION_CLEARED: u8 = 0x03;
const K_SUBSCRIBED: u8 = 0x04;
const K_UNSUBSCRIBED: u8 = 0x05;
const K_RETAIN_SET: u8 = 0x06;
const K_RETAIN_CLEARED: u8 = 0x07;
const K_QUEUED: u8 = 0x08;
const K_QUEUE_POPPED: u8 = 0x09;
const K_INFLIGHT_INSERT: u8 = 0x0a;
const K_INFLIGHT_STAGE: u8 = 0x0b;
const K_INFLIGHT_REMOVE: u8 = 0x0c;
const K_INQOS2_INSERT: u8 = 0x0d;
const K_INQOS2_REMOVE: u8 = 0x0e;

/// A message as the record writers take it: the fields of a
/// [`DurablePublish`], borrowed from wherever they live.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MessageRef<'a> {
    /// Topic the message was published to.
    pub(crate) topic: &'a str,
    /// Delivery QoS.
    pub(crate) qos: QoS,
    /// Whether the retain flag should be set on redelivery.
    pub(crate) retain: bool,
    /// Application payload.
    pub(crate) payload: &'a [u8],
}

impl DurablePublish {
    /// This message, borrowed.
    fn as_ref(&self) -> MessageRef<'_> {
        MessageRef {
            topic: &self.topic,
            qos: self.qos,
            retain: self.retain,
            payload: &self.payload,
        }
    }
}

fn put_message(out: &mut Vec<u8>, m: MessageRef<'_>) {
    put_slice(out, m.topic.as_bytes());
    out.push(m.qos.bits());
    out.push(u8::from(m.retain));
    put_slice(out, m.payload);
}

fn get_message(buf: &[u8], pos: &mut usize) -> Option<DurablePublish> {
    let topic = get_string(buf, pos)?;
    let qos = QoS::from_bits(*buf.get(*pos)?).ok()?;
    *pos += 1;
    let retain = match *buf.get(*pos)? {
        0 => false,
        1 => true,
        _ => return None,
    };
    *pos += 1;
    let payload = Bytes::copy_from_slice(get_slice(buf, pos)?);
    Some(DurablePublish {
        topic,
        qos,
        retain,
        payload,
    })
}

// One writer per record kind, from borrowed fields: the broker's hot paths
// write a record straight from the `&str` and `&Publish` they hold, and
// [`encode_record`] writes an owned [`WalRecord`] through the same
// functions — there is one encoding of each kind.

/// Writes a [`WalRecord::SnapshotHeader`].
pub(crate) fn put_snapshot_header(out: &mut Vec<u8>, last_lsn: u64) {
    out.push(K_SNAPSHOT_HEADER);
    put_varint(out, last_lsn);
}

/// Writes a [`WalRecord::SessionStarted`].
pub(crate) fn put_session_started(out: &mut Vec<u8>, client: &str, next_pid: u16) {
    out.push(K_SESSION_STARTED);
    put_slice(out, client.as_bytes());
    put_varint(out, u64::from(next_pid));
}

/// Writes a [`WalRecord::SessionCleared`].
pub(crate) fn put_session_cleared(out: &mut Vec<u8>, client: &str) {
    out.push(K_SESSION_CLEARED);
    put_slice(out, client.as_bytes());
}

/// Writes a [`WalRecord::Subscribed`].
pub(crate) fn put_subscribed(out: &mut Vec<u8>, client: &str, filter: &str, qos: QoS) {
    out.push(K_SUBSCRIBED);
    put_slice(out, client.as_bytes());
    put_slice(out, filter.as_bytes());
    out.push(qos.bits());
}

/// Writes a [`WalRecord::Unsubscribed`].
pub(crate) fn put_unsubscribed(out: &mut Vec<u8>, client: &str, filter: &str) {
    out.push(K_UNSUBSCRIBED);
    put_slice(out, client.as_bytes());
    put_slice(out, filter.as_bytes());
}

/// Writes a [`WalRecord::RetainSet`].
pub(crate) fn put_retain_set(out: &mut Vec<u8>, message: MessageRef<'_>) {
    out.push(K_RETAIN_SET);
    put_message(out, message);
}

/// Writes a [`WalRecord::RetainCleared`].
pub(crate) fn put_retain_cleared(out: &mut Vec<u8>, topic: &str) {
    out.push(K_RETAIN_CLEARED);
    put_slice(out, topic.as_bytes());
}

/// Writes a [`WalRecord::Queued`].
pub(crate) fn put_queued(out: &mut Vec<u8>, client: &str, message: MessageRef<'_>) {
    out.push(K_QUEUED);
    put_slice(out, client.as_bytes());
    put_message(out, message);
}

/// Writes a [`WalRecord::QueuePopped`].
pub(crate) fn put_queue_popped(out: &mut Vec<u8>, client: &str) {
    out.push(K_QUEUE_POPPED);
    put_slice(out, client.as_bytes());
}

/// Writes a [`WalRecord::InflightInsert`].
pub(crate) fn put_inflight_insert(
    out: &mut Vec<u8>,
    client: &str,
    pid: u16,
    stage: WalStage,
    message: MessageRef<'_>,
) {
    out.push(K_INFLIGHT_INSERT);
    put_slice(out, client.as_bytes());
    put_varint(out, u64::from(pid));
    out.push(stage.bits());
    put_message(out, message);
}

/// Writes a [`WalRecord::InflightStage`].
pub(crate) fn put_inflight_stage(out: &mut Vec<u8>, client: &str, pid: u16, stage: WalStage) {
    out.push(K_INFLIGHT_STAGE);
    put_slice(out, client.as_bytes());
    put_varint(out, u64::from(pid));
    out.push(stage.bits());
}

/// A record that is a kind tag, a client and a packet id.
fn put_client_pid(out: &mut Vec<u8>, kind: u8, client: &str, pid: u16) {
    out.push(kind);
    put_slice(out, client.as_bytes());
    put_varint(out, u64::from(pid));
}

/// Writes a [`WalRecord::InflightRemove`].
pub(crate) fn put_inflight_remove(out: &mut Vec<u8>, client: &str, pid: u16) {
    put_client_pid(out, K_INFLIGHT_REMOVE, client, pid);
}

/// Writes a [`WalRecord::InQos2Insert`].
pub(crate) fn put_inqos2_insert(out: &mut Vec<u8>, client: &str, pid: u16) {
    put_client_pid(out, K_INQOS2_INSERT, client, pid);
}

/// Writes a [`WalRecord::InQos2Remove`].
pub(crate) fn put_inqos2_remove(out: &mut Vec<u8>, client: &str, pid: u16) {
    put_client_pid(out, K_INQOS2_REMOVE, client, pid);
}

/// Encode one record (kind tag + fields) onto `out`.
pub fn encode_record(out: &mut Vec<u8>, rec: &WalRecord) {
    match rec {
        WalRecord::SnapshotHeader { last_lsn } => put_snapshot_header(out, *last_lsn),
        WalRecord::SessionStarted { client, next_pid } => {
            put_session_started(out, client, *next_pid);
        }
        WalRecord::SessionCleared { client } => put_session_cleared(out, client),
        WalRecord::Subscribed {
            client,
            filter,
            qos,
        } => put_subscribed(out, client, filter, *qos),
        WalRecord::Unsubscribed { client, filter } => put_unsubscribed(out, client, filter),
        WalRecord::RetainSet { message } => put_retain_set(out, message.as_ref()),
        WalRecord::RetainCleared { topic } => put_retain_cleared(out, topic),
        WalRecord::Queued { client, message } => put_queued(out, client, message.as_ref()),
        WalRecord::QueuePopped { client } => put_queue_popped(out, client),
        WalRecord::InflightInsert {
            client,
            pid,
            stage,
            message,
        } => put_inflight_insert(out, client, *pid, *stage, message.as_ref()),
        WalRecord::InflightStage { client, pid, stage } => {
            put_inflight_stage(out, client, *pid, *stage);
        }
        WalRecord::InflightRemove { client, pid } => put_inflight_remove(out, client, *pid),
        WalRecord::InQos2Insert { client, pid } => put_inqos2_insert(out, client, *pid),
        WalRecord::InQos2Remove { client, pid } => put_inqos2_remove(out, client, *pid),
    }
}

fn get_pid(buf: &[u8], pos: &mut usize) -> Option<u16> {
    let v = get_varint(buf, pos)?;
    u16::try_from(v).ok()
}

/// Decode one record starting at `pos`; `None` on any malformed field (the
/// enclosing batch is then treated as corrupt).
pub fn decode_record(buf: &[u8], pos: &mut usize) -> Option<WalRecord> {
    let kind = *buf.get(*pos)?;
    *pos += 1;
    match kind {
        K_SNAPSHOT_HEADER => Some(WalRecord::SnapshotHeader {
            last_lsn: get_varint(buf, pos)?,
        }),
        K_SESSION_STARTED => Some(WalRecord::SessionStarted {
            client: get_string(buf, pos)?,
            next_pid: get_pid(buf, pos)?,
        }),
        K_SESSION_CLEARED => Some(WalRecord::SessionCleared {
            client: get_string(buf, pos)?,
        }),
        K_SUBSCRIBED => Some(WalRecord::Subscribed {
            client: get_string(buf, pos)?,
            filter: get_string(buf, pos)?,
            qos: {
                let q = QoS::from_bits(*buf.get(*pos)?).ok()?;
                *pos += 1;
                q
            },
        }),
        K_UNSUBSCRIBED => Some(WalRecord::Unsubscribed {
            client: get_string(buf, pos)?,
            filter: get_string(buf, pos)?,
        }),
        K_RETAIN_SET => Some(WalRecord::RetainSet {
            message: get_message(buf, pos)?,
        }),
        K_RETAIN_CLEARED => Some(WalRecord::RetainCleared {
            topic: get_string(buf, pos)?,
        }),
        K_QUEUED => Some(WalRecord::Queued {
            client: get_string(buf, pos)?,
            message: get_message(buf, pos)?,
        }),
        K_QUEUE_POPPED => Some(WalRecord::QueuePopped {
            client: get_string(buf, pos)?,
        }),
        K_INFLIGHT_INSERT => Some(WalRecord::InflightInsert {
            client: get_string(buf, pos)?,
            pid: get_pid(buf, pos)?,
            stage: {
                let s = WalStage::from_bits(*buf.get(*pos)?)?;
                *pos += 1;
                s
            },
            message: get_message(buf, pos)?,
        }),
        K_INFLIGHT_STAGE => Some(WalRecord::InflightStage {
            client: get_string(buf, pos)?,
            pid: get_pid(buf, pos)?,
            stage: {
                let s = WalStage::from_bits(*buf.get(*pos)?)?;
                *pos += 1;
                s
            },
        }),
        K_INFLIGHT_REMOVE => Some(WalRecord::InflightRemove {
            client: get_string(buf, pos)?,
            pid: get_pid(buf, pos)?,
        }),
        K_INQOS2_INSERT => Some(WalRecord::InQos2Insert {
            client: get_string(buf, pos)?,
            pid: get_pid(buf, pos)?,
        }),
        K_INQOS2_REMOVE => Some(WalRecord::InQos2Remove {
            client: get_string(buf, pos)?,
            pid: get_pid(buf, pos)?,
        }),
        _ => None,
    }
}

/// Room a batch buffer keeps in front of its records for the frame header:
/// the length varint and the CRC, then the body's version byte and its two
/// varints.
const FRAME_HEAD_MAX: usize = VARINT_MAX + 4 + 1 + 2 * VARINT_MAX;

/// A buffer for one batch: the header's room, records to follow.
fn batch_buffer() -> Vec<u8> {
    vec![0; FRAME_HEAD_MAX]
}

/// A frame header being built, on the stack.
struct Head {
    bytes: [u8; FRAME_HEAD_MAX],
    len: usize,
}

impl Head {
    fn new() -> Head {
        Head {
            bytes: [0; FRAME_HEAD_MAX],
            len: 0,
        }
    }

    fn push(&mut self, byte: u8) {
        self.bytes[self.len] = byte;
        self.len += 1;
    }

    fn varint(&mut self, v: u64) {
        write_varint(v, |byte| self.push(byte));
    }

    /// Copies the header into `buf` so that it ends at `end`; returns
    /// where it starts.
    fn place_before(&self, buf: &mut [u8], end: usize) -> usize {
        let start = end - self.len;
        buf[start..end].copy_from_slice(&self.bytes[..self.len]);
        start
    }
}

/// Frames, in place, the `nrec` encoded records that follow the first
/// [`FRAME_HEAD_MAX`] bytes of `buf`, as
/// `varint len | crc32 LE | version | varint lsn | varint nrec | records`:
/// the body's head goes right in front of the records, the length and the
/// CRC of the body right in front of that. Returns where in `buf` the
/// frame starts.
fn frame_batch(buf: &mut [u8], lsn: u64, nrec: u64) -> usize {
    let mut head = Head::new();
    head.push(WAL_VERSION);
    head.varint(lsn);
    head.varint(nrec);
    let body = head.place_before(buf, FRAME_HEAD_MAX);

    let mut head = Head::new();
    head.varint((buf.len() - body) as u64);
    for byte in crc32(&buf[body..]).to_le_bytes() {
        head.push(byte);
    }
    head.place_before(buf, body)
}

/// Parse a framed stream into `(lsn, records)` batches.
///
/// Returns the clean prefix, `true` if the stream was truncated at a torn
/// or corrupt batch (bad length, short body, CRC mismatch, unknown version,
/// or undecodable record), and the byte length of the clean prefix — the
/// offset a physical repair should truncate the log to. Never panics.
pub fn parse_stream(buf: &[u8]) -> (Vec<(u64, Vec<WalRecord>)>, bool, u64) {
    let mut batches = Vec::new();
    let mut pos = 0usize;
    let mut clean = 0usize;
    while pos < buf.len() {
        let start = pos;
        let Some(len) = get_varint(buf, &mut pos) else {
            return (batches, true, clean as u64);
        };
        let Ok(len) = usize::try_from(len) else {
            return (batches, true, clean as u64);
        };
        let Some(body_start) = pos.checked_add(4) else {
            return (batches, true, clean as u64);
        };
        let Some(end) = body_start.checked_add(len) else {
            return (batches, true, clean as u64);
        };
        if end > buf.len() {
            return (batches, true, clean as u64);
        }
        let crc = u32::from_le_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]);
        let body = &buf[body_start..end];
        if crc32(body) != crc {
            return (batches, true, clean as u64);
        }
        match parse_body(body) {
            Some(batch) => batches.push(batch),
            None => return (batches, true, clean as u64),
        }
        pos = end;
        clean = end;
        debug_assert!(pos > start);
    }
    (batches, false, clean as u64)
}

fn parse_body(body: &[u8]) -> Option<(u64, Vec<WalRecord>)> {
    let mut pos = 0usize;
    let version = *body.get(pos)?;
    pos += 1;
    if version != WAL_VERSION {
        return None;
    }
    let lsn = get_varint(body, &mut pos)?;
    let nrec = get_varint(body, &mut pos)?;
    let mut records = Vec::with_capacity(nrec.min(1024) as usize);
    for _ in 0..nrec {
        records.push(decode_record(body, &mut pos)?);
    }
    if pos != body.len() {
        return None;
    }
    Some((lsn, records))
}

// ---------------------------------------------------------------------------
// Durable state model
// ---------------------------------------------------------------------------

/// Persistent-session state as reconstructed from the log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableSession {
    /// Granted subscriptions (filter string, QoS).
    pub subscriptions: Vec<(String, QoS)>,
    /// Packet-id allocator position (monotone max of observed ids).
    pub next_pid: u16,
    /// Outbound in-flight window keyed by packet id.
    pub inflight: BTreeMap<u16, (DurablePublish, WalStage)>,
    /// Offline/overflow publish queue, in delivery order.
    pub queue: VecDeque<DurablePublish>,
    /// Inbound QoS 2 packet ids awaiting PUBREL.
    pub incoming_qos2: BTreeSet<u16>,
}

/// Full durable broker state: what survives a restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableState {
    /// Persistent sessions keyed by client id.
    pub sessions: BTreeMap<String, DurableSession>,
    /// Retained messages keyed by topic.
    pub retained: BTreeMap<String, DurablePublish>,
}

impl DurableState {
    /// Apply one record. All operations are defensive: records referencing
    /// unknown sessions create them (a snapshot may have elided an empty
    /// session), removals of absent entries are no-ops, and `next_pid` only
    /// moves forward — so applying a snapshot built *from* this state is a
    /// fixpoint.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::SnapshotHeader { .. } => {}
            WalRecord::SessionStarted { client, next_pid } => {
                let s = self.sessions.entry(client.clone()).or_default();
                s.next_pid = s.next_pid.max(*next_pid);
            }
            WalRecord::SessionCleared { client } => {
                self.sessions.remove(client);
            }
            WalRecord::Subscribed {
                client,
                filter,
                qos,
            } => {
                let s = self.sessions.entry(client.clone()).or_default();
                s.subscriptions.retain(|(f, _)| f != filter);
                s.subscriptions.push((filter.clone(), *qos));
            }
            WalRecord::Unsubscribed { client, filter } => {
                if let Some(s) = self.sessions.get_mut(client) {
                    s.subscriptions.retain(|(f, _)| f != filter);
                }
            }
            WalRecord::RetainSet { message } => {
                self.retained.insert(message.topic.clone(), message.clone());
            }
            WalRecord::RetainCleared { topic } => {
                self.retained.remove(topic);
            }
            WalRecord::Queued { client, message } => {
                let s = self.sessions.entry(client.clone()).or_default();
                s.queue.push_back(message.clone());
            }
            WalRecord::QueuePopped { client } => {
                if let Some(s) = self.sessions.get_mut(client) {
                    s.queue.pop_front();
                }
            }
            WalRecord::InflightInsert {
                client,
                pid,
                stage,
                message,
            } => {
                let s = self.sessions.entry(client.clone()).or_default();
                s.next_pid = s.next_pid.max(*pid);
                s.inflight.insert(*pid, (message.clone(), *stage));
            }
            WalRecord::InflightStage { client, pid, stage } => {
                if let Some(s) = self.sessions.get_mut(client) {
                    if let Some(entry) = s.inflight.get_mut(pid) {
                        entry.1 = *stage;
                    }
                }
            }
            WalRecord::InflightRemove { client, pid } => {
                if let Some(s) = self.sessions.get_mut(client) {
                    s.inflight.remove(pid);
                }
            }
            WalRecord::InQos2Insert { client, pid } => {
                let s = self.sessions.entry(client.clone()).or_default();
                s.incoming_qos2.insert(*pid);
            }
            WalRecord::InQos2Remove { client, pid } => {
                if let Some(s) = self.sessions.get_mut(client) {
                    s.incoming_qos2.remove(pid);
                }
            }
        }
    }

    /// Serialise this state as snapshot records: applying them to an empty
    /// state reproduces it exactly (the state-level analogue of
    /// `Broker::durable_records`). Used by [`Wal::open`] to rebuild a
    /// corrupt snapshot from whatever recovery salvaged.
    pub fn to_records(&self) -> Vec<WalRecord> {
        let mut out = Vec::new();
        for (client, s) in &self.sessions {
            out.push(WalRecord::SessionStarted {
                client: client.clone(),
                next_pid: s.next_pid,
            });
            for (filter, qos) in &s.subscriptions {
                out.push(WalRecord::Subscribed {
                    client: client.clone(),
                    filter: filter.clone(),
                    qos: *qos,
                });
            }
            for pid in &s.incoming_qos2 {
                out.push(WalRecord::InQos2Insert {
                    client: client.clone(),
                    pid: *pid,
                });
            }
            for (pid, (message, stage)) in &s.inflight {
                out.push(WalRecord::InflightInsert {
                    client: client.clone(),
                    pid: *pid,
                    stage: *stage,
                    message: message.clone(),
                });
            }
            for message in &s.queue {
                out.push(WalRecord::Queued {
                    client: client.clone(),
                    message: message.clone(),
                });
            }
        }
        for message in self.retained.values() {
            out.push(WalRecord::RetainSet {
                message: message.clone(),
            });
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Backends
// ---------------------------------------------------------------------------

/// Storage backend for a [`Wal`]: an append-only log plus an atomically
/// replaceable snapshot.
///
/// `install_snapshot` must replace the snapshot and truncate the log as close
/// to atomically as the medium allows; [`recover`] tolerates a crash between
/// the two because snapshot batches carry their LSN watermark.
pub trait WalBackend: Send + Debug {
    /// Append one framed batch to the log. A partial write followed by an
    /// error models a torn tail; the committed prefix must remain readable.
    fn append(&mut self, frame: &[u8]) -> io::Result<()>;
    /// Read the entire log stream.
    fn read_log(&mut self) -> io::Result<Vec<u8>>;
    /// Read the current snapshot, if any.
    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>>;
    /// Replace the snapshot with `snapshot` and truncate the log.
    fn install_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()>;
    /// Truncate the log to its first `len` bytes, discarding a torn or
    /// corrupt tail so subsequent appends extend the clean prefix.
    fn truncate_log(&mut self, len: u64) -> io::Result<()>;
    /// Flush appended batches to durable storage (fsync for file-backed
    /// logs). Memory backends have nothing to flush.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Crash-injection point for [`MemBackend::crash_next_snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotCrash {
    /// Fail before anything changes: old snapshot and full log survive.
    BeforeInstall,
    /// Install the new snapshot but crash before truncating the log —
    /// replay must skip the now-stale log batches via the LSN watermark.
    BetweenInstallAndTruncate,
    /// Write only the first `n` bytes of the new snapshot (torn snapshot
    /// replace on a backend without atomic rename), keeping the full log.
    TornWrite(u64),
}

#[derive(Debug, Default)]
struct MemState {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    torn_at: Option<u64>,
    snapshot_crash: Option<SnapshotCrash>,
}

/// Deterministic in-memory backend for tests.
///
/// Cloning shares the underlying storage, so a test can keep a handle,
/// "crash" the broker by dropping it, and hand a fresh clone to
/// [`crate::broker::Broker::open_durable`] to model a restart. Fault
/// injection: [`MemBackend::tear_log_at`] cuts future appends at an absolute
/// byte offset (partial final record), and
/// [`MemBackend::crash_next_snapshot`] aborts the next snapshot install at a
/// chosen point.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    state: Arc<Mutex<MemState>>,
}

impl MemBackend {
    /// New empty backend.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current log length in bytes.
    pub fn log_len(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log
            .len() as u64
    }

    /// Copy of the raw log bytes (for corruption tests).
    pub fn raw_log(&self) -> Vec<u8> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log
            .clone()
    }

    /// Replace the raw log bytes (for corruption tests).
    pub fn set_raw_log(&self, bytes: Vec<u8>) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log = bytes;
    }

    /// Copy of the raw snapshot bytes, if a snapshot is installed.
    pub fn raw_snapshot(&self) -> Option<Vec<u8>> {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot
            .clone()
    }

    /// Replace the raw snapshot bytes (for corruption tests).
    pub fn set_raw_snapshot(&self, bytes: Option<Vec<u8>>) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot = bytes;
    }

    /// All future appends are cut at absolute log offset `offset`: bytes up
    /// to it are written, the rest discarded, and the append reports an
    /// error (as does every later append until [`MemBackend::clear_tear`]).
    pub fn tear_log_at(&self, offset: u64) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .torn_at = Some(offset);
    }

    /// Remove a tear installed by [`MemBackend::tear_log_at`].
    pub fn clear_tear(&self) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .torn_at = None;
    }

    /// Make the next `install_snapshot` fail at the given point (one-shot).
    pub fn crash_next_snapshot(&self, mode: SnapshotCrash) {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot_crash = Some(mode);
    }
}

impl WalBackend for MemBackend {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = s.torn_at {
            let end = s.log.len() as u64 + frame.len() as u64;
            if end > t {
                let take = t.saturating_sub(s.log.len() as u64) as usize;
                let take = take.min(frame.len());
                s.log.extend_from_slice(&frame[..take]);
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "torn write injected",
                ));
            }
        }
        s.log.extend_from_slice(frame);
        Ok(())
    }

    fn read_log(&mut self) -> io::Result<Vec<u8>> {
        Ok(self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .log
            .clone())
    }

    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot
            .clone())
    }

    fn truncate_log(&mut self, len: u64) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < s.log.len() {
            s.log.truncate(len);
        }
        Ok(())
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match s.snapshot_crash.take() {
            Some(SnapshotCrash::BeforeInstall) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "crash injected before snapshot install",
            )),
            Some(SnapshotCrash::BetweenInstallAndTruncate) => {
                s.snapshot = Some(snapshot.to_vec());
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "crash injected before log truncation",
                ))
            }
            Some(SnapshotCrash::TornWrite(n)) => {
                let n = (n as usize).min(snapshot.len());
                s.snapshot = Some(snapshot[..n].to_vec());
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "torn snapshot write injected",
                ))
            }
            None => {
                s.snapshot = Some(snapshot.to_vec());
                s.log.clear();
                Ok(())
            }
        }
    }
}

/// File-system backend: `<prefix>.wal` append-only log and `<prefix>.snap`
/// snapshot under a directory.
///
/// Snapshot install writes `<prefix>.snap.tmp`, fsyncs, renames over the
/// snapshot, fsyncs the directory (so the rename itself survives power
/// loss), then truncates the log — a crash at any point leaves either the
/// old snapshot + full log or the new snapshot (+ possibly stale log, which
/// replay skips via the LSN watermark). A partial append (e.g. `ENOSPC`) is
/// rolled back with `set_len` so torn bytes never sit mid-log. Appends are
/// buffered by the OS by default, protecting against process crashes only;
/// [`WalConfig::fsync`] opts into an fsync per committed batch for
/// power-loss durability at a throughput cost.
#[derive(Debug)]
pub struct FileBackend {
    log_path: PathBuf,
    snap_path: PathBuf,
    log: fs::File,
    /// Byte length of the log as written through this handle; used to roll
    /// back partial appends without a metadata syscall per batch.
    len: u64,
}

impl FileBackend {
    /// Open (creating as needed) the backing files for `prefix` under `dir`.
    pub fn open(dir: impl Into<PathBuf>, prefix: &str) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let log_path = dir.join(format!("{prefix}.wal"));
        let snap_path = dir.join(format!("{prefix}.snap"));
        let log = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&log_path)?;
        let len = log.metadata()?.len();
        Ok(Self {
            log_path,
            snap_path,
            log,
            len,
        })
    }

    /// fsync the directory holding the snapshot so a just-renamed snapshot
    /// entry is durable, not only its contents. Best-effort: some
    /// filesystems refuse directory fsync, and the rename is still
    /// process-crash-safe without it.
    fn sync_dir(&self) {
        if let Some(parent) = self.snap_path.parent() {
            if let Ok(d) = fs::File::open(parent) {
                let _ = d.sync_all();
            }
        }
    }
}

impl WalBackend for FileBackend {
    fn append(&mut self, frame: &[u8]) -> io::Result<()> {
        match self.log.write_all(frame) {
            Ok(()) => {
                self.len += frame.len() as u64;
                Ok(())
            }
            Err(e) => {
                // Undo any partially-written bytes so the next successful
                // append extends the clean prefix, not a torn batch. If the
                // rollback itself fails the forced resync snapshot (see
                // `Wal::commit`) truncates the log anyway.
                let _ = self.log.set_len(self.len);
                Err(e)
            }
        }
    }

    fn read_log(&mut self) -> io::Result<Vec<u8>> {
        self.log.flush()?;
        let mut buf = Vec::new();
        let mut f = fs::File::open(&self.log_path)?;
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn read_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(&self.snap_path) {
            Ok(buf) => Ok(Some(buf)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn install_snapshot(&mut self, snapshot: &[u8]) -> io::Result<()> {
        let tmp = self.snap_path.with_extension("snap.tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(snapshot)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &self.snap_path)?;
        self.sync_dir();
        self.log.flush()?;
        self.log.set_len(0)?;
        self.log.seek(io::SeekFrom::Start(0))?;
        self.len = 0;
        Ok(())
    }

    fn truncate_log(&mut self, len: u64) -> io::Result<()> {
        if len < self.len {
            self.log.flush()?;
            self.log.set_len(len)?;
            self.log.sync_data()?;
            self.len = len;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.sync_data()
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What [`recover`] reconstructed, with enough counters for tests and
/// operators to see exactly what happened.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The rebuilt durable state.
    pub state: DurableState,
    /// Highest LSN observed (snapshot watermark or log batch); the writer
    /// resumes above it.
    pub last_lsn: u64,
    /// Records applied from the snapshot (excluding the header).
    pub snapshot_records: u64,
    /// Log batches applied.
    pub log_batches: u64,
    /// Log records applied.
    pub log_records: u64,
    /// Log batches skipped because the snapshot already covered their LSN.
    pub stale_batches_skipped: u64,
    /// True if the log ended in a torn/corrupt batch that was dropped.
    pub log_truncated: bool,
    /// True if the snapshot was corrupt (fully or partially unreadable).
    pub snapshot_corrupt: bool,
    /// Byte length of the clean log prefix — where a physical repair
    /// truncates the log when [`RecoveryReport::log_truncated`] is set.
    pub clean_log_bytes: u64,
}

/// Rebuild durable state from a backend: apply the snapshot (if readable),
/// then every log batch above the snapshot's LSN watermark, truncating at
/// the first torn or corrupt batch. Never panics on malformed input; `Err`
/// is only ever an I/O error from the backend itself.
///
/// This is a read-only pass: the backend keeps its torn bytes. Use
/// [`Wal::open`] to recover *and* physically repair before writing.
pub fn recover(backend: &mut dyn WalBackend) -> io::Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let mut floor = 0u64;
    if let Some(snap) = backend.read_snapshot()? {
        let (batches, torn, _) = parse_stream(&snap);
        if torn {
            report.snapshot_corrupt = true;
        }
        for (lsn, records) in &batches {
            for rec in records {
                if let WalRecord::SnapshotHeader { last_lsn } = rec {
                    floor = floor.max(*last_lsn);
                } else {
                    report.state.apply(rec);
                    report.snapshot_records += 1;
                }
            }
            floor = floor.max(*lsn);
        }
    }
    let log = backend.read_log()?;
    let (batches, torn, clean) = parse_stream(&log);
    report.log_truncated = torn;
    report.clean_log_bytes = clean;
    let mut last = floor;
    for (lsn, records) in &batches {
        if *lsn <= floor {
            report.stale_batches_skipped += 1;
            continue;
        }
        for rec in records {
            report.state.apply(rec);
            report.log_records += 1;
        }
        report.log_batches += 1;
        last = last.max(*lsn);
    }
    report.last_lsn = last;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Tuning for a [`Wal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalConfig {
    /// Install a snapshot (and truncate the log) after this many records
    /// have been appended since the last one. `0` disables automatic
    /// snapshots (a failed append still forces one — see
    /// [`Wal::snapshot_due`]).
    pub snapshot_every: u64,
    /// fsync the log after every committed batch. Off by default: the OS
    /// page cache already survives process crashes, and per-batch fsync
    /// costs throughput; turn it on when acknowledged state must survive
    /// power loss too.
    pub fsync: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 4096,
            fsync: false,
        }
    }
}

/// Counters describing WAL activity since the writer was opened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records committed to the log.
    pub records_appended: u64,
    /// Atomic batches committed to the log.
    pub batches_committed: u64,
    /// Framed bytes appended to the log.
    pub bytes_appended: u64,
    /// Batch appends the backend rejected. The batch is lost from the log,
    /// so the writer forces a resync snapshot at the next
    /// [`Wal::snapshot_due`] check — for the broker that is the same
    /// barrier, before any action reaches the transport.
    pub append_errors: u64,
    /// fsync failures after a committed batch ([`WalConfig::fsync`] only);
    /// each also forces a resync snapshot.
    pub sync_errors: u64,
    /// Snapshots successfully installed.
    pub snapshots_installed: u64,
    /// Snapshot installs the backend rejected (retried at the next
    /// [`Wal::snapshot_due`] check).
    pub snapshot_errors: u64,
}

/// The write half: buffers records and commits them as atomic batches.
#[derive(Debug)]
pub struct Wal {
    backend: Box<dyn WalBackend>,
    config: WalConfig,
    next_lsn: u64,
    /// The batch being built, kept from commit to commit: the frame
    /// header's room ([`batch_buffer`]), then the records buffered so far.
    pending: Vec<u8>,
    pending_count: u64,
    records_since_snapshot: u64,
    /// Set when the log and in-memory state may have diverged (failed
    /// append/fsync, failed snapshot, unrepaired open): the next snapshot
    /// install resyncs them and clears it.
    force_snapshot: bool,
    stats: WalStats,
}

impl Wal {
    /// Writer over a fresh/empty backend (first LSN is 1).
    pub fn new(backend: Box<dyn WalBackend>, config: WalConfig) -> Self {
        Self::resume(backend, config, 0)
    }

    /// Writer resuming above `last_lsn` (from a [`RecoveryReport`]).
    pub fn resume(backend: Box<dyn WalBackend>, config: WalConfig, last_lsn: u64) -> Self {
        Self {
            backend,
            config,
            next_lsn: last_lsn + 1,
            pending: batch_buffer(),
            pending_count: 0,
            records_since_snapshot: 0,
            force_snapshot: false,
            stats: WalStats::default(),
        }
    }

    /// Recover the backend's state, **physically repair** any damage found,
    /// and return a writer positioned after the recovered history.
    ///
    /// Repair matters for the double-crash case: without it, appends after
    /// a torn-tail restart would land *behind* the corrupt bytes (replay
    /// stops at the first bad batch) and a second crash would silently lose
    /// everything acknowledged since the first restart. A corrupt snapshot
    /// is replaced by a fresh snapshot of the recovered state (which also
    /// truncates the log); a torn log tail is truncated to the clean
    /// prefix. If the snapshot rebuild fails, the writer stays marked for a
    /// forced snapshot so the embedder retries at its next
    /// [`Wal::snapshot_due`] check.
    pub fn open(
        mut backend: Box<dyn WalBackend>,
        config: WalConfig,
    ) -> io::Result<(Self, RecoveryReport)> {
        let report = recover(backend.as_mut())?;
        let mut wal = Self::resume(backend, config, report.last_lsn);
        if report.snapshot_corrupt {
            wal.install_snapshot(&report.state.to_records());
        }
        if report.log_truncated && wal.stats.snapshots_installed == 0 {
            wal.backend.truncate_log(report.clean_log_bytes)?;
        }
        Ok((wal, report))
    }

    /// Buffer one record into the current batch (nothing is written yet).
    pub fn record(&mut self, rec: &WalRecord) {
        self.record_with(|out| encode_record(out, rec));
    }

    /// Buffers the one record `put` writes — one of the `put_*` writers,
    /// given fields the caller only borrows.
    pub(crate) fn record_with(&mut self, put: impl FnOnce(&mut Vec<u8>)) {
        put(&mut self.pending);
        self.pending_count += 1;
    }

    /// Number of records buffered but not yet committed.
    pub fn pending_records(&self) -> u64 {
        self.pending_count
    }

    /// Commit the buffered records as one atomic CRC-framed batch. A no-op
    /// when nothing is buffered. On backend error the batch is dropped from
    /// the log (counted in [`WalStats::append_errors`]) and the writer
    /// flags a forced snapshot so the embedder's next [`Wal::snapshot_due`]
    /// check resyncs the log with its in-memory state — repairing any torn
    /// bytes the failed append left behind.
    pub fn commit(&mut self) {
        if self.pending_count == 0 {
            return;
        }
        let start = frame_batch(&mut self.pending, self.next_lsn, self.pending_count);
        let frame = &self.pending[start..];
        self.next_lsn += 1;
        match self.backend.append(frame) {
            Ok(()) => {
                self.stats.records_appended += self.pending_count;
                self.stats.batches_committed += 1;
                self.stats.bytes_appended += frame.len() as u64;
                self.records_since_snapshot += self.pending_count;
                if self.config.fsync && self.backend.sync().is_err() {
                    self.stats.sync_errors += 1;
                    self.force_snapshot = true;
                }
            }
            Err(_) => {
                self.stats.append_errors += 1;
                self.force_snapshot = true;
            }
        }
        self.pending.truncate(FRAME_HEAD_MAX);
        self.pending_count = 0;
    }

    /// True when enough records have accumulated for an automatic snapshot,
    /// or when a failed append/fsync/install forces one to resync the log
    /// with the embedder's state (this overrides `snapshot_every == 0`).
    pub fn snapshot_due(&self) -> bool {
        self.force_snapshot
            || (self.config.snapshot_every > 0
                && self.records_since_snapshot >= self.config.snapshot_every)
    }

    /// Serialise `records` (a full durable-state dump) as a snapshot batch
    /// and ask the backend to install it and truncate the log. Success
    /// clears any pending forced snapshot; failure sets one so the install
    /// is retried at the next [`Wal::snapshot_due`] check.
    pub fn install_snapshot(&mut self, records: &[WalRecord]) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut batch = batch_buffer();
        put_snapshot_header(&mut batch, lsn);
        for rec in records {
            encode_record(&mut batch, rec);
        }
        let start = frame_batch(&mut batch, lsn, records.len() as u64 + 1);
        match self.backend.install_snapshot(&batch[start..]) {
            Ok(()) => {
                self.stats.snapshots_installed += 1;
                self.records_since_snapshot = 0;
                self.force_snapshot = false;
            }
            Err(_) => {
                self.stats.snapshot_errors += 1;
                self.force_snapshot = true;
            }
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Next log sequence number the writer will stamp.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec_retain(topic: &str, payload: &[u8]) -> WalRecord {
        WalRecord::RetainSet {
            message: DurablePublish {
                topic: topic.to_owned(),
                qos: QoS::AtLeastOnce,
                retain: true,
                payload: Bytes::copy_from_slice(payload),
            },
        }
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn record_round_trip_all_kinds() {
        let msg = DurablePublish {
            topic: "a/b".into(),
            qos: QoS::ExactlyOnce,
            retain: true,
            payload: Bytes::from_static(b"xyz"),
        };
        let records = vec![
            WalRecord::SnapshotHeader { last_lsn: 7 },
            WalRecord::SessionStarted {
                client: "c1".into(),
                next_pid: 42,
            },
            WalRecord::SessionCleared {
                client: "c1".into(),
            },
            WalRecord::Subscribed {
                client: "c1".into(),
                filter: "a/+".into(),
                qos: QoS::AtLeastOnce,
            },
            WalRecord::Unsubscribed {
                client: "c1".into(),
                filter: "a/+".into(),
            },
            WalRecord::RetainSet {
                message: msg.clone(),
            },
            WalRecord::RetainCleared {
                topic: "a/b".into(),
            },
            WalRecord::Queued {
                client: "c1".into(),
                message: msg.clone(),
            },
            WalRecord::QueuePopped {
                client: "c1".into(),
            },
            WalRecord::InflightInsert {
                client: "c1".into(),
                pid: 9,
                stage: WalStage::AwaitPubrec,
                message: msg,
            },
            WalRecord::InflightStage {
                client: "c1".into(),
                pid: 9,
                stage: WalStage::AwaitPubcomp,
            },
            WalRecord::InflightRemove {
                client: "c1".into(),
                pid: 9,
            },
            WalRecord::InQos2Insert {
                client: "c1".into(),
                pid: 3,
            },
            WalRecord::InQos2Remove {
                client: "c1".into(),
                pid: 3,
            },
        ];
        for rec in &records {
            let mut buf = Vec::new();
            encode_record(&mut buf, rec);
            let mut pos = 0;
            let back = decode_record(&buf, &mut pos).expect("decode");
            assert_eq!(&back, rec);
            assert_eq!(pos, buf.len());
        }
    }

    /// SplitMix64: all the randomness a sweep over record contents needs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn pick<T: Copy>(&mut self, of: &[T]) -> T {
            of[(self.next() % of.len() as u64) as usize]
        }

        /// Empty, short or longer, one character in four outside ASCII.
        fn text(&mut self) -> String {
            let len = self.pick(&[0usize, 1, 7, 40]);
            (0..len)
                .map(|_| match self.next() % 4 {
                    0 => self.pick(&['é', 'ÿ', '温', '🌡']),
                    _ => (b'a' + (self.next() % 26) as u8) as char,
                })
                .collect()
        }

        fn pid(&mut self) -> u16 {
            self.next() as u16
        }

        fn stage(&mut self) -> WalStage {
            self.pick(&[
                WalStage::AwaitPuback,
                WalStage::AwaitPubrec,
                WalStage::AwaitPubcomp,
            ])
        }

        /// Payloads from empty to 64 KiB.
        fn message(&mut self) -> DurablePublish {
            let payload_len = self.pick(&[0usize, 3, 200, 64 * 1024]);
            DurablePublish {
                topic: self.text(),
                qos: self.pick(&[QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce]),
                retain: self.next() & 1 == 1,
                payload: Bytes::from(vec![self.next() as u8; payload_len]),
            }
        }

        fn one_of_every_record(&mut self) -> Vec<WalRecord> {
            vec![
                WalRecord::SnapshotHeader {
                    last_lsn: self.next() >> (self.next() % 64),
                },
                WalRecord::SessionStarted {
                    client: self.text(),
                    next_pid: self.pid(),
                },
                WalRecord::SessionCleared {
                    client: self.text(),
                },
                WalRecord::Subscribed {
                    client: self.text(),
                    filter: self.text(),
                    qos: QoS::AtLeastOnce,
                },
                WalRecord::Unsubscribed {
                    client: self.text(),
                    filter: self.text(),
                },
                WalRecord::RetainSet {
                    message: self.message(),
                },
                WalRecord::RetainCleared { topic: self.text() },
                WalRecord::Queued {
                    client: self.text(),
                    message: self.message(),
                },
                WalRecord::QueuePopped {
                    client: self.text(),
                },
                WalRecord::InflightInsert {
                    client: self.text(),
                    pid: self.pid(),
                    stage: self.stage(),
                    message: self.message(),
                },
                WalRecord::InflightStage {
                    client: self.text(),
                    pid: self.pid(),
                    stage: self.stage(),
                },
                WalRecord::InflightRemove {
                    client: self.text(),
                    pid: self.pid(),
                },
                WalRecord::InQos2Insert {
                    client: self.text(),
                    pid: self.pid(),
                },
                WalRecord::InQos2Remove {
                    client: self.text(),
                    pid: self.pid(),
                },
            ]
        }
    }

    /// The same record written the way the broker's hot paths write it:
    /// by the writer of its kind, from fields that are only borrowed.
    fn written_from_borrowed_fields(rec: &WalRecord) -> Vec<u8> {
        let mut out = Vec::new();
        match rec {
            WalRecord::SnapshotHeader { last_lsn } => put_snapshot_header(&mut out, *last_lsn),
            WalRecord::SessionStarted { client, next_pid } => {
                put_session_started(&mut out, client, *next_pid);
            }
            WalRecord::SessionCleared { client } => put_session_cleared(&mut out, client),
            WalRecord::Subscribed {
                client,
                filter,
                qos,
            } => put_subscribed(&mut out, client, filter, *qos),
            WalRecord::Unsubscribed { client, filter } => {
                put_unsubscribed(&mut out, client, filter);
            }
            WalRecord::RetainSet { message } => put_retain_set(&mut out, message.as_ref()),
            WalRecord::RetainCleared { topic } => put_retain_cleared(&mut out, topic),
            WalRecord::Queued { client, message } => {
                put_queued(&mut out, client, message.as_ref());
            }
            WalRecord::QueuePopped { client } => put_queue_popped(&mut out, client),
            WalRecord::InflightInsert {
                client,
                pid,
                stage,
                message,
            } => put_inflight_insert(&mut out, client, *pid, *stage, message.as_ref()),
            WalRecord::InflightStage { client, pid, stage } => {
                put_inflight_stage(&mut out, client, *pid, *stage);
            }
            WalRecord::InflightRemove { client, pid } => {
                put_inflight_remove(&mut out, client, *pid)
            }
            WalRecord::InQos2Insert { client, pid } => put_inqos2_insert(&mut out, client, *pid),
            WalRecord::InQos2Remove { client, pid } => put_inqos2_remove(&mut out, client, *pid),
        }
        out
    }

    #[test]
    fn records_written_from_borrowed_fields_equal_the_owned_encoding() {
        for seed in 0..500 {
            let mut rng = Rng(seed);
            for rec in rng.one_of_every_record() {
                let mut owned = Vec::new();
                encode_record(&mut owned, &rec);
                assert!(
                    written_from_borrowed_fields(&rec) == owned,
                    "seed {seed}: {rec:?}"
                );
                // And they read back as what was written.
                let mut pos = 0;
                assert_eq!(decode_record(&owned, &mut pos).as_ref(), Some(&rec));
                assert_eq!(pos, owned.len(), "seed {seed}");
            }
        }
    }

    #[test]
    fn commit_and_recover_round_trip() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.record(&rec_retain("t/1", b"one"));
        wal.record(&WalRecord::SessionStarted {
            client: "c".into(),
            next_pid: 0,
        });
        wal.commit();
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        let report = recover(&mut backend.clone()).unwrap();
        assert!(!report.log_truncated);
        assert_eq!(report.log_batches, 2);
        assert_eq!(report.log_records, 3);
        assert_eq!(report.state.retained.len(), 2);
        assert!(report.state.sessions.contains_key("c"));
        assert_eq!(report.last_lsn, 2);
    }

    #[test]
    fn empty_commit_is_noop() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.commit();
        assert_eq!(backend.log_len(), 0);
        assert_eq!(wal.stats().batches_committed, 0);
    }

    #[test]
    fn torn_tail_truncates_to_clean_prefix() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        let clean = backend.log_len();
        backend.tear_log_at(clean + 3);
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        assert_eq!(wal.stats().append_errors, 1);
        assert_eq!(backend.log_len(), clean + 3);
        let report = recover(&mut backend.clone()).unwrap();
        assert!(report.log_truncated);
        assert_eq!(report.log_records, 1);
        assert_eq!(
            report.state.retained.keys().collect::<Vec<_>>(),
            vec!["t/1"]
        );
    }

    #[test]
    fn bit_flip_in_tail_drops_only_that_batch() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        let clean = backend.log_len() as usize;
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        let mut raw = backend.raw_log();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        backend.set_raw_log(raw);
        let report = recover(&mut backend.clone()).unwrap();
        assert!(report.log_truncated);
        assert_eq!(report.log_records, 1);
        assert!(backend.raw_log().len() > clean);
    }

    #[test]
    fn snapshot_truncates_and_replay_skips_stale() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 1,
                ..WalConfig::default()
            },
        );
        let mut model = DurableState::default();
        for i in 0..5 {
            let rec = rec_retain(&format!("t/{i}"), b"v");
            model.apply(&rec);
            wal.record(&rec);
            wal.commit();
            if wal.snapshot_due() {
                let dump: Vec<WalRecord> = model
                    .retained
                    .values()
                    .map(|m| WalRecord::RetainSet { message: m.clone() })
                    .collect();
                wal.install_snapshot(&dump);
            }
        }
        assert_eq!(backend.log_len(), 0);
        assert!(backend.raw_snapshot().is_some());
        let report = recover(&mut backend.clone()).unwrap();
        assert_eq!(report.state, model);
        assert_eq!(report.log_batches, 0);
    }

    #[test]
    fn crash_between_install_and_truncate_does_not_double_apply() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        let queued = WalRecord::Queued {
            client: "c".into(),
            message: DurablePublish {
                topic: "t".into(),
                qos: QoS::AtLeastOnce,
                retain: false,
                payload: Bytes::from_static(b"m"),
            },
        };
        wal.record(&queued);
        wal.commit();
        let mut model = DurableState::default();
        model.apply(&queued);
        let dump = vec![
            WalRecord::SessionStarted {
                client: "c".into(),
                next_pid: 0,
            },
            queued.clone(),
        ];
        backend.crash_next_snapshot(SnapshotCrash::BetweenInstallAndTruncate);
        wal.install_snapshot(&dump);
        assert_eq!(wal.stats().snapshot_errors, 1);
        // Log still holds the Queued batch AND the snapshot holds it; the
        // LSN watermark must prevent a double push.
        assert!(backend.log_len() > 0);
        let report = recover(&mut backend.clone()).unwrap();
        assert_eq!(report.stale_batches_skipped, 1);
        assert_eq!(report.state.sessions["c"].queue.len(), 1);
    }

    #[test]
    fn crash_before_install_keeps_old_state() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        backend.crash_next_snapshot(SnapshotCrash::BeforeInstall);
        wal.install_snapshot(&[rec_retain("t/1", b"one")]);
        assert!(backend.raw_snapshot().is_none());
        let report = recover(&mut backend.clone()).unwrap();
        assert_eq!(report.state.retained.len(), 1);
    }

    #[test]
    fn torn_snapshot_falls_back_to_log() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        backend.crash_next_snapshot(SnapshotCrash::TornWrite(5));
        wal.install_snapshot(&[rec_retain("t/1", b"one")]);
        let report = recover(&mut backend.clone()).unwrap();
        assert!(report.snapshot_corrupt);
        assert_eq!(report.state.retained.len(), 1);
        assert_eq!(report.log_records, 1);
    }

    #[test]
    fn file_backend_round_trip() {
        let dir = std::env::temp_dir().join(format!("ifot-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let backend = FileBackend::open(&dir, "unit").unwrap();
            let mut wal = Wal::new(
                Box::new(backend),
                WalConfig {
                    snapshot_every: 2,
                    ..WalConfig::default()
                },
            );
            wal.record(&rec_retain("t/1", b"one"));
            wal.record(&rec_retain("t/2", b"two"));
            wal.commit();
            assert!(wal.snapshot_due());
            wal.install_snapshot(&[rec_retain("t/1", b"one"), rec_retain("t/2", b"two")]);
            wal.record(&rec_retain("t/3", b"three"));
            wal.commit();
        }
        {
            let mut backend = FileBackend::open(&dir, "unit").unwrap();
            let report = recover(&mut backend).unwrap();
            assert!(!report.log_truncated && !report.snapshot_corrupt);
            assert_eq!(report.state.retained.len(), 3);
            assert_eq!(report.snapshot_records, 2);
            assert_eq!(report.log_records, 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lsn_resumes_above_recovered_state() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        let (mut wal2, report) =
            Wal::open(Box::new(backend.clone()), WalConfig::default()).unwrap();
        assert_eq!(report.last_lsn, 1);
        assert_eq!(wal2.next_lsn(), 2);
        wal2.record(&rec_retain("t/2", b"two"));
        wal2.commit();
        let report = recover(&mut backend.clone()).unwrap();
        assert_eq!(report.log_batches, 2);
        assert_eq!(report.state.retained.len(), 2);
    }

    #[test]
    fn open_physically_truncates_torn_tail() {
        // The double-crash scenario from the review: a torn tail must be
        // chopped off the log at open, or every batch committed after the
        // restart sits behind the corrupt bytes and a second crash loses
        // them all.
        let backend = MemBackend::new();
        let mut wal = Wal::new(Box::new(backend.clone()), WalConfig::default());
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        let clean = backend.log_len();
        backend.tear_log_at(clean + 3);
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        drop(wal); // first crash, with 3 torn bytes on the tail
        backend.clear_tear();

        let (mut wal, report) = Wal::open(Box::new(backend.clone()), WalConfig::default()).unwrap();
        assert!(report.log_truncated);
        assert_eq!(report.clean_log_bytes, clean);
        assert_eq!(backend.log_len(), clean, "torn tail must be chopped");
        wal.record(&rec_retain("t/3", b"three"));
        wal.commit();
        drop(wal); // second crash

        let report = recover(&mut backend.clone()).unwrap();
        assert!(!report.log_truncated, "repaired log replays cleanly");
        assert_eq!(
            report.state.retained.keys().collect::<Vec<_>>(),
            vec!["t/1", "t/3"],
            "post-restart commits must survive the second crash"
        );
    }

    #[test]
    fn open_rebuilds_corrupt_snapshot() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        // A torn snapshot replace: the crash leaves half a snapshot and
        // the full (untruncated) log behind.
        backend.crash_next_snapshot(SnapshotCrash::TornWrite(5));
        wal.install_snapshot(&[rec_retain("t/1", b"one")]);
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        drop(wal); // crash

        let (wal, report) = Wal::open(Box::new(backend.clone()), WalConfig::default()).unwrap();
        assert!(report.snapshot_corrupt);
        assert_eq!(report.state.retained.len(), 2, "log replay salvaged all");
        assert_eq!(wal.stats().snapshots_installed, 1, "snapshot rebuilt");
        assert_eq!(backend.log_len(), 0, "rebuild truncated the log");

        let report = recover(&mut backend.clone()).unwrap();
        assert!(!report.snapshot_corrupt && !report.log_truncated);
        assert_eq!(report.state.retained.len(), 2);
    }

    #[test]
    fn append_error_forces_resync_snapshot() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        assert!(!wal.snapshot_due());
        backend.tear_log_at(backend.log_len() + 2);
        wal.record(&rec_retain("t/2", b"two"));
        wal.commit();
        assert_eq!(wal.stats().append_errors, 1);
        assert!(
            wal.snapshot_due(),
            "a lost batch must force a resync snapshot even with snapshot_every = 0"
        );
        // The embedder reacts by installing a snapshot of its state; that
        // clears the flag and replaces the torn log.
        wal.install_snapshot(&[rec_retain("t/1", b"one"), rec_retain("t/2", b"two")]);
        assert!(!wal.snapshot_due());
        let report = recover(&mut backend.clone()).unwrap();
        assert!(!report.log_truncated);
        assert_eq!(report.state.retained.len(), 2, "nothing lost after resync");
    }

    #[test]
    fn failed_snapshot_install_stays_due() {
        let backend = MemBackend::new();
        let mut wal = Wal::new(
            Box::new(backend.clone()),
            WalConfig {
                snapshot_every: 0,
                ..WalConfig::default()
            },
        );
        wal.record(&rec_retain("t/1", b"one"));
        wal.commit();
        backend.crash_next_snapshot(SnapshotCrash::BeforeInstall);
        wal.install_snapshot(&[rec_retain("t/1", b"one")]);
        assert_eq!(wal.stats().snapshot_errors, 1);
        assert!(wal.snapshot_due(), "failed install must be retried");
        wal.install_snapshot(&[rec_retain("t/1", b"one")]);
        assert!(!wal.snapshot_due());
    }

    #[test]
    fn file_backend_truncates_torn_tail_on_open() {
        let dir = std::env::temp_dir().join(format!("ifot-wal-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let clean = {
            let backend = FileBackend::open(&dir, "unit").unwrap();
            let mut wal = Wal::new(
                Box::new(backend),
                WalConfig {
                    snapshot_every: 0,
                    ..WalConfig::default()
                },
            );
            wal.record(&rec_retain("t/1", b"one"));
            wal.commit();
            wal.stats().bytes_appended
        };
        // A machine that died mid-append: garbage on the physical tail.
        {
            let mut f = fs::OpenOptions::new()
                .append(true)
                .open(dir.join("unit.wal"))
                .unwrap();
            f.write_all(&[0x7f, 0x00, 0x01]).unwrap();
        }
        {
            let backend = FileBackend::open(&dir, "unit").unwrap();
            let (mut wal, report) = Wal::open(Box::new(backend), WalConfig::default()).unwrap();
            assert!(report.log_truncated);
            assert_eq!(report.clean_log_bytes, clean);
            assert_eq!(
                fs::metadata(dir.join("unit.wal")).unwrap().len(),
                clean,
                "open must chop the torn bytes off the file"
            );
            wal.record(&rec_retain("t/2", b"two"));
            wal.commit();
        }
        {
            let mut backend = FileBackend::open(&dir, "unit").unwrap();
            let report = recover(&mut backend).unwrap();
            assert!(!report.log_truncated);
            assert_eq!(report.state.retained.len(), 2);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_backend_fsync_knob_round_trip() {
        let dir = std::env::temp_dir().join(format!("ifot-wal-fsync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let backend = FileBackend::open(&dir, "unit").unwrap();
            let mut wal = Wal::new(
                Box::new(backend),
                WalConfig {
                    fsync: true,
                    ..WalConfig::default()
                },
            );
            wal.record(&rec_retain("t/1", b"one"));
            wal.commit();
            assert_eq!(wal.stats().sync_errors, 0);
            assert_eq!(wal.stats().batches_committed, 1);
        }
        {
            let mut backend = FileBackend::open(&dir, "unit").unwrap();
            let report = recover(&mut backend).unwrap();
            assert_eq!(report.state.retained.len(), 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn to_records_round_trips_state() {
        let mut state = DurableState::default();
        for rec in [
            rec_retain("t/1", b"one"),
            WalRecord::SessionStarted {
                client: "c".into(),
                next_pid: 7,
            },
            WalRecord::Subscribed {
                client: "c".into(),
                filter: "a/+".into(),
                qos: QoS::AtLeastOnce,
            },
            WalRecord::Queued {
                client: "c".into(),
                message: DurablePublish {
                    topic: "q".into(),
                    qos: QoS::AtLeastOnce,
                    retain: false,
                    payload: Bytes::from_static(b"m"),
                },
            },
            WalRecord::InQos2Insert {
                client: "c".into(),
                pid: 3,
            },
        ] {
            state.apply(&rec);
        }
        let mut rebuilt = DurableState::default();
        for rec in state.to_records() {
            rebuilt.apply(&rec);
        }
        assert_eq!(rebuilt, state);
    }

    #[test]
    fn parse_stream_never_panics_on_garbage() {
        for seed in 0u64..64 {
            let mut bytes = Vec::new();
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            for _ in 0..(seed % 40 + 1) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                bytes.push(x as u8);
            }
            let (_batches, _torn, _clean) = parse_stream(&bytes);
        }
    }
}
