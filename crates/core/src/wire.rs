//! The binary wire codec: the one encoding of everything the middleware
//! publishes besides raw sensor samples.
//!
//! The paper's prototype shipped one JSON document per sample per hop; at
//! 80 Hz that pays serialization, broker routing and fan-out costs 80×
//! per second per stream. This module amortizes those costs two ways:
//!
//! * a **binary encoding** of [`FlowMessage`], [`FlowBatch`] and
//!   [`MixEnvelope`] (varint/delta packed, shared key dictionary), and
//! * a **batch frame** ([`FlowBatch`]) carrying N messages under one
//!   shared header, so one publish replaces N.
//!
//! A payload is told apart by its first byte and length: a frame starts
//! [`FRAME_MAGIC`] (`0xFB`), a raw sensor sample is exactly 32 bytes
//! starting `b"IF"`, and anything else is an error — there is no second
//! encoding to fall back to.
//!
//! Frame layout (all integers varint/LEB128 unless noted):
//!
//! ```text
//! 0xFB  version(1)  kind   body
//!                   0x01   FlowMessage: producer, origin, seq,
//!                          datum{n, (key, f64)...}, label?, score?
//!                   0x02   FlowBatch: shared-producer, count, key-dict,
//!                          base origin/seq, then per item: producer-flag,
//!                          zigzag Δorigin, zigzag Δseq,
//!                          datum{n, (dict-idx, f64)...}, label?, score?
//!                   0x03   MixEnvelope: role, task,
//!                          diff{labels, (label, {n, (idx, f64)...})...}
//!                   0x04   retired in PR 24, not to be reassigned
//!                   0x05   retired in PR 24, not to be reassigned
//!                   0x06   NodeAnnouncement: node, online(1), at, revision,
//!                          streams{n, (topic, kind?, rate?)...},
//!                          capabilities{n, string...}
//! ```
//!
//! Strings are length-prefixed UTF-8; `f64` travels as its IEEE-754 bits
//! little-endian; options are a `0x00`/`0x01` tag. Decoders reject
//! trailing garbage: a frame must consume exactly its payload.

use std::sync::Arc;

use ifot_ml::feature::{Datum, FeatureKey, SparseWeights};
use ifot_ml::mix::ModelDiff;

use crate::flow::{FlowBatch, FlowItem, FlowMessage, Name};
use crate::operators::MixEnvelope;

/// First byte of every binary flow frame.
pub const FRAME_MAGIC: u8 = 0xFB;
/// Current binary format version.
pub const FRAME_VERSION: u8 = 1;
/// Frame kind: a single [`FlowMessage`].
pub const KIND_MESSAGE: u8 = 0x01;
/// Frame kind: a [`FlowBatch`].
pub const KIND_BATCH: u8 = 0x02;
/// Frame kind: a [`MixEnvelope`].
pub const KIND_MIX: u8 = 0x03;
/// Frame kind: a [`crate::discovery::NodeAnnouncement`].
pub const KIND_ANNOUNCE: u8 = 0x06;

/// The encoding a node writes on the flow plane. There is one; the type
/// and [`crate::config::NodeConfig::with_wire_format`] remain so callers
/// written when there were two still compile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Binary frames (magic [`FRAME_MAGIC`]).
    #[default]
    Binary,
}

#[cfg(test)]
thread_local! {
    /// Test instrument: `(encode_message_binary, decode_items_on)` calls made
    /// on the current thread, so a test can pin that a local hop
    /// bypasses the codec.
    pub(crate) static CODEC_CALLS: std::cell::Cell<(u64, u64)> =
        const { std::cell::Cell::new((0, 0)) };
}

/// A decoded flow payload, kept allocation-lean: the dominant
/// single-sample/single-message path never builds a one-element `Vec`,
/// which the dispatch hot loop would immediately tear apart again.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedItems {
    /// A raw sample or single message.
    One(FlowItem),
    /// A batch frame (publish order preserved).
    Many(Vec<FlowItem>),
}

impl DecodedItems {
    /// Number of decoded items.
    pub fn len(&self) -> usize {
        match self {
            DecodedItems::One(_) => 1,
            DecodedItems::Many(items) => items.len(),
        }
    }

    /// Whether nothing was decoded (empty batch frames only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collapses into a `Vec` (allocates only for the `One` case).
    pub fn into_vec(self) -> Vec<FlowItem> {
        match self {
            DecodedItems::One(item) => vec![item],
            DecodedItems::Many(items) => items,
        }
    }

    /// Iterates the decoded items in order.
    pub fn iter(&self) -> impl Iterator<Item = &FlowItem> + Clone {
        match self {
            DecodedItems::One(item) => std::slice::from_ref(item).iter(),
            DecodedItems::Many(items) => items.iter(),
        }
    }
}

/// Decodes any flow-plane payload arriving on `topic` into normalized
/// items: a raw 32-byte sensor sample, a [`FlowMessage`] frame (one
/// item), or a [`FlowBatch`] frame (N items, publish order preserved).
/// The single-item families return [`DecodedItems::One`] without a heap
/// `Vec`. Every item shares `topic`; a frame's items go straight from the
/// bytes to [`FlowItem`]s, a batch's sharing the keys of its dictionary.
///
/// # Errors
///
/// Returns a description when no decoding applies.
pub fn decode_items_on(topic: &Name, payload: &[u8]) -> Result<DecodedItems, String> {
    #[cfg(test)]
    CODEC_CALLS.with(|c| c.set((c.get().0, c.get().1 + 1)));
    if payload.first() != Some(&FRAME_MAGIC) {
        let sample = ifot_sensors::sample::Sample::decode(payload)
            .map_err(|e| format!("neither a flow frame nor a sensor sample: {e}"))?;
        return Ok(DecodedItems::One(FlowItem::from_sample(
            topic.clone(),
            &sample,
        )));
    }
    match frame_kind(payload)? {
        KIND_MESSAGE => {
            read_message(payload).map(|(_, body)| DecodedItems::One(body.on(topic.clone())))
        }
        KIND_BATCH => {
            read_batch(payload, |_, _, body| body.on(topic.clone())).map(DecodedItems::Many)
        }
        other => Err(format!(
            "flow frame kind {other:#04x} is not a flow payload"
        )),
    }
}

/// [`decode_items_on`] for a caller holding the topic as text: the shared
/// topic is built here, once per call.
///
/// # Errors
///
/// Returns a description when no decoding applies.
pub fn decode_items_lean(topic: &str, payload: &[u8]) -> Result<DecodedItems, String> {
    decode_items_on(&Name::from(topic), payload)
}

/// [`decode_items_lean`] collapsed to a `Vec` for callers that want a
/// uniform shape.
///
/// # Errors
///
/// Returns a description when no decoding applies.
pub fn decode_items(topic: &str, payload: &[u8]) -> Result<Vec<FlowItem>, String> {
    decode_items_lean(topic, payload).map(DecodedItems::into_vec)
}

/// Peeks the earliest `origin_ts_ns` out of a message or batch frame
/// without a full decode — used by broker/client latency probes.
/// Returns `None` for payloads that are not frames, or not flow kinds.
pub fn peek_first_origin(payload: &[u8]) -> Option<u64> {
    let mut r = Reader::new(payload);
    if r.u8().ok()? != FRAME_MAGIC || r.u8().ok()? != FRAME_VERSION {
        return None;
    }
    match r.u8().ok()? {
        KIND_MESSAGE => {
            let _producer = r.str().ok()?;
            r.varint().ok()
        }
        KIND_BATCH => {
            let _shared = r.str().ok()?;
            let _count = r.varint().ok()?;
            let keys = r.varint().ok()?;
            for _ in 0..keys {
                let _ = r.str().ok()?;
            }
            r.varint().ok()
        }
        _ => None,
    }
}

/// Number of flow items a payload will decode into, without decoding
/// them (1 for samples/messages, N for batch frames). `None` when the
/// payload is not a recognizable flow frame header.
pub fn peek_item_count(payload: &[u8]) -> Option<usize> {
    if payload.first() != Some(&FRAME_MAGIC) {
        return Some(1);
    }
    let mut r = Reader::new(payload);
    let _ = r.u8().ok()?;
    if r.u8().ok()? != FRAME_VERSION {
        return None;
    }
    match r.u8().ok()? {
        KIND_MESSAGE => Some(1),
        KIND_BATCH => {
            let _shared = r.str().ok()?;
            r.varint().ok().map(|n| n as usize)
        }
        _ => None,
    }
}

fn frame_kind(payload: &[u8]) -> Result<u8, String> {
    let mut r = Reader::new(payload);
    let magic = r.u8()?;
    if magic != FRAME_MAGIC {
        return Err(format!("bad frame magic {magic:#04x}"));
    }
    let version = r.u8()?;
    if version != FRAME_VERSION {
        return Err(format!("unknown flow frame version {version}"));
    }
    r.u8()
}

// ---------------------------------------------------------------------
// Binary encoders
// ---------------------------------------------------------------------

fn header(kind: u8) -> Vec<u8> {
    vec![FRAME_MAGIC, FRAME_VERSION, kind]
}

/// Encodes one message as a binary frame.
pub fn encode_message_binary(msg: &FlowMessage) -> Vec<u8> {
    #[cfg(test)]
    CODEC_CALLS.with(|c| c.set((c.get().0 + 1, c.get().1)));
    let mut w = header(KIND_MESSAGE);
    put_string(&mut w, &msg.producer);
    put_varint(&mut w, msg.origin_ts_ns);
    put_varint(&mut w, msg.seq);
    put_varint(&mut w, msg.datum.len() as u64);
    for (key, value) in msg.datum.iter() {
        put_string(&mut w, key);
        put_f64(&mut w, value);
    }
    put_opt_string(&mut w, msg.label.as_deref());
    put_opt_f64(&mut w, msg.score);
    w
}

/// Encodes a non-empty batch as one binary frame: shared producer, a
/// datum-key dictionary, and per-item zigzag deltas of origin/seq
/// against the previous item.
pub fn encode_batch_binary(batch: &FlowBatch) -> Vec<u8> {
    let mut w = header(KIND_BATCH);
    let shared = batch
        .items
        .first()
        .map(|m| m.producer.as_str())
        .unwrap_or("");
    put_string(&mut w, shared);
    put_varint(&mut w, batch.items.len() as u64);
    // Key dictionary: union of datum keys, first-appearance order.
    let mut dict: Vec<&str> = Vec::new();
    for item in &batch.items {
        for (key, _) in item.datum.iter() {
            if !dict.contains(&key) {
                dict.push(key);
            }
        }
    }
    put_varint(&mut w, dict.len() as u64);
    for key in &dict {
        put_string(&mut w, key);
    }
    let base_origin = batch.items.first().map(|m| m.origin_ts_ns).unwrap_or(0);
    let base_seq = batch.items.first().map(|m| m.seq).unwrap_or(0);
    put_varint(&mut w, base_origin);
    put_varint(&mut w, base_seq);
    let (mut prev_origin, mut prev_seq) = (base_origin, base_seq);
    for item in &batch.items {
        if item.producer == shared {
            w.push(0);
        } else {
            w.push(1);
            put_string(&mut w, &item.producer);
        }
        put_zigzag(&mut w, item.origin_ts_ns.wrapping_sub(prev_origin) as i64);
        put_zigzag(&mut w, item.seq.wrapping_sub(prev_seq) as i64);
        prev_origin = item.origin_ts_ns;
        prev_seq = item.seq;
        put_varint(&mut w, item.datum.len() as u64);
        for (key, value) in item.datum.iter() {
            let idx = dict.iter().position(|k| *k == key).expect("key in dict");
            put_varint(&mut w, idx as u64);
            put_f64(&mut w, value);
        }
        put_opt_string(&mut w, item.label.as_deref());
        put_opt_f64(&mut w, item.score);
    }
    w
}

/// Encodes a model-plane envelope as a binary frame.
pub fn encode_mix_binary(envelope: &MixEnvelope) -> Vec<u8> {
    let mut w = header(KIND_MIX);
    put_string(&mut w, &envelope.role);
    put_string(&mut w, &envelope.task);
    put_varint(&mut w, envelope.diff.label_count() as u64);
    for (label, weights) in envelope.diff.iter() {
        put_string(&mut w, label);
        put_varint(&mut w, weights.nnz() as u64);
        for (index, value) in weights.iter() {
            put_varint(&mut w, index as u64);
            put_f64(&mut w, value);
        }
    }
    w
}

// ---------------------------------------------------------------------
// Binary decoders (strict: a frame must consume its payload exactly)
// ---------------------------------------------------------------------

/// What a frame says about one message, apart from who produced it.
struct Body {
    origin_ts_ns: u64,
    seq: u64,
    datum: Datum,
    label: Option<String>,
    score: Option<f64>,
}

impl Body {
    fn by(self, producer: Name) -> FlowMessage {
        FlowMessage {
            producer,
            origin_ts_ns: self.origin_ts_ns,
            seq: self.seq,
            datum: self.datum,
            label: self.label,
            score: self.score,
        }
    }

    fn on(self, topic: Name) -> FlowItem {
        FlowItem {
            topic,
            origin_ts_ns: self.origin_ts_ns,
            seq: self.seq,
            datum: self.datum,
            label: self.label,
            score: self.score,
        }
    }
}

/// Reads a message frame: its producer, borrowed from the frame, and the
/// rest.
fn read_message(payload: &[u8]) -> Result<(&str, Body), String> {
    let kind = frame_kind(payload)?;
    if kind != KIND_MESSAGE {
        return Err(format!("frame kind {kind:#04x} is not a flow message"));
    }
    let mut r = Reader::new(&payload[3..]);
    let producer = r.str()?;
    let body = Body {
        origin_ts_ns: r.varint()?,
        seq: r.varint()?,
        datum: r.datum()?,
        label: r.opt_string()?,
        score: r.opt_f64()?,
    };
    r.finish()?;
    Ok((producer, body))
}

/// Reads a batch frame, handing `make` each item in publish order with
/// the frame's shared producer and the item's own one where it overrides
/// it (both borrowed from the frame). The dictionary's keys are built
/// once and shared by every datum naming them.
fn read_batch<T>(
    payload: &[u8],
    mut make: impl FnMut(&str, Option<&str>, Body) -> T,
) -> Result<Vec<T>, String> {
    let kind = frame_kind(payload)?;
    if kind != KIND_BATCH {
        return Err(format!("frame kind {kind:#04x} is not a flow batch"));
    }
    let mut r = Reader::new(&payload[3..]);
    let shared = r.str()?;
    let count = r.varint()? as usize;
    if count == 0 {
        return Err("flow batch frame holds zero items".to_owned());
    }
    let dict_len = r.varint()? as usize;
    if dict_len > payload.len() {
        return Err("batch key dictionary longer than the frame".to_owned());
    }
    let mut dict: Vec<FeatureKey> = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict.push(Arc::<str>::from(r.str()?).into());
    }
    let base_origin = r.varint()?;
    let base_seq = r.varint()?;
    let (mut prev_origin, mut prev_seq) = (base_origin, base_seq);
    let mut items = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let own = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            other => return Err(format!("bad producer flag {other:#04x}")),
        };
        let origin_ts_ns = prev_origin.wrapping_add(r.zigzag()? as u64);
        let seq = prev_seq.wrapping_add(r.zigzag()? as u64);
        prev_origin = origin_ts_ns;
        prev_seq = seq;
        let feature_count = r.varint()? as usize;
        let mut datum = Datum::new();
        for _ in 0..feature_count {
            let idx = r.varint()? as usize;
            let key = dict
                .get(idx)
                .ok_or_else(|| format!("feature key index {idx} outside the dictionary"))?;
            datum.set(key.clone(), r.f64()?);
        }
        let body = Body {
            origin_ts_ns,
            seq,
            datum,
            label: r.opt_string()?,
            score: r.opt_f64()?,
        };
        items.push(make(shared, own, body));
    }
    r.finish()?;
    Ok(items)
}

/// Decodes a strictly binary message frame.
///
/// # Errors
///
/// Returns a description for wrong kinds, truncation or trailing bytes.
pub fn decode_message_binary(payload: &[u8]) -> Result<FlowMessage, String> {
    read_message(payload).map(|(producer, body)| body.by(producer.into()))
}

/// Decodes a strictly binary batch frame; items without a producer of
/// their own share the frame's.
///
/// # Errors
///
/// Returns a description for wrong kinds, truncation or trailing bytes.
pub fn decode_batch_binary(payload: &[u8]) -> Result<FlowBatch, String> {
    let mut frames: Option<Name> = None;
    let items = read_batch(payload, |shared, own, body| {
        body.by(match own {
            Some(own) => own.into(),
            None => frames.get_or_insert_with(|| shared.into()).clone(),
        })
    })?;
    Ok(FlowBatch { items })
}

/// Decodes a strictly binary model-plane frame.
///
/// # Errors
///
/// Returns a description for wrong kinds, truncation or trailing bytes.
pub fn decode_mix_binary(payload: &[u8]) -> Result<MixEnvelope, String> {
    let kind = frame_kind(payload)?;
    if kind != KIND_MIX {
        return Err(format!("frame kind {kind:#04x} is not a mix envelope"));
    }
    let mut r = Reader::new(&payload[3..]);
    let role = r.string()?;
    let task = r.string()?;
    let label_count = r.varint()? as usize;
    if label_count > payload.len() {
        return Err("mix label table longer than the frame".to_owned());
    }
    let mut parts = Vec::with_capacity(label_count);
    for _ in 0..label_count {
        let label = r.string()?;
        let nnz = r.varint()? as usize;
        let mut weights = SparseWeights::new();
        for _ in 0..nnz {
            let index = r.varint()?;
            if index > u32::MAX as u64 {
                return Err(format!("weight index {index} exceeds the hash space"));
            }
            weights.set(index as u32, r.f64()?);
        }
        parts.push((label, weights));
    }
    r.finish()?;
    Ok(MixEnvelope {
        role,
        task,
        diff: ModelDiff::from_parts(parts),
    })
}

// ---------------------------------------------------------------------
// Discovery-plane frames: node announcements.
// ---------------------------------------------------------------------

/// Encodes a node announcement as a binary frame.
pub fn encode_announce_binary(ann: &crate::discovery::NodeAnnouncement) -> Vec<u8> {
    let mut w = header(KIND_ANNOUNCE);
    put_string(&mut w, &ann.node);
    w.push(ann.online as u8);
    put_varint(&mut w, ann.at_ns);
    put_varint(&mut w, ann.revision);
    put_varint(&mut w, ann.streams.len() as u64);
    for stream in &ann.streams {
        put_string(&mut w, &stream.topic);
        put_opt_string(&mut w, stream.kind.as_deref());
        put_opt_f64(&mut w, stream.rate_hz);
    }
    put_varint(&mut w, ann.capabilities.len() as u64);
    for capability in &ann.capabilities {
        put_string(&mut w, capability);
    }
    w
}

/// Decodes a strictly binary node announcement.
///
/// # Errors
///
/// Returns a description for wrong kinds, truncation or trailing bytes.
pub fn decode_announce_binary(
    payload: &[u8],
) -> Result<crate::discovery::NodeAnnouncement, String> {
    let kind = frame_kind(payload)?;
    if kind != KIND_ANNOUNCE {
        return Err(format!("frame kind {kind:#04x} is not an announcement"));
    }
    let mut r = Reader::new(&payload[3..]);
    let node = r.string()?;
    let online = r.flag()?;
    let at_ns = r.varint()?;
    let revision = r.varint()?;
    let stream_count = r.varint()? as usize;
    if stream_count > r.remaining() {
        return Err("stream table longer than the frame".to_owned());
    }
    let mut streams = Vec::with_capacity(stream_count);
    for _ in 0..stream_count {
        streams.push(crate::discovery::StreamInfo {
            topic: r.string()?,
            kind: r.opt_string()?,
            rate_hz: r.opt_f64()?,
        });
    }
    let capability_count = r.varint()? as usize;
    if capability_count > r.remaining() {
        return Err("capability list longer than the frame".to_owned());
    }
    let mut capabilities = Vec::with_capacity(capability_count);
    for _ in 0..capability_count {
        capabilities.push(r.string()?);
    }
    r.finish()?;
    Ok(crate::discovery::NodeAnnouncement {
        node,
        online,
        streams,
        capabilities,
        at_ns,
        revision,
    })
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

fn put_varint(w: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            w.push(byte);
            return;
        }
        w.push(byte | 0x80);
    }
}

fn put_zigzag(w: &mut Vec<u8>, v: i64) {
    put_varint(w, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    w.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_string(w: &mut Vec<u8>, s: &str) {
    put_varint(w, s.len() as u64);
    w.extend_from_slice(s.as_bytes());
}

fn put_opt_string(w: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => w.push(0),
        Some(s) => {
            w.push(1);
            put_string(w, s);
        }
    }
}

fn put_opt_f64(w: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => w.push(0),
        Some(v) => {
            w.push(1);
            put_f64(w, v);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| "frame truncated".to_owned())?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err("varint longer than 64 bits".to_owned())
    }

    fn zigzag(&mut self) -> Result<i64, String> {
        let v = self.varint()?;
        Ok(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn f64(&mut self) -> Result<f64, String> {
        if self.pos + 8 > self.bytes.len() {
            return Err("frame truncated inside an f64".to_owned());
        }
        let mut buf = [0u8; 8];
        buf.copy_from_slice(&self.bytes[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(buf)))
    }

    fn str(&mut self) -> Result<&'a str, String> {
        let len = self.varint()? as usize;
        if self.pos + len > self.bytes.len() {
            return Err("frame truncated inside a string".to_owned());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
            .map_err(|e| format!("string is not UTF-8: {e}"))?;
        self.pos += len;
        Ok(s)
    }

    fn string(&mut self) -> Result<String, String> {
        self.str().map(str::to_owned)
    }

    fn flag(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad flag {other:#04x}")),
        }
    }

    fn opt_string(&mut self) -> Result<Option<String>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.string()?)),
            other => Err(format!("bad option tag {other:#04x}")),
        }
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            other => Err(format!("bad option tag {other:#04x}")),
        }
    }

    fn datum(&mut self) -> Result<Datum, String> {
        let n = self.varint()? as usize;
        if n > self.bytes.len() {
            return Err("datum longer than the frame".to_owned());
        }
        let mut datum = Datum::new();
        for _ in 0..n {
            let key = Arc::<str>::from(self.str()?);
            let value = self.f64()?;
            datum.set(key, value);
        }
        Ok(datum)
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn finish(&self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after the frame",
                self.bytes.len() - self.pos
            ))
        }
    }
}

/// One frame each of kinds `0x04` (a node's load heartbeat) and `0x05`
/// (a placement command), retired in PR 24: well-formed as the last
/// build that wrote them encoded them — a durable broker may still hold
/// one retained — so tests can show that nothing takes them for anything.
#[cfg(test)]
pub(crate) fn retired_frames() -> Vec<Vec<u8>> {
    [
        "fb010401612a010770726564696374010401030a0180dac409",
        "fb01050207707265646963740162",
    ]
    .iter()
    .map(|hex| {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
            .collect()
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(seq: u64) -> FlowMessage {
        FlowMessage {
            producer: "agg".into(),
            origin_ts_ns: 1_000_000 + seq * 50_000,
            seq,
            datum: Datum::new().with("sound_db", 42.5 + seq as f64),
            label: if seq.is_multiple_of(2) {
                Some("high".into())
            } else {
                None
            },
            score: Some(0.25 * seq as f64),
        }
    }

    #[test]
    fn binary_message_round_trip() {
        let m = msg(7);
        let bytes = encode_message_binary(&m);
        assert_eq!(bytes[0], FRAME_MAGIC);
        assert_eq!(decode_message_binary(&bytes).expect("round trip"), m);
    }

    #[test]
    fn batch_round_trip_preserves_order_and_timestamps() {
        let batch = FlowBatch {
            items: (0..10).map(msg).collect(),
        };
        let bytes = encode_batch_binary(&batch);
        let back = decode_batch_binary(&bytes).expect("round trip");
        assert_eq!(back, batch);
    }

    /// What batching buys on the wire, in bytes: the shared producer and
    /// key dictionary plus delta-coded origin/seq carry 16 items in 460
    /// bytes where 16 message frames take 664 (28.75 vs 41.5 per item).
    #[test]
    fn batch_frame_undercuts_message_frames_per_item() {
        let items: Vec<FlowMessage> = (0..16).map(msg).collect();
        let as_messages: usize = items.iter().map(|m| encode_message_binary(m).len()).sum();
        let as_batch = encode_batch_binary(&FlowBatch { items }).len();
        assert_eq!((as_batch, as_messages), (460, 664));
    }

    #[test]
    fn batch_with_mixed_producers_and_non_monotone_timestamps() {
        let mut items: Vec<FlowMessage> = (0..4).map(msg).collect();
        items[2].producer = "other".into();
        items[3].origin_ts_ns = 10; // goes backwards: zigzag handles it
        let batch = FlowBatch { items };
        let back = decode_batch_binary(&encode_batch_binary(&batch)).expect("round trip");
        assert_eq!(back, batch);
    }

    #[test]
    fn decode_items_handles_every_payload_family() {
        use ifot_sensors::sample::{Sample, SensorKind};
        // Raw 32-byte sample.
        let sample = Sample::new(SensorKind::Sound, 1, 5, 999, &[44.0]);
        let items = decode_items("sensor/1/sound", &sample.encode()).expect("sample");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].seq, 5);
        // Message frame.
        let m = msg(1);
        let items = decode_items("flow/r/t", &encode_message_binary(&m)).expect("message frame");
        assert_eq!(items, vec![FlowItem::from_message("flow/r/t", m)]);
        // Binary batch.
        let batch = FlowBatch {
            items: (0..5).map(msg).collect(),
        };
        let items = decode_items("flow/r/t", &encode_batch_binary(&batch)).expect("binary batch");
        assert_eq!(items.len(), 5);
        assert_eq!(items[4].seq, 4);
        // Anything else is rejected: garbage, a 32-byte non-sample, the
        // JSON document an older node would have sent, a discovery frame.
        assert!(decode_items("t", &[0u8; 10]).is_err());
        assert!(decode_items("t", &[0xFFu8; 32]).is_err());
        assert!(decode_items("t", br#"{"producer":"agg","seq":1}"#).is_err());
        assert!(decode_items("t", &header(KIND_ANNOUNCE)).is_err());
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let m = msg(2);
        let bytes = encode_message_binary(&m);
        for cut in 1..bytes.len() {
            assert!(
                decode_message_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(decode_message_binary(&trailing).is_err(), "trailing bytes");
        let mut wrong_version = bytes.clone();
        wrong_version[1] = 9;
        assert!(decode_message_binary(&wrong_version).is_err());
        let batch = FlowBatch {
            items: vec![msg(0), msg(1)],
        };
        let bytes = encode_batch_binary(&batch);
        for cut in 1..bytes.len() {
            assert!(decode_batch_binary(&bytes[..cut]).is_err());
        }
        for frame in retired_frames() {
            assert!(matches!(frame[2], 0x04 | 0x05));
            assert!(decode_items("t", &frame).is_err());
            assert!(decode_items_lean("t", &frame).is_err());
            assert!(decode_mix_binary(&frame).is_err());
            assert!(decode_announce_binary(&frame).is_err());
        }
    }

    #[test]
    fn mix_envelope_binary_round_trip() {
        let mut w = SparseWeights::new();
        w.set(7, 1.5);
        w.set(131_072, -0.25);
        let e = MixEnvelope {
            role: "avg".into(),
            task: "learn".into(),
            diff: ModelDiff::from_parts(vec![("hot".to_owned(), w)]),
        };
        let bytes = encode_mix_binary(&e);
        assert_eq!(decode_mix_binary(&bytes).expect("round trip"), e);
    }

    #[test]
    fn peek_first_origin_matches_decode() {
        let m = msg(4);
        assert_eq!(
            peek_first_origin(&encode_message_binary(&m)),
            Some(m.origin_ts_ns)
        );
        let batch = FlowBatch {
            items: (3..8).map(msg).collect(),
        };
        assert_eq!(
            peek_first_origin(&encode_batch_binary(&batch)),
            Some(batch.items[0].origin_ts_ns)
        );
        assert_eq!(peek_first_origin(b"{}"), None, "not a frame");
    }

    #[test]
    fn peek_item_count_matches_decode() {
        let m = msg(4);
        assert_eq!(peek_item_count(&encode_message_binary(&m)), Some(1));
        let batch = FlowBatch {
            items: (0..6).map(msg).collect(),
        };
        assert_eq!(peek_item_count(&encode_batch_binary(&batch)), Some(6));
    }

    #[test]
    fn empty_batch_is_rejected() {
        // A forged zero-count batch frame is rejected on decode.
        let mut forged = header(KIND_BATCH);
        put_string(&mut forged, "p");
        put_varint(&mut forged, 0);
        assert!(decode_batch_binary(&forged).is_err());
    }
}
