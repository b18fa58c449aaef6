//! MQTT 3.1.1 wire codec.
//!
//! Encodes [`Packet`]s to bytes and decodes bytes back, implementing the
//! fixed header (packet type, flags, remaining-length varint) and each
//! variable header/payload of the supported subset. Decoding never panics
//! on malformed input — every anomaly maps to a [`DecodeError`].
//!
//! What each direction allocates: [`encode`] and [`encode_publish`] size
//! the frame first and make the one buffer they return (a publishing
//! [`Client`](crate::client::Client) hands the encoder a buffer of its
//! own instead, one of its sent frames that no reader holds any more, and
//! then makes none); decoding reads a
//! packet where its bytes lie and gives storage only to what the packet
//! keeps — nothing for the fixed-size packets (PUBACK, PUBREC, PUBREL,
//! PUBCOMP, UNSUBACK, the pings, DISCONNECT). A PUBLISH keeps a topic name
//! and a payload:
//!
//! * the **name** is allocated and validated the first time a stream
//!   carries it; [`StreamDecoder`] remembers the last names it validated
//!   (16 slots, direct-mapped) and hands a repeated one out as the shared
//!   [`TopicName`] it already holds — no allocation, no re-validation;
//! * the **payload** off a stream is one copy; when the frame arrived as
//!   a shared [`Bytes`] it is a view of that and costs nothing.
//!
//! A PUBLISH whose frame already is its first delivery at its own QoS —
//! first byte `0x30`, `0x32` or `0x34` (no dup, no retain) and a minimal
//! remaining-length varint — also **keeps the frame** (see [`Publish`]):
//! on the shared path that is a reference count, off a stream the one
//! copy is made of the whole frame instead of the payload alone. The
//! payload is a view of the kept frame, and so are the bytes its
//! deliveries share: the whole frame at QoS 0, everything before the
//! packet id (first byte, remaining length, topic) at QoS 1 and 2. So a
//! PUBLISH at any QoS with a repeated name costs one `Bytes` off a stream
//! and nothing as a shared frame, and the broker finds its deliveries'
//! bytes already made. [`StreamDecoder`] keeps one buffer per stream —
//! 256 bytes for a socket that trickles, grown by the reads that fill it
//! ([`StreamDecoder::read_from`]), given back down to 64 KiB once a burst
//! is decoded.
//!
//! Going out, no packet a broker sends per publish needs a buffer of its
//! own. A QoS 1 or 2 delivery is the head its publish shares with every
//! delivery at that QoS, its two-byte packet id and the shared payload —
//! an [`OutFrame::Split`], written as three slices; a fixed-size packet
//! (CONNACK, the acknowledgements, the pings, DISCONNECT) is at most four
//! bytes, held in an [`OutFrame::Inline`]. What a transport queues is an
//! [`OutFrame`]; [`OutFrame::from`] encodes only a packet that is neither.

use std::io::{self, Read};

use bytes::{Bytes, BytesMut};

use crate::error::DecodeError;
use crate::packet::{
    Connack, Connect, ConnectReturnCode, LastWill, Packet, PacketId, Publish, QoS, Suback,
    SubackCode, Subscribe, SubscribeFilter, Unsubscribe,
};
use crate::topic::{fnv1a, TopicFilter, TopicName};

/// Maximum value of the remaining-length varint.
pub const MAX_REMAINING_LENGTH: usize = 268_435_455;

/// Where a packet's bytes go: the frame buffer, or the counter that
/// sizes it. Every layout below is written once, against this, so the
/// length pass and the write pass cannot disagree.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }

    fn put_string(&mut self, s: &str) {
        debug_assert!(s.len() <= u16::MAX as usize, "string too long for MQTT");
        self.put_u16(s.len() as u16);
        self.put(s.as_bytes());
    }

    fn put_binary(&mut self, b: &[u8]) {
        debug_assert!(
            b.len() <= u16::MAX as usize,
            "binary field too long for MQTT"
        );
        self.put_u16(b.len() as u16);
        self.put(b);
    }
}

struct Length(usize);

impl Sink for Length {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// A frame's buffer, sized by a [`Length`] pass, and how much of it is
/// written.
struct Frame<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Sink for Frame<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }
}

/// The `len` bytes `write` puts, written into `buf` — over whatever it
/// held, grown only if they do not fit — and frozen where they lie. A new
/// buffer becomes one allocation of exactly `len` bytes.
fn written(mut buf: BytesMut, len: usize, write: impl FnOnce(&mut Frame<'_>)) -> Bytes {
    buf.clear();
    buf.resize(len, 0);
    let mut out = Frame {
        buf: &mut buf,
        at: 0,
    };
    write(&mut out);
    debug_assert_eq!(out.at, len, "the length pass sized what was written");
    buf.freeze()
}

/// Encodes a packet to a frozen wire frame.
///
/// The remaining length is computed first, so header and body are written
/// once into one buffer of exactly the frame's size. The returned
/// [`Bytes`] is reference-counted: the broker encodes a fan-out frame
/// once and shares it across every matching connection without
/// re-serialising or copying per subscriber.
///
/// ```
/// use ifot_mqtt::codec::{decode, encode};
/// use ifot_mqtt::packet::Packet;
///
/// let bytes = encode(&Packet::Pingreq);
/// let (packet, used) = decode(&bytes)?.expect("complete packet");
/// assert_eq!(packet, Packet::Pingreq);
/// assert_eq!(used, bytes.len());
/// # Ok::<(), ifot_mqtt::error::DecodeError>(())
/// ```
///
/// # Panics
///
/// Panics if the encoded body would exceed [`MAX_REMAINING_LENGTH`]
/// (requires a payload of ~256 MiB, far beyond any IFoT flow message).
pub fn encode(packet: &Packet) -> Bytes {
    frame(BytesMut::new(), first_byte(packet), |out| {
        put_body(out, packet)
    })
}

/// Encodes the first transmission of a PUBLISH (dup clear) straight from
/// borrowed fields: the one buffer a publisher makes per message.
///
/// # Panics
///
/// Panics unless `packet_id` is present exactly when `qos` is above 0, and
/// on a body past [`MAX_REMAINING_LENGTH`] like [`encode`].
pub fn encode_publish(
    topic: &TopicName,
    payload: &[u8],
    qos: QoS,
    retain: bool,
    packet_id: Option<PacketId>,
) -> Bytes {
    encode_publish_into(BytesMut::new(), topic, payload, qos, retain, packet_id)
}

/// [`encode_publish`] written into `buf`, over whatever it held: no
/// allocation when the frame fits its capacity ([`publish_len`]).
pub(crate) fn encode_publish_into(
    buf: BytesMut,
    topic: &TopicName,
    payload: &[u8],
    qos: QoS,
    retain: bool,
    packet_id: Option<PacketId>,
) -> Bytes {
    assert_eq!(
        packet_id.is_some(),
        qos != QoS::AtMostOnce,
        "a publish carries a packet id iff qos > 0"
    );
    frame(
        buf,
        (3 << 4) | (qos.bits() << 1) | u8::from(retain),
        |out| put_publish(out, topic, packet_id, payload),
    )
}

/// Length of the frame [`encode_publish`] writes for these fields.
pub(crate) fn publish_len(topic: &TopicName, payload: &[u8], packet_id: Option<PacketId>) -> usize {
    let remaining = body_len(&|out: &mut dyn Sink| put_publish(out, topic, packet_id, payload));
    1 + remaining_length_len(remaining) + remaining
}

/// Encodes the QoS 0 delivery of `publish` — dup, retain and packet id
/// cleared, whatever QoS it arrived with — straight from the borrowed
/// packet: the frame the broker's fan-out shares among subscribers.
pub fn encode_qos0_delivery(publish: &Publish) -> Bytes {
    encode_publish(
        &publish.topic,
        &publish.payload,
        QoS::AtMostOnce,
        false,
        None,
    )
}

/// First byte of a publish's frame.
fn publish_first_byte(p: &Publish) -> u8 {
    (3 << 4) | (u8::from(p.dup) << 3) | (p.qos.bits() << 1) | u8::from(p.retain)
}

/// First byte of a delivery at `qos`: dup and retain clear.
fn delivery_first_byte(qos: QoS) -> u8 {
    (3 << 4) | (qos.bits() << 1)
}

/// The delivery bytes `publish` carries, if they are those of a frame
/// whose first byte is `first`.
fn carried(publish: &Publish, first: u8) -> Option<&Bytes> {
    publish
        .delivery
        .as_ref()
        .filter(|d| d.first() == Some(&first))
}

/// What every delivery of `publish` at `qos` shares — the whole frame at
/// QoS 0 ([`encode_qos0_delivery`]), the head above it: first byte,
/// remaining length and topic, sized for the packet id and payload that
/// follow. The bytes the publish carries if they are these, else one
/// allocation.
pub(crate) fn delivery_bytes(publish: &Publish, qos: QoS) -> Bytes {
    let first = delivery_first_byte(qos);
    if let Some(carried) = carried(publish, first) {
        return carried.clone();
    }
    if qos == QoS::AtMostOnce {
        return encode_qos0_delivery(publish);
    }
    let topic = publish.topic.as_str();
    let remaining = 2 + topic.len() + 2 + publish.payload.len();
    assert!(
        remaining <= MAX_REMAINING_LENGTH,
        "packet body of {remaining} bytes exceeds the MQTT remaining-length limit"
    );
    written(
        BytesMut::new(),
        1 + remaining_length_len(remaining) + 2 + topic.len(),
        |out| {
            out.put_u8(first);
            put_remaining_length(out, remaining);
            out.put_string(topic);
        },
    )
}

/// [`delivery_bytes`] at the publish's own QoS, which it carries from then
/// on: what its deliveries and cross-shard forwards share.
pub(crate) fn carry_delivery(publish: &mut Publish) -> &Bytes {
    if carried(publish, delivery_first_byte(publish.qos)).is_none() {
        publish.delivery = Some(delivery_bytes(publish, publish.qos));
    }
    publish.delivery.as_ref().expect("carried from here on")
}

/// A frame as a transport queues it.
///
/// A QoS 1/2 delivery is the one packet a broker sends many of that
/// differ only in a field: its [`Split`](OutFrame::Split) form holds the
/// head its publish shares with every delivery at that QoS, its own packet
/// id inline and the shared payload, so fanning a publish out costs one
/// head, not a frame per subscriber. A fixed-size packet is held
/// [`Inline`](OutFrame::Inline) whole. The bytes are those [`encode`]
/// would write.
#[derive(Debug, Clone)]
pub enum OutFrame {
    /// A frame in one buffer.
    Whole(Bytes),
    /// A delivery written as three slices: `head`, `packet_id`, `payload`.
    Split {
        /// First byte, remaining length and topic, shared.
        head: Bytes,
        /// This delivery's packet id, big-endian.
        packet_id: [u8; 2],
        /// The publish's payload, shared.
        payload: Bytes,
    },
    /// A fixed-size packet's frame, up to four bytes: CONNACK, PUBACK,
    /// PUBREC, PUBREL, PUBCOMP, UNSUBACK, PINGREQ, PINGRESP, DISCONNECT.
    Inline {
        /// The frame, in its first `len` bytes.
        bytes: [u8; 4],
        /// Length of the frame.
        len: u8,
    },
}

impl OutFrame {
    /// The frame's bytes, in order, as up to three slices (empty ones at
    /// the end of a frame in one piece).
    pub fn parts(&self) -> [&[u8]; 3] {
        match self {
            OutFrame::Whole(frame) => [frame, &[], &[]],
            OutFrame::Split {
                head,
                packet_id,
                payload,
            } => [head, packet_id, payload],
            OutFrame::Inline { bytes, len } => [&bytes[..usize::from(*len)], &[], &[]],
        }
    }

    /// Length of the frame.
    pub fn len(&self) -> usize {
        self.parts().iter().map(|part| part.len()).sum()
    }

    /// Whether the frame has no bytes (no MQTT frame is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The packet's frame. A publish that carries the delivery bytes for
/// exactly its first byte — a QoS 1/2 delivery's first transmission, or a
/// QoS 0 delivery — costs no allocation: split around its packet id, or
/// the whole frame. Neither does a fixed-size packet, written inline
/// through the sinks [`encode`] writes through. Anything else is
/// [`encode`]d.
impl From<Packet> for OutFrame {
    fn from(packet: Packet) -> OutFrame {
        let shared = match &packet {
            Packet::Publish(p) if p.qos == QoS::AtMostOnce || p.packet_id.is_some() => {
                carried(p, publish_first_byte(p)).is_some()
            }
            _ => false,
        };
        // Moved out, not cloned: the packet is spent.
        match packet {
            Packet::Publish(Publish {
                qos: QoS::AtMostOnce,
                delivery: Some(frame),
                ..
            }) if shared => OutFrame::Whole(frame),
            Packet::Publish(Publish {
                delivery: Some(head),
                packet_id: Some(pid),
                payload,
                ..
            }) if shared => OutFrame::Split {
                head,
                packet_id: pid.to_be_bytes(),
                payload,
            },
            Packet::Connack(_)
            | Packet::Puback(_)
            | Packet::Pubrec(_)
            | Packet::Pubrel(_)
            | Packet::Pubcomp(_)
            | Packet::Unsuback(_)
            | Packet::Pingreq
            | Packet::Pingresp
            | Packet::Disconnect => {
                let body = |out: &mut dyn Sink| put_body(out, &packet);
                let remaining = body_len(&body);
                let mut bytes = [0; 4];
                let mut out = Frame {
                    buf: &mut bytes,
                    at: 0,
                };
                put_frame(&mut out, first_byte(&packet), remaining, body);
                let len = out.at as u8;
                OutFrame::Inline { bytes, len }
            }
            packet => OutFrame::Whole(encode(&packet)),
        }
    }
}

/// Length of the frame [`encode`] produces for `packet`.
pub fn encoded_len(packet: &Packet) -> usize {
    let mut body = Length(0);
    put_body(&mut body, packet);
    1 + remaining_length_len(body.0) + body.0
}

/// One frame in `buf`: `first`, the remaining length, then whatever
/// `body` puts — called twice, to size the frame and to write it.
fn frame(buf: BytesMut, first: u8, body: impl Fn(&mut dyn Sink)) -> Bytes {
    let remaining = body_len(&body);
    written(
        buf,
        1 + remaining_length_len(remaining) + remaining,
        |out| put_frame(out, first, remaining, body),
    )
}

/// The length of what `body` puts, which a remaining length must hold.
fn body_len(body: &impl Fn(&mut dyn Sink)) -> usize {
    let mut length = Length(0);
    body(&mut length);
    let remaining = length.0;
    assert!(
        remaining <= MAX_REMAINING_LENGTH,
        "packet body of {remaining} bytes exceeds the MQTT remaining-length limit"
    );
    remaining
}

/// Puts `first`, the remaining length and the `remaining` bytes `body`
/// puts.
fn put_frame(out: &mut dyn Sink, first: u8, remaining: usize, body: impl Fn(&mut dyn Sink)) {
    out.put_u8(first);
    put_remaining_length(out, remaining);
    body(out);
}

/// Packet type nibble and flags.
fn first_byte(packet: &Packet) -> u8 {
    let flags = match packet {
        Packet::Publish(p) => return publish_first_byte(p),
        Packet::Pubrel(_) | Packet::Subscribe(_) | Packet::Unsubscribe(_) => 0b0010,
        _ => 0,
    };
    (packet.packet_type() << 4) | flags
}

fn put_body(out: &mut dyn Sink, packet: &Packet) {
    match packet {
        Packet::Connect(c) => put_connect(out, c),
        Packet::Connack(c) => {
            out.put_u8(u8::from(c.session_present));
            out.put_u8(c.code.to_byte());
        }
        Packet::Publish(p) => {
            let packet_id = (p.qos != QoS::AtMostOnce)
                .then(|| p.packet_id.expect("qos>0 publish carries a packet id"));
            put_publish(out, &p.topic, packet_id, &p.payload);
        }
        Packet::Puback(pid)
        | Packet::Pubrec(pid)
        | Packet::Pubrel(pid)
        | Packet::Pubcomp(pid)
        | Packet::Unsuback(pid) => out.put_u16(*pid),
        Packet::Subscribe(s) => {
            out.put_u16(s.packet_id);
            for f in &s.filters {
                out.put_string(f.filter.as_str());
                out.put_u8(f.qos.bits());
            }
        }
        Packet::Suback(s) => {
            out.put_u16(s.packet_id);
            for c in &s.codes {
                out.put_u8(c.to_byte());
            }
        }
        Packet::Unsubscribe(u) => {
            out.put_u16(u.packet_id);
            for f in &u.filters {
                out.put_string(f.as_str());
            }
        }
        Packet::Pingreq | Packet::Pingresp | Packet::Disconnect => {}
    }
}

fn put_publish(out: &mut dyn Sink, topic: &TopicName, packet_id: Option<u16>, payload: &[u8]) {
    out.put_string(topic.as_str());
    if let Some(pid) = packet_id {
        out.put_u16(pid);
    }
    out.put(payload);
}

fn put_connect(body: &mut dyn Sink, c: &Connect) {
    body.put_string("MQTT");
    body.put_u8(4); // protocol level 3.1.1
    let mut flags = 0u8;
    if c.clean_session {
        flags |= 0b0000_0010;
    }
    if let Some(w) = &c.will {
        flags |= 0b0000_0100;
        flags |= w.qos.bits() << 3;
        if w.retain {
            flags |= 0b0010_0000;
        }
    }
    if c.password.is_some() {
        flags |= 0b0100_0000;
    }
    if c.username.is_some() {
        flags |= 0b1000_0000;
    }
    body.put_u8(flags);
    body.put_u16(c.keep_alive_secs);
    body.put_string(&c.client_id);
    if let Some(w) = &c.will {
        body.put_string(w.topic.as_str());
        body.put_binary(&w.payload);
    }
    if let Some(u) = &c.username {
        body.put_string(u);
    }
    if let Some(p) = &c.password {
        body.put_binary(p);
    }
}

/// Bytes the remaining-length varint of `len` occupies.
fn remaining_length_len(len: usize) -> usize {
    match len {
        0..=127 => 1,
        128..=16_383 => 2,
        16_384..=2_097_151 => 3,
        _ => 4,
    }
}

fn put_remaining_length(out: &mut dyn Sink, mut len: usize) {
    loop {
        let mut byte = (len % 128) as u8;
        len /= 128;
        if len > 0 {
            byte |= 0x80;
        }
        out.put_u8(byte);
        if len == 0 {
            break;
        }
    }
}

/// Attempts to decode one packet from the front of `buf`.
///
/// Returns `Ok(None)` when the buffer holds only a packet prefix (read more
/// bytes and retry), or `Ok(Some((packet, consumed)))` on success.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input; the caller should
/// treat the stream as broken (MQTT has no resynchronization).
pub fn decode(buf: &[u8]) -> Result<Option<(Packet, usize)>, DecodeError> {
    let Some((body_start, total)) = frame_bounds(buf)? else {
        return Ok(None);
    };
    let packet = decode_frame(Reader::borrowed(&buf[..total], body_start), None)?;
    Ok(Some((packet, total)))
}

/// Where the first frame of `buf` keeps its body and where it ends;
/// `Ok(None)` while `buf` holds only a prefix of it.
fn frame_bounds(buf: &[u8]) -> Result<Option<(usize, usize)>, DecodeError> {
    if buf.is_empty() {
        return Ok(None);
    }
    let Some((remaining, header_len)) = decode_remaining_length(&buf[1..])? else {
        return Ok(None);
    };
    let total = 1 + header_len + remaining;
    Ok((buf.len() >= total).then_some((1 + header_len, total)))
}

/// Decodes the remaining-length varint; `Ok(None)` means incomplete.
fn decode_remaining_length(buf: &[u8]) -> Result<Option<(usize, usize)>, DecodeError> {
    let mut value = 0usize;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if i >= 4 {
            return Err(DecodeError::MalformedRemainingLength);
        }
        value |= ((b & 0x7F) as usize) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((value, i + 1)));
        }
        shift += 7;
    }
    if buf.len() >= 4 {
        Err(DecodeError::MalformedRemainingLength)
    } else {
        Ok(None)
    }
}

/// Cursor over one frame's body. The body is read where it lies; only a
/// field that outlives the call is given storage of its own, and when the
/// frame is a shared buffer even that is a refcounted slice of it:
/// length-prefixed binary fields and the publish payload are then *sliced*
/// out rather than copied.
struct Reader<'a> {
    /// The whole frame, fixed header included.
    frame: &'a [u8],
    /// Where the body starts in `frame`.
    body_start: usize,
    /// Read position in `frame`.
    pos: usize,
    /// The shared buffer `frame` is the contents of, if it arrived as one.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Over bytes the caller will reuse (a stream buffer): fields that
    /// outlive the call are copied out.
    fn borrowed(frame: &'a [u8], body_start: usize) -> Self {
        Reader {
            frame,
            body_start,
            pos: body_start,
            shared: None,
        }
    }

    /// Over a shared frame whose body starts at `body_start`.
    fn shared(frame: &'a Bytes, body_start: usize) -> Self {
        Reader {
            shared: Some(frame),
            ..Reader::borrowed(frame, body_start)
        }
    }

    fn remaining(&self) -> usize {
        self.frame.len() - self.pos
    }

    /// The next `len` bytes, borrowed.
    fn take(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError::UnexpectedEof);
        }
        let field = &self.frame[self.pos..self.pos + len];
        self.pos += len;
        Ok(field)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// The next `len` bytes as a buffer of their own: a slice of the
    /// shared frame if there is one, else the one copy.
    fn owned(&mut self, len: usize) -> Result<Bytes, DecodeError> {
        let at = self.pos;
        let field = self.take(len)?;
        Ok(match self.shared {
            Some(frame) => frame.slice(at..at + len),
            None if field.is_empty() => Bytes::new(),
            None => Bytes::copy_from_slice(field),
        })
    }

    fn bytes(&mut self) -> Result<Bytes, DecodeError> {
        let len = self.u16()? as usize;
        self.owned(len)
    }

    /// A length-prefixed field, not yet checked to be text.
    fn raw_str(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u16()? as usize;
        self.take(len)
    }

    fn str(&mut self) -> Result<&'a str, DecodeError> {
        core::str::from_utf8(self.raw_str()?).map_err(|_| DecodeError::InvalidString)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    fn rest(&mut self) -> Bytes {
        self.owned(self.remaining())
            .expect("what remains is there to take")
    }

    /// What remains as the payload of a PUBLISH at `qos`, and what its
    /// deliveries share when the frame already is its first delivery at
    /// that QoS (no dup, no retain, minimal remaining length). Both are
    /// then views of the kept frame — the shared buffer that arrived, or
    /// the one copy made of the whole frame where the payload alone would
    /// have been copied: the whole frame at QoS 0, everything before the
    /// packet id above it.
    fn publish_payload(&mut self, qos: QoS) -> (Bytes, Option<Bytes>) {
        let body = self.frame.len() - self.body_start;
        if self.frame[0] != delivery_first_byte(qos)
            || self.body_start != 1 + remaining_length_len(body)
        {
            return (self.rest(), None);
        }
        let frame = match self.shared {
            Some(frame) => frame.clone(),
            None => Bytes::copy_from_slice(self.frame),
        };
        let head_len = match qos {
            QoS::AtMostOnce => frame.len(),
            QoS::AtLeastOnce | QoS::ExactlyOnce => self.pos - 2,
        };
        let payload = frame.slice(self.pos..);
        self.pos = self.frame.len();
        (payload, Some(frame.slice(..head_len)))
    }

    fn expect_empty(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }
}

/// Validates a topic name on the frame's own bytes and copies it once,
/// into its shared form.
fn topic_name(raw: &[u8], what: &'static str) -> Result<TopicName, DecodeError> {
    let name = core::str::from_utf8(raw).map_err(|_| DecodeError::InvalidString)?;
    TopicName::new(name).map_err(|_| DecodeError::MalformedPacket(what))
}

/// Slots of a [`NameTable`]: 32, so the eight `sensor/N/sound` names of
/// a `chain_batched_rt` edge land in eight slots (at 16, two pairs of them
/// shared one and evicted each other). A slot is the top bits of the
/// spread hash, so the 32-slot table refines the 16-slot one: names apart
/// at 16 are apart at 32.
const NAME_SLOTS: usize = 32;

/// The topic names a stream validated last: a fixed, direct-mapped table
/// (one probe, replace on miss). A publisher repeats a handful of names —
/// a sensor its one topic, thousands of times a second — so a hit returns
/// the shared [`TopicName`] already held, without allocating or validating
/// again. The table is made by the first PUBLISH: a connection that only
/// subscribes holds the empty handle.
#[derive(Debug, Default)]
struct NameTable(Option<Box<[Option<TopicName>; NAME_SLOTS]>>);

/// The slot a name maps to. FNV-1a's last bytes barely reach its top bits
/// and its low bits see only each byte's low bits, so the hash is spread
/// once more (multiplied by 2^64 / φ) before the top bits are taken.
fn name_slot(raw: &[u8]) -> usize {
    let spread = fnv1a(raw).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (spread >> (64 - NAME_SLOTS.trailing_zeros())) as usize
}

impl NameTable {
    /// The name `raw` spells: the remembered one if its slot holds these
    /// very bytes, else validated, stored in place of the slot's previous
    /// name and returned. An invalid name is an error and is not stored.
    fn name(&mut self, raw: &[u8], what: &'static str) -> Result<TopicName, DecodeError> {
        let slots = self.0.get_or_insert_with(Box::default);
        let slot = &mut slots[name_slot(raw)];
        match slot {
            Some(known) if known.as_str().as_bytes() == raw => Ok(known.clone()),
            _ => {
                let name = topic_name(raw, what)?;
                *slot = Some(name.clone());
                Ok(name)
            }
        }
    }
}

fn require_flags(packet_type: u8, flags: u8, expected: u8) -> Result<(), DecodeError> {
    if flags == expected {
        Ok(())
    } else {
        Err(DecodeError::InvalidFlags { packet_type, flags })
    }
}

/// Decodes the frame `r` is over. The fixed-size packets (the
/// acknowledgements, the pings, DISCONNECT) allocate nothing; for a
/// PUBLISH see the module docs. `names` is the stream's name table, if the
/// frame came off a stream.
fn decode_frame(mut r: Reader<'_>, names: Option<&mut NameTable>) -> Result<Packet, DecodeError> {
    let first = r.frame[0];
    let (packet_type, flags) = (first >> 4, first & 0x0F);
    match packet_type {
        1 => {
            require_flags(1, flags, 0)?;
            decode_connect(&mut r)
        }
        2 => {
            require_flags(2, flags, 0)?;
            let ack_flags = r.u8()?;
            if ack_flags & !0x01 != 0 {
                return Err(DecodeError::MalformedPacket("connack flags"));
            }
            let code = ConnectReturnCode::from_byte(r.u8()?)
                .map_err(|_| DecodeError::MalformedPacket("connack return code"))?;
            r.expect_empty()?;
            Ok(Packet::Connack(Connack {
                session_present: ack_flags & 0x01 != 0,
                code,
            }))
        }
        3 => {
            let dup = flags & 0b1000 != 0;
            let qos = QoS::from_bits((flags >> 1) & 0b11).map_err(DecodeError::InvalidQos)?;
            let retain = flags & 0b0001 != 0;
            if dup && qos == QoS::AtMostOnce {
                return Err(DecodeError::MalformedPacket("dup set on qos 0 publish"));
            }
            let raw = r.raw_str()?;
            let topic = match names {
                Some(names) => names.name(raw, "publish topic")?,
                None => topic_name(raw, "publish topic")?,
            };
            let packet_id = if qos != QoS::AtMostOnce {
                let pid = r.u16()?;
                if pid == 0 {
                    return Err(DecodeError::MalformedPacket("zero packet id"));
                }
                Some(pid)
            } else {
                None
            };
            let (payload, delivery) = r.publish_payload(qos);
            Ok(Packet::Publish(Publish {
                dup,
                qos,
                retain,
                topic,
                packet_id,
                payload,
                delivery,
            }))
        }
        4 => {
            require_flags(4, flags, 0)?;
            let pid = r.u16()?;
            r.expect_empty()?;
            Ok(Packet::Puback(pid))
        }
        5 => {
            require_flags(5, flags, 0)?;
            let pid = r.u16()?;
            r.expect_empty()?;
            Ok(Packet::Pubrec(pid))
        }
        6 => {
            require_flags(6, flags, 0b0010)?;
            let pid = r.u16()?;
            r.expect_empty()?;
            Ok(Packet::Pubrel(pid))
        }
        7 => {
            require_flags(7, flags, 0)?;
            let pid = r.u16()?;
            r.expect_empty()?;
            Ok(Packet::Pubcomp(pid))
        }
        8 => {
            require_flags(8, flags, 0b0010)?;
            let packet_id = r.u16()?;
            let mut filters = Vec::new();
            while r.remaining() > 0 {
                let filter = TopicFilter::new(r.string()?)
                    .map_err(|_| DecodeError::MalformedPacket("subscribe filter"))?;
                let qos = QoS::from_bits(r.u8()?).map_err(DecodeError::InvalidQos)?;
                filters.push(SubscribeFilter { filter, qos });
            }
            if filters.is_empty() {
                return Err(DecodeError::MalformedPacket("subscribe without filters"));
            }
            Ok(Packet::Subscribe(Subscribe { packet_id, filters }))
        }
        9 => {
            require_flags(9, flags, 0)?;
            let packet_id = r.u16()?;
            let mut codes = Vec::new();
            while r.remaining() > 0 {
                codes.push(
                    SubackCode::from_byte(r.u8()?)
                        .map_err(|_| DecodeError::MalformedPacket("suback code"))?,
                );
            }
            if codes.is_empty() {
                return Err(DecodeError::MalformedPacket("suback without codes"));
            }
            Ok(Packet::Suback(Suback { packet_id, codes }))
        }
        10 => {
            require_flags(10, flags, 0b0010)?;
            let packet_id = r.u16()?;
            let mut filters = Vec::new();
            while r.remaining() > 0 {
                filters.push(
                    TopicFilter::new(r.string()?)
                        .map_err(|_| DecodeError::MalformedPacket("unsubscribe filter"))?,
                );
            }
            if filters.is_empty() {
                return Err(DecodeError::MalformedPacket("unsubscribe without filters"));
            }
            Ok(Packet::Unsubscribe(Unsubscribe { packet_id, filters }))
        }
        11 => {
            require_flags(11, flags, 0)?;
            let pid = r.u16()?;
            r.expect_empty()?;
            Ok(Packet::Unsuback(pid))
        }
        12 => {
            require_flags(12, flags, 0)?;
            r.expect_empty()?;
            Ok(Packet::Pingreq)
        }
        13 => {
            require_flags(13, flags, 0)?;
            r.expect_empty()?;
            Ok(Packet::Pingresp)
        }
        14 => {
            require_flags(14, flags, 0)?;
            r.expect_empty()?;
            Ok(Packet::Disconnect)
        }
        other => Err(DecodeError::UnknownPacketType(other)),
    }
}

fn decode_connect(r: &mut Reader<'_>) -> Result<Packet, DecodeError> {
    let proto = r.str()?;
    let level = r.u8()?;
    if proto != "MQTT" || level != 4 {
        return Err(DecodeError::UnsupportedProtocol);
    }
    let flags = r.u8()?;
    if flags & 0x01 != 0 {
        return Err(DecodeError::MalformedPacket("reserved connect flag set"));
    }
    let clean_session = flags & 0b0000_0010 != 0;
    let has_will = flags & 0b0000_0100 != 0;
    let will_qos = QoS::from_bits((flags >> 3) & 0b11).map_err(DecodeError::InvalidQos)?;
    let will_retain = flags & 0b0010_0000 != 0;
    let has_password = flags & 0b0100_0000 != 0;
    let has_username = flags & 0b1000_0000 != 0;
    if !has_will && (will_qos != QoS::AtMostOnce || will_retain) {
        return Err(DecodeError::MalformedPacket("will flags without will"));
    }
    let keep_alive_secs = r.u16()?;
    let client_id = r.string()?;
    let will = if has_will {
        let topic = topic_name(r.raw_str()?, "will topic")?;
        let payload = r.bytes()?;
        Some(LastWill {
            topic,
            payload,
            qos: will_qos,
            retain: will_retain,
        })
    } else {
        None
    };
    let username = if has_username {
        Some(r.string()?)
    } else {
        None
    };
    let password = if has_password { Some(r.bytes()?) } else { None };
    r.expect_empty()?;
    Ok(Packet::Connect(Connect {
        client_id,
        clean_session,
        keep_alive_secs,
        will,
        username,
        password,
    }))
}

/// Room a socket read is offered at least, and so what every connection
/// that has read anything holds for life. Sized for the connection count,
/// not for throughput: 10 000 quiet connections pin 10 000 of these (the
/// 10 000-subscriber cell of `tests/broker_c10k.rs` peaks at 23.5 MiB with
/// 256, 26 with 512, 31 with 1 024, and at 25 before the decoder kept one
/// buffer — EXPERIMENTS.md), and a connection whose reads fill what they
/// are offered is offered more (see [`StreamDecoder::read_from`]).
const MIN_READ: usize = 256;

/// Room a socket read is offered once reads have filled what they were
/// offered: the read size of a connection that streams.
const MAX_READ: usize = 16 * 1024;

/// Largest stream buffer a drained decoder keeps: a burst may grow the
/// buffer past this, and gives the excess back once it is decoded.
pub(crate) const MAX_IDLE_BUFFER: usize = 64 * 1024;

/// Incremental decoder over a byte stream: feed arbitrary chunks, pop
/// complete packets.
///
/// The stream lives in **one** growable buffer with a consumed cursor in
/// front of it: a packet is decoded from the buffer where it lies (see
/// [`decode`] for what that costs per packet type), the cursor moves past
/// it, and the room is reused — reset when everything is consumed, moved
/// down when the cursor has passed half of what is buffered. Nothing is
/// allocated per packet for the framing.
///
/// ```
/// use ifot_mqtt::codec::{encode, StreamDecoder};
/// use ifot_mqtt::packet::Packet;
///
/// let mut dec = StreamDecoder::new();
/// let bytes = encode(&Packet::Pingreq);
/// dec.feed(&bytes[..1]);
/// assert!(dec.next_packet()?.is_none());
/// dec.feed(&bytes[1..]);
/// assert_eq!(dec.next_packet()?, Some(Packet::Pingreq));
/// # Ok::<(), ifot_mqtt::error::DecodeError>(())
/// ```
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// `buf[start..end]` is received and not yet decoded; `buf[end..]` is
    /// initialised room for the next bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// A shared chunk that arrived as exactly one frame on an empty
    /// stream: decoded in place, never copied into `buf`. Kept with the
    /// offset of its body.
    whole: Option<(Bytes, usize)>,
    /// The topic names this stream's last publishes carried.
    names: NameTable,
}

impl StreamDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a received chunk: borrowed bytes, or a shared [`Bytes`]
    /// (see [`Chunk`]). The same packets come out either way.
    pub fn feed(&mut self, chunk: impl Chunk) {
        chunk.feed_to(self);
    }

    /// Reads once from `src` straight into the buffer's spare room.
    /// Returns what `read` returned, and whether that filled the room it
    /// was offered — if so the source may hold more. The room is at least
    /// `MIN_READ` bytes; a read that fills it doubles the buffer, up to
    /// `MAX_READ`, so a connection that streams is read in large pieces
    /// and one that trickles keeps a small buffer.
    ///
    /// # Errors
    ///
    /// Whatever `src.read` reports, `WouldBlock` included.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<(usize, bool)> {
        self.unpark();
        self.make_room(MIN_READ);
        let room = self.buf.len() - self.end;
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        let filled = n == room;
        if filled && self.buf.len() < MAX_READ {
            self.buf.resize((self.buf.len() * 2).min(MAX_READ), 0);
        }
        Ok((n, filled))
    }

    /// Appends `bytes` to the stream, behind a parked whole frame if
    /// there is one.
    fn append(&mut self, bytes: &[u8]) {
        self.unpark();
        self.extend(bytes);
    }

    /// Moves a parked whole frame onto the stream: more bytes follow it.
    fn unpark(&mut self) {
        if let Some((whole, _)) = self.whole.take() {
            self.extend(&whole);
        }
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.make_room(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Makes `buf[end..]` at least `n` bytes long, first by reusing what
    /// the cursor has passed, then by growing.
    fn make_room(&mut self, n: usize) {
        if self.start > self.end / 2 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < n {
            self.buf.resize(self.end + n, 0);
            // Growth is amortised: open up whatever capacity it bought.
            self.buf.resize(self.buf.capacity(), 0);
        }
    }

    /// Pops the next complete packet, if any.
    ///
    /// A frame on the stream is decoded from the buffer where it lies; a
    /// whole shared chunk is decoded as slices of itself, so its publish
    /// payload is a zero-copy view of the chunk that was fed.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeError`] on malformed input; the stream should be
    /// dropped afterwards.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, DecodeError> {
        if let Some((frame, body_start)) = self.whole.take() {
            return decode_frame(Reader::shared(&frame, body_start), Some(&mut self.names))
                .map(Some);
        }
        let stream = &self.buf[self.start..self.end];
        let Some((body_start, total)) = frame_bounds(stream)? else {
            return Ok(None);
        };
        let packet = decode_frame(
            Reader::borrowed(&stream[..total], body_start),
            Some(&mut self.names),
        )?;
        self.start += total;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
            if self.buf.len() > MAX_IDLE_BUFFER {
                // A drained burst does not pin its peak.
                self.buf.truncate(MAX_IDLE_BUFFER);
                self.buf.shrink_to_fit();
            }
        }
        Ok(Some(packet))
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.end - self.start + self.whole.as_ref().map_or(0, |(whole, _)| whole.len())
    }
}

/// A received chunk, as [`StreamDecoder::feed`] takes it.
pub trait Chunk {
    /// Hands the chunk to `decoder`.
    fn feed_to(self, decoder: &mut StreamDecoder);
}

/// Borrowed bytes (a socket read) are copied onto the stream buffer.
impl Chunk for &[u8] {
    fn feed_to(self, decoder: &mut StreamDecoder) {
        decoder.append(self);
    }
}

/// A shared buffer — what a message transport delivers, one frame per
/// chunk — is not copied when nothing is buffered and it is exactly one
/// complete frame: the next [`StreamDecoder::next_packet`] decodes it as
/// a refcounted slice of itself, with no allocation for the framing. Any
/// other chunk is appended like borrowed bytes.
impl Chunk for &Bytes {
    fn feed_to(self, decoder: &mut StreamDecoder) {
        match frame_bounds(self) {
            Ok(Some((body_start, total))) if total == self.len() && decoder.buffered() == 0 => {
                decoder.whole = Some((self.clone(), body_start));
            }
            _ => decoder.append(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Connack, Suback, SubackCode, Subscribe, SubscribeFilter, Unsubscribe};

    fn topic(s: &str) -> TopicName {
        TopicName::new(s).expect("valid topic")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).expect("valid filter")
    }

    fn round_trip(p: Packet) {
        let bytes = encode(&p);
        let (decoded, used) = decode(&bytes).expect("decodes").expect("complete");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, p);
    }

    #[test]
    fn round_trip_simple_packets() {
        round_trip(Packet::Pingreq);
        round_trip(Packet::Pingresp);
        round_trip(Packet::Disconnect);
        round_trip(Packet::Puback(77));
        round_trip(Packet::Pubrec(78));
        round_trip(Packet::Pubrel(79));
        round_trip(Packet::Pubcomp(80));
        round_trip(Packet::Unsuback(13));
    }

    #[test]
    fn pubrel_requires_its_reserved_flags() {
        // PUBREL must carry flags 0b0010; zero is rejected.
        assert!(matches!(
            decode(&[0x60, 0x02, 0x00, 0x01]),
            Err(DecodeError::InvalidFlags { packet_type: 6, .. })
        ));
        assert!(decode(&[0x62, 0x02, 0x00, 0x01]).expect("valid").is_some());
    }

    #[test]
    fn round_trip_connect_variants() {
        round_trip(Packet::Connect(Connect::new("node-a")));
        let mut c = Connect::new("node-b");
        c.clean_session = false;
        c.keep_alive_secs = 0;
        c.username = Some("user".into());
        c.password = Some(vec![1, 2, 3].into());
        c.will = Some(LastWill {
            topic: topic("status/node-b"),
            payload: Bytes::from_static(b"offline"),
            qos: QoS::AtLeastOnce,
            retain: true,
        });
        round_trip(Packet::Connect(c));
    }

    #[test]
    fn round_trip_connack() {
        round_trip(Packet::Connack(Connack {
            session_present: true,
            code: ConnectReturnCode::Accepted,
        }));
        round_trip(Packet::Connack(Connack {
            session_present: false,
            code: ConnectReturnCode::NotAuthorized,
        }));
    }

    #[test]
    fn round_trip_publish_variants() {
        round_trip(Packet::Publish(Publish::qos0(topic("a/b"), vec![9; 32])));
        let mut p = Publish::qos1(topic("sensor/x"), vec![0; 300], 42);
        p.retain = true;
        round_trip(Packet::Publish(p));
        let mut d = Publish::qos1(topic("sensor/x"), Bytes::new(), 43);
        d.dup = true;
        round_trip(Packet::Publish(d));
    }

    #[test]
    fn round_trip_subscription_packets() {
        round_trip(Packet::Subscribe(Subscribe {
            packet_id: 5,
            filters: vec![
                SubscribeFilter {
                    filter: filter("sensor/#"),
                    qos: QoS::AtLeastOnce,
                },
                SubscribeFilter {
                    filter: filter("+/status"),
                    qos: QoS::AtMostOnce,
                },
            ],
        }));
        round_trip(Packet::Suback(Suback {
            packet_id: 5,
            codes: vec![SubackCode::Granted(QoS::AtLeastOnce), SubackCode::Failure],
        }));
        round_trip(Packet::Unsubscribe(Unsubscribe {
            packet_id: 6,
            filters: vec![filter("sensor/#")],
        }));
    }

    #[test]
    fn large_payload_uses_multibyte_remaining_length() {
        let p = Packet::Publish(Publish::qos0(topic("big"), vec![7; 20_000]));
        let bytes = encode(&p);
        // Remaining length must occupy 3 bytes for a 20 kB body.
        assert!(bytes[1] & 0x80 != 0);
        assert!(bytes[2] & 0x80 != 0);
        round_trip(p);
    }

    #[test]
    fn incomplete_input_returns_none() {
        let bytes = encode(&Packet::Publish(Publish::qos0(topic("a"), vec![1, 2, 3])));
        for cut in 0..bytes.len() {
            assert_eq!(
                decode(&bytes[..cut]).expect("prefix is not an error"),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(
            decode(&[0x00, 0x00]),
            Err(DecodeError::UnknownPacketType(0))
        );
        assert_eq!(
            decode(&[0xF0, 0x00]),
            Err(DecodeError::UnknownPacketType(15))
        );
    }

    #[test]
    fn bad_flags_rejected() {
        // PUBACK with nonzero flags.
        assert_eq!(
            decode(&[0x41, 0x02, 0x00, 0x01]),
            Err(DecodeError::InvalidFlags {
                packet_type: 4,
                flags: 1
            })
        );
        // SUBSCRIBE must carry flags 0b0010.
        assert!(matches!(
            decode(&[0x80, 0x05, 0x00, 0x01, 0x00, 0x01, b'a']),
            Err(DecodeError::InvalidFlags { packet_type: 8, .. })
        ));
    }

    #[test]
    fn qos3_publish_rejected() {
        // Flags 0b0110 = QoS 3.
        assert_eq!(
            decode(&[0x36, 0x04, 0x00, 0x01, b'a', 0x00]),
            Err(DecodeError::InvalidQos(3))
        );
    }

    #[test]
    fn zero_packet_id_rejected() {
        let mut bytes =
            encode(&Packet::Publish(Publish::qos1(topic("a"), Bytes::new(), 1))).to_vec();
        // Patch the packet id to zero: topic "a" = 2 len + 1 char after 2-byte header.
        let pid_offset = 2 + 2 + 1;
        bytes[pid_offset] = 0;
        bytes[pid_offset + 1] = 0;
        assert_eq!(
            decode(&bytes),
            Err(DecodeError::MalformedPacket("zero packet id"))
        );
    }

    #[test]
    fn invalid_utf8_topic_rejected() {
        // PUBLISH with a 1-byte topic 0xFF.
        let bytes = [0x30, 0x03, 0x00, 0x01, 0xFF];
        assert_eq!(decode(&bytes), Err(DecodeError::InvalidString));
    }

    #[test]
    fn overlong_remaining_length_rejected() {
        let bytes = [0xC0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert_eq!(decode(&bytes), Err(DecodeError::MalformedRemainingLength));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // PINGREQ declaring 1 byte of body.
        assert_eq!(decode(&[0xC0, 0x01, 0x00]), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn empty_subscribe_rejected() {
        assert_eq!(
            decode(&[0x82, 0x02, 0x00, 0x01]),
            Err(DecodeError::MalformedPacket("subscribe without filters"))
        );
    }

    #[test]
    fn wrong_protocol_rejected() {
        let mut c = encode(&Packet::Connect(Connect::new("x"))).to_vec();
        c[4] = b'X'; // corrupt protocol name "MQTT" -> "MXTT"
        assert_eq!(decode(&c), Err(DecodeError::UnsupportedProtocol));
    }

    #[test]
    fn stream_decoder_handles_fragmentation_and_pipelining() {
        let a = encode(&Packet::Pingreq);
        let b = encode(&Packet::Publish(Publish::qos0(topic("t"), vec![1, 2])));
        let mut all = Vec::new();
        all.extend_from_slice(&a);
        all.extend_from_slice(&b);

        let mut dec = StreamDecoder::new();
        // Feed one byte at a time.
        let mut got = Vec::new();
        for byte in all {
            dec.feed(&[byte][..]);
            while let Some(p) = dec.next_packet().expect("valid stream") {
                got.push(p);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], Packet::Pingreq);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn encoded_len_sizes_every_varint_width() {
        for body in [3usize, 100, 127, 128, 16_383, 16_384, 2_097_151, 2_097_152] {
            // The body is the payload behind the topic "t" and its length.
            let p = Packet::Publish(Publish::qos0(topic("t"), vec![0; body - 3]));
            assert_eq!(encoded_len(&p), encode(&p).len(), "body {body}");
        }
    }

    #[test]
    fn qos0_delivery_frame_clears_the_per_hop_fields() {
        let mut p = Publish::qos1(topic("sensor/x"), vec![7; 32], 42);
        p.dup = true;
        p.retain = true;
        let expected = encode(&Packet::Publish(Publish::qos0(
            topic("sensor/x"),
            vec![7; 32],
        )));
        assert_eq!(encode_qos0_delivery(&p), expected);
    }

    #[test]
    fn whole_frame_is_decoded_in_place() {
        let frame = encode(&Packet::Publish(Publish::qos0(topic("t"), vec![1, 2, 3])));
        let mut dec = StreamDecoder::new();
        dec.feed(&frame);
        assert_eq!(dec.buffered(), frame.len());
        let Some(Packet::Publish(p)) = dec.next_packet().expect("valid") else {
            panic!("expected the publish");
        };
        // The payload is a slice of the chunk that was fed, not a copy.
        let tail = &frame[frame.len() - 3..];
        assert!(std::ptr::eq(p.payload.as_ptr(), tail.as_ptr()));
        assert_eq!(dec.buffered(), 0);
        assert_eq!(dec.next_packet().expect("valid"), None);
    }

    #[test]
    fn frame_fed_chunks_fall_back_to_the_stream() {
        let a = encode(&Packet::Pingreq);
        let b = encode(&Packet::Publish(Publish::qos0(topic("t"), vec![1, 2])));
        let two: Bytes = [&a[..], &b[..]].concat().into();
        let split = b.len() / 2;
        // Two frames in one chunk; a whole frame parked, then more bytes
        // before it is popped; a frame torn across chunks.
        let feeds: [Vec<Bytes>; 3] = [
            vec![two],
            vec![a.clone(), b.clone()],
            vec![a.clone(), b.slice(..split), b.slice(split..)],
        ];
        for chunks in feeds {
            let mut dec = StreamDecoder::new();
            for chunk in &chunks {
                dec.feed(chunk);
            }
            assert_eq!(dec.next_packet().expect("valid"), Some(Packet::Pingreq));
            assert!(matches!(
                dec.next_packet().expect("valid"),
                Some(Packet::Publish(_))
            ));
            assert_eq!(dec.next_packet().expect("valid"), None);
            assert_eq!(dec.buffered(), 0);
        }
        // Garbage is reported by `next_packet`, as on the stream path.
        let mut dec = StreamDecoder::new();
        dec.feed(&Bytes::from_static(&[0xC0, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F]));
        assert_eq!(
            dec.next_packet(),
            Err(DecodeError::MalformedRemainingLength)
        );
    }

    #[test]
    fn a_drained_burst_does_not_pin_its_peak() {
        let frame = encode(&Packet::Publish(Publish::qos0(
            topic("burst"),
            vec![5u8; 1000],
        )));
        let mut burst = Vec::new();
        while burst.len() < 1 << 20 {
            burst.extend_from_slice(&frame);
        }
        let mut dec = StreamDecoder::new();
        dec.feed(&burst[..]);
        assert!(dec.buf.capacity() >= 1 << 20);
        let mut popped = 0;
        while let Some(p) = dec.next_packet().expect("valid") {
            assert!(matches!(p, Packet::Publish(_)));
            popped += 1;
        }
        assert_eq!(popped, burst.len() / frame.len());
        assert_eq!(dec.buffered(), 0);
        assert!(
            dec.buf.capacity() <= MAX_IDLE_BUFFER,
            "{} bytes kept after the burst",
            dec.buf.capacity()
        );
        // A steady trickle through a small buffer never grows it: the
        // cursor is reset or the tail moved down, not appended behind.
        let mut dec = StreamDecoder::new();
        for piece in burst.chunks(700) {
            dec.feed(piece);
            while dec.next_packet().expect("valid").is_some() {}
        }
        assert!(dec.buf.capacity() <= 8 * 1024, "{}", dec.buf.capacity());
    }

    #[test]
    fn reads_grow_with_a_source_that_fills_them_and_only_then() {
        let frame = encode(&Packet::Publish(Publish::qos0(topic("r"), vec![7u8; 90])));
        // A trickle: every read is offered more than it takes, says so,
        // and the buffer stays at its first size.
        let mut dec = StreamDecoder::new();
        for _ in 0..100 {
            let mut src = &frame[..];
            assert_eq!(dec.read_from(&mut src).expect("read"), (frame.len(), false));
            assert!(dec.next_packet().expect("valid").is_some());
        }
        assert_eq!(dec.buf.len(), MIN_READ);
        // A stream: each read fills what it was offered — known from the
        // read itself, although decoding then empties the buffer — and the
        // next is offered twice as much, up to `MAX_READ`.
        let stream = frame.repeat(1 + 4 * MAX_READ / frame.len());
        let mut src = &stream[..];
        let mut dec = StreamDecoder::new();
        let mut offered = Vec::new();
        let mut popped = 0;
        loop {
            let (n, filled) = dec.read_from(&mut src).expect("read");
            if n == 0 {
                break;
            }
            offered.push(n);
            assert!(filled || src.is_empty(), "bytes left behind a short read");
            while dec.next_packet().expect("valid").is_some() {
                popped += 1;
            }
        }
        assert_eq!(popped, stream.len() / frame.len());
        // (Less the torn frame the read before left in front of it.)
        let doublings = (MAX_READ / MIN_READ).trailing_zeros() as usize;
        assert!(offered.len() > doublings + 2, "{offered:?}");
        for (i, &n) in offered[..offered.len() - 1].iter().enumerate() {
            let room = (MIN_READ << i.min(doublings)) - n;
            assert!(room < frame.len(), "read {i} took {n}");
        }
        assert!(dec.buf.len() <= 2 * MAX_READ, "{}", dec.buf.len());
    }

    /// Feeds `frame` as borrowed bytes and pops the publish it holds.
    fn pop_publish(dec: &mut StreamDecoder, frame: &[u8]) -> Publish {
        dec.feed(frame);
        match dec.next_packet() {
            Ok(Some(Packet::Publish(p))) => p,
            other => panic!("expected a publish, got {other:?}"),
        }
    }

    /// Two valid names that share a slot of the table, found by search.
    fn colliding_names() -> (String, String) {
        let first = "sensor/0/sound".to_owned();
        let second = (1..)
            .map(|n| format!("sensor/{n}/sound"))
            .find(|s| name_slot(s.as_bytes()) == name_slot(first.as_bytes()))
            .expect("finitely many slots");
        (first, second)
    }

    #[test]
    fn a_repeated_name_is_the_name_the_stream_already_holds() {
        let frame = |name: &str| encode(&Packet::Publish(Publish::qos0(topic(name), vec![1])));
        let mut dec = StreamDecoder::new();
        // Miss, then hit: the second publish carries the first's string.
        let a1 = pop_publish(&mut dec, &frame("sensor/1/sound"));
        let a2 = pop_publish(&mut dec, &frame("sensor/1/sound"));
        assert_eq!(a2.topic.as_str(), "sensor/1/sound");
        assert!(std::ptr::eq(a1.topic.as_str(), a2.topic.as_str()));
        // The whole-frame path shares the table.
        dec.feed(&frame("sensor/1/sound"));
        let Ok(Some(Packet::Publish(a3))) = dec.next_packet() else {
            panic!("expected the publish");
        };
        assert!(std::ptr::eq(a1.topic.as_str(), a3.topic.as_str()));
        // Another stream has a table of its own.
        let other = pop_publish(&mut StreamDecoder::new(), &frame("sensor/1/sound"));
        assert_eq!(other.topic, a1.topic);
        assert!(!std::ptr::eq(a1.topic.as_str(), other.topic.as_str()));
    }

    #[test]
    fn the_eight_chain_sensor_names_are_all_held_after_first_sight() {
        let names: Vec<String> = (1..=8).map(|n| format!("sensor/{n}/sound")).collect();
        let frame = |name: &str| encode(&Packet::Publish(Publish::qos0(topic(name), vec![1])));
        let mut dec = StreamDecoder::new();
        let first: Vec<Publish> = names
            .iter()
            .map(|n| pop_publish(&mut dec, &frame(n)))
            .collect();
        for round in 0..3 {
            for (name, held) in names.iter().zip(&first) {
                let again = pop_publish(&mut dec, &frame(name));
                assert!(
                    std::ptr::eq(held.topic.as_str(), again.topic.as_str()),
                    "round {round}: {name} was evicted"
                );
            }
        }
    }

    #[test]
    fn names_colliding_in_one_slot_replace_each_other() {
        let (first, second) = colliding_names();
        let frame = |name: &str| encode(&Packet::Publish(Publish::qos0(topic(name), vec![1])));
        let mut dec = StreamDecoder::new();
        let mut last: Option<Publish> = None;
        for round in 0..6 {
            let name = if round % 2 == 0 { &first } else { &second };
            let p = pop_publish(&mut dec, &frame(name));
            assert_eq!(p.topic.as_str(), name, "round {round}");
            if let Some(previous) = &last {
                assert_ne!(previous.topic, p.topic);
            }
            last = Some(p);
        }
        // Alternating, each evicted the other: the slot holds the last one.
        let again = pop_publish(&mut dec, &frame(&second));
        let held = last.expect("six rounds").topic;
        assert!(std::ptr::eq(held.as_str(), again.topic.as_str()));
    }

    #[test]
    fn names_that_differ_in_their_last_byte_spread_over_the_table() {
        // FNV-1a alone would put all of these in one slot (see `name_slot`).
        // As many names as slots.
        let slots: std::collections::BTreeSet<usize> = (b'A'..)
            .take(NAME_SLOTS)
            .map(|last| name_slot(&[b"sensor/1/".as_slice(), &[last]].concat()))
            .collect();
        assert!(slots.len() >= NAME_SLOTS / 2, "{slots:?}");
    }

    #[test]
    fn an_invalid_name_is_an_error_and_is_not_remembered() {
        let first = b"sensor/0/sound";
        let mut names = NameTable::default();
        let held = names.name(first, "publish topic").expect("valid");
        // A wildcard name and one that is not text, both mapping to the
        // held name's slot.
        let wildcard = (0..)
            .map(|n| format!("sensor/{n}/+").into_bytes())
            .find(|raw| name_slot(raw) == name_slot(first))
            .expect("finitely many slots");
        let not_text = (0..=u8::MAX)
            .map(|n| vec![0xFF, n])
            .find(|raw| name_slot(raw) == name_slot(first))
            .expect("finitely many slots");
        assert_eq!(
            names.name(&wildcard, "publish topic"),
            Err(DecodeError::MalformedPacket("publish topic"))
        );
        assert_eq!(
            names.name(&not_text, "publish topic"),
            Err(DecodeError::InvalidString)
        );
        let table = names.0.as_ref().expect("made by the first name");
        assert_eq!(table.iter().flatten().count(), 1);
        let again = names.name(first, "publish topic").expect("valid");
        assert!(std::ptr::eq(held.as_str(), again.as_str()), "slot moved");
        // The decoder reports it as it always did.
        let mut dec = StreamDecoder::new();
        dec.feed(&[0x30u8, 0x03, 0x00, 0x01, b'#'][..]);
        assert_eq!(
            dec.next_packet(),
            Err(DecodeError::MalformedPacket("publish topic"))
        );
    }

    #[test]
    fn a_stream_without_publishes_holds_no_table() {
        let mut dec = StreamDecoder::new();
        let mut connect = Connect::new("sub-1");
        connect.will = Some(LastWill {
            topic: topic("status/sub-1"),
            payload: Bytes::from_static(b"offline"),
            qos: QoS::AtMostOnce,
            retain: true,
        });
        for packet in [
            Packet::Connect(connect),
            Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: filter("sensor/#"),
                    qos: QoS::AtMostOnce,
                }],
            }),
            Packet::Puback(7),
            Packet::Pingreq,
        ] {
            dec.feed(&encode(&packet)[..]);
            assert_eq!(dec.next_packet(), Ok(Some(packet)));
        }
        assert!(dec.names.0.is_none());
        // The handle is what such a connection pays: one pointer on top
        // of the buffer, its two cursors and the parked frame (88 bytes in
        // all on a 64-bit target).
        assert_eq!(
            std::mem::size_of::<StreamDecoder>(),
            std::mem::size_of::<Vec<u8>>()
                + 2 * std::mem::size_of::<usize>()
                + std::mem::size_of::<Option<(Bytes, usize)>>()
                + std::mem::size_of::<usize>()
        );
        assert_eq!(
            std::mem::size_of::<[Option<TopicName>; NAME_SLOTS]>(),
            NAME_SLOTS * 2 * std::mem::size_of::<usize>()
        );
    }

    /// A publish at `qos` on topic `t` with a three-byte payload.
    fn publish_at(qos: QoS) -> Publish {
        Publish {
            qos,
            packet_id: (qos != QoS::AtMostOnce).then_some(9),
            ..Publish::qos0(topic("t"), vec![1, 2, 3])
        }
    }

    /// Decodes `frame` off the stream and as a whole shared frame.
    fn both_ways(dec: &mut StreamDecoder, frame: &Bytes) -> [Publish; 2] {
        let off_stream = pop_publish(dec, frame);
        dec.feed(frame);
        let Ok(Some(Packet::Publish(whole))) = dec.next_packet() else {
            panic!("expected the publish");
        };
        [off_stream, whole]
    }

    #[test]
    fn a_first_transmission_keeps_its_frame_at_every_qos() {
        let mut dec = StreamDecoder::new();
        for qos in [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce] {
            // No dup, no retain, minimal length: kept, on the stream and
            // as a whole frame. What the deliveries share is the frame at
            // QoS 0 and everything before the packet id above it; it and
            // the payload are views of one buffer holding the frame.
            let publish = publish_at(qos);
            let frame = encode(&Packet::Publish(publish.clone()));
            let head_len = match qos {
                QoS::AtMostOnce => frame.len(),
                _ => frame.len() - 2 - 3,
            };
            let [off_stream, whole] = both_ways(&mut dec, &frame);
            for (p, path) in [(&off_stream, "off the stream"), (&whole, "whole")] {
                assert_eq!(p, &publish, "{qos:?} {path}");
                let kept = p.delivery.as_ref().expect("kept");
                assert_eq!(kept[..], frame[..head_len], "{qos:?} {path}");
                assert!(std::ptr::eq(
                    p.payload.as_ptr(),
                    kept.as_ptr().wrapping_add(frame.len() - 3)
                ));
                // The broker finds it made.
                let shared = delivery_bytes(p, qos);
                assert!(std::ptr::eq(shared.as_ptr(), kept.as_ptr()));
                let queued = OutFrame::from(Packet::Publish(p.clone()));
                assert_eq!(queued.parts().concat(), frame.to_vec());
            }
            let kept = whole.delivery.as_ref().expect("kept");
            assert!(std::ptr::eq(kept.as_ptr(), frame.as_ptr()), "a view");
            // The same publish behind a padded remaining length decodes to
            // the same packet and keeps nothing: its frame is not what is
            // sent.
            let mut padded = vec![frame[0], frame[1] | 0x80, 0x00];
            padded.extend_from_slice(&frame[2..]);
            for p in both_ways(&mut dec, &Bytes::from(padded)) {
                assert_eq!(p, publish);
                assert!(p.delivery.is_none(), "padded {qos:?}");
            }
        }
        // Retained and dup publishes keep nothing.
        let mut retained = [QoS::AtMostOnce, QoS::AtLeastOnce].map(publish_at);
        for p in &mut retained {
            p.retain = true;
        }
        let mut dups = [QoS::AtLeastOnce, QoS::ExactlyOnce].map(publish_at);
        for p in &mut dups {
            p.dup = true;
        }
        for publish in retained.into_iter().chain(dups) {
            let frame = encode(&Packet::Publish(publish.clone()));
            for p in both_ways(&mut dec, &frame) {
                assert_eq!(p, publish);
                assert!(p.delivery.is_none(), "{publish:?}");
            }
        }
    }

    #[test]
    fn decoder_never_panics_on_garbage() {
        // A light fuzz: decode must return Ok(None)/Ok(Some)/Err, not panic.
        let mut seed = 0x12345678u64;
        for _ in 0..2000 {
            let len = (seed % 64) as usize;
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((seed >> 33) as u8);
            }
            let _ = decode(&bytes);
        }
    }
}
