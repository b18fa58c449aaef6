//! The workspace's byte buffer: the part of the crates.io `bytes` API that
//! the IFoT crates use, under the same name, in safe Rust.
//!
//! A [`Bytes`] is a view `start..end` of one reference-counted `Arc<[u8]>`,
//! so a buffer costs **one** allocation, and `clone`, [`Bytes::slice`],
//! [`Bytes::split_to`], [`Bytes::split_off`] and [`Bytes::truncate`] cost
//! none: they share the allocation. A [`BytesMut`] owns its `Arc<[u8]>`
//! alone until [`BytesMut::freeze`] and writes into it in place (through
//! `Arc::get_mut`), so freezing copies nothing and a frame written into a
//! `BytesMut` of the right capacity is the one allocation it costs.
//!
//! A `Bytes` whose allocation no one else holds any more turns back into
//! a `BytesMut` over it with [`Bytes::try_into_mut`], `Arc::get_mut`
//! being the proof, so a writer can keep the frames it sent and write the
//! next one into the first that every reader has let go of.
//!
//! Two conversions copy where the crates.io crate adopts the caller's
//! memory: `Bytes::from(Vec<u8>)` (an `Arc<[u8]>` cannot take over a
//! `Vec`'s buffer without `unsafe`) and [`Bytes::from_static`]. Neither is
//! on a per-item path: frames are written through `BytesMut`, and received
//! bytes are taken with [`Bytes::copy_from_slice`].
//!
//! Beside that API sits the workspace's one reader of its own byte
//! formats, [`Reader`]: a cursor over borrowed bytes whose every read
//! returns [`ReadError`] where the input runs out or breaks a rule, and
//! never panics. The flow wire, the broker's WAL and actuator commands
//! read through it, and write their LEB128 varints and length-prefixed
//! fields through [`put_varint`] and [`BufMut::put_prefixed`]. The MQTT
//! codec keeps its own reader for its u16-prefixed strings.

#![forbid(unsafe_code)]

use std::fmt;
use std::hash::{Hash, Hasher};
use std::iter;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// `len` zero bytes in one allocation (none for `len == 0`: an empty
/// `Arc<[u8]>` is a shared static).
fn zeroed(len: usize) -> Arc<[u8]> {
    if len == 0 {
        Arc::default()
    } else {
        // `repeat_n` knows its length, so the slice is allocated once and
        // filled in place.
        iter::repeat_n(0, len).collect()
    }
}

/// Cheaply cloneable, reference-counted, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer; allocates nothing.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// A buffer holding a copy of `bytes`.
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// A buffer holding a copy of `data`: one allocation, none when empty.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// `range`, relative to the view, as offsets into the view.
    fn bounds(&self, range: impl RangeBounds<usize>) -> (usize, usize) {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("range start overflows"),
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("range end overflows"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "range {lo}..{hi} out of bounds of {} bytes",
            self.len()
        );
        (lo, hi)
    }

    /// The bytes `range` selects, sharing this buffer's allocation.
    ///
    /// # Panics
    ///
    /// Panics if `range` is not within `0..=len`.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let (lo, hi) = self.bounds(range);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    /// Both share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        let head = self.slice(..at);
        self.start += at;
        head
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the
    /// first `at`. Both share the allocation.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        let tail = self.slice(at..);
        self.end = self.start + at;
        tail
    }

    /// Shortens the view to `len` bytes; a longer `len` does nothing.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }

    /// Empties the view.
    pub fn clear(&mut self) {
        self.end = self.start;
    }

    /// The view as a [`BytesMut`] over the same allocation, if nothing
    /// else holds it: no clone or slice of it is alive. The view's bytes
    /// are moved to the front, so they are what is written and the whole
    /// allocation is the capacity; nothing is allocated. While the
    /// allocation is shared, `Err` hands the view back unchanged.
    ///
    /// That no one else holds the allocation is `Arc::get_mut`'s proof,
    /// so a buffer no reader has let go of is never written.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        if self.data.is_empty() {
            // The empty slice is a shared static, and holds nothing.
            return Ok(BytesMut::new());
        }
        let Some(data) = Arc::get_mut(&mut self.data) else {
            return Err(self);
        };
        data.copy_within(self.start..self.end, 0);
        Ok(BytesMut {
            len: self.end - self.start,
            data: self.data,
        })
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Copies the vector into the buffer's one allocation.
impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&data)
    }
}
impl From<Bytes> for Vec<u8> {
    fn from(data: Bytes) -> Vec<u8> {
        data.as_slice().to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Bytes {
        let data: Arc<[u8]> = iter.into_iter().collect();
        Bytes {
            start: 0,
            end: data.len(),
            data,
        }
    }
}

/// Growable byte buffer, frozen into a [`Bytes`] without a copy.
///
/// `data[..len]` is written and `data[len..]` is room. No one else holds
/// `data` before [`freeze`](BytesMut::freeze) hands it over, which is what
/// lets every write go straight into it.
#[derive(Default)]
pub struct BytesMut {
    data: Arc<[u8]>,
    len: usize,
}

impl BytesMut {
    /// An empty buffer; allocates nothing.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes: one allocation.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: zeroed(capacity),
            len: 0,
        }
    }

    /// Bytes written.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is written.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the buffer holds without growing.
    pub fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Makes room for at least `additional` more bytes: at least doubles
    /// the capacity when it has to grow, copying what is written.
    pub fn reserve(&mut self, additional: usize) {
        let needed = self
            .len
            .checked_add(additional)
            .expect("BytesMut capacity overflows usize");
        if needed <= self.capacity() {
            return;
        }
        let capacity = needed.max(2 * self.capacity());
        // One allocation: the chain of two known-length iterators is
        // collected straight into the new slice.
        self.data = self.data[..self.len]
            .iter()
            .copied()
            .chain(iter::repeat_n(0, capacity - self.len))
            .collect();
    }

    /// Forgets everything written; the capacity stays.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Keeps the first `len` bytes written; a longer `len` does nothing.
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Sets the length to `new_len`: shortens like
    /// [`truncate`](BytesMut::truncate), or appends copies of `value`,
    /// growing only if `new_len` is past the capacity.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        if let Some(additional) = new_len.checked_sub(self.len) {
            self.reserve(additional);
            let at = self.len;
            self.room()[at..new_len].fill(value);
        }
        self.len = new_len;
    }

    /// Appends `extend`, growing if it does not fit.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.reserve(extend.len());
        let at = self.len;
        self.room()[at..at + extend.len()].copy_from_slice(extend);
        self.len += extend.len();
    }

    /// The whole buffer, writable.
    fn room(&mut self) -> &mut [u8] {
        if self.data.is_empty() {
            // The empty slice is a shared static, and has nothing to write.
            return &mut [];
        }
        Arc::get_mut(&mut self.data).expect("a BytesMut is its buffer's only owner")
    }

    /// What is written, as an immutable [`Bytes`] over the same
    /// allocation: no copy. Room left over stays allocated behind it.
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            start: 0,
            end: self.len,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[..self.len]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        &mut self.room()[..len]
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Write access to a growable byte sink. Multi-byte integers are
/// big-endian.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends `src` behind its length as a [`put_varint`]: the field
    /// [`Reader::bytes`] and [`Reader::str`] read.
    #[inline]
    fn put_prefixed(&mut self, src: &[u8])
    where
        Self: Sized,
    {
        put_varint(self, src.len() as u64);
        self.put_slice(src);
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    // Inlined, like `Reader`: the flow wire writes its varints through it
    // a byte at a time, from another crate.
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Most bytes a [`put_varint`] writes: a `u64` in 7-bit groups.
pub const VARINT_MAX_LEN: usize = 10;

/// Appends `v` as an unsigned LEB128 varint: 7 bits a byte, low group
/// first, the high bit set on every byte but the last. The one varint of
/// the flow wire and the broker's WAL; MQTT's remaining length has its
/// own, shorter rule.
pub fn put_varint(out: &mut impl BufMut, mut v: u64) {
    while v >= 0x80 {
        out.put_u8(v as u8 | 0x80);
        v >>= 7;
    }
    out.put_u8(v as u8);
}

/// Why a [`Reader`] refused its input. Small and `Copy`: a refusal
/// allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// The input ends before the field does.
    Truncated,
    /// A varint carries more bits than its field holds: past 64, or past
    /// the width its caller narrows it to.
    Overlong,
    /// A string is not UTF-8.
    NotUtf8,
    /// A tag byte outside its set: a flag other than 0 or 1, or a kind,
    /// version or option tag the format does not have.
    BadTag(u8),
    /// Bytes are left after the last field.
    Trailing(usize),
}

impl fmt::Display for ReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadError::Truncated => f.write_str("input ends inside a field"),
            ReadError::Overlong => f.write_str("varint wider than its field"),
            ReadError::NotUtf8 => f.write_str("string is not UTF-8"),
            ReadError::BadTag(tag) => write!(f, "bad tag {tag:#04x}"),
            ReadError::Trailing(n) => write!(f, "{n} trailing bytes after the last field"),
        }
    }
}

impl std::error::Error for ReadError {}

/// For decoders whose errors are descriptions.
impl From<ReadError> for String {
    fn from(e: ReadError) -> String {
        e.to_string()
    }
}

/// A cursor over borrowed bytes, and the one reader of the flow wire, the
/// broker's WAL and actuator commands. Every read either returns its field
/// and moves past it or returns a [`ReadError`]; none panics, whatever the
/// input. Each bounds check compares a length with [`Reader::remaining`],
/// so a length read off the input cannot overflow it. After an error the
/// position is unspecified: the caller stops reading.
///
/// Every method is `#[inline]`: the decoders that call them live in other
/// crates and read a field of a few bytes at a time.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { rest: bytes }
    }

    /// Bytes left to read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `len` bytes, borrowed from the input.
    #[inline]
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], ReadError> {
        if len <= self.remaining() {
            let (head, rest) = self.rest.split_at(len);
            self.rest = rest;
            Ok(head)
        } else {
            Err(ReadError::Truncated)
        }
    }

    /// The next `N` bytes, for a `from_le_bytes` or `from_be_bytes`.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], ReadError> {
        let (head, rest) = self.rest.split_first_chunk().ok_or(ReadError::Truncated)?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, ReadError> {
        let (&byte, rest) = self.rest.split_first().ok_or(ReadError::Truncated)?;
        self.rest = rest;
        Ok(byte)
    }

    /// A byte that is 0 or 1.
    #[inline]
    pub fn flag(&mut self) -> Result<bool, ReadError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ReadError::BadTag(tag)),
        }
    }

    /// A varint as [`put_varint`] writes it. One whose 10th byte is above
    /// 1 would lose its high bits, so it is [`ReadError::Overlong`], and
    /// no 11th byte is ever read.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, ReadError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return Err(ReadError::Overlong);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(ReadError::Overlong)
    }

    /// A field [`BufMut::put_prefixed`] wrote: a varint length, then that
    /// many bytes, borrowed from the input.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], ReadError> {
        let len = self.varint()?;
        // A length past `usize` is past the end of any input too.
        self.take(usize::try_from(len).unwrap_or(usize::MAX))
    }

    /// A [`Reader::bytes`] field that must be UTF-8.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, ReadError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| ReadError::NotUtf8)
    }

    /// Ends the read: the input must be used up.
    #[inline]
    pub fn finish(self) -> Result<(), ReadError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(ReadError::Trailing(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_share_one_allocation() {
        let mut b = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert!(Arc::ptr_eq(&b.data, &s.data));
        let head = b.split_to(2);
        let tail = b.split_off(1);
        assert_eq!(
            (&head[..], &b[..], &tail[..]),
            (&[1, 2][..], &[3][..], &[4, 5][..])
        );
        assert!(Arc::ptr_eq(&head.data, &tail.data));
        assert_eq!(b.slice(1..), Bytes::new());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_slice_past_the_end_panics() {
        let _ = Bytes::copy_from_slice(&[1, 2]).slice(1..3);
    }

    #[test]
    fn a_frozen_buffer_is_the_one_it_was_written_in() {
        let mut m = BytesMut::with_capacity(8);
        let at = m.data.as_ptr();
        m.put_u8(0x30);
        m.put_u16(0x1234);
        m.put_slice(b"ab");
        m[0] = 0x32;
        let b = m.freeze();
        assert_eq!(&b[..], &[0x32, 0x12, 0x34, b'a', b'b']);
        assert!(std::ptr::eq(b.as_ptr(), at), "frozen in place");
    }

    #[test]
    fn growth_keeps_what_was_written() {
        let mut m = BytesMut::new();
        assert_eq!(m.capacity(), 0);
        // Nothing into nothing: the shared empty slice is not written.
        m.put_slice(&[]);
        assert!(m.is_empty() && m[..].is_empty());
        for i in 0..100u8 {
            m.put_u8(i);
        }
        assert!(m.capacity() >= 100);
        m.truncate(10);
        m.extend_from_slice(&[7; 3]);
        let mut want: Vec<u8> = (0..10).collect();
        want.extend([7; 3]);
        assert_eq!(m.freeze(), want);
    }

    #[test]
    fn a_view_no_one_else_holds_turns_back_into_its_buffer() {
        let mut m = BytesMut::with_capacity(8);
        m.put_slice(&[1, 2, 3, 4, 5]);
        let mut b = m.freeze();
        let at = b.data.as_ptr();
        let head = b.split_to(2);
        // The head is alive: the allocation is shared.
        let b = b.try_into_mut().expect_err("the head holds the buffer");
        assert_eq!(&b[..], &[3, 4, 5]);
        let tail = b.slice(1..).try_into_mut().expect_err("so does the view");
        assert_eq!(&tail[..], &[4, 5]);
        drop((head, tail));
        // The last view of it: its bytes move to the front, in place.
        let mut m = b.try_into_mut().expect("the only holder");
        assert_eq!((&m[..], m.capacity()), (&[3, 4, 5][..], 8));
        assert!(std::ptr::eq(m.data.as_ptr(), at), "the same allocation");
        m.put_u8(6);
        assert_eq!(m.freeze(), vec![3, 4, 5, 6]);
        // Nothing allocated, nothing shared.
        let empty = Bytes::new().try_into_mut().expect("no allocation");
        assert_eq!(empty.capacity(), 0);
    }

    #[test]
    fn resize_fills_and_shortens_within_the_capacity() {
        let mut m = BytesMut::with_capacity(8);
        let at = m.data.as_ptr();
        m.put_slice(&[1, 2]);
        m.resize(5, 9);
        assert_eq!(&m[..], &[1, 2, 9, 9, 9]);
        m.resize(1, 0);
        assert_eq!(&m[..], &[1]);
        m.resize(8, 0);
        assert_eq!(&m[..], &[1, 0, 0, 0, 0, 0, 0, 0]);
        assert!(std::ptr::eq(m.data.as_ptr(), at), "within the capacity");
        m.resize(9, 7);
        assert!(m.capacity() >= 9);
        assert_eq!(&m[..], &[1, 0, 0, 0, 0, 0, 0, 0, 7]);
        let mut empty = BytesMut::new();
        empty.resize(0, 1);
        assert!(empty.is_empty());
    }

    #[test]
    fn varints_round_trip_and_refuse_what_does_not_fit_64_bits() {
        for v in [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.finish(), Ok(()));
        }
        let tenth = |last: u8| [[0xFF; 9].as_slice(), &[last]].concat();
        assert_eq!(Reader::new(&tenth(0x01)).varint(), Ok(u64::MAX));
        for last in [0x02, 0x7F, 0x81] {
            let got = Reader::new(&tenth(last)).varint();
            assert_eq!(got, Err(ReadError::Overlong), "{last:#04x}");
        }
        let cut_short = Reader::new(&[0x80, 0x80]).varint();
        assert_eq!(cut_short, Err(ReadError::Truncated));
    }

    #[test]
    fn reader_reads_what_is_there_and_refuses_what_is_not() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 9, 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.array().map(u16::from_be_bytes), Ok(2));
        assert_eq!(r.array().map(u32::from_be_bytes), Ok(3));
        assert_eq!(r.array().map(u64::from_be_bytes), Ok(256));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.array::<4>(), Err(ReadError::Truncated));
        assert_eq!(r.clone().finish(), Err(ReadError::Trailing(2)));
        assert_eq!(r.take(3), Err(ReadError::Truncated));
        assert_eq!(r.take(2), Ok(&[9, 9][..]));
        assert_eq!(r.u8(), Err(ReadError::Truncated));
        assert_eq!(r.finish(), Ok(()));

        // Length-prefixed fields and flags, as the writer lays them out.
        let mut w = Vec::new();
        w.put_prefixed("温度".as_bytes());
        w.put_prefixed(&[0xFF]);
        w.extend_from_slice(&[1, 0, 2]);
        let mut r = Reader::new(&w);
        assert_eq!(r.str(), Ok("温度"));
        assert_eq!(r.clone().str(), Err(ReadError::NotUtf8));
        assert_eq!(r.bytes(), Ok(&[0xFF][..]));
        assert_eq!((r.flag(), r.flag()), (Ok(true), Ok(false)));
        assert_eq!(r.flag(), Err(ReadError::BadTag(2)));

        // A length of 2^64 - 1 with eight bytes behind it.
        let lying = [[0xFF; 9].as_slice(), &[0x01], &[0; 8]].concat();
        assert_eq!(Reader::new(&lying).bytes(), Err(ReadError::Truncated));
        assert_eq!(Reader::new(&lying).str(), Err(ReadError::Truncated));
        assert_eq!(String::from(ReadError::BadTag(2)), "bad tag 0x02");
    }
}
