//! The workspace's byte buffer (`crates/bytes`) against a `Vec<u8>`
//! oracle: every view a sequence of `slice`, `split_to`, `split_off`,
//! `truncate`, `clear` and `Reader` reads off its front leaves holds the
//! bytes the oracle says, compares, orders and hashes as those bytes do,
//! and outlives the buffers it was cut from; a `Reader` reads what the
//! oracle holds and refuses to read past its end; a view turns back into
//! a `BytesMut` (`try_into_mut`) over its whole allocation exactly when it
//! is the allocation's last holder; a `BytesMut` grown past its capacity,
//! resized, written through and frozen with room to spare holds what was
//! written.
//!
//! Seeded sweeps on the property runner in `tests/common/check.rs`; a
//! failure prints the case seed that reproduces it.

mod common;

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use bytes::{put_varint, BufMut, Bytes, BytesMut, ReadError, Reader};
use common::check::{check, Gen};

const SEEDS: u64 = 1_000;

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn random_bytes(g: &mut Gen, len: usize) -> Vec<u8> {
    // A small alphabet, so that equal and ordered-by-prefix views happen.
    (0..len).map(|_| g.below(4) as u8).collect()
}

/// A buffer built one of the ways the workspace builds them, with its
/// oracle and the size of its allocation.
fn built(g: &mut Gen) -> (Bytes, Vec<u8>, usize) {
    let len = g.pick(&[0, 1, 2, 7, 64, 300]);
    let want = random_bytes(g, len);
    let (got, capacity) = match g.below(4) {
        0 => (Bytes::copy_from_slice(&want), len),
        1 => (Bytes::from(want.clone()), len),
        2 => (want.iter().copied().collect(), len),
        _ => {
            let capacity = len + g.below(16) as usize;
            let mut m = BytesMut::with_capacity(capacity);
            m.put_slice(&want);
            (m.freeze(), capacity)
        }
    };
    (got, want, capacity)
}

/// `at` in `0..=len`, biased to the ends.
fn cut(g: &mut Gen, len: usize) -> usize {
    match g.below(4) {
        0 => 0,
        1 => len,
        _ => g.below(len as u64 + 1) as usize,
    }
}

fn agree(got: &Bytes, want: &[u8]) -> Result<(), String> {
    if &got[..] != want || got.len() != want.len() || got.is_empty() != want.is_empty() {
        return Err(format!("{got:?} vs {want:?}"));
    }
    if got != want || Vec::from(got.clone()).as_slice() != want {
        return Err(format!("conversions of {got:?}"));
    }
    Ok(())
}

/// One case: views cut from one buffer by a random sequence of steps,
/// every live view checked against its oracle after each.
fn views_case(g: &mut Gen) -> Result<(), String> {
    let (first, want, capacity) = built(g);
    let mut views: Vec<(Bytes, Vec<u8>)> = vec![(first, want)];
    for step in 0..g.len(1, 25) {
        let i = g.below(views.len() as u64) as usize;
        let (b, v) = &mut views[i];
        let len = v.len();
        match g.below(10) {
            0 => {
                let (lo, hi) = (cut(g, len), cut(g, len));
                let (lo, hi) = (lo.min(hi), lo.max(hi));
                let (view, want) = match g.below(4) {
                    0 => (b.slice(lo..hi), &v[lo..hi]),
                    1 => (b.slice(lo..), &v[lo..]),
                    2 => (b.slice(..hi), &v[..hi]),
                    _ if hi > lo => (b.slice(lo..=hi - 1), &v[lo..hi]),
                    _ => (b.slice(..), &v[..]),
                };
                let want = want.to_vec();
                views.push((view, want));
            }
            1 => {
                let at = cut(g, len);
                let head = b.split_to(at);
                let want = v.drain(..at).collect();
                views.push((head, want));
            }
            2 => {
                let at = cut(g, len);
                let tail = b.split_off(at);
                let want = v.split_off(at);
                views.push((tail, want));
            }
            3 => {
                let n = cut(g, len + 2);
                b.truncate(n);
                v.truncate(n);
            }
            4 => {
                b.clear();
                v.clear();
            }
            5 => {
                // A big-endian read of every width off the view's front,
                // refused when there is no room for it; the view then
                // moves past what was read.
                let width = [1usize, 2, 4, 8][g.below(4) as usize];
                let mut r = Reader::new(&b[..]);
                let got = match width {
                    1 => r.array().map(|a| u64::from(u8::from_be_bytes(a))),
                    2 => r.array().map(|a| u64::from(u16::from_be_bytes(a))),
                    4 => r.array().map(|a| u64::from(u32::from_be_bytes(a))),
                    _ => r.array().map(u64::from_be_bytes),
                };
                let want = match v.get(..width) {
                    Some(head) => Ok(head.iter().fold(0u64, |n, &x| n << 8 | u64::from(x))),
                    None => Err(ReadError::Truncated),
                };
                if got != want {
                    return Err(format!("step {step}: read {got:?} vs {want:?}"));
                }
                if got.is_ok() {
                    if r.remaining() != len - width {
                        return Err(format!("step {step}: {} remaining", r.remaining()));
                    }
                    *b = b.slice(width..);
                    v.drain(..width);
                }
            }
            6 => {
                // `take` of a cut that may run past the end; what it
                // borrowed becomes a view of its own.
                let at = cut(g, len + 2);
                let mut r = Reader::new(&b[..]);
                let got = r.take(at).map(<[u8]>::to_vec);
                let want = v.get(..at).map(<[u8]>::to_vec).ok_or(ReadError::Truncated);
                if got != want || (got.is_ok() && r.remaining() != len - at) {
                    return Err(format!("step {step}: take({at}) {got:?} vs {want:?}"));
                }
                if got.is_ok() {
                    let head = b.split_to(at);
                    let want = v.drain(..at).collect();
                    views.push((head, want));
                }
            }
            7 => {
                // A varint and the view as a length-prefixed field, written
                // and read back whole; a strict prefix of them is refused.
                let x = g.next_u64() >> g.below(64);
                let mut w = Vec::new();
                put_varint(&mut w, x);
                w.put_prefixed(&b[..]);
                let mut r = Reader::new(&w);
                let back = (r.varint(), r.bytes(), r.finish());
                if back != (Ok(x), Ok(&v[..]), Ok(())) {
                    return Err(format!("step {step}: {x} and {v:?} read back as {back:?}"));
                }
                let end = g.below(w.len() as u64) as usize;
                let mut r = Reader::new(&w[..end]);
                if let Ok(bytes) = r.varint().and_then(|_| r.bytes()) {
                    return Err(format!("step {step}: {end}-byte prefix read {bytes:?}"));
                }
            }
            8 => {
                // Back into a writer: only the last view of the buffer
                // (every view here shares its one allocation, unless it
                // has none), over the whole allocation, its bytes first.
                // Written over in place, it is the one view again.
                let last = views.len() == 1 || capacity == 0;
                let (b, mut v) = views.swap_remove(i);
                match b.try_into_mut() {
                    Ok(mut m) if last => {
                        if m[..] != v[..] || m.capacity() != capacity {
                            return Err(format!(
                                "step {step}: writer {m:?} of capacity {} vs {v:?} of {capacity}",
                                m.capacity()
                            ));
                        }
                        let (n, x) = (cut(g, capacity), g.below(4) as u8);
                        m.resize(n, x);
                        v.resize(n, x);
                        if m.capacity() != capacity {
                            return Err(format!("step {step}: resize({n}) grew the buffer"));
                        }
                        views.push((m.freeze(), v));
                    }
                    Ok(m) => {
                        return Err(format!(
                            "step {step}: a writer {m:?} while {} other views hold the buffer",
                            views.len()
                        ));
                    }
                    Err(b) if last => return Err(format!("step {step}: no writer from {b:?}")),
                    Err(b) => views.push((b, v)),
                }
            }
            _ => {
                // Drop a view: the others do not depend on it.
                if views.len() > 1 {
                    views.swap_remove(i);
                }
            }
        }
        for (j, (b, v)) in views.iter().enumerate() {
            agree(b, v).map_err(|e| format!("step {step}, view {j}: {e}"))?;
        }
    }
    // Equality, order and hash are the bytes'.
    for (a, va) in &views {
        for (b, vb) in &views {
            if (a == b) != (va == vb)
                || a.cmp(b) != va.cmp(vb)
                || a.partial_cmp(b) != va.partial_cmp(vb)
            {
                return Err(format!("{a:?} against {b:?}"));
            }
        }
        if hash_of(a) != hash_of(&va[..]) {
            return Err(format!("hash of {a:?}"));
        }
    }
    Ok(())
}

#[test]
fn views_hold_what_a_vec_oracle_holds() {
    check("views_hold_what_a_vec_oracle_holds", SEEDS, |g| {
        views_case(g).unwrap_or_else(|e| panic!("{e}"));
    });
}

/// One case: a `BytesMut` written with every kind of write, grown past its
/// capacity, frozen (often with room left over) and cut into views that
/// outlive it; then turned back into a writer once they have let go.
fn writer_case(g: &mut Gen) -> Result<(), String> {
    let mut m = if g.chance(0.3) {
        BytesMut::new()
    } else {
        BytesMut::with_capacity(g.below(40) as usize)
    };
    let mut v: Vec<u8> = Vec::new();
    for step in 0..g.len(1, 17) {
        let before = m.capacity();
        match g.below(8) {
            0 => {
                let n = g.below(70) as usize;
                let bytes = random_bytes(g, n);
                m.extend_from_slice(&bytes);
                v.extend_from_slice(&bytes);
            }
            1 => {
                let x = g.next_u64();
                let width = match g.below(4) {
                    0 => {
                        m.put_u8(x as u8);
                        1
                    }
                    1 => {
                        m.put_u16(x as u16);
                        2
                    }
                    2 => {
                        m.put_u32(x as u32);
                        4
                    }
                    _ => {
                        m.put_u64(x);
                        8
                    }
                };
                v.extend_from_slice(&x.to_be_bytes()[8 - width..]);
            }
            2 => {
                let n = cut(g, v.len() + 2);
                m.truncate(n);
                v.truncate(n);
            }
            3 => {
                m.clear();
                v.clear();
            }
            4 if !v.is_empty() => {
                let i = g.below(v.len() as u64) as usize;
                m[i] ^= 0xFF;
                v[i] ^= 0xFF;
            }
            5 => {
                let more = g.below(100) as usize;
                m.reserve(more);
                if m.capacity() < m.len() + more {
                    return Err(format!("step {step}: reserve({more})"));
                }
            }
            6 => {
                let (n, x) = (cut(g, before + 40), g.next_u64() as u8);
                m.resize(n, x);
                v.resize(n, x);
                if n <= before && m.capacity() != before {
                    return Err(format!("step {step}: resize({n}) within {before} grew"));
                }
            }
            _ => m.put_slice(&[]),
        }
        if m[..] != v[..] || m.len() != v.len() || m.capacity() < m.len() {
            return Err(format!("step {step}: {m:?} vs {v:?}"));
        }
        if m.capacity() < before {
            return Err(format!("step {step}: capacity shrank"));
        }
    }
    let slack = m.capacity() - m.len();
    let frozen = m.freeze();
    agree(&frozen, &v).map_err(|e| format!("frozen with {slack} spare: {e}"))?;
    let (lo, hi) = (cut(g, v.len()), cut(g, v.len()));
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    let view = frozen.slice(lo..hi);
    let whole = frozen.clone();
    drop(frozen);
    // A buffer written next cannot reach the views of this one.
    let mut next = BytesMut::with_capacity(v.len());
    next.put_slice(&vec![0xEE; v.len()]);
    drop(next);
    agree(&view, &v[lo..hi]).map_err(|e| format!("view after the drop: {e}"))?;
    agree(&whole, &v).map_err(|e| format!("clone after the drop: {e}"))?;

    // A writer again only once the view has let go (a buffer of no
    // capacity has nothing to hold), over the same allocation.
    let capacity = v.len() + slack;
    let whole = match whole.try_into_mut() {
        Err(whole) => whole,
        Ok(m) if capacity == 0 => m.freeze(),
        Ok(m) => return Err(format!("a writer {m:?} while a view holds the buffer")),
    };
    agree(&whole, &v).map_err(|e| format!("refused writer: {e}"))?;
    drop(view);
    let mut m = whole
        .try_into_mut()
        .map_err(|b| format!("no writer from the last holder {b:?}"))?;
    if m[..] != v[..] || m.capacity() != capacity {
        return Err(format!("writer {m:?} vs {v:?} with {slack} spare"));
    }
    let n = g.below(capacity as u64 + 1) as usize;
    m.resize(n, 0xAB);
    v.resize(n, 0xAB);
    if m.capacity() != capacity {
        return Err(format!("resize({n}) within {capacity} grew"));
    }
    agree(&m.freeze(), &v).map_err(|e| format!("written again: {e}"))
}

#[test]
fn a_writer_holds_what_was_written_and_freezes_it_in_place() {
    check(
        "a_writer_holds_what_was_written_and_freezes_it_in_place",
        SEEDS,
        |g| {
            writer_case(g).unwrap_or_else(|e| panic!("{e}"));
        },
    );
}
