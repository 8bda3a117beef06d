//! In-tree byte buffers.
//!
//! The build environment is offline, so the real `bytes` crate is
//! unavailable; this crate supplies the subset its users need:
//! `Bytes` as an immutable refcounted view supporting zero-copy
//! `slice`, and the `Buf`/`BufMut` traits with the network-order (big
//! endian) read/write methods the OpenFlow wire codec calls, over
//! `&[u8]` and over `Vec<u8>` / `&mut [u8]`. Reads panic on underflow,
//! matching the real crate's contract (callers guard with
//! `remaining()`).

use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Immutable refcounted byte view: an `Arc<[u8]>` — count and bytes in
/// one allocation — plus a window into it. [`slice`](Bytes::slice)
/// shares the backing allocation, so a decoder can hand out payload
/// views into a capture buffer without copying. Equality, ordering, and
/// hashing are over the viewed contents only — a shared slice and an
/// owned copy of the same bytes are equal and hash alike, as with the
/// real crate.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::whole(Arc::from(data))
    }

    fn whole(data: Arc<[u8]>) -> Self {
        let end = data.len();
        Bytes {
            data,
            start: 0,
            end,
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy subview of `range` (indices relative to this view).
    /// Shares the backing allocation; no bytes move.
    ///
    /// # Panics
    ///
    /// Panics when the range is inverted or out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of bounds of {}",
            range.start,
            range.end,
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Shortens the view to `len` bytes, keeping the prefix. No-op when
    /// already shorter. The backing allocation is untouched.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.end = self.start + len;
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bytes").field("data", &&**self).finish()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes::whole(Arc::from(data))
    }
}

/// Collects straight into the shared allocation; an iterator that knows
/// its exact length (slices, `repeat_n`, chains of them) costs one
/// allocation and no copy.
impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::whole(iter.into_iter().collect())
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    // The returned iterator must own its data (`self` is consumed), so
    // the copy into a `Vec` is load-bearing, not `unnecessary_to_owned`.
    #[allow(clippy::unnecessary_to_owned)]
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

/// Serializes exactly like `Vec<u8>` (u64-LE length + raw bytes), so
/// switching a payload field between the two is wire-compatible.
impl Serialize for Bytes {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len() as u64).serialize(out);
        out.extend_from_slice(self);
    }
}

impl Deserialize for Bytes {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        Ok(Bytes::from(Vec::<u8>::deserialize(input)?))
    }
}

/// Sequential big-endian reads from a byte source.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_u16(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_be_bytes(b)
    }

    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    fn get_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

/// Sequential big-endian writes into a byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Writes into the front of the slice and advances past what was
/// written, as with the real crate. Panics when the slice is too short.
impl BufMut for &mut [u8] {
    fn put_slice(&mut self, src: &[u8]) {
        assert!(src.len() <= self.len(), "buffer overflow");
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_big_endian() {
        let mut buf = Vec::new();
        buf.put_u8(0xab);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        buf.put_u64(0x0708_090a_0b0c_0d0e);
        buf.put_slice(b"xy");
        let frozen = Bytes::from(buf);
        assert_eq!(frozen.len(), 1 + 2 + 4 + 8 + 2);

        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.get_u8(), 0xab);
        assert_eq!(cursor.get_u16(), 0x0102);
        assert_eq!(cursor.get_u32(), 0x0304_0506);
        assert_eq!(cursor.get_u64(), 0x0708_090a_0b0c_0d0e);
        let mut tail = [0u8; 2];
        cursor.copy_to_slice(&mut tail);
        assert_eq!(&tail, b"xy");
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn slice_writer_fills_from_the_front() {
        let mut backing = [0u8; 4];
        let mut w = &mut backing[..];
        w.put_u8(1);
        w.put_u16(0x0203);
        assert_eq!(w.len(), 1);
        assert_eq!(backing, [1, 2, 3, 0]);
    }

    #[test]
    fn collects_from_an_iterator() {
        let b: Bytes = [1u8, 2]
            .iter()
            .copied()
            .chain(std::iter::repeat_n(0, 2))
            .collect();
        assert_eq!(&*b, &[1, 2, 0, 0]);
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4];
        let mut cursor: &[u8] = &data;
        cursor.advance(2);
        assert_eq!(cursor.remaining(), 2);
        assert_eq!(cursor.get_u8(), 3);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut cursor: &[u8] = &[1u8];
        let _ = cursor.get_u16();
    }

    #[test]
    fn slice_shares_without_copying() {
        let whole = Bytes::from(b"abcdefgh".to_vec());
        let mid = whole.slice(2..6);
        assert_eq!(&*mid, b"cdef");
        // Slices of slices compose, still against the same backing.
        let inner = mid.slice(1..3);
        assert_eq!(&*inner, b"de");
        assert_eq!(inner, Bytes::copy_from_slice(b"de"));
        // The original view is untouched.
        assert_eq!(&*whole, b"abcdefgh");
    }

    #[test]
    fn equality_and_hash_are_content_based() {
        use std::collections::HashSet;
        let whole = Bytes::from(b"xxyzxx".to_vec());
        let shared = whole.slice(2..4);
        let owned = Bytes::copy_from_slice(b"yz");
        assert_eq!(shared, owned);
        let mut set = HashSet::new();
        set.insert(shared);
        assert!(set.contains(&owned));
    }

    #[test]
    fn truncate_shortens_view() {
        let mut b = Bytes::from(b"abcdef".to_vec()).slice(1..5);
        b.truncate(2);
        assert_eq!(&*b, b"bc");
        b.truncate(10); // longer than the view: no-op
        assert_eq!(&*b, b"bc");
    }

    #[test]
    fn serde_matches_vec_wire_format() {
        let payload = b"payload bytes".to_vec();
        let shared = Bytes::from(b"xx payload bytes".to_vec()).slice(3..16);
        let mut as_vec = Vec::new();
        let mut as_bytes = Vec::new();
        serde::Serialize::serialize(&payload, &mut as_vec);
        serde::Serialize::serialize(&shared, &mut as_bytes);
        assert_eq!(as_vec, as_bytes);
        let back: Bytes = serde::from_slice(&as_bytes).unwrap();
        assert_eq!(back, shared);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![1, 2, 3]);
        let _ = b.slice(1..5);
    }
}
