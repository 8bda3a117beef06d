//! In-tree big-endian readers and writers for the OpenFlow wire codec.
//!
//! [`Buf`] reads network-order integers and byte runs off the front of a
//! `&[u8]`, and every read checks its own bounds: a read past the end
//! returns [`Underflow`] and never panics, so a decoder needs no
//! hand-sized length guard in front of its reads. [`BufMut`] appends the
//! same encodings to a `Vec<u8>`. Payloads are plain `Arc<[u8]>`; this
//! crate has no buffer type of its own.
//!
//! The crate stays a crate, with its `serde` dependency, only because
//! the benchmark harness's lock file pins it and the edges to it.
//! Folding it into `openflow` waits on the next harness change.

/// A read asked for more bytes than the input had left.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Underflow {
    /// Bytes the read needed.
    pub needed: usize,
    /// Bytes that were left.
    pub available: usize,
}

/// Sequential, bounds-checked big-endian reads from a byte source.
pub trait Buf: Sized {
    /// Splits off the first `cnt` bytes as a source of their own and
    /// advances past them.
    fn split_to(&mut self, cnt: usize) -> Result<Self, Underflow>;

    /// Fills `dst` from the front of the source and advances past it.
    fn copy_to_slice(&mut self, dst: &mut [u8]) -> Result<(), Underflow>;

    /// Skips `cnt` bytes.
    #[inline]
    fn advance(&mut self, cnt: usize) -> Result<(), Underflow> {
        self.split_to(cnt).map(drop)
    }

    #[inline]
    fn get_u8(&mut self) -> Result<u8, Underflow> {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b)?;
        Ok(b[0])
    }

    #[inline]
    fn get_u16(&mut self) -> Result<u16, Underflow> {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b)?;
        Ok(u16::from_be_bytes(b))
    }

    #[inline]
    fn get_u32(&mut self) -> Result<u32, Underflow> {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b)?;
        Ok(u32::from_be_bytes(b))
    }

    #[inline]
    fn get_u64(&mut self) -> Result<u64, Underflow> {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b)?;
        Ok(u64::from_be_bytes(b))
    }
}

impl Buf for &[u8] {
    #[inline]
    fn split_to(&mut self, cnt: usize) -> Result<Self, Underflow> {
        let Some((head, tail)) = self.split_at_checked(cnt) else {
            return Err(Underflow {
                needed: cnt,
                available: self.len(),
            });
        };
        *self = tail;
        Ok(head)
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) -> Result<(), Underflow> {
        dst.copy_from_slice(self.split_to(dst.len())?);
        Ok(())
    }
}

/// Sequential big-endian writes into a byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
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
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 2);

        let mut cursor: &[u8] = &buf;
        assert_eq!(cursor.get_u8(), Ok(0xab));
        assert_eq!(cursor.get_u16(), Ok(0x0102));
        assert_eq!(cursor.get_u32(), Ok(0x0304_0506));
        assert_eq!(cursor.get_u64(), Ok(0x0708_090a_0b0c_0d0e));
        let mut tail = [0u8; 2];
        assert_eq!(cursor.copy_to_slice(&mut tail), Ok(()));
        assert_eq!(&tail, b"xy");
        assert!(cursor.is_empty());
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4];
        let mut cursor: &[u8] = &data;
        assert_eq!(cursor.advance(2), Ok(()));
        assert_eq!(cursor.len(), 2);
        assert_eq!(cursor.get_u8(), Ok(3));
    }

    #[test]
    fn split_to_hands_out_the_prefix() {
        let data = [1u8, 2, 3, 4, 5];
        let mut cursor: &[u8] = &data;
        assert_eq!(cursor.split_to(3), Ok(&data[..3]));
        assert_eq!(cursor, &[4, 5]);
        assert_eq!(cursor.split_to(0), Ok(&[][..]));
    }

    #[test]
    fn underflow_is_an_error_and_consumes_nothing() {
        let mut cursor: &[u8] = &[1u8, 2, 3];
        assert_eq!(
            cursor.get_u32(),
            Err(Underflow {
                needed: 4,
                available: 3
            })
        );
        assert_eq!(
            cursor.split_to(4),
            Err(Underflow {
                needed: 4,
                available: 3
            })
        );
        assert_eq!(
            cursor.advance(4),
            Err(Underflow {
                needed: 4,
                available: 3
            })
        );
        assert_eq!(cursor, &[1, 2, 3]);
        assert_eq!(cursor.get_u16(), Ok(0x0102));
    }
}
