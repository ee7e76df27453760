//! Little-endian fixed and varint byte coding.
//!
//! All wire/table formats in this workspace are hand-rolled little-endian —
//! an RDMA-resident format would never pay a general-purpose serializer on
//! the hot path.

use crate::{Result, SstError};

/// Append a fixed 32-bit LE integer.
#[inline]
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a fixed 64-bit LE integer.
#[inline]
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// The `N` bytes at `off`. The offset may come from untrusted bytes, so no
/// sum is formed from it: any value, `usize::MAX` included, is an error,
/// never an overflow.
#[inline]
fn fixed<const N: usize>(buf: &[u8], off: usize) -> Result<[u8; N]> {
    buf.get(off..)
        .and_then(<[u8]>::first_chunk)
        .copied()
        .ok_or_else(|| SstError::Corrupt(format!("{N}-byte integer at {off} out of range")))
}

/// Read a fixed 32-bit LE integer at `off`.
#[inline]
pub fn get_u32(buf: &[u8], off: usize) -> Result<u32> {
    fixed(buf, off).map(u32::from_le_bytes)
}

/// Read a fixed 64-bit LE integer at `off`.
#[inline]
pub fn get_u64(buf: &[u8], off: usize) -> Result<u64> {
    fixed(buf, off).map(u64::from_le_bytes)
}

/// Append a LEB128 varint (u64).
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decode a varint at `off`; returns `(value, bytes_consumed)`.
#[inline]
pub fn get_varint(buf: &[u8], off: usize) -> Result<(u64, usize)> {
    let mut shift = 0u32;
    let mut out = 0u64;
    for (i, &b) in buf.get(off..).unwrap_or(&[]).iter().enumerate() {
        if shift > 63 {
            return Err(SstError::Corrupt("varint too long".into()));
        }
        out |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((out, i + 1));
        }
        shift += 7;
    }
    Err(SstError::Corrupt(format!("truncated varint at {off}")))
}

/// Append a length-prefixed byte slice (u32 length).
#[inline]
pub fn put_len_prefixed(buf: &mut Vec<u8>, data: &[u8]) {
    put_u32(buf, data.len() as u32);
    buf.extend_from_slice(data);
}

/// Read a length-prefixed slice at `off`; returns `(slice, bytes_consumed)`.
#[inline]
pub fn get_len_prefixed(buf: &[u8], off: usize) -> Result<(&[u8], usize)> {
    let len = get_u32(buf, off)? as usize;
    let start = off + 4;
    let data = buf
        .get(start..start + len)
        .ok_or_else(|| SstError::Corrupt(format!("len-prefixed slice at {off} truncated")))?;
    Ok((data, 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_roundtrip() {
        let mut b = Vec::new();
        put_u32(&mut b, 0xDEAD_BEEF);
        put_u64(&mut b, u64::MAX - 3);
        assert_eq!(get_u32(&b, 0).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&b, 4).unwrap(), u64::MAX - 3);
        assert!(get_u64(&b, 8).is_err());
    }

    #[test]
    fn offsets_near_usize_max_are_corrupt_not_an_overflow() {
        let b = [0u8; 16];
        for off in [usize::MAX - 2, usize::MAX - 7, usize::MAX] {
            assert!(matches!(get_u32(&b, off), Err(SstError::Corrupt(_))), "{off}");
            assert!(matches!(get_u64(&b, off), Err(SstError::Corrupt(_))), "{off}");
            assert!(get_len_prefixed(&b, off).is_err());
        }
        assert!(get_u32(&b, 13).is_err() && get_u32(&b, 12).is_ok());
    }

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64, u64::MAX];
        let mut b = Vec::new();
        for &v in &values {
            put_varint(&mut b, v);
        }
        let mut off = 0;
        for &v in &values {
            let (got, n) = get_varint(&b, off).unwrap();
            assert_eq!(got, v);
            off += n;
        }
        assert_eq!(off, b.len());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut b = Vec::new();
        put_varint(&mut b, u64::MAX);
        assert!(get_varint(&b[..b.len() - 1], 0).is_err());
        assert!(get_varint(&[], 0).is_err());
    }

    #[test]
    fn len_prefixed_roundtrip() {
        let mut b = Vec::new();
        put_len_prefixed(&mut b, b"hello");
        put_len_prefixed(&mut b, b"");
        let (s1, n1) = get_len_prefixed(&b, 0).unwrap();
        assert_eq!(s1, b"hello");
        let (s2, n2) = get_len_prefixed(&b, n1).unwrap();
        assert_eq!(s2, b"");
        assert_eq!(n1 + n2, b.len());
        assert!(get_len_prefixed(&b, 2).is_err());
    }
}
