//! LEB128 variable-length integer encoding, shared by the other codecs.

/// Append `value` to `out` as an unsigned LEB128 varint.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write_u64`] appends for `value`.
#[inline]
pub fn len(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).div_ceil(7).max(1)
}

/// Read an unsigned LEB128 varint from `input` starting at `*pos`,
/// advancing `*pos` past it. Returns `None` on truncated or oversized input.
#[inline]
pub fn read_u64(input: &[u8], pos: &mut usize) -> Option<u64> {
    // One-byte fast path: values < 128 dominate delta/RLE streams.
    if let Some(&b) = input.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Some(b as u64);
        }
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Zig-zag encode a signed value so small magnitudes become small varints.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn small_values_encode_in_one_byte() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 42);
        assert_eq!(buf, vec![42]);
    }

    #[test]
    fn truncated_input_returns_none() {
        let buf = vec![0x80, 0x80]; // continuation bits with no terminator
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn overlong_encoding_rejected() {
        // 11 bytes of continuation would exceed 64 bits.
        let buf = vec![0xff; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&buf, &mut pos), None);
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, -1, 1, -2, 2, i64::MIN, i64::MAX, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn zigzag_maps_small_magnitudes_to_small_codes() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }
}
