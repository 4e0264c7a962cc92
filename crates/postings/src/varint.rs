//! LEB128 variable-length integers and ZigZag signed mapping.
//!
//! The byte-oriented workhorse of the block codec: sorted doc-id
//! deltas are small most of the time, so their LEB128 encodings are
//! one or two bytes, while the format still round-trips the full
//! `u64` range (a 64-bit value needs at most ⌈64 / 7⌉ = 10 bytes).

/// Appends the LEB128 encoding of `value` to `out` and returns the
/// number of bytes written.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) -> usize {
    let mut written = 0;
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        written += 1;
        if value == 0 {
            out.push(byte);
            return written;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 integer from the front of `input`, returning
/// `(value, bytes_consumed)`. Returns `None` on truncated input or an
/// encoding that overflows 64 bits.
pub fn read_u64(input: &[u8]) -> Option<(u64, usize)> {
    let mut value = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 || (shift == 63 && byte & 0x7e != 0) {
            return None; // would overflow u64
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

/// The number of bytes [`write_u64`] emits for `value`.
pub(crate) fn encoded_len(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).div_ceil(7).max(1)
}

/// ZigZag maps a signed integer to an unsigned one with small absolute
/// values staying small — used by the generic column codec, whose
/// deltas may be negative.
pub(crate) fn zigzag(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_boundary_values() {
        for value in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            1 << 62,
            u64::MAX,
        ] {
            let mut buffer = Vec::new();
            let written = write_u64(&mut buffer, value);
            assert_eq!(written, buffer.len());
            assert_eq!(written, encoded_len(value), "value {value}");
            let (decoded, consumed) = read_u64(&buffer).unwrap();
            assert_eq!(decoded, value);
            assert_eq!(consumed, written);
        }
    }

    #[test]
    fn small_values_are_one_byte() {
        let mut buffer = Vec::new();
        write_u64(&mut buffer, 127);
        assert_eq!(buffer.len(), 1);
    }

    #[test]
    fn max_u64_is_ten_bytes() {
        let mut buffer = Vec::new();
        assert_eq!(write_u64(&mut buffer, u64::MAX), 10);
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buffer = Vec::new();
        write_u64(&mut buffer, 1 << 40);
        buffer.pop();
        assert!(read_u64(&buffer).is_none());
        assert!(read_u64(&[]).is_none());
    }

    #[test]
    fn overlong_encoding_is_rejected() {
        // Eleven continuation bytes can never be a valid u64.
        let bad = [0x80u8; 11];
        assert!(read_u64(&bad).is_none());
        // Ten bytes whose final byte carries bits beyond bit 63.
        let mut overflow = vec![0x80u8; 9];
        overflow.push(0x7e);
        assert!(read_u64(&overflow).is_none());
    }

    #[test]
    fn zigzag_round_trips() {
        for value in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(value)), value);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }
}
