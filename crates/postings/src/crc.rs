//! CRC-32 (ISO-HDLC polynomial, the zlib/PNG variant) — the one
//! checksum of the workspace: WAL records and segment/manifest bodies
//! (`zerber_segment::crc`), socket frames (`zerber_net::framing`) and
//! the files of a rebuild shipment.
//!
//! A torn or bit-flipped tail must be *detected*, not decoded: every
//! durable or framed byte range travels with its checksum, and readers
//! verify before trusting a single field.

/// Slice-by-8 lookup tables for the reflected polynomial
/// `0xEDB88320`, built once at compile time: `TABLES[0]` is the
/// classic byte-at-a-time table and `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight input bytes fold into the
/// running value with eight independent lookups.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let (words, rest) = bytes.as_chunks::<8>();
    for &word in words {
        let word = u64::from_le_bytes(word) ^ u64::from(crc);
        crc = 0;
        for (lane, table) in TABLES.iter().rev().enumerate() {
            crc ^= table[((word >> (8 * lane)) & 0xFF) as usize];
        }
    }
    for &byte in rest {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answer_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the slice-by-8 version replaced.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn slice_by_8_equals_the_bytewise_loop_at_every_length_and_alignment() {
        // xorshift bytes; every length 0..=300 from every start
        // offset 0..8 covers all head/tail remainders.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buffer: Vec<u8> = (0..308)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &buffer[start..start + len];
                assert_eq!(crc32(slice), bytewise(slice), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = b"the quick brown fox".to_vec();
        let reference = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }
}
