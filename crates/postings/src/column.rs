//! A general-purpose integer-column codec with a per-block raw
//! escape, used to demonstrate the paper's Section 7.3 claim
//! empirically: the *same* compressor that shrinks plaintext posting
//! columns several-fold gains nothing on Shamir share columns, whose
//! bytes are computationally indistinguishable from uniform.
//!
//! Encoding: values are split into blocks of `COLUMN_BLOCK`; each
//! block is delta-coded (ZigZag, so unsorted columns still work) and
//! LEB128-encoded, **unless** that would be no smaller than the raw
//! 8-byte little-endian layout, in which case the block is stored raw
//! behind a one-byte tag. The escape bounds expansion at one byte per
//! block — exactly why high-entropy share columns come out at a
//! compression ratio of ≈ 1.0 rather than below it.

use crate::varint;

/// Values per column block.
pub(crate) const COLUMN_BLOCK: usize = 128;

/// Raw bytes per value (`u64` little-endian).
pub(crate) const RAW_COLUMN_BYTES: usize = 8;

const TAG_RAW: u8 = 0;
const TAG_DELTA: u8 = 1;

/// Encodes a `u64` column. The layout is a varint value count
/// followed by tagged blocks.
pub fn encode_column(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len());
    encode_column_into(values, &mut out);
    out
}

/// Appends the [`encode_column`] layout of `values` to `out`. Each
/// block is delta-coded straight into `out` and rolled back to the raw
/// escape if that came out no smaller.
pub fn encode_column_into(values: &[u64], out: &mut Vec<u8>) {
    varint::write_u64(out, values.len() as u64);
    for chunk in values.chunks(COLUMN_BLOCK) {
        let block_start = out.len();
        out.push(TAG_DELTA);
        let mut prev = 0u64;
        for &value in chunk {
            // Wrapping difference + ZigZag: round-trips the full u64
            // range while keeping small moves (of either sign) small.
            varint::write_u64(out, varint::zigzag(value.wrapping_sub(prev) as i64));
            prev = value;
        }
        if out.len() - block_start > chunk.len() * RAW_COLUMN_BYTES {
            out.truncate(block_start);
            out.push(TAG_RAW);
            for &value in chunk {
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
    }
}

/// Decodes a column produced by [`encode_column`]. Returns `None` on
/// malformed input; bytes after the column are ignored.
pub fn decode_column(input: &[u8]) -> Option<Vec<u64>> {
    decode_column_prefix(input).map(|(values, _)| values)
}

/// Decodes the column at the front of `input` and returns it with the
/// number of bytes it occupied. The declared count is checked against
/// the bytes present (a value takes at least one) before anything is
/// allocated for it.
pub fn decode_column_prefix(input: &[u8]) -> Option<(Vec<u64>, usize)> {
    let (count, mut cursor) = varint::read_u64(input)?;
    let count = usize::try_from(count).ok()?;
    if count > input.len() - cursor {
        return None;
    }
    let mut values = vec![0u64; count];
    for block in values.chunks_mut(COLUMN_BLOCK) {
        let tag = *input.get(cursor)?;
        cursor += 1;
        match tag {
            TAG_RAW => {
                let raw = input.get(cursor..cursor + block.len() * RAW_COLUMN_BYTES)?;
                for (value, &bytes) in block.iter_mut().zip(raw.as_chunks::<RAW_COLUMN_BYTES>().0) {
                    *value = u64::from_le_bytes(bytes);
                }
                cursor += raw.len();
            }
            TAG_DELTA => {
                let mut prev = 0u64;
                for value in block {
                    let delta = match input.get(cursor..cursor + 2) {
                        // One- and two-byte deltas (moves under 64 and
                        // under 8 192) alternate unpredictably in an
                        // id column, so they are told apart by
                        // arithmetic, not by a branch.
                        Some(&[low, high]) if low & high & 0x80 == 0 => {
                            let long = u64::from(low >> 7);
                            cursor += 1 + long as usize;
                            u64::from(low & 0x7f) | ((u64::from(high) << 7) * long)
                        }
                        _ => {
                            let (delta, used) = varint::read_u64(input.get(cursor..)?)?;
                            cursor += used;
                            delta
                        }
                    };
                    prev = prev.wrapping_add(varint::unzigzag(delta) as u64);
                    *value = prev;
                }
            }
            _ => return None,
        }
    }
    Some((values, cursor))
}

/// `raw bytes / encoded bytes` for a column (1.0 for an empty one):
/// ≫ 1 for delta-friendly data, ≈ 1.0 (never much below, thanks to
/// the raw escape) for incompressible data.
pub fn compression_ratio(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let raw = values.len() * RAW_COLUMN_BYTES;
    raw as f64 / encode_column(values).len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn round_trips_sorted_and_unsorted_columns() {
        let sorted: Vec<u64> = (0..1000).map(|i| i * 17).collect();
        assert_eq!(decode_column(&encode_column(&sorted)).unwrap(), sorted);
        let mut rng = StdRng::seed_from_u64(7);
        let random: Vec<u64> = (0..1000).map(|_| rng.random()).collect();
        assert_eq!(decode_column(&encode_column(&random)).unwrap(), random);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(decode_column(&encode_column(&empty)).unwrap(), empty);
    }

    #[test]
    fn sorted_small_deltas_compress_well() {
        let column: Vec<u64> = (0..10_000).map(|i| i * 3).collect();
        let ratio = compression_ratio(&column);
        assert!(ratio > 3.0, "ratio {ratio}");
    }

    #[test]
    fn random_columns_stay_within_five_percent_of_raw() {
        let mut rng = StdRng::seed_from_u64(42);
        // 61-bit values, the shape of Shamir share columns.
        let column: Vec<u64> = (0..10_000).map(|_| rng.random::<u64>() >> 3).collect();
        let ratio = compression_ratio(&column);
        assert!((ratio - 1.0).abs() < 0.05, "ratio {ratio}");
        // The escape also bounds adversarial expansion.
        assert!(ratio <= 1.0);
    }

    #[test]
    fn prefix_decoding_reports_the_bytes_the_column_occupied() {
        let mut rng = StdRng::seed_from_u64(3);
        // Three blocks: delta, raw escape, short delta tail.
        let mut column: Vec<u64> = (0..128).map(|i| i * 5).collect();
        column.extend((0..128).map(|_| rng.random::<u64>()));
        column.extend([7, 9]);
        let mut framed = vec![0xAA];
        encode_column_into(&column, &mut framed);
        assert_eq!(framed[1..], encode_column(&column)[..]);
        let column_bytes = framed.len() - 1;
        framed.extend([1, 2, 3]);
        assert_eq!(
            decode_column_prefix(&framed[1..]),
            Some((column, column_bytes))
        );
    }

    #[test]
    fn a_count_the_input_cannot_hold_is_rejected_before_allocating() {
        let mut huge = Vec::new();
        varint::write_u64(&mut huge, u64::MAX >> 1);
        huge.extend([TAG_DELTA, 0, 0]);
        assert!(decode_column(&huge).is_none());
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(decode_column(&[]).is_none());
        // Declared count with no payload.
        let mut truncated = Vec::new();
        varint::write_u64(&mut truncated, 5);
        assert!(decode_column(&truncated).is_none());
        // Unknown tag.
        let mut bad_tag = Vec::new();
        varint::write_u64(&mut bad_tag, 1);
        bad_tag.push(9);
        assert!(decode_column(&bad_tag).is_none());
    }
}
