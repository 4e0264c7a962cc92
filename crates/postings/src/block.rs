//! The block codec: fixed-size groups of postings encoded as varint
//! doc-id deltas plus bit-packed counts and document lengths.
//!
//! Each block carries `(first_doc, last_doc, block_max_score)` skip
//! metadata ([`BlockMeta`]) so readers can decide from the block index
//! alone whether a block can contain a sought document
//! (`advance_to`) or contend for a top-k result (block-max TA) —
//! without decoding the payload.
//!
//! The codec layer works on 64-bit document keys even though the
//! in-memory [`zerber_index::DocId`] is 32-bit today: the on-wire
//! format must survive a wider id space (host ⊕ sequence layouts), so
//! delta decoding is exercised with gaps ≥ 2³² in the property tests.

use crate::varint;

/// Postings per block. 128 keeps a block's decoded form within two
/// cache lines per column while amortizing the per-block metadata to
/// under a bit per posting.
pub const BLOCK_SIZE: usize = 128;

/// One posting at the codec layer: a 64-bit doc key plus the raw
/// occurrence count, document length (the fields of
/// [`zerber_index::Posting`]), and the first position of the term's
/// occurrence run in the document's canonical token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEntry {
    /// Document key, strictly increasing within a list.
    pub doc: u64,
    /// Raw occurrence count of the term in the document.
    pub count: u32,
    /// Document length (term-frequency denominator).
    pub doc_length: u32,
    /// First token position of this term in the document. Under the
    /// canonical token-stream convention (terms laid out in ascending
    /// term-id order, each occupying `count` consecutive slots) the
    /// term's occurrence positions are exactly `pos..pos + count`, so
    /// one u32 carries the whole positional column for phrase
    /// evaluation.
    pub pos: u32,
}

impl RawEntry {
    /// Normalized term frequency `count / doc_length` (0 when the
    /// length is 0), mirroring `Posting::term_frequency`.
    pub fn term_frequency(&self) -> f64 {
        if self.doc_length == 0 {
            0.0
        } else {
            f64::from(self.count) / f64::from(self.doc_length)
        }
    }
}

/// Skip metadata for one encoded block, kept uncompressed in the block
/// index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// Smallest doc key in the block.
    pub first_doc: u64,
    /// Largest doc key in the block.
    pub last_doc: u64,
    /// Maximum normalized term frequency in the block — multiplied by
    /// a term's IDF this is the `block_max_score` bound of block-max
    /// top-k.
    pub max_tf: f64,
    /// Number of postings in the block (1..=[`BLOCK_SIZE`]).
    pub len: u16,
    /// Byte offset of the block payload in the list's data buffer.
    pub offset: usize,
}

/// Errors surfaced while decoding a block payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// A varint was truncated or overflowed 64 bits.
    BadVarint,
    /// The payload ended before all packed fields were read.
    Truncated,
    /// A doc-id delta of zero (duplicate doc) or an overflowing key.
    BadDelta,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadVarint => write!(f, "truncated or overlong varint"),
            DecodeError::Truncated => write!(f, "block payload shorter than declared"),
            DecodeError::BadDelta => write!(f, "non-increasing or overflowing doc key"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// LSB-first bit packer used for the count and doc-length columns.
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    filled: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            out,
            acc: 0,
            filled: 0,
        }
    }

    fn push(&mut self, value: u32, width: u32) {
        debug_assert!(width <= 32);
        debug_assert!(width == 32 || u64::from(value) < (1u64 << width));
        self.acc |= u64::from(value) << self.filled;
        self.filled += width;
        while self.filled >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.filled -= 8;
        }
    }

    fn finish(mut self) {
        if self.filled > 0 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc = 0;
            self.filled = 0;
        }
    }
}

/// LSB-first bit reader matching [`BitWriter`].
struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u64,
    available: u32,
}

impl<'a> BitReader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            acc: 0,
            available: 0,
        }
    }

    fn pull(&mut self, width: u32) -> Result<u32, DecodeError> {
        debug_assert!(width <= 32);
        while self.available < width {
            let byte = *self.input.get(self.pos).ok_or(DecodeError::Truncated)?;
            self.acc |= u64::from(byte) << self.available;
            self.available += 8;
            self.pos += 1;
        }
        let mask = if width == 0 { 0 } else { (1u64 << width) - 1 };
        let value = (self.acc & mask) as u32;
        self.acc >>= width;
        self.available -= width;
        Ok(value)
    }

    /// How many bytes are consumed so far (buffered-but-unread bits count as
    /// consumed — call only at column boundaries after whole-byte
    /// alignment).
    fn bytes_consumed(&self) -> usize {
        self.pos
    }
}

fn bits_for(max: u32) -> u32 {
    32 - max.leading_zeros()
}

/// Encodes one block of postings (sorted by strictly increasing doc
/// key) onto `out`, returning its skip metadata.
///
/// Payload layout, after the three width bytes:
/// varint doc-key gaps for entries 1.. (the first doc lives in the
/// metadata), then the counts bit-packed at the block's count width,
/// then the doc lengths bit-packed at the block's length width, then
/// the run-start positions bit-packed at the block's position width.
pub(crate) fn encode_block(entries: &[RawEntry], out: &mut Vec<u8>) -> BlockMeta {
    assert!(!entries.is_empty() && entries.len() <= BLOCK_SIZE);
    debug_assert!(entries.windows(2).all(|w| w[0].doc < w[1].doc));
    let offset = out.len();
    let count_bits = bits_for(entries.iter().map(|e| e.count).max().expect("non-empty"));
    let length_bits = bits_for(
        entries
            .iter()
            .map(|e| e.doc_length)
            .max()
            .expect("non-empty"),
    );
    let pos_bits = bits_for(entries.iter().map(|e| e.pos).max().expect("non-empty"));
    out.push(count_bits as u8);
    out.push(length_bits as u8);
    out.push(pos_bits as u8);
    for pair in entries.windows(2) {
        varint::write_u64(out, pair[1].doc - pair[0].doc);
    }
    let mut counts = BitWriter::new(out);
    for entry in entries {
        counts.push(entry.count, count_bits);
    }
    counts.finish();
    let mut lengths = BitWriter::new(out);
    for entry in entries {
        lengths.push(entry.doc_length, length_bits);
    }
    lengths.finish();
    let mut positions = BitWriter::new(out);
    for entry in entries {
        positions.push(entry.pos, pos_bits);
    }
    positions.finish();
    BlockMeta {
        first_doc: entries[0].doc,
        last_doc: entries[entries.len() - 1].doc,
        max_tf: entries
            .iter()
            .map(RawEntry::term_frequency)
            .fold(0.0, f64::max),
        len: entries.len() as u16,
        offset,
    }
}

/// Decodes the block at `meta` from the list's data buffer into
/// `out` (cleared first; its contents are unspecified after an error).
/// Returns the number of payload bytes read.
///
/// Every column is written straight into `out` — the gap column seeds
/// the entries, then each bit-packed column fills its field in place —
/// so a caller that reuses one buffer decodes without allocating.
pub(crate) fn decode_block(
    meta: &BlockMeta,
    data: &[u8],
    out: &mut Vec<RawEntry>,
) -> Result<usize, DecodeError> {
    out.clear();
    let len = meta.len as usize;
    let payload = data.get(meta.offset..).ok_or(DecodeError::Truncated)?;
    let [count_bits, length_bits, pos_bits, rest @ ..] = payload else {
        return Err(DecodeError::Truncated);
    };
    let (count_bits, length_bits, pos_bits) = (
        u32::from(*count_bits),
        u32::from(*length_bits),
        u32::from(*pos_bits),
    );
    if count_bits > 32 || length_bits > 32 || pos_bits > 32 {
        return Err(DecodeError::Truncated);
    }
    let mut doc = meta.first_doc;
    let mut cursor = 0usize;
    for i in 0..len {
        if i > 0 {
            let (gap, used) = varint::read_u64(&rest[cursor..]).ok_or(DecodeError::BadVarint)?;
            cursor += used;
            doc = doc.checked_add(gap).ok_or(DecodeError::BadDelta)?;
            if gap == 0 {
                return Err(DecodeError::BadDelta);
            }
        }
        out.push(RawEntry {
            doc,
            count: 0,
            doc_length: 0,
            pos: 0,
        });
    }
    let counts_bytes = (len * count_bits as usize).div_ceil(8);
    let lengths_bytes = (len * length_bits as usize).div_ceil(8);
    let pos_bytes = (len * pos_bits as usize).div_ceil(8);
    let columns = rest.get(cursor..).ok_or(DecodeError::Truncated)?;
    let mut counts = BitReader::new(columns);
    for entry in out.iter_mut() {
        entry.count = counts.pull(count_bits)?;
    }
    debug_assert_eq!(counts.bytes_consumed(), counts_bytes);
    let length_column = columns.get(counts_bytes..).ok_or(DecodeError::Truncated)?;
    let mut lengths = BitReader::new(length_column);
    for entry in out.iter_mut() {
        entry.doc_length = lengths.pull(length_bits)?;
    }
    debug_assert_eq!(lengths.bytes_consumed(), lengths_bytes);
    let pos_column = length_column
        .get(lengths_bytes..)
        .ok_or(DecodeError::Truncated)?;
    let mut positions = BitReader::new(pos_column);
    for entry in out.iter_mut() {
        entry.pos = positions.pull(pos_bits)?;
    }
    Ok(3 + cursor + counts_bytes + lengths_bytes + pos_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(doc: u64, count: u32, doc_length: u32) -> RawEntry {
        RawEntry {
            doc,
            count,
            doc_length,
            pos: (doc % 1000) as u32,
        }
    }

    #[test]
    fn round_trips_a_block() {
        let entries: Vec<RawEntry> = (0..100)
            .map(|i| entry(i * 7 + 3, (i % 13) as u32, 100 + (i % 5) as u32))
            .collect();
        let mut data = Vec::new();
        let meta = encode_block(&entries, &mut data);
        assert_eq!(meta.first_doc, 3);
        assert_eq!(meta.last_doc, 99 * 7 + 3);
        assert_eq!(meta.len, 100);
        let mut decoded = Vec::new();
        let used = decode_block(&meta, &data, &mut decoded).unwrap();
        assert_eq!(used, data.len());
        assert_eq!(decoded, entries);
    }

    #[test]
    fn round_trips_single_entry_and_giant_gaps() {
        let entries = vec![
            entry(5, 1, 10),
            entry(5 + (1u64 << 33), 2, 20),
            entry(u64::MAX - 1, 3, 30),
        ];
        let mut data = Vec::new();
        let meta = encode_block(&entries, &mut data);
        let mut decoded = Vec::new();
        decode_block(&meta, &data, &mut decoded).unwrap();
        assert_eq!(decoded, entries);

        let single = vec![entry(42, 0, 0)];
        let mut data = Vec::new();
        let meta = encode_block(&single, &mut data);
        assert_eq!(meta.max_tf, 0.0);
        let mut decoded = Vec::new();
        decode_block(&meta, &data, &mut decoded).unwrap();
        assert_eq!(decoded, single);
    }

    #[test]
    fn max_tf_bounds_every_entry() {
        let entries = vec![entry(1, 5, 50), entry(2, 9, 10), entry(3, 1, 100)];
        let mut data = Vec::new();
        let meta = encode_block(&entries, &mut data);
        assert!((meta.max_tf - 0.9).abs() < 1e-12);
        assert!(entries.iter().all(|e| e.term_frequency() <= meta.max_tf));
    }

    #[test]
    fn uniform_zero_columns_pack_to_nothing() {
        // All counts, lengths, and positions zero ⇒ zero bit width ⇒
        // only the three width bytes plus the gap varints.
        let entries: Vec<RawEntry> = (1..=64)
            .map(|doc| RawEntry {
                doc,
                count: 0,
                doc_length: 0,
                pos: 0,
            })
            .collect();
        let mut data = Vec::new();
        let meta = encode_block(&entries, &mut data);
        assert_eq!(data.len(), 3 + 63); // 63 one-byte gaps of 1
        let mut decoded = Vec::new();
        decode_block(&meta, &data, &mut decoded).unwrap();
        assert_eq!(decoded, entries);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let entries: Vec<RawEntry> = (1..=10).map(|doc| entry(doc, 3, 7)).collect();
        let mut data = Vec::new();
        let meta = encode_block(&entries, &mut data);
        let mut decoded = Vec::new();
        for cut in 0..data.len() {
            assert!(
                decode_block(&meta, &data[..cut], &mut decoded).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}
