//! The block codec: fixed-size groups of postings, every column
//! bit-packed at one width per block (frame of reference).
//!
//! A block's payload is four width bytes — doc gap, count, length,
//! position — followed by the packed columns: the `len − 1` doc-key
//! gaps, each stored as `gap − 1` (so a duplicate document cannot be
//! written), then the counts, the document lengths and the run-start
//! positions. A few wide gaps must not widen a whole block (document
//! ids that jump between hosts do that), so the gap column is
//! *patched* when that packs smaller (PFOR): bit 7 of its width byte
//! is set, two bytes after the widths give the exception count and
//! width, and after the gap column come each exception's gap index (one
//! byte) and its high bits, packed. The header bytes, the exception
//! indices and `len` fix every column's offset and the payload's size,
//! so a reader can unpack one column alone (the list check unpacks
//! three); [`DecodedBlock::decode`] unpacks all four.
//!
//! Every column is 32-bit: a doc key is the `u32`
//! [`zerber_index::DocId`] it was built from, and counts, lengths and
//! positions are `u32` too. So no column packs wider than 32 bits, and
//! every value decodes through one per-width unpack loop (`unpack`): an
//! unaligned 8-byte little-endian load, a shift and a mask per value —
//! the scalar form of Lemire & Boytsov, *Decoding billions of integers
//! per second through vectorization* (SPE 2015), whose 32-bit patched
//! codecs this gap column follows. The layout cannot bound what the
//! columns hold — gaps may sum past `u32::MAX` or miss `last_doc`, a
//! posting may score above its list's maximum — so [`check_block`]
//! proves it once, in the one list check, and [`DecodedBlock::decode`]
//! trusts it.
//!
//! Each block carries `(first_doc, last_doc)` skip metadata
//! ([`BlockMeta`]) so a reader can decide from the block index alone
//! whether a block can contain a sought document (the block cursor's
//! `advance_past`) without decoding the payload.

/// Postings per block. 128 keeps a block's decoded form within two
/// cache lines per column while amortizing the per-block metadata to
/// under a bit per posting.
pub const BLOCK_SIZE: usize = 128;

/// One posting at the codec layer: the document's 32-bit key (its
/// [`zerber_index::DocId`]) plus the raw occurrence count, document
/// length (the fields of [`zerber_index::Posting`]), and the first
/// position of the term's occurrence run in the document's canonical
/// token stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEntry {
    /// Document key, strictly increasing within a list.
    pub doc: u32,
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
        term_frequency(self.count, self.doc_length)
    }
}

/// `count / length`, 0 when the length is 0: [`RawEntry::term_frequency`]
/// over a decoded block's columns.
#[inline]
pub(crate) fn term_frequency(count: u32, length: u32) -> f64 {
    if length == 0 {
        0.0
    } else {
        f64::from(count) / f64::from(length)
    }
}

/// Skip metadata for one encoded block: the value of its entry in the
/// list's block index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockMeta {
    /// Smallest doc key in the block.
    pub first_doc: u32,
    /// Largest doc key in the block.
    pub last_doc: u32,
    /// Number of postings in the block (1..=[`BLOCK_SIZE`]).
    pub len: u16,
    /// Byte offset of the block payload in the list's data buffer.
    pub offset: usize,
}

/// Why [`check_block`] refuses a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeError {
    /// The block's posting count is outside 1..=[`BLOCK_SIZE`].
    BadLength,
    /// A width byte exceeds its column's value width.
    BadWidth,
    /// The payload ends before its widths say it does.
    Truncated,
    /// The doc gaps overflow a 32-bit key.
    Overflow,
    /// An exception names a gap the block does not have.
    BadException,
    /// The doc gaps land on another key than the block's `last_doc`.
    WrongLastDoc,
    /// A posting's term frequency exceeds the list's maximum.
    AboveMaximum,
}

impl DecodeError {
    /// The reason, as list validation reports it.
    pub(crate) fn reason(self) -> &'static str {
        match self {
            DecodeError::BadLength => "block length outside 1..=BLOCK_SIZE",
            DecodeError::BadWidth => "block column width out of range",
            DecodeError::Truncated => "block payload past the end of the data",
            DecodeError::Overflow => "doc key overflows 32 bits",
            DecodeError::BadException => "gap exception index out of range",
            DecodeError::WrongLastDoc => "block does not end on its last document",
            DecodeError::AboveMaximum => "posting term frequency above the list maximum",
        }
    }
}

/// The width bytes that open every payload.
const WIDTH_BYTES: usize = 4;

/// The columns in payload order.
const GAPS: usize = 0;
const COUNTS: usize = 1;
const LENGTHS: usize = 2;
const POSITIONS: usize = 3;

/// Widest value of any column, a patched gap's low and high bits
/// together included.
const MAX_WIDTH: u32 = 32;

/// Set in the gap width byte when the block's gap column is patched.
const PATCHED: u8 = 0x80;

fn bits_for(value: u32) -> u32 {
    32 - value.leading_zeros()
}

/// The low `width` bits.
fn mask(width: u32) -> u32 {
    u32::MAX.checked_shr(32 - width).unwrap_or(0)
}

/// How many bytes `values` values take packed at `width` bits.
fn column_bytes(values: usize, width: u32) -> usize {
    (values * width as usize).div_ceil(8)
}

/// A gap column's exceptions: the gaps too wide for the column's
/// width, whose high bits are stored apart.
#[derive(Debug, Clone, Copy, Default)]
struct Exceptions {
    /// How many (0 when the column is not patched).
    count: usize,
    /// Width of their high bits, packed after their indices.
    width: u32,
    /// Offset of their one-byte gap indices in the list's data.
    start: usize,
}

/// Where one block's columns sit in its list's data.
#[derive(Debug, Clone, Copy)]
struct Layout {
    widths: [u32; 4],
    /// Byte offset of each column in the list's data.
    starts: [usize; 4],
    exceptions: Exceptions,
    /// One past the payload's last byte.
    end: usize,
}

impl Layout {
    /// Places the columns of the block at `meta` in its list's `data`
    /// from its width bytes, trusting them: [`check_block`] proves them
    /// before anything else reads the block.
    fn of(meta: &BlockMeta, data: &[u8]) -> Self {
        let len = usize::from(meta.len);
        let header = &data[meta.offset..];
        let mut widths: [u32; 4] = std::array::from_fn(|column| header[column].into());
        let mut at = meta.offset + WIDTH_BYTES;
        let mut exceptions = Exceptions::default();
        if header[GAPS] & PATCHED != 0 {
            widths[GAPS] = u32::from(header[GAPS] & !PATCHED);
            exceptions.count = usize::from(header[WIDTH_BYTES]);
            exceptions.width = u32::from(header[WIDTH_BYTES + 1]);
            at += 2;
        }
        let mut starts = [0; 4];
        for (column, start) in starts.iter_mut().enumerate() {
            *start = at;
            let values = if column == GAPS { len - 1 } else { len };
            at += column_bytes(values, widths[column]);
            if column == GAPS {
                exceptions.start = at;
                at += exceptions.count + column_bytes(exceptions.count, exceptions.width);
            }
        }
        Self {
            widths,
            starts,
            exceptions,
            end: at,
        }
    }

    /// Unpacks the block's `len − 1` stored gaps (each `gap − 1`) into
    /// `out`, the exceptions' high bits included.
    fn gaps(&self, data: &[u8], out: &mut [u32]) {
        self.unpack(data, GAPS, out);
        let exceptions = self.exceptions;
        let indices = &data[exceptions.start..][..exceptions.count];
        let high = &data[exceptions.start + exceptions.count..];
        for (k, &i) in indices.iter().enumerate() {
            out[usize::from(i)] |= read(high, k, exceptions.width) << self.widths[GAPS];
        }
    }

    /// Unpacks `out.len()` values of `column` into `out`. A column runs
    /// to the data's end: a window that reads past it into the next one
    /// is masked off.
    fn unpack(&self, data: &[u8], column: usize, out: &mut [u32]) {
        unpack_column(&data[self.starts[column]..], self.widths[column], out);
    }
}

/// One past the last payload byte of the block at `meta` in its list's
/// `data`, once the block is proven to read back as its index entry
/// says: its length, widths and exception indices in range, its payload
/// inside `data`, its gaps — unpacked into stack scratch, as its counts
/// and lengths are, and summed in `u64` — landing exactly on
/// `last_doc`, and no posting's term frequency above `max_tf`, its
/// list's maximum. The positions are not unpacked.
pub(crate) fn check_block(
    meta: &BlockMeta,
    data: &[u8],
    max_tf: f64,
) -> Result<usize, DecodeError> {
    let len = usize::from(meta.len);
    if !(1..=BLOCK_SIZE).contains(&len) {
        return Err(DecodeError::BadLength);
    }
    let header = data.get(meta.offset..).ok_or(DecodeError::Truncated)?;
    let patched = header.first().is_some_and(|&gaps| gaps & PATCHED != 0);
    if header.len() < WIDTH_BYTES + if patched { 2 } else { 0 } {
        return Err(DecodeError::Truncated);
    }
    let layout = Layout::of(meta, data);
    let (widths, exceptions) = (layout.widths, layout.exceptions);
    let exceptions_fit = (1..len).contains(&exceptions.count)
        && exceptions.width > 0
        && widths[GAPS] + exceptions.width <= MAX_WIDTH;
    if (patched && !exceptions_fit) || widths.iter().any(|&w| w > MAX_WIDTH) {
        return Err(DecodeError::BadWidth);
    }
    if layout.end > data.len() {
        return Err(DecodeError::Truncated);
    }
    let indices = &data[exceptions.start..][..exceptions.count];
    if indices.iter().any(|&i| usize::from(i) >= len - 1) {
        return Err(DecodeError::BadException);
    }
    // The gaps go through the count scratch first.
    let (mut counts, mut lengths) = ([0; BLOCK_SIZE], [0; BLOCK_SIZE]);
    layout.gaps(data, &mut counts[..len - 1]);
    let gaps: u64 = counts[..len - 1].iter().map(|&gap| u64::from(gap)).sum();
    let last = u64::from(meta.first_doc) + gaps + (len - 1) as u64;
    if last > u64::from(u32::MAX) {
        return Err(DecodeError::Overflow);
    }
    if last != u64::from(meta.last_doc) {
        return Err(DecodeError::WrongLastDoc);
    }
    layout.unpack(data, COUNTS, &mut counts[..len]);
    layout.unpack(data, LENGTHS, &mut lengths[..len]);
    let postings = counts[..len]
        .iter()
        .copied()
        .zip(lengths[..len].iter().copied());
    if max_term_frequency(postings) > max_tf {
        return Err(DecodeError::AboveMaximum);
    }
    Ok(layout.end)
}

/// The largest term frequency of `(count, length)` postings (0 for
/// none), exactly that of their largest `count / length`: that one is
/// found by cross-multiplying (each product fits a `u64`), and rounding
/// is monotone, so one division gives the largest quotient.
pub(crate) fn max_term_frequency(postings: impl Iterator<Item = (u32, u32)>) -> f64 {
    let (mut count, mut length) = (0, 1);
    for (c, l) in postings {
        if l > 0 && u64::from(c) * u64::from(length) > u64::from(count) * u64::from(l) {
            (count, length) = (c, l);
        }
    }
    term_frequency(count, length)
}

/// Appends `values` packed LSB-first at `width` bits, zero-padded to
/// a whole byte. The 64-bit accumulator holds under 32 bits before a
/// value goes in, so it flushes four bytes at a time and never
/// overflows.
fn pack(out: &mut Vec<u8>, width: u32, values: impl Iterator<Item = u32>) {
    let (mut acc, mut filled) = (0u64, 0u32);
    for value in values {
        debug_assert!(value & !mask(width) == 0);
        acc |= u64::from(value) << filled;
        filled += width;
        if filled >= 32 {
            out.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            filled -= 32;
        }
    }
    out.extend_from_slice(&acc.to_le_bytes()[..filled.div_ceil(8) as usize]);
}

/// Value `index` of a column packed LSB-first at `width` bits from the
/// start of `src` (which must hold the whole column): an unaligned
/// 8-byte little-endian load, a shift and a mask. A value spans at
/// most 32 + 7 bits, so one load always holds it; only a value whose
/// 8-byte window would pass `src`'s end is read from a zero-padded
/// copy of the tail.
#[inline(always)]
fn read(src: &[u8], index: usize, width: u32) -> u32 {
    if width == 0 {
        return 0;
    }
    let bit = index * width as usize;
    let (tail, shift) = (&src[bit / 8..], bit % 8);
    let word = match tail.first_chunk::<8>() {
        Some(window) => u64::from_le_bytes(*window),
        None => {
            let mut window = [0; 8];
            window[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(window)
        }
    };
    (word >> shift) as u32 & mask(width)
}

/// Unpacks `out.len()` values of `W` bits from the front of `src`.
/// Eight values span exactly `W` bytes, so each group of eight is
/// [`read`] from one `W + 8`-byte slice at constant offsets: one bounds
/// check per group, none per value. The values after the last group
/// whose slice fits are read from `src` one by one.
#[inline(always)]
fn unpack<const W: u32>(src: &[u8], out: &mut [u32]) {
    let width = W as usize;
    let mut unpacked = 0;
    if W > 0 {
        for (group, slots) in out.chunks_exact_mut(8).enumerate() {
            let Some(bytes) = src.get(group * width..group * width + width + 8) else {
                break;
            };
            for (j, slot) in slots.iter_mut().enumerate() {
                *slot = read(bytes, j, W);
            }
            unpacked += 8;
        }
    }
    for (index, slot) in out.iter_mut().enumerate().skip(unpacked) {
        *slot = read(src, index, W);
    }
}

/// [`unpack`] at a width known only at run time: one `match` picks
/// the loop monomorphised for it.
fn unpack_column(src: &[u8], width: u32, out: &mut [u32]) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match width {
                $($w => unpack::<$w>(src, out),)*
                _ => unreachable!("column widths are checked before unpacking"),
            }
        };
    }
    by_width!(
        0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
    )
}

/// The width to pack a block's gaps at, the width of the high bits of
/// the gaps too wide for it and how many those are (0 and 0: none).
/// `wider[w]` counts the gaps whose `gap − 1` takes exactly `w` bits;
/// bit `w` of `present` is set when any does. A patched column pays two
/// header bytes, an index byte per exception and the exceptions' high
/// bits. Only 0 and the widths some gap takes are tried, widest first,
/// and ties keep the wider: between two such widths the exceptions stay
/// the same and a wider low column costs more, so a width in between
/// saves at most the rounding of the two packed columns.
fn gap_widths(gaps: usize, wider: &[u8; 33], present: u64) -> (u32, u32, usize) {
    let top = 63u32.saturating_sub(present.leading_zeros());
    let (mut best, mut best_bytes) = ((top, 0, 0), column_bytes(gaps, top));
    let (mut exceptions, mut above) = (0usize, top);
    while above > 0 {
        exceptions += usize::from(wider[above as usize]);
        let below = present & ((1u64 << above) - 1);
        let width = 63u32.saturating_sub(below.leading_zeros());
        let high = top - width;
        let bytes = column_bytes(gaps, width) + 2 + exceptions + column_bytes(exceptions, high);
        if bytes < best_bytes {
            (best, best_bytes) = ((width, high, exceptions), bytes);
        }
        above = width;
    }
    best
}

/// Encodes one block of postings (sorted by strictly increasing doc
/// key) onto `out`, returning its skip metadata and the block's largest
/// term frequency. One pass over the entries finds all four widths
/// (the OR of a column's values has its maximum's bit length; the gaps
/// are counted by bit length, which picks the gap width and its
/// exceptions), then each column is packed.
pub(crate) fn encode_block(entries: &[RawEntry], out: &mut Vec<u8>) -> (BlockMeta, f64) {
    assert!(!entries.is_empty() && entries.len() <= BLOCK_SIZE);
    debug_assert!(entries.windows(2).all(|w| w[0].doc < w[1].doc));
    let offset = out.len();
    let mut any = [0u32; 4];
    let (mut wider, mut present) = ([0u8; 33], 0u64);
    let mut max_tf = 0.0f64;
    for (i, entry) in entries.iter().enumerate() {
        if i > 0 {
            let bits = bits_for(entry.doc - entries[i - 1].doc - 1);
            wider[bits as usize] += 1;
            present |= 1 << bits;
        }
        any[COUNTS] |= entry.count;
        any[LENGTHS] |= entry.doc_length;
        any[POSITIONS] |= entry.pos;
        max_tf = max_tf.max(entry.term_frequency());
    }
    let mut widths = any.map(bits_for);
    let (high, exceptions);
    (widths[GAPS], high, exceptions) = gap_widths(entries.len() - 1, &wider, present);
    out.extend(widths.map(|w| w as u8));
    let gaps = || entries.windows(2).map(|pair| pair[1].doc - pair[0].doc - 1);
    let low = mask(widths[GAPS]);
    let wide = || gaps().enumerate().filter(move |&(_, gap)| gap & !low != 0);
    if high > 0 {
        out[offset] |= PATCHED;
        out.extend([exceptions as u8, high as u8]);
    }
    pack(out, widths[GAPS], gaps().map(|gap| gap & low));
    if high > 0 {
        out.extend(wide().map(|(i, _)| i as u8));
        pack(out, high, wide().map(|(_, gap)| gap >> widths[GAPS]));
    }
    pack(out, widths[COUNTS], entries.iter().map(|e| e.count));
    pack(out, widths[LENGTHS], entries.iter().map(|e| e.doc_length));
    pack(out, widths[POSITIONS], entries.iter().map(|e| e.pos));
    let meta = BlockMeta {
        first_doc: entries[0].doc,
        last_doc: entries[entries.len() - 1].doc,
        len: entries.len() as u16,
        offset,
    };
    (meta, max_tf)
}

/// One block unpacked into its four columns, reused block after block
/// by a reader. Entries `0..len()` are valid. [`DecodedBlock::decode`]
/// unpacks a compressed block into the columns and
/// [`DecodedBlock::fill`] copies decoded postings in. The columns share
/// one allocation sized to the largest block held, so a reader of a
/// short list allocates once, for its few postings.
#[derive(Debug, Clone, Default)]
pub(crate) struct DecodedBlock {
    len: usize,
    /// Slots per column.
    stride: usize,
    /// The doc, count, length and position columns, `stride` slots
    /// each, end to end.
    columns: Vec<u32>,
}

impl DecodedBlock {
    /// Postings held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn column(&self, column: usize) -> &[u32] {
        &self.columns[column * self.stride..][..self.len]
    }

    /// The doc keys held, ascending.
    pub(crate) fn docs(&self) -> &[u32] {
        self.column(GAPS)
    }

    /// The occurrence counts held.
    pub(crate) fn counts(&self) -> &[u32] {
        self.column(COUNTS)
    }

    /// The document lengths held.
    pub(crate) fn lengths(&self) -> &[u32] {
        self.column(LENGTHS)
    }

    /// The run-start positions held.
    pub(crate) fn positions(&self) -> &[u32] {
        self.column(POSITIONS)
    }

    /// The four columns, in payload order, resized to hold `len`
    /// postings.
    fn columns_mut(&mut self, len: usize) -> [&mut [u32]; 4] {
        if self.stride < len {
            self.stride = len;
            self.columns = vec![0; 4 * len];
        }
        self.len = len;
        let (docs, rest) = self.columns.split_at_mut(self.stride);
        let (counts, rest) = rest.split_at_mut(self.stride);
        let (lengths, positions) = rest.split_at_mut(self.stride);
        [docs, counts, lengths, positions].map(|column| &mut column[..len])
    }

    /// Unpacks the block at `meta` from its list's `data`: the doc
    /// column is one prefix-sum pass over the unpacked gaps. The block
    /// was laid out by this process's builder or proven by
    /// [`check_block`], so nothing is checked here.
    pub(crate) fn decode(&mut self, meta: &BlockMeta, data: &[u8]) {
        let layout = Layout::of(meta, data);
        let [docs, counts, lengths, positions] = self.columns_mut(usize::from(meta.len));
        docs[0] = meta.first_doc;
        layout.gaps(data, &mut docs[1..]);
        let mut doc = meta.first_doc;
        for slot in &mut docs[1..] {
            doc += *slot + 1;
            *slot = doc;
        }
        layout.unpack(data, COUNTS, counts);
        layout.unpack(data, LENGTHS, lengths);
        layout.unpack(data, POSITIONS, positions);
    }

    /// Copies `entries` — at most a block's worth, doc-ascending — into
    /// the columns.
    pub(crate) fn fill(&mut self, entries: &[RawEntry]) {
        let [docs, counts, lengths, positions] = self.columns_mut(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            docs[i] = entry.doc;
            counts[i] = entry.count;
            lengths[i] = entry.doc_length;
            positions[i] = entry.pos;
        }
    }

    /// Entry `i` in full.
    pub(crate) fn entry(&self, i: usize) -> RawEntry {
        debug_assert!(i < self.len);
        let at = |column: usize| self.columns[column * self.stride + i];
        RawEntry {
            doc: at(GAPS),
            count: at(COUNTS),
            doc_length: at(LENGTHS),
            pos: at(POSITIONS),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn entry(doc: u32, count: u32, doc_length: u32) -> RawEntry {
        RawEntry {
            doc,
            count,
            doc_length,
            pos: doc % 1000,
        }
    }

    /// Encodes `entries` alone into a fresh buffer.
    fn encode(entries: &[RawEntry]) -> (BlockMeta, Vec<u8>) {
        let mut data = Vec::new();
        let (meta, _) = encode_block(entries, &mut data);
        (meta, data)
    }

    /// Checks the block at `meta` under a maximum no posting passes.
    fn check(meta: &BlockMeta, data: &[u8]) -> Result<usize, DecodeError> {
        check_block(meta, data, f64::MAX)
    }

    /// Fully decodes the block at `meta`, once [`check`] passes it.
    fn decode(meta: &BlockMeta, data: &[u8]) -> Result<Vec<RawEntry>, DecodeError> {
        check(meta, data)?;
        let mut block = DecodedBlock::default();
        block.decode(meta, data);
        Ok((0..block.len()).map(|i| block.entry(i)).collect())
    }

    #[test]
    fn round_trips_a_block() {
        let entries: Vec<RawEntry> = (0..100)
            .map(|i| entry(i * 7 + 3, i % 13, 100 + i % 5))
            .collect();
        let (meta, data) = encode(&entries);
        assert_eq!(meta.first_doc, 3);
        assert_eq!(meta.last_doc, 99 * 7 + 3);
        assert_eq!(meta.len, 100);
        assert_eq!(check(&meta, &data), Ok(data.len()));
        assert_eq!(decode(&meta, &data).unwrap(), entries);
    }

    #[test]
    fn round_trips_single_entry_and_giant_gaps() {
        let entries = vec![
            entry(5, 1, 10),
            entry(6 + (1 << 31), 2, 20),
            entry(u32::MAX, 3, 30),
        ];
        let (meta, data) = encode(&entries);
        assert_eq!(data[0], 32, "a gap of 2^31 + 1 packs at full width");
        assert_eq!(meta.last_doc, u32::MAX);
        assert_eq!(decode(&meta, &data).unwrap(), entries);

        let single = vec![RawEntry {
            doc: 42,
            count: 0,
            doc_length: 0,
            pos: 0,
        }];
        let mut data = Vec::new();
        let (meta, max_tf) = encode_block(&single, &mut data);
        assert_eq!(max_tf, 0.0);
        assert_eq!(data, [0; 4], "one posting of zeros is its width bytes");
        assert_eq!(decode(&meta, &data).unwrap(), single);
    }

    #[test]
    fn max_tf_bounds_every_entry() {
        let entries = vec![entry(1, 5, 50), entry(2, 9, 10), entry(3, 1, 100)];
        let mut data = Vec::new();
        let (meta, max_tf) = encode_block(&entries, &mut data);
        assert!((max_tf - 0.9).abs() < 1e-12);
        assert!(entries.iter().all(|e| e.term_frequency() <= max_tf));
        // The check holds a block to the maximum it is given.
        assert_eq!(check_block(&meta, &data, max_tf), Ok(data.len()));
        let below = f64::from_bits(max_tf.to_bits() - 1);
        assert_eq!(
            check_block(&meta, &data, below),
            Err(DecodeError::AboveMaximum)
        );
    }

    #[test]
    fn uniform_zero_columns_pack_to_nothing() {
        // Consecutive docs (every gap − 1 is 0) and all counts,
        // lengths and positions zero ⇒ zero bit widths ⇒ only the four
        // width bytes.
        let entries: Vec<RawEntry> = (1..=64)
            .map(|doc| RawEntry {
                doc,
                count: 0,
                doc_length: 0,
                pos: 0,
            })
            .collect();
        let (meta, data) = encode(&entries);
        assert_eq!(data, [0; 4]);
        assert_eq!(decode(&meta, &data).unwrap(), entries);
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let entries: Vec<RawEntry> = (1..=10).map(|doc| entry(doc * 3, 3, 7)).collect();
        let (meta, data) = encode(&entries);
        for cut in 0..data.len() {
            assert!(check(&meta, &data[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn widths_out_of_range_and_overflowing_gaps_are_rejected() {
        let entries: Vec<RawEntry> = (1..=10).map(|doc| entry(doc * 3, 3, 7)).collect();
        let (meta, data) = encode(&entries);
        for column in 0..WIDTH_BYTES {
            let mut bad = data.clone();
            bad[column] = MAX_WIDTH as u8 + 1;
            assert_eq!(check(&meta, &bad), Err(DecodeError::BadWidth));
        }
        let empty = BlockMeta { len: 0, ..meta };
        assert_eq!(check(&empty, &data), Err(DecodeError::BadLength));
        // Gaps summing past u32::MAX.
        let (meta, data) = encode(&[entry(0, 1, 1), entry(u32::MAX, 1, 1)]);
        let late = BlockMeta {
            first_doc: 1,
            ..meta
        };
        assert_eq!(check(&late, &data), Err(DecodeError::Overflow));
    }

    #[test]
    fn hand_built_gaps_past_the_key_space_overflow() {
        // Payloads no builder writes, whose layout is sound: the sum of
        // their gaps refuses them.
        let cases: [(&[u8], u32, u16); 3] = [
            // One full-width gap − 1 of u32::MAX − 1 after doc 1.
            (&[32, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF], 1, 2),
            // Three zero-width gaps (each a step of 1) from u32::MAX − 2.
            (&[0, 0, 0, 0], u32::MAX - 2, 4),
            // A patched gap whose 31 high bits above a 1-bit low column
            // reach 2^32 − 2 after doc 2.
            (
                &[PATCHED | 1, 0, 0, 0, 1, 31, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F],
                2,
                2,
            ),
        ];
        for (data, first_doc, len) in cases {
            let meta = BlockMeta {
                first_doc,
                last_doc: u32::MAX,
                len,
                offset: 0,
            };
            assert_eq!(check(&meta, data), Err(DecodeError::Overflow), "{data:?}");
        }
    }

    #[test]
    fn outlying_gaps_are_patched_not_widened() {
        // 99 consecutive docs, then a jump of 2^24: packing every
        // `gap − 1` at 24 bits would take 300 bytes; the patched column
        // packs them at width 0 and stores the one wide gap apart.
        let mut docs: Vec<u32> = (0..100).collect();
        docs.push(99 + (1 << 24));
        let entries: Vec<RawEntry> = docs.iter().map(|&doc| entry(doc, 1, 1)).collect();
        let (meta, data) = encode(&entries);
        assert_eq!(data[..WIDTH_BYTES + 2], [PATCHED, 1, 1, 9, 1, 24]);
        // Header, no low bits, one index byte and 24 high bits, then
        // counts, lengths and positions.
        let columns = 2 * column_bytes(101, 1) + column_bytes(101, 9);
        assert_eq!(data.len(), WIDTH_BYTES + 2 + 1 + 3 + columns);
        assert_eq!(decode(&meta, &data).unwrap(), entries);
        // An exception index past the gap column fails the check.
        let index = WIDTH_BYTES + 2;
        assert_eq!(data[index], 99);
        for byte in [100, 200, 255] {
            let mut bad = data.clone();
            bad[index] = byte;
            assert_eq!(check(&meta, &bad), Err(DecodeError::BadException));
        }
        // Header bytes out of range fail it too.
        for (at, byte) in [
            (WIDTH_BYTES, 0),
            (WIDTH_BYTES, 101),
            (WIDTH_BYTES + 1, 0),
            (WIDTH_BYTES + 1, 33),
        ] {
            let mut bad = data.clone();
            bad[at] = byte;
            assert_eq!(
                check(&meta, &bad),
                Err(DecodeError::BadWidth),
                "byte {at} = {byte}"
            );
        }
    }

    #[test]
    fn positions_equal_the_full_decode_under_steps_and_seeks() {
        use crate::{CompressedBlockCursor, CompressedPostingBuilder};
        use zerber_index::cursor::BlockCursor;
        use zerber_index::DocId;
        let mut rng = StdRng::seed_from_u64(43);
        for case in 0..300 {
            // Lists of one to five blocks, gaps at a random width with
            // the odd outlier (so some blocks are patched), and
            // positions at every width up to 32 bits.
            let n = rng.random_range(1..=640usize);
            let gap_bits = rng.random_range(0..=16u32);
            let pos_bits = rng.random_range(0..=32u32);
            let mut doc = rng.random_range(0..1000u32);
            let entries: Vec<RawEntry> = (0..n)
                .map(|i| {
                    if i > 0 {
                        let bits = if rng.random_range(0..50u32) == 0 {
                            22
                        } else {
                            gap_bits
                        };
                        doc += 1 + rng.random_range(0..1u32 << bits);
                    }
                    RawEntry {
                        doc,
                        count: rng.random_range(0..20),
                        doc_length: rng.random_range(0..500),
                        pos: rng.random::<u32>() & mask(pos_bits),
                    }
                })
                .collect();
            let list = CompressedPostingBuilder::from_sorted(entries.iter().copied());
            assert_eq!(list.decode_all(), entries, "case {case}");
            let mut cursor = CompressedBlockCursor::new(&list, 1.0);
            let mut bound = 0u32;
            loop {
                let want = entries.iter().find(|e| e.doc >= bound);
                let got = cursor.materialize().map(|(doc, _)| doc.0);
                assert_eq!(got, want.map(|e| e.doc), "case {case} bound {bound}");
                let Some(want) = want else { break };
                assert_eq!(cursor.positions(), (want.pos, want.count), "case {case}");
                if rng.random_range(0..3u32) == 0 {
                    bound = want.doc + rng.random_range(1..400u32);
                    cursor.advance_past(DocId(bound - 1));
                } else {
                    bound = want.doc + 1;
                    cursor.step();
                }
            }
        }
    }

    /// Random sorted entries whose doc gaps, counts, lengths and
    /// positions pack at exactly the given widths (`widths[0]` bounds
    /// `gap − 1`), starting at `first`. `None` when `first` leaves no
    /// room for `n` postings at that gap width.
    fn block_at_widths(
        rng: &mut StdRng,
        n: usize,
        widths: [u32; 4],
        first: u32,
    ) -> Option<Vec<RawEntry>> {
        let value = |rng: &mut StdRng, width: u32| -> u32 {
            match width {
                0 => 0,
                32 => rng.random(),
                w => rng.random_range(0..1u32 << w),
            }
        };
        let mut entries = Vec::with_capacity(n);
        let mut doc = first;
        for i in 0..n {
            if i > 0 {
                // The second entry's gap sets the width exactly; later
                // ones share what room the key space has left.
                let gap = if i > 1 {
                    let room = (u32::MAX - doc) / (n - i) as u32;
                    value(rng, widths[0]).min(room.saturating_sub(1))
                } else if widths[0] == 0 {
                    0
                } else {
                    1 << (widths[0] - 1)
                };
                doc = doc.checked_add(gap)?.checked_add(1)?;
            }
            let field = |rng: &mut StdRng, c: usize| {
                if i == n - 1 {
                    mask(widths[c])
                } else {
                    value(rng, widths[c])
                }
            };
            entries.push(RawEntry {
                doc,
                count: field(rng, 1),
                doc_length: field(rng, 2),
                pos: field(rng, 3),
            });
        }
        Some(entries)
    }

    #[test]
    fn random_blocks_round_trip_at_every_width() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut patched_blocks = 0;
        for gap_width in 0..=MAX_WIDTH {
            for field_width in 0..=32u32 {
                let n = match rng.random_range(0..4u32) {
                    0 => rng.random_range(1..=4usize),
                    1 => BLOCK_SIZE,
                    _ => rng.random_range(1..=BLOCK_SIZE),
                };
                let widths = [
                    gap_width,
                    field_width,
                    rng.random_range(0..=32),
                    rng.random_range(0..=32),
                ];
                let first = if rng.random_range(0..4u32) == 0 {
                    rng.random()
                } else {
                    rng.random_range(0..1u32 << 20)
                };
                let entries = block_at_widths(&mut rng, n, widths, first)
                    .or_else(|| block_at_widths(&mut rng, n, widths, 0))
                    .expect("a block from 0 always fits");
                let (meta, data) = encode(&entries);
                if entries.len() > 1 {
                    // The low width plus the exceptions' high width
                    // spans the widest gap.
                    let patched = data[0] & PATCHED != 0;
                    let high = if patched { data[WIDTH_BYTES + 1] } else { 0 };
                    assert_eq!(u32::from((data[0] & !PATCHED) + high), gap_width);
                    patched_blocks += usize::from(patched);
                }
                // The builder's maximum passes the check.
                let max_tf = entries
                    .iter()
                    .map(RawEntry::term_frequency)
                    .fold(0.0, f64::max);
                let end = check_block(&meta, &data, max_tf).unwrap();
                assert_eq!(end, data.len(), "{widths:?}");
                assert_eq!(decode(&meta, &data).unwrap(), entries, "{widths:?}");
                // Decoding inside a longer buffer reads the same.
                let mut padded = vec![0xA5; 3];
                let (meta, _) = encode_block(&entries, &mut padded);
                padded.extend([0xFF; 11]);
                assert_eq!(decode(&meta, &padded).unwrap(), entries, "{widths:?}");
                for cut in meta.offset..meta.offset + data.len() {
                    assert!(
                        decode(&meta, &padded[..cut]).is_err(),
                        "{widths:?} cut {cut}"
                    );
                }
            }
        }
        assert!(patched_blocks > 100, "{patched_blocks} patched blocks");
        // The largest key behind the widest gap.
        let entries = vec![entry(0, 1, 2), entry(u32::MAX, 3, 4)];
        let (meta, data) = encode(&entries);
        assert_eq!(decode(&meta, &data).unwrap(), entries);
    }
}
