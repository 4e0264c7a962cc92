//! No frame makes `Message::decode` allocate for a count its bytes
//! cannot back. For every counted field of every live tag — each `Vec`
//! and each string, walked through the frame table
//! (`zerber_net::wire_frames!`) — a frame that declares 2^32 − 1
//! entries and carries none is refused, and no single allocation made
//! while decoding it reaches 4 KiB. The counts nested inside an entry
//! (a document's terms, a share list's id column) get the same check.
//! A counting `#[global_allocator]` (this test binary only) records
//! the largest allocation the decoding thread makes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::{DocId, GroupId, TermId};
use zerber_net::{AuthToken, ListVersion, Message, ShareColumns, StoredShare, WireDocument};

thread_local! {
    /// Whether this thread's allocations are being measured, and the
    /// largest one since measuring began.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if MEASURING.get() {
        LARGEST.set(LARGEST.get().max(bytes));
    }
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counters
// are const-initialised thread-locals without destructors and
// allocate nothing.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Decodes `frame` and returns whether it decoded, with the largest
/// single allocation made meanwhile.
fn decode_measured(frame: &[u8]) -> (bool, usize) {
    LARGEST.set(0);
    MEASURING.set(true);
    let decoded = Message::decode(frame).is_ok();
    MEASURING.set(false);
    (decoded, LARGEST.get())
}

/// No allocation this large may serve a count nothing backs.
const LIMIT: usize = 4 << 10;

/// A value of each field type: the smallest, and for a counted type
/// (a `Vec` or a string) also one with a single entry.
trait Sample: Sized {
    fn sample() -> Self;
    fn one_entry() -> Option<Self> {
        None
    }
}

macro_rules! sample {
    ($($ty:ty = $value:expr),* $(,)?) => {$(
        impl Sample for $ty {
            fn sample() -> Self {
                $value
            }
        }
    )*};
}

sample!(
    u8 = 0,
    u32 = 0,
    u64 = 0,
    f64 = 0.0,
    Fp = Fp::ZERO,
    AuthToken = AuthToken(0),
    PlId = PlId(0),
    ElementId = ElementId(0),
    GroupId = GroupId(0),
    TermId = TermId(0),
    DocId = DocId(0),
    Option<ListVersion> = None,
    ShareColumns = ShareColumns::new(PlId(0)),
    StoredShare = StoredShare {
        element: ElementId(0),
        group: GroupId(0),
        share: Fp::ZERO,
    },
    WireDocument = WireDocument {
        doc: DocId(0),
        group: GroupId(0),
        length: 0,
        terms: Vec::new(),
    },
);

impl Sample for String {
    fn sample() -> Self {
        String::new()
    }
    fn one_entry() -> Option<Self> {
        Some("a".to_string())
    }
}

impl<T: Sample> Sample for Vec<T> {
    fn sample() -> Self {
        Vec::new()
    }
    fn one_entry() -> Option<Self> {
        Some(vec![T::sample()])
    }
}

impl<A: Sample, B: Sample> Sample for (A, B) {
    fn sample() -> Self {
        (A::sample(), B::sample())
    }
}

impl<A: Sample, B: Sample, C: Sample> Sample for (A, B, C) {
    fn sample() -> Self {
        (A::sample(), B::sample(), C::sample())
    }
}

/// `empty`'s encoding cut off at the `u32` count where `grown`'s (the
/// same message with one entry in that field) first differs, followed
/// by a count of 2^32 − 1 and nothing else.
fn bare_count(empty: &Message, grown: &Message) -> Vec<u8> {
    let (empty, grown) = (empty.encode(), grown.encode());
    let differs = (0..).find(|&at| empty[at] != grown[at]).unwrap();
    // A count is big-endian: 0 and 1 differ in its last byte.
    let count = differs - 3;
    assert_eq!(empty[count..count + 4], [0; 4]);
    let mut frame = empty[..count].to_vec();
    frame.extend(u32::MAX.to_be_bytes());
    frame
}

/// Writes [`counted_fields`] from the table's rows.
macro_rules! counted_fields {
    ($(
        $(#[$meta:meta])*
        $tag:literal $name:ident $({ $(
            $(#[$field_meta:meta])*
            $field:ident: $ty:ty $(where len <= $cap:ident else $rule:literal)?
        ),* $(,)? })?
    ),* $(,)?) => {
        /// `(frame, field, bare-count frame)` for every counted field
        /// of every live tag, and how many tags there are.
        fn counted_fields() -> (Vec<(&'static str, &'static str, Vec<u8>)>, usize) {
            let mut frames = Vec::new();
            $($(
                let empty = Message::$name { $($field: <$ty as Sample>::sample()),* };
                $(
                    if let Some(entry) = <$ty as Sample>::one_entry() {
                        let mut grown = empty.clone();
                        if let Message::$name { $field, .. } = &mut grown {
                            *$field = entry;
                        }
                        let frame = bare_count(&empty, &grown);
                        frames.push((stringify!($name), stringify!($field), frame));
                    }
                )*
            )?)*
            (frames, [$(stringify!($name)),*].len())
        }
    };
}

zerber_net::wire_frames!(counted_fields);

#[test]
fn a_count_nothing_backs_allocates_nothing() {
    let (frames, tags) = counted_fields();
    assert_eq!(tags, 21);
    // Eleven `Vec` fields and the two file names.
    assert_eq!(frames.len(), 13);
    for (name, field, frame) in frames {
        let (decoded, largest) = decode_measured(&frame);
        assert!(!decoded, "{name}.{field}: a bare count decoded");
        assert!(largest < LIMIT, "{name}.{field}: {largest} B allocated");
    }
}

#[test]
fn a_nested_count_nothing_backs_allocates_nothing() {
    // One document of 2^32 − 1 terms, none of them there.
    let document = Message::IndexDocs {
        shard: 0,
        docs: vec![WireDocument::sample()],
    };
    let mut terms = document.encode();
    let count = terms.len() - 4;
    terms[count..].copy_from_slice(&u32::MAX.to_be_bytes());
    // One changed share list of 2^56 ids, none of them there.
    let response = Message::QueryResponse {
        lists: vec![ShareColumns::new(PlId(0))],
    };
    let mut ids = response.encode();
    assert_eq!(ids.pop(), Some(0), "the empty id column is its zero count");
    ids.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01]);
    for frame in [terms, ids] {
        let (decoded, largest) = decode_measured(&frame);
        assert!(!decoded);
        assert!(largest < LIMIT, "{largest} B allocated for {frame:02x?}");
    }
}
