//! Binary wire formats for the Zerber RPCs.
//!
//! The server interface is deliberately narrow (Section 5): "providing
//! only a narrow interface to the outside world (i.e., only insert,
//! delete, and look up posting list elements)". Each message encodes to
//! a length-exact byte buffer so the bandwidth experiments of Section
//! 7.3 measure real serialized sizes rather than estimates.
//!
//! # Wire formats
//!
//! Two posting payload encodings exist in the stack:
//!
//! * **Share columns (this module).** A [`Message::Query`] names, per
//!   merged list, the [`ListVersion`] the client already holds, if
//!   any. A [`Message::QueryResponse`] carries, per requested list,
//!   one [`ShareColumns`] stamped with the list's version and the
//!   server's refresh round: either "unchanged" (the client's version
//!   is current, no rows follow) or the element-id column and the
//!   y-share column of the runs the caller may read, and no group
//!   column (the client never read it). The routing column
//!   compresses — ids are `owner << 40 | sequence`, monotone within a
//!   `(list, group)` run — so it goes through
//!   `zerber_postings::column`, the codec the `compression`
//!   experiment measures. The y column does not: shares are
//!   near-uniform field elements (`crate::entropy` measures ≈ 8
//!   bits/byte), re-coding them buys nothing, which is the paper's
//!   Section 7.3 claim, so they go out raw. Byte by byte:
//!
//!   ```text
//!   request:  tag u8 = 28 | auth u64 | list count u32
//!             per list:  pl u32 | held u8: 0 → no version follows
//!                                          1 → content LEB128 | membership LEB128
//!   response: tag u8 = 29 | list count u32
//!             per list:  pl u32 | content LEB128 | membership LEB128
//!                        | round LEB128 | state u8: 0 → unchanged, no rows
//!                                                   1 → rows follow
//!                        id column:    LEB128 count
//!                                      per ≤ 128 ids: tag u8
//!                                        1 → ZigZag LEB128 deltas (first from 0)
//!                                        0 → ids raw, 8 B little-endian each
//!                        share column: count × u64 big-endian, each < p
//!   ```
//!
//!   Every LEB128 is minimal. One count serves both columns, so they
//!   cannot disagree in length. [`Message::InsertBatch`] still ships
//!   [`StoredShare`]s row by row (element id 8 B + group id 4 B +
//!   y-share 8 B).
//!
//! * **Block-compressed plaintext postings (`zerber-postings`).**
//!   Baseline engines ship plaintext posting lists, which do
//!   compress. Their payload format, defined by
//!   `zerber_postings::block` and reused here for baseline wire-size
//!   accounting (`crate::sizes::SizeModel::compressed_response_bytes`),
//!   is a sequence of ≤ 128-posting blocks:
//!
//!   ```text
//!   block index entry: first_doc | last_doc | len
//!   block payload:     gap_bits u8 (bit 7: patched) | count_bits u8
//!                      | length_bits u8 | position_bits u8
//!                      | [exception count u8 | exception bits u8]   (patched)
//!                      | doc-key gaps − 1, bit-packed at gap_bits (len − 1)
//!                      | [exception gap indices u8 each
//!                      |  | their high bits, bit-packed]            (patched)
//!                      | counts, bit-packed at count_bits
//!                      | doc lengths, bit-packed at length_bits
//!                      | run-start positions, bit-packed at position_bits
//!   per list:          one maximum term frequency
//!   ```
//!
//!   The `(first_doc, last_doc)` pair is skip metadata: a reader seeks
//!   (the block cursor's `advance_past`) from the block index without
//!   decoding payloads.
//!   The list maximum times a term's IDF bounds every score the list
//!   contributes — the σ bound MaxScore partitions lists by.

use zerber_core::{ElementId, PlId};
use zerber_field::{Fp, MODULUS};
use zerber_index::{DocId, Document, GroupId, TermId};
use zerber_postings::column::{decode_column_prefix, encode_column_into};
use zerber_postings::varint;

/// An opaque authentication token (the enterprise authentication
/// service of Section 5.4.2 is a black box to Zerber).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AuthToken(pub u64);

/// One stored/transported share of a posting element: the clear-text
/// routing fields plus the confidential y-share.
///
/// This is the `{g_id, e(doc, term, tf)}` pair of the query-response
/// format in Section 5.4.2, with `g_id` the global element ID and the
/// group id attached for ACL enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredShare {
    /// Global element id, identical across all n servers for one
    /// element — "tell users which shares to merge together".
    pub element: ElementId,
    /// Group that may read this element.
    pub group: GroupId,
    /// The Shamir y-share of the encoded `[doc, term, tf]` triple.
    pub share: Fp,
}

/// What a server stamps on every list it answers: how often the list
/// changed there, and how often the reader's groups did. Both counts
/// only grow, so a list whose version is unchanged holds exactly the
/// rows it held, for the same reader; honest servers apply the same
/// writes and membership changes, so they agree on it. A proactive
/// refresh changes shares, never secrets, and bumps neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct ListVersion {
    /// Shares inserted into and deleted from the list on this server.
    pub content: u64,
    /// Group memberships the requesting user gained or lost on this
    /// server.
    pub membership: u64,
}

/// One merged posting list of a [`Message::QueryResponse`]: the
/// element ids and y-shares the caller may read, as two parallel
/// columns, stamped with the list's [`ListVersion`] and the server's
/// refresh round. Row `i` is the share `shares()[i]` of element
/// `elements()[i]`; the columns are private so they cannot differ in
/// length. An [`unchanged`](Self::unchanged) answer holds no rows: the
/// list is still at the version the client named.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareColumns {
    /// The merged posting list these columns belong to.
    pub pl: PlId,
    /// The list's version the answer was read at.
    pub version: ListVersion,
    /// How many proactive refreshes the answering server had applied:
    /// shares of one element from servers at different rounds do not
    /// lie on one polynomial.
    pub round: u64,
    unchanged: bool,
    elements: Vec<u64>,
    shares: Vec<Fp>,
}

impl ShareColumns {
    /// The empty answer for one list, unstamped.
    pub fn new(pl: PlId) -> Self {
        Self::with_capacity(pl, 0)
    }

    /// The empty answer for one list, with room for `rows` rows.
    pub fn with_capacity(pl: PlId, rows: usize) -> Self {
        Self {
            pl,
            version: ListVersion::default(),
            round: 0,
            unchanged: false,
            elements: Vec::with_capacity(rows),
            shares: Vec::with_capacity(rows),
        }
    }

    /// The answer "still at `version`": no rows, a few bytes on the
    /// wire.
    pub fn unchanged(pl: PlId, version: ListVersion, round: u64) -> Self {
        Self {
            version,
            round,
            unchanged: true,
            ..Self::new(pl)
        }
    }

    /// These columns, stamped with `version` and `round`.
    pub fn stamped(self, version: ListVersion, round: u64) -> Self {
        Self {
            version,
            round,
            ..self
        }
    }

    /// Whether this is an [`unchanged`](Self::unchanged) answer.
    pub fn is_unchanged(&self) -> bool {
        self.unchanged
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics on an unchanged answer.
    pub fn push(&mut self, element: ElementId, share: Fp) {
        assert!(!self.unchanged, "an unchanged answer holds no rows");
        self.elements.push(element.0);
        self.shares.push(share);
    }

    /// Appends a run of rows held as columns already.
    ///
    /// # Panics
    /// Panics if the two columns differ in length, or on an unchanged
    /// answer.
    pub fn extend_from_columns(&mut self, elements: &[u64], shares: &[Fp]) {
        assert!(!self.unchanged, "an unchanged answer holds no rows");
        assert_eq!(elements.len(), shares.len(), "one share per element id");
        self.elements.extend_from_slice(elements);
        self.shares.extend_from_slice(shares);
    }
    /// Rows held.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the list has no readable element.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// The element-id column ([`ElementId`] values, unwrapped so two
    /// servers' columns compare as one slice equality).
    pub fn elements(&self) -> &[u64] {
        &self.elements
    }

    /// The y-share column.
    pub fn shares(&self) -> &[Fp] {
        &self.shares
    }

    /// The rows, in column order.
    pub fn rows(&self) -> impl Iterator<Item = (ElementId, Fp)> + '_ {
        self.elements
            .iter()
            .zip(&self.shares)
            .map(|(&element, &share)| (ElementId(element), share))
    }
}

/// One plaintext document as shipped to a shard peer by
/// [`Message::IndexDocs`]: exactly the fields of
/// `zerber_index::Document`, kept as a separate wire struct so the
/// protocol layer owns its own layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDocument {
    /// Global document id.
    pub doc: DocId,
    /// Owning collaboration group.
    pub group: GroupId,
    /// Token length (term-frequency denominator).
    pub length: u32,
    /// Distinct terms with raw occurrence counts, sorted by term id.
    pub terms: Vec<(TermId, u32)>,
}

/// The two frames that carry a document batch, encoded straight from
/// the caller's borrowed [`Document`]s: a write fan-out ships a batch
/// it does not own without first copying every document into a
/// [`Message`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocumentFrame {
    /// A [`Message::IndexDocs`] frame.
    IndexDocs,
    /// A [`Message::BulkLoad`] frame.
    BulkLoad,
}

impl DocumentFrame {
    /// The frame for `shard` carrying `docs`, in one buffer of exactly
    /// its size: byte for byte what [`Message::encode`] writes for the
    /// same batch held as [`WireDocument`]s.
    pub fn encode(self, shard: u32, docs: &[&Document]) -> Vec<u8> {
        let tag = match self {
            DocumentFrame::IndexDocs => tag::IndexDocs,
            DocumentFrame::BulkLoad => tag::BulkLoad,
        };
        // Five bytes now, then exactly the batch's size once it is known.
        let mut buffer = Vec::new();
        (tag, shard).put(&mut buffer);
        put_document_batch(&mut buffer, docs, |doc| {
            (doc.id, doc.group, doc.length, &doc.terms)
        });
        buffer
    }
}

/// Generates [`Message`], its tag bytes, [`Message::encode`] and
/// [`Message::decode`] from the rows of [`wire_frames!`]: each field is
/// written and read in row order through its type's [`Wire`] impl.
macro_rules! message_codec {
    ($(
        $(#[$meta:meta])*
        $tag:literal $name:ident $({ $(
            $(#[$field_meta:meta])*
            $field:ident: $ty:ty $(where len <= $cap:ident else $rule:literal)?
        ),* $(,)? })?
    ),* $(,)?) => {
        /// Every message of the Zerber wire protocol.
        #[derive(Debug, Clone, PartialEq)]
        pub enum Message {
            $($(#[$meta])* $name $({ $($(#[$field_meta])* $field: $ty,)* })?,)*
        }

        /// Each frame's tag byte, named after its variant.
        #[allow(non_upper_case_globals)]
        mod tag {
            $(pub(super) const $name: u8 = $tag;)*
        }

        impl Message {
            /// Serializes the message into the buffer a transport sends: the
            /// caller owns it and nothing downstream needs another type.
            pub fn encode(&self) -> Vec<u8> {
                // Room for a query and its top-10 answer: the frames of the
                // read path never regrow, the bulky ones grow or reserve below.
                let mut buffer: Vec<u8> = Vec::with_capacity(256);
                match self {
                    $(Message::$name $({ $($field),* })? => {
                        buffer.push(tag::$name);
                        $($($field.put(&mut buffer);)*)?
                    })*
                }
                buffer
            }

            /// Deserializes a message. The frame must fill `buffer` exactly:
            /// a byte after the message is a second spelling of it, and fails.
            pub fn decode(mut buffer: &[u8]) -> Result<Self, WireError> {
                let message = match u8::take(&mut buffer)? {
                    $(tag::$name => Message::$name $({ $($field: {
                        // A count above its cap fails first, bytes or not.
                        $(if buffer.first_chunk().is_some_and(|n| u32::from_be_bytes(*n) as usize > $cap) {
                            return Err(WireError::Malformed($rule));
                        })?
                        Wire::take(&mut buffer)?
                    }),* })?,)*
                    other => return Err(WireError::UnknownTag(other)),
                };
                if !buffer.is_empty() {
                    return Err(WireError::Malformed("bytes after the message"));
                }
                Ok(message)
            }
        }
    };
}

// Retired tags, never to be reused — an old client's frame has to keep
// failing to decode: 3, the share request that named no version; 4,
// once `TAG_RESPONSE`, the row-wise share response that spent 12 of
// every 20 bytes on clear-text routing fields; 5 and 6, the snippet
// frames no service ever answered (snippets are served by direct
// call); 7, the pre-`PlanQuery` ranked-read frame; 17, the snapshot
// manifest that carried the store's epoch; 20, the install frame that
// multiplexed three steps; 23, the share response that carried no
// version and no refresh round.

/// The wire protocol's frame table: one row per [`Message`](crate::Message)
/// variant, `tag Name { field: Type, .. }` with its doc comments, fields
/// in wire order. A `Vec` field's count is checked against the bytes
/// left before anything is allocated for it; `where len <= CAP else
/// "rule"` refuses a larger count first, as malformed. Invokes
/// `$callback!` with the rows, so code outside this crate (the codec's
/// property tests) can walk every frame; the callback site imports the
/// types the rows name.
#[macro_export]
macro_rules! wire_frames {
    ($callback:ident) => {
        $callback! {
            /// Owner → server: insert a batch of element shares (Section 5.4.1
            /// batching).
            1 InsertBatch {
                /// Target posting list per entry.
                entries: Vec<(PlId, StoredShare)>,
            },
            /// Owner → server: delete elements by id. Element-wise because the
            /// server cannot see document ids: "To delete a document, its
            /// owner must delete each element separately" (Section 7.3).
            2 Delete {
                /// `(list, element)` pairs to remove.
                elements: Vec<(PlId, ElementId)>,
            },
            /// User → server: fetch the accessible parts of these posting
            /// lists. The user "does not divulge which terms she is querying",
            /// only list ids, each with the version of it she already holds,
            /// if any: the server answers a list still at that version
            /// "unchanged".
            28 Query {
                /// Authentication token.
                auth: AuthToken,
                /// Requested merged posting lists, each with the version the
                /// client holds.
                lists: Vec<(PlId, Option<ListVersion>)>,
            },
            /// Server → user: per-list share columns, ACL-filtered and
            /// stamped.
            29 QueryResponse {
                /// One entry per requested list, in request order.
                lists: Vec<ShareColumns>,
            },
            /// User → shard peer: rank the top `k` documents for a weighted
            /// term query (the sharded plaintext serving path of the peer
            /// runtime) — the one ranked-read frame. It carries the query
            /// shape and an evaluator override, so it serves disjunctive,
            /// conjunctive, and phrase evaluation alike. The shape and override
            /// are raw bytes here (this crate stays independent of the query
            /// crate); the serving layer converts them. Weights are the
            /// per-term IDF factors computed from *global* collection
            /// statistics, shipped as exact `f64` bit patterns so every shard
            /// scores with bit-identical floats. The peer answers with a
            /// [`Message::TopKResponse`].
            15 PlanQuery {
                /// Which logical shard this peer should answer from. Under
                /// replication a peer hosts several shard stores; the id
                /// routes the query to the right one and lets any replica of
                /// a shard serve the identical request.
                shard: u32,
                /// Query shape: 0 = disjunctive terms, 1 = conjunctive AND,
                /// 2 = exact phrase. Anything else is malformed.
                shape: u8,
                /// The retired disjunctive evaluator override: always 0. The
                /// values 1 and 2 once pinned evaluators that no longer exist;
                /// a peer answers them, like any other value, as malformed.
                /// The codec carries the byte without interpreting it.
                forced: u8,
                /// How many ranked results to return.
                k: u32,
                /// Query slots with their global IDF weights — phrase order
                /// (duplicates allowed) for the phrase shape.
                terms: Vec<(TermId, f64)>
                    where len <= MAX_QUERY_SLOTS else "more query slots than MAX_QUERY_SLOTS",
            },
            /// Shard peer → user: the shard-local top-k, sorted by score
            /// descending then document id ascending — the sorted-access order
            /// the gather stage's threshold bound relies on. The response also
            /// carries the peer-side execution stats (decode wall clock and
            /// block accounting), so the client can assemble a complete
            /// per-query span tree even when the peer is a separate process
            /// behind the socket transport.
            8 TopKResponse {
                /// Peer-side wall clock of the top-k evaluation, nanoseconds
                /// (measured on the peer's own clock; meaningful as a
                /// duration, not as an offset).
                decode_ns: u64,
                /// Posting blocks the peer actually decompressed.
                blocks_decoded: u32,
                /// Posting blocks present across the query's lists (what an
                /// eager evaluation would decode).
                blocks_total: u32,
                /// Ranked `(doc, score)` candidates, at most `k` of them.
                candidates: Vec<(DocId, f64)>,
            },
            /// Owner → shard peer: index a batch of plaintext documents (the
            /// mutable-shard ingest path of the peer runtime). Unlike share
            /// inserts, the peer sees the documents in the clear — this frame
            /// belongs to the *plaintext baseline* serving engine only.
            12 IndexDocs {
                /// The logical shard these documents belong to (writes fan to
                /// every replica of the shard; each applies them to its copy).
                shard: u32,
                /// Documents to index; re-sent document ids replace the
                /// previous version ("only the most recent copy").
                docs: Vec<WireDocument>,
            },
            /// Owner → shard peer: bulk-load a batch of plaintext documents
            /// through the offline bulk path — same payload as
            /// [`Message::IndexDocs`], but the peer indexes it WAL-free
            /// (term-partitioned workers compress each list once, one atomic
            /// manifest swap) instead of journaling it. Replicas each build
            /// their own copy; like every write, the frame fans to all replicas
            /// of the shard.
            14 BulkLoad {
                /// The logical shard these documents belong to.
                shard: u32,
                /// Documents to load; re-sent document ids replace the
                /// previous version ("only the most recent copy").
                docs: Vec<WireDocument>,
            },
            /// Owner → shard peer: remove one document and all its postings.
            13 RemoveDoc {
                /// The logical shard the document lives on.
                shard: u32,
                /// The document to drop.
                doc: DocId,
            },
            /// Server → owner: a share batch was accepted.
            9 InsertOk,
            /// Server → owner: deletion outcome.
            10 DeleteOk {
                /// Elements actually removed.
                removed: u64,
            },
            /// Server → client: an RPC fault (failed authentication, missing
            /// group membership, or an unsupported request for this peer
            /// role). `code` is one of the `fault` constants; `group`
            /// identifies the offending group for membership faults and is
            /// zero otherwise.
            11 Fault {
                /// Fault discriminant (see [`fault`]).
                code: u8,
                /// Offending group for [`fault::NOT_GROUP_MEMBER`].
                group: GroupId,
            },
            /// Repair controller → live replica: freeze a consistent snapshot
            /// of this shard's on-disk state and describe it. The peer answers
            /// with a [`Message::SnapshotManifest`].
            16 PrepareSnapshot {
                /// The shard to snapshot.
                shard: u32,
            },
            /// Live replica → repair controller: the frozen snapshot's file
            /// inventory. Each entry names one immutable file (segment or
            /// manifest) with its byte length and CRC32, so the controller can
            /// fetch files one by one and verify every frame independently.
            24 SnapshotManifest {
                /// The snapshotted shard.
                shard: u32,
                /// `(file name, byte length, crc32)` per snapshot file.
                files: Vec<(String, u64, u32)>,
            },
            /// Repair controller → live replica: stream one named snapshot
            /// file. The peer answers with a [`Message::SegmentData`].
            18 FetchSegment {
                /// The snapshotted shard the file belongs to.
                shard: u32,
                /// File name from the [`Message::SnapshotManifest`].
                name: String,
            },
            /// Live replica → repair controller: the bytes of one snapshot
            /// file, CRC-framed so a corrupt hop is detected before the file
            /// is ever installed.
            19 SegmentData {
                /// CRC32 of `payload`.
                crc: u32,
                /// The file bytes.
                payload: Vec<u8>,
            },
            /// Repair controller → rebuilding replica: begin a rebuild. The
            /// replica drops any staged files and buffers live writes from now
            /// on, until [`Message::InstallCommit`].
            25 InstallBegin {
                /// The shard being rebuilt.
                shard: u32,
            },
            /// Repair controller → rebuilding replica: stage one snapshot
            /// file, checked against its CRC.
            26 InstallFile {
                /// The shard being rebuilt.
                shard: u32,
                /// The file's name inside the snapshot.
                name: String,
                /// CRC32 of `payload`.
                crc: u32,
                /// The file bytes.
                payload: Vec<u8>,
            },
            /// Repair controller → rebuilding replica: restore the shard from
            /// the staged files, replay the buffered writes and serve.
            27 InstallCommit {
                /// The shard being rebuilt.
                shard: u32,
            },
            /// Membership prober → peer: liveness probe. Any reachable peer
            /// answers [`Message::Pong`] regardless of role.
            21 Ping,
            /// Peer → membership prober: liveness acknowledgement.
            22 Pong,
        }
    };
}

wire_frames!(message_codec);

/// Fault codes carried by [`Message::Fault`].
pub mod fault {
    /// The authentication token was rejected.
    pub const AUTH_FAILED: u8 = 1;
    /// The authenticated user is not a member of the required group.
    pub const NOT_GROUP_MEMBER: u8 = 2;
    /// The peer does not serve this request type (e.g. a plaintext
    /// shard peer receiving a share insert).
    pub const UNSUPPORTED: u8 = 3;
    /// The request bytes did not decode to a message.
    pub const MALFORMED: u8 = 4;
    /// The peer's storage engine rejected the operation (e.g. a WAL
    /// write failed on a durable shard).
    pub const STORAGE: u8 = 5;
    /// The shard is mid-rebuild on this replica and cannot serve
    /// queries yet (writes are buffered, reads must fail over).
    pub const REBUILDING: u8 = 6;
    /// A repair frame failed verification (CRC mismatch, unknown
    /// snapshot file, or a commit without a staged snapshot).
    pub const REPAIR: u8 = 7;
}

/// Wire decoding errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the message was complete.
    Truncated,
    /// Unknown message tag.
    UnknownTag(u8),
    /// The bytes are all there but do not say what the frame's layout
    /// allows; the payload names the rule they break.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            WireError::Malformed(rule) => write!(f, "malformed message: {rule}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The most term slots a [`Message::PlanQuery`] may carry. Each slot
/// costs the serving peer a cursor, so decoding refuses a larger count
/// as malformed, before allocating for it.
pub const MAX_QUERY_SLOTS: usize = 4_096;

/// A frame field's encoding: one spelling per value, so whatever
/// decodes re-encodes to the bytes it came from (but for a share
/// list's id column, whose blocks have two encodings).
pub(crate) trait Wire: Sized {
    /// The fewest bytes a value encodes to: a count of values the bytes
    /// left cannot hold is refused before anything is allocated.
    const MIN_BYTES: usize;
    /// Appends the value.
    fn put(&self, buffer: &mut Vec<u8>);
    /// Reads one value off the front of `buffer`.
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError>;
    /// Appends `items` as a `Vec` field: a `u32` count, then each item.
    fn put_vec(items: &[Self], buffer: &mut Vec<u8>) {
        (items.len() as u32).put(buffer);
        items.iter().for_each(|item| item.put(buffer));
    }
    /// Reads a `Vec` field's `count` items, a count the bytes left hold.
    fn take_vec(count: usize, buffer: &mut &[u8]) -> Result<Vec<Self>, WireError> {
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            items.push(Self::take(buffer)?);
        }
        Ok(items)
    }
}

/// A `u32` count of entries of at least `min_bytes` each, refused if
/// the bytes left cannot hold them.
fn take_count(buffer: &mut &[u8], min_bytes: usize) -> Result<usize, WireError> {
    let count = u32::take(buffer)? as usize;
    (count <= buffer.len() / min_bytes)
        .then_some(count)
        .ok_or(WireError::Truncated)
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;
    fn put(&self, buffer: &mut Vec<u8>) {
        T::put_vec(self, buffer);
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        let count = take_count(buffer, T::MIN_BYTES)?;
        T::take_vec(count, buffer)
    }
}

/// Big-endian integers: every integer this crate reads off the wire
/// comes through here. A byte string (a `Vec<u8>`) is copied whole.
macro_rules! wire_integers {
    ($($int:ty $({ $($bulk:item)* })?),*) => {$(
        impl Wire for $int {
            const MIN_BYTES: usize = size_of::<$int>();
            fn put(&self, buffer: &mut Vec<u8>) {
                buffer.extend_from_slice(&self.to_be_bytes());
            }
            fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
                let (bytes, rest) = buffer.split_first_chunk().ok_or(WireError::Truncated)?;
                *buffer = rest;
                Ok(<$int>::from_be_bytes(*bytes))
            }
            $($($bulk)*)?
        }
    )*};
}

wire_integers!(u32, u64, u8 {
    fn put_vec(bytes: &[u8], buffer: &mut Vec<u8>) {
        (bytes.len() as u32).put(buffer);
        buffer.extend_from_slice(bytes);
    }
    fn take_vec(count: usize, buffer: &mut &[u8]) -> Result<Vec<u8>, WireError> {
        let (bytes, rest) = buffer.split_at_checked(count).ok_or(WireError::Truncated)?;
        *buffer = rest;
        Ok(bytes.to_vec())
    }
});

macro_rules! wire_tuples {
    ($(($($part:ident $index:tt),+)),*) => {$(
        impl<$($part: Wire),+> Wire for ($($part,)+) {
            const MIN_BYTES: usize = 0 $(+ $part::MIN_BYTES)+;
            fn put(&self, buffer: &mut Vec<u8>) {
                $(self.$index.put(buffer);)+
            }
            fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
                Ok(($($part::take(buffer)?,)+))
            }
        }
    )*};
}

wire_tuples!((A 0, B 1), (A 0, B 1, C 2), (A 0, B 1, C 2, D 3));

/// A minimal LEB128 integer: a longer spelling of the same value (a
/// trailing zero group) is malformed.
struct Leb128(u64);

impl Wire for Leb128 {
    const MIN_BYTES: usize = 1;
    fn put(&self, buffer: &mut Vec<u8>) {
        varint::write_u64(buffer, self.0);
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        let (value, used) = varint::read_u64(buffer).ok_or(WireError::Truncated)?;
        if used > 1 && buffer[used - 1] == 0 {
            return Err(WireError::Malformed("LEB128 integer not minimal"));
        }
        *buffer = &buffer[used..];
        Ok(Leb128(value))
    }
}

/// Types that travel as another wire type: `Type as Wire: into, from`,
/// or an id newtype, `Id(integer)`, as the integer it wraps.
macro_rules! wire_as {
    ($($id:ident($int:ty)),*) => {
        wire_as! { $($id as $int: |id| id.0, |int| Ok($id(int));)* }
    };
    ($($ty:ty as $wire:ty: $into:expr, $from:expr;)*) => {$(
        impl Wire for $ty {
            const MIN_BYTES: usize = <$wire as Wire>::MIN_BYTES;
            fn put(&self, buffer: &mut Vec<u8>) {
                let into: fn(&$ty) -> $wire = $into;
                into(self).put(buffer);
            }
            fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
                let from: fn($wire) -> Result<$ty, WireError> = $from;
                from(Wire::take(buffer)?)
            }
        }
    )*};
}

wire_as! { AuthToken(u64), PlId(u32), ElementId(u64), GroupId(u32), TermId(u32), DocId(u32) }

wire_as! {
    // Scores and IDF weights travel as their exact bit patterns.
    f64 as u64: |value| value.to_bits(), |bits| Ok(f64::from_bits(bits));
    // `Fp::new` would quietly reduce a value ≥ p; on the wire that is
    // a second spelling of one share.
    Fp as u64: |share| share.value(), |y| match y < MODULUS {
        true => Ok(Fp::from_canonical(y)),
        false => Err(WireError::Malformed("y-share not below the modulus")),
    };
    StoredShare as (ElementId, GroupId, Fp): |row| (row.element, row.group, row.share),
        |(element, group, share)| Ok(StoredShare { element, group, share });
    ListVersion as (Leb128, Leb128): |v| (Leb128(v.content), Leb128(v.membership)),
        |(Leb128(content), Leb128(membership))| Ok(ListVersion { content, membership });
}

/// A file name: a `u32` byte length and that many bytes of UTF-8.
impl Wire for String {
    const MIN_BYTES: usize = 4;
    fn put(&self, buffer: &mut Vec<u8>) {
        u8::put_vec(self.as_bytes(), buffer);
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        String::from_utf8(Wire::take(buffer)?).map_err(|_| WireError::Malformed("string not UTF-8"))
    }
}

/// The version a request holds for a list: a flag byte, and the
/// version after a 1.
impl Wire for Option<ListVersion> {
    const MIN_BYTES: usize = 1;
    fn put(&self, buffer: &mut Vec<u8>) {
        u8::from(self.is_some()).put(buffer);
        self.iter().for_each(|version| version.put(buffer));
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        match u8::take(buffer)? {
            0 => Ok(None),
            1 => ListVersion::take(buffer).map(Some),
            _ => Err(WireError::Malformed("held-version flag not 0 or 1")),
        }
    }
}

/// One list of a share response, columnar (see the module docs).
impl Wire for ShareColumns {
    /// A list is at least its id, three one-byte stamps and its state.
    const MIN_BYTES: usize = 8;
    fn put(&self, buffer: &mut Vec<u8>) {
        // A delta-coded id rarely needs more than two bytes.
        buffer.reserve(16 + 10 * self.len());
        let state = u8::from(!self.unchanged);
        (self.pl, self.version, Leb128(self.round), state).put(buffer);
        if !self.unchanged {
            encode_column_into(&self.elements, buffer);
            self.shares.iter().for_each(|share| share.put(buffer));
        }
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        let (pl, version, Leb128(round), state): (_, _, _, u8) = Wire::take(buffer)?;
        match state {
            0 => return Ok(ShareColumns::unchanged(pl, version, round)),
            1 => {}
            _ => return Err(WireError::Malformed("list state not 0 or 1")),
        }
        // A row is at least one id byte and eight share bytes; the id
        // column leads with its row count.
        let rows = varint::read_u64(buffer).map_or(0, |(rows, _)| rows);
        if rows > (buffer.len() / 9) as u64 {
            return Err(WireError::Truncated);
        }
        let (elements, used) = decode_column_prefix(buffer)
            .ok_or(WireError::Malformed("id column does not decode"))?;
        *buffer = &buffer[used..];
        let shares = Fp::take_vec(elements.len(), buffer)?;
        let list = ShareColumns::new(pl).stamped(version, round);
        Ok(ShareColumns {
            elements,
            shares,
            ..list
        })
    }
}

/// Appends a document batch — its count, then each document's id,
/// group, length and terms — after reserving exactly its size: the one
/// encoder behind [`Message::encode`] and [`DocumentFrame::encode`], so
/// both write the same bytes.
fn put_document_batch<D>(
    buffer: &mut Vec<u8>,
    docs: &[D],
    fields: impl Fn(&D) -> (DocId, GroupId, u32, &[(TermId, u32)]),
) {
    let terms: usize = docs.iter().map(|doc| fields(doc).3.len()).sum();
    buffer.reserve_exact(4 + 16 * docs.len() + 8 * terms);
    (docs.len() as u32).put(buffer);
    for (doc, group, length, terms) in docs.iter().map(fields) {
        (doc, group, length).put(buffer);
        Wire::put_vec(terms, buffer);
    }
}

impl Wire for WireDocument {
    const MIN_BYTES: usize = 16;
    fn put(&self, buffer: &mut Vec<u8>) {
        (self.doc, self.group, self.length).put(buffer);
        Wire::put_vec(&self.terms, buffer);
    }
    fn take(buffer: &mut &[u8]) -> Result<Self, WireError> {
        let (doc, group, length) = Wire::take(buffer)?;
        let count = take_count(buffer, <(TermId, u32)>::MIN_BYTES)?;
        let mut terms = Vec::with_capacity(count);
        for _ in 0..count {
            // One read per `term u32 | count u32` pair.
            let pair = u64::take(buffer)?;
            terms.push((TermId((pair >> 32) as u32), pair as u32));
        }
        Ok(WireDocument {
            doc,
            group,
            length,
            terms,
        })
    }
    fn put_vec(docs: &[Self], buffer: &mut Vec<u8>) {
        put_document_batch(buffer, docs, |doc| {
            (doc.doc, doc.group, doc.length, &doc.terms)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAG_STAMPED_COLUMNS: u8 = tag::QueryResponse;

    fn share(e: u64, g: u32, y: u64) -> StoredShare {
        StoredShare {
            element: ElementId(e),
            group: GroupId(g),
            share: Fp::new(y),
        }
    }

    fn insert_batch() -> Message {
        Message::InsertBatch {
            entries: vec![
                (PlId(1), share(100, 2, 12345)),
                (PlId(9), share(101, 3, 99999)),
            ],
        }
    }

    fn delete() -> Message {
        Message::Delete {
            elements: vec![(PlId(4), ElementId(77)), (PlId(4), ElementId(78))],
        }
    }

    fn version(content: u64, membership: u64) -> ListVersion {
        ListVersion {
            content,
            membership,
        }
    }

    fn query() -> Message {
        Message::Query {
            auth: AuthToken(0xdead_beef),
            lists: vec![
                (PlId(0), None),
                (PlId(31_999), Some(version(300, 2))),
                (PlId(7), Some(version(0, 0))),
            ],
        }
    }

    fn columns(pl: u32, rows: &[(u64, u64)]) -> ShareColumns {
        let mut list = ShareColumns::new(PlId(pl));
        for &(element, y) in rows {
            list.push(ElementId(element), Fp::new(y));
        }
        list
    }

    fn response() -> Message {
        Message::QueryResponse {
            lists: vec![
                columns(5, &[(1, 1), (2, 2)]).stamped(version(1 << 20, 3), 200),
                columns(6, &[]),
                ShareColumns::unchanged(PlId(7), version(9, 1), 4),
            ],
        }
    }

    /// 0.1 has no finite binary expansion; bit-level transport must
    /// still reproduce it exactly.
    fn topk_messages() -> [Message; 2] {
        [
            Message::PlanQuery {
                shard: 2,
                shape: 0,
                forced: 1,
                terms: vec![(TermId(7), 0.1), (TermId(9), 3.75)],
                k: 10,
            },
            Message::TopKResponse {
                decode_ns: 123_456,
                blocks_decoded: 3,
                blocks_total: 11,
                candidates: vec![(DocId(3), 1.0 / 3.0), (DocId(1), 0.0)],
            },
        ]
    }

    fn plan_queries() -> Vec<Message> {
        [(0u8, 0u8), (1, 0), (2, 0), (0, 1), (0, 2)]
            .into_iter()
            .map(|(shape, forced)| Message::PlanQuery {
                shard: 3,
                shape,
                forced,
                terms: vec![(TermId(7), 0.1), (TermId(7), 0.1), (TermId(2), 3.75)],
                k: 10,
            })
            .collect()
    }

    fn index_docs() -> Message {
        Message::IndexDocs {
            shard: 5,
            docs: vec![
                WireDocument {
                    doc: DocId(7),
                    group: GroupId(1),
                    length: 12,
                    terms: vec![(TermId(3), 2), (TermId(9), 10)],
                },
                WireDocument {
                    doc: DocId(8),
                    group: GroupId(0),
                    length: 0,
                    terms: vec![],
                },
            ],
        }
    }

    fn bulk_load() -> Message {
        Message::BulkLoad {
            shard: 2,
            docs: vec![
                WireDocument {
                    doc: DocId(41),
                    group: GroupId(3),
                    length: 6,
                    terms: vec![(TermId(0), 1), (TermId(5), 4)],
                },
                WireDocument {
                    doc: DocId(42),
                    group: GroupId(3),
                    length: 0,
                    terms: vec![],
                },
            ],
        }
    }

    fn remove_doc() -> Message {
        Message::RemoveDoc {
            shard: 1,
            doc: DocId::from_parts(3, 99),
        }
    }

    fn control_messages() -> [Message; 3] {
        [
            Message::InsertOk,
            Message::DeleteOk { removed: 42 },
            Message::Fault {
                code: crate::message::fault::NOT_GROUP_MEMBER,
                group: GroupId(9),
            },
        ]
    }

    fn repair_frames() -> Vec<Message> {
        vec![
            Message::PrepareSnapshot { shard: 3 },
            Message::SnapshotManifest {
                shard: 3,
                files: vec![
                    ("MANIFEST".to_string(), 96, 0xdead_beef),
                    ("seg-000001.zseg".to_string(), 4096, 0x1234_5678),
                ],
            },
            Message::SnapshotManifest {
                shard: 0,
                files: vec![],
            },
            Message::FetchSegment {
                shard: 3,
                name: "seg-000001.zseg".to_string(),
            },
            Message::SegmentData {
                crc: 0xcafe_f00d,
                payload: b"segment bytes".to_vec(),
            },
            Message::InstallBegin { shard: 3 },
            Message::InstallFile {
                shard: 3,
                name: "seg-000001.zseg".to_string(),
                crc: 0xcafe_f00d,
                payload: b"segment bytes".to_vec(),
            },
            Message::InstallFile {
                shard: 3,
                name: String::new(),
                crc: 0,
                payload: Vec::new(),
            },
            Message::InstallCommit { shard: 3 },
            Message::Ping,
            Message::Pong,
        ]
    }

    fn assert_round_trips(message: &Message) {
        assert_eq!(&Message::decode(&message.encode()).unwrap(), message);
    }

    /// Every prefix of `message`'s encoding is refused.
    fn assert_every_cut_fails(message: &Message) {
        let encoded = message.encode();
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "{message:?}: cut at {cut} should fail"
            );
        }
    }

    /// `Fp::new` would reduce a y-share ≥ p to a smaller one: a second
    /// spelling of that share, which an inserted share may not have
    /// any more than a fetched one.
    #[test]
    fn an_inserted_share_has_one_spelling() {
        let mut frame = insert_batch().encode();
        let last_share = frame.len() - 8;
        frame[last_share..].copy_from_slice(&(MODULUS + 5).to_be_bytes());
        assert_eq!(
            Message::decode(&frame),
            Err(WireError::Malformed("y-share not below the modulus"))
        );
    }

    /// A file name that is not UTF-8 is refused, not replaced by
    /// U+FFFD (which would re-encode as other bytes).
    #[test]
    fn a_file_name_is_utf8() {
        let name = || "x".to_string();
        for message in [
            Message::FetchSegment {
                shard: 3,
                name: name(),
            },
            Message::SnapshotManifest {
                shard: 3,
                files: vec![(name(), 96, 7)],
            },
            Message::InstallFile {
                shard: 3,
                name: name(),
                crc: 7,
                payload: b"body".to_vec(),
            },
        ] {
            let mut frame = message.encode();
            let at = frame.iter().position(|&byte| byte == b'x').unwrap();
            frame[at] = 0xff;
            assert_eq!(
                Message::decode(&frame),
                Err(WireError::Malformed("string not UTF-8")),
                "{message:?}"
            );
        }
    }

    #[test]
    fn query_round_trips() {
        assert_round_trips(&query());
        assert_every_cut_fails(&query());
    }

    /// A flag or state byte other than 0 and 1, or a version with a
    /// longer spelling than it needs, is refused.
    #[test]
    fn versioned_frames_have_one_spelling() {
        let request = Message::Query {
            auth: AuthToken(1),
            lists: vec![(PlId(2), None)],
        }
        .encode();
        let mut flag = request.clone();
        *flag.last_mut().unwrap() = 2;
        assert_eq!(
            Message::decode(&flag),
            Err(WireError::Malformed("held-version flag not 0 or 1"))
        );

        let unchanged = Message::QueryResponse {
            lists: vec![ShareColumns::unchanged(PlId(2), version(5, 0), 1)],
        }
        .encode();
        // tag | list count | pl | content | membership | round | state.
        assert_eq!(hex(&unchanged), "1d000000010000000205000100");
        assert_eq!(unchanged.len(), 1 + 4 + 4 + 4);
        let mut state = unchanged.clone();
        *state.last_mut().unwrap() = 2;
        assert_eq!(
            Message::decode(&state),
            Err(WireError::Malformed("list state not 0 or 1"))
        );
        // The content count 5 spelled in two bytes.
        let mut padded = unchanged[..9].to_vec();
        padded.extend([0x85, 0x00, 0x00, 0x01, 0x00]);
        assert_eq!(
            Message::decode(&padded),
            Err(WireError::Malformed("LEB128 integer not minimal"))
        );
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|byte| format!("{byte:02x}")).collect()
    }

    #[test]
    fn response_round_trips() {
        assert_round_trips(&response());
        assert_every_cut_fails(&response());
    }

    /// A query of `MAX_QUERY_SLOTS` slots decodes; one more slot is
    /// refused as malformed, whether or not the bytes for it follow.
    #[test]
    fn a_plan_query_is_capped_at_max_query_slots() {
        let query = |slots: usize| Message::PlanQuery {
            shard: 0,
            shape: 0,
            forced: 0,
            terms: (0..slots as u32).map(|t| (TermId(t % 7), 1.0)).collect(),
            k: 10,
        };
        let at_cap = query(MAX_QUERY_SLOTS);
        assert_eq!(Message::decode(&at_cap.encode()), Ok(at_cap));
        let refused = Err(WireError::Malformed(
            "more query slots than MAX_QUERY_SLOTS",
        ));
        assert_eq!(
            Message::decode(&query(MAX_QUERY_SLOTS + 1).encode()),
            refused
        );
        // A count of 2^32 - 1 slots with nothing behind it: refused by
        // the cap, not read until the bytes run out.
        let mut bare = query(0).encode().to_vec();
        let count_at = bare.len() - 4;
        bare[count_at..].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(Message::decode(&bare), refused);
    }

    #[test]
    fn the_share_response_decoder_fails_closed() {
        let encoded = Message::QueryResponse {
            lists: vec![columns(5, &[(1, 1), (2, 2)])],
        }
        .encode();
        // tag | list count | pl | version and round | state | column
        // (count, block tag, 2 deltas) | two 8-byte shares.
        assert_eq!(encoded.len(), 1 + 4 + 4 + 3 + 1 + 4 + 16);

        let mut trailing = encoded.to_vec();
        trailing.push(0);
        assert_eq!(
            Message::decode(&trailing).unwrap_err(),
            WireError::Malformed("bytes after the message")
        );

        // p itself is the non-canonical spelling of a zero share.
        let mut reducible = encoded.to_vec();
        let last_share = reducible.len() - 8;
        reducible[last_share..].copy_from_slice(&MODULUS.to_be_bytes());
        assert_eq!(
            Message::decode(&reducible).unwrap_err(),
            WireError::Malformed("y-share not below the modulus")
        );

        let mut bad_block_tag = encoded.to_vec();
        bad_block_tag[14] = 9;
        assert_eq!(
            Message::decode(&bad_block_tag).unwrap_err(),
            WireError::Malformed("id column does not decode")
        );

        // Counts nothing backs are refused before any allocation: 2^32
        // lists, then one list of 2^56 ids.
        let lists = [TAG_STAMPED_COLUMNS, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0];
        assert_eq!(Message::decode(&lists).unwrap_err(), WireError::Truncated);
        let mut ids = vec![TAG_STAMPED_COLUMNS, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1];
        ids.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 0]);
        assert_eq!(Message::decode(&ids).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn topk_messages_round_trip_exact_floats() {
        for message in topk_messages() {
            assert_round_trips(&message);
        }
    }

    #[test]
    fn plan_query_round_trips_and_rejects_every_cut() {
        for message in plan_queries() {
            assert_round_trips(&message);
            assert_every_cut_fails(&message);
        }
    }

    #[test]
    fn index_docs_round_trips() {
        assert_round_trips(&index_docs());
        assert_every_cut_fails(&index_docs());
    }

    #[test]
    fn bulk_load_round_trips() {
        assert_round_trips(&bulk_load());
        assert_every_cut_fails(&bulk_load());
    }

    /// A batch encoded from borrowed documents is the batch `Message`
    /// encodes, in a buffer with no spare room.
    #[test]
    fn a_document_frame_encodes_the_message_bytes_exactly() {
        for (kind, message) in [
            (DocumentFrame::IndexDocs, index_docs()),
            (DocumentFrame::BulkLoad, bulk_load()),
        ] {
            let (Message::IndexDocs { shard, docs } | Message::BulkLoad { shard, docs }) = &message
            else {
                unreachable!("a document batch");
            };
            let docs: Vec<Document> = docs
                .iter()
                .map(|wire| Document {
                    id: wire.doc,
                    group: wire.group,
                    terms: wire.terms.clone(),
                    length: wire.length,
                })
                .collect();
            let borrowed: Vec<&Document> = docs.iter().collect();
            let frame = kind.encode(*shard, &borrowed);
            assert_eq!(frame, message.encode(), "{kind:?}");
            assert_eq!(frame.capacity(), frame.len(), "{kind:?}");
        }
    }

    #[test]
    fn control_messages_round_trip() {
        for message in control_messages() {
            assert_round_trips(&message);
        }
    }

    #[test]
    fn repair_frames_round_trip_and_reject_every_cut() {
        for message in repair_frames() {
            assert_round_trips(&message);
            assert_every_cut_fails(&message);
        }
    }

    /// A frame has one spelling: whatever its tag, a byte appended to
    /// it makes it undecodable.
    #[test]
    fn a_trailing_byte_fails_every_frame() {
        let frames = [insert_batch(), delete(), query(), response(), remove_doc()]
            .into_iter()
            .chain(topk_messages())
            .chain(plan_queries())
            .chain([index_docs(), bulk_load()])
            .chain(control_messages())
            .chain(repair_frames());
        for message in frames {
            let mut trailing = message.encode();
            trailing.push(0);
            assert_eq!(
                Message::decode(&trailing),
                Err(WireError::Malformed("bytes after the message")),
                "{message:?}"
            );
        }
    }

    #[test]
    fn truncated_topk_errors() {
        assert_every_cut_fails(&Message::TopKResponse {
            decode_ns: 1,
            blocks_decoded: 2,
            blocks_total: 3,
            candidates: vec![(DocId(1), 2.0)],
        });
    }

    #[test]
    fn truncated_buffers_error() {
        assert_every_cut_fails(&Message::Query {
            auth: AuthToken(1),
            lists: vec![(PlId(1), Some(version(1, 0)))],
        });
    }

    #[test]
    fn unknown_tag_errors() {
        assert_eq!(
            Message::decode(&[42]).unwrap_err(),
            WireError::UnknownTag(42)
        );
        // The retired tags (the unversioned share request, the
        // row-wise share response, snippet request / response, the old
        // ranked read, the epoch-carrying snapshot manifest, the
        // multiplexed install frame, the unstamped share response)
        // stay undecodable, body or not.
        for tag in [3, 4, 5, 6, 7, 17, 20, 23] {
            let retired = [tag, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0];
            assert_eq!(
                Message::decode(&retired).unwrap_err(),
                WireError::UnknownTag(tag)
            );
        }
    }

    #[test]
    fn a_response_element_costs_its_share_plus_a_short_id_delta() {
        // One owner's run: ids `owner << 40 | sequence` a couple of
        // hundred apart. 8 B of y-share and a two-byte delta each
        // (one byte under a gap of 64), plus a tag byte per 128 ids —
        // against 20 B when element and group id travelled in full.
        let rows: Vec<(u64, u64)> = (0..1_000u64).map(|i| ((3 << 40) | (i * 200), i)).collect();
        let empty = Message::QueryResponse {
            lists: vec![columns(0, &[])],
        };
        let full = Message::QueryResponse {
            lists: vec![columns(0, &rows)],
        };
        let per_element = (full.encode().len() - empty.encode().len()) as f64 / 1_000.0;
        assert!(
            (10.0..10.1).contains(&per_element),
            "{per_element} B per element"
        );
    }
}
