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
//! * **Share columns (this module).** A [`Message::QueryResponse`]
//!   carries, per requested list, one [`ShareColumns`]: the element-id
//!   column and the y-share column of the runs the caller may read,
//!   and no group column (the client never read it). The routing
//!   column compresses — ids are `owner << 40 | sequence`, monotone
//!   within a `(list, group)` run — so it goes through
//!   `zerber_postings::column`, the codec the `compression`
//!   experiment measures. The y column does not: shares are
//!   near-uniform field elements (`crate::entropy` measures ≈ 8
//!   bits/byte), re-coding them buys nothing, which is the paper's
//!   Section 7.3 claim, so they go out raw. Byte by byte:
//!
//!   ```text
//!   tag u8 = 23 | list count u32
//!   per list:     pl u32
//!                 id column:    LEB128 count
//!                               per ≤ 128 ids: tag u8
//!                                 1 → ZigZag LEB128 deltas (first from 0)
//!                                 0 → ids raw, 8 B little-endian each
//!                 share column: count × u64 big-endian, each < p
//!   ```
//!
//!   One count serves both columns, so they cannot disagree in
//!   length. [`Message::InsertBatch`] still ships [`StoredShare`]s row
//!   by row (element id 8 B + group id 4 B + y-share 8 B).
//!
//! * **Block-compressed plaintext postings (`zerber-postings`).**
//!   Baseline engines ship plaintext posting lists, which do
//!   compress. Their payload format, defined by
//!   `zerber_postings::block` and reused here for baseline wire-size
//!   accounting (`crate::sizes::SizeModel::compressed_response_bytes`),
//!   is a sequence of ≤ 128-posting blocks:
//!
//!   ```text
//!   block index entry: first_doc varint | (last_doc − first_doc) varint
//!                      | max_tf u16 (ceil-quantized) | len u8
//!   block payload:     count_bits u8 | length_bits u8
//!                      | LEB128 doc-key gaps (len-1 varints)
//!                      | counts, bit-packed at count_bits
//!                      | doc lengths, bit-packed at length_bits
//!   ```
//!
//!   The `(first_doc, last_doc, max_tf)` triple doubles as skip
//!   metadata: readers seek (`advance_to`) and prune (block-max
//!   top-k) from the block index without decoding payloads.

use zerber_core::{ElementId, PlId};
use zerber_field::{Fp, MODULUS};
use zerber_index::{DocId, GroupId, TermId};
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

/// One merged posting list of a [`Message::QueryResponse`]: the
/// element ids and y-shares the caller may read, as two parallel
/// columns. Row `i` is the share `shares()[i]` of element
/// `elements()[i]`; the columns are private so they cannot differ in
/// length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShareColumns {
    /// The merged posting list these columns belong to.
    pub pl: PlId,
    elements: Vec<u64>,
    shares: Vec<Fp>,
}

impl ShareColumns {
    /// The empty answer for one list.
    pub fn new(pl: PlId) -> Self {
        Self {
            pl,
            elements: Vec::new(),
            shares: Vec::new(),
        }
    }

    /// The empty answer for one list, with room for `rows` rows.
    pub fn with_capacity(pl: PlId, rows: usize) -> Self {
        Self {
            pl,
            elements: Vec::with_capacity(rows),
            shares: Vec::with_capacity(rows),
        }
    }

    /// Appends one row.
    pub fn push(&mut self, element: ElementId, share: Fp) {
        self.elements.push(element.0);
        self.shares.push(share);
    }

    /// Appends a run of rows held as columns already.
    ///
    /// # Panics
    /// Panics if the two columns differ in length.
    pub fn extend_from_columns(&mut self, elements: &[u64], shares: &[Fp]) {
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

/// Every message of the Zerber wire protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Owner → server: insert a batch of element shares (Section 5.4.1
    /// batching).
    InsertBatch {
        /// Target posting list per entry.
        entries: Vec<(PlId, StoredShare)>,
    },
    /// Owner → server: delete elements by id. Element-wise because the
    /// server cannot see document ids: "To delete a document, its
    /// owner must delete each element separately" (Section 7.3).
    Delete {
        /// `(list, element)` pairs to remove.
        elements: Vec<(PlId, ElementId)>,
    },
    /// User → server: fetch the accessible parts of these posting
    /// lists. The user "does not divulge which terms she is querying",
    /// only list ids.
    Query {
        /// Authentication token.
        auth: AuthToken,
        /// Requested merged posting lists.
        pl_ids: Vec<PlId>,
    },
    /// Server → user: per-list share columns, ACL-filtered.
    QueryResponse {
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
    PlanQuery {
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
        /// Query slots with their global IDF weights — phrase order
        /// (duplicates allowed) for the phrase shape.
        terms: Vec<(TermId, f64)>,
        /// How many ranked results to return.
        k: u32,
    },
    /// Shard peer → user: the shard-local top-k, sorted by score
    /// descending then document id ascending — the sorted-access order
    /// the gather stage's threshold bound relies on. The response also
    /// carries the peer-side execution stats (decode wall clock and
    /// block accounting), so the client can assemble a complete
    /// per-query span tree even when the peer is a separate process
    /// behind the socket transport.
    TopKResponse {
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
    IndexDocs {
        /// The logical shard these documents belong to (writes fan to
        /// every replica of the shard; each applies them to its copy).
        shard: u32,
        /// Documents to index; re-sent document ids replace the
        /// previous version ("only the most recent copy").
        docs: Vec<WireDocument>,
    },
    /// Owner → shard peer: bulk-load a batch of plaintext documents
    /// through the offline SPIMI path — same payload as
    /// [`Message::IndexDocs`], but the peer indexes it WAL-free
    /// (parallel sorted runs, k-way merge, one atomic manifest swap)
    /// instead of journaling it. Replicas each build their own copy;
    /// like every write, the frame fans to all replicas of the shard.
    BulkLoad {
        /// The logical shard these documents belong to.
        shard: u32,
        /// Documents to load; re-sent document ids replace the
        /// previous version ("only the most recent copy").
        docs: Vec<WireDocument>,
    },
    /// Owner → shard peer: remove one document and all its postings.
    RemoveDoc {
        /// The logical shard the document lives on.
        shard: u32,
        /// The document to drop.
        doc: DocId,
    },
    /// Server → owner: a share batch was accepted.
    InsertOk,
    /// Server → owner: deletion outcome.
    DeleteOk {
        /// Elements actually removed.
        removed: u64,
    },
    /// Server → client: an RPC fault (failed authentication, missing
    /// group membership, or an unsupported request for this peer
    /// role). `code` is one of the `fault` constants; `group`
    /// identifies the offending group for membership faults and is
    /// zero otherwise.
    Fault {
        /// Fault discriminant (see [`fault`]).
        code: u8,
        /// Offending group for [`fault::NOT_GROUP_MEMBER`].
        group: GroupId,
    },
    /// Repair controller → live replica: freeze a consistent snapshot
    /// of this shard's on-disk state and describe it. The peer answers
    /// with a [`Message::SnapshotManifest`].
    PrepareSnapshot {
        /// The shard to snapshot.
        shard: u32,
    },
    /// Live replica → repair controller: the frozen snapshot's file
    /// inventory. Each entry names one immutable file (segment or
    /// manifest) with its byte length and CRC32, so the controller can
    /// fetch files one by one and verify every frame independently.
    SnapshotManifest {
        /// The snapshotted shard.
        shard: u32,
        /// The shard store's durable epoch at snapshot time.
        epoch: u64,
        /// `(file name, byte length, crc32)` per snapshot file.
        files: Vec<(String, u64, u32)>,
    },
    /// Repair controller → live replica: stream one named snapshot
    /// file. The peer answers with a [`Message::SegmentData`].
    FetchSegment {
        /// The snapshotted shard the file belongs to.
        shard: u32,
        /// File name from the [`Message::SnapshotManifest`].
        name: String,
    },
    /// Live replica → repair controller: the bytes of one snapshot
    /// file, CRC-framed so a corrupt hop is detected before the file
    /// is ever installed.
    SegmentData {
        /// CRC32 of `payload`.
        crc: u32,
        /// The file bytes.
        payload: Vec<u8>,
    },
    /// Repair controller → rebuilding replica: install one snapshot
    /// file into the shard's staging directory (tmp + fsync + rename,
    /// same protocol as the segment store's own commits). An empty
    /// `name` with `commit = false` *begins* a rebuild (the replica
    /// starts buffering live writes); `commit = true` atomically cuts
    /// the staged files over to serving and replays the buffer.
    InstallShard {
        /// The shard being rebuilt.
        shard: u32,
        /// The snapshot epoch the staged files belong to.
        epoch: u64,
        /// Staged file name; empty for begin/commit control frames.
        name: String,
        /// CRC32 of `payload`.
        crc: u32,
        /// True on the final frame: cut over and start serving.
        commit: bool,
        /// The file bytes (empty for control frames).
        payload: Vec<u8>,
    },
    /// Membership prober → peer: liveness probe. Any reachable peer
    /// answers [`Message::Pong`] regardless of role.
    Ping,
    /// Peer → membership prober: liveness acknowledgement.
    Pong,
}

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

const TAG_INSERT: u8 = 1;
const TAG_DELETE: u8 = 2;
const TAG_QUERY: u8 = 3;
// Tags 4–7 are retired (4, once `TAG_RESPONSE`, the row-wise share
// response that spent 12 of every 20 bytes on clear-text routing
// fields; 5 and 6 the snippet frames no service ever answered —
// snippets are served by direct call — and 7 the pre-`PlanQuery`
// ranked-read frame) and must never be reused: an old client's frame
// has to keep failing to decode.
const TAG_TOPK_RESPONSE: u8 = 8;
const TAG_INSERT_OK: u8 = 9;
const TAG_DELETE_OK: u8 = 10;
const TAG_FAULT: u8 = 11;
const TAG_INDEX_DOCS: u8 = 12;
const TAG_REMOVE_DOC: u8 = 13;
const TAG_BULK_LOAD: u8 = 14;
const TAG_PLAN_QUERY: u8 = 15;
const TAG_PREPARE_SNAPSHOT: u8 = 16;
const TAG_SNAPSHOT_MANIFEST: u8 = 17;
const TAG_FETCH_SEGMENT: u8 = 18;
const TAG_SEGMENT_DATA: u8 = 19;
const TAG_INSTALL_SHARD: u8 = 20;
const TAG_PING: u8 = 21;
const TAG_PONG: u8 = 22;
const TAG_SHARE_COLUMNS: u8 = 23;

impl Message {
    /// Serializes the message into the buffer a transport sends: the
    /// caller owns it and nothing downstream needs another type.
    pub fn encode(&self) -> Vec<u8> {
        // Room for a query and its top-10 answer: the frames of the
        // read path never regrow, the bulky ones grow or reserve below.
        let mut buffer: Vec<u8> = Vec::with_capacity(256);
        match self {
            Message::InsertBatch { entries } => {
                buffer.push(TAG_INSERT);
                put_u32(&mut buffer, entries.len() as u32);
                for (pl, share) in entries {
                    put_u32(&mut buffer, pl.0);
                    put_share(&mut buffer, share);
                }
            }
            Message::Delete { elements } => {
                buffer.push(TAG_DELETE);
                put_u32(&mut buffer, elements.len() as u32);
                for (pl, element) in elements {
                    put_u32(&mut buffer, pl.0);
                    put_u64(&mut buffer, element.0);
                }
            }
            Message::Query { auth, pl_ids } => {
                buffer.push(TAG_QUERY);
                put_u64(&mut buffer, auth.0);
                put_u32(&mut buffer, pl_ids.len() as u32);
                for pl in pl_ids {
                    put_u32(&mut buffer, pl.0);
                }
            }
            Message::QueryResponse { lists } => {
                // A delta-coded id rarely needs more than two bytes.
                buffer.reserve(5 + lists.iter().map(|list| 9 + 10 * list.len()).sum::<usize>());
                buffer.push(TAG_SHARE_COLUMNS);
                put_u32(&mut buffer, lists.len() as u32);
                for list in lists {
                    put_u32(&mut buffer, list.pl.0);
                    encode_column_into(&list.elements, &mut buffer);
                    let column = buffer.len();
                    buffer.resize(column + 8 * list.shares.len(), 0);
                    for (bytes, share) in buffer[column..].chunks_exact_mut(8).zip(&list.shares) {
                        bytes.copy_from_slice(&share.value().to_be_bytes());
                    }
                }
            }
            Message::PlanQuery {
                shard,
                shape,
                forced,
                terms,
                k,
            } => {
                buffer.push(TAG_PLAN_QUERY);
                put_u32(&mut buffer, *shard);
                buffer.push(*shape);
                buffer.push(*forced);
                put_u32(&mut buffer, *k);
                put_u32(&mut buffer, terms.len() as u32);
                for (term, weight) in terms {
                    put_u32(&mut buffer, term.0);
                    put_u64(&mut buffer, weight.to_bits());
                }
            }
            Message::TopKResponse {
                decode_ns,
                blocks_decoded,
                blocks_total,
                candidates,
            } => {
                buffer.push(TAG_TOPK_RESPONSE);
                put_u64(&mut buffer, *decode_ns);
                put_u32(&mut buffer, *blocks_decoded);
                put_u32(&mut buffer, *blocks_total);
                put_u32(&mut buffer, candidates.len() as u32);
                for (doc, score) in candidates {
                    put_u32(&mut buffer, doc.0);
                    put_u64(&mut buffer, score.to_bits());
                }
            }
            Message::IndexDocs { shard, docs } => {
                buffer.push(TAG_INDEX_DOCS);
                put_u32(&mut buffer, *shard);
                put_u32(&mut buffer, docs.len() as u32);
                for doc in docs {
                    put_wire_document(&mut buffer, doc);
                }
            }
            Message::BulkLoad { shard, docs } => {
                buffer.push(TAG_BULK_LOAD);
                put_u32(&mut buffer, *shard);
                put_u32(&mut buffer, docs.len() as u32);
                for doc in docs {
                    put_wire_document(&mut buffer, doc);
                }
            }
            Message::RemoveDoc { shard, doc } => {
                buffer.push(TAG_REMOVE_DOC);
                put_u32(&mut buffer, *shard);
                put_u32(&mut buffer, doc.0);
            }
            Message::InsertOk => {
                buffer.push(TAG_INSERT_OK);
            }
            Message::DeleteOk { removed } => {
                buffer.push(TAG_DELETE_OK);
                put_u64(&mut buffer, *removed);
            }
            Message::Fault { code, group } => {
                buffer.push(TAG_FAULT);
                buffer.push(*code);
                put_u32(&mut buffer, group.0);
            }
            Message::PrepareSnapshot { shard } => {
                buffer.push(TAG_PREPARE_SNAPSHOT);
                put_u32(&mut buffer, *shard);
            }
            Message::SnapshotManifest {
                shard,
                epoch,
                files,
            } => {
                buffer.push(TAG_SNAPSHOT_MANIFEST);
                put_u32(&mut buffer, *shard);
                put_u64(&mut buffer, *epoch);
                put_u32(&mut buffer, files.len() as u32);
                for (name, len, crc) in files {
                    put_string(&mut buffer, name);
                    put_u64(&mut buffer, *len);
                    put_u32(&mut buffer, *crc);
                }
            }
            Message::FetchSegment { shard, name } => {
                buffer.push(TAG_FETCH_SEGMENT);
                put_u32(&mut buffer, *shard);
                put_string(&mut buffer, name);
            }
            Message::SegmentData { crc, payload } => {
                buffer.push(TAG_SEGMENT_DATA);
                put_u32(&mut buffer, *crc);
                put_u32(&mut buffer, payload.len() as u32);
                buffer.extend_from_slice(payload);
            }
            Message::InstallShard {
                shard,
                epoch,
                name,
                crc,
                commit,
                payload,
            } => {
                buffer.push(TAG_INSTALL_SHARD);
                put_u32(&mut buffer, *shard);
                put_u64(&mut buffer, *epoch);
                put_string(&mut buffer, name);
                put_u32(&mut buffer, *crc);
                buffer.push(u8::from(*commit));
                put_u32(&mut buffer, payload.len() as u32);
                buffer.extend_from_slice(payload);
            }
            Message::Ping => {
                buffer.push(TAG_PING);
            }
            Message::Pong => {
                buffer.push(TAG_PONG);
            }
        }
        buffer
    }

    /// Deserializes a message.
    pub fn decode(mut buffer: &[u8]) -> Result<Self, WireError> {
        let tag = read_u8(&mut buffer)?;
        match tag {
            TAG_INSERT => {
                let count = read_u32(&mut buffer)? as usize;
                let mut entries = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let pl = PlId(read_u32(&mut buffer)?);
                    entries.push((pl, read_share(&mut buffer)?));
                }
                Ok(Message::InsertBatch { entries })
            }
            TAG_DELETE => {
                let count = read_u32(&mut buffer)? as usize;
                let mut elements = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let pl = PlId(read_u32(&mut buffer)?);
                    let element = ElementId(read_u64(&mut buffer)?);
                    elements.push((pl, element));
                }
                Ok(Message::Delete { elements })
            }
            TAG_QUERY => {
                let auth = AuthToken(read_u64(&mut buffer)?);
                let count = read_u32(&mut buffer)? as usize;
                let mut pl_ids = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    pl_ids.push(PlId(read_u32(&mut buffer)?));
                }
                Ok(Message::Query { auth, pl_ids })
            }
            TAG_SHARE_COLUMNS => {
                // Every declared count is checked against the bytes
                // left before anything is allocated for it: a list is
                // at least its id and an empty column's count byte.
                let list_count = read_u32(&mut buffer)? as usize;
                if list_count > buffer.len() / 5 {
                    return Err(WireError::Truncated);
                }
                let mut lists = Vec::with_capacity(list_count);
                for _ in 0..list_count {
                    let pl = PlId(read_u32(&mut buffer)?);
                    // A row is at least one id byte and eight share
                    // bytes; the id column leads with its row count.
                    let rows = varint::read_u64(buffer).map_or(0, |(rows, _)| rows);
                    if rows > (buffer.len() / 9) as u64 {
                        return Err(WireError::Truncated);
                    }
                    let (elements, used) = decode_column_prefix(buffer)
                        .ok_or(WireError::Malformed("id column does not decode"))?;
                    buffer = &buffer[used..];
                    let share_bytes = elements.len() * 8;
                    if buffer.len() < share_bytes {
                        return Err(WireError::Truncated);
                    }
                    // `Fp::new` would quietly reduce a value ≥ p; on
                    // the wire that is a second spelling of one share.
                    let y =
                        |bytes: &[u8]| u64::from_be_bytes(bytes.try_into().expect("chunks of 8"));
                    let column = buffer[..share_bytes].chunks_exact(8);
                    if column.clone().any(|bytes| y(bytes) >= MODULUS) {
                        return Err(WireError::Malformed("y-share not below the modulus"));
                    }
                    let shares = column.map(|bytes| Fp::from_canonical(y(bytes))).collect();
                    buffer = &buffer[share_bytes..];
                    lists.push(ShareColumns {
                        pl,
                        elements,
                        shares,
                    });
                }
                if !buffer.is_empty() {
                    return Err(WireError::Malformed("bytes after the last list"));
                }
                Ok(Message::QueryResponse { lists })
            }
            TAG_PLAN_QUERY => {
                let shard = read_u32(&mut buffer)?;
                let shape = read_u8(&mut buffer)?;
                let forced = read_u8(&mut buffer)?;
                let k = read_u32(&mut buffer)?;
                let count = read_u32(&mut buffer)? as usize;
                let mut terms = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let term = TermId(read_u32(&mut buffer)?);
                    let weight = f64::from_bits(read_u64(&mut buffer)?);
                    terms.push((term, weight));
                }
                Ok(Message::PlanQuery {
                    shard,
                    shape,
                    forced,
                    terms,
                    k,
                })
            }
            TAG_TOPK_RESPONSE => {
                let decode_ns = read_u64(&mut buffer)?;
                let blocks_decoded = read_u32(&mut buffer)?;
                let blocks_total = read_u32(&mut buffer)?;
                let count = read_u32(&mut buffer)? as usize;
                let mut candidates = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let doc = DocId(read_u32(&mut buffer)?);
                    let score = f64::from_bits(read_u64(&mut buffer)?);
                    candidates.push((doc, score));
                }
                Ok(Message::TopKResponse {
                    decode_ns,
                    blocks_decoded,
                    blocks_total,
                    candidates,
                })
            }
            TAG_INDEX_DOCS => {
                let (shard, docs) = read_document_batch(&mut buffer)?;
                Ok(Message::IndexDocs { shard, docs })
            }
            TAG_BULK_LOAD => {
                let (shard, docs) = read_document_batch(&mut buffer)?;
                Ok(Message::BulkLoad { shard, docs })
            }
            TAG_REMOVE_DOC => Ok(Message::RemoveDoc {
                shard: read_u32(&mut buffer)?,
                doc: DocId(read_u32(&mut buffer)?),
            }),
            TAG_INSERT_OK => Ok(Message::InsertOk),
            TAG_DELETE_OK => Ok(Message::DeleteOk {
                removed: read_u64(&mut buffer)?,
            }),
            TAG_FAULT => {
                let code = read_u8(&mut buffer)?;
                let group = GroupId(read_u32(&mut buffer)?);
                Ok(Message::Fault { code, group })
            }
            TAG_PREPARE_SNAPSHOT => Ok(Message::PrepareSnapshot {
                shard: read_u32(&mut buffer)?,
            }),
            TAG_SNAPSHOT_MANIFEST => {
                let shard = read_u32(&mut buffer)?;
                let epoch = read_u64(&mut buffer)?;
                let count = read_u32(&mut buffer)? as usize;
                let mut files = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    let name = read_string(&mut buffer)?;
                    let len = read_u64(&mut buffer)?;
                    let crc = read_u32(&mut buffer)?;
                    files.push((name, len, crc));
                }
                Ok(Message::SnapshotManifest {
                    shard,
                    epoch,
                    files,
                })
            }
            TAG_FETCH_SEGMENT => {
                let shard = read_u32(&mut buffer)?;
                let name = read_string(&mut buffer)?;
                Ok(Message::FetchSegment { shard, name })
            }
            TAG_SEGMENT_DATA => {
                let crc = read_u32(&mut buffer)?;
                let payload = read_slice(&mut buffer)?.to_vec();
                Ok(Message::SegmentData { crc, payload })
            }
            TAG_INSTALL_SHARD => {
                let shard = read_u32(&mut buffer)?;
                let epoch = read_u64(&mut buffer)?;
                let name = read_string(&mut buffer)?;
                let crc = read_u32(&mut buffer)?;
                let commit = read_u8(&mut buffer)? != 0;
                let payload = read_slice(&mut buffer)?.to_vec();
                Ok(Message::InstallShard {
                    shard,
                    epoch,
                    name,
                    crc,
                    commit,
                    payload,
                })
            }
            TAG_PING => Ok(Message::Ping),
            TAG_PONG => Ok(Message::Pong),
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

fn put_wire_document(buffer: &mut Vec<u8>, doc: &WireDocument) {
    put_u32(buffer, doc.doc.0);
    put_u32(buffer, doc.group.0);
    put_u32(buffer, doc.length);
    put_u32(buffer, doc.terms.len() as u32);
    for (term, count) in &doc.terms {
        put_u32(buffer, term.0);
        put_u32(buffer, *count);
    }
}

/// The shared `shard + document batch` payload of
/// [`Message::IndexDocs`] and [`Message::BulkLoad`].
fn read_document_batch(buffer: &mut &[u8]) -> Result<(u32, Vec<WireDocument>), WireError> {
    let shard = read_u32(buffer)?;
    let doc_count = read_u32(buffer)? as usize;
    let mut docs = Vec::with_capacity(doc_count.min(1 << 20));
    for _ in 0..doc_count {
        let doc = DocId(read_u32(buffer)?);
        let group = GroupId(read_u32(buffer)?);
        let length = read_u32(buffer)?;
        let term_count = read_u32(buffer)? as usize;
        let mut terms = Vec::with_capacity(term_count.min(1 << 20));
        for _ in 0..term_count {
            // One read per `term u32 | count u32` pair.
            let pair = read_u64(buffer)?;
            terms.push((TermId((pair >> 32) as u32), pair as u32));
        }
        docs.push(WireDocument {
            doc,
            group,
            length,
            terms,
        });
    }
    Ok((shard, docs))
}

fn put_share(buffer: &mut Vec<u8>, share: &StoredShare) {
    put_u64(buffer, share.element.0);
    put_u32(buffer, share.group.0);
    put_u64(buffer, share.share.value());
}

pub(crate) fn put_u32(buffer: &mut Vec<u8>, value: u32) {
    buffer.extend_from_slice(&value.to_be_bytes());
}

pub(crate) fn put_u64(buffer: &mut Vec<u8>, value: u64) {
    buffer.extend_from_slice(&value.to_be_bytes());
}

/// Splits `N` bytes off the front of `buffer`; `None`, and nothing
/// consumed, if fewer are left. Every integer this crate reads off the
/// wire — big-endian, like the ones it writes — comes through here.
pub(crate) fn take<const N: usize>(buffer: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buffer.split_first_chunk::<N>()?;
    *buffer = rest;
    Some(*head)
}

fn read_u8(buffer: &mut &[u8]) -> Result<u8, WireError> {
    take(buffer).map(|[byte]| byte).ok_or(WireError::Truncated)
}

fn read_u32(buffer: &mut &[u8]) -> Result<u32, WireError> {
    take(buffer)
        .map(u32::from_be_bytes)
        .ok_or(WireError::Truncated)
}

fn read_u64(buffer: &mut &[u8]) -> Result<u64, WireError> {
    take(buffer)
        .map(u64::from_be_bytes)
        .ok_or(WireError::Truncated)
}

fn put_string(buffer: &mut Vec<u8>, value: &str) {
    put_u32(buffer, value.len() as u32);
    buffer.extend_from_slice(value.as_bytes());
}

fn read_string(buffer: &mut &[u8]) -> Result<String, WireError> {
    Ok(String::from_utf8_lossy(read_slice(buffer)?).into_owned())
}

/// A `u32` length and that many bytes after it.
fn read_slice<'a>(buffer: &mut &'a [u8]) -> Result<&'a [u8], WireError> {
    let len = read_u32(buffer)? as usize;
    if buffer.len() < len {
        return Err(WireError::Truncated);
    }
    let (value, rest) = buffer.split_at(len);
    *buffer = rest;
    Ok(value)
}

fn read_share(buffer: &mut &[u8]) -> Result<StoredShare, WireError> {
    let element = ElementId(read_u64(buffer)?);
    let group = GroupId(read_u32(buffer)?);
    let share = Fp::new(read_u64(buffer)?);
    Ok(StoredShare {
        element,
        group,
        share,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(e: u64, g: u32, y: u64) -> StoredShare {
        StoredShare {
            element: ElementId(e),
            group: GroupId(g),
            share: Fp::new(y),
        }
    }

    #[test]
    fn insert_batch_round_trips() {
        let message = Message::InsertBatch {
            entries: vec![
                (PlId(1), share(100, 2, 12345)),
                (PlId(9), share(101, 3, 99999)),
            ],
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    #[test]
    fn delete_round_trips() {
        let message = Message::Delete {
            elements: vec![(PlId(4), ElementId(77)), (PlId(4), ElementId(78))],
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    #[test]
    fn query_round_trips() {
        let message = Message::Query {
            auth: AuthToken(0xdead_beef),
            pl_ids: vec![PlId(0), PlId(31_999)],
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    fn columns(pl: u32, rows: &[(u64, u64)]) -> ShareColumns {
        let mut list = ShareColumns::new(PlId(pl));
        for &(element, y) in rows {
            list.push(ElementId(element), Fp::new(y));
        }
        list
    }

    #[test]
    fn response_round_trips() {
        let message = Message::QueryResponse {
            lists: vec![columns(5, &[(1, 1), (2, 2)]), columns(6, &[])],
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn the_share_response_decoder_fails_closed() {
        let encoded = Message::QueryResponse {
            lists: vec![columns(5, &[(1, 1), (2, 2)])],
        }
        .encode();
        // tag | list count | pl | column (count, block tag, 2 deltas) |
        // two 8-byte shares.
        assert_eq!(encoded.len(), 1 + 4 + 4 + 4 + 16);

        let mut trailing = encoded.to_vec();
        trailing.push(0);
        assert_eq!(
            Message::decode(&trailing).unwrap_err(),
            WireError::Malformed("bytes after the last list")
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
        bad_block_tag[10] = 9;
        assert_eq!(
            Message::decode(&bad_block_tag).unwrap_err(),
            WireError::Malformed("id column does not decode")
        );

        // Counts nothing backs are refused before any allocation: 2^32
        // lists, then one list of 2^56 ids.
        let lists = [TAG_SHARE_COLUMNS, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, 0];
        assert_eq!(Message::decode(&lists).unwrap_err(), WireError::Truncated);
        let mut ids = vec![TAG_SHARE_COLUMNS, 0, 0, 0, 1, 0, 0, 0, 1];
        ids.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 0]);
        assert_eq!(Message::decode(&ids).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn topk_messages_round_trip_exact_floats() {
        // 0.1 has no finite binary expansion; bit-level transport must
        // still reproduce it exactly.
        let query = Message::PlanQuery {
            shard: 2,
            shape: 0,
            forced: 1,
            terms: vec![(TermId(7), 0.1), (TermId(9), 3.75)],
            k: 10,
        };
        let encoded = query.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), query);

        let response = Message::TopKResponse {
            decode_ns: 123_456,
            blocks_decoded: 3,
            blocks_total: 11,
            candidates: vec![(DocId(3), 1.0 / 3.0), (DocId(1), 0.0)],
        };
        let encoded = response.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), response);
    }

    #[test]
    fn plan_query_round_trips_and_rejects_every_cut() {
        for (shape, forced) in [(0u8, 0u8), (1, 0), (2, 0), (0, 1), (0, 2)] {
            let message = Message::PlanQuery {
                shard: 3,
                shape,
                forced,
                terms: vec![(TermId(7), 0.1), (TermId(7), 0.1), (TermId(2), 3.75)],
                k: 10,
            };
            let encoded = message.encode();
            assert_eq!(Message::decode(&encoded).unwrap(), message);
            for cut in 0..encoded.len() {
                assert!(
                    Message::decode(&encoded[..cut]).is_err(),
                    "cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn index_docs_round_trips() {
        let message = Message::IndexDocs {
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
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bulk_load_round_trips() {
        let message = Message::BulkLoad {
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
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn remove_doc_round_trips() {
        let message = Message::RemoveDoc {
            shard: 1,
            doc: DocId::from_parts(3, 99),
        };
        let encoded = message.encode();
        assert_eq!(Message::decode(&encoded).unwrap(), message);
    }

    #[test]
    fn control_messages_round_trip() {
        for message in [
            Message::InsertOk,
            Message::DeleteOk { removed: 42 },
            Message::Fault {
                code: crate::message::fault::NOT_GROUP_MEMBER,
                group: GroupId(9),
            },
        ] {
            let encoded = message.encode();
            assert_eq!(Message::decode(&encoded).unwrap(), message);
        }
    }

    #[test]
    fn repair_frames_round_trip_and_reject_every_cut() {
        let messages = [
            Message::PrepareSnapshot { shard: 3 },
            Message::SnapshotManifest {
                shard: 3,
                epoch: 17,
                files: vec![
                    ("MANIFEST".to_string(), 96, 0xdead_beef),
                    ("seg-000001.zseg".to_string(), 4096, 0x1234_5678),
                ],
            },
            Message::SnapshotManifest {
                shard: 0,
                epoch: 0,
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
            Message::InstallShard {
                shard: 3,
                epoch: 17,
                name: "seg-000001.zseg".to_string(),
                crc: 0xcafe_f00d,
                commit: false,
                payload: b"segment bytes".to_vec(),
            },
            Message::InstallShard {
                shard: 3,
                epoch: 17,
                name: String::new(),
                crc: 0,
                commit: true,
                payload: Vec::new(),
            },
            Message::Ping,
            Message::Pong,
        ];
        for message in messages {
            let encoded = message.encode();
            assert_eq!(Message::decode(&encoded).unwrap(), message);
            for cut in 0..encoded.len() {
                assert!(
                    Message::decode(&encoded[..cut]).is_err(),
                    "{message:?}: cut at {cut} should fail"
                );
            }
        }
    }

    #[test]
    fn truncated_topk_errors() {
        let message = Message::TopKResponse {
            decode_ns: 1,
            blocks_decoded: 2,
            blocks_total: 3,
            candidates: vec![(DocId(1), 2.0)],
        };
        let encoded = message.encode();
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let message = Message::Query {
            auth: AuthToken(1),
            pl_ids: vec![PlId(1)],
        };
        let encoded = message.encode();
        for cut in 0..encoded.len() {
            assert!(
                Message::decode(&encoded[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn unknown_tag_errors() {
        assert_eq!(
            Message::decode(&[42]).unwrap_err(),
            WireError::UnknownTag(42)
        );
        // The retired tags (the row-wise share response, snippet
        // request / response, the old ranked read) stay undecodable,
        // body or not.
        for tag in [4, 5, 6, 7] {
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
