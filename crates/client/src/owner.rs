//! The document owner's indexing daemon.
//!
//! "Zerber runs a client program at the document owner that tracks
//! local changes and performs only the necessary updates at the
//! central indexes" (Section 5.4.1). The owner also keeps a local
//! inverted index of its shared documents ("also useful for local
//! search", Section 7.2) that records each element's global id — this
//! is what makes element-wise deletion possible, since the central
//! servers cannot map documents to elements.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;

use zerber_core::MappingTable;
use zerber_core::{CodecError, ElementCodec, ElementId, PlId, PostingElement};
use zerber_index::{DocId, Document};
use zerber_net::{AuthToken, StoredShare};
use zerber_server::ServerError;
use zerber_shamir::SharingScheme;

use crate::batching::{BatchPolicy, UpdateQueue};
use crate::transport::ServerHandle;

/// Why an owner did not index a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnerError {
    /// An element of the document does not fit the owner's codec (a
    /// document id or term beyond its bit widths). Nothing of the
    /// document was retracted, queued or sent.
    Codec(CodecError),
    /// A server rejected a request.
    Server(ServerError),
}

impl std::fmt::Display for OwnerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnerError::Codec(e) => write!(f, "codec error: {e}"),
            OwnerError::Server(e) => write!(f, "server error: {e}"),
        }
    }
}

impl std::error::Error for OwnerError {}

impl From<CodecError> for OwnerError {
    fn from(e: CodecError) -> Self {
        OwnerError::Codec(e)
    }
}

impl From<ServerError> for OwnerError {
    fn from(e: ServerError) -> Self {
        OwnerError::Server(e)
    }
}

/// A document owner: encrypts and distributes posting elements for the
/// documents it hosts.
pub struct DocumentOwner {
    owner_id: u32,
    token: AuthToken,
    codec: ElementCodec,
    scheme: SharingScheme,
    table: Arc<MappingTable>,
    policy: BatchPolicy,
    queue: UpdateQueue,
    /// Per-document element inventory for deletion: `(list, element)`
    /// pairs.
    elements_by_doc: HashMap<DocId, Vec<(PlId, ElementId)>>,
    next_sequence: u64,
}

impl DocumentOwner {
    /// Creates an owner.
    ///
    /// `owner_id` namespaces the global element ids this owner
    /// generates (48-bit sequence per owner), `token` authenticates it
    /// to the index servers.
    pub fn new(
        owner_id: u32,
        token: AuthToken,
        codec: ElementCodec,
        scheme: SharingScheme,
        table: Arc<MappingTable>,
        policy: BatchPolicy,
    ) -> Self {
        let n = scheme.server_count();
        Self {
            owner_id,
            token,
            codec,
            scheme,
            table,
            policy,
            queue: UpdateQueue::new(n),
            elements_by_doc: HashMap::new(),
            next_sequence: 0,
        }
    }

    /// Elements currently queued but not yet flushed.
    pub fn pending_elements(&self) -> usize {
        self.queue.len()
    }

    /// Indexes one document: builds, encrypts and enqueues one element
    /// per distinct term (Algorithm 1a is O(n·N)); flushes according
    /// to the batch policy.
    ///
    /// Returns the number of elements produced. A document the codec
    /// cannot hold is an [`OwnerError::Codec`] that leaves the owner as
    /// it was: every element is encoded before anything is retracted,
    /// numbered or queued.
    pub fn index_document<R: Rng + ?Sized>(
        &mut self,
        doc: &Document,
        servers: &[Arc<dyn ServerHandle>],
        rng: &mut R,
    ) -> Result<usize, OwnerError> {
        assert_eq!(
            servers.len(),
            self.scheme.server_count(),
            "one handle per scheme server"
        );
        // Encode every element first, then split the whole document in
        // one `split_batch` call: the per-server coordinate powers are
        // computed once and the polynomial coefficients live in one
        // reused scratch — no per-element allocation (Section 7.3's
        // 33 ms-per-document number rests on this amortization).
        let mut secrets = Vec::with_capacity(doc.terms.len());
        for &(term, count) in &doc.terms {
            let tf = if doc.length == 0 {
                0.0
            } else {
                count as f64 / doc.length as f64
            };
            secrets.push(self.codec.encode(PostingElement {
                doc: doc.id,
                term,
                tf_quantized: self.codec.quantize_tf(tf),
            })?);
        }

        // Re-indexing a changed document first retracts the old
        // version's elements.
        if self.elements_by_doc.contains_key(&doc.id) {
            self.delete_document(doc.id, servers)?;
        }
        let mut inventory = Vec::with_capacity(doc.terms.len());
        for &(term, _) in &doc.terms {
            inventory.push((self.table.lookup(term), self.fresh_element_id()));
        }
        let rows = self.scheme.split_batch(&secrets, rng);
        let mut stored: Vec<StoredShare> = Vec::with_capacity(rows.len());
        for (index, &(pl, element_id)) in inventory.iter().enumerate() {
            stored.clear();
            stored.extend(rows.iter().map(|row| StoredShare {
                element: element_id,
                group: doc.group,
                share: row[index],
            }));
            self.queue.push(pl, &stored);

            if self.queue.should_flush(self.policy) {
                self.flush(servers)?;
            }
        }

        self.elements_by_doc.insert(doc.id, inventory);
        Ok(doc.terms.len())
    }

    /// Flushes any queued updates to the servers immediately.
    pub fn flush(&mut self, servers: &[Arc<dyn ServerHandle>]) -> Result<(), ServerError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let batches = self.queue.drain();
        for (server, entries) in servers.iter().zip(batches) {
            if !entries.is_empty() {
                server.insert_batch(self.token, &entries)?;
            }
        }
        Ok(())
    }

    /// Deletes a document: element-by-element on every server, since
    /// servers cannot see which elements share a document (Section
    /// 7.3 — "the document deletion network cost is thus the same as
    /// its insertion cost").
    pub fn delete_document(
        &mut self,
        doc: DocId,
        servers: &[Arc<dyn ServerHandle>],
    ) -> Result<usize, ServerError> {
        let Some(inventory) = self.elements_by_doc.remove(&doc) else {
            return Ok(0);
        };
        for server in servers {
            server.delete(self.token, &inventory)?;
        }
        Ok(inventory.len())
    }

    /// Hands the queued (unflushed) per-server batches to the caller —
    /// the hook for pooling updates through an
    /// [`UpdateMixer`](crate::mixing::UpdateMixer) instead of flushing
    /// directly (Section 5.4.1 anonymity).
    pub fn drain_pending(&mut self) -> Vec<Vec<(PlId, StoredShare)>> {
        self.queue.drain()
    }

    /// The owner's authentication token (needed when a mixer submits
    /// on the owner's behalf).
    pub fn token(&self) -> AuthToken {
        self.token
    }

    fn fresh_element_id(&mut self) -> ElementId {
        let id = ((self.owner_id as u64) << 40) | self.next_sequence;
        self.next_sequence += 1;
        ElementId(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use zerber_field::Fp;
    use zerber_index::{GroupId, TermId, UserId};
    use zerber_server::{IndexServer, TokenAuth};

    fn setup(n: usize, k: usize) -> (Vec<Arc<dyn ServerHandle>>, DocumentOwner, Arc<TokenAuth>) {
        let auth = Arc::new(TokenAuth::new());
        let mut coordinates = Vec::new();
        let mut handles: Vec<Arc<dyn ServerHandle>> = Vec::new();
        for i in 0..n {
            let x = Fp::new(100 + i as u64);
            coordinates.push(x);
            let server = IndexServer::new(i as u32, x, auth.clone());
            server.add_user_to_group(UserId(1), GroupId(0));
            handles.push(Arc::new(server));
        }
        let scheme = SharingScheme::with_coordinates(k, coordinates).unwrap();
        let table = Arc::new(MappingTable::hash_only(8, 0));
        let token = auth.issue(UserId(1));
        let owner = DocumentOwner::new(
            1,
            token,
            ElementCodec::default(),
            scheme,
            table,
            BatchPolicy::default(),
        );
        (handles, owner, auth)
    }

    /// The `(list, element-id)` inventory of an indexed document.
    fn elements(owner: &DocumentOwner, doc: u32) -> &[(PlId, ElementId)] {
        &owner.elements_by_doc[&DocId(doc)]
    }

    fn doc(id: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(0),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    #[test]
    fn indexing_distributes_one_share_per_server() {
        let (servers, mut owner, auth) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let d = doc(1, &[(0, 2), (5, 1), (9, 3)]);
        let produced = owner.index_document(&d, &servers, &mut rng).unwrap();
        assert_eq!(produced, 3);
        // Every server holds exactly 3 shares.
        let token = auth.issue(UserId(1));
        for server in &servers {
            let mut total = 0;
            for pl in 0..8u32 {
                total += server
                    .begin_fetch(token, &[(PlId(pl), None)])
                    .wait()
                    .unwrap()[0]
                    .len();
            }
            assert_eq!(total, 3);
        }
    }

    #[test]
    fn local_index_tracks_documents() {
        let (servers, mut owner, _) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(2);
        let d = doc(1, &[(0, 1), (1, 1)]);
        owner.index_document(&d, &servers, &mut rng).unwrap();
        assert_eq!(owner.elements_by_doc.len(), 1);
        assert_eq!(elements(&owner, 1).len(), 2);
    }

    #[test]
    fn delete_removes_everywhere() {
        let (servers, mut owner, auth) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let d = doc(1, &[(0, 1), (1, 1)]);
        owner.index_document(&d, &servers, &mut rng).unwrap();
        let removed = owner.delete_document(DocId(1), &servers).unwrap();
        assert_eq!(removed, 2);
        assert!(owner.elements_by_doc.is_empty());
        let token = auth.issue(UserId(1));
        for server in &servers {
            for pl in 0..8u32 {
                assert!(server
                    .begin_fetch(token, &[(PlId(pl), None)])
                    .wait()
                    .unwrap()[0]
                    .is_empty());
            }
        }
    }

    #[test]
    fn reindexing_replaces_old_elements() {
        let (servers, mut owner, _) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(4);
        owner
            .index_document(&doc(1, &[(0, 1), (1, 1), (2, 1)]), &servers, &mut rng)
            .unwrap();
        owner
            .index_document(&doc(1, &[(0, 5)]), &servers, &mut rng)
            .unwrap();
        assert_eq!(elements(&owner, 1).len(), 1);
    }

    #[test]
    fn a_document_the_codec_cannot_hold_leaves_the_owner_untouched() {
        let (servers, mut owner, _) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(7);
        owner
            .index_document(&doc(1, &[(0, 1)]), &servers, &mut rng)
            .unwrap();
        let indexed = elements(&owner, 1).to_vec();

        // A new version of document 1 with a term past the default
        // codec's 22 bits, then a document id past its 26.
        let term = owner.index_document(&doc(1, &[(0, 1), (1 << 22, 1)]), &servers, &mut rng);
        assert!(matches!(
            term,
            Err(OwnerError::Codec(CodecError::FieldOverflow {
                field: "term",
                ..
            }))
        ));
        let id = owner.index_document(&doc(1 << 26, &[(0, 1)]), &servers, &mut rng);
        assert!(matches!(
            id,
            Err(OwnerError::Codec(CodecError::FieldOverflow {
                field: "doc",
                ..
            }))
        ));

        assert_eq!(elements(&owner, 1), indexed);
        assert_eq!(owner.elements_by_doc.len(), 1);
        assert_eq!(owner.pending_elements(), 0);
        owner
            .index_document(&doc(2, &[(0, 1)]), &servers, &mut rng)
            .unwrap();
        let next = elements(&owner, 2)[0].1;
        assert_eq!(next.0, indexed[0].1 .0 + 1, "no element id was spent");
    }

    #[test]
    fn batched_policy_defers_flush() {
        let auth = Arc::new(TokenAuth::new());
        let x = Fp::new(7);
        let server = IndexServer::new(0, x, auth.clone());
        server.add_user_to_group(UserId(1), GroupId(0));
        let handles: Vec<Arc<dyn ServerHandle>> = vec![Arc::new(server)];
        let scheme = SharingScheme::with_coordinates(1, vec![x]).unwrap();
        let token = auth.issue(UserId(1));
        let mut owner = DocumentOwner::new(
            1,
            token,
            ElementCodec::default(),
            scheme,
            Arc::new(MappingTable::hash_only(4, 0)),
            BatchPolicy::batched(100),
        );
        let mut rng = StdRng::seed_from_u64(5);
        owner
            .index_document(&doc(1, &[(0, 1), (1, 1)]), &handles, &mut rng)
            .unwrap();
        assert_eq!(owner.pending_elements(), 2, "still queued");
        owner.flush(&handles).unwrap();
        assert_eq!(owner.pending_elements(), 0);
    }

    #[test]
    fn element_ids_are_unique_and_namespaced() {
        let (servers, mut owner, _) = setup(3, 2);
        let mut rng = StdRng::seed_from_u64(6);
        owner
            .index_document(&doc(1, &[(0, 1), (1, 1)]), &servers, &mut rng)
            .unwrap();
        owner
            .index_document(&doc(2, &[(0, 1)]), &servers, &mut rng)
            .unwrap();
        let mut all: Vec<u64> = elements(&owner, 1)
            .iter()
            .chain(elements(&owner, 2))
            .map(|(_, e)| e.0)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 3);
        for id in all {
            assert_eq!(id >> 40, 1, "namespaced by owner id");
        }
    }
}
