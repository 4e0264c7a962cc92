//! The assembled Zerber deployment.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_client::{
    DocumentOwner, OwnerError, QueryClient, QueryError, QueryOutcome, ServerHandle,
};
use zerber_core::merge::{MergeError, MergePlan};
use zerber_core::{CodecError, ElementCodec, MappingTable};
use zerber_index::{CorpusStats, Document, GroupId, TermId, UserId};
use zerber_net::{AuthToken, NodeId, TrafficMeter};
use zerber_server::{IndexServer, ServerError, TokenAuth};

use crate::runtime::transport::Transport;
use zerber_shamir::{RefreshRound, ShamirError, SharingScheme};

use crate::config::{ConfigError, ZerberConfig};
use crate::runtime::{PeerRuntime, RuntimeHandle, ServerService};

/// Errors from deployment bootstrap or operation.
#[derive(Debug)]
pub enum SystemError {
    /// The configuration is structurally invalid.
    Config(ConfigError),
    /// The merging heuristic failed.
    Merge(MergeError),
    /// The sharing parameters were invalid.
    Sharing(ShamirError),
    /// An index server rejected a request.
    Server(ServerError),
    /// A query could not be answered from what the servers returned.
    Query(QueryError),
    /// A document does not fit the configured element codec.
    Codec(CodecError),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Config(e) => write!(f, "config error: {e}"),
            SystemError::Merge(e) => write!(f, "merge error: {e}"),
            SystemError::Sharing(e) => write!(f, "sharing error: {e}"),
            SystemError::Server(e) => write!(f, "server error: {e}"),
            SystemError::Query(e) => write!(f, "query error: {e}"),
            SystemError::Codec(e) => write!(f, "codec error: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<ConfigError> for SystemError {
    fn from(e: ConfigError) -> Self {
        SystemError::Config(e)
    }
}

impl From<MergeError> for SystemError {
    fn from(e: MergeError) -> Self {
        SystemError::Merge(e)
    }
}

impl From<ShamirError> for SystemError {
    fn from(e: ShamirError) -> Self {
        SystemError::Sharing(e)
    }
}

impl From<ServerError> for SystemError {
    fn from(e: ServerError) -> Self {
        SystemError::Server(e)
    }
}

impl From<QueryError> for SystemError {
    /// A server's rejection stays [`SystemError::Server`] whichever
    /// path it arrived by.
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Server(e) => SystemError::Server(e),
            other => SystemError::Query(other),
        }
    }
}

impl From<OwnerError> for SystemError {
    /// A server's rejection stays [`SystemError::Server`] whichever
    /// path it arrived by.
    fn from(e: OwnerError) -> Self {
        match e {
            OwnerError::Server(e) => SystemError::Server(e),
            OwnerError::Codec(e) => SystemError::Codec(e),
        }
    }
}

/// User-id namespace for the per-group owner daemons (kept out of the
/// way of ordinary users).
const OWNER_USER_BASE: u32 = 0x4000_0000;

/// A group's owner daemon with the server handles it ships through.
struct GroupOwner {
    owner: DocumentOwner,
    handles: Vec<Arc<dyn ServerHandle>>,
}

/// A logged-in user: one query client — its token and what it has
/// decoded so far — and the server handles it asks through.
struct Session {
    client: QueryClient,
    handles: Vec<Arc<dyn ServerHandle>>,
}

/// A complete simulated deployment.
///
/// Since the runtime refactor this is a genuinely *concurrent* system:
/// every index server runs on its own peer thread behind the
/// message-passing transport (`crate::runtime`), every data-plane call
/// crosses the wire format with per-link byte accounting, and query
/// clients fan their `k` fetches out in parallel. Administrative
/// operations — membership changes, proactive refresh, adversary
/// views — remain direct control-plane calls on the shared
/// [`IndexServer`] handles.
pub struct ZerberSystem {
    config: ZerberConfig,
    auth: Arc<TokenAuth>,
    servers: Vec<Arc<IndexServer>>,
    runtime: PeerRuntime,
    scheme: SharingScheme,
    table: Arc<MappingTable>,
    plan: MergePlan,
    owners: HashMap<GroupId, GroupOwner>,
    /// One session per querying user, opened on first use.
    sessions: Mutex<HashMap<UserId, Arc<Session>>>,
    rng: StdRng,
}

impl ZerberSystem {
    /// Bootstraps a deployment: validates the configuration, runs the
    /// merging heuristic over the (learned) corpus statistics,
    /// provisions `n` servers with random public coordinates — each on
    /// its own peer thread — and publishes the mapping table.
    ///
    /// `stats` plays the role of the paper's learning prefix — "we
    /// learned the document frequency distribution from the first 30%
    /// of the documents" (Section 7.5); pass full-corpus statistics
    /// for an oracle variant.
    pub fn bootstrap(config: ZerberConfig, stats: &CorpusStats) -> Result<Self, SystemError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let plan = MergePlan::build(config.merge, stats, &mut rng)?;
        let table = Arc::new(plan.table().clone());
        let scheme = SharingScheme::random(config.threshold, config.servers, &mut rng)?;
        let auth = Arc::new(TokenAuth::new());
        let servers: Vec<Arc<IndexServer>> = scheme
            .coordinates()
            .iter()
            .enumerate()
            .map(|(i, &x)| Arc::new(IndexServer::new(i as u32, x, auth.clone())))
            .collect();
        let runtime = PeerRuntime::new(Arc::new(TrafficMeter::new()));
        for (i, server) in servers.iter().enumerate() {
            let server = server.clone();
            runtime.spawn_peer(NodeId::IndexServer(i as u32), move || {
                ServerService::new(server)
            });
        }
        Ok(Self {
            config,
            auth,
            servers,
            runtime,
            scheme,
            table,
            plan,
            owners: HashMap::new(),
            sessions: Mutex::new(HashMap::new()),
            rng,
        })
    }

    /// The merge plan in force.
    pub fn plan(&self) -> &MergePlan {
        &self.plan
    }

    /// The public mapping table.
    pub fn table(&self) -> &MappingTable {
        &self.table
    }

    /// The sharing scheme's public parameters.
    pub fn scheme(&self) -> &SharingScheme {
        &self.scheme
    }

    /// The shared traffic meter.
    pub fn traffic(&self) -> &TrafficMeter {
        self.runtime.transport().meter()
    }

    /// Raw access to the index servers (for attack simulations: a
    /// compromised server is just `servers()[i].adversary_view()`).
    pub fn servers(&self) -> &[Arc<IndexServer>] {
        &self.servers
    }

    /// Grants a user membership of a group on every index server.
    pub fn add_membership(&self, user: UserId, group: GroupId) {
        for server in &self.servers {
            server.add_user_to_group(user, group);
        }
    }

    /// Revokes a membership everywhere; effective on the next query.
    pub fn remove_membership(&self, user: UserId, group: GroupId) {
        for server in &self.servers {
            server.remove_user_from_group(user, group);
        }
    }

    /// Indexes a document through its group's owner daemon (created on
    /// first use) and flushes that owner, so the document is searchable
    /// when this returns: one RPC per server per *document* under the
    /// default batch policy. Returns the number of posting elements
    /// produced.
    pub fn index_document(&mut self, doc: &Document) -> Result<usize, SystemError> {
        let (produced, group) = self.enqueue_document(doc)?;
        group.owner.flush(&group.handles)?;
        Ok(produced)
    }

    /// Hands a document to its group's owner (created on first use),
    /// which ships whatever its
    /// [`BatchPolicy`](zerber_client::BatchPolicy) says is due and
    /// keeps the rest queued. Returns the elements produced and the
    /// owner.
    fn enqueue_document(
        &mut self,
        doc: &Document,
    ) -> Result<(usize, &mut GroupOwner), SystemError> {
        let group = doc.group;
        // The closure borrows only the fields it names, so it can run
        // while the entry holds `owners`.
        let slot = self.owners.entry(group).or_insert_with(|| {
            let owner_user = UserId(OWNER_USER_BASE + group.0);
            for server in &self.servers {
                server.add_user_to_group(owner_user, group);
            }
            let owner = DocumentOwner::new(
                group.0,
                self.auth.issue(owner_user),
                ElementCodec::default(),
                self.scheme.clone(),
                self.table.clone(),
                self.config.batch,
            );
            GroupOwner {
                owner,
                handles: handles_for(&self.runtime, &self.scheme, NodeId::Owner(group.0)),
            }
        });
        let produced = slot
            .owner
            .index_document(doc, &slot.handles, &mut self.rng)?;
        Ok((produced, slot))
    }

    /// Indexes a whole corpus, batching across documents, and flushes
    /// every owner once at the end; returns total elements produced.
    /// Indexing stops at the first document that fails, and the owners
    /// are flushed anyway: the documents before it are searchable.
    pub fn index_corpus(&mut self, docs: &[Document]) -> Result<usize, SystemError> {
        let enqueued: Result<usize, SystemError> = docs
            .iter()
            .try_fold(0, |total, doc| Ok(total + self.enqueue_document(doc)?.0));
        let flushed = self.flush_owners();
        let total = enqueued?;
        flushed?;
        Ok(total)
    }

    /// Flushes every owner's pending batches.
    pub fn flush_owners(&mut self) -> Result<(), SystemError> {
        for group in self.owners.values_mut() {
            group.owner.flush(&group.handles)?;
        }
        Ok(())
    }

    /// Deletes a document through its group's owner.
    pub fn delete_document(
        &mut self,
        group: GroupId,
        doc: zerber_index::DocId,
    ) -> Result<usize, SystemError> {
        let Some(group) = self.owners.get_mut(&group) else {
            return Ok(0);
        };
        Ok(group.owner.delete_document(doc, &group.handles)?)
    }

    /// Executes a keyword query as `user`, returning the top
    /// `k_results`. The user's session client serves every list no
    /// server changed since its last query from what it decoded then.
    pub fn query(
        &self,
        user: UserId,
        terms: &[TermId],
        k_results: usize,
    ) -> Result<QueryOutcome, SystemError> {
        let session = self.open_session(user);
        Ok(session.client.execute(terms, &session.handles, k_results)?)
    }

    /// `user`'s session, opened on first use and then reused.
    fn open_session(&self, user: UserId) -> Arc<Session> {
        let mut sessions = self.sessions.lock();
        let session = sessions.entry(user).or_insert_with(|| {
            Arc::new(Session {
                client: QueryClient::new(
                    self.auth.issue(user),
                    ElementCodec::default(),
                    self.table.clone(),
                    self.config.threshold,
                ),
                handles: handles_for(&self.runtime, &self.scheme, NodeId::User(user.0)),
            })
        });
        session.clone()
    }

    /// The session token `user` is logged in under (issued on first
    /// use, then reused): what every query of theirs presents, and all
    /// a malicious insider holds — the servers decide what it may do.
    pub fn session(&self, user: UserId) -> AuthToken {
        self.open_session(user).client.token()
    }

    /// Applies one proactive refresh round to every server (Section
    /// 5.1 / \[21\]).
    pub fn proactive_refresh(&mut self) {
        let round = RefreshRound::generate(&self.scheme, &mut self.rng);
        for server in &self.servers {
            server.apply_refresh(&round);
        }
    }

    /// Total posting elements on one server (identical across honest
    /// servers) — the Section 7.2 storage driver.
    pub fn elements_per_server(&self) -> usize {
        self.servers.first().map_or(0, |s| s.total_elements())
    }
}

/// One handle per index server, for requests sent as `from`.
fn handles_for(
    runtime: &PeerRuntime,
    scheme: &SharingScheme,
    from: NodeId,
) -> Vec<Arc<dyn ServerHandle>> {
    let transport: Arc<dyn crate::runtime::Transport> = runtime.transport().clone();
    scheme
        .coordinates()
        .iter()
        .enumerate()
        .map(|(i, &coordinate)| {
            Arc::new(RuntimeHandle::new(
                transport.clone(),
                from,
                NodeId::IndexServer(i as u32),
                coordinate,
            )) as Arc<dyn ServerHandle>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_core::merge::MergeConfig;
    use zerber_index::DocId;

    fn stats() -> CorpusStats {
        let dfs: Vec<u64> = (1..=100u64).map(|r| 1 + 1_000 / r).collect();
        CorpusStats::from_document_frequencies(dfs)
    }

    fn doc(id: u32, group: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(group),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    fn system() -> ZerberSystem {
        let config = ZerberConfig::default().with_merge(MergeConfig::dfm(8));
        ZerberSystem::bootstrap(config, &stats()).unwrap()
    }

    #[test]
    fn bootstrap_builds_n_servers() {
        let sys = system();
        assert_eq!(sys.servers().len(), 3);
        assert_eq!(sys.scheme().threshold(), 2);
        assert_eq!(sys.plan().list_count(), 8);
    }

    #[test]
    fn bootstrap_rejects_invalid_configs() {
        // A threshold no quorum of servers can reach fails fast at
        // bootstrap.
        let config = ZerberConfig {
            threshold: 4,
            ..ZerberConfig::default()
        };
        match ZerberSystem::bootstrap(config, &stats()) {
            Err(SystemError::Config(crate::config::ConfigError::ThresholdExceedsServers {
                threshold: 4,
                servers: 3,
            })) => {}
            Err(other) => panic!("expected ThresholdExceedsServers, got {other:?}"),
            Ok(_) => panic!("expected ThresholdExceedsServers, got a running system"),
        }
    }

    #[test]
    fn concurrent_queries_share_the_system() {
        let mut sys = system();
        for user in 1..=4u32 {
            sys.add_membership(UserId(user), GroupId(0));
        }
        sys.index_document(&doc(1, 0, &[(5, 2), (7, 1)])).unwrap();
        sys.index_document(&doc(2, 0, &[(5, 1)])).unwrap();
        std::thread::scope(|scope| {
            for user in 1..=4u32 {
                let sys = &sys;
                scope.spawn(move || {
                    for _ in 0..5 {
                        let outcome = sys.query(UserId(user), &[TermId(5)], 10).unwrap();
                        assert_eq!(outcome.ranked.len(), 2);
                    }
                });
            }
        });
    }

    #[test]
    fn queries_reuse_one_session_token_per_user() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.add_membership(UserId(2), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 2)])).unwrap();
        for _ in 0..100 {
            sys.query(UserId(1), &[TermId(5)], 10).unwrap();
        }
        sys.query(UserId(2), &[TermId(5)], 10).unwrap();
        assert_eq!(sys.auth.live_tokens(UserId(1)), 1);
        assert_eq!(sys.auth.live_tokens(UserId(2)), 1);
    }

    #[test]
    fn a_rejected_query_is_a_server_error() {
        // Whoever holds the session token, the servers decide: once
        // the authority revokes it the facade reports their rejection.
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 2)])).unwrap();
        sys.query(UserId(1), &[TermId(5)], 10).unwrap();
        let token = sys.session(UserId(1));
        assert!(sys.auth.revoke(token));
        match sys.query(UserId(1), &[TermId(5)], 10) {
            Err(SystemError::Server(ServerError::AuthFailed)) => {}
            other => panic!("expected AuthFailed, got {other:?}"),
        }
    }

    #[test]
    fn end_to_end_index_and_query() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 2), (7, 1)])).unwrap();
        sys.index_document(&doc(2, 0, &[(5, 1)])).unwrap();
        let outcome = sys.query(UserId(1), &[TermId(5)], 10).unwrap();
        assert_eq!(outcome.ranked.len(), 2);
        assert!(sys.traffic().total() > 0);
    }

    #[test]
    fn acl_and_revocation_work_through_the_facade() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 1)])).unwrap();
        assert_eq!(
            sys.query(UserId(1), &[TermId(5)], 10).unwrap().ranked.len(),
            1
        );
        sys.remove_membership(UserId(1), GroupId(0));
        assert_eq!(
            sys.query(UserId(1), &[TermId(5)], 10).unwrap().ranked.len(),
            0
        );
    }

    #[test]
    fn deletion_removes_results() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 1), (6, 1)])).unwrap();
        let removed = sys.delete_document(GroupId(0), DocId(1)).unwrap();
        assert_eq!(removed, 2);
        assert!(sys
            .query(UserId(1), &[TermId(5)], 10)
            .unwrap()
            .ranked
            .is_empty());
        assert_eq!(sys.elements_per_server(), 0);
    }

    #[test]
    fn a_document_the_codec_cannot_hold_is_an_error_not_a_panic() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        let beyond = 1 << 26;
        let corpus = [
            doc(1, 0, &[(5, 2)]),
            doc(2, 0, &[(5, 1)]),
            doc(beyond, 0, &[(5, 1)]),
            doc(3, 0, &[(5, 1)]),
        ];
        match sys.index_corpus(&corpus) {
            Err(SystemError::Codec(CodecError::FieldOverflow { field: "doc", .. })) => {}
            other => panic!("expected a doc-id overflow, got {other:?}"),
        }
        let mut found: Vec<u32> = sys
            .query(UserId(1), &[TermId(5)], 10)
            .unwrap()
            .ranked
            .iter()
            .map(|r| r.doc.0)
            .collect();
        found.sort_unstable();
        assert_eq!(found, [1, 2]);
        assert_eq!(sys.elements_per_server(), 2);
    }

    #[test]
    fn storage_is_replicated_on_every_server() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 1), (6, 1), (7, 1)]))
            .unwrap();
        for server in sys.servers() {
            assert_eq!(server.total_elements(), 3);
        }
    }

    #[test]
    fn proactive_refresh_keeps_queries_working() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.index_document(&doc(1, 0, &[(5, 2)])).unwrap();
        sys.proactive_refresh();
        let outcome = sys.query(UserId(1), &[TermId(5)], 10).unwrap();
        assert_eq!(outcome.ranked.len(), 1, "refresh must not break decryption");
    }

    #[test]
    fn queries_from_different_groups_are_isolated() {
        let mut sys = system();
        sys.add_membership(UserId(1), GroupId(0));
        sys.add_membership(UserId(2), GroupId(1));
        sys.index_document(&doc(1, 0, &[(5, 1)])).unwrap();
        sys.index_document(&doc(2, 1, &[(5, 1)])).unwrap();
        let u1 = sys.query(UserId(1), &[TermId(5)], 10).unwrap();
        assert_eq!(u1.ranked.len(), 1);
        assert_eq!(u1.ranked[0].doc, DocId(1));
        let u2 = sys.query(UserId(2), &[TermId(5)], 10).unwrap();
        assert_eq!(u2.ranked.len(), 1);
        assert_eq!(u2.ranked[0].doc, DocId(2));
    }
}
