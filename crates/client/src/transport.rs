//! The client-visible server interface.
//!
//! Exactly the narrow surface of Section 5 — insert, delete, look up —
//! plus the public Shamir x-coordinate. The facade crate wraps
//! implementations with traffic metering; tests call servers directly.
//!
//! The lookup is a begin/wait pair: [`ServerHandle::begin_fetch`]
//! sends the request and returns at once, [`PendingFetch::wait`]
//! collects the answer. A query begins all `k` of its fetches on its
//! own thread before waiting for the first, so servers behind a
//! transport work in parallel and nothing is spawned. Each requested
//! list names the [`ListVersion`] the client holds, if any; a list
//! still at it comes back [`ShareColumns::unchanged`].

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_net::{AuthToken, ListVersion, ShareColumns, StoredShare};
use zerber_server::{IndexServer, ServerError};

/// What a lookup answers: one [`ShareColumns`] per requested list.
pub(crate) type FetchResult = Result<Vec<ShareColumns>, ServerError>;

/// A lookup in flight — what [`ServerHandle::begin_fetch`] returns.
pub struct PendingFetch(Fetch);

enum Fetch {
    Ready(FetchResult),
    Waiting(Box<dyn FnOnce() -> FetchResult>),
}

impl PendingFetch {
    /// A lookup that was answered on the spot (a server called
    /// directly).
    pub fn ready(result: FetchResult) -> Self {
        Self(Fetch::Ready(result))
    }

    /// A lookup whose answer `wait` will block for (a server behind a
    /// transport).
    pub fn waiting(wait: impl FnOnce() -> FetchResult + 'static) -> Self {
        Self(Fetch::Waiting(Box::new(wait)))
    }

    /// Blocks until the server has answered.
    pub fn wait(self) -> FetchResult {
        match self.0 {
            Fetch::Ready(result) => result,
            Fetch::Waiting(wait) => wait(),
        }
    }
}

/// What a client can ask of one index server.
pub trait ServerHandle: Send + Sync {
    /// The server's public x-coordinate in the sharing scheme.
    fn coordinate(&self) -> Fp;

    /// Insert a batch of element shares.
    fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError>;

    /// Delete elements by id.
    fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError>;

    /// Begins fetching the accessible parts of the requested posting
    /// lists, each paired with the version the caller holds of it.
    /// Must not block on the server; its answer — or its rejection —
    /// comes out of [`PendingFetch::wait`].
    fn begin_fetch(&self, token: AuthToken, lists: &[(PlId, Option<ListVersion>)]) -> PendingFetch;
}

impl ServerHandle for IndexServer {
    fn coordinate(&self) -> Fp {
        IndexServer::coordinate(self)
    }

    fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError> {
        IndexServer::insert_batch(self, token, entries)
    }

    fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError> {
        IndexServer::delete(self, token, elements)
    }

    fn begin_fetch(&self, token: AuthToken, lists: &[(PlId, Option<ListVersion>)]) -> PendingFetch {
        PendingFetch::ready(self.lookup(token, lists))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zerber_index::{GroupId, UserId};
    use zerber_server::TokenAuth;

    #[test]
    fn index_server_implements_the_trait() {
        let auth = Arc::new(TokenAuth::new());
        let server = IndexServer::new(0, Fp::new(5), auth.clone());
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        let handle: &dyn ServerHandle = &server;
        assert_eq!(handle.coordinate(), Fp::new(5));
        assert!(handle.insert_batch(token, &[]).is_ok());
        assert_eq!(handle.begin_fetch(token, &[]).wait().unwrap().len(), 0);
    }
}
