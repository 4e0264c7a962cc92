//! Client-side stubs speaking the wire protocol to peer threads.
//!
//! A [`RuntimeHandle`] is what `ZerberSystem` hands to owners and
//! query clients instead of a direct [`zerber_server::IndexServer`]
//! reference: every call is encoded to its exact wire bytes, crosses
//! the [`Transport`] (metering the link both ways), executes on the
//! server's own peer thread, and the typed result is decoded from the
//! response frame. This replaces the old `MeteredHandle`, which
//! serialized messages purely for byte accounting and then dispatched
//! inline on the caller's thread.
//!
//! A lookup is split at the transport's own seam: `begin_fetch` is
//! [`Transport::begin`], and the [`PendingFetch`] it returns waits on
//! the [`PendingReply`](crate::runtime::PendingReply) — the discipline
//! the sharded read path gathers with — so a query has all `k` servers
//! working before it blocks on the first.

use std::sync::Arc;

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_net::{AuthToken, ListVersion, Message, NodeId, StoredShare};
use zerber_server::ServerError;

use zerber_client::{PendingFetch, ServerHandle};

use crate::runtime::transport::{request_payload, Transport, TransportError, DEFAULT_RPC_TIMEOUT};

/// A [`ServerHandle`] backed by a peer thread behind a transport.
pub struct RuntimeHandle {
    transport: Arc<dyn Transport>,
    from: NodeId,
    to: NodeId,
    coordinate: Fp,
}

impl RuntimeHandle {
    /// A handle for calls `from → to`. The server's public Shamir
    /// x-coordinate is cached client-side (it is public scheme
    /// metadata, not worth a round trip).
    pub fn new(transport: Arc<dyn Transport>, from: NodeId, to: NodeId, coordinate: Fp) -> Self {
        Self {
            transport,
            from,
            to,
            coordinate,
        }
    }

    /// One round trip.
    fn round_trip(&self, auth: AuthToken, request: &Message) -> Result<Message, ServerError> {
        answered(self.transport.request(self.from, self.to, auth, request))
    }
}

/// A reply as the caller sees it: a server's rejection is the
/// `ServerError` its fault frame carries, and a server that did not
/// answer — the transport failed, or the fault is a transport-level
/// one — is [`ServerError::Unavailable`]. Any other frame passes.
fn answered(reply: Result<Message, TransportError>) -> Result<Message, ServerError> {
    match reply {
        Ok(Message::Fault { code, group }) => {
            Err(ServerError::from_fault(code, group).unwrap_or(ServerError::Unavailable))
        }
        Ok(frame) => Ok(frame),
        Err(_) => Err(ServerError::Unavailable),
    }
}

impl ServerHandle for RuntimeHandle {
    fn coordinate(&self) -> Fp {
        self.coordinate
    }

    fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError> {
        let request = Message::InsertBatch {
            entries: entries.to_vec(),
        };
        match self.round_trip(token, &request)? {
            Message::InsertOk => Ok(()),
            _ => Err(ServerError::Unavailable),
        }
    }

    fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError> {
        let request = Message::Delete {
            elements: elements.to_vec(),
        };
        match self.round_trip(token, &request)? {
            Message::DeleteOk { removed } => Ok(removed as usize),
            _ => Err(ServerError::Unavailable),
        }
    }

    fn begin_fetch(&self, token: AuthToken, lists: &[(PlId, Option<ListVersion>)]) -> PendingFetch {
        let request = Message::Query {
            auth: token,
            lists: lists.to_vec(),
        };
        let payload = request_payload(&request);
        let mut reply = self.transport.begin(self.from, self.to, token, payload);
        PendingFetch::waiting(move || match answered(reply.wait(DEFAULT_RPC_TIMEOUT))? {
            Message::QueryResponse { lists } => Ok(lists),
            _ => Err(ServerError::Unavailable),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{PeerRuntime, ServerService};
    use zerber_index::{GroupId, UserId};
    use zerber_net::TrafficMeter;
    use zerber_server::{IndexServer, TokenAuth};

    fn world() -> (PeerRuntime, RuntimeHandle, AuthToken, Arc<TrafficMeter>) {
        let auth = Arc::new(TokenAuth::new());
        let server = Arc::new(IndexServer::new(0, Fp::new(3), auth.clone()));
        server.add_user_to_group(UserId(1), GroupId(0));
        let meter = Arc::new(TrafficMeter::new());
        let runtime = PeerRuntime::new(meter.clone());
        let node = NodeId::IndexServer(0);
        runtime.spawn_peer(node, move || ServerService::new(server));
        let handle = RuntimeHandle::new(
            runtime.transport().clone(),
            NodeId::User(1),
            node,
            Fp::new(3),
        );
        (runtime, handle, auth.issue(UserId(1)), meter)
    }

    #[test]
    fn traffic_is_recorded_in_both_directions() {
        let (_runtime, handle, token, meter) = world();
        let user = NodeId::User(1);
        let node = NodeId::IndexServer(0);

        let share = StoredShare {
            element: ElementId(1),
            group: GroupId(0),
            share: Fp::new(9),
        };
        handle.insert_batch(token, &[(PlId(0), share)]).unwrap();
        let upstream = meter.link_bytes(user, node);
        assert!(upstream > 0, "insert bytes recorded");

        let lists = handle
            .begin_fetch(token, &[(PlId(0), None)])
            .wait()
            .unwrap();
        assert_eq!(lists[0].len(), 1);
        assert!(meter.link_bytes(node, user) > 0, "response bytes recorded");
        assert!(meter.link_bytes(user, node) > upstream, "query bytes added");

        assert_eq!(handle.delete(token, &[(PlId(0), ElementId(1))]), Ok(1));
    }

    #[test]
    fn server_rejections_come_back_typed() {
        let (_runtime, handle, _token, _meter) = world();
        let bogus = AuthToken(4242);
        assert_eq!(
            handle
                .begin_fetch(bogus, &[(PlId(0), None)])
                .wait()
                .unwrap_err(),
            ServerError::AuthFailed
        );
        let share = StoredShare {
            element: ElementId(1),
            group: GroupId(7),
            share: Fp::new(1),
        };
        assert_eq!(
            handle.insert_batch(bogus, &[(PlId(0), share)]).unwrap_err(),
            ServerError::AuthFailed
        );
    }

    #[test]
    fn a_dead_server_is_a_typed_error_not_a_panic() {
        let (runtime, handle, token, _meter) = world();
        runtime.transport().shutdown(NodeId::IndexServer(0));
        let share = StoredShare {
            element: ElementId(1),
            group: GroupId(0),
            share: Fp::new(9),
        };
        assert_eq!(
            handle.insert_batch(token, &[(PlId(0), share)]),
            Err(ServerError::Unavailable)
        );
        assert_eq!(
            handle.delete(token, &[(PlId(0), ElementId(1))]),
            Err(ServerError::Unavailable)
        );
        assert_eq!(
            handle
                .begin_fetch(token, &[(PlId(0), None)])
                .wait()
                .unwrap_err(),
            ServerError::Unavailable
        );
    }
}
