//! The index-server front end: authentication, ACL enforcement, and
//! the narrow insert/delete/lookup interface (Algorithm 2, server
//! side).

use std::sync::Arc;

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::{GroupId, UserId};
use zerber_net::{AuthToken, ListVersion, ShareColumns, StoredShare};
use zerber_shamir::RefreshRound;

use crate::auth::AuthService;
use crate::groups::GroupTable;
use crate::store::ShareStore;

/// Errors returned to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// The token did not authenticate.
    AuthFailed,
    /// The authenticated user is not a member of the required group.
    NotGroupMember(GroupId),
    /// No answer from the server: it is down, unreachable, or replied
    /// with something that is not an answer. Raised by the caller's
    /// side of a remote [`IndexServer`], never by the server itself.
    Unavailable,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::AuthFailed => write!(f, "authentication failed"),
            ServerError::NotGroupMember(group) => {
                write!(f, "user is not a member of group {group}")
            }
            ServerError::Unavailable => write!(f, "index server unavailable"),
        }
    }
}

impl std::error::Error for ServerError {}

impl ServerError {
    /// The wire encoding of this rejection as a
    /// [`zerber_net::Message::Fault`] frame: `(code, group)`, with
    /// `group` zero unless the fault names one.
    pub fn to_fault(&self) -> (u8, GroupId) {
        use zerber_net::message::fault;
        match self {
            ServerError::AuthFailed => (fault::AUTH_FAILED, GroupId(0)),
            ServerError::NotGroupMember(group) => (fault::NOT_GROUP_MEMBER, *group),
            // Relayed, a server that could not be asked is a request
            // this peer could not serve — the transport-level fault
            // [`ServerError::from_fault`] maps to no server error.
            ServerError::Unavailable => (fault::UNSUPPORTED, GroupId(0)),
        }
    }

    /// Decodes a wire fault frame back into the server error it
    /// carries. `None` for transport-level faults (malformed or
    /// unsupported requests) that have no server-side equivalent.
    pub fn from_fault(code: u8, group: GroupId) -> Option<Self> {
        use zerber_net::message::fault;
        match code {
            fault::AUTH_FAILED => Some(ServerError::AuthFailed),
            fault::NOT_GROUP_MEMBER => Some(ServerError::NotGroupMember(group)),
            _ => None,
        }
    }
}

/// One Zerber index server.
pub struct IndexServer {
    id: u32,
    coordinate: Fp,
    store: ShareStore,
    groups: GroupTable,
    auth: Arc<dyn AuthService>,
}

impl std::fmt::Debug for IndexServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexServer")
            .field("id", &self.id)
            .field("coordinate", &self.coordinate)
            .field("elements", &self.store.total_elements())
            .finish()
    }
}

impl IndexServer {
    /// Creates a server with its public Shamir x-coordinate and an
    /// authentication backend.
    pub fn new(id: u32, coordinate: Fp, auth: Arc<dyn AuthService>) -> Self {
        Self {
            id,
            coordinate,
            store: ShareStore::new(),
            groups: GroupTable::new(),
            auth: auth.clone(),
        }
    }

    /// The server's public x-coordinate.
    pub fn coordinate(&self) -> Fp {
        self.coordinate
    }

    /// Administrative: group-membership updates (who may do this is
    /// "outside the scope of this paper", Section 5.3).
    pub fn add_user_to_group(&self, user: UserId, group: GroupId) {
        self.groups.add(user, group);
    }

    /// Administrative: revoke a membership. Effective immediately.
    pub fn remove_user_from_group(&self, user: UserId, group: GroupId) -> bool {
        self.groups.remove(user, group)
    }

    /// Insert a batch of element shares. The server "authenticates the
    /// user, checks his group membership and accepts the update if
    /// appropriate" (Section 5.4.1).
    pub fn insert_batch(
        &self,
        token: AuthToken,
        entries: &[(PlId, StoredShare)],
    ) -> Result<(), ServerError> {
        let user = self
            .auth
            .authenticate(token)
            .ok_or(ServerError::AuthFailed)?;
        let groups = self.groups.groups_of(user);
        if let Some((_, refused)) = entries.iter().find(|(_, s)| !groups.contains(&s.group)) {
            return Err(ServerError::NotGroupMember(refused.group));
        }
        self.store.insert_batch(entries);
        Ok(())
    }

    /// Delete elements by id (one request per element — the server
    /// cannot group them by document, Section 7.3). Like an insert, a
    /// delete is an update the server "accepts if appropriate"
    /// (Section 5.4.1): the user must be a member of the group of
    /// every element the request addresses, or the whole request is
    /// rejected and nothing is removed — element ids are guessable
    /// (`owner << 40 | sequence`), so a valid token alone must not be
    /// enough. Ids that match nothing stay a silent no-op.
    pub fn delete(
        &self,
        token: AuthToken,
        elements: &[(PlId, ElementId)],
    ) -> Result<usize, ServerError> {
        let user = self
            .auth
            .authenticate(token)
            .ok_or(ServerError::AuthFailed)?;
        let groups = self.groups.groups_of(user);
        self.store
            .delete_permitted(elements, |group| groups.contains(&group))
            .map_err(ServerError::NotGroupMember)
    }

    /// Algorithm 2 (server side): authenticate, load the user's
    /// groups, return the accessible parts of the requested lists —
    /// one [`ShareColumns`] per list, in request order, each the runs
    /// of the user's groups in group-id order — except that a list
    /// still at the [`ListVersion`] the request holds for it is
    /// answered [`unchanged`](ShareColumns::unchanged). Every answer is
    /// stamped with the list's version for this user and this
    /// server's refresh round. The answer depends on the request and
    /// on what the server already stores in the clear (group table,
    /// group and element id of every share, its own write and
    /// membership history), so serving it this way reveals nothing
    /// Section 5.3 did not already grant.
    pub fn lookup(
        &self,
        token: AuthToken,
        requests: &[(PlId, Option<ListVersion>)],
    ) -> Result<Vec<ShareColumns>, ServerError> {
        let user = self
            .auth
            .authenticate(token)
            .ok_or(ServerError::AuthFailed)?;
        let membership = self.groups.membership(user);
        let permit = |group| membership.groups.contains(&group);
        Ok(self.store.lookup(requests, membership.changes, permit))
    }

    /// [`IndexServer::lookup`] holding no version: every requested
    /// list answered with its rows.
    pub fn get_posting_lists(
        &self,
        token: AuthToken,
        pl_ids: &[PlId],
    ) -> Result<Vec<ShareColumns>, ServerError> {
        let requests: Vec<(PlId, Option<ListVersion>)> =
            pl_ids.iter().map(|&pl| (pl, None)).collect();
        self.lookup(token, &requests)
    }

    /// Applies a proactive refresh round (Section 5.1 / \[21\]): every
    /// stored y-share is shifted by this server's delta for that
    /// element (each element is an independent sharing, so each gets
    /// its own zero-constant delta polynomial), and this server's
    /// refresh round goes up by one.
    ///
    /// # Panics
    /// Panics if this server's id is not a server of the scheme `round`
    /// was generated for.
    #[expect(
        clippy::expect_used,
        reason = "a deployment numbers its servers by the scheme's coordinates, and a round covers every coordinate"
    )]
    pub fn apply_refresh(&self, round: &RefreshRound) {
        let server = zerber_shamir::ServerId(self.id);
        self.store.refresh(|element, share| {
            *share += round
                .delta_for(server, element.0)
                .expect("refresh round covers this server");
        });
    }

    /// Total elements stored (for storage accounting).
    pub fn total_elements(&self) -> usize {
        self.store.total_elements()
    }

    /// Payload bytes those elements occupy in the store (see
    /// `ShareStore::stored_bytes`).
    pub fn stored_bytes(&self) -> usize {
        self.store.stored_bytes()
    }

    /// What an adversary who owns this box can see: every stored share
    /// (with clear-text element/group ids), all list lengths, and the
    /// group table. Used by `zerber-attacks`.
    pub fn adversary_view(&self) -> AdversaryView<'_> {
        AdversaryView { server: self }
    }
}

/// The complete knowledge available to an adversary who compromises
/// one index server (threat model, Section 4).
pub struct AdversaryView<'a> {
    server: &'a IndexServer,
}

impl AdversaryView<'_> {
    /// Observed length of a merged posting list.
    pub fn list_len(&self, pl: PlId) -> usize {
        self.server.store.list_len(pl)
    }

    /// All observed list lengths.
    pub fn list_lengths(&self) -> std::collections::HashMap<PlId, usize> {
        self.server.store.list_lengths()
    }

    /// Raw shares of a list — opaque y-values plus routing fields.
    pub fn raw_list(&self, pl: PlId) -> Vec<StoredShare> {
        self.server.store.raw_list(pl)
    }

    /// The groups a given user belongs to (the user-group table is
    /// stored in the clear, Section 5.3).
    pub fn groups_of(&self, user: UserId) -> Arc<std::collections::HashSet<GroupId>> {
        self.server.groups.groups_of(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::TokenAuth;

    fn setup() -> (IndexServer, Arc<TokenAuth>) {
        let auth = Arc::new(TokenAuth::new());
        let server = IndexServer::new(0, Fp::new(17), auth.clone());
        (server, auth)
    }

    fn share(element: u64, group: u32) -> StoredShare {
        StoredShare {
            element: ElementId(element),
            group: GroupId(group),
            share: Fp::new(element + 1000),
        }
    }

    #[test]
    fn authenticated_member_can_insert_and_query() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        server
            .insert_batch(token, &[(PlId(3), share(1, 0))])
            .unwrap();
        let lists = server.get_posting_lists(token, &[PlId(3)]).unwrap();
        assert_eq!(lists[0].len(), 1);
    }

    #[test]
    fn fault_frames_round_trip_server_errors() {
        for error in [
            ServerError::AuthFailed,
            ServerError::NotGroupMember(GroupId(7)),
        ] {
            let (code, group) = error.to_fault();
            assert_eq!(ServerError::from_fault(code, group), Some(error));
        }
        assert_eq!(
            ServerError::from_fault(zerber_net::message::fault::UNSUPPORTED, GroupId(0)),
            None
        );
    }

    #[test]
    fn bad_token_is_rejected() {
        let (server, _) = setup();
        let bogus = AuthToken(555);
        assert_eq!(
            server.insert_batch(bogus, &[]).unwrap_err(),
            ServerError::AuthFailed
        );
        assert_eq!(
            server.get_posting_lists(bogus, &[PlId(0)]).unwrap_err(),
            ServerError::AuthFailed
        );
        assert_eq!(
            server.delete(bogus, &[]).unwrap_err(),
            ServerError::AuthFailed
        );
    }

    #[test]
    fn non_member_cannot_insert_into_group() {
        let (server, auth) = setup();
        let token = auth.issue(UserId(2));
        let err = server
            .insert_batch(token, &[(PlId(0), share(1, 7))])
            .unwrap_err();
        assert_eq!(err, ServerError::NotGroupMember(GroupId(7)));
        assert_eq!(server.total_elements(), 0, "rejected batch not stored");
    }

    #[test]
    fn query_filters_by_group_membership() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        server.add_user_to_group(UserId(1), GroupId(1));
        server.add_user_to_group(UserId(2), GroupId(1));
        let owner_token = auth.issue(UserId(1));
        server
            .insert_batch(
                owner_token,
                &[(PlId(0), share(1, 0)), (PlId(0), share(2, 1))],
            )
            .unwrap();

        let other_token = auth.issue(UserId(2));
        let lists = server.get_posting_lists(other_token, &[PlId(0)]).unwrap();
        assert_eq!(lists[0].elements(), [2], "group 1's element only");
    }

    #[test]
    fn revocation_is_immediate() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        server
            .insert_batch(token, &[(PlId(0), share(1, 0))])
            .unwrap();
        assert_eq!(
            server.get_posting_lists(token, &[PlId(0)]).unwrap()[0].len(),
            1
        );
        server.remove_user_from_group(UserId(1), GroupId(0));
        assert_eq!(
            server.get_posting_lists(token, &[PlId(0)]).unwrap()[0].len(),
            0,
            "membership change reflected on the very next query"
        );
    }

    #[test]
    fn delete_requires_auth_but_removes_elements() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        server
            .insert_batch(token, &[(PlId(0), share(9, 0))])
            .unwrap();
        let removed = server.delete(token, &[(PlId(0), ElementId(9))]).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(server.total_elements(), 0);
    }

    #[test]
    fn member_of_another_group_cannot_delete() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        server.add_user_to_group(UserId(1), GroupId(1));
        server.add_user_to_group(UserId(2), GroupId(1));
        let owner = auth.issue(UserId(1));
        server
            .insert_batch(owner, &[(PlId(0), share(9, 0)), (PlId(0), share(10, 1))])
            .unwrap();
        // User 2 may touch group 1's element but not group 0's: the
        // whole request bounces and *neither* element goes.
        let outsider = auth.issue(UserId(2));
        let both = [(PlId(0), ElementId(10)), (PlId(0), ElementId(9))];
        assert_eq!(
            server.delete(outsider, &both),
            Err(ServerError::NotGroupMember(GroupId(0)))
        );
        assert_eq!(
            server.total_elements(),
            2,
            "rejected delete removed nothing"
        );
        // Unknown ids are nobody's: a silent no-op, not a rejection.
        assert_eq!(server.delete(outsider, &[(PlId(7), ElementId(77))]), Ok(0));
        assert_eq!(server.delete(outsider, &both[..1]), Ok(1));
        assert_eq!(server.delete(owner, &both), Ok(1));
    }

    #[test]
    fn adversary_sees_lengths_but_only_opaque_shares() {
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        server
            .insert_batch(token, &[(PlId(0), share(1, 0)), (PlId(0), share(2, 0))])
            .unwrap();
        let view = server.adversary_view();
        assert_eq!(view.list_len(PlId(0)), 2);
        assert_eq!(view.raw_list(PlId(0)).len(), 2);
        assert!(view.groups_of(UserId(1)).contains(&GroupId(0)));
    }

    #[test]
    fn refresh_shifts_every_share() {
        use rand::SeedableRng;
        let (server, auth) = setup();
        server.add_user_to_group(UserId(1), GroupId(0));
        let token = auth.issue(UserId(1));
        server
            .insert_batch(token, &[(PlId(0), share(1, 0)), (PlId(0), share(2, 0))])
            .unwrap();
        let before: Vec<Fp> = server
            .adversary_view()
            .raw_list(PlId(0))
            .iter()
            .map(|s| s.share)
            .collect();

        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        // Threshold 2 so the zero-constant delta polynomial has a
        // nonzero linear term (threshold 1 would make every delta zero
        // and the assertions vacuous); this server sits at index 0.
        let scheme = zerber_shamir::SharingScheme::with_coordinates(
            2,
            vec![server.coordinate(), Fp::new(23)],
        )
        .unwrap();
        let round = RefreshRound::generate(&scheme, &mut rng);
        server.apply_refresh(&round);
        let view = server.adversary_view().raw_list(PlId(0));
        for (stored, &old) in view.iter().zip(&before) {
            let delta = round
                .delta_for(zerber_shamir::ServerId(0), stored.element.0)
                .unwrap();
            assert_ne!(delta, Fp::ZERO, "delta must actually shift the share");
            assert_eq!(old + delta, stored.share);
        }
    }
}
