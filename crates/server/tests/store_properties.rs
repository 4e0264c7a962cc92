//! Property test for the run-partitioned share store: whatever
//! interleaving of inserts, deletes, refresh rounds and membership
//! changes an index server sees, a lookup answers what a flat list of
//! `(list, share)` rows filtered by the reader's groups would — laid
//! out group by group, insert order within a group — and two servers
//! fed the same requests answer with identical id columns.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::{GroupId, UserId};
use zerber_net::{AuthToken, StoredShare};
use zerber_server::{IndexServer, ServerError, TokenAuth};
use zerber_shamir::{RefreshRound, ServerId, SharingScheme};

const LISTS: u32 = 4;
const GROUPS: u32 = 5;
/// Member of every group, for good: the one who inserts.
const OWNER: UserId = UserId(0);
/// Readers whose memberships come and go.
const READERS: u32 = 3;

#[derive(Debug, Clone)]
enum Op {
    /// `(list, sequence number, group)` rows; the element id is
    /// `group << 40 | sequence`, so a sequence number drawn twice in
    /// one group is the same element inserted twice.
    Insert(Vec<(u32, u64, u32)>),
    /// `(list, sequence number, group)` ids to delete, by the owner or
    /// by a reader who may not be allowed to.
    Delete(Option<u32>, Vec<(u32, u64, u32)>),
    Refresh(u64),
    Join(u32, u32),
    Leave(u32, u32),
}

fn arb_rows() -> impl Strategy<Value = Vec<(u32, u64, u32)>> {
    prop::collection::vec((0..LISTS, 0u64..24, 0..GROUPS), 0..12)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_rows().prop_map(Op::Insert),
        arb_rows().prop_map(Op::Insert),
        arb_rows().prop_map(Op::Insert),
        (0..READERS + 2, arb_rows())
            .prop_map(|(who, rows)| Op::Delete(Some(who).filter(|&r| r < READERS), rows)),
        any::<u64>().prop_map(Op::Refresh),
        (0..READERS, 0..GROUPS).prop_map(|(r, g)| Op::Join(r, g)),
        (0..READERS, 0..GROUPS).prop_map(|(r, g)| Op::Leave(r, g)),
    ]
}

fn element(sequence: u64, group: u32) -> ElementId {
    ElementId((u64::from(group) << 40) | sequence)
}

fn reader(index: u32) -> UserId {
    UserId(index + 1)
}

/// The flat store the runs replaced, for one server.
#[derive(Default)]
struct Oracle {
    rows: Vec<(PlId, StoredShare)>,
    memberships: Vec<BTreeSet<GroupId>>,
}

impl Oracle {
    fn groups_of(&self, user: UserId) -> BTreeSet<GroupId> {
        match user {
            OWNER => (0..GROUPS).map(GroupId).collect(),
            UserId(index) => self.memberships[index as usize - 1].clone(),
        }
    }

    /// What `user` may read of `pl`: group-major, insert order within
    /// a group (a stable sort of the flat list).
    fn readable(&self, user: UserId, pl: PlId) -> Vec<(u64, Fp)> {
        let groups = self.groups_of(user);
        let mut rows: Vec<&StoredShare> = self
            .rows
            .iter()
            .filter(|(list, share)| *list == pl && groups.contains(&share.group))
            .map(|(_, share)| share)
            .collect();
        rows.sort_by_key(|share| share.group);
        rows.iter()
            .map(|share| (share.element.0, share.share))
            .collect()
    }

    fn delete(&mut self, user: UserId, ids: &[(PlId, ElementId)]) -> Result<usize, ()> {
        let groups = self.groups_of(user);
        let addressed = |(list, share): &(PlId, StoredShare)| ids.contains(&(*list, share.element));
        if self
            .rows
            .iter()
            .any(|row| addressed(row) && !groups.contains(&row.1.group))
        {
            return Err(());
        }
        let before = self.rows.len();
        self.rows.retain(|row| !addressed(row));
        Ok(before - self.rows.len())
    }
}

struct World {
    servers: Vec<IndexServer>,
    scheme: SharingScheme,
    tokens: Vec<AuthToken>,
    oracle: Oracle,
    /// The next y-share to hand out: distinct per row, so a row landing
    /// in the wrong place cannot go unnoticed.
    next_share: u64,
}

impl World {
    fn new() -> Self {
        let auth = Arc::new(TokenAuth::new());
        let scheme = SharingScheme::with_coordinates(2, vec![Fp::new(11), Fp::new(22)]).unwrap();
        let servers: Vec<IndexServer> = scheme
            .coordinates()
            .iter()
            .enumerate()
            .map(|(id, &x)| IndexServer::new(id as u32, x, auth.clone()))
            .collect();
        for server in &servers {
            for group in 0..GROUPS {
                server.add_user_to_group(OWNER, GroupId(group));
            }
        }
        let tokens = (0..=READERS).map(|user| auth.issue(UserId(user))).collect();
        Self {
            servers,
            scheme,
            tokens,
            oracle: Oracle {
                rows: Vec::new(),
                memberships: vec![BTreeSet::new(); READERS as usize],
            },
            next_share: 1,
        }
    }

    fn token(&self, user: UserId) -> AuthToken {
        self.tokens[user.0 as usize]
    }

    fn apply(&mut self, op: &Op) -> Result<(), TestCaseError> {
        match op {
            Op::Insert(rows) => {
                let entries: Vec<(PlId, StoredShare)> = rows
                    .iter()
                    .map(|&(pl, sequence, group)| {
                        self.next_share += 1;
                        let share = StoredShare {
                            element: element(sequence, group),
                            group: GroupId(group),
                            share: Fp::new(self.next_share),
                        };
                        (PlId(pl), share)
                    })
                    .collect();
                for server in &self.servers {
                    prop_assert_eq!(server.insert_batch(self.token(OWNER), &entries), Ok(()));
                }
                self.oracle.rows.extend(entries);
            }
            Op::Delete(who, rows) => {
                let user = who.map_or(OWNER, reader);
                let ids: Vec<(PlId, ElementId)> = rows
                    .iter()
                    .map(|&(pl, sequence, group)| (PlId(pl), element(sequence, group)))
                    .collect();
                let expected = self.oracle.delete(user, &ids);
                for server in &self.servers {
                    match (server.delete(self.token(user), &ids), expected) {
                        (Ok(removed), Ok(wanted)) => prop_assert_eq!(removed, wanted),
                        (Err(ServerError::NotGroupMember(group)), Err(())) => {
                            prop_assert!(!self.oracle.groups_of(user).contains(&group));
                        }
                        (got, wanted) => prop_assert!(false, "delete: {:?} vs {:?}", got, wanted),
                    }
                }
            }
            Op::Refresh(seed) => {
                let mut rng = StdRng::seed_from_u64(*seed);
                let round = RefreshRound::generate(&self.scheme, &mut rng);
                for server in &self.servers {
                    server.apply_refresh(&round);
                }
                for (_, share) in &mut self.oracle.rows {
                    share.share += round.delta_for(ServerId(0), share.element.0).unwrap();
                }
            }
            Op::Join(index, group) => {
                for server in &self.servers {
                    server.add_user_to_group(reader(*index), GroupId(*group));
                }
                self.oracle.memberships[*index as usize].insert(GroupId(*group));
            }
            Op::Leave(index, group) => {
                let was = self.oracle.memberships[*index as usize].remove(&GroupId(*group));
                for server in &self.servers {
                    let removed = server.remove_user_from_group(reader(*index), GroupId(*group));
                    prop_assert_eq!(removed, was);
                }
            }
        }
        Ok(())
    }

    /// Every user's view of every list — asked for in a rotating order
    /// with one list nobody wrote to — against the oracle's.
    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        let mut lists: Vec<PlId> = (0..=LISTS).map(PlId).collect();
        lists.rotate_left(step % (LISTS as usize + 1));
        for user in (0..=READERS).map(UserId) {
            let answers: Vec<_> = self
                .servers
                .iter()
                .map(|server| server.get_posting_lists(self.token(user), &lists).unwrap())
                .collect();
            prop_assert_eq!(answers[0].len(), lists.len());
            for (position, &pl) in lists.iter().enumerate() {
                let answer = &answers[0][position];
                prop_assert_eq!(answer.pl, pl);
                let rows: Vec<(u64, Fp)> = answer.rows().map(|(e, y)| (e.0, y)).collect();
                prop_assert_eq!(
                    &rows,
                    &self.oracle.readable(user, pl),
                    "{:?} {:?}",
                    user,
                    pl
                );
                prop_assert_eq!(answers[1][position].elements(), answer.elements());
                prop_assert_eq!(
                    self.servers[0]
                        .adversary_view()
                        .groups_of(user)
                        .iter()
                        .copied()
                        .collect::<BTreeSet<_>>(),
                    self.oracle.groups_of(user)
                );
            }
        }
        for server in &self.servers {
            prop_assert_eq!(server.total_elements(), self.oracle.rows.len());
            let view = server.adversary_view();
            for pl in (0..LISTS).map(PlId) {
                let stored = self
                    .oracle
                    .rows
                    .iter()
                    .filter(|(list, _)| *list == pl)
                    .count();
                prop_assert_eq!(view.list_len(pl), stored);
                prop_assert_eq!(view.list_lengths().get(&pl).copied().unwrap_or(0), stored);
                prop_assert_eq!(view.raw_list(pl).len(), stored);
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn lookups_equal_the_flat_store_filtered_by_group(
        ops in prop::collection::vec(arb_op(), 1..40),
        // Checking only every few steps leaves rows unsettled across
        // several inserts, deletes and refreshes.
        stride in 1usize..6,
    ) {
        let mut world = World::new();
        for (step, op) in ops.iter().enumerate() {
            world.apply(op)?;
            if step % stride == 0 {
                world.check(step)?;
            }
        }
        world.check(ops.len())?;
    }
}
