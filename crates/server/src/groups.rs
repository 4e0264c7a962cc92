//! The server-side user–group table.
//!
//! Section 5.3: "each index server records which users belong to each
//! group, and which posting elements are accessible to each group. …
//! To add or remove a user from a group, only the table containing the
//! user-group metadata needs to be updated" — that is the whole
//! machinery behind Zerber's instant membership revocation (no
//! re-encryption, no re-indexing).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::RwLock;

use zerber_index::{GroupId, UserId};

/// One user's groups, and how many times they changed.
#[derive(Debug, Clone, Default)]
pub(crate) struct Membership {
    pub(crate) groups: Arc<HashSet<GroupId>>,
    /// Groups gained plus groups lost: the membership half of every
    /// list version this user is answered at.
    pub(crate) changes: u64,
}

/// Thread-safe user → groups table.
///
/// A user's set is shared, not copied, with the requests reading it:
/// [`GroupTable::membership`] hands out the `Arc`, and a membership
/// change copies the set only while such a snapshot is still held.
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    memberships: RwLock<HashMap<UserId, Membership>>,
}

impl GroupTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a membership.
    pub(crate) fn add(&self, user: UserId, group: GroupId) {
        let mut memberships = self.memberships.write();
        let membership = memberships.entry(user).or_default();
        // Looked up first: `make_mut` may copy the set.
        if !membership.groups.contains(&group) {
            Arc::make_mut(&mut membership.groups).insert(group);
            membership.changes += 1;
        }
    }

    /// Removes a membership; returns true iff it existed. Takes effect
    /// on the *next* query — nothing else needs touching.
    pub(crate) fn remove(&self, user: UserId, group: GroupId) -> bool {
        let mut memberships = self.memberships.write();
        let Some(membership) = memberships.get_mut(&user) else {
            return false;
        };
        if !membership.groups.contains(&group) {
            return false;
        }
        Arc::make_mut(&mut membership.groups).remove(&group);
        membership.changes += 1;
        true
    }

    /// Snapshot of a user's groups (the `SELECT groupID FROM groups
    /// WHERE userID = ?` of Algorithm 2) with their change count, read
    /// together.
    pub(crate) fn membership(&self, user: UserId) -> Membership {
        self.memberships
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_default()
    }

    /// Snapshot of a user's groups.
    pub(crate) fn groups_of(&self, user: UserId) -> Arc<HashSet<GroupId>> {
        self.membership(user).groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_round_trip() {
        let table = GroupTable::new();
        table.add(UserId(1), GroupId(2));
        assert!(table.groups_of(UserId(1)).contains(&GroupId(2)));
        assert!(table.remove(UserId(1), GroupId(2)));
        assert!(!table.groups_of(UserId(1)).contains(&GroupId(2)));
        assert!(!table.remove(UserId(1), GroupId(2)));
    }

    #[test]
    fn groups_of_returns_snapshot() {
        let table = GroupTable::new();
        table.add(UserId(1), GroupId(1));
        table.add(UserId(1), GroupId(2));
        let snapshot = table.groups_of(UserId(1));
        assert_eq!(snapshot.len(), 2);
        table.add(UserId(1), GroupId(3));
        assert_eq!(snapshot.len(), 2, "snapshot is immutable");
        assert_eq!(table.groups_of(UserId(1)).len(), 3);
    }

    #[test]
    fn unknown_users_have_no_groups() {
        let table = GroupTable::new();
        assert!(table.groups_of(UserId(9)).is_empty());
    }

    #[test]
    fn only_a_change_counts() {
        let table = GroupTable::new();
        let changes = |table: &GroupTable| table.membership(UserId(1)).changes;
        table.add(UserId(1), GroupId(1));
        table.add(UserId(1), GroupId(1));
        assert_eq!(changes(&table), 1);
        assert!(!table.remove(UserId(1), GroupId(2)));
        assert!(!table.remove(UserId(5), GroupId(1)));
        assert_eq!(changes(&table), 1);
        assert!(table.remove(UserId(1), GroupId(1)));
        table.add(UserId(1), GroupId(1));
        assert_eq!(changes(&table), 3);
        assert_eq!(table.membership(UserId(2)).changes, 0);
    }
}
