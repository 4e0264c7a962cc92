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

/// Thread-safe user → groups table.
///
/// A user's set is shared, not copied, with the requests reading it:
/// [`GroupTable::groups_of`] hands out the `Arc`, and a membership
/// change copies the set only while such a snapshot is still held.
#[derive(Debug, Default)]
pub(crate) struct GroupTable {
    memberships: RwLock<HashMap<UserId, Arc<HashSet<GroupId>>>>,
}

impl GroupTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a membership.
    pub(crate) fn add(&self, user: UserId, group: GroupId) {
        let mut memberships = self.memberships.write();
        Arc::make_mut(memberships.entry(user).or_default()).insert(group);
    }

    /// Removes a membership; returns true iff it existed. Takes effect
    /// on the *next* query — nothing else needs touching.
    pub(crate) fn remove(&self, user: UserId, group: GroupId) -> bool {
        self.memberships
            .write()
            .get_mut(&user)
            // Looked up first: `make_mut` may copy the set.
            .is_some_and(|groups| groups.contains(&group) && Arc::make_mut(groups).remove(&group))
    }

    /// Snapshot of a user's groups (the `SELECT groupID FROM groups
    /// WHERE userID = ?` of Algorithm 2).
    pub(crate) fn groups_of(&self, user: UserId) -> Arc<HashSet<GroupId>> {
        self.memberships
            .read()
            .get(&user)
            .cloned()
            .unwrap_or_default()
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
}
