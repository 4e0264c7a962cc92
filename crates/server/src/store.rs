//! The per-server share store: merged posting lists of encrypted
//! element shares.
//!
//! Keys are merged posting-list ids ([`PlId`]); values are append-mostly
//! vectors of [`StoredShare`]s. The store never sees terms, document
//! ids or term frequencies — only opaque y-shares plus the clear-text
//! routing fields (element id, group id) the protocol requires.

use std::collections::HashMap;

use parking_lot::RwLock;

use zerber_core::{ElementId, PlId};
use zerber_index::GroupId;
use zerber_net::StoredShare;

/// Thread-safe share storage for one index server.
#[derive(Debug, Default)]
pub struct ShareStore {
    lists: RwLock<HashMap<PlId, Vec<StoredShare>>>,
}

impl ShareStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a batch of shares (one disk append per touched list in
    /// the paper's cost model; batching amortizes the random I/O).
    pub fn insert_batch(&self, entries: &[(PlId, StoredShare)]) {
        let mut lists = self.lists.write();
        for &(pl, share) in entries {
            lists.entry(pl).or_default().push(share);
        }
    }

    /// Deletes elements by `(list, element-id)` if `permit` accepts the
    /// group of every share the request addresses; otherwise removes
    /// nothing and returns the first refused group. Both passes run
    /// under one write lock, so no insert can slip an unchecked share
    /// under an addressed id between the check and the removal. Ids
    /// that match nothing are a no-op. Returns how many shares were
    /// actually removed.
    pub fn delete_permitted<F>(
        &self,
        elements: &[(PlId, ElementId)],
        mut permit: F,
    ) -> Result<usize, GroupId>
    where
        F: FnMut(GroupId) -> bool,
    {
        let mut lists = self.lists.write();
        for &(pl, element) in elements {
            let addressed = lists.get(&pl).into_iter().flatten();
            for share in addressed.filter(|share| share.element == element) {
                if !permit(share.group) {
                    return Err(share.group);
                }
            }
        }
        let mut removed = 0usize;
        for &(pl, element) in elements {
            if let Some(list) = lists.get_mut(&pl) {
                let before = list.len();
                list.retain(|share| share.element != element);
                removed += before - list.len();
            }
        }
        Ok(removed)
    }

    /// Returns the shares of one list whose group passes `filter`.
    pub fn filtered<F>(&self, pl: PlId, mut filter: F) -> Vec<StoredShare>
    where
        F: FnMut(GroupId) -> bool,
    {
        self.lists
            .read()
            .get(&pl)
            .map(|list| {
                list.iter()
                    .filter(|share| filter(share.group))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Length of one merged posting list — the only statistic a
    /// compromised server can read off directly.
    pub fn list_len(&self, pl: PlId) -> usize {
        self.lists.read().get(&pl).map_or(0, Vec::len)
    }

    /// Snapshot of all list lengths.
    pub fn list_lengths(&self) -> HashMap<PlId, usize> {
        self.lists
            .read()
            .iter()
            .map(|(&pl, list)| (pl, list.len()))
            .collect()
    }

    /// Total stored shares.
    pub fn total_elements(&self) -> usize {
        self.lists.read().values().map(Vec::len).sum()
    }

    /// Raw dump of one list (what an adversary on the box sees).
    pub fn raw_list(&self, pl: PlId) -> Vec<StoredShare> {
        self.lists.read().get(&pl).cloned().unwrap_or_default()
    }

    /// Applies a mutation to every stored share (proactive refresh
    /// applies the per-server delta this way).
    pub fn update_all<F>(&self, mut update: F)
    where
        F: FnMut(&mut StoredShare),
    {
        let mut lists = self.lists.write();
        for list in lists.values_mut() {
            for share in list.iter_mut() {
                update(share);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_field::Fp;

    fn share(element: u64, group: u32) -> StoredShare {
        StoredShare {
            element: ElementId(element),
            group: GroupId(group),
            share: Fp::new(element * 31),
        }
    }

    #[test]
    fn insert_then_read_back() {
        let store = ShareStore::new();
        store.insert_batch(&[(PlId(1), share(1, 0)), (PlId(1), share(2, 1))]);
        assert_eq!(store.list_len(PlId(1)), 2);
        assert_eq!(store.total_elements(), 2);
        let group0 = store.filtered(PlId(1), |g| g == GroupId(0));
        assert_eq!(group0.len(), 1);
        assert_eq!(group0[0].element, ElementId(1));
    }

    #[test]
    fn delete_removes_by_element_id() {
        let store = ShareStore::new();
        store.insert_batch(&[
            (PlId(1), share(1, 0)),
            (PlId(1), share(2, 0)),
            (PlId(2), share(3, 0)),
        ]);
        assert_eq!(
            store.delete_permitted(&[(PlId(1), ElementId(1))], |_| true),
            Ok(1)
        );
        assert_eq!(store.list_len(PlId(1)), 1);
        // Deleting in the wrong list removes nothing.
        assert_eq!(
            store.delete_permitted(&[(PlId(1), ElementId(3))], |_| true),
            Ok(0)
        );
        assert_eq!(store.list_len(PlId(2)), 1);
    }

    #[test]
    fn unknown_list_is_empty() {
        let store = ShareStore::new();
        assert_eq!(store.list_len(PlId(42)), 0);
        assert!(store.filtered(PlId(42), |_| true).is_empty());
        assert!(store.raw_list(PlId(42)).is_empty());
    }

    #[test]
    fn list_lengths_snapshot() {
        let store = ShareStore::new();
        store.insert_batch(&[(PlId(0), share(1, 0)), (PlId(5), share(2, 0))]);
        let lengths = store.list_lengths();
        assert_eq!(lengths[&PlId(0)], 1);
        assert_eq!(lengths[&PlId(5)], 1);
    }

    #[test]
    fn update_all_visits_every_share() {
        let store = ShareStore::new();
        store.insert_batch(&[(PlId(0), share(1, 0)), (PlId(1), share(2, 0))]);
        store.update_all(|s| s.share += Fp::ONE);
        assert_eq!(store.raw_list(PlId(0))[0].share, Fp::new(32));
        assert_eq!(store.raw_list(PlId(1))[0].share, Fp::new(63));
    }
}
