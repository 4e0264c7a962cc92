//! The per-server share store: merged posting lists of encrypted
//! element shares.
//!
//! A merged list ([`PlId`]) is kept as one *run* per group that has
//! elements in it, and a run is two parallel columns: element ids and
//! y-shares, 16 bytes a stored share. A lookup is then the
//! concatenation of the runs of the caller's groups, in group-id order
//! — one probe per list and one ACL check per run, not one per share —
//! and already has the shape the response frame ships
//! ([`ShareColumns`]).
//!
//! Inserts do not pay for that layout: a batch scatters over every
//! `(list, group)` pair there is, and appending to a hundred thousand
//! run tails in arrival order is a cache miss or four per share. An
//! insert appends the row to its list's *unsettled* tail instead (one
//! probe, one push), and whoever next needs the list's runs — a
//! lookup, a delete — sorts the tail into them first, a list's worth
//! at a time, while that list's runs are in cache.
//!
//! Every list counts the shares inserted into it and deleted from it —
//! its content version — and the store counts the proactive refreshes
//! it applied: a lookup stamps each answer with both, read under the
//! lock the rows are read under, and answers a list still at the
//! version the caller holds with no rows at all.
//!
//! The store never sees terms, document ids or term frequencies — only
//! opaque y-shares plus the clear-text routing fields (element id,
//! group id) the protocol requires. Laying a list out by group teaches
//! the server nothing new (Section 5.3): both ids were stored beside
//! every share before, and which run a share sits in is a function of
//! them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;

use zerber_core::{ElementId, PlId};
use zerber_field::Fp;
use zerber_index::GroupId;
use zerber_net::{ListVersion, ShareColumns, StoredShare};

/// The shares one group holds in one merged list, in insert order.
#[derive(Debug, Default)]
struct Run {
    elements: Vec<u64>,
    shares: Vec<Fp>,
}

impl Run {
    /// Drops every row of `element`; returns how many there were.
    fn remove(&mut self, element: u64) -> usize {
        let before = self.elements.len();
        let mut ids = self.elements.iter();
        self.shares.retain(|_| ids.next() != Some(&element));
        self.elements.retain(|&id| id != element);
        before - self.elements.len()
    }
}

/// One merged posting list: its runs in ascending group order — the
/// order a lookup concatenates them in; `runs[i]` is the run of
/// `groups[i]`, and a run emptied by deletes stays — the rows inserted
/// since the runs were last needed, and how many shares were ever
/// inserted or deleted.
#[derive(Debug, Default)]
struct MergedList {
    groups: Vec<GroupId>,
    runs: Vec<Run>,
    unsettled: Vec<StoredShare>,
    version: u64,
}

impl MergedList {
    /// Moves the unsettled rows into their runs, in insert order: a
    /// stable sort by group, then each group's rows appended to its run
    /// in one reservation.
    fn settle(&mut self) {
        let mut rows = std::mem::take(&mut self.unsettled);
        rows.sort_by_key(|row| row.group);
        for rows in rows.chunk_by(|a, b| a.group == b.group) {
            let at = match self.groups.binary_search(&rows[0].group) {
                Ok(at) => at,
                Err(at) => {
                    self.groups.insert(at, rows[0].group);
                    self.runs.insert(at, Run::default());
                    at
                }
            };
            let run = &mut self.runs[at];
            run.elements.extend(rows.iter().map(|row| row.element.0));
            run.shares.extend(rows.iter().map(|row| row.share));
        }
    }

    /// The settled rows, run by run.
    fn runs(&self) -> impl Iterator<Item = (GroupId, &Run)> + '_ {
        self.groups.iter().copied().zip(&self.runs)
    }

    fn len(&self) -> usize {
        self.unsettled.len() + self.runs.iter().map(|run| run.shares.len()).sum::<usize>()
    }
}

type Lists = HashMap<PlId, MergedList>;

/// The answer to a lookup over settled lists, at refresh round `round`.
fn readable_columns(
    lists: &Lists,
    round: u64,
    requests: &[(PlId, Option<ListVersion>)],
    membership: u64,
    mut permit: impl FnMut(GroupId) -> bool,
) -> Vec<ShareColumns> {
    let columns = |&(pl, held): &(PlId, Option<ListVersion>)| {
        let list = lists.get(&pl);
        let version = ListVersion {
            content: list.map_or(0, |list| list.version),
            membership,
        };
        if held == Some(version) {
            return ShareColumns::unchanged(pl, version, round);
        }
        let runs = list.into_iter().flat_map(MergedList::runs);
        let readable: Vec<&Run> = runs
            .filter(|&(group, _)| permit(group))
            .map(|(_, run)| run)
            .collect();
        let rows = readable.iter().map(|run| run.shares.len()).sum();
        let mut columns = ShareColumns::with_capacity(pl, rows);
        for run in readable {
            columns.extend_from_columns(&run.elements, &run.shares);
        }
        columns.stamped(version, round)
    };
    requests.iter().map(columns).collect()
}

/// Thread-safe share storage for one index server.
#[derive(Debug, Default)]
pub(crate) struct ShareStore {
    lists: RwLock<Lists>,
    /// Refreshes applied: written only under `lists`' write lock and
    /// read under its read lock, so it always matches the shares.
    round: AtomicU64,
}

impl ShareStore {
    /// An empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Appends a batch of shares (one disk append per touched list in
    /// the paper's cost model; batching amortizes the random I/O).
    pub(crate) fn insert_batch(&self, entries: &[(PlId, StoredShare)]) {
        let mut lists = self.lists.write();
        for &(pl, share) in entries {
            let list = lists.entry(pl).or_default();
            list.unsettled.push(share);
            list.version += 1;
        }
    }

    /// Deletes elements by `(list, element-id)` if `permit` accepts the
    /// group of every share the request addresses; otherwise removes
    /// nothing and returns the first refused group. Both passes run
    /// under one write lock, so no insert can slip an unchecked share
    /// under an addressed id between the check and the removal. Ids
    /// that match nothing are a no-op. Returns how many shares were
    /// actually removed.
    pub(crate) fn delete_permitted<F>(
        &self,
        elements: &[(PlId, ElementId)],
        mut permit: F,
    ) -> Result<usize, GroupId>
    where
        F: FnMut(GroupId) -> bool,
    {
        let mut lists = self.lists.write();
        for &(pl, element) in elements {
            let Some(list) = lists.get_mut(&pl) else {
                continue;
            };
            list.settle();
            for (group, run) in list.runs() {
                if run.elements.contains(&element.0) && !permit(group) {
                    return Err(group);
                }
            }
        }
        let mut removed = 0usize;
        for &(pl, element) in elements {
            let Some(list) = lists.get_mut(&pl) else {
                continue;
            };
            let gone: usize = list.runs.iter_mut().map(|run| run.remove(element.0)).sum();
            list.version += gone as u64;
            removed += gone;
        }
        Ok(removed)
    }

    /// Algorithm 2's lookup: per requested list, in request order, the
    /// runs of the groups `permit` accepts, concatenated in group-id
    /// order — or, for a list whose version (its content count paired
    /// with `membership`) is the one the caller holds, the unchanged
    /// answer. Every answer is stamped with that version and the
    /// store's refresh round. One lock for the whole request, one
    /// `permit` call per run.
    pub(crate) fn lookup<F>(
        &self,
        requests: &[(PlId, Option<ListVersion>)],
        membership: u64,
        permit: F,
    ) -> Vec<ShareColumns>
    where
        F: FnMut(GroupId) -> bool,
    {
        let round = || self.round.load(Ordering::Relaxed);
        let lists = self.lists.read();
        let settled =
            |(pl, _): &(PlId, _)| lists.get(pl).is_none_or(|list| list.unsettled.is_empty());
        if requests.iter().all(settled) {
            return readable_columns(&lists, round(), requests, membership, permit);
        }
        // First read since an insert: settle under the write lock and
        // answer from there, so no insert gets in between.
        drop(lists);
        let mut lists = self.lists.write();
        for (pl, _) in requests {
            if let Some(list) = lists.get_mut(pl) {
                list.settle();
            }
        }
        readable_columns(&lists, round(), requests, membership, permit)
    }

    /// Length of one merged posting list — the only statistic a
    /// compromised server can read off directly.
    pub(crate) fn list_len(&self, pl: PlId) -> usize {
        self.lists.read().get(&pl).map_or(0, MergedList::len)
    }

    /// Snapshot of all list lengths.
    pub(crate) fn list_lengths(&self) -> HashMap<PlId, usize> {
        self.lists
            .read()
            .iter()
            .map(|(&pl, list)| (pl, list.len()))
            .collect()
    }

    /// Total stored shares.
    pub(crate) fn total_elements(&self) -> usize {
        self.lists.read().values().map(MergedList::len).sum()
    }

    /// How many bytes the stored shares occupy (payload only: no
    /// allocator slack, no map overhead): a padded [`StoredShare`] per
    /// unsettled row, an id and a y-share per settled one plus one
    /// group id per run.
    pub(crate) fn stored_bytes(&self) -> usize {
        use std::mem::size_of;
        let settled_row = size_of::<u64>() + size_of::<Fp>();
        let list_bytes = |list: &MergedList| {
            let settled: usize = list.runs.iter().map(|run| run.shares.len()).sum();
            size_of::<StoredShare>() * list.unsettled.len()
                + settled_row * settled
                + size_of::<GroupId>() * list.groups.len()
        };
        self.lists.read().values().map(list_bytes).sum()
    }

    /// Raw dump of one list (what an adversary on the box sees): run
    /// after run, then the unsettled rows.
    pub(crate) fn raw_list(&self, pl: PlId) -> Vec<StoredShare> {
        let lists = self.lists.read();
        let Some(list) = lists.get(&pl) else {
            return Vec::new();
        };
        let mut dump = Vec::with_capacity(list.len());
        for (group, run) in list.runs() {
            dump.extend(
                run.elements
                    .iter()
                    .zip(&run.shares)
                    .map(|(&element, &share)| StoredShare {
                        element: ElementId(element),
                        group,
                        share,
                    }),
            );
        }
        dump.extend_from_slice(&list.unsettled);
        dump
    }

    /// Applies a proactive refresh: `update` shifts every stored
    /// y-share by this server's delta, and the round count goes up by
    /// one under the same lock. No list's version changes.
    pub(crate) fn refresh<F>(&self, mut update: F)
    where
        F: FnMut(ElementId, &mut Fp),
    {
        let mut lists = self.lists.write();
        self.round.fetch_add(1, Ordering::Relaxed);
        for list in lists.values_mut() {
            for run in &mut list.runs {
                for (&element, share) in run.elements.iter().zip(&mut run.shares) {
                    update(ElementId(element), share);
                }
            }
            for row in &mut list.unsettled {
                update(row.element, &mut row.share);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(element: u64, group: u32) -> StoredShare {
        StoredShare {
            element: ElementId(element),
            group: GroupId(group),
            share: Fp::new(element * 31),
        }
    }

    fn unconditional(pl_ids: &[PlId]) -> Vec<(PlId, Option<ListVersion>)> {
        pl_ids.iter().map(|&pl| (pl, None)).collect()
    }

    #[test]
    fn insert_then_read_back() {
        let store = ShareStore::new();
        store.insert_batch(&[(PlId(1), share(1, 0)), (PlId(1), share(2, 1))]);
        assert_eq!(store.list_len(PlId(1)), 2);
        assert_eq!(store.total_elements(), 2);
        let group0 = &store.lookup(&unconditional(&[PlId(1)]), 0, |g| g == GroupId(0))[0];
        assert_eq!(group0.elements(), [1]);
        assert_eq!(group0.shares(), [Fp::new(31)]);
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
        assert!(store.lookup(&unconditional(&[PlId(42)]), 0, |_| true)[0].is_empty());
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
        store.refresh(|_, share| *share += Fp::ONE);
        assert_eq!(store.raw_list(PlId(0))[0].share, Fp::new(32));
        assert_eq!(store.raw_list(PlId(1))[0].share, Fp::new(63));
    }

    #[test]
    fn a_lookup_concatenates_the_permitted_runs_in_group_order() {
        let store = ShareStore::new();
        store.insert_batch(&[
            (PlId(1), share(10, 2)),
            (PlId(1), share(11, 0)),
            (PlId(1), share(12, 2)),
            (PlId(1), share(13, 1)),
            (PlId(2), share(14, 1)),
        ]);
        // Unsettled rows dump in insert order; settled ones run by run.
        let dump = |store: &ShareStore| -> Vec<u64> {
            let rows = store.raw_list(PlId(1));
            rows.iter().map(|s| s.element.0).collect()
        };
        assert_eq!(dump(&store), [10, 11, 12, 13]);
        let lists = store.lookup(&unconditional(&[PlId(2), PlId(1)]), 0, |g| g != GroupId(1));
        assert_eq!(lists[0].pl, PlId(2));
        assert!(lists[0].is_empty());
        assert_eq!(lists[1].elements(), [11, 10, 12]);
        assert_eq!(dump(&store), [11, 13, 10, 12]);
        store.insert_batch(&[(PlId(1), share(15, 0))]);
        assert_eq!(dump(&store), [11, 13, 10, 12, 15]);
        assert_eq!(store.list_len(PlId(1)), 5);
        assert_eq!(
            store.delete_permitted(&[(PlId(1), ElementId(15))], |_| true),
            Ok(1)
        );

        // A refused group blocks the whole delete; a run emptied by one
        // stays listed at length zero.
        let both = [(PlId(1), ElementId(13)), (PlId(1), ElementId(10))];
        assert_eq!(
            store.delete_permitted(&both, |g| g == GroupId(1)),
            Err(GroupId(2))
        );
        assert_eq!(store.delete_permitted(&both, |_| true), Ok(2));
        assert_eq!(
            store.lookup(&unconditional(&[PlId(1)]), 0, |_| true)[0].elements(),
            [11, 12]
        );
        assert_eq!(store.list_lengths()[&PlId(1)], 2);
        assert_eq!(store.total_elements(), 3);
    }

    #[test]
    fn writes_bump_the_version_and_refreshes_the_round() {
        let store = ShareStore::new();
        let stamp = |store: &ShareStore, held: Option<ListVersion>, membership| {
            let answer = &store.lookup(&[(PlId(1), held)], membership, |_| true)[0];
            (answer.is_unchanged(), answer.version.content, answer.round)
        };
        let at = |content, membership| {
            Some(ListVersion {
                content,
                membership,
            })
        };
        assert_eq!(stamp(&store, None, 0), (false, 0, 0));
        assert_eq!(stamp(&store, at(0, 0), 0), (true, 0, 0));
        store.insert_batch(&[(PlId(1), share(1, 0)), (PlId(1), share(2, 1))]);
        assert_eq!(stamp(&store, at(0, 0), 0), (false, 2, 0));
        assert_eq!(stamp(&store, at(2, 0), 0), (true, 2, 0));
        // Another membership count is another version of the list.
        assert_eq!(stamp(&store, at(2, 0), 1), (false, 2, 0));
        store.refresh(|_, share| *share += Fp::ONE);
        assert_eq!(stamp(&store, at(2, 0), 0), (true, 2, 1));
        // A delete bumps by what it removed; a no-op delete not at all.
        assert_eq!(
            store.delete_permitted(&[(PlId(1), ElementId(9))], |_| true),
            Ok(0)
        );
        assert_eq!(stamp(&store, at(2, 0), 0), (true, 2, 1));
        assert_eq!(
            store.delete_permitted(&[(PlId(1), ElementId(1))], |_| true),
            Ok(1)
        );
        assert_eq!(stamp(&store, at(2, 0), 0), (false, 3, 1));
    }
}
