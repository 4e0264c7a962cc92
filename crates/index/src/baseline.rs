//! The "ideal" trusted central index (paper Section 2).
//!
//! "Given a keyword query, the ideal indexing scheme's answer will be
//! identical to that of a trusted centralized ordinary inverted index
//! that incorporates an access control list check on the ranked
//! document list just before returning it to the user."
//!
//! Zerber's correctness contract — verified in the integration tests —
//! is result-set equivalence with this baseline.

use std::collections::{HashMap, HashSet};

use crate::doc::Document;
use crate::inverted::InvertedIndex;
use crate::topk::{naive_topk, tfidf_lists, RankedDoc};
use crate::types::{GroupId, TermId, UserId};

/// A fully trusted centralized index with group-based access control.
#[derive(Debug, Clone, Default)]
pub struct CentralIndex {
    index: InvertedIndex,
    user_groups: HashMap<UserId, HashSet<GroupId>>,
}

impl CentralIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a document (the document carries its owning group).
    pub fn insert(&mut self, doc: &Document) {
        self.index.insert(doc);
    }

    /// Indexes a batch of documents with one merge pass per posting
    /// list (see `InvertedIndex::insert_batch`) — use this for bulk
    /// construction instead of an `insert` loop, whose per-posting
    /// `upsert` cost is quadratic in list length.
    pub fn insert_batch(&mut self, docs: &[Document]) {
        self.index.insert_batch(docs);
    }

    /// Removes a document.
    pub fn remove(&mut self, doc: crate::types::DocId) -> bool {
        self.index.remove(doc)
    }

    /// Grants a user membership of a group.
    pub fn add_user_to_group(&mut self, user: UserId, group: GroupId) {
        self.user_groups.entry(user).or_default().insert(group);
    }

    /// Ranked keyword search: ranks over the *whole* corpus, then
    /// applies the ACL check on the ranked list just before returning —
    /// exactly the ideal-scheme formulation of Section 2.
    pub fn search(&self, user: UserId, terms: &[TermId], k: usize) -> Vec<RankedDoc> {
        let lists = tfidf_lists(&self.index, terms);
        // Rank everything, then filter: we must not truncate to K
        // before the ACL check or inaccessible docs would displace
        // accessible ones.
        let ranked = naive_topk(&lists, usize::MAX);
        let allowed: &HashSet<GroupId> = match self.user_groups.get(&user) {
            Some(groups) => groups,
            None => return Vec::new(),
        };
        ranked
            .into_iter()
            .filter(|r| {
                self.index
                    .document_group(r.doc)
                    .is_some_and(|g| allowed.contains(&g))
            })
            .take(k)
            .collect()
    }

    /// Access to the underlying inverted index (for statistics).
    pub fn inverted(&self) -> &InvertedIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DocId;

    fn doc(id: u32, group: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId(id),
            GroupId(group),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    #[test]
    fn acl_filters_inaccessible_documents() {
        let mut central = CentralIndex::new();
        central.insert(&doc(1, 0, &[(0, 5)]));
        central.insert(&doc(2, 1, &[(0, 9)]));
        central.add_user_to_group(UserId(7), GroupId(0));
        let results = central.search(UserId(7), &[TermId(0)], 10);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].doc, DocId(1));
    }

    #[test]
    fn unknown_user_sees_nothing() {
        let mut central = CentralIndex::new();
        central.insert(&doc(1, 0, &[(0, 5)]));
        assert!(central.search(UserId(9), &[TermId(0)], 10).is_empty());
    }

    #[test]
    fn membership_changes_take_effect_immediately() {
        let mut central = CentralIndex::new();
        central.insert(&doc(1, 0, &[(0, 5)]));
        central.add_user_to_group(UserId(1), GroupId(0));
        assert_eq!(central.search(UserId(1), &[TermId(0)], 10).len(), 1);
        central
            .user_groups
            .get_mut(&UserId(1))
            .unwrap()
            .remove(&GroupId(0));
        assert!(central.search(UserId(1), &[TermId(0)], 10).is_empty());
    }

    #[test]
    fn acl_check_happens_after_ranking() {
        // Inaccessible high scorers must not consume top-K slots.
        let mut central = CentralIndex::new();
        central.insert(&doc(1, 1, &[(0, 100)])); // best but inaccessible
        central.insert(&doc(2, 0, &[(0, 1)]));
        central.add_user_to_group(UserId(1), GroupId(0));
        let results = central.search(UserId(1), &[TermId(0)], 1);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].doc, DocId(2));
    }

    #[test]
    fn multi_group_users_see_union() {
        let mut central = CentralIndex::new();
        central.insert(&doc(1, 0, &[(0, 1)]));
        central.insert(&doc(2, 1, &[(0, 1)]));
        central.insert(&doc(3, 2, &[(0, 1)]));
        central.add_user_to_group(UserId(1), GroupId(0));
        central.add_user_to_group(UserId(1), GroupId(2));
        let docs: Vec<u32> = central
            .search(UserId(1), &[TermId(0)], 10)
            .iter()
            .map(|r| r.doc.0)
            .collect();
        assert_eq!(docs.len(), 2);
        assert!(docs.contains(&1) && docs.contains(&3));
    }
}
