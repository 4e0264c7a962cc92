//! The shotgun baseline (paper Section 1).
//!
//! "One possible solution is for each document owner to keep an
//! inverted index over the documents it owns locally. Then a user's
//! query … can be broadcast to all document owners, and the resulting
//! answers can be collected by the user and, if desired, ranked. …
//! However, this shotgun approach to querying is relatively slow, and
//! wastes network bandwidth and computing power, since most document
//! owners will not have posting list elements matching most queries."

use std::collections::HashMap;

use zerber_index::{CentralIndex, Document, GroupId, RankedDoc, TermId, UserId};

/// Query accounting for the shotgun comparison.
#[derive(Debug, Clone)]
pub struct ShotgunOutcome {
    /// Combined ranked results. Note the caveat the paper raises for
    /// decentralized ranking: each site ranks with *its own* local
    /// statistics, so combined scores are not globally consistent.
    pub ranked: Vec<RankedDoc>,
    /// Sites the query was broadcast to (always all of them).
    pub sites_contacted: usize,
    /// Sites that actually had at least one accessible match — the
    /// wasted-work measure.
    pub sites_with_hits: usize,
}

/// Per-owner local indexes with broadcast query dissemination.
#[derive(Debug, Default)]
pub struct ShotgunSearch {
    sites: HashMap<u16, CentralIndex>,
}

impl ShotgunSearch {
    /// An empty deployment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes a batch of documents, grouped per hosting site and
    /// bulk-merged into each site's index
    /// (`CentralIndex::insert_batch`), which avoids
    /// `PostingList::upsert`'s shift-per-posting cost.
    pub fn insert_batch(&mut self, docs: &[Document]) {
        let mut per_site: HashMap<u16, Vec<Document>> = HashMap::new();
        for doc in docs {
            per_site.entry(doc.id.host()).or_default().push(doc.clone());
        }
        for (host, site_docs) in per_site {
            self.sites.entry(host).or_default().insert_batch(&site_docs);
        }
    }

    /// Grants a membership — every site owner enforces access control
    /// on its own index, so the grant must reach all sites.
    pub fn add_user_to_group(&mut self, user: UserId, group: GroupId) {
        for site in self.sites.values_mut() {
            site.add_user_to_group(user, group);
        }
    }

    /// Broadcasts a query to every site and merges the per-site ranked
    /// answers.
    pub fn query(&self, user: UserId, terms: &[TermId], k: usize) -> ShotgunOutcome {
        let mut combined: Vec<RankedDoc> = Vec::new();
        let mut sites_with_hits = 0usize;
        for site in self.sites.values() {
            let hits = site.search(user, terms, usize::MAX);
            if !hits.is_empty() {
                sites_with_hits += 1;
            }
            combined.extend(hits);
        }
        combined.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.doc.cmp(&b.doc))
        });
        combined.truncate(k);
        ShotgunOutcome {
            ranked: combined,
            sites_contacted: self.sites.len(),
            sites_with_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zerber_index::DocId;

    fn doc(host: u16, local: u32, group: u32, terms: &[(u32, u32)]) -> Document {
        Document::from_term_counts(
            DocId::from_parts(host, local),
            GroupId(group),
            terms.iter().map(|&(t, c)| (TermId(t), c)).collect(),
        )
    }

    fn deployment() -> ShotgunSearch {
        let mut shotgun = ShotgunSearch::new();
        shotgun.insert_batch(&[
            doc(0, 1, 0, &[(10, 1)]),
            doc(1, 1, 0, &[(20, 1)]),
            doc(2, 1, 0, &[(30, 1)]),
        ]);
        shotgun.add_user_to_group(UserId(1), GroupId(0));
        shotgun
    }

    #[test]
    fn broadcast_contacts_every_site() {
        let shotgun = deployment();
        let outcome = shotgun.query(UserId(1), &[TermId(10)], 10);
        assert_eq!(outcome.sites_contacted, 3);
        assert_eq!(outcome.sites_with_hits, 1, "two sites wasted work");
        assert_eq!(outcome.ranked.len(), 1);
    }

    #[test]
    fn acl_is_enforced_per_site() {
        let mut shotgun = ShotgunSearch::new();
        shotgun.insert_batch(&[doc(0, 1, 0, &[(10, 1)]), doc(1, 1, 5, &[(10, 1)])]);
        shotgun.add_user_to_group(UserId(1), GroupId(0));
        let outcome = shotgun.query(UserId(1), &[TermId(10)], 10);
        assert_eq!(outcome.ranked.len(), 1);
        assert_eq!(outcome.ranked[0].doc.host(), 0);
    }

    #[test]
    fn results_merge_across_sites() {
        let mut shotgun = deployment();
        shotgun.insert_batch(&[doc(1, 2, 0, &[(10, 3)])]);
        shotgun.add_user_to_group(UserId(1), GroupId(0));
        let outcome = shotgun.query(UserId(1), &[TermId(10)], 10);
        assert_eq!(outcome.ranked.len(), 2);
        assert_eq!(outcome.sites_with_hits, 2);
    }

    #[test]
    fn batch_build_matches_per_doc_inserts() {
        let docs: Vec<Document> = (0..60u32)
            .map(|i| doc((i % 4) as u16, i, i % 3, &[(i % 9, 1 + i % 2), (50, 1)]))
            .collect();
        let mut batched = ShotgunSearch::new();
        batched.insert_batch(&docs);
        let mut looped = ShotgunSearch::new();
        for d in &docs {
            looped.insert_batch(std::slice::from_ref(d));
        }
        for search in [&mut batched, &mut looped] {
            search.add_user_to_group(UserId(1), GroupId(0));
            search.add_user_to_group(UserId(1), GroupId(1));
            search.add_user_to_group(UserId(1), GroupId(2));
        }
        assert_eq!(batched.sites.len(), looped.sites.len());
        for term in [0u32, 5, 50, 99] {
            let a = batched.query(UserId(1), &[TermId(term)], 20);
            let b = looped.query(UserId(1), &[TermId(term)], 20);
            assert_eq!(a.ranked, b.ranked, "term {term}");
            assert_eq!(a.sites_with_hits, b.sites_with_hits);
        }
    }
}
