//! The public term → posting-list mapping table (Section 6) with
//! hash-based routing for rare terms (Section 6.4).
//!
//! "During merging, we create a publicly available mapping table that
//! maps a term to the ID of its posting list." Rare terms must *not*
//! appear in the table — otherwise "an adversary can inspect the
//! mapping table and see whether a term is not included in any indexed
//! site", and watching a rare term get *added* reveals which site
//! introduced it. Rare terms (occurrence probability below a cut-off)
//! are therefore routed by a public hash function, and new terms are
//! "distributed randomly over the index" the same way.

use std::collections::HashMap;

use zerber_index::TermId;

/// Identifier of a merged posting list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlId(pub u32);

/// The public mapping from terms to merged posting lists.
///
/// Frequent terms have explicit entries; everything else is routed by
/// the public hash. The table is public by design: secrecy comes from
/// the merging itself (many terms per list) plus secret-shared
/// elements, never from hiding the table.
#[derive(Debug, Clone)]
pub struct MappingTable {
    explicit: HashMap<TermId, PlId>,
    list_count: u32,
    hash_salt: u64,
}

impl MappingTable {
    /// Creates a table routing *every* term by hash (the state of the
    /// index before any merging heuristic has been learned).
    ///
    /// # Panics
    /// Panics if `list_count` is zero.
    pub fn hash_only(list_count: u32, hash_salt: u64) -> Self {
        assert!(list_count > 0, "an index needs at least one posting list");
        Self {
            explicit: HashMap::new(),
            list_count,
            hash_salt,
        }
    }

    /// Creates a table with explicit assignments. `lists[i]` holds the
    /// terms explicitly assigned to posting list `i`; all other terms
    /// hash into the same `0..lists.len()` range.
    ///
    /// # Panics
    /// Panics if `lists` is empty or a term appears twice.
    pub(crate) fn from_lists(lists: &[Vec<TermId>], hash_salt: u64) -> Self {
        assert!(
            !lists.is_empty(),
            "an index needs at least one posting list"
        );
        let mut explicit = HashMap::new();
        for (i, list) in lists.iter().enumerate() {
            for &term in list {
                let previous = explicit.insert(term, PlId(i as u32));
                assert!(previous.is_none(), "term {term:?} assigned to two lists");
            }
        }
        Self {
            explicit,
            list_count: lists.len() as u32,
            hash_salt,
        }
    }

    /// Number of merged posting lists `M`.
    pub fn list_count(&self) -> u32 {
        self.list_count
    }

    /// Number of explicit (non-hash) entries — the published table
    /// size.
    pub fn explicit_len(&self) -> usize {
        self.explicit.len()
    }

    /// Resolves the posting list for a term: explicit entry if present,
    /// public hash otherwise. Total — every term, known or brand new,
    /// maps somewhere, so "the index does not contain any empty posting
    /// lists after its start-up period".
    pub fn lookup(&self, term: TermId) -> PlId {
        if let Some(&pl) = self.explicit.get(&term) {
            return pl;
        }
        PlId(self.hash_route(term))
    }

    /// The public hash route for a term id (splitmix64 over the salted
    /// id — any fixed public mixing function works; what matters is
    /// that everyone computes the same value).
    fn hash_route(&self, term: TermId) -> u32 {
        let mut state = (term.0 as u64) ^ self.hash_salt;
        (zerber_field::splitmix64(&mut state) % self.list_count as u64) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_entries_win_over_hash() {
        let lists = vec![vec![TermId(0), TermId(1)], vec![TermId(2)]];
        let table = MappingTable::from_lists(&lists, 7);
        assert_eq!(table.lookup(TermId(0)), PlId(0));
        assert_eq!(table.lookup(TermId(1)), PlId(0));
        assert_eq!(table.lookup(TermId(2)), PlId(1));
        assert_eq!(table.explicit_len(), 3);
    }

    #[test]
    fn unknown_terms_hash_deterministically_in_range() {
        let table = MappingTable::hash_only(16, 99);
        for t in 0..1000u32 {
            let a = table.lookup(TermId(t));
            let b = table.lookup(TermId(t));
            assert_eq!(a, b);
            assert!(a.0 < 16);
        }
    }

    #[test]
    fn hash_routing_spreads_terms() {
        let table = MappingTable::hash_only(8, 1234);
        let mut counts = [0usize; 8];
        for t in 0..8000u32 {
            counts[table.lookup(TermId(t)).0 as usize] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            assert!(
                (700..1300).contains(&count),
                "list {i} got {count} of 8000 terms"
            );
        }
    }

    #[test]
    fn rare_terms_are_invisible_in_the_table() {
        // Section 6.4: "by inspecting the mapping table an adversary
        // cannot find out whether a rare term appears at any indexed
        // site or not".
        let lists = vec![vec![TermId(0)], vec![TermId(1)]];
        let table = MappingTable::from_lists(&lists, 5);
        assert!(table.explicit.contains_key(&TermId(0)));
        assert!(!table.explicit.contains_key(&TermId(12345)));
        // ...yet the rare term still resolves to a list.
        assert!(table.lookup(TermId(12345)).0 < 2);
    }

    #[test]
    fn different_salts_give_different_routes() {
        let a = MappingTable::hash_only(1024, 1);
        let b = MappingTable::hash_only(1024, 2);
        let differing = (0..1000u32)
            .filter(|&t| a.lookup(TermId(t)) != b.lookup(TermId(t)))
            .count();
        assert!(
            differing > 900,
            "salt must reshuffle routes, got {differing}"
        );
    }

    #[test]
    #[should_panic(expected = "two lists")]
    fn duplicate_assignment_panics() {
        let lists = vec![vec![TermId(0)], vec![TermId(0)]];
        let _ = MappingTable::from_lists(&lists, 0);
    }

    #[test]
    #[should_panic(expected = "at least one posting list")]
    fn empty_table_panics() {
        let _ = MappingTable::from_lists(&[], 0);
    }
}
