//! Term dictionary: bidirectional interning between term strings and
//! dense [`TermId`]s.
//!
//! The mapping table of Section 6 ("a publicly available mapping table
//! that maps a term to the ID of its posting list") is keyed by interned
//! term ids, so every component of the system shares one dictionary.

use std::collections::HashMap;

use crate::types::TermId;

/// Bidirectional term ↔ id map with dense, stable ids.
#[derive(Debug, Clone, Default)]
pub struct TermDict {
    by_term: HashMap<String, TermId>,
    by_id: Vec<String>,
}

impl TermDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term`, returning its stable id (existing or fresh).
    pub(crate) fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.by_term.get(term) {
            return id;
        }
        let id = TermId(self.by_id.len() as u32);
        self.by_term.insert(term.to_owned(), id);
        self.by_id.push(term.to_owned());
        id
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.by_term.get(term).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut dict = TermDict::new();
        let a = dict.intern("martha");
        let b = dict.intern("imclone");
        let a_again = dict.intern("martha");
        assert_eq!(a, a_again);
        assert_ne!(a, b);
        assert_eq!(dict.by_id.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut dict = TermDict::new();
        for i in 0..100u32 {
            let id = dict.intern(&format!("term{i}"));
            assert_eq!(id, TermId(i));
        }
        assert_eq!(dict.by_id[42], "term42");
        assert_eq!(dict.get("term99"), Some(TermId(99)));
    }

    #[test]
    fn iter_yields_in_id_order() {
        // Ids follow first-intern order, not term order.
        let mut dict = TermDict::new();
        dict.intern("b");
        dict.intern("a");
        assert_eq!(dict.get("b"), Some(TermId(0)));
        assert_eq!(dict.get("a"), Some(TermId(1)));
        assert_eq!(dict.by_id, ["b", "a"]);
    }

    #[test]
    fn unknown_lookups_return_none() {
        let dict = TermDict::new();
        assert!(dict.get("missing").is_none());
        assert!(dict.by_id.is_empty());
    }
}
