//! The planner: query shape → evaluator.
//!
//! Every shape has exactly one evaluator: `Terms` ranks under MaxScore
//! ([`zerber_index::maxscore_topk`]), `And` under the conjunctive
//! leapfrog and `Phrase` under the leapfrog plus the positional filter.
//! `Phrase` and `And` need theirs for their semantics. MaxScore serves
//! every `Terms` query, one-term ones included: it reads a lone list in
//! full where a block-max Threshold Algorithm could skip blocks, and
//! that second evaluator measured no faster on the served workloads.

use crate::ast::QueryShape;

/// The retired disjunctive-evaluator override. Its one value, `Auto`,
/// is byte 0 of the shard query frame; the bytes 1 and 2 once pinned
/// evaluators that no longer exist and now decode as malformed.
///
/// Kept only for `benchmark/`; ROADMAP item 1 deletes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Forced {
    /// Let the planner choose.
    #[default]
    Auto,
}

impl Forced {
    /// Stable single-byte encoding for wire frames.
    ///
    /// Kept only for `benchmark/`; ROADMAP item 1 deletes it.
    pub fn as_u8(self) -> u8 {
        match self {
            Forced::Auto => 0,
        }
    }

    /// Inverse of [`Forced::as_u8`]; `None` on any other byte.
    pub fn from_u8(byte: u8) -> Option<Self> {
        (byte == 0).then_some(Forced::Auto)
    }
}

/// The evaluator table: a query of `shape` runs on MaxScore
/// (`Terms`), the conjunctive leapfrog (`And`) or the leapfrog plus
/// the positional filter (`Phrase`) — one evaluator per shape, so the
/// shape names it and this returns `shape`.
///
/// Kept, with `term_count` and `forced`, only for `benchmark/`;
/// ROADMAP item 1 deletes them.
pub fn plan(shape: QueryShape, _term_count: usize, _forced: Forced) -> QueryShape {
    shape
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_with_fixed_semantics_ignore_forcing() {
        for term_count in [1, 2, 5] {
            for shape in [QueryShape::Phrase, QueryShape::And] {
                assert_eq!(plan(shape, term_count, Forced::Auto), shape);
            }
        }
    }

    /// The disjunctive plan once varied with term count and forcing; it
    /// now depends on neither: every `Terms` query runs on MaxScore.
    #[test]
    fn disjunctive_planning_depends_on_term_count_and_forcing() {
        for term_count in [1, 2, 5] {
            assert_eq!(
                plan(QueryShape::Terms, term_count, Forced::Auto),
                QueryShape::Terms
            );
        }
    }

    #[test]
    fn forced_bytes_round_trip() {
        assert_eq!(Forced::from_u8(Forced::Auto.as_u8()), Some(Forced::Auto));
        // 1 and 2 are retired overrides: malformed, like any other byte.
        for byte in 1..=u8::MAX {
            assert_eq!(Forced::from_u8(byte), None, "byte {byte}");
        }
    }
}
