//! The planner: shape + term count → evaluator.
//!
//! Planning is deliberately table-driven: `Phrase` and `And` shapes
//! *require* their evaluators (semantics, not cost), and only the
//! disjunctive `Terms` shape has a real choice — block-max Threshold
//! Algorithm versus MaxScore. MaxScore's list-level partitioning only
//! pays off with at least two lists (with one list there is nothing to
//! demote to non-essential), so single-term queries stay on the TA
//! path. Callers can pin the disjunctive evaluator with [`Forced`] —
//! the benchmark harness does, to measure the two head-to-head on the
//! same workload.

use crate::ast::QueryShape;

/// Caller override for the disjunctive evaluator choice. Applies only
/// to [`QueryShape::Terms`]; `And`/`Phrase` evaluators are fixed by
/// semantics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Forced {
    /// Let the planner choose.
    #[default]
    Auto,
    /// Pin the block-max Threshold Algorithm.
    BlockMaxTa,
    /// Pin the MaxScore evaluator.
    MaxScore,
}

impl Forced {
    /// Stable single-byte encoding for wire frames.
    pub fn as_u8(self) -> u8 {
        match self {
            Forced::Auto => 0,
            Forced::BlockMaxTa => 1,
            Forced::MaxScore => 2,
        }
    }

    /// Inverse of [`Forced::as_u8`]; `None` on an unknown byte.
    pub fn from_u8(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(Forced::Auto),
            1 => Some(Forced::BlockMaxTa),
            2 => Some(Forced::MaxScore),
            _ => None,
        }
    }
}

/// The evaluator a query runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluatorKind {
    /// Cursor-driven block-max Threshold Algorithm
    /// ([`zerber_index::block_max_topk_cursors`]).
    BlockMaxTa,
    /// MaxScore: whole-list σ bounds partition cursors into essential
    /// and non-essential; candidates come only from the essential
    /// frontier, non-essential lists are probed by seek.
    MaxScore,
    /// Conjunctive leapfrog over `advance_past` seeks.
    Conjunctive,
    /// Conjunctive leapfrog plus the positional phrase filter.
    Phrase,
}

/// Picks the evaluator for a query of `shape` with `term_count` terms.
pub fn plan(shape: QueryShape, term_count: usize, forced: Forced) -> EvaluatorKind {
    match shape {
        QueryShape::Phrase => EvaluatorKind::Phrase,
        QueryShape::And => EvaluatorKind::Conjunctive,
        QueryShape::Terms => match forced {
            Forced::BlockMaxTa => EvaluatorKind::BlockMaxTa,
            Forced::MaxScore => EvaluatorKind::MaxScore,
            Forced::Auto if term_count >= 2 => EvaluatorKind::MaxScore,
            Forced::Auto => EvaluatorKind::BlockMaxTa,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_with_fixed_semantics_ignore_forcing() {
        for forced in [Forced::Auto, Forced::BlockMaxTa, Forced::MaxScore] {
            assert_eq!(plan(QueryShape::Phrase, 3, forced), EvaluatorKind::Phrase);
            assert_eq!(plan(QueryShape::And, 3, forced), EvaluatorKind::Conjunctive);
        }
    }

    #[test]
    fn disjunctive_planning_depends_on_term_count_and_forcing() {
        assert_eq!(
            plan(QueryShape::Terms, 1, Forced::Auto),
            EvaluatorKind::BlockMaxTa
        );
        assert_eq!(
            plan(QueryShape::Terms, 2, Forced::Auto),
            EvaluatorKind::MaxScore
        );
        assert_eq!(
            plan(QueryShape::Terms, 5, Forced::BlockMaxTa),
            EvaluatorKind::BlockMaxTa
        );
        assert_eq!(
            plan(QueryShape::Terms, 1, Forced::MaxScore),
            EvaluatorKind::MaxScore
        );
    }

    #[test]
    fn forced_bytes_round_trip() {
        for forced in [Forced::Auto, Forced::BlockMaxTa, Forced::MaxScore] {
            assert_eq!(Forced::from_u8(forced.as_u8()), Some(forced));
        }
        assert_eq!(Forced::from_u8(9), None);
    }
}
