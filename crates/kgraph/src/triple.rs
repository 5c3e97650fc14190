//! The `(head, relation, tail)` triple — the atom of a knowledge graph.

use crate::ids::{EntityId, RelationId};
use serde::{Deserialize, Serialize};

/// A fact `(h, r, t)`: head entity, relation, tail entity.
///
/// Triples are `Copy` and 12 bytes, so mini-batches can be passed around
/// by value without allocation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Triple {
    /// Head (subject) entity.
    pub head: EntityId,
    /// Relation (predicate).
    pub relation: RelationId,
    /// Tail (object) entity.
    pub tail: EntityId,
}

impl Triple {
    /// Construct a triple from raw indices.
    #[inline]
    pub fn new(head: u32, relation: u32, tail: u32) -> Self {
        Self {
            head: EntityId(head),
            relation: RelationId(relation),
            tail: EntityId(tail),
        }
    }

    /// The triple with head replaced (used when corrupting heads for
    /// negative sampling).
    #[inline]
    pub fn with_head(self, head: EntityId) -> Self {
        Self { head, ..self }
    }

    /// The triple with tail replaced (used when corrupting tails for
    /// negative sampling).
    #[inline]
    pub fn with_tail(self, tail: EntityId) -> Self {
        Self { tail, ..self }
    }

    /// Whether the triple is a self-loop (head == tail).
    #[inline]
    pub fn is_loop(self) -> bool {
        self.head == self.tail
    }
}

impl std::fmt::Display for Triple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}, {})", self.head, self.relation, self.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triple_is_small() {
        // Mini-batches are Vec<Triple>; keep the atom compact.
        assert_eq!(std::mem::size_of::<Triple>(), 12);
    }

    #[test]
    fn corruption_helpers_replace_one_slot() {
        let t = Triple::new(1, 2, 3);
        assert_eq!(t.with_head(EntityId(9)), Triple::new(9, 2, 3));
        assert_eq!(t.with_tail(EntityId(9)), Triple::new(1, 2, 9));
        // original untouched (Copy semantics)
        assert_eq!(t, Triple::new(1, 2, 3));
    }

    #[test]
    fn loop_detection() {
        assert!(Triple::new(4, 0, 4).is_loop());
        assert!(!Triple::new(4, 0, 5).is_loop());
    }

    #[test]
    fn display_shows_all_slots() {
        assert_eq!(Triple::new(1, 2, 3).to_string(), "(e1, r2, e3)");
    }
}
