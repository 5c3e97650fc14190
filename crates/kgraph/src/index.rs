//! Pattern lookups over a triple set: `(h, r, ?)` and `(?, r, t)`.
//!
//! Filtered link-prediction evaluation and negative-sample validation both
//! need "which entities complete this pattern?" queries; a [`TripleIndex`]
//! answers them from two hash maps built in one pass.

use crate::ids::{EntityId, RelationId};
use crate::triple::Triple;
use std::collections::HashMap;

/// Hash-indexed triple patterns.
#[derive(Debug, Clone, Default)]
pub struct TripleIndex {
    /// `(head, relation) → tails`.
    by_head_rel: HashMap<(EntityId, RelationId), Vec<EntityId>>,
    /// `(relation, tail) → heads`.
    by_rel_tail: HashMap<(RelationId, EntityId), Vec<EntityId>>,
    len: usize,
}

impl TripleIndex {
    /// Build from a triple list.
    pub fn new(triples: &[Triple]) -> Self {
        let mut idx = TripleIndex::default();
        for &t in triples {
            idx.insert(t);
        }
        idx
    }

    /// Add one triple.
    pub fn insert(&mut self, t: Triple) {
        self.by_head_rel
            .entry((t.head, t.relation))
            .or_default()
            .push(t.tail);
        self.by_rel_tail
            .entry((t.relation, t.tail))
            .or_default()
            .push(t.head);
        self.len += 1;
    }

    /// Number of indexed triples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no triples are indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All tails `t'` such that `(h, r, t')` is indexed.
    pub fn tails(&self, h: EntityId, r: RelationId) -> &[EntityId] {
        self.by_head_rel
            .get(&(h, r))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All heads `h'` such that `(h', r, t)` is indexed.
    pub fn heads(&self, r: RelationId, t: EntityId) -> &[EntityId] {
        self.by_rel_tail
            .get(&(r, t))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether the exact triple is indexed.
    pub fn contains(&self, t: Triple) -> bool {
        self.tails(t.head, t.relation).contains(&t.tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> TripleIndex {
        TripleIndex::new(&[
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 2),
            Triple::new(3, 0, 2),
            Triple::new(0, 1, 2),
        ])
    }

    #[test]
    fn tails_and_heads_answer_patterns() {
        let idx = index();
        assert_eq!(
            idx.tails(EntityId(0), RelationId(0)),
            &[EntityId(1), EntityId(2)]
        );
        assert_eq!(
            idx.heads(RelationId(0), EntityId(2)),
            &[EntityId(0), EntityId(3)]
        );
        assert!(idx.tails(EntityId(9), RelationId(0)).is_empty());
    }

    #[test]
    fn contains_exact_triples_only() {
        let idx = index();
        assert!(idx.contains(Triple::new(0, 0, 1)));
        assert!(!idx.contains(Triple::new(1, 0, 0)));
        assert!(!idx.contains(Triple::new(0, 1, 1)));
    }

    #[test]
    fn incremental_insert_matches_bulk() {
        let triples = vec![
            Triple::new(1, 0, 2),
            Triple::new(2, 1, 3),
            Triple::new(1, 0, 3),
        ];
        let bulk = TripleIndex::new(&triples);
        let mut inc = TripleIndex::default();
        for &t in &triples {
            inc.insert(t);
        }
        assert_eq!(inc.len(), bulk.len());
        assert_eq!(
            inc.tails(EntityId(1), RelationId(0)),
            bulk.tails(EntityId(1), RelationId(0))
        );
    }

    #[test]
    fn empty_index() {
        let idx = TripleIndex::default();
        assert!(idx.is_empty());
        assert!(!idx.contains(Triple::new(0, 0, 1)));
    }
}
