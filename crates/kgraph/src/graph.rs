//! The [`KnowledgeGraph`]: a triple store with CSR adjacency and degree
//! information.
//!
//! The adjacency index is built once at construction (CSR over the
//! *undirected* entity graph, which is what the partitioner needs) and the
//! raw triple list is kept for sampling.

use crate::ids::{EntityId, KeySpace};
use crate::triple::Triple;

/// An immutable knowledge graph: `n_v` entities, `n_r` relations, and a list
/// of triples, with a CSR adjacency index over entities.
#[derive(Debug, Clone)]
pub struct KnowledgeGraph {
    num_entities: usize,
    num_relations: usize,
    triples: Vec<Triple>,
    /// CSR row offsets: `adj_off[v]..adj_off[v+1]` indexes `adj` for entity v.
    adj_off: Vec<u64>,
    /// CSR column list: neighbouring entity ids (undirected; both endpoints
    /// of every triple see each other).
    adj: Vec<u32>,
}

/// Errors raised when constructing a graph from untrusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A triple references an entity id `>= num_entities`.
    EntityOutOfRange { triple_index: usize, entity: u32 },
    /// A triple references a relation id `>= num_relations`.
    RelationOutOfRange { triple_index: usize, relation: u32 },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EntityOutOfRange {
                triple_index,
                entity,
            } => {
                write!(f, "triple {triple_index}: entity id {entity} out of range")
            }
            GraphError::RelationOutOfRange {
                triple_index,
                relation,
            } => {
                write!(
                    f,
                    "triple {triple_index}: relation id {relation} out of range"
                )
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl KnowledgeGraph {
    /// Build a graph, validating that every triple's ids are in range.
    pub fn new(
        num_entities: usize,
        num_relations: usize,
        triples: Vec<Triple>,
    ) -> Result<Self, GraphError> {
        for (i, t) in triples.iter().enumerate() {
            if t.head.index() >= num_entities {
                return Err(GraphError::EntityOutOfRange {
                    triple_index: i,
                    entity: t.head.0,
                });
            }
            if t.tail.index() >= num_entities {
                return Err(GraphError::EntityOutOfRange {
                    triple_index: i,
                    entity: t.tail.0,
                });
            }
            if t.relation.index() >= num_relations {
                return Err(GraphError::RelationOutOfRange {
                    triple_index: i,
                    relation: t.relation.0,
                });
            }
        }
        Ok(Self::new_unchecked(num_entities, num_relations, triples))
    }

    /// Build a graph from triples already known to be in range (e.g. from a
    /// generator). Only range *debug* assertions are performed.
    pub fn new_unchecked(num_entities: usize, num_relations: usize, triples: Vec<Triple>) -> Self {
        // Two-pass CSR construction: count degrees, then fill.
        let mut deg = vec![0u64; num_entities];
        for t in &triples {
            debug_assert!(t.head.index() < num_entities && t.tail.index() < num_entities);
            debug_assert!(t.relation.index() < num_relations);
            deg[t.head.index()] += 1;
            deg[t.tail.index()] += 1;
        }
        let mut adj_off = Vec::with_capacity(num_entities + 1);
        adj_off.push(0u64);
        let mut acc = 0u64;
        for d in &deg {
            acc += d;
            adj_off.push(acc);
        }
        let mut cursor: Vec<u64> = adj_off[..num_entities].to_vec();
        let mut adj = vec![0u32; acc as usize];
        for t in &triples {
            let h = t.head.index();
            let ta = t.tail.index();
            adj[cursor[h] as usize] = t.tail.0;
            cursor[h] += 1;
            adj[cursor[ta] as usize] = t.head.0;
            cursor[ta] += 1;
        }
        Self {
            num_entities,
            num_relations,
            triples,
            adj_off,
            adj,
        }
    }

    /// Number of entities `n_v`.
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_entities
    }

    /// Number of relations `n_r`.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// Number of triples (edges).
    #[inline]
    pub fn num_triples(&self) -> usize {
        self.triples.len()
    }

    /// All triples.
    #[inline]
    pub fn triples(&self) -> &[Triple] {
        &self.triples
    }

    /// The flat parameter-key space for this graph's embeddings.
    #[inline]
    pub fn key_space(&self) -> KeySpace {
        KeySpace::new(self.num_entities, self.num_relations)
    }

    /// Undirected degree of an entity (each incident triple counts once,
    /// self-loops count twice — standard CSR convention).
    #[inline]
    pub fn degree(&self, e: EntityId) -> usize {
        let v = e.index();
        (self.adj_off[v + 1] - self.adj_off[v]) as usize
    }

    /// Neighbouring entities of `e` in the undirected entity graph
    /// (with multiplicity: parallel edges repeat the neighbour).
    #[inline]
    pub fn neighbors(&self, e: EntityId) -> &[u32] {
        let v = e.index();
        &self.adj[self.adj_off[v] as usize..self.adj_off[v + 1] as usize]
    }

    /// Per-relation triple counts (how often each relation labels an edge).
    pub fn relation_frequencies(&self) -> Vec<u64> {
        let mut freq = vec![0u64; self.num_relations];
        for t in &self.triples {
            freq[t.relation.index()] += 1;
        }
        freq
    }

    /// Per-entity degrees as a vector (undirected, as [`Self::degree`]).
    pub fn entity_degrees(&self) -> Vec<u64> {
        (0..self.num_entities)
            .map(|v| self.adj_off[v + 1] - self.adj_off[v])
            .collect()
    }

    /// A sub-view keeping only the listed triples (shares no storage).
    /// Entity/relation id spaces are preserved, so embeddings line up.
    pub fn restrict(&self, triples: Vec<Triple>) -> KnowledgeGraph {
        KnowledgeGraph::new_unchecked(self.num_entities, self.num_relations, triples)
    }

    /// Average entity degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_entities == 0 {
            return 0.0;
        }
        self.adj.len() as f64 / self.num_entities as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        // 0 --r0--> 1, 1 --r1--> 2, 0 --r0--> 2
        KnowledgeGraph::new(
            3,
            2,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(1, 1, 2),
                Triple::new(0, 0, 2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts() {
        let g = toy();
        assert_eq!(g.num_entities(), 3);
        assert_eq!(g.num_relations(), 2);
        assert_eq!(g.num_triples(), 3);
    }

    #[test]
    fn degrees_are_undirected() {
        let g = toy();
        assert_eq!(g.degree(EntityId(0)), 2);
        assert_eq!(g.degree(EntityId(1)), 2);
        assert_eq!(g.degree(EntityId(2)), 2);
        assert_eq!(g.entity_degrees(), vec![2, 2, 2]);
    }

    #[test]
    fn neighbors_contain_both_directions() {
        let g = toy();
        let mut n0: Vec<u32> = g.neighbors(EntityId(0)).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
        let mut n2: Vec<u32> = g.neighbors(EntityId(2)).to_vec();
        n2.sort_unstable();
        assert_eq!(n2, vec![0, 1]);
    }

    #[test]
    fn self_loop_counts_twice_in_degree() {
        let g = KnowledgeGraph::new(1, 1, vec![Triple::new(0, 0, 0)]).unwrap();
        assert_eq!(g.degree(EntityId(0)), 2);
        assert_eq!(g.neighbors(EntityId(0)), &[0, 0]);
    }

    #[test]
    fn relation_frequencies_count_labels() {
        let g = toy();
        assert_eq!(g.relation_frequencies(), vec![2, 1]);
    }

    #[test]
    fn out_of_range_entity_rejected() {
        let err = KnowledgeGraph::new(2, 1, vec![Triple::new(0, 0, 5)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::EntityOutOfRange {
                triple_index: 0,
                entity: 5
            }
        );
    }

    #[test]
    fn out_of_range_relation_rejected() {
        let err = KnowledgeGraph::new(2, 1, vec![Triple::new(0, 3, 1)]).unwrap_err();
        assert_eq!(
            err,
            GraphError::RelationOutOfRange {
                triple_index: 0,
                relation: 3
            }
        );
    }

    #[test]
    fn restrict_keeps_id_spaces() {
        let g = toy();
        let sub = g.restrict(vec![Triple::new(0, 0, 1)]);
        assert_eq!(sub.num_entities(), 3);
        assert_eq!(sub.num_relations(), 2);
        assert_eq!(sub.num_triples(), 1);
        assert_eq!(sub.degree(EntityId(2)), 0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = KnowledgeGraph::new(0, 0, vec![]).unwrap();
        assert_eq!(g.num_triples(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn key_space_matches_counts() {
        let g = toy();
        let ks = g.key_space();
        assert_eq!(ks.num_entities(), 3);
        assert_eq!(ks.num_relations(), 2);
    }
}
