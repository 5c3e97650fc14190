//! Strongly-typed identifiers for entities, relations, and parameter keys.
//!
//! A knowledge graph has two disjoint id spaces (entities and relations);
//! the parameter server has a single flat key space. [`KeySpace`] maps
//! between them: entity `i` occupies key `i`, relation `j` occupies key
//! `num_entities + j`. Keeping the mapping in one place means every
//! component (cache, PS shards, partitioner) agrees on it by construction.

use serde::{Deserialize, Serialize};

/// Identifier of an entity (a vertex of the knowledge graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EntityId(pub u32);

/// Identifier of a relation (an edge label of the knowledge graph).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RelationId(pub u32);

/// A key in the parameter server's flat parameter space.
///
/// Entities and relations share one key space so a single KV store (and a
/// single cache) can hold both kinds of embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ParamKey(pub u64);

impl EntityId {
    /// The raw index, usable to address per-entity arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl RelationId {
    /// The raw index, usable to address per-relation arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl ParamKey {
    /// The raw index into the flat parameter space.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The mapping between (entity, relation) id spaces and the flat
/// parameter-key space.
///
/// Entities come first (`0..num_entities`), relations after
/// (`num_entities..num_entities + num_relations`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeySpace {
    num_entities: u64,
    num_relations: u64,
}

impl KeySpace {
    /// Create a key space for a graph with the given entity/relation counts.
    pub fn new(num_entities: usize, num_relations: usize) -> Self {
        Self {
            num_entities: num_entities as u64,
            num_relations: num_relations as u64,
        }
    }

    /// Number of entity keys.
    #[inline]
    pub fn num_entities(&self) -> usize {
        self.num_entities as usize
    }

    /// Number of relation keys.
    #[inline]
    pub fn num_relations(&self) -> usize {
        self.num_relations as usize
    }

    /// Total number of keys (entities + relations).
    #[inline]
    pub fn len(&self) -> usize {
        (self.num_entities + self.num_relations) as usize
    }

    /// Whether the key space is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Key of an entity embedding.
    #[inline]
    pub fn entity_key(&self, e: EntityId) -> ParamKey {
        debug_assert!((e.0 as u64) < self.num_entities, "entity id out of range");
        ParamKey(e.0 as u64)
    }

    /// Key of a relation embedding.
    #[inline]
    pub fn relation_key(&self, r: RelationId) -> ParamKey {
        debug_assert!(
            (r.0 as u64) < self.num_relations,
            "relation id out of range"
        );
        ParamKey(self.num_entities + r.0 as u64)
    }

    /// Whether a key addresses an entity embedding.
    #[inline]
    pub fn is_entity(&self, k: ParamKey) -> bool {
        k.0 < self.num_entities
    }

    /// Invert a key back to its typed id.
    ///
    /// Returns `None` when the key is outside the space.
    pub fn classify(&self, k: ParamKey) -> Option<KeyKind> {
        if k.0 < self.num_entities {
            Some(KeyKind::Entity(EntityId(k.0 as u32)))
        } else if k.0 < self.num_entities + self.num_relations {
            Some(KeyKind::Relation(RelationId(
                (k.0 - self.num_entities) as u32,
            )))
        } else {
            None
        }
    }
}

/// The typed identity behind a [`ParamKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KeyKind {
    /// The key addresses this entity's embedding.
    Entity(EntityId),
    /// The key addresses this relation's embedding.
    Relation(RelationId),
}

impl std::fmt::Display for EntityId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for RelationId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl std::fmt::Display for ParamKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "k{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_keys_precede_relation_keys() {
        let ks = KeySpace::new(10, 3);
        assert_eq!(ks.entity_key(EntityId(0)), ParamKey(0));
        assert_eq!(ks.entity_key(EntityId(9)), ParamKey(9));
        assert_eq!(ks.relation_key(RelationId(0)), ParamKey(10));
        assert_eq!(ks.relation_key(RelationId(2)), ParamKey(12));
        assert_eq!(ks.len(), 13);
    }

    #[test]
    fn classify_round_trips() {
        let ks = KeySpace::new(5, 4);
        for e in 0..5u32 {
            let k = ks.entity_key(EntityId(e));
            assert_eq!(ks.classify(k), Some(KeyKind::Entity(EntityId(e))));
            assert!(ks.is_entity(k));
        }
        for r in 0..4u32 {
            let k = ks.relation_key(RelationId(r));
            assert_eq!(ks.classify(k), Some(KeyKind::Relation(RelationId(r))));
            assert!(!ks.is_entity(k));
        }
    }

    #[test]
    fn classify_out_of_range_is_none() {
        let ks = KeySpace::new(5, 4);
        assert!(ks.classify(ParamKey(8)).is_some());
        assert_eq!(ks.classify(ParamKey(9)), None);
        assert_eq!(ks.classify(ParamKey(u64::MAX)), None);
    }

    #[test]
    fn empty_keyspace() {
        let ks = KeySpace::new(0, 0);
        assert!(ks.is_empty());
        assert_eq!(ks.len(), 0);
        assert_eq!(ks.classify(ParamKey(0)), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(EntityId(3).to_string(), "e3");
        assert_eq!(RelationId(7).to_string(), "r7");
        assert_eq!(ParamKey(11).to_string(), "k11");
    }
}
