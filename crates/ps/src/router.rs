//! Key → shard routing.
//!
//! Entity embeddings live on the shard (machine) that owns the entity in
//! the graph partitioning — that is the co-location DGL-KE and HET-KG get
//! from METIS. Relation embeddings are spread round-robin across shards
//! (there are few of them, but they are hot; spreading balances load).
//!
//! The router also assigns each key a dense *local index* within its shard
//! and kind, which is how shards address their storage rows.

use hetkg_kgraph::{KeySpace, ParamKey};

/// Which storage family a key belongs to (entity and relation rows can have
/// different widths depending on the model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowKind {
    /// Entity embedding row.
    Entity,
    /// Relation embedding row.
    Relation,
}

/// Where a key lives: shard, kind, and dense index within that shard+kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Shard (machine) index.
    pub shard: usize,
    /// Entity or relation storage.
    pub kind: RowKind,
    /// Dense row index within the shard's table of that kind.
    pub local: usize,
}

/// A key batch resolved and grouped by shard, so batch operations can take
/// each shard's lock once and walk its keys contiguously.
///
/// The grouping is *stable*: within a shard, input indices keep their batch
/// order. Duplicate keys always land on the same shard, so stable grouping
/// preserves their relative order — which is what makes in-order optimizer
/// state application (AdaGrad) equivalent to N sequential per-key calls.
#[derive(Debug, Clone, Default)]
pub struct BatchPlan {
    /// Placement per input index.
    placements: Vec<Placement>,
    /// Input indices grouped by shard (stable within each shard).
    order: Vec<u32>,
    /// `order[starts[s]..starts[s + 1]]` are shard `s`'s indices.
    starts: Vec<u32>,
    /// Counting-sort cursor scratch, kept to avoid per-call allocation.
    cursor: Vec<u32>,
}

impl BatchPlan {
    /// Number of keys planned.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether the plan covers no keys.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Placement of input index `i`.
    #[inline]
    pub fn placement(&self, i: usize) -> Placement {
        self.placements[i]
    }

    /// Number of shards the plan was built against.
    pub fn num_shards(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Input indices routed to `shard`, in batch order.
    #[inline]
    pub fn indices(&self, shard: usize) -> impl Iterator<Item = usize> + '_ {
        self.order[self.starts[shard] as usize..self.starts[shard + 1] as usize]
            .iter()
            .map(|&i| i as usize)
    }

    /// Shards with at least one key, ascending.
    pub fn shards(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.num_shards()).filter(|&s| self.starts[s] != self.starts[s + 1])
    }

    /// Number of keys routed to `shard`.
    pub fn shard_len(&self, shard: usize) -> usize {
        (self.starts[shard + 1] - self.starts[shard]) as usize
    }
}

/// Immutable key → placement map shared by all workers.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    key_space: KeySpace,
    num_shards: usize,
    shard_of: Vec<u32>,
    local_of: Vec<u32>,
    /// Rows per shard, per kind: `[shard] -> (entities, relations)`.
    shard_rows: Vec<(usize, usize)>,
    /// Every key homed on a shard, ascending: entity keys (ascending entity
    /// locals) then relation keys (ascending relation locals).
    keys_by_shard: Vec<Vec<ParamKey>>,
}

impl ShardRouter {
    /// Route entities according to `entity_shard[entity_id]`, relations
    /// round-robin.
    pub fn new(key_space: KeySpace, num_shards: usize, entity_shard: &[u32]) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        assert_eq!(
            entity_shard.len(),
            key_space.num_entities(),
            "one shard assignment per entity"
        );
        assert!(
            entity_shard.iter().all(|&s| (s as usize) < num_shards),
            "entity shard out of range"
        );
        let total = key_space.len();
        let mut shard_of = Vec::with_capacity(total);
        let mut local_of = Vec::with_capacity(total);
        let mut shard_rows = vec![(0usize, 0usize); num_shards];
        for &s in entity_shard {
            shard_of.push(s);
            local_of.push(shard_rows[s as usize].0 as u32);
            shard_rows[s as usize].0 += 1;
        }
        for r in 0..key_space.num_relations() {
            let s = r % num_shards;
            shard_of.push(s as u32);
            local_of.push(shard_rows[s].1 as u32);
            shard_rows[s].1 += 1;
        }
        let mut keys_by_shard = vec![Vec::new(); num_shards];
        for (i, &s) in shard_of.iter().enumerate() {
            keys_by_shard[s as usize].push(ParamKey(i as u64));
        }
        Self {
            key_space,
            num_shards,
            shard_of,
            local_of,
            shard_rows,
            keys_by_shard,
        }
    }

    /// All entities and relations round-robin (used when no partitioning is
    /// available, e.g. unit tests).
    pub fn round_robin(key_space: KeySpace, num_shards: usize) -> Self {
        let entity_shard: Vec<u32> = (0..key_space.num_entities())
            .map(|e| (e % num_shards) as u32)
            .collect();
        Self::new(key_space, num_shards, &entity_shard)
    }

    /// The key space being routed.
    pub fn key_space(&self) -> KeySpace {
        self.key_space
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Which storage family a key belongs to: entity keys come first in
    /// the key space.
    #[inline]
    pub(crate) fn kind_of(&self, key: ParamKey) -> RowKind {
        if key.index() < self.key_space.num_entities() {
            RowKind::Entity
        } else {
            RowKind::Relation
        }
    }

    /// Placement of a key.
    #[inline]
    pub fn place(&self, key: ParamKey) -> Placement {
        let i = key.index();
        Placement {
            shard: self.shard_of[i] as usize,
            kind: self.kind_of(key),
            local: self.local_of[i] as usize,
        }
    }

    /// Shard of a key (shortcut for locality checks).
    #[inline]
    pub fn shard_of(&self, key: ParamKey) -> usize {
        self.shard_of[key.index()] as usize
    }

    /// `(entity_rows, relation_rows)` stored on `shard`.
    pub fn shard_rows(&self, shard: usize) -> (usize, usize) {
        self.shard_rows[shard]
    }

    /// Every key homed on `shard`: entity keys ascending (which is ascending
    /// entity-local order), then relation keys ascending.
    pub fn shard_keys(&self, shard: usize) -> &[ParamKey] {
        &self.keys_by_shard[shard]
    }

    /// Resolve and shard-group a key batch (see [`BatchPlan`]).
    pub fn plan(&self, keys: &[ParamKey]) -> BatchPlan {
        let mut plan = BatchPlan::default();
        self.plan_into(keys, &mut plan);
        plan
    }

    /// [`plan`](Self::plan) into a reusable `BatchPlan`, reusing its
    /// allocations. One stable counting sort: O(keys + shards), no per-key
    /// allocation.
    pub fn plan_into(&self, keys: &[ParamKey], plan: &mut BatchPlan) {
        plan.placements.clear();
        plan.placements.extend(keys.iter().map(|&k| self.place(k)));
        plan.starts.clear();
        plan.starts.resize(self.num_shards + 1, 0);
        for p in &plan.placements {
            plan.starts[p.shard + 1] += 1;
        }
        for s in 0..self.num_shards {
            plan.starts[s + 1] += plan.starts[s];
        }
        plan.cursor.clear();
        plan.cursor
            .extend_from_slice(&plan.starts[..self.num_shards]);
        plan.order.clear();
        plan.order.resize(keys.len(), 0);
        for (i, p) in plan.placements.iter().enumerate() {
            let c = &mut plan.cursor[p.shard];
            plan.order[*c as usize] = i as u32;
            *c += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entities_follow_assignment_relations_round_robin() {
        let ks = KeySpace::new(4, 3);
        let r = ShardRouter::new(ks, 2, &[1, 0, 1, 0]);
        assert_eq!(r.shard_of(ParamKey(0)), 1);
        assert_eq!(r.shard_of(ParamKey(1)), 0);
        // Relations: keys 4,5,6 -> shards 0,1,0
        assert_eq!(r.shard_of(ParamKey(4)), 0);
        assert_eq!(r.shard_of(ParamKey(5)), 1);
        assert_eq!(r.shard_of(ParamKey(6)), 0);
    }

    #[test]
    fn local_indices_are_dense_per_shard_and_kind() {
        let ks = KeySpace::new(4, 3);
        let r = ShardRouter::new(ks, 2, &[1, 0, 1, 0]);
        // Shard 0 entities: keys 1, 3 -> locals 0, 1.
        assert_eq!(r.place(ParamKey(1)).local, 0);
        assert_eq!(r.place(ParamKey(3)).local, 1);
        // Shard 1 entities: keys 0, 2 -> locals 0, 1.
        assert_eq!(r.place(ParamKey(0)).local, 0);
        assert_eq!(r.place(ParamKey(2)).local, 1);
        // Shard 0 relations: keys 4, 6 -> locals 0, 1.
        assert_eq!(r.place(ParamKey(4)).local, 0);
        assert_eq!(r.place(ParamKey(6)).local, 1);
        assert_eq!(r.shard_rows(0), (2, 2));
        assert_eq!(r.shard_rows(1), (2, 1));
    }

    #[test]
    fn kinds_are_classified() {
        let ks = KeySpace::new(2, 2);
        let r = ShardRouter::round_robin(ks, 2);
        assert_eq!(r.place(ParamKey(1)).kind, RowKind::Entity);
        assert_eq!(r.place(ParamKey(2)).kind, RowKind::Relation);
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let ks = KeySpace::new(10, 4);
        let r = ShardRouter::round_robin(ks, 2);
        let (e0, r0) = r.shard_rows(0);
        let (e1, r1) = r.shard_rows(1);
        assert_eq!(e0 + e1, 10);
        assert_eq!(r0 + r1, 4);
        assert_eq!(e0, 5);
        assert_eq!(r0, 2);
    }

    #[test]
    #[should_panic(expected = "one shard assignment per entity")]
    fn wrong_assignment_length_panics() {
        let ks = KeySpace::new(3, 1);
        let _ = ShardRouter::new(ks, 2, &[0, 1]);
    }

    #[test]
    fn shard_keys_cover_every_key_once() {
        let ks = KeySpace::new(7, 3);
        let r = ShardRouter::round_robin(ks, 3);
        let mut seen: Vec<ParamKey> = (0..3).flat_map(|s| r.shard_keys(s).to_vec()).collect();
        seen.sort_by_key(|k| k.index());
        assert_eq!(seen.len(), ks.len());
        for (i, k) in seen.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        // Within a shard: ascending, so locals are dense in order.
        for s in 0..3 {
            let keys = r.shard_keys(s);
            assert!(keys.windows(2).all(|w| w[0].index() < w[1].index()));
            for k in keys {
                assert_eq!(r.shard_of(*k), s);
            }
        }
    }

    #[test]
    fn plan_groups_stably_by_shard() {
        let ks = KeySpace::new(6, 2);
        let r = ShardRouter::new(ks, 2, &[0, 1, 0, 1, 0, 1]);
        // Duplicates included: their batch order must survive grouping.
        let keys = [
            ParamKey(1),
            ParamKey(0),
            ParamKey(3),
            ParamKey(1),
            ParamKey(6),
            ParamKey(4),
        ];
        let plan = r.plan(&keys);
        assert_eq!(plan.len(), 6);
        assert_eq!(plan.num_shards(), 2);
        // Shard 0 holds keys 0, 2, 4 and relation 6; shard 1 holds 1, 3, 5
        // and relation 7.
        let s0: Vec<usize> = plan.indices(0).collect();
        let s1: Vec<usize> = plan.indices(1).collect();
        assert_eq!(s0, vec![1, 4, 5], "shard 0 indices in batch order");
        assert_eq!(s1, vec![0, 2, 3], "duplicate key 1 keeps batch order");
        assert_eq!(plan.shard_len(0), 3);
        assert_eq!(plan.shards().collect::<Vec<_>>(), vec![0, 1]);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(plan.placement(i), r.place(k));
        }
    }

    #[test]
    fn plan_skips_empty_shards() {
        let ks = KeySpace::new(8, 0);
        let r = ShardRouter::round_robin(ks, 4);
        let plan = r.plan(&[ParamKey(2), ParamKey(6)]);
        assert_eq!(plan.shards().collect::<Vec<_>>(), vec![2]);
        assert_eq!(plan.shard_len(0), 0);
        assert!(plan.indices(1).next().is_none());
    }

    #[test]
    fn plan_into_reuses_and_matches_plan() {
        let ks = KeySpace::new(10, 2);
        let r = ShardRouter::round_robin(ks, 3);
        let mut reused = BatchPlan::default();
        for round in 0..3 {
            let keys: Vec<ParamKey> = (0..8).map(|i| ParamKey((i * (round + 1)) % 12)).collect();
            r.plan_into(&keys, &mut reused);
            let fresh = r.plan(&keys);
            assert_eq!(reused.len(), fresh.len());
            for s in 0..3 {
                assert_eq!(
                    reused.indices(s).collect::<Vec<_>>(),
                    fresh.indices(s).collect::<Vec<_>>()
                );
            }
        }
    }
}
