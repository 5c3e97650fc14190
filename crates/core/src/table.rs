//! The hot-embedding table: a worker-local cache of embedding rows.
//!
//! Entities and relations are stored in separate dense slabs (their row
//! widths differ for models like TransR), with `key ↔ slot` maps on top.
//! Capacity is fixed at construction — the filter decides *which* keys get
//! the slots; the table itself never evicts on access.
//!
//! Alongside each cached row the table keeps optimizer state so workers can
//! apply gradients to cached rows locally between synchronizations (the
//! "update the corresponding gradients to the involved hot-embeddings" step
//! of Hot-Embedding Oriented Training).
//!
//! Each slot also remembers two things the synchronization (Alg. 3) runs
//! on: the *server version* its bits were received under — or [`NO_VERSION`]
//! once a local gradient has moved them away from what the server sent —
//! and the iteration at which the row was last *confirmed current*
//! (received, or found to still match the server's version). The first
//! makes a sync a pull-if-newer; the second turns §IV-C's staleness bound
//! into something a read can assert.
//!
//! And each slot has a *write-back arena*: a gradient applied to the cached
//! row can also be held there — summed with the others the row collected
//! since it was last written back, beside their energy `Σᵢ‖gᵢ‖²` and their
//! number — until the worker pushes the row once for all of them
//! ([`HotEmbeddingTable::apply_and_hold`], [`HotEmbeddingTable::pending`]).
//! Which rows go in a push is the worker's call, row by row
//! ([`HotEmbeddingTable::hand_over_where`]): the rows it takes stay
//! readable while the push is sealed and are cleared after it
//! ([`HotEmbeddingTable::clear_handed_over`]); the others keep what they
//! hold, in the order they first held it. A row that holds gradients is
//! never evicted: the worker writes everything back in the push before a
//! rebuild.

use hetkg_embed::storage::EmbeddingTable;
use hetkg_kgraph::{KeySpace, ParamKey};
use hetkg_ps::optimizer::{energy, Optimizer};
use hetkg_ps::NO_VERSION;
use std::collections::HashMap;

/// One kind's rows: a dense slab, the optimizer state beside it, and the
/// `key ↔ slot` maps on top. Occupied slots are always `0..keys.len()`.
#[derive(Debug, Clone)]
struct Slab {
    capacity: usize,
    slots: HashMap<ParamKey, u32>,
    /// Slot → key, in insertion order (evictions move the last key into
    /// the hole).
    keys: Vec<ParamKey>,
    rows: EmbeddingTable,
    state: EmbeddingTable,
    /// Per occupied slot (parallel to `keys`): the server version the row's
    /// bits were received under, and the iteration it was last confirmed
    /// current at.
    versions: Vec<u32>,
    confirmed: Vec<usize>,
    /// The write-back arena, per slot of the slab (not only the occupied
    /// ones): the sum of the gradients held, their energy, how many they
    /// are and the iteration the first was held at. A slot with
    /// `held_grads` 0 holds nothing and the rest of its entry means nothing.
    held_sum: EmbeddingTable,
    held_energy: Vec<f32>,
    held_grads: Vec<u32>,
    held_since: Vec<usize>,
    /// The slots that hold gradients, in the order they first did.
    holding: Vec<u32>,
    /// The slots whose gradients were handed over to a push that has not
    /// been sealed yet, in the same order. Their entries stay as they were.
    leaving: Vec<u32>,
}

impl Slab {
    fn new(capacity: usize, dim: usize, state_width: usize) -> Self {
        Self {
            capacity,
            slots: HashMap::with_capacity(capacity),
            keys: Vec::with_capacity(capacity),
            rows: EmbeddingTable::zeros(capacity, dim),
            state: EmbeddingTable::zeros(capacity, (dim * state_width).max(1)),
            versions: Vec::with_capacity(capacity),
            confirmed: Vec::with_capacity(capacity),
            held_sum: EmbeddingTable::zeros(capacity, dim),
            held_energy: vec![0.0; capacity],
            held_grads: vec![0; capacity],
            held_since: vec![0; capacity],
            holding: Vec::with_capacity(capacity),
            leaving: Vec::with_capacity(capacity),
        }
    }

    #[inline]
    fn get(&self, key: ParamKey) -> Option<&[f32]> {
        self.slots.get(&key).map(|&s| self.rows.row(s as usize))
    }

    fn insert(
        &mut self,
        key: ParamKey,
        row: &[f32],
        version: u32,
        now: usize,
    ) -> Result<(), CacheFull> {
        let slot = match self.slots.get(&key) {
            Some(&slot) => slot as usize,
            None if self.keys.len() >= self.capacity => return Err(CacheFull { key }),
            None => {
                let slot = self.keys.len();
                self.slots.insert(key, slot as u32);
                self.keys.push(key);
                self.versions.push(NO_VERSION);
                self.confirmed.push(0);
                slot
            }
        };
        self.rows.set_row(slot, row);
        // insert() means "fresh cache entry": optimizer state restarts too
        // (refresh() is the value-only update).
        self.state.row_mut(slot).fill(0.0);
        self.versions[slot] = version;
        self.confirmed[slot] = now;
        Ok(())
    }

    /// `now`: the iteration this refresh confirms the row current at;
    /// `None` leaves the confirmation where it was.
    fn refresh(&mut self, key: ParamKey, row: &[f32], version: u32, now: Option<usize>) -> bool {
        match self.slots.get(&key) {
            Some(&slot) => {
                let slot = slot as usize;
                self.rows.set_row(slot, row);
                self.versions[slot] = version;
                if let Some(now) = now {
                    self.confirmed[slot] = now;
                }
                true
            }
            None => false,
        }
    }

    /// `hold_at`: also hold the gradient for write-back, as of that
    /// iteration.
    fn apply_grad(
        &mut self,
        key: ParamKey,
        grad: &[f32],
        optimizer: &dyn Optimizer,
        state_width: usize,
        hold_at: Option<usize>,
    ) -> bool {
        let Some(&slot) = self.slots.get(&key) else {
            return false;
        };
        let slot = slot as usize;
        let row = self.rows.row_mut(slot);
        let width = row.len() * state_width;
        optimizer.update(row, &mut self.state.row_mut(slot)[..width], grad);
        // The bits are no longer the ones the server sent.
        self.versions[slot] = NO_VERSION;
        if let Some(now) = hold_at {
            debug_assert!(self.leaving.is_empty(), "a hand-over is in progress");
            let sum = self.held_sum.row_mut(slot);
            if self.held_grads[slot] == 0 {
                // Copied, not added to zeros: a row that collects one
                // gradient is written back as that gradient, bit for bit.
                sum.copy_from_slice(grad);
                self.held_energy[slot] = energy(grad);
                self.held_since[slot] = now;
                self.holding.push(slot as u32);
            } else {
                for (s, g) in sum.iter_mut().zip(grad) {
                    *s += g;
                }
                self.held_energy[slot] += energy(grad);
            }
            self.held_grads[slot] += 1;
        }
        true
    }

    /// What each holding slot holds, in the order the slots first held.
    fn pending(&self) -> impl Iterator<Item = Pending<'_>> + '_ {
        self.holding.iter().map(|&slot| {
            let slot = slot as usize;
            Pending {
                key: self.keys[slot],
                sum: self.held_sum.row(slot),
                energy: self.held_energy[slot],
                grads: self.held_grads[slot],
                since: self.held_since[slot],
            }
        })
    }

    /// Move the holding slots `leaves` accepts to `leaving`; both lists keep
    /// their order.
    fn hand_over_where(&mut self, leaves: &mut impl FnMut(Pending<'_>) -> bool) {
        let Self {
            holding,
            leaving,
            keys,
            held_sum,
            held_energy,
            held_grads,
            held_since,
            ..
        } = self;
        holding.retain(|&slot| {
            let s = slot as usize;
            let gone = leaves(Pending {
                key: keys[s],
                sum: held_sum.row(s),
                energy: held_energy[s],
                grads: held_grads[s],
                since: held_since[s],
            });
            if gone {
                leaving.push(slot);
            }
            !gone
        });
    }

    fn clear_handed_over(&mut self) {
        for slot in self.leaving.drain(..) {
            self.held_grads[slot as usize] = 0;
        }
    }

    fn retain(&mut self, keep: &mut impl FnMut(ParamKey) -> bool) {
        // Evictions move rows between slots, and an evicted row's gradients
        // would be lost.
        assert!(
            self.holding.is_empty() && self.leaving.is_empty(),
            "eviction while rows hold gradients that were not written back"
        );
        let mut slot = 0;
        while slot < self.keys.len() {
            if keep(self.keys[slot]) {
                self.state.row_mut(slot).fill(0.0);
                slot += 1;
                continue;
            }
            // Evict: the last occupied slot's row moves into the hole (and
            // is examined next, `slot` not advancing).
            self.slots.remove(&self.keys[slot]);
            let last = self.keys.len() - 1;
            if slot != last {
                let (hole, moved) = self.rows.rows_mut2(slot, last);
                hole.copy_from_slice(moved);
                self.keys[slot] = self.keys[last];
                self.slots.insert(self.keys[slot], slot as u32);
            }
            self.keys.pop();
            self.versions.swap_remove(slot);
            self.confirmed.swap_remove(slot);
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.keys.clear();
        self.versions.clear();
        self.confirmed.clear();
        for slot in self.holding.drain(..).chain(self.leaving.drain(..)) {
            self.held_grads[slot as usize] = 0;
        }
    }

    /// `(key, held version, confirmed-at)` per occupied slot, in slot order.
    fn held(&self) -> impl Iterator<Item = (ParamKey, u32, usize)> + '_ {
        self.keys
            .iter()
            .zip(&self.versions)
            .zip(&self.confirmed)
            .map(|((&k, &v), &c)| (k, v, c))
    }
}

/// What a cached row holds for write-back: the gradients applied to it since
/// it was last written back, as the server needs them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pending<'a> {
    /// The row's key.
    pub key: ParamKey,
    /// `Σᵢ gᵢ` — the one gradient itself, bit for bit, when `grads` is 1.
    pub sum: &'a [f32],
    /// `Σᵢ ‖gᵢ‖²`.
    pub energy: f32,
    /// How many gradients were summed; at least 1.
    pub grads: u32,
    /// The iteration the first of them was held at.
    pub since: usize,
}

/// A fixed-capacity cache of embedding rows, split by kind.
#[derive(Debug, Clone)]
pub struct HotEmbeddingTable {
    key_space: KeySpace,
    entities: Slab,
    relations: Slab,
    state_width: usize,
}

impl HotEmbeddingTable {
    /// An empty table with room for `entity_capacity` entity rows of width
    /// `entity_dim` and `relation_capacity` relation rows of width
    /// `relation_dim`. `state_width` floats of optimizer state are kept per
    /// parameter coordinate.
    pub fn new(
        key_space: KeySpace,
        entity_capacity: usize,
        relation_capacity: usize,
        entity_dim: usize,
        relation_dim: usize,
        state_width: usize,
    ) -> Self {
        assert!(entity_dim > 0 && relation_dim > 0);
        Self {
            key_space,
            entities: Slab::new(entity_capacity, entity_dim, state_width),
            relations: Slab::new(relation_capacity, relation_dim, state_width),
            state_width,
        }
    }

    #[inline]
    fn slab(&self, key: ParamKey) -> &Slab {
        if self.key_space.is_entity(key) {
            &self.entities
        } else {
            &self.relations
        }
    }

    #[inline]
    fn slab_mut(&mut self, key: ParamKey) -> &mut Slab {
        if self.key_space.is_entity(key) {
            &mut self.entities
        } else {
            &mut self.relations
        }
    }

    /// Total capacity (entity + relation rows).
    pub fn capacity(&self) -> usize {
        self.entities.capacity + self.relations.capacity
    }

    /// Number of cached rows.
    pub fn len(&self) -> usize {
        self.entities.keys.len() + self.relations.keys.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `key` is cached.
    #[inline]
    pub fn contains(&self, key: ParamKey) -> bool {
        self.slab(key).slots.contains_key(&key)
    }

    /// Cached row for `key`, if present.
    #[inline]
    pub fn get(&self, key: ParamKey) -> Option<&[f32]> {
        self.slab(key).get(key)
    }

    /// Insert (or overwrite) a key's row, with fresh optimizer state. Fails
    /// when the kind's slab is full and the key is not already cached. The
    /// row is held under no version: the next sync fetches it whatever the
    /// server says ([`HotEmbeddingTable::insert_at`] remembers one).
    pub fn insert(&mut self, key: ParamKey, row: &[f32]) -> Result<(), CacheFull> {
        self.insert_at(key, row, NO_VERSION, 0)
    }

    /// [`HotEmbeddingTable::insert`] of a row the server sent under
    /// `version` at iteration `now`.
    pub fn insert_at(
        &mut self,
        key: ParamKey,
        row: &[f32],
        version: u32,
        now: usize,
    ) -> Result<(), CacheFull> {
        self.slab_mut(key).insert(key, row, version, now)
    }

    /// Overwrite a cached key's value (e.g. during synchronization).
    /// Returns false when the key is not cached. Like
    /// [`HotEmbeddingTable::insert`], forgets the version the row was held
    /// under ([`HotEmbeddingTable::refresh_at`] remembers the new one).
    pub fn refresh(&mut self, key: ParamKey, row: &[f32]) -> bool {
        self.slab_mut(key).refresh(key, row, NO_VERSION, None)
    }

    /// [`HotEmbeddingTable::refresh`] with a row the server sent under
    /// `version` at iteration `now`.
    pub fn refresh_at(&mut self, key: ParamKey, row: &[f32], version: u32, now: usize) -> bool {
        self.slab_mut(key).refresh(key, row, version, Some(now))
    }

    /// The server still reports the version `key`'s row is held under: the
    /// cached bits are current as of iteration `now`. Returns false when
    /// the key is not cached.
    pub fn confirm(&mut self, key: ParamKey, now: usize) -> bool {
        let slab = self.slab_mut(key);
        match slab.slots.get(&key) {
            Some(&slot) => {
                slab.confirmed[slot as usize] = now;
                true
            }
            None => false,
        }
    }

    /// The server version `key`'s cached bits were received under;
    /// [`NO_VERSION`] when they were inserted without one or a local
    /// gradient has moved them since. `None` when the key is not cached.
    pub fn held_version(&self, key: ParamKey) -> Option<u32> {
        let slab = self.slab(key);
        slab.slots.get(&key).map(|&s| slab.versions[s as usize])
    }

    /// Iterations since `key`'s row was last confirmed current (received
    /// from the server, or found to match its version), as of iteration
    /// `now` — the staleness §IV-C bounds by `P`. `None` when not cached.
    pub fn age(&self, key: ParamKey, now: usize) -> Option<usize> {
        let slab = self.slab(key);
        slab.slots
            .get(&key)
            .map(|&s| now.saturating_sub(slab.confirmed[s as usize]))
    }

    /// Apply a gradient to a cached row with `optimizer`, using the row's
    /// local optimizer state. Returns false when the key is not cached.
    pub fn apply_grad(&mut self, key: ParamKey, grad: &[f32], optimizer: &dyn Optimizer) -> bool {
        let state_width = self.state_width;
        self.slab_mut(key)
            .apply_grad(key, grad, optimizer, state_width, None)
    }

    /// [`HotEmbeddingTable::apply_grad`], also holding the gradient in the
    /// row's write-back arena as of iteration `now`: summed with what the
    /// row already holds, its energy added to theirs.
    pub fn apply_and_hold(
        &mut self,
        key: ParamKey,
        grad: &[f32],
        optimizer: &dyn Optimizer,
        now: usize,
    ) -> bool {
        let state_width = self.state_width;
        self.slab_mut(key)
            .apply_grad(key, grad, optimizer, state_width, Some(now))
    }

    /// What every row that holds gradients holds: entities then relations,
    /// each in the order the rows first held one. Rows handed over are not
    /// listed.
    pub fn pending(&self) -> impl Iterator<Item = Pending<'_>> + '_ {
        self.entities.pending().chain(self.relations.pending())
    }

    /// Hand over what the rows `leaves` accepts hold, to a push: asked of
    /// every holding row in [`HotEmbeddingTable::pending`]'s order. An
    /// accepted row is no longer pending, and its sum stays readable
    /// ([`HotEmbeddingTable::pending_sum`]) until
    /// [`HotEmbeddingTable::clear_handed_over`]; a row `leaves` declines
    /// keeps its place, its sum, its energy and its `since`.
    pub fn hand_over_where(&mut self, mut leaves: impl FnMut(Pending<'_>) -> bool) {
        self.entities.hand_over_where(&mut leaves);
        self.relations.hand_over_where(&mut leaves);
    }

    /// The sum `key`'s row holds, handed over or not; `None` when it is not
    /// cached or holds nothing.
    pub fn pending_sum(&self, key: ParamKey) -> Option<&[f32]> {
        let slab = self.slab(key);
        let slot = *slab.slots.get(&key)? as usize;
        (slab.held_grads[slot] > 0).then(|| slab.held_sum.row(slot))
    }

    /// The push the rows were handed over to is sealed: they hold nothing,
    /// and start over at the next gradient.
    pub fn clear_handed_over(&mut self) {
        self.entities.clear_handed_over();
        self.relations.clear_handed_over();
    }

    /// Evict every key `keep` rejects, in place: surviving rows keep their
    /// values and are not copied out and back; as with
    /// [`HotEmbeddingTable::insert`], their optimizer state restarts. This
    /// is the eviction half of a DPS reconstruction — the newly selected
    /// keys are then inserted into the freed slots. Panics when a row still
    /// holds gradients: they are written back before a rebuild, not lost in
    /// one.
    pub fn retain(&mut self, mut keep: impl FnMut(ParamKey) -> bool) {
        self.entities.retain(&mut keep);
        self.relations.retain(&mut keep);
    }

    /// Drop every cached row.
    pub fn clear(&mut self) {
        self.entities.clear();
        self.relations.clear();
    }

    /// All cached keys: entities then relations, each in slot order.
    pub fn iter_keys(&self) -> impl Iterator<Item = ParamKey> + '_ {
        self.entities
            .keys
            .iter()
            .chain(&self.relations.keys)
            .copied()
    }

    /// Every cached key with the version it is held under and the
    /// iteration it was last confirmed current at, in
    /// [`HotEmbeddingTable::iter_keys`] order.
    pub fn iter_held(&self) -> impl Iterator<Item = (ParamKey, u32, usize)> + '_ {
        self.entities.held().chain(self.relations.held())
    }

    /// Number of cached entity rows.
    pub fn num_entities(&self) -> usize {
        self.entities.keys.len()
    }

    /// Number of cached relation rows.
    pub fn num_relations(&self) -> usize {
        self.relations.keys.len()
    }
}

/// Returned when inserting into a full slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFull {
    /// The key that could not be inserted.
    pub key: ParamKey,
}

impl std::fmt::Display for CacheFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hot-embedding table is full; cannot insert {}", self.key)
    }
}

impl std::error::Error for CacheFull {}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_ps::optimizer::{AdaGrad, Sgd};

    fn table() -> HotEmbeddingTable {
        // 10 entities, 5 relations; cache 3 entity rows + 2 relation rows.
        HotEmbeddingTable::new(KeySpace::new(10, 5), 3, 2, 4, 4, 1)
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut t = table();
        t.insert(ParamKey(2), &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(t.contains(ParamKey(2)));
        assert_eq!(t.get(ParamKey(2)).unwrap(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.get(ParamKey(3)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn entity_and_relation_slabs_are_independent() {
        let mut t = table();
        // Fill entity slab (keys 0..10 are entities).
        for k in 0..3u64 {
            t.insert(ParamKey(k), &[k as f32; 4]).unwrap();
        }
        assert!(t.insert(ParamKey(3), &[9.0; 4]).is_err());
        // Relation slab (keys 10..15) still has room.
        t.insert(ParamKey(10), &[5.0; 4]).unwrap();
        t.insert(ParamKey(11), &[6.0; 4]).unwrap();
        assert!(t.insert(ParamKey(12), &[7.0; 4]).is_err());
        assert_eq!(t.num_entities(), 3);
        assert_eq!(t.num_relations(), 2);
    }

    #[test]
    fn reinsert_overwrites_without_consuming_capacity() {
        let mut t = table();
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        t.insert(ParamKey(1), &[2.0; 4]).unwrap();
        assert_eq!(t.get(ParamKey(1)).unwrap(), &[2.0; 4]);
        assert_eq!(t.num_entities(), 1);
    }

    #[test]
    fn refresh_only_touches_cached_keys() {
        let mut t = table();
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        assert!(t.refresh(ParamKey(1), &[3.0; 4]));
        assert_eq!(t.get(ParamKey(1)).unwrap(), &[3.0; 4]);
        assert!(!t.refresh(ParamKey(2), &[9.0; 4]));
        assert!(!t.contains(ParamKey(2)));
    }

    #[test]
    fn apply_grad_updates_cached_row_locally() {
        let mut t = table();
        t.insert(ParamKey(0), &[1.0; 4]).unwrap();
        assert!(t.apply_grad(ParamKey(0), &[1.0; 4], &Sgd { lr: 0.5 }));
        assert_eq!(t.get(ParamKey(0)).unwrap(), &[0.5; 4]);
        assert!(!t.apply_grad(ParamKey(9), &[1.0; 4], &Sgd { lr: 0.5 }));
    }

    #[test]
    fn adagrad_state_is_per_row_and_reset_on_insert() {
        let mut t = table();
        let opt = AdaGrad::new(0.1);
        t.insert(ParamKey(0), &[0.0; 4]).unwrap();
        t.apply_grad(ParamKey(0), &[1.0; 4], &opt);
        let first = t.get(ParamKey(0)).unwrap()[0];
        t.apply_grad(ParamKey(0), &[1.0; 4], &opt);
        let second_step = t.get(ParamKey(0)).unwrap()[0] - first;
        assert!(second_step.abs() < first.abs(), "state must accumulate");
        // Re-inserting resets the state: next step is unit-scaled again.
        t.insert(ParamKey(0), &[0.0; 4]).unwrap();
        t.apply_grad(ParamKey(0), &[1.0; 4], &opt);
        let fresh = t.get(ParamKey(0)).unwrap()[0];
        assert!((fresh - first).abs() < 1e-6);
    }

    #[test]
    fn clear_empties_and_frees_capacity() {
        let mut t = table();
        for k in 0..3u64 {
            t.insert(ParamKey(k), &[0.0; 4]).unwrap();
        }
        t.clear();
        assert!(t.is_empty());
        for k in 5..8u64 {
            t.insert(ParamKey(k), &[0.0; 4]).unwrap();
        }
        assert_eq!(t.num_entities(), 3);
    }

    #[test]
    fn retain_evicts_in_place_and_restarts_survivor_state() {
        let mut t = HotEmbeddingTable::new(KeySpace::new(10, 5), 4, 2, 4, 4, 1);
        let opt = AdaGrad::new(0.1);
        for k in [0u64, 1, 2, 3, 10, 11] {
            t.insert(ParamKey(k), &[k as f32; 4]).unwrap();
            t.apply_grad(ParamKey(k), &[1.0; 4], &opt);
        }
        let before: Vec<Vec<f32>> = [1u64, 3, 11]
            .iter()
            .map(|&k| t.get(ParamKey(k)).unwrap().to_vec())
            .collect();
        t.retain(|k| [1, 3, 11].contains(&k.0));
        assert_eq!(t.num_entities(), 2);
        assert_eq!(t.num_relations(), 1);
        for k in [0u64, 2, 10] {
            assert!(!t.contains(ParamKey(k)));
        }
        // Survivors keep their values…
        for (&k, row) in [1u64, 3, 11].iter().zip(&before) {
            assert_eq!(t.get(ParamKey(k)).unwrap(), row.as_slice());
        }
        // …but step like a freshly inserted row (state restarted).
        let mut fresh = HotEmbeddingTable::new(KeySpace::new(10, 5), 4, 2, 4, 4, 1);
        fresh.insert(ParamKey(1), &before[0]).unwrap();
        fresh.apply_grad(ParamKey(1), &[1.0; 4], &opt);
        t.apply_grad(ParamKey(1), &[1.0; 4], &opt);
        assert_eq!(t.get(ParamKey(1)), fresh.get(ParamKey(1)));
        // The freed slots take newcomers up to capacity again.
        t.insert(ParamKey(5), &[5.0; 4]).unwrap();
        t.insert(ParamKey(6), &[6.0; 4]).unwrap();
        assert!(t.insert(ParamKey(7), &[7.0; 4]).is_err());
        let mut keys: Vec<ParamKey> = t.iter_keys().collect();
        keys.sort();
        assert_eq!(keys, [1u64, 3, 5, 6, 11].map(ParamKey));
        assert_eq!(t.get(ParamKey(3)).unwrap(), before[1].as_slice());
        // Rejecting everything empties the table.
        t.retain(|_| false);
        assert!(t.is_empty());
    }

    #[test]
    fn iter_keys_lists_everything() {
        let mut t = table();
        t.insert(ParamKey(1), &[0.0; 4]).unwrap();
        t.insert(ParamKey(12), &[0.0; 4]).unwrap();
        let keys: Vec<ParamKey> = t.iter_keys().collect();
        assert_eq!(keys, vec![ParamKey(1), ParamKey(12)]);
    }

    #[test]
    fn slots_remember_version_and_confirmation() {
        let mut t = table();
        assert_eq!(t.held_version(ParamKey(1)), None);
        assert_eq!(t.age(ParamKey(1), 9), None);
        // Unversioned inserts and refreshes hold no version.
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        assert_eq!(t.held_version(ParamKey(1)), Some(NO_VERSION));
        t.insert_at(ParamKey(2), &[2.0; 4], 7, 16).unwrap();
        assert_eq!(t.held_version(ParamKey(2)), Some(7));
        assert_eq!(t.age(ParamKey(2), 16), Some(0));
        assert_eq!(t.age(ParamKey(2), 24), Some(8));
        // A version match confirms without touching bits or version.
        assert!(t.confirm(ParamKey(2), 24));
        assert_eq!(t.age(ParamKey(2), 24), Some(0));
        assert_eq!(t.held_version(ParamKey(2)), Some(7));
        assert_eq!(t.get(ParamKey(2)).unwrap(), &[2.0; 4]);
        assert!(!t.confirm(ParamKey(5), 24));
        // A versioned refresh replaces all three.
        assert!(t.refresh_at(ParamKey(2), &[3.0; 4], 9, 32));
        assert_eq!(t.held_version(ParamKey(2)), Some(9));
        assert_eq!(t.age(ParamKey(2), 33), Some(1));
        // A local gradient moves the bits off what the server sent; the
        // confirmation time stays (it measures staleness, not dirtiness).
        t.apply_grad(ParamKey(2), &[1.0; 4], &Sgd { lr: 0.5 });
        assert_eq!(t.held_version(ParamKey(2)), Some(NO_VERSION));
        assert_eq!(t.age(ParamKey(2), 33), Some(1));
        // The unversioned refresh forgets the version, keeps the time.
        t.refresh_at(ParamKey(2), &[3.0; 4], 11, 40);
        t.refresh(ParamKey(2), &[4.0; 4]);
        assert_eq!(t.held_version(ParamKey(2)), Some(NO_VERSION));
        assert_eq!(t.age(ParamKey(2), 41), Some(1));
        let held: Vec<_> = t.iter_held().collect();
        assert_eq!(
            held,
            [(ParamKey(1), NO_VERSION, 0), (ParamKey(2), NO_VERSION, 40)]
        );
    }

    #[test]
    fn retain_moves_version_and_confirmation_with_the_row() {
        let mut t = HotEmbeddingTable::new(KeySpace::new(10, 5), 4, 2, 4, 4, 1);
        for k in 0u64..4 {
            t.insert_at(ParamKey(k), &[k as f32; 4], 100 + k as u32, 10 + k as usize)
                .unwrap();
        }
        t.insert_at(ParamKey(12), &[12.0; 4], 112, 22).unwrap();
        // Evicting slot 0 and 1 moves the last rows into the holes.
        t.retain(|k| k.0 >= 2);
        for k in [2u64, 3, 12] {
            assert_eq!(t.get(ParamKey(k)).unwrap(), &[k as f32; 4]);
            assert_eq!(t.held_version(ParamKey(k)), Some(100 + k as u32));
            assert_eq!(t.age(ParamKey(k), 30), Some(20 - k as usize));
        }
        assert_eq!(t.iter_held().count(), 3);
        t.clear();
        assert_eq!(t.iter_held().count(), 0);
        t.insert(ParamKey(0), &[0.0; 4]).unwrap();
        assert_eq!(t.held_version(ParamKey(0)), Some(NO_VERSION));
    }

    #[test]
    fn held_gradients_are_summed_with_their_energy_until_cleared() {
        let mut t = table();
        let opt = Sgd { lr: 0.5 };
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        t.insert(ParamKey(2), &[2.0; 4]).unwrap();
        t.insert(ParamKey(12), &[3.0; 4]).unwrap();
        assert_eq!(t.pending().count(), 0);
        assert_eq!(t.pending_sum(ParamKey(1)), None);
        // Not cached: nothing applied, nothing held.
        assert!(!t.apply_and_hold(ParamKey(3), &[1.0; 4], &opt, 5));
        // One gradient is held as itself, negative zero included.
        let g = [0.5f32, -0.0, 2.0, -1.0];
        assert!(t.apply_and_hold(ParamKey(12), &g, &opt, 5));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.pending_sum(ParamKey(12)).unwrap()), bits(&g));
        // The cached row moved as with `apply_grad`.
        assert_eq!(t.get(ParamKey(12)).unwrap(), &[2.75, 3.0, 2.0, 3.5]);
        assert_eq!(t.held_version(ParamKey(12)), Some(NO_VERSION));
        // Two more on another row, one of them opposite: the sum shrinks,
        // the energy does not.
        assert!(t.apply_and_hold(ParamKey(2), &[1.0, 0.0, -1.0, 2.0], &opt, 6));
        assert!(t.apply_and_hold(ParamKey(2), &[-1.0, 0.5, 1.0, 1.0], &opt, 7));
        // A plain `apply_grad` moves the row and holds nothing.
        assert!(t.apply_grad(ParamKey(1), &[1.0; 4], &opt));
        let held: Vec<_> = t.pending().collect();
        assert_eq!(
            held,
            [
                Pending {
                    key: ParamKey(2),
                    sum: &[0.0, 0.5, 0.0, 3.0],
                    energy: 6.0 + 3.25,
                    grads: 2,
                    since: 6,
                },
                Pending {
                    key: ParamKey(12),
                    sum: &g,
                    energy: 5.25,
                    grads: 1,
                    since: 5,
                },
            ]
        );
        t.hand_over_where(|_| true);
        assert_eq!(t.pending().count(), 0);
        assert_eq!(t.pending_sum(ParamKey(2)), Some(&[0.0, 0.5, 0.0, 3.0][..]));
        t.clear_handed_over();
        assert_eq!(t.pending_sum(ParamKey(2)), None);
        // The next window starts from nothing.
        assert!(t.apply_and_hold(ParamKey(2), &[0.25; 4], &opt, 9));
        let again: Vec<_> = t.pending().collect();
        assert_eq!(again.len(), 1);
        assert_eq!(
            (again[0].sum, again[0].grads, again[0].since),
            (&[0.25f32; 4][..], 1, 9)
        );
        assert_eq!(again[0].energy, 0.25);
        // `clear` forgets what was held with everything else.
        t.clear();
        assert_eq!(t.pending().count(), 0);
    }

    #[test]
    fn handing_one_row_over_leaves_the_others_as_they_were() {
        let mut t = HotEmbeddingTable::new(KeySpace::new(10, 5), 4, 2, 4, 4, 1);
        let opt = Sgd { lr: 0.5 };
        for k in [0u64, 1, 2, 3, 10, 11] {
            t.insert(ParamKey(k), &[k as f32; 4]).unwrap();
        }
        // Held in this order, at these iterations: 2, 0, 3 (twice), 11, 1, 10.
        for (k, g, now) in [
            (2u64, 1.0f32, 5usize),
            (0, 2.0, 5),
            (3, 0.5, 6),
            (11, -1.0, 6),
            (1, 4.0, 7),
            (3, 0.25, 7),
            (10, 3.0, 8),
        ] {
            assert!(t.apply_and_hold(ParamKey(k), &[g; 4], &opt, now));
        }
        let listed = |t: &HotEmbeddingTable| -> Vec<(u64, Vec<f32>, f32, u32, usize)> {
            t.pending()
                .map(|p| (p.key.0, p.sum.to_vec(), p.energy, p.grads, p.since))
                .collect()
        };
        let before = listed(&t);
        assert_eq!(
            before.iter().map(|p| p.0).collect::<Vec<_>>(),
            [2, 0, 3, 1, 11, 10],
            "entities then relations, each in the order they first held"
        );
        // One row, from the middle of the entities: asked of every row, in
        // order, each shown what it holds.
        let mut asked = Vec::new();
        t.hand_over_where(|p| {
            asked.push((p.key.0, p.sum.to_vec(), p.energy, p.grads, p.since));
            p.key == ParamKey(3)
        });
        assert_eq!(asked, before);
        let rest: Vec<_> = before.iter().filter(|p| p.0 != 3).cloned().collect();
        assert_eq!(listed(&t), rest);
        // Its sum is readable until the push is sealed, then gone.
        assert_eq!(t.pending_sum(ParamKey(3)), Some(&[0.75f32; 4][..]));
        t.clear_handed_over();
        assert_eq!(t.pending_sum(ParamKey(3)), None);
        assert_eq!(listed(&t), rest);
        // It starts over behind the others; they add to what they held.
        assert!(t.apply_and_hold(ParamKey(3), &[1.0; 4], &opt, 9));
        assert!(t.apply_and_hold(ParamKey(0), &[1.0; 4], &opt, 9));
        let after = listed(&t);
        assert_eq!(
            after.iter().map(|p| p.0).collect::<Vec<_>>(),
            [2, 0, 1, 3, 11, 10]
        );
        assert_eq!(after[1], (0, vec![3.0; 4], 16.0 + 4.0, 2, 5));
        assert_eq!(after[3], (3, vec![1.0; 4], 4.0, 1, 9));
        // A relation and an entity at once; nothing of a declined hand-over
        // is cleared with them.
        t.hand_over_where(|p| [1, 11].contains(&p.key.0));
        t.clear_handed_over();
        assert_eq!(
            listed(&t).iter().map(|p| p.0).collect::<Vec<_>>(),
            [2, 0, 3, 10]
        );
        assert_eq!(listed(&t)[0], before[0]);
    }

    #[test]
    #[should_panic(expected = "not written back")]
    fn a_row_handed_over_but_not_cleared_is_not_evicted_either() {
        let mut t = table();
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        t.apply_and_hold(ParamKey(1), &[1.0; 4], &Sgd { lr: 0.5 }, 0);
        t.hand_over_where(|_| true);
        t.retain(|_| false);
    }

    #[test]
    #[should_panic(expected = "not written back")]
    fn a_row_that_holds_gradients_is_not_evicted() {
        let mut t = table();
        t.insert(ParamKey(1), &[1.0; 4]).unwrap();
        t.apply_and_hold(ParamKey(1), &[1.0; 4], &Sgd { lr: 0.5 }, 0);
        t.retain(|_| false);
    }

    #[test]
    fn zero_capacity_table_rejects_everything() {
        let mut t = HotEmbeddingTable::new(KeySpace::new(4, 2), 0, 0, 4, 4, 0);
        assert!(t.insert(ParamKey(0), &[0.0; 4]).is_err());
        assert_eq!(t.capacity(), 0);
    }
}
