//! The sharded key-value store holding the global embeddings.
//!
//! One shard per simulated machine. A shard owns two dense tables (entity
//! rows and relation rows — their widths differ for models like TransR)
//! plus matching optimizer-state tables. Shards are independently locked
//! (`parking_lot::RwLock`), so workers pulling from different machines never
//! contend, mirroring how separate KVStore server processes behave.
//!
//! Gradient application happens *inside* the shard (server-side optimizer,
//! Algorithm 4) — workers only ship gradients.
//!
//! ## Replication
//!
//! With [`with_replication`](KvStore::with_replication)`(k)` for `k >= 2`,
//! every shard keeps `k − 1` backup replicas. Replication is *state
//! shipping*: each mutation appends the post-update row (and optimizer
//! state) to a per-shard backlog, which is drained to the backups in
//! batches — asynchronous with respect to the training step, so a backup
//! lags its primary by at most one batch. When a primary dies permanently,
//! [`catch_up`](KvStore::catch_up) force-drains the backlog (anti-entropy)
//! and [`promote`](KvStore::promote) swaps a fully caught-up backup into
//! the primary slot, after which the replayed state is value-identical to
//! the dead primary's. Replication off (`k == 1`) allocates nothing and
//! changes no behavior.
//!
//! ## Row versions
//!
//! Every row carries a 32-bit *update version*: the shard generation it was
//! last written under (high 8 bits) and a per-row write counter (low 24).
//! Every write — gradient push, raw store, checkpoint restore — bumps it,
//! and nothing else does, so **two reads of a row that report the same
//! version saw the same bits**. That is what lets a worker's hot-table sync
//! ask "only if newer" (the one read a shard answers, see
//! [`transport`](crate::transport)) without changing any value it ever
//! reads. A version travels with its row through replication
//! (backups replay `(row, state, version)` images), so a caught-up backup
//! reports exactly what its primary did — and through an image read
//! ([`adopt_images`](KvStore::adopt_images)), so a table that catches up
//! from the shards holds their versions with their rows. [`promote`](KvStore::promote)
//! starts a new generation: a backup promoted while it lagged counts from
//! older counters, and without the generation it could count its way back
//! to a version the dead primary had handed out for different bits.
//! [`NO_VERSION`] is the one value no row ever reports. (The counter wraps
//! after 2²⁴ writes to one row; to be fooled, a holder would have to sit on
//! a version across exactly that many writes without asking once, and the
//! hot table asks every `P` iterations.)

use crate::optimizer::Optimizer;
use crate::router::{Placement, RowKind, ShardRouter};
use hetkg_embed::init::Init;
use hetkg_embed::storage::EmbeddingTable;
use hetkg_kgraph::ParamKey;
use hetkg_netsim::WireFrame;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// The version no row ever has: what a worker sends in a pull-if-newer for
/// a row it holds no (valid) copy of, so the row always comes back.
pub const NO_VERSION: u32 = u32::MAX;

/// Bits of a version that count writes to the row; the rest is the shard
/// generation the last write happened under.
const COUNTER_BITS: u32 = 24;
const COUNTER_MASK: u32 = (1 << COUNTER_BITS) - 1;
/// Generations cycle below 255, so a version's top byte is never `0xFF` and
/// no version equals [`NO_VERSION`].
const GENERATIONS: u32 = 255;

/// The version a row reports after one more write under `generation`.
#[inline]
fn bumped(generation: u32, version: u32) -> u32 {
    (generation << COUNTER_BITS) | (version.wrapping_add(1) & COUNTER_MASK)
}

/// One kind of row in a shard: the values, their optimizer state and
/// their update versions (see the module docs).
#[derive(Debug, Clone)]
struct Rows {
    values: EmbeddingTable,
    state: EmbeddingTable,
    versions: Vec<u32>,
}

/// One machine's slice of the parameter space.
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    /// Entity rows and relation rows (their widths differ for models like
    /// TransR), indexed by [`RowKind`].
    rows: [Rows; 2],
    /// Bumped by [`KvStore::promote`]; stamped into every version written
    /// afterwards.
    generation: u32,
}

impl Shard {
    #[inline]
    pub(crate) fn version(&self, kind: RowKind, local: usize) -> u32 {
        self.rows[kind as usize].versions[local]
    }

    #[inline]
    pub(crate) fn row(&self, kind: RowKind, local: usize) -> &[f32] {
        self.rows[kind as usize].values.row(local)
    }

    /// A row's optimizer-state row.
    #[inline]
    pub(crate) fn state(&self, kind: RowKind, local: usize) -> &[f32] {
        self.rows[kind as usize].state.row(local)
    }

    /// Take a row's image as another copy of the table holds it: its
    /// values, its optimizer state (left alone when `state` is empty) and
    /// its version, verbatim.
    fn adopt(&mut self, kind: RowKind, local: usize, row: &[f32], state: &[f32], version: u32) {
        let rows = &mut self.rows[kind as usize];
        rows.values.set_row(local, row);
        if !state.is_empty() {
            rows.state.set_row(local, state);
        }
        rows.versions[local] = version;
    }
}

/// Width of the optimizer-state row kept beside a row of `dim` values
/// under an optimizer with `state_width` state words per value: at least
/// one word, so that every table has a row per key.
pub(crate) fn state_dim(dim: usize, state_width: usize) -> usize {
    (dim * state_width).max(1)
}

/// One shard under its write lock, taking the writes of one frame or of one
/// batch's share of keys ([`KvStore::write_shard`]). Every write to a row
/// outside a checkpoint restore goes through [`write`](Self::write).
pub(crate) struct ShardWriter<'a> {
    shard: RwLockWriteGuard<'a, Shard>,
    /// `Some`: values are gradients, applied through it. `None`: values
    /// overwrite the row and leave its optimizer state alone.
    optimizer: Option<&'a dyn Optimizer>,
    /// Post-write row images for the replication backlog, logged once the
    /// lock is released; `None` (and nothing copied) with replication off.
    images: Option<Vec<RepRecord>>,
}

impl ShardWriter<'_> {
    /// One write to a row: update or overwrite it, count the write in its
    /// version. Writes to one row apply in call order. `energy` is `Some`
    /// when `value` is several gradients written back as their sum (see
    /// [`Optimizer::update_coalesced`]); it means nothing to an overwrite.
    pub(crate) fn write(
        &mut self,
        kind: RowKind,
        local: usize,
        value: &[f32],
        energy: Option<f32>,
    ) {
        let Shard { rows, generation } = &mut *self.shard;
        let Rows {
            values,
            state,
            versions,
        } = &mut rows[kind as usize];
        let (row, state, version) = (
            values.row_mut(local),
            state.row_mut(local),
            &mut versions[local],
        );
        let state = match self.optimizer {
            Some(optimizer) => {
                let width = row.len() * optimizer.state_width();
                match energy {
                    Some(e) => optimizer.update_coalesced(row, &mut state[..width], value, e),
                    None => optimizer.update(row, &mut state[..width], value),
                }
                &state[..width]
            }
            None => {
                row.copy_from_slice(value);
                &state[..0]
            }
        };
        *version = bumped(*generation, *version);
        if let Some(images) = &mut self.images {
            images.push(RepRecord {
                kind,
                local,
                row: row.to_vec(),
                state: state.to_vec(),
                version: *version,
            });
        }
    }
}

/// Mutations per shard buffered before a replication shipment. Small enough
/// to keep backup lag within the staleness envelope the trainer already
/// tolerates; large enough to amortize per-message overhead.
pub(crate) const REPLICATION_BATCH: usize = 32;

/// One buffered mutation: the post-update row image for a key, plus its
/// optimizer-state row when the mutation was a gradient push. Replaying the
/// image makes backups exact copies regardless of the optimizer.
#[derive(Debug, Clone)]
struct RepRecord {
    kind: RowKind,
    local: usize,
    row: Vec<f32>,
    /// Empty for plain stores (they do not touch optimizer state).
    state: Vec<f32>,
    /// The row's version after the mutation; the backup adopts it with the
    /// image.
    version: u32,
}

impl RepRecord {
    /// Wire size of this record: an 8-byte key plus the f32 payload. The
    /// version word rides in the record's envelope, like a frame's digest.
    fn bytes(&self) -> u64 {
        (8 + 4 * (self.row.len() + self.state.len())) as u64
    }
}

/// The result of draining a shard's replication backlog to its backups.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationFlush {
    /// Replication messages sent (one per backup replica).
    pub messages: u64,
    /// Row-update records replayed onto each backup.
    pub records: u64,
    /// Payload bytes per message.
    pub payload_bytes: u64,
}

impl ReplicationFlush {
    /// Whether anything was shipped.
    pub fn shipped(&self) -> bool {
        self.messages > 0
    }
}

/// Backup replicas + replication backlogs, indexed by shard.
#[derive(Debug)]
struct Replication {
    /// Replication factor `k` the store was configured with.
    factor: usize,
    /// `backups[s]` holds the live backup replicas of shard `s`; promotion
    /// removes one, so the set shrinks as failovers happen.
    backups: Vec<RwLock<Vec<Shard>>>,
    /// Per-shard queue of mutations not yet shipped to the backups.
    backlog: Vec<Mutex<Vec<RepRecord>>>,
}

/// The global, sharded embedding store.
pub struct KvStore {
    router: ShardRouter,
    entity_dim: usize,
    relation_dim: usize,
    shards: Vec<RwLock<Shard>>,
    replication: Option<Replication>,
}

impl KvStore {
    /// Allocate and initialize all shards.
    ///
    /// `entity_dim`/`relation_dim` come from the model
    /// ([`KgeModel::entity_dim`](hetkg_embed::models::KgeModel::entity_dim));
    /// `state_width` from the optimizer. Initialization is deterministic in
    /// `seed` and *placement-independent*: a key's initial row depends only
    /// on the key, so different partitionings start from identical global
    /// parameters.
    pub fn new(
        router: ShardRouter,
        entity_dim: usize,
        relation_dim: usize,
        state_width: usize,
        init: Init,
        seed: u64,
    ) -> Self {
        assert!(entity_dim > 0 && relation_dim > 0);
        let num_shards = router.num_shards();
        let mut shards = Vec::with_capacity(num_shards);
        // Build and fill each shard while it is still exclusively owned —
        // key-addressed init (row depends only on the key, so different
        // partitionings start identical), zero lock operations.
        for s in 0..num_shards {
            let (ne, nr) = router.shard_rows(s);
            let rows = |n, dim| Rows {
                values: EmbeddingTable::zeros(n, dim),
                state: EmbeddingTable::zeros(n, state_dim(dim, state_width)),
                versions: vec![0; n],
            };
            let mut shard = Shard {
                rows: [rows(ne, entity_dim), rows(nr, relation_dim)],
                generation: 0,
            };
            for &key in router.shard_keys(s) {
                let p = router.place(key);
                let row = shard.rows[p.kind as usize].values.row_mut(p.local);
                init.fill_row(row, seed, key.0);
            }
            shards.push(RwLock::new(shard));
        }
        Self {
            router,
            entity_dim,
            relation_dim,
            shards,
            replication: None,
        }
    }

    /// Enable `k`-way replication: every shard gets `k − 1` backup replicas
    /// cloned from its current state, so backups start bit-identical to
    /// their primary. `k <= 1` is a no-op (replication off). Call right
    /// after construction, before any traffic.
    pub fn with_replication(mut self, k: usize) -> Self {
        if k <= 1 {
            self.replication = None;
            return self;
        }
        let backups = self
            .shards
            .iter()
            .map(|lock| {
                let primary = lock.read();
                RwLock::new(vec![primary.clone(); k - 1])
            })
            .collect();
        let backlog = self.shards.iter().map(|_| Mutex::new(Vec::new())).collect();
        self.replication = Some(Replication {
            factor: k,
            backups,
            backlog,
        });
        self
    }

    /// The configured replication factor (1 = replication off).
    pub fn replication(&self) -> usize {
        self.replication.as_ref().map_or(1, |r| r.factor)
    }

    /// Whether `shard` still has at least one live backup replica.
    pub fn has_backup(&self, shard: usize) -> bool {
        self.replication
            .as_ref()
            .is_some_and(|r| !r.backups[shard].read().is_empty())
    }

    /// Append one mutation to `shard`'s replication backlog (no-op when the
    /// shard has no live backups left).
    fn log_replica(&self, shard: usize, record: RepRecord) {
        let Some(rep) = &self.replication else {
            return;
        };
        if rep.backups[shard].read().is_empty() {
            return;
        }
        rep.backlog[shard].lock().push(record);
    }

    /// Drain `shard`'s backlog onto its backups once it holds at least
    /// `min_records` records. Returns what was shipped (all zeros when the
    /// threshold was not met or the shard has no backups).
    fn drain_backlog(&self, shard: usize, min_records: usize) -> ReplicationFlush {
        let Some(rep) = &self.replication else {
            return ReplicationFlush::default();
        };
        let mut backups = rep.backups[shard].write();
        if backups.is_empty() {
            // No one left to replicate to; drop anything buffered.
            rep.backlog[shard].lock().clear();
            return ReplicationFlush::default();
        }
        let records = {
            let mut bl = rep.backlog[shard].lock();
            if bl.len() < min_records.max(1) {
                return ReplicationFlush::default();
            }
            std::mem::take(&mut *bl)
        };
        let payload_bytes: u64 = records.iter().map(RepRecord::bytes).sum();
        for backup in backups.iter_mut() {
            for r in &records {
                backup.adopt(r.kind, r.local, &r.row, &r.state, r.version);
            }
        }
        ReplicationFlush {
            messages: backups.len() as u64,
            records: records.len() as u64,
            payload_bytes,
        }
    }

    /// Ship `shard`'s buffered mutations to its backups if a full batch has
    /// accumulated (the asynchronous replication step; the caller meters
    /// the returned shipment on the replication lane).
    pub fn replicate(&self, shard: usize) -> ReplicationFlush {
        self.drain_backlog(shard, REPLICATION_BATCH)
    }

    /// Anti-entropy catch-up: force-drain `shard`'s entire backlog so its
    /// backups converge to the primary's exact state. Used right before
    /// [`promote`](Self::promote).
    pub fn catch_up(&self, shard: usize) -> ReplicationFlush {
        self.drain_backlog(shard, 1)
    }

    /// Fail `shard` over: swap one caught-up backup into the primary slot,
    /// discarding the dead primary. Returns `false` when the shard has no
    /// backups left. Call [`catch_up`](Self::catch_up) first — promotion
    /// takes the backup as-is, row versions included, and opens a new
    /// version generation: rows the backup had caught up on keep reporting
    /// the version their bits were handed out under, while every write from
    /// here on reports one the dead primary never used.
    pub fn promote(&self, shard: usize) -> bool {
        let Some(rep) = &self.replication else {
            return false;
        };
        // Lock order everywhere is primary shard → backups → backlog.
        let mut primary = self.shards[shard].write();
        let mut backups = rep.backups[shard].write();
        let Some(candidate) = backups.pop() else {
            return false;
        };
        // Later candidates were cloned under an older generation than a
        // primary that was itself promoted, hence the max.
        let generation = (primary.generation.max(candidate.generation) + 1) % GENERATIONS;
        *primary = candidate;
        primary.generation = generation;
        // Whatever the dead primary buffered can never be shipped by it.
        if backups.is_empty() {
            rep.backlog[shard].lock().clear();
        }
        true
    }

    /// Rebuild every backup as an exact copy of its current primary and
    /// clear the backlogs. Used after a checkpoint restore, which rewrites
    /// primaries wholesale behind replication's back.
    pub fn resync_backups(&self) {
        let Some(rep) = &self.replication else {
            return;
        };
        for (s, lock) in self.shards.iter().enumerate() {
            rep.backlog[s].lock().clear();
            let primary = lock.read();
            for backup in rep.backups[s].write().iter_mut() {
                *backup = primary.clone();
            }
        }
    }

    /// The router (placement map) in use.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Width of entity rows.
    pub fn entity_dim(&self) -> usize {
        self.entity_dim
    }

    /// Width of relation rows.
    pub fn relation_dim(&self) -> usize {
        self.relation_dim
    }

    /// Row width (f32 words) of a key's row.
    pub(crate) fn row_dim(&self, key: ParamKey) -> usize {
        match self.router.kind_of(key) {
            RowKind::Entity => self.entity_dim,
            RowKind::Relation => self.relation_dim,
        }
    }

    /// Row width (bytes) for a key — what one pull of it transfers.
    pub fn row_bytes(&self, key: ParamKey) -> u64 {
        (self.row_dim(key) * std::mem::size_of::<f32>()) as u64
    }

    /// `shard` under its read lock: how every row and version is read,
    /// whether one key, a batch or a frame asks.
    pub(crate) fn read_shard(&self, shard: usize) -> RwLockReadGuard<'_, Shard> {
        self.shards[shard].read()
    }

    /// Run `body` with `shard` under its write lock: how every row is
    /// written, whether one key, a batch or a frame brings the values.
    /// `optimizer` says what a value is (see [`ShardWriter`]).
    pub(crate) fn write_shard(
        &self,
        shard: usize,
        optimizer: Option<&dyn Optimizer>,
        body: impl FnOnce(&mut ShardWriter<'_>),
    ) {
        let mut writer = ShardWriter {
            shard: self.shards[shard].write(),
            optimizer,
            images: self.replication.is_some().then(Vec::new),
        };
        body(&mut writer);
        let ShardWriter {
            shard: lock,
            images,
            ..
        } = writer;
        drop(lock);
        for image in images.into_iter().flatten() {
            self.log_replica(shard, image);
        }
    }

    /// Adopt the reply to an image read of `shard` (see
    /// [`transport`](crate::transport)): each named row's values, optimizer
    /// state and version, under one write lock. This is how a table that is
    /// not the shards — a socket run's trainer table — catches up with
    /// them; it counts no write and logs nothing for replication.
    pub(crate) fn adopt_images(&self, shard: usize, frame: &WireFrame) {
        if frame.keys.is_empty() {
            return;
        }
        let mut held = self.shards[shard].write();
        let mut rest = &frame.payload[..];
        for (&k, &version) in frame.keys.iter().zip(&frame.versions) {
            let (p, dim) = (self.router.place(ParamKey(k)), self.row_dim(ParamKey(k)));
            let image;
            (image, rest) = rest.split_at(dim + held.state(p.kind, p.local).len());
            held.adopt(p.kind, p.local, &image[..dim], &image[dim..], version);
        }
        debug_assert!(rest.is_empty(), "the reply is all images");
    }

    /// Copy a key's current embedding into `out` (length must match the
    /// key's row width).
    pub fn pull(&self, key: ParamKey, out: &mut [f32]) {
        let p = self.router.place(key);
        out.copy_from_slice(self.read_shard(p.shard).row(p.kind, p.local));
    }

    /// The update version of `key`'s row (see the module docs).
    pub fn version(&self, key: ParamKey) -> u32 {
        let p = self.router.place(key);
        self.read_shard(p.shard).version(p.kind, p.local)
    }

    /// Apply a gradient to a key under `optimizer` (server-side update).
    pub fn push_grad(&self, key: ParamKey, grad: &[f32], optimizer: &dyn Optimizer) {
        let p = self.router.place(key);
        self.write_shard(p.shard, Some(optimizer), |w| {
            w.write(p.kind, p.local, grad, None)
        });
    }

    /// Overwrite a key's embedding (used by tests and checkpoint loading).
    pub fn store(&self, key: ParamKey, value: &[f32]) {
        let p = self.router.place(key);
        self.write_shard(p.shard, None, |w| w.write(p.kind, p.local, value, None));
    }

    /// Placement of a key (exposed for the metering client).
    pub fn place(&self, key: ParamKey) -> Placement {
        self.router.place(key)
    }

    /// Batched [`pull`](Self::pull): resolve placements once, take each
    /// shard's read lock once, and hand `sink` every row as
    /// `(input_index, row)` — shard-grouped, so *not* in input order.
    pub fn pull_many<F: FnMut(usize, &[f32])>(&self, keys: &[ParamKey], mut sink: F) {
        let plan = self.router.plan(keys);
        for s in plan.shards() {
            let shard = self.read_shard(s);
            for i in plan.indices(s) {
                let p = plan.placement(i);
                sink(i, shard.row(p.kind, p.local));
            }
        }
    }

    /// Batched [`push_grad`](Self::push_grad). Equivalent to applying the
    /// gradients one key at a time in batch order: duplicates of a key land
    /// on the same shard and the grouping is stable, so their updates (and
    /// optimizer-state mutations) apply in the same order.
    /// Placements are resolved once and each shard's gradients are applied
    /// under one lock.
    pub fn push_grad_many(&self, keys: &[ParamKey], grads: &[&[f32]], optimizer: &dyn Optimizer) {
        assert_eq!(keys.len(), grads.len(), "one gradient per key");
        let plan = self.router.plan(keys);
        for s in plan.shards() {
            self.write_shard(s, Some(optimizer), |w| {
                for i in plan.indices(s) {
                    let p = plan.placement(i);
                    w.write(p.kind, p.local, grads[i], None);
                }
            });
        }
    }

    /// Run `f` over every key and its current embedding, one read-locked
    /// shard at a time (not one lock per key). Keys arrive grouped by shard
    /// — ascending within a shard, not globally — so consumers must address
    /// by key, which snapshotting and checkpointing do.
    pub fn for_each_row<F: FnMut(ParamKey, &[f32])>(&self, mut f: F) {
        self.for_each_row_with_state(|key, row, _| f(key, row));
    }

    /// Width of the entity optimizer-state rows
    /// (`(entity_dim * state_width).max(1)`).
    pub fn entity_state_dim(&self) -> usize {
        self.shards[0].read().rows[RowKind::Entity as usize]
            .state
            .dim()
    }

    /// Width of the relation optimizer-state rows.
    pub fn relation_state_dim(&self) -> usize {
        self.shards[0].read().rows[RowKind::Relation as usize]
            .state
            .dim()
    }

    /// Run `f` over every key with its embedding row *and* optimizer-state
    /// row. Used by checkpointing to capture resumable training state.
    /// Shard-at-a-time like [`for_each_row`](Self::for_each_row).
    pub fn for_each_row_with_state<F: FnMut(ParamKey, &[f32], &[f32])>(&self, mut f: F) {
        for (s, lock) in self.shards.iter().enumerate() {
            let shard = lock.read();
            for &key in self.router.shard_keys(s) {
                let p = self.router.place(key);
                f(
                    key,
                    shard.row(p.kind, p.local),
                    shard.state(p.kind, p.local),
                );
            }
        }
    }

    /// Overwrite a key's embedding and, when given, its optimizer state
    /// (checkpoint restore). `state` must match the key's state-row width.
    /// A restore is a write like any other to the row's version: whatever a
    /// worker cached before the restore, it never matches afterwards.
    pub fn restore_row(&self, key: ParamKey, value: &[f32], state: Option<&[f32]>) {
        let p = self.router.place(key);
        let mut shard = self.shards[p.shard].write();
        let version = bumped(shard.generation, shard.version(p.kind, p.local));
        shard.adopt(p.kind, p.local, value, state.unwrap_or_default(), version);
    }
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("shards", &self.shards.len())
            .field("entity_dim", &self.entity_dim)
            .field("relation_dim", &self.relation_dim)
            .field("replication", &self.replication())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{AdaGrad, Sgd};
    use hetkg_kgraph::KeySpace;

    fn store(num_shards: usize) -> KvStore {
        let ks = KeySpace::new(10, 4);
        let router = ShardRouter::round_robin(ks, num_shards);
        KvStore::new(router, 8, 8, 1, Init::Uniform { bound: 0.5 }, 42)
    }

    impl KvStore {
        /// Read a key's embedding from the first of its shard's backup
        /// replicas. Returns `false` when the shard has no backups. The
        /// value may lag the primary by up to one unshipped replication
        /// batch.
        fn pull_backup(&self, key: ParamKey, out: &mut [f32]) -> bool {
            let p = self.router.place(key);
            let Some(rep) = &self.replication else {
                return false;
            };
            let backups = rep.backups[p.shard].read();
            let Some(backup) = backups.first() else {
                return false;
            };
            out.copy_from_slice(backup.row(p.kind, p.local));
            true
        }
    }

    #[test]
    fn pull_returns_initialized_rows() {
        let s = store(2);
        let mut buf = [0.0f32; 8];
        s.pull(ParamKey(3), &mut buf);
        assert!(buf.iter().any(|v| v.abs() > 1e-6));
        assert!(buf.iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn init_is_placement_independent() {
        let ks = KeySpace::new(10, 4);
        let a = KvStore::new(
            ShardRouter::round_robin(ks, 1),
            8,
            8,
            1,
            Init::Uniform { bound: 0.5 },
            7,
        );
        let b = KvStore::new(
            ShardRouter::round_robin(ks, 4),
            8,
            8,
            1,
            Init::Uniform { bound: 0.5 },
            7,
        );
        let mut ra = [0.0f32; 8];
        let mut rb = [0.0f32; 8];
        for k in 0..ks.len() as u64 {
            a.pull(ParamKey(k), &mut ra);
            b.pull(ParamKey(k), &mut rb);
            assert_eq!(ra, rb, "key {k} differs across shardings");
        }
    }

    #[test]
    fn store_then_pull_round_trips() {
        let s = store(3);
        let val = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        s.store(ParamKey(11), &val); // a relation key
        let mut buf = [0.0f32; 8];
        s.pull(ParamKey(11), &mut buf);
        assert_eq!(buf, val);
    }

    #[test]
    fn push_grad_applies_sgd() {
        let s = store(2);
        let key = ParamKey(0);
        s.store(key, &[1.0; 8]);
        s.push_grad(key, &[0.5; 8], &Sgd { lr: 0.2 });
        let mut buf = [0.0f32; 8];
        s.pull(key, &mut buf);
        for v in buf {
            assert!((v - 0.9).abs() < 1e-6);
        }
    }

    #[test]
    fn push_grad_adagrad_keeps_state_across_pushes() {
        let s = store(1);
        let key = ParamKey(2);
        s.store(key, &[0.0; 8]);
        let opt = AdaGrad::new(0.1);
        s.push_grad(key, &[1.0; 8], &opt);
        let mut after_one = [0.0f32; 8];
        s.pull(key, &mut after_one);
        s.push_grad(key, &[1.0; 8], &opt);
        let mut after_two = [0.0f32; 8];
        s.pull(key, &mut after_two);
        let step1 = after_one[0].abs();
        let step2 = (after_two[0] - after_one[0]).abs();
        assert!(step2 < step1, "adagrad state must persist in the shard");
    }

    #[test]
    fn different_row_widths_for_relations() {
        let ks = KeySpace::new(4, 2);
        let router = ShardRouter::round_robin(ks, 2);
        // TransR-style: entity rows 4, relation rows 4 + 16 = 20.
        let s = KvStore::new(router, 4, 20, 1, Init::Xavier, 1);
        assert_eq!(s.row_bytes(ParamKey(0)), 16);
        assert_eq!(s.row_bytes(ParamKey(4)), 80);
        let mut rel = vec![0.0f32; 20];
        s.pull(ParamKey(5), &mut rel);
        assert!(rel.iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn concurrent_pushes_all_land() {
        let s = std::sync::Arc::new(store(2));
        let opt = Sgd { lr: 1.0 };
        s.store(ParamKey(0), &[0.0; 8]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        s.push_grad(ParamKey(0), &[-1.0; 8], &opt);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut buf = [0.0f32; 8];
        s.pull(ParamKey(0), &mut buf);
        // 400 SGD steps of +1 each (lr 1.0, grad −1).
        assert!((buf[0] - 400.0).abs() < 1e-3);
    }

    #[test]
    fn pull_many_matches_per_key_pull() {
        let s = store(3);
        let keys = [ParamKey(9), ParamKey(0), ParamKey(12), ParamKey(9)];
        let mut got = vec![vec![]; keys.len()];
        s.pull_many(&keys, |i, row| got[i] = row.to_vec());
        for (i, &k) in keys.iter().enumerate() {
            let mut want = [0.0f32; 8];
            s.pull(k, &mut want);
            assert_eq!(got[i], want, "key {k:?} at batch index {i}");
        }
    }

    #[test]
    fn push_grad_many_duplicates_apply_in_batch_order() {
        // AdaGrad: the second update of a key must see the first's state, so
        // the batched result must equal two sequential pushes.
        let a = store(2);
        let b = store(2);
        let opt = AdaGrad::new(0.1);
        let key = ParamKey(4);
        let g1 = [1.0f32; 8];
        let g2 = [2.0f32; 8];
        a.push_grad(key, &g1, &opt);
        a.push_grad(key, &g2, &opt);
        b.push_grad_many(&[key, key], &[&g1, &g2], &opt);
        let (mut ra, mut rb) = ([0.0f32; 8], [0.0f32; 8]);
        a.pull(key, &mut ra);
        b.pull(key, &mut rb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn for_each_row_visits_every_key() {
        let s = store(3);
        let mut seen = 0;
        s.for_each_row(|_, row| {
            assert_eq!(row.len(), 8);
            seen += 1;
        });
        assert_eq!(seen, 14);
    }

    #[test]
    fn replication_off_is_free() {
        let s = store(2).with_replication(1);
        assert_eq!(s.replication(), 1);
        assert!(!s.has_backup(0));
        assert_eq!(s.replicate(0), ReplicationFlush::default());
        assert_eq!(s.catch_up(0), ReplicationFlush::default());
        assert!(!s.promote(0));
        assert!(!s.pull_backup(ParamKey(0), &mut [0.0f32; 8]));
        s.resync_backups(); // no-op, must not panic
    }

    #[test]
    fn backups_start_identical_and_lag_until_a_batch_ships() {
        let s = store(2).with_replication(2);
        assert_eq!(s.replication(), 2);
        assert!(s.has_backup(0) && s.has_backup(1));
        let key = ParamKey(0);
        let (mut prim, mut back) = ([0.0f32; 8], [0.0f32; 8]);
        s.pull(key, &mut prim);
        assert!(s.pull_backup(key, &mut back));
        assert_eq!(prim, back, "backups clone the initialized primary");
        // A single store stays buffered: the backup is (boundedly) stale.
        s.store(key, &[1.0; 8]);
        s.pull_backup(key, &mut back);
        assert_eq!(back, prim, "below the batch threshold nothing ships");
        assert_eq!(s.replicate(0), ReplicationFlush::default());
        // Filling the batch ships it.
        for _ in 0..REPLICATION_BATCH {
            s.store(key, &[2.0; 8]);
        }
        let flush = s.replicate(0);
        assert!(flush.shipped());
        assert_eq!(flush.messages, 1, "one backup, one message");
        assert_eq!(flush.records, REPLICATION_BATCH as u64 + 1);
        assert!(flush.payload_bytes > 0);
        s.pull_backup(key, &mut back);
        assert_eq!(back, [2.0; 8]);
    }

    #[test]
    fn catch_up_then_promote_is_value_exact() {
        // A replicated store whose shard 0 primary "dies" must, after
        // catch-up + promotion, be indistinguishable from an unreplicated
        // control — including optimizer state, checked by pushing again
        // after the failover.
        let a = store(2).with_replication(2);
        let b = store(2);
        let opt = AdaGrad::new(0.1);
        for _ in 0..3 {
            for k in 0..14u64 {
                a.push_grad(ParamKey(k), &[0.5; 8], &opt);
                b.push_grad(ParamKey(k), &[0.5; 8], &opt);
            }
        }
        let flush = a.catch_up(0);
        assert!(flush.shipped());
        assert!(a.promote(0), "one backup must be available");
        assert!(!a.has_backup(0), "replica budget for shard 0 exhausted");
        assert!(!a.promote(0), "no second failover");
        // Post-promotion pushes exercise the replayed optimizer state.
        for k in 0..14u64 {
            a.push_grad(ParamKey(k), &[0.25; 8], &opt);
            b.push_grad(ParamKey(k), &[0.25; 8], &opt);
        }
        let (mut ra, mut rb) = ([0.0f32; 8], [0.0f32; 8]);
        for k in 0..14u64 {
            a.pull(ParamKey(k), &mut ra);
            b.pull(ParamKey(k), &mut rb);
            assert_eq!(ra, rb, "key {k} diverged after failover");
        }
    }

    #[test]
    fn resync_backups_re_clones_primaries() {
        let s = store(2).with_replication(3);
        let key = ParamKey(0);
        // Rewrite the primary behind replication's back (checkpoint restore).
        s.restore_row(key, &[7.0; 8], None);
        let mut back = [0.0f32; 8];
        s.pull_backup(key, &mut back);
        assert_ne!(back, [7.0; 8], "restore_row does not replicate");
        s.resync_backups();
        s.pull_backup(key, &mut back);
        assert_eq!(back, [7.0; 8]);
        // Two backups: first promotion succeeds, and the survivor still
        // serves hedged reads.
        assert!(s.promote(0));
        assert!(s.has_backup(0));
        assert!(s.pull_backup(key, &mut back));
    }

    #[test]
    fn batched_mutations_replicate_too() {
        let s = store(2).with_replication(2);
        let opt = Sgd { lr: 0.1 };
        let keys: Vec<ParamKey> = (0..14u64).map(ParamKey).collect();
        let grad = [1.0f32; 8];
        let grads: Vec<&[f32]> = keys.iter().map(|_| &grad[..]).collect();
        for _ in 0..5 {
            s.push_grad_many(&keys, &grads, &opt);
        }
        // 5 × 14 = 70 records split across 2 shards: both above threshold.
        for shard in 0..2 {
            assert!(s.replicate(shard).shipped(), "shard {shard}");
        }
        let (mut prim, mut back) = ([0.0f32; 8], [0.0f32; 8]);
        for &k in &keys {
            s.pull(k, &mut prim);
            assert!(s.pull_backup(k, &mut back));
            assert_eq!(prim, back, "key {k:?}");
        }
    }

    #[test]
    fn every_write_moves_the_version_and_nothing_else_does() {
        let s = store(2);
        let key = ParamKey(3);
        let v0 = s.version(key);
        let mut buf = [0.0f32; 8];
        s.pull(key, &mut buf);
        s.pull_many(&[key], |_, _| {});
        assert_eq!(s.version(key), v0, "reads leave the version alone");
        let mut seen = vec![v0];
        s.push_grad(key, &[0.5; 8], &Sgd { lr: 0.1 });
        seen.push(s.version(key));
        s.push_grad_many(&[key, key], &[&[0.5; 8], &[0.5; 8]], &Sgd { lr: 0.1 });
        seen.push(s.version(key));
        s.store(key, &[1.0; 8]);
        seen.push(s.version(key));
        s.restore_row(key, &[3.0; 8], None);
        seen.push(s.version(key));
        // A write of the bits already there is still a write.
        s.store(key, &[3.0; 8]);
        seen.push(s.version(key));
        let mut distinct = seen.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), seen.len(), "versions repeated: {seen:?}");
        assert!(!seen.contains(&NO_VERSION));
        assert_eq!(s.version(ParamKey(4)), v0, "other rows are untouched");
    }

    #[test]
    fn no_version_is_unreachable_even_when_counters_and_generations_wrap() {
        // The counter wraps inside its 24 bits and the generation below 255:
        // no (generation, counter) pair is the all-ones word.
        assert_eq!(bumped(0, COUNTER_MASK), 0);
        assert_eq!(
            bumped(3, COUNTER_MASK - 1),
            (3 << COUNTER_BITS) | COUNTER_MASK
        );
        for generation in 0..GENERATIONS {
            for version in [0, 1, COUNTER_MASK - 1, COUNTER_MASK, u32::MAX - 1] {
                assert_ne!(bumped(generation, version), NO_VERSION);
            }
        }
        // Promotion keeps the generation in range however often it happens.
        let s = store(1).with_replication(2);
        for _ in 0..600 {
            s.resync_backups();
            // Refill the backup set the previous promotion consumed.
            let mut backups = s.replication.as_ref().unwrap().backups[0].write();
            if backups.is_empty() {
                let primary = s.shards[0].read().clone();
                backups.push(primary);
            }
            drop(backups);
            assert!(s.promote(0));
            assert!(s.shards[0].read().generation < GENERATIONS);
        }
    }

    #[test]
    fn versions_travel_with_the_row_through_replication_and_promotion() {
        let s = store(2).with_replication(2);
        let opt = AdaGrad::new(0.1);
        let keys: Vec<ParamKey> = (0..14u64).map(ParamKey).collect();
        for round in 0..3 {
            for &k in &keys {
                s.push_grad(k, &[0.5 + round as f32; 8], &opt);
            }
        }
        let before: Vec<u32> = keys.iter().map(|&k| s.version(k)).collect();
        s.catch_up(0);
        assert!(s.promote(0));
        let after: Vec<u32> = keys.iter().map(|&k| s.version(k)).collect();
        assert_eq!(
            before, after,
            "a caught-up backup reports what its primary did: same bits, same versions"
        );
        // Writes after the promotion are stamped with the new generation.
        let k0 = keys
            .iter()
            .copied()
            .find(|&k| s.place(k).shard == 0)
            .unwrap();
        s.push_grad(k0, &[1.0; 8], &opt);
        assert_eq!(s.version(k0) >> COUNTER_BITS, 1);
        // resync re-clones versions too.
        s.resync_backups();
        let primary = s.shards[1].read();
        let backups = s.replication.as_ref().unwrap().backups[1].read();
        for (p, b) in primary.rows.iter().zip(&backups[0].rows) {
            assert_eq!(p.versions, b.versions);
        }
    }

    /// The failover drill the generation exists for: a backup promoted while
    /// it *lags* restarts from older counters, and walks through the very
    /// counter values the dead primary handed out — for different bits. The
    /// generation is what keeps every one of those a different version.
    #[test]
    fn a_lagging_backup_promoted_cannot_count_back_to_a_version_the_primary_used() {
        let s = store(1).with_replication(2);
        let opt = Sgd { lr: 0.1 };
        let key = ParamKey(2);
        // Three pushes stay in the backlog (below the shipping threshold):
        // the backup still holds the initial row at version 0.
        let mut handed_out = Vec::new();
        for i in 0..3 {
            s.push_grad(key, &[1.0 + i as f32; 8], &opt);
            handed_out.push(s.version(key));
        }
        // The primary dies; promotion takes the backup as it is.
        assert!(s.promote(0));
        let mut counters_revisited = 0;
        for i in 0..6 {
            s.push_grad(key, &[-2.0 - i as f32; 8], &opt);
            let now = s.version(key);
            assert!(
                !handed_out.contains(&now),
                "version {now:#x} was handed out by the dead primary for other bits"
            );
            counters_revisited += handed_out
                .iter()
                .filter(|&&held| held & COUNTER_MASK == now & COUNTER_MASK)
                .count();
        }
        assert_eq!(
            counters_revisited, 3,
            "the counter alone would have collided"
        );
    }

    /// Checkpoint-restore drill: rows are rolled back to older bits and then
    /// trained forward again. A version held from before the restore never
    /// matches afterwards, whatever the row goes through.
    #[test]
    fn a_restore_never_reuses_a_version_held_from_before_it() {
        let s = store(2).with_replication(2);
        let opt = AdaGrad::new(0.1);
        let key = ParamKey(5);
        let mut checkpoint_row = vec![];
        let mut checkpoint_state = vec![];
        s.push_grad(key, &[1.0; 8], &opt);
        s.for_each_row_with_state(|k, row, state| {
            if k == key {
                checkpoint_row = row.to_vec();
                checkpoint_state = state.to_vec();
            }
        });
        let mut held = vec![s.version(key)];
        for _ in 0..4 {
            s.push_grad(key, &[0.25; 8], &opt);
            held.push(s.version(key));
        }
        s.restore_row(key, &checkpoint_row, Some(&checkpoint_state));
        s.resync_backups();
        for _ in 0..8 {
            assert!(
                !held.contains(&s.version(key)),
                "version {} was held before the restore",
                s.version(key)
            );
            s.push_grad(key, &[0.25; 8], &opt);
        }
    }

    #[test]
    fn state_round_trips_through_restore_row() {
        let s = store(2);
        assert_eq!(s.entity_state_dim(), 8);
        assert_eq!(s.relation_state_dim(), 8);
        // Accumulate some AdaGrad state, capture it, wipe the row, restore.
        let key = ParamKey(5);
        let opt = AdaGrad::new(0.1);
        let mut before = [0.0f32; 8];
        s.pull(key, &mut before);
        s.push_grad(key, &[1.0; 8], &opt);
        let mut saved_row = vec![];
        let mut saved_state = vec![];
        s.for_each_row_with_state(|k, row, state| {
            if k == key {
                saved_row = row.to_vec();
                saved_state = state.to_vec();
            }
        });
        assert!(
            saved_state.iter().any(|v| *v != 0.0),
            "adagrad state captured"
        );
        let zeros = vec![0.0f32; saved_state.len()];
        s.restore_row(key, &[9.0; 8], Some(&zeros));
        s.restore_row(key, &saved_row, Some(&saved_state));
        s.for_each_row_with_state(|k, row, state| {
            if k == key {
                assert_eq!(row, &saved_row[..]);
                assert_eq!(state, &saved_state[..]);
            }
        });
        // Restoring state makes the next step identical to a store that
        // never lost it: step size shrinks as if the first push persisted.
        s.push_grad(key, &[1.0; 8], &opt);
        let mut after = [0.0f32; 8];
        s.pull(key, &mut after);
        let step1 = (saved_row[0] - before[0]).abs();
        let step2 = (after[0] - saved_row[0]).abs();
        assert!(step2 < step1, "restored adagrad state damps the step");
    }
}
