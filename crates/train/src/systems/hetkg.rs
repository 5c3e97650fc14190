//! HET-KG's worker loop: Hot-Embedding Oriented Training (§IV-B, Alg. 3).
//!
//! The data path per iteration:
//!
//! 1. (re)construct the hot-embedding table when the policy says so —
//!    CPS once from the whole subgraph's frequencies, DPS every `D`
//!    iterations from the prefetched window's read statistics: the keys
//!    at least two of its batches read, most reading batches first (a row
//!    one batch reads costs the same one pull cached or not);
//! 2. synchronize the table with the PS every `P` iterations (bounded
//!    staleness, Alg. 3 lines 8–9) — as a *pull-if-newer*: the worker sends
//!    the server version each cached row is held under and receives only
//!    the rows whose version moved. A row that does not come back is
//!    bit-identical to the cached copy, so no value the model reads depends
//!    on the gate, and every row — returned or not — is confirmed current
//!    as of this iteration, which is what §IV-C's bound counts from;
//! 3. read hot embeddings from the table, pull only the *misses* from the
//!    PS — this is where the communication reduction comes from;
//! 4. compute gradients and update (Alg. 3 lines 17–19, as built): the
//!    gradient of a row the table does not hold is pushed to the PS, as a
//!    cacheless system would; the gradient of a cached row is applied to the
//!    cached copy — the worker's own reads stay current — and *held* in the
//!    table beside the others the row collects, to be written back once per
//!    sync window: in the push of the last batch of the window that reads
//!    the row. Under DPS the prefetched window knows which batch that is
//!    ([`KeyReads::read_in`](hetkg_core::prefetch::KeyReads::read_in)), so
//!    the write-backs of a window are spread over its pushes, where the link
//!    is idle, instead of bursting in the last one, in front of the sync.
//!    That last one — the *boundary* push: before the table's next sync,
//!    before a DPS rebuild (nothing evicted is lost) and at an epoch's end
//!    (evaluation, checkpoints and restarts see everything) — sends whatever
//!    is still held, which under CPS, where no window says when a row is
//!    quiet, is everything. So no gradient waits more than `P − 1`
//!    iterations — the write side of §IV-C's bound — and no message is
//!    added. A row that collected one gradient goes out as that gradient;
//!    one that collected several goes out as their sum `Σg` with their
//!    energy `Σᵢ‖gᵢ‖²` in the push frame's trailer, which is what lets the
//!    server's AdaGrad account for the gradients it never saw one by one
//!    ([`Optimizer::update_coalesced`](hetkg_ps::optimizer::Optimizer::update_coalesced)).
//!    It has to be out by the push *before* the sync: the refresh would
//!    otherwise overwrite local updates the server has not seen.
//!
//! With fault injection attached the cache doubles as a degraded-mode
//! buffer: while a PS shard is down, cached keys homed there keep serving
//! (stale) hits past the sync bound `P` for up to eight sync periods
//! ([`SyncConfig::degraded_bound`]), and their gradient pushes — rows
//! written back included, with their energy — are deferred into a local
//! backlog that is replayed once the shard recovers. With overload protection attached
//! ([`hetkg_ps::OverloadControl`]) the same machinery doubles as a
//! *brownout*: a shard whose circuit breaker is open is treated like a
//! down shard — cached keys serve stale (counted separately as brownout
//! stale serves), pushes defer into the backlog — and pushes the budget
//! refuses to retry fold into the backlog instead of spinning. The
//! backlog is bounded; gradients past the bound are shed (and counted).
//! Without faults — or with an all-zero fault plan — every key is always
//! "available" and the data path is identical to the healthy one.
//!
//! The loop runs on a `worker::Pipeline`, which states the schedule: with
//! `WorkerCtx::overlap` on, while iteration `i` computes, iteration `i+1` is
//! *staged* — its batch drawn, usage counted, cache probed, the pull of its
//! misses split and booked. What HET-KG adds:
//!
//! 1. the consume-time request is a sync's pull-if-newer, with the late
//!    misses and a rebuild's late fresh rows riding in it; when it syncs,
//!    the push in front of it holds every cached row in its hazard part —
//!    what the boundary push writes back;
//! 2. hits are copied from the cache at consume time, after the in-flight
//!    push's local updates and before the sync, so a batch with no late key
//!    reads nothing its request returns, and the request gates the next
//!    compute, whose hits come from the refreshed table;
//! 3. a rebuild iteration is staged like any other: the iteration before it
//!    prefetches the next window, selects its hot set and probes the
//!    rebuild's first batch against *that set*; the rows the table does not
//!    hold yet ride in the staged pull beside the misses, and eviction and
//!    insertion wait for consume time.
//!
//! The sequential path is the same code with nothing staged ahead, which is
//! also how an epoch's first iteration runs. The trainer disables overlap
//! entirely under non-inert fault plans.
//!
//! A unit of work is one iteration. The worker's `WorkerCtx` keeps the
//! epoch's books; HET-KG adds the stats only a cache has: its hits and
//! misses, the divergence measured at syncs, the staleness observed, and
//! the table's economy.

use crate::batch::{BatchResult, GradAccum};
use crate::worker::{
    retries_exhausted, Part, Pipeline, PushRow, StagedPull, WorkerCtx, WorkerEpochStats, WorkerLoop,
};
use hetkg_core::filter::{filter_hot_set, HotSet, HotSetSelector};
use hetkg_core::metrics::{CacheStats, TableEconomy};
use hetkg_core::policy::{subgraph_accesses, CachePolicy, PolicyKind};
use hetkg_core::prefetch::{MiniBatch, Prefetched, Prefetcher};
use hetkg_core::sync::{StalenessTracker, SyncConfig};
use hetkg_core::table::HotEmbeddingTable;
use hetkg_embed::negative::NegativeSampler;
use hetkg_kgraph::ParamKey;
use hetkg_ps::optimizer::energy;
use hetkg_ps::{PsScratch, RpcError};
use std::collections::HashMap;

/// Degraded mode: hard bound on distinct keys the deferred-push backlog may
/// hold. Gradients arriving once the backlog is full are shed (dropped and
/// counted) rather than growing memory without bound under a long brownout.
const BACKLOG_CAP: usize = 4096;

/// [`PushRow::slot`] of a row that comes out of the table's write-back
/// arena, rather than the gradient accumulator (this batch's gradient of a
/// row the table does not hold).
const FROM_TABLE: u32 = u32::MAX;

/// Where a push row's values are.
fn row_of<'a>(table: &'a HotEmbeddingTable, grads: &'a GradAccum, r: &PushRow) -> &'a [f32] {
    match r.slot {
        FROM_TABLE => table.pending_sum(r.key).expect("handed over"),
        slot => grads.row_at(slot),
    }
}

/// How an iteration consumes its staged batch: what
/// [`HetKgWorker::copy_hits`] and [`HetKgWorker::consume_time_request`] read,
/// which run inside [`Pipeline::consume`].
#[derive(Debug, Clone, Copy)]
struct Consuming {
    now: usize,
    /// A sync iteration (Alg. 3 lines 8–9).
    sync: bool,
    /// The batch is the first of a rebuilt table.
    rebuild: bool,
    /// A fault plan is attached.
    degraded: bool,
    /// The largest age a hit may be read at ([`HetKgWorker::staleness_bound`]).
    bound: usize,
    /// Rows homed on an unhealthy shard are not asked about: degraded mode,
    /// while staleness is still inside the degraded bound.
    skip_unhealthy: bool,
    /// Whether the sync is version-gated; off only in the tests'
    /// full-refresh reference.
    gated: bool,
}

/// Gradients deferred while their home shard was unhealthy, summed per key
/// with their energy — what the table holds per cached row, for any row —
/// and replayed the way a row is written back.
#[derive(Debug)]
struct Deferred {
    sum: Vec<f32>,
    energy: f32,
    grads: u32,
}

/// Test-only: a row as it was written back — the boundary pushes before it,
/// the key, its gradient count, and its energy and sum bit for bit.
#[cfg(test)]
type WrittenBackRow = (usize, ParamKey, u32, u32, Vec<u32>);

/// Test-only: where one iteration sat on the worker's timeline.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct IterationTrace {
    iteration: usize,
    /// Staged when it ran, nothing early, rather than behind the iteration
    /// before.
    unstaged: bool,
    /// What its compute waited for: the completion of the last pull it reads.
    waited_for: f64,
    /// The completion of its consume-time request, when its compute did not
    /// wait for it; 0 otherwise.
    left_behind: f64,
    compute_secs: f64,
    compute_end: f64,
}

/// Per-worker HET-KG training state (CPS or DPS, by the policy's kind).
pub struct HetKgWorker {
    ctx: WorkerCtx,
    policy: CachePolicy,
    sync: SyncConfig,
    table: HotEmbeddingTable,
    sampler: Prefetcher,
    negatives: NegativeSampler,
    /// DPS: the prefetched window — its batches, of which iteration
    /// `window_base + b` trains on batch `b`, and its per-key read
    /// statistics. Handed back to the prefetcher every `D` iterations, so its
    /// buffers are reused.
    window: Prefetched,
    window_base: usize,
    /// DPS: Algorithm 2 over `window.reads`, with its reusable buffers.
    selector: HotSetSelector,
    /// Global iteration counter (across epochs).
    iteration: usize,
    staleness: StalenessTracker,
    /// Hits and misses, weighted by use, this epoch.
    cache_stats: CacheStats,
    /// What the table held and cost, and how the pipeline split the staged
    /// miss pulls, this epoch.
    economy: TableEconomy,
    /// Largest cache-vs-global divergence seen at sync points this epoch.
    epoch_divergence: f64,
    /// Sum of per-key divergences across this epoch's sync events.
    epoch_div_sum: f64,
    /// Number of per-key divergence samples this epoch.
    epoch_div_samples: u64,
    /// Scratch: the version each conditional key of a consume-time request
    /// is held under.
    probe_held: Vec<u32>,
    /// The hot set the staged (or latest) rebuild selected, sorted, and the
    /// keys of it the table did not hold when it was selected, hottest first.
    selected: Vec<ParamKey>,
    fresh: Vec<ParamKey>,
    /// Scratch for the debug check that a row the shard declined to send is
    /// bit-equal to the cached copy.
    check_row: Vec<f32>,
    /// Test-only: synchronize the way the code did before versions existed
    /// (pull every cached row, every time), as the reference the
    /// differential tests hold the version gate against.
    #[cfg(test)]
    full_refresh_reference: bool,
    /// Test-only: push every gradient every iteration and hold nothing, as
    /// the code did before hot rows were written back — the reference the
    /// differential tests hold the write-back against.
    #[cfg(test)]
    write_through_reference: bool,
    /// Test-only: write held rows back in a window's boundary push and in no
    /// other, as the code did before the prefetched window was asked when a
    /// row is last read — the reference the differential tests hold the
    /// early write-back against.
    #[cfg(test)]
    boundary_write_back_reference: bool,
    /// Test-only: every row written back, when a test asks for the log, and
    /// where every iteration sat on the timeline.
    #[cfg(test)]
    written_back_log: Option<Vec<WrittenBackRow>>,
    #[cfg(test)]
    boundary_pushes: usize,
    #[cfg(test)]
    trace: Vec<IterationTrace>,
    /// Reusable draw buffers (CPS draws one batch per iteration into them).
    batch: MiniBatch,
    /// The staged batch — the next iteration's, staged while the current
    /// one computes, or this one's — its miss pull, and the push in front
    /// of it.
    pipeline: Pipeline,
    /// Whether the staged batch is the first of a rebuilt table: probed
    /// against `selected`, its pull carrying the `fresh` rows, the eviction
    /// and the insertions still to happen when it is consumed.
    staged_rebuild: bool,
    /// Slots of the staged batch's cache hits. Their *values* are read
    /// only at consume time, after the in-flight push updates the cache.
    staged_hits: Vec<u32>,
    /// Degraded mode: gradient pushes deferred while their home shard was
    /// down, replayed on recovery.
    backlog: HashMap<ParamKey, Deferred>,
}

impl HetKgWorker {
    /// Build from a context. The table capacity and split come from
    /// `policy.filter`; `sync` is the staleness bound `P`.
    pub fn new(
        ctx: WorkerCtx,
        policy: CachePolicy,
        sync: SyncConfig,
        negatives: NegativeSampler,
        seed: u64,
    ) -> Self {
        let cap = policy.filter.capacity;
        // Quota spillover (filter.rs) can shift the entity/relation split in
        // either direction, so each slab is sized at full capacity; the
        // filter bounds the *total* number of selected keys to `cap`.
        let table = HotEmbeddingTable::new(
            ctx.key_space,
            cap,
            cap,
            ctx.model.entity_dim(),
            ctx.model.relation_dim(),
            ctx.optimizer.state_width(),
        );
        let sampler = Prefetcher::new(
            ctx.batch_size,
            ctx.key_space,
            seed ^ (ctx.worker_id as u64).wrapping_mul(0x1234_5678_9ABC),
        );
        Self {
            ctx,
            policy,
            sync,
            table,
            sampler,
            negatives,
            window: Prefetched::default(),
            window_base: 0,
            selector: HotSetSelector::default(),
            iteration: 0,
            staleness: StalenessTracker::new(),
            cache_stats: CacheStats::new(),
            economy: TableEconomy::default(),
            epoch_divergence: 0.0,
            epoch_div_sum: 0.0,
            epoch_div_samples: 0,
            probe_held: Vec::new(),
            selected: Vec::new(),
            fresh: Vec::new(),
            check_row: Vec::new(),
            #[cfg(test)]
            full_refresh_reference: false,
            #[cfg(test)]
            write_through_reference: false,
            #[cfg(test)]
            boundary_write_back_reference: false,
            #[cfg(test)]
            written_back_log: None,
            #[cfg(test)]
            boundary_pushes: 0,
            #[cfg(test)]
            trace: Vec::new(),
            batch: MiniBatch::default(),
            pipeline: Pipeline::default(),
            staged_rebuild: false,
            staged_hits: Vec::new(),
            backlog: HashMap::new(),
        }
    }

    /// The cache table (exposed for tests and the harness's hit-ratio
    /// experiments).
    pub fn table(&self) -> &HotEmbeddingTable {
        &self.table
    }

    /// Largest cache staleness observed so far (must stay ≤ P; reads at a
    /// sync iteration precede that iteration's refresh).
    pub fn max_staleness(&self) -> usize {
        self.staleness.max_observed()
    }

    /// The largest age (iterations since it was last confirmed current) a
    /// cached row may be read at: `P` — a read at a sync iteration precedes
    /// that iteration's refresh, so the bound is inclusive — and, while a
    /// fault plan lets syncs skip unhealthy shards, eight sync periods.
    fn staleness_bound(&self, degraded: bool) -> usize {
        if degraded {
            self.sync.degraded_bound()
        } else {
            self.sync.period
        }
    }

    /// Selection for the table iteration `t` (re)builds (Alg. 3 lines 5–7,
    /// the half that reads no row): CPS from the whole subgraph's
    /// frequencies, DPS from the window prefetched here for iterations `t`
    /// onwards. Leaves the hot set in `selected`, sorted, and in `fresh`,
    /// hottest first, the keys of it the table does not hold — membership
    /// only changes when the rebuild is consumed, so this may run an
    /// iteration ahead of it. Keys already cached are not fetched again: hot
    /// sets overlap heavily between windows and retained rows stay within
    /// the staleness bound (the periodic sync refreshes them).
    fn select_for(&mut self, t: usize) {
        match self.policy.kind {
            PolicyKind::Cps => {
                let acc = subgraph_accesses(&self.ctx.subgraph, self.ctx.key_space);
                let hot = filter_hot_set(&acc, self.ctx.key_space, &self.policy.filter);
                self.note_selection(&hot);
            }
            PolicyKind::Dps => {
                self.prefetch_window(t);
                let mut selector = std::mem::take(&mut self.selector);
                let hot =
                    selector.select(&self.window.reads, self.ctx.key_space, &self.policy.filter);
                self.note_selection(hot);
                self.selector = selector;
            }
        }
    }

    fn note_selection(&mut self, hot: &HotSet) {
        self.selected.clear();
        self.selected.extend(hot.keys());
        self.selected.sort_unstable();
        let table = &self.table;
        self.fresh.clear();
        self.fresh
            .extend(hot.keys().filter(|&k| !table.contains(k)));
    }

    /// The consume-time half of a rebuild that reads no row: evict what fell
    /// out of the selection. The fresh rows arrive with the staged pull —
    /// metered: building the cache is not free — each with the version it is
    /// held under from now on.
    fn evict_unselected(&mut self) {
        let selected = &self.selected;
        self.table.retain(|k| selected.binary_search(&k).is_ok());
        self.economy.rebuilds += 1;
        self.economy.rows_held += selected.len() as u64;
        self.economy.capacity += self.policy.filter.capacity as u64;
        self.economy.fresh_rows += self.fresh.len() as u64;
    }

    /// The staged batch's consume-time PS request, one message per shard:
    /// its late misses (into the working set; all of its misses when nothing
    /// was pulled ahead), the late fresh rows of a rebuild (into the table,
    /// and into the working set when the batch reads them) and, at a sync
    /// iteration, the table's synchronization (Alg. 3 lines 8–9) as a
    /// pull-if-newer over every cached row. Lists every key it asks about in
    /// `keys`; returns, for the epoch's statistics, the largest and summed
    /// cache-vs-global divergence it observed and how many cached rows it
    /// covered.
    ///
    /// A fresh row is asked about with nothing held, so it always comes
    /// back, with its version; its bytes are construction's in this message
    /// as in the staged one. Three kinds of cached row send nothing or get
    /// nothing back. Rows this iteration's rebuild received moments ago are
    /// not even asked about,
    /// and rows whose version still matches cost 12 bytes asked and nothing
    /// returned; both count as zero-divergence samples, because that is
    /// what a full refresh would have measured on them. In degraded mode
    /// only — and not counted — rows homed on a down or browning-out shard
    /// are skipped: they keep their old version and keep ageing toward the
    /// degraded bound; once staleness reaches it everything is asked about
    /// and the client waits the outage out (or probes the breaker) in
    /// simulated time. A partial sync does not reset the staleness clock.
    ///
    /// Not gated (the tests' reference), a sync is what the code did before
    /// rows had versions: every cached row (of a healthy shard, in degraded
    /// mode) pulled plainly, whatever comes back overwriting the cache,
    /// changed or not, held under no version.
    fn consume_time_request(
        ctx: &mut WorkerCtx,
        table: &mut HotEmbeddingTable,
        pull: &StagedPull,
        keys: &mut Vec<ParamKey>,
        held: &mut Vec<u32>,
        check_row: &mut Vec<f32>,
        at: Consuming,
    ) -> (f64, f64, usize) {
        let (now, sync) = (at.now, at.sync);
        let client = &ctx.client;
        let asked = |k: ParamKey| !at.skip_unhealthy || client.shard_healthy(k);
        let (late, late_slots, late_fresh) = pull.late();
        keys.extend_from_slice(late);
        if sync && !at.gated {
            // Plain keys lead a request.
            keys.extend(table.iter_keys().filter(|&k| asked(k)));
        }
        let fresh = keys.len()..keys.len() + late_fresh.len();
        let mut covered = fresh.start - late.len();
        keys.extend_from_slice(late_fresh);
        held.clear();
        if sync {
            covered += late_fresh.iter().filter(|&&k| asked(k)).count();
        }
        if sync && at.gated {
            for (k, version, confirmed) in table.iter_held() {
                if !asked(k) {
                    continue;
                }
                covered += 1;
                if confirmed != now {
                    keys.push(k);
                    held.push(version);
                }
            }
        }
        let (keys, held) = (&*keys, &*held);
        let (ws, layout) = (&mut ctx.ws, ctx.scratch.plan.layout());
        let mut max_div = 0.0f64;
        let mut div_sum = 0.0f64;
        client
            .try_pull_newer_with(keys, fresh.len(), held, &mut ctx.ps, |i, version, row| {
                if let Some(&slot) = late_slots.get(i) {
                    ws.row_mut(slot).copy_from_slice(row);
                } else if fresh.contains(&i) {
                    table
                        .insert_at(keys[i], row, version, now)
                        .expect("capacity covers the hot set");
                    // A hit of the batch that was not there to copy.
                    if let Some(slot) = layout.slot_of(keys[i]) {
                        ws.row_mut(slot).copy_from_slice(row);
                    }
                } else {
                    let cached = table
                        .get(keys[i])
                        .expect("only cached keys are asked about");
                    let d = l2_distance(cached, row);
                    max_div = max_div.max(d);
                    div_sum += d;
                    table.refresh_at(keys[i], row, version, now);
                }
            })
            .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
        // Everything asked about under a version and not returned still
        // matches.
        // (Checked in debug builds against the shards' rows, which a
        // catch-up brings into the client's store over any transport.)
        let asked = &keys[fresh.end..];
        if cfg!(debug_assertions) {
            let caught_up = client.catch_up(asked, &mut ctx.ps);
            caught_up.unwrap_or_else(|e| retries_exhausted("catch_up", e));
        }
        for (&k, &held) in asked.iter().zip(held) {
            if cfg!(debug_assertions) && table.held_version(k) == Some(held) {
                // The gate is sound: what the shard declined to send is,
                // bit for bit, what the cache already holds.
                let cached = table.get(k).expect("only cached keys are asked about");
                check_row.resize(cached.len(), 0.0);
                client.store().pull(k, check_row);
                debug_assert!(
                    cached
                        .iter()
                        .zip(check_row.iter())
                        .all(|(c, g)| c.to_bits() == g.to_bits()),
                    "{k} kept version {held} but its bits moved"
                );
            }
            table.confirm(k, now);
        }
        (max_div, div_sum, covered)
    }

    /// Algorithm 1: prefetch the `D` batches of iterations `t` onwards into
    /// `window`. Every batch of the window it replaces has been compiled.
    fn prefetch_window(&mut self, t: usize) {
        self.sampler.prefetch_into(
            &self.ctx.subgraph,
            &mut self.negatives,
            self.policy.prefetch_depth,
            &mut self.window,
        );
        self.window_base = t;
    }

    /// DPS: which batch of the window iteration `t` trains on; `None` when
    /// the window does not reach it (or there is no window: CPS).
    fn window_batch(&self, t: usize) -> Option<usize> {
        let b = t.checked_sub(self.window_base)?;
        (self.policy.kind == PolicyKind::Dps && b < self.window.batches.len()).then_some(b)
    }

    /// Fold `grads` gradients of `k`, summed in `sum` with energy `energy`,
    /// into the deferred backlog. Existing entries accumulate regardless of
    /// the bound; a *new* key is admitted only while the backlog holds fewer
    /// than [`BACKLOG_CAP`] keys. Returns `true` when the gradients were
    /// kept, `false` when they were shed.
    fn defer_into(
        backlog: &mut HashMap<ParamKey, Deferred>,
        k: ParamKey,
        sum: &[f32],
        energy: f32,
        grads: u32,
    ) -> bool {
        if let Some(acc) = backlog.get_mut(&k) {
            for (a, b) in acc.sum.iter_mut().zip(sum) {
                *a += b;
            }
            acc.energy += energy;
            acc.grads += grads;
            true
        } else if backlog.len() >= BACKLOG_CAP {
            false
        } else {
            let sum = sum.to_vec();
            backlog.insert(k, Deferred { sum, energy, grads });
            true
        }
    }

    /// Replay backlogged gradient pushes whose home shard has recovered —
    /// reachable *and* not behind a tripped breaker — the way hot rows are
    /// written back: an entry that collected one gradient as that gradient,
    /// one that collected several as their sum with its energy. No-op on
    /// the healthy path (backlog empty) and while the shards are still down
    /// or browning out. Keys are flushed in sorted order so the replay is
    /// deterministic regardless of `HashMap` iteration order. The replay,
    /// and any wait it met, is posted to the comm lane in turn.
    fn flush_backlog_if_ready(&mut self) {
        if self.backlog.is_empty() {
            return;
        }
        let mut ready: Vec<ParamKey> = self
            .backlog
            .keys()
            .copied()
            .filter(|&k| self.ctx.client.shard_healthy(k))
            .collect();
        if ready.is_empty() {
            return;
        }
        ready.sort_unstable_by_key(|k| (self.backlog[k].grads > 1, k.0));
        let rows: Vec<Deferred> = ready
            .iter()
            .map(|k| self.backlog.remove(k).expect("key was just listed"))
            .collect();
        let energies: Vec<f32> = rows
            .iter()
            .filter(|d| d.grads > 1)
            .map(|d| d.energy)
            .collect();
        let before = self.ctx.meter.snapshot();
        match self.ctx.client.try_push_coalesced_rows(
            &ready,
            &energies,
            |i| &rows[i].sum,
            self.ctx.optimizer.as_ref(),
            &mut self.ctx.ps,
        ) {
            Ok(()) => {
                if let Some(f) = self.ctx.client.faults() {
                    f.count(|s| s.backlog_flushes += 1);
                }
            }
            Err(RpcError::Overloaded { .. }) => {
                // The replay raced a fresh overload verdict (budget dry or
                // breaker re-tripped mid-flush): put the gradients back and
                // retry next iteration. Re-insertion cannot overflow the
                // bound — these keys held slots moments ago.
                for (k, d) in ready.into_iter().zip(rows) {
                    self.backlog.insert(k, d);
                }
            }
            Err(other) => retries_exhausted("backlog replay", other),
        }
        let replay = self.ctx.meter.snapshot().since(before);
        self.ctx.post_comm(replay, 0.0);
    }

    /// [`Self::defer_into`], folding the key's pending error-feedback
    /// residual into kept gradients: a deferred push must carry it too —
    /// otherwise the compression error would sit client-side until the key
    /// happens to be pushed again, stretching the staleness envelope. Shed
    /// keys keep their residual.
    fn defer_with_residual(
        backlog: &mut HashMap<ParamKey, Deferred>,
        ps: &mut PsScratch,
        k: ParamKey,
        sum: &[f32],
        energy: f32,
        grads: u32,
    ) -> bool {
        let kept = Self::defer_into(backlog, k, sum, energy, grads);
        if kept {
            if let Some(e) = backlog.get_mut(&k) {
                ps.fold_residual(k, &mut e.sum);
            }
        }
        kept
    }

    /// The window's batches that train between this iteration's push and the
    /// window's boundary push, the boundary's own included — what a held row
    /// must sit out to be worth writing back now. `remaining` iterations of
    /// the epoch follow this one, at least one. `None` when no prefetched
    /// window says (CPS, or a window that does not reach that far): what
    /// staging happens to have drawn is not asked, the sequential schedule
    /// has not drawn it.
    fn batches_to_boundary(&self, remaining: usize) -> Option<std::ops::Range<usize>> {
        let first = self.iteration + 1;
        let mut last = first;
        while last - self.iteration < remaining && !self.ends_a_window(last) {
            last += 1;
        }
        Some(self.window_batch(first)?..self.window_batch(last)? + 1)
    }

    /// Whether iteration `t`'s push is the last before the table's next sync
    /// or rebuild.
    fn ends_a_window(&self, t: usize) -> bool {
        self.policy.needs_construction(t + 1) || self.sync.is_sync_iteration(t + 1)
    }

    /// The update step (Alg. 3 lines 17–19, as built). Every gradient of a
    /// cached row is applied to the cached copy and held in the table; the
    /// gradients of the other rows are pushed. Held rows ride in the same
    /// push when they have collected the last gradient their window gives
    /// them: all of them in a boundary push — the last before a sync, a
    /// rebuild or, with no iteration `remaining`, the epoch's end — and
    /// before it, under DPS, the rows no batch up to the boundary reads,
    /// which the prefetched window knows. Rows that collected one gradient
    /// go as that gradient, among the plain rows, and the rows that
    /// collected several behind them, each with its energy.
    ///
    /// `degraded`: a fault plan is attached. Rows homed on a down or
    /// browning-out shard are deferred into the local backlog, with their
    /// energy, instead of blocking the iteration, and a push the overload
    /// machinery refuses — retry budget dry, breaker tripped mid-flight —
    /// folds into the backlog the same way. With every shard up (and no
    /// breaker open) this sends exactly what the healthy path does.
    fn push_update(&mut self, remaining: usize, degraded: bool, compute_end: f64) {
        let now = self.iteration;
        let boundary = remaining == 0 || self.ends_a_window(now);
        #[cfg(test)]
        let (hold, early) = (
            !self.write_through_reference,
            !self.boundary_write_back_reference,
        );
        #[cfg(not(test))]
        let (hold, early) = (true, true);
        let quiet = if boundary || !early {
            None
        } else {
            self.batches_to_boundary(remaining)
        };
        // The batch of the window in flight, while the window covers it.
        let in_flight = self.window_batch(now);
        let (grads, table) = (&self.ctx.grads, &mut self.table);
        let (sampler, window) = (&self.sampler, &self.window);
        let reads = |k: ParamKey| sampler.reads_of(window, k);
        let optimizer = self.ctx.optimizer.as_ref();
        let up = &mut self.pipeline.rows;
        for &slot in grads.touched() {
            let (key, grad) = (grads.key_at(slot), grads.row_at(slot));
            let held = if hold {
                table.apply_and_hold(key, grad, optimizer, now)
            } else {
                table.apply_grad(key, grad, optimizer);
                false
            };
            if !held {
                up.push(PushRow::grad(key, slot));
                continue;
            }
            // The prediction an early write-back acts on, checked where it
            // comes true: the window knew this batch reads the row, so a
            // row it says no batch reads again collects nothing more.
            debug_assert!(
                in_flight.is_none_or(|b| reads(key).is_some_and(|r| r.read_in(b..b + 1))),
                "{key} collected a gradient from a batch its window does not list as reading it"
            );
        }
        let economy = &mut self.economy;
        let period = self.sync.period;
        #[cfg(test)]
        let (log, boundaries) = (&mut self.written_back_log, self.boundary_pushes);
        table.hand_over_where(|p| {
            let leaves = boundary
                || quiet
                    .as_ref()
                    .is_some_and(|q| reads(p.key).is_some_and(|r| !r.read_in(q.clone())));
            if !leaves {
                return false;
            }
            // The write side of §IV-C: no gradient waits out a window.
            debug_assert!(
                now - p.since < period,
                "{} held a gradient for {} iterations (P = {period})",
                p.key,
                now - p.since
            );
            economy.written_back_rows += 1;
            economy.written_back_early += u64::from(!boundary);
            economy.coalesced_grads += u64::from(p.grads);
            if p.grads > 1 {
                economy.written_back_energy += f64::from(p.energy);
                economy.written_back_sum_sq += f64::from(energy(p.sum));
            }
            #[cfg(test)]
            if let Some(log) = log.as_mut() {
                log.push((
                    boundaries,
                    p.key,
                    p.grads,
                    p.energy.to_bits(),
                    p.sum.iter().map(|v| v.to_bits()).collect(),
                ));
            }
            up.push(PushRow {
                key: p.key,
                slot: FROM_TABLE,
                grads: p.grads,
                energy: p.energy,
            });
            true
        });
        #[cfg(test)]
        {
            self.boundary_pushes += usize::from(boundary);
        }
        // The push's order (`Pipeline::push`), so degraded mode defers in it.
        up.sort_unstable_by_key(|r| (r.grads > 1, r.key));
        let (ctx, backlog, table) = (&mut self.ctx, &mut self.backlog, &self.table);
        let (mut deferred, mut shed) = (0u64, 0u64);
        let mut defer = |r: &PushRow, row: &[f32], ps: &mut PsScratch| {
            let e = match r.slot {
                FROM_TABLE => r.energy,
                _ => energy(row),
            };
            if Self::defer_with_residual(backlog, ps, r.key, row, e, r.grads) {
                deferred += 1;
            } else {
                shed += 1;
            }
        };
        if degraded {
            up.retain(|r| {
                let healthy = ctx.client.shard_healthy(r.key);
                if !healthy {
                    defer(r, row_of(table, &ctx.grads, r), &mut ctx.ps);
                }
                healthy
            });
        }
        // With a batch staged behind this one, the rows its consume-time
        // request reads leave first: its late keys and, when it syncs,
        // every cached row.
        let syncs = self.sync.is_sync_iteration(now + 1);
        let carry = |ctx: &mut WorkerCtx, part: Part<'_>| {
            let grads = &ctx.grads;
            let pushed = ctx.client.try_push_coalesced_rows(
                part.keys,
                part.energies,
                |i| row_of(table, grads, &part.rows[i]),
                ctx.optimizer.as_ref(),
                &mut ctx.ps,
            );
            match pushed {
                Ok(()) => {}
                Err(RpcError::Overloaded { .. }) if degraded => {
                    // The shard is drowning and the retry budget refused
                    // the push: brown out instead of insisting. The part
                    // folds into the backlog and replays once the breaker
                    // closes or the flash crowd passes.
                    for r in part.rows {
                        defer(r, row_of(table, &ctx.grads, r), &mut ctx.ps);
                    }
                }
                Err(other) => retries_exhausted("push_batch", other),
            }
        };
        let also_read = |k| syncs && table.contains(k);
        self.pipeline.push(ctx, also_read, carry, compute_end);
        if let Some(f) = self.ctx.client.faults() {
            f.count(|s| {
                s.deferred_pushes += deferred;
                s.shed_pushes += shed;
            });
        }
        self.table.clear_handed_over();
    }

    /// Stage iteration `t`'s batch: draw it, probe the cache, and stage its
    /// miss pull — with `pull_ahead`, while the previous iteration is still
    /// in flight; without, every miss waits for [`Self::consume_staged`],
    /// which is the sequential schedule. The probe is valid until then:
    /// gradient application updates rows in place, a sync refreshes them in
    /// place, and only a rebuild inserts or evicts. When `t` rebuilds the
    /// table (Alg. 3 lines 5–7) the hot set is selected here — under DPS
    /// from the next window, prefetched here: the prefetcher's draws are its
    /// own and the batch in flight is compiled — the batch is probed against
    /// *that set*, and the rows of it the table does not hold yet ride in
    /// the staged pull, split like the misses; evicting and inserting wait
    /// for the batch to be consumed, after the in-flight push.
    fn stage(&mut self, t: usize, pull_ahead: bool) {
        let rebuild = self.policy.needs_construction(t);
        if rebuild {
            self.select_for(t);
        } else {
            self.fresh.clear();
        }
        let batch = match self.policy.kind {
            PolicyKind::Dps => {
                // The iteration counter runs on across epochs and every
                // `D`-th iteration prefetches `D` batches: the window the
                // table was selected from reaches the table's next rebuild.
                let b = self
                    .window_batch(t)
                    .expect("a prefetched window covers every iteration up to the next rebuild");
                &self.window.batches[b]
            }
            PolicyKind::Cps => {
                self.sampler
                    .draw_into(&self.ctx.subgraph, &mut self.negatives, &mut self.batch);
                &self.batch
            }
        };
        self.staged_hits.clear();
        let (table, selected, hits) = (&self.table, &self.selected, &mut self.staged_hits);
        let stats = &mut self.cache_stats;
        // A key used `u` times in the batch counts `u` hits/misses — the
        // paper's "embedding usage" statistic (Fig. 2, Table VI). Pull
        // traffic is still deduplicated per batch. They are counted here: a
        // batch is consumed in the epoch it is staged in.
        let missed = |slot, k: ParamKey, uses| {
            let cached = if rebuild {
                selected.binary_search(&k).is_ok()
            } else {
                table.contains(k)
            };
            if cached {
                hits.push(slot);
                stats.hits += u64::from(uses);
            } else {
                stats.misses += u64::from(uses);
            }
            !cached
        };
        // A rebuild's split is not counted: within a window a late miss
        // means capacity bound, which is what `staged_late` is read for;
        // across two it is a key the old window's last batch and the new
        // one's first share, and there always are some.
        let late_before = self.economy.staged_late;
        let economy = (!rebuild).then_some(&mut self.economy);
        let fresh = self.fresh.iter().copied();
        self.pipeline
            .stage(&mut self.ctx, batch, pull_ahead, missed, fresh, economy);
        // DPS holds every key two batches of the window read unless the
        // selection filled the table, and the batch in flight is of this
        // window: with room left, none of its keys should be a staged miss.
        if self.policy.kind == PolicyKind::Dps && self.selected.len() < self.policy.filter.capacity
        {
            self.economy.staged_late_with_room += self.economy.staged_late - late_before;
        }
        self.staged_rebuild = rebuild;
    }

    /// Make the staged batch the one in flight. A staged rebuild happens
    /// now: rows that fell out of the selection are evicted, the fresh ones
    /// arrive with the pull. Hits are copied ([`Self::copy_hits`]) before
    /// the consume-time request, which at a sync iteration (never iteration
    /// 0, whose cache was constructed from fresh pulls moments ago) carries
    /// the table's synchronization with the late keys: one round trip per
    /// server, as a real KVStore client batches. Returns when the batch's
    /// compute may start ([`Pipeline::consume`]).
    fn consume_staged(&mut self, degraded: bool) -> f64 {
        let now = self.iteration;
        let staleness_now = self.staleness.observe(now);
        let rebuild = std::mem::take(&mut self.staged_rebuild);
        if rebuild {
            self.evict_unselected();
        }
        #[cfg(test)]
        let gated = !self.full_refresh_reference;
        #[cfg(not(test))]
        let gated = true;
        let at = Consuming {
            now,
            sync: self.sync.is_sync_iteration(now),
            rebuild,
            degraded,
            bound: self.staleness_bound(degraded),
            skip_unhealthy: degraded && staleness_now < self.sync.degraded_bound(),
            gated,
        };
        let (hits, held, check_row) =
            (&self.staged_hits, &mut self.probe_held, &mut self.check_row);
        let mut seen = (0.0, 0.0, 0);
        let ready = self.pipeline.consume(
            &mut self.ctx,
            &mut self.table,
            |table, k, version, row| {
                table
                    .insert_at(k, row, version, now)
                    .expect("capacity covers the hot set");
            },
            |ctx, table, pull, keys| {
                Self::copy_hits(ctx, table, hits, at);
                seen = Self::consume_time_request(ctx, table, pull, keys, held, check_row, at);
            },
        );
        if at.sync {
            // Divergences are seen on the rows that came back; every row
            // covered, returned or not, is a sample. Only a sync that
            // covered the whole table resets the staleness clock.
            let (max_div, div_sum, covered) = seen;
            self.epoch_divergence = self.epoch_divergence.max(max_div);
            self.epoch_div_sum += div_sum;
            self.epoch_div_samples += covered as u64;
            if covered == self.table.len() {
                self.staleness.record_sync(now);
            }
        }
        ready
    }

    /// Copy the staged batch's cache hits (`hits`, its plan slots) into its
    /// working set — after the previous push applied its local updates,
    /// before this iteration's sync, so a hit is at most one sync period
    /// stale, which is exactly the bounded-staleness contract — and count
    /// the hits degraded mode serves stale.
    fn copy_hits(ctx: &mut WorkerCtx, table: &HotEmbeddingTable, hits: &[u32], at: Consuming) {
        let (plan, client) = (&ctx.scratch.plan, &ctx.client);
        let mut degraded_uses = 0u64;
        let mut brownout_uses = 0u64;
        for &slot in hits {
            let k = plan.keys()[slot as usize];
            let Some(row) = table.get(k) else {
                // A fresh row the in-flight batch wrote: it comes with the
                // consume-time request, which copies it.
                debug_assert!(at.rebuild, "staged hits stay cached until consumed");
                continue;
            };
            debug_assert_fresh(table, k, at.now, at.bound);
            ctx.ws.row_mut(slot).copy_from_slice(row);
            if at.degraded {
                let uses = u64::from(plan.uses()[slot as usize]);
                if !client.shard_available(k) {
                    // Served stale from the cache while the home shard is
                    // down — the hit the baselines don't have.
                    degraded_uses += uses;
                } else if client.breaker_tripped(client.shard_of(k)) {
                    // Served stale because the home shard's breaker is
                    // open: the brownout hit, counted separately from
                    // outage hits.
                    brownout_uses += uses;
                }
            }
        }
        if let Some(f) = client.faults() {
            f.count(|s| {
                s.degraded_hits += degraded_uses;
                s.brownout_stale_serves += brownout_uses;
            });
        }
    }

    /// Single sequential iteration (no staging, everything written back) —
    /// the unit tests' probe.
    #[cfg(test)]
    fn one_iteration(&mut self) -> BatchResult {
        self.one_iteration_inner(0)
    }

    /// `remaining`: how many iterations of this epoch follow. While some do,
    /// the next batch may be staged behind this one and held gradients may
    /// wait for a later push.
    fn one_iteration_inner(&mut self, remaining: usize) -> BatchResult {
        let degraded = self.ctx.client.faults().is_some();
        if degraded {
            self.flush_backlog_if_ready();
        }

        // Nothing was staged behind the previous iteration (an epoch's
        // first, or overlap off): stage now, nothing early.
        let unstaged = !self.pipeline.is_staged();
        if unstaged {
            self.stage(self.iteration, false);
        }
        let pull_end = self.consume_staged(degraded);

        // Stage the next iteration *before* computing this one, so its
        // early pull lands on the comm lane while this compute runs.
        if remaining > 0 && self.ctx.overlap {
            self.stage(self.iteration + 1, true);
        }

        // --- Compute ---
        let result = self.ctx.compute();
        let compute_end = self.ctx.post_compute(result.work_units, pull_end);
        #[cfg(test)]
        self.trace.push(IterationTrace {
            iteration: self.iteration,
            unstaged,
            waited_for: pull_end,
            left_behind: self.pipeline.refreshed_end(),
            compute_secs: self.ctx.cost.compute_time(result.work_units),
            compute_end,
        });

        // --- Update (Alg. 3 17–19): cached rows locally, the rest pushed,
        // and with them the held rows whose window gives them nothing more.
        self.push_update(remaining, degraded, compute_end);

        self.iteration += 1;
        result
    }
}

/// §IV-C at the point of use: a cached row read at iteration `now` was last
/// confirmed current at most `bound` iterations ago.
#[inline]
fn debug_assert_fresh(table: &HotEmbeddingTable, k: ParamKey, now: usize, bound: usize) {
    debug_assert!(
        table.age(k, now) <= Some(bound),
        "§IV-C: {k} read {:?} iterations after it was last current (bound {bound})",
        table.age(k, now)
    );
}

/// L2 distance between a cached row and the server's, accumulated in `f64`.
fn l2_distance(cached: &[f32], global: &[f32]) -> f64 {
    let d2: f64 = cached
        .iter()
        .zip(global)
        .map(|(&c, &g)| ((c - g) as f64).powi(2))
        .sum();
    d2.sqrt()
}

impl WorkerLoop for HetKgWorker {
    fn ctx(&mut self) -> &mut WorkerCtx {
        &mut self.ctx
    }

    fn unit(&mut self) -> Option<BatchResult> {
        // The last iteration never stages: staging the next epoch's
        // first batch would shift its pull traffic into this epoch. And it
        // writes back what the table holds: an epoch ends with the server
        // owed nothing.
        let left = self.ctx.iterations_left()?;
        Some(self.one_iteration_inner(left))
    }

    fn begin_system_epoch(&mut self, _epoch: usize) {
        self.cache_stats = CacheStats::default();
        self.economy = TableEconomy::default();
        self.epoch_divergence = 0.0;
        self.epoch_div_sum = 0.0;
        self.epoch_div_samples = 0;
    }

    fn system_stats(&self, stats: &mut WorkerEpochStats) {
        stats.cache = self.cache_stats;
        stats.max_divergence = self.epoch_divergence;
        stats.mean_divergence = if self.epoch_div_samples == 0 {
            0.0
        } else {
            self.epoch_div_sum / self.epoch_div_samples as f64
        };
        stats.max_staleness = self.staleness.max_observed();
        stats.table = self.economy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::assert_same_bytes_more_messages;
    use hetkg_embed::init::Init;
    use hetkg_embed::loss::LossKind;
    use hetkg_embed::negative::{NegConfig, NegStrategy};
    use hetkg_embed::ModelKind;
    use hetkg_kgraph::generator::SyntheticKg;
    use hetkg_netsim::{
        ClusterTopology, CostModel, FaultInjector, FaultPlan, OverloadWindow, TrafficMeter,
    };
    use hetkg_ps::optimizer::AdaGrad;
    use hetkg_ps::{KvStore, OverloadControl, PsClient, ShardRouter};
    use std::sync::Arc;

    fn build(policy_kind: PolicyKind, capacity: usize) -> HetKgWorker {
        build_inner(policy_kind, capacity, None, None)
    }

    fn build_with_faults(
        policy_kind: PolicyKind,
        capacity: usize,
        plan: FaultPlan,
        cost: CostModel,
    ) -> HetKgWorker {
        build_inner(policy_kind, capacity, Some((plan, cost)), None)
    }

    fn build_inner(
        policy_kind: PolicyKind,
        capacity: usize,
        faults: Option<(FaultPlan, CostModel)>,
        overload: Option<Arc<OverloadControl>>,
    ) -> HetKgWorker {
        let g = SyntheticKg {
            num_entities: 80,
            num_relations: 6,
            num_triples: 400,
            ..Default::default()
        }
        .build(5);
        let ks = g.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = Arc::new(KvStore::new(
            router,
            8,
            8,
            1,
            Init::Uniform { bound: 0.2 },
            1,
        ));
        let meter = Arc::new(TrafficMeter::new());
        let mut client = PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone());
        if let Some((plan, cost)) = faults {
            client = client.with_faults(Arc::new(FaultInjector::new(plan, cost, 0)));
        }
        if let Some(ctl) = overload {
            client = client.with_overload(ctl);
        }
        let ctx = WorkerCtx::new(
            0,
            g.triples().to_vec(),
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(8).into(),
            LossKind::Logistic,
            Arc::new(AdaGrad::new(0.1)),
            32,
        );
        let negatives = NegativeSampler::new(
            80,
            NegConfig {
                per_positive: 4,
                strategy: NegStrategy::Independent,
            },
            9,
        );
        let policy = CachePolicy {
            kind: policy_kind,
            filter: hetkg_core::filter::FilterConfig::paper_default(capacity),
            prefetch_depth: 4,
        };
        HetKgWorker::new(ctx, policy, SyncConfig::new(4), negatives, 1)
    }

    /// Rebuild `w`'s table to hold `hot`, now, outside any iteration: the
    /// fresh rows in one construction pull.
    fn precache(w: &mut HetKgWorker, hot: &HotSet) {
        w.note_selection(hot);
        let (fresh, nothing) = (w.fresh.iter().copied(), MiniBatch::default());
        w.pipeline
            .stage(&mut w.ctx, &nothing, false, |_, _, _| false, fresh, None);
        w.evict_unselected();
        let now = w.iteration;
        let insert = |table: &mut HotEmbeddingTable, k, version, row: &[f32]| {
            table.insert_at(k, row, version, now).unwrap();
        };
        w.pipeline
            .consume(&mut w.ctx, &mut w.table, insert, |_, _, _, _| {});
    }

    #[test]
    fn cps_constructs_once_and_hits() {
        let mut w = build(PolicyKind::Cps, 30);
        let stats = w.run_epoch(0);
        assert!(stats.cache.hits > 0, "cache must serve hits");
        assert!(!w.table().is_empty());
        let hit_ratio = stats.cache.hit_ratio();
        assert!(hit_ratio > 0.1, "hit ratio {hit_ratio}");
    }

    #[test]
    fn dps_reconstructs_and_hits_more_than_tiny_cps() {
        let mut cps = build(PolicyKind::Cps, 30);
        let mut dps = build(PolicyKind::Dps, 30);
        let s_cps = cps.run_epoch(0);
        let s_dps = dps.run_epoch(0);
        // DPS caches exactly what the prefetched batches use; its hit ratio
        // should be at least CPS's (usually higher).
        assert!(
            s_dps.cache.hit_ratio() + 0.02 >= s_cps.cache.hit_ratio(),
            "dps {} vs cps {}",
            s_dps.cache.hit_ratio(),
            s_cps.cache.hit_ratio()
        );
    }

    #[test]
    fn staleness_stays_bounded() {
        let mut w = build(PolicyKind::Cps, 30);
        for e in 0..3 {
            w.run_epoch(e);
        }
        // Cached reads at a sync iteration happen just before the refresh
        // lands, so the bound is inclusive: staleness ≤ P.
        assert!(
            w.max_staleness() <= 4,
            "staleness {} exceeded bound 4",
            w.max_staleness()
        );
    }

    #[test]
    fn cached_training_communicates_less_than_uncached() {
        // The core claim of the paper, at unit-test scale: same workload,
        // HET-KG pulls less than DGL-KE.
        use crate::systems::dglke::DglKeWorker;
        let mut het = build(PolicyKind::Cps, 60);
        let het_stats = het.run_epoch(0);

        // Build an equivalent DGL-KE worker over the same graph.
        let g = SyntheticKg {
            num_entities: 80,
            num_relations: 6,
            num_triples: 400,
            ..Default::default()
        }
        .build(5);
        let ks = g.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = Arc::new(KvStore::new(
            router,
            8,
            8,
            1,
            Init::Uniform { bound: 0.2 },
            1,
        ));
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone());
        let ctx = WorkerCtx::new(
            0,
            g.triples().to_vec(),
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(8).into(),
            LossKind::Logistic,
            Arc::new(AdaGrad::new(0.1)),
            32,
        );
        let negatives = NegativeSampler::new(
            80,
            NegConfig {
                per_positive: 4,
                strategy: NegStrategy::Independent,
            },
            9,
        );
        let mut dgl = DglKeWorker::new(ctx, negatives, 1);
        let dgl_stats = dgl.run_epoch(0);

        assert!(
            het_stats.traffic.total_bytes() < dgl_stats.traffic.total_bytes(),
            "HET-KG {} must move fewer bytes than DGL-KE {}",
            het_stats.traffic.total_bytes(),
            dgl_stats.traffic.total_bytes()
        );
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let mut w = build(PolicyKind::Dps, 40);
        let first = w.run_epoch(0);
        let mut last = first;
        for e in 1..8 {
            last = w.run_epoch(e);
        }
        assert!(
            last.loss_sum / (last.loss_terms as f64) < first.loss_sum / (first.loss_terms as f64)
        );
    }

    #[test]
    fn iteration_zero_does_not_resync_the_fresh_cache() {
        // Regression for the iteration-0 double sync: the sync path records
        // one divergence sample per cached key it refreshes, so a sync
        // firing at iteration 0 — right after CPS construction filled the
        // cache — would leave samples behind. It must not.
        let mut w = build(PolicyKind::Cps, 200);
        w.one_iteration();
        assert_eq!(w.iteration, 1);
        assert!(!w.table().is_empty(), "construction must have run");
        assert_eq!(
            w.epoch_div_samples, 0,
            "the sync path ran at iteration 0, re-pulling the fresh cache"
        );
        // The periodic sync (P = 4 in `build`) still fires at iteration 4.
        for _ in 0..4 {
            w.one_iteration();
        }
        assert!(
            w.epoch_div_samples > 0,
            "periodic sync must still fire at iteration P"
        );
    }

    /// A CPS worker standing at its first sync point (iteration `P`), with
    /// every cached key's global row set to the cached value.
    fn in_sync_at_the_sync_point() -> (HetKgWorker, Vec<ParamKey>) {
        let mut w = build(PolicyKind::Cps, 200);
        for _ in 0..4 {
            w.one_iteration();
        }
        assert!(w.sync.is_sync_iteration(w.iteration));
        assert_eq!(w.epoch_div_samples, 0, "no sync has run yet");
        let keys: Vec<ParamKey> = w.table.iter_keys().collect();
        assert!(!keys.is_empty());
        for &k in &keys {
            w.ctx.client.store().store(k, w.table.get(k).unwrap());
        }
        (w, keys)
    }

    #[test]
    fn sync_measures_divergence_before_refreshing_the_cache() {
        let (mut w, keys) = in_sync_at_the_sync_point();
        // One global row moves on by distance 5 (a 3-4-5 step).
        let store = w.ctx.client.store().clone();
        let mut moved = w.table.get(keys[0]).unwrap().to_vec();
        moved[0] += 3.0;
        moved[1] += 4.0;
        store.store(keys[0], &moved);
        w.stage(w.iteration, false);
        w.consume_staged(false);
        assert_eq!(w.epoch_div_samples, keys.len() as u64);
        assert!((w.epoch_divergence - 5.0).abs() < 1e-5);
        assert!((w.epoch_div_sum - 5.0).abs() < 1e-5);
        // And the rows are now the server's.
        let mut global = [0.0f32; 8];
        for &k in &keys {
            store.pull(k, &mut global);
            assert_eq!(w.table.get(k).unwrap(), global);
        }
    }

    #[test]
    fn in_sync_cache_has_zero_divergence() {
        let (mut w, keys) = in_sync_at_the_sync_point();
        w.stage(w.iteration, false);
        w.consume_staged(false);
        assert_eq!(w.epoch_div_samples, keys.len() as u64);
        assert_eq!(w.epoch_divergence, 0.0);
    }

    #[test]
    fn zero_capacity_cache_degenerates_to_dglke() {
        let mut w = build(PolicyKind::Cps, 0);
        let stats = w.run_epoch(0);
        assert_eq!(stats.cache.hits, 0);
        assert!(stats.loss_terms > 0);
    }

    #[test]
    fn attached_zero_fault_plan_is_byte_identical() {
        // The degraded-mode code paths must be inert when every shard is
        // always up: same traffic, same losses, no counters.
        let mut plain = build(PolicyKind::Cps, 30);
        let mut faulty = build_with_faults(
            PolicyKind::Cps,
            30,
            FaultPlan::default(),
            CostModel::gigabit(),
        );
        for e in 0..3 {
            let a = plain.run_epoch(e);
            let b = faulty.run_epoch(e);
            assert_eq!(a.traffic, b.traffic, "epoch {e} traffic diverged");
            assert_eq!(
                a.loss_sum.to_bits(),
                b.loss_sum.to_bits(),
                "epoch {e} loss diverged"
            );
            assert_eq!(a.cache.hits, b.cache.hits);
            assert_eq!(a.cache.misses, b.cache.misses);
        }
        let stats = faulty.ctx.client.faults().unwrap().stats();
        assert_eq!(stats.total_faults(), 0);
        assert_eq!(stats.degraded_hits, 0);
        assert_eq!(stats.deferred_pushes, 0);
        assert_eq!(stats.backlog_flushes, 0);
    }

    #[test]
    fn degraded_mode_buffers_through_shard_outage() {
        // Cost model where each remote message costs 1 simulated second and
        // a training iteration's compute costs 1.92 s (the forward pass is
        // 160 scored triples × 24 units at 4000 units/s, the backward pass
        // as much again), so the outage window below spans a few
        // iterations deterministically.
        let cost = CostModel {
            remote_bandwidth: f64::INFINITY,
            remote_latency: 1.0,
            message_overhead_bytes: 0.0,
            local_bandwidth: f64::INFINITY,
            local_latency: 0.0,
            compute_rate: 4000.0,
        };
        // Worker 0 lives on machine 0, so shard 1 is its remote shard.
        let plan = FaultPlan::shard_outage(7, 1, 0.5, 8.5);
        let mut w = build_with_faults(PolicyKind::Cps, 200, plan, cost);
        // Pre-cache the full key space (capacity 200 covers all 86 keys)
        // and skip the iteration-0 rebuild, so the epoch below never
        // misses: every shard-1 access during the outage is then a
        // degraded hit or a deferred push, not a blocking pull. The
        // construction pull's shard-1 message lands at t = 0 (before the
        // outage) and advances the clock to 1.0 s — inside the window,
        // which stays open past the first write-back: with every row cached
        // nothing is pushed until iteration 3, the push before the sync at
        // P = 4, behind three computes, at 6.76 s. The next push, at
        // iteration 7, finds the shard back and flushes the backlog.
        let every_key: Vec<ParamKey> = (0..w.ctx.key_space.len() as u64).map(ParamKey).collect();
        let everything = filter_hot_set(&every_key, w.ctx.key_space, &w.policy.filter);
        precache(&mut w, &everything);
        w.iteration = 1;
        for e in 0..2 {
            w.run_epoch(e);
        }
        let stats = w.ctx.client.faults().unwrap().stats();
        assert!(
            stats.degraded_hits > 0,
            "no stale hits served during the outage: {stats:?}"
        );
        assert!(
            stats.deferred_pushes > 0,
            "no pushes deferred during the outage: {stats:?}"
        );
        assert!(
            stats.backlog_flushes >= 1,
            "backlog never flushed after recovery: {stats:?}"
        );
        assert!(
            w.backlog.is_empty(),
            "backlog must drain once the shard is back"
        );
        assert_eq!(stats.drops, 0, "outage-only plan must not drop messages");
    }

    #[test]
    fn brownout_serves_stale_and_defers_while_the_breaker_is_open() {
        // Same deterministic timing as the outage test: one remote message
        // costs 1 simulated second, one iteration's compute 1.92 s.
        let cost = CostModel {
            remote_bandwidth: f64::INFINITY,
            remote_latency: 1.0,
            message_overhead_bytes: 0.0,
            local_bandwidth: f64::INFINITY,
            local_latency: 0.0,
            compute_rate: 4000.0,
        };
        // Worker 0 lives on machine 0, so shard 1 is remote. The flash
        // crowd sheds *every* shard-1 arrival between 0.5 s and 20 s
        // (queue capacity 0), with a 1 s relief hint.
        let plan = FaultPlan {
            seed: 7,
            overloads: vec![OverloadWindow {
                shard: 1,
                start: 0.5,
                end: 20.0,
                queue_capacity: 0,
                drain_rate: 1.0,
                latency_per_inflight: 0.0,
            }],
            ..FaultPlan::default()
        };
        // The first push the crowd sheds is retried on the budget until the
        // third failure opens shard 1's breaker. Forty deliveries' earnings
        // fund a third retry beyond the float, so that push meets the open
        // breaker at the gate and fails fast rather than being denied.
        let ctl = Arc::new(OverloadControl::new(2));
        for _ in 0..40 {
            ctl.budget.earn();
        }
        let mut w = build_inner(PolicyKind::Cps, 200, Some((plan, cost)), Some(ctl.clone()));
        // Pre-cache the full key space so the epoch never misses: every
        // shard-1 access during the brownout is then a stale serve or a
        // deferred push, and nothing sends to shard 1 — nothing probes the
        // open breaker — until a sync must ask about every row: at the
        // degraded bound, 8·P = 32 iterations after the last full sync,
        // some 35 s in, after the crowd has gone. The construction pull
        // lands at t = 0 (before the window) and advances the clock to
        // 1.0 s — inside it; the first message the crowd can shed is
        // iteration 3's write-back, some 3 s of compute later.
        let every_key: Vec<ParamKey> = (0..w.ctx.key_space.len() as u64).map(ParamKey).collect();
        let everything = filter_hot_set(&every_key, w.ctx.key_space, &w.policy.filter);
        precache(&mut w, &everything);
        w.iteration = 1;
        for e in 0..4 {
            w.run_epoch(e);
        }
        assert!(
            w.iteration > w.sync.degraded_bound(),
            "the run reaches the bound"
        );
        let stats = w.ctx.client.faults().unwrap().stats();
        assert_eq!(
            stats.degraded_hits, 0,
            "no outage in the plan, yet outage hits were counted: {stats:?}"
        );
        assert!(
            stats.brownout_stale_serves > 0,
            "no stale hits served under the open breaker: {stats:?}"
        );
        assert!(
            stats.deferred_pushes > 0,
            "no pushes deferred during the brownout: {stats:?}"
        );
        assert!(
            stats.breaker_fast_fails > 0,
            "the open breaker never failed a push fast: {stats:?}"
        );
        let br = &ctl.breakers;
        assert_eq!(br.opens(), 1, "exactly one trip expected");
        assert_eq!(
            br.half_opens(),
            1,
            "the sync at the degraded bound must probe"
        );
        assert_eq!(br.closes(), 1, "the probe must close the breaker");
        assert!(br.brownout_secs() > 0.0);
        assert!(
            stats.backlog_flushes >= 1,
            "backlog never flushed after the breaker closed: {stats:?}"
        );
        assert!(
            w.backlog.is_empty(),
            "backlog must drain once the breaker closes"
        );
    }

    /// What a faulty run's reads are held to is one function of `P`: the
    /// worker's §IV-C assertion and the divergence oracle's envelope both
    /// read [`SyncConfig::degraded_bound`] — 64 at the paper's `P` = 8, and
    /// the same for both at a `P` that does not divide 64.
    #[test]
    fn degraded_bound_is_one_function() {
        use crate::config::{SystemKind, TrainConfig};
        use crate::oracle::{shadow_check, SLACK};
        use hetkg_ps::optimizer::OptimizerKind;
        assert_eq!(SyncConfig::new(8).degraded_bound(), 64);
        let mut w = build(PolicyKind::Cps, 30);
        for p in [1, 3, 8] {
            w.sync = SyncConfig::new(p);
            assert_eq!(w.staleness_bound(true), 8 * p);
            assert_eq!(w.staleness_bound(false), p);
        }
        let g = SyntheticKg {
            num_entities: 80,
            num_relations: 6,
            num_triples: 400,
            ..Default::default()
        }
        .build(5);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 1;
        cfg.cache.staleness = 3;
        cfg.faults = Some(FaultPlan::shard_outage(7, 1, 0.0001, 0.01));
        let r = shadow_check(&g, g.triples(), &cfg);
        let OptimizerKind::AdaGrad { lr } = cfg.optimizer else {
            unreachable!("the small config trains with AdaGrad")
        };
        let envelope = SLACK * lr as f64 * (cfg.dim as f64).sqrt();
        assert_eq!(r.bound, envelope * 24.0, "the oracle's envelope at 8·P");
        r.assert_ok();
    }

    /// A sparse workload (entities ≫ batch coverage) where consecutive
    /// batches share few cold keys, so most iterations leave at least one
    /// shard's staged misses untouched by the in-flight push and the
    /// pipeline has real work to hide.
    fn build_sparse(overlap: bool) -> HetKgWorker {
        let g = SyntheticKg {
            num_entities: 2_000,
            num_relations: 8,
            num_triples: 1_200,
            ..Default::default()
        }
        .build(11);
        let ks = g.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = Arc::new(KvStore::new(
            router,
            8,
            8,
            1,
            Init::Uniform { bound: 0.2 },
            3,
        ));
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone());
        let ctx = WorkerCtx::new(
            0,
            g.triples().to_vec(),
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(8).into(),
            LossKind::Logistic,
            Arc::new(AdaGrad::new(0.1)),
            8,
        )
        .with_timing(CostModel::gigabit(), overlap);
        let negatives = NegativeSampler::new(
            2_000,
            NegConfig {
                per_positive: 2,
                strategy: NegStrategy::Independent,
            },
            9,
        );
        let policy = CachePolicy {
            kind: PolicyKind::Cps,
            filter: hetkg_core::filter::FilterConfig::paper_default(60),
            prefetch_depth: 4,
        };
        HetKgWorker::new(ctx, policy, SyncConfig::new(4), negatives, 1)
    }

    #[test]
    fn pipelining_preserves_values_and_shortens_the_critical_path() {
        let cost = CostModel::gigabit();
        let mut seq = build_sparse(false);
        let mut pipe = build_sparse(true);
        for e in 0..3 {
            let a = seq.run_epoch(e);
            let b = pipe.run_epoch(e);
            // Values, work, and cache behavior are bit-identical: the
            // pipeline only reorders *when* network time is spent.
            assert_eq!(
                a.loss_sum.to_bits(),
                b.loss_sum.to_bits(),
                "epoch {e} loss diverged under pipelining"
            );
            assert_eq!(a.work_units, b.work_units);
            assert_eq!(a.cache.hits, b.cache.hits);
            assert_eq!(a.cache.misses, b.cache.misses);
            assert_eq!(a.max_staleness, b.max_staleness);
            // Same bytes; at a staged iteration each of the two shards may
            // be sent a second frame for the pull when it holds keys of
            // both halves, and a second for the push in front of it.
            let staged = (pipe.ctx.iterations_per_epoch - 1) as u64;
            assert_same_bytes_more_messages(a.traffic, b.traffic, 2 * 2 * staged, "het-kg");
            // The sequential schedule runs each operation in turn.
            let seq_lanes = a.traffic.simulated_time(&cost) + cost.compute_time(a.work_units);
            assert!((a.critical_path_secs - seq_lanes).abs() < 1e-9);
            // The pipelined critical path is a real schedule: at least as
            // long as either lane alone, strictly shorter than their sum.
            let comm = b.traffic.simulated_time(&cost);
            let compute = cost.compute_time(b.work_units);
            assert!(b.critical_path_secs > 0.0);
            assert!(
                b.critical_path_secs + 1e-9 >= comm.max(compute),
                "epoch {e}: cp {} below max(comm {comm}, compute {compute})",
                b.critical_path_secs
            );
            assert!(
                b.critical_path_secs + 1e-9 < comm + compute,
                "epoch {e}: no overlap achieved (cp {}, comm {comm}, compute {compute})",
                b.critical_path_secs
            );
        }
    }

    // ---- The version gate against the full refresh it replaced ----

    /// Three workers on three machines over one store, as the trainer wires
    /// them (per-worker meters, clients, samplers), on a graph skewed enough
    /// that some cached rows sit unwritten across a sync period and others
    /// are written by every worker. D = 8 is a multiple of P = 4, so every
    /// DPS rebuild lands on a sync iteration, like the benchmark's.
    fn build_pool(
        kind: PolicyKind,
        overlap: bool,
        compression: hetkg_netsim::CompressionMode,
        reference: bool,
        replication: usize,
    ) -> (Vec<HetKgWorker>, Arc<KvStore>) {
        let spec = PoolSpec {
            kind,
            overlap,
            compression,
            replication,
            ..PoolSpec::default()
        };
        let (mut workers, store) = spec.build();
        for w in &mut workers {
            w.full_refresh_reference = reference;
        }
        (workers, store)
    }

    /// [`build_pool`]'s pool, every knob a test turns exposed.
    #[derive(Clone)]
    struct PoolSpec {
        kind: PolicyKind,
        overlap: bool,
        compression: hetkg_netsim::CompressionMode,
        replication: usize,
        machines: usize,
        /// `P` and `D`.
        period: usize,
        depth: usize,
        optimizer: Arc<dyn hetkg_ps::optimizer::Optimizer>,
        faults: Option<FaultPlan>,
        cost: CostModel,
    }

    impl Default for PoolSpec {
        fn default() -> Self {
            Self {
                kind: PolicyKind::Cps,
                overlap: false,
                compression: hetkg_netsim::CompressionMode::Off,
                replication: 1,
                machines: 3,
                period: 4,
                depth: 8,
                optimizer: Arc::new(AdaGrad::new(0.1)),
                faults: None,
                cost: CostModel::gigabit(),
            }
        }
    }

    impl PoolSpec {
        fn build(&self) -> (Vec<HetKgWorker>, Arc<KvStore>) {
            let spec = self;
            let PoolSpec {
                kind,
                overlap,
                compression,
                replication,
                machines,
                ..
            } = *spec;
            let g = SyntheticKg {
                num_entities: 3_000,
                num_relations: 10,
                num_triples: 4_500,
                entity_alpha: 1.0,
                relation_alpha: 1.1,
                ..Default::default()
            }
            .build(17);
            let ks = g.key_space();
            let router = ShardRouter::round_robin(ks, machines);
            let state_width = spec.optimizer.state_width();
            let store = Arc::new(
                KvStore::new(router, 32, 32, state_width, Init::Uniform { bound: 0.2 }, 4)
                    .with_replication(replication),
            );
            let workers = (0..machines)
                .map(|w| {
                    let meter = Arc::new(TrafficMeter::new());
                    let mut client = PsClient::new(
                        w,
                        ClusterTopology::new(machines, 1),
                        store.clone(),
                        meter.clone(),
                    );
                    if let Some(plan) = &spec.faults {
                        let injector = FaultInjector::new(plan.clone(), CostModel::gigabit(), w);
                        client = client.with_faults(Arc::new(injector));
                    }
                    let subgraph = g
                        .triples()
                        .iter()
                        .copied()
                        .filter(|t| t.head.index() % machines == w)
                        .collect();
                    let ctx = WorkerCtx::new(
                        w,
                        subgraph,
                        ks,
                        client,
                        meter,
                        ModelKind::TransEL2.build(32).into(),
                        LossKind::Logistic,
                        spec.optimizer.clone(),
                        32,
                    )
                    .with_timing(spec.cost, overlap)
                    .with_compression(compression);
                    let negatives = NegativeSampler::new(3_000, NegConfig::default(), 9 + w as u64);
                    let policy = CachePolicy {
                        kind,
                        filter: hetkg_core::filter::FilterConfig::paper_default(300),
                        prefetch_depth: spec.depth,
                    };
                    HetKgWorker::new(ctx, policy, SyncConfig::new(spec.period), negatives, 1)
                })
                .collect();
            (workers, store)
        }
    }

    /// One epoch, workers interleaved step by step like the trainer's.
    fn run_pool_epoch(workers: &mut [HetKgWorker], epoch: usize) -> Vec<WorkerEpochStats> {
        for w in workers.iter_mut() {
            w.begin_epoch(epoch);
        }
        let mut live = workers.len();
        while live > 0 {
            live = workers
                .iter_mut()
                .map(|w| w.step())
                .filter(|&more| more)
                .count();
        }
        workers.iter_mut().map(|w| w.finish_epoch()).collect()
    }

    fn bits(row: &[f32]) -> Vec<u32> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// A worker's cached rows, by key, bit for bit.
    fn table_bits(w: &HetKgWorker) -> Vec<(u64, Vec<u32>)> {
        let mut rows: Vec<_> = w
            .table
            .iter_keys()
            .map(|k| (k.0, bits(w.table.get(k).unwrap())))
            .collect();
        rows.sort();
        rows
    }

    /// Every row and optimizer-state row of the store, bit for bit.
    fn store_bits(store: &KvStore) -> Vec<(u64, Vec<u32>, Vec<u32>)> {
        let mut rows = Vec::new();
        store.for_each_row_with_state(|k, row, state| rows.push((k.0, bits(row), bits(state))));
        rows.sort();
        rows
    }

    /// The tentpole's contract: the version gate changes which bytes move
    /// and nothing else. Over 3 epochs, for CPS and DPS, pipelined and not,
    /// dense and int8 pushes: per-worker loss, cache statistics, divergence
    /// statistics and staleness bit-equal to the full-refresh reference
    /// after every epoch, every worker's hot table bit-equal, the final
    /// store (rows and optimizer state) bit-equal, message counts equal —
    /// and strictly fewer remote bytes.
    #[test]
    fn version_gated_sync_matches_the_full_refresh_reference_bit_for_bit() {
        use hetkg_netsim::CompressionMode;
        for kind in [PolicyKind::Cps, PolicyKind::Dps] {
            for overlap in [false, true] {
                for compression in [CompressionMode::Off, CompressionMode::Int8] {
                    let what = format!("{kind:?} overlap {overlap} {compression:?}");
                    let (mut gated, gated_store) = build_pool(kind, overlap, compression, false, 1);
                    let (mut full, full_store) = build_pool(kind, overlap, compression, true, 1);
                    let (mut gated_bytes, mut full_bytes) = (0u64, 0u64);
                    for epoch in 0..3 {
                        let a = run_pool_epoch(&mut gated, epoch);
                        let b = run_pool_epoch(&mut full, epoch);
                        for (w, (a, b)) in a.iter().zip(&b).enumerate() {
                            let at = format!("{what}, epoch {epoch}, worker {w}");
                            assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{at}: loss");
                            assert_eq!(a.loss_terms, b.loss_terms, "{at}");
                            assert_eq!(a.work_units, b.work_units, "{at}");
                            assert_eq!(a.cache, b.cache, "{at}: cache stats");
                            assert_eq!(
                                a.max_divergence.to_bits(),
                                b.max_divergence.to_bits(),
                                "{at}: max divergence"
                            );
                            assert_eq!(
                                a.mean_divergence.to_bits(),
                                b.mean_divergence.to_bits(),
                                "{at}: mean divergence"
                            );
                            assert!(a.max_divergence > 0.0, "{at}: syncs saw drift");
                            assert_eq!(a.max_staleness, b.max_staleness, "{at}");
                            assert!(a.max_staleness <= 4, "{at}: staleness ≤ P");
                            assert_eq!(
                                (a.traffic.local_messages, a.traffic.remote_messages),
                                (b.traffic.local_messages, b.traffic.remote_messages),
                                "{at}: a sync still rides the miss pull's messages"
                            );
                            assert_eq!(
                                (a.traffic.by_cause.push, a.traffic.by_cause.write_back),
                                (b.traffic.by_cause.push, b.traffic.by_cause.write_back),
                                "{at}: pushes are untouched"
                            );
                            assert_eq!(
                                a.traffic.by_cause.total().remote,
                                a.traffic.remote_bytes,
                                "{at}: causes add up"
                            );
                            gated_bytes += a.traffic.remote_bytes;
                            full_bytes += b.traffic.remote_bytes;
                        }
                        for (w, (a, b)) in gated.iter().zip(&full).enumerate() {
                            assert_eq!(
                                table_bits(a),
                                table_bits(b),
                                "{what}, epoch {epoch}: worker {w}'s hot table"
                            );
                        }
                    }
                    assert_eq!(
                        store_bits(&gated_store),
                        store_bits(&full_store),
                        "{what}: final store"
                    );
                    assert!(
                        gated_bytes < full_bytes,
                        "{what}: gated {gated_bytes} B, full refresh {full_bytes} B"
                    );
                }
            }
        }
    }

    /// One rule, reference kept: the two-part push against the whole push
    /// it replaced, CPS and DPS, dense and int8. Both parts are carried
    /// where the whole push was, so per worker and epoch the loss, cache
    /// statistics, table economy and bytes per cause are bit-equal, as are
    /// every hot table and the final store; only the timeline moves, by no
    /// more than the frames the split adds cost. Which way depends on what
    /// paces. On the gigabit link this pool's 32-wide rows are
    /// latency-bound, and the added frames are what the split costs. On a
    /// link a hundred times narrower with compute a hundred times slower,
    /// the chain from a compute through the push to the late pull paces,
    /// as on the benchmark's graphs, and with dense pushes no epoch is
    /// longer: its critical path, the slowest worker's, is no longer than
    /// the reference's. (Int8 pushes are a quarter the size, latency
    /// weighs again, and an epoch may cost the split some of its frames.)
    #[test]
    fn the_split_push_trains_what_the_whole_push_reference_does() {
        use hetkg_netsim::CompressionMode;
        let gigabit = CostModel::gigabit();
        let paced = CostModel {
            remote_bandwidth: gigabit.remote_bandwidth / 100.0,
            local_bandwidth: gigabit.local_bandwidth / 100.0,
            compute_rate: gigabit.compute_rate / 100.0,
            ..gigabit
        };
        for kind in [PolicyKind::Cps, PolicyKind::Dps] {
            for compression in [CompressionMode::Off, CompressionMode::Int8] {
                for cost in [gigabit, paced] {
                    let link = if cost == gigabit { "gigabit" } else { "paced" };
                    let what = format!("{kind:?} {compression:?} {link}");
                    let spec = PoolSpec {
                        kind,
                        overlap: true,
                        compression,
                        cost,
                        ..PoolSpec::default()
                    };
                    let (mut split, split_store) = spec.build();
                    let (mut whole, whole_store) = spec.build();
                    for w in &mut whole {
                        w.pipeline.whole_push_reference = true;
                    }
                    let chain_paced = cost == paced && compression == CompressionMode::Off;
                    let mut added = 0;
                    for epoch in 0..3 {
                        let a = run_pool_epoch(&mut split, epoch);
                        let b = run_pool_epoch(&mut whole, epoch);
                        for (w, (a, b)) in a.iter().zip(&b).enumerate() {
                            let at = format!("{what}, epoch {epoch}, worker {w}");
                            assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{at}: loss");
                            assert_eq!(a.cache, b.cache, "{at}");
                            assert_eq!(a.traffic.by_cause, b.traffic.by_cause, "{at}");
                            assert_eq!(a.table, b.table, "{at}");
                            let (ta, tb) = (a.traffic, b.traffic);
                            let (remote, local) = (
                                ta.remote_messages - tb.remote_messages,
                                ta.local_messages - tb.local_messages,
                            );
                            let frames = cost.remote_time(0, remote) + cost.local_time(0, local);
                            let (cp, whole_cp) = (a.critical_path_secs, b.critical_path_secs);
                            assert!(
                                cp <= whole_cp + frames + 1e-12,
                                "{at}: {cp} s split, {whole_cp} s whole, {frames} s of frames added"
                            );
                            added += remote + local;
                        }
                        // The epoch's critical path is its slowest worker's.
                        let epoch_cp = |stats: &[WorkerEpochStats]| {
                            stats
                                .iter()
                                .map(|s| s.critical_path_secs)
                                .fold(0.0, f64::max)
                        };
                        let (cp, whole_cp) = (epoch_cp(&a), epoch_cp(&b));
                        assert!(
                            !chain_paced || cp <= whole_cp + 1e-12,
                            "{what}, epoch {epoch}: {cp} s split, {whole_cp} s whole"
                        );
                    }
                    assert!(added > 0, "{what}: no push split");
                    for (w, (a, b)) in split.iter().zip(&whole).enumerate() {
                        assert_eq!(table_bits(a), table_bits(b), "{what}: table {w}");
                    }
                    assert_eq!(
                        store_bits(&split_store),
                        store_bits(&whole_store),
                        "{what}: final store"
                    );
                }
            }
        }
    }

    // ---- Write-back against the write-through it replaced ----

    fn write_through(mut pool: Vec<HetKgWorker>) -> Vec<HetKgWorker> {
        for w in &mut pool {
            w.write_through_reference = true;
        }
        pool
    }

    /// With `P` = 1 every push is the push before a sync, so every cached
    /// row is written back the iteration it collects its one gradient — as
    /// that gradient. Nothing then tells the run from the write-through
    /// reference: per worker and epoch the whole traffic snapshot (lanes,
    /// messages, the per-cause split with `write_back` at zero, the push
    /// breakdown), loss, cache and divergence statistics bit-equal, every
    /// hot table and the final store (rows and optimizer state) bit-equal —
    /// CPS and DPS, pipelined and not, dense and int8.
    #[test]
    fn write_back_at_p_1_is_the_write_through_reference_bit_for_bit() {
        use hetkg_netsim::CompressionMode;
        for kind in [PolicyKind::Cps, PolicyKind::Dps] {
            for overlap in [false, true] {
                for compression in [CompressionMode::Off, CompressionMode::Int8] {
                    let what = format!("{kind:?} overlap {overlap} {compression:?}");
                    let spec = PoolSpec {
                        kind,
                        overlap,
                        compression,
                        period: 1,
                        depth: 6,
                        ..PoolSpec::default()
                    };
                    let (mut back, back_store) = spec.build();
                    let (through, through_store) = spec.build();
                    let mut through = write_through(through);
                    for epoch in 0..3 {
                        let a = run_pool_epoch(&mut back, epoch);
                        let b = run_pool_epoch(&mut through, epoch);
                        for (w, (a, b)) in a.iter().zip(&b).enumerate() {
                            let at = format!("{what}, epoch {epoch}, worker {w}");
                            assert_eq!(a.traffic, b.traffic, "{at}: traffic");
                            assert_eq!(a.traffic.by_cause.write_back, Default::default());
                            assert!(a.traffic.by_cause.push.remote > 0, "{at}");
                            assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{at}: loss");
                            assert_eq!(a.cache, b.cache, "{at}");
                            assert_eq!(
                                a.max_divergence.to_bits(),
                                b.max_divergence.to_bits(),
                                "{at}: divergence"
                            );
                            assert_eq!(a.critical_path_secs, b.critical_path_secs, "{at}");
                            // Every row written back carried one gradient.
                            assert!(a.table.written_back_rows > 0, "{at}");
                            assert_eq!(a.table.written_back_rows, a.table.coalesced_grads);
                            assert_eq!(b.table.written_back_rows, 0, "{at}: the reference");
                        }
                        for (w, (a, b)) in back.iter().zip(&through).enumerate() {
                            assert_eq!(table_bits(a), table_bits(b), "{what}: table {w}");
                        }
                    }
                    assert_eq!(
                        store_bits(&back_store),
                        store_bits(&through_store),
                        "{what}: final store"
                    );
                }
            }
        }
    }

    /// SGD is linear in the gradient and a worker reads its own writes from
    /// its cache, so with one worker nothing can tell `Σg` written back once
    /// from the same gradients pushed one by one, except float rounding: at
    /// `P` = 8 the final stores agree to 1e-5 — under CPS, and under DPS
    /// with a `D` that is not a multiple of `P`, where rows are evicted
    /// mid-window and epochs end mid-window. A gradient lost at an eviction,
    /// a rebuild or an epoch's end would show here as a row apart by a
    /// whole step. And it does so in fewer bytes, over the same messages.
    #[test]
    fn one_sgd_worker_writing_back_at_p_8_ends_where_write_through_does() {
        for (kind, depth) in [(PolicyKind::Cps, 8), (PolicyKind::Dps, 6)] {
            let spec = PoolSpec {
                kind,
                machines: 1,
                period: 8,
                depth,
                optimizer: Arc::new(hetkg_ps::optimizer::Sgd { lr: 0.05 }),
                ..PoolSpec::default()
            };
            let (mut back, back_store) = spec.build();
            let (through, through_store) = spec.build();
            let mut through = write_through(through);
            let (mut back_bytes, mut through_bytes) = (0, 0);
            for epoch in 0..3 {
                let a = run_pool_epoch(&mut back, epoch);
                let b = run_pool_epoch(&mut through, epoch);
                assert!(
                    back[0].table.pending().next().is_none(),
                    "{kind:?}: epoch end"
                );
                assert!(
                    a[0].table.coalescing_factor() > 1.5,
                    "{kind:?}: {:?}",
                    a[0].table
                );
                assert_eq!(
                    a[0].traffic.local_messages, b[0].traffic.local_messages,
                    "{kind:?}: no message is added or saved"
                );
                back_bytes += a[0].traffic.total_bytes();
                through_bytes += b[0].traffic.total_bytes();
            }
            assert!(
                back_bytes * 10 < through_bytes * 9,
                "{kind:?}: {back_bytes} B written back, {through_bytes} B written through"
            );
            let mut rows = Vec::new();
            back_store.for_each_row_with_state(|k, row, _| rows.push((k, row.to_vec())));
            let mut other = vec![0.0f32; 32];
            let mut moved = 0;
            for (k, row) in &rows {
                through_store.pull(*k, &mut other);
                for (a, b) in row.iter().zip(&other) {
                    assert!((a - b).abs() <= 1e-5, "{kind:?}: {k} ended at {a} vs {b}");
                }
                let mut init = vec![0.0f32; 32];
                spec.build().1.pull(*k, &mut init);
                moved += usize::from(row != &init);
            }
            assert!(
                moved > rows.len() / 2,
                "{kind:?}: training moved {moved} rows"
            );
        }
    }

    /// The write side of §IV-C, with `D` = 6 a multiple of neither `P`: no
    /// gradient waits in a table longer than `P − 1` iterations (asserted
    /// at every write-back too, in a debug build), every gradient of a
    /// cached row is written back — counted one by one against what the
    /// workers report — nothing is held across an epoch's end, and a rebuild
    /// finds nothing held (`retain` panics otherwise). Healthy, and with a
    /// shard down for a stretch, where held rows leave through the backlog.
    #[test]
    fn no_gradient_waits_out_a_sync_window_and_none_is_lost() {
        let outage = FaultPlan::shard_outage(7, 1, 0.002, 0.02);
        // Whether any run deferred a push, and whether a row written back
        // with several gradients ever sat in a backlog.
        let (mut deferred_somewhere, mut coalesced_deferred) = (false, false);
        for kind in [PolicyKind::Cps, PolicyKind::Dps] {
            for period in [1usize, 4, 8] {
                for faults in [None, Some(outage.clone())] {
                    let what = format!("{kind:?} P = {period} faults {}", faults.is_some());
                    let faulty = faults.is_some();
                    let spec = PoolSpec {
                        kind,
                        period,
                        depth: 6,
                        faults,
                        ..PoolSpec::default()
                    };
                    let (mut pool, _) = spec.build();
                    let mut expected = vec![0u64; pool.len()];
                    let (mut written_back, mut deferred) = (0u64, 0u64);
                    for epoch in 0..2 {
                        for w in pool.iter_mut() {
                            w.begin_epoch(epoch);
                        }
                        let mut live = pool.len();
                        while live > 0 {
                            live = 0;
                            for (w, grads) in pool.iter_mut().zip(&mut expected) {
                                if !w.step() {
                                    continue;
                                }
                                live += 1;
                                // The batch just trained on: every key of it
                                // got a gradient, the cached ones held.
                                let plan = &w.ctx.scratch.plan;
                                *grads +=
                                    plan.keys().iter().filter(|&&k| w.table.contains(k)).count()
                                        as u64;
                                coalesced_deferred |= w.backlog.values().any(|d| d.grads > 1);
                                for p in w.table.pending() {
                                    assert!(
                                        w.iteration - p.since < period,
                                        "{what}: {} still holds a gradient of iteration {} \
                                         before iteration {}",
                                        p.key,
                                        p.since,
                                        w.iteration
                                    );
                                }
                            }
                        }
                        for w in pool.iter_mut() {
                            let stats = w.finish_epoch();
                            written_back += stats.table.coalesced_grads;
                            assert!(w.table.pending().next().is_none(), "{what}: epoch end");
                            assert!(stats.max_staleness <= w.staleness_bound(faulty), "{what}");
                            if period == 1 {
                                assert_eq!(stats.traffic.by_cause.write_back, Default::default());
                            }
                        }
                    }
                    assert_eq!(written_back, expected.iter().sum::<u64>(), "{what}");
                    for w in &pool {
                        if let Some(f) = w.ctx.client.faults() {
                            deferred += f.stats().deferred_pushes;
                            assert_eq!(f.stats().shed_pushes, 0, "{what}");
                        }
                        assert!(w.backlog.is_empty(), "{what}: the backlog drained");
                    }
                    assert!(
                        faulty || deferred == 0,
                        "{what}: {deferred} pushes deferred"
                    );
                    deferred_somewhere |= deferred > 0;
                }
            }
        }
        assert!(
            deferred_somewhere && coalesced_deferred,
            "the backlog was never exercised (deferred {deferred_somewhere}, with several \
             gradients {coalesced_deferred})"
        );
    }

    // ---- Early write-back against the boundary-only write-back it replaced ----

    fn boundary_only(mut pool: Vec<HetKgWorker>) -> Vec<HetKgWorker> {
        for w in &mut pool {
            w.boundary_write_back_reference = true;
        }
        pool
    }

    /// What a worker wrote back, by window (the boundary pushes before it)
    /// and key: gradient count, energy bits, sum bits.
    type WrittenBack = std::collections::BTreeMap<(usize, ParamKey), (u32, u32, Vec<u32>)>;

    fn written_back(w: &HetKgWorker, what: &str) -> WrittenBack {
        let mut rows = WrittenBack::new();
        let log = w
            .written_back_log
            .as_ref()
            .expect("the test asked for the log");
        for (window, key, grads, energy, sum) in log.iter().cloned() {
            let again = rows.insert((window, key), (grads, energy, sum));
            assert!(
                again.is_none(),
                "{what}: {key} was written back twice in window {window}"
            );
        }
        rows
    }

    /// `t` without the rows syncs returned, in the split and in the lanes.
    fn but_sync_rows(mut t: hetkg_netsim::TrafficSnapshot) -> hetkg_netsim::TrafficSnapshot {
        let rows = std::mem::take(&mut t.by_cause.sync_rows);
        t.local_bytes -= rows.local;
        t.remote_bytes -= rows.remote;
        t
    }

    /// Writing a held row back at the last gradient its window gives it
    /// sends what the window's boundary push would have sent, sooner. Against
    /// the boundary-only reference, over CPS and DPS, pipelined and not,
    /// dense and int8 pushes, `P` ∈ {1, 4, 8} and `D` = 6 (a multiple of no
    /// `P` > 1: windows end at rebuilds too) and 16:
    ///
    /// * three workers, one epoch: per worker the traffic snapshot (lanes,
    ///   causes, messages, the push breakdown) but for the rows its syncs
    ///   return, every row written back once per window and key with the
    ///   same gradient count, and the same economy but for
    ///   `written_back_early`. Values differ — another worker's miss reads a
    ///   row the server has a few iterations sooner — and so does *which*
    ///   sync returns a row: a write-back that leaves in a window's first
    ///   push reaches the workers that sync later in the same round one
    ///   window sooner;
    /// * with `P` = 1 every push is a boundary push: nothing tells the runs
    ///   apart, bit for bit, losses, tables and store included;
    /// * one worker, two epochs — nobody reads a row between the early
    ///   write-back and the boundary, so nothing can tell *when* it went:
    ///   sums and energies per window and key, losses, the table and the
    ///   store (rows and optimizer state) are bit-equal.
    ///
    /// Both pools push whole (`whole_push_reference`): which rows a push
    /// holds decides how a split one is framed, and this test is about
    /// which push a row rides, not how a push is split.
    ///
    /// In a debug build every gradient a cached row collects is also checked
    /// against the window's prediction, and every wait against `P − 1`.
    #[test]
    fn early_write_back_sends_what_the_boundary_push_would_have_sent() {
        use hetkg_netsim::CompressionMode;
        let mut early_somewhere = 0u64;
        for (kind, overlap, compression) in [
            (PolicyKind::Cps, false, CompressionMode::Off),
            (PolicyKind::Cps, true, CompressionMode::Int8),
            (PolicyKind::Dps, false, CompressionMode::Off),
            (PolicyKind::Dps, false, CompressionMode::Int8),
            (PolicyKind::Dps, true, CompressionMode::Off),
            (PolicyKind::Dps, true, CompressionMode::Int8),
        ] {
            for period in [1usize, 4, 8] {
                for depth in [6usize, 16] {
                    for machines in [3usize, 1] {
                        let what = format!(
                            "{kind:?} overlap {overlap} {compression:?} P {period} D {depth} \
                             on {machines}"
                        );
                        let spec = PoolSpec {
                            kind,
                            overlap,
                            compression,
                            period,
                            depth,
                            machines,
                            ..PoolSpec::default()
                        };
                        let (mut early, early_store) = spec.build();
                        let (reference, reference_store) = spec.build();
                        let mut reference = boundary_only(reference);
                        for w in early.iter_mut().chain(&mut reference) {
                            w.written_back_log = Some(Vec::new());
                            w.pipeline.whole_push_reference = true;
                        }
                        // Alone, a worker's epochs may end mid-window.
                        let epochs = if machines == 1 { 2 } else { 1 };
                        let bit_equal = machines == 1 || period == 1;
                        for epoch in 0..epochs {
                            let a = run_pool_epoch(&mut early, epoch);
                            let b = run_pool_epoch(&mut reference, epoch);
                            for (w, (a, b)) in a.iter().zip(&b).enumerate() {
                                let at = format!("{what}, epoch {epoch}, worker {w}");
                                if bit_equal {
                                    assert_eq!(a.traffic, b.traffic, "{at}: traffic");
                                } else {
                                    assert_eq!(
                                        but_sync_rows(a.traffic),
                                        but_sync_rows(b.traffic),
                                        "{at}: traffic"
                                    );
                                }
                                assert_eq!(a.cache, b.cache, "{at}");
                                assert_eq!(a.max_staleness, b.max_staleness, "{at}");
                                assert_eq!(b.table.written_back_early, 0, "{at}: the reference");
                                let expect_early = kind == PolicyKind::Dps && period > 1;
                                assert_eq!(
                                    a.table.written_back_early > 0,
                                    expect_early,
                                    "{at}: {:?}",
                                    a.table
                                );
                                early_somewhere += a.table.written_back_early;
                                let but_early = TableEconomy {
                                    written_back_early: 0,
                                    written_back_energy: 0.0,
                                    written_back_sum_sq: 0.0,
                                    ..a.table
                                };
                                let reference_but = TableEconomy {
                                    written_back_energy: 0.0,
                                    written_back_sum_sq: 0.0,
                                    ..b.table
                                };
                                assert_eq!(but_early, reference_but, "{at}: economy");
                                if bit_equal {
                                    assert_eq!(
                                        a.loss_sum.to_bits(),
                                        b.loss_sum.to_bits(),
                                        "{at}: loss"
                                    );
                                    assert_eq!(
                                        a.table.written_back_energy.to_bits(),
                                        b.table.written_back_energy.to_bits(),
                                        "{at}: energy"
                                    );
                                    assert_eq!(
                                        a.max_divergence.to_bits(),
                                        b.max_divergence.to_bits(),
                                        "{at}: divergence"
                                    );
                                }
                            }
                        }
                        for (w, (a, b)) in early.iter().zip(&reference).enumerate() {
                            let at = format!("{what}, worker {w}");
                            let (a_rows, b_rows) = (written_back(a, &at), written_back(b, &at));
                            assert!(!a_rows.is_empty(), "{at}");
                            if bit_equal {
                                assert_eq!(a_rows, b_rows, "{at}: rows written back");
                                assert_eq!(table_bits(a), table_bits(b), "{at}: table");
                            } else {
                                let counts = |rows: &WrittenBack| -> Vec<_> {
                                    rows.iter().map(|(&at, row)| (at, row.0)).collect()
                                };
                                assert_eq!(counts(&a_rows), counts(&b_rows), "{at}: gradients");
                            }
                        }
                        if bit_equal {
                            assert_eq!(
                                store_bits(&early_store),
                                store_bits(&reference_store),
                                "{what}: final store"
                            );
                        }
                    }
                }
            }
        }
        assert!(early_somewhere > 0);
    }

    // ---- The timeline around a sync and around a rebuild ----

    /// One DPS worker of the pool (`P` = 4, `D` = 8), pipelined, on a
    /// cluster whose machines compute fifty times slower than the paper's:
    /// compute paces every iteration, so whatever the compute lane waits for
    /// is a dependency, not a busy link.
    fn traced_epochs(epochs: usize) -> (Vec<IterationTrace>, Vec<WorkerEpochStats>) {
        let gigabit = CostModel::gigabit();
        let spec = PoolSpec {
            kind: PolicyKind::Dps,
            overlap: true,
            cost: CostModel {
                compute_rate: gigabit.compute_rate / 50.0,
                ..gigabit
            },
            ..PoolSpec::default()
        };
        let (mut pool, _) = spec.build();
        let stats = (0..epochs)
            .map(|epoch| run_pool_epoch(&mut pool, epoch).remove(0))
            .collect();
        (std::mem::take(&mut pool[0].trace), stats)
    }

    /// Below any message's cost: not a wait.
    const NO_STALL: f64 = 1e-9;

    /// How long the compute lane sat idle before each traced iteration but
    /// the first, to the float rounding of the subtraction.
    fn stalls(trace: &[IterationTrace]) -> Vec<(IterationTrace, f64)> {
        trace
            .windows(2)
            .map(|w| {
                (
                    w[1],
                    w[1].compute_end - w[1].compute_secs - w[0].compute_end,
                )
            })
            .collect()
    }

    /// Rule (3). A sync iteration's batch copies its hits before the refresh
    /// and has its misses staged, so it reads nothing of the consume-time
    /// request that carries the sync: its compute does not wait for it — on
    /// this cluster it does not wait at all, like a plain iteration's — and
    /// the next compute, whose hits come from the refreshed table, does.
    #[test]
    fn a_sync_its_batch_does_not_read_gates_the_next_compute_not_this_one() {
        let (trace, _) = traced_epochs(1);
        let stalls = stalls(&trace);
        let (mut syncs, mut plains) = (0, 0);
        for (i, &(it, stall)) in stalls.iter().enumerate() {
            let (sync, rebuild) = (it.iteration % 4 == 0, it.iteration % 8 == 0);
            if rebuild {
                continue;
            }
            // Plain or sync: nothing to wait for.
            assert!(stall < NO_STALL, "iteration {}: {it:?}", it.iteration);
            assert!(!it.unstaged);
            if !sync {
                assert_eq!(
                    it.left_behind, 0.0,
                    "a plain iteration requests nothing late"
                );
                plains += 1;
                continue;
            }
            syncs += 1;
            // The request went out — after the previous push, so it ends
            // after this compute starts — and nobody waited for it...
            let compute_start = it.compute_end - it.compute_secs;
            assert!(it.left_behind > compute_start + NO_STALL, "{it:?}");
            assert!(it.waited_for <= compute_start + NO_STALL, "{it:?}");
            // ... until the next batch, which reads what it refreshed.
            let (next, _) = stalls[i + 1];
            assert!(next.waited_for >= it.left_behind, "{it:?} then {next:?}");
            assert!(next.compute_end - next.compute_secs + NO_STALL >= it.left_behind);
        }
        assert!(syncs >= 5 && plains >= 25, "{syncs} syncs, {plains} plain");
    }

    /// Rule (2). The iteration before a rebuild prefetches the next window,
    /// selects its hot set and stages the rebuild's first batch against it,
    /// fresh rows included: the rebuild iteration finds its pull on the
    /// timeline and waits only for the few keys the in-flight batch wrote —
    /// one short request behind that batch's push. Only an epoch's first
    /// iteration is staged when it runs, everything late. And none of it
    /// moves a value or a byte: the same pool, not pipelined, trains the
    /// same losses over the same bytes per cause.
    #[test]
    fn a_rebuild_is_staged_and_only_an_epochs_first_iteration_is_not() {
        let (trace, stats) = traced_epochs(2);
        let per_epoch = trace.len() / 2;
        for (i, it) in trace.iter().enumerate() {
            assert_eq!(it.unstaged, i % per_epoch == 0, "{it:?}");
        }
        let message = CostModel::gigabit().remote_latency;
        let (mut rebuilds, mut waited) = (0, 0);
        for (it, stall) in stalls(&trace) {
            if it.iteration % 8 != 0 || it.unstaged {
                continue;
            }
            rebuilds += 1;
            // When no key is late its request is the sync's alone and is
            // left behind; when it waits, it is for the late keys' request.
            assert_eq!(stall > NO_STALL, it.left_behind == 0.0, "{it:?}");
            if stall < NO_STALL {
                continue;
            }
            waited += 1;
            // That is two exchanges with the two remote shards — the hazard
            // part of the push before the rebuild (its rest, a shard's
            // second push frame, is booked behind the request and stalls
            // nothing) and the request — where the unstaged rebuild's
            // compute also sat out a construction pull and the pull of
            // every miss: four.
            assert!(
                4.0 * message < stall && stall < 6.0 * message,
                "{it:?}: stalled {stall} s"
            );
        }
        assert!(
            rebuilds >= 8 && waited > 0,
            "{rebuilds} rebuilds, {waited} waited"
        );
        assert_eq!(
            stats.iter().map(|s| s.table.rebuilds).sum::<u64>(),
            rebuilds + 1,
            "every rebuild but iteration 0's was staged (the second epoch starts mid-window)"
        );

        // The sequential schedule, worker for worker.
        let run = |overlap: bool| {
            let spec = PoolSpec {
                kind: PolicyKind::Dps,
                overlap,
                depth: 6,
                ..PoolSpec::default()
            };
            let (mut pool, store) = spec.build();
            let stats: Vec<_> = (0..2).map(|e| run_pool_epoch(&mut pool, e)).collect();
            (
                stats,
                pool.iter().map(table_bits).collect::<Vec<_>>(),
                store_bits(&store),
            )
        };
        let (seq, seq_tables, seq_store) = run(false);
        let (pipe, pipe_tables, pipe_store) = run(true);
        for (epoch, (a, b)) in seq.iter().zip(&pipe).enumerate() {
            for (w, (a, b)) in a.iter().zip(b).enumerate() {
                let at = format!("epoch {epoch}, worker {w}");
                assert_eq!(a.loss_sum.to_bits(), b.loss_sum.to_bits(), "{at}: loss");
                assert_eq!(a.cache, b.cache, "{at}");
                assert_eq!(
                    a.max_divergence.to_bits(),
                    b.max_divergence.to_bits(),
                    "{at}"
                );
                let staged = (b.table.staged_early + b.table.staged_late) as usize;
                assert!(staged > 0, "{at}: {:?}", b.table);
                // A shard may be sent a frame of each half of any staged
                // iteration's pull and of each part of the push in front of
                // it; a rebuild's fresh rows and its misses are apart in
                // both schedules.
                let iterations = 2 * (3 * 4_500 / 3 / 32 + 1) as u64;
                assert_same_bytes_more_messages(a.traffic, b.traffic, 2 * iterations, &at);
            }
        }
        assert_eq!(seq_tables, pipe_tables);
        assert_eq!(seq_store, pipe_store);
    }

    /// What the gate saves is visible in the split: the reference books a
    /// sync's rows as plain pulls, the gate books 12 bytes per row asked and
    /// rows only for what moved — and under DPS asks nothing at all about
    /// the rows the same iteration's construction just pulled.
    #[test]
    fn the_gate_asks_about_fewer_rows_than_it_covers_and_returns_fewer_still() {
        let (mut gated, _) = build_pool(
            PolicyKind::Dps,
            false,
            hetkg_netsim::CompressionMode::Off,
            false,
            1,
        );
        let stats = run_pool_epoch(&mut gated, 0);
        for (w, s) in stats.iter().enumerate() {
            let c = s.traffic.by_cause;
            let asked = (c.sync_probe.local + c.sync_probe.remote) / 12;
            let returned = (c.sync_rows.local + c.sync_rows.remote) / (12 + 4 * 32);
            let covered = gated[w].epoch_div_samples;
            assert!(returned > 0, "worker {w}: hot rows do move");
            assert!(
                returned < asked && asked < covered,
                "worker {w}: {returned} returned of {asked} asked of {covered} covered"
            );
            assert!(c.construction.remote > 0);
        }
    }

    /// Failover drill: shard 1's primary dies mid-run and a backup is
    /// promoted under the workers, who keep the versions they held. No
    /// worker may skip a row whose bits differ — asserted directly by the
    /// debug check in the sync path (when this test runs with debug
    /// assertions, as `cargo test` does), and end to end by staying
    /// bit-equal to the full-refresh reference, which never trusts a
    /// version.
    #[test]
    fn promotion_under_workers_holding_versions_never_skips_a_changed_row() {
        let run = |reference: bool| {
            let (mut pool, store) = build_pool(
                PolicyKind::Dps,
                false,
                hetkg_netsim::CompressionMode::Off,
                reference,
                2,
            );
            let mut out = Vec::new();
            for epoch in 0..3 {
                if epoch == 1 {
                    // Leave the backup lagging by whatever the backlog
                    // holds: promotion takes it as it is. The rows the
                    // lagging backup never saw are *different bits* from
                    // the ones the workers cached.
                    assert!(store.promote(1));
                }
                out.extend(
                    run_pool_epoch(&mut pool, epoch)
                        .iter()
                        .map(|s| s.loss_sum.to_bits()),
                );
            }
            let tables: Vec<_> = pool.iter().map(table_bits).collect();
            (out, tables, store_bits(&store))
        };
        assert_eq!(run(false), run(true));
    }

    /// Checkpoint-restore drill, same shape: the store is rolled back to an
    /// earlier image under workers that keep their tables (the trainer
    /// rebuilds its workers after a restore; a worker that survived one
    /// must be just as safe).
    #[test]
    fn restore_under_workers_holding_versions_never_skips_a_changed_row() {
        let run = |reference: bool| {
            let (mut pool, store) = build_pool(
                PolicyKind::Cps,
                false,
                hetkg_netsim::CompressionMode::Off,
                reference,
                2,
            );
            let mut image = Vec::new();
            let mut out = Vec::new();
            for epoch in 0..3 {
                if epoch == 1 {
                    store.for_each_row_with_state(|k, row, state| {
                        image.push((k, row.to_vec(), state.to_vec()))
                    });
                }
                if epoch == 2 {
                    for (k, row, state) in &image {
                        store.restore_row(*k, row, Some(state));
                    }
                    store.resync_backups();
                }
                out.extend(
                    run_pool_epoch(&mut pool, epoch)
                        .iter()
                        .map(|s| s.loss_sum.to_bits()),
                );
            }
            let tables: Vec<_> = pool.iter().map(table_bits).collect();
            (out, tables, store_bits(&store))
        };
        assert_eq!(run(false), run(true));
    }
}
