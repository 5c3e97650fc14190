//! Shared worker machinery: the per-worker context every system's training
//! loop builds on, and the per-epoch stats workers hand back to the trainer.

use crate::batch::{compute_planned, BatchResult, BatchScratch, GradAccum, WorkingSet};
use hetkg_core::metrics::{CacheStats, TableEconomy};
use hetkg_embed::loss::LossKind;
use hetkg_embed::models::KgeModel;
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use hetkg_netsim::{
    CompressionMode, CompressionStats, CostModel, Lane, Timeline, TrafficMeter, TrafficSnapshot,
};
use hetkg_ps::optimizer::Optimizer;
use hetkg_ps::{PsClient, PsScratch, RpcError};
use std::sync::Arc;

/// What one worker reports for one epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerEpochStats {
    /// Kernel work units this worker performed (converted to simulated
    /// compute time by the cost model, so results are host-independent).
    pub work_units: u64,
    /// Real wall time of this worker's epoch, seconds (diagnostic only —
    /// on hosts with fewer cores than simulated workers it reflects
    /// scheduling, not the simulated cluster).
    pub wall_secs: f64,
    /// Traffic generated this epoch (meter delta).
    pub traffic: TrafficSnapshot,
    /// Cache hits/misses this epoch.
    pub cache: CacheStats,
    /// Summed loss over loss terms.
    pub loss_sum: f64,
    /// Number of loss terms (for averaging).
    pub loss_terms: usize,
    /// Largest cache-vs-global L2 divergence observed at sync points this
    /// epoch (0 for cacheless systems) — the empirical bounded-staleness
    /// signal of §IV-C.
    pub max_divergence: f64,
    /// Mean per-key divergence across this epoch's sync events (0 for
    /// cacheless systems).
    pub mean_divergence: f64,
    /// Largest cache staleness (iterations since sync) this worker has
    /// observed so far in the run (0 for cacheless systems).
    pub max_staleness: usize,
    /// This epoch's two-lane critical path in simulated seconds: the
    /// makespan of the worker's comm and compute lanes under the pipelined
    /// schedule. Zero when overlap accounting is disabled.
    pub critical_path_secs: f64,
    /// What the hot table held and cost this epoch (zero for cacheless
    /// systems), and how the pipeline split the staged pulls.
    pub table: TableEconomy,
}

/// What every training loop does when a PS operation it cannot train
/// without still fails after the client's retries: stop the run. A push an
/// overloaded shard shed is not that case — the HET-KG worker defers those
/// into its backlog before anything reaches this.
pub(crate) fn retries_exhausted(op: &str, err: RpcError) -> ! {
    panic!("ps {op} failed after retries: {err}")
}

/// Everything a worker needs regardless of system.
pub struct WorkerCtx {
    /// This worker's id.
    pub worker_id: usize,
    /// Triples homed at this worker.
    pub subgraph: Vec<Triple>,
    /// The graph's key space.
    pub key_space: KeySpace,
    /// Metered PS connection.
    pub client: PsClient,
    /// This worker's traffic meter (shared with `client`).
    pub meter: Arc<TrafficMeter>,
    /// Score function.
    pub model: Arc<dyn KgeModel>,
    /// Loss.
    pub loss: LossKind,
    /// Server-side optimizer (also used for local cache updates).
    pub optimizer: Arc<dyn Optimizer>,
    /// Positives per mini-batch.
    pub batch_size: usize,
    /// Iterations per epoch (ceil(subgraph / batch_size), min 1).
    pub iterations_per_epoch: usize,
    /// The in-flight batch's embedding rows, one per plan slot.
    pub ws: WorkingSet,
    /// Reusable gradient accumulator.
    pub grads: GradAccum,
    /// The compiled batch in flight (`scratch.plan`) and the kernel's
    /// reusable buffers.
    pub scratch: BatchScratch,
    /// Reusable PS frame/plan buffers (batched calls allocate nothing at
    /// steady state).
    pub ps: PsScratch,
    /// Cost model turning meter deltas and work units into durations for
    /// the timeline (the trainer passes its own; defaults to gigabit).
    pub cost: CostModel,
    /// Whether overlap accounting is on. Off, the timeline is never posted
    /// to and every report field matches the pre-timeline sequential
    /// accounting bit for bit.
    pub overlap: bool,
    /// This worker's two-lane schedule (comm, compute).
    pub timeline: Timeline,
    /// Reusable buffers for batched pushes: the touched slots in key order
    /// and their keys.
    push_slots: Vec<u32>,
    push_keys: Vec<ParamKey>,
    /// Cumulative per-lane busy seconds at epoch start ([comm, compute]),
    /// so the adaptive compression policy sees this epoch's occupancy
    /// delta rather than the whole run's.
    epoch_busy: [f64; 2],
}

impl WorkerCtx {
    /// Build a context; `iterations_per_epoch` is derived from the subgraph
    /// size and batch size.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        worker_id: usize,
        subgraph: Vec<Triple>,
        key_space: KeySpace,
        client: PsClient,
        meter: Arc<TrafficMeter>,
        model: Arc<dyn KgeModel>,
        loss: LossKind,
        optimizer: Arc<dyn Optimizer>,
        batch_size: usize,
    ) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let iterations_per_epoch = subgraph.len().div_ceil(batch_size).max(1);
        Self {
            worker_id,
            subgraph,
            key_space,
            client,
            meter,
            model,
            loss,
            optimizer,
            batch_size,
            iterations_per_epoch,
            ws: WorkingSet::new(),
            grads: GradAccum::new(),
            scratch: BatchScratch::default(),
            ps: PsScratch::new(),
            cost: CostModel::gigabit(),
            overlap: false,
            timeline: Timeline::pipelined(),
            push_slots: Vec::new(),
            push_keys: Vec::new(),
            epoch_busy: [0.0; 2],
        }
    }

    /// Configure the timing model: the cost model pricing this worker's
    /// timeline events, and whether overlap accounting is enabled.
    pub fn with_timing(mut self, cost: CostModel, overlap: bool) -> Self {
        self.cost = cost;
        self.overlap = overlap;
        self
    }

    /// Select the push-path compression mode. The compressor lives in this
    /// worker's [`PsScratch`], so every push this worker issues — a batch's
    /// gradients or a backlog flush — threads through it without further
    /// plumbing. [`CompressionMode::Off`] leaves pushes dense.
    pub fn with_compression(mut self, mode: CompressionMode) -> Self {
        self.ps.set_compression(mode);
        self
    }

    /// Lay the working set and the gradient accumulator out by the compiled
    /// batch (`scratch.plan`): one row per slot, the working set's to be
    /// filled by cache copies and [`WorkerCtx::pull_into_ws`], the
    /// accumulator's all untouched.
    pub fn begin_batch(&mut self) {
        self.ws.reset(self.scratch.plan.layout());
        self.grads.reset(self.scratch.plan.layout());
    }

    /// Pull `keys` from the PS (one coalesced request) straight into the
    /// working-set rows `slots` (parallel to `keys`). Returns the
    /// operation's metered traffic for timeline posting.
    pub fn pull_into_ws(&mut self, keys: &[ParamKey], slots: &[u32]) -> TrafficSnapshot {
        debug_assert_eq!(keys.len(), slots.len());
        let before = self.meter.snapshot();
        let ws = &mut self.ws;
        self.client
            .try_pull_batch_with(keys, &mut self.ps, |i, row| {
                ws.row_mut(slots[i]).copy_from_slice(row)
            })
            .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
        self.meter.snapshot().since(before)
    }

    /// Score and differentiate the compiled batch (`scratch.plan`) over the
    /// working set into the accumulator.
    pub fn compute(&mut self) -> BatchResult {
        compute_planned(
            self.model.as_ref(),
            self.loss,
            &self.ws,
            &mut self.grads,
            &mut self.scratch,
        )
    }

    /// Push every accumulated gradient to the PS (coalesced, in key order),
    /// then clear the accumulator. Returns the operation's metered traffic
    /// for timeline posting.
    pub fn push_grads(&mut self) -> TrafficSnapshot {
        let before = self.meter.snapshot();
        self.grads.sorted_slots_into(&mut self.push_slots);
        let (grads, slots) = (&self.grads, &self.push_slots);
        self.push_keys.clear();
        self.push_keys
            .extend(slots.iter().map(|&s| grads.key_at(s)));
        self.client
            .try_push_batch_rows(
                &self.push_keys,
                |i| grads.row_at(slots[i]),
                self.optimizer.as_ref(),
                &mut self.ps,
            )
            .unwrap_or_else(|e| retries_exhausted("push_batch", e));
        self.grads.clear();
        self.meter.snapshot().since(before)
    }

    /// Post a metered comm operation to the timeline's comm lane, not
    /// starting before `after` (the completion time of the event whose
    /// output it carries; `0.0` when none). Returns the operation's
    /// completion time, or `0.0` when overlap accounting is off (the
    /// timeline is untouched, preserving sequential accounting exactly).
    pub fn post_comm(&mut self, delta: TrafficSnapshot, after: f64) -> f64 {
        if !self.overlap {
            return 0.0;
        }
        let duration = delta.simulated_time(&self.cost);
        self.timeline.post(Lane::Comm, duration, after)
    }

    /// Post a kernel block of `work_units` to the compute lane, not
    /// starting before `after` (its input pull's completion). Returns its
    /// completion time, or `0.0` when overlap accounting is off.
    pub fn post_compute(&mut self, work_units: u64, after: f64) -> f64 {
        if !self.overlap {
            return 0.0;
        }
        let duration = self.cost.compute_time(work_units);
        self.timeline.post(Lane::Compute, duration, after)
    }

    /// Mark the start of an epoch on the timeline (no-op when overlap
    /// accounting is off).
    pub fn begin_epoch_timing(&mut self) {
        if self.overlap {
            self.timeline.begin_epoch();
            self.epoch_busy = [
                self.timeline.busy(Lane::Comm),
                self.timeline.busy(Lane::Compute),
            ];
        }
    }

    /// Close the epoch on the timeline and return its critical path
    /// (`0.0` when overlap accounting is off). The epoch's comm/compute
    /// lane occupancy is fed to the adaptive compression policy here:
    /// "tighten only when the comm lane is critical" is judged on exactly
    /// the occupancy the pipeline timeline measured. Fixed compression
    /// modes (and overlap-off runs, which post no lane time) are
    /// unaffected.
    pub fn end_epoch_timing(&mut self) -> f64 {
        if self.overlap {
            let cp = self.timeline.end_epoch();
            let comm = self.timeline.busy(Lane::Comm) - self.epoch_busy[0];
            let compute = self.timeline.busy(Lane::Compute) - self.epoch_busy[1];
            self.ps.adapt_compression(comm, compute);
            cp
        } else {
            0.0
        }
    }

    /// Advance the fault injector's simulated clock by this worker's compute
    /// (no-op without fault injection). Keeping the clock moving is what
    /// places outage/straggler windows correctly relative to the workload.
    pub fn advance_fault_clock(&self, work_units: u64) {
        if let Some(f) = self.client.faults() {
            f.advance_compute(work_units);
        }
    }
}

/// The pull of a batch that has been drawn but is not in flight yet, split
/// per key: a key the in-flight batch does not touch — that batch's key set
/// bounds its push's write set — is pulled ahead, behind the in-flight
/// compute; a key it does touch, when the batch is consumed, after that
/// push. "Ahead" is where the pull sits on the timeline: staging books its
/// duration on the comm lane, and the frames are carried once, when the
/// batch is consumed, so every row trained on is the one its shard answered
/// with then, on either backend. Against the sequential schedule's one
/// pull: the same rows, the same bytes per lane and per cause, and at most
/// one message more per shard — one holding keys of both halves is sent two
/// frames.
///
/// Two kinds of key ride in it. *Plain* keys are the batch's rows nobody
/// caches, each bound for a working-set slot. *Fresh* keys are rows a table
/// rebuild is about to cache: asked about with nothing held, so each comes
/// back with the version it will be held under, and handed to the caller's
/// sink rather than to a slot. A fresh key waits for consume time only when
/// a batch is in flight and writes it; with nothing in flight the fresh keys
/// go in a message of their own, as a construction always has — posted when
/// it is carried, like everything the sequential schedule sends, so that a
/// faulty run's retransmissions are on the timeline. Whichever message
/// carries a fresh row, its bytes are construction's.
#[derive(Debug, Default)]
pub struct StagedPull {
    /// Keys pulled in the early message — the plain ones, then the fresh
    /// ones — and the plain ones' working-set slots.
    early: Vec<ParamKey>,
    early_slots: Vec<u32>,
    /// Keys (plain, then fresh) and slots (of the plain ones) left for the
    /// consume-time request.
    late: Vec<ParamKey>,
    late_slots: Vec<u32>,
    /// What the early pull was booked as when it was booked ahead, and must
    /// then be metered as.
    booked: Option<TrafficSnapshot>,
    /// Timeline completion of the early pull (0 when none).
    pull_end: f64,
}

impl StagedPull {
    /// Split `keys` (each with the slot its row goes to) and, with
    /// `pull_ahead`, book the early keys' pull on the comm lane now — what
    /// the client says it will be metered as; nothing is sent — and add the
    /// split to `economy`. Without `pull_ahead` every key waits for
    /// `deliver`: the sequential schedule, which is not a split and is not
    /// counted. The in-flight batch is `ctx.scratch.plan`.
    pub fn stage(
        &mut self,
        ctx: &mut WorkerCtx,
        keys: impl Iterator<Item = (ParamKey, u32)>,
        pull_ahead: bool,
        economy: &mut TableEconomy,
    ) {
        self.stage_with_fresh(ctx, keys, std::iter::empty(), pull_ahead);
        if pull_ahead {
            economy.staged_early += self.early.len() as u64;
            economy.staged_late += self.late.len() as u64;
        }
    }

    /// [`StagedPull::stage`], uncounted, with the `fresh` rows of a table
    /// rebuild: with `pull_ahead`, split like the plain keys and in the same
    /// messages; without — nothing is in flight — all in the early message,
    /// which is then posted when it is delivered.
    pub fn stage_with_fresh(
        &mut self,
        ctx: &mut WorkerCtx,
        keys: impl Iterator<Item = (ParamKey, u32)>,
        fresh: impl Iterator<Item = ParamKey>,
        pull_ahead: bool,
    ) {
        self.early.clear();
        self.early_slots.clear();
        self.late.clear();
        self.late_slots.clear();
        self.booked = None;
        self.pull_end = 0.0;
        let in_flight = &ctx.scratch.plan;
        for (k, slot) in keys {
            let (to, to_slots) = if pull_ahead && !in_flight.contains(k) {
                (&mut self.early, &mut self.early_slots)
            } else {
                (&mut self.late, &mut self.late_slots)
            };
            to.push(k);
            to_slots.push(slot);
        }
        for k in fresh {
            let to = if pull_ahead && in_flight.contains(k) {
                &mut self.late
            } else {
                &mut self.early
            };
            to.push(k);
        }
        if pull_ahead && !self.early.is_empty() {
            let fresh = self.early.len() - self.early_slots.len();
            let booked = ctx.client.staged_pull_cost(&self.early, fresh, &mut ctx.ps);
            self.pull_end = ctx.post_comm(booked, 0.0);
            self.booked = Some(booked);
        }
    }

    /// What is left for consume time, for a caller whose consume-time
    /// request carries more than a plain pull (a HET-KG sync, the rows of a
    /// rebuild) and who sends it itself after [`StagedPull::deliver_early`]:
    /// the plain keys, their slots, and the fresh keys.
    pub fn late(&self) -> (&[ParamKey], &[u32], &[ParamKey]) {
        let (plain, fresh) = self.late.split_at(self.late_slots.len());
        (plain, &self.late_slots, fresh)
    }

    /// How many fresh keys were staged, early and late.
    pub fn fresh(&self) -> usize {
        (self.early.len() - self.early_slots.len()) + (self.late.len() - self.late_slots.len())
    }

    /// Carry the early message now, so staged rows observe every push that
    /// landed since, other workers' included: plain rows into the working
    /// set (already laid out for the batch), fresh rows to `on_fresh(key,
    /// version, row)`. Metered here; posted here too unless it was booked
    /// ahead. Returns the timeline completion of the early pull.
    pub fn deliver_early(
        &self,
        ctx: &mut WorkerCtx,
        mut on_fresh: impl FnMut(ParamKey, u32, &[f32]),
    ) -> f64 {
        if self.early.is_empty() {
            return self.pull_end;
        }
        let before = ctx.meter.snapshot();
        let (keys, slots, ws) = (&self.early, &self.early_slots, &mut ctx.ws);
        let fresh = keys.len() - slots.len();
        ctx.client
            .try_pull_newer_with(
                keys,
                fresh,
                &[],
                &mut ctx.ps,
                |i, version, row| match slots.get(i) {
                    Some(&slot) => ws.row_mut(slot).copy_from_slice(row),
                    None => on_fresh(keys[i], version, row),
                },
            )
            .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
        let metered = ctx.meter.snapshot().since(before);
        match self.booked {
            Some(booked) => {
                debug_assert_eq!(
                    metered, booked,
                    "the early pull was booked as it is metered"
                );
                self.pull_end
            }
            None => ctx.post_comm(metered, 0.0),
        }
    }

    /// Deliver every row of a pull that staged plain keys only: the early
    /// keys, then the late keys, both pulled now, after the previous push.
    /// Returns the timeline completion of the whole pull.
    pub fn deliver(&self, ctx: &mut WorkerCtx) -> f64 {
        let mut pull_end = self.deliver_early(ctx, |k, _, _| unreachable!("{k} staged as fresh"));
        let (late, late_slots, fresh) = self.late();
        debug_assert!(fresh.is_empty(), "fresh rows need the caller's request");
        if !late.is_empty() {
            let delta = ctx.pull_into_ws(late, late_slots);
            pull_end = pull_end.max(ctx.post_comm(delta, 0.0));
        }
        pull_end
    }
}

/// Book-keeping carried across [`WorkerLoop::step`] calls within one epoch.
#[derive(Default)]
pub struct EpochRun {
    /// Meter reading at epoch start (stats report the delta).
    pub start_traffic: TrafficSnapshot,
    /// Real wall-clock epoch start (diagnostic only).
    pub started: Option<std::time::Instant>,
    /// Accumulated batch results so far this epoch.
    pub acc: BatchResult,
    /// Units (iterations or buckets) completed so far this epoch.
    pub unit: usize,
}

impl EpochRun {
    /// Reset for a fresh epoch starting now.
    pub fn begin(&mut self, start_traffic: TrafficSnapshot) {
        self.start_traffic = start_traffic;
        self.started = Some(std::time::Instant::now());
        self.acc = BatchResult::default();
        self.unit = 0;
    }

    /// Real seconds since [`EpochRun::begin`] (diagnostic only).
    pub fn wall_secs(&self) -> f64 {
        self.started.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }
}

/// One system's per-worker training loop, driven one *unit* of work at a
/// time (a mini-batch iteration, or a PBG bucket). State (caches, RNGs,
/// iteration counters) persists across epochs inside the implementor.
///
/// The trainer interleaves `step` calls across workers in a fixed
/// round-robin, which makes the order of every parameter-server read and
/// write a pure function of the config — the reproducibility contract the
/// differential tests (and the divergence oracle) assert bit-for-bit.
/// Simulated parallelism lives in the per-worker timelines and cost model,
/// not in host threads, so serializing the steps changes no reported time.
pub trait WorkerLoop: Send {
    /// Start an epoch: snapshot meters, reset accumulators.
    fn begin_epoch(&mut self, epoch: usize);

    /// Run the next unit of this epoch. Returns `false` (doing nothing)
    /// when no units remain.
    fn step(&mut self) -> bool;

    /// Close the epoch started by [`WorkerLoop::begin_epoch`] and report
    /// its stats.
    fn finish_epoch(&mut self) -> WorkerEpochStats;

    /// Cumulative push-compression counters for this worker's run so far
    /// (zeros when compression is off). Systems that own a [`WorkerCtx`]
    /// surface its scratch's stats; the default covers loops that never
    /// push.
    fn compression_stats(&self) -> CompressionStats {
        CompressionStats::default()
    }

    /// Run one whole epoch and report stats (single-worker convenience;
    /// the trainer drives the step protocol directly).
    fn run_epoch(&mut self, epoch: usize) -> WorkerEpochStats {
        self.begin_epoch(epoch);
        while self.step() {}
        self.finish_epoch()
    }
}

/// The pipeline's traffic contract, for the differential tests: against the
/// sequential schedule's `seq`, `pipe` moved the same bytes — per lane, per
/// cause, push breakdown included — in at least as many messages and at
/// most `max_extra` more.
#[cfg(test)]
pub(crate) fn assert_same_bytes_more_messages(
    seq: TrafficSnapshot,
    pipe: TrafficSnapshot,
    max_extra: u64,
    what: &str,
) {
    let bytes_of = |t: TrafficSnapshot| TrafficSnapshot {
        local_messages: 0,
        remote_messages: 0,
        ..t
    };
    assert_eq!(bytes_of(seq), bytes_of(pipe), "{what}: bytes moved");
    assert!(
        pipe.local_messages >= seq.local_messages && pipe.remote_messages >= seq.remote_messages,
        "{what}: the split dropped a message ({seq:?} vs {pipe:?})"
    );
    let extra =
        (pipe.local_messages + pipe.remote_messages) - (seq.local_messages + seq.remote_messages);
    assert!(
        extra <= max_extra,
        "{what}: {extra} extra messages, at most {max_extra} allowed"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_core::prefetch::MiniBatch;
    use hetkg_embed::init::Init;
    use hetkg_embed::ModelKind;
    use hetkg_netsim::{ClusterTopology, FaultInjector, FaultPlan};
    use hetkg_ps::optimizer::Sgd;
    use hetkg_ps::{KvStore, ShardRouter, SimTransport};
    use proptest::prelude::*;

    fn ctx() -> WorkerCtx {
        ctx_on(1).0
    }

    /// A `machines`-shard table whose rows are a function of `seed`.
    fn store_on(machines: usize, seed: u64) -> Arc<KvStore> {
        let router = ShardRouter::round_robin(KeySpace::new(10, 2), machines);
        let init = Init::Uniform { bound: 0.2 };
        Arc::new(KvStore::new(router, 4, 4, 0, init, seed))
    }

    /// Worker 0's context on a `machines`-shard store, and the store (so a
    /// test can attach another worker's client to it).
    fn ctx_on(machines: usize) -> (WorkerCtx, Arc<KvStore>) {
        let store = store_on(machines, 1);
        let ks = store.router().key_space();
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(
            0,
            ClusterTopology::new(machines, 1),
            store.clone(),
            meter.clone(),
        );
        let subgraph = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
            Triple::new(2, 0, 3),
        ];
        let ctx = WorkerCtx::new(
            0,
            subgraph,
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(4).into(),
            LossKind::Logistic,
            Arc::new(Sgd { lr: 0.1 }),
            2,
        );
        (ctx, store)
    }

    /// A working set holding exactly `keys` (all rows are 4 wide here),
    /// zeroed, and the slots in key order.
    fn lay_out(c: &mut WorkerCtx, keys: &[ParamKey]) -> Vec<u32> {
        c.ws.clear();
        for &k in keys {
            c.ws.insert(k, &[0.0; 4]);
        }
        (0..keys.len() as u32).collect()
    }

    /// Pull `keys` into a working set holding exactly them.
    fn pull(c: &mut WorkerCtx, keys: &[ParamKey]) -> TrafficSnapshot {
        let slots = lay_out(c, keys);
        c.pull_into_ws(keys, &slots)
    }

    /// The working set's rows in slot order, bit for bit.
    fn ws_bits(c: &WorkerCtx, slots: &[u32]) -> Vec<Vec<u32>> {
        slots
            .iter()
            .map(|&s| c.ws.row(s).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn iterations_per_epoch_is_ceil() {
        let c = ctx();
        assert_eq!(c.iterations_per_epoch, 2); // ceil(3 / 2)
    }

    #[test]
    fn pull_into_ws_fetches_rows() {
        let mut c = ctx();
        let batch = MiniBatch {
            positives: vec![Triple::new(0, 0, 1)],
            negatives: vec![],
        };
        c.scratch.plan.compile(&batch, c.key_space, 4, 4);
        c.begin_batch();
        let keys = c.scratch.plan.keys().to_vec();
        assert_eq!(keys, [ParamKey(0), ParamKey(10), ParamKey(1)]);
        c.pull_into_ws(&keys, &[0, 1, 2]);
        assert_eq!(c.ws.len(), 3);
        let mut want = [0.0f32; 4];
        for (slot, &k) in keys.iter().enumerate() {
            c.client
                .try_pull_batch_with(&[k], &mut PsScratch::new(), |_, row| {
                    want.copy_from_slice(row)
                })
                .unwrap();
            assert_eq!(c.ws.row(slot as u32), want);
            assert_eq!(c.ws.get(k), want);
        }
        assert!(c.meter.snapshot().total_bytes() > 0);
    }

    #[test]
    fn staged_pull_delivers_the_same_rows_as_a_direct_pull() {
        let (c, _) = ctx_on(2);
        let mut c = c.with_timing(CostModel::gigabit(), true);
        // Mixed kinds are fine: entities on both shards and a relation key.
        let keys = [0u64, 3, 10, 1].map(ParamKey);
        let unsplit = pull(&mut c, &keys);
        let slots: Vec<u32> = (0..keys.len() as u32).collect();
        let direct = ws_bits(&c, &slots);

        lay_out(&mut c, &keys);
        let before = c.meter.snapshot();
        let mut staged = StagedPull::default();
        let mut economy = TableEconomy::default();
        // Nothing is in flight, so every key goes ahead.
        let pairs = keys.iter().copied().zip(slots.iter().copied());
        staged.stage(&mut c, pairs, true, &mut economy);
        assert_eq!(staged.early, keys);
        assert!(staged.late.is_empty());
        assert_eq!(c.meter.snapshot(), before, "nothing transits at stage");
        let booked = unsplit.simulated_time(&c.cost);
        assert!(booked > 0.0);
        assert_eq!(
            c.timeline.busy(Lane::Comm),
            booked,
            "the pull's slot on the comm lane is taken at stage"
        );
        let pull_end = staged.deliver(&mut c);
        assert_eq!(
            c.meter.snapshot().since(before),
            unsplit,
            "the direct pull's frames are metered at deliver"
        );
        assert_eq!(
            (c.timeline.busy(Lane::Comm), pull_end),
            (booked, booked),
            "a booked pull is not posted again"
        );
        assert_eq!(ws_bits(&c, &slots), direct);
    }

    #[test]
    fn every_delivered_row_is_the_one_the_transport_answered_with() {
        let (mut c, store) = ctx_on(2);
        // The shards the transport reaches hold other rows than the
        // client's in-process store.
        let served = store_on(2, 2);
        c.client = c
            .client
            .with_transport(Arc::new(SimTransport(served.clone())));
        put_in_flight(&mut c);
        // Entity 0 and relation 0 are in flight, so they wait; the rest go
        // ahead.
        let keys = [1u64, 0, 3, 10, 4].map(ParamKey);
        let slots = lay_out(&mut c, &keys);
        let mut staged = StagedPull::default();
        let pairs = keys.iter().copied().zip(slots.iter().copied());
        staged.stage(&mut c, pairs, true, &mut TableEconomy::default());
        assert_eq!(staged.early, [ParamKey(1), ParamKey(3), ParamKey(4)]);
        assert_eq!(staged.late, [ParamKey(0), ParamKey(10)]);
        staged.deliver(&mut c);
        let (mut answered, mut mirrored) = ([0.0f32; 4], [0.0f32; 4]);
        for (&k, &slot) in keys.iter().zip(&slots) {
            served.pull(k, &mut answered);
            store.pull(k, &mut mirrored);
            assert_ne!(answered, mirrored);
            assert_eq!(c.ws.row(slot), answered, "{k}");
        }
    }

    /// In flight: entities 0 and 2 (both on shard 0) and relation 0.
    fn put_in_flight(c: &mut WorkerCtx) {
        let batch = MiniBatch {
            positives: vec![Triple::new(0, 0, 2)],
            negatives: vec![],
        };
        c.scratch.plan.compile(&batch, c.key_space, 4, 4);
    }

    #[test]
    fn staged_pull_observes_pushes_landed_between_stage_and_deliver() {
        let (mut c, store) = ctx_on(2);
        let other = PsClient::new(
            1,
            ClusterTopology::new(2, 1),
            store,
            Arc::new(TrafficMeter::new()),
        );
        put_in_flight(&mut c);
        // Key 0 is written by the in-flight batch, so it waits — alone: key
        // 4 shares its shard and goes ahead with shard 1's keys 1 and 3.
        let keys = [1u64, 0, 3, 4].map(ParamKey);
        assert_eq!(c.client.shard_of(keys[1]), c.client.shard_of(keys[3]));
        let slots = lay_out(&mut c, &keys);
        let before = c.meter.snapshot();
        let mut staged = StagedPull::default();
        let mut economy = TableEconomy::default();
        let pairs = keys.iter().copied().zip(slots.iter().copied());
        staged.stage(&mut c, pairs, true, &mut economy);
        assert_eq!(staged.early, [ParamKey(1), ParamKey(3), ParamKey(4)]);
        assert_eq!(staged.early_slots, [0, 2, 3]);
        assert_eq!(staged.late(), (&[ParamKey(0)][..], &[1u32][..], &[][..]));
        // Another worker's push lands between stage and deliver, on an
        // early key and on the late one.
        let g = [1.0f32; 4];
        other
            .try_push_batch_with(
                &[ParamKey(3), ParamKey(0)],
                &[&g, &g],
                &Sgd { lr: 1.0 },
                &mut PsScratch::new(),
            )
            .unwrap();
        staged.deliver(&mut c);
        let split = c.meter.snapshot().since(before);
        let delivered = ws_bits(&c, &slots);
        // A sequential pull at the deliver point: same rows, same bytes, and
        // one message fewer — shard 0 was sent an early and a late frame.
        let unsplit = pull(&mut c, &keys);
        assert_eq!(delivered, ws_bits(&c, &slots));
        assert_same_bytes_more_messages(unsplit, split, 1, "split pull");
        assert_eq!(
            split.local_messages + split.remote_messages,
            unsplit.local_messages + unsplit.remote_messages + 1
        );
    }

    #[test]
    fn without_pull_ahead_every_key_waits_for_delivery() {
        let (mut c, _) = ctx_on(2);
        put_in_flight(&mut c);
        let keys = [1u64, 0, 3, 4].map(ParamKey);
        let slots = lay_out(&mut c, &keys);
        let before = c.meter.snapshot();
        let mut staged = StagedPull::default();
        let mut economy = TableEconomy::default();
        let pairs = keys.iter().copied().zip(slots.iter().copied());
        staged.stage(&mut c, pairs, false, &mut economy);
        assert_eq!(economy, TableEconomy::default(), "not a split");
        assert_eq!(staged.late(), (&keys[..], &slots[..], &[][..]));
        assert_eq!(c.meter.snapshot(), before, "nothing transits at stage");
        staged.deliver(&mut c);
        let late = c.meter.snapshot().since(before);
        assert_eq!(late, pull(&mut c, &keys), "the sequential pull");
    }

    /// The rule this one replaced, kept as the reference the per-key split
    /// is pinned against: a shard's keys go early only when the in-flight
    /// batch touches none of them.
    fn per_shard_split(c: &WorkerCtx, keys: &[ParamKey]) -> (Vec<ParamKey>, Vec<ParamKey>) {
        let mut dirty = vec![false; c.client.num_shards()];
        for &k in keys {
            if c.scratch.plan.contains(k) {
                dirty[c.client.shard_of(k)] = true;
            }
        }
        keys.iter().partition(|&&k| !dirty[c.client.shard_of(k)])
    }

    proptest! {
        /// On random in-flight batches and staged key lists: the late keys
        /// are exactly the input's keys in flight and the early keys the
        /// rest, both in input order; everything the per-shard rule sent
        /// early still goes early; and the delivered rows and bytes are the
        /// sequential pull's, in at most one more message per shard.
        #[test]
        fn per_key_split_partitions_the_input_and_contains_the_per_shard_split(
            machines in 1usize..5,
            in_flight in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 0..4),
            staged_keys in prop::collection::vec(0u64..12, 0..12),
        ) {
            let (mut c, _) = ctx_on(machines);
            let batch = MiniBatch {
                positives: in_flight.iter().map(|&(h, r, t)| Triple::new(h, r, t)).collect(),
                negatives: vec![],
            };
            c.scratch.plan.compile(&batch, c.key_space, 4, 4);
            let mut keys: Vec<ParamKey> = Vec::new();
            for k in staged_keys.into_iter().map(ParamKey) {
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let slots = lay_out(&mut c, &keys);
            let before = c.meter.snapshot();
            let mut staged = StagedPull::default();
            let mut economy = TableEconomy::default();
            let pairs = keys.iter().copied().zip(slots.iter().copied());
            staged.stage(&mut c, pairs, true, &mut economy);
            prop_assert_eq!(
                (economy.staged_early, economy.staged_late),
                (staged.early.len() as u64, staged.late.len() as u64)
            );
            staged.deliver(&mut c);
            let split = c.meter.snapshot().since(before);

            let pairs = |ks: &[ParamKey], ss: &[u32]| -> Vec<(ParamKey, u32)> {
                ks.iter().copied().zip(ss.iter().copied()).collect()
            };
            let early = pairs(&staged.early, &staged.early_slots);
            let late = pairs(&staged.late, &staged.late_slots);
            let input = pairs(&keys, &slots);
            let expect = |late_half: bool| -> Vec<(ParamKey, u32)> {
                let half = |&(k, _): &(ParamKey, u32)| c.scratch.plan.contains(k) == late_half;
                input.iter().copied().filter(half).collect()
            };
            prop_assert_eq!(&early, &expect(false));
            prop_assert_eq!(&late, &expect(true));

            let (ref_early, ref_late) = per_shard_split(&c, &keys);
            prop_assert!(ref_early.iter().all(|k| staged.early.contains(k)));
            prop_assert!(staged.late.iter().all(|k| ref_late.contains(k)));
            prop_assert_eq!(ref_early.len() + ref_late.len(), keys.len());

            let delivered = ws_bits(&c, &slots);
            let unsplit = pull(&mut c, &keys);
            prop_assert_eq!(delivered, ws_bits(&c, &slots));
            assert_same_bytes_more_messages(unsplit, split, machines as u64, "split pull");
        }
    }

    #[test]
    #[should_panic(
        expected = "ps pull_batch failed after retries: message dropped on all 8 attempts"
    )]
    fn a_pull_that_exhausts_its_retries_stops_the_run() {
        let (mut c, _) = ctx_on(2);
        // Every remote message is lost, so the pull of a key on shard 1
        // runs out of attempts.
        let inj = FaultInjector::new(FaultPlan::lossy(0, 1.0), CostModel::gigabit(), 0);
        c.client = c.client.with_faults(Arc::new(inj));
        pull(&mut c, &[ParamKey(1)]);
    }

    #[test]
    fn push_grads_clears_accumulator() {
        let mut c = ctx();
        c.grads.add(ParamKey(0), &[1.0, 0.0, 0.0, 0.0]);
        let delta = c.push_grads();
        assert!(c.grads.is_empty());
        assert!(delta.total_bytes() > 0, "push traffic is returned");
    }

    #[test]
    fn timing_disabled_never_touches_the_timeline() {
        let mut c = ctx();
        assert!(!c.overlap);
        let delta = pull(&mut c, &[ParamKey(0)]);
        assert_eq!(c.post_comm(delta, 0.0), 0.0);
        assert_eq!(c.post_compute(1_000, 5.0), 0.0);
        c.begin_epoch_timing();
        assert_eq!(c.end_epoch_timing(), 0.0);
        assert_eq!(c.timeline.now(), 0.0);
    }

    #[test]
    fn timing_enabled_builds_a_critical_path() {
        let mut c = ctx().with_timing(CostModel::gigabit(), true);
        c.begin_epoch_timing();
        let delta = pull(&mut c, &[ParamKey(0), ParamKey(3)]);
        let pull_end = c.post_comm(delta, 0.0);
        assert!(pull_end > 0.0);
        let compute_end = c.post_compute(2_000_000, pull_end);
        assert!(compute_end > pull_end);
        c.grads.add(ParamKey(0), &[1.0, 0.0, 0.0, 0.0]);
        let push = c.push_grads();
        let push_end = c.post_comm(push, compute_end);
        assert!(push_end > compute_end);
        let cp = c.end_epoch_timing();
        assert!(
            (cp - push_end).abs() < 1e-15,
            "fully serial chain: cp is the chain end"
        );
    }
}
