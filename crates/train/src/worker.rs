//! Shared worker machinery: the per-worker context every system's training
//! loop builds on, and the per-epoch stats workers hand back to the trainer.

use crate::batch::{compute_planned, BatchResult, BatchScratch, GradAccum, WorkingSet};
use hetkg_core::metrics::CacheStats;
use hetkg_embed::loss::LossKind;
use hetkg_embed::models::KgeModel;
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use hetkg_netsim::{
    CompressionMode, CompressionStats, CostModel, Lane, Timeline, TrafficMeter, TrafficSnapshot,
};
use hetkg_ps::optimizer::Optimizer;
use hetkg_ps::{PsClient, PsScratch};
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
    /// worker's [`PsScratch`], so every push this worker issues — batched,
    /// single-key, or backlog flush — threads through it without further
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
        self.client.pull_batch_with(keys, &mut self.ps, |i, row| {
            ws.row_mut(slots[i]).copy_from_slice(row)
        });
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
        self.client.push_batch_rows(
            &self.push_keys,
            |i| grads.row_at(slots[i]),
            self.optimizer.as_ref(),
            &mut self.ps,
        );
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
            f.injector.advance_compute(work_units);
        }
    }
}

/// The pull of a batch that has been drawn but is not in flight yet, split
/// per shard: frames the in-flight batch cannot invalidate are issued ahead
/// (their network time hides behind the in-flight compute), the rest are
/// pulled when the batch is consumed. A shard's keys go early only if the
/// in-flight batch — whose key set bounds its push's write set — touches
/// none of them; whole-frame granularity keeps early + late an exact
/// partition of the frames one sequential pull would send, so metered
/// traffic is bit-identical either way.
#[derive(Debug, Default)]
pub struct StagedPull {
    /// Keys pulled ahead, their working-set slots, and their parked rows
    /// (flat, key order).
    early: Vec<ParamKey>,
    early_slots: Vec<u32>,
    rows: Vec<f32>,
    /// Keys (and slots) pulled at consume time.
    late: Vec<ParamKey>,
    late_slots: Vec<u32>,
    /// Scratch: per-shard "pull at consume time" flags.
    dirty: Vec<bool>,
    /// Timeline completion of the early pull (0 when none).
    pull_end: f64,
}

impl StagedPull {
    /// Split `keys` (each with the slot its row goes to) and, with
    /// `pull_ahead`, issue the early frames now; without, every key waits
    /// for [`StagedPull::deliver`] — the sequential schedule. The in-flight
    /// batch is `ctx.scratch.plan`.
    pub fn stage(
        &mut self,
        ctx: &mut WorkerCtx,
        keys: impl Iterator<Item = (ParamKey, u32)> + Clone,
        pull_ahead: bool,
    ) {
        let client = &ctx.client;
        self.dirty.clear();
        self.dirty.resize(client.num_shards(), !pull_ahead);
        if pull_ahead {
            for (k, _) in keys.clone() {
                if ctx.scratch.plan.contains(k) {
                    self.dirty[client.shard_of(k)] = true;
                }
            }
        }
        self.early.clear();
        self.early_slots.clear();
        self.late.clear();
        self.late_slots.clear();
        self.pull_end = 0.0;
        for (k, slot) in keys {
            let (to, to_slots) = if self.dirty[client.shard_of(k)] {
                (&mut self.late, &mut self.late_slots)
            } else {
                (&mut self.early, &mut self.early_slots)
            };
            to.push(k);
            to_slots.push(slot);
        }
        if self.early.is_empty() {
            return;
        }
        match client.try_pull_batch_issue(&self.early, &mut ctx.ps, &mut self.rows) {
            Ok(delta) => self.pull_end = ctx.post_comm(delta, 0.0),
            Err(_) => {
                // Unreachable when the trainer gates overlap on inert fault
                // plans; if a caller enables both anyway, fall back to
                // pulling these keys at consume time.
                self.rows.clear();
                self.late.append(&mut self.early);
                self.late_slots.append(&mut self.early_slots);
            }
        }
    }

    /// Deliver the staged rows into the working set (already laid out for
    /// the batch): the early pull's delivery is refreshed to the server's
    /// current rows — free, its frames were metered at issue time — and the
    /// late keys are pulled now, after the previous push, so every value
    /// matches the sequential schedule bit for bit. Returns the timeline
    /// completion of the whole pull.
    pub fn deliver(&mut self, ctx: &mut WorkerCtx) -> f64 {
        let mut pull_end = self.pull_end;
        if !self.early.is_empty() {
            ctx.client.refresh_pull_batch(&self.early, &mut self.rows);
            let (ws, slots) = (&mut ctx.ws, &self.early_slots);
            ctx.client
                .complete_pull_batch(&self.early, &self.rows, |i, row| {
                    ws.row_mut(slots[i]).copy_from_slice(row);
                });
        }
        if !self.late.is_empty() {
            let delta = ctx.pull_into_ws(&self.late, &self.late_slots);
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

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_core::prefetch::MiniBatch;
    use hetkg_embed::init::Init;
    use hetkg_embed::ModelKind;
    use hetkg_netsim::ClusterTopology;
    use hetkg_ps::optimizer::Sgd;
    use hetkg_ps::{KvStore, ShardRouter};

    fn ctx() -> WorkerCtx {
        let ks = KeySpace::new(10, 2);
        let router = ShardRouter::round_robin(ks, 1);
        let store = Arc::new(KvStore::new(
            router,
            4,
            4,
            0,
            Init::Uniform { bound: 0.2 },
            1,
        ));
        let meter = Arc::new(TrafficMeter::new());
        let client = PsClient::new(0, ClusterTopology::new(1, 1), store, meter.clone());
        let subgraph = vec![
            Triple::new(0, 0, 1),
            Triple::new(1, 1, 2),
            Triple::new(2, 0, 3),
        ];
        WorkerCtx::new(
            0,
            subgraph,
            ks,
            client,
            meter,
            ModelKind::TransEL2.build(4).into(),
            LossKind::Logistic,
            Arc::new(Sgd { lr: 0.1 }),
            2,
        )
    }

    /// Pull entity `keys` into a working set holding exactly them.
    fn pull(c: &mut WorkerCtx, keys: &[ParamKey]) -> TrafficSnapshot {
        c.ws.clear();
        for &k in keys {
            c.ws.insert(k, &[0.0; 4]);
        }
        let slots: Vec<u32> = (0..keys.len() as u32).collect();
        c.pull_into_ws(keys, &slots)
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
            c.client.pull(k, &mut want);
            assert_eq!(c.ws.row(slot as u32), want);
            assert_eq!(c.ws.get(k), want);
        }
        assert!(c.meter.snapshot().total_bytes() > 0);
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
