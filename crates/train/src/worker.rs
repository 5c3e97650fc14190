//! Shared worker machinery: the per-worker context every system's training
//! loop builds on, the `Pipeline` DGL-KE's and HET-KG's loops run on, and
//! the per-epoch stats workers hand back to the trainer.

use crate::batch::{compute_planned, BatchResult, BatchScratch, GradAccum, WorkingSet};
use crate::plan::BatchPlan;
use hetkg_core::metrics::{CacheStats, TableEconomy};
use hetkg_core::prefetch::MiniBatch;
use hetkg_embed::loss::LossKind;
use hetkg_embed::models::KgeModel;
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use hetkg_netsim::{
    CompressionMode, CompressionStats, CostModel, Lane, Timeline, TrafficMeter, TrafficSnapshot,
};
use hetkg_ps::optimizer::Optimizer;
use hetkg_ps::{PsClient, PsScratch, RpcError};
use std::sync::Arc;
use std::time::Instant;

/// What one worker reports for one epoch. `WorkerCtx::end_epoch` fills
/// the fields every system has — work, wall time, traffic, loss and the
/// critical path — and a system's [`WorkerLoop::system_stats`] the rest,
/// which stay zero for a system without them.
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
    /// This epoch's time in simulated seconds: the makespan of the worker's
    /// comm and compute lanes, under whichever schedule the loop ran — the
    /// pipelined one, or the sequential one, where it is the two lanes'
    /// busy time summed. The comm lane includes the fault injector's waits.
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

/// Everything a worker needs regardless of system, and the books of the
/// epoch in progress: `WorkerCtx::begin_epoch` opens them,
/// `WorkerCtx::end_unit` books each unit of work, and
/// `WorkerCtx::end_epoch` closes them into the epoch's stats.
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
    /// Whether the loop pipelines: stages the next batch behind the one in
    /// flight. Off, it runs the sequential schedule, each operation in turn.
    /// Either way every operation is posted to the timeline.
    pub overlap: bool,
    /// This worker's two-lane schedule (comm, compute): its epoch clock.
    pub timeline: Timeline,
    /// Cumulative per-lane busy seconds at epoch start ([comm, compute]),
    /// so the adaptive compression policy sees this epoch's occupancy
    /// delta rather than the whole run's.
    epoch_busy: [f64; 2],
    /// The fault injector's [`waited`](hetkg_netsim::FaultInjector::waited)
    /// total already posted to the comm lane — or spent before this worker
    /// was built: a crash recovery rebuilds the workers on the run's
    /// injectors.
    waits_posted: f64,
    /// Meter reading at epoch start (the stats report the delta).
    epoch_traffic: TrafficSnapshot,
    /// Real wall-clock epoch start (diagnostic only).
    epoch_started: Instant,
    /// Units (iterations or buckets) booked so far this epoch, and their
    /// results summed.
    epoch_units: usize,
    epoch_result: BatchResult,
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
        let waits_posted = client.faults().map_or(0.0, |f| f.waited());
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
            epoch_busy: [0.0; 2],
            waits_posted,
            epoch_traffic: TrafficSnapshot::default(),
            epoch_started: Instant::now(),
            epoch_units: 0,
            epoch_result: BatchResult::default(),
        }
    }

    /// Configure the timing model: the cost model pricing this worker's
    /// timeline events, and whether the loop pipelines.
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

    /// Post a metered comm operation to the timeline's comm lane, not
    /// starting before `after` (the completion time of the event whose
    /// output it carries; `0.0` when none), and with it whatever the fault
    /// injector made this worker wait since the last post — the exchange
    /// that waited is the one just carried. Returns the operation's
    /// completion time.
    pub fn post_comm(&mut self, delta: TrafficSnapshot, after: f64) -> f64 {
        let mut duration = delta.simulated_time(&self.cost);
        if let Some(f) = self.client.faults() {
            let waited = f.waited();
            duration += waited - self.waits_posted;
            self.waits_posted = waited;
        }
        self.timeline.post(Lane::Comm, duration, after)
    }

    /// Post a kernel block of `work_units` to the compute lane, not
    /// starting before `after` (its input pull's completion), and advance
    /// the fault injector's simulated clock by the same compute (no-op
    /// without fault injection), so the exchange posted behind it is judged
    /// at the instant the timeline sends it: that is what places outage and
    /// straggler windows correctly relative to the workload. Returns its
    /// completion time.
    pub fn post_compute(&mut self, work_units: u64, after: f64) -> f64 {
        if let Some(f) = self.client.faults() {
            f.advance_compute(work_units);
        }
        let duration = self.cost.compute_time(work_units);
        self.timeline.post(Lane::Compute, duration, after)
    }

    /// Open an epoch's books: snapshot the meter, start the wall clock, and
    /// mark the epoch's start on the timeline.
    pub(crate) fn begin_epoch(&mut self) {
        self.epoch_traffic = self.meter.snapshot();
        self.epoch_started = Instant::now();
        self.epoch_units = 0;
        self.epoch_result = BatchResult::default();
        self.timeline.begin_epoch();
        self.epoch_busy = [
            self.timeline.busy(Lane::Comm),
            self.timeline.busy(Lane::Compute),
        ];
    }

    /// Book a unit of work that ended with `result`.
    pub(crate) fn end_unit(&mut self, result: BatchResult) {
        self.epoch_result.absorb(result);
        self.epoch_units += 1;
    }

    /// How many of this epoch's iterations follow the next one; `None` once
    /// every iteration is booked.
    pub(crate) fn iterations_left(&self) -> Option<usize> {
        (self.iterations_per_epoch - 1).checked_sub(self.epoch_units)
    }

    /// Close the epoch's books: end it on the timeline, whose critical path
    /// is its time, and report what every system reports. The epoch's
    /// comm/compute lane occupancy is fed to the adaptive compression policy
    /// here: "tighten only when the comm lane is critical" is judged on
    /// exactly the occupancy the timeline measured, in every schedule. Fixed
    /// compression modes are unaffected.
    pub(crate) fn end_epoch(&mut self) -> WorkerEpochStats {
        let critical_path_secs = self.timeline.end_epoch();
        let comm = self.timeline.busy(Lane::Comm) - self.epoch_busy[0];
        let compute = self.timeline.busy(Lane::Compute) - self.epoch_busy[1];
        self.ps.adapt_compression(comm, compute);
        let result = self.epoch_result;
        WorkerEpochStats {
            work_units: result.work_units,
            wall_secs: self.epoch_started.elapsed().as_secs_f64(),
            traffic: self.meter.snapshot().since(self.epoch_traffic),
            loss_sum: result.loss,
            loss_terms: result.terms,
            critical_path_secs,
            ..WorkerEpochStats::default()
        }
    }

    /// Cumulative push-compression counters for this worker's run so far
    /// (zeros when compression is off).
    pub(crate) fn compression_stats(&self) -> CompressionStats {
        self.ps.compression_stats().unwrap_or_default()
    }
}

/// The schedule DGL-KE's and HET-KG's loops run their iterations on: while
/// batch `i` computes, batch `i+1` is *staged* behind it. An iteration is
/// three calls.
///
/// * [`Pipeline::stage`] compiles the caller's next batch and splits the
///   keys the caller pulls for it ([`StagedPull`]): *early* keys, which the
///   batch in flight does not write, have their pull booked on the comm lane
///   now, where it hides behind the compute in flight; *late* keys, which
///   it may write, wait for the consume-time request.
/// * [`Pipeline::consume`] makes the staged batch the one in flight: it
///   carries the early frames, runs the caller's consume-time request — the
///   late keys and whatever the caller asks for with them (a HET-KG sync, a
///   rebuild's late fresh rows) — and posts it, then posts the held rest of
///   the push in front of it. It returns when compute may start: once the
///   early pull has completed and, when the batch reads a row the request
///   returns (it has a late key), the request too. A request the batch does
///   not read — a sync of rows whose hits were copied before it — gates the
///   next compute instead, which reads the refreshed rows.
/// * [`Pipeline::push`] sends the batch's gradients, in two parts when a
///   batch is staged behind it: the *hazard* part — the rows that batch's
///   request reads, its late keys and any the caller names — posted behind
///   the compute; and the *rest*, posted after the request, which reads
///   none of it. With nothing staged the push is whole. A part that sent
///   nothing takes no slot on the lane.
///
/// The comm lane is one queue, so it books early(i+1) < hazard(i) ≤
/// request(i+1) < rest(i) < early(i+2): each read queues behind the writes
/// it reads, and the next early booking, which may read the rest, behind
/// the rest.
///
/// The timeline says where each message is *booked*; every message is
/// *carried* in the sequential schedule's order — the early and late rows
/// when the batch is consumed, both push parts at the push, hazard first —
/// so every row read, loss bit and byte per cause is the sequential
/// schedule's, on either backend. Pipelining moves simulated time only, and
/// adds at most two messages per shard per staged iteration: one for the
/// split pull, one for the split push.
#[derive(Debug, Default)]
pub(crate) struct Pipeline {
    /// The staged batch, compiled. Swapped into `ctx.scratch.plan` when
    /// consumed, so that plan is always the batch in flight.
    plan: BatchPlan,
    /// Whether `plan` and `pull` hold a batch drawn but not consumed.
    staged: bool,
    /// The staged batch's pull.
    pull: StagedPull,
    /// The keys of the last consume-time request.
    request: Vec<ParamKey>,
    /// Timeline completion of a consume-time request its batch did not
    /// read: the next compute waits for it. Sound because the batch's rows
    /// were in its working set before the request ran, and its push queues
    /// behind the request on the one comm lane.
    refreshed_end: f64,
    /// The push being built, for the caller to fill; [`Pipeline::push`]
    /// sends and clears it.
    pub(crate) rows: Vec<PushRow>,
    /// The spare the push is split into its two parts through, and the
    /// keys and trailing energies the client is handed.
    spare: Vec<PushRow>,
    keys: Vec<ParamKey>,
    energies: Vec<f32>,
    /// The rest of the last push, carried and metered but not on the
    /// timeline yet, and the completion of the compute whose gradients it
    /// carries.
    held: Option<(TrafficSnapshot, f64)>,
    /// Debug builds: the held rest's keys, sorted.
    rest_keys: Vec<ParamKey>,
    /// Test-only: push whole at every iteration, as the code did before a
    /// push left in two parts — the reference the differential tests hold
    /// the split against.
    #[cfg(test)]
    pub(crate) whole_push_reference: bool,
}

/// One row of a push: its key, where its gradient is — a slot of the
/// gradient accumulator, or wherever the caller's `slot` says — and, for a
/// row that sums several gradients, how many and their energy, which ride
/// in the push frame's trailer. A row with one gradient is pushed as that
/// gradient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PushRow {
    pub key: ParamKey,
    pub slot: u32,
    pub grads: u32,
    pub energy: f32,
}

impl PushRow {
    /// The accumulator's one gradient of `key`, in `slot`.
    pub fn grad(key: ParamKey, slot: u32) -> Self {
        Self {
            key,
            slot,
            grads: 1,
            energy: 0.0,
        }
    }
}

/// One part of a push, for the caller to carry: its rows, their keys, and
/// the energies of its rows with more than one gradient, in row order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Part<'a> {
    pub rows: &'a [PushRow],
    pub keys: &'a [ParamKey],
    pub energies: &'a [f32],
}

impl Pipeline {
    /// Whether a batch is staged, drawn but not consumed.
    pub fn is_staged(&self) -> bool {
        self.staged
    }

    /// Test-only: the completion of a request the batch in flight did not
    /// read, which the next compute waits for (0 when none).
    #[cfg(test)]
    pub(crate) fn refreshed_end(&self) -> f64 {
        self.refreshed_end
    }

    /// Stage `batch`: compile it, and split the keys of it that `pulled(slot,
    /// key, uses)` says are pulled — and the `fresh` rows of a table rebuild
    /// — into the early and late halves of its pull. With `pull_ahead` the
    /// early pull is booked on the comm lane now, and the split is counted
    /// into `economy` when one is given; without, nothing is booked and
    /// every key waits for [`Pipeline::consume`]: the sequential schedule.
    pub fn stage(
        &mut self,
        ctx: &mut WorkerCtx,
        batch: &MiniBatch,
        pull_ahead: bool,
        mut pulled: impl FnMut(u32, ParamKey, u32) -> bool,
        fresh: impl Iterator<Item = ParamKey>,
        economy: Option<&mut TableEconomy>,
    ) {
        debug_assert!(!self.staged, "staging twice");
        let (ed, rd) = (ctx.model.entity_dim(), ctx.model.relation_dim());
        self.plan.compile(batch, ctx.key_space, ed, rd);
        let plan = &self.plan;
        let keys = (0..).zip(plan.keys().iter().zip(plan.uses()));
        let keys =
            keys.filter_map(|(slot, (&k, &uses))| pulled(slot, k, uses).then_some((k, slot)));
        self.pull.stage(ctx, keys, fresh, pull_ahead);
        if let (true, Some(economy)) = (pull_ahead, economy) {
            economy.staged_early += self.pull.early.len() as u64;
            economy.staged_late += self.pull.late.len() as u64;
        }
        self.staged = true;
    }

    /// Make the staged batch the one in flight: lay the arenas out by its
    /// plan and carry the early frames — plain rows into the working set,
    /// fresh rows to `fresh(state, key, version, row)` — then run
    /// `request(ctx, state, pull, keys)`, the caller's consume-time request,
    /// which reads the late keys and lists in `keys` every key it asked for,
    /// and post it; then post the held rest of the last push. Returns when
    /// the batch's compute may start.
    pub fn consume<T>(
        &mut self,
        ctx: &mut WorkerCtx,
        state: &mut T,
        mut fresh: impl FnMut(&mut T, ParamKey, u32, &[f32]),
        request: impl FnOnce(&mut WorkerCtx, &mut T, &StagedPull, &mut Vec<ParamKey>),
    ) -> f64 {
        debug_assert!(self.staged, "a batch was staged");
        self.staged = false;
        std::mem::swap(&mut ctx.scratch.plan, &mut self.plan);
        // One row per slot: the working set's to be filled by the pull and
        // the caller, the accumulator's all untouched.
        ctx.ws.reset(ctx.scratch.plan.layout());
        ctx.grads.reset(ctx.scratch.plan.layout());
        let early_end = self
            .pull
            .deliver_early(ctx, |k, version, row| fresh(state, k, version, row));
        let mut ready = early_end.max(std::mem::take(&mut self.refreshed_end));
        let before = ctx.meter.snapshot();
        self.request.clear();
        request(ctx, state, &self.pull, &mut self.request);
        if !self.request.is_empty() {
            debug_assert!(
                self.request
                    .iter()
                    .all(|k| self.rest_keys.binary_search(k).is_err()),
                "a consume-time request read a row of the push's held rest"
            );
            let request_end = ctx.post_comm(ctx.meter.snapshot().since(before), 0.0);
            if self.pull.late.is_empty() {
                self.refreshed_end = request_end;
            } else {
                ready = ready.max(request_end);
            }
        }
        if let Some((rest, compute_end)) = self.held.take() {
            ctx.post_comm(rest, compute_end);
        }
        self.rest_keys.clear();
        ready
    }

    /// Send the push's [`rows`](Pipeline::rows), the gradients of the
    /// compute that ended at `compute_end`, through `carry(ctx, part)`, and
    /// clear them and the accumulator. With a batch staged behind this one
    /// the rows its consume-time request reads — its late keys, and the keys
    /// `also_read` names — are sent first: the hazard part is posted behind
    /// the compute, the rest held for [`Pipeline::consume`] to post after
    /// that request. In each part the rows with one gradient lead, then
    /// those that sum several, each in key order (a push holds a key once).
    pub fn push(
        &mut self,
        ctx: &mut WorkerCtx,
        also_read: impl Fn(ParamKey) -> bool,
        mut carry: impl FnMut(&mut WorkerCtx, Part<'_>),
        compute_end: f64,
    ) {
        #[cfg(test)]
        let split = self.staged && !self.whole_push_reference;
        #[cfg(not(test))]
        let split = self.staged;
        self.rows.sort_unstable_by_key(|r| (r.grads > 1, r.key));
        let hazard = if split {
            let (late, rows) = (&self.pull.late_sorted, &self.rows);
            let reads = |r: &&PushRow| late.binary_search(&r.key).is_ok() || also_read(r.key);
            self.spare.clear();
            self.spare.extend(rows.iter().filter(reads));
            let hazard = self.spare.len();
            self.spare.extend(rows.iter().filter(|r| !reads(r)));
            std::mem::swap(&mut self.rows, &mut self.spare);
            hazard
        } else {
            self.rows.len()
        };
        let rows = &self.rows;
        self.keys.clear();
        self.keys.extend(rows.iter().map(|r| r.key));
        self.energies.clear();
        let coalesced = rows.iter().filter(|r| r.grads > 1);
        self.energies.extend(coalesced.map(|r| r.energy));
        let energies = rows[..hazard].iter().filter(|r| r.grads > 1).count();
        let parts = [
            (0..hazard, 0..energies),
            (hazard..rows.len(), energies..self.energies.len()),
        ];
        let [hazard_part, rest] = parts.map(|(part, energies)| {
            let before = ctx.meter.snapshot();
            if !part.is_empty() {
                let (keys, energies) = (&self.keys[part.clone()], &self.energies[energies]);
                let rows = &rows[part];
                carry(
                    ctx,
                    Part {
                        rows,
                        keys,
                        energies,
                    },
                );
            }
            ctx.meter.snapshot().since(before)
        });
        let sent = |t: TrafficSnapshot| t.local_messages + t.remote_messages > 0;
        if sent(hazard_part) {
            ctx.post_comm(hazard_part, compute_end);
        }
        if sent(rest) {
            self.held = Some((rest, compute_end));
            if cfg!(debug_assertions) {
                self.rest_keys.extend_from_slice(&self.keys[hazard..]);
                self.rest_keys.sort_unstable();
            }
        }
        self.rows.clear();
        ctx.grads.clear();
    }
}

/// The consume-time request of a loop that pulls its late keys plainly
/// (DGL-KE's): into their working-set slots, one coalesced request.
pub(crate) fn pull_late(ctx: &mut WorkerCtx, pull: &StagedPull, keys: &mut Vec<ParamKey>) {
    let (late, slots, fresh) = pull.late();
    debug_assert!(fresh.is_empty(), "fresh rows need the caller's request");
    keys.extend_from_slice(late);
    let ws = &mut ctx.ws;
    ctx.client
        .try_pull_batch_with(late, &mut ctx.ps, |i, row| {
            ws.row_mut(slots[i]).copy_from_slice(row)
        })
        .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
}

/// The gradients a loop pushes as they are (DGL-KE's): `part`'s rows out of
/// the accumulator.
pub(crate) fn carry_accumulated(ctx: &mut WorkerCtx, part: Part<'_>) {
    let grads = &ctx.grads;
    ctx.client
        .try_push_coalesced_rows(
            part.keys,
            part.energies,
            |i| grads.row_at(part.rows[i].slot),
            ctx.optimizer.as_ref(),
            &mut ctx.ps,
        )
        .unwrap_or_else(|e| retries_exhausted("push_batch", e));
}

/// The pull of a batch that has been drawn but is not in flight yet, split
/// per key (`Pipeline` states the schedule): a key the in-flight batch
/// does not touch — that batch's key set bounds its push's write set — is
/// *early*, its pull booked ahead; a key it does touch is *late*, pulled by
/// the consume-time request after that push. Only the booking is ahead:
/// the frames are carried once, when the batch is consumed, so every row
/// trained on is the one its shard answered with then. Against the
/// sequential schedule's one pull: the same rows and bytes, and at most one
/// message more per shard — one holding keys of both halves is sent two
/// frames.
///
/// Two kinds of key ride in it. *Plain* keys are the batch's rows nobody
/// caches, each bound for a working-set slot. *Fresh* keys are rows a table
/// rebuild is about to cache: asked about with nothing held, so each comes
/// back with the version it will be held under, and handed to the caller
/// rather than to a slot. A fresh key is late only when a batch is in
/// flight and writes it; with nothing in flight the fresh keys go in the
/// early message, as a construction always has — posted when it is carried,
/// like everything the sequential schedule sends, so that a faulty run's
/// retransmissions are on the timeline. Whichever message carries a fresh
/// row, its bytes are construction's.
#[derive(Debug, Default)]
pub struct StagedPull {
    /// Keys pulled in the early message — the plain ones, then the fresh
    /// ones — and the plain ones' working-set slots.
    early: Vec<ParamKey>,
    early_slots: Vec<u32>,
    /// Keys (plain, then fresh) and slots (of the plain ones) left for the
    /// consume-time request, and, when it was pulled ahead, the same keys
    /// sorted: the rows of the push in front of it that are in its hazard
    /// part.
    late: Vec<ParamKey>,
    late_slots: Vec<u32>,
    late_sorted: Vec<ParamKey>,
    /// What the early pull was booked as when it was booked ahead, and must
    /// then be metered as.
    booked: Option<TrafficSnapshot>,
    /// Timeline completion of the early pull (0 when none).
    pull_end: f64,
}

impl StagedPull {
    /// Split `keys` (each with the slot its row goes to) and the `fresh`
    /// rows of a rebuild and, with `pull_ahead`, book the early keys' pull
    /// on the comm lane now — what the client says it will be metered as;
    /// nothing is sent. Without `pull_ahead` nothing is in flight: the plain
    /// keys all wait for the consume-time request and the fresh ones all go
    /// in the early message, posted when it is carried. The in-flight batch
    /// is `ctx.scratch.plan`.
    fn stage(
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
        self.late_sorted.clear();
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
        if pull_ahead {
            self.late_sorted.extend_from_slice(&self.late);
            self.late_sorted.sort_unstable();
        }
        if pull_ahead && !self.early.is_empty() {
            let fresh = self.early.len() - self.early_slots.len();
            let booked = ctx.client.staged_pull_cost(&self.early, fresh, &mut ctx.ps);
            self.pull_end = ctx.post_comm(booked, 0.0);
            self.booked = Some(booked);
        }
    }

    /// What is left for the consume-time request: the plain keys, their
    /// slots, and the fresh keys.
    pub fn late(&self) -> (&[ParamKey], &[u32], &[ParamKey]) {
        let (plain, fresh) = self.late.split_at(self.late_slots.len());
        (plain, &self.late_slots, fresh)
    }

    /// Carry the early message now, so staged rows observe every push that
    /// landed since, other workers' included: plain rows into the working
    /// set (already laid out for the batch), fresh rows to `on_fresh(key,
    /// version, row)`. Metered here; posted here too unless it was booked
    /// ahead. Returns the timeline completion of the early pull.
    fn deliver_early(
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
}

/// One system's per-worker training loop, driven one *unit* of work at a
/// time (a mini-batch iteration, or a PBG bucket). A system is its unit and
/// the stats only it has; its [`WorkerCtx`] keeps the epoch's books. State
/// (caches, RNGs, iteration counters) persists across epochs inside the
/// implementor.
///
/// The trainer interleaves `step` calls across workers in a fixed
/// round-robin, which makes the order of every parameter-server read and
/// write a pure function of the config — the reproducibility contract the
/// differential tests (and the divergence oracle) assert bit-for-bit.
/// Simulated parallelism lives in the per-worker timelines and cost model,
/// not in host threads, so serializing the steps changes no reported time.
pub trait WorkerLoop: Send {
    /// The worker's context.
    fn ctx(&mut self) -> &mut WorkerCtx;

    /// Run the next unit of this epoch and return its result; `None`
    /// (doing nothing) when no units remain.
    fn unit(&mut self) -> Option<BatchResult>;

    /// Reset what only this system reports, at the start of `epoch`.
    fn begin_system_epoch(&mut self, _epoch: usize) {}

    /// Fill in what only this system reports.
    fn system_stats(&self, _stats: &mut WorkerEpochStats) {}

    /// Start an epoch.
    fn begin_epoch(&mut self, epoch: usize) {
        self.ctx().begin_epoch();
        self.begin_system_epoch(epoch);
    }

    /// Run and book the next unit of this epoch. Returns `false` (doing
    /// nothing) when no units remain.
    fn step(&mut self) -> bool {
        let Some(result) = self.unit() else {
            return false;
        };
        self.ctx().end_unit(result);
        true
    }

    /// Close the epoch started by [`WorkerLoop::begin_epoch`] and report
    /// its stats.
    fn finish_epoch(&mut self) -> WorkerEpochStats {
        let mut stats = self.ctx().end_epoch();
        self.system_stats(&mut stats);
        stats
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
/// most `max_extra` more. A staged iteration may add one message per shard
/// for its split pull and one more for the split push in front of it, so
/// the callers' bound is two per shard per staged iteration.
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
        push_messages: 0,
        ..t
    };
    assert_eq!(bytes_of(seq), bytes_of(pipe), "{what}: bytes moved");
    assert!(
        pipe.local_messages >= seq.local_messages
            && pipe.remote_messages >= seq.remote_messages
            && pipe.push_messages >= seq.push_messages,
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
    use hetkg_embed::init::Init;
    use hetkg_embed::ModelKind;
    use hetkg_netsim::{ClusterTopology, FaultInjector, FaultPlan};
    use hetkg_ps::optimizer::Sgd;
    use hetkg_ps::{KvStore, ShardRouter, SimTransport};
    use proptest::prelude::*;

    fn ctx() -> WorkerCtx {
        ctx_on(1).0
    }

    /// A `machines`-shard table whose rows are a function of `seed`: keys
    /// 0–9 are entities, 10 and 11 relations, all rows 4 wide.
    fn store_on(machines: usize, seed: u64) -> Arc<KvStore> {
        let router = ShardRouter::round_robin(KeySpace::new(10, 2), machines);
        let init = Init::Uniform { bound: 0.2 };
        Arc::new(KvStore::new(router, 4, 4, 0, init, seed))
    }

    /// Worker 0's context on a `machines`-shard store, and the store (so a
    /// test can attach another worker's client to it).
    fn ctx_on(machines: usize) -> (WorkerCtx, Arc<KvStore>) {
        faulty_ctx_on(machines, None)
    }

    /// [`ctx_on`], its client reporting to `faults` when given.
    fn faulty_ctx_on(
        machines: usize,
        faults: Option<&Arc<FaultInjector>>,
    ) -> (WorkerCtx, Arc<KvStore>) {
        let store = store_on(machines, 1);
        let ks = store.router().key_space();
        let meter = Arc::new(TrafficMeter::new());
        let mut client = PsClient::new(
            0,
            ClusterTopology::new(machines, 1),
            store.clone(),
            meter.clone(),
        );
        if let Some(f) = faults {
            client = client.with_faults(f.clone());
        }
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

    /// A batch of positives `(head, relation, tail)`.
    fn batch(triples: &[(u32, u32, u32)]) -> MiniBatch {
        MiniBatch {
            positives: triples
                .iter()
                .map(|&(h, r, t)| Triple::new(h, r, t))
                .collect(),
            negatives: vec![],
        }
    }

    /// Stage `triples`, pulling every key of them.
    fn stage(c: &mut WorkerCtx, p: &mut Pipeline, triples: &[(u32, u32, u32)], ahead: bool) {
        let every_key = |_, _, _| true;
        p.stage(
            c,
            &batch(triples),
            ahead,
            every_key,
            std::iter::empty(),
            None,
        );
    }

    /// Consume the staged batch with the plain late pull.
    fn consume(c: &mut WorkerCtx, p: &mut Pipeline) -> f64 {
        let no_fresh = |_: &mut (), k, _, _: &[f32]| unreachable!("{k} staged as fresh");
        p.consume(c, &mut (), no_fresh, |ctx, _, pull, keys| {
            pull_late(ctx, pull, keys)
        })
    }

    /// A plain pull of `keys`: its traffic and the rows, bit for bit.
    fn pull(c: &mut WorkerCtx, keys: &[ParamKey]) -> (TrafficSnapshot, Vec<Vec<u32>>) {
        let before = c.meter.snapshot();
        let mut rows = vec![Vec::new(); keys.len()];
        c.client
            .try_pull_batch_with(keys, &mut c.ps, |i, row| {
                rows[i] = row.iter().map(|v| v.to_bits()).collect()
            })
            .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
        (c.meter.snapshot().since(before), rows)
    }

    /// The working set's rows in slot order, bit for bit.
    fn ws_bits(c: &WorkerCtx) -> Vec<Vec<u32>> {
        (0..c.ws.len() as u32)
            .map(|s| c.ws.row(s).iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    /// The batch in flight's keys, in slot order.
    fn in_flight_keys(c: &WorkerCtx) -> Vec<ParamKey> {
        c.scratch.plan.keys().to_vec()
    }

    #[test]
    fn iterations_per_epoch_is_ceil() {
        let c = ctx();
        assert_eq!(c.iterations_per_epoch, 2); // ceil(3 / 2)
    }

    /// The plain late pull — the whole pull of a batch staged with nothing
    /// ahead — fills every working-set row with its key's.
    #[test]
    fn pull_into_ws_fetches_rows() {
        let (mut c, mut p) = (ctx(), Pipeline::default());
        stage(&mut c, &mut p, &[(0, 0, 1)], false);
        consume(&mut c, &mut p);
        let keys = in_flight_keys(&c);
        assert_eq!(keys, [ParamKey(0), ParamKey(10), ParamKey(1)]);
        assert_eq!(c.ws.len(), 3);
        let (_, want) = pull(&mut c, &keys);
        assert_eq!(ws_bits(&c), want);
        for &k in &keys {
            let bits: Vec<u32> = c.ws.get(k).iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, want[c.ws.slot_of(k).unwrap() as usize]);
        }
        assert!(c.meter.snapshot().total_bytes() > 0);
    }

    #[test]
    fn staged_pull_delivers_the_same_rows_as_a_direct_pull() {
        let (c, _) = ctx_on(2);
        let mut c = c.with_timing(CostModel::gigabit(), true);
        let mut p = Pipeline::default();
        // Mixed kinds are fine: entities on both shards and a relation key.
        let triples = [(0, 0, 3), (1, 0, 0)];
        let keys = [0u64, 10, 3, 1].map(ParamKey);
        let (unsplit, direct) = pull(&mut c, &keys);

        let before = c.meter.snapshot();
        // Nothing is in flight, so every key goes ahead.
        stage(&mut c, &mut p, &triples, true);
        assert_eq!(p.pull.early, keys);
        assert!(p.pull.late.is_empty());
        assert_eq!(c.meter.snapshot(), before, "nothing transits at stage");
        let booked = unsplit.simulated_time(&c.cost);
        assert!(booked > 0.0);
        assert_eq!(
            c.timeline.busy(Lane::Comm),
            booked,
            "the pull's slot on the comm lane is taken at stage"
        );
        let pull_end = consume(&mut c, &mut p);
        assert_eq!(
            c.meter.snapshot().since(before),
            unsplit,
            "the direct pull's frames are metered at consume"
        );
        assert_eq!(
            (c.timeline.busy(Lane::Comm), pull_end),
            (booked, booked),
            "a booked pull is not posted again"
        );
        assert_eq!(in_flight_keys(&c), keys);
        assert_eq!(ws_bits(&c), direct);
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
        let mut p = Pipeline::default();
        // Entity 0 and relation 0 are in flight, so they wait; the rest go
        // ahead.
        stage(&mut c, &mut p, &[(1, 0, 0), (3, 0, 4)], true);
        assert_eq!(p.pull.early, [ParamKey(1), ParamKey(3), ParamKey(4)]);
        assert_eq!(p.pull.late, [ParamKey(10), ParamKey(0)]);
        consume(&mut c, &mut p);
        let (mut answered, mut mirrored) = ([0.0f32; 4], [0.0f32; 4]);
        for k in in_flight_keys(&c) {
            served.pull(k, &mut answered);
            store.pull(k, &mut mirrored);
            assert_ne!(answered, mirrored);
            assert_eq!(c.ws.get(k), answered, "{k}");
        }
    }

    /// In flight: entities 0 and 2 (both on shard 0) and relation 0.
    fn put_in_flight(c: &mut WorkerCtx) {
        c.scratch
            .plan
            .compile(&batch(&[(0, 0, 2)]), c.key_space, 4, 4);
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
        let mut p = Pipeline::default();
        // Key 0 is written by the in-flight batch, so it waits — alone: key
        // 4 shares its shard and goes ahead with shard 1's keys 1, 11 and 3.
        let keys = [1u64, 11, 0, 3, 4].map(ParamKey);
        assert_eq!(c.client.shard_of(keys[2]), c.client.shard_of(keys[4]));
        let before = c.meter.snapshot();
        stage(&mut c, &mut p, &[(1, 1, 0), (3, 1, 4)], true);
        assert_eq!(p.pull.early, [1u64, 11, 3, 4].map(ParamKey));
        assert_eq!(p.pull.early_slots, [0, 1, 3, 4]);
        assert_eq!(p.pull.late(), (&[ParamKey(0)][..], &[2u32][..], &[][..]));
        // Another worker's push lands between stage and consume, on an
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
        consume(&mut c, &mut p);
        let split = c.meter.snapshot().since(before);
        assert_eq!(in_flight_keys(&c), keys);
        // A sequential pull at the consume point: same rows, same bytes,
        // and one message fewer — shard 0 was sent an early and a late
        // frame.
        let (unsplit, rows) = pull(&mut c, &keys);
        assert_eq!(ws_bits(&c), rows);
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
        let mut p = Pipeline::default();
        let before = c.meter.snapshot();
        let mut economy = TableEconomy::default();
        let every_key = |_, _, _| true;
        let staged = batch(&[(1, 1, 0), (3, 1, 4)]);
        let none = std::iter::empty();
        p.stage(&mut c, &staged, false, every_key, none, Some(&mut economy));
        assert_eq!(economy, TableEconomy::default(), "not a split");
        let keys = [1u64, 11, 0, 3, 4].map(ParamKey);
        assert_eq!(p.pull.late(), (&keys[..], &[0, 1, 2, 3, 4][..], &[][..]));
        assert_eq!(c.meter.snapshot(), before, "nothing transits at stage");
        consume(&mut c, &mut p);
        let late = c.meter.snapshot().since(before);
        assert_eq!(late, pull(&mut c, &keys).0, "the sequential pull");
    }

    /// The rule this one replaced, kept as the reference the per-key split
    /// is pinned against: a shard's keys go early only when the in-flight
    /// batch touches none of them.
    fn per_shard_split(c: &WorkerCtx, keys: &[ParamKey]) -> (Vec<ParamKey>, Vec<ParamKey>) {
        let mut dirty = vec![false; c.client.store().router().num_shards()];
        for &k in keys {
            if c.scratch.plan.contains(k) {
                dirty[c.client.shard_of(k)] = true;
            }
        }
        keys.iter().partition(|&&k| !dirty[c.client.shard_of(k)])
    }

    proptest! {
        /// On random in-flight batches, staged batches and choices of which
        /// of their keys are pulled: the late keys are exactly the pulled
        /// keys in flight and the early keys the rest, both in slot order;
        /// everything the per-shard rule sent early still goes early; and
        /// the delivered rows and bytes are the sequential pull's, in at
        /// most one more message per shard.
        #[test]
        fn per_key_split_partitions_the_input_and_contains_the_per_shard_split(
            machines in 1usize..5,
            in_flight in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 0..4),
            staged in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 0..5),
            pulled in any::<u16>(),
        ) {
            let (mut c, _) = ctx_on(machines);
            let mut p = Pipeline::default();
            c.scratch.plan.compile(&batch(&in_flight), c.key_space, 4, 4);
            let before = c.meter.snapshot();
            let mut economy = TableEconomy::default();
            let mask = |slot: u32| pulled & (1 << (slot % 16)) != 0;
            let is_pulled = |slot, _, _| mask(slot);
            let none = std::iter::empty();
            p.stage(&mut c, &batch(&staged), true, is_pulled, none, Some(&mut economy));
            prop_assert_eq!(
                (economy.staged_early, economy.staged_late),
                (p.pull.early.len() as u64, p.pull.late.len() as u64)
            );
            let input: Vec<(ParamKey, u32)> = p.plan.keys().iter().copied().zip(0u32..)
                .filter(|&(_, slot)| mask(slot)).collect();
            let keys: Vec<ParamKey> = input.iter().map(|&(k, _)| k).collect();
            let (ref_early, ref_late) = per_shard_split(&c, &keys);
            let pairs = |ks: &[ParamKey], ss: &[u32]| -> Vec<(ParamKey, u32)> {
                ks.iter().copied().zip(ss.iter().copied()).collect()
            };
            let expect = |late_half: bool| -> Vec<(ParamKey, u32)> {
                let half = |&(k, _): &(ParamKey, u32)| c.scratch.plan.contains(k) == late_half;
                input.iter().copied().filter(half).collect()
            };
            prop_assert_eq!(pairs(&p.pull.early, &p.pull.early_slots), expect(false));
            prop_assert_eq!(pairs(&p.pull.late, &p.pull.late_slots), expect(true));
            prop_assert!(ref_early.iter().all(|k| p.pull.early.contains(k)));
            prop_assert!(p.pull.late.iter().all(|k| ref_late.contains(k)));
            prop_assert_eq!(ref_early.len() + ref_late.len(), keys.len());

            consume(&mut c, &mut p);
            let split = c.meter.snapshot().since(before);
            let delivered = ws_bits(&c);
            let (unsplit, rows) = pull(&mut c, &keys);
            for (&(_, slot), row) in input.iter().zip(&rows) {
                prop_assert_eq!(&delivered[slot as usize], row);
            }
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

    /// The rows of `keys` onto `p`'s push, in reverse key order (the push
    /// puts them in order): one gradient each, but two for a key `several`
    /// names, with an energy of the key plus a half.
    fn push_rows(
        p: &mut Pipeline,
        keys: impl IntoIterator<Item = ParamKey>,
        several: impl Fn(ParamKey) -> bool,
    ) {
        let rows = &mut p.rows;
        rows.extend(keys.into_iter().map(|k| match several(k) {
            false => PushRow::grad(k, 0),
            true => PushRow {
                grads: 2,
                energy: k.0 as f32 + 0.5,
                ..PushRow::grad(k, 0)
            },
        }));
        rows.reverse();
    }

    /// Push `p`'s rows, each a row of ones, behind the compute that ended at
    /// `compute_end`; returns the keys and energies of each part carried,
    /// in order.
    fn push_ones(
        c: &mut WorkerCtx,
        p: &mut Pipeline,
        also_read: impl Fn(ParamKey) -> bool,
        compute_end: f64,
    ) -> Vec<(Vec<ParamKey>, Vec<f32>)> {
        const ONES: [f32; 4] = [1.0; 4];
        let mut parts = Vec::new();
        let carry = |ctx: &mut WorkerCtx, part: Part<'_>| {
            parts.push((part.keys.to_vec(), part.energies.to_vec()));
            let optimizer = ctx.optimizer.clone();
            let (keys, energies) = (part.keys, part.energies);
            ctx.client
                .try_push_coalesced_rows(keys, energies, |_| &ONES, optimizer.as_ref(), &mut ctx.ps)
                .unwrap();
        };
        p.push(c, also_read, carry, compute_end);
        parts
    }

    #[test]
    fn push_grads_clears_accumulator() {
        let (mut c, mut p) = (ctx(), Pipeline::default());
        c.grads.add(ParamKey(0), &[1.0, 0.0, 0.0, 0.0]);
        let grads = &c.grads;
        let rows = grads
            .touched()
            .iter()
            .map(|&s| PushRow::grad(grads.key_at(s), s));
        p.rows.extend(rows);
        let before = c.meter.snapshot();
        p.push(&mut c, |_| false, carry_accumulated, 0.0);
        assert!(c.grads.is_empty() && p.rows.is_empty());
        assert!(c.meter.snapshot().since(before).total_bytes() > 0);
    }

    #[test]
    fn a_sequential_run_is_timed_on_its_timeline() {
        let mut c = ctx();
        assert!(!c.overlap);
        c.begin_epoch();
        let (delta, _) = pull(&mut c, &[ParamKey(0)]);
        let pull_end = c.post_comm(delta, 0.0);
        assert_eq!(pull_end, delta.simulated_time(&c.cost));
        let compute_end = c.post_compute(1_000, pull_end);
        assert_eq!(compute_end, pull_end + c.cost.compute_time(1_000));
        let busy = c.timeline.busy(Lane::Comm) + c.timeline.busy(Lane::Compute);
        assert_eq!(c.end_epoch().critical_path_secs, busy);
    }

    /// What the fault injector makes a worker wait lands on the comm post
    /// of the exchange that waited, and only there: here a pull into an
    /// outage, which is waited out. A worker rebuilt on the same injector,
    /// as crash recovery rebuilds them, posts none of it again.
    #[test]
    fn a_fault_wait_is_posted_with_the_exchange_that_waited() {
        let plan = FaultPlan::shard_outage(1, 0, 0.0, 0.01);
        let cost = CostModel::gigabit();
        let f = Arc::new(FaultInjector::new(plan, cost, 0));
        let (mut c, _) = faulty_ctx_on(1, Some(&f));
        c.begin_epoch();
        let (delta, _) = pull(&mut c, &[ParamKey(0)]);
        assert!(f.waited() > 0.0099, "the pull waited the outage out");
        let pull_end = c.post_comm(delta, 0.0);
        assert_eq!(pull_end, delta.simulated_time(&cost) + f.waited());
        assert!((pull_end - f.now()).abs() < 1e-12, "one clock");
        let waited = f.waited();
        let (delta, _) = pull(&mut c, &[ParamKey(0)]);
        assert_eq!(f.waited(), waited, "the outage is over");
        let again = c.post_comm(delta, 0.0) - pull_end;
        assert!(
            (again - delta.simulated_time(&cost)).abs() < 1e-15,
            "nothing posted twice"
        );
        let (mut rebuilt, _) = faulty_ctx_on(1, Some(&f));
        let (delta, _) = pull(&mut rebuilt, &[ParamKey(0)]);
        assert_eq!(rebuilt.post_comm(delta, 0.0), delta.simulated_time(&cost));
    }

    /// The fault injector's clock learns a compute where the timeline
    /// places it, before the push behind it: an outage that ends during
    /// the compute refuses nothing of that push.
    #[test]
    fn a_push_behind_a_compute_is_judged_when_the_compute_ends() {
        let cost = CostModel::gigabit();
        let compute = 2_000_000;
        let outage_end = 0.5 * cost.compute_time(compute);
        let plan = FaultPlan::shard_outage(1, 0, 0.0, outage_end);
        let f = Arc::new(FaultInjector::new(plan, cost, 0));
        let (mut c, _) = faulty_ctx_on(1, Some(&f));
        let mut p = Pipeline::default();
        c.begin_epoch();
        let compute_end = c.post_compute(compute, 0.0);
        push_rows(&mut p, [ParamKey(0)], |_| false);
        push_ones(&mut c, &mut p, |_| false, compute_end);
        assert_eq!(f.stats().outage_refusals, 0, "the outage was over");
        assert_eq!(f.waited(), 0.0);
    }

    #[test]
    fn timing_enabled_builds_a_critical_path() {
        let mut c = ctx().with_timing(CostModel::gigabit(), true);
        let mut p = Pipeline::default();
        c.begin_epoch();
        let (delta, _) = pull(&mut c, &[ParamKey(0), ParamKey(3)]);
        let pull_end = c.post_comm(delta, 0.0);
        assert!(pull_end > 0.0);
        let compute_end = c.post_compute(2_000_000, pull_end);
        assert!(compute_end > pull_end);
        push_rows(&mut p, [ParamKey(0)], |_| false);
        push_ones(&mut c, &mut p, |_| false, compute_end);
        let push_end = c.timeline.now();
        assert!(push_end > compute_end);
        let cp = c.end_epoch().critical_path_secs;
        assert!(
            (cp - push_end).abs() < 1e-15,
            "fully serial chain: cp is the chain end"
        );
    }

    proptest! {
        /// The schedule, on random iterations: a batch in flight, the next
        /// one staged behind it with a random part of its keys pulled, a
        /// push of random rows, and sometimes a sync of random cached rows
        /// riding in the staged batch's consume-time request (a HET-KG
        /// sync: it reads the cached rows, which the staged batch does not
        /// pull). The push's hazard part is exactly its rows the request
        /// reads, in key order, and the rest, in key order, shares no key
        /// with the request; and the comm lane books early(i+1) < hazard(i)
        /// ≤ request(i+1) < rest(i) < early(i+2).
        #[test]
        fn the_pipeline_splits_the_push_by_what_the_request_reads_and_books_the_lane_order(
            machines in 1usize..4,
            in_flight in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 1..4),
            next in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 1..4),
            after in prop::collection::vec((0u32..10, 0u32..2, 0u32..10), 1..4),
            pulled in any::<u16>(),
            pushed in any::<u16>(),
            several in any::<u16>(),
            cached in any::<u16>(),
            sync in any::<bool>(),
        ) {
            let (c, _) = ctx_on(machines);
            let mut c = c.with_timing(CostModel::gigabit(), true);
            let mut p = Pipeline::default();
            c.begin_epoch();
            stage(&mut c, &mut p, &in_flight, false);
            let ready = consume(&mut c, &mut p);

            // Batch i+1, staged behind batch i.
            let (ks, bit) = (c.key_space, |set: u16, i: u64| set & (1 << i) != 0);
            let is_pulled = |slot: u32, _, _| bit(pulled, u64::from(slot % 16));
            let none = std::iter::empty();
            p.stage(&mut c, &batch(&next), true, is_pulled, none, None);
            let early1 = (!p.pull.early.is_empty()).then_some(p.pull.pull_end);
            let next_pulled: Vec<ParamKey> = p.plan.keys().iter().copied().zip(0u32..)
                .filter(|&(_, slot)| bit(pulled, u64::from(slot % 16)))
                .map(|(k, _)| k)
                .collect();
            // A sync reads cached rows: keys batch i+1 does not pull.
            let all_keys = (0..ks.len() as u64).map(ParamKey);
            let table: Vec<ParamKey> = all_keys.clone()
                .filter(|k| bit(cached, k.0) && !next_pulled.contains(k))
                .collect();

            // Batch i's compute and push.
            let compute_end = c.post_compute(2_000_000, ready);
            let rows: Vec<ParamKey> = all_keys.filter(|k| bit(pushed, k.0)).collect();
            let coalesced = |k: ParamKey| bit(several, k.0);
            push_rows(&mut p, rows.iter().copied(), coalesced);
            let synced = |k: ParamKey| sync && table.contains(&k);
            let parts = push_ones(&mut c, &mut p, synced, compute_end);
            let hazard_end = c.timeline.now();

            // Batch i+1 is consumed: its late keys and, with a sync, the
            // table's rows.
            let no_fresh = |_: &mut (), k, _, _: &[f32]| unreachable!("{k} staged as fresh");
            let ready = p.consume(&mut c, &mut (), no_fresh, |ctx, _, pull, keys| {
                pull_late(ctx, pull, keys);
                if sync && !table.is_empty() {
                    keys.extend_from_slice(&table);
                    ctx.client.try_pull_batch_with(&table, &mut ctx.ps, |_, _| {}).unwrap();
                }
            });
            let read_late = !p.pull.late.is_empty();
            let request_end = if read_late { ready } else { p.refreshed_end };
            let rest_end = c.timeline.now();

            // The push's parts are the rows the request read, and the rest.
            let (hazard, rest): (Vec<ParamKey>, Vec<ParamKey>) =
                rows.iter().partition(|k| p.request.contains(k));
            // Each in push order: one gradient before several, by key.
            let in_order = |mut keys: Vec<ParamKey>| {
                keys.sort_by_key(|&k| (coalesced(k), k));
                let energies = keys.iter().filter(|&&k| coalesced(k));
                let energies = energies.map(|k| k.0 as f32 + 0.5).collect();
                (keys, energies)
            };
            let expected: Vec<(Vec<ParamKey>, Vec<f32>)> = [hazard.clone(), rest.clone()]
                .into_iter()
                .filter(|part| !part.is_empty())
                .map(in_order)
                .collect();
            prop_assert_eq!(&parts, &expected);
            prop_assert!(rest.iter().all(|k| !p.request.contains(k)));

            // Batch i+2, staged behind batch i+1.
            stage(&mut c, &mut p, &after, true);
            let early2 = (!p.pull.early.is_empty()).then_some(p.pull.pull_end);

            let lane = [
                early1,
                (!hazard.is_empty()).then_some(hazard_end),
                (!p.request.is_empty()).then_some(request_end),
                (!rest.is_empty()).then_some(rest_end),
                early2,
            ];
            let booked: Vec<f64> = lane.into_iter().flatten().collect();
            prop_assert!(
                booked.windows(2).all(|w| w[0] < w[1]),
                "booked out of order: {:?}", lane
            );
        }
    }

    /// The data check that does not depend on call order: a consume-time
    /// request may not read a row of the push's held rest. Worker 0, two
    /// shards: entities 0 and 2 and relation 0 in flight, entity 0 read
    /// late by the batch staged behind them; the push of entities 0, 1 and
    /// 2 and relation 0 holds entity 0 in its hazard part, the others in
    /// its rest — and a request reads entity 2.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a consume-time request read a row of the push's held rest")]
    fn a_request_reading_a_row_of_the_held_rest_is_refused() {
        let (c, _) = ctx_on(2);
        let mut c = c.with_timing(CostModel::gigabit(), true);
        let mut p = Pipeline::default();
        put_in_flight(&mut c);
        stage(&mut c, &mut p, &[(1, 1, 0)], true);
        assert_eq!(p.pull.late, [ParamKey(0)]);
        push_rows(&mut p, [0u64, 1, 2, 10].map(ParamKey), |_| false);
        let parts = push_ones(&mut c, &mut p, |_| false, 1.0);
        let keys: Vec<_> = parts.into_iter().map(|(keys, _)| keys).collect();
        assert_eq!(
            keys,
            [vec![ParamKey(0)], [1u64, 2, 10].map(ParamKey).to_vec()]
        );
        let no_fresh = |_: &mut (), k, _, _: &[f32]| unreachable!("{k} staged as fresh");
        p.consume(&mut c, &mut (), no_fresh, |_, _, _, keys| {
            keys.push(ParamKey(2))
        });
    }
}
