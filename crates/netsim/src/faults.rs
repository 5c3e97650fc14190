//! Seeded, deterministic fault injection for the simulated network.
//!
//! A [`FaultPlan`] describes *what can go wrong* — per-link drop
//! probability, latency-spike episodes, and PS-shard outage windows — all
//! expressed in **simulated time**, the same clock the [`CostModel`] feeds.
//! A per-worker [`FaultInjector`] adjudicates every metered message against
//! the plan using a seeded RNG and a private simulated clock, so a fault
//! run is bit-reproducible regardless of host scheduling: two runs with the
//! same plan, seed, and workload see exactly the same drops at exactly the
//! same simulated instants.
//!
//! The injector deliberately knows nothing about retries or caching; it
//! only answers "what happened to this message?" via [`Verdict`]. Retry
//! policy lives in the PS client, degraded-mode semantics in the trainer —
//! both report their countermeasures back here
//! ([`count`](FaultInjector::count)), so each event is counted once, in the
//! worker's [`FaultSnapshot`]. The run's report is
//! those ledgers [`merge`](FaultSnapshot::merge)d, plus the few counts only
//! the trainer sees.

use crate::cost::CostModel;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A window of simulated time during which one PS shard is unreachable
/// (process crash, network partition). All traffic to the shard — local or
/// remote — is refused while `start <= now < end`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// The shard (= simulated machine) that is down.
    pub shard: usize,
    /// Outage start, in simulated seconds.
    pub start: f64,
    /// Outage end (exclusive), in simulated seconds.
    pub end: f64,
}

impl OutageWindow {
    /// Whether simulated instant `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A straggler episode: remote messages sent during the window take
/// `latency_factor` times their normal transmission time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlowEpisode {
    /// Episode start, in simulated seconds.
    pub start: f64,
    /// Episode end (exclusive), in simulated seconds.
    pub end: f64,
    /// Multiplier on remote message time (>= 1.0).
    pub latency_factor: f64,
}

/// A flash-crowd overload window: while `start <= now < end` the target
/// shard's service latency inflates with its in-flight queue depth, and
/// requests arriving with the queue already at `queue_capacity` are shed
/// outright ([`Verdict::Overloaded`]).
///
/// The queue model is deterministic and RNG-free: each injector tracks the
/// depth it has in flight against the shard, draining it at `drain_rate`
/// requests per simulated second between arrivals. Adjudication happens
/// outside the drop/corrupt RNG draws (like [`ShardKill`]), so attaching an
/// overload window to a plan never perturbs the existing verdict streams.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadWindow {
    /// The saturated shard.
    pub shard: usize,
    /// Window start, in simulated seconds.
    pub start: f64,
    /// Window end (exclusive), in simulated seconds.
    pub end: f64,
    /// In-flight requests the shard sustains before shedding arrivals.
    pub queue_capacity: u32,
    /// Requests per simulated second the shard drains from its queue.
    pub drain_rate: f64,
    /// Extra service latency per queued request, in simulated seconds
    /// (service time grows linearly with queue depth).
    pub latency_per_inflight: f64,
}

impl OverloadWindow {
    /// Whether simulated instant `t` falls inside the window.
    #[inline]
    pub fn contains(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A permanent PS-shard death: from `at` (simulated seconds) onward the
/// primary replica of `shard` never answers again. Unlike an
/// [`OutageWindow`] there is no recovery — the only way forward is for a
/// backup replica to be promoted to primary (failover). Kills are inert
/// unless the run has backup replicas to promote (a [`ShardLiveness`] table
/// is attached to the injectors), so replication-off runs are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardKill {
    /// The shard whose primary dies.
    pub shard: usize,
    /// Death instant, in simulated seconds.
    pub at: f64,
}

/// An injected worker crash: during this epoch the workers die, losing all
/// progress since the last recovery checkpoint; the trainer restores the
/// parameter server from that checkpoint, rebuilds the workers, and
/// resumes from the checkpoint's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashPoint {
    /// Zero-based epoch during which the crash fires.
    pub epoch: usize,
}

/// The names [`FaultPlan::preset`] knows, in the order the CLI lists them.
pub const PRESETS: [&str; 6] = [
    "lossy", "corrupt", "outage", "overload", "chaos", "failover",
];

/// Everything that can go wrong in one run. The default plan is fault-free:
/// attaching it must leave behavior byte-identical to no plan at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// Seed for the per-worker adjudication RNGs.
    #[serde(default)]
    pub seed: u64,
    /// Probability that a remote message is dropped in transit.
    #[serde(default)]
    pub drop_probability: f64,
    /// Probability that a remote message is delivered with a flipped payload
    /// bit (detected by the wire-frame checksum when integrity is on).
    #[serde(default)]
    pub corrupt_probability: f64,
    /// Straggler episodes (remote latency multipliers).
    #[serde(default)]
    pub slow_episodes: Vec<SlowEpisode>,
    /// PS-shard outage windows.
    #[serde(default)]
    pub outages: Vec<OutageWindow>,
    /// Optional injected worker crash (handled by the trainer).
    #[serde(default)]
    pub crash: Option<CrashPoint>,
    /// Additional injected crashes; the supervisor handles each one with a
    /// bounded restart budget. Unioned with `crash` (kept for wire
    /// compatibility with plans serialized before multi-crash support).
    #[serde(default)]
    pub crashes: Vec<CrashPoint>,
    /// Tear (truncate mid-write) the n-th recovery checkpoint the trainer
    /// saves, simulating a crash between `write` and `fsync`. Recovery must
    /// fall back to the most recent checkpoint that still validates.
    #[serde(default)]
    pub torn_checkpoint: Option<u64>,
    /// Permanent primary-shard deaths (failover required). Only effective
    /// when shard replication is on; without backups to promote, kills are
    /// masked so legacy replication-off runs keep their exact behavior.
    #[serde(default)]
    pub kills: Vec<ShardKill>,
    /// Flash-crowd overload windows: queue-depth-dependent latency
    /// inflation and deterministic request shedding on a saturated shard.
    #[serde(default)]
    pub overloads: Vec<OverloadWindow>,
}

impl FaultPlan {
    /// Whether this plan can never perturb anything: no drops, no
    /// corruption, no straggler episodes, no outages, no crashes, no torn
    /// checkpoints. Attaching an inert plan is byte-identical to attaching
    /// no plan at all, so optimizations that must be disabled under real
    /// faults (e.g. pipelined prefetching) may stay on for inert plans
    /// without breaking that equivalence.
    pub fn is_inert(&self) -> bool {
        self.drop_probability == 0.0
            && self.corrupt_probability == 0.0
            && self.slow_episodes.is_empty()
            && self.outages.is_empty()
            && self.crash.is_none()
            && self.crashes.is_empty()
            && self.torn_checkpoint.is_none()
            && self.kills.is_empty()
            && self.overloads.is_empty()
    }

    /// A lossy network: remote messages dropped with probability `p`.
    pub fn lossy(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "drop probability in [0, 1]");
        Self {
            seed,
            drop_probability: p,
            ..Self::default()
        }
    }

    /// One shard unreachable over `[start, end)` simulated seconds.
    pub fn shard_outage(seed: u64, shard: usize, start: f64, end: f64) -> Self {
        assert!(end > start, "outage must have positive duration");
        Self {
            seed,
            outages: vec![OutageWindow { shard, start, end }],
            ..Self::default()
        }
    }

    /// A corrupting network: remote messages arrive with a flipped payload
    /// bit with probability `p`. With checksummed frames the client detects
    /// and re-pulls; without them the garbage is ingested.
    pub fn corrupting(seed: u64, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "corruption probability in [0, 1]");
        Self {
            seed,
            corrupt_probability: p,
            ..Self::default()
        }
    }

    /// The documented "everything at once" profile used by the CLI: a 2%
    /// lossy network, a mid-run outage of shard 1, a straggler episode, and
    /// a worker crash at the start of epoch 1. Window positions are sized
    /// for the CLI's synthetic workloads (simulated run time of a few
    /// hundred milliseconds); tests over tiny graphs build their own plans.
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.02,
            slow_episodes: vec![SlowEpisode {
                start: 0.010,
                end: 0.030,
                latency_factor: 4.0,
            }],
            outages: vec![OutageWindow {
                shard: 1,
                start: 0.050,
                end: 0.150,
            }],
            crash: Some(CrashPoint { epoch: 1 }),
            // A permanent primary death late in the run. Masked unless the
            // run has backup replicas (`--replication 2+`), in which case
            // the chaos profile also exercises promotion.
            kills: vec![ShardKill {
                shard: 0,
                at: 0.200,
            }],
            ..Self::default()
        }
    }

    /// The failover profile used by the CLI: a permanent kill of shard 1's
    /// primary mid-run, a straggler episode wide enough to trigger hedged
    /// pulls, and a mildly lossy network. No crash points — the point of
    /// this profile is that training rides through the shard death on the
    /// promoted backup without restarting from a checkpoint. Requires
    /// replication (k >= 2); with no backups the kill would be masked.
    ///
    /// The fault times sit in the first few simulated milliseconds so the
    /// profile bites on any workload: a small test graph's whole run spans
    /// under ten milliseconds of simulated time, while a CLI-scale run
    /// spends hundreds — either way the straggler episode primes the hedge
    /// threshold and the kill lands mid-epoch-zero, leaving most of the
    /// run to execute against the promoted backup.
    pub fn failover(seed: u64) -> Self {
        Self {
            seed,
            drop_probability: 0.01,
            slow_episodes: vec![SlowEpisode {
                start: 0.0005,
                end: 0.004,
                latency_factor: 4.0,
            }],
            kills: vec![ShardKill {
                shard: 1,
                at: 0.002,
            }],
            ..Self::default()
        }
    }

    /// The overload profile used by the CLI: a flash crowd saturates shard
    /// 1 early in the run. Service latency on the shard inflates with queue
    /// depth and arrivals past a small queue capacity are shed. The window
    /// is what arms the trainer's retry budget and circuit breakers
    /// (`hetkg_ps::OverloadControl::for_plan`), which ride it out on
    /// bounded-stale cache hits instead of a metered retry storm. No drops,
    /// stragglers, or crashes — the
    /// window is the only perturbation, which keeps cause and effect
    /// legible in the run report.
    ///
    /// Like [`FaultPlan::failover`], the window sits in the first few
    /// simulated milliseconds so it bites at both test scale (whole runs
    /// under ten simulated milliseconds) and CLI scale (hundreds).
    pub fn overload(seed: u64) -> Self {
        Self {
            seed,
            overloads: vec![OverloadWindow {
                shard: 1,
                start: 0.0005,
                end: 0.004,
                queue_capacity: 1,
                drain_rate: 2_000.0,
                latency_per_inflight: 100e-6,
            }],
            ..Self::default()
        }
    }

    /// The named plan `name` (one of [`PRESETS`]) at `seed`, or `None` for
    /// a name that is not a preset. The CLI's `--fault-profile` and the
    /// experiment harness's ledger both resolve names here.
    pub fn preset(name: &str, seed: u64) -> Option<Self> {
        Some(match name {
            "lossy" => Self::lossy(seed, 0.02),
            "corrupt" => Self::corrupting(seed, 0.01),
            "outage" => Self::shard_outage(seed, 1, 0.050, 0.150),
            "overload" => Self::overload(seed),
            "chaos" => Self::chaos(seed),
            "failover" => Self::failover(seed),
            _ => return None,
        })
    }

    /// All scheduled crash epochs (`crash` unioned with `crashes`), sorted
    /// and deduplicated.
    pub fn crash_epochs(&self) -> Vec<usize> {
        let mut epochs: Vec<usize> = self
            .crash
            .iter()
            .chain(self.crashes.iter())
            .map(|c| c.epoch)
            .collect();
        epochs.sort_unstable();
        epochs.dedup();
        epochs
    }
}

/// The injector's answer for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// The message went through (possibly slowed by an episode).
    Deliver,
    /// The message was lost in transit; the sender should back off and retry.
    Drop,
    /// The message arrived, but a payload bit was flipped in transit. The
    /// receiver only notices if the frame carries a checksum.
    Corrupt,
    /// The target shard is down until the given simulated instant.
    ShardDown {
        /// Simulated instant at which the shard comes back.
        until: f64,
    },
    /// The target shard's primary is permanently dead; it will never answer
    /// again. The client must promote a backup replica (failover) before
    /// any message to this shard can succeed.
    ShardDead,
    /// The target shard shed this request: its in-flight queue is at
    /// capacity inside a flash-crowd window. The request was *not* queued;
    /// `retry_at` is the earliest simulated instant at which one queue slot
    /// will have drained.
    Overloaded {
        /// Earliest useful retry instant (one drained queue slot).
        retry_at: f64,
    },
}

crate::counters! {
    /// The fault ledger: fault and countermeasure counters. One injector (one
    /// worker) counts into its own; a run's report is every injector's
    /// [`merge`](Self::merge)d with one the trainer fills with the six
    /// run-level fields — `recoveries` and `checkpoints` from its recovery
    /// loop, the four `breaker_*`/`brownout_secs` from the shared breaker
    /// table — which an injector's own ledger leaves at zero.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct FaultSnapshot {
        /// Remote messages lost in transit.
        pub drops: u64,
        /// Retransmission attempts made by the PS client.
        pub retries: u64,
        /// Bytes re-sent due to drops (also metered as traffic, so simulated
        /// network time already pays for them).
        pub retransmitted_bytes: u64,
        /// Messages refused because the target shard was down.
        pub outage_refusals: u64,
        /// Remote messages slowed by a straggler episode.
        pub slow_messages: u64,
        /// Extra simulated seconds added by straggler episodes.
        pub extra_latency_secs: f64,
        /// Simulated seconds spent in retry backoff / waiting out outages.
        pub backoff_secs: f64,
        /// Cache hits served stale because the home shard was down.
        pub degraded_hits: u64,
        /// Gradient pushes deferred into the local backlog during an outage.
        pub deferred_pushes: u64,
        /// Backlog flushes performed after shard recovery.
        pub backlog_flushes: u64,
        /// Crash-recovery restarts (restore-from-checkpoint events); run-level.
        #[serde(default)]
        pub recoveries: u64,
        /// Recovery checkpoints taken during the run; run-level.
        #[serde(default)]
        pub checkpoints: u64,
        /// Remote messages delivered with a flipped payload bit.
        #[serde(default)]
        pub corrupt_frames: u64,
        /// Corrupt frames caught by the checksum and re-pulled (never ingested).
        #[serde(default)]
        pub corrupt_detected: u64,
        /// Corrupt frames ingested because checksums were disabled (poisoned
        /// entries; zero whenever integrity is on).
        #[serde(default)]
        pub corrupt_ingested: u64,
        /// Backup replicas promoted to primary after a permanent shard death.
        #[serde(default)]
        pub promotions: u64,
        /// Replication-backlog frames replayed during anti-entropy catch-up.
        #[serde(default)]
        pub catch_up_frames: u64,
        /// Bytes replayed during anti-entropy catch-up.
        #[serde(default)]
        pub catch_up_bytes: u64,
        /// Hedged pulls issued because the primary looked like a straggler.
        #[serde(default)]
        pub hedged_pulls: u64,
        /// Hedged pulls where the backup's response arrived first.
        #[serde(default)]
        pub hedged_wins: u64,
        /// Hedged pulls where the primary still won the race.
        #[serde(default)]
        pub hedged_losses: u64,
        /// Requests shed by a saturated shard inside an overload window.
        #[serde(default)]
        pub overload_sheds: u64,
        /// Messages delivered with queue-induced service-latency inflation.
        #[serde(default)]
        pub overload_throttled: u64,
        /// Extra simulated seconds of queue-induced service latency.
        #[serde(default)]
        pub overload_extra_secs: f64,
        /// Retries refused because the run-global retry budget was dry.
        #[serde(default)]
        pub retries_denied: u64,
        /// Requests failed fast by an open circuit breaker (no send, no
        /// exponential backoff burned).
        #[serde(default)]
        pub breaker_fast_fails: u64,
        /// Cache hits served stale because the home shard's breaker was open
        /// (brownout), beyond the ordinary outage-driven `degraded_hits`.
        #[serde(default)]
        pub brownout_stale_serves: u64,
        /// Deferred gradient pushes dropped because the brownout backlog hit
        /// its bound.
        #[serde(default)]
        pub shed_pushes: u64,
        /// Circuit-breaker Closed→Open transitions; run-level.
        #[serde(default)]
        pub breaker_opens: u64,
        /// Circuit-breaker Open→HalfOpen probe transitions; run-level.
        #[serde(default)]
        pub breaker_half_opens: u64,
        /// Circuit-breaker HalfOpen→Closed recoveries; run-level.
        #[serde(default)]
        pub breaker_closes: u64,
        /// Total simulated seconds shards spent behind a tripped breaker, over
        /// closed brownout episodes; run-level.
        #[serde(default)]
        pub brownout_secs: f64,
    }
}

impl FaultSnapshot {
    /// Total fault events (drops + refusals + slowdowns + corruptions +
    /// overload sheds).
    pub fn total_faults(&self) -> u64 {
        self.drops
            + self.outage_refusals
            + self.slow_messages
            + self.corrupt_frames
            + self.overload_sheds
    }

    /// Whether no fault fired and no countermeasure ran.
    pub fn is_quiet(&self) -> bool {
        *self == FaultSnapshot::default()
    }
}

/// Shared per-shard failover state: which killed shards have had a backup
/// promoted to primary. One table per run, shared by every worker's
/// injector and by the PS client performing the promotions — once any
/// worker fails a shard over, all workers route to the promoted backup.
///
/// Promotion events carry the simulated instant they happened at so the
/// trainer can forward them to the supervisor's event log.
#[derive(Debug, Default)]
pub struct ShardLiveness {
    promoted: Vec<AtomicBool>,
    events: Mutex<Vec<(usize, f64)>>,
}

impl ShardLiveness {
    /// A table for `num_shards` shards, none promoted.
    pub fn new(num_shards: usize) -> Self {
        Self {
            promoted: (0..num_shards).map(|_| AtomicBool::new(false)).collect(),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Whether `shard` has already failed over to a backup.
    pub fn is_promoted(&self, shard: usize) -> bool {
        self.promoted
            .get(shard)
            .is_some_and(|p| p.load(Ordering::Acquire))
    }

    /// Mark `shard` as failed over at simulated instant `at`. Returns
    /// `true` if this call performed the promotion (it was not already
    /// promoted), recording the event.
    pub fn promote(&self, shard: usize, at: f64) -> bool {
        let Some(flag) = self.promoted.get(shard) else {
            return false;
        };
        let newly = !flag.swap(true, Ordering::AcqRel);
        if newly {
            self.events.lock().push((shard, at));
        }
        newly
    }

    /// Drain the pending promotion events `(shard, simulated_instant)`.
    pub fn take_events(&self) -> Vec<(usize, f64)> {
        std::mem::take(&mut *self.events.lock())
    }
}

/// SplitMix64: tiny, seedable, and good enough for fault adjudication.
/// Inlined so `hetkg-netsim` stays free of RNG-crate dependencies.
#[derive(Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Deterministic per-shard in-flight queue state for overload windows.
#[derive(Debug, Clone, Copy, Default)]
struct QueueState {
    /// Simulated instant of the last depth update.
    last: f64,
    /// In-flight requests this injector has queued at the shard.
    depth: f64,
}

#[derive(Debug)]
struct InjectorState {
    rng: SplitMix64,
    /// This worker's simulated clock: compute + message time + backoff.
    clock: f64,
    /// The part of `clock` no message's metered price accounts for: see
    /// [`FaultInjector::waited`].
    waited: f64,
    stats: FaultSnapshot,
    /// Per-shard overload queues (indexed by shard; grown on demand; empty
    /// for plans without overload windows).
    queues: Vec<QueueState>,
}

impl InjectorState {
    /// Charge `secs` of waiting to the clock: time spent beyond any
    /// message's metered price (a credit when negative).
    fn wait(&mut self, secs: f64) {
        self.clock += secs;
        self.waited += secs;
    }
}

/// One worker's fault adjudicator.
///
/// Determinism contract: the injector is driven only by its owning worker
/// (messages sent, compute performed, backoff waited), so its clock and RNG
/// stream depend solely on `(plan, worker_id, workload)` — never on thread
/// interleaving. The `Mutex` exists for `Sync`, not for sharing.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    cost: CostModel,
    /// Failover table shared across workers. `None` means the run has no
    /// backup replicas to promote, so permanent kills are masked — a kill
    /// plan at replication 1 behaves exactly like the same plan without
    /// kills.
    liveness: Option<Arc<ShardLiveness>>,
    inner: Mutex<InjectorState>,
}

impl FaultInjector {
    /// Build the injector for `worker_id`. Each worker gets an independent
    /// RNG stream derived from the plan seed.
    pub fn new(plan: FaultPlan, cost: CostModel, worker_id: usize) -> Self {
        let mut seeder =
            SplitMix64::new(plan.seed ^ (worker_id as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let rng = SplitMix64::new(seeder.next_u64());
        Self {
            plan,
            cost,
            liveness: None,
            inner: Mutex::new(InjectorState {
                rng,
                clock: 0.0,
                waited: 0.0,
                stats: FaultSnapshot::default(),
                queues: Vec::new(),
            }),
        }
    }

    /// Attach the run's shared failover table, arming any [`ShardKill`]s in
    /// the plan. Without this, kills are masked (no backups to promote).
    pub fn with_liveness(mut self, liveness: Arc<ShardLiveness>) -> Self {
        self.liveness = Some(liveness);
        self
    }

    /// The attached failover table, if any.
    pub fn liveness(&self) -> Option<&Arc<ShardLiveness>> {
        self.liveness.as_ref()
    }

    /// The cost model this injector charges simulated time under.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// Current simulated instant on this worker's clock.
    pub fn now(&self) -> f64 {
        self.inner.lock().clock
    }

    /// Simulated seconds this worker has spent so far beyond the metered
    /// price of its messages and the cost of its compute: refused attempts'
    /// connect latency, backoff and outage waits (breaker cooldowns
    /// included), straggler and overload service latency, less hedge
    /// credits. The clock is the sum of the three. Exactly 0.0 while
    /// nothing has gone wrong, so a worker's timeline can add it to its comm
    /// lane without moving a clean run's.
    pub fn waited(&self) -> f64 {
        self.inner.lock().waited
    }

    /// Advance the clock by raw simulated seconds.
    pub fn advance(&self, secs: f64) {
        debug_assert!(secs >= 0.0);
        self.inner.lock().clock += secs;
    }

    /// Advance the clock by the cost of `work_units` of kernel compute.
    pub fn advance_compute(&self, work_units: u64) {
        self.advance(self.cost.compute_time(work_units));
    }

    /// Whether `shard` is reachable at the current simulated instant.
    /// Pure clock lookup — consumes no randomness.
    pub fn shard_available(&self, shard: usize) -> bool {
        let now = self.inner.lock().clock;
        !self
            .plan
            .outages
            .iter()
            .any(|w| w.shard == shard && w.contains(now))
    }

    /// Adjudicate one message of `bytes` payload to `shard`, advancing the
    /// clock by its transmission time. `remote` selects the link type (drops
    /// and slow episodes apply only to remote messages; outages refuse both).
    pub fn adjudicate(&self, shard: usize, remote: bool, bytes: u64) -> Verdict {
        let mut inner = self.inner.lock();

        // Permanent death outranks everything else, but only when the run
        // has backups to fail over to; otherwise kills are masked entirely
        // (no stats, no clock charge, no RNG draws).
        if let Some(liveness) = &self.liveness {
            if !liveness.is_promoted(shard)
                && self
                    .plan
                    .kills
                    .iter()
                    .any(|k| k.shard == shard && inner.clock >= k.at)
            {
                // The failed connect still costs one connect-timeout latency.
                inner.wait(self.cost.remote_latency);
                return Verdict::ShardDead;
            }
        }

        if let Some(w) = self
            .plan
            .outages
            .iter()
            .filter(|w| w.shard == shard && w.contains(inner.clock))
            .max_by(|a, b| a.end.total_cmp(&b.end))
        {
            // A refused attempt still costs one connect-timeout latency.
            inner.stats.outage_refusals += 1;
            inner.wait(self.cost.remote_latency);
            return Verdict::ShardDown { until: w.end };
        }

        // Flash-crowd adjudication: deterministic and RNG-free, slotted
        // between the outage check and the drop/corrupt draws so plans
        // without overload windows keep their exact RNG streams.
        let mut overload_extra = 0.0;
        if !self.plan.overloads.is_empty() {
            if let Some(w) = self
                .plan
                .overloads
                .iter()
                .find(|w| w.shard == shard && w.contains(inner.clock))
            {
                if shard >= inner.queues.len() {
                    inner.queues.resize(shard + 1, QueueState::default());
                }
                let now = inner.clock;
                let q = &mut inner.queues[shard];
                // Drain whatever completed since the last arrival, then
                // admit (or shed) this request.
                q.depth = (q.depth - (now - q.last).max(0.0) * w.drain_rate).max(0.0);
                q.last = now;
                if q.depth + 1.0 > w.queue_capacity as f64 {
                    // Shed: the request is refused, not queued. The failed
                    // attempt still costs one connect-timeout latency.
                    let retry_at = now + 1.0 / w.drain_rate.max(1.0);
                    inner.stats.overload_sheds += 1;
                    inner.wait(self.cost.remote_latency);
                    return Verdict::Overloaded { retry_at };
                }
                q.depth += 1.0;
                // Service latency inflates linearly with the queue ahead.
                overload_extra = q.depth * w.latency_per_inflight;
                inner.stats.overload_throttled += 1;
                inner.stats.overload_extra_secs += overload_extra;
            }
        }

        let base = if remote {
            self.cost.remote_time(bytes, 1)
        } else {
            self.cost.local_time(bytes, 1)
        };
        let mut factor: f64 = 1.0;
        if remote {
            for ep in &self.plan.slow_episodes {
                if inner.clock >= ep.start && inner.clock < ep.end {
                    factor = factor.max(ep.latency_factor);
                }
            }
        }
        if factor > 1.0 {
            inner.stats.slow_messages += 1;
            inner.stats.extra_latency_secs += base * (factor - 1.0);
        }
        // One charge: the clock's arithmetic decides verdicts, so the wait
        // is tallied beside it rather than split out of it.
        inner.clock += base * factor + overload_extra;
        inner.waited += base * (factor - 1.0) + overload_extra;

        if remote && self.plan.drop_probability > 0.0 {
            let draw = inner.rng.next_f64();
            if draw < self.plan.drop_probability {
                inner.stats.drops += 1;
                return Verdict::Drop;
            }
        }
        if remote && self.plan.corrupt_probability > 0.0 {
            let draw = inner.rng.next_f64();
            if draw < self.plan.corrupt_probability {
                inner.stats.corrupt_frames += 1;
                return Verdict::Corrupt;
            }
        }
        Verdict::Deliver
    }

    /// A raw 64-bit draw selecting *which* bit a corrupt frame loses. Only
    /// called on the `Verdict::Corrupt` path, so corruption-free plans draw
    /// no extra randomness.
    pub fn corruption_pattern(&self) -> u64 {
        self.inner.lock().rng.next_u64()
    }

    /// A uniform [0, 1) draw from this worker's RNG stream (backoff jitter).
    pub fn jitter(&self) -> f64 {
        self.inner.lock().rng.next_f64()
    }

    /// Count one event into this worker's ledger: `event` adds to the
    /// counters it moves, e.g. `f.count(|s| s.degraded_hits += n)`.
    pub fn count(&self, event: impl FnOnce(&mut FaultSnapshot)) {
        event(&mut self.inner.lock().stats);
    }

    /// Spend `secs` of simulated time backing off / waiting for recovery.
    pub fn note_backoff(&self, secs: f64) {
        debug_assert!(secs >= 0.0);
        let mut inner = self.inner.lock();
        inner.stats.backoff_secs += secs;
        inner.wait(secs);
    }

    /// Record one hedged pull. On a win the pull effectively completed when
    /// the backup answered, so `saved_secs` (the time the primary's
    /// straggling response would have added) is credited back to the clock.
    pub fn note_hedged_pull(&self, backup_won: bool, saved_secs: f64) {
        debug_assert!(saved_secs >= 0.0);
        let mut inner = self.inner.lock();
        inner.stats.hedged_pulls += 1;
        if backup_won {
            inner.stats.hedged_wins += 1;
            inner.wait(-saved_secs);
        } else {
            inner.stats.hedged_losses += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> FaultSnapshot {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injector(plan: FaultPlan) -> FaultInjector {
        FaultInjector::new(plan, CostModel::gigabit(), 0)
    }

    #[test]
    fn zero_plan_always_delivers_and_draws_no_randomness() {
        let inj = injector(FaultPlan::default());
        for _ in 0..1000 {
            assert_eq!(inj.adjudicate(0, true, 1024), Verdict::Deliver);
            assert_eq!(inj.adjudicate(1, false, 1024), Verdict::Deliver);
        }
        let s = inj.stats();
        assert_eq!(s, FaultSnapshot::default());
        assert!(inj.now() > 0.0, "clock still advances by message time");
        assert_eq!(inj.waited(), 0.0, "and nothing else");
    }

    #[test]
    fn verdict_stream_is_deterministic_in_seed() {
        let run = |seed| {
            let inj = injector(FaultPlan::lossy(seed, 0.2));
            (0..500)
                .map(|_| inj.adjudicate(1, true, 256) == Verdict::Drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds see different drops");
    }

    #[test]
    fn workers_get_independent_streams() {
        let plan = FaultPlan::lossy(3, 0.3);
        let a = FaultInjector::new(plan.clone(), CostModel::gigabit(), 0);
        let b = FaultInjector::new(plan, CostModel::gigabit(), 1);
        let va: Vec<bool> = (0..200)
            .map(|_| a.adjudicate(1, true, 64) == Verdict::Drop)
            .collect();
        let vb: Vec<bool> = (0..200)
            .map(|_| b.adjudicate(1, true, 64) == Verdict::Drop)
            .collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let inj = injector(FaultPlan::lossy(42, 0.25));
        let n = 10_000;
        let drops = (0..n)
            .filter(|_| inj.adjudicate(1, true, 64) == Verdict::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(inj.stats().drops, drops as u64);
    }

    #[test]
    fn drops_apply_only_to_remote_messages() {
        let inj = injector(FaultPlan::lossy(1, 1.0));
        assert_eq!(inj.adjudicate(0, false, 64), Verdict::Deliver);
        assert_eq!(inj.adjudicate(0, true, 64), Verdict::Drop);
    }

    #[test]
    fn outage_refuses_then_recovers() {
        let inj = injector(FaultPlan::shard_outage(0, 1, 0.0, 0.5));
        assert!(!inj.shard_available(1));
        assert!(inj.shard_available(0));
        match inj.adjudicate(1, true, 64) {
            Verdict::ShardDown { until } => assert_eq!(until, 0.5),
            v => panic!("expected ShardDown, got {v:?}"),
        }
        assert_eq!(inj.stats().outage_refusals, 1);
        // Other shards unaffected during the window.
        assert_eq!(inj.adjudicate(0, true, 64), Verdict::Deliver);
        // Waiting past the window restores service.
        inj.advance(1.0);
        assert!(inj.shard_available(1));
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
    }

    #[test]
    fn outage_applies_to_local_traffic_too() {
        // Shard 0 is worker 0's own machine: a crashed PS process refuses
        // shared-memory clients as well.
        let inj = injector(FaultPlan::shard_outage(0, 0, 0.0, 1.0));
        assert!(matches!(
            inj.adjudicate(0, false, 64),
            Verdict::ShardDown { .. }
        ));
    }

    #[test]
    fn slow_episode_inflates_message_time() {
        let plan = FaultPlan {
            slow_episodes: vec![SlowEpisode {
                start: 0.0,
                end: 10.0,
                latency_factor: 3.0,
            }],
            ..FaultPlan::default()
        };
        let cost = CostModel::gigabit();
        let inj = injector(plan);
        let before = inj.now();
        assert_eq!(inj.adjudicate(1, true, 1000), Verdict::Deliver);
        let elapsed = inj.now() - before;
        let base = cost.remote_time(1000, 1);
        assert!(
            (elapsed - 3.0 * base).abs() < 1e-12,
            "elapsed {elapsed}, base {base}"
        );
        let s = inj.stats();
        assert_eq!(s.slow_messages, 1);
        assert!((s.extra_latency_secs - 2.0 * base).abs() < 1e-12);
        // The slowdown is a wait; the message's own price is not.
        assert!((inj.waited() - 2.0 * base).abs() < 1e-12);
    }

    #[test]
    fn slow_episode_does_not_touch_local_messages() {
        let plan = FaultPlan {
            slow_episodes: vec![SlowEpisode {
                start: 0.0,
                end: 10.0,
                latency_factor: 5.0,
            }],
            ..FaultPlan::default()
        };
        let inj = injector(plan);
        inj.adjudicate(0, false, 1000);
        assert_eq!(inj.stats().slow_messages, 0);
    }

    #[test]
    fn clock_advances_by_compute_and_backoff() {
        let cost = CostModel::gigabit();
        let inj = injector(FaultPlan::default());
        inj.advance_compute(1_000_000);
        let t1 = inj.now();
        assert!((t1 - cost.compute_time(1_000_000)).abs() < 1e-15);
        assert_eq!(inj.waited(), 0.0, "compute is not a wait");
        inj.note_backoff(0.25);
        assert!((inj.now() - t1 - 0.25).abs() < 1e-15);
        assert!((inj.stats().backoff_secs - 0.25).abs() < 1e-15);
        assert_eq!(inj.waited(), 0.25);
    }

    /// A `T` whose counters each hold a distinct value: the `i`-th number of
    /// its JSON (nested ones included, in key order) is `base + step·i`, a
    /// quarter of that for an `f64`. The fields are enumerated through serde,
    /// not the list `counters!` was given, so a field that `merge` or `since`
    /// leaves out, or takes from the wrong side, misses its value.
    fn distinct<T: Default + Serialize + Deserialize>(base: u64, step: u64) -> T {
        fn fill(value: &serde_json::Value, next: &mut impl FnMut() -> u64) -> serde_json::Value {
            match value {
                serde_json::Value::Map(fields) => {
                    let mut out = serde_json::Map::new();
                    for (key, field) in fields.iter() {
                        out.insert(key.clone(), fill(field, next));
                    }
                    serde_json::Value::Map(out)
                }
                serde_json::Value::Float(_) => serde_json::Value::Float(next() as f64 / 4.0),
                _ => serde_json::Value::UInt(next()),
            }
        }
        let mut n = base;
        let mut next = || {
            n += step;
            n - step
        };
        let zero = serde_json::to_value(T::default()).unwrap();
        serde_json::from_value(fill(&zero, &mut next)).unwrap()
    }

    /// Every field of `T` merges and subtracts on its own.
    fn assert_fieldwise<T>()
    where
        T: crate::Counters + Default + Serialize + Deserialize + PartialEq + std::fmt::Debug,
    {
        let (a, b) = (distinct::<T>(1, 1), distinct::<T>(100, 1));
        assert_eq!(a.merge(b), distinct(101, 2));
        assert_eq!(b.merge(a), distinct(101, 2));
        assert_eq!(a.merge(T::default()), a);
        assert_eq!(distinct::<T>(101, 2).since(a), b);
        assert_eq!(a.since(a), T::default());
    }

    #[test]
    fn snapshots_merge_componentwise() {
        use crate::{CauseBytes, CompressionStats, LaneBytes, TrafficSnapshot};
        assert_fieldwise::<FaultSnapshot>();
        assert_fieldwise::<CompressionStats>();
        assert_fieldwise::<TrafficSnapshot>();
        assert_fieldwise::<CauseBytes>();
        assert_fieldwise::<LaneBytes>();
        let (a, b) = (distinct::<FaultSnapshot>(1, 1), distinct(100, 1));
        assert_eq!(
            a.merge(b).total_faults(),
            a.total_faults() + b.total_faults()
        );
        assert!(FaultSnapshot::default().is_quiet());
        assert!(!a.is_quiet());
    }

    #[test]
    fn corruption_rate_tracks_probability() {
        let inj = injector(FaultPlan::corrupting(42, 0.25));
        let n = 10_000;
        let corrupt = (0..n)
            .filter(|_| inj.adjudicate(1, true, 64) == Verdict::Corrupt)
            .count();
        let rate = corrupt as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
        assert_eq!(inj.stats().corrupt_frames, corrupt as u64);
        assert_eq!(inj.stats().total_faults(), corrupt as u64);
    }

    #[test]
    fn corruption_applies_only_to_remote_messages() {
        let inj = injector(FaultPlan::corrupting(1, 1.0));
        assert_eq!(inj.adjudicate(0, false, 64), Verdict::Deliver);
        assert_eq!(inj.adjudicate(0, true, 64), Verdict::Corrupt);
    }

    #[test]
    fn drop_draw_precedes_corruption_draw() {
        // With both probabilities at 1.0, every remote message is dropped
        // before the corruption draw can happen.
        let plan = FaultPlan {
            drop_probability: 1.0,
            corrupt_probability: 1.0,
            ..FaultPlan::default()
        };
        let inj = injector(plan);
        for _ in 0..50 {
            assert_eq!(inj.adjudicate(1, true, 64), Verdict::Drop);
        }
        assert_eq!(inj.stats().corrupt_frames, 0);
    }

    #[test]
    fn crash_epochs_unions_and_dedups() {
        let plan = FaultPlan {
            crash: Some(CrashPoint { epoch: 2 }),
            crashes: vec![CrashPoint { epoch: 1 }, CrashPoint { epoch: 2 }],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crash_epochs(), vec![1, 2]);
        assert_eq!(FaultPlan::default().crash_epochs(), Vec::<usize>::new());
    }

    #[test]
    fn inertness_tracks_every_fault_field() {
        assert!(FaultPlan::default().is_inert());
        assert!(FaultPlan {
            seed: 99,
            ..Default::default()
        }
        .is_inert());
        assert!(!FaultPlan::lossy(1, 0.5).is_inert());
        assert!(!FaultPlan::corrupting(1, 0.1).is_inert());
        assert!(!FaultPlan::shard_outage(1, 0, 1.0, 2.0).is_inert());
        assert!(!FaultPlan::chaos(1).is_inert());
        let crashy = FaultPlan {
            crash: Some(CrashPoint { epoch: 1 }),
            ..Default::default()
        };
        assert!(!crashy.is_inert());
        let torn = FaultPlan {
            torn_checkpoint: Some(0),
            ..Default::default()
        };
        assert!(!torn.is_inert());
        let killy = FaultPlan {
            kills: vec![ShardKill { shard: 0, at: 0.1 }],
            ..Default::default()
        };
        assert!(!killy.is_inert());
        assert!(!FaultPlan::failover(1).is_inert());
        let crowded = FaultPlan::overload(1);
        assert!(!crowded.is_inert());
    }

    #[test]
    fn kills_are_masked_without_liveness() {
        // A kill plan with no failover table attached (replication off) is
        // behaviorally identical to the same plan without kills: every
        // message delivers, no stats, no extra clock charges.
        let plan = FaultPlan {
            kills: vec![ShardKill { shard: 1, at: 0.0 }],
            ..Default::default()
        };
        let killed = injector(plan);
        let clean = injector(FaultPlan::default());
        for _ in 0..100 {
            assert_eq!(killed.adjudicate(1, true, 64), Verdict::Deliver);
            clean.adjudicate(1, true, 64);
        }
        assert_eq!(killed.stats(), FaultSnapshot::default());
        assert_eq!(killed.now(), clean.now());
    }

    #[test]
    fn armed_kill_refuses_until_promotion() {
        let plan = FaultPlan {
            kills: vec![ShardKill { shard: 1, at: 0.5 }],
            ..Default::default()
        };
        let live = Arc::new(ShardLiveness::new(2));
        let inj =
            FaultInjector::new(plan, CostModel::gigabit(), 0).with_liveness(Arc::clone(&live));
        assert_eq!(
            inj.adjudicate(1, true, 64),
            Verdict::Deliver,
            "alive before the death instant"
        );
        inj.advance(1.0);
        let before = inj.now();
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::ShardDead);
        assert!(inj.now() > before, "a refused connect still costs latency");
        assert_eq!(
            inj.adjudicate(0, true, 64),
            Verdict::Deliver,
            "other shards unaffected"
        );
        // Failover: promotion is performed once, is idempotent, and
        // restores delivery.
        assert!(live.promote(1, inj.now()));
        assert!(!live.promote(1, inj.now()), "second promote is a no-op");
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
        let events = live.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].0, 1);
        assert!(live.take_events().is_empty(), "events drain once");
    }

    #[test]
    fn failover_counters_accumulate_and_merge() {
        let inj = injector(FaultPlan::default());
        inj.advance(1.0);
        inj.count(|s| {
            s.promotions += 1;
            s.catch_up_frames += 12;
            s.catch_up_bytes += 4096;
        });
        inj.note_hedged_pull(true, 0.25);
        inj.note_hedged_pull(false, 0.0);
        inj.note_hedged_pull(true, 0.25);
        assert!(
            (inj.now() - 0.5).abs() < 1e-12,
            "wins credit the saved time back to the clock"
        );
        let s = inj.stats();
        assert_eq!(s.promotions, 1);
        assert_eq!(s.catch_up_frames, 12);
        assert_eq!(s.catch_up_bytes, 4096);
        assert_eq!(s.hedged_pulls, 3);
        assert_eq!(s.hedged_wins, 2);
        assert_eq!(s.hedged_losses, 1);
        let m = s.merge(s);
        assert_eq!(m.promotions, 2);
        assert_eq!(m.catch_up_frames, 24);
        assert_eq!(m.hedged_pulls, 6);
        assert_eq!(m.hedged_wins, 4);
    }

    #[test]
    fn plan_serde_round_trips() {
        let plan = FaultPlan::chaos(9);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
        let failover = FaultPlan::failover(3);
        let json = serde_json::to_string(&failover).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(failover, back);
        let crowded = FaultPlan::overload(5);
        let json = serde_json::to_string(&crowded).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(crowded, back);
        // Missing fields default to fault-free: plans serialized before
        // kills/overloads existed must keep deserializing.
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert_eq!(empty, FaultPlan::default());
        assert!(empty.kills.is_empty());
        assert!(empty.overloads.is_empty());
    }

    #[test]
    fn overload_sheds_past_capacity_and_drains_back() {
        // Tight window, capacity 2, slow drain: back-to-back arrivals queue
        // up, inflate latency, then shed once the queue is full.
        let plan = FaultPlan {
            overloads: vec![OverloadWindow {
                shard: 1,
                start: 0.0,
                end: 10.0,
                queue_capacity: 2,
                drain_rate: 0.5, // ~one drained slot every 2 simulated secs
                latency_per_inflight: 0.001,
            }],
            ..FaultPlan::default()
        };
        let inj = injector(plan);
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
        let before = inj.now();
        match inj.adjudicate(1, true, 64) {
            Verdict::Overloaded { retry_at } => {
                assert!(retry_at > before, "retry hint is in the future");
            }
            v => panic!("expected Overloaded, got {v:?}"),
        }
        assert!(inj.now() > before, "a shed attempt still costs latency");
        let s = inj.stats();
        assert_eq!(s.overload_sheds, 1);
        assert_eq!(s.overload_throttled, 2);
        assert!(s.overload_extra_secs > 0.0);
        assert_eq!(s.total_faults(), 1);
        // Other shards are untouched.
        assert_eq!(inj.adjudicate(0, true, 64), Verdict::Deliver);
        // Waiting drains the queue; service resumes inside the window.
        inj.advance(5.0);
        assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
        // Past the window the queue model disengages entirely.
        inj.advance(10.0);
        for _ in 0..10 {
            assert_eq!(inj.adjudicate(1, true, 64), Verdict::Deliver);
        }
        assert_eq!(inj.stats().overload_sheds, 1);
    }

    #[test]
    fn overload_adjudication_draws_no_randomness() {
        // An overload window must not disturb the RNG stream: a lossy plan
        // with and without an overload window on an *untargeted* shard sees
        // the same drop sequence on shard 0.
        let mut crowded = FaultPlan::lossy(7, 0.3);
        crowded.overloads = vec![OverloadWindow {
            shard: 1,
            start: 0.0,
            end: 1.0,
            queue_capacity: 1,
            drain_rate: 1.0,
            latency_per_inflight: 0.01,
        }];
        let plain = injector(FaultPlan::lossy(7, 0.3));
        let with_window = injector(crowded);
        let a: Vec<bool> = (0..300)
            .map(|_| plain.adjudicate(0, true, 64) == Verdict::Drop)
            .collect();
        let b: Vec<bool> = (0..300)
            .map(|_| with_window.adjudicate(0, true, 64) == Verdict::Drop)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn overload_counters_accumulate_and_merge() {
        let inj = injector(FaultPlan::default());
        inj.count(|s| s.retries_denied += 1);
        inj.count(|s| s.retries_denied += 1);
        inj.count(|s| s.breaker_fast_fails += 1);
        inj.count(|s| s.brownout_stale_serves += 5);
        inj.count(|s| s.shed_pushes += 3);
        let s = inj.stats();
        assert_eq!(s.retries_denied, 2);
        assert_eq!(s.breaker_fast_fails, 1);
        assert_eq!(s.brownout_stale_serves, 5);
        assert_eq!(s.shed_pushes, 3);
        let m = s.merge(s);
        assert_eq!(m.retries_denied, 4);
        assert_eq!(m.breaker_fast_fails, 2);
        assert_eq!(m.brownout_stale_serves, 10);
        assert_eq!(m.shed_pushes, 6);
        // Snapshots serialized before the overload counters existed must
        // keep deserializing.
        let legacy: FaultSnapshot = serde_json::from_str(
            r#"{"drops":1,"retries":2,"retransmitted_bytes":3,"outage_refusals":0,
                "slow_messages":0,"extra_latency_secs":0.0,"backoff_secs":0.0,
                "degraded_hits":0,"deferred_pushes":0,"backlog_flushes":0}"#,
        )
        .unwrap();
        assert_eq!(legacy.overload_sheds, 0);
        assert_eq!(legacy.retries_denied, 0);
        assert_eq!(legacy.brownout_stale_serves, 0);
    }
}
