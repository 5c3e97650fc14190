//! Worker supervision: heartbeats, a timeout failure detector, and a
//! bounded restart-with-backoff budget, all in simulated time.
//!
//! The trainer drives this state machine: workers `beat` at the end of every
//! epoch with their injector's simulated clock; when an injected crash
//! silences a worker, `poll` (called after a full heartbeat timeout of
//! silence) flags it `Suspected`, `confirm_crash` marks it `Restarting`, and
//! `request_restart` either grants a restart — after an exponentially
//! growing simulated backoff — or exhausts the budget and parks the worker
//! in `Failed`. Every transition is recorded as a [`SupervisorEvent`] and
//! folded into the run's [`SupervisorReport`].
//!
//! Per-worker state machine:
//!
//! ```text
//! Healthy --poll timeout--> Suspected --confirm_crash--> Restarting
//!    ^                                                       |
//!    |          request_restart (budget left, backoff)       |
//!    +-------------------------------------------------------+
//!                                                            |
//!              request_restart (budget exhausted)            v
//!                                                         Failed
//! ```

use serde::{Deserialize, Serialize};

/// Simulated seconds of heartbeat silence before a worker is suspected:
/// 50 ms. Workers beat once per epoch and a crash silences the whole pool,
/// so the trainer's sweep one timeout after the newest beat always finds it;
/// the value only dates the detection in the report, and 50 ms is short
/// against any epoch.
pub const HEARTBEAT_TIMEOUT_SECS: f64 = 0.050;
/// Simulated backoff before a worker's first restart: 10 ms, a fifth of the
/// heartbeat timeout, so the pool is back well inside one detection window.
const RESTART_BACKOFF_SECS: f64 = 0.010;
/// Each further restart of the same worker waits twice as long as the one
/// before: a worker that keeps dying backs off exponentially until its
/// restart budget runs out.
const RESTART_BACKOFF_FACTOR: f64 = 2.0;

/// The restart budget: how many restarts a worker is granted before the
/// supervisor gives up (`--max-restarts`). Detection and backoff timings
/// are constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Restarts granted per worker before the supervisor gives up.
    #[serde(default = "default_max_restarts")]
    pub max_restarts: u32,
}

fn default_max_restarts() -> u32 {
    3
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            max_restarts: default_max_restarts(),
        }
    }
}

/// Where a worker sits in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerState {
    /// Heartbeats arriving on schedule.
    Healthy,
    /// Heartbeat overdue; not yet confirmed dead.
    Suspected,
    /// Confirmed crashed; awaiting a restart decision.
    Restarting,
    /// Restart budget exhausted; permanently down.
    Failed,
}

/// One supervision transition, timestamped in simulated seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SupervisorEvent {
    /// A worker's heartbeat went silent past the timeout.
    MissedHeartbeat {
        /// The silent worker.
        worker: usize,
        /// Simulated instant of detection.
        at: f64,
    },
    /// A suspected worker was confirmed crashed.
    CrashDetected {
        /// The crashed worker.
        worker: usize,
        /// Epoch during which it died.
        epoch: usize,
        /// Simulated instant of confirmation.
        at: f64,
    },
    /// A crashed worker was granted a restart.
    Restarted {
        /// The restarted worker.
        worker: usize,
        /// Which restart this is for the worker (1-based).
        attempt: u32,
        /// Simulated backoff waited before the restart.
        backoff: f64,
    },
    /// A worker exhausted its restart budget.
    GaveUp {
        /// The abandoned worker.
        worker: usize,
        /// Restarts it had consumed.
        restarts: u32,
    },
    /// Recovery found no checkpoint that validates; the run cannot resume.
    RecoveryFailed {
        /// Checkpoint images tried (all invalid).
        tried: usize,
    },
    /// A backup replica was promoted to primary after its shard's primary
    /// died permanently.
    PrimaryPromoted {
        /// The shard that failed over.
        shard: usize,
        /// Simulated instant of the promotion.
        at: f64,
    },
}

/// The outcome of asking the supervisor to restart a crashed worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RestartDecision {
    /// Restart granted after this much simulated backoff.
    Restart {
        /// Simulated seconds waited before the worker comes back.
        backoff: f64,
    },
    /// Budget exhausted; the worker stays down.
    GiveUp,
}

/// Run-level supervision accounting, attached to the train report when a
/// fault plan was active.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Missed-heartbeat detections.
    pub detections: u64,
    /// Restarts granted (summed over workers).
    pub restarts: u64,
    /// Whether any worker was abandoned (budget exhausted or no valid
    /// checkpoint to restore).
    pub gave_up: bool,
    /// Total simulated seconds spent in restart backoff.
    pub restart_backoff_secs: f64,
    /// Checkpoint images skipped during recovery because they failed
    /// validation (torn writes, rot).
    pub torn_checkpoints_skipped: u64,
    /// Backup replicas promoted to primary after permanent shard kills.
    #[serde(default)]
    pub promotions: u64,
    /// Every transition, in order.
    pub events: Vec<SupervisorEvent>,
}

/// The failure detector and restart arbiter for one training run.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    states: Vec<WorkerState>,
    last_beat: Vec<f64>,
    restarts: Vec<u32>,
    report: SupervisorReport,
}

impl Supervisor {
    /// Supervise `num_workers` workers, all initially healthy with a
    /// heartbeat at simulated time zero.
    pub fn new(config: SupervisorConfig, num_workers: usize) -> Self {
        assert!(num_workers > 0, "nothing to supervise");
        Self {
            config,
            states: vec![WorkerState::Healthy; num_workers],
            last_beat: vec![0.0; num_workers],
            restarts: vec![0; num_workers],
            report: SupervisorReport::default(),
        }
    }

    /// A worker's current state.
    pub fn state(&self, worker: usize) -> WorkerState {
        self.states[worker]
    }

    /// The most recent heartbeat heard from any worker (time zero if none
    /// yet). Lets a caller place a detection sweep a full timeout after the
    /// cluster went silent, whatever the workers' clock skew.
    pub fn newest_beat(&self) -> f64 {
        self.last_beat.iter().copied().fold(0.0, f64::max)
    }

    /// Record a heartbeat from `worker` at simulated instant `now`.
    /// Timestamps never move backwards (worker clocks and detector bumps
    /// are not globally ordered).
    pub fn beat(&mut self, worker: usize, now: f64) {
        self.last_beat[worker] = self.last_beat[worker].max(now);
    }

    /// Failure detection sweep at simulated instant `now`: every healthy
    /// worker whose last heartbeat is more than the timeout old becomes
    /// `Suspected`. Returns the newly suspected workers.
    pub fn poll(&mut self, now: f64) -> Vec<usize> {
        let mut suspected = Vec::new();
        for w in 0..self.states.len() {
            if self.states[w] == WorkerState::Healthy
                && now - self.last_beat[w] > HEARTBEAT_TIMEOUT_SECS
            {
                self.states[w] = WorkerState::Suspected;
                self.report.detections += 1;
                self.report
                    .events
                    .push(SupervisorEvent::MissedHeartbeat { worker: w, at: now });
                suspected.push(w);
            }
        }
        suspected
    }

    /// Confirm a suspected worker crashed during `epoch`.
    pub fn confirm_crash(&mut self, worker: usize, epoch: usize, now: f64) {
        debug_assert_eq!(self.states[worker], WorkerState::Suspected);
        self.states[worker] = WorkerState::Restarting;
        self.report.events.push(SupervisorEvent::CrashDetected {
            worker,
            epoch,
            at: now,
        });
    }

    /// Decide whether `worker` (in `Restarting`) comes back. A grant waits
    /// out an exponentially growing simulated backoff and returns the worker
    /// to `Healthy` with its heartbeat reset to after the backoff.
    pub fn request_restart(&mut self, worker: usize, now: f64) -> RestartDecision {
        debug_assert_eq!(self.states[worker], WorkerState::Restarting);
        if self.restarts[worker] >= self.config.max_restarts {
            self.states[worker] = WorkerState::Failed;
            self.report.gave_up = true;
            self.report.events.push(SupervisorEvent::GaveUp {
                worker,
                restarts: self.restarts[worker],
            });
            return RestartDecision::GiveUp;
        }
        let backoff =
            RESTART_BACKOFF_SECS * RESTART_BACKOFF_FACTOR.powi(self.restarts[worker] as i32);
        self.restarts[worker] += 1;
        self.states[worker] = WorkerState::Healthy;
        self.last_beat[worker] = self.last_beat[worker].max(now + backoff);
        self.report.restarts += 1;
        self.report.restart_backoff_secs += backoff;
        self.report.events.push(SupervisorEvent::Restarted {
            worker,
            attempt: self.restarts[worker],
            backoff,
        });
        RestartDecision::Restart { backoff }
    }

    /// Record that recovery skipped `skipped` invalid checkpoint images
    /// before finding one that validated.
    pub fn note_checkpoints_skipped(&mut self, skipped: usize) {
        self.report.torn_checkpoints_skipped += skipped as u64;
    }

    /// Record that recovery found no valid checkpoint at all; the run is
    /// over.
    pub fn note_recovery_failed(&mut self, tried: usize) {
        self.report.gave_up = true;
        self.report
            .events
            .push(SupervisorEvent::RecoveryFailed { tried });
    }

    /// Record a primary→backup failover for `shard` at simulated instant
    /// `at`. Promotions happen inside the PS client (the first worker to
    /// hit the dead primary performs them); the trainer relays them here
    /// at epoch boundaries so the run report carries the full timeline.
    pub fn note_promotion(&mut self, shard: usize, at: f64) {
        self.report.promotions += 1;
        self.report
            .events
            .push(SupervisorEvent::PrimaryPromoted { shard, at });
    }

    /// The accumulated accounting.
    pub fn report(&self) -> &SupervisorReport {
        &self.report
    }

    /// Consume the supervisor, yielding its accounting.
    pub fn into_report(self) -> SupervisorReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sup(max_restarts: u32) -> Supervisor {
        Supervisor::new(SupervisorConfig { max_restarts }, 2)
    }

    #[test]
    fn healthy_workers_are_not_flagged() {
        let mut s = sup(3);
        s.beat(0, 0.04);
        s.beat(1, 0.04);
        assert!(s.poll(0.06).is_empty(), "beats within the timeout");
        assert_eq!(s.state(0), WorkerState::Healthy);
        assert_eq!(s.report().detections, 0);
    }

    #[test]
    fn silence_past_the_timeout_suspects_exactly_the_silent() {
        let mut s = sup(3);
        s.beat(0, 0.10);
        // Worker 1 last beat at t=0; the sweep runs a full timeout later.
        let suspected = s.poll(0.051);
        assert_eq!(suspected, vec![1]);
        assert_eq!(s.state(1), WorkerState::Suspected);
        assert_eq!(s.state(0), WorkerState::Healthy);
        assert_eq!(s.report().detections, 1);
        // A second sweep does not re-report the same suspicion.
        assert!(s.poll(0.052).is_empty());
    }

    #[test]
    fn restart_backoff_grows_exponentially_then_gives_up() {
        let mut s = sup(2);
        let mut backoffs = Vec::new();
        for round in 0..3 {
            let now = 0.1 * (round + 1) as f64;
            assert_eq!(s.poll(now + 0.051), vec![0, 1]);
            for w in 0..2 {
                s.confirm_crash(w, round, now);
                match s.request_restart(w, now) {
                    RestartDecision::Restart { backoff } => {
                        if w == 0 {
                            backoffs.push(backoff);
                        }
                    }
                    RestartDecision::GiveUp => {
                        assert_eq!(round, 2, "budget of 2 exhausted on the third crash");
                        assert_eq!(s.state(w), WorkerState::Failed);
                    }
                }
            }
            if round == 2 {
                break;
            }
            // Workers must go silent again for the next round's poll: the
            // restart reset their heartbeat, so time simply moves on.
        }
        assert_eq!(backoffs.len(), 2);
        assert!(
            (backoffs[1] - 2.0 * backoffs[0]).abs() < 1e-12,
            "doubling backoff"
        );
        let r = s.report();
        assert!(r.gave_up);
        assert_eq!(r.restarts, 4, "2 workers x 2 granted restarts");
        assert_eq!(r.detections, 6);
        assert!(r.restart_backoff_secs > 0.0);
        assert!(matches!(
            r.events.last(),
            Some(SupervisorEvent::GaveUp { restarts: 2, .. })
        ));
    }

    #[test]
    fn zero_budget_gives_up_immediately() {
        let mut s = sup(0);
        assert_eq!(s.poll(1.0), vec![0, 1]);
        s.confirm_crash(0, 0, 1.0);
        assert_eq!(s.request_restart(0, 1.0), RestartDecision::GiveUp);
        assert!(s.report().gave_up);
        assert_eq!(s.report().restarts, 0);
    }

    #[test]
    fn events_are_ordered_and_serializable() {
        // One supervised worker, so the event order below is exactly its
        // own transition sequence.
        let mut s = Supervisor::new(SupervisorConfig { max_restarts: 1 }, 1);
        s.poll(1.0);
        s.confirm_crash(0, 4, 1.0);
        s.request_restart(0, 1.0);
        s.note_checkpoints_skipped(1);
        let json = serde_json::to_string(s.report()).unwrap();
        let back: SupervisorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, s.report());
        assert_eq!(back.torn_checkpoints_skipped, 1);
        // First three events for worker 0: missed, detected, restarted.
        assert!(matches!(
            back.events[0],
            SupervisorEvent::MissedHeartbeat { worker: 0, .. }
        ));
        assert!(matches!(
            back.events[1],
            SupervisorEvent::CrashDetected {
                worker: 0,
                epoch: 4,
                ..
            }
        ));
        assert!(matches!(
            back.events[2],
            SupervisorEvent::Restarted {
                worker: 0,
                attempt: 1,
                ..
            }
        ));
    }

    #[test]
    fn beats_never_move_time_backwards() {
        let mut s = sup(3);
        s.beat(0, 5.0);
        s.beat(1, 5.0);
        s.beat(0, 1.0); // stale timestamp from a slower clock
        assert!(s.poll(5.04).is_empty(), "the newer beat stands");
        assert_eq!(s.state(0), WorkerState::Healthy);
    }

    #[test]
    fn recovery_failure_is_terminal_accounting() {
        let mut s = sup(3);
        s.note_recovery_failed(3);
        assert!(s.report().gave_up);
        assert!(matches!(
            s.report().events[0],
            SupervisorEvent::RecoveryFailed { tried: 3 }
        ));
    }

    #[test]
    fn config_defaults_deserialize_from_empty_json() {
        let c: SupervisorConfig = serde_json::from_str("{}").unwrap();
        assert_eq!(c, SupervisorConfig::default());
        assert_eq!(c.max_restarts, 3);
    }

    #[test]
    fn promotions_are_counted_and_timestamped() {
        let mut s = sup(3);
        s.note_promotion(1, 0.25);
        assert_eq!(s.report().promotions, 1);
        assert_eq!(
            s.report().events,
            vec![SupervisorEvent::PrimaryPromoted { shard: 1, at: 0.25 }]
        );
        let json = serde_json::to_string(s.report()).unwrap();
        let back: SupervisorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, s.report());
    }

    #[test]
    fn pre_replication_report_json_still_loads() {
        let s = sup(3);
        let mut v = serde_json::to_value(s.report()).unwrap();
        v.as_object_mut().unwrap().remove("promotions");
        let back: SupervisorReport = serde_json::from_value(v).unwrap();
        assert_eq!(back.promotions, 0);
    }
}
