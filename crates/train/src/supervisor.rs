//! Worker supervision: a timeout failure detector and a bounded
//! restart-with-backoff budget for the worker pool, all in simulated time.
//!
//! A crash takes the whole pool, so the supervisor keeps one restart count
//! and one instant for it: the newest the cluster is known to have reached,
//! which is the latest of the cluster's clock at the end of each epoch the
//! pool got through and the end of each restart's backoff. The trainer
//! reports each such epoch (`epoch_done`) and each crash (`crash`). A crash
//! is detected one heartbeat timeout (and a hair) after the later of that
//! instant and the cluster's clock; every worker is recorded as silent and
//! crashed, and the pool either restarts, after an exponentially growing
//! backoff, or, its budget spent, is given up. Every transition is recorded
//! per worker as a [`SupervisorEvent`] and folded into the run's
//! [`SupervisorReport`].
//!
//! ```text
//!   epoch_done(now): newest = max(newest, now)
//!   +-------+
//!   v       |
//! Running --+--crash(epoch, now)--> detected at max(newest, now) + timeout
//!   ^                                              |
//!   |  budget left: restart after backoff b,       |
//!   |  newest = max(newest, detection + b)         |
//!   +----------------------------------------------+
//!                                                  | budget spent
//!                                                  v
//!                                               Given up
//! ```

use serde::{Deserialize, Serialize};

/// Simulated seconds of heartbeat silence before the pool is suspected:
/// 50 ms. The pool is heard from once per epoch and a crash silences all of
/// it, so a detection one timeout after its newest instant always finds it;
/// the value only dates the detection in the report, and 50 ms is short
/// against any epoch.
const HEARTBEAT_TIMEOUT_SECS: f64 = 0.050;
/// Simulated backoff before the pool's first restart: 10 ms, a fifth of the
/// heartbeat timeout, so the pool is back well inside one detection window.
const RESTART_BACKOFF_SECS: f64 = 0.010;
/// Each further restart waits twice as long as the one before: a pool that
/// keeps dying backs off exponentially until its restart budget runs out.
const RESTART_BACKOFF_FACTOR: f64 = 2.0;

/// The restart budget: how many restarts the worker pool is granted before
/// the supervisor gives up (`--max-restarts`). Detection and backoff timings
/// are constants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SupervisorConfig {
    /// Restarts granted to the pool before the supervisor gives up.
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

/// One supervision transition, timestamped in simulated seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SupervisorEvent {
    /// A worker's heartbeat went silent past the timeout (recorded for
    /// every worker of the crashed pool).
    MissedHeartbeat {
        /// The silent worker.
        worker: usize,
        /// Simulated instant of detection.
        at: f64,
    },
    /// A silent worker was confirmed crashed.
    CrashDetected {
        /// The crashed worker.
        worker: usize,
        /// Epoch during which it died.
        epoch: usize,
        /// Simulated instant of confirmation.
        at: f64,
    },
    /// A crashed worker was restarted with the pool.
    Restarted {
        /// The restarted worker.
        worker: usize,
        /// Which restart of the pool this is (1-based).
        attempt: u32,
        /// Simulated backoff waited before the restart.
        backoff: f64,
    },
    /// A worker was abandoned with the pool, its restart budget spent.
    GaveUp {
        /// The abandoned worker.
        worker: usize,
        /// Restarts the pool had been granted.
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

/// Run-level supervision accounting, attached to the train report when a
/// fault plan was active.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SupervisorReport {
    /// Missed-heartbeat detections (one per worker per crash).
    pub detections: u64,
    /// Restarts granted (summed over workers).
    pub restarts: u64,
    /// Whether the pool was abandoned (budget exhausted or no valid
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

/// The failure detector and restart arbiter for one training run's pool.
#[derive(Debug)]
pub struct Supervisor {
    config: SupervisorConfig,
    num_workers: usize,
    /// Restarts the pool has been granted.
    restarts: u32,
    /// The newest simulated instant the pool is known to have reached.
    newest: f64,
    report: SupervisorReport,
}

impl Supervisor {
    /// Supervise a pool of `num_workers` workers, heard from at simulated
    /// time zero.
    pub fn new(config: SupervisorConfig, num_workers: usize) -> Self {
        assert!(num_workers > 0, "nothing to supervise");
        Self {
            config,
            num_workers,
            restarts: 0,
            newest: 0.0,
            report: SupervisorReport::default(),
        }
    }

    /// The pool got through an epoch, the cluster's clock at `now`. The
    /// newest instant never moves backwards.
    pub fn epoch_done(&mut self, now: f64) {
        self.newest = self.newest.max(now);
    }

    /// The pool crashed during `epoch`, the cluster's clock at `now`: date
    /// the detection, record every worker as silent and crashed, and restart
    /// the pool after an exponentially growing backoff, or give it up once
    /// the budget is spent. Returns whether the pool restarts.
    pub fn crash(&mut self, epoch: usize, now: f64) -> bool {
        // A hair past the timeout: the silence must exceed it.
        let at = now.max(self.newest) + 1.01 * HEARTBEAT_TIMEOUT_SECS;
        let report = &mut self.report;
        for worker in 0..self.num_workers {
            report.detections += 1;
            report
                .events
                .push(SupervisorEvent::MissedHeartbeat { worker, at });
        }
        let restart = self.restarts < self.config.max_restarts;
        let backoff = RESTART_BACKOFF_SECS * RESTART_BACKOFF_FACTOR.powi(self.restarts as i32);
        for worker in 0..self.num_workers {
            report
                .events
                .push(SupervisorEvent::CrashDetected { worker, epoch, at });
            let decision = if restart {
                report.restarts += 1;
                report.restart_backoff_secs += backoff;
                SupervisorEvent::Restarted {
                    worker,
                    attempt: self.restarts + 1,
                    backoff,
                }
            } else {
                SupervisorEvent::GaveUp {
                    worker,
                    restarts: self.restarts,
                }
            };
            report.events.push(decision);
        }
        if restart {
            self.restarts += 1;
            self.newest = self.newest.max(at + backoff);
        } else {
            report.gave_up = true;
        }
        restart
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

    /// The backoffs of the report's restarts, in order, and its detection
    /// instants.
    fn backoffs_and_detections(r: &SupervisorReport) -> (Vec<f64>, Vec<f64>) {
        let (mut backoffs, mut detections) = (Vec::new(), Vec::new());
        for e in &r.events {
            match *e {
                SupervisorEvent::Restarted { backoff, .. } => backoffs.push(backoff),
                SupervisorEvent::MissedHeartbeat { at, .. } => detections.push(at),
                _ => {}
            }
        }
        (backoffs, detections)
    }

    #[test]
    fn restart_backoff_grows_exponentially_then_gives_up() {
        let mut s = sup(2);
        let granted: Vec<bool> = (0..3).map(|round| s.crash(round, 0.1)).collect();
        assert_eq!(
            granted,
            [true, true, false],
            "budget of 2 spent by the third crash"
        );
        let r = s.report();
        let (backoffs, _) = backoffs_and_detections(r);
        assert_eq!(backoffs.len(), 4, "2 workers x 2 granted restarts");
        assert_eq!(backoffs[0], backoffs[1], "the pool restarts as one");
        assert!(
            (backoffs[2] - 2.0 * backoffs[0]).abs() < 1e-12,
            "doubling backoff"
        );
        assert!(r.gave_up);
        assert_eq!(r.restarts, 4);
        assert_eq!(r.detections, 6);
        assert!(r.restart_backoff_secs > 0.0);
        assert!(matches!(
            r.events.last(),
            Some(SupervisorEvent::GaveUp {
                worker: 1,
                restarts: 2
            })
        ));
    }

    #[test]
    fn zero_budget_gives_up_immediately() {
        let mut s = sup(0);
        assert!(!s.crash(0, 1.0));
        assert!(s.report().gave_up);
        assert_eq!(s.report().restarts, 0);
        assert_eq!(s.report().detections, 2);
    }

    #[test]
    fn events_are_ordered_and_serializable() {
        let mut s = Supervisor::new(SupervisorConfig { max_restarts: 1 }, 2);
        s.crash(4, 1.0);
        s.note_checkpoints_skipped(1);
        let json = serde_json::to_string(s.report()).unwrap();
        let back: SupervisorReport = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, s.report());
        assert_eq!(back.torn_checkpoints_skipped, 1);
        // Both workers missed, then each one detected and restarted.
        let order: Vec<(&str, usize)> = back
            .events
            .iter()
            .map(|e| match *e {
                SupervisorEvent::MissedHeartbeat { worker, .. } => ("missed", worker),
                SupervisorEvent::CrashDetected {
                    worker, epoch: 4, ..
                } => ("detected", worker),
                SupervisorEvent::Restarted {
                    worker, attempt: 1, ..
                } => ("restarted", worker),
                ref e => panic!("unexpected {e:?}"),
            })
            .collect();
        assert_eq!(
            order,
            [
                ("missed", 0),
                ("missed", 1),
                ("detected", 0),
                ("restarted", 0),
                ("detected", 1),
                ("restarted", 1)
            ]
        );
    }

    /// The pool's instant is the newest epoch end or backoff end: a stale
    /// clock reading does not move it back, and detection is dated a
    /// timeout after it when the cluster's clock is behind it.
    #[test]
    fn beats_never_move_time_backwards() {
        let mut s = sup(3);
        s.epoch_done(5.0);
        s.epoch_done(1.0); // stale reading from a slower clock
        s.crash(0, 2.0);
        let first = 5.0 + 1.01 * HEARTBEAT_TIMEOUT_SECS;
        // The restart's backoff end is newer than the clock at the next
        // crash.
        s.crash(1, 5.0);
        let second = first + RESTART_BACKOFF_SECS + 1.01 * HEARTBEAT_TIMEOUT_SECS;
        // A clock ahead of the pool's instant dates the detection itself.
        s.crash(2, 9.0);
        let third = 9.0 + 1.01 * HEARTBEAT_TIMEOUT_SECS;
        let (_, detections) = backoffs_and_detections(s.report());
        assert_eq!(
            detections,
            [first, first, second, second, third, third],
            "detection instants"
        );
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
