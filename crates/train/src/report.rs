//! Training run reports: the numbers every experiment table/figure is built
//! from.
//!
//! Per epoch we record *simulated* computation time (kernel work under the
//! run's cost model) and communication time (metered traffic under the same
//! model), the traffic snapshot itself, cache statistics, training loss, and
//! (optionally) MRR on a held-out set; real wall time is kept only as a
//! diagnostic. Epoch time ([`EpochReport::epoch_secs`]) has one clock: the
//! slowest worker timeline's critical path, under whichever schedule the run
//! used, fault waits included.

use crate::supervisor::SupervisorReport;
use hetkg_core::metrics::{CacheStats, TableEconomy};
use hetkg_eval::RankMetrics;
use hetkg_netsim::TrafficSnapshot;
use serde::{Deserialize, Serialize};

/// Measurements for one epoch (aggregated over workers: times are the
/// slowest worker's, traffic and cache stats are summed).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Simulated compute time of the slowest worker (kernel work units
    /// under the cost model's per-machine compute rate), seconds.
    pub compute_secs: f64,
    /// Real wall time of the slowest worker (diagnostic; host-dependent).
    pub wall_secs: f64,
    /// Simulated communication time of the most communication-bound worker.
    pub comm_secs: f64,
    /// Total traffic across workers this epoch.
    pub traffic: TrafficSnapshot,
    /// Cache hits/misses across workers this epoch (zero for cacheless
    /// systems).
    pub cache: CacheStats,
    /// Mean training loss per positive triple.
    pub loss: f64,
    /// Held-out MRR measured after this epoch, when evaluation is enabled.
    pub mrr: Option<f64>,
    /// Largest cache-vs-global divergence observed at sync points (the
    /// empirical bounded-staleness measurement; 0 for cacheless systems).
    pub max_divergence: f64,
    /// Mean per-key divergence at sync points, worst worker (0 for
    /// cacheless systems).
    pub mean_divergence: f64,
    /// Largest cache staleness (iterations since sync) observed by any
    /// worker up to the end of this epoch (0 for cacheless systems).
    #[serde(default)]
    pub max_staleness: usize,
    /// The slowest worker's two-lane (comm/compute) critical path this
    /// epoch, simulated seconds: the epoch's time. A sequential run's is its
    /// lanes' busy time summed; the comm lane holds what the fault injector
    /// made the worker wait. Zero only in a report written before the
    /// timeline existed.
    #[serde(default)]
    pub critical_path_secs: f64,
    /// Simulated seconds of communication hidden behind compute this
    /// epoch: `compute + comm - critical_path`, clamped at zero. A
    /// diagnostic of the pipelined schedule: `compute` and `comm` may be
    /// different workers', so a sequential multi-worker run can read above
    /// zero too.
    #[serde(default)]
    pub overlap_secs: f64,
    /// What the hot tables held and cost across workers this epoch —
    /// occupancy, fresh rows per rebuild, staged-early vs staged-late miss
    /// keys (DGL-KE fills only the staged split, of whole pulls; zero for
    /// PBG and pre-economy reports).
    #[serde(default)]
    pub table: TableEconomy,
}

impl EpochReport {
    /// Epoch duration: the critical path of the worker timeline that
    /// finished last — an *achievable* schedule, in which only the
    /// communication actually staged ahead hides behind compute.
    pub fn epoch_secs(&self) -> f64 {
        self.critical_path_secs
    }

    /// Communication's share of the measured work,
    /// `comm / (compute + comm)` — Table I's statistic.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.compute_secs + self.comm_secs;
        if total == 0.0 {
            0.0
        } else {
            self.comm_secs / total
        }
    }
}

/// Run-level fault and recovery accounting, present when training ran with
/// a fault plan attached: the fault ledger, every worker injector's
/// [`merge`](hetkg_netsim::FaultSnapshot::merge)d with the six fields only
/// the trainer fills — `recoveries` and `checkpoints` from its recovery
/// loop, `breaker_opens`, `breaker_half_opens`, `breaker_closes` and
/// `brownout_secs` from the run's shared breaker table.
pub use hetkg_netsim::FaultSnapshot as FaultReport;

/// Push-compression accounting, summed over all workers. Present when the
/// run compressed its push path (a [`CompressionMode`] other than `Off`).
///
/// [`CompressionMode`]: hetkg_netsim::CompressionMode
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CompressionReport {
    /// The configured mode ("int8", "int4", "topk", "adaptive").
    pub mode: String,
    /// Rows pushed through the compressor.
    pub rows: u64,
    /// Delivered push frames.
    pub frames: u64,
    /// What the pushed rows would have cost dense (key ids + f32 payload).
    pub raw_bytes: u64,
    /// What they actually cost on the wire.
    pub wire_bytes: u64,
    /// Error-feedback residuals folded into degraded-mode backlogs.
    pub residual_folds: u64,
    /// Adaptive-ladder tighten steps over the run.
    pub level_ups: u64,
    /// Adaptive-ladder relax steps over the run.
    pub level_downs: u64,
}

impl CompressionReport {
    /// Build from a worker-summed [`CompressionStats`].
    ///
    /// [`CompressionStats`]: hetkg_netsim::CompressionStats
    pub fn from_stats(mode: &str, s: hetkg_netsim::CompressionStats) -> Self {
        Self {
            mode: mode.to_string(),
            rows: s.rows,
            frames: s.frames,
            raw_bytes: s.raw_bytes,
            wire_bytes: s.wire_bytes,
            residual_folds: s.residual_folds,
            level_ups: s.level_ups,
            level_downs: s.level_downs,
        }
    }

    /// Bytes-saved ratio, `raw / wire` (1.0 when nothing was pushed).
    pub fn ratio(&self) -> f64 {
        if self.wire_bytes == 0 {
            1.0
        } else {
            self.raw_bytes as f64 / self.wire_bytes as f64
        }
    }
}

/// Full training-run report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// System label (e.g. "HET-KG-D").
    pub system: String,
    /// Model label (e.g. "TransE-L2").
    pub model: String,
    /// Per-epoch measurements.
    pub epochs: Vec<EpochReport>,
    /// Final held-out metrics (when a final evaluation ran).
    pub final_metrics: Option<RankMetrics>,
    /// Fault/recovery accounting (present iff a fault plan was attached).
    #[serde(default)]
    pub faults: Option<FaultReport>,
    /// Supervision accounting (present iff a fault plan was attached).
    #[serde(default)]
    pub supervisor: Option<SupervisorReport>,
    /// Push-compression accounting (present iff compression was on).
    #[serde(default)]
    pub compression: Option<CompressionReport>,
}

impl TrainReport {
    /// Total training time (sum of epoch times).
    pub fn total_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.epoch_secs()).sum()
    }

    /// Total compute seconds.
    pub fn total_compute_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.compute_secs).sum()
    }

    /// Total simulated communication seconds.
    pub fn total_comm_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.comm_secs).sum()
    }

    /// Total simulated seconds of communication hidden behind compute over
    /// the run ([`EpochReport::overlap_secs`] summed).
    pub fn total_overlap_secs(&self) -> f64 {
        self.epochs.iter().map(|e| e.overlap_secs).sum()
    }

    /// Communication's share of the measured work over the whole run,
    /// `comm / (compute + comm)`.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_compute_secs() + self.total_comm_secs();
        if total == 0.0 {
            0.0
        } else {
            self.total_comm_secs() / total
        }
    }

    /// Aggregate traffic over the whole run.
    pub fn total_traffic(&self) -> TrafficSnapshot {
        self.epochs
            .iter()
            .fold(TrafficSnapshot::default(), |acc, e| acc.merge(e.traffic))
    }

    /// Aggregate cache stats over the whole run.
    pub fn total_cache(&self) -> CacheStats {
        self.epochs
            .iter()
            .fold(CacheStats::default(), |acc, e| acc.merge(e.cache))
    }

    /// Aggregate hot-table economy over the whole run.
    pub fn total_table(&self) -> TableEconomy {
        self.epochs
            .iter()
            .fold(TableEconomy::default(), |acc, e| acc.merge(e.table))
    }

    /// Largest cache staleness seen anywhere in the run (iterations since
    /// sync; 0 for cacheless systems).
    pub fn max_staleness(&self) -> usize {
        self.epochs
            .iter()
            .fold(0, |acc, e| acc.max(e.max_staleness))
    }

    /// Loss of the final epoch (NaN when no epochs ran).
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map_or(f64::NAN, |e| e.loss)
    }

    /// `(time_so_far, mrr)` series for convergence plots (Fig. 5).
    pub fn convergence_series(&self) -> Vec<(f64, f64)> {
        let mut t = 0.0;
        let mut out = Vec::new();
        for e in &self.epochs {
            t += e.epoch_secs();
            if let Some(mrr) = e.mrr {
                out.push((t, mrr));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An epoch of `compute` and `comm` seconds whose timeline took
    /// `critical_path`.
    fn epoch(compute: f64, comm: f64, critical_path: f64, mrr: Option<f64>) -> EpochReport {
        EpochReport {
            compute_secs: compute,
            comm_secs: comm,
            critical_path_secs: critical_path,
            mrr,
            ..Default::default()
        }
    }

    #[test]
    fn epoch_time_is_the_pipelined_max() {
        // A timeline that hid the shorter lane wholly behind the longer one
        // ran exactly max(compute, comm): the bound is reached, not assumed.
        let e = epoch(2.0, 6.0, 6.0, None);
        assert_eq!(e.epoch_secs(), 6.0);
        assert_eq!(e.comm_fraction(), 0.75);
        // Compute-bound epoch: compute paces it.
        let e = epoch(6.0, 2.0, 6.0, None);
        assert_eq!(e.epoch_secs(), 6.0);
        assert_eq!(e.comm_fraction(), 0.25);
    }

    #[test]
    fn critical_path_overrides_the_idealized_max() {
        // A pipelined schedule that hid 0.5 s, a sequential one that hid
        // nothing, and one whose comm lane also waited out a fault: the
        // lanes' totals never decide the epoch's time.
        for critical_path in [7.5, 8.0, 9.25] {
            let e = epoch(2.0, 6.0, critical_path, None);
            assert_eq!(e.epoch_secs(), critical_path);
            assert_eq!(e.comm_fraction(), 0.75);
        }
        let e = epoch(6.0, 2.0, 6.5, None);
        assert_eq!(e.epoch_secs(), 6.5);
        // A zero critical path (a pre-timeline report) is not replaced by
        // the idealized max(compute, comm).
        let e = epoch(2.0, 6.0, 0.0, None);
        assert_eq!(e.epoch_secs(), 0.0);
    }

    #[test]
    fn pre_timeline_report_json_still_loads() {
        let r = TrainReport {
            epochs: vec![epoch(1.0, 2.0, 2.5, None)],
            ..Default::default()
        };
        let mut v = serde_json::to_value(&r).unwrap();
        let e = v["epochs"][0].as_object_mut().unwrap();
        e.remove("critical_path_secs");
        e.remove("overlap_secs");
        let back: TrainReport = serde_json::from_value(v).unwrap();
        assert_eq!(back.epochs[0].critical_path_secs, 0.0);
        assert_eq!(back.epochs[0].overlap_secs, 0.0);
        assert_eq!(back.total_compute_secs(), 1.0);
        assert_eq!(back.total_comm_secs(), 2.0);
        // Such a report kept no clock, and none is made up from its lanes.
        assert_eq!(back.total_secs(), 0.0);
        assert_eq!(back.total_overlap_secs(), 0.0);
    }

    #[test]
    fn totals_sum_over_epochs() {
        let r = TrainReport {
            epochs: vec![epoch(1.0, 2.0, 2.5, None), epoch(1.0, 4.0, 4.5, None)],
            ..Default::default()
        };
        assert_eq!(r.total_secs(), 7.0);
        assert_eq!(r.total_compute_secs(), 2.0);
        assert_eq!(r.total_comm_secs(), 6.0);
        assert_eq!(r.comm_fraction(), 0.75);
    }

    #[test]
    fn convergence_series_accumulates_time() {
        let r = TrainReport {
            epochs: vec![
                epoch(1.0, 1.0, 1.0, Some(0.3)),
                epoch(1.0, 1.0, 1.0, None),
                epoch(1.0, 1.0, 1.0, Some(0.5)),
            ],
            ..Default::default()
        };
        assert_eq!(r.convergence_series(), vec![(1.0, 0.3), (3.0, 0.5)]);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = TrainReport::default();
        assert_eq!(r.total_secs(), 0.0);
        assert_eq!(r.comm_fraction(), 0.0);
        assert!(r.final_loss().is_nan());
        assert!(r.convergence_series().is_empty());
        assert!(r.faults.is_none());
    }

    #[test]
    fn fault_report_absorbs_snapshots() {
        // The trainer's fold: the workers' ledgers, then its own counts.
        let workers = [
            FaultReport {
                drops: 2,
                retries: 1,
                degraded_hits: 5,
                ..Default::default()
            },
            FaultReport {
                drops: 1,
                overload_extra_secs: 0.25,
                shed_pushes: 2,
                ..Default::default()
            },
        ];
        let run = FaultReport {
            recoveries: 1,
            breaker_opens: 3,
            ..Default::default()
        };
        assert!(FaultReport::default().is_quiet());
        let fr = workers.iter().fold(run, |acc, w| acc.merge(*w));
        assert_eq!(fr.drops, 3);
        assert_eq!(fr.retries, 1);
        assert_eq!(fr.degraded_hits, 5);
        assert_eq!(fr.overload_extra_secs, 0.25);
        assert_eq!(fr.shed_pushes, 2);
        assert_eq!(fr.recoveries, 1);
        assert_eq!(fr.breaker_opens, 3);
        assert_eq!(fr.checkpoints, 0);
        assert!(!fr.is_quiet());
    }

    #[test]
    fn fault_report_keys_keep_their_serialized_order() {
        // The order a report's `faults` object has had since the breaker
        // counters were added; a new counter goes on the end.
        const KEYS: [&str; 32] = [
            "drops",
            "retries",
            "retransmitted_bytes",
            "outage_refusals",
            "slow_messages",
            "extra_latency_secs",
            "backoff_secs",
            "degraded_hits",
            "deferred_pushes",
            "backlog_flushes",
            "recoveries",
            "checkpoints",
            "corrupt_frames",
            "corrupt_detected",
            "corrupt_ingested",
            "promotions",
            "catch_up_frames",
            "catch_up_bytes",
            "hedged_pulls",
            "hedged_wins",
            "hedged_losses",
            "overload_sheds",
            "overload_throttled",
            "overload_extra_secs",
            "retries_denied",
            "breaker_fast_fails",
            "brownout_stale_serves",
            "shed_pushes",
            "breaker_opens",
            "breaker_half_opens",
            "breaker_closes",
            "brownout_secs",
        ];
        let json = serde_json::to_string(&FaultReport::default()).unwrap();
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(keys, KEYS, "{json}");
    }

    #[test]
    fn pre_overload_report_json_still_loads() {
        let r = TrainReport {
            epochs: vec![epoch(1.0, 2.0, 2.5, None)],
            faults: Some(FaultReport {
                drops: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut v = serde_json::to_value(&r).unwrap();
        let f = v["faults"].as_object_mut().unwrap();
        for field in [
            "overload_sheds",
            "overload_throttled",
            "overload_extra_secs",
            "retries_denied",
            "breaker_fast_fails",
            "brownout_stale_serves",
            "shed_pushes",
            "breaker_opens",
            "breaker_half_opens",
            "breaker_closes",
            "brownout_secs",
        ] {
            assert!(f.remove(field).is_some(), "{field} serialized");
        }
        let back: TrainReport = serde_json::from_value(v).unwrap();
        let bf = back.faults.unwrap();
        assert_eq!(bf.drops, 2);
        assert_eq!(bf.overload_sheds, 0);
        assert_eq!(bf.retries_denied, 0);
        assert_eq!(bf.breaker_opens, 0);
        assert_eq!(bf.brownout_secs, 0.0);
    }

    #[test]
    fn pre_integrity_report_json_still_loads() {
        // Reports serialized before the corrupt counters / staleness /
        // supervisor fields existed must keep deserializing.
        let r = TrainReport {
            epochs: vec![epoch(1.0, 2.0, 2.5, None)],
            faults: Some(FaultReport {
                drops: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("supervisor");
        let f = v["faults"].as_object_mut().unwrap();
        f.remove("corrupt_frames");
        f.remove("corrupt_detected");
        f.remove("corrupt_ingested");
        f.remove("promotions");
        f.remove("catch_up_frames");
        f.remove("catch_up_bytes");
        f.remove("hedged_pulls");
        f.remove("hedged_wins");
        f.remove("hedged_losses");
        v["epochs"][0]
            .as_object_mut()
            .unwrap()
            .remove("max_staleness");
        let back: TrainReport = serde_json::from_value(v).unwrap();
        assert!(back.supervisor.is_none());
        let back_faults = back.faults.unwrap();
        assert_eq!(back_faults.corrupt_frames, 0);
        assert_eq!(back_faults.promotions, 0);
        assert_eq!(back_faults.catch_up_frames, 0);
        assert_eq!(back_faults.hedged_pulls, 0);
        assert_eq!(back.max_staleness(), 0);
    }

    #[test]
    fn pre_compression_report_json_still_loads() {
        let r = TrainReport {
            epochs: vec![epoch(1.0, 2.0, 2.5, None)],
            ..Default::default()
        };
        let mut v = serde_json::to_value(&r).unwrap();
        assert!(v.as_object_mut().unwrap().remove("compression").is_some());
        let back: TrainReport = serde_json::from_value(v).unwrap();
        assert!(back.compression.is_none());
    }

    #[test]
    fn compression_report_ratio() {
        let c = CompressionReport {
            raw_bytes: 400,
            wire_bytes: 100,
            ..Default::default()
        };
        assert_eq!(c.ratio(), 4.0);
        assert_eq!(CompressionReport::default().ratio(), 1.0);
    }

    #[test]
    fn report_json_without_faults_field_still_loads() {
        let r = TrainReport {
            system: "DGL-KE".into(),
            ..Default::default()
        };
        let mut v = serde_json::to_value(&r).unwrap();
        v.as_object_mut().unwrap().remove("faults");
        let back: TrainReport = serde_json::from_value(v).unwrap();
        assert!(back.faults.is_none());
        assert_eq!(back.system, "DGL-KE");
    }
}
