//! Training configuration: the full experiment grid of the paper in one
//! struct.

use crate::supervisor::SupervisorConfig;
use hetkg_core::filter::FilterConfig;
use hetkg_core::policy::{CachePolicy, PolicyKind};
use hetkg_core::sync::SyncConfig;
use hetkg_embed::loss::LossKind;
use hetkg_embed::negative::NegConfig;
use hetkg_embed::ModelKind;
use hetkg_netsim::{ClusterTopology, CompressionMode, CostModel, FaultPlan};
use hetkg_ps::optimizer::OptimizerKind;
use serde::{Deserialize, Serialize};

/// Which training system to run (the paper's comparison grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SystemKind {
    /// HET-KG with constant partial stale (HET-KG-C).
    HetKgCps,
    /// HET-KG with dynamic partial stale (HET-KG-D).
    HetKgDps,
    /// DGL-KE-style plain co-located PS (no worker cache).
    DglKe,
    /// PyTorch-BigGraph-style block partitioned training.
    Pbg,
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SystemKind::HetKgCps => "HET-KG-C",
            SystemKind::HetKgDps => "HET-KG-D",
            SystemKind::DglKe => "DGL-KE",
            SystemKind::Pbg => "PBG",
        })
    }
}

/// Which partitioner distributes entities across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionerKind {
    /// Multilevel min-cut (METIS-like) — the paper's setting.
    MetisLike,
    /// Random balanced assignment — the ablation baseline.
    Random,
}

/// Cache settings for the HET-KG systems.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Cache capacity as a fraction of the total number of embeddings
    /// (entities + relations). Fig. 8a sweeps this.
    pub capacity_fraction: f64,
    /// Fraction of the cache reserved for entities (paper default 0.25,
    /// Fig. 8c).
    pub entity_fraction: f64,
    /// Apply the entity/relation split (false = HET-KG-N, Table VII).
    pub heterogeneity_aware: bool,
    /// DPS prefetch depth `D`.
    pub prefetch_depth: usize,
    /// Staleness bound `P` (Fig. 8b): the table is synchronized every `P`
    /// iterations, and a cached row's gradients are written back once per
    /// such window, by the push before the sync at the latest. Under a fault
    /// plan a cached row may go eight periods unconfirmed
    /// ([`SyncConfig::degraded_bound`]).
    pub staleness: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity_fraction: 0.02,
            entity_fraction: 0.25,
            heterogeneity_aware: true,
            prefetch_depth: 16,
            staleness: 8,
        }
    }
}

impl CacheConfig {
    /// Resolve to a [`CachePolicy`] given the total key count and system.
    pub fn policy(&self, total_keys: usize, system: SystemKind) -> CachePolicy {
        let capacity =
            ((total_keys as f64 * self.capacity_fraction).round() as usize).min(total_keys);
        let kind = match system {
            SystemKind::HetKgDps => PolicyKind::Dps,
            _ => PolicyKind::Cps,
        };
        CachePolicy {
            kind,
            filter: FilterConfig {
                capacity,
                entity_fraction: self.entity_fraction,
                heterogeneity_aware: self.heterogeneity_aware,
            },
            prefetch_depth: self.prefetch_depth.max(1),
        }
    }

    /// The sync schedule.
    pub fn sync(&self) -> SyncConfig {
        SyncConfig::new(self.staleness.max(1))
    }
}

/// Everything a training run needs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Which system's data path to use.
    pub system: SystemKind,
    /// Score function.
    pub model: ModelKind,
    /// Base embedding dimension `d`.
    pub dim: usize,
    /// Loss.
    pub loss: LossKind,
    /// Negative sampling.
    pub negatives: NegConfig,
    /// Server-side optimizer.
    pub optimizer: OptimizerKind,
    /// Training epochs.
    pub epochs: usize,
    /// Positive triples per mini-batch (`b` in Table II).
    pub batch_size: usize,
    /// Cluster shape.
    pub machines: usize,
    /// Worker threads per machine.
    pub workers_per_machine: usize,
    /// Network cost model for the simulated communication time.
    pub cost_model: CostModel,
    /// Cache settings (HET-KG systems only; ignored by the baselines).
    pub cache: CacheConfig,
    /// Entity partitioner.
    pub partitioner: PartitionerKind,
    /// Master seed; all per-worker randomness derives from it.
    pub seed: u64,
    /// Evaluate MRR on a held-out set after every epoch (candidate count
    /// for subsampled ranking; `None` disables per-epoch eval).
    pub eval_candidates: Option<usize>,
    /// Fault-injection plan. `None` (the default) is the guaranteed
    /// byte-identical healthy path; note that an attached all-zero plan is
    /// behaviorally identical too.
    #[serde(default)]
    pub faults: Option<FaultPlan>,
    /// Save an in-memory recovery checkpoint every this many epochs
    /// (0 disables; forced to at least 1 when the fault plan schedules a
    /// crash, so restart-from-checkpoint always has something to restore).
    #[serde(default)]
    pub checkpoint_every: usize,
    /// Verify wire-frame checksums on every PS message (default on).
    /// Turning this off makes injected corruption silently poison the
    /// tables — the control arm of the integrity experiments.
    #[serde(default = "default_integrity")]
    pub integrity: bool,
    /// Directory for on-disk recovery checkpoints (crash-consistent, with a
    /// manifest and bounded retention). `None` keeps recovery checkpoints
    /// in memory as validated serialized images.
    #[serde(default)]
    pub checkpoint_dir: Option<String>,
    /// Worker supervision policy: heartbeat timeout and the bounded
    /// restart-with-backoff budget. Only consulted when a fault plan is
    /// attached.
    #[serde(default)]
    pub supervisor: SupervisorConfig,
    /// Pipeline iterations: overlap PS communication with compute on the
    /// per-worker timeline (default on; `--no-overlap` turns it off and
    /// reproduces the pre-timeline sequential accounting bit for bit).
    /// Automatically disabled when a perturbing fault plan is attached —
    /// fault verdicts depend on message order, which pipelining changes.
    #[serde(default = "default_overlap")]
    pub overlap: bool,
    /// PS replication factor `k`: each shard keeps `k - 1` backup replicas
    /// that trail the primary by at most one replication batch. `1` (the
    /// default) disables replication entirely — no backups, no backlog, no
    /// replication traffic — and is bit-identical to pre-replication
    /// behavior. Values above 1 enable primary/backup failover for
    /// permanent shard kills and hedged pulls during straggler episodes.
    /// Clamped to the machine count.
    #[serde(default = "default_replication")]
    pub replication: usize,
    /// Run-global retry budget (token bucket shared by every worker's PS
    /// client, [`hetkg_ps::RetryBudget`]). Off (the default) keeps the
    /// unbudgeted per-message retries — bit-identical to pre-overload
    /// behavior.
    #[serde(default, deserialize_with = "switch")]
    pub retry_budget: bool,
    /// Per-shard circuit breakers (Closed→Open→HalfOpen) on the PS clients,
    /// [`hetkg_ps::ShardBreakers`]. Off (the default) disables breakers
    /// entirely.
    #[serde(default, deserialize_with = "switch")]
    pub breaker: bool,
    /// Push-path gradient compression. [`CompressionMode::Off`] (the
    /// default) is bit-identical to pre-compression behavior; the lossy
    /// modes (int8/int4 row quantization, top-k sparsification, or the
    /// adaptive ladder driven by the pipeline timeline's comm/compute
    /// occupancy) trade bounded gradient error — held client-side as
    /// error-feedback residuals — for push-lane bytes.
    #[serde(default)]
    pub compression: CompressionMode,
    /// Which transport carries PS traffic. [`TransportKind::Sim`] (the
    /// default) is the in-process cost-model path, bit-identical to
    /// pre-transport behavior; `Tcp`/`Uds` run each PS shard as a real
    /// `hetkg ps-server` process and put every frame on a real socket.
    /// Socket modes refuse some options
    /// ([`TrainConfig::check_socket_transport`]).
    #[serde(default)]
    pub transport: TransportKind,
    /// Path to the `hetkg` binary whose `ps-server` subcommand the socket
    /// transports spawn. Required for `Tcp`/`Uds` (the CLI fills in the
    /// running executable); ignored for `Sim`.
    #[serde(default)]
    pub ps_server_bin: Option<String>,
}

/// PS transport backend selector (`--transport sim|tcp|uds`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TransportKind {
    /// In-process simulated path (the default).
    #[default]
    Sim,
    /// One OS process per shard over loopback TCP.
    Tcp,
    /// One OS process per shard over Unix-domain sockets.
    Uds,
}

impl TransportKind {
    /// Whether this backend runs shard servers as real processes.
    pub fn is_socket(self) -> bool {
        !matches!(self, TransportKind::Sim)
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TransportKind::Sim => "sim",
            TransportKind::Tcp => "tcp",
            TransportKind::Uds => "uds",
        })
    }
}

/// An option a socket transport refuses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketRefusal {
    /// A fault plan is attached.
    FaultInjection,
    /// Shards keep backups.
    Replication,
    /// A retry budget or circuit breakers are configured.
    OverloadProtection,
}

fn default_integrity() -> bool {
    true
}

fn default_overlap() -> bool {
    true
}

fn default_replication() -> usize {
    1
}

/// An on/off switch, or as older configs wrote it: `null` for off, the
/// retired parameter object for on.
fn switch(v: &serde::Value) -> Result<bool, serde::Error> {
    match v {
        serde::Value::Bool(on) => Ok(*on),
        serde::Value::Null => Ok(false),
        serde::Value::Map(_) => Ok(true),
        other => Err(serde::Error::invalid_type("bool", other)),
    }
}

impl TrainConfig {
    /// A small, fast configuration used by tests and the quickstart
    /// example (TransE-L2, logistic loss, 2 machines).
    pub fn small(system: SystemKind) -> Self {
        Self {
            system,
            model: ModelKind::TransEL2,
            dim: 16,
            loss: LossKind::Logistic,
            negatives: NegConfig::default(),
            optimizer: OptimizerKind::AdaGrad { lr: 0.1 },
            epochs: 3,
            batch_size: 64,
            machines: 2,
            workers_per_machine: 1,
            cost_model: CostModel::gigabit(),
            cache: CacheConfig::default(),
            partitioner: PartitionerKind::MetisLike,
            seed: 42,
            eval_candidates: None,
            faults: None,
            checkpoint_every: 0,
            integrity: true,
            checkpoint_dir: None,
            supervisor: SupervisorConfig::default(),
            overlap: true,
            replication: 1,
            retry_budget: false,
            breaker: false,
            compression: CompressionMode::Off,
            transport: TransportKind::Sim,
            ps_server_bin: None,
        }
    }

    /// The paper's Table II hyperparameters, scaled to dimension `dim`
    /// (the paper uses `d = 400`; the harness defaults lower to keep runs
    /// laptop-sized — pass 400 to match exactly).
    pub fn paper(system: SystemKind, model: ModelKind, dim: usize) -> Self {
        Self {
            system,
            model,
            dim,
            loss: LossKind::Logistic,
            negatives: NegConfig::default(),
            optimizer: OptimizerKind::AdaGrad { lr: 0.1 },
            epochs: 30,
            batch_size: 32,
            machines: 4,
            workers_per_machine: 1,
            cost_model: CostModel::gigabit(),
            cache: CacheConfig::default(),
            partitioner: PartitionerKind::MetisLike,
            seed: 42,
            eval_candidates: Some(200),
            faults: None,
            checkpoint_every: 0,
            integrity: true,
            checkpoint_dir: None,
            supervisor: SupervisorConfig::default(),
            overlap: true,
            replication: 1,
            retry_budget: false,
            breaker: false,
            compression: CompressionMode::Off,
            transport: TransportKind::Sim,
            ps_server_bin: None,
        }
    }

    /// The simulated cluster topology.
    pub fn topology(&self) -> ClusterTopology {
        ClusterTopology::new(self.machines, self.workers_per_machine)
    }

    /// Whether this config can run over [`TransportKind::Tcp`] /
    /// [`TransportKind::Uds`] — the one place that says which options a
    /// socket transport refuses. All three for one reason: this process
    /// applies a multi-shard push only once every shard's frame got through,
    /// a `ps-server` applies a frame on receipt, so a batch stopped half-way
    /// would leave servers and mirror apart (DESIGN.md "Scope and metering").
    pub fn check_socket_transport(&self) -> Result<(), SocketRefusal> {
        if self.faults.is_some() {
            Err(SocketRefusal::FaultInjection)
        } else if self.replication.min(self.machines) > 1 {
            Err(SocketRefusal::Replication)
        } else if self.retry_budget || self.breaker {
            Err(SocketRefusal::OverloadProtection)
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_resolution_respects_system() {
        let cfg = CacheConfig::default();
        assert_eq!(cfg.policy(1000, SystemKind::HetKgCps).kind, PolicyKind::Cps);
        assert_eq!(cfg.policy(1000, SystemKind::HetKgDps).kind, PolicyKind::Dps);
        assert_eq!(cfg.policy(1000, SystemKind::HetKgCps).filter.capacity, 20);
    }

    #[test]
    fn capacity_is_clamped_to_key_count() {
        let cfg = CacheConfig {
            capacity_fraction: 10.0,
            ..Default::default()
        };
        assert_eq!(cfg.policy(100, SystemKind::HetKgCps).filter.capacity, 100);
    }

    #[test]
    fn system_names() {
        assert_eq!(SystemKind::HetKgCps.to_string(), "HET-KG-C");
        assert_eq!(SystemKind::HetKgDps.to_string(), "HET-KG-D");
        assert_eq!(SystemKind::DglKe.to_string(), "DGL-KE");
        assert_eq!(SystemKind::Pbg.to_string(), "PBG");
    }

    #[test]
    fn topology_matches_counts() {
        let cfg = TrainConfig::small(SystemKind::DglKe);
        let t = cfg.topology();
        assert_eq!(t.num_machines(), 2);
        assert_eq!(t.num_workers(), 2);
    }

    #[test]
    fn sockets_refuse_fault_injection() {
        let clean = TrainConfig::small(SystemKind::HetKgCps);
        assert_eq!(clean.check_socket_transport(), Ok(()));
        // Even an inert plan: the refusal is about the machinery attached.
        let faulty = TrainConfig {
            faults: Some(FaultPlan::default()),
            ..clean
        };
        assert_eq!(
            faulty.check_socket_transport(),
            Err(SocketRefusal::FaultInjection)
        );
    }

    #[test]
    fn sockets_refuse_replication_that_keeps_a_backup() {
        let replicated = TrainConfig {
            replication: 2,
            ..TrainConfig::small(SystemKind::HetKgCps)
        };
        assert_eq!(
            replicated.check_socket_transport(),
            Err(SocketRefusal::Replication)
        );
        // A lone machine has nowhere to keep one (the trainer clamps the
        // factor to the machine count): nothing to refuse.
        let clamped = TrainConfig {
            machines: 1,
            ..replicated
        };
        assert_eq!(clamped.check_socket_transport(), Ok(()));
    }

    #[test]
    fn sockets_refuse_overload_protection() {
        let clean = TrainConfig::small(SystemKind::HetKgCps);
        let budgeted = TrainConfig {
            retry_budget: true,
            ..clean.clone()
        };
        let guarded = TrainConfig {
            breaker: true,
            ..clean
        };
        for cfg in [budgeted, guarded] {
            assert_eq!(
                cfg.check_socket_transport(),
                Err(SocketRefusal::OverloadProtection)
            );
        }
    }

    #[test]
    fn config_serializes_round_trip() {
        let cfg = TrainConfig::paper(SystemKind::HetKgDps, ModelKind::DistMult, 64);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: TrainConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.system, cfg.system);
        assert_eq!(back.dim, 64);
        assert!(back.faults.is_none());
    }

    #[test]
    fn fault_fields_default_when_absent_from_json() {
        // Configs from before the fault subsystem (no `faults`,
        // `checkpoint_every` or any later field) must keep deserializing.
        let cfg = TrainConfig::small(SystemKind::DglKe);
        let mut v = serde_json::to_value(&cfg).unwrap();
        let obj = v.as_object_mut().unwrap();
        obj.remove("faults");
        obj.remove("checkpoint_every");
        obj.remove("integrity");
        obj.remove("checkpoint_dir");
        obj.remove("supervisor");
        obj.remove("overlap");
        obj.remove("replication");
        obj.remove("retry_budget");
        obj.remove("breaker");
        obj.remove("compression");
        obj.remove("transport");
        obj.remove("ps_server_bin");
        let back: TrainConfig = serde_json::from_value(v).unwrap();
        assert!(back.faults.is_none());
        assert_eq!(back.checkpoint_every, 0);
        assert!(back.integrity, "checksums default on");
        assert!(back.checkpoint_dir.is_none());
        assert_eq!(back.supervisor, SupervisorConfig::default());
        assert!(back.overlap, "pipelining defaults on");
        assert_eq!(back.replication, 1, "replication defaults off");
        assert!(!back.retry_budget, "retry budget defaults off");
        assert!(!back.breaker, "breakers default off");
        assert_eq!(
            back.compression,
            CompressionMode::Off,
            "compression defaults off"
        );
        assert_eq!(
            back.transport,
            TransportKind::Sim,
            "transport defaults to the simulated path"
        );
        assert!(back.ps_server_bin.is_none());
    }

    #[test]
    fn settings_that_became_constants_still_load() {
        // What a config carried before the robustness tuning became
        // constants: parameter objects for the budget and breakers, a
        // degraded-mode staleness cap, the supervisor's timings. The
        // objects and `null` read as on and off; the rest is ignored.
        let mut v = serde_json::to_value(TrainConfig::small(SystemKind::HetKgDps)).unwrap();
        let budget =
            r#"{"initial_millitokens":2000,"earn_millitokens":25,"cap_millitokens":20000}"#;
        v["retry_budget"] = serde_json::from_str(budget).unwrap();
        v["breaker"] = serde_json::Value::Null;
        v["cache"]["staleness_cap"] = serde_json::Value::UInt(64);
        v["supervisor"]["heartbeat_timeout"] = serde_json::Value::Float(0.05);
        let back: TrainConfig = serde_json::from_value(v).unwrap();
        assert!(back.retry_budget);
        assert!(!back.breaker);
        assert_eq!(back.cache, CacheConfig::default());
        assert_eq!(back.supervisor, SupervisorConfig::default());
        let json = serde_json::to_string(&back).unwrap();
        let again: TrainConfig = serde_json::from_str(&json).unwrap();
        assert!(again.retry_budget && !again.breaker);
    }
}
