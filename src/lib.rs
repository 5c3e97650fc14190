//! # HET-KG
//!
//! A from-scratch Rust reproduction of **HET-KG: Communication-Efficient
//! Knowledge Graph Embedding Training via Hotness-Aware Cache** (ICDE 2022).
//!
//! HET-KG trains knowledge-graph embeddings on a parameter-server cluster
//! and cuts communication by keeping a *hot-embedding table* on every
//! worker: the most frequently accessed entity/relation embeddings are
//! selected by a prefetch+filter pipeline and refreshed under a bounded-
//! staleness protocol.
//!
//! This crate is the umbrella: it re-exports the workspace's crates as
//! modules and provides a prelude. See the README for architecture and the
//! `examples/` directory for runnable entry points.
//!
//! ## Quickstart
//!
//! ```
//! use het_kg::prelude::*;
//!
//! // 1. A skewed synthetic graph (FB15k-shaped, scaled down).
//! let kg = datasets::fb15k_like().scale(0.02).build(42);
//! let split = Split::ninety_five_five(&kg, 42);
//!
//! // 2. Train HET-KG with the dynamic (DPS) cache for a couple of epochs.
//! let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
//! cfg.epochs = 2;
//! let report = train(&kg, &split.train, &[], &cfg);
//!
//! // 3. The cache served hits and the run produced a loss trajectory.
//! assert!(report.total_cache().hit_ratio() > 0.0);
//! assert_eq!(report.epochs.len(), 2);
//! ```

/// Knowledge-graph data model, loaders, and synthetic generators.
pub use hetkg_kgraph as kgraph;

/// Graph partitioning (METIS-like multilevel min-cut, random baseline).
pub use hetkg_partition as partition;

/// Embedding storage, KGE models with analytic gradients, losses, sampling.
pub use hetkg_embed as embed;

/// Deterministic network cost model and traffic metering.
pub use hetkg_netsim as netsim;

/// Sharded parameter server with server-side optimizers.
pub use hetkg_ps as ps;

/// The contribution: hotness-aware cache (prefetch, filter, CPS/DPS,
/// bounded-staleness sync) and baseline caches.
pub use hetkg_core as hotcache;

/// Distributed training engine: HET-KG-C/D, DGL-KE-sim, PBG-sim.
pub use hetkg_train as train_sys;

/// Link-prediction evaluation (MRR / MR / Hits@k, filtered).
pub use hetkg_eval as eval;

/// Online serving: sharded snapshots, hot-row admission cache, batched
/// top-k, and the closed-loop load generator.
pub use hetkg_serve as serve;

/// The most common imports in one place.
pub mod prelude {
    pub use hetkg_core::filter::FilterConfig;
    pub use hetkg_core::policy::{CachePolicy, PolicyKind};
    pub use hetkg_core::sync::SyncConfig;
    pub use hetkg_core::table::HotEmbeddingTable;
    pub use hetkg_embed::loss::LossKind;
    pub use hetkg_embed::manifest::CheckpointStore;
    pub use hetkg_embed::negative::{NegConfig, NegStrategy};
    pub use hetkg_embed::ModelKind;
    pub use hetkg_eval::link_prediction::{evaluate, EvalConfig};
    pub use hetkg_eval::RankMetrics;
    pub use hetkg_kgraph::generator::SyntheticKg;
    pub use hetkg_kgraph::split::Split;
    pub use hetkg_kgraph::{
        datasets, EntityId, KeySpace, KnowledgeGraph, ParamKey, RelationId, Triple,
    };
    pub use hetkg_netsim::{
        ClusterTopology, CompressionMode, CostModel, CrashPoint, FaultPlan, OutageWindow,
        ShardKill, ShardLiveness, SlowEpisode, WireFrame,
    };
    pub use hetkg_partition::{MetisLike, Partitioner, RandomPartitioner};
    pub use hetkg_ps::optimizer::OptimizerKind;
    pub use hetkg_serve::{
        run_load, LoadGenConfig, ServeEngine, ServeReport, ServingSnapshot, SnapshotCell,
        SnapshotReloader,
    };
    pub use hetkg_train::config::CacheConfig;
    pub use hetkg_train::trainer::snapshot;
    pub use hetkg_train::{
        shadow_check, train, FaultReport, OracleReport, SupervisorConfig, SupervisorReport,
        SystemKind, TrainConfig, TrainReport, TransportKind,
    };
}
