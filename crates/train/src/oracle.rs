//! The divergence oracle: an opt-in shadow check that runs the same
//! workload twice — once fault-free, once under the configured fault plan —
//! and compares the final embeddings key by key.
//!
//! The sharp property is *exactness*: every countermeasure in this codebase
//! is value-preserving unless state is genuinely lost. Dropped frames are
//! retransmitted, corrupt frames are detected by the wire checksum and
//! re-pulled, straggler episodes only cost simulated time — so a plan made
//! of drops, corruption (with integrity on), and slow episodes must produce
//! embeddings *bit-identical* to the fault-free run. Any difference means a
//! poisoned table entry or a lost update, and the oracle flags it.
//!
//! Plans that lose state on purpose — shard outages (the HET-KG cache
//! serves stale hits in degraded mode) and worker crashes (training rewinds
//! to a checkpoint) — cannot be exact. For those the oracle checks a loose
//! envelope implied by bounded staleness: each cache read is at most eight
//! sync periods stale ([`SyncConfig::degraded_bound`], the bound the
//! worker asserts), so per-key drift is bounded by a multiple of the
//! learning rate times `sqrt(dim)` times that bound. The
//! envelope is a catastrophic-divergence detector (NaN blowups, runaway
//! keys), not a tight proof; the structural staleness check rides along.

use crate::config::TrainConfig;
use crate::report::TrainReport;
use crate::trainer::{snapshot, train_with_store};
#[cfg(doc)]
use hetkg_core::sync::SyncConfig;
use hetkg_embed::storage::EmbeddingTable;
use hetkg_kgraph::{KnowledgeGraph, Triple};
use hetkg_netsim::FaultPlan;
use hetkg_ps::optimizer::OptimizerKind;
use hetkg_ps::KvStore;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The multiplier on the staleness-implied drift envelope for non-exact
/// plans: a key may drift `SLACK · lr · sqrt(dim) · 8·P` from the reference
/// run before the oracle fails it. Loose on purpose — the envelope catches
/// blowups and runaway keys, not small drift.
pub const SLACK: f64 = 8.0;

/// What the shadow check found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OracleReport {
    /// Whether the plan is value-preserving, requiring bit-identical
    /// embeddings.
    pub exact: bool,
    /// Largest per-key L2 distance between the faulty and reference runs.
    pub max_divergence: f64,
    /// Mean per-key L2 distance.
    pub mean_divergence: f64,
    /// The allowed envelope (0 when `exact`).
    pub bound: f64,
    /// Whether the divergence stayed inside the envelope (for `exact`
    /// plans: whether it is exactly zero).
    pub within_bound: bool,
    /// Whether observed cache staleness respected the degraded bound, `8·P`.
    pub staleness_ok: bool,
    /// Keys compared (entities + relations).
    pub keys_compared: usize,
    /// The faulty run's full report (traffic, fault, and supervision
    /// accounting).
    pub report: TrainReport,
}

impl OracleReport {
    /// Panic with a diagnostic unless the run passed the oracle.
    pub fn assert_ok(&self) {
        assert!(
            self.within_bound,
            "divergence oracle violated: max per-key divergence {} exceeds {} (exact: {})",
            self.max_divergence, self.bound, self.exact
        );
        assert!(self.staleness_ok, "staleness exceeded 8·P");
    }
}

/// Whether a plan can change the *values* a run computes (as opposed to its
/// timing and traffic). Outages engage the cache's degraded mode and
/// crashes rewind training, so both perturb values; drops and slow episodes
/// never do; corruption only does when checksums are off to catch it.
/// Permanent shard kills are conservatively non-exact: promotion replays
/// the replication backlog value-exactly, but the extra failover latency
/// shifts every later fault draw on that worker's timeline, so the faulty
/// run's update *schedule* (and with it cache sync points) can differ from
/// the reference — the staleness envelope is the right check.
/// Overload windows likewise perturb values: the brownout serves stale
/// hits past `P` (up to the degraded bound) and sheds or defers pushes, so
/// the envelope — not bit-exactness — is the contract.
///
/// Push compression is judged separately (see [`shadow_check_with_store`]):
/// lossy codecs quantize or sparsify every gradient on the wire, so a run
/// with compression on is never exact against an uncompressed reference
/// even under a value-preserving fault plan — error feedback bounds the
/// bias, and the staleness envelope is the contract.
pub fn value_preserving(plan: &FaultPlan, integrity: bool) -> bool {
    plan.outages.is_empty()
        && plan.crash_epochs().is_empty()
        && plan.kills.is_empty()
        && plan.overloads.is_empty()
        && (integrity || plan.corrupt_probability == 0.0)
}

/// Run `config` twice — fault-free reference and faulty shadow — and
/// compare final embeddings. See the module docs for what "pass" means.
pub fn shadow_check(
    kg: &KnowledgeGraph,
    train_triples: &[Triple],
    config: &TrainConfig,
) -> OracleReport {
    shadow_check_with_store(kg, train_triples, config).0
}

/// [`shadow_check`], additionally returning the faulty run's store so
/// callers (the CLI) can still save its checkpoint.
pub fn shadow_check_with_store(
    kg: &KnowledgeGraph,
    train_triples: &[Triple],
    config: &TrainConfig,
) -> (OracleReport, Arc<KvStore>) {
    let mut reference = config.clone();
    reference.faults = None;
    reference.checkpoint_every = 0;
    reference.checkpoint_dir = None;
    reference.eval_candidates = None;
    reference.compression = hetkg_netsim::CompressionMode::Off;
    let (_, ref_store) = train_with_store(kg, train_triples, &[], &reference);
    let (report, faulty_store) = train_with_store(kg, train_triples, &[], config);

    let ks = kg.key_space();
    let ref_snap = snapshot(&ref_store, ks);
    let bad_snap = snapshot(&faulty_store, ks);
    let mut max_divergence = 0.0f64;
    let mut sum = 0.0f64;
    let mut keys_compared = 0usize;
    let tables: [(&EmbeddingTable, &EmbeddingTable); 2] = [
        (&ref_snap.entities, &bad_snap.entities),
        (&ref_snap.relations, &bad_snap.relations),
    ];
    for (reference, faulty) in tables {
        for r in 0..reference.rows() {
            let d = reference
                .row(r)
                .iter()
                .zip(faulty.row(r))
                .map(|(a, b)| (*a as f64 - *b as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            max_divergence = max_divergence.max(d);
            sum += d;
            keys_compared += 1;
        }
    }
    let mean_divergence = if keys_compared == 0 {
        0.0
    } else {
        sum / keys_compared as f64
    };

    let exact = !config.compression.is_lossy()
        && config
            .faults
            .as_ref()
            .is_none_or(|p| value_preserving(p, config.integrity));
    let lr = match config.optimizer {
        OptimizerKind::Sgd { lr } | OptimizerKind::AdaGrad { lr } => lr,
    };
    let stale_bound = config.cache.sync().degraded_bound();
    let bound = if exact {
        0.0
    } else {
        SLACK * lr as f64 * (config.dim as f64).sqrt() * stale_bound as f64
    };
    let within_bound = if exact {
        max_divergence == 0.0
    } else {
        max_divergence <= bound
    };
    let staleness_ok = report.max_staleness() <= stale_bound;
    let oracle_report = OracleReport {
        exact,
        max_divergence,
        mean_divergence,
        bound,
        within_bound,
        staleness_ok,
        keys_compared,
        report,
    };
    (oracle_report, faulty_store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use hetkg_kgraph::generator::SyntheticKg;
    use hetkg_kgraph::split::Split;
    use hetkg_netsim::{FaultPlan, OutageWindow};

    fn workload() -> (KnowledgeGraph, Vec<Triple>) {
        let kg = SyntheticKg {
            num_entities: 100,
            num_relations: 6,
            num_triples: 400,
            ..Default::default()
        }
        .build(5);
        let split = Split::ninety_five_five(&kg, 1);
        (kg, split.train)
    }

    fn cfg(system: SystemKind) -> TrainConfig {
        let mut c = TrainConfig::small(system);
        c.epochs = 2;
        c
    }

    #[test]
    fn corruption_with_integrity_is_bit_exact() {
        // The acceptance property: every corrupt frame is detected and
        // re-pulled, so the tables carry zero poisoned entries — the faulty
        // run's embeddings are bit-identical to the clean run's.
        let (kg, triples) = workload();
        let mut config = cfg(SystemKind::DglKe);
        config.faults = Some(FaultPlan::corrupting(3, 0.05));
        let r = shadow_check(&kg, &triples, &config);
        assert!(r.exact);
        assert_eq!(r.max_divergence, 0.0, "a poisoned entry slipped through");
        assert!(r.keys_compared > 0);
        let fr = r.report.faults.as_ref().unwrap();
        assert!(fr.corrupt_frames > 0, "the plan did inject corruption");
        assert_eq!(fr.corrupt_ingested, 0);
        r.assert_ok();
    }

    #[test]
    fn corruption_without_integrity_poisons_the_tables() {
        let (kg, triples) = workload();
        let mut config = cfg(SystemKind::DglKe);
        config.integrity = false;
        config.faults = Some(FaultPlan::corrupting(3, 0.2));
        let r = shadow_check(&kg, &triples, &config);
        assert!(!r.exact, "unchecked corruption is not value-preserving");
        assert!(
            r.max_divergence > 0.0,
            "silent poison must show up as divergence"
        );
        let fr = r.report.faults.as_ref().unwrap();
        assert!(fr.corrupt_ingested > 0);
        assert_eq!(fr.corrupt_detected, 0);
    }

    #[test]
    fn a_lossy_network_is_value_preserving() {
        let (kg, triples) = workload();
        let mut config = cfg(SystemKind::HetKgCps);
        config.faults = Some(FaultPlan::lossy(7, 0.1));
        let r = shadow_check(&kg, &triples, &config);
        assert!(r.exact, "drops only retransmit");
        assert_eq!(r.max_divergence, 0.0);
        assert!(r.report.faults.as_ref().unwrap().drops > 0);
        r.assert_ok();
    }

    #[test]
    fn a_killed_primary_with_replication_stays_inside_the_envelope() {
        use hetkg_netsim::ShardKill;
        let (kg, triples) = workload();
        let mut config = cfg(SystemKind::HetKgCps);
        config.replication = 2;
        config.faults = Some(FaultPlan {
            seed: 7,
            kills: vec![ShardKill {
                shard: 1,
                at: 0.002,
            }],
            ..FaultPlan::default()
        });
        let r = shadow_check(&kg, &triples, &config);
        assert!(!r.exact, "failover latency reshuffles the schedule");
        let fr = r.report.faults.as_ref().unwrap();
        assert_eq!(fr.promotions, 1, "exactly one worker wins the race");
        assert_eq!(
            r.report.epochs.len(),
            config.epochs,
            "training rode through the permanent kill without a restart"
        );
        assert_eq!(fr.recoveries, 0, "failover, not restore-from-checkpoint");
        r.assert_ok();
    }

    #[test]
    fn lossy_compression_is_non_exact_but_inside_the_envelope() {
        use hetkg_netsim::CompressionMode;
        let (kg, triples) = workload();
        for mode in [CompressionMode::Int8, CompressionMode::TopK] {
            let mut config = cfg(SystemKind::HetKgCps);
            config.compression = mode;
            let r = shadow_check(&kg, &triples, &config);
            assert!(!r.exact, "{mode:?}: quantized pushes cannot be bit-exact");
            assert!(
                r.max_divergence > 0.0,
                "{mode:?}: lossy codec left no trace"
            );
            let cr = r.report.compression.as_ref().unwrap();
            assert!(cr.wire_bytes < cr.raw_bytes, "{mode:?}: nothing compressed");
            r.assert_ok();
        }
    }

    #[test]
    fn compression_off_keeps_a_clean_run_exact() {
        let (kg, triples) = workload();
        let config = cfg(SystemKind::HetKgCps);
        let r = shadow_check(&kg, &triples, &config);
        assert!(r.exact);
        assert_eq!(r.max_divergence, 0.0);
        assert!(r.report.compression.is_none());
        r.assert_ok();
    }

    #[test]
    fn outage_divergence_stays_inside_the_staleness_envelope() {
        let (kg, triples) = workload();
        let mut config = cfg(SystemKind::HetKgCps);
        config.faults = Some(FaultPlan {
            seed: 7,
            outages: vec![OutageWindow {
                shard: 1,
                start: 0.0001,
                end: 0.01,
            }],
            ..FaultPlan::default()
        });
        let r = shadow_check(&kg, &triples, &config);
        assert!(!r.exact, "degraded-mode staleness perturbs values");
        assert!(r.bound > 0.0);
        r.assert_ok();
    }
}
