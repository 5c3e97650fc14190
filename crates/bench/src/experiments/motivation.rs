//! The motivation measurements: Table I (communication dominates the
//! baseline) and Fig. 2 (embedding accesses are skewed; relations are hotter
//! than entities).

use super::ExpCtx;
use crate::record::ExperimentRecord;
use crate::render::{pct, secs};
use crate::workloads::{Dataset, Workload};
use hetkg_core::prefetch::Prefetcher;
use hetkg_embed::negative::NegativeSampler;
use hetkg_kgraph::stats::AccessCounter;
use hetkg_train::{train, SystemKind, TrainConfig};

/// Table I: per-dataset DGL-KE training time split into computation and
/// communication — communication dominates, most of all on the large graph.
pub fn table1(ctx: ExpCtx) -> ExperimentRecord {
    let mut rows = Vec::new();
    for dataset in Dataset::all() {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        let mut cfg = TrainConfig::small(SystemKind::DglKe);
        cfg.machines = 4;
        cfg.epochs = ctx.epochs(3);
        // The paper uses d = 400; communication share grows with d. Use a
        // mid-size dim so harness runs stay fast but the share is realistic.
        cfg.dim = 128;
        cfg.eval_candidates = None;
        let report = train(&w.kg, &w.split.train, &[], &cfg);
        rows.push(vec![
            dataset.name().to_string(),
            secs(report.total_compute_secs()),
            secs(report.total_comm_secs()),
            secs(report.total_secs()),
            pct(report.comm_fraction()),
        ]);
    }
    ExperimentRecord {
        id: "table1".into(),
        title: "DGL-KE time breakdown: communication dominates".into(),
        params: "DGL-KE-sim, TransE-L2, d=128, 4 machines, 1 Gbps".into(),
        columns: ["dataset", "compute", "comm", "total", "comm share"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "communication is the majority share on every dataset and \
                            largest on Freebase-86m (paper: >70% there with d=400)"
            .into(),
    }
}

/// Fig. 2: access-frequency skew of embeddings over one epoch of sampled
/// training (positives + negatives), per dataset.
pub fn fig2(ctx: ExpCtx) -> ExperimentRecord {
    let mut rows = Vec::new();
    for dataset in Dataset::all() {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        let ks = w.kg.key_space();
        let mut counter = AccessCounter::new(ks);
        // Sample one epoch's worth of mini-batches exactly as a worker does.
        let batch_size = 64;
        let iters = (w.split.train.len() / batch_size).clamp(10, 500);
        let mut sampler = Prefetcher::new(batch_size, ks, ctx.seed);
        let mut negatives = NegativeSampler::new(
            w.kg.num_entities(),
            hetkg_embed::negative::NegConfig::default(),
            ctx.seed,
        );
        let pf = sampler.prefetch(&w.split.train, &mut negatives, iters);
        for batch in &pf.batches {
            counter.record_batch(&batch.positives);
            for n in &batch.negatives {
                counter.record_triple(n.triple);
            }
        }
        rows.push(vec![
            dataset.name().to_string(),
            pct(counter.entity_top_share(0.01)),
            pct(counter.relation_top_share(0.01)),
            format!("{:.1}x", counter.heterogeneity_factor()),
            format!(
                "{:.3}",
                hetkg_kgraph::stats::gini(&counter.counts()[..ks.num_entities()])
            ),
            format!(
                "{:.3}",
                hetkg_kgraph::stats::gini(&counter.counts()[ks.num_entities()..])
            ),
        ]);
    }
    ExperimentRecord {
        id: "fig2".into(),
        title: "Access-frequency skew micro-benchmark".into(),
        params: "one epoch of sampled batches (positives + negatives), batch 64".into(),
        columns: [
            "dataset",
            "top-1% entity share",
            "top-1% relation share",
            "relation/entity heat",
            "entity gini",
            "relation gini",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "a small fraction of embeddings dominates accesses; \
                            relations are far hotter per key than entities \
                            (paper's FB15k: top-1% entities ≈6%, relations ≈36%)"
            .into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExpCtx {
        ExpCtx {
            quick: true,
            ..Default::default()
        }
    }

    #[test]
    fn fig2_shows_relation_heat() {
        let r = fig2(quick());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            let heat: f64 = row[3].trim_end_matches('x').parse().unwrap();
            assert!(heat > 1.0, "relations must be hotter: {row:?}");
        }
    }

    #[test]
    fn table1_reports_all_datasets_with_nonzero_comm() {
        let r = table1(quick());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            let share: f64 = row[4].trim_end_matches('%').parse().unwrap();
            assert!(share > 0.0, "comm share must be positive: {row:?}");
            // The "communication dominates" claim (paper: >70%) holds for
            // optimized compute; debug builds inflate compute ~50x, so only
            // assert it in release.
            if !cfg!(debug_assertions) {
                assert!(share > 30.0, "comm share should be substantial: {row:?}");
            }
        }
    }
}
