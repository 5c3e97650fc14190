//! Tables III–V: the link-prediction accuracy/efficiency grid —
//! systems × models per dataset.

use super::ExpCtx;
use crate::record::{ExperimentRecord, Fnv};

use crate::workloads::{Dataset, Workload};
use hetkg_embed::ModelKind;
use hetkg_train::{train, SystemKind};

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Pbg,
    SystemKind::DglKe,
    SystemKind::HetKgCps,
    SystemKind::HetKgDps,
];

/// Run one (system, model) cell, fold its report into `digest` and return
/// a table row.
fn run_cell(
    w: &Workload,
    system: SystemKind,
    model: ModelKind,
    epochs: usize,
    ctx: ExpCtx,
    digest: &mut Fnv,
) -> Vec<String> {
    // The paper trains d = 400; d = 128 keeps the harness fast while staying
    // in the bytes-dominant communication regime where the cache pays off.
    let mut cfg = ctx.config(system, 128, epochs);
    cfg.model = model;
    cfg.eval_candidates = Some(200);
    let report = train(&w.kg, &w.split.train, &w.eval_set, &cfg);
    digest.report(&report);
    let m = report.final_metrics.as_ref().expect("final eval enabled");
    vec![
        system.to_string(),
        model.to_string(),
        format!("{:.3}", m.mrr()),
        format!("{:.3}", m.hits(1)),
        format!("{:.3}", m.hits(10)),
        format!("{:.2}s", report.total_secs()),
    ]
}

fn accuracy_grid(
    id: &str,
    dataset: Dataset,
    models: &[ModelKind],
    epochs: usize,
    ctx: ExpCtx,
) -> ExperimentRecord {
    let w = Workload::new(dataset, ctx.full, ctx.seed);
    let epochs = ctx.epochs(epochs);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for &model in models {
        for system in SYSTEMS {
            rows.push(run_cell(&w, system, model, epochs, ctx, &mut digest));
        }
    }
    ExperimentRecord {
        id: id.into(),
        title: format!("Link prediction on {}", dataset.name()),
        params: format!("{} | {epochs} epochs, d=128, 4 machines", w.describe()),
        columns: ["system", "model", "MRR", "Hits@1", "Hits@10", "time"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "HET-KG-C/D reach MRR comparable to DGL-KE (within a few \
                            points) in less or equal simulated time; PBG is the \
                            slowest (paper: 3.7x vs PBG, 1.1x vs DGL-KE)"
            .into(),
        digest: digest.hex(),
    }
}

/// Table III: FB15k, TransE + DistMult.
pub fn table3(ctx: ExpCtx) -> ExperimentRecord {
    accuracy_grid(
        "table3",
        Dataset::Fb15k,
        &[ModelKind::TransEL2, ModelKind::DistMult],
        10,
        ctx,
    )
}

/// Table IV: WN18, TransE + DistMult (paper trains 60 epochs; harness 12).
pub fn table4(ctx: ExpCtx) -> ExperimentRecord {
    accuracy_grid(
        "table4",
        Dataset::Wn18,
        &[ModelKind::TransEL2, ModelKind::DistMult],
        12,
        ctx,
    )
}

/// Table V: Freebase-86m (scaled), TransE only, 10 epochs.
pub fn table5(ctx: ExpCtx) -> ExperimentRecord {
    accuracy_grid(
        "table5",
        Dataset::Freebase86m,
        &[ModelKind::TransEL2],
        6,
        ctx,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_systems_and_models() {
        let r = table3(ExpCtx::QUICK);
        assert_eq!(r.rows.len(), 8); // 2 models × 4 systems
        for row in &r.rows {
            let mrr: f64 = row[2].parse().unwrap();
            assert!((0.0..=1.0).contains(&mrr), "{row:?}");
        }
    }

    #[test]
    fn hetkg_accuracy_is_comparable_to_dglke() {
        let ctx = ExpCtx::default();
        let w = Workload::new(Dataset::Wn18, false, 42);
        let d = &mut Fnv::default();
        let dgl = run_cell(&w, SystemKind::DglKe, ModelKind::TransEL2, 5, ctx, d);
        let het = run_cell(&w, SystemKind::HetKgCps, ModelKind::TransEL2, 5, ctx, d);
        let dgl_mrr: f64 = dgl[2].parse().unwrap();
        let het_mrr: f64 = het[2].parse().unwrap();
        assert!(
            (het_mrr - dgl_mrr).abs() < 0.15,
            "accuracies should be comparable: DGL-KE {dgl_mrr} vs HET-KG {het_mrr}"
        );
    }
}
