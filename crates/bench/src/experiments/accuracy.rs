//! Tables III–V: the link-prediction accuracy/efficiency grid —
//! systems × models per dataset.

use super::ExpCtx;
use crate::record::{ExperimentRecord, Fnv};

use crate::workloads::{Dataset, Workload};
use hetkg_embed::ModelKind;
use hetkg_train::{train, SystemKind, TrainReport};

/// The four systems, in the order every grid and figure lists them.
pub(crate) const SYSTEMS: [SystemKind; 4] = [
    SystemKind::Pbg,
    SystemKind::DglKe,
    SystemKind::HetKgCps,
    SystemKind::HetKgDps,
];

/// One trained cell of a grid: system, model and the run's report.
pub(crate) type Run = (SystemKind, ModelKind, TrainReport);

/// Train one (system, model) cell on `w`, evaluating at the end.
fn train_cell(
    w: &Workload,
    system: SystemKind,
    model: ModelKind,
    epochs: usize,
    ctx: ExpCtx,
) -> TrainReport {
    // The paper trains d = 400; d = 128 keeps the harness fast while staying
    // in the bytes-dominant communication regime where the cache pays off.
    let mut cfg = ctx.config(system, 128, epochs);
    cfg.model = model;
    cfg.eval_candidates = Some(200);
    train(&w.kg, &w.split.train, &w.eval_set, &cfg)
}

/// A cell's table row.
fn row(system: SystemKind, model: ModelKind, report: &TrainReport) -> Vec<String> {
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

/// Every system on every model, models outermost.
fn train_grid(w: &Workload, models: &[ModelKind], epochs: usize, ctx: ExpCtx) -> Vec<Run> {
    let cells = models
        .iter()
        .flat_map(|&model| SYSTEMS.map(|system| (system, model)));
    cells
        .map(|(system, model)| (system, model, train_cell(w, system, model, epochs, ctx)))
        .collect()
}

/// The accuracy table `id` of a grid's runs on `w`.
fn grid_record(id: &str, w: &Workload, epochs: usize, runs: &[Run]) -> ExperimentRecord {
    let mut digest = Fnv::default();
    let rows = runs
        .iter()
        .map(|(system, model, report)| {
            digest.report(report);
            row(*system, *model, report)
        })
        .collect();
    ExperimentRecord {
        id: id.into(),
        title: format!("Link prediction on {}", w.dataset.name()),
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

fn accuracy_grid(
    id: &str,
    dataset: Dataset,
    models: &[ModelKind],
    epochs: usize,
    ctx: ExpCtx,
) -> ExperimentRecord {
    let w = Workload::new(dataset, ctx.full, ctx.seed);
    let epochs = ctx.epochs(epochs);
    grid_record(id, &w, epochs, &train_grid(&w, models, epochs, ctx))
}

/// The models Tables III and IV train.
const TRANSE_DISTMULT: [ModelKind; 2] = [ModelKind::TransEL2, ModelKind::DistMult];

/// Table III: FB15k, TransE + DistMult.
pub fn table3(ctx: ExpCtx) -> ExperimentRecord {
    accuracy_grid("table3", Dataset::Fb15k, &TRANSE_DISTMULT, 10, ctx)
}

/// Table IV: WN18, TransE + DistMult (paper trains 60 epochs; harness 12).
pub fn table4(ctx: ExpCtx) -> ExperimentRecord {
    accuracy_grid("table4", Dataset::Wn18, &TRANSE_DISTMULT, 12, ctx)
}

/// Table V (Freebase-86m, scaled; TransE, 6 epochs) and Fig. 5 (its
/// convergence) read the same four runs, which are trained once for both.
pub fn table5_and_fig5(ctx: ExpCtx) -> Vec<ExperimentRecord> {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(6);
    let runs = train_grid(&w, &[ModelKind::TransEL2], epochs, ctx);
    vec![
        grid_record("table5", &w, epochs, &runs),
        super::efficiency::fig5(&w, epochs, &runs),
    ]
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
        let cell = |system| {
            let model = ModelKind::TransEL2;
            row(system, model, &train_cell(&w, system, model, 5, ctx))
        };
        let (dgl, het) = (cell(SystemKind::DglKe), cell(SystemKind::HetKgCps));
        let dgl_mrr: f64 = dgl[2].parse().unwrap();
        let het_mrr: f64 = het[2].parse().unwrap();
        assert!(
            (het_mrr - dgl_mrr).abs() < 0.15,
            "accuracies should be comparable: DGL-KE {dgl_mrr} vs HET-KG {het_mrr}"
        );
    }
}
