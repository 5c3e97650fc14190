//! Figs. 5–7: convergence over time, scalability with workers, and the
//! computation/communication breakdown — and the same breakdown, by cause,
//! on the benchmark's skewed workload.

use super::accuracy::{Run, SYSTEMS};
use super::ExpCtx;
use crate::record::{ExperimentRecord, Fnv};
use crate::render::{mb, pct, secs};
use crate::workloads::{bench_config, bench_graph, Dataset, Workload};
use hetkg_partition::{MetisLike, Partitioner};
use hetkg_train::{train, SystemKind};

/// Fig. 5: MRR-vs-time convergence series per system on the large dataset,
/// read from Table V's runs (`accuracy::table5_and_fig5`).
pub(crate) fn fig5(w: &Workload, epochs: usize, runs: &[Run]) -> ExperimentRecord {
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for (system, _, report) in runs {
        digest.report(report);
        for (t, mrr) in report.convergence_series() {
            rows.push(vec![
                system.to_string(),
                format!("{t:.2}"),
                format!("{mrr:.3}"),
            ]);
        }
    }
    ExperimentRecord {
        id: "fig5".into(),
        title: "Convergence: MRR vs (simulated) training time".into(),
        params: format!("{} | {epochs} epochs, d=128, 4 machines", w.describe()),
        columns: ["system", "time(s)", "MRR"].map(String::from).to_vec(),
        rows,
        shape_expectation: "all systems converge to similar MRR; HET-KG curves reach \
                            any given MRR earlier than DGL-KE, PBG latest \
                            (paper Fig. 5; HET-KG-D best on Freebase-86m)"
            .into(),
        digest: digest.hex(),
    }
}

/// Fig. 6: runtime speedup vs number of workers (strong scaling).
pub fn fig6(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(2);
    let worker_counts = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for system in [SystemKind::Pbg, SystemKind::DglKe, SystemKind::HetKgDps] {
        let mut base_time = None;
        for &n in &worker_counts {
            let mut cfg = ctx.config(system, 32, epochs);
            cfg.machines = n;
            // The paper's Freebase-86m hyperparameters (Table II): large
            // batches amortize per-message latency — without them no PS
            // system scales.
            cfg.batch_size = 512;
            cfg.negatives = hetkg_embed::negative::NegConfig {
                per_positive: 16,
                strategy: hetkg_embed::negative::NegStrategy::Chunked { chunk_size: 32 },
            };
            let report = train(&w.kg, &w.split.train, &[], &cfg);
            digest.report(&report);
            let total = report.total_secs();
            let base = *base_time.get_or_insert(total);
            rows.push(vec![
                system.to_string(),
                n.to_string(),
                secs(total),
                format!("{:.2}x", base / total),
            ]);
        }
    }
    ExperimentRecord {
        id: "fig6".into(),
        title: "Scalability: speedup vs workers".into(),
        params: format!("{} | {epochs} epochs, d=32", w.describe()),
        columns: ["system", "workers", "time", "speedup"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "PBG's speedup flattens (lock server + dense relation \
                            transfer); DGL-KE and HET-KG scale, with HET-KG's \
                            speedup ≈30% above DGL-KE's on average (paper Fig. 6)"
            .into(),
        digest: digest.hex(),
    }
}

/// Fig. 7: per-dataset computation vs communication breakdown per system.
pub fn fig7(ctx: ExpCtx) -> ExperimentRecord {
    let epochs = ctx.epochs(3);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for dataset in Dataset::all() {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        for system in SYSTEMS {
            let cfg = ctx.config(system, 128, epochs);
            let report = train(&w.kg, &w.split.train, &[], &cfg);
            digest.report(&report);
            rows.push(vec![
                dataset.name().to_string(),
                system.to_string(),
                secs(report.total_compute_secs()),
                secs(report.total_comm_secs()),
                secs(report.total_secs()),
                pct(report.comm_fraction()),
                mb(report.total_traffic().total_bytes()),
            ]);
        }
    }
    ExperimentRecord {
        id: "fig7".into(),
        title: "Computation vs communication breakdown".into(),
        params: format!("{epochs} epochs, d=128, 4 machines, 1 Gbps"),
        columns: [
            "dataset",
            "system",
            "compute",
            "comm",
            "total",
            "comm share",
            "MB moved",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "DGL-KE and HET-KG have similar compute; HET-KG moves \
                            fewer bytes and spends less communication time; PBG's \
                            communication far exceeds the others (paper Fig. 7)"
            .into(),
        digest: digest.hex(),
    }
}

/// Skewed-workload breakdown: where DGL-KE's, HET-KG-C's and HET-KG-D's
/// simulated seconds and remote bytes go on the benchmark's skewed workload
/// (`train-hetkg-skew` / `train-dglke-skew`), and what the hot table holds
/// and writes back, evaluated as the benchmark evaluates (filtered MRR of
/// the first 1000 test triples against 1000 candidates) — so
/// `sim_epoch_s`, the bytes, the loss and the MRR of the DGL-KE and
/// HET-KG-D rows are the benchmark's metrics. `--quick` runs one seed of
/// the same graph at a tenth of its scale.
pub fn skew_breakdown(ctx: ExpCtx) -> ExperimentRecord {
    use hetkg_eval::link_prediction::{evaluate, EvalConfig};
    use hetkg_netsim::Cause;
    use hetkg_train::trainer::{snapshot, train_with_store};
    const SYSTEMS: [(SystemKind, &str); 3] = [
        (SystemKind::DglKe, "DGL-KE"),
        (SystemKind::HetKgCps, "HET-KG-C"),
        (SystemKind::HetKgDps, "HET-KG-D"),
    ];
    const CAUSES: [Cause; 6] = [
        Cause::MissPull,
        Cause::SyncProbe,
        Cause::SyncRows,
        Cause::Construction,
        Cause::Push,
        Cause::WriteBack,
    ];
    const COLUMNS: [&str; 23] = [
        "seed",
        "system",
        "sim_epoch_s",
        "comm s",
        "compute s",
        "overlap s",
        "remote msgs/iter",
        "remote B/triple",
        "miss_pull",
        "sync_probe",
        "sync_rows",
        "construction",
        "push",
        "write_back",
        "staged early / late",
        "occupancy",
        "fresh rows/rebuild",
        "hit ratio",
        "grads/row",
        "rho",
        "early share",
        "final loss",
        "MRR",
    ];
    // `--quick`: one seed of the same graph at a tenth of its scale.
    let (shrink, dim, batch_size, epochs, seeds): (usize, _, _, _, &[u64]) = if ctx.quick {
        (10, 32, 64, 1, &[7])
    } else {
        (1, 128, 512, 2, &[7, 8, 9])
    };
    let machines = 4;
    let eval = EvalConfig {
        filtered: true,
        max_candidates: Some(1000 / shrink),
        seed: 0x5EED_E7A1,
    };
    let dash = || ["-"; 3].map(String::from);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for &seed in seeds {
        let (kg, split) = bench_graph(200_000 / shrink, 1.0, seed);
        // Worker iterations of a run as the trainer cuts them (per machine,
        // one per batch of its part's triples, per epoch) and triples trained.
        let iters = MetisLike::new(seed)
            .partition(&kg, machines)
            .split_triples(&split.train)
            .iter()
            .map(|t| t.len().div_ceil(batch_size))
            .sum::<usize>()
            * epochs;
        let triples = epochs * split.train.len();
        let per_triple = |bytes: u64| format!("{:.1}", bytes as f64 / triples as f64);
        // Per system its remote bytes and simulated seconds, for the ratio.
        let totals = SYSTEMS.map(|(system, name)| {
            let cfg = bench_config(system, dim, batch_size, epochs, seed);
            let (r, store) = train_with_store(&kg, &split.train, &[], &cfg);
            digest.report(&r);
            let test = &split.test[..(1000 / shrink).min(split.test.len())];
            let snapshot = snapshot(&store, kg.key_space());
            let model = cfg.model.build(dim);
            let mrr = evaluate(model.as_ref(), &snapshot, test, kg.triples(), &eval).mrr();
            let (t, e) = (r.total_traffic(), r.total_table());
            let mut cells = vec![
                seed.to_string(),
                name.to_string(),
                format!("{:.4}", r.total_secs() / epochs as f64),
            ];
            let lanes = [
                r.total_comm_secs(),
                r.total_compute_secs(),
                r.total_overlap_secs(),
            ];
            cells.extend(lanes.map(|s| format!("{s:.4}")));
            cells.push(format!("{:.3}", t.remote_messages as f64 / iters as f64));
            cells.push(per_triple(t.remote_bytes));
            cells.extend(CAUSES.map(|c| per_triple(t.by_cause.get(c).remote)));
            cells.push(format!("{} / {}", e.staged_early, e.staged_late));
            cells.extend(match e.rebuilds {
                0 => dash(),
                _ => [
                    pct(e.occupancy()),
                    format!("{:.1}", e.fresh_rows_per_rebuild()),
                    pct(r.total_cache().hit_ratio()),
                ],
            });
            cells.extend(match e.written_back_rows {
                0 => dash(),
                _ => [e.coalescing_factor(), e.mean_rho(), e.early_share()]
                    .map(|x| format!("{x:.2}")),
            });
            let final_loss = r.epochs.last().map_or(f64::NAN, |epoch| epoch.loss);
            cells.extend([format!("{final_loss:.5}"), format!("{mrr:.4}")]);
            rows.push(cells);
            (t.remote_bytes as f64, r.total_secs())
        });
        let ((dgl_bytes, dgl_secs), (het_bytes, het_secs)) = (totals[0], totals[2]);
        let mut ratio = vec![String::new(); COLUMNS.len()];
        ratio[0] = seed.to_string();
        ratio[1] = "HET-KG-D / DGL-KE".to_string();
        ratio[2] = format!("{:.3}", het_secs / dgl_secs);
        ratio[7] = format!("{:.3}", het_bytes / dgl_bytes);
        rows.push(ratio);
    }
    ExperimentRecord {
        id: "skew-breakdown".into(),
        title: "Where the skewed workload's epochs and bytes go, per system".into(),
        params: format!(
            "{} entities / 200 relations / {} triples, entity alpha 1.0, relation alpha 1.1 | \
             TransE-L2 d={dim}, batch {batch_size}, {machines} machines, {epochs} epoch(s), \
             AdaGrad, cache 2 % / P=8 / D=16, overlap on, seeds {seeds:?}{} | \
             sim_epoch_s = simulated seconds per epoch (the critical path); comm / compute / \
             overlap = simulated seconds over the run, slowest worker; msgs/iter = remote \
             messages per worker iteration; bytes are remote bytes per trained triple, in \
             total and by cause; staged = miss keys of staged pulls issued an iteration early \
             / left for consume time; occupancy = rows held / capacity, mean over rebuilds; \
             hit ratio usage-weighted; grads/row = gradients per row written back (the \
             coalescing factor); rho = sum of energies / sum of ||sum g||^2 over the rows \
             sent with an energy; early share = rows written back before their window's \
             last push / rows written back; MRR = filtered, first {} test triples against {} \
             candidates",
            200_000 / shrink,
            800_000 / shrink,
            if ctx.quick {
                " (--quick: a tenth of the benchmark's graph)"
            } else {
                " (the benchmark's train-hetkg-skew / train-dglke-skew configuration and \
                 evaluation)"
            },
            1000 / shrink,
            1000 / shrink,
        ),
        columns: COLUMNS.map(String::from).to_vec(),
        rows,
        shape_expectation: "per seed, HET-KG-D moves the fewest remote bytes per triple and \
                            has the shortest simulated epoch, DGL-KE the most bytes and the \
                            longest epoch, and HET-KG-C lies between them in both, so both \
                            HET-KG-D / DGL-KE ratios are below one (paper Table I / Fig. 7: the \
                            hot-embedding table cuts PS traffic); compute seconds are equal \
                            across the systems (the same triples, whatever is cached); DGL-KE \
                            moves miss pulls and pushes only, in equal parts, while the HET-KG \
                            systems also pay sync and construction bytes and write their hot \
                            rows back, each written-back row standing for more than one \
                            gradient; under DPS no staged miss key is left for consume time, \
                            and DGL-KE issues most of its staged keys early"
            .into(),
        digest: digest.hex(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_hetkg_moves_fewer_bytes_than_dglke() {
        let r = fig7(ExpCtx::QUICK);
        // Rows come in groups of 4 per dataset: PBG, DGL-KE, HET-KG-C, HET-KG-D.
        for chunk in r.rows.chunks(4) {
            let bytes = |row: &Vec<String>| row[6].parse::<f64>().unwrap();
            let pbg = bytes(&chunk[0]);
            let dgl = bytes(&chunk[1]);
            let het_c = bytes(&chunk[2]);
            assert!(
                het_c < dgl,
                "HET-KG-C {het_c} < DGL-KE {dgl} ({})",
                chunk[0][0]
            );
            assert!(pbg > dgl, "PBG {pbg} > DGL-KE {dgl} ({})", chunk[0][0]);
        }
    }

    #[test]
    fn skew_breakdown_keeps_every_claim_of_the_two_studies() {
        // Shape of the record and the direction of its claims at a tenth of
        // the benchmark's scale; `tests/overlap.rs` pins the pipeline's
        // contract, `tests/traffic_shape.rs` the bytes and message counts.
        let r = skew_breakdown(ExpCtx::QUICK);
        assert!(r.rows.iter().all(|row| row.len() == r.columns.len()));
        let systems: Vec<&str> = r.rows.iter().map(|row| row[1].as_str()).collect();
        assert_eq!(
            systems,
            ["DGL-KE", "HET-KG-C", "HET-KG-D", "HET-KG-D / DGL-KE"]
        );
        let col = |name: &str| r.columns.iter().position(|c| c == name).unwrap();
        let cell = |row: usize, name: &str| r.rows[row][col(name)].as_str();
        let num = |row: usize, name: &str| cell(row, name).parse::<f64>().unwrap();
        let (dglke, hetkg_d, ratio) = (0, 2, 3);
        let staged: Vec<u64> = cell(dglke, "staged early / late")
            .split(" / ")
            .map(|n| n.parse().unwrap())
            .collect();
        assert!(staged[0] > staged[1], "DGL-KE's staged keys: {staged:?}");
        let (overlap, compute) = (num(dglke, "overlap s"), num(dglke, "compute s"));
        assert!(
            overlap > 0.5 * compute,
            "DGL-KE hid {overlap} of {compute} s"
        );
        assert_eq!(cell(dglke, "write_back"), "0.0");
        assert_eq!(cell(dglke, "grads/row"), "-");
        assert!(num(hetkg_d, "write_back") > 0.0);
        assert!(num(hetkg_d, "push") + num(hetkg_d, "write_back") < 0.75 * num(dglke, "push"));
        assert!(num(hetkg_d, "grads/row") > 2.0 && num(hetkg_d, "rho") > 1.0);
        let early = num(hetkg_d, "early share");
        assert!(early > 0.5 && early < 0.9, "early share {early}");
        let epoch = num(ratio, "sim_epoch_s");
        assert!(epoch < 1.0, "HET-KG-D / DGL-KE = {epoch} in time");
        let bytes = num(ratio, "remote B/triple");
        assert!(bytes < 0.75, "HET-KG-D / DGL-KE = {bytes} in bytes");
    }

    #[test]
    fn fig6_reports_speedups_relative_to_one_worker() {
        let r = fig6(ExpCtx::QUICK);
        // Each system's first row is 1 worker with speedup 1.00x.
        for chunk in r.rows.chunks(4) {
            assert_eq!(chunk[0][1], "1");
            assert_eq!(chunk[0][3], "1.00x");
        }
    }
}
