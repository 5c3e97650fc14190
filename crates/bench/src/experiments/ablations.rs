//! Extra ablations for design choices DESIGN.md calls out (not paper
//! figures, but the paper's §V motivates both).

use super::ExpCtx;
use crate::record::{ExperimentRecord, Fnv};
use crate::render::{mb, pct, secs};
use crate::workloads::{Dataset, Workload};
use hetkg_embed::negative::{NegConfig, NegStrategy};
use hetkg_partition::{quality, MetisLike, Partitioner, RandomPartitioner};
use hetkg_train::config::PartitionerKind;
use hetkg_train::{train, SystemKind, TrainConfig};

/// Partitioner ablation: METIS-like vs random — edge cut, entity balance,
/// the balance of the triples each machine trains, and the resulting
/// training communication.
pub fn partition(ctx: ExpCtx) -> ExperimentRecord {
    let epochs = ctx.epochs(2);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for dataset in Dataset::all() {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        for (label, kind) in [
            ("metis-like", PartitionerKind::MetisLike),
            ("random", PartitionerKind::Random),
        ] {
            let p: Box<dyn Partitioner> = match kind {
                PartitionerKind::MetisLike => Box::new(MetisLike::new(ctx.seed)),
                PartitionerKind::Random => Box::new(RandomPartitioner::new(ctx.seed)),
            };
            let parts = p.partition(&w.kg, 4);
            let cut = quality::cut_fraction(&w.kg, &parts);
            let bal = quality::balance(&parts);
            let home = quality::home_balance(&w.split.train, &parts);

            let mut cfg = ctx.config(SystemKind::DglKe, 32, epochs);
            cfg.partitioner = kind;
            let report = train(&w.kg, &w.split.train, &[], &cfg);
            digest.report(&report);
            rows.push(vec![
                dataset.name().to_string(),
                label.to_string(),
                pct(cut),
                format!("{bal:.2}"),
                format!("{home:.2}"),
                mb(report.total_traffic().remote_bytes),
                secs(report.total_comm_secs()),
            ]);
        }
    }
    ExperimentRecord {
        id: "partition-ablation".into(),
        title: "Graph partitioning: METIS-like vs random".into(),
        params: format!("4 partitions; DGL-KE-sim, {epochs} epochs, d=32"),
        columns: [
            "dataset",
            "partitioner",
            "edge cut",
            "balance",
            "home balance",
            "remote MB",
            "comm time",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "METIS-like cuts fewer edges than random at comparable \
                            balance, which lowers remote traffic (the reason \
                            DGL-KE and HET-KG partition with METIS, §V)"
            .into(),
        digest: digest.hex(),
    }
}

/// Negative-sampling ablation: independent vs chunked corruption — §V's
/// complexity argument `O(b·d·(n+1))` vs `O(b·d + b·k·d/b_c)`.
pub fn negsample(ctx: ExpCtx) -> ExperimentRecord {
    let epochs = ctx.epochs(2);
    let w = Workload::new(Dataset::Fb15k, ctx.full, ctx.seed);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for (label, strategy) in [
        ("independent", NegStrategy::Independent),
        ("chunked (b_c=32)", NegStrategy::Chunked { chunk_size: 32 }),
    ] {
        let mut cfg = ctx.config(SystemKind::DglKe, 32, epochs);
        cfg.negatives = NegConfig {
            per_positive: 8,
            strategy,
        };
        cfg.eval_candidates = Some(200);
        let report = train(&w.kg, &w.split.train, &w.eval_set, &cfg);
        digest.report(&report);
        rows.push(vec![
            label.to_string(),
            mb(report.total_traffic().total_bytes()),
            secs(report.total_comm_secs()),
            secs(report.total_secs()),
            format!(
                "{:.3}",
                report.final_metrics.as_ref().map_or(f64::NAN, |m| m.mrr())
            ),
        ]);
    }
    ExperimentRecord {
        id: "negsample-ablation".into(),
        title: "Negative sampling: independent vs chunked corruption".into(),
        params: format!("{} | DGL-KE-sim, 8 negatives/positive", w.describe()),
        columns: ["strategy", "MB moved", "comm time", "total time", "MRR"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "chunked corruption touches far fewer distinct entities \
                            per batch, cutting embedding traffic at equal accuracy \
                            (§V's batched negative sampling)"
            .into(),
        digest: digest.hex(),
    }
}

/// Bandwidth sensitivity: the paper's §II Remarks motivate the cache
/// "especially in a low bandwidth network environment" — sweep the link
/// speed and watch HET-KG's advantage over DGL-KE grow as bandwidth falls.
pub fn bandwidth(ctx: ExpCtx) -> ExperimentRecord {
    use hetkg_netsim::CostModel;
    let w = Workload::new(Dataset::Fb15k, ctx.full, ctx.seed);
    let epochs = ctx.epochs(3);
    let mut rows = Vec::new();
    let mut digest = Fnv::default();
    for (label, gbps) in [("100 Mbps", 0.1), ("1 Gbps", 1.0), ("10 Gbps", 10.0)] {
        let mut times = Vec::new();
        for system in [SystemKind::DglKe, SystemKind::HetKgDps] {
            let mut cfg = ctx.config(system, 128, epochs);
            cfg.cost_model = CostModel {
                remote_bandwidth: gbps * 1e9 / 8.0,
                ..CostModel::gigabit()
            };
            let report = train(&w.kg, &w.split.train, &[], &cfg);
            digest.report(&report);
            times.push(report.total_secs());
        }
        rows.push(vec![
            label.to_string(),
            secs(times[0]),
            secs(times[1]),
            format!("{:.2}x", times[0] / times[1]),
        ]);
    }
    ExperimentRecord {
        id: "bandwidth-sweep".into(),
        title: "Cache benefit vs network bandwidth".into(),
        params: format!("{} | {epochs} epochs, d=128, 4 machines", w.describe()),
        columns: ["link", "DGL-KE", "HET-KG-D", "speedup"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "HET-KG's speedup over DGL-KE is largest on the slowest \
                            link and shrinks as bandwidth grows (§II Remarks: the \
                            cache matters most in low-bandwidth environments)"
            .into(),
        digest: digest.hex(),
    }
}

/// One row of the push-compression ablation: `mode` trained on `w`, its
/// report folded into `digest`.
fn compression_row(
    w: &Workload,
    mode: hetkg_netsim::CompressionMode,
    epochs: usize,
    seed: u64,
    digest: &mut Fnv,
) -> Vec<String> {
    let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
    cfg.machines = 4;
    cfg.dim = 32;
    cfg.epochs = epochs;
    cfg.seed = seed;
    // Rank against every entity: candidate subsampling noise at this
    // scale would swamp the small accuracy deltas the ablation measures.
    cfg.eval_candidates = Some(w.kg.num_entities());
    cfg.compression = mode;
    let report = train(&w.kg, &w.split.train, &w.eval_set, &cfg);
    digest.report(&report);
    let t = report.total_traffic();
    let ratio = if t.push_wire_bytes > 0 {
        t.push_raw_bytes as f64 / t.push_wire_bytes as f64
    } else {
        1.0
    };
    vec![
        mode.as_str().to_string(),
        mb(t.push_raw_bytes),
        mb(t.push_wire_bytes),
        format!("{ratio:.2}x"),
        secs(report.total_comm_secs()),
        format!(
            "{:.4}",
            report.final_metrics.as_ref().map_or(f64::NAN, |m| m.mrr())
        ),
    ]
}

/// Push-compression ablation: dense f32 pushes vs int8/int4 quantization,
/// top-k sparsification, and the adaptive ladder — metered push-lane bytes
/// saved vs final MRR, with error feedback keeping the lossy modes honest.
pub fn compression(ctx: ExpCtx) -> ExperimentRecord {
    use hetkg_netsim::CompressionMode;
    let epochs = ctx.epochs(4);
    let w = Workload::new(Dataset::Fb15k, ctx.full, ctx.seed);
    let mut digest = Fnv::default();
    let rows = [
        CompressionMode::Off,
        CompressionMode::Int8,
        CompressionMode::Int4,
        CompressionMode::TopK,
        CompressionMode::Adaptive,
    ]
    .into_iter()
    .map(|mode| compression_row(&w, mode, epochs, ctx.seed, &mut digest))
    .collect();
    ExperimentRecord {
        id: "compression-ablation".into(),
        title: "Push compression: bytes saved vs accuracy".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs, d=32", w.describe()),
        columns: [
            "mode",
            "push raw MB",
            "push wire MB",
            "ratio",
            "comm time",
            "MRR",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "int8 and top-k cut metered push-lane bytes at least 3x \
                            while error feedback holds final MRR within a few \
                            percent of the dense run (GreenDyGNN-style adaptive \
                            communication, PAPERS.md)"
            .into(),
        digest: digest.hex(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_sampling_moves_fewer_bytes() {
        let r = negsample(ExpCtx::QUICK);
        let bytes = |i: usize| r.rows[i][1].parse::<f64>().unwrap();
        assert!(
            bytes(1) < bytes(0),
            "chunked {} must beat independent {}",
            bytes(1),
            bytes(0)
        );
    }

    #[test]
    fn compression_cuts_push_bytes_3x_at_near_equal_mrr() {
        // The PR acceptance bar on the fb15k workload: int8 and top-k each
        // cut metered push-lane bytes at least 3x, and the adaptive
        // int8+top-k ladder holds final MRR within 2% relative of the
        // dense run. (Dense MRR itself swings ~3% seed to seed at harness
        // scale, so the fixed lossy modes get a looser catastrophic-loss
        // guard instead of the 2% bar; the simulator is deterministic, so
        // none of these assertions are flaky.)
        //
        // Runs the experiment's own 4 epochs, not the 2-epoch `quick` clamp.
        // One draw (MRR ≈ 0.04) scatters ±12 % between modes from seed to
        // seed on any commit, and a single seed's ratio to dense has an SD
        // of about 5 %, so every accuracy bar is held over a mean of seeds;
        // the byte bars are held on each seed. The 10 % bars take the mean
        // of three seeds (a standard error near 3 %). The 2 % bar takes
        // twelve, because three do not resolve it: twelve put its standard
        // error at 1.0–1.3 %.
        let seeds = [42u64, 43, 44];
        let records: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                compression(ExpCtx {
                    seed,
                    ..Default::default()
                })
            })
            .collect();
        let cell = |r: &ExperimentRecord, mode: &str, col: usize| {
            let row = r.rows.iter().find(|row| row[0] == mode);
            row.unwrap_or_else(|| panic!("no {mode} row"))[col].clone()
        };
        let ratio = |r: &ExperimentRecord, mode: &str| {
            let cell = cell(r, mode, 3);
            cell.trim_end_matches('x').parse::<f64>().unwrap()
        };
        let mrr_of = |r: &ExperimentRecord, mode: &str| cell(r, mode, 5).parse::<f64>().unwrap();
        let mrr = |mode: &str| {
            let sum: f64 = records.iter().map(|r| mrr_of(r, mode)).sum();
            sum / seeds.len() as f64
        };
        let dense = mrr("off");
        assert!(dense.is_finite() && dense > 0.0);
        let rel = |mode: &str| (mrr(mode) - dense).abs() / dense;
        for mode in ["int8", "topk", "adaptive"] {
            for r in &records {
                assert!(
                    ratio(r, mode) >= 3.0,
                    "{mode} push-lane cut {:.2}x is under the 3x bar",
                    ratio(r, mode)
                );
            }
            assert!(
                rel(mode) <= 0.10,
                "{mode} mean MRR {} collapsed {:.1}% from dense {}",
                mrr(mode),
                100.0 * rel(mode),
                dense
            );
        }
        // Nine seeds more of the two modes the 2 % bar compares, on two
        // threads: this is the suite's longest test.
        let off_and_adaptive = |seed: u64| {
            use hetkg_netsim::CompressionMode::{Adaptive, Off};
            let w = Workload::new(Dataset::Fb15k, false, seed);
            [Off, Adaptive].map(|mode| {
                compression_row(&w, mode, 4, seed, &mut Fnv::default())[5]
                    .parse::<f64>()
                    .unwrap()
            })
        };
        let more: Vec<u64> = (45..54).collect();
        let (front, back) = more.split_at(more.len() / 2);
        let run = |seeds: &[u64]| {
            seeds
                .iter()
                .map(|&s| off_and_adaptive(s))
                .collect::<Vec<_>>()
        };
        let (front_pairs, back_pairs) = std::thread::scope(|scope| {
            let back = scope.spawn(|| run(back));
            (run(front), back.join().unwrap())
        });
        let mut pairs: Vec<[f64; 2]> = records
            .iter()
            .map(|r| [mrr_of(r, "off"), mrr_of(r, "adaptive")])
            .collect();
        pairs.extend(front_pairs.into_iter().chain(back_pairs));
        let n = pairs.len() as f64;
        let dense = pairs.iter().map(|p| p[0]).sum::<f64>() / n;
        let adaptive = pairs.iter().map(|p| p[1]).sum::<f64>() / n;
        assert!(
            (adaptive - dense).abs() / dense <= 0.02,
            "adaptive mean MRR {adaptive} drifted {:.1}% from dense {dense} over {n} seeds",
            100.0 * (adaptive - dense) / dense
        );
        // The dense baseline ships raw == wire: ratio exactly 1.
        assert_eq!(ratio(&records[0], "off"), 1.0);
    }
}
