//! The cache studies: Fig. 8 (capacity / staleness / entity-ratio sweeps),
//! Fig. 9 (consistency matters), Table VI (policy comparison), Table VII
//! (heterogeneity ablation).

use super::ExpCtx;
use crate::record::ExperimentRecord;
use crate::render::{mb, pct, secs};
use crate::workloads::{Dataset, Workload};
use hetkg_core::baselines::{
    replay, FifoCache, ImportanceCache, LfuCache, LruCache, ReplacementCache,
};
use hetkg_core::filter::{FilterConfig, HotSetSelector};
use hetkg_core::metrics::{CacheStats, TableEconomy};
use hetkg_core::prefetch::Prefetcher;
use hetkg_embed::negative::{NegConfig, NegativeSampler};
use hetkg_kgraph::{ParamKey, Triple};
use hetkg_train::config::CacheConfig;
use hetkg_train::plan::BatchPlan;
use hetkg_train::{train, SystemKind, TrainConfig};

fn hetkg_run(
    w: &Workload,
    cache: CacheConfig,
    epochs: usize,
    ctx: ExpCtx,
) -> hetkg_train::TrainReport {
    let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
    cfg.machines = 4;
    cfg.dim = 64;
    cfg.epochs = epochs;
    cfg.cache = cache;
    cfg.seed = ctx.seed;
    cfg.eval_candidates = Some(200);
    train(&w.kg, &w.split.train, &w.eval_set, &cfg)
}

/// Fig. 8a: cache-size sweep — hit ratio rises with capacity until every
/// key two batches of a window read fits, then plateaus; MRR stays flat.
pub fn fig8a(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(4);
    let mut rows = Vec::new();
    for frac in [0.005, 0.01, 0.02, 0.04, 0.08, 0.16] {
        let report = hetkg_run(
            &w,
            CacheConfig {
                capacity_fraction: frac,
                ..Default::default()
            },
            epochs,
            ctx,
        );
        rows.push(vec![
            pct(frac),
            pct(report.total_cache().hit_ratio()),
            mb(report.total_traffic().total_bytes()),
            format!(
                "{:.3}",
                report.final_metrics.as_ref().map_or(f64::NAN, |m| m.mrr())
            ),
        ]);
    }
    ExperimentRecord {
        id: "fig8a".into(),
        title: "Impact of cache size".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs", w.describe()),
        columns: ["capacity", "hit ratio", "MB moved", "MRR"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "hit ratio rises with capacity, then plateaus once every key \
                            that two batches of a prefetched window read fits (DPS admits \
                            no others: a row read once costs the same pull cached or not), \
                            and bytes moved fall to that plateau instead of rising with the \
                            table; MRR stays roughly flat (paper Fig. 8a: hit ratio rises, \
                            MRR does not change significantly)"
            .into(),
    }
}

/// Fig. 8b: staleness sweep — hit ratio improves, MRR degrades past P≈8.
pub fn fig8b(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(4);
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let report = hetkg_run(
            &w,
            CacheConfig {
                staleness: p,
                ..Default::default()
            },
            epochs,
            ctx,
        );
        rows.push(vec![
            p.to_string(),
            pct(report.total_cache().hit_ratio()),
            mb(report.total_traffic().total_bytes()),
            format!(
                "{:.3}",
                report.final_metrics.as_ref().map_or(f64::NAN, |m| m.mrr())
            ),
        ]);
    }
    ExperimentRecord {
        id: "fig8b".into(),
        title: "Impact of bounded staleness P".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs", w.describe()),
        columns: ["P", "hit ratio", "MB moved", "MRR"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "traffic falls as P grows (fewer syncs); MRR holds for \
                            small P and degrades for large P (paper Fig. 8b: stable \
                            up to P≈8)"
            .into(),
    }
}

/// Fig. 8c: entity-ratio sweep — hit ratio peaks at a small entity share.
///
/// Uses the paper's Freebase batch shape (b=512, many shared negatives):
/// large batches make the hot relations present in every batch while the
/// uniform negatives keep individual entities rarely repeated — the regime
/// where relation slots out-earn entity slots until most of the budget.
pub fn fig8c(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(3);
    let mut rows = Vec::new();
    for ratio in [0.0, 0.1, 0.25, 0.5, 0.75, 1.0] {
        let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
        cfg.machines = 4;
        cfg.dim = 64;
        cfg.epochs = epochs;
        cfg.cache = CacheConfig {
            entity_fraction: ratio,
            ..Default::default()
        };
        cfg.seed = ctx.seed;
        cfg.batch_size = 512;
        cfg.negatives = NegConfig {
            per_positive: 64,
            strategy: hetkg_embed::negative::NegStrategy::Chunked { chunk_size: 32 },
        };
        let report = train(&w.kg, &w.split.train, &[], &cfg);
        rows.push(vec![
            pct(ratio),
            pct(report.total_cache().hit_ratio()),
            mb(report.total_traffic().total_bytes()),
        ]);
    }
    ExperimentRecord {
        id: "fig8c".into(),
        title: "Impact of hot-embedding selection (entity ratio)".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs", w.describe()),
        columns: ["entity ratio", "hit ratio", "MB moved"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "hit ratio rises then falls with the entity ratio, \
                            peaking at a small ratio (paper Fig. 8c: 25%) because \
                            relations are denser per key"
            .into(),
    }
}

/// Fig. 9: epoch-MRR training curves for tight vs loose consistency.
pub fn fig9(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Freebase86m, ctx.full, ctx.seed);
    let epochs = ctx.epochs(6);
    let mut rows = Vec::new();
    for p in [1usize, 128] {
        let report = hetkg_run(
            &w,
            CacheConfig {
                staleness: p,
                ..Default::default()
            },
            epochs,
            ctx,
        );
        for e in &report.epochs {
            if let Some(mrr) = e.mrr {
                rows.push(vec![
                    format!("P={p}"),
                    e.epoch.to_string(),
                    format!("{mrr:.3}"),
                ]);
            }
        }
    }
    ExperimentRecord {
        id: "fig9".into(),
        title: "Impact of the synchronization threshold on convergence".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs", w.describe()),
        columns: ["staleness", "epoch", "MRR"].map(String::from).to_vec(),
        rows,
        shape_expectation: "the P=1 curve dominates the P=128 curve: relaxing \
                            consistency hurts convergence (paper Fig. 9: 0.67 vs \
                            0.59 final MRR)"
            .into(),
    }
}

/// Bounded-staleness divergence study (empirical §IV-C): how far do cached
/// rows drift from their global replicas as the sync period `P` grows?
pub fn divergence(ctx: ExpCtx) -> ExperimentRecord {
    let w = Workload::new(Dataset::Fb15k, ctx.full, ctx.seed);
    let epochs = ctx.epochs(4);
    let mut rows = Vec::new();
    for p in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let report = hetkg_run(
            &w,
            CacheConfig {
                staleness: p,
                ..Default::default()
            },
            epochs,
            ctx,
        );
        // Mean per-key divergence at sync time, averaged over post-warmup
        // epochs (max-statistics would bias toward small P, which syncs —
        // and therefore samples — far more often).
        let post_warmup: Vec<f64> = report
            .epochs
            .iter()
            .skip(1)
            .map(|e| e.mean_divergence)
            .collect();
        let steady = if post_warmup.is_empty() {
            0.0
        } else {
            post_warmup.iter().sum::<f64>() / post_warmup.len() as f64
        };
        rows.push(vec![
            p.to_string(),
            format!("{:.4}", steady),
            format!(
                "{:.3}",
                report.final_metrics.as_ref().map_or(f64::NAN, |m| m.mrr())
            ),
        ]);
    }
    ExperimentRecord {
        id: "divergence".into(),
        title: "Cache-vs-global divergence under bounded staleness".into(),
        params: format!("{} | HET-KG-D, {epochs} epochs", w.describe()),
        columns: ["P", "mean L2 divergence at sync", "MRR"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "divergence at sync time grows with the staleness bound P \
                            and stays bounded for fixed P — the empirical form of \
                            §IV-C's bounded-staleness assumption"
            .into(),
    }
}

/// The static "importance cache" baseline's scores: rank by *node degree* —
/// the strategy HET uses for general embedding tables. Degree is an entity
/// notion: the baseline has no special treatment for relation embeddings,
/// which is exactly the node-heterogeneity blindness HET-KG fixes (§IV-B
/// discussion of HET vs HET-KG).
fn degree_scores(w: &Workload) -> Vec<(ParamKey, u64)> {
    w.kg.entity_degrees()
        .iter()
        .enumerate()
        .map(|(e, d)| (ParamKey(e as u64), *d))
        .collect()
}

/// Sample `batches` training batches the way a worker does and replay
/// HET-KG's DPS cache over them: every `window` batches the prefetcher
/// reports the next window's read statistics and the hot set is rebuilt from
/// them by the selection the live worker calls ([`HotSetSelector::select`]),
/// then each batch's distinct keys — what it would pull — replay against it.
/// Returns HET-KG's hit statistics and the flat trace of those per-batch
/// distinct keys, for the replacement caches to replay.
///
/// A key the window reads once is never admitted, so it misses by design:
/// its one pull is the same pull cached or not.
fn hetkg_replay(
    sampler: &mut Prefetcher,
    negatives: &mut NegativeSampler,
    train: &[Triple],
    ks: hetkg_kgraph::KeySpace,
    capacity: usize,
    batches: usize,
    window: usize,
) -> (CacheStats, Vec<ParamKey>) {
    let mut stats = CacheStats::new();
    let mut trace = Vec::new();
    let mut selector = HotSetSelector::default();
    let mut plan = BatchPlan::new();
    let config = FilterConfig::paper_default(capacity);
    let mut left = batches;
    while left > 0 {
        let pf = sampler.prefetch(train, negatives, left.min(window));
        left -= pf.batches.len();
        let hot = selector.select(&pf.reads, ks, &config);
        let mut cache = ImportanceCache::from_keys(capacity, hot.keys());
        for batch in &pf.batches {
            // Row widths do not matter here: only the distinct keys do.
            plan.compile(batch, ks, 1, 1);
            for &k in plan.keys() {
                stats.record(cache.access(k));
            }
            trace.extend_from_slice(plan.keys());
        }
    }
    (stats, trace)
}

/// Table VI: hit-ratio comparison — FIFO, LRU, LFU, importance, HET-KG.
pub fn table6(ctx: ExpCtx) -> ExperimentRecord {
    let mut rows = Vec::new();
    for dataset in Dataset::all() {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        let ks = w.kg.key_space();
        let capacity = (ks.len() / 20).max(8); // 5% of keys
        let batches = if ctx.quick { 50 } else { 300 };
        // One trace for every policy: HET-KG's windowed reconstruction
        // replays it as it is sampled, the others replay it flat.
        let mut sampler = Prefetcher::new(64, ks, ctx.seed);
        let mut negatives =
            NegativeSampler::new(w.kg.num_entities(), NegConfig::default(), ctx.seed);
        let (het, flat) = hetkg_replay(
            &mut sampler,
            &mut negatives,
            &w.split.train,
            ks,
            capacity,
            batches,
            16,
        );
        let het = het.hit_ratio();
        let scores = degree_scores(&w);

        let fifo = replay(&mut FifoCache::new(capacity), &flat).hit_ratio();
        let lru = replay(&mut LruCache::new(capacity), &flat).hit_ratio();
        let lfu = replay(&mut LfuCache::new(capacity), &flat).hit_ratio();
        let imp = replay(&mut ImportanceCache::from_scores(capacity, &scores), &flat).hit_ratio();
        rows.push(vec![
            dataset.name().to_string(),
            pct(fifo),
            pct(lru),
            pct(lfu),
            pct(imp),
            pct(het),
        ]);
    }
    ExperimentRecord {
        id: "table6".into(),
        title: "Cache hit ratio vs simple caching techniques".into(),
        params: "capacity = 5% of keys; trace = sampled training accesses".into(),
        columns: ["dataset", "FIFO", "LRU", "LFU", "importance", "HET-KG"]
            .map(String::from)
            .to_vec(),
        rows,
        shape_expectation: "FIFO < LRU < importance < HET-KG on every dataset \
                            (paper Table VI; e.g. Freebase-86m 6.6/8.6/34.3/43.1%)"
            .into(),
    }
}

/// What one training run of the admission study reports, in the units its
/// table prints: remote bytes by cause, simulated seconds, and the hot
/// table's economy.
struct AdmissionRow {
    seed: u64,
    system: &'static str,
    admission: &'static str,
    /// Remote bytes: total, miss pull, sync probe, sync rows, construction,
    /// push, write-back.
    remote: [u64; 7],
    /// Simulated seconds: communication, compute, overlap, epoch.
    secs: [f64; 4],
    /// The hot table's economy and its usage-weighted hit ratio; `None` for
    /// a cacheless system.
    table: Option<(TableEconomy, f64)>,
}

impl AdmissionRow {
    fn of(
        seed: u64,
        system: &'static str,
        admission: &'static str,
        r: &hetkg_train::TrainReport,
    ) -> Self {
        use hetkg_netsim::Cause;
        let t = r.total_traffic();
        let cause = |c| t.by_cause.get(c).remote;
        let e = r.total_table();
        Self {
            seed,
            system,
            admission,
            remote: [
                t.remote_bytes,
                cause(Cause::MissPull),
                cause(Cause::SyncProbe),
                cause(Cause::SyncRows),
                cause(Cause::Construction),
                cause(Cause::Push),
                cause(Cause::WriteBack),
            ],
            secs: [
                r.total_comm_secs(),
                r.total_compute_secs(),
                r.total_overlap_secs(),
                r.total_secs(),
            ],
            table: (e.rebuilds > 0).then(|| (e, r.total_cache().hit_ratio())),
        }
    }

    fn cells(&self) -> Vec<String> {
        let mut cells = vec![
            self.seed.to_string(),
            self.system.to_string(),
            self.admission.to_string(),
        ];
        cells.extend(
            self.remote
                .iter()
                .map(|&b| format!("{:.2}", b as f64 / 1e6)),
        );
        cells.extend(self.secs.iter().map(|s| format!("{s:.4}")));
        match self.table {
            Some((e, hit_ratio)) => cells.extend([
                pct(e.occupancy()),
                format!("{:.1}", e.fresh_rows_per_rebuild()),
                format!("{} / {}", e.staged_early, e.staged_late),
                pct(hit_ratio),
            ]),
            None => cells.extend(std::iter::repeat_n("-".to_string(), 4)),
        }
        cells
    }
}

/// HET-KG-D as it ran at the parent of the change that introduced admission
/// by reading batches (commit ec06e18: every key of the window a candidate,
/// ranked by raw uses), on this experiment's graph and seeds. The old rule
/// is not selectable at run time — it survives only as a `#[cfg(test)]`
/// reference in `hetkg_core::filter` — so its columns were recorded once
/// from that commit: traffic and seconds from its `TrainReport`, the table
/// economy (which it did not report) from counters printed by a scratch
/// build. Rows held equal capacity at every rebuild there.
const RAW_USE_ADMISSION: [AdmissionRow; 2] = [
    AdmissionRow {
        seed: 7,
        system: "HET-KG-D",
        admission: "raw uses (parent)",
        remote: [
            19_961_476, 4_039_064, 327_192, 3_010_140, 2_101_248, 10_483_832, 0,
        ],
        secs: [0.2336876752, 0.033509376, 0.0276109144, 0.2395861368],
        table: Some((
            TableEconomy {
                rebuilds: 72,
                rows_held: 29_088,
                capacity: 29_088,
                fresh_rows: 18_872,
                staged_early: 21_021,
                staged_late: 54_707,
                written_back_rows: 0,
                written_back_early: 0,
                coalesced_grads: 0,
                written_back_energy: 0.0,
                written_back_sum_sq: 0.0,
            },
            0.7386903734923921,
        )),
    },
    AdmissionRow {
        seed: 8,
        system: "HET-KG-D",
        admission: "raw uses (parent)",
        remote: [
            19_977_200, 4_032_672, 327_228, 3_005_380, 2_132_712, 10_479_208, 0,
        ],
        secs: [0.2419105112, 0.034062336, 0.0276045832, 0.2483682640],
        table: Some((
            TableEconomy {
                rebuilds: 73,
                rows_held: 29_492,
                capacity: 29_492,
                fresh_rows: 19_056,
                staged_early: 19_061,
                staged_late: 56_758,
                written_back_rows: 0,
                written_back_early: 0,
                coalesced_grads: 0,
                written_back_energy: 0.0,
                written_back_sum_sq: 0.0,
            },
            0.7387648296033389,
        )),
    },
];

/// DPS admission study: what the hot table costs and saves when a row is
/// cached only if two batches of the prefetched window read it, against the
/// raw-use ranking it replaced and against DGL-KE, on the benchmark's
/// skewed graph at a tenth of its scale (`tests/traffic_shape.rs`'s).
pub fn dps_admission(_ctx: ExpCtx) -> ExperimentRecord {
    let mut rows = Vec::new();
    for recorded in RAW_USE_ADMISSION {
        let seed = recorded.seed;
        let kg = hetkg_kgraph::generator::SyntheticKg {
            num_entities: 20_000,
            num_relations: 200,
            num_triples: 80_000,
            entity_alpha: 1.0,
            relation_alpha: 1.1,
            ..Default::default()
        }
        .build(seed);
        let split = hetkg_kgraph::split::Split::ninety_five_five(&kg, seed);
        let run = |system| {
            let mut cfg = TrainConfig::paper(system, hetkg_embed::ModelKind::TransEL2, 32);
            cfg.batch_size = 64;
            cfg.machines = 4;
            cfg.epochs = 1;
            cfg.eval_candidates = None;
            cfg.seed = seed;
            train(&kg, &split.train, &[], &cfg)
        };
        let dglke = AdmissionRow::of(seed, "DGL-KE", "-", &run(SystemKind::DglKe));
        let hetkg = AdmissionRow::of(
            seed,
            "HET-KG-D",
            "read by >= 2 batches",
            &run(SystemKind::HetKgDps),
        );
        rows.extend([dglke.cells(), recorded.cells(), hetkg.cells()]);
    }
    ExperimentRecord {
        id: "dps-admission".into(),
        title: "DPS admission: cache a row only when two batches of the window read it".into(),
        params: "20000 entities / 200 relations / 80000 triples, entity alpha 1.0, relation \
                 alpha 1.1 | TransE-L2 d=32, batch 64, 4 machines, 1 epoch, cache 2 % / P=8 / \
                 D=16, seeds 7 and 8 (fixed: the parent's rows are recordings) | bytes are \
                 remote MB, times simulated seconds"
            .into(),
        columns: [
            "seed",
            "system",
            "admission",
            "remote MB",
            "miss_pull",
            "sync_probe",
            "sync_rows",
            "construction",
            "push",
            "write_back",
            "comm s",
            "compute s",
            "overlap s",
            "epoch s",
            "occupancy",
            "fresh rows/rebuild",
            "staged early / late",
            "hit ratio",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "admission by reading batches moves fewer remote bytes than the \
                            raw-use ranking and than DGL-KE: construction shrinks several-fold \
                            (no row + version pulled for a key one batch reads), sync rows \
                            shrink (those rows were re-sent when the worker's own push moved \
                            them), miss pulls grow by less than the two save; the rule leaves \
                            push alone — it is smaller in this build's rows because hot rows \
                            are now written back once per sync window (`write-back` has that \
                            comparison); no staged miss key is left for consume time, so overlap \
                            equals compute; occupancy falls below 100 % (the table holds what \
                            pays, not what fits) and the usage-weighted hit ratio falls with \
                            it, because a corruption used 32 times by one batch counted as 32 \
                            hits for one saved pull. At this scale (d=32, batch 64) an epoch is \
                            bound by per-message latency, not bytes or compute, so the \
                            pipeline's per-key split costs both systems more in second frames \
                            than overlap returns — DGL-KE's epoch s read 0.2633 / 0.2707 and \
                            HET-KG-D's 0.2298 / 0.2375 under the per-shard rule; \
                            `pipeline-split` has the benchmark-scale runs, where it pays"
            .into(),
    }
}

/// Table VII: heterogeneity ablation — HET-KG vs HET-KG-N (no 25/75 split).
pub fn table7(ctx: ExpCtx) -> ExperimentRecord {
    let epochs = ctx.epochs(6);
    let mut rows = Vec::new();
    for dataset in [Dataset::Fb15k, Dataset::Wn18] {
        let w = Workload::new(dataset, ctx.full, ctx.seed);
        for (label, aware) in [("HET-KG", true), ("HET-KG-N", false)] {
            let report = hetkg_run(
                &w,
                CacheConfig {
                    heterogeneity_aware: aware,
                    ..Default::default()
                },
                epochs,
                ctx,
            );
            let m = report.final_metrics.as_ref().expect("eval enabled");
            rows.push(vec![
                dataset.name().to_string(),
                label.to_string(),
                format!("{:.3}", m.mrr()),
                format!("{:.3}", m.hits(1)),
                format!("{:.3}", m.hits(10)),
                secs(report.total_secs()),
                pct(report.total_cache().hit_ratio()),
            ]);
        }
    }
    ExperimentRecord {
        id: "table7".into(),
        title: "Node-heterogeneity optimization ablation".into(),
        params: format!("HET-KG-D, {epochs} epochs, d=32, 4 machines"),
        columns: [
            "dataset",
            "system",
            "MRR",
            "Hits@1",
            "Hits@10",
            "time",
            "hit ratio",
        ]
        .map(String::from)
        .to_vec(),
        rows,
        shape_expectation: "HET-KG-N (no entity/relation split) can be slightly \
                            faster but loses accuracy relative to HET-KG \
                            (paper Table VII)"
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
    fn fig8a_hit_ratio_rises_with_capacity() {
        let r = fig8a(quick());
        let first: f64 = r.rows[0][1].trim_end_matches('%').parse().unwrap();
        let last: f64 = r.rows.last().unwrap()[1]
            .trim_end_matches('%')
            .parse()
            .unwrap();
        assert!(
            last > first,
            "hit ratio must rise with capacity: {first} -> {last}"
        );
    }

    #[test]
    fn dps_admission_sets_each_recorded_row_beside_runs_of_the_same_workload() {
        // Shape of the record only; what the rule saves and hides is pinned
        // by `tests/traffic_shape.rs` and `tests/overlap.rs`.
        let r = dps_admission(quick());
        let push = r.columns.iter().position(|c| c == "push").unwrap();
        assert_eq!(r.columns[push + 1], "write_back");
        let compute = r.columns.iter().position(|c| c == "compute s").unwrap();
        assert_eq!(r.rows.len(), 3 * RAW_USE_ADMISSION.len());
        // Per seed: DGL-KE, the recorded raw-use row, this build.
        for (rows, recorded) in r.rows.chunks(3).zip(&RAW_USE_ADMISSION) {
            assert!(rows.iter().all(|row| row.len() == r.columns.len()));
            assert_eq!(rows[1], recorded.cells());
            // Compute seconds follow from the triples each worker trains
            // on, whatever is cached or pushed: equal ones say the
            // recording is of this graph and seed.
            assert_eq!(rows[2][compute], recorded.cells()[compute]);
            // The recording pushed every gradient every iteration; this
            // build writes its hot rows back instead, in fewer bytes.
            let mb = |cell: &String| cell.parse::<f64>().unwrap();
            assert!(mb(&rows[2][push + 1]) > 0.0);
            assert!(mb(&rows[2][push]) + mb(&rows[2][push + 1]) < mb(&rows[1][push]));
        }
    }

    #[test]
    fn table6_hetkg_beats_simple_caches() {
        let r = table6(quick());
        for row in &r.rows {
            let v = |i: usize| row[i].trim_end_matches('%').parse::<f64>().unwrap();
            let (fifo, lru, imp, het) = (v(1), v(2), v(4), v(5));
            assert!(fifo <= lru + 1.0, "{row:?}");
            assert!(
                het > imp - 1.0,
                "HET-KG must be at least importance-level: {row:?}"
            );
            assert!(het > fifo, "{row:?}");
        }
    }

    #[test]
    fn hetkg_replay_with_full_capacity_misses_only_one_shot_keys() {
        let w = Workload::new(Dataset::Wn18, false, 1);
        let ks = w.kg.key_space();
        let mut sampler = Prefetcher::new(16, ks, 1);
        let mut negatives = NegativeSampler::new(w.kg.num_entities(), NegConfig::default(), 1);
        // One window, room for every key: what misses is decided by the
        // admission rule alone.
        let (stats, trace) = hetkg_replay(
            &mut sampler,
            &mut negatives,
            &w.split.train,
            ks,
            ks.len(),
            10,
            10,
        );
        // The trace lists each batch's distinct keys, so a key's count in
        // it is the number of batches that read it.
        let mut reading_batches = std::collections::HashMap::new();
        for &k in &trace {
            *reading_batches.entry(k).or_insert(0u64) += 1;
        }
        let one_shot = reading_batches.values().filter(|&&b| b == 1).count() as u64;
        assert!(one_shot > 0 && one_shot < trace.len() as u64);
        assert_eq!(
            stats.misses, one_shot,
            "a key read by one batch is never admitted; every other read hits"
        );
        assert_eq!(stats.total(), trace.len() as u64);
    }
}
