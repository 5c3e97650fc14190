//! The behaviour ledger: fixed runs recorded bit for bit, so a change that
//! moves what is trained, sent or simulated, by however little, rewrites
//! `experiments/ledger.json` and fails CI's `experiments` job (a rerun of
//! `repro all` diffed against the committed records). A change that means
//! to move a run commits the rerun and names the rows that moved. No flag
//! changes the runs:
//!
//! * the three training workloads of `benchmark/src/train.rs` at its
//!   `--quick` scale, seeds 7 and 8, over the simulated backend (which
//!   `train-uds-flat`'s sockets are held equal to); CI's `benchmark-smoke`
//!   job holds the benchmark's own runs to these losses, so the copy here
//!   cannot drift unseen;
//! * `hetkg-p1`: HET-KG-D and HET-KG-C syncing every iteration, where every
//!   push is a window's last and no schedule of write-backs, staging or
//!   gating may move a row;
//! * `fb15k-faults`: what `hetkg train --synthetic fb15k --epochs 3 --oracle
//!   on --fault-profile <run>` computes, seeds 11, 23 and 47.
//!
//! Floats are their bits in hex, counts decimal, digests FNV-1a.

use super::ExpCtx;
use crate::record::{ExperimentRecord, Fnv};
use crate::workloads::{bench_config, bench_graph, Dataset};
use hetkg_kgraph::{split::Split, KnowledgeGraph};
use hetkg_netsim::{Cause, CompressionMode, FaultPlan};
use hetkg_partition::{MetisLike, Partitioner};
use hetkg_train::trainer::{checkpoint, train_with_store};
use hetkg_train::{oracle, SystemKind, SystemKind::*, TrainConfig};

/// `benchmark/src/train.rs`'s workloads: name, system, entities, entity
/// skew, int8 pushes.
const WORKLOADS: [(&str, SystemKind, usize, f64, bool); 3] = [
    ("train-hetkg-skew", HetKgDps, 200_000, 1.0, false),
    ("train-dglke-skew", DglKe, 200_000, 1.0, false),
    ("train-uds-flat", HetKgCps, 100_000, 0.0, true),
];

/// `hetkg train` runs: a `--fault-profile` preset and the flag beside it.
const FAULT_RUNS: [&str; 9] = [
    "lossy",
    "corrupt",
    "corrupt --integrity off",
    "outage",
    "overload",
    "chaos",
    "chaos --max-restarts 0",
    "chaos --replication 2",
    "failover --replication 2",
];

#[derive(Default)]
struct Ledger {
    rows: Vec<Vec<String>>,
    /// Every report the rows were read from.
    digest: Fnv,
}

impl Ledger {
    fn row(&mut self, run: &str, field: impl Into<String>, value: impl ToString) {
        self.rows
            .push(vec![run.into(), field.into(), value.to_string()]);
    }

    fn bits(&mut self, run: &str, field: impl Into<String>, value: f64) {
        self.row(run, field, format!("{:016x}", value.to_bits()));
    }

    /// Per epoch the loss, critical path, lanes, messages and bytes; remote
    /// bytes by cause; the triples each machine trains; the final store's
    /// rows and optimizer state.
    fn training(&mut self, run: &str, kg: &KnowledgeGraph, split: &Split, cfg: &TrainConfig) {
        let (report, store) = train_with_store(kg, &split.train, &[], cfg);
        self.digest.report(&report);
        for e in &report.epochs {
            let at = |field: &str| format!("epoch{}.{field}", e.epoch);
            self.bits(run, at("loss"), e.loss);
            self.bits(run, at("critical_path_s"), e.epoch_secs());
            self.bits(run, at("comm_lane_s"), e.comm_secs);
            self.bits(run, at("compute_lane_s"), e.compute_secs);
            let t = e.traffic;
            self.row(run, at("remote_messages"), t.remote_messages);
            self.row(run, at("local_messages"), t.local_messages);
            self.row(run, at("remote_bytes"), t.remote_bytes);
            self.row(run, at("local_bytes"), t.local_bytes);
        }
        let by_cause = report.total_traffic().by_cause;
        for cause in Cause::ALL {
            let bytes = by_cause.get(cause).remote;
            if bytes > 0 {
                self.row(run, format!("remote_bytes.{}", cause.name()), bytes);
            }
        }
        let homes = MetisLike::new(cfg.seed)
            .partition(kg, cfg.machines)
            .split_triples(&split.train);
        for (machine, triples) in homes.iter().enumerate() {
            self.row(run, format!("machine{machine}.triples"), triples.len());
        }
        let mut digest = Fnv::default();
        store.for_each_row_with_state(|key, row, state| {
            digest.word(u64::from(key.0 as u32));
            row.iter()
                .chain(state)
                .for_each(|v| digest.word(u64::from(v.to_bits())));
        });
        self.row(run, "store", digest.hex());
    }

    /// Per epoch the loss; the oracle's verdict; the report (wall clock
    /// aside) and the bytes `hetkg train --out` writes, as digests.
    fn faulty(&mut self, run: &str, kg: &KnowledgeGraph, split: &Split, cfg: &TrainConfig) {
        let (verdict, store) = oracle::shadow_check_with_store(kg, &split.train, cfg);
        self.digest.report(&verdict.report);
        for e in &verdict.report.epochs {
            self.bits(run, format!("epoch{}.loss", e.epoch), e.loss);
        }
        let pass = verdict.within_bound && verdict.staleness_ok;
        self.row(run, "oracle", if pass { "PASS" } else { "FAIL" });
        self.bits(run, "oracle.max_divergence", verdict.max_divergence);
        let (mut report, mut bytes) = (Fnv::default(), Fnv::default());
        report.report(&verdict.report);
        self.row(run, "report", report.hex());
        let ck = checkpoint(&store, kg.key_space()).to_bytes_checked();
        bytes.bytes(&ck.expect("a harness-sized checkpoint encodes"));
        self.row(run, "checkpoint", bytes.hex());
    }
}

/// The ledger. `ctx` is not read: the runs are fixed.
pub fn ledger(_ctx: ExpCtx) -> ExperimentRecord {
    let mut ledger = Ledger::default();
    for (name, system, entities, entity_alpha, int8) in WORKLOADS {
        for seed in [7, 8] {
            // The benchmark's `--quick` shrinks the graph twentyfold.
            let (kg, split) = bench_graph(entities / 20, entity_alpha, seed);
            let mut cfg = bench_config(system, 128, 512, 2, seed);
            if int8 {
                cfg.compression = CompressionMode::Int8;
            }
            ledger.training(&format!("{name}/{seed}"), &kg, &split, &cfg);
        }
    }
    for seed in [7, 8] {
        let (kg, split) = bench_graph(20_000, 1.0, seed);
        for (system, name) in [(HetKgDps, "dps"), (HetKgCps, "cps")] {
            let mut cfg = bench_config(system, 32, 64, 2, seed);
            cfg.cache.staleness = 1;
            ledger.training(&format!("hetkg-p1/{name}/{seed}"), &kg, &split, &cfg);
        }
    }
    for seed in [11, 23, 47] {
        let kg = Dataset::Fb15k.build(false, seed);
        let split = Split::ninety_five_five(&kg, seed);
        for run in FAULT_RUNS {
            // `hetkg train`'s configuration of these flags.
            let (preset, flag) = run.split_once(' ').unwrap_or((run, ""));
            let mut cfg = TrainConfig::small(HetKgDps);
            (cfg.dim, cfg.epochs, cfg.machines, cfg.seed) = (64, 3, 4, seed);
            cfg.faults = FaultPlan::preset(preset, seed);
            match flag {
                "--integrity off" => cfg.integrity = false,
                "--max-restarts 0" => cfg.supervisor.max_restarts = 0,
                "--replication 2" => cfg.replication = 2,
                _ => {}
            }
            ledger.faulty(&format!("fb15k-faults/{run}/{seed}"), &kg, &split, &cfg);
        }
    }
    ExperimentRecord {
        id: "ledger".into(),
        title: "Behaviour ledger: fixed runs, bit for bit".into(),
        params: "the benchmark's training workloads at --quick scale, seeds 7 and 8 | \
                 hetkg-p1: HET-KG-D and HET-KG-C at P = 1, d=32, batch 64, seeds 7 and 8 | \
                 fb15k-faults: hetkg train --synthetic fb15k --epochs 3 --oracle on, seeds 11, \
                 23 and 47 | floats as hex bits, counts decimal, digests FNV-1a"
            .into(),
        columns: ["run", "field", "value"].map(String::from).to_vec(),
        rows: ledger.rows,
        shape_expectation: "no row moves unless a change means to move what is trained, \
                            sent or simulated; one that does commits the rerun and names \
                            the rows that moved"
            .into(),
        digest: ledger.digest.hex(),
    }
}
