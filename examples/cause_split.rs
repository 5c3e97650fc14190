//! Where one of the benchmark's training workloads' remote bytes go: bytes
//! per trained triple by cause, and the hot table's economy.
//!
//! `benchmark/` prints `remote_bytes_per_triple` but not its split, and it
//! may not be edited to; this trains the same configuration (over the
//! simulated backend, whose bytes `train-uds-flat`'s sockets are held equal
//! to) and prints the split. `scripts/exact.sh` runs it at two commits side
//! by side — copying this file into a checkout that predates it, which is
//! why it reads the report through names every commit since the split
//! existed has (`Cause::ALL`, and the table as JSON).
//!
//! The configuration below is a hand copy of `benchmark/src/train.rs`'s, so
//! the `same` lines print, with every bit, two values the benchmark run of
//! the same workload and seed prints too; `exact.sh` flags a side where the
//! two disagree, which is how a drift between the copies shows.
//!
//! ```sh
//! cargo run --release --example cause_split -- train-hetkg-skew 7 [--quick]
//! ```

use het_kg::netsim::{Cause, CompressionMode};
use het_kg::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage =
        "usage: cause_split <train-hetkg-skew|train-dglke-skew|train-uds-flat> <seed> [--quick]";
    let (workload, seed) = match (
        args.first(),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) {
        (Some(w), Some(seed)) => (w.as_str(), seed),
        _ => panic!("{usage}"),
    };
    // `--quick` is the benchmark's: the same graph at a twentieth.
    let scale = if args.iter().any(|a| a == "--quick") {
        20
    } else {
        1
    };
    let (system, entities, entity_alpha, int8) = match workload {
        "train-hetkg-skew" => (SystemKind::HetKgDps, 200_000, 1.0, false),
        "train-dglke-skew" => (SystemKind::DglKe, 200_000, 1.0, false),
        "train-uds-flat" => (SystemKind::HetKgCps, 100_000, 0.0, true),
        _ => panic!("{usage}"),
    };
    let kg = SyntheticKg {
        num_entities: entities / scale,
        num_relations: 200,
        num_triples: 4 * entities / scale,
        entity_alpha,
        relation_alpha: 1.1,
        ..Default::default()
    }
    .build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    let mut cfg = TrainConfig::paper(system, ModelKind::TransEL2, 128);
    cfg.batch_size = 512;
    cfg.machines = 4;
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.seed = seed;
    if int8 {
        cfg.compression = CompressionMode::Int8;
    }
    let report = train(&kg, &split.train, &[], &cfg);
    let triples = (cfg.epochs * split.train.len()) as f64;
    let traffic = report.total_traffic();
    let final_loss = report.epochs.last().expect("trained an epoch").loss;
    println!("same final_loss {final_loss}");
    println!(
        "same remote_bytes_per_triple {}",
        traffic.remote_bytes as f64 / triples
    );
    println!("cause total {:.2}", traffic.remote_bytes as f64 / triples);
    for cause in Cause::ALL {
        let bytes = traffic.by_cause.get(cause).remote;
        if bytes > 0 {
            println!("cause {} {:.2}", cause.name(), bytes as f64 / triples);
        }
    }
    let table = serde_json::to_string(&report.total_table()).expect("plain counters");
    println!("table {table}");
}
