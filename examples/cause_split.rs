//! Where one of the benchmark's training workloads' remote bytes and
//! simulated seconds go: bytes per trained triple by cause, the hot table's
//! economy, and per epoch the critical path beside the two lanes it is
//! scheduled from.
//!
//! `benchmark/` prints `remote_bytes_per_triple` and `sim_epoch_s` but not
//! what they are made of, and it may not be edited to; this trains the same
//! configuration (over the simulated backend, whose bytes `train-uds-flat`'s
//! sockets are held equal to) and prints that. An epoch's seconds are its
//! slowest worker's: `critical_path` is what `sim_epoch_s` averages, and it
//! can come down to `max(comm_lane, compute_lane)` and no further — the gap
//! is compute waiting for rows. Beside the lanes, each epoch's remote and
//! local messages per iteration (all workers' messages over all workers'
//! iterations, as `ps.remote_msgs_per_iter` counts them): what a schedule
//! change costs in frames, next to what it buys on the critical path.
//! Before all that, the training triples each machine holds, as
//! `split_triples` homes them. `scripts/exact.sh` runs it at two commits side by side — copying this
//! file into a checkout that predates it, which is why it reads the report
//! through names every commit since the split existed has (`Cause::ALL`,
//! and the table as JSON).
//!
//! The configuration below is a hand copy of `benchmark/src/train.rs`'s, so
//! the `same` lines print, with every bit, two values the benchmark run of
//! the same workload and seed prints too; `exact.sh` flags a side where the
//! two disagree, which is how a drift between the copies shows.
//!
//! `hetkg-p1` is not one of the benchmark's: HET-KG-D and HET-KG-C with a
//! sync every iteration (`P` = 1) on `tests/traffic_shape.rs`'s graph, over
//! the simulated backend and, with `--uds` (and `HETKG_BIN` naming the
//! `hetkg` binary to spawn shards from), over sockets. With `P` = 1 every
//! push is a window's last and nothing about a schedule can move a value or
//! a byte, so it prints everything exactly — each epoch's loss, bytes and
//! messages per lane, bytes per cause, and a digest of the final store, rows
//! and optimizer state — for `exact.sh` to hold two commits equal on.
//!
//! ```sh
//! cargo run --release --example cause_split -- train-hetkg-skew 7 [--quick]
//! cargo run --release --example cause_split -- hetkg-p1 7 [--uds]
//! ```

use het_kg::netsim::{Cause, CompressionMode};
use het_kg::partition::{MetisLike, Partitioner};
use het_kg::prelude::*;
use het_kg::train_sys::trainer::train_with_store;
use het_kg::train_sys::TransportKind;

/// `hetkg-p1`: every bit a `P` = 1 run's report and final store hold.
fn p1(seed: u64, uds: bool) {
    let kg = SyntheticKg {
        num_entities: 20_000,
        num_relations: 200,
        num_triples: 80_000,
        entity_alpha: 1.0,
        relation_alpha: 1.1,
        ..Default::default()
    }
    .build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    let backend = if uds { "uds" } else { "sim" };
    for (system, name) in [(SystemKind::HetKgDps, "dps"), (SystemKind::HetKgCps, "cps")] {
        let mut cfg = TrainConfig::paper(system, ModelKind::TransEL2, 32);
        cfg.batch_size = 64;
        cfg.machines = 4;
        cfg.epochs = 2;
        cfg.eval_candidates = None;
        cfg.seed = seed;
        cfg.cache.staleness = 1;
        if uds {
            cfg.transport = TransportKind::Uds;
            let bin = std::env::var("HETKG_BIN").expect("--uds needs HETKG_BIN");
            cfg.ps_server_bin = Some(bin);
        }
        let (report, store) = train_with_store(&kg, &split.train, &[], &cfg);
        let t = report.total_traffic();
        let at = format!("p1 {name}_{backend}");
        for e in &report.epochs {
            println!("{at}_loss{} {:016x}", e.epoch, e.loss.to_bits());
        }
        println!("{at}_bytes {}/{}", t.remote_bytes, t.local_bytes);
        println!("{at}_messages {}/{}", t.remote_messages, t.local_messages);
        for cause in Cause::ALL {
            let b = t.by_cause.get(cause);
            if b.remote + b.local > 0 {
                println!("{at}_{} {}/{}", cause.name(), b.remote, b.local);
            }
        }
        // FNV-1a over every key, row and optimizer-state word.
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        store.for_each_row_with_state(|k, row, state| {
            let words = row.iter().chain(state).map(|v| v.to_bits());
            for word in [k.0 as u32].into_iter().chain(words) {
                digest = (digest ^ u64::from(word)).wrapping_mul(0x0100_0000_01b3);
            }
        });
        println!("{at}_store {digest:016x}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = "usage: cause_split <train-hetkg-skew|train-dglke-skew|train-uds-flat> <seed> \
                 [--quick] | cause_split hetkg-p1 <seed> [--uds]";
    let (workload, seed) = match (
        args.first(),
        args.get(1).and_then(|s| s.parse::<u64>().ok()),
    ) {
        (Some(w), Some(seed)) => (w.as_str(), seed),
        _ => panic!("{usage}"),
    };
    if workload == "hetkg-p1" {
        return p1(seed, args.iter().any(|a| a == "--uds"));
    }
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
    println!(
        "same sim_epoch_s {}",
        report.total_secs() / cfg.epochs as f64
    );
    // Iterations per epoch, summed over the workers: each trains its
    // machine's triples in batches (`paper` configurations run one worker
    // per machine). The largest machine's share sets the epoch's length.
    let homes = MetisLike::new(cfg.seed)
        .partition(&kg, cfg.machines)
        .split_triples(&split.train);
    for (machine, triples) in homes.iter().enumerate() {
        println!("split machine{machine}_triples {}", triples.len());
    }
    let iterations: usize = homes.iter().map(|t| t.len().div_ceil(cfg.batch_size)).sum();
    for e in &report.epochs {
        println!("lane epoch{}_critical_path {:.4}", e.epoch, e.epoch_secs());
        println!("lane epoch{}_comm_lane {:.4}", e.epoch, e.comm_secs);
        println!("lane epoch{}_compute_lane {:.4}", e.epoch, e.compute_secs);
        let per_iteration = |messages: u64| messages as f64 / iterations as f64;
        let t = e.traffic;
        println!(
            "msgs epoch{}_remote {:.2}",
            e.epoch,
            per_iteration(t.remote_messages)
        );
        println!(
            "msgs epoch{}_local {:.2}",
            e.epoch,
            per_iteration(t.local_messages)
        );
    }
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
