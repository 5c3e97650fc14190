//! Differential tests for the pipelined timeline: pipelining must change
//! *when* simulated time is spent, never *what* is measured.
//!
//! Three contracts, each checked across systems, seeds, and fault settings:
//!
//! 1. `--no-overlap` (config `overlap = false`) runs the sequential
//!    schedule and times it on the same per-worker timeline: every epoch
//!    has a non-zero critical path, equal for each worker to its compute
//!    lane's busy time plus its comm lane's — on one worker, the report's
//!    compute and comm seconds summed; on several, between the larger of
//!    the two and their sum. Under a lossy plan the waits are on the comm
//!    lane too, so the critical path is no less.
//! 2. Turning overlap on leaves losses, cache counters, compute seconds and
//!    bytes — per lane, per cause — bit-identical. Messages may only grow,
//!    by at most one per shard per staged iteration for the pull split (a
//!    shard holding keys of both halves of a split pull is sent two
//!    frames) and one more for the push split (a shard holding rows of
//!    both parts of the push in front of a staged batch — those its
//!    consume-time request reads, and the rest — is sent two frames), and
//!    communication seconds move by those messages' modelled cost alone.
//!    Beyond that only the epoch's critical path (the schedule) changes:
//!    for the three parameter-server systems some communication hides
//!    behind compute. Whether the pipelined epoch is the shorter one is
//!    not asserted — the split's extra messages can cost more than it hides.
//! 3. A perturbing fault plan disables the pipeline outright (fault
//!    verdicts depend on message order), so faulty reports are bit-equal
//!    with overlap on or off; an all-zero (inert) plan keeps it enabled.
//!
//! And one consequence of DPS admission for the schedule itself: within a
//! prefetched window every staged miss pull goes out an iteration early.

use het_kg::netsim::TrafficSnapshot;
use het_kg::prelude::*;

const SEEDS: [u64; 2] = [7, 19];

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::HetKgCps,
    SystemKind::HetKgDps,
    SystemKind::DglKe,
    SystemKind::Pbg,
];

/// Sparse workload: many entities relative to the batch size, so that
/// consecutive mini-batches share few keys and most of a staged pull can
/// move early (the strict overlap assertions below need some of it to);
/// the bit-identity assertions hold on any workload.
fn workload(seed: u64) -> (KnowledgeGraph, Vec<Triple>) {
    let kg = SyntheticKg {
        num_entities: 2_000,
        num_relations: 12,
        num_triples: 1_500,
        ..Default::default()
    }
    .build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    (kg, split.train)
}

fn config(system: SystemKind, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::small(system);
    cfg.epochs = 3;
    cfg.batch_size = 8;
    cfg.eval_candidates = None;
    cfg.seed = seed;
    cfg
}

#[test]
fn no_overlap_reproduces_the_sequential_accounting() {
    for seed in SEEDS {
        let (kg, train_set) = workload(seed);
        for system in SYSTEMS {
            // One machine (local traffic, which never drops), then two
            // without and with a lossy network.
            for (machines, lossy) in [(1, false), (2, false), (2, true)] {
                let mut cfg = config(system, seed);
                cfg.overlap = false;
                cfg.machines = machines;
                cfg.faults = lossy.then(|| FaultPlan::lossy(seed, 0.05));
                let report = train(&kg, &train_set, &[], &cfg);
                for e in &report.epochs {
                    let at = format!("{system} seed {seed} {machines} machines epoch {}", e.epoch);
                    let cp = e.critical_path_secs;
                    let (longer, sum) = (
                        e.compute_secs.max(e.comm_secs),
                        e.compute_secs + e.comm_secs,
                    );
                    assert_eq!(e.epoch_secs().to_bits(), cp.to_bits(), "{at}");
                    assert!(cp > 0.0, "{at}: the sequential run was not timed");
                    assert!(
                        cp + 1e-9 >= longer,
                        "{at}: {cp} s below a lane's {longer} s"
                    );
                    if machines == 1 {
                        assert!(
                            (cp - sum).abs() <= 1e-9,
                            "{at}: {cp} s, but the one worker's lanes sum to {sum} s"
                        );
                    } else if !lossy {
                        assert!(cp <= sum + 1e-9, "{at}: {cp} s above the lanes' {sum} s");
                    }
                }
            }
        }
    }
}

#[test]
fn overlap_changes_the_schedule_but_not_the_measurements() {
    for seed in SEEDS {
        let (kg, train_set) = workload(seed);
        for system in SYSTEMS {
            let mut seq_cfg = config(system, seed);
            seq_cfg.overlap = false;
            let seq = train(&kg, &train_set, &[], &seq_cfg);

            let pipe_cfg = config(system, seed); // overlap defaults on
            let pipe = train(&kg, &train_set, &[], &pipe_cfg);

            // A worker stages every iteration of an epoch but the first,
            // and its iterations are ceil(subgraph / batch): summed over
            // workers that is at most train / batch staged iterations, each
            // of which may send its own shard and every other one a second
            // frame for the pull and another for the push.
            let staged = (train_set.len() / pipe_cfg.batch_size) as u64;
            let others = (pipe_cfg.machines - 1) as u64;
            let cost = pipe_cfg.cost_model;
            assert_eq!(seq.epochs.len(), pipe.epochs.len());
            for (a, b) in seq.epochs.iter().zip(&pipe.epochs) {
                let at = format!("{system} seed {seed} epoch {}", a.epoch);
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{at}: loss");
                assert_eq!(a.cache, b.cache, "{at}: cache counters");
                assert_eq!(
                    a.compute_secs.to_bits(),
                    b.compute_secs.to_bits(),
                    "{at}: compute"
                );
                // Traffic, field by field: every byte where it was.
                let (ta, tb) = (a.traffic, b.traffic);
                let bytes_of = |t: TrafficSnapshot| TrafficSnapshot {
                    local_messages: 0,
                    remote_messages: 0,
                    push_messages: 0,
                    ..t
                };
                assert_eq!(bytes_of(ta), bytes_of(tb), "{at}: bytes moved");
                // Messages only grow, within the bound.
                assert!(tb.local_messages >= ta.local_messages, "{at}");
                assert!(tb.remote_messages >= ta.remote_messages, "{at}");
                assert!(tb.push_messages >= ta.push_messages, "{at}");
                let extra_local = tb.local_messages - ta.local_messages;
                let extra_remote = tb.remote_messages - ta.remote_messages;
                assert!(
                    extra_local <= 2 * staged && extra_remote <= 2 * staged * others,
                    "{at}: {extra_local} local / {extra_remote} remote extra messages \
                     over {staged} staged iterations"
                );
                if system == SystemKind::Pbg {
                    assert_eq!(extra_local + extra_remote, 0, "{at}: PBG stages nothing");
                }
                // Communication seconds are the slowest worker's, so they
                // move by no more than every extra message at its modelled
                // cost, and never down.
                let extra_cost =
                    cost.remote_time(0, extra_remote) + cost.local_time(0, extra_local);
                assert!(
                    b.comm_secs >= a.comm_secs && b.comm_secs <= a.comm_secs + extra_cost + 1e-12,
                    "{at}: comm {} s sequential, {} s pipelined, extra messages cost {extra_cost} s",
                    a.comm_secs,
                    b.comm_secs
                );
                // The pipelined epoch time is a real two-lane schedule:
                // bounded below by either lane, above by their sum. Which
                // schedule is faster is not asserted.
                assert!(b.critical_path_secs + 1e-9 >= b.compute_secs.max(b.comm_secs));
                assert!(b.critical_path_secs <= b.compute_secs + b.comm_secs + 1e-9);
            }
            // The parameter-server systems must actually hide communication:
            // a staged key goes out early unless the batch in flight writes
            // it, so early pulls land behind compute and the total drops
            // strictly below the sequential compute + comm sum.
            if system != SystemKind::Pbg {
                assert!(
                    pipe.total_overlap_secs() > 0.0,
                    "{system} seed {seed}: pipeline hid no communication"
                );
                assert!(
                    pipe.total_secs() < pipe.total_compute_secs() + pipe.total_comm_secs(),
                    "{system} seed {seed}: total {} not below sequential sum {}",
                    pipe.total_secs(),
                    pipe.total_compute_secs() + pipe.total_comm_secs()
                );
                let table = pipe.total_table();
                assert!(table.staged_early > 0, "{system} seed {seed}: {table:?}");
            }
        }
    }
}

/// DPS admission has a structural consequence for the pipeline, pinned here
/// on `tests/traffic_shape.rs`'s graph (the benchmark's skewed pair at a
/// tenth of its scale). A key that two batches of a prefetched window read
/// is cached unless the window's selection filled the table, so in a
/// window with room a staged batch's misses are keys no other batch of its
/// window reads, the batch in flight included. `StagedPull::stage`
/// therefore finds no shard whose frame the in-flight push could
/// invalidate: the staged miss pull goes out whole, one iteration early,
/// and nothing is left for consume time. `TableEconomy::staged_late_with_room`
/// counts the late keys of windows with room, and it reads 0. Only a
/// window whose twice-read keys outnumber the capacity can leave out a key
/// the batch in flight reads; the tables here are mostly far from full
/// (mean occupancy 0.90), but at seed 7 one worker has a few such windows.
/// Communication paces this regime, so with the stageable pulls ahead of
/// their compute the compute lane hides completely.
#[test]
fn dps_miss_pulls_are_all_issued_an_iteration_early() {
    for seed in [7u64, 8] {
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
        let mut cfg = TrainConfig::paper(SystemKind::HetKgDps, ModelKind::TransEL2, 32);
        cfg.batch_size = 64;
        cfg.machines = 4;
        cfg.epochs = 1;
        cfg.eval_candidates = None;
        cfg.seed = seed;
        let report = train(&kg, &split.train, &[], &cfg);
        let table = report.total_table();
        assert!(
            table.occupancy() < 0.95,
            "seed {seed}: capacity binds ({table:?}); the claim below needs room for \
             every twice-read key"
        );
        assert!(table.staged_early > 0, "seed {seed}: nothing was staged");
        assert_eq!(
            table.staged_late_with_room, 0,
            "seed {seed}: a window with room staged a miss the batch in flight reads ({table:?})"
        );
        // Ranking by raw uses hid 0.0276 s of this run's 0.0335 s of
        // compute. What may stay exposed now is an epoch's last iteration
        // when it is a sync iteration, which is never staged.
        let (overlap, compute) = (report.total_overlap_secs(), report.total_compute_secs());
        assert!(
            overlap >= 0.99 * compute,
            "seed {seed}: {overlap} s of {compute} s of compute hidden"
        );
    }
}

#[test]
fn perturbing_fault_plans_disable_the_pipeline() {
    let seed = SEEDS[0];
    let (kg, train_set) = workload(seed);
    for system in SYSTEMS {
        let mut on = config(system, seed);
        on.faults = Some(FaultPlan::lossy(seed, 0.05));
        debug_assert!(on.overlap);
        let mut off = on.clone();
        off.overlap = false;

        let a = train(&kg, &train_set, &[], &on);
        let b = train(&kg, &train_set, &[], &off);

        assert_eq!(a.total_traffic(), b.total_traffic());
        assert_eq!(a.faults, b.faults, "{system}: fault accounting diverged");
        assert_eq!(
            a.total_table().staged_early + a.total_table().staged_late,
            0,
            "{system}: a batch was staged under a perturbing fault plan"
        );
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
            assert_eq!(
                ea.critical_path_secs.to_bits(),
                eb.critical_path_secs.to_bits(),
                "{system}: a perturbing plan must force the sequential schedule"
            );
        }
    }
}

#[test]
fn inert_fault_plans_keep_the_pipeline() {
    // An all-zero plan is a pure observer (see fault_differential.rs); it
    // must not cost the pipeline either.
    let seed = SEEDS[1];
    let (kg, train_set) = workload(seed);
    let mut cfg = config(SystemKind::HetKgCps, seed);
    cfg.faults = Some(FaultPlan::default());
    let report = train(&kg, &train_set, &[], &cfg);
    assert!(
        report.total_overlap_secs() > 0.0,
        "an inert plan must not disable overlap"
    );
    let fr = report.faults.expect("plan attached");
    assert!(fr.is_quiet());
}
