//! Differential tests for the pipelined timeline: overlap accounting must
//! change *when* simulated time is spent, never *what* is measured.
//!
//! Three contracts, each checked across systems, seeds, and fault settings:
//!
//! 1. `--no-overlap` (config `overlap = false`) reproduces the pre-timeline
//!    sequential accounting bit for bit: zero critical path, epoch time
//!    `max(compute, comm)`.
//! 2. Turning overlap on leaves every measurement — losses, traffic,
//!    compute and communication seconds — bit-identical; only the epoch's
//!    critical path (the schedule) changes, and for the cache-enabled
//!    HET-KG systems it drops strictly below the sequential sum.
//! 3. A perturbing fault plan disables the pipeline outright (fault
//!    verdicts depend on message order), so faulty reports are bit-equal
//!    with overlap on or off; an all-zero (inert) plan keeps it enabled.
//!
//! And one consequence of DPS admission for the schedule itself: within a
//! prefetched window every staged miss pull goes out an iteration early.

use het_kg::prelude::*;

const SEEDS: [u64; 2] = [7, 19];

const SYSTEMS: [SystemKind; 4] = [
    SystemKind::HetKgCps,
    SystemKind::HetKgDps,
    SystemKind::DglKe,
    SystemKind::Pbg,
];

/// Sparse workload: many entities relative to the batch size, so that
/// consecutive mini-batches frequently leave whole PS shards untouched.
/// That is the regime where pipelining can move pulls early (the strict
/// overlap assertions below need it); the bit-identity assertions hold on
/// any workload.
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
            for faults in [None, Some(FaultPlan::lossy(seed, 0.05))] {
                let mut cfg = config(system, seed);
                cfg.overlap = false;
                cfg.faults = faults.clone();
                let report = train(&kg, &train_set, &[], &cfg);
                for e in &report.epochs {
                    assert_eq!(
                        e.critical_path_secs, 0.0,
                        "{system} seed {seed}: sequential run touched the timeline"
                    );
                    assert_eq!(e.overlap_secs, 0.0);
                    assert_eq!(
                        e.epoch_secs().to_bits(),
                        e.compute_secs.max(e.comm_secs).to_bits(),
                        "{system} seed {seed}: epoch {} time is not the idealized max",
                        e.epoch
                    );
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

            assert_eq!(
                seq.total_traffic(),
                pipe.total_traffic(),
                "{system} seed {seed}: pipelining changed metered traffic"
            );
            assert_eq!(seq.epochs.len(), pipe.epochs.len());
            for (a, b) in seq.epochs.iter().zip(&pipe.epochs) {
                assert_eq!(
                    a.loss.to_bits(),
                    b.loss.to_bits(),
                    "{system} seed {seed}: epoch {} loss diverged under pipelining",
                    a.epoch
                );
                assert_eq!(a.traffic, b.traffic);
                assert_eq!(a.compute_secs.to_bits(), b.compute_secs.to_bits());
                assert_eq!(a.comm_secs.to_bits(), b.comm_secs.to_bits());
                assert_eq!(a.cache.hits, b.cache.hits);
                assert_eq!(a.cache.misses, b.cache.misses);
                // The pipelined epoch time is a real two-lane schedule:
                // bounded below by either lane, above by their sum.
                assert!(b.critical_path_secs >= b.compute_secs.max(b.comm_secs));
                assert!(b.critical_path_secs <= b.compute_secs + b.comm_secs + 1e-9);
                assert!(b.epoch_secs() >= a.epoch_secs());
            }
            // The cache-enabled systems must actually hide communication:
            // consecutive sparse batches leave whole shards untouched, so
            // early pulls land behind compute and the total drops strictly
            // below the sequential compute + comm sum.
            if matches!(system, SystemKind::HetKgCps | SystemKind::HetKgDps) {
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
            }
        }
    }
}

/// DPS admission has a structural consequence for the pipeline, pinned here
/// on `tests/traffic_shape.rs`'s graph (the benchmark's skewed pair at a
/// tenth of its scale). A key that two batches of a prefetched window read
/// is cached — when capacity does not bind, which it does not here — so a
/// staged batch's misses are keys no other batch of its window reads, the
/// batch in flight included. `StagedPull::stage` therefore finds no shard
/// whose frame the in-flight push could invalidate: every staged miss pull
/// goes out whole, one iteration early, and nothing is left for consume
/// time. Communication paces this regime, so with every stageable pull
/// ahead of its compute the compute lane hides completely.
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
            table.staged_late, 0,
            "seed {seed}: a staged miss was also read by the batch in flight ({table:?})"
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
            a.total_secs().to_bits(),
            b.total_secs().to_bits(),
            "{system}: a perturbing plan must force the sequential schedule"
        );
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
            assert_eq!(
                ea.critical_path_secs, 0.0,
                "{system}: overlap ran under a perturbing fault plan"
            );
            assert_eq!(eb.critical_path_secs, 0.0);
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
