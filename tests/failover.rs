//! Integration tests for PS replication and primary/backup failover.
//!
//! Two contracts matter here. First, replication *off is free and on is
//! invisible*: a fault-free run at `k = 2` must produce bit-identical
//! losses, stores, and worker-lane traffic to the same run at `k = 1`,
//! with the extra backup shipping metered only on the dedicated
//! replication lane. Second, a chaos plan that permanently kills a
//! primary shard mid-training must *complete without a checkpoint
//! restart*: the first worker to hit the dead primary promotes a backup
//! (after anti-entropy catch-up) and the run rides through, staying
//! inside the divergence oracle's staleness envelope.

use het_kg::netsim::TrafficSnapshot;
use het_kg::prelude::*;
use het_kg::train_sys::oracle;
use het_kg::train_sys::trainer;

fn workload() -> (KnowledgeGraph, Vec<Triple>) {
    let kg = SyntheticKg {
        num_entities: 200,
        num_relations: 12,
        num_triples: 1_500,
        ..Default::default()
    }
    .build(7);
    let split = Split::ninety_five_five(&kg, 7);
    (kg, split.train)
}

/// Zero the replication lane of a snapshot, leaving the worker lanes.
fn worker_lanes(t: TrafficSnapshot) -> TrafficSnapshot {
    TrafficSnapshot {
        replication_bytes: 0,
        replication_messages: 0,
        ..t
    }
}

#[test]
fn fault_free_replication_is_bit_identical_on_the_worker_lanes() {
    let (kg, train_set) = workload();
    for system in [SystemKind::DglKe, SystemKind::HetKgCps] {
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 3;
        cfg.eval_candidates = None;
        let (off, off_store) = trainer::train_with_store(&kg, &train_set, &[], &cfg);

        let mut rep_cfg = cfg.clone();
        rep_cfg.replication = 2;
        let (on, on_store) = trainer::train_with_store(&kg, &train_set, &[], &rep_cfg);

        assert_eq!(off.epochs.len(), on.epochs.len());
        for (a, b) in off.epochs.iter().zip(&on.epochs) {
            assert_eq!(
                a.loss.to_bits(),
                b.loss.to_bits(),
                "{system}: epoch {} loss changed under replication",
                a.epoch
            );
            assert_eq!(
                worker_lanes(a.traffic),
                worker_lanes(b.traffic),
                "{system}: epoch {} worker-lane traffic changed",
                a.epoch
            );
        }
        let off_traffic = off.total_traffic();
        let on_traffic = on.total_traffic();
        assert_eq!(
            off_traffic.replication_bytes, 0,
            "{system}: k=1 ships nothing"
        );
        assert_eq!(off_traffic.replication_messages, 0);
        assert!(
            on_traffic.replication_bytes > 0,
            "{system}: k=2 must ship replication batches"
        );
        assert_eq!(
            off_traffic.total_bytes(),
            on_traffic.total_bytes(),
            "{system}: replication is excluded from worker byte totals"
        );

        // The primaries end up bit-identical: replication only copies
        // post-update state, never changes it.
        let ks = kg.key_space();
        let a = trainer::snapshot(&off_store, ks);
        let b = trainer::snapshot(&on_store, ks);
        assert_eq!(a.entities, b.entities, "{system}: entity tables diverged");
        assert_eq!(
            a.relations, b.relations,
            "{system}: relation tables diverged"
        );
    }
}

#[test]
fn killed_primary_fails_over_and_completes_across_seeds() {
    let (kg, train_set) = workload();
    for seed in [11u64, 23, 47] {
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 3;
        cfg.eval_candidates = None;
        cfg.seed = seed;
        cfg.replication = 2;
        cfg.faults = Some(FaultPlan::failover(seed));

        let verdict = oracle::shadow_check(&kg, &train_set, &cfg);
        let report = &verdict.report;
        assert_eq!(
            report.epochs.len(),
            cfg.epochs,
            "seed {seed}: every epoch completed despite the dead primary"
        );
        let fr = report.faults.as_ref().expect("fault plan attached");
        assert!(
            fr.promotions >= 1,
            "seed {seed}: the kill must trigger a promotion"
        );
        assert_eq!(
            fr.recoveries, 0,
            "seed {seed}: failover rides through without restart-from-checkpoint"
        );
        assert_eq!(
            fr.hedged_wins + fr.hedged_losses,
            fr.hedged_pulls,
            "seed {seed}: every hedge resolves to a win or a loss"
        );
        let sup = report.supervisor.as_ref().expect("supervised run");
        assert_eq!(
            sup.promotions, fr.promotions,
            "seed {seed}: supervisor and injectors agree on promotions"
        );
        assert!(
            sup.events.iter().any(|e| matches!(
                e,
                het_kg::train_sys::supervisor::SupervisorEvent::PrimaryPromoted { .. }
            )),
            "seed {seed}: promotion event recorded"
        );
        verdict.assert_ok();
    }
}

#[test]
fn failover_runs_are_reproducible() {
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.replication = 2;
    cfg.faults = Some(FaultPlan::failover(23));

    let a = train(&kg, &train_set, &[], &cfg);
    let b = train(&kg, &train_set, &[], &cfg);
    assert_eq!(a.total_traffic(), b.total_traffic());
    assert_eq!(a.faults, b.faults);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
    }
    assert!(a.faults.unwrap().promotions >= 1);
}

#[test]
fn chaos_shard_kill_is_masked_without_replication() {
    // `FaultPlan::chaos` now schedules a shard kill, but at k = 1 there is
    // no backup to promote, so the kill stays masked and chaos behaves as
    // it always did — crash recovery and all.
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 3;
    cfg.eval_candidates = None;
    cfg.faults = Some(FaultPlan::chaos(23));

    let report = train(&kg, &train_set, &[], &cfg);
    assert_eq!(report.epochs.len(), cfg.epochs, "chaos still completes");
    let fr = report.faults.expect("fault plan attached");
    assert_eq!(fr.promotions, 0, "no liveness table, no failover");
    assert_eq!(fr.hedged_pulls, 0, "no backups, no hedging");
    assert!(fr.recoveries >= 1, "the scheduled crash still recovers");
    assert_eq!(report.total_traffic().replication_bytes, 0);
}
