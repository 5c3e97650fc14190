//! Differential tests for the fault-injection subsystem: attaching a
//! zero-fault [`FaultPlan`] must be a pure observer. Traffic, losses, and
//! cache behaviour have to be byte-identical to a run with no plan at all —
//! the injection hooks may meter, but never perturb.

use het_kg::prelude::*;

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

#[test]
fn zero_fault_plan_is_invisible_on_every_system() {
    let (kg, train_set) = workload();
    for system in [
        SystemKind::DglKe,
        SystemKind::HetKgCps,
        SystemKind::HetKgDps,
        SystemKind::Pbg,
    ] {
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 3;
        cfg.eval_candidates = None;
        let baseline = train(&kg, &train_set, &[], &cfg);
        assert!(
            baseline.faults.is_none(),
            "{system}: fault-free run must carry no report"
        );

        let mut shadowed_cfg = cfg.clone();
        shadowed_cfg.faults = Some(FaultPlan::default());
        let shadowed = train(&kg, &train_set, &[], &shadowed_cfg);

        assert_eq!(
            baseline.total_traffic(),
            shadowed.total_traffic(),
            "{system}: zero-fault plan changed traffic"
        );
        assert_eq!(baseline.epochs.len(), shadowed.epochs.len());
        for (b, s) in baseline.epochs.iter().zip(&shadowed.epochs) {
            assert_eq!(
                b.loss.to_bits(),
                s.loss.to_bits(),
                "{system}: epoch {} loss diverged under a zero-fault plan",
                b.epoch
            );
            assert_eq!(
                b.traffic, s.traffic,
                "{system}: epoch {} traffic diverged",
                b.epoch
            );
            assert_eq!(
                b.cache.hits, s.cache.hits,
                "{system}: epoch {} cache hits",
                b.epoch
            );
            assert_eq!(
                b.cache.misses, s.cache.misses,
                "{system}: epoch {} misses",
                b.epoch
            );
        }

        let fr = shadowed.faults.expect("plan attached, report expected");
        assert!(
            fr.is_quiet(),
            "{system}: zero-fault plan raised counters: {fr:?}"
        );
    }
}

#[test]
fn checksums_are_free_when_nothing_is_corrupt() {
    // Integrity on vs off over a clean (zero-corruption) network must be
    // byte-identical in every observable: the checksum rides in a fixed-size
    // header the meter already accounts for, verification is pure
    // arithmetic, and no draw is taken from any injector RNG. "Integrity is
    // free when clean" is what makes default-on defensible.
    let (kg, train_set) = workload();
    for system in [
        SystemKind::DglKe,
        SystemKind::HetKgCps,
        SystemKind::HetKgDps,
        SystemKind::Pbg,
    ] {
        let mut on = TrainConfig::small(system);
        on.epochs = 3;
        on.eval_candidates = None;
        on.faults = Some(FaultPlan::lossy(23, 0.05));
        on.integrity = true;
        let mut off = on.clone();
        off.integrity = false;

        let a = train(&kg, &train_set, &[], &on);
        let b = train(&kg, &train_set, &[], &off);

        assert_eq!(
            a.total_traffic(),
            b.total_traffic(),
            "{system}: checksum verification changed metered traffic"
        );
        assert_eq!(a.faults, b.faults, "{system}: fault accounting diverged");
        assert_eq!(
            a.total_secs().to_bits(),
            b.total_secs().to_bits(),
            "{system}: simulated time diverged"
        );
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                ea.loss.to_bits(),
                eb.loss.to_bits(),
                "{system}: epoch {} loss diverged with checksums off",
                ea.epoch
            );
        }
    }
}

#[test]
fn faulty_runs_are_reproducible() {
    // Same seed + same plan = the same faults, byte for byte. The injector's
    // RNG is private per worker, so thread scheduling cannot leak in.
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
    cfg.epochs = 3;
    cfg.eval_candidates = None;
    cfg.faults = Some(FaultPlan::lossy(23, 0.05));

    let a = train(&kg, &train_set, &[], &cfg);
    let b = train(&kg, &train_set, &[], &cfg);

    assert_eq!(a.total_traffic(), b.total_traffic());
    assert_eq!(a.faults, b.faults);
    let fr = a.faults.unwrap();
    assert!(
        fr.drops > 0,
        "5% loss over three epochs must drop something"
    );
    assert_eq!(
        fr.retries, fr.drops,
        "every drop costs exactly one retry here"
    );
    assert!(fr.retransmitted_bytes > 0);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
    }
}

#[test]
fn lossy_network_costs_time_but_not_convergence() {
    // Retries retransmit the same payload, so the model sees identical
    // gradients; only the simulated clock (backoff + resends) gets worse.
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 3;
    cfg.eval_candidates = None;
    // The schedule a perturbing plan forces: the pipelined one splits some
    // pulls into two messages, which is not what this test prices.
    cfg.overlap = false;
    let clean = train(&kg, &train_set, &[], &cfg);

    let mut lossy_cfg = cfg.clone();
    lossy_cfg.faults = Some(FaultPlan::lossy(23, 0.05));
    let lossy = train(&kg, &train_set, &[], &lossy_cfg);

    for (c, l) in clean.epochs.iter().zip(&lossy.epochs) {
        assert_eq!(
            c.loss.to_bits(),
            l.loss.to_bits(),
            "drops are retried transparently; training math must not change"
        );
    }
    assert!(
        lossy.total_comm_secs() > clean.total_comm_secs(),
        "retransmissions and backoff must show up in simulated time"
    );
    assert!(lossy.total_secs() > clean.total_secs());
}

#[test]
fn waits_are_in_epoch_time() {
    // A perturbing plan runs the sequential schedule, timed on the same
    // worker timelines as a clean sequential run of the same config; what
    // the faults made the workers wait is on their comm lanes, so the run
    // reports more time than the clean one, never the same or less.
    let (kg, train_set) = workload();
    for system in [
        SystemKind::DglKe,
        SystemKind::HetKgCps,
        SystemKind::HetKgDps,
        SystemKind::Pbg,
    ] {
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 3;
        cfg.eval_candidates = None;
        cfg.overlap = false;
        let clean = train(&kg, &train_set, &[], &cfg);
        // Shard 1 down over the run's second fifth.
        let t = clean.total_secs();
        let plans = [
            ("lossy", FaultPlan::lossy(23, 0.05)),
            ("outage", FaultPlan::shard_outage(23, 1, 0.2 * t, 0.4 * t)),
        ];
        for (name, plan) in plans {
            let mut faulty_cfg = cfg.clone();
            faulty_cfg.faults = Some(plan);
            let faulty = train(&kg, &train_set, &[], &faulty_cfg);
            let fr = faulty.faults.expect("plan attached");
            assert!(fr.backoff_secs > 0.0, "{system} {name}: nothing waited");
            assert!(
                faulty.total_secs() > clean.total_secs(),
                "{system} {name}: {} s, the clean run {} s",
                faulty.total_secs(),
                clean.total_secs()
            );
        }
    }
}
