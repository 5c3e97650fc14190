//! Integration tests for overload protection: the retry budget, per-shard
//! circuit breakers, and the HET-KG cache brownout under a flash crowd.
//!
//! Protection has no switch: a plan with an overload window arms it, and
//! nothing else does. Three contracts matter. First, *protection armed but
//! idle is free*: a run whose overload window never opens must be
//! bit-identical to the same run under a fault-free plan — the shared state
//! only moves when an overload verdict fires. Second, a flash-crowd plan,
//! the CLI's preset or any other, must *complete and stay inside the
//! staleness envelope* while actually exercising the machinery: sheds,
//! denied retries, at least one full Open→HalfOpen→Closed breaker cycle,
//! and brownout stale serves. Third, *only an overload window arms it*: a
//! straggler episode slow enough to trip an armed breaker trips nothing
//! without one.

use het_kg::netsim::SlowEpisode;
use het_kg::prelude::*;
use het_kg::train_sys::oracle;
use het_kg::train_sys::report::TrainReport;

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

/// `plan` with the CLI preset's overload window moved past any run's end:
/// it arms protection and never opens.
fn with_idle_window(mut plan: FaultPlan) -> FaultPlan {
    let mut window = FaultPlan::overload(plan.seed).overloads[0];
    window.start = 1e9;
    window.end = 2e9;
    plan.overloads.push(window);
    plan
}

#[test]
fn armed_overload_protection_is_invisible_without_faults() {
    let (kg, train_set) = workload();
    for system in [SystemKind::HetKgCps, SystemKind::DglKe] {
        let mut plain = TrainConfig::small(system);
        plain.epochs = 3;
        plain.eval_candidates = None;
        plain.faults = Some(FaultPlan::default());
        // A plan with a window is not inert, so it runs sequentially.
        plain.overlap = false;

        let mut armed = plain.clone();
        armed.faults = Some(with_idle_window(FaultPlan::default()));

        let a = train(&kg, &train_set, &[], &plain);
        let b = train(&kg, &train_set, &[], &armed);

        assert_eq!(
            a.total_traffic(),
            b.total_traffic(),
            "{system}: armed protection changed metered traffic"
        );
        for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(
                ea.loss.to_bits(),
                eb.loss.to_bits(),
                "{system}: epoch {} loss diverged with protection armed",
                ea.epoch
            );
            assert_eq!(ea.traffic, eb.traffic);
            assert_eq!(ea.cache.hits, eb.cache.hits);
            assert_eq!(ea.cache.misses, eb.cache.misses);
        }
        let fr = b.faults.expect("plan attached, report expected");
        assert!(
            fr.is_quiet(),
            "{system}: idle budget/breakers raised counters: {fr:?}"
        );
    }
}

#[test]
fn flash_crowd_browns_out_and_recovers_across_seeds() {
    let (kg, train_set) = workload();
    for seed in [11u64, 23, 47] {
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 3;
        cfg.eval_candidates = None;
        cfg.seed = seed;
        cfg.faults = Some(FaultPlan::overload(seed));

        let verdict = oracle::shadow_check(&kg, &train_set, &cfg);
        let report = &verdict.report;
        assert_eq!(
            report.epochs.len(),
            cfg.epochs,
            "seed {seed}: every epoch completed despite the flash crowd"
        );
        let fr = report.faults.as_ref().expect("fault plan attached");
        assert!(
            fr.overload_sheds > 0,
            "seed {seed}: the saturated shard never shed: {fr:?}"
        );
        assert!(
            fr.retries_denied > 0,
            "seed {seed}: the budget never ran dry: {fr:?}"
        );
        assert!(
            fr.breaker_opens >= 1 && fr.breaker_half_opens >= 1 && fr.breaker_closes >= 1,
            "seed {seed}: no full Open->HalfOpen->Closed cycle: {fr:?}"
        );
        assert!(
            fr.breaker_closes <= fr.breaker_half_opens && fr.breaker_half_opens <= fr.breaker_opens,
            "seed {seed}: breaker transition counts out of order: {fr:?}"
        );
        assert!(
            fr.brownout_stale_serves > 0,
            "seed {seed}: the cache never served stale under the open breaker: {fr:?}"
        );
        assert!(
            fr.brownout_secs > 0.0,
            "seed {seed}: closed breaker cycles must account brownout time"
        );
        assert_eq!(
            fr.degraded_hits, 0,
            "seed {seed}: no outage in the plan, outage hits must stay zero"
        );
        verdict.assert_ok();
    }
}

#[test]
fn an_overload_window_in_a_plan_file_arms_protection() {
    // A plan file of its own, not the CLI's preset: a crowd on shard 0
    // that drains twice as slowly. Nothing else asks for protection.
    let plan: FaultPlan = serde_json::from_str(
        r#"{"seed": 5, "overloads": [{"shard": 0, "start": 0.001, "end": 0.006,
            "queue_capacity": 1, "drain_rate": 1000.0, "latency_per_inflight": 0.0001}]}"#,
    )
    .unwrap();
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.faults = Some(plan);
    let report = train(&kg, &train_set, &[], &cfg);
    let fr = report.faults.expect("fault plan attached");
    assert!(fr.overload_sheds > 0, "the crowd never shed: {fr:?}");
    assert!(fr.retries_denied > 0, "no budget denied a retry: {fr:?}");
    assert!(
        fr.breaker_opens >= 1 && fr.breaker_half_opens >= 1 && fr.breaker_closes >= 1,
        "no full Open->HalfOpen->Closed cycle: {fr:?}"
    );
}

#[test]
fn a_straggler_without_an_overload_window_trips_no_breaker() {
    // Every remote delivery takes eight times the cost model: an armed
    // breaker's latency EWMA reads that as a drowning shard.
    let straggler = FaultPlan {
        seed: 3,
        slow_episodes: vec![SlowEpisode {
            start: 0.0,
            end: 1e9,
            latency_factor: 8.0,
        }],
        ..FaultPlan::default()
    };
    let (kg, train_set) = workload();
    let run = |plan: FaultPlan| {
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 2;
        cfg.eval_candidates = None;
        cfg.faults = Some(plan);
        train(&kg, &train_set, &[], &cfg)
            .faults
            .expect("fault plan attached")
    };
    let armed = run(with_idle_window(straggler.clone()));
    assert!(
        armed.breaker_opens > 0 && armed.breaker_fast_fails > 0,
        "the straggler must be steep enough to trip an armed breaker: {armed:?}"
    );
    let plain = run(straggler);
    assert!(plain.slow_messages > 0);
    assert_eq!(
        (
            plain.breaker_opens,
            plain.breaker_half_opens,
            plain.breaker_closes,
            plain.breaker_fast_fails,
        ),
        (0, 0, 0, 0),
        "no overload window, no breaker: {plain:?}"
    );
}

#[test]
fn overload_runs_are_reproducible() {
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.faults = Some(FaultPlan::overload(23));

    let a = train(&kg, &train_set, &[], &cfg);
    let b = train(&kg, &train_set, &[], &cfg);
    assert_eq!(a.total_traffic(), b.total_traffic());
    assert_eq!(a.faults, b.faults);
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.loss.to_bits(), eb.loss.to_bits());
    }
}

#[test]
fn pre_overload_report_fixture_still_deserializes() {
    // A TrainReport serialized before the overload counters existed (the
    // checked-in fixture) must keep loading, with every new field at its
    // zero default and every old field intact.
    let raw = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_overload_report.json"
    ))
    .expect("fixture present");
    let report: TrainReport = serde_json::from_str(&raw).expect("pre-overload report loads");
    assert_eq!(report.system, "HET-KG-C");
    assert_eq!(report.epochs.len(), 1);
    assert_eq!(report.epochs[0].max_staleness, 4);
    // The fixture's traffic object predates the split by cause too: it
    // loads, and the split reads all zero.
    assert_eq!(report.total_traffic().by_cause, Default::default());
    // And the hot-table economy, which it predates as well.
    assert_eq!(report.total_table(), Default::default());
    let fr = report.faults.expect("fixture carries a fault report");
    assert_eq!(fr.drops, 17);
    assert_eq!(fr.retransmitted_bytes, 43_520);
    assert_eq!(fr.degraded_hits, 88);
    assert_eq!(fr.hedged_losses, 4);
    assert_eq!(fr.overload_sheds, 0);
    assert_eq!(fr.overload_throttled, 0);
    assert_eq!(fr.overload_extra_secs, 0.0);
    assert_eq!(fr.retries_denied, 0);
    assert_eq!(fr.breaker_fast_fails, 0);
    assert_eq!(fr.brownout_stale_serves, 0);
    assert_eq!(fr.shed_pushes, 0);
    assert_eq!(fr.breaker_opens, 0);
    assert_eq!(fr.breaker_half_opens, 0);
    assert_eq!(fr.breaker_closes, 0);
    assert_eq!(fr.brownout_secs, 0.0);
}
