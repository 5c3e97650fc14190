//! Integration tests for overload protection: the retry budget, per-shard
//! circuit breakers, and the HET-KG cache brownout under a flash crowd.
//!
//! Three contracts matter. First, *protection armed but idle is free*: a
//! zero-fault run with the budget and breakers enabled must be bit-identical
//! to the same run without them — the shared state only moves when an
//! overload verdict fires. Second, a flash-crowd plan must *complete and
//! stay inside the staleness envelope* while actually exercising the
//! machinery: sheds, denied retries, at least one full
//! Open→HalfOpen→Closed breaker cycle, and brownout stale serves. Third,
//! the budget must *pay for itself*: the same flash crowd with the budget
//! disabled retransmits strictly more bytes (the classic retry storm).

use het_kg::prelude::*;
use het_kg::ps::{BreakerConfig, RetryBudgetConfig};
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

#[test]
fn armed_overload_protection_is_invisible_without_faults() {
    let (kg, train_set) = workload();
    for system in [SystemKind::HetKgCps, SystemKind::DglKe] {
        let mut plain = TrainConfig::small(system);
        plain.epochs = 3;
        plain.eval_candidates = None;
        plain.faults = Some(FaultPlan::default());

        let mut armed = plain.clone();
        armed.retry_budget = Some(RetryBudgetConfig::default());
        armed.breaker = Some(BreakerConfig::default());

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
        cfg.retry_budget = Some(RetryBudgetConfig::default());
        cfg.breaker = Some(BreakerConfig::default());

        let verdict = oracle::shadow_check(&kg, &train_set, &cfg, oracle::OracleConfig::default());
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
fn retry_budget_cuts_retransmitted_bytes_versus_the_storm() {
    // Breakers off in both arms so the comparison isolates the budget:
    // identical plan, identical workload — the only difference is whether
    // a dry bucket may refuse the retry.
    let (kg, train_set) = workload();
    let mut with_budget = TrainConfig::small(SystemKind::HetKgCps);
    with_budget.epochs = 3;
    with_budget.eval_candidates = None;
    with_budget.faults = Some(FaultPlan::overload(23));
    with_budget.retry_budget = Some(RetryBudgetConfig::default());

    let mut storm = with_budget.clone();
    storm.retry_budget = None;

    let a = train(&kg, &train_set, &[], &with_budget);
    let b = train(&kg, &train_set, &[], &storm);
    let fa = a.faults.expect("plan attached");
    let fb = b.faults.expect("plan attached");
    assert!(
        fa.retries_denied > 0,
        "the budget must actually deny something: {fa:?}"
    );
    assert_eq!(fb.retries_denied, 0, "no budget, nothing to deny");
    assert!(
        fa.retransmitted_bytes < fb.retransmitted_bytes,
        "the budget must cut retransmitted bytes: {} (budget) vs {} (storm)",
        fa.retransmitted_bytes,
        fb.retransmitted_bytes
    );
    assert!(
        fa.retries < fb.retries,
        "denied retries must show up as fewer retransmissions"
    );
}

#[test]
fn overload_runs_are_reproducible() {
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.faults = Some(FaultPlan::overload(23));
    cfg.retry_budget = Some(RetryBudgetConfig::default());
    cfg.breaker = Some(BreakerConfig::default());

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
