//! §IV-C as an enforced invariant: no hot-table read is staler than `P`
//! (than eight sync periods, `8·P`, while a fault plan lets syncs skip
//! unhealthy shards).
//!
//! The enforcement lives in the program: every cached row remembers the
//! iteration it was last confirmed current at (received, or found to still
//! match the server's version), every hot-table read `debug_assert!`s its
//! age against the bound, and the sync path `debug_assert!`s that a row the
//! shard declined to send is bit-equal to the cached copy. This test is the
//! sweep that drives those assertions — CPS and DPS × every fault profile
//! the CLI offers (plus windows placed at t = 0 so they bite on a graph
//! this small) × P ∈ {1, 4, 8} — and checks the reported maximum against
//! the same bound from outside (the only half left in a release build,
//! where debug assertions are compiled out).
//!
//! The bound has a write side since hot rows are written back once per sync
//! window: a gradient applied to a cached row waits in the table's
//! write-back arena for the push before the next sync, the next DPS rebuild
//! or the epoch's end — at most `P − 1` iterations, `debug_assert!`ed at
//! every write-back — and `HotEmbeddingTable::retain` panics if a rebuild
//! finds a row still holding one. The sweep drives those too, with a `D`
//! that is a multiple of neither `P`, so windows are cut short by rebuilds
//! and by epoch ends, through the profiles that crash and restart workers
//! from a checkpoint; what it can check from outside is that every row
//! that left a table is accounted for and that the bytes say so.
//! (`hetkg_train`'s own tests hold the write-back against the
//! write-through reference, which only they can build.)

use het_kg::netsim::OverloadWindow;
use het_kg::prelude::*;

fn workload() -> (KnowledgeGraph, Vec<Triple>) {
    let kg = SyntheticKg {
        num_entities: 300,
        num_relations: 12,
        num_triples: 2_000,
        ..Default::default()
    }
    .build(7);
    let split = Split::ninety_five_five(&kg, 7);
    (kg, split.train)
}

/// The CLI's `--fault-profile` presets, by name, with what each needs
/// switched on to bite (`hetkg train` defaults the same way).
fn profiles(seed: u64) -> Vec<(&'static str, Option<FaultPlan>)> {
    // An outage and a flash crowd that start with the run: the presets'
    // windows open tens of simulated milliseconds in, later than this
    // workload runs.
    let early_outage = FaultPlan::shard_outage(seed, 1, 0.0, 0.004);
    // The flash crowd of the CLI's `overload` preset, opened 0.1 ms sooner.
    // Whether its brownout outlasts a sync at P = 4 turns on where the
    // window opens among the workers' iterations: scanned at P = 4, both
    // systems read past P with it opening at 0.15–0.2, 0.4–0.45 or 0.6 ms,
    // and not at 0.1, 0.25–0.35, 0.5 or 0.7 ms.
    let mut overload = FaultPlan::overload(seed);
    overload.overloads[0].start = 0.0004;
    let early_overload = FaultPlan {
        seed,
        overloads: vec![OverloadWindow {
            shard: 1,
            start: 0.0,
            end: 0.004,
            queue_capacity: 0,
            drain_rate: 1.0,
            latency_per_inflight: 0.0,
        }],
        ..FaultPlan::default()
    };
    vec![
        ("none", None),
        ("inert", Some(FaultPlan::default())),
        ("lossy", Some(FaultPlan::lossy(seed, 0.02))),
        ("corrupt", Some(FaultPlan::corrupting(seed, 0.01))),
        (
            "outage",
            Some(FaultPlan::shard_outage(seed, 1, 0.050, 0.150)),
        ),
        ("overload", Some(overload)),
        ("chaos", Some(FaultPlan::chaos(seed))),
        ("failover", Some(FaultPlan::failover(seed))),
        ("early-outage", Some(early_outage)),
        ("early-overload", Some(early_overload)),
    ]
}

#[test]
fn no_cached_read_is_staler_than_the_bound_under_any_profile() {
    let (kg, train_set) = workload();
    let (mut degraded_somewhere, mut restarted_somewhere) = (false, false);
    for system in [SystemKind::HetKgCps, SystemKind::HetKgDps] {
        for (name, plan) in profiles(11) {
            for p in [1usize, 4, 8] {
                let mut cfg = TrainConfig::small(system);
                cfg.epochs = 2;
                cfg.eval_candidates = None;
                cfg.cache.staleness = p;
                cfg.cache.prefetch_depth = 6;
                cfg.faults = plan.clone();
                if matches!(name, "failover" | "chaos") {
                    cfg.replication = 2;
                }
                let report = train(&kg, &train_set, &[], &cfg);
                let bound = if plan.is_some() { 8 * p } else { p };
                let what = format!("{system} / {name} / P = {p}");
                assert_eq!(report.epochs.len(), 2, "{what}: the run finished");
                assert!(
                    report.max_staleness() <= bound,
                    "{what}: a cached row was read {} iterations stale, bound {bound}",
                    report.max_staleness()
                );
                // The flash crowd's brownout at P = 1 and 4 reads rows
                // staler than P: the degraded bound is exercised, not only
                // met.
                if name == "overload" && p < 8 {
                    assert!(
                        report.max_staleness() > p,
                        "{what}: no row was read past P ({})",
                        report.max_staleness()
                    );
                }
                assert!(
                    report.total_cache().hits > 0,
                    "{what}: nothing was read from the cache"
                );
                if let Some(fr) = &report.faults {
                    degraded_somewhere |= fr.degraded_hits + fr.brownout_stale_serves > 0;
                }
                // Retransmissions are booked under their cause like first
                // attempts, so the split adds up under faults too.
                let by_cause = report.total_traffic().by_cause;
                assert_eq!(
                    by_cause.total().remote,
                    report.total_traffic().remote_bytes,
                    "{what}: causes add up"
                );
                // The write side. Rows left the tables' arenas, each with at
                // least the one gradient that put it there; with P = 1 with
                // exactly one, as a plain gradient row, so nothing is booked
                // as written back (unless a backlog summed what it deferred,
                // and replayed it the same way); with a window to coalesce
                // over, some rows collected several and went out with an
                // energy.
                let table = report.total_table();
                assert!(table.written_back_rows > 0, "{what}: {table:?}");
                let written_back = by_cause.write_back.remote + by_cause.write_back.local;
                if p == 1 {
                    assert_eq!(table.coalesced_grads, table.written_back_rows, "{what}");
                    let deferred = report.faults.as_ref().map_or(0, |fr| fr.deferred_pushes);
                    assert!(written_back == 0 || deferred > 0, "{what}: {by_cause:?}");
                } else {
                    assert!(table.coalescing_factor() > 1.0, "{what}: {table:?}");
                    assert!(table.mean_rho() > 0.0, "{what}: {table:?}");
                    assert!(written_back > 0, "{what}: {by_cause:?}");
                }
                restarted_somewhere |= report.supervisor.as_ref().is_some_and(|s| s.restarts > 0);
            }
        }
    }
    assert!(
        degraded_somewhere,
        "no profile ever served a stale hit: the degraded bound was never exercised"
    );
    assert!(
        restarted_somewhere,
        "no profile ever restarted its workers from a checkpoint"
    );
}

/// The pipeline stages sync iterations like any other: the batch is drawn
/// and probed an iteration ahead, its hits are read at consume time from
/// the pre-sync table, and the table's pull-if-newer goes out right after.
/// So a hit read at a sync iteration is exactly `P` old — the read-path
/// assertion holds with equality — and the refresh lands before the next
/// read, which would otherwise be `P + 1` old. With `P` = 1 every staged
/// iteration is a sync iteration.
#[test]
fn staged_sync_iterations_read_exactly_p_old_and_sync_before_the_next_read() {
    let (kg, train_set) = workload();
    for system in [SystemKind::HetKgCps, SystemKind::HetKgDps] {
        for p in [1usize, 4, 8] {
            let mut cfg = TrainConfig::small(system);
            cfg.epochs = 2;
            cfg.eval_candidates = None;
            cfg.cache.staleness = p;
            cfg.cache.prefetch_depth = 8;
            let pipe = train(&kg, &train_set, &[], &cfg);
            // What is written back, and when, does not depend on the
            // schedule either.
            let written_back = |r: &TrainReport| {
                let t = r.total_table();
                (t.written_back_rows, t.coalesced_grads)
            };
            cfg.overlap = false;
            let seq = train(&kg, &train_set, &[], &cfg);
            let what = format!("{system} / P = {p}");
            assert!(
                pipe.total_table().staged_early > 0 && pipe.total_overlap_secs() > 0.0,
                "{what}: nothing was staged"
            );
            assert_eq!(pipe.max_staleness(), p, "{what}: pipelined");
            assert_eq!(seq.max_staleness(), p, "{what}: sequential");
            // The same reads saw the same rows, and the syncs asked about
            // and received the same bytes.
            assert_eq!(pipe.total_cache(), seq.total_cache(), "{what}");
            assert_eq!(written_back(&pipe), written_back(&seq), "{what}");
            assert_eq!(
                pipe.total_traffic().by_cause,
                seq.total_traffic().by_cause,
                "{what}"
            );
            for (a, b) in pipe.epochs.iter().zip(&seq.epochs) {
                assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "{what}: loss");
                assert_eq!(
                    a.max_divergence.to_bits(),
                    b.max_divergence.to_bits(),
                    "{what}: what the syncs measured"
                );
            }
        }
    }
}
