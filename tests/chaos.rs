//! Chaos end-to-end: a lossy network, a straggler episode, a shard outage,
//! and a mid-run worker crash — all in one plan, against every system. The
//! run must complete all epochs, recover from the crash via checkpoints,
//! and still produce embeddings that rank better than chance.

use het_kg::prelude::*;

fn workload() -> (KnowledgeGraph, Split) {
    let kg = SyntheticKg {
        num_entities: 200,
        num_relations: 12,
        num_triples: 1_500,
        ..Default::default()
    }
    .build(7);
    let split = Split::ninety_five_five(&kg, 7);
    (kg, split)
}

/// Everything at once, sized for the tiny test workload: the outage and the
/// straggler window start at t = 0 so they overlap the first pulls no matter
/// how fast the simulated run is.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed,
        drop_probability: 0.08,
        slow_episodes: vec![SlowEpisode {
            start: 0.0,
            end: 0.005,
            latency_factor: 4.0,
        }],
        outages: vec![OutageWindow {
            shard: 1,
            start: 0.0,
            end: 0.030,
        }],
        crash: Some(CrashPoint { epoch: 2 }),
        ..FaultPlan::default()
    }
}

#[test]
fn every_system_survives_the_chaos_profile() {
    let (kg, split) = workload();
    let eval: Vec<Triple> = split.valid.iter().copied().take(30).collect();
    for system in [SystemKind::DglKe, SystemKind::HetKgCps, SystemKind::Pbg] {
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 5;
        cfg.eval_candidates = Some(100);
        cfg.faults = Some(chaos_plan(9));
        let report = train(&kg, &split.train, &eval, &cfg);

        assert_eq!(
            report.epochs.len(),
            5,
            "{system}: crash recovery must finish the run"
        );
        for (i, e) in report.epochs.iter().enumerate() {
            assert_eq!(
                e.epoch, i,
                "{system}: epoch reports out of order after recovery"
            );
        }

        let fr = report.faults.expect("fault plan attached, report expected");
        assert!(
            fr.drops > 0,
            "{system}: an 8% lossy link must drop messages: {fr:?}"
        );
        assert!(fr.retries > 0, "{system}: drops must be retried");
        assert!(
            fr.retransmitted_bytes > 0,
            "{system}: retries must be metered"
        );
        assert!(
            fr.outage_refusals > 0,
            "{system}: shard 1 was down from t=0: {fr:?}"
        );
        assert!(
            fr.backoff_secs > 0.0,
            "{system}: retries and waits cost simulated time"
        );
        assert_eq!(
            fr.recoveries, 1,
            "{system}: exactly one crash was scheduled"
        );
        assert!(
            fr.checkpoints >= 1,
            "{system}: recovery requires checkpoints"
        );

        let m = report.final_metrics.as_ref().expect("eval set supplied");
        assert!(
            m.mrr() > 0.05,
            "{system}: MRR {} under chaos not better than chance",
            m.mrr()
        );
    }
}

#[test]
fn chaos_barely_moves_hetkg_quality() {
    // Drops are retried transparently and the crash resumes from a recovery
    // checkpoint, so chaos costs simulated time — not model quality.
    let (kg, split) = workload();
    let eval: Vec<Triple> = split.valid.iter().copied().take(30).collect();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 5;
    cfg.eval_candidates = Some(100);
    // The schedule a perturbing plan forces: the pipelined one splits some
    // pulls into two messages, which is not what this test prices.
    cfg.overlap = false;
    let clean = train(&kg, &split.train, &eval, &cfg);

    let mut chaos_cfg = cfg.clone();
    chaos_cfg.faults = Some(chaos_plan(9));
    let chaos = train(&kg, &split.train, &eval, &chaos_cfg);

    let clean_mrr = clean.final_metrics.as_ref().unwrap().mrr();
    let chaos_mrr = chaos.final_metrics.as_ref().unwrap().mrr();
    assert!(
        (clean_mrr - chaos_mrr).abs() < 0.25,
        "chaos MRR {chaos_mrr:.3} drifted too far from fault-free {clean_mrr:.3}"
    );
    assert!(
        chaos.total_comm_secs() > clean.total_comm_secs(),
        "retransmissions must cost simulated network time (chaos {:.4}s vs clean {:.4}s)",
        chaos.total_comm_secs(),
        clean.total_comm_secs()
    );
}
