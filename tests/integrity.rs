//! End-to-end integrity drills: seeded corruption against the full
//! training stack, with the wire-frame checksums as the only line of
//! defence; torn checkpoint writes against the crash-recovery path; and
//! the supervisor's restart budget as the last backstop.

use het_kg::prelude::*;
use het_kg::train_sys::oracle::shadow_check;

fn workload() -> (KnowledgeGraph, Vec<Triple>) {
    let kg = SyntheticKg {
        num_entities: 150,
        num_relations: 10,
        num_triples: 900,
        ..Default::default()
    }
    .build(11);
    let split = Split::ninety_five_five(&kg, 11);
    (kg, split.train)
}

#[test]
fn seeded_corruption_leaves_zero_poisoned_entries() {
    // The headline acceptance drill: a corrupting network, checksums on.
    // Every flipped frame must be detected and re-pulled, the run must
    // complete, and the final embeddings must be bit-identical to a clean
    // run — zero poisoned table entries.
    let (kg, train_set) = workload();
    for system in [SystemKind::DglKe, SystemKind::HetKgDps] {
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 2;
        cfg.eval_candidates = None;
        // The tiny workload only sends ~60 remote frames; 8% keeps the
        // drill deterministic-with-injections at this seed.
        cfg.faults = Some(FaultPlan::corrupting(31, 0.08));
        let verdict = shadow_check(&kg, &train_set, &cfg);

        assert_eq!(
            verdict.report.epochs.len(),
            2,
            "{system}: run did not complete"
        );
        let fr = verdict.report.faults.as_ref().unwrap();
        assert!(fr.corrupt_frames > 0, "{system}: plan injected nothing");
        assert_eq!(
            fr.corrupt_detected, fr.corrupt_frames,
            "{system}: a flip went unnoticed"
        );
        assert_eq!(fr.corrupt_ingested, 0, "{system}: poison was ingested");
        assert!(
            verdict.exact,
            "{system}: corruption under checksums is value-preserving"
        );
        assert_eq!(
            verdict.max_divergence, 0.0,
            "{system}: poisoned entries diverged from the clean reference"
        );
        verdict.assert_ok();
    }
}

#[test]
fn without_checksums_the_same_corruption_poisons_the_run() {
    // The control arm: identical plan, integrity off. The garbage lands in
    // the tables and the divergence oracle flags the run as inexact with
    // nonzero drift.
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::DglKe);
    cfg.epochs = 2;
    cfg.eval_candidates = None;
    cfg.integrity = false;
    cfg.faults = Some(FaultPlan::corrupting(31, 0.1));
    let verdict = shadow_check(&kg, &train_set, &cfg);

    let fr = verdict.report.faults.as_ref().unwrap();
    assert!(fr.corrupt_ingested > 0, "nothing stopped the poison");
    assert_eq!(fr.corrupt_detected, 0, "verification was off");
    assert!(!verdict.exact);
    assert!(
        verdict.max_divergence > 0.0,
        "silent corruption must leave a trace"
    );
}

#[test]
fn torn_checkpoint_write_recovers_to_the_previous_valid_one() {
    // Crash at epoch 2 with the newest on-disk checkpoint deliberately
    // truncated mid-write: recovery must skip it, restore the previous
    // valid image, and finish all epochs — no panic, no lost run.
    let dir = std::env::temp_dir().join(format!("hetkg-integrity-torn-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 4;
    cfg.eval_candidates = None;
    cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
    cfg.faults = Some(FaultPlan {
        seed: 5,
        crashes: vec![CrashPoint { epoch: 2 }],
        torn_checkpoint: Some(2),
        ..FaultPlan::default()
    });
    let report = train(&kg, &train_set, &[], &cfg);

    assert_eq!(
        report.epochs.len(),
        4,
        "run must finish despite the torn write"
    );
    let fr = report.faults.as_ref().unwrap();
    assert_eq!(fr.recoveries, 1);
    let sup = report
        .supervisor
        .as_ref()
        .expect("fault plans are supervised");
    assert_eq!(
        sup.torn_checkpoints_skipped, 1,
        "the torn image must be skipped, not trusted"
    );
    assert!(!sup.gave_up);
    assert!(
        dir.join("manifest.txt").exists(),
        "disk store keeps a manifest"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_restart_budget_abandons_the_run_gracefully() {
    let (kg, train_set) = workload();
    let mut cfg = TrainConfig::small(SystemKind::DglKe);
    cfg.epochs = 3;
    cfg.eval_candidates = None;
    cfg.supervisor.max_restarts = 0;
    cfg.faults = Some(FaultPlan {
        seed: 5,
        crashes: vec![CrashPoint { epoch: 1 }],
        ..FaultPlan::default()
    });
    let report = train(&kg, &train_set, &[], &cfg);

    assert!(
        report.epochs.len() < 3,
        "a zero-restart budget cannot finish this run"
    );
    let sup = report.supervisor.as_ref().unwrap();
    assert!(sup.gave_up);
    assert_eq!(report.faults.as_ref().unwrap().recoveries, 0);
}
