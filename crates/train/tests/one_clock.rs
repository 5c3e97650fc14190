//! One clock per worker. A worker's fault injector keeps its own simulated
//! clock — compute, each message's transit, and every wait a fault costs —
//! to place the plan's windows and judge verdicts. The worker's timeline is
//! the clock epochs are reported in. A run under a perturbing plan runs the
//! sequential schedule, and its timeline's comm posts carry the injector's
//! waits, so the two clocks must agree: each epoch's timeline span equals
//! the injector clock's advance over it, to 1e-9 s. PBG posts its own
//! dependency chain and may overlap a little, so its span is at most that.
//! Replication is off: a replica's shipping is metered but not charged to
//! the injector's clock.

use hetkg_core::filter::FilterConfig;
use hetkg_core::policy::{CachePolicy, PolicyKind};
use hetkg_core::sync::SyncConfig;
use hetkg_embed::init::Init;
use hetkg_embed::loss::LossKind;
use hetkg_embed::negative::{NegConfig, NegativeSampler};
use hetkg_embed::ModelKind;
use hetkg_kgraph::generator::SyntheticKg;
use hetkg_kgraph::KnowledgeGraph;
use hetkg_netsim::{ClusterTopology, CostModel, FaultInjector, FaultPlan, TrafficMeter};
use hetkg_ps::optimizer::AdaGrad;
use hetkg_ps::{KvStore, OverloadControl, PsClient, ShardRouter};
use hetkg_train::systems::dglke::DglKeWorker;
use hetkg_train::systems::hetkg::HetKgWorker;
use hetkg_train::systems::pbg::{LockServer, PbgPlan, PbgWorker};
use hetkg_train::worker::{WorkerCtx, WorkerLoop};
use std::sync::Arc;

const DIM: usize = 16;
const BATCH: usize = 32;
const SHARDS: usize = 2;
const EPOCHS: usize = 3;

fn graph() -> KnowledgeGraph {
    SyntheticKg {
        num_entities: 1_000,
        num_relations: 12,
        num_triples: 2_000,
        ..Default::default()
    }
    .build(13)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum System {
    DglKe,
    HetKgC,
    HetKgD,
    Pbg,
}

/// Worker 0 of a two-machine cluster, in the sequential schedule, with
/// `plan`'s injector attached — and the run's overload control when the
/// plan arms one, as the trainer wires it.
fn worker(
    system: System,
    g: &KnowledgeGraph,
    plan: &FaultPlan,
) -> (Box<dyn WorkerLoop>, Arc<FaultInjector>) {
    let ks = g.key_space();
    let cost = CostModel::gigabit();
    let store = Arc::new(KvStore::new(
        ShardRouter::round_robin(ks, SHARDS),
        DIM,
        DIM,
        1,
        Init::Uniform { bound: 0.2 },
        5,
    ));
    let meter = Arc::new(TrafficMeter::new());
    let faults = Arc::new(FaultInjector::new(plan.clone(), cost, 0));
    let topology = ClusterTopology::new(SHARDS, 1);
    let mut client = PsClient::new(0, topology, store, meter.clone()).with_faults(faults.clone());
    if let Some(control) = OverloadControl::for_plan(plan, SHARDS) {
        client = client.with_overload(Arc::new(control));
    }
    let ctx = WorkerCtx::new(
        0,
        g.triples().to_vec(),
        ks,
        client,
        meter,
        ModelKind::TransEL2.build(DIM).into(),
        LossKind::Logistic,
        Arc::new(AdaGrad::new(0.1)),
        BATCH,
    )
    .with_timing(cost, false);
    let negatives = NegativeSampler::new(g.num_entities(), NegConfig::default(), 9);
    let cache = |kind| CachePolicy {
        kind,
        filter: FilterConfig::paper_default(ks.len() / 50),
        prefetch_depth: 16,
    };
    let w: Box<dyn WorkerLoop> = match system {
        System::DglKe => Box::new(DglKeWorker::new(ctx, negatives, 1)),
        System::HetKgC | System::HetKgD => {
            let kind = if system == System::HetKgC {
                PolicyKind::Cps
            } else {
                PolicyKind::Dps
            };
            let sync = SyncConfig::new(8);
            Box::new(HetKgWorker::new(ctx, cache(kind), sync, negatives, 1))
        }
        System::Pbg => {
            let per_positive = NegConfig::default().per_positive;
            let plan = Arc::new(PbgPlan::new(
                g.num_entities(),
                g.triples(),
                2,
                per_positive,
                1,
            ));
            let locks = Arc::new(LockServer::new(plan.clone()));
            Box::new(PbgWorker::new(ctx, plan, locks, 1, 0.1))
        }
    };
    (w, faults)
}

/// `plan` with every window stretched by `k`: the CLI's presets sized for
/// a run of `k` times this test's simulated length.
fn scaled(mut plan: FaultPlan, k: f64) -> FaultPlan {
    for w in &mut plan.outages {
        (w.start, w.end) = (w.start * k, w.end * k);
    }
    for w in &mut plan.slow_episodes {
        (w.start, w.end) = (w.start * k, w.end * k);
    }
    for w in &mut plan.overloads {
        (w.start, w.end) = (w.start * k, w.end * k);
    }
    for kill in &mut plan.kills {
        kill.at *= k;
    }
    plan
}

/// Per epoch: the timeline's span and the injector clock's advance, and
/// what the injector made the worker wait over the run.
fn clocks(system: System, g: &KnowledgeGraph, plan: &FaultPlan) -> (Vec<(f64, f64)>, f64) {
    let (mut w, faults) = worker(system, g, plan);
    let epochs = (0..EPOCHS)
        .map(|e| {
            let start = faults.now();
            let span = w.run_epoch(e).critical_path_secs;
            (span, faults.now() - start)
        })
        .collect();
    (epochs, faults.waited())
}

#[test]
fn the_timeline_and_the_fault_clock_measure_the_same_run() {
    let g = graph();
    for system in [System::DglKe, System::HetKgC, System::HetKgD, System::Pbg] {
        let check = |name: &str, epochs: Vec<(f64, f64)>| {
            for (e, (span, clock)) in epochs.into_iter().enumerate() {
                let at = format!("{system:?} {name} epoch {e}");
                if system == System::Pbg {
                    assert!(span <= clock + 1e-9, "{at}: span {span} s, clock {clock} s");
                } else {
                    assert!(
                        (span - clock).abs() <= 1e-9,
                        "{at}: the timeline spans {span} s, the fault clock advanced {clock} s"
                    );
                }
            }
        };
        // An inert plan: nothing waits, and the clocks already agree.
        let (clean, waited) = clocks(system, &g, &FaultPlan::default());
        assert_eq!(waited, 0.0, "{system:?}: an inert plan waited");
        // The CLI's presets are sized for runs of ~0.3 s of simulated time;
        // put their windows where this run is.
        let k = clean.iter().map(|&(_, clock)| clock).sum::<f64>() / 0.3;
        check("inert", clean);
        let plans = [
            ("lossy", FaultPlan::lossy(11, 0.02)),
            ("outage", FaultPlan::shard_outage(11, 1, 0.05 * k, 0.15 * k)),
            ("overload", scaled(FaultPlan::overload(11), k)),
            ("chaos", scaled(FaultPlan::chaos(11), k)),
        ];
        for (name, plan) in plans {
            let (epochs, waited) = clocks(system, &g, &plan);
            assert!(waited > 0.0, "{system:?} {name}: nothing waited");
            check(name, epochs);
        }
    }
}
