//! Allocation budget of a steady-state training iteration.
//!
//! The per-iteration data path runs on arenas and reused scratch: a batch
//! is compiled to slots, rows are pulled into and gradients accumulated in
//! flat buffers that keep their capacity. This test counts heap allocations
//! with a counting global allocator and fails when that stops being true —
//! a `Vec` per row, a map per batch or a temporary per triple shows up here
//! as thousands of allocations per iteration, not as a slower benchmark
//! three PRs later.

use hetkg_core::filter::FilterConfig;
use hetkg_core::policy::{CachePolicy, PolicyKind};
use hetkg_core::prefetch::Prefetcher;
use hetkg_core::sync::SyncConfig;
use hetkg_embed::init::Init;
use hetkg_embed::loss::LossKind;
use hetkg_embed::negative::{NegConfig, NegativeSampler};
use hetkg_embed::ModelKind;
use hetkg_kgraph::generator::SyntheticKg;
use hetkg_kgraph::{KnowledgeGraph, ParamKey};
use hetkg_netsim::{ClusterTopology, CostModel, TrafficMeter};
use hetkg_ps::optimizer::AdaGrad;
use hetkg_ps::{KvStore, PsClient, ShardRouter};
use hetkg_train::batch::{compute_batch, BatchScratch, GradAccum, WorkingSet};
use hetkg_train::systems::dglke::DglKeWorker;
use hetkg_train::systems::hetkg::HetKgWorker;
use hetkg_train::worker::{WorkerCtx, WorkerLoop};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocations (`alloc` + `realloc`) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// thread-local `Cell` with a const initializer, so touching it neither
// allocates nor synchronizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

const DIM: usize = 32;
const BATCH: usize = 64;
const SHARDS: usize = 2;

fn graph() -> KnowledgeGraph {
    SyntheticKg {
        num_entities: 3_000,
        num_relations: 12,
        num_triples: 12_000,
        ..Default::default()
    }
    .build(21)
}

fn ctx(g: &KnowledgeGraph, overlap: bool) -> WorkerCtx {
    let ks = g.key_space();
    let optimizer = Arc::new(AdaGrad::new(0.1));
    let store = Arc::new(KvStore::new(
        ShardRouter::round_robin(ks, SHARDS),
        DIM,
        DIM,
        1,
        Init::Uniform { bound: 0.2 },
        5,
    ));
    let meter = Arc::new(TrafficMeter::new());
    let client = PsClient::new(0, ClusterTopology::new(SHARDS, 1), store, meter.clone());
    WorkerCtx::new(
        0,
        g.triples().to_vec(),
        ks,
        client,
        meter,
        ModelKind::TransEL2.build(DIM).into(),
        LossKind::Logistic,
        optimizer,
        BATCH,
    )
    .with_timing(CostModel::gigabit(), overlap)
}

fn negatives(g: &KnowledgeGraph) -> NegativeSampler {
    // The paper default: 8 per positive, chunks of 32.
    NegativeSampler::new(g.num_entities(), NegConfig::default(), 9)
}

/// Per-step allocation counts of `steps` iterations after `warm_up`.
fn step_allocs(w: &mut dyn WorkerLoop, warm_up: usize, steps: usize) -> Vec<u64> {
    w.begin_epoch(0);
    for _ in 0..warm_up {
        assert!(w.step());
    }
    (0..steps)
        .map(|_| {
            let (more, n) = allocs_in(|| w.step());
            assert!(more, "the epoch is long enough for the measurement");
            n
        })
        .collect()
}

// Everything below is seeded, so the counts repeat exactly from run to run.
#[test]
fn steady_state_iterations_stay_inside_their_allocation_budget() {
    let g = graph();
    let ks = g.key_space();

    // --- The kernel itself: zero, through either entry point. ---
    let model = ModelKind::TransEL2.build(DIM);
    let mut neg = negatives(&g);
    let mut pf = Prefetcher::new(BATCH, ks, 3);
    let batches = pf.prefetch(g.triples(), &mut neg, 3).batches;
    let mut ws = WorkingSet::new();
    for k in (0..ks.len() as u64).map(ParamKey) {
        ws.insert(k, &[0.25; DIM]);
    }
    let mut grads = GradAccum::new();
    let mut scratch = BatchScratch::default();
    let mut run = |batch| {
        grads.clear();
        compute_batch(
            model.as_ref(),
            LossKind::Logistic,
            ks,
            batch,
            &ws,
            &mut grads,
            &mut scratch,
        )
    };
    run(&batches[0]);
    run(&batches[1]);
    let (result, n) = allocs_in(|| run(&batches[2]));
    assert!(result.terms > 0);
    assert_eq!(n, 0, "compute_batch allocated at steady state");

    // --- DGL-KE, sequential and pipelined. ---
    // Found: 0 allocations per iteration in both schedules.
    for overlap in [false, true] {
        let mut w = DglKeWorker::new(ctx(&g, overlap), negatives(&g), 1);
        let per_step = step_allocs(&mut w, 8, 24);
        assert!(
            per_step.iter().all(|&n| n == 0),
            "DGL-KE (overlap {overlap}) allocations per iteration: {per_step:?}"
        );
    }

    // --- HET-KG-D (P = 8, D = 16, as the benchmark runs it). ---
    // Found: 0 on every iteration — ordinary, sync, and the every-16th that
    // prefetches the next window and rebuilds the hot set. The window's
    // batches, its read statistics and the filter's candidate lists are all
    // worker-held and reused (72 allocations per rebuild while the window
    // was built fresh and the filter counted into a new array).
    for overlap in [false, true] {
        let policy = CachePolicy {
            kind: PolicyKind::Dps,
            filter: FilterConfig::paper_default(ks.len() / 50),
            prefetch_depth: 16,
        };
        let mut w = HetKgWorker::new(
            ctx(&g, overlap),
            policy,
            SyncConfig::new(8),
            negatives(&g),
            1,
        );
        // Warm up over six full windows (buffers stop growing once the
        // largest batch so far has been seen); measure two more, aligned to
        // them.
        let per_step = step_allocs(&mut w, 96, 32);
        assert!(
            per_step.iter().all(|&n| n == 0),
            "HET-KG-D (overlap {overlap}) allocations per iteration, from a rebuild \
             iteration on: {per_step:?}"
        );
    }
}
