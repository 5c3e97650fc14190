//! The paper-shaped inequality, held at test scale: on a skewed graph, with
//! the same seed and epochs, HET-KG-D moves fewer remote bytes than DGL-KE.
//!
//! This is the benchmark's `train-hetkg-skew` / `train-dglke-skew` pair
//! scaled down tenfold with its proportions kept (entity α 1.0, relation
//! α 1.1, four triples per entity, the paper's cache 2 % / P = 8 / D = 16,
//! 4 machines; batch 64 over 20 k entities for the benchmark's 512 over
//! 200 k, which keeps the table-to-batch ratio that decides the outcome).
//! Before the hot-table sync became a pull-if-newer the inequality was
//! inverted in this regime exactly as it was on the benchmark — HET-KG-D
//! moved 3.6 % and 4.6 % *more* remote bytes than DGL-KE at these two
//! seeds, because every sync re-pulled every cached row, changed or not —
//! and nothing failed. Now something does.
//!
//! Since DPS admits a row only when two batches of the prefetched window
//! read it, the margin is pinned too: the table no longer pays a
//! construction pull (row + version) for each of a window's one-shot
//! corrupting entities to save that row's one miss pull, which was most of
//! what construction moved. HET-KG-D sat 5.3 % and 4.5 % below DGL-KE at
//! these seeds before that, and 13.8 % and 13.2 % below after it.
//!
//! Since hot rows are written back once per sync window instead of pushed
//! every iteration, pushes — half of what HET-KG-D moved, byte for byte
//! what DGL-KE pushes — shrink by a third. What must not move with it is
//! pinned too: the written-back rows ride in the pushes that were going out
//! anyway, so write-back adds no message; the counts pinned are the
//! write-through build's plus the second frames of the pipeline's two-part
//! push.
//!
//! A cut triple trains on its colder endpoint's machine, so the row it
//! fetches remotely is the hot one, which the table holds: HET-KG-D sits
//! 36.8 % and 37.0 % below DGL-KE at these seeds, and the margin pinned is
//! 34.8 %, two points under the nearer.

use het_kg::netsim::Cause;
use het_kg::prelude::*;

const DIM: usize = 32;

fn run(system: SystemKind, seed: u64) -> TrainReport {
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
    let mut cfg = TrainConfig::paper(system, ModelKind::TransEL2, DIM);
    cfg.batch_size = 64;
    cfg.machines = 4;
    cfg.epochs = 1;
    cfg.eval_candidates = None;
    cfg.seed = seed;
    train(&kg, &split.train, &[], &cfg)
}

#[test]
fn hetkg_d_moves_fewer_remote_bytes_than_dglke_on_a_skewed_graph() {
    for (seed, messages) in [(7u64, (7617, 2542, 5073)), (8, (7607, 2540, 5069))] {
        let het = run(SystemKind::HetKgDps, seed);
        let dgl = run(SystemKind::DglKe, seed);
        let (het_t, dgl_t) = (het.total_traffic(), dgl.total_traffic());
        assert!(
            het_t.remote_bytes < dgl_t.remote_bytes,
            "seed {seed}: HET-KG-D moved {} remote bytes, DGL-KE {} — the cache is costing \
             more than it saves (by cause: {:?})",
            het_t.remote_bytes,
            dgl_t.remote_bytes,
            het_t.by_cause
        );
        assert!(
            het_t.remote_bytes * 1000 <= dgl_t.remote_bytes * 652,
            "seed {seed}: HET-KG-D moved {} remote bytes, DGL-KE {} — less than 34.8 % apart \
             (by cause: {:?})",
            het_t.remote_bytes,
            dgl_t.remote_bytes,
            het_t.by_cause
        );
        // Construction is the small term it should be: it pulls only rows
        // that will be read at least twice, so it moves a fraction of what
        // the misses it leaves behind move.
        let construction = het_t.by_cause.get(Cause::Construction).remote;
        let misses = het_t.by_cause.get(Cause::MissPull).remote;
        assert!(
            construction > 0 && construction < misses / 4,
            "seed {seed}: construction moved {construction} remote bytes against {misses} of misses"
        );
        assert!(
            het.total_secs() < dgl.total_secs(),
            "seed {seed}: simulated time {} vs {}",
            het.total_secs(),
            dgl.total_secs()
        );
        // Writing back adds no message and saves none: the counts are the
        // write-through build's plus the pipeline's two-part push, which in
        // front of a staged batch whose request reads some of a push's rows
        // on a shard — under DPS mostly a sync reading back cached rows —
        // sends that shard the rest of its rows in a second frame. Which
        // batches each worker draws follows where each triple trains, so
        // the counts differ by seed.
        assert_eq!(
            (
                het_t.remote_messages,
                het_t.local_messages,
                het_t.push_messages
            ),
            messages,
            "seed {seed}: HET-KG-D's message counts moved"
        );
        // What it saves is pushes: the rows written back carried 2.3
        // gradients each, and plain pushes and write-backs together are a
        // third less than DGL-KE's pushes, which the write-through build's
        // equalled to within 1 %.
        let economy = het.total_table();
        assert!(
            economy.coalescing_factor() > 2.0,
            "seed {seed}: {economy:?}"
        );
        let write_back = het_t.by_cause.get(Cause::WriteBack).remote;
        let pushes = het_t.by_cause.get(Cause::Push).remote + write_back;
        assert!(
            write_back > 0 && pushes * 100 < dgl_t.by_cause.get(Cause::Push).remote * 70,
            "seed {seed}: HET-KG-D pushed {pushes} remote bytes ({write_back} written back), \
             DGL-KE {}",
            dgl_t.by_cause.get(Cause::Push).remote
        );
        // The split the inequality is argued from adds up, for both systems.
        for t in [het_t, dgl_t] {
            let by_cause = t.by_cause.total();
            assert_eq!(by_cause.remote, t.remote_bytes);
            assert_eq!(by_cause.local, t.local_bytes);
        }
        // DGL-KE only misses and pushes; HET-KG-D's sync asks about far more
        // rows than it gets back (the gate is doing something).
        assert_eq!(
            dgl_t.by_cause.get(Cause::MissPull).remote + dgl_t.by_cause.get(Cause::Push).remote,
            dgl_t.remote_bytes
        );
        let probe = het_t.by_cause.get(Cause::SyncProbe).remote;
        let rows = het_t.by_cause.get(Cause::SyncRows).remote;
        assert!(probe > 0 && rows > 0);
        let (asked, returned) = (probe / 12, rows / (12 + 4 * DIM as u64));
        assert!(
            returned < asked,
            "seed {seed}: {returned} of {asked} probed rows came back"
        );
        assert!(het.max_staleness() <= 8, "§IV-C: staleness ≤ P");
    }
}
