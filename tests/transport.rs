//! Cross-backend transport differential: the socket backend must be an
//! exact stand-in for the simulated one.
//!
//! The contract under test is strong on purpose: with compression and
//! faults off, the same seed must produce a bit-identical loss trajectory,
//! identical `TrafficMeter` totals, and a byte-identical final checkpoint
//! whether PS traffic crosses the in-process cost model or real OS
//! processes speaking wire frames over sockets. Any drift means the server
//! processes applied something the simulated shards did not, or the
//! trainer's table failed to catch up from them — the one bug class this
//! backend must never have silently.
//!
//! Spawned shard servers come from the `hetkg` binary's `ps-server`
//! subcommand (`CARGO_BIN_EXE_hetkg`), exactly as the CLI wires it.

use het_kg::embed::init::Init;
use het_kg::netsim::{CompressionMode, TrafficMeter};
use het_kg::prelude::*;
use het_kg::ps::{KvStore, ProcessCluster, PsClient, PsScratch, ShardServerConfig, SocketMode};
use het_kg::train_sys::trainer;
use std::path::Path;
use std::sync::Arc;

fn hetkg_bin() -> &'static str {
    env!("CARGO_BIN_EXE_hetkg")
}

fn workload(seed: u64) -> (KnowledgeGraph, Vec<Triple>) {
    let kg = SyntheticKg {
        num_entities: 150,
        num_relations: 10,
        num_triples: 900,
        ..Default::default()
    }
    .build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    (kg, split.train)
}

/// Train and return the report plus the serialized final checkpoint.
fn run(
    system: SystemKind,
    seed: u64,
    transport: TransportKind,
    kg: &KnowledgeGraph,
    train: &[Triple],
) -> (TrainReport, Vec<u8>) {
    let mut cfg = TrainConfig::small(system);
    cfg.epochs = 3;
    cfg.machines = 2;
    cfg.seed = seed;
    cfg.eval_candidates = None;
    cfg.transport = transport;
    if transport.is_socket() {
        cfg.ps_server_bin = Some(hetkg_bin().to_string());
    }
    let (report, store) = trainer::train_with_store(kg, train, &[], &cfg);
    let ck = trainer::checkpoint(&store, kg.key_space());
    (
        report,
        ck.to_bytes_checked().expect("checkpoint fits").to_vec(),
    )
}

fn assert_identical(system: SystemKind, seed: u64, socket: TransportKind) {
    let (kg, train) = workload(seed);
    let (sim_report, sim_ck) = run(system, seed, TransportKind::Sim, &kg, &train);
    let (sock_report, sock_ck) = run(system, seed, socket, &kg, &train);

    assert_eq!(sim_report.epochs.len(), sock_report.epochs.len());
    for (a, b) in sim_report.epochs.iter().zip(&sock_report.epochs) {
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "{system} seed {seed} {socket}: loss diverged at epoch {}",
            a.epoch
        );
    }
    assert_eq!(
        sim_report.total_traffic(),
        sock_report.total_traffic(),
        "{system} seed {seed} {socket}: metered traffic diverged"
    );
    assert_eq!(
        sim_ck, sock_ck,
        "{system} seed {seed} {socket}: final checkpoint bytes diverged"
    );
    // The hot-table sync is a pull-if-newer answered by the shard servers
    // from *their* row versions. Byte-equal traffic (above: the snapshot
    // includes the per-cause split) means they declined exactly the rows
    // the in-process store declines — and that they were asked at all.
    let by_cause = sock_report.total_traffic().by_cause;
    let cached = system != SystemKind::DglKe;
    assert_eq!(
        by_cause.sync_probe.remote > 0 && by_cause.construction.remote > 0,
        cached,
        "{system} seed {seed} {socket}: {by_cause:?}"
    );
}

/// The headline differential: 2 systems × 2 seeds over Unix-domain
/// sockets, each against its own sim run.
#[cfg(unix)]
#[test]
fn uds_backend_is_bit_identical_to_sim() {
    for system in [SystemKind::DglKe, SystemKind::HetKgCps] {
        for seed in [11u64, 23] {
            assert_identical(system, seed, TransportKind::Uds);
        }
    }
    // DPS rebuilds its table on sync iterations: construction pulls and the
    // sync's skip of the rows they just fetched cross the sockets too.
    assert_identical(SystemKind::HetKgDps, 11, TransportKind::Uds);
}

/// The version gate over real sockets, on a key space sparse enough that
/// some cached rows sit unwritten across a sync period: the shard servers
/// must decline exactly the rows the in-process store declines (same
/// per-cause bytes, same loss bits), and there must be rows they decline
/// and rows they return.
///
/// This used to require that more than a quarter of the rows asked about
/// be declined. That share was a property of what DPS cached, not of the
/// gate: the table was mostly rows a window read once — corrupting entities
/// nobody wrote again — and those never move. Admission now keeps such rows
/// out, so what a sync asks about is rows this worker reads, and therefore
/// writes, at least twice per window; most of them have moved (here 3181 of
/// 3429 asked come back).
#[cfg(unix)]
#[test]
fn shard_servers_decline_the_same_unchanged_rows_as_the_simulated_store() {
    let kg = SyntheticKg {
        num_entities: 3_000,
        num_relations: 10,
        num_triples: 4_000,
        ..Default::default()
    }
    .build(5);
    let train = Split::ninety_five_five(&kg, 5).train;
    let run = |transport: TransportKind| {
        let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
        cfg.epochs = 2;
        cfg.machines = 2;
        cfg.batch_size = 32;
        cfg.seed = 5;
        cfg.eval_candidates = None;
        cfg.cache.capacity_fraction = 0.2;
        cfg.cache.staleness = 4;
        cfg.cache.prefetch_depth = 8;
        cfg.transport = transport;
        if transport.is_socket() {
            cfg.ps_server_bin = Some(hetkg_bin().to_string());
        }
        trainer::train_with_store(&kg, &train, &[], &cfg).0
    };
    let (sim, uds) = (run(TransportKind::Sim), run(TransportKind::Uds));
    for (a, b) in sim.epochs.iter().zip(&uds.epochs) {
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "epoch {}", a.epoch);
        assert_eq!(a.traffic, b.traffic, "epoch {}", a.epoch);
    }
    let c = uds.total_traffic().by_cause;
    let asked = (c.sync_probe.local + c.sync_probe.remote) / 12;
    let returned = (c.sync_rows.local + c.sync_rows.remote) / (12 + 4 * 16);
    assert!(
        0 < returned && returned < asked,
        "the servers returned {returned} of {asked} rows asked about"
    );
}

/// Rows written back cross the sockets with their energies in the push
/// frame's trailer, dense and int8, and each `ps-server` hands them to its
/// own optimizer: loss, traffic (the per-cause split included) and the final
/// checkpoint stay bit-equal to the simulated backend's, where the same
/// `apply_frame` runs in this process. With `P` = 1 nothing is written back
/// on either — every row carries one gradient, as a plain row — which,
/// with `hetkg_train`'s own differential against the write-through
/// reference on the simulated backend, is the parent's behaviour over `uds`
/// too.
#[cfg(unix)]
#[test]
fn written_back_rows_cross_the_sockets_with_their_energies() {
    let (kg, train) = workload(11);
    for staleness in [1usize, 4] {
        for compression in [CompressionMode::Off, CompressionMode::Int8] {
            let run = |transport: TransportKind| {
                let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
                cfg.epochs = 2;
                cfg.machines = 2;
                cfg.seed = 11;
                cfg.eval_candidates = None;
                cfg.cache.staleness = staleness;
                cfg.cache.prefetch_depth = 6;
                cfg.compression = compression;
                cfg.transport = transport;
                if transport.is_socket() {
                    cfg.ps_server_bin = Some(hetkg_bin().to_string());
                }
                let (report, store) = trainer::train_with_store(&kg, &train, &[], &cfg);
                let ck = trainer::checkpoint(&store, kg.key_space());
                (
                    report,
                    ck.to_bytes_checked().expect("checkpoint fits").to_vec(),
                )
            };
            let what = format!("P = {staleness}, {compression:?}");
            let ((sim, sim_ck), (uds, uds_ck)) = (run(TransportKind::Sim), run(TransportKind::Uds));
            for (a, b) in sim.epochs.iter().zip(&uds.epochs) {
                assert_eq!(
                    a.loss.to_bits(),
                    b.loss.to_bits(),
                    "{what}: epoch {}",
                    a.epoch
                );
                assert_eq!(a.traffic, b.traffic, "{what}: epoch {}", a.epoch);
                assert_eq!(a.table, b.table, "{what}: epoch {}", a.epoch);
            }
            assert_eq!(sim_ck, uds_ck, "{what}: final checkpoint bytes");
            let (table, by_cause) = (uds.total_table(), uds.total_traffic().by_cause);
            assert!(table.written_back_rows > 0, "{what}: {table:?}");
            if staleness == 1 {
                assert_eq!(table.coalesced_grads, table.written_back_rows, "{what}");
                assert_eq!(by_cause.write_back, Default::default(), "{what}");
            } else {
                assert!(table.coalescing_factor() > 1.0, "{what}: {table:?}");
                assert!(by_cause.write_back.remote > 0, "{what}: {by_cause:?}");
            }
        }
    }
}

/// TCP takes the same wire path through different sockets; one
/// system/seed pair keeps it honest on every platform.
#[test]
fn tcp_backend_is_bit_identical_to_sim() {
    assert_identical(SystemKind::HetKgCps, 7, TransportKind::Tcp);
}

/// A torn connection — servers killed out from under a live client — must
/// surface as a typed [`het_kg::ps::RpcError`], not a panic or a hang.
#[test]
fn dead_servers_surface_typed_rpc_errors() {
    let cfg = ShardServerConfig {
        num_entities: 8,
        num_relations: 2,
        entity_shard: vec![0; 8],
        num_shards: 1,
        entity_dim: 4,
        relation_dim: 4,
        init: Init::Uniform { bound: 0.1 },
        seed: 3,
        optimizer: OptimizerKind::Sgd { lr: 0.1 },
    };
    let mut cluster = ProcessCluster::spawn(Path::new(hetkg_bin()), &cfg, SocketMode::Tcp)
        .expect("spawn one-shard cluster");
    let transport = Arc::new(cluster.transport());
    cluster.kill_all();

    let store = Arc::new(cfg.build_store());
    let client = PsClient::new(
        0,
        ClusterTopology::new(1, 1),
        store,
        Arc::new(TrafficMeter::new()),
    )
    .with_transport(transport);
    let mut row = [0.0f32; 4];
    let err = client
        .try_pull_batch_with(&[ParamKey(0)], &mut PsScratch::new(), |_, r| {
            row.copy_from_slice(r)
        })
        .expect_err("pull against killed servers must fail");
    // The exact variant depends on how fast the OS tears the listener down
    // (refused vs reset vs timeout); what matters is a typed error with a
    // Display impl, not a panic.
    let rendered = format!("{err}");
    assert!(!rendered.is_empty());
}

/// Every row of `store`, its optimizer state (as bits) and its version.
fn images(store: &KvStore) -> Vec<(u64, Vec<u32>, Vec<u32>, u32)> {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let mut all = Vec::new();
    store.for_each_row_with_state(|k, row, state| all.push((k.0, bits(row), bits(state), 0)));
    for entry in &mut all {
        entry.3 = store.version(ParamKey(entry.0));
    }
    all
}

/// One apply per push, by its shard: over a real uds cluster a push moves
/// the servers' rows and leaves the client's in-process store alone, bits
/// and versions; an image read of the rows the transport saw moved then
/// brings their rows, optimizer state and versions home. The reference is
/// the simulated backend, given the same calls.
#[cfg(unix)]
#[test]
fn a_push_moves_only_the_servers_rows_until_an_image_read_brings_them_home() {
    let cfg = ShardServerConfig {
        num_entities: 12,
        num_relations: 2,
        entity_shard: (0..12u32).map(|e| e % 2).collect(),
        num_shards: 2,
        entity_dim: 4,
        relation_dim: 4,
        init: Init::Uniform { bound: 0.1 },
        seed: 3,
        optimizer: OptimizerKind::AdaGrad { lr: 0.1 },
    };
    let mut cluster = ProcessCluster::spawn(Path::new(hetkg_bin()), &cfg, SocketMode::Uds)
        .expect("spawn two-shard cluster");
    let transport = Arc::new(cluster.transport());
    let client_on = |store: &Arc<KvStore>| {
        PsClient::new(
            0,
            ClusterTopology::new(2, 1),
            store.clone(),
            Arc::new(TrafficMeter::new()),
        )
    };
    let table = Arc::new(cfg.build_store());
    let client = client_on(&table).with_transport(transport.clone());
    let reference = Arc::new(cfg.build_store());
    let sim = client_on(&reference);

    let keys = [5u64, 0, 12, 1, 5].map(ParamKey);
    let grads: Vec<Vec<f32>> = (0..keys.len())
        .map(|i| (0..4).map(|d| 0.25 * (i + d) as f32 - 0.5).collect())
        .collect();
    let grads: Vec<&[f32]> = grads.iter().map(Vec::as_slice).collect();
    let optimizer = cfg.optimizer.build();
    let before = images(&table);
    for c in [&client, &sim] {
        c.try_push_batch_with(&keys, &grads, optimizer.as_ref(), &mut PsScratch::new())
            .expect("push");
    }
    assert_eq!(
        images(&table),
        before,
        "the client's process applied a push"
    );
    assert_ne!(images(&reference), before);
    // The servers' rows moved as the reference's did.
    let (mut served, mut simulated) = (Vec::new(), Vec::new());
    client
        .try_pull_batch_with(&keys, &mut PsScratch::new(), |_, r| served.push(r.to_vec()))
        .expect("pull over uds");
    sim.try_pull_batch_with(&keys, &mut PsScratch::new(), |_, r| {
        simulated.push(r.to_vec())
    })
    .expect("simulated pull");
    assert_eq!(served, simulated);
    assert_eq!(images(&table), before, "a pull writes nothing either");

    let moved = transport.take_moved();
    assert_eq!(moved, [0u64, 1, 5, 12].map(ParamKey));
    client
        .catch_up(&moved, &mut PsScratch::new())
        .expect("image read over uds");
    assert_eq!(
        images(&table),
        images(&reference),
        "rows, optimizer state and versions came home"
    );
    assert!(transport.take_moved().is_empty(), "forgotten once returned");
    transport.send_shutdown().expect("shutdown");
    cluster.wait().expect("servers exit cleanly");
}

/// The configuration of the two runs below, over `transport`.
fn caught_up_config(transport: TransportKind) -> TrainConfig {
    let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
    cfg.epochs = 3;
    cfg.machines = 2;
    cfg.seed = 23;
    cfg.transport = transport;
    if transport.is_socket() {
        cfg.ps_server_bin = Some(hetkg_bin().to_string());
    }
    cfg
}

/// The trainer's table catches up from the servers before each evaluation
/// snapshot: every epoch's MRR is bit-equal over sim and uds.
#[cfg(unix)]
#[test]
fn every_epochs_mrr_is_the_same_over_sockets() {
    let kg = workload(23).0;
    let split = Split::ninety_five_five(&kg, 23);
    let eval = &split.valid[..40.min(split.valid.len())];
    let mrr = |transport: TransportKind| -> Vec<u64> {
        let mut cfg = caught_up_config(transport);
        cfg.eval_candidates = Some(50);
        let report = trainer::train(&kg, &split.train, eval, &cfg);
        report
            .epochs
            .iter()
            .map(|e| e.mrr.expect("evaluated every epoch").to_bits())
            .collect()
    };
    let sim = mrr(TransportKind::Sim);
    assert_eq!(sim.len(), 3);
    assert_ne!(sim[0], sim[2], "training moved the ranking");
    assert_eq!(mrr(TransportKind::Uds), sim);
}

/// ... and before each recovery checkpoint: every image a run with
/// `checkpoint_every = 1` writes — rows and optimizer state — is
/// byte-equal over sim and uds.
#[cfg(unix)]
#[test]
fn recovery_checkpoints_are_byte_equal_over_sockets() {
    let (kg, train) = workload(23);
    let files = |transport: TransportKind| -> Vec<(String, Vec<u8>)> {
        let dir = std::env::temp_dir().join(format!(
            "hetkg-transport-ck-{}-{transport}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut cfg = caught_up_config(transport);
        cfg.checkpoint_every = 1;
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        trainer::train(&kg, &train, &[], &cfg);
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
            .expect("checkpoint directory")
            .map(|entry| {
                let path = entry.expect("directory entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).expect("checkpoint bytes"))
            })
            .collect();
        files.sort();
        std::fs::remove_dir_all(&dir).ok();
        files
    };
    let sim = files(TransportKind::Sim);
    let checkpoints = sim.iter().filter(|(name, _)| name.ends_with(".bin"));
    assert_eq!(checkpoints.count(), 3, "{:?}", sim.iter().map(|f| &f.0));
    assert!(sim == files(TransportKind::Uds), "recovery images differ");
}
