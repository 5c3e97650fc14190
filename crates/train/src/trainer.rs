//! The training orchestrator: partitions the graph, builds the PS, drives
//! every worker's epoch round-robin on one thread (`run_epoch_interleaved`),
//! aggregates reports, and (optionally) evaluates link prediction between
//! epochs.
//!
//! When the config carries a [`FaultPlan`](hetkg_netsim::FaultPlan), every
//! worker's PS client is wired through a per-worker
//! [`FaultInjector`], the trainer takes
//! periodic recovery checkpoints (model and optimizer state, in the checked
//! encoding, on disk when `checkpoint_dir` is set, else as validated in-memory
//! images), and each scheduled crash, which takes the whole worker pool,
//! goes through the [`Supervisor`]: a detection dated one heartbeat timeout
//! after the cluster's newest instant, a restart-with-backoff decision
//! against the pool's budget, and a restore from the newest checkpoint that
//! still validates — torn or rotted images are skipped, counted, and
//! reported, never partially loaded.

use crate::config::{PartitionerKind, SystemKind, TrainConfig, TransportKind};
use crate::report::{CompressionReport, EpochReport, FaultReport, TrainReport};
use crate::supervisor::Supervisor;
use crate::systems::dglke::DglKeWorker;
use crate::systems::hetkg::HetKgWorker;
use crate::systems::pbg::{LockServer, PbgPlan, PbgWorker};
use crate::worker::{WorkerCtx, WorkerEpochStats, WorkerLoop};
use hetkg_embed::checkpoint::{Checkpoint, CheckpointError, TrainState};
use hetkg_embed::init::Init;
use hetkg_embed::manifest::CheckpointStore;
use hetkg_embed::negative::NegativeSampler;
use hetkg_embed::storage::EmbeddingTable;
use hetkg_eval::link_prediction::{evaluate, EmbeddingSnapshot, EvalConfig};
use hetkg_kgraph::{ids::KeyKind, EntityId, KeySpace, KnowledgeGraph, RelationId, Triple};
use hetkg_netsim::{CompressionMode, CompressionStats, FaultInjector, ShardLiveness, TrafficMeter};
use hetkg_partition::{MetisLike, Partitioner, RandomPartitioner};
use hetkg_ps::{
    KvStore, OverloadControl, ProcessCluster, PsClient, PsScratch, ShardRouter, ShardServerConfig,
    SocketMode,
};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Train a model on `train_triples` of `kg` under `config`.
///
/// `eval_set` is ranked after each epoch when `config.eval_candidates` is
/// set (pass a subsample of validation triples to keep epochs fast);
/// filtering uses all of `kg`'s triples as the truth set.
pub fn train(
    kg: &KnowledgeGraph,
    train_triples: &[Triple],
    eval_set: &[Triple],
    config: &TrainConfig,
) -> TrainReport {
    train_with_store(kg, train_triples, eval_set, config).0
}

/// [`train`], additionally returning the parameter-server store so callers
/// can snapshot or checkpoint the final model.
pub fn train_with_store(
    kg: &KnowledgeGraph,
    train_triples: &[Triple],
    eval_set: &[Triple],
    config: &TrainConfig,
) -> (TrainReport, Arc<KvStore>) {
    assert!(!train_triples.is_empty(), "no training triples");
    let ks = kg.key_space();
    let topology = config.topology();
    let model: Arc<dyn hetkg_embed::KgeModel> = config.model.build(config.dim).into();
    let optimizer: Arc<dyn hetkg_ps::optimizer::Optimizer> = config.optimizer.build().into();

    // --- Partition entities across machines ---
    let partitioning = match config.partitioner {
        PartitionerKind::MetisLike => {
            MetisLike::new(config.seed).partition(kg, topology.num_machines())
        }
        PartitionerKind::Random => {
            RandomPartitioner::new(config.seed).partition(kg, topology.num_machines())
        }
    };

    // --- Parameter server ---
    let router = ShardRouter::new(ks, topology.num_machines(), partitioning.assignment());
    // `k - 1` backup replicas per shard; `k = 1` allocates nothing and is
    // bit-identical to the pre-replication store.
    let replication = config.replication.clamp(1, topology.num_machines());
    let store = Arc::new(
        KvStore::new(
            router,
            model.entity_dim(),
            model.relation_dim(),
            optimizer.state_width(),
            Init::Xavier,
            config.seed,
        )
        .with_replication(replication),
    );

    // --- Socket transport: one real PS-server process per shard ---
    //
    // The servers own the rows: every row a worker trains on is a server's
    // wire response, and every push or write is applied by a server alone.
    // `store` catches up from them where it is read — before an evaluation
    // snapshot, a recovery checkpoint and the return — on the rows pushed
    // or written since the last catch-up. That is not training traffic:
    // unmetered and off every fault clock.
    let mut sockets = config.transport.is_socket().then(|| {
        config
            .check_socket_transport()
            .expect("a sim-only option over a socket transport; use --transport sim");
        let bin = config
            .ps_server_bin
            .as_deref()
            .expect("socket transports need ps_server_bin (the CLI sets it automatically)");
        let server_config = ShardServerConfig {
            num_entities: ks.num_entities(),
            num_relations: ks.num_relations(),
            entity_shard: partitioning.assignment().to_vec(),
            num_shards: topology.num_machines(),
            entity_dim: model.entity_dim(),
            relation_dim: model.relation_dim(),
            init: Init::Xavier,
            seed: config.seed,
            optimizer: config.optimizer,
        };
        let mode = match config.transport {
            TransportKind::Tcp => SocketMode::Tcp,
            TransportKind::Uds => SocketMode::Uds,
            TransportKind::Sim => unreachable!("is_socket"),
        };
        let cluster = ProcessCluster::spawn(std::path::Path::new(bin), &server_config, mode)
            .expect("spawn ps-server cluster");
        let transport = Arc::new(cluster.transport());
        (cluster, transport)
    });
    // Over the simulated transport `store` is the shards: nothing to do.
    let catch_up = || {
        if let Some((_, transport)) = &sockets {
            PsClient::new(0, topology, store.clone(), Arc::new(TrafficMeter::new()))
                .with_transport(transport.clone())
                .catch_up(&transport.take_moved(), &mut PsScratch::new())
                .expect("catch up from the ps-servers");
        }
    };

    // --- Distribute training triples to workers ---
    let per_machine = partitioning.split_triples(train_triples);
    let mut per_worker: Vec<Vec<Triple>> = vec![Vec::new(); topology.num_workers()];
    for (machine, triples) in per_machine.into_iter().enumerate() {
        let w0 = machine * topology.workers_per_machine();
        for (i, t) in triples.into_iter().enumerate() {
            per_worker[w0 + i % topology.workers_per_machine()].push(t);
        }
    }
    // A worker with an empty subgraph (tiny graphs) borrows the full list so
    // every thread has work; its pulls are remote, which is realistic.
    for w in &mut per_worker {
        if w.is_empty() {
            w.extend_from_slice(train_triples);
        }
    }

    // --- Fault injection: one injector per worker, all over the same plan.
    // Each injector owns a private RNG stream and simulated clock driven
    // only by its worker, so faulty runs stay bit-reproducible regardless
    // of thread interleaving. ---
    //
    // Permanent shard kills arm only when a backup exists to promote: the
    // shared liveness table is what turns a `ShardKill` from inert schedule
    // into a `ShardDead` verdict, and it is attached exactly when
    // replication is on and the plan schedules a kill. The first worker to
    // hit the dead primary wins the promotion race; everyone else sees the
    // promoted flag and keeps routing to the new primary.
    let liveness = (replication > 1 && config.faults.as_ref().is_some_and(|p| !p.kills.is_empty()))
        .then(|| Arc::new(ShardLiveness::new(topology.num_machines())));
    // Overload protection arms exactly when the plan can overload a shard,
    // and is run-global shared state (like the liveness table): one budget
    // and one breaker table for the whole worker pool, created outside
    // `build_workers` so crash-recovery rebuilds keep the balance and
    // breaker states instead of resetting them.
    let overload = config
        .faults
        .as_ref()
        .and_then(|plan| OverloadControl::for_plan(plan, topology.num_machines()))
        .map(Arc::new);
    let injectors: Vec<Option<Arc<FaultInjector>>> = (0..topology.num_workers())
        .map(|w| {
            config.faults.clone().map(|plan| {
                let mut inj = FaultInjector::new(plan, config.cost_model, w);
                if let Some(l) = &liveness {
                    inj = inj.with_liveness(l.clone());
                }
                Arc::new(inj)
            })
        })
        .collect();

    // --- Build the per-system worker loops (re-runnable: the crash
    // recovery path rebuilds every worker from scratch) ---
    let pbg_plan = (config.system == SystemKind::Pbg).then(|| {
        Arc::new(PbgPlan::new(
            kg.num_entities(),
            train_triples,
            (2 * topology.num_workers()).max(2),
            config.negatives.per_positive,
            config.seed,
        ))
    });
    // The loops pipeline only when no fault plan can perturb a message:
    // staging pulls ahead of the sequential order is value-preserving
    // exactly because nothing can reorder or fail them. A perturbing plan
    // runs the sequential schedule, timed on the same timelines. An *inert*
    // plan (all-zero) keeps the pipeline, preserving the contract that
    // attaching it is byte-identical to attaching none.
    let overlap = config.overlap && config.faults.as_ref().is_none_or(|p| p.is_inert());
    let build_workers = |subgraphs: Vec<Vec<Triple>>| -> Vec<Box<dyn WorkerLoop>> {
        // PBG workers share one lock server; a rebuild gets a fresh one so
        // the re-run epoch hands out every bucket again.
        let pbg_shared = pbg_plan
            .as_ref()
            .map(|p| (p.clone(), Arc::new(LockServer::new(p.clone()))));
        let mut workers: Vec<Box<dyn WorkerLoop>> = Vec::with_capacity(subgraphs.len());
        for (w, subgraph) in subgraphs.into_iter().enumerate() {
            let meter = Arc::new(TrafficMeter::new());
            let mut client = PsClient::new(w, topology, store.clone(), meter.clone())
                .with_checksums(config.integrity);
            if let Some(inj) = &injectors[w] {
                client = client.with_faults(inj.clone());
            }
            if let Some(ctl) = &overload {
                client = client.with_overload(ctl.clone());
            }
            if let Some((_, transport)) = &sockets {
                client = client.with_transport(transport.clone());
            }
            let ctx = WorkerCtx::new(
                w,
                subgraph,
                ks,
                client,
                meter,
                model.clone(),
                config.loss,
                optimizer.clone(),
                config.batch_size,
            )
            .with_timing(config.cost_model, overlap)
            .with_compression(config.compression);
            let negatives = NegativeSampler::new(
                kg.num_entities(),
                config.negatives,
                config.seed ^ ((w as u64 + 1) * 0x5DEECE66D),
            );
            let boxed: Box<dyn WorkerLoop> = match config.system {
                SystemKind::DglKe => Box::new(DglKeWorker::new(ctx, negatives, config.seed)),
                SystemKind::HetKgCps | SystemKind::HetKgDps => {
                    let policy = config.cache.policy(ks.len(), config.system);
                    let sync = config.cache.sync();
                    Box::new(HetKgWorker::new(ctx, policy, sync, negatives, config.seed))
                }
                SystemKind::Pbg => {
                    let (plan, locks) = pbg_shared.as_ref().expect("pbg shared state");
                    let entity_lr = match config.optimizer {
                        hetkg_ps::optimizer::OptimizerKind::Sgd { lr }
                        | hetkg_ps::optimizer::OptimizerKind::AdaGrad { lr } => lr,
                    };
                    Box::new(PbgWorker::new(
                        ctx,
                        plan.clone(),
                        locks.clone(),
                        config.seed,
                        entity_lr,
                    ))
                }
            };
            workers.push(boxed);
        }
        workers
    };
    let crash_epochs = config
        .faults
        .as_ref()
        .map(|p| p.crash_epochs())
        .unwrap_or_default();
    // The recovery path needs the subgraphs again on every rebuild; keep a
    // copy only when a crash is actually scheduled.
    let master_subgraphs = (!crash_epochs.is_empty()).then(|| per_worker.clone());
    let mut workers = build_workers(per_worker);

    // --- Epoch loop with recovery checkpoints and supervised crashes ---
    let mut report = TrainReport {
        system: config.system.to_string(),
        model: config.model.to_string(),
        ..Default::default()
    };
    let all_true = kg.triples();
    let optimizer_label = format!("{:?}", config.optimizer);
    // A scheduled crash forces checkpointing on, so the restart always has
    // something to restore.
    let ckpt_period = if !crash_epochs.is_empty() && config.checkpoint_every == 0 {
        1
    } else {
        config.checkpoint_every
    };
    let mut checkpoints = 0u64;
    let mut recoveries = 0u64;
    let mut recovery = RecoveryStore::open(config);
    if ckpt_period > 0 {
        catch_up();
        recovery.save(&checkpoint_v2(&store, ks, 0, &optimizer_label), 0);
        checkpoints += 1;
    }
    let mut supervisor = config
        .faults
        .as_ref()
        .map(|_| Supervisor::new(config.supervisor, topology.num_workers()));
    let mut fired: HashSet<usize> = HashSet::new();
    let mut epoch = 0;
    while epoch < config.epochs {
        let stats = run_epoch_interleaved(&mut workers, epoch);
        if crash_epochs.contains(&epoch) && fired.insert(epoch) {
            // Injected crash of the pool: everything since the last recovery
            // checkpoint — this epoch's updates included — is lost. The
            // supervisor dates its detection and decides whether the pool
            // restarts.
            let sup = supervisor
                .as_mut()
                .expect("crash schedule implies a fault plan");
            if !sup.crash(epoch, cluster_now(&injectors)) {
                break; // restart budget exhausted; the report records it
            }
            match recovery.load_latest() {
                Ok((ck_epoch, skipped, ck)) => {
                    // Restore the PS from the newest checkpoint that
                    // validates, rebuild the workers (their caches,
                    // backlogs, and iteration counters died with the
                    // process), and resume from the checkpoint's epoch.
                    sup.note_checkpoints_skipped(skipped);
                    restore_checkpoint(&store, ks, &ck);
                    // The restore rewrote the primaries underneath the
                    // backups; re-clone so replicas track the restored
                    // state instead of the pre-crash one.
                    store.resync_backups();
                    report.epochs.truncate(ck_epoch);
                    workers = build_workers(
                        master_subgraphs
                            .clone()
                            .expect("kept when a crash is scheduled"),
                    );
                    epoch = ck_epoch;
                    recoveries += 1;
                    continue;
                }
                Err(CheckpointError::NoValidCheckpoint { tried }) => {
                    sup.note_recovery_failed(tried);
                    break;
                }
                Err(e) => panic!("recovery checkpoint store failed: {e}"),
            }
        }
        if let Some(sup) = supervisor.as_mut() {
            sup.epoch_done(cluster_now(&injectors));
            if let Some(l) = &liveness {
                for (shard, at) in l.take_events() {
                    sup.note_promotion(shard, at);
                }
            }
        }
        let mut er = aggregate(epoch, &stats, config);
        if config.eval_candidates.is_some() && !eval_set.is_empty() {
            catch_up();
            let snap = snapshot(&store, ks);
            let metrics = evaluate(
                model.as_ref(),
                &snap,
                eval_set,
                all_true,
                &EvalConfig {
                    filtered: true,
                    max_candidates: config.eval_candidates,
                    seed: config.seed,
                },
            );
            er.mrr = Some(metrics.mrr());
            if epoch + 1 == config.epochs {
                report.final_metrics = Some(metrics);
            }
        }
        report.epochs.push(er);
        epoch += 1;
        if ckpt_period > 0 && epoch < config.epochs && epoch.is_multiple_of(ckpt_period) {
            catch_up();
            recovery.save(
                &checkpoint_v2(&store, ks, epoch as u64, &optimizer_label),
                epoch,
            );
            checkpoints += 1;
        }
    }
    if config.faults.is_some() {
        let mut run = FaultReport {
            recoveries,
            checkpoints,
            ..FaultReport::default()
        };
        // Breaker transitions are run-global (the table is shared), so they
        // come from the control itself rather than per-worker ledgers.
        if let Some(ctl) = &overload {
            let br = &ctl.breakers;
            run.breaker_opens = br.opens();
            run.breaker_half_opens = br.half_opens();
            run.breaker_closes = br.closes();
            run.brownout_secs = br.brownout_secs();
        }
        let ledgers = injectors.iter().flatten().map(|inj| inj.stats());
        report.faults = Some(ledgers.fold(run, FaultReport::merge));
    }
    if let Some(mut sup) = supervisor {
        // Promotions not relayed yet: those of the epoch a run stopped in.
        if let Some(l) = &liveness {
            for (shard, at) in l.take_events() {
                sup.note_promotion(shard, at);
            }
        }
        report.supervisor = Some(sup.into_report());
    }
    if config.compression != CompressionMode::Off {
        let total = workers
            .iter_mut()
            .fold(CompressionStats::default(), |acc, w| {
                acc.merge(w.ctx().compression_stats())
            });
        report.compression = Some(CompressionReport::from_stats(
            config.compression.as_str(),
            total,
        ));
    }
    catch_up();
    // Orderly socket teardown: shutdown rides the training connections
    // (the servers' accept loops are sequential), then the children are
    // reaped. Failures here are real process-management bugs, not
    // tolerable flakiness.
    if let Some((cluster, transport)) = &mut sockets {
        transport.send_shutdown().expect("ps-server shutdown");
        cluster.wait().expect("ps-server exit");
    }
    (report, store)
}

/// The cluster's simulated instant: the furthest-ahead worker clock.
fn cluster_now(injectors: &[Option<Arc<FaultInjector>>]) -> f64 {
    injectors
        .iter()
        .flatten()
        .map(|i| i.now())
        .fold(0.0, f64::max)
}

/// Where recovery checkpoints live: a crash-consistent on-disk
/// [`CheckpointStore`] (manifest, bounded retention) when the config names
/// a directory, else an in-memory ring of *serialized* images. Both paths
/// run the full v3 validation on load, so a torn or rotted newest image
/// degrades to the previous valid one — never a silent partial restore.
enum RecoveryStore {
    Disk(Box<CheckpointStore>),
    Ring {
        entries: VecDeque<(u64, Vec<u8>)>,
        saved: u64,
        torn: Option<u64>,
    },
}

impl RecoveryStore {
    /// Checkpoints retained (same bound for both backends).
    const KEEP: usize = 3;

    fn open(config: &TrainConfig) -> Self {
        let torn = config.faults.as_ref().and_then(|p| p.torn_checkpoint);
        match &config.checkpoint_dir {
            Some(dir) => RecoveryStore::Disk(Box::new(
                CheckpointStore::open(dir, Self::KEEP)
                    .expect("open recovery checkpoint directory")
                    .with_torn_write(torn),
            )),
            None => RecoveryStore::Ring {
                entries: VecDeque::new(),
                saved: 0,
                torn,
            },
        }
    }

    fn save(&mut self, ck: &Checkpoint, epoch: usize) {
        match self {
            RecoveryStore::Disk(store) => {
                store
                    .save(ck, epoch as u64)
                    .expect("write recovery checkpoint");
            }
            RecoveryStore::Ring {
                entries,
                saved,
                torn,
            } => {
                let full = ck.to_bytes_checked().expect("checkpoint fits the format");
                let image = if *torn == Some(*saved) {
                    // Same drill as the disk store's torn write: the image
                    // exists, but only a prefix of it survived.
                    full[..full.len() * 2 / 3].to_vec()
                } else {
                    full.to_vec()
                };
                *saved += 1;
                entries.push_back((epoch as u64, image));
                while entries.len() > Self::KEEP {
                    entries.pop_front();
                }
            }
        }
    }

    /// The newest checkpoint that validates, as `(epoch, images skipped,
    /// checkpoint)`.
    fn load_latest(&self) -> Result<(usize, usize, Checkpoint), CheckpointError> {
        match self {
            RecoveryStore::Disk(store) => {
                let loaded = store.load_latest()?;
                Ok((loaded.epoch as usize, loaded.skipped, loaded.checkpoint))
            }
            RecoveryStore::Ring { entries, .. } => {
                let mut skipped = 0;
                for (epoch, image) in entries.iter().rev() {
                    match Checkpoint::from_bytes(image.clone().into()) {
                        Ok(ck) => return Ok((*epoch as usize, skipped, ck)),
                        Err(_) => skipped += 1,
                    }
                }
                Err(CheckpointError::NoValidCheckpoint { tried: skipped })
            }
        }
    }
}

/// Drive one epoch across the worker pool on a single thread, interleaving
/// units (mini-batch iterations / PBG buckets) in fixed round-robin order.
/// Workers still contend on the shared PS mid-epoch — the interleaving
/// preserves the asynchronous-PS semantics at unit granularity — but the
/// order of every PS read and write is a pure function of the config, so
/// runs are bit-reproducible (host threads never decide update order).
/// Parallelism is accounted in simulated time by the per-worker timelines.
fn run_epoch_interleaved(
    workers: &mut [Box<dyn WorkerLoop>],
    epoch: usize,
) -> Vec<WorkerEpochStats> {
    for w in workers.iter_mut() {
        w.begin_epoch(epoch);
    }
    let mut done = vec![false; workers.len()];
    let mut remaining = workers.len();
    while remaining > 0 {
        for (i, w) in workers.iter_mut().enumerate() {
            if !done[i] && !w.step() {
                done[i] = true;
                remaining -= 1;
            }
        }
    }
    workers.iter_mut().map(|w| w.finish_epoch()).collect()
}

/// Fold worker stats into an epoch report: times are the slowest worker's,
/// the epoch's the slowest timeline's; traffic and cache stats are summed,
/// loss is averaged over terms.
fn aggregate(epoch: usize, stats: &[WorkerEpochStats], config: &TrainConfig) -> EpochReport {
    let mut er = EpochReport {
        epoch,
        ..Default::default()
    };
    let mut loss_sum = 0.0;
    let mut loss_terms = 0usize;
    for s in stats {
        er.critical_path_secs = er.critical_path_secs.max(s.critical_path_secs);
        er.compute_secs = er
            .compute_secs
            .max(config.cost_model.compute_time(s.work_units));
        er.wall_secs = er.wall_secs.max(s.wall_secs);
        er.comm_secs = er
            .comm_secs
            .max(s.traffic.simulated_time(&config.cost_model));
        er.traffic = er.traffic.merge(s.traffic);
        er.cache = er.cache.merge(s.cache);
        er.table = er.table.merge(s.table);
        er.max_divergence = er.max_divergence.max(s.max_divergence);
        er.mean_divergence = er.mean_divergence.max(s.mean_divergence);
        er.max_staleness = er.max_staleness.max(s.max_staleness);
        loss_sum += s.loss_sum;
        loss_terms += s.loss_terms;
    }
    er.loss = if loss_terms == 0 {
        0.0
    } else {
        loss_sum / loss_terms as f64
    };
    er.overlap_secs = (er.compute_secs + er.comm_secs - er.critical_path_secs).max(0.0);
    er
}

/// Copy the global model out of the PS into a serializable
/// [`Checkpoint`]: the model only, no
/// train state.
pub fn checkpoint(store: &KvStore, ks: KeySpace) -> Checkpoint {
    let snap = snapshot(store, ks);
    Checkpoint::new(snap.entities, snap.relations)
}

/// Copy the full resumable training state out of the PS: the model tables
/// plus the epoch counter, an optimizer label, and the optimizer-state
/// tables. This is what the trainer's periodic recovery checkpoints and the
/// crash-recovery restore use.
pub fn checkpoint_v2(store: &KvStore, ks: KeySpace, epoch: u64, optimizer: &str) -> Checkpoint {
    let mut entities = EmbeddingTable::zeros(ks.num_entities(), store.entity_dim());
    let mut relations = EmbeddingTable::zeros(ks.num_relations(), store.relation_dim());
    let mut entity_state = EmbeddingTable::zeros(ks.num_entities(), store.entity_state_dim());
    let mut relation_state = EmbeddingTable::zeros(ks.num_relations(), store.relation_state_dim());
    store.for_each_row_with_state(|key, row, state| match ks.classify(key) {
        Some(KeyKind::Entity(e)) => {
            entities.set_row(e.index(), row);
            entity_state.set_row(e.index(), state);
        }
        Some(KeyKind::Relation(r)) => {
            relations.set_row(r.index(), row);
            relation_state.set_row(r.index(), state);
        }
        None => unreachable!("store iterates only the key space"),
    });
    Checkpoint::with_state(
        entities,
        relations,
        TrainState {
            epoch,
            optimizer: optimizer.to_string(),
            entity_state,
            relation_state,
        },
    )
}

/// Overwrite the PS contents from a checkpoint (crash recovery). Restores
/// optimizer state too when the checkpoint carries it and its shapes match
/// the store's; one without train state restores the model only.
pub fn restore_checkpoint(store: &KvStore, ks: KeySpace, ck: &Checkpoint) {
    assert_eq!(
        ck.entities.rows(),
        ks.num_entities(),
        "checkpoint entity count mismatch"
    );
    assert_eq!(
        ck.relations.rows(),
        ks.num_relations(),
        "checkpoint relation count mismatch"
    );
    let state_ok = ck.train_state.as_ref().is_some_and(|ts| {
        ts.entity_state.rows() == ks.num_entities()
            && ts.entity_state.dim() == store.entity_state_dim()
            && ts.relation_state.rows() == ks.num_relations()
            && ts.relation_state.dim() == store.relation_state_dim()
    });
    for e in 0..ks.num_entities() {
        let key = ks.entity_key(EntityId(e as u32));
        let state = state_ok.then(|| ck.train_state.as_ref().unwrap().entity_state.row(e));
        store.restore_row(key, ck.entities.row(e), state);
    }
    for r in 0..ks.num_relations() {
        let key = ks.relation_key(RelationId(r as u32));
        let state = state_ok.then(|| ck.train_state.as_ref().unwrap().relation_state.row(r));
        store.restore_row(key, ck.relations.row(r), state);
    }
}

/// Copy the global model out of the PS into dense id-indexed tables.
pub fn snapshot(store: &KvStore, ks: KeySpace) -> EmbeddingSnapshot {
    let mut entities = EmbeddingTable::zeros(ks.num_entities(), store.entity_dim());
    let mut relations = EmbeddingTable::zeros(ks.num_relations(), store.relation_dim());
    store.for_each_row(|key, row| match ks.classify(key) {
        Some(KeyKind::Entity(e)) => entities.set_row(e.index(), row),
        Some(KeyKind::Relation(r)) => relations.set_row(r.index(), row),
        None => unreachable!("store iterates only the key space"),
    });
    EmbeddingSnapshot::new(entities, relations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_kgraph::generator::SyntheticKg;
    use hetkg_kgraph::split::Split;

    fn small_graph() -> KnowledgeGraph {
        SyntheticKg {
            num_entities: 120,
            num_relations: 8,
            num_triples: 600,
            ..Default::default()
        }
        .build(3)
    }

    fn run(system: SystemKind) -> (TrainReport, KnowledgeGraph) {
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(system);
        cfg.epochs = 2;
        cfg.eval_candidates = Some(30);
        let report = train(
            &kg,
            &split.train,
            &split.valid[..20.min(split.valid.len())],
            &cfg,
        );
        (report, kg)
    }

    #[test]
    fn all_four_systems_train_end_to_end() {
        for system in [
            SystemKind::DglKe,
            SystemKind::HetKgCps,
            SystemKind::HetKgDps,
            SystemKind::Pbg,
        ] {
            let (report, _) = run(system);
            assert_eq!(report.epochs.len(), 2, "{system}");
            assert!(report.total_secs() > 0.0, "{system}");
            assert!(report.epochs[0].loss > 0.0, "{system}");
            assert!(report.epochs[0].mrr.is_some(), "{system}");
            assert!(report.final_metrics.is_some(), "{system}");
            assert!(report.total_traffic().total_bytes() > 0, "{system}");
        }
    }

    #[test]
    fn hetkg_systems_report_cache_activity() {
        let (report, _) = run(SystemKind::HetKgCps);
        assert!(report.total_cache().total() > 0);
        assert!(report.total_cache().hit_ratio() > 0.0);
        let (dgl, _) = run(SystemKind::DglKe);
        assert_eq!(dgl.total_cache().total(), 0);
    }

    #[test]
    fn hetkg_moves_fewer_bytes_than_dglke() {
        let (het, _) = run(SystemKind::HetKgCps);
        let (dgl, _) = run(SystemKind::DglKe);
        assert!(
            het.total_traffic().total_bytes() < dgl.total_traffic().total_bytes(),
            "HET-KG {} vs DGL-KE {}",
            het.total_traffic().total_bytes(),
            dgl.total_traffic().total_bytes()
        );
    }

    #[test]
    fn loss_improves_with_more_epochs() {
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgDps);
        cfg.epochs = 6;
        let report = train(&kg, &split.train, &[], &cfg);
        assert!(report.epochs.last().unwrap().loss < report.epochs[0].loss);
    }

    #[test]
    fn snapshot_round_trips_store_contents() {
        let kg = small_graph();
        let ks = kg.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = KvStore::new(router, 8, 8, 0, Init::Xavier, 9);
        let snap = snapshot(&store, ks);
        assert_eq!(snap.entities.rows(), kg.num_entities());
        assert_eq!(snap.relations.rows(), kg.num_relations());
        // Spot-check one key.
        let mut buf = [0.0f32; 8];
        store.pull(hetkg_kgraph::ParamKey(5), &mut buf);
        assert_eq!(snap.entities.row(5), &buf);
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let kg = small_graph();
        let ks = kg.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = KvStore::new(router, 8, 8, 0, Init::Xavier, 9);
        let ck = checkpoint(&store, ks);
        let path =
            std::env::temp_dir().join(format!("hetkg-trainer-ck-{}.bin", std::process::id()));
        ck.save(&path).unwrap();
        let back = hetkg_embed::checkpoint::Checkpoint::load(&path).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.entities.rows(), kg.num_entities());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deterministic_traffic_for_same_seed() {
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let cfg = TrainConfig::small(SystemKind::HetKgCps);
        let a = train(&kg, &split.train, &[], &cfg);
        let b = train(&kg, &split.train, &[], &cfg);
        assert_eq!(
            a.total_traffic(),
            b.total_traffic(),
            "metered traffic must be bit-reproducible"
        );
    }

    #[test]
    fn fault_free_runs_carry_no_fault_report() {
        let (report, _) = run(SystemKind::HetKgCps);
        assert!(report.faults.is_none());
    }

    #[test]
    fn faulty_runs_are_deterministic_too() {
        use hetkg_netsim::FaultPlan;
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.faults = Some(FaultPlan::lossy(11, 0.05));
        let a = train(&kg, &split.train, &[], &cfg);
        let b = train(&kg, &split.train, &[], &cfg);
        assert_eq!(a.total_traffic(), b.total_traffic());
        assert_eq!(a.faults, b.faults);
        let fr = a.faults.expect("fault plan attached");
        assert!(fr.drops > 0, "5% loss over a full run must drop something");
        assert_eq!(
            fr.retries, fr.drops,
            "every drop is retried at default policy"
        );
        assert!(fr.retransmitted_bytes > 0);
    }

    #[test]
    fn crash_recovery_restores_and_completes() {
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 4;
        cfg.faults = Some(FaultPlan {
            crash: Some(CrashPoint { epoch: 2 }),
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(report.epochs.len(), 4, "all epochs present after recovery");
        let fr = report.faults.expect("fault plan attached");
        assert_eq!(fr.recoveries, 1);
        assert!(
            fr.checkpoints >= 1,
            "crash schedule forces checkpointing on"
        );
        assert_eq!(fr.drops, 0, "crash-only plan perturbs no messages");
        let sup = report.supervisor.expect("supervised run");
        assert_eq!(sup.detections, 2, "both workers went silent");
        assert_eq!(sup.restarts, 2, "both workers restarted once");
        assert!(!sup.gave_up);
        assert!(sup.restart_backoff_secs > 0.0);
    }

    #[test]
    fn multiple_crashes_recover_within_the_restart_budget() {
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 4;
        cfg.faults = Some(FaultPlan {
            crashes: vec![CrashPoint { epoch: 1 }, CrashPoint { epoch: 2 }],
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(report.epochs.len(), 4, "both crashes recovered mid-run");
        let fr = report.faults.expect("fault plan attached");
        assert_eq!(fr.recoveries, 2);
        let sup = report.supervisor.expect("supervised run");
        assert_eq!(sup.detections, 4, "2 workers x 2 crashes");
        assert_eq!(sup.restarts, 4);
        assert!(!sup.gave_up);
    }

    #[test]
    fn exhausted_restart_budget_gives_up_with_a_report_not_a_panic() {
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 3;
        cfg.supervisor.max_restarts = 0;
        cfg.faults = Some(FaultPlan {
            crash: Some(CrashPoint { epoch: 1 }),
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(
            report.epochs.len(),
            1,
            "run stopped at the unrecovered crash"
        );
        let sup = report.supervisor.expect("supervised run");
        assert!(sup.gave_up);
        assert_eq!(sup.restarts, 0);
        assert!(sup
            .events
            .iter()
            .any(|e| matches!(e, crate::supervisor::SupervisorEvent::GaveUp { .. })));
        assert_eq!(report.faults.unwrap().recoveries, 0);
    }

    /// A three-worker pool crashes at epoch 1, restarts on its one restart
    /// and gives up at the crash in epoch 2. The whole report is pinned:
    /// each worker's events, in order, and every instant and backoff to its
    /// bits (all are positive, so equal values are equal bits).
    #[test]
    fn a_pool_that_restarts_once_then_gives_up_reports_every_event_in_order() {
        use crate::supervisor::{SupervisorEvent::*, SupervisorReport};
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.machines = 3;
        cfg.epochs = 4;
        cfg.supervisor.max_restarts = 1;
        cfg.faults = Some(FaultPlan {
            crashes: vec![CrashPoint { epoch: 1 }, CrashPoint { epoch: 2 }],
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(report.epochs.len(), 2, "epoch 1 re-ran; epoch 2 was lost");
        let sup = report.supervisor.expect("supervised run");
        // Epoch 2's detection is dated from the end of epoch 1's backoff,
        // which is later than any worker's clock.
        let detected = [
            (1, f64::from_bits(0x3fab_6690_6747_b618)),
            (2, f64::from_bits(0x3fbd_3035_c50c_4dbc)),
        ];
        let backoff = 0.010;
        let mut events = Vec::new();
        for (epoch, at) in detected {
            events.extend((0..3).map(|worker| MissedHeartbeat { worker, at }));
            for worker in 0..3 {
                events.push(CrashDetected { worker, epoch, at });
                events.push(match epoch {
                    1 => Restarted {
                        worker,
                        attempt: 1,
                        backoff,
                    },
                    _ => GaveUp {
                        worker,
                        restarts: 1,
                    },
                });
            }
        }
        let expected = SupervisorReport {
            detections: 6,
            restarts: 3,
            gave_up: true,
            // 0.01 + 0.01 + 0.01, added one worker at a time.
            restart_backoff_secs: f64::from_bits(0x3f9e_b851_eb85_1eb8),
            torn_checkpoints_skipped: 0,
            promotions: 0,
            events,
        };
        assert_eq!(sup, expected);
    }

    #[test]
    fn torn_checkpoint_recovery_falls_back_to_the_previous_valid_one() {
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 4;
        // Saves run seq 0 (initial), 1 (after epoch 0), 2 (after epoch 1);
        // the crash at epoch 2 would restore seq 2, but that write tore.
        cfg.faults = Some(FaultPlan {
            crash: Some(CrashPoint { epoch: 2 }),
            torn_checkpoint: Some(2),
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(
            report.epochs.len(),
            4,
            "recovered from the older checkpoint"
        );
        let sup = report.supervisor.expect("supervised run");
        assert_eq!(
            sup.torn_checkpoints_skipped, 1,
            "the torn image was skipped, not loaded"
        );
        assert!(!sup.gave_up);
        assert_eq!(report.faults.unwrap().recoveries, 1);
    }

    #[test]
    fn disk_checkpoint_store_recovers_through_a_torn_write() {
        use hetkg_netsim::{CrashPoint, FaultPlan};
        let dir = std::env::temp_dir().join(format!("hetkg-trainer-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::HetKgCps);
        cfg.epochs = 4;
        cfg.checkpoint_dir = Some(dir.to_string_lossy().into_owned());
        cfg.faults = Some(FaultPlan {
            crash: Some(CrashPoint { epoch: 2 }),
            torn_checkpoint: Some(2),
            ..FaultPlan::default()
        });
        let report = train(&kg, &split.train, &[], &cfg);
        assert_eq!(report.epochs.len(), 4);
        let sup = report.supervisor.expect("supervised run");
        assert_eq!(sup.torn_checkpoints_skipped, 1);
        assert!(dir.join("manifest.txt").exists(), "manifest written");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_is_detected_and_repulled_during_training() {
        use hetkg_netsim::FaultPlan;
        let kg = small_graph();
        let split = Split::ninety_five_five(&kg, 1);
        let mut cfg = TrainConfig::small(SystemKind::DglKe);
        // The tiny workload sends few remote frames; 8% makes the drill
        // deterministic-with-injections at this seed.
        cfg.faults = Some(FaultPlan::corrupting(13, 0.08));
        let report = train(&kg, &split.train, &[], &cfg);
        let fr = report.faults.expect("fault plan attached");
        assert!(
            fr.corrupt_frames > 0,
            "8% corruption over a run must hit something"
        );
        assert_eq!(
            fr.corrupt_detected, fr.corrupt_frames,
            "every corrupt frame caught"
        );
        assert_eq!(fr.corrupt_ingested, 0, "nothing poisoned the tables");
        assert_eq!(report.epochs.len(), cfg.epochs);
    }

    #[test]
    fn hetkg_reports_bounded_staleness() {
        let (report, _) = run(SystemKind::HetKgCps);
        let p = TrainConfig::small(SystemKind::HetKgCps).cache.staleness;
        assert!(report.max_staleness() >= 1, "cache served something stale");
        assert!(report.max_staleness() <= p, "staleness bound P respected");
        let (dgl, _) = run(SystemKind::DglKe);
        assert_eq!(
            dgl.max_staleness(),
            0,
            "cacheless systems report zero staleness"
        );
    }

    #[test]
    fn checkpoint_v2_restores_the_store_exactly() {
        let kg = small_graph();
        let ks = kg.key_space();
        let router = ShardRouter::round_robin(ks, 2);
        let store = KvStore::new(router, 8, 8, 1, Init::Xavier, 9);
        let opt = hetkg_ps::optimizer::AdaGrad::new(0.1);
        store.push_grad(hetkg_kgraph::ParamKey(3), &[1.0; 8], &opt);
        let ck = checkpoint_v2(&store, ks, 7, "AdaGrad { lr: 0.1 }");
        assert_eq!(ck.train_state.as_ref().unwrap().epoch, 7);
        // Wreck the store, restore, and re-capture: must match exactly,
        // optimizer state included.
        store.push_grad(hetkg_kgraph::ParamKey(3), &[5.0; 8], &opt);
        store.push_grad(hetkg_kgraph::ParamKey(90), &[2.0; 8], &opt);
        restore_checkpoint(&store, ks, &ck);
        let again = checkpoint_v2(&store, ks, 7, "AdaGrad { lr: 0.1 }");
        assert_eq!(again, ck);
    }
}
