//! The only file that names `het_kg`. Everything the benchmark does to the
//! program goes through the functions below, and every result comes back as
//! plain numbers or as one of the opaque types re-exported here, so a
//! refactor of the program's public surface is a change to this file alone.
//! The README lists the entry points this file is allowed to use.

use het_kg::embed::checkpoint::Checkpoint;
use het_kg::embed::init::Init;
use het_kg::embed::models::{KgeModel, ModelKind};
use het_kg::embed::negative::{NegConfig, NegativeSampler};
use het_kg::embed::storage::EmbeddingTable;
use het_kg::embed::CheckpointStore;
use het_kg::eval::{evaluate, EvalConfig};
use het_kg::hotcache::prefetch::{MiniBatch, Prefetcher};
use het_kg::hotcache::HotEmbeddingTable;
use het_kg::kgraph::generator::SyntheticKg;
use het_kg::kgraph::split::Split;
use het_kg::netsim::compress::{decode_row, encode_row, encoded_len};
use het_kg::netsim::{
    stream, ClusterTopology, Codec, CompressionMode, TrafficMeter, TrafficSnapshot, WireFrame,
};
use het_kg::partition::{quality, MetisLike, Partitioner, Partitioning};
use het_kg::ps::optimizer::{Optimizer, OptimizerKind};
use het_kg::ps::{
    KvStore, ProcessCluster, PsClient, PsScratch, ShardRouter, ShardServerConfig, SocketMode,
    Transport,
};
use het_kg::serve::{
    Query, QueryStream, ServeEngine, ServeScratch, ServingSnapshot, SnapshotCell, ZipfSampler,
};
use het_kg::train_sys::batch::{compute_batch, BatchScratch, GradAccum, WorkingSet};
use het_kg::train_sys::trainer::snapshot;
use het_kg::train_sys::{train_with_store, SystemKind, TrainConfig, TrainReport, TransportKind};
use std::path::Path;
use std::sync::Arc;

pub use het_kg::kgraph::{KeySpace, KnowledgeGraph, ParamKey, Triple};

pub const DIM: usize = 128;
const MODEL: ModelKind = ModelKind::TransEL2;

// ---------------------------------------------------------------- kgraph

pub struct GraphShape {
    pub entities: usize,
    pub relations: usize,
    pub triples: usize,
    pub entity_alpha: f64,
    pub relation_alpha: f64,
}

pub fn build_graph(shape: &GraphShape, seed: u64) -> KnowledgeGraph {
    SyntheticKg {
        num_entities: shape.entities,
        num_relations: shape.relations,
        num_triples: shape.triples,
        entity_alpha: shape.entity_alpha,
        relation_alpha: shape.relation_alpha,
        ..Default::default()
    }
    .build(seed)
}

/// 90/5/5 split; returns `(train, test)`.
pub fn split(kg: &KnowledgeGraph, seed: u64) -> (Vec<Triple>, Vec<Triple>) {
    let s = Split::ninety_five_five(kg, seed);
    (s.train, s.test)
}

pub fn num_triples(kg: &KnowledgeGraph) -> usize {
    kg.num_triples()
}

pub fn key_space(kg: &KnowledgeGraph) -> KeySpace {
    kg.key_space()
}

/// The head, relation and tail keys of `t`.
pub fn triple_keys(ks: KeySpace, t: Triple) -> [ParamKey; 3] {
    [
        ks.entity_key(t.head),
        ks.relation_key(t.relation),
        ks.entity_key(t.tail),
    ]
}

// ------------------------------------------------------------- partition

pub struct Partitioned {
    inner: Partitioning,
}

pub fn partition(kg: &KnowledgeGraph, parts: usize, seed: u64) -> Partitioned {
    Partitioned {
        inner: MetisLike::new(seed).partition(kg, parts),
    }
}

pub fn cut_fraction(kg: &KnowledgeGraph, p: &Partitioned) -> f64 {
    quality::cut_fraction(kg, &p.inner)
}

/// Triples per machine, as the trainer hands them to its workers.
pub fn split_by_machine(p: &Partitioned, triples: &[Triple]) -> Vec<Vec<Triple>> {
    p.inner.split_triples(triples)
}

// ----------------------------------------------------------------- train

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum System {
    HetKgDps,
    HetKgCps,
    DglKe,
}

#[derive(Clone)]
pub struct TrainSpec {
    pub system: System,
    pub int8_push: bool,
    /// `Some(path to hetkg)` runs the PS shards as real processes over UDS.
    pub uds_server_bin: Option<String>,
    pub epochs: usize,
    pub seed: u64,
}

pub const BATCH_SIZE: usize = 512;
pub const MACHINES: usize = 4;

fn train_config(spec: &TrainSpec) -> TrainConfig {
    let system = match spec.system {
        System::HetKgDps => SystemKind::HetKgDps,
        System::HetKgCps => SystemKind::HetKgCps,
        System::DglKe => SystemKind::DglKe,
    };
    // Paper defaults, then field assignment: robust to fields added later.
    let mut cfg = TrainConfig::paper(system, MODEL, DIM);
    cfg.batch_size = BATCH_SIZE;
    cfg.machines = MACHINES;
    cfg.epochs = spec.epochs;
    cfg.eval_candidates = None;
    cfg.seed = spec.seed;
    if spec.int8_push {
        cfg.compression = CompressionMode::Int8;
    }
    if let Some(bin) = &spec.uds_server_bin {
        cfg.transport = TransportKind::Uds;
        cfg.ps_server_bin = Some(bin.clone());
    }
    cfg
}

/// What one `train_with_store` call reported, as plain numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct TrainOutcome {
    pub epoch_loss_bits: Vec<u64>,
    pub sim_total_s: f64,
    pub sim_comm_s: f64,
    pub sim_compute_s: f64,
    pub sim_overlap_s: f64,
    pub traffic: Traffic,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub max_staleness: usize,
    /// Compressed ÷ dense push bytes (1.0 with compression off).
    pub push_ratio: f64,
    /// Slowest worker's kernel work units, summed over epochs.
    pub work_units: f64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Traffic {
    pub local_bytes: u64,
    pub local_messages: u64,
    pub remote_bytes: u64,
    pub remote_messages: u64,
    pub push_wire_bytes: u64,
    pub push_raw_bytes: u64,
}

impl From<TrafficSnapshot> for Traffic {
    fn from(t: TrafficSnapshot) -> Self {
        Self {
            local_bytes: t.local_bytes,
            local_messages: t.local_messages,
            remote_bytes: t.remote_bytes,
            remote_messages: t.remote_messages,
            push_wire_bytes: t.push_wire_bytes,
            push_raw_bytes: t.push_raw_bytes,
        }
    }
}

impl TrainOutcome {
    pub fn loss(&self, epoch: usize) -> f64 {
        f64::from_bits(self.epoch_loss_bits[epoch])
    }

    fn from_report(r: &TrainReport, cfg: &TrainConfig) -> Self {
        let traffic: Traffic = r.total_traffic().into();
        let cache = r.total_cache();
        Self {
            epoch_loss_bits: r.epochs.iter().map(|e| e.loss.to_bits()).collect(),
            sim_total_s: r.total_secs(),
            sim_comm_s: r.total_comm_secs(),
            sim_compute_s: r.total_compute_secs(),
            sim_overlap_s: r.total_overlap_secs(),
            traffic,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            max_staleness: r.max_staleness(),
            push_ratio: if traffic.push_raw_bytes == 0 {
                1.0
            } else {
                traffic.push_wire_bytes as f64 / traffic.push_raw_bytes as f64
            },
            work_units: r.total_compute_secs() * cfg.cost_model.compute_rate,
        }
    }
}

/// The trained parameter store, kept only to snapshot it for evaluation.
pub struct TrainedStore {
    store: Arc<KvStore>,
}

/// One `train_with_store` call. The trainer validates with `assert!`, so a
/// panic is the failure signal; it is turned into `Err` here.
pub fn train(
    kg: &KnowledgeGraph,
    triples: &[Triple],
    spec: &TrainSpec,
) -> Result<(TrainOutcome, TrainedStore), String> {
    let cfg = train_config(spec);
    let run = std::panic::AssertUnwindSafe(|| train_with_store(kg, triples, &[], &cfg));
    match std::panic::catch_unwind(run) {
        Ok((report, store)) => Ok((
            TrainOutcome::from_report(&report, &cfg),
            TrainedStore { store },
        )),
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "training panicked".into())),
    }
}

/// Simulated seconds the cost model charges for `t` (per-worker maxima are
/// not recoverable from totals; this is the all-traffic-on-one-link figure
/// the calibration compares against).
pub fn model_comm_secs(t: &Traffic, spec: &TrainSpec) -> f64 {
    let c = train_config(spec).cost_model;
    c.remote_time(t.remote_bytes, t.remote_messages) + c.local_time(t.local_bytes, t.local_messages)
}

// ------------------------------------------------------------------ eval

/// Filtered MRR of the store's current model on `test`, 1000 sampled
/// candidates per side, fixed candidate seed. Returns `(mrr, ranked)`.
pub fn evaluate_mrr(
    kg: &KnowledgeGraph,
    trained: &TrainedStore,
    test: &[Triple],
    candidates: usize,
) -> (f64, u64) {
    let snap = snapshot(&trained.store, kg.key_space());
    let model = MODEL.build(DIM);
    let m = evaluate(
        model.as_ref(),
        &snap,
        test,
        kg.triples(),
        &EvalConfig {
            filtered: true,
            max_candidates: Some(candidates),
            seed: 0x5EED_E7A1,
        },
    );
    (m.mrr(), m.count())
}

// ------------------------------------------------ embed (kernels, sampler)

/// Dense rows with seeded uniform values, standing in for embeddings.
pub struct Table(EmbeddingTable);

impl Table {
    pub fn random(rows: usize, seed: u64) -> Self {
        let mut t = EmbeddingTable::zeros(rows, DIM);
        Init::Uniform { bound: 0.5 }.fill(&mut t, seed);
        Self(t)
    }

    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        self.0.row(i)
    }

    pub fn rows(&self) -> usize {
        self.0.rows()
    }
}

pub struct Model(Box<dyn KgeModel>);

impl Model {
    pub fn new() -> Self {
        Self(MODEL.build(DIM))
    }

    #[inline]
    pub fn score(&self, h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        self.0.score(h, r, t)
    }

    #[inline]
    pub fn grad(&self, h: &[f32], r: &[f32], t: &[f32], g: &mut [Vec<f32>; 3]) {
        let [gh, gr, gt] = g;
        self.0.grad(h, r, t, 0.5, gh, gr, gt);
    }

    pub fn score_tails_block(
        &self,
        h: &[f32],
        r: &[f32],
        tails: &Table,
        ids: &[u32],
        out: &mut [f32],
        scratch: &mut Vec<f32>,
    ) {
        self.0.score_tails_block(h, r, &tails.0, ids, out, scratch);
    }
}

/// One training iteration's positives and negatives, sampled the way a
/// worker samples them.
pub struct Batch(MiniBatch);

impl Batch {
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.0
            .positives
            .iter()
            .copied()
            .chain(self.0.negatives.iter().map(|n| n.triple))
    }

    pub fn positives(&self) -> &[Triple] {
        &self.0.positives
    }
}

pub struct BatchSampler {
    prefetcher: Prefetcher,
    negatives: NegativeSampler,
}

impl BatchSampler {
    pub fn new(kg: &KnowledgeGraph, seed: u64) -> Self {
        Self {
            prefetcher: Prefetcher::new(BATCH_SIZE, kg.key_space(), seed),
            negatives: NegativeSampler::new(kg.num_entities(), NegConfig::default(), seed ^ 0x9E37),
        }
    }

    /// Returns the number of negatives produced.
    pub fn corrupt(&mut self, positives: &[Triple]) -> usize {
        let mut out = Vec::new();
        self.negatives.corrupt_batch(positives, &mut out);
        out.len()
    }

    /// Algorithm 1 over `depth` iterations; returns its batches.
    pub fn prefetch(&mut self, triples: &[Triple], depth: usize) -> Vec<Batch> {
        self.prefetcher
            .prefetch(triples, &mut self.negatives, depth)
            .batches
            .into_iter()
            .map(Batch)
            .collect()
    }
}

// ----------------------------------------------------------------- train

/// `compute_batch` over one batch whose rows are already in the working set.
pub struct ComputeProbe {
    model: Box<dyn KgeModel>,
    ks: KeySpace,
    ws: WorkingSet,
    grads: GradAccum,
    scratch: BatchScratch,
}

impl ComputeProbe {
    pub fn new(ks: KeySpace, keys: &[ParamKey], rows: &Table) -> Self {
        let mut ws = WorkingSet::new();
        for (i, &k) in keys.iter().enumerate() {
            ws.insert(k, rows.row(i % rows.rows()));
        }
        Self {
            model: MODEL.build(DIM),
            ks,
            ws,
            grads: GradAccum::new(),
            scratch: BatchScratch::default(),
        }
    }

    /// Returns the batch loss (so the work cannot be elided).
    pub fn run(&mut self, batch: &Batch) -> f64 {
        self.grads.clear();
        compute_batch(
            self.model.as_ref(),
            het_kg::embed::loss::LossKind::Logistic,
            self.ks,
            &batch.0,
            &self.ws,
            &mut self.grads,
            &mut self.scratch,
        )
        .loss
    }
}

// ------------------------------------------------------- core (hot table)

pub struct HotTable(HotEmbeddingTable);

impl HotTable {
    pub fn new(ks: KeySpace, entity_rows: usize, relation_rows: usize) -> Self {
        Self(HotEmbeddingTable::new(
            ks,
            entity_rows,
            relation_rows,
            DIM,
            DIM,
            1,
        ))
    }

    #[inline]
    pub fn get(&self, key: ParamKey) -> Option<&[f32]> {
        self.0.get(key)
    }

    #[inline]
    pub fn insert(&mut self, key: ParamKey, row: &[f32]) -> bool {
        self.0.insert(key, row).is_ok()
    }

    #[inline]
    pub fn refresh(&mut self, key: ParamKey, row: &[f32]) -> bool {
        self.0.refresh(key, row)
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }
}

// ------------------------------------------- netsim (frames, codec, stream)

pub struct Frame(WireFrame);

pub fn frame_seal(keys: Vec<u64>, payload: Vec<f32>) -> Frame {
    Frame(WireFrame::seal(keys, payload))
}

impl Frame {
    #[inline]
    pub fn verify(&self) -> bool {
        self.0.verify()
    }

    pub fn into_parts(self) -> (Vec<u64>, Vec<f32>) {
        (self.0.keys, self.0.payload)
    }

    pub fn write(&self, w: &mut Vec<u8>) -> std::io::Result<()> {
        stream::write_frame(w, 1, &self.0)
    }
}

/// Decode one message from `bytes`; returns the rows' float count.
pub fn stream_read(mut bytes: &[u8]) -> std::io::Result<usize> {
    stream::read_message(&mut bytes).map(|m| m.frame.payload.len())
}

pub fn int8_len() -> usize {
    encoded_len(Codec::Int8, DIM)
}

#[inline]
pub fn int8_encode(row: &[f32], out: &mut Vec<u8>, idx_scratch: &mut Vec<u32>) {
    encode_row(Codec::Int8, row, out, idx_scratch);
}

#[inline]
pub fn int8_decode(bytes: &[u8], out: &mut [f32]) {
    decode_row(Codec::Int8, bytes, out);
}

// ------------------------------------------------- ps (store, client, uds)

/// The paper-default optimizer every training workload runs.
fn optimizer_kind() -> OptimizerKind {
    TrainConfig::paper(SystemKind::DglKe, MODEL, DIM).optimizer
}

pub struct Store {
    store: Arc<KvStore>,
    optimizer: Box<dyn Optimizer>,
}

impl Store {
    /// `KvStore::new` exactly as the trainer builds it.
    pub fn new(kg: &KnowledgeGraph, p: &Partitioned, seed: u64) -> Self {
        let optimizer = optimizer_kind().build();
        let router = ShardRouter::new(kg.key_space(), MACHINES, p.inner.assignment());
        Self {
            store: Arc::new(KvStore::new(
                router,
                DIM,
                DIM,
                optimizer.state_width(),
                Init::Xavier,
                seed,
            )),
            optimizer,
        }
    }

    pub fn pull_many(&self, keys: &[ParamKey], sink: impl FnMut(usize, &[f32])) {
        self.store.pull_many(keys, sink);
    }

    pub fn push_grad_many(&self, keys: &[ParamKey], grads: &[&[f32]]) {
        self.store
            .push_grad_many(keys, grads, self.optimizer.as_ref());
    }
}

/// Four `hetkg ps-server` processes over Unix sockets, as the trainer
/// spawns them.
pub struct UdsCluster {
    cluster: ProcessCluster,
    transport: Arc<het_kg::ps::ProcessTransport>,
}

impl UdsCluster {
    pub fn spawn(
        bin: &str,
        kg: &KnowledgeGraph,
        p: &Partitioned,
        seed: u64,
    ) -> std::io::Result<Self> {
        let server = ShardServerConfig {
            num_entities: kg.num_entities(),
            num_relations: kg.num_relations(),
            entity_shard: p.inner.assignment().to_vec(),
            num_shards: MACHINES,
            entity_dim: DIM,
            relation_dim: DIM,
            init: Init::Xavier,
            seed,
            optimizer: optimizer_kind(),
        };
        let cluster = ProcessCluster::spawn(Path::new(bin), &server, SocketMode::Uds)?;
        let transport = Arc::new(cluster.transport());
        Ok(Self { cluster, transport })
    }

    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.transport.send_shutdown()?;
        self.cluster.wait()
    }
}

/// Worker 0's PS client with its reusable scratch.
pub struct Client<'s> {
    client: PsClient,
    scratch: PsScratch,
    store: &'s Store,
}

impl<'s> Client<'s> {
    pub fn new(store: &'s Store, int8_push: bool, uds: Option<&UdsCluster>) -> Self {
        let mut client = PsClient::new(
            0,
            ClusterTopology::new(MACHINES, 1),
            store.store.clone(),
            Arc::new(TrafficMeter::new()),
        );
        if let Some(u) = uds {
            let t: Arc<dyn Transport> = u.transport.clone();
            client = client.with_transport(t);
        }
        let mut scratch = PsScratch::new();
        if int8_push {
            scratch.set_compression(CompressionMode::Int8);
        }
        Self {
            client,
            scratch,
            store,
        }
    }

    pub fn pull(&mut self, keys: &[ParamKey], sink: impl FnMut(usize, &[f32])) -> bool {
        self.client
            .try_pull_batch_with(keys, &mut self.scratch, sink)
            .is_ok()
    }

    pub fn push(&mut self, keys: &[ParamKey], grads: &[&[f32]]) -> bool {
        self.client
            .try_push_batch_with(
                keys,
                grads,
                self.store.optimizer.as_ref(),
                &mut self.scratch,
            )
            .is_ok()
    }
}

// ----------------------------------------------------------------- serve

pub const SERVE_SHARDS: usize = 4;

/// A model image with seeded uniform rows.
pub struct Image(Checkpoint);

impl Image {
    pub fn random(entities: usize, relations: usize, seed: u64) -> Self {
        let e = Table::random(entities, seed);
        let r = Table::random(relations, seed ^ 0xA5A5);
        Self(Checkpoint::new(e.0, r.0))
    }

    #[inline]
    pub fn entity_row(&self, id: u32) -> &[f32] {
        self.0.entities.row(id as usize)
    }

    pub fn bytes(&self) -> usize {
        (self.0.entities.as_slice().len() + self.0.relations.as_slice().len()) * 4
    }
}

/// `CheckpointStore::save` into `dir` (creating the store on first use).
pub fn checkpoint_save(dir: &Path, image: &Image, epoch: u64) -> Result<(), String> {
    let mut store = CheckpointStore::open(dir, 4).map_err(|e| e.to_string())?;
    store
        .save(&image.0, epoch)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// `CheckpointStore::load_latest`; returns the decoded image's bytes.
pub fn checkpoint_load(dir: &Path) -> Result<usize, String> {
    let store = CheckpointStore::open(dir, 4).map_err(|e| e.to_string())?;
    let loaded = store.load_latest().map_err(|e| e.to_string())?;
    Ok(Image(loaded.checkpoint).bytes())
}

pub struct Snapshot(ServingSnapshot);

pub fn snapshot_from_image(image: &Image, seq: u64) -> Snapshot {
    Snapshot(ServingSnapshot::from_checkpoint(
        &image.0,
        seq,
        seq,
        SERVE_SHARDS,
    ))
}

pub struct Engine {
    engine: ServeEngine,
    cell: Arc<SnapshotCell>,
}

/// A cold start: newest valid checkpoint under `dir` → sharded snapshot →
/// engine with an empty hot-row cache of `cache_rows`.
pub fn engine_cold_start(dir: &Path, cache_rows: usize) -> Result<Engine, String> {
    let snap = ServingSnapshot::load_latest(dir, SERVE_SHARDS).map_err(|e| e.to_string())?;
    let cell = Arc::new(SnapshotCell::new(snap));
    let engine =
        ServeEngine::new(cell.clone(), MODEL.build(DIM), cache_rows).map_err(|e| e.to_string())?;
    Ok(Engine { engine, cell })
}

pub struct Scratch<'e>(ServeScratch<'e>);

impl Engine {
    pub fn scratch(&self) -> Scratch<'_> {
        Scratch(self.engine.scratch())
    }

    #[inline]
    pub fn lookup_entity(&self, id: u32, out: &mut Vec<f32>) -> bool {
        self.engine.lookup_entity(id, out).is_ok()
    }

    pub fn topk_tails(
        &self,
        s: &mut Scratch<'_>,
        h: u32,
        r: u32,
        k: usize,
    ) -> Option<Vec<(u32, f32)>> {
        self.engine.topk_tails(&mut s.0, h, r, k).ok()
    }

    pub fn topk_tails_scalar(
        &self,
        s: &mut Scratch<'_>,
        h: u32,
        r: u32,
        k: usize,
    ) -> Option<Vec<(u32, f32)>> {
        self.engine.topk_tails_scalar(&mut s.0, h, r, k).ok()
    }

    /// `(hits, misses)` of the hot-row cache since the last reset.
    pub fn cache_stats(&self) -> (u64, u64) {
        let s = self.engine.cache().stats();
        (s.hits, s.misses)
    }

    pub fn cache_reset_stats(&self) {
        self.engine.cache().reset_stats();
    }

    pub fn publish(&self, snap: Snapshot) {
        self.cell.publish(snap.0);
    }
}

/// One pre-generated serving request.
#[derive(Clone, Copy)]
pub enum Request {
    Lookup(u32),
    TopK(u32, u32),
}

/// The program's own seeded request generator: Zipf(1.0) entities over a
/// seeded permutation, uniform relations, `topk_share` of the requests top-k.
/// Generation happens here, before any timing; the engine only ever sees the
/// resulting arrays.
fn request_stream(
    entities: usize,
    relations: u32,
    topk_share: f64,
    seed: u64,
) -> impl Iterator<Item = Request> {
    let zipf = Arc::new(ZipfSampler::new(entities, 1.0, seed));
    let mut stream = QueryStream::new(zipf, relations, topk_share, seed ^ 0x51AB);
    std::iter::repeat_with(move || match stream.next_query() {
        Query::Entity(e) => Request::Lookup(e),
        Query::TopK { h, r } => Request::TopK(h, r),
    })
}

pub fn gen_requests(
    entities: usize,
    relations: u32,
    topk_share: f64,
    n: usize,
    seed: u64,
) -> Vec<Request> {
    request_stream(entities, relations, topk_share, seed)
        .take(n)
        .collect()
}

/// `n` lookup ids: a request stream with no top-k, kept as bare ids.
pub fn gen_lookup_ids(entities: usize, n: usize, seed: u64) -> Vec<u32> {
    request_stream(entities, 1, 0.0, seed)
        .take(n)
        .map(|q| match q {
            Request::Lookup(e) | Request::TopK(e, _) => e,
        })
        .collect()
}
