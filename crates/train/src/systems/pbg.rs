//! The PyTorch-BigGraph baseline: block-partitioned training (§III-B).
//!
//! Entities are split into `P` partitions; triples fall into `P×P` *edge
//! buckets* by their endpoints' partitions. A lock server hands buckets to
//! workers so no two concurrently-trained buckets share a partition. Per
//! bucket a worker:
//!
//! 1. loads the two entity partitions and the relation table from shared
//!    storage (metered — this is PBG's bucket-swap overhead);
//! 2. trains on the bucket's triples with *local* entity updates (no
//!    per-batch entity communication — PBG's strength);
//! 3. pushes relation gradients to the shared server as **dense** weights —
//!    every relation row, every batch (PBG's weakness: "treats relation
//!    embeddings as dense model weights, which increases the amount of
//!    parameter transfer");
//! 4. saves the entity partitions back.
//!
//! Negatives are corrupted within the loaded partitions, as PBG must.
//!
//! Every metered operation is posted to the worker's two-lane timeline
//! with its true data dependencies, whether or not the run pipelines: chunk
//! computes wait for the bucket load and the latest relation re-pull,
//! dense pushes wait for the compute that produced their gradients, and
//! the final partition save waits for the last chunk. PBG's schedule is
//! almost a pure chain — each dense push feeds the re-pull feeding the
//! next chunk — so its critical path sits close to `comm + compute`;
//! the block structure that saves PBG entity traffic is also what keeps
//! its communication on the critical path.
//!
//! A unit of work is one bucket. The worker's `WorkerCtx` keeps the epoch's
//! books; all PBG adds to an epoch is opening its lock server's.

use crate::batch::BatchResult;
use crate::worker::{retries_exhausted, WorkerCtx, WorkerLoop};
use hetkg_core::prefetch::MiniBatch;
use hetkg_embed::negative::{CorruptSlot, Negative};
use hetkg_kgraph::{EntityId, ParamKey, Triple};
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Static block structure shared by all PBG workers.
#[derive(Debug)]
pub struct PbgPlan {
    /// Entity partition of each entity id.
    pub part_of: Vec<u16>,
    /// Entities per partition.
    pub parts: Vec<Vec<EntityId>>,
    /// Edge buckets: `(source part, dest part) → triples`.
    pub buckets: Vec<((u16, u16), Vec<Triple>)>,
    /// Negatives per positive.
    pub per_positive: usize,
}

impl PbgPlan {
    /// Partition entities round-robin into `num_parts` and bucket `triples`.
    pub fn new(
        num_entities: usize,
        triples: &[Triple],
        num_parts: usize,
        per_positive: usize,
        seed: u64,
    ) -> Self {
        assert!(num_parts >= 1);
        let mut order: Vec<u32> = (0..num_entities as u32).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut part_of = vec![0u16; num_entities];
        let mut parts = vec![Vec::new(); num_parts];
        for (rank, &e) in order.iter().enumerate() {
            let p = (rank % num_parts) as u16;
            part_of[e as usize] = p;
            parts[p as usize].push(EntityId(e));
        }
        let mut bucket_map: HashMap<(u16, u16), Vec<Triple>> = HashMap::new();
        for &t in triples {
            let key = (part_of[t.head.index()], part_of[t.tail.index()]);
            bucket_map.entry(key).or_default().push(t);
        }
        let mut buckets: Vec<_> = bucket_map.into_iter().collect();
        buckets.sort_by_key(|&(k, _)| k);
        Self {
            part_of,
            parts,
            buckets,
            per_positive,
        }
    }
}

/// Lock-server state: which buckets remain this epoch and which partitions
/// are currently locked by an active worker.
#[derive(Debug, Default)]
struct LockState {
    epoch: Option<usize>,
    /// Indices into `plan.buckets` not yet processed this epoch.
    pending: Vec<usize>,
    /// Partitions held by active workers.
    locked: Vec<bool>,
    /// Buckets handed out but not finished.
    in_flight: usize,
}

/// The shared lock server.
#[derive(Debug)]
pub struct LockServer {
    plan: Arc<PbgPlan>,
    state: Mutex<LockState>,
    cv: Condvar,
}

impl LockServer {
    /// Lock server over a plan.
    pub fn new(plan: Arc<PbgPlan>) -> Self {
        let num_parts = plan.parts.len();
        Self {
            plan,
            state: Mutex::new(LockState {
                epoch: None,
                pending: Vec::new(),
                locked: vec![false; num_parts],
                in_flight: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// First caller of each epoch refills the bucket queue.
    fn begin_epoch(&self, epoch: usize) {
        let mut s = self.state.lock();
        if s.epoch != Some(epoch) {
            s.epoch = Some(epoch);
            s.pending = (0..self.plan.buckets.len()).collect();
            s.in_flight = 0;
            for l in &mut s.locked {
                *l = false;
            }
            self.cv.notify_all();
        }
    }

    /// Acquire a bucket whose partitions are free; `None` when the epoch's
    /// work is exhausted.
    fn acquire(&self) -> Option<usize> {
        let mut s = self.state.lock();
        loop {
            if s.pending.is_empty() && s.in_flight == 0 {
                return None;
            }
            let found = s.pending.iter().position(|&bi| {
                let ((a, b), _) = self.plan.buckets[bi];
                !s.locked[a as usize] && !s.locked[b as usize]
            });
            if let Some(pos) = found {
                let bi = s.pending.swap_remove(pos);
                let ((a, b), _) = self.plan.buckets[bi];
                s.locked[a as usize] = true;
                s.locked[b as usize] = true;
                s.in_flight += 1;
                return Some(bi);
            }
            // Everything runnable is blocked on locked partitions: wait for
            // a release (with a timeout so shutdown can't hang).
            self.cv
                .wait_for(&mut s, std::time::Duration::from_millis(50));
        }
    }

    /// Release a bucket's partitions.
    fn release(&self, bucket: usize) {
        let mut s = self.state.lock();
        let ((a, b), _) = self.plan.buckets[bucket];
        s.locked[a as usize] = false;
        s.locked[b as usize] = false;
        s.in_flight -= 1;
        self.cv.notify_all();
    }
}

/// How many batches of relation gradients accumulate between dense pushes.
/// PBG pushes relation updates to its shared parameter server
/// asynchronously, batching several training steps per round trip.
const RELATION_PUSH_INTERVAL: usize = 4;

/// Per-worker PBG training state.
pub struct PbgWorker {
    ctx: WorkerCtx,
    plan: Arc<PbgPlan>,
    locks: Arc<LockServer>,
    rng: StdRng,
    /// All relation keys (the dense weight set).
    relation_keys: Vec<ParamKey>,
    /// Learning rate for the local (in-bucket) entity SGD steps.
    entity_lr: f32,
}

impl PbgWorker {
    /// Build a PBG worker over the shared plan and lock server. `entity_lr`
    /// is the step size for the local in-bucket entity SGD (PBG trains
    /// entities locally; the server-side optimizer only sees relations).
    pub fn new(
        ctx: WorkerCtx,
        plan: Arc<PbgPlan>,
        locks: Arc<LockServer>,
        seed: u64,
        entity_lr: f32,
    ) -> Self {
        let relation_keys: Vec<ParamKey> = (0..ctx.key_space.num_relations())
            .map(|r| {
                ctx.key_space
                    .relation_key(hetkg_kgraph::RelationId(r as u32))
            })
            .collect();
        let rng = StdRng::seed_from_u64(seed ^ (ctx.worker_id as u64).wrapping_mul(0xABCDEF));
        Self {
            ctx,
            plan,
            locks,
            rng,
            relation_keys,
            entity_lr,
        }
    }

    /// Process one bucket.
    fn process_bucket(&mut self, bucket: usize) -> BatchResult {
        let ((pa, pb), _) = self.plan.buckets[bucket];
        let triples = self.plan.buckets[bucket].1.clone();

        // --- 1. Load the two partitions + the relation table ---
        let mut entity_keys: Vec<ParamKey> = Vec::new();
        for &part in &[pa, pb] {
            for &e in &self.plan.parts[part as usize] {
                entity_keys.push(self.ctx.key_space.entity_key(e));
            }
        }
        if pa == pb {
            entity_keys.truncate(self.plan.parts[pa as usize].len());
        }
        self.ctx.ws.clear();
        let before = self.ctx.meter.snapshot();
        {
            let ws = &mut self.ctx.ws;
            self.ctx
                .client
                .try_pull_batch_with(&entity_keys, &mut self.ctx.ps, |i, row| {
                    ws.insert(entity_keys[i], row)
                })
                .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
            let rel_keys = &self.relation_keys;
            self.ctx
                .client
                .try_pull_batch_with(rel_keys, &mut self.ctx.ps, |i, row| {
                    ws.insert(rel_keys[i], row)
                })
                .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
        }
        let load_delta = self.ctx.meter.snapshot().since(before);
        // `ready` carries the completion time of the comm event the next
        // chunk's compute depends on: first the bucket load, then each
        // relation re-pull.
        let mut ready = self.ctx.post_comm(load_delta, 0.0);

        // Loaded entity universe for in-bucket corruption.
        let loaded: Vec<EntityId> = {
            let mut v: Vec<EntityId> = self.plan.parts[pa as usize].clone();
            if pa != pb {
                v.extend(self.plan.parts[pb as usize].iter().copied());
            }
            v
        };

        // --- 2+3. Mini-batch training with dense relation pushes ---
        let mut acc = BatchResult::default();
        // Relation gradients since the last dense push: one row per
        // relation, zeros for the ones no batch touched.
        let rel_dim = self.ctx.model.relation_dim();
        let first_rel = self.ctx.key_space.num_entities();
        let mut rel_grads = vec![0.0f32; self.relation_keys.len() * rel_dim];
        let mut batches_since_push = 0usize;
        let mut last_compute_end = 0.0f64;
        let num_chunks = triples.chunks(self.ctx.batch_size).count();
        for (ci, chunk) in triples.chunks(self.ctx.batch_size).enumerate() {
            let batch = self.corrupt_in_bucket(chunk, &loaded);
            let result = crate::batch::compute_batch(
                self.ctx.model.as_ref(),
                self.ctx.loss,
                self.ctx.key_space,
                &batch,
                &self.ctx.ws,
                &mut self.ctx.grads,
                &mut self.ctx.scratch,
            );
            let compute_end = self.ctx.post_compute(result.work_units, ready);
            acc.absorb(result);

            for (k, g) in self.ctx.grads.iter() {
                if self.ctx.key_space.is_entity(k) {
                    // Entities: a local SGD-style step on the working copy
                    // (sparse, free).
                    let slot = self.ctx.ws.slot_of(k).expect("bucket rows are resident");
                    let lr = self.entity_lr;
                    for (x, &gi) in self.ctx.ws.row_mut(slot).iter_mut().zip(g) {
                        *x -= lr * gi;
                    }
                } else {
                    // Relations accumulate until the next dense push.
                    let at = (k.index() - first_rel) * rel_dim;
                    for (b, &gi) in rel_grads[at..at + rel_dim].iter_mut().zip(g) {
                        *b += gi;
                    }
                }
            }
            self.ctx.grads.clear();
            batches_since_push += 1;

            // Relations: DENSE push — every relation row, zeros included —
            // every RELATION_PUSH_INTERVAL batches and at bucket end.
            if batches_since_push >= RELATION_PUSH_INTERVAL || ci + 1 == num_chunks {
                let before = self.ctx.meter.snapshot();
                self.ctx
                    .client
                    .try_push_coalesced_rows(
                        &self.relation_keys,
                        &[],
                        |i| &rel_grads[i * rel_dim..(i + 1) * rel_dim],
                        self.ctx.optimizer.as_ref(),
                        &mut self.ctx.ps,
                    )
                    .unwrap_or_else(|e| retries_exhausted("push_batch", e));
                let push_delta = self.ctx.meter.snapshot().since(before);
                // The push carries this chunk's gradients; the re-pull
                // follows it on the comm lane and gates the next chunk.
                self.ctx.post_comm(push_delta, compute_end);
                rel_grads.fill(0.0);
                batches_since_push = 0;
                // Refresh local relation copies from the server (they moved).
                let before = self.ctx.meter.snapshot();
                {
                    let ws = &mut self.ctx.ws;
                    let rel_keys = &self.relation_keys;
                    self.ctx
                        .client
                        .try_pull_batch_with(rel_keys, &mut self.ctx.ps, |i, row| {
                            ws.insert(rel_keys[i], row)
                        })
                        .unwrap_or_else(|e| retries_exhausted("pull_batch", e));
                }
                let repull_delta = self.ctx.meter.snapshot().since(before);
                ready = self.ctx.post_comm(repull_delta, 0.0);
            }
            last_compute_end = compute_end;
        }

        // --- 4. Save the partitions back ---
        let before = self.ctx.meter.snapshot();
        {
            let values: Vec<&[f32]> = entity_keys.iter().map(|&k| self.ctx.ws.get(k)).collect();
            self.ctx
                .client
                .try_write_batch_with(&entity_keys, &values, &mut self.ctx.ps)
                .unwrap_or_else(|e| retries_exhausted("write_batch", e));
        }
        let save_delta = self.ctx.meter.snapshot().since(before);
        self.ctx.post_comm(save_delta, last_compute_end);

        acc
    }

    /// Corrupt positives within the loaded entity set.
    fn corrupt_in_bucket(&mut self, positives: &[Triple], loaded: &[EntityId]) -> MiniBatch {
        let mut negatives = Vec::with_capacity(positives.len() * self.plan.per_positive);
        for (i, &p) in positives.iter().enumerate() {
            for k in 0..self.plan.per_positive {
                let e = loaded[self.rng.random_range(0..loaded.len())];
                let (triple, slot) = if (i + k) % 2 == 0 {
                    (p.with_head(e), CorruptSlot::Head)
                } else {
                    (p.with_tail(e), CorruptSlot::Tail)
                };
                negatives.push(Negative { triple, slot });
            }
        }
        MiniBatch {
            positives: positives.to_vec(),
            negatives,
        }
    }
}

impl WorkerLoop for PbgWorker {
    fn ctx(&mut self) -> &mut WorkerCtx {
        &mut self.ctx
    }

    fn unit(&mut self) -> Option<BatchResult> {
        // One unit = one bucket, acquired and released within the unit, so
        // under the trainer's round-robin schedule partitions are always
        // free at unit boundaries and `acquire` never waits. PBG has no
        // degraded mode: bucket loads/saves during an outage retry until
        // the shard recovers.
        let bucket = self.locks.acquire()?;
        let result = self.process_bucket(bucket);
        self.locks.release(bucket);
        Some(result)
    }

    fn begin_system_epoch(&mut self, epoch: usize) {
        self.locks.begin_epoch(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::init::Init;
    use hetkg_embed::loss::LossKind;
    use hetkg_embed::ModelKind;
    use hetkg_kgraph::generator::SyntheticKg;
    use hetkg_kgraph::KnowledgeGraph;
    use hetkg_netsim::{ClusterTopology, TrafficMeter};
    use hetkg_ps::optimizer::AdaGrad;
    use hetkg_ps::{KvStore, PsClient, ShardRouter};

    fn graph() -> KnowledgeGraph {
        SyntheticKg {
            num_entities: 60,
            num_relations: 4,
            num_triples: 300,
            ..Default::default()
        }
        .build(5)
    }

    fn build_workers(g: &KnowledgeGraph, num_workers: usize) -> Vec<PbgWorker> {
        let ks = g.key_space();
        let router = ShardRouter::round_robin(ks, num_workers);
        let store = Arc::new(KvStore::new(
            router,
            8,
            8,
            1,
            Init::Uniform { bound: 0.2 },
            1,
        ));
        let plan = Arc::new(PbgPlan::new(
            g.num_entities(),
            g.triples(),
            2 * num_workers,
            4,
            7,
        ));
        let locks = Arc::new(LockServer::new(plan.clone()));
        (0..num_workers)
            .map(|w| {
                let meter = Arc::new(TrafficMeter::new());
                let client = PsClient::new(
                    w,
                    ClusterTopology::new(num_workers, 1),
                    store.clone(),
                    meter.clone(),
                );
                let ctx = WorkerCtx::new(
                    w,
                    vec![], // PBG takes triples from buckets, not a subgraph
                    ks,
                    client,
                    meter,
                    ModelKind::TransEL2.build(8).into(),
                    LossKind::Logistic,
                    Arc::new(AdaGrad::new(0.1)),
                    32,
                );
                PbgWorker::new(ctx, plan.clone(), locks.clone(), 3, 0.1)
            })
            .collect()
    }

    #[test]
    fn plan_buckets_cover_all_triples() {
        let g = graph();
        let plan = PbgPlan::new(g.num_entities(), g.triples(), 4, 2, 1);
        let total: usize = plan.buckets.iter().map(|(_, t)| t.len()).sum();
        assert_eq!(total, g.num_triples());
        // Every triple's endpoints match its bucket.
        for ((pa, pb), triples) in &plan.buckets {
            for t in triples {
                assert_eq!(plan.part_of[t.head.index()], *pa);
                assert_eq!(plan.part_of[t.tail.index()], *pb);
            }
        }
    }

    #[test]
    fn plan_partitions_are_balanced() {
        let plan = PbgPlan::new(100, &[], 4, 2, 1);
        for p in &plan.parts {
            assert_eq!(p.len(), 25);
        }
    }

    #[test]
    fn single_worker_epoch_processes_every_bucket() {
        let g = graph();
        let mut workers = build_workers(&g, 1);
        let stats = workers[0].run_epoch(0);
        assert!(stats.loss_terms > 0);
        assert!(stats.traffic.total_bytes() > 0);
    }

    #[test]
    fn two_workers_split_the_buckets() {
        let g = graph();
        let mut workers = build_workers(&g, 2);
        let mut w1 = workers.pop().unwrap();
        let mut w0 = workers.pop().unwrap();
        let (s0, s1) = std::thread::scope(|s| {
            let h0 = s.spawn(move || (w0.run_epoch(0), w0));
            let h1 = s.spawn(move || (w1.run_epoch(0), w1));
            let (s0, _) = h0.join().unwrap();
            let (s1, _) = h1.join().unwrap();
            (s0, s1)
        });
        // All triples trained exactly once across the two workers
        // (loss_terms = positives + negatives per batch; both workers did
        // some work unless the lock order starved one, which the planted
        // sizes make unlikely).
        assert!(s0.loss_terms + s1.loss_terms > 0);
        assert!(s0.loss_terms > 0 || s1.loss_terms > 0);
    }

    #[test]
    fn relation_pushes_are_dense_and_dominant() {
        // PBG's defining cost: relation traffic scales with the relation
        // table size, not the batch's touched relations.
        let g = graph();
        let mut workers = build_workers(&g, 1);
        let stats = workers[0].run_epoch(0);
        // Dense pushes: ~10 batches × 4 relations × (8 dims × 4 B + 8).
        let dense_floor = 9 * 4 * (8 * 4);
        assert!(
            stats.traffic.total_bytes() > dense_floor,
            "bytes {} below dense floor {dense_floor}",
            stats.traffic.total_bytes()
        );
    }

    #[test]
    fn lock_server_never_double_locks_a_partition() {
        let plan = Arc::new(PbgPlan::new(40, &[], 4, 2, 1));
        let locks = LockServer::new(plan.clone());
        locks.begin_epoch(0);
        // Plan has no triples => no buckets => acquire returns None.
        assert_eq!(locks.acquire(), None);
    }

    #[test]
    fn training_reduces_loss() {
        let g = graph();
        let mut workers = build_workers(&g, 1);
        let first = workers[0].run_epoch(0);
        let mut last = first;
        for e in 1..6 {
            last = workers[0].run_epoch(e);
        }
        assert!(
            last.loss_sum / (last.loss_terms as f64) < first.loss_sum / (first.loss_terms as f64)
        );
    }
}
