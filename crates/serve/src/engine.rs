//! The query engine: point lookups and batched top-k over the current
//! snapshot.
//!
//! One [`ServeEngine`] is shared by every worker thread (`&self` methods
//! only). Each query loads the snapshot `Arc` once and answers entirely
//! against it, so a concurrent hot swap can never mix rows from two
//! checkpoints inside one answer. Top-k scoring reuses the offline
//! evaluator's blocked kernels ([`hetkg_eval::BatchScorer`]) shard by
//! shard, so an online answer for `(h, r, ?)` is bit-identical to the
//! rank order the offline protocol would assign — and deterministic under
//! ties ([`hetkg_eval::TopK`]'s id tiebreak).

use crate::cache::HotRowCache;
use crate::snapshot::{ServingSnapshot, SnapshotCell};
use hetkg_embed::checkpoint::CheckpointError;
use hetkg_embed::models::KgeModel;
use hetkg_eval::{BatchScorer, TopK};
use std::fmt;
use std::sync::Arc;

/// Typed serving failures.
#[derive(Debug)]
pub enum ServeError {
    /// The checkpoint store had no loadable checkpoint (or IO failed).
    Checkpoint(CheckpointError),
    /// Entity id out of range for the current snapshot.
    UnknownEntity {
        /// The requested id.
        id: u32,
        /// Entity rows in the snapshot that rejected it.
        num_entities: usize,
    },
    /// Relation id out of range for the current snapshot.
    UnknownRelation {
        /// The requested id.
        id: u32,
        /// Relation rows in the snapshot that rejected it.
        num_relations: usize,
    },
    /// The model's embedding width disagrees with the checkpoint's.
    DimMismatch {
        /// Width the model scores with.
        model_entity_dim: usize,
        /// Width the checkpoint stores.
        table_dim: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Checkpoint(e) => write!(f, "checkpoint load failed: {e}"),
            ServeError::UnknownEntity { id, num_entities } => {
                write!(f, "unknown entity {id} (snapshot has {num_entities})")
            }
            ServeError::UnknownRelation { id, num_relations } => {
                write!(f, "unknown relation {id} (snapshot has {num_relations})")
            }
            ServeError::DimMismatch {
                model_entity_dim,
                table_dim,
            } => write!(
                f,
                "model entity dim {model_entity_dim} != checkpoint dim {table_dim} \
                 (wrong --model/--dim for this checkpoint?)"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-worker reusable buffers for the query path.
///
/// Holds the blocked scorer's scratch plus row/score buffers, so a worker
/// thread serving millions of queries stops allocating after its first
/// few. Obtain via [`ServeEngine::scratch`]; one per thread.
pub struct ServeScratch<'e> {
    scorer: BatchScorer<'e>,
    h: Vec<f32>,
    r: Vec<f32>,
    scores: Vec<f32>,
}

/// The shared, thread-safe serving engine.
pub struct ServeEngine {
    cell: Arc<SnapshotCell>,
    model: Box<dyn KgeModel>,
    cache: HotRowCache,
}

impl ServeEngine {
    /// An engine over `cell` scoring with `model`, caching up to
    /// `cache_rows` hot entity rows. Validates the model's width against
    /// the current snapshot.
    pub fn new(
        cell: Arc<SnapshotCell>,
        model: Box<dyn KgeModel>,
        cache_rows: usize,
    ) -> Result<Self, ServeError> {
        let snap = cell.load();
        if model.entity_dim() != snap.entities.dim() {
            return Err(ServeError::DimMismatch {
                model_entity_dim: model.entity_dim(),
                table_dim: snap.entities.dim(),
            });
        }
        let cache = HotRowCache::new(cache_rows, snap.entities.dim(), snap.entities.rows());
        Ok(Self { cell, model, cache })
    }

    /// The model scoring queries.
    pub fn model(&self) -> &dyn KgeModel {
        self.model.as_ref()
    }

    /// The hot-row cache (stats, warm-up).
    pub fn cache(&self) -> &HotRowCache {
        &self.cache
    }

    /// The snapshot currently being served.
    pub fn snapshot(&self) -> Arc<ServingSnapshot> {
        self.cell.load()
    }

    /// Fresh per-worker scratch.
    pub fn scratch(&self) -> ServeScratch<'_> {
        ServeScratch {
            scorer: BatchScorer::new(self.model.as_ref()),
            h: Vec::new(),
            r: Vec::new(),
            scores: Vec::new(),
        }
    }

    /// Copy entity `id`'s embedding into `out` (hot cache first).
    pub fn lookup_entity(&self, id: u32, out: &mut Vec<f32>) -> Result<(), ServeError> {
        let snap = self.cell.load();
        self.entity_row(&snap, id, out)
    }

    /// Fetch one entity row against a pinned snapshot, through the cache.
    fn entity_row(
        &self,
        snap: &ServingSnapshot,
        id: u32,
        out: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        let n = snap.entities.rows();
        if id as usize >= n {
            return Err(ServeError::UnknownEntity {
                id,
                num_entities: n,
            });
        }
        if self.cache.get(id, snap.seq, out) {
            return Ok(());
        }
        let row = snap.entities.row(id as usize);
        out.clear();
        out.extend_from_slice(row);
        self.cache.admit(id, snap.seq, row);
        Ok(())
    }

    /// The best `k` tails for `(h, r, ?)`, best first, scored with the
    /// blocked kernels shard by shard. Ties break toward the smaller
    /// entity id, so the answer is deterministic for a given snapshot.
    pub fn topk_tails(
        &self,
        scratch: &mut ServeScratch<'_>,
        h: u32,
        r: u32,
        k: usize,
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        let snap = self.cell.load();
        let nrel = snap.relations.rows();
        if r as usize >= nrel {
            return Err(ServeError::UnknownRelation {
                id: r,
                num_relations: nrel,
            });
        }
        // Split borrows so the head buffer and the scorer coexist.
        let ServeScratch {
            scorer,
            h: hbuf,
            r: rbuf,
            scores,
        } = scratch;
        self.entity_row(&snap, h, hbuf)?;
        rbuf.clear();
        rbuf.extend_from_slice(snap.relations.row(r as usize));

        let mut topk = TopK::new(k.max(1));
        let mut ids: Vec<u32> = Vec::new();
        for shard in snap.entities.shards() {
            let rows = shard.table.rows();
            if rows == 0 {
                continue;
            }
            if ids.len() < rows {
                ids.extend(ids.len() as u32..rows as u32);
            }
            scores.resize(rows, 0.0);
            scorer.score_tails(&shard.table, hbuf, rbuf, &ids[..rows], &mut scores[..rows]);
            let base = shard.start as u32;
            for (i, &s) in scores[..rows].iter().enumerate() {
                topk.offer(s, base + i as u32);
            }
        }
        Ok(topk.into_sorted())
    }

    /// Per-candidate scalar baseline for [`ServeEngine::topk_tails`]:
    /// one virtual `score` call per entity, exactly the shape the offline
    /// evaluator used before the blocked kernels. Kept as the honest
    /// speedup baseline for the serving benchmark; results are
    /// bit-identical to the batched path by the block-kernel contract.
    pub fn topk_tails_scalar(
        &self,
        scratch: &mut ServeScratch<'_>,
        h: u32,
        r: u32,
        k: usize,
    ) -> Result<Vec<(u32, f32)>, ServeError> {
        let snap = self.cell.load();
        let nrel = snap.relations.rows();
        if r as usize >= nrel {
            return Err(ServeError::UnknownRelation {
                id: r,
                num_relations: nrel,
            });
        }
        let ServeScratch {
            h: hbuf, r: rbuf, ..
        } = scratch;
        self.entity_row(&snap, h, hbuf)?;
        rbuf.clear();
        rbuf.extend_from_slice(snap.relations.row(r as usize));

        let mut topk = TopK::new(k.max(1));
        let model = self.model.as_ref();
        for shard in snap.entities.shards() {
            let base = shard.start as u32;
            for i in 0..shard.table.rows() {
                let s = model.score(hbuf, rbuf, shard.table.row(i));
                topk.offer(s, base + i as u32);
            }
        }
        Ok(topk.into_sorted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::checkpoint::Checkpoint;
    use hetkg_embed::init::Init;
    use hetkg_embed::models::ModelKind;
    use hetkg_embed::storage::EmbeddingTable;

    fn engine(kind: ModelKind, seed: u64) -> ServeEngine {
        let model = kind.build(8);
        let mut entities = EmbeddingTable::zeros(200, model.entity_dim());
        let mut relations = EmbeddingTable::zeros(4, model.relation_dim());
        Init::Uniform { bound: 0.8 }.fill(&mut entities, seed);
        Init::Uniform { bound: 0.8 }.fill(&mut relations, seed + 1);
        let ck = Checkpoint::new(entities, relations);
        let cell = Arc::new(SnapshotCell::new(ServingSnapshot::from_checkpoint(
            &ck, 0, 0, 3,
        )));
        ServeEngine::new(cell, model, 64).unwrap()
    }

    #[test]
    fn lookup_returns_the_snapshot_row() {
        let eng = engine(ModelKind::TransEL2, 5);
        let snap = eng.snapshot();
        let mut out = Vec::new();
        eng.lookup_entity(17, &mut out).unwrap();
        assert_eq!(out, snap.entities.row(17));
        // Second lookup may come from cache; identical either way.
        eng.lookup_entity(17, &mut out).unwrap();
        assert_eq!(out, snap.entities.row(17));
    }

    #[test]
    fn out_of_range_ids_are_typed_errors() {
        let eng = engine(ModelKind::TransEL2, 5);
        let mut out = Vec::new();
        assert!(matches!(
            eng.lookup_entity(10_000, &mut out),
            Err(ServeError::UnknownEntity { id: 10_000, .. })
        ));
        let mut scratch = eng.scratch();
        assert!(matches!(
            eng.topk_tails(&mut scratch, 0, 99, 5),
            Err(ServeError::UnknownRelation { id: 99, .. })
        ));
        assert!(matches!(
            eng.topk_tails(&mut scratch, 10_000, 0, 5),
            Err(ServeError::UnknownEntity { .. })
        ));
    }

    #[test]
    fn batched_topk_matches_scalar_bit_for_bit_every_model() {
        for kind in ModelKind::all() {
            let eng = engine(kind, 9);
            let mut scratch = eng.scratch();
            for (h, r) in [(0u32, 0u32), (33, 1), (199, 3)] {
                let fast = eng.topk_tails(&mut scratch, h, r, 10).unwrap();
                let slow = eng.topk_tails_scalar(&mut scratch, h, r, 10).unwrap();
                assert_eq!(fast, slow, "{kind} ({h}, {r})");
                assert_eq!(fast.len(), 10);
                // Best-first and strictly ordered under the tie rule.
                for w in fast.windows(2) {
                    assert!(w[0].1 >= w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
                }
            }
        }
    }

    #[test]
    fn topk_is_identical_across_shard_counts() {
        let kind = ModelKind::DistMult;
        let model = kind.build(8);
        let mut entities = EmbeddingTable::zeros(150, model.entity_dim());
        let mut relations = EmbeddingTable::zeros(3, model.relation_dim());
        Init::Uniform { bound: 0.8 }.fill(&mut entities, 3);
        Init::Uniform { bound: 0.8 }.fill(&mut relations, 4);
        let ck = Checkpoint::new(entities, relations);
        let mut answers = Vec::new();
        for shards in [1, 2, 7, 150] {
            let cell = Arc::new(SnapshotCell::new(ServingSnapshot::from_checkpoint(
                &ck, 0, 0, shards,
            )));
            let eng = ServeEngine::new(cell, kind.build(8), 0).unwrap();
            let mut scratch = eng.scratch();
            answers.push(eng.topk_tails(&mut scratch, 5, 1, 7).unwrap());
        }
        for a in &answers[1..] {
            assert_eq!(a, &answers[0]);
        }
    }

    #[test]
    fn dim_mismatch_is_rejected_at_construction() {
        let model = ModelKind::TransEL2.build(16); // checkpoint below is dim 8
        let entities = EmbeddingTable::zeros(10, 8);
        let relations = EmbeddingTable::zeros(2, 8);
        let ck = Checkpoint::new(entities, relations);
        let cell = Arc::new(SnapshotCell::new(ServingSnapshot::from_checkpoint(
            &ck, 0, 0, 1,
        )));
        assert!(matches!(
            ServeEngine::new(cell, model, 8),
            Err(ServeError::DimMismatch { .. })
        ));
    }
}
