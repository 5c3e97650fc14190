//! Workload presets for the experiment harness.
//!
//! Each paper dataset gets a harness-sized preset: the same *shape*
//! (entity/relation ratio, skew) at a scale that runs on one machine in
//! minutes. `--full` on the `repro` binary switches to the published sizes
//! (slow; the Freebase preset stays at 1/86 scale regardless — see
//! DESIGN.md).

use hetkg_embed::ModelKind;
use hetkg_kgraph::generator::SyntheticKg;
use hetkg_kgraph::split::Split;
use hetkg_kgraph::{datasets, KnowledgeGraph, Triple};
use hetkg_train::{SystemKind, TrainConfig};
use serde::{Deserialize, Serialize};

/// The benchmark's graph shape (`benchmark/src/train.rs`): `entities`
/// entities, four times as many triples, 200 relations at skew 1.1 —
/// built at `seed` with its 90/5/5 split.
pub(crate) fn bench_graph(
    entities: usize,
    entity_alpha: f64,
    seed: u64,
) -> (KnowledgeGraph, Split) {
    let kg = SyntheticKg {
        num_entities: entities,
        num_relations: 200,
        num_triples: 4 * entities,
        entity_alpha,
        relation_alpha: 1.1,
        ..Default::default()
    }
    .build(seed);
    let split = Split::ninety_five_five(&kg, seed);
    (kg, split)
}

/// The benchmark's training configuration: TransE-L2 with Table II's
/// hyperparameters on 4 machines, no evaluation during training.
pub(crate) fn bench_config(
    system: SystemKind,
    dim: usize,
    batch: usize,
    epochs: usize,
    seed: u64,
) -> TrainConfig {
    let mut cfg = TrainConfig::paper(system, ModelKind::TransEL2, dim);
    cfg.batch_size = batch;
    cfg.machines = 4;
    cfg.epochs = epochs;
    cfg.eval_candidates = None;
    cfg.seed = seed;
    cfg
}

/// Which paper dataset a workload mimics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dataset {
    /// FB15k (14,951 entities / 1,345 relations / 592,213 triples).
    Fb15k,
    /// WN18 (40,943 entities / 18 relations / 151,442 triples).
    Wn18,
    /// Freebase-86m (scaled; see DESIGN.md).
    Freebase86m,
}

impl Dataset {
    /// All three, in the paper's order.
    pub fn all() -> [Dataset; 3] {
        [Dataset::Fb15k, Dataset::Wn18, Dataset::Freebase86m]
    }

    /// Display name used in tables.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Fb15k => "FB15k",
            Dataset::Wn18 => "WN18",
            Dataset::Freebase86m => "Freebase-86m",
        }
    }

    /// The generator preset at harness scale (`full = false`) or published
    /// scale (`full = true`).
    pub fn generator(self, full: bool) -> SyntheticKg {
        // `datasets::HARNESS` lists the presets in this enum's order.
        let (_, preset, scale) = datasets::HARNESS[self as usize];
        if full {
            preset()
        } else {
            preset().scale(scale)
        }
    }

    /// Build the graph deterministically.
    pub fn build(self, full: bool, seed: u64) -> KnowledgeGraph {
        self.generator(full).build(seed)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fully materialized workload: graph + splits + a bounded eval subset.
pub struct Workload {
    /// Which dataset shape this is.
    pub dataset: Dataset,
    /// The graph.
    pub kg: KnowledgeGraph,
    /// 90/5/5 split.
    pub split: Split,
    /// Bounded evaluation subset (validation triples, capped).
    pub eval_set: Vec<Triple>,
}

impl Workload {
    /// Materialize a dataset at harness or full scale.
    pub fn new(dataset: Dataset, full: bool, seed: u64) -> Self {
        let kg = dataset.build(full, seed);
        let split = Split::ninety_five_five(&kg, seed);
        let eval_set: Vec<Triple> = split.valid.iter().copied().take(200).collect();
        Self {
            dataset,
            kg,
            split,
            eval_set,
        }
    }

    /// One-line description for experiment headers.
    pub fn describe(&self) -> String {
        format!(
            "{}: {} entities / {} relations / {} triples",
            self.dataset,
            self.kg.num_entities(),
            self.kg.num_relations(),
            self.kg.num_triples()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_scale_is_tractable() {
        for d in Dataset::all() {
            let g = d.generator(false);
            assert!(g.num_triples <= 60_000, "{d}: {} triples", g.num_triples);
            assert!(g.num_entities >= 100, "{d}");
        }
    }

    #[test]
    fn full_scale_matches_published_shapes() {
        assert_eq!(Dataset::Fb15k.generator(true).num_relations, 1_345);
        assert_eq!(Dataset::Wn18.generator(true).num_relations, 18);
    }

    #[test]
    fn each_dataset_builds_the_harness_preset_of_its_name() {
        for d in Dataset::all() {
            let name = d.name().to_lowercase().replace('-', "");
            let preset = datasets::harness(&name).map(|g| format!("{g:?}"));
            assert_eq!(preset, Some(format!("{:?}", d.generator(false))), "{d}");
        }
    }

    #[test]
    fn workload_materializes_with_eval_subset() {
        let w = Workload::new(Dataset::Wn18, false, 3);
        assert!(!w.split.train.is_empty());
        assert!(w.eval_set.len() <= 200);
        assert!(!w.eval_set.is_empty());
        assert!(w.describe().contains("WN18"));
    }
}
