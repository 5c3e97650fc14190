//! Presets matching the paper's three evaluation datasets (Table II).
//!
//! | Dataset      | entities   | triples     | relations |
//! |--------------|-----------:|------------:|----------:|
//! | FB15k        | 14,951     | 592,213     | 1,345     |
//! | WN18         | 40,943     | 151,442     | 18        |
//! | Freebase-86m | 86,054,151 | 338,586,276 | 14,824    |
//!
//! `fb15k_like()` / `wn18_like()` return full-size configurations;
//! `freebase86m_like()` is pre-scaled to 1/86th (≈1M entities) because the
//! full parameter table (86M × d floats) does not fit on a single machine —
//! see DESIGN.md. Call [`SyntheticKg::scale`] to shrink further for tests.
//!
//! The Zipf exponents are chosen so the generated access-frequency skew
//! reproduces §IV-B's measurement on FB15k: the top 1% of entities /
//! relations account for ≈6% / ≈36% of embedding usage.

use crate::generator::SyntheticKg;

/// Statistics of the published datasets, for documentation and scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetStats {
    /// Published entity count.
    pub entities: usize,
    /// Published triple count.
    pub triples: usize,
    /// Published relation count.
    pub relations: usize,
}

/// Published FB15k statistics.
pub const FB15K: DatasetStats = DatasetStats {
    entities: 14_951,
    triples: 592_213,
    relations: 1_345,
};
/// Published WN18 statistics.
pub const WN18: DatasetStats = DatasetStats {
    entities: 40_943,
    triples: 151_442,
    relations: 18,
};
/// Published Freebase-86m statistics.
pub const FREEBASE_86M: DatasetStats = DatasetStats {
    entities: 86_054_151,
    triples: 338_586_276,
    relations: 14_824,
};

/// FB15k-shaped synthetic generator (full published size).
///
/// Moderate entity skew, strong relation skew (1,345 relations over 592k
/// triples, heavily concentrated).
pub fn fb15k_like() -> SyntheticKg {
    SyntheticKg {
        num_entities: FB15K.entities,
        num_relations: FB15K.relations,
        num_triples: FB15K.triples,
        entity_alpha: 0.85,
        relation_alpha: 1.1,
        forbid_loops: true,
        dedup: true,
    }
}

/// WN18-shaped synthetic generator (full published size).
///
/// Only 18 relations: each relation is extremely hot, which is why the paper
/// finds caching especially effective on WN18.
pub fn wn18_like() -> SyntheticKg {
    SyntheticKg {
        num_entities: WN18.entities,
        num_relations: WN18.relations,
        num_triples: WN18.triples,
        entity_alpha: 0.75,
        relation_alpha: 0.9,
        forbid_loops: true,
        dedup: true,
    }
}

/// Freebase-86m-shaped synthetic generator, pre-scaled to ≈1M entities /
/// ≈3.9M triples (1/86th of published size; same skew).
pub fn freebase86m_like() -> SyntheticKg {
    SyntheticKg {
        num_entities: FREEBASE_86M.entities,
        num_relations: FREEBASE_86M.relations,
        num_triples: FREEBASE_86M.triples,
        entity_alpha: 1.0,
        relation_alpha: 1.2,
        forbid_loops: true,
        // Dedup over 338M (even scaled, millions of) triples costs memory but
        // stays affordable at the default 1/86 scale.
        dedup: true,
    }
    .scale(1.0 / 86.0)
}

/// A preset's command-line name, its generator and the fraction of it the
/// experiment harness builds.
pub type HarnessPreset = (&'static str, fn() -> SyntheticKg, f64);

/// Each preset with the fraction of it the experiment harness and `hetkg
/// --synthetic` build: ~2-6% of published size (Freebase: of the 1/86
/// preset), large enough for the skew statistics to be stable.
pub const HARNESS: [HarnessPreset; 3] = [
    ("fb15k", fb15k_like, 0.05),
    ("wn18", wn18_like, 0.10),
    ("freebase86m", freebase86m_like, 0.01),
];

/// The [`HARNESS`] preset named `name` at its harness scale.
pub fn harness(name: &str) -> Option<SyntheticKg> {
    let (_, preset, scale) = HARNESS.iter().find(|(n, ..)| *n == name)?;
    Some(preset().scale(*scale))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_published_shapes() {
        let fb = fb15k_like();
        assert_eq!(fb.num_entities, 14_951);
        assert_eq!(fb.num_relations, 1_345);
        let wn = wn18_like();
        assert_eq!(wn.num_relations, 18);
        let fbm = freebase86m_like();
        // pre-scaled to ~1/86
        assert!(fbm.num_entities > 900_000 && fbm.num_entities < 1_100_000);
        assert!(fbm.num_triples > 3_500_000 && fbm.num_triples < 4_500_000);
    }

    #[test]
    fn small_fb15k_builds() {
        let g = fb15k_like().scale(0.01).build(1);
        assert!(g.num_triples() > 1_000);
        assert!(g.num_entities() > 100);
    }

    #[test]
    fn fb15k_frequency_concentration_resembles_paper() {
        // §IV-B: on FB15k the top 1% of relations occupy ~36% of usage and
        // the top 1% of entities ~6%. Check the synthetic shape is in the
        // right ballpark (generous bands: this is a shape test).
        let g = fb15k_like().scale(0.1).build(9);
        let mut rel = g.relation_frequencies();
        rel.sort_unstable_by(|a, b| b.cmp(a));
        let top1pct = (rel.len() / 100).max(1);
        let rel_share: u64 = rel[..top1pct].iter().sum();
        let rel_frac = rel_share as f64 / g.num_triples() as f64;
        assert!(
            rel_frac > 0.15 && rel_frac < 0.75,
            "top-1% relation share {rel_frac} out of band"
        );

        let mut deg = g.entity_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        let topent = (deg.len() / 100).max(1);
        let ent_share: u64 = deg[..topent].iter().sum();
        let total: u64 = deg.iter().sum();
        let ent_frac = ent_share as f64 / total as f64;
        assert!(
            ent_frac > 0.02 && ent_frac < 0.4,
            "top-1% entity share {ent_frac} out of band"
        );
        // Relations must be hotter than entities (node heterogeneity).
        assert!(rel_frac > ent_frac);
    }
}
