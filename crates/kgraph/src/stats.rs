//! Access-frequency statistics — the paper's Fig. 2 micro-benchmark.
//!
//! The motivation for HET-KG is that embedding accesses during training are
//! heavily skewed: a few "hot" entities/relations dominate, and relations
//! are hotter than entities. [`AccessCounter`] tallies accesses over a
//! workload (each triple touches its head, relation, and tail; negative
//! samples touch the corrupting entities too), and the summary functions
//! compute the top-share numbers quoted in §IV-B.

use crate::ids::{KeySpace, ParamKey};
use crate::triple::Triple;

/// Tallies how many times each embedding (entity or relation) is accessed.
#[derive(Debug, Clone)]
pub struct AccessCounter {
    key_space: KeySpace,
    counts: Vec<u64>,
}

impl AccessCounter {
    /// Fresh counter for a graph's key space.
    pub fn new(key_space: KeySpace) -> Self {
        Self {
            key_space,
            counts: vec![0; key_space.len()],
        }
    }

    /// The key space being counted.
    pub fn key_space(&self) -> KeySpace {
        self.key_space
    }

    /// Record one access of a key.
    #[inline]
    pub fn record(&mut self, key: ParamKey) {
        self.counts[key.index()] += 1;
    }

    /// Record a positive triple: head, relation, and tail each accessed once.
    #[inline]
    pub fn record_triple(&mut self, t: Triple) {
        self.counts[self.key_space.entity_key(t.head).index()] += 1;
        self.counts[self.key_space.relation_key(t.relation).index()] += 1;
        self.counts[self.key_space.entity_key(t.tail).index()] += 1;
    }

    /// Record a batch of triples.
    pub fn record_batch(&mut self, triples: &[Triple]) {
        for &t in triples {
            self.record_triple(t);
        }
    }

    /// Raw count for a key.
    #[inline]
    pub fn count(&self, key: ParamKey) -> u64 {
        self.counts[key.index()]
    }

    /// All counts, indexed by `ParamKey`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total accesses recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total accesses to entity embeddings.
    pub fn entity_total(&self) -> u64 {
        self.counts[..self.key_space.num_entities()].iter().sum()
    }

    /// Total accesses to relation embeddings.
    pub fn relation_total(&self) -> u64 {
        self.counts[self.key_space.num_entities()..].iter().sum()
    }

    /// Fraction of *entity* accesses captured by the hottest
    /// `top_frac` (e.g. 0.01 = top 1%) of entities.
    pub fn entity_top_share(&self, top_frac: f64) -> f64 {
        top_share(&self.counts[..self.key_space.num_entities()], top_frac)
    }

    /// Fraction of *relation* accesses captured by the hottest `top_frac` of
    /// relations.
    pub fn relation_top_share(&self, top_frac: f64) -> f64 {
        top_share(&self.counts[self.key_space.num_entities()..], top_frac)
    }

    /// Mean accesses per relation divided by mean accesses per entity — the
    /// "node heterogeneity" factor. Values ≫ 1 mean relations are much
    /// hotter, as Fig. 2 observes.
    pub fn heterogeneity_factor(&self) -> f64 {
        let ne = self.key_space.num_entities().max(1) as f64;
        let nr = self.key_space.num_relations().max(1) as f64;
        let me = self.entity_total() as f64 / ne;
        let mr = self.relation_total() as f64 / nr;
        if me == 0.0 {
            f64::INFINITY
        } else {
            mr / me
        }
    }
}

/// Share of total mass held by the largest `top_frac` fraction of values.
fn top_share(values: &[u64], top_frac: f64) -> f64 {
    assert!((0.0..=1.0).contains(&top_frac), "top_frac must be in [0,1]");
    if values.is_empty() {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let k = ((values.len() as f64 * top_frac).ceil() as usize).clamp(1, values.len());
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top: u64 = sorted[..k].iter().sum();
    top as f64 / total as f64
}

/// Gini coefficient of a count vector — a single-number skew summary used in
/// experiment reports (0 = uniform, →1 = fully concentrated).
pub fn gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut weighted = 0.0f64;
    for (i, &v) in sorted.iter().enumerate() {
        weighted += (i as f64 + 1.0) * v as f64;
    }
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::SyntheticKg;

    #[test]
    fn record_triple_touches_three_keys() {
        let ks = KeySpace::new(4, 2);
        let mut c = AccessCounter::new(ks);
        c.record_triple(Triple::new(0, 1, 3));
        assert_eq!(c.total(), 3);
        assert_eq!(c.count(ParamKey(0)), 1); // head
        assert_eq!(c.count(ParamKey(3)), 1); // tail
        assert_eq!(c.count(ParamKey(5)), 1); // relation 1 at offset 4
        assert_eq!(c.entity_total(), 2);
        assert_eq!(c.relation_total(), 1);
    }

    #[test]
    fn top_share_extremes() {
        assert_eq!(top_share(&[10, 0, 0, 0], 0.25), 1.0);
        assert!((top_share(&[1, 1, 1, 1], 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(top_share(&[], 0.5), 0.0);
        assert_eq!(top_share(&[0, 0], 0.5), 0.0);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5, 5, 5, 5]).abs() < 1e-12);
        // One hot value among many zeros approaches 1 - 1/n.
        let g = gini(&[100, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(g > 0.85, "gini {g}");
    }

    #[test]
    fn synthetic_workload_shows_relation_heterogeneity() {
        let g = SyntheticKg {
            num_entities: 2_000,
            num_relations: 40,
            num_triples: 20_000,
            ..Default::default()
        }
        .build(4);
        let mut c = AccessCounter::new(g.key_space());
        c.record_batch(g.triples());
        // Far fewer relations than entities, one relation access per triple:
        // heterogeneity must be large.
        assert!(c.heterogeneity_factor() > 5.0);
        // And the relation counts are skewed.
        let relations = &c.counts()[g.num_entities()..];
        assert!(relations.iter().max() > relations.iter().min());
        assert!(c.relation_top_share(0.1) > 0.2);
    }
}
