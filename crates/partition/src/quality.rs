//! Partition quality metrics: edge cut, entity balance, cross-triple
//! fraction, and the balance of the triples each machine trains.
//!
//! These feed both the partitioner tests and the `partition-ablation`
//! experiment (METIS-like vs random) in the bench harness.

use crate::partitioning::Partitioning;
use hetkg_kgraph::{KnowledgeGraph, Triple};

/// Number of triples whose endpoints live in different partitions.
pub fn edge_cut(kg: &KnowledgeGraph, p: &Partitioning) -> usize {
    kg.triples()
        .iter()
        .filter(|&&t| !p.is_local_triple(t))
        .count()
}

/// Fraction of triples cut, in `[0, 1]`.
pub fn cut_fraction(kg: &KnowledgeGraph, p: &Partitioning) -> f64 {
    if kg.num_triples() == 0 {
        return 0.0;
    }
    edge_cut(kg, p) as f64 / kg.num_triples() as f64
}

/// Load balance: largest part size divided by the ideal size. 1.0 = perfect.
pub fn balance(p: &Partitioning) -> f64 {
    let sizes = p.part_sizes();
    let total: usize = sizes.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / p.num_parts() as f64;
    let max = *sizes.iter().max().expect("at least one part") as f64;
    max / ideal
}

/// Work balance: the largest part of [`Partitioning::split_triples`] over
/// `triples` divided by the ideal `n / P`. 1.0 = every machine trains the
/// same number of triples per epoch.
pub fn home_balance(triples: &[Triple], p: &Partitioning) -> f64 {
    if triples.is_empty() {
        return 1.0;
    }
    let ideal = triples.len() as f64 / p.num_parts() as f64;
    let max = p.split_triples(triples).iter().map(Vec::len).max();
    max.expect("at least one part") as f64 / ideal
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> KnowledgeGraph {
        KnowledgeGraph::new(
            4,
            1,
            vec![
                Triple::new(0, 0, 1),
                Triple::new(2, 0, 3),
                Triple::new(0, 0, 3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn edge_cut_counts_cross_triples() {
        let g = toy();
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert_eq!(edge_cut(&g, &p), 1);
        assert!((cut_fraction(&g, &p) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_in_one_part_cuts_nothing() {
        let g = toy();
        let p = Partitioning::new(1, vec![0, 0, 0, 0]);
        assert_eq!(edge_cut(&g, &p), 0);
        assert_eq!(balance(&p), 1.0);
    }

    #[test]
    fn balance_detects_skew() {
        let p = Partitioning::new(2, vec![0, 0, 0, 1]);
        // max 3 vs ideal 2 -> 1.5
        assert!((balance(&p) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn home_balance_is_the_largest_trained_share() {
        let g = toy();
        // The cut triple (0, 3) has two appearances at each end, so it trains
        // with its head on part 0: parts of 2 and 1 against an ideal of 1.5.
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert!((home_balance(g.triples(), &p) - 2.0 / 1.5).abs() < 1e-12);
        assert_eq!(
            home_balance(g.triples(), &Partitioning::new(1, vec![0; 4])),
            1.0
        );
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = KnowledgeGraph::new(0, 0, vec![]).unwrap();
        let p = Partitioning::new(2, vec![]);
        assert_eq!(cut_fraction(&g, &p), 0.0);
        assert_eq!(balance(&p), 1.0);
        assert_eq!(home_balance(g.triples(), &p), 1.0);
    }
}
