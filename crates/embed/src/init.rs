//! Embedding initialization.
//!
//! DGL-KE (and therefore the paper) initializes embeddings uniformly in
//! `[-γ/d, γ/d]`-style ranges; we provide the two standard schemes. All
//! initializers are deterministic in the seed so distributed runs can
//! initialize shards independently yet reproducibly.

use crate::storage::EmbeddingTable;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Initialization scheme for an embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Init {
    /// Uniform in `[-bound, bound]`.
    Uniform {
        /// Half-width of the interval.
        bound: f32,
    },
    /// Xavier/Glorot-style uniform: `[-sqrt(6/(fan_in+fan_out)), +...]`,
    /// with both fans equal to the embedding dimension.
    Xavier,
}

impl Init {
    /// Fill `table` in place, deterministically from `seed`.
    pub fn fill(self, table: &mut EmbeddingTable, seed: u64) {
        let dim = table.dim();
        let bound = match self {
            Init::Uniform { bound } => bound,
            Init::Xavier => (6.0 / (dim as f64 + dim as f64)).sqrt() as f32,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        for v in table.as_mut_slice() {
            *v = rng.random_range(-bound..=bound);
        }
    }

    /// Initialize a single row (used when a shard materializes rows lazily).
    /// The seed is mixed with the row key so every row has its own stream.
    pub fn fill_row(self, row: &mut [f32], seed: u64, key: u64) {
        let bound = match self {
            Init::Uniform { bound } => bound,
            Init::Xavier => {
                let d = row.len() as f64;
                (6.0 / (d + d)).sqrt() as f32
            }
        };
        // SplitMix-style mixing so adjacent keys decorrelate.
        let mixed = seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(mixed);
        for v in row {
            *v = rng.random_range(-bound..=bound);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_respects_bound() {
        let mut t = EmbeddingTable::zeros(100, 16);
        Init::Uniform { bound: 0.5 }.fill(&mut t, 1);
        assert!(t.as_slice().iter().all(|v| v.abs() <= 0.5));
        // Not all zero.
        assert!(t.as_slice().iter().any(|v| v.abs() > 1e-6));
    }

    #[test]
    fn deterministic_in_seed() {
        let mut a = EmbeddingTable::zeros(10, 8);
        let mut b = EmbeddingTable::zeros(10, 8);
        Init::Xavier.fill(&mut a, 7);
        Init::Xavier.fill(&mut b, 7);
        assert_eq!(a, b);
        let mut c = EmbeddingTable::zeros(10, 8);
        Init::Xavier.fill(&mut c, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn per_row_streams_differ_by_key() {
        let mut r1 = vec![0.0f32; 8];
        let mut r2 = vec![0.0f32; 8];
        let init = Init::Uniform { bound: 1.0 };
        init.fill_row(&mut r1, 3, 10);
        init.fill_row(&mut r2, 3, 11);
        assert_ne!(r1, r2);
        // Same (seed, key) reproduces.
        let mut r3 = vec![0.0f32; 8];
        init.fill_row(&mut r3, 3, 10);
        assert_eq!(r1, r3);
    }

    #[test]
    fn xavier_bound_scales_with_dim() {
        let mut wide = EmbeddingTable::zeros(50, 256);
        Init::Xavier.fill(&mut wide, 1);
        let max_wide = wide.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let mut narrow = EmbeddingTable::zeros(50, 4);
        Init::Xavier.fill(&mut narrow, 1);
        let max_narrow = narrow.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max_wide < max_narrow);
    }
}
