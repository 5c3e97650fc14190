//! Algorithm 2 — `filter`: pick the top-k hot embeddings from a prefetched
//! access list.
//!
//! Frequencies are counted over `L_er`, sorted descending, and the top-k
//! keys become the hot set. The paper's node-heterogeneity fix is the
//! *entity ratio*: relations are accessed far more often per key than
//! entities (Fig. 2), so naive top-k fills the cache with relations and
//! starves entity locality. HET-KG therefore fixes the split — 25% entities
//! / 75% relations by default (Fig. 8c finds this optimum). `HET-KG-N`
//! (Table VII) is the ablation with the split disabled.

use hetkg_kgraph::{KeySpace, ParamKey};
use serde::{Deserialize, Serialize};

/// Configuration for hot-set selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FilterConfig {
    /// Total cache capacity k (rows).
    pub capacity: usize,
    /// Fraction of capacity reserved for entities when
    /// `heterogeneity_aware` (paper default 0.25).
    pub entity_fraction: f64,
    /// Apply the fixed entity/relation split. `false` = HET-KG-N.
    pub heterogeneity_aware: bool,
}

impl FilterConfig {
    /// The paper's default: heterogeneity-aware, 25% entities.
    pub fn paper_default(capacity: usize) -> Self {
        Self {
            capacity,
            entity_fraction: 0.25,
            heterogeneity_aware: true,
        }
    }

    /// The HET-KG-N ablation: plain frequency top-k.
    pub fn naive(capacity: usize) -> Self {
        Self {
            capacity,
            entity_fraction: 0.0,
            heterogeneity_aware: false,
        }
    }
}

/// The selected hot keys, split by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotSet {
    /// Hot entity keys, most frequent first.
    pub entities: Vec<ParamKey>,
    /// Hot relation keys, most frequent first.
    pub relations: Vec<ParamKey>,
}

impl HotSet {
    /// All hot keys (entities then relations).
    pub fn keys(&self) -> impl Iterator<Item = ParamKey> + '_ {
        self.entities.iter().chain(self.relations.iter()).copied()
    }

    /// Total selected keys.
    pub fn len(&self) -> usize {
        self.entities.len() + self.relations.len()
    }

    /// Whether nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Algorithm 2: count frequencies in `accesses`, sort descending, keep the
/// top-k under `config`'s capacity and split rules. Ties break toward lower
/// key ids, so the result is deterministic.
///
/// Keys are dense ids below `key_space.len()`, so the count is an array
/// indexed by key (one zeroed word per key, no hashing per access); keys
/// are collected the first time they are seen.
pub fn filter_hot_set(accesses: &[ParamKey], key_space: KeySpace, config: &FilterConfig) -> HotSet {
    let mut counts = vec![0u32; key_space.len()];
    let mut seen: Vec<ParamKey> = Vec::new();
    for &k in accesses {
        let c = &mut counts[k.index()];
        if *c == 0 {
            seen.push(k);
        }
        *c += 1;
    }
    let mut entities: Vec<(ParamKey, u64)> = Vec::new();
    let mut relations: Vec<(ParamKey, u64)> = Vec::new();
    for k in seen {
        let c = u64::from(counts[k.index()]);
        if key_space.is_entity(k) {
            entities.push((k, c));
        } else {
            relations.push((k, c));
        }
    }
    select_hot_set(entities, relations, key_space, config)
}

/// The selection half of Algorithm 2, over per-key counts in any order
/// (the sort is by a total order, so the input order does not matter).
fn select_hot_set(
    mut entities: Vec<(ParamKey, u64)>,
    mut relations: Vec<(ParamKey, u64)>,
    key_space: KeySpace,
    config: &FilterConfig,
) -> HotSet {
    let by_freq_desc = |a: &(ParamKey, u64), b: &(ParamKey, u64)| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    entities.sort_by(by_freq_desc);
    relations.sort_by(by_freq_desc);

    if config.heterogeneity_aware {
        let ent_quota = ((config.capacity as f64 * config.entity_fraction).round() as usize)
            .min(config.capacity);
        let rel_quota = config.capacity - ent_quota;
        let take_e = ent_quota.min(entities.len());
        let take_r = rel_quota.min(relations.len());
        // Unused quota of one kind spills over to the other (a small cache
        // should never sit half-empty because one kind ran out of keys).
        let spare = (ent_quota - take_e) + (rel_quota - take_r);
        let extra_e = spare.min(entities.len() - take_e);
        let extra_r = (spare - extra_e).min(relations.len() - take_r);
        HotSet {
            entities: entities[..take_e + extra_e]
                .iter()
                .map(|&(k, _)| k)
                .collect(),
            relations: relations[..take_r + extra_r]
                .iter()
                .map(|&(k, _)| k)
                .collect(),
        }
    } else {
        // Plain top-k over the merged list.
        let mut all = entities;
        all.extend(relations);
        all.sort_by(by_freq_desc);
        all.truncate(config.capacity);
        let mut ents = Vec::new();
        let mut rels = Vec::new();
        for (k, _) in all {
            if key_space.is_entity(k) {
                ents.push(k);
            } else {
                rels.push(k);
            }
        }
        HotSet {
            entities: ents,
            relations: rels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The counting this module had before the key-indexed array: a SipHash
    /// map, an insert per access. Kept as the oracle the array count is
    /// pinned against; no runtime path uses it.
    fn filter_hot_set_hashed(
        accesses: &[ParamKey],
        key_space: KeySpace,
        config: &FilterConfig,
    ) -> HotSet {
        let mut counts: HashMap<ParamKey, u64> = HashMap::new();
        for &k in accesses {
            *counts.entry(k).or_insert(0) += 1;
        }
        let (entities, relations) = counts
            .into_iter()
            .partition(|&(k, _)| key_space.is_entity(k));
        select_hot_set(entities, relations, key_space, config)
    }

    #[test]
    fn array_count_selects_exactly_what_the_hash_map_count_did() {
        // A skewed, tie-heavy access list over a few hundred keys, under
        // every split rule and around every capacity edge.
        let ks = KeySpace::new(300, 12);
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut accesses = Vec::new();
        for _ in 0..6000 {
            let r = next();
            // Squaring a uniform draw skews toward low ids; ties abound.
            let u = (r % 1000) as f64 / 1000.0;
            let key = if r % 5 == 0 {
                300 + ((u * u * 12.0) as u64).min(11)
            } else {
                ((u * u * 300.0) as u64).min(299)
            };
            accesses.push(ParamKey(key));
        }
        for capacity in [0, 1, 7, 12, 13, 100, 311, 312, 400] {
            for config in [
                FilterConfig::paper_default(capacity),
                FilterConfig::naive(capacity),
                FilterConfig {
                    capacity,
                    entity_fraction: 0.9,
                    heterogeneity_aware: true,
                },
            ] {
                assert_eq!(
                    filter_hot_set(&accesses, ks, &config),
                    filter_hot_set_hashed(&accesses, ks, &config),
                    "{config:?}"
                );
            }
        }
        assert_eq!(
            filter_hot_set(&[], ks, &FilterConfig::paper_default(8)),
            filter_hot_set_hashed(&[], ks, &FilterConfig::paper_default(8)),
        );
    }

    /// Accesses where relation keys (10, 11) are far hotter than entities.
    fn skewed_accesses(ks: KeySpace) -> Vec<ParamKey> {
        let mut acc = Vec::new();
        // entities 0..5 with descending frequency 10, 8, 6, 4, 2
        for (i, &f) in [10u64, 8, 6, 4, 2].iter().enumerate() {
            for _ in 0..f {
                acc.push(ParamKey(i as u64));
            }
        }
        // relations 10, 11 with frequency 50, 40
        for _ in 0..50 {
            acc.push(ks.relation_key(hetkg_kgraph::RelationId(0)));
        }
        for _ in 0..40 {
            acc.push(ks.relation_key(hetkg_kgraph::RelationId(1)));
        }
        acc
    }

    #[test]
    fn naive_topk_prefers_relations() {
        let ks = KeySpace::new(10, 2);
        let acc = skewed_accesses(ks);
        let hot = filter_hot_set(&acc, ks, &FilterConfig::naive(3));
        // Frequencies: r0=50, r1=40, e0=10 — relations dominate.
        assert_eq!(hot.relations.len(), 2);
        assert_eq!(hot.entities.len(), 1);
        assert_eq!(hot.entities[0], ParamKey(0));
    }

    #[test]
    fn heterogeneity_split_reserves_entity_slots() {
        let ks = KeySpace::new(10, 2);
        let acc = skewed_accesses(ks);
        let cfg = FilterConfig {
            capacity: 4,
            entity_fraction: 0.5,
            heterogeneity_aware: true,
        };
        let hot = filter_hot_set(&acc, ks, &cfg);
        assert_eq!(hot.entities.len(), 2);
        assert_eq!(hot.relations.len(), 2);
        // Entities are the two most frequent ones.
        assert_eq!(hot.entities, vec![ParamKey(0), ParamKey(1)]);
    }

    #[test]
    fn selection_is_by_descending_frequency() {
        let ks = KeySpace::new(10, 2);
        let acc = skewed_accesses(ks);
        let hot = filter_hot_set(&acc, ks, &FilterConfig::paper_default(4));
        // 25% of 4 = 1 entity slot; 3 relation slots but only 2 relations
        // exist — the spare slot spills to entities.
        assert_eq!(hot.relations, vec![ParamKey(10), ParamKey(11)]);
        assert_eq!(hot.entities, vec![ParamKey(0), ParamKey(1)]);
    }

    #[test]
    fn spillover_fills_unused_quota() {
        let ks = KeySpace::new(10, 2);
        // Only entity accesses: relation quota must spill to entities.
        let acc: Vec<ParamKey> = (0..8u64)
            .flat_map(|k| std::iter::repeat_n(ParamKey(k), (9 - k) as usize))
            .collect();
        let cfg = FilterConfig {
            capacity: 6,
            entity_fraction: 0.25,
            heterogeneity_aware: true,
        };
        let hot = filter_hot_set(&acc, ks, &cfg);
        assert_eq!(hot.len(), 6);
        assert!(hot.relations.is_empty());
        assert_eq!(hot.entities.len(), 6);
    }

    #[test]
    fn capacity_zero_selects_nothing() {
        let ks = KeySpace::new(10, 2);
        let acc = skewed_accesses(ks);
        let hot = filter_hot_set(&acc, ks, &FilterConfig::paper_default(0));
        assert!(hot.is_empty());
    }

    #[test]
    fn empty_accesses_select_nothing() {
        let ks = KeySpace::new(10, 2);
        let hot = filter_hot_set(&[], ks, &FilterConfig::paper_default(8));
        assert!(hot.is_empty());
    }

    #[test]
    fn ties_break_deterministically_by_key() {
        let ks = KeySpace::new(10, 0);
        // Keys 3 and 7 both appear twice; capacity 1 keeps the lower id.
        let acc = vec![ParamKey(7), ParamKey(3), ParamKey(3), ParamKey(7)];
        let hot = filter_hot_set(&acc, ks, &FilterConfig::naive(1));
        assert_eq!(hot.entities, vec![ParamKey(3)]);
    }
}
