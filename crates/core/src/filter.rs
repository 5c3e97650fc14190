//! Algorithm 2 — `filter`: pick the top-k hot embeddings from what was
//! prefetched.
//!
//! The paper counts frequencies over `L_er`, sorts descending, and keeps the
//! top-k. Its node-heterogeneity fix is the *entity ratio*: relations are
//! accessed far more often per key than entities (Fig. 2), so naive top-k
//! fills the cache with relations and starves entity locality. HET-KG
//! therefore fixes the split — 25% entities / 75% relations by default
//! (Fig. 8c finds this optimum). `HET-KG-N` (Table VII) is the ablation with
//! the split disabled.
//!
//! Two rankings feed that selection:
//!
//! * [`filter_hot_set`] ranks by frequency in an access list. CPS uses it
//!   over the whole subgraph, where every triple touches its keys once and
//!   there is no batch to speak of.
//! * [`HotSetSelector::select`] is DPS's: it ranks a prefetched window's
//!   keys by how many of the window's batches *read* them, and admits only
//!   keys read by at least [`MIN_READING_BATCHES`]. A batch pulls each
//!   distinct key once however many triples use it, so reading batches —
//!   not uses — is the number of pulls a cached row stands in for. A
//!   corrupting entity shared by a chunk of 32 positives has 32 uses and
//!   saves one pull; ranking it by uses put ≈ 2 000 such one-shot rows per
//!   window ahead of all but the few hundred hottest entities.

use crate::prefetch::KeyReads;
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HotSet {
    /// Hot entity keys, hottest first.
    pub entities: Vec<ParamKey>,
    /// Hot relation keys, hottest first.
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

/// A candidate key and its rank; higher ranks are hotter.
type Ranked = (ParamKey, u64);

/// Algorithm 2 over an access list: count frequencies in `accesses`, sort
/// descending, keep the top-k under `config`'s capacity and split rules.
/// Ties break toward lower key ids, so the result is deterministic.
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
    let mut entities: Vec<Ranked> = Vec::new();
    let mut relations: Vec<Ranked> = Vec::new();
    for k in seen {
        let c = u64::from(counts[k.index()]);
        if key_space.is_entity(k) {
            entities.push((k, c));
        } else {
            relations.push((k, c));
        }
    }
    let mut hot = HotSet::default();
    select_hot_set(&mut entities, &mut relations, key_space, config, &mut hot);
    hot
}

/// The fewest batches of a window that must read a key for DPS to cache it.
///
/// Not a tunable. A row read by one batch costs one pull whether it is
/// cached or not — the construction pull replaces the miss pull — so
/// admitting it can only lose: construction carries the row's version on top
/// of the row, and a sync inside the window may re-send it. From two reading
/// batches on, every read after the first is a pull saved. The threshold
/// also has a structural consequence the pipeline relies on: when every key
/// read twice in a window is cached, the miss sets of the window's batches
/// are pairwise disjoint, so a staged batch's misses are never written by
/// the batch in flight and its whole miss pull can be issued one iteration
/// early.
pub const MIN_READING_BATCHES: u32 = 2;

/// Algorithm 2 over a prefetched window's statistics — DPS's selection —
/// with buffers that are reused from window to window.
#[derive(Debug, Default)]
pub struct HotSetSelector {
    entities: Vec<Ranked>,
    relations: Vec<Ranked>,
    hot: HotSet,
}

impl HotSetSelector {
    /// The top-k of `reads` by reading batches (ties: more uses, then lower
    /// key id) among keys read by at least [`MIN_READING_BATCHES`] batches,
    /// under `config`'s capacity and split rules.
    pub fn select(
        &mut self,
        reads: &[KeyReads],
        key_space: KeySpace,
        config: &FilterConfig,
    ) -> &HotSet {
        self.entities.clear();
        self.relations.clear();
        for r in reads.iter().filter(|r| r.batches >= MIN_READING_BATCHES) {
            let ranked = (r.key, u64::from(r.batches) << 32 | u64::from(r.uses));
            if key_space.is_entity(r.key) {
                self.entities.push(ranked);
            } else {
                self.relations.push(ranked);
            }
        }
        select_hot_set(
            &mut self.entities,
            &mut self.relations,
            key_space,
            config,
            &mut self.hot,
        );
        &self.hot
    }
}

/// The selection half of Algorithm 2, over ranked candidates in any order
/// (the sort is by a total order, so the input order does not matter). The
/// candidate lists are scratch: they come back sorted or merged.
fn select_hot_set(
    entities: &mut Vec<Ranked>,
    relations: &mut Vec<Ranked>,
    key_space: KeySpace,
    config: &FilterConfig,
    hot: &mut HotSet,
) {
    let by_rank_desc = |a: &Ranked, b: &Ranked| b.1.cmp(&a.1).then(a.0.cmp(&b.0));
    hot.entities.clear();
    hot.relations.clear();
    if config.heterogeneity_aware {
        entities.sort_unstable_by(by_rank_desc);
        relations.sort_unstable_by(by_rank_desc);
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
        let key = |&(k, _): &Ranked| k;
        hot.entities
            .extend(entities[..take_e + extra_e].iter().map(key));
        hot.relations
            .extend(relations[..take_r + extra_r].iter().map(key));
    } else {
        // Plain top-k over the merged list.
        entities.append(relations);
        entities.sort_unstable_by(by_rank_desc);
        for &(k, _) in entities.iter().take(config.capacity) {
            if key_space.is_entity(k) {
                hot.entities.push(k);
            } else {
                hot.relations.push(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, HashMap, HashSet};

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
        let (mut entities, mut relations): (Vec<Ranked>, Vec<Ranked>) = counts
            .into_iter()
            .partition(|&(k, _)| key_space.is_entity(k));
        let mut hot = HotSet::default();
        select_hot_set(&mut entities, &mut relations, key_space, config, &mut hot);
        hot
    }

    /// DPS's selection as it was before admission counted reading batches:
    /// every key of the window is a candidate, ranked by raw uses. Equal by
    /// construction to [`filter_hot_set`] over the window's raw access list
    /// (`raw_use_reference_is_the_access_list_selection` holds it to that),
    /// which is what the live worker called. No runtime path uses it.
    fn select_by_raw_uses(
        reads: &[KeyReads],
        key_space: KeySpace,
        config: &FilterConfig,
    ) -> HotSet {
        let (mut entities, mut relations): (Vec<Ranked>, Vec<Ranked>) = reads
            .iter()
            .map(|r| (r.key, u64::from(r.uses)))
            .partition(|&(k, _)| key_space.is_entity(k));
        let mut hot = HotSet::default();
        select_hot_set(&mut entities, &mut relations, key_space, config, &mut hot);
        hot
    }

    /// A window as the prefetcher sees it: per batch, the raw key accesses.
    type Window = Vec<Vec<ParamKey>>;

    /// An entry of a window's statistics. The selection does not ask which
    /// batches read a key, only how many: the first `batches` stand in.
    fn key_reads(key: ParamKey, batches: u32, uses: u32) -> KeyReads {
        KeyReads {
            key,
            batches,
            uses,
            in_batches: (1 << batches) - 1,
        }
    }

    /// The window's statistics, counted the obvious way.
    fn brute_force_reads(window: &Window) -> Vec<KeyReads> {
        let mut counts: BTreeMap<ParamKey, (u32, u32)> = BTreeMap::new();
        for batch in window {
            let readers: HashSet<ParamKey> = batch.iter().copied().collect();
            for k in readers {
                counts.entry(k).or_default().0 += 1;
            }
            for &k in batch {
                counts.entry(k).or_default().1 += 1;
            }
        }
        counts
            .into_iter()
            .map(|(key, (batches, uses))| key_reads(key, batches, uses))
            .collect()
    }

    /// The admission rule and Algorithm 2's split, written out without the
    /// shared selection code: what [`HotSetSelector::select`] must return.
    fn brute_force_selection(reads: &[KeyReads], ks: KeySpace, config: &FilterConfig) -> HotSet {
        let mut admitted: Vec<KeyReads> =
            reads.iter().copied().filter(|r| r.batches >= 2).collect();
        admitted.sort_by_key(|r| (Reverse(r.batches), Reverse(r.uses), r.key));
        if !config.heterogeneity_aware {
            admitted.truncate(config.capacity);
        }
        let of_kind = |entity: bool| -> Vec<ParamKey> {
            admitted
                .iter()
                .map(|r| r.key)
                .filter(|&k| ks.is_entity(k) == entity)
                .collect()
        };
        if !config.heterogeneity_aware {
            return HotSet {
                entities: of_kind(true),
                relations: of_kind(false),
            };
        }
        let (mut entities, mut relations) = (of_kind(true), of_kind(false));
        let ent_quota = ((config.capacity as f64 * config.entity_fraction).round() as usize)
            .min(config.capacity);
        let rel_quota = config.capacity - ent_quota;
        // Each kind fills its quota; what one kind leaves unused the other
        // may take, entities first.
        let spare_r = rel_quota.saturating_sub(relations.len());
        entities.truncate(ent_quota + spare_r);
        let left = config.capacity - entities.len();
        relations.truncate(left);
        HotSet {
            entities,
            relations,
        }
    }

    fn arb_window(keys: u64) -> impl Strategy<Value = Window> {
        // Squaring skews toward low ids, so some keys recur across batches
        // and many are read once.
        let key =
            (0..keys * keys).prop_map(move |v| ParamKey(((v as f64).sqrt() as u64).min(keys - 1)));
        prop::collection::vec(prop::collection::vec(key, 0..40), 1..9)
    }

    fn arb_config() -> impl Strategy<Value = FilterConfig> {
        (0usize..60, 0.0f64..=1.0, any::<bool>()).prop_map(
            |(capacity, entity_fraction, heterogeneity_aware)| FilterConfig {
                capacity,
                entity_fraction,
                heterogeneity_aware,
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The admission rule against its brute-force statement, and the
        /// bounds it must respect whatever the window looks like.
        #[test]
        fn window_selection_equals_the_brute_force_oracle(
            window in arb_window(48),
            config in arb_config(),
        ) {
            let ks = KeySpace::new(40, 8);
            let reads = brute_force_reads(&window);
            let mut selector = HotSetSelector::default();
            // A reused selector carries nothing over from the window before.
            selector.select(&reads[..reads.len() / 2], ks, &FilterConfig::naive(60));
            let hot = selector.select(&reads, ks, &config).clone();
            prop_assert_eq!(&hot, &brute_force_selection(&reads, ks, &config));
            prop_assert!(hot.len() <= config.capacity);
            let by_key: HashMap<ParamKey, KeyReads> = reads.iter().map(|r| (r.key, *r)).collect();
            for k in hot.keys() {
                prop_assert!(by_key[&k].batches >= MIN_READING_BATCHES, "{} admitted on one read", k);
            }
            prop_assert!(hot.entities.iter().all(|&k| ks.is_entity(k)));
            prop_assert!(hot.relations.iter().all(|&k| !ks.is_entity(k)));
            if config.heterogeneity_aware {
                // A kind exceeds its quota only by what the other left unused.
                let ent_quota = ((config.capacity as f64 * config.entity_fraction).round() as usize)
                    .min(config.capacity);
                let rel_quota = config.capacity - ent_quota;
                prop_assert!(hot.entities.len() <= ent_quota + rel_quota.saturating_sub(hot.relations.len()));
                prop_assert!(hot.relations.len() <= rel_quota + ent_quota.saturating_sub(hot.entities.len()));
            }
        }

        /// The raw-use reference is the selection the worker made before:
        /// `filter_hot_set` over the window's flattened access list.
        #[test]
        fn raw_use_reference_is_the_access_list_selection(
            window in arb_window(48),
            config in arb_config(),
        ) {
            let ks = KeySpace::new(40, 8);
            let accesses: Vec<ParamKey> = window.iter().flatten().copied().collect();
            prop_assert_eq!(
                select_by_raw_uses(&brute_force_reads(&window), ks, &config),
                filter_hot_set(&accesses, ks, &config)
            );
        }

        /// Where no batch uses a key twice, uses *are* reading batches: on
        /// the keys both rules may admit, ranking by either is the same
        /// selection. The rules differ only through keys used more than
        /// once per batch and through the one-read keys.
        #[test]
        fn the_two_rankings_agree_when_every_use_is_a_reading_batch(
            counts in prop::collection::vec(2u32..9, 0..48),
            config in arb_config(),
        ) {
            let ks = KeySpace::new(40, 8);
            let reads: Vec<KeyReads> = counts
                .iter()
                .enumerate()
                .map(|(i, &c)| key_reads(ParamKey(i as u64), c, c))
                .collect();
            let mut selector = HotSetSelector::default();
            prop_assert_eq!(
                selector.select(&reads, ks, &config),
                &select_by_raw_uses(&reads, ks, &config)
            );
        }
    }

    #[test]
    fn a_key_used_often_by_one_batch_loses_to_a_key_read_by_two() {
        // The case the rule exists for: a shared corrupting entity (32 uses,
        // one batch) against a mildly hot one (2 uses, two batches).
        let ks = KeySpace::new(10, 0);
        let reads = [
            key_reads(ParamKey(1), 1, 32),
            key_reads(ParamKey(2), 2, 2),
            key_reads(ParamKey(3), 2, 5),
            key_reads(ParamKey(4), 3, 3),
        ];
        let mut selector = HotSetSelector::default();
        let hot = selector.select(&reads, ks, &FilterConfig::naive(8));
        // Reading batches first, uses second; the one-shot key is not
        // admitted even though six slots stay empty.
        assert_eq!(hot.entities, [ParamKey(4), ParamKey(3), ParamKey(2)]);
        assert_eq!(
            select_by_raw_uses(&reads, ks, &FilterConfig::naive(1)).entities,
            [ParamKey(1)],
            "the raw-use ranking put it first"
        );
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
