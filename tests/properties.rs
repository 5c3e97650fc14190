//! Property-based tests (proptest) over the public API's core invariants.

use het_kg::hotcache::baselines::{replay, FifoCache, LfuCache, LruCache, ReplacementCache};
use het_kg::hotcache::filter::{filter_hot_set, FilterConfig};
use het_kg::prelude::*;
use proptest::prelude::*;

fn arb_triples(
    entities: u32,
    relations: u32,
    max_len: usize,
) -> impl Strategy<Value = Vec<Triple>> {
    prop::collection::vec(
        (0..entities, 0..relations, 0..entities).prop_map(|(h, r, t)| Triple::new(h, r, t)),
        1..max_len,
    )
}

/// What `Partitioning::split_triples` promises, checked from the outside:
/// the parts are the input in input order; a triple trains on one of its
/// endpoints' parts, an uncut one on its own; a cut triple away from its
/// colder endpoint (fewer appearances, ties to the head) was moved by the
/// balancing pass, from a part above `⌈n/P⌉` that it left no lower than
/// that, to a part it left no higher, the weakest preference first; and no
/// part above `⌈n/P⌉` keeps a cut triple whose other part is below it.
fn split_keeps_its_invariants(
    triples: &[Triple],
    p: &het_kg::partition::Partitioning,
) -> Result<(), proptest::TestCaseError> {
    let split = p.split_triples(triples);
    prop_assert_eq!(split.len(), p.num_parts());
    let mut all: Vec<Triple> = split.concat();
    let mut input = triples.to_vec();
    all.sort();
    input.sort();
    prop_assert_eq!(all, input, "the parts are not a permutation of the input");
    for part in &split {
        let mut rest = triples.iter();
        prop_assert!(
            part.iter().all(|t| rest.any(|u| u == t)),
            "a part is out of input order"
        );
    }

    let mut seen = vec![0u64; p.len()];
    for t in triples {
        seen[t.head.index()] += 1;
        seen[t.tail.index()] += 1;
    }
    let part = |e: EntityId| p.part_of(e);
    // (colder part, hotter part, hotter ÷ colder as a fraction).
    let ends = |t: &Triple| {
        let (h, tl) = (seen[t.head.index()], seen[t.tail.index()]);
        if tl < h {
            (part(t.tail), part(t.head), (h, tl))
        } else {
            (part(t.head), part(t.tail), (tl, h))
        }
    };
    let cap = triples.len().div_ceil(p.num_parts());
    let load: Vec<usize> = split.iter().map(Vec::len).collect();
    let mut moved_out = vec![0usize; p.num_parts()];
    let mut moved_in = vec![0usize; p.num_parts()];
    let placed: Vec<(usize, Triple)> = split
        .iter()
        .enumerate()
        .flat_map(|(q, items)| items.iter().map(move |&t| (q, t)))
        .collect();
    for &(q, t) in &placed {
        prop_assert!(
            q == part(t.head) || q == part(t.tail),
            "{:?} trains off its endpoints",
            t
        );
        if p.is_local_triple(t) {
            continue;
        }
        let (colder, hotter, _) = ends(&t);
        if q != colder {
            moved_out[colder] += 1;
            moved_in[hotter] += 1;
        } else if load[q] > cap {
            prop_assert!(
                load[hotter] >= cap,
                "part {} over its share keeps {:?}",
                q,
                t
            );
        }
    }
    for q in 0..p.num_parts() {
        prop_assert!(moved_out[q] == 0 || (moved_in[q] == 0 && load[q] >= cap));
        prop_assert!(moved_in[q] == 0 || load[q] <= cap);
    }
    // Weakest first: a cut triple its donor part kept, with a strictly
    // smaller hotter ÷ colder ratio than one the pass moved from that part,
    // saw its other part full. (Ties go by input position, which the unit
    // tests pin.)
    let cut: Vec<(usize, Triple)> = placed
        .into_iter()
        .filter(|&(_, t)| !p.is_local_triple(t))
        .collect();
    for &(q, t) in &cut {
        let (colder, hotter, (a, b)) = ends(&t);
        if q != colder {
            continue;
        }
        for &(r, u) in &cut {
            let (from, _, (c, d)) = ends(&u);
            if from == q && r != from && a * d < c * b {
                prop_assert!(load[hotter] >= cap, "{:?} kept ahead of {:?}", t, u);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The filter never selects more than the capacity, never duplicates,
    /// and only selects keys that were actually accessed.
    #[test]
    fn filter_respects_capacity_and_provenance(
        triples in arb_triples(50, 5, 200),
        capacity in 0usize..40,
        entity_fraction in 0.0f64..1.0,
        aware in any::<bool>(),
    ) {
        let ks = KeySpace::new(50, 5);
        let accesses: Vec<ParamKey> = triples
            .iter()
            .flat_map(|t| [ks.entity_key(t.head), ks.relation_key(t.relation), ks.entity_key(t.tail)])
            .collect();
        let cfg = FilterConfig { capacity, entity_fraction, heterogeneity_aware: aware };
        let hot = filter_hot_set(&accesses, ks, &cfg);
        prop_assert!(hot.len() <= capacity);
        let keys: Vec<ParamKey> = hot.keys().collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), keys.len(), "no duplicates");
        for k in keys {
            prop_assert!(accesses.contains(&k), "{} was never accessed", k);
        }
    }

    /// Replacement caches never exceed capacity, and replay accounts every
    /// access as exactly one hit or miss.
    #[test]
    fn caches_bound_residency(
        accesses in prop::collection::vec(0u64..100, 1..500),
        capacity in 0usize..50,
    ) {
        let trace: Vec<ParamKey> = accesses.iter().map(|&k| ParamKey(k)).collect();
        let caches: Vec<Box<dyn ReplacementCache>> = vec![
            Box::new(FifoCache::new(capacity)),
            Box::new(LruCache::new(capacity)),
            Box::new(LfuCache::new(capacity)),
        ];
        for mut cache in caches {
            let stats = replay(cache.as_mut(), &trace);
            prop_assert_eq!(stats.total() as usize, trace.len());
            prop_assert!(cache.len() <= capacity);
        }
    }

    /// An infinite-capacity cache's misses equal the number of distinct keys
    /// (compulsory misses only) for every policy.
    #[test]
    fn infinite_capacity_has_only_compulsory_misses(
        accesses in prop::collection::vec(0u64..60, 1..300),
    ) {
        let trace: Vec<ParamKey> = accesses.iter().map(|&k| ParamKey(k)).collect();
        let distinct = {
            let mut v = accesses.clone();
            v.sort_unstable();
            v.dedup();
            v.len() as u64
        };
        for mut cache in [
            Box::new(FifoCache::new(1000)) as Box<dyn ReplacementCache>,
            Box::new(LruCache::new(1000)),
            Box::new(LfuCache::new(1000)),
        ] {
            let stats = replay(cache.as_mut(), &trace);
            prop_assert_eq!(stats.misses, distinct);
        }
    }

    /// Graph splits are exhaustive and disjoint for any fractions.
    #[test]
    fn splits_partition_triples(
        triples in arb_triples(30, 3, 150),
        train_frac in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let kg = KnowledgeGraph::new(30, 3, triples.clone()).unwrap();
        let valid_frac = (1.0 - train_frac) / 2.0;
        let split = Split::new(&kg, train_frac, valid_frac, seed);
        let mut all: Vec<Triple> = split.train.clone();
        all.extend_from_slice(&split.valid);
        all.extend_from_slice(&split.test);
        all.sort();
        let mut orig = triples;
        orig.sort();
        prop_assert_eq!(all, orig);
    }

    /// Rank metrics are internally consistent: MRR ≤ Hits@1 bound relation,
    /// Hits monotone in k, MR ≥ 1.
    #[test]
    fn rank_metrics_invariants(ranks in prop::collection::vec(1u64..500, 1..100)) {
        let mut m = RankMetrics::new();
        for &r in &ranks {
            m.add_rank(r);
        }
        prop_assert!(m.mr() >= 1.0);
        prop_assert!(m.mrr() > 0.0 && m.mrr() <= 1.0);
        prop_assert!(m.hits(1) <= m.hits(3));
        prop_assert!(m.hits(3) <= m.hits(10));
        // MRR is at least Hits@1 (each hit contributes 1.0) and at most
        // Hits@1 + (1 - Hits@1) / 2 is not a tight bound — check the basic
        // dominance instead:
        prop_assert!(m.mrr() >= m.hits(1));
    }
}

// Default config: `PROPTEST_CASES` sets how deep CI runs it.
proptest! {
    /// Partitionings assign every entity to a valid part, and the triples
    /// split over them keep `split_triples`' invariants. Heads are folded
    /// into the first `hubs` entities so that degrees are skewed and the
    /// balancing pass has work to do.
    #[test]
    fn partitioner_assignments_are_total(
        triples in arb_triples(40, 4, 200),
        hubs in 1u32..41,
        parts in 1usize..6,
        seed in any::<u64>(),
    ) {
        let triples: Vec<Triple> = triples
            .into_iter()
            .map(|t| Triple::new(t.head.0 % hubs, t.relation.0, t.tail.0))
            .collect();
        let kg = KnowledgeGraph::new(40, 4, triples).unwrap();
        for p in [
            MetisLike::new(seed).partition(&kg, parts),
            RandomPartitioner::new(seed).partition(&kg, parts),
        ] {
            prop_assert_eq!(p.len(), 40);
            prop_assert_eq!(p.part_sizes().iter().sum::<usize>(), 40);
            split_keeps_its_invariants(kg.triples(), &p)?;
        }
    }
}
