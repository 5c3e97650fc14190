//! A from-scratch multilevel min-edge-cut partitioner in the METIS family.
//!
//! Three phases, exactly the structure of Karypis & Kumar's algorithm:
//!
//! 1. **Coarsening** — repeated heavy-edge matching collapses the graph
//!    until it is small (parallel edges merge, weights accumulate);
//! 2. **Initial partitioning** — greedy BFS region growing on the coarsest
//!    graph, balancing vertex weight;
//! 3. **Uncoarsening + refinement** — the partition is projected back level
//!    by level; at each level a boundary Kernighan–Lin pass moves vertices
//!    whose *gain* (external minus internal edge weight) is positive,
//!    subject to a balance constraint.
//!
//! The experiments only need the edge cut to be clearly better than random
//! (that is what reduces cross-machine embedding pulls); this implementation
//! reliably achieves that on graphs with any community structure.

use crate::partitioning::{Partitioner, Partitioning};
use hetkg_kgraph::KnowledgeGraph;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Coarsening stops once the graph has at most
/// `COARSEN_TARGET_PER_PART × num_parts` vertices.
const COARSEN_TARGET_PER_PART: usize = 32;
/// Allowed imbalance: a part may weigh up to `(1 + IMBALANCE) × ideal`.
const IMBALANCE: f64 = 0.05;
/// Refinement passes per level.
const REFINE_PASSES: usize = 4;

/// Multilevel min-cut partitioner.
#[derive(Debug, Clone, Copy)]
pub struct MetisLike {
    /// Seed for matching/tie-breaking randomness.
    pub seed: u64,
}

/// An undirected weighted graph in CSR form, as used internally by the
/// multilevel hierarchy.
#[derive(Debug, Clone, PartialEq)]
struct WGraph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u64>,
    vwgt: Vec<u64>,
}

impl WGraph {
    fn num_vertices(&self) -> usize {
        self.vwgt.len()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u64)> + '_ {
        (self.xadj[v]..self.xadj[v + 1]).map(move |i| (self.adjncy[i], self.adjwgt[i]))
    }

    fn total_vweight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Build from a knowledge graph: vertices are entities, parallel triples
    /// collapse into one edge with accumulated weight, self-loops dropped.
    fn from_kg(kg: &KnowledgeGraph, csr: CsrBuilder) -> WGraph {
        let edges = kg
            .triples()
            .iter()
            .filter(|t| t.head != t.tail)
            .flat_map(|t| [(t.head.0, t.tail.0, 1), (t.tail.0, t.head.0, 1)])
            .collect();
        // Vertex weight = degree + 1, in- and out-degree alike: balancing
        // weighted vertices balances the triples that *touch* a partition
        // (entity-count balance would hand the hub partition most of the
        // work on skewed graphs). What a worker iterates over is the
        // triples `Partitioning::split_triples` homes on its machine, and
        // the split levels those itself: a cut triple may train with either
        // endpoint, and its balancing pass holds every machine to ⌈n/P⌉
        // wherever a cut triple lets it. So these weights need only keep
        // the cut low: out-degree + 1 weights, which level a head-homed
        // split, cost more in cut than they save (DESIGN.md, "Where a
        // triple trains").
        let mut vwgt = vec![1u64; kg.num_entities()];
        for t in kg.triples() {
            vwgt[t.head.index()] += 1;
            vwgt[t.tail.index()] += 1;
        }
        csr(vwgt, edges)
    }
}

/// A directed `(source, target, weight)` edge; an undirected edge is listed
/// from both ends.
type Edge = (u32, u32, u64);

/// How a level's graph is assembled from its vertex weights and edge list:
/// [`csr_from_edges`], or the tests' hash-map reference.
type CsrBuilder = fn(Vec<u64>, Vec<Edge>) -> WGraph;

/// The graph over `vwgt.len()` vertices with the given edges. Parallel edges
/// merge, their weights summed; every vertex's neighbours come out in
/// ascending id order.
fn csr_from_edges(vwgt: Vec<u64>, edges: Vec<Edge>) -> WGraph {
    let n = vwgt.len();
    // Counting sort by source: row sizes, row starts, then a scatter.
    let mut start = vec![0usize; n + 1];
    for &(v, _, _) in &edges {
        start[v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut rows = vec![(0u32, 0u64); edges.len()];
    let mut next = start.clone();
    for (v, u, w) in edges {
        rows[next[v as usize]] = (u, w);
        next[v as usize] += 1;
    }
    // Per row: sort by target, merge runs of equal targets.
    let mut xadj = vec![0usize];
    let mut adjncy = Vec::new();
    let mut adjwgt: Vec<u64> = Vec::new();
    for v in 0..n {
        let row = &mut rows[start[v]..start[v + 1]];
        row.sort_unstable_by_key(|&(u, _)| u);
        for &(u, w) in row.iter() {
            if adjncy.len() > xadj[v] && adjncy.last() == Some(&u) {
                *adjwgt.last_mut().expect("as long as adjncy") += w;
            } else {
                adjncy.push(u);
                adjwgt.push(w);
            }
        }
        xadj.push(adjncy.len());
    }
    WGraph {
        xadj,
        adjncy,
        adjwgt,
        vwgt,
    }
}

impl Partitioner for MetisLike {
    fn partition(&self, kg: &KnowledgeGraph, num_parts: usize) -> Partitioning {
        self.partition_with(kg, num_parts, csr_from_edges)
    }

    fn name(&self) -> &'static str {
        "metis-like"
    }
}

impl MetisLike {
    /// A partitioner drawing its randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    fn partition_with(
        &self,
        kg: &KnowledgeGraph,
        num_parts: usize,
        csr: CsrBuilder,
    ) -> Partitioning {
        assert!(num_parts > 0);
        let n = kg.num_entities();
        if num_parts == 1 || n == 0 {
            return Partitioning::new(num_parts.max(1), vec![0; n]);
        }
        if num_parts >= n {
            // Degenerate: one entity per part (extra parts stay empty).
            let assignment = (0..n as u32).collect();
            return Partitioning::new(num_parts, assignment);
        }
        let mut rng = StdRng::seed_from_u64(self.seed);
        let base = WGraph::from_kg(kg, csr);

        // --- Phase 1: coarsen ---
        let target = (COARSEN_TARGET_PER_PART * num_parts).max(num_parts * 2);
        let mut levels: Vec<WGraph> = vec![base];
        let mut maps: Vec<Vec<u32>> = Vec::new(); // fine vertex -> coarse vertex
        loop {
            let g = levels.last().expect("at least the base level");
            if g.num_vertices() <= target {
                break;
            }
            let (coarse, map) = coarsen_once(g, &mut rng, csr);
            // Bail out when matching stops making progress (e.g. star
            // graphs where everything matches into one hub).
            if coarse.num_vertices() as f64 > g.num_vertices() as f64 * 0.95 {
                break;
            }
            levels.push(coarse);
            maps.push(map);
        }

        // --- Phase 2: initial partition on the coarsest graph ---
        let coarsest = levels.last().expect("non-empty");
        let mut part = initial_partition(coarsest, num_parts, &mut rng);

        // --- Phase 3: uncoarsen + refine ---
        refine(coarsest, &mut part, num_parts, &mut rng);
        for level in (0..maps.len()).rev() {
            let fine = &levels[level];
            let map = &maps[level];
            let fine_part: Vec<u32> = (0..fine.num_vertices())
                .map(|v| part[map[v] as usize])
                .collect();
            part = fine_part;
            refine(fine, &mut part, num_parts, &mut rng);
        }
        Partitioning::new(num_parts, part)
    }
}

/// One round of heavy-edge matching; returns the coarse graph and the
/// fine→coarse vertex map.
fn coarsen_once(g: &WGraph, rng: &mut StdRng, csr: CsrBuilder) -> (WGraph, Vec<u32>) {
    let n = g.num_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    const UNMATCHED: u32 = u32::MAX;
    let mut match_of = vec![UNMATCHED; n];
    for &v in &order {
        let v = v as usize;
        if match_of[v] != UNMATCHED {
            continue;
        }
        // Heaviest unmatched neighbour.
        let mut best: Option<(u32, u64)> = None;
        for (u, w) in g.neighbors(v) {
            if u as usize != v
                && match_of[u as usize] == UNMATCHED
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((u, w));
            }
        }
        match best {
            Some((u, _)) => {
                match_of[v] = u;
                match_of[u as usize] = v as u32;
            }
            None => match_of[v] = v as u32, // matched with itself
        }
    }
    // Number coarse vertices.
    let mut map = vec![u32::MAX; n];
    let mut next = 0u32;
    for v in 0..n {
        if map[v] != u32::MAX {
            continue;
        }
        let m = match_of[v] as usize;
        map[v] = next;
        map[m] = next;
        next += 1;
    }
    let mut vwgt = vec![0u64; next as usize];
    for v in 0..n {
        vwgt[map[v] as usize] += g.vwgt[v];
    }
    // Each undirected edge is seen from both endpoints, so the coarse graph
    // stays symmetric; an edge inside a coarse vertex disappears.
    let edges = (0..n)
        .flat_map(|v| {
            let map = &map;
            g.neighbors(v)
                .map(move |(u, w)| (map[v], map[u as usize], w))
        })
        .filter(|&(cv, cu, _)| cv != cu)
        .collect();
    (csr(vwgt, edges), map)
}

/// Greedy BFS region growing: grow each part from a random unassigned seed
/// until it reaches its weight budget.
fn initial_partition(g: &WGraph, parts: usize, rng: &mut StdRng) -> Vec<u32> {
    let n = g.num_vertices();
    let total = g.total_vweight();
    let budget = total.div_ceil(parts as u64);
    const UNASSIGNED: u32 = u32::MAX;
    let mut part = vec![UNASSIGNED; n];
    let mut queue = std::collections::VecDeque::new();
    let mut loads = vec![0u64; parts];
    for p in 0..parts as u32 {
        // Seed: random unassigned vertex.
        let unassigned: Vec<u32> = (0..n as u32)
            .filter(|&v| part[v as usize] == UNASSIGNED)
            .collect();
        if unassigned.is_empty() {
            break;
        }
        let seed = unassigned[rng.random_range(0..unassigned.len())];
        queue.clear();
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            let v = v as usize;
            if part[v] != UNASSIGNED {
                continue;
            }
            if loads[p as usize] + g.vwgt[v] > budget && loads[p as usize] > 0 {
                continue;
            }
            part[v] = p;
            loads[p as usize] += g.vwgt[v];
            if loads[p as usize] >= budget {
                break;
            }
            for (u, _) in g.neighbors(v) {
                if part[u as usize] == UNASSIGNED {
                    queue.push_back(u);
                }
            }
        }
    }
    // Any stragglers (disconnected remnants) go to the lightest part.
    for (v, slot) in part.iter_mut().enumerate() {
        if *slot == UNASSIGNED {
            let lightest = (0..parts).min_by_key(|&p| loads[p]).expect("parts > 0");
            *slot = lightest as u32;
            loads[lightest] += g.vwgt[v];
        }
    }
    part
}

/// Boundary Kernighan–Lin refinement: move vertices with positive gain,
/// respecting the balance constraint. Greedy single-vertex moves, several
/// passes; stops early when a pass makes no move.
fn refine(g: &WGraph, part: &mut [u32], parts: usize, rng: &mut StdRng) {
    let n = g.num_vertices();
    let ideal = g.total_vweight() as f64 / parts as f64;
    let max_load = (ideal * (1.0 + IMBALANCE)).ceil() as u64;
    let mut loads = vec![0u64; parts];
    for (v, &p) in part.iter().enumerate() {
        loads[p as usize] += g.vwgt[v];
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Scratch: per-part connectivity of the current vertex.
    let mut conn = vec![0u64; parts];
    for _ in 0..REFINE_PASSES {
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        let mut moved = 0usize;
        for &v in &order {
            let v = v as usize;
            let home = part[v] as usize;
            conn.iter_mut().for_each(|c| *c = 0);
            let mut is_boundary = false;
            for (u, w) in g.neighbors(v) {
                let pu = part[u as usize] as usize;
                conn[pu] += w;
                if pu != home {
                    is_boundary = true;
                }
            }
            if !is_boundary {
                continue;
            }
            let internal = conn[home];
            // Best destination by gain.
            let mut best: Option<(usize, u64)> = None;
            for p in 0..parts {
                if p == home || conn[p] <= internal {
                    continue;
                }
                if loads[p] + g.vwgt[v] > max_load {
                    continue;
                }
                if best.is_none_or(|(_, bc)| conn[p] > bc) {
                    best = Some((p, conn[p]));
                }
            }
            if let Some((dest, _)) = best {
                part[v] = dest as u32;
                loads[home] -= g.vwgt[v];
                loads[dest] += g.vwgt[v];
                moved += 1;
            }
        }
        if moved == 0 {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality;
    use crate::random::RandomPartitioner;
    use hetkg_kgraph::{generator::SyntheticKg, Triple};

    /// A planted 4-community graph: dense inside communities, sparse across.
    fn planted(num_parts: usize, per_part: usize, seed: u64) -> KnowledgeGraph {
        let n = num_parts * per_part;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut triples = Vec::new();
        for c in 0..num_parts {
            let base = (c * per_part) as u32;
            // Dense intra-community ring + chords.
            for i in 0..per_part as u32 {
                let a = base + i;
                let b = base + (i + 1) % per_part as u32;
                triples.push(Triple::new(a, 0, b));
                let chord = base + rng.random_range(0..per_part as u32);
                if chord != a {
                    triples.push(Triple::new(a, 0, chord));
                }
            }
        }
        // Sparse inter-community edges.
        for _ in 0..num_parts * 2 {
            let a = rng.random_range(0..n as u32);
            let b = rng.random_range(0..n as u32);
            if a != b {
                triples.push(Triple::new(a, 0, b));
            }
        }
        KnowledgeGraph::new_unchecked(n, 1, triples)
    }

    /// The builder `csr_from_edges` replaced: one hash map per vertex, its
    /// entries sorted afterwards.
    fn csr_hashed(vwgt: Vec<u64>, edges: Vec<Edge>) -> WGraph {
        let mut maps = vec![std::collections::HashMap::new(); vwgt.len()];
        for (v, u, w) in edges {
            *maps[v as usize].entry(u).or_insert(0u64) += w;
        }
        let mut xadj = vec![0usize];
        let (mut adjncy, mut adjwgt) = (Vec::new(), Vec::new());
        for map in &maps {
            let mut entries: Vec<(u32, u64)> = map.iter().map(|(&k, &w)| (k, w)).collect();
            entries.sort_unstable();
            for (k, w) in entries {
                adjncy.push(k);
                adjwgt.push(w);
            }
            xadj.push(adjncy.len());
        }
        WGraph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
        }
    }

    #[test]
    fn counting_sort_csr_equals_the_hash_map_reference_at_every_level() {
        // Every level of every run is assembled by both builders and must
        // come out equal; the run then continues on the reference's graph,
        // so its assignment is the hash-map partitioner's.
        fn both(vwgt: Vec<u64>, edges: Vec<Edge>) -> WGraph {
            let reference = csr_hashed(vwgt.clone(), edges.clone());
            assert_eq!(csr_from_edges(vwgt, edges), reference);
            reference
        }
        for entity_alpha in [1.0, 0.0] {
            let g = SyntheticKg {
                num_entities: 2_000,
                num_relations: 10,
                num_triples: 12_000,
                entity_alpha,
                // Parallel edges (one pair under several relations) and
                // self-loops must merge and vanish as before.
                forbid_loops: false,
                ..Default::default()
            }
            .build(5);
            for seed in [1, 2, 3] {
                for parts in [2, 4] {
                    let metis = MetisLike::new(seed);
                    assert_eq!(
                        metis.partition(&g, parts),
                        metis.partition_with(&g, parts, both),
                        "alpha {entity_alpha}, seed {seed}, {parts} parts"
                    );
                }
            }
        }
    }

    #[test]
    fn recovers_planted_communities_better_than_random() {
        let g = planted(4, 50, 3);
        let metis = MetisLike::new(1).partition(&g, 4);
        let random = RandomPartitioner::new(1).partition(&g, 4);
        let cut_m = quality::edge_cut(&g, &metis);
        let cut_r = quality::edge_cut(&g, &random);
        assert!(
            (cut_m as f64) < 0.5 * cut_r as f64,
            "metis cut {cut_m} not clearly better than random {cut_r}"
        );
    }

    #[test]
    fn respects_balance() {
        let g = planted(4, 50, 7);
        let p = MetisLike::new(2).partition(&g, 4);
        let sizes = p.part_sizes();
        let max = *sizes.iter().max().unwrap();
        // imbalance 5% plus rounding slack
        assert!(max <= (200 / 4) + 10, "sizes {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 200);
    }

    #[test]
    fn single_part_assigns_everything_to_zero() {
        let g = SyntheticKg::default().build(1);
        let p = MetisLike::new(0).partition(&g, 1);
        assert!(p.assignment().iter().all(|&x| x == 0));
    }

    #[test]
    fn more_parts_than_entities_is_handled() {
        let g = KnowledgeGraph::new(3, 1, vec![Triple::new(0, 0, 1)]).unwrap();
        let p = MetisLike::new(0).partition(&g, 8);
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_parts(), 8);
    }

    #[test]
    fn deterministic_in_seed() {
        let g = planted(2, 40, 5);
        let a = MetisLike::new(11).partition(&g, 2);
        let b = MetisLike::new(11).partition(&g, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn beats_random_on_zipf_graph_too() {
        // No planted structure, but locality from the Zipf hubs still lets
        // min-cut do better than random.
        let g = SyntheticKg {
            num_entities: 1_000,
            num_relations: 10,
            num_triples: 8_000,
            ..Default::default()
        }
        .build(13);
        let metis = MetisLike::new(1).partition(&g, 4);
        let random = RandomPartitioner::new(1).partition(&g, 4);
        let cut_m = quality::edge_cut(&g, &metis);
        let cut_r = quality::edge_cut(&g, &random);
        assert!(cut_m < cut_r, "metis {cut_m} vs random {cut_r}");
    }

    #[test]
    fn disconnected_graph_is_assigned_fully() {
        // Isolated vertices must still get a partition.
        let g =
            KnowledgeGraph::new(10, 1, vec![Triple::new(0, 0, 1), Triple::new(2, 0, 3)]).unwrap();
        let p = MetisLike::new(0).partition(&g, 2);
        assert_eq!(p.len(), 10);
        // All assignments valid by Partitioning's constructor; also check
        // both parts are used or the graph fits in one.
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 10);
    }
}
