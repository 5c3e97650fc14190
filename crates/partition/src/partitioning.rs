//! The partitioning abstraction: entity → partition assignments and where
//! each training triple trains.
//!
//! Following DGL-KE (§V "Graph Partitioning"), entities are assigned to
//! machines so that most triples touch only rows stored where they train. A
//! triple is *local* when head and tail live on the same machine and *cut*
//! otherwise; a cut triple trains on one endpoint's machine and fetches the
//! other endpoint's row from a remote server.
//!
//! [`Partitioning::split_triples`] decides which endpoint. An uncut triple
//! trains on its machine. A cut triple trains with its *colder* endpoint,
//! the one that appears in fewer of the triples being split (ties to the
//! head), so the row it fetches remotely is the hot one: the row HET-KG's
//! hot-embedding table holds on every worker, and the row a DGL-KE batch
//! already pulls once for many triples. One balancing pass then moves the
//! cut triples with the weakest preference to their other endpoint's machine
//! while a machine holds more than `⌈n/P⌉` triples, so that no worker runs
//! more than its share of an epoch's iterations. See DESIGN.md, "Where a
//! triple trains".

use hetkg_kgraph::{EntityId, KnowledgeGraph, Triple};

/// An assignment of every entity to one of `num_parts` partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    num_parts: usize,
    /// `assignment[entity] = partition`.
    assignment: Vec<u32>,
}

impl Partitioning {
    /// Wrap an assignment vector.
    ///
    /// # Panics
    /// Panics if any assignment is `>= num_parts` or `num_parts == 0`.
    pub fn new(num_parts: usize, assignment: Vec<u32>) -> Self {
        assert!(num_parts > 0, "need at least one partition");
        assert!(
            assignment.iter().all(|&p| (p as usize) < num_parts),
            "assignment references a partition >= num_parts"
        );
        Self {
            num_parts,
            assignment,
        }
    }

    /// Number of partitions.
    pub fn num_parts(&self) -> usize {
        self.num_parts
    }

    /// Number of entities assigned.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// Whether no entities are assigned.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Partition of an entity.
    #[inline]
    pub fn part_of(&self, e: EntityId) -> usize {
        self.assignment[e.index()] as usize
    }

    /// Whether a triple's head and tail are co-located.
    #[inline]
    pub fn is_local_triple(&self, t: Triple) -> bool {
        self.part_of(t.head) == self.part_of(t.tail)
    }

    /// Entities per partition.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_parts];
        for &p in &self.assignment {
            sizes[p as usize] += 1;
        }
        sizes
    }

    /// Distribute triples to the partitions they train on, in input order
    /// within each part.
    ///
    /// An uncut triple goes to its machine; a cut one to the machine of its
    /// colder endpoint (fewer appearances in `triples`, ties to the head).
    /// Then, while a part holds more than `⌈n/P⌉` triples, cut triples move
    /// from it to their other endpoint's part if that one holds fewer, the
    /// weakest preference first: the smallest hotter ÷ colder appearance
    /// ratio, ties by input position, in one pass. A part that starts at or
    /// below `⌈n/P⌉` never goes above it, and one above only shrinks toward
    /// it, so after the pass no part above `⌈n/P⌉` holds a cut triple whose
    /// other part is below.
    pub fn split_triples(&self, triples: &[Triple]) -> Vec<Vec<Triple>> {
        let mut appearances = vec![0u32; self.assignment.len()];
        for t in triples {
            appearances[t.head.index()] += 1;
            appearances[t.tail.index()] += 1;
        }
        let seen = |e: EntityId| u64::from(appearances[e.index()]);
        // (colder endpoint's part, hotter endpoint's part).
        let ends = |t: &Triple| {
            let (h, tl) = (self.part_of(t.head), self.part_of(t.tail));
            if seen(t.tail) < seen(t.head) {
                (tl, h)
            } else {
                (h, tl)
            }
        };
        let mut home: Vec<u32> = triples.iter().map(|t| ends(t).0 as u32).collect();
        let mut load = vec![0usize; self.num_parts];
        for &p in &home {
            load[p as usize] += 1;
        }
        let cap = triples.len().div_ceil(self.num_parts);
        if load.iter().any(|&l| l > cap) {
            let mut cut: Vec<u32> = (0..triples.len() as u32)
                .filter(|&i| !self.is_local_triple(triples[i as usize]))
                .collect();
            // (hotter, colder) appearances: the preference is their ratio.
            let ratio = |i: u32| {
                let t = triples[i as usize];
                let (h, tl) = (seen(t.head), seen(t.tail));
                (h.max(tl), h.min(tl))
            };
            cut.sort_unstable_by(|&a, &b| {
                let ((ha, ca), (hb, cb)) = (ratio(a), ratio(b));
                (ha * cb).cmp(&(hb * ca)).then(a.cmp(&b))
            });
            for i in cut {
                let (from, to) = ends(&triples[i as usize]);
                if load[from] > cap && load[to] < cap {
                    load[from] -= 1;
                    load[to] += 1;
                    home[i as usize] = to as u32;
                }
            }
        }
        let mut parts: Vec<Vec<Triple>> = load.iter().map(|&l| Vec::with_capacity(l)).collect();
        for (&t, &p) in triples.iter().zip(&home) {
            parts[p as usize].push(t);
        }
        parts
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }
}

/// A graph partitioning algorithm.
pub trait Partitioner {
    /// Assign every entity of `kg` to one of `num_parts` partitions.
    fn partition(&self, kg: &KnowledgeGraph, num_parts: usize) -> Partitioning;

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
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
    fn part_of_and_locality() {
        let g = toy();
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert_eq!(p.part_of(EntityId(0)), 0);
        assert!(p.is_local_triple(g.triples()[0])); // 0-1 both in part 0
        assert!(p.is_local_triple(g.triples()[1])); // 2-3 both in part 1
        assert!(!p.is_local_triple(g.triples()[2])); // 0 in 0, 3 in 1
    }

    /// The head rule, DGL-KE's: every triple trains with its head.
    fn split_by_head(p: &Partitioning, triples: &[Triple]) -> Vec<Vec<Triple>> {
        let mut parts = vec![Vec::new(); p.num_parts()];
        for &t in triples {
            parts[p.part_of(t.head)].push(t);
        }
        parts
    }

    #[test]
    fn a_cut_triple_trains_with_its_colder_endpoint() {
        // Entity 0 appears four times, 2 and 3 once each: (0, 3) trains with
        // 3 on part 1, against the head rule, and (2, 0) with 2, as under it.
        let triples = [
            Triple::new(0, 0, 1),
            Triple::new(0, 0, 3),
            Triple::new(2, 0, 0),
            Triple::new(1, 0, 0),
        ];
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        let parts = p.split_triples(&triples);
        assert_eq!(parts[0], vec![triples[0], triples[3]]);
        assert_eq!(parts[1], vec![triples[1], triples[2]]);
        assert_eq!(split_by_head(&p, &triples)[1], vec![triples[2]]);
    }

    #[test]
    fn equal_appearances_go_to_the_head() {
        let triples = [Triple::new(0, 0, 2), Triple::new(3, 0, 1)];
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert_eq!(p.split_triples(&triples), split_by_head(&p, &triples));
    }

    #[test]
    fn the_balancing_pass_moves_the_weakest_preferences_first() {
        // Hub 0 sits on part 1, leaves 1..=4 on part 0. The four cut
        // triples start with their leaves, so part 0 holds five against a
        // share of ⌈6/2⌉ = 3. The pass moves the two whose leaf is least
        // cold (hub 5 ÷ leaf 2 beside 5 ÷ 1), though they come later in
        // the input.
        let triples = [
            Triple::new(3, 0, 0),
            Triple::new(4, 0, 0),
            Triple::new(1, 0, 0),
            Triple::new(2, 0, 0),
            Triple::new(1, 0, 2),
            Triple::new(0, 0, 5),
        ];
        let p = Partitioning::new(2, vec![1, 0, 0, 0, 0, 1]);
        let parts = p.split_triples(&triples);
        assert_eq!(parts[0], vec![triples[0], triples[1], triples[4]]);
        assert_eq!(parts[1], vec![triples[2], triples[3], triples[5]]);
        assert_eq!(split_by_head(&p, &triples)[0].len(), 5);
    }

    #[test]
    fn with_nothing_cut_the_split_is_the_head_rules() {
        let triples = [
            Triple::new(0, 0, 1),
            Triple::new(1, 0, 0),
            Triple::new(0, 0, 1),
            Triple::new(2, 0, 3),
        ];
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        assert_eq!(p.split_triples(&triples), split_by_head(&p, &triples));
        let one = Partitioning::new(1, vec![0; 4]);
        assert_eq!(one.split_triples(&triples), split_by_head(&one, &triples));
    }

    #[test]
    fn split_triples_routes_by_home() {
        let g = toy();
        let p = Partitioning::new(2, vec![0, 0, 1, 1]);
        let parts = p.split_triples(g.triples());
        // (0, 1) is uncut on part 0; the cut (0, 3) has two appearances at
        // each end and goes to its head's part; (2, 3) is uncut on part 1.
        assert_eq!(parts[0], vec![g.triples()[0], g.triples()[2]]);
        assert_eq!(parts[1], vec![g.triples()[1]]);
    }

    #[test]
    fn part_sizes_count_entities() {
        let p = Partitioning::new(3, vec![0, 1, 1, 2]);
        assert_eq!(p.part_sizes(), vec![1, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "partition >= num_parts")]
    fn invalid_assignment_rejected() {
        let _ = Partitioning::new(2, vec![0, 2]);
    }
}
