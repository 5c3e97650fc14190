//! Algorithms 1 + 2 over a worker's iterations. Under DPS every `D`-th
//! iteration prefetches the next `D` batches ([`Prefetcher::prefetch_into`])
//! and selects the hot set from their read statistics ([`HotSetSelector`]);
//! iteration `base + b` then trains on the window's batch `b`, and the window
//! knows which of its batches read each key. CPS selects once, from the whole
//! subgraph ([`filter_hot_set`]), and draws a batch per iteration.
//!
//! A rebuild is selected when its first batch is staged, possibly while the
//! batch before it still trains, and happens when that batch is consumed:
//! [`Window::consume`] evicts what fell out of the selection, and the
//! [fresh](Window::fresh) rows arrive with the staged batch's pull.

use crate::filter::{filter_hot_set, HotSet, HotSetSelector};
use crate::metrics::TableEconomy;
use crate::policy::{subgraph_accesses, CachePolicy, PolicyKind};
use crate::prefetch::{KeyReads, MiniBatch, Prefetched, Prefetcher};
use crate::table::HotEmbeddingTable;
use hetkg_embed::negative::NegativeSampler;
use hetkg_kgraph::{KeySpace, ParamKey, Triple};
use std::ops::Range;

/// One worker's batches and hot-set selection (CPS or DPS), every buffer
/// reused from window to window.
#[derive(Debug)]
pub struct Window {
    policy: CachePolicy,
    key_space: KeySpace,
    sampler: Prefetcher,
    negatives: NegativeSampler,
    /// DPS: the prefetched window, whose first batch iteration `base`
    /// trains on.
    prefetched: Prefetched,
    base: usize,
    selector: HotSetSelector,
    /// The hot set the staged (or latest) rebuild selected, sorted, and the
    /// keys of it the table did not hold when it was selected, hottest first.
    selected: Vec<ParamKey>,
    fresh: Vec<ParamKey>,
    /// Whether the staged batch is the first of a rebuilt table.
    rebuild: bool,
    /// CPS: the batch drawn for the staged iteration.
    drawn: MiniBatch,
}

impl Window {
    /// Batches of `batch_size` positives drawn by a sampler seeded with
    /// `seed`, corrupted by `negatives`.
    pub fn new(
        policy: CachePolicy,
        key_space: KeySpace,
        batch_size: usize,
        seed: u64,
        negatives: NegativeSampler,
    ) -> Self {
        Self {
            policy,
            key_space,
            sampler: Prefetcher::new(batch_size, key_space, seed),
            negatives,
            prefetched: Prefetched::default(),
            base: 0,
            selector: HotSetSelector::default(),
            selected: Vec::new(),
            fresh: Vec::new(),
            rebuild: false,
            drawn: MiniBatch::default(),
        }
    }

    /// Stage iteration `t`; when it `rebuild`s the table, select the hot
    /// set — CPS from `subgraph`'s frequencies, DPS from the window
    /// prefetched here for `t` onwards — and note which keys of it `table`
    /// does not hold: those are fetched, the others kept (hot sets overlap
    /// heavily between windows, and the sync keeps kept rows in bound).
    pub fn stage(
        &mut self,
        t: usize,
        rebuild: bool,
        subgraph: &[Triple],
        table: &HotEmbeddingTable,
    ) {
        self.fresh.clear();
        if rebuild {
            match self.policy.kind {
                PolicyKind::Cps => {
                    let acc = subgraph_accesses(subgraph, self.key_space);
                    let hot = filter_hot_set(&acc, self.key_space, &self.policy.filter);
                    note(&mut self.selected, &mut self.fresh, &hot, table);
                }
                PolicyKind::Dps => {
                    let (d, window) = (self.policy.prefetch_depth, &mut self.prefetched);
                    self.sampler
                        .prefetch_into(subgraph, &mut self.negatives, d, window);
                    self.base = t;
                    let hot = self.selector.select(
                        &self.prefetched.reads,
                        self.key_space,
                        &self.policy.filter,
                    );
                    note(&mut self.selected, &mut self.fresh, hot, table);
                }
            }
        }
        if self.policy.kind == PolicyKind::Cps {
            self.sampler
                .draw_into(subgraph, &mut self.negatives, &mut self.drawn);
        }
        self.rebuild = rebuild;
    }

    /// Stage a rebuild of `table` to `hot`, outside the schedule.
    pub fn choose(&mut self, hot: &HotSet, table: &HotEmbeddingTable) {
        note(&mut self.selected, &mut self.fresh, hot, table);
        self.rebuild = true;
    }

    /// The batch staged iteration `t` trains on: its batch of the window
    /// (DPS), or the one [`Window::stage`] drew (CPS).
    pub fn trains_on(&self, t: usize) -> &MiniBatch {
        match self.policy.kind {
            // A window prefetched every `D` iterations reaches the next one.
            PolicyKind::Dps => {
                let b = self.batch(t).expect("a window covers its iterations");
                &self.prefetched.batches[b]
            }
            PolicyKind::Cps => &self.drawn,
        }
    }

    /// Which batch of the window iteration `t` trains on; `None` when the
    /// window does not reach it (or there is none: CPS).
    pub fn batch(&self, t: usize) -> Option<usize> {
        let b = t.checked_sub(self.base)?;
        (b < self.prefetched.batches.len()).then_some(b)
    }

    /// The batches iterations `ts` train on, if the window covers them.
    pub fn batches(&self, ts: Range<usize>) -> Option<Range<usize>> {
        Some(self.batch(ts.start)?..self.batch(ts.end - 1)? + 1)
    }

    /// How the window reads `k`; `None` when none of its batches does.
    pub fn reads(&self, k: ParamKey) -> Option<&KeyReads> {
        self.sampler.reads_of(&self.prefetched, k)
    }

    /// Whether `t`'s batch reads `k`, as the window lists it; true outside it.
    pub fn lists(&self, t: usize, k: ParamKey) -> bool {
        self.batch(t)
            .is_none_or(|b| self.reads(k).is_some_and(|r| r.read_in(b..b + 1)))
    }

    /// Whether the window says no batch of `batches` reads `k`: false for a
    /// key it does not list, so a row is let go only on what it recorded.
    pub fn quiet(&self, k: ParamKey, batches: &Range<usize>) -> bool {
        self.reads(k).is_some_and(|r| !r.read_in(batches.clone()))
    }

    /// Whether `k` is cached when the staged batch is consumed: selected,
    /// when that batch rebuilds the table, else held by `table`.
    #[inline]
    pub fn holds(&self, table: &HotEmbeddingTable, k: ParamKey) -> bool {
        if self.rebuild {
            self.selected.binary_search(&k).is_ok()
        } else {
            table.contains(k)
        }
    }

    /// The staged rebuild's fresh rows, hottest first; empty without one.
    pub fn fresh(&self) -> &[ParamKey] {
        &self.fresh
    }

    /// DPS with the selection short of capacity: every key two batches of
    /// the window read is cached.
    pub fn has_room(&self) -> bool {
        self.policy.kind == PolicyKind::Dps && self.selected.len() < self.policy.filter.capacity
    }

    /// Consume the staged batch; when it rebuilds the table, evict from
    /// `table` every row the selection dropped, count the rebuild into
    /// `economy` and return true.
    pub fn consume(&mut self, table: &mut HotEmbeddingTable, economy: &mut TableEconomy) -> bool {
        if !std::mem::take(&mut self.rebuild) {
            return false;
        }
        let selected = &self.selected;
        table.retain(|k| selected.binary_search(&k).is_ok());
        economy.rebuilds += 1;
        economy.rows_held += selected.len() as u64;
        economy.capacity += self.policy.filter.capacity as u64;
        economy.fresh_rows += self.fresh.len() as u64;
        true
    }
}

/// `hot` into `selected`, sorted, and what `table` lacks of it into `fresh`.
fn note(
    selected: &mut Vec<ParamKey>,
    fresh: &mut Vec<ParamKey>,
    hot: &HotSet,
    table: &HotEmbeddingTable,
) {
    selected.clear();
    selected.extend(hot.keys());
    selected.sort_unstable();
    fresh.clear();
    fresh.extend(hot.keys().filter(|&k| !table.contains(k)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_embed::negative::{NegConfig, NegStrategy};
    use hetkg_kgraph::generator::SyntheticKg;

    fn setup(policy: CachePolicy) -> (Window, Vec<Triple>, HotEmbeddingTable) {
        let g = SyntheticKg {
            num_entities: 100,
            num_relations: 8,
            num_triples: 500,
            ..Default::default()
        }
        .build(1);
        let ks = g.key_space();
        let neg = NegativeSampler::new(
            g.num_entities(),
            NegConfig {
                per_positive: 2,
                strategy: NegStrategy::Independent,
            },
            7,
        );
        let cap = policy.filter.capacity;
        let table = HotEmbeddingTable::new(ks, cap, cap, 4, 4, 0);
        let window = Window::new(policy, ks, 16, 3, neg);
        (window, g.triples().to_vec(), table)
    }

    /// Whether `batch` reads `k` anywhere, counted the obvious way.
    fn scan(batch: &MiniBatch, ks: KeySpace, k: ParamKey) -> bool {
        let triples = batch.positives.iter();
        triples
            .chain(batch.negatives.iter().map(|n| &n.triple))
            .any(|t| {
                [
                    ks.entity_key(t.head),
                    ks.relation_key(t.relation),
                    ks.entity_key(t.tail),
                ]
                .contains(&k)
            })
    }

    #[test]
    fn a_window_covers_exactly_its_d_iterations() {
        let (mut w, triples, table) = setup(CachePolicy::dps(30, 4));
        w.stage(8, true, &triples, &table);
        let covered: Vec<_> = (0..20).filter_map(|t| w.batch(t).map(|b| (t, b))).collect();
        assert_eq!(covered, [(8, 0), (9, 1), (10, 2), (11, 3)]);
        assert_eq!(w.batches(9..12), Some(1..4));
        assert_eq!(w.batches(9..13), None, "past the window");
        for t in 8..12 {
            let b = &w.prefetched.batches[t - 8];
            assert_eq!(w.trains_on(t).positives, b.positives);
        }
        // Staging inside the window prefetches nothing.
        let first = w.trains_on(8).positives.clone();
        w.stage(9, false, &triples, &table);
        assert_eq!(w.trains_on(8).positives, first);
        // CPS has no window: it draws a batch per iteration.
        let (mut cps, triples, table) = setup(CachePolicy::cps(30));
        for t in 0..3 {
            cps.stage(t, t == 0, &triples, &table);
            assert_eq!(cps.batch(t), None);
            assert_eq!(cps.trains_on(t).positives.len(), 16);
        }
    }

    #[test]
    fn the_window_says_which_batches_read_a_key() {
        let (mut w, triples, table) = setup(CachePolicy::dps(30, 6));
        w.stage(6, true, &triples, &table);
        let ks = w.key_space;
        for k in (0..ks.len() as u64).map(ParamKey) {
            let read: Vec<bool> = w
                .prefetched
                .batches
                .iter()
                .map(|b| scan(b, ks, k))
                .collect();
            assert_eq!(w.reads(k).is_some(), read.contains(&true), "{k}");
            for (b, &r) in read.iter().enumerate() {
                assert_eq!(w.lists(6 + b, k), r, "{k} batch {b}");
                let rest = b..read.len();
                let again = read[rest.clone()].contains(&true);
                // Quiet only where the window lists the key and no batch
                // of the range reads it.
                let listed = read.contains(&true);
                assert_eq!(w.quiet(k, &rest), listed && !again, "{k} from {b}");
            }
            assert!(w.lists(5, k) && w.lists(12, k), "outside the window");
        }
    }

    #[test]
    fn fresh_is_the_selection_less_the_held_keys_and_the_evictions_the_reverse() {
        let (mut w, _, mut table) = setup(CachePolicy::dps(30, 4));
        let held = [ParamKey(1), ParamKey(3), ParamKey(5), ParamKey(101)];
        for &k in &held {
            table.insert(k, &[0.0; 4]).unwrap();
        }
        let hot = HotSet {
            entities: vec![ParamKey(5), ParamKey(9), ParamKey(1), ParamKey(2)],
            relations: vec![ParamKey(103), ParamKey(101)],
        };
        w.choose(&hot, &table);
        // Hottest first, each kind in its order.
        assert_eq!(w.fresh(), [ParamKey(9), ParamKey(2), ParamKey(103)]);
        // Selected keys the table holds are kept, nothing is inserted yet.
        let nothing = ParamKey(7);
        assert!(w.holds(&table, ParamKey(9)) && !w.holds(&table, nothing));
        let mut economy = TableEconomy::default();
        assert!(w.consume(&mut table, &mut economy));
        let mut kept: Vec<_> = table.iter_keys().collect();
        kept.sort_unstable();
        assert_eq!(
            kept,
            [ParamKey(1), ParamKey(5), ParamKey(101)],
            "ParamKey(3) evicted"
        );
        assert_eq!(
            (economy.rebuilds, economy.rows_held, economy.fresh_rows),
            (1, 6, 3)
        );
        assert_eq!(economy.capacity, 30);
        // The next batch of the window rebuilds nothing.
        assert!(!w.consume(&mut table, &mut economy));
        assert!(w.holds(&table, ParamKey(1)) && !w.holds(&table, ParamKey(9)));
    }

    #[test]
    fn a_dps_selection_is_fresh_hottest_first() {
        let (mut w, triples, mut table) = setup(CachePolicy::dps(12, 8));
        w.stage(0, true, &triples, &table);
        let first = w.fresh().to_vec();
        assert_eq!(
            first.len(),
            w.selected.len(),
            "an empty table holds nothing"
        );
        let batches = |k: ParamKey| w.reads(k).unwrap().batches;
        let ks = w.key_space;
        for kind in [true, false] {
            let of_kind: Vec<_> = first.iter().filter(|&&k| ks.is_entity(k) == kind).collect();
            assert!(of_kind.windows(2).all(|p| batches(*p[0]) >= batches(*p[1])));
        }
        w.consume(&mut table, &mut TableEconomy::default());
        for &k in &first {
            table.insert(k, &[0.0; 4]).unwrap();
        }
        w.stage(8, true, &triples, &table);
        let selected = w.selected.clone();
        let fresh: Vec<_> = selected.iter().filter(|k| !table.contains(**k)).collect();
        let mut got: Vec<_> = w.fresh().iter().collect();
        got.sort_unstable();
        assert_eq!(got, fresh);
    }
}
