//! Algorithms 3–4 — hot-embedding synchronization with bounded staleness,
//! and §IV-C's bound.
//!
//! A cached row drifts from its global replica as other workers keep pushing
//! gradients to the PS. The synchronization algorithm bounds that drift:
//! every `P` iterations the worker brings *all* cached rows up to date with
//! the PS. `P` is therefore the staleness bound of §IV-C's convergence
//! analysis — Fig. 8b sweeps it, Fig. 9 shows divergence when it is too
//! large. The same period bounds the other direction: a cached row's
//! gradients are written back once per window, so the server never waits
//! longer than `P − 1` iterations for one.
//!
//! [`SyncClock`] is the one place a worker asks which iteration syncs,
//! rebuilds the table or ends a window, which rows a sync asks about, and
//! how old a hit may be read. The exchange itself is the HET-KG worker's: a
//! pull-if-newer, which returns only the rows whose server version moved —
//! an unchanged row is bit-identical to the cached copy, so it is confirmed
//! current without being re-sent.

use crate::policy::CachePolicy;
use crate::table::HotEmbeddingTable;
use hetkg_kgraph::ParamKey;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Sync periods a cached row may go unconfirmed in degraded mode
/// ([`SyncConfig::degraded_bound`]).
const DEGRADED_PERIODS: usize = 8;

/// Synchronization schedule: the staleness bound `P`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SyncConfig {
    /// Refresh the cache from the PS every `period` iterations. `P = 1`
    /// means fully synchronous caching; larger values trade consistency for
    /// communication.
    pub period: usize,
}

impl SyncConfig {
    /// Construct; `period` must be positive.
    pub fn new(period: usize) -> Self {
        assert!(period > 0, "staleness bound must be positive");
        Self { period }
    }

    /// The paper's sweet spot (Fig. 8b: MRR stable up to P ≈ 8).
    pub fn paper_default() -> Self {
        Self::new(8)
    }

    /// The staleness bound in degraded mode: eight sync periods, `8·P`.
    ///
    /// While a fault plan has a shard down or browning out, a sync skips the
    /// rows homed there and the cache keeps serving them past `P`; once a
    /// row could be read older than this, the sync asks about everything and
    /// waits the outage out. Eight periods is 64 iterations at the paper's
    /// `P` = 8 — long enough to ride out a short outage on cached rows, short
    /// against an epoch. A multiple of `P`, so it falls on the sync schedule
    /// it is checked on. The worker's §IV-C assertion and the divergence
    /// oracle both read it here.
    pub fn degraded_bound(&self) -> usize {
        DEGRADED_PERIODS * self.period
    }

    /// Whether `iteration` is a synchronization point.
    ///
    /// Iteration 0 is never one: the cache was just constructed from fresh
    /// PS pulls, so an immediate refresh would re-pull every cached key for
    /// zero consistency gain — pure wasted traffic charged against HET-KG's
    /// communication numbers. The first sync therefore lands at iteration
    /// `P`, and the staleness bound still holds (the cache is exact at
    /// construction time).
    pub fn is_sync_iteration(&self, iteration: usize) -> bool {
        iteration > 0 && iteration.is_multiple_of(self.period)
    }
}

/// One worker's Alg. 3 schedule and §IV-C bound: the sync period, the
/// table's rebuild cadence, and the table-wide staleness — iterations since
/// the last sync that covered the whole table, which counts as synced at
/// iteration 0.
///
/// The worker [begins](SyncClock::begin) each iteration here; the clock then
/// answers for it. Each cached row also carries the iteration it was last
/// confirmed current at (in the table); the clock alone reads it — to pick
/// the rows a sync asks about and to assert every hit against the table's
/// staleness and the bound — so a per-row clock is a change of this type.
#[derive(Debug, Clone)]
pub struct SyncClock {
    sync: SyncConfig,
    policy: CachePolicy,
    last_sync: usize,
    max_stale: usize,
    /// The iteration being consumed, whether a fault plan is attached, and
    /// the table's staleness at it.
    now: usize,
    degraded: bool,
    stale: usize,
}

impl SyncClock {
    /// The clock of a worker syncing by `sync`, its table rebuilt by `policy`.
    pub fn new(sync: SyncConfig, policy: CachePolicy) -> Self {
        Self {
            sync,
            policy,
            last_sync: 0,
            max_stale: 0,
            now: 0,
            degraded: false,
            stale: 0,
        }
    }

    /// Whether iteration `t` syncs the table (Alg. 3 lines 8–9).
    pub fn syncs(&self, t: usize) -> bool {
        self.sync.is_sync_iteration(t)
    }

    /// Whether iteration `t` (re)builds the table (Alg. 3 lines 5–7).
    pub fn rebuilds(&self, t: usize) -> bool {
        self.policy.needs_construction(t)
    }

    /// Whether iteration `t`'s push is its window's boundary push, the last
    /// before the table's next sync or rebuild.
    pub fn ends_window(&self, t: usize) -> bool {
        self.rebuilds(t + 1) || self.syncs(t + 1)
    }

    /// The iterations between iteration `t`'s push and its window's boundary
    /// push, the boundary's own included, with `remaining` iterations of the
    /// epoch after `t` (at least one): the last ends a window or the epoch.
    pub fn to_boundary(&self, t: usize, remaining: usize) -> Range<usize> {
        let mut last = t + 1;
        while last - t < remaining && !self.ends_window(last) {
            last += 1;
        }
        t + 1..last + 1
    }

    /// The largest age (iterations since last confirmed current) a hit may
    /// be read at: `P` — a read at a sync iteration precedes its refresh —
    /// or, while a fault plan lets syncs skip unhealthy shards, `8·P`.
    pub fn bound(&self, degraded: bool) -> usize {
        if degraded {
            self.sync.degraded_bound()
        } else {
            self.sync.period
        }
    }

    /// Begin iteration `now`, `degraded` when a fault plan is attached.
    pub fn begin(&mut self, now: usize, degraded: bool) {
        (self.now, self.degraded) = (now, degraded);
        self.stale = now.saturating_sub(self.last_sync);
        self.max_stale = self.max_stale.max(self.stale);
    }

    /// Whether the iteration begun syncs.
    pub fn syncing(&self) -> bool {
        self.syncs(self.now)
    }

    /// Whether this iteration's sync leaves rows of unhealthy shards
    /// unasked: in degraded mode, until the table's staleness reaches the
    /// degraded bound; then everything is asked and the client waits.
    pub fn skips_unhealthy(&self) -> bool {
        self.degraded && self.stale < self.sync.degraded_bound()
    }

    /// §IV-C at the point of use, for a hit on `k`: the row was confirmed
    /// current no longer ago than the whole table was — a sync that covers
    /// the table confirms every row — and that is within the bound.
    #[inline]
    pub fn assert_fresh(&self, table: &HotEmbeddingTable, k: ParamKey) {
        if cfg!(debug_assertions) {
            let (age, bound) = (table.age(k, self.now), self.bound(self.degraded));
            assert!(
                age <= Some(self.stale) && self.stale <= bound,
                "§IV-C: {k} read at age {age:?}, the table's {} (bound {bound})",
                self.stale
            );
        }
    }

    /// The write side of §IV-C, for `k` written back at iteration `now`
    /// holding gradients since `since`: none waited out a window.
    #[inline]
    pub fn assert_held(&self, k: ParamKey, since: usize, now: usize) {
        let period = self.sync.period;
        let held = now - since;
        debug_assert!(
            held < period,
            "{k} held a gradient for {held} iterations (P = {period})"
        );
    }

    /// The rows this iteration's sync asks about, handed to `ask` with the
    /// version each is held under: every cached row `asked` accepts but
    /// those confirmed at this very iteration (a rebuild received them
    /// moments ago). Returns how many rows the sync covers, asked or not.
    pub fn probe(
        &self,
        table: &HotEmbeddingTable,
        asked: impl Fn(ParamKey) -> bool,
        mut ask: impl FnMut(ParamKey, u32),
    ) -> usize {
        let mut covered = 0;
        for (k, version, confirmed) in table.iter_held().filter(|&(k, ..)| asked(k)) {
            covered += 1;
            if confirmed != self.now {
                ask(k, version);
            }
        }
        covered
    }

    /// `k`'s row arrived fresh under `version`: cache it, current now.
    pub fn admit(&self, table: &mut HotEmbeddingTable, k: ParamKey, row: &[f32], version: u32) {
        let inserted = table.insert_at(k, row, version, self.now);
        inserted.expect("capacity covers the hot set");
    }

    /// `k`'s row came back from this iteration's sync under `version`:
    /// overwrite the cached copy, current now. Returns the L2 distance
    /// between the two.
    pub fn refresh(
        &self,
        table: &mut HotEmbeddingTable,
        k: ParamKey,
        row: &[f32],
        version: u32,
    ) -> f64 {
        let cached = table.get(k).expect("only cached keys are asked about");
        let d2: f64 = cached
            .iter()
            .zip(row)
            .map(|(&c, &g)| ((c - g) as f64).powi(2))
            .sum();
        table.refresh_at(k, row, version, self.now);
        d2.sqrt()
    }

    /// `k` was asked about under the version it is held under and did not
    /// come back: the cached copy is current now.
    pub fn confirm(&self, table: &mut HotEmbeddingTable, k: ParamKey) {
        table.confirm(k, self.now);
    }

    /// This iteration's sync covered `covered` rows of a table that holds
    /// `held`: only a sync of the whole table resets the staleness.
    pub fn synced(&mut self, covered: usize, held: usize) {
        if covered == held {
            self.last_sync = self.now;
        }
    }

    /// Largest table-wide staleness observed so far.
    pub fn max_staleness(&self) -> usize {
        self.max_stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_schedule_fires_every_p_but_not_at_zero() {
        let s = SyncConfig::new(4);
        assert!(
            !s.is_sync_iteration(0),
            "iteration 0 follows construction; re-pulling there is waste"
        );
        assert!(!s.is_sync_iteration(3));
        assert!(s.is_sync_iteration(4));
        assert!(s.is_sync_iteration(8));
    }

    #[test]
    fn iteration_zero_never_syncs_regardless_of_period() {
        // Regression: the schedule used to fire at iteration 0 (0 % P == 0),
        // re-pulling every key the CPS construction had pulled moments
        // before.
        for p in 1..16 {
            assert!(!SyncConfig::new(p).is_sync_iteration(0), "period {p}");
        }
        // P = 1 still syncs every subsequent iteration.
        let s = SyncConfig::new(1);
        assert!(s.is_sync_iteration(1));
        assert!(s.is_sync_iteration(2));
    }

    #[test]
    #[should_panic(expected = "staleness bound must be positive")]
    fn zero_period_rejected() {
        let _ = SyncConfig::new(0);
    }

    #[test]
    fn staleness_tracker_bounds() {
        // Observed as an iteration begins, before its sync: a sync
        // iteration reads the table at age P, the bound is inclusive.
        let mut clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(1));
        for iter in 0..20 {
            clock.begin(iter, false);
            assert!(clock.stale <= 4, "staleness {} at iter {iter}", clock.stale);
            if clock.syncing() {
                clock.synced(1, 1);
            }
        }
        assert_eq!(clock.max_staleness(), 4);
    }

    /// The iterations among `0..n` whose push ends a window.
    fn window_ends(clock: &SyncClock, n: usize) -> Vec<usize> {
        (0..n).filter(|&t| clock.ends_window(t)).collect()
    }

    #[test]
    fn a_window_ends_where_the_next_iteration_syncs_or_rebuilds() {
        // CPS rebuilds only at 0: its windows are the sync periods.
        let cps = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        assert_eq!(window_ends(&cps, 16), [3, 7, 11, 15]);
        // DPS at D = 6, P = 4: a sync at 4, 8, 16, 20, a rebuild at 6, 18
        // and both at 12 and 24.
        let dps = SyncClock::new(SyncConfig::new(4), CachePolicy::dps(8, 6));
        assert_eq!(window_ends(&dps, 24), [3, 5, 7, 11, 15, 17, 19, 23]);
        for t in 0..64 {
            assert_eq!(dps.ends_window(t), dps.rebuilds(t + 1) || dps.syncs(t + 1));
        }
        // P = 1: every push ends one.
        let p1 = SyncClock::new(SyncConfig::new(1), CachePolicy::dps(8, 6));
        assert_eq!(window_ends(&p1, 5), [0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_batches_to_a_boundary_run_to_the_window_end_or_the_epochs_last() {
        let dps = SyncClock::new(SyncConfig::new(4), CachePolicy::dps(8, 6));
        // Inside the epoch: up to and including the push that ends the
        // window.
        assert_eq!(dps.to_boundary(0, 100), 1..4);
        assert_eq!(dps.to_boundary(3, 100), 4..6);
        assert_eq!(dps.to_boundary(6, 100), 7..8);
        assert_eq!(dps.to_boundary(8, 100), 9..12);
        // The epoch's last iteration is a boundary whatever the window says.
        assert_eq!(dps.to_boundary(0, 1), 1..2);
        assert_eq!(dps.to_boundary(8, 2), 9..11);
        let cps = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        assert_eq!(cps.to_boundary(4, 100), 5..8);
        assert_eq!(cps.to_boundary(5, 3), 6..8);
        // In general: nonempty, after `t`, no earlier boundary inside.
        for t in 0..40 {
            for remaining in 1..10 {
                let r = dps.to_boundary(t, remaining);
                assert_eq!(r.start, t + 1);
                let last = r.end - 1;
                assert!(
                    dps.ends_window(last) || last == t + remaining,
                    "{t} {remaining}"
                );
                assert!(
                    (r.start..last).all(|u| !dps.ends_window(u)),
                    "{t} {remaining}"
                );
            }
        }
    }

    #[test]
    fn unhealthy_shards_are_skipped_only_below_the_degraded_bound() {
        let mut clock = SyncClock::new(SyncConfig::new(2), CachePolicy::cps(8));
        assert_eq!(clock.bound(true), 16);
        for t in 0..=20 {
            clock.begin(t, true);
            assert_eq!(clock.skips_unhealthy(), t < 16, "iteration {t}");
            clock.begin(t, false);
            assert!(!clock.skips_unhealthy(), "no fault plan, nothing skipped");
        }
    }

    #[test]
    fn only_a_sync_of_the_whole_table_resets_the_clock() {
        let mut clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        clock.begin(4, true);
        clock.synced(3, 4);
        clock.begin(8, true);
        assert_eq!(clock.stale, 8, "a partial sync leaves the clock running");
        clock.synced(4, 4);
        clock.begin(9, true);
        assert_eq!(clock.stale, 1);
        assert_eq!(clock.max_staleness(), 8);
    }

    fn one_row_table() -> (HotEmbeddingTable, ParamKey) {
        let ks = hetkg_kgraph::KeySpace::new(4, 1);
        let mut table = HotEmbeddingTable::new(ks, 2, 2, 2, 2, 0);
        table.insert_at(ParamKey(1), &[1.0, 2.0], 7, 0).unwrap();
        (table, ParamKey(1))
    }

    #[test]
    fn a_sync_asks_about_every_row_it_covers_but_those_confirmed_now() {
        let (mut table, k) = one_row_table();
        table.insert_at(ParamKey(2), &[0.0; 2], 9, 4).unwrap();
        let mut clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        clock.begin(4, false);
        let mut asked = Vec::new();
        let covered = clock.probe(&table, |_| true, |k, v| asked.push((k, v)));
        assert_eq!((covered, asked), (2, vec![(k, 7)]));
        let covered = clock.probe(&table, |key| key != k, |_, _| panic!("nothing to ask"));
        assert_eq!(covered, 1, "a skipped row is not covered");
        // What comes back refreshes a row; what does not confirms it.
        assert_eq!(clock.refresh(&mut table, k, &[4.0, 6.0], 8), 5.0);
        assert_eq!(table.age(k, 4), Some(0));
        clock.begin(6, false);
        clock.confirm(&mut table, ParamKey(2));
        assert_eq!(table.age(ParamKey(2), 6), Some(0));
        assert_eq!(table.held_version(k), Some(8));
    }

    #[test]
    fn a_hit_is_no_older_than_the_table() {
        let (mut table, k) = one_row_table();
        let mut clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        for t in 1..=4 {
            clock.begin(t, false);
            clock.assert_fresh(&table, k);
        }
        clock.confirm(&mut table, k);
        clock.synced(1, 1);
        clock.begin(5, false);
        clock.assert_fresh(&table, k);
    }

    /// The two clocks tied: a sync that claims the whole table but left a
    /// row unconfirmed is caught at the row's next hit.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "§IV-C")]
    fn a_hit_older_than_the_table_fails_the_bound() {
        let (table, k) = one_row_table();
        let mut clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        clock.begin(4, false);
        clock.synced(1, 1);
        clock.begin(5, false);
        clock.assert_fresh(&table, k);
    }

    /// The write side: a gradient held a whole period is caught.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "held a gradient for 4 iterations")]
    fn a_gradient_held_a_whole_period_fails_the_bound() {
        let clock = SyncClock::new(SyncConfig::new(4), CachePolicy::cps(8));
        clock.assert_held(ParamKey(1), 2, 5);
        clock.assert_held(ParamKey(1), 2, 6);
    }
}
