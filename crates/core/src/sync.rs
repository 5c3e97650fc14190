//! Algorithms 3–4 — hot-embedding synchronization with bounded staleness.
//!
//! A cached row drifts from its global replica as other workers keep pushing
//! gradients to the PS. The synchronization algorithm bounds that drift:
//! every `P` iterations the worker brings *all* cached rows up to date with
//! the PS. `P` is therefore the staleness bound of §IV-C's convergence
//! analysis — Fig. 8b sweeps it, Fig. 9 shows divergence when it is too
//! large.
//!
//! This module holds the schedule and the staleness book-keeping. The
//! exchange itself is the HET-KG worker's, and it is a pull-if-newer: the
//! worker sends the server version each cached row is held under and gets
//! back only the rows whose version moved — an unchanged row is
//! bit-identical to the cached copy, so it is confirmed current without
//! being re-sent. The request rides in the same metered PS message as that
//! iteration's misses, which is also where cache-vs-global divergence is
//! measured. The same period bounds the other direction: the worker writes
//! a cached row's gradients back once per window, in the push of the
//! iteration before a sync, so the server never waits longer than `P − 1`
//! iterations for one.

use serde::{Deserialize, Serialize};

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

/// Tracks how stale the cache is, for invariant checks and reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct StalenessTracker {
    last_sync: usize,
    max_observed: usize,
}

impl StalenessTracker {
    /// Fresh tracker (cache considered synced at iteration 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a synchronization happened at `iteration`.
    pub fn record_sync(&mut self, iteration: usize) {
        self.last_sync = iteration;
    }

    /// Current staleness at `iteration` (iterations since the last sync),
    /// also folding it into the maximum.
    pub fn observe(&mut self, iteration: usize) -> usize {
        let s = iteration.saturating_sub(self.last_sync);
        self.max_observed = self.max_observed.max(s);
        s
    }

    /// Largest staleness observed so far.
    pub fn max_observed(&self) -> usize {
        self.max_observed
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
        let cfg = SyncConfig::new(4);
        let mut t = StalenessTracker::new();
        for iter in 0..20 {
            if cfg.is_sync_iteration(iter) {
                t.record_sync(iter);
            }
            let s = t.observe(iter);
            assert!(
                s < cfg.period,
                "staleness {s} exceeded bound at iter {iter}"
            );
        }
        assert_eq!(t.max_observed(), cfg.period - 1);
    }
}
