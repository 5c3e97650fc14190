//! Cache effectiveness accounting: hits, misses, hit ratio, and what the hot
//! table held and cost.

use crate::table::Pending;
use hetkg_ps::optimizer::energy;
use serde::{Deserialize, Serialize};

hetkg_netsim::counters! {
    /// Hit/miss counters for one cache over one run.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheStats {
        /// Accesses served from the cache.
        pub hits: u64,
        /// Accesses that had to go to the PS.
        pub misses: u64,
    }
}

impl CacheStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one access.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// Total accesses.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 for an untouched cache.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hits, self.total())
    }
}

hetkg_netsim::counters! {
    /// What a hot table held and what building it cost, with how the pipeline
    /// split the miss pulls it left over (a cacheless system reports the split
    /// of its whole pulls and zeros for the table). All fields are sums, so
    /// reports merge across workers and epochs by addition; the ratios are
    /// derived.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
    pub struct TableEconomy {
        /// Table (re)constructions: one for CPS, one per `D` iterations for DPS.
        pub rebuilds: u64,
        /// Rows the table held right after each rebuild, summed over rebuilds.
        pub rows_held: u64,
        /// The table's capacity, summed over rebuilds (the base of
        /// [`TableEconomy::occupancy`]).
        pub capacity: u64,
        /// Rows rebuilds pulled because the table did not hold them yet.
        pub fresh_rows: u64,
        /// Of `staged_late`, the keys staged in DPS windows whose selection
        /// left the table room. DPS holds every key two batches of a window read
        /// unless the selection filled the table, so this is 0.
        #[serde(default)]
        pub staged_late_with_room: u64,
        /// Miss keys of staged batches whose pull was issued one iteration
        /// early, behind the in-flight compute.
        pub staged_early: u64,
        /// Miss keys of staged batches left for consume time, because the
        /// in-flight batch writes them. Neither count takes in a rebuilt table's
        /// first batch, staged across two windows, which always share some.
        pub staged_late: u64,
        /// Cached rows written back: each left the table's write-back arena in
        /// one push, once per sync window, whatever it had collected.
        #[serde(default)]
        pub written_back_rows: u64,
        /// Of those, the rows that left before their window's last push: in the
        /// push of the last batch to read them before it.
        #[serde(default)]
        pub written_back_early: u64,
        /// The gradients the written-back rows had collected (each row at least
        /// one).
        #[serde(default)]
        pub coalesced_grads: u64,
        /// Over the written-back rows that carried more than one gradient —
        /// the ones sent with an energy: `Σ E`, the energies sent …
        #[serde(default)]
        pub written_back_energy: f64,
        /// … and `Σ ‖Σg‖²`, the squared norms of the sums they were sent with
        /// (the one counter here that is computed for the report alone: a dot
        /// product per such row per write-back, not per iteration).
        #[serde(default)]
        pub written_back_sum_sq: f64,
    }
}

impl TableEconomy {
    /// Count `p` written back, `early` when before its window's last push.
    pub fn written_back(&mut self, p: &Pending<'_>, early: bool) {
        self.written_back_rows += 1;
        self.written_back_early += u64::from(early);
        self.coalesced_grads += u64::from(p.grads);
        if p.grads > 1 {
            self.written_back_energy += f64::from(p.energy);
            self.written_back_sum_sq += f64::from(energy(p.sum));
        }
    }

    /// Rows held ÷ capacity, mean over rebuilds; 0 before any rebuild.
    pub fn occupancy(&self) -> f64 {
        ratio(self.rows_held, self.capacity)
    }

    /// Fresh rows pulled per rebuild; 0 before any rebuild.
    pub fn fresh_rows_per_rebuild(&self) -> f64 {
        ratio(self.fresh_rows, self.rebuilds)
    }

    /// Gradients per written-back row: how many pushes of a hot row one
    /// write-back stands for. 0 before any.
    pub fn coalescing_factor(&self) -> f64 {
        ratio(self.coalesced_grads, self.written_back_rows)
    }

    /// The share of written-back rows that left before their window's last
    /// push, off the critical path of the sync behind it. 0 before any.
    pub fn early_share(&self) -> f64 {
        ratio(self.written_back_early, self.written_back_rows)
    }

    /// `ρ = Σ E ÷ Σ ‖Σg‖²` over the rows sent with an energy: how far
    /// `(Σg)²` alone would under-count what the server's AdaGrad
    /// accumulates. Above 1 when a row's successive gradients
    /// anti-correlate; 0 before any such row.
    pub fn mean_rho(&self) -> f64 {
        if self.written_back_sum_sq > 0.0 {
            self.written_back_energy / self.written_back_sum_sq
        } else {
            0.0
        }
    }
}

/// `num / den`, 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_basics() {
        let mut s = CacheStats::new();
        assert_eq!(s.hit_ratio(), 0.0);
        s.record(true);
        s.record(true);
        s.record(false);
        assert_eq!(s.total(), 3);
        assert!((s.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    /// A `T` whose counters each hold a distinct value: the `i`-th number of
    /// its JSON, in key order, is `base + step·i`, a quarter of that for an
    /// `f64` (as `hetkg-netsim`'s ledgers are checked), so a field `merge`
    /// or `since` leaves out, or takes from the wrong side, misses its value.
    fn distinct<T: Default + Serialize + Deserialize>(base: u64, step: u64) -> T {
        let mut fields = serde_json::Map::new();
        let zero = serde_json::to_value(T::default()).unwrap();
        for (i, (key, value)) in (0..).zip(zero.as_object().unwrap().iter()) {
            let n = base + step * i;
            let filled = match value {
                serde_json::Value::Float(_) => serde_json::Value::Float(n as f64 / 4.0),
                _ => serde_json::Value::UInt(n),
            };
            fields.insert(key.clone(), filled);
        }
        serde_json::from_value(serde_json::Value::Map(fields)).unwrap()
    }

    #[test]
    fn merge_adds_counters() {
        let a = CacheStats { hits: 3, misses: 1 };
        let b = CacheStats { hits: 1, misses: 5 };
        let c = a.merge(b);
        assert_eq!(c, CacheStats { hits: 4, misses: 6 });
        let (a, b) = (distinct::<CacheStats>(1, 1), distinct(100, 1));
        assert_eq!(a.merge(b), distinct(101, 2));
        assert_eq!(distinct::<CacheStats>(101, 2).since(a), b);
        let (a, b) = (distinct::<TableEconomy>(1, 1), distinct(100, 1));
        assert_eq!(a.merge(b), distinct(101, 2));
        assert_eq!(b.merge(a), distinct(101, 2));
        assert_eq!(distinct::<TableEconomy>(101, 2).since(a), b);
    }

    #[test]
    fn table_economy_ratios_are_over_rebuilds() {
        assert_eq!(TableEconomy::default().occupancy(), 0.0);
        assert_eq!(TableEconomy::default().fresh_rows_per_rebuild(), 0.0);
        let a = TableEconomy {
            rebuilds: 2,
            rows_held: 30,
            capacity: 80,
            fresh_rows: 12,
            staged_late_with_room: 1,
            staged_early: 5,
            staged_late: 1,
            written_back_rows: 10,
            written_back_early: 4,
            coalesced_grads: 28,
            written_back_energy: 9.0,
            written_back_sum_sq: 4.0,
        };
        assert_eq!(TableEconomy::default().coalescing_factor(), 0.0);
        assert_eq!(TableEconomy::default().mean_rho(), 0.0);
        assert_eq!(a.coalescing_factor(), 2.8);
        assert_eq!(TableEconomy::default().early_share(), 0.0);
        assert_eq!(a.early_share(), 0.4);
        assert_eq!(a.mean_rho(), 2.25);
        let both = a.merge(TableEconomy {
            rebuilds: 2,
            rows_held: 50,
            capacity: 80,
            fresh_rows: 8,
            ..Default::default()
        });
        assert_eq!(both.occupancy(), 0.5);
        assert_eq!(both.fresh_rows_per_rebuild(), 5.0);
        assert_eq!((both.staged_early, both.staged_late), (5, 1));
        assert_eq!(a.merge(a).staged_late_with_room, 2);
        assert_eq!(a.merge(a).coalescing_factor(), 2.8);
        assert_eq!(a.merge(a).written_back_early, 8);
        assert_eq!(a.merge(a).mean_rho(), 2.25);
    }
}
