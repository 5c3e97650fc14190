//! Degraded mode's backlog: the gradients a worker could not push while
//! their home shard was down or browning out, summed per key the way the hot
//! table holds a row (sum, energy `Σᵢ‖gᵢ‖²`, count) and replayed the way a
//! row is written back. It is bounded: a new key past the bound is shed.
//! Which keys are ready and in what order is decided here; the worker pushes.

use hetkg_kgraph::ParamKey;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Gradients deferred for one key, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct Deferred {
    /// `Σᵢ gᵢ` — the one gradient itself when `grads` is 1.
    pub sum: Vec<f32>,
    /// `Σᵢ ‖gᵢ‖²`.
    pub energy: f32,
    /// How many gradients were summed.
    pub grads: u32,
}

/// The deferred pushes of one worker, summed per key.
#[derive(Debug, Default)]
pub struct Backlog {
    entries: HashMap<ParamKey, Deferred>,
}

/// A replay in push order: keys, their entries, and the energies of the
/// entries that sum several gradients.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    pub keys: Vec<ParamKey>,
    pub rows: Vec<Deferred>,
    pub energies: Vec<f32>,
}

impl Backlog {
    /// Bound on the keys held, so a long brownout cannot grow memory.
    pub const CAP: usize = 4096;

    /// Whether nothing is deferred.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The deferred entries, in no order.
    pub fn values(&self) -> impl Iterator<Item = &Deferred> {
        self.entries.values()
    }

    /// Fold `grads` gradients of `k`, summed in `sum` with energy `energy`,
    /// in: a key already held accumulates whatever the bound, a new one is
    /// admitted only below [`Backlog::CAP`]. Kept gradients return true,
    /// after `residual` folds the key's pending compression error into the
    /// entry's sum; shed ones leave it where it is.
    pub fn defer(
        &mut self,
        k: ParamKey,
        sum: &[f32],
        energy: f32,
        grads: u32,
        residual: impl FnOnce(&mut [f32]),
    ) -> bool {
        let full = self.entries.len() >= Self::CAP;
        let entry = match self.entries.entry(k) {
            Entry::Occupied(e) => {
                let acc = e.into_mut();
                for (a, b) in acc.sum.iter_mut().zip(sum) {
                    *a += b;
                }
                acc.energy += energy;
                acc.grads += grads;
                acc
            }
            Entry::Vacant(_) if full => return false,
            Entry::Vacant(e) => e.insert(Deferred {
                sum: sum.to_vec(),
                energy,
                grads,
            }),
        };
        residual(&mut entry.sum);
        true
    }

    /// Take out every entry whose key `ready` accepts, as one replay: those
    /// with one gradient first, then those that sum several, each group in
    /// key order. `None` when no entry is ready.
    pub fn take_ready(&mut self, ready: impl Fn(ParamKey) -> bool) -> Option<Replay> {
        let mut keys: Vec<ParamKey> = self.entries.keys().copied().filter(|&k| ready(k)).collect();
        if keys.is_empty() {
            return None;
        }
        keys.sort_unstable_by_key(|k| (self.entries[k].grads > 1, k.0));
        let rows: Vec<Deferred> = keys
            .iter()
            .map(|k| self.entries.remove(k).expect("key was just listed"))
            .collect();
        let energies = rows
            .iter()
            .filter(|d| d.grads > 1)
            .map(|d| d.energy)
            .collect();
        Some(Replay {
            keys,
            rows,
            energies,
        })
    }

    /// Put a replay back whole, after its push was refused: it cannot
    /// overflow the bound, these keys held slots moments ago.
    pub fn put_back(&mut self, replay: Replay) {
        self.entries
            .extend(replay.keys.into_iter().zip(replay.rows));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_residual(_: &mut [f32]) {}

    /// Every entry, by key, bit for bit.
    fn bits(b: &Backlog) -> Vec<(ParamKey, Vec<u32>, u32, u32)> {
        let mut rows: Vec<_> = (b.entries.iter())
            .map(|(&k, d)| {
                (
                    k,
                    d.sum.iter().map(|v| v.to_bits()).collect(),
                    d.energy.to_bits(),
                    d.grads,
                )
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    #[test]
    fn at_the_cap_a_new_key_is_shed_and_a_held_one_still_accumulates() {
        let mut b = Backlog::default();
        for k in 0..Backlog::CAP as u64 {
            assert!(b.defer(ParamKey(k), &[1.0], 1.0, 1, no_residual));
        }
        assert!(
            !b.defer(ParamKey(1 << 20), &[1.0], 1.0, 1, no_residual),
            "shed"
        );
        assert!(b.defer(ParamKey(7), &[0.5], 0.25, 2, no_residual), "kept");
        assert_eq!(b.entries.len(), Backlog::CAP);
        let seven = &b.entries[&ParamKey(7)];
        assert_eq!(
            (seven.sum.as_slice(), seven.energy, seven.grads),
            (&[1.5][..], 1.25, 3)
        );
    }

    #[test]
    fn a_replay_runs_single_gradients_first_then_by_key() {
        let mut b = Backlog::default();
        for (k, grads) in [(9, 1), (2, 3), (5, 1), (1, 2), (4, 1)] {
            let e = k as f32;
            assert!(b.defer(ParamKey(k), &[e], e * e, grads, no_residual));
        }
        // One gradient of 4 more: the entry sums two.
        b.defer(ParamKey(4), &[1.0], 1.0, 1, no_residual);
        let replay = b.take_ready(|k| k != ParamKey(5)).expect("ready");
        let keys: Vec<u64> = replay.keys.iter().map(|k| k.0).collect();
        assert_eq!(keys, [9, 1, 2, 4]);
        assert_eq!(
            replay.energies,
            [1.0, 4.0, 17.0],
            "the entries that sum several"
        );
        assert_eq!(replay.rows[3].sum, [5.0]);
        // What is not ready stays; nothing ready, no replay.
        assert_eq!(b.entries.keys().collect::<Vec<_>>(), [&ParamKey(5)]);
        assert!(b.take_ready(|_| false).is_none());
        assert!(b.take_ready(|_| true).is_some() && b.is_empty());
        assert!(b.take_ready(|_| true).is_none());
    }

    #[test]
    fn a_put_back_restores_every_entry_bit_for_bit() {
        let mut b = Backlog::default();
        for k in 0..40u64 {
            let g = [k as f32 * 0.1, -1.0 / (k as f32 + 3.0)];
            b.defer(ParamKey(k % 17), &g, 0.3 * k as f32, 1, no_residual);
        }
        let before = bits(&b);
        let replay = b.take_ready(|k| k.0 % 3 != 0).expect("ready");
        assert!(replay.keys.iter().all(|k| k.0 % 3 != 0));
        b.put_back(replay);
        assert_eq!(bits(&b), before);
        assert_eq!(b.values().count(), 17);
    }

    #[test]
    fn the_residual_folds_only_into_kept_gradients() {
        let mut b = Backlog::default();
        let residual = |sum: &mut [f32]| sum[0] += 100.0;
        assert!(b.defer(ParamKey(1), &[1.0], 1.0, 1, residual));
        assert!(b.defer(ParamKey(1), &[1.0], 1.0, 1, residual));
        assert_eq!(
            b.entries[&ParamKey(1)].sum,
            [202.0],
            "into the whole entry, each time"
        );
        for k in 2..=Backlog::CAP as u64 {
            b.defer(ParamKey(k), &[0.0], 0.0, 1, no_residual);
        }
        let mut folded = false;
        let kept = b.defer(ParamKey(1 << 20), &[1.0], 1.0, 1, |_| folded = true);
        assert!(!kept && !folded, "a shed key keeps its residual");
    }
}
