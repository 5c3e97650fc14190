//! What a client does with a shard's backups: ship them the primary's
//! writes, promote one when the primary dies, and hedge a slow read
//! against one.
//!
//! The store keeps the backups and their backlogs
//! ([`KvStore::with_replication`]); this piece decides when they are used
//! and meters what that costs on the replication lane. A [`PsClient`]
//! holds one exactly when its store has backups ([`Replicas::for_store`]),
//! so no setting arms it, and asks it three things:
//! [`ship`](Replicas::ship) after each push or write carry,
//! [`fail_over`](Replicas::fail_over) on a `ShardDead` verdict and
//! [`hedge`](Replicas::hedge) after a delivered remote read. One per
//! client: a worker rebuilt after a crash gets a new client, whose hedging
//! calibrates again from its first read.
//!
//! [`PsClient`]: crate::client::PsClient

use crate::error::RpcError;
use crate::kvstore::{KvStore, ReplicationFlush};
use hetkg_netsim::{FaultInjector, TrafficMeter};
use parking_lot::Mutex;
use std::sync::Arc;

/// Hedged pulls fire when a delivery's latency inflation (observed time over
/// the cost model's base time) exceeds `HEDGE_MIN_RATIO` and
/// `HEDGE_EWMA_SLACK ×` the client's running average — adaptive, so a
/// sustained episode stops triggering hedges once the average catches up.
const HEDGE_MIN_RATIO: f64 = 2.0;
const HEDGE_EWMA_SLACK: f64 = 1.5;
/// EWMA smoothing for the observed inflation ratio.
const HEDGE_EWMA_ALPHA: f64 = 0.2;

/// Running latency-inflation tracker backing the adaptive hedge threshold.
#[derive(Debug, Default)]
struct HedgeState {
    ewma: f64,
    primed: bool,
}

impl HedgeState {
    /// Inflation ratio above which the next pull is hedged. Infinite until
    /// the first observation lands (never hedge blind).
    fn threshold(&self) -> f64 {
        if self.primed {
            (HEDGE_EWMA_SLACK * self.ewma).max(HEDGE_MIN_RATIO)
        } else {
            f64::INFINITY
        }
    }

    fn observe(&mut self, ratio: f64) {
        // A zero-duration baseline (cost model says the pull was free)
        // makes the inflation ratio inf or NaN. Folding either into the
        // EWMA poisons it permanently — inf disables hedging forever, NaN
        // force-triggers or disables it depending on comparison direction —
        // so non-finite observations are discarded, not smoothed.
        if !ratio.is_finite() {
            return;
        }
        if self.primed {
            self.ewma = (1.0 - HEDGE_EWMA_ALPHA) * self.ewma + HEDGE_EWMA_ALPHA * ratio;
        } else {
            self.ewma = ratio;
            self.primed = true;
        }
    }
}

/// One client's use of its store's backup replicas.
#[derive(Debug)]
pub(crate) struct Replicas {
    store: Arc<KvStore>,
    meter: Arc<TrafficMeter>,
    hedge: Mutex<HedgeState>,
}

impl Replicas {
    /// The piece a client of `store` metering on `meter` attaches: `Some`
    /// exactly when the store keeps backups (replication factor above 1).
    pub(crate) fn for_store(store: &Arc<KvStore>, meter: &Arc<TrafficMeter>) -> Option<Self> {
        (store.replication() > 1).then(|| Self {
            store: store.clone(),
            meter: meter.clone(),
            hedge: Mutex::default(),
        })
    }

    /// Meter a shipment on the replication lane: one message per backup.
    fn record(&self, flush: ReplicationFlush) {
        for _ in 0..flush.messages {
            self.meter.record_replication(flush.payload_bytes);
        }
    }

    /// Drain any full replication batch of `shard` to its backups.
    pub(crate) fn ship(&self, shard: usize) {
        self.record(self.store.replicate(shard));
    }

    /// Handle a permanently dead primary: race to mark the shard promoted
    /// (exactly one caller wins), replay the replication backlog onto the
    /// backup (anti-entropy catch-up, metered as replication traffic), and
    /// swap the backup into the primary slot. Losers of the race return
    /// immediately — the winner's promotion is already visible through the
    /// shared liveness table by the time `promote` returns `true` here.
    pub(crate) fn fail_over(&self, f: &FaultInjector, shard: usize) -> Result<(), RpcError> {
        let lost = RpcError::ShardLost { shard };
        let Some(liveness) = f.liveness() else {
            return Err(lost);
        };
        if liveness.promote(shard, f.now()) {
            if !self.store.has_backup(shard) {
                return Err(lost);
            }
            let flush = self.store.catch_up(shard);
            self.record(flush);
            if !self.store.promote(shard) {
                return Err(lost);
            }
            f.count(|s| {
                s.promotions += 1;
                s.catch_up_frames += flush.records;
                s.catch_up_bytes += flush.messages * flush.payload_bytes;
            });
        }
        Ok(())
    }

    /// Hedge a slow remote read of `bytes` against a backup. `elapsed` is
    /// the simulated time the delivered attempt took; `base` is what the
    /// cost model says an unperturbed transfer costs. When the ratio blows
    /// past an adaptive threshold (an EWMA of recent ratios, floored so
    /// routine jitter never trips it), the same read is issued to the
    /// backup: its bytes are metered on the replication lane, and if the
    /// backup's unperturbed response would have arrived first, the saved
    /// time is credited back to the worker's clock. Payloads are untouched
    /// — the primary's frame is already sealed — so hedging perturbs time
    /// and counters only, never training values. Writes are never hedged:
    /// duplicating a gradient push would double-apply it.
    pub(crate) fn hedge(&self, f: &FaultInjector, shard: usize, bytes: u64, elapsed: f64) {
        if !self.store.has_backup(shard) {
            return;
        }
        let base = f.cost().remote_time(bytes, 1);
        if base <= 0.0 {
            return;
        }
        let ratio = elapsed / base;
        let threshold = {
            let mut h = self.hedge.lock();
            let t = h.threshold();
            h.observe(ratio);
            t
        };
        if ratio < threshold {
            return;
        }
        self.meter.record_replication(bytes);
        let backup_time = base + f.cost().remote_latency;
        let won = backup_time < elapsed;
        f.note_hedged_pull(won, if won { elapsed - backup_time } else { 0.0 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvstore::REPLICATION_BATCH;
    use crate::router::ShardRouter;
    use hetkg_embed::init::Init;
    use hetkg_kgraph::{KeySpace, ParamKey};
    use hetkg_netsim::{CostModel, FaultPlan, ShardLiveness};

    /// Two shards of rows 4 wide, no optimizer state, `k`-way replicated.
    fn replicated(k: usize) -> Arc<KvStore> {
        let router = ShardRouter::round_robin(KeySpace::new(8, 4), 2);
        let store = KvStore::new(router, 4, 4, 0, Init::Uniform { bound: 0.1 }, 1);
        Arc::new(store.with_replication(k))
    }

    fn attach(store: &Arc<KvStore>) -> (Replicas, Arc<TrafficMeter>) {
        let meter = Arc::new(TrafficMeter::new());
        let replicas = Replicas::for_store(store, &meter).expect("the store keeps backups");
        (replicas, meter)
    }

    fn injector(worker: usize) -> FaultInjector {
        FaultInjector::new(FaultPlan::default(), CostModel::gigabit(), worker)
    }

    /// Wire size of one logged overwrite of a 4-wide row: its key and row.
    const RECORD_BYTES: u64 = 8 + 4 * 4;

    #[test]
    fn ship_meters_one_message_per_live_backup_and_nothing_below_a_full_batch() {
        let store = replicated(3);
        let (replicas, meter) = attach(&store);
        // Key 1 lives on shard 1.
        for i in 1..REPLICATION_BATCH {
            store.store(ParamKey(1), &[i as f32; 4]);
            replicas.ship(1);
        }
        assert_eq!(meter.snapshot(), TrafficMeter::new().snapshot());
        store.store(ParamKey(1), &[0.5; 4]);
        replicas.ship(0);
        assert_eq!(meter.snapshot().replication_messages, 0, "shard 0 is idle");
        replicas.ship(1);
        let s = meter.snapshot();
        let batch = REPLICATION_BATCH as u64 * RECORD_BYTES;
        assert_eq!(
            (s.replication_messages, s.replication_bytes),
            (2, 2 * batch),
            "one message per backup, each the whole batch"
        );
        assert_eq!(s.total_bytes(), 0, "the worker lanes carry none of it");
    }

    #[test]
    fn fail_over_promotes_once_and_a_shard_with_no_backup_left_is_lost() {
        let store = replicated(2);
        store.store(ParamKey(1), &[7.0; 4]);
        let liveness = Arc::new(ShardLiveness::new(2));
        let (winner, won_meter) = attach(&store);
        let (loser, lost_meter) = attach(&store);
        let (f_win, f_lose) = (
            injector(0).with_liveness(liveness.clone()),
            injector(1).with_liveness(liveness.clone()),
        );
        assert_eq!(winner.fail_over(&f_win, 1), Ok(()));
        let s = f_win.stats();
        assert_eq!(
            (s.promotions, s.catch_up_frames, s.catch_up_bytes),
            (1, 1, RECORD_BYTES),
            "one promotion, the one backlogged record drained"
        );
        let m = won_meter.snapshot();
        assert_eq!(
            (m.replication_messages, m.replication_bytes),
            (1, RECORD_BYTES)
        );
        let mut row = [0.0f32; 4];
        store.pull(ParamKey(1), &mut row);
        assert_eq!(row, [7.0; 4], "the promoted backup caught up first");
        // The race's loser finds the shard promoted and retries against it.
        assert_eq!(loser.fail_over(&f_lose, 1), Ok(()));
        assert!(f_lose.stats().is_quiet(), "the loser notes nothing");
        assert_eq!(lost_meter.snapshot(), TrafficMeter::new().snapshot());
        assert_eq!(liveness.take_events().len(), 1);
        // A second death of shard 1 finds its one backup spent.
        let again = injector(0).with_liveness(Arc::new(ShardLiveness::new(2)));
        let lost = Err(RpcError::ShardLost { shard: 1 });
        assert_eq!(winner.fail_over(&again, 1), lost);
        assert_eq!(winner.fail_over(&injector(0), 1), lost, "no liveness table");
        assert_eq!(again.stats().promotions, 0);
    }

    #[test]
    fn hedge_waits_for_an_observation_floors_its_threshold_and_credits_a_win() {
        let store = replicated(2);
        let f = injector(0);
        let bytes = 1_000;
        let base = f.cost().remote_time(bytes, 1);
        let hedged = || f.stats().hedged_pulls;
        // Never blind: a client's first read is only observed, however slow.
        let (blind, blind_meter) = attach(&store);
        blind.hedge(&f, 1, bytes, 100.0 * base);
        assert_eq!(hedged(), 0);
        assert_eq!(blind_meter.snapshot().replication_bytes, 0);
        // Calibrated to on-time reads, 1.5 × the average is 1.5: the
        // threshold is its floor, 2.
        let (replicas, meter) = attach(&store);
        for _ in 0..20 {
            replicas.hedge(&f, 1, bytes, base);
        }
        replicas.hedge(&f, 1, bytes, 1.9 * base);
        assert_eq!(hedged(), 0, "on time and below the floor: no hedge");
        // A 4 × straggler fires, and the backup's answer is the earlier one.
        let elapsed = 4.0 * base;
        f.advance(elapsed);
        let before = f.now();
        replicas.hedge(&f, 1, bytes, elapsed);
        let s = f.stats();
        assert_eq!((s.hedged_pulls, s.hedged_wins), (1, 1));
        assert_eq!(meter.snapshot().replication_bytes, bytes);
        let backup_time = base + f.cost().remote_latency;
        let credited = before - f.now();
        assert!((credited - (elapsed - backup_time)).abs() < 1e-15);
    }

    #[test]
    fn hedge_state_discards_non_finite_ratios() {
        let mut h = HedgeState::default();
        // A zero-duration baseline pull produces inf (x/0) or NaN (0/0);
        // neither may prime or move the EWMA.
        h.observe(f64::INFINITY);
        assert!(!h.primed, "inf must not prime the tracker");
        assert_eq!(h.threshold(), f64::INFINITY, "still never-hedge-blind");
        h.observe(f64::NAN);
        assert!(!h.primed, "NaN must not prime the tracker");
        h.observe(3.0);
        assert!(h.primed);
        assert_eq!(h.ewma, 3.0);
        let before = h.ewma;
        h.observe(f64::NEG_INFINITY);
        h.observe(f64::NAN);
        assert_eq!(h.ewma, before, "non-finite ratios leave the EWMA alone");
        assert!(h.threshold().is_finite());
        // Finite observations keep smoothing as before.
        h.observe(5.0);
        assert!((h.ewma - (0.8 * 3.0 + 0.2 * 5.0)).abs() < 1e-12);
    }
}
