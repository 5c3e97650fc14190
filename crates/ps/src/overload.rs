//! Overload protection: a run-global retry budget and per-shard circuit
//! breakers.
//!
//! Both mechanisms are *client-side* countermeasures against the flash-crowd
//! failure mode: when a shard saturates, independent per-worker retries
//! multiply the load exactly when the shard can least absorb it. The
//! [`RetryBudget`] makes retries a shared, earned resource (workers earn
//! tokens on successful operations and spend them on retries), so the
//! aggregate retry rate self-limits instead of storming. The
//! [`ShardBreakers`] table stops sending to a shard that keeps failing
//! (Closed → Open), probes it after a cooldown (Open → HalfOpen), and
//! restores normal traffic once a probe succeeds (HalfOpen → Closed).
//!
//! No switch arms them: a run whose fault plan schedules an overload window
//! attaches one [`OverloadControl`], both together, shared by every
//! worker's [`PsClient`] (like `ShardLiveness`), so its state survives
//! crash-recovery worker rebuilds and all workers see the same breaker
//! decisions. The trainer drives workers in a fixed round-robin on one
//! thread, so the shared atomics and mutexes observe a schedule that is a
//! pure function of the config. Idle is free: with no failures the budget
//! only earns and every breaker stays Closed, charging no time and drawing
//! no randomness.
//!
//! [`PsClient`]: crate::client::PsClient

use crate::error::{RpcError, MAX_ATTEMPTS};
use hetkg_netsim::{FaultInjector, FaultPlan};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Millitokens one retry costs (integer arithmetic keeps the shared
/// balance exact and deterministic).
pub const RETRY_COST_MILLITOKENS: u64 = 1_000;
/// Starting balance: two retries' worth, a small float for transient blips;
/// sustained retrying must be earned.
const BUDGET_INITIAL_MILLITOKENS: u64 = 2_000;
/// Earned per successful operation: 25 millitokens, so the steady-state
/// retry allowance is 2.5 % of successful traffic.
const BUDGET_EARN_MILLITOKENS: u64 = 25;
/// Balance ceiling: twenty retries, so a long quiet period cannot bank an
/// unbounded burst allowance.
const BUDGET_CAP_MILLITOKENS: u64 = 20_000;

/// The run-global token-bucket retry budget.
#[derive(Debug)]
pub struct RetryBudget {
    balance: AtomicU64,
}

impl Default for RetryBudget {
    /// A fresh budget at its starting balance.
    fn default() -> Self {
        Self {
            balance: AtomicU64::new(BUDGET_INITIAL_MILLITOKENS),
        }
    }
}

impl RetryBudget {
    /// Credit one successful operation.
    pub fn earn(&self) {
        // fetch_update so concurrent earners never overshoot the cap.
        let _ = self
            .balance
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                Some(
                    b.saturating_add(BUDGET_EARN_MILLITOKENS)
                        .min(BUDGET_CAP_MILLITOKENS),
                )
            });
    }

    /// Try to pay for one retry. `false` means the budget is dry and the
    /// caller must degrade (typed `Overloaded` error / brownout) instead of
    /// retrying; the caller's fault ledger counts it (`retries_denied`).
    pub fn try_spend(&self) -> bool {
        self.balance
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                b.checked_sub(RETRY_COST_MILLITOKENS)
            })
            .is_ok()
    }

    /// Current balance, millitokens.
    pub fn balance_millitokens(&self) -> u64 {
        self.balance.load(Ordering::Acquire)
    }
}

/// Consecutive failure signals that open a Closed breaker: three, so one
/// shed or lost message — which the retry loop absorbs — does not cut a
/// shard off.
const BREAKER_FAILURE_THRESHOLD: u32 = 3;
/// Simulated seconds an Open breaker fails fast before a HalfOpen probe goes
/// through: 500 µs, five gigabit message latencies — a tripped shard is
/// probed again within a few messages' time, not hammered on every one.
const BREAKER_COOLDOWN_SECS: f64 = 500e-6;
/// EWMA latency ratio (observed over modelled) counted as a failure signal
/// even when the message delivered: a shard answering three times slower
/// than the cost model is drowning, not jittering.
const BREAKER_LATENCY_RATIO: f64 = 3.0;

/// EWMA smoothing for the per-shard latency-ratio signal (mirrors the
/// hedging EWMA in [`replica`](crate::replica)).
const LOAD_EWMA_ALPHA: f64 = 0.2;
/// Observations before the per-shard EWMA is trusted.
const LOAD_EWMA_PRIME: u32 = 4;

/// One shard's breaker state. `Closed` carries the consecutive-failure
/// count; `Open` remembers when it tripped (cooldown + brownout-seconds
/// accounting); `HalfOpen` keeps the trip instant so a failed probe
/// re-opens without losing the brownout clock.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BreakerState {
    Closed { consecutive: u32 },
    Open { since: f64, opened_at: f64 },
    HalfOpen { opened_at: f64 },
}

/// Per-shard slot: breaker state plus the shard's EWMA latency ratio.
#[derive(Debug)]
struct ShardSlot {
    state: BreakerState,
    ewma_ratio: f64,
    observations: u32,
}

impl Default for ShardSlot {
    fn default() -> Self {
        Self {
            state: BreakerState::Closed { consecutive: 0 },
            ewma_ratio: 1.0,
            observations: 0,
        }
    }
}

/// Per-shard Closed→Open→HalfOpen circuit breakers with transition and
/// brownout-time accounting, driven entirely by the caller's simulated
/// clock (no wall time anywhere).
#[derive(Debug)]
pub struct ShardBreakers {
    shards: Vec<Mutex<ShardSlot>>,
    opens: AtomicU64,
    half_opens: AtomicU64,
    closes: AtomicU64,
    /// Total simulated seconds shards spent tripped (Open or HalfOpen),
    /// accumulated when a breaker closes. Stored in nanoseconds so the
    /// counter stays an exact integer.
    brownout_nanos: AtomicU64,
}

impl ShardBreakers {
    /// A breaker table for `num_shards` shards, all Closed.
    pub fn new(num_shards: usize) -> Self {
        Self {
            shards: (0..num_shards)
                .map(|_| Mutex::new(ShardSlot::default()))
                .collect(),
            opens: AtomicU64::new(0),
            half_opens: AtomicU64::new(0),
            closes: AtomicU64::new(0),
            brownout_nanos: AtomicU64::new(0),
        }
    }

    /// Gate one outgoing request to `shard` at simulated instant `now`:
    /// `Some(until)` fails it fast while an Open breaker cools down until
    /// `until`; `None` lets it go. An Open breaker whose cooldown has
    /// elapsed turns HalfOpen here, and the request becomes its probe.
    pub fn cooling_until(&self, shard: usize, now: f64) -> Option<f64> {
        let mut slot = self.shards.get(shard)?.lock();
        let BreakerState::Open { since, opened_at } = slot.state else {
            return None;
        };
        let until = since + BREAKER_COOLDOWN_SECS;
        if now < until {
            return Some(until);
        }
        slot.state = BreakerState::HalfOpen { opened_at };
        self.half_opens.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Report a successful delivery to `shard` with its observed/modeled
    /// latency ratio. A HalfOpen probe success closes the breaker; a
    /// latency ratio whose EWMA breaches the configured threshold counts
    /// as a failure signal instead (the shard answers, but so slowly that
    /// continuing to hammer it would be counterproductive).
    pub fn on_success(&self, shard: usize, now: f64, latency_ratio: f64) {
        let Some(slot) = self.shards.get(shard) else {
            return;
        };
        let mut slot = slot.lock();
        slot.observations = slot.observations.saturating_add(1);
        slot.ewma_ratio = if slot.observations == 1 {
            latency_ratio
        } else {
            LOAD_EWMA_ALPHA * latency_ratio + (1.0 - LOAD_EWMA_ALPHA) * slot.ewma_ratio
        };
        let breached =
            slot.observations >= LOAD_EWMA_PRIME && slot.ewma_ratio > BREAKER_LATENCY_RATIO;
        match slot.state {
            BreakerState::Closed { consecutive } => {
                if breached {
                    self.count_failure(&mut slot, consecutive, now);
                } else {
                    slot.state = BreakerState::Closed { consecutive: 0 };
                }
            }
            BreakerState::HalfOpen { opened_at } => {
                // The probe came back; even a slow success closes the
                // breaker (the EWMA will re-open it if the shard is still
                // drowning).
                slot.state = BreakerState::Closed { consecutive: 0 };
                slot.ewma_ratio = 1.0;
                slot.observations = 0;
                self.closes.fetch_add(1, Ordering::Relaxed);
                let secs = (now - opened_at).max(0.0);
                self.brownout_nanos
                    .fetch_add((secs * 1e9).round() as u64, Ordering::Relaxed);
            }
            BreakerState::Open { .. } => {
                // A request that passed the gate before the trip landed can
                // still succeed; recovery goes through the probe discipline
                // (Open -> HalfOpen -> Closed), never around it.
            }
        }
    }

    /// Report a failure signal (shed request, drop, refused connect) on
    /// `shard` at simulated instant `now`.
    pub fn on_failure(&self, shard: usize, now: f64) {
        let Some(slot) = self.shards.get(shard) else {
            return;
        };
        let mut slot = slot.lock();
        match slot.state {
            BreakerState::Closed { consecutive } => {
                self.count_failure(&mut slot, consecutive, now);
            }
            BreakerState::HalfOpen { opened_at } => {
                // Failed probe: back to Open, cooldown restarts, the
                // brownout clock keeps its original trip instant.
                slot.state = BreakerState::Open {
                    since: now,
                    opened_at,
                };
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open { .. } => {}
        }
    }

    fn count_failure(&self, slot: &mut ShardSlot, consecutive: u32, now: f64) {
        let consecutive = consecutive + 1;
        if consecutive >= BREAKER_FAILURE_THRESHOLD {
            slot.state = BreakerState::Open {
                since: now,
                opened_at: now,
            };
            self.opens.fetch_add(1, Ordering::Relaxed);
        } else {
            slot.state = BreakerState::Closed { consecutive };
        }
    }

    /// Whether `shard`'s breaker is tripped (Open or HalfOpen) — the
    /// brownout predicate the HET-KG cache consults.
    pub fn tripped(&self, shard: usize) -> bool {
        self.shards
            .get(shard)
            .is_some_and(|s| !matches!(s.lock().state, BreakerState::Closed { .. }))
    }

    /// Open transitions so far (including HalfOpen probes that failed).
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Open→HalfOpen transitions so far.
    pub fn half_opens(&self) -> u64 {
        self.half_opens.load(Ordering::Relaxed)
    }

    /// HalfOpen→Closed transitions so far.
    pub fn closes(&self) -> u64 {
        self.closes.load(Ordering::Relaxed)
    }

    /// Total simulated seconds shards spent tripped, over closed brownout
    /// episodes (an episode still open at run end is not counted — the
    /// breaker never closed, so its end instant is unknown).
    pub fn brownout_secs(&self) -> f64 {
        self.brownout_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }
}

/// The run-global overload protection every worker's client shares: the
/// three decisions the client's fault loop asks of it, and the brownout
/// predicate the HET-KG cache asks.
#[derive(Debug)]
pub struct OverloadControl {
    /// Shared retry budget.
    pub budget: RetryBudget,
    /// Shared per-shard breakers.
    pub breakers: ShardBreakers,
}

impl OverloadControl {
    /// A full budget and `num_shards` Closed breakers.
    pub fn new(num_shards: usize) -> Self {
        Self {
            budget: RetryBudget::default(),
            breakers: ShardBreakers::new(num_shards),
        }
    }

    /// Whether `plan` arms protection: exactly when it schedules an
    /// overload window, the only source of an `Overloaded` verdict — so a
    /// straggler's slow deliveries never trip a breaker.
    pub fn arms(plan: &FaultPlan) -> bool {
        !plan.overloads.is_empty()
    }

    /// The control a run under `plan` attaches, if any.
    pub fn for_plan(plan: &FaultPlan, num_shards: usize) -> Option<Self> {
        Self::arms(plan).then(|| Self::new(num_shards))
    }

    /// Whether `shard`'s breaker is tripped (Open or HalfOpen).
    pub fn tripped(&self, shard: usize) -> bool {
        self.breakers.tripped(shard)
    }

    /// Gate the next attempt at `shard`. An Open breaker fails it fast,
    /// spending no attempt: a write gets `Overloaded` back (the caller
    /// defers it), a read waits out the cooldown and goes as the probe.
    pub fn admit(
        &self,
        f: &FaultInjector,
        shard: usize,
        read: bool,
        attempts: u32,
    ) -> Result<(), RpcError> {
        while let Some(until) = self.breakers.cooling_until(shard, f.now()) {
            f.count(|s| s.breaker_fast_fails += 1);
            if !read {
                return Err(RpcError::Overloaded { shard, attempts });
            }
            f.note_backoff((until - f.now()).max(0.0));
        }
        Ok(())
    }

    /// A `bytes` message to `shard` delivered in `elapsed` simulated
    /// seconds: earn, and feed the breaker its ratio to the cost model.
    pub fn delivered(
        &self,
        f: &FaultInjector,
        shard: usize,
        remote: bool,
        bytes: u64,
        elapsed: f64,
    ) {
        self.budget.earn();
        let base = if remote {
            f.cost().remote_time(bytes, 1)
        } else {
            f.cost().local_time(bytes, 1)
        };
        let ratio = if base > 0.0 { elapsed / base } else { 1.0 };
        self.breakers.on_success(shard, f.now(), ratio);
    }

    /// `shard` shed attempt `attempts` of a `bytes` message, with room
    /// again at `retry_at`. The breaker counts a failure; then, attempts
    /// left, the budget pays a retry after that wait, or, dry, a write is
    /// handed back `Overloaded` while a read waits unpaid.
    pub fn shed(
        &self,
        f: &FaultInjector,
        shard: usize,
        read: bool,
        attempts: u32,
        bytes: u64,
        retry_at: f64,
    ) -> Result<(), RpcError> {
        self.breakers.on_failure(shard, f.now());
        if attempts >= MAX_ATTEMPTS {
            return Err(RpcError::Overloaded { shard, attempts });
        }
        let relief = (retry_at - f.now()).max(0.0);
        if self.budget.try_spend() {
            f.count(|s| {
                s.retries += 1;
                s.retransmitted_bytes += bytes;
            });
        } else {
            f.count(|s| s.retries_denied += 1);
            if !read {
                return Err(RpcError::Overloaded { shard, attempts });
            }
        }
        f.note_backoff(relief);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetkg_netsim::CostModel;

    /// `x` cooldowns, in simulated seconds.
    fn cooldowns(x: f64) -> f64 {
        x * BREAKER_COOLDOWN_SECS
    }

    #[test]
    fn budget_earns_spends_and_denies() {
        let b = RetryBudget::default();
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "balance is dry");
        assert_eq!(b.balance_millitokens(), 0);
        // Forty successes fund one more retry; thirty-nine do not.
        let per_retry = RETRY_COST_MILLITOKENS / BUDGET_EARN_MILLITOKENS;
        assert_eq!(per_retry, 40);
        for _ in 1..per_retry {
            b.earn();
        }
        assert!(!b.try_spend());
        b.earn();
        assert!(b.try_spend());
        assert_eq!(b.balance_millitokens(), 0);
    }

    #[test]
    fn budget_balance_is_capped() {
        let b = RetryBudget::default();
        assert_eq!(b.balance_millitokens(), 2 * RETRY_COST_MILLITOKENS);
        for _ in 0..1_000 {
            b.earn();
        }
        assert_eq!(b.balance_millitokens(), BUDGET_CAP_MILLITOKENS);
        assert_eq!(BUDGET_CAP_MILLITOKENS, 20 * RETRY_COST_MILLITOKENS);
    }

    #[test]
    fn breaker_walks_closed_open_halfopen_closed() {
        let br = ShardBreakers::new(2);
        assert_eq!(br.cooling_until(1, 0.0), None);
        br.on_failure(1, cooldowns(0.1));
        br.on_failure(1, cooldowns(0.2));
        assert!(!br.tripped(1), "below threshold stays Closed");
        br.on_failure(1, cooldowns(0.3));
        assert!(br.tripped(1));
        assert_eq!(br.opens(), 1);
        assert_eq!(
            br.cooling_until(1, cooldowns(0.5)),
            Some(cooldowns(0.3) + BREAKER_COOLDOWN_SECS)
        );
        assert_eq!(
            br.cooling_until(0, cooldowns(0.5)),
            None,
            "other shards unaffected"
        );
        // Cooldown elapses: the next request is a probe.
        assert_eq!(br.cooling_until(1, cooldowns(1.4)), None);
        assert_eq!(br.half_opens(), 1);
        assert!(br.tripped(1), "HalfOpen still counts as tripped");
        br.on_success(1, cooldowns(1.5), 1.0);
        assert!(!br.tripped(1));
        assert_eq!(br.closes(), 1);
        assert!(
            (br.brownout_secs() - cooldowns(1.2)).abs() < 1e-9,
            "tripped at 0.3 cooldowns, closed at 1.5: {}",
            br.brownout_secs()
        );
    }

    #[test]
    fn failed_probe_reopens_and_keeps_the_brownout_clock() {
        let br = ShardBreakers::new(1);
        for _ in 0..BREAKER_FAILURE_THRESHOLD {
            br.on_failure(0, 0.0);
        }
        assert_eq!(br.opens(), 1);
        assert_eq!(br.cooling_until(0, cooldowns(1.5)), None, "the probe");
        assert_eq!(br.half_opens(), 1);
        br.on_failure(0, cooldowns(1.6)); // probe fails
        assert_eq!(br.opens(), 2);
        assert!(br.cooling_until(0, cooldowns(1.7)).is_some());
        assert_eq!(br.cooling_until(0, cooldowns(2.7)), None);
        assert_eq!(br.half_opens(), 2);
        br.on_success(0, cooldowns(2.8), 1.0);
        assert_eq!(br.closes(), 1);
        assert!(
            (br.brownout_secs() - cooldowns(2.8)).abs() < 1e-9,
            "the episode spans the first trip to the close: {}",
            br.brownout_secs()
        );
    }

    #[test]
    fn successes_reset_the_consecutive_count() {
        let br = ShardBreakers::new(1);
        br.on_failure(0, 0.0);
        br.on_failure(0, 0.1);
        br.on_success(0, 0.2, 1.0);
        br.on_failure(0, 0.3);
        br.on_failure(0, 0.4);
        assert!(!br.tripped(0), "interleaved successes keep it Closed");
        assert_eq!(br.opens(), 0);
    }

    #[test]
    fn sustained_latency_breach_opens_without_hard_failures() {
        let br = ShardBreakers::new(1);
        // Every message delivers, but 8x slower than modeled; once the EWMA
        // primes, each slow success counts toward the failure threshold.
        for i in 0..10 {
            br.on_success(0, i as f64 * 0.1, 8.0);
        }
        assert!(br.tripped(0), "slow-success EWMA breach trips the breaker");
        assert_eq!(br.opens(), 1);
    }

    #[test]
    fn fast_ewma_never_trips() {
        let br = ShardBreakers::new(1);
        for i in 0..1000 {
            br.on_success(0, i as f64 * 0.001, 1.0);
        }
        assert!(!br.tripped(0));
        assert_eq!(br.opens() + br.half_opens() + br.closes(), 0);
        assert_eq!(br.brownout_secs(), 0.0);
    }

    fn injector() -> FaultInjector {
        FaultInjector::new(FaultPlan::default(), CostModel::gigabit(), 0)
    }

    fn trip(ctl: &OverloadControl, shard: usize) {
        for _ in 0..BREAKER_FAILURE_THRESHOLD {
            ctl.breakers.on_failure(shard, 0.0);
        }
    }

    #[test]
    fn an_overload_window_arms_the_control_and_nothing_else_does() {
        for quiet in [
            FaultPlan::default(),
            FaultPlan::lossy(1, 0.02),
            FaultPlan::chaos(1),
            FaultPlan::failover(1),
        ] {
            assert!(OverloadControl::for_plan(&quiet, 4).is_none(), "{quiet:?}");
        }
        assert!(OverloadControl::for_plan(&FaultPlan::overload(1), 4).is_some());
        // A window is what arms it, whether or not it ever opens.
        let mut later = FaultPlan::overload(1);
        later.overloads[0].start = 1e9;
        later.overloads[0].end = 2e9;
        assert!(OverloadControl::for_plan(&later, 4).is_some());
    }

    #[test]
    fn admit_fails_a_write_fast_and_walks_a_read_to_the_probe() {
        let ctl = OverloadControl::new(2);
        let f = injector();
        assert_eq!(
            ctl.admit(&f, 1, false, 0),
            Ok(()),
            "Closed lets all through"
        );
        trip(&ctl, 1);
        assert_eq!(
            ctl.admit(&f, 1, false, 4),
            Err(RpcError::Overloaded {
                shard: 1,
                attempts: 4
            })
        );
        assert_eq!(f.stats().breaker_fast_fails, 1);
        assert_eq!(f.now(), 0.0, "a failed-fast write waits for nothing");
        assert_eq!(
            ctl.admit(&f, 0, false, 0),
            Ok(()),
            "other shards unaffected"
        );
        assert_eq!(ctl.admit(&f, 1, true, 0), Ok(()));
        let s = f.stats();
        assert_eq!(s.breaker_fast_fails, 2);
        assert_eq!(s.backoff_secs, BREAKER_COOLDOWN_SECS);
        assert_eq!(
            f.now(),
            BREAKER_COOLDOWN_SECS,
            "the read slept out the cooldown"
        );
        assert_eq!(ctl.breakers.half_opens(), 1, "and goes as the probe");
        assert!(ctl.tripped(1), "HalfOpen until the probe lands");
    }

    #[test]
    fn delivered_earns_and_feeds_the_breaker_the_latency_ratio() {
        let ctl = OverloadControl::new(2);
        let f = injector();
        let bytes = 1_000;
        let base = f.cost().remote_time(bytes, 1);
        ctl.delivered(&f, 1, true, bytes, base);
        assert_eq!(
            ctl.budget.balance_millitokens(),
            BUDGET_INITIAL_MILLITOKENS + BUDGET_EARN_MILLITOKENS
        );
        // The ratio is taken against the lane the message used: a remote
        // message's time is on time for it and far too slow for a local one.
        for _ in 0..10 {
            ctl.delivered(&f, 1, true, bytes, base);
        }
        assert!(!ctl.tripped(1));
        for _ in 0..10 {
            ctl.delivered(&f, 0, false, bytes, base);
        }
        assert!(ctl.tripped(0), "a sustained slow lane trips the breaker");
        assert_eq!(f.stats(), injector().stats(), "a delivery notes nothing");
    }

    #[test]
    fn shed_pays_then_hands_a_write_back_and_walks_a_read_to_relief() {
        let ctl = OverloadControl::new(2);
        let f = injector();
        let overloaded = |attempts| RpcError::Overloaded { shard: 1, attempts };
        // The starting float pays two retries, each after the relief wait.
        assert_eq!(ctl.shed(&f, 1, false, 1, 64, 1e-3), Ok(()));
        assert_eq!(ctl.shed(&f, 1, false, 2, 64, 3e-3), Ok(()));
        let s = f.stats();
        assert_eq!(
            (s.retries, s.retransmitted_bytes, s.retries_denied),
            (2, 128, 0)
        );
        assert_eq!(f.now(), 3e-3);
        assert!(!ctl.tripped(1), "two sheds stay under the threshold");
        // Dry: a write comes back at once, and the third shed tripped it.
        assert_eq!(ctl.shed(&f, 1, false, 3, 64, 4e-3), Err(overloaded(3)));
        assert!(ctl.tripped(1));
        assert_eq!((f.stats().retries_denied, f.now()), (1, 3e-3));
        // A read on a dry budget waits for relief, retransmission unpaid.
        assert_eq!(ctl.shed(&f, 1, true, 1, 64, 4e-3), Ok(()));
        let s = f.stats();
        assert_eq!((s.retries, s.retries_denied), (2, 2));
        assert_eq!(f.now(), 4e-3);
        // Out of attempts, even a read is handed back, budget untouched.
        let funded = OverloadControl::new(2);
        assert_eq!(
            funded.shed(&f, 1, true, MAX_ATTEMPTS, 64, 5e-3),
            Err(overloaded(MAX_ATTEMPTS))
        );
        assert_eq!(
            funded.budget.balance_millitokens(),
            BUDGET_INITIAL_MILLITOKENS
        );
    }

    #[test]
    fn out_of_range_shard_is_a_noop() {
        let br = ShardBreakers::new(1);
        assert_eq!(br.cooling_until(9, 0.0), None);
        br.on_failure(9, 0.0);
        br.on_success(9, 0.0, 1.0);
        assert!(!br.tripped(9));
    }
}
