//! Property tests for the retry schedule: [`backoff`] is monotone in the
//! attempt and in the jitter draw, jitter stays inside its advertised
//! envelope, the [`MAX_ATTEMPTS`] budget is respected exactly, and
//! identical seeds replay identical schedules.

use hetkg_embed::init::Init;
use hetkg_kgraph::{KeySpace, ParamKey};
use hetkg_netsim::{ClusterTopology, CostModel, FaultInjector, FaultPlan, TrafficMeter};
use hetkg_ps::{backoff, KvStore, PsClient, PsScratch, RpcError, ShardRouter, MAX_ATTEMPTS};
use proptest::prelude::*;
use std::sync::Arc;

fn lossy_client(
    seed: u64,
    drop_probability: f64,
) -> (PsClient, Arc<FaultInjector>, Arc<TrafficMeter>) {
    let ks = KeySpace::new(8, 4);
    let router = ShardRouter::round_robin(ks, 2);
    let store = Arc::new(KvStore::new(
        router,
        4,
        4,
        0,
        Init::Uniform { bound: 0.1 },
        1,
    ));
    let meter = Arc::new(TrafficMeter::new());
    let inj = Arc::new(FaultInjector::new(
        FaultPlan::lossy(seed, drop_probability),
        CostModel::gigabit(),
        0,
    ));
    let client =
        PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone()).with_faults(inj.clone());
    (client, inj, meter)
}

/// A single-key pull: a one-key batch.
fn pull_one(client: &PsClient, key: ParamKey, out: &mut [f32]) -> Result<(), RpcError> {
    client.try_pull_batch_with(&[key], &mut PsScratch::new(), |_, row| {
        out.copy_from_slice(row)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At any jitter draw the schedule never shrinks as the attempt number
    /// grows, and it never exceeds the 10 ms ceiling, jittered.
    #[test]
    fn backoff_is_monotone_nondecreasing_and_capped(
        attempts in 2u32..64,
        draw in 0.0f64..1.0,
    ) {
        let mut prev = 0.0f64;
        for a in 1..=attempts {
            let b = backoff(a, draw);
            prop_assert!(b.is_finite());
            prop_assert!(b >= prev, "attempt {a}: {b} < previous {prev}");
            prop_assert!(b <= 10e-3 * 1.25 + 1e-15);
            prev = b;
        }
    }

    /// Every jitter draw in [0, 1) lands the backoff inside the advertised
    /// `1 ± 1/4` envelope around the unjittered value, and backoff is
    /// monotone in the draw itself.
    #[test]
    fn jitter_stays_inside_its_envelope(
        attempt in 1u32..32,
        draw in 0.0f64..1.0,
    ) {
        let center = backoff(attempt, 0.5);
        let b = backoff(attempt, draw);
        prop_assert!(b >= center * 0.75 - 1e-15);
        prop_assert!(b <= center * 1.25 + 1e-15);
        if draw + 1e-9 < 1.0 {
            prop_assert!(b <= backoff(attempt, 1.0) + 1e-15);
        }
    }

    /// A message that is dropped on every attempt consumes exactly
    /// [`MAX_ATTEMPTS`] sends — no more, no fewer — and reports the same
    /// number in its error, whatever the seed.
    #[test]
    fn attempt_budget_is_respected_exactly(seed in any::<u64>()) {
        let (client, inj, meter) = lossy_client(seed, 1.0);
        let mut buf = [0.0f32; 4];
        // Key 1 lives on shard 1: remote for worker 0, so it transits the
        // faulty link on every attempt.
        let err = pull_one(&client, ParamKey(1), &mut buf).unwrap_err();
        prop_assert_eq!(err, RpcError::Dropped { attempts: MAX_ATTEMPTS });
        prop_assert_eq!(meter.snapshot().remote_messages, u64::from(MAX_ATTEMPTS));
        let stats = inj.stats();
        prop_assert_eq!(stats.drops, u64::from(MAX_ATTEMPTS));
        prop_assert_eq!(stats.retries, u64::from(MAX_ATTEMPTS - 1));
    }

    /// Two injectors built from the same seed replay bit-identical retry
    /// schedules: same drop pattern, same retry count, same accumulated
    /// backoff, the same pulls running out of attempts — and a different
    /// seed perturbs the schedule. High drop rates reach the deepest,
    /// longest-backoff retries and pulls that exhaust [`MAX_ATTEMPTS`].
    #[test]
    fn identical_seeds_replay_identical_schedules(
        seed in any::<u64>(),
        drop_probability in 0.05f64..0.8,
        pulls in 1usize..40,
    ) {
        let run = |s: u64| {
            let (client, inj, meter) = lossy_client(s, drop_probability);
            let mut buf = [0.0f32; 4];
            let outcomes: Vec<Result<(), RpcError>> = (0..pulls)
                .map(|i| {
                    // Odd keys are remote for worker 0 under round-robin.
                    let key = ParamKey((2 * i as u64 + 1) % 8);
                    pull_one(&client, key, &mut buf)
                })
                .collect();
            (outcomes, inj.stats(), meter.snapshot())
        };
        let (outcomes_a, stats_a, meter_a) = run(seed);
        let (outcomes_b, stats_b, meter_b) = run(seed);
        prop_assert_eq!(outcomes_a, outcomes_b);
        prop_assert_eq!(&stats_a, &stats_b);
        prop_assert_eq!(meter_a, meter_b);
        // A perturbed seed must not replay the same jitter stream: the
        // accumulated backoff is a float sum over it, so collisions across
        // seeds are astronomically unlikely once any retry happened.
        let (_, stats_c, _) = run(seed ^ 0x9E37_79B9_7F4A_7C15);
        if stats_a.retries > 0 && stats_c.retries > 0 {
            prop_assert_ne!(stats_a.backoff_secs.to_bits(), stats_c.backoff_secs.to_bits());
        }
    }
}
