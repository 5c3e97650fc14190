//! Property tests over the network cost model and traffic metering.

use hetkg_netsim::{Cause, CostModel, TrafficMeter, TrafficSnapshot};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// More bytes or more messages never costs less time.
    #[test]
    fn cost_is_monotone(
        b1 in 0u64..1_000_000_000,
        b2 in 0u64..1_000_000_000,
        m1 in 0u64..100_000,
        m2 in 0u64..100_000,
    ) {
        let model = CostModel::gigabit();
        let (blo, bhi) = (b1.min(b2), b1.max(b2));
        let (mlo, mhi) = (m1.min(m2), m1.max(m2));
        prop_assert!(model.remote_time(blo, mlo) <= model.remote_time(bhi, mhi));
        prop_assert!(model.local_time(blo, mlo) <= model.local_time(bhi, mhi));
    }

    /// Remote transfer is never cheaper than local for the same traffic.
    #[test]
    fn remote_dominates_local(bytes in 0u64..1_000_000_000, msgs in 0u64..100_000) {
        let model = CostModel::gigabit();
        prop_assert!(model.remote_time(bytes, msgs) >= model.local_time(bytes, msgs));
    }

    /// Cost is additive: splitting traffic across two accountings never
    /// changes the total (no economies of scale in the linear model).
    #[test]
    fn cost_is_additive(
        b1 in 0u64..500_000_000,
        b2 in 0u64..500_000_000,
        m1 in 0u64..50_000,
        m2 in 0u64..50_000,
    ) {
        let model = CostModel::gigabit();
        let split = model.remote_time(b1, m1) + model.remote_time(b2, m2);
        let merged = model.remote_time(b1 + b2, m1 + m2);
        prop_assert!((split - merged).abs() < 1e-9, "{split} vs {merged}");
    }

    /// Snapshot algebra: since(start) + start's counters reproduce the end
    /// counters, and merge is commutative.
    #[test]
    fn snapshot_algebra(
        ops in prop::collection::vec((any::<bool>(), 1u64..10_000), 0..200),
        split_at in 0usize..200,
    ) {
        let meter = TrafficMeter::new();
        let mut start = TrafficSnapshot::default();
        for (i, &(remote, bytes)) in ops.iter().enumerate() {
            if i == split_at.min(ops.len()) {
                start = meter.snapshot();
            }
            // Cycle through the causes: the split obeys the same algebra.
            meter.record(remote, &[(Cause::ALL[i % Cause::ALL.len()], bytes)]);
        }
        if split_at >= ops.len() {
            start = meter.snapshot();
        }
        let end = meter.snapshot();
        let delta = end.since(start);
        prop_assert_eq!(delta.merge(start), end);
        prop_assert_eq!(start.merge(delta), end);
        prop_assert_eq!(delta.by_cause.total().remote, delta.remote_bytes);
        prop_assert_eq!(delta.by_cause.total().local, delta.local_bytes);
    }

    /// Faster links are never slower end to end.
    #[test]
    fn ten_gigabit_is_no_slower(bytes in 0u64..2_000_000_000, msgs in 0u64..100_000) {
        let one = CostModel::gigabit();
        let ten = CostModel {
            remote_bandwidth: 10.0 * one.remote_bandwidth,
            ..one
        };
        prop_assert!(ten.remote_time(bytes, msgs) <= one.remote_time(bytes, msgs));
    }
}
