//! The network cost model: metered traffic → simulated seconds.
//!
//! The paper's cluster links workers with 1 Gbps Ethernet; communication
//! time there is (to first order) `messages × latency + bytes / bandwidth`.
//! This model reproduces that shape deterministically. Local (shared-memory)
//! traffic is costed separately with a much higher bandwidth and negligible
//! latency, matching the co-located PS design where `localPull`/`localPush`
//! go through shared memory.

use serde::{Deserialize, Serialize};

/// Converts byte/message counts into simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Remote link bandwidth in bytes/second.
    pub remote_bandwidth: f64,
    /// Remote per-message latency in seconds (propagation + software stack).
    pub remote_latency: f64,
    /// Per-message framing overhead in bytes (headers, serialization).
    pub message_overhead_bytes: f64,
    /// Local shared-memory bandwidth in bytes/second.
    pub local_bandwidth: f64,
    /// Local per-message overhead in seconds (lock + memcpy setup).
    pub local_latency: f64,
    /// Compute throughput of one simulated machine, in kernel work units
    /// per second (a work unit ≈ one embedding coordinate touched by a
    /// score or gradient). The default (1e9) approximates one CPU training
    /// machine of the paper's testbed; it makes the compute/communication
    /// balance — e.g. Table I's >70% communication share on the large
    /// graph — land in the paper's regime.
    pub compute_rate: f64,
}

impl CostModel {
    /// The paper's testbed: 1 Gbps Ethernet (§VI-A), ~100 µs effective
    /// round-trip software latency, 64-byte framing; local shared memory at
    /// 10 GB/s with 1 µs overhead.
    pub fn gigabit() -> Self {
        Self {
            remote_bandwidth: 1e9 / 8.0, // 1 Gbps in bytes/s
            remote_latency: 100e-6,
            message_overhead_bytes: 64.0,
            local_bandwidth: 10e9,
            local_latency: 1e-6,
            compute_rate: 1e9,
        }
    }

    /// Simulated seconds to move `bytes` across the remote link in
    /// `messages` messages.
    pub fn remote_time(&self, bytes: u64, messages: u64) -> f64 {
        messages as f64 * self.remote_latency
            + (bytes as f64 + messages as f64 * self.message_overhead_bytes) / self.remote_bandwidth
    }

    /// Simulated seconds for local shared-memory traffic.
    pub fn local_time(&self, bytes: u64, messages: u64) -> f64 {
        messages as f64 * self.local_latency + bytes as f64 / self.local_bandwidth
    }

    /// Simulated seconds for `work_units` of kernel compute on one machine.
    pub fn compute_time(&self, work_units: u64) -> f64 {
        work_units as f64 / self.compute_rate
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::gigabit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_time_is_linear_in_bytes() {
        let m = CostModel::gigabit();
        let t1 = m.remote_time(1_000_000, 1);
        let t2 = m.remote_time(2_000_000, 1);
        let t3 = m.remote_time(3_000_000, 1);
        // Without `.abs()` any concave curve (second difference negative)
        // would pass vacuously.
        assert!(((t3 - t2) - (t2 - t1)).abs() < 1e-12);
        assert!(t2 > t1);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let m = CostModel::gigabit();
        // 100 tiny messages cost ~100 latencies.
        let t = m.remote_time(100, 100);
        assert!(t > 99.0 * m.remote_latency);
    }

    #[test]
    fn local_is_much_cheaper_than_remote() {
        let m = CostModel::gigabit();
        let bytes = 10_000_000;
        assert!(m.local_time(bytes, 100) < m.remote_time(bytes, 100) / 10.0);
    }

    #[test]
    fn gigabit_transfers_a_gigabit_per_second() {
        let m = CostModel::gigabit();
        // 125 MB in one message ≈ 1 second (+ epsilon overheads).
        let t = m.remote_time(125_000_000, 1);
        assert!((t - 1.0).abs() < 0.01, "t = {t}");
    }

    #[test]
    fn zero_traffic_costs_zero() {
        let m = CostModel::gigabit();
        assert_eq!(m.remote_time(0, 0), 0.0);
        assert_eq!(m.local_time(0, 0), 0.0);
        assert_eq!(m.compute_time(0), 0.0);
    }

    #[test]
    fn compute_time_is_linear_in_work() {
        let m = CostModel::gigabit();
        assert!((m.compute_time(1_000_000_000) - 1.0).abs() < 1e-9);
        assert!((m.compute_time(500_000_000) - 0.5).abs() < 1e-9);
    }
}
