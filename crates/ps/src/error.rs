//! Typed failures for the PS client, plus the retry policy the client wraps
//! around a fault injector.
//!
//! Without a fault injector attached every [`PsClient`](crate::PsClient)
//! call over the simulated transport succeeds (the store is in-process
//! memory); these errors only surface once simulated faults are in play, or
//! when a socket transport maps a timeout or a dead peer onto them.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A PS RPC that failed after exhausting its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcError {
    /// The message was dropped on every attempt.
    Dropped {
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// The target shard stayed unreachable across all attempts.
    ShardUnavailable {
        /// The shard that refused the message.
        shard: usize,
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// Every attempt arrived with a payload that failed its wire-frame
    /// checksum (the garbage was rejected, never ingested).
    CorruptPayload {
        /// Send attempts made before giving up.
        attempts: u32,
    },
    /// The target shard's primary is permanently dead and no backup replica
    /// was available to promote (replication off, or the replica budget for
    /// this shard is already spent).
    ShardLost {
        /// The shard whose primary died beyond recovery.
        shard: usize,
    },
    /// The target shard is overloaded and the run-global retry budget (or
    /// the shard's circuit breaker) refused to keep retrying. The operation
    /// was shed so the caller can degrade — brownout-stale serves for
    /// pulls, the deferred-push backlog for pushes — instead of adding
    /// retry load to a drowning shard.
    Overloaded {
        /// The saturated shard.
        shard: usize,
        /// Send attempts made before the budget/breaker cut the loop.
        attempts: u32,
    },
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Dropped { attempts } => {
                write!(f, "message dropped on all {attempts} attempts")
            }
            RpcError::ShardUnavailable { shard, attempts } => {
                write!(f, "shard {shard} unavailable after {attempts} attempts")
            }
            RpcError::CorruptPayload { attempts } => {
                write!(f, "payload failed its checksum on all {attempts} attempts")
            }
            RpcError::ShardLost { shard } => {
                write!(f, "shard {shard} lost: primary dead, no backup to promote")
            }
            RpcError::Overloaded { shard, attempts } => {
                write!(
                    f,
                    "shard {shard} overloaded after {attempts} attempts: retry budget dry, degrade instead"
                )
            }
        }
    }
}

impl std::error::Error for RpcError {}

/// Bounded retries with exponential backoff and seeded jitter, all in
/// simulated time.
///
/// On a [`Verdict::Drop`](hetkg_netsim::Verdict::Drop) the client backs off
/// `base_backoff * 2^(attempt-1)` (capped at `max_backoff`, jittered by
/// ±`jitter`/2) and retransmits. On `ShardDown`, `wait_for_recovery` makes
/// the client sleep (in simulated time) until the outage window ends before
/// retrying — the behavior of a blocking KVStore client with no failover —
/// which also guarantees retry loops terminate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum send attempts per message (initial send included).
    pub max_attempts: u32,
    /// First backoff, in simulated seconds.
    pub base_backoff: f64,
    /// Backoff ceiling, in simulated seconds.
    pub max_backoff: f64,
    /// Jitter fraction: each backoff is scaled by `1 ± jitter/2`.
    pub jitter: f64,
    /// Whether to sleep out a shard outage instead of burning attempts.
    pub wait_for_recovery: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: 100e-6,
            max_backoff: 10e-3,
            jitter: 0.5,
            wait_for_recovery: true,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based), using a uniform
    /// `[0, 1)` `jitter_draw` from the worker's seeded RNG stream.
    ///
    /// The doubling exponent is clamped (so huge attempt counts cannot
    /// overflow to `inf`) and the result is capped at the configurable
    /// `max_backoff` ceiling *after* jitter as well: even a pathological
    /// policy (`base_backoff = f64::MAX`) yields a finite, bounded wait.
    /// For every sane policy (`jitter <= 1`) the post-jitter cap is
    /// mathematically inactive — jitter scales by at most `1 + jitter/2`,
    /// and the cap sits at `max_backoff * (1 + jitter)` — so existing
    /// deterministic backoff timings are preserved bit for bit.
    pub fn backoff(&self, attempt: u32, jitter_draw: f64) -> f64 {
        let exp = self.base_backoff * 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        let jittered = exp.min(self.max_backoff) * (1.0 + self.jitter * (jitter_draw - 0.5));
        let ceiling = self.max_backoff * (1.0 + self.jitter.abs());
        if jittered.is_finite() && ceiling.is_finite() {
            jittered.min(ceiling)
        } else {
            // Non-finite intermediate (overflowing base/max/jitter): fall
            // back to the largest finite expressible ceiling.
            self.max_backoff.min(f64::MAX)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let b1 = p.backoff(1, 0.5);
        let b2 = p.backoff(2, 0.5);
        let b3 = p.backoff(3, 0.5);
        assert!((b2 - 2.0 * b1).abs() < 1e-12);
        assert!((b3 - 4.0 * b1).abs() < 1e-12);
        let huge = p.backoff(30, 0.5);
        assert!(
            (huge - p.max_backoff).abs() < 1e-12,
            "capped at max_backoff"
        );
    }

    #[test]
    fn jitter_scales_around_the_midpoint() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        let low = p.backoff(1, 0.0);
        let mid = p.backoff(1, 0.5);
        let high = p.backoff(1, 1.0 - 1e-9);
        assert!(low < mid && mid < high);
        assert!((mid - p.base_backoff).abs() < 1e-12);
        assert!(low >= 0.75 * p.base_backoff - 1e-12);
        assert!(high <= 1.25 * p.base_backoff + 1e-12);
    }

    #[test]
    fn errors_format_actionably() {
        assert_eq!(
            RpcError::Dropped { attempts: 8 }.to_string(),
            "message dropped on all 8 attempts"
        );
        assert_eq!(
            RpcError::ShardUnavailable {
                shard: 2,
                attempts: 3
            }
            .to_string(),
            "shard 2 unavailable after 3 attempts"
        );
        assert_eq!(
            RpcError::ShardLost { shard: 1 }.to_string(),
            "shard 1 lost: primary dead, no backup to promote"
        );
    }

    #[test]
    fn giant_attempt_counts_do_not_overflow() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let b = p.backoff(u32::MAX, 0.5);
        assert!(b.is_finite());
        assert!((b - p.max_backoff).abs() < 1e-12);
    }

    #[test]
    fn pathological_policies_stay_finite() {
        // An overflowing base cannot escape the configurable ceiling…
        let p = RetryPolicy {
            base_backoff: f64::MAX,
            max_backoff: 10e-3,
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for attempt in [1, 2, 31, 1_000, u32::MAX] {
            for draw in [0.0, 0.5, 0.999_999] {
                let b = p.backoff(attempt, draw);
                assert!(b.is_finite(), "attempt {attempt}, draw {draw}: {b}");
                assert!(b <= p.max_backoff * 1.5 + 1e-12);
            }
        }
        // …and even an overflowing ceiling degrades to a finite wait.
        let p = RetryPolicy {
            base_backoff: f64::MAX,
            max_backoff: f64::MAX,
            jitter: 1.0,
            ..RetryPolicy::default()
        };
        assert!(p.backoff(u32::MAX, 0.999).is_finite());
    }

    #[test]
    fn overloaded_error_formats_actionably() {
        assert_eq!(
            RpcError::Overloaded {
                shard: 1,
                attempts: 4
            }
            .to_string(),
            "shard 1 overloaded after 4 attempts: retry budget dry, degrade instead"
        );
    }
}
