//! Typed failures for the PS client, plus the retry schedule the client
//! wraps around a fault injector.
//!
//! Without a fault injector attached every [`PsClient`](crate::PsClient)
//! call over the simulated transport succeeds (the store is in-process
//! memory); these errors only surface once simulated faults are in play, or
//! when a socket transport maps a timeout or a dead peer onto them.

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

/// Send attempts per message, the first included. Eight outlast any drop
/// streak the loss profiles make likely (at the `lossy` profile's 2 %, eight
/// in a row is a 3·10⁻¹⁴ event), and a link that drops everything still
/// fails in about 13 ms of simulated backoff.
pub const MAX_ATTEMPTS: u32 = 8;
/// The first retry's wait: 100 µs, the gigabit cost model's per-message
/// latency — a retransmission does not leave before the loss could be known.
const BASE_BACKOFF_SECS: f64 = 100e-6;
/// Ceiling on the unjittered wait: 10 ms. Under [`MAX_ATTEMPTS`] the longest
/// wait the client asks for is the seventh retry's, 6.4 ms, so the ceiling
/// bounds the schedule rather than shaping it.
const MAX_BACKOFF_SECS: f64 = 10e-3;
/// Each wait is scaled by `1 ± JITTER/2`, so workers that lost messages
/// together do not retransmit together.
const JITTER: f64 = 0.5;

/// Backoff before retry number `attempt` (1-based), in simulated seconds:
/// 100 µs doubling per attempt up to 10 ms, scaled by `1 ± 0.25` by a
/// uniform `[0, 1)` `jitter_draw` from the worker's seeded RNG stream. The
/// doubling exponent is clamped, so a huge attempt count cannot overflow.
///
/// On a [`Verdict::Drop`](hetkg_netsim::Verdict::Drop) or a corrupt frame
/// the client waits this long and retransmits; on `ShardDown` it sleeps
/// until the outage window ends and then this long — the behaviour of a
/// blocking KVStore client with no failover.
pub fn backoff(attempt: u32, jitter_draw: f64) -> f64 {
    let exp = BASE_BACKOFF_SECS * 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
    exp.min(MAX_BACKOFF_SECS) * (1.0 + JITTER * (jitter_draw - 0.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_until_capped() {
        // The midpoint draw leaves the wait unjittered.
        let b1 = backoff(1, 0.5);
        assert_eq!(b1, BASE_BACKOFF_SECS);
        assert!((backoff(2, 0.5) - 2.0 * b1).abs() < 1e-12);
        assert!((backoff(3, 0.5) - 4.0 * b1).abs() < 1e-12);
        let huge = backoff(30, 0.5);
        assert!((huge - MAX_BACKOFF_SECS).abs() < 1e-12, "capped");
    }

    #[test]
    fn jitter_scales_around_the_midpoint() {
        let low = backoff(1, 0.0);
        let mid = backoff(1, 0.5);
        let high = backoff(1, 1.0 - 1e-9);
        assert!(low < mid && mid < high);
        assert!((mid - BASE_BACKOFF_SECS).abs() < 1e-12);
        assert!(low >= 0.75 * BASE_BACKOFF_SECS - 1e-12);
        assert!(high <= 1.25 * BASE_BACKOFF_SECS + 1e-12);
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
        let b = backoff(u32::MAX, 0.5);
        assert!(b.is_finite());
        assert!((b - MAX_BACKOFF_SECS).abs() < 1e-12);
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
