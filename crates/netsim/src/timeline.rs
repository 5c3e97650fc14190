//! Per-worker two-lane timeline: simulated time as a critical path.
//!
//! An epoch's simulated time is an *achievable* schedule, not an idealized
//! `max(comm, compute)` that assumes every byte of communication hides
//! behind compute: every metered PS operation is posted to a **comm lane**
//! and every counted kernel work-unit block to a **compute lane**, each as
//! a duration event. A lane is a FIFO (one in-order NIC queue, one core), so
//! an event starts when its lane is free *and* its data dependency — the
//! `after` timestamp of the event it consumes — has completed. Epoch
//! simulated time is the makespan of the two lanes.
//!
//! Determinism: nothing here runs on host threads. Durations come from the
//! deterministic cost model applied to deterministic meter deltas, and the
//! schedule is a pure fold over posting order, so the critical path is
//! bit-reproducible across hosts and runs.

/// Which execution lane an event occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Network I/O: PS pulls, pushes, writes, sync refreshes.
    Comm,
    /// Kernel time: forward/backward work units.
    Compute,
}

impl Lane {
    #[inline]
    fn index(self) -> usize {
        match self {
            Lane::Comm => 0,
            Lane::Compute => 1,
        }
    }
}

/// A deterministic two-lane schedule accumulator.
///
/// All times are simulated seconds since the worker started. Events are
/// posted in the worker's issue order; the timeline never reorders them,
/// it only decides *when* each one runs.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// Per-lane time at which the lane next becomes free.
    free: [f64; 2],
    /// Per-lane total busy time (sum of posted durations).
    busy: [f64; 2],
    /// `now()` when the current epoch began.
    epoch_start: f64,
}

impl Timeline {
    /// A timeline on which comm and compute may overlap.
    pub fn pipelined() -> Self {
        Self {
            free: [0.0; 2],
            busy: [0.0; 2],
            epoch_start: 0.0,
        }
    }

    /// Post a duration event to `lane`, not starting before `after`
    /// (the completion time of the event whose output this one consumes;
    /// pass `0.0` when there is no cross-lane dependency). Returns the
    /// event's completion time.
    pub fn post(&mut self, lane: Lane, duration: f64, after: f64) -> f64 {
        debug_assert!(duration >= 0.0, "negative duration {duration}");
        let end = self.free[lane.index()].max(after) + duration;
        self.free[lane.index()] = end;
        self.busy[lane.index()] += duration;
        end
    }

    /// The earliest time at which *every* posted event has completed.
    pub fn now(&self) -> f64 {
        self.free[0].max(self.free[1])
    }

    /// Total busy time posted to `lane` so far.
    pub fn busy(&self, lane: Lane) -> f64 {
        self.busy[lane.index()]
    }

    /// Join both lanes at `now()` (a synchronization point: nothing posted
    /// afterwards may start before everything already posted has finished).
    /// Returns the join time.
    pub fn barrier(&mut self) -> f64 {
        let t = self.now();
        self.free = [t; 2];
        t
    }

    /// Start a new epoch: barrier, then mark the epoch origin.
    pub fn begin_epoch(&mut self) {
        self.epoch_start = self.barrier();
    }

    /// End the current epoch: barrier, then return the epoch's critical
    /// path (simulated seconds between [`Timeline::begin_epoch`] and now).
    pub fn end_epoch(&mut self) -> f64 {
        self.barrier() - self.epoch_start
    }
}

impl Default for Timeline {
    fn default() -> Self {
        Self::pipelined()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_lanes_overlap_fully() {
        let mut tl = Timeline::pipelined();
        tl.post(Lane::Comm, 3.0, 0.0);
        tl.post(Lane::Compute, 2.0, 0.0);
        // Critical path is the longer lane, not the sum.
        assert_eq!(tl.now(), 3.0);
        assert_eq!(tl.busy(Lane::Comm), 3.0);
        assert_eq!(tl.busy(Lane::Compute), 2.0);
    }

    #[test]
    fn data_dependency_delays_the_consumer() {
        let mut tl = Timeline::pipelined();
        let pull_end = tl.post(Lane::Comm, 4.0, 0.0);
        // Compute consumes the pulled rows: cannot start before 4.0.
        let compute_end = tl.post(Lane::Compute, 1.0, pull_end);
        assert_eq!(compute_end, 5.0);
        // A push of this compute's gradients waits for the compute.
        let push_end = tl.post(Lane::Comm, 2.0, compute_end);
        assert_eq!(push_end, 7.0);
        assert_eq!(tl.now(), 7.0);
    }

    #[test]
    fn a_staged_pull_hides_behind_compute() {
        let mut tl = Timeline::pipelined();
        // Iteration i: pull (comm), then compute depending on it.
        let pull_i = tl.post(Lane::Comm, 1.0, 0.0);
        // Staged pull for i+1 issued before compute i starts.
        let pull_next = tl.post(Lane::Comm, 1.0, 0.0);
        let compute_i = tl.post(Lane::Compute, 3.0, pull_i);
        // Compute i+1 depends only on its own (already finished) pull.
        let compute_next = tl.post(Lane::Compute, 3.0, pull_next);
        assert_eq!(pull_next, 2.0);
        assert_eq!(compute_i, 4.0);
        // The second pull finished during compute i: no stall.
        assert_eq!(compute_next, 7.0);
        // Sequentially this would be 1+1+3+3 = 8.
        assert!(tl.now() < 8.0);
    }

    #[test]
    fn comm_lane_is_fifo() {
        let mut tl = Timeline::pipelined();
        tl.post(Lane::Comm, 5.0, 0.0);
        // Even with no dependency, the NIC queue is in-order.
        let second = tl.post(Lane::Comm, 1.0, 0.0);
        assert_eq!(second, 6.0);
    }

    #[test]
    fn barrier_joins_the_lanes() {
        let mut tl = Timeline::pipelined();
        tl.post(Lane::Comm, 4.0, 0.0);
        tl.post(Lane::Compute, 1.0, 0.0);
        let t = tl.barrier();
        assert_eq!(t, 4.0);
        // After a barrier neither lane may start early.
        let end = tl.post(Lane::Compute, 1.0, 0.0);
        assert_eq!(end, 5.0);
    }

    #[test]
    fn epochs_measure_independent_spans() {
        let mut tl = Timeline::pipelined();
        tl.begin_epoch();
        tl.post(Lane::Comm, 2.0, 0.0);
        tl.post(Lane::Compute, 3.0, 0.0);
        assert_eq!(tl.end_epoch(), 3.0);
        tl.begin_epoch();
        let pull = tl.post(Lane::Comm, 1.0, 0.0);
        tl.post(Lane::Compute, 1.0, pull);
        // Second epoch starts from the first's barrier: its span is local.
        assert_eq!(tl.end_epoch(), 2.0);
    }

    #[test]
    fn empty_epoch_has_zero_critical_path() {
        let mut tl = Timeline::pipelined();
        tl.post(Lane::Comm, 7.0, 0.0);
        tl.begin_epoch();
        assert_eq!(tl.end_epoch(), 0.0);
    }

    #[test]
    fn makespan_is_bounded_by_busy_totals() {
        // max(busy) <= makespan <= sum(busy) for any dependency pattern.
        let mut tl = Timeline::pipelined();
        let mut last = 0.0;
        for i in 0..10 {
            let d = 0.1 * (i + 1) as f64;
            let lane = if i % 3 == 0 {
                Lane::Compute
            } else {
                Lane::Comm
            };
            // Chain every third event to model scattered dependencies.
            let after = if i % 3 == 2 { last } else { 0.0 };
            last = tl.post(lane, d, after);
        }
        let (c, k) = (tl.busy(Lane::Comm), tl.busy(Lane::Compute));
        assert!(tl.now() >= c.max(k));
        assert!(tl.now() <= c + k);
    }
}
