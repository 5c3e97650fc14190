//! Traffic metering: lock-free counters every PS interaction reports to.
//!
//! One [`TrafficMeter`] per worker. Counters are atomics so the worker
//! thread and any observer (the trainer's reporting loop) can share it via
//! `Arc` without locks. [`TrafficSnapshot`] is a plain copy used in reports;
//! snapshots subtract ([`TrafficSnapshot::since`]), so per-epoch traffic is
//! `end − start`.
//!
//! Every worker-lane byte is recorded together with its [`Cause`] — there is
//! no way to add to `local_bytes`/`remote_bytes` without one — so the
//! per-cause split in [`TrafficSnapshot::by_cause`] sums to the lane totals
//! exactly, by construction.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Why bytes crossed between a worker and the parameter server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// Rows a batch needed and the worker did not hold: cache misses, and
    /// every pull of a system without a cache.
    MissPull,
    /// The request half of a hot-table sync: a key id and the held version
    /// per cached row.
    SyncProbe,
    /// The response half of a hot-table sync: the rows whose version moved,
    /// each with its key id and new version.
    SyncRows,
    /// Filling freshly selected hot-table slots (CPS once, DPS per rebuild).
    Construction,
    /// Gradient pushes: rows that carry one gradient.
    Push,
    /// Hot rows written back: rows of a push that carry the sum of several
    /// gradients, each with its energy word.
    WriteBack,
    /// Raw overwrites (PBG saving a partition back).
    Write,
}

impl Cause {
    /// Every cause, in report order.
    pub const ALL: [Cause; 7] = [
        Cause::MissPull,
        Cause::SyncProbe,
        Cause::SyncRows,
        Cause::Construction,
        Cause::Push,
        Cause::WriteBack,
        Cause::Write,
    ];

    /// The cause's field name in [`CauseBytes`] (and in report JSON).
    pub fn name(self) -> &'static str {
        match self {
            Cause::MissPull => "miss_pull",
            Cause::SyncProbe => "sync_probe",
            Cause::SyncRows => "sync_rows",
            Cause::Construction => "construction",
            Cause::Push => "push",
            Cause::WriteBack => "write_back",
            Cause::Write => "write",
        }
    }
}

crate::counters! {
    /// One cause's bytes on the two worker lanes.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct LaneBytes {
        /// Bytes moved through shared memory.
        pub local: u64,
        /// Bytes moved across machines.
        pub remote: u64,
    }
}

crate::counters! {
    /// Worker-lane bytes split by [`Cause`]. Sums to the snapshot's
    /// `local_bytes` / `remote_bytes` exactly.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CauseBytes {
        /// [`Cause::MissPull`].
        pub miss_pull: LaneBytes,
        /// [`Cause::SyncProbe`].
        pub sync_probe: LaneBytes,
        /// [`Cause::SyncRows`].
        pub sync_rows: LaneBytes,
        /// [`Cause::Construction`].
        pub construction: LaneBytes,
        /// [`Cause::Push`].
        pub push: LaneBytes,
        /// [`Cause::WriteBack`] (zero in reports written before hot rows were
        /// written back).
        #[serde(default)]
        pub write_back: LaneBytes,
        /// [`Cause::Write`].
        pub write: LaneBytes,
    }
}

impl CauseBytes {
    /// The bytes attributed to `cause`.
    pub fn get(&self, cause: Cause) -> LaneBytes {
        match cause {
            Cause::MissPull => self.miss_pull,
            Cause::SyncProbe => self.sync_probe,
            Cause::SyncRows => self.sync_rows,
            Cause::Construction => self.construction,
            Cause::Push => self.push,
            Cause::WriteBack => self.write_back,
            Cause::Write => self.write,
        }
    }

    fn get_mut(&mut self, cause: Cause) -> &mut LaneBytes {
        match cause {
            Cause::MissPull => &mut self.miss_pull,
            Cause::SyncProbe => &mut self.sync_probe,
            Cause::SyncRows => &mut self.sync_rows,
            Cause::Construction => &mut self.construction,
            Cause::Push => &mut self.push,
            Cause::WriteBack => &mut self.write_back,
            Cause::Write => &mut self.write,
        }
    }

    /// All causes added up — equal to the snapshot's lane totals.
    pub fn total(&self) -> LaneBytes {
        Cause::ALL
            .iter()
            .fold(LaneBytes::default(), |acc, &c| acc.merge(self.get(c)))
    }
}

/// Atomic per-worker traffic counters.
#[derive(Debug, Default)]
pub struct TrafficMeter {
    /// `by_cause[cause][lane]`, lane 0 local and 1 remote.
    by_cause: [[AtomicU64; 2]; Cause::ALL.len()],
    local_bytes: AtomicU64,
    local_messages: AtomicU64,
    remote_bytes: AtomicU64,
    remote_messages: AtomicU64,
    replication_bytes: AtomicU64,
    replication_messages: AtomicU64,
    push_wire_bytes: AtomicU64,
    push_raw_bytes: AtomicU64,
    push_messages: AtomicU64,
}

impl TrafficMeter {
    /// Fresh zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one worker↔PS message on the remote (cross-machine) or local
    /// (shared-memory) lane, its bytes attributed cause by cause. One
    /// message may serve two causes: a sync's request is
    /// [`Cause::SyncProbe`], its response [`Cause::SyncRows`].
    #[inline]
    pub fn record(&self, remote: bool, parts: &[(Cause, u64)]) {
        let (bytes, messages) = if remote {
            (&self.remote_bytes, &self.remote_messages)
        } else {
            (&self.local_bytes, &self.local_messages)
        };
        for &(cause, n) in parts {
            bytes.fetch_add(n, Ordering::Relaxed);
            self.by_cause[cause as usize][usize::from(remote)].fetch_add(n, Ordering::Relaxed);
        }
        messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one primary→backup replication transfer of `bytes`. Kept on
    /// its own lane so the worker-visible local/remote counters stay
    /// byte-identical whether or not replication is enabled.
    #[inline]
    pub fn record_replication(&self, bytes: u64) {
        self.replication_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.replication_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one gradient-push frame on the push-lane breakdown: `wire`
    /// bytes as transmitted (after any compression) and `raw` bytes the
    /// same frame would have occupied dense. Push frames are *also*
    /// metered on the local/remote lanes by the client — this lane is a
    /// reporting breakdown (bytes saved by compression), not additional
    /// traffic, so it joins neither `total_bytes` nor `simulated_time`.
    #[inline]
    pub fn record_push(&self, wire: u64, raw: u64) {
        self.push_wire_bytes.fetch_add(wire, Ordering::Relaxed);
        self.push_raw_bytes.fetch_add(raw, Ordering::Relaxed);
        self.push_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let mut by_cause = CauseBytes::default();
        for c in Cause::ALL {
            let [local, remote] = &self.by_cause[c as usize];
            *by_cause.get_mut(c) = LaneBytes {
                local: local.load(Ordering::Relaxed),
                remote: remote.load(Ordering::Relaxed),
            };
        }
        TrafficSnapshot {
            by_cause,
            local_bytes: self.local_bytes.load(Ordering::Relaxed),
            local_messages: self.local_messages.load(Ordering::Relaxed),
            remote_bytes: self.remote_bytes.load(Ordering::Relaxed),
            remote_messages: self.remote_messages.load(Ordering::Relaxed),
            replication_bytes: self.replication_bytes.load(Ordering::Relaxed),
            replication_messages: self.replication_messages.load(Ordering::Relaxed),
            push_wire_bytes: self.push_wire_bytes.load(Ordering::Relaxed),
            push_raw_bytes: self.push_raw_bytes.load(Ordering::Relaxed),
            push_messages: self.push_messages.load(Ordering::Relaxed),
        }
    }
}

crate::counters! {
    /// A point-in-time copy of a meter's counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TrafficSnapshot {
        /// Bytes moved through shared memory.
        pub local_bytes: u64,
        /// Shared-memory message count.
        pub local_messages: u64,
        /// Bytes moved across machines.
        pub remote_bytes: u64,
        /// Cross-machine message count.
        pub remote_messages: u64,
        /// Bytes shipped from primary shards to their backup replicas.
        #[serde(default)]
        pub replication_bytes: u64,
        /// Primary→backup replication message count.
        #[serde(default)]
        pub replication_messages: u64,
        /// Gradient-push frame bytes as transmitted (post-compression). A
        /// breakdown of bytes already counted on the local/remote lanes.
        #[serde(default)]
        pub push_wire_bytes: u64,
        /// Dense-equivalent bytes of the same push frames (what an
        /// uncompressed run would have transmitted).
        #[serde(default)]
        pub push_raw_bytes: u64,
        /// Gradient-push frame count.
        #[serde(default)]
        pub push_messages: u64,
        /// `local_bytes` and `remote_bytes` split by why they moved (all zero in
        /// reports written before the split existed).
        #[serde(default)]
        pub by_cause: CauseBytes,
    }
}

impl TrafficSnapshot {
    /// Total bytes, local + remote. Replication bytes are *not* included:
    /// they retransmit payloads already counted on the worker lanes, and the
    /// paper's communication-volume comparisons meter worker traffic only.
    pub fn total_bytes(self) -> u64 {
        self.local_bytes + self.remote_bytes
    }

    /// Simulated communication time under `model` (local + remote parts,
    /// plus the remote-shaped replication lane — backups live on other
    /// machines, so replication shipping costs cross-machine time).
    pub fn simulated_time(self, model: &CostModel) -> f64 {
        model.remote_time(self.remote_bytes, self.remote_messages)
            + model.local_time(self.local_bytes, self.local_messages)
            + model.remote_time(self.replication_bytes, self.replication_messages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let m = TrafficMeter::new();
        m.record(false, &[(Cause::MissPull, 100)]);
        m.record(true, &[(Cause::MissPull, 200)]);
        m.record(true, &[(Cause::Push, 300)]);
        let s = m.snapshot();
        assert_eq!(s.local_bytes, 100);
        assert_eq!(s.local_messages, 1);
        assert_eq!(s.remote_bytes, 500);
        assert_eq!(s.remote_messages, 2);
    }

    #[test]
    fn causes_sum_to_the_lane_totals_exactly() {
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::MissPull, 520)]);
        m.record(false, &[(Cause::Push, 40)]);
        // One sync message, two causes: still one message.
        m.record(true, &[(Cause::SyncProbe, 24), (Cause::SyncRows, 1072)]);
        m.record(false, &[(Cause::Construction, 536)]);
        m.record(true, &[(Cause::Write, 8)]);
        // One push message, two causes: plain rows and rows written back.
        m.record(true, &[(Cause::Push, 520), (Cause::WriteBack, 524)]);
        let start = m.snapshot();
        assert_eq!(start.by_cause.push.remote, 520);
        assert_eq!(start.by_cause.write_back.remote, 524);
        assert_eq!(start.remote_messages, 4);
        assert_eq!(start.local_messages, 2);
        assert_eq!(start.by_cause.sync_probe.remote, 24);
        assert_eq!(start.by_cause.sync_rows.remote, 1072);
        m.record(true, &[(Cause::SyncProbe, 12), (Cause::SyncRows, 0)]);
        let end = m.snapshot();
        for s in [start, end, end.since(start), start.merge(end)] {
            let total = s.by_cause.total();
            assert_eq!(total.local, s.local_bytes);
            assert_eq!(total.remote, s.remote_bytes);
        }
        assert_eq!(end.since(start).by_cause.sync_probe.remote, 12);
        assert_eq!(end.since(start).by_cause.total().remote, 12);
    }

    #[test]
    fn snapshot_without_the_cause_split_still_loads() {
        let json = r#"{"local_bytes":1,"local_messages":2,"remote_bytes":3,"remote_messages":4}"#;
        let s: TrafficSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(s.by_cause, CauseBytes::default());
        // And the split round-trips under its report names.
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::SyncRows, 9)]);
        let json = serde_json::to_string(&m.snapshot()).unwrap();
        assert!(
            json.contains(r#""sync_rows":{"local":0,"remote":9}"#),
            "{json}"
        );
        let back: TrafficSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m.snapshot());
        assert_eq!(Cause::SyncRows.name(), "sync_rows");
        // A split written before write-back existed loads with none.
        let old = json.replace(r#","write_back":{"local":0,"remote":0}"#, "");
        assert_ne!(old, json);
        let back: TrafficSnapshot = serde_json::from_str(&old).unwrap();
        assert_eq!(back, m.snapshot());
        assert_eq!(Cause::WriteBack.name(), "write_back");
    }

    #[test]
    fn since_subtracts() {
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::MissPull, 100)]);
        let start = m.snapshot();
        m.record(true, &[(Cause::MissPull, 250)]);
        m.record(false, &[(Cause::MissPull, 50)]);
        let delta = m.snapshot().since(start);
        assert_eq!(delta.remote_bytes, 250);
        assert_eq!(delta.remote_messages, 1);
        assert_eq!(delta.local_bytes, 50);
    }

    // Regression: `since` used unchecked `u64` subtraction and panicked in
    // release builds when the later snapshot was the smaller, as after a meter
    // reset (debug builds now assert instead, so this test only runs in
    // release).
    #[cfg(not(debug_assertions))]
    #[test]
    fn since_saturates_when_a_counter_went_backwards() {
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::MissPull, 1_000)]);
        m.record(false, &[(Cause::MissPull, 500)]);
        let before = m.snapshot();
        let fresh = TrafficMeter::new();
        fresh.record(true, &[(Cause::MissPull, 10)]);
        let delta = fresh.snapshot().since(before);
        assert_eq!(delta, TrafficSnapshot::default());
    }

    #[test]
    fn merge_adds() {
        let a = TrafficSnapshot {
            local_bytes: 1,
            local_messages: 2,
            remote_bytes: 3,
            remote_messages: 4,
            replication_bytes: 5,
            replication_messages: 6,
            ..Default::default()
        };
        let b = TrafficSnapshot {
            local_bytes: 10,
            local_messages: 20,
            remote_bytes: 30,
            remote_messages: 40,
            replication_bytes: 50,
            replication_messages: 60,
            ..Default::default()
        };
        let c = a.merge(b);
        assert_eq!(c.local_bytes, 11);
        assert_eq!(c.remote_messages, 44);
        assert_eq!(c.replication_bytes, 55);
        assert_eq!(c.replication_messages, 66);
        assert_eq!(c.total_bytes(), 44, "replication lane excluded from totals");
    }

    #[test]
    fn replication_lane_is_separate() {
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::MissPull, 100)]);
        m.record_replication(40);
        m.record_replication(60);
        let s = m.snapshot();
        assert_eq!(s.remote_bytes, 100);
        assert_eq!(s.remote_messages, 1);
        assert_eq!(s.replication_bytes, 100);
        assert_eq!(s.replication_messages, 2);
        assert_eq!(s.total_bytes(), 100, "replication not in total_bytes");
        let start = s;
        m.record_replication(5);
        let delta = m.snapshot().since(start);
        assert_eq!(delta.replication_bytes, 5);
        assert_eq!(delta.replication_messages, 1);
    }

    #[test]
    fn replication_time_is_remote_shaped() {
        let m = CostModel::gigabit();
        let s = TrafficSnapshot {
            replication_bytes: 1_000_000,
            replication_messages: 10,
            ..Default::default()
        };
        let t = s.simulated_time(&m);
        assert!((t - m.remote_time(1_000_000, 10)).abs() < 1e-12);
    }

    #[test]
    fn push_lane_is_a_breakdown_not_extra_traffic() {
        let m = TrafficMeter::new();
        m.record(true, &[(Cause::MissPull, 100)]);
        m.record_push(40, 100);
        let s = m.snapshot();
        assert_eq!(s.push_wire_bytes, 40);
        assert_eq!(s.push_raw_bytes, 100);
        assert_eq!(s.push_messages, 1);
        assert_eq!(s.total_bytes(), 100, "push lane not in total_bytes");
        let t = s.simulated_time(&CostModel::gigabit());
        let without = TrafficSnapshot {
            push_wire_bytes: 0,
            push_raw_bytes: 0,
            push_messages: 0,
            ..s
        }
        .simulated_time(&CostModel::gigabit());
        assert_eq!(t, without, "push lane never adds simulated time");
        let start = s;
        m.record_push(10, 10);
        let delta = m.snapshot().since(start);
        assert_eq!(delta.push_wire_bytes, 10);
        assert_eq!(delta.push_messages, 1);
    }

    #[test]
    fn snapshot_without_push_lane_fields_still_loads() {
        // Reports serialized before the push-lane breakdown existed must
        // keep deserializing; absent fields default to zero.
        let json = r#"{"local_bytes":1,"local_messages":2,"remote_bytes":3,
            "remote_messages":4,"replication_bytes":5,"replication_messages":6}"#;
        let s: TrafficSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(s.push_wire_bytes, 0);
        assert_eq!(s.push_raw_bytes, 0);
        assert_eq!(s.push_messages, 0);
        assert_eq!(s.replication_bytes, 5);
    }

    #[test]
    fn snapshot_without_replication_fields_still_loads() {
        // Reports serialized before the replication lane existed must keep
        // deserializing; absent fields default to zero.
        let json = r#"{"local_bytes":1,"local_messages":2,"remote_bytes":3,"remote_messages":4}"#;
        let s: TrafficSnapshot = serde_json::from_str(json).unwrap();
        assert_eq!(s.replication_bytes, 0);
        assert_eq!(s.replication_messages, 0);
        assert_eq!(s.remote_bytes, 3);
    }

    #[test]
    fn meter_is_thread_safe() {
        let m = std::sync::Arc::new(TrafficMeter::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.record(true, &[(Cause::MissPull, 1)]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = m.snapshot();
        assert_eq!(s.remote_bytes, 4000);
        assert_eq!(s.remote_messages, 4000);
    }

    #[test]
    fn simulated_time_combines_local_and_remote() {
        let s = TrafficSnapshot {
            local_bytes: 1_000,
            local_messages: 1,
            remote_bytes: 1_000_000,
            remote_messages: 10,
            ..Default::default()
        };
        let m = CostModel::gigabit();
        let t = s.simulated_time(&m);
        assert!((t - (m.remote_time(1_000_000, 10) + m.local_time(1_000, 1))).abs() < 1e-12);
    }
}
