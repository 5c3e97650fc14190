//! Deterministic network simulation for distributed-training experiments.
//!
//! The paper's cluster (4 machines, 1 Gbps) is reproduced by *metering*
//! every parameter-server interaction: each push/pull records its byte count
//! and whether it crossed a (simulated) machine boundary. A [`CostModel`]
//! turns metered traffic into simulated network time, so communication
//! results are bit-reproducible and independent of the host machine.
//!
//! * [`CostModel`] — bandwidth + latency + per-message overhead;
//! * [`TrafficMeter`] — per-worker counters (local/remote bytes & messages);
//! * [`ClusterTopology`] — worker → machine placement (co-located PS);
//! * [`Timeline`] — per-worker two-lane (comm/compute) critical path;
//! * [`FaultPlan`]/[`FaultInjector`] — seeded, deterministic fault
//!   injection (drops, stragglers, shard outages) in simulated time;
//! * [`counters!`] — the report structs of additive counters, each field
//!   written once.

pub mod compress;
pub mod cost;
pub mod counters;
pub mod faults;
pub mod frame;
pub mod meter;
pub mod stream;
pub mod timeline;
pub mod topology;

pub use compress::{Codec, CompressionMode, CompressionStats};
pub use cost::CostModel;
pub use counters::Counters;
pub use faults::{
    CrashPoint, FaultInjector, FaultPlan, FaultSnapshot, OutageWindow, OverloadWindow, ShardKill,
    ShardLiveness, SlowEpisode, Verdict,
};
pub use frame::{WireFrame, FRAME_CHECKSUM_BYTES};
pub use meter::{Cause, CauseBytes, LaneBytes, TrafficMeter, TrafficSnapshot};
pub use timeline::{Lane, Timeline};
pub use topology::ClusterTopology;
