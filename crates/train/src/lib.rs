//! The distributed training engine: multi-worker KGE training over the
//! parameter server, in four system flavours matching the paper's
//! evaluation grid:
//!
//! * **HET-KG-C** — hot-embedding cache, constant partial stale (CPS);
//! * **HET-KG-D** — hot-embedding cache, dynamic partial stale (DPS);
//! * **DGL-KE (simulated)** — plain co-located PS, no cache: every mini-batch
//!   pulls all its embeddings and pushes all its gradients;
//! * **PBG (simulated)** — block partitioning with a lock server, bucket
//!   swapping through a shared filesystem, relations as dense parameters.
//!
//! Workers do real floating-point training on one thread, stepped
//! round-robin one unit at a time (`trainer::run_epoch_interleaved`), so the
//! order of PS reads and writes never depends on the host's scheduler. The
//! network is metered and costed by `hetkg-netsim` and compute is costed from
//! counted kernel work, so both times in the reports are simulated
//! (deterministic); wall-clock is what `benchmark/` measures.

pub mod batch;
pub mod config;
pub mod oracle;
pub mod plan;
pub mod report;
pub mod supervisor;
pub mod systems;
pub mod trainer;
pub mod worker;

pub use config::{SystemKind, TrainConfig, TransportKind};
pub use oracle::{shadow_check, OracleConfig, OracleReport};
pub use report::{EpochReport, FaultReport, TrainReport};
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorEvent, SupervisorReport};
pub use trainer::{train, train_with_store};
