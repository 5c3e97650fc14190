//! The parameter server (PS) substrate: a sharded key→embedding store with
//! server-side optimizers and metered push/pull, mirroring the co-located
//! PS architecture HET-KG builds on (DGL-KE-style KVStore).
//!
//! * [`kvstore::KvStore`] — sharded dense storage; one shard per simulated
//!   machine, guarded by `parking_lot` locks (shared-memory access for
//!   co-located workers);
//! * [`optimizer`] — AdaGrad (the paper's choice) and SGD, applied *at the
//!   server* on push, exactly like Algorithm 4;
//! * [`client::PsClient`] — a worker-side handle that routes pulls/pushes to
//!   the right shard and meters local vs remote traffic;
//! * [`server`] — Algorithm 4's server side as real processes: one
//!   `hetkg ps-server` per shard applying pushes as their frames arrive,
//!   reached through [`transport::ProcessTransport`];
//! * [`error`] — typed RPC failures ([`RpcError`]) and the retry schedule
//!   ([`backoff`], [`MAX_ATTEMPTS`]) used when a fault injector is attached
//!   to the client;
//! * [`overload`] — overload protection: a run-global [`RetryBudget`] and
//!   per-shard circuit [`ShardBreakers`], shared by workers via
//!   [`OverloadControl`] so retries stop amplifying a flash crowd;
//! * `replica` — what a client does with a shard's backups: ship them
//!   writes, fail over to one, hedge a slow read against one (crate-private;
//!   a client holds one exactly when its store keeps backups).
//!
//! # Example: a two-shard store with metered pulls
//!
//! ```
//! use hetkg_ps::{KvStore, PsClient, PsScratch, ShardRouter};
//! use hetkg_ps::optimizer::Sgd;
//! use hetkg_embed::init::Init;
//! use hetkg_kgraph::{KeySpace, ParamKey};
//! use hetkg_netsim::{ClusterTopology, TrafficMeter};
//! use std::sync::Arc;
//!
//! let ks = KeySpace::new(10, 2);
//! let store = Arc::new(KvStore::new(
//!     ShardRouter::round_robin(ks, 2), 4, 4, 0, Init::Xavier, 7,
//! ));
//! let meter = Arc::new(TrafficMeter::new());
//! let client = PsClient::new(0, ClusterTopology::new(2, 1), store, meter.clone());
//!
//! // One scratch per worker: frames are built in its recycled buffers.
//! let mut scratch = PsScratch::new();
//! let mut row = [0.0f32; 4];
//! let mut copy = |_: usize, r: &[f32]| row.copy_from_slice(r);
//! client.try_pull_batch_with(&[ParamKey(0)], &mut scratch, &mut copy)?; // local (shard 0)
//! client.try_pull_batch_with(&[ParamKey(1)], &mut scratch, &mut copy)?; // remote (shard 1)
//! client.try_push_batch_with(&[ParamKey(1)], &[&[0.1; 4]], &Sgd { lr: 0.1 }, &mut scratch)?;
//! let t = meter.snapshot();
//! assert_eq!(t.local_messages, 1);
//! assert_eq!(t.remote_messages, 2);
//! # Ok::<(), hetkg_ps::RpcError>(())
//! ```

pub mod client;
pub mod compress;
pub mod error;
pub mod kvstore;
pub mod optimizer;
pub mod overload;
mod replica;
pub mod router;
pub mod server;
pub mod transport;

pub use client::{PsClient, PsScratch};
pub use compress::PushCompressor;
pub use error::{backoff, RpcError, MAX_ATTEMPTS};
pub use kvstore::{KvStore, ReplicationFlush, NO_VERSION};
pub use optimizer::{AdaGrad, Optimizer, Sgd};
pub use overload::{OverloadControl, RetryBudget, ShardBreakers};
pub use router::{BatchPlan, ShardRouter};
pub use server::{serve, ProcessCluster, ShardListener, ShardServerConfig, SocketMode};
pub use transport::{FrameOp, ProcessTransport, ServerAddr, SimTransport, Transport};
