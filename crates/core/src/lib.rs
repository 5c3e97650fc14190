//! The HET-KG contribution: a **hotness-aware cache** of embeddings at each
//! worker.
//!
//! During distributed KGE training most pulls hit a small set of hot
//! entities/relations. Each worker therefore keeps a *hot-embedding table*:
//!
//! * [`prefetch`] — Algorithm 1: sample `D` iterations of mini-batches in
//!   advance (positives + corruptions) and record, per embedding, how many
//!   of those batches read it and how often they use it;
//! * [`filter`] — Algorithm 2: keep the top-k with a fixed entity/relation
//!   split (the node-heterogeneity fix: default 25% entities / 75%
//!   relations) — by frequency in an access list for CPS, by reading
//!   batches among the keys at least two batches read for DPS;
//! * [`window`] — Algorithms 1 + 2 over a worker's iterations: the batch
//!   each iteration trains on, the hot set each rebuild selects, what it
//!   evicts and fills, and whether a key is read again before a boundary;
//! * [`table`] — the cache itself: id → slot map over a dense slab;
//! * [`policy`] — CPS (constant partial stale: table fixed before training)
//!   and DPS (dynamic partial stale: rebuilt every `D` iterations);
//! * [`sync`] — Algorithms 3–4 and §IV-C: bounded-staleness
//!   synchronization — the cached values are refreshed from the PS every
//!   `P` iterations, which bounds the divergence between cached and global
//!   embeddings — with [`SyncClock`], the one place a worker asks which
//!   iteration syncs, rebuilds or ends a window, and how old a hit may be;
//! * [`backlog`] — degraded mode's bounded backlog of deferred pushes;
//! * [`metrics`] — hit/miss counts and the table's economy;
//! * [`baselines`] — FIFO / LRU / LFU / importance caches for Table VI.
//!
//! # Example: select and cache a hot set
//!
//! ```
//! use hetkg_core::filter::{filter_hot_set, FilterConfig};
//! use hetkg_core::table::HotEmbeddingTable;
//! use hetkg_kgraph::{KeySpace, ParamKey};
//!
//! let ks = KeySpace::new(100, 10);
//! // An access trace where key 3 (an entity) and key 104 (relation 4)
//! // dominate.
//! let mut trace = vec![ParamKey(3); 50];
//! trace.extend(vec![ParamKey(104); 80]);
//! trace.extend((0..20).map(ParamKey));
//!
//! let hot = filter_hot_set(&trace, ks, &FilterConfig::paper_default(4));
//! assert!(hot.keys().any(|k| k == ParamKey(3)));
//! assert!(hot.keys().any(|k| k == ParamKey(104)));
//!
//! // Cache the selected rows.
//! let mut table = HotEmbeddingTable::new(ks, 4, 4, 8, 8, 0);
//! for key in hot.keys() {
//!     table.insert(key, &[0.0; 8]).unwrap();
//! }
//! assert!(table.contains(ParamKey(3)));
//! ```

pub mod backlog;
pub mod baselines;
pub mod filter;
pub mod metrics;
pub mod policy;
pub mod prefetch;
pub mod sync;
pub mod table;
pub mod window;

pub use filter::{FilterConfig, HotSet};
pub use policy::{CachePolicy, PolicyKind};
pub use sync::{SyncClock, SyncConfig};
pub use table::HotEmbeddingTable;
pub use window::Window;
