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
//! * [`table`] — the cache itself: id → slot map over a dense slab;
//! * [`policy`] — CPS (constant partial stale: table fixed before training)
//!   and DPS (dynamic partial stale: rebuilt every `D` iterations);
//! * [`sync`] — Algorithms 3–4: bounded-staleness synchronization — the
//!   cached values are refreshed from the PS every `P` iterations, which
//!   bounds the divergence between cached and global embeddings;
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

pub mod baselines;
pub mod filter;
pub mod metrics;
pub mod policy;
pub mod prefetch;
pub mod sync;
pub mod table;

pub use filter::{FilterConfig, HotSet};
pub use policy::{CachePolicy, PolicyKind};
pub use sync::SyncConfig;
pub use table::HotEmbeddingTable;
