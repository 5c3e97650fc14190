//! Embedding math substrate for HET-KG: dense embedding storage, knowledge
//! graph embedding (KGE) score functions with hand-derived analytic
//! gradients, loss functions, and negative sampling.
//!
//! The paper evaluates TransE and DistMult; this crate additionally
//! implements the related-work models its §II surveys (TransH, TransR,
//! TransD, ComplEx, RESCAL, HolE) behind one [`models::KgeModel`] trait, so
//! the training system is model-agnostic. A model is one kernel pair: a
//! forward half (`score_fwd`) that scores a triple and leaves in caller
//! scratch what its backward half (`grad_bwd`) reuses. Training calls the
//! pair; `score`, `grad` and the candidate-block scorers that evaluation and
//! serving call are provided views of it.
//!
//! All gradients are verified against central finite differences (see
//! [`gradcheck`]), which is what lets the distributed trainer skip an
//! autograd dependency entirely.
//!
//! # Example: score a triple and take a gradient step
//!
//! ```
//! use hetkg_embed::ModelKind;
//!
//! let model = ModelKind::TransEL2.build(4);
//! let (h, r, t) = ([0.1f32; 4], [0.2f32; 4], [0.4f32; 4]);
//! let before = model.score(&h, &r, &t);
//!
//! // Gradient ascent on the score moves the triple toward plausibility.
//! let (mut gh, mut gr, mut gt) = ([0.0f32; 4], [0.0f32; 4], [0.0f32; 4]);
//! model.grad(&h, &r, &t, 1.0, &mut gh, &mut gr, &mut gt);
//! let step = |x: &[f32; 4], g: &[f32; 4]| {
//!     let mut y = *x;
//!     for i in 0..4 { y[i] += 0.05 * g[i]; }
//!     y
//! };
//! let after = model.score(&step(&h, &gh), &step(&r, &gr), &step(&t, &gt));
//! assert!(after > before);
//! ```

pub mod checkpoint;
pub mod gradcheck;
pub mod init;
pub mod loss;
pub mod manifest;
pub mod math;
pub mod models;
pub mod negative;
pub mod storage;

pub use manifest::{CheckpointStore, LoadedCheckpoint, ManifestEntry};
pub use models::{KgeModel, ModelKind};
pub use storage::EmbeddingTable;
