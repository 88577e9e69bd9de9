//! Exact self-attention and the transformer substrate.
//!
//! This crate is the *ground truth* of the reproduction: the textbook
//! `softmax(QKᵀ)·V` operator of §II-A, computed in `f32` with `f64`
//! accumulation, plus the surrounding transformer machinery (multi-head
//! projection, feed-forward network, layer norm) needed to build
//! BERT/RoBERTa/ALBERT/SASRec/BERT4Rec-shaped workloads and to count the
//! FLOPs that the GPU/TPU baseline models and Fig. 2 rely on.
//!
//! The approximation in `elsa-core` and the hardware datapath in `elsa-sim`
//! are both judged against the outputs produced here.
//!
//! # Examples
//!
//! ```
//! use elsa_attention::exact::{self, AttentionInputs};
//! use elsa_linalg::Matrix;
//!
//! let n = 4;
//! let d = 8;
//! let q = Matrix::from_fn(n, d, |r, c| ((r + c) % 3) as f32);
//! let k = q.clone();
//! let v = Matrix::from_fn(n, d, |r, _| r as f32);
//! let inputs = AttentionInputs::new(q, k, v);
//! let out = exact::attention(&inputs);
//! assert_eq!(out.rows(), n);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod exact;
pub mod flops;
pub mod multihead;
pub mod transformer;

pub use exact::AttentionInputs;
pub use multihead::MultiHeadAttention;
pub use transformer::{LayerNorm, TransformerConfig, TransformerLayer};
