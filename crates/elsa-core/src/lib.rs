//! The ELSA approximate self-attention algorithm (§III of the paper).
//!
//! The pipeline, exactly as the paper describes it:
//!
//! 1. **Binary hashing** ([`hashing`]) — every key and query is mapped to a
//!    `k`-bit sign-random-projection hash using *orthogonal* projections,
//!    computed efficiently through a Kronecker-structured transform
//!    (`3·d^{4/3}` multiplies instead of `k·d`).
//! 2. **Angle estimation with bias correction** ([`calibration`]) — the
//!    Hamming distance between two hashes estimates the angle
//!    `θ ≈ π/k · hamming`; a bias `θ_bias` (the 80th-percentile estimator
//!    error on synthetic `N(0,1)` data — `0.127` for `d = k = 64`) is
//!    subtracted so the similarity is *under*-estimated in only ~20% of
//!    cases, protecting recall of relevant keys.
//! 3. **Approximate similarity** ([`similarity`]) —
//!    `‖K_y‖ · cos(max(0, π/k·hamming − θ_bias))` estimates the dot product
//!    between the *normalized* query and the key.
//! 4. **Learned candidate threshold** ([`threshold`]) — a single user
//!    hyperparameter `p` (degree of approximation) is translated into a
//!    per-(sub-)layer threshold `t` by inspecting softmax scores on a
//!    training set; at inference a key is selected iff its approximate
//!    similarity exceeds `t·‖K_max‖`.
//! 5. **Candidate-restricted attention** ([`attention`]) — exact attention
//!    is computed over the selected keys only.
//!
//! [`session`] adds a streaming query-at-a-time API (matching the hardware
//! flow) with bounded/causal selection for autoregressive models, including
//! an append-only [`session::StreamingSession`] that extends hashes/norms
//! per decoded token instead of re-preprocessing the whole context.
//!
//! # Examples
//!
//! ```
//! use elsa_core::attention::{ElsaAttention, ElsaParams};
//! use elsa_attention::{exact, AttentionInputs};
//! use elsa_linalg::{Matrix, SeededRng};
//!
//! let mut rng = SeededRng::new(7);
//! let n = 64;
//! let d = 64;
//! let q = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
//! let k = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
//! let v = Matrix::from_fn(n, d, |_, _| rng.standard_normal() as f32);
//! let inputs = AttentionInputs::new(q, k, v);
//!
//! // Learn the layer threshold on (here: the same) data with p = 1.0,
//! // then run the approximate operator.
//! let params = ElsaParams::for_dims(d, 64, &mut rng);
//! let elsa = ElsaAttention::learn(params, &[inputs.clone()], 1.0);
//! let (out, stats) = elsa.forward(&inputs);
//! assert_eq!(out.rows(), n);
//! assert!(stats.candidate_fraction() <= 1.0);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod attention;
pub mod calibration;
pub mod hashing;
pub mod session;
pub mod similarity;
pub mod threshold;

pub use attention::{ElsaAttention, ElsaParams, SelectionStats};
pub use hashing::{BinaryHash, SrpHasher};
pub use session::{ElsaSession, StreamingSession};
pub use threshold::ThresholdLearner;

/// The paper's reference angle-correction bias for `d = 64`, `k = 64`
/// (§III-B: "For a specific case d = 64 and k = 64, θ_bias is 0.127").
pub const THETA_BIAS_D64_K64: f64 = 0.127;
