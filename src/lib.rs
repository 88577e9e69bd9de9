//! # ELSA — Efficient Lightweight Self-Attention (ISCA 2021) reproduction
//!
//! A from-scratch Rust implementation of *ELSA: Hardware-Software Co-design
//! for Efficient, Lightweight Self-Attention Mechanism in Neural Networks*
//! (Ham et al., ISCA 2021): the approximate self-attention algorithm, a
//! cycle-level and bit-level simulator of the proposed accelerator, the
//! baselines the paper compares against, and workloads matching the
//! evaluation section.
//!
//! This crate is a facade: it re-exports the workspace crates so examples
//! and downstream users need a single dependency.
//!
//! | module | contents |
//! |---|---|
//! | [`numeric`] | fixed-point & custom-float formats, LUT functional units |
//! | [`linalg`] | matrices, RNG, Gram–Schmidt, Kronecker transforms |
//! | [`attention`] | exact attention + transformer substrate |
//! | [`algorithm`] | the ELSA approximation (hashing, thresholds, operator) |
//! | [`sim`] | cycle/functional/energy simulation of the accelerator |
//! | [`baselines`] | the rivals: GPU / ideal / A³ / TPU / Flash cost models, LSH, local-window, segmented and pooled-KV attention |
//! | [`fault`] | deterministic fault injection: seeded chaos plans, health tracking |
//! | [`serve`] | the serving engine: batch and online serving, batching, SLO shedding, failover, typed errors |
//! | [`cluster`] | fault-tolerant fleet serving: routing, failover, hedging, autoscaling |
//! | [`workloads`] | model zoo, synthetic datasets, proxy metrics, deep-stack quality model |
//!
//! # Quickstart
//!
//! ```
//! use elsa::algorithm::attention::{ElsaAttention, ElsaParams};
//! use elsa::linalg::SeededRng;
//!
//! // Build a peaked attention workload.
//! let cfg = elsa::workloads::AttentionPatternConfig::new(128, 64, 4, 2.0);
//! let mut rng = SeededRng::new(1);
//! let train = cfg.generate(&mut rng);
//! let test = cfg.generate(&mut rng);
//!
//! // Learn a layer threshold at degree-of-approximation p = 1 and run.
//! let params = ElsaParams::for_dims(64, 64, &mut rng);
//! let operator = ElsaAttention::learn(params, &[train], 1.0);
//! let (output, stats) = operator.forward(&test);
//! assert_eq!(output.rows(), 128);
//! assert!(stats.candidate_fraction() < 1.0);
//! ```

#![deny(missing_docs)]

/// The ELSA approximation algorithm (re-export of `elsa-core`).
pub use elsa_core as algorithm;
/// Exact attention and transformer substrate (re-export of `elsa-attention`).
pub use elsa_attention as attention;
/// The rivals: device models and rival attention algorithms (re-export of
/// `elsa-baselines`).
pub use elsa_baselines as baselines;
/// Deterministic fault injection (re-export of `elsa-fault`).
pub use elsa_fault as fault;
/// Linear algebra substrate (re-export of `elsa-linalg`).
pub use elsa_linalg as linalg;
/// Deterministic parallel execution layer (re-export of `elsa-parallel`).
pub use elsa_parallel as parallel;
/// Datapath number formats (re-export of `elsa-numeric`).
pub use elsa_numeric as numeric;
/// The serving engine, batch and online (re-export of `elsa-serve`).
pub use elsa_serve as serve;
/// Fault-tolerant multi-node cluster serving (re-export of `elsa-cluster`).
pub use elsa_cluster as cluster;
/// Hardware simulator (re-export of `elsa-sim`).
pub use elsa_sim as sim;
/// Evaluation workloads (re-export of `elsa-workloads`).
pub use elsa_workloads as workloads;
