//! Host-integration runtime for the ELSA accelerator (§IV-B, §V-C).
//!
//! The paper positions ELSA as "a specialized functional unit … which can be
//! integrated with various computing devices such as CPUs, GPUs, and other
//! NN accelerators": the host issues a command per self-attention invocation
//! (passing Q/K/V by reference into scratchpad memory), twelve accelerators
//! exploit batch-level parallelism, and the candidate-selection threshold is
//! learned **per attention sub-layer** — 384 of them for BERT-large (§III-E).
//!
//! This crate is that integration layer:
//!
//! * [`thresholds`] — [`thresholds::ThresholdTable`]: one learned threshold
//!   per (layer, head) sub-layer, trained from per-sublayer calibration
//!   batches exactly as Fig. 6 describes;
//! * [`scheduler`] — [`scheduler::BatchScheduler`]: assigns head-invocations
//!   to accelerators (LPT or round-robin), including the per-command host
//!   issue overhead, and reports the layer makespan;
//! * [`quality`] — [`quality::DeepProxyModel`]: stacked transformer layers
//!   whose attention runs exactly or through calibrated ELSA operators, so
//!   accuracy can be measured at the top of a deep residual stack (the
//!   paper's end-to-end protocol) instead of at a single layer;
//! * [`offload`] — [`offload::ModelOffload`]: a whole-model driver that runs
//!   every attention sub-layer of a transformer through the cycle-level
//!   simulator and combines the result with the host-side (GPU) cost of the
//!   non-attention work, yielding the end-to-end speedups of §V-C;
//! * [`error`] — [`error::RuntimeError`]: typed errors for everything a
//!   caller can get wrong, so serving keeps running instead of panicking.
//!
//! Request serving (batch or online, fault-free or under a seeded fault
//! plan) lives in `elsa-serve`: one engine, `NodeEngine`, owns dispatch,
//! retries, quarantine and degradation to exact attention.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod error;
pub mod offload;
pub mod quality;
pub mod scheduler;
pub mod thresholds;

pub use error::RuntimeError;
pub use offload::{ModelOffload, ModelReport};
pub use quality::DeepProxyModel;
pub use scheduler::{BatchScheduler, SchedulePolicy};
pub use thresholds::ThresholdTable;
