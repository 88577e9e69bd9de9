//! Workloads reproducing the ELSA evaluation (§V-A).
//!
//! The paper evaluates five self-attention models — BERT-large,
//! RoBERTa-large, ALBERT-large, SASRec and BERT4Rec — on SQuAD v1.1/v2.0,
//! RACE, IMDB and MovieLens-1M. Trained checkpoints and the datasets
//! themselves are not available in this environment, so this crate supplies
//! the synthetic equivalents documented in `DESIGN.md` §2:
//!
//! * [`models`] — the exact published *shapes* of the five models
//!   (layers / heads / dimensions / sequence lengths), which drive every
//!   performance and energy result;
//! * [`datasets`] — samplers for the *real-token length distributions* of
//!   the five datasets, the only property of the data the performance
//!   results depend on (GPU pads to `n`, ELSA does not — §V-C);
//! * [`synthetic`] — a generative model of Q/K/V triples with controllable
//!   attention peakedness, calibrated per model so that the fraction of
//!   keys clearing the paper's `p·(1/n)` relevance bar matches the
//!   candidate fractions reported in Fig. 10;
//! * [`tasks`] — proxy accuracy metrics (classification agreement for the
//!   NLP tasks, NDCG@10 for the recommenders) measured **relative to the
//!   exact-attention model**, mirroring the paper's "accuracy loss vs
//!   baseline" framing;
//! * [`workload`] — the twelve model–dataset combinations of the evaluation
//!   and batch generation for them;
//! * [`deep`] — [`DeepProxyModel`], a stack of transformer layers whose
//!   attention sub-layers run exactly or through per-sub-layer calibrated
//!   ELSA operators, so quality is measured at the top of a deep residual
//!   stack;
//! * [`trace`] — replayable plain-text traces pinning down exactly which
//!   invocations an experiment ran;
//! * [`sessions`] — multi-turn decode schedules (prompt prefill + one turn
//!   per decoded token) over the same recorded invocations, for the
//!   incremental-decode serving path;
//! * [`fleet`] — weighted workload mixtures ([`FleetMix`]) modeling the
//!   heterogeneous traffic composition a multi-node fleet serves, with a
//!   deterministic weighted sampler for cluster-scale traces;
//! * [`longctx`] — the long-context zoo (8k–64k keys): locality-structured
//!   long-document traces, relevance-skewed retrieval traces, and extreme
//!   length-skew mixes ([`LengthMix`]) for serving experiments.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod datasets;
pub mod deep;
pub mod fleet;
pub mod longctx;
pub mod models;
pub mod sessions;
pub mod synthetic;
pub mod tasks;
pub mod trace;
pub mod workload;

pub use datasets::DatasetKind;
pub use deep::DeepProxyModel;
pub use fleet::FleetMix;
pub use longctx::{LengthMix, LongCtxKind};
pub use models::ModelKind;
pub use sessions::{record_sessions, turn_inputs, SessionSpec, SessionTurn};
pub use synthetic::AttentionPatternConfig;
pub use trace::WorkloadTrace;
pub use workload::Workload;
