//! Online serving for the ELSA accelerator pool.
//!
//! Batch serving asks "how fast does a batch that is already here finish?".
//! Production serving asks harder questions: how long do requests *queue* at
//! a given offered load, when should a batcher stop waiting, and what do you
//! drop when demand outruns the pool? This crate answers both with one fully
//! deterministic pipeline:
//!
//! * [`clock`] — a virtual clock in integer nanoseconds; no wall-clock
//!   reads anywhere, so every run replays bit-for-bit on any host at any
//!   `ELSA_THREADS`.
//! * [`arrival`] — seeded open-loop Poisson arrival traces over the
//!   evaluation workloads ([`SessionTrace::poisson`]), with optional burst
//!   phases, and recorded batches arriving at t = 0
//!   ([`SessionTrace::simultaneous`]). Shapes and timings are independent
//!   PRNG streams, so one seed sweeps cleanly across λ.
//! * [`queue`] — a bounded, length-bucketed admission queue with three
//!   backpressure policies (block, tail drop, head drop).
//! * [`batcher`] — length-bucketed dynamic batching. ELSA pays real
//!   lengths ([`BatcherMode::Bucketed`]); the [`BatcherMode::Padded`]
//!   emulation charges GPU-style pad-to-batch-max cost, so the padding
//!   waste the paper's architecture avoids is a measured number.
//! * [`estimator`] — closed-form service-time estimates (the paper's
//!   per-query cycle bound) for capacity planning and λ sweeps.
//! * [`skew`] — analytic bucketed-vs-padded replay of a length sequence
//!   through the estimator, for extreme long-context skew (66-vs-64k)
//!   where running the padded engine is infeasible.
//! * [`engine`] — the node-embeddable [`NodeEngine`]: the extracted
//!   serial event loop (admission, batching, failover dispatch) behind a
//!   public API, so a fleet layer can embed one engine per node and drive
//!   admissions itself — with evacuation, backlog, session-cache-loss,
//!   and slow-node hooks for routing and failover.
//! * [`dispatch`] — [`OnlineServer`], the front-end over one engine:
//!   SLO-aware dispatch onto the accelerator pool with failover (transient
//!   retries, stragglers, quarantine, degradation to exact attention),
//!   emitting one [`OnlineRecord`] per arrival and a [`ServeReport`] with
//!   completion and queue-delay percentiles, SLO attainment, shed/timeout
//!   accounting, per-bucket occupancy, and the decode cache's statistics
//!   when one was attached.
//! * [`error`] — [`RuntimeError`], the typed error every serving entry
//!   point returns instead of panicking on a caller's mistake.
//! * [`session`] — the one trace type, replayable [`SessionTrace`]s (each
//!   arrival is the next turn of a live session, with session affinity in
//!   the batcher), plus the bounded decode cache — a
//!   [`SessionRegistry`] accounting every session's incremental KV/hash
//!   state against a capacity budget with deterministic LRU or SLO-aware
//!   eviction. A cache hit is charged only the appended tokens'
//!   preprocessing; an evicted session pays the full from-scratch rebuild
//!   on its next turn.
//!
//! Plain serving is the single-turn case of session serving, not a second
//! path: each request of a [`SessionTrace::poisson`] trace is one whole
//! self-attention invocation, served as a session whose only turn appends
//! every token, so [`prepare_turns`] is the only precompute and
//! [`ServeReport`] the only single-node report. Batch serving is in turn the
//! degenerate configuration of plain serving, not a second engine:
//! [`ServeConfig::immediate`] (unbounded queue, batch size 1, no wait) on a
//! [`SessionTrace::simultaneous`] trace dispatches every request at t = 0,
//! first-come first-served onto the unit that frees first. The facade's
//! `tests/fault_tolerance.rs` pins that case bitwise against an
//! independent FIFO fold.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arrival;
pub mod batcher;
pub mod clock;
pub mod dispatch;
pub mod engine;
pub mod error;
pub mod estimator;
pub mod queue;
pub mod session;
pub mod skew;

pub use arrival::{ArrivalConfig, Burst};
pub use batcher::{BatchPolicy, BatcherMode, BucketStats};
pub use clock::VirtualClock;
pub use dispatch::{OnlineRecord, OnlineServer, Outcome, ServeConfig, ServeReport};
pub use engine::{
    prepare_turns, session_admissions, unit_health, NodeEngine, NodeParts, PreparedRequest,
};
pub use error::RuntimeError;
pub use estimator::ServiceEstimator;
pub use queue::{AdmissionQueue, Backpressure, QueuedRequest};
pub use session::{
    CacheConfig, CacheStats, EvictionPolicy, SessionArrivalConfig, SessionRegistry, SessionTrace,
    SessionTurnRequest,
};
pub use skew::{compare_batching, SkewComparison, SkewOutcome};
