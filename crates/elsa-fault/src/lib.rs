//! Deterministic fault injection for the ELSA accelerator pool.
//!
//! The paper's deployment (§IV-D) is a set of twelve replicated ELSA
//! accelerators serving variable-length attention traffic. Replicated pools
//! at production scale mean dead units, transient job errors, stragglers,
//! and — because the datapath trades the exact softmax for LUT
//! approximations — numeric faults (NaN/∞/saturated values) that must be
//! detected and contained rather than silently served. This crate models
//! all of those failure modes *deterministically*, so chaos tests are
//! replayable bit-for-bit:
//!
//! * [`FaultPlan`] / [`FaultRates`] — a seeded plan mapping every fault
//!   site (`unit`, `request`, `attempt`) to a decision via the
//!   `elsa-testkit` PRNG. Decisions are pure functions of the site labels,
//!   never of evaluation order, so results are identical at any
//!   `ELSA_THREADS`, and a failure replays exactly under the reported
//!   `ELSA_TESTKIT_SEED` (see [`FaultPlan::from_env`]).
//! * [`inject`] — applies a planned [`CorruptionKind`] to a finished run:
//!   NaN / ±∞ / saturated-fixed poison in the output matrix, or a wiped
//!   candidate set (a corrupted hash signature). The
//!   [`SATURATION_LIMIT`] sentinel defines the single guard predicate
//!   (`!(v.abs() < SATURATION_LIMIT)`) that catches every value-level kind.
//! * [`HealthTracker`] — quarantines units after repeated faults so a
//!   dispatcher can rebalance over the survivors; [`HealthSnapshot`] is
//!   its read-only view for outside observers (routers, reports).
//! * [`NodeFaultPlan`] / [`NodeFaultRates`] — the same seeded-plan
//!   contract at *node* granularity for the cluster layer: whole-node
//!   death (stochastic or forced prefix kills for monotone-loss sweeps),
//!   uniformly slow nodes, and flapping. One fleet seed forks into
//!   per-node unit plans via [`FaultPlan::fork`] without correlating
//!   faults across nodes.
//!
//! The serial kernels are untouched: faults pre-empt or post-process a run,
//! never alter the computation inside it. The plan is consumed by the one
//! serving engine, `elsa-serve`'s `NodeEngine`, which asks it per dispatch
//! and degrades a request to exact attention when its numeric guard trips.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod health;
pub mod inject;
pub mod node;
pub mod plan;

pub use health::{HealthSnapshot, HealthTracker};
pub use inject::SATURATION_LIMIT;
pub use node::{NodeFaultPlan, NodeFaultRates};
pub use plan::{CorruptionKind, FaultPlan, FaultRates};
