//! Simulator of the ELSA hardware accelerator (§IV of the paper).
//!
//! Three independent models, sharing the algorithm implementation from
//! `elsa-core`:
//!
//! * [`cycle`] — a **cycle-level performance model** of the pipeline in
//!   Fig. 7/Fig. 9: hash computation module, norm computation module,
//!   `P_c` candidate selection modules per bank, longest-queue-first
//!   arbitration into `P_a` attention computation modules, and the output
//!   division module. Per-query work is simulated with an explicit
//!   scan/queue/drain loop (not just the closed-form bound, which is kept
//!   alongside for validation).
//! * [`functional`] — a **bit-level functional model** of the quantized
//!   datapath of §IV-E: 9-bit fixed-point inputs, 6-bit hash matrices,
//!   LUT-based exp/reciprocal/square root, and the 16-bit custom float for
//!   everything downstream of the exponent unit. Used to reproduce the
//!   "<0.2% metric impact" claim (E11 in DESIGN.md).
//! * [`cost`] — an **area/power/energy model** calibrated against Table I,
//!   parameterized by the pipeline configuration so that the Fig. 13 energy
//!   results and ablations over `P_c`/`m_h`/`m_o` fall out of module counts
//!   rather than hard-coded totals.
//!
//! [`accelerator`] ties them together into an [`accelerator::ElsaAccelerator`]
//! that takes an attention invocation and reports output, cycles and energy.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod accelerator;
pub mod arbiter;
pub mod config;
pub mod cost;
pub mod cycle;
pub mod fit;
pub mod functional;

pub use accelerator::{ElsaAccelerator, RunReport};
pub use arbiter::{ArbiterPolicy, BankDrainReport};
pub use config::AcceleratorConfig;
pub use cost::{AreaPowerTable, EnergyBreakdown};
pub use cycle::CycleReport;
pub use fit::FitError;
