//! Typed serving errors.
//!
//! Everything a *caller* can get wrong — a mis-deployed operator, an
//! invalid hardware description, a request that does not fit, a pool with
//! nothing left to serve on — surfaces as a [`RuntimeError`] instead of a
//! panic, so a serving process can reject the one bad input and keep
//! serving the rest. Internal invariant violations (broken FIFO
//! accounting, non-finite virtual clocks) remain `assert!`s: those are
//! bugs, not inputs.

use std::fmt;

use elsa_sim::FitError;

/// An error the serving stack reports to its caller instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuntimeError {
    /// The operator or hardware configuration is unusable as deployed.
    Misfit(FitError),
    /// One request of a batch does not fit the hardware.
    Request {
        /// Index of the offending request in the batch.
        index: usize,
        /// Why it does not fit.
        source: FitError,
    },
    /// Every accelerator in the pool is dead or quarantined; nothing can
    /// be dispatched.
    NoHealthyUnits,
    /// A batch policy is structurally invalid.
    InvalidBatchPolicy {
        /// Which structural rule the policy violates.
        reason: &'static str,
    },
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RuntimeError::Misfit(e) => write!(f, "{e}"),
            RuntimeError::Request { index, source } => {
                write!(f, "request {index}: {source}")
            }
            RuntimeError::NoHealthyUnits => {
                write!(f, "no healthy accelerator units remain in the pool")
            }
            RuntimeError::InvalidBatchPolicy { reason } => {
                write!(f, "invalid batch policy: {reason}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::Misfit(e) | RuntimeError::Request { source: e, .. } => Some(e),
            _ => None,
        }
    }
}

impl From<FitError> for RuntimeError {
    fn from(e: FitError) -> Self {
        RuntimeError::Misfit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_legacy_panic_phrases() {
        // The panicking wrappers format these, so messages that
        // should_panic tests match on must survive.
        let misfit = RuntimeError::from(FitError::RequestTooLarge { n: 9, n_max: 4 });
        assert!(misfit.to_string().contains("exceeds hardware n_max"));
    }

    #[test]
    fn request_errors_carry_their_source() {
        use std::error::Error;
        let e = RuntimeError::Request {
            index: 3,
            source: FitError::RequestDim { input_d: 32, hardware_d: 64 },
        };
        assert!(e.to_string().starts_with("request 3:"));
        assert!(e.source().is_some());
    }
}
