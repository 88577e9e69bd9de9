//! Typed operator/hardware misfit errors.
//!
//! The accelerator model historically panicked when a trained operator or an
//! incoming invocation did not fit the configured hardware. A production
//! serving stack cannot afford that: a single malformed request or a
//! mis-deployed operator must surface as a recoverable error the dispatcher
//! can route around (see `elsa-serve` and `elsa-fault`). [`FitError`]
//! carries every way an operator, configuration, or invocation can fail to
//! fit; the panicking constructors remain as thin wrappers for callers that
//! have already validated their inputs.

use std::fmt;

/// Why an operator, configuration, or invocation does not fit the hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitError {
    /// The [`AcceleratorConfig`](crate::AcceleratorConfig) itself is
    /// internally inconsistent.
    Config {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// The operator's head dimension differs from the hardware's `d`.
    OperatorDim {
        /// Head dimension the operator was trained for.
        operator_d: usize,
        /// Head dimension the hardware is configured for.
        hardware_d: usize,
    },
    /// The operator's hash length differs from the hardware's `k`.
    OperatorHashLength {
        /// Hash length the operator was trained for.
        operator_k: usize,
        /// Hash length the hardware is configured for.
        hardware_k: usize,
    },
    /// An invocation has more keys than the memories are sized for.
    RequestTooLarge {
        /// Number of keys in the invocation.
        n: usize,
        /// Maximum number of entities the hardware supports.
        n_max: usize,
    },
    /// An invocation's head dimension differs from the configured `d`.
    RequestDim {
        /// Head dimension of the invocation.
        input_d: usize,
        /// Head dimension the hardware is configured for.
        hardware_d: usize,
    },
    /// A session turn appends token positions at which its invocation has
    /// no query row, so the turn has no query to run (for example a prefill
    /// that stops before a long document's trailing query rows).
    NoQueryRow {
        /// Context length after the turn.
        prefix_len: usize,
        /// Tokens the turn appends: positions `prefix_len - appended ..
        /// prefix_len`.
        appended: usize,
    },
    /// A session turn's shape does not fit its invocation: it appends no
    /// token (`appended == 0`), more tokens than its context holds
    /// (`appended > prefix_len`), or its context runs past the invocation
    /// (`prefix_len > n_real`).
    MalformedTurn {
        /// Context length after the turn.
        prefix_len: usize,
        /// Tokens the turn appends.
        appended: usize,
        /// Tokens of the invocation the turn slices.
        n_real: usize,
    },
    /// A session turn's invocation cannot be generated: its recorded
    /// pattern fails the workload generator's preconditions
    /// (`AttentionPatternConfig::validate` in `elsa-workloads`), for example
    /// more relevant keys per query than the invocation has keys.
    InvalidEntry {
        /// The violated precondition, as the validator states it.
        reason: &'static str,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FitError::Config { reason } => write!(f, "invalid accelerator config: {reason}"),
            FitError::OperatorDim { operator_d, hardware_d } => write!(
                f,
                "operator d = {operator_d} does not fit hardware d = {hardware_d}"
            ),
            FitError::OperatorHashLength { operator_k, hardware_k } => write!(
                f,
                "operator k = {operator_k} does not fit hardware k = {hardware_k}"
            ),
            FitError::RequestTooLarge { n, n_max } => {
                write!(f, "invocation n = {n} exceeds hardware n_max = {n_max}")
            }
            FitError::RequestDim { input_d, hardware_d } => write!(
                f,
                "head dimension mismatch: invocation d = {input_d}, hardware d = {hardware_d}"
            ),
            FitError::NoQueryRow { prefix_len, appended } => write!(
                f,
                "turn appending positions {}..{prefix_len} holds no query row",
                prefix_len.saturating_sub(appended)
            ),
            FitError::MalformedTurn { prefix_len, appended, n_real } => write!(
                f,
                "malformed turn: appending {appended} tokens to reach {prefix_len} of an \
                 invocation of {n_real} needs 1 <= appended <= prefix_len <= n"
            ),
            FitError::InvalidEntry { reason } => write!(f, "invalid invocation entry: {reason}"),
        }
    }
}

impl std::error::Error for FitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_keep_legacy_phrases() {
        // The panicking wrappers format these errors, so the historical
        // panic substrings (relied on by should_panic tests downstream)
        // must survive in the Display output.
        let too_large = FitError::RequestTooLarge { n: 1024, n_max: 512 };
        assert!(too_large.to_string().contains("exceeds hardware n_max"));
        let banks = FitError::Config { reason: "n_max must divide into P_a banks" };
        assert!(banks.to_string().contains("banks"));
        let dim = FitError::RequestDim { input_d: 32, hardware_d: 64 };
        assert!(dim.to_string().contains("head dimension mismatch"));
        let entry = FitError::InvalidEntry { reason: "num_relevant must be in 1..=n_real" };
        assert!(entry.to_string().contains("num_relevant must be in 1..=n_real"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> =
            Box::new(FitError::OperatorDim { operator_d: 32, hardware_d: 64 });
        assert!(e.to_string().contains("does not fit hardware"));
    }
}
