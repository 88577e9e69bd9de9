//! Length-bucketed dynamic batching.
//!
//! ELSA's accelerator pays for the *real* sequence length of every request
//! (`crates/elsa-sim` charges `n_real` cycles, not `n_max`), so its natural
//! batching discipline is **bucketed**: group requests of similar length and
//! dispatch each at its own cost — no padding anywhere. A GPU running the
//! same traffic must pad every sequence in a batch to the batch maximum; the
//! [`BatcherMode::Padded`] emulation charges exactly that, making the
//! padding-waste gap a measured quantity instead of a talking point (the
//! serving-side companion to the paper's §V claim that skipping padded
//! entities is free throughput).
//!
//! The batcher itself is policy ([`BatchPolicy`]) plus bookkeeping
//! ([`BucketStats`]); batch *formation* lives in the event loop
//! ([`dispatch`](crate::dispatch)), which decides when a bucket is rich
//! enough (`max_batch`) or old enough (`max_wait_ns`) to go.

use crate::error::RuntimeError;

/// How a formed batch is charged to the accelerator pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatcherMode {
    /// ELSA semantics: every request runs at its real length. No padding.
    Bucketed,
    /// GPU emulation: every request in a batch is padded (with zero rows)
    /// to the longest request in the batch and charged the padded cost.
    Padded,
}

/// When to form a batch, and how lengths are grouped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Dispatch a bucket as soon as it holds this many requests.
    pub max_batch: usize,
    /// Dispatch a bucket when its oldest waiter has queued this long.
    pub max_wait_ns: u64,
    /// Ascending upper length bounds of the buckets. A request of length
    /// `n` joins the first bucket with `n <= bound`; anything longer than
    /// the last bound also joins the last bucket (catch-all).
    pub length_buckets: Vec<usize>,
}

impl BatchPolicy {
    /// Immediate dispatch: batch size 1, no waiting, one catch-all bucket.
    /// Under this policy the pipeline degenerates to a FIFO batch server
    /// (the bit-identity baseline of `tests/fault_tolerance.rs`).
    #[must_use]
    pub fn immediate() -> Self {
        Self { max_batch: 1, max_wait_ns: 0, length_buckets: vec![usize::MAX] }
    }

    /// One catch-all bucket with the given batch size and wait bound.
    #[must_use]
    pub fn single_bucket(max_batch: usize, max_wait_ns: u64) -> Self {
        Self { max_batch, max_wait_ns, length_buckets: vec![usize::MAX] }
    }

    /// Validates the policy.
    ///
    /// # Panics
    ///
    /// Panics on a zero batch size, no buckets, or bucket bounds that are
    /// not strictly ascending; see [`BatchPolicy::try_validate`] for the
    /// non-panicking form.
    pub fn validate(&self) {
        match self.try_validate() {
            Ok(()) => {}
            // elsa-lint: allow(panic-policy) reason="documented # Panics wrapper; try_validate is the serving-path form"
            Err(e) => panic!("{e}"),
        }
    }

    /// Validates the policy, reporting the violation as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidBatchPolicy`] on a zero batch size,
    /// no buckets, or bucket bounds that are not strictly ascending.
    pub fn try_validate(&self) -> Result<(), RuntimeError> {
        if self.max_batch == 0 {
            return Err(RuntimeError::InvalidBatchPolicy { reason: "max_batch must be positive" });
        }
        if self.length_buckets.is_empty() {
            return Err(RuntimeError::InvalidBatchPolicy {
                reason: "need at least one length bucket",
            });
        }
        let ascending =
            self.length_buckets.iter().zip(self.length_buckets.iter().skip(1)).all(|(a, b)| a < b);
        if !ascending {
            return Err(RuntimeError::InvalidBatchPolicy {
                reason: "bucket bounds must be strictly ascending",
            });
        }
        Ok(())
    }

    /// Number of buckets.
    #[must_use]
    pub fn num_buckets(&self) -> usize {
        self.length_buckets.len()
    }

    /// The bucket a request of real length `n` joins.
    #[must_use]
    pub fn bucket_of(&self, n: usize) -> usize {
        self.length_buckets
            .iter()
            .position(|&bound| n <= bound)
            .unwrap_or(self.length_buckets.len() - 1)
    }
}

/// Dispatch accounting for one length bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BucketStats {
    /// Upper length bound of the bucket (`usize::MAX` for a catch-all).
    pub bound: usize,
    /// Requests dispatched through the bucket.
    pub requests: u64,
    /// Batches formed.
    pub batches: u64,
    /// Zero rows added by padding (always 0 in [`BatcherMode::Bucketed`]).
    pub padded_rows: u64,
    /// Real rows dispatched (sum of `n_real`).
    pub real_rows: u64,
}

impl BucketStats {
    /// Mean requests per batch — the bucket's occupancy. `0.0` for a bucket
    /// that never dispatched.
    #[must_use]
    pub fn mean_fill(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Fraction of dispatched rows that were padding. `0.0` when nothing
    /// was dispatched.
    #[must_use]
    pub fn padding_waste(&self) -> f64 {
        let total = self.real_rows + self.padded_rows;
        if total == 0 {
            0.0
        } else {
            self.padded_rows as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_routing_first_fit_with_catch_all() {
        let policy =
            BatchPolicy { max_batch: 8, max_wait_ns: 0, length_buckets: vec![64, 128, 256] };
        policy.validate();
        assert_eq!(policy.bucket_of(1), 0);
        assert_eq!(policy.bucket_of(64), 0);
        assert_eq!(policy.bucket_of(65), 1);
        assert_eq!(policy.bucket_of(256), 2);
        assert_eq!(policy.bucket_of(10_000), 2, "catch-all");
    }

    #[test]
    fn immediate_policy_is_degenerate() {
        let policy = BatchPolicy::immediate();
        policy.validate();
        assert_eq!(policy.max_batch, 1);
        assert_eq!(policy.max_wait_ns, 0);
        assert_eq!(policy.num_buckets(), 1);
        assert_eq!(policy.bucket_of(usize::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unordered_buckets_rejected() {
        BatchPolicy { max_batch: 4, max_wait_ns: 0, length_buckets: vec![128, 64] }.validate();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_rejected() {
        BatchPolicy { max_batch: 0, max_wait_ns: 0, length_buckets: vec![64] }.validate();
    }

    #[test]
    fn stats_ratios_never_nan() {
        let empty = BucketStats::default();
        assert_eq!(empty.mean_fill(), 0.0);
        assert_eq!(empty.padding_waste(), 0.0);
        let stats = BucketStats {
            bound: 128,
            requests: 6,
            batches: 2,
            padded_rows: 30,
            real_rows: 90,
        };
        assert_eq!(stats.mean_fill(), 3.0);
        assert_eq!(stats.padding_waste(), 0.25);
    }
}
