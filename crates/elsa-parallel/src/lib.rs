//! Deterministic parallel execution layer for the ELSA reproduction.
//!
//! Every hot path in the workspace — matmul, multi-head attention, SRP
//! hashing, candidate selection, request serving — is embarrassingly
//! parallel across rows, heads, queries, or requests. This crate provides
//! the one primitive they all share: fan work out over scoped `std::thread`
//! workers **without changing any result bit**.
//!
//! # Determinism contract
//!
//! Parallel results are bit-for-bit identical to serial results, for any
//! worker count, because
//!
//! * work is split into *items* (a row, a head, a query, a request) whose
//!   internal computation is untouched — the same instructions run in the
//!   same order per item as in the serial loop;
//! * [`par_map_indexed`] returns outputs ordered by item index, regardless
//!   of which worker computed what when;
//! * [`par_map_reduce`] performs its reduction serially, in index order, on
//!   the already-ordered mapped values — so f32/f64 accumulation order is
//!   the serial order, always.
//!
//! No floating-point reassociation, no racy accumulation, no scheduling
//! dependence. `ELSA_THREADS=1` (or a single-core host) short-circuits to
//! plain in-thread loops — no threads are spawned at all.
//!
//! # Worker count
//!
//! The default worker count is read once from the `ELSA_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`]. Tests
//! and benches override it for the current thread with [`with_threads`],
//! which nests and restores on unwind.
//!
//! # Panic propagation
//!
//! A panicking task poisons the run: remaining queued items are abandoned,
//! all workers are joined, and the first panic payload is re-raised on the
//! calling thread. No hangs, no silently lost panics.
//!
//! # Examples
//!
//! ```
//! // Ordered parallel map: output order is index order, whatever the
//! // worker count.
//! let squares = elsa_parallel::par_map_indexed(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // Deterministic reduction: mapped in parallel, reduced serially in
//! // index order (f32 sums are bit-stable across worker counts).
//! let sum = elsa_parallel::par_map_reduce(4, |i| (i + 1) as f32, 0.0f32, |a, b| a + b);
//! assert_eq!(sum, 10.0);
//!
//! // Same code, forced serial:
//! let serial = elsa_parallel::with_threads(1, || {
//!     elsa_parallel::par_map_indexed(8, |i| i * i)
//! });
//! assert_eq!(serial, squares);
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Re-export of [`std::thread::scope`]: the underlying structured-concurrency
/// primitive, for callers that need custom fan-out shapes. Panics in spawned
/// threads propagate to the caller when the scope joins.
pub use std::thread::scope;
/// Re-export of [`std::thread::Scope`] for signatures using [`scope`].
pub use std::thread::Scope;

/// Minimum estimated work below which fanning out is slower than computing
/// in place. Call sites gate their parallel path on [`beneficial`], which
/// compares against this.
///
/// Work is counted in units of about one multiply-add of the packed `f64`
/// matmul kernel (0.3 ns on the 2-core reference host). Every call site
/// weights its item count by what one item costs in those units, measured
/// on that host: an `f64` exp about 32; one Kronecker projection multiply
/// of the block hashing kernel about 3 (a dense projection is a matmul);
/// one candidate-scan step about 16; one element of a candidate's dot or
/// weighted sum in `ops::attend_candidates` about 2, of a serial `ops::dot`
/// about 4; one `f32`
/// scale multiply about 1; and one n²·d term of a serving request's
/// simulation about 6.
///
/// On that host a four-worker fan-out (scoped spawns and joins) costs about
/// 170 µs, so work of `2^21` units (about 0.6 ms serial) is where four
/// workers on two cores start to pay with some margin; below it, exact and
/// ELSA attention at n = 128 stay serial.
pub const MIN_PARALLEL_WORK: usize = 1 << 21;

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("ELSA_THREADS") {
            Ok(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => panic!("ELSA_THREADS must be a positive integer, got {raw:?}"),
            },
            Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        }
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The worker count parallel primitives will use when called from this
/// thread: the innermost [`with_threads`] override, else `ELSA_THREADS`,
/// else the machine's available parallelism.
#[must_use]
pub fn current_threads() -> usize {
    OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Runs `f` with the worker count pinned to `n` on the current thread,
/// restoring the previous setting afterwards (also on panic). Overrides
/// nest. The setting is thread-local: it governs parallel calls *made by*
/// `f` on this thread, not calls made from inside spawned workers (which
/// run their items serially — the layer does not nest parallelism).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "worker count must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(n))));
    f()
}

/// True when a parallel fan-out is worth it: more than one worker is
/// configured and the estimated work clears [`MIN_PARALLEL_WORK`].
///
/// Gating on this keeps the many small invocations in the test-suite and
/// the simulator on the zero-overhead serial path; results are identical
/// either way (the gate affects scheduling only, never values).
#[must_use]
pub fn beneficial(estimated_work: usize) -> bool {
    estimated_work >= MIN_PARALLEL_WORK && current_threads() > 1
}

/// Ordered parallel map over `0..len`: returns `[f(0), f(1), …, f(len-1)]`.
///
/// Items are distributed to workers in contiguous chunks claimed from an
/// atomic counter (dynamic load balancing); each worker keeps its chunks'
/// results tagged by chunk index, and the caller reassembles them in index
/// order. Output ordering — and therefore any downstream reduction order —
/// is independent of the worker count and of scheduling.
///
/// With one worker (or `len <= 1`) no threads are spawned.
///
/// # Panics
///
/// Re-raises the first panic from any task on the calling thread after all
/// workers have stopped.
pub fn par_map_indexed<R: Send>(len: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let workers = current_threads();
    if workers <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }
    // Chunks per worker > 1 so a slow chunk does not serialize the run.
    let chunk_len = len.div_ceil(workers * 4).max(1);
    let num_chunks = len.div_ceil(chunk_len);
    let spawn = workers.min(num_chunks);

    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    type ChunkResult<R> = Result<Vec<(usize, Vec<R>)>, Box<dyn std::any::Any + Send>>;

    let mut pieces: Vec<(usize, Vec<R>)> = Vec::with_capacity(num_chunks);
    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    scope(|s| {
        let handles: Vec<_> = (0..spawn)
            .map(|_| {
                s.spawn(|| -> ChunkResult<R> {
                    let mut local = Vec::new();
                    loop {
                        if poisoned.load(Ordering::Acquire) {
                            break;
                        }
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        if c >= num_chunks {
                            break;
                        }
                        let start = c * chunk_len;
                        let end = (start + chunk_len).min(len);
                        match catch_unwind(AssertUnwindSafe(|| {
                            (start..end).map(&f).collect::<Vec<R>>()
                        })) {
                            Ok(v) => local.push((c, v)),
                            Err(payload) => {
                                poisoned.store(true, Ordering::Release);
                                return Err(payload);
                            }
                        }
                    }
                    Ok(local)
                })
            })
            .collect();
        for h in handles {
            match h.join().expect("worker caught its own panics") {
                Ok(mut local) => pieces.append(&mut local),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
    });
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    pieces.sort_unstable_by_key(|&(c, _)| c);
    let mut out = Vec::with_capacity(len);
    for (_, mut piece) in pieces {
        out.append(&mut piece);
    }
    debug_assert_eq!(out.len(), len);
    out
}

/// Parallel map over `0..len` followed by a **serial, index-ordered**
/// reduction: `fold(identity, [f(0), …, f(len-1)])`.
///
/// Because the fold runs on the calling thread over the already-ordered
/// mapped values, a non-associative `reduce` (f32/f64 addition) produces the
/// same bits as the serial loop for every worker count.
pub fn par_map_reduce<R: Send, A>(
    len: usize,
    f: impl Fn(usize) -> R + Sync,
    identity: A,
    mut reduce: impl FnMut(A, R) -> A,
) -> A {
    par_map_indexed(len, f).into_iter().fold(identity, &mut reduce)
}

/// Applies `f(chunk_index, chunk)` to consecutive `chunk_size` slices of
/// `data` in parallel (the final chunk may be shorter), exactly like a
/// serial `data.chunks_mut(chunk_size).enumerate()` loop.
///
/// Runs of consecutive chunks — disjoint `&mut` borrows, about four runs per
/// worker — are handed to workers through a queue, so no synchronization
/// touches the data itself and a short chunk costs no lock round-trip of its
/// own. With one worker, or when the input fits in a single chunk, the
/// serial loop runs in place.
///
/// # Panics
///
/// Panics if `chunk_size == 0`; re-raises the first task panic on the
/// calling thread after all workers have stopped.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_size: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_size > 0, "chunk_size must be positive");
    let workers = current_threads();
    if workers <= 1 || data.len() <= chunk_size {
        for (i, chunk) in data.chunks_mut(chunk_size).enumerate() {
            f(i, chunk);
        }
        return;
    }
    // About four runs per worker, as `par_map_indexed` chunks its items.
    let num_chunks = data.len().div_ceil(chunk_size);
    let run_len = num_chunks.div_ceil(workers * 4);
    let spawn = workers.min(num_chunks.div_ceil(run_len));
    let queue = Mutex::new(data.chunks_mut(chunk_size * run_len).enumerate());
    let poisoned = AtomicBool::new(false);

    let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
    scope(|s| {
        let handles: Vec<_> = (0..spawn)
            .map(|_| {
                s.spawn(|| -> Result<(), Box<dyn std::any::Any + Send>> {
                    loop {
                        if poisoned.load(Ordering::Acquire) {
                            return Ok(());
                        }
                        // Hold the lock only to claim the next chunk.
                        let item = {
                            let mut iter = queue.lock().unwrap_or_else(|e| e.into_inner());
                            iter.next()
                        };
                        let Some((r, run)) = item else { return Ok(()) };
                        let chunks = run.chunks_mut(chunk_size).enumerate();
                        let each = || chunks.for_each(|(k, chunk)| f(r * run_len + k, chunk));
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(each)) {
                            poisoned.store(true, Ordering::Release);
                            return Err(payload);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            if let Err(payload) = h.join().expect("worker caught its own panics") {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    });
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_index_order() {
        for workers in [1, 2, 3, 4, 8] {
            let out = with_threads(workers, || par_map_indexed(100, |i| i * 3));
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    #[test]
    fn map_empty_and_singleton() {
        let empty: Vec<usize> = with_threads(4, || par_map_indexed(0, |i| i));
        assert!(empty.is_empty());
        let one = with_threads(4, || par_map_indexed(1, |i| i + 41));
        assert_eq!(one, vec![41]);
    }

    #[test]
    fn reduce_is_bit_stable_across_worker_counts() {
        // Sums whose f32 result depends on accumulation order.
        let term = |i: usize| if i % 2 == 0 { 1e7f32 } else { 1e-3f32 };
        let serial: f32 = (0..1000).map(term).fold(0.0, |a, b| a + b);
        for workers in [2, 4, 8] {
            let parallel =
                with_threads(workers, || par_map_reduce(1000, term, 0.0f32, |a, b| a + b));
            assert_eq!(parallel.to_bits(), serial.to_bits(), "workers={workers}");
        }
    }

    #[test]
    fn chunks_mut_matches_serial_loop() {
        let mut serial: Vec<u64> = (0..97).collect();
        for (i, c) in serial.chunks_mut(10).enumerate() {
            for v in c.iter_mut() {
                *v = *v * 2 + i as u64;
            }
        }
        for workers in [2, 4, 8] {
            let mut parallel: Vec<u64> = (0..97).collect();
            with_threads(workers, || {
                par_chunks_mut(&mut parallel, 10, |i, c| {
                    for v in c.iter_mut() {
                        *v = *v * 2 + i as u64;
                    }
                });
            });
            assert_eq!(parallel, serial, "workers={workers}");
        }
    }

    #[test]
    fn chunks_mut_empty_input() {
        let mut empty: [u8; 0] = [];
        with_threads(4, || par_chunks_mut(&mut empty, 5, |_, _| panic!("no chunks exist")));
    }

    #[test]
    #[should_panic(expected = "chunk_size must be positive")]
    fn chunks_mut_rejects_zero_chunk() {
        let mut data = [1u8, 2];
        par_chunks_mut(&mut data, 0, |_, _| {});
    }

    #[test]
    fn with_threads_nests_and_restores() {
        let outer = current_threads();
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(7, || assert_eq!(current_threads(), 7));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = current_threads();
        let result = catch_unwind(|| with_threads(5, || panic!("inner")));
        assert!(result.is_err());
        assert_eq!(current_threads(), before);
    }

    #[test]
    #[should_panic(expected = "worker count must be at least 1")]
    fn with_threads_rejects_zero() {
        with_threads(0, || {});
    }

    #[test]
    fn beneficial_gates_on_both_axes() {
        with_threads(1, || assert!(!beneficial(usize::MAX)));
        with_threads(4, || {
            assert!(!beneficial(MIN_PARALLEL_WORK - 1));
            assert!(beneficial(MIN_PARALLEL_WORK));
        });
    }

    #[test]
    fn map_panic_propagates_with_payload() {
        let result = catch_unwind(|| {
            with_threads(4, || {
                par_map_indexed(64, |i| if i == 37 { panic!("task 37 failed") } else { i })
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<&str>().expect("str payload");
        assert_eq!(*msg, "task 37 failed");
    }

    #[test]
    fn chunks_mut_panic_propagates() {
        let mut data = vec![0u32; 64];
        let result = catch_unwind(AssertUnwindSafe(|| {
            with_threads(4, || {
                par_chunks_mut(&mut data, 4, |i, _| {
                    assert!(i != 7, "chunk 7 poisoned");
                });
            });
        }));
        assert!(result.is_err());
    }
}
