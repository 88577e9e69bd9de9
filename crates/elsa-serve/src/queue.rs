//! The bounded, length-bucketed admission queue.
//!
//! Requests wait here between arrival and batch dispatch. The queue is a
//! set of per-bucket FIFOs (one per length bucket of the
//! [`BatchPolicy`](crate::batcher::BatchPolicy)) under a single shared
//! capacity bound; when the bound is hit, the configured [`Backpressure`]
//! policy decides who pays — the arriving request, the oldest waiter, or
//! nobody (the batcher is forced to dispatch early and make room).
//!
//! The queue itself is pure data structure: it never sheds or dispatches on
//! its own. The event loop in [`engine`](crate::engine) owns those
//! decisions, which keeps every policy choice in one audited place.

use std::collections::VecDeque;

/// What to do with a new arrival when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backpressure {
    /// Never shed: force the batcher to dispatch the bucket holding the
    /// oldest waiter immediately, freeing room for the arrival.
    Block,
    /// Shed the arriving request (tail drop).
    ShedNewest,
    /// Shed the oldest queued request to admit the arrival (head drop —
    /// the oldest waiter is the most likely to miss its deadline anyway).
    ShedOldest,
}

/// One request waiting in the admission queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedRequest {
    /// Trace id of the request (its arrival-order index).
    pub id: usize,
    /// Arrival instant on the virtual clock.
    pub arrival_ns: u64,
    /// Absolute completion deadline, if any.
    pub deadline_ns: Option<u64>,
    /// Real sequence length of the request.
    pub n_real: usize,
    /// Length bucket the request was routed to.
    pub bucket: usize,
}

/// Per-bucket FIFOs under one shared capacity bound.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    capacity: Option<usize>,
    buckets: Vec<VecDeque<QueuedRequest>>,
    len: usize,
}

impl AdmissionQueue {
    /// An empty queue with `num_buckets` FIFOs and an optional shared
    /// capacity (`None` = unbounded).
    ///
    /// # Panics
    ///
    /// Panics on zero buckets or a zero capacity (a queue that can hold
    /// nothing cannot admit anything).
    #[must_use]
    pub fn new(num_buckets: usize, capacity: Option<usize>) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        assert!(capacity != Some(0), "capacity 0 cannot admit any request");
        Self { capacity, buckets: vec![VecDeque::new(); num_buckets], len: 0 }
    }

    /// Total queued requests across all buckets.
    #[must_use]
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether no request is queued.
    #[must_use]
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the shared capacity bound is reached.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.capacity.is_some_and(|c| self.len >= c)
    }

    /// Queued requests in one bucket.
    #[must_use]
    pub fn bucket_len(&self, bucket: usize) -> usize {
        self.buckets[bucket].len()
    }

    /// Enqueues a request at the tail of its bucket.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — the event loop must apply its
    /// [`Backpressure`] policy *before* pushing.
    pub fn push(&mut self, request: QueuedRequest) {
        assert!(!self.is_full(), "push into a full queue: apply backpressure first");
        self.buckets[request.bucket].push_back(request);
        self.len += 1;
    }

    /// The bucket holding the globally oldest request (ties broken by the
    /// lower request id, which is unique).
    #[must_use]
    pub fn oldest_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, q)| q.front().map(|r| (r.arrival_ns, r.id, b)))
            .min()
            .map(|(_, _, b)| b)
    }

    /// Removes and returns the globally oldest request.
    pub fn pop_oldest(&mut self) -> Option<QueuedRequest> {
        let bucket = self.oldest_bucket()?;
        let request = self.buckets[bucket].pop_front();
        if request.is_some() {
            self.len -= 1;
        }
        request
    }

    /// Removes up to `max` requests from the front of a bucket (the batch).
    pub fn drain_bucket(&mut self, bucket: usize, max: usize) -> Vec<QueuedRequest> {
        let take = self.buckets[bucket].len().min(max);
        self.len -= take;
        self.buckets[bucket].drain(..take).collect()
    }

    /// Iterates every queued request, bucket by bucket (FIFO order within
    /// each bucket) — a read-only view for load accounting.
    pub fn iter(&self) -> impl Iterator<Item = &QueuedRequest> {
        self.buckets.iter().flatten()
    }

    /// The earliest batching expiry across buckets: `(arrival of the
    /// bucket's oldest waiter + max_wait_ns, bucket)`, minimized over
    /// non-empty buckets (ties to the lower bucket index). `None` when the
    /// queue is empty.
    #[must_use]
    pub fn earliest_expiry(&self, max_wait_ns: u64) -> Option<(u64, usize)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(b, q)| {
                q.front().map(|r| (r.arrival_ns.saturating_add(max_wait_ns), b))
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: usize, arrival_ns: u64, bucket: usize) -> QueuedRequest {
        QueuedRequest { id, arrival_ns, deadline_ns: None, n_real: 8, bucket }
    }

    #[test]
    fn fifo_within_a_bucket() {
        let mut q = AdmissionQueue::new(2, None);
        q.push(req(0, 10, 0));
        q.push(req(1, 20, 0));
        q.push(req(2, 30, 1));
        assert_eq!(q.len(), 3);
        let batch = q.drain_bucket(0, 8);
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn capacity_is_shared_across_buckets() {
        let mut q = AdmissionQueue::new(3, Some(2));
        q.push(req(0, 0, 0));
        assert!(!q.is_full());
        q.push(req(1, 0, 2));
        assert!(q.is_full());
    }

    #[test]
    #[should_panic(expected = "apply backpressure")]
    fn push_into_full_queue_panics() {
        let mut q = AdmissionQueue::new(1, Some(1));
        q.push(req(0, 0, 0));
        q.push(req(1, 1, 0));
    }

    #[test]
    fn oldest_is_global_across_buckets() {
        let mut q = AdmissionQueue::new(2, None);
        q.push(req(0, 50, 1));
        q.push(req(1, 10, 0));
        assert_eq!(q.oldest_bucket(), Some(0));
        assert_eq!(q.pop_oldest().map(|r| r.id), Some(1));
        assert_eq!(q.pop_oldest().map(|r| r.id), Some(0));
        assert_eq!(q.pop_oldest(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn oldest_ties_break_by_id() {
        let mut q = AdmissionQueue::new(2, None);
        q.push(req(7, 10, 1));
        q.push(req(3, 10, 0));
        // Same arrival instant: the lower id (earlier in trace order) wins,
        // regardless of bucket index.
        assert_eq!(q.pop_oldest().map(|r| r.id), Some(3));
    }

    #[test]
    fn earliest_expiry_tracks_bucket_heads() {
        let mut q = AdmissionQueue::new(2, None);
        assert_eq!(q.earliest_expiry(100), None);
        q.push(req(0, 50, 1));
        q.push(req(1, 30, 0));
        assert_eq!(q.earliest_expiry(100), Some((130, 0)));
        let _ = q.drain_bucket(0, 1);
        assert_eq!(q.earliest_expiry(100), Some((150, 1)));
    }
}
