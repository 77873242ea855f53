//! Streaming output sinks for embedding enumeration.
//!
//! Every matcher in the workspace — GuP's sequential and work-stealing engines as
//! well as all the baseline engines — pushes each embedding it finds into an
//! [`EmbeddingSink`] instead of unconditionally materializing a `Vec` of them. The
//! sink decides, per embedding, whether the search should continue
//! ([`SinkControl::Continue`]) or stop ([`SinkControl::Stop`]), which lets the output
//! demand drive how much work the search performs: counting allocates nothing,
//! `first k` stops the search after the `k`-th embedding, and full collection is just
//! one particular sink.
//!
//! The module lives in `gup_graph` (the substrate every engine already depends on) so
//! that GuP and the baselines share one output vocabulary; `gup` re-exports it.
//!
//! Embeddings are reported as slices borrowed from the engine's internal assignment
//! state: a sink that wants to keep one must copy it (`emb.to_vec()`), and a sink
//! that only counts touches nothing and costs nothing. Engine-level sinks
//! (`SearchEngine`, `run_parallel_with_sink`) receive embeddings over the *matching
//! order* vertex numbering; matcher-level sinks (`GupMatcher::run_with_sink` and the
//! baseline `run_with_sink` methods) receive them over the *original* query-vertex
//! numbering.
//!
//! # Examples
//!
//! Counting without materializing:
//!
//! ```
//! use gup_graph::sink::{CountOnly, EmbeddingSink, SinkControl};
//!
//! let mut sink = CountOnly::new();
//! assert_eq!(sink.report(&[0, 1, 2]), SinkControl::Continue);
//! assert_eq!(sink.report(&[2, 1, 0]), SinkControl::Continue);
//! assert_eq!(sink.count(), 2);
//! // Counting sinks tell drivers they never look at the vertices, so drivers can
//! // skip embedding translation entirely.
//! assert!(!sink.wants_embeddings());
//! ```
//!
//! Stopping after the first `k` matches:
//!
//! ```
//! use gup_graph::sink::{EmbeddingSink, FirstK, SinkControl};
//!
//! let mut sink = FirstK::new(2);
//! assert_eq!(sink.capacity(), Some(2));
//! assert_eq!(sink.report(&[0, 1]), SinkControl::Continue);
//! assert_eq!(sink.report(&[1, 0]), SinkControl::Stop); // full: the search can quit
//! assert_eq!(sink.report(&[2, 3]), SinkControl::Stop); // extra reports are ignored
//! assert_eq!(sink.into_embeddings(), vec![vec![0, 1], vec![1, 0]]);
//! ```
//!
//! Arbitrary streaming logic without buffering:
//!
//! ```
//! use gup_graph::sink::{CallbackSink, EmbeddingSink, SinkControl};
//!
//! let mut seen_v7 = false;
//! let mut sink = CallbackSink::new(|emb: &[u32]| {
//!     if emb.contains(&7) {
//!         seen_v7 = true;
//!         SinkControl::Stop // found what we were looking for
//!     } else {
//!         SinkControl::Continue
//!     }
//! });
//! sink.report(&[1, 2]);
//! assert_eq!(sink.report(&[7, 2]), SinkControl::Stop);
//! assert_eq!(sink.reported(), 2);
//! drop(sink);
//! assert!(seen_v7);
//! ```

use crate::types::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tells the search whether to keep going after an embedding was reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SinkControl {
    /// Keep searching.
    Continue,
    /// The sink needs nothing further; the search should terminate.
    Stop,
}

/// A consumer of embeddings, driven by the search as matches are found.
///
/// Implementations decide what to retain (nothing, the first `k`, everything, a
/// running aggregate, …) and when the search may stop early. See the
/// [module docs](self) for the built-in sinks and examples.
pub trait EmbeddingSink {
    /// Called once per embedding found. `embedding[u]` is the data vertex assigned to
    /// query vertex `u`; the slice is only valid for the duration of the call — copy
    /// it if it must outlive the report.
    ///
    /// A [`SinkControl::Stop`] is honored immediately by every sequential engine. A
    /// parallel driver honors it live when the sink declares it may happen — via
    /// [`EmbeddingSink::capacity`] (folded into the shared embedding-limit
    /// reservation) or [`EmbeddingSink::may_stop`] (reports are then serialized
    /// through the caller's sink as they are found); otherwise workers buffer
    /// locally and the sink sees the reports after the run, in worker-index order.
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl;

    /// Whether this sink inspects embedding contents. Counting sinks return `false`,
    /// which lets drivers skip materialization and id-translation work entirely; the
    /// slice passed to [`EmbeddingSink::report`] is then unspecified (but still a
    /// valid slice).
    fn wants_embeddings(&self) -> bool {
        true
    }

    /// Upper bound on the number of embeddings this sink will accept (`None` =
    /// unbounded). Drivers fold this into the embedding-limit reservation so that
    /// parallel workers stop producing once the sink is satisfied.
    fn capacity(&self) -> Option<u64> {
        None
    }

    /// Whether [`EmbeddingSink::report`] may return [`SinkControl::Stop`] *before*
    /// [`EmbeddingSink::capacity`] is exhausted — streaming sinks that decide on
    /// the fly, like [`CallbackSink`]. Parallel drivers run such sinks on the
    /// sequential engine so every report reaches the sink live and the stop takes
    /// effect immediately, with nothing buffered. Sinks that stop only when their
    /// capacity fills (like [`FirstK`]) and pure accumulators keep the default
    /// `false`.
    fn may_stop(&self) -> bool {
        false
    }

    /// Bulk equivalent of `n` [`EmbeddingSink::report`] calls with unspecified
    /// slices — only meaningful for sinks whose
    /// [`wants_embeddings`](EmbeddingSink::wants_embeddings) is `false`; parallel
    /// drivers use it to hand a counting sink the whole merged total at once.
    /// Counting sinks override it to O(1).
    fn report_count(&mut self, n: u64) -> SinkControl {
        for _ in 0..n {
            if self.report(&[]) == SinkControl::Stop {
                return SinkControl::Stop;
            }
        }
        SinkControl::Continue
    }
}

/// Counts embeddings without looking at them. Performs no allocation per report.
#[derive(Clone, Debug, Default)]
pub struct CountOnly {
    count: u64,
}

impl CountOnly {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        CountOnly::default()
    }

    /// Number of embeddings reported so far.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl EmbeddingSink for CountOnly {
    // The whole point of a counting sink is that reporting costs nothing: the
    // report paths are statically pinned allocation-free here and dynamically
    // by the counting-allocator test in `tests/sink_alloc.rs`.
    // gup-lint: region(no_alloc)
    fn report(&mut self, _embedding: &[VertexId]) -> SinkControl {
        self.count += 1;
        SinkControl::Continue
    }

    fn wants_embeddings(&self) -> bool {
        false
    }

    fn report_count(&mut self, n: u64) -> SinkControl {
        self.count += n;
        SinkControl::Continue
    }
    // gup-lint: end_region
}

/// Keeps the first `k` embeddings and stops the search once it has them.
#[derive(Clone, Debug)]
pub struct FirstK {
    k: u64,
    embeddings: Vec<Vec<VertexId>>,
}

impl FirstK {
    /// A sink that retains at most `k` embeddings.
    pub fn new(k: u64) -> Self {
        FirstK {
            k,
            embeddings: Vec::with_capacity(k.min(1024) as usize),
        }
    }

    /// `true` once `k` embeddings have been retained.
    pub fn is_full(&self) -> bool {
        self.embeddings.len() as u64 >= self.k
    }

    /// The retained embeddings (at most `k`).
    pub fn embeddings(&self) -> &[Vec<VertexId>] {
        &self.embeddings
    }

    /// Consumes the sink, yielding the retained embeddings.
    pub fn into_embeddings(self) -> Vec<Vec<VertexId>> {
        self.embeddings
    }
}

impl EmbeddingSink for FirstK {
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl {
        if !self.is_full() {
            self.embeddings.push(embedding.to_vec());
        }
        if self.is_full() {
            SinkControl::Stop
        } else {
            SinkControl::Continue
        }
    }

    fn capacity(&self) -> Option<u64> {
        Some(self.k)
    }
}

/// Collects every reported embedding.
#[derive(Clone, Debug, Default)]
pub struct CollectAll {
    embeddings: Vec<Vec<VertexId>>,
}

impl CollectAll {
    /// An empty collector.
    pub fn new() -> Self {
        CollectAll::default()
    }

    /// Number of embeddings collected so far.
    pub fn len(&self) -> usize {
        self.embeddings.len()
    }

    /// `true` when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.embeddings.is_empty()
    }

    /// The collected embeddings.
    pub fn embeddings(&self) -> &[Vec<VertexId>] {
        &self.embeddings
    }

    /// Consumes the sink, yielding the collected embeddings.
    pub fn into_embeddings(self) -> Vec<Vec<VertexId>> {
        self.embeddings
    }
}

impl EmbeddingSink for CollectAll {
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl {
        self.embeddings.push(embedding.to_vec());
        SinkControl::Continue
    }
}

/// Adapts a closure into a sink: the closure is invoked per embedding and returns
/// the control decision. Nothing is buffered.
#[derive(Debug)]
pub struct CallbackSink<F: FnMut(&[VertexId]) -> SinkControl> {
    callback: F,
    reported: u64,
}

impl<F: FnMut(&[VertexId]) -> SinkControl> CallbackSink<F> {
    /// Wraps `callback` as a sink.
    pub fn new(callback: F) -> Self {
        CallbackSink {
            callback,
            reported: 0,
        }
    }

    /// Number of embeddings the callback has been invoked with.
    pub fn reported(&self) -> u64 {
        self.reported
    }
}

impl<F: FnMut(&[VertexId]) -> SinkControl> EmbeddingSink for CallbackSink<F> {
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl {
        self.reported += 1;
        (self.callback)(embedding)
    }

    fn may_stop(&self) -> bool {
        // The closure decides per report; parallel drivers must stream live so a
        // Stop takes effect during the search.
        true
    }
}

/// Reserves slots under an embedding limit — the "check before record" rule of
/// GuP's search engine and its parallel driver. (The backtracking baseline, the
/// join baseline and the brute-force oracle compare their count with the folded
/// cap inline.)
///
/// In *local* mode the caller's own count is checked against the limit. In *shared*
/// mode the reservation holds the one atomic counter of a parallel run and reserves
/// with a check-and-increment `fetch_update`, so concurrent workers can never
/// overshoot the limit and the merged result needs no post-hoc truncation.
///
/// ```
/// use gup_graph::sink::EmbeddingReservation;
///
/// let r = EmbeddingReservation::local(Some(2));
/// assert!(r.try_reserve(0));
/// assert!(r.try_reserve(1));
/// assert!(!r.try_reserve(2)); // limit exhausted
/// assert!(r.exhausted(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct EmbeddingReservation {
    shared: Option<Arc<AtomicU64>>,
    max: Option<u64>,
}

impl EmbeddingReservation {
    /// No limit at all: every reservation succeeds.
    pub fn unlimited() -> Self {
        EmbeddingReservation::default()
    }

    /// A single-consumer reservation: the caller passes its own running count to
    /// [`EmbeddingReservation::try_reserve`].
    pub fn local(max: Option<u64>) -> Self {
        EmbeddingReservation { shared: None, max }
    }

    /// A multi-consumer reservation over one shared counter (parallel runs). All
    /// workers of a run must alias the same `counter`.
    pub fn shared(counter: Arc<AtomicU64>, max: Option<u64>) -> Self {
        EmbeddingReservation {
            shared: Some(counter),
            max,
        }
    }

    /// The active limit, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Tightens the limit to `min(current, cap)` — used to fold a sink's
    /// [`EmbeddingSink::capacity`] into the search limit.
    pub fn cap(&mut self, cap: Option<u64>) {
        self.max = min_limit(self.max, cap);
    }

    /// Attempts to reserve one slot. `local_count` is the caller's count of already
    /// reserved slots (ignored in shared mode, where the atomic counter is
    /// authoritative). Returns `false` when the limit is exhausted; the caller must
    /// then not record the embedding.
    pub fn try_reserve(&self, local_count: u64) -> bool {
        match (&self.shared, self.max) {
            (Some(shared), Some(max)) => shared
                // Relaxed (both orderings): only this one location's
                // modification order matters — the RMW is atomic, so the limit
                // cannot be overshot, and no other memory is published through
                // the counter (embeddings travel through per-worker buffers
                // merged after the workers join).
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |count| {
                    (count < max).then_some(count + 1)
                })
                .is_ok(),
            (Some(shared), None) => {
                // Relaxed: counting only; atomicity of the increment suffices.
                shared.fetch_add(1, Ordering::Relaxed);
                true
            }
            (None, Some(max)) => local_count < max,
            (None, None) => true,
        }
    }

    /// `true` when the limit has been reached (never, without a limit). Cheap enough
    /// to poll from the search recursion.
    pub fn exhausted(&self, local_count: u64) -> bool {
        match (&self.shared, self.max) {
            (_, None) => false,
            // Relaxed: advisory early-exit poll. A stale read only delays the
            // stop by a few recursions; the limit itself is enforced by the
            // try_reserve RMW, which can never overshoot.
            (Some(shared), Some(max)) => shared.load(Ordering::Relaxed) >= max,
            (None, Some(max)) => local_count >= max,
        }
    }
}

/// `min` over optional limits, treating `None` as unbounded.
pub fn min_limit(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_only_counts_and_skips_content() {
        let mut sink = CountOnly::new();
        for _ in 0..5 {
            assert_eq!(sink.report(&[1, 2, 3]), SinkControl::Continue);
        }
        assert_eq!(sink.count(), 5);
        assert!(!sink.wants_embeddings());
        assert_eq!(sink.capacity(), None);
    }

    #[test]
    fn first_k_stops_exactly_at_k() {
        let mut sink = FirstK::new(3);
        assert_eq!(sink.report(&[0]), SinkControl::Continue);
        assert_eq!(sink.report(&[1]), SinkControl::Continue);
        assert_eq!(sink.report(&[2]), SinkControl::Stop);
        // Reports after saturation keep returning Stop and retain nothing.
        assert_eq!(sink.report(&[3]), SinkControl::Stop);
        assert!(sink.is_full());
        assert_eq!(sink.embeddings().len(), 3);
        assert_eq!(sink.into_embeddings(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn first_zero_accepts_nothing() {
        let mut sink = FirstK::new(0);
        assert!(sink.is_full());
        assert_eq!(sink.report(&[9]), SinkControl::Stop);
        assert!(sink.embeddings().is_empty());
    }

    #[test]
    fn collect_all_keeps_everything_in_order() {
        let mut sink = CollectAll::new();
        assert!(sink.is_empty());
        sink.report(&[4, 5]);
        sink.report(&[6, 7]);
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.embeddings(), &[vec![4, 5], vec![6, 7]]);
        assert_eq!(sink.into_embeddings().len(), 2);
    }

    #[test]
    fn callback_sink_streams_and_counts() {
        let mut sum = 0u64;
        {
            let mut sink = CallbackSink::new(|emb: &[VertexId]| {
                sum += emb.iter().map(|&v| v as u64).sum::<u64>();
                SinkControl::Continue
            });
            sink.report(&[1, 2]);
            sink.report(&[3]);
            assert_eq!(sink.reported(), 2);
        }
        assert_eq!(sum, 6);
    }

    #[test]
    fn report_count_is_bulk_for_counters_and_replays_for_others() {
        let mut count = CountOnly::new();
        assert_eq!(count.report_count(1_000_000), SinkControl::Continue);
        assert_eq!(count.count(), 1_000_000);
        // The default implementation replays single reports and honors Stop.
        let mut first = FirstK::new(2);
        assert_eq!(first.report_count(5), SinkControl::Stop);
        assert_eq!(first.embeddings().len(), 2);
    }

    #[test]
    fn may_stop_defaults() {
        // Pure accumulators never stop; closure sinks may stop at any report.
        assert!(!CountOnly::new().may_stop());
        assert!(!CollectAll::new().may_stop());
        assert!(!FirstK::new(3).may_stop());
        assert!(CallbackSink::new(|_: &[VertexId]| SinkControl::Continue).may_stop());
    }

    #[test]
    fn local_reservation_enforces_the_limit() {
        let r = EmbeddingReservation::local(Some(2));
        assert!(!r.exhausted(0));
        assert!(r.try_reserve(0));
        assert!(r.try_reserve(1));
        assert!(!r.try_reserve(2));
        assert!(r.exhausted(2));
        let unlimited = EmbeddingReservation::unlimited();
        assert!(unlimited.try_reserve(u64::MAX - 1));
        assert!(!unlimited.exhausted(u64::MAX - 1));
    }

    #[test]
    fn shared_reservation_never_overshoots() {
        let counter = Arc::new(AtomicU64::new(0));
        let r = EmbeddingReservation::shared(Arc::clone(&counter), Some(10));
        let granted: u64 = (0..25).filter(|_| r.try_reserve(0)).count() as u64;
        assert_eq!(granted, 10);
        assert_eq!(counter.load(Ordering::Relaxed), 10);
        assert!(r.exhausted(0));
    }

    #[test]
    fn shared_unlimited_reservation_still_counts() {
        let counter = Arc::new(AtomicU64::new(0));
        let r = EmbeddingReservation::shared(Arc::clone(&counter), None);
        assert!(r.try_reserve(0));
        assert!(r.try_reserve(0));
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn capacity_folding_takes_the_minimum() {
        let mut r = EmbeddingReservation::local(Some(100));
        r.cap(Some(7));
        assert_eq!(r.max(), Some(7));
        r.cap(None);
        assert_eq!(r.max(), Some(7));
        let mut open = EmbeddingReservation::unlimited();
        open.cap(Some(3));
        assert_eq!(open.max(), Some(3));
        assert_eq!(min_limit(None, None), None);
        assert_eq!(min_limit(Some(4), Some(9)), Some(4));
    }
}
