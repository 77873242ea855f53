//! High-level matcher API.
//!
//! [`GupMatcher`] ties the pipeline together: build the GCS once, then run one or more
//! searches over it (sequentially or in parallel). For one-shot use there are the
//! convenience functions [`find_embeddings`] and [`count_embeddings`].

use crate::config::GupConfig;
use crate::gcs::{Gcs, GupError};
use crate::search::{SearchEngine, SearchOutcome};
use crate::stats::{MemoryReport, SearchStats};
use gup_graph::sink::{CountOnly, EmbeddingSink, SinkControl};
use gup_graph::{Graph, PreparedData, VertexId};

/// Result of a matching run.
#[derive(Clone, Debug, Default)]
pub struct MatchResult {
    /// Found embeddings, expressed over the *original* query-vertex ids: entry `u` of
    /// an embedding is the data vertex assigned to query vertex `u`. Populated only
    /// when the configuration requests embedding collection.
    pub embeddings: Vec<Vec<VertexId>>,
    /// Search counters.
    pub stats: SearchStats,
}

impl MatchResult {
    /// Number of embeddings found (whether or not they were materialized).
    pub fn embedding_count(&self) -> u64 {
        self.stats.embeddings
    }
}

/// A GuP matcher instance: a guarded candidate space plus its configuration,
/// generic over the query-vertex bitset width `W` (`W = 1`, queries of at most 64
/// vertices, is the default fast path; the session layer auto-dispatches to the
/// narrowest sufficient width).
pub struct GupMatcher<const W: usize = 1> {
    gcs: Gcs<W>,
    config: GupConfig,
    /// Size of the shared prepared index this matcher was built against, surfaced in
    /// the memory report (paid once per session, not per query).
    prepared_index_bytes: usize,
}

impl<const W: usize> GupMatcher<W> {
    /// Builds the matcher for `query` against `data`: prepares a private index of
    /// `data` and builds through [`GupMatcher::with_prepared`]. Batched workloads
    /// should prepare once — see [`crate::session`].
    pub fn new(query: &Graph, data: &Graph, config: GupConfig) -> Result<Self, GupError> {
        Self::with_prepared(query, &PreparedData::from_graph(data), config)
    }

    /// Builds the matcher (GCS construction + reservation-guard generation) for
    /// `query` against a prepared data graph: candidate filtering runs against the
    /// precomputed signature arena, and nothing per-data-graph is rebuilt.
    pub fn with_prepared(
        query: &Graph,
        prepared: &PreparedData,
        config: GupConfig,
    ) -> Result<Self, GupError> {
        let gcs = Gcs::build_prepared(query, prepared, &config)?;
        Ok(GupMatcher {
            gcs,
            config,
            prepared_index_bytes: prepared.index_bytes(),
        })
    }

    /// The underlying guarded candidate space.
    pub fn gcs(&self) -> &Gcs<W> {
        &self.gcs
    }

    /// The active configuration.
    pub fn config(&self) -> &GupConfig {
        &self.config
    }

    /// Runs the sequential guarded backtracking search.
    pub fn run(&self) -> MatchResult {
        let outcome = SearchEngine::new(&self.gcs, &self.config).run();
        self.finish_result(outcome)
    }

    /// Runs the sequential search, streaming every embedding into `sink` over the
    /// *original* query-vertex ids (unlike the matching-order ids the raw
    /// [`SearchEngine`] reports). The sink's capacity is folded into the embedding
    /// limit and a [`SinkControl::Stop`] ends the search immediately, so the search
    /// performs no more work than the output demands: a counting sink materializes
    /// nothing, a `FirstK` sink stops after `k` matches.
    ///
    /// ```
    /// use gup::{GupConfig, GupMatcher};
    /// use gup::sink::{CountOnly, FirstK};
    /// use gup_graph::fixtures::paper_example;
    ///
    /// let (query, data) = paper_example();
    /// let matcher = GupMatcher::<1>::new(&query, &data, GupConfig::default()).unwrap();
    ///
    /// let mut count = CountOnly::new();
    /// let stats = matcher.run_with_sink(&mut count);
    /// assert_eq!(count.count(), 4);
    /// assert_eq!(stats.embeddings, 4);
    ///
    /// let mut first = FirstK::new(2);
    /// matcher.run_with_sink(&mut first);
    /// assert_eq!(first.embeddings().len(), 2);
    /// ```
    pub fn run_with_sink(&self, sink: &mut dyn EmbeddingSink) -> SearchStats {
        let mut translate = OriginalIdSink::new(&self.gcs, sink);
        SearchEngine::new(&self.gcs, &self.config).run_with_sink(&mut translate)
    }

    /// Parallel counterpart of [`GupMatcher::run_with_sink`]: runs on `threads`
    /// workers, each streaming into a worker-local buffer, and delivers the merged
    /// embeddings to `sink` in worker-index order (original query-vertex ids). The
    /// embedding count delivered is schedule-independent; under a limit (or a
    /// `FirstK` capacity) exactly `min(limit, total)` embeddings are delivered.
    pub fn run_parallel_with_sink(
        &self,
        threads: usize,
        sink: &mut dyn EmbeddingSink,
    ) -> SearchStats {
        if threads <= 1 {
            return self.run_with_sink(sink);
        }
        let mut translate = OriginalIdSink::new(&self.gcs, sink);
        crate::parallel::run_parallel_with_sink(&self.gcs, &self.config, threads, &mut translate)
    }

    /// Counts the embeddings without materializing any of them (the cheapest output
    /// mode: no per-embedding allocation or translation happens anywhere).
    pub fn count(&self) -> u64 {
        let mut sink = CountOnly::new();
        self.run_with_sink(&mut sink);
        sink.count()
    }

    /// Runs the search and also returns the memory breakdown of the GCS including the
    /// nogood guards accumulated during the search (Table 3 of the paper).
    pub fn run_with_memory_report(&self) -> (MatchResult, MemoryReport) {
        let (outcome, nv, ne) = SearchEngine::new(&self.gcs, &self.config).run_with_guards();
        let mut report = self.gcs.memory_report(Some(&nv), Some(&ne));
        report.prepared_index_bytes = self.prepared_index_bytes;
        (self.finish_result(outcome), report)
    }

    /// Runs the search on `threads` worker threads with recursive subtree splitting
    /// and work stealing (§3.5.2). Exact: reports the same embedding count as
    /// [`GupMatcher::run`]; with `threads <= 1` it *is* the sequential run. All
    /// workers sample the configuration's one absolute deadline, and the embedding
    /// limit is reserved atomically so the merged result never overshoots it.
    /// Steal/split activity is visible in [`SearchStats::tasks_executed`],
    /// [`SearchStats::frames_split`], and [`SearchStats::tasks_stolen`].
    pub fn run_parallel(&self, threads: usize) -> MatchResult {
        if threads <= 1 {
            return self.run();
        }
        let outcome = crate::parallel::run_parallel(&self.gcs, &self.config, threads);
        self.finish_result(outcome)
    }

    fn finish_result(&self, outcome: SearchOutcome) -> MatchResult {
        let embeddings = outcome
            .embeddings
            .iter()
            .map(|e| self.gcs.embedding_in_original_ids(e))
            .collect();
        MatchResult {
            embeddings,
            stats: outcome.stats,
        }
    }
}

/// Wraps a user sink so that embeddings reported by the engine (matching-order ids)
/// arrive at the user sink in original query-vertex numbering. The translation
/// reuses one scratch buffer across reports (no per-embedding allocation) and is
/// skipped entirely for sinks that never look at embedding contents.
struct OriginalIdSink<'g, 's, const W: usize> {
    gcs: &'g Gcs<W>,
    inner: &'s mut dyn EmbeddingSink,
    scratch: Vec<VertexId>,
}

impl<'g, 's, const W: usize> OriginalIdSink<'g, 's, W> {
    fn new(gcs: &'g Gcs<W>, inner: &'s mut dyn EmbeddingSink) -> Self {
        OriginalIdSink {
            gcs,
            inner,
            scratch: Vec::new(),
        }
    }
}

impl<const W: usize> EmbeddingSink for OriginalIdSink<'_, '_, W> {
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl {
        if self.inner.wants_embeddings() {
            self.gcs
                .embedding_in_original_ids_into(embedding, &mut self.scratch);
            self.inner.report(&self.scratch)
        } else {
            self.inner.report(embedding)
        }
    }

    fn wants_embeddings(&self) -> bool {
        self.inner.wants_embeddings()
    }

    fn capacity(&self) -> Option<u64> {
        self.inner.capacity()
    }

    fn may_stop(&self) -> bool {
        self.inner.may_stop()
    }

    fn report_count(&mut self, n: u64) -> SinkControl {
        self.inner.report_count(n)
    }
}

/// One-shot convenience: finds (and materializes) all embeddings of `query` in `data`
/// under the default configuration, with no embedding cap. Auto-dispatches to the
/// narrowest bitset width that fits the query (≤64-vertex queries run the one-word
/// fast path).
pub fn find_embeddings(query: &Graph, data: &Graph) -> Result<MatchResult, GupError> {
    let config = GupConfig {
        collect_embeddings: true,
        limits: crate::SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    crate::with_qv_width!(query.vertex_count(), W, {
        Ok(GupMatcher::<W>::new(query, data, config)?.run())
    })
}

/// One-shot convenience: counts all embeddings of `query` in `data` (no cap, nothing
/// materialized — the count streams through a [`CountOnly`] sink). Auto-dispatches
/// on query width like [`find_embeddings`].
pub fn count_embeddings(query: &Graph, data: &Graph) -> Result<u64, GupError> {
    let config = GupConfig {
        collect_embeddings: false,
        limits: crate::SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    crate::with_qv_width!(query.vertex_count(), W, {
        Ok(GupMatcher::<W>::new(query, data, config)?.count())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchLimits;
    use gup_graph::fixtures;

    #[test]
    fn find_embeddings_returns_original_id_mappings() {
        let (q, d) = fixtures::paper_example();
        let result = find_embeddings(&q, &d).unwrap();
        assert!(result.embedding_count() >= 1);
        assert_eq!(result.embeddings.len() as u64, result.embedding_count());
        for emb in &result.embeddings {
            assert_eq!(emb.len(), q.vertex_count());
            for u in q.vertices() {
                assert_eq!(q.label(u), d.label(emb[u as usize]));
            }
            for (a, b) in q.edges() {
                assert!(d.has_edge(emb[a as usize], emb[b as usize]));
            }
        }
    }

    #[test]
    fn count_matches_find() {
        let q = fixtures::triangle_query();
        let d = fixtures::square_with_diagonal();
        let count = count_embeddings(&q, &d).unwrap();
        let found = find_embeddings(&q, &d).unwrap();
        assert_eq!(count, found.embeddings.len() as u64);
        assert_eq!(count, 4);
    }

    #[test]
    fn matcher_reuse_is_deterministic() {
        let (q, d) = fixtures::paper_example();
        let matcher = GupMatcher::<1>::new(&q, &d, GupConfig::default()).unwrap();
        let a = matcher.run();
        let b = matcher.run();
        assert_eq!(a.stats.embeddings, b.stats.embeddings);
        assert_eq!(a.stats.recursions, b.stats.recursions);
    }

    #[test]
    fn memory_report_accounts_for_guards() {
        let (q, d) = fixtures::paper_example();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::new(&q, &d, cfg).unwrap();
        let (result, report) = matcher.run_with_memory_report();
        assert!(result.embedding_count() >= 1);
        assert!(report.candidate_space_bytes > 0);
        assert!(report.reservation_bytes > 0);
        assert!(report.guard_share_percent() > 0.0);
        assert!(report.guard_share_percent() < 100.0);
    }

    #[test]
    fn invalid_query_is_reported() {
        let (_q, d) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        assert!(GupMatcher::<1>::new(&disconnected, &d, GupConfig::default()).is_err());
    }

    #[test]
    fn run_parallel_single_thread_equals_sequential() {
        let (q, d) = fixtures::paper_example();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::new(&q, &d, cfg).unwrap();
        assert_eq!(
            matcher.run().embedding_count(),
            matcher.run_parallel(1).embedding_count()
        );
    }
}
