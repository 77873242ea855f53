//! High-level matcher API.
//!
//! [`GupMatcher`] ties the pipeline together: build the GCS once, then run one or more
//! searches over it (sequentially or in parallel). Like every engine, it has one
//! constructor, [`GupMatcher::with_prepared`], and it takes a `&PreparedData`:
//! prepare the data graph once and build every matcher on that index. Every run
//! streams its embeddings, over the original query-vertex ids, into an
//! [`EmbeddingSink`] — a count is a [`CountOnly`] sink, all embeddings a
//! [`CollectAll`] — and returns the one [`SearchStats`] record. The one-shot helpers
//! [`find_embeddings`](crate::session::find_embeddings) and
//! [`count_embeddings`](crate::session::count_embeddings) run through a
//! [`Session`](crate::session::Session).
//!
//! [`CollectAll`]: gup_graph::sink::CollectAll

use crate::config::GupConfig;
use crate::gcs::Gcs;
use crate::search::SearchEngine;
use crate::stats::{MemoryReport, SearchStats};
use gup_graph::budget::BuildError;
use gup_graph::sink::{CountOnly, EmbeddingSink, SinkControl};
use gup_graph::{Graph, PreparedData, VertexId};

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
    /// Builds the matcher (GCS construction + reservation-guard generation) for
    /// `query` against a prepared data graph: candidate filtering runs against the
    /// precomputed signature arena, and nothing per-data-graph is rebuilt.
    pub fn with_prepared(
        query: &Graph,
        prepared: &PreparedData,
        config: GupConfig,
    ) -> Result<Self, BuildError> {
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
    /// use gup_graph::PreparedData;
    ///
    /// let (query, data) = paper_example();
    /// let prepared = PreparedData::new(data);
    /// let matcher =
    ///     GupMatcher::<1>::with_prepared(&query, &prepared, GupConfig::default()).unwrap();
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
    /// workers with recursive subtree splitting and work stealing (§3.5.2), each
    /// streaming into a worker-local buffer, and delivers the merged embeddings to
    /// `sink` in worker-index order (original query-vertex ids). Exact: the embedding
    /// count delivered is schedule-independent and equals the sequential run's; with
    /// `threads <= 1` it *is* the sequential run. All workers sample the
    /// configuration's one absolute deadline, and the embedding limit is reserved
    /// atomically, so under a limit (or a `FirstK` capacity) exactly
    /// `min(limit, total)` embeddings are delivered. Steal/split activity is visible
    /// in [`SearchStats::tasks_executed`], [`SearchStats::frames_split`], and
    /// [`SearchStats::tasks_stolen`].
    pub fn run_parallel_with_sink(
        &self,
        threads: usize,
        sink: &mut dyn EmbeddingSink,
    ) -> SearchStats {
        let mut translate = OriginalIdSink::new(&self.gcs, sink);
        crate::parallel::run_parallel_with_sink(&self.gcs, &self.config, threads, &mut translate)
    }

    /// Runs the sequential search, counting its embeddings, and also returns the
    /// memory breakdown of the GCS including the nogood guards accumulated during the
    /// search (Table 3 of the paper).
    pub fn run_with_memory_report(&self) -> (SearchStats, MemoryReport) {
        let (stats, nv, ne) =
            SearchEngine::new(&self.gcs, &self.config).run_with_guards(&mut CountOnly::new());
        let mut report = self.gcs.memory_report(&nv, &ne);
        report.prepared_index_bytes = self.prepared_index_bytes;
        (stats, report)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SearchLimits;
    use crate::session::{count_embeddings, find_embeddings};
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
        let matcher =
            GupMatcher::<1>::with_prepared(&q, &PreparedData::new(d), GupConfig::default())
                .unwrap();
        let a = matcher.run_with_sink(&mut CountOnly::new());
        let b = matcher.run_with_sink(&mut CountOnly::new());
        assert_eq!(a.embeddings, b.embeddings);
        assert_eq!(a.recursions, b.recursions);
    }

    #[test]
    fn memory_report_accounts_for_guards() {
        let (q, d) = fixtures::paper_example();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::with_prepared(&q, &PreparedData::new(d), cfg).unwrap();
        let (stats, report) = matcher.run_with_memory_report();
        assert!(stats.embeddings >= 1);
        assert!(report.candidate_space_bytes > 0);
        assert!(report.reservation_bytes > 0);
        assert!(report.guard_share_percent() > 0.0);
        assert!(report.guard_share_percent() < 100.0);
    }

    #[test]
    fn invalid_query_is_reported() {
        let (_q, d) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let prepared = PreparedData::new(d);
        assert!(
            GupMatcher::<1>::with_prepared(&disconnected, &prepared, GupConfig::default()).is_err()
        );
    }

    #[test]
    fn run_parallel_single_thread_equals_sequential() {
        let (q, d) = fixtures::paper_example();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::with_prepared(&q, &PreparedData::new(d), cfg).unwrap();
        assert_eq!(
            matcher.run_with_sink(&mut CountOnly::new()).embeddings,
            matcher
                .run_parallel_with_sink(1, &mut CountOnly::new())
                .embeddings
        );
    }
}
