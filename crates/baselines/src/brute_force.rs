//! Reference enumerator used as ground truth in tests.
//!
//! A deliberately simple recursive matcher that works straight off the data graph with
//! only the label constraint and injectivity as filters. Exponential and slow, but its
//! simplicity makes it easy to audit — every other engine in the workspace is tested
//! against it on small instances.
//!
//! The budgeted entry, [`run_with_sink`], samples the deadline through the shared
//! work-bounded [`DeadlineSampler`] (one clock read per
//! [`DEADLINE_CHECK_INTERVAL`] candidate examinations) **inside** the search, so even
//! a zero-match adversarial query (whose sink is never called) observes the budget.
//!
//! [`DEADLINE_CHECK_INTERVAL`]: gup_graph::deadline::DEADLINE_CHECK_INTERVAL

use gup_graph::budget::{SearchLimits, SearchStats};
use gup_graph::deadline::DeadlineSampler;
use gup_graph::sink::{min_limit, CollectAll, CountOnly, EmbeddingSink, SinkControl};
use gup_graph::{Graph, VertexId};

/// Enumerates every embedding of `query` in `data` and returns them sorted (each
/// embedding is the vector `emb[u] = data vertex assigned to query vertex u`).
///
/// Intended for small instances only (tests, examples); the running time is
/// `O(|V_G|^{|V_Q|})` in the worst case.
pub fn enumerate(query: &Graph, data: &Graph) -> Vec<Vec<VertexId>> {
    let mut sink = CollectAll::new();
    enumerate_with_sink(query, data, &mut sink);
    let mut out = sink.into_embeddings();
    out.sort();
    out
}

/// Counts embeddings without materializing them (streams through a [`CountOnly`]
/// sink).
pub fn count(query: &Graph, data: &Graph) -> u64 {
    let mut sink = CountOnly::new();
    enumerate_with_sink(query, data, &mut sink);
    sink.count()
}

/// Streams every embedding of `query` in `data` into `sink` (original query-vertex
/// numbering, in the oracle's deterministic enumeration order — *not* sorted). A
/// [`SinkControl::Stop`] terminates the enumeration immediately, which makes
/// `FirstK` exact against this oracle too. [`run_with_sink`] without limits.
pub fn enumerate_with_sink(query: &Graph, data: &Graph, sink: &mut dyn EmbeddingSink) {
    run_with_sink(query, data, SearchLimits::UNLIMITED, sink);
}

/// The budgeted enumeration: streams embeddings into `sink` like
/// [`enumerate_with_sink`] until the embedding cap (`limits.max_embeddings` folded
/// with the sink's capacity) is reached, the sink stops, or `limits.deadline`
/// passes — the deadline is sampled inside the search, so a stretch that reports
/// nothing (a zero-match query) is interrupted all the same. Reports the shared
/// [`SearchStats`] record (embeddings and the termination flags).
pub fn run_with_sink(
    query: &Graph,
    data: &Graph,
    limits: SearchLimits,
    sink: &mut dyn EmbeddingSink,
) -> SearchStats {
    let capacity = sink.capacity();
    let mut search = Search {
        query,
        data,
        assignment: vec![u32::MAX; query.vertex_count()],
        used: vec![false; data.vertex_count()],
        cap: min_limit(limits.max_embeddings, capacity),
        sampler: DeadlineSampler::new(limits.deadline),
        stats: SearchStats::default(),
    };
    // An already-expired deadline stops the enumeration before any work.
    if query.vertex_count() > 0 && search.cap != Some(0) && search.sampler.check().is_ok() {
        let _ = search.recurse(0, sink);
    }
    search.stats.hit_time_limit = search.sampler.expired();
    search.stats.settle_cap(limits.max_embeddings, capacity);
    search.stats
}

struct Search<'a> {
    query: &'a Graph,
    data: &'a Graph,
    assignment: Vec<VertexId>,
    used: Vec<bool>,
    cap: Option<u64>,
    sampler: DeadlineSampler,
    stats: SearchStats,
}

impl Search<'_> {
    /// Samples the deadline through the shared work-bounded [`DeadlineSampler`]:
    /// one clock read per `DEADLINE_CHECK_INTERVAL` candidate examinations, sticky
    /// once expired. Counting per *candidate* rather than per recursion keeps the
    /// gap between clock checks independent of the data-graph size (a single
    /// recursion scans every data vertex).
    fn deadline_hit(&mut self) -> bool {
        self.sampler.tick().is_err()
    }

    fn recurse(&mut self, u: usize, sink: &mut dyn EmbeddingSink) -> SinkControl {
        if u == self.query.vertex_count() {
            if self.deadline_hit() {
                return SinkControl::Stop;
            }
            self.stats.embeddings += 1;
            if sink.report(&self.assignment) == SinkControl::Stop {
                self.stats.stopped_by_sink = true;
                return SinkControl::Stop;
            }
            if self.cap.is_some_and(|cap| self.stats.embeddings >= cap) {
                return SinkControl::Stop;
            }
            return SinkControl::Continue;
        }
        for v in self.data.vertices() {
            if self.deadline_hit() {
                return SinkControl::Stop;
            }
            if self.used[v as usize] || self.data.label(v) != self.query.label(u as VertexId) {
                continue;
            }
            // Adjacency with every already-assigned neighbor.
            let ok = self.query.neighbors(u as VertexId).iter().all(|&w| {
                let w = w as usize;
                w >= u || self.data.has_edge(self.assignment[w], v)
            });
            if !ok {
                continue;
            }
            self.assignment[u] = v;
            self.used[v as usize] = true;
            let control = self.recurse(u + 1, sink);
            self.used[v as usize] = false;
            self.assignment[u] = u32::MAX;
            if control == SinkControl::Stop {
                return SinkControl::Stop;
            }
        }
        SinkControl::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;
    use std::time::{Duration, Instant};

    #[test]
    fn triangle_in_square_has_four_embeddings() {
        let found = enumerate(
            &fixtures::triangle_query(),
            &fixtures::square_with_diagonal(),
        );
        assert_eq!(found.len(), 4);
        assert_eq!(
            count(
                &fixtures::triangle_query(),
                &fixtures::square_with_diagonal()
            ),
            4
        );
        // All reported embeddings are valid and distinct.
        let mut dedup = found.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), found.len());
    }

    #[test]
    fn paper_example_contains_named_embedding() {
        let (q, d) = fixtures::paper_example();
        let found = enumerate(&q, &d);
        assert!(found.contains(&vec![1, 4, 7, 10, 0]));
    }

    #[test]
    fn no_match_when_label_absent() {
        let q = graph_from_edges(&[9], &[]);
        let d = fixtures::square_with_diagonal();
        assert!(enumerate(&q, &d).is_empty());
    }

    #[test]
    fn single_vertex_query_matches_each_label_occurrence() {
        let q = graph_from_edges(&[1], &[]);
        let d = fixtures::square_with_diagonal(); // three label-1 vertices
        assert_eq!(count(&q, &d), 3);
    }

    #[test]
    fn injectivity_is_enforced() {
        // Query: two adjacent label-0 vertices; data: a single label-0 vertex with a
        // self-loop attempt (removed by the builder) — no embedding may map both query
        // vertices to the same data vertex.
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        let d = graph_from_edges(&[0], &[]);
        assert_eq!(count(&q, &d), 0);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let q = gup_graph::GraphBuilder::new().build();
        let d = fixtures::square_with_diagonal();
        assert!(enumerate(&q, &d).is_empty());
    }

    #[test]
    fn expired_deadline_stops_before_any_work() {
        let (q, d) = fixtures::paper_example();
        let mut sink = CountOnly::new();
        let limits = SearchLimits {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..SearchLimits::UNLIMITED
        };
        let stats = run_with_sink(&q, &d, limits, &mut sink);
        assert!(stats.hit_time_limit);
        assert_eq!(sink.count(), 0);
        assert_eq!(stats.embeddings, 0);
    }

    #[test]
    fn absent_deadline_never_reports_expiry() {
        let (q, d) = fixtures::paper_example();
        let mut sink = CountOnly::new();
        let stats = run_with_sink(&q, &d, SearchLimits::UNLIMITED, &mut sink);
        assert!(!stats.terminated_early());
        assert_eq!(sink.count(), 4);
        assert_eq!(stats.embeddings, 4);
    }

    /// The regression this module exists to pin: a **zero-match** query (the sink is
    /// never called, so a between-reports check can never fire) over a search space
    /// big enough to grind for seconds must still observe the deadline from inside
    /// the recursion and return quickly.
    #[test]
    fn zero_match_search_observes_the_deadline_mid_search() {
        // 26 label-0 vertices in a clique + one label-1 pendant; the query asks for
        // a path 0-0-0-0-0-0-1 whose label-1 end exists but never adjacent where
        // needed — actually make it impossible: query needs label 9 at the end.
        let n = 26u32;
        let mut labels = vec![0u32; n as usize];
        labels.push(1);
        let mut edges = Vec::new();
        for a in 0..n {
            for b in (a + 1)..n {
                edges.push((a, b));
            }
        }
        let data = graph_from_edges(&labels, &edges);
        // Seven label-0 path vertices then an (unmatchable) label-9 tail: the clique
        // offers ~26^7 prefixes and zero complete matches.
        let query = graph_from_edges(
            &[0, 0, 0, 0, 0, 0, 0, 9],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
        );
        let limits = SearchLimits {
            deadline: Some(Instant::now() + Duration::from_millis(50)),
            ..SearchLimits::UNLIMITED
        };
        let start = Instant::now();
        let mut sink = CountOnly::new();
        let stats = run_with_sink(&query, &data, limits, &mut sink);
        let elapsed = start.elapsed();
        assert!(
            stats.hit_time_limit,
            "deadline must fire inside the zero-match search"
        );
        assert_eq!(sink.count(), 0);
        assert!(
            elapsed < Duration::from_secs(1),
            "50 ms deadline took {elapsed:?} to honor"
        );
    }
}
