//! Reference enumerator used as ground truth in tests.
//!
//! A deliberately simple recursive matcher that works straight off the data graph with
//! only the label constraint and injectivity as filters. Exponential and slow, but its
//! simplicity makes it easy to audit — every other engine in the workspace is tested
//! against it on small instances.
//!
//! The enumeration is deadline-aware: [`enumerate_with_sink_deadline`] samples the
//! clock every [`DEADLINE_CHECK_INTERVAL`] recursion steps, so even a zero-match
//! adversarial query (whose sink is never called) observes a wall-clock budget —
//! previously the deadline was only enforceable *between reported embeddings*.

use gup_graph::deadline::DeadlineSampler;
use gup_graph::sink::{CollectAll, CountOnly, EmbeddingSink, SinkControl};
use gup_graph::{Graph, VertexId};
use std::time::Instant;

/// The shared sampling cadence (re-exported so existing oracle callers keep
/// their name for it): one clock read per this many candidate examinations.
/// Counting per *candidate* rather than per recursion keeps the gap between
/// clock checks independent of the data-graph size (a single recursion scans
/// every data vertex).
pub use gup_graph::deadline::DEADLINE_CHECK_INTERVAL;

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
/// `FirstK` exact against this oracle too.
pub fn enumerate_with_sink(query: &Graph, data: &Graph, sink: &mut dyn EmbeddingSink) {
    enumerate_with_sink_deadline(query, data, sink, None);
}

/// Deadline-aware enumeration: like [`enumerate_with_sink`], but additionally stops
/// as soon as `deadline` has passed, checking the clock every
/// [`DEADLINE_CHECK_INTERVAL`] candidate examinations **inside** the search — a
/// stretch that reports nothing (a zero-match query) is interrupted all the same.
/// Returns `true` when the enumeration was cut short by the deadline.
pub fn enumerate_with_sink_deadline(
    query: &Graph,
    data: &Graph,
    sink: &mut dyn EmbeddingSink,
    deadline: Option<Instant>,
) -> bool {
    let n = query.vertex_count();
    if n == 0 {
        return false;
    }
    let mut search = Search {
        query,
        data,
        assignment: vec![u32::MAX; n],
        used: vec![false; data.vertex_count()],
        sampler: DeadlineSampler::new(deadline),
    };
    // An already-expired deadline stops the enumeration before any work.
    if search.sampler.check().is_err() {
        return true;
    }
    let _ = search.recurse(0, sink);
    search.sampler.expired()
}

struct Search<'a> {
    query: &'a Graph,
    data: &'a Graph,
    assignment: Vec<VertexId>,
    used: Vec<bool>,
    sampler: DeadlineSampler,
}

impl Search<'_> {
    /// Samples the deadline through the shared work-bounded
    /// [`DeadlineSampler`]: one clock read per [`DEADLINE_CHECK_INTERVAL`]
    /// candidate examinations, sticky once expired.
    fn deadline_hit(&mut self) -> bool {
        self.sampler.tick().is_err()
    }

    fn recurse(&mut self, u: usize, sink: &mut dyn EmbeddingSink) -> SinkControl {
        if u == self.query.vertex_count() {
            if self.deadline_hit() {
                return SinkControl::Stop;
            }
            return sink.report(&self.assignment);
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
    use std::time::Duration;

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
        let expired = enumerate_with_sink_deadline(
            &q,
            &d,
            &mut sink,
            Some(Instant::now() - Duration::from_millis(1)),
        );
        assert!(expired);
        assert_eq!(sink.count(), 0);
    }

    #[test]
    fn absent_deadline_never_reports_expiry() {
        let (q, d) = fixtures::paper_example();
        let mut sink = CountOnly::new();
        assert!(!enumerate_with_sink_deadline(&q, &d, &mut sink, None));
        assert_eq!(sink.count(), 4);
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
        let deadline = Instant::now() + Duration::from_millis(50);
        let start = Instant::now();
        let mut sink = CountOnly::new();
        let expired = enumerate_with_sink_deadline(&query, &data, &mut sink, Some(deadline));
        let elapsed = start.elapsed();
        assert!(expired, "deadline must fire inside the zero-match search");
        assert_eq!(sink.count(), 0);
        assert!(
            elapsed < Duration::from_secs(1),
            "50 ms deadline took {elapsed:?} to honor"
        );
    }
}
