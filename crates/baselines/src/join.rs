//! Edge-at-a-time join enumerator (RapidMatch stand-in).
//!
//! RapidMatch treats subgraph matching as a relational join over the query's edge
//! relations. This baseline reproduces that execution style in its simplest form:
//! query edges are processed in a connected order (always the GraphQL-style
//! order, [`OrderingStrategy::GqlStyle`]); a table of partial bindings is
//! extended edge by edge (a hash-free nested-loop join over the candidate space's
//! adjacency lists), with injectivity enforced at each step. The number of
//! intermediate bindings plays the role that recursion counts play for the
//! backtracking engines.

use gup_candidate::{CandidateSpace, FilterConfig};
use gup_graph::budget::{BuildError, SearchLimits, SearchStats};
use gup_graph::deadline::DeadlineSampler;
use gup_graph::query::OrderedQuery;
use gup_graph::sink::{min_limit, EmbeddingSink, SinkControl};
use gup_graph::{Graph, PreparedData, QueryGraph, VertexId};
use gup_order::{compute_order, OrderingStrategy};

/// The join-based baseline matcher.
pub struct JoinBaseline {
    /// The budget of the filter pass and of every run (one shared deadline).
    limits: SearchLimits,
    space: CandidateSpace,
    /// The query in join (matching) order: vertex `i` of the permuted space, its
    /// backward neighbors (all already bound when `i` is joined in), and its
    /// original id, in which embeddings are reported to sinks. The join never
    /// touches the bitset views, so it always uses the widest instantiation and
    /// thereby accepts every query size the workspace supports without width
    /// dispatch.
    query: OrderedQuery<4>,
}

impl JoinBaseline {
    /// Builds the join baseline for `query` against a prepared data graph under
    /// `limits`, which also bound every later run. The candidate filter pass honors
    /// `limits.deadline`: once it expires, construction aborts with
    /// [`BuildError::FilterTimeout`].
    pub fn with_prepared(
        query: &Graph,
        prepared: &PreparedData,
        limits: SearchLimits,
    ) -> Result<Self, BuildError> {
        let validated = QueryGraph::new(query.clone())?;
        let space = CandidateSpace::build_prepared_deadline(
            query,
            prepared,
            &FilterConfig::default(),
            limits.deadline,
        )
        .map_err(|_| BuildError::FilterTimeout)?;
        let order = compute_order(query, &space.candidate_sizes(), OrderingStrategy::GqlStyle)
            .expect("validated queries are connected, so an order always exists");
        let ordered = validated
            .with_order::<4>(&order)
            .expect("ordering strategies produce connected orders");
        Ok(JoinBaseline {
            limits,
            space: space.permuted(&order),
            query: ordered,
        })
    }

    /// Runs the join, streaming every complete binding into `sink` as an embedding
    /// over the *original* query-vertex ids (the shared [`EmbeddingSink`] protocol).
    /// The sink's capacity is folded into the embedding limit; a
    /// [`SinkControl::Stop`] ends the run.
    pub fn run_with_sink(&self, sink: &mut dyn EmbeddingSink) -> SearchStats {
        let capacity = sink.capacity();
        let mut stats = self.join(min_limit(self.limits.max_embeddings, capacity), sink);
        stats.settle_cap(self.limits.max_embeddings, capacity);
        stats
    }

    /// The join itself, stopping once `cap` embeddings were reported; the cap flags
    /// are settled by [`JoinBaseline::run_with_sink`].
    fn join(&self, cap: Option<u64>, sink: &mut dyn EmbeddingSink) -> SearchStats {
        let mut result = SearchStats::default();
        let mut sampler = DeadlineSampler::new(self.limits.deadline);
        let n = self.query.vertex_count();
        if n == 0 || self.space.any_empty() || cap == Some(0) {
            return result;
        }
        let mut scratch: Vec<VertexId> = vec![0; n];
        // Partial bindings after joining vertex 0: one per candidate.
        let mut table: Vec<Vec<u32>> = (0..self.space.candidates(0).len() as u32)
            .map(|c| vec![c])
            .collect();
        result.recursions += table.len() as u64;
        if n == 1 {
            // Single-vertex query: every candidate of vertex 0 already is a complete
            // binding; there is no edge to join.
            for binding in &table {
                result.embeddings += 1;
                if self.deliver(binding, None, sink, &mut scratch) == SinkControl::Stop {
                    result.stopped_by_sink = true;
                    return result;
                }
                if cap.is_some_and(|cap| result.embeddings >= cap) {
                    return result;
                }
            }
            return result;
        }
        for i in 1..n {
            let mut next: Vec<Vec<u32>> = Vec::new();
            let anchors = self.query.backward_neighbors(i);
            let first_anchor = anchors[0];
            'bindings: for binding in &table {
                if sampler.tick().is_err() {
                    result.hit_time_limit = true;
                    return result;
                }
                // Candidates of u_i adjacent to the first bound anchor, then checked
                // against the remaining anchors and injectivity.
                let base =
                    self.space
                        .adjacent_candidates(first_anchor, binding[first_anchor] as usize, i);
                'candidates: for &ci in base {
                    if sampler.tick().is_err() {
                        result.hit_time_limit = true;
                        return result;
                    }
                    for &a in &anchors[1..] {
                        let adj = self.space.adjacent_candidates(a, binding[a] as usize, i);
                        if adj.binary_search(&ci).is_err() {
                            continue 'candidates;
                        }
                    }
                    // Injectivity over data vertices.
                    let v = self.space.candidates(i)[ci as usize];
                    for (j, &cj) in binding.iter().enumerate() {
                        if self.space.candidates(j)[cj as usize] == v {
                            continue 'candidates;
                        }
                    }
                    result.recursions += 1;
                    if i == n - 1 {
                        result.embeddings += 1;
                        if self.deliver(binding, Some(ci), sink, &mut scratch) == SinkControl::Stop
                        {
                            result.stopped_by_sink = true;
                            break 'bindings;
                        }
                        if cap.is_some_and(|cap| result.embeddings >= cap) {
                            break 'bindings;
                        }
                    } else {
                        let mut extended = binding.clone();
                        extended.push(ci);
                        next.push(extended);
                    }
                }
            }
            if i < n - 1 {
                if next.is_empty() {
                    return result;
                }
                table = next;
            }
        }
        result
    }

    /// Translates a complete binding (plus, optionally, the final vertex's candidate
    /// index that was never pushed into the table) into original-id form in `scratch`
    /// and reports it. Translation is skipped for sinks that ignore contents.
    fn deliver(
        &self,
        binding: &[u32],
        last: Option<u32>,
        sink: &mut dyn EmbeddingSink,
        scratch: &mut [VertexId],
    ) -> SinkControl {
        if sink.wants_embeddings() {
            for (j, &cj) in binding.iter().enumerate() {
                scratch[self.query.original_id(j) as usize] = self.space.candidates(j)[cj as usize];
            }
            if let Some(ci) = last {
                let j = binding.len();
                scratch[self.query.original_id(j) as usize] = self.space.candidates(j)[ci as usize];
            }
        }
        sink.report(scratch)
    }

    /// Number of query vertices.
    pub fn query_vertex_count(&self) -> usize {
        self.query.vertex_count()
    }

    /// The candidate space the join runs over (for inspection in tests).
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;
    use gup_graph::sink::CountOnly;

    /// The join for `query` over a fresh index of `data`, with no limits.
    fn unlimited(query: &Graph, data: &Graph) -> Result<JoinBaseline, BuildError> {
        let prepared = PreparedData::new(data.clone());
        JoinBaseline::with_prepared(query, &prepared, SearchLimits::UNLIMITED)
    }

    fn check(query: &Graph, data: &Graph) {
        let expected = brute_force::count(query, data);
        let join = unlimited(query, data).unwrap();
        assert_eq!(
            join.run_with_sink(&mut CountOnly::new()).embeddings,
            expected
        );
    }

    #[test]
    fn join_agrees_with_brute_force() {
        let (q, d) = fixtures::paper_example();
        check(&q, &d);
        check(
            &fixtures::triangle_query(),
            &fixtures::square_with_diagonal(),
        );
        check(
            &fixtures::path(4, 0),
            &graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        );
        check(
            &fixtures::clique4(1),
            &graph_from_edges(
                &[1; 6],
                &[
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (1, 2),
                    (1, 3),
                    (2, 3),
                    (2, 4),
                    (3, 4),
                    (1, 4),
                ],
            ),
        );
    }

    #[test]
    fn join_counts_intermediate_results() {
        let (q, d) = fixtures::paper_example();
        let join = unlimited(&q, &d).unwrap();
        let r = join.run_with_sink(&mut CountOnly::new());
        assert!(r.recursions >= r.embeddings);
        assert!(r.recursions > 0);
    }

    #[test]
    fn join_respects_embedding_limit() {
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        let d = graph_from_edges(
            &[0; 8],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let limits = SearchLimits {
            max_embeddings: Some(5),
            ..SearchLimits::UNLIMITED
        };
        let prepared = PreparedData::new(d);
        let join = JoinBaseline::with_prepared(&q, &prepared, limits).unwrap();
        let r = join.run_with_sink(&mut CountOnly::new());
        assert_eq!(r.embeddings, 5);
        assert!(r.hit_embedding_limit);
    }

    #[test]
    fn join_rejects_invalid_queries() {
        let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let d = fixtures::square_with_diagonal();
        assert!(matches!(
            unlimited(&disconnected, &d),
            Err(BuildError::InvalidQuery(_))
        ));
    }

    #[test]
    fn join_handles_empty_candidates() {
        let q = graph_from_edges(&[9, 9], &[(0, 1)]);
        let d = fixtures::square_with_diagonal();
        let join = unlimited(&q, &d).unwrap();
        assert_eq!(join.run_with_sink(&mut CountOnly::new()).embeddings, 0);
    }
}
