//! # gup-stream
//!
//! Continuous subgraph matching over dynamic data graphs.
//!
//! A production deployment of a subgraph matcher (fraud detection, network
//! monitoring) does not run one query against one frozen graph — it registers
//! *standing queries* and feeds an *edge stream*, and wants to hear only about
//! the **new** embeddings each mutation creates. This crate is that layer, built
//! on the two pieces underneath it:
//!
//! * [`gup_graph::delta`] applies a validated [`GraphDelta`] batch to a
//!   [`PreparedData`] incrementally (no full rebuild), reporting the batch's net
//!   [`DeltaEffects`];
//! * this crate's [`ContinuousMatcher`] consumes those effects with
//!   **delta-localized search**: instead of re-running each standing query from
//!   scratch, it pins one query edge onto each net-new data edge (both
//!   orientations of every query edge) and backtracks outward from that seed —
//!   so the work per delta scales with the neighborhood the delta touched, not
//!   with the data graph.
//!
//! Every embedding that uses at least one net-new edge is found from one of
//! those seeds; embeddings that use none existed before the batch and are —
//! deliberately — never re-reported. Duplicate reports are suppressed without a
//! result set: a completion may not map any query edge onto a net-new data edge
//! with a *smaller* batch index than its seed edge, so an embedding using new
//! edges `{j1 < j2 < …}` is emitted exactly once, from seed `j1`. Deletions
//! never create embeddings (matching is monotone in the edge set), so only the
//! net insertions seed search; a standing single-vertex query matches each
//! added vertex of its label.
//!
//! Results stream through the workspace's [`EmbeddingSink`] machinery
//! ([`collect_new_matches`] takes any sink; [`ContinuousMatcher::apply`]
//! collects per standing query and feeds the session's `incremental_matches`
//! counter).
//!
//! ```
//! use gup::session::Session;
//! use gup_graph::builder::graph_from_edges;
//! use gup_graph::delta::GraphDelta;
//! use gup_stream::ContinuousMatcher;
//!
//! // A path a-b-c of labels 0-1-0, and a standing triangle query 0-1-0.
//! let data = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
//! let triangle = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
//! let mut stream = ContinuousMatcher::new(Session::new(data));
//! let ring = stream.register(&triangle).unwrap();
//!
//! // Closing the path into a triangle creates exactly the new embeddings.
//! let report = stream.apply(&[GraphDelta::AddEdge { a: 0, b: 2 }]).unwrap();
//! assert_eq!(report.total_new_matches(), 2); // the triangle, both automorphisms
//! assert_eq!(report.matches[0].query, ring);
//! ```

use gup::session::Session;
use gup_graph::algo::bfs_order;
use gup_graph::deadline::Stopwatch;
use gup_graph::delta::{DeltaEffects, DeltaError, GraphDelta};
use gup_graph::sink::{CollectAll, EmbeddingSink, SinkControl};
use gup_graph::{Graph, NlfProfile, PreparedData, QueryGraph, QueryGraphError, VertexId};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Sentinel for "query vertex not mapped yet" in the partial embedding.
const UNMAPPED: VertexId = VertexId::MAX;

/// A standing query compiled for delta-localized search: per-vertex
/// neighborhood-label-frequency requirements (the [`NlfProfile`] the batch
/// engines' filter pass checks) plus, for every (query edge, orientation) pair,
/// a BFS matching order rooted at that edge with earlier-neighbor lists.
/// Compiling once per registration keeps the per-delta cost at "backtrack from
/// the seed", with no per-batch planning.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    query: Graph,
    reqs: Vec<NlfProfile>,
    seeds: Vec<SeedOrder>,
}

/// One seed orientation: `order[0]` and `order[1]` are the query edge's
/// endpoints (pinned to the net-new data edge), the rest is the BFS order
/// ([`bfs_order`]) the two reach. `earlier[i]` lists the query-neighbors of
/// `order[i]` already placed at positions `< i` — the join constraints for
/// position `i` (non-empty for every `i >= 2` because the query is connected).
#[derive(Clone, Debug)]
struct SeedOrder {
    order: Vec<VertexId>,
    earlier: Vec<Vec<VertexId>>,
}

impl QueryPlan {
    /// Compiles `query` for continuous matching. The query must satisfy the
    /// same invariants every batch engine demands (connected, non-empty,
    /// ≤ [`gup_graph::MAX_QUERY_VERTICES`] vertices).
    pub fn new(query: &Graph) -> Result<QueryPlan, QueryGraphError> {
        // Validation only: the plan keeps the raw `Graph` (queries are tiny).
        QueryGraph::new(query.clone())?;
        let reqs = query.vertices().map(|u| NlfProfile::of(query, u)).collect();
        let mut seeds = Vec::new();
        for (a, b) in query.edges() {
            seeds.push(SeedOrder::new(query, a, b));
            seeds.push(SeedOrder::new(query, b, a));
        }
        Ok(QueryPlan {
            query: query.clone(),
            reqs,
            seeds,
        })
    }

    /// The compiled query graph.
    pub fn query(&self) -> &Graph {
        &self.query
    }
}

impl SeedOrder {
    fn new(query: &Graph, first: VertexId, second: VertexId) -> SeedOrder {
        let n = query.vertex_count();
        // The query is connected, so the BFS from the pinned edge reaches every
        // vertex and gives each one an earlier neighbor.
        let order = bfs_order(query, &[first, second]);
        let position = {
            let mut position = vec![0usize; n];
            for (i, &u) in order.iter().enumerate() {
                position[u as usize] = i;
            }
            position
        };
        let earlier = order
            .iter()
            .enumerate()
            .map(|(i, &u)| {
                if i < 2 {
                    return Vec::new();
                }
                let mut back: Vec<VertexId> = query
                    .neighbors(u)
                    .iter()
                    .copied()
                    .filter(|&w| position[w as usize] < i)
                    .collect();
                // Constraint order: earliest-placed first, so the pivot (the
                // vertex whose data-neighbors are enumerated) is the seed-most.
                back.sort_unstable_by_key(|&w| position[w as usize]);
                back
            })
            .collect();
        SeedOrder { order, earlier }
    }
}

/// Delta-localized search state for one (seed edge, standing query) pass.
struct SeedSearch<'a> {
    data: &'a Graph,
    prepared: &'a PreparedData,
    plan: &'a QueryPlan,
    /// Canonical `(lo, hi)` net-new edge → its index in the batch's insert list.
    new_edges: &'a HashMap<(VertexId, VertexId), usize>,
    /// Index of the seed edge: completions may not use a net-new edge with a
    /// smaller index (that seed already reported them).
    seed_index: usize,
    /// Partial embedding, indexed by query vertex id (`UNMAPPED` = free).
    mapping: Vec<VertexId>,
    sink: &'a mut dyn EmbeddingSink,
    reported: u64,
    stopped: bool,
}

impl SeedSearch<'_> {
    /// `true` if `v` can host query vertex `u` in the current partial mapping:
    /// label match, NLF coverage, injectivity.
    fn admissible(&self, u: VertexId, v: VertexId) -> bool {
        if self.data.label(v) != self.plan.query.label(u) {
            return false;
        }
        let req = &self.plan.reqs[u as usize];
        if !self
            .prepared
            .signature_covers(v, req.labels(), req.counts())
        {
            return false;
        }
        // Injectivity by scan: the mapping has at most MAX_QUERY_VERTICES entries.
        !self.mapping.contains(&v)
    }

    /// Extends the mapping at `order[pos..]`, reporting every completion.
    fn extend(&mut self, seed: &SeedOrder, pos: usize) {
        if self.stopped {
            return;
        }
        if pos == seed.order.len() {
            self.reported += 1;
            if self.sink.report(&self.mapping) == SinkControl::Stop {
                self.stopped = true;
            }
            return;
        }
        let u = seed.order[pos];
        let back = &seed.earlier[pos];
        let pivot = self.mapping[back[0] as usize];
        for i in 0..self.data.neighbors(pivot).len() {
            let v = self.data.neighbors(pivot)[i];
            if !self.admissible(u, v) {
                continue;
            }
            // Every back-edge must exist in the data graph, and none of the
            // data edges it lands on may be a net-new edge this pass must
            // leave to an earlier seed (smaller batch index).
            let mut ok = true;
            for (k, &w) in back.iter().enumerate() {
                let mw = self.mapping[w as usize];
                if k > 0 && !self.data.has_edge(v, mw) {
                    ok = false;
                    break;
                }
                let key = if v < mw { (v, mw) } else { (mw, v) };
                if self
                    .new_edges
                    .get(&key)
                    .is_some_and(|&j| j < self.seed_index)
                {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            self.mapping[u as usize] = v;
            self.extend(seed, pos + 1);
            self.mapping[u as usize] = UNMAPPED;
            if self.stopped {
                return;
            }
        }
    }
}

/// Streams every embedding that `effects` *newly created* for `plan` into
/// `sink`, by delta-localized search over `prepared` (the **post**-batch
/// index). Returns the number of embeddings reported; each new embedding is
/// reported exactly once, and embeddings that already existed before the batch
/// are never reported. A sink returning [`SinkControl::Stop`] stops the whole
/// pass early.
///
/// This is the sink-level entry point; [`ContinuousMatcher`] wraps it with
/// standing-query bookkeeping and session plumbing.
pub fn collect_new_matches(
    prepared: &PreparedData,
    effects: &DeltaEffects,
    plan: &QueryPlan,
    sink: &mut dyn EmbeddingSink,
) -> u64 {
    let data = prepared.graph();
    let qn = plan.query.vertex_count();
    if qn == 1 {
        // No edges to seed from: a single-vertex standing query gains exactly
        // the added vertices of its label (its NLF requirement is empty).
        let want = plan.query.label(0);
        let mut reported = 0u64;
        for v in effects.new_vertices() {
            if (v as usize) < data.vertex_count() && data.label(v) == want {
                reported += 1;
                if sink.report(&[v]) == SinkControl::Stop {
                    return reported;
                }
            }
        }
        return reported;
    }
    let new_edges: HashMap<(VertexId, VertexId), usize> = effects
        .inserted_edges
        .iter()
        .enumerate()
        .map(|(j, &e)| (e, j))
        .collect();
    let mut total = 0u64;
    for (j, &(a, b)) in effects.inserted_edges.iter().enumerate() {
        for seed in &plan.seeds {
            let mut search = SeedSearch {
                data,
                prepared,
                plan,
                new_edges: &new_edges,
                seed_index: j,
                mapping: vec![UNMAPPED; qn],
                sink,
                reported: 0,
                stopped: false,
            };
            // Pin the seed query edge onto the net-new data edge (this seed's
            // orientation) and backtrack outward.
            let (u0, u1) = (seed.order[0], seed.order[1]);
            if search.admissible(u0, a) {
                search.mapping[u0 as usize] = a;
                if search.admissible(u1, b) {
                    search.mapping[u1 as usize] = b;
                    search.extend(seed, 2);
                }
            }
            total += search.reported;
            if search.stopped {
                return total;
            }
        }
    }
    total
}

/// New embeddings one standing query gained from one delta batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryMatches {
    /// The standing query's registration id.
    pub query: u64,
    /// The new embeddings, over original query-vertex ids.
    pub embeddings: Vec<Vec<VertexId>>,
}

/// What one [`ContinuousMatcher::apply`] call did: the batch's net effects,
/// the incremental-apply and match costs, and the new matches per standing
/// query (in registration order).
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Net effect of the applied batch.
    pub effects: DeltaEffects,
    /// Time spent incrementally updating the prepared index.
    pub apply_time: Duration,
    /// Time spent in delta-localized search across all standing queries.
    pub match_time: Duration,
    /// New matches per standing query (entries for every standing query, empty
    /// `embeddings` when a query gained none).
    pub matches: Vec<QueryMatches>,
}

impl StreamReport {
    /// Total new embeddings across all standing queries.
    pub fn total_new_matches(&self) -> u64 {
        self.matches.iter().map(|m| m.embeddings.len() as u64).sum()
    }
}

/// One registered standing query.
struct Standing {
    id: u64,
    plan: QueryPlan,
}

/// The continuous-matching front door: standing queries registered against a
/// [`Session`], a delta stream in, new embeddings out.
///
/// Each [`ContinuousMatcher::apply`] call (1) applies the batch through
/// [`Session::apply_deltas`] — incremental index maintenance, cache
/// invalidation, shared counters — and (2) runs delta-localized search for
/// every standing query against the *new* index, reporting exactly the
/// embeddings the batch created. The session the matcher holds is replaced on
/// every batch; [`ContinuousMatcher::session`] always exposes the live one.
pub struct ContinuousMatcher {
    session: Session,
    standing: Vec<Standing>,
    next_id: u64,
}

impl ContinuousMatcher {
    /// Wraps `session` (its prepared index is the stream's initial state).
    pub fn new(session: Session) -> Self {
        ContinuousMatcher {
            session,
            standing: Vec::new(),
            next_id: 0,
        }
    }

    /// The live session (replaced by every applied batch; counters are shared
    /// across replacements, like `gup-serve` reloads).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Registers a standing query and returns its id. The query is validated
    /// and compiled once ([`QueryPlan`]); matches stream from the *next*
    /// applied batch on — embeddings that already exist are not replayed
    /// (run a regular [`Session::query`] first for the initial result set).
    pub fn register(&mut self, query: &Graph) -> Result<u64, QueryGraphError> {
        let plan = QueryPlan::new(query)?;
        let id = self.next_id;
        self.next_id += 1;
        self.standing.push(Standing { id, plan });
        Ok(id)
    }

    /// Removes a standing query; `false` if the id was never registered (or
    /// already removed).
    pub fn unregister(&mut self, id: u64) -> bool {
        let before = self.standing.len();
        self.standing.retain(|s| s.id != id);
        self.standing.len() != before
    }

    /// Ids of the registered standing queries, in registration order.
    pub fn standing_queries(&self) -> Vec<u64> {
        self.standing.iter().map(|s| s.id).collect()
    }

    /// Applies one delta batch and reports the new embeddings it created for
    /// every standing query. On error the batch was rejected whole: the live
    /// session, its index, and its cache are untouched.
    pub fn apply(&mut self, deltas: &[GraphDelta]) -> Result<StreamReport, DeltaError> {
        let apply_watch = Stopwatch::started();
        let (next, effects) = self.session.apply_deltas(deltas)?;
        let apply_time = apply_watch.elapsed();
        let match_watch = Stopwatch::started();
        let prepared: &Arc<PreparedData> = next.prepared();
        let mut matches = Vec::with_capacity(self.standing.len());
        let mut total = 0u64;
        for standing in &self.standing {
            let mut sink = CollectAll::new();
            total += collect_new_matches(prepared, &effects, &standing.plan, &mut sink);
            matches.push(QueryMatches {
                query: standing.id,
                embeddings: sink.into_embeddings(),
            });
        }
        next.counters().record_incremental_matches(total);
        self.session = next;
        Ok(StreamReport {
            effects,
            apply_time,
            match_time: match_watch.elapsed(),
            matches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup::session::Engine;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;
    use std::collections::BTreeSet;

    fn embedding_set(session: &Session, query: &Graph) -> BTreeSet<Vec<VertexId>> {
        session
            .query(query)
            .unlimited()
            .run()
            .unwrap()
            .embeddings
            .into_iter()
            .collect()
    }

    /// Differential check: applying `deltas` and collecting streamed matches
    /// must produce exactly full-match(after) minus full-match(before).
    fn check_step(stream: &mut ContinuousMatcher, query: &Graph, deltas: &[GraphDelta]) {
        let before = embedding_set(stream.session(), query);
        let report = stream.apply(deltas).unwrap();
        let after = embedding_set(stream.session(), query);
        let expected: BTreeSet<_> = after.difference(&before).cloned().collect();
        let streamed: BTreeSet<_> = report.matches[0].embeddings.iter().cloned().collect();
        assert_eq!(streamed, expected);
        // Exactly once: no duplicates collapsed by the set.
        assert_eq!(report.matches[0].embeddings.len(), expected.len());
    }

    #[test]
    fn closing_a_triangle_reports_both_automorphisms() {
        let data = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let triangle = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        stream.register(&triangle).unwrap();
        check_step(
            &mut stream,
            &triangle,
            &[GraphDelta::AddEdge { a: 0, b: 2 }],
        );
        assert_eq!(
            stream.session().counters().snapshot().incremental_matches,
            2
        );
    }

    #[test]
    fn embeddings_spanning_multiple_new_edges_report_once() {
        // Empty 3-vertex graph; one batch inserts the whole triangle.
        let data = graph_from_edges(&[0, 1, 0], &[]);
        let triangle = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        stream.register(&triangle).unwrap();
        check_step(
            &mut stream,
            &triangle,
            &[
                GraphDelta::AddEdge { a: 0, b: 1 },
                GraphDelta::AddEdge { a: 1, b: 2 },
                GraphDelta::AddEdge { a: 0, b: 2 },
            ],
        );
    }

    #[test]
    fn deletions_report_nothing_and_preexisting_matches_are_not_replayed() {
        let (query, data) = fixtures::paper_example();
        let mut stream = ContinuousMatcher::new(Session::new(data));
        stream.register(&query).unwrap();
        let victim = stream.session().data().edges().next().unwrap();
        let report = stream
            .apply(&[GraphDelta::RemoveEdge {
                a: victim.0,
                b: victim.1,
            }])
            .unwrap();
        assert_eq!(report.total_new_matches(), 0);
        // Re-inserting it restores the 4 paper embeddings minus whatever
        // survived the deletion — the differential harness checks exactness.
        check_step(
            &mut stream,
            &query,
            &[GraphDelta::AddEdge {
                a: victim.0,
                b: victim.1,
            }],
        );
    }

    #[test]
    fn new_vertices_serve_single_vertex_standing_queries() {
        let data = graph_from_edges(&[0, 1], &[(0, 1)]);
        let dot = graph_from_edges(&[1], &[]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        let id = stream.register(&dot).unwrap();
        let report = stream
            .apply(&[
                GraphDelta::AddVertex { label: 1 },
                GraphDelta::AddVertex { label: 0 },
                GraphDelta::AddVertex { label: 1 },
            ])
            .unwrap();
        assert_eq!(report.matches[0].query, id);
        assert_eq!(report.matches[0].embeddings, vec![vec![2], vec![4]]);
    }

    #[test]
    fn register_validates_and_unregister_silences() {
        let data = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        assert!(stream.register(&disconnected).is_err());
        let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
        let id = stream.register(&edge).unwrap();
        assert_eq!(stream.standing_queries(), vec![id]);
        assert!(stream.unregister(id));
        assert!(!stream.unregister(id));
        let report = stream.apply(&[GraphDelta::AddEdge { a: 0, b: 2 }]).unwrap();
        assert!(report.matches.is_empty());
        assert_eq!(report.effects.inserted_edges, vec![(0, 2)]);
    }

    #[test]
    fn rejected_batches_leave_the_stream_untouched() {
        let data = graph_from_edges(&[0, 0], &[(0, 1)]);
        let edge = graph_from_edges(&[0, 0], &[(0, 1)]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        stream.register(&edge).unwrap();
        let err = stream
            .apply(&[GraphDelta::AddEdge { a: 0, b: 1 }])
            .unwrap_err();
        assert!(matches!(err, DeltaError::DuplicateEdge { .. }));
        assert_eq!(stream.session().data().edge_count(), 1);
        assert_eq!(stream.session().counters().snapshot().deltas_applied, 0);
    }

    #[test]
    fn streamed_matches_agree_with_every_engine() {
        // Grow a small dense graph edge by edge; after each batch the streamed
        // set must equal the full-match difference, and the final session must
        // agree with every engine family on the total.
        let labels = [0, 1, 0, 1, 0];
        let data = graph_from_edges(&labels, &[(0, 1), (1, 2)]);
        let square = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let mut stream = ContinuousMatcher::new(Session::new(data));
        stream.register(&square).unwrap();
        for (a, b) in [(2, 3), (3, 4), (0, 3), (1, 4), (0, 4)] {
            check_step(&mut stream, &square, &[GraphDelta::AddEdge { a, b }]);
        }
        let session = stream.session();
        let expected = session.query(&square).unlimited().count().unwrap();
        for engine in Engine::ALL {
            assert_eq!(
                session
                    .query(&square)
                    .method(engine)
                    .unlimited()
                    .count()
                    .unwrap(),
                expected,
                "engine {}",
                engine.name()
            );
        }
    }
}
