//! Candidate-space backtracking baselines.
//!
//! These engines share GuP's substrate (LDF/NLF/DAG-DP candidate space, connected
//! matching orders, and the [`CandidateStack`] of local candidate sets) but none of
//! its guards, which makes them faithful stand-ins for the systems the paper
//! compares against:
//!
//! * [`BaselineKind::DafFailingSet`] — DAF-style *failing-set* pruning: deadends
//!   produce a failing set (closed under backward-neighbor ancestors, which is what
//!   makes DAF's sets larger than GuP's deadend masks) that triggers backjumping but is
//!   discarded afterwards — no recording, exactly the contrast §3.4 draws.
//! * [`BaselineKind::GqlStyle`] — GraphQL-flavoured: NLF filtering without the DAG-DP
//!   refinement, candidate-size-greedy (GQL) ordering, plain backtracking.
//! * [`BaselineKind::RiStyle`] — RI-flavoured ordering (maximize backward
//!   connectivity), plain backtracking.
//!
//! Fig. 9's "Baseline" has no kind here: it is GuP with every guard off, which the
//! session's `plain` engine runs.

use gup_candidate::{CandidateSpace, CandidateStack, FilterConfig};
use gup_graph::budget::{BuildError, SearchLimits, SearchStats};
use gup_graph::deadline::DeadlineSampler;
use gup_graph::query::OrderedQuery;
use gup_graph::scratch::OwnerArray;
use gup_graph::sink::{min_limit, EmbeddingSink, SinkControl};
use gup_graph::{Graph, PreparedData, QVSet, QueryGraph, VertexId};
use gup_order::OrderingStrategy;

/// The baseline families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Plain backtracking plus DAF-style failing-set backjumping.
    DafFailingSet,
    /// GraphQL-style: NLF-only filtering, GQL order, plain backtracking.
    GqlStyle,
    /// RI-style ordering, plain backtracking.
    RiStyle,
}

impl BaselineKind {
    /// All baseline kinds, for sweeps.
    pub const ALL: [BaselineKind; 3] = [
        BaselineKind::DafFailingSet,
        BaselineKind::GqlStyle,
        BaselineKind::RiStyle,
    ];

    /// Stable display name used in experiment output (matching the paper's labels
    /// where a correspondence exists).
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::DafFailingSet => "DAF-FS",
            BaselineKind::GqlStyle => "GQL-G",
            BaselineKind::RiStyle => "GQL-R",
        }
    }

    fn filter_config(self) -> FilterConfig {
        match self {
            // GraphQL performs its own local filtering but no DAG-DP refinement.
            BaselineKind::GqlStyle => FilterConfig {
                refinement_passes: 0,
            },
            _ => FilterConfig::default(),
        }
    }

    fn ordering(self) -> OrderingStrategy {
        match self {
            BaselineKind::DafFailingSet => OrderingStrategy::ConnectedBfs,
            BaselineKind::GqlStyle => OrderingStrategy::GqlStyle,
            BaselineKind::RiStyle => OrderingStrategy::RiStyle,
        }
    }

    fn failing_sets(self) -> bool {
        matches!(self, BaselineKind::DafFailingSet)
    }
}

/// A baseline matcher instance (candidate space + order + budget, built once per
/// query), generic over the query-vertex bitset width `W` of its failing sets (the
/// session layer auto-dispatches to the narrowest width that fits the query; `W = 1`
/// is the ≤64-vertex fast path).
#[derive(Debug)]
pub struct BacktrackingBaseline<const W: usize = 1> {
    kind: BaselineKind,
    /// The budget of the filter pass and of every run (one shared deadline).
    limits: SearchLimits,
    space: CandidateSpace,
    /// The query in matching order: each vertex's forward neighbors, and its
    /// original id, in which embeddings are reported to sinks.
    query: OrderedQuery<W>,
    /// Transitive backward-neighbor closure ("ancestors") of each query vertex, used
    /// by the failing-set rule.
    ancestors: Vec<QVSet<W>>,
    /// Number of data-graph vertices (sizes the pooled owner array of a run).
    data_vertices: usize,
}

impl<const W: usize> BacktrackingBaseline<W> {
    /// Builds the baseline matcher for `query` against a prepared data graph (the
    /// candidate space's NLF pass runs against the precomputed signature arena)
    /// under `limits`, which also bound every later run. The candidate filter pass
    /// honors `limits.deadline`: once it expires, construction aborts with
    /// [`BuildError::FilterTimeout`] instead of grinding through the remaining
    /// filter work.
    pub fn with_prepared(
        query: &Graph,
        prepared: &PreparedData,
        kind: BaselineKind,
        limits: SearchLimits,
    ) -> Result<Self, BuildError> {
        // Global validation plus this width's capacity check
        // (`QueryGraph::check_width`, the shared rule): a query wider than `64 * W`
        // is a typed `TooLarge` error, never a wrapped bitmask.
        let validated = QueryGraph::new(query.clone())?;
        validated.check_width::<W>()?;
        let space = CandidateSpace::build_prepared_deadline(
            query,
            prepared,
            &kind.filter_config(),
            limits.deadline,
        )
        .map_err(|_| BuildError::FilterTimeout)?;
        let order = gup_order::compute_order(query, &space.candidate_sizes(), kind.ordering())
            .expect("validated queries are connected, so an order always exists");
        let ordered = validated
            .with_order::<W>(&order)
            .expect("ordering strategies produce connected orders");
        let space = space.permuted(&order);
        let n = ordered.vertex_count();
        // Ancestor closure: all query vertices reachable by repeatedly following
        // backward neighbors. This is the "and all their ancestors" part of DAF's
        // failing-set definition that the paper contrasts with GuP's smaller masks.
        let mut ancestors = vec![QVSet::<W>::EMPTY; n];
        for i in 0..n {
            let mut set = QVSet::singleton(i);
            for &b in ordered.backward_neighbors(i) {
                set |= ancestors[b];
                set.insert(b);
            }
            ancestors[i] = set;
        }
        Ok(BacktrackingBaseline {
            kind,
            limits,
            space,
            query: ordered,
            ancestors,
            data_vertices: prepared.graph().vertex_count(),
        })
    }

    /// The baseline family of this instance.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Runs the search, streaming every embedding into `sink` over the *original*
    /// query-vertex ids — the same [`EmbeddingSink`] protocol GuP uses, so the two
    /// families can be driven through identical output layers in differential tests.
    /// The sink's capacity is folded into the embedding limit; a
    /// [`SinkControl::Stop`] terminates the run (`SearchStats::stopped_by_sink`).
    pub fn run_with_sink(&self, sink: &mut dyn EmbeddingSink) -> SearchStats {
        let capacity = sink.capacity();
        let cap = min_limit(self.limits.max_embeddings, capacity);
        let n = self.query.vertex_count();
        let mut state = RunState {
            baseline: self,
            cap,
            sampler: DeadlineSampler::new(self.limits.deadline),
            stats: SearchStats::default(),
            assignment: vec![0; n],
            owner: OwnerArray::take(self.data_vertices),
            stack: CandidateStack::new(&self.space, ()),
            sink,
            scratch: vec![0; n],
        };
        if !self.space.any_empty() && n > 0 && cap != Some(0) {
            let _ = state.backtrack(0);
        }
        state.stats.settle_cap(self.limits.max_embeddings, capacity);
        state.stats
    }
}

enum Outcome<const W: usize> {
    FoundSome,
    Deadend(QVSet<W>),
    Aborted,
}

struct RunState<'a, 's, const W: usize> {
    baseline: &'a BacktrackingBaseline<W>,
    /// The embedding limit folded with the sink's capacity.
    cap: Option<u64>,
    sampler: DeadlineSampler,
    stats: SearchStats,
    assignment: Vec<u32>,
    /// For each data vertex: 0 if unassigned, otherwise (query vertex index + 1).
    /// `u16` (not `u8`): the widest supported queries have up to 256 vertices.
    /// Taken from the thread's scratch pool, which requires it all zero again
    /// after every normal return.
    owner: OwnerArray,
    /// Local candidate sets; a vertex's top frame is its current one.
    stack: CandidateStack,
    sink: &'s mut dyn EmbeddingSink,
    /// Reused per-embedding buffer for the original-id translation reported to the
    /// sink (no per-embedding allocation).
    scratch: Vec<VertexId>,
}

impl<'a, 's, const W: usize> RunState<'a, 's, W> {
    // Allocation-free, statically and by `tests/filter_alloc.rs`.
    // gup-lint: region(no_alloc)
    fn backtrack(&mut self, k: usize) -> Outcome<W> {
        let baseline = self.baseline;
        if k == baseline.query.vertex_count() {
            self.stats.embeddings += 1;
            if self.sink.wants_embeddings() {
                for (j, &cj) in self.assignment.iter().enumerate() {
                    self.scratch[baseline.query.original_id(j) as usize] =
                        baseline.space.candidates(j)[cj as usize];
                }
            }
            if self.sink.report(&self.scratch) == SinkControl::Stop {
                self.stats.stopped_by_sink = true;
                return Outcome::Aborted;
            }
            if self.cap.is_some_and(|cap| self.stats.embeddings >= cap) {
                return Outcome::Aborted;
            }
            return Outcome::FoundSome;
        }
        self.stats.recursions += 1;
        if self.sampler.tick().is_err() {
            self.stats.hit_time_limit = true;
            return Outcome::Aborted;
        }

        let failing_sets = baseline.kind.failing_sets();
        let mut found_any = false;
        let mut union = QVSet::<W>::EMPTY;
        let mut without_k: Option<QVSet<W>> = None;

        // Deeper levels push only on later vertices, so `top(k)` stays put.
        let len = self.stack.top(k).len();
        for pos in 0..len {
            let cv = self.stack.top(k)[pos];
            let v = baseline.space.candidates(k)[cv as usize];
            // Injectivity: the conflict depends on the query vertex currently holding
            // `v`, so its ancestors must join the failing set too.
            let holder = self.owner[v as usize];
            if holder != 0 {
                if failing_sets {
                    union |= baseline.ancestors[k] | baseline.ancestors[holder as usize - 1];
                }
                continue;
            }
            // Refine forward neighbors.
            self.owner[v as usize] = k as u16 + 1;
            self.assignment[k] = cv;
            let mark = self.stack.mark();
            let mut emptied: Option<usize> = None;
            for &f in baseline.query.forward_neighbors(k) {
                let adjacency = baseline.space.adjacent_candidates(k, cv as usize, f);
                if self.stack.push_intersection(f, adjacency, |_| true) == 0 {
                    emptied = Some(f);
                    break;
                }
            }
            let outcome = match emptied {
                // A future vertex lost all candidates.
                Some(f) if failing_sets => Outcome::Deadend(baseline.ancestors[f]),
                Some(_) => Outcome::Deadend(QVSet::EMPTY),
                None => self.backtrack(k + 1),
            };
            self.stack.restore(mark);
            self.owner[v as usize] = 0;
            match outcome {
                Outcome::Aborted => return Outcome::Aborted,
                Outcome::FoundSome => found_any = true,
                Outcome::Deadend(mask) if failing_sets => {
                    union |= mask;
                    if !mask.contains(k) && !mask.is_empty() {
                        without_k = Some(mask);
                        // Failing-set backjump: remaining siblings cannot help.
                        break;
                    }
                }
                Outcome::Deadend(_) => {}
            }
        }

        if found_any {
            return Outcome::FoundSome;
        }
        self.stats.futile_recursions += 1;
        if !failing_sets {
            return Outcome::Deadend(QVSet::EMPTY);
        }
        if let Some(mask) = without_k {
            return Outcome::Deadend(mask);
        }
        Outcome::Deadend(union.without(k) | baseline.ancestors[k].without(k))
    }
    // gup-lint: end_region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;
    use gup_graph::sink::CountOnly;

    /// The baseline of `kind` for `query` over `prepared`, with no limits.
    fn unlimited(
        query: &Graph,
        prepared: &PreparedData,
        kind: BaselineKind,
    ) -> BacktrackingBaseline<1> {
        BacktrackingBaseline::with_prepared(query, prepared, kind, SearchLimits::UNLIMITED).unwrap()
    }

    fn check_against_brute_force(query: &Graph, data: &Graph) {
        let expected = brute_force::count(query, data);
        let prepared = PreparedData::new(data.clone());
        for kind in BaselineKind::ALL {
            let m = unlimited(query, &prepared, kind);
            let r = m.run_with_sink(&mut CountOnly::new());
            assert_eq!(
                r.embeddings, expected,
                "kind {kind:?} disagrees with brute force"
            );
        }
    }

    #[test]
    fn all_kinds_agree_with_brute_force_on_fixtures() {
        let (q, d) = fixtures::paper_example();
        check_against_brute_force(&q, &d);
        check_against_brute_force(
            &fixtures::triangle_query(),
            &fixtures::square_with_diagonal(),
        );
        check_against_brute_force(
            &fixtures::path(4, 0),
            &graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
        );
        check_against_brute_force(
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
    fn failing_sets_never_change_the_count_but_can_reduce_recursions() {
        let (q, d) = fixtures::paper_example();
        let prepared = PreparedData::new(d);
        let ri =
            unlimited(&q, &prepared, BaselineKind::RiStyle).run_with_sink(&mut CountOnly::new());
        let daf = unlimited(&q, &prepared, BaselineKind::DafFailingSet)
            .run_with_sink(&mut CountOnly::new());
        assert_eq!(ri.embeddings, daf.embeddings);
        assert!(daf.recursions > 0);
    }

    #[test]
    fn embedding_limit_is_respected() {
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
            max_embeddings: Some(3),
            ..SearchLimits::UNLIMITED
        };
        let prepared = PreparedData::new(d);
        let m =
            BacktrackingBaseline::<1>::with_prepared(&q, &prepared, BaselineKind::RiStyle, limits);
        let r = m.unwrap().run_with_sink(&mut CountOnly::new());
        assert_eq!(r.embeddings, 3);
        assert!(r.hit_embedding_limit);
        assert!(r.terminated_early());
    }

    #[test]
    fn invalid_query_rejected() {
        let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let prepared = PreparedData::new(fixtures::square_with_diagonal());
        let err = BacktrackingBaseline::<1>::with_prepared(
            &disconnected,
            &prepared,
            BaselineKind::RiStyle,
            SearchLimits::UNLIMITED,
        )
        .unwrap_err();
        assert!(format!("{err}").contains("invalid query"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(BaselineKind::DafFailingSet.name(), "DAF-FS");
        assert_eq!(BaselineKind::GqlStyle.name(), "GQL-G");
        assert_eq!(BaselineKind::RiStyle.name(), "GQL-R");
    }

    #[test]
    fn no_embeddings_when_cycle_cannot_close() {
        let q = fixtures::triangle_query();
        let d = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let prepared = PreparedData::new(d);
        for kind in BaselineKind::ALL {
            let m = unlimited(&q, &prepared, kind);
            assert_eq!(m.run_with_sink(&mut CountOnly::new()).embeddings, 0);
        }
    }
}
