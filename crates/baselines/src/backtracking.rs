//! Candidate-space backtracking baselines.
//!
//! These engines share GuP's substrate (LDF/NLF/DAG-DP candidate space, connected
//! matching orders) but none of its guards, which makes them faithful stand-ins for the
//! systems the paper compares against:
//!
//! * [`BaselineKind::Plain`] — plain backtracking over the candidate space
//!   ("Baseline" in Fig. 9 of the paper).
//! * [`BaselineKind::DafFailingSet`] — adds DAF-style *failing-set* pruning: deadends
//!   produce a failing set (closed under backward-neighbor ancestors, which is what
//!   makes DAF's sets larger than GuP's deadend masks) that triggers backjumping but is
//!   discarded afterwards — no recording, exactly the contrast §3.4 draws.
//! * [`BaselineKind::GqlStyle`] — GraphQL-flavoured: NLF filtering without the DAG-DP
//!   refinement, candidate-size-greedy (GQL) ordering, plain backtracking.
//! * [`BaselineKind::RiStyle`] — RI-flavoured ordering (maximize backward
//!   connectivity), plain backtracking.

use gup_candidate::{CandidateSpace, FilterConfig};
use gup_graph::budget::{SearchLimits, SearchStats};
use gup_graph::deadline::DeadlineSampler;
use gup_graph::sink::{min_limit, CountOnly, EmbeddingSink, SinkControl};
use gup_graph::{Graph, PreparedData, QVSet, QueryGraph, VertexId};
use gup_order::OrderingStrategy;

/// The baseline families.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineKind {
    /// Plain candidate-space backtracking (VC-style order, full filtering).
    Plain,
    /// Plain backtracking plus DAF-style failing-set backjumping.
    DafFailingSet,
    /// GraphQL-style: NLF-only filtering, GQL order, plain backtracking.
    GqlStyle,
    /// RI-style ordering, plain backtracking.
    RiStyle,
}

impl BaselineKind {
    /// All baseline kinds, for sweeps.
    pub const ALL: [BaselineKind; 4] = [
        BaselineKind::Plain,
        BaselineKind::DafFailingSet,
        BaselineKind::GqlStyle,
        BaselineKind::RiStyle,
    ];

    /// Stable display name used in experiment output (matching the paper's labels
    /// where a correspondence exists).
    pub fn name(self) -> &'static str {
        match self {
            BaselineKind::Plain => "Plain-BT",
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
            BaselineKind::Plain => OrderingStrategy::VcStyle,
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
    /// Forward neighbors of each (re-ordered) query vertex.
    forward: Vec<Vec<usize>>,
    /// Transitive backward-neighbor closure ("ancestors") of each query vertex, used
    /// by the failing-set rule.
    ancestors: Vec<QVSet<W>>,
    /// Original query-vertex id at each matching-order position, used to report
    /// embeddings to sinks in the original numbering.
    original_id: Vec<VertexId>,
    query_vertices: usize,
}

/// Errors raised when the baseline cannot be constructed.
#[derive(Debug)]
pub enum BaselineError {
    /// The query graph is unusable (empty, disconnected, or too large).
    InvalidQuery(gup_graph::QueryGraphError),
    /// The deadline expired during the candidate filter pass, before any search
    /// ran. The session layer reports this as `hit_time_limit`.
    FilterTimeout,
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::InvalidQuery(e) => write!(f, "invalid query graph: {e}"),
            BaselineError::FilterTimeout => {
                write!(f, "time budget expired during the candidate filter pass")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

impl<const W: usize> BacktrackingBaseline<W> {
    /// Builds the baseline matcher for `query` against `data` with no limits:
    /// prepares a private index of `data` and builds through
    /// [`BacktrackingBaseline::with_prepared`].
    pub fn new(query: &Graph, data: &Graph, kind: BaselineKind) -> Result<Self, BaselineError> {
        let prepared = PreparedData::from_graph(data);
        Self::with_prepared(query, &prepared, kind, SearchLimits::UNLIMITED)
    }

    /// Builds the baseline matcher for `query` against a prepared data graph (the
    /// candidate space's NLF pass runs against the precomputed signature arena)
    /// under `limits`, which also bound every later run. The candidate filter pass
    /// honors `limits.deadline`: once it expires, construction aborts with
    /// [`BaselineError::FilterTimeout`] instead of grinding through the remaining
    /// filter work.
    pub fn with_prepared(
        query: &Graph,
        prepared: &PreparedData,
        kind: BaselineKind,
        limits: SearchLimits,
    ) -> Result<Self, BaselineError> {
        // Global validation plus this width's capacity check
        // (`QueryGraph::check_width`, the shared rule): a query wider than `64 * W`
        // is a typed `TooLarge` error, never a wrapped bitmask.
        let validated = QueryGraph::new(query.clone()).map_err(BaselineError::InvalidQuery)?;
        validated
            .check_width::<W>()
            .map_err(BaselineError::InvalidQuery)?;
        let space = CandidateSpace::build_prepared_deadline(
            query,
            prepared,
            &kind.filter_config(),
            limits.deadline,
        )
        .map_err(|_| BaselineError::FilterTimeout)?;
        let order = gup_order::compute_order(query, &space.candidate_sizes(), kind.ordering())
            .expect("validated queries are connected, so an order always exists");
        let ordered = validated
            .with_order::<W>(&order)
            .expect("ordering strategies produce connected orders");
        let space = space.permuted(&order);
        let n = ordered.vertex_count();
        let backward: Vec<Vec<usize>> = (0..n)
            .map(|i| ordered.backward_neighbors(i).to_vec())
            .collect();
        let forward: Vec<Vec<usize>> = (0..n)
            .map(|i| ordered.forward_neighbors(i).to_vec())
            .collect();
        // Ancestor closure: all query vertices reachable by repeatedly following
        // backward neighbors. This is the "and all their ancestors" part of DAF's
        // failing-set definition that the paper contrasts with GuP's smaller masks.
        let mut ancestors = vec![QVSet::<W>::EMPTY; n];
        for i in 0..n {
            let mut set = QVSet::singleton(i);
            for &b in &backward[i] {
                set |= ancestors[b];
                set.insert(b);
            }
            ancestors[i] = set;
        }
        Ok(BacktrackingBaseline {
            kind,
            limits,
            space,
            forward,
            ancestors,
            original_id: order,
            query_vertices: n,
        })
    }

    /// The baseline family of this instance.
    pub fn kind(&self) -> BaselineKind {
        self.kind
    }

    /// Runs the search under the matcher's limits, counting embeddings without
    /// materializing any. Thin adapter over
    /// [`BacktrackingBaseline::run_with_sink`].
    pub fn run(&self) -> SearchStats {
        self.run_with_sink(&mut CountOnly::new())
    }

    /// Runs the search, streaming every embedding into `sink` over the *original*
    /// query-vertex ids — the same [`EmbeddingSink`] protocol GuP uses, so the two
    /// families can be driven through identical output layers in differential tests.
    /// The sink's capacity is folded into the embedding limit; a
    /// [`SinkControl::Stop`] terminates the run (`SearchStats::stopped_by_sink`).
    pub fn run_with_sink(&self, sink: &mut dyn EmbeddingSink) -> SearchStats {
        let capacity = sink.capacity();
        let cap = min_limit(self.limits.max_embeddings, capacity);
        let mut state = RunState {
            baseline: self,
            cap,
            sampler: DeadlineSampler::new(self.limits.deadline),
            stats: SearchStats::default(),
            assignment: vec![0; self.query_vertices],
            owner: vec![None; self.data_vertex_upper_bound()],
            cand_stack: (0..self.query_vertices)
                .map(|u| vec![(0..self.space.candidates(u).len() as u32).collect::<Vec<u32>>()])
                .collect(),
            sink,
            scratch: vec![0; self.query_vertices],
        };
        if !self.space.any_empty() && self.query_vertices > 0 && cap != Some(0) {
            let _ = state.backtrack(0);
        }
        state.stats.settle_cap(self.limits.max_embeddings, capacity);
        state.stats
    }

    fn data_vertex_upper_bound(&self) -> usize {
        (0..self.query_vertices)
            .flat_map(|u| self.space.candidates(u).iter().copied())
            .max()
            .map(|v| v as usize + 1)
            .unwrap_or(0)
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
    /// `u16` (not `u8`): the widest supported queries have up to 256 vertices.
    owner: Vec<Option<u16>>,
    cand_stack: Vec<Vec<Vec<u32>>>,
    sink: &'s mut dyn EmbeddingSink,
    /// Reused per-embedding buffer for the original-id translation reported to the
    /// sink (no per-embedding allocation).
    scratch: Vec<VertexId>,
}

impl<'a, 's, const W: usize> RunState<'a, 's, W> {
    fn backtrack(&mut self, k: usize) -> Outcome<W> {
        let n = self.baseline.query_vertices;
        if k == n {
            self.stats.embeddings += 1;
            if self.sink.wants_embeddings() {
                for (j, &cj) in self.assignment.iter().enumerate() {
                    self.scratch[self.baseline.original_id[j] as usize] =
                        self.baseline.space.candidates(j)[cj as usize];
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

        let failing_sets = self.baseline.kind.failing_sets();
        let mut found_any = false;
        let mut union = QVSet::<W>::EMPTY;
        let mut without_k: Option<QVSet<W>> = None;

        let level = self.cand_stack[k].len() - 1;
        let len = self.cand_stack[k][level].len();
        for pos in 0..len {
            let cv = self.cand_stack[k][level][pos];
            let v = self.baseline.space.candidates(k)[cv as usize];
            // Injectivity: the conflict depends on the query vertex currently holding
            // `v`, so its ancestors must join the failing set too.
            if let Some(holder) = self.owner[v as usize] {
                if failing_sets {
                    union |= self.baseline.ancestors[k] | self.baseline.ancestors[holder as usize];
                }
                continue;
            }
            // Refine forward neighbors.
            self.owner[v as usize] = Some(k as u16);
            self.assignment[k] = cv;
            let mut emptied: Option<usize> = None;
            let mut pushed: Vec<usize> = Vec::with_capacity(self.baseline.forward[k].len());
            for fi in 0..self.baseline.forward[k].len() {
                let f = self.baseline.forward[k][fi];
                let adjacency = self.baseline.space.adjacent_candidates(k, cv as usize, f);
                let parent = self.cand_stack[f].last().expect("stack never empty");
                let new_list = intersect_sorted(parent, adjacency);
                if new_list.is_empty() {
                    emptied = Some(f);
                    break;
                }
                self.cand_stack[f].push(new_list);
                pushed.push(f);
            }
            let child = if let Some(f) = emptied {
                // A future vertex lost all candidates.
                if failing_sets {
                    Some(self.baseline.ancestors[f])
                } else {
                    Some(QVSet::EMPTY)
                }
            } else {
                match self.backtrack(k + 1) {
                    Outcome::Aborted => {
                        for &f in &pushed {
                            self.cand_stack[f].pop();
                        }
                        self.owner[v as usize] = None;
                        return Outcome::Aborted;
                    }
                    Outcome::FoundSome => {
                        found_any = true;
                        None
                    }
                    Outcome::Deadend(mask) => Some(mask),
                }
            };
            for &f in &pushed {
                self.cand_stack[f].pop();
            }
            self.owner[v as usize] = None;

            if let Some(mask) = child {
                if failing_sets {
                    union |= mask;
                    if !mask.contains(k) && !mask.is_empty() {
                        without_k = Some(mask);
                        // Failing-set backjump: remaining siblings cannot help.
                        break;
                    }
                }
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
        Outcome::Deadend(union.without(k) | self.baseline.ancestors[k].without(k))
    }
}

fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute_force;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;

    fn check_against_brute_force(query: &Graph, data: &Graph) {
        let expected = brute_force::count(query, data);
        for kind in BaselineKind::ALL {
            let m = BacktrackingBaseline::<1>::new(query, data, kind).unwrap();
            let r = m.run();
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
        let plain = BacktrackingBaseline::<1>::new(&q, &d, BaselineKind::Plain)
            .unwrap()
            .run();
        let daf = BacktrackingBaseline::<1>::new(&q, &d, BaselineKind::DafFailingSet)
            .unwrap()
            .run();
        assert_eq!(plain.embeddings, daf.embeddings);
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
        let prepared = PreparedData::from_graph(&d);
        let m =
            BacktrackingBaseline::<1>::with_prepared(&q, &prepared, BaselineKind::Plain, limits);
        let r = m.unwrap().run();
        assert_eq!(r.embeddings, 3);
        assert!(r.hit_embedding_limit);
        assert!(r.terminated_early());
    }

    #[test]
    fn invalid_query_rejected() {
        let disconnected = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let d = fixtures::square_with_diagonal();
        let err =
            BacktrackingBaseline::<1>::new(&disconnected, &d, BaselineKind::Plain).unwrap_err();
        assert!(format!("{err}").contains("invalid query"));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(BaselineKind::Plain.name(), "Plain-BT");
        assert_eq!(BaselineKind::DafFailingSet.name(), "DAF-FS");
        assert_eq!(BaselineKind::GqlStyle.name(), "GQL-G");
        assert_eq!(BaselineKind::RiStyle.name(), "GQL-R");
    }

    #[test]
    fn no_embeddings_when_cycle_cannot_close() {
        let q = fixtures::triangle_query();
        let d = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        for kind in BaselineKind::ALL {
            let m = BacktrackingBaseline::<1>::new(&q, &d, kind).unwrap();
            assert_eq!(m.run().embeddings, 0);
        }
    }
}
