//! # gup-order
//!
//! Matching-order optimizers.
//!
//! The order in which query vertices are assigned determines the size of the search
//! space (paper §2.1, "Optimization of matching order"). GuP itself is agnostic to the
//! order ("guard-based pruning can be used in combination with arbitrary existing
//! approaches", §3.1); the paper's implementation uses the VC order of Sun & Luo, while
//! its baselines use the GraphQL and RI orders. This crate provides deterministic
//! implementations of those three families plus a plain connected BFS order, all of
//! which produce *connected* orders (every vertex except the first has an earlier
//! neighbor), the property the backtracking engine requires.
//!
//! ```
//! use gup_graph::fixtures::paper_example;
//! use gup_order::{compute_order, OrderingStrategy};
//!
//! let (query, _data) = paper_example();
//! // Pretend every query vertex has 3 candidates.
//! let order = compute_order(&query, &[3, 3, 3, 3, 3], OrderingStrategy::VcStyle).unwrap();
//! assert_eq!(order.len(), query.vertex_count());
//! ```

use gup_graph::algo::{bfs_order, two_core};
use gup_graph::{Graph, VertexId};

/// The ordering heuristics available to the matchers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OrderingStrategy {
    /// Plain BFS from the vertex with the fewest candidates. The simplest connected
    /// order; used by the "Baseline" configuration of the evaluation.
    ConnectedBfs,
    /// GraphQL-style greedy order: repeatedly pick the frontier vertex with the fewest
    /// candidates (GQL-G in the paper's experiments).
    GqlStyle,
    /// RI-style order: maximize the number of already-ordered neighbors, breaking ties
    /// by degree (GQL-R / RI in the paper's experiments).
    RiStyle,
    /// VC-style order (Sun & Luo, "Subgraph Matching with Effective Matching Order and
    /// Indexing"): prefer 2-core vertices and many backward connections, then few
    /// candidates. This is the order GuP's reference implementation uses.
    VcStyle,
}

impl OrderingStrategy {
    /// All strategies, for sweeps and tests.
    pub const ALL: [OrderingStrategy; 4] = [
        OrderingStrategy::ConnectedBfs,
        OrderingStrategy::GqlStyle,
        OrderingStrategy::RiStyle,
        OrderingStrategy::VcStyle,
    ];

    /// Short, stable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            OrderingStrategy::ConnectedBfs => "bfs",
            OrderingStrategy::GqlStyle => "gql",
            OrderingStrategy::RiStyle => "ri",
            OrderingStrategy::VcStyle => "vc",
        }
    }
}

/// Error returned when no connected matching order exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderingError {
    /// The query graph is disconnected: some vertex can never gain an earlier
    /// neighbor, so no connected order exists for any strategy.
    Disconnected {
        /// A vertex outside the component the order started in.
        vertex: VertexId,
    },
}

impl std::fmt::Display for OrderingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderingError::Disconnected { vertex } => write!(
                f,
                "query graph is disconnected (vertex {vertex} is unreachable); no connected matching order exists"
            ),
        }
    }
}

impl std::error::Error for OrderingError {}

/// Computes a connected matching order over `query`.
///
/// `candidate_sizes[u]` is the size of the candidate set `|C(u)|` of query vertex `u`
/// (from LDF/NLF or a full candidate space); heuristics that do not use candidate sizes
/// ignore it. The result is a permutation of the query vertices: `order[i]` is the
/// query vertex that becomes `u_i`.
///
/// A disconnected query returns [`OrderingError::Disconnected`] — no strategy can
/// produce a connected order for it, and silently padding the order with unreachable
/// vertices would hand a non-connected order to any caller that bypasses
/// `QueryGraph::new` validation.
///
/// # Panics
///
/// Panics if `candidate_sizes.len() != query.vertex_count()` or the query is empty.
pub fn compute_order(
    query: &Graph,
    candidate_sizes: &[usize],
    strategy: OrderingStrategy,
) -> Result<Vec<VertexId>, OrderingError> {
    assert_eq!(
        candidate_sizes.len(),
        query.vertex_count(),
        "candidate_sizes must have one entry per query vertex"
    );
    assert!(query.vertex_count() > 0, "cannot order an empty query");
    match strategy {
        OrderingStrategy::ConnectedBfs => connected_bfs_order(query, candidate_sizes),
        OrderingStrategy::GqlStyle => greedy_order(query, candidate_sizes, Heuristic::Gql),
        OrderingStrategy::RiStyle => greedy_order(query, candidate_sizes, Heuristic::Ri),
        OrderingStrategy::VcStyle => greedy_order(query, candidate_sizes, Heuristic::Vc),
    }
}

/// Returns `true` if `order` is a connected permutation of the query vertices: every
/// vertex except the first has at least one neighbor earlier in the order.
pub fn is_connected_order(query: &Graph, order: &[VertexId]) -> bool {
    let n = query.vertex_count();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, &v) in order.iter().enumerate() {
        if (v as usize) >= n || pos[v as usize] != usize::MAX {
            return false;
        }
        pos[v as usize] = i;
    }
    for (i, &v) in order.iter().enumerate().skip(1) {
        if !query.neighbors(v).iter().any(|&w| pos[w as usize] < i) {
            return false;
        }
    }
    true
}

fn connected_bfs_order(
    query: &Graph,
    candidate_sizes: &[usize],
) -> Result<Vec<VertexId>, OrderingError> {
    let n = query.vertex_count();
    let root = (0..n as VertexId)
        .min_by_key(|&v| (candidate_sizes[v as usize], v))
        .expect("non-empty query");
    let order = bfs_order(query, &[root]);
    let mut reached = vec![false; n];
    for &v in &order {
        reached[v as usize] = true;
    }
    match (0..n as VertexId).find(|&v| !reached[v as usize]) {
        Some(vertex) => Err(OrderingError::Disconnected { vertex }),
        None => Ok(order),
    }
}

#[derive(Clone, Copy)]
enum Heuristic {
    Gql,
    Ri,
    Vc,
}

/// Greedy frontier-based ordering shared by the GQL / RI / VC styles; only the scoring
/// of frontier vertices differs.
fn greedy_order(
    query: &Graph,
    candidate_sizes: &[usize],
    heuristic: Heuristic,
) -> Result<Vec<VertexId>, OrderingError> {
    let n = query.vertex_count();
    let core = two_core(query);
    let mut ordered = vec![false; n];
    let mut back_links = vec![0usize; n]; // neighbors already ordered
    let mut order = Vec::with_capacity(n);

    // Root selection.
    let root = match heuristic {
        Heuristic::Gql => (0..n as VertexId)
            .min_by_key(|&v| {
                (
                    candidate_sizes[v as usize],
                    std::cmp::Reverse(query.degree(v)),
                    v,
                )
            })
            .unwrap(),
        Heuristic::Ri => (0..n as VertexId)
            .max_by_key(|&v| (query.degree(v), std::cmp::Reverse(v)))
            .unwrap(),
        Heuristic::Vc => (0..n as VertexId)
            .min_by(|&a, &b| {
                let score = |v: VertexId| {
                    candidate_sizes[v as usize] as f64 / query.degree(v).max(1) as f64
                };
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| core[b as usize].cmp(&core[a as usize]))
                    .then(a.cmp(&b))
            })
            .unwrap(),
    };

    let select = |v: VertexId, ordered: &mut [bool], back_links: &mut [usize]| {
        ordered[v as usize] = true;
        for &w in query.neighbors(v) {
            back_links[w as usize] += 1;
        }
    };
    select(root, &mut ordered, &mut back_links);
    order.push(root);

    while order.len() < n {
        // Frontier = unordered vertices adjacent to the ordered prefix.
        let frontier: Vec<VertexId> = (0..n as VertexId)
            .filter(|&v| !ordered[v as usize] && back_links[v as usize] > 0)
            .collect();
        let next = if frontier.is_empty() {
            // No unordered vertex touches the ordered prefix: the query is
            // disconnected and no connected order exists.
            let v = (0..n as VertexId).find(|&v| !ordered[v as usize]).unwrap();
            return Err(OrderingError::Disconnected { vertex: v });
        } else {
            match heuristic {
                Heuristic::Gql => frontier
                    .into_iter()
                    .min_by_key(|&v| {
                        (
                            candidate_sizes[v as usize],
                            std::cmp::Reverse(back_links[v as usize]),
                            v,
                        )
                    })
                    .unwrap(),
                Heuristic::Ri => frontier
                    .into_iter()
                    .max_by_key(|&v| {
                        (
                            back_links[v as usize],
                            query.degree(v),
                            std::cmp::Reverse(v),
                        )
                    })
                    .unwrap(),
                Heuristic::Vc => frontier
                    .into_iter()
                    .max_by_key(|&v| {
                        (
                            back_links[v as usize],
                            core[v as usize] as usize,
                            std::cmp::Reverse(candidate_sizes[v as usize]),
                            std::cmp::Reverse(v),
                        )
                    })
                    .unwrap(),
            }
        };
        select(next, &mut ordered, &mut back_links);
        order.push(next);
    }
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;

    fn sizes(n: usize, s: usize) -> Vec<usize> {
        vec![s; n]
    }

    #[test]
    fn all_strategies_produce_connected_permutations() {
        let (q, _d) = fixtures::paper_example();
        for &s in &OrderingStrategy::ALL {
            let order = compute_order(&q, &sizes(5, 4), s).unwrap();
            assert!(is_connected_order(&q, &order), "strategy {:?}", s);
        }
    }

    #[test]
    fn connected_on_various_shapes() {
        let shapes = [
            fixtures::triangle_query(),
            fixtures::clique4(0),
            fixtures::path(7, 0),
            graph_from_edges(
                &[0, 1, 2, 3, 0, 1],
                &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
            ),
        ];
        for q in &shapes {
            let cand = sizes(q.vertex_count(), 10);
            for &s in &OrderingStrategy::ALL {
                let order = compute_order(q, &cand, s).unwrap();
                assert!(is_connected_order(q, &order), "strategy {:?} on {:?}", s, q);
            }
        }
    }

    #[test]
    fn gql_prefers_small_candidate_sets_first() {
        let (q, _d) = fixtures::paper_example();
        let cand = vec![50, 40, 1, 30, 20];
        let order = compute_order(&q, &cand, OrderingStrategy::GqlStyle).unwrap();
        assert_eq!(order[0], 2);
    }

    #[test]
    fn vc_root_uses_candidates_per_degree() {
        // Star center has huge degree; with equal candidate counts it should be picked
        // first by the VC heuristic (lowest candidates/degree ratio).
        let star = graph_from_edges(&[0, 1, 1, 1, 1], &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let order = compute_order(&star, &sizes(5, 10), OrderingStrategy::VcStyle).unwrap();
        assert_eq!(order[0], 0);
    }

    #[test]
    fn ri_prefers_dense_backward_connections() {
        // Square with one diagonal: 0-1-2-3-0 plus 0-2. RI should order the triangle
        // vertices (0,1,2 or 0,2,x) before the degree-2 corner 3 whenever possible.
        let q = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let order = compute_order(&q, &sizes(4, 10), OrderingStrategy::RiStyle).unwrap();
        assert!(is_connected_order(&q, &order));
        let pos3 = order.iter().position(|&v| v == 3).unwrap();
        assert_eq!(pos3, 3, "the lowest-connectivity vertex should come last");
    }

    #[test]
    fn single_vertex_query_order() {
        let q = graph_from_edges(&[5], &[]);
        for &s in &OrderingStrategy::ALL {
            assert_eq!(compute_order(&q, &[1], s).unwrap(), vec![0]);
        }
    }

    #[test]
    fn is_connected_order_rejects_bad_orders() {
        let q = fixtures::path(4, 0);
        assert!(is_connected_order(&q, &[0, 1, 2, 3]));
        assert!(is_connected_order(&q, &[2, 1, 3, 0]));
        // Jumping to a non-adjacent vertex breaks connectivity.
        assert!(!is_connected_order(&q, &[0, 2, 1, 3]));
        // Not a permutation.
        assert!(!is_connected_order(&q, &[0, 0, 1, 2]));
        assert!(!is_connected_order(&q, &[0, 1, 2]));
        assert!(!is_connected_order(&q, &[0, 1, 2, 9]));
    }

    #[test]
    fn strategy_names_are_stable() {
        assert_eq!(OrderingStrategy::VcStyle.name(), "vc");
        assert_eq!(OrderingStrategy::GqlStyle.name(), "gql");
        assert_eq!(OrderingStrategy::RiStyle.name(), "ri");
        assert_eq!(OrderingStrategy::ConnectedBfs.name(), "bfs");
    }

    #[test]
    #[should_panic(expected = "one entry per query vertex")]
    fn mismatched_candidate_sizes_panic() {
        let q = fixtures::triangle_query();
        let _ = compute_order(&q, &[1, 2], OrderingStrategy::GqlStyle);
    }

    /// A disconnected query must be a typed error from every strategy — never a
    /// silently padded, non-connected "order" a validation-bypassing caller could
    /// hand to the backtracking engine.
    #[test]
    fn disconnected_queries_are_rejected_by_every_strategy() {
        let q = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        for &s in &OrderingStrategy::ALL {
            let err = compute_order(&q, &sizes(4, 3), s).unwrap_err();
            let OrderingError::Disconnected { vertex } = err;
            assert!(vertex == 2 || vertex == 3, "strategy {s:?}: {vertex}");
        }
        // An isolated vertex (no edges at all) is equally rejected.
        let isolated = graph_from_edges(&[0, 0], &[]);
        for &s in &OrderingStrategy::ALL {
            assert!(
                compute_order(&isolated, &sizes(2, 1), s).is_err(),
                "strategy {s:?}"
            );
        }
    }
}
