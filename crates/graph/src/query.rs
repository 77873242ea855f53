//! Query graphs and matching-order views.
//!
//! The matcher assumes (paper §2.2) that query-vertex ids are numbered in the matching
//! order and that the order is *connected*: every query vertex except `u_0` has a
//! neighbor with a smaller id. [`QueryGraph`] validates the structural requirements
//! (connectivity, size ≤ [`MAX_QUERY_VERTICES`]). [`OrderedQuery`] keeps what a search
//! reads of a query renumbered into a matching order: the backward and forward
//! neighbor lists `N−(u_i)` / `N+(u_i)`, 2-core membership (edge nogood guards,
//! §3.3.3) and the map back to the original vertex ids. It stores no renumbered copy
//! of the graph.
//!
//! [`OrderedQuery`] carries the bitset width `W` of the engine that searches it
//! (`QVSet<W>`, 64 vertices per word) as a width check only: building one for a
//! query wider than `64 * W` fails with [`OrderError::WidthExceeded`]. The engine
//! instantiates the narrowest width that fits the query, so ≤64-vertex queries keep
//! the one-word fast path while 65–256-vertex queries run with two or four words.

use crate::algo::{is_connected, two_core};
use crate::graph::Graph;
use crate::types::{QVSet, VertexId, MAX_QUERY_VERTICES};

/// Errors raised when a graph cannot be used as a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryGraphError {
    /// The query has no vertices.
    Empty,
    /// The query has more vertices than the bitset masks support.
    TooLarge {
        /// Number of vertices in the rejected query.
        vertices: usize,
        /// The ceiling that was exceeded: [`MAX_QUERY_VERTICES`] at the
        /// [`QueryGraph`] boundary, or the instantiated width's capacity when a
        /// width-specific engine rejects a query its bitsets cannot hold.
        limit: usize,
    },
    /// The query is not connected; a connected matching order cannot exist.
    Disconnected,
}

impl QueryGraphError {
    /// The `TooLarge` error for a query of `vertices` vertices at the global
    /// [`MAX_QUERY_VERTICES`] ceiling.
    pub fn too_large(vertices: usize) -> Self {
        QueryGraphError::TooLarge {
            vertices,
            limit: MAX_QUERY_VERTICES,
        }
    }
}

impl std::fmt::Display for QueryGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryGraphError::Empty => write!(f, "query graph has no vertices"),
            QueryGraphError::TooLarge { vertices, limit } => write!(
                f,
                "query graph has {vertices} vertices; at most {limit} are supported"
            ),
            QueryGraphError::Disconnected => write!(f, "query graph is not connected"),
        }
    }
}

impl std::error::Error for QueryGraphError {}

/// A validated query graph.
#[derive(Clone, Debug)]
pub struct QueryGraph {
    graph: Graph,
}

impl QueryGraph {
    /// Validates `graph` as a query: non-empty, connected, at most
    /// [`MAX_QUERY_VERTICES`] vertices.
    pub fn new(graph: Graph) -> Result<Self, QueryGraphError> {
        if graph.vertex_count() == 0 {
            return Err(QueryGraphError::Empty);
        }
        if graph.vertex_count() > MAX_QUERY_VERTICES {
            return Err(QueryGraphError::too_large(graph.vertex_count()));
        }
        if !is_connected(&graph) {
            return Err(QueryGraphError::Disconnected);
        }
        Ok(QueryGraph { graph })
    }

    /// Underlying graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of query vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Number of query edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Checks that this query fits a width-`W` bitset engine (`64 * W` vertices).
    /// The single source of the per-width `TooLarge` rule: every width-specific
    /// engine constructor (`Gcs::<W>`, `BacktrackingBaseline::<W>`) delegates
    /// here, so the capacity policy cannot diverge between engines.
    pub fn check_width<const W: usize>(&self) -> Result<(), QueryGraphError> {
        let capacity = crate::types::QVSet::<W>::CAPACITY;
        if self.vertex_count() > capacity {
            return Err(QueryGraphError::TooLarge {
                vertices: self.vertex_count(),
                limit: capacity,
            });
        }
        Ok(())
    }

    /// Renumbers the query vertices so that `order[i]` becomes vertex `u_i` and returns
    /// the precomputed [`OrderedQuery`] at bitset width `W`. `order` must be a
    /// permutation of the query's vertex ids and must be connected (each prefix
    /// induces a connected subgraph); connectivity of the order is validated, and a
    /// query with more vertices than `64 * W` is rejected with
    /// [`OrderError::WidthExceeded`].
    pub fn with_order<const W: usize>(
        &self,
        order: &[VertexId],
    ) -> Result<OrderedQuery<W>, OrderError> {
        OrderedQuery::new(self, order)
    }
}

/// Errors raised when a matching order is invalid for a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderError {
    /// The order is not a permutation of the query vertices.
    NotAPermutation,
    /// Vertex `u_i` (for some `i > 0`) has no neighbor earlier in the order.
    NotConnected {
        /// Position in the order at which connectivity fails.
        position: usize,
    },
    /// The query does not fit the instantiated bitset width (the engine's width
    /// dispatch picks a sufficient `W` before reaching this constructor).
    WidthExceeded {
        /// Number of vertices in the query.
        vertices: usize,
        /// Capacity of the requested width (`64 * W`).
        capacity: usize,
    },
}

impl std::fmt::Display for OrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderError::NotAPermutation => {
                write!(f, "matching order is not a permutation of the query vertices")
            }
            OrderError::NotConnected { position } => write!(
                f,
                "matching order is not connected: vertex at position {position} has no earlier neighbor"
            ),
            OrderError::WidthExceeded { vertices, capacity } => write!(
                f,
                "query has {vertices} vertices but the instantiated bitset width holds only {capacity}"
            ),
        }
    }
}

impl std::error::Error for OrderError {}

/// A query renumbered into a matching order (`order[i]` becomes `u_i`), reduced to
/// what the backtracking engines read: each `u_i`'s backward and forward neighbors,
/// its 2-core membership, and its original id. `W` is the bitset width of the
/// engine that searches it (64 query vertices per word); construction checks that
/// the query fits.
#[derive(Clone, Debug)]
pub struct OrderedQuery<const W: usize = 1> {
    /// For each `u_i`, its backward neighbors `N−(u_i) = {u_j ∈ N(u_i) | j < i}`.
    backward: Vec<Vec<usize>>,
    /// For each `u_i`, its forward neighbors `N+(u_i) = {u_j ∈ N(u_i) | j > i}`.
    forward: Vec<Vec<usize>>,
    /// Membership of each (renumbered) query vertex in the query's 2-core.
    in_two_core: Vec<bool>,
    /// Map from the renumbered vertex id back to the id in the original query graph.
    original_id: Vec<VertexId>,
}

impl<const W: usize> OrderedQuery<W> {
    fn new(query: &QueryGraph, order: &[VertexId]) -> Result<Self, OrderError> {
        let n = query.vertex_count();
        if n > QVSet::<W>::CAPACITY {
            return Err(OrderError::WidthExceeded {
                vertices: n,
                capacity: QVSet::<W>::CAPACITY,
            });
        }
        if order.len() != n {
            return Err(OrderError::NotAPermutation);
        }
        // position[v] = i for the original vertex v that becomes u_i.
        let mut position = vec![usize::MAX; n];
        for (i, &v) in order.iter().enumerate() {
            if (v as usize) >= n || position[v as usize] != usize::MAX {
                return Err(OrderError::NotAPermutation);
            }
            position[v as usize] = i;
        }
        let graph = query.graph();
        let mut backward = Vec::with_capacity(n);
        let mut forward = Vec::with_capacity(n);
        for (i, &v) in order.iter().enumerate() {
            let mut neighbors: Vec<usize> = graph
                .neighbors(v)
                .iter()
                .map(|&w| position[w as usize])
                .collect();
            neighbors.sort_unstable();
            let split = neighbors.partition_point(|&j| j < i);
            // Connectivity of the order: every u_i (i > 0) must have a backward neighbor.
            if i > 0 && split == 0 {
                return Err(OrderError::NotConnected { position: i });
            }
            forward.push(neighbors.split_off(split));
            backward.push(neighbors);
        }
        let core = two_core(graph);
        Ok(OrderedQuery {
            backward,
            forward,
            in_two_core: order.iter().map(|&v| core[v as usize]).collect(),
            original_id: order.to_vec(),
        })
    }

    /// Number of query vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.original_id.len()
    }

    /// Backward neighbors of `u_i` (ids `< i`), ascending.
    #[inline]
    pub fn backward_neighbors(&self, i: usize) -> &[usize] {
        &self.backward[i]
    }

    /// Forward neighbors of `u_i` (ids `> i`), ascending.
    #[inline]
    pub fn forward_neighbors(&self, i: usize) -> &[usize] {
        &self.forward[i]
    }

    /// `true` when `u_i` belongs to the query's 2-core (edge nogood guards are only
    /// generated inside the 2-core, §3.3.3).
    #[inline]
    pub fn in_two_core(&self, i: usize) -> bool {
        self.in_two_core[i]
    }

    /// Id of `u_i` in the original (pre-renumbering) query graph.
    #[inline]
    pub fn original_id(&self, i: usize) -> VertexId {
        self.original_id[i]
    }

    /// Translates an embedding expressed over the renumbered vertices back into a
    /// mapping indexed by the original query-vertex ids, written into `out`
    /// (cleared and resized), so a caller translating many embeddings can reuse one
    /// scratch buffer.
    pub fn embedding_in_original_ids_into(&self, embedding: &[VertexId], out: &mut Vec<VertexId>) {
        out.clear();
        out.resize(embedding.len(), 0 as VertexId);
        for (i, &v) in embedding.iter().enumerate() {
            out[self.original_id[i] as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn paper_query() -> QueryGraph {
        // Fig. 1(a): u0(A)-u1(B), u1-u2(C), u2-u3(D), u3-u4(A), u4-u0, u1-u4? No: edges
        // are u0-u1, u1-u2, u2-u3, u3-u4, u4-u0 (a 5-cycle with labels A B C D A).
        QueryGraph::new(graph_from_edges(
            &[0, 1, 2, 3, 0],
            &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        ))
        .unwrap()
    }

    #[test]
    fn rejects_empty_query() {
        let g = crate::GraphBuilder::new().build();
        assert_eq!(QueryGraph::new(g).unwrap_err(), QueryGraphError::Empty);
    }

    #[test]
    fn rejects_disconnected_query() {
        let g = graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        assert_eq!(
            QueryGraph::new(g).unwrap_err(),
            QueryGraphError::Disconnected
        );
    }

    #[test]
    fn accepts_queries_up_to_the_widest_bitset() {
        // 65 vertices — beyond the one-word fast path, accepted since the engine
        // went width-generic.
        let mut b = crate::GraphBuilder::new();
        b.add_vertices(65, 0);
        for i in 0..64u32 {
            b.add_edge(i, i + 1);
        }
        let q = QueryGraph::new(b.build()).unwrap();
        assert_eq!(q.vertex_count(), 65);
    }

    #[test]
    fn rejects_oversized_query_at_the_global_ceiling() {
        let mut b = crate::GraphBuilder::new();
        b.add_vertices(MAX_QUERY_VERTICES + 1, 0);
        for i in 0..MAX_QUERY_VERTICES as u32 {
            b.add_edge(i, i + 1);
        }
        let err = QueryGraph::new(b.build()).unwrap_err();
        assert_eq!(
            err,
            QueryGraphError::TooLarge {
                vertices: MAX_QUERY_VERTICES + 1,
                limit: MAX_QUERY_VERTICES,
            }
        );
        assert!(format!("{err}").contains("at most 256"));
    }

    #[test]
    fn ordered_query_rejects_insufficient_width() {
        let mut b = crate::GraphBuilder::new();
        b.add_vertices(65, 0);
        for i in 0..64u32 {
            b.add_edge(i, i + 1);
        }
        let q = QueryGraph::new(b.build()).unwrap();
        let order: Vec<VertexId> = (0..65).collect();
        let err = q.with_order::<1>(&order).unwrap_err();
        assert_eq!(
            err,
            OrderError::WidthExceeded {
                vertices: 65,
                capacity: 64,
            }
        );
        // Two words fit.
        assert!(q.with_order::<2>(&order).is_ok());
    }

    #[test]
    fn ordered_query_neighbor_views() {
        let q = paper_query();
        let oq = q.with_order::<1>(&[0, 1, 2, 3, 4]).unwrap();
        assert_eq!(oq.backward_neighbors(0), &[] as &[usize]);
        assert_eq!(oq.backward_neighbors(1), &[0]);
        assert_eq!(oq.backward_neighbors(4), &[0, 3]);
        assert_eq!(oq.forward_neighbors(0), &[1, 4]);
        assert_eq!(oq.forward_neighbors(4), &[] as &[usize]);
        assert_eq!(oq.backward_neighbors(2), &[1]);
        assert_eq!(oq.forward_neighbors(2), &[3]);
        // Under a reordering each list holds new ids, ascending.
        let oq = q.with_order::<1>(&[2, 1, 0, 4, 3]).unwrap();
        assert_eq!(oq.forward_neighbors(0), &[1, 4]);
        assert_eq!(oq.backward_neighbors(3), &[2]);
        assert_eq!(oq.forward_neighbors(3), &[4]);
        assert_eq!(oq.backward_neighbors(4), &[0, 3]);
    }

    #[test]
    fn ordered_query_validates_connected_order() {
        let q = paper_query();
        // 0,2 is not connected: u1=2 has no neighbor among {0}.
        let err = q.with_order::<1>(&[0, 2, 1, 3, 4]).unwrap_err();
        assert!(matches!(err, OrderError::NotConnected { position: 1 }));
        // Not a permutation.
        let err = q.with_order::<1>(&[0, 0, 1, 2, 3]).unwrap_err();
        assert_eq!(err, OrderError::NotAPermutation);
        let err = q.with_order::<1>(&[0, 1, 2]).unwrap_err();
        assert_eq!(err, OrderError::NotAPermutation);
    }

    #[test]
    fn ordered_query_two_core_membership() {
        // Triangle plus pendant: pendant is outside the 2-core.
        let q = QueryGraph::new(graph_from_edges(
            &[0, 0, 0, 0],
            &[(0, 1), (1, 2), (2, 0), (2, 3)],
        ))
        .unwrap();
        let oq = q.with_order::<1>(&[0, 1, 2, 3]).unwrap();
        assert!(oq.in_two_core(0));
        assert!(oq.in_two_core(2));
        assert!(!oq.in_two_core(3));
        // The whole 5-cycle is its own 2-core.
        let cyc = paper_query().with_order::<1>(&[0, 1, 2, 3, 4]).unwrap();
        assert!((0..5).all(|i| cyc.in_two_core(i)));
    }

    #[test]
    fn reordering_preserves_labels_and_original_ids() {
        let q = paper_query();
        let oq = q.with_order::<1>(&[2, 1, 0, 4, 3]).unwrap();
        assert_eq!(oq.original_id(0), 2);
        // Label C is read through the original id of u_0.
        assert_eq!(q.graph().label(oq.original_id(0)), 2);
        assert_eq!(oq.original_id(4), 3);
        // Edges preserved: original (2,3) -> new (0,4).
        assert!(oq.forward_neighbors(0).contains(&4));
        assert!(oq.backward_neighbors(4).contains(&0));
    }

    #[test]
    fn embedding_translation_back_to_original_ids() {
        let q = paper_query();
        let oq = q.with_order::<1>(&[4, 3, 2, 1, 0]).unwrap();
        // Renumbered embedding assigns u_i -> 100+i.
        let emb: Vec<u32> = (0..5).map(|i| 100 + i).collect();
        let mut back = Vec::new();
        oq.embedding_in_original_ids_into(&emb, &mut back);
        // Original vertex 4 was renumbered to 0, so it maps to 100.
        assert_eq!(back[4], 100);
        assert_eq!(back[0], 104);
    }
}
