//! Incremental construction of [`Graph`]s.
//!
//! The matcher assumes *simple undirected* graphs (no self loops, no parallel edges,
//! Definition 2.2 of the paper). [`GraphBuilder`] enforces both during `build`, so
//! loaders and generators can add edges freely.

use crate::graph::Graph;
use crate::types::{Label, VertexId};

/// Builds a [`Graph`] incrementally.
///
/// ```
/// use gup_graph::GraphBuilder;
/// let mut b = GraphBuilder::new();
/// let v0 = b.add_vertex(7);
/// let v1 = b.add_vertex(7);
/// b.add_edge(v0, v1);
/// b.add_edge(v1, v0); // duplicate in the other direction, de-duplicated at build time
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.label(v0), 7);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    labels: Vec<Label>,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty builder with capacity hints.
    pub fn with_capacity(vertices: usize, edges: usize) -> Self {
        GraphBuilder {
            labels: Vec::with_capacity(vertices),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a vertex with the given label and returns its id (ids are assigned
    /// consecutively starting at 0).
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = self.labels.len() as VertexId;
        self.labels.push(label);
        id
    }

    /// Adds `n` vertices all carrying `label`; returns the id of the first one.
    pub fn add_vertices(&mut self, n: usize, label: Label) -> VertexId {
        let first = self.labels.len() as VertexId;
        self.labels.resize(self.labels.len() + n, label);
        first
    }

    /// Number of vertices added so far.
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Adds an undirected edge. An out-of-range endpoint fails a `debug_assert`;
    /// [`GraphBuilder::build`] drops such edges in release builds, and drops self
    /// loops in every build.
    pub fn add_edge(&mut self, a: VertexId, b: VertexId) {
        debug_assert!(
            (a as usize) < self.labels.len() && (b as usize) < self.labels.len(),
            "edge endpoint out of range"
        );
        self.edges.push((a, b));
    }

    /// Returns `true` if an edge between `a` and `b` has already been added (either
    /// direction). Linear scan — intended for small graphs such as queries.
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        self.edges
            .iter()
            .any(|&(x, y)| (x == a && y == b) || (x == b && y == a))
    }

    /// Sets the label of an existing vertex.
    pub fn set_label(&mut self, v: VertexId, label: Label) {
        self.labels[v as usize] = label;
    }

    /// Finalizes the builder into an immutable CSR [`Graph`].
    ///
    /// Self loops and duplicate edges are removed; adjacency lists are sorted, which
    /// enables binary-search `has_edge` on the resulting graph.
    pub fn build(self) -> Graph {
        let n = self.labels.len();
        let mut deg = vec![0u32; n];
        // First pass: count (each undirected edge counts once per endpoint).
        let mut clean: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edges.len());
        for &(a, b) in &self.edges {
            if a == b {
                continue;
            }
            if (a as usize) >= n || (b as usize) >= n {
                continue;
            }
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            clean.push((lo, hi));
        }
        clean.sort_unstable();
        clean.dedup();
        for &(a, b) in &clean {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += *d as usize;
            offsets.push(acc);
        }
        let mut neighbors = vec![0 as VertexId; acc];
        let mut cursor: Vec<usize> = offsets[..n].to_vec();
        for &(a, b) in &clean {
            neighbors[cursor[a as usize]] = b;
            cursor[a as usize] += 1;
            neighbors[cursor[b as usize]] = a;
            cursor[b as usize] += 1;
        }
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Graph::from_csr(offsets, neighbors, self.labels, clean.len())
    }
}

/// Convenience constructor: builds a graph from a label slice and an edge list.
///
/// ```
/// let g = gup_graph::builder::graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
/// assert_eq!(g.degree(1), 2);
/// ```
pub fn graph_from_edges(labels: &[Label], edges: &[(VertexId, VertexId)]) -> Graph {
    let mut b = GraphBuilder::with_capacity(labels.len(), edges.len());
    for &l in labels {
        b.add_vertex(l);
    }
    for &(a, c) in edges {
        b.add_edge(a, c);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn vertices_without_edges() {
        let mut b = GraphBuilder::new();
        b.add_vertex(1);
        b.add_vertex(2);
        let g = b.build();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(0), 0);
    }

    #[test]
    fn duplicate_edges_are_removed() {
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 0), (0, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn self_loops_are_removed() {
        let g = graph_from_edges(&[0, 0], &[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 0));
    }

    #[test]
    fn adjacency_is_sorted() {
        let g = graph_from_edges(&[0; 5], &[(0, 4), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn add_vertices_bulk_and_set_label() {
        let mut b = GraphBuilder::new();
        let first = b.add_vertices(3, 5);
        assert_eq!(first, 0);
        assert_eq!(b.vertex_count(), 3);
        b.set_label(1, 9);
        let g = b.build();
        assert_eq!(g.label(0), 5);
        assert_eq!(g.label(1), 9);
        assert_eq!(g.label(2), 5);
    }

    #[test]
    fn has_edge_on_builder() {
        let mut b = GraphBuilder::new();
        b.add_vertices(3, 0);
        b.add_edge(0, 1);
        assert!(b.has_edge(0, 1));
        assert!(b.has_edge(1, 0));
        assert!(!b.has_edge(0, 2));
    }
}
