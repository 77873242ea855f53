//! Immutable CSR graph: adjacency plus vertex labels.
//!
//! A `Graph` holds no label index. The data graph's label inverted index lives
//! in [`crate::PreparedData`], next to the neighbor-label masks that follow its
//! order, so a query graph never allocates by its largest label.

use crate::types::{Label, VertexId};

/// A vertex-labeled simple undirected graph in compressed sparse row form.
///
/// Construction goes through [`crate::GraphBuilder`] (or the loaders/generators), which
/// guarantee the invariants the matcher relies on:
///
/// * adjacency lists are sorted and free of duplicates and self loops, and
/// * `offsets.len() == vertex_count + 1`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    labels: Vec<Label>,
    edge_count: usize,
}

impl Graph {
    /// Assembles a graph from prebuilt CSR arrays. Intended for [`crate::GraphBuilder`],
    /// the loaders and `PreparedData::apply`; external users should prefer the builder.
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
        edge_count: usize,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        Graph {
            offsets,
            neighbors,
            labels,
            edge_count,
        }
    }

    /// Raw CSR offsets array (`vertex_count + 1` entries). For the on-disk index
    /// writer in [`crate::index_io`]; external users should go through
    /// [`Graph::neighbors`].
    #[inline]
    pub(crate) fn csr_offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Raw flat adjacency array (every vertex's sorted neighbor list,
    /// concatenated). For the on-disk index writer in [`crate::index_io`].
    #[inline]
    pub(crate) fn csr_neighbors(&self) -> &[VertexId] {
        &self.neighbors
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.labels.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// One more than the largest label (0 for the empty graph): labels are
    /// assumed dense in `0..label_count`. A scan over every vertex label, run
    /// once by a prepare or an index load; no query or delta path calls it.
    pub fn label_count(&self) -> usize {
        self.labels
            .iter()
            .map(|&l| l as usize + 1)
            .max()
            .unwrap_or(0)
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels[v as usize]
    }

    /// All labels, indexed by vertex id.
    #[inline]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Sorted adjacency list of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Adjacency test via binary search on the sorted neighbor list: O(log deg).
    #[inline]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        // Search from the lower-degree endpoint.
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// Iterator over all vertex ids.
    #[inline]
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        0..self.vertex_count() as VertexId
    }

    /// Iterator over all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |v| {
            self.neighbors(v)
                .iter()
                .copied()
                .filter(move |&w| v < w)
                .map(move |w| (v, w))
        })
    }

    /// Average degree `2|E| / |V|` (0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.vertex_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.vertex_count() as f64
        }
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Number of neighbors of `v` carrying label `l`.
    pub fn labeled_degree(&self, v: VertexId, l: Label) -> usize {
        self.neighbors(v)
            .iter()
            .filter(|&&w| self.label(w) == l)
            .count()
    }

    /// Approximate heap footprint of the graph in bytes (used by the Table-3 memory
    /// experiment).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
            + self.labels.capacity() * std::mem::size_of::<Label>()
    }

    /// Extracts the subgraph induced by `vertices` (in the given order: induced vertex
    /// `i` corresponds to `vertices[i]`). Duplicate ids are ignored after the first
    /// occurrence.
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> Graph {
        let mut builder = crate::GraphBuilder::with_capacity(vertices.len(), vertices.len() * 2);
        let mut index = std::collections::HashMap::with_capacity(vertices.len());
        let mut kept: Vec<VertexId> = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if index.contains_key(&v) {
                continue;
            }
            let new_id = builder.add_vertex(self.label(v));
            index.insert(v, new_id);
            kept.push(v);
        }
        for &v in &kept {
            for &w in self.neighbors(v) {
                if let Some(&nw) = index.get(&w) {
                    let nv = index[&v];
                    if nv < nw {
                        builder.add_edge(nv, nw);
                    }
                }
            }
        }
        builder.build()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::graph_from_edges;

    fn path4() -> crate::Graph {
        graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = path4();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.label_count(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert_eq!(g.max_degree(), 2);
        assert!((g.average_degree() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = path4();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn labeled_degree_and_nlf() {
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.labeled_degree(0, 1), 2);
        assert_eq!(g.labeled_degree(0, 2), 1);
        assert_eq!(g.labeled_degree(0, 0), 0);
        assert_eq!(g.labeled_degree(1, 0), 1);
        assert_eq!(g.labeled_degree(1, 1), 0);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Triangle 0-1-2 plus pendant 3.
        let g = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let sub = g.induced_subgraph(&[2, 0, 1]);
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        // New id 0 is old 2 (label 2).
        assert_eq!(sub.label(0), 2);
        assert_eq!(sub.label(1), 0);
        let pendant = g.induced_subgraph(&[0, 3]);
        assert_eq!(pendant.edge_count(), 0);
    }

    #[test]
    fn induced_subgraph_ignores_duplicates() {
        let g = graph_from_edges(&[0, 0], &[(0, 1)]);
        let sub = g.induced_subgraph(&[0, 1, 0, 1]);
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
    }

    #[test]
    fn heap_bytes_nonzero_for_nonempty_graph() {
        let g = path4();
        assert!(g.heap_bytes() > 0);
    }
}
