//! Immutable CSR graph with a label index.

use crate::types::{Label, VertexId};

/// A vertex-labeled simple undirected graph in compressed sparse row form.
///
/// Construction goes through [`crate::GraphBuilder`] (or the loaders/generators), which
/// guarantee the invariants the matcher relies on:
///
/// * adjacency lists are sorted and free of duplicates and self loops,
/// * `offsets.len() == vertex_count + 1`, and
/// * the label index covers every vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
    labels: Vec<Label>,
    edge_count: usize,
    /// Vertices grouped by label: `label_offsets[l]..label_offsets[l+1]` indexes into
    /// `vertices_by_label`.
    label_offsets: Vec<usize>,
    vertices_by_label: Vec<VertexId>,
    label_count: usize,
}

impl Graph {
    /// Assembles a graph from prebuilt CSR arrays. Intended for [`crate::GraphBuilder`]
    /// and the loaders; external users should prefer the builder.
    pub(crate) fn from_csr(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
        edge_count: usize,
    ) -> Self {
        let label_count = labels.iter().map(|&l| l as usize + 1).max().unwrap_or(0);
        let mut counts = vec![0usize; label_count];
        for &l in &labels {
            counts[l as usize] += 1;
        }
        let mut label_offsets = Vec::with_capacity(label_count + 1);
        let mut acc = 0usize;
        label_offsets.push(0);
        for c in &counts {
            acc += c;
            label_offsets.push(acc);
        }
        let mut vertices_by_label = vec![0 as VertexId; labels.len()];
        let mut cursor = label_offsets[..label_count].to_vec();
        for (v, &l) in labels.iter().enumerate() {
            vertices_by_label[cursor[l as usize]] = v as VertexId;
            cursor[l as usize] += 1;
        }
        Graph::with_label_index(
            offsets,
            neighbors,
            labels,
            edge_count,
            label_offsets,
            vertices_by_label,
        )
    }

    /// Assembles a graph from prebuilt CSR arrays and a label index already
    /// built for `labels`: `label_offsets` has `label_count + 1` entries and
    /// `vertices_by_label` lists each label's vertices by ascending id. For
    /// `PreparedData::apply`, which extends the old index instead of
    /// re-sorting every vertex.
    pub(crate) fn with_label_index(
        offsets: Vec<usize>,
        neighbors: Vec<VertexId>,
        labels: Vec<Label>,
        edge_count: usize,
        label_offsets: Vec<usize>,
        vertices_by_label: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        debug_assert_eq!(vertices_by_label.len(), labels.len());
        let label_count = label_offsets.len() - 1;
        Graph {
            offsets,
            neighbors,
            labels,
            edge_count,
            label_offsets,
            vertices_by_label,
            label_count,
        }
    }

    /// The label index as raw arrays `(label_offsets, vertices_by_label)`, for
    /// incremental maintenance (`PreparedData::apply`).
    #[inline]
    pub(crate) fn label_index(&self) -> (&[usize], &[VertexId]) {
        (&self.label_offsets, &self.vertices_by_label)
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

    /// Number of distinct labels (labels are assumed dense in `0..label_count`).
    #[inline]
    pub fn label_count(&self) -> usize {
        self.label_count
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

    /// Vertices carrying label `l` (sorted by id). Empty slice for unknown labels.
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        let (lo, hi) = self.label_bounds(l);
        &self.vertices_by_label[lo..hi]
    }

    /// Position range `lo..hi` of label `l`'s bucket in the label index, as a
    /// pair; `(0, 0)` for unknown labels. Arrays kept parallel to the label
    /// index (`PreparedData`'s neighbor-label masks) slice with it.
    #[inline]
    pub(crate) fn label_bounds(&self, l: Label) -> (usize, usize) {
        let l = l as usize;
        if l >= self.label_count {
            return (0, 0);
        }
        (self.label_offsets[l], self.label_offsets[l + 1])
    }

    /// Number of vertices carrying label `l`.
    #[inline]
    pub fn label_frequency(&self, l: Label) -> usize {
        self.vertices_with_label(l).len()
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

    /// Neighborhood label frequency of `v`: for each label, how many neighbors of `v`
    /// carry it. Returned as a dense vector of length `label_count`.
    pub fn neighborhood_label_frequency(&self, v: VertexId) -> Vec<u32> {
        let mut nlf = vec![0u32; self.label_count];
        for &w in self.neighbors(v) {
            nlf[self.label(w) as usize] += 1;
        }
        nlf
    }

    /// Approximate heap footprint of the graph in bytes (used by the Table-3 memory
    /// experiment).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.neighbors.capacity() * std::mem::size_of::<VertexId>()
            + self.labels.capacity() * std::mem::size_of::<Label>()
            + self.label_offsets.capacity() * std::mem::size_of::<usize>()
            + self.vertices_by_label.capacity() * std::mem::size_of::<VertexId>()
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
    fn label_index() {
        let g = path4();
        assert_eq!(g.vertices_with_label(0), &[0, 2]);
        assert_eq!(g.vertices_with_label(1), &[1, 3]);
        assert_eq!(g.vertices_with_label(9), &[] as &[u32]);
        assert_eq!(g.label_frequency(0), 2);
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
        assert_eq!(g.neighborhood_label_frequency(0), vec![0, 2, 1]);
        assert_eq!(g.neighborhood_label_frequency(1), vec![1, 0, 0]);
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
