//! Descriptive statistics for graphs, used by the workload catalog and by
//! `EXPERIMENTS.md` to report the generated datasets in the same terms the paper uses
//! (vertex/edge/label counts, average and maximum degree).

use crate::graph::Graph;

/// Summary statistics of a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct GraphStats {
    /// Number of vertices.
    pub vertices: usize,
    /// Number of undirected edges.
    pub edges: usize,
    /// Number of distinct labels actually used.
    pub labels_used: usize,
    /// Average degree (2|E|/|V|).
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Number of isolated (degree-0) vertices.
    pub isolated_vertices: usize,
    /// Number of triangles.
    pub triangles: usize,
}

impl GraphStats {
    /// Computes statistics for `g`. Triangle counting is O(Σ deg²); avoid on huge
    /// graphs unless needed (pass `count_triangles = false` to skip it).
    pub fn compute(g: &Graph, count_triangles: bool) -> Self {
        let labels_used = {
            let mut seen = vec![false; g.label_count().max(1)];
            for &l in g.labels() {
                seen[l as usize] = true;
            }
            seen.iter().filter(|&&b| b).count()
        };
        GraphStats {
            vertices: g.vertex_count(),
            edges: g.edge_count(),
            labels_used,
            average_degree: g.average_degree(),
            max_degree: g.max_degree(),
            isolated_vertices: g.vertices().filter(|&v| g.degree(v) == 0).count(),
            triangles: if count_triangles {
                crate::algo::triangle_count(g)
            } else {
                0
            },
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "|V|={} |E|={} labels={} avg_deg={:.2} max_deg={}",
            self.vertices, self.edges, self.labels_used, self.average_degree, self.max_degree
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    #[test]
    fn stats_of_triangle_plus_isolated() {
        let g = graph_from_edges(&[0, 0, 1, 2], &[(0, 1), (1, 2), (2, 0)]);
        let s = GraphStats::compute(&g, true);
        assert_eq!(s.vertices, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.labels_used, 3);
        assert_eq!(s.max_degree, 2);
        assert_eq!(s.isolated_vertices, 1);
        assert_eq!(s.triangles, 1);
        assert!((s.average_degree - 1.5).abs() < 1e-9);
        let text = format!("{s}");
        assert!(text.contains("|V|=4"));
    }

    #[test]
    fn stats_can_skip_triangles() {
        let g = graph_from_edges(&[0; 3], &[(0, 1), (1, 2), (2, 0)]);
        let s = GraphStats::compute(&g, false);
        assert_eq!(s.triangles, 0);
    }

    #[test]
    fn empty_graph_stats() {
        let g = crate::GraphBuilder::new().build();
        let s = GraphStats::compute(&g, true);
        assert_eq!(s.vertices, 0);
        assert_eq!(s.labels_used, 0);
    }
}
