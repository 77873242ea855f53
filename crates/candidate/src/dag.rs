//! Query DAGs for dynamic-programming candidate refinement.
//!
//! DAF/VEQ-style candidate filtering works over a rooted DAG of the query graph: the
//! root is the most selective query vertex (fewest initial candidates per unit degree),
//! vertices are ordered by BFS from the root, and every query edge is directed from the
//! earlier to the later endpoint. Refinement then alternates top-down passes (parents
//! constrain children) and bottom-up passes (children constrain parents).

use gup_graph::algo::bfs_order;
use gup_graph::{Graph, VertexId};

/// A rooted DAG over the query graph's vertices.
#[derive(Clone, Debug)]
pub struct QueryDag {
    root: VertexId,
    /// Topological order of the query vertices (BFS order from the root).
    topo_order: Vec<VertexId>,
    /// `parents[u]` = query vertices with a DAG edge into `u`.
    parents: Vec<Vec<VertexId>>,
    /// `children[u]` = query vertices with a DAG edge out of `u`.
    children: Vec<Vec<VertexId>>,
}

impl QueryDag {
    /// Builds a DAG rooted at `root` by BFS over `query` (ties between same-level
    /// vertices are broken by vertex id, making the construction deterministic).
    pub fn rooted_at(query: &Graph, root: VertexId) -> Self {
        let n = query.vertex_count();
        let mut topo_order = bfs_order(query, &[root]);
        let mut position = vec![usize::MAX; n];
        for (i, &v) in topo_order.iter().enumerate() {
            position[v as usize] = i;
        }
        // Disconnected query vertices (callers validate connectivity, but stay robust).
        for v in 0..n as VertexId {
            if position[v as usize] == usize::MAX {
                position[v as usize] = topo_order.len();
                topo_order.push(v);
            }
        }
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        for (a, b) in query.edges() {
            let (from, to) = if position[a as usize] < position[b as usize] {
                (a, b)
            } else {
                (b, a)
            };
            children[from as usize].push(to);
            parents[to as usize].push(from);
        }
        QueryDag {
            root,
            topo_order,
            parents,
            children,
        }
    }

    /// Builds a DAG rooted at the most selective query vertex: the one minimizing
    /// `|initial candidates| / degree` (the DAF root-selection rule). `candidate_sizes`
    /// gives the initial candidate-set size per query vertex.
    pub fn with_selective_root(query: &Graph, candidate_sizes: &[usize]) -> Self {
        assert_eq!(candidate_sizes.len(), query.vertex_count());
        let root = (0..query.vertex_count() as VertexId)
            .min_by(|&a, &b| {
                let score = |v: VertexId| {
                    candidate_sizes[v as usize] as f64 / query.degree(v).max(1) as f64
                };
                score(a)
                    .partial_cmp(&score(b))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .unwrap_or(0);
        QueryDag::rooted_at(query, root)
    }

    /// The DAG root.
    #[inline]
    pub fn root(&self) -> VertexId {
        self.root
    }

    /// Topological (BFS) order of the query vertices, root first.
    #[inline]
    pub fn topological_order(&self) -> &[VertexId] {
        &self.topo_order
    }

    /// DAG parents of `u`.
    #[inline]
    pub fn parents(&self, u: VertexId) -> &[VertexId] {
        &self.parents[u as usize]
    }

    /// DAG children of `u`.
    #[inline]
    pub fn children(&self, u: VertexId) -> &[VertexId] {
        &self.children[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;

    fn cycle5() -> Graph {
        graph_from_edges(&[0, 1, 2, 3, 0], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    }

    #[test]
    fn dag_covers_all_edges_exactly_once() {
        let q = cycle5();
        let dag = QueryDag::rooted_at(&q, 0);
        let directed: usize = (0..5).map(|v| dag.children(v).len()).sum();
        assert_eq!(directed, q.edge_count());
        // Every edge appears as exactly one parent/child relation.
        for (a, b) in q.edges() {
            let forward = dag.children(a).contains(&b);
            let backward = dag.children(b).contains(&a);
            assert!(forward ^ backward);
        }
    }

    #[test]
    fn topological_order_respects_dag_edges() {
        let q = cycle5();
        let dag = QueryDag::rooted_at(&q, 2);
        assert_eq!(dag.root(), 2);
        let pos: Vec<usize> = {
            let mut p = vec![0; 5];
            for (i, &v) in dag.topological_order().iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for v in 0..5u32 {
            for &c in dag.children(v) {
                assert!(pos[v as usize] < pos[c as usize]);
            }
        }
        assert_eq!(dag.topological_order().len(), 5);
    }

    #[test]
    fn root_has_no_parents() {
        let q = cycle5();
        for root in 0..5u32 {
            let dag = QueryDag::rooted_at(&q, root);
            assert!(dag.parents(root).is_empty());
        }
    }

    #[test]
    fn selective_root_prefers_small_candidate_sets() {
        let q = cycle5();
        // Vertex 3 has far fewer candidates per degree than the others.
        let sizes = vec![100, 100, 100, 2, 100];
        let dag = QueryDag::with_selective_root(&q, &sizes);
        assert_eq!(dag.root(), 3);
    }

    #[test]
    fn selective_root_breaks_ties_by_id() {
        let q = cycle5();
        let sizes = vec![10; 5];
        let dag = QueryDag::with_selective_root(&q, &sizes);
        assert_eq!(dag.root(), 0);
    }

    #[test]
    fn single_vertex_query() {
        let q = graph_from_edges(&[7], &[]);
        let dag = QueryDag::rooted_at(&q, 0);
        assert_eq!(dag.topological_order(), &[0]);
        assert!(dag.children(0).is_empty());
        assert!(dag.parents(0).is_empty());
    }

    #[test]
    fn star_query_children_from_center() {
        let q = graph_from_edges(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let dag = QueryDag::rooted_at(&q, 0);
        assert_eq!(dag.children(0).len(), 3);
        for leaf in 1..4u32 {
            assert_eq!(dag.parents(leaf), &[0]);
            assert!(dag.children(leaf).is_empty());
        }
    }
}
