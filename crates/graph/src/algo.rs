//! Small graph algorithms required by the matcher and the workload generators.
//!
//! * [`two_core`] — GuP generates nogood guards on edges only inside the query's
//!   2-core (§3.3.3 of the paper).
//! * [`connected_components`] / [`is_connected`] — query graphs must be connected for
//!   a connected matching order to exist.
//! * [`bfs_order`] — the one breadth-first vertex order: the refinement DAG, the
//!   plain BFS matching order and the standing-query seed orders all take theirs
//!   from it.
//! * [`triangle_count`] — reported by the dataset statistics.

use crate::graph::Graph;
use crate::types::VertexId;

/// Returns the set of vertices in the 2-core of `g` as a boolean membership vector.
///
/// The 2-core is the maximal subgraph in which every vertex has degree ≥ 2; vertices
/// outside it form the "tree fringe" of the graph.
pub fn two_core(g: &Graph) -> Vec<bool> {
    k_core(g, 2)
}

/// Returns membership in the k-core of `g`.
pub fn k_core(g: &Graph, k: usize) -> Vec<bool> {
    let n = g.vertex_count();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v as VertexId)).collect();
    let mut in_core = vec![true; n];
    let mut stack: Vec<VertexId> = (0..n as VertexId)
        .filter(|&v| deg[v as usize] < k)
        .collect();
    for &v in &stack {
        in_core[v as usize] = false;
    }
    while let Some(v) = stack.pop() {
        for &w in g.neighbors(v) {
            if in_core[w as usize] {
                deg[w as usize] -= 1;
                if deg[w as usize] < k {
                    in_core[w as usize] = false;
                    stack.push(w);
                }
            }
        }
    }
    in_core
}

/// Labels each vertex with a component id in `0..component_count` and returns
/// `(component_of, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<u32>, usize) {
    let n = g.vertex_count();
    let mut comp = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n as VertexId {
        if comp[s as usize] != u32::MAX {
            continue;
        }
        comp[s as usize] = count;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &w in g.neighbors(v) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (comp, count as usize)
}

/// Returns `true` if `g` is connected (the empty graph counts as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.vertex_count() == 0 || connected_components(g).1 == 1
}

/// Breadth-first order from `roots`: the roots first, in the given order, then
/// every vertex they reach, each neighbor list scanned in ascending id order.
/// Vertices no root reaches are left out, so a result shorter than
/// `g.vertex_count()` means some vertex is unreachable.
pub fn bfs_order(g: &Graph, roots: &[VertexId]) -> Vec<VertexId> {
    let mut placed = vec![false; g.vertex_count()];
    let mut order = Vec::with_capacity(g.vertex_count());
    for &root in roots {
        if !placed[root as usize] {
            placed[root as usize] = true;
            order.push(root);
        }
    }
    let mut head = 0;
    while let Some(&v) = order.get(head) {
        head += 1;
        for &w in g.neighbors(v) {
            if !placed[w as usize] {
                placed[w as usize] = true;
                order.push(w);
            }
        }
    }
    order
}

/// Counts triangles in `g` (each triangle counted once).
pub fn triangle_count(g: &Graph) -> usize {
    let mut count = 0usize;
    for v in g.vertices() {
        let nv = g.neighbors(v);
        for (i, &a) in nv.iter().enumerate() {
            if a <= v {
                continue;
            }
            for &b in &nv[i + 1..] {
                if b > a && g.has_edge(a, b) {
                    count += 1;
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;

    fn triangle_with_tail() -> Graph {
        // 0-1-2 triangle, 2-3-4 path tail.
        graph_from_edges(&[0; 5], &[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    }

    #[test]
    fn two_core_excludes_tree_fringe() {
        let g = triangle_with_tail();
        let core = two_core(&g);
        assert_eq!(core, vec![true, true, true, false, false]);
    }

    #[test]
    fn two_core_of_tree_is_empty() {
        let g = graph_from_edges(&[0; 4], &[(0, 1), (1, 2), (1, 3)]);
        assert!(two_core(&g).iter().all(|&b| !b));
    }

    #[test]
    fn k_core_cascades() {
        // A 4-clique with a pendant: the 3-core is the clique only.
        let g = graph_from_edges(
            &[0; 5],
            &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)],
        );
        let core3 = k_core(&g, 3);
        assert_eq!(core3, vec![true, true, true, true, false]);
        let core5 = k_core(&g, 5);
        assert!(core5.iter().all(|&b| !b));
    }

    #[test]
    fn connected_components_counts() {
        let g = graph_from_edges(&[0; 5], &[(0, 1), (2, 3)]);
        let (comp, n) = connected_components(&g);
        assert_eq!(n, 3);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
        assert_ne!(comp[4], comp[0]);
        assert!(!is_connected(&g));
        assert!(is_connected(&triangle_with_tail()));
    }

    #[test]
    fn empty_graph_is_connected() {
        let g = crate::GraphBuilder::new().build();
        assert!(is_connected(&g));
    }

    #[test]
    fn bfs_order_from_roots() {
        let g = triangle_with_tail();
        assert_eq!(bfs_order(&g, &[0]), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_order(&g, &[4]), vec![4, 3, 2, 0, 1]);
        // Every root comes first, in the given order, before anything it reaches.
        assert_eq!(bfs_order(&g, &[3, 1]), vec![3, 1, 2, 4, 0]);
    }

    #[test]
    fn bfs_order_leaves_out_unreached_vertices() {
        let g = graph_from_edges(&[0; 4], &[(0, 1), (2, 3)]);
        assert_eq!(bfs_order(&g, &[1]), vec![1, 0]);
        assert_eq!(bfs_order(&g, &[3, 0]), vec![3, 0, 2, 1]);
    }

    #[test]
    fn triangle_counts() {
        assert_eq!(triangle_count(&triangle_with_tail()), 1);
        let k4 = graph_from_edges(&[0; 4], &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(triangle_count(&k4), 4);
        let path = graph_from_edges(&[0; 3], &[(0, 1), (1, 2)]);
        assert_eq!(triangle_count(&path), 0);
    }
}
