//! The candidate space: candidate-vertex sets plus candidate edges.
//!
//! This is the auxiliary structure (a *CS* in DAF's terminology, §2.1/§3.1 of the GuP
//! paper) that backtracking runs over. Construction, always against a prepared data
//! graph:
//!
//! 1. initial candidates via NLF, which implies LDF: one pass over each query
//!    vertex's label bucket in the [`PreparedData`], screening by neighbor-label
//!    mask and deciding the mask hits by signature comparison,
//! 2. DAG-graph-DP-style refinement: alternating bottom-up / top-down passes over a
//!    query DAG remove candidates that cannot be extended towards every DAG child
//!    (resp. parent),
//! 3. materialization of candidate edges: for every query edge `(a, b)` and candidate
//!    `v ∈ C(a)`, the list of candidates of `b` adjacent to `v` in the data graph,
//!    stored as indices into `C(b)` so the matcher never touches a hash table in its
//!    hot loop.
//!
//! Steps 2 and 3 index data vertices through one pooled
//! [`VertexMap`] (`gup_graph::scratch`), emptied by an epoch bump between uses, so
//! after a thread's first query they cost in proportion to the candidate space,
//! not to the data graph.

use crate::dag::QueryDag;
use crate::filters::nlf_candidates_prepared_sampled;
use gup_graph::deadline::{DeadlineExceeded, DeadlineSampler};
use gup_graph::scratch::VertexMap;
use gup_graph::{Graph, PreparedData, VertexId};
use std::time::Instant;

/// Configuration of the candidate-space construction.
#[derive(Clone, Debug)]
pub struct FilterConfig {
    /// Number of refinement passes over the query DAG (each pass = one bottom-up and
    /// one top-down sweep). DAF/VEQ use a small constant; 3 is the common default.
    pub refinement_passes: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            refinement_passes: 3,
        }
    }
}

/// Per-query-edge candidate adjacency: forward lists (indices into the candidates
/// of the edge's higher endpoint, per candidate of the lower one) and the reverse.
type EdgeAdjacency = (Vec<Vec<u32>>, Vec<Vec<u32>>);

/// Candidate-vertex sets and candidate edges for a (query, data) pair.
///
/// Query vertices are indexed by their id in the query graph passed to
/// [`CandidateSpace::build_prepared`]; use [`CandidateSpace::permuted`] to re-index
/// the space into a matching order.
#[derive(Clone, Debug)]
pub struct CandidateSpace {
    query_vertex_count: usize,
    /// `candidates[u]` = sorted data-vertex ids that are candidates of query vertex `u`.
    candidates: Vec<Vec<VertexId>>,
    /// Query edges `(a, b)` with `a < b`, in a fixed order; `edge_id[(a, b)]` is the
    /// index into `adjacency`.
    edges: Vec<(usize, usize)>,
    /// `adjacency[e].0[ia]` = indices (into `candidates[b]`) of candidates of `b`
    /// adjacent to `candidates[a][ia]`; `adjacency[e].1` is the reverse direction.
    adjacency: Vec<EdgeAdjacency>,
    /// Dense lookup: `edge_lookup[a * n + b]` = edge id + 1, or 0 if `(a, b)` is not a
    /// query edge.
    edge_lookup: Vec<u32>,
}

impl CandidateSpace {
    /// Builds the candidate space for `query` against a prepared data graph.
    pub fn build_prepared(query: &Graph, prepared: &PreparedData, config: &FilterConfig) -> Self {
        Self::build_prepared_deadline(query, prepared, config, None)
            .expect("construction without a deadline cannot time out")
    }

    /// Deadline-aware [`CandidateSpace::build_prepared`]: the whole construction —
    /// initial per-vertex filters, DAG-DP refinement, and candidate-edge
    /// materialization — samples `deadline` at a work-bounded cadence
    /// ([`gup_graph::deadline::DEADLINE_CHECK_INTERVAL`] small work units per clock
    /// read) and returns the typed [`DeadlineExceeded`] instead of overrunning a
    /// tight budget before the search even starts.
    pub fn build_prepared_deadline(
        query: &Graph,
        prepared: &PreparedData,
        config: &FilterConfig,
        deadline: Option<Instant>,
    ) -> Result<Self, DeadlineExceeded> {
        let n = query.vertex_count();
        let data = prepared.graph();
        let mut sampler = DeadlineSampler::new(deadline);
        sampler.check()?;
        // Step 1: per-vertex filters.
        let mut candidates: Vec<Vec<VertexId>> = Vec::with_capacity(n);
        for u in 0..n as VertexId {
            candidates.push(nlf_candidates_prepared_sampled(
                query,
                prepared,
                u,
                &mut sampler,
            )?);
        }

        // Step 2: DAG-graph-DP refinement.
        let mut scratch = VertexMap::take(data.vertex_count());
        if n > 1 && config.refinement_passes > 0 {
            let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
            let dag = QueryDag::with_selective_root(query, &sizes);
            for _ in 0..config.refinement_passes {
                let changed_up = refine_pass(
                    data,
                    &dag,
                    &mut candidates,
                    &mut scratch,
                    Direction::BottomUp,
                    &mut sampler,
                )?;
                let changed_down = refine_pass(
                    data,
                    &dag,
                    &mut candidates,
                    &mut scratch,
                    Direction::TopDown,
                    &mut sampler,
                )?;
                if !changed_up && !changed_down {
                    break;
                }
            }
        }

        // Step 3: candidate edges.
        sampler.check()?;
        let edges: Vec<(usize, usize)> = query
            .edges()
            .map(|(a, b)| (a as usize, b as usize))
            .collect();
        let mut edge_lookup = vec![0u32; n * n];
        let mut adjacency = Vec::with_capacity(edges.len());
        for (eid, &(a, b)) in edges.iter().enumerate() {
            edge_lookup[a * n + b] = eid as u32 + 1;
            edge_lookup[b * n + a] = eid as u32 + 1;
            // Index of each candidate of b within candidates[b].
            scratch.clear();
            for (ib, &vb) in candidates[b].iter().enumerate() {
                scratch.insert(vb, ib as u32);
            }
            let mut forward: Vec<Vec<u32>> = vec![Vec::new(); candidates[a].len()];
            let mut backward: Vec<Vec<u32>> = vec![Vec::new(); candidates[b].len()];
            for (ia, &va) in candidates[a].iter().enumerate() {
                sampler.tick()?;
                for &w in data.neighbors(va) {
                    if let Some(ib) = scratch.get(w) {
                        forward[ia].push(ib);
                        backward[ib as usize].push(ia as u32);
                    }
                }
            }
            for list in backward.iter_mut() {
                list.sort_unstable();
            }
            adjacency.push((forward, backward));
        }
        Ok(CandidateSpace {
            query_vertex_count: n,
            candidates,
            edges,
            adjacency,
            edge_lookup,
        })
    }

    /// Number of query vertices this space was built for.
    #[inline]
    pub fn query_vertex_count(&self) -> usize {
        self.query_vertex_count
    }

    /// Candidate data vertices of query vertex `u` (sorted by data-vertex id).
    #[inline]
    pub fn candidates(&self, u: usize) -> &[VertexId] {
        &self.candidates[u]
    }

    /// Sizes of all candidate sets.
    pub fn candidate_sizes(&self) -> Vec<usize> {
        self.candidates.iter().map(Vec::len).collect()
    }

    /// `true` if some query vertex has no candidates (no embedding can exist).
    pub fn any_empty(&self) -> bool {
        self.candidates.iter().any(Vec::is_empty)
    }

    /// Total number of candidate vertices.
    pub fn total_candidates(&self) -> usize {
        self.candidates.iter().map(Vec::len).sum()
    }

    /// Total number of candidate edges (each counted once).
    pub fn total_candidate_edges(&self) -> usize {
        self.adjacency
            .iter()
            .map(|(fwd, _)| fwd.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// Returns the candidate indices of query vertex `b` adjacent (in the data graph)
    /// to candidate `index_in_a` of query vertex `a`. `a` and `b` must be adjacent in
    /// the query graph; panics otherwise.
    #[inline]
    pub fn adjacent_candidates(&self, a: usize, index_in_a: usize, b: usize) -> &[u32] {
        let eid = self.edge_lookup[a * self.query_vertex_count + b];
        assert!(eid != 0, "query vertices {a} and {b} are not adjacent");
        let eid = (eid - 1) as usize;
        let (qa, _qb) = self.edges[eid];
        if qa == a {
            &self.adjacency[eid].0[index_in_a]
        } else {
            &self.adjacency[eid].1[index_in_a]
        }
    }

    /// The query edges `(a, b)` (with `a < b`) in candidate-edge-id order.
    #[inline]
    pub fn edge_list(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Candidate-edge id of the query edge between `a` and `b`, if they are adjacent.
    #[inline]
    pub fn edge_id(&self, a: usize, b: usize) -> Option<usize> {
        let e = self.edge_lookup[a * self.query_vertex_count + b];
        if e == 0 {
            None
        } else {
            Some((e - 1) as usize)
        }
    }

    /// For candidate edge `eid` between query vertices `(a, b)` with `a < b`: the
    /// candidate indices of `b` adjacent to candidate `index_in_a` of `a`, in the same
    /// order as [`CandidateSpace::adjacent_candidates`] returns them. Guard structures
    /// that parallel the adjacency lists are sized/indexed with this accessor.
    #[inline]
    pub fn forward_adjacency(&self, eid: usize, index_in_a: usize) -> &[u32] {
        &self.adjacency[eid].0[index_in_a]
    }

    /// Approximate heap footprint of the candidate space in bytes.
    pub fn heap_bytes(&self) -> usize {
        let cand: usize = self
            .candidates
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<VertexId>())
            .sum();
        let adj: usize = self
            .adjacency
            .iter()
            .map(|(f, b)| {
                f.iter().map(|l| l.capacity() * 4).sum::<usize>()
                    + b.iter().map(|l| l.capacity() * 4).sum::<usize>()
                    + (f.capacity() + b.capacity()) * std::mem::size_of::<Vec<u32>>()
            })
            .sum();
        cand + adj + self.edge_lookup.capacity() * 4
    }

    /// Re-indexes the candidate space so that query vertex `order[i]` becomes vertex
    /// `i`. Candidate contents are unchanged; only the query-vertex indexing moves.
    /// `order` must be a permutation of `0..query_vertex_count`.
    pub fn permuted(&self, order: &[VertexId]) -> CandidateSpace {
        let n = self.query_vertex_count;
        assert_eq!(order.len(), n, "order must be a permutation");
        let mut new_of_old = vec![usize::MAX; n];
        for (new_id, &old) in order.iter().enumerate() {
            new_of_old[old as usize] = new_id;
        }
        assert!(
            new_of_old.iter().all(|&x| x != usize::MAX),
            "order must be a permutation"
        );
        let candidates: Vec<Vec<VertexId>> = order
            .iter()
            .map(|&old| self.candidates[old as usize].clone())
            .collect();
        let mut edges = Vec::with_capacity(self.edges.len());
        let mut adjacency = Vec::with_capacity(self.edges.len());
        let mut edge_lookup = vec![0u32; n * n];
        for (eid, &(old_a, old_b)) in self.edges.iter().enumerate() {
            let na = new_of_old[old_a];
            let nb = new_of_old[old_b];
            let (fwd, bwd) = &self.adjacency[eid];
            let (a, b, f, w) = if na < nb {
                (na, nb, fwd.clone(), bwd.clone())
            } else {
                (nb, na, bwd.clone(), fwd.clone())
            };
            let new_eid = edges.len();
            edges.push((a, b));
            edge_lookup[a * n + b] = new_eid as u32 + 1;
            edge_lookup[b * n + a] = new_eid as u32 + 1;
            adjacency.push((f, w));
        }
        CandidateSpace {
            query_vertex_count: n,
            candidates,
            edges,
            adjacency,
            edge_lookup,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Direction {
    BottomUp,
    TopDown,
}

/// One refinement sweep. In a bottom-up sweep, vertices are processed in reverse
/// topological order and each candidate must have a neighbor among the candidates of
/// every DAG *child*; a top-down sweep is symmetric with parents. Returns whether any
/// candidate was removed.
///
/// Each constraint `c` of `u` marks `C(c)` in `marks` once, then filters `C(u)` in
/// place. `C(c)` does not change while `u` is processed, so this keeps exactly the
/// candidates a per-candidate test against every constraint would. `sampler` ticks
/// once per (candidate, constraint) pair — each pair scans one neighbor list — so a
/// refinement pass over a large candidate set observes a tight deadline mid-sweep.
fn refine_pass(
    data: &Graph,
    dag: &QueryDag,
    candidates: &mut [Vec<VertexId>],
    marks: &mut VertexMap,
    direction: Direction,
    sampler: &mut DeadlineSampler,
) -> Result<bool, DeadlineExceeded> {
    let mut changed = false;
    let order: Vec<VertexId> = match direction {
        Direction::BottomUp => dag.topological_order().iter().rev().copied().collect(),
        Direction::TopDown => dag.topological_order().to_vec(),
    };
    for &u in &order {
        let constraining: &[VertexId] = match direction {
            Direction::BottomUp => dag.children(u),
            Direction::TopDown => dag.parents(u),
        };
        let u = u as usize;
        for &c in constraining {
            marks.clear();
            for &w in &candidates[c as usize] {
                marks.insert(w, 0);
            }
            let list = &mut candidates[u];
            let mut kept = 0;
            for i in 0..list.len() {
                sampler.tick()?;
                let v = list[i];
                if data.neighbors(v).iter().any(|&w| marks.contains(w)) {
                    list[kept] = v;
                    kept += 1;
                }
            }
            if kept != list.len() {
                list.truncate(kept);
                changed = true;
            }
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;

    fn triangle_query() -> Graph {
        graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (2, 0)])
    }

    /// Data graph: a labeled square 0-1-2-3 with diagonal 0-2, plus an isolated
    /// label-1 vertex 4 that must be filtered away by refinement.
    fn square_data() -> Graph {
        graph_from_edges(&[0, 1, 0, 1, 1], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    /// Builds the candidate space with `data` prepared on the spot.
    fn build(query: &Graph, data: &Graph, config: &FilterConfig) -> CandidateSpace {
        CandidateSpace::build_prepared(query, &PreparedData::from_graph(data), config)
    }

    #[test]
    fn build_produces_expected_candidates() {
        let cs = build(&triangle_query(), &square_data(), &FilterConfig::default());
        assert_eq!(cs.query_vertex_count(), 3);
        assert_eq!(cs.candidates(0), &[0, 2]);
        assert_eq!(cs.candidates(2), &[0, 2]);
        // The per-edge filters cannot see that only v1 closes a triangle, so both
        // label-1 square corners survive; the isolated label-1 vertex does not.
        assert_eq!(cs.candidates(1), &[1, 3]);
        assert!(!cs.any_empty());
        assert_eq!(cs.total_candidates(), 6);
    }

    #[test]
    fn adjacency_lists_are_consistent_with_data_edges() {
        let q = triangle_query();
        let d = square_data();
        let cs = build(&q, &d, &FilterConfig::default());
        for (a, b) in q.edges() {
            let (a, b) = (a as usize, b as usize);
            for (ia, &va) in cs.candidates(a).iter().enumerate() {
                for &ib in cs.adjacent_candidates(a, ia, b) {
                    let vb = cs.candidates(b)[ib as usize];
                    assert!(d.has_edge(va, vb), "candidate edge must be a data edge");
                }
            }
            // Reverse direction must agree.
            for (ib, &vb) in cs.candidates(b).iter().enumerate() {
                for &ia in cs.adjacent_candidates(b, ib, a) {
                    let va = cs.candidates(a)[ia as usize];
                    assert!(d.has_edge(va, vb));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn adjacent_candidates_requires_query_edge() {
        // Path query 0-1-2: vertices 0 and 2 are not adjacent.
        let q = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let d = square_data();
        let cs = build(&q, &d, &FilterConfig::default());
        let _ = cs.adjacent_candidates(0, 0, 2);
    }

    #[test]
    fn empty_candidate_set_detected() {
        // Query label 9 does not exist in the data.
        let q = graph_from_edges(&[9, 1], &[(0, 1)]);
        let cs = build(&q, &square_data(), &FilterConfig::default());
        assert!(cs.any_empty());
        assert_eq!(cs.candidates(0), &[] as &[u32]);
    }

    #[test]
    fn refinement_prunes_unextendable_candidates() {
        // Query: path A-B-C-D. Data: one complete A-B-C-D chain (v0-v1-v2-v3), plus
        // an A-B-C stub (v4-v5-v6) whose C vertex has no D neighbor. NLF keeps v5 as
        // a candidate of the B query vertex (it has an A and a C neighbor) but drops
        // v6; DAG refinement then removes v5, which has no surviving C neighbor.
        let q = graph_from_edges(&[0, 1, 2, 3], &[(0, 1), (1, 2), (2, 3)]);
        let d = graph_from_edges(
            &[0, 1, 2, 3, 0, 1, 2],
            &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6)],
        );
        let unrefined = build(
            &q,
            &d,
            &FilterConfig {
                refinement_passes: 0,
            },
        );
        assert_eq!(unrefined.candidates(1), &[1, 5]);
        assert_eq!(unrefined.candidates(2), &[2]);
        let refined = build(
            &q,
            &d,
            &FilterConfig {
                refinement_passes: 3,
            },
        );
        assert_eq!(refined.candidates(1), &[1]);
        assert_eq!(refined.candidates(0), &[0]);
        assert_eq!(refined.candidates(2), &[2]);
        assert_eq!(refined.candidates(3), &[3]);
    }

    #[test]
    fn permuted_space_reindexes_consistently() {
        let q = triangle_query();
        let d = square_data();
        let cs = build(&q, &d, &FilterConfig::default());
        let order = [2u32, 0, 1];
        let p = cs.permuted(&order);
        // New vertex 0 is old vertex 2.
        assert_eq!(p.candidates(0), cs.candidates(2));
        assert_eq!(p.candidates(1), cs.candidates(0));
        assert_eq!(p.candidates(2), cs.candidates(1));
        // Candidate-edge adjacency must be preserved under the renaming: old edge (0,1)
        // becomes new edge (1,2).
        for (ia, _) in cs.candidates(0).iter().enumerate() {
            assert_eq!(
                cs.adjacent_candidates(0, ia, 1),
                p.adjacent_candidates(1, ia, 2)
            );
        }
        // total counts unchanged
        assert_eq!(p.total_candidates(), cs.total_candidates());
        assert_eq!(p.total_candidate_edges(), cs.total_candidate_edges());
    }

    #[test]
    fn expired_deadline_aborts_construction() {
        let q = triangle_query();
        let cfg = FilterConfig::default();
        let past = Some(Instant::now() - std::time::Duration::from_millis(1));
        let prepared = PreparedData::from_graph(&square_data());
        assert!(CandidateSpace::build_prepared_deadline(&q, &prepared, &cfg, past).is_err());
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let q = triangle_query();
        let cfg = FilterConfig::default();
        let future = Some(Instant::now() + std::time::Duration::from_secs(3600));
        let prepared = PreparedData::from_graph(&square_data());
        let a = CandidateSpace::build_prepared(&q, &prepared, &cfg);
        let b = CandidateSpace::build_prepared_deadline(&q, &prepared, &cfg, future).unwrap();
        for u in 0..a.query_vertex_count() {
            assert_eq!(a.candidates(u), b.candidates(u));
        }
        assert_eq!(a.total_candidate_edges(), b.total_candidate_edges());
    }

    #[test]
    fn heap_bytes_positive() {
        let cs = build(&triangle_query(), &square_data(), &FilterConfig::default());
        assert!(cs.heap_bytes() > 0);
    }

    #[test]
    fn paper_figure1_candidate_space() {
        let (q, d) = gup_graph::fixtures::paper_example();
        let cs = build(&q, &d, &FilterConfig::default());
        // v13 must not be a candidate of u0 (NLF, §2.1 of the paper).
        assert!(!cs.candidates(0).contains(&13));
        assert!(!cs.any_empty());
        // Every candidate edge is a data edge with matching labels.
        for (a, b) in q.edges() {
            let (a, b) = (a as usize, b as usize);
            for (ia, &va) in cs.candidates(a).iter().enumerate() {
                for &ib in cs.adjacent_candidates(a, ia, b) {
                    let vb = cs.candidates(b)[ib as usize];
                    assert!(d.has_edge(va, vb));
                    assert_eq!(d.label(va), q.label(a as u32));
                    assert_eq!(d.label(vb), q.label(b as u32));
                }
            }
        }
    }
}
