//! Reservation-guard generation (paper §3.2.2, Algorithm 1).
//!
//! For every candidate vertex `(u_i, v)` we pick a *reservation*: a set of data
//! vertices that every subembedding rooted at `(u_i, v)` must use. Generation walks the
//! query vertices in reverse matching order and, for each forward neighbor `u_j`,
//! builds the graph `G_R` of Eq. (1) and covers it with a small vertex cover
//! (Lemma 3.11), subject to two constraints:
//!
//! * **matchability** (Lemma 3.7): a reservation that no partial embedding can ever
//!   contain is useless, so candidate sets are rejected when condition (i) or (ii) of
//!   the lemma holds;
//! * **size limit `r`** (default 3): large reservations are rarely matched and are
//!   expensive to generate and test (§3.2.2, Fig. 8).
//!
//! The smallest matchable cover over all forward neighbors becomes the reservation
//! guard; if none exists, the trivial reservation `{v}` is used. Note that correctness
//! never depends on how small or how matchable the chosen reservation is — any set
//! satisfying Definition 3.9 is a valid reservation (Lemma 3.10) — so the heuristics
//! here only influence pruning power.
//!
//! The guards of a query go into one [`ReservationTable`], in generation order.
//! Generation reuses one edge list and two cover buffers for every candidate: a cover
//! grows by push and shrinks by truncate while its extensions are tried, so the
//! allocations of a whole query follow the largest cover, not the candidate count.

use crate::guards::ReservationTable;
use gup_candidate::CandidateSpace;
use gup_graph::query::OrderedQuery;
use gup_graph::scratch::VertexMap;
use gup_graph::{QVSet, VertexId};

/// Inverse candidate index: for each data vertex, the set of query vertices that have
/// it as a candidate (`C⁻¹(v)` in the paper). Compact: one row per distinct
/// candidate vertex, found through a pooled [`VertexMap`]; every other data vertex
/// reads as the empty set.
pub(crate) struct InverseCandidates<const W: usize> {
    /// Row of each candidate vertex in `rows`.
    row_of: VertexMap,
    /// `rows[r]` = `C⁻¹` of the candidate vertex mapped to row `r`.
    rows: Vec<QVSet<W>>,
}

impl<const W: usize> InverseCandidates<W> {
    /// Builds the inverse index from a candidate space. `data_vertex_count` bounds the
    /// data-vertex id range.
    pub(crate) fn build(space: &CandidateSpace, data_vertex_count: usize) -> Self {
        let mut row_of = VertexMap::take(data_vertex_count);
        let mut rows: Vec<QVSet<W>> = Vec::new();
        for u in 0..space.query_vertex_count() {
            for &v in space.candidates(u) {
                let row = match row_of.get(v) {
                    Some(row) => row as usize,
                    None => {
                        row_of.insert(v, rows.len() as u32);
                        rows.push(QVSet::EMPTY);
                        rows.len() - 1
                    }
                };
                rows[row].insert(u);
            }
        }
        InverseCandidates { row_of, rows }
    }

    /// `C⁻¹(v)`: the query vertices that have `v` as a candidate.
    #[inline]
    fn of(&self, v: VertexId) -> QVSet<W> {
        self.row_of
            .get(v)
            .map_or(QVSet::EMPTY, |row| self.rows[row as usize])
    }

    /// `C⁻¹(v)[: i]`: query vertices earlier than `u_i` that have `v` as a candidate.
    #[inline]
    fn before(&self, v: VertexId, i: usize) -> QVSet<W> {
        self.of(v).below(i)
    }
}

/// Largest set whose matchability is checked over every subset.
const EXHAUSTIVE_MATCHABILITY: usize = 12;

/// Checks Lemma 3.7: returns `true` if some partial embedding of length `i` could
/// contain assignments to every vertex of `set`.
///
/// Condition (i): every member must be a candidate of some query vertex before `u_i`.
/// Condition (ii): Hall-style counting — no subset may be larger than the union of the
/// query vertices (before `u_i`) it can be assigned from. Subsets are enumerated
/// exhaustively up to 12 members; for larger sets only the full set and singletons are
/// checked (an over-approximation of matchability, which can only cost pruning power,
/// never correctness).
pub(crate) fn is_matchable<const W: usize>(
    set: &[VertexId],
    i: usize,
    inverse: &InverseCandidates<W>,
) -> bool {
    let k = set.len();
    if k > EXHAUSTIVE_MATCHABILITY {
        // Condition (i), then condition (ii) for the full set.
        let mut union = QVSet::EMPTY;
        for &v in set {
            let s = inverse.before(v, i);
            if s.is_empty() {
                return false;
            }
            union |= s;
        }
        return k <= union.len();
    }
    // Condition (i).
    let mut per_vertex = [QVSet::<W>::EMPTY; EXHAUSTIVE_MATCHABILITY];
    for (slot, &v) in per_vertex.iter_mut().zip(set) {
        *slot = inverse.before(v, i);
        if slot.is_empty() {
            return false;
        }
    }
    // Condition (ii), exhaustively over non-empty subsets.
    for mask in 1u32..(1u32 << k) {
        let mut union = QVSet::EMPTY;
        let size = mask.count_ones() as usize;
        for (idx, s) in per_vertex[..k].iter().enumerate() {
            if mask & (1 << idx) != 0 {
                union |= *s;
            }
        }
        if size > union.len() {
            return false;
        }
    }
    true
}

/// Greedy vertex cover of the edge list `edges` into `cover` (cleared first),
/// constrained to stay matchable and to contain at most `limit` vertices. Follows the
/// 2-approximation of CLRS (add both endpoints of an uncovered edge), falling back to
/// a single endpoint when adding both would violate a constraint; each try pushes
/// onto `cover` and truncates it again when rejected, so no vertex repeats. Returns
/// `false` when no constrained cover is found.
pub(crate) fn constrained_vertex_cover<const W: usize>(
    edges: &[(VertexId, VertexId)],
    limit: Option<usize>,
    i: usize,
    inverse: &InverseCandidates<W>,
    cover: &mut Vec<VertexId>,
) -> bool {
    let accepts =
        |s: &[VertexId]| limit.map_or(true, |r| s.len() <= r) && is_matchable(s, i, inverse);
    cover.clear();
    for &(a, b) in edges {
        if cover.contains(&a) || cover.contains(&b) {
            continue;
        }
        // Try both endpoints (classic 2-approximation), then each endpoint alone.
        let base = cover.len();
        cover.push(a);
        if b != a {
            cover.push(b);
            if accepts(cover) {
                continue;
            }
            cover.truncate(base + 1);
        }
        if accepts(cover) {
            continue;
        }
        cover.truncate(base);
        if b != a {
            cover.push(b);
            if accepts(cover) {
                continue;
            }
            cover.truncate(base);
        }
        return false;
    }
    true
}

/// Generates the reservation guards of every candidate vertex (Algorithm 1).
///
/// `data_vertex_count` bounds the data-vertex id range of `space`. `size_limit` is
/// the paper's `r` (`None` = unbounded, the "r = ∞" setting of Fig. 8).
pub fn generate_reservation_guards<const W: usize>(
    query: &OrderedQuery<W>,
    space: &CandidateSpace,
    data_vertex_count: usize,
    size_limit: Option<usize>,
) -> ReservationTable {
    let n = query.vertex_count();
    let inverse = InverseCandidates::<W>::build(space, data_vertex_count);
    let mut guards = ReservationTable::with_candidate_sizes(&space.candidate_sizes());
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut cover: Vec<VertexId> = Vec::new();
    let mut best: Vec<VertexId> = Vec::new();

    // Reverse matching order so that forward neighbors are already processed.
    for i in (0..n).rev() {
        for (ci, &v) in space.candidates(i).iter().enumerate() {
            let mut found = false;
            for &j in query.forward_neighbors(i) {
                // Build E_R (Eq. 1): for every forward-adjacent candidate v' of u_j,
                // connect v' with each member of R(u_j, v') other than v.
                edges.clear();
                for &cj in space.adjacent_candidates(i, ci, j) {
                    let v_prime = space.candidates(j)[cj as usize];
                    for &w in guards.get(j, cj) {
                        if w != v {
                            edges.push((v_prime, w));
                        }
                    }
                }
                if constrained_vertex_cover(&edges, size_limit, i, &inverse, &mut cover)
                    && (!found || cover.len() < best.len())
                {
                    std::mem::swap(&mut cover, &mut best);
                    found = true;
                    if best.is_empty() {
                        // Nothing can beat the empty reservation.
                        break;
                    }
                }
            }
            guards.push(if found {
                &best
            } else {
                std::slice::from_ref(&v)
            });
        }
    }
    guards
}

/// Total heap bytes used by a reservation-guard table (for the Table-3 memory report).
pub fn reservation_heap_bytes(guards: &ReservationTable) -> usize {
    guards.heap_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_candidate::{CandidateSpace, FilterConfig};
    use gup_graph::fixtures::paper_example;
    use gup_graph::{PreparedData, QueryGraph};

    fn paper_setup() -> (OrderedQuery, CandidateSpace, usize) {
        let (q, d) = paper_example();
        let prepared = PreparedData::new(d);
        let cs = CandidateSpace::build_prepared(&q, &prepared, &FilterConfig::default());
        let query = QueryGraph::new(q).unwrap();
        // Identity order: the paper's own numbering u0..u4 is already connected.
        let order: Vec<u32> = (0..query.vertex_count() as u32).collect();
        let oq = query.with_order(&order).unwrap();
        (oq, cs, prepared.graph().vertex_count())
    }

    #[test]
    fn inverse_candidates_reflect_membership() {
        let (_oq, cs, n) = paper_setup();
        let inv = InverseCandidates::<1>::build(&cs, n);
        // v0 (label A) is a candidate of u0 and u4 only.
        assert_eq!(inv.of(0), QVSet::from_iter([0, 4]));
        // Restriction below u1 keeps only u0.
        assert_eq!(inv.before(0, 1), QVSet::from_iter([0]));
        assert_eq!(inv.before(0, 0), QVSet::EMPTY);
    }

    #[test]
    fn matchability_conditions() {
        let (_oq, cs, n) = paper_setup();
        let inv = InverseCandidates::<1>::build(&cs, n);
        // Example 3.8 of the paper: {v0, v1} is NOT matchable as a reservation guard of
        // a u1 candidate because both can only be assigned from u0 before u1.
        assert!(!is_matchable(&[0, 1], 1, &inv));
        // A single one of them is matchable before u1.
        assert!(is_matchable(&[0], 1, &inv));
        // Before u0 nothing is assigned, so nothing is matchable (condition (i)).
        assert!(!is_matchable(&[0], 0, &inv));
        // Both are matchable before u5 (u0 and u4 both precede it conceptually).
        assert!(is_matchable(&[0, 1], 5, &inv));
        // A data vertex that is nobody's candidate is never matchable: v13 (label A,
        // no A neighbour) is in no candidate set, so the compact index has no row
        // for it and every lookup takes the miss path.
        assert!((0..5).all(|u| !cs.candidates(u).contains(&13)));
        for i in 0..=5 {
            assert!(inv.before(13, i).is_empty());
            assert!(!is_matchable(&[13], i, &inv));
        }
    }

    #[test]
    fn constrained_cover_respects_limit_and_matchability() {
        let (_oq, cs, n) = paper_setup();
        let inv = InverseCandidates::<1>::build(&cs, n);
        let mut cover = vec![99];
        // Edges that force {v0} as a cover at i = 4 (v0 is assignable from u0 before u4).
        let edges = vec![(0u32, 0u32)];
        assert!(constrained_vertex_cover(
            &edges,
            Some(3),
            4,
            &inv,
            &mut cover
        ));
        assert_eq!(cover, vec![0]);
        // Empty edge list -> empty cover.
        assert!(constrained_vertex_cover(&[], Some(3), 2, &inv, &mut cover));
        assert_eq!(cover, Vec::<u32>::new());
        // A cover that would need an unmatchable vertex fails.
        // v13 is not a candidate of anything before u1 after NLF, so covering a
        // self-loop on v13 at i = 1 is impossible.
        assert!(!constrained_vertex_cover(
            &[(13, 13)],
            Some(3),
            1,
            &inv,
            &mut cover
        ));
        // Size limit 0 rejects any non-empty cover.
        assert!(!constrained_vertex_cover(
            &[(0, 0)],
            Some(0),
            4,
            &inv,
            &mut cover
        ));
        // When both endpoints break the limit, one endpoint is kept: {v0} covers
        // (v0, v1) at i = 4 under limit 1, and the rejected v1 left no trace.
        assert!(constrained_vertex_cover(
            &[(0, 1), (0, 2)],
            Some(1),
            4,
            &inv,
            &mut cover
        ));
        assert_eq!(cover, vec![0]);
    }

    /// Every guard of `guards`, per query vertex and candidate.
    fn each_guard<'a>(
        guards: &'a ReservationTable,
        cs: &'a CandidateSpace,
    ) -> impl Iterator<Item = (usize, u32, &'a [VertexId])> + 'a {
        (0..cs.query_vertex_count()).flat_map(move |u| {
            (0..cs.candidates(u).len() as u32).map(move |ci| (u, ci, guards.get(u, ci)))
        })
    }

    #[test]
    fn generation_produces_guard_per_candidate() {
        let (oq, cs, n) = paper_setup();
        let guards = generate_reservation_guards(&oq, &cs, n, Some(3));
        assert_eq!(guards.len(), cs.total_candidates());
        for (_, _, g) in each_guard(&guards, &cs) {
            assert!(g.len() <= 3);
            assert!(g.windows(2).all(|w| w[0] < w[1]), "members sorted: {g:?}");
        }
        // The last query vertex has no forward neighbors: all guards are trivial.
        let last = 4;
        for (ci, &v) in cs.candidates(last).iter().enumerate() {
            assert_eq!(guards.get(last, ci as u32), &[v]);
        }
        assert!(reservation_heap_bytes(&guards) > 0);
    }

    #[test]
    fn size_limit_is_respected() {
        let (oq, cs, n) = paper_setup();
        for limit in [0usize, 1, 2, 3, 5] {
            let guards = generate_reservation_guards(&oq, &cs, n, Some(limit));
            for (_, _, g) in each_guard(&guards, &cs) {
                // Trivial guards always have size 1 regardless of the limit.
                assert!(g.len() <= limit.max(1));
            }
        }
    }

    #[test]
    fn unlimited_guards_never_smaller_coverage_than_limited() {
        let (oq, cs, n) = paper_setup();
        let limited = generate_reservation_guards(&oq, &cs, n, Some(1));
        let unlimited = generate_reservation_guards(&oq, &cs, n, None);
        // Both tables must exist and have identical shape.
        assert_eq!(limited.len(), cs.total_candidates());
        assert_eq!(unlimited.len(), cs.total_candidates());
    }
}
