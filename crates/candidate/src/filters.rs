//! Per-vertex candidate filters: LDF and NLF.
//!
//! * **LDF** (label-and-degree filtering, Ullmann 1976): data vertex `v` is a candidate
//!   of query vertex `u` if `ℓ(v) = ℓ(u)` and `deg(v) ≥ deg(u)`.
//! * **NLF** (neighborhood label frequency filtering): additionally, for every label
//!   `l`, `v` must have at least as many label-`l` neighbors as `u` does. The paper's
//!   running example removes `v13` from `C(u0)` this way (§2.1).
//!
//! NLF ([`nlf_candidates_prepared`]) compares the query vertex's sparse
//! [`NlfProfile`] against the signature arena a [`PreparedData`] built once for the
//! data graph: no neighbor rescans, no per-candidate allocation, and a per-label
//! max-NLF bound that rejects unsatisfiable query vertices before any candidate is
//! scanned.

use gup_graph::deadline::{DeadlineExceeded, DeadlineSampler};
use gup_graph::{Graph, Label, PreparedData, VertexId};

/// Computes the LDF candidate set of query vertex `u` (sorted by data-vertex id).
pub fn ldf_candidates(query: &Graph, data: &Graph, u: VertexId) -> Vec<VertexId> {
    ldf_candidates_sampled(query, data, u, &mut DeadlineSampler::new(None))
        .expect("a sampler without a deadline never expires")
}

/// Deadline-aware [`ldf_candidates`]: `sampler` ticks once per label-bucket vertex
/// examined, so a tight time budget is observed even when the bucket spans most of
/// the data graph.
pub fn ldf_candidates_sampled(
    query: &Graph,
    data: &Graph,
    u: VertexId,
    sampler: &mut DeadlineSampler,
) -> Result<Vec<VertexId>, DeadlineExceeded> {
    let label = query.label(u);
    let min_degree = query.degree(u);
    let bucket = data.vertices_with_label(label);
    let mut out = Vec::new();
    for &v in bucket {
        sampler.tick()?;
        if data.degree(v) >= min_degree {
            out.push(v);
        }
    }
    Ok(out)
}

/// A query vertex's NLF requirements in sparse form: parallel label/count slices,
/// labels sorted ascending and distinct. Built once per query vertex and compared
/// against the data graph's precomputed signature arena.
#[derive(Clone, Debug, Default)]
pub struct NlfProfile {
    labels: Vec<Label>,
    counts: Vec<u32>,
}

impl NlfProfile {
    /// The sparse neighborhood-label-frequency profile of query vertex `u`.
    pub fn of(query: &Graph, u: VertexId) -> Self {
        let dense = query.neighborhood_label_frequency(u);
        let mut labels = Vec::new();
        let mut counts = Vec::new();
        for (l, &c) in dense.iter().enumerate() {
            if c > 0 {
                labels.push(l as Label);
                counts.push(c);
            }
        }
        NlfProfile { labels, counts }
    }

    /// The required labels (sorted ascending, distinct).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The required per-label neighbor counts, parallel to [`NlfProfile::labels`].
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// `true` when the query vertex has no neighbors, i.e. no NLF requirement.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// `true` when some requirement exceeds what *any* data vertex offers
    /// (`PreparedData`'s per-label max-NLF bound): the candidate set is empty and no
    /// per-candidate work is needed at all.
    pub fn unsatisfiable_in(&self, prepared: &PreparedData) -> bool {
        self.labels
            .iter()
            .zip(&self.counts)
            .any(|(&l, &c)| c > prepared.max_nlf(l))
    }
}

/// The NLF test: an allocation-free signature comparison between the query
/// vertex's sparse profile and data vertex `v`'s precomputed signature.
#[inline]
pub fn nlf_filter_prepared(profile: &NlfProfile, prepared: &PreparedData, v: VertexId) -> bool {
    prepared.signature_covers(v, &profile.labels, &profile.counts)
}

/// Computes the LDF+NLF candidate set of query vertex `u` against a prepared data
/// graph (sorted by data-vertex id), short-circuiting to empty when the max-NLF
/// bound proves no candidate can exist.
pub fn nlf_candidates_prepared(
    query: &Graph,
    prepared: &PreparedData,
    u: VertexId,
) -> Vec<VertexId> {
    nlf_candidates_prepared_sampled(query, prepared, u, &mut DeadlineSampler::new(None))
        .expect("a sampler without a deadline never expires")
}

/// Deadline-aware [`nlf_candidates_prepared`]: `sampler` ticks once per candidate
/// examined (each examination is one signature comparison).
pub fn nlf_candidates_prepared_sampled(
    query: &Graph,
    prepared: &PreparedData,
    u: VertexId,
    sampler: &mut DeadlineSampler,
) -> Result<Vec<VertexId>, DeadlineExceeded> {
    let profile = NlfProfile::of(query, u);
    if profile.unsatisfiable_in(prepared) {
        return Ok(Vec::new());
    }
    let data = prepared.graph();
    if profile.is_empty() {
        return ldf_candidates_sampled(query, data, u, sampler);
    }
    let mut out = Vec::new();
    for v in ldf_candidates_sampled(query, data, u, sampler)? {
        sampler.tick()?;
        if nlf_filter_prepared(&profile, prepared, v) {
            out.push(v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;

    /// The paper's Fig. 1 example (labels A=0, B=1, C=2, D=3), shared across the
    /// workspace via `gup_graph::fixtures`.
    fn figure1() -> (Graph, Graph) {
        gup_graph::fixtures::paper_example()
    }

    /// LDF+NLF candidates of `u`, with `data` prepared on the spot.
    fn nlf(query: &Graph, data: &Graph, u: VertexId) -> Vec<VertexId> {
        nlf_candidates_prepared(query, &PreparedData::from_graph(data), u)
    }

    /// NLF by definition: for every label, `v` has at least as many neighbors with
    /// that label as `u` does. Counts neighbor labels directly.
    fn nlf_by_definition(query: &Graph, data: &Graph, u: VertexId, v: VertexId) -> bool {
        let labels = query.label_count().max(data.label_count());
        let mut need = vec![0i64; labels];
        for &w in query.neighbors(u) {
            need[query.label(w) as usize] += 1;
        }
        for &w in data.neighbors(v) {
            need[data.label(w) as usize] -= 1;
        }
        need.iter().all(|&n| n <= 0)
    }

    #[test]
    fn ldf_matches_labels_and_degree() {
        let (query, data) = figure1();
        // u0 has label A and degree 2; A-labeled data vertices are v0, v1, v13.
        let c = ldf_candidates(&query, &data, 0);
        assert!(c.contains(&0));
        assert!(c.contains(&1));
        // v13 has label A and degree 2, so LDF alone keeps it; only NLF removes it.
        assert!(c.contains(&13));
    }

    #[test]
    fn ldf_degree_requirement() {
        let query = graph_from_edges(&[0, 0, 0], &[(0, 1), (0, 2)]); // deg(u0) = 2
        let data = graph_from_edges(&[0, 0, 0], &[(0, 1)]); // all degrees ≤ 1
        assert!(ldf_candidates(&query, &data, 0).is_empty());
        assert_eq!(ldf_candidates(&query, &data, 1), vec![0, 1]);
    }

    #[test]
    fn nlf_removes_vertices_missing_neighbor_labels() {
        let (query, data) = figure1();
        // Paper §2.1: v13 is removed from C(u0) because it has no label-B neighbor.
        let with_nlf = nlf(&query, &data, 0);
        assert!(!with_nlf.contains(&13));
        assert!(with_nlf.contains(&0));
        assert!(with_nlf.contains(&1));
    }

    #[test]
    fn nlf_filter_individual() {
        let (query, data) = figure1();
        let prepared = PreparedData::from_graph(&data);
        let profile = NlfProfile::of(&query, 0);
        assert!(nlf_filter_prepared(&profile, &prepared, 0));
        assert!(!nlf_filter_prepared(&profile, &prepared, 13));
    }

    #[test]
    fn nlf_handles_isolated_query_vertex() {
        let query = graph_from_edges(&[4], &[]);
        let data = graph_from_edges(&[4, 4], &[(0, 1)]);
        // No neighbor requirements at all.
        assert_eq!(nlf(&query, &data, 0), vec![0, 1]);
    }

    #[test]
    fn nlf_requires_multiplicity() {
        // u0 needs two label-1 neighbors.
        let query = graph_from_edges(&[0, 1, 1], &[(0, 1), (0, 2)]);
        // v0 has two label-1 neighbors, v3 has only one (v4).
        let data = graph_from_edges(&[0, 1, 1, 0, 1], &[(0, 1), (0, 2), (3, 4), (3, 1)]);
        let c = nlf(&query, &data, 0);
        assert_eq!(c, vec![0, 3]); // v3 has neighbors v4(label1) and v1(label1): passes

        // Remove one of v3's label-1 neighbors and it must fail.
        let data2 = graph_from_edges(&[0, 1, 1, 0, 1], &[(0, 1), (0, 2), (3, 4)]);
        let c2 = nlf(&query, &data2, 0);
        assert_eq!(c2, vec![0]);
    }

    #[test]
    fn candidates_are_sorted() {
        let (query, data) = figure1();
        for u in query.vertices() {
            let c = nlf(&query, &data, u);
            let mut sorted = c.clone();
            sorted.sort_unstable();
            assert_eq!(c, sorted);
        }
    }

    #[test]
    fn unknown_label_yields_empty_candidates() {
        let query = graph_from_edges(&[9], &[]);
        let data = graph_from_edges(&[0, 1], &[(0, 1)]);
        assert!(ldf_candidates(&query, &data, 0).is_empty());
        assert!(nlf(&query, &data, 0).is_empty());
    }

    #[test]
    fn signature_filter_agrees_with_the_nlf_definition() {
        let (query, data) = figure1();
        let prepared = PreparedData::from_graph(&data);
        for u in query.vertices() {
            let profile = NlfProfile::of(&query, u);
            for v in data.vertices() {
                assert_eq!(
                    nlf_by_definition(&query, &data, u, v),
                    nlf_filter_prepared(&profile, &prepared, v),
                    "u={u} v={v}"
                );
            }
            // The candidate set is LDF filtered by that same definition.
            let expected: Vec<VertexId> = ldf_candidates(&query, &data, u)
                .into_iter()
                .filter(|&v| nlf_by_definition(&query, &data, u, v))
                .collect();
            assert_eq!(
                nlf_candidates_prepared(&query, &prepared, u),
                expected,
                "u={u}"
            );
        }
    }

    #[test]
    fn prepared_max_nlf_bound_short_circuits() {
        // u0 requires three label-1 neighbors, but no data vertex has more than two:
        // the bound proves emptiness without scanning any candidate.
        let query = graph_from_edges(&[0, 1, 1, 1], &[(0, 1), (0, 2), (0, 3)]);
        let data = graph_from_edges(&[0, 1, 1, 0, 1], &[(0, 1), (0, 2), (3, 4)]);
        let prepared = gup_graph::PreparedData::from_graph(&data);
        let profile = NlfProfile::of(&query, 0);
        assert!(profile.unsatisfiable_in(&prepared));
        assert!(nlf_candidates_prepared(&query, &prepared, 0).is_empty());
        assert!(data
            .vertices()
            .all(|v| !nlf_by_definition(&query, &data, 0, v)));
    }

    #[test]
    fn nlf_profile_shape() {
        let query = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let p = NlfProfile::of(&query, 0);
        assert_eq!(p.labels(), &[1, 2]);
        assert_eq!(p.counts(), &[2, 1]);
        assert!(!p.is_empty());
        let isolated = graph_from_edges(&[4], &[]);
        assert!(NlfProfile::of(&isolated, 0).is_empty());
    }
}
