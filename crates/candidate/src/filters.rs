//! Per-vertex candidate filters: LDF and NLF.
//!
//! * **LDF** (label-and-degree filtering, Ullmann 1976): data vertex `v` is a candidate
//!   of query vertex `u` if `ℓ(v) = ℓ(u)` and `deg(v) ≥ deg(u)`.
//! * **NLF** (neighborhood label frequency filtering): additionally, for every label
//!   `l`, `v` must have at least as many label-`l` neighbors as `u` does. The paper's
//!   running example removes `v13` from `C(u0)` this way (§2.1).
//!
//! NLF ([`nlf_candidates_prepared`]) is one pass over the query vertex's label
//! bucket in a [`PreparedData`] built once for the data graph. The pass reads the
//! bucket's vertex ids and 64-bit neighbor-label masks sequentially, skips every
//! vertex whose mask lacks a bit the query vertex's sparse [`NlfProfile`] needs (a
//! clear bit proves a missing label), and compares the profile against the
//! signature arena only for the rest: no neighbor rescans, no per-candidate
//! allocation, and a per-label max-NLF bound that rejects unsatisfiable query
//! vertices before any candidate is scanned. NLF implies LDF's degree bound (the
//! required counts sum to `deg(u)`), so no separate LDF pass runs;
//! [`ldf_candidates`] stays as the reference the tests compare against.
//!
//! The candidate space scans one bucket per query this way, its root's. Other
//! query vertices usually take the same NLF test over a smaller source instead
//! (`nlf_candidates_adjacent_sampled`): the data neighbors of an already-built
//! query neighbor's candidates, which is the NLF set cut down to the vertices
//! adjacent to those candidates.
//!
//! `NlfProfile` is defined in `gup_graph`, next to the signature test it is
//! checked against, and re-exported here: the standing-query planner in
//! `gup-stream`, which does not depend on this crate, builds the same requirement.

use gup_graph::deadline::{DeadlineExceeded, DeadlineSampler};
use gup_graph::scratch::VertexMap;
use gup_graph::{Graph, NlfProfile, PreparedData, VertexId};

/// Computes the LDF candidate set of query vertex `u` (sorted by data-vertex id)
/// by a scan over every data vertex: the reference the prepared NLF filter is
/// tested against.
pub fn ldf_candidates(query: &Graph, data: &Graph, u: VertexId) -> Vec<VertexId> {
    let (label, min_degree) = (query.label(u), query.degree(u));
    data.vertices()
        .filter(|&v| data.label(v) == label && data.degree(v) >= min_degree)
        .collect()
}

/// The NLF test: an allocation-free signature comparison between the query
/// vertex's sparse profile and data vertex `v`'s precomputed signature.
#[inline]
pub fn nlf_filter_prepared(profile: &NlfProfile, prepared: &PreparedData, v: VertexId) -> bool {
    prepared.signature_covers(v, profile.labels(), profile.counts())
}

/// Computes the NLF candidate set of query vertex `u` against a prepared data
/// graph (sorted by data-vertex id), short-circuiting to empty when the max-NLF
/// bound proves no candidate can exist. The set equals LDF's candidates filtered
/// by NLF: NLF implies LDF's degree bound.
pub fn nlf_candidates_prepared(
    query: &Graph,
    prepared: &PreparedData,
    u: VertexId,
) -> Vec<VertexId> {
    nlf_candidates_prepared_sampled(query, prepared, u, &mut DeadlineSampler::new(None))
        .expect("a sampler without a deadline never expires")
}

/// Deadline-aware [`nlf_candidates_prepared`]: `sampler` ticks once per bucket
/// vertex examined, so a tight time budget is observed even when the bucket
/// spans most of the data graph. A query vertex without neighbors needs mask 0
/// and an empty signature, so every bucket vertex passes.
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
    let need = profile.mask();
    let (ids, masks) = prepared.label_bucket(query.label(u));
    let mut out = Vec::new();
    for (&v, &mask) in ids.iter().zip(masks) {
        sampler.tick()?;
        if (mask & need) == need && nlf_filter_prepared(&profile, prepared, v) {
            out.push(v);
        }
    }
    Ok(out)
}

/// The vertices of [`nlf_candidates_prepared`]`(query, prepared, u)` that are
/// adjacent to some vertex of `from`, sorted by id: every data neighbor of
/// `from` with `u`'s label that passes the NLF test. `seen` (cleared first)
/// tests each such neighbor once; `sampler` ticks once per vertex of `from`,
/// each of which scans one neighbor list.
pub(crate) fn nlf_candidates_adjacent_sampled(
    query: &Graph,
    prepared: &PreparedData,
    u: VertexId,
    from: &[VertexId],
    seen: &mut VertexMap,
    sampler: &mut DeadlineSampler,
) -> Result<Vec<VertexId>, DeadlineExceeded> {
    let profile = NlfProfile::of(query, u);
    if profile.unsatisfiable_in(prepared) {
        return Ok(Vec::new());
    }
    let data = prepared.graph();
    let label = query.label(u);
    seen.clear();
    let mut out = Vec::new();
    for &v in from {
        sampler.tick()?;
        for &w in data.neighbors(v) {
            if data.label(w) == label && !seen.contains(w) {
                seen.insert(w, 0);
                if nlf_filter_prepared(&profile, prepared, w) {
                    out.push(w);
                }
            }
        }
    }
    out.sort_unstable();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::delta::GraphDelta;
    use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
    use gup_graph::index_io::{load_index_bytes, write_index_bytes};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    /// `nlf_candidates_prepared` on `prepared` equals LDF filtered by the NLF
    /// definition for every vertex of `query`.
    fn assert_filter_is_exact(query: &Graph, prepared: &PreparedData, path: &str) {
        let data = prepared.graph();
        for u in query.vertices() {
            let expected: Vec<VertexId> = ldf_candidates(query, data, u)
                .into_iter()
                .filter(|&v| nlf_by_definition(query, data, u, v))
                .collect();
            assert_eq!(
                nlf_candidates_prepared(query, prepared, u),
                expected,
                "{path}: u={u}"
            );
        }
    }

    #[test]
    fn mask_screen_keeps_every_true_candidate_on_every_build_path() {
        // 200 labels, so labels l, l + 64 and l + 128 share a mask bit.
        let data = power_law_graph(&PowerLawConfig {
            vertices: 3000,
            edges_per_vertex: 4,
            labels: 200,
            seed: 17,
            ..PowerLawConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(17);
        let mut queries: Vec<Graph> = (0..1000)
            .filter_map(|_| random_walk_query(&data, 8, &mut rng))
            .take(20)
            .collect();
        assert_eq!(queries.len(), 20, "the walk generator fell short");
        let built = PreparedData::new(data);
        let loaded = load_index_bytes(&write_index_bytes(&built)).expect("round trip loads");

        // A new vertex whose label is past 64 and past the graph's label count,
        // joined to six existing vertices; the new vertex with its neighbors is
        // one more query, so the touched vertices' masks are the ones it reads.
        let new_vertex = built.graph().vertex_count() as VertexId;
        let neighbors: Vec<VertexId> = (0..6).map(|i| i * 97 + 5).collect();
        let mut batch = vec![GraphDelta::AddVertex { label: 230 }];
        batch.extend(
            neighbors
                .iter()
                .map(|&b| GraphDelta::AddEdge { a: new_vertex, b }),
        );
        let applied = built.apply(&batch).expect("the batch is valid");
        let mut star = vec![new_vertex];
        star.extend(&neighbors);
        queries.push(applied.graph().induced_subgraph(&star));

        for (path, prepared) in [("new", &built), ("loaded", &loaded), ("applied", &applied)] {
            for query in &queries {
                assert_filter_is_exact(query, prepared, path);
            }
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
