//! Differential checks of the candidate space's step 1, which scans one root's
//! label bucket and generates every other query vertex's candidates from the
//! data neighbors of a built neighbor's candidates when that is cheaper.
//!
//! Seed-pinned power-law graphs with 200 labels make the label buckets long and
//! the candidate sets short, so most query vertices generate; graphs with 4–15
//! labels make candidate neighborhoods outweigh the buckets, so vertices scan.
//! Each instance asserts which path it exercises (from bounds that hold
//! whatever the root), then checks, per random-walk query, on the paper's
//! Fig. 1 fixture and on a small fixture where only NLF's neighbor counts keep
//! a generated vertex out (refinement cannot, as arc consistency counts no
//! multiplicities):
//!
//! * every candidate set is a subset of the query vertex's NLF set;
//! * every embedding the brute-force oracle finds maps each query vertex into
//!   its candidate set;
//! * `refinement_passes: 0` yields exactly the NLF sets;
//! * `refinement_passes: 64` yields exactly a test-local arc-consistency
//!   reference: the NLF sets, less every candidate with no data neighbor among
//!   some query neighbor's candidates, repeated until nothing changes.

use gup_baselines::brute_force;
use gup_candidate::{nlf_candidates_prepared, CandidateSpace, FilterConfig};
use gup_graph::budget::SearchLimits;
use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
use gup_graph::sink::CollectAll;
use gup_graph::{Graph, PreparedData, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// How many embeddings per query the oracle enumerates at most.
const ORACLE_CAP: u64 = 5_000;

fn nlf_sets(query: &Graph, prepared: &PreparedData) -> Vec<Vec<VertexId>> {
    query
        .vertices()
        .map(|u| nlf_candidates_prepared(query, prepared, u))
        .collect()
}

/// The greatest arc-consistent subset of the NLF sets, by definition: drop any
/// candidate of `u` with no data neighbor among the candidates of some query
/// neighbor of `u`, until a whole round drops nothing.
fn arc_consistent_reference(query: &Graph, prepared: &PreparedData) -> Vec<Vec<VertexId>> {
    let data = prepared.graph();
    let mut sets = nlf_sets(query, prepared);
    loop {
        let mut changed = false;
        for u in query.vertices() {
            for &q in query.neighbors(u) {
                let support: HashSet<VertexId> = sets[q as usize].iter().copied().collect();
                let before = sets[u as usize].len();
                sets[u as usize].retain(|&v| data.neighbors(v).iter().any(|w| support.contains(w)));
                changed |= sets[u as usize].len() != before;
            }
        }
        if !changed {
            return sets;
        }
    }
}

fn space(query: &Graph, prepared: &PreparedData, passes: usize) -> Vec<Vec<VertexId>> {
    let config = FilterConfig {
        refinement_passes: passes,
    };
    let cs = CandidateSpace::build_prepared(query, prepared, &config);
    (0..query.vertex_count())
        .map(|u| cs.candidates(u).to_vec())
        .collect()
}

fn degree_sum(data: &Graph, vertices: &[VertexId]) -> usize {
    vertices.iter().map(|&v| data.degree(v)).sum()
}

fn bucket_len(query: &Graph, prepared: &PreparedData, u: VertexId) -> usize {
    prepared.label_bucket(query.label(u)).0.len()
}

/// Query vertices that generate whichever vertex is the root, unless they are
/// the root: a vertex's built neighbor holds a subset of that neighbor's NLF set,
/// so when every neighbor's NLF set has fewer data neighbors than the vertex's
/// bucket has entries, the vertex expands.
fn certainly_generated(query: &Graph, prepared: &PreparedData) -> usize {
    let (data, nlf) = (prepared.graph(), nlf_sets(query, prepared));
    query
        .vertices()
        .filter(|&u| {
            query
                .neighbors(u)
                .iter()
                .all(|&p| degree_sum(data, &nlf[p as usize]) < bucket_len(query, prepared, u))
        })
        .count()
}

/// Query vertices that scan whichever vertex is the root: a built neighbor holds
/// a superset of that neighbor's arc-consistent set, so when every neighbor's
/// arc-consistent set has at least as many data neighbors as the vertex's
/// bucket has entries, the vertex scans.
fn certainly_scanned(query: &Graph, prepared: &PreparedData) -> usize {
    let (data, reference) = (prepared.graph(), arc_consistent_reference(query, prepared));
    query
        .vertices()
        .filter(|&u| {
            query.neighbors(u).iter().all(|&p| {
                degree_sum(data, &reference[p as usize]) >= bucket_len(query, prepared, u)
            })
        })
        .count()
}

/// The four checks of the module docs on one query.
fn check_query(name: &str, query: &Graph, prepared: &PreparedData) {
    let nlf = nlf_sets(query, prepared);
    let mut embeddings = CollectAll::new();
    let limits = SearchLimits {
        max_embeddings: Some(ORACLE_CAP),
        ..SearchLimits::UNLIMITED
    };
    brute_force::run_with_sink(query, prepared.graph(), limits, &mut embeddings);
    for passes in [1, FilterConfig::default().refinement_passes] {
        let sets = space(query, prepared, passes);
        for u in 0..query.vertex_count() {
            let allowed: HashSet<VertexId> = nlf[u].iter().copied().collect();
            assert!(
                sets[u].iter().all(|v| allowed.contains(v)),
                "{name}, {passes} passes: C({u}) = {:?} is not within NLF = {:?}",
                sets[u],
                nlf[u]
            );
        }
        for embedding in embeddings.embeddings() {
            for (u, &v) in embedding.iter().enumerate() {
                assert!(
                    sets[u].binary_search(&v).is_ok(),
                    "{name}, {passes} passes: embedding {embedding:?} maps {u} to {v}, \
                     outside C({u}) = {:?}",
                    sets[u]
                );
            }
        }
    }
    assert_eq!(
        space(query, prepared, 0),
        nlf,
        "{name}: 0 passes is not NLF"
    );
    assert_eq!(
        space(query, prepared, 64),
        arc_consistent_reference(query, prepared),
        "{name}: 64 passes is not the arc-consistent reference"
    );
}

/// A seed-pinned power-law graph and `count` random-walk queries of `size`
/// vertices drawn from it.
fn instance(
    vertices: usize,
    labels: usize,
    size: usize,
    count: usize,
    seed: u64,
) -> (PreparedData, Vec<Graph>) {
    let data = power_law_graph(&PowerLawConfig {
        vertices,
        edges_per_vertex: 4,
        labels,
        label_skew: 0.0,
        seed,
        ..PowerLawConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(seed);
    let queries: Vec<Graph> = (0..1000)
        .filter_map(|_| random_walk_query(&data, size, &mut rng))
        .take(count)
        .collect();
    assert_eq!(queries.len(), count, "the walk generator fell short");
    (PreparedData::new(data), queries)
}

#[test]
fn generated_spaces_agree_with_nlf_and_arc_consistency_at_200_labels() {
    for seed in [3, 4] {
        let (prepared, queries) = instance(20_000, 200, 8, 12, seed);
        let mut generated = 0;
        for (i, query) in queries.iter().enumerate() {
            // Two vertices that generate unless rooted: one of them is not the root.
            if certainly_generated(query, &prepared) >= 2 {
                generated += 1;
            }
            check_query(
                &format!("200 labels, seed {seed}, query {i}"),
                query,
                &prepared,
            );
        }
        assert!(
            generated >= queries.len() / 2,
            "seed {seed}: only {generated} of {} queries certainly generate",
            queries.len()
        );
    }
}

#[test]
fn scanned_spaces_agree_with_nlf_and_arc_consistency_at_few_labels() {
    for (labels, seed) in [(4, 5), (9, 6), (15, 7)] {
        let (prepared, queries) = instance(800, labels, 6, 8, seed);
        let mut scanned = 0;
        for (i, query) in queries.iter().enumerate() {
            // Two vertices that scan as non-roots: one of them is not the root.
            if certainly_scanned(query, &prepared) >= 2 {
                scanned += 1;
            }
            check_query(
                &format!("{labels} labels, seed {seed}, query {i}"),
                query,
                &prepared,
            );
        }
        // At 15 labels the buckets are short enough that some vertices generate.
        assert!(
            scanned >= queries.len() / 4,
            "{labels} labels: only {scanned} of {} queries certainly scan",
            queries.len()
        );
    }
}

#[test]
fn figure1_space_agrees_with_nlf_and_arc_consistency() {
    let (query, data) = gup_graph::fixtures::paper_example();
    let prepared = PreparedData::new(data);
    check_query("Fig. 1", &query, &prepared);
    // The paper's named embedding survives.
    let sets = space(&query, &prepared, FilterConfig::default().refinement_passes);
    for (u, v) in [1, 4, 7, 10, 0].into_iter().enumerate() {
        assert!(sets[u].contains(&v), "C({u}) lost v{v}");
    }
}

/// A generated vertex needs two neighbors of one label, which arc consistency
/// alone cannot demand. Query: `q0` (label 2) – `q1` (label 0), with two
/// label-1 leaves on `q1`. Data: the only label-2 vertex `v0` has label-0
/// neighbors `v1`, with label-1 neighbors `v3` and `v4`, and `v2`, with only
/// `v5`; ten more label-0 vertices, each paired with a label-3 vertex, make
/// label 0's bucket 12 long. `q0` is the root (one bucket entry per unit of
/// degree), and `q1` generates from `C(q0) = {v0}`, two neighbors against 12
/// bucket entries. `v2` has a neighbor in every query neighbor's candidate
/// set, so only NLF keeps it out of `C(q1)`.
#[test]
fn generation_keeps_nlf_multiplicities() {
    let mut labels = vec![2, 0, 0, 1, 1, 1];
    let mut edges = vec![(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)];
    for _ in 0..10 {
        let z = labels.len() as VertexId;
        labels.extend([0, 3]);
        edges.push((z, z + 1));
    }
    let data = gup_graph::builder::graph_from_edges(&labels, &edges);
    let query = gup_graph::builder::graph_from_edges(&[2, 0, 1, 1], &[(0, 1), (1, 2), (1, 3)]);
    let prepared = PreparedData::new(data);
    assert_eq!(prepared.label_bucket(0).0.len(), 12);
    check_query("multiplicity", &query, &prepared);
    for passes in [1, 3, 64] {
        assert_eq!(
            space(&query, &prepared, passes)[1],
            vec![1],
            "{passes} passes"
        );
    }
}
