//! Metamorphic invariance suite: transformations of a `(query, data)` pair that
//! provably preserve the embedding count must leave every engine's reported count
//! unchanged.
//!
//! Two metamorphic relations are exercised:
//!
//! * **Label permutation** — applying one bijection over label values to *both*
//!   graphs renames the constraint alphabet without changing which maps are
//!   embeddings.
//! * **Vertex-id shuffle** — renumbering the vertices of either graph (or both) is
//!   an isomorphism, so the embedding count is invariant; only the reported vertex
//!   names change.
//!
//! Each relation is checked across the whole engine matrix: GuP under **all 16**
//! `PruningFeatures` combinations, the parallel work-stealing driver, all four
//! backtracking baselines, the join baseline, and the brute-force oracle. A
//! filtering / ordering / guard bug that is sensitive to label identities or vertex
//! numbering (e.g. an accidental dependence on label frequency ties or on candidate
//! id order) breaks the invariance and fails here even though every absolute count
//! was never pinned.

use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PruningFeatures, SearchLimits};
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::builder::graph_from_edges;
use gup_graph::generate::{erdos_renyi_graph, random_walk_query, ErdosRenyiConfig};
use gup_graph::{fixtures, Graph, Label, VertexId};
use gup_order::OrderingStrategy;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Applies the label bijection `perm` (index = old label, value = new label) to a
/// graph, keeping vertices and edges as they are.
fn permute_labels(g: &Graph, perm: &[Label]) -> Graph {
    let labels: Vec<Label> = g.vertices().map(|v| perm[g.label(v) as usize]).collect();
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    graph_from_edges(&labels, &edges)
}

/// Renumbers the vertices of a graph: old vertex `v` becomes `perm[v]`.
fn shuffle_vertices(g: &Graph, perm: &[VertexId]) -> Graph {
    let mut labels: Vec<Label> = vec![0; g.vertex_count()];
    for v in g.vertices() {
        labels[perm[v as usize] as usize] = g.label(v);
    }
    let edges: Vec<(VertexId, VertexId)> = g
        .edges()
        .map(|(a, b)| (perm[a as usize], perm[b as usize]))
        .collect();
    graph_from_edges(&labels, &edges)
}

fn random_permutation(n: usize, rng: &mut SmallRng) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    perm
}

fn all_feature_combinations() -> Vec<PruningFeatures> {
    (0u8..16)
        .map(|bits| PruningFeatures {
            reservation_guards: bits & 1 != 0,
            nogood_vertex_guards: bits & 2 != 0,
            nogood_edge_guards: bits & 4 != 0,
            backjumping: bits & 8 != 0,
        })
        .collect()
}

/// Runs the entire engine matrix on one instance and returns the labeled counts.
/// Every engine goes through the shared sink layer (counting sinks everywhere).
fn engine_counts(query: &Graph, data: &Graph) -> Vec<(String, u64)> {
    let mut counts = Vec::new();
    counts.push(("brute-force".to_string(), brute_force::count(query, data)));
    for features in all_feature_combinations() {
        let cfg = GupConfig {
            features,
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::new(query, data, cfg).expect("valid query");
        let mut sink = CountOnly::new();
        matcher.run_with_sink(&mut sink);
        counts.push((format!("GuP[bits={:?}]", features), sink.count()));
    }
    // The work-stealing driver, through the same counting-sink front door.
    let cfg = GupConfig {
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    let matcher = GupMatcher::<1>::new(query, data, cfg).expect("valid query");
    let mut sink = CountOnly::new();
    matcher.run_parallel_with_sink(4, &mut sink);
    counts.push(("GuP-parallel(4)".to_string(), sink.count()));
    for kind in BaselineKind::ALL {
        let mut sink = CountOnly::new();
        let result = BacktrackingBaseline::<1>::new(query, data, kind)
            .expect("valid query")
            .run_with_sink(&mut sink);
        assert_eq!(
            result.embeddings,
            sink.count(),
            "{} sink drift",
            kind.name()
        );
        counts.push((kind.name().to_string(), sink.count()));
    }
    let mut sink = CountOnly::new();
    JoinBaseline::new(query, data, OrderingStrategy::GqlStyle)
        .expect("valid query")
        .run_with_sink(&mut sink);
    counts.push(("join".to_string(), sink.count()));
    counts
}

/// All engines agree with each other on this instance; returns the common count.
fn agreed_count(name: &str, query: &Graph, data: &Graph) -> u64 {
    let counts = engine_counts(query, data);
    let expected = counts[0].1;
    for (engine, count) in &counts {
        assert_eq!(
            *count, expected,
            "{name}: engine {engine} disagrees (got {count}, oracle {expected})"
        );
    }
    expected
}

/// The instances the relations are applied to: the golden fixtures plus a couple of
/// seed-pinned random pairs (small enough for the brute-force oracle and the
/// 16-combo GuP matrix).
fn instances() -> Vec<(String, Graph, Graph)> {
    let (paper_query, paper_data) = fixtures::paper_example();
    let mut out = vec![
        ("paper_example".to_string(), paper_query, paper_data),
        (
            "triangle_in_square".to_string(),
            fixtures::triangle_query(),
            fixtures::square_with_diagonal(),
        ),
        (
            "clique4".to_string(),
            fixtures::clique4(1),
            graph_from_edges(
                &[1; 6],
                &[
                    (0, 1),
                    (0, 2),
                    (0, 3),
                    (1, 2),
                    (1, 3),
                    (2, 3),
                    (2, 4),
                    (3, 4),
                    (1, 4),
                ],
            ),
        ),
    ];
    let mut rng = SmallRng::seed_from_u64(0xA11CE);
    let mut added = 0;
    for seed in 0..20u64 {
        let data = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 16,
            edge_probability: 0.28,
            labels: 3,
            seed,
        });
        let Some(query) = random_walk_query(&data, 4, &mut rng) else {
            continue;
        };
        out.push((format!("er_seed{seed}"), query, data));
        added += 1;
        if added == 2 {
            break;
        }
    }
    assert_eq!(added, 2, "random instance generation went dry");
    out
}

#[test]
fn label_permutation_leaves_counts_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x5EED01);
    for (name, query, data) in instances() {
        let baseline = agreed_count(&name, &query, &data);
        // One shared alphabet for both graphs: the permutation must cover every
        // label either of them uses.
        let alphabet = query.label_count().max(data.label_count());
        for round in 0..3 {
            let perm = random_permutation(alphabet, &mut rng);
            let permuted_query = permute_labels(&query, &perm);
            let permuted_data = permute_labels(&data, &perm);
            let transformed = agreed_count(
                &format!("{name}/labels round {round}"),
                &permuted_query,
                &permuted_data,
            );
            assert_eq!(
                transformed, baseline,
                "{name}: label permutation {perm:?} changed the count"
            );
        }
    }
}

#[test]
fn vertex_shuffle_leaves_counts_invariant() {
    let mut rng = SmallRng::seed_from_u64(0x5EED02);
    for (name, query, data) in instances() {
        let baseline = agreed_count(&name, &query, &data);
        for round in 0..3 {
            // Shuffle the data graph, the query graph, and both at once.
            let data_perm = random_permutation(data.vertex_count(), &mut rng);
            let query_perm = random_permutation(query.vertex_count(), &mut rng);
            let shuffled_data = shuffle_vertices(&data, &data_perm);
            let shuffled_query = shuffle_vertices(&query, &query_perm);
            for (case, q, d) in [
                ("data", &query, &shuffled_data),
                ("query", &shuffled_query, &data),
                ("both", &shuffled_query, &shuffled_data),
            ] {
                let transformed = agreed_count(&format!("{name}/{case} round {round}"), q, d);
                assert_eq!(
                    transformed, baseline,
                    "{name}: vertex shuffle ({case}) changed the count"
                );
            }
        }
    }
}

#[test]
fn composed_transformations_are_still_invariant() {
    // Labels and vertex ids permuted together, on the hardest fixture.
    let (query, data) = fixtures::paper_example();
    let baseline = agreed_count("paper_example", &query, &data);
    let mut rng = SmallRng::seed_from_u64(0x5EED03);
    for round in 0..3 {
        let alphabet = query.label_count().max(data.label_count());
        let label_perm = random_permutation(alphabet, &mut rng);
        let data_perm = random_permutation(data.vertex_count(), &mut rng);
        let query_perm = random_permutation(query.vertex_count(), &mut rng);
        let q = shuffle_vertices(&permute_labels(&query, &label_perm), &query_perm);
        let d = shuffle_vertices(&permute_labels(&data, &label_perm), &data_perm);
        assert_eq!(
            agreed_count(&format!("composed round {round}"), &q, &d),
            baseline,
            "composed label+vertex transformation changed the count"
        );
    }
}
