//! Golden-count regression tests: the exact embedding counts of every fixture pair
//! are pinned here, and every engine — GuP under *each of the 16* `PruningFeatures`
//! combinations, sequential and parallel, all three backtracking baselines, the join
//! baseline, and the brute-force oracle — must reproduce them. A future change to
//! filtering, guards, ordering, or the search loop that silently drops (or invents)
//! embeddings fails this file immediately.

use gup::{GupConfig, GupMatcher, PruningFeatures, SearchLimits};
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::fixtures::{clique4, paper_example, path, square_with_diagonal, triangle_query};
use gup_graph::Graph;
use gup_order::OrderingStrategy;

/// The fixture instances and their hand-verified embedding counts.
///
/// * `paper_example` — Fig. 1 of the paper: the 5-cycle A-B-C-D-A query has exactly
///   4 embeddings in the 14-vertex data graph (the one named in the paper's
///   introduction plus three more sharing the v0/v1 label-A hub).
/// * `triangle_query` in `square_with_diagonal` — two label-compatible triangles
///   (0-1-2 and 0-2-3), each matched in 2 automorphic orientations.
/// * `triangle_query` in the paper data graph — the single A-A edge (v0, v1) closes
///   a triangle only through v4, in 2 orientations.
/// * `clique4` in itself — all 4! vertex permutations.
/// * `path(2)` on label 0 in `square_with_diagonal` — only the diagonal (0, 2) joins
///   two label-0 vertices, in 2 orientations.
/// * `path(3)` and `path(4)` on label 1 in `square_with_diagonal` — the three
///   label-1 vertices induce no edge, so no embedding exists; pinned to prove that
///   the engines agree on zero instead of erroring.
fn golden_instances() -> Vec<(&'static str, Graph, Graph, u64)> {
    let (paper_query, paper_data) = paper_example();
    vec![
        ("paper_example", paper_query, paper_data.clone(), 4),
        (
            "triangle_in_square",
            triangle_query(),
            square_with_diagonal(),
            4,
        ),
        ("triangle_in_paper_data", triangle_query(), paper_data, 2),
        ("clique4_in_clique4", clique4(2), clique4(2), 24),
        ("path2_on_diagonal", path(2, 0), square_with_diagonal(), 2),
        ("path3_no_match", path(3, 1), square_with_diagonal(), 0),
        ("path4_no_match", path(4, 1), square_with_diagonal(), 0),
    ]
}

/// Every combination of the four pruning toggles, not just the five named ones from
/// the paper's ablation, so that an interaction bug between guard families cannot
/// hide behind the named presets.
fn all_feature_combinations() -> Vec<PruningFeatures> {
    let mut combos = Vec::with_capacity(16);
    for bits in 0u8..16 {
        combos.push(PruningFeatures {
            reservation_guards: bits & 1 != 0,
            nogood_vertex_guards: bits & 2 != 0,
            nogood_edge_guards: bits & 4 != 0,
            backjumping: bits & 8 != 0,
        });
    }
    combos
}

fn gup_config(features: PruningFeatures) -> GupConfig {
    GupConfig {
        features,
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    }
}

#[test]
fn brute_force_oracle_matches_goldens() {
    for (name, query, data, expected) in golden_instances() {
        assert_eq!(
            brute_force::count(&query, &data),
            expected,
            "brute force disagrees on {name}"
        );
    }
}

#[test]
fn gup_matches_goldens_under_every_feature_combination() {
    for (name, query, data, expected) in golden_instances() {
        for features in all_feature_combinations() {
            let count = GupMatcher::<1>::new(&query, &data, gup_config(features))
                .unwrap()
                .run()
                .embedding_count();
            assert_eq!(
                count,
                expected,
                "GuP[{}] disagrees on {name}",
                features.label()
            );
        }
    }
}

#[test]
fn parallel_gup_matches_goldens() {
    for (name, query, data, expected) in golden_instances() {
        for threads in [2, 4, 8] {
            for features in [PruningFeatures::ALL, PruningFeatures::NONE] {
                let count = GupMatcher::<1>::new(&query, &data, gup_config(features))
                    .unwrap()
                    .run_parallel(threads)
                    .embedding_count();
                assert_eq!(
                    count,
                    expected,
                    "parallel({threads}) GuP[{}] disagrees on {name}",
                    features.label()
                );
            }
        }
    }
}

#[test]
fn backtracking_baselines_match_goldens() {
    for (name, query, data, expected) in golden_instances() {
        for kind in [
            BaselineKind::DafFailingSet,
            BaselineKind::GqlStyle,
            BaselineKind::RiStyle,
        ] {
            let count = BacktrackingBaseline::<1>::new(&query, &data, kind)
                .unwrap()
                .run()
                .embeddings;
            assert_eq!(count, expected, "{} disagrees on {name}", kind.name());
        }
    }
}

#[test]
fn join_baseline_matches_goldens() {
    for (name, query, data, expected) in golden_instances() {
        let count = JoinBaseline::new(&query, &data, OrderingStrategy::GqlStyle)
            .unwrap()
            .count();
        assert_eq!(count, expected, "join baseline disagrees on {name}");
    }
}

#[test]
fn collected_embeddings_agree_with_counts() {
    for (name, query, data, expected) in golden_instances() {
        let cfg = GupConfig {
            collect_embeddings: true,
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let result = GupMatcher::<1>::new(&query, &data, cfg).unwrap().run();
        assert_eq!(
            result.embeddings.len() as u64,
            expected,
            "materialized embedding list disagrees on {name}"
        );
        assert_eq!(result.embedding_count(), expected);
        // Every reported embedding must be a valid, injective, label- and
        // adjacency-preserving map.
        for emb in &result.embeddings {
            let mut seen: Vec<_> = emb.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), emb.len(), "non-injective embedding on {name}");
            for u in query.vertices() {
                assert_eq!(query.label(u), data.label(emb[u as usize]));
            }
            for (a, b) in query.edges() {
                assert!(data.has_edge(emb[a as usize], emb[b as usize]));
            }
        }
    }
}
