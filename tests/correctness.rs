//! Cross-matcher correctness: every engine in the workspace — GuP under every feature
//! combination, the backtracking baselines, and the join baseline — must report exactly
//! the same embeddings as the brute-force reference on a battery of fixed and
//! randomized instances.

use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PruningFeatures, SearchLimits};
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::builder::graph_from_edges;
use gup_graph::generate::{
    erdos_renyi_graph, power_law_graph, random_walk_query, ErdosRenyiConfig, PowerLawConfig,
};
use gup_graph::{fixtures, Graph, PreparedData};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn gup_count(query: &Graph, data: &PreparedData, features: PruningFeatures) -> u64 {
    let cfg = GupConfig {
        features,
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    GupMatcher::<1>::with_prepared(query, data, cfg)
        .expect("query accepted")
        .run_with_sink(&mut CountOnly::new())
        .embeddings
}

/// Runs every engine on the one shared index `prepared`.
fn check_all_engines(query: &Graph, prepared: &PreparedData) {
    let expected = brute_force::count(query, prepared.graph());
    for features in [
        PruningFeatures::NONE,
        PruningFeatures::RESERVATION_ONLY,
        PruningFeatures::RESERVATION_AND_NV,
        PruningFeatures::RESERVATION_NV_NE,
        PruningFeatures::ALL,
    ] {
        assert_eq!(
            gup_count(query, prepared, features),
            expected,
            "GuP[{}] disagrees with brute force",
            features.label()
        );
    }
    for kind in BaselineKind::ALL {
        let count = BacktrackingBaseline::<1>::with_prepared(
            query,
            prepared,
            kind,
            SearchLimits::UNLIMITED,
        )
        .expect("query accepted")
        .run_with_sink(&mut CountOnly::new())
        .embeddings;
        assert_eq!(
            count,
            expected,
            "{} disagrees with brute force",
            kind.name()
        );
    }
    let join = JoinBaseline::with_prepared(query, prepared, SearchLimits::UNLIMITED)
        .expect("query accepted")
        .run_with_sink(&mut CountOnly::new())
        .embeddings;
    assert_eq!(join, expected, "join baseline disagrees with brute force");
}

#[test]
fn fixed_instances_agree() {
    let (q, d) = fixtures::paper_example();
    check_all_engines(&q, &PreparedData::new(d));
    check_all_engines(
        &fixtures::triangle_query(),
        &PreparedData::new(fixtures::square_with_diagonal()),
    );
    check_all_engines(
        &fixtures::path(5, 0),
        &PreparedData::new(graph_from_edges(
            &[0; 7],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (1, 4),
            ],
        )),
    );
    check_all_engines(
        &fixtures::clique4(0),
        &PreparedData::new(graph_from_edges(
            &[0; 7],
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3), // K4
                (2, 4),
                (3, 4),
                (1, 4),
                (0, 4), // K5 actually
                (4, 5),
                (5, 6),
            ],
        )),
    );
}

#[test]
fn randomized_erdos_renyi_instances_agree() {
    let mut rng = SmallRng::seed_from_u64(123);
    let mut tested = 0;
    for seed in 0..30u64 {
        let data = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 18,
            edge_probability: 0.25,
            labels: 3,
            seed,
        });
        let Some(query) = random_walk_query(&data, 4, &mut rng) else {
            continue;
        };
        if !gup_graph::algo::is_connected(&query) {
            continue;
        }
        check_all_engines(&query, &PreparedData::new(data));
        tested += 1;
    }
    assert!(
        tested >= 10,
        "not enough random instances were generated ({tested})"
    );
}

#[test]
fn randomized_power_law_instances_agree() {
    let mut rng = SmallRng::seed_from_u64(77);
    let data = power_law_graph(&PowerLawConfig {
        vertices: 120,
        edges_per_vertex: 3,
        labels: 4,
        label_skew: 0.8,
        extra_edge_fraction: 0.1,
        seed: 3,
    });
    let prepared = PreparedData::new(data);
    let mut tested = 0;
    for _ in 0..20 {
        let Some(query) = random_walk_query(prepared.graph(), 5, &mut rng) else {
            continue;
        };
        check_all_engines(&query, &prepared);
        tested += 1;
    }
    assert!(tested >= 8);
}

#[test]
fn embeddings_returned_by_gup_are_exactly_the_brute_force_set() {
    let (q, d) = fixtures::paper_example();
    let expected = brute_force::enumerate(&q, &d);
    let mut got = gup::find_embeddings(&q, &d).unwrap().embeddings;
    got.sort();
    assert_eq!(got, expected);
}

#[test]
fn parallel_run_agrees_with_sequential_on_random_graphs() {
    let data = power_law_graph(&PowerLawConfig {
        vertices: 200,
        edges_per_vertex: 3,
        labels: 3,
        label_skew: 0.5,
        extra_edge_fraction: 0.1,
        seed: 9,
    });
    let mut rng = SmallRng::seed_from_u64(5);
    let prepared = PreparedData::new(data);
    let mut tested = 0;
    for _ in 0..8 {
        let Some(query) = random_walk_query(prepared.graph(), 5, &mut rng) else {
            continue;
        };
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::with_prepared(&query, &prepared, cfg).unwrap();
        let sequential = matcher.run_with_sink(&mut CountOnly::new()).embeddings;
        let parallel = matcher
            .run_parallel_with_sink(4, &mut CountOnly::new())
            .embeddings;
        assert_eq!(sequential, parallel);
        tested += 1;
    }
    assert!(tested >= 4);
}
