//! Property-based tests (proptest) over randomly generated graphs and queries.
//!
//! The central invariant: for any labeled data graph and any connected query extracted
//! from it, GuP — with or without guards — reports exactly the same number of
//! embeddings as the brute-force reference, and every reported embedding satisfies the
//! three constraints of Definition 2.1 (label, adjacency, injectivity).
//!
//! Determinism: the vendored proptest derives each test's RNG seed from the test
//! name (override with `PROPTEST_SEED=<u64>`), and the case counts below are bounded,
//! so `cargo test -q` explores the same instances on every run and stays well under a
//! minute even on 2 cores. The `walk_seed` inputs feed `SmallRng::seed_from_u64`
//! directly, so a failing case's message (case index + seed) reproduces it exactly.

use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PruningFeatures, SearchLimits};
use gup_baselines::brute_force;
use gup_graph::builder::GraphBuilder;
use gup_graph::generate::random_walk_query;
use gup_graph::{algo, Graph, PreparedData};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Strategy: a random labeled graph with `n` vertices, `labels` distinct labels, and a
/// random edge set (each possible edge included with probability ~`density`).
fn arb_graph(max_vertices: usize, labels: u32, density: f64) -> impl Strategy<Value = Graph> {
    (4..=max_vertices).prop_flat_map(move |n| {
        let edges = proptest::collection::vec(any::<bool>(), n * (n - 1) / 2);
        let vertex_labels = proptest::collection::vec(0..labels, n);
        (vertex_labels, edges).prop_map(move |(ls, es)| {
            let mut b = GraphBuilder::with_capacity(n, es.len());
            for &l in &ls {
                b.add_vertex(l);
            }
            let mut idx = 0;
            for a in 0..n as u32 {
                for c in (a + 1)..n as u32 {
                    // Thin the dense upper-triangle bit vector down to roughly the
                    // requested density by keeping every k-th set bit.
                    if es[idx] && (idx as f64 * density).fract() < density {
                        b.add_edge(a, c);
                    }
                    idx += 1;
                }
            }
            b.build()
        })
    })
}

fn gup_count(query: &Graph, data: &PreparedData, features: PruningFeatures) -> u64 {
    let cfg = GupConfig {
        features,
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    GupMatcher::<1>::with_prepared(query, data, cfg)
        .unwrap()
        .run_with_sink(&mut CountOnly::new())
        .embeddings
}

proptest! {
    #![proptest_config(ProptestConfig {
        // Bounded so the whole file finishes in seconds; when hunting for
        // counterexamples, raise this locally or sweep PROPTEST_SEED.
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn gup_matches_brute_force_on_random_instances(
        data in arb_graph(14, 3, 0.6),
        query_size in 3usize..6,
        walk_seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(walk_seed);
        let Some(query) = random_walk_query(&data, query_size, &mut rng) else {
            return Ok(());
        };
        prop_assume!(algo::is_connected(&query));
        let expected = brute_force::count(&query, &data);
        let data = PreparedData::new(data);
        prop_assert_eq!(gup_count(&query, &data, PruningFeatures::ALL), expected);
        prop_assert_eq!(gup_count(&query, &data, PruningFeatures::NONE), expected);
        prop_assert_eq!(gup_count(&query, &data, PruningFeatures::RESERVATION_AND_NV), expected);
    }

    #[test]
    fn reported_embeddings_satisfy_isomorphism_constraints(
        data in arb_graph(12, 2, 0.7),
        walk_seed in 0u64..1000,
    ) {
        let mut rng = SmallRng::seed_from_u64(walk_seed);
        let Some(query) = random_walk_query(&data, 4, &mut rng) else {
            return Ok(());
        };
        prop_assume!(algo::is_connected(&query));
        let result = gup::find_embeddings(&query, &data).unwrap();
        for emb in &result.embeddings {
            // Label constraint.
            for u in query.vertices() {
                prop_assert_eq!(query.label(u), data.label(emb[u as usize]));
            }
            // Adjacency constraint.
            for (a, b) in query.edges() {
                prop_assert!(data.has_edge(emb[a as usize], emb[b as usize]));
            }
            // Injectivity constraint.
            let mut seen = emb.clone();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), emb.len());
        }
    }

    #[test]
    fn guards_never_lose_embeddings_relative_to_baseline(
        data in arb_graph(12, 2, 0.8),
        walk_seed in 0u64..500,
    ) {
        let mut rng = SmallRng::seed_from_u64(walk_seed);
        let Some(query) = random_walk_query(&data, 5, &mut rng) else {
            return Ok(());
        };
        prop_assume!(algo::is_connected(&query));
        let data = PreparedData::new(data);
        let guarded = gup_count(&query, &data, PruningFeatures::ALL);
        let unguarded = gup_count(&query, &data, PruningFeatures::NONE);
        prop_assert_eq!(guarded, unguarded);
    }

    #[test]
    fn qvset_operations_behave_like_sets_at_64(
        a in proptest::collection::btree_set(0usize..64, 0..20),
        b in proptest::collection::btree_set(0usize..64, 0..20),
    ) {
        qvset_model_check::<1>(&a, &b)?;
    }

    #[test]
    fn qvset_operations_behave_like_sets_at_128(
        a in proptest::collection::btree_set(0usize..128, 0..30),
        b in proptest::collection::btree_set(0usize..128, 0..30),
    ) {
        qvset_model_check::<2>(&a, &b)?;
    }

    #[test]
    fn qvset_operations_behave_like_sets_at_256(
        a in proptest::collection::btree_set(0usize..256, 0..40),
        b in proptest::collection::btree_set(0usize..256, 0..40),
    ) {
        qvset_model_check::<4>(&a, &b)?;
    }
}

/// Checks every `QVSet<W>` operation against a `BTreeSet` model — shared by the
/// width-64/128/256 property instances above.
fn qvset_model_check<const W: usize>(
    a: &std::collections::BTreeSet<usize>,
    b: &std::collections::BTreeSet<usize>,
) -> Result<(), proptest::test_runner::TestCaseError> {
    use gup_graph::QVSet;
    let sa = QVSet::<W>::from_iter(a.iter().copied());
    let sb = QVSet::<W>::from_iter(b.iter().copied());
    let union: std::collections::BTreeSet<_> = a.union(b).copied().collect();
    let inter: std::collections::BTreeSet<_> = a.intersection(b).copied().collect();
    let diff: std::collections::BTreeSet<_> = a.difference(b).copied().collect();
    prop_assert_eq!(
        sa.union(sb).iter().collect::<Vec<_>>(),
        union.into_iter().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        sa.intersection(sb).iter().collect::<Vec<_>>(),
        inter.into_iter().collect::<Vec<_>>()
    );
    prop_assert_eq!(
        sa.difference(sb).iter().collect::<Vec<_>>(),
        diff.iter().copied().collect::<Vec<_>>()
    );
    prop_assert_eq!(sa.len(), a.len());
    prop_assert_eq!(sa.is_subset_of(sb), a.is_subset(b));
    prop_assert_eq!(sa.max(), a.iter().next_back().copied());
    prop_assert_eq!(sa.min(), a.iter().next().copied());
    // Insert/remove round-trip through the model.
    let mut roundtrip = QVSet::<W>::new();
    for &i in a {
        roundtrip.insert(i);
    }
    for &i in b {
        roundtrip.remove(i);
    }
    prop_assert_eq!(
        roundtrip.iter().collect::<Vec<_>>(),
        diff.iter().copied().collect::<Vec<_>>()
    );
    for i in 0..QVSet::<W>::CAPACITY {
        prop_assert_eq!(sa.contains(i), a.contains(&i));
    }
    Ok(())
}
