//! End-to-end validation of the large-query scenario family (65–256 query
//! vertices) opened by the width-generic `QVSet`.
//!
//! Every fixture from `gup_workloads::large` is run through the `Session` front
//! door on **every** engine family (GuP sequential, GuP parallel, all four
//! backtracking baselines, the join enumerator, and the brute-force oracle) and —
//! for GuP — across the standard pruning-feature ablation ladder; every count is
//! pinned against the brute-force oracle on the same host graph. The fixtures'
//! hosts embed their query by construction, so a silent zero (an engine that
//! "succeeds" by matching nothing) can never pass.
//!
//! The width boundaries themselves are covered too: 65/96 vertices dispatch to the
//! two-word engine, 130 to the four-word engine, an explicitly one-word matcher
//! still rejects 65, and 257 vertices is a typed `TooLarge` everywhere.

use gup::session::{Engine, Session};
use gup::{GupConfig, GupMatcher, PruningFeatures, SearchLimits, SessionError};
use gup_baselines::brute_force;
use gup_graph::{GraphBuilder, QueryGraphError};
use gup_workloads::large::{large_query_fixtures, LargeQueryFixture};

fn unlimited() -> GupConfig {
    GupConfig {
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    }
}

const FEATURE_LADDER: [PruningFeatures; 5] = [
    PruningFeatures::NONE,
    PruningFeatures::RESERVATION_ONLY,
    PruningFeatures::RESERVATION_AND_NV,
    PruningFeatures::RESERVATION_NV_NE,
    PruningFeatures::ALL,
];

/// Golden counts: every engine × the GuP feature ladder agrees with the oracle on
/// every large fixture, driven through one shared prepared session per host.
#[test]
fn all_engines_match_brute_force_on_large_queries() {
    for LargeQueryFixture { name, query, host } in large_query_fixtures() {
        let expected = brute_force::count(&query, &host);
        assert!(
            expected >= 1,
            "{name}: host must contain the query by construction"
        );
        let session = Session::new(host).with_defaults(unlimited());

        // GuP, sequential, across the whole pruning ablation ladder.
        for features in FEATURE_LADDER {
            let count = session
                .query(&query)
                .features(features)
                .unlimited()
                .count()
                .unwrap();
            assert_eq!(
                count,
                expected,
                "{name}: GuP seq features={}",
                features.label()
            );
        }
        // GuP on the work-stealing parallel driver.
        for threads in [2, 4] {
            let count = session
                .query(&query)
                .threads(threads)
                .unlimited()
                .count()
                .unwrap();
            assert_eq!(count, expected, "{name}: GuP parallel threads={threads}");
        }
        // Every other engine family through the same session.
        for engine in Engine::ALL {
            let count = session
                .query(&query)
                .method(engine)
                .unlimited()
                .count()
                .unwrap();
            assert_eq!(count, expected, "{name}: engine {}", engine.name());
        }
    }
}

/// The acceptance-criteria pair (96 and 130 vertices) also works with limits,
/// first-k, and embedding materialization — not just raw counts.
#[test]
fn large_queries_support_the_full_request_surface() {
    for LargeQueryFixture { name, query, host } in large_query_fixtures() {
        let n = query.vertex_count();
        if n != 96 && n != 130 {
            continue;
        }
        let session = Session::new(host).with_defaults(unlimited());
        let expected = session.query(&query).unlimited().count().unwrap();
        assert!(expected >= 1, "{name}");

        // Materialized embeddings have one entry per query vertex and verify
        // against the host.
        let outcome = session.query(&query).unlimited().run().unwrap();
        assert_eq!(outcome.embedding_count(), expected, "{name}");
        for emb in &outcome.embeddings {
            assert_eq!(emb.len(), n, "{name}");
            for u in query.vertices() {
                assert_eq!(
                    query.label(u),
                    session.data().label(emb[u as usize]),
                    "{name}: label constraint"
                );
            }
            for (a, b) in query.edges() {
                assert!(
                    session.data().has_edge(emb[a as usize], emb[b as usize]),
                    "{name}: adjacency constraint"
                );
            }
            let mut used = emb.clone();
            used.sort_unstable();
            used.dedup();
            assert_eq!(used.len(), emb.len(), "{name}: injectivity constraint");
        }

        // first_k stops early and keeps exactly one.
        let first = session.query(&query).first_k(1).run().unwrap();
        assert_eq!(first.embeddings.len(), 1, "{name}");
    }
}

/// Width dispatch is real: an explicitly one-word matcher rejects a 65-vertex
/// query with a typed error naming its own 64-vertex capacity, while the session
/// transparently dispatches the same query to a wider engine.
#[test]
fn one_word_engines_still_reject_what_they_cannot_hold() {
    let fixture = &large_query_fixtures()[0]; // large-65
    assert_eq!(fixture.query.vertex_count(), 65);

    let Err(err) = GupMatcher::<1>::new(&fixture.query, &fixture.host, unlimited()) else {
        panic!("one-word matcher must reject a 65-vertex query");
    };
    assert!(format!("{err}").contains("at most 64"), "{err}");

    let session = Session::new(fixture.host.clone()).with_defaults(unlimited());
    assert!(session.query(&fixture.query).unlimited().count().unwrap() >= 1);
}

/// The new global ceiling: 257 vertices is a typed `TooLarge` from the session
/// (and names the 256-vertex limit), while exactly 256 is accepted and runs.
#[test]
fn too_large_boundary_sits_at_256() {
    // A 257-vertex path.
    let mut b = GraphBuilder::new();
    b.add_vertices(257, 0);
    for i in 0..256u32 {
        b.add_edge(i, i + 1);
    }
    let query = b.build();

    let mut b = GraphBuilder::new();
    b.add_vertices(4, 0);
    b.add_edge(0, 1);
    let data = b.build();
    let session = Session::new(data);
    let err = session.query(&query).count().unwrap_err();
    let SessionError::InvalidQuery(inner) = err;
    assert_eq!(
        inner,
        QueryGraphError::TooLarge {
            vertices: 257,
            limit: 256
        }
    );

    // Exactly 256 vertices: accepted, dispatched to the four-word engine, and
    // correct (a 256-path in a 256-path with distinct labels has exactly one
    // embedding; labels increase along the path so the reversal never matches).
    let mut b = GraphBuilder::new();
    for i in 0..256u32 {
        b.add_vertex(i % 97);
    }
    for i in 0..255u32 {
        b.add_edge(i, i + 1);
    }
    let path256 = b.build();
    let session = Session::new(path256.clone()).with_defaults(unlimited());
    for engine in [Engine::Gup, Engine::Daf, Engine::BruteForce] {
        assert_eq!(
            session
                .query(&path256)
                .method(engine)
                .unlimited()
                .count()
                .unwrap(),
            1,
            "engine {}",
            engine.name()
        );
    }
}
