//! Deadline-enforcement regressions for the session/batch layer.
//!
//! Two holes are pinned closed here:
//!
//! 1. The brute-force oracle used to enforce its deadline only **between reported
//!    embeddings**, so a zero-match adversarial query (whose sink is never called)
//!    ran to completion no matter the timeout. The deadline is now sampled
//!    periodically inside the enumeration.
//! 2. A batch shares one absolute deadline across its queries; once it has passed,
//!    every engine must "fail fast with `hit_time_limit`" — not run unlimited, and
//!    not pay a full filter pass first.

use gup::session::{Engine, Session};
use gup::sink::CountOnly;
use gup::{Gcs, GupConfig, GupError};
use gup_graph::builder::graph_from_edges;
use gup_graph::fixtures;
use gup_graph::generate::{power_law_graph, PowerLawConfig};
use gup_graph::{Graph, PreparedData};
use std::time::{Duration, Instant};

/// A data graph and query engineered so that brute force grinds for a long time
/// while finding **zero** matches: a label-0 clique hosts an astronomical number of
/// partial path matches, but the query's final vertex wears a label the data graph
/// does not contain.
fn zero_match_grinder() -> (Graph, Graph) {
    let n = 26u32;
    let mut labels = vec![0u32; n as usize];
    labels.push(1);
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    let data = graph_from_edges(&labels, &edges);
    let query = graph_from_edges(
        &[0, 0, 0, 0, 0, 0, 0, 9],
        &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)],
    );
    (query, data)
}

/// Acceptance criterion: a zero-match brute-force query with a 50 ms timeout
/// returns `hit_time_limit = true` in well under a second.
#[test]
fn zero_match_brute_force_observes_a_50ms_timeout() {
    let (query, data) = zero_match_grinder();
    let session = Session::new(data);
    let start = Instant::now();
    let stats = session
        .query(&query)
        .method(Engine::BruteForce)
        .unlimited()
        .timeout(Duration::from_millis(50))
        .run_with_sink(&mut CountOnly::new())
        .unwrap();
    let elapsed = start.elapsed();
    assert!(stats.hit_time_limit, "deadline never observed");
    assert_eq!(stats.embeddings, 0);
    assert!(
        elapsed < Duration::from_secs(1),
        "50 ms budget took {elapsed:?}"
    );
}

/// A batch whose first query exhausts the shared budget: the remaining queries
/// must fail fast with `hit_time_limit = true` — zero work (no recursions, no
/// embeddings) and near-zero latency, instead of running unlimited or paying a
/// filter pass per query.
#[test]
fn batch_remainder_fails_fast_once_the_budget_is_exhausted() {
    let (grinder_query, data) = zero_match_grinder();
    let (paper_query, _paper_data) = fixtures::paper_example();
    // The paper query's labels exist in the grinder data graph? Irrelevant — what
    // matters is that queries 2..N get *some* valid query; use the grinder query
    // again plus a trivial one.
    let trivial = graph_from_edges(&[0, 0], &[(0, 1)]);
    let queries = vec![
        grinder_query.clone(),
        trivial.clone(),
        grinder_query,
        trivial,
        paper_query,
    ];

    let session = Session::new(data);
    let start = Instant::now();
    let report = session
        .batch()
        .method(Engine::BruteForce)
        .unlimited()
        .timeout(Duration::from_millis(40))
        .run(&queries);
    let elapsed = start.elapsed();

    // Query 0 burned the whole budget and reports the timeout.
    let first = report.queries[0].result.as_ref().unwrap();
    assert!(first.hit_time_limit, "first query must report the timeout");
    // Every later query failed fast: timeout flag set, nothing executed.
    for q in &report.queries[1..] {
        let stats = q.result.as_ref().unwrap();
        assert!(
            stats.hit_time_limit,
            "query {} must inherit the exhausted budget",
            q.index
        );
        assert_eq!(stats.embeddings, 0, "query {}", q.index);
        assert_eq!(stats.recursions, 0, "query {}", q.index);
        assert!(
            q.elapsed < Duration::from_millis(250),
            "query {} took {:?} after the budget was spent",
            q.index,
            q.elapsed
        );
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "whole 40 ms-budget batch took {elapsed:?}"
    );
}

/// The same exhausted-budget contract holds for every engine family, including the
/// ones that would otherwise happily run unlimited on a zero remaining budget.
#[test]
fn every_engine_fails_fast_on_an_expired_shared_deadline() {
    let (query, data) = fixtures::paper_example();
    let session = Session::new(data);
    for engine in Engine::ALL {
        let start = Instant::now();
        let report = session
            .batch()
            .method(engine)
            .unlimited()
            .timeout(Duration::ZERO)
            .run(&[query.clone(), query.clone()]);
        let elapsed = start.elapsed();
        for q in &report.queries {
            let stats = q.result.as_ref().unwrap();
            assert!(
                stats.hit_time_limit,
                "engine {}: query {} ignored the expired deadline",
                engine.name(),
                q.index
            );
            assert_eq!(stats.embeddings, 0, "engine {}", engine.name());
        }
        assert!(
            elapsed < Duration::from_secs(1),
            "engine {}: expired-deadline batch took {elapsed:?}",
            engine.name()
        );
    }
}

/// A single-label data graph big enough that the candidate filter pass *alone*
/// is substantial work: with one label, LDF keeps all 60 000 vertices as
/// candidates for every vertex of an 8-path, NLF can reject nothing, and the
/// DAG-DP refinement plus candidate-edge materialization grind through millions
/// of candidate-constraint pairs before any search could start.
fn filter_grinder() -> (Graph, Graph) {
    let data = power_law_graph(&PowerLawConfig {
        vertices: 60_000,
        edges_per_vertex: 20,
        labels: 1,
        label_skew: 0.0,
        extra_edge_fraction: 0.0,
        seed: 7,
    });
    let query = fixtures::path(8, 0);
    (query, data)
}

/// The filter-pass deadline hole, pinned shut at the lowest level: a deadline
/// that expires mid-filter aborts `Gcs::build_prepared` with `FilterTimeout`
/// instead of completing the candidate space long after the budget is gone. The
/// data graph is prepared before the budget starts, so the budget covers only
/// the filter pass.
#[test]
fn gcs_build_aborts_when_the_deadline_expires_mid_filter() {
    let (query, data) = filter_grinder();
    let prepared = PreparedData::new(data);
    let mut config = GupConfig::default();
    config.limits.deadline = Some(Instant::now() + Duration::from_millis(2));
    let start = Instant::now();
    let err = Gcs::<1>::build_prepared(&query, &prepared, &config)
        .expect_err("a 2 ms budget cannot cover this filter pass");
    let elapsed = start.elapsed();
    assert!(matches!(err, GupError::FilterTimeout), "{err:?}");
    assert!(
        elapsed < Duration::from_millis(200),
        "mid-filter abort took {elapsed:?}"
    );
}

/// Acceptance criterion for the filter-pass hole: with a 50 ms budget on a query
/// whose filter pass alone used to blow it, **every** engine family comes back
/// promptly with `hit_time_limit = true` — whether the budget dies in the filter
/// (typed `FilterTimeout`, mapped to the flag) or in the first slice of search.
#[test]
fn every_engine_observes_a_50ms_budget_dominated_by_the_filter_pass() {
    let (query, data) = filter_grinder();
    let session = Session::new(data);
    for engine in Engine::ALL {
        let start = Instant::now();
        let stats = session
            .query(&query)
            .method(engine)
            .unlimited()
            .timeout(Duration::from_millis(50))
            .run_with_sink(&mut CountOnly::new())
            .unwrap();
        let elapsed = start.elapsed();
        assert!(
            stats.hit_time_limit,
            "engine {}: 50 ms budget never observed ({} embeddings, {:?})",
            engine.name(),
            stats.embeddings,
            elapsed
        );
        assert!(
            elapsed < Duration::from_millis(400),
            "engine {}: 50 ms budget took {elapsed:?}",
            engine.name()
        );
    }
}

/// GuP flavor of the exhausted-budget batch: a heavy *many*-match query burns the
/// budget through the engine's periodic in-search deadline sampling, and the
/// remaining queries fail fast.
#[test]
fn gup_batch_remainder_fails_fast_too() {
    // K22 with one label: a 6-path query has ~53 million embeddings — far more
    // than a release build can enumerate inside a 30 ms budget.
    let n = 22u32;
    let labels = vec![0u32; n as usize];
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    let data = graph_from_edges(&labels, &edges);
    let heavy = fixtures::path(6, 0);
    let queries = vec![heavy.clone(), heavy.clone(), heavy];

    let session = Session::new(data);
    let start = Instant::now();
    let report = session
        .batch()
        .unlimited()
        .timeout(Duration::from_millis(30))
        .run(&queries);
    let elapsed = start.elapsed();

    let first = report.queries[0].result.as_ref().unwrap();
    assert!(first.hit_time_limit, "heavy GuP query must hit the budget");
    for q in &report.queries[1..] {
        let stats = q.result.as_ref().unwrap();
        assert!(stats.hit_time_limit, "query {}", q.index);
        assert_eq!(stats.recursions, 0, "query {}", q.index);
        assert!(
            q.elapsed < Duration::from_millis(250),
            "query {} took {:?}",
            q.index,
            q.elapsed
        );
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "whole 30 ms-budget GuP batch took {elapsed:?}"
    );
}
