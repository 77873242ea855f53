//! Session-API integration suite: every engine family and every `PruningFeatures`
//! combination must report the golden counts through one shared `PreparedData`,
//! and one `Arc<PreparedData>` must serve concurrent queries from many threads with
//! schedule-independent counts.

use gup::session::{Engine, Session};
use gup::sink::{CountOnly, FirstK};
use gup::{GupConfig, GupMatcher, PreparedData, PruningFeatures, SearchLimits};
use gup_graph::fixtures::{clique4, paper_example, path, square_with_diagonal, triangle_query};
use gup_graph::Graph;
use std::sync::Arc;

/// The golden fixture instances (same counts as `tests/golden_counts.rs`).
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

/// Every engine family, driven through one shared `PreparedData` per fixture, must
/// report the golden counts.
#[test]
fn session_engines_match_cold_runs_on_goldens() {
    for (name, query, data, expected) in golden_instances() {
        let session = Session::new(data);
        for engine in Engine::ALL {
            let prepared_count = session
                .query(&query)
                .method(engine)
                .unlimited()
                .count()
                .unwrap_or_else(|e| panic!("{name}/{}: {e}", engine.name()));
            assert_eq!(
                prepared_count,
                expected,
                "{name}: engine {} disagrees with golden count",
                engine.name()
            );
        }
    }
}

/// GuP through the session must report the golden counts under *each of the 16*
/// feature combinations, sequentially and in parallel.
#[test]
fn session_gup_matches_cold_under_every_feature_combination() {
    for (name, query, data, expected) in golden_instances() {
        let session = Session::new(data);
        for features in all_feature_combinations() {
            let prepared = session
                .query(&query)
                .features(features)
                .unlimited()
                .count()
                .unwrap();
            assert_eq!(prepared, expected, "{name} GuP[{}]", features.label());
            for threads in [2, 4] {
                let parallel = session
                    .query(&query)
                    .features(features)
                    .threads(threads)
                    .unlimited()
                    .count()
                    .unwrap();
                assert_eq!(
                    parallel,
                    expected,
                    "{name} GuP[{}] threads={threads}",
                    features.label()
                );
            }
        }
    }
}

/// One `Arc<PreparedData>` shared by concurrent threads running different queries
/// (and thread counts) must produce schedule-independent counts everywhere.
#[test]
fn arc_prepared_data_serves_concurrent_queries() {
    let (paper_query, paper_data) = paper_example();
    let prepared = Arc::new(PreparedData::new(paper_data));
    let expected_paper = 4u64;
    let expected_triangle = 2u64;

    let mut handles = Vec::new();
    for worker in 0..4 {
        let prepared = Arc::clone(&prepared);
        let paper_query = paper_query.clone();
        handles.push(std::thread::spawn(move || {
            let session = Session::from_prepared(prepared);
            for round in 0..8 {
                // Alternate engines and thread counts so the shared index is hit
                // from every code path at once.
                let engine = match (worker + round) % 3 {
                    0 => Engine::Gup,
                    1 => Engine::Daf,
                    _ => Engine::Join,
                };
                let threads = if engine == Engine::Gup {
                    1 + (round % 2)
                } else {
                    1
                };
                let n = session
                    .query(&paper_query)
                    .method(engine)
                    .threads(threads)
                    .unlimited()
                    .count()
                    .unwrap();
                assert_eq!(n, expected_paper, "worker {worker} round {round}");
                let t = session
                    .query(&triangle_query())
                    .method(engine)
                    .unlimited()
                    .count()
                    .unwrap();
                assert_eq!(t, expected_triangle, "worker {worker} round {round}");
                // Limits stay exact under sharing: exactly min(limit, total).
                let limited = session
                    .query(&paper_query)
                    .method(Engine::Gup)
                    .threads(threads)
                    .limit(3)
                    .count()
                    .unwrap();
                assert_eq!(limited, 3, "worker {worker} round {round}");
            }
        }));
    }
    for handle in handles {
        handle.join().unwrap();
    }
}

/// `run_batch` must agree query-by-query with individual runs, amortize the prep
/// time over the batch, and keep working when some queries are invalid.
#[test]
fn run_batch_matches_individual_queries() {
    let (paper_query, paper_data) = paper_example();
    let session = Session::new(paper_data);
    let queries = vec![paper_query.clone(), triangle_query(), paper_query];
    let report = session.batch().unlimited().run(&queries);
    assert_eq!(report.queries.len(), 3);
    assert_eq!(report.succeeded(), 3);
    for (i, q) in queries.iter().enumerate() {
        let individual = session.query(q).unlimited().count().unwrap();
        let stats = report.queries[i].result.as_ref().unwrap();
        assert_eq!(stats.embeddings, individual, "query {i}");
        assert_eq!(report.queries[i].prep_amortized, report.prep_time / 3);
    }
    assert_eq!(report.total_embeddings(), 10);
    assert_eq!(
        report.prepared_index_bytes,
        session.prepared().index_bytes()
    );

    // Batches tolerate (and report) unusable queries without aborting.
    let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
    for engine in Engine::ALL {
        let mixed = session
            .batch()
            .method(engine)
            .unlimited()
            .run(&[triangle_query(), disconnected.clone()]);
        assert_eq!(mixed.succeeded(), 1, "engine {}", engine.name());
        assert_eq!(mixed.total_embeddings(), 2, "engine {}", engine.name());
        assert!(mixed.queries[1].result.is_err());
    }
}

/// The sink surface works identically through the session front door: `first_k`
/// stops the search, counting sinks materialize nothing, and a generous batch
/// deadline does not fire.
#[test]
fn session_sinks_and_deadlines() {
    let (query, data) = paper_example();
    let session = Session::new(data);

    let outcome = session.query(&query).unlimited().first_k(2).run().unwrap();
    assert_eq!(outcome.embeddings.len(), 2);
    assert_eq!(outcome.embedding_count(), 2);
    assert!(outcome.stats.terminated_early());

    let mut sink = FirstK::new(3);
    let stats = session
        .query(&query)
        .unlimited()
        .run_with_sink(&mut sink)
        .unwrap();
    assert_eq!(sink.embeddings().len(), 3);
    assert_eq!(stats.embeddings, 3);

    let mut count = CountOnly::new();
    session
        .query(&query)
        .method(Engine::Ri)
        .unlimited()
        .run_with_sink(&mut count)
        .unwrap();
    assert_eq!(count.count(), 4);

    // A one-hour shared deadline never fires on the fixtures; counts stay exact and
    // no query reports a timeout.
    let report = session
        .batch()
        .timeout(std::time::Duration::from_secs(3600))
        .run(&[query.clone(), query]);
    assert_eq!(report.total_embeddings(), 8);
    for q in &report.queries {
        assert!(!q.result.as_ref().unwrap().hit_time_limit);
    }
}

/// The prepared index is visible in the memory report: prepared bytes are the
/// once-per-session share, the per-query total keeps its Table-3 meaning.
#[test]
fn memory_report_accounts_for_prepared_index() {
    let (query, data) = paper_example();
    let session = Session::new(data);
    let matcher = GupMatcher::<1>::with_prepared(
        &query,
        session.prepared(),
        GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        },
    )
    .unwrap();
    let (_result, report) = matcher.run_with_memory_report();
    assert_eq!(
        report.prepared_index_bytes,
        session.prepared().index_bytes()
    );
    assert!(report.prepared_index_bytes > 0);
    assert_eq!(
        report.total_with_prepared_bytes(),
        report.total_bytes() + report.prepared_index_bytes
    );
}
