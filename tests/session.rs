//! Session-API integration suite: every engine family and every `PruningFeatures`
//! combination must report the golden counts through one shared `PreparedData`,
//! and one `Arc<PreparedData>` must serve concurrent queries from many threads with
//! schedule-independent counts.

use gup::session::{Engine, Session};
use gup::sink::{CountOnly, EmbeddingSink, FirstK, SinkControl};
use gup::{GupConfig, GupMatcher, PreparedData, PruningFeatures, SearchLimits};
use gup_graph::builder::graph_from_edges;
use gup_graph::deadline::deadline_after;
use gup_graph::fixtures::{clique4, paper_example, path, square_with_diagonal, triangle_query};
use gup_graph::generate::{power_law_graph, PowerLawConfig};
use gup_graph::{Graph, GraphDelta, VertexId};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

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

/// The sink surface works identically through the session front door: `first_k`
/// stops the search, counting sinks materialize nothing, and a generous deadline
/// shared by a query set does not fire.
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
    let deadline = deadline_after(Duration::from_secs(3600));
    let runs: Vec<_> = [&query, &query]
        .into_iter()
        .map(|q| session.query(q).deadline(deadline).count_stats().unwrap())
        .collect();
    assert_eq!(runs.iter().map(|stats| stats.embeddings).sum::<u64>(), 8);
    for stats in &runs {
        assert!(!stats.hit_time_limit);
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

/// One rule for the embedding-cap flags, whatever the engine, thread count, or run:
/// the cap is the configured limit folded with the sink's capacity,
/// `hit_embedding_limit` is set exactly when the reported count reached it, and a
/// cap that is the sink's capacity (`first_k`, alone or tied with `limit`) reports
/// `stopped_by_sink` instead. Every engine at 1, 2 and 4 threads, five repeats
/// each, must yield that one `(embeddings, hit_embedding_limit, stopped_by_sink)`
/// triple for `k` below, at, and above the true count — including `k = 0` and a
/// limit equal to the count, where an engine can finish its search without ever
/// checking the cap again.
#[test]
fn cap_flags_agree_across_engines_and_thread_counts() {
    let (paper_query, paper_data) = paper_example();
    let power_law = power_law_graph(&PowerLawConfig {
        vertices: 300,
        edges_per_vertex: 4,
        labels: 3,
        label_skew: 0.0,
        extra_edge_fraction: 0.0,
        seed: 5,
    });
    let instances = [
        ("paper_example", paper_query, paper_data),
        ("path4_power_law", path(4, 0), power_law.clone()),
        ("triangle_power_law", triangle_query(), power_law),
    ];
    for (name, query, data) in instances {
        let session = Session::new(data);
        let total = session.query(&query).unlimited().count().unwrap();
        for k in [0, 1, total, total + 1] {
            let reached = k <= total;
            // (use limit, use first_k) → the one expected triple.
            let cases = [
                ((true, false), (k.min(total), reached, false)),
                ((false, true), (k.min(total), false, reached)),
                ((true, true), (k.min(total), false, reached)),
            ];
            for ((limit, first_k), expected) in cases {
                let mut seen = BTreeSet::new();
                for engine in Engine::ALL {
                    for threads in [1, 2, 4] {
                        for _ in 0..5 {
                            let mut request = session
                                .query(&query)
                                .method(engine)
                                .threads(threads)
                                .unlimited();
                            if limit {
                                request = request.limit(k);
                            }
                            if first_k {
                                request = request.first_k(k);
                            }
                            let stats = request.run().unwrap().stats;
                            seen.insert((
                                stats.embeddings,
                                stats.hit_embedding_limit,
                                stats.stopped_by_sink,
                            ));
                        }
                    }
                }
                assert_eq!(
                    seen,
                    BTreeSet::from([expected]),
                    "{name}: k={k} limit={limit} first_k={first_k} (total {total})"
                );
            }
        }
    }
}

/// A user sink that panics on the first complete embedding it is shown, while
/// the search that reports it holds every query vertex assigned.
struct PanickingSink;

impl EmbeddingSink for PanickingSink {
    fn report(&mut self, _embedding: &[VertexId]) -> SinkControl {
        panic!("user sink failed");
    }
}

/// The per-thread scratch pool stays clean: a search unwound by a panicking sink
/// (caught with `catch_unwind`, as the serve worker does) leaves no assignment
/// behind for the next query on the same thread, and a data graph grown by
/// `Session::apply_deltas` past the pooled scratch's length is searched in full.
#[test]
fn scratch_pool_survives_an_unwinding_sink_and_a_growing_graph() {
    let (paper_query, paper_data) = paper_example();
    for engine in [Engine::Gup, Engine::Daf] {
        let session = Session::new(paper_data.clone());
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            session
                .query(&paper_query)
                .method(engine)
                .unlimited()
                .run_with_sink(&mut PanickingSink)
        }));
        assert!(
            unwound.is_err(),
            "{}: the sink did not panic",
            engine.name()
        );
        let count = session
            .query(&paper_query)
            .method(engine)
            .unlimited()
            .count();
        assert_eq!(
            count.ok(),
            Some(4),
            "{}: Fig. 1 after the unwind",
            engine.name()
        );
        for (name, query, data, expected) in golden_instances() {
            let count = Session::new(data)
                .query(&query)
                .method(engine)
                .unlimited()
                .count();
            assert_eq!(
                count.ok(),
                Some(expected),
                "{name}/{}: golden count after the unwind",
                engine.name()
            );
        }
    }

    // Grow the 14-vertex Fig. 1 graph to 54 vertices, past every scratch array
    // this thread has pooled. The only embedding of the query (labels A, 8, 7 on
    // a path) uses the last two new vertices: v0 - v53 - v52.
    let session = Session::new(paper_data);
    let mut deltas: Vec<GraphDelta> = (0..38)
        .map(|_| GraphDelta::AddVertex { label: 6 })
        .collect();
    deltas.push(GraphDelta::AddVertex { label: 7 });
    deltas.push(GraphDelta::AddVertex { label: 8 });
    deltas.push(GraphDelta::AddEdge { a: 52, b: 53 });
    deltas.push(GraphDelta::AddEdge { a: 0, b: 53 });
    let (grown, _effects) = session.apply_deltas(&deltas).expect("the batch is valid");
    assert_eq!(grown.data().vertex_count(), 54);
    let query = graph_from_edges(&[0, 8, 7], &[(0, 1), (1, 2)]);
    for engine in [Engine::Gup, Engine::Daf] {
        let found = grown
            .query(&query)
            .method(engine)
            .unlimited()
            .run()
            .map(|outcome| outcome.embeddings);
        assert_eq!(
            found.ok(),
            Some(vec![vec![0, 53, 52]]),
            "{}: the embedding on the new vertices",
            engine.name()
        );
    }
}
