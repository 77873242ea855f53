//! Determinism suite for the work-stealing parallel driver.
//!
//! Work stealing makes the *schedule* nondeterministic, so these tests pin what must
//! stay deterministic regardless of interleaving: the reported embedding count is
//! bit-identical to the sequential engine for `threads ∈ {1, 2, 4, 8}` on every
//! golden fixture, with and without an embedding limit, and on a seed-pinned
//! Yeast-analogue workload. The sink-mode cases pin the same property through the
//! streaming output layer: counting sinks agree with the sequential count, and
//! `FirstK` delivers *exactly* `min(k, total)` valid embeddings under every thread
//! count. Each configuration is run several times so that racy schedules get a
//! chance to disagree.

use gup::sink::{CountOnly, FirstK};
use gup::{GupConfig, GupMatcher, SearchLimits};
use gup_graph::fixtures::{clique4, paper_example, path, square_with_diagonal, triangle_query};
use gup_graph::query::{QueryGraph, QueryGraphError};
use gup_graph::{Graph, GraphBuilder, PreparedData};
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};

mod common;
use common::assert_valid_embedding;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPEATS: usize = 3;

/// The golden fixtures, each data graph prepared once for all its runs.
fn fixtures() -> Vec<(&'static str, Graph, PreparedData)> {
    let (paper_query, paper_data) = paper_example();
    let fixtures: Vec<(&'static str, Graph, Graph)> = vec![
        ("paper_example", paper_query, paper_data.clone()),
        (
            "triangle_in_square",
            triangle_query(),
            square_with_diagonal(),
        ),
        ("triangle_in_paper_data", triangle_query(), paper_data),
        ("clique4_in_clique4", clique4(2), clique4(2)),
        ("path2_on_diagonal", path(2, 0), square_with_diagonal()),
        ("path3_no_match", path(3, 1), square_with_diagonal()),
    ];
    fixtures
        .into_iter()
        .map(|(name, query, data)| (name, query, PreparedData::new(data)))
        .collect()
}

fn count(query: &Graph, data: &PreparedData, limits: SearchLimits, threads: usize) -> u64 {
    let cfg = GupConfig {
        limits,
        ..GupConfig::default()
    };
    let matcher = GupMatcher::<1>::with_prepared(query, data, cfg).unwrap();
    if threads == 1 {
        matcher.run_with_sink(&mut CountOnly::new()).embeddings
    } else {
        matcher
            .run_parallel_with_sink(threads, &mut CountOnly::new())
            .embeddings
    }
}

#[test]
fn thread_counts_agree_on_every_fixture_unlimited() {
    for (name, query, data) in fixtures() {
        let sequential = count(&query, &data, SearchLimits::UNLIMITED, 1);
        for threads in THREAD_COUNTS {
            for round in 0..REPEATS {
                let parallel = count(&query, &data, SearchLimits::UNLIMITED, threads);
                assert_eq!(
                    parallel, sequential,
                    "{name}: threads={threads} round={round} disagrees with sequential"
                );
            }
        }
    }
}

#[test]
fn thread_counts_agree_under_embedding_limits() {
    for (name, query, data) in fixtures() {
        let unlimited = count(&query, &data, SearchLimits::UNLIMITED, 1);
        // A limit below, at, and above the true count; the reserve-based shared
        // counter must make every schedule report exactly min(limit, unlimited).
        for limit in [1u64, 2, unlimited.max(1), unlimited + 10] {
            let limits = SearchLimits {
                max_embeddings: Some(limit),
                ..SearchLimits::UNLIMITED
            };
            let sequential = count(&query, &data, limits, 1);
            assert_eq!(sequential, unlimited.min(limit), "{name}: bad seq clamp");
            for threads in THREAD_COUNTS {
                for round in 0..REPEATS {
                    let parallel = count(&query, &data, limits, threads);
                    assert_eq!(
                        parallel, sequential,
                        "{name}: limit={limit} threads={threads} round={round}"
                    );
                }
            }
        }
    }
}

/// Seed-pinned stress test on the Yeast analogue: bigger instances where stealing
/// and frame splitting actually occur.
#[test]
fn yeast_analogue_stress_is_schedule_independent() {
    let data = PreparedData::new(Dataset::Yeast.generate(0.10).graph);
    let mut queries = Vec::new();
    for (vertices, class) in [
        (8, QueryClass::Sparse),
        (8, QueryClass::Dense),
        (16, QueryClass::Sparse),
    ] {
        queries.extend(generate_query_set(
            data.graph(),
            QuerySetSpec { vertices, class },
            2,
            0xC0FFEE,
        ));
    }
    assert!(
        !queries.is_empty(),
        "workload generator produced no queries"
    );
    let mut total_tasks = 0u64;
    for (qi, query) in queries.iter().enumerate() {
        let sequential = count(query, &data, SearchLimits::UNLIMITED, 1);
        for threads in [2usize, 4, 8] {
            let cfg = GupConfig {
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            };
            let stats = GupMatcher::<1>::with_prepared(query, &data, cfg)
                .unwrap()
                .run_parallel_with_sink(threads, &mut CountOnly::new());
            assert_eq!(
                stats.embeddings, sequential,
                "query {qi}: threads={threads} disagrees with sequential"
            );
            total_tasks += stats.tasks_executed;
        }
        // Limited runs must clamp identically too.
        let limits = SearchLimits {
            max_embeddings: Some(sequential / 2 + 1),
            ..SearchLimits::UNLIMITED
        };
        let seq_limited = count(query, &data, limits, 1);
        for threads in [2usize, 4, 8] {
            assert_eq!(
                count(query, &data, limits, threads),
                seq_limited,
                "query {qi}: limited threads={threads}"
            );
        }
    }
    // The work-stealing driver really ran tasks (seeded chunks at minimum).
    assert!(total_tasks > 0);
}

/// Counting sinks must observe exactly the sequential count under every thread
/// count and schedule — the streamed count is the same number the stats report.
#[test]
fn counting_sinks_agree_across_thread_counts() {
    for (name, query, data) in fixtures() {
        let sequential = count(&query, &data, SearchLimits::UNLIMITED, 1);
        for threads in THREAD_COUNTS {
            for round in 0..REPEATS {
                let cfg = GupConfig {
                    limits: SearchLimits::UNLIMITED,
                    ..GupConfig::default()
                };
                let matcher = GupMatcher::<1>::with_prepared(&query, &data, cfg).unwrap();
                let mut sink = CountOnly::new();
                let stats = matcher.run_parallel_with_sink(threads, &mut sink);
                assert_eq!(
                    sink.count(),
                    sequential,
                    "{name}: counting sink threads={threads} round={round}"
                );
                assert_eq!(
                    stats.embeddings, sequential,
                    "{name}: stats drifted from the sink count"
                );
            }
        }
    }
}

/// `FirstK` must deliver exactly `min(k, total)` embeddings — never more, never
/// fewer — regardless of the thread count and interleaving, and each delivered
/// embedding must be a valid injective label/adjacency-preserving map. Which
/// embeddings are delivered is schedule-dependent under truncation; the count and
/// validity are not.
#[test]
fn first_k_is_exact_under_every_thread_count() {
    for (name, query, data) in fixtures() {
        let total = count(&query, &data, SearchLimits::UNLIMITED, 1);
        for k in [1u64, 2, total.max(1), total + 5] {
            for threads in THREAD_COUNTS {
                for round in 0..REPEATS {
                    let cfg = GupConfig {
                        limits: SearchLimits::UNLIMITED,
                        ..GupConfig::default()
                    };
                    let matcher = GupMatcher::<1>::with_prepared(&query, &data, cfg).unwrap();
                    let mut sink = FirstK::new(k);
                    let stats = matcher.run_parallel_with_sink(threads, &mut sink);
                    let expected = k.min(total);
                    assert_eq!(
                        sink.embeddings().len() as u64,
                        expected,
                        "{name}: FirstK({k}) threads={threads} round={round}"
                    );
                    assert_eq!(
                        stats.embeddings, expected,
                        "{name}: FirstK({k}) stats threads={threads} round={round}"
                    );
                    // Flag consistency across thread counts: truncation by a sink's
                    // capacity is a sink stop, never a (nonexistent) embedding
                    // limit — sequential and parallel must agree.
                    assert!(
                        !stats.hit_embedding_limit,
                        "{name}: FirstK({k}) threads={threads} blamed the embedding limit"
                    );
                    // (At k == total the k-th report still fills the sink, which
                    // answers Stop — so the flag is set exactly when k <= total.)
                    assert_eq!(
                        stats.stopped_by_sink,
                        k <= total && total > 0,
                        "{name}: FirstK({k}) threads={threads} stopped_by_sink flag"
                    );
                    for emb in sink.embeddings() {
                        assert_valid_embedding(name, &query, data.graph(), emb);
                    }
                }
            }
        }
    }
}

/// When a `FirstK` capacity coincides with the configured embedding limit, the
/// termination flags must still be identical on every thread count: truncation is
/// attributed to the sink (whose Stop every schedule observes), never left as a
/// schedule-dependent `hit_embedding_limit`.
#[test]
fn capacity_equal_to_limit_attributes_to_the_sink_on_every_thread_count() {
    let (query, data) = paper_example(); // 4 embeddings
    let data = PreparedData::new(data);
    for threads in THREAD_COUNTS {
        for round in 0..REPEATS {
            let cfg = GupConfig {
                limits: SearchLimits {
                    max_embeddings: Some(2),
                    ..SearchLimits::UNLIMITED
                },
                ..GupConfig::default()
            };
            let matcher = GupMatcher::<1>::with_prepared(&query, &data, cfg).unwrap();
            let mut sink = FirstK::new(2);
            let stats = matcher.run_parallel_with_sink(threads, &mut sink);
            assert_eq!(
                sink.embeddings().len(),
                2,
                "threads={threads} round={round}"
            );
            assert!(
                stats.stopped_by_sink,
                "threads={threads} round={round}: missing sink-stop flag"
            );
            assert!(
                !stats.hit_embedding_limit,
                "threads={threads} round={round}: blamed the embedding limit"
            );
        }
    }
}

/// Sink-mode stress on the Yeast analogue: larger instances where frame splitting
/// and stealing actually occur, `FirstK` still exact.
#[test]
fn first_k_is_exact_on_yeast_analogue_stress() {
    let data = PreparedData::new(Dataset::Yeast.generate(0.10).graph);
    let queries = generate_query_set(
        data.graph(),
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Sparse,
        },
        2,
        0xF1257,
    );
    assert!(
        !queries.is_empty(),
        "workload generator produced no queries"
    );
    for (qi, query) in queries.iter().enumerate() {
        let total = count(query, &data, SearchLimits::UNLIMITED, 1);
        let k = total / 2 + 1;
        for threads in [2usize, 4, 8] {
            let cfg = GupConfig {
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            };
            let matcher = GupMatcher::<1>::with_prepared(query, &data, cfg).unwrap();
            let mut sink = FirstK::new(k);
            matcher.run_parallel_with_sink(threads, &mut sink);
            assert_eq!(
                sink.embeddings().len() as u64,
                k.min(total),
                "query {qi}: FirstK({k}) threads={threads}"
            );
        }
    }
}

/// Release-mode regression: a query exceeding a bitset bound must be rejected with
/// a typed error from every entry point — never reach the bitmask arithmetic where
/// a wrapped shift could silently corrupt masks with `--release`. Since the engine
/// went width-generic, a 65-vertex query is *accepted* globally (it dispatches to a
/// two-word bitset) but still rejected by an explicitly width-1 instantiation; the
/// global ceiling moved to 256 vertices.
#[test]
fn oversized_query_is_a_typed_error_in_every_profile() {
    let mut b = GraphBuilder::new();
    b.add_vertices(65, 0);
    for i in 0..64u32 {
        b.add_edge(i, i + 1);
    }
    let beyond_one_word = b.build();

    // 65 vertices: fine globally, a typed error for the one-word engine.
    assert!(QueryGraph::new(beyond_one_word.clone()).is_ok());
    let (_q, data) = paper_example();
    let data = PreparedData::new(data);
    let Err(err) = GupMatcher::<1>::with_prepared(&beyond_one_word, &data, GupConfig::default())
    else {
        panic!("65-vertex query must be rejected by an explicitly one-word matcher");
    };
    assert!(format!("{err}").contains("at most 64"));

    // 257 vertices: beyond the widest supported bitset, rejected everywhere.
    let mut b = GraphBuilder::new();
    b.add_vertices(257, 0);
    for i in 0..256u32 {
        b.add_edge(i, i + 1);
    }
    let oversized = b.build();
    let err = QueryGraph::new(oversized.clone()).unwrap_err();
    assert!(matches!(
        err,
        QueryGraphError::TooLarge {
            vertices: 257,
            limit: 256
        }
    ));
    let Err(err) = GupMatcher::<4>::with_prepared(&oversized, &data, GupConfig::default()) else {
        panic!("257-vertex query must be rejected by the widest matcher too");
    };
    assert!(format!("{err}").contains("at most 256"));
}
