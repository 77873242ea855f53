//! End-to-end pipeline integration: workloads → candidate space → GCS → search, plus
//! text I/O round trips feeding the matcher. These tests exercise the crates together
//! the way the benchmark harness and the examples do.

use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PreparedData, SearchLimits};
use gup_candidate::{CandidateSpace, FilterConfig};
use gup_graph::deadline::deadline_after;
use gup_graph::io::{graph_to_string, parse_graph};
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};
use std::time::Duration;

/// A fresh budget per call: 50 000 embeddings and a 2 s deadline starting now.
fn limits() -> SearchLimits {
    SearchLimits {
        max_embeddings: Some(50_000),
        deadline: Some(deadline_after(Duration::from_secs(2))),
    }
}

#[test]
fn yeast_analogue_query_sets_run_under_gup() {
    let data = PreparedData::new(Dataset::Yeast.generate(0.08).graph);
    let mut ran = 0;
    for spec in [
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Sparse,
        },
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Dense,
        },
        QuerySetSpec {
            vertices: 16,
            class: QueryClass::Sparse,
        },
    ] {
        let queries = generate_query_set(data.graph(), spec, 3, 21);
        for q in &queries {
            let cfg = GupConfig {
                limits: limits(),
                ..GupConfig::default()
            };
            let matcher =
                GupMatcher::<1>::with_prepared(q, &data, cfg).expect("generated queries are valid");
            let stats = matcher.run_with_sink(&mut CountOnly::new());
            // The query was extracted from the data graph, so at least one embedding
            // must exist (the extraction site itself) unless the search was cut short.
            assert!(
                stats.embeddings >= 1 || stats.terminated_early(),
                "query extracted from the data graph must match at least once"
            );
            ran += 1;
        }
    }
    assert!(
        ran >= 3,
        "expected to run at least a few generated queries, ran {ran}"
    );
}

#[test]
fn candidate_space_contains_every_embedding() {
    // Soundness of the filtering substrate: every brute-force embedding must be fully
    // contained in the candidate sets.
    let data = Dataset::Yeast.generate(0.05).graph;
    let queries = generate_query_set(
        &data,
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Sparse,
        },
        2,
        5,
    );
    let prepared = PreparedData::new(data);
    for q in &queries {
        let cs = CandidateSpace::build_prepared(q, &prepared, &FilterConfig::default());
        let found = gup::find_embeddings(q, prepared.graph()).unwrap();
        for emb in &found.embeddings {
            for (u, &v) in emb.iter().enumerate() {
                assert!(
                    cs.candidates(u).binary_search(&v).is_ok(),
                    "embedding assignment (u{u}, v{v}) missing from the candidate space"
                );
            }
        }
    }
}

#[test]
fn graphs_survive_text_roundtrip_and_still_match() {
    let (q, d) = gup_graph::fixtures::paper_example();
    let q2 = parse_graph(&graph_to_string(&q)).unwrap();
    let d2 = parse_graph(&graph_to_string(&d)).unwrap();
    assert_eq!(q, q2);
    assert_eq!(d, d2);
    let before = gup::count_embeddings(&q, &d).unwrap();
    let after = gup::count_embeddings(&q2, &d2).unwrap();
    assert_eq!(before, after);
}

#[test]
fn guard_statistics_reported_on_workload_queries() {
    let data = PreparedData::new(Dataset::Human.generate(0.02).graph);
    let queries = generate_query_set(
        data.graph(),
        QuerySetSpec {
            vertices: 8,
            class: QueryClass::Dense,
        },
        2,
        13,
    );
    for q in &queries {
        let cfg = GupConfig {
            limits: limits(),
            ..GupConfig::default()
        };
        let matcher = GupMatcher::<1>::with_prepared(q, &data, cfg).unwrap();
        let (stats, memory) = matcher.run_with_memory_report();
        assert!(stats.recursions > 0);
        assert!(memory.candidate_space_bytes > 0);
        assert!(memory.reservation_bytes > 0);
        // Guard share must be a sane percentage.
        let share = memory.guard_share_percent();
        assert!((0.0..=100.0).contains(&share));
    }
}

#[test]
fn dataset_catalog_supports_all_query_classes() {
    // Smoke-test the whole catalog at a tiny scale: each dataset must produce at least
    // one usable sparse 8-vertex query that GuP accepts.
    for dataset in Dataset::ALL {
        let data = dataset.generate(0.004).graph;
        let queries = generate_query_set(
            &data,
            QuerySetSpec {
                vertices: 8,
                class: QueryClass::Sparse,
            },
            1,
            3,
        );
        if let Some(q) = queries.first() {
            let cfg = GupConfig {
                limits: limits(),
                ..GupConfig::default()
            };
            assert!(
                GupMatcher::<1>::with_prepared(q, &PreparedData::new(data), cfg).is_ok(),
                "{}",
                dataset.name()
            );
        }
    }
}
