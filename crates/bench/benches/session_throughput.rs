//! Query-set throughput of one shared `PreparedData` session on Yeast-analogue
//! query sets — the criterion-grade counterpart of the batch-mode numbers in
//! EXPERIMENTS.md ("Prepared-session reference numbers"). The signature index is
//! built once outside the measured region; each iteration (`prepared`) runs the
//! whole query set as a loop of `Session::query` requests counted into one reused
//! `CountOnly` sink.
//!
//! Three instances: the plain Yeast analogue (71 labels — filtering is cheap), a
//! **hard-mode** variant with labels coarsened to 4
//! (`gup_workloads::coarsen_labels`, same trick as the Figure-10 experiment), where
//! candidate sets per label are large and the NLF pass dominates — the regime the
//! signature arena exists for — and one 128-vertex query on the two-word bitset
//! path.
//!
//! Plus the data-graph scaling probe (`scaling_10k`, `scaling_160k`): power-law
//! graphs with 4 edges per vertex and 200 uniform labels, each queried with 50
//! seed-pinned 8-vertex random-walk queries counted under limit 1000. The answers
//! stay tiny at both sizes, so the ratio of the two times is how much a query's
//! cost grows with |V_D| rather than with its candidate space.
//!
//! And `serve_shape_30k`, the shape of gupbench's serve-stream queries: its
//! 30k-vertex power-law graph (4 edges per vertex, 15 labels, the other
//! `PowerLawConfig` defaults, generator seed 2023) with 32 seed-pinned 8-vertex
//! random-walk queries counted under limit 1000. Each query's guarded candidate
//! space holds thousands of candidates, so this is the probe of what building,
//! searching and dropping a large GCS costs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup::session::Session;
use gup::sink::CountOnly;
use gup::{GupConfig, SearchLimits};
use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
use gup_graph::Graph;
use gup_workloads::{
    coarsen_labels, embed_in_host, generate_query_set, large_connected_query, Dataset,
    LargeQuerySpec, QueryClass, QuerySetSpec,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Duration;

fn query_set_config(embedding_limit: u64) -> GupConfig {
    GupConfig {
        limits: SearchLimits {
            // Embedding caps alone bound the work: with a time budget, a slow
            // machine's truncated queries could masquerade as throughput.
            max_embeddings: Some(embedding_limit),
            ..SearchLimits::UNLIMITED
        },
        ..GupConfig::default()
    }
}

fn bench_instance(
    c: &mut Criterion,
    group_name: &str,
    data: &Graph,
    queries: &[Graph],
    embedding_limit: u64,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));

    let session = Session::new(data.clone());
    let config = query_set_config(embedding_limit);
    let mut sink = CountOnly::new();
    group.bench_function(BenchmarkId::from_parameter("prepared"), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    let request = session.query(q).config(config.clone());
                    request.run_with_sink(&mut sink).map_or(0, |s| s.embeddings)
                })
                .sum::<u64>()
        });
    });

    group.finish();
}

fn bench_session_throughput(c: &mut Criterion) {
    let data = Dataset::Yeast.generate(0.15).graph;
    let spec = QuerySetSpec {
        vertices: 8,
        class: QueryClass::Sparse,
    };
    let queries = generate_query_set(&data, spec, 8, 11);
    assert!(
        !queries.is_empty(),
        "workload generator produced no queries"
    );
    bench_instance(c, "query_set_8S", &data, &queries, 100_000);

    // Hard mode: few labels → large per-label candidate sets → the NLF filter is
    // the hot path. A paper-style answer cap (the "first 1000 matches" serving
    // shape) keeps enumeration from swamping the per-query preparation the session
    // amortizes.
    let coarse_data = coarsen_labels(&data, 4);
    let coarse_queries: Vec<Graph> = queries.iter().map(|q| coarsen_labels(q, 4)).collect();
    bench_instance(
        c,
        "query_set_8S_coarse4",
        &coarse_data,
        &coarse_queries,
        1000,
    );

    // 128-vertex query: the two-word (Qv128) bitset path, a planted occurrence
    // in a decoy-padded host. One query is the whole "set" — what the session
    // amortizes here is the signature index over the host graph.
    let spec = LargeQuerySpec {
        vertices: 128,
        labels: 8,
        extra_edges: 48,
        seed: 2026,
    };
    let big_query = large_connected_query(&spec);
    let host = embed_in_host(&big_query, 4096, 2026);
    bench_instance(
        c,
        "query_128v",
        &host,
        std::slice::from_ref(&big_query),
        1000,
    );

    // Scaling probe: the same query shape over a 16x larger graph.
    for (group_name, vertices) in [("scaling_10k", 10_000), ("scaling_160k", 160_000)] {
        let data = power_law_graph(&PowerLawConfig {
            vertices,
            edges_per_vertex: 4,
            labels: 200,
            label_skew: 0.0,
            seed: 7,
            ..PowerLawConfig::default()
        });
        let mut rng = SmallRng::seed_from_u64(7);
        let queries: Vec<Graph> = (0..5000)
            .filter_map(|_| random_walk_query(&data, 8, &mut rng))
            .take(50)
            .collect();
        assert_eq!(queries.len(), 50, "the walk generator fell short");
        bench_instance(c, group_name, &data, &queries, 1000);
    }

    // Serve-stream shape: few labels, thousands of candidates per query.
    let data = power_law_graph(&PowerLawConfig {
        vertices: 30_000,
        edges_per_vertex: 4,
        labels: 15,
        seed: 2023,
        ..PowerLawConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(2023);
    let queries: Vec<Graph> = (0..5000)
        .filter_map(|_| random_walk_query(&data, 8, &mut rng))
        .take(32)
        .collect();
    assert_eq!(queries.len(), 32, "the walk generator fell short");
    bench_instance(c, "serve_shape_30k", &data, &queries, 1000);
}

criterion_group!(benches, bench_session_throughput);
criterion_main!(benches);
