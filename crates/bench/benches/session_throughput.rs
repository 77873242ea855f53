//! Query-set throughput of one shared `PreparedData` session on Yeast-analogue
//! query sets — the criterion-grade counterpart of the batch-mode numbers in
//! EXPERIMENTS.md ("Prepared-session reference numbers"). The signature index is
//! built once outside the measured region; each iteration (`prepared`) runs the
//! whole query set through `Session::run_batch`.
//!
//! Three instances: the plain Yeast analogue (71 labels — filtering is cheap), a
//! **hard-mode** variant with labels coarsened to 4
//! (`gup_workloads::coarsen_labels`, same trick as the Figure-10 experiment), where
//! candidate sets per label are large and the NLF pass dominates — the regime the
//! signature arena exists for — and one 128-vertex query on the two-word bitset
//! path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup::session::Session;
use gup::{GupConfig, SearchLimits};
use gup_graph::Graph;
use gup_workloads::{
    coarsen_labels, embed_in_host, generate_query_set, large_connected_query, Dataset,
    LargeQuerySpec, QueryClass, QuerySetSpec,
};
use std::time::Duration;

fn query_set_config(embedding_limit: u64) -> GupConfig {
    GupConfig {
        limits: SearchLimits {
            // Embedding caps alone bound the work: a batch time budget is ONE
            // deadline shared by the whole batch, so on a slow machine truncation
            // could masquerade as throughput.
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

    let session = Session::new(data.clone()).with_defaults(query_set_config(embedding_limit));
    group.bench_function(BenchmarkId::from_parameter("prepared"), |b| {
        b.iter(|| session.run_batch(queries).total_embeddings());
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
}

criterion_group!(benches, bench_session_throughput);
criterion_main!(benches);
