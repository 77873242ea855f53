//! End-to-end comparison bench: GuP versus the baseline families on fixed queries from
//! the Yeast analogue. This is the criterion-grade counterpart of the wall-clock
//! comparison in Figures 4–6 of the paper (run `experiments -- all` for the full
//! query-set sweeps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup::sink::{CollectAll, CountOnly};
use gup::{GupConfig, GupMatcher, PreparedData, SearchLimits};
use gup_baselines::{BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::deadline::deadline_after;
use gup_order::OrderingStrategy;
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};
use std::time::Duration;

/// The budget of one sample: its 2 s deadline starts when it is built, so build it
/// inside `b.iter`.
fn limits() -> SearchLimits {
    SearchLimits {
        max_embeddings: Some(100_000),
        deadline: Some(deadline_after(Duration::from_secs(2))),
    }
}

fn gup_config() -> GupConfig {
    GupConfig {
        limits: limits(),
        ..GupConfig::default()
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let data = Dataset::Yeast.generate(0.15).graph;
    let spec = QuerySetSpec {
        vertices: 16,
        class: QueryClass::Sparse,
    };
    let queries = generate_query_set(&data, spec, 2, 7);
    // Prepared once, outside every measured region: each sample times the
    // per-query construction and search, never a graph clone.
    let prepared = PreparedData::new(data);
    let mut group = c.benchmark_group("end_to_end_16S");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(4));
    for (qi, query) in queries.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("GuP", qi), query, |b, q| {
            b.iter(|| {
                GupMatcher::<1>::with_prepared(q, &prepared, gup_config())
                    .unwrap()
                    .run()
                    .embedding_count()
            });
        });
        // The same search through the two extreme sinks: counting (no embedding is
        // ever materialized) versus collecting everything — the gap is the price of
        // materialization that `--count-only` avoids.
        group.bench_with_input(BenchmarkId::new("GuP-count-sink", qi), query, |b, q| {
            b.iter(|| {
                let mut sink = CountOnly::new();
                GupMatcher::<1>::with_prepared(q, &prepared, gup_config())
                    .unwrap()
                    .run_with_sink(&mut sink);
                sink.count()
            });
        });
        group.bench_with_input(BenchmarkId::new("GuP-collect-sink", qi), query, |b, q| {
            b.iter(|| {
                let mut sink = CollectAll::new();
                GupMatcher::<1>::with_prepared(q, &prepared, gup_config())
                    .unwrap()
                    .run_with_sink(&mut sink);
                sink.len()
            });
        });
        for kind in [BaselineKind::DafFailingSet, BaselineKind::GqlStyle] {
            group.bench_with_input(BenchmarkId::new(kind.name(), qi), query, |b, q| {
                b.iter(|| {
                    BacktrackingBaseline::<1>::with_prepared(q, &prepared, kind, limits())
                        .unwrap()
                        .run()
                        .embeddings
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("RM-join", qi), query, |b, q| {
            b.iter(|| {
                JoinBaseline::with_prepared(q, &prepared, OrderingStrategy::GqlStyle, limits())
                    .unwrap()
                    .run()
                    .embeddings
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
