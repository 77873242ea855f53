//! Ablation benches: the criterion counterpart of Figures 8 and 9 — how the
//! reservation size limit and each guard family affect the search on a fixed query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PreparedData, PruningFeatures, SearchLimits};
use gup_graph::deadline::deadline_after;
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};
use std::time::Duration;

/// The configuration of one sample: its 2 s deadline starts when it is built, so
/// build it inside `b.iter`.
fn config_with(features: PruningFeatures, r: Option<usize>) -> GupConfig {
    GupConfig {
        features,
        reservation_size_limit: r,
        limits: SearchLimits {
            max_embeddings: Some(100_000),
            deadline: Some(deadline_after(Duration::from_secs(2))),
        },
        ..GupConfig::default()
    }
}

fn bench_feature_ablation(c: &mut Criterion) {
    let data = Dataset::Yeast.generate(0.15).graph;
    let spec = QuerySetSpec {
        vertices: 16,
        class: QueryClass::Dense,
    };
    let queries = generate_query_set(&data, spec, 1, 11);
    let Some(query) = queries.first() else { return };
    // Prepared outside the measured region, so no sample times a graph clone.
    let prepared = PreparedData::new(data);
    let mut group = c.benchmark_group("feature_ablation_16D");
    group.sample_size(15);
    for features in [
        PruningFeatures::NONE,
        PruningFeatures::RESERVATION_ONLY,
        PruningFeatures::RESERVATION_AND_NV,
        PruningFeatures::RESERVATION_NV_NE,
        PruningFeatures::ALL,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(features.label()),
            query,
            |b, q| {
                b.iter(|| {
                    GupMatcher::<1>::with_prepared(q, &prepared, config_with(features, Some(3)))
                        .unwrap()
                        .run_with_sink(&mut CountOnly::new())
                        .embeddings
                });
            },
        );
    }
    group.finish();
}

fn bench_reservation_size(c: &mut Criterion) {
    let data = Dataset::Yeast.generate(0.15).graph;
    let spec = QuerySetSpec {
        vertices: 16,
        class: QueryClass::Sparse,
    };
    let queries = generate_query_set(&data, spec, 1, 13);
    let Some(query) = queries.first() else { return };
    let prepared = PreparedData::new(data);
    let mut group = c.benchmark_group("reservation_size_16S");
    group.sample_size(15);
    for (label, r) in [
        ("r0", Some(0)),
        ("r1", Some(1)),
        ("r3", Some(3)),
        ("r7", Some(7)),
        ("rinf", None),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), query, |b, q| {
            b.iter(|| {
                let cfg = config_with(PruningFeatures::RESERVATION_ONLY, r);
                GupMatcher::<1>::with_prepared(q, &prepared, cfg)
                    .unwrap()
                    .run_with_sink(&mut CountOnly::new())
                    .embeddings
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_feature_ablation, bench_reservation_size);
criterion_main!(benches);
