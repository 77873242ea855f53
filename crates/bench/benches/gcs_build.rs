//! Criterion micro-benchmarks for the pre-search phases: candidate-space construction
//! and guarded-candidate-space (GCS) construction including reservation-guard
//! generation. These are the per-query fixed costs that §4.2.2 of the paper points to
//! when explaining why GuP only breaks even on small queries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup::{Gcs, GupConfig, PreparedData};
use gup_candidate::{CandidateSpace, FilterConfig};
use gup_workloads::{generate_query_set, Dataset, QueryClass, QuerySetSpec};

fn bench_construction(c: &mut Criterion) {
    // Prepared once, outside the measured region: the benches time the per-query
    // construction only.
    let prepared = PreparedData::new(Dataset::Yeast.generate(0.15).graph);
    let mut group = c.benchmark_group("construction");
    group.sample_size(20);
    for &size in &[8usize, 16, 24] {
        let spec = QuerySetSpec {
            vertices: size,
            class: QueryClass::Sparse,
        };
        let queries = generate_query_set(prepared.graph(), spec, 3, 42);
        let Some(query) = queries.first() else {
            continue;
        };
        group.bench_with_input(
            BenchmarkId::new("candidate_space", format!("{}S", size)),
            query,
            |b, q| {
                b.iter(|| CandidateSpace::build_prepared(q, &prepared, &FilterConfig::default()));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("gcs_with_reservations", format!("{}S", size)),
            query,
            |b, q| {
                b.iter(|| Gcs::<1>::build_prepared(q, &prepared, &GupConfig::default()).unwrap());
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
