//! Incremental index maintenance versus full re-preparation — the A/B behind
//! the dynamic-graph subsystem's existence. For a delta batch against a
//! power-law graph, `incremental` runs [`PreparedData::apply`] (block-copy each
//! run of untouched vertices' CSR and signature slices, reuse or extend the
//! label index, recompute only touched and new vertices) while `rebuild`
//! re-runs [`PreparedData::new`] on the already-materialized mutated graph
//! (its CSR clone is a memcpy; the measured cost is the NLF signature arena and
//! the counting pass that builds the label inverted index with its masks). Apply costs about one copy of the index plus
//! the touched neighborhoods; rebuild re-derives the whole index.
//!
//! Two graphs: `dynamic_apply` (20k vertices, 8 skewed labels, batch sizes 1,
//! 16 and 128) and `dynamic_apply_320k` (320k vertices, 200 uniform labels,
//! batch size 16 — the scale of gupbench's `point-large`, where the copy of
//! the index is most of an apply). Numbers are recorded in EXPERIMENTS.md
//! ("Incremental apply vs full re-prepare").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gup_graph::delta::GraphDelta;
use gup_graph::generate::{power_law_graph, PowerLawConfig};
use gup_graph::{Graph, PreparedData};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Draws a batch of `n` deltas that is valid against `g` as a whole: edge
/// inserts and deletes tracked through an overlay so in-batch draws never
/// clash, plus the occasional fresh vertex.
fn make_batch(g: &Graph, n: usize, seed: u64) -> Vec<GraphDelta> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present: HashSet<(u32, u32)> = g.edges().collect();
    let mut removable: Vec<(u32, u32)> = g.edges().collect();
    let mut vertex_count = g.vertex_count() as u32;
    let mut batch = Vec::with_capacity(n);
    while batch.len() < n {
        match rng.gen_range(0..10u32) {
            0 => {
                batch.push(GraphDelta::AddVertex {
                    label: rng.gen_range(0..4),
                });
                vertex_count += 1;
            }
            1..=6 => {
                for _ in 0..64 {
                    let a = rng.gen_range(0..vertex_count);
                    let b = rng.gen_range(0..vertex_count);
                    let key = (a.min(b), a.max(b));
                    if a != b && !present.contains(&key) {
                        present.insert(key);
                        batch.push(GraphDelta::AddEdge { a, b });
                        break;
                    }
                }
            }
            _ => {
                if removable.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..removable.len());
                let (a, b) = removable.swap_remove(i);
                present.remove(&(a, b));
                batch.push(GraphDelta::RemoveEdge { a, b });
            }
        }
    }
    batch
}

/// One group: `incremental` and `rebuild` arms per batch size over one graph.
/// The rebuild arm runs `rebuild_samples` iterations (a full prepare of the
/// 320k graph takes about 0.1 s).
fn bench_apply_on(
    c: &mut Criterion,
    group_name: &str,
    graph: &PowerLawConfig,
    batch_sizes: &[usize],
    rebuild_samples: usize,
) {
    let base = PreparedData::new(power_law_graph(graph));
    let mut group = c.benchmark_group(group_name);
    group.measurement_time(Duration::from_secs(5));

    for &batch_size in batch_sizes {
        let batch = make_batch(base.graph(), batch_size, 0xD0D0 + batch_size as u64);
        let mutated = base
            .apply(&batch)
            .expect("generated batch is valid")
            .graph()
            .clone();
        group.sample_size(20);
        group.bench_with_input(
            BenchmarkId::new("incremental", batch_size),
            &batch,
            |b, batch| {
                b.iter(|| base.apply(batch).expect("generated batch is valid"));
            },
        );
        group.sample_size(rebuild_samples);
        group.bench_with_input(
            BenchmarkId::new("rebuild", batch_size),
            &mutated,
            |b, mutated| {
                b.iter(|| PreparedData::new(mutated.clone()));
            },
        );
    }
    group.finish();
}

fn bench_dynamic_apply(c: &mut Criterion) {
    let graph = PowerLawConfig {
        vertices: 20_000,
        edges_per_vertex: 4,
        labels: 8,
        label_skew: 0.3,
        extra_edge_fraction: 0.05,
        seed: 7,
    };
    bench_apply_on(c, "dynamic_apply", &graph, &[1, 16, 128], 20);
}

fn bench_dynamic_apply_320k(c: &mut Criterion) {
    let graph = PowerLawConfig {
        vertices: 320_000,
        edges_per_vertex: 4,
        labels: 200,
        label_skew: 0.0,
        extra_edge_fraction: 0.05,
        seed: 7,
    };
    bench_apply_on(c, "dynamic_apply_320k", &graph, &[16], 10);
}

criterion_group!(benches, bench_dynamic_apply, bench_dynamic_apply_320k);
criterion_main!(benches);
