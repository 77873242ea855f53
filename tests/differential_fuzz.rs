//! Differential fuzzing against the brute-force oracle, through the sink layer.
//!
//! Seed-pinned Erdős–Rényi and power-law `(data, query)` pairs are run through every
//! engine with every built-in sink, and all observable outputs are cross-checked
//! against `brute_force`:
//!
//! * `CountOnly` count == `CollectAll` length == oracle count, per engine;
//! * `FirstK(k)` retains exactly `min(k, total)` embeddings for `k` below, at, and
//!   above the true count — and when it truncates, the search terminated early;
//! * `CallbackSink` sees exactly one report per embedding;
//! * every materialized embedding is a valid injective, label- and
//!   adjacency-preserving map, and the collected multiset has no duplicates;
//! * the parallel driver delivers the same count through a counting sink.
//!
//! All instances are deliberately small (the oracle is exponential), keeping the
//! whole suite well under the CI budget.

use gup::sink::{CallbackSink, CollectAll, CountOnly, FirstK, SinkControl};
use gup::{GupConfig, GupMatcher, SearchLimits};
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineKind, JoinBaseline};
use gup_graph::generate::{
    erdos_renyi_graph, power_law_graph, random_walk_query, ErdosRenyiConfig, PowerLawConfig,
};
use gup_graph::{Graph, VertexId};
use gup_order::OrderingStrategy;
use rand::rngs::SmallRng;
use rand::SeedableRng;

mod common;
use common::assert_valid_embedding;

/// The `k` values `FirstK` is probed with: below, at, and above the true count.
fn first_k_probes(total: u64) -> Vec<u64> {
    let mut ks = vec![0, 1, total / 2 + 1, total, total + 3];
    ks.sort_unstable();
    ks.dedup();
    ks
}

fn matcher(query: &Graph, data: &Graph) -> GupMatcher {
    let cfg = GupConfig {
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    GupMatcher::<1>::new(query, data, cfg).expect("valid query")
}

/// Drives one engine family's sink surface and cross-checks it against `expected`.
fn check_gup_sinks(name: &str, query: &Graph, data: &Graph, expected: u64) {
    let m = matcher(query, data);

    let mut count = CountOnly::new();
    m.run_with_sink(&mut count);
    assert_eq!(count.count(), expected, "{name}: GuP CountOnly");

    let mut all = CollectAll::new();
    let stats = m.run_with_sink(&mut all);
    assert_eq!(all.len() as u64, expected, "{name}: GuP CollectAll");
    assert_eq!(stats.embeddings, expected, "{name}: GuP stats drift");
    let mut sorted: Vec<Vec<VertexId>> = all.embeddings().to_vec();
    sorted.sort();
    let deduped = sorted.len();
    sorted.dedup();
    assert_eq!(sorted.len(), deduped, "{name}: GuP duplicate embeddings");
    assert_eq!(
        sorted,
        brute_force::enumerate(query, data),
        "{name}: GuP embedding set differs from the oracle"
    );
    for emb in all.embeddings() {
        assert_valid_embedding(name, query, data, emb);
    }

    for k in first_k_probes(expected) {
        let mut first = FirstK::new(k);
        let stats = m.run_with_sink(&mut first);
        let kept = first.embeddings().len() as u64;
        assert_eq!(kept, k.min(expected), "{name}: GuP FirstK({k})");
        assert_eq!(stats.embeddings, kept, "{name}: GuP FirstK({k}) stats");
        if k < expected {
            assert!(
                stats.terminated_early(),
                "{name}: GuP FirstK({k}) truncated without early termination"
            );
        }
        for emb in first.embeddings() {
            assert_valid_embedding(name, query, data, emb);
        }
    }

    let mut callbacks = 0u64;
    {
        let mut cb = CallbackSink::new(|_emb: &[VertexId]| {
            callbacks += 1;
            SinkControl::Continue
        });
        m.run_with_sink(&mut cb);
    }
    assert_eq!(callbacks, expected, "{name}: GuP CallbackSink");

    // The work-stealing driver through the same counting-sink front door.
    let mut parallel_count = CountOnly::new();
    m.run_parallel_with_sink(4, &mut parallel_count);
    assert_eq!(
        parallel_count.count(),
        expected,
        "{name}: GuP parallel CountOnly"
    );

    // A streaming sink that stops on its first report (`may_stop`, no capacity)
    // must see exactly one embedding through the parallel entry point too — the
    // stop is honored live, not after a full buffered enumeration.
    if expected > 0 {
        let mut reports = 0u64;
        {
            let mut stop_at_first = CallbackSink::new(|_emb: &[VertexId]| {
                reports += 1;
                SinkControl::Stop
            });
            let stats = m.run_parallel_with_sink(4, &mut stop_at_first);
            assert!(stats.stopped_by_sink, "{name}: live stop flag");
            assert_eq!(stats.embeddings, 1, "{name}: live stop count");
        }
        assert_eq!(
            reports, 1,
            "{name}: parallel CallbackSink stop was buffered"
        );
    }
}

fn check_baseline_sinks(name: &str, query: &Graph, data: &Graph, expected: u64) {
    for kind in BaselineKind::ALL {
        let engine = BacktrackingBaseline::<1>::new(query, data, kind).expect("valid query");

        let mut count = CountOnly::new();
        engine.run_with_sink(&mut count);
        assert_eq!(count.count(), expected, "{name}: {} CountOnly", kind.name());

        let mut all = CollectAll::new();
        engine.run_with_sink(&mut all);
        assert_eq!(
            all.len() as u64,
            expected,
            "{name}: {} CollectAll",
            kind.name()
        );
        let mut sorted: Vec<Vec<VertexId>> = all.into_embeddings();
        sorted.sort();
        assert_eq!(
            sorted,
            brute_force::enumerate(query, data),
            "{name}: {} embedding set differs from the oracle",
            kind.name()
        );

        for k in first_k_probes(expected) {
            let mut first = FirstK::new(k);
            let result = engine.run_with_sink(&mut first);
            assert_eq!(
                first.embeddings().len() as u64,
                k.min(expected),
                "{name}: {} FirstK({k})",
                kind.name()
            );
            if k < expected {
                assert!(
                    result.terminated_early(),
                    "{name}: {} FirstK({k}) truncated without early termination",
                    kind.name()
                );
            }
            for emb in first.embeddings() {
                assert_valid_embedding(name, query, data, emb);
            }
        }
    }

    let join = JoinBaseline::new(query, data, OrderingStrategy::GqlStyle).expect("valid query");
    let mut all = CollectAll::new();
    join.run_with_sink(&mut all);
    assert_eq!(all.len() as u64, expected, "{name}: join CollectAll");
    let mut sorted: Vec<Vec<VertexId>> = all.into_embeddings();
    sorted.sort();
    assert_eq!(
        sorted,
        brute_force::enumerate(query, data),
        "{name}: join embedding set differs from the oracle"
    );
    for k in first_k_probes(expected) {
        let mut first = FirstK::new(k);
        join.run_with_sink(&mut first);
        assert_eq!(
            first.embeddings().len() as u64,
            k.min(expected),
            "{name}: join FirstK({k})"
        );
    }
}

fn check_oracle_sinks(name: &str, query: &Graph, data: &Graph, expected: u64) {
    // The oracle itself honors the sink protocol (so FirstK is exact there too).
    let mut count = CountOnly::new();
    brute_force::enumerate_with_sink(query, data, &mut count);
    assert_eq!(count.count(), expected, "{name}: oracle CountOnly");
    for k in first_k_probes(expected) {
        let mut first = FirstK::new(k);
        brute_force::enumerate_with_sink(query, data, &mut first);
        assert_eq!(
            first.embeddings().len() as u64,
            k.min(expected),
            "{name}: oracle FirstK({k})"
        );
    }
}

fn check_instance(name: &str, query: &Graph, data: &Graph) -> u64 {
    let expected = brute_force::count(query, data);
    check_oracle_sinks(name, query, data, expected);
    check_gup_sinks(name, query, data, expected);
    check_baseline_sinks(name, query, data, expected);
    expected
}

#[test]
fn erdos_renyi_pairs_agree_through_every_sink() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF01);
    let mut tested = 0;
    let mut with_embeddings = 0;
    for seed in 0..24u64 {
        let data = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 14 + (seed % 5) as usize,
            edge_probability: 0.22 + 0.02 * (seed % 3) as f64,
            labels: 2 + (seed % 2) as usize,
            seed,
        });
        let size = 3 + (seed % 3) as usize;
        let Some(query) = random_walk_query(&data, size, &mut rng) else {
            continue;
        };
        let count = check_instance(&format!("er seed {seed}"), &query, &data);
        tested += 1;
        if count > 0 {
            with_embeddings += 1;
        }
    }
    assert!(tested >= 12, "only {tested} ER instances were generated");
    assert!(
        with_embeddings >= 6,
        "only {with_embeddings} ER instances had embeddings — the fuzz lost its teeth"
    );
}

#[test]
fn power_law_pairs_agree_through_every_sink() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF02);
    let mut tested = 0;
    for seed in [3u64, 9, 21] {
        let data = power_law_graph(&PowerLawConfig {
            vertices: 110 + 10 * (seed % 3) as usize,
            edges_per_vertex: 3,
            labels: 4,
            label_skew: 0.9,
            extra_edge_fraction: 0.08,
            seed,
        });
        for _ in 0..3 {
            let Some(query) = random_walk_query(&data, 4, &mut rng) else {
                continue;
            };
            check_instance(&format!("pl seed {seed}"), &query, &data);
            tested += 1;
        }
    }
    assert!(tested >= 6, "only {tested} power-law instances ran");
}

#[test]
fn single_vertex_queries_agree_across_engines() {
    // Degenerate arity regression: a 1-vertex query counts label occurrences. (The
    // join baseline used to report 0 here — every engine must agree now.)
    let data = erdos_renyi_graph(&ErdosRenyiConfig {
        vertices: 12,
        edge_probability: 0.3,
        labels: 3,
        seed: 77,
    });
    for label in 0..3u32 {
        let query = gup_graph::builder::graph_from_edges(&[label], &[]);
        let name = format!("single-vertex label {label}");
        check_instance(&name, &query, &data);
    }
}
