//! Mini workload sweep: the paper's query-set methodology end to end.
//!
//! ```text
//! cargo run --release --example workload_sweep
//! ```
//!
//! Generates a scaled-down Yeast analogue, draws the paper's eight query sets
//! (8S … 32D) from it by random walks, runs GuP on each set, and prints per-set
//! aggregates (average time, recursions, guard prune rate) — a small-scale preview of
//! what `cargo run -p gup-bench --bin experiments -- all` produces.

use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PreparedData, SearchLimits};
use gup_graph::deadline::deadline_after;
use gup_workloads::{generate_query_set, Dataset, QuerySetSpec};
use std::time::{Duration, Instant};

fn main() {
    let data = Dataset::Yeast.generate(0.2).graph;
    println!(
        "Yeast analogue: {}",
        gup_graph::stats::GraphStats::compute(&data, false)
    );
    // Index the data graph once; every query of every set reuses it.
    let prepared = PreparedData::new(data);
    println!(
        "\n{:<6} {:>8} {:>12} {:>14} {:>12} {:>12}",
        "set", "queries", "avg ms", "recursions", "futile", "pruned %"
    );

    for spec in QuerySetSpec::PAPER_SETS {
        let queries = generate_query_set(prepared.graph(), spec, 10, 1);
        if queries.is_empty() {
            println!("{:<6} {:>8}", spec.name(), "n/a");
            continue;
        }
        let mut total_time = Duration::ZERO;
        let mut recursions = 0u64;
        let mut futile = 0u64;
        let mut seen = 0u64;
        let mut pruned = 0u64;
        for q in &queries {
            let start = Instant::now();
            // Each query gets its own budget: 10^5 embeddings and 2 s from now.
            let cfg = GupConfig {
                limits: SearchLimits {
                    max_embeddings: Some(100_000),
                    deadline: Some(deadline_after(Duration::from_secs(2))),
                },
                ..GupConfig::default()
            };
            if let Ok(matcher) = GupMatcher::<1>::with_prepared(q, &prepared, cfg) {
                // Only aggregates are reported, so stream through a counting sink —
                // the cheapest output mode.
                let stats = matcher.run_with_sink(&mut CountOnly::new());
                recursions += stats.recursions;
                futile += stats.futile_recursions;
                seen += stats.local_candidates_seen;
                pruned += stats.pruned_by_reservation + stats.pruned_by_nogood_vertex;
            }
            total_time += start.elapsed();
        }
        println!(
            "{:<6} {:>8} {:>12.2} {:>14} {:>12} {:>11.1}%",
            spec.name(),
            queries.len(),
            total_time.as_secs_f64() * 1000.0 / queries.len() as f64,
            recursions,
            futile,
            if seen > 0 {
                100.0 * pruned as f64 / seen as f64
            } else {
                0.0
            }
        );
    }
}
