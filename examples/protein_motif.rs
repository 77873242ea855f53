//! Protein-motif search on the Yeast analogue.
//!
//! ```text
//! cargo run --release --example protein_motif
//! ```
//!
//! The scenario the paper's introduction motivates: searching a protein-interaction
//! network for small structural motifs. We generate the Yeast analogue dataset, build
//! two motif queries — a labeled triangle ("complex core") and a 4-cycle with a chord
//! ("bridged complex") — and compare GuP against the DAF-style baseline on each.

use gup::{GupConfig, GupMatcher, SearchLimits};
use gup_baselines::{BacktrackingBaseline, BaselineKind};
use gup_graph::builder::graph_from_edges;
use gup_graph::deadline::deadline_after;
use gup_graph::{Graph, PreparedData};
use gup_workloads::Dataset;
use std::time::{Duration, Instant};

/// One engine's budget for one motif: 10^5 embeddings and 5 s, starting now.
fn limits() -> SearchLimits {
    SearchLimits {
        max_embeddings: Some(100_000),
        deadline: Some(deadline_after(Duration::from_secs(5))),
    }
}

fn most_common_labels(data: &Graph, k: usize) -> Vec<u32> {
    let mut freq: Vec<(usize, u32)> = (0..data.label_count() as u32)
        .map(|l| (data.label_frequency(l), l))
        .collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    freq.into_iter().take(k).map(|(_, l)| l).collect()
}

fn main() {
    let dataset = Dataset::Yeast.generate(0.25);
    let data = dataset.graph;
    println!(
        "Yeast analogue: {}",
        gup_graph::stats::GraphStats::compute(&data, false)
    );

    // Use the three most frequent labels so the motifs actually occur.
    let labels = most_common_labels(&data, 3);
    let (a, b, c) = (labels[0], labels[1], labels[2]);

    let motifs: Vec<(&str, Graph)> = vec![
        (
            "complex core (triangle)",
            graph_from_edges(&[a, b, c], &[(0, 1), (1, 2), (2, 0)]),
        ),
        (
            "bridged complex (4-cycle + chord)",
            graph_from_edges(&[a, b, a, c], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ),
        (
            "signalling path (5-path)",
            graph_from_edges(&[a, b, a, b, c], &[(0, 1), (1, 2), (2, 3), (3, 4)]),
        ),
    ];

    // Index the data graph once; every motif and engine below reuses it.
    let prepared = PreparedData::new(data);
    for (name, query) in &motifs {
        println!("\n=== motif: {name} ===");
        let cfg = GupConfig {
            limits: limits(),
            ..GupConfig::default()
        };
        let start = Instant::now();
        match GupMatcher::<1>::with_prepared(query, &prepared, cfg) {
            Ok(matcher) => {
                let result = matcher.run();
                println!(
                    "  GuP     : {:>8} embeddings, {:>9} recursions, {:>7} futile, {:?}",
                    result.embedding_count(),
                    result.stats.recursions,
                    result.stats.futile_recursions,
                    start.elapsed()
                );
            }
            Err(e) => println!("  GuP     : query rejected ({e})"),
        }
        let start = Instant::now();
        match BacktrackingBaseline::<1>::with_prepared(
            query,
            &prepared,
            BaselineKind::DafFailingSet,
            limits(),
        ) {
            Ok(matcher) => {
                let r = matcher.run();
                println!(
                    "  DAF-FS  : {:>8} embeddings, {:>9} recursions, {:>7} futile, {:?}",
                    r.embeddings,
                    r.recursions,
                    r.futile_recursions,
                    start.elapsed()
                );
            }
            Err(e) => println!("  DAF-FS  : query rejected ({e})"),
        }
    }
}
