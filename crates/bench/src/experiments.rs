//! One function per table / figure of the paper's evaluation.
//!
//! Every function returns a plain-text report (ready to paste into EXPERIMENTS.md) and
//! most also return TSV-ish rows through the report itself. The headline comparison
//! (Table 2, Figures 4, 5, 6) shares one sweep over datasets × query sets × methods so
//! that `experiments -- all` does not repeat the expensive part.
//!
//! Scaling note: the datasets are synthetic analogues scaled down by `SuiteConfig`, so
//! the *absolute* numbers differ from the paper; the comparisons (which method finishes
//! more sets, who needs fewer recursions, how much each guard contributes) are the
//! reproduction target. Thresholds are scaled accordingly (e.g. "≥ 1 s / ≥ 1 min /
//! ≥ 1 h" becomes "≥ slow / ≥ very-slow / timeout" from the configuration).

use crate::harness::{run_query_set, Method, SetSummary, SuiteConfig};
use gup::sink::CountOnly;
use gup::{GupConfig, GupMatcher, PruningFeatures, SearchEngine, SearchLimits, SearchTask};
use gup_graph::deadline::deadline_after;
use gup_workloads::{Dataset, QuerySetSpec};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Results of the shared headline sweep: one [`SetSummary`] per
/// (dataset, query set, method).
pub struct HeadlineResults {
    /// The configuration the sweep ran under.
    pub config: SuiteConfig,
    /// `(dataset, query-set name, method, summary)` rows.
    pub rows: Vec<(Dataset, String, Method, SetSummary)>,
}

/// Runs the headline sweep shared by Table 2 and Figures 4–6.
pub fn collect_headline(config: &SuiteConfig) -> HeadlineResults {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        // One prepared-data session per dataset, shared by every query set × method.
        let session = config.session(dataset);
        for spec in QuerySetSpec::PAPER_SETS {
            let queries = config.query_set(session.data(), spec);
            if queries.is_empty() {
                continue;
            }
            for method in Method::HEADLINE {
                let summary = run_query_set(method, &queries, &session, config);
                rows.push((dataset, spec.name(), method, summary));
            }
        }
    }
    HeadlineResults {
        config: *config,
        rows,
    }
}

/// **Table 2** — query sets finished (non-DNF) per method.
pub fn table2(results: &HeadlineResults) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Table 2: finished (non-DNF) query sets per method =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:<10} {:>10} {:>8}",
        "method", "dataset", "set", "finished"
    )
    .unwrap();
    let mut counts: Vec<(Method, usize)> = Method::HEADLINE.iter().map(|&m| (m, 0)).collect();
    for (dataset, set, method, summary) in &results.rows {
        let finished = !summary.dnf;
        if finished {
            if let Some(entry) = counts.iter_mut().find(|(m, _)| m == method) {
                entry.1 += 1;
            }
        }
        writeln!(
            out,
            "{:<8} {:<10} {:>10} {:>8}",
            method.name(),
            dataset.name(),
            set,
            if finished { "yes" } else { "DNF" }
        )
        .unwrap();
    }
    writeln!(out, "\nFinished-set count per method:").unwrap();
    for (m, c) in counts {
        writeln!(out, "  {:<8} {}", m.name(), c).unwrap();
    }
    out
}

/// **Figure 4** — number of queries above the slow / very-slow / timeout thresholds,
/// aggregated over every query set the sweep executed.
pub fn fig4(results: &HeadlineResults) -> String {
    let cfg = &results.config;
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 4: processing-time distribution (all query sets) =="
    )
    .unwrap();
    writeln!(
        out,
        "thresholds: slow >= {:?}, very slow >= {:?}, timeout = {:?} (paper: 1 s / 1 min / 1 h)",
        cfg.slow_threshold, cfg.very_slow_threshold, cfg.per_query_timeout
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>8} {:>8} {:>10} {:>9}",
        "method", "queries", ">=slow", ">=veryslow", "timeout"
    )
    .unwrap();
    for &method in &Method::HEADLINE {
        let (mut all, mut slow, mut very, mut to) = (0usize, 0usize, 0usize, 0usize);
        for (_, _, m, s) in &results.rows {
            if *m == method {
                all += s.queries;
                slow += s.over_slow;
                very += s.over_very_slow;
                to += s.timed_out;
            }
        }
        writeln!(
            out,
            "{:<8} {:>8} {:>8} {:>10} {:>9}",
            method.name(),
            all,
            slow,
            very,
            to
        )
        .unwrap();
    }
    out
}

/// **Figure 5** — per-dataset breakdown of the slow-query counts for the sets the
/// paper highlights (16S, 32S, 16D, 24D).
pub fn fig5(results: &HeadlineResults) -> String {
    let highlighted = ["16S", "32S", "16D", "24D"];
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 5: breakdown per dataset (sets 16S, 32S, 16D, 24D) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>5} {:<8} {:>8} {:>8} {:>10} {:>8} {:>6}",
        "dataset", "set", "method", "queries", ">=slow", ">=veryslow", "timeout", "DNF"
    )
    .unwrap();
    for (dataset, set, method, s) in &results.rows {
        if !highlighted.contains(&set.as_str()) {
            continue;
        }
        writeln!(
            out,
            "{:<10} {:>5} {:<8} {:>8} {:>8} {:>10} {:>8} {:>6}",
            dataset.name(),
            set,
            method.name(),
            s.queries,
            s.over_slow,
            s.over_very_slow,
            s.timed_out,
            if s.dnf { "yes" } else { "no" }
        )
        .unwrap();
    }
    out
}

/// **Figure 6** — average processing time per query set on the Yeast analogue.
pub fn fig6(results: &HeadlineResults) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 6: average processing time per query set (Yeast analogue) =="
    )
    .unwrap();
    writeln!(out, "{:<6} {:<8} {:>14}", "set", "method", "avg time [ms]").unwrap();
    for (dataset, set, method, s) in &results.rows {
        if *dataset != Dataset::Yeast {
            continue;
        }
        writeln!(
            out,
            "{:<6} {:<8} {:>14.3}",
            set,
            method.name(),
            s.average_ms()
        )
        .unwrap();
    }
    out
}

/// **Figure 7** — number of recursions per query set (Yeast analogue), GuP versus the
/// GQL-style baselines (the paper omits DAF and RM because they do not count
/// recursions).
pub fn fig7(config: &SuiteConfig) -> String {
    let session = config.session(Dataset::Yeast);
    let methods = [Method::Gup, Method::GqlG, Method::GqlR];
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 7: total recursions per query set (Yeast analogue) =="
    )
    .unwrap();
    writeln!(out, "{:<6} {:<8} {:>14}", "set", "method", "recursions").unwrap();
    for spec in QuerySetSpec::PAPER_SETS {
        let queries = config.query_set(session.data(), spec);
        if queries.is_empty() {
            continue;
        }
        for method in methods {
            let summary = run_query_set(method, &queries, &session, config);
            writeln!(
                out,
                "{:<6} {:<8} {:>14}",
                spec.name(),
                method.name(),
                summary.total_recursions
            )
            .unwrap();
        }
    }
    out
}

/// **Figure 8** — effect of the reservation size limit `r` on the number of
/// recursions (reservation guards only, Yeast analogue).
pub fn fig8(config: &SuiteConfig) -> String {
    let session = config.session(Dataset::Yeast);
    let limits: [(&str, Option<usize>); 6] = [
        ("r=0", Some(0)),
        ("r=1", Some(1)),
        ("r=3", Some(3)),
        ("r=5", Some(5)),
        ("r=7", Some(7)),
        ("r=inf", None),
    ];
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 8: reservation size limit r vs total recursions (Yeast analogue) =="
    )
    .unwrap();
    writeln!(out, "{:<7} {:>14}", "r", "recursions").unwrap();
    for (label, r) in limits {
        let mut total = 0u64;
        for spec in QuerySetSpec::PAPER_SETS {
            let queries = config.query_set(session.data(), spec);
            if queries.is_empty() {
                continue;
            }
            let summary = run_query_set(Method::GupReservationOnly(r), &queries, &session, config);
            total += summary.total_recursions;
        }
        writeln!(out, "{:<7} {:>14}", label, total).unwrap();
    }
    out
}

/// **Figure 9** — contribution of each pruning technique: futile recursions for
/// Baseline / R / R+NV / R+NV+NE / All (Yeast analogue).
pub fn fig9(config: &SuiteConfig) -> String {
    let session = config.session(Dataset::Yeast);
    let variants = [
        PruningFeatures::NONE,
        PruningFeatures::RESERVATION_ONLY,
        PruningFeatures::RESERVATION_AND_NV,
        PruningFeatures::RESERVATION_NV_NE,
        PruningFeatures::ALL,
    ];
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 9: futile recursions per technique combination (Yeast analogue) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<6} {:<10} {:>14} {:>14}",
        "set", "variant", "futile", "recursions"
    )
    .unwrap();
    for spec in QuerySetSpec::PAPER_SETS {
        let queries = config.query_set(session.data(), spec);
        if queries.is_empty() {
            continue;
        }
        for features in variants {
            let summary = run_query_set(Method::GupWith(features), &queries, &session, config);
            writeln!(
                out,
                "{:<6} {:<10} {:>14} {:>14}",
                spec.name(),
                features.label(),
                summary.total_futile,
                summary.total_recursions
            )
            .unwrap();
        }
    }
    out
}

/// **Table 3** — memory consumption: whole structure versus each guard family, on the
/// Yeast and Patents analogues for the 8S / 32S / 8D / 32D query sets.
pub fn table3(config: &SuiteConfig) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "== Table 3: peak memory consumption (guards vs whole) =="
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "dataset", "set", "whole[KB]", "prep[KB]", "resv[KB]", "NV[KB]", "NE[KB]", "guard/whole"
    )
    .unwrap();
    let sets = [
        QuerySetSpec::PAPER_SETS[0], // 8S
        QuerySetSpec::PAPER_SETS[3], // 32S
        QuerySetSpec::PAPER_SETS[4], // 8D
        QuerySetSpec::PAPER_SETS[7], // 32D
    ];
    for dataset in [Dataset::Yeast, Dataset::Patents] {
        let session = config.session(dataset);
        let data_bytes = session.data().heap_bytes();
        for spec in sets {
            let queries = config.query_set(session.data(), spec);
            let Some(query) = queries.first() else {
                continue;
            };
            let gup_config = GupConfig {
                limits: SearchLimits {
                    max_embeddings: Some(config.embedding_limit),
                    deadline: Some(deadline_after(config.per_query_timeout)),
                },
                ..GupConfig::default()
            };
            let Ok(matcher) = GupMatcher::<1>::with_prepared(query, session.prepared(), gup_config)
            else {
                continue;
            };
            let (_result, report) = matcher.run_with_memory_report();
            // "Whole" = data graph + the session's shared prepared index (paid once)
            // + this query's GCS and guard stores.
            let whole = data_bytes + report.prepared_index_bytes + report.total_bytes();
            let share = 100.0 * report.guard_bytes() as f64 / whole.max(1) as f64;
            writeln!(
                out,
                "{:<10} {:>5} {:>12.1} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>11.2}%",
                dataset.name(),
                spec.name(),
                whole as f64 / 1024.0,
                report.prepared_index_bytes as f64 / 1024.0,
                report.reservation_bytes as f64 / 1024.0,
                report.nogood_vertex_bytes as f64 / 1024.0,
                report.nogood_edge_bytes as f64 / 1024.0,
                share
            )
            .unwrap();
        }
    }
    out
}

/// **Figure 10** — parallel scalability of two schedulers:
///
/// * **work-stealing** — the current driver (`gup::parallel`): recursive frame
///   splitting, one persistent engine (and guard store) per worker;
/// * **DAF-style static** — one contiguous root chunk per thread, no re-balancing
///   (the scheduling the paper attributes to DAF, §4.3.4).
///
/// Runs on the hard-mode Yeast analogue (labels coarsened to 5 — the analogue's 71
/// labels make every query microsecond-trivial at laptop scale, see
/// `gup_workloads::coarsen_labels`) with seed-pinned 10-vertex sparse queries and a
/// paper-style per-query time limit. Reports, per thread count: average wall-clock
/// per query for each scheduler and the steal/split counters of the work-stealing
/// runs.
pub fn fig10(config: &SuiteConfig, max_threads: usize) -> String {
    let data = gup_workloads::coarsen_labels(&config.data_graph(Dataset::Yeast), 5);
    let spec = QuerySetSpec {
        vertices: 10,
        class: gup_workloads::QueryClass::Sparse,
    };
    let queries: Vec<gup_graph::Graph> = gup_workloads::generate_query_set(
        &data,
        spec,
        config.queries_per_set.clamp(4, 16),
        config.seed,
    )
    .iter()
    .map(|q| gup_workloads::coarsen_labels(q, 5))
    .collect();
    let mut out = String::new();
    writeln!(
        out,
        "== Figure 10: parallel schedulers (hard-mode Yeast analogue, 10-vertex sparse) =="
    )
    .unwrap();
    if queries.is_empty() {
        writeln!(out, "no queries could be generated at this scale").unwrap();
        return out;
    }
    let limit = (config.per_query_timeout * 2).max(Duration::from_secs(1));
    writeln!(
        out,
        "queries={} per-query time limit={:?} (queries the sequential run times out on are dropped)",
        queries.len(),
        limit
    )
    .unwrap();
    // One shared prepared index for every (query, scheduler, thread count) run.
    let prepared = gup_graph::PreparedData::new(data);
    // Every run gets its own time budget: a matcher built with a deadline that
    // starts right before the run (the GCS build stays outside the timed window).
    let matcher = |query: &gup_graph::Graph| {
        let gup_config = GupConfig {
            limits: SearchLimits {
                max_embeddings: None,
                deadline: Some(deadline_after(limit)),
            },
            ..GupConfig::default()
        };
        GupMatcher::<1>::with_prepared(query, &prepared, gup_config)
    };
    // Keep only queries where parallel scheduling is non-trivial: the sequential
    // engine needs at least 1 ms (below that, thread startup noise swamps every
    // scheduler) and finishes within the limit (so the averages compare completed
    // runs). The filter is scheduler-neutral — it only looks at the sequential run.
    let kept: Vec<&gup_graph::Graph> = queries
        .iter()
        .filter(|query| {
            let Ok(matcher) = matcher(query) else {
                return false;
            };
            let start = Instant::now();
            let stats = matcher.run_with_sink(&mut CountOnly::new());
            !stats.hit_time_limit && start.elapsed() >= Duration::from_millis(1)
        })
        .collect();
    writeln!(
        out,
        "kept {} / {} queries (sequential time in [1 ms, limit))",
        kept.len(),
        queries.len()
    )
    .unwrap();
    if kept.is_empty() {
        return out;
    }

    let mut thread_counts = vec![1usize, 2, 4, 8];
    thread_counts.retain(|&t| t <= max_threads.max(1));
    writeln!(
        out,
        "{:<18} {:>8} {:>14} {:>8} {:>8}",
        "scheduler", "threads", "avg time [ms]", "splits", "steals"
    )
    .unwrap();
    for &threads in &thread_counts {
        let mut stealing_ms = Vec::new();
        let mut static_ms = Vec::new();
        let (mut splits, mut steals) = (0u64, 0u64);
        for query in &kept {
            // Best of two runs per scheduler, to damp scheduling noise evenly.
            let mut best = [f64::INFINITY; 2];
            for rep in 0..2 {
                let stealing = matcher(query).expect("a kept query builds");
                let start = Instant::now();
                let stats = stealing.run_parallel_with_sink(threads, &mut CountOnly::new());
                best[0] = best[0].min(start.elapsed().as_secs_f64() * 1000.0);
                // A truncated run must not be averaged in with completed ones.
                assert!(
                    !stats.hit_time_limit,
                    "fig10: a work-stealing run on {threads} threads hit the {limit:?} limit"
                );
                // Count steal/split activity from one run only, so the columns
                // describe a single measured pass, not the sum of both reps.
                if rep == 0 {
                    splits += stats.frames_split;
                    steals += stats.tasks_stolen;
                }

                let partitioned = matcher(query).expect("a kept query builds");
                let start = Instant::now();
                let timed_out = run_static_partition(&partitioned, threads);
                best[1] = best[1].min(start.elapsed().as_secs_f64() * 1000.0);
                assert!(
                    !timed_out,
                    "fig10: a static run on {threads} threads hit the {limit:?} limit"
                );
            }
            stealing_ms.push(best[0]);
            static_ms.push(best[1]);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        writeln!(
            out,
            "{:<18} {:>8} {:>14.2} {:>8} {:>8}",
            "work-stealing",
            threads,
            avg(&stealing_ms),
            splits,
            steals
        )
        .unwrap();
        writeln!(
            out,
            "{:<18} {:>8} {:>14.2}",
            "DAF-style static",
            threads,
            avg(&static_ms)
        )
        .unwrap();
    }
    out
}

/// Static root partition: split `C(u_0)` into `threads` contiguous chunks and give one
/// chunk to each worker as one task (no dynamic re-balancing) — the scheduling
/// strategy the paper attributes to DAF (§4.3.4). Returns whether any worker hit the
/// time limit.
fn run_static_partition(matcher: &GupMatcher, threads: usize) -> bool {
    let gcs = matcher.gcs();
    let config = matcher.config();
    let roots = gcs.space().candidates(0).len();
    if roots == 0 {
        return false;
    }
    let threads = threads.min(roots).max(1);
    let chunk = roots.div_ceil(threads);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|t| {
                let lo = t * chunk;
                let hi = ((t + 1) * chunk).min(roots);
                scope.spawn(move || {
                    // At the root, candidate positions are candidate indices.
                    let task = SearchTask {
                        prefix: vec![],
                        candidates: (lo as u32..hi as u32).collect(),
                    };
                    let mut engine = SearchEngine::new(gcs, config);
                    engine.run_task_with_sink(task, &mut CountOnly::new());
                    engine.stats().hit_time_limit
                })
            })
            .collect();
        // The scope joins any worker `any` leaves unjoined.
        workers
            .into_iter()
            .any(|worker| worker.join().expect("static-partition worker panicked"))
    })
}

/// Runs every experiment and concatenates the reports. `max_threads` bounds the
/// Figure-10 sweep.
pub fn run_all(config: &SuiteConfig, max_threads: usize) -> String {
    let start = Instant::now();
    let headline = collect_headline(config);
    let mut out = String::new();
    out.push_str(&table2(&headline));
    out.push('\n');
    out.push_str(&fig4(&headline));
    out.push('\n');
    out.push_str(&fig5(&headline));
    out.push('\n');
    out.push_str(&fig6(&headline));
    out.push('\n');
    out.push_str(&fig7(config));
    out.push('\n');
    out.push_str(&fig8(config));
    out.push('\n');
    out.push_str(&fig9(config));
    out.push('\n');
    out.push_str(&table3(config));
    out.push('\n');
    out.push_str(&fig10(config, max_threads));
    out.push('\n');
    let _ = writeln!(out, "total experiment time: {:?}", start.elapsed());
    out
}

/// Measures the persistent-index path (ROADMAP item 5): cold preparation versus
/// `index_io` save/load on the EXPERIMENTS.md reference instance (30 000
/// vertices / ~120 000 edges / 15 labels), plus the session result-cache hit
/// latency against a cold run of the same queries. Not part of the paper's
/// evaluation; this quantifies the warm-start machinery around it.
pub fn persist(config: &SuiteConfig) -> String {
    use gup::session::Session;
    use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
    use gup_graph::index_io::{load_index_bytes, write_index_bytes};
    use gup_graph::PreparedData;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    const REPS: usize = 5;
    let graph = power_law_graph(&PowerLawConfig {
        vertices: 30_000,
        edges_per_vertex: 4,
        labels: 15,
        seed: config.seed,
        ..PowerLawConfig::default()
    });

    // Cold: build the index from the in-memory graph, REPS times, keep the best
    // (the number EXPERIMENTS.md quotes as the per-process preparation cost).
    let mut cold_best = Duration::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        let p = PreparedData::new(graph.clone());
        cold_best = cold_best.min(t.elapsed());
        std::hint::black_box(&p);
    }
    let prepared = PreparedData::new(graph.clone());

    // Warm: serialize once, then time deserialization + validation.
    let t = Instant::now();
    let bytes = write_index_bytes(&prepared);
    let encode = t.elapsed();
    let mut warm_best = Duration::MAX;
    for _ in 0..REPS {
        let t = Instant::now();
        let p = load_index_bytes(&bytes).expect("own bytes must load");
        warm_best = warm_best.min(t.elapsed());
        std::hint::black_box(&p);
    }

    // Result cache: cold run vs. memo hit for seed-pinned 8-vertex queries.
    let session = Session::from_prepared(Arc::new(prepared)).with_result_cache(64);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x5eed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## persist — index save/load vs. cold preparation\n\n\
         data graph: {} vertices, {} edges, {} labels; index file {} bytes\n\
         cold prepare (best of {REPS}):   {cold_best:?}\n\
         encode to bytes:            {encode:?}\n\
         load + validate (best of {REPS}): {warm_best:?}\n",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count(),
        bytes.len(),
    );
    let _ = writeln!(out, "| query | cold count | cold | cache hit | speedup |");
    let _ = writeln!(out, "|---|---:|---:|---:|---:|");
    for qi in 0..4 {
        let Some(query) = random_walk_query(&graph, 8, &mut rng) else {
            continue;
        };
        let run = |q: &gup_graph::Graph| {
            let t = Instant::now();
            let n = session
                .query(q)
                .limit(config.embedding_limit)
                .count()
                .expect("persist experiment query");
            (n, t.elapsed())
        };
        let (count, cold) = run(&query);
        let (hit_count, hit) = run(&query);
        assert_eq!(count, hit_count, "cache hit changed the answer");
        let speedup = cold.as_nanos() as f64 / hit.as_nanos().max(1) as f64;
        let _ = writeln!(
            out,
            "| q{qi} | {count} | {cold:?} | {hit:?} | {speedup:.0}x |"
        );
    }
    out
}

/// The phases of one query's run, in the order the engine runs them.
const PHASES: [&str; 5] = ["build", "order", "reservation", "engine new", "search"];

/// Timed rounds per query of [`phases`].
const PHASE_ROUNDS: usize = 3;

/// One query's time in each of [`PHASES`] (best of the timed rounds) and the
/// search's counts.
struct QueryPhases {
    micros: [f64; 5],
    recursions: u64,
    candidates: usize,
}

/// Where gupbench's serve-stream queries spend their time, phase by phase: the
/// candidate-space build (generation, refinement and candidate edges), ordering with
/// the space's re-indexing, reservation-guard generation, `SearchEngine::new`
/// (the candidate stack and the nogood-guard stores) and the search run, each
/// timed on its own, on one thread, for every query of a pool of distinct
/// 8-vertex random-walk queries (pool seed 30) under limit 1000 on a 15-label
/// power-law graph generated with `config.seed`. The graph's 30,000 vertices
/// and the pool's 512 queries are multiplied by `config`'s Yeast scale over the
/// default one, so the default configuration (seed 2023, scale 1) rebuilds
/// serve-stream's graph and pool as `gupbench/src/inputs.rs` generates them;
/// a change to either copy must be made to both. Each query runs once untimed
/// and then `PHASE_ROUNDS` (3) timed rounds; each phase keeps its best round. The
/// report gives the mean per query over the whole pool, over its heaviest 5% by
/// total time and over the next 20%, with the search's recursions and the
/// space's candidates. Each search's embedding count is checked against the
/// session's.
pub fn phases(config: &SuiteConfig) -> String {
    use gup::reservation::generate_reservation_guards;
    use gup::session::Session;
    use gup::Gcs;
    use gup_candidate::CandidateSpace;
    use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
    use gup_graph::io::graph_to_string;
    use gup_graph::QueryGraph;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::hint::black_box;

    const LIMIT: u64 = 1000;
    let scale = config.yeast_scale / SuiteConfig::default().yeast_scale;
    let vertices = (30_000.0 * scale).round() as usize;
    let pool = (512.0 * scale).round() as usize;
    let graph = power_law_graph(&PowerLawConfig {
        vertices,
        edges_per_vertex: 4,
        labels: 15,
        seed: config.seed,
        ..PowerLawConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(30);
    let mut seen = HashSet::new();
    let mut queries = Vec::with_capacity(pool);
    while queries.len() < pool {
        if let Some(q) = random_walk_query(&graph, 8, &mut rng) {
            if seen.insert(graph_to_string(&q)) {
                queries.push(q);
            }
        }
    }
    let session = Session::new(graph);
    let prepared = session.prepared();
    let engine_config = GupConfig::with_embedding_limit(LIMIT);

    let measured: Vec<QueryPhases> = queries
        .iter()
        .map(|q| {
            let mut best = [f64::INFINITY; 5];
            let mut counts = (0, 0);
            for round in 0..=PHASE_ROUNDS {
                let mut micros = [0.0; 5];
                let mut timed = |phase: usize, t: Instant| {
                    micros[phase] = t.elapsed().as_secs_f64() * 1e6;
                };
                let t = Instant::now();
                let space = CandidateSpace::build_prepared(q, prepared, &engine_config.filter);
                timed(0, t);
                let t = Instant::now();
                let order =
                    gup_order::compute_order(q, &space.candidate_sizes(), engine_config.ordering)
                        .expect("random-walk queries are connected");
                let ordered = QueryGraph::new(q.clone())
                    .expect("random-walk queries are valid")
                    .with_order::<1>(&order)
                    .expect("the order is connected");
                let space = space.permuted(&order);
                timed(1, t);
                let t = Instant::now();
                black_box(generate_reservation_guards(
                    &ordered,
                    &space,
                    prepared.graph().vertex_count(),
                    engine_config.reservation_size_limit,
                ));
                timed(2, t);
                // The engine runs on the GCS, which only `build_prepared` makes:
                // built again, untimed.
                let gcs = Gcs::<1>::build_prepared(q, prepared, &engine_config)
                    .expect("random-walk queries are valid");
                let t = Instant::now();
                let engine = SearchEngine::new(&gcs, &engine_config);
                timed(3, t);
                let t = Instant::now();
                let stats = engine.run_with_sink(&mut CountOnly::new());
                timed(4, t);
                if round == 0 {
                    let expected = session.query(q).limit(LIMIT).count();
                    let expected = expected.expect("random-walk queries are valid");
                    assert_eq!(stats.embeddings, expected, "engine and session disagree");
                    counts = (stats.recursions, space.total_candidates());
                    continue;
                }
                for (b, m) in best.iter_mut().zip(micros) {
                    *b = b.min(m);
                }
            }
            QueryPhases {
                micros: best,
                recursions: counts.0,
                candidates: counts.1,
            }
        })
        .collect();

    let mut by_total: Vec<&QueryPhases> = measured.iter().collect();
    by_total.sort_by(|a, b| {
        let total = |p: &QueryPhases| p.micros.iter().sum::<f64>();
        total(b).total_cmp(&total(a))
    });
    let heaviest = by_total.len().div_ceil(20);
    let next = by_total.len().div_ceil(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## phases — serve-stream's query pool, per query and phase\n\n\
         data graph: {vertices} vertices, 15 labels, seed {}; {} distinct 8-vertex \
         queries, limit {LIMIT}; mean µs per query, each phase its best of {PHASE_ROUNDS} \
         rounds\n",
        config.seed,
        queries.len()
    );
    let _ = writeln!(
        out,
        "| queries | count | {} | total | recursions | candidates |",
        PHASES.join(" | ")
    );
    let _ = writeln!(
        out,
        "|---|---:|{}---:|---:|---:|",
        "---:|".repeat(PHASES.len())
    );
    for (name, group) in [
        ("all", &by_total[..]),
        ("heaviest 5%", &by_total[..heaviest]),
        (
            "next 20%",
            &by_total[heaviest..(heaviest + next).min(by_total.len())],
        ),
    ] {
        let n = group.len().max(1) as f64;
        let mean = |f: &dyn Fn(&QueryPhases) -> f64| group.iter().map(|p| f(p)).sum::<f64>() / n;
        let _ = write!(out, "| {name} | {} |", group.len());
        for phase in 0..PHASES.len() {
            let _ = write!(out, " {:.1} |", mean(&|p| p.micros[phase]));
        }
        let _ = writeln!(
            out,
            " {:.1} | {:.1} | {:.0} |",
            mean(&|p| p.micros.iter().sum()),
            mean(&|p| p.recursions as f64),
            mean(&|p| p.candidates as f64),
        );
    }
    out
}

/// Utility used by the binary: very rough upper bound on a full run's duration, to
/// warn users that larger scales take correspondingly longer.
pub fn estimated_budget(config: &SuiteConfig) -> Duration {
    config.per_set_budget
        * (Dataset::ALL.len() * QuerySetSpec::PAPER_SETS.len() * Method::HEADLINE.len()) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SuiteConfig {
        SuiteConfig {
            queries_per_set: 2,
            per_query_timeout: Duration::from_millis(100),
            per_set_budget: Duration::from_secs(2),
            ..SuiteConfig::smoke()
        }
    }

    #[test]
    fn headline_sweep_and_reports() {
        let config = tiny_config();
        let headline = collect_headline(&config);
        assert!(!headline.rows.is_empty());
        let t2 = table2(&headline);
        assert!(t2.contains("Table 2"));
        assert!(t2.contains("GuP"));
        let f4 = fig4(&headline);
        assert!(f4.contains("Figure 4"));
        let f5 = fig5(&headline);
        assert!(f5.contains("Figure 5"));
        let f6 = fig6(&headline);
        assert!(f6.contains("Yeast"));
    }

    #[test]
    fn ablation_reports_run() {
        let config = tiny_config();
        assert!(fig8(&config).contains("r=3"));
        assert!(fig9(&config).contains("R+NV"));
    }

    #[test]
    fn memory_table_runs() {
        let config = tiny_config();
        let t3 = table3(&config);
        assert!(t3.contains("Table 3"));
    }

    #[test]
    fn phases_report_runs() {
        let report = phases(&SuiteConfig {
            yeast_scale: SuiteConfig::default().yeast_scale / 16.0,
            ..SuiteConfig::smoke()
        });
        assert!(report.contains("| all | 32 |"), "{report}");
        assert!(report.contains("heaviest 5%"), "{report}");
    }

    #[test]
    fn estimated_budget_scales_with_config() {
        let config = tiny_config();
        assert!(estimated_budget(&config) >= config.per_set_budget);
    }
}
