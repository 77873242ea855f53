//! `gupbench`: the repository's benchmark. One workload per process:
//!
//! ```text
//! gupbench --workload <point-large|search-hard|serve-stream|all> --seed <n>
//!          --seconds <n> --trace <0|1> [--smoke] [--inject-wrong-count]
//!          [--trace-dir <dir>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1` it
//! measures every layer from outside, by calling each crate's public functions
//! inside spans. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A correctness mismatch
//! exits with status 1. `--workload all` runs each workload in its own child
//! process. `--smoke` shrinks the inputs for the benchmark's own tests, and
//! `--inject-wrong-count` corrupts one expected count so the tests can show
//! that the correctness gate trips.

mod inputs;
mod layers;
mod library;
mod measure;
mod serve;
mod trace;

use gup::session::Session;
use gup_graph::io::parse_graph;
use gup_graph::PreparedData;
use inputs::{Inputs, Size, Workload};
use library::Traffic;
use measure::{peak_rss_mb, Report, Samples};
use serve::{Answers, Client};
use std::io;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// Samples wanted per run, and per block of the tail percentiles: 10 beyond
/// p99 needs 1000 queries, 10 beyond the (stderr-only) delta p90 needs 100.
const QUERY_MIN_SAMPLES: usize = 1000;
const DELTA_MIN_SAMPLES: usize = 100;

/// Delta batches replayed by the traced run's layer and wire probes.
const PROBE_DELTAS: usize = 40;

/// Queries whose probes the traced run times both traced and untraced, for
/// the tracing overhead.
const OVERHEAD_QUERIES: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    size: Size,
    inject_wrong_count: bool,
    trace_dir: PathBuf,
}

const USAGE: &str = "usage: gupbench --workload <point-large|search-hard|serve-stream|all> \
                     --seed <n> --seconds <n> --trace <0|1> [--smoke] [--inject-wrong-count] \
                     [--trace-dir <dir>]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        size: Size::Full,
        inject_wrong_count: false,
        trace_dir: PathBuf::from("gupbench/traces"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes an integer")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--trace-dir" => args.trace_dir = PathBuf::from(value()?),
            "--smoke" => args.size = Size::Smoke,
            "--inject-wrong-count" => args.inject_wrong_count = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gupbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("gupbench: unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let result = if args.trace {
        traced(workload, &args)
    } else {
        measured(workload, &args)
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("gupbench: correctness gate failed on {}:", workload.name());
                for m in &report.mismatches {
                    eprintln!("  {m}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gupbench: {} failed: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, each in its own child process (so set-up time and
/// peak memory belong to one workload), forwarding the other arguments.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("gupbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = argv.to_vec();
        if let Some(at) = child_args.iter().position(|a| a == "--workload") {
            child_args[at + 1] = w.name().to_string();
        }
        println!("# workload {}", w.name());
        let status = Command::new(&exe).args(&child_args).status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("gupbench: workload {} failed: {status:?}", w.name());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn generate(workload: Workload, args: &Args, with_index: bool) -> Inputs {
    let t = Instant::now();
    let inputs = inputs::generate(workload, args.seed, args.size, with_index);
    eprintln!(
        "gupbench: {} seed {}: generated {} bytes of graph text, {} index bytes, {} queries, {} delta batches in {:.2?}",
        workload.name(),
        args.seed,
        inputs.graph_text.len(),
        inputs.index_bytes.len(),
        inputs.queries.len(),
        inputs.deltas.len(),
        t.elapsed()
    );
    inputs
}

/// The end-to-end run (`--trace 0`).
fn measured(workload: Workload, args: &Args) -> io::Result<Report> {
    let inputs = generate(workload, args, workload == Workload::ServeStream);
    // `peak_rss_mb` counts from here, and is read when the traffic ends,
    // before the serve-stream check loads a second copy of the index.
    measure::reset_peak_rss();
    let budget = Duration::from_secs(args.seconds);
    let limit = workload.limit();
    let queries = library::parse_queries(&inputs.queries);
    let standing = library::parse_queries(&inputs.standing);
    let mut report = Report::default();
    let (traffic, setup, rss) = match workload {
        Workload::PointLarge | Workload::SearchHard => {
            measure::pin_to_current_cpu();
            let (prepared, setup) = library::setup(&inputs.graph_text);
            let session = Session::from_prepared(prepared);
            let mut expected =
                library::reference_counts(&session, &queries, limit, &mut report.mismatches);
            if args.inject_wrong_count {
                expected[0] = expected[0].wrapping_add(1);
            }
            let deltas = library::parse_deltas(&inputs.deltas);
            let plan = library::Plan {
                budget,
                min_queries: QUERY_MIN_SAMPLES,
                min_deltas: DELTA_MIN_SAMPLES,
            };
            let traffic = library::traffic(
                &session,
                &queries,
                &expected,
                limit,
                &standing,
                &deltas,
                &plan,
                &mut report.mismatches,
            );
            (traffic, setup, peak_rss_mb())
        }
        Workload::ServeStream => {
            let (server, setup) = serve::start(&inputs.index_bytes, true)?;
            let run = serve::stream(server.addr(), &inputs, limit, budget)?;
            let rss = peak_rss_mb();
            let mut client = Client::connect(server.addr())?;
            let (counts, _) = serve::wire_counts(&mut client, &inputs.queries, limit)?;
            drop(client);
            server.stop()?;
            let wire = Answers {
                new_matches: run.traffic.deltas.new_matches,
                counts,
                ..Answers::default()
            };
            let mut lib = serve::library_pass(
                &inputs.index_bytes,
                &standing,
                &inputs.deltas,
                run.sent,
                &queries,
                limit,
            );
            if args.inject_wrong_count {
                lib.counts[0] = lib.counts[0].map(|c| c.wrapping_add(1));
            }
            serve::compare("serve-stream", &wire, &lib, &mut report.mismatches);
            eprintln!("gupbench: server {}", run.stats);
            (run.traffic, setup, rss)
        }
    };
    let (q, d) = (&traffic.queries, &traffic.deltas);
    report.attempted = q.attempted + d.attempted;
    report.failed = q.failed + d.failed;
    describe(&traffic);
    eprintln!(
        "gupbench: set-up {} timed rounds after a warm-up round: p10 {:.4} s, median {:.4} s, p90 {:.4} s",
        setup.len(),
        setup.percentile(10.0) / 1e6,
        setup.median() / 1e6,
        setup.percentile(90.0) / 1e6
    );
    report.metric("queries_per_s", traffic.pass_rates.median(), "1/s");
    report.metric("query_p50_us", q.latencies.median(), "us");
    report.metric(
        "query_p99_us",
        q.latencies.block_percentile(99.0, QUERY_MIN_SAMPLES),
        "us",
    );
    report.metric("delta_p50_us", d.latencies.median(), "us");
    report.metric("setup_s", setup.median() / 1e6, "s");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(report)
}

fn describe(traffic: &Traffic) {
    let (q, d) = (&traffic.queries, &traffic.deltas);
    eprintln!(
        "gupbench: {} queries in {:.2?} ({} failed, {} beyond p99, {} whole passes); {} deltas ({} failed, p90 {:.1} us over blocks of {DELTA_MIN_SAMPLES}, {} new matches, generator late p50 {:.1} us)",
        q.attempted,
        q.elapsed,
        q.failed,
        q.latencies.beyond(99.0),
        traffic.pass_rates.len(),
        d.attempted,
        d.failed,
        d.latencies.block_percentile(90.0, DELTA_MIN_SAMPLES),
        d.new_matches,
        d.late.median()
    );
}

/// Mean µs of the spans named `name`.
fn mean_span(tr: &Tracer, name: &str) -> f64 {
    let d = tr.durations_us(name);
    d.iter().sum::<f64>() / d.len().max(1) as f64
}

fn median_span(tr: &Tracer, name: &str) -> f64 {
    let mut s = Samples::default();
    for us in tr.durations_us(name) {
        s.push_value(us);
    }
    s.median()
}

/// Mean per request of the counts named `name`.
fn mean_count(tr: &Tracer, name: &str) -> f64 {
    let (sum, n) = tr.count_total(name);
    sum / n.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run (`--trace 1`): per-layer metrics plus the tracing overhead.
fn traced(workload: Workload, args: &Args) -> io::Result<Report> {
    let inputs = generate(workload, args, true);
    let budget = Duration::from_secs(args.seconds);
    let limit = workload.limit();
    let queries = library::parse_queries(&inputs.queries);
    let standing = library::parse_queries(&inputs.standing);
    let mut tr = Tracer::new(Instant::now());
    let mut report = Report::default();
    if workload != Workload::ServeStream {
        measure::pin_to_current_cpu();
    }

    layers::setup_layers(&inputs.graph_text, &inputs.index_bytes, 3, &mut tr);
    let graph = parse_graph(&inputs.graph_text).expect("generated graph text parses");
    let session = Session::from_prepared(Arc::new(PreparedData::new(graph)));
    let expected = library::reference_counts(&session, &queries, limit, &mut report.mismatches);

    // The workload's own traffic, untraced, for the cache counters, the
    // generator's lateness and the failed share.
    let (traffic, cache) = match workload {
        Workload::PointLarge | Workload::SearchHard => {
            let deltas = library::parse_deltas(&inputs.deltas);
            let plan = library::Plan {
                budget: budget / 2,
                min_queries: 0,
                min_deltas: 0,
            };
            let traffic = library::traffic(
                &session,
                &queries,
                &expected,
                limit,
                &standing,
                &deltas,
                &plan,
                &mut report.mismatches,
            );
            let c = session.counters().snapshot();
            let lookups = (c.cache_hits + c.cache_misses) as f64;
            let cache = (
                ratio(c.cache_hits as f64, lookups),
                c.cache_invalidations as f64,
            );
            (traffic, cache)
        }
        Workload::ServeStream => {
            let (server, _) = serve::start(&inputs.index_bytes, false)?;
            let run = serve::stream(server.addr(), &inputs, limit, budget / 2)?;
            server.stop()?;
            let field = |key| serve::field(&run.stats, key).unwrap_or(0) as f64;
            let lookups = field("cache-hits") + field("cache-misses");
            let cache = (
                ratio(field("cache-hits"), lookups),
                field("cache-invalidations"),
            );
            (run.traffic, cache)
        }
    };
    report.attempted += traffic.queries.attempted + traffic.deltas.attempted;
    report.failed += traffic.queries.failed + traffic.deltas.failed;
    let late = &traffic.deltas.late;

    // Layer probes over the same inputs.
    let probe_deltas = &inputs.deltas[..PROBE_DELTAS.min(inputs.deltas.len())];
    let probes = probe_deltas.len();
    layers::parse_layers(&inputs.queries, limit, &mut tr);
    layers::query_layers(
        &session,
        &queries,
        &expected,
        limit,
        &mut tr,
        &mut report.mismatches,
    );
    let overhead_queries = OVERHEAD_QUERIES.min(queries.len());
    let overhead = layers::tracing_overhead(&session, &queries, limit, overhead_queries);
    layers::delta_layers(session.prepared(), &standing, probe_deltas, &mut tr);
    drop(session);

    // Wire versus library for the same inputs.
    let (server, _) = serve::start(&inputs.index_bytes, false)?;
    let wire = serve::wire_pass(
        server.addr(),
        &inputs.standing,
        probe_deltas,
        &inputs.queries,
        limit,
    );
    server.stop()?;
    let wire = wire?;
    let lib = serve::library_pass(
        &inputs.index_bytes,
        &standing,
        probe_deltas,
        probes,
        &queries,
        limit,
    );
    serve::compare("wire probe", &wire, &lib, &mut report.mismatches);
    report.attempted += (wire.counts.len() + probes) as u64;

    eprintln!(
        "gupbench: tracing overhead {:+.2}% (the query probes of {overhead_queries} queries, traced against untraced, interleaved A B B A per query)",
        overhead * 100.0
    );
    eprintln!("gupbench: self time per span (traced run)");
    eprintln!(
        "  {:<22} {:>8} {:>14} {:>12}",
        "span", "count", "self total us", "self mean us"
    );
    for (name, (n, total)) in tr.self_times() {
        eprintln!(
            "  {name:<22} {n:>8} {total:>14.1} {:>12.2}",
            total / n as f64
        );
    }
    let path = args
        .trace_dir
        .join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
    tr.write(&path)?;
    eprintln!("gupbench: spans written to {}", path.display());

    let (rec, _) = tr.count_total("core.recursions");
    let (futile, _) = tr.count_total("core.futile_recursions");
    let (seen, _) = tr.count_total("core.local_candidates");
    let (pruned, _) = tr.count_total("core.guard_pruned");
    let (embeddings, _) = tr.count_total("core.embeddings");
    let filter = mean_span(&tr, "candidate.filter");
    let m = &mut report;
    m.metric(
        "graph.parse_ms",
        median_span(&tr, "graph.parse") / 1e3,
        "ms",
    );
    m.metric(
        "graph.prepare_ms",
        median_span(&tr, "graph.prepare") / 1e3,
        "ms",
    );
    m.metric(
        "graph.index_load_ms",
        median_span(&tr, "graph.index_load") / 1e3,
        "ms",
    );
    m.metric(
        "graph.delta_apply_us",
        mean_span(&tr, "graph.delta_apply"),
        "us",
    );
    m.metric(
        "stream.new_matches_us",
        mean_span(&tr, "stream.new_matches"),
        "us",
    );
    m.metric(
        "stream.new_matches",
        mean_count(&tr, "stream.new_matches"),
        "count",
    );
    m.metric(
        "serve.delta_parse_us",
        mean_span(&tr, "serve.delta_parse"),
        "us",
    );
    m.metric("candidate.filter_us", filter, "us");
    m.metric(
        "candidate.refine_edges_us",
        mean_span(&tr, "candidate.build") - filter,
        "us",
    );
    m.metric(
        "candidate.candidates",
        mean_count(&tr, "candidate.candidates"),
        "count",
    );
    m.metric(
        "candidate.candidate_edges",
        mean_count(&tr, "candidate.candidate_edges"),
        "count",
    );
    m.metric("order.order_us", mean_span(&tr, "order.order"), "us");
    m.metric(
        "core.reservation_us",
        mean_span(&tr, "core.reservation"),
        "us",
    );
    m.metric(
        "core.reservation_bytes",
        mean_count(&tr, "core.reservation_bytes"),
        "bytes",
    );
    m.metric("core.search_us", mean_span(&tr, "core.search"), "us");
    m.metric(
        "core.recursions",
        mean_count(&tr, "core.recursions"),
        "count",
    );
    m.metric("core.futile_ratio", ratio(futile, rec), "ratio");
    m.metric("core.guard_prune_rate", ratio(pruned, seen), "ratio");
    m.metric(
        "core.embeddings_per_recursion",
        ratio(embeddings, rec),
        "ratio",
    );
    m.metric(
        "core.nogood_guards",
        mean_count(&tr, "core.nogood_guards"),
        "count",
    );
    m.metric(
        "core.session_residual_us",
        mean_span(&tr, "core.session")
            - mean_span(&tr, "core.gcs_build")
            - mean_span(&tr, "core.search"),
        "us",
    );
    m.metric("core.cache_hit_rate", cache.0, "ratio");
    m.metric("core.cache_invalidations", cache.1, "count");
    m.metric("serve.parse_us", mean_span(&tr, "serve.parse"), "us");
    m.metric(
        "serve.query_residual_us",
        wire.query_latency.median() - lib.query_latency.median(),
        "us",
    );
    m.metric(
        "serve.delta_residual_us",
        wire.delta_latency.median() - lib.delta_latency.median(),
        "us",
    );
    m.metric("bench.delta_late_us", late.median(), "us");
    m.metric("bench.trace_overhead_pct", overhead * 100.0, "%");
    let fail_frac = ratio(m.failed as f64, m.attempted as f64);
    m.metric("bench.fail_frac", fail_frac, "ratio");
    Ok(report)
}
