//! `gup-match` — command-line subgraph matcher.
//!
//! Loads a data graph and one or more query graphs in the community `t/v/e` text
//! format and runs the selected matcher, printing a per-query summary line (and
//! optionally the embeddings themselves). The data graph is **prepared once** — one
//! shared [`Session`] / `PreparedData` index serves every query, so batch runs pay
//! the per-data-graph cost a single time (reported once on stderr).
//!
//! ```text
//! gup-match --data data.graph --query query.graph
//! gup-match --data data.graph --query q1.graph --query q2.graph \
//!           --method daf --limit 100000 --timeout-ms 60000
//! gup-match --data data.graph --queries manifest.txt      # newline-separated paths
//! gup-match --data data.graph --query query.graph --print-embeddings --threads 8
//! gup-match --data data.graph --query query.graph --count-only
//! gup-match --data data.graph --query query.graph --first-k 10
//! gup-match --data data.graph --save-index data.gupi      # prepare once, persist
//! gup-match --index data.gupi --query query.graph         # warm start, no prepare
//! ```
//!
//! Persistence: `--save-index <path>` writes the prepared index to disk in the
//! versioned, checksummed `gup_graph::index_io` format (with no queries it just
//! prepares, saves, and exits). `--index <path>` loads such a file instead of
//! parsing and preparing a text graph — warm starts skip the whole preparation
//! pass, which dominates process startup on large data graphs.
//!
//! Methods: `gup` (default), `gup-noguards`, `daf`, `gql`, `ri`, `join`.
//!
//! Output modes (all methods): the default prints the per-query summary line;
//! `--count-only` streams through a counting sink (no embedding is ever
//! materialized); `--first-k <k>` stops the search after the first `k` embeddings
//! and prints them; `--print-embeddings` materializes and prints everything. With
//! more than one query a timing table follows, with the one-time preparation cost
//! amortized per query.

use gup::session::{Engine, Session};
use gup::sink::{CountOnly, EmbeddingSink, FirstK};
use gup::{GupConfig, PruningFeatures, SearchLimits, SearchStats};
use gup_graph::deadline::Stopwatch;
use gup_graph::io::load_graph;
use gup_graph::VertexId;
use std::process::ExitCode;
use std::time::Duration;

/// How much of the output the search must produce — each mode maps to a different
/// [`EmbeddingSink`], so cheaper modes do strictly less work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OutputMode {
    /// Summary line only (embeddings are counted, not kept).
    Summary,
    /// `--count-only`: counting sink, zero materialization.
    CountOnly,
    /// `--first-k <k>`: stop after the first `k` embeddings and print them.
    FirstK(u64),
    /// `--print-embeddings`: collect and print everything.
    PrintAll,
}

#[derive(Clone, Debug)]
struct Options {
    data: String,
    index: Option<String>,
    save_index: Option<String>,
    queries: Vec<String>,
    method: String,
    limit: Option<u64>,
    timeout: Option<Duration>,
    threads: usize,
    output: OutputMode,
}

fn usage() -> &'static str {
    "usage: gup-match (--data <file> | --index <file>) --query <file> [--query <file> ...]\n\
     options:\n\
       --method <gup|gup-noguards|daf|gql|ri|join>   matcher to run (default: gup)\n\
       --index <file>         load a saved prepared index instead of a --data graph\n\
       --save-index <file>    persist the prepared index after building it (with no\n\
                              --query this prepares, saves, and exits)\n\
       --queries <manifest>   newline-separated file of query paths (batch mode)\n\
       --limit <n>            stop after n embeddings (default: 100000; 0 = unlimited)\n\
       --timeout-ms <n>       per-query time limit in milliseconds, must be positive\n\
                              (default: none)\n\
       --threads <n>          worker threads for the GuP methods (default: 1)\n\
       --count-only           count embeddings without materializing any\n\
       --first-k <k>          stop after the first k embeddings and print them\n\
       --print-embeddings     print every embedding\n\
       --help                 show this message"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        data: String::new(),
        index: None,
        save_index: None,
        queries: Vec::new(),
        method: "gup".to_string(),
        limit: Some(100_000),
        timeout: None,
        threads: 1,
        output: OutputMode::Summary,
    };
    let mut modes_given = 0u32;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => {
                i += 1;
                opts.data = args.get(i).cloned().ok_or("--data needs a path")?;
            }
            "--index" => {
                i += 1;
                opts.index = Some(args.get(i).cloned().ok_or("--index needs a path")?);
            }
            "--save-index" => {
                i += 1;
                opts.save_index = Some(args.get(i).cloned().ok_or("--save-index needs a path")?);
            }
            "--query" => {
                i += 1;
                opts.queries
                    .push(args.get(i).cloned().ok_or("--query needs a path")?);
            }
            "--queries" => {
                i += 1;
                let manifest = args.get(i).cloned().ok_or("--queries needs a path")?;
                let text = std::fs::read_to_string(&manifest)
                    .map_err(|e| format!("cannot read query manifest {manifest}: {e}"))?;
                for line in text.lines() {
                    let line = line.trim();
                    if !line.is_empty() && !line.starts_with('#') {
                        opts.queries.push(line.to_string());
                    }
                }
            }
            "--method" => {
                i += 1;
                opts.method = args.get(i).cloned().ok_or("--method needs a value")?;
            }
            "--limit" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--limit needs an integer")?;
                opts.limit = if n == 0 { None } else { Some(n) };
            }
            "--timeout-ms" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--timeout-ms needs an integer")?;
                if n == 0 {
                    return Err(
                        "--timeout-ms must be positive (omit it for no time limit)".to_string()
                    );
                }
                opts.timeout = Some(Duration::from_millis(n));
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs an integer")?;
            }
            "--print-embeddings" => {
                opts.output = OutputMode::PrintAll;
                modes_given += 1;
            }
            "--count-only" => {
                opts.output = OutputMode::CountOnly;
                modes_given += 1;
            }
            "--first-k" => {
                i += 1;
                let k: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--first-k needs an integer")?;
                opts.output = OutputMode::FirstK(k);
                modes_given += 1;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if modes_given > 1 {
        return Err(
            "--count-only, --first-k, and --print-embeddings are mutually exclusive".to_string(),
        );
    }
    match (&opts.index, opts.data.is_empty()) {
        (Some(_), false) => {
            return Err("--data and --index are mutually exclusive (pick one source)".to_string())
        }
        (None, true) => return Err("missing --data (or --index)".to_string()),
        _ => {}
    }
    if opts.save_index.is_some() && opts.index.is_some() {
        return Err(
            "--save-index requires --data (an index loaded with --index is already on disk)"
                .to_string(),
        );
    }
    // `--save-index` alone is a valid prepare-only invocation: build, persist, exit.
    if opts.queries.is_empty() && opts.save_index.is_none() {
        return Err("missing --query (or a non-empty --queries manifest)".to_string());
    }
    Ok(opts)
}

fn parse_method(method: &str) -> Result<(Engine, PruningFeatures), String> {
    match method {
        "gup" => Ok((Engine::Gup, PruningFeatures::ALL)),
        "gup-noguards" => Ok((Engine::Gup, PruningFeatures::NONE)),
        "daf" => Ok((Engine::Daf, PruningFeatures::ALL)),
        "gql" => Ok((Engine::Gql, PruningFeatures::ALL)),
        "ri" => Ok((Engine::Ri, PruningFeatures::ALL)),
        "join" => Ok((Engine::Join, PruningFeatures::ALL)),
        other => Err(format!(
            "unknown method '{other}' (expected gup, gup-noguards, daf, gql, ri, join)"
        )),
    }
}

fn print_embeddings(embeddings: &[Vec<VertexId>]) {
    for emb in embeddings {
        let cells: Vec<String> = emb.iter().map(|v| v.to_string()).collect();
        println!("embedding\t{}", cells.join("\t"));
    }
}

/// Maps an output mode to its sink, runs the engine-specific `run` closure through
/// it, prints whatever the mode retains, and hands back the engine's result record.
/// One implementation for every matcher family — each mode makes the search do
/// strictly as much work as the output demands.
fn run_with_output<R>(output: OutputMode, run: impl FnOnce(&mut dyn EmbeddingSink) -> R) -> R {
    match output {
        OutputMode::Summary | OutputMode::CountOnly => run(&mut CountOnly::new()),
        OutputMode::FirstK(k) => {
            let mut sink = FirstK::new(k);
            let result = run(&mut sink);
            print_embeddings(sink.embeddings());
            result
        }
        OutputMode::PrintAll => {
            let mut sink = gup::sink::CollectAll::new();
            let result = run(&mut sink);
            print_embeddings(sink.embeddings());
            result
        }
    }
}

/// Renders the per-query summary line in the per-method-family historic shape.
fn summary_line(engine: Engine, stats: &SearchStats, threads: usize, elapsed: Duration) -> String {
    let early = if stats.terminated_early() {
        " (terminated early)"
    } else {
        ""
    };
    match engine {
        Engine::Gup => {
            let parallel_info = if threads > 1 {
                format!(
                    " tasks={} splits={} steals={}",
                    stats.tasks_executed, stats.frames_split, stats.tasks_stolen
                )
            } else {
                String::new()
            };
            format!(
                "embeddings={} recursions={} futile={} backjumps={} pruned_by_guards={}{} elapsed={:?}{}",
                stats.embeddings,
                stats.recursions,
                stats.futile_recursions,
                stats.backjumps,
                stats.pruned_by_reservation + stats.pruned_by_nogood_vertex,
                parallel_info,
                elapsed,
                early
            )
        }
        Engine::Join => format!(
            "embeddings={} intermediate_results={} elapsed={:?}{}",
            stats.embeddings, stats.recursions, elapsed, early
        ),
        _ => format!(
            "embeddings={} recursions={} futile={} elapsed={:?}{}",
            stats.embeddings, stats.recursions, stats.futile_recursions, elapsed, early
        ),
    }
}

/// One row of the batch timing table.
struct TimingRow {
    path: String,
    embeddings: u64,
    elapsed: Duration,
}

fn run_query(
    session: &Session,
    query: &gup_graph::Graph,
    engine: Engine,
    features: PruningFeatures,
    opts: &Options,
) -> Result<(String, SearchStats, Duration), String> {
    let watch = Stopwatch::started();
    let config = GupConfig {
        features,
        limits: SearchLimits {
            max_embeddings: opts.limit,
            ..SearchLimits::UNLIMITED
        },
        ..GupConfig::default()
    };
    let stats = run_with_output(opts.output, |sink| {
        let mut request = session
            .query(query)
            .method(engine)
            .config(config)
            .threads(opts.threads);
        // The per-query clock starts here, right before the query runs.
        if let Some(timeout) = opts.timeout {
            request = request.timeout(timeout);
        }
        request.run_with_sink(sink)
    })
    .map_err(|e| e.to_string())?;
    let elapsed = watch.elapsed();
    let line = summary_line(engine, &stats, opts.threads, elapsed);
    Ok((line, stats, elapsed))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprintln!("{}", usage());
            return if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
    };
    let (engine, features) = match parse_method(&opts.method) {
        Ok(m) => m,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    // Prepare once (or load a persisted index): every query below (whatever the
    // method) runs against this session's shared index; batch runs amortize this
    // cost, and `--index` warm starts skip it entirely.
    let (session, source_verb) = if let Some(path) = &opts.index {
        match gup_graph::load_index(path) {
            Ok(prepared) => (
                Session::from_prepared(std::sync::Arc::new(prepared)),
                "loaded index in",
            ),
            Err(e) => {
                eprintln!("error: cannot load index {path}: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        match load_graph(&opts.data) {
            Ok(g) => (Session::new(g), "prepared in"),
            Err(e) => {
                eprintln!("error: cannot load data graph {}: {e}", opts.data);
                return ExitCode::from(1);
            }
        }
    };
    eprintln!(
        "data graph: {} vertices, {} edges, {} labels; {source_verb} {:?} ({} index bytes)",
        session.data().vertex_count(),
        session.data().edge_count(),
        session.data().label_count(),
        session.prep_time(),
        session.prepared().index_bytes()
    );
    if let Some(path) = &opts.save_index {
        let watch = Stopwatch::started();
        if let Err(e) = gup_graph::save_index(session.prepared(), path) {
            eprintln!("error: cannot save index {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("saved index to {path} in {:?}", watch.elapsed());
    }
    let mut failures = 0;
    let mut rows: Vec<TimingRow> = Vec::new();
    for path in &opts.queries {
        match load_graph(path) {
            Ok(query) => match run_query(&session, &query, engine, features, &opts) {
                Ok((line, stats, elapsed)) => {
                    println!("{path}\tmethod={}\t{line}", opts.method);
                    rows.push(TimingRow {
                        path: path.clone(),
                        embeddings: stats.embeddings,
                        elapsed,
                    });
                }
                Err(e) => {
                    eprintln!("error: query {path}: {e}");
                    failures += 1;
                }
            },
            Err(e) => {
                eprintln!("error: cannot load query {path}: {e}");
                failures += 1;
            }
        }
    }
    if rows.len() > 1 {
        let prep = session.prep_time();
        let amortized = prep / rows.len() as u32;
        println!(
            "batch: {} queries, prep {:?} once ({:?} amortized per query, {} index bytes)",
            rows.len(),
            prep,
            amortized,
            session.prepared().index_bytes()
        );
        println!("{:<40} {:>12} {:>14}", "query", "matches", "elapsed");
        for row in &rows {
            println!(
                "{:<40} {:>12} {:>14?}",
                row.path, row.embeddings, row.elapsed
            );
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
