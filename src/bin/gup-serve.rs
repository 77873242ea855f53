//! `gup-serve` — long-lived subgraph-match server.
//!
//! Loads a data graph in the community `t/v/e` text format, prepares it once,
//! and serves queries over a line-delimited TCP protocol (see the `gup-serve`
//! crate docs for the wire grammar). The prepared index is shared by every
//! query; `reload` swaps in a new data graph without dropping in-flight work.
//!
//! ```text
//! gup-serve --data data.graph
//! gup-serve --data data.graph --listen 127.0.0.1:7878 --workers 8 --queue 32
//! gup-serve --data data.graph --timeout-ms 60000       # default per-request budget
//! ```
//!
//! On startup the bound address is printed to stdout as `listening on <addr>`
//! (bind port 0 for an ephemeral port and read it from there).

use gup::session::Session;
use gup_graph::io::load_graph;
use gup_graph::PreparedData;
use gup_serve::{Server, ServerConfig};
use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

#[derive(Clone, Debug)]
struct Options {
    data: String,
    listen: String,
    config: ServerConfig,
}

fn usage() -> &'static str {
    // One literal per line: a `\n\` continuation would strip the indentation.
    concat!(
        "usage: gup-serve --data <file> [options]\n",
        "options:\n",
        "  --listen <addr>     address to bind (default: 127.0.0.1:7878; port 0 = ephemeral)\n",
        "  --workers <n>       search worker threads (default: 4)\n",
        "  --queue <n>         waiting-job capacity before requests get 'busy' (default: 16)\n",
        "  --timeout-ms <n>    default per-request time budget in milliseconds, must be\n",
        "                      positive (default: none; requests may set their own)\n",
        "  --threads <n>       default GuP threads per query (default: 1)\n",
        "  --cache <n>         result-cache capacity in entries (default: 1024; 0 disables)\n",
        "  --help              show this message",
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        data: String::new(),
        listen: "127.0.0.1:7878".to_string(),
        config: ServerConfig::default(),
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--data" => {
                i += 1;
                opts.data = args.get(i).cloned().ok_or("--data needs a path")?;
            }
            "--listen" => {
                i += 1;
                opts.listen = args.get(i).cloned().ok_or("--listen needs an address")?;
            }
            "--workers" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--workers needs an integer")?;
                if n == 0 {
                    return Err("--workers must be positive".to_string());
                }
                opts.config.workers = n;
            }
            "--queue" => {
                i += 1;
                opts.config.queue_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--queue needs an integer")?;
            }
            "--timeout-ms" => {
                i += 1;
                let n: u64 = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--timeout-ms needs an integer")?;
                if n == 0 {
                    return Err(
                        "--timeout-ms must be positive (omit it for no default budget)".to_string(),
                    );
                }
                opts.config.default_timeout = Some(Duration::from_millis(n));
            }
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--threads needs an integer")?;
                if n == 0 {
                    return Err("--threads must be positive".to_string());
                }
                opts.config.query_threads = n;
            }
            "--cache" => {
                i += 1;
                opts.config.result_cache = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--cache needs an integer")?;
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    if opts.data.is_empty() {
        return Err("missing --data".to_string());
    }
    Ok(opts)
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
    let prepared = match load_graph(&opts.data).map(PreparedData::try_new) {
        Ok(Ok(prepared)) => prepared,
        Ok(Err(e)) => {
            eprintln!("error: cannot prepare data graph {}: {e}", opts.data);
            return ExitCode::from(1);
        }
        Err(e) => {
            eprintln!("error: cannot load data graph {}: {e}", opts.data);
            return ExitCode::from(1);
        }
    };
    let session = Session::from_prepared(std::sync::Arc::new(prepared));
    eprintln!(
        "data graph: {} vertices, {} edges, {} labels; prepared in {:?} ({} index bytes)",
        session.data().vertex_count(),
        session.data().edge_count(),
        session.data().label_count(),
        session.prep_time(),
        session.prepared().index_bytes()
    );
    let server = match Server::bind(opts.listen.as_str(), opts.config, session) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.listen);
            return ExitCode::from(1);
        }
    };
    // Tests and scripts read the bound address from this line (port 0 binds).
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: server failed: {e}");
            ExitCode::from(1)
        }
    }
}
