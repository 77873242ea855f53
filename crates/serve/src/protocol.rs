//! The line-delimited wire protocol.
//!
//! Command grammar (one line, space-separated, case-sensitive):
//!
//! ```text
//! query count [timeout-ms <n>] [engine <name>] [threads <n>] [limit <n>]
//! query first <k> [timeout-ms <n>] [engine <name>] [threads <n>] [limit <n>]
//! reload
//! watch
//! unwatch <id>
//! delta
//! healthz
//! stats
//! quit
//! shutdown
//! ```
//!
//! `query`, `reload`, and `watch` are followed by a graph in the community
//! `t/v/e` text format, terminated by a line containing only `end`. Its `t`
//! header is checked before anything is allocated: more edges than a simple
//! graph on the declared vertices has, or (for `query` and `watch`) more than
//! [`gup_graph::MAX_QUERY_VERTICES`] vertices, answers `err bad graph: …`.
//!
//! `delta` is followed by a *delta body*: one mutation per line, terminated by
//! a line containing only `end`:
//!
//! ```text
//! av <label>       # add a vertex with the given label
//! ae <a> <b>       # add the undirected edge {a, b}
//! de <a> <b>       # delete the undirected edge {a, b}
//! ```
//!
//! `watch` registers the graph body as a standing query for this connection and
//! answers `ok watch id=<id>`; from then on, every applied `delta` (from any
//! connection) pushes one `match id=<id> v0 v1 …` line per *new* embedding the
//! batch created for that query, before the mutating connection's own `ok
//! delta …` response. `unwatch <id>` stops the notifications.
//!
//! * `timeout-ms <n>` — per-request wall-clock budget, milliseconds, must be
//!   positive (a zero budget is a configuration error, not an instant timeout).
//! * `engine <name>` — `gup` (default), `plain`, `daf`, `gql`, `ri`, `join`, or
//!   `bruteforce` ([`Engine::wire_name`]).
//! * `threads <n>` — worker threads for the GuP engine (≥ 1). `threads 1` (the
//!   default) takes the server's default; the server caps either at the host's
//!   available parallelism, so no request line can start more OS threads than
//!   the host has cores. The thread count never changes an answer.
//! * `limit <n>` — stop after `n` embeddings; `0` removes the default cap.
//!
//! Each query option may appear at most once; a repeated key is an error (a
//! silent last-win would let `query count limit 5 limit 0` uncap the query).
//!
//! Responses are a single `ok key=value …`, `err <message>`, or `busy` line;
//! `query first` additionally streams `m v0 v1 …` lines (one embedding over the
//! original query-vertex ids per line) followed by `end`. A query's `ok` line is
//! `ok embeddings=<n> recursions=<n> time-us=<n> queue-us=<n> timed-out=<bool>`:
//! `time-us` is the worker's time on the query and `queue-us` the wait from
//! admission until a worker took it, both in microseconds.

use gup::session::Engine;
use gup_graph::delta::GraphDelta;
use std::time::Duration;

/// How much output a query request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutputMode {
    /// Count embeddings; no embedding crosses the wire.
    Count,
    /// Stream the first `k` embeddings back (`m …` lines), then stop.
    First(u64),
}

/// A parsed `query …` command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// Count vs. first-k.
    pub output: OutputMode,
    /// Per-request budget; `None` falls back to the server's default timeout.
    pub timeout: Option<Duration>,
    /// Engine family.
    pub engine: Engine,
    /// Worker threads for the GuP engine.
    pub threads: usize,
    /// Embedding cap: `None` keeps the session default, `Some(None)` removes it
    /// (`limit 0`), `Some(Some(n))` stops after `n`.
    pub limit: Option<Option<u64>>,
}

/// A parsed command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Command {
    /// Run one query against the current data graph.
    Query(QuerySpec),
    /// Replace the data graph (graph body follows).
    Reload,
    /// Register a standing query for this connection (graph body follows).
    Watch,
    /// Remove a standing query registered by this connection.
    Unwatch(u64),
    /// Mutate the live data graph (delta body follows).
    Delta,
    /// Liveness probe.
    Healthz,
    /// Counter snapshot.
    Stats,
    /// Close this connection.
    Quit,
    /// Stop the whole server (in-flight queries finish; new connections stop).
    Shutdown,
}

/// A malformed command line. The message is sent verbatim after `err `.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(message: impl Into<String>) -> ProtocolError {
    ProtocolError(message.into())
}

/// Parses an engine name as it appears on the wire ([`Engine::wire_name`]).
pub fn parse_engine(name: &str) -> Result<Engine, ProtocolError> {
    Engine::from_wire_name(name).ok_or_else(|| {
        let names: Vec<&str> = Engine::ALL.iter().map(|e| e.wire_name()).collect();
        err(format!(
            "unknown engine '{name}' (expected {})",
            names.join(", ")
        ))
    })
}

/// Parses one command line. Graph bodies (for `query`/`reload`) are read
/// separately by the connection loop.
pub fn parse_command(line: &str) -> Result<Command, ProtocolError> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("query") => parse_query(words).map(Command::Query),
        Some("reload") => expect_bare(words, "reload", Command::Reload),
        Some("watch") => expect_bare(words, "watch", Command::Watch),
        Some("unwatch") => parse_unwatch(words),
        Some("delta") => expect_bare(words, "delta", Command::Delta),
        Some("healthz") => expect_bare(words, "healthz", Command::Healthz),
        Some("stats") => expect_bare(words, "stats", Command::Stats),
        Some("quit") => expect_bare(words, "quit", Command::Quit),
        Some("shutdown") => expect_bare(words, "shutdown", Command::Shutdown),
        Some(other) => Err(err(format!(
            "unknown command '{other}' (expected query, reload, watch, unwatch, delta, healthz, stats, quit, shutdown)"
        ))),
        None => Err(err("empty command")),
    }
}

fn expect_bare<'a>(
    mut words: impl Iterator<Item = &'a str>,
    name: &str,
    command: Command,
) -> Result<Command, ProtocolError> {
    match words.next() {
        None => Ok(command),
        Some(extra) => Err(err(format!("{name} takes no arguments (got '{extra}')"))),
    }
}

fn parse_unwatch<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<Command, ProtocolError> {
    let id = words.next().ok_or_else(|| err("unwatch needs an id"))?;
    let id: u64 = id
        .parse()
        .map_err(|_| err(format!("unwatch needs an integer id, got '{id}'")))?;
    match words.next() {
        None => Ok(Command::Unwatch(id)),
        Some(extra) => Err(err(format!("unwatch takes one id (got extra '{extra}')"))),
    }
}

/// Parses a `delta` body (the lines between the `delta` command and its `end`
/// terminator): `av <label>`, `ae <a> <b>`, `de <a> <b>`, one per line. Blank
/// lines are skipped; anything else is an error naming the line. Semantic
/// validation (unknown endpoints, duplicate edges, …) happens later, in
/// [`gup_graph::delta`] — this only rejects lines that don't scan.
pub fn parse_delta_body(body: &str) -> Result<Vec<GraphDelta>, ProtocolError> {
    let mut deltas = Vec::new();
    for (i, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let op = words.next().unwrap_or("");
        let mut next_u32 = |what: &str| -> Result<u32, ProtocolError> {
            let token = words
                .next()
                .ok_or_else(|| err(format!("delta line {}: {op} needs {what}", i + 1)))?;
            token.parse().map_err(|_| {
                err(format!(
                    "delta line {}: {op} needs an integer {what}, got '{token}'",
                    i + 1
                ))
            })
        };
        let delta = match op {
            "av" => GraphDelta::AddVertex {
                label: next_u32("a label")?,
            },
            "ae" => GraphDelta::AddEdge {
                a: next_u32("two endpoints")?,
                b: next_u32("two endpoints")?,
            },
            "de" => GraphDelta::RemoveEdge {
                a: next_u32("two endpoints")?,
                b: next_u32("two endpoints")?,
            },
            other => {
                return Err(err(format!(
                    "delta line {}: unknown op '{other}' (expected av, ae, de)",
                    i + 1
                )))
            }
        };
        if let Some(extra) = words.next() {
            return Err(err(format!(
                "delta line {}: trailing '{extra}' after {op}",
                i + 1
            )));
        }
        deltas.push(delta);
    }
    Ok(deltas)
}

fn parse_query<'a>(mut words: impl Iterator<Item = &'a str>) -> Result<QuerySpec, ProtocolError> {
    let output = match words.next() {
        Some("count") => OutputMode::Count,
        Some("first") => {
            let k = words
                .next()
                .ok_or_else(|| err("query first needs a count"))?;
            let k: u64 = k
                .parse()
                .map_err(|_| err(format!("query first needs an integer count, got '{k}'")))?;
            if k == 0 {
                return Err(err("query first needs a positive count"));
            }
            OutputMode::First(k)
        }
        Some(other) => {
            return Err(err(format!(
                "query needs a mode: count or first <k> (got '{other}')"
            )))
        }
        None => return Err(err("query needs a mode: count or first <k>")),
    };
    let mut spec = QuerySpec {
        output,
        timeout: None,
        engine: Engine::Gup,
        threads: 1,
        limit: None,
    };
    // Each option may appear at most once: letting a repeated key win silently
    // meant `query count limit 5 limit 0` uncapped the query.
    let mut seen: Vec<&str> = Vec::new();
    while let Some(key) = words.next() {
        if seen.contains(&key) {
            return Err(err(format!("repeated query option '{key}'")));
        }
        seen.push(key);
        let value = words
            .next()
            .ok_or_else(|| err(format!("option '{key}' needs a value")))?;
        match key {
            "timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| err(format!("timeout-ms needs an integer, got '{value}'")))?;
                if ms == 0 {
                    return Err(err("timeout-ms must be positive"));
                }
                spec.timeout = Some(Duration::from_millis(ms));
            }
            "engine" => spec.engine = parse_engine(value)?,
            "threads" => {
                let threads: usize = value
                    .parse()
                    .map_err(|_| err(format!("threads needs an integer, got '{value}'")))?;
                if threads == 0 {
                    return Err(err("threads must be positive"));
                }
                spec.threads = threads;
            }
            "limit" => {
                let limit: u64 = value
                    .parse()
                    .map_err(|_| err(format!("limit needs an integer, got '{value}'")))?;
                spec.limit = Some(if limit == 0 { None } else { Some(limit) });
            }
            other => return Err(err(format!("unknown query option '{other}'"))),
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_commands_parse() {
        assert_eq!(parse_command("healthz").unwrap(), Command::Healthz);
        assert_eq!(parse_command("stats").unwrap(), Command::Stats);
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
        assert_eq!(parse_command("shutdown").unwrap(), Command::Shutdown);
        assert_eq!(parse_command("reload").unwrap(), Command::Reload);
        assert_eq!(parse_command("watch").unwrap(), Command::Watch);
        assert_eq!(parse_command("delta").unwrap(), Command::Delta);
        assert!(parse_command("healthz now").is_err());
        assert!(parse_command("watch closely").is_err());
        assert!(parse_command("delta now").is_err());
    }

    #[test]
    fn unwatch_takes_one_id() {
        assert_eq!(parse_command("unwatch 7").unwrap(), Command::Unwatch(7));
        assert!(parse_command("unwatch").is_err());
        assert!(parse_command("unwatch seven").is_err());
        assert!(parse_command("unwatch 7 8").is_err());
    }

    #[test]
    fn delta_bodies_parse() {
        let deltas = parse_delta_body("av 3\n\nae 0 5\nde 1 2\n").unwrap();
        assert_eq!(
            deltas,
            vec![
                GraphDelta::AddVertex { label: 3 },
                GraphDelta::AddEdge { a: 0, b: 5 },
                GraphDelta::RemoveEdge { a: 1, b: 2 },
            ]
        );
        assert!(parse_delta_body("").unwrap().is_empty());
    }

    #[test]
    fn malformed_delta_bodies_name_the_line() {
        for (body, needle) in [
            ("av\n", "line 1"),
            ("ae 0\n", "line 1"),
            ("av 1\nde 0 x\n", "line 2"),
            ("xx 0 1\n", "unknown op 'xx'"),
            ("ae 0 1 2\n", "trailing '2'"),
        ] {
            let e = parse_delta_body(body).unwrap_err();
            assert!(e.0.contains(needle), "{body:?}: {e}");
        }
    }

    #[test]
    fn query_count_defaults() {
        let Command::Query(spec) = parse_command("query count").unwrap() else {
            panic!("expected a query");
        };
        assert_eq!(spec.output, OutputMode::Count);
        assert_eq!(spec.timeout, None);
        assert_eq!(spec.engine, Engine::Gup);
        assert_eq!(spec.threads, 1);
        assert_eq!(spec.limit, None);
    }

    #[test]
    fn query_options_parse() {
        let Command::Query(spec) =
            parse_command("query first 5 timeout-ms 250 engine daf threads 4 limit 100").unwrap()
        else {
            panic!("expected a query");
        };
        assert_eq!(spec.output, OutputMode::First(5));
        assert_eq!(spec.timeout, Some(Duration::from_millis(250)));
        assert_eq!(spec.engine, Engine::Daf);
        assert_eq!(spec.threads, 4);
        assert_eq!(spec.limit, Some(Some(100)));
        let Command::Query(spec) = parse_command("query count limit 0").unwrap() else {
            panic!("expected a query");
        };
        assert_eq!(spec.limit, Some(None));
    }

    #[test]
    fn zero_timeout_is_rejected() {
        let e = parse_command("query count timeout-ms 0").unwrap_err();
        assert!(e.0.contains("positive"), "{e}");
    }

    #[test]
    fn malformed_lines_are_rejected_with_context() {
        assert!(parse_command("").is_err());
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("query").is_err());
        assert!(parse_command("query first").is_err());
        assert!(parse_command("query first 0").is_err());
        assert!(parse_command("query first nope").is_err());
        assert!(parse_command("query count timeout-ms").is_err());
        assert!(parse_command("query count timeout-ms soon").is_err());
        assert!(parse_command("query count engine volcano").is_err());
        assert!(parse_command("query count threads 0").is_err());
        assert!(parse_command("query count verbosity 3").is_err());
    }

    #[test]
    fn repeated_options_are_rejected() {
        // Pre-fix, the second occurrence silently won: `limit 5 limit 0` uncapped.
        let e = parse_command("query count limit 5 limit 0").unwrap_err();
        assert!(e.0.contains("repeated query option 'limit'"), "{e}");
        for line in [
            "query count timeout-ms 10 timeout-ms 20",
            "query count engine gup engine daf",
            "query first 3 threads 2 threads 4",
            "query count limit 1 engine daf limit 2",
        ] {
            let e = parse_command(line).unwrap_err();
            assert!(e.0.contains("repeated query option"), "{line}: {e}");
        }
        // Distinct options remain fine in any order.
        assert!(parse_command("query count limit 5 engine daf timeout-ms 10 threads 2").is_ok());
    }

    #[test]
    fn every_engine_name_round_trips() {
        for (name, engine) in [
            ("gup", Engine::Gup),
            ("plain", Engine::Plain),
            ("daf", Engine::Daf),
            ("gql", Engine::Gql),
            ("ri", Engine::Ri),
            ("join", Engine::Join),
            ("bruteforce", Engine::BruteForce),
        ] {
            assert_eq!(parse_engine(name).unwrap(), engine);
        }
        assert!(parse_engine("gup2").is_err());
    }
}
