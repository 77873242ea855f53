//! The serving side: an in-process `gup_serve::Server` loaded from index
//! bytes, a line-protocol client, the serve-stream traffic (a closed query
//! loop on one connection beside an open-loop delta stream on another), and
//! the library replay the wire results are checked against.

use crate::inputs::Inputs;
use crate::library::{LoopStats, Traffic};
use crate::measure::{repeat_setup, Samples};
use gup::session::Session;
use gup_graph::index_io::load_index_bytes;
use gup_graph::{Graph, GraphDelta};
use gup_serve::protocol::parse_delta_body;
use gup_serve::{Server, ServerConfig};
use gup_stream::ContinuousMatcher;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Gap between due times of the paced delta stream (20 batches per second).
pub const DELTA_GAP: Duration = Duration::from_millis(50);

/// Per-request budget of the query loop.
const QUERY_TIMEOUT_MS: u64 = 1000;

/// The query command every wire query uses.
pub fn query_header(limit: u64) -> String {
    format!("query count limit {limit} timeout-ms {QUERY_TIMEOUT_MS}")
}

/// One client connection speaking the line protocol.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends `command`, then `body` terminated by `end`, in one write.
    fn send(&mut self, command: &str, body: &str) -> io::Result<()> {
        let newline = if body.is_empty() || body.ends_with('\n') {
            ""
        } else {
            "\n"
        };
        let text = format!("{command}\n{body}{newline}end\n");
        self.writer.write_all(text.as_bytes())
    }

    /// Runs one `query count` and returns its reply line.
    pub fn query(&mut self, header: &str, body: &str) -> io::Result<String> {
        self.send(header, body)?;
        self.line()
    }

    /// Registers a standing query; `Err` unless the server answers `ok watch`.
    pub fn watch(&mut self, body: &str) -> io::Result<()> {
        self.send("watch", body)?;
        let reply = self.line()?;
        if reply.starts_with("ok watch") {
            Ok(())
        } else {
            Err(io::Error::other(format!("watch refused: {reply}")))
        }
    }

    /// Sends one delta batch and reads through its `ok delta` (or error)
    /// reply. Returns the reply and the number of `match` lines pushed to
    /// this connection before it.
    pub fn delta(&mut self, body: &str) -> io::Result<(String, u64)> {
        self.send("delta", body)?;
        let mut pushed = 0u64;
        loop {
            let line = self.line()?;
            if line.starts_with("match ") {
                pushed += 1;
            } else {
                return Ok((line, pushed));
            }
        }
    }

    pub fn stats(&mut self) -> io::Result<String> {
        self.writer.write_all(b"stats\n")?;
        self.line()
    }
}

/// The embedding count of an `ok embeddings=…` reply that did not time out.
pub fn reply_count(reply: &str) -> Option<u64> {
    if !reply.starts_with("ok ") || reply.contains("timed-out=true") {
        return None;
    }
    field(reply, "embeddings")
}

/// The integer value of `key=` in a reply line.
pub fn field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// A server accepting connections on its own thread.
pub struct Running {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

/// Loads the index from `bytes` and binds a 1-worker server over it with the
/// default result cache (the set-up cost), then starts it. With `repeat`, in
/// [`repeat_setup`] rounds whose times are returned; the last server runs.
pub fn start(bytes: &[u8], repeat: bool) -> io::Result<(Running, Samples)> {
    let round = || {
        let prepared = load_index_bytes(bytes).map_err(io::Error::other)?;
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        Server::bind(
            "127.0.0.1:0",
            config,
            Session::from_prepared(Arc::new(prepared)),
        )
    };
    let (server, times) = if repeat {
        repeat_setup(round)?
    } else {
        (round()?, Samples::default())
    };
    let addr = server.local_addr();
    let thread = std::thread::spawn(move || server.run());
    Ok((Running { addr, thread }, times))
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends `shutdown` and waits for the accept loop and workers to end.
    pub fn stop(self) -> io::Result<()> {
        let mut client = Client::connect(self.addr)?;
        client.writer.write_all(b"shutdown\n")?;
        client.line()?;
        drop(client);
        self.thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// What the serve-stream traffic saw.
#[derive(Default)]
pub struct StreamRun {
    pub traffic: Traffic,
    /// Batches of the cyclic delta script sent, from its start.
    pub sent: usize,
    /// `stats` reply after the traffic ended.
    pub stats: String,
}

/// Drives serve-stream traffic for `budget`. Connection R runs the closed
/// query loop over the inputs' queries; connection W watches the standing
/// queries and sends the cyclic delta script from its start on a fixed 20/s
/// schedule, each batch timed from its due time.
pub fn stream(
    addr: SocketAddr,
    inputs: &Inputs,
    limit: u64,
    budget: Duration,
) -> io::Result<StreamRun> {
    let (ready, watching) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || delta_stream(addr, inputs, budget, ready));
        let mut r = Client::connect(addr)?;
        // An error here means the delta connection failed before it started.
        watching
            .recv()
            .map_err(|_| io::Error::other("delta connection failed to start"))?;
        let (queries, pass_rates) =
            query_stream(&mut r, &inputs.queries, &query_header(limit), budget)?;
        let (deltas, sent) = writer
            .join()
            .map_err(|_| io::Error::other("delta thread panicked"))??;
        Ok(StreamRun {
            traffic: Traffic {
                queries,
                deltas,
                pass_rates,
            },
            sent,
            stats: r.stats()?,
        })
    })
}

/// Connection R: the closed query loop, with the completed-query rate of
/// every whole pass over the pool.
fn query_stream(
    r: &mut Client,
    queries: &[String],
    header: &str,
    budget: Duration,
) -> io::Result<(LoopStats, Samples)> {
    let mut out = LoopStats::default();
    let mut pass_rates = Samples::default();
    let start = Instant::now();
    let mut pass_start = start;
    let mut pass_failed = out.failed;
    let mut i = 0u64;
    while start.elapsed() < budget {
        let qi = (i % queries.len() as u64) as usize;
        if qi == 0 {
            pass_start = Instant::now();
            pass_failed = out.failed;
        }
        let body = &queries[qi];
        let t = Instant::now();
        let reply = r.query(header, body)?;
        out.latencies.push(t.elapsed());
        out.attempted += 1;
        if reply_count(&reply).is_none() {
            out.failed += 1;
        }
        if qi + 1 == queries.len() {
            let completed = queries.len() as u64 - (out.failed - pass_failed);
            pass_rates.push_value(completed as f64 / pass_start.elapsed().as_secs_f64());
        }
        i += 1;
    }
    out.elapsed = start.elapsed();
    if pass_rates.len() == 0 {
        // Shorter than one pass (smoke-size runs): rate over what ran.
        let completed = out.attempted - out.failed;
        pass_rates.push_value(completed as f64 / out.elapsed.as_secs_f64());
    }
    Ok((out, pass_rates))
}

/// Connection W: watches the standing queries, signals `ready`, then sends
/// the paced delta stream (an open loop) until `budget` is spent.
fn delta_stream(
    addr: SocketAddr,
    inputs: &Inputs,
    budget: Duration,
    ready: mpsc::Sender<()>,
) -> io::Result<(LoopStats, usize)> {
    let mut w = Client::connect(addr)?;
    for body in &inputs.standing {
        w.watch(body)?;
    }
    let _ = ready.send(());
    let mut out = LoopStats::default();
    let start = Instant::now();
    let mut sent = 0;
    for (j, body) in inputs.deltas.iter().cycle().enumerate() {
        let due = start + DELTA_GAP * j as u32;
        if due >= start + budget {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        out.late.push(Instant::now().saturating_duration_since(due));
        let (reply, pushed) = w.delta(body)?;
        out.latencies.push(Instant::now() - due);
        out.attempted += 1;
        if !reply.starts_with("ok delta") {
            out.failed += 1;
        }
        out.new_matches += pushed;
        sent += 1;
    }
    Ok((out, sent))
}

/// Sends every query once on `client` and returns the counts (`None` for a
/// failed or timed-out reply) with each round trip's latency.
pub fn wire_counts(
    client: &mut Client,
    queries: &[String],
    limit: u64,
) -> io::Result<(Vec<Option<u64>>, Samples)> {
    let header = query_header(limit);
    let mut latency = Samples::default();
    let mut counts = Vec::with_capacity(queries.len());
    for body in queries {
        let t = Instant::now();
        let reply = client.query(&header, body)?;
        latency.push(t.elapsed());
        counts.push(reply_count(&reply));
    }
    Ok((counts, latency))
}

/// One closed-loop pass over the wire: watch `standing`, send each delta
/// body, then count every query on the mutated graph. Returns the pushed
/// `match` lines, the final counts and both latency sets.
pub fn wire_pass(
    addr: SocketAddr,
    standing: &[String],
    deltas: &[String],
    queries: &[String],
    limit: u64,
) -> io::Result<Answers> {
    let mut client = Client::connect(addr)?;
    for body in standing {
        client.watch(body)?;
    }
    let mut out = Answers::default();
    for body in deltas {
        let t = Instant::now();
        let (reply, pushed) = client.delta(body)?;
        out.delta_latency.push(t.elapsed());
        if !reply.starts_with("ok delta") {
            return Err(io::Error::other(format!("delta refused: {reply}")));
        }
        out.new_matches += pushed;
    }
    (out.counts, out.query_latency) = wire_counts(&mut client, queries, limit)?;
    Ok(out)
}

/// Answers to "apply these deltas, then count these queries", from the wire
/// or from the library.
#[derive(Debug, Default)]
pub struct Answers {
    /// New matches reported for the standing queries across all deltas.
    pub new_matches: u64,
    /// Capped count of each query on the final graph.
    pub counts: Vec<Option<u64>>,
    /// Per-delta time in µs.
    pub delta_latency: Samples,
    /// Per-query time in µs.
    pub query_latency: Samples,
}

/// The library's answers for the same inputs: a `Session` over a fresh load
/// of `bytes`, a `ContinuousMatcher` with the same standing queries applying
/// the first `sent` bodies of the cyclic delta script in order (each timed
/// with its parse), then the capped count of every query on the result.
pub fn library_pass(
    bytes: &[u8],
    standing: &[Graph],
    deltas: &[String],
    sent: usize,
    queries: &[Graph],
    limit: u64,
) -> Answers {
    let prepared = load_index_bytes(bytes).expect("generated index bytes load");
    let mut matcher = ContinuousMatcher::new(Session::from_prepared(Arc::new(prepared)));
    for q in standing {
        matcher.register(q).expect("standing queries are valid");
    }
    let mut out = Answers::default();
    for body in deltas.iter().cycle().take(sent) {
        let t = Instant::now();
        let applied = parse_delta_body(body)
            .ok()
            .and_then(|d: Vec<GraphDelta>| matcher.apply(&d).ok());
        out.delta_latency.push(t.elapsed());
        out.new_matches += applied.map_or(0, |r| r.total_new_matches());
    }
    let session = matcher.session();
    for q in queries {
        let t = Instant::now();
        let count = session.query(q).limit(limit).count().ok();
        out.query_latency.push(t.elapsed());
        out.counts.push(count);
    }
    out
}

/// Appends to `mismatches` every way `wire` disagrees with `library`.
pub fn compare(what: &str, wire: &Answers, library: &Answers, mismatches: &mut Vec<String>) {
    if wire.new_matches != library.new_matches {
        mismatches.push(format!(
            "{what}: {} match lines pushed, ContinuousMatcher replay reports {}",
            wire.new_matches, library.new_matches
        ));
    }
    for (i, (w, l)) in wire.counts.iter().zip(&library.counts).enumerate() {
        if w != l || w.is_none() {
            mismatches.push(format!(
                "{what}: query {i} counted {w:?} on the wire, {l:?} in the library"
            ));
        }
    }
}
