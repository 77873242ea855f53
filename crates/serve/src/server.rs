//! The server: accept loop, admission control, worker pool, reload.
//!
//! Concurrency model (all `std`, no async runtime):
//!
//! * One **accept loop** spawns a thread per connection. Connection threads do
//!   only cheap work: parse lines, admit jobs, write responses.
//! * A **bounded job queue** (`std::sync::mpsc::sync_channel`) sits between the
//!   connections and a fixed pool of **worker threads** that run the actual
//!   searches. Admission is a non-blocking `try_send`: a full queue answers
//!   `busy` immediately — backpressure the client can see — instead of queueing
//!   unboundedly.
//! * At admission the connection thread stamps the request's **absolute
//!   deadline** and clones the current [`Session`] out of the shared slot. The
//!   clone pins the `Arc` of the prepared index, so a concurrent `reload`
//!   (which swaps the slot under a short write lock) never drops an in-flight
//!   query: old queries finish on the old graph, new admissions see the new one.
//! * [`SessionCounters`] are threaded through every reload, so `stats` reports
//!   running totals for the server's lifetime, not since the last reload.

use gup::session::{
    CounterSnapshot, QueryOutcome, Session, SessionCounters, DEFAULT_CACHE_CAPACITY,
};
use gup_graph::deadline::{deadline_after, Stopwatch};
use gup_graph::delta::GraphDelta;
use gup_graph::io::{graph_to_string, parse_graph, parse_query_graph, GraphParseError};
use gup_graph::sink::CollectAll;
use gup_graph::{Graph, PreparedData};
use gup_stream::{collect_new_matches, QueryPlan};
use parking_lot::{Mutex as PlMutex, RwLock};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::protocol::{parse_command, parse_delta_body, Command, OutputMode, QuerySpec};

/// A connection's output half. Shared (and internally locked) because a
/// `delta` applied on *any* connection pushes `match …` notification lines to
/// every watching connection; the lock keeps pushed lines and regular replies
/// from interleaving mid-line.
type SharedWriter = Arc<PlMutex<BufWriter<TcpStream>>>;

/// One standing query: the registering connection's id for it, its compiled
/// plan, and the connection's writer to push new-match lines into.
struct Watcher {
    id: u64,
    plan: QueryPlan,
    writer: SharedWriter,
}

/// Server tunables. The defaults suit tests and small deployments; the binary
/// exposes each as a flag.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads executing searches.
    pub workers: usize,
    /// Jobs that may wait beyond the ones being executed; `try_send` past this
    /// answers `busy`.
    pub queue_capacity: usize,
    /// Budget applied to requests that do not carry their own `timeout-ms`.
    pub default_timeout: Option<Duration>,
    /// Default GuP worker threads per query (overridden per request). Both this
    /// default and a request's `threads` are capped at the host's available
    /// parallelism.
    pub query_threads: usize,
    /// Entry capacity of the session result cache (`0` disables caching). The
    /// cache memoizes count/first-k answers per data graph; `reload`
    /// invalidates it, and `stats` reports its hit/miss counters.
    pub result_cache: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 16,
            default_timeout: None,
            query_threads: 1,
            result_cache: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// One admitted query: everything a worker needs, plus the rendezvous back to
/// the connection thread. The cloned `Session` pins the prepared index the
/// request was admitted against.
struct Job {
    session: Session,
    query: Graph,
    spec: QuerySpec,
    deadline: Option<Instant>,
    /// Started at admission; read when a worker dequeues the job.
    admitted: Stopwatch,
    reply: SyncSender<Reply>,
}

/// What a worker hands back to the connection thread.
struct Reply {
    result: Result<QueryOutcome, String>,
    /// From admission to dequeue.
    queued: Duration,
    /// Worker time, from dequeue to the finished result.
    elapsed: Duration,
}

/// State shared by the accept loop, connection threads, and workers.
struct Shared {
    session: RwLock<Session>,
    counters: Arc<SessionCounters>,
    config: ServerConfig,
    /// The host's available parallelism, read once at bind time: no query runs
    /// on more GuP worker threads than this ([`effective_query_threads`]).
    cores: usize,
    started: Stopwatch,
    reloads: AtomicU64,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    /// Standing queries across all connections (a connection's watches are
    /// dropped when it closes).
    watchers: PlMutex<Vec<Watcher>>,
    next_watch_id: AtomicU64,
    /// Serializes the session slot's read-modify-write mutations (`delta`
    /// applies on top of the session it read; two racing appliers — or an
    /// applier racing a `reload` — must not lose one another's writes).
    /// Queries are unaffected: they clone the slot under the read lock.
    mutation: PlMutex<()>,
}

/// A bound, not-yet-running match server. [`Server::run`] blocks until a client
/// sends `shutdown`.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    jobs: SyncSender<Job>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and prepares the worker
    /// pool over `session`'s data graph.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        config: ServerConfig,
        session: Session,
    ) -> std::io::Result<Server> {
        assert!(config.workers >= 1, "need at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let session = session.with_result_cache(config.result_cache);
        let counters = Arc::clone(session.counters());
        let shared = Arc::new(Shared {
            session: RwLock::new(session),
            counters,
            config,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            started: Stopwatch::started(),
            reloads: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            local_addr,
            watchers: PlMutex::new(Vec::new()),
            next_watch_id: AtomicU64::new(0),
            mutation: PlMutex::new(()),
        });
        let (jobs, receiver) = mpsc::sync_channel::<Job>(config.queue_capacity);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..config.workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gup-serve-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &shared.shutdown))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        Ok(Server {
            listener,
            shared,
            jobs,
            workers,
        })
    }

    /// The bound address (read this for the actual port when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Serves until a client sends `shutdown`. Each connection gets its own
    /// thread; this thread only accepts.
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue,
            };
            let shared = Arc::clone(&self.shared);
            let jobs = self.jobs.clone();
            let _ = std::thread::Builder::new()
                .name("gup-serve-conn".to_string())
                // gup-lint: allow(admission_discipline) one thread per connection is the documented design; per-request work is admitted via the bounded job queue, never spawned here
                .spawn(move || {
                    let _ = serve_connection(stream, &shared, &jobs);
                });
        }
        // Close our handle on the queue and wait for the workers to drain what
        // was admitted. Idle connections may still hold sender clones, which is
        // why the workers watch the shutdown flag rather than relying on the
        // channel disconnecting.
        drop(self.jobs);
        for worker in self.workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, shutdown: &AtomicBool) {
    loop {
        // Hold the lock only for the dequeue, not for the search. The timeout
        // exists solely so an idle worker re-checks the shutdown flag: a live
        // but idle connection keeps the channel connected forever.
        let job = {
            // A poisoned lock means a sibling worker panicked while dequeuing.
            // The receiver itself is still sound (dequeuing has no invariants a
            // panic could break mid-way), so recover it and keep serving rather
            // than letting one bad query wedge the whole pool.
            let receiver = receiver.lock().unwrap_or_else(|e| e.into_inner());
            // gup-lint: allow(guard_across_blocking) the pool shares one Receiver: the guard must be held to dequeue, the 50 ms timeout bounds the hold, and jobs never run under it
            match receiver.recv_timeout(Duration::from_millis(50)) {
                Ok(job) => Some(job),
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            }
        };
        let Some(job) = job else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        let queued = job.admitted.elapsed();
        let watch = Stopwatch::started();
        // A panicking search must not take the worker (and eventually the whole
        // pool) down with it: catch it and turn it into an `err` reply for the
        // one client whose query caused it.
        let result = catch_unwind(AssertUnwindSafe(|| execute(&job))).unwrap_or_else(|panic| {
            let message = panic_message(panic.as_ref());
            eprintln!("gup-serve: worker caught a panicking query: {message}");
            Err(format!("internal error: query panicked: {message}"))
        });
        let elapsed = watch.elapsed();
        // A disappeared client (closed connection) is not a worker error.
        let _ = job.reply.send(Reply {
            result,
            queued,
            elapsed,
        });
    }
}

/// Best-effort human-readable form of a caught panic payload (`panic!` with a
/// string literal or a formatted message covers practically all of std and this
/// workspace).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "opaque panic payload"
    }
}

/// Runs one admitted query on a worker thread.
fn execute(job: &Job) -> Result<QueryOutcome, String> {
    let mut request = job
        .session
        .query(&job.query)
        .method(job.spec.engine)
        .threads(job.spec.threads);
    match job.spec.limit {
        Some(Some(limit)) => request = request.limit(limit),
        Some(None) => request = request.unlimited(),
        None => {}
    }
    // The deadline was stamped at admission: queue time spends the budget too.
    // Applied after `unlimited()` (which clears all limits including this one).
    if let Some(deadline) = job.deadline {
        request = request.deadline(deadline);
    }
    // Both finishers below are the cache-aware ones: a repeated question is
    // answered from the session memo without running an engine.
    let outcome = match job.spec.output {
        OutputMode::Count => request.count_stats().map(|stats| QueryOutcome {
            stats,
            embeddings: Vec::new(),
        }),
        OutputMode::First(k) => request.first_k(k).run(),
    };
    outcome.map_err(|e| e.to_string())
}

/// GuP worker threads one query runs on: the request's `threads` when it asks
/// for more than one, else the server default, never more than the host's
/// `cores`. The cap keeps one request line from starting an unbounded number of
/// OS threads; the thread count never changes an answer.
fn effective_query_threads(requested: usize, default: usize, cores: usize) -> usize {
    let threads = if requested > 1 { requested } else { default };
    threads.clamp(1, cores.max(1))
}

/// Reads a command body, the lines up to an `end` line, and parses it with
/// `parse`; the error side is the message sent after `err `.
fn read_body<T>(
    reader: &mut impl BufRead,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> std::io::Result<Result<T, String>> {
    let mut body = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(Err("connection closed before 'end'".to_string()));
        }
        if line.trim() == "end" {
            break;
        }
        body.push_str(&line);
    }
    Ok(parse(&body))
}

fn bad_graph(e: GraphParseError) -> String {
    format!("bad graph: {e}")
}

/// Parses a `query` or `watch` body; its header is bounded by the query size
/// limit before anything is allocated.
fn parse_query(body: &str) -> Result<Graph, String> {
    parse_query_graph(body).map_err(bad_graph)
}

/// Writes one response line (or an error) and flushes, holding the writer lock
/// only for the write.
fn reply_line(writer: &SharedWriter, line: std::fmt::Arguments<'_>) -> std::io::Result<()> {
    let mut w = writer.lock();
    w.write_fmt(line)?;
    writeln!(w)?;
    w.flush()
}

fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    jobs: &SyncSender<Job>,
) -> std::io::Result<()> {
    // A `delta` answers in two writes, the `match` pushes and then the `ok`
    // line. With Nagle's algorithm on, a sender watching its own deltas gets
    // the `ok` only after its delayed ACK of the pushes (about 40 ms).
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer: SharedWriter = Arc::new(PlMutex::new(BufWriter::new(stream)));
    let mut my_watches: Vec<u64> = Vec::new();
    let result = connection_loop(&mut reader, &writer, shared, jobs, &mut my_watches);
    // However the connection ended, its standing queries go with it.
    if !my_watches.is_empty() {
        shared
            .watchers
            .lock()
            .retain(|w| !my_watches.contains(&w.id));
    }
    result
}

fn connection_loop(
    reader: &mut BufReader<TcpStream>,
    writer: &SharedWriter,
    shared: &Shared,
    jobs: &SyncSender<Job>,
    my_watches: &mut Vec<u64>,
) -> std::io::Result<()> {
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        if line.trim().is_empty() {
            continue;
        }
        let command = match parse_command(line.trim()) {
            Ok(command) => command,
            Err(e) => {
                reply_line(writer, format_args!("err {e}"))?;
                continue;
            }
        };
        match command {
            Command::Query(spec) => match read_body(reader, parse_query)? {
                Ok(query) => handle_query(spec, query, shared, jobs, writer)?,
                Err(msg) => reply_line(writer, format_args!("err {msg}"))?,
            },
            Command::Reload => match read_body(reader, |b| parse_graph(b).map_err(bad_graph))? {
                Ok(graph) => handle_reload(graph, shared, writer)?,
                Err(msg) => reply_line(writer, format_args!("err {msg}"))?,
            },
            Command::Watch => match read_body(reader, parse_query)? {
                Ok(query) => handle_watch(query, shared, writer, my_watches)?,
                Err(msg) => reply_line(writer, format_args!("err {msg}"))?,
            },
            Command::Unwatch(id) => {
                if let Some(at) = my_watches.iter().position(|&w| w == id) {
                    my_watches.remove(at);
                    shared.watchers.lock().retain(|w| w.id != id);
                    reply_line(writer, format_args!("ok unwatch id={id}"))?;
                } else {
                    // Connection-scoped on purpose: one client must not be able
                    // to silence another client's standing queries.
                    reply_line(
                        writer,
                        format_args!("err no watch id={id} on this connection"),
                    )?;
                }
            }
            Command::Delta => {
                match read_body(reader, |b| parse_delta_body(b).map_err(|e| e.to_string()))? {
                    Ok(deltas) => handle_delta(&deltas, shared, writer)?,
                    Err(msg) => reply_line(writer, format_args!("err {msg}"))?,
                }
            }
            Command::Healthz => {
                reply_line(
                    writer,
                    format_args!(
                        "ok uptime-ms={} workers={} queue-capacity={}",
                        shared.started.elapsed().as_millis(),
                        shared.config.workers,
                        shared.config.queue_capacity
                    ),
                )?;
            }
            Command::Stats => {
                let CounterSnapshot {
                    queries_started,
                    queries_ok,
                    queries_failed,
                    queries_timed_out,
                    embeddings_reported,
                    cache_hits,
                    cache_misses,
                    cache_invalidations,
                    deltas_applied,
                    incremental_matches,
                } = shared.counters.snapshot();
                let watchers = shared.watchers.lock().len();
                reply_line(
                    writer,
                    format_args!(
                        "ok queries={queries_started} completed={queries_ok} \
                         failed={queries_failed} timed-out={queries_timed_out} \
                         embeddings={embeddings_reported} cache-hits={cache_hits} \
                         cache-misses={cache_misses} cache-invalidations={cache_invalidations} \
                         deltas={deltas_applied} incremental-matches={incremental_matches} \
                         watchers={watchers} reloads={} uptime-ms={}",
                        // Relaxed: a monotonically increasing stats counter read for
                        // display only — no other memory is published through it.
                        shared.reloads.load(Ordering::Relaxed),
                        shared.started.elapsed().as_millis()
                    ),
                )?;
            }
            Command::Quit => {
                reply_line(writer, format_args!("ok bye"))?;
                return Ok(());
            }
            Command::Shutdown => {
                reply_line(writer, format_args!("ok shutting down"))?;
                shared.shutdown.store(true, Ordering::SeqCst);
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(shared.local_addr);
                return Ok(());
            }
        }
    }
}

fn handle_watch(
    query: Graph,
    shared: &Shared,
    writer: &SharedWriter,
    my_watches: &mut Vec<u64>,
) -> std::io::Result<()> {
    match QueryPlan::new(&query) {
        Err(e) => reply_line(writer, format_args!("err bad standing query: {e}")),
        Ok(plan) => {
            // Relaxed: the fetch_add's atomicity alone guarantees unique ids;
            // no other memory is published through this counter.
            let id = shared.next_watch_id.fetch_add(1, Ordering::Relaxed);
            shared.watchers.lock().push(Watcher {
                id,
                plan,
                writer: Arc::clone(writer),
            });
            my_watches.push(id);
            reply_line(writer, format_args!("ok watch id={id}"))
        }
    }
}

fn handle_delta(
    deltas: &[GraphDelta],
    shared: &Shared,
    writer: &SharedWriter,
) -> std::io::Result<()> {
    // Serialize with other deltas and reloads (see `Shared::mutation`); held
    // through notification so watchers see batches in application order.
    let _mutation = shared.mutation.lock();
    let session = shared.session.read().clone();
    let (next, effects) = match session.apply_deltas(deltas) {
        Ok(applied) => applied,
        Err(e) => return reply_line(writer, format_args!("err bad delta: {e}")),
    };
    *shared.session.write() = next.clone();
    // Delta-localized search per standing query, one `match` line per new
    // embedding. The match lines are rendered under the watchers lock (the
    // registry must not change mid-scan) but pushed to the sockets only after
    // it is released: a watcher that stops reading fills its TCP buffer and
    // blocks the push, and holding the registry lock across that write would
    // wedge every connection trying to watch/unwatch or read `stats`.
    let mut total = 0u64;
    let mut pushes: Vec<(SharedWriter, String)> = Vec::new();
    {
        let watchers = shared.watchers.lock();
        for watcher in watchers.iter() {
            let mut sink = CollectAll::new();
            let n = collect_new_matches(next.prepared(), &effects, &watcher.plan, &mut sink);
            total += n;
            if n == 0 {
                continue;
            }
            let mut lines = String::new();
            for embedding in sink.into_embeddings() {
                lines.push_str("match id=");
                lines.push_str(&watcher.id.to_string());
                for v in &embedding {
                    lines.push(' ');
                    lines.push_str(&v.to_string());
                }
                lines.push('\n');
            }
            pushes.push((Arc::clone(&watcher.writer), lines));
        }
    }
    // Push errors mean that client hung up; its watches are removed when its
    // connection thread notices.
    for (writer, lines) in pushes {
        let mut w = writer.lock();
        // gup-lint: allow(guard_across_blocking) mutation is held through the push by design (watchers see batches in application order); the watchers lock is already released, so a stalled watcher cannot wedge other connections
        let _ = w.write_all(lines.as_bytes()).and_then(|()| w.flush());
    }
    next.counters().record_incremental_matches(total);
    let graph = next.data();
    reply_line(
        writer,
        format_args!(
            "ok delta applied={} vertices={} edges={} inserted={} removed={} new-matches={total}",
            deltas.len(),
            graph.vertex_count(),
            graph.edge_count(),
            effects.inserted_edges.len(),
            effects.removed_edges.len(),
        ),
    )
}

fn handle_query(
    spec: QuerySpec,
    query: Graph,
    shared: &Shared,
    jobs: &SyncSender<Job>,
    writer: &SharedWriter,
) -> std::io::Result<()> {
    // Admission: stamp the deadline and pin the current index *now* — both the
    // wait in the queue and a concurrent reload are this request's problem to
    // survive, not to be confused by.
    let admitted = Stopwatch::started();
    let deadline = spec
        .timeout
        .or(shared.config.default_timeout)
        .map(deadline_after);
    let session = shared.session.read().clone();
    let spec = QuerySpec {
        threads: effective_query_threads(spec.threads, shared.config.query_threads, shared.cores),
        ..spec
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Reply>(1);
    let job = Job {
        session,
        query,
        spec,
        deadline,
        admitted,
        reply: reply_tx,
    };
    if let Err(refused) = jobs.try_send(job) {
        match refused {
            TrySendError::Full(_) => reply_line(writer, format_args!("busy"))?,
            TrySendError::Disconnected(_) => {
                reply_line(writer, format_args!("err server shutting down"))?
            }
        }
        return Ok(());
    }
    // Block on the worker *without* holding the writer lock: a concurrent
    // `delta` may want to push notification lines to this connection meanwhile.
    let Ok(reply) = reply_rx.recv() else {
        return reply_line(writer, format_args!("err server shutting down"));
    };
    match reply.result {
        Ok(QueryOutcome { stats, embeddings }) => {
            // One lock over the whole response block keeps the `ok` line, the
            // `m` lines, and the `end` terminator contiguous on the wire.
            let mut w = writer.lock();
            writeln!(
                w,
                "ok embeddings={} recursions={} time-us={} queue-us={} timed-out={}",
                stats.embeddings,
                stats.recursions,
                reply.elapsed.as_micros(),
                reply.queued.as_micros(),
                stats.hit_time_limit
            )?;
            if matches!(spec.output, OutputMode::First(_)) {
                for embedding in &embeddings {
                    write!(w, "m")?;
                    for v in embedding {
                        write!(w, " {v}")?;
                    }
                    writeln!(w)?;
                }
                writeln!(w, "end")?;
            }
            w.flush()
        }
        Err(message) => reply_line(writer, format_args!("err {message}")),
    }
}

fn handle_reload(graph: Graph, shared: &Shared, writer: &SharedWriter) -> std::io::Result<()> {
    let vertices = graph.vertex_count();
    let edges = graph.edge_count();
    // Prepare the new index *outside* the lock; queries keep admitting against
    // the old graph while this builds. Standing queries survive a reload: from
    // here on their deltas match against the replacement graph.
    let prepared = match PreparedData::try_new(graph) {
        Ok(prepared) => prepared,
        Err(e) => return reply_line(writer, format_args!("err bad graph: {e}")),
    };
    let session = Session::from_prepared(Arc::new(prepared))
        .with_counters(Arc::clone(&shared.counters))
        .with_result_cache(shared.config.result_cache);
    let prep = session.prep_time();
    // Serialize the swap with `delta` appliers (see `Shared::mutation`).
    let outgoing = {
        let _mutation = shared.mutation.lock();
        std::mem::replace(&mut *shared.session.write(), session)
    };
    // The new session starts with an empty memo; explicitly invalidate the
    // outgoing one too, so in-flight clones that pinned the old graph cannot
    // serve hits for answers the reload just obsoleted.
    outgoing.invalidate_cache();
    // Relaxed: a stats counter; the reload itself is published by the RwLock
    // above, the count is only ever displayed.
    shared.reloads.fetch_add(1, Ordering::Relaxed);
    reply_line(
        writer,
        format_args!(
            "ok reloaded vertices={vertices} edges={edges} prep-ms={}",
            prep.as_millis()
        ),
    )
}

/// Client-side helper used by tests and the load harness: renders a graph in
/// the wire's body form (`t/v/e` lines terminated by `end`).
pub fn graph_body(graph: &Graph) -> String {
    let mut body = graph_to_string(graph);
    if !body.ends_with('\n') {
        body.push('\n');
    }
    body.push_str("end\n");
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::fixtures;

    fn test_server(config: ServerConfig) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let (_query, data) = fixtures::paper_example();
        let server = Server::bind("127.0.0.1:0", config, Session::new(data)).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn send(addr: SocketAddr, script: &str) -> Vec<String> {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        writer.write_all(script.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut lines = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            lines.push(line.trim_end().to_string());
        }
        lines
    }

    #[test]
    fn query_count_and_shutdown_round_trip() {
        let (addr, handle) = test_server(ServerConfig::default());
        let (query, _data) = fixtures::paper_example();
        let script = format!("query count\n{}quit\n", graph_body(&query));
        let lines = send(addr, &script);
        assert!(
            lines[0].starts_with("ok embeddings=4 recursions=")
                && lines[0].ends_with("timed-out=false"),
            "{}",
            lines[0]
        );
        assert_eq!(lines[1], "ok bye");
        let lines = send(addr, "shutdown\n");
        assert_eq!(lines[0], "ok shutting down");
        handle.join().unwrap();
    }

    #[test]
    fn first_k_streams_embeddings() {
        let (addr, handle) = test_server(ServerConfig::default());
        let (query, _data) = fixtures::paper_example();
        let script = format!("query first 2\n{}quit\n", graph_body(&query));
        let lines = send(addr, &script);
        assert!(lines[0].starts_with("ok embeddings=2 "), "{}", lines[0]);
        assert!(lines[1].starts_with("m ") && lines[2].starts_with("m "));
        assert_eq!(
            lines[1].split_whitespace().count(),
            query.vertex_count() + 1
        );
        assert_eq!(lines[3], "end");
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    #[test]
    fn protocol_errors_keep_the_connection_alive() {
        let (addr, handle) = test_server(ServerConfig::default());
        let lines = send(addr, "nonsense\nquery count timeout-ms 0\nhealthz\nquit\n");
        assert!(lines[0].starts_with("err unknown command"), "{}", lines[0]);
        assert!(lines[1].starts_with("err timeout-ms must be positive"));
        assert!(lines[2].starts_with("ok uptime-ms="));
        assert_eq!(lines[3], "ok bye");
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    #[test]
    fn watch_delta_round_trip_pushes_matches() {
        let (addr, handle) = test_server(ServerConfig::default());
        // Stand up a triangle query on a path graph, then close the triangle.
        let data = gup_graph::builder::graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]);
        let triangle = gup_graph::builder::graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (0, 2)]);
        let script = format!(
            "reload\n{}watch\n{}delta\nae 0 2\nend\nstats\nquit\n",
            graph_body(&data),
            graph_body(&triangle)
        );
        let lines = send(addr, &script);
        assert!(lines[0].starts_with("ok reloaded"), "{}", lines[0]);
        assert_eq!(lines[1], "ok watch id=0");
        // The watcher is this same connection: both new triangle embeddings
        // arrive as pushed `match` lines before the delta's own reply.
        assert_eq!(lines[2], "match id=0 0 1 2");
        assert_eq!(lines[3], "match id=0 2 1 0");
        assert_eq!(
            lines[4],
            "ok delta applied=1 vertices=3 edges=3 inserted=1 removed=0 new-matches=2"
        );
        assert!(
            lines[5].contains("deltas=1")
                && lines[5].contains("incremental-matches=2")
                && lines[5].contains("watchers=1")
                && lines[5].contains("cache-invalidations="),
            "{}",
            lines[5]
        );
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    #[test]
    fn bad_deltas_and_unwatch_errors_keep_the_connection() {
        let (addr, handle) = test_server(ServerConfig::default());
        let lines = send(
            addr,
            "delta\nae 0 0\nend\ndelta\nxe 1 2\nend\nunwatch 99\nquit\n",
        );
        assert!(lines[0].starts_with("err bad delta"), "{}", lines[0]);
        assert!(lines[1].starts_with("err delta line 1"), "{}", lines[1]);
        assert!(lines[2].starts_with("err no watch id=99"), "{}", lines[2]);
        assert_eq!(lines[3], "ok bye");
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    #[test]
    fn unwatch_silences_and_queries_see_the_mutated_graph() {
        let (addr, handle) = test_server(ServerConfig::default());
        let edge = gup_graph::builder::graph_from_edges(&[0, 0], &[(0, 1)]);
        // paper_example data has 14 vertices; add two label-0 vertices (ids 14,
        // 15) and join them: the standing edge query fires, then is unwatched
        // and later deltas stay silent, while `query count` sees every mutation.
        let script = format!(
            "watch\n{body}delta\nav 0\nav 0\nend\ndelta\nae 14 15\nend\nunwatch 0\ndelta\nde 14 15\nend\ndelta\nae 14 15\nend\nquery count\n{body}quit\n",
            body = graph_body(&edge)
        );
        let lines = send(addr, &script);
        assert_eq!(lines[0], "ok watch id=0");
        assert!(lines[1].starts_with("ok delta applied=2"), "{}", lines[1]);
        assert_eq!(lines[2], "match id=0 14 15");
        assert_eq!(lines[3], "match id=0 15 14");
        assert!(
            lines[4].starts_with("ok delta applied=1") && lines[4].contains("new-matches=2"),
            "{}",
            lines[4]
        );
        assert_eq!(lines[5], "ok unwatch id=0");
        assert!(lines[6].contains("new-matches=0"), "{}", lines[6]);
        assert!(lines[7].contains("new-matches=0"), "{}", lines[7]);
        // The re-inserted edge is queryable: the count includes it.
        assert!(lines[8].starts_with("ok embeddings="), "{}", lines[8]);
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    #[test]
    fn stats_report_counters_and_reloads() {
        let (addr, handle) = test_server(ServerConfig::default());
        let (query, data) = fixtures::paper_example();
        let body = graph_body(&query);
        let script = format!(
            "query count\n{body}reload\n{}query count\n{body}stats\nquit\n",
            graph_body(&data)
        );
        let lines = send(addr, &script);
        assert!(lines[0].starts_with("ok embeddings=4"), "{}", lines[0]);
        assert!(
            lines[1].starts_with("ok reloaded vertices="),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("ok embeddings=4"), "{}", lines[2]);
        assert!(
            lines[3].contains("queries=2") && lines[3].contains("reloads=1"),
            "{}",
            lines[3]
        );
        send(addr, "shutdown\n");
        handle.join().unwrap();
    }

    /// The rule is pure, so it is checked without starting a single thread.
    #[test]
    fn query_threads_are_capped_at_the_host_parallelism() {
        // An oversized request runs on the core count, not a million threads.
        assert_eq!(effective_query_threads(1_000_000, 1, 8), 8);
        // `threads 1` (the wire default) falls back to the server default.
        assert_eq!(effective_query_threads(1, 3, 8), 3);
        // An oversized server default is capped too.
        assert_eq!(effective_query_threads(1, 64, 8), 8);
        // Requests within the cap are honored as sent.
        assert_eq!(effective_query_threads(4, 2, 8), 4);
    }
}
