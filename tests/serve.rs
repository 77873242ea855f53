//! End-to-end tests for the `gup-serve` binary: the real executable is spawned
//! on a real TCP port (port 0 → ephemeral) and exercised over the wire —
//! correctness against the oracle, concurrent clients, per-request timeouts,
//! backpressure (`busy`), graceful reload under in-flight queries, and the
//! `healthz`/`stats` endpoints.

use gup::session::Engine;
use gup_baselines::brute_force;
use gup_graph::builder::graph_from_edges;
use gup_graph::fixtures;
use gup_graph::io::save_graph;
use gup_graph::Graph;
use gup_serve::graph_body;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// A running `gup-serve` process. Killed on drop so a failing assertion cannot
/// leak servers; tests that finish cleanly shut it down over the wire instead.
struct ServerHandle {
    child: Child,
    addr: SocketAddr,
    dir: PathBuf,
}

impl ServerHandle {
    /// Writes `data` to disk, spawns the real binary on an ephemeral port with
    /// `extra_args`, and reads the bound address from its stdout.
    fn spawn(name: &str, data: &Graph, extra_args: &[&str]) -> ServerHandle {
        let dir = std::env::temp_dir().join(format!("gup_serve_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("data.graph");
        save_graph(data, &data_path).unwrap();
        let mut child = Command::new(env!("CARGO_BIN_EXE_gup-serve"))
            .args([
                "--data",
                data_path.to_str().unwrap(),
                "--listen",
                "127.0.0.1:0",
            ])
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("failed to spawn gup-serve");
        let stdout = child.stdout.take().unwrap();
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected startup line: {line:?}"))
            .parse()
            .unwrap();
        ServerHandle { child, addr, dir }
    }

    /// Sends `shutdown` and reaps the process.
    fn shutdown(mut self) {
        let mut client = Client::connect(self.addr);
        client.send("shutdown\n");
        assert_eq!(client.read_line(), "ok shutting down");
        self.child.wait().unwrap();
        std::fs::remove_dir_all(&self.dir).ok();
        std::mem::forget(self); // already reaped
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// One client connection; requests and responses are interleaved manually so
/// tests can hold queries open while other clients act.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        // A safety net only: every slow query in these tests carries its own
        // timeout-ms well below this.
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, text: &str) {
        self.writer.write_all(text.as_bytes()).unwrap();
        self.writer.flush().unwrap();
    }

    fn read_line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    /// Sends a query command plus graph body and returns the response lines:
    /// the `ok`/`err`/`busy` line, plus `m …`/`end` lines for `query first`.
    fn query(&mut self, command: &str, query: &Graph) -> String {
        self.send(&format!("{command}\n{}", graph_body(query)));
        self.read_line()
    }
}

fn field(line: &str, key: &str) -> u64 {
    let prefix = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {key}= in {line:?}"))
        .parse()
        .unwrap_or_else(|_| panic!("non-integer {key}= in {line:?}"))
}

/// A single-label complete graph: small on disk, astronomically many path
/// matches — any unlimited query against it runs until its deadline.
fn heavy_data() -> Graph {
    let n = 22u32;
    let labels = vec![0u32; n as usize];
    let mut edges = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            edges.push((a, b));
        }
    }
    graph_from_edges(&labels, &edges)
}

#[test]
fn counts_match_the_oracle_for_every_engine_over_the_wire() {
    let (query, data) = fixtures::paper_example();
    let expected = brute_force::count(&query, &data);
    let server = ServerHandle::spawn("engines", &data, &[]);
    let mut client = Client::connect(server.addr);
    for engine in Engine::ALL.map(Engine::wire_name) {
        let line = client.query(&format!("query count engine {engine} limit 0"), &query);
        assert!(line.starts_with("ok "), "engine {engine}: {line}");
        assert_eq!(field(&line, "embeddings"), expected, "engine {engine}");
        // Worker and queue time, both in microseconds.
        let _ = (field(&line, "time-us"), field(&line, "queue-us"));
    }
    // first-k streams exactly k embeddings of the right arity, then `end`.
    let line = client.query("query first 2", &query);
    assert_eq!(field(&line, "embeddings"), 2, "{line}");
    for _ in 0..2 {
        let m = client.read_line();
        assert!(m.starts_with("m "), "{m}");
        assert_eq!(m.split_whitespace().count(), query.vertex_count() + 1);
    }
    assert_eq!(client.read_line(), "end");
    server.shutdown();
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let (query, data) = fixtures::paper_example();
    let expected = brute_force::count(&query, &data);
    let server = ServerHandle::spawn("concurrent", &data, &["--workers", "4", "--queue", "64"]);
    let addr = server.addr;
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let query = query.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                for _ in 0..5 {
                    let line = client.query("query count limit 0", &query);
                    assert!(line.starts_with("ok "), "{line}");
                    assert_eq!(field(&line, "embeddings"), expected);
                }
                client.send("quit\n");
                assert_eq!(client.read_line(), "ok bye");
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let mut client = Client::connect(addr);
    client.send("stats\n");
    let stats = client.read_line();
    assert_eq!(field(&stats, "queries"), 40, "{stats}");
    assert_eq!(field(&stats, "completed"), 40, "{stats}");
    assert_eq!(field(&stats, "embeddings"), 40 * expected, "{stats}");
    server.shutdown();
}

#[test]
fn per_request_timeouts_come_back_promptly() {
    let server = ServerHandle::spawn("timeout", &heavy_data(), &[]);
    let mut client = Client::connect(server.addr);
    let heavy_query = fixtures::path(6, 0);
    let start = std::time::Instant::now();
    let line = client.query("query count timeout-ms 100 limit 0", &heavy_query);
    let elapsed = start.elapsed();
    assert!(line.starts_with("ok "), "{line}");
    assert!(line.ends_with("timed-out=true"), "{line}");
    assert!(
        elapsed < Duration::from_secs(2),
        "100 ms budget took {elapsed:?}"
    );
    // The budget runs from admission, so the queue wait and the worker time
    // reported in microseconds cover it.
    let reported = field(&line, "queue-us") + field(&line, "time-us");
    assert!(reported >= 99_000, "{line}");
    // A zero timeout is a usage error, not an instant timeout.
    let line = client.query("query count timeout-ms 0", &heavy_query);
    assert!(line.starts_with("err "), "{line}");
    server.shutdown();
}

#[test]
fn full_queue_answers_busy_instead_of_buffering() {
    // One worker, one waiting slot: the third concurrent query must be refused.
    let server = ServerHandle::spawn("busy", &heavy_data(), &["--workers", "1", "--queue", "1"]);
    let heavy_query = fixtures::path(6, 0);
    let addr = server.addr;
    let slow = "query count timeout-ms 1500 limit 0";

    let mut a = Client::connect(addr);
    a.send(&format!("{slow}\n{}", graph_body(&heavy_query)));
    std::thread::sleep(Duration::from_millis(300)); // a's job reaches the worker
    let mut b = Client::connect(addr);
    b.send(&format!("{slow}\n{}", graph_body(&heavy_query)));
    std::thread::sleep(Duration::from_millis(300)); // b's job fills the queue
    let mut c = Client::connect(addr);
    let refused = c.query("query count limit 0", &heavy_query);
    assert_eq!(refused, "busy");
    // The admitted clients still complete (against their own deadlines).
    let line = a.read_line();
    assert!(
        line.starts_with("ok ") && line.ends_with("timed-out=true"),
        "{line}"
    );
    let line = b.read_line();
    assert!(
        line.starts_with("ok ") && line.ends_with("timed-out=true"),
        "{line}"
    );
    server.shutdown();
}

#[test]
fn reload_swaps_the_graph_without_dropping_in_flight_queries() {
    let server = ServerHandle::spawn("reload", &heavy_data(), &[]);
    let heavy_query = fixtures::path(6, 0);
    let (paper_query, paper_data) = fixtures::paper_example();
    let expected = brute_force::count(&paper_query, &paper_data);

    // A long-running query is in flight while the data graph is swapped.
    let mut in_flight = Client::connect(server.addr);
    in_flight.send(&format!(
        "query count timeout-ms 800 limit 0\n{}",
        graph_body(&heavy_query)
    ));
    std::thread::sleep(Duration::from_millis(200));

    let mut admin = Client::connect(server.addr);
    admin.send(&format!("reload\n{}", graph_body(&paper_data)));
    let line = admin.read_line();
    assert!(line.starts_with("ok reloaded "), "{line}");
    assert_eq!(field(&line, "vertices"), paper_data.vertex_count() as u64);

    // New queries see the new graph immediately.
    let line = admin.query("query count limit 0", &paper_query);
    assert_eq!(field(&line, "embeddings"), expected, "{line}");

    // The in-flight query finished on the old graph: a clean `ok`, not an error,
    // not a drop — it kept the pre-reload index alive through its own Arc.
    let line = in_flight.read_line();
    assert!(
        line.starts_with("ok ") && line.ends_with("timed-out=true"),
        "{line}"
    );

    // Counters survived the reload (reload itself runs no query).
    admin.send("stats\n");
    let stats = admin.read_line();
    assert_eq!(field(&stats, "queries"), 2, "{stats}");
    assert_eq!(field(&stats, "reloads"), 1, "{stats}");
    server.shutdown();
}

#[test]
fn healthz_stats_and_protocol_errors_round_trip() {
    let (query, data) = fixtures::paper_example();
    let server = ServerHandle::spawn("healthz", &data, &["--workers", "2", "--queue", "7"]);
    let mut client = Client::connect(server.addr);

    client.send("healthz\n");
    let health = client.read_line();
    assert!(health.starts_with("ok uptime-ms="), "{health}");
    assert_eq!(field(&health, "workers"), 2, "{health}");
    assert_eq!(field(&health, "queue-capacity"), 7, "{health}");

    // Malformed input gets a contextual error and the connection stays usable.
    client.send("frobnicate\n");
    assert!(client.read_line().starts_with("err unknown command"));
    client.send("query sideways\n");
    assert!(client.read_line().starts_with("err query needs a mode"));
    client.send("query count engine volcano\n");
    assert!(client.read_line().starts_with("err unknown engine"));
    // A repeated option is an error, not a silent last-win: pre-fix,
    // `limit 5 limit 0` quietly uncapped the query.
    client.send("query count limit 5 limit 0\n");
    assert!(client.read_line().starts_with("err repeated query option"));
    client.send("query count\nt 1 0\nv 0 0\nv 1 0\ne 0 1 garbage garbage\nend\n");
    assert!(client.read_line().starts_with("err bad graph"));

    let line = client.query("query count limit 0", &query);
    assert!(line.starts_with("ok "), "{line}");

    client.send("stats\n");
    let stats = client.read_line();
    assert_eq!(field(&stats, "queries"), 1, "{stats}");
    assert_eq!(field(&stats, "completed"), 1, "{stats}");
    assert_eq!(field(&stats, "failed"), 0, "{stats}");
    assert_eq!(field(&stats, "timed-out"), 0, "{stats}");
    assert_eq!(field(&stats, "reloads"), 0, "{stats}");
    server.shutdown();
}

#[test]
fn oversized_graph_headers_are_rejected_before_allocating() {
    let (_query, data) = fixtures::paper_example();
    let server = ServerHandle::spawn("oversized", &data, &[]);
    let mut client = Client::connect(server.addr);
    // Sized by their headers, these bodies would ask for 40 to hundreds of
    // gigabytes, an allocation failure that aborts the process. Each header is
    // rejected before anything is sized by it: a data graph's vertex count by
    // the vertex-id range, its edge count by the listed edges (the last one
    // passes the n(n-1)/2 bound and lists no edge), and the same connection
    // keeps answering.
    for (command, header) in [
        ("query count", "t 40000000000 1"),
        ("watch", "t 40000000000 1"),
        ("reload", "t 40000000000 0"),
        ("reload", "t 2 100000000000"),
        ("reload", "t 100000 4999950000"),
    ] {
        client.send(&format!("{command}\n{header}\nend\n"));
        let reply = client.read_line();
        assert!(reply.starts_with("err bad graph"), "{command}: {reply}");
        client.send("healthz\n");
        let health = client.read_line();
        assert!(health.starts_with("ok uptime-ms="), "{command}: {health}");
    }
    server.shutdown();
}

#[test]
fn query_labels_near_u32_max_allocate_nothing_by_label() {
    let (_query, data) = fixtures::paper_example();
    let server = ServerHandle::spawn("huge_label", &data, &[]);
    let mut client = Client::connect(server.addr);
    // A query's labels size nothing: a label index sized by label 4294967295
    // would be a 32 GiB array, an allocation failure that aborts the process.
    // No data vertex carries the label, so each query has no embedding.
    for body in [
        "t 1 0\nv 0 4294967295\n",
        "t 2 1\nv 0 0\nv 1 4294967295\ne 0 1\n",
    ] {
        for command in ["query count", "query first 1", "watch"] {
            client.send(&format!("{command}\n{body}end\n"));
            let reply = client.read_line();
            if command == "watch" {
                assert!(reply.starts_with("ok watch id="), "{command}: {reply}");
            } else {
                assert!(reply.starts_with("ok embeddings=0 "), "{command}: {reply}");
            }
            if command == "query first 1" {
                assert_eq!(client.read_line(), "end", "{command}");
            }
            client.send("healthz\n");
            let health = client.read_line();
            assert!(health.starts_with("ok uptime-ms="), "{command}: {health}");
        }
    }
    server.shutdown();
}

#[test]
fn data_labels_above_the_bound_are_rejected_without_allocating() {
    let (query, data) = fixtures::paper_example();
    let server = ServerHandle::spawn("data_label", &data, &[]);
    let mut client = Client::connect(server.addr);
    // Index arrays sized by data label 4294967295 would ask for 16 to 32 GiB,
    // an allocation failure that aborts the process. A new vertex and a
    // reloaded graph with such a label are each rejected, the index in use is
    // kept, and the same connection keeps answering.
    let expected = brute_force::count(&query, &data);
    for (command, body) in [
        ("delta", "av 4294967295\n"),
        ("delta", "av 0\nav 65536\nae 0 1\n"),
        ("reload", "t 1 0\nv 0 4294967295\n"),
        ("reload", "t 2 1\nv 0 0\nv 1 65536\ne 0 1\n"),
    ] {
        client.send(&format!("{command}\n{body}end\n"));
        let reply = client.read_line();
        let expected_err = if command == "delta" {
            "err bad delta"
        } else {
            "err bad graph"
        };
        assert!(
            reply.starts_with(expected_err),
            "{command} {body:?}: {reply}"
        );
        assert!(reply.contains("largest data label 65535"), "{reply}");
        let count = client.query("query count", &query);
        assert_eq!(field(&count, "embeddings"), expected, "{command}: {count}");
    }
    server.shutdown();
}

#[test]
fn result_cache_serves_repeats_and_reload_invalidates_it() {
    // One label-0–label-1 edge query; the two data graphs give different counts,
    // so a stale cache entry surviving `reload` would be caught immediately.
    let query = graph_from_edges(&[0, 1], &[(0, 1)]);
    let before = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (2, 3), (0, 3)]);
    let after = graph_from_edges(&[0, 1], &[(0, 1)]);

    let server = ServerHandle::spawn("cache", &before, &[]);
    let mut client = Client::connect(server.addr);
    let line = client.query("query count limit 0", &query);
    assert_eq!(field(&line, "embeddings"), 3, "{line}");
    let line = client.query("query count limit 0", &query);
    assert_eq!(field(&line, "embeddings"), 3, "{line}");
    client.send("stats\n");
    let stats = client.read_line();
    assert_eq!(field(&stats, "cache-hits"), 1, "{stats}");
    assert_eq!(field(&stats, "cache-misses"), 1, "{stats}");
    assert_eq!(field(&stats, "queries"), 2, "hits still count: {stats}");

    // Reload must invalidate: the same query now reflects the new graph.
    client.send(&format!("reload\n{}", graph_body(&after)));
    assert!(client.read_line().starts_with("ok reloaded "));
    let line = client.query("query count limit 0", &query);
    assert_eq!(field(&line, "embeddings"), 1, "stale cache? {line}");
    client.send("stats\n");
    let stats = client.read_line();
    assert_eq!(field(&stats, "cache-hits"), 1, "{stats}");
    assert_eq!(field(&stats, "cache-misses"), 2, "{stats}");
    server.shutdown();
}

#[test]
fn cache_zero_disables_caching() {
    let query = graph_from_edges(&[0, 1], &[(0, 1)]);
    let data = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (2, 3)]);
    let server = ServerHandle::spawn("cache0", &data, &["--cache", "0"]);
    let mut client = Client::connect(server.addr);
    for _ in 0..3 {
        let line = client.query("query count limit 0", &query);
        assert_eq!(field(&line, "embeddings"), 2, "{line}");
    }
    client.send("stats\n");
    let stats = client.read_line();
    assert_eq!(field(&stats, "cache-hits"), 0, "{stats}");
    assert_eq!(field(&stats, "cache-misses"), 0, "{stats}");
    server.shutdown();
}

#[test]
fn stalled_watcher_does_not_wedge_other_connections() {
    // A star data graph: one delta batch hanging new leaves off the hub
    // creates hundreds of thousands of new 3-path matches — megabytes of
    // `match` lines, far more than loopback TCP buffering absorbs — so the
    // push to a watcher that never reads blocks. Pre-fix, `handle_delta` held
    // the watchers registry lock across that push, so any other connection
    // touching the registry (`stats`, `watch`, `unwatch`) hung with it. The
    // fix renders the lines under the lock but pushes only after releasing
    // it; the only lock held across the blocked push is `mutation`, which
    // `stats` does not take.
    let hub_degree = 800u32;
    let labels = vec![0u32; 1001];
    let edges: Vec<(u32, u32)> = (1..=hub_degree).map(|leaf| (0, leaf)).collect();
    let data = graph_from_edges(&labels, &edges);
    let server = ServerHandle::spawn("stall", &data, &[]);

    // The watcher registers a standing 3-path query and then stops reading.
    let mut watcher = Client::connect(server.addr);
    let standing = fixtures::path(3, 0);
    watcher.send(&format!("watch\n{}", graph_body(&standing)));
    assert_eq!(watcher.read_line(), "ok watch id=0");

    // 200 new leaves in one batch: every (old or new, new) leaf pair is a new
    // hub-centered path, ~360k embeddings into a socket nobody drains.
    let mut delta = Client::connect(server.addr);
    let mut body = String::from("delta\n");
    for leaf in hub_degree + 1..=hub_degree + 200 {
        body.push_str(&format!("ae 0 {leaf}\n"));
    }
    body.push_str("end\n");
    delta.send(&body);
    // Let the delta apply and the push reach the stalled socket.
    std::thread::sleep(Duration::from_millis(1500));

    // `stats` takes the watchers lock; it must answer while the push is stuck.
    let (tx, rx) = std::sync::mpsc::channel();
    let addr = server.addr;
    std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        client.send("stats\n");
        let _ = tx.send(client.read_line());
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(20))
        .expect("stats hung: a stalled watcher is wedging the watchers lock");
    assert_eq!(field(&stats, "watchers"), 1, "{stats}");
    assert_eq!(field(&stats, "deltas"), 1, "{stats}");

    // Hanging up the watcher unblocks the push; the delta client then gets
    // its reply and the server shuts down cleanly.
    drop(watcher);
    let line = delta.read_line();
    assert!(line.starts_with("ok delta applied=200 "), "{line}");
    server.shutdown();
}

#[test]
fn delta_reply_to_a_self_watching_sender_is_not_held_back() {
    // A `delta` is answered in two writes: the `match` pushes, then the `ok`
    // line. When the sender also watches, both go to its socket, and with
    // Nagle's algorithm on the second write waits for the client's delayed
    // ACK of the first (about 40 ms on Linux loopback). The server disables
    // Nagle on every connection, so the round trip is the server's work only.
    let data = graph_from_edges(&[0u32; 24], &[]);
    let server = ServerHandle::spawn("nodelay", &data, &[]);
    let mut client = Client::connect(server.addr);
    client.send(&format!("watch\n{}", graph_body(&fixtures::path(2, 0))));
    assert_eq!(client.read_line(), "ok watch id=0");
    let mut round_trips = Vec::new();
    for i in 0..12u32 {
        // An edge between two isolated vertices: two new one-edge matches.
        let start = std::time::Instant::now();
        client.send(&format!("delta\nae {} {}\nend\n", 2 * i, 2 * i + 1));
        let mut pushed = 0u64;
        let reply = loop {
            let line = client.read_line();
            if !line.starts_with("match ") {
                break line;
            }
            pushed += 1;
        };
        round_trips.push(start.elapsed());
        assert!(reply.starts_with("ok delta applied=1 "), "{reply}");
        assert_eq!(field(&reply, "new-matches"), pushed, "{reply}");
        assert_eq!(pushed, 2, "{reply}");
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(20),
        "median delta round trip {median:?}: the reply waited for a delayed ACK"
    );
    server.shutdown();
}

#[test]
fn bad_server_usage_is_rejected() {
    // Zero --timeout-ms must be a usage error, mirroring gup-match.
    let output = Command::new(env!("CARGO_BIN_EXE_gup-serve"))
        .args(["--data", "whatever.graph", "--timeout-ms", "0"])
        .output()
        .expect("failed to spawn gup-serve");
    assert!(!output.status.success());
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("--timeout-ms must be positive"),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    for bad in [
        &["--timeout-ms", "soon"][..],
        &["--workers", "0"][..],
        &["--threads", "0"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_gup-serve"))
            .args(["--data", "whatever.graph"])
            .args(bad)
            .output()
            .expect("failed to spawn gup-serve");
        assert!(!output.status.success(), "{bad:?} must be rejected");
    }
    // Missing --data likewise.
    let output = Command::new(env!("CARGO_BIN_EXE_gup-serve"))
        .output()
        .expect("failed to spawn gup-serve");
    assert!(!output.status.success());
}

/// `--help` exits 0, and every line of its options section is indented, so a
/// wrapped description cannot read as an option of its own.
#[test]
fn help_indents_every_option_line() {
    let output = Command::new(env!("CARGO_BIN_EXE_gup-serve"))
        .arg("--help")
        .output()
        .expect("failed to spawn gup-serve");
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stderr);
    let (_, options) = text.split_once("\noptions:\n").expect("an options section");
    assert!(options.lines().count() > 5, "{text}");
    for line in options.lines() {
        assert!(line.starts_with(' '), "unindented help line {line:?}");
    }
}
