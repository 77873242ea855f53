//! Per-layer probes of the traced run. The benchmark calls each layer's public
//! functions itself, in the order the engine calls them, each inside a span;
//! counts are recorded at the same boundaries. The program is not
//! instrumented: every span is recorded here, around a call into a crate.

use crate::serve::query_header;
use crate::trace::Tracer;
use gup::reservation::{generate_reservation_guards, reservation_heap_bytes};
use gup::session::Session;
use gup::{Gcs, GupConfig, SearchEngine};
use gup_candidate::{nlf_candidates_prepared, CandidateSpace};
use gup_graph::index_io::load_index_bytes;
use gup_graph::io::parse_graph;
use gup_graph::sink::{CollectAll, CountOnly};
use gup_graph::{Graph, PreparedData, QueryGraph, VertexId};
use gup_order::compute_order;
use gup_serve::protocol::{parse_command, parse_delta_body};
use gup_stream::{collect_new_matches, QueryPlan};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-up layers, `reps` rounds: text parse, index preparation, index load.
pub fn setup_layers(graph_text: &str, index_bytes: &[u8], reps: usize, tr: &mut Tracer) {
    for r in 0..reps as u64 {
        let graph = tr.span("graph.parse", None, r, || parse_graph(graph_text));
        let graph = graph.expect("generated graph text parses");
        black_box(tr.span("graph.prepare", None, r, || PreparedData::new(graph)));
        let loaded = tr.span("graph.index_load", None, r, || {
            load_index_bytes(index_bytes)
        });
        black_box(loaded.expect("generated index bytes load"));
    }
}

/// Query layers, one request per query, in two passes over the queries:
///
/// 1. the session call (`core.session`) and, beside it, the two steps that
///    call makes: `Gcs::build_prepared` (`core.gcs_build`) and the search on
///    it (`core.search`), twice each in the order A B B A, where which of the
///    two is A alternates from query to query. So the warm caches a first
///    call leaves, and any drift of the host, fall on both sides of
///    `core.session_residual_us` alike.
/// 2. the steps inside the GCS build, under a `query` root span: the NLF
///    filter pass, the whole candidate-space build, ordering, and the
///    reservation guards. Each follows the previous query's calls, as in a
///    stream of queries, not its own query's GCS build.
///
/// Counts that disagree with `expected` are appended to `mismatches`.
pub fn query_layers(
    session: &Session,
    queries: &[Graph],
    expected: &[u64],
    limit: u64,
    tr: &mut Tracer,
    mismatches: &mut Vec<String>,
) {
    let probe = QueryProbe::new(session, limit);
    for (i, q) in queries.iter().enumerate() {
        let req = i as u64;
        for session_turn in [i % 2 == 0, i % 2 == 1, i % 2 == 1, i % 2 == 0] {
            let (what, count) = if session_turn {
                ("session", probe.session_call(q, req, tr))
            } else {
                (
                    "layer-by-layer search",
                    Some(probe.engine_calls(q, req, tr)),
                )
            };
            if count != Some(expected[i]) {
                mismatches.push(format!(
                    "query {i}: {what} counted {count:?}, reference {}",
                    expected[i]
                ));
            }
        }
    }
    for (i, q) in queries.iter().enumerate() {
        probe.layer_calls(q, i as u64, tr);
    }
}

/// The tracing overhead of the query probes over the first `n` queries:
/// every probe call of a query runs twice recorded and twice with recording
/// off ([`Tracer::off`]), in the order A B B A, where which of the two is A
/// alternates from query to query, so the warm caches a first run leaves and
/// any drift of the host fall on both sides alike. Returns the traced time
/// over the untraced time, minus one.
pub fn tracing_overhead(session: &Session, queries: &[Graph], limit: u64, n: usize) -> f64 {
    let probe = QueryProbe::new(session, limit);
    let (mut on, mut off) = (Tracer::new(Instant::now()), Tracer::off());
    let (mut traced, mut untraced) = (Duration::ZERO, Duration::ZERO);
    for (i, q) in queries.iter().take(n).enumerate() {
        for recorded in [i % 2 == 0, i % 2 == 1, i % 2 == 1, i % 2 == 0] {
            let tr = if recorded { &mut on } else { &mut off };
            let req = i as u64;
            let t = Instant::now();
            probe.session_call(q, req, tr);
            probe.engine_calls(q, req, tr);
            probe.layer_calls(q, req, tr);
            let elapsed = t.elapsed();
            if recorded {
                traced += elapsed;
            } else {
                untraced += elapsed;
            }
        }
    }
    traced.as_secs_f64() / untraced.as_secs_f64().max(f64::MIN_POSITIVE) - 1.0
}

/// The per-query probe calls, each inside its span.
struct QueryProbe<'a> {
    session: &'a Session,
    prepared: &'a PreparedData,
    config: GupConfig,
    limit: u64,
}

impl<'a> QueryProbe<'a> {
    fn new(session: &'a Session, limit: u64) -> Self {
        QueryProbe {
            session,
            prepared: session.prepared(),
            config: GupConfig::with_embedding_limit(limit),
            limit,
        }
    }

    /// The session's count of `q`, as a caller gets it.
    fn session_call(&self, q: &Graph, req: u64, tr: &mut Tracer) -> Option<u64> {
        let stats = tr.span("core.session", None, req, || {
            self.session.query(q).limit(self.limit).count_stats()
        });
        stats.ok().map(|s| s.embeddings)
    }

    /// The GCS build and the search on it, with the search's counts; returns
    /// the embeddings found.
    fn engine_calls(&self, q: &Graph, req: u64, tr: &mut Tracer) -> u64 {
        assert!(q.vertex_count() <= 64, "queries use the one-word engine");
        let gcs = tr.span("core.gcs_build", None, req, || {
            Gcs::<1>::build_prepared(q, self.prepared, &self.config)
        });
        let gcs = gcs.expect("generated queries are valid");
        let stats = tr.span("core.search", None, req, || {
            SearchEngine::new(&gcs, &self.config).run_with_sink(&mut CountOnly::new())
        });
        tr.count("core.recursions", req, stats.recursions as f64);
        tr.count(
            "core.futile_recursions",
            req,
            stats.futile_recursions as f64,
        );
        tr.count(
            "core.local_candidates",
            req,
            stats.local_candidates_seen as f64,
        );
        let pruned = stats.pruned_by_reservation + stats.pruned_by_nogood_vertex;
        tr.count("core.guard_pruned", req, pruned as f64);
        tr.count("core.embeddings", req, stats.embeddings as f64);
        let nogoods = stats.nv_guards_recorded + stats.ne_guards_recorded;
        tr.count("core.nogood_guards", req, nogoods as f64);
        stats.embeddings
    }

    /// The steps inside the GCS build: the NLF filter pass, the whole
    /// candidate-space build, ordering, and the reservation guards.
    fn layer_calls(&self, q: &Graph, req: u64, tr: &mut Tracer) {
        let (prepared, config) = (self.prepared, &self.config);
        let root = tr.start("query", None, req);
        tr.span("candidate.filter", Some(root), req, || {
            for u in 0..q.vertex_count() as VertexId {
                black_box(nlf_candidates_prepared(q, prepared, u));
            }
        });
        let space = tr.span("candidate.build", Some(root), req, || {
            CandidateSpace::build_prepared(q, prepared, &config.filter)
        });
        tr.count("candidate.candidates", req, space.total_candidates() as f64);
        tr.count(
            "candidate.candidate_edges",
            req,
            space.total_candidate_edges() as f64,
        );
        let (ordered, space) = tr.span("order.order", Some(root), req, || {
            let order = compute_order(q, &space.candidate_sizes(), config.ordering)
                .expect("valid queries have a connected order");
            let ordered = QueryGraph::new(q.clone())
                .expect("generated queries are valid")
                .with_order::<1>(&order)
                .expect("the order is connected");
            (ordered, space.permuted(&order))
        });
        let guards = tr.span("core.reservation", Some(root), req, || {
            generate_reservation_guards(
                &ordered,
                &space,
                prepared.graph().vertex_count(),
                config.reservation_size_limit,
            )
        });
        tr.count(
            "core.reservation_bytes",
            req,
            reservation_heap_bytes(&guards) as f64,
        );
        tr.end(root);
    }
}

/// Delta layers, one request per batch, starting from `prepared`: the wire
/// body parse, the incremental index update, and the delta-localized search
/// for every standing query.
pub fn delta_layers(
    prepared: &PreparedData,
    standing: &[Graph],
    bodies: &[String],
    tr: &mut Tracer,
) {
    let plans: Vec<QueryPlan> = standing
        .iter()
        .map(|q| QueryPlan::new(q).expect("standing queries are valid"))
        .collect();
    let mut current: Option<PreparedData> = None;
    for (j, body) in bodies.iter().enumerate() {
        let req = j as u64;
        let root = tr.start("delta", None, req);
        let deltas = tr.span("serve.delta_parse", Some(root), req, || {
            parse_delta_body(body)
        });
        let deltas = deltas.expect("generated delta bodies parse");
        let base = current.as_ref().unwrap_or(prepared);
        let applied = tr.span("graph.delta_apply", Some(root), req, || {
            base.apply_with_effects(&deltas)
        });
        let (next, effects) = applied.expect("generated delta batches apply in order");
        let found = tr.span("stream.new_matches", Some(root), req, || {
            plans
                .iter()
                .map(|plan| collect_new_matches(&next, &effects, plan, &mut CollectAll::new()))
                .sum::<u64>()
        });
        tr.count("stream.new_matches", req, found as f64);
        current = Some(next);
        tr.end(root);
    }
}

/// The server's per-query parse work, done through the same public parsers:
/// the command line and the `t/v/e` body.
pub fn parse_layers(queries: &[String], limit: u64, tr: &mut Tracer) {
    let header = query_header(limit);
    for (i, body) in queries.iter().enumerate() {
        let parsed = tr.span("serve.parse", None, i as u64, || {
            (parse_command(&header), parse_graph(body))
        });
        assert!(parsed.0.is_ok() && parsed.1.is_ok(), "wire inputs parse");
    }
}
