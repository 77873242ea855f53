//! The in-process library workloads (point-large and search-hard): set-up,
//! the GuP-versus-DAF correctness gate, and the traffic: a closed query loop
//! over a `Session`, then a closed delta loop over a `ContinuousMatcher`.

use crate::measure::{repeat_setup, Samples};
use gup::session::{Engine, Session};
use gup_graph::io::parse_graph;
use gup_graph::{Graph, GraphDelta, PreparedData};
use gup_serve::protocol::parse_delta_body;
use gup_stream::ContinuousMatcher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What one measured loop saw.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per-operation latency in µs (deltas: from the time each was due).
    pub latencies: Samples,
    /// How late the generator issued each operation, in µs.
    pub late: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time of the query loop.
    pub elapsed: Duration,
    /// New matches reported for the standing queries (delta loops).
    pub new_matches: u64,
}

/// Parses the data-graph text and prepares the index, in [`repeat_setup`]
/// rounds; returns the last index and the round times.
pub fn setup(graph_text: &str) -> (Arc<PreparedData>, Samples) {
    let (prepared, times) = repeat_setup(|| parse_graph(graph_text).map(PreparedData::new))
        .expect("generated graph text parses");
    (Arc::new(prepared), times)
}

/// Parses generated query bodies through the program's own parser.
pub fn parse_queries(texts: &[String]) -> Vec<Graph> {
    texts
        .iter()
        .map(|t| parse_graph(t).expect("generated query text parses"))
        .collect()
}

/// Parses generated delta bodies through the wire protocol's parser.
pub fn parse_deltas(bodies: &[String]) -> Vec<Vec<GraphDelta>> {
    bodies
        .iter()
        .map(|b| parse_delta_body(b).expect("generated delta body parses"))
        .collect()
}

/// The engine the correctness gate checks GuP against. DAF-style failing-set
/// backtracking is an independent engine family that stays fast on the
/// 24-vertex dense queries of search-hard, where GQL-style search needs
/// minutes for a single query.
const REFERENCE: Engine = Engine::Daf;

/// The correctness gate's reference: every query's capped count from GuP,
/// checked against the [`REFERENCE`] engine under the same cap.
/// Disagreements are appended to `mismatches`.
pub fn reference_counts(
    session: &Session,
    queries: &[Graph],
    limit: u64,
    mismatches: &mut Vec<String>,
) -> Vec<u64> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let gup = session.query(q).limit(limit).count();
            let daf = session.query(q).method(REFERENCE).limit(limit).count();
            match (gup, daf) {
                (Ok(gup), Ok(daf)) if gup == daf => gup,
                (gup, daf) => {
                    mismatches.push(format!("query {i}: GuP {gup:?} but DAF {daf:?}"));
                    u64::MAX
                }
            }
        })
        .collect()
}

/// How long the library traffic runs and how many samples it must collect.
pub struct Plan {
    pub budget: Duration,
    /// Query latencies wanted (10 beyond p99 needs 1000).
    pub min_queries: usize,
    /// Delta latencies wanted (10 beyond p90 needs 100).
    pub min_deltas: usize,
}

/// Share of the budget spent on queries; the delta phase gets the rest.
const QUERY_SHARE: f64 = 0.75;

/// The traffic alternates between its query and delta phases this many
/// times, so that the samples of both span the whole run: the host's speed
/// drifts within seconds, and a delta phase held only at the end of a run
/// measured the host of those seconds.
const ROUNDS: u32 = 4;

/// What the library traffic saw.
#[derive(Debug, Default)]
pub struct Traffic {
    pub queries: LoopStats,
    pub deltas: LoopStats,
    /// Completed queries per second of each whole pass over the pool.
    pub pass_rates: Samples,
}

/// Runs the library workloads' traffic on one thread, in [`ROUNDS`] rounds
/// of two phases. The query phase makes whole passes over `queries`, each
/// query through `Session::query(..).limit(limit).count_stats()` (a closed
/// loop); a count other than `expected` is a correctness mismatch, an error
/// or `hit_time_limit` result a failure. The delta phase applies the cyclic
/// delta script through a `ContinuousMatcher` holding `standing`, a closed
/// loop in which each batch is due when the previous one completed; the
/// script carries on from round to round. Each phase runs for its share of
/// the round; in the last round, on until the run has its sample minimum,
/// up to twice its share.
#[allow(clippy::too_many_arguments)]
pub fn traffic(
    session: &Session,
    queries: &[Graph],
    expected: &[u64],
    limit: u64,
    standing: &[Graph],
    deltas: &[Vec<GraphDelta>],
    plan: &Plan,
    mismatches: &mut Vec<String>,
) -> Traffic {
    let mut out = Traffic::default();
    let mut matcher = ContinuousMatcher::new(session.clone());
    for q in standing {
        matcher.register(q).expect("standing queries are valid");
    }
    let mut script = deltas.iter().cycle();
    let query_share = plan.budget.mul_f64(QUERY_SHARE) / ROUNDS;
    let delta_share = plan.budget / ROUNDS - query_share;
    for round in 1..=ROUNDS {
        let last = round == ROUNDS;
        let (min_queries, min_deltas) = if last {
            (plan.min_queries, plan.min_deltas)
        } else {
            (0, 0)
        };
        query_phase(
            session,
            queries,
            expected,
            limit,
            query_share,
            min_queries,
            &mut out,
            mismatches,
        );
        delta_phase(&mut matcher, &mut script, delta_share, min_deltas, &mut out);
    }
    out
}

/// One query phase of [`traffic`]: whole passes over `queries`.
#[allow(clippy::too_many_arguments)]
fn query_phase(
    session: &Session,
    queries: &[Graph],
    expected: &[u64],
    limit: u64,
    share: Duration,
    min_samples: usize,
    out: &mut Traffic,
    mismatches: &mut Vec<String>,
) {
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let mut completed = 0u64;
        for (qi, q) in queries.iter().enumerate() {
            let sent = Instant::now();
            let result = session.query(q).limit(limit).count_stats();
            out.queries.latencies.push(sent.elapsed());
            out.queries.attempted += 1;
            match result {
                Ok(stats) if !stats.hit_time_limit => {
                    completed += 1;
                    if stats.embeddings != expected[qi] && mismatches.len() < 16 {
                        mismatches.push(format!(
                            "query {qi}: counted {} in the loop, reference {}",
                            stats.embeddings, expected[qi]
                        ));
                    }
                }
                _ => out.queries.failed += 1,
            }
        }
        out.pass_rates
            .push_value(completed as f64 / pass_start.elapsed().as_secs_f64());
        if phase_done(start, share, out.queries.latencies.len(), min_samples) {
            break;
        }
    }
    out.queries.elapsed += start.elapsed();
}

/// One delta phase of [`traffic`]: batches from `script`, each due when the
/// previous one completed.
fn delta_phase<'a>(
    matcher: &mut ContinuousMatcher,
    script: &mut impl Iterator<Item = &'a Vec<GraphDelta>>,
    share: Duration,
    min_samples: usize,
    out: &mut Traffic,
) {
    let start = Instant::now();
    let mut due = start;
    let deltas = &mut out.deltas;
    while !phase_done(start, share, deltas.latencies.len(), min_samples) {
        let Some(batch) = script.next() else {
            break;
        };
        deltas.late.push(Instant::now() - due);
        let result = matcher.apply(batch);
        let done = Instant::now();
        deltas.latencies.push(done - due);
        due = done;
        deltas.attempted += 1;
        match result {
            Ok(report) => deltas.new_matches += report.total_new_matches(),
            Err(_) => deltas.failed += 1,
        }
    }
}

/// `true` once a phase has run for `share` and collected `min_samples`, or
/// has run for twice its share regardless.
fn phase_done(start: Instant, share: Duration, samples: usize, min_samples: usize) -> bool {
    let elapsed = start.elapsed();
    (elapsed >= share && samples >= min_samples) || elapsed >= share * 2
}
