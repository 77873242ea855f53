//! Uniform runner for GuP, its ablations, and the baselines.
//!
//! Since the session redesign the harness is a thin veneer over
//! [`gup::session::Session`]: each dataset's data graph is prepared **once** and
//! every method × query runs through the same shared [`PreparedData`] — exactly how
//! the paper's query sets are meant to be executed (§4.1), and how a serving
//! deployment would run them.
//!
//! [`PreparedData`]: gup_graph::PreparedData

use gup::session::{Engine, Session};
use gup::sink::CountOnly;
use gup::{GupConfig, PruningFeatures, SearchLimits};
use gup_graph::Graph;
use gup_workloads::{generate_query_set, Dataset, QuerySetSpec};
use std::time::{Duration, Instant};

/// The systems compared in the evaluation. `Gup` is this repository's contribution;
/// the others are the baseline families standing in for the paper's competitors, plus
/// GuP ablations used by Figures 8 and 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Full GuP (all guards + backjumping).
    Gup,
    /// GuP with a specific feature subset (ablations of Fig. 9).
    GupWith(PruningFeatures),
    /// GuP restricted to reservation guards with a given size limit (Fig. 8);
    /// `None` = unlimited (`r = ∞`).
    GupReservationOnly(Option<usize>),
    /// DAF-style failing-set backtracking.
    Daf,
    /// GraphQL-style filtering + ordering.
    GqlG,
    /// RI-style ordering (the paper's GQL-R).
    GqlR,
    /// Join-based enumeration (RapidMatch stand-in).
    RapidMatchLike,
}

impl Method {
    /// The methods compared in the headline experiments (Table 2, Figs. 4–6), in the
    /// paper's order: GuP, DAF, GQL-G, GQL-R, RM.
    pub const HEADLINE: [Method; 5] = [
        Method::Gup,
        Method::Daf,
        Method::GqlG,
        Method::GqlR,
        Method::RapidMatchLike,
    ];

    /// Display name used in tables.
    pub fn name(self) -> String {
        match self {
            Method::Gup => "GuP".to_string(),
            Method::GupWith(f) => format!("GuP[{}]", f.label()),
            Method::GupReservationOnly(Some(r)) => format!("GuP[r={r}]"),
            Method::GupReservationOnly(None) => "GuP[r=inf]".to_string(),
            Method::Daf => "DAF".to_string(),
            Method::GqlG => "GQL-G".to_string(),
            Method::GqlR => "GQL-R".to_string(),
            Method::RapidMatchLike => "RM".to_string(),
        }
    }
}

/// Outcome of running one method on one query.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunRecord {
    /// Embeddings found (capped by the embedding limit).
    pub embeddings: u64,
    /// Recursive calls (or intermediate join results for the join baseline).
    pub recursions: u64,
    /// Recursive calls that led to a deadend.
    pub futile_recursions: u64,
    /// Wall-clock time of the search (GCS/candidate construction included).
    pub elapsed: Duration,
    /// `true` if the per-query time limit fired.
    pub timed_out: bool,
}

/// Per-query-set aggregate, mirroring how the paper reports results.
#[derive(Clone, Debug, Default)]
pub struct SetSummary {
    /// Queries actually executed.
    pub queries: usize,
    /// Queries slower than the "slow" threshold.
    pub over_slow: usize,
    /// Queries slower than the "very slow" threshold.
    pub over_very_slow: usize,
    /// Queries that hit the per-query time limit.
    pub timed_out: usize,
    /// Total processing time over the set.
    pub total_time: Duration,
    /// Total recursions over the set.
    pub total_recursions: u64,
    /// Total futile recursions over the set.
    pub total_futile: u64,
    /// `true` if the whole set exceeded its budget and was abandoned ("DNF").
    pub dnf: bool,
}

impl SetSummary {
    /// Average per-query processing time in milliseconds (0 when nothing ran).
    pub fn average_ms(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_time.as_secs_f64() * 1000.0 / self.queries as f64
        }
    }
}

/// Configuration of the experiment suite: how much the datasets are scaled down and
/// how large / patient the query sets are. The defaults are sized so that the full
/// suite finishes in minutes on a laptop; raise them to approach the paper's setup.
#[derive(Clone, Copy, Debug)]
pub struct SuiteConfig {
    /// Scale factor applied to each dataset's published vertex count.
    pub yeast_scale: f64,
    /// Scale factor for the Human analogue.
    pub human_scale: f64,
    /// Scale factor for the WordNet analogue.
    pub wordnet_scale: f64,
    /// Scale factor for the Patents analogue.
    pub patents_scale: f64,
    /// Queries per query set (the paper uses 50,000).
    pub queries_per_set: usize,
    /// Embedding cap per query (the paper uses 10^5).
    pub embedding_limit: u64,
    /// Per-query time limit (the paper uses 1 hour).
    pub per_query_timeout: Duration,
    /// Per-set budget after which the set is declared DNF (the paper: 3 hours per 100
    /// queries).
    pub per_set_budget: Duration,
    /// "Slow" threshold (paper: 1 second).
    pub slow_threshold: Duration,
    /// "Very slow" threshold (paper: 1 minute).
    pub very_slow_threshold: Duration,
    /// Seed for query generation.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            yeast_scale: 0.20,
            human_scale: 0.06,
            wordnet_scale: 0.01,
            patents_scale: 0.0006,
            queries_per_set: 25,
            embedding_limit: 100_000,
            per_query_timeout: Duration::from_millis(500),
            per_set_budget: Duration::from_secs(20),
            slow_threshold: Duration::from_millis(20),
            very_slow_threshold: Duration::from_millis(200),
            seed: 2023,
        }
    }
}

impl SuiteConfig {
    /// A very small configuration used by unit tests and CI smoke runs.
    pub fn smoke() -> Self {
        SuiteConfig {
            yeast_scale: 0.08,
            human_scale: 0.02,
            wordnet_scale: 0.004,
            patents_scale: 0.0002,
            queries_per_set: 4,
            embedding_limit: 10_000,
            per_query_timeout: Duration::from_millis(200),
            per_set_budget: Duration::from_secs(5),
            slow_threshold: Duration::from_millis(10),
            very_slow_threshold: Duration::from_millis(100),
            seed: 7,
        }
    }

    /// Generates the data graph of `dataset` at this configuration's scale.
    pub fn data_graph(&self, dataset: Dataset) -> Graph {
        let scale = match dataset {
            Dataset::Yeast => self.yeast_scale,
            Dataset::Human => self.human_scale,
            Dataset::WordNet => self.wordnet_scale,
            Dataset::Patents => self.patents_scale,
        };
        dataset.generate(scale).graph
    }

    /// Generates the data graph of `dataset` and opens a prepared-data session over
    /// it — the once-per-dataset step every method of an experiment shares.
    pub fn session(&self, dataset: Dataset) -> Session {
        Session::new(self.data_graph(dataset))
    }

    /// Generates a query set for `dataset` (data graph passed in to avoid regenerating
    /// it for every set).
    pub fn query_set(&self, data: &Graph, spec: QuerySetSpec) -> Vec<Graph> {
        generate_query_set(data, spec, self.queries_per_set, self.seed)
    }
}

/// The session-level engine and configuration a harness [`Method`] maps to. The
/// per-query time limit is not part of it: [`run_method`] starts that clock on the
/// request itself, right before the query runs.
fn method_request(method: Method, config: &SuiteConfig) -> (Engine, GupConfig) {
    let limits = SearchLimits {
        max_embeddings: Some(config.embedding_limit),
        ..SearchLimits::UNLIMITED
    };
    match method {
        Method::Gup | Method::GupWith(_) | Method::GupReservationOnly(_) => {
            let (features, r) = match method {
                Method::Gup => (PruningFeatures::ALL, Some(3)),
                Method::GupWith(f) => (f, Some(3)),
                Method::GupReservationOnly(r) => (PruningFeatures::RESERVATION_ONLY, r),
                _ => unreachable!(),
            };
            let gup_config = GupConfig {
                features,
                reservation_size_limit: r,
                limits,
                ..GupConfig::default()
            };
            (Engine::Gup, gup_config)
        }
        Method::Daf => (
            Engine::Daf,
            GupConfig {
                limits,
                ..GupConfig::default()
            },
        ),
        Method::GqlG => (
            Engine::Gql,
            GupConfig {
                limits,
                ..GupConfig::default()
            },
        ),
        Method::GqlR => (
            Engine::Ri,
            GupConfig {
                limits,
                ..GupConfig::default()
            },
        ),
        Method::RapidMatchLike => (
            Engine::Join,
            GupConfig {
                limits,
                ..GupConfig::default()
            },
        ),
    }
}

/// Runs `method` on a single query through `session`'s shared prepared data, under
/// the suite's per-query limits.
pub fn run_method(
    method: Method,
    query: &Graph,
    session: &Session,
    config: &SuiteConfig,
) -> RunRecord {
    let start = Instant::now();
    let (engine, gup_config) = method_request(method, config);
    // The harness only aggregates counts, so it streams through a counting sink —
    // nothing is materialized anywhere.
    let record = match session
        .query(query)
        .method(engine)
        .config(gup_config)
        .timeout(config.per_query_timeout)
        .run_with_sink(&mut CountOnly::new())
    {
        Ok(stats) => RunRecord {
            embeddings: stats.embeddings,
            recursions: stats.recursions,
            futile_recursions: stats.futile_recursions,
            elapsed: Duration::ZERO,
            timed_out: stats.hit_time_limit,
        },
        Err(_) => RunRecord::default(),
    };
    RunRecord {
        elapsed: start.elapsed(),
        ..record
    }
}

/// Runs `method` over a whole query set against `session`'s shared prepared data,
/// applying the paper-style per-set budget: when the accumulated time exceeds the
/// budget the set is marked DNF and abandoned.
pub fn run_query_set(
    method: Method,
    queries: &[Graph],
    session: &Session,
    config: &SuiteConfig,
) -> SetSummary {
    let mut summary = SetSummary::default();
    for query in queries {
        if summary.total_time > config.per_set_budget {
            summary.dnf = true;
            break;
        }
        let record = run_method(method, query, session, config);
        summary.queries += 1;
        summary.total_time += record.elapsed;
        summary.total_recursions += record.recursions;
        summary.total_futile += record.futile_recursions;
        if record.elapsed >= config.slow_threshold {
            summary.over_slow += 1;
        }
        if record.elapsed >= config.very_slow_threshold {
            summary.over_very_slow += 1;
        }
        if record.timed_out {
            summary.timed_out += 1;
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::fixtures;

    #[test]
    fn method_names_are_stable() {
        assert_eq!(Method::Gup.name(), "GuP");
        assert_eq!(Method::Daf.name(), "DAF");
        assert_eq!(Method::RapidMatchLike.name(), "RM");
        assert_eq!(Method::GupReservationOnly(Some(3)).name(), "GuP[r=3]");
        assert_eq!(Method::GupReservationOnly(None).name(), "GuP[r=inf]");
        assert_eq!(
            Method::GupWith(PruningFeatures::NONE).name(),
            "GuP[Baseline]"
        );
        assert_eq!(Method::HEADLINE.len(), 5);
    }

    #[test]
    fn all_methods_agree_on_the_paper_example() {
        let (q, d) = fixtures::paper_example();
        let config = SuiteConfig::smoke();
        let session = Session::new(d);
        let mut counts = Vec::new();
        for m in Method::HEADLINE {
            let r = run_method(m, &q, &session, &config);
            counts.push(r.embeddings);
            assert!(!r.timed_out);
        }
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
        assert!(counts[0] > 0);
    }

    #[test]
    fn query_set_runner_aggregates() {
        let config = SuiteConfig::smoke();
        let session = config.session(Dataset::Yeast);
        let spec = QuerySetSpec::PAPER_SETS[0]; // 8S
        let queries = config.query_set(session.data(), spec);
        assert!(!queries.is_empty());
        let summary = run_query_set(Method::Gup, &queries, &session, &config);
        assert_eq!(summary.queries, queries.len());
        assert!(summary.total_recursions > 0);
        assert!(summary.average_ms() >= 0.0);
    }

    #[test]
    fn empty_query_set_gives_empty_summary() {
        let config = SuiteConfig::smoke();
        let session = config.session(Dataset::Yeast);
        let summary = run_query_set(Method::Gup, &[], &session, &config);
        assert_eq!(summary.queries, 0);
        assert_eq!(summary.average_ms(), 0.0);
        assert!(!summary.dnf);
    }
}
