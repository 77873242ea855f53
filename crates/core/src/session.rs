//! Prepared-data sessions: build per-data-graph state once, run many queries.
//!
//! The paper evaluates on *query sets* — hundreds of queries against one data graph
//! (§4.1) — and a serving deployment looks the same: the data graph is long-lived,
//! queries arrive in batches and from many threads. This module is the front door for
//! that shape:
//!
//! * [`Session`] owns an [`Arc<PreparedData>`](PreparedData) — the data graph plus
//!   its label inverted index, the NLF signature arena, and degree/label bounds,
//!   built **once** — and hands out query requests that reuse it. Sessions are cheap
//!   to clone and [`Session::from_prepared`] lets many threads share one index.
//! * [`QueryRequest`] is a builder over one query: pick the engine
//!   ([`Engine`] covers GuP sequential/parallel, the three backtracking baselines,
//!   the join baseline, and the brute-force oracle), set limits, then [`run`],
//!   [`count`], or stream into any [`EmbeddingSink`] via [`run_with_sink`].
//! * [`Session::run_batch`] executes a whole query set under one shared deadline
//!   with per-query stats and amortized preparation time in its [`BatchReport`].
//! * [`Session::with_result_cache`] opts into a bounded, engine-agnostic memo for
//!   the `count`/`first_k` finishers (hit/miss counters on [`SessionCounters`],
//!   timed-out results bypassed, [`Session::invalidate_cache`] on data change) —
//!   the serving front-end's answer to the same query arriving twice.
//!
//! Every engine family runs against the same shared `PreparedData`. Each engine has
//! one constructor that runs the candidate filter, and it takes a `PreparedData`;
//! the `(query, data)` constructors elsewhere in the workspace only prepare a
//! private index and call it.
//!
//! Queries of up to 256 vertices are accepted: each request is dispatched to the
//! narrowest monomorphized query-vertex bitset width that fits
//! ([`Qv64`]/[`Qv128`]/[`Qv256`]), so ≤64-vertex queries compile to exactly the
//! one-word engine while larger template queries run on two or four words.
//!
//! [`Qv64`]: gup_graph::Qv64
//! [`Qv128`]: gup_graph::Qv128
//! [`Qv256`]: gup_graph::Qv256
//!
//! [`run`]: QueryRequest::run
//! [`count`]: QueryRequest::count
//! [`run_with_sink`]: QueryRequest::run_with_sink
//!
//! ```
//! use gup::session::{Engine, Session};
//! use gup_graph::fixtures::paper_example;
//!
//! let (query, data) = paper_example();
//! let session = Session::new(data); // prepare once
//!
//! // Default engine (GuP), builder-style knobs.
//! let n = session.query(&query).unlimited().count().unwrap();
//! assert_eq!(n, 4);
//!
//! // The same query through another engine, first two matches only.
//! let outcome = session
//!     .query(&query)
//!     .method(Engine::Daf)
//!     .first_k(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.embeddings.len(), 2);
//!
//! // A query set through one shared index: prep time is reported once.
//! let report = session.run_batch(&[query.clone(), query]);
//! assert_eq!(report.total_embeddings(), 8);
//! ```

use crate::config::{GupConfig, SearchLimits};
use crate::gcs::GupError;
use crate::matcher::GupMatcher;
use crate::stats::SearchStats;
use gup_baselines::{brute_force, BacktrackingBaseline, BaselineError, BaselineKind, JoinBaseline};
use gup_graph::deadline::{deadline_after, deadline_passed, Stopwatch};
use gup_graph::delta::{DeltaEffects, DeltaError, GraphDelta};
use gup_graph::query::QueryGraphError;
use gup_graph::sink::{min_limit, CollectAll, CountOnly, EmbeddingSink, FirstK};
use gup_graph::{Graph, Label, PreparedData, QueryGraph, VertexId};
use gup_order::OrderingStrategy;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The engine families a session can dispatch a query to. All of them run against
/// the session's shared [`PreparedData`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// GuP with guard-based pruning (the configuration's [`PruningFeatures`] decide
    /// which guards; `threads > 1` selects the work-stealing parallel driver).
    ///
    /// [`PruningFeatures`]: crate::PruningFeatures
    Gup,
    /// Plain candidate-space backtracking (no guards, VC-style order).
    Plain,
    /// DAF-style failing-set backtracking.
    Daf,
    /// GraphQL-style filtering + ordering.
    Gql,
    /// RI-style ordering.
    Ri,
    /// Edge-at-a-time join enumeration (RapidMatch stand-in).
    Join,
    /// The brute-force oracle (small instances only). Time limits and the batch
    /// deadline are sampled periodically *inside* the enumeration, so even a
    /// zero-match query observes them.
    BruteForce,
}

impl Engine {
    /// Every engine family, for sweeps and differential tests.
    pub const ALL: [Engine; 7] = [
        Engine::Gup,
        Engine::Plain,
        Engine::Daf,
        Engine::Gql,
        Engine::Ri,
        Engine::Join,
        Engine::BruteForce,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Gup => "GuP",
            Engine::Plain => "Plain-BT",
            Engine::Daf => "DAF-FS",
            Engine::Gql => "GQL-G",
            Engine::Ri => "GQL-R",
            Engine::Join => "RM-join",
            Engine::BruteForce => "BruteForce",
        }
    }
}

/// Errors produced when a session cannot run a query. A budget that runs out — even
/// during the candidate filter pass — is not an error: it comes back as
/// `hit_time_limit` in [`SearchStats`].
#[derive(Debug)]
pub enum SessionError {
    /// The query graph is unusable (empty, disconnected, or too large).
    InvalidQuery(QueryGraphError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::InvalidQuery(e) => write!(f, "invalid query graph: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Monotonic counters a session keeps about the queries it has dispatched.
/// Shared by every clone of the session (clones share one `Arc`), so a serving
/// front-end can observe one set of totals across all of its worker threads —
/// and, via [`Session::with_counters`], across data-graph reloads.
#[derive(Debug, Default)]
pub struct SessionCounters {
    queries_started: AtomicU64,
    queries_ok: AtomicU64,
    queries_failed: AtomicU64,
    queries_timed_out: AtomicU64,
    embeddings_reported: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_invalidations: AtomicU64,
    deltas_applied: AtomicU64,
    incremental_matches: AtomicU64,
}

impl SessionCounters {
    /// Fresh counters, all zero.
    pub fn new() -> Self {
        SessionCounters::default()
    }

    /// A consistent-enough snapshot for reporting (each counter is read atomically;
    /// the set is not a transaction, which is fine for monitoring).
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            // Relaxed: monitoring counters, each read atomically for display;
            // no other memory is synchronized through them.
            queries_started: self.queries_started.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_failed: self.queries_failed.load(Ordering::Relaxed),
            queries_timed_out: self.queries_timed_out.load(Ordering::Relaxed),
            embeddings_reported: self.embeddings_reported.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_invalidations: self.cache_invalidations.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            incremental_matches: self.incremental_matches.load(Ordering::Relaxed),
        }
    }

    /// Records `n` new embeddings reported by an incremental (delta-localized)
    /// match pass. Called by the continuous-matching layer, which streams new
    /// matches outside the regular query dispatch path.
    pub fn record_incremental_matches(&self, n: u64) {
        self.incremental_matches.fetch_add(n, Ordering::Relaxed); // Relaxed: stats only
    }

    fn record_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
    }

    fn record_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
    }

    // All orderings Relaxed: pure monitoring counters — increments race only
    // against other increments, nothing reads them for control flow.
    fn record(&self, result: &Result<SearchStats, SessionError>) {
        self.queries_started.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
        match result {
            Ok(stats) => {
                self.queries_ok.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
                self.embeddings_reported
                    .fetch_add(stats.embeddings, Ordering::Relaxed); // Relaxed: stats only
                if stats.hit_time_limit {
                    self.queries_timed_out.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
                }
            }
            Err(_) => {
                self.queries_failed.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
            }
        }
    }
}

/// A point-in-time copy of a session's [`SessionCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Queries dispatched (valid or not).
    pub queries_started: u64,
    /// Queries that ran to a result (including early-terminated ones).
    pub queries_ok: u64,
    /// Queries rejected with a [`SessionError`].
    pub queries_failed: u64,
    /// Successful queries that reported `hit_time_limit`.
    pub queries_timed_out: u64,
    /// Total embeddings reported across all successful queries.
    pub embeddings_reported: u64,
    /// Cacheable finishers answered from the session result cache.
    pub cache_hits: u64,
    /// Cacheable finishers that had to run (and, when complete, populated the cache).
    pub cache_misses: u64,
    /// Times the session result cache was dropped wholesale
    /// ([`Session::invalidate_cache`]: data-graph reloads and delta batches).
    pub cache_invalidations: u64,
    /// Delta batches applied through [`Session::apply_deltas`].
    pub deltas_applied: u64,
    /// New embeddings reported by incremental (delta-localized) match passes.
    pub incremental_matches: u64,
}

/// Default entry capacity a serving front-end passes to
/// [`Session::with_result_cache`].
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// What a cacheable finisher asked for — part of the cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum CacheMode {
    /// [`QueryRequest::count`] / [`QueryRequest::count_stats`].
    Count,
    /// [`QueryRequest::run`] with [`QueryRequest::first_k`] set to this `k`.
    FirstK(u64),
}

/// Canonicalized key of one cacheable query request: the query's labeled
/// adjacency (labels by vertex id + the canonical `a < b` sorted edge list)
/// plus the engine-agnostic semantics knobs — the embedding cap and the
/// finisher mode. Engine, thread count, pruning features, and time budgets are
/// deliberately **not** part of the key: every engine family answers the same
/// question, a complete result satisfies any budget, and results that were
/// truncated by a budget are never stored.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct CacheKey {
    labels: Vec<Label>,
    edges: Vec<(VertexId, VertexId)>,
    limit: Option<u64>,
    mode: CacheMode,
}

/// One memoized finisher result (embeddings empty for [`CacheMode::Count`]).
#[derive(Clone, Debug)]
struct CachedResult {
    stats: SearchStats,
    embeddings: Vec<Vec<VertexId>>,
}

/// Bounded FIFO memo behind the session's cacheable finishers.
#[derive(Debug, Default)]
struct ResultCache {
    map: HashMap<CacheKey, CachedResult>,
    order: VecDeque<CacheKey>,
    capacity: usize,
}

impl ResultCache {
    fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: CacheKey, value: CachedResult) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => break,
            }
        }
        self.order.push_back(key.clone());
        self.map.insert(key, value);
    }

    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }
}

/// A prepared-data session: one shared, immutable data-graph index plus default
/// query configuration. See the [module docs](self) for the workflow.
#[derive(Clone)]
pub struct Session {
    prepared: Arc<PreparedData>,
    defaults: GupConfig,
    counters: Arc<SessionCounters>,
    /// Result memo shared by every clone of this session (like the counters).
    /// Capacity 0 — the default — disables caching entirely.
    cache: Arc<Mutex<ResultCache>>,
}

impl Session {
    /// Prepares `data` (one pass building the signature arena and statistics) and
    /// opens a session over it with the default [`GupConfig`].
    pub fn new(data: Graph) -> Self {
        Session::from_prepared(Arc::new(PreparedData::new(data)))
    }

    /// Opens a session over an already-prepared index. This is how multiple threads
    /// (or multiple sessions with different defaults) share one `PreparedData`.
    pub fn from_prepared(prepared: Arc<PreparedData>) -> Self {
        Session {
            prepared,
            defaults: GupConfig::default(),
            counters: Arc::new(SessionCounters::new()),
            cache: Arc::new(Mutex::new(ResultCache::default())),
        }
    }

    /// Enables the session result cache with room for `capacity` memoized
    /// results (`0` disables it — the default). The cache memoizes the
    /// [`count`](QueryRequest::count) and
    /// [`first_k` + `run`](QueryRequest::run) finishers, keyed on the query's
    /// labeled adjacency and the embedding cap; see the field docs on
    /// [`CounterSnapshot`] for the hit/miss counters it feeds.
    ///
    /// Caching is opt-in because a hit answers from the memo *without running
    /// an engine*: correct (results are engine-agnostic), but not what a
    /// differential or ablation harness wants. Serving front-ends — where the
    /// same query arriving twice is common — turn it on.
    pub fn with_result_cache(mut self, capacity: usize) -> Self {
        self.cache = Arc::new(Mutex::new(ResultCache {
            capacity,
            ..ResultCache::default()
        }));
        self
    }

    /// Drops every memoized result and bumps the `cache_invalidations` counter.
    /// Every `PreparedData` mutation routes through here: `gup-serve` calls it on
    /// `reload`, and [`Session::apply_deltas`] calls it on every delta batch.
    pub fn invalidate_cache(&self) {
        self.cache.lock().clear();
        self.counters
            .cache_invalidations
            .fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
    }

    /// Entry capacity of the session result cache (0 when caching is disabled).
    pub fn cache_capacity(&self) -> usize {
        self.cache.lock().capacity
    }

    /// Applies a batch of [`GraphDelta`]s, returning a new session over the
    /// incrementally-updated index plus the batch's net [`DeltaEffects`].
    ///
    /// The new session shares this session's defaults and counters (running
    /// totals survive the mutation, like a `gup-serve` reload) and gets a fresh
    /// result cache of the same capacity; this session's cache is invalidated
    /// through [`Session::invalidate_cache`], since clones holding the old
    /// `Arc` would otherwise serve answers for a graph the caller considers
    /// stale. On error nothing is invalidated — the batch was rejected whole.
    pub fn apply_deltas(
        &self,
        deltas: &[GraphDelta],
    ) -> Result<(Session, DeltaEffects), DeltaError> {
        let (prepared, effects) = self.prepared.apply_with_effects(deltas)?;
        self.invalidate_cache();
        self.counters.deltas_applied.fetch_add(1, Ordering::Relaxed); // Relaxed: stats only
        let next = Session::from_prepared(Arc::new(prepared))
            .with_defaults(self.defaults.clone())
            .with_counters(Arc::clone(&self.counters))
            .with_result_cache(self.cache_capacity());
        Ok((next, effects))
    }

    /// Number of results currently memoized (0 when caching is disabled).
    pub fn cached_results(&self) -> usize {
        self.cache.lock().map.len()
    }

    /// Replaces the session's default configuration (each request clones it and may
    /// override knobs per query).
    pub fn with_defaults(mut self, defaults: GupConfig) -> Self {
        self.defaults = defaults;
        self
    }

    /// Shares an existing counter set instead of this session's own — how a serving
    /// front-end keeps one running total across data-graph reloads (each reload
    /// builds a new session over the new graph but threads the old counters in).
    pub fn with_counters(mut self, counters: Arc<SessionCounters>) -> Self {
        self.counters = counters;
        self
    }

    /// The session's query counters (shared by all clones of this session).
    pub fn counters(&self) -> &Arc<SessionCounters> {
        &self.counters
    }

    /// The shared prepared index.
    pub fn prepared(&self) -> &Arc<PreparedData> {
        &self.prepared
    }

    /// The underlying data graph.
    pub fn data(&self) -> &Graph {
        self.prepared.graph()
    }

    /// Time spent preparing the index (paid once per session).
    pub fn prep_time(&self) -> Duration {
        self.prepared.prep_time()
    }

    /// Starts a request for one query against this session's prepared data.
    pub fn query<'s, 'q>(&'s self, query: &'q Graph) -> QueryRequest<'s, 'q> {
        QueryRequest {
            session: self,
            query,
            engine: Engine::Gup,
            config: self.defaults.clone(),
            threads: 1,
            first_k: None,
        }
    }

    /// Starts a batch request (one configuration applied to a whole query set).
    pub fn batch(&self) -> BatchRequest<'_> {
        BatchRequest {
            session: self,
            engine: Engine::Gup,
            config: self.defaults.clone(),
            threads: 1,
            timeout: None,
        }
    }

    /// Runs a query set under the session defaults: every query through the shared
    /// prepared index, one shared deadline (when the defaults carry one),
    /// per-query stats and timing. Equivalent to `self.batch().run(queries)`.
    pub fn run_batch(&self, queries: &[Graph]) -> BatchReport {
        self.batch().run(queries)
    }
}

/// Result of [`QueryRequest::run`]: materialized embeddings (over original
/// query-vertex ids) plus the search counters.
#[derive(Clone, Debug, Default)]
pub struct QueryOutcome {
    /// The embeddings retained by the request's sink (`first_k` keeps at most `k`).
    pub embeddings: Vec<Vec<VertexId>>,
    /// Unified search counters (baseline engines fill the subset they track).
    pub stats: SearchStats,
}

impl QueryOutcome {
    /// Number of embeddings found (whether or not they were materialized).
    pub fn embedding_count(&self) -> u64 {
        self.stats.embeddings
    }
}

/// Builder for one query against a [`Session`]. Obtained from [`Session::query`];
/// finished with [`QueryRequest::run`], [`QueryRequest::count`], or
/// [`QueryRequest::run_with_sink`].
pub struct QueryRequest<'s, 'q> {
    session: &'s Session,
    query: &'q Graph,
    engine: Engine,
    config: GupConfig,
    threads: usize,
    first_k: Option<u64>,
}

impl<'s, 'q> QueryRequest<'s, 'q> {
    /// Selects the engine family (default: [`Engine::Gup`]).
    pub fn method(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Number of worker threads for [`Engine::Gup`] (the work-stealing driver;
    /// other engines are sequential and ignore this). Default: 1.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Stops the search after `n` embeddings.
    pub fn limit(mut self, n: u64) -> Self {
        self.config.limits.max_embeddings = Some(n);
        self
    }

    /// Removes the embedding and time limits.
    pub fn unlimited(mut self) -> Self {
        self.config.limits = SearchLimits::UNLIMITED;
        self
    }

    /// Per-query wall-clock limit, starting now: the same as
    /// `deadline(now + limit)`.
    pub fn timeout(self, limit: Duration) -> Self {
        self.deadline(deadline_after(limit))
    }

    /// Absolute per-query deadline — the knob for callers that fix the budget
    /// *before* the query runs (a serving front-end stamps the deadline at
    /// admission, so time spent queued counts against the request's budget). When
    /// a request sets more than one deadline (this, [`QueryRequest::timeout`], or
    /// one in the configuration), the earliest wins.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.config.limits.tighten_deadline(deadline);
        self
    }

    /// Retain only the first `k` embeddings; the search stops at the `k`-th match
    /// ([`QueryRequest::run`] uses a [`FirstK`] sink, the other finishers fold `k`
    /// into the embedding limit).
    pub fn first_k(mut self, k: u64) -> Self {
        self.first_k = Some(k);
        self
    }

    /// Selects the pruning features for [`Engine::Gup`] (ablation-style toggles).
    pub fn features(mut self, features: crate::config::PruningFeatures) -> Self {
        self.config.features = features;
        self
    }

    /// Replaces the whole configuration for this request.
    pub fn config(mut self, config: GupConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the query, materializing embeddings (all of them, or the first `k` when
    /// [`QueryRequest::first_k`] was set) over original query-vertex ids.
    ///
    /// With [`QueryRequest::first_k`] set this finisher consults the session
    /// result cache (when enabled via [`Session::with_result_cache`]); a hit may
    /// return a first-`k` set found by a different engine — any valid one, since
    /// the key is engine-agnostic. Collect-all runs are never cached (unbounded
    /// payload).
    pub fn run(self) -> Result<QueryOutcome, SessionError> {
        if let Some(k) = self.first_k {
            let (stats, embeddings) = self.finish_cached(CacheMode::FirstK(k))?;
            Ok(QueryOutcome { embeddings, stats })
        } else {
            let mut sink = CollectAll::new();
            let stats = self.run_with_sink(&mut sink)?;
            Ok(QueryOutcome {
                embeddings: sink.into_embeddings(),
                stats,
            })
        }
    }

    /// Counts embeddings without materializing any (the cheapest finisher).
    /// Consults the session result cache when one is enabled
    /// ([`Session::with_result_cache`]).
    pub fn count(self) -> Result<u64, SessionError> {
        Ok(self.count_stats()?.embeddings)
    }

    /// Like [`QueryRequest::count`], but returns the full [`SearchStats`] —
    /// what a serving front-end reports per response line. On a cache hit the
    /// stats are the memoized run's (the work that was actually performed,
    /// once).
    pub fn count_stats(self) -> Result<SearchStats, SessionError> {
        let (stats, _embeddings) = self.finish_cached(CacheMode::Count)?;
        Ok(stats)
    }

    /// Shared implementation of the cacheable finishers: look up the memo,
    /// else run and (for complete results) populate it. Results truncated by a
    /// wall-clock budget are engine- and budget-dependent, so they are never
    /// stored; hits still feed the regular query counters so front-end totals
    /// stay meaningful.
    fn finish_cached(
        self,
        mode: CacheMode,
    ) -> Result<(SearchStats, Vec<Vec<VertexId>>), SessionError> {
        let session = self.session;
        let enabled = session.cache.lock().capacity > 0;
        let key = enabled.then(|| CacheKey {
            labels: self.query.labels().to_vec(),
            edges: self.query.edges().collect(),
            // The effective embedding cap: `first_k` folds into the limit for
            // counting finishers, exactly as `run_with_sink` applies it.
            limit: min_limit(self.config.limits.max_embeddings, self.first_k),
            mode,
        });
        if let Some(key) = &key {
            if let Some(hit) = session.cache.lock().get(key) {
                session.counters.record_cache_hit();
                session.counters.record(&Ok(hit.stats.clone()));
                return Ok((hit.stats, hit.embeddings));
            }
            session.counters.record_cache_miss();
        }
        let outcome = match mode {
            CacheMode::Count => {
                let mut sink = CountOnly::new();
                let stats = self.run_with_sink(&mut sink)?;
                (stats, Vec::new())
            }
            CacheMode::FirstK(k) => {
                let mut sink = FirstK::new(k);
                let stats = self.run_with_sink(&mut sink)?;
                (stats, sink.into_embeddings())
            }
        };
        if let Some(key) = key {
            if !outcome.0.hit_time_limit {
                session.cache.lock().insert(
                    key,
                    CachedResult {
                        stats: outcome.0.clone(),
                        embeddings: outcome.1.clone(),
                    },
                );
            }
        }
        Ok(outcome)
    }

    /// Runs the query, streaming every embedding into `sink` over original
    /// query-vertex ids — the same [`EmbeddingSink`] protocol every engine speaks.
    /// Returns the unified [`SearchStats`].
    pub fn run_with_sink(
        mut self,
        sink: &mut dyn EmbeddingSink,
    ) -> Result<SearchStats, SessionError> {
        if let Some(k) = self.first_k {
            self.config.limits.max_embeddings =
                min_limit(self.config.limits.max_embeddings, Some(k));
        }
        dispatch(
            self.session,
            self.query,
            self.engine,
            self.config,
            self.threads,
            sink,
        )
    }
}

/// Routes one query to its engine family, all against the session's shared
/// [`PreparedData`] and under the one [`SearchLimits`] every engine takes. The
/// engine is monomorphized over the narrowest query-vertex bitset width that fits
/// the query (≤64 vertices compile to exactly the one-word fast path). A deadline
/// that has already passed — e.g. spent by an earlier query of a batch — fails
/// fast with `hit_time_limit` before any filter pass runs. The filter pass itself
/// samples the deadline at a work-bounded cadence, so a budget smaller than the
/// candidate-space build also comes back as `hit_time_limit` (within roughly one
/// sampling interval) instead of blowing through the budget.
fn dispatch(
    session: &Session,
    query: &Graph,
    engine: Engine,
    config: GupConfig,
    threads: usize,
    sink: &mut dyn EmbeddingSink,
) -> Result<SearchStats, SessionError> {
    let result = dispatch_inner(session, query, engine, config, threads, sink);
    session.counters.record(&result);
    result
}

fn dispatch_inner(
    session: &Session,
    query: &Graph,
    engine: Engine,
    config: GupConfig,
    threads: usize,
    sink: &mut dyn EmbeddingSink,
) -> Result<SearchStats, SessionError> {
    let prepared: &PreparedData = &session.prepared;
    let limits = config.limits;
    // An expired deadline must not buy a candidate-space build, a filter pass, or
    // an unlimited run.
    if limits.deadline.is_some_and(deadline_passed) {
        return Ok(timed_out_stats());
    }
    match engine {
        Engine::Gup => crate::with_qv_width!(query.vertex_count(), W, {
            let matcher = match GupMatcher::<W>::with_prepared(query, prepared, config) {
                Ok(matcher) => matcher,
                Err(GupError::FilterTimeout) => return Ok(timed_out_stats()),
                Err(GupError::InvalidQuery(e)) => return Err(SessionError::InvalidQuery(e)),
            };
            Ok(if threads > 1 {
                matcher.run_parallel_with_sink(threads, sink)
            } else {
                matcher.run_with_sink(sink)
            })
        }),
        Engine::Plain | Engine::Daf | Engine::Gql | Engine::Ri => {
            // This arm is exactly the backtracking-baseline engines, so the kind
            // can be matched directly — no Option, nothing to unwrap.
            let kind = match engine {
                Engine::Daf => BaselineKind::DafFailingSet,
                Engine::Gql => BaselineKind::GqlStyle,
                Engine::Ri => BaselineKind::RiStyle,
                _ => BaselineKind::Plain,
            };
            crate::with_qv_width!(query.vertex_count(), W, {
                match BacktrackingBaseline::<W>::with_prepared(query, prepared, kind, limits) {
                    Ok(matcher) => Ok(matcher.run_with_sink(sink)),
                    Err(e) => baseline_error(e),
                }
            })
        }
        Engine::Join => {
            let order = OrderingStrategy::GqlStyle;
            match JoinBaseline::with_prepared(query, prepared, order, limits) {
                Ok(matcher) => Ok(matcher.run_with_sink(sink)),
                Err(e) => baseline_error(e),
            }
        }
        Engine::BruteForce => {
            // Validate up front so the oracle rejects exactly the queries every
            // other engine rejects (it could otherwise enumerate disconnected ones).
            QueryGraph::new(query.clone()).map_err(SessionError::InvalidQuery)?;
            Ok(brute_force::run_with_sink(
                query,
                prepared.graph(),
                limits,
                sink,
            ))
        }
    }
}

/// The uniform outcome for a budget that expired before or during the filter
/// pass: not an error, just a search that never got to run.
fn timed_out_stats() -> SearchStats {
    SearchStats {
        hit_time_limit: true,
        ..SearchStats::default()
    }
}

/// Maps a baseline construction error onto the session's outcome: a filter-pass
/// timeout is a timed-out run, an unusable query is the uniform error.
fn baseline_error(e: BaselineError) -> Result<SearchStats, SessionError> {
    match e {
        BaselineError::FilterTimeout => Ok(timed_out_stats()),
        BaselineError::InvalidQuery(e) => Err(SessionError::InvalidQuery(e)),
    }
}

/// Builder for a batch run: one engine + configuration applied to a whole query
/// set. Obtained from [`Session::batch`].
pub struct BatchRequest<'s> {
    session: &'s Session,
    engine: Engine,
    config: GupConfig,
    threads: usize,
    /// Budget of the whole batch; its clock starts when [`BatchRequest::run`] does.
    timeout: Option<Duration>,
}

impl<'s> BatchRequest<'s> {
    /// Selects the engine family (default: [`Engine::Gup`]).
    pub fn method(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Number of worker threads for [`Engine::Gup`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Per-query embedding cap.
    pub fn limit(mut self, n: u64) -> Self {
        self.config.limits.max_embeddings = Some(n);
        self
    }

    /// Removes the embedding and time limits.
    pub fn unlimited(mut self) -> Self {
        self.config.limits = SearchLimits::UNLIMITED;
        self.timeout = None;
        self
    }

    /// Wall-clock budget for the **whole batch**: turned into one absolute deadline
    /// when [`BatchRequest::run`] starts, shared by every query (and every parallel
    /// worker).
    pub fn timeout(mut self, limit: Duration) -> Self {
        self.timeout = Some(limit);
        self
    }

    /// Pruning features for [`Engine::Gup`].
    pub fn features(mut self, features: crate::config::PruningFeatures) -> Self {
        self.config.features = features;
        self
    }

    /// Runs the whole query set through the shared prepared index, counting each
    /// query's embeddings through one reused counting sink. Invalid queries are
    /// reported per entry instead of aborting the batch.
    pub fn run(&self, queries: &[Graph]) -> BatchReport {
        let mut config = self.config.clone();
        // One shared deadline: the batch's time budget starts now and is observed by
        // every query of the batch.
        if let Some(limit) = self.timeout {
            config.limits.tighten_deadline(deadline_after(limit));
        }
        let prep_time = self.session.prep_time();
        let prep_amortized = if queries.is_empty() {
            Duration::ZERO
        } else {
            prep_time / queries.len() as u32
        };
        let batch_watch = Stopwatch::started();
        let mut sink = CountOnly::new();
        let mut reports = Vec::with_capacity(queries.len());
        for (index, query) in queries.iter().enumerate() {
            let watch = Stopwatch::started();
            let result = dispatch(
                self.session,
                query,
                self.engine,
                config.clone(),
                self.threads,
                &mut sink,
            );
            reports.push(QueryReport {
                index,
                result,
                elapsed: watch.elapsed(),
                prep_amortized,
            });
        }
        BatchReport {
            prep_time,
            prepared_index_bytes: self.session.prepared.index_bytes(),
            total_elapsed: batch_watch.elapsed(),
            queries: reports,
        }
    }
}

/// Per-query entry of a [`BatchReport`].
#[derive(Debug)]
pub struct QueryReport {
    /// Position of the query in the batch.
    pub index: usize,
    /// The query's unified stats, or why it could not run.
    pub result: Result<SearchStats, SessionError>,
    /// Wall-clock time of this query alone (preparation excluded — that is the
    /// point of the session model).
    pub elapsed: Duration,
    /// The session's one-time preparation cost divided by the batch size: add it to
    /// `elapsed` to compare against a one-shot `(query, data)` run honestly.
    pub prep_amortized: Duration,
}

impl QueryReport {
    /// Embeddings found (0 for failed queries).
    pub fn embeddings(&self) -> u64 {
        self.result.as_ref().map_or(0, |s| s.embeddings)
    }
}

/// Result of a batch run: per-query reports plus the once-per-session costs.
#[derive(Debug)]
pub struct BatchReport {
    /// Time the session spent preparing the shared index (paid once, **not** per
    /// query; also available as [`Session::prep_time`]).
    pub prep_time: Duration,
    /// Heap bytes of the shared prepared index.
    pub prepared_index_bytes: usize,
    /// Wall-clock time of the whole batch (preparation excluded).
    pub total_elapsed: Duration,
    /// One report per query, in input order.
    pub queries: Vec<QueryReport>,
}

impl BatchReport {
    /// Total embeddings found across the batch.
    pub fn total_embeddings(&self) -> u64 {
        self.queries.iter().map(QueryReport::embeddings).sum()
    }

    /// Number of queries that ran without error.
    pub fn succeeded(&self) -> usize {
        self.queries.iter().filter(|q| q.result.is_ok()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PruningFeatures;
    use gup_graph::fixtures;

    #[test]
    fn every_engine_agrees_on_the_paper_example() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        for engine in Engine::ALL {
            let n = session.query(&query).method(engine).unlimited().count();
            assert_eq!(n.unwrap(), 4, "engine {}", engine.name());
        }
    }

    #[test]
    fn builder_knobs_compose() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        let outcome = session
            .query(&query)
            .features(PruningFeatures::NONE)
            .threads(2)
            .limit(3)
            .run()
            .unwrap();
        assert_eq!(outcome.embedding_count(), 3);
        assert_eq!(outcome.embeddings.len(), 3);
        let first = session.query(&query).first_k(2).run().unwrap();
        assert_eq!(first.embeddings.len(), 2);
        assert!(first.stats.terminated_early());
    }

    #[test]
    fn invalid_queries_error_uniformly() {
        let (_q, data) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let session = Session::new(data);
        for engine in Engine::ALL {
            let err = session
                .query(&disconnected)
                .method(engine)
                .count()
                .unwrap_err();
            assert!(
                matches!(err, SessionError::InvalidQuery(_)),
                "engine {}",
                engine.name()
            );
            assert!(format!("{err}").contains("invalid query"));
        }
    }

    #[test]
    fn batch_reports_prep_once_and_per_query_stats() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        let queries = vec![query.clone(), fixtures::triangle_query(), query];
        let report = session.batch().unlimited().run(&queries);
        assert_eq!(report.queries.len(), 3);
        assert_eq!(report.succeeded(), 3);
        // Paper query twice (4 each) + the triangle in the paper data graph (2).
        assert_eq!(report.total_embeddings(), 10);
        for q in &report.queries {
            assert_eq!(q.prep_amortized, report.prep_time / 3);
        }
        assert_eq!(
            report.prepared_index_bytes,
            session.prepared().index_bytes()
        );
    }

    #[test]
    fn batch_isolates_invalid_queries() {
        let (query, data) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let session = Session::new(data);
        let report = session
            .batch()
            .method(Engine::Daf)
            .unlimited()
            .run(&[query, disconnected]);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.total_embeddings(), 4);
        assert!(report.queries[1].result.is_err());
    }

    #[test]
    fn sessions_share_one_prepared_index() {
        let (query, data) = fixtures::paper_example();
        let prepared = Arc::new(PreparedData::new(data));
        let a = Session::from_prepared(Arc::clone(&prepared));
        let b = Session::from_prepared(Arc::clone(&prepared));
        assert_eq!(a.query(&query).unlimited().count().unwrap(), 4);
        assert_eq!(b.query(&query).unlimited().count().unwrap(), 4);
        assert!(Arc::ptr_eq(a.prepared(), b.prepared()));
    }

    #[test]
    fn brute_force_honors_an_expired_deadline() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        // A deadline already in the past stops the oracle at its first report.
        let stats = session
            .query(&query)
            .method(Engine::BruteForce)
            .unlimited()
            .timeout(Duration::ZERO)
            .run_with_sink(&mut CountOnly::new())
            .unwrap();
        assert_eq!(stats.embeddings, 0);
        assert!(stats.hit_time_limit);
        // And the same through a batch's shared deadline.
        let report = session
            .batch()
            .method(Engine::BruteForce)
            .unlimited()
            .timeout(Duration::ZERO)
            .run(&[query]);
        assert!(report.queries[0].result.as_ref().unwrap().hit_time_limit);
    }

    #[test]
    fn counters_accumulate_across_clones_and_reloads() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data.clone());
        assert_eq!(session.counters().snapshot(), CounterSnapshot::default());
        session.query(&query).unlimited().count().unwrap();
        let clone = session.clone();
        clone.query(&query).unlimited().count().unwrap();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let _ = clone.query(&disconnected).count();
        // Clones share one counter set.
        let snap = session.counters().snapshot();
        assert_eq!(snap.queries_started, 3);
        assert_eq!(snap.queries_ok, 2);
        assert_eq!(snap.queries_failed, 1);
        assert_eq!(snap.embeddings_reported, 8);
        // A "reload" (new session, same counters) keeps the running totals.
        let reloaded = Session::new(data).with_counters(Arc::clone(session.counters()));
        reloaded.query(&query).unlimited().count().unwrap();
        assert_eq!(session.counters().snapshot().queries_started, 4);
    }

    #[test]
    fn expired_deadline_counts_as_timed_out() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        let stats = session
            .query(&query)
            .unlimited()
            .deadline(Instant::now() - Duration::from_millis(1))
            .run_with_sink(&mut CountOnly::new())
            .unwrap();
        assert!(stats.hit_time_limit);
        assert_eq!(stats.embeddings, 0);
        let snap = session.counters().snapshot();
        assert_eq!(snap.queries_timed_out, 1);
        assert_eq!(snap.queries_ok, 1);
    }

    #[test]
    fn absolute_deadline_takes_precedence_over_timeout() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        // A generous relative timeout does not resurrect an expired deadline, in
        // either order: the earliest deadline wins.
        let past = Instant::now() - Duration::from_millis(1);
        let timeout_first = session
            .query(&query)
            .unlimited()
            .timeout(Duration::from_secs(3600))
            .deadline(past)
            .run_with_sink(&mut CountOnly::new())
            .unwrap();
        assert!(timeout_first.hit_time_limit);
        let deadline_first = session
            .query(&query)
            .unlimited()
            .deadline(past)
            .timeout(Duration::from_secs(3600))
            .run_with_sink(&mut CountOnly::new())
            .unwrap();
        assert!(deadline_first.hit_time_limit);
    }

    #[test]
    fn cache_disabled_by_default() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        session.query(&query).unlimited().count().unwrap();
        session.query(&query).unlimited().count().unwrap();
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(session.cached_results(), 0);
    }

    #[test]
    fn cache_hits_repeat_counts_and_feeds_counters() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        assert_eq!(session.query(&query).unlimited().count().unwrap(), 4);
        assert_eq!(session.cached_results(), 1);
        // Second run — and a clone's run — are answered from the memo.
        assert_eq!(session.query(&query).unlimited().count().unwrap(), 4);
        assert_eq!(
            session.clone().query(&query).unlimited().count().unwrap(),
            4
        );
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, 2);
        // Hits still count as served queries.
        assert_eq!(snap.queries_started, 3);
        assert_eq!(snap.embeddings_reported, 12);
    }

    #[test]
    fn cache_key_separates_limits_and_modes() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        assert_eq!(session.query(&query).unlimited().count().unwrap(), 4);
        // A capped count is a different question, not a hit.
        assert_eq!(
            session.query(&query).unlimited().limit(2).count().unwrap(),
            2
        );
        // So is a first-k run, and a first-k count (k folds into the limit).
        let first = session.query(&query).unlimited().first_k(2).run().unwrap();
        assert_eq!(first.embeddings.len(), 2);
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 3);
        assert_eq!(session.cached_results(), 3);
        // Re-asking each question hits.
        assert_eq!(
            session.query(&query).unlimited().limit(2).count().unwrap(),
            2
        );
        let again = session.query(&query).unlimited().first_k(2).run().unwrap();
        assert_eq!(again.embeddings, first.embeddings);
        assert_eq!(session.counters().snapshot().cache_hits, 2);
    }

    #[test]
    fn cache_is_engine_agnostic() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        assert_eq!(
            session
                .query(&query)
                .method(Engine::Daf)
                .unlimited()
                .count()
                .unwrap(),
            4
        );
        // The same question through any other engine is a hit: one miss total.
        for engine in Engine::ALL {
            assert_eq!(
                session
                    .query(&query)
                    .method(engine)
                    .unlimited()
                    .count()
                    .unwrap(),
                4,
                "engine {}",
                engine.name()
            );
        }
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_misses, 1);
        assert_eq!(snap.cache_hits, Engine::ALL.len() as u64);
    }

    #[test]
    fn timed_out_results_are_not_cached() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        let stats = session
            .query(&query)
            .unlimited()
            .deadline(Instant::now() - Duration::from_millis(1))
            .count_stats()
            .unwrap();
        assert!(stats.hit_time_limit);
        assert_eq!(session.cached_results(), 0);
        // The truncated answer must not poison the real one.
        assert_eq!(session.query(&query).unlimited().count().unwrap(), 4);
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn invalidate_cache_forces_a_rerun() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        session.query(&query).unlimited().count().unwrap();
        assert_eq!(session.cached_results(), 1);
        session.invalidate_cache();
        assert_eq!(session.cached_results(), 0);
        session.query(&query).unlimited().count().unwrap();
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 2);
    }

    #[test]
    fn cache_capacity_is_bounded_fifo() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(2);
        let triangle = fixtures::triangle_query();
        session.query(&query).unlimited().count().unwrap();
        session.query(&triangle).unlimited().count().unwrap();
        assert_eq!(session.cached_results(), 2);
        // A third distinct question evicts the oldest (the paper query).
        session.query(&query).unlimited().limit(1).count().unwrap();
        assert_eq!(session.cached_results(), 2);
        session.query(&query).unlimited().count().unwrap();
        let snap = session.counters().snapshot();
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 4);
    }

    #[test]
    fn failed_queries_are_not_cached() {
        let (_q, data) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        assert!(session.query(&disconnected).count().is_err());
        assert_eq!(session.cached_results(), 0);
    }

    #[test]
    fn invalidations_are_counted() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        session.query(&query).unlimited().count().unwrap();
        session.invalidate_cache();
        session.invalidate_cache();
        assert_eq!(session.counters().snapshot().cache_invalidations, 2);
    }

    #[test]
    fn apply_deltas_updates_index_and_counters() {
        use gup_graph::delta::GraphDelta;
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data).with_result_cache(DEFAULT_CACHE_CAPACITY);
        assert_eq!(session.query(&query).unlimited().count().unwrap(), 4);
        assert_eq!(session.cached_results(), 1);
        // Delete one data edge: the old session's cache is dropped, the new
        // session answers against the mutated graph with shared counters.
        let victim = session.data().edges().next().unwrap();
        let (next, effects) = session
            .apply_deltas(&[GraphDelta::RemoveEdge {
                a: victim.0,
                b: victim.1,
            }])
            .unwrap();
        assert_eq!(effects.removed_edges, vec![victim]);
        assert_eq!(session.cached_results(), 0);
        assert_eq!(next.cache_capacity(), DEFAULT_CACHE_CAPACITY);
        assert!(Arc::ptr_eq(session.counters(), next.counters()));
        assert_eq!(next.data().edge_count(), session.data().edge_count() - 1);
        let snap = session.counters().snapshot();
        assert_eq!(snap.deltas_applied, 1);
        assert_eq!(snap.cache_invalidations, 1);
        // An invalid batch mutates nothing and invalidates nothing.
        next.query(&query).unlimited().count().unwrap();
        let cached = next.cached_results();
        assert!(next
            .apply_deltas(&[GraphDelta::RemoveEdge {
                a: victim.0,
                b: victim.1,
            }])
            .is_err());
        assert_eq!(next.cached_results(), cached);
        assert_eq!(session.counters().snapshot().deltas_applied, 1);
    }

    #[test]
    fn brute_force_respects_limits_and_sinks() {
        let (query, data) = fixtures::paper_example();
        let session = Session::new(data);
        let limited = session
            .query(&query)
            .method(Engine::BruteForce)
            .limit(2)
            .run()
            .unwrap();
        assert_eq!(limited.embedding_count(), 2);
        assert!(limited.stats.hit_embedding_limit);
        let first = session
            .query(&query)
            .method(Engine::BruteForce)
            .unlimited()
            .first_k(1)
            .run()
            .unwrap();
        assert_eq!(first.embeddings.len(), 1);
        assert!(first.stats.stopped_by_sink);
    }
}
