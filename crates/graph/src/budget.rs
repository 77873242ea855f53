//! The one search budget, the one search record and the one construction error
//! shared by every engine family.
//!
//! GuP stops each query at a cap on reported embeddings (10^5 in the paper) or at a
//! time limit (§4.1); its comparison with the baselines is fair only when every
//! engine obeys the same budget and reports the same record. [`SearchLimits`] is
//! that budget — an embedding cap and an **absolute** deadline, converted from a
//! relative timeout once, where its clock starts — and [`SearchStats`] is that
//! record. [`BuildError`] is why an engine could not be built for a query: the
//! query is unusable, or the budget's deadline expired in the candidate filter
//! pass. All three live here, in the crate every engine family depends on, so GuP,
//! the backtracking and join baselines, and the brute-force oracle all take the
//! same budget, fail construction the same way, and return the same record.

use crate::query::QueryGraphError;
use crate::sink::min_limit;
use std::time::Instant;

/// Limits that terminate a search early: a cap on the number of reported
/// embeddings and an absolute deadline. The deadline covers everything the budget
/// is handed to — the candidate filter pass as well as the search — so an engine
/// (or matcher) reused across runs shares one deadline; build a fresh
/// `SearchLimits` per run when each run needs its own time budget.
#[derive(Clone, Copy, Debug)]
pub struct SearchLimits {
    /// Stop after this many embeddings have been found (`None` = unlimited).
    pub max_embeddings: Option<u64>,
    /// Stop once this instant has passed (`None` = unlimited).
    pub deadline: Option<Instant>,
}

impl SearchLimits {
    /// No limits at all.
    pub const UNLIMITED: SearchLimits = SearchLimits {
        max_embeddings: None,
        deadline: None,
    };

    /// Sets the deadline to `deadline` unless an earlier one is already set: when
    /// a budget is given more than one deadline, the earliest wins.
    pub fn tighten_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
    }
}

/// Why an engine could not be built for a query. Every filter-running constructor
/// (GuP's candidate space and matcher, the backtracking and join baselines)
/// returns it.
#[derive(Debug)]
pub enum BuildError {
    /// The query graph is unusable (empty, too large, or disconnected).
    InvalidQuery(QueryGraphError),
    /// The budget's absolute deadline ([`SearchLimits::deadline`]) expired during
    /// the candidate filter pass: the candidate space was abandoned instead of
    /// being silently truncated. The session layer reports this as
    /// [`SearchStats::hit_time_limit`], exactly like a deadline that fires
    /// in-search.
    FilterTimeout,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::InvalidQuery(e) => write!(f, "invalid query graph: {e}"),
            BuildError::FilterTimeout => {
                write!(f, "time budget expired during the candidate filter pass")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<QueryGraphError> for BuildError {
    fn from(e: QueryGraphError) -> Self {
        BuildError::InvalidQuery(e)
    }
}

impl Default for SearchLimits {
    /// The paper's cap of 10^5 embeddings, no deadline.
    fn default() -> Self {
        SearchLimits {
            max_embeddings: Some(100_000),
            deadline: None,
        }
    }
}

/// Counters collected during one search. GuP fills all of them; the baselines fill
/// the subset they track (embeddings, recursions — intermediate bindings for the
/// join — futile recursions, and the termination flags) and leave the rest zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of embeddings reported (capped by the embedding limit).
    pub embeddings: u64,
    /// Number of calls to the recursive backtracking function.
    pub recursions: u64,
    /// Number of recursive calls whose partial embedding was a deadend (yielded no
    /// embedding in its subtree).
    pub futile_recursions: u64,
    /// Local candidate vertices considered across all recursions.
    pub local_candidates_seen: u64,
    /// Local candidates filtered out by a reservation guard.
    pub pruned_by_reservation: u64,
    /// Local candidates filtered out by a nogood guard on vertices.
    pub pruned_by_nogood_vertex: u64,
    /// Candidate edges filtered out by a nogood guard on edges during refinement.
    pub pruned_by_nogood_edge: u64,
    /// Extensions rejected by the plain injectivity check.
    pub pruned_by_injectivity: u64,
    /// Extensions rejected because some future vertex lost all local candidates.
    pub no_candidate_conflicts: u64,
    /// Number of times backjumping abandoned the remaining siblings of a level.
    pub backjumps: u64,
    /// Number of nogood guards recorded on vertices.
    pub nv_guards_recorded: u64,
    /// Number of nogood guards recorded on edges.
    pub ne_guards_recorded: u64,
    /// Number of search tasks (suspendable frames) executed. A sequential run is one
    /// task; the work-stealing driver counts every seeded chunk and stolen frame.
    pub tasks_executed: u64,
    /// Number of times a running worker split an active search frame and donated the
    /// unexplored half to the task queue (work-stealing driver only).
    pub frames_split: u64,
    /// Number of tasks a worker stole from another worker's deque.
    pub tasks_stolen: u64,
    /// `true` if the reported count reached the configured embedding limit (see
    /// [`SearchStats::settle_cap`] for the exact rule).
    pub hit_embedding_limit: bool,
    /// `true` if the search stopped because of the deadline.
    pub hit_time_limit: bool,
    /// `true` if the search stopped because an [`EmbeddingSink`] returned
    /// [`SinkControl::Stop`] (e.g. a satisfied `FirstK` or a callback that found what
    /// it was looking for), or because the sink's capacity was the cap that was
    /// reached.
    ///
    /// [`EmbeddingSink`]: crate::sink::EmbeddingSink
    /// [`SinkControl::Stop`]: crate::sink::SinkControl::Stop
    pub stopped_by_sink: bool,
}

impl SearchStats {
    /// `true` if any early-termination condition fired (a limit or a sink stop).
    pub fn terminated_early(&self) -> bool {
        self.hit_embedding_limit || self.hit_time_limit || self.stopped_by_sink
    }

    /// Fraction of local candidates that guards filtered out (0.0 when none were seen).
    /// §4.2.3 of the paper reports this as ~11.5 % on average.
    pub fn guard_prune_rate(&self) -> f64 {
        if self.local_candidates_seen == 0 {
            return 0.0;
        }
        (self.pruned_by_reservation + self.pruned_by_nogood_vertex) as f64
            / self.local_candidates_seen as f64
    }

    /// Settles the embedding-cap flags when a run ends — the one rule every engine
    /// family applies, so the flags never depend on the engine, the thread count,
    /// or which budget an engine happened to check first.
    ///
    /// The cap is the configured `limit` folded with the sink's `capacity`;
    /// `hit_embedding_limit` is true exactly when the reported count reached it.
    /// When the sink's capacity is the cap (it is at most the configured limit),
    /// the run reports `stopped_by_sink` instead.
    ///
    /// ```
    /// use gup_graph::budget::SearchStats;
    ///
    /// let mut stats = SearchStats { embeddings: 3, ..SearchStats::default() };
    /// stats.settle_cap(Some(3), None);
    /// assert!(stats.hit_embedding_limit && !stats.stopped_by_sink);
    ///
    /// // A `FirstK(3)` sink under the same limit: the sink's capacity is the cap.
    /// stats.settle_cap(Some(3), Some(3));
    /// assert!(!stats.hit_embedding_limit && stats.stopped_by_sink);
    /// ```
    pub fn settle_cap(&mut self, limit: Option<u64>, capacity: Option<u64>) {
        let reached = min_limit(limit, capacity).is_some_and(|cap| self.embeddings >= cap);
        let sink_is_cap = capacity.is_some_and(|c| limit.map_or(true, |l| c <= l));
        self.hit_embedding_limit = reached && !sink_is_cap;
        self.stopped_by_sink |= reached && sink_is_cap;
    }

    /// Merges another run's counters into this one (used by the parallel engine and by
    /// query-set aggregation in the benchmark harness).
    pub fn merge(&mut self, other: &SearchStats) {
        self.embeddings += other.embeddings;
        self.recursions += other.recursions;
        self.futile_recursions += other.futile_recursions;
        self.local_candidates_seen += other.local_candidates_seen;
        self.pruned_by_reservation += other.pruned_by_reservation;
        self.pruned_by_nogood_vertex += other.pruned_by_nogood_vertex;
        self.pruned_by_nogood_edge += other.pruned_by_nogood_edge;
        self.pruned_by_injectivity += other.pruned_by_injectivity;
        self.no_candidate_conflicts += other.no_candidate_conflicts;
        self.backjumps += other.backjumps;
        self.nv_guards_recorded += other.nv_guards_recorded;
        self.ne_guards_recorded += other.ne_guards_recorded;
        self.tasks_executed += other.tasks_executed;
        self.frames_split += other.frames_split;
        self.tasks_stolen += other.tasks_stolen;
        self.hit_embedding_limit |= other.hit_embedding_limit;
        self.hit_time_limit |= other.hit_time_limit;
        self.stopped_by_sink |= other.stopped_by_sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_defaults() {
        let d = SearchLimits::default();
        assert_eq!(d.max_embeddings, Some(100_000));
        assert!(d.deadline.is_none());
        assert_eq!(SearchLimits::UNLIMITED.max_embeddings, None);
        assert!(SearchLimits::UNLIMITED.deadline.is_none());
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            embeddings: 2,
            recursions: 10,
            futile_recursions: 3,
            ..Default::default()
        };
        let b = SearchStats {
            embeddings: 5,
            recursions: 7,
            futile_recursions: 1,
            hit_embedding_limit: true,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.embeddings, 7);
        assert_eq!(a.recursions, 17);
        assert_eq!(a.futile_recursions, 4);
        assert!(a.hit_embedding_limit);
    }

    /// `(hit_embedding_limit, stopped_by_sink)` after settling `embeddings` under
    /// `limit` and `capacity`, starting from the given engine-side flags.
    fn settled(
        embeddings: u64,
        limit: Option<u64>,
        capacity: Option<u64>,
        engine_flags: (bool, bool),
    ) -> (bool, bool) {
        let mut s = SearchStats {
            embeddings,
            hit_embedding_limit: engine_flags.0,
            stopped_by_sink: engine_flags.1,
            ..SearchStats::default()
        };
        s.settle_cap(limit, capacity);
        (s.hit_embedding_limit, s.stopped_by_sink)
    }

    #[test]
    fn cap_flags_follow_one_rule() {
        for engine_flags in [(false, false), (true, false), (false, true), (true, true)] {
            // Configured limit reached: the limit fired, whatever the engine saw.
            assert!(settled(3, Some(3), None, engine_flags).0);
            assert!(settled(3, Some(3), Some(5), engine_flags).0);
            // Sink capacity is the cap (alone, or tied with the limit).
            assert_eq!(settled(2, None, Some(2), engine_flags), (false, true));
            assert_eq!(settled(2, Some(2), Some(2), engine_flags), (false, true));
            assert_eq!(settled(0, Some(5), Some(0), engine_flags), (false, true));
            // A zero limit is reached by a zero count.
            assert!(settled(0, Some(0), None, engine_flags).0);
            // Below the cap the limit flag is never set.
            assert!(!settled(4, Some(5), None, engine_flags).0);
            assert!(!settled(4, None, None, engine_flags).0);
        }
        // Below the cap a sink's own stop (a callback) is kept, never invented.
        assert_eq!(settled(1, None, None, (false, true)), (false, true));
        assert_eq!(settled(1, Some(9), Some(9), (false, false)), (false, false));
    }
}
