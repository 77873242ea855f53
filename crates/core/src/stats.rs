//! Search statistics and memory accounting.
//!
//! The evaluation of the paper reports, besides wall-clock time: the number of
//! recursive calls (Fig. 7), the number of *futile* recursions — calls whose partial
//! embedding turns out to be a deadend (Fig. 9) —, the fraction of local candidates
//! pruned adaptively by guards (§4.2.3), and the memory devoted to guards versus the
//! whole process (Table 3). [`SearchStats`] and [`MemoryReport`] collect exactly those
//! quantities.

/// Counters collected during one backtracking search.
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
    /// `true` if the search stopped because of the embedding limit.
    pub hit_embedding_limit: bool,
    /// `true` if the search stopped because of the time limit.
    pub hit_time_limit: bool,
    /// `true` if the search stopped because an [`EmbeddingSink`] returned
    /// [`SinkControl::Stop`] (e.g. a satisfied `FirstK` or a callback that found what
    /// it was looking for).
    ///
    /// [`EmbeddingSink`]: gup_graph::sink::EmbeddingSink
    /// [`SinkControl::Stop`]: gup_graph::sink::SinkControl::Stop
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

    /// When the embedding budget that fired was a sink's capacity (folded into the
    /// limit) rather than a configured limit, re-reports it as a sink stop — the one
    /// attribution rule shared by the sequential engine and the parallel driver, so
    /// the public flags never depend on the thread count or on whether the sink's
    /// own `Stop` or its folded capacity happened to fire first. A capacity equal to
    /// the configured limit counts as the sink's stop (both budgets ran out
    /// together; the sink-side attribution is the one every thread count can agree
    /// on).
    pub(crate) fn attribute_capacity_stop(
        &mut self,
        configured_limit: Option<u64>,
        capacity: Option<u64>,
    ) {
        if self.hit_embedding_limit
            && capacity.is_some_and(|cap| configured_limit.map_or(true, |limit| cap <= limit))
        {
            self.hit_embedding_limit = false;
            self.stopped_by_sink = true;
        }
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

/// Breakdown of the memory consumed by an instantiated matcher, mirroring Table 3 of
/// the paper (whole structure versus each guard family).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes used by the candidate space (candidate vertices + candidate edges).
    pub candidate_space_bytes: usize,
    /// Bytes used by reservation guards.
    pub reservation_bytes: usize,
    /// Bytes used by nogood guards on vertices.
    pub nogood_vertex_bytes: usize,
    /// Bytes used by nogood guards on edges.
    pub nogood_edge_bytes: usize,
    /// Bytes used by the prepared data-graph index (the NLF signature arena and
    /// statistics a session builds once and amortizes over its queries). Accounted
    /// separately from [`MemoryReport::total_bytes`], which keeps the paper's
    /// Table-3 meaning (per-query GCS + guards).
    pub prepared_index_bytes: usize,
}

impl MemoryReport {
    /// Total bytes attributed to guards.
    pub fn guard_bytes(&self) -> usize {
        self.reservation_bytes + self.nogood_vertex_bytes + self.nogood_edge_bytes
    }

    /// Total bytes of the guarded candidate space (candidate space + guards). The
    /// shared prepared index is *not* included — see
    /// [`MemoryReport::total_with_prepared_bytes`].
    pub fn total_bytes(&self) -> usize {
        self.candidate_space_bytes + self.guard_bytes()
    }

    /// Total bytes including the session's shared prepared index. In a batch, the
    /// prepared share is paid once while every query pays its own GCS.
    pub fn total_with_prepared_bytes(&self) -> usize {
        self.total_bytes() + self.prepared_index_bytes
    }

    /// Guard share of the total, in percent (the "Guard/Whole" column of Table 3).
    pub fn guard_share_percent(&self) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            0.0
        } else {
            100.0 * self.guard_bytes() as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prune_rate_and_early_termination() {
        let mut s = SearchStats::default();
        assert_eq!(s.guard_prune_rate(), 0.0);
        assert!(!s.terminated_early());
        s.local_candidates_seen = 100;
        s.pruned_by_reservation = 5;
        s.pruned_by_nogood_vertex = 6;
        assert!((s.guard_prune_rate() - 0.11).abs() < 1e-9);
        s.hit_time_limit = true;
        assert!(s.terminated_early());
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

    #[test]
    fn memory_report_shares() {
        let m = MemoryReport {
            candidate_space_bytes: 900,
            reservation_bytes: 40,
            nogood_vertex_bytes: 30,
            nogood_edge_bytes: 30,
            prepared_index_bytes: 500,
        };
        assert_eq!(m.guard_bytes(), 100);
        assert_eq!(m.total_bytes(), 1000);
        assert_eq!(m.total_with_prepared_bytes(), 1500);
        assert!((m.guard_share_percent() - 10.0).abs() < 1e-9);
        assert_eq!(MemoryReport::default().guard_share_percent(), 0.0);
    }
}
