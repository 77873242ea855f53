//! Search statistics and memory accounting.
//!
//! The evaluation of the paper reports, besides wall-clock time: the number of
//! recursive calls (Fig. 7), the number of *futile* recursions — calls whose partial
//! embedding turns out to be a deadend (Fig. 9) —, the fraction of local candidates
//! pruned adaptively by guards (§4.2.3), and the memory devoted to guards versus the
//! whole process (Table 3). [`SearchStats`] and [`MemoryReport`] collect exactly those
//! quantities. `SearchStats` is the record every engine family reports, so it lives in
//! `gup_graph::budget` beside the budget, and is re-exported here.

pub use gup_graph::budget::SearchStats;

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
