//! Configuration of the GuP matcher.

use gup_candidate::FilterConfig;
pub use gup_graph::budget::SearchLimits;
use gup_order::OrderingStrategy;

/// Which pruning techniques are enabled. The evaluation's ablation (Fig. 9 of the
/// paper) toggles these: "Baseline", "R", "R+NV", "R+NV+NE", and "All" (= everything
/// plus backjumping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PruningFeatures {
    /// Reservation guards (§3.2).
    pub reservation_guards: bool,
    /// Nogood guards on candidate vertices (§3.3.2).
    pub nogood_vertex_guards: bool,
    /// Nogood guards on candidate edges (§3.3.3).
    pub nogood_edge_guards: bool,
    /// Backjumping driven by discovered nogoods (Algorithm 2, line 14).
    pub backjumping: bool,
}

impl PruningFeatures {
    /// Everything enabled — the full GuP algorithm ("All" in Fig. 9).
    pub const ALL: PruningFeatures = PruningFeatures {
        reservation_guards: true,
        nogood_vertex_guards: true,
        nogood_edge_guards: true,
        backjumping: true,
    };

    /// Conventional backtracking over the candidate space with no guard and no
    /// backjumping ("Baseline" in Fig. 9).
    pub const NONE: PruningFeatures = PruningFeatures {
        reservation_guards: false,
        nogood_vertex_guards: false,
        nogood_edge_guards: false,
        backjumping: false,
    };

    /// Only reservation guards ("R").
    pub const RESERVATION_ONLY: PruningFeatures = PruningFeatures {
        reservation_guards: true,
        ..PruningFeatures::NONE
    };

    /// Reservation + vertex nogood guards ("R+NV").
    pub const RESERVATION_AND_NV: PruningFeatures = PruningFeatures {
        reservation_guards: true,
        nogood_vertex_guards: true,
        ..PruningFeatures::NONE
    };

    /// Reservation + vertex + edge nogood guards, no backjumping ("R+NV+NE").
    pub const RESERVATION_NV_NE: PruningFeatures = PruningFeatures {
        reservation_guards: true,
        nogood_vertex_guards: true,
        nogood_edge_guards: true,
        backjumping: false,
    };

    /// Stable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match (
            self.reservation_guards,
            self.nogood_vertex_guards,
            self.nogood_edge_guards,
            self.backjumping,
        ) {
            (false, false, false, false) => "Baseline",
            (true, false, false, false) => "R",
            (true, true, false, false) => "R+NV",
            (true, true, true, false) => "R+NV+NE",
            (true, true, true, true) => "All",
            _ => "custom",
        }
    }
}

impl Default for PruningFeatures {
    fn default() -> Self {
        PruningFeatures::ALL
    }
}

/// Full configuration of a GuP matcher instance.
#[derive(Clone, Debug)]
pub struct GupConfig {
    /// Candidate-filtering configuration (LDF/NLF/DAG-DP passes).
    pub filter: FilterConfig,
    /// Matching-order heuristic. The paper uses the VC order.
    pub ordering: OrderingStrategy,
    /// Maximum size `r` of a reservation guard (§3.2.2). The paper recommends 3;
    /// `None` means unlimited (the "r = ∞" configuration of Fig. 8).
    pub reservation_size_limit: Option<usize>,
    /// Which pruning techniques are active.
    pub features: PruningFeatures,
    /// Early-termination limits: the embedding cap (10^5 in the paper, §4.1) and an
    /// absolute deadline that covers the candidate filter pass as well as the search.
    /// A matcher reused across runs shares one deadline; build one per run (or use
    /// the session's `timeout`, which starts the clock per request) when each run
    /// needs its own time budget.
    pub limits: SearchLimits,
}

impl Default for GupConfig {
    fn default() -> Self {
        GupConfig {
            filter: FilterConfig::default(),
            ordering: OrderingStrategy::VcStyle,
            reservation_size_limit: Some(3),
            features: PruningFeatures::ALL,
            limits: SearchLimits::default(),
        }
    }
}

impl GupConfig {
    /// Convenience: default configuration with the given embedding cap.
    pub fn with_embedding_limit(limit: u64) -> Self {
        GupConfig {
            limits: SearchLimits {
                max_embeddings: Some(limit),
                ..SearchLimits::default()
            },
            ..GupConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn feature_labels() {
        assert_eq!(PruningFeatures::NONE.label(), "Baseline");
        assert_eq!(PruningFeatures::RESERVATION_ONLY.label(), "R");
        assert_eq!(PruningFeatures::RESERVATION_AND_NV.label(), "R+NV");
        assert_eq!(PruningFeatures::RESERVATION_NV_NE.label(), "R+NV+NE");
        assert_eq!(PruningFeatures::ALL.label(), "All");
        let odd = PruningFeatures {
            reservation_guards: false,
            nogood_vertex_guards: true,
            nogood_edge_guards: false,
            backjumping: false,
        };
        assert_eq!(odd.label(), "custom");
    }

    #[test]
    fn defaults_match_paper_recommendations() {
        let cfg = GupConfig::default();
        assert_eq!(cfg.reservation_size_limit, Some(3));
        assert_eq!(cfg.features, PruningFeatures::ALL);
        assert_eq!(cfg.limits.max_embeddings, Some(100_000));
    }

    #[test]
    fn convenience_constructors() {
        assert_eq!(
            GupConfig::with_embedding_limit(7).limits.max_embeddings,
            Some(7)
        );
        assert_eq!(SearchLimits::UNLIMITED.max_embeddings, None);
    }

    /// The budget carries one absolute deadline; handed a second one, it keeps the
    /// earlier, so an explicit deadline is not pushed back by a later one.
    #[test]
    fn effective_deadline_prefers_explicit_deadline() {
        let mut limits = GupConfig::default().limits;
        assert!(limits.deadline.is_none());
        let later = Instant::now() + Duration::from_secs(60);
        limits.tighten_deadline(later);
        assert_eq!(limits.deadline, Some(later));
        let fixed = Instant::now() + Duration::from_secs(5);
        limits.tighten_deadline(fixed);
        assert_eq!(limits.deadline, Some(fixed));
        limits.tighten_deadline(later);
        assert_eq!(limits.deadline, Some(fixed));
    }
}
