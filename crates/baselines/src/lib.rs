//! # gup-baselines
//!
//! Baseline subgraph matchers used as comparators in the evaluation (paper §4.1
//! compares GuP against DAF, GQL-G, GQL-R, and RapidMatch). The original systems are
//! C++ binaries that are not available here, so this crate implements the *algorithmic*
//! essence of each family from scratch:
//!
//! * [`brute_force`] — a tiny reference enumerator used as ground truth in tests.
//! * [`backtracking`] — candidate-space backtracking with selectable ordering and an
//!   optional DAF-style *failing-set* backjumping rule (`Plain`, `DafFailingSet`,
//!   `GqlStyle`, `RiStyle` variants).
//! * [`join`] — an edge-at-a-time join enumerator standing in for the join-based
//!   RapidMatch.
//!
//! Every engine takes GuP's budget, [`SearchLimits`] (an embedding cap and an
//! absolute deadline), and reports GuP's record, [`SearchStats`] (embeddings,
//! recursions / intermediate results, early-termination flags), so the benchmark
//! harness compares them with GuP on equal terms. The backtracking and join engines
//! take their budget at construction — the candidate filter pass and every later run
//! share its deadline, so a matcher reused across runs shares one deadline; build a
//! fresh one per run when each run needs its own time budget. Every engine streams
//! its embeddings through the workspace-wide [`EmbeddingSink`] trait (`run_with_sink`
//! / [`brute_force::run_with_sink`]) — the same output layer GuP uses — so
//! metamorphic and differential tests can drive all engines through identical sinks.
//!
//! [`SearchLimits`]: gup_graph::budget::SearchLimits
//! [`SearchStats`]: gup_graph::budget::SearchStats

pub mod backtracking;
pub mod brute_force;
pub mod join;

pub use backtracking::{BacktrackingBaseline, BaselineError, BaselineKind};
pub use gup_graph::sink::{
    CallbackSink, CollectAll, CountOnly, EmbeddingSink, FirstK, SinkControl,
};
pub use join::JoinBaseline;

#[cfg(test)]
mod tests {
    use super::*;
    use gup_graph::budget::{SearchLimits, SearchStats};
    use gup_graph::{fixtures, PreparedData};
    use gup_order::OrderingStrategy;

    /// Every baseline engine's record for the Fig. 1 pair (4 embeddings) under
    /// `limits`: each backtracking kind, the join, and brute force.
    fn run_every_engine(limits: SearchLimits) -> Vec<SearchStats> {
        let (q, d) = fixtures::paper_example();
        let prepared = PreparedData::from_graph(&d);
        let mut records: Vec<SearchStats> = BaselineKind::ALL
            .into_iter()
            .map(|kind| {
                BacktrackingBaseline::<1>::with_prepared(&q, &prepared, kind, limits)
                    .unwrap()
                    .run()
            })
            .collect();
        records.push(
            JoinBaseline::with_prepared(&q, &prepared, OrderingStrategy::GqlStyle, limits)
                .unwrap()
                .run(),
        );
        records.push(brute_force::run_with_sink(
            &q,
            &d,
            limits,
            &mut CountOnly::new(),
        ));
        records
    }

    #[test]
    fn result_termination_flag() {
        for r in run_every_engine(SearchLimits::UNLIMITED) {
            assert_eq!(r.embeddings, 4);
            assert!(!r.terminated_early());
        }
        let capped = SearchLimits {
            max_embeddings: Some(1),
            ..SearchLimits::UNLIMITED
        };
        for r in run_every_engine(capped) {
            assert_eq!(r.embeddings, 1);
            assert!(r.hit_embedding_limit);
            assert!(r.terminated_early());
        }
    }
}
