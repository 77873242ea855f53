//! The guarded candidate space (GCS, §3.1 of the paper).
//!
//! The GCS bundles everything the backtracking search needs:
//!
//! * the query renumbered into the matching order ([`OrderedQuery`]),
//! * the candidate space (candidate vertices + candidate edges), re-indexed into the
//!   same order,
//! * the reservation guards generated ahead of the search, and
//! * the (initially empty) nogood-guard stores that the search fills on the fly.
//!
//! Construction covers steps (1) and (2) of the paper's pipeline; step (3), the search
//! itself, lives in [`crate::search`].

use crate::config::GupConfig;
use crate::guards::{EdgeGuardStore, ReservationGuard, VertexGuardStore};
use crate::reservation::{generate_reservation_guards, reservation_heap_bytes};
use crate::stats::MemoryReport;
use gup_candidate::CandidateSpace;
use gup_graph::query::{OrderedQuery, QueryGraphError};
use gup_graph::{Graph, PreparedData, QueryGraph, VertexId};

/// Errors produced while building a GCS.
#[derive(Debug)]
pub enum GupError {
    /// The query graph is not usable (empty, too large, or disconnected).
    InvalidQuery(QueryGraphError),
    /// The configured absolute deadline ([`SearchLimits::deadline`]) expired during
    /// the candidate filter pass: the candidate space was abandoned instead of being
    /// silently truncated. The session layer reports this as
    /// `SearchStats::hit_time_limit`, exactly like a deadline that fires in-search.
    ///
    /// [`SearchLimits::deadline`]: crate::SearchLimits::deadline
    FilterTimeout,
}

impl std::fmt::Display for GupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GupError::InvalidQuery(e) => write!(f, "invalid query graph: {e}"),
            GupError::FilterTimeout => {
                write!(f, "time budget expired during the candidate filter pass")
            }
        }
    }
}

impl std::error::Error for GupError {}

impl From<QueryGraphError> for GupError {
    fn from(e: QueryGraphError) -> Self {
        GupError::InvalidQuery(e)
    }
}

/// The guarded candidate space, generic over the bitset width `W` of its ordered
/// query (64 query vertices per word; `W = 1` is the default fast path).
#[derive(Clone, Debug)]
pub struct Gcs<const W: usize = 1> {
    query: OrderedQuery<W>,
    space: CandidateSpace,
    reservations: Vec<Vec<ReservationGuard>>,
    data_vertex_count: usize,
}

impl<const W: usize> Gcs<W> {
    /// Builds the GCS for `query` against a prepared data graph under `config`:
    /// candidate filtering (against the precomputed signature arena), matching-order
    /// optimization, re-indexing of the candidate space into the order, and
    /// reservation-guard generation. The filter pass honors the configured absolute
    /// deadline (`config.limits.deadline`, when one is set) at a work-bounded
    /// cadence, so a tight budget cannot be blown before the search starts.
    pub fn build_prepared(
        query: &Graph,
        prepared: &PreparedData,
        config: &GupConfig,
    ) -> Result<Self, GupError> {
        // Global validation plus this width's bitset capacity check: a query wider
        // than `64 * W` is a typed `TooLarge` error (with the width's own limit)
        // rather than a panic deeper in the bitmask arithmetic. The session layer
        // dispatches to a sufficient width before ever reaching this check.
        let validated = QueryGraph::new(query.clone())?;
        validated.check_width::<W>()?;
        let space = CandidateSpace::build_prepared_deadline(
            query,
            prepared,
            &config.filter,
            config.limits.deadline,
        )
        .map_err(|_| GupError::FilterTimeout)?;
        let data_vertex_count = prepared.graph().vertex_count();
        let order = gup_order::compute_order(query, &space.candidate_sizes(), config.ordering)
            // gup-lint: allow(panic_freedom) QueryGraph validation above has already rejected disconnected queries
            .expect("validated queries are connected, so an order always exists");
        let ordered = validated
            .with_order::<W>(&order)
            // gup-lint: allow(panic_freedom) ordering strategies are total over connected queries; a failure here is an ordering bug worth a loud crash
            .expect("ordering strategies always produce connected permutations");
        let space = space.permuted(&order);
        let reservations = if config.features.reservation_guards {
            generate_reservation_guards(
                &ordered,
                &space,
                data_vertex_count,
                config.reservation_size_limit,
            )
        } else {
            // Guards disabled: attach the trivial reservation so that lookups stay
            // uniform; the search skips the matching test entirely in this mode.
            (0..ordered.vertex_count())
                .map(|u| {
                    space
                        .candidates(u)
                        .iter()
                        .map(|&v| ReservationGuard::trivial(v))
                        .collect()
                })
                .collect()
        };
        Ok(Gcs {
            query: ordered,
            space,
            reservations,
            data_vertex_count,
        })
    }

    /// The query renumbered into the matching order.
    #[inline]
    pub fn query(&self) -> &OrderedQuery<W> {
        &self.query
    }

    /// The candidate space, indexed by matching-order vertex ids.
    #[inline]
    pub fn space(&self) -> &CandidateSpace {
        &self.space
    }

    /// Number of data-graph vertices (used to size per-search scratch arrays).
    #[inline]
    pub fn data_vertex_count(&self) -> usize {
        self.data_vertex_count
    }

    /// The reservation guard attached to candidate `cand_index` of query vertex `u`.
    #[inline]
    pub fn reservation(&self, u: usize, cand_index: u32) -> &ReservationGuard {
        &self.reservations[u][cand_index as usize]
    }

    /// All reservation guards (used by tests and the memory report).
    #[inline]
    pub fn reservations(&self) -> &[Vec<ReservationGuard>] {
        &self.reservations
    }

    /// `true` when some query vertex has no candidates at all (zero embeddings).
    pub fn is_empty(&self) -> bool {
        self.space.any_empty()
    }

    /// Creates an empty nogood-guard store for candidate vertices, shaped after this
    /// GCS. Each (sequential or thread-local) search owns one.
    pub fn new_vertex_guard_store(&self) -> VertexGuardStore<W> {
        VertexGuardStore::new(&self.space.candidate_sizes())
    }

    /// Creates an empty nogood-guard store for candidate edges, shaped after this GCS.
    pub fn new_edge_guard_store(&self) -> EdgeGuardStore<W> {
        let shape: Vec<Vec<usize>> = self
            .space
            .edge_list()
            .iter()
            .enumerate()
            .map(|(eid, &(a, _b))| {
                (0..self.space.candidates(a).len())
                    .map(|ca| self.space.forward_adjacency(eid, ca).len())
                    .collect()
            })
            .collect();
        EdgeGuardStore::new(shape)
    }

    /// Memory breakdown of the GCS plus the given (possibly searched-over) nogood
    /// stores, mirroring Table 3 of the paper.
    pub fn memory_report(
        &self,
        vertex_guards: Option<&VertexGuardStore<W>>,
        edge_guards: Option<&EdgeGuardStore<W>>,
    ) -> MemoryReport {
        MemoryReport {
            candidate_space_bytes: self.space.heap_bytes(),
            reservation_bytes: reservation_heap_bytes(&self.reservations),
            nogood_vertex_bytes: vertex_guards.map_or(0, VertexGuardStore::heap_bytes),
            nogood_edge_bytes: edge_guards.map_or(0, EdgeGuardStore::heap_bytes),
            // The GCS does not retain the session-level prepared index; the matcher
            // (which knows its size) fills this in.
            prepared_index_bytes: 0,
        }
    }

    /// Translates an embedding over matching-order vertex ids back to the original
    /// query-vertex numbering.
    pub fn embedding_in_original_ids(&self, embedding: &[VertexId]) -> Vec<VertexId> {
        self.query.embedding_in_original_ids(embedding)
    }

    /// Allocation-free variant of [`Gcs::embedding_in_original_ids`]: writes into a
    /// caller-owned scratch buffer (used by the streaming sink layer to translate
    /// every reported embedding without a per-embedding allocation).
    pub fn embedding_in_original_ids_into(&self, embedding: &[VertexId], out: &mut Vec<VertexId>) {
        self.query.embedding_in_original_ids_into(embedding, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GupConfig, PruningFeatures};
    use gup_graph::fixtures;

    fn build(query: &Graph, data: &Graph, config: &GupConfig) -> Result<Gcs, GupError> {
        Gcs::<1>::build_prepared(query, &PreparedData::from_graph(data), config)
    }

    fn paper_gcs(config: &GupConfig) -> Gcs {
        let (q, d) = fixtures::paper_example();
        build(&q, &d, config).unwrap()
    }

    #[test]
    fn build_succeeds_on_paper_example() {
        let gcs = paper_gcs(&GupConfig::default());
        assert_eq!(gcs.query().vertex_count(), 5);
        assert!(!gcs.is_empty());
        assert_eq!(gcs.data_vertex_count(), 14);
        // Every query vertex has a reservation guard per candidate.
        for u in 0..5 {
            assert_eq!(gcs.reservations()[u].len(), gcs.space().candidates(u).len());
        }
    }

    #[test]
    fn build_rejects_invalid_queries() {
        let (_q, d) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let err = build(&disconnected, &d, &GupConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            GupError::InvalidQuery(QueryGraphError::Disconnected)
        ));
        let msg = format!("{err}");
        assert!(msg.contains("invalid query"));
    }

    #[test]
    fn disabled_reservations_fall_back_to_trivial() {
        let cfg = GupConfig {
            features: PruningFeatures::NONE,
            ..GupConfig::default()
        };
        let gcs = paper_gcs(&cfg);
        for u in 0..5 {
            for (ci, g) in gcs.reservations()[u].iter().enumerate() {
                assert!(g.is_trivial_for(gcs.space().candidates(u)[ci]));
            }
        }
    }

    #[test]
    fn guard_stores_are_shaped_after_the_space() {
        let gcs = paper_gcs(&GupConfig::default());
        let vs = gcs.new_vertex_guard_store();
        assert_eq!(vs.present_count(), 0);
        let es = gcs.new_edge_guard_store();
        assert_eq!(es.present_count(), 0);
        let report = gcs.memory_report(Some(&vs), Some(&es));
        assert!(report.candidate_space_bytes > 0);
        assert!(report.reservation_bytes > 0);
        assert!(report.total_bytes() >= report.guard_bytes());
        assert!(report.guard_share_percent() > 0.0);
    }

    #[test]
    fn empty_space_detected() {
        let (_q, d) = fixtures::paper_example();
        // A query label that the data graph does not contain.
        let q = gup_graph::builder::graph_from_edges(&[9, 9], &[(0, 1)]);
        let gcs = build(&q, &d, &GupConfig::default()).unwrap();
        assert!(gcs.is_empty());
    }

    #[test]
    fn embedding_translation_uses_matching_order() {
        let gcs = paper_gcs(&GupConfig::default());
        let emb: Vec<u32> = (0..5).collect();
        let back = gcs.embedding_in_original_ids(&emb);
        // The translation is a permutation of the same values.
        let mut sorted = back.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
