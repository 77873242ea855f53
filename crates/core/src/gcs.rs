//! The guarded candidate space (GCS, §3.1 of the paper).
//!
//! The GCS bundles everything the backtracking search needs:
//!
//! * the query renumbered into the matching order ([`OrderedQuery`]),
//! * the candidate space (candidate vertices + candidate edges), re-indexed into the
//!   same order,
//! * the reservation guards generated ahead of the search, one
//!   [`ReservationTable`] for the whole query (empty when the configuration turns
//!   them off), and
//! * the (initially empty) nogood-guard stores that the search fills on the fly.
//!
//! Every part is a fixed number of arrays per query vertex, per query edge and per
//! query, so building and dropping a GCS does not allocate per candidate.
//!
//! Construction covers steps (1) and (2) of the paper's pipeline; step (3), the search
//! itself, lives in [`crate::search`].

use crate::config::GupConfig;
use crate::guards::{EdgeGuardStore, ReservationTable, VertexGuardStore};
use crate::reservation::{generate_reservation_guards, reservation_heap_bytes};
use crate::stats::MemoryReport;
use gup_candidate::CandidateSpace;
use gup_graph::budget::BuildError;
use gup_graph::query::OrderedQuery;
use gup_graph::{Graph, PreparedData, QueryGraph, VertexId};

/// The guarded candidate space, generic over the bitset width `W` of its ordered
/// query (64 query vertices per word; `W = 1` is the default fast path).
#[derive(Clone, Debug)]
pub struct Gcs<const W: usize = 1> {
    query: OrderedQuery<W>,
    space: CandidateSpace,
    reservations: ReservationTable,
    data_vertex_count: usize,
}

impl<const W: usize> Gcs<W> {
    /// Builds the GCS for `query` against a prepared data graph under `config`:
    /// candidate filtering (against the precomputed signature arena), matching-order
    /// optimization, re-indexing of the candidate space into the order, and
    /// reservation-guard generation. The filter pass honors the configured absolute
    /// deadline (`config.limits.deadline`, when one is set) at a work-bounded
    /// cadence, so a tight budget cannot be blown before the search starts: once it
    /// expires, construction aborts with [`BuildError::FilterTimeout`].
    pub fn build_prepared(
        query: &Graph,
        prepared: &PreparedData,
        config: &GupConfig,
    ) -> Result<Self, BuildError> {
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
        .map_err(|_| BuildError::FilterTimeout)?;
        let data_vertex_count = prepared.graph().vertex_count();
        let order = gup_order::compute_order(query, &space.candidate_sizes(), config.ordering)
            // gup-lint: allow(panic_freedom) QueryGraph validation above has already rejected disconnected queries
            .expect("validated queries are connected, so an order always exists");
        let ordered = validated
            .with_order::<W>(&order)
            // gup-lint: allow(panic_freedom) ordering strategies are total over connected queries; a failure here is an ordering bug worth a loud crash
            .expect("ordering strategies always produce connected permutations");
        let space = space.permuted(&order);
        // The search reads reservations only with the feature on, so none are
        // stored without it.
        let reservations = if config.features.reservation_guards {
            generate_reservation_guards(
                &ordered,
                &space,
                data_vertex_count,
                config.reservation_size_limit,
            )
        } else {
            ReservationTable::default()
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

    /// The reservation guard attached to candidate `cand_index` of query vertex `u`:
    /// its member data vertices, sorted. Only a GCS built with reservation guards on
    /// holds any.
    #[inline]
    pub fn reservation(&self, u: usize, cand_index: u32) -> &[VertexId] {
        self.reservations.get(u, cand_index)
    }

    /// All reservation guards (used by tests and the memory report); empty when
    /// the GCS was built with reservation guards off.
    #[inline]
    pub fn reservations(&self) -> &ReservationTable {
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

    /// Creates an empty nogood-guard store for candidate edges, shaped after this GCS:
    /// one slot per forward candidate edge of each query edge.
    pub fn new_edge_guard_store(&self) -> EdgeGuardStore<W> {
        let space = &self.space;
        EdgeGuardStore::new(
            space
                .edge_list()
                .iter()
                .enumerate()
                .map(|(eid, &(a, _b))| space.forward_start(eid, space.candidates(a).len())),
        )
    }

    /// Memory breakdown of the GCS plus the given (possibly searched-over) nogood
    /// stores, mirroring Table 3 of the paper.
    pub fn memory_report(
        &self,
        vertex_guards: &VertexGuardStore<W>,
        edge_guards: &EdgeGuardStore<W>,
    ) -> MemoryReport {
        MemoryReport {
            candidate_space_bytes: self.space.heap_bytes(),
            reservation_bytes: reservation_heap_bytes(&self.reservations),
            nogood_vertex_bytes: vertex_guards.heap_bytes(),
            nogood_edge_bytes: edge_guards.heap_bytes(),
            // The GCS does not retain the session-level prepared index; the matcher
            // (which knows its size) fills this in.
            prepared_index_bytes: 0,
        }
    }

    /// Translates an embedding over matching-order vertex ids back to the original
    /// query-vertex numbering, writing into a caller-owned scratch buffer (the
    /// streaming sink layer translates every reported embedding without a
    /// per-embedding allocation).
    pub fn embedding_in_original_ids_into(&self, embedding: &[VertexId], out: &mut Vec<VertexId>) {
        self.query.embedding_in_original_ids_into(embedding, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GupConfig, PruningFeatures};
    use gup_graph::fixtures;
    use gup_graph::query::QueryGraphError;

    fn build(query: &Graph, data: Graph, config: &GupConfig) -> Result<Gcs, BuildError> {
        Gcs::<1>::build_prepared(query, &PreparedData::new(data), config)
    }

    fn paper_gcs(config: &GupConfig) -> Gcs {
        let (q, d) = fixtures::paper_example();
        build(&q, d, config).unwrap()
    }

    #[test]
    fn build_succeeds_on_paper_example() {
        let gcs = paper_gcs(&GupConfig::default());
        assert_eq!(gcs.query().vertex_count(), 5);
        assert!(!gcs.is_empty());
        assert_eq!(gcs.data_vertex_count(), 14);
        // Every candidate has a reservation guard.
        assert_eq!(gcs.reservations().len(), gcs.space().total_candidates());
        for u in 0..5 {
            for ci in 0..gcs.space().candidates(u).len() as u32 {
                assert!(gcs.reservation(u, ci).len() <= 3);
            }
        }
    }

    #[test]
    fn build_rejects_invalid_queries() {
        let (_q, d) = fixtures::paper_example();
        let disconnected = gup_graph::builder::graph_from_edges(&[0, 0, 0, 0], &[(0, 1), (2, 3)]);
        let err = build(&disconnected, d, &GupConfig::default()).unwrap_err();
        assert!(matches!(
            err,
            BuildError::InvalidQuery(QueryGraphError::Disconnected)
        ));
        let msg = format!("{err}");
        assert!(msg.contains("invalid query"));
    }

    #[test]
    fn disabled_reservations_store_no_guards() {
        let cfg = GupConfig {
            features: PruningFeatures::NONE,
            ..GupConfig::default()
        };
        let gcs = paper_gcs(&cfg);
        assert!(gcs.reservations().is_empty());
        let report = gcs.memory_report(&gcs.new_vertex_guard_store(), &gcs.new_edge_guard_store());
        assert_eq!(report.reservation_bytes, 0);
        // A search configured with reservation guards on skips the test it
        // has no guards for, and still finds the paper's 4 embeddings.
        let stats = crate::search::SearchEngine::new(&gcs, &GupConfig::default())
            .run_with_sink(&mut gup_graph::sink::CountOnly::new());
        assert_eq!(stats.embeddings, 4);
        assert_eq!(stats.pruned_by_reservation, 0);
        // Turning only the reservation feature on stores one guard per candidate.
        let cfg = GupConfig {
            features: PruningFeatures::RESERVATION_ONLY,
            ..GupConfig::default()
        };
        let gcs = paper_gcs(&cfg);
        assert_eq!(gcs.reservations().len(), gcs.space().total_candidates());
    }

    #[test]
    fn guard_stores_are_shaped_after_the_space() {
        let gcs = paper_gcs(&GupConfig::default());
        let vs = gcs.new_vertex_guard_store();
        assert_eq!(vs.present_count(), 0);
        let es = gcs.new_edge_guard_store();
        assert_eq!(es.present_count(), 0);
        let report = gcs.memory_report(&vs, &es);
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
        let gcs = build(&q, d, &GupConfig::default()).unwrap();
        assert!(gcs.is_empty());
    }

    #[test]
    fn embedding_translation_uses_matching_order() {
        let gcs = paper_gcs(&GupConfig::default());
        let emb: Vec<u32> = (0..5).collect();
        let mut back = Vec::new();
        gcs.embedding_in_original_ids_into(&emb, &mut back);
        // The translation is a permutation of the same values.
        let mut sorted = back.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
