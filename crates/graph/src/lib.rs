//! # gup-graph
//!
//! Labeled-graph substrate for the GuP subgraph-matching reproduction.
//!
//! The paper (GuP, SIGMOD 2023) operates on *vertex-labeled simple undirected graphs*.
//! This crate provides everything the matching layers need from the data side:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) adjacency plus vertex labels,
//!   suitable both for multi-million-edge data graphs and for tiny query graphs. It
//!   holds no label index, so no label value sizes a graph's allocations.
//! * [`GraphBuilder`] — incremental construction with de-duplication of parallel edges
//!   and removal of self loops (the paper assumes simple graphs).
//! * [`QueryGraph`] — a thin wrapper over [`Graph`] that validates the properties the
//!   matcher relies on (connectivity, ≤ [`MAX_QUERY_VERTICES`] vertices for bitset
//!   masks) and renumbers it into a matching order as an
//!   [`OrderedQuery`](query::OrderedQuery): forward/backward neighbor lists and
//!   2-core membership.
//! * [`budget`] — [`SearchLimits`](budget::SearchLimits), the one search budget (an
//!   embedding cap and an absolute deadline), [`SearchStats`](budget::SearchStats),
//!   the one result record, and [`BuildError`](budget::BuildError), the one
//!   construction error; every engine family — GuP and all the baselines — takes
//!   the first, fails construction with the last, and returns the second.
//! * [`PreparedData`] — an immutable, `Arc`-shareable per-data-graph index (the
//!   data graph's label inverted index, the only one in the workspace, a flat arena
//!   of per-vertex neighborhood-label-frequency signatures, 64-bit neighbor-label
//!   masks in label-bucket order, degree/label stats and a max-NLF bound) built once
//!   and reused by every query of a session, and [`NlfProfile`], a query vertex's
//!   sparse NLF requirement checked against it.
//! * [`QVSet`] — a width-generic query-vertex bitset (`W` 64-bit words, `W = 1` by
//!   default) used throughout the matcher for conflict masks, bounding sets, and
//!   nogood domains (O(1) set operations for any fixed width, as assumed by the
//!   paper's complexity analysis). [`Qv64`]/[`Qv128`]/[`Qv256`] name the supported
//!   instantiations.
//! * [`scratch`] — per-thread pooled scratch for per-query arrays indexed by
//!   data-vertex id: an epoch-stamped [`VertexMap`](scratch::VertexMap) and a dense
//!   `u16` [`OwnerArray`](scratch::OwnerArray), so a query's cost after its
//!   thread's first follows its candidate space rather than the data graph.
//! * Text I/O ([`io`]) in the common `t/v/e` format used by the subgraph-matching
//!   community, versioned/checksummed binary persistence of prepared indexes
//!   ([`index_io`]), random generators ([`generate`]) used by the workload crate, and the
//!   small graph algorithms the matcher needs ([`algo`]: 2-core, connected components,
//!   the one BFS order).
//!
//! ## Quick example
//!
//! ```
//! use gup_graph::{GraphBuilder, QueryGraph};
//!
//! // A triangle where two vertices share label 0.
//! let mut b = GraphBuilder::new();
//! let a = b.add_vertex(0);
//! let c = b.add_vertex(0);
//! let d = b.add_vertex(1);
//! b.add_edge(a, c);
//! b.add_edge(c, d);
//! b.add_edge(d, a);
//! let g = b.build();
//! assert_eq!(g.vertex_count(), 3);
//! assert_eq!(g.edge_count(), 3);
//! assert!(g.has_edge(a, d));
//!
//! // Any connected graph with at most 256 vertices can be used as a query.
//! let q = QueryGraph::new(g.clone()).unwrap();
//! assert_eq!(q.vertex_count(), 3);
//! ```

pub mod algo;
pub mod budget;
pub mod builder;
pub mod deadline;
pub mod delta;
pub mod fixtures;
pub mod generate;
pub mod graph;
pub mod index_io;
pub mod io;
pub mod prepared;
pub mod query;
pub mod scratch;
pub mod sink;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use deadline::{DeadlineExceeded, DeadlineSampler};
pub use delta::{DeltaEffects, DeltaError, GraphDelta};
pub use graph::Graph;
pub use index_io::{load_index, save_index, IndexIoError};
pub use prepared::{NlfProfile, PrepareError, PreparedData};
pub use query::{QueryGraph, QueryGraphError};
pub use sink::{
    CallbackSink, CollectAll, CountOnly, EmbeddingReservation, EmbeddingSink, FirstK, SinkControl,
};
pub use types::{
    words_for, Label, QVSet, Qv128, Qv256, Qv64, VertexId, MAX_DATA_LABEL, MAX_QUERY_VERTICES,
};
