//! # gup-graph
//!
//! Labeled-graph substrate for the GuP subgraph-matching reproduction.
//!
//! The paper (GuP, SIGMOD 2023) operates on *vertex-labeled simple undirected graphs*.
//! This crate provides everything the matching layers need from the data side:
//!
//! * [`Graph`] — an immutable CSR (compressed sparse row) representation with a label
//!   index, suitable both for multi-million-edge data graphs and for tiny query graphs.
//! * [`GraphBuilder`] — incremental construction with de-duplication of parallel edges
//!   and removal of self loops (the paper assumes simple graphs).
//! * [`QueryGraph`] — a thin wrapper over [`Graph`] that validates the properties the
//!   matcher relies on (connectivity, ≤ [`MAX_QUERY_VERTICES`] vertices for bitset
//!   masks) and exposes forward/backward neighbor views under a matching order.
//! * [`budget`] — [`SearchLimits`](budget::SearchLimits), the one search budget (an
//!   embedding cap and an absolute deadline), and [`SearchStats`](budget::SearchStats),
//!   the one result record; every engine family — GuP and all the baselines — takes
//!   the former and returns the latter.
//! * [`PreparedData`] — an immutable, `Arc`-shareable per-data-graph index (label
//!   inverted index, a flat arena of per-vertex neighborhood-label-frequency
//!   signatures, degree/label stats and a max-NLF bound) built once and reused by
//!   every query of a session.
//! * [`QVSet`] — a width-generic query-vertex bitset (`W` 64-bit words, `W = 1` by
//!   default) used throughout the matcher for conflict masks, bounding sets, and
//!   nogood domains (O(1) set operations for any fixed width, as assumed by the
//!   paper's complexity analysis). [`Qv64`]/[`Qv128`]/[`Qv256`] name the supported
//!   instantiations.
//! * Text I/O ([`io`]) in the common `t/v/e` format used by the subgraph-matching
//!   community, versioned/checksummed binary persistence of prepared indexes
//!   ([`index_io`]), random generators ([`generate`]) used by the workload crate, and the
//!   small graph algorithms the matcher needs ([`algo`]: 2-core, connected components,
//!   degeneracy order).
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
pub mod sink;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use deadline::{DeadlineExceeded, DeadlineSampler};
pub use delta::{DeltaEffects, DeltaError, GraphDelta};
pub use graph::Graph;
pub use index_io::{load_index, save_index, IndexIoError};
pub use prepared::{PrepareError, PreparedData};
pub use query::{QueryGraph, QueryGraphError};
pub use sink::{
    CallbackSink, CollectAll, CountOnly, EmbeddingReservation, EmbeddingSink, FirstK, SinkControl,
};
pub use types::{words_for, Label, QVSet, Qv128, Qv256, Qv64, VertexId, MAX_QUERY_VERTICES};
