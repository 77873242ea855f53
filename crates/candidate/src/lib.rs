//! # gup-candidate
//!
//! Candidate filtering and the candidate space, the substrate GuP's guarded candidate
//! space (GCS) is built on.
//!
//! The paper delegates candidate filtering to "extended DAG-graph DP" (from VEQ) and
//! treats the concrete filter as interchangeable ("an approach for candidate filtering
//! and matching order optimization is out of the scope of this work", §3.1). This crate
//! provides that substrate:
//!
//! * [`filters`] — the classic per-vertex filters: label-and-degree filtering (LDF,
//!   Ullmann) as the reference definition, and neighborhood label frequency
//!   filtering (NLF) as one pass over a prepared data graph's label bucket: its
//!   neighbor-label masks screen each vertex, and the signature arena decides the
//!   mask hits. The same NLF test also runs over the data neighbors of a query
//!   neighbor's candidates instead of a bucket.
//! * [`dag`] — a query DAG (BFS-rooted at the most selective query vertex), the shape
//!   over which the dynamic-programming refinement runs.
//! * [`space`] — [`CandidateSpace`]: candidate-vertex sets `C(u_i)` for every query
//!   vertex plus *candidate edges* between them. DAF-style, one root scans its
//!   label bucket and the other query vertices generate their candidates from a
//!   built neighbor's candidates wherever that reads less than their bucket;
//!   DAG-graph-DP-style bottom-up/top-down passes then refine the sets.
//!
//! ```
//! use gup_graph::builder::graph_from_edges;
//! use gup_graph::PreparedData;
//! use gup_candidate::{CandidateSpace, FilterConfig};
//!
//! // Data: a labeled square with a diagonal; query: a labeled triangle.
//! let data = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
//! let query = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (2, 0)]);
//! let prepared = PreparedData::new(data);
//! let cs = CandidateSpace::build_prepared(&query, &prepared, &FilterConfig::default());
//! assert!(!cs.any_empty());
//! // Query vertex 1 (label 1) can only be data vertex 1 or 3.
//! assert_eq!(cs.candidates(1), &[1, 3]);
//! ```

pub mod dag;
pub mod filters;
pub mod space;

pub use dag::QueryDag;
pub use filters::{
    ldf_candidates, nlf_candidates_prepared, nlf_candidates_prepared_sampled, nlf_filter_prepared,
};
pub use gup_graph::deadline::{DeadlineExceeded, DeadlineSampler};
pub use gup_graph::NlfProfile;
pub use space::{CandidateSpace, FilterConfig};
