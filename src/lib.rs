//! # gup-suite
//!
//! Umbrella crate of the GuP reproduction workspace. It re-exports the member crates
//! so that the runnable examples (`examples/`) and the cross-crate integration tests
//! (`tests/`) have a single import surface:
//!
//! * [`gup`] — the GuP matcher itself (guarded candidate space, reservation and nogood
//!   guards, backtracking with backjumping, parallel search) and the prepared-data
//!   session front door (`gup::session`) every engine family runs behind.
//! * [`gup_graph`] — the labeled-graph substrate (CSR graphs, loaders, generators,
//!   the shared `PreparedData` index).
//! * [`gup_candidate`] — candidate filtering and the candidate space.
//! * [`gup_order`] — matching-order optimizers.
//! * [`gup_baselines`] — the comparator matchers used in the evaluation.
//! * [`gup_workloads`] — synthetic datasets and query sets mirroring the paper's.
//! * [`gup_stream`] — dynamic data graphs: standing queries, delta streams, and
//!   incremental new-match reporting over `gup_graph::delta`.
//!
//! See `README.md` for the project overview, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the reproduction of every table and figure.

pub use gup;
pub use gup_baselines;
pub use gup_candidate;
pub use gup_graph;
pub use gup_order;
pub use gup_stream;
pub use gup_workloads;

/// The Rust examples in `README.md`, compiled and run as doctests so the API they
/// show cannot drift from the code.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
