//! # gup — Fast Subgraph Matching by Guard-based Pruning
//!
//! A from-scratch Rust implementation of **GuP** (Arai, Fujiwara, Onizuka; SIGMOD
//! 2023): subgraph-isomorphism matching with *guard-based pruning*. Given a small
//! vertex-labeled query graph and a large vertex-labeled data graph, the matcher
//! enumerates every embedding of the query (label-preserving, adjacency-preserving,
//! injective mapping of query vertices to data vertices).
//!
//! ## How it works
//!
//! 1. A **guarded candidate space** ([`Gcs`]) is built: candidate vertices and
//!    candidate edges from LDF/NLF/DAG-DP filtering (`gup-candidate`), a matching
//!    order (`gup-order`), and a **reservation guard** per candidate vertex — a small
//!    set of data vertices every subembedding rooted there must use, which propagates
//!    the injectivity constraint upwards (paper §3.2).
//! 2. The **backtracking search** ([`SearchEngine`]) extends partial embeddings while
//!    filtering candidates adaptively: an extension is pruned when it conflicts with
//!    injectivity, with a reservation guard, or with a **nogood guard** learned from a
//!    previously-explored deadend (paper §3.3). Nogood guards are stored with the O(1)
//!    *search-node encoding* (§3.5.1); discovered nogoods also drive backjumping.
//! 3. Multi-core execution splits search subtrees recursively with work stealing:
//!    the GCS is shared read-only, while every worker owns one long-lived engine
//!    whose nogood guards persist across all tasks it executes ([`parallel`],
//!    paper §3.5.2).
//!
//! ## Quick start
//!
//! The front door is the prepared-data session model ([`session`]): the data graph
//! is indexed **once** and every query — through any engine family — reuses that
//! index. Every engine runs by streaming into an [`EmbeddingSink`], returns the one
//! [`SearchStats`] record, and fails construction with the one [`BuildError`]. The
//! one-shot helpers [`find_embeddings`] and [`count_embeddings`] open a private
//! session per call and run the same path.
//!
//! ```
//! use gup::session::{Engine, Session};
//! use gup::find_embeddings;
//! use gup_graph::fixtures::paper_example;
//!
//! // The running example of the paper (Fig. 1).
//! let (query, data) = paper_example();
//!
//! // Prepare once, query many times (batched, concurrent, any engine).
//! let session = Session::new(data.clone());
//! let n = session.query(&query).unlimited().count().unwrap();
//! assert_eq!(n, 4);
//! let outcome = session
//!     .query(&query)
//!     .method(Engine::Daf)
//!     .first_k(2)
//!     .run()
//!     .unwrap();
//! assert_eq!(outcome.embeddings.len(), 2);
//!
//! // One-shot helper: prepares `data` for this call only, then the same path.
//! let result = find_embeddings(&query, &data).unwrap();
//! assert!(result.embedding_count() >= 1);
//! ```

/// Monomorphized width dispatch: binds `$W` to the narrowest supported bitset
/// width (1, 2, or 4 words — [`Qv64`]/[`Qv128`]/[`Qv256`]) that fits a query of
/// `$n` vertices and evaluates `$body` once with that constant. Queries of at most
/// 64 vertices therefore compile to exactly the one-word engine that existed
/// before the width generalization; queries beyond 256 vertices fall through to
/// the widest instantiation, whose validation rejects them with a typed
/// `TooLarge` error.
///
/// [`Qv64`]: gup_graph::Qv64
/// [`Qv128`]: gup_graph::Qv128
/// [`Qv256`]: gup_graph::Qv256
macro_rules! with_qv_width {
    ($n:expr, $W:ident, $body:expr) => {{
        // `words_for` is the single source of the vertex-count → word-count rule;
        // 3 words round up to the 4-word instantiation (only 1/2/4 are compiled).
        match gup_graph::words_for($n) {
            1 => {
                const $W: usize = 1;
                $body
            }
            2 => {
                const $W: usize = 2;
                $body
            }
            _ => {
                const $W: usize = 4;
                $body
            }
        }
    }};
}
pub(crate) use with_qv_width;

pub mod config;
pub mod gcs;
pub mod guards;
pub mod matcher;
pub mod parallel;
pub mod reservation;
pub mod search;
pub mod session;
pub mod stats;

/// Streaming output sinks shared by every engine in the workspace (re-exported from
/// `gup_graph::sink`): the search pushes embeddings into an
/// [`EmbeddingSink`] so the output demand — count, first `k`,
/// everything, or a callback — decides how much work is done and what is allocated.
pub use gup_graph::sink;

pub use config::{GupConfig, PruningFeatures, SearchLimits};
pub use gcs::Gcs;
pub use guards::{NogoodRef, ReservationTable};
pub use gup_graph::budget::BuildError;
pub use gup_graph::{PreparedData, QVSet, Qv128, Qv256, Qv64, MAX_QUERY_VERTICES};
pub use matcher::GupMatcher;
pub use search::{SearchEngine, SearchTask, SplitHandle};
pub use session::{
    count_embeddings, find_embeddings, CounterSnapshot, Engine, QueryOutcome, QueryRequest,
    Session, SessionCounters, SessionError,
};
pub use sink::{
    CallbackSink, CollectAll, CountOnly, EmbeddingReservation, EmbeddingSink, FirstK, SinkControl,
};
pub use stats::{MemoryReport, SearchStats};
