//! Quickstart: run GuP on the paper's running example (Fig. 1).
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Opens a prepared-data [`Session`] over the 14-vertex data graph from the paper
//! (the index is built once), enumerates every embedding of the 5-vertex query, and
//! prints them together with the search statistics the paper reports (recursions,
//! futile recursions, guard usage). Also demonstrates the builder-style request
//! knobs (count-only, first-k, another engine) and a query set under one shared
//! deadline.

use gup::session::{Engine, Session};
use gup_graph::deadline::deadline_after;
use gup_graph::fixtures::paper_example;
use std::time::Duration;

fn main() {
    let (query, data) = paper_example();
    println!(
        "query: {} vertices / {} edges; data: {} vertices / {} edges",
        query.vertex_count(),
        query.edge_count(),
        data.vertex_count(),
        data.edge_count()
    );

    // Prepare once; every request below reuses the same shared index.
    let session = Session::new(data);
    println!(
        "prepared data graph in {:?} ({} index bytes)",
        session.prep_time(),
        session.prepared().index_bytes()
    );

    let result = session
        .query(&query)
        .unlimited()
        .run()
        .expect("valid query");
    println!("\nfound {} embedding(s):", result.embedding_count());
    for (i, emb) in result.embeddings.iter().enumerate() {
        let rendered: Vec<String> = emb
            .iter()
            .enumerate()
            .map(|(u, v)| format!("u{u}->v{v}"))
            .collect();
        println!("  #{i}: {}", rendered.join(", "));
    }

    let s = &result.stats;
    println!("\nsearch statistics:");
    println!("  recursions            : {}", s.recursions);
    println!("  futile recursions     : {}", s.futile_recursions);
    println!("  pruned by reservation : {}", s.pruned_by_reservation);
    println!("  pruned by nogood (NV) : {}", s.pruned_by_nogood_vertex);
    println!("  pruned by nogood (NE) : {}", s.pruned_by_nogood_edge);
    println!("  backjumps             : {}", s.backjumps);
    println!(
        "  guard prune rate      : {:.1}%",
        s.guard_prune_rate() * 100.0
    );

    // Builder knobs: the output demand drives the work. Counting materializes
    // nothing anywhere; first_k stops the whole search after the k-th match; any
    // engine family runs against the same prepared index.
    let count = session.query(&query).unlimited().count().unwrap();
    println!("\ncount-only request     : {count} embeddings");

    let first = session.query(&query).unlimited().first_k(2).run().unwrap();
    println!(
        "first-2 request        : kept {} embedding(s), search stopped early: {}",
        first.embeddings.len(),
        first.stats.terminated_early()
    );

    let daf = session
        .query(&query)
        .method(Engine::Daf)
        .unlimited()
        .count()
        .unwrap();
    println!("DAF-style baseline     : {daf} embeddings (same prepared data)");

    // A query set through the same session: one request per query, all under one
    // shared deadline (a query that starts after it has passed does no work).
    let queries = [&query, &query];
    let deadline = deadline_after(Duration::from_secs(10));
    let total: u64 = queries
        .iter()
        .map(|q| {
            session
                .query(q)
                .unlimited()
                .deadline(deadline)
                .count()
                .unwrap()
        })
        .sum();
    println!(
        "query set ({} queries)  : {total} embeddings total, prep paid once ({:?})",
        queries.len(),
        session.prep_time()
    );
}
