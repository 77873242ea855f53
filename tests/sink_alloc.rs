//! Allocation accounting for the sink layer: a `CountOnly` run must perform **zero
//! per-embedding allocations** in the search hot path.
//!
//! A thread-local counting `#[global_allocator]` tallies every allocation made by
//! the test thread. The instance is a single-vertex query over data graphs whose
//! every candidate is an embedding, so the embedding count scales with the instance
//! while the rest of the search structure stays constant-size: if any part of the
//! count-only path allocated per embedding, the allocation count would grow with the
//! instance. The test pins that it does not (and that collecting sinks *do* pay one
//! allocation per retained embedding, i.e. the counter itself works).
//!
//! This file holds exactly this test so the global allocator hook cannot interfere
//! with unrelated suites.

use gup::sink::{CollectAll, CountOnly, FirstK};
use gup::{GupConfig, GupMatcher, SearchLimits};
use gup_graph::builder::graph_from_edges;
use gup_graph::{Graph, PreparedData};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates all allocation to `System`; the bookkeeping only touches a
// const-initialized thread-local `Cell`, which never allocates or reenters.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so allocations during TLS teardown cannot panic.
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.alloc(layout)
    }

    // SAFETY: forwards `ptr`/`layout` unchanged to `System`, whose contract the
    // caller already upholds per the `GlobalAlloc` requirements.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's arguments unchanged to `System`; the extra
    // bookkeeping touches only a thread-local `Cell` and cannot reenter.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

/// `n` label-0 vertices, no edges: a single-vertex label-0 query has exactly `n`
/// embeddings and the search never refines a forward neighbor.
fn all_match_instance(n: usize) -> (Graph, Graph) {
    let query = graph_from_edges(&[0], &[]);
    let data = graph_from_edges(&vec![0u32; n], &[]);
    (query, data)
}

fn count_run_allocations(n: usize) -> (u64, u64) {
    let (query, data) = all_match_instance(n);
    let cfg = GupConfig {
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    let matcher = GupMatcher::<1>::with_prepared(&query, &PreparedData::new(data), cfg).unwrap();
    let mut sink = CountOnly::new();
    let before = allocations();
    matcher.run_with_sink(&mut sink);
    let spent = allocations() - before;
    (spent, sink.count())
}

#[test]
fn count_only_run_allocations_do_not_scale_with_embeddings() {
    // Warm up lazily-initialized runtime state so it cannot pollute the counters.
    let _ = count_run_allocations(8);

    let (small_allocs, small_count) = count_run_allocations(200);
    let (large_allocs, large_count) = count_run_allocations(2000);
    assert_eq!(small_count, 200);
    assert_eq!(large_count, 2000);

    // 10x the embeddings, identical allocation count: the count-only hot path
    // performs zero per-embedding allocations. (Engine setup is a fixed number of
    // allocations — candidate stacks, owner array — independent of how many
    // embeddings stream through the sink.)
    assert_eq!(
        small_allocs, large_allocs,
        "count-only allocations scaled with the embedding count"
    );
    // And that fixed setup cost really is small.
    assert!(
        large_allocs < 64,
        "count-only run made {large_allocs} allocations — hot path no longer lean"
    );
}

/// Same pinning through the width-dispatching session front door: a ≤64-vertex
/// query must take the monomorphized `Qv64` path, whose count-only hot loop makes
/// zero per-embedding (and zero per-node) allocations — the width generalization
/// must not have put an allocation or a branch on the narrow path.
#[test]
fn session_qv64_count_allocations_do_not_scale_with_embeddings() {
    use gup::session::Session;

    // One fixed instance (2000 embeddings available); only the embedding limit
    // varies, so engine construction is identical across runs and any allocation
    // difference would be per-embedding cost on the dispatched Qv64 path.
    let (query, data) = all_match_instance(2000);
    let session = Session::new(data);
    let run = |limit: u64| {
        let before = allocations();
        let count = session.query(&query).limit(limit).count().unwrap();
        (allocations() - before, count)
    };
    // Warm up lazily-initialized runtime state.
    let _ = run(8);

    let (small_allocs, small_count) = run(200);
    let (large_allocs, large_count) = run(2000);
    assert_eq!(small_count, 200);
    assert_eq!(large_count, 2000);
    assert_eq!(
        small_allocs, large_allocs,
        "session count-only allocations scaled with the embedding count"
    );
}

#[test]
fn collecting_sinks_pay_exactly_for_what_they_keep() {
    let (query, data) = all_match_instance(1000);
    let cfg = GupConfig {
        limits: SearchLimits::UNLIMITED,
        ..GupConfig::default()
    };
    let matcher = GupMatcher::<1>::with_prepared(&query, &PreparedData::new(data), cfg).unwrap();

    // CollectAll clones each of the 1000 embeddings: at least one allocation each.
    let mut all = CollectAll::new();
    let before = allocations();
    matcher.run_with_sink(&mut all);
    let collect_allocs = allocations() - before;
    assert_eq!(all.len(), 1000);
    assert!(
        collect_allocs >= 1000,
        "CollectAll made only {collect_allocs} allocations for 1000 embeddings"
    );

    // FirstK(5) stops the search after 5: allocations stay near the setup cost.
    let mut first = FirstK::new(5);
    let before = allocations();
    matcher.run_with_sink(&mut first);
    let first_allocs = allocations() - before;
    assert_eq!(first.embeddings().len(), 5);
    assert!(
        first_allocs < 64,
        "FirstK(5) made {first_allocs} allocations — early stop is not early"
    );
}
