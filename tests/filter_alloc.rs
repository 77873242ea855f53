//! Allocation accounting for the candidate-filter hot path: NLF filtering must not
//! allocate **per candidate**.
//!
//! The NLF filter compares the query vertex's profile against precomputed
//! signatures, so it needs no per-candidate buffer; cloning a label profile per
//! tested data vertex would be one heap allocation per candidate.
//!
//! A thread-local counting `#[global_allocator]` (same pattern as
//! `tests/sink_alloc.rs`) pins this: filtering 10× the candidates may only grow the
//! allocation count by the output vector's geometric growth (a few reallocations),
//! never linearly. This file holds exactly these tests so the allocator hook cannot
//! interfere with unrelated suites.

use gup_candidate::filters::nlf_candidates_prepared;
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

/// Query: a label-0 vertex with one label-1 neighbor. Data: `n` disjoint 0–1 edges,
/// so query vertex 0 has exactly `n` LDF candidates and every one passes NLF — the
/// filter's per-candidate work scales with `n` while everything else is constant.
fn filter_instance(n: usize) -> (Graph, Graph) {
    let query = graph_from_edges(&[0, 1], &[(0, 1)]);
    let mut labels = Vec::with_capacity(2 * n);
    let mut edges = Vec::with_capacity(n);
    for i in 0..n {
        labels.push(0);
        labels.push(1);
        edges.push((2 * i as u32, 2 * i as u32 + 1));
    }
    (query, graph_from_edges(&labels, &edges))
}

fn prepared_filter_allocations(n: usize) -> (u64, usize) {
    let (query, data) = filter_instance(n);
    let prepared = PreparedData::new(data);
    let before = allocations();
    let candidates = nlf_candidates_prepared(&query, &prepared, 0);
    (allocations() - before, candidates.len())
}

#[test]
fn prepared_nlf_filtering_does_not_allocate_per_candidate() {
    let _ = prepared_filter_allocations(8);

    let (small_allocs, small_count) = prepared_filter_allocations(400);
    let (large_allocs, large_count) = prepared_filter_allocations(4000);
    assert_eq!(small_count, 400);
    assert_eq!(large_count, 4000);
    assert!(
        large_allocs <= small_allocs + 16,
        "prepared NLF filtering allocations scaled with the candidate count: \
         {small_allocs} for 400 candidates vs {large_allocs} for 4000"
    );
    assert!(
        large_allocs < 64,
        "prepared NLF filtering made {large_allocs} allocations for 4000 candidates"
    );
}

/// The signature comparison itself is allocation-free: testing every candidate
/// individually (no output vector at all) performs zero allocations.
#[test]
fn prepared_signature_test_is_allocation_free() {
    let (query, data) = filter_instance(1000);
    let prepared = PreparedData::new(data);
    let profile = gup_candidate::NlfProfile::of(&query, 0);
    let before = allocations();
    let mut passed = 0usize;
    for v in prepared.graph().vertices() {
        if gup_candidate::nlf_filter_prepared(&profile, &prepared, v) {
            passed += 1;
        }
    }
    let spent = allocations() - before;
    assert_eq!(passed, 1000); // the 1000 label-0 endpoints
    assert_eq!(
        spent, 0,
        "per-candidate signature tests allocated {spent} times"
    );
}
