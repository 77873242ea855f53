//! Allocation accounting for the per-query hot paths: NLF filtering must not
//! allocate **per candidate**, and a whole query must not allocate in proportion
//! to the **data graph**.
//!
//! The NLF filter compares the query vertex's profile against precomputed
//! signatures, so it needs no per-candidate buffer; cloning a label profile per
//! tested data vertex would be one heap allocation per candidate. The rest of a
//! query takes its arrays indexed by data-vertex id from the thread's scratch pool
//! (`gup_graph::scratch`), so once the pool is warm the bytes a query allocates
//! follow its candidate space.
//!
//! A thread-local counting `#[global_allocator]` (same pattern as
//! `tests/sink_alloc.rs`) pins this: filtering 10× the candidates may only grow the
//! allocation count by the output vector's geometric growth (a few reallocations),
//! never linearly; scanning a label bucket 10× as large allocates the same bytes
//! when the output stays empty (the filter allocates only its profile and its
//! output); and a query over a data graph padded to 16× the vertices allocates
//! exactly the bytes it allocates over the unpadded one. A guarded candidate space
//! with ten times the candidates and candidate edges, built, given a search engine
//! and dropped, costs only the geometric growth of its arrays. A search that makes
//! ten times the recursions makes exactly the allocations of the smaller one, for
//! GuP and every backtracking baseline: the local candidate sets live on a stack
//! reserved when the engine is built. This file holds exactly these tests so the
//! allocator hook cannot interfere with unrelated suites.

use gup::session::{Engine, Session};
use gup::{Gcs, GupConfig, PruningFeatures, SearchEngine, SearchLimits, SearchTask};
use gup_baselines::{BacktrackingBaseline, BaselineKind};
use gup_candidate::filters::nlf_candidates_prepared;
use gup_graph::builder::graph_from_edges;
use gup_graph::generate::{power_law_graph, random_walk_query, PowerLawConfig};
use gup_graph::sink::CountOnly;
use gup_graph::{Graph, Label, PreparedData};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` bytes on this thread.
fn record(bytes: usize) {
    // `try_with` so allocations during TLS teardown cannot panic.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: delegates all allocation to `System`; the bookkeeping only touches
// const-initialized thread-local `Cell`s, which never allocate or reenter.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
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
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(|count| count.get())
}

fn allocated_bytes() -> u64 {
    BYTES.with(|total| total.get())
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

/// Query: a label-0 vertex with one label-1 neighbor. Data: `n` disjoint 0–2
/// edges plus one 1–2 edge, which lifts label 1's max-NLF bound to 1 so the
/// bound does not short-circuit. Every label-0 vertex is in query vertex 0's
/// bucket, and none has a label-1 neighbor.
fn empty_output_instance(n: usize) -> (Graph, Graph) {
    let query = graph_from_edges(&[0, 1], &[(0, 1)]);
    let mut labels = Vec::with_capacity(2 * n + 2);
    let mut edges = Vec::with_capacity(n + 1);
    for i in 0..n {
        labels.push(0);
        labels.push(2);
        edges.push((2 * i as u32, 2 * i as u32 + 1));
    }
    labels.extend([1, 2]);
    edges.push((2 * n as u32, 2 * n as u32 + 1));
    (query, graph_from_edges(&labels, &edges))
}

fn empty_output_filter_bytes(n: usize) -> u64 {
    let (query, data) = empty_output_instance(n);
    let prepared = PreparedData::new(data);
    assert_eq!(prepared.label_bucket(0).0.len(), n);
    let before = allocated_bytes();
    let candidates = nlf_candidates_prepared(&query, &prepared, 0);
    let spent = allocated_bytes() - before;
    assert!(candidates.is_empty(), "no label-0 vertex passes NLF");
    spent
}

/// The filter's bytes follow its output, not its label bucket: scanning a
/// bucket 10× as large, with nothing passing, allocates the same bytes.
#[test]
fn filter_bytes_do_not_depend_on_the_label_bucket_size() {
    let small = empty_output_filter_bytes(1000);
    let large = empty_output_filter_bytes(10_000);
    assert_eq!(
        small, large,
        "filtering a 1000-vertex bucket allocated {small} bytes but a \
         10000-vertex bucket {large}"
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

/// The host component every padded data graph shares: a seed-pinned power-law
/// graph over labels `0..8`, and an 8-vertex random-walk query drawn from it.
fn host_and_query() -> (Graph, Graph) {
    let host = power_law_graph(&PowerLawConfig {
        vertices: 400,
        edges_per_vertex: 3,
        labels: 8,
        seed: 16,
        ..PowerLawConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(16);
    let query = (0..100)
        .find_map(|_| random_walk_query(&host, 8, &mut rng))
        .expect("the host graph yields an 8-vertex walk query");
    (host, query)
}

/// `host` padded to `vertices` vertices with a label no query vertex uses, on a
/// path of their own. The host keeps ids `0..host_len`, so the candidate sets and
/// every label bucket a query reads are identical at every padded size.
fn padded(host: &Graph, vertices: usize) -> Graph {
    const PADDING: Label = 1000;
    let mut labels: Vec<Label> = host.vertices().map(|v| host.label(v)).collect();
    let mut edges: Vec<(u32, u32)> = host.edges().collect();
    let first = labels.len() as u32;
    labels.resize(vertices, PADDING);
    edges.extend((first + 1..vertices as u32).map(|v| (v - 1, v)));
    graph_from_edges(&labels, &edges)
}

/// Bytes one `count` of `query` allocates through a fresh session over `data` on
/// this thread, measured on the second run (the first warms the thread's scratch
/// pool), plus the count it returned.
fn warm_query_bytes(engine: Engine, data: Graph, query: &Graph) -> (u64, u64) {
    let session = Session::new(data);
    let run = || {
        session
            .query(query)
            .method(engine)
            .limit(1000)
            .count()
            .expect("the walk query is valid")
    };
    let warm = run();
    let before = allocated_bytes();
    let count = run();
    let spent = allocated_bytes() - before;
    assert_eq!(count, warm, "{}: the two runs disagree", engine.name());
    (spent, count)
}

/// After a thread's first query, the bytes one query allocates do not depend on
/// |V_D|: every engine family that runs a candidate space takes its arrays
/// indexed by data-vertex id from the thread's scratch pool, so a data graph
/// padded to 16× the vertices (the padding invisible to the query) costs the
/// query the same bytes.
///
/// Two cases are out. Brute force is excluded because the oracle keeps its dense
/// `used` array over every data vertex, as the reference implementation.
/// Parallel runs are excluded because their workers are spawned per run, so their
/// pools last one run and every run pays the first take.
#[test]
fn bytes_per_query_do_not_depend_on_the_data_graph_size() {
    let (host, query) = host_and_query();
    let n = 4096;
    for engine in [
        Engine::Gup,
        Engine::Daf,
        Engine::Gql,
        Engine::Ri,
        Engine::Plain,
        Engine::Join,
    ] {
        let (small_bytes, small_count) = warm_query_bytes(engine, padded(&host, n), &query);
        let (large_bytes, large_count) = warm_query_bytes(engine, padded(&host, 16 * n), &query);
        assert!(
            small_count > 0,
            "{}: the walk query has no match",
            engine.name()
        );
        assert_eq!(small_count, large_count, "{}", engine.name());
        assert_eq!(
            small_bytes,
            large_bytes,
            "{}: one query allocated {small_bytes} bytes over {n} data vertices but \
             {large_bytes} over {}",
            engine.name(),
            16 * n
        );
    }
}

/// `copies` disjoint copies of the paper's Fig. 1 data graph, with its query:
/// every candidate set and candidate-edge list grows with `copies`, the query
/// does not.
fn motif_copies(copies: u32) -> (Graph, PreparedData) {
    let (query, motif) = gup_graph::fixtures::paper_example();
    let size = motif.vertex_count() as u32;
    let mut labels = Vec::new();
    let mut edges = Vec::new();
    for copy in 0..copies {
        labels.extend(motif.vertices().map(|v| motif.label(v)));
        edges.extend(
            motif
                .edges()
                .map(|(a, b)| (a + copy * size, b + copy * size)),
        );
    }
    (query, PreparedData::new(graph_from_edges(&labels, &edges)))
}

/// Allocations made by building the GCS of `query` over `prepared`, creating its
/// search engine and dropping both, with the GCS's candidate and candidate-edge
/// counts. Every block the drops free was allocated in the window, so the count
/// bounds the frees too.
fn gcs_allocations(query: &Graph, prepared: &PreparedData) -> (u64, usize, usize) {
    let config = GupConfig::default();
    let before = allocations();
    let gcs = Gcs::<1>::build_prepared(query, prepared, &config).expect("the query is valid");
    let engine = SearchEngine::new(&gcs, &config);
    let space = gcs.space();
    let sizes = (space.total_candidates(), space.total_candidate_edges());
    drop(engine);
    drop(gcs);
    (allocations() - before, sizes.0, sizes.1)
}

/// The guarded candidate space is a fixed number of arrays per query vertex, per
/// query edge and per query: ten times the candidates and candidate edges cost a
/// GCS build, a search engine and their drop only the geometric growth of those
/// arrays (a few reallocations each), never an allocation per candidate.
#[test]
fn gcs_allocations_do_not_grow_with_the_candidate_space() {
    let (query, small) = motif_copies(30);
    let (_, large) = motif_copies(300);
    // Warm the thread's scratch pool at the larger data graph.
    let _ = gcs_allocations(&query, &large);
    let (small_allocs, small_candidates, small_edges) = gcs_allocations(&query, &small);
    let (large_allocs, large_candidates, large_edges) = gcs_allocations(&query, &large);
    assert_eq!(large_candidates, 10 * small_candidates);
    assert_eq!(large_edges, 10 * small_edges);
    // Ten times the length costs a geometrically growing array at most
    // ceil(log2 10) = 4 more reallocations; allow two such arrays per query
    // vertex and per query edge. One allocation per candidate would be 4050 more.
    let growth = 4 * 2 * (query.vertex_count() + query.edge_count()) as u64;
    assert!(
        large_allocs <= small_allocs + growth,
        "a GCS over {small_candidates} candidates and {small_edges} candidate edges \
         made {small_allocs} allocations, over {large_candidates} and {large_edges} \
         {large_allocs}"
    );
}

/// The wheel over `rim` vertices, one label: hub 0 joined to every vertex of the
/// cycle `1..=rim`. Against a one-label triangle every vertex is a candidate of
/// every query vertex, and candidate 0, the hub, roots a subtree of `rim + 1`
/// recursions.
fn wheel(rim: u32) -> Graph {
    let mut edges: Vec<(u32, u32)> = (1..=rim).map(|r| (0, r)).collect();
    edges.extend((1..=rim).map(|r| (r, r % rim + 1)));
    graph_from_edges(&vec![0; rim as usize + 1], &edges)
}

/// One search a test measures.
#[derive(Clone, Copy, Debug)]
enum Search {
    /// A whole GuP search with these features.
    Gup(PruningFeatures),
    /// GuP's `run_task_with_sink` on the task that replays root candidate 0 and
    /// then explores every candidate of query vertex 1 adjacent to it.
    GupTask,
    /// A whole baseline search.
    Baseline(BaselineKind),
}

/// Allocations made by one search phase of `query` over `prepared` on this
/// thread — an engine built on a prebuilt GCS or baseline, its run and its drop —
/// with the recursions the run made.
fn search_phase(search: Search, query: &Graph, prepared: &PreparedData) -> (u64, u64) {
    let limits = SearchLimits::UNLIMITED;
    match search {
        Search::Gup(features) => {
            let config = GupConfig {
                features,
                limits,
                ..GupConfig::default()
            };
            let gcs = Gcs::<1>::build_prepared(query, prepared, &config).expect("valid query");
            let before = allocations();
            let stats = SearchEngine::new(&gcs, &config).run_with_sink(&mut CountOnly::new());
            (allocations() - before, stats.recursions)
        }
        Search::GupTask => {
            let config = GupConfig {
                limits,
                ..GupConfig::default()
            };
            let gcs = Gcs::<1>::build_prepared(query, prepared, &config).expect("valid query");
            let task = SearchTask {
                prefix: vec![0],
                candidates: gcs.space().adjacent_candidates(0, 0, 1).to_vec(),
            };
            let before = allocations();
            let mut engine = SearchEngine::new(&gcs, &config);
            engine.run_task_with_sink(task, &mut CountOnly::new());
            let recursions = engine.stats().recursions;
            drop(engine);
            (allocations() - before, recursions)
        }
        Search::Baseline(kind) => {
            let baseline = BacktrackingBaseline::<1>::with_prepared(query, prepared, kind, limits)
                .expect("valid query");
            let before = allocations();
            let stats = baseline.run_with_sink(&mut CountOnly::new());
            (allocations() - before, stats.recursions)
        }
    }
}

/// A search's allocations do not grow with its recursions: on a warm thread, a
/// search of the same query that recurses ten times as often makes exactly as
/// many allocations, for GuP with every feature and with none, for a task with a
/// replayed prefix, and for every backtracking baseline. Extending a partial
/// embedding narrows its forward neighbors' candidate sets on the engine's
/// candidate stack, never into a fresh list.
#[test]
fn search_allocations_do_not_grow_with_recursions() {
    let query = graph_from_edges(&[0; 3], &[(0, 1), (1, 2), (2, 0)]);
    let small = PreparedData::new(wheel(10));
    let large = PreparedData::new(wheel(120));
    let mut searches = vec![
        Search::Gup(PruningFeatures::ALL),
        Search::Gup(PruningFeatures::NONE),
        Search::GupTask,
    ];
    searches.extend(BaselineKind::ALL.map(Search::Baseline));
    for search in searches {
        // Warm the thread's scratch pool at the larger data graph.
        let _ = search_phase(search, &query, &large);
        let (small_allocs, small_recursions) = search_phase(search, &query, &small);
        let (large_allocs, large_recursions) = search_phase(search, &query, &large);
        assert!(
            large_recursions >= 10 * small_recursions,
            "{search:?}: {small_recursions} and {large_recursions} recursions"
        );
        assert_eq!(
            small_allocs, large_allocs,
            "{search:?}: {small_recursions} recursions made {small_allocs} allocations, \
             {large_recursions} made {large_allocs}"
        );
    }
}
