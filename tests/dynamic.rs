//! Dynamic-graph correctness: incremental [`PreparedData::apply`] vs cold rebuild.
//!
//! Two pillars:
//!
//! * **Validation matrix** — duplicate edge inserts, deletes of absent edges,
//!   self-loops, and out-of-range endpoints each return their typed
//!   [`DeltaError`] variant naming the offending delta, and leave the index
//!   bit-identical (checked with `PreparedData`'s `PartialEq`, which compares
//!   every array of the index except the prep timestamp).
//! * **Rebuild equality** — after any applied batch, the incrementally
//!   maintained index is `==` to preparing the mutated graph from scratch:
//!   same CSR arrays, same label inverted index, same signature arena, same
//!   neighbor-label masks, same max-NLF/degree bounds. Probed on fixtures with
//!   scripted batches and on seed-pinned random delta streams (inserts, deletes,
//!   vertex adds) over generated graphs, including a 130-label stream whose
//!   labels collide on the masks' 64 bits, and on a stream shaped like
//!   gupbench's `point-large` deltas.
//! * **Copy-run boundaries** — `apply` copies each run of untouched vertices
//!   in one block and recomputes the rest, so batches touching the first or
//!   last vertex or adjacent ids, batches that only add vertices, and batches
//!   that lower a degree or max-NLF bound get their own cases.

use gup_graph::builder::graph_from_edges;
use gup_graph::delta::{DeltaError, GraphDelta};
use gup_graph::fixtures;
use gup_graph::generate::{erdos_renyi_graph, power_law_graph, ErdosRenyiConfig, PowerLawConfig};
use gup_graph::{Graph, PreparedData, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashSet, VecDeque};

mod common;
use common::random_delta;

/// Cold-rebuilds the prepared index from the graph it currently describes.
fn rebuilt(prepared: &PreparedData) -> PreparedData {
    let g = prepared.graph();
    let edges: Vec<_> = g.edges().collect();
    PreparedData::new(graph_from_edges(g.labels(), &edges))
}

#[test]
fn validation_matrix_types_errors_and_mutates_nothing() {
    let (_q, data) = fixtures::paper_example();
    let base = PreparedData::new(data);
    let snapshot = base.clone();
    let n = base.graph().vertex_count() as u32;
    let existing = base.graph().edges().next().expect("fixture has edges");
    let cases: Vec<(Vec<GraphDelta>, DeltaError)> = vec![
        // Duplicate insert of an existing edge.
        (
            vec![GraphDelta::AddEdge {
                a: existing.1,
                b: existing.0,
            }],
            DeltaError::DuplicateEdge {
                a: existing.0,
                b: existing.1,
                index: 0,
            },
        ),
        // Duplicate insert within the batch itself.
        (
            vec![
                GraphDelta::AddVertex { label: 0 },
                GraphDelta::AddEdge { a: 0, b: n },
                GraphDelta::AddEdge { a: n, b: 0 },
            ],
            DeltaError::DuplicateEdge {
                a: 0,
                b: n,
                index: 2,
            },
        ),
        // Delete of an edge that does not exist.
        (
            vec![GraphDelta::RemoveEdge { a: 0, b: n - 1 }],
            DeltaError::MissingEdge {
                a: 0,
                b: n - 1,
                index: 0,
            },
        ),
        // Delete of an edge the same batch already deleted.
        (
            vec![
                GraphDelta::RemoveEdge {
                    a: existing.0,
                    b: existing.1,
                },
                GraphDelta::RemoveEdge {
                    a: existing.0,
                    b: existing.1,
                },
            ],
            DeltaError::MissingEdge {
                a: existing.0,
                b: existing.1,
                index: 1,
            },
        ),
        // Self loops, inserted or deleted.
        (
            vec![GraphDelta::AddEdge { a: 3, b: 3 }],
            DeltaError::SelfLoop {
                vertex: 3,
                index: 0,
            },
        ),
        (
            vec![GraphDelta::RemoveEdge { a: 3, b: 3 }],
            DeltaError::SelfLoop {
                vertex: 3,
                index: 0,
            },
        ),
        // Out-of-range endpoints — including "valid only later in the batch".
        (
            vec![GraphDelta::AddEdge { a: 0, b: n }],
            DeltaError::UnknownVertex {
                vertex: n,
                vertex_count: n as usize,
                index: 0,
            },
        ),
        (
            vec![
                GraphDelta::AddEdge { a: 0, b: n },
                GraphDelta::AddVertex { label: 0 },
            ],
            DeltaError::UnknownVertex {
                vertex: n,
                vertex_count: n as usize,
                index: 0,
            },
        ),
        (
            vec![GraphDelta::RemoveEdge { a: u32::MAX, b: 0 }],
            DeltaError::UnknownVertex {
                vertex: u32::MAX,
                vertex_count: n as usize,
                index: 0,
            },
        ),
    ];
    for (deltas, expected) in cases {
        let err = base.apply(&deltas).expect_err("batch must be rejected");
        assert_eq!(err, expected, "deltas {deltas:?}");
        // Nothing applied, nothing mutated: the index is bit-identical.
        assert_eq!(base, snapshot, "deltas {deltas:?} mutated the index");
    }
}

#[test]
fn error_display_names_the_delta() {
    let base = PreparedData::new(graph_from_edges(&[0, 1], &[(0, 1)]));
    let err = base
        .apply(&[
            GraphDelta::AddVertex { label: 2 },
            GraphDelta::AddEdge { a: 0, b: 9 },
        ])
        .expect_err("unknown vertex");
    let msg = format!("{err}");
    assert!(msg.contains("delta 1") && msg.contains('9'), "{msg}");
}

#[test]
fn scripted_fixture_batches_equal_cold_rebuild() {
    let (_q, data) = fixtures::paper_example();
    let base = PreparedData::new(data);
    let n = base.graph().vertex_count() as u32;
    // A batch exercising every delta kind at once, including an edge to a
    // vertex created earlier in the same batch.
    let (next, effects) = base
        .apply_with_effects(&[
            GraphDelta::AddVertex { label: 2 },
            GraphDelta::AddVertex { label: 5 },
            GraphDelta::AddEdge { a: n, b: n + 1 },
            GraphDelta::AddEdge { a: 0, b: n },
            GraphDelta::RemoveEdge { a: 0, b: 1 },
            GraphDelta::AddEdge { a: 0, b: 1 },
            GraphDelta::RemoveEdge { a: 0, b: 2 },
        ])
        .expect("valid batch");
    assert_eq!(next, rebuilt(&next));
    // Label 5 extends the label universe: the inverted index and max-NLF
    // tables grew consistently (covered by the equality, spot-check anyway).
    assert_eq!(next.graph().label(n + 1), 5);
    assert_eq!(effects.added_vertices, 2);
    assert_eq!(effects.inserted_edges, vec![(0, n), (n, n + 1)]);
    assert_eq!(effects.removed_edges, vec![(0, 2)]);
    // Chaining batches stays exact.
    let again = next
        .apply(&[
            GraphDelta::RemoveEdge { a: n, b: n + 1 },
            GraphDelta::AddEdge { a: 1, b: n + 1 },
        ])
        .expect("valid batch");
    assert_eq!(again, rebuilt(&again));
}

#[test]
fn random_streams_stay_equal_to_cold_rebuild() {
    // Seed-pinned random streams over generated graphs: apply N deltas in
    // small batches; after every batch the incremental index must equal a
    // from-scratch prepare of the same graph. The 130-label stream makes
    // `AddVertex` create labels past 64 (sharing mask bits) and past the
    // graph's label count.
    for (seed, labels) in [(7u64, 4usize), (41, 4), (1234, 4), (5, 130)] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data = erdos_renyi_graph(&ErdosRenyiConfig {
            vertices: 48,
            edge_probability: 0.12,
            labels,
            seed,
        });
        let initial_label_count = data.label_count();
        let mut prepared = PreparedData::new(data);
        let mut applied = 0usize;
        while applied < 120 {
            let batch: Vec<GraphDelta> = (0..3)
                .map(|_| random_delta(prepared.graph(), labels, &mut rng))
                .collect();
            // Single-delta validity does not compose (a later delta may clash
            // with an earlier one in the batch); skip the rare invalid draw.
            let Ok(next) = prepared.apply(&batch) else {
                continue;
            };
            applied += batch.len();
            prepared = next;
            assert_eq!(
                prepared,
                rebuilt(&prepared),
                "seed {seed}: divergence after {applied} deltas"
            );
        }
        if labels > 64 {
            assert!(
                prepared.graph().label_count() > initial_label_count.max(64),
                "seed {seed}: the stream added no label past 64 and past {initial_label_count}"
            );
        }
    }
}

/// The delta that flips edge `{a, b}`: removes it if present, adds it if not.
fn toggle(g: &Graph, a: VertexId, b: VertexId) -> GraphDelta {
    if g.has_edge(a, b) {
        GraphDelta::RemoveEdge { a, b }
    } else {
        GraphDelta::AddEdge { a, b }
    }
}

/// Applies `deltas` and asserts the result equals a cold rebuild.
fn apply_checked(prepared: &PreparedData, deltas: &[GraphDelta], case: &str) -> PreparedData {
    let next = prepared.apply(deltas).expect("valid batch");
    assert_eq!(next, rebuilt(&next), "{case}");
    next
}

#[test]
fn run_boundaries_equal_cold_rebuild() {
    let data = erdos_renyi_graph(&ErdosRenyiConfig {
        vertices: 48,
        edge_probability: 0.12,
        labels: 4,
        seed: 17,
    });
    let base = PreparedData::new(data);
    let g = base.graph();
    let last = g.vertex_count() as VertexId - 1;
    // Vertex 0 and the last vertex: the first and the last run are empty.
    apply_checked(&base, &[toggle(g, 0, last)], "first and last vertex");
    apply_checked(
        &base,
        &[toggle(g, 0, 1), toggle(g, last - 1, last)],
        "first two and last two vertices",
    );
    // Adjacent ids: the run between them is empty, the others are not.
    apply_checked(
        &base,
        &[toggle(g, 10, 11), toggle(g, 20, 30)],
        "adjacent ids",
    );
    // One pre-batch vertex touched: its edge goes to a vertex the batch adds.
    apply_checked(
        &base,
        &[
            GraphDelta::AddVertex { label: 1 },
            GraphDelta::AddEdge { a: 24, b: last + 1 },
        ],
        "one touched vertex",
    );
    // A one-vertex graph, whose only vertex is both first and last.
    let single = PreparedData::new(graph_from_edges(&[3], &[]));
    apply_checked(
        &single,
        &[
            GraphDelta::AddVertex { label: 0 },
            GraphDelta::AddEdge { a: 0, b: 1 },
        ],
        "one-vertex graph",
    );
}

#[test]
fn falling_bounds_are_recomputed() {
    // Vertex 0 (label 0) is the unique maximum-degree vertex (4) and the
    // unique holder of label 1's maximum count (3, from neighbors 1, 2, 3).
    let labels = [0, 1, 1, 1, 2, 0, 1, 1, 1, 0];
    let edges = [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 7), (6, 9)];
    let base = PreparedData::new(graph_from_edges(&labels, &edges));
    assert_eq!(base.max_degree(), 4);
    assert_eq!(base.max_nlf(1), 3);

    let next = apply_checked(&base, &[GraphDelta::RemoveEdge { a: 0, b: 4 }], "degree");
    assert_eq!(next.max_degree(), 3, "the unique maximum degree fell");
    assert_eq!(next.max_nlf(1), 3);

    let next = apply_checked(&base, &[GraphDelta::RemoveEdge { a: 0, b: 3 }], "max-NLF");
    assert_eq!(next.max_nlf(1), 2, "the unique maximum label-1 count fell");

    // Vertex 5 ties both maxima; the next batch leaves it untouched, so the
    // rescan after vertex 0 falls finds the tie.
    let tied = apply_checked(
        &base,
        &[
            GraphDelta::AddEdge { a: 5, b: 8 },
            GraphDelta::AddEdge { a: 5, b: 9 },
        ],
        "tie",
    );
    assert_eq!((tied.max_degree(), tied.max_nlf(1)), (4, 3));
    let next = apply_checked(&tied, &[GraphDelta::RemoveEdge { a: 0, b: 3 }], "tied");
    assert_eq!(
        next.max_nlf(1),
        3,
        "vertex 5 still has three label-1 neighbors"
    );
    assert_eq!(next.max_degree(), 4, "vertex 5 still has degree 4");
}

#[test]
fn vertex_only_batches_equal_cold_rebuild() {
    let (_q, data) = fixtures::paper_example();
    let base = PreparedData::new(data);
    let n = base.graph().vertex_count() as VertexId;
    let label_count = base.graph().label_count() as u32;
    let next = apply_checked(
        &base,
        &[
            GraphDelta::AddVertex { label: 1 },
            GraphDelta::AddVertex { label: 0 },
            GraphDelta::AddVertex { label: 1 },
        ],
        "existing labels",
    );
    assert_eq!(next.label_bucket(1).0.last(), Some(&(n + 2)));
    let next = apply_checked(
        &base,
        &[
            GraphDelta::AddVertex {
                label: label_count + 2,
            },
            GraphDelta::AddVertex { label: 0 },
        ],
        "label past label_count",
    );
    assert_eq!(next.graph().label_count(), label_count as usize + 3);
    apply_checked(
        &base,
        &[
            GraphDelta::AddVertex { label: 2 },
            GraphDelta::AddVertex { label: label_count },
            GraphDelta::AddEdge { a: 0, b: n },
            GraphDelta::AddEdge { a: n, b: n + 1 },
            GraphDelta::AddEdge { a: n - 1, b: n + 1 },
        ],
        "new vertices with edges",
    );
}

#[test]
fn point_large_shaped_stream_stays_equal_to_cold_rebuild() {
    // gupbench's point-large deltas at a smaller scale: a power-law graph with
    // 200 uniform labels, batches that delete the 8 oldest live inserts and
    // add 8 wedge-closing edges (an edge from a vertex to a neighbor of one
    // of its neighbors).
    let data = power_law_graph(&PowerLawConfig {
        vertices: 5_000,
        edges_per_vertex: 4,
        labels: 200,
        label_skew: 0.0,
        extra_edge_fraction: 0.05,
        seed: 3,
    });
    let original = data.clone();
    let mut rng = SmallRng::seed_from_u64(3);
    let mut prepared = PreparedData::new(data);
    let mut live: VecDeque<(VertexId, VertexId)> = VecDeque::new();
    for step in 0..=20 {
        let mut batch = Vec::new();
        if step > 0 {
            for (a, b) in live.drain(..8) {
                batch.push(GraphDelta::RemoveEdge { a, b });
            }
        }
        let mut inserted = HashSet::new();
        while inserted.len() < 8 {
            let n = original.vertex_count() as VertexId;
            let a = rng.gen_range(0..n);
            let Some(&mid) = pick(original.neighbors(a), &mut rng) else {
                continue;
            };
            let Some(&b) = pick(original.neighbors(mid), &mut rng) else {
                continue;
            };
            let edge = (a.min(b), a.max(b));
            if a == b || prepared.graph().has_edge(a, b) || !inserted.insert(edge) {
                continue;
            }
            live.push_back(edge);
            batch.push(GraphDelta::AddEdge {
                a: edge.0,
                b: edge.1,
            });
        }
        prepared = apply_checked(&prepared, &batch, &format!("batch {step}"));
    }
    assert_eq!(live.len(), 8);
}

fn pick<'a>(items: &'a [VertexId], rng: &mut SmallRng) -> Option<&'a VertexId> {
    if items.is_empty() {
        None
    } else {
        items.get(rng.gen_range(0..items.len()))
    }
}
