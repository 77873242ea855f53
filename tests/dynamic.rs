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
//!   labels collide on the masks' 64 bits.

use gup_graph::builder::graph_from_edges;
use gup_graph::delta::{DeltaError, GraphDelta};
use gup_graph::fixtures;
use gup_graph::generate::{erdos_renyi_graph, ErdosRenyiConfig};
use gup_graph::PreparedData;
use rand::rngs::SmallRng;
use rand::SeedableRng;

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
