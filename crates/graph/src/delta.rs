//! Dynamic data graphs: typed deltas and incremental [`PreparedData`] maintenance.
//!
//! Every index in this workspace was immutable until this module: a single edge
//! insert meant rebuilding the CSR graph (collect + sort every edge) and re-running
//! the whole signature pass. [`PreparedData::apply`] replaces that with *incremental*
//! maintenance: one merge pass that
//!
//! * splices the inserted/deleted adjacency into the CSR arrays (untouched vertices
//!   are block-copied, touched ones are merged against their sorted change lists —
//!   no global edge sort),
//! * recomputes neighborhood-label-frequency signatures **only** for vertices whose
//!   adjacency changed, block-copying every other vertex's slice of the arena,
//! * keeps the neighbor-label masks in label-bucket order by block-copying each
//!   label's old segment, appending zeros for the batch's new vertices (they have
//!   the largest ids, so they sit last in their buckets) and recomputing the masks
//!   of touched vertices only,
//! * refreshes the per-label max-NLF bounds and the degree statistics during the
//!   same pass.
//!
//! The result is a brand-new [`PreparedData`] — the original is never mutated, so
//! in-flight queries holding an `Arc` of the old index are undisturbed (the same
//! pin-the-old-graph story `gup-serve` uses for `reload`). Equality with a cold
//! rebuild is exact: `old.apply(&deltas)? == PreparedData::new(rebuilt_graph)`
//! (both sides keep adjacency and signature slices sorted), which is what the
//! `tests/dynamic.rs` differential suite pins.
//!
//! Validation is strict and typed in the spirit of the ingest sweep: deltas are
//! checked *in order* against the state produced by the deltas before them, and the
//! first invalid one aborts the whole batch with a [`DeltaError`] naming the
//! offending index — nothing is partially applied. Like `index_io.rs`, this
//! module mutates the persistent index from externally supplied input, so it is
//! held to gup-lint's `panic_freedom` rule: no `.unwrap()`/`.expect()`/`panic!`
//! outside test code (enforced in tier-1, pinned by the rule's corpus case).
//!
//! ```
//! use gup_graph::delta::GraphDelta;
//! use gup_graph::{builder::graph_from_edges, PreparedData};
//!
//! let base = PreparedData::new(graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2)]));
//! let next = base
//!     .apply(&[
//!         GraphDelta::AddVertex { label: 1 },
//!         GraphDelta::AddEdge { a: 2, b: 3 },
//!         GraphDelta::RemoveEdge { a: 0, b: 1 },
//!     ])
//!     .unwrap();
//! assert_eq!(next.graph().vertex_count(), 4);
//! assert_eq!(next.graph().edge_count(), 2);
//! // `base` is untouched: apply builds a new index.
//! assert_eq!(base.graph().edge_count(), 2);
//! ```

use crate::deadline::Stopwatch;
use crate::types::{Label, VertexId};
use crate::{Graph, PreparedData};
use std::collections::HashMap;

/// One mutation of the data graph. Batches of deltas are applied atomically by
/// [`PreparedData::apply`]; within a batch, later deltas see the effect of earlier
/// ones (an edge may reference a vertex added two deltas before).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphDelta {
    /// Appends a vertex carrying `label`. New ids are assigned consecutively
    /// starting at the pre-batch vertex count, in delta order.
    AddVertex {
        /// Label of the new vertex.
        label: Label,
    },
    /// Inserts the undirected edge `{a, b}`. The edge must not already exist.
    AddEdge {
        /// One endpoint.
        a: VertexId,
        /// The other endpoint.
        b: VertexId,
    },
    /// Deletes the undirected edge `{a, b}`. The edge must exist.
    RemoveEdge {
        /// One endpoint.
        a: VertexId,
        /// The other endpoint.
        b: VertexId,
    },
}

/// Why a delta batch was rejected. The batch is validated in order; `index` is the
/// position of the first offending delta. Nothing is applied on error — the
/// original [`PreparedData`] is returned untouched (it is never mutated at all;
/// [`PreparedData::apply`] builds a new index).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeltaError {
    /// An edge delta named the same vertex twice (the matcher assumes simple
    /// graphs, Definition 2.2 of the paper).
    SelfLoop {
        /// The repeated endpoint.
        vertex: VertexId,
        /// Position of the delta in the batch.
        index: usize,
    },
    /// An edge delta referenced a vertex id that does not exist at that point of
    /// the batch (neither in the base graph nor added by an earlier delta).
    UnknownVertex {
        /// The out-of-range endpoint.
        vertex: VertexId,
        /// Number of vertices that existed when the delta was checked.
        vertex_count: usize,
        /// Position of the delta in the batch.
        index: usize,
    },
    /// An `AddEdge` named an edge that already exists (in the base graph, or
    /// inserted by an earlier delta of the batch).
    DuplicateEdge {
        /// Lower endpoint.
        a: VertexId,
        /// Higher endpoint.
        b: VertexId,
        /// Position of the delta in the batch.
        index: usize,
    },
    /// A `RemoveEdge` named an edge that does not exist at that point of the batch.
    MissingEdge {
        /// Lower endpoint.
        a: VertexId,
        /// Higher endpoint.
        b: VertexId,
        /// Position of the delta in the batch.
        index: usize,
    },
    /// The updated signature arena would overflow its `u32` offsets — the same
    /// bound [`crate::prepared::PrepareError::SignatureArenaTooLarge`] enforces on
    /// a cold build.
    IndexOverflow {
        /// Number of `(label, count)` entries the arena would need.
        entries: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::SelfLoop { vertex, index } => {
                write!(f, "delta {index}: self loop on vertex {vertex}")
            }
            DeltaError::UnknownVertex {
                vertex,
                vertex_count,
                index,
            } => write!(
                f,
                "delta {index}: vertex {vertex} out of range (graph has {vertex_count} vertices at that point)"
            ),
            DeltaError::DuplicateEdge { a, b, index } => {
                write!(f, "delta {index}: edge ({a}, {b}) already exists")
            }
            DeltaError::MissingEdge { a, b, index } => {
                write!(f, "delta {index}: edge ({a}, {b}) does not exist")
            }
            DeltaError::IndexOverflow { entries } => write!(
                f,
                "signature arena would need {entries} entries, which exceeds the u32 offset range"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The net effect of an applied delta batch, relative to the pre-batch graph.
/// Inserted-then-deleted (or deleted-then-reinserted) edges cancel out; the
/// continuous-matching layer seeds its delta-localized search from exactly
/// [`DeltaEffects::inserted_edges`] and [`DeltaEffects::added_vertices`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeltaEffects {
    /// Id of the first vertex added by the batch (== the pre-batch vertex count);
    /// added ids are `first_new_vertex..first_new_vertex + added_vertices`.
    pub first_new_vertex: VertexId,
    /// Number of vertices the batch added.
    pub added_vertices: usize,
    /// Edges present after the batch but not before, canonical `(lo, hi)`, sorted.
    pub inserted_edges: Vec<(VertexId, VertexId)>,
    /// Edges present before the batch but not after, canonical `(lo, hi)`, sorted.
    pub removed_edges: Vec<(VertexId, VertexId)>,
}

impl DeltaEffects {
    /// `true` if the batch changed nothing (all deltas cancelled out, and no
    /// vertex was added).
    pub fn is_noop(&self) -> bool {
        self.added_vertices == 0 && self.inserted_edges.is_empty() && self.removed_edges.is_empty()
    }

    /// Ids of the vertices the batch added, in insertion order.
    pub fn new_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.added_vertices).map(|i| self.first_new_vertex + i as VertexId)
    }
}

/// Validated, normalized view of one delta batch: appended labels plus the net
/// per-edge changes.
struct ValidatedBatch {
    new_labels: Vec<Label>,
    inserted: Vec<(VertexId, VertexId)>,
    removed: Vec<(VertexId, VertexId)>,
}

fn validate(graph: &Graph, deltas: &[GraphDelta]) -> Result<ValidatedBatch, DeltaError> {
    let n0 = graph.vertex_count();
    let mut new_labels: Vec<Label> = Vec::new();
    // Presence overlay for every edge a delta touched; keys are canonical (lo, hi).
    let mut overlay: HashMap<(VertexId, VertexId), bool> = HashMap::new();
    for (index, delta) in deltas.iter().enumerate() {
        let (&a, &b, adding) = match delta {
            GraphDelta::AddVertex { label } => {
                new_labels.push(*label);
                continue;
            }
            GraphDelta::AddEdge { a, b } => (a, b, true),
            GraphDelta::RemoveEdge { a, b } => (a, b, false),
        };
        if a == b {
            return Err(DeltaError::SelfLoop { vertex: a, index });
        }
        let current_n = n0 + new_labels.len();
        for v in [a, b] {
            if (v as usize) >= current_n {
                return Err(DeltaError::UnknownVertex {
                    vertex: v,
                    vertex_count: current_n,
                    index,
                });
            }
        }
        let key = if a < b { (a, b) } else { (b, a) };
        let present = overlay
            .get(&key)
            .copied()
            .unwrap_or_else(|| (key.1 as usize) < n0 && graph.has_edge(key.0, key.1));
        match (adding, present) {
            (true, true) => {
                return Err(DeltaError::DuplicateEdge {
                    a: key.0,
                    b: key.1,
                    index,
                })
            }
            (false, false) => {
                return Err(DeltaError::MissingEdge {
                    a: key.0,
                    b: key.1,
                    index,
                })
            }
            _ => {
                overlay.insert(key, adding);
            }
        }
    }
    // Net changes only: an edge inserted then deleted (or vice versa) cancels out.
    let mut inserted = Vec::new();
    let mut removed = Vec::new();
    for (&(a, b), &present) in &overlay {
        let base = (b as usize) < n0 && graph.has_edge(a, b);
        if present && !base {
            inserted.push((a, b));
        } else if !present && base {
            removed.push((a, b));
        }
    }
    inserted.sort_unstable();
    removed.sort_unstable();
    Ok(ValidatedBatch {
        new_labels,
        inserted,
        removed,
    })
}

/// Sorted per-vertex change lists derived from the net inserted/removed edges.
struct AdjacencyChanges {
    /// For each touched vertex: sorted neighbors to add / to drop.
    add: HashMap<VertexId, Vec<VertexId>>,
    del: HashMap<VertexId, Vec<VertexId>>,
    /// Every vertex whose adjacency (and hence signature) changes.
    touched: Vec<bool>,
}

impl AdjacencyChanges {
    fn new(batch: &ValidatedBatch, new_n: usize) -> Self {
        let mut add: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut del: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
        let mut touched = vec![false; new_n];
        for &(a, b) in &batch.inserted {
            add.entry(a).or_default().push(b);
            add.entry(b).or_default().push(a);
            touched[a as usize] = true;
            touched[b as usize] = true;
        }
        for &(a, b) in &batch.removed {
            del.entry(a).or_default().push(b);
            del.entry(b).or_default().push(a);
            touched[a as usize] = true;
            touched[b as usize] = true;
        }
        for list in add.values_mut().chain(del.values_mut()) {
            list.sort_unstable();
        }
        AdjacencyChanges { add, del, touched }
    }
}

static EMPTY: [VertexId; 0] = [];

impl AdjacencyChanges {
    fn additions(&self, v: VertexId) -> &[VertexId] {
        self.add.get(&v).map_or(&EMPTY[..], Vec::as_slice)
    }

    fn deletions(&self, v: VertexId) -> &[VertexId] {
        self.del.get(&v).map_or(&EMPTY[..], Vec::as_slice)
    }
}

/// Merges one vertex's old sorted adjacency with its sorted add/del lists into
/// `out`. Additions are disjoint from the old list and deletions are a subset of
/// it (both validated), so the merge stays sorted.
fn merge_adjacency(old: &[VertexId], add: &[VertexId], del: &[VertexId], out: &mut Vec<VertexId>) {
    let mut ai = 0usize;
    let mut di = 0usize;
    for &w in old {
        while ai < add.len() && add[ai] < w {
            out.push(add[ai]);
            ai += 1;
        }
        if di < del.len() && del[di] == w {
            di += 1;
            continue;
        }
        out.push(w);
    }
    out.extend_from_slice(&add[ai..]);
}

impl PreparedData {
    /// Applies a batch of deltas, incrementally maintaining every index — the CSR
    /// adjacency, the label inverted index, the signature arena, the neighbor-label
    /// masks, and the max-NLF/degree bounds — instead of rebuilding them from
    /// scratch. Returns a new `PreparedData`; `self` is never mutated, so
    /// concurrent queries holding an `Arc` of the old index keep a consistent view.
    ///
    /// Deltas are validated in order (later deltas see earlier ones); the first
    /// invalid delta aborts the whole batch with a typed [`DeltaError`] and nothing
    /// is applied. The result is exactly equal (`==`) to preparing the mutated
    /// graph cold.
    pub fn apply(&self, deltas: &[GraphDelta]) -> Result<PreparedData, DeltaError> {
        self.apply_with_effects(deltas)
            .map(|(prepared, _)| prepared)
    }

    /// Like [`PreparedData::apply`], additionally reporting the batch's *net*
    /// [`DeltaEffects`] — the seed set for delta-localized continuous matching.
    pub fn apply_with_effects(
        &self,
        deltas: &[GraphDelta],
    ) -> Result<(PreparedData, DeltaEffects), DeltaError> {
        let watch = Stopwatch::started();
        let graph = self.graph();
        let n0 = graph.vertex_count();
        let batch = validate(graph, deltas)?;
        let new_n = n0 + batch.new_labels.len();
        let changes = AdjacencyChanges::new(&batch, new_n);

        // --- CSR merge pass -------------------------------------------------
        let old_offsets = graph.csr_offsets();
        let old_neighbors = graph.csr_neighbors();
        let added_slots: usize = 2 * batch.inserted.len();
        let removed_slots: usize = 2 * batch.removed.len();
        let mut offsets = Vec::with_capacity(new_n + 1);
        let mut neighbors = Vec::with_capacity(
            old_neighbors.len() + added_slots - removed_slots.min(old_neighbors.len()),
        );
        offsets.push(0usize);
        let mut max_degree = 0usize;
        for v in 0..new_n as VertexId {
            if (v as usize) < n0 && !changes.touched[v as usize] {
                let lo = old_offsets[v as usize];
                let hi = old_offsets[v as usize + 1];
                neighbors.extend_from_slice(&old_neighbors[lo..hi]);
            } else {
                let old = if (v as usize) < n0 {
                    &old_neighbors[old_offsets[v as usize]..old_offsets[v as usize + 1]]
                } else {
                    &[]
                };
                merge_adjacency(
                    old,
                    changes.additions(v),
                    changes.deletions(v),
                    &mut neighbors,
                );
            }
            let degree = neighbors.len() - offsets[offsets.len() - 1];
            max_degree = max_degree.max(degree);
            offsets.push(neighbors.len());
        }
        let mut labels = Vec::with_capacity(new_n);
        labels.extend_from_slice(graph.labels());
        labels.extend_from_slice(&batch.new_labels);
        let edge_count = graph.edge_count() + batch.inserted.len() - batch.removed.len();
        // `from_csr` rebuilds the label inverted index with one counting sort.
        let new_graph = Graph::from_csr(offsets, neighbors, labels, edge_count);

        // --- Neighbor-label masks: copy each label's segment ---------------
        // A bucket lists its vertices by ascending id and new vertices have the
        // largest ids, so the new bucket is the old one followed by the batch's
        // new vertices of that label (zeroed here; the pass below fills them).
        let label_count = new_graph.label_count();
        let old_masks = self.label_masks();
        let mut label_masks = Vec::with_capacity(new_n);
        for l in 0..label_count as Label {
            let (lo, hi) = graph.label_bounds(l);
            label_masks.extend_from_slice(&old_masks[lo..hi]);
            label_masks.resize(new_graph.label_bounds(l).1, 0);
        }

        // --- Signature-arena merge pass ------------------------------------
        let (old_sig_offsets, old_sig_labels, old_sig_counts, _old_max_nlf) = self.sig_parts();
        let mut sig_offsets = Vec::with_capacity(new_n + 1);
        let mut sig_labels = Vec::with_capacity(old_sig_labels.len() + added_slots);
        let mut sig_counts = Vec::with_capacity(old_sig_counts.len() + added_slots);
        let mut max_nlf = vec![0u32; label_count];
        // Dense per-label scratch for recomputed vertices, reset via `scratch_touched`.
        let mut counts = vec![0u32; label_count];
        let mut scratch_touched: Vec<Label> = Vec::new();
        sig_offsets.push(0u32);
        for v in 0..new_n as VertexId {
            if (v as usize) < n0 && !changes.touched[v as usize] {
                let lo = old_sig_offsets[v as usize] as usize;
                let hi = old_sig_offsets[v as usize + 1] as usize;
                for i in lo..hi {
                    let l = old_sig_labels[i];
                    let c = old_sig_counts[i];
                    sig_labels.push(l);
                    sig_counts.push(c);
                    max_nlf[l as usize] = max_nlf[l as usize].max(c);
                }
            } else {
                for &w in new_graph.neighbors(v) {
                    let l = new_graph.label(w);
                    if counts[l as usize] == 0 {
                        scratch_touched.push(l);
                    }
                    counts[l as usize] += 1;
                }
                scratch_touched.sort_unstable();
                let mut mask = 0u64;
                for &l in &scratch_touched {
                    let c = counts[l as usize];
                    sig_labels.push(l);
                    sig_counts.push(c);
                    max_nlf[l as usize] = max_nlf[l as usize].max(c);
                    counts[l as usize] = 0;
                    mask |= PreparedData::label_bit(l);
                }
                scratch_touched.clear();
                let label = new_graph.label(v);
                let bucket = new_graph.vertices_with_label(label);
                let slot = new_graph.label_bounds(label).0 + bucket.partition_point(|&w| w < v);
                label_masks[slot] = mask;
            }
            let offset =
                u32::try_from(sig_labels.len()).map_err(|_| DeltaError::IndexOverflow {
                    entries: sig_labels.len(),
                })?;
            sig_offsets.push(offset);
        }

        let prepared = PreparedData::from_parts(
            new_graph,
            sig_offsets,
            sig_labels,
            sig_counts,
            label_masks,
            max_nlf,
            max_degree,
            watch.elapsed(),
        );
        let effects = DeltaEffects {
            first_new_vertex: n0 as VertexId,
            added_vertices: batch.new_labels.len(),
            inserted_edges: batch.inserted,
            removed_edges: batch.removed,
        };
        Ok((prepared, effects))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::fixtures;

    fn rebuild(prepared: &PreparedData) -> PreparedData {
        let g = prepared.graph();
        let edges: Vec<_> = g.edges().collect();
        PreparedData::new(graph_from_edges(g.labels(), &edges))
    }

    #[test]
    fn apply_equals_cold_rebuild() {
        let (_q, data) = fixtures::paper_example();
        let base = PreparedData::new(data);
        let deltas = [
            GraphDelta::AddVertex { label: 1 },
            GraphDelta::AddEdge {
                a: 0,
                b: base.graph().vertex_count() as VertexId,
            },
            GraphDelta::RemoveEdge { a: 0, b: 1 },
        ];
        let next = base.apply(&deltas).unwrap();
        assert_eq!(next, rebuild(&next));
    }

    #[test]
    fn effects_report_net_changes() {
        let base = PreparedData::new(graph_from_edges(&[0, 1], &[(0, 1)]));
        let (next, effects) = base
            .apply_with_effects(&[
                GraphDelta::AddVertex { label: 2 },
                GraphDelta::AddEdge { a: 1, b: 2 },
                GraphDelta::RemoveEdge { a: 1, b: 2 },
                GraphDelta::AddEdge { a: 0, b: 2 },
                GraphDelta::RemoveEdge { a: 0, b: 1 },
                GraphDelta::AddEdge { a: 0, b: 1 },
            ])
            .unwrap();
        // (1,2) cancelled out; (0,1) removed then re-added cancels too.
        assert_eq!(effects.inserted_edges, vec![(0, 2)]);
        assert!(effects.removed_edges.is_empty());
        assert_eq!(effects.first_new_vertex, 2);
        assert_eq!(effects.added_vertices, 1);
        assert_eq!(effects.new_vertices().collect::<Vec<_>>(), vec![2]);
        assert!(!effects.is_noop());
        assert_eq!(next, rebuild(&next));
    }

    #[test]
    fn empty_batch_is_a_noop_clone() {
        let (_q, data) = fixtures::paper_example();
        let base = PreparedData::new(data);
        let (next, effects) = base.apply_with_effects(&[]).unwrap();
        assert!(effects.is_noop());
        assert_eq!(next, base);
    }

    #[test]
    fn errors_name_the_offending_delta() {
        let base = PreparedData::new(graph_from_edges(&[0, 1, 0], &[(0, 1)]));
        let err = base
            .apply(&[
                GraphDelta::AddEdge { a: 1, b: 2 },
                GraphDelta::AddEdge { a: 3, b: 3 },
            ])
            .unwrap_err();
        assert_eq!(
            err,
            DeltaError::SelfLoop {
                vertex: 3,
                index: 1
            }
        );
        assert!(format!("{err}").contains("delta 1"));
    }

    #[test]
    fn in_batch_vertex_references_are_valid() {
        let base = PreparedData::new(graph_from_edges(&[0], &[]));
        // Vertex 1 exists only after the AddVertex delta.
        let err = base
            .apply(&[GraphDelta::AddEdge { a: 0, b: 1 }])
            .unwrap_err();
        assert!(matches!(err, DeltaError::UnknownVertex { vertex: 1, .. }));
        let ok = base
            .apply(&[
                GraphDelta::AddVertex { label: 5 },
                GraphDelta::AddEdge { a: 0, b: 1 },
            ])
            .unwrap();
        assert_eq!(ok.graph().edge_count(), 1);
        assert_eq!(ok.graph().label(1), 5);
        assert_eq!(ok, rebuild(&ok));
    }
}
