//! Prepared (indexed) data graphs for batched query workloads.
//!
//! The evaluation of the paper runs *query sets* — hundreds of queries against one
//! data graph (§4.1) — and a production deployment looks the same: the data graph is
//! long-lived, queries are cheap and many. [`PreparedData`] is the once-per-data-graph
//! half of that split: an immutable bundle of the graph plus every per-vertex index
//! the matching layers would otherwise re-derive on each query:
//!
//! * the CSR graph itself ([`Graph`]),
//! * a flat CSR-style arena of per-vertex **neighborhood-label-frequency signatures**
//!   (sparse, label-sorted), so the NLF filter becomes a two-pointer signature
//!   comparison instead of a neighbor rescan with per-candidate allocation,
//! * the **label inverted index**: each label's bucket of vertex ids (ascending),
//!   with one 64-bit **neighbor-label mask** per bucket entry, where bit `l % 64`
//!   is set iff the vertex has a label-`l` neighbor. The NLF filter streams a
//!   label's bucket of ids and masks ([`PreparedData::label_bucket`]) and runs the
//!   signature comparison only on vertices whose mask holds every bit the query
//!   vertex needs. This module is the only one that knows the bucket layout;
//!   one counting pass builds it for a cold prepare and for an index load, and
//!   [`PreparedData::apply`] extends it,
//! * degree / label statistics and a per-label **max-NLF bound** (the highest count
//!   of that label in any vertex's neighborhood), which rejects unsatisfiable query
//!   vertices before any candidate is scanned.
//!
//! `PreparedData` is immutable after construction and designed to be wrapped in an
//! [`Arc`](std::sync::Arc) and shared across threads running concurrent queries; the
//! session layer in the `gup` crate builds on exactly that.
//!
//! ```
//! use gup_graph::fixtures::paper_example;
//! use gup_graph::PreparedData;
//!
//! let (_query, data) = paper_example();
//! let prepared = PreparedData::new(data);
//! // v0 (label A) has two label-B neighbors in Fig. 1.
//! let (labels, counts) = prepared.signature(0);
//! assert!(labels.contains(&1));
//! assert!(prepared.signature_covers(0, &[1], &[1]));
//! assert!(!prepared.signature_covers(0, &[1], &[9]));
//! // v0 sits first in the label-A bucket; its mask has the label-B bit.
//! let (ids, masks) = prepared.label_bucket(0);
//! assert_eq!(ids[0], 0);
//! assert_ne!(masks[0] & PreparedData::label_bit(1), 0);
//! ```

use crate::deadline::Stopwatch;
use crate::types::{Label, VertexId, MAX_DATA_LABEL};
use crate::Graph;
use std::ops::Range;
use std::time::Duration;

/// Errors surfaced while building a [`PreparedData`] index.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PrepareError {
    /// The signature arena would need more than `u32::MAX` entries, so its `u32`
    /// offsets cannot address it. Graphs that large must shard before preparing;
    /// silently truncating the offsets (the pre-fix behavior) would build — and
    /// persist — a corrupt index.
    SignatureArenaTooLarge {
        /// Number of `(label, count)` entries the arena would need.
        entries: usize,
    },
    /// A vertex carries a label above [`MAX_DATA_LABEL`], which would size the
    /// index's per-label arrays.
    LabelTooLarge {
        /// The first vertex with such a label.
        vertex: VertexId,
        /// Its label.
        label: Label,
    },
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::SignatureArenaTooLarge { entries } => write!(
                f,
                "signature arena needs {entries} entries, which exceeds the u32 offset range"
            ),
            PrepareError::LabelTooLarge { vertex, label } => write!(
                f,
                "vertex {vertex} has label {label}, above the largest data label {MAX_DATA_LABEL}"
            ),
        }
    }
}

impl std::error::Error for PrepareError {}

/// Converts an arena length into a `u32` signature offset, rejecting graphs whose
/// distinct-neighbor-label entries would overflow the offset type.
fn checked_sig_offset(len: usize) -> Result<u32, PrepareError> {
    u32::try_from(len).map_err(|_| PrepareError::SignatureArenaTooLarge { entries: len })
}

/// An immutable, `Arc`-shareable index of a data graph, built once and reused by
/// every query of a session. See the [module docs](self) for what it contains.
#[derive(Clone, Debug)]
pub struct PreparedData {
    graph: Graph,
    /// `sig_offsets[v]..sig_offsets[v + 1]` indexes vertex `v`'s slice of the
    /// signature arena. Entries within a slice are sorted by label.
    sig_offsets: Vec<u32>,
    sig_labels: Vec<Label>,
    sig_counts: Vec<u32>,
    /// The label buckets and their neighbor-label masks. Derived from the
    /// labels and the arena; index files do not store them.
    label_index: LabelIndex,
    /// For each label `l`: the maximum, over all vertices, of the number of
    /// label-`l` neighbors. A query vertex demanding more can have no candidate.
    max_nlf: Vec<u32>,
    max_degree: usize,
    prep_time: Duration,
}

/// Equality ignores [`PreparedData::prep_time`] (a measurement, not part of the
/// index): two prepared indexes are equal iff their graphs and every derived
/// array agree. This is what the persistence round-trip guarantee
/// (`load(save(p)) == p`) is stated in terms of.
impl PartialEq for PreparedData {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.sig_offsets == other.sig_offsets
            && self.sig_labels == other.sig_labels
            && self.sig_counts == other.sig_counts
            && self.label_index == other.label_index
            && self.max_nlf == other.max_nlf
            && self.max_degree == other.max_degree
    }
}

impl Eq for PreparedData {}

impl PreparedData {
    /// Builds the prepared index, taking ownership of the data graph. The build is a
    /// single pass over the adjacency lists — `O(|V| + |E|)` plus a sort of each
    /// vertex's (small) distinct-neighbor-label set.
    ///
    /// # Panics
    ///
    /// Panics if a vertex carries a label above [`MAX_DATA_LABEL`], or if the
    /// signature arena would overflow its `u32` offsets (more than `u32::MAX`
    /// distinct `(vertex, neighbor-label)` pairs); use [`PreparedData::try_new`]
    /// to get a [`PrepareError`] instead.
    pub fn new(graph: Graph) -> Self {
        match Self::try_new(graph) {
            Ok(prepared) => prepared,
            Err(e) => panic!("preparing data graph failed: {e}"),
        }
    }

    /// Fallible variant of [`PreparedData::new`]: surfaces a typed [`PrepareError`]
    /// instead of panicking when the graph cannot be indexed (a label above
    /// [`MAX_DATA_LABEL`], or a signature arena that would overflow its `u32`
    /// offsets). Graphs from outside the program are prepared with this.
    pub fn try_new(graph: Graph) -> Result<Self, PrepareError> {
        let watch = Stopwatch::started();
        if let Some(vertex) = graph.labels().iter().position(|&l| l > MAX_DATA_LABEL) {
            return Err(PrepareError::LabelTooLarge {
                vertex: vertex as VertexId,
                label: graph.labels()[vertex],
            });
        }
        let n = graph.vertex_count();
        let label_count = graph.label_count();
        let mut sig_offsets = Vec::with_capacity(n + 1);
        let mut sig_labels = Vec::new();
        let mut sig_counts = Vec::new();
        let mut max_nlf = vec![0u32; label_count];
        let mut vertex_masks = Vec::with_capacity(n);
        // Dense per-label scratch, reset via the `touched` list so the pass stays
        // O(deg) per vertex even with many labels.
        let mut counts = vec![0u32; label_count];
        let mut touched: Vec<Label> = Vec::new();
        sig_offsets.push(0);
        let mut max_degree = 0usize;
        for v in graph.vertices() {
            max_degree = max_degree.max(graph.degree(v));
            for &w in graph.neighbors(v) {
                let l = graph.label(w);
                if counts[l as usize] == 0 {
                    touched.push(l);
                }
                counts[l as usize] += 1;
            }
            touched.sort_unstable();
            let mut mask = 0u64;
            for &l in &touched {
                let c = counts[l as usize];
                sig_labels.push(l);
                sig_counts.push(c);
                max_nlf[l as usize] = max_nlf[l as usize].max(c);
                counts[l as usize] = 0;
                mask |= PreparedData::label_bit(l);
            }
            touched.clear();
            vertex_masks.push(mask);
            sig_offsets.push(checked_sig_offset(sig_labels.len())?);
        }
        let label_index = LabelIndex::new(graph.labels(), label_count, &vertex_masks);
        Ok(PreparedData {
            graph,
            sig_offsets,
            sig_labels,
            sig_counts,
            label_index,
            max_nlf,
            max_degree,
            prep_time: watch.elapsed(),
        })
    }

    /// Reassembles a prepared index from already-validated parts. Used by the
    /// on-disk loader ([`crate::index_io`]), which performs the structural
    /// validation before calling this, and by [`PreparedData::apply`];
    /// `prep_time` records whatever it cost to obtain the parts (e.g. the load
    /// wall time).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        graph: Graph,
        sig_offsets: Vec<u32>,
        sig_labels: Vec<Label>,
        sig_counts: Vec<u32>,
        label_index: LabelIndex,
        max_nlf: Vec<u32>,
        max_degree: usize,
        prep_time: Duration,
    ) -> Self {
        PreparedData {
            graph,
            sig_offsets,
            sig_labels,
            sig_counts,
            label_index,
            max_nlf,
            max_degree,
            prep_time,
        }
    }

    /// Raw index arrays `(sig_offsets, sig_labels, sig_counts, max_nlf)` for the
    /// on-disk index writer ([`crate::index_io`]).
    pub(crate) fn sig_parts(&self) -> (&[u32], &[Label], &[u32], &[u32]) {
        (
            &self.sig_offsets,
            &self.sig_labels,
            &self.sig_counts,
            &self.max_nlf,
        )
    }

    /// The label buckets and their masks, for incremental maintenance
    /// ([`PreparedData::apply`]).
    pub(crate) fn label_index(&self) -> &LabelIndex {
        &self.label_index
    }

    /// The underlying data graph.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Sparse neighborhood-label-frequency signature of vertex `v`: parallel slices
    /// of (sorted, distinct) labels and their neighbor counts.
    #[inline]
    pub fn signature(&self, v: VertexId) -> (&[Label], &[u32]) {
        let lo = self.sig_offsets[v as usize] as usize;
        let hi = self.sig_offsets[v as usize + 1] as usize;
        (&self.sig_labels[lo..hi], &self.sig_counts[lo..hi])
    }

    /// The NLF test as a signature comparison: `true` iff for every `(label,
    /// count)` requirement (parallel slices, labels sorted ascending and distinct),
    /// vertex `v` has at least `count` neighbors with that label. Allocation-free
    /// (statically pinned by the region marker below; dynamically by
    /// `tests/filter_alloc.rs`); a two-pointer merge over two label-sorted slices.
    // gup-lint: region(no_alloc)
    pub fn signature_covers(&self, v: VertexId, req_labels: &[Label], req_counts: &[u32]) -> bool {
        let (labels, counts) = self.signature(v);
        let mut i = 0usize;
        for (&l, &c) in req_labels.iter().zip(req_counts) {
            if c == 0 {
                // "At least 0 neighbors" is trivially satisfied even for labels
                // absent from the signature (signatures store only positive counts).
                continue;
            }
            while i < labels.len() && labels[i] < l {
                i += 1;
            }
            if i >= labels.len() || labels[i] != l || counts[i] < c {
                return false;
            }
        }
        true
    }

    /// Label `l`'s bucket as parallel slices: the vertex ids carrying `l`
    /// (ascending) and their neighbor-label masks. Both are empty for labels
    /// no vertex carries.
    #[inline]
    pub fn label_bucket(&self, l: Label) -> (&[VertexId], &[u64]) {
        let index = &self.label_index;
        let Range { start, end } = index.bucket(l as usize);
        (&index.vertices[start..end], &index.masks[start..end])
    }

    /// The neighbor-label mask bit of label `l`: bit `l % 64`. Labels 64 apart
    /// share a bit, so a set bit only suggests the label while a clear bit
    /// proves it absent.
    #[inline]
    pub fn label_bit(l: Label) -> u64 {
        1u64 << (l % 64)
    }
    // gup-lint: end_region

    /// The highest number of label-`l` neighbors any vertex has (0 for labels absent
    /// from every neighborhood). A query vertex that needs more label-`l` neighbors
    /// than this bound has no candidate anywhere in the graph.
    #[inline]
    pub fn max_nlf(&self, l: Label) -> u32 {
        self.max_nlf.get(l as usize).copied().unwrap_or(0)
    }

    /// Maximum vertex degree of the data graph.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Wall-clock time spent building this index (graph construction excluded).
    /// Batch reports expose it once, amortized over the query set.
    #[inline]
    pub fn prep_time(&self) -> Duration {
        self.prep_time
    }

    /// Approximate heap footprint of the *index only* — the signature arena, the
    /// label index with its neighbor-label masks and the statistics, excluding
    /// the graph itself. This is what preparing costs on top of holding the
    /// graph; memory reports account for it separately.
    pub fn index_bytes(&self) -> usize {
        let index = &self.label_index;
        self.sig_offsets.capacity() * std::mem::size_of::<u32>()
            + self.sig_labels.capacity() * std::mem::size_of::<Label>()
            + self.sig_counts.capacity() * std::mem::size_of::<u32>()
            + index.offsets.capacity() * std::mem::size_of::<usize>()
            + index.vertices.capacity() * std::mem::size_of::<VertexId>()
            + index.masks.capacity() * std::mem::size_of::<u64>()
            + self.max_nlf.capacity() * std::mem::size_of::<u32>()
    }

    /// Approximate total heap footprint: the graph plus the prepared index.
    pub fn heap_bytes(&self) -> usize {
        self.graph.heap_bytes() + self.index_bytes()
    }
}

/// A query vertex's NLF requirement in sparse form: parallel label/count slices,
/// labels sorted ascending and distinct, plus the neighbor-label mask bits they
/// need. Built once per query vertex and checked against a [`PreparedData`]'s
/// masks and signature arena ([`PreparedData::signature_covers`]) by both the
/// batch filter and the standing-query search.
#[derive(Clone, Debug, Default)]
pub struct NlfProfile {
    labels: Vec<Label>,
    counts: Vec<u32>,
    /// The OR of [`PreparedData::label_bit`] over `labels`: the mask bits every
    /// candidate must have.
    mask: u64,
}

impl NlfProfile {
    /// The sparse neighborhood-label-frequency profile of query vertex `u`: its
    /// neighbors' labels, sorted and run-length encoded, so it costs `O(deg(u))`
    /// whatever the labels' values.
    pub fn of(query: &Graph, u: VertexId) -> Self {
        let mut neighbor_labels: Vec<Label> =
            query.neighbors(u).iter().map(|&w| query.label(w)).collect();
        neighbor_labels.sort_unstable();
        let mut labels = Vec::new();
        let mut counts = Vec::new();
        let mut mask = 0u64;
        let mut rest = &neighbor_labels[..];
        while let Some(&l) = rest.first() {
            let run = rest.partition_point(|&x| x == l);
            labels.push(l);
            counts.push(run as u32);
            mask |= PreparedData::label_bit(l);
            rest = &rest[run..];
        }
        NlfProfile {
            labels,
            counts,
            mask,
        }
    }

    /// The required labels (sorted ascending, distinct).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The required per-label neighbor counts, parallel to [`NlfProfile::labels`].
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The neighbor-label mask bits every candidate's mask must hold.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// `true` when the query vertex has no neighbors, i.e. no NLF requirement.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// `true` when some requirement exceeds what *any* data vertex offers
    /// (`PreparedData`'s per-label max-NLF bound): the candidate set is empty and no
    /// per-candidate work is needed at all.
    pub fn unsatisfiable_in(&self, prepared: &PreparedData) -> bool {
        self.labels
            .iter()
            .zip(&self.counts)
            .any(|(&l, &c)| c > prepared.max_nlf(l))
    }
}

/// The label inverted index with the neighbor-label masks parallel to it:
/// `offsets[l]..offsets[l + 1]` is label `l`'s bucket in `vertices` (ascending
/// ids) and in `masks` (each listed vertex's neighbor-label mask).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct LabelIndex {
    offsets: Vec<usize>,
    vertices: Vec<VertexId>,
    masks: Vec<u64>,
}

impl LabelIndex {
    /// Buckets the vertices of `labels` (each below `label_count`) by label, in
    /// one counting pass that places every vertex's id and its mask from
    /// `vertex_masks` (indexed by vertex id) through its label's cursor.
    pub(crate) fn new(labels: &[Label], label_count: usize, vertex_masks: &[u64]) -> Self {
        let mut offsets = vec![0usize; label_count + 1];
        for &l in labels {
            offsets[l as usize + 1] += 1;
        }
        for l in 0..label_count {
            offsets[l + 1] += offsets[l];
        }
        let mut cursors = offsets[..label_count].to_vec();
        let mut vertices = vec![0 as VertexId; labels.len()];
        let mut masks = vec![0u64; labels.len()];
        for (v, (&l, &mask)) in labels.iter().zip(vertex_masks).enumerate() {
            let cursor = &mut cursors[l as usize];
            vertices[*cursor] = v as VertexId;
            masks[*cursor] = mask;
            *cursor += 1;
        }
        LabelIndex {
            offsets,
            vertices,
            masks,
        }
    }

    /// One more than the largest label any bucket is kept for.
    pub(crate) fn label_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Label `l`'s position range in `vertices` and `masks`; empty for labels
    /// past the last bucket.
    fn bucket(&self, l: usize) -> Range<usize> {
        if l >= self.label_count() {
            return 0..0;
        }
        self.offsets[l]..self.offsets[l + 1]
    }

    /// This index extended to `label_count` buckets (at least its own count,
    /// above every new label) by vertices `first_new..` carrying `new_labels`.
    /// A bucket lists its vertices by ascending id and new vertices have the
    /// largest ids, so each new bucket is the old one followed by the new
    /// vertices of that label, their masks 0 until [`LabelIndex::set_mask`]
    /// fills them. Without new vertices the result is a copy.
    pub(crate) fn extended(
        &self,
        first_new: usize,
        new_labels: &[Label],
        label_count: usize,
    ) -> Self {
        if new_labels.is_empty() {
            return self.clone();
        }
        let mut added: Vec<(Label, VertexId)> = new_labels
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, (first_new + i) as VertexId))
            .collect();
        added.sort_unstable();
        let new_n = self.vertices.len() + added.len();
        let mut added = added.into_iter().peekable();
        let mut offsets = Vec::with_capacity(label_count + 1);
        let mut vertices = Vec::with_capacity(new_n);
        let mut masks = Vec::with_capacity(new_n);
        offsets.push(0);
        for l in 0..label_count {
            let bucket = self.bucket(l);
            vertices.extend_from_slice(&self.vertices[bucket.clone()]);
            masks.extend_from_slice(&self.masks[bucket]);
            while let Some((_, v)) = added.next_if(|&(al, _)| al as usize == l) {
                vertices.push(v);
                masks.push(0);
            }
            offsets.push(vertices.len());
        }
        LabelIndex {
            offsets,
            vertices,
            masks,
        }
    }

    /// Sets the mask of vertex `v`, which carries label `l`: a binary search in
    /// `l`'s bucket.
    pub(crate) fn set_mask(&mut self, v: VertexId, l: Label, mask: u64) {
        let bucket = self.bucket(l as usize);
        let slot = bucket.start + self.vertices[bucket].partition_point(|&w| w < v);
        self.masks[slot] = mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::fixtures;

    #[test]
    fn signatures_match_dense_nlf() {
        let (_q, data) = fixtures::paper_example();
        let prepared = PreparedData::new(data.clone());
        for v in data.vertices() {
            let dense: Vec<u32> = (0..data.label_count() as Label)
                .map(|l| data.labeled_degree(v, l) as u32)
                .collect();
            let (labels, counts) = prepared.signature(v);
            // Sparse slices are sorted, distinct, and agree with the dense profile.
            assert!(labels.windows(2).all(|w| w[0] < w[1]));
            let mut rebuilt = vec![0u32; dense.len()];
            for (&l, &c) in labels.iter().zip(counts) {
                assert!(c > 0);
                rebuilt[l as usize] = c;
            }
            assert_eq!(rebuilt, dense, "vertex {v}");
        }
    }

    #[test]
    fn signature_covers_agrees_with_counting() {
        let (_q, data) = fixtures::paper_example();
        let prepared = PreparedData::new(data.clone());
        for v in data.vertices() {
            for l in 0..data.label_count() as Label {
                let have = data.labeled_degree(v, l) as u32;
                if have > 0 {
                    assert!(prepared.signature_covers(v, &[l], &[have]));
                }
                assert!(!prepared.signature_covers(v, &[l], &[have + 1]));
            }
        }
        // Trivial requirements: empty lists and zero counts (even for labels the
        // vertex has no neighbor of) are always covered.
        assert!(prepared.signature_covers(0, &[], &[]));
        for v in data.vertices() {
            for l in 0..data.label_count() as Label + 2 {
                assert!(prepared.signature_covers(v, &[l], &[0]), "v={v} l={l}");
            }
        }
    }

    #[test]
    fn label_index() {
        let prepared =
            PreparedData::new(graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3)]));
        assert_eq!(prepared.label_bucket(0).0, &[0, 2]);
        assert_eq!(prepared.label_bucket(1).0, &[1, 3]);
        assert_eq!(prepared.label_bucket(9), (&[] as &[u32], &[] as &[u64]));
        assert_eq!(prepared.label_bucket(Label::MAX).0, &[] as &[u32]);
    }

    #[test]
    fn label_masks_follow_the_label_index() {
        let (_q, data) = fixtures::paper_example();
        let prepared = PreparedData::new(data.clone());
        for l in 0..data.label_count() as Label + 2 {
            let (ids, masks) = prepared.label_bucket(l);
            let with_label: Vec<VertexId> =
                data.vertices().filter(|&v| data.label(v) == l).collect();
            assert_eq!(ids, with_label);
            assert_eq!(masks.len(), ids.len());
            for (&v, &mask) in ids.iter().zip(masks) {
                let expected = data
                    .neighbors(v)
                    .iter()
                    .fold(0u64, |m, &w| m | PreparedData::label_bit(data.label(w)));
                assert_eq!(mask, expected, "label {l}, vertex {v}");
            }
        }
        assert_eq!(PreparedData::label_bit(3), PreparedData::label_bit(67));
        assert_eq!(PreparedData::label_bit(63), 1 << 63);
    }

    #[test]
    fn nlf_profile_is_sparse_in_the_label_values() {
        let query = graph_from_edges(&[0, Label::MAX], &[(0, 1)]);
        let profile = NlfProfile::of(&query, 0);
        assert_eq!(profile.labels(), &[Label::MAX]);
        assert_eq!(profile.counts(), &[1]);
        assert_eq!(profile.mask(), PreparedData::label_bit(Label::MAX));
        let (_q, data) = fixtures::paper_example();
        assert!(profile.unsatisfiable_in(&PreparedData::new(data)));
        // Repeated neighbor labels run-length encode, sorted ascending.
        let star = graph_from_edges(&[0, 2, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let profile = NlfProfile::of(&star, 0);
        assert_eq!(
            (profile.labels(), profile.counts()),
            (&[1, 2][..], &[1, 2][..])
        );
    }

    #[test]
    fn max_nlf_bound_is_tight() {
        let (_q, data) = fixtures::paper_example();
        let prepared = PreparedData::new(data.clone());
        for l in 0..data.label_count() as Label {
            let expected = data
                .vertices()
                .map(|v| data.labeled_degree(v, l) as u32)
                .max()
                .unwrap_or(0);
            assert_eq!(prepared.max_nlf(l), expected, "label {l}");
        }
        // Out-of-range labels are simply 0, not a panic.
        assert_eq!(prepared.max_nlf(999), 0);
    }

    #[test]
    fn stats_and_bytes() {
        let g = graph_from_edges(&[0, 1, 1, 2], &[(0, 1), (0, 2), (0, 3)]);
        let prepared = PreparedData::new(g);
        assert_eq!(prepared.max_degree(), 3);
        assert!(prepared.index_bytes() > 0);
        assert!(prepared.heap_bytes() > prepared.index_bytes());
        assert_eq!(prepared.graph().vertex_count(), 4);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn sig_offset_overflow_is_a_typed_error() {
        // The arena length feeds a u32 offset: the last addressable length is
        // u32::MAX, one past it must surface a typed error (pre-fix, `as u32`
        // silently wrapped it to 0 and built a corrupt arena).
        assert_eq!(checked_sig_offset(u32::MAX as usize), Ok(u32::MAX));
        let entries = u32::MAX as usize + 1;
        let err = checked_sig_offset(entries).unwrap_err();
        assert_eq!(err, PrepareError::SignatureArenaTooLarge { entries });
        assert!(format!("{err}").contains("u32 offset range"));
    }

    #[test]
    fn try_new_matches_new() {
        let (_q, data) = fixtures::paper_example();
        let a = PreparedData::new(data.clone());
        let b = PreparedData::try_new(data).expect("paper example prepares");
        assert_eq!(a, b);
    }

    #[test]
    fn labels_above_the_data_label_bound_are_a_typed_error() {
        for label in [MAX_DATA_LABEL + 1, u32::MAX] {
            let g = graph_from_edges(&[0, 1, label, 2], &[(0, 1), (1, 2), (2, 3)]);
            let err = PreparedData::try_new(g).unwrap_err();
            assert_eq!(err, PrepareError::LabelTooLarge { vertex: 2, label });
            assert!(format!("{err}").contains("vertex 2 has label"));
        }
        let g = graph_from_edges(&[0, MAX_DATA_LABEL], &[(0, 1)]);
        let prepared = PreparedData::try_new(g).expect("the largest data label prepares");
        assert_eq!(prepared.label_bucket(MAX_DATA_LABEL).0, &[1]);
        assert_eq!(prepared.max_nlf(MAX_DATA_LABEL), 1);
    }

    #[test]
    fn empty_graph_prepares() {
        let g = crate::GraphBuilder::new().build();
        let prepared = PreparedData::new(g);
        assert_eq!(prepared.max_degree(), 0);
        assert_eq!(prepared.max_nlf(0), 0);
    }
}
