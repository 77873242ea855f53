//! Versioned on-disk persistence for [`PreparedData`] (ROADMAP item 5).
//!
//! A production deployment pays the prepare cost once *ever*, not once per
//! process: `gup-match --save-index` persists the prepared index and
//! `--index` loads it on the next start, skipping both text parsing and the
//! `O(|V| + |E|)` signature build. The index is already flat CSR arenas, so the
//! format is a direct little-endian dump of them — no pointers, no compression,
//! mmap-friendly in layout even though the loader currently reads into owned
//! vectors (the workspace has no mmap dependency).
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "GUPI"
//! 4       4     format version (u32, currently 1)
//! 8       8     checksum (u64): FNV-1a-64 over every byte from offset 16 to EOF
//! 16      —     payload:
//!               u64 vertex_count, u64 edge_count, u64 max_degree,
//!               then 7 length-prefixed sections in fixed order —
//!               offsets (u64 count, count × u64)      CSR adjacency offsets
//!               neighbors (u64 count, count × u32)    flat adjacency array
//!               labels (u64 count, count × u32)       vertex labels
//!               sig_offsets (u64 count, count × u32)  signature-arena offsets
//!               sig_labels (u64 count, count × u32)   signature labels
//!               sig_counts (u64 count, count × u32)   signature counts
//!               max_nlf (u64 count, count × u32)      per-label max-NLF bound
//! ```
//!
//! The label inverted index and its neighbor-label masks are derived on load,
//! not stored: the signature check computes each vertex's mask, and the same
//! counting pass that a cold prepare runs places ids and masks into their label
//! buckets.
//!
//! ## Versioning and integrity policy
//!
//! * The version is bumped on **any** layout change; the loader rejects every
//!   version other than its own ([`FORMAT_VERSION`]) with
//!   [`IndexIoError::UnsupportedVersion`] — old binaries never mis-parse new
//!   files and vice versa. Re-preparing from the text graph is always possible,
//!   so there is no migration machinery.
//! * The checksum covers the whole payload; a flipped bit anywhere yields
//!   [`IndexIoError::ChecksumMismatch`] before any parsing happens.
//! * After the checksum, the loader still validates every structural invariant
//!   the matcher relies on (monotonic offsets, sorted loop-free symmetric
//!   adjacency, consistent section lengths, labels at most
//!   [`crate::MAX_DATA_LABEL`]), so even a hand-crafted file with a
//!   valid checksum cannot produce an index that would panic or mis-match.
//!   Semantic agreement between the signature arena and the graph is *not*
//!   re-derived (that would re-do the prepare work the format exists to skip);
//!   the checksum is the guard against corruption there.
//!
//! The loader is panic-free by construction and gup-lint's `panic_freedom`
//! rule statically gates this module alongside `crates/core` and
//! `crates/serve`.
//!
//! ```
//! use gup_graph::fixtures::paper_example;
//! use gup_graph::{index_io, PreparedData};
//!
//! let (_query, data) = paper_example();
//! let prepared = PreparedData::new(data);
//! let bytes = index_io::write_index_bytes(&prepared);
//! let loaded = index_io::load_index_bytes(&bytes).unwrap();
//! assert_eq!(loaded, prepared);
//! ```

use crate::deadline::Stopwatch;
use crate::prepared::{LabelIndex, PreparedData};
use crate::types::{Label, VertexId, MAX_DATA_LABEL};
use crate::Graph;
use std::path::Path;

/// Magic bytes opening every index file.
pub const MAGIC: [u8; 4] = *b"GUPI";

/// Current (and only supported) format version.
pub const FORMAT_VERSION: u32 = 1;

/// Byte offset where the checksummed payload starts (magic + version + checksum).
pub const HEADER_BYTES: usize = 16;

/// Errors surfaced while writing or reading a persisted index.
#[derive(Debug)]
#[non_exhaustive]
pub enum IndexIoError {
    /// Underlying filesystem I/O failure.
    Io(std::io::Error),
    /// The file does not start with the [`MAGIC`] bytes — not an index file.
    BadMagic {
        /// The four bytes actually found.
        found: [u8; 4],
    },
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// The one version this build reads.
        supported: u32,
    },
    /// The payload does not hash to the checksum recorded in the header.
    ChecksumMismatch {
        /// Checksum stored in the file header.
        stored: u64,
        /// Checksum computed over the payload that was read.
        computed: u64,
    },
    /// The file ends before the named section is complete.
    Truncated {
        /// Section (or header field) that was cut short.
        section: &'static str,
    },
    /// A section's length prefix claims more bytes than the file holds.
    SectionOverrun {
        /// Section whose declared length overruns the payload.
        section: &'static str,
    },
    /// A structural invariant of the index does not hold (e.g. non-monotonic
    /// offsets, an out-of-range neighbor, inconsistent section lengths).
    Invalid {
        /// Section in which the violation was detected.
        section: &'static str,
        /// Human-readable description of the violated invariant.
        reason: String,
    },
}

impl std::fmt::Display for IndexIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexIoError::Io(e) => write!(f, "index I/O error: {e}"),
            IndexIoError::BadMagic { found } => {
                write!(f, "not a GuP index file (magic bytes {found:?})")
            }
            IndexIoError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported index format version {found} (this build reads version {supported})"
            ),
            IndexIoError::ChecksumMismatch { stored, computed } => write!(
                f,
                "index checksum mismatch: header records {stored:#018x}, payload hashes to {computed:#018x}"
            ),
            IndexIoError::Truncated { section } => {
                write!(f, "index file truncated in section '{section}'")
            }
            IndexIoError::SectionOverrun { section } => write!(
                f,
                "index section '{section}' declares more bytes than the file holds"
            ),
            IndexIoError::Invalid { section, reason } => {
                write!(f, "invalid index section '{section}': {reason}")
            }
        }
    }
}

impl std::error::Error for IndexIoError {}

impl From<std::io::Error> for IndexIoError {
    fn from(e: std::io::Error) -> Self {
        IndexIoError::Io(e)
    }
}

/// FNV-1a 64-bit hash over 8-byte little-endian words (the final partial word
/// zero-padded) — the checksum recorded in the index header. Word-wise rather
/// than byte-wise keeps the verification pass an order of magnitude cheaper
/// than the preparation it replaces; any flipped bit still changes its word.
/// Exposed so external tooling (and the corruption tests) can reseal a payload.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for word in &mut chunks {
        h ^= le_u64(word);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        h ^= le_u64(tail); // le_u64 zero-pads short input
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn invalid(section: &'static str, reason: impl Into<String>) -> IndexIoError {
    IndexIoError::Invalid {
        section,
        reason: reason.into(),
    }
}

// --- writing ---------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u32_section(out: &mut Vec<u8>, values: &[u32]) {
    push_u64(out, values.len() as u64);
    for &v in values {
        push_u32(out, v);
    }
}

/// Serializes a prepared index into the on-disk byte format (header included).
pub fn write_index_bytes(prepared: &PreparedData) -> Vec<u8> {
    let graph = prepared.graph();
    let (sig_offsets, sig_labels, sig_counts, max_nlf) = prepared.sig_parts();
    let mut payload = Vec::with_capacity(
        3 * 8
            + 7 * 8
            + graph.csr_offsets().len() * 8
            + graph.csr_neighbors().len() * 4
            + graph.labels().len() * 4
            + sig_offsets.len() * 4
            + sig_labels.len() * 4
            + sig_counts.len() * 4
            + max_nlf.len() * 4,
    );
    push_u64(&mut payload, graph.vertex_count() as u64);
    push_u64(&mut payload, graph.edge_count() as u64);
    push_u64(&mut payload, prepared.max_degree() as u64);
    push_u64(&mut payload, graph.csr_offsets().len() as u64);
    for &o in graph.csr_offsets() {
        push_u64(&mut payload, o as u64);
    }
    push_u32_section(&mut payload, graph.csr_neighbors());
    push_u32_section(&mut payload, graph.labels());
    push_u32_section(&mut payload, sig_offsets);
    push_u32_section(&mut payload, sig_labels);
    push_u32_section(&mut payload, sig_counts);
    push_u32_section(&mut payload, max_nlf);

    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, FORMAT_VERSION);
    push_u64(&mut out, checksum(&payload));
    out.extend_from_slice(&payload);
    out
}

/// Saves a prepared index to `path` in the versioned binary format.
pub fn save_index<P: AsRef<Path>>(prepared: &PreparedData, path: P) -> Result<(), IndexIoError> {
    std::fs::write(path, write_index_bytes(prepared))?;
    Ok(())
}

// --- reading ---------------------------------------------------------------

/// Bounds-checked little-endian reader over the payload. Every read names the
/// section it serves so errors point at the right part of the file.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    fn take(&mut self, len: usize, section: &'static str) -> Result<&'a [u8], IndexIoError> {
        if len > self.remaining() {
            return Err(IndexIoError::Truncated { section });
        }
        let start = self.pos;
        self.pos += len;
        Ok(self.bytes.get(start..self.pos).unwrap_or(&[]))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, IndexIoError> {
        Ok(le_u64(self.take(8, section)?))
    }

    /// Reads one length-prefixed section of `u32` values. A length prefix whose
    /// byte size exceeds the remaining payload is a [`IndexIoError::SectionOverrun`]
    /// (distinguished from plain truncation so corruption reports are precise).
    fn u32_section(&mut self, section: &'static str) -> Result<Vec<u32>, IndexIoError> {
        let count = self.len_prefix(4, section)?;
        let raw = self.take(count * 4, section)?;
        Ok(raw.chunks_exact(4).map(le_u32).collect())
    }

    /// Reads one length-prefixed section of `u64` values.
    fn u64_section(&mut self, section: &'static str) -> Result<Vec<u64>, IndexIoError> {
        let count = self.len_prefix(8, section)?;
        let raw = self.take(count * 8, section)?;
        Ok(raw.chunks_exact(8).map(le_u64).collect())
    }

    /// Reads a section's element count and checks `count * elem_bytes` fits in
    /// the remaining payload before anything is allocated.
    fn len_prefix(
        &mut self,
        elem_bytes: usize,
        section: &'static str,
    ) -> Result<usize, IndexIoError> {
        let count = self.u64(section)?;
        let count: usize = count
            .try_into()
            .map_err(|_| IndexIoError::SectionOverrun { section })?;
        let byte_len = count
            .checked_mul(elem_bytes)
            .ok_or(IndexIoError::SectionOverrun { section })?;
        if byte_len > self.remaining() {
            return Err(IndexIoError::SectionOverrun { section });
        }
        Ok(count)
    }
}

fn le_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    u32::from_le_bytes(a)
}

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    for (d, s) in a.iter_mut().zip(b) {
        *d = *s;
    }
    u64::from_le_bytes(a)
}

fn to_usize(v: u64, section: &'static str) -> Result<usize, IndexIoError> {
    v.try_into()
        .map_err(|_| invalid(section, format!("value {v} does not fit in usize")))
}

/// Parses a prepared index from in-memory bytes in the on-disk format,
/// verifying the header, the checksum, and every structural invariant.
pub fn load_index_bytes(bytes: &[u8]) -> Result<PreparedData, IndexIoError> {
    let watch = Stopwatch::started();

    // Header: magic, version, checksum — each rejected before the next is read.
    let mut header = Cursor::new(bytes);
    let magic = header.take(4, "magic")?;
    if magic != MAGIC {
        let mut found = [0u8; 4];
        for (d, s) in found.iter_mut().zip(magic) {
            *d = *s;
        }
        return Err(IndexIoError::BadMagic { found });
    }
    let version = le_u32(header.take(4, "version")?);
    if version != FORMAT_VERSION {
        return Err(IndexIoError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored = header.u64("checksum")?;
    let payload = bytes.get(HEADER_BYTES..).unwrap_or(&[]);
    let computed = checksum(payload);
    if stored != computed {
        return Err(IndexIoError::ChecksumMismatch { stored, computed });
    }

    // Payload sections, fixed order.
    let mut cur = Cursor::new(payload);
    let n = to_usize(cur.u64("vertex_count")?, "vertex_count")?;
    let edge_count = to_usize(cur.u64("edge_count")?, "edge_count")?;
    let max_degree = to_usize(cur.u64("max_degree")?, "max_degree")?;
    let offsets_raw = cur.u64_section("offsets")?;
    let neighbors = cur.u32_section("neighbors")?;
    let labels = cur.u32_section("labels")?;
    let sig_offsets = cur.u32_section("sig_offsets")?;
    let sig_labels = cur.u32_section("sig_labels")?;
    let sig_counts = cur.u32_section("sig_counts")?;
    let max_nlf = cur.u32_section("max_nlf")?;
    if cur.remaining() != 0 {
        return Err(invalid(
            "trailer",
            format!("{} unexpected trailing bytes", cur.remaining()),
        ));
    }

    // Structural validation: everything the matcher's unchecked slicing relies on.
    if labels.len() != n {
        return Err(invalid(
            "labels",
            format!("{} labels for {n} vertices", labels.len()),
        ));
    }
    if let Some(v) = labels.iter().position(|&l| l > MAX_DATA_LABEL) {
        return Err(invalid(
            "labels",
            format!(
                "vertex {v} has label {}, above the largest data label {MAX_DATA_LABEL}",
                labels[v]
            ),
        ));
    }
    if offsets_raw.len() != n + 1 {
        return Err(invalid(
            "offsets",
            format!(
                "{} offsets for {n} vertices (need {})",
                offsets_raw.len(),
                n + 1
            ),
        ));
    }
    let mut offsets = Vec::with_capacity(offsets_raw.len());
    for &o in &offsets_raw {
        offsets.push(to_usize(o, "offsets")?);
    }
    validate_csr_offsets(&offsets, neighbors.len(), "offsets")?;
    if neighbors.len() % 2 != 0 || edge_count != neighbors.len() / 2 {
        return Err(invalid(
            "neighbors",
            format!(
                "edge count {edge_count} disagrees with {} adjacency entries",
                neighbors.len()
            ),
        ));
    }
    validate_adjacency(&offsets, &neighbors, n)?;
    let declared_max_degree = offsets
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .max()
        .unwrap_or(0);
    if max_degree != declared_max_degree {
        return Err(invalid(
            "max_degree",
            format!("recorded {max_degree}, adjacency implies {declared_max_degree}"),
        ));
    }

    if sig_offsets.len() != n + 1 {
        return Err(invalid(
            "sig_offsets",
            format!(
                "{} offsets for {n} vertices (need {})",
                sig_offsets.len(),
                n + 1
            ),
        ));
    }
    if sig_counts.len() != sig_labels.len() {
        return Err(invalid(
            "sig_counts",
            format!(
                "{} counts for {} signature labels",
                sig_counts.len(),
                sig_labels.len()
            ),
        ));
    }
    let sig_offsets_usize: Vec<usize> = sig_offsets.iter().map(|&o| o as usize).collect();
    validate_csr_offsets(&sig_offsets_usize, sig_labels.len(), "sig_offsets")?;
    let vertex_masks = validate_signatures(&sig_offsets_usize, &sig_labels, &sig_counts)?;

    // The label index and its masks are derived, not stored: the masks the
    // signature check computed go into the label buckets. The index's size is
    // the max label + 1, so bound the stored labels by what max_nlf declares.
    let graph = Graph::from_csr(offsets, neighbors, labels, edge_count);
    let label_count = graph.label_count();
    if max_nlf.len() != label_count {
        return Err(invalid(
            "max_nlf",
            format!("{} max-NLF bounds for {label_count} labels", max_nlf.len()),
        ));
    }
    if let Some(&l) = sig_labels.iter().find(|&&l| (l as usize) >= label_count) {
        return Err(invalid(
            "sig_labels",
            format!("signature label {l} out of range {label_count}"),
        ));
    }

    let label_index = LabelIndex::new(graph.labels(), label_count, &vertex_masks);
    Ok(PreparedData::from_parts(
        graph,
        sig_offsets,
        sig_labels,
        sig_counts,
        label_index,
        max_nlf,
        max_degree,
        watch.elapsed(),
    ))
}

/// Loads a prepared index from `path`, verifying header, checksum, and
/// structure. The returned index's [`PreparedData::prep_time`] records the load
/// wall time — the warm-start cost that replaces the cold prepare.
pub fn load_index<P: AsRef<Path>>(path: P) -> Result<PreparedData, IndexIoError> {
    let bytes = std::fs::read(path)?;
    load_index_bytes(&bytes)
}

/// CSR offset array validation: starts at 0, non-decreasing, ends exactly at
/// the target array's length.
fn validate_csr_offsets(
    offsets: &[usize],
    target_len: usize,
    section: &'static str,
) -> Result<(), IndexIoError> {
    if offsets.first() != Some(&0) {
        return Err(invalid(section, "first offset is not 0"));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(invalid(
            section,
            "offsets are not monotonically non-decreasing",
        ));
    }
    if offsets.last().copied() != Some(target_len) {
        return Err(invalid(
            section,
            format!(
                "last offset {} does not match section length {target_len}",
                offsets.last().copied().unwrap_or(0)
            ),
        ));
    }
    Ok(())
}

/// Adjacency validation: every list sorted strictly ascending (no duplicates),
/// no self loops, endpoints in range, and every edge present in both
/// directions (the matcher's binary searches assume symmetry).
///
/// Symmetry is checked by building the transpose with a counting sort and
/// comparing it with the original — O(n + m) with sequential access, an order
/// of magnitude cheaper than per-edge binary searches on large indexes (the
/// loader must stay cheaper than the preparation pass it replaces).
fn validate_adjacency(
    offsets: &[usize],
    neighbors: &[VertexId],
    n: usize,
) -> Result<(), IndexIoError> {
    let list = |v: usize| -> &[VertexId] {
        let lo = offsets.get(v).copied().unwrap_or(0);
        let hi = offsets.get(v + 1).copied().unwrap_or(lo);
        neighbors.get(lo..hi).unwrap_or(&[])
    };
    for v in 0..n {
        let adj = list(v);
        if adj.windows(2).any(|w| w[0] >= w[1]) {
            return Err(invalid(
                "neighbors",
                format!("adjacency of vertex {v} is not sorted strictly ascending"),
            ));
        }
        for &w in adj {
            if w as usize >= n {
                return Err(invalid(
                    "neighbors",
                    format!("vertex {v} lists out-of-range neighbor {w}"),
                ));
            }
            if w as usize == v {
                return Err(invalid(
                    "neighbors",
                    format!("vertex {v} lists a self loop"),
                ));
            }
        }
    }
    // A sorted-per-list adjacency is symmetric iff it equals its own transpose:
    // appending `v` (ascending) to each neighbor's bucket yields the transpose
    // with every bucket already sorted, so one array comparison decides it.
    let mut cursor = vec![0usize; n];
    for &w in neighbors {
        if let Some(c) = cursor.get_mut(w as usize) {
            *c += 1;
        }
    }
    let mut total = 0usize;
    for (v, c) in cursor.iter_mut().enumerate() {
        let indegree = *c;
        *c = total;
        total = total.saturating_add(indegree);
        let degree = list(v).len();
        if indegree != degree {
            return Err(invalid(
                "neighbors",
                format!("vertex {v} has degree {degree} but is listed {indegree} times"),
            ));
        }
    }
    let mut transpose = vec![0 as VertexId; neighbors.len()];
    for v in 0..n {
        for &w in list(v) {
            if let Some(c) = cursor.get_mut(w as usize) {
                if let Some(slot) = transpose.get_mut(*c) {
                    *slot = v as VertexId;
                }
                *c += 1;
            }
        }
    }
    if transpose != neighbors {
        // The mismatch pinpoints one asymmetric edge for the error message.
        for v in 0..n {
            for &w in list(v) {
                if list(w as usize).binary_search(&(v as VertexId)).is_err() {
                    return Err(invalid(
                        "neighbors",
                        format!("edge ({v}, {w}) is not symmetric"),
                    ));
                }
            }
        }
        return Err(invalid("neighbors", "adjacency is not symmetric"));
    }
    Ok(())
}

/// Signature arena validation: per-vertex label slices sorted strictly
/// ascending with positive counts (signatures store only positive counts).
/// Returns every vertex's neighbor-label mask, by vertex id, computed in the
/// same loop as the check: the arena is the masks' only source on load, and a
/// separate pass over it cost about as much as the check itself.
fn validate_signatures(
    sig_offsets: &[usize],
    sig_labels: &[Label],
    sig_counts: &[u32],
) -> Result<Vec<u64>, IndexIoError> {
    let mut masks = Vec::with_capacity(sig_offsets.len().saturating_sub(1));
    for (v, w) in sig_offsets.windows(2).enumerate() {
        let slice = sig_labels.get(w[0]..w[1]).unwrap_or(&[]);
        let mut ascending = true;
        let mut previous = -1i64; // below every label
        let mut mask = 0u64;
        for &l in slice {
            ascending &= i64::from(l) > previous;
            previous = i64::from(l);
            mask |= PreparedData::label_bit(l);
        }
        if !ascending {
            return Err(invalid(
                "sig_labels",
                format!("signature of vertex {v} is not sorted strictly ascending"),
            ));
        }
        masks.push(mask);
    }
    if sig_counts.contains(&0) {
        return Err(invalid("sig_counts", "signature stores a zero count"));
    }
    Ok(masks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::fixtures;

    fn prepared_fixture() -> PreparedData {
        let (_q, data) = fixtures::paper_example();
        PreparedData::new(data)
    }

    #[test]
    fn roundtrip_in_memory() {
        let prepared = prepared_fixture();
        let bytes = write_index_bytes(&prepared);
        let loaded = load_index_bytes(&bytes).expect("roundtrip loads");
        assert_eq!(loaded, prepared);
    }

    #[test]
    fn roundtrip_empty_graph() {
        let prepared = PreparedData::new(crate::GraphBuilder::new().build());
        let loaded = load_index_bytes(&write_index_bytes(&prepared)).expect("empty loads");
        assert_eq!(loaded, prepared);
    }

    #[test]
    fn roundtrip_through_file() {
        let prepared = prepared_fixture();
        let path = std::env::temp_dir().join(format!("gup_index_io_{}.gupi", std::process::id()));
        save_index(&prepared, &path).expect("save");
        let loaded = load_index(&path);
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.expect("load"), prepared);
    }

    #[test]
    fn load_records_wall_time_not_prepare_time() {
        let prepared = prepared_fixture();
        let loaded = load_index_bytes(&write_index_bytes(&prepared)).expect("loads");
        // Equality ignores prep_time; the loaded one must still carry a
        // measurement of its own (possibly sub-microsecond, but tracked).
        assert_eq!(loaded, prepared);
        let _ = loaded.prep_time();
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = write_index_bytes(&prepared_fixture());
        bytes[0] = b'X';
        assert!(matches!(
            load_index_bytes(&bytes),
            Err(IndexIoError::BadMagic { .. })
        ));
        let mut bytes = write_index_bytes(&prepared_fixture());
        bytes[4] = FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            load_index_bytes(&bytes),
            Err(IndexIoError::UnsupportedVersion { found, supported })
                if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
        ));
    }

    #[test]
    fn rejects_missing_file() {
        let err = load_index("/nonexistent/gup.gupi").expect_err("missing file");
        assert!(matches!(err, IndexIoError::Io(_)));
    }

    #[test]
    fn rejects_trailing_bytes() {
        let prepared = prepared_fixture();
        let mut bytes = write_index_bytes(&prepared);
        bytes.push(0);
        // The trailing byte also breaks the checksum; reseal to reach the parser.
        let fixed = checksum(&bytes[HEADER_BYTES..]);
        bytes[8..16].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            load_index_bytes(&bytes),
            Err(IndexIoError::Invalid {
                section: "trailer",
                ..
            })
        ));
    }

    #[test]
    fn rejects_asymmetric_adjacency() {
        // Hand-build CSR parts where 0 lists 1 but 1 does not list 0, then
        // serialize via a legitimately prepared graph and splice. Simpler: craft
        // the payload through a prepared graph, then corrupt one neighbor entry
        // and reseal the checksum so only structural validation can catch it.
        let g = graph_from_edges(&[0, 0, 0], &[(0, 1), (1, 2)]);
        let prepared = PreparedData::new(g);
        let mut bytes = write_index_bytes(&prepared);
        // Payload layout: 3 u64s, offsets (u64 count + 4 u64), then the
        // neighbors count (u64) and the first neighbor (u32). Rewrite the first
        // neighbor (vertex 0's single neighbor, id 1) to id 2 — still in range
        // and sorted, but edge (0,2) is not symmetric.
        let first_neighbor = HEADER_BYTES + 3 * 8 + 8 + 4 * 8 + 8;
        bytes[first_neighbor..first_neighbor + 4].copy_from_slice(&2u32.to_le_bytes());
        let fixed = checksum(&bytes[HEADER_BYTES..]);
        bytes[8..16].copy_from_slice(&fixed.to_le_bytes());
        let err = load_index_bytes(&bytes).expect_err("asymmetric adjacency");
        assert!(
            matches!(
                err,
                IndexIoError::Invalid {
                    section: "neighbors",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// A resealed file whose signature labels are out of order, or repeated,
    /// is rejected by the signature check.
    #[test]
    fn rejects_unsorted_signatures() {
        // Vertex 0 has one label-1 and one label-2 neighbor: signature [1, 2].
        let g = graph_from_edges(&[0, 1, 2], &[(0, 1), (0, 2)]);
        let prepared = PreparedData::new(g);
        let bytes = write_index_bytes(&prepared);
        // Payload layout: 3 u64s, offsets (u64 count + 4 u64), neighbors (u64
        // count + 4 u32), labels (u64 count + 3 u32), sig_offsets (u64 count +
        // 4 u32), then the sig_labels count and vertex 0's two labels.
        let first_label =
            HEADER_BYTES + 3 * 8 + (8 + 4 * 8) + (8 + 4 * 4) + (8 + 3 * 4) + (8 + 4 * 4) + 8;
        let read =
            |b: &[u8], at: usize| u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]]);
        assert_eq!(
            (read(&bytes, first_label), read(&bytes, first_label + 4)),
            (1, 2)
        );
        for swapped in [[2u32, 1], [1, 1]] {
            let mut corrupt = bytes.clone();
            corrupt[first_label..first_label + 4].copy_from_slice(&swapped[0].to_le_bytes());
            corrupt[first_label + 4..first_label + 8].copy_from_slice(&swapped[1].to_le_bytes());
            let fixed = checksum(&corrupt[HEADER_BYTES..]);
            corrupt[8..16].copy_from_slice(&fixed.to_le_bytes());
            let err = load_index_bytes(&corrupt).expect_err("unsorted signature");
            assert!(
                matches!(
                    err,
                    IndexIoError::Invalid {
                        section: "sig_labels",
                        ..
                    }
                ),
                "{swapped:?}: {err}"
            );
        }
    }

    /// A resealed file with a label above [`MAX_DATA_LABEL`] is rejected before
    /// anything is sized by the label.
    #[test]
    fn rejects_labels_above_the_data_label_bound() {
        let g = graph_from_edges(&[0, 1, 2], &[(0, 1), (0, 2)]);
        let bytes = write_index_bytes(&PreparedData::new(g));
        // Payload layout: 3 u64s, offsets (u64 count + 4 u64), neighbors (u64
        // count + 4 u32), then the labels count and vertex 0's label.
        let labels = HEADER_BYTES + 3 * 8 + (8 + 4 * 8) + (8 + 4 * 4) + 8;
        for label in [MAX_DATA_LABEL + 1, u32::MAX] {
            let mut corrupt = bytes.clone();
            let at = labels + 2 * 4;
            corrupt[at..at + 4].copy_from_slice(&label.to_le_bytes());
            let fixed = checksum(&corrupt[HEADER_BYTES..]);
            corrupt[8..16].copy_from_slice(&fixed.to_le_bytes());
            let err = load_index_bytes(&corrupt).expect_err("label above the bound");
            assert!(
                matches!(
                    err,
                    IndexIoError::Invalid {
                        section: "labels",
                        ..
                    }
                ),
                "{label}: {err}"
            );
            assert!(format!("{err}").contains(&format!("vertex 2 has label {label}")));
        }
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            format!("{}", IndexIoError::BadMagic { found: *b"abcd" }),
            format!(
                "{}",
                IndexIoError::UnsupportedVersion {
                    found: 9,
                    supported: FORMAT_VERSION
                }
            ),
            format!(
                "{}",
                IndexIoError::ChecksumMismatch {
                    stored: 1,
                    computed: 2
                }
            ),
            format!("{}", IndexIoError::Truncated { section: "labels" }),
            format!("{}", IndexIoError::SectionOverrun { section: "labels" }),
            format!("{}", invalid("offsets", "first offset is not 0")),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
        assert!(format!("{}", IndexIoError::Truncated { section: "labels" }).contains("labels"));
    }

    #[test]
    fn checksum_is_fnv1a() {
        // Pinned reference values keep the on-disk format stable across refactors.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
