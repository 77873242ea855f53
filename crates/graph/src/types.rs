//! Core scalar types shared across the workspace.
//!
//! Data-graph vertex ids and labels are `u32` to halve memory traffic versus `usize`
//! (data graphs in the paper go up to ~3.8 M vertices / 16.5 M edges, well within
//! `u32`).  Query-vertex sets are fixed-width bitsets because the matcher relies on
//! O(1) set operations for its complexity bounds (§3.6 of the paper). The width is a
//! **const generic**: `QVSet<W>` stores `W` 64-bit words, and the engine is
//! monomorphized per width, so the one-word fast path ([`Qv64`]) compiles to exactly
//! the single-`u64` arithmetic the paper assumes while [`Qv128`]/[`Qv256`] open the
//! door to large template queries (65–256 vertices).

/// Identifier of a vertex in a data graph or a query graph.
pub type VertexId = u32;

/// Vertex label. Labels are dense small integers (the loaders remap arbitrary label
/// strings/ids into a dense range).
pub type Label = u32;

/// Maximum number of query vertices supported by any bitset width ([`Qv256`]).
/// Queries beyond this are rejected at the API boundary
/// (`QueryGraphError::TooLarge`); widths beyond 256 are a recorded follow-on
/// (ROADMAP "Open items").
pub const MAX_QUERY_VERTICES: usize = 256;

/// The largest label a data-graph vertex may carry: 2^16 − 1. A prepared
/// index keeps two arrays indexed by label, the max-NLF bounds and the label
/// buckets' offsets (12 bytes per label); preparing adds a per-label count
/// scratch, and applying a delta batch copies both arrays, allocates its own
/// count scratch and walks every label to rebuild the buckets. So the largest
/// data label, not the number of labels in use, sets that memory and that
/// walk: at this bound about 768 KiB per index and 1.3 MiB and 65,536 bucket
/// steps per batch, where label `u32::MAX` would ask for 16 to 32 GiB per
/// array. Data graphs are rejected where they enter: preparing
/// ([`crate::PrepareError::LabelTooLarge`]), loading an index file (an
/// [`crate::IndexIoError::Invalid`] `labels` section) and validating a delta
/// batch ([`crate::DeltaError::LabelTooLarge`]). Query labels stay unbounded:
/// none sizes an allocation.
pub const MAX_DATA_LABEL: Label = 65_535;

/// Number of 64-bit words needed to hold a set of `n` query vertices (at least 1).
#[inline]
pub const fn words_for(n: usize) -> usize {
    let w = n.div_ceil(64);
    if w == 0 {
        1
    } else {
        w
    }
}

/// A set of query vertices represented as a `W`-word bitmask (64 vertices per word).
///
/// Used for conflict masks, deadend masks, bounding sets, and nogood-guard domains.
/// All operations are O(W) with `W` a compile-time constant — O(1) for any fixed
/// width, matching the paper's assumption that "a bit vector of length |V_Q| takes
/// O(1) space and O(1) time for set operations". The default width `W = 1` (the
/// [`Qv64`] alias) is the zero-cost fast path: every loop below is over a
/// length-known-at-compile-time array and unrolls to the same single-`u64`
/// instructions the pre-generic implementation emitted.
///
/// # Bounds
///
/// Members must be `< Self::CAPACITY` (`64 * W`). The constructors
/// ([`QVSet::singleton`], [`QVSet::all_below`]) enforce this in **every** build
/// profile — a wrapped shift in a release build would silently alias vertex
/// `CAPACITY` with vertex `CAPACITY - 64`. The hot-path mutators
/// (`insert`/`with`/`without`/`remove`) only `debug_assert!` it; they are safe
/// because every index reaching them is a query-vertex id, and `QueryGraph`
/// construction plus the per-width validation in `Gcs`/`OrderedQuery` reject
/// queries wider than the instantiated bitset at the API boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct QVSet<const W: usize = 1>([u64; W]);

/// One-word query-vertex set: queries of at most 64 vertices (every workload in the
/// paper). This is the default width and the zero-cost fast path.
pub type Qv64 = QVSet<1>;

/// Two-word query-vertex set: queries of at most 128 vertices.
pub type Qv128 = QVSet<2>;

/// Four-word query-vertex set: queries of at most 256 vertices (the current
/// engine-wide ceiling, [`MAX_QUERY_VERTICES`]).
pub type Qv256 = QVSet<4>;

impl<const W: usize> QVSet<W> {
    /// Number of query vertices this width can represent.
    pub const CAPACITY: usize = 64 * W;

    /// The empty set.
    pub const EMPTY: QVSet<W> = QVSet([0; W]);

    /// Creates an empty set.
    #[inline]
    pub const fn new() -> Self {
        QVSet([0; W])
    }

    /// Creates a set containing the single query vertex `i`.
    ///
    /// # Panics
    /// When `i >= Self::CAPACITY`, in release builds too (a wrapped shift or an
    /// out-of-bounds word index would silently produce the wrong set).
    #[inline]
    pub fn singleton(i: usize) -> Self {
        assert!(
            i < Self::CAPACITY,
            "query vertex {i} out of range (max {})",
            Self::CAPACITY
        );
        let mut words = [0u64; W];
        words[i >> 6] = 1u64 << (i & 63);
        QVSet(words)
    }

    /// Creates a set containing all query vertices `0..n`.
    ///
    /// # Panics
    /// When `n > Self::CAPACITY`, in release builds too.
    #[inline]
    pub fn all_below(n: usize) -> Self {
        assert!(
            n <= Self::CAPACITY,
            "query size {n} out of range (max {})",
            Self::CAPACITY
        );
        let mut words = [0u64; W];
        let mut w = 0;
        while w * 64 < n {
            let remaining = n - w * 64;
            words[w] = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
            w += 1;
        }
        QVSet(words)
    }

    /// Raw word representation (`words()[i >> 6] >> (i & 63) & 1` is membership).
    #[inline]
    pub const fn words(self) -> [u64; W] {
        self.0
    }

    /// Builds a set from a raw word representation.
    #[inline]
    pub const fn from_words(words: [u64; W]) -> Self {
        QVSet(words)
    }

    /// Returns `true` when the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        let mut w = 0;
        while w < W {
            if self.0[w] != 0 {
                return false;
            }
            w += 1;
        }
        true
    }

    /// Number of query vertices in the set.
    #[inline]
    pub const fn len(self) -> usize {
        let mut n = 0;
        let mut w = 0;
        while w < W {
            n += self.0[w].count_ones() as usize;
            w += 1;
        }
        n
    }

    /// Adds query vertex `i`.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY);
        self.0[i >> 6] |= 1u64 << (i & 63);
    }

    /// Removes query vertex `i`.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < Self::CAPACITY);
        self.0[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Membership test.
    #[inline]
    pub const fn contains(self, i: usize) -> bool {
        if i >= Self::CAPACITY {
            return false;
        }
        (self.0[i >> 6] >> (i & 63)) & 1 == 1
    }

    /// Set union.
    #[inline]
    pub const fn union(self, other: QVSet<W>) -> QVSet<W> {
        let mut words = self.0;
        let mut w = 0;
        while w < W {
            words[w] |= other.0[w];
            w += 1;
        }
        QVSet(words)
    }

    /// Set intersection.
    #[inline]
    pub const fn intersection(self, other: QVSet<W>) -> QVSet<W> {
        let mut words = self.0;
        let mut w = 0;
        while w < W {
            words[w] &= other.0[w];
            w += 1;
        }
        QVSet(words)
    }

    /// Set difference (`self \ other`).
    #[inline]
    pub const fn difference(self, other: QVSet<W>) -> QVSet<W> {
        let mut words = self.0;
        let mut w = 0;
        while w < W {
            words[w] &= !other.0[w];
            w += 1;
        }
        QVSet(words)
    }

    /// Returns `self \ {i}` without mutating.
    #[inline]
    pub fn without(self, i: usize) -> QVSet<W> {
        debug_assert!(i < Self::CAPACITY);
        let mut words = self.0;
        words[i >> 6] &= !(1u64 << (i & 63));
        QVSet(words)
    }

    /// Returns `self ∪ {i}` without mutating.
    #[inline]
    pub fn with(self, i: usize) -> QVSet<W> {
        debug_assert!(i < Self::CAPACITY);
        let mut words = self.0;
        words[i >> 6] |= 1u64 << (i & 63);
        QVSet(words)
    }

    /// Subset test: is `self ⊆ other`?
    #[inline]
    pub const fn is_subset_of(self, other: QVSet<W>) -> bool {
        let mut w = 0;
        while w < W {
            if self.0[w] & !other.0[w] != 0 {
                return false;
            }
            w += 1;
        }
        true
    }

    /// Restriction to query vertices with index `< i` (the paper's `[: i]` filtering).
    #[inline]
    pub fn below(self, i: usize) -> QVSet<W> {
        self.intersection(QVSet::all_below(i))
    }

    /// Largest element of the set, if any.
    #[inline]
    pub fn max(self) -> Option<usize> {
        let mut w = W;
        while w > 0 {
            w -= 1;
            if self.0[w] != 0 {
                return Some(w * 64 + 63 - self.0[w].leading_zeros() as usize);
            }
        }
        None
    }

    /// Smallest element of the set, if any.
    #[inline]
    pub fn min(self) -> Option<usize> {
        let mut w = 0;
        while w < W {
            if self.0[w] != 0 {
                return Some(w * 64 + self.0[w].trailing_zeros() as usize);
            }
            w += 1;
        }
        None
    }

    /// Iterates over the members in ascending order.
    #[inline]
    pub fn iter(self) -> QVSetIter<W> {
        QVSetIter {
            words: self.0,
            w: 0,
        }
    }
}

impl Qv64 {
    /// Raw bit representation (one-word sets only; the generic accessor is
    /// [`QVSet::words`]).
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0[0]
    }

    /// Builds a one-word set from a raw bit representation.
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        QVSet([bits])
    }
}

impl<const W: usize> Default for QVSet<W> {
    fn default() -> Self {
        QVSet::EMPTY
    }
}

impl<const W: usize> std::fmt::Debug for QVSet<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("{")?;
        let mut first = true;
        for i in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            write!(f, "u{i}")?;
            first = false;
        }
        f.write_str("}")
    }
}

impl<const W: usize> FromIterator<usize> for QVSet<W> {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut s = QVSet::new();
        for i in iter {
            s.insert(i);
        }
        s
    }
}

impl<const W: usize> std::ops::BitOr for QVSet<W> {
    type Output = QVSet<W>;
    #[inline]
    fn bitor(self, rhs: QVSet<W>) -> QVSet<W> {
        self.union(rhs)
    }
}

impl<const W: usize> std::ops::BitOrAssign for QVSet<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: QVSet<W>) {
        for w in 0..W {
            self.0[w] |= rhs.0[w];
        }
    }
}

impl<const W: usize> std::ops::BitAnd for QVSet<W> {
    type Output = QVSet<W>;
    #[inline]
    fn bitand(self, rhs: QVSet<W>) -> QVSet<W> {
        self.intersection(rhs)
    }
}

/// Iterator over the members of a [`QVSet`].
pub struct QVSetIter<const W: usize> {
    words: [u64; W],
    w: usize,
}

impl<const W: usize> Iterator for QVSetIter<W> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.w < W {
            let word = self.words[self.w];
            if word != 0 {
                let i = word.trailing_zeros() as usize;
                self.words[self.w] &= word - 1;
                return Some(self.w * 64 + i);
            }
            self.w += 1;
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n: usize = self.words[self.w..]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (n, Some(n))
    }
}

impl<const W: usize> ExactSizeIterator for QVSetIter<W> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_properties() {
        let s = Qv64::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.max(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.iter().count(), 0);
        assert!(s.is_subset_of(QVSet::new()));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Qv64::new();
        s.insert(3);
        s.insert(17);
        s.insert(63);
        assert!(s.contains(3));
        assert!(s.contains(17));
        assert!(s.contains(63));
        assert!(!s.contains(4));
        assert_eq!(s.len(), 3);
        s.remove(17);
        assert!(!s.contains(17));
        assert_eq!(s.len(), 2);
        // Removing an element not in the set is a no-op.
        s.remove(17);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_intersection_difference() {
        let a = Qv64::from_iter([0, 1, 2, 5]);
        let b = Qv64::from_iter([2, 5, 9]);
        assert_eq!(a.union(b), QVSet::from_iter([0, 1, 2, 5, 9]));
        assert_eq!(a.intersection(b), QVSet::from_iter([2, 5]));
        assert_eq!(a.difference(b), QVSet::from_iter([0, 1]));
        assert_eq!(b.difference(a), QVSet::from_iter([9]));
    }

    #[test]
    fn subset_and_below() {
        let a = Qv64::from_iter([1, 3, 7]);
        let b = Qv64::from_iter([0, 1, 3, 7, 8]);
        assert!(a.is_subset_of(b));
        assert!(!b.is_subset_of(a));
        assert_eq!(a.below(4), QVSet::from_iter([1, 3]));
        assert_eq!(a.below(0), QVSet::EMPTY);
        assert_eq!(b.below(64), b);
    }

    #[test]
    fn all_below_boundaries() {
        assert_eq!(Qv64::all_below(0), QVSet::EMPTY);
        assert_eq!(Qv64::all_below(1), QVSet::singleton(0));
        assert_eq!(Qv64::all_below(64).len(), 64);
        assert_eq!(Qv64::all_below(32).len(), 32);
    }

    #[test]
    fn min_max_iter_order() {
        let s = Qv64::from_iter([40, 2, 9]);
        assert_eq!(s.min(), Some(2));
        assert_eq!(s.max(), Some(40));
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![2, 9, 40]);
    }

    #[test]
    fn with_without_do_not_mutate() {
        let s = Qv64::from_iter([1, 2]);
        let t = s.with(5);
        let u = s.without(2);
        assert_eq!(s, QVSet::from_iter([1, 2]));
        assert_eq!(t, QVSet::from_iter([1, 2, 5]));
        assert_eq!(u, QVSet::from_iter([1]));
    }

    #[test]
    fn debug_format_lists_members() {
        let s = Qv64::from_iter([0, 2]);
        assert_eq!(format!("{s:?}"), "{u0,u2}");
    }

    /// Regression for the release-mode shift wrap: `singleton(CAPACITY)` must panic
    /// (not silently alias a lower vertex) in **every** build profile.
    /// `debug_assert!` alone would let the word index or `1u64 << 64` wrap with
    /// `--release`.
    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_singleton_panics_in_release_too() {
        let _ = Qv64::singleton(Qv64::CAPACITY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_all_below_panics_in_release_too() {
        let _ = Qv64::all_below(Qv64::CAPACITY + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_singleton_panics_at_wide_widths_too() {
        let _ = Qv256::singleton(Qv256::CAPACITY);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_all_below_panics_at_wide_widths_too() {
        let _ = Qv128::all_below(Qv128::CAPACITY + 1);
    }

    #[test]
    fn operators_match_methods() {
        let a = Qv64::from_iter([0, 1]);
        let b = Qv64::from_iter([1, 2]);
        assert_eq!(a | b, a.union(b));
        assert_eq!(a & b, a.intersection(b));
        let mut c = a;
        c |= b;
        assert_eq!(c, a.union(b));
    }

    #[test]
    fn multi_word_cross_word_membership() {
        let mut s = Qv256::new();
        for i in [0, 63, 64, 127, 128, 191, 192, 255] {
            s.insert(i);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(255));
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 63, 64, 127, 128, 191, 192, 255]);
        assert_eq!(s.below(128), QVSet::from_iter([0, 63, 64, 127]));
        s.remove(128);
        assert!(!s.contains(128));
        assert!(s.contains(191));
    }

    #[test]
    fn multi_word_all_below_spans_words() {
        let s = Qv128::all_below(100);
        assert_eq!(s.len(), 100);
        assert!(s.contains(0));
        assert!(s.contains(63));
        assert!(s.contains(64));
        assert!(s.contains(99));
        assert!(!s.contains(100));
        assert_eq!(Qv128::all_below(128).len(), 128);
        assert_eq!(Qv256::all_below(64), Qv256::from_iter(0..64));
    }

    #[test]
    fn words_for_rounding() {
        assert_eq!(words_for(0), 1);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
        assert_eq!(words_for(256), 4);
    }

    #[test]
    fn words_roundtrip_and_bits_compat() {
        let s = Qv64::from_bits(0b1011);
        assert_eq!(s.bits(), 0b1011);
        assert_eq!(s, QVSet::from_iter([0, 1, 3]));
        let wide = Qv256::from_words([1, 2, 0, 1 << 63]);
        assert_eq!(wide.words(), [1, 2, 0, 1 << 63]);
        assert_eq!(wide, QVSet::from_iter([0, 65, 255]));
    }
}
