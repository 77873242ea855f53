//! Guard representations: reservation guards and search-node-encoded nogood guards.
//!
//! A **reservation guard** `R(u_i, v)` is a small set of data vertices (at most `r`,
//! default 3) that any subembedding rooted at the candidate vertex `(u_i, v)` must use
//! (Definition 3.3). It is generated once, before the search, and every guard of a
//! query lives in one [`ReservationTable`]: an arena of members with one offset per
//! candidate.
//!
//! A **nogood guard** is discovered during the search. Definition 3.15/3.16 describe it
//! as a set of assignments; storing it literally would make the matching test
//! `O(|V_Q|)`. GuP instead uses the *search-node encoding* (§3.5.1): the guard's
//! assignment set is rounded up to its minimum superset embedding, which corresponds to
//! a node of the search tree, and the guard is stored as the triple
//! `(node id, length, domain bitset)`. A partial embedding matches the guard iff the
//! entry at index `length` of its ancestor array equals `node id` — an O(1) test.
//! Nogood guards live in one slot array per query vertex ([`VertexGuardStore`]) and
//! one per query edge ([`EdgeGuardStore`]), so no guard structure allocates per
//! candidate.

use gup_graph::{QVSet, VertexId};

/// Identifier of a search-tree node. Node 0 is the imaginary root (the empty partial
/// embedding); every recursion allocates a fresh id.
pub type NodeId = u64;

/// The reservation guards of every candidate vertex of one query: the chosen
/// reservation sets, stored as sorted data-vertex ids in one arena. An **empty**
/// reservation means *no* subembedding is rooted at the candidate vertex, so the
/// candidate can be filtered out unconditionally; the trivial reservation `{v}` of
/// candidate `v` prunes nothing beyond injectivity.
///
/// Candidates are numbered flat in *reverse* query order (all of `u_{n-1}`, then
/// `u_{n-2}`, ...), the order in which generation
/// ([`generate_reservation_guards`](crate::reservation::generate_reservation_guards))
/// walks the query, so each guard is appended at the arena's end and one offset per
/// candidate delimits it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReservationTable {
    /// Flat number of candidate 0 of each query vertex.
    first: Vec<usize>,
    /// The guard of flat candidate `g` is `members[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<usize>,
    members: Vec<VertexId>,
}

impl ReservationTable {
    /// An empty table for a query whose candidate sets have the given sizes, to be
    /// filled by `push`.
    pub(crate) fn with_candidate_sizes(sizes: &[usize]) -> Self {
        let mut first = vec![0; sizes.len()];
        let mut total = 0;
        for (u, &size) in sizes.iter().enumerate().rev() {
            first[u] = total;
            total += size;
        }
        let mut offsets = Vec::with_capacity(total + 1);
        offsets.push(0);
        // Most guards of a generated table are the trivial one-member guard.
        ReservationTable {
            first,
            offsets,
            members: Vec::with_capacity(total),
        }
    }

    /// Appends the guard of the next candidate: query vertices in reverse order,
    /// candidates of one vertex in index order. `members` need not be sorted.
    pub(crate) fn push(&mut self, members: &[VertexId]) {
        let start = self.members.len();
        self.members.extend_from_slice(members);
        self.members[start..].sort_unstable();
        self.offsets.push(self.members.len());
    }

    /// The (sorted) reservation of candidate `cand_index` of query vertex `u`.
    #[inline]
    pub fn get(&self, u: usize, cand_index: u32) -> &[VertexId] {
        let g = self.first[u] + cand_index as usize;
        &self.members[self.offsets[g]..self.offsets[g + 1]]
    }

    /// Number of guards pushed so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when the table holds no guard (as for a GCS built with reservation
    /// guards off).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap bytes used by the table.
    pub fn heap_bytes(&self) -> usize {
        (self.first.capacity() + self.offsets.capacity()) * std::mem::size_of::<usize>()
            + self.members.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// A search-node-encoded nogood guard (the triple `(id, len, dom)` of §3.5.1),
/// generic over the width `W` of its domain bitset.
///
/// `NogoodRef::ABSENT` marks candidate vertices / edges that carry no guard yet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NogoodRef<const W: usize = 1> {
    /// Search-node id of the minimum superset embedding of the nogood.
    pub id: NodeId,
    /// Length of that minimum superset embedding. `u32::MAX` encodes "no guard".
    pub len: u32,
    /// Domain of the nogood (the query vertices whose assignments it constrains).
    pub dom: QVSet<W>,
}

impl<const W: usize> NogoodRef<W> {
    /// Sentinel for "no guard recorded".
    pub const ABSENT: NogoodRef<W> = NogoodRef {
        id: 0,
        len: u32::MAX,
        dom: QVSet::EMPTY,
    };

    /// `true` if a guard has been recorded.
    #[inline]
    pub fn is_present(&self) -> bool {
        self.len != u32::MAX
    }

    /// O(1) matching test (§3.5.1): a partial embedding whose ancestor array is `anc`
    /// (with `anc[0]` the root node and `anc[d]` the node of its length-`d` prefix)
    /// matches this guard iff the guard is present, the prefix exists, and the node ids
    /// agree.
    #[inline]
    pub fn matches(&self, anc: &[NodeId]) -> bool {
        self.is_present() && (self.len as usize) < anc.len() && anc[self.len as usize] == self.id
    }
}

impl<const W: usize> Default for NogoodRef<W> {
    fn default() -> Self {
        NogoodRef::ABSENT
    }
}

/// Storage of nogood guards on candidate vertices: one slot per `(query vertex,
/// candidate index)`. The default store has no slot and no heap.
#[derive(Clone, Debug, Default)]
pub struct VertexGuardStore<const W: usize = 1> {
    slots: Vec<Vec<NogoodRef<W>>>,
}

impl<const W: usize> VertexGuardStore<W> {
    /// Creates an empty store shaped after the candidate-set sizes.
    pub fn new(candidate_sizes: &[usize]) -> Self {
        VertexGuardStore::<W> {
            slots: candidate_sizes
                .iter()
                .map(|&n| vec![NogoodRef::ABSENT; n])
                .collect(),
        }
    }

    /// The guard on candidate `cand_index` of query vertex `u`.
    #[inline]
    pub fn get(&self, u: usize, cand_index: u32) -> NogoodRef<W> {
        self.slots[u][cand_index as usize]
    }

    /// Records (or overwrites) the guard on candidate `cand_index` of query vertex `u`.
    #[inline]
    pub fn set(&mut self, u: usize, cand_index: u32, guard: NogoodRef<W>) {
        self.slots[u][cand_index as usize] = guard;
    }

    /// Number of present guards (for statistics).
    pub fn present_count(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.iter().filter(|g| g.is_present()).count())
            .sum()
    }

    /// Heap bytes used by the store.
    pub fn heap_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<NogoodRef<W>>())
            .sum()
    }
}

/// Storage of nogood guards on candidate edges: one slot per candidate edge, in one
/// array per query edge.
///
/// Slots parallel the forward candidate edges of the candidate space: for the query
/// edge `eid` = `(a, b)` with `a < b` and candidate index `ca` of `a`, slot
/// `forward_start(eid, ca) + p` guards the candidate edge towards the `p`-th entry of
/// `forward_adjacency(eid, ca)`. The default store has no slot and no heap.
#[derive(Clone, Debug, Default)]
pub struct EdgeGuardStore<const W: usize = 1> {
    /// `slots[eid][slot]`.
    slots: Vec<Vec<NogoodRef<W>>>,
}

impl<const W: usize> EdgeGuardStore<W> {
    /// Creates an empty store with the given number of candidate edges per query
    /// edge.
    pub fn new(edge_sizes: impl IntoIterator<Item = usize>) -> Self {
        EdgeGuardStore::<W> {
            slots: edge_sizes
                .into_iter()
                .map(|len| vec![NogoodRef::ABSENT; len])
                .collect(),
        }
    }

    /// The guard on slot `slot` of query edge `eid`.
    #[inline]
    pub fn get(&self, eid: usize, slot: usize) -> NogoodRef<W> {
        self.slots[eid][slot]
    }

    /// Records (or overwrites) a guard.
    #[inline]
    pub fn set(&mut self, eid: usize, slot: usize, guard: NogoodRef<W>) {
        self.slots[eid][slot] = guard;
    }

    /// Number of present guards (for statistics).
    pub fn present_count(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.iter().filter(|g| g.is_present()).count())
            .sum()
    }

    /// Heap bytes used by the store.
    pub fn heap_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.capacity() * std::mem::size_of::<NogoodRef<W>>())
            .sum::<usize>()
            + self.slots.capacity() * std::mem::size_of::<Vec<NogoodRef<W>>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservation_guard_basics() {
        // Two query vertices with 2 and 1 candidates, filled in reverse query order.
        let mut table = ReservationTable::with_candidate_sizes(&[2, 1]);
        assert!(table.is_empty());
        table.push(&[7]);
        table.push(&[5, 3]);
        table.push(&[]);
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(1, 0), &[7]);
        assert_eq!(table.get(0, 0), &[3, 5]);
        assert!(table.get(0, 1).is_empty());
        assert!(table.heap_bytes() >= 3 * std::mem::size_of::<VertexId>());
        assert_eq!(ReservationTable::default().heap_bytes(), 0);
    }

    #[test]
    fn nogood_ref_matching() {
        // Ancestor array of a depth-3 partial embedding.
        let anc = vec![0u64, 11, 12, 13];
        let guard: NogoodRef = NogoodRef {
            id: 12,
            len: 2,
            dom: QVSet::from_iter([0, 1]),
        };
        assert!(guard.matches(&anc));
        // Different node at the same depth -> no match.
        let other: NogoodRef = NogoodRef {
            id: 99,
            len: 2,
            dom: QVSet::EMPTY,
        };
        assert!(!other.matches(&anc));
        // Guard longer than the current embedding -> no match.
        let deep: NogoodRef = NogoodRef {
            id: 13,
            len: 9,
            dom: QVSet::EMPTY,
        };
        assert!(!deep.matches(&anc));
        // Absent guard never matches.
        assert!(!NogoodRef::<1>::ABSENT.matches(&anc));
        assert!(!NogoodRef::<1>::ABSENT.is_present());
        // An empty-domain guard rooted at the imaginary root matches every embedding.
        let always: NogoodRef = NogoodRef {
            id: 0,
            len: 0,
            dom: QVSet::EMPTY,
        };
        assert!(always.matches(&anc));
        assert!(always.matches(&[0u64]));
    }

    #[test]
    fn vertex_guard_store_roundtrip() {
        let mut store = VertexGuardStore::<1>::new(&[2, 3]);
        assert_eq!(store.present_count(), 0);
        assert!(!store.get(1, 2).is_present());
        let g: NogoodRef = NogoodRef {
            id: 4,
            len: 1,
            dom: QVSet::singleton(0),
        };
        store.set(1, 2, g);
        assert_eq!(store.get(1, 2), g);
        assert_eq!(store.present_count(), 1);
        // Overwriting keeps a single present guard.
        store.set(
            1,
            2,
            NogoodRef {
                id: 9,
                len: 0,
                dom: QVSet::EMPTY,
            },
        );
        assert_eq!(store.present_count(), 1);
        assert!(store.heap_bytes() >= 5 * std::mem::size_of::<NogoodRef>());
    }

    #[test]
    fn edge_guard_store_roundtrip() {
        let mut store = EdgeGuardStore::<1>::new([2, 1]);
        assert_eq!(store.present_count(), 0);
        let g: NogoodRef = NogoodRef {
            id: 3,
            len: 2,
            dom: QVSet::singleton(1),
        };
        store.set(0, 1, g);
        assert_eq!(store.get(0, 1), g);
        assert!(!store.get(0, 0).is_present());
        assert!(!store.get(1, 0).is_present());
        assert_eq!(store.present_count(), 1);
        assert!(store.heap_bytes() >= 3 * std::mem::size_of::<NogoodRef>());
    }
}
