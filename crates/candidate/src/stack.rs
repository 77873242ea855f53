//! The local candidate sets of a backtracking search (Definition 3.18 of the GuP
//! paper), which each extension narrows and each backtrack restores, kept for GuP's
//! engine and the baselines alike as one `u32` arena plus a LIFO list of frames. A
//! frame is one set with a `Copy` payload (GuP's bounding set, Definition 3.19); a
//! vertex's top frame is its current set. Along one search path each backward
//! neighbor of `u` pushes at most one frame on `u`, no longer than `|C(u)|`, so
//! [`CandidateStack::new`] reserves `Σ_u |C(u)|·(1 + |N⁻(u)|)` entries and no push
//! reallocates.

use crate::space::CandidateSpace;

/// One local candidate set: `arena[start..start + len]` of query vertex `vertex`.
#[derive(Clone, Copy, Debug)]
struct Frame<P> {
    vertex: u32,
    len: u32,
    /// The frame that was `vertex`'s top before this one was pushed.
    prev_top: u32,
    start: usize,
    payload: P,
}

/// A stack height taken by [`CandidateStack::mark`], to hand back to
/// [`CandidateStack::restore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StackMark(usize);

/// The local candidate sets of one search over a [`CandidateSpace`], indexed by
/// the space's query-vertex ids (see the [module docs](self)).
#[derive(Debug)]
pub struct CandidateStack<P = ()> {
    arena: Vec<u32>,
    frames: Vec<Frame<P>>,
    /// Index into `frames` of each query vertex's top frame.
    top: Vec<u32>,
}

impl<P: Copy> CandidateStack<P> {
    /// A stack whose base frames hold every candidate index of each query vertex of
    /// `space`, each carrying `base`, with room reserved for the deepest stack a
    /// search can build: one more frame per query edge `(a, b)`, `a < b`, on `b`.
    pub fn new(space: &CandidateSpace, base: P) -> Self {
        let n = space.query_vertex_count();
        let edges = space.edge_list();
        let refined: usize = edges.iter().map(|&(_, b)| space.candidates(b).len()).sum();
        let mut stack = CandidateStack {
            arena: Vec::with_capacity(space.total_candidates() + refined),
            frames: Vec::with_capacity(n + edges.len()),
            top: vec![0; n],
        };
        for u in 0..n {
            let start = stack.arena.len();
            stack.arena.extend(0..space.candidates(u).len() as u32);
            stack.push_frame(u, start, base);
        }
        stack
    }

    /// The local candidate set of query vertex `u`: ascending candidate indices.
    pub fn top(&self, u: usize) -> &[u32] {
        let frame = &self.frames[self.top[u] as usize];
        &self.arena[frame.start..frame.start + frame.len as usize]
    }

    /// The payload of `u`'s top frame.
    pub fn payload(&self, u: usize) -> P {
        self.frames[self.top[u] as usize].payload
    }

    /// Replaces the payload of `u`'s top frame.
    pub fn set_payload(&mut self, u: usize, payload: P) {
        self.frames[self.top[u] as usize].payload = payload;
    }

    /// The current height, for a later [`CandidateStack::restore`].
    pub fn mark(&self) -> StackMark {
        StackMark(self.frames.len())
    }

    /// Pops every frame pushed since `mark` was taken, so each query vertex's top
    /// is again what it was then.
    pub fn restore(&mut self, mark: StackMark) {
        // Newest first: a vertex with several popped frames ends on the oldest
        // one's previous top, and each truncation reaches lower than the last.
        for frame in self.frames.drain(mark.0..).rev() {
            self.top[frame.vertex as usize] = frame.prev_top;
            self.arena.truncate(frame.start);
        }
    }

    /// Narrows the local candidate set of `f`: pushes, as `f`'s new top carrying
    /// the payload of its old one, the entries of [`CandidateStack::top`]`(f)` that
    /// also occur in `adjacency` and pass `keep(pos)`, where `pos` is the entry's
    /// position in `adjacency`. Both lists ascend, so this is one merge. Returns
    /// the new top's length; an empty result pushes nothing.
    pub fn push_intersection(
        &mut self,
        f: usize,
        adjacency: &[u32],
        mut keep: impl FnMut(usize) -> bool,
    ) -> usize {
        let parent = self.frames[self.top[f] as usize];
        let start = self.arena.len();
        let (mut i, mut pos) = (parent.start, 0);
        while i < parent.start + parent.len as usize && pos < adjacency.len() {
            let a = self.arena[i];
            match a.cmp(&adjacency[pos]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => pos += 1,
                std::cmp::Ordering::Equal => {
                    if keep(pos) {
                        self.arena.push(a);
                    }
                    i += 1;
                    pos += 1;
                }
            }
        }
        let len = self.arena.len() - start;
        if len > 0 {
            self.push_frame(f, start, parent.payload);
        }
        len
    }

    /// Makes `arena[start..]` the top frame of `u`.
    fn push_frame(&mut self, u: usize, start: usize, payload: P) {
        self.frames.push(Frame {
            vertex: u as u32,
            len: (self.arena.len() - start) as u32,
            prev_top: self.top[u],
            start,
            payload,
        });
        self.top[u] = (self.frames.len() - 1) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FilterConfig;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::PreparedData;

    /// A labeled triangle in a square with a diagonal: two candidates per query
    /// vertex, three query edges.
    fn space() -> CandidateSpace {
        let data = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        let query = graph_from_edges(&[0, 1, 0], &[(0, 1), (1, 2), (2, 0)]);
        CandidateSpace::build_prepared(&query, &PreparedData::new(data), &FilterConfig::default())
    }

    #[test]
    fn base_frames_hold_every_candidate_index() {
        let space = space();
        let stack = CandidateStack::new(&space, 7u8);
        for u in 0..3 {
            let all: Vec<u32> = (0..space.candidates(u).len() as u32).collect();
            assert_eq!(stack.top(u), all.as_slice());
            assert_eq!(stack.payload(u), 7);
        }
    }

    #[test]
    fn restore_undoes_every_push_since_the_mark() {
        let space = space();
        let mut stack = CandidateStack::new(&space, 0u8);
        let base = stack.mark();
        assert_eq!(stack.push_intersection(2, &[0, 1], |_| true), 2);
        let inner = stack.mark();
        assert_eq!(stack.push_intersection(2, &[1, 5], |_| true), 1);
        stack.set_payload(2, 3);
        assert_eq!(stack.top(2), &[1]);
        assert_eq!(stack.payload(2), 3);
        assert_eq!(stack.push_intersection(1, &[0], |_| true), 1);
        stack.restore(inner);
        assert_eq!(stack.top(2), &[0, 1]);
        assert_eq!(stack.payload(2), 0);
        assert_eq!(stack.top(1), &[0, 1]);
        stack.restore(base);
        assert_eq!(stack.mark(), base);
        assert_eq!(stack.top(2), &[0, 1]);
    }

    #[test]
    fn keep_sees_positions_in_the_adjacency_list() {
        let space = space();
        let mut stack = CandidateStack::new(&space, ());
        let mut seen = Vec::new();
        let len = stack.push_intersection(0, &[1, 4, 9], |pos| {
            seen.push(pos);
            false
        });
        // Only index 1 is in both lists; it sits at position 0 of the adjacency.
        assert_eq!(seen, vec![0]);
        assert_eq!(len, 0);
        // An empty result pushes nothing.
        assert_eq!(stack.top(0), &[0, 1]);
    }

    #[test]
    fn the_reserved_capacity_holds_the_deepest_stack() {
        let space = space();
        let mut stack = CandidateStack::new(&space, ());
        let capacity = stack.arena.capacity();
        // Every query edge pushes a full-length frame on its higher endpoint.
        for &(_, b) in space.edge_list() {
            let all: Vec<u32> = (0..space.candidates(b).len() as u32).collect();
            stack.push_intersection(b, &all, |_| true);
        }
        assert_eq!(stack.arena.len(), 6 + 3 * 2);
        assert_eq!(stack.arena.capacity(), capacity);
    }
}
