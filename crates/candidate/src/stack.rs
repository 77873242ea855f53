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
    /// position in `adjacency`; `keep` sees the common entries in ascending order.
    /// Both lists ascend. Each entry of `adjacency` gallops forward through the
    /// top (Demaine, López-Ortiz and Munro's adaptive intersection), so an
    /// adjacency list far shorter than the top costs about `log` of the gap per
    /// entry, and one about as long costs a comparison or two per entry, like a
    /// merge. Returns the new top's length; an empty result pushes nothing.
    pub fn push_intersection(
        &mut self,
        f: usize,
        adjacency: &[u32],
        mut keep: impl FnMut(usize) -> bool,
    ) -> usize {
        let parent = self.frames[self.top[f] as usize];
        let start = self.arena.len();
        let (mut i, end) = (parent.start, parent.start + parent.len as usize);
        for (pos, &b) in adjacency.iter().enumerate() {
            i = gallop(&self.arena[..end], i, b);
            if i == end {
                break;
            }
            if self.arena[i] == b {
                if keep(pos) {
                    self.arena.push(b);
                }
                i += 1;
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

/// The first position at or after `from` whose entry of the ascending `list`
/// is not below `x`, or `list.len()`: tests `list[from]`, then probes forward
/// in doubling steps until an entry reaches `x` and binary-searches the last
/// step, so the cost is logarithmic in the distance moved and one comparison
/// when there is none.
#[inline]
fn gallop(list: &[u32], from: usize, x: u32) -> usize {
    if from >= list.len() || list[from] >= x {
        return from;
    }
    // `list[lo] < x`, and so is every entry before it.
    let (mut lo, mut step) = (from, 1);
    while lo + step < list.len() && list[lo + step] < x {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(list.len());
    lo + 1 + list[lo + 1..hi].partition_point(|&a| a < x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FilterConfig;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::PreparedData;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// A stack whose vertex 0 has `top` as its only frame, with room reserved
    /// for one more frame as long.
    fn stack_with_top(top: &[u32]) -> CandidateStack<()> {
        let mut arena = Vec::with_capacity(2 * top.len());
        arena.extend_from_slice(top);
        let base = Frame {
            vertex: 0,
            len: top.len() as u32,
            prev_top: 0,
            start: 0,
            payload: (),
        };
        CandidateStack {
            arena,
            frames: vec![base],
            top: vec![0],
        }
    }

    /// About `len` distinct ascending values below `bound`, about half of them
    /// drawn from `common` when it is not empty.
    fn ascending(rng: &mut SmallRng, len: usize, bound: u32, common: &[u32]) -> Vec<u32> {
        let mut list: Vec<u32> = (0..len)
            .map(|_| {
                if !common.is_empty() && rng.gen_bool(0.5) {
                    common[rng.gen_range(0..common.len())]
                } else {
                    rng.gen_range(0..bound)
                }
            })
            .collect();
        list.sort_unstable();
        list.dedup();
        list
    }

    /// What `push_intersection(f, adjacency, keep)` must do, by definition: the
    /// positions `keep` is asked about (those of the common entries, ascending)
    /// and the entries it keeps.
    fn reference(
        top: &[u32],
        adjacency: &[u32],
        keep: impl Fn(usize) -> bool,
    ) -> (Vec<usize>, Vec<u32>) {
        let asked: Vec<usize> = (0..adjacency.len())
            .filter(|&pos| top.binary_search(&adjacency[pos]).is_ok())
            .collect();
        let kept = asked
            .iter()
            .filter(|&&pos| keep(pos))
            .map(|&pos| adjacency[pos])
            .collect();
        (asked, kept)
    }

    /// Seeded random top frames against adjacency lists far shorter than the
    /// top, about as long and longer, each with a `keep` that rejects some
    /// positions, and lists with nothing in common.
    #[test]
    fn intersection_matches_its_definition() {
        let mut rng = SmallRng::seed_from_u64(28);
        let (mut far_shorter, mut comparable, mut empty) = (0, 0, 0);
        for case in 0..4000 {
            let bound = rng.gen_range(1..5000u32);
            let top_len = rng.gen_range(0..(bound as usize).min(800) + 1);
            let top = ascending(&mut rng, top_len, bound, &[]);
            let adjacency = match case % 4 {
                // Far shorter than the top, values around and beyond its range.
                0 => {
                    let len = rng.gen_range(0..top.len() / 8 + 1);
                    ascending(&mut rng, len, bound + 50, &top)
                }
                // About as long as the top.
                1 => ascending(&mut rng, top.len(), bound, &top),
                // Up to four times longer.
                2 => {
                    let len = rng.gen_range(top.len()..4 * top.len() + 2);
                    ascending(&mut rng, len, bound + 50, &top)
                }
                // Nothing in common: values the top does not hold.
                _ => {
                    let outside: Vec<u32> = (0..bound + 50)
                        .filter(|v| top.binary_search(v).is_err())
                        .collect();
                    let len = rng.gen_range(0..top.len() + 2);
                    let picked = ascending(&mut rng, len, outside.len() as u32, &[]);
                    picked.iter().map(|&i| outside[i as usize]).collect()
                }
            };
            let salt = rng.gen_range(0..5usize);
            let keep = |pos: usize| (pos + salt) % 5 != 0;
            let (asked, kept) = reference(&top, &adjacency, keep);
            if adjacency.len() * 8 < top.len() {
                far_shorter += 1;
            } else if adjacency.len() * 2 >= top.len() {
                comparable += 1;
            }
            let mut stack = stack_with_top(&top);
            let capacity = stack.arena.capacity();
            let mut seen = Vec::new();
            let len = stack.push_intersection(0, &adjacency, |pos| {
                seen.push(pos);
                keep(pos)
            });
            let context = format!("case {case}: top {top:?}, adjacency {adjacency:?}");
            assert_eq!(seen, asked, "{context}: positions asked");
            assert_eq!(len, kept.len(), "{context}");
            assert_eq!(stack.arena.capacity(), capacity, "{context}: reallocated");
            if kept.is_empty() {
                empty += 1;
                // An empty result pushes nothing.
                assert_eq!(stack.frames.len(), 1, "{context}");
                assert_eq!(stack.arena.len(), top.len(), "{context}");
                assert_eq!(stack.top(0), top.as_slice(), "{context}");
            } else {
                assert_eq!(stack.frames.len(), 2, "{context}");
                assert_eq!(stack.top(0), kept.as_slice(), "{context}");
            }
        }
        assert!(far_shorter >= 1000 && comparable >= 2000 && empty >= 1000);
    }

    #[test]
    fn gallop_finds_the_first_entry_not_below_the_target() {
        let list = [2, 4, 4, 8, 16, 32, 64, 128];
        for from in 0..=list.len() {
            for x in 0..140 {
                let expected = (from..list.len())
                    .find(|&i| list[i] >= x)
                    .unwrap_or(list.len());
                assert_eq!(gallop(&list, from, x), expected, "from {from}, x {x}");
            }
        }
        assert_eq!(gallop(&[], 0, 7), 0);
    }
}
