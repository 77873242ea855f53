//! Backtracking with guards (paper §3.3–§3.4, Algorithm 2).
//!
//! The engine performs a depth-first search over extensions of partial embeddings,
//! maintaining *local candidate sets* (Definition 3.18) and *bounding sets*
//! (Definition 3.19) incrementally. Each extension is tested for the four conflicts of
//! Definition 3.22 (injectivity, reservation guard, vertex nogood guard, no-candidate);
//! conflicting or fully-explored deadend extensions yield nogoods via the conflict /
//! deadend masks (Definitions 3.23 and 3.26), which are recorded as nogood guards on
//! candidate vertices and candidate edges (search-node encoded, §3.5.1) and drive
//! backjumping (Algorithm 2 line 14).
//!
//! ### Deviation from the paper
//!
//! Nogood guards on edges are discovered with a restricted rule: when a nogood
//! `D = (M ⊕ v)[K]` is found, and the two highest-indexed query vertices of `K` are
//! adjacent in the query (and inside its 2-core), the guard `D` minus those two
//! assignments is recorded on the candidate edge between their assignments. This is a
//! sound special case of Definition 3.30 (any superset of a nogood is a nogood and the
//! domain restriction of Definition 3.16 holds by construction); the paper's full
//! fixed-deadend-mask recursion can discover additional edge guards. See DESIGN.md.
//!
//! ### Task frames and work stealing
//!
//! A search can be packaged as a [`SearchTask`]: a replayable prefix (the candidate
//! index assigned at each depth `< base`) plus an explicit list of unexplored
//! candidates at the base depth. [`SearchEngine::run_task`] replays the prefix
//! (re-running the forward refinements, which is cheap — at most `|V_Q|` merge
//! intersections) and then searches exactly the listed candidates. While a task runs,
//! the engine tracks the unexplored sibling range of every active frame; when a
//! [`SplitHandle`] reports hungry workers, the shallowest splittable frame donates the
//! unexplored half of its range as a fresh task (§3.5.2 of the paper). A frame that
//! donated part of its range can no longer prove the level exhaustively explored, so
//! it reports `NotDeadend` instead of synthesizing a deadend mask from an incomplete
//! candidate enumeration — masks obtained by backjumping stay valid because their
//! claim is independent of which siblings were enumerated locally.
//!
//! One engine per worker lives across *all* tasks the worker executes, so the nogood
//! guard stores persist. Search-node ids keep growing monotonically across tasks,
//! which keeps stale node-encoded guards inert (their node id can never reappear in a
//! later ancestor array) while guards whose encoded prefix is the imaginary root —
//! "this candidate can never be extended, period" — keep pruning in every later task.

use crate::config::{GupConfig, PruningFeatures, SearchLimits};
use crate::gcs::Gcs;
use crate::guards::{EdgeGuardStore, NodeId, NogoodRef, VertexGuardStore};
use crate::stats::SearchStats;
use gup_graph::deadline::DeadlineSampler;
use gup_graph::sink::{CollectAll, EmbeddingReservation, EmbeddingSink, SinkControl};
use gup_graph::{QVSet, VertexId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// One unit of work for the work-stealing driver: replay `prefix` (candidate index
/// per query vertex `0..prefix.len()`), then explore exactly the candidate indices in
/// `candidates` at depth `prefix.len()`.
#[derive(Clone, Debug)]
pub struct SearchTask {
    /// Candidate index assigned to query vertex `k`, for each `k < prefix.len()`.
    pub prefix: Vec<u32>,
    /// Unexplored candidate indices of query vertex `prefix.len()`.
    pub candidates: Vec<u32>,
}

/// Shared hooks that let a running engine donate split-off frames to a task queue.
///
/// The engine donates only while demand exceeds supply (`hungry > queued`), which
/// self-throttles splitting to the number of idle workers.
#[derive(Clone)]
pub struct SplitHandle {
    /// Number of workers currently looking for work.
    pub hungry: Arc<AtomicUsize>,
    /// Number of tasks currently sitting in deques (not yet claimed).
    pub queued: Arc<AtomicUsize>,
    /// The owning worker's deque; donated frames are pushed to its back, thieves
    /// steal from its front (shallowest frame first).
    pub sink: Arc<Mutex<VecDeque<SearchTask>>>,
}

/// Only search frames at depth `< MAX_SPLIT_DEPTH` may be split off and donated to
/// idle workers. Shallow frames make the biggest tasks; deep splits produce tiny
/// tasks whose replay overhead outweighs the balancing benefit.
const MAX_SPLIT_DEPTH: usize = 32;

/// Steal granularity: a frame is only split when at least this many unexplored
/// sibling candidates remain in it (half of them are donated).
const MIN_SPLIT_CANDIDATES: usize = 2;

/// Result of exploring one extension / partial embedding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StepResult<const W: usize> {
    /// The subtree produced at least one embedding.
    NotDeadend,
    /// The partial embedding is a deadend; the payload is its deadend mask.
    Deadend(QVSet<W>),
    /// A termination limit fired; unwind without recording further guards.
    Aborted,
}

/// Outcome of a full search.
#[derive(Clone, Debug, Default)]
pub struct SearchOutcome {
    /// Found embeddings over the *matching-order* vertex ids (empty unless the search
    /// was asked to collect them). Use [`Gcs::embedding_in_original_ids`] to translate.
    pub embeddings: Vec<Vec<VertexId>>,
    /// Counters collected during the search.
    pub stats: SearchStats,
}

/// The sink backing the legacy `Vec<Embedding>`-returning entry points
/// ([`SearchEngine::run`], [`SearchEngine::run_task`]): discard when the
/// configuration only counts, collect when it materializes.
enum DefaultSink {
    Discard,
    Collect(CollectAll),
}

impl DefaultSink {
    fn take_collected(&mut self) -> Vec<Vec<VertexId>> {
        match self {
            DefaultSink::Discard => Vec::new(),
            DefaultSink::Collect(all) => all.take_embeddings(),
        }
    }
}

impl EmbeddingSink for DefaultSink {
    fn report(&mut self, embedding: &[VertexId]) -> SinkControl {
        match self {
            DefaultSink::Discard => SinkControl::Continue,
            DefaultSink::Collect(all) => all.report(embedding),
        }
    }

    fn wants_embeddings(&self) -> bool {
        matches!(self, DefaultSink::Collect(_))
    }
}

/// The sequential guarded backtracking engine. One instance per (GCS, search): it owns
/// the mutable per-search state, including the nogood-guard stores (which the parallel
/// engine keeps thread-local, §3.5.2).
pub struct SearchEngine<'a, const W: usize = 1> {
    gcs: &'a Gcs<W>,
    features: PruningFeatures,
    limits: SearchLimits,

    // Per-search mutable state -------------------------------------------------------
    /// Candidate index assigned to each query vertex (valid for depths < current).
    assignment: Vec<u32>,
    /// Data vertex assigned to each query vertex.
    assignment_data: Vec<VertexId>,
    /// For each data vertex: 0 if unassigned, otherwise (query vertex index + 1).
    /// `u16` so the widest supported queries (up to 256 vertices, owner values up
    /// to 257) can never wrap — a `u8` would silently alias query vertices ≥ 255.
    owner: Vec<u16>,
    /// Ancestor array of the current search node (`anc[d]` = node id of the length-`d`
    /// prefix; `anc[0]` is the imaginary root).
    anc: Vec<NodeId>,
    next_node_id: NodeId,
    /// Stack of local candidate-index lists per query vertex; the top is the current
    /// local candidate set.
    cand_stack: Vec<Vec<Vec<u32>>>,
    /// Stack of bounding sets per query vertex, parallel to `cand_stack`.
    bound_stack: Vec<Vec<QVSet<W>>>,
    /// Nogood guards on candidate vertices (populated during the search).
    nv: VertexGuardStore<W>,
    /// Nogood guards on candidate edges (populated during the search).
    ne: EdgeGuardStore<W>,

    stats: SearchStats,
    /// Backs the legacy `Vec`-returning entry points; the sink-based entry points
    /// ([`SearchEngine::run_with_sink`], [`SearchEngine::run_task_with_sink`]) bypass
    /// it entirely.
    default_sink: DefaultSink,
    /// Embedding-limit slot reservation: local check for sequential runs, one shared
    /// check-and-increment counter across all workers of a parallel run. The single
    /// place where the limit is enforced.
    reservation: EmbeddingReservation,
    /// Work-bounded sampler over the configured absolute deadline, which is owned by
    /// whoever built the config — so engine reuse across the tasks of a parallel run
    /// cannot restart the time budget. Shared with the filter pass and the
    /// brute-force oracle — one sampling implementation, one cadence.
    sampler: DeadlineSampler,
    /// Restrict the root-level candidates to this slice of positions (used by the
    /// parallel engine to partition the search tree). `None` = all root candidates.
    root_slice: Option<(usize, usize)>,

    // Task-frame state ---------------------------------------------------------------
    /// Depth at which the current task's explicit candidate list applies.
    task_base: usize,
    /// Explicit candidate list of the current task's base depth.
    task_candidates: Vec<u32>,
    /// Current loop position of the active frame at each depth.
    frame_pos: Vec<usize>,
    /// Exclusive end of the unexplored range of the active frame at each depth;
    /// shrunk when the frame donates work.
    frame_hi: Vec<usize>,
    /// Whether the active frame at each depth donated part of its range.
    frame_donated: Vec<bool>,
    /// Donation hooks of the work-stealing driver.
    split: Option<SplitHandle>,
}

impl<'a, const W: usize> SearchEngine<'a, W> {
    /// Creates an engine for one search over `gcs` under `config`.
    pub fn new(gcs: &'a Gcs<W>, config: &GupConfig) -> Self {
        let n = gcs.query().vertex_count();
        let cand_stack = (0..n)
            .map(|u| {
                let len = gcs.space().candidates(u).len();
                vec![(0..len as u32).collect::<Vec<u32>>()]
            })
            .collect();
        let bound_stack = (0..n).map(|_| vec![QVSet::EMPTY]).collect();
        SearchEngine {
            gcs,
            features: config.features,
            limits: config.limits,
            assignment: vec![0; n],
            assignment_data: vec![0; n],
            owner: vec![0; gcs.data_vertex_count()],
            anc: vec![0; n + 1],
            next_node_id: 1,
            cand_stack,
            bound_stack,
            nv: gcs.new_vertex_guard_store(),
            ne: gcs.new_edge_guard_store(),
            stats: SearchStats::default(),
            default_sink: if config.collect_embeddings {
                DefaultSink::Collect(CollectAll::new())
            } else {
                DefaultSink::Discard
            },
            reservation: EmbeddingReservation::local(config.limits.max_embeddings),
            sampler: DeadlineSampler::new(config.limits.deadline),
            root_slice: None,
            task_base: 0,
            task_candidates: Vec::new(),
            frame_pos: vec![0; n],
            frame_hi: vec![0; n],
            frame_donated: vec![false; n],
            split: None,
        }
    }

    /// Restricts the root level to candidate positions `[start, end)` of `C(u_0)`.
    /// Used by the parallel engine to split the search tree across workers.
    pub fn restrict_root(&mut self, start: usize, end: usize) {
        self.root_slice = Some((start, end));
    }

    /// Shares an embedding counter with other workers so that the embedding limit is
    /// enforced globally across a parallel run (§3.5.2). The limit is reserved
    /// check-and-increment (`fetch_update`), so workers can never overshoot it.
    pub fn share_embedding_counter(&mut self, counter: Arc<AtomicU64>) {
        self.reservation = EmbeddingReservation::shared(counter, self.limits.max_embeddings);
    }

    /// Enables frame donation: while `handle` reports hungry workers, the engine
    /// splits the shallowest splittable active frame and pushes the unexplored half
    /// to `handle.sink`.
    pub fn enable_splitting(&mut self, handle: SplitHandle) {
        self.split = Some(handle);
    }

    /// Counters collected so far (across every task this engine executed).
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Counts one stolen task against this engine's statistics (driver-side event;
    /// the engine itself cannot observe where its tasks came from).
    pub fn record_steal(&mut self) {
        self.stats.tasks_stolen += 1;
    }

    /// The task covering this engine's whole search space: empty prefix, every root
    /// candidate (restricted by [`SearchEngine::restrict_root`] when set).
    pub fn root_task(&self) -> SearchTask {
        let list = &self.cand_stack[0][0];
        let len = list.len();
        let (lo, hi) = self
            .root_slice
            .map(|(a, b)| (a.min(len), b.min(len)))
            .unwrap_or((0, len));
        SearchTask {
            prefix: Vec::new(),
            candidates: list[lo..hi.max(lo)].to_vec(),
        }
    }

    /// Runs the search to completion (or until a limit fires) and returns the outcome.
    /// Thin adapter over [`SearchEngine::run_with_sink`]: embeddings are collected or
    /// discarded according to `GupConfig::collect_embeddings`.
    pub fn run(mut self) -> SearchOutcome {
        let mut sink = std::mem::replace(&mut self.default_sink, DefaultSink::Discard);
        let stats = self.run_with_sink(&mut sink);
        SearchOutcome {
            embeddings: sink.take_collected(),
            stats,
        }
    }

    /// Runs the search, streaming every found embedding into `sink` (over the
    /// *matching-order* vertex ids; use [`GupMatcher::run_with_sink`] for original
    /// ids). The sink's [`EmbeddingSink::capacity`] is folded into the embedding
    /// limit, and a [`SinkControl::Stop`] terminates the search immediately
    /// (`SearchStats::stopped_by_sink`).
    ///
    /// [`GupMatcher::run_with_sink`]: crate::matcher::GupMatcher::run_with_sink
    pub fn run_with_sink(mut self, sink: &mut dyn EmbeddingSink) -> SearchStats {
        self.search_all(sink);
        self.stats
    }

    /// Runs the search and additionally returns the populated guard stores (used by
    /// the memory-consumption experiment, Table 3).
    pub fn run_with_guards(mut self) -> (SearchOutcome, VertexGuardStore<W>, EdgeGuardStore<W>) {
        let mut sink = std::mem::replace(&mut self.default_sink, DefaultSink::Discard);
        self.search_all(&mut sink);
        let outcome = SearchOutcome {
            embeddings: sink.take_collected(),
            stats: self.stats,
        };
        (outcome, self.nv, self.ne)
    }

    /// The whole search into `sink`: folds the sink's capacity into the embedding
    /// limit, runs the root task, and settles the cap flags
    /// ([`SearchStats::settle_cap`]).
    fn search_all(&mut self, sink: &mut dyn EmbeddingSink) {
        let configured_limit = self.reservation.max();
        self.reservation.cap(sink.capacity());
        if !self.gcs.is_empty() {
            let task = self.root_task();
            self.run_task_with_sink(task, sink);
        }
        self.stats.settle_cap(configured_limit, sink.capacity());
    }

    /// Executes one task against the engine's built-in sink (collect or discard per
    /// `GupConfig::collect_embeddings`); see [`SearchEngine::run_task_with_sink`].
    pub fn run_task(&mut self, task: SearchTask) {
        // The default sink is swapped out for the duration of the call so that the
        // recursion can borrow the engine and the sink independently.
        let mut sink = std::mem::replace(&mut self.default_sink, DefaultSink::Discard);
        self.run_task_with_sink(task, &mut sink);
        self.default_sink = sink;
    }

    /// Executes one task, streaming found embeddings into `sink`: replays the task's
    /// prefix, then explores its candidate range. Counters accumulate in the engine
    /// across calls; collect them with [`SearchEngine::take_outcome`] when the worker
    /// is done.
    ///
    /// A prefix that can no longer be extended (a persistent guard or refinement
    /// proves its subtree empty) makes the task a cheap no-op — that pruning is sound
    /// because guards and refinements only ever remove embedding-free subtrees.
    pub fn run_task_with_sink(&mut self, task: SearchTask, sink: &mut dyn EmbeddingSink) {
        if self.gcs.is_empty() || task.candidates.is_empty() {
            return;
        }
        self.stats.tasks_executed += 1;
        let base = task.prefix.len();
        debug_assert!(base < self.gcs.query().vertex_count());
        let mut replayed: Vec<Vec<usize>> = Vec::with_capacity(base);
        let mut alive = true;
        for (k, &cv) in task.prefix.iter().enumerate() {
            let v = self.gcs.space().candidates(k)[cv as usize];
            // A guard learned in an earlier task may have since proven this subtree
            // empty; injectivity/reservation conflicts cannot occur on a valid prefix.
            if self.features.nogood_vertex_guards && self.nv.get(k, cv).matches(&self.anc[..k + 1])
            {
                self.stats.pruned_by_nogood_vertex += 1;
                alive = false;
                break;
            }
            self.owner[v as usize] = k as u16 + 1;
            self.assignment[k] = cv;
            self.assignment_data[k] = v;
            let node = self.next_node_id;
            self.next_node_id += 1;
            self.anc[k + 1] = node;
            match self.refine_forward(k, cv, v) {
                Ok(pushed) => replayed.push(pushed),
                Err(_) => {
                    self.owner[v as usize] = 0;
                    self.stats.no_candidate_conflicts += 1;
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            self.task_base = base;
            self.task_candidates = task.candidates;
            let _ = self.backtrack(base, sink);
            self.task_base = 0;
            self.task_candidates = Vec::new();
        }
        for k in (0..replayed.len()).rev() {
            self.pop_refinements(&replayed[k]);
            self.owner[self.assignment_data[k] as usize] = 0;
        }
    }

    /// Moves the accumulated outcome out of the engine (leaving it reusable). Only
    /// embeddings recorded through the built-in sink ([`SearchEngine::run_task`])
    /// appear here; [`SearchEngine::run_task_with_sink`] callers own their sink.
    pub fn take_outcome(&mut self) -> SearchOutcome {
        SearchOutcome {
            embeddings: self.default_sink.take_collected(),
            stats: std::mem::take(&mut self.stats),
        }
    }

    // ------------------------------------------------------------------------------
    // Core recursion
    // ------------------------------------------------------------------------------

    fn backtrack(&mut self, k: usize, sink: &mut dyn EmbeddingSink) -> StepResult<W> {
        let n = self.gcs.query().vertex_count();
        if k == n {
            return if self.try_record_embedding(sink) {
                StepResult::NotDeadend
            } else {
                StepResult::Aborted
            };
        }
        self.stats.recursions += 1;
        if self.limit_hit() {
            return StepResult::Aborted;
        }
        self.maybe_donate(k);

        let mut found_any = false;
        let mut mask_union = QVSet::<W>::EMPTY;
        let mut mask_without_k: Option<QVSet<W>> = None;
        let mut aborted = false;
        let mut backjump_mask: Option<QVSet<W>> = None;

        let at_base = k == self.task_base;
        let level = self.cand_stack[k].len() - 1;
        self.frame_pos[k] = 0;
        self.frame_hi[k] = if at_base {
            self.task_candidates.len()
        } else {
            self.cand_stack[k][level].len()
        };
        self.frame_donated[k] = false;

        while self.frame_pos[k] < self.frame_hi[k] {
            let pos = self.frame_pos[k];
            let cv = if at_base {
                self.task_candidates[pos]
            } else {
                self.cand_stack[k][level][pos]
            };
            let v = self.gcs.space().candidates(k)[cv as usize];
            self.stats.local_candidates_seen += 1;

            // --- Conflict checks before extension (Algorithm 2, lines 4–5) ----------
            let conflict = self.pre_extension_conflict(k, cv, v);
            let child_mask: Option<QVSet<W>> = if let Some(mask) = conflict {
                Some(mask)
            } else {
                // --- Extend and refine local candidates (lines 6–8) ------------------
                self.owner[v as usize] = k as u16 + 1;
                self.assignment[k] = cv;
                self.assignment_data[k] = v;
                let node = self.next_node_id;
                self.next_node_id += 1;
                self.anc[k + 1] = node;

                let refine = self.refine_forward(k, cv, v);
                let result_mask = match refine {
                    Err(bound) => {
                        // No-candidate conflict (Definition 3.22 case 4).
                        self.stats.no_candidate_conflicts += 1;
                        Some(bound)
                    }
                    Ok(pushed) => {
                        let result = self.backtrack(k + 1, sink);
                        self.pop_refinements(&pushed);
                        match result {
                            StepResult::Aborted => {
                                aborted = true;
                                None
                            }
                            StepResult::NotDeadend => {
                                found_any = true;
                                None
                            }
                            StepResult::Deadend(mask) => Some(mask),
                        }
                    }
                };
                self.owner[v as usize] = 0;
                result_mask
            };

            if aborted {
                break;
            }

            if let Some(mask) = child_mask {
                // A nogood (M ⊕ v)[mask] was discovered: record guards, update the
                // deadend-mask bookkeeping, and possibly backjump.
                self.record_nogood(k, cv, v, mask);
                mask_union |= mask;
                if !mask.contains(k) {
                    if mask_without_k.is_none() {
                        mask_without_k = Some(mask);
                    }
                    if self.features.backjumping {
                        self.stats.backjumps += 1;
                        backjump_mask = Some(mask);
                        break;
                    }
                }
            }
            self.frame_pos[k] = pos + 1;
        }

        if aborted {
            return StepResult::Aborted;
        }
        if found_any {
            return StepResult::NotDeadend;
        }
        // The current partial embedding is a deadend; derive its deadend mask
        // (Definition 3.26, cases 3 and 4). A mask discovered by backjumping (or any
        // mask not containing k) claims the whole level dead *independently* of which
        // siblings were enumerated here, so it stays valid for a donated frame.
        if let Some(mask) = backjump_mask.or(mask_without_k) {
            self.stats.futile_recursions += 1;
            return StepResult::Deadend(mask);
        }
        if self.frame_donated[k] {
            // Part of this level was donated to another worker: the enumeration is
            // incomplete, so no union-derived deadend mask may be synthesized.
            return StepResult::NotDeadend;
        }
        self.stats.futile_recursions += 1;
        // gup-lint: allow(panic_freedom) every level keeps at least its root entry; an empty bound stack is a search-invariant bug worth a loud crash
        let level_bound = *self.bound_stack[k].last().expect("bound stack never empty");
        let mask = (mask_union | level_bound).without(k);
        StepResult::Deadend(mask)
    }

    /// When idle workers outnumber queued tasks, splits the shallowest splittable
    /// active frame (depth `task_base..min(depth, MAX_SPLIT_DEPTH)`) and donates the
    /// unexplored half of its sibling range as a new task.
    fn maybe_donate(&mut self, depth: usize) {
        let (hungry, queued) = match &self.split {
            Some(s) => (
                // Relaxed: scheduling hints only. A stale read can at worst delay
                // or skip one donation; task hand-off itself is published by the
                // queue mutex, and `queued` updates use SeqCst where the count
                // gates worker shutdown.
                s.hungry.load(Ordering::Relaxed),
                s.queued.load(Ordering::Relaxed),
            ),
            None => return,
        };
        if hungry <= queued {
            return;
        }
        for d in self.task_base..depth.min(MAX_SPLIT_DEPTH) {
            let pos = self.frame_pos[d];
            let hi = self.frame_hi[d];
            // Candidates after the one whose subtree is currently being explored.
            let rest = hi.saturating_sub(pos + 1);
            if rest < MIN_SPLIT_CANDIDATES {
                continue;
            }
            let give = rest - rest / 2;
            let new_hi = hi - give;
            let candidates: Vec<u32> = if d == self.task_base {
                self.task_candidates[new_hi..hi].to_vec()
            } else {
                let level = self.cand_stack[d].len() - 1;
                self.cand_stack[d][level][new_hi..hi].to_vec()
            };
            let prefix: Vec<u32> = self.assignment[..d].to_vec();
            self.frame_hi[d] = new_hi;
            self.frame_donated[d] = true;
            self.stats.frames_split += 1;
            // gup-lint: allow(panic_freedom) the match at the top of this method already returned when split is None
            let split = self.split.as_ref().expect("checked above");
            split.queued.fetch_add(1, Ordering::SeqCst);
            split
                .sink
                .lock()
                .push_back(SearchTask { prefix, candidates });
            return;
        }
    }

    /// Conflict checks performed before extending with candidate `cv` / data vertex
    /// `v` of query vertex `u_k` (Definition 3.22 cases 1–3). Returns the conflict mask
    /// when a conflict is found.
    fn pre_extension_conflict(&mut self, k: usize, cv: u32, v: VertexId) -> Option<QVSet<W>> {
        // (1) Injectivity conflict.
        let owner = self.owner[v as usize];
        if owner != 0 {
            self.stats.pruned_by_injectivity += 1;
            return Some(QVSet::from_iter([owner as usize - 1, k]));
        }
        // (2) Reservation-guard conflict.
        if self.features.reservation_guards {
            let guard = self.gcs.reservation(k, cv);
            if !guard.is_trivial_for(v) {
                let mut mask = QVSet::singleton(k);
                let mut matched = true;
                for &w in guard.vertices() {
                    let o = self.owner[w as usize];
                    if o == 0 {
                        matched = false;
                        break;
                    }
                    mask.insert(o as usize - 1);
                }
                if matched {
                    self.stats.pruned_by_reservation += 1;
                    return Some(mask);
                }
            }
        }
        // (3) Nogood-guard conflict (vertex guards).
        if self.features.nogood_vertex_guards {
            let guard = self.nv.get(k, cv);
            if guard.matches(&self.anc[..k + 1]) {
                self.stats.pruned_by_nogood_vertex += 1;
                return Some(guard.dom.with(k));
            }
        }
        None
    }

    /// Refines the local candidate sets of the forward neighbors of `u_k` after the
    /// assignment `(u_k, v)` (Definition 3.18), pushing one new level per forward
    /// neighbor. On success returns the list of pushed query vertices; on a
    /// no-candidate conflict returns the bounding set of the emptied vertex
    /// (Definition 3.23 case 4), having already undone its own pushes.
    fn refine_forward(&mut self, k: usize, cv: u32, v: VertexId) -> Result<Vec<usize>, QVSet<W>> {
        let _ = v;
        let forward_count = self.gcs.query().forward_neighbors(k).len();
        let mut pushed: Vec<usize> = Vec::with_capacity(forward_count);
        for fi in 0..forward_count {
            let f = self.gcs.query().forward_neighbors(k)[fi];
            let eid = self
                .gcs
                .space()
                .edge_id(k, f)
                // gup-lint: allow(panic_freedom) f comes from forward_neighbors(k), so the query edge (k, f) exists by construction
                .expect("forward neighbors are adjacent in the query");
            let adjacency = self.gcs.space().adjacent_candidates(k, cv as usize, f);
            // gup-lint: allow(panic_freedom) candidate stacks are seeded with one level at construction and never emptied
            let parent_list = self.cand_stack[f].last().expect("stack never empty");
            // gup-lint: allow(panic_freedom) bound stacks are seeded with one level at construction and never emptied
            let parent_bound = *self.bound_stack[f].last().expect("stack never empty");
            let use_ne = self.features.nogood_edge_guards;

            let mut new_list: Vec<u32> = Vec::with_capacity(parent_list.len().min(adjacency.len()));
            let mut new_bound = parent_bound;
            let mut removed_any = parent_list.len() != adjacency.len();
            let mut pruned_by_edge_guard = 0u64;

            // Merge-intersect the (sorted) parent list with the (sorted) adjacency
            // list; `pos` tracks the position within the adjacency list so that the
            // matching edge-guard slot can be consulted.
            let mut pi = 0usize;
            let mut pos = 0usize;
            while pi < parent_list.len() && pos < adjacency.len() {
                let a = parent_list[pi];
                let b = adjacency[pos];
                match a.cmp(&b) {
                    std::cmp::Ordering::Less => {
                        // Candidate not adjacent to v: removed by the adjacency
                        // constraint.
                        removed_any = true;
                        pi += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        pos += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let keep = if use_ne {
                            let guard = self.ne.get(eid, cv, pos);
                            if guard.matches(&self.anc[..k + 2]) {
                                new_bound |= guard.dom;
                                pruned_by_edge_guard += 1;
                                false
                            } else {
                                true
                            }
                        } else {
                            true
                        };
                        if keep {
                            new_list.push(a);
                        } else {
                            removed_any = true;
                        }
                        pi += 1;
                        pos += 1;
                    }
                }
            }
            if pi < parent_list.len() {
                removed_any = true;
            }
            self.stats.pruned_by_nogood_edge += pruned_by_edge_guard;
            if removed_any {
                new_bound.insert(k);
            }
            if new_list.is_empty() {
                // Undo the refinements already pushed for earlier forward neighbors.
                self.pop_refinements(&pushed);
                return Err(new_bound);
            }
            self.cand_stack[f].push(new_list);
            self.bound_stack[f].push(new_bound);
            pushed.push(f);
        }
        Ok(pushed)
    }

    fn pop_refinements(&mut self, pushed: &[usize]) {
        for &f in pushed {
            self.cand_stack[f].pop();
            self.bound_stack[f].pop();
        }
    }

    /// Records the nogood `(M ⊕ v)[mask]` as a nogood guard on a candidate vertex and,
    /// when possible, on a candidate edge (§3.3.2–3.3.3 plus the search-node encoding
    /// of §3.5.1).
    fn record_nogood(&mut self, k: usize, cv: u32, v: VertexId, mask: QVSet<W>) {
        let _ = v;
        let Some(last) = mask.max() else {
            // The empty nogood: no embedding exists anywhere; nothing to attach it to.
            return;
        };
        // Guard on the candidate vertex of the last assignment.
        if self.features.nogood_vertex_guards {
            let target_cand = if last == k { cv } else { self.assignment[last] };
            let rest = mask.without(last);
            let guard = self.encode(rest);
            self.nv.set(last, target_cand, guard);
            self.stats.nv_guards_recorded += 1;
        }
        // Guard on the candidate edge between the two last assignments (restricted
        // edge-guard rule; see the module documentation).
        if self.features.nogood_edge_guards && mask.len() >= 2 {
            let b = last;
            let a = mask
                .without(b)
                .max()
                // gup-lint: allow(panic_freedom) guarded by mask.len() >= 2 just above, so removing one member leaves a maximum
                .expect("mask has at least two members");
            let query = self.gcs.query();
            if query.in_two_core(a) && query.in_two_core(b) {
                if let Some(eid) = self.gcs.space().edge_id(a, b) {
                    let ca = self.assignment[a];
                    let cb = if b == k { cv } else { self.assignment[b] };
                    let adjacency = self.gcs.space().forward_adjacency(eid, ca as usize);
                    if let Ok(p) = adjacency.binary_search(&cb) {
                        let rest = mask.without(a).without(b);
                        let guard = self.encode(rest);
                        self.ne.set(eid, ca, p, guard);
                        self.stats.ne_guards_recorded += 1;
                    }
                }
            }
        }
    }

    /// Search-node encoding of the assignment set `M[dom]` (Definition 3.36): round the
    /// set up to its minimum superset embedding and store `(node id, length, domain)`.
    fn encode(&self, dom: QVSet<W>) -> NogoodRef<W> {
        match dom.max() {
            None => NogoodRef {
                id: self.anc[0],
                len: 0,
                dom,
            },
            Some(m) => NogoodRef {
                id: self.anc[m + 1],
                len: (m + 1) as u32,
                dom,
            },
        }
    }

    /// Reserves a slot under the embedding limit (via the shared
    /// [`EmbeddingReservation`] logic — a check-and-increment `fetch_update` when the
    /// counter is shared across workers, so the limit can never be overshot and no
    /// post-hoc truncation is needed) and reports the embedding to the sink. Returns
    /// `false` when no slot is left or the sink asked the search to stop.
    // These two run once per recursion / per embedding — the innermost hot
    // path. Statically pinned allocation-free; the counting-sink variant is
    // also pinned dynamically by `tests/sink_alloc.rs`.
    // gup-lint: region(no_alloc)
    fn try_record_embedding(&mut self, sink: &mut dyn EmbeddingSink) -> bool {
        if !self.reservation.try_reserve(self.stats.embeddings) {
            self.stats.hit_embedding_limit = true;
            return false;
        }
        self.stats.embeddings += 1;
        match sink.report(&self.assignment_data) {
            SinkControl::Continue => true,
            SinkControl::Stop => {
                self.stats.stopped_by_sink = true;
                false
            }
        }
    }

    fn limit_hit(&mut self) -> bool {
        if self.reservation.exhausted(self.stats.embeddings) {
            self.stats.hit_embedding_limit = true;
            return true;
        }
        // One clock read per DEADLINE_CHECK_INTERVAL recursions, via the shared
        // work-bounded sampler (sticky once expired — correct for an absolute
        // deadline that outlives individual tasks of a reused engine).
        if self.sampler.tick().is_err() {
            self.stats.hit_time_limit = true;
            return true;
        }
        false
    }
    // gup-lint: end_region
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GupConfig;
    use gup_graph::builder::graph_from_edges;
    use gup_graph::fixtures;

    fn build(query: &gup_graph::Graph, data: &gup_graph::Graph, config: &GupConfig) -> Gcs {
        let prepared = gup_graph::PreparedData::from_graph(data);
        Gcs::<1>::build_prepared(query, &prepared, config).unwrap()
    }

    fn run(query: &gup_graph::Graph, data: &gup_graph::Graph, config: &GupConfig) -> SearchOutcome {
        let gcs = build(query, data, config);
        SearchEngine::new(&gcs, config).run()
    }

    #[test]
    fn paper_example_has_exactly_the_described_embeddings() {
        let (q, d) = fixtures::paper_example();
        let mut cfg = GupConfig::collecting();
        cfg.limits = SearchLimits::UNLIMITED;
        let gcs = build(&q, &d, &cfg);
        let outcome = SearchEngine::new(&gcs, &cfg).run();
        assert!(outcome.stats.embeddings >= 1);
        // Every reported embedding must satisfy all three isomorphism constraints.
        for emb in &outcome.embeddings {
            let original = gcs.embedding_in_original_ids(emb);
            verify_embedding(&q, &d, &original);
        }
        // The specific embedding named in the paper's introduction is among them.
        let expected = vec![1u32, 4, 7, 10, 0];
        let found: Vec<Vec<u32>> = outcome
            .embeddings
            .iter()
            .map(|e| gcs.embedding_in_original_ids(e))
            .collect();
        assert!(
            found.contains(&expected),
            "missing the paper's example embedding"
        );
    }

    fn verify_embedding(q: &gup_graph::Graph, d: &gup_graph::Graph, emb: &[u32]) {
        assert_eq!(emb.len(), q.vertex_count());
        for u in q.vertices() {
            assert_eq!(q.label(u), d.label(emb[u as usize]), "label constraint");
        }
        for (a, b) in q.edges() {
            assert!(
                d.has_edge(emb[a as usize], emb[b as usize]),
                "adjacency constraint"
            );
        }
        let mut used: Vec<u32> = emb.to_vec();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), emb.len(), "injectivity constraint");
    }

    #[test]
    fn triangle_in_square_found_in_both_orientations() {
        let q = fixtures::triangle_query();
        let d = fixtures::square_with_diagonal();
        let mut cfg = GupConfig::collecting();
        cfg.limits = SearchLimits::UNLIMITED;
        let outcome = run(&q, &d, &cfg);
        // The data triangles {0,1,2} and {0,2,3} both host the labeled query triangle;
        // swapping the two label-0 query corners doubles each, giving four embeddings.
        assert_eq!(outcome.stats.embeddings, 4);
    }

    #[test]
    fn all_feature_combinations_agree_on_embedding_counts() {
        let cases: Vec<(gup_graph::Graph, gup_graph::Graph)> = vec![
            fixtures::paper_example(),
            (fixtures::triangle_query(), fixtures::square_with_diagonal()),
            (
                fixtures::path(4, 0),
                graph_from_edges(&[0; 6], &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
            ),
            (
                fixtures::clique4(1),
                graph_from_edges(
                    &[1; 6],
                    &[
                        (0, 1),
                        (0, 2),
                        (0, 3),
                        (1, 2),
                        (1, 3),
                        (2, 3),
                        (2, 4),
                        (3, 4),
                        (4, 5),
                        (1, 4),
                    ],
                ),
            ),
        ];
        let feature_sets = [
            PruningFeatures::NONE,
            PruningFeatures::RESERVATION_ONLY,
            PruningFeatures::RESERVATION_AND_NV,
            PruningFeatures::RESERVATION_NV_NE,
            PruningFeatures::ALL,
        ];
        for (q, d) in &cases {
            let mut counts = Vec::new();
            for features in feature_sets {
                let cfg = GupConfig {
                    features,
                    limits: SearchLimits::UNLIMITED,
                    ..GupConfig::default()
                };
                let outcome = run(q, d, &cfg);
                counts.push(outcome.stats.embeddings);
            }
            assert!(
                counts.windows(2).all(|w| w[0] == w[1]),
                "feature combinations disagree: {counts:?}"
            );
        }
    }

    #[test]
    fn guards_never_increase_recursions() {
        let (q, d) = fixtures::paper_example();
        let baseline = run(
            &q,
            &d,
            &GupConfig {
                features: PruningFeatures::NONE,
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            },
        );
        let full = run(
            &q,
            &d,
            &GupConfig {
                features: PruningFeatures::ALL,
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            },
        );
        assert_eq!(baseline.stats.embeddings, full.stats.embeddings);
        assert!(full.stats.recursions <= baseline.stats.recursions);
    }

    #[test]
    fn embedding_limit_stops_the_search() {
        // A query with a single vertex matches every same-label data vertex; cap at 3.
        let q = graph_from_edges(&[0, 0], &[(0, 1)]);
        let d = graph_from_edges(
            &[0; 8],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let cfg = GupConfig {
            limits: SearchLimits {
                max_embeddings: Some(3),
                ..SearchLimits::default()
            },
            ..GupConfig::default()
        };
        let outcome = run(&q, &d, &cfg);
        assert_eq!(outcome.stats.embeddings, 3);
        assert!(outcome.stats.hit_embedding_limit);
        assert!(outcome.stats.terminated_early());
    }

    #[test]
    fn no_embeddings_when_labels_do_not_match() {
        let q = graph_from_edges(&[7, 7], &[(0, 1)]);
        let (_pq, d) = fixtures::paper_example();
        let outcome = run(&q, &d, &GupConfig::default());
        assert_eq!(outcome.stats.embeddings, 0);
        assert_eq!(outcome.stats.recursions, 0);
    }

    #[test]
    fn no_embeddings_when_cycle_cannot_close() {
        // Query: labeled triangle. Data: a labeled path (no cycle at all).
        let q = fixtures::triangle_query();
        let d = graph_from_edges(&[0, 1, 0, 1, 0], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let outcome = run(
            &q,
            &d,
            &GupConfig {
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            },
        );
        assert_eq!(outcome.stats.embeddings, 0);
    }

    #[test]
    fn root_slice_partitions_the_work() {
        let q = fixtures::triangle_query();
        let d = fixtures::square_with_diagonal();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            collect_embeddings: true,
            ..GupConfig::default()
        };
        let gcs = build(&q, &d, &cfg);
        let root_candidates = gcs.space().candidates(0).len();
        let mut total = 0u64;
        for i in 0..root_candidates {
            let mut engine = SearchEngine::new(&gcs, &cfg);
            engine.restrict_root(i, i + 1);
            total += engine.run().stats.embeddings;
        }
        let full = SearchEngine::new(&gcs, &cfg).run();
        assert_eq!(total, full.stats.embeddings);
    }

    #[test]
    fn guard_statistics_are_populated_on_hard_instances() {
        // A query 4-cycle with alternating labels over a bipartite-ish data graph with
        // many near-misses generates deadends, which must produce guards.
        let q = graph_from_edges(&[0, 1, 0, 1], &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let d = {
            // Two "layers" of label 0/1 vertices with a sparse crossing pattern: many
            // paths exist but few 4-cycles close.
            let mut labels = Vec::new();
            let mut edges = Vec::new();
            let layer = 8u32;
            for i in 0..layer {
                labels.push(0);
                labels.push(1);
                let a = 2 * i;
                let b = 2 * i + 1;
                edges.push((a, b));
                edges.push((b, (2 * (i + 1)) % (2 * layer)));
            }
            // One genuine 4-cycle.
            edges.push((0, 3));
            graph_from_edges(&labels, &edges)
        };
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let outcome = run(&q, &d, &cfg);
        assert!(outcome.stats.recursions > 0);
        assert!(outcome.stats.futile_recursions > 0);
        assert!(outcome.stats.nv_guards_recorded > 0);
        // The run must agree with the unguarded baseline.
        let baseline = run(
            &q,
            &d,
            &GupConfig {
                features: PruningFeatures::NONE,
                limits: SearchLimits::UNLIMITED,
                ..GupConfig::default()
            },
        );
        assert_eq!(outcome.stats.embeddings, baseline.stats.embeddings);
    }
}
