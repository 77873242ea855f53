//! Work-stealing parallel search (§3.5.2 of the paper).
//!
//! The search tree is split **recursively**: every worker owns a deque of
//! [`SearchTask`]s (a replayable prefix plus an unexplored candidate range — see
//! `search.rs`). The root candidate range is seeded as a few chunks per worker; from
//! there, balancing is pull-based. An idle worker first drains its own deque from the
//! back (deepest frame, best cache locality), then steals from the *front* of the
//! busiest peer's deque — the front holds the shallowest frame, i.e. the largest
//! subtree. When every deque is empty, idle workers advertise hunger through a shared
//! counter; running workers notice it inside the search recursion and split their
//! shallowest active frame, donating the unexplored half of its sibling range as a
//! fresh task (`SearchEngine::maybe_donate`). Donation self-throttles: frames are
//! only split while hungry workers outnumber queued tasks.
//!
//! As in the paper, the GCS and the reservation guards are shared read-only across
//! threads, while nogood guards are **thread-local**: each worker's single long-lived
//! `SearchEngine` keeps its `VertexGuardStore`/`EdgeGuardStore` across *every* task it
//! executes (§4.3.4 reports that not sharing them across threads has no observable
//! impact on pruning). Persisting the engine also means the per-search scratch state
//! (owner array, candidate stacks, guard stores) is allocated once per worker instead
//! of once per claimed subtree, which the old root-splitting driver paid on every
//! root candidate.
//!
//! Global termination limits are shared: the embedding budget is one atomic counter
//! reserved with check-and-increment (no worker can overshoot the limit), and the
//! time budget is the configuration's one absolute deadline, which every worker
//! samples as given — engine reuse across tasks cannot restart the clock.
//!
//! Lock discipline: this module's locks rank `deques ≺ sink ≺ slot ≺ cache` in
//! the `crates/core` manifest (`gup_analysis::rules::LOCK_MANIFESTS`), and
//! gup-lint's scope-aware rules enforce that nesting order — plus
//! no-guard-across-blocking — in tier-1.

use crate::config::GupConfig;
use crate::gcs::Gcs;
use crate::search::{SearchEngine, SearchTask, SplitHandle};
use crate::stats::SearchStats;
use gup_graph::sink::{min_limit, CollectAll, CountOnly, EmbeddingSink, SinkControl};
use gup_graph::VertexId;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared coordination state of one parallel run. The `hungry` and `queued`
/// counters are `Arc`ed because every worker's [`SplitHandle`] aliases them.
struct Coordinator {
    /// One task deque per worker. Owners push/pop at the back; thieves steal from
    /// the front (the shallowest, largest task).
    deques: Vec<Arc<Mutex<VecDeque<SearchTask>>>>,
    /// Number of tasks sitting in deques, not yet claimed.
    queued: Arc<AtomicUsize>,
    /// Number of workers currently spinning for work.
    hungry: Arc<AtomicUsize>,
    /// Number of workers currently executing a task. Checked together with `queued`
    /// for termination: no queued task + no running task = no future donation.
    in_flight: AtomicUsize,
    /// Set when a worker hits a global limit; makes everyone stop claiming work.
    abort: AtomicBool,
}

impl Coordinator {
    fn new(workers: usize) -> Self {
        Coordinator {
            deques: (0..workers)
                .map(|_| Arc::new(Mutex::new(VecDeque::new())))
                .collect(),
            queued: Arc::new(AtomicUsize::new(0)),
            hungry: Arc::new(AtomicUsize::new(0)),
            in_flight: AtomicUsize::new(0),
            abort: AtomicBool::new(false),
        }
    }

    /// Claims a task for worker `me`: own deque from the back, else steal the front
    /// of the busiest peer. Returns the task and whether it was stolen.
    fn claim(&self, me: usize) -> Option<(SearchTask, bool)> {
        // `queued` is incremented before a task is pushed and decremented after one
        // is popped, so 0 here proves every deque is empty — skip all the locking
        // that idle spins would otherwise inflict on running donors.
        if self.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        if let Some(task) = self.deques[me].lock().pop_back() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((task, false));
        }
        // Probe peers from the busiest downwards so the steal grabs the shallowest
        // frame of the worker with the most spare work. Lengths are snapshotted with
        // one lock acquisition per peer; the snapshot can go stale, so every peer is
        // still probed until a task is found.
        let mut order: Vec<(usize, usize)> = (0..self.deques.len())
            .filter(|&i| i != me)
            .map(|i| (self.deques[i].lock().len(), i))
            .collect();
        order.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
        for (_, peer) in order {
            if let Some(task) = self.deques[peer].lock().pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((task, true));
            }
        }
        None
    }

    fn seed(&self, tasks: Vec<SearchTask>) {
        self.queued.fetch_add(tasks.len(), Ordering::SeqCst);
        for (i, task) in tasks.into_iter().enumerate() {
            self.deques[i % self.deques.len()].lock().push_back(task);
        }
    }
}

/// Runs a guarded search over `gcs` on `threads` worker threads, streaming every
/// found embedding into `sink` (over the *matching-order* vertex ids; use
/// `GupMatcher::run_parallel_with_sink` for original ids). Exact: reports
/// bit-identical embedding counts to the sequential engine (the golden fixtures and
/// the determinism suite pin this); with `threads <= 1` it *is* the sequential run.
///
/// The sink's [`EmbeddingSink::capacity`] is folded into the embedding limit, so the
/// shared check-and-increment reservation stops all workers once the sink can take
/// no more — the one place where the limit lives, identical to the sequential path.
/// Workers report into per-worker buffers (none at all when the sink does not want
/// embedding contents); the buffers are drained into `sink` in worker-index order
/// after the run, so for a fixed schedule the merge is deterministic, and without an
/// embedding limit the delivered multiset of embeddings is schedule-independent.
///
/// A sink that declares [`EmbeddingSink::may_stop`] (it can return
/// [`SinkControl::Stop`] at any report, before any capacity the reservation could
/// enforce is exhausted) is run on the sequential engine instead: honoring an
/// arbitrary live stop requires serializing every report through the caller's sink
/// anyway, and the sequential path does that with the exact Stop-is-immediate,
/// nothing-buffered contract.
pub fn run_parallel_with_sink<const W: usize>(
    gcs: &Gcs<W>,
    config: &GupConfig,
    threads: usize,
    sink: &mut dyn EmbeddingSink,
) -> SearchStats {
    let user_limit = config.limits.max_embeddings;
    let capacity = sink.capacity();
    if gcs.is_empty() {
        let mut stats = SearchStats::default();
        stats.settle_cap(user_limit, capacity);
        return stats;
    }
    // Unlike the old root-splitting driver, a single root candidate is *not* a
    // reason to degrade to one thread: recursive frame splitting parallelizes the
    // subtree below it.
    if threads <= 1 || sink.may_stop() {
        return SearchEngine::new(gcs, config).run_with_sink(sink);
    }
    let mut config = config.clone();
    config.limits.max_embeddings = min_limit(user_limit, capacity);
    let root_candidates = gcs.space().candidates(0).len();
    let workers = threads;
    let buffer_embeddings = sink.wants_embeddings();

    let coordinator = Coordinator::new(workers);
    coordinator.seed(seed_tasks(root_candidates, workers));
    // The shared counter exists to enforce the global embedding limit; without a
    // limit every worker counts purely locally — one atomic RMW per embedding on a
    // single cache line would otherwise dominate enumeration-heavy runs.
    let shared_embeddings = config
        .limits
        .max_embeddings
        .map(|_| Arc::new(AtomicU64::new(0)));
    // One result slot per worker (not a shared accumulator), so the merge below can
    // run in worker-index order regardless of finish order.
    let results: Vec<Mutex<Option<WorkerResult>>> =
        (0..workers).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for (me, slot) in results.iter().enumerate() {
            let coordinator = &coordinator;
            let shared = shared_embeddings.clone();
            let config = config.clone();
            scope.spawn(move || {
                let result = worker_loop(me, gcs, &config, coordinator, shared, buffer_embeddings);
                *slot.lock() = Some(result);
            });
        }
    });

    let mut merged = SearchStats::default();
    let mut buffers: Vec<Vec<Vec<VertexId>>> = Vec::with_capacity(workers);
    for slot in results {
        // gup-lint: allow(panic_freedom) the scope above joins every worker, and each stores its result as its last act
        let result = slot.into_inner().expect("worker stored its result");
        merged.merge(&result.stats);
        buffers.push(result.embeddings);
    }
    if buffer_embeddings {
        let mut open = true;
        for embedding in buffers.iter().flatten() {
            if open && sink.report(embedding) == SinkControl::Stop {
                // With the sink capacity folded into the reservation this only
                // happens on the very last delivery (or for a callback sink that
                // decided it is done); nothing further is delivered.
                merged.stopped_by_sink = true;
                open = false;
            }
        }
    } else {
        // Counting sinks never see contents — the workers counted locally and
        // buffered nothing — but the caller's sink must still observe every
        // reserved embedding. One bulk call keeps the merge O(workers).
        if sink.report_count(merged.embeddings) == SinkControl::Stop {
            merged.stopped_by_sink = true;
        }
    }
    merged.settle_cap(user_limit, capacity);
    merged
}

/// What one worker hands back: its engine's counters plus the embeddings it
/// buffered (empty when the caller's sink does not want embedding contents).
struct WorkerResult {
    stats: SearchStats,
    embeddings: Vec<Vec<VertexId>>,
}

/// Number of root-level chunks seeded per worker before the search starts.
const SEED_CHUNKS_PER_WORKER: usize = 4;

/// Splits the root candidate range into a few contiguous chunks per worker. Work
/// stealing rebalances from there, so the exact chunking only affects startup.
fn seed_tasks(root_candidates: usize, workers: usize) -> Vec<SearchTask> {
    let chunks = root_candidates.min(workers * SEED_CHUNKS_PER_WORKER);
    let chunk = root_candidates.div_ceil(chunks);
    (0..chunks)
        .map(|i| {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(root_candidates);
            SearchTask {
                prefix: Vec::new(),
                // At the root level the local candidate list is the identity over
                // candidate indices, so the chunk positions are the indices.
                candidates: (lo as u32..hi as u32).collect(),
            }
        })
        .filter(|t| !t.candidates.is_empty())
        .collect()
}

/// One worker: a long-lived engine (persistent nogood guards) executing tasks until
/// the run is globally out of work or a limit fired. Reserved embeddings go into a
/// worker-local buffer sink (or are merely counted when `buffer_embeddings` is
/// false); the driver merges the buffers deterministically afterwards.
fn worker_loop<const W: usize>(
    me: usize,
    gcs: &Gcs<W>,
    config: &GupConfig,
    coordinator: &Coordinator,
    shared_embeddings: Option<Arc<AtomicU64>>,
    buffer_embeddings: bool,
) -> WorkerResult {
    let mut engine = SearchEngine::new(gcs, config);
    if let Some(shared) = shared_embeddings {
        engine.share_embedding_counter(shared);
    }
    let mut buffer = CollectAll::new();
    let mut counter = CountOnly::new();
    engine.enable_splitting(SplitHandle {
        hungry: Arc::clone(&coordinator.hungry),
        queued: Arc::clone(&coordinator.queued),
        sink: Arc::clone(&coordinator.deques[me]),
    });

    let mut idle_spins = 0u32;
    let mut confirmed_idle = false;
    loop {
        if coordinator.abort.load(Ordering::SeqCst) {
            break;
        }
        // `in_flight` is raised *before* the claim so the emptiness test elsewhere
        // can never observe "no queued task, nobody running" while a task is in the
        // hand-off window between deque and execution.
        coordinator.in_flight.fetch_add(1, Ordering::SeqCst);
        match coordinator.claim(me) {
            Some((task, stolen)) => {
                idle_spins = 0;
                confirmed_idle = false;
                if stolen {
                    engine.record_steal();
                }
                let sink: &mut dyn EmbeddingSink = if buffer_embeddings {
                    &mut buffer
                } else {
                    &mut counter
                };
                engine.run_task_with_sink(task, sink);
                coordinator.in_flight.fetch_sub(1, Ordering::SeqCst);
                if engine.stats().terminated_early() {
                    coordinator.abort.store(true, Ordering::SeqCst);
                }
            }
            None => {
                coordinator.in_flight.fetch_sub(1, Ordering::SeqCst);
                if coordinator.queued.load(Ordering::SeqCst) == 0
                    && coordinator.in_flight.load(Ordering::SeqCst) == 0
                {
                    // A donor may slip a task in between the two loads above
                    // (donate, finish, drop in_flight to 0). One confirming claim
                    // pass closes that window before the worker retires.
                    if confirmed_idle {
                        break;
                    }
                    confirmed_idle = true;
                    continue;
                }
                confirmed_idle = false;
                // Advertise hunger so running workers donate a frame, then back off
                // exponentially: spinning hard would steal cycles from the workers
                // actually searching when cores are oversubscribed.
                coordinator.hungry.fetch_add(1, Ordering::SeqCst);
                if idle_spins < 4 {
                    std::thread::yield_now();
                } else {
                    let exp = (idle_spins - 4).min(5);
                    std::thread::sleep(Duration::from_micros(10 << exp));
                }
                idle_spins = idle_spins.saturating_add(1);
                coordinator.hungry.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    WorkerResult {
        stats: engine.stats().clone(),
        embeddings: buffer.into_embeddings(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GupConfig, SearchLimits};
    use gup_graph::fixtures;
    use gup_graph::generate::{power_law_graph, PowerLawConfig};

    fn build(query: &gup_graph::Graph, data: gup_graph::Graph, cfg: &GupConfig) -> Gcs {
        Gcs::<1>::build_prepared(query, &gup_graph::PreparedData::new(data), cfg).unwrap()
    }

    #[test]
    fn parallel_counts_match_sequential() {
        let data = power_law_graph(&PowerLawConfig {
            vertices: 300,
            edges_per_vertex: 3,
            labels: 4,
            seed: 5,
            ..Default::default()
        });
        let query = fixtures::triangle_query();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let gcs = build(&query, data, &cfg);
        let sequential = SearchEngine::new(&gcs, &cfg).run_with_sink(&mut CountOnly::new());
        for threads in [2, 4, 8] {
            let parallel = run_parallel_with_sink(&gcs, &cfg, threads, &mut CountOnly::new());
            assert_eq!(parallel.embeddings, sequential.embeddings);
            assert!(parallel.tasks_executed >= 1);
        }
    }

    #[test]
    fn parallel_collects_all_embeddings() {
        let query = fixtures::triangle_query();
        let data = fixtures::square_with_diagonal();
        let cfg = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let gcs = build(&query, data, &cfg);
        let mut sink = CollectAll::new();
        let stats = run_parallel_with_sink(&gcs, &cfg, 3, &mut sink);
        assert_eq!(stats.embeddings, 4);
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn parallel_respects_embedding_limit_exactly() {
        let data = power_law_graph(&PowerLawConfig {
            vertices: 200,
            edges_per_vertex: 4,
            labels: 2,
            seed: 11,
            ..Default::default()
        });
        let query = fixtures::path(3, 0);
        let cfg = GupConfig {
            limits: SearchLimits {
                max_embeddings: Some(50),
                ..SearchLimits::default()
            },
            ..GupConfig::default()
        };
        let gcs = build(&query, data, &cfg);
        for _ in 0..8 {
            let mut sink = CollectAll::new();
            let stats = run_parallel_with_sink(&gcs, &cfg, 4, &mut sink);
            // Check-and-reserve: the count can never overshoot, and the collected
            // set matches the count (no post-hoc truncation).
            assert!(stats.embeddings <= 50);
            assert_eq!(sink.len() as u64, stats.embeddings);
            assert!(stats.hit_embedding_limit || stats.embeddings < 50);
        }
    }

    #[test]
    fn empty_space_short_circuits() {
        let (_q, d) = fixtures::paper_example();
        let q = gup_graph::builder::graph_from_edges(&[9, 9], &[(0, 1)]);
        let cfg = GupConfig::default();
        let gcs = build(&q, d, &cfg);
        let stats = run_parallel_with_sink(&gcs, &cfg, 4, &mut CountOnly::new());
        assert_eq!(stats.embeddings, 0);
        assert_eq!(stats.recursions, 0);
    }

    #[test]
    fn expired_deadline_is_not_restarted_per_task() {
        let data = power_law_graph(&PowerLawConfig {
            vertices: 400,
            edges_per_vertex: 6,
            labels: 1,
            seed: 3,
            ..Default::default()
        });
        let query = fixtures::path(4, 0);
        let unlimited = GupConfig {
            limits: SearchLimits::UNLIMITED,
            ..GupConfig::default()
        };
        let gcs = build(&query, data, &unlimited);
        let full = SearchEngine::new(&gcs, &unlimited).run_with_sink(&mut CountOnly::new());
        // Precondition for the deadline sampling (every 1024 recursions) to trigger.
        assert!(
            full.recursions > 20_000,
            "fixture too small for the deadline test: {} recursions",
            full.recursions
        );
        let cfg = GupConfig {
            limits: SearchLimits {
                deadline: Some(std::time::Instant::now()),
                ..SearchLimits::UNLIMITED
            },
            ..GupConfig::default()
        };
        let stats = run_parallel_with_sink(&gcs, &cfg, 4, &mut CountOnly::new());
        // Every worker samples the one already-expired deadline; per-task engine
        // reuse must not restart the clock, so the run aborts long before
        // exhausting the full search.
        assert!(stats.hit_time_limit);
        assert!(stats.recursions < full.recursions);
    }
}
