//! Mini-chunk work-stealing scheduler (paper §3.6).
//!
//! Each node's vertex set is split into mini-chunks of [`DEFAULT_CHUNK_SIZE`]
//! (256) vertices. Workers first drain their originally assigned chunks and then
//! steal remaining chunks from busy peers; the shared cursor is an atomic, exactly
//! like the `__sync_fetch_and_*` counters the paper describes.
//!
//! Two execution policies are provided:
//!
//! * [`SchedulingPolicy::StaticBlocks`] — no stealing: each worker is statically
//!   handed an equal share of chunks regardless of how much work each chunk holds.
//!   This is the "w/o Stealing" baseline of Figure 10(a).
//! * [`SchedulingPolicy::WorkStealing`] — chunks are claimed one at a time from a
//!   shared cursor, so a worker that finishes early keeps taking work. In the
//!   deterministic simulation this is modelled as greedy
//!   least-loaded-worker-takes-the-next-chunk, which is what chunk-grained stealing
//!   converges to; the threaded executor uses a real atomic cursor.
//!
//! Both the deterministic simulation ([`ChunkScheduler::simulate`]) and the real
//! threaded executor ([`ChunkScheduler::run_workers`]) report per-worker busy
//! work, which the Figure 10(a) and Figure 6 experiments turn into imbalance and
//! scalability numbers.
//!
//! The threaded executor runs on a caller-owned persistent [`WorkerPool`]
//! (parked threads, phase-barrier protocol) and spawns no threads of its own —
//! see [`crate::pool`] for the protocol. The caller decides whether a phase is
//! worth the pool: the engine runs a phase whose estimated work is at most its
//! `INLINE_GRAIN` (Σ(1 + degree) over the vertices the phase reads, from
//! barrier-merged state) on the calling thread, chunks in ascending order on
//! worker 0's state, through [`WorkerPool::run_inline`], which counts it as an
//! inline phase. Only which thread runs a chunk changes; the per-chunk costs
//! the simulated schedule reads do not.

use crate::pool::{SendPtr, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The paper's mini-chunk size: 256 vertices per chunk.
pub const DEFAULT_CHUNK_SIZE: usize = 256;

/// Which scheduling policy to use when distributing chunks over workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// Equal number of chunks per worker, assigned up front (no stealing).
    StaticBlocks,
    /// Chunks claimed dynamically; idle workers steal remaining chunks.
    WorkStealing,
}

/// Result of scheduling one batch of chunks.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleOutcome {
    /// Work units accumulated by each worker.
    pub per_worker_work: Vec<u64>,
    /// Total work across workers.
    pub total_work: u64,
}

impl ScheduleOutcome {
    /// The simulated parallel makespan: the busiest worker's load.
    pub fn makespan(&self) -> u64 {
        self.per_worker_work.iter().copied().max().unwrap_or(0)
    }

    /// Parallel speedup implied by this schedule (total work / makespan).
    pub fn speedup(&self) -> f64 {
        let makespan = self.makespan();
        if makespan == 0 {
            1.0
        } else {
            self.total_work as f64 / makespan as f64
        }
    }

    /// max/mean imbalance across workers (1.0 = perfectly balanced).
    pub fn imbalance(&self) -> f64 {
        if self.per_worker_work.is_empty() || self.total_work == 0 {
            return 1.0;
        }
        let mean = self.total_work as f64 / self.per_worker_work.len() as f64;
        self.makespan() as f64 / mean
    }
}

/// Splits an item range into mini-chunks and distributes them over workers.
#[derive(Debug, Clone)]
pub struct ChunkScheduler {
    num_workers: usize,
    chunk_size: usize,
}

impl ChunkScheduler {
    /// Create a scheduler for `num_workers` workers and `chunk_size`-item chunks.
    pub fn new(num_workers: usize, chunk_size: usize) -> Self {
        assert!(num_workers >= 1, "need at least one worker");
        assert!(chunk_size >= 1, "chunk size must be positive");
        Self {
            num_workers,
            chunk_size,
        }
    }

    /// Number of chunks needed to cover `num_items` items.
    pub fn num_chunks(&self, num_items: usize) -> usize {
        num_items.div_ceil(self.chunk_size)
    }

    /// The half-open item range covered by chunk `chunk` out of `num_items` items.
    pub fn chunk_range(&self, chunk: usize, num_items: usize) -> std::ops::Range<usize> {
        let start = chunk * self.chunk_size;
        let end = ((chunk + 1) * self.chunk_size).min(num_items);
        start..end
    }

    /// Deterministically simulate scheduling `num_items` items whose per-chunk cost
    /// is given by `chunk_cost(chunk_index) -> work units`.
    ///
    /// With [`SchedulingPolicy::WorkStealing`] each chunk goes to the currently
    /// least-loaded worker (ties broken by worker id); with
    /// [`SchedulingPolicy::StaticBlocks`] chunk `i` goes to worker
    /// `i * num_workers / num_chunks` (contiguous equal-count blocks).
    pub fn simulate(
        &self,
        num_items: usize,
        policy: SchedulingPolicy,
        mut chunk_cost: impl FnMut(usize) -> u64,
    ) -> ScheduleOutcome {
        let num_chunks = self.num_chunks(num_items);
        let mut per_worker = vec![0u64; self.num_workers];
        let mut total = 0u64;
        for chunk in 0..num_chunks {
            let cost = chunk_cost(chunk);
            total += cost;
            let worker = match policy {
                SchedulingPolicy::StaticBlocks => {
                    // The loop guarantees num_chunks > 0 here.
                    (chunk * self.num_workers)
                        .checked_div(num_chunks)
                        .unwrap_or(0)
                }
                SchedulingPolicy::WorkStealing => {
                    // Greedy least-loaded assignment approximates chunk-grained
                    // stealing: an idle worker always takes the next chunk.
                    let (idx, _) = per_worker
                        .iter()
                        .enumerate()
                        .min_by_key(|(i, &w)| (w, *i))
                        .expect("at least one worker");
                    idx
                }
            };
            per_worker[worker] += cost;
        }
        ScheduleOutcome {
            per_worker_work: per_worker,
            total_work: total,
        }
    }

    /// The chunk ids statically assigned to `worker` under
    /// [`SchedulingPolicy::StaticBlocks`]: the contiguous block `i` with
    /// `i * num_workers / num_chunks == worker`, matching the deterministic
    /// [`ChunkScheduler::simulate`] assignment exactly.
    fn static_block(&self, worker: usize, num_chunks: usize) -> std::ops::Range<usize> {
        if num_chunks == 0 {
            return 0..0;
        }
        // Smallest i with (i * W) / C == w is ceil(w * C / W).
        let start = (worker * num_chunks).div_ceil(self.num_workers);
        let end = ((worker + 1) * num_chunks).div_ceil(self.num_workers);
        start..end.min(num_chunks)
    }

    /// Run every chunk covering `num_items` items on the persistent worker
    /// `pool`, with one mutable state per worker — the engine hot loop's
    /// executor. One call is one phase of the pool's barrier protocol; no
    /// threads are spawned.
    ///
    /// * [`SchedulingPolicy::WorkStealing`]: workers claim chunks one at a time
    ///   from a shared atomic cursor, so an idle worker keeps taking work (§3.6).
    ///   Which worker processes which chunk is nondeterministic, but every chunk is
    ///   processed exactly once.
    /// * [`SchedulingPolicy::StaticBlocks`]: worker `w` processes the same
    ///   contiguous chunk block the deterministic simulation assigns it.
    ///
    /// `process(state, chunk_index)` returns the work units performed and may
    /// freely mutate its worker-local state (frontier buffers, counters, scratch);
    /// the caller merges the states after this barrier. With a single worker, or
    /// when the caller asks for it with `inline` (a phase too small to pay for
    /// waking the pool), everything runs on the calling thread as worker 0
    /// through [`WorkerPool::run_inline`], chunks in ascending order, so it
    /// visits them in the same order as a sequential loop would. The pool must
    /// have at least `states.len()` threads; extra pool workers idle through the
    /// phase.
    pub fn run_workers<S, F>(
        &self,
        pool: &WorkerPool,
        num_items: usize,
        policy: SchedulingPolicy,
        inline: bool,
        states: &mut [S],
        process: F,
    ) -> ScheduleOutcome
    where
        S: Send,
        F: Fn(&mut S, usize) -> u64 + Sync,
    {
        assert_eq!(states.len(), self.num_workers, "one state per worker");
        assert!(
            pool.threads() >= self.num_workers,
            "pool of {} threads cannot host {} workers",
            pool.threads(),
            self.num_workers
        );
        let num_chunks = self.num_chunks(num_items);
        let mut per_worker = vec![0u64; self.num_workers];

        if inline || self.num_workers == 1 {
            let state = &mut states[0];
            per_worker[0] = pool.run_inline(|| (0..num_chunks).map(|c| process(state, c)).sum());
            return ScheduleOutcome {
                total_work: per_worker[0],
                per_worker_work: per_worker,
            };
        }

        let cursor = AtomicUsize::new(0);
        let num_workers = self.num_workers;
        let states_ptr = SendPtr::new(states);
        let loads_ptr = SendPtr::new(&mut per_worker);
        pool.run(&|worker| {
            if worker >= num_workers {
                return;
            }
            // Safety: every worker id in 0..num_workers occurs exactly once per
            // phase, so each state/load slot has a single writer.
            let state = unsafe { &mut *states_ptr.slot(worker) };
            let mut local = 0u64;
            match policy {
                SchedulingPolicy::WorkStealing => loop {
                    let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                    if chunk >= num_chunks {
                        break;
                    }
                    local += process(state, chunk);
                },
                SchedulingPolicy::StaticBlocks => {
                    for chunk in self.static_block(worker, num_chunks) {
                        local += process(state, chunk);
                    }
                }
            }
            unsafe { *loads_ptr.slot(worker) = local };
        });
        let total = per_worker.iter().sum();
        ScheduleOutcome {
            per_worker_work: per_worker,
            total_work: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_all_items_exactly_once() {
        let s = ChunkScheduler::new(4, 256);
        let n = 1000;
        assert_eq!(s.num_chunks(n), 4);
        let mut covered = vec![false; n];
        for c in 0..s.num_chunks(n) {
            for i in s.chunk_range(c, n) {
                assert!(!covered[i], "item {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.into_iter().all(|c| c));
    }

    #[test]
    fn last_chunk_is_truncated() {
        let s = ChunkScheduler::new(2, 256);
        assert_eq!(s.chunk_range(3, 1000), 768..1000);
    }

    #[test]
    fn stealing_balances_skewed_chunk_costs() {
        let s = ChunkScheduler::new(4, 1);
        // One expensive chunk, many cheap ones.
        let costs = |c: usize| if c == 0 { 100 } else { 1 };
        let static_outcome = s.simulate(16, SchedulingPolicy::StaticBlocks, costs);
        let stealing_outcome = s.simulate(16, SchedulingPolicy::WorkStealing, costs);
        assert_eq!(static_outcome.total_work, stealing_outcome.total_work);
        assert!(stealing_outcome.makespan() <= static_outcome.makespan());
        assert!(stealing_outcome.imbalance() <= static_outcome.imbalance());
    }

    #[test]
    fn uniform_costs_are_balanced_under_both_policies() {
        let s = ChunkScheduler::new(4, 1);
        let uniform = |_c: usize| 10u64;
        let a = s.simulate(16, SchedulingPolicy::StaticBlocks, uniform);
        let b = s.simulate(16, SchedulingPolicy::WorkStealing, uniform);
        assert!((a.imbalance() - 1.0).abs() < 1e-9);
        assert!((b.imbalance() - 1.0).abs() < 1e-9);
        assert!((a.speedup() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_scales_with_worker_count_for_uniform_work() {
        // The Figure 6 shape: more workers, proportionally smaller makespan.
        let costs = |_c: usize| 5u64;
        let mut prev_speedup = 0.0;
        for workers in [1usize, 2, 4, 8] {
            let s = ChunkScheduler::new(workers, 256);
            let outcome = s.simulate(256 * 64, SchedulingPolicy::WorkStealing, costs);
            let speedup = outcome.speedup();
            assert!(speedup > prev_speedup, "speedup should grow with workers");
            assert!((speedup - workers as f64).abs() < 0.2);
            prev_speedup = speedup;
        }
    }

    #[test]
    fn threaded_executor_visits_every_chunk_once() {
        use std::sync::atomic::AtomicU64;
        let s = ChunkScheduler::new(4, 16);
        let pool = WorkerPool::new(4);
        let n = 1000;
        let visited = AtomicU64::new(0);
        let outcome = s.run_workers(
            &pool,
            n,
            SchedulingPolicy::WorkStealing,
            false,
            &mut [(); 4],
            |_, chunk| {
                let len = s.chunk_range(chunk, n).len() as u64;
                visited.fetch_add(len, Ordering::Relaxed);
                len
            },
        );
        assert_eq!(visited.load(Ordering::Relaxed), n as u64);
        assert_eq!(outcome.total_work, n as u64);
        assert_eq!(outcome.per_worker_work.len(), 4);
    }

    #[test]
    fn empty_input_produces_empty_outcome() {
        let s = ChunkScheduler::new(3, 256);
        let outcome = s.simulate(0, SchedulingPolicy::WorkStealing, |_| 1);
        assert_eq!(outcome.total_work, 0);
        assert_eq!(outcome.makespan(), 0);
        assert_eq!(outcome.speedup(), 1.0);
        assert_eq!(outcome.imbalance(), 1.0);
        let pool = WorkerPool::new(3);
        let threaded = s.run_workers(
            &pool,
            0,
            SchedulingPolicy::WorkStealing,
            false,
            &mut [(); 3],
            |_, _| 1,
        );
        assert_eq!(threaded.total_work, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        ChunkScheduler::new(0, 256);
    }

    #[test]
    fn run_workers_gives_each_worker_its_own_state() {
        let s = ChunkScheduler::new(4, 8);
        let pool = WorkerPool::new(4);
        let n = 512;
        let mut states = vec![Vec::<usize>::new(); 4];
        let outcome = s.run_workers(
            &pool,
            n,
            SchedulingPolicy::WorkStealing,
            false,
            &mut states,
            |seen, chunk| {
                seen.push(chunk);
                s.chunk_range(chunk, n).len() as u64
            },
        );
        assert_eq!(outcome.total_work, n as u64);
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..s.num_chunks(n)).collect();
        assert_eq!(all, expected, "every chunk processed exactly once");
    }

    #[test]
    fn run_workers_single_worker_is_inline_and_ordered() {
        let s = ChunkScheduler::new(1, 4);
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let mut states = vec![Vec::<(usize, std::thread::ThreadId)>::new()];
        s.run_workers(
            &pool,
            32,
            SchedulingPolicy::WorkStealing,
            false,
            &mut states,
            |seen, chunk| {
                seen.push((chunk, std::thread::current().id()));
                1
            },
        );
        let order: Vec<usize> = states[0].iter().map(|(c, _)| *c).collect();
        assert_eq!(
            order,
            (0..8).collect::<Vec<_>>(),
            "chunks in ascending order"
        );
        assert!(
            states[0].iter().all(|(_, id)| *id == caller),
            "no thread spawned"
        );
    }

    #[test]
    fn static_blocks_match_the_deterministic_simulation() {
        for (workers, chunk_size, items) in [(4usize, 8usize, 515usize), (3, 16, 1000), (8, 1, 5)] {
            let s = ChunkScheduler::new(workers, chunk_size);
            let pool = WorkerPool::new(workers);
            let num_chunks = s.num_chunks(items);
            // Real static execution: record which worker ran each chunk.
            let assignment = std::sync::Mutex::new(vec![usize::MAX; num_chunks]);
            let mut states: Vec<usize> = (0..workers).collect();
            s.run_workers(
                &pool,
                items,
                SchedulingPolicy::StaticBlocks,
                false,
                &mut states,
                |worker, chunk| {
                    assignment.lock().unwrap()[chunk] = *worker;
                    1
                },
            );
            let got = assignment.into_inner().unwrap();
            for (chunk, &worker) in got.iter().enumerate() {
                let simulated = (chunk * workers) / num_chunks;
                assert_eq!(worker, simulated, "chunk {chunk} of {num_chunks}");
            }
        }
    }

    #[test]
    fn inline_phase_runs_every_chunk_on_the_caller_in_order_and_counts_it() {
        let s = ChunkScheduler::new(4, 4);
        let pool = WorkerPool::new(4);
        let caller = std::thread::current().id();
        let mut states = vec![Vec::<(usize, std::thread::ThreadId)>::new(); 4];
        let outcome = s.run_workers(
            &pool,
            32,
            SchedulingPolicy::WorkStealing,
            true,
            &mut states,
            |seen, chunk| {
                seen.push((chunk, std::thread::current().id()));
                1
            },
        );
        let order: Vec<usize> = states[0].iter().map(|(c, _)| *c).collect();
        assert_eq!(
            order,
            (0..8).collect::<Vec<_>>(),
            "chunks in ascending order"
        );
        assert!(
            states[0].iter().all(|(_, id)| *id == caller),
            "all on the caller"
        );
        assert!(states[1..].iter().all(Vec::is_empty), "no other worker ran");
        assert_eq!(outcome.per_worker_work, vec![8, 0, 0, 0]);
        let activity = pool.activity();
        assert_eq!((activity.phases, activity.inline_phases), (1, 1));
        // A phase on the pool counts as a phase but not as an inline one.
        s.run_workers(
            &pool,
            32,
            SchedulingPolicy::WorkStealing,
            false,
            &mut states,
            |_, _| 1,
        );
        let activity = pool.activity();
        assert_eq!((activity.phases, activity.inline_phases), (2, 1));
    }
}
