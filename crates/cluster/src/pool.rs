//! Persistent worker pool with a phase-barrier protocol.
//!
//! [`WorkerPool`] is **one long-lived pool spanning the whole simulated
//! cluster** (`total_workers` workers): threads are spawned once, park on a
//! condvar between phases, and every phase is a publish → execute → barrier
//! round trip on the same threads, exactly like the pthread pools of
//! Gemini-class engines. Spawning fresh OS threads per node-phase through
//! `std::thread::scope` would cost ~10µs of spawn/join latency per phase,
//! paid `iterations × phases × nodes` times per run.
//!
//! # Phase-barrier protocol
//!
//! A phase is one call to [`WorkerPool::run`] with a `Fn(worker_id)` task:
//!
//! 1. **Publish.** The caller bumps the job epoch under the pool mutex, stores
//!    a type-erased pointer to the task, and notifies all parked workers.
//! 2. **Execute.** Every pool thread wakes, observes the fresh epoch, calls
//!    `task(worker_id)` *outside* the lock, and decrements the pending count.
//!    The calling thread participates as worker 0, so a pool of `t` workers
//!    spawns only `t - 1` OS threads.
//! 3. **Barrier.** The caller blocks on a condvar until the pending count hits
//!    zero, then clears the task slot. Only after that barrier does `run`
//!    return — which is what makes the lifetime erasure below sound: the task
//!    (and everything it borrows) provably outlives every worker's use of it.
//!
//! Workers never spin: parking is condvar-based, so the protocol also makes
//! progress on a single hardware thread (the CI container), just serialised.
//!
//! # Inline phases
//!
//! A phase too small to pay for the round trip runs on the calling thread
//! alone through [`WorkerPool::run_inline`]: no publish, no wake-up, no
//! barrier. The engine decides by a work grain (`slfe_core`'s
//! `INLINE_GRAIN`) and hands the decision to
//! [`crate::ChunkScheduler::run_workers`]; every phase of a one-thread pool
//! runs this way too. An inline phase
//! counts in [`PoolActivity::phases`] like any other and also in
//! [`PoolActivity::inline_phases`], so `phases - inline_phases` is the
//! number of round trips the pool made.
//!
//! The pool counts its spawned threads ([`WorkerPool::threads_spawned`]); the
//! engine folds that into `slfe_metrics::Counters::threads_spawned` so a
//! regression test can pin that a multi-iteration run never exceeds
//! `total_workers` spawns — i.e. that the pool is actually reused, not
//! re-created per phase.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Process-wide count of OS threads ever spawned by any [`WorkerPool`].
static PROCESS_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Total OS threads spawned by **all** worker pools in this process so far.
///
/// This is the regression tripwire with teeth: a change that sneaks a
/// transient pool into a hot path (a per-phase or per-batch `WorkerPool::new`)
/// inflates this counter even though every individual pool still reports a
/// constant [`WorkerPool::threads_spawned`]. `tests/thread_budget.rs` pins an
/// engine's whole lifecycle (build + multi-iteration runs + warm restarts) to
/// fewer than `total_workers` process-wide spawns. (Raw `std::thread` use would
/// still evade it — nothing in the workspace's hot paths spawns raw threads.)
pub fn process_threads_spawned() -> u64 {
    PROCESS_SPAWNS.load(Ordering::Relaxed)
}

/// A raw pointer to a slice of per-worker slots that may cross the pool's
/// thread boundary — the unsafe escape hatch `ChunkScheduler::run_workers`
/// uses to hand each worker of a [`WorkerPool::run`] phase its own slot.
///
/// # Safety contract
/// Callers must guarantee that each slot index is accessed by at most one
/// worker during a phase (the usual pattern: slot `i` belongs to worker `i`),
/// and that the backing slice outlives the phase — which [`WorkerPool::run`]'s
/// barrier provides for stack-allocated slices.
pub(crate) struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wrap a slice whose slots will each be written by a single worker.
    pub fn new(slice: &mut [T]) -> Self {
        Self(slice.as_mut_ptr())
    }

    /// Raw pointer to slot `i`. A method (not field access) so closures
    /// capture the whole `SendPtr` — capturing the raw field would lose the
    /// `Sync` wrapper under disjoint closure capture.
    ///
    /// # Safety
    /// `i` must be in bounds and the slot must have no concurrent accessor.
    pub unsafe fn slot(&self, i: usize) -> *mut T {
        self.0.add(i)
    }
}

/// A type-erased pointer to the currently published task.
///
/// The pointee is a `Fn(usize) + Sync` borrowed from the caller's stack; the
/// barrier in [`WorkerPool::run`] guarantees it outlives every use.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync + 'static));

// Safety: the pointer is only dereferenced by pool workers between publish and
// barrier, while the caller is blocked inside `run` keeping the pointee alive.
unsafe impl Send for TaskRef {}

/// Coordination state shared between the caller and the pool threads.
struct PoolState {
    /// Bumped once per published job; workers run each epoch exactly once.
    epoch: u64,
    /// The published task, present between publish and barrier.
    task: Option<TaskRef>,
    /// Pool threads that have not yet finished the current epoch.
    pending: usize,
    /// Pool threads whose task call panicked this epoch (the panic is caught
    /// so the barrier still completes; the publisher re-raises after it).
    panicked: usize,
    /// Set once on drop; workers exit their loop.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Caller → workers: a new job was published (or shutdown was requested).
    job_ready: Condvar,
    /// Workers → caller: the last worker of the epoch finished.
    job_done: Condvar,
    /// Per-worker nanoseconds spent inside task calls, indexed by worker id.
    /// Plain monotonic accounting — two clock reads per worker per phase —
    /// kept outside `Counters` so it never affects engine determinism.
    busy_ns: Vec<AtomicU64>,
}

/// Measured busy/idle/barrier-wait accounting for one [`WorkerPool`], so the
/// *measured* parallelism of a run can be compared against the cost model's
/// `schedule_parallelism`.
///
/// All times are wall nanoseconds. Busy time is time spent inside task
/// closures; barrier-wait time is the publisher's time blocked on the phase
/// barrier; lifetime is the pool's age when the snapshot was taken. Fractions
/// are per-worker busy time over lifetime, so `1 - busy` includes both
/// genuine idle parking and (on an oversubscribed host) preemption.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolActivity {
    /// Nanoseconds each worker spent executing tasks, indexed by worker id.
    pub per_worker_busy_nanos: Vec<u64>,
    /// Nanoseconds the publisher spent blocked waiting for phase barriers.
    pub barrier_wait_nanos: u64,
    /// Number of completed phases, inline ones included.
    pub phases: u64,
    /// Phases that ran on the calling thread without waking the pool
    /// ([`WorkerPool::run_inline`]); `phases - inline_phases` are the
    /// publish → execute → barrier round trips.
    pub inline_phases: u64,
    /// Pool age in nanoseconds at snapshot time.
    pub lifetime_nanos: u64,
}

impl PoolActivity {
    /// Per-worker busy fraction of the pool's lifetime, in `[0, 1]`.
    pub fn busy_fractions(&self) -> Vec<f64> {
        let life = (self.lifetime_nanos.max(1)) as f64;
        self.per_worker_busy_nanos
            .iter()
            .map(|&b| (b as f64 / life).min(1.0))
            .collect()
    }

    /// Per-worker idle fraction (`1 - busy`).
    pub fn idle_fractions(&self) -> Vec<f64> {
        self.busy_fractions().iter().map(|b| 1.0 - b).collect()
    }

    /// Publisher barrier-wait fraction of the pool's lifetime, in `[0, 1]`.
    pub fn barrier_wait_fraction(&self) -> f64 {
        let life = (self.lifetime_nanos.max(1)) as f64;
        (self.barrier_wait_nanos as f64 / life).min(1.0)
    }

    /// Average number of simultaneously busy workers over the pool's lifetime
    /// — the measured counterpart of the cost model's `schedule_parallelism`.
    pub fn average_concurrency(&self) -> f64 {
        let life = (self.lifetime_nanos.max(1)) as f64;
        self.per_worker_busy_nanos.iter().sum::<u64>() as f64 / life
    }
}

/// A persistent pool of parked worker threads executing phase jobs.
///
/// The pool is created once per engine (sized `total_workers`) and shared —
/// via `Arc` — by every phase of every run, by the RRG preprocessing BFS and
/// by the delta server's warm restarts. Worker 0 is the calling thread.
pub struct WorkerPool {
    shared: std::sync::Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
    /// Serialises whole phases: the epoch/pending protocol (and the lifetime
    /// erasure it guards) assumes a single publisher at a time, so concurrent
    /// [`WorkerPool::run`] calls queue here instead of corrupting each other.
    publisher: Mutex<()>,
    /// Publisher nanoseconds blocked on phase barriers.
    barrier_ns: AtomicU64,
    /// Completed phases.
    phase_count: AtomicU64,
    /// Completed phases that ran on the calling thread.
    inline_count: AtomicU64,
    /// Pool construction time, the origin for [`PoolActivity::lifetime_nanos`].
    created: Instant,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("threads_spawned", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Create a pool of `threads` workers. The calling thread doubles as
    /// worker 0, so only `threads - 1` OS threads are spawned — eagerly, so
    /// that no run ever observes a mid-run spawn.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "pool needs at least one worker");
        let shared = std::sync::Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                task: None,
                pending: 0,
                panicked: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            busy_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles: Vec<std::thread::JoinHandle<()>> = (1..threads)
            .map(|worker| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("slfe-worker-{worker}"))
                    .spawn(move || Self::worker_loop(&shared, worker))
                    .expect("spawn pool worker")
            })
            .collect();
        PROCESS_SPAWNS.fetch_add(handles.len() as u64, Ordering::Relaxed);
        Self {
            shared,
            handles,
            threads,
            publisher: Mutex::new(()),
            barrier_ns: AtomicU64::new(0),
            phase_count: AtomicU64::new(0),
            inline_count: AtomicU64::new(0),
            created: Instant::now(),
        }
    }

    /// Snapshot measured busy/idle/barrier-wait accounting since construction.
    pub fn activity(&self) -> PoolActivity {
        PoolActivity {
            per_worker_busy_nanos: self
                .shared
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            barrier_wait_nanos: self.barrier_ns.load(Ordering::Relaxed),
            phases: self.phase_count.load(Ordering::Relaxed),
            inline_phases: self.inline_count.load(Ordering::Relaxed),
            lifetime_nanos: self.created.elapsed().as_nanos() as u64,
        }
    }

    /// Number of workers (including the calling thread as worker 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// OS threads this pool spawned over its lifetime — always
    /// `threads() - 1`, and constant after construction. The regression tests
    /// pin `threads_spawned() < total_workers` across multi-iteration runs to
    /// prove phases reuse the pool instead of re-spawning.
    pub fn threads_spawned(&self) -> u64 {
        self.handles.len() as u64
    }

    /// Execute one phase: `task(worker_id)` runs once on every worker
    /// (`0..threads()`), concurrently, and `run` returns only after all of
    /// them finished (the phase barrier). With a single-worker pool the task
    /// runs on the calling thread through [`WorkerPool::run_inline`].
    ///
    /// `task` may be called with any worker id in `0..threads()`; workers that
    /// find no work for their id must simply return. Concurrent `run` calls
    /// from different threads serialise on an internal publisher lock;
    /// reentrant use (calling `run` from inside a task) deadlocks on it and is
    /// not supported.
    ///
    /// # Panics
    /// Panics if the task panics on any worker. The barrier still completes
    /// first — worker-side panics are caught so `pending` always drains and
    /// the pool stays usable — which is also what keeps the lifetime erasure
    /// sound on the unwind path: no worker can still be running the task once
    /// the caller's frame unwinds.
    pub fn run<'task>(&self, task: &'task (dyn Fn(usize) + Sync + 'task)) {
        if self.threads == 1 {
            return self.run_inline(|| task(0));
        }
        // One publisher at a time; recover from poisoning (a previous caller
        // re-raising a task panic) — the barrier left the state consistent.
        let _phase = self
            .publisher
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Erase the task's lifetime: the pointee lives on this stack frame and
        // the barrier below keeps this frame alive past every worker's use.
        let erased = TaskRef(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'task),
                *const (dyn Fn(usize) + Sync + 'static),
            >(task)
        });
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            debug_assert!(state.task.is_none(), "reentrant WorkerPool::run");
            state.epoch += 1;
            state.task = Some(erased);
            state.pending = self.threads - 1;
            state.panicked = 0;
            self.shared.job_ready.notify_all();
        }
        // The caller is worker 0 — no thread sits idle waiting for the phase.
        // Catch a local panic so the barrier below always runs before this
        // frame (which workers still borrow through `erased`) can unwind.
        let began = Instant::now();
        let local = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(0)));
        self.shared.busy_ns[0].fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let barrier_began = Instant::now();
        let worker_panics = {
            let mut state = self.shared.state.lock().expect("pool mutex");
            while state.pending > 0 {
                state = self.shared.job_done.wait(state).expect("pool mutex");
            }
            state.task = None;
            state.panicked
        };
        self.barrier_ns
            .fetch_add(barrier_began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.phase_count.fetch_add(1, Ordering::Relaxed);
        if let Err(payload) = local {
            std::panic::resume_unwind(payload);
        }
        assert!(
            worker_panics == 0,
            "pool task panicked on {worker_panics} worker(s)"
        );
    }

    /// Execute one phase on the calling thread alone, as worker 0, without
    /// waking the pool: for a phase whose work is too small to pay for the
    /// publish and the barrier, and for every phase of a one-thread pool.
    /// It counts as a phase in [`PoolActivity::phases`] and in
    /// [`PoolActivity::inline_phases`], and its time as worker 0's busy
    /// time.
    pub fn run_inline<R>(&self, task: impl FnOnce() -> R) -> R {
        let began = Instant::now();
        let out = task();
        self.shared.busy_ns[0].fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.phase_count.fetch_add(1, Ordering::Relaxed);
        self.inline_count.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn worker_loop(shared: &PoolShared, worker: usize) {
        let mut seen_epoch = 0u64;
        loop {
            let task = {
                let mut state = shared.state.lock().expect("pool mutex");
                loop {
                    if state.shutdown {
                        return;
                    }
                    if state.epoch != seen_epoch {
                        seen_epoch = state.epoch;
                        break state.task.expect("published epoch carries a task");
                    }
                    state = shared.job_ready.wait(state).expect("pool mutex");
                }
            };
            // Safety: the publisher blocks in `run` until `pending` hits zero,
            // so the pointee outlives this call. A panicking task is caught so
            // the barrier always completes (and no lock is held on unwind);
            // the publisher re-raises it after the barrier.
            let began = Instant::now();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| unsafe {
                (*task.0)(worker)
            }));
            shared.busy_ns[worker].fetch_add(began.elapsed().as_nanos() as u64, Ordering::Relaxed);
            let mut state = shared.state.lock().expect("pool mutex");
            if outcome.is_err() {
                state.panicked += 1;
            }
            state.pending -= 1;
            if state.pending == 0 {
                shared.job_done.notify_all();
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool mutex");
            state.shutdown = true;
            self.shared.job_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("pool worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn every_worker_runs_each_phase_exactly_once() {
        let pool = WorkerPool::new(4);
        let per_worker = [const { AtomicUsize::new(0) }; 4];
        for _ in 0..50 {
            pool.run(&|w| {
                per_worker[w].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (w, count) in per_worker.iter().enumerate() {
            assert_eq!(count.load(Ordering::Relaxed), 50, "worker {w}");
        }
    }

    #[test]
    fn phase_barrier_orders_phases() {
        // Phase n+1 must observe every write of phase n: sum a counter in two
        // strictly ordered rounds and check the halfway snapshot.
        let pool = WorkerPool::new(3);
        let counter = AtomicU64::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        let after_first = counter.load(Ordering::Relaxed);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(after_first, 3);
        assert_eq!(counter.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn borrows_caller_stack_data_safely() {
        let pool = WorkerPool::new(4);
        let data: Vec<u64> = (0..1000).collect();
        let sums = [const { AtomicU64::new(0) }; 4];
        pool.run(&|w| {
            let chunk = data.len() / 4;
            let share: u64 = data[w * chunk..(w + 1) * chunk].iter().sum();
            sums[w].store(share, Ordering::Relaxed);
        });
        let total: u64 = sums.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 1000 * 999 / 2);
    }

    #[test]
    fn spawn_count_is_fixed_at_construction() {
        let pool = WorkerPool::new(5);
        assert_eq!(pool.threads(), 5);
        assert_eq!(pool.threads_spawned(), 4);
        for _ in 0..20 {
            pool.run(&|_| {});
        }
        assert_eq!(pool.threads_spawned(), 4, "phases must not spawn threads");
    }

    #[test]
    fn single_worker_pool_runs_inline_without_threads() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads_spawned(), 0);
        let caller = std::thread::current().id();
        let mut seen = None;
        // `run` takes Fn, so record through a cell.
        let cell = std::sync::Mutex::new(&mut seen);
        pool.run(&|w| {
            **cell.lock().unwrap() = Some((w, std::thread::current().id()));
        });
        assert_eq!(seen, Some((0, caller)));
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        pool.run(&|_| {});
        drop(pool); // must not hang or panic
    }

    #[test]
    fn worker_panic_completes_the_barrier_and_propagates() {
        let pool = WorkerPool::new(3);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 2 {
                    panic!("task boom on worker {w}");
                }
            });
        }));
        assert!(result.is_err(), "a worker panic must surface to the caller");
        // The barrier completed and no lock is poisoned: the pool still works.
        let counter = AtomicU64::new(0);
        pool.run(&|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn caller_panic_waits_for_workers_then_propagates() {
        let pool = WorkerPool::new(3);
        let others = AtomicU64::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panic!("caller boom");
                }
                others.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err());
        // Both pool workers finished the phase before the unwind escaped `run`
        // — the soundness condition of the borrowed-task lifetime erasure.
        assert_eq!(others.load(Ordering::Relaxed), 2);
        pool.run(&|_| {});
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        WorkerPool::new(0);
    }

    #[test]
    fn activity_accounts_busy_time_per_worker_and_phases() {
        let pool = WorkerPool::new(3);
        for _ in 0..4 {
            pool.run(&|_| {
                // Do a little real work so busy time is nonzero even at
                // coarse clock resolution.
                let mut acc = 0u64;
                for i in 0..50_000u64 {
                    acc = acc.wrapping_add(i * i);
                }
                std::hint::black_box(acc);
            });
        }
        let activity = pool.activity();
        assert_eq!(activity.per_worker_busy_nanos.len(), 3);
        assert_eq!(activity.phases, 4);
        assert_eq!(activity.inline_phases, 0);
        assert!(activity.per_worker_busy_nanos.iter().all(|&b| b > 0));
        assert!(activity.lifetime_nanos > 0);
        let busy = activity.busy_fractions();
        let idle = activity.idle_fractions();
        for (b, i) in busy.iter().zip(idle.iter()) {
            assert!((0.0..=1.0).contains(b));
            assert!((b + i - 1.0).abs() < 1e-9);
        }
        assert!((0.0..=1.0).contains(&activity.barrier_wait_fraction()));
        assert!(activity.average_concurrency() >= 0.0);
    }

    #[test]
    fn single_worker_activity_counts_inline_phases() {
        let pool = WorkerPool::new(1);
        pool.run(&|_| {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        let activity = pool.activity();
        assert_eq!(activity.phases, 1);
        assert_eq!(activity.inline_phases, 1);
        assert_eq!(activity.per_worker_busy_nanos.len(), 1);
        assert!(activity.per_worker_busy_nanos[0] > 0);
        assert_eq!(activity.barrier_wait_nanos, 0);
    }
}
