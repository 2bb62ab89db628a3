//! Persistent worker-pool runtime for the MAUPITI stack.
//!
//! Before this crate existed, every parallel surface of the workspace —
//! the convolution layers, the per-fold and per-λ training loops in
//! `pcount-core`, the batch inference pool in `pcount-kernels` and the
//! benches — spawned short-lived `std::thread::scope` workers per call.
//! That cost a thread create/join round-trip on every hot-path invocation
//! and made nested fan-outs multiply their worker budgets. This crate
//! replaces all of them with one **persistent, lazily-initialized pool**:
//!
//! * workers are spawned once (on first use) and **park** on a condvar
//!   whenever the queue is empty — the steady state performs no thread
//!   creation at all;
//! * work is submitted as *groups* of independent index jobs `f(0..n)`
//!   whose indices are **claimed one at a time** from an atomic counter,
//!   so any number of workers can drain one group without
//!   pre-partitioning;
//! * the submitting thread always participates in its own group and then
//!   blocks until stragglers finish, which makes [`PoolRef::run_limited`]
//!   **scoped**: the closure may borrow stack data even though the
//!   workers are `'static` threads;
//! * nested submissions (a `Conv2d` image group inside a fold job inside
//!   a λ sweep) go to the **same** pool — the single worker budget is
//!   shared across every level instead of multiplying, and a nested
//!   submitter simply drains its own group inline when every worker is
//!   busy, so nesting can never deadlock or oversubscribe.
//!
//! The pool size comes from the `POOL_THREADS` environment variable
//! (`0` or unset = auto: the host's available parallelism). **Results
//! never depend on it**: every caller in the workspace submits jobs that
//! are independent per index and reduces their outputs in canonical index
//! order, so any pool size — and any per-call [`limit`] — produces
//! bit-identical results. `POOL_THREADS` is a pure performance knob.
//!
//! # Telemetry
//!
//! When `pcount-telemetry` is enabled the pool records, per drained
//! group: a `pool/task` span on every participating worker, the group's
//! queue wait (submission → first claim) and drain latency (submission →
//! completion) into the `pool/queue_wait_ns` / `pool/group_drain_ns`
//! histograms, and per-slot task/busy totals readable through
//! [`PoolRef::utilization`]. While telemetry is disabled all of this
//! costs one relaxed atomic load per group — results are bit-identical
//! either way.
//!
//! [`limit`]: PoolRef::run_limited
//!
//! # Example
//!
//! ```
//! let squares = pcount_runtime::current().map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

pub use pcount_telemetry::PoolUtilization;

/// Type-erased view of one submitted job closure.
///
/// The pointee lives on the submitter's stack; [`PoolRef::run_limited`]
/// guarantees it outlives every use by blocking until the group's last
/// index completes (even when a job panics).
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from any thread are fine)
// and the submitter keeps it alive for the group's whole lifetime.
#[allow(unsafe_code)]
unsafe impl Send for Job {}
#[allow(unsafe_code)]
unsafe impl Sync for Job {}

/// One submitted batch of index jobs, drained cooperatively by the
/// submitter and any parked workers.
struct Group {
    job: Job,
    /// Total number of index jobs.
    n: usize,
    /// Next unclaimed index.
    next: AtomicUsize,
    /// Worker slots still available (concurrency limit minus active
    /// participants). The submitter holds one slot for the group's whole
    /// lifetime.
    slots: AtomicUsize,
    /// Completed index count + first panic payload.
    state: Mutex<GroupState>,
    /// Signalled when `state.done` reaches `n`.
    done_cv: Condvar,
    /// Telemetry submission timestamp (`now_ns` at enqueue), or `0` when
    /// telemetry was disabled at submission — the sentinel that turns all
    /// per-group recording off.
    submitted_ns: u64,
    /// Set by whichever thread claims the group's first index; gates the
    /// one-shot queue-wait measurement.
    first_claim: AtomicBool,
}

#[derive(Default)]
struct GroupState {
    done: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Group {
    /// Claims and runs indices until the index counter is exhausted,
    /// returning how many index jobs this thread executed.
    /// Panics inside jobs are caught, recorded and re-thrown by the
    /// submitter after the group completes.
    fn work(&self) -> usize {
        let mut executed = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return executed;
            }
            if self.submitted_ns != 0 && !self.first_claim.swap(true, Ordering::Relaxed) {
                pcount_telemetry::histogram("pool/queue_wait_ns")
                    .record(pcount_telemetry::now_ns().saturating_sub(self.submitted_ns));
            }
            executed += 1;
            // SAFETY: the submitter keeps the closure alive until
            // `state.done == n`, and `done` only counts claimed indices
            // after they ran.
            #[allow(unsafe_code)]
            let job = unsafe { &*self.job.0 };
            let result = catch_unwind(AssertUnwindSafe(|| job(i)));
            let mut state = self.state.lock().expect("group state lock");
            state.done += 1;
            if let Err(payload) = result {
                state.panic.get_or_insert(payload);
            }
            if state.done == self.n {
                self.done_cv.notify_all();
            }
        }
    }

    /// True while unclaimed indices remain.
    fn has_remaining(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
    }

    /// Tries to reserve one concurrency slot.
    fn try_take_slot(&self) -> bool {
        self.slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok()
    }

    fn release_slot(&self) {
        self.slots.fetch_add(1, Ordering::Relaxed);
    }

    /// Blocks until every index job has completed, then returns the first
    /// panic payload, if any.
    fn wait_done(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut state = self.state.lock().expect("group state lock");
        while state.done < self.n {
            state = self.done_cv.wait(state).expect("group state lock");
        }
        state.panic.take()
    }
}

/// Per-slot execution totals. Written once per drained group and only
/// while telemetry is recording (a few thousand groups in a traced
/// default `table1`), too rarely for false sharing between neighbouring
/// slots to cost anything.
#[derive(Default)]
struct SlotStats {
    /// Index jobs executed by this slot.
    tasks: AtomicU64,
    /// Nanoseconds this slot spent inside `Group::work`.
    busy_ns: AtomicU64,
}

/// State shared between the pool owner, its workers and every
/// [`PoolRef`].
struct Shared {
    /// Pending groups in submission order. Groups stay queued while they
    /// have unclaimed indices; both workers and submitters prune
    /// exhausted entries.
    queue: Mutex<VecDeque<Arc<Group>>>,
    /// Parked workers wait here; signalled on submission, slot release
    /// and shutdown.
    work_cv: Condvar,
    shutdown: AtomicBool,
    /// Total usable parallelism: spawned workers + the submitting thread.
    width: usize,
    /// Per-slot telemetry totals: slot 0 aggregates submitting threads,
    /// slots `1..width` are the spawned workers. Only written while
    /// telemetry is enabled.
    stats: Vec<SlotStats>,
    /// Groups drained through this pool (telemetry-gated, like `stats`).
    groups: AtomicU64,
}

impl Shared {
    /// The main loop of one pool worker: pick a group with remaining
    /// work and a free slot, drain its indices, park when idle. `slot` is the
    /// worker's index into `stats` (`1..width`).
    fn worker_loop(self: &Arc<Self>, slot: usize) {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(PoolRef {
                shared: Arc::clone(self),
            });
        });
        let mut queue = self.queue.lock().expect("pool queue lock");
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return;
            }
            queue.retain(|g| g.has_remaining());
            let picked = queue.iter().find(|g| g.try_take_slot()).map(Arc::clone);
            match picked {
                Some(group) => {
                    drop(queue);
                    self.work_instrumented(&group, slot);
                    group.release_slot();
                    // A freed slot may unblock a sibling waiting on a
                    // limit-saturated group.
                    self.work_cv.notify_all();
                    queue = self.queue.lock().expect("pool queue lock");
                }
                None => {
                    queue = self.work_cv.wait(queue).expect("pool queue lock");
                }
            }
        }
    }

    /// Drains `group`'s indices on behalf of `slot`, recording a
    /// `pool/task` span and the slot's task/busy totals when telemetry
    /// is enabled (one relaxed atomic load otherwise).
    fn work_instrumented(self: &Arc<Self>, group: &Group, slot: usize) {
        if !pcount_telemetry::enabled() {
            group.work();
            return;
        }
        let _span = pcount_telemetry::span("pool/task");
        let start = pcount_telemetry::now_ns();
        let executed = group.work();
        let stats = &self.stats[slot];
        stats
            .busy_ns
            .fetch_add(pcount_telemetry::now_ns() - start, Ordering::Relaxed);
        stats.tasks.fetch_add(executed as u64, Ordering::Relaxed);
    }
}

/// An owned worker pool. Dropping it parks no one: workers are woken,
/// told to shut down and joined.
///
/// The process-wide pool behind [`current`]/[`global`] is created once
/// from `POOL_THREADS` and lives for the program; explicitly constructed
/// pools exist so tests and benches can pin an exact worker count (see
/// [`install`]).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("width", &self.shared.width)
            .finish()
    }
}

impl Pool {
    /// Creates a pool with `width` total parallelism: `width - 1` worker
    /// threads are spawned (the submitting thread is the remaining
    /// participant). `width == 0` means auto (available parallelism);
    /// `width == 1` spawns nothing and every submission runs inline.
    pub fn new(width: usize) -> Self {
        let width = if width == 0 {
            host_parallelism()
        } else {
            width
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            width,
            stats: (0..width).map(|_| SlotStats::default()).collect(),
            groups: AtomicU64::new(0),
        });
        let workers = (1..width)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pcount-pool-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// A cloneable, submittable handle to this pool.
    pub fn handle(&self) -> PoolRef {
        PoolRef {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // The store must happen under the queue mutex: a worker
            // checks `shutdown` while holding the lock and then waits on
            // the condvar, so a store + notify landing inside that
            // check-to-wait window (without the lock) would be a lost
            // wakeup and the join below would hang forever.
            let _queue = self.shared.queue.lock().expect("pool queue lock");
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A handle for submitting work to a [`Pool`]. Obtained from
/// [`current`], [`global`] or [`Pool::handle`].
#[derive(Clone)]
pub struct PoolRef {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for PoolRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolRef")
            .field("width", &self.shared.width)
            .finish()
    }
}

impl PoolRef {
    /// Total usable parallelism of the pool (spawned workers plus the
    /// submitting thread).
    pub fn width(&self) -> usize {
        self.shared.width
    }

    /// Runs `f(0..jobs)` across the pool with at most `limit` threads
    /// working the group concurrently (`0` = no extra limit; the submitter
    /// always counts as one participant), and blocks until every index
    /// has completed. Panics in jobs are re-thrown here after the group
    /// drains, so the borrowed closure never outlives its captures.
    /// Results must not depend on `limit`: jobs are independent per
    /// index, so this is a pure scheduling knob.
    pub fn run_limited<F: Fn(usize) + Sync>(&self, jobs: usize, limit: usize, f: F) {
        if jobs == 0 {
            return;
        }
        let limit = if limit == 0 { self.width() } else { limit };
        if jobs == 1 || limit <= 1 || self.width() <= 1 {
            if pcount_telemetry::enabled() {
                let start = pcount_telemetry::now_ns();
                for i in 0..jobs {
                    f(i);
                }
                let elapsed = pcount_telemetry::now_ns() - start;
                let stats = &self.shared.stats[0];
                stats.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
                stats.tasks.fetch_add(jobs as u64, Ordering::Relaxed);
                self.shared.groups.fetch_add(1, Ordering::Relaxed);
                pcount_telemetry::histogram("pool/group_drain_ns").record(elapsed);
            } else {
                for i in 0..jobs {
                    f(i);
                }
            }
            return;
        }
        let submitted_ns = if pcount_telemetry::enabled() {
            pcount_telemetry::now_ns().max(1)
        } else {
            0
        };
        let erased: *const (dyn Fn(usize) + Sync) = &f;
        // SAFETY (lifetime erasure): the raw pointer is only dereferenced
        // by `Group::work`, and this function does not return before
        // `wait_done` observed every claimed index as completed, so the
        // `'static` pointee lifetime is never actually relied upon.
        #[allow(unsafe_code)]
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(erased)
        });
        let group = Arc::new(Group {
            job,
            n: jobs,
            next: AtomicUsize::new(0),
            // The submitter participates unconditionally below, so it
            // takes its slot up front.
            slots: AtomicUsize::new(limit - 1),
            state: Mutex::new(GroupState::default()),
            done_cv: Condvar::new(),
            submitted_ns,
            first_claim: AtomicBool::new(false),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.push_back(Arc::clone(&group));
        }
        self.shared.work_cv.notify_all();
        // The submitter participates as slot 0 of the stats table.
        self.shared.work_instrumented(&group, 0);
        let panic = group.wait_done();
        if submitted_ns != 0 {
            self.shared.groups.fetch_add(1, Ordering::Relaxed);
            pcount_telemetry::histogram("pool/group_drain_ns")
                .record(pcount_telemetry::now_ns().saturating_sub(submitted_ns));
        }
        {
            // Prune the exhausted group so parked workers never rescan it.
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            queue.retain(|g| !Arc::ptr_eq(g, &group));
        }
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }

    /// The pool's accumulated telemetry: per-slot task/busy totals
    /// (slot 0 = submitting threads, `1..width` = workers), total groups
    /// drained, and the process-wide queue-wait / drain-latency
    /// histograms. All of it is recorded only while `pcount-telemetry`
    /// is enabled; with telemetry off the report is all zeros. The two
    /// histograms are global (shared with every other pool in the
    /// process), while the slot totals are this pool's own.
    pub fn utilization(&self) -> PoolUtilization {
        PoolUtilization {
            width: self.shared.width,
            worker_tasks: self
                .shared
                .stats
                .iter()
                .map(|s| s.tasks.load(Ordering::Relaxed))
                .collect(),
            worker_busy_ns: self
                .shared
                .stats
                .iter()
                .map(|s| s.busy_ns.load(Ordering::Relaxed))
                .collect(),
            groups: self.shared.groups.load(Ordering::Relaxed),
            queue_wait_ns: pcount_telemetry::histogram("pool/queue_wait_ns").summary(),
            drain_ns: pcount_telemetry::histogram("pool/group_drain_ns").summary(),
        }
    }

    /// Runs `f(0..jobs)` and collects the results **in index order**,
    /// regardless of which thread computed which index.
    pub fn map<T: Send, F: Fn(usize) -> T + Sync>(&self, jobs: usize, f: F) -> Vec<T> {
        self.map_limited(jobs, 0, f)
    }

    /// [`PoolRef::map`] with a concurrency `limit` (`0` = none). The
    /// output is identical for every limit and pool size.
    ///
    /// Each job takes the next `(index, slot)` pair from one
    /// mutex-guarded iterator over the output, so every slot has exactly
    /// one writer; the lock is released before `f` runs.
    pub fn map_limited<T: Send, F: Fn(usize) -> T + Sync>(
        &self,
        jobs: usize,
        limit: usize,
        f: F,
    ) -> Vec<T> {
        let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
        let slots = Mutex::new(out.iter_mut().enumerate());
        self.run_limited(jobs, limit, |_| {
            let (i, slot) = next_item(&slots);
            *slot = Some(f(i));
        });
        out.into_iter()
            .map(|slot| slot.expect("every claimed index ran"))
            .collect()
    }

    /// Splits `data` into `chunk_len`-sized pieces and runs
    /// `f(chunk_index, chunk)` for each across the pool. The split is a
    /// function of `chunk_len` alone — never of the pool size — so
    /// callers stay deterministic for any worker count.
    ///
    /// Each job takes the next chunk from one mutex-guarded
    /// `chunks_mut` iterator, so chunks stay disjoint borrows; the lock
    /// is released before `f` runs.
    pub fn par_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        f: F,
    ) {
        let chunk_len = chunk_len.max(1);
        let jobs = data.len().div_ceil(chunk_len);
        let chunks = Mutex::new(data.chunks_mut(chunk_len).enumerate());
        self.run_limited(jobs, 0, |_| {
            let (i, chunk) = next_item(&chunks);
            f(i, chunk);
        });
    }
}

/// Hands one job the next item of a shared iterator. A group runs one job
/// per item, so the iterator never runs dry; the guard is dropped before
/// the item is returned.
fn next_item<I: Iterator>(items: &Mutex<I>) -> I::Item {
    items
        .lock()
        .expect("pool item lock")
        .next()
        .expect("one item per job")
}

/// The host's available parallelism (fallback 1).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Pool width requested by the `POOL_THREADS` environment variable
/// (`0` or unset/unparsable = auto).
fn env_width() -> usize {
    std::env::var("POOL_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(0)
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// The pool this thread belongs to: set for pool workers at spawn and
    /// for scoped [`install`] overrides; empty threads fall back to the
    /// global pool.
    static CURRENT: std::cell::RefCell<Option<PoolRef>> = const { std::cell::RefCell::new(None) };
}

/// The process-wide pool, created on first use with `POOL_THREADS`
/// workers (`0`/unset = auto).
pub fn global() -> PoolRef {
    GLOBAL.get_or_init(|| Pool::new(env_width())).handle()
}

/// The pool the calling thread should submit to: the pool it is a worker
/// of (so nested fan-outs share one worker budget), the [`install`]ed
/// override, or the global pool.
pub fn current() -> PoolRef {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(global)
}

/// Runs `f` with `pool` installed as the calling thread's
/// [`current`] pool. Used by tests and benches to pin exact worker
/// counts; nested submissions from inside `f` (on this thread) and from
/// the pool's own workers all resolve to `pool`.
pub fn install<R>(pool: &Pool, f: impl FnOnce() -> R) -> R {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(pool.handle()));
    struct Restore(Option<PoolRef>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
    let _restore = Restore(previous);
    f()
}

/// Maps the workspace-wide `0 = auto` thread-count knob to a concrete
/// worker count: explicit values pass through, `0` becomes the
/// [`current`] pool's width. Shared by every parallel evaluation surface
/// so the knob means the same thing everywhere.
pub fn resolve_threads(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        current().width()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_index_order() {
        let pool = Pool::new(4);
        let out = install(&pool, || current().map(100, |i| i * 3));
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn run_executes_every_index_exactly_once() {
        let pool = Pool::new(3);
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        pool.handle().run_limited(hits.len(), 0, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = Pool::new(1);
        let main_thread = std::thread::current().id();
        pool.handle().run_limited(8, 0, |_| {
            assert_eq!(std::thread::current().id(), main_thread);
        });
    }

    #[test]
    fn limit_one_runs_serially_in_index_order() {
        let pool = Pool::new(4);
        let order = Mutex::new(Vec::new());
        pool.handle().run_limited(10, 1, |i| {
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_submissions_share_the_pool_without_deadlock() {
        let pool = Pool::new(4);
        let total = AtomicU64::new(0);
        install(&pool, || {
            current().run_limited(6, 0, |_| {
                // Workers resolve `current()` to their own pool; nesting
                // two levels deep must drain without deadlock even when
                // every worker is busy with outer jobs.
                let inner = current().map(8, |j| j as u64);
                total.fetch_add(inner.iter().sum::<u64>(), Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 6 * 28);
    }

    #[test]
    fn results_are_identical_for_any_pool_width_and_limit() {
        let reference: Vec<u64> = (0..100).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for width in [1, 2, 3, 8] {
            let pool = Pool::new(width);
            for limit in [0, 1, 2, 5] {
                let got = pool
                    .handle()
                    .map_limited(100, limit, |i| (i as u64).wrapping_mul(0x9E37));
                assert_eq!(got, reference, "width {width} limit {limit}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_covers_the_slice_with_ragged_tail() {
        let pool = Pool::new(3);
        let mut data = vec![0u32; 103];
        pool.handle().par_chunks_mut(&mut data, 10, |ci, chunk| {
            assert!(chunk.len() == 10 || (ci == 10 && chunk.len() == 3));
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = (ci * 10 + j) as u32;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<u32>>());
    }

    #[test]
    fn job_panics_propagate_to_the_submitter() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.handle().run_limited(16, 0, |i| {
                if i == 9 {
                    panic!("job 9 exploded");
                }
            });
        }));
        assert!(result.is_err(), "panic must reach the submitter");
        // The pool survives the panic and keeps serving work.
        assert_eq!(pool.handle().map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn install_overrides_and_restores_current() {
        let outer_width = current().width();
        let pool = Pool::new(7);
        install(&pool, || {
            assert_eq!(current().width(), 7);
        });
        assert_eq!(current().width(), outer_width);
    }

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        let pool = Pool::new(4);
        pool.handle().run_limited(8, 0, |_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn utilization_accounts_every_executed_index() {
        let pool = Pool::new(3);
        // Results and totals must be unaffected by whether telemetry is
        // recording; only the stats themselves appear.
        pcount_telemetry::set_enabled(true);
        pool.handle().run_limited(64, 0, |_| {});
        pcount_telemetry::set_enabled(false);
        let report = pool.handle().utilization();
        assert_eq!(report.width, 3);
        assert_eq!(report.worker_tasks.len(), 3);
        assert_eq!(report.total_tasks(), 64, "every index attributed once");
        assert!(report.groups >= 1);
        assert!(report.drain_ns.count >= 1);
    }

    #[test]
    fn resolve_threads_passes_explicit_values_through() {
        assert_eq!(resolve_threads(3), 3);
        let pool = Pool::new(5);
        install(&pool, || assert_eq!(resolve_threads(0), 5));
    }
}
