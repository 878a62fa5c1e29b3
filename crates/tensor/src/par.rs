//! Persistent worker pool and row-block parallel primitives.
//!
//! A tiny substitute for `rayon` (the offline dependency set excludes it).
//! Earlier versions spawned scoped `std::thread`s on every kernel call; the
//! GCN training loop issues tens of thousands of kernel calls per run, so the
//! spawn/join latency dominated small kernels. The pool here is spawned once
//! (lazily, on the first parallel call), sized by [`num_threads`], and lives
//! for the rest of the process.
//!
//! One primitive covers every parallel kernel in the crate:
//! [`par_row_chunks`] splits a row-major output buffer into contiguous row
//! blocks, one task per block ("each task owns its output rows"). A task
//! computes each of its output elements exactly as a sequential call
//! would, so the thread count never changes a bit. The transposed
//! backprop products (`A^T @ dC`, `S^T @ dC`) scatter into shared output
//! rows; they run as one sequential scatter instead of summing per-thread
//! partial buffers, whose order would depend on the thread count.
//!
//! Work distribution is a single injector queue (condvar-guarded
//! `VecDeque`; blocked workers release the lock while they wait). The
//! calling thread always executes task 0 itself and then helps drain the
//! queue before blocking on a completion latch, so a one-thread pool
//! degenerates to a plain sequential call and nested use cannot deadlock.
//! Tasks are self-contained (`task` pointer + index + latch); worker panics
//! are caught, recorded on the latch and re-raised on the calling thread.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use rdd_obs::{CounterCell, GaugeCell};

/// Pool telemetry (all no-ops unless `RDD_TRACE` enables the recorder):
/// `run_tasks` invocations, tasks fanned out, and the deepest injector
/// queue observed.
static OBS_RUN_TASKS: CounterCell = CounterCell::new("pool.run_tasks");
static OBS_TASKS: CounterCell = CounterCell::new("pool.tasks");
static OBS_QUEUE_PEAK: GaugeCell = GaugeCell::new("pool.queue_peak");

/// Number of worker threads to use for data-parallel kernels.
///
/// Defaults to the machine's available parallelism, clamped to 16; override
/// with the `RDD_THREADS` environment variable (a value of 1 disables
/// threading entirely, which is useful for profiling and debugging). An
/// unparseable `RDD_THREADS` is reported once — into the trace when tracing
/// is on, on stderr otherwise — and then ignored. The resolved width is
/// emitted as a `pool_init` trace event.
pub fn num_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        let resolved = rdd_obs::env::parse_with("RDD_THREADS", "a positive integer", |v| {
            v.parse::<usize>().ok().map(|n| n.max(1))
        });
        let n = resolved.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        });
        rdd_obs::event("pool_init", &[("threads", rdd_obs::Json::from(n))]);
        n
    })
}

/// Countdown latch: the submitting thread blocks until every outstanding
/// task has run, and learns whether any of them panicked.
struct Latch {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    mutex: Mutex<()>,
    cond: Condvar,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: AtomicUsize::new(count),
            panicked: AtomicBool::new(false),
            mutex: Mutex::new(()),
            cond: Condvar::new(),
        }
    }

    fn count_down(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Taking the lock before notifying closes the race against a
            // waiter that observed `remaining > 0` but has not yet parked.
            let _guard = self.mutex.lock().unwrap();
            self.cond.notify_all();
        }
    }

    fn wait(&self) {
        let mut guard = self.mutex.lock().unwrap();
        while self.remaining.load(Ordering::Acquire) != 0 {
            guard = self.cond.wait(guard).unwrap();
        }
    }
}

/// A unit of work: run `task(index)`, then count down the latch.
///
/// The `'static` on `task` is a lie told by [`run_tasks`]: the submitting
/// thread blocks on `latch` before its borrow expires, so the reference is
/// live for as long as any worker can touch it.
struct Job {
    task: &'static (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
}

fn run_job(job: Job) {
    let ok = panic::catch_unwind(AssertUnwindSafe(|| (job.task)(job.index))).is_ok();
    if !ok {
        job.latch.panicked.store(true, Ordering::Release);
    }
    job.latch.count_down();
}

struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
}

impl Pool {
    fn push(&self, job: Job) {
        let depth = {
            let mut queue = self.queue.lock().unwrap();
            queue.push_back(job);
            queue.len()
        };
        self.available.notify_one();
        OBS_QUEUE_PEAK.record_max(depth as u64);
    }

    /// Non-blocking pop, used by submitting threads to help drain the queue.
    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap().pop_front()
    }

    /// Blocking pop for workers; the lock is released while waiting.
    fn pop_blocking(&self) -> Job {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                return job;
            }
            queue = self.available.wait(queue).unwrap();
        }
    }
}

fn pool() -> Option<&'static Pool> {
    static POOL: OnceLock<Option<&'static Pool>> = OnceLock::new();
    *POOL.get_or_init(|| {
        let workers = num_threads().saturating_sub(1);
        if workers == 0 {
            return None;
        }
        // The pool lives for the rest of the process; leaking it hands the
        // worker threads a plain `'static` reference.
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        }));
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("rdd-worker-{i}"))
                .spawn(move || loop {
                    run_job(pool.pop_blocking());
                })
                .expect("failed to spawn rdd-tensor worker thread");
        }
        Some(pool)
    })
}

/// Run `task(i)` for every `i in 0..n_tasks` across the worker pool.
///
/// The calling thread runs task 0 (and helps drain the queue), so the pool
/// only needs `num_threads() - 1` workers. Returns once every task has
/// finished; panics if any task panicked. Tasks must be independent — they
/// run concurrently in arbitrary order.
pub fn run_tasks(n_tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    if n_tasks == 0 {
        return;
    }
    OBS_RUN_TASKS.add(1);
    OBS_TASKS.add(n_tasks as u64);
    let Some(pool) = pool() else {
        for i in 0..n_tasks {
            task(i);
        }
        return;
    };
    if n_tasks == 1 {
        task(0);
        return;
    }
    let latch = Arc::new(Latch::new(n_tasks - 1));
    // SAFETY: every job holds a clone of `latch`, and we block on that latch
    // below before `task`'s borrow can expire, so the 'static lifetime the
    // workers see is sound.
    let task_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task) };
    for index in 1..n_tasks {
        pool.push(Job {
            task: task_static,
            index,
            latch: Arc::clone(&latch),
        });
    }
    task(0);
    // Help drain the queue instead of going idle; we may execute jobs
    // submitted by other threads, which is harmless (they are
    // self-contained) and keeps the pool work-conserving.
    while let Some(job) = pool.try_pop() {
        run_job(job);
    }
    latch.wait();
    if latch.panicked.load(Ordering::Acquire) {
        panic!("rdd-tensor parallel task panicked");
    }
}

/// Raw pointer wrapper that lets tasks write disjoint regions of one buffer.
#[derive(Clone, Copy)]
struct SendPtr(*mut f32);
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor (rather than field access) so closures capture the whole
    /// `Sync` wrapper instead of the raw pointer field (edition-2021
    /// disjoint capture would otherwise grab the `!Sync` pointer itself).
    fn get(self) -> *mut f32 {
        self.0
    }
}

/// Split `out` (a row-major buffer with `cols` columns) into row blocks and
/// run `f(first_row_of_chunk, chunk)` on each block, in parallel.
///
/// Falls back to a sequential call when the work is small or only one thread
/// is configured.
pub fn par_row_chunks<F>(out: &mut [f32], cols: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert!(cols > 0, "par_row_chunks needs at least one column");
    debug_assert_eq!(out.len() % cols, 0);
    let rows = out.len() / cols;
    let threads = num_threads();
    // Threading pays off only when each worker gets a meaningful slice.
    if threads <= 1 || rows < 64 || out.len() < 1 << 14 {
        f(0, out);
        return;
    }
    let chunk_rows = rows.div_ceil(threads);
    let n_chunks = rows.div_ceil(chunk_rows);
    let total = out.len();
    let base = SendPtr(out.as_mut_ptr());
    run_tasks(n_chunks, &|t| {
        let start = t * chunk_rows * cols;
        let end = (start + chunk_rows * cols).min(total);
        // SAFETY: chunk `t` covers elements [start, end), disjoint across
        // tasks, and the borrow of `out` outlives `run_tasks`.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(t * chunk_rows, chunk);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_small_input() {
        let mut out = vec![0.0f32; 8];
        par_row_chunks(&mut out, 2, |row0, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (row0 * 2 + i) as f32;
            }
        });
        assert_eq!(out, (0..8).map(|x| x as f32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_large_input_covers_all_rows() {
        let cols = 64;
        let rows = 512;
        let mut out = vec![-1.0f32; rows * cols];
        par_row_chunks(&mut out, cols, |row0, chunk| {
            for (di, row) in chunk.chunks_exact_mut(cols).enumerate() {
                let r = (row0 + di) as f32;
                for v in row {
                    *v = r;
                }
            }
        });
        for i in 0..rows {
            for j in 0..cols {
                assert_eq!(out[i * cols + j], i as f32, "row {i} col {j}");
            }
        }
    }

    #[test]
    fn num_threads_at_least_one() {
        assert!(num_threads() >= 1);
    }

    #[test]
    fn run_tasks_covers_every_index_repeatedly() {
        // Repeated calls reuse the pool; every index must be hit exactly once
        // per call.
        for round in 0..50 {
            let n = 1 + (round % 7);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            run_tasks(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} index {i}");
            }
        }
    }

    #[test]
    fn run_tasks_propagates_panics() {
        let caught = panic::catch_unwind(|| {
            run_tasks(4, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        });
        assert!(caught.is_err(), "panic in a task must reach the caller");
        // The pool must still be usable afterwards.
        let count = AtomicUsize::new(0);
        run_tasks(4, &|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }
}
