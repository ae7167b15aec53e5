//! # cryptonn-parallel
//!
//! Minimal fork-join parallelism shared by the encryption and
//! decryption loops.
//!
//! The paper notes that Algorithm 1's decryption loops (lines 8 and 12)
//! are embarrassingly parallel and reports order-of-magnitude speedups
//! from parallelizing them (Figs. 3d, 4d, 5d). The same fan-out applies
//! to the client-side batch encryption added with the Montgomery
//! refactor (DESIGN.md §8). This crate provides the scoped-thread
//! [`parallel_map`] and the [`Parallelism`] policy used by both; it
//! lives below `cryptonn-fe` so the FE layer can batch-encrypt without
//! a dependency cycle through `cryptonn-smc`.
//!
//! For the long-lived daemon threads of `cryptonn-net` it also provides
//! the bounded [`ThreadPool`] (the authority daemon's per-link
//! handlers) and the joinable, panic-containing [`WorkerSet`] (the
//! session daemon's per-session workers, with optional
//! restart-on-panic).

/// Computes `f(0), f(1), …, f(n-1)` across `threads` OS threads,
/// preserving index order in the returned vector.
///
/// `threads <= 1` runs inline with zero overhead. Results are collected
/// per-chunk so no locking is involved.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.min(n);
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Vec<T>> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let f = &f;
                let start = w * chunk;
                let end = ((w + 1) * chunk).min(n);
                scope.spawn(move || (start..end).map(f).collect::<Vec<T>>())
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("worker thread panicked"));
        }
    });
    results.into_iter().flatten().collect()
}

/// The pool's idle-slot counter and the condition signalled when a
/// finished job frees a slot.
#[derive(Debug)]
struct PoolSlots {
    idle: std::sync::Mutex<usize>,
    freed: std::sync::Condvar,
}

/// A bounded pool of worker threads for long-running jobs —
/// thread-per-connection without unbounded thread growth.
///
/// Capacity is tracked as *slots*: a submission reserves a slot before
/// the job is queued, and a worker frees it only when the job
/// finishes, so at most `threads` jobs exist in the pool at any moment
/// — queued or running. [`execute`](Self::execute) *blocks* while
/// every slot is taken: saturation backpressures the submitter, and an
/// accept loop stops accepting. Dropping the pool joins every worker,
/// so it waits for the jobs in flight to return.
#[derive(Debug)]
pub struct ThreadPool {
    tx: Option<std::sync::mpsc::Sender<Box<dyn FnOnce() + Send>>>,
    slots: std::sync::Arc<PoolSlots>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = std::sync::mpsc::channel::<Box<dyn FnOnce() + Send>>();
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let slots = std::sync::Arc::new(PoolSlots {
            idle: std::sync::Mutex::new(threads),
            freed: std::sync::Condvar::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                let slots = std::sync::Arc::clone(&slots);
                std::thread::spawn(move || loop {
                    // The receiver mutex is held only for the blocking
                    // recv; the job itself runs unlocked.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return, // a job panicked mid-recv elsewhere
                    };
                    match job {
                        Ok(job) => {
                            // A panicking job must neither kill the
                            // worker nor leak its slot — otherwise
                            // `threads` hostile jobs would wedge the
                            // pool shut permanently. The panic is
                            // contained to the job.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            if let Ok(mut idle) = slots.idle.lock() {
                                *idle += 1;
                            }
                            slots.freed.notify_one();
                        }
                        Err(_) => return, // pool dropped, queue drained
                    }
                })
            })
            .collect();
        Self {
            tx: Some(tx),
            slots,
            workers,
        }
    }

    /// Runs `job` on a worker, blocking until a slot frees.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        {
            let mut idle = self.slots.idle.lock().expect("pool lock poisoned");
            while *idle == 0 {
                idle = self.slots.freed.wait(idle).expect("pool lock poisoned");
            }
            *idle -= 1;
        }
        self.tx
            .as_ref()
            .expect("pool is live until dropped")
            .send(Box::new(job))
            .expect("workers outlive the pool handle");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the channel so workers exit once the queue drains, then
        // wait for the busy ones to finish their current job.
        self.tx.take();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A named registry of long-lived worker threads that the owner can
/// join deterministically — the session daemon's per-session workers,
/// which must be *waited for* on shutdown rather than detached (a
/// detached worker could still be appending to a durability ledger
/// while the process tears the directory down).
///
/// Two spawn modes:
///
/// - [`spawn`](Self::spawn) runs a one-shot job;
/// - [`spawn_restartable`](Self::spawn_restartable) contains panics
///   with `catch_unwind` and re-runs the job up to an attempt budget —
///   crash-resume *inside* one process, the in-memory twin of the
///   daemon's restart-from-ledger path.
///
/// [`join_all`](Self::join_all) blocks until every spawned worker has
/// exited and reports the names of those whose final attempt panicked.
#[derive(Debug, Default)]
pub struct WorkerSet {
    workers: std::sync::Mutex<Vec<(String, std::thread::JoinHandle<bool>)>>,
}

impl WorkerSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of workers spawned so far and not yet joined.
    pub fn len(&self) -> usize {
        self.workers.lock().expect("worker registry poisoned").len()
    }

    /// True when no workers are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn register(&self, name: &str, handle: std::thread::JoinHandle<bool>) {
        self.workers
            .lock()
            .expect("worker registry poisoned")
            .push((name.to_string(), handle));
    }

    /// Spawns a one-shot named worker.
    pub fn spawn(&self, name: &str, job: impl FnOnce() + Send + 'static) {
        let handle = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_ok()
        });
        self.register(name, handle);
    }

    /// Spawns a named worker that re-runs `job` after a panic, up to
    /// `attempts` runs in total (clamped to at least one). The worker
    /// exits after the first clean run.
    pub fn spawn_restartable(&self, name: &str, attempts: u32, job: impl Fn() + Send + 'static) {
        let handle = std::thread::spawn(move || {
            for _ in 0..attempts.max(1) {
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(&job)).is_ok() {
                    return true;
                }
            }
            false
        });
        self.register(name, handle);
    }

    /// Waits for every registered worker to exit; returns the names of
    /// workers whose final attempt panicked (empty on a clean drain).
    pub fn join_all(&self) -> Vec<String> {
        let drained: Vec<_> = {
            let mut workers = self.workers.lock().expect("worker registry poisoned");
            workers.drain(..).collect()
        };
        let mut panicked = Vec::new();
        for (name, handle) in drained {
            if !handle.join().unwrap_or(false) {
                panicked.push(name);
            }
        }
        panicked
    }
}

/// A thread-count policy for the secure computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// Single-threaded decryption — the paper's baseline arms in
    /// Figs. 3c/4c/5c.
    #[default]
    Serial,
    /// Decryption fanned out over the given number of threads — the
    /// "(P)" arms in Figs. 3d/4d/5d.
    Threads(usize),
}

impl Parallelism {
    /// The effective worker count (1 for serial).
    pub fn thread_count(&self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => (*n).max(1),
        }
    }

    /// One thread per available CPU.
    pub fn available() -> Self {
        Parallelism::Threads(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        for threads in [1, 2, 3, 8] {
            let out = parallel_map(17, threads, |i| i * i);
            assert_eq!(
                out,
                (0..17).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(parallel_map(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 4, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_items() {
        assert_eq!(parallel_map(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let ids = Mutex::new(HashSet::new());
        let _ = parallel_map(64, 4, |i| {
            ids.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(ids.into_inner().unwrap().len() > 1);
    }

    #[test]
    fn pool_runs_jobs_and_bounds_concurrency() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let pool = ThreadPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.execute(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // joins workers
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn worker_set_joins_and_reports_clean_exits() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let set = WorkerSet::new();
        let ran = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let ran = Arc::clone(&ran);
            set.spawn(&format!("worker-{i}"), move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(set.len(), 3);
        assert!(set.join_all().is_empty());
        assert_eq!(ran.load(Ordering::SeqCst), 3);
        assert!(set.is_empty());
    }

    #[test]
    fn restartable_worker_survives_panics_within_budget() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let set = WorkerSet::new();
        let runs = Arc::new(AtomicUsize::new(0));
        {
            let runs = Arc::clone(&runs);
            set.spawn_restartable("flaky", 3, move || {
                // Panic on the first two runs, succeed on the third.
                if runs.fetch_add(1, Ordering::SeqCst) < 2 {
                    panic!("injected crash");
                }
            });
        }
        assert!(set.join_all().is_empty(), "third attempt should succeed");
        assert_eq!(runs.load(Ordering::SeqCst), 3);

        // Exhausting the budget reports the worker by name.
        let runs2 = Arc::new(AtomicUsize::new(0));
        {
            let runs2 = Arc::clone(&runs2);
            set.spawn_restartable("doomed", 2, move || {
                runs2.fetch_add(1, Ordering::SeqCst);
                panic!("always crashes");
            });
        }
        assert_eq!(set.join_all(), vec!["doomed".to_string()]);
        assert_eq!(runs2.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn parallelism_thread_counts() {
        assert_eq!(Parallelism::Serial.thread_count(), 1);
        assert_eq!(Parallelism::Threads(4).thread_count(), 4);
        assert_eq!(Parallelism::Threads(0).thread_count(), 1);
        assert!(Parallelism::available().thread_count() >= 1);
    }
}
