//! # wtf-taskpool — clock-aware task pool
//!
//! Transactional futures need somewhere to run. The paper's WTF-TM
//! activates "a parallel thread in which T will be executed" for every
//! `submit`; this crate provides that substrate as a fixed pool of worker
//! threads registered with a [`Clock`](wtf_vclock::Clock), so that future
//! bodies execute under virtual time in simulation mode and as plain OS
//! threads in real mode.
//!
//! Workers block on a queue event while idle; pushing a task wakes one up
//! (under a virtual clock all of them, at the submitter's timestamp: which
//! one runs the task is the scheduler's decision), and an explicit
//! `dispatch_cost` models the inter-thread communication latency of future
//! activation. On real threads a worker that has just finished a task
//! polls the queue for a moment before it parks, one worker at a time, and
//! a push that finds a worker polling wakes nobody: a submitter that keeps
//! the pool busy never pays for a thread wake-up (DESIGN.md, "Future
//! hand-off on real threads").
//!
//! The pool is sized by the caller. The paper dedicates one thread per
//! in-flight future, and the figure harnesses do the same; a pool smaller
//! than the maximum number of simultaneously *blocking* tasks can deadlock
//! (and the virtual clock will say so loudly rather than hang).

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use wtf_trace::{EventKind, Tracer};
use wtf_vclock::{Clock, Event, JoinHandle};

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A queued task plus the causal metadata the profiler needs: the pool-wide
/// task id and the (virtual) enqueue timestamp, which together let
/// [`EventKind::TaskEnqueue`]/[`EventKind::TaskDequeue`] pairs reconstruct
/// queue-delay edges offline.
struct QueuedTask {
    id: u64,
    enqueued_at: u64,
    task: Task,
}

struct PoolInner {
    clock: Clock,
    queue: Mutex<VecDeque<QueuedTask>>,
    /// Notified when a task is pushed or shutdown begins.
    available: Event,
    /// A worker is polling the queue and will see a push without a wake.
    // ordering: seqcst-cas claims the one polling seat; seqcst-store gives
    // it up; seqcst-load in `wake_worker`. One half of a Dekker pairing
    // with the queue. Submitter: push, SeqCst fence, load `polling`.
    // Retiring poller: store false, SeqCst fence, look at the queue. Of
    // the two fences one comes first: either the submitter sees the flag
    // down (and wakes a parked worker) or the poller sees the task.
    polling: AtomicBool,
    // ordering: release-store begins shutdown; the worker loop's
    // acquire-load pairs with it so a worker that observes the flag also
    // observes everything enqueued before it. (Downgraded from SeqCst:
    // shutdown is one-way and never ordered against another atomic.)
    // relaxed-load only in `execute`'s misuse assertion. relaxed-guard:
    // that assertion is a best-effort guard against submitting to a pool
    // already shut down — a racing submit loses either way.
    shutdown: AtomicBool,
    /// Number of workers currently executing a task (diagnostics).
    // ordering: relaxed-rmw, relaxed-load — a diagnostics gauge.
    busy: AtomicUsize,
    /// Monotonic task-id source for enqueue/dequeue causal pairs.
    // ordering: relaxed-rmw — ids only need uniqueness; the queue mutex
    // orders the enqueue itself.
    next_task: AtomicU64,
    /// Observability: workers emit busy/idle spans into this tracer.
    tracer: Arc<Tracer>,
    #[cfg_attr(not(test), allow(dead_code))]
    handoffs: Handoffs,
}

/// Park/poll/wake counts for the hand-off tests; nothing outside them. (An
/// alias rather than a `#[cfg(test)]` field: wtf-audit's scanner would take
/// the `impl` that follows the struct for test code.)
#[cfg(test)]
type Handoffs = tests::Handoffs;
#[cfg(not(test))]
type Handoffs = ();

impl PoolInner {
    fn work_or_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || !self.queue.lock().is_empty()
    }

    /// After a push: wakes one parked worker, unless one is polling.
    fn wake_worker(&self) {
        fence(Ordering::SeqCst);
        if !self.polling.load(Ordering::SeqCst) {
            self.clock.notify_one(&self.available);
        }
    }

    /// Takes the next task. A wake may have been skipped for the ones
    /// behind it (their pushes saw this worker polling), so whoever leaves
    /// the queue non-empty passes the wake on. Not under a virtual clock:
    /// there every push woke every worker, and one more notification
    /// would move the idle workers' timestamps.
    fn pop(&self) -> Option<QueuedTask> {
        let (task, more) = {
            let mut q = self.queue.lock();
            (q.pop_front(), !q.is_empty())
        };
        if task.is_some() && more && !self.clock.is_virtual() {
            self.wake_worker();
        }
        task
    }
}

/// A fixed-size pool of clock-registered worker threads.
pub struct TaskPool {
    inner: Arc<PoolInner>,
    workers: Vec<JoinHandle<()>>,
    /// Virtual cost charged to the submitter per dispatch, modeling the
    /// cost of waking a remote thread (cache-line transfer + futex).
    dispatch_cost: u64,
}

impl TaskPool {
    /// Creates a pool with `workers` worker threads under `clock`.
    ///
    /// Must be called from a thread registered with `clock` (i.e. inside
    /// [`Clock::enter`] or a clock-spawned thread).
    pub fn new(clock: &Clock, workers: usize) -> TaskPool {
        Self::with_dispatch_cost(clock, workers, 0)
    }

    /// Like [`TaskPool::new`], charging `dispatch_cost` clock units to every
    /// submitter.
    pub fn with_dispatch_cost(clock: &Clock, workers: usize, dispatch_cost: u64) -> TaskPool {
        Self::with_tracer(clock, workers, dispatch_cost, Tracer::disabled())
    }

    /// Full constructor: workers report busy/idle spans into `tracer`
    /// (one relaxed load per transition when tracing is off).
    pub fn with_tracer(
        clock: &Clock,
        workers: usize,
        dispatch_cost: u64,
        tracer: Arc<Tracer>,
    ) -> TaskPool {
        assert!(workers > 0, "a task pool needs at least one worker");
        let inner = Arc::new(PoolInner {
            clock: clock.clone(),
            queue: Mutex::new(VecDeque::new()),
            available: clock.new_event(),
            polling: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            busy: AtomicUsize::new(0),
            next_task: AtomicU64::new(0),
            tracer,
            handoffs: Default::default(),
        });
        if inner.tracer.on() {
            // Live pool gauges, sampled on demand by the registry. `Weak`
            // captures: the tracer outlives the pool in some harnesses.
            let w = Arc::downgrade(&inner);
            inner.tracer.gauges.register("pool_queue_depth", move || {
                w.upgrade().map_or(0, |p| p.queue.lock().len() as u64)
            });
            let w = Arc::downgrade(&inner);
            inner.tracer.gauges.register("pool_busy_workers", move || {
                w.upgrade()
                    .map_or(0, |p| p.busy.load(Ordering::Relaxed) as u64)
            });
        }
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                clock.spawn(&format!("pool-worker-{i}"), move || worker_loop(&inner, i))
            })
            .collect();
        TaskPool {
            inner,
            workers: handles,
            dispatch_cost,
        }
    }

    /// The clock this pool runs under.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// Enqueues `task` for execution on some worker. Fire-and-forget; use
    /// [`TaskPool::submit`] for a joinable handle.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        assert!(
            !self.inner.shutdown.load(Ordering::Relaxed),
            "execute on a shut-down pool"
        );
        self.inner.clock.advance(self.dispatch_cost);
        let id = self.inner.next_task.fetch_add(1, Ordering::Relaxed);
        let entry = QueuedTask {
            id,
            enqueued_at: self.inner.tracer.now(),
            task: Box::new(task),
        };
        let depth = {
            let mut q = self.inner.queue.lock();
            q.push_back(entry);
            q.len() as u64
        };
        self.inner.tracer.record(EventKind::TaskEnqueue, id, depth);
        self.inner.wake_worker();
    }

    /// Enqueues `task` and returns a handle to wait for its result.
    pub fn submit<T: Send + 'static>(
        &self,
        task: impl FnOnce() -> T + Send + 'static,
    ) -> TaskHandle<T> {
        let slot = Arc::new(Mutex::new(TaskSlot {
            finished: false,
            value: None,
        }));
        let done = self.inner.clock.new_event();
        let clock = self.inner.clock.clone();
        let s2 = slot.clone();
        let d2 = done.clone();
        let c2 = clock.clone();
        self.execute(move || {
            let out = task();
            *s2.lock() = TaskSlot {
                finished: true,
                value: Some(out),
            };
            c2.notify_all(&d2);
        });
        TaskHandle { slot, done, clock }
    }

    /// Number of workers currently executing tasks.
    pub fn busy_workers(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    /// Number of tasks queued but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Stops accepting tasks, drains the queue, and joins all workers.
    ///
    /// Must be called from a clock thread before the enclosing
    /// [`Clock::enter`] returns.
    pub fn shutdown(mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Every parked worker; a poller reads the flag itself.
        self.inner.clock.notify_all(&self.inner.available);
        for h in self.workers.drain(..) {
            h.join();
        }
    }
}

impl Drop for TaskPool {
    fn drop(&mut self) {
        // `shutdown` drains `workers`; a nonempty list here means the pool
        // was dropped without an orderly shutdown. Under a virtual clock
        // the leaked workers would trip the scheduler's leak detection with
        // a confusing message, so fail fast with a clear one.
        if !self.workers.is_empty() && !std::thread::panicking() {
            panic!("TaskPool dropped without shutdown(); workers would leak");
        }
    }
}

/// Completion is a fact of its own: `try_join` empties `value` and the
/// task is no less finished for it.
struct TaskSlot<T> {
    finished: bool,
    value: Option<T>,
}

/// Handle to a task submitted with [`TaskPool::submit`].
pub struct TaskHandle<T> {
    slot: Arc<Mutex<TaskSlot<T>>>,
    done: Event,
    clock: Clock,
}

impl<T> TaskHandle<T> {
    /// Blocks (in clock time) until the task completes and returns its
    /// result. Panics if [`TaskHandle::try_join`] already took it.
    pub fn join(self) -> T {
        let slot = self.slot.clone();
        self.clock.wait_until(&self.done, || slot.lock().finished);
        let value = self.slot.lock().value.take();
        value.expect("task result already taken by try_join")
    }

    /// Returns the result if the task already completed (once: the result
    /// moves out).
    pub fn try_join(&self) -> Option<T> {
        self.slot.lock().value.take()
    }

    /// True once the task has completed.
    pub fn is_finished(&self) -> bool {
        self.slot.lock().finished
    }
}

fn worker_loop(inner: &PoolInner, index: usize) {
    // Only a worker fresh off a task polls for the next one: its submitter
    // is evidently busy. A worker that has run nothing parks at once, so a
    // program that never submits never pays a cycle for its pool.
    let mut fresh_off_task = false;
    loop {
        match inner.pop() {
            Some(QueuedTask {
                id,
                enqueued_at,
                task,
            }) => {
                inner.busy.fetch_add(1, Ordering::Relaxed);
                if inner.tracer.on() {
                    let delay = inner.tracer.now().saturating_sub(enqueued_at);
                    inner.tracer.record(EventKind::TaskDequeue, id, delay);
                }
                let start = inner.tracer.span_start();
                task();
                inner
                    .tracer
                    .span_end(EventKind::WorkerBusySpan, start, index as u64);
                inner.busy.fetch_sub(1, Ordering::Relaxed);
                fresh_off_task = true;
            }
            None => {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // One poller at a time: a second one could only take CPU
                // from the threads that produce the work.
                if std::mem::take(&mut fresh_off_task)
                    && inner
                        .polling
                        .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                {
                    #[cfg(test)]
                    inner.handoffs.polled();
                    inner.clock.poll_until(|| inner.work_or_shutdown());
                    inner.polling.store(false, Ordering::SeqCst);
                    fence(Ordering::SeqCst);
                    // Look again with the flag down: a push that saw it up
                    // woke nobody.
                    continue;
                }
                #[cfg(test)]
                inner.handoffs.parked();
                let start = inner.tracer.span_start();
                inner
                    .clock
                    .park_until(&inner.available, || inner.work_or_shutdown());
                inner
                    .tracer
                    .span_end(EventKind::WorkerIdleSpan, start, index as u64);
                #[cfg(test)]
                inner.handoffs.woken();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the workers of one pool did while idle, counted as they do it.
    #[derive(Default)]
    pub(super) struct Handoffs {
        polls: AtomicUsize,
        parks: AtomicUsize,
        wakeups: AtomicUsize,
    }

    impl Handoffs {
        pub(super) fn polled(&self) {
            self.polls.fetch_add(1, Ordering::SeqCst);
        }
        pub(super) fn parked(&self) {
            self.parks.fetch_add(1, Ordering::SeqCst);
        }
        pub(super) fn woken(&self) {
            self.wakeups.fetch_add(1, Ordering::SeqCst);
        }
        /// (polls, parks, wakeups)
        fn read(&self) -> (usize, usize, usize) {
            (
                self.polls.load(Ordering::SeqCst),
                self.parks.load(Ordering::SeqCst),
                self.wakeups.load(Ordering::SeqCst),
            )
        }
    }

    fn spin_until(mut cond: impl FnMut() -> bool) {
        while !cond() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn fresh_workers_park_unpolled_and_one_execute_wakes_one() {
        Clock::real_nospin().enter(|| {
            let pool = TaskPool::new(&Clock::current(), 4);
            let counts = &pool.inner.handoffs;
            spin_until(|| counts.read().1 == 4);
            assert_eq!(
                counts.read(),
                (0, 4, 0),
                "a fresh pool parks without polling"
            );
            pool.submit(|| ()).join();
            // The worker that ran the task polls (where it can), then parks
            // again; a broadcast would have woken the other three by then.
            spin_until(|| counts.read().1 == 5);
            let (polls, _, wakeups) = counts.read();
            assert_eq!(wakeups, 1, "one execute wakes one parked worker");
            assert_eq!(polls, 1, "only the worker fresh off a task polls");
            pool.shutdown();
        });
    }

    #[test]
    fn busy_submitter_rarely_parks_its_worker() {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return; // nothing polls on one CPU
        }
        Clock::real_nospin().enter(|| {
            let pool = TaskPool::new(&Clock::current(), 4);
            for i in 0..100u64 {
                assert_eq!(pool.submit(move || i).join(), i);
            }
            let parks_before = pool.inner.handoffs.read().1;
            for i in 0..1_000u64 {
                assert_eq!(pool.submit(move || i).join(), i);
            }
            let parks = pool.inner.handoffs.read().1 - parks_before;
            assert!(
                parks < 500,
                "{parks} parks in 1,000 submit→join round trips: the poller is not catching them"
            );
            pool.shutdown();
        });
    }

    #[test]
    fn finished_outlives_try_join() {
        Clock::real_nospin().enter(|| {
            let pool = TaskPool::new(&Clock::current(), 1);
            let h = pool.submit(|| 5u32);
            spin_until(|| h.is_finished());
            assert_eq!(h.try_join(), Some(5));
            assert!(
                h.is_finished(),
                "taking the result does not unfinish the task"
            );
            assert_eq!(h.try_join(), None);
            // A join now has nothing to return; it must say so, not wait.
            let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.join()));
            assert!(joined.is_err());
            pool.shutdown();
        });
    }

    #[test]
    fn runs_tasks_real() {
        let clock = Clock::real_nospin();
        let total = clock.enter(|| {
            let pool = TaskPool::new(&Clock::current(), 4);
            let handles: Vec<_> = (0..32u64).map(|i| pool.submit(move || i * 2)).collect();
            let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
            pool.shutdown();
            sum
        });
        assert_eq!(total, (0..32u64).map(|i| i * 2).sum());
    }

    #[test]
    fn runs_tasks_virtual_and_parallel_in_vtime() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let pool = TaskPool::new(&c, 8);
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    pool.submit(|| {
                        Clock::current().advance(1_000);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            pool.shutdown();
        });
        // 8 tasks of 1000 units on 8 workers run fully parallel.
        assert_eq!(clock.makespan(), 1_000);
    }

    #[test]
    fn queueing_serializes_when_pool_small() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let pool = TaskPool::new(&c, 2);
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    pool.submit(|| {
                        Clock::current().advance(1_000);
                    })
                })
                .collect();
            for h in handles {
                h.join();
            }
            pool.shutdown();
        });
        // 8 x 1000 units over 2 workers = 4000 units of virtual makespan.
        assert_eq!(clock.makespan(), 4_000);
    }

    #[test]
    fn dispatch_cost_charged_to_submitter() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let pool = TaskPool::with_dispatch_cost(&c, 1, 250);
            let h = pool.submit(|| {});
            h.join();
            assert_eq!(c.now(), 250);
            pool.shutdown();
        });
    }

    #[test]
    fn nested_submission() {
        let clock = Clock::virtual_time();
        let out = clock.enter(|| {
            let c = Clock::current();
            let pool = Arc::new(TaskPool::new(&c, 4));
            let p2 = pool.clone();
            let h = pool.submit(move || {
                let inner = p2.submit(|| 21u64);
                inner.join() * 2
            });
            let v = h.join();
            Arc::into_inner(pool).unwrap().shutdown();
            v
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn workers_emit_busy_spans_when_traced() {
        use wtf_trace::TraceLevel;
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let clock = Clock::virtual_time();
        let t2 = tracer.clone();
        clock.enter(move || {
            let c = Clock::current();
            let pool = TaskPool::with_tracer(&c, 2, 0, t2);
            let handles: Vec<_> = (0..4)
                .map(|_| pool.submit(|| Clock::current().advance(100)))
                .collect();
            for h in handles {
                h.join();
            }
            pool.shutdown();
        });
        let busy: Vec<_> = tracer
            .lanes()
            .into_iter()
            .flat_map(|(_, evs)| evs)
            .filter(|e| e.kind == EventKind::WorkerBusySpan)
            .collect();
        assert_eq!(busy.len(), 4, "one busy span per task");
        // Span durations are virtual-clock exact: each task advanced 100.
        assert!(busy.iter().all(|e| e.a == 100));
    }

    #[test]
    fn queue_depth_and_gauges() {
        use wtf_trace::TraceLevel;
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let clock = Clock::real_nospin();
        let t2 = tracer.clone();
        clock.enter(move || {
            let pool = TaskPool::with_tracer(&Clock::current(), 1, 0, t2.clone());
            let gate = Arc::new(AtomicBool::new(false));
            // Worker 0 blocks on the gate; two more tasks pile up behind it.
            let g2 = gate.clone();
            let h = pool.submit(move || {
                while !g2.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            while pool.busy_workers() == 0 {
                std::hint::spin_loop();
            }
            pool.execute(|| {});
            pool.execute(|| {});
            assert_eq!(pool.queue_depth(), 2);
            let live = t2.gauges.read_all();
            assert!(
                live.contains(&("pool_queue_depth".to_string(), 2)),
                "{live:?}"
            );
            assert!(
                live.contains(&("pool_busy_workers".to_string(), 1)),
                "{live:?}"
            );
            gate.store(true, Ordering::Release);
            h.join();
            pool.shutdown();
        });
        // Pool gone: gauges degrade to 0 rather than dangle.
        assert_eq!(tracer.gauges.read_all()[0].1, 0);
    }

    #[test]
    fn try_join_nonblocking() {
        let clock = Clock::real_nospin();
        clock.enter(|| {
            let pool = TaskPool::new(&Clock::current(), 1);
            let gate = Arc::new(AtomicBool::new(false));
            let g2 = gate.clone();
            let h = pool.submit(move || {
                while !g2.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                5u32
            });
            assert!(!h.is_finished());
            gate.store(true, Ordering::Release);
            assert_eq!(h.join(), 5);
            pool.shutdown();
        });
    }
}
