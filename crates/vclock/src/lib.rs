//! # wtf-vclock — virtual-time and real-time execution substrate
//!
//! The PPoPP'21 transactional-futures paper evaluates WTF-TM on a 56-core
//! Xeon. To reproduce the *shape* of those experiments on arbitrary hosts
//! (including single-core CI boxes), this crate provides a **deterministic
//! discrete-event virtual clock**: every simulated thread owns a virtual
//! timestamp, work is charged in virtual cost units via [`Clock::advance`],
//! and a cooperative scheduler always runs the thread with the smallest
//! timestamp. Blocking (future evaluation, commit waits, injected delays)
//! is virtualized through [`Event`]s, and shared hardware bottlenecks (the
//! memory bus) are modeled with [`Resource`]s.
//!
//! The same API also runs in **real-time mode** ([`Clock::real_nospin`]),
//! where `advance` charges nothing (the work itself takes the time),
//! events are condition variables (polled briefly before a thread parks on
//! them) and threads are plain OS threads — used by the unit/stress
//! tests and the real-thread benchmark.
//!
//! Virtual executions are fully deterministic: scheduling ties are broken
//! by thread spawn order, so a run is a pure function of the workload's RNG
//! seeds. This is what makes the figure harnesses in `wtf-bench`
//! reproducible.
//!
//! ## Example
//!
//! ```
//! use wtf_vclock::Clock;
//!
//! let clock = Clock::virtual_time();
//! let total = clock.enter(|| {
//!     let c = Clock::current();
//!     let h = c.spawn("worker", || {
//!         Clock::current().advance(500);
//!         42u64
//!     });
//!     c.advance(100);
//!     h.join()
//! });
//! assert_eq!(total, 42);
//! // the worker ran 500 units of virtual work => makespan is 500
//! assert_eq!(clock.makespan(), 500);
//! ```

mod event;
mod real;
mod virt;

pub use event::Event;

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::Arc;

use real::RealClock;
use virt::VirtualClock;

/// Identifier of a shared serializing resource (e.g. the memory bus).
///
/// In virtual mode, [`Clock::acquire`] on a resource serializes the charged
/// cost across all threads: the resource has a single "free-at" horizon and
/// each acquisition pushes it forward, so aggregate throughput through the
/// resource is bounded regardless of thread count. This is how the
/// evaluation models memory-bandwidth saturation (Fig. 6 left: a fully
/// memory-bound workload does not speed up with more futures).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resource(pub(crate) usize);

/// Handle for joining a thread spawned with [`Clock::spawn`].
pub struct JoinHandle<T> {
    result: Arc<Mutex<Option<std::thread::Result<T>>>>,
    done: Event,
    clock: Clock,
    os: Option<std::thread::JoinHandle<()>>,
}

impl<T> JoinHandle<T> {
    /// Blocks (in clock time) until the thread finishes and returns its
    /// result. Panics raised inside the thread are propagated.
    pub fn join(mut self) -> T {
        let result = self.result.clone();
        // A thread's exit is not a hand-off: park at once.
        self.clock
            .park_until(&self.done, || result.lock().is_some());
        // In real mode also join the OS thread so its stack is reclaimed
        // deterministically. In virtual mode the OS thread has already
        // deregistered from the scheduler by the time `done` fires; joining
        // it here keeps teardown tidy without affecting virtual time.
        if let Some(os) = self.os.take() {
            let _ = os.join();
        }
        match self.result.lock().take().expect("thread result present") {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Returns true once the thread has finished (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.result.lock().is_some()
    }
}

enum ClockImpl {
    Real(RealClock),
    Virtual(VirtualClock),
}

/// A clock under which threads execute, charge work and block.
///
/// Cloning a `Clock` yields another handle to the same underlying clock.
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockImpl>,
}

thread_local! {
    /// The clock the current OS thread is registered with (if any) and its
    /// virtual thread id. Real-mode threads register too, so that
    /// `Clock::current()` works uniformly.
    static CURRENT: RefCell<Option<(Clock, usize)>> = const { RefCell::new(None) };
}

impl Clock {
    /// A real-time clock: `advance` is a no-op, events are condition
    /// variables, `now` is wall-clock nanoseconds.
    pub fn real_nospin() -> Self {
        Clock {
            inner: Arc::new(ClockImpl::Real(RealClock::new())),
        }
    }

    /// A deterministic virtual-time clock. Enter it with [`Clock::enter`].
    pub fn virtual_time() -> Self {
        Clock {
            inner: Arc::new(ClockImpl::Virtual(VirtualClock::new())),
        }
    }

    /// The clock the calling thread is registered with.
    ///
    /// Panics if the thread is not running under any clock (i.e. neither
    /// inside [`Clock::enter`] nor spawned via [`Clock::spawn`]).
    pub fn current() -> Clock {
        CURRENT.with(|c| {
            c.borrow()
                .as_ref()
                .map(|(clock, _)| clock.clone())
                .expect("Clock::current() called outside any clock context")
        })
    }

    /// Like [`Clock::current`] but returns `None` instead of panicking.
    pub fn try_current() -> Option<Clock> {
        CURRENT.with(|c| c.borrow().as_ref().map(|(clock, _)| clock.clone()))
    }

    fn current_tid() -> Option<usize> {
        CURRENT.with(|c| c.borrow().as_ref().map(|(_, tid)| *tid))
    }

    /// True for virtual-time clocks.
    pub fn is_virtual(&self) -> bool {
        matches!(&*self.inner, ClockImpl::Virtual(_))
    }

    /// Registers the calling OS thread as the root thread of this clock and
    /// runs `f` under it. All threads spawned inside must be joined before
    /// `f` returns (the virtual scheduler panics on leaked live threads so
    /// that lost-thread bugs surface immediately).
    pub fn enter<T>(&self, f: impl FnOnce() -> T) -> T {
        let tid = match &*self.inner {
            ClockImpl::Real(r) => r.register(),
            ClockImpl::Virtual(v) => v.register_root(),
        };
        let prev = CURRENT.with(|c| c.borrow_mut().replace((self.clone(), tid)));
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        CURRENT.with(|c| *c.borrow_mut() = prev);
        match &*self.inner {
            ClockImpl::Real(r) => r.deregister(),
            ClockImpl::Virtual(v) => v.deregister(tid, out.is_err()),
        }
        match out {
            Ok(v) => v,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Current time of the calling thread: virtual units in virtual mode,
    /// nanoseconds since clock creation in real mode.
    pub fn now(&self) -> u64 {
        match &*self.inner {
            ClockImpl::Real(r) => r.now(),
            ClockImpl::Virtual(v) => v.now(Self::current_tid().expect("not a clock thread")),
        }
    }

    /// Charges `cost` units of CPU work to the calling thread.
    pub fn advance(&self, cost: u64) {
        if cost == 0 {
            return;
        }
        match &*self.inner {
            ClockImpl::Real(_) => {}
            ClockImpl::Virtual(v) => {
                v.advance(Self::current_tid().expect("not a clock thread"), cost)
            }
        }
    }

    /// Creates a new shared serializing resource.
    pub fn new_resource(&self) -> Resource {
        match &*self.inner {
            ClockImpl::Real(_) => Resource(usize::MAX),
            ClockImpl::Virtual(v) => v.new_resource(),
        }
    }

    /// Charges `cost` units through a shared resource: in virtual mode the
    /// cost is serialized globally across threads (modeling a saturated
    /// bus); in real mode it charges nothing, like [`Clock::advance`].
    pub fn acquire(&self, res: Resource, cost: u64) {
        if cost == 0 {
            return;
        }
        match &*self.inner {
            ClockImpl::Real(_) => {}
            ClockImpl::Virtual(v) => {
                v.acquire(Self::current_tid().expect("not a clock thread"), res, cost)
            }
        }
    }

    /// Creates an event usable with [`Clock::wait_until`] / [`Clock::notify_all`].
    pub fn new_event(&self) -> Event {
        match &*self.inner {
            ClockImpl::Real(_) => Event::new_real(),
            ClockImpl::Virtual(v) => Event::new_virtual(v.new_event()),
        }
    }

    /// Blocks the calling thread until `pred()` is true. `pred` is
    /// re-checked after every notification of `event`.
    ///
    /// The contract mirrors condition variables: any state change that can
    /// turn `pred` true must be followed by a notification of `event`.
    ///
    /// On a real clock the thread first polls `pred` for about one
    /// park/unpark round trip (see [`Clock::poll_until`]) and parks only
    /// then: the waits of a future hand-off usually end sooner.
    pub fn wait_until(&self, event: &Event, mut pred: impl FnMut() -> bool) {
        if self.is_virtual() || !self.poll_until(&mut pred) {
            self.park_until(event, pred);
        }
    }

    /// [`Clock::wait_until`] without the polling: for a thread that expects
    /// a long wait, such as an idle pool worker.
    pub fn park_until(&self, event: &Event, mut pred: impl FnMut() -> bool) {
        match &*self.inner {
            ClockImpl::Real(_) => event.real_park_until(&mut pred),
            ClockImpl::Virtual(v) => {
                let tid = Self::current_tid().expect("not a clock thread");
                loop {
                    if pred() {
                        return;
                    }
                    // Cooperative scheduling: no other virtual thread can
                    // run between the check above and the wait below, so
                    // there is no lost-wakeup window.
                    v.wait(tid, event.virtual_id());
                }
            }
        }
    }

    /// The polling half of [`Clock::wait_until`]: true as soon as `pred()`
    /// holds, false once a bounded time (tens of microseconds) has passed
    /// without it. Under a virtual clock, and on a single CPU, nothing can
    /// change while the caller polls, so `pred()` is looked at once.
    pub fn poll_until(&self, mut pred: impl FnMut() -> bool) -> bool {
        match &*self.inner {
            ClockImpl::Real(r) => event::real_poll_until(r.multi_cpu, &mut pred),
            ClockImpl::Virtual(_) => pred(),
        }
    }

    /// Wakes every thread waiting on `event`.
    pub fn notify_all(&self, event: &Event) {
        match &*self.inner {
            ClockImpl::Real(_) => event.real_notify(true),
            ClockImpl::Virtual(v) => v.notify_all(Self::current_tid(), event.virtual_id()),
        }
    }

    /// Wakes one thread waiting on `event`, for waiters that are
    /// interchangeable (pool workers). A virtual clock wakes them all:
    /// which one would run is the scheduler's decision, by timestamp.
    pub fn notify_one(&self, event: &Event) {
        match &*self.inner {
            ClockImpl::Real(_) => event.real_notify(false),
            ClockImpl::Virtual(_) => self.notify_all(event),
        }
    }

    /// Spawns a thread under this clock. In virtual mode the child starts
    /// at the parent's current virtual time.
    pub fn spawn<T: Send + 'static>(
        &self,
        name: &str,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> JoinHandle<T> {
        let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
        let done = self.new_event();
        let clock = self.clone();
        let r2 = result.clone();
        let d2 = done.clone();
        let tid = match &*self.inner {
            ClockImpl::Real(r) => r.register(),
            ClockImpl::Virtual(v) => {
                v.register_child(Self::current_tid().expect("spawn outside clock context"))
            }
        };
        let os = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                if let ClockImpl::Virtual(v) = &*clock.inner {
                    // Block until the scheduler hands us the execution token.
                    v.start_child(tid);
                }
                let prev = CURRENT.with(|c| c.borrow_mut().replace((clock.clone(), tid)));
                let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                CURRENT.with(|c| *c.borrow_mut() = prev);
                let panicked = out.is_err();
                *r2.lock() = Some(out);
                clock.notify_all(&d2);
                match &*clock.inner {
                    ClockImpl::Real(r) => r.deregister(),
                    ClockImpl::Virtual(v) => v.deregister(tid, panicked),
                }
            })
            .expect("failed to spawn OS thread");
        JoinHandle {
            result,
            done,
            clock: self.clone(),
            os: Some(os),
        }
    }

    /// Largest virtual time reached by any finished thread (virtual mode),
    /// or elapsed nanoseconds (real mode). This is the makespan used by the
    /// figure harnesses to compute speedups.
    pub fn makespan(&self) -> u64 {
        match &*self.inner {
            ClockImpl::Real(r) => r.now(),
            ClockImpl::Virtual(v) => v.makespan(),
        }
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &*self.inner {
            ClockImpl::Real(_) => write!(f, "Clock::Real"),
            ClockImpl::Virtual(_) => write!(f, "Clock::Virtual"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_basic() {
        let clock = Clock::real_nospin();
        let out = clock.enter(|| {
            let c = Clock::current();
            c.advance(1000);
            let h = c.spawn("t", || 7u32);
            h.join()
        });
        assert_eq!(out, 7);
    }

    #[test]
    fn virtual_sequentializes_by_time() {
        let clock = Clock::virtual_time();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = order.clone();
        let o2 = order.clone();
        clock.enter(move || {
            let c = Clock::current();
            let h1 = c.spawn("a", move || {
                let c = Clock::current();
                c.advance(10);
                o1.lock().push(("a", c.now()));
            });
            let h2 = c.spawn("b", move || {
                let c = Clock::current();
                c.advance(5);
                o2.lock().push(("b", c.now()));
            });
            h1.join();
            h2.join();
        });
        let v = order.lock().clone();
        // "b" reaches time 5 before "a" reaches 10: deterministic order.
        assert_eq!(v, vec![("b", 5), ("a", 10)]);
        assert_eq!(clock.makespan(), 10);
    }

    #[test]
    fn virtual_event_wait_notify() {
        let clock = Clock::virtual_time();
        let total = clock.enter(|| {
            let c = Clock::current();
            let ev = c.new_event();
            let flag = Arc::new(Mutex::new(false));
            let f2 = flag.clone();
            let ev2 = ev.clone();
            let h = c.spawn("producer", move || {
                let c = Clock::current();
                c.advance(100);
                *f2.lock() = true;
                c.notify_all(&ev2);
                1u64
            });
            c.wait_until(&ev, || *flag.lock());
            // The waiter inherits the notifier's time.
            let now = c.now();
            h.join();
            now
        });
        assert_eq!(total, 100);
    }

    #[test]
    fn resource_serializes_cost() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let bus = c.new_resource();
            let mut handles = Vec::new();
            for i in 0..4 {
                handles.push(c.spawn(&format!("m{i}"), move || {
                    let c = Clock::current();
                    for _ in 0..10 {
                        c.acquire(bus, 10);
                    }
                }));
            }
            for h in handles {
                h.join();
            }
        });
        // 4 threads x 10 ops x 10 units fully serialized = 400.
        assert_eq!(clock.makespan(), 400);
    }

    #[test]
    fn parallel_cpu_work_overlaps() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let hs: Vec<_> = (0..8)
                .map(|i| {
                    c.spawn(&format!("w{i}"), || {
                        Clock::current().advance(1000);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
        });
        // Independent CPU work is fully parallel in virtual time.
        assert_eq!(clock.makespan(), 1000);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn virtual_deadlock_detected() {
        let clock = Clock::virtual_time();
        clock.enter(|| {
            let c = Clock::current();
            let ev = c.new_event();
            // Nobody will ever notify.
            c.wait_until(&ev, || false);
        });
    }

    #[test]
    fn panics_propagate_through_join() {
        let clock = Clock::virtual_time();
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            clock.enter(|| {
                let c = Clock::current();
                let h = c.spawn("boom", || panic!("kapow"));
                h.join()
            })
        }));
        assert!(res.is_err());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let clock = Clock::virtual_time();
            let log = Arc::new(Mutex::new(Vec::new()));
            clock.enter(|| {
                let c = Clock::current();
                let hs: Vec<_> = (0..5u64)
                    .map(|i| {
                        let log = log.clone();
                        c.spawn(&format!("t{i}"), move || {
                            let c = Clock::current();
                            for k in 0..4u64 {
                                c.advance((i + 1) * 7 + k);
                                log.lock().push((i, c.now()));
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join();
                }
            });
            let v = log.lock().clone();
            (v, clock.makespan())
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The virtual makespan of independent workers equals the maximum
        /// per-worker total, regardless of interleaving.
        #[test]
        fn makespan_is_max_of_sums(work in proptest::collection::vec(
            proptest::collection::vec(1u64..500, 1..8), 1..6)) {
            let clock = Clock::virtual_time();
            let expected: u64 = work.iter().map(|w| w.iter().sum::<u64>()).max().unwrap();
            clock.enter(|| {
                let c = Clock::current();
                let hs: Vec<_> = work
                    .iter()
                    .cloned()
                    .enumerate()
                    .map(|(i, chunks)| {
                        c.spawn(&format!("w{i}"), move || {
                            for ch in chunks {
                                Clock::current().advance(ch);
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join();
                }
            });
            prop_assert_eq!(clock.makespan(), expected);
        }

        /// A serializing resource bounds aggregate throughput: makespan is
        /// at least the total cost through the resource and at least every
        /// thread's own demand.
        #[test]
        fn resource_lower_bounds(costs in proptest::collection::vec(
            (1u64..100, 1u64..100), 1..6)) {
            let clock = Clock::virtual_time();
            let bus_total: u64 = costs.iter().map(|&(_, bus)| bus * 3).sum();
            let per_thread_max: u64 = costs.iter().map(|&(cpu, bus)| (cpu + bus) * 3).max().unwrap();
            clock.enter(|| {
                let c = Clock::current();
                let bus = c.new_resource();
                let hs: Vec<_> = costs
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, (cpu, b))| {
                        c.spawn(&format!("m{i}"), move || {
                            let c = Clock::current();
                            for _ in 0..3 {
                                c.advance(cpu);
                                c.acquire(bus, b);
                            }
                        })
                    })
                    .collect();
                for h in hs {
                    h.join();
                }
            });
            prop_assert!(clock.makespan() >= bus_total);
            prop_assert!(clock.makespan() >= per_thread_max);
        }
    }
}
