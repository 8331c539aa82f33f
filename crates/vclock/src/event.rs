//! Events: the blocking primitive shared by both clock modes.
//!
//! An event is a wakeup channel with no payload. Real mode implements it as
//! a condition variable plus a count of the threads parked on it (notifiers
//! make their state change visible *first*, then look at the count; a
//! waiter announces itself in the count *before* its last look at the
//! predicate — see [`RealEvent::waiters`]). A waiter polls its predicate
//! for [`POLL_BOUND`] before it parks, so a hand-off between two busy
//! threads puts neither to sleep. Virtual mode stores an index into the
//! scheduler's waiter table; the cooperative scheduler makes the
//! check-then-wait sequence atomic.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{fence, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a waiter polls its predicate before it parks: one park/unpark
/// round trip. Parking and being woken costs both sides about that much
/// (`taskpool.roundtrip_ns` read 35–45 µs on the 2-vCPU reference box), so
/// polling this long at most doubles the cost of a wait that does park and
/// removes both sleeps from one that would have ended sooner. Not fitted to
/// a workload: see DESIGN.md, "Future hand-off on real threads".
const POLL_BOUND: Duration = Duration::from_micros(50);

/// `spin_loop` hints between two looks at the predicate, which may take a
/// mutex the notifier needs.
const POLL_PAUSES: u32 = 8;

#[derive(Clone)]
pub struct Event {
    inner: EventImpl,
}

#[derive(Clone)]
enum EventImpl {
    Real(Arc<RealEvent>),
    Virtual(usize),
}

struct RealEvent {
    /// Threads between announcing a park and returning from it.
    // ordering: seqcst-rmw, seqcst-load — one half of a Dekker pairing
    // with the predicate's state. Waiter: `waiters += 1`, SeqCst fence,
    // `pred()`. Notifier: state change, SeqCst fence, load `waiters`.
    // Of the two fences one comes first: either the notifier sees the
    // count (and notifies under `lock`) or the waiter sees the state (and
    // does not park). A zero count therefore costs the notifier no mutex
    // and no syscall.
    waiters: AtomicUsize,
    /// Held by a waiter from its last `pred()` until the condvar has
    /// queued it, and by a notifier around its notify, so a notifier that
    /// saw the count cannot slip between the two.
    lock: Mutex<()>,
    cv: Condvar,
}

/// Polls `pred` for [`POLL_BOUND`]; true as soon as it holds. On a single
/// CPU (`!multi_cpu`) the thread that would make it hold cannot run while
/// this one polls, so there the answer is `pred()` as it stands.
pub(crate) fn real_poll_until(multi_cpu: bool, pred: &mut dyn FnMut() -> bool) -> bool {
    if pred() {
        return true;
    }
    if !multi_cpu {
        return false;
    }
    let start = Instant::now();
    while start.elapsed() < POLL_BOUND {
        for _ in 0..POLL_PAUSES {
            std::hint::spin_loop();
        }
        if pred() {
            return true;
        }
    }
    false
}

impl Event {
    pub(crate) fn new_real() -> Event {
        Event {
            inner: EventImpl::Real(Arc::new(RealEvent {
                waiters: AtomicUsize::new(0),
                lock: Mutex::new(()),
                cv: Condvar::new(),
            })),
        }
    }

    pub(crate) fn new_virtual(id: usize) -> Event {
        Event {
            inner: EventImpl::Virtual(id),
        }
    }

    pub(crate) fn virtual_id(&self) -> usize {
        match &self.inner {
            EventImpl::Virtual(id) => *id,
            EventImpl::Real(_) => panic!("real event used with a virtual clock"),
        }
    }

    fn real(&self) -> &RealEvent {
        match &self.inner {
            EventImpl::Real(ev) => ev,
            EventImpl::Virtual(_) => panic!("virtual event used with a real clock"),
        }
    }

    /// Parks until `pred` holds, without polling first.
    pub(crate) fn real_park_until(&self, pred: &mut dyn FnMut() -> bool) {
        let ev = self.real();
        ev.waiters.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let mut guard = ev.lock.lock();
        // The predicate reads state guarded by its own synchronization
        // (atomics / other mutexes). A notifier that changed it before our
        // fence is seen here; one that changes it later sees `waiters` and
        // notifies once the wait below has released `lock`.
        while !pred() {
            ev.cv.wait(&mut guard);
        }
        drop(guard);
        ev.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Wakes every parked waiter (`all`) or one of them.
    pub(crate) fn real_notify(&self, all: bool) {
        let ev = self.real();
        fence(Ordering::SeqCst);
        if ev.waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        let _guard = ev.lock.lock();
        if all {
            ev.cv.notify_all();
        } else {
            ev.cv.notify_one();
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            EventImpl::Real(_) => write!(f, "Event::Real"),
            EventImpl::Virtual(id) => write!(f, "Event::Virtual({id})"),
        }
    }
}
