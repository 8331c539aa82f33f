//! Real-time clock: OS threads and wall-clock time; work costs nothing
//! beyond the time it takes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether a thread that polls can overlap the thread it waits for. Asked
/// once, of the thread that creates the process's first real clock: a
/// later caller may be a client pinned to one CPU, and
/// `available_parallelism` would answer for that thread alone.
fn multi_cpu() -> bool {
    static MULTI_CPU: OnceLock<bool> = OnceLock::new();
    *MULTI_CPU.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

pub(crate) struct RealClock {
    origin: Instant,
    /// Waiters poll before they park (see `event::real_poll_until`).
    pub(crate) multi_cpu: bool,
    // ordering: relaxed-rmw — monotonic thread-id source; ids only need
    // uniqueness, nothing is published through the counter.
    next_tid: AtomicUsize,
}

impl RealClock {
    pub(crate) fn new() -> Self {
        RealClock {
            origin: Instant::now(),
            multi_cpu: multi_cpu(),
            next_tid: AtomicUsize::new(0),
        }
    }

    pub(crate) fn register(&self) -> usize {
        self.next_tid.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn deregister(&self) {}

    pub(crate) fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}
