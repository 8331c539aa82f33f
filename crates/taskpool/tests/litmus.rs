//! Litmus test for the pool's polling seat — the dynamic counterpart of
//! `wtf-audit`'s static checks, named after the inventory entry
//! (`results/audit_inventory.json`) whose protocol it drives. Runs under
//! Miri and TSan in CI; the iteration count scales down under Miri.

use std::sync::mpsc;
use std::time::{Duration, Instant};
use wtf_taskpool::TaskPool;
use wtf_vclock::Clock;

const ROUNDS: u64 = if cfg!(miri) { 20 } else { 20_000 };

/// SB shape over `polling` and the queue. Submitter: push, fence, read
/// `polling` (up: wake nobody). Retiring poller: `polling = false`, fence,
/// look at the queue. The forbidden outcome is both reading the old value
/// — the task sits in the queue, every worker parked — and it shows as a
/// join that never returns. Each join leaves the one worker polling (it
/// has just run a task), and the next task is pushed after a delay swept
/// across the time the poller gives up; nothing else is pushed until that
/// task has run, so a later wake cannot rescue it.
#[test]
fn polling_seat_given_up_strands_no_task() {
    let (finished, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        Clock::real_nospin().enter(|| {
            let pool = TaskPool::new(&Clock::current(), 1);
            for round in 0..ROUNDS {
                // 0–100 µs in steps of 37 ns: the seat is held for tens of µs.
                let delay = Duration::from_nanos(round * 37 % 100_000);
                let start = Instant::now();
                while start.elapsed() < delay {
                    std::hint::spin_loop();
                }
                assert_eq!(pool.submit(move || round).join(), round);
            }
            pool.shutdown();
        });
        let _ = finished.send(());
    });
    outcome
        .recv_timeout(Duration::from_secs(if cfg!(miri) { 600 } else { 120 }))
        .expect("a task pushed while the poller gave up its seat was never run");
}
