//! Litmus test for the real-clock `Event` — the dynamic counterpart of
//! `wtf-audit`'s static checks, named after the inventory entry
//! (`results/audit_inventory.json`) whose protocol it drives. Runs under
//! Miri and TSan in CI; the iteration count scales down under Miri.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use wtf_vclock::Clock;

const ROUNDS: u64 = if cfg!(miri) { 40 } else { 20_000 };

/// Two-party rendezvous that spins, so both sides leave within a cache
/// miss of each other and the notifier's look at `waiters` can land
/// inside the waiter's announce-then-check.
fn meet(arrivals: &AtomicU64, nth: u64) {
    arrivals.fetch_add(1, Ordering::SeqCst);
    let mut spins = 0u32;
    while arrivals.load(Ordering::SeqCst) < 2 * nth {
        spins += 1;
        if cfg!(miri) || spins > 2_000 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// SB shape over `waiters` and the predicate's state. Waiter: `waiters +=
/// 1`, fence, read the flag. Notifier: set the flag, fence, read
/// `waiters`. The forbidden outcome is both reading the old value — the
/// waiter parks on a flag that is already up and the notifier, having seen
/// nobody, has skipped the notify — and it shows as a round that never
/// ends. `park_until` is the waiter with no polling phase in front, which
/// would otherwise hide the window.
#[test]
fn waiters_announce_then_check_never_loses_a_wakeup() {
    let (finished, outcome) = mpsc::channel();
    std::thread::spawn(move || {
        Clock::real_nospin().enter(|| {
            let clock = Clock::current();
            let event = clock.new_event();
            let flag = Arc::new(AtomicBool::new(false));
            let arrivals = Arc::new(AtomicU64::new(0));
            let notifier = {
                let (clock, event, flag, arrivals) =
                    (clock.clone(), event.clone(), flag.clone(), arrivals.clone());
                clock.clone().spawn("notifier", move || {
                    for round in 0..ROUNDS {
                        meet(&arrivals, 2 * round + 1);
                        // Sweep the notify across the waiter's way in.
                        for _ in 0..round % 64 {
                            std::hint::spin_loop();
                        }
                        flag.store(true, Ordering::Release);
                        clock.notify_all(&event);
                        meet(&arrivals, 2 * round + 2);
                    }
                })
            };
            for round in 0..ROUNDS {
                flag.store(false, Ordering::Release);
                meet(&arrivals, 2 * round + 1);
                clock.park_until(&event, || flag.load(Ordering::Acquire));
                meet(&arrivals, 2 * round + 2);
            }
            notifier.join();
        });
        let _ = finished.send(());
    });
    outcome
        .recv_timeout(Duration::from_secs(if cfg!(miri) { 600 } else { 120 }))
        .expect("a waiter parked on a state change its notifier had already made");
}
