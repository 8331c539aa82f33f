//! Active-transaction registry: JVSTM's `ActiveTransactionsRecord`,
//! shared by both backends through [`Horizon`](crate::Horizon).
//!
//! Tracks which snapshot versions are still in use, so that commit-time
//! GC can prune version chains (mvstm) and free retired box bodies (both
//! backends) down to the oldest live snapshot.
//!
//! The registry is a dense slot array rather than a mutex-protected
//! map. Registration claims the lowest free slot, after first trying the
//! slot its thread claimed last, so a thread that registers over and over
//! rewrites one warm line. A high-water mark `hwm` bounds the slots ever
//! claimed, and the GC horizon scan
//! ([`ActiveRegistry::min_active_excluding`]) reads `hwm` and the slots
//! below it, lock-free: with two clients, three lines. Deregistration is
//! a single store. A small mutex-protected overflow map catches the
//! (never-in-practice) case of more than [`SLOT_COUNT`] simultaneous
//! transactions.
//!
//! ## Why the lock-free registration/GC race is safe
//!
//! The danger is a GC horizon that *exceeds* a live snapshot: a committer
//! would then free versions that snapshot can still read. Every operation
//! in the registration/GC protocol uses `SeqCst` (the pure diagnostics
//! accessors at the bottom are relaxed — they decide nothing), so there
//! is a single total order `S` over them.
//! Consider a registrant R claiming slot `i` and a committer C publishing
//! version `v` (a `SeqCst` store of the clock in `commit_attributed`):
//!
//! * R makes sure `hwm > i` (a load that sees it, or a `fetch_max`),
//!   claims slot `i` with some clock reading, then **re-reads the clock
//!   and republishes its slot until the value is stable** (a
//!   seqlock-style loop).
//! * C first publishes `clock = v`, then loads `hwm` and scans the slots
//!   below it.
//!
//! If R's final clock read precedes C's publication in `S`, R's snapshot
//! is `< v`; but then R's `hwm` access and slot store (which precede that
//! read in program order, hence in `S`) also precede C's scan, so C reads
//! `hwm > i` (it only grows) and sees the slot, and keeps R's versions.
//! If instead R's final clock read follows the publication, R re-reads
//! `>= v` and republishes — its snapshot is at the new clock, which GC
//! never prunes below. Either way the horizon never exceeds a live
//! snapshot. Stale *low* values seen mid-loop only make GC more
//! conservative, never less.

use crate::threads;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Fast-path capacity; registrations beyond this spill to the overflow
/// map.
pub(crate) const SLOT_COUNT: usize = 512;

/// Slot value meaning "no registration here".
const EMPTY: u64 = u64::MAX;

/// Token returned for registrations that landed in the overflow map.
pub(crate) const OVERFLOW_TOKEN: usize = usize::MAX;

/// One registration slot. Neighbouring slots belong to different threads,
/// so each sits on lines of its own: 128 bytes, because the adjacent-line
/// prefetcher pulls lines in pairs.
// ordering(Slot, slot, slots): seqcst-cas claims a free slot (the
// failure side is relaxed-cas — a busy slot is just skipped);
// seqcst-store republishes the chased clock and releases the slot;
// seqcst-load in the GC scan and the idle check joins the single total
// order with the clock publication (module docs). relaxed-load in the
// claim scan's probe and the diagnostics. relaxed-guard: the probe only
// skips a busy slot (the CAS decides), and the diagnostics filter gates
// reporting, never reclamation.
#[repr(align(128))]
struct Slot(AtomicU64);

pub(crate) struct ActiveRegistry {
    slots: Box<[Slot]>,
    /// One past the highest slot ever claimed: no slot at or above it
    /// has held a registration. Raised before a slot is claimed, never
    /// lowered, so the scans stop there.
    // ordering: seqcst-rmw (`fetch_max`) and seqcst-load on the claim
    // path and in the GC scan and idle check keep the raise-before-claim
    // discipline inside the registry's single total order (module docs);
    // relaxed-load in the diagnostics accessors. relaxed-guard: there it
    // bounds a gauge's loop, never reclamation.
    hwm: AtomicUsize,
    /// Spill map: snapshot version -> registration count. Only touched
    /// when the slot array is full.
    // lock-order: registry-overflow — a leaf lock: taken with stripe
    // locks already held on the commit/GC path, never the other way.
    overflow: Mutex<BTreeMap<u64, usize>>,
    /// Upper bound on overflow registrations; lets the scan skip the
    /// mutex entirely in the common case. Incremented before an overflow
    /// registration, decremented after its release.
    // ordering: seqcst-rmw register/deregister and seqcst-load in the GC
    // scan (module docs); relaxed-load in the diagnostics accessors.
    // relaxed-guard: the diagnostic nonzero checks only gate extra
    // reporting work, never reclamation.
    overflow_count: AtomicUsize,
}

/// Takes one count of `version` out of a version -> count map.
fn take_one(map: &mut BTreeMap<u64, usize>, version: u64) {
    match map.get_mut(&version) {
        Some(n) if *n > 1 => *n -= 1,
        Some(_) => {
            map.remove(&version);
        }
        None => unreachable!("deregister without a matching register"),
    }
}

impl ActiveRegistry {
    pub(crate) fn new() -> Self {
        ActiveRegistry {
            slots: (0..SLOT_COUNT)
                .map(|_| Slot(AtomicU64::new(EMPTY)))
                .collect(),
            hwm: AtomicUsize::new(0),
            overflow: Mutex::new(BTreeMap::new()),
            overflow_count: AtomicUsize::new(0),
        }
    }

    /// Registers a transaction at the current clock value and returns
    /// `(snapshot, slot_token)`. The token must be passed back to
    /// [`ActiveRegistry::deregister`].
    ///
    /// Tries the slot this thread claimed last, if it lies below `hwm`,
    /// then the lowest free slot. See the module docs for why the
    /// slot-claim / clock-recheck loop makes this safe against a
    /// concurrent committer's GC scan.
    pub(crate) fn register_current(&self, clock: &AtomicU64) -> (u64, usize) {
        let last = threads::last_slot();
        if last < self.hwm.load(Ordering::SeqCst) {
            if let Some(claimed) = self.claim(last, clock) {
                return claimed;
            }
        }
        for idx in 0..SLOT_COUNT {
            if self.slots[idx].0.load(Ordering::Relaxed) != EMPTY {
                continue;
            }
            if let Some(claimed) = self.claim(idx, clock) {
                return claimed;
            }
        }
        self.register_overflow(clock)
    }

    /// Claims slot `idx` at the current clock, or `None` if it is taken.
    fn claim(&self, idx: usize, clock: &AtomicU64) -> Option<(u64, usize)> {
        // Raise the mark before the slot can hold a snapshot (module
        // docs); a load that already sees it raised is as good.
        if self.hwm.load(Ordering::SeqCst) <= idx {
            self.hwm.fetch_max(idx + 1, Ordering::SeqCst);
        }
        let slot = &self.slots[idx].0;
        let mut snapshot = clock.load(Ordering::SeqCst);
        slot.compare_exchange(EMPTY, snapshot, Ordering::SeqCst, Ordering::Relaxed)
            .ok()?;
        // Republish until the clock is stable: any commit that published
        // between our clock read and the slot store might have scanned
        // before the store, so chase the clock up to a value the next
        // scan must honour.
        loop {
            let now = clock.load(Ordering::SeqCst);
            if now == snapshot {
                break;
            }
            slot.store(now, Ordering::SeqCst);
            snapshot = now;
        }
        threads::set_last_slot(idx);
        Some((snapshot, idx))
    }

    /// Slow path: every slot busy. Registers in the mutex-protected map
    /// with the same publish-then-recheck discipline.
    #[cold]
    fn register_overflow(&self, clock: &AtomicU64) -> (u64, usize) {
        self.overflow_count.fetch_add(1, Ordering::SeqCst);
        let mut map = self.overflow.lock();
        let mut snapshot = clock.load(Ordering::SeqCst);
        *map.entry(snapshot).or_insert(0) += 1;
        loop {
            let now = clock.load(Ordering::SeqCst);
            if now == snapshot {
                break;
            }
            take_one(&mut map, snapshot);
            *map.entry(now).or_insert(0) += 1;
            snapshot = now;
        }
        (snapshot, OVERFLOW_TOKEN)
    }

    /// Deregisters a transaction. `token` is the slot token returned by
    /// [`ActiveRegistry::register_current`]; `snapshot` is only consulted
    /// for overflow registrations.
    pub(crate) fn deregister(&self, token: usize, snapshot: u64) {
        if token == OVERFLOW_TOKEN {
            // Not `drop(guard)`: the lock-order audit would read a call
            // to this crate's `Drop` impls, which take the retire lock.
            take_one(&mut self.overflow.lock(), snapshot);
            self.overflow_count.fetch_sub(1, Ordering::SeqCst);
        } else {
            self.slots[token].0.store(EMPTY, Ordering::SeqCst);
        }
    }

    /// The slots that may hold a registration (`SeqCst`: see the module
    /// docs).
    fn claimed(&self) -> &[Slot] {
        &self.slots[..self.hwm.load(Ordering::SeqCst)]
    }

    /// Oldest snapshot still in use, or `fallback` (the just-published
    /// clock) if no transaction is active: versions older than the result
    /// are unreachable and may be pruned.
    ///
    /// `excluding` discounts **one** registration at that version — the
    /// committing transaction's own snapshot, when it dies with the
    /// commit and must not pin old versions on its own behalf (pass
    /// `u64::MAX` to discount none). The scan is lock-free over the
    /// slots below `hwm` and only takes the overflow mutex when the
    /// overflow count is nonzero.
    pub(crate) fn min_active_excluding(&self, excluding: u64, fallback: u64) -> u64 {
        let mut min: Option<u64> = None;
        let mut excluded = false;
        for slot in self.claimed() {
            let v = slot.0.load(Ordering::SeqCst);
            if v == EMPTY {
                continue;
            }
            if !excluded && v == excluding {
                excluded = true;
                continue;
            }
            min = Some(min.map_or(v, |m| m.min(v)));
        }
        if self.overflow_count.load(Ordering::SeqCst) > 0 {
            let map = self.overflow.lock();
            for (&version, &count) in map.iter() {
                let mut count = count;
                if !excluded && version == excluding {
                    excluded = true;
                    count -= 1;
                }
                if count > 0 {
                    min = Some(min.map_or(version, |m| m.min(version)));
                    break; // BTreeMap iterates ascending: first hit is the min.
                }
            }
        }
        min.unwrap_or(fallback)
    }

    /// Whether no registration is held: a box whose last handle goes now
    /// has no borrower left. Every registration that could have borrowed
    /// it happened before the caller's last-handle drop, so these loads
    /// see its raise of `hwm` and its slot (or its release).
    pub(crate) fn is_idle(&self) -> bool {
        self.claimed()
            .iter()
            .all(|slot| slot.0.load(Ordering::SeqCst) == EMPTY)
            && self.overflow_count.load(Ordering::SeqCst) == 0
    }

    /// The registered snapshot versions below `hwm` (diagnostics:
    /// relaxed loads, exact only when no registration races the call).
    fn held(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots[..self.hwm.load(Ordering::Relaxed)]
            .iter()
            .map(|slot| slot.0.load(Ordering::Relaxed))
            .filter(|&v| v != EMPTY)
    }

    /// Number of distinct active snapshot versions (diagnostics).
    pub(crate) fn active_snapshots(&self) -> usize {
        let mut versions: Vec<u64> = self.held().collect();
        if self.overflow_count.load(Ordering::Relaxed) > 0 {
            versions.extend(self.overflow.lock().keys().copied());
        }
        versions.sort_unstable();
        versions.dedup();
        versions.len()
    }

    /// Occupied registration slots plus overflow registrations, i.e. how
    /// full the fixed-size registry is. A gauge read, racy by
    /// construction.
    pub(crate) fn occupancy(&self) -> usize {
        self.held().count() + self.overflow_count.load(Ordering::Relaxed)
    }

    /// The high-water mark (tests).
    #[cfg(test)]
    fn hwm(&self) -> usize {
        self.hwm.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_deregister_roundtrip() {
        let reg = ActiveRegistry::new();
        let clock = AtomicU64::new(7);
        let (snap, token) = reg.register_current(&clock);
        assert_eq!(snap, 7);
        assert_ne!(token, OVERFLOW_TOKEN);
        assert_eq!(reg.min_active_excluding(u64::MAX, 99), 7);
        reg.deregister(token, snap);
        assert_eq!(reg.min_active_excluding(u64::MAX, 99), 99);
    }

    #[test]
    fn excluding_discounts_exactly_one_registration() {
        let reg = ActiveRegistry::new();
        let clock = AtomicU64::new(5);
        let (s1, t1) = reg.register_current(&clock);
        // Only registration at 5 is the committer's own: horizon falls through.
        assert_eq!(reg.min_active_excluding(5, 42), 42);
        let (s2, t2) = reg.register_current(&clock);
        // A second registration at 5 still pins it.
        assert_eq!(reg.min_active_excluding(5, 42), 5);
        reg.deregister(t1, s1);
        reg.deregister(t2, s2);
    }

    #[test]
    fn overflow_path_engages_past_capacity() {
        let reg = ActiveRegistry::new();
        let clock = AtomicU64::new(3);
        let mut tokens = Vec::new();
        for _ in 0..SLOT_COUNT + 5 {
            tokens.push(reg.register_current(&clock));
        }
        assert!(tokens.iter().filter(|(_, t)| *t == OVERFLOW_TOKEN).count() == 5);
        assert_eq!(reg.hwm(), SLOT_COUNT);
        assert_eq!(reg.occupancy(), SLOT_COUNT + 5);
        assert_eq!(reg.min_active_excluding(u64::MAX, 99), 3);
        assert_eq!(reg.active_snapshots(), 1);
        for (snap, token) in tokens {
            reg.deregister(token, snap);
        }
        assert_eq!(reg.min_active_excluding(u64::MAX, 99), 99);
        assert_eq!(reg.active_snapshots(), 0);
    }

    /// `is_idle` sees a slot registration and an overflow one alike.
    #[test]
    fn idle_only_with_no_registration_left() {
        let reg = ActiveRegistry::new();
        let clock = AtomicU64::new(1);
        assert!(reg.is_idle());
        let mut held: Vec<_> = (0..=SLOT_COUNT)
            .map(|_| reg.register_current(&clock))
            .collect();
        let (snap, token) = held.pop().expect("one past capacity");
        assert_eq!(token, OVERFLOW_TOKEN);
        for (s, t) in held {
            reg.deregister(t, s);
        }
        assert!(!reg.is_idle(), "the overflow registration is held");
        reg.deregister(token, snap);
        assert!(reg.is_idle());
    }

    /// Direct race on the dense registry: while one snapshot stays
    /// pinned, the GC horizon returned to a concurrent committer must
    /// never exceed it, no matter how hard other threads churn
    /// register/deregister against a moving clock.
    #[test]
    fn registry_horizon_never_exceeds_live_snapshot() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let reg = Arc::new(ActiveRegistry::new());
        let clock = Arc::new(AtomicU64::new(0));
        let (pin_ver, pin_token) = reg.register_current(&clock);
        assert_eq!(pin_ver, 0);

        let stop = Arc::new(AtomicBool::new(false));
        let ticker = {
            let clock = clock.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    clock.fetch_add(1, Ordering::SeqCst);
                }
            })
        };
        let churners: Vec<_> = (0..4)
            .map(|_| {
                let reg = reg.clone();
                let clock = clock.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let (v, t) = reg.register_current(&clock);
                        reg.deregister(t, v);
                    }
                })
            })
            .collect();

        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(300);
        while std::time::Instant::now() < deadline {
            let fallback = clock.load(Ordering::SeqCst);
            let horizon = reg.min_active_excluding(u64::MAX, fallback);
            assert!(
                horizon <= pin_ver,
                "GC horizon {horizon} exceeded pinned live snapshot {pin_ver}"
            );
        }

        stop.store(true, Ordering::Relaxed);
        ticker.join().unwrap();
        for c in churners {
            c.join().unwrap();
        }
        reg.deregister(pin_token, pin_ver);
        assert_eq!(reg.min_active_excluding(u64::MAX, 12345), 12345);
        assert_eq!(reg.active_snapshots(), 0);
        assert_eq!(reg.occupancy(), 0);
    }

    /// Threads that hold a registration at once claim slots 0.., and the
    /// mark rises exactly that far.
    #[test]
    fn hwm_equals_the_number_of_concurrently_registered_threads() {
        use std::sync::{Arc, Barrier};
        const THREADS: usize = 4;
        let reg = Arc::new(ActiveRegistry::new());
        let clock = Arc::new(AtomicU64::new(1));
        let held = Arc::new(Barrier::new(THREADS + 1));
        let release = Arc::new(Barrier::new(THREADS + 1));
        let threads: Vec<_> = (0..THREADS)
            .map(|_| {
                let (reg, clock) = (reg.clone(), clock.clone());
                let (held, release) = (held.clone(), release.clone());
                std::thread::spawn(move || {
                    let (snap, token) = reg.register_current(&clock);
                    held.wait();
                    release.wait();
                    reg.deregister(token, snap);
                    token
                })
            })
            .collect();
        held.wait();
        assert_eq!(reg.hwm(), THREADS);
        assert_eq!(reg.occupancy(), THREADS);
        release.wait();
        let mut tokens: Vec<usize> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, (0..THREADS).collect::<Vec<_>>());
        assert!(reg.is_idle());
        assert_eq!(reg.hwm(), THREADS, "the mark never falls");
    }

    /// A thread that never registered here takes the lowest free slot,
    /// which an exited thread left behind, and the mark stays put.
    #[test]
    fn a_slot_freed_by_an_exited_thread_is_reused_lowest_first() {
        use std::sync::Arc;
        let reg = Arc::new(ActiveRegistry::new());
        let clock = Arc::new(AtomicU64::new(1));
        let register = |reg: &Arc<ActiveRegistry>| {
            let (reg, clock) = (reg.clone(), clock.clone());
            std::thread::spawn(move || reg.register_current(&clock))
                .join()
                .unwrap()
        };
        let (s0, t0) = register(&reg);
        let (_, t1) = register(&reg);
        assert_eq!((t0, t1), (0, 1));
        reg.deregister(t0, s0);
        let (_, t2) = register(&reg);
        assert_eq!(t2, 0, "the freed slot is the lowest free one");
        assert_eq!(reg.hwm(), 2);
    }

    #[test]
    fn slot_hint_reuses_same_slot() {
        let reg = ActiveRegistry::new();
        let clock = AtomicU64::new(1);
        let (s1, t1) = reg.register_current(&clock);
        reg.deregister(t1, s1);
        let (s2, t2) = reg.register_current(&clock);
        assert_eq!(t1, t2, "thread-local hint should re-claim the warm slot");
        reg.deregister(t2, s2);
    }
}
