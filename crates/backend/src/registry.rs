//! Active-transaction registry: JVSTM's `ActiveTransactionsRecord`,
//! shared by both backends through [`Horizon`](crate::Horizon).
//!
//! Tracks which snapshot versions are still in use, so that commit-time
//! GC can prune version chains (mvstm) and free retired box bodies (both
//! backends) down to the oldest live snapshot.
//!
//! The registry is a sharded slot array rather than a mutex-protected
//! map: registration claims a per-shard atomic slot (threads cache their
//! last shard so repeat registrations hit a warm, uncontended line),
//! deregistration is a single store, and the GC horizon scan
//! ([`ActiveRegistry::min_active_excluding`]) reads the slots lock-free,
//! skipping whole shards whose occupancy counter is zero. A small
//! mutex-protected overflow map catches the (never-in-practice) case of
//! more than [`SLOT_COUNT`] simultaneous transactions.
//!
//! ## Why the lock-free registration/GC race is safe
//!
//! The danger is a GC horizon that *exceeds* a live snapshot: a committer
//! would then free versions that snapshot can still read. Every operation
//! in the registration/GC protocol uses `SeqCst` (the pure diagnostics
//! accessors at the bottom are relaxed — they decide nothing), so there
//! is a single total order `S` over them.
//! Consider a registrant R and a committer C publishing version `v`
//! (a `SeqCst` store of the clock in `commit_attributed`):
//!
//! * R increments its shard's occupancy, claims a slot with some clock
//!   reading, then **re-reads the clock and republishes its slot until
//!   the value is stable** (a seqlock-style loop).
//! * C first publishes `clock = v`, then scans occupancy counters and
//!   slots.
//!
//! If R's final clock read precedes C's publication in `S`, R's snapshot
//! is `< v`; but then R's occupancy increment and slot store (which
//! precede that read in program order, hence in `S`) also precede C's
//! scan, so C sees the slot and keeps R's versions. If instead R's final
//! clock read follows the publication, R re-reads `>= v` and republishes
//! — its snapshot is at the new clock, which GC never prunes below.
//! Either way the horizon never exceeds a live snapshot. Stale *low*
//! values seen mid-loop only make GC more conservative, never less.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards in the slot array.
pub(crate) const SHARDS: usize = 16;
/// Slots per shard.
pub(crate) const SLOTS_PER_SHARD: usize = 64;
/// Total fast-path capacity; registrations beyond this spill to the
/// overflow map.
pub(crate) const SLOT_COUNT: usize = SHARDS * SLOTS_PER_SHARD;

/// Slot value meaning "no registration here".
const EMPTY: u64 = u64::MAX;

/// Token returned for registrations that landed in the overflow map.
pub(crate) const OVERFLOW_TOKEN: usize = usize::MAX;

/// One registration slot, padded to a cache line so concurrent
/// register/deregister traffic on neighbouring slots does not false-share.
// ordering(Slot, slot, slots): seqcst-cas claims a free slot (the
// failure side is relaxed-cas — a busy slot is just skipped);
// seqcst-store republishes the chased clock and releases the slot;
// seqcst-load in the GC scan joins the single total order with the
// clock publication (module docs). relaxed-load only in the
// `active_snapshots` diagnostic probe. relaxed-guard: that probe's
// EMPTY filter gates reporting, never reclamation.
#[repr(align(64))]
struct Slot(AtomicU64);

/// Per-shard metadata, padded onto its own line.
#[repr(align(64))]
struct ShardMeta {
    /// Upper bound on the number of claimed slots in this shard. Always
    /// incremented *before* a slot is claimed and decremented *after* it
    /// is released, so `occupancy == 0` proves the shard is empty at some
    /// point during the scan and may be skipped.
    // ordering: seqcst-rmw on claim/release and seqcst-load in the GC
    // scan keep the increment-before-claim / decrement-after-release
    // discipline inside the registry's single total order; relaxed-load
    // only in the full-shard fast-path probe and the diagnostics
    // accessors. relaxed-guard: those probes are capacity hints — a
    // stale read sends registration to another shard or skews a gauge,
    // never frees a version.
    occupancy: AtomicUsize,
}

pub(crate) struct ActiveRegistry {
    slots: Box<[Slot]>,
    shards: Box<[ShardMeta]>,
    /// Spill map: snapshot version -> registration count. Only touched
    /// when the slot array is full.
    // lock-order: registry-overflow — a leaf lock: taken with stripe
    // locks already held on the commit/GC path, never the other way.
    overflow: Mutex<BTreeMap<u64, usize>>,
    /// Upper bound on overflow registrations; lets the scan skip the
    /// mutex entirely in the common case. Same increment-before /
    /// decrement-after discipline as shard occupancy.
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

thread_local! {
    /// Last slot index this thread registered in: repeat registrations
    /// re-claim the same (warm, thread-private in steady state) slot.
    static SLOT_HINT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin seed so threads start probing different shards.
// ordering: relaxed-rmw — a pure distribution hint; nothing is published
// through it.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

impl ActiveRegistry {
    pub(crate) fn new() -> Self {
        ActiveRegistry {
            slots: (0..SLOT_COUNT)
                .map(|_| Slot(AtomicU64::new(EMPTY)))
                .collect(),
            shards: (0..SHARDS)
                .map(|_| ShardMeta {
                    occupancy: AtomicUsize::new(0),
                })
                .collect(),
            overflow: Mutex::new(BTreeMap::new()),
            overflow_count: AtomicUsize::new(0),
        }
    }

    /// Registers a transaction at the current clock value and returns
    /// `(snapshot, slot_token)`. The token must be passed back to
    /// [`ActiveRegistry::deregister`].
    ///
    /// See the module docs for why the slot-claim / clock-recheck loop
    /// makes this safe against a concurrent committer's GC scan.
    pub(crate) fn register_current(&self, clock: &AtomicU64) -> (u64, usize) {
        let hint = SLOT_HINT.with(|h| h.get());
        let start_shard = if hint != usize::MAX {
            hint / SLOTS_PER_SHARD
        } else {
            NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS
        };
        for probe in 0..SHARDS {
            let shard = (start_shard + probe) % SHARDS;
            let meta = &self.shards[shard];
            if meta.occupancy.load(Ordering::Relaxed) >= SLOTS_PER_SHARD {
                continue;
            }
            // Claim occupancy before touching any slot (see ShardMeta).
            meta.occupancy.fetch_add(1, Ordering::SeqCst);
            let base = shard * SLOTS_PER_SHARD;
            let first = if hint != usize::MAX && hint / SLOTS_PER_SHARD == shard {
                hint - base
            } else {
                0
            };
            for i in 0..SLOTS_PER_SHARD {
                let idx = base + (first + i) % SLOTS_PER_SHARD;
                let slot = &self.slots[idx].0;
                let mut snapshot = clock.load(Ordering::SeqCst);
                if slot
                    .compare_exchange(EMPTY, snapshot, Ordering::SeqCst, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // Republish until the clock is stable: any commit that
                // published between our clock read and the slot store
                // might have scanned before the store, so chase the
                // clock up to a value the next scan must honour.
                loop {
                    let now = clock.load(Ordering::SeqCst);
                    if now == snapshot {
                        break;
                    }
                    slot.store(now, Ordering::SeqCst);
                    snapshot = now;
                }
                SLOT_HINT.with(|h| h.set(idx));
                return (snapshot, idx);
            }
            // Shard turned out full; give the occupancy back.
            meta.occupancy.fetch_sub(1, Ordering::SeqCst);
        }
        self.register_overflow(clock)
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
            self.shards[token / SLOTS_PER_SHARD]
                .occupancy
                .fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Oldest snapshot still in use, or `fallback` (the just-published
    /// clock) if no transaction is active: versions older than the result
    /// are unreachable and may be pruned.
    ///
    /// `excluding` discounts **one** registration at that version — the
    /// committing transaction's own snapshot, which dies with the commit
    /// and must not pin old versions on its own behalf. The scan is
    /// lock-free over the slot array (empty shards are skipped via their
    /// occupancy counters) and only takes the overflow mutex when the
    /// overflow count is nonzero.
    pub(crate) fn min_active_excluding(&self, excluding: u64, fallback: u64) -> u64 {
        let mut min: Option<u64> = None;
        let mut excluded = false;
        for shard in 0..SHARDS {
            if self.shards[shard].occupancy.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let base = shard * SLOTS_PER_SHARD;
            for i in 0..SLOTS_PER_SHARD {
                let v = self.slots[base + i].0.load(Ordering::SeqCst);
                if v == EMPTY {
                    continue;
                }
                if !excluded && v == excluding {
                    excluded = true;
                    continue;
                }
                min = Some(min.map_or(v, |m| m.min(v)));
            }
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
    /// see its occupancy increment (or its release).
    pub(crate) fn is_idle(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.occupancy.load(Ordering::SeqCst) == 0)
            && self.overflow_count.load(Ordering::SeqCst) == 0
    }

    /// Number of distinct active snapshot versions (diagnostics). Exact
    /// only when no registrations are racing the call; relaxed loads
    /// suffice because nothing is decided from the answer.
    pub(crate) fn active_snapshots(&self) -> usize {
        let mut versions: Vec<u64> = Vec::new();
        for shard in 0..SHARDS {
            if self.shards[shard].occupancy.load(Ordering::Relaxed) == 0 {
                continue;
            }
            let base = shard * SLOTS_PER_SHARD;
            for i in 0..SLOTS_PER_SHARD {
                let v = self.slots[base + i].0.load(Ordering::Relaxed);
                if v != EMPTY {
                    versions.push(v);
                }
            }
        }
        if self.overflow_count.load(Ordering::Relaxed) > 0 {
            versions.extend(self.overflow.lock().keys().copied());
        }
        versions.sort_unstable();
        versions.dedup();
        versions.len()
    }

    /// Total occupied registration slots (shards plus overflow), i.e.
    /// how full the fixed-size registry is. Counter-based and O(shards),
    /// unlike the slot scan in [`ActiveRegistry::active_snapshots`].
    /// Relaxed: a gauge read, racy by construction.
    pub(crate) fn occupancy(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.occupancy.load(Ordering::Relaxed))
            .sum::<usize>()
            + self.overflow_count.load(Ordering::Relaxed)
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

    /// Direct race on the sharded registry: while one snapshot stays
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
