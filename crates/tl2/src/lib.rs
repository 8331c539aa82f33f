//! # wtf-tl2 — a single-version, lock-striped TL2 backend
//!
//! The second [`StmBackend`] substrate: where `wtf-mvstm` keeps a version
//! *chain* per box (reads never fail, read-only transactions never
//! validate, GC prunes), TL2 keeps exactly **one** version per box and
//! pays for it at read time — a box overwritten since the reader's
//! snapshot has nothing left to serve, so the read conflicts.
//!
//! The design follows the classic TL2 recipe (lazy versioning,
//! commit-time locking; see SNIPPETS.md snippet 3 for the versioned-lock
//! word exemplar):
//!
//! * a **global version clock** ([`Tl2Stm`]`::clock`), bumped once per
//!   update commit;
//! * **per-stripe versioned lock words** ([`lockword`]): the high bit is
//!   the write lock, the low 63 bits are the version of the newest commit
//!   into the stripe. Readers use the word only as an in-flight-commit
//!   detector (equality re-check around the slot read) — never as a
//!   validation source, which is what keeps stripe-hash collisions from
//!   causing false aborts;
//! * **read-set validation at commit** against the boxes' own slot
//!   versions, under the stripes covering reads ∪ writes (mask-ordered,
//!   deadlock-free, exactly mvstm's locking discipline);
//! * **write-back under the striped locks**: slots are rewritten at the
//!   freshly reserved version while every written stripe is held, so a
//!   snapshot never observes a half-installed commit (opacity).
//!
//! The trace contract is identical to mvstm's — `StmInstall` per written
//! box, sorted `CommitRead`s + `TxnCommit`/`TopCommit` serialization
//! records (emitted by the layers above), conflict charges on the exact
//! box that failed — so `wtf-check`'s offline serializability checker and
//! the abort-attribution reports work on TL2 histories unchanged.
//!
//! ## Why reads can never fail *spuriously*
//!
//! The checker rejects any abort it cannot justify with a concrete newer
//! install, so [`BackendBox::read_at`] must return `Err` **iff** the
//! box's current slot version exceeds the snapshot. The fast path reads
//! the slot between two stripe-word loads (the second taken while the
//! slot mutex is still held, so the value lent on success is the one
//! the bracket vouched for) and retries through the slow path on any
//! disturbance; the slow path takes the stripe mutex itself,
//! which committers hold for their whole write-back — so a blocked reader
//! resumes to a stable slot and the `ver > snapshot` test is always
//! decided against fully committed state, never against a lock bit that a
//! colliding box's commit happened to set.

use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use wtf_backend::{
    BackendBox, BackendKind, BackendSnapshot, BoxHandle, BoxId, Horizon, StmBackend, StmError,
    StmStatsSnapshot, Value,
};
use wtf_trace::{EventKind, Tracer};

pub mod lockword {
    //! The per-stripe versioned lock word: version in the low 63 bits,
    //! write-lock in the high bit (the SNIPPETS.md snippet-3 packing).

    /// The write-lock bit (high bit; versions stay below it forever —
    /// `2^63` commits at one per nanosecond is ~292 years).
    pub const LOCK_BIT: u64 = 1 << 63;

    /// Packs a version and a lock flag into one word.
    pub fn pack(version: u64, locked: bool) -> u64 {
        debug_assert_eq!(
            version & LOCK_BIT,
            0,
            "version overflowed into the lock bit"
        );
        if locked {
            version | LOCK_BIT
        } else {
            version
        }
    }

    /// Splits a word back into `(version, locked)`.
    pub fn unpack(word: u64) -> (u64, bool) {
        (word & !LOCK_BIT, word & LOCK_BIT != 0)
    }

    /// The version part of a word.
    pub fn version_of(word: u64) -> u64 {
        word & !LOCK_BIT
    }

    /// Whether the write lock is held.
    pub fn is_locked(word: u64) -> bool {
        word & LOCK_BIT != 0
    }
}

/// Number of lock stripes (matches mvstm's commit-lock striping).
pub const STRIPES: usize = 64;

/// Maps a box id to its stripe — the same Fibonacci multiplicative hash
/// mvstm uses, so the two backends' contention profiles are comparable.
pub fn stripe_index(id: BoxId) -> usize {
    (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// One lock stripe: the commit mutex (held by committers for their whole
/// validate/write-back window, and by slow-path readers to wait one out)
/// plus the versioned lock word for the readers' fast path.
struct Stripe {
    // lock-order: tl2-stripe — multi-acquisition only through
    // `lock_mask`'s ascending bitmask walk; taken before `tl2-slot`.
    lock: Mutex<()>,
    // ordering: the committer's acqrel-rmw fetch_or sets the lock bit
    // before write-back and the release-store publishes the new version
    // after it; both pair with the fast-path reader's acquire-load
    // bracket around its slot read. relaxed-load only in the
    // `tl2_locked_stripes` gauge probe.
    word: AtomicU64,
}

struct StripeTable {
    stripes: Vec<Stripe>,
}

impl StripeTable {
    fn new() -> StripeTable {
        StripeTable {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    lock: Mutex::new(()),
                    word: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Locks every stripe in `mask`, in ascending index order
    /// (deadlock-free; mirrors mvstm's `StripeTable::lock_mask`).
    fn lock_mask(&self, mut mask: u64) -> Vec<MutexGuard<'_, ()>> {
        let mut guards = Vec::with_capacity(mask.count_ones() as usize);
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            guards.push(self.stripes[i].lock.lock());
            mask &= mask - 1;
        }
        guards
    }
}

/// The single version slot of a box: `(version, value)`, rewritten in
/// place by each commit (lazy versioning — the old value is simply gone).
struct Slot {
    version: u64,
    value: Value,
}

/// A TL2 transactional box.
pub struct Tl2Box {
    id: BoxId,
    stripes: Arc<StripeTable>,
    // lock-order: tl2-slot — leaf lock; acquired with the box's stripe
    // mutex held (commit validation/write-back, slow-path reads) or with
    // nothing held (fast-path reads), never the other way round.
    slot: Mutex<Slot>,
}

impl Tl2Box {
    fn stripe(&self) -> &Stripe {
        &self.stripes.stripes[stripe_index(self.id)]
    }

    /// Decides a read at `snapshot` against a locked slot: lends the value
    /// to `f` if the slot's version is visible, else a justified conflict.
    fn lend(slot: &Slot, snapshot: u64, f: &mut dyn FnMut(&Value)) -> Result<u64, StmError> {
        if slot.version <= snapshot {
            f(&slot.value);
            Ok(slot.version)
        } else {
            Err(StmError::Conflict)
        }
    }
}

impl BackendBox for Tl2Box {
    fn id(&self) -> BoxId {
        self.id
    }

    fn read_at(&self, snapshot: u64, f: &mut dyn FnMut(&Value)) -> Result<u64, StmError> {
        let stripe = self.stripe();
        // Fast path: no commit in flight on this stripe across the slot
        // read (word unchanged and unlocked on both sides).
        let w1 = stripe.word.load(Ordering::Acquire);
        if !lockword::is_locked(w1) {
            let slot = self.slot.lock();
            if stripe.word.load(Ordering::Acquire) == w1 {
                return Tl2Box::lend(&slot, snapshot, f);
            }
        }
        // Slow path: wait out the in-flight commit (committers hold the
        // stripe mutex for their whole write-back), then decide against
        // the stable slot. `Err` here is always justified: the slot's
        // version is the version of a fully recorded install.
        let _guard = stripe.lock.lock();
        Tl2Box::lend(&self.slot.lock(), snapshot, f)
    }

    fn read_latest(&self) -> Value {
        self.slot.lock().value.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Tl2Inner {
    /// The global version clock (committed state has versions
    /// `0..=clock`, every one of them fully written back: write stripes
    /// stay locked until the write-back completes), the snapshot registry
    /// and the retired box bodies.
    horizon: Arc<Horizon>,
    stripes: Arc<StripeTable>,
    // ordering: relaxed-rmw — a pure id dispenser.
    next_box: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    commits: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    read_only_commits: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    aborts: AtomicU64,
    tracer: Arc<Tracer>,
}

/// The TL2 STM instance. Cheap to clone; usually consumed as an
/// `Arc<dyn StmBackend>` through `wtf-core`'s backend selection.
#[derive(Clone)]
pub struct Tl2Stm {
    inner: Arc<Tl2Inner>,
}

impl Default for Tl2Stm {
    fn default() -> Self {
        Self::new()
    }
}

impl Tl2Stm {
    pub fn new() -> Tl2Stm {
        Tl2Stm::with_tracer(Tracer::disabled())
    }

    /// A TL2 instance reporting into `tracer` — same hook points as
    /// mvstm: commit/validation latency histograms, per-install events,
    /// per-box conflict charges, and a clock gauge.
    pub fn with_tracer(tracer: Arc<Tracer>) -> Tl2Stm {
        let stm = Tl2Stm {
            inner: Arc::new(Tl2Inner {
                horizon: Horizon::new(),
                stripes: Arc::new(StripeTable::new()),
                next_box: AtomicU64::new(0),
                commits: AtomicU64::new(0),
                read_only_commits: AtomicU64::new(0),
                aborts: AtomicU64::new(0),
                tracer,
            }),
        };
        if stm.inner.tracer.on() {
            // Weak: the tracer is owned by the inner, so an Arc capture
            // would cycle and leak.
            let w: Weak<Tl2Inner> = Arc::downgrade(&stm.inner);
            stm.inner.tracer.gauges.register("stm_clock", move || {
                w.upgrade().map_or(0, |s| s.horizon.now())
            });
            let w: Weak<Tl2Inner> = Arc::downgrade(&stm.inner);
            stm.inner
                .tracer
                .gauges
                .register("tl2_locked_stripes", move || {
                    w.upgrade().map_or(0, |s| {
                        s.stripes
                            .stripes
                            .iter()
                            .filter(|st| lockword::is_locked(st.word.load(Ordering::Relaxed)))
                            .count() as u64
                    })
                });
        }
        stm
    }
}

fn tl2_box(b: &dyn BackendBox) -> &Tl2Box {
    b.as_any()
        .downcast_ref::<Tl2Box>()
        .expect("box from a different backend passed to Tl2Stm")
}

impl StmBackend for Tl2Stm {
    fn kind(&self) -> BackendKind {
        BackendKind::Tl2
    }

    fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    fn clock(&self) -> u64 {
        self.inner.horizon.now()
    }

    fn stats(&self) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.inner.commits.load(Ordering::Relaxed),
            read_only_commits: self.inner.read_only_commits.load(Ordering::Relaxed),
            aborts: self.inner.aborts.load(Ordering::Relaxed),
            // Single version, no chains to prune; the clock bump is
            // wait-free, so publication never stalls either.
            versions_pruned: 0,
            publish_waits: 0,
        }
    }

    fn note_abort(&self) {
        self.inner.aborts.fetch_add(1, Ordering::Relaxed);
    }

    fn note_read_only_commit(&self) {
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
        self.inner.read_only_commits.fetch_add(1, Ordering::Relaxed);
    }

    fn new_box(&self, value: Value) -> BoxHandle {
        let id = BoxId(self.inner.next_box.fetch_add(1, Ordering::Relaxed));
        // Stamp version 0, like mvstm: no commit wrote the initial value,
        // so every snapshot reads it — also one taken before the box was
        // created, which would otherwise take an abort no install
        // justifies.
        let body = Tl2Box {
            id,
            stripes: self.inner.stripes.clone(),
            slot: Mutex::new(Slot { version: 0, value }),
        };
        BoxHandle::new(&self.inner.horizon, body)
    }

    fn horizon(&self) -> &Arc<Horizon> {
        &self.inner.horizon
    }

    fn acquire_snapshot(&self) -> BackendSnapshot {
        // TL2 retains no old versions (reads pay instead — see
        // `read_at`), so the registration pins no version: it keeps the
        // bodies this snapshot's transaction borrows, which a dropped box
        // retires until no registered snapshot can hold them. The slot
        // travels inline: nothing is allocated.
        self.inner.horizon.register()
    }

    fn commit_attributed(
        &self,
        snapshot: u64,
        reads: &[&dyn BackendBox],
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> Result<u64, BoxId> {
        debug_assert!(!writes.is_empty(), "read-only commits skip the backend");
        let inner = &*self.inner;
        let tracer = &inner.tracer;
        let commit_start = tracer.span_start();
        let mut read_write_mask = 0u64;
        let mut write_mask = 0u64;
        for body in reads {
            read_write_mask |= 1 << stripe_index(body.id());
        }
        for (body, _) in &writes {
            write_mask |= 1 << stripe_index(body.id());
        }
        read_write_mask |= write_mask;
        // Stripe mutexes over reads ∪ writes, ascending (deadlock-free).
        // Held until the write-back completes: validation is stable (no
        // concurrent install into a read box) and no snapshot can observe
        // a half-written commit.
        let guards = inner.stripes.lock_mask(read_write_mask);
        // Validate every read against its box's own slot version — not
        // the stripe word, whose version is the max over hash-colliding
        // neighbours and would abort transactions that did nothing wrong.
        for &body in reads {
            let b = tl2_box(body);
            if b.slot.lock().version > snapshot {
                // Mirror of mvstm's validation-failure record: identical
                // `TxnAttemptAbort` payloads keep retry-lineage profiles
                // comparable across backends.
                tracer.charge_conflict(b.id.0);
                tracer.record(EventKind::TxnAttemptAbort, b.id.0, snapshot);
                return Err(b.id);
            }
        }
        let validated = tracer.span_end(
            EventKind::StmValidationSpan,
            commit_start,
            reads.len() as u64,
        );
        if tracer.on() {
            tracer.metrics.validation_latency.record(validated);
        }
        // Set the write-lock bits (readers' fast-path fence), reserve the
        // version — certain to publish, validation already passed — and
        // write back.
        for i in 0..STRIPES {
            if write_mask & (1 << i) != 0 {
                inner.stripes.stripes[i]
                    .word
                    .fetch_or(lockword::LOCK_BIT, Ordering::AcqRel);
            }
        }
        let version = inner.horizon.advance();
        for (body, value) in writes {
            let b = tl2_box(body);
            {
                let mut slot = b.slot.lock();
                slot.version = version;
                slot.value = value;
            }
            tracer.record_full(EventKind::StmInstall, b.id.0, version);
        }
        // Release the lock words at the new version (lock bit cleared by
        // the plain store — versions never reach the high bit).
        for i in 0..STRIPES {
            if write_mask & (1 << i) != 0 {
                inner.stripes.stripes[i]
                    .word
                    .store(version, Ordering::Release);
            }
        }
        drop(guards);
        // Free the retired bodies every registered snapshot (ours
        // included) has passed — a lock-free check when there are none.
        inner.horizon.drain();
        inner.commits.fetch_add(1, Ordering::Relaxed);
        if tracer.on() {
            let dur = tracer.span_end(EventKind::StmCommitSpan, commit_start, version);
            tracer.metrics.commit_latency.record(dur);
        }
        Ok(version)
    }
}

impl Drop for Tl2Inner {
    /// Frees the retired bodies no registration holds any more.
    fn drop(&mut self) {
        self.horizon.close();
    }
}

#[cfg(test)]
mod tests;
