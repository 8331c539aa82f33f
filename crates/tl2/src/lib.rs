//! # wtf-tl2 — a single-version, lock-striped TL2 backend
//!
//! The second [`StmBackend`](wtf_backend::StmBackend) substrate: where `wtf-mvstm` keeps a version
//! *chain* per box (reads never fail, read-only transactions never
//! validate, GC prunes), TL2 keeps exactly **one** version per box and
//! pays for it at read time — a box overwritten since the reader's
//! snapshot has nothing left to serve, so the read conflicts.
//!
//! The design follows the classic TL2 recipe (lazy versioning,
//! commit-time locking; see SNIPPETS.md snippet 3 for the versioned-lock
//! word exemplar):
//!
//! * a **global version clock** (the shared horizon's), bumped once per
//!   update commit;
//! * **per-stripe versioned lock words** ([`lockword`]): the high bit is
//!   the write lock, the low 63 bits are the version of the newest commit
//!   into the stripe. Readers use the word only as an in-flight-commit
//!   detector (equality re-check around the slot read) — never as a
//!   validation source, which is what keeps stripe-hash collisions from
//!   causing false aborts;
//! * **read-set validation at commit** against the boxes' own slot
//!   versions;
//! * **write-back under the striped locks**: slots are rewritten at the
//!   freshly reserved version while every written stripe is held, so a
//!   snapshot never observes a half-installed commit (opacity).
//!
//! Everything but the box, its slot-version check and the install step
//! is `wtf-backend`'s commit frame, shared with mvstm: [`Tl2Stm`] is its
//! [`Backend`] over the [`Tl2`] protocol. The stripes, their locking, the
//! validation loop and its records, the counters and the horizon are
//! one implementation, so the trace contract is mvstm's by construction
//! — `StmInstall` per written box, sorted `CommitRead`s +
//! `TxnCommit`/`TopCommit` serialization records (emitted by the layers
//! above), conflict charges on the exact box that failed — and
//! `wtf-report`'s offline serializability checker and the
//! abort-attribution reports work on TL2 histories unchanged. The lock
//! words stay here: they are TL2's reader protocol, kept beside each
//! shared stripe lock.
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

use parking_lot::Mutex;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wtf_backend::{
    stripe_index, Backend, BackendBox, BackendKind, BoxId, Protocol, Shared, StmError, StripeTable,
    Value, STRIPES,
};
use wtf_trace::EventKind;

pub mod lockword {
    //! The per-stripe versioned lock word: version in the low 63 bits,
    //! write-lock in the high bit (the SNIPPETS.md snippet-3 packing).

    /// The write-lock bit (high bit; versions stay below it forever —
    /// `2^63` commits at one per nanosecond is ~292 years).
    pub const LOCK_BIT: u64 = 1 << 63;

    /// Whether the write lock is held.
    pub fn is_locked(word: u64) -> bool {
        word & LOCK_BIT != 0
    }
}

/// The versioned lock word beside each shared stripe lock, for the
/// readers' fast path.
#[derive(Default)]
pub struct LockWord {
    // ordering: the committer's acqrel-rmw fetch_or sets the lock bit
    // before write-back and the release-store publishes the new version
    // after it; both pair with the fast-path reader's acquire-load
    // bracket around its slot read. relaxed-load only in the
    // `tl2_locked_stripes` gauge probe.
    word: AtomicU64,
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
    stripes: Arc<StripeTable<LockWord>>,
    // lock-order: tl2-slot — leaf lock; acquired with the box's stripe
    // mutex held (commit validation/write-back, slow-path reads) or with
    // nothing held (fast-path reads), never the other way round.
    slot: Mutex<Slot>,
}

impl Tl2Box {
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
        let stripe = stripe_index(self.id);
        let lock = self.stripes.word(stripe);
        // Fast path: no commit in flight on this stripe across the slot
        // read (word unchanged and unlocked on both sides).
        let w1 = lock.word.load(Ordering::Acquire);
        if !lockword::is_locked(w1) {
            let slot = self.slot.lock();
            if lock.word.load(Ordering::Acquire) == w1 {
                return Tl2Box::lend(&slot, snapshot, f);
            }
        }
        // Slow path: wait out the in-flight commit (committers hold the
        // stripe mutex for their whole write-back), then decide against
        // the stable slot. `Err` here is always justified: the slot's
        // version is the version of a fully recorded install.
        let _guard = self.stripes.lock_one(stripe);
        Tl2Box::lend(&self.slot.lock(), snapshot, f)
    }

    fn read_latest(&self) -> Value {
        self.slot.lock().value.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The TL2 STM instance. Cheap to clone; usually consumed as an
/// `Arc<dyn StmBackend>` through `wtf-core`'s backend selection.
pub type Tl2Stm = Backend<Tl2>;

/// The single-version protocol: it adds no state to the shared frame
/// beyond the lock word beside each stripe.
#[derive(Default)]
pub struct Tl2;

impl Protocol for Tl2 {
    const KIND: BackendKind = BackendKind::Tl2;
    type Word = LockWord;
    type Box = Tl2Box;

    /// Stamps version 0, like mvstm: no commit wrote the initial value,
    /// so every snapshot reads it — also one taken before the box was
    /// created, which would otherwise take an abort no install justifies.
    fn new_box(stripes: &Arc<StripeTable<LockWord>>, id: BoxId, value: Value) -> Tl2Box {
        Tl2Box {
            id,
            stripes: stripes.clone(),
            slot: Mutex::new(Slot { version: 0, value }),
        }
    }

    /// The box's own slot version — not the stripe word, whose version
    /// is the max over hash-colliding neighbours and would abort
    /// transactions that did nothing wrong.
    fn version(b: &Tl2Box) -> u64 {
        b.slot.lock().version
    }

    /// Sets the write-lock bits (readers' fast-path fence), reserves the
    /// version — certain to publish, validation already passed — and
    /// writes back, then releases the lock words at the new version.
    /// TL2 keeps no old version for any snapshot, so neither the snapshot
    /// nor its end matters here.
    fn install(
        shared: &Shared<Self>,
        _snapshot: u64,
        _snapshot_ends: bool,
        write_mask: u64,
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> u64 {
        let written = || (0..STRIPES).filter(move |i| write_mask & (1 << i) != 0);
        for i in written() {
            shared
                .stripes
                .word(i)
                .word
                .fetch_or(lockword::LOCK_BIT, Ordering::AcqRel);
        }
        let version = shared.horizon.advance();
        for (body, value) in writes {
            let b = Self::body(body);
            {
                let mut slot = b.slot.lock();
                slot.version = version;
                slot.value = value;
            }
            shared
                .tracer
                .record_full(EventKind::StmInstall, b.id.0, version);
        }
        // Release the lock words at the new version (lock bit cleared by
        // the plain store — versions never reach the high bit).
        for i in written() {
            shared
                .stripes
                .word(i)
                .word
                .store(version, Ordering::Release);
        }
        version
    }

    fn register_gauges(shared: &Arc<Shared<Self>>) {
        shared.register_gauge("tl2_locked_stripes", |s| {
            (0..STRIPES)
                .filter(|&i| lockword::is_locked(s.stripes.word(i).word.load(Ordering::Relaxed)))
                .count() as u64
        });
    }
}

#[cfg(test)]
mod tests;
