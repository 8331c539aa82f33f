//! # wtf-backend — the STM substrate contract
//!
//! The paper's futures machinery (WO/SO top-levels, §3.4 polygraph
//! acceptance) is defined over an *abstract* STM: a store of versioned
//! boxes with snapshot reads and validate-and-publish commits. This crate
//! is the bottom of the substrate stack and the only way into it:
//!
//! * the vocabulary every backend shares — [`BoxId`], [`Value`] /
//!   [`TxValue`], [`StmError`] / [`Aborted`] / [`TxResult`],
//!   [`StmStatsSnapshot`], [`FxHashMap`] / [`FxHashSet`] — and the
//!   per-thread pieces every layer uses: [`thread_index`], the
//!   per-thread [`Counters`] it picks a block of, and [`MaskGuards`],
//!   the held stripes of a commit;
//! * the contract itself — [`StmBackend`] and [`BackendBox`] — and its
//!   one implementation, [`Backend`]: the commit frame (module `frame`)
//!   and the state every instance holds ([`Shared`]: horizon,
//!   [`StripeTable`], box ids, [`StmCounters`], tracer). `wtf-mvstm`
//!   (multi-versioned, JVSTM-style) and `wtf-tl2` (single-version,
//!   lock-striped, lazy-versioning) each supply only a [`Protocol`]:
//!   their box type, the version a read is checked against at commit,
//!   and their install step;
//! * the one transaction path over it: typed boxes ([`TBox`]), the
//!   stepwise transaction ([`BackendTxn`]) that `wtf-report`'s explorers
//!   drive one operation at a time, and the plain retry loop ([`atomic`])
//!   — the paper's no-futures baseline. `wtf-core` layers transactional
//!   futures on the same two traits.
//!
//! The contract every backend must honour, because the offline checker
//! (`wtf-report`) re-derives commit/abort decisions from traces alone:
//!
//! * commit versions are globally unique tickets, so `version -> writer`
//!   is a bijection invertible from [`StmInstall`](wtf_trace::EventKind)
//!   events;
//! * a failed read or commit ([`Err`]) is only ever reported for a box
//!   that really has a version newer than the snapshot — the checker
//!   demands a concrete newer install to justify every abort;
//! * read-only commits serialize at their snapshot and need no
//!   validation;
//! * a read lends: [`BackendBox::read_at`] hands a closure a borrow of
//!   the stored value and returns the version, so a read writes no
//!   reference count a concurrent reader of the same box also writes;
//! * nor does a transaction count the box itself: it logs [`BoxRef`]
//!   borrows, and a body whose last [`BoxHandle`] goes retires to the
//!   backend's [`Horizon`] until no registered snapshot can still hold
//!   one (module `horizon`);
//! * every box is born at version 0, which no snapshot precedes — its
//!   initial value is what the checker calls the initial state;
//! * the same serialization records (`CommitRead` / `TxnCommit` /
//!   `StmInstall`) are emitted by every backend, so the checker and abort
//!   attribution work unchanged — by construction: the frame and
//!   [`BackendTxn`] emit all but `StmInstall`, and each install step
//!   emits that one per written box.
//!
//! The multi-version/single-version split shows up in exactly one place:
//! [`BackendBox::read_at`] is infallible on `mvstm` (old versions are
//! retained) and fallible on `tl2` (a box overwritten since the snapshot
//! has nothing left to read) — which is why the signature is fallible and
//! callers must treat `Err` as a conflict abort.

mod cm;
mod error;
mod frame;
mod guards;
mod hash;
mod horizon;
mod registry;
mod stats;
mod threads;
mod value;

pub use cm::{CmKind, CmStats, ImmediateCm};
pub use error::{Aborted, StmError, TxResult};
#[cfg(feature = "test-hooks")]
pub use frame::test_hooks;
pub use frame::{stripe_index, Backend, Protocol, Shared, StripeTable, STRIPES};
pub use guards::MaskGuards;
pub use hash::{FxHashMap, FxHashSet};
pub use horizon::{BackendSnapshot, BoxHandle, BoxRef, Horizon};
pub use stats::{Counter, StmCounters, StmStatsSnapshot};
pub use threads::{thread_index, Counters};
pub use value::{downcast_value, BoxId, TxValue, Value};

use parking_lot::MutexGuard;
use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;
use wtf_trace::knobs::Knobs;
use wtf_trace::{EventKind, Tracer};

/// Which STM substrate a run executes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Multi-versioned JVSTM-style boxes (`wtf-mvstm`): snapshot reads
    /// never fail, read-only transactions never validate, GC prunes
    /// version chains.
    Mvstm,
    /// Single-version lock-striped TL2 (`wtf-tl2`): per-stripe versioned
    /// lock words, read-version validation, write-back under striped
    /// locks. No version chains, no GC — but reads can conflict.
    Tl2,
}

impl BackendKind {
    /// Every selectable backend, in comparison order.
    pub const ALL: [BackendKind; 2] = [BackendKind::Mvstm, BackendKind::Tl2];

    /// Stable lowercase name (the `WTF_BACKEND` value and the label used
    /// in `results/*.json` rows).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Mvstm => "mvstm",
            BackendKind::Tl2 => "tl2",
        }
    }

    /// Parses a `WTF_BACKEND` value.
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "" | "mvstm" => Some(BackendKind::Mvstm),
            "tl2" => Some(BackendKind::Tl2),
            _ => None,
        }
    }

    /// Backend selected by an active [`with_backend`] scope if any, else
    /// the `WTF_BACKEND` environment variable (default: `mvstm`). Panics
    /// on an unknown value — a silently misspelled backend would
    /// invalidate a whole comparative run.
    pub fn from_env() -> BackendKind {
        use std::sync::atomic::Ordering;
        match BACKEND_OVERRIDE.load(Ordering::SeqCst) {
            0 => BackendKind::from_knobs(&wtf_trace::knobs::env()),
            i => BackendKind::ALL[i - 1],
        }
    }

    fn from_knobs<R: Fn(&str) -> Option<String>>(knobs: &Knobs<R>) -> BackendKind {
        knobs
            .backend(BackendKind::parse, "mvstm or tl2")
            .unwrap_or(BackendKind::Mvstm)
    }
}

/// Scoped override consulted by [`BackendKind::from_env`] ahead of
/// `WTF_BACKEND`: `0` = none, else `1 + index into BackendKind::ALL`.
// ordering: seqcst-store / seqcst-load — test-only override knob, set
// under `BACKEND_OVERRIDE_LOCK` and read once per TM construction.
// SeqCst keeps the knob trivially ordered; it is never on a hot path.
static BACKEND_OVERRIDE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
/// Serializes [`with_backend`] scopes (overrides must not interleave
/// when tests sweep backends from parallel test threads).
// lock-order: backend-override — the outermost lock: held for a whole
// `with_backend` scope, inside which any other lock may be taken.
static BACKEND_OVERRIDE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `f` with every [`BackendKind::from_env`] call in scope pinned to
/// `kind` — so TMs and run specs built inside (which default their
/// substrate from the environment) land on `kind` without mutating
/// process environment variables. Scopes are serialized process-wide;
/// tests and figure binaries use this to sweep workloads across
/// substrates.
pub fn with_backend<T>(kind: BackendKind, f: impl FnOnce() -> T) -> T {
    use std::sync::atomic::Ordering;
    let _guard = BACKEND_OVERRIDE_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let idx = BackendKind::ALL.iter().position(|k| *k == kind).unwrap();
    BACKEND_OVERRIDE.store(idx + 1, Ordering::SeqCst);
    struct Reset;
    impl Drop for Reset {
        fn drop(&mut self) {
            BACKEND_OVERRIDE.store(0, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let _reset = Reset;
    f()
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An untyped transactional box owned by some backend.
///
/// The typed facade is [`TBox`]; the runtime (`wtf-core`) logs
/// [`BoxRef`] borrows of the body in its read/write sets and hands them
/// back to [`StmBackend::commit_attributed`], which downcasts via
/// [`BackendBox::as_any`] to recover its own concrete box type.
pub trait BackendBox: Send + Sync {
    /// This box's id (unique within its backend instance).
    fn id(&self) -> BoxId;

    /// Reads the value visible at `snapshot`: lends it to `f` and returns
    /// the version observed.
    ///
    /// The read is lending, not cloning: `f` borrows the stored [`Value`]
    /// itself, so a read writes no reference count on a line every other
    /// reader of the box shares. `f` is called exactly once on `Ok` and
    /// never on `Err`; it runs inside the backend's read (mvstm: on the
    /// version node, kept alive by the caller's registered snapshot; TL2:
    /// under the slot mutex), so it should copy out what it needs and
    /// return — it must not touch the STM.
    ///
    /// `Err(Conflict)` means the box's current version is newer than
    /// `snapshot` and the old value is no longer available (single-version
    /// backends). Implementations must never fail spuriously: an `Err`
    /// must always be justified by a real install newer than `snapshot`
    /// on *this* box, because the offline checker verifies exactly that
    /// for every abort the runtime charges.
    fn read_at(&self, snapshot: u64, f: &mut dyn FnMut(&Value)) -> Result<u64, StmError>;

    /// The latest committed value, outside any transaction (benchmark
    /// inspection; not serializable with respect to anything).
    fn read_latest(&self) -> Value;

    /// Concrete-type escape hatch for the owning backend's commit path.
    fn as_any(&self) -> &dyn Any;
}

/// The abstract STM substrate: box creation, snapshot acquisition, the
/// attributed validate-and-publish commit, stats and trace hooks, all
/// implemented once by [`Backend`]. Stats mutation goes through `note_*`
/// hooks so callers above need not name the backend's counters.
pub trait StmBackend: Send + Sync {
    /// Which substrate this is (selection, labels, reports).
    fn kind(&self) -> BackendKind;

    /// The tracer this backend reports into.
    fn tracer(&self) -> &Arc<Tracer>;

    /// Current published version clock.
    fn clock(&self) -> u64;

    /// Counter snapshot (commits, aborts, ...). Fields a backend has no
    /// analogue for (e.g. `versions_pruned` on a single-version backend)
    /// stay zero.
    fn stats(&self) -> StmStatsSnapshot;

    /// Counts one transaction abort (conflict retry).
    fn note_abort(&self);

    /// Counts one read-only commit. Read-only transactions serialize at
    /// their snapshot with no validation on every backend, so there is no
    /// commit call to count them in.
    fn note_read_only_commit(&self);

    /// Kept for `benchmark/` only.
    fn cm(&self) -> ImmediateCm {
        ImmediateCm
    }

    /// Kept for `benchmark/` only.
    fn set_cm(&self, _cm: ImmediateCm) {}

    /// Creates a box initialized to `value`, stamped at version 0: the
    /// initial value is a constant no commit wrote, so every snapshot —
    /// including one taken before the box existed — reads it until the
    /// first install.
    fn new_box(&self, value: Value) -> BoxHandle;

    /// The clock, snapshot registry and retired bodies of this backend.
    fn horizon(&self) -> &Arc<Horizon>;

    /// Begins a snapshot at the current clock, registered with the
    /// backend's [`Horizon`].
    fn acquire_snapshot(&self) -> BackendSnapshot;

    /// Holds commit-lock stripe `index` (see [`stripe_index`]) until the
    /// guard drops: a diagnostic for tests that prove commits on *other*
    /// stripes proceed (there is no global commit mutex to get stuck on).
    fn hold_stripe(&self, index: usize) -> MutexGuard<'_, ()>;

    /// Validates `reads` against `snapshot` and publishes `writes` at a
    /// freshly reserved version (returned). Both lists are borrowed: the
    /// caller's registration keeps the bodies, and a box may be listed
    /// more than once in `reads` (it is then validated each time, to the
    /// same verdict). On a validation failure,
    /// returns the id of the box whose check failed — already charged to
    /// the tracer's conflict-hotspot report — and installs nothing.
    ///
    /// `snapshot_ends` says that nothing reads under the caller's
    /// registration after this commit, so version GC need not keep
    /// versions for it; a top-level whose escaped future still runs
    /// passes `false`.
    ///
    /// Must emit one `StmInstall` event per written box at `Full` trace
    /// detail; `writes` must be non-empty (read-only commits never reach
    /// the backend).
    fn commit_attributed(
        &self,
        snapshot: u64,
        snapshot_ends: bool,
        reads: &[&dyn BackendBox],
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> Result<u64, BoxId>;
}

// ---------------------------------------------------------------------------
// The typed box facade.
// ---------------------------------------------------------------------------

/// The typed, clonable handle over a backend box (re-exported as `VBox`
/// by `wtf-core` and `wtf-mvstm`): a [`BoxHandle`], so clone and drop
/// count handles and the last drop retires the body.
pub struct TBox<T> {
    handle: BoxHandle,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TBox<T> {
    fn clone(&self) -> Self {
        TBox {
            handle: self.handle.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: TxValue> TBox<T> {
    /// Creates a box initialized to `value` on `backend`.
    pub fn new_on(backend: &dyn StmBackend, value: T) -> TBox<T> {
        TBox::from_body(backend.new_box(Value::new(value)))
    }

    /// [`TBox::new_on`] under the name `benchmark/` calls through the
    /// `wtf_mvstm::VBox` re-export; kept for `benchmark/` only.
    pub fn new(backend: &dyn StmBackend, value: T) -> TBox<T> {
        TBox::new_on(backend, value)
    }

    /// Wraps an untyped handle. The caller asserts the stored type is
    /// `T` (reads panic on mismatch).
    pub fn from_body(handle: BoxHandle) -> TBox<T> {
        TBox {
            handle,
            _marker: PhantomData,
        }
    }

    /// This box's id.
    pub fn id(&self) -> BoxId {
        self.body().id()
    }

    /// The untyped body (runtime internals).
    pub fn body(&self) -> &dyn BackendBox {
        self.handle.body()
    }

    /// An uncounted borrow of the body: what a transaction logs.
    pub fn borrow(&self) -> BoxRef {
        self.handle.borrow()
    }

    /// Number of live handles to this box (diagnostics).
    pub fn handles(&self) -> usize {
        self.handle.handles()
    }

    /// Reads the latest committed value, outside any transaction.
    pub fn read_latest(&self) -> T {
        downcast_value(&self.body().read_latest())
    }
}

impl<T> std::fmt::Debug for TBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TBox({:?})", self.handle.body().id())
    }
}

// ---------------------------------------------------------------------------
// The stepwise transaction (explorers, differential tests, plain atomics).
// ---------------------------------------------------------------------------

/// An in-flight transaction on any substrate. Driven stepwise by
/// `wtf-report`'s schedule explorers and wrapped by [`atomic`] for
/// retry-until-commit use.
///
/// [`BackendTxn::read`] is fallible: on a single-version backend a read
/// of a box overwritten since the snapshot returns `Err(Conflict)`, which
/// callers must treat as an abort of the whole transaction (its snapshot
/// is no longer readable). On mvstm it never fails.
pub struct BackendTxn<'s> {
    backend: &'s dyn StmBackend,
    snapshot: BackendSnapshot,
    /// Box plus the version the first read observed — what the
    /// commit-time serialization record re-emits. It must be captured at
    /// read time: after our own commit, GC may have pruned the version we
    /// actually read. Both sets borrow the bodies under `snapshot`.
    read_set: FxHashMap<BoxId, (BoxRef, u64)>,
    write_set: FxHashMap<BoxId, (BoxRef, Value)>,
}

impl<'s> BackendTxn<'s> {
    pub fn begin(backend: &'s dyn StmBackend) -> BackendTxn<'s> {
        BackendTxn {
            snapshot: backend.acquire_snapshot(),
            backend,
            read_set: FxHashMap::default(),
            write_set: FxHashMap::default(),
        }
    }

    /// The snapshot version this transaction reads at.
    pub fn snapshot_version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Transactional read. Sees the transaction's own writes, else the
    /// begin snapshot. `Err(Conflict)` (single-version backends only)
    /// means this transaction can no longer commit — abort it.
    pub fn read<T: TxValue>(&mut self, tbox: &TBox<T>) -> TxResult<T> {
        let id = tbox.id();
        if let Some((_, v)) = self.write_set.get(&id) {
            return Ok(downcast_value(v));
        }
        let mut lent = None;
        let version = tbox.body().read_at(self.snapshot.version(), &mut |v| {
            lent = Some(downcast_value(v))
        })?;
        self.backend
            .tracer()
            .record_full(EventKind::StmRead, id.0, version);
        self.read_set
            .entry(id)
            .or_insert_with(|| (tbox.borrow(), version));
        Ok(lent.expect("read_at lends the value on Ok"))
    }

    /// Transactional write: buffered privately until commit.
    pub fn write<T: TxValue>(&mut self, tbox: &TBox<T>, value: T) -> TxResult<()> {
        self.write_set
            .insert(tbox.id(), (tbox.borrow(), Value::new(value)));
        Ok(())
    }

    /// Explicitly aborts: [`atomic`] will *not* retry.
    pub fn abort<T>(&mut self) -> TxResult<T> {
        Err(StmError::UserAbort)
    }

    /// Validates and publishes. A `Conflict` outside [`atomic`]'s retry
    /// loop (i.e. from the schedule explorers) is a final abort.
    /// Read-only commits cannot conflict.
    pub fn commit(self) -> Result<(), StmError> {
        let backend = self.backend;
        let snapshot = self.snapshot.version();
        if self.write_set.is_empty() {
            // Read-only: every read was validated against the snapshot
            // (mvstm by multi-versioning, tl2 per-read), so the
            // transaction serializes at its snapshot with no commit call.
            backend.note_read_only_commit();
            Self::record_commit(backend, &self.read_set, snapshot, snapshot);
            return Ok(());
        }
        // SAFETY: every entry was borrowed through a handle after
        // `self.snapshot` registered, which drops after this call.
        let body = |b: BoxRef| unsafe { b.get() };
        let reads: Vec<&dyn BackendBox> = self.read_set.values().map(|&(b, _)| body(b)).collect();
        let writes: Vec<(&dyn BackendBox, Value)> = self
            .write_set
            .into_values()
            .map(|(b, v)| (body(b), v))
            .collect();
        let version = backend
            .commit_attributed(snapshot, true, &reads, writes)
            .map_err(|_| StmError::Conflict)?;
        Self::record_commit(backend, &self.read_set, version, snapshot);
        Ok(())
    }

    /// The commit-time serialization record: sorted `CommitRead`s followed
    /// by the `TxnCommit` marker, contiguous on the committing thread's
    /// lane (the shape `wtf-report` inverts).
    fn record_commit(
        backend: &dyn StmBackend,
        read_set: &FxHashMap<BoxId, (BoxRef, u64)>,
        version: u64,
        snapshot: u64,
    ) {
        let tracer = backend.tracer();
        let mut reads: Vec<(BoxId, u64)> = read_set
            .iter()
            .map(|(id, (_, observed))| (*id, *observed))
            .collect();
        reads.sort_unstable();
        for (id, observed) in reads {
            tracer.record_full(EventKind::CommitRead, id.0, observed);
        }
        tracer.record_full(EventKind::TxnCommit, version, snapshot);
    }
}

/// Runs `f` as a transaction on `backend`, retrying on conflicts until it
/// commits — the paper's no-futures baseline, and the one plain retry
/// loop in the workspace (`FutureTm::atomic` keeps its own because a
/// replay restart is not a plain retry). `Err(Aborted)` only when `f`
/// requests an explicit abort via [`BackendTxn::abort`]. A conflict
/// abort retries at once, as in the paper.
pub fn atomic<T>(
    backend: &dyn StmBackend,
    mut f: impl FnMut(&mut BackendTxn) -> TxResult<T>,
) -> Result<T, Aborted> {
    loop {
        let mut txn = BackendTxn::begin(backend);
        match f(&mut txn) {
            Ok(value) => {
                if txn.commit().is_ok() {
                    return Ok(value);
                }
            }
            Err(StmError::Conflict) => {}
            Err(StmError::UserAbort) => return Err(Aborted),
        }
        backend.note_abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_env_values() {
        assert_eq!(BackendKind::parse("mvstm"), Some(BackendKind::Mvstm));
        assert_eq!(BackendKind::parse("TL2"), Some(BackendKind::Tl2));
        assert_eq!(BackendKind::parse(""), Some(BackendKind::Mvstm));
        assert_eq!(BackendKind::parse("nope"), None);
        assert_eq!(BackendKind::Tl2.name(), "tl2");
    }

    fn backend_from(v: Option<&'static str>) -> BackendKind {
        BackendKind::from_knobs(&Knobs(|name: &str| {
            assert_eq!(name, "WTF_BACKEND");
            v.map(str::to_string)
        }))
    }

    #[test]
    fn backend_knob_table() {
        assert_eq!(backend_from(None), BackendKind::Mvstm);
        assert_eq!(backend_from(Some("")), BackendKind::Mvstm);
        for (v, kind) in [
            ("mvstm", BackendKind::Mvstm),
            ("tl2", BackendKind::Tl2),
            ("TL2", BackendKind::Tl2),
        ] {
            assert_eq!(backend_from(Some(v)), kind, "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "WTF_BACKEND=\"tl3\": expected mvstm or tl2")]
    fn malformed_backend_knob_panics() {
        backend_from(Some("tl3"));
    }
}
