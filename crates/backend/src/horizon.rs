//! Box lifetimes under the snapshot horizon.
//!
//! A box is a counted handle over an uncounted body. [`BoxHandle`] (and
//! the typed [`TBox`](crate::TBox) over it) counts its handles in a word
//! of the body's own allocation. Transactional code takes no handle: the
//! read log, the write buffers and the commit lists hold [`BoxRef`]
//! borrows, which count nothing, so a transactional read or write writes
//! no line another reader of the box shares.
//!
//! A borrow stays valid because a body whose last handle goes is not
//! freed but *retired* to its backend's [`Horizon`], stamped with the
//! clock, and freed once every registered snapshot is newer than the
//! stamp — the rule mvstm's `prune` applies to version nodes — or at once
//! when nothing is registered. Both backends register their snapshots
//! here, so both share one horizon.
//!
//! ## Why a borrow never outlives its body
//!
//! A transaction borrows a box only through a handle, and only after it
//! registered its snapshot `s`. The last-handle drop comes after every
//! other handle's drop (the count's acquire-release decrements), so the
//! borrower's registration happens before the retirement. Therefore:
//!
//! * the stamp, a clock load after the registration's clock load, is at
//!   least `s`;
//! * a drain takes its entries out of the list (after their pushes) and
//!   only then scans the registry, so the scan sees the borrower's slot
//!   (or its release) and computes a horizon `<= s <= stamp`: the body
//!   stays;
//! * the free-at-once check (`ActiveRegistry::is_idle`) likewise sees
//!   the borrower's slot.
//!
//! Unlike version GC, a drain does not discount the committer's own
//! registration: an escaping future may still borrow under it.
//!
//! What must outlive its registration — an escaped future's record,
//! which its adopter keeps until the adopter ends — counts instead:
//! [`BoxRef::upgrade`] takes a handle while the borrow is still covered,
//! and fails once the body is retired.

use crate::registry::ActiveRegistry;
use crate::BackendBox;
use parking_lot::Mutex;
use std::mem::ManuallyDrop;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// The published version clock, the snapshot registry and the retired
/// bodies of one backend instance.
pub struct Horizon {
    published: Published,
    registry: ActiveRegistry,
    /// Bodies whose last handle went while a snapshot was registered.
    // lock-order: horizon-retired — a leaf lock: taken with stripe (and
    // slot) locks held when an overwritten or pruned value drops the
    // last handle of a box it held; never held while a body is freed.
    retired: Mutex<Vec<Retired>>,
    /// Length of `retired`, so that commits skip the lock when it is 0.
    // ordering: release-store under the `retired` lock after each push
    // or take; acquire-load in the commit-time emptiness check, the
    // snapshot release and `retired_boxes`. A stale zero only defers a
    // drain to the next commit.
    retired_len: AtomicUsize,
    /// Set when the backend drops: from then on the last snapshot
    /// release drains what is left.
    // ordering: release-store in `close`; acquire-load in the snapshot
    // release, after it found the retire list non-empty.
    closed: AtomicBool,
}

/// The clock on a cache line of its own. Commits write it; every
/// snapshot reads it and also writes the `Arc<Horizon>` counts, which
/// this alignment keeps on a line before the horizon's fields.
#[repr(align(64))]
struct Published {
    /// Committed state has versions `0..=clock`, all fully installed.
    // ordering: seqcst-store is mvstm's in-ticket-order publication,
    // which joins the registry's single total order with the slot
    // stores and the horizon scan (`registry` module docs), whose
    // registration loop reads it seqcst-load; acqrel-rmw is TL2's bump,
    // made with every written stripe locked; acquire-load everywhere
    // else (snapshots, retire stamps, the publish-order spin) pairs with
    // both, so a snapshot implies a fully installed prefix.
    clock: AtomicU64,
}

/// One retired body and the clock it was retired at.
struct Retired {
    stamp: u64,
    cell: NonNull<Cell<dyn BackendBox>>,
}

// SAFETY: a retired cell has no handle left: the list owns it alone, and
// its body is `Send + Sync` (`BackendBox`'s supertraits).
unsafe impl Send for Retired {}

/// Frees a cell whose last handle has gone and whose horizon has been
/// taken out.
///
/// # Safety
///
/// `cell` came from [`BoxHandle::new`], its count is zero, its `horizon`
/// field was taken, and no [`BoxRef`] to its body is dereferenced again.
// SAFETY: an `unsafe fn` because the contract above is the caller's.
unsafe fn free(cell: NonNull<Cell<dyn BackendBox>>) {
    // SAFETY: the caller's contract; `Box::new` made the allocation and
    // the `ManuallyDrop` horizon is not dropped twice.
    drop(unsafe { Box::from_raw(cell.as_ptr()) });
}

impl Horizon {
    pub fn new() -> Arc<Horizon> {
        Arc::new(Horizon {
            published: Published {
                clock: AtomicU64::new(0),
            },
            registry: ActiveRegistry::new(),
            retired: Mutex::new(Vec::new()),
            retired_len: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        })
    }

    /// The published clock.
    pub fn now(&self) -> u64 {
        self.published.clock.load(Ordering::Acquire)
    }

    /// Publishes `version` (mvstm, in ticket order).
    pub fn publish(&self, version: u64) {
        self.published.clock.store(version, Ordering::SeqCst);
    }

    /// Bumps the clock by one and returns the new version (TL2).
    pub fn advance(&self) -> u64 {
        self.published.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Registers a snapshot at the current clock. Allocates nothing: the
    /// registry slot travels inline in the snapshot.
    pub fn register(self: &Arc<Self>) -> BackendSnapshot {
        let (version, token) = self.registry.register_current(&self.published.clock);
        BackendSnapshot {
            version,
            token,
            horizon: Arc::clone(self),
        }
    }

    /// Oldest registered snapshot, discounting one registration at
    /// `excluding`, or `fallback` when none is left: mvstm's version GC
    /// horizon.
    pub fn min_active_excluding(&self, excluding: u64, fallback: u64) -> u64 {
        self.registry.min_active_excluding(excluding, fallback)
    }

    /// Number of distinct registered snapshot versions (diagnostics).
    pub fn active_snapshots(&self) -> usize {
        self.registry.active_snapshots()
    }

    /// Occupied registration slots (a gauge).
    pub fn occupancy(&self) -> usize {
        self.registry.occupancy()
    }

    /// Bodies retired and not yet freed (diagnostics).
    pub fn retired_boxes(&self) -> usize {
        self.retired_len.load(Ordering::Acquire)
    }

    /// The last handle of `cell` went: free it now if nothing is
    /// registered, else retire it at the current clock (module docs).
    fn retire(&self, cell: NonNull<Cell<dyn BackendBox>>) {
        if self.registry.is_idle() {
            // SAFETY: the count is zero and the horizon was taken; no
            // registration is held, so no borrower is left (module docs).
            unsafe { free(cell) };
            return;
        }
        let stamp = self.now();
        let mut retired = self.retired.lock();
        retired.push(Retired { stamp, cell });
        self.retired_len.store(retired.len(), Ordering::Release);
    }

    /// Frees the retired bodies every registration — the caller's own
    /// included — has passed, and keeps the rest. A lock-free check when
    /// there are none. Call it with no lock held: a freed body drops its
    /// values, which may retire more boxes.
    pub fn drain(&self) {
        if self.retired_len.load(Ordering::Acquire) == 0 {
            return;
        }
        // Take the entries out first, scan after (module docs).
        let taken = {
            let mut retired = self.retired.lock();
            self.retired_len.store(0, Ordering::Release);
            std::mem::take(&mut *retired)
        };
        let floor = self.registry.min_active_excluding(u64::MAX, u64::MAX);
        let (dead, kept): (Vec<Retired>, Vec<Retired>) =
            taken.into_iter().partition(|r| r.stamp < floor);
        if !kept.is_empty() {
            let mut retired = self.retired.lock();
            retired.extend(kept);
            self.retired_len.store(retired.len(), Ordering::Release);
        }
        for r in dead {
            // SAFETY: retired cells have a zero count and no horizon; every
            // registration is newer than the stamp, so no borrower is left
            // (module docs).
            unsafe { free(r.cell) };
        }
    }

    /// The backend is going away: free what no registration holds, and
    /// let the last release of one that outlives the backend free the
    /// rest.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.drain();
    }

    fn release(&self, token: usize, version: u64) {
        self.registry.deregister(token, version);
        if self.retired_len.load(Ordering::Acquire) > 0 && self.closed.load(Ordering::Acquire) {
            self.drain();
        }
    }
}

impl Drop for Horizon {
    fn drop(&mut self) {
        // No registration (each holds the horizon) and no live handle
        // (each cell holds it too): nothing can borrow a retired body.
        for r in self.retired.get_mut().drain(..) {
            // SAFETY: as in `drain`, with no registration at all.
            unsafe { free(r.cell) };
        }
    }
}

/// A begin-snapshot registered with a backend's [`Horizon`]: it keeps
/// the versions at or after it (mvstm) and every box body borrowed under
/// it (both backends) until it drops.
pub struct BackendSnapshot {
    version: u64,
    /// Registry slot or overflow token, to release on drop.
    token: usize,
    horizon: Arc<Horizon>,
}

impl BackendSnapshot {
    /// The version this snapshot reads at.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl Drop for BackendSnapshot {
    fn drop(&mut self) {
        self.horizon.release(self.token, self.version);
    }
}

impl std::fmt::Debug for BackendSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BackendSnapshot({})", self.version)
    }
}

/// The one allocation behind a box: its handle count, the horizon its
/// body retires to, and the backend's body.
struct Cell<B: ?Sized> {
    // ordering: relaxed-rmw on clone (the cloner already holds a handle,
    // as in `Arc::clone`); acqrel-rmw on drop, so the last dropper sees
    // every other holder's use of the body before it retires it;
    // acquire-rmw in `BoxRef::upgrade`, as in `Weak::upgrade`, with a
    // relaxed-rmw failure ordering (a zero count is final). relaxed-load
    // in the `handles` diagnostic, which decides nothing.
    handles: AtomicUsize,
    /// Taken out when the last handle goes: a retired body must not keep
    /// its horizon alive, since the horizon is what frees it.
    horizon: ManuallyDrop<Arc<Horizon>>,
    body: B,
}

/// The counted, untyped handle of a box: what a backend's `new_box`
/// returns and [`TBox`](crate::TBox) wraps. Clone and drop count handles
/// in the body's own allocation; the last drop retires the body.
pub struct BoxHandle {
    cell: NonNull<Cell<dyn BackendBox>>,
}

// SAFETY: the handles of one box share its cell: the count is atomic,
// the body is `Send + Sync` (`BackendBox`'s supertraits), and so is the
// horizon.
unsafe impl Send for BoxHandle {}
// SAFETY: as for `Send`: through `&BoxHandle` a thread reads the body
// and clones the handle, both safe to do concurrently.
unsafe impl Sync for BoxHandle {}

impl BoxHandle {
    /// Wraps `body`, owned by the backend behind `horizon`, as the box's
    /// first handle.
    pub fn new<B: BackendBox + 'static>(horizon: &Arc<Horizon>, body: B) -> BoxHandle {
        let cell: Box<Cell<dyn BackendBox>> = Box::new(Cell {
            handles: AtomicUsize::new(1),
            horizon: ManuallyDrop::new(Arc::clone(horizon)),
            body,
        });
        BoxHandle {
            cell: NonNull::from(Box::leak(cell)),
        }
    }

    fn cell(&self) -> &Cell<dyn BackendBox> {
        // SAFETY: the `handles` count is at least one while `self` lives,
        // and a cell is retired (and later freed) only once it drops to 0.
        unsafe { self.cell.as_ref() }
    }

    /// The backend's body.
    pub fn body(&self) -> &dyn BackendBox {
        &self.cell().body
    }

    /// An uncounted borrow of the body, for a transaction whose snapshot
    /// is registered (see [`BoxRef::get`]).
    pub fn borrow(&self) -> BoxRef {
        BoxRef(self.cell)
    }

    /// Number of live handles (diagnostics).
    pub fn handles(&self) -> usize {
        self.cell().handles.load(Ordering::Relaxed)
    }
}

impl Clone for BoxHandle {
    fn clone(&self) -> Self {
        let held = self.cell().handles.fetch_add(1, Ordering::Relaxed);
        // As `Arc`: a count driven past `isize::MAX` by leaked clones
        // would wrap and free a live body.
        assert!(held < isize::MAX as usize, "box handle count overflow");
        BoxHandle { cell: self.cell }
    }
}

impl Drop for BoxHandle {
    fn drop(&mut self) {
        if self.cell().handles.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // SAFETY: `handles` reached zero: no handle is left to read the
        // `horizon` field, which is taken exactly once, here. Borrowers
        // only ever reach the `body` and `handles` fields, which this
        // does not touch.
        let horizon = unsafe { ManuallyDrop::take(&mut (*self.cell.as_ptr()).horizon) };
        horizon.retire(self.cell);
    }
}

/// An uncounted borrow of a box body: what transactional code logs.
/// Copying one writes nothing; dereferencing it is [`BoxRef::get`].
#[derive(Clone, Copy)]
pub struct BoxRef(NonNull<Cell<dyn BackendBox>>);

// SAFETY: a `BoxRef` is an address. Sharing it is harmless; what could
// go wrong — dereferencing it after the body is freed — is `unsafe` and
// bound to the registration rule of `BoxRef::get`.
unsafe impl Send for BoxRef {}
// SAFETY: as for `Send`.
unsafe impl Sync for BoxRef {}

impl BoxRef {
    /// The borrowed body.
    ///
    /// # Safety
    ///
    /// The caller holds a registration on the box's backend (a
    /// [`BackendSnapshot`]) that was taken before this borrow was, and
    /// does not use the result after that registration drops: the body
    /// is not freed before then (module docs).
    // SAFETY: an `unsafe fn` because the registration rule above is the
    // caller's to keep.
    pub unsafe fn get<'a>(self) -> &'a dyn BackendBox {
        // SAFETY: the caller's contract keeps the cell allocated. The
        // reference covers the body alone: a last-handle drop may take
        // the `horizon` field meanwhile.
        unsafe { &(*self.0.as_ptr()).body }
    }

    /// A counted handle of the borrowed box, for a holder that must
    /// outlive the registration, or `None` if its last handle has gone
    /// (the body is retired, and stays so).
    ///
    /// # Safety
    ///
    /// As for [`BoxRef::get`], at the time of the call.
    // SAFETY: an `unsafe fn` because the registration rule above is the
    // caller's to keep.
    pub unsafe fn upgrade(self) -> Option<BoxHandle> {
        // SAFETY: as in `get`, covering the count alone.
        let handles = unsafe { &(*self.0.as_ptr()).handles };
        let held = handles
            .fetch_update(Ordering::Acquire, Ordering::Relaxed, |n| {
                (n != 0).then_some(n + 1)
            })
            .ok()?;
        assert!(held < isize::MAX as usize, "box handle count overflow");
        Some(BoxHandle { cell: self.0 })
    }
}
