//! Versioned boxes: the JVSTM storage cell.
//!
//! Each box stores its committed history as an immutable singly linked
//! chain of [`VersionNode`]s, newest first, reached through an atomic
//! head pointer. Snapshot reads walk the chain lock-free; installing a
//! new version is a single pointer swing (O(1), vs the old
//! `Vec::insert(0, ..)` which shifted the whole history); pruning
//! detaches and frees the dead tail. The mutating operations are
//! serialized per box by the owning [`Stm`]'s stripe locks (see
//! `crate::stripe`), which is also what makes `chain_len` need a stripe.
//!
//! ## Memory reclamation
//!
//! `prune` frees detached nodes immediately — no epochs, no hazard
//! pointers. That is sound because of the registry invariant: the GC
//! horizon `min_active` computed at commit time never exceeds any live
//! registered snapshot (see `crate::registry`). A reader walking on
//! behalf of snapshot `s >= min_active` only dereferences nodes at or
//! above the newest node with `version <= s`, all of which sit at or
//! above the keep node (newest `version <= min_active`); `prune` frees
//! only nodes strictly *below* the keep node and never touches the
//! `next` pointer of any node above it, so the reader can never reach a
//! freed node. The head node in particular is never freed while the box
//! is alive, which is why [`BoxBody::head_version`] and
//! [`BackendBox::read_latest`] are unconditionally safe.
//!
//! The same argument covers a lending read: [`BackendBox::read_at`]
//! hands its closure a borrow of the visible node's value, and that node
//! is at or above the keep node for as long as the reader's registration
//! lives — which is longer than the call, since the caller holds both
//! the registration and the box.

use crate::stripe::StripeTable;
use std::any::Any;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;
use wtf_backend::{BackendBox, BoxId, StmError, Value};

/// One committed version of a box's value: a node in the immutable
/// newest-first chain.
pub(crate) struct VersionNode {
    pub(crate) version: u64,
    pub(crate) value: Value,
    /// Next-older version; null at the chain's tail. Only ever mutated by
    /// `prune` (at the keep node, to detach the dead tail).
    // ordering: acquire-load on traversal pairs with the installer's
    // release head store (the node's fields were published before it
    // became reachable); acqrel-swap detaches the dead tail under the
    // stripe lock; relaxed-load only on nodes already private to the
    // freeing thread (prune's detached tail, Drop's exclusive chain).
    next: AtomicPtr<VersionNode>,
}

/// A versioned box: the untyped body every `TBox` handle to it shares,
/// handed out by [`Stm`](crate::Stm)'s `new_box` as the `dyn BackendBox`
/// itself.
pub(crate) struct BoxBody {
    pub(crate) id: BoxId,
    /// Newest version; never null (boxes are born with one version).
    // ordering: release-store in `install` publishes the new node and
    // the chain behind it to acquire-load readers (`read_at`,
    // `head_version`, `read_latest`, `chain_len`, `prune`); relaxed-load
    // is permitted only in `install` itself, which re-reads its own head
    // under the box's stripe lock. relaxed-guard: install's
    // monotonicity debug_assert reads through that stripe-locked head.
    head: AtomicPtr<VersionNode>,
    /// The owning STM's stripe table: `chain_len` takes this box's stripe
    /// to walk safely against a concurrent committer's prune.
    pub(crate) stripes: Arc<StripeTable>,
}

impl BoxBody {
    /// A box whose one version is the initial `value` at version 0.
    pub(crate) fn new(id: BoxId, stripes: Arc<StripeTable>, value: Value) -> BoxBody {
        let node = Box::into_raw(Box::new(VersionNode {
            version: 0,
            value,
            next: AtomicPtr::new(ptr::null_mut()),
        }));
        BoxBody {
            id,
            head: AtomicPtr::new(node),
            stripes,
        }
    }

    /// Newest committed version number. Lock-free: the head node is never
    /// freed while the box is alive.
    pub(crate) fn head_version(&self) -> u64 {
        // SAFETY: `head` is never null, and the head node is never freed
        // while the box is alive (module docs), so the deref is valid.
        unsafe { (*self.head.load(Ordering::Acquire)).version }
    }

    /// Lends `f` the value of the newest version with `version <= snapshot`
    /// and returns that version number. Lock-free, and it writes nothing:
    /// `f` borrows the value in place, no reference count is touched.
    ///
    /// Callers must hold a live registration (a `BackendSnapshot` from
    /// this STM) at a version `<= snapshot`; that is what keeps every
    /// node this walk dereferences — and the one `f` borrows from, for as
    /// long as `f` runs — out of reach of concurrent pruning (module docs).
    pub(crate) fn read_at(&self, snapshot: u64, f: impl FnOnce(&Value)) -> u64 {
        let mut node = self.head.load(Ordering::Acquire);
        let mut oldest_seen = u64::MAX;
        while !node.is_null() {
            // SAFETY: the caller's live registration keeps every node on
            // this walk above the GC horizon (module docs), and the
            // acquire loads of `head`/`next` ordered the node's fields.
            let n = unsafe { &*node };
            if n.version <= snapshot {
                f(&n.value);
                return n.version;
            }
            oldest_seen = n.version;
            node = n.next.load(Ordering::Acquire);
        }
        // Unreachable through the public API: every box is born at
        // version 0, which no snapshot precedes, and GC never removes the
        // last version <= min_active.
        panic!(
            "VBox {:?}: no version visible at snapshot {} (oldest retained: {})",
            self.id, snapshot, oldest_seen
        );
    }

    /// Installs `value` at `version` (new head). O(1): allocates one node
    /// and swings the head pointer. Callers must hold this box's stripe
    /// lock — that is the per-box serialization of installers.
    pub(crate) fn install(&self, version: u64, value: Value) {
        let old_head = self.head.load(Ordering::Relaxed);
        debug_assert!(
            // SAFETY: `head` is never null and the head node is never
            // freed while the box is alive (module docs).
            unsafe { (*old_head).version } < version,
            "versions must be monotonic"
        );
        let node = Box::into_raw(Box::new(VersionNode {
            version,
            value,
            next: AtomicPtr::new(old_head),
        }));
        // Release pairs with the Acquire head loads in read_at: a reader
        // that sees the new node sees its fields and the old chain.
        self.head.store(node, Ordering::Release);
    }

    /// Drops versions no active snapshot can observe: keeps every version
    /// newer than `min_active` plus the newest one at-or-below it (the
    /// keep node), detaching and freeing the rest. Callers must hold this
    /// box's stripe lock. Returns the number of versions freed.
    pub(crate) fn prune(&self, min_active: u64) -> usize {
        // SAFETY: callers hold this box's stripe lock, so we are the only
        // mutator of `head`/`next`; the registry horizon invariant
        // (module docs) keeps concurrent readers off every node we free.
        unsafe {
            // The stripe lock excludes other mutators, so plain loads of
            // our own pointers suffice; Acquire on traversal keeps us
            // paired with installers on other boxes' freshly read heads.
            let mut keep = self.head.load(Ordering::Acquire);
            while !keep.is_null() && (*keep).version > min_active {
                keep = (*keep).next.load(Ordering::Acquire);
            }
            if keep.is_null() {
                return 0;
            }
            // Detach the dead tail below the keep node. Readers never load
            // `next` of the keep node (its version is <= min_active, hence
            // <= their snapshot: they stop there), so the freed nodes are
            // unreachable the moment this swap completes.
            let mut dead = (*keep).next.swap(ptr::null_mut(), Ordering::AcqRel);
            let mut pruned = 0;
            while !dead.is_null() {
                let next = (*dead).next.load(Ordering::Relaxed);
                drop(Box::from_raw(dead));
                pruned += 1;
                dead = next;
            }
            pruned
        }
    }

    /// Number of retained versions (diagnostics / GC tests). Takes the
    /// box's stripe lock so the walk cannot race a committer's prune.
    pub(crate) fn chain_len(&self) -> usize {
        let _stripe = self.stripes.lock_mask(StripeTable::mask_of(self.id));
        let mut len = 0;
        let mut node = self.head.load(Ordering::Acquire);
        while !node.is_null() {
            len += 1;
            // SAFETY: the stripe lock taken above excludes `prune`, so
            // every node on the chain stays allocated for this walk.
            node = unsafe { (*node).next.load(Ordering::Acquire) };
        }
        len
    }
}

impl Drop for BoxBody {
    fn drop(&mut self) {
        // Exclusive access: free the whole chain.
        let mut node = *self.head.get_mut();
        while !node.is_null() {
            // SAFETY: `&mut self` proves exclusive access; every chain
            // node was created by `Box::into_raw` and is owned solely by
            // this chain, so reclaiming each exactly once is sound.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next.load(Ordering::Relaxed);
        }
    }
}

impl BackendBox for BoxBody {
    fn id(&self) -> BoxId {
        self.id
    }

    fn read_at(&self, snapshot: u64, f: &mut dyn FnMut(&Value)) -> Result<u64, StmError> {
        // Multi-versioning: the snapshot's version is always retained
        // while the snapshot is live, so reads cannot fail.
        Ok(BoxBody::read_at(self, snapshot, f))
    }

    /// Touches only the head node, which is never reclaimed while the box
    /// is alive, so no snapshot registration is needed.
    fn read_latest(&self) -> Value {
        let node = self.head.load(Ordering::Acquire);
        // SAFETY: `head` is never null and the head node is never freed
        // while the box is alive (module docs).
        unsafe { (*node).value.clone() }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
