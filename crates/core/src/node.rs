//! Sub-transaction nodes: per-node read/write sets and freeze protocol.

use crate::graph::NodeId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use wtf_backend::{BackendBox, BoxId, FxHashMap, Value};

/// Where a read's value came from — needed for top-level commit validation
/// (only `Global` reads are validated against the STM clock) and for
/// resolving escaping futures' read-sets when their spawning top-level
/// commits.
#[derive(Clone)]
pub enum ReadOrigin {
    /// Read the multi-versioned snapshot; records the observed version.
    Global(u64),
    /// Read an iCommitted ancestor's buffered write.
    Ancestor(NodeId),
}

pub struct ReadEntry {
    pub body: Arc<dyn BackendBox>,
    pub origin: ReadOrigin,
}

/// What kind of sub-transaction a node hosts (diagnostics + tracing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The top-level transaction's first segment.
    Root,
    /// A transactional future's body.
    Future,
    /// A continuation segment (after a submit or an explicit step).
    Continuation,
    /// An evaluation segment (starts with an evaluate).
    Eval,
}

/// One incarnation of a sub-transaction. Aborted incarnations are replaced
/// wholesale (fresh `Arc`) so stale readers can never resurrect old state.
pub struct SubTxNode {
    pub id: NodeId,
    /// Role of this node in its top-level transaction (diagnostics).
    #[allow(dead_code)]
    pub kind: NodeKind,
    /// Set by a conflicting serialization (SO mode) or a cancelled
    /// top-level; the owning thread notices at its next operation.
    // ordering: release-store dooms the node so the doom reason's side
    // effects are visible to the owner; acquire-load at the owner's next
    // operation pairs with it.
    pub doomed: AtomicBool,
    /// Read-set; locked because validators scan it concurrently.
    pub reads: Mutex<FxHashMap<BoxId, ReadEntry>>,
    /// Private write buffer; locked for symmetric access, though only the
    /// owning thread writes it before freeze.
    writes: Mutex<WriteMap>,
    /// Set exactly once at iCommit; after that the write-set is immutable
    /// and shared without locking.
    frozen: OnceLock<FrozenWrites>,
}

/// A node's buffered writes: backend box handle + pending value per id.
pub type WriteMap = FxHashMap<BoxId, (Arc<dyn BackendBox>, Value)>;

/// An iCommitted node's immutable write-set, shared without locking.
pub type FrozenWrites = Arc<WriteMap>;

impl SubTxNode {
    pub fn new(id: NodeId, kind: NodeKind) -> Arc<SubTxNode> {
        Arc::new(SubTxNode {
            id,
            kind,
            doomed: AtomicBool::new(false),
            reads: Mutex::new(FxHashMap::default()),
            writes: Mutex::new(FxHashMap::default()),
            frozen: OnceLock::new(),
        })
    }

    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// Buffers a write. Must not be called after freeze (enforced: only
    /// the owning thread writes, and it freezes before moving on).
    pub fn buffer_write(&self, id: BoxId, body: Arc<dyn BackendBox>, value: Value) {
        debug_assert!(self.frozen.get().is_none(), "write after iCommit");
        self.writes.lock().insert(id, (body, value));
    }

    /// Looks up the node's own buffered write.
    pub fn own_write(&self, id: BoxId) -> Option<Value> {
        if let Some(frozen) = self.frozen.get() {
            return frozen.get(&id).map(|(_, v)| v.clone());
        }
        self.writes.lock().get(&id).map(|(_, v)| v.clone())
    }

    /// Records a read (later entries win: re-reads refresh the origin).
    pub fn record_read(&self, id: BoxId, body: Arc<dyn BackendBox>, origin: ReadOrigin) {
        self.reads.lock().insert(id, ReadEntry { body, origin });
    }

    /// Freezes the write buffer (iCommit). Idempotent.
    pub fn freeze(&self) -> FrozenWrites {
        self.frozen
            .get_or_init(|| Arc::new(std::mem::take(&mut *self.writes.lock())))
            .clone()
    }

    /// Empties the write buffer into the caller (the commit of a node that
    /// never iCommits: a flat top-level's root).
    pub fn take_writes(&self) -> WriteMap {
        std::mem::take(&mut *self.writes.lock())
    }

    /// The frozen write-set, if iCommitted.
    pub fn frozen_writes(&self) -> Option<&FrozenWrites> {
        self.frozen.get()
    }

    /// Does the (frozen or live) write-set intersect `ids`? Used by both
    /// validation passes.
    pub fn writes_intersect(&self, ids: &FxHashMap<BoxId, ()>) -> bool {
        if let Some(frozen) = self.frozen.get() {
            return frozen.keys().any(|k| ids.contains_key(k));
        }
        self.writes.lock().keys().any(|k| ids.contains_key(k))
    }

    /// Does the read-set intersect `ids`?
    pub fn reads_intersect(&self, ids: &FxHashMap<BoxId, ()>) -> bool {
        self.reads.lock().keys().any(|k| ids.contains_key(k))
    }

    /// The smallest box id in `reads ∩ ids`, for abort attribution (the
    /// minimum — not iteration order — so traces stay deterministic).
    pub fn read_conflict_witness(&self, ids: &FxHashMap<BoxId, ()>) -> Option<BoxId> {
        self.reads
            .lock()
            .keys()
            .filter(|k| ids.contains_key(k))
            .copied()
            .min_by_key(|b| b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtf_backend::TBox;
    use wtf_mvstm::Stm;

    #[test]
    fn freeze_makes_writes_shared_and_immutable() {
        let b = TBox::new_on(&Stm::new(), 1i64);
        let node = SubTxNode::new(0, NodeKind::Root);
        let body = b.body().clone();
        node.buffer_write(b.id(), body.clone(), Arc::new(2i64));
        assert_eq!(
            *node
                .own_write(b.id())
                .unwrap()
                .downcast_ref::<i64>()
                .unwrap(),
            2
        );
        let frozen = node.freeze();
        assert_eq!(frozen.len(), 1);
        // Idempotent.
        let again = node.freeze();
        assert!(Arc::ptr_eq(&frozen, &again));
        assert!(node.frozen_writes().is_some());
    }

    #[test]
    fn intersections() {
        let stm = Stm::new();
        let a = TBox::new_on(&stm, 0i64);
        let b = TBox::new_on(&stm, 0i64);
        let node = SubTxNode::new(0, NodeKind::Future);
        node.buffer_write(a.id(), a.body().clone(), Arc::new(1i64));
        node.record_read(b.id(), b.body().clone(), ReadOrigin::Global(0));
        let mut ids = FxHashMap::default();
        ids.insert(a.id(), ());
        assert!(node.writes_intersect(&ids));
        assert!(!node.reads_intersect(&ids));
        let mut ids_b = FxHashMap::default();
        ids_b.insert(b.id(), ());
        assert!(node.reads_intersect(&ids_b));
        assert!(!node.writes_intersect(&ids_b));
    }

    #[test]
    fn doom_flag() {
        let node = SubTxNode::new(3, NodeKind::Continuation);
        assert!(!node.is_doomed());
        node.doom();
        assert!(node.is_doomed());
    }
}
