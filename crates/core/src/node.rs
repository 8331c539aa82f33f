//! Sub-transaction nodes: per-node read/write sets and freeze protocol.

use crate::graph::NodeId;
use crate::readlog::AppendLog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use wtf_backend::{BoxId, BoxRef, FxHashMap, Value};

/// Where a read's value came from — needed for top-level commit validation
/// (only `Global` reads are validated against the STM clock) and for
/// resolving escaping futures' read-sets when their spawning top-level
/// commits.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ReadOrigin {
    /// Read the multi-versioned snapshot; records the observed version.
    Global(u64),
    /// Read an iCommitted ancestor's buffered write.
    Ancestor(NodeId),
}

/// One logged read. `body` borrows the box under the top-level's
/// registration: logging it counts nothing.
pub struct ReadEntry {
    pub id: BoxId,
    pub body: BoxRef,
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
    /// Read-set: a log of every read in program order. Only the `TxCtx`
    /// that runs this node appends; validators, the commit gather and
    /// escape resolution scan the published prefix without a lock. A box
    /// read twice has two entries unless the reads were adjacent, so a
    /// scanner must treat a box by its worst entry.
    pub reads: AppendLog<ReadEntry>,
    /// The write-set, set exactly once at iCommit and shared without
    /// locking from then on. Until then the writes are the owning
    /// `TxCtx`'s alone (`TxCtx::writes`) and no other thread sees them.
    frozen: OnceLock<FrozenWrites>,
}

/// A node's buffered writes: borrowed box + pending value per id.
pub type WriteMap = FxHashMap<BoxId, (BoxRef, Value)>;

/// An iCommitted node's immutable write-set, shared without locking.
pub type FrozenWrites = Arc<WriteMap>;

impl SubTxNode {
    pub fn new(id: NodeId, kind: NodeKind) -> Arc<SubTxNode> {
        Arc::new(SubTxNode {
            id,
            kind,
            doomed: AtomicBool::new(false),
            reads: AppendLog::default(),
            frozen: OnceLock::new(),
        })
    }

    pub fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    pub fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    /// Records a read. An immediate re-read of the same box from the
    /// same origin adds nothing; any other appends, so the log grows with
    /// the reads performed, not with the boxes read.
    pub fn record_read(&self, id: BoxId, body: BoxRef, origin: ReadOrigin) {
        let repeat = |last: &ReadEntry| last.id == id && last.origin == origin;
        if !self.reads.last().is_some_and(repeat) {
            self.reads.push(ReadEntry { id, body, origin });
        }
    }

    /// Freezes `writes`, the owner's buffer, as this node's write-set
    /// (iCommit). Only the first call takes effect.
    pub fn freeze(&self, writes: WriteMap) -> &FrozenWrites {
        debug_assert!(
            self.frozen.get().is_none() || writes.is_empty(),
            "write after iCommit"
        );
        self.frozen.get_or_init(|| Arc::new(writes))
    }

    /// The frozen write-set, if iCommitted.
    pub fn frozen_writes(&self) -> Option<&FrozenWrites> {
        self.frozen.get()
    }

    /// Does the write-set intersect `ids`? Backward validation asks this
    /// of the chain behind an evaluation point, every node of which its
    /// owner froze before it moved on. A node that has not frozen has no
    /// write-set another thread may look at: the answer is "conflict", the
    /// safe direction (the future re-executes inline).
    pub fn writes_intersect(&self, ids: &FxHashMap<BoxId, ()>) -> bool {
        debug_assert!(self.frozen.get().is_some(), "live node on a backward chain");
        self.frozen
            .get()
            .is_none_or(|frozen| frozen.keys().any(|k| ids.contains_key(k)))
    }

    /// Does the read-set intersect `ids`?
    pub fn reads_intersect(&self, ids: &FxHashMap<BoxId, ()>) -> bool {
        self.reads.published().any(|e| ids.contains_key(&e.id))
    }

    /// The smallest box id in `reads ∩ ids`, for abort attribution (the
    /// minimum, so the witness does not depend on the order of the reads).
    pub fn read_conflict_witness(&self, ids: &FxHashMap<BoxId, ()>) -> Option<BoxId> {
        let hits = self.reads.published().map(|e| e.id);
        hits.filter(|id| ids.contains_key(id)).min_by_key(|b| b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtf_backend::TBox;
    use wtf_mvstm::Stm;

    fn one_write(b: &TBox<i64>, v: i64) -> WriteMap {
        let mut writes = WriteMap::default();
        writes.insert(b.id(), (b.borrow(), Arc::new(v)));
        writes
    }

    #[test]
    fn freeze_makes_writes_shared_and_immutable() {
        let b = TBox::new_on(&Stm::new(), 1i64);
        let node = SubTxNode::new(0, NodeKind::Root);
        assert!(node.frozen_writes().is_none());
        let frozen = node.freeze(one_write(&b, 2)).clone();
        assert_eq!(frozen.len(), 1);
        // Only the first freeze counts.
        let again = node.freeze(WriteMap::default());
        assert!(Arc::ptr_eq(&frozen, again));
        assert!(Arc::ptr_eq(&frozen, node.frozen_writes().unwrap()));
    }

    #[test]
    fn intersections() {
        let stm = Stm::new();
        let a = TBox::new_on(&stm, 0i64);
        let b = TBox::new_on(&stm, 0i64);
        let node = SubTxNode::new(0, NodeKind::Future);
        node.record_read(b.id(), b.borrow(), ReadOrigin::Global(0));
        node.freeze(one_write(&a, 1));
        let mut ids = FxHashMap::default();
        ids.insert(a.id(), ());
        assert!(node.writes_intersect(&ids));
        assert!(!node.reads_intersect(&ids));
        let mut ids_b = FxHashMap::default();
        ids_b.insert(b.id(), ());
        assert!(node.reads_intersect(&ids_b));
        assert!(!node.writes_intersect(&ids_b));
        assert_eq!(node.read_conflict_witness(&ids_b), Some(b.id()));
    }

    #[test]
    fn only_an_adjacent_repeat_is_suppressed() {
        let stm = Stm::new();
        let a = TBox::new_on(&stm, 0i64);
        let b = TBox::new_on(&stm, 0i64);
        let node = SubTxNode::new(0, NodeKind::Future);
        for _ in 0..3 {
            node.record_read(a.id(), a.borrow(), ReadOrigin::Global(0));
        }
        assert_eq!(node.reads.len(), 1, "same box, same origin, adjacent");
        node.record_read(a.id(), a.borrow(), ReadOrigin::Ancestor(2));
        assert_eq!(node.reads.len(), 2, "the origin moved");
        node.record_read(b.id(), b.borrow(), ReadOrigin::Global(0));
        node.record_read(a.id(), a.borrow(), ReadOrigin::Ancestor(2));
        assert_eq!(node.reads.len(), 4, "not adjacent: appended again");
        // Entries and buffered writes borrow the box: counting nothing,
        // they leave its handle count where it was, dropped or not.
        let mut writes = WriteMap::default();
        for i in 0..100 {
            writes.insert(a.id(), (a.borrow(), Arc::new(i)));
        }
        node.freeze(writes);
        assert_eq!(a.handles(), 1, "N reads and writes count no handle");
        drop(node);
        assert_eq!(a.handles(), 1, "dropping them uncounts none");
    }

    #[test]
    fn doom_flag() {
        let node = SubTxNode::new(3, NodeKind::Continuation);
        assert!(!node.is_doomed());
        node.doom();
        assert!(node.is_doomed());
    }
}
