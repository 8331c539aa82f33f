//! Top-level transactions: graph ownership, future serialization
//! (forward/backward validation), settlement policies and final commit.

use crate::ctx::TxCtx;
use crate::future::{BodyFn, Done, EscapeRecord, FutState, FutureCore, Move, Phase};
use crate::graph::{Graph, GraphInner, NodeId, NodeSet, NodeStatus};
use crate::node::{NodeKind, ReadOrigin, SubTxNode};
use crate::{AtomicitySemantics, OrderingSemantics, TmInner};
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use wtf_backend::{
    BackendBox, BackendSnapshot, BoxHandle, BoxId, BoxRef, FxHashMap, FxHashSet, StmError, Value,
};
use wtf_trace::EventKind;
use wtf_vclock::Event;

/// Outcome of a future body's commit request (§4.1 commit logic).
pub(crate) enum FutureCommitOutcome {
    /// Forward validation passed (or SO forced it): serialized at the
    /// submission point.
    SerializedAtSubmission,
    /// WO: forward validation failed; the commit "blocks" (state-wise)
    /// until the future is evaluated.
    Pending,
    /// The spawning top-level already committed (GAC): the future escaped
    /// and awaits adoption.
    Escaped,
    /// The future itself was doomed during execution (a stale read): the
    /// body must re-execute.
    Doomed,
}

/// Why a top-level commit attempt failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CommitFail {
    /// Commit-time read validation failed against another top-level
    /// transaction: restart with a fresh snapshot.
    CrossTop,
    /// An internal doom (SO continuation conflict) cascaded: restart the
    /// top-level thread, keeping the snapshot and already-serialized
    /// futures (replay restart — the library's stand-in for JTF's
    /// continuation-based partial rollback).
    Internal,
}

/// An overlay of frozen write-sets: borrowed box + value per id.
type Writes = Vec<(BoxId, BoxRef, Value)>;

/// A commit's read list: the globally-read boxes of the logs it is fed.
/// Only [`TopLevel::commit`] builds one, and only from its own nodes,
/// whose borrows its registration (or a handle it keeps) covers for as
/// long as the gather lives.
struct ReadGather<'n> {
    /// What the backend validates, in log order. A box with two entries is
    /// there twice, and validated twice to the same verdict — unless the
    /// run is traced.
    boxes: Vec<&'n dyn BackendBox>,
    /// A traced run names each box once: `StmValidationSpan` carries the
    /// count and the `CommitRead` records are the checker's read-set.
    seen: Option<FxHashSet<BoxId>>,
    /// At full trace detail, the version each box was read at.
    rec: Option<Vec<(u64, u64)>>,
}

impl<'n> ReadGather<'n> {
    fn node(&mut self, node: &'n SubTxNode) {
        for entry in node.reads.published() {
            let ReadOrigin::Global(version) = entry.origin else {
                continue;
            };
            if self.seen.as_mut().is_none_or(|s| s.insert(entry.id)) {
                // SAFETY: the entry was logged under the committing
                // top-level's registration or borrows a handle it keeps,
                // both alive until `commit` returns (struct docs).
                self.boxes.push(unsafe { entry.body.get() });
                if let Some(rec) = self.rec.as_mut() {
                    rec.push((entry.id.0, version));
                }
            }
        }
    }
}

/// Final-commit byproducts needed to resolve escaping futures.
pub(crate) struct CommitInfo {
    pub version: u64,
    /// Which node's write won the final overlay for each box.
    pub winners: FxHashMap<BoxId, NodeId>,
}

/// The graph **G** and what exists only to order a top-level's
/// *sub*-transactions (§4.1). A transaction that never submits a future
/// has none, so `TopLevel` builds this on the first operation that adds
/// a second node (`submit`, `step`, an evaluation segment, a replay
/// restart) and runs as a plain backend transaction until then.
pub(crate) struct Inflated {
    pub(crate) graph: Graph,
    pub(crate) nodes: RwLock<Vec<Arc<SubTxNode>>>,
    /// Every future (transitively) spawned under this top-level.
    pub(crate) futures: Mutex<Vec<Arc<FutureCore>>>,
    /// Futures submitted by the top-level thread itself, in submission
    /// order — the replay-restart reuse queue.
    pub(crate) top_submissions: Mutex<Vec<Arc<FutureCore>>>,
    /// Notified on future completion and other settlement-relevant events.
    pub(crate) change: Event,
    pub(crate) committed: Mutex<Option<CommitInfo>>,
}

/// One incarnation of a top-level transaction.
pub struct TopLevel {
    pub id: u64,
    pub(crate) snapshot: BackendSnapshot,
    /// The first segment: node 0 of G, and the whole transaction while
    /// it is flat.
    pub(crate) root: Arc<SubTxNode>,
    /// Unset while the transaction is *flat* (no sub-transaction yet).
    /// Set once, by the owning thread only ([`TopLevel::inflate`]); other
    /// threads reach a top-level through a future or the `tops` list and
    /// only ever observe it.
    sub: OnceLock<Inflated>,
    /// Internal doom that cannot be contained to one segment: forces a
    /// whole-top-level restart.
    // ordering: release-store dooms (or, on restart, re-arms) the
    // incarnation; acquire-load at the next operation pairs with it so
    // the doom reason's side effects are visible.
    doomed: AtomicBool,
    /// This incarnation was abandoned (retry or explicit abort).
    // ordering: release-store on retry/abort; acquire-load observers
    // pair with it before tearing the incarnation down.
    cancelled: AtomicBool,
    /// GAC: the top-level committed; no more serialize-at-submission.
    // ordering: release-store at commit publishes the seal after the
    // commit itself; acquire-load in the serialization checks pairs
    // with it.
    sealed: AtomicBool,
    /// The configured ordering is SO.
    pub(crate) strong: bool,
    /// The boxes of adopted escape records: their borrows now sit in
    /// this incarnation's logs and buffers.
    kept: Mutex<Vec<BoxHandle>>,
}

impl TopLevel {
    /// Begins a flat incarnation.
    pub(crate) fn begin(tm: &Arc<TmInner>) -> Arc<TopLevel> {
        let id = tm.next_top_id();
        let strong = tm.cfg.semantics.ordering == OrderingSemantics::Strong;
        let top = Arc::new(TopLevel {
            id,
            snapshot: tm.stm.acquire_snapshot(),
            root: SubTxNode::new(0, NodeKind::Root),
            sub: OnceLock::new(),
            doomed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
            strong,
            kept: Mutex::new(Vec::new()),
        });
        tm.clock.advance(tm.cfg.costs.begin_cost);
        // The list has one reader, the `tm_live_*` gauges; a TM built
        // untraced keeps no list and this returns at once.
        tm.register_top(&top);
        tm.tracer
            .record(EventKind::TopBegin, id, top.snapshot.version());
        top
    }

    /// G, once a second node exists.
    pub(crate) fn inflated(&self) -> Option<&Inflated> {
        self.sub.get()
    }

    /// Builds G around the root on first use. Owning thread only.
    pub(crate) fn inflate(&self, tm: &TmInner) -> &Inflated {
        self.sub.get_or_init(|| Inflated {
            graph: Graph::with_root(),
            nodes: RwLock::new(vec![self.root.clone()]),
            futures: Mutex::new(Vec::new()),
            top_submissions: Mutex::new(Vec::new()),
            change: tm.clock.new_event(),
            committed: Mutex::new(None),
        })
    }

    /// G, on paths only a sub-transaction can reach.
    pub(crate) fn sub(&self) -> &Inflated {
        self.sub.get().expect("sub-transaction of a flat top-level")
    }

    /// Mutates G. A closure that unwinds dooms this incarnation: it may
    /// have applied half of a serialization decision.
    pub(crate) fn update_graph<R>(&self, f: impl FnOnce(&mut GraphInner) -> R) -> R {
        self.sub().graph.update_or(|| self.doom(), f)
    }

    /// Wakes whoever waits for a settlement-relevant change (nobody can
    /// while the top-level is flat).
    pub(crate) fn notify_change(&self, tm: &TmInner) {
        if let Some(sub) = self.inflated() {
            tm.clock.notify_all(&sub.change);
        }
    }

    pub fn snapshot_version(&self) -> u64 {
        self.snapshot.version()
    }

    /// Whether a future of this incarnation may still read under its
    /// snapshot: one still running, which GAC lets outlive the commit.
    fn has_unsettled_future(&self) -> bool {
        self.inflated()
            .is_some_and(|sub| sub.futures.lock().iter().any(|f| !f.state().is_settled()))
    }

    /// Keeps an adopted escape record's boxes until this incarnation
    /// ends.
    pub(crate) fn keep(&self, boxes: Vec<BoxHandle>) {
        self.kept.lock().extend(boxes);
    }

    pub(crate) fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    pub(crate) fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
    }

    pub(crate) fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    pub(crate) fn is_sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    pub(crate) fn node_arc(&self, id: NodeId) -> Arc<SubTxNode> {
        self.sub().nodes.read()[id].clone()
    }

    pub(crate) fn node_count(&self) -> usize {
        self.inflated().map_or(1, |sub| sub.nodes.read().len())
    }

    /// Creates the future + continuation node pair for a submit, marking
    /// the spawning node iCommitted (its writes become visible to both).
    pub(crate) fn spawn_nodes(
        &self,
        tm: &TmInner,
        cur: NodeId,
    ) -> (NodeId, NodeId, Arc<SubTxNode>) {
        let sub = self.inflate(tm);
        let mut nodes = sub.nodes.write();
        let (f, c) = self.update_graph(|g| {
            g.set_status(cur, NodeStatus::ICommitted);
            let f = g.add_node(NodeStatus::Active, &[cur]);
            let c = g.add_node(NodeStatus::Active, &[cur]);
            (f, c)
        });
        debug_assert_eq!(f, nodes.len());
        nodes.push(SubTxNode::new(f, NodeKind::Future));
        nodes.push(SubTxNode::new(c, NodeKind::Continuation));
        let cont = nodes[c].clone();
        (f, c, cont)
    }

    /// Opens a fresh segment node after `pred` (which the caller froze).
    pub(crate) fn open_segment(
        &self,
        tm: &TmInner,
        pred: NodeId,
        kind: NodeKind,
    ) -> Arc<SubTxNode> {
        let sub = self.inflate(tm);
        let mut nodes = sub.nodes.write();
        let id = self.update_graph(|g| {
            g.set_status(pred, NodeStatus::ICommitted);
            g.add_node(NodeStatus::Active, &[pred])
        });
        debug_assert_eq!(id, nodes.len());
        let node = SubTxNode::new(id, kind);
        nodes.push(node.clone());
        node
    }

    /// Replaces a node with a fresh incarnation (segment retry / future
    /// body retry).
    pub(crate) fn reset_node(&self, id: NodeId, kind: NodeKind) -> Arc<SubTxNode> {
        let sub = self.sub();
        let mut nodes = sub.nodes.write();
        let fresh = SubTxNode::new(id, kind);
        nodes[id] = fresh.clone();
        self.update_graph(|g| g.set_status(id, NodeStatus::Active));
        fresh
    }

    pub(crate) fn register_future(
        &self,
        tm: &Arc<TmInner>,
        fnode: NodeId,
        cnode: NodeId,
        body: BodyFn,
        parent: Option<&Arc<FutureCore>>,
    ) -> Arc<FutureCore> {
        let core = Arc::new(FutureCore::new(
            tm.next_future_id(),
            self.id,
            fnode,
            cnode,
            body,
            tm.clock.new_event(),
        ));
        self.sub().futures.lock().push(core.clone());
        if let Some(p) = parent {
            p.add_child(core.clone());
        }
        core
    }

    /// The nodes whose effects a future's serialization carries: the
    /// future's own chain plus nested futures already serialized inside it
    /// — computed as the ancestors of the final node that lie within the
    /// future's subtree.
    fn subtree_members(g: &GraphInner, fnode: NodeId, final_node: NodeId) -> NodeSet {
        let mut members = g.ancestors(final_node);
        let mut subtree = g.reachable_from(fnode);
        subtree.insert(fnode);
        members.intersect_with(&subtree);
        members.insert(final_node);
        members.insert(fnode);
        members
    }

    /// Was this read of a member's served from outside the subtree?
    fn is_external(origin: &ReadOrigin, members: &NodeSet) -> bool {
        match origin {
            ReadOrigin::Global(_) => true,
            ReadOrigin::Ancestor(a) => !members.contains(*a),
        }
    }

    /// Overlay of the write-sets of `ordered`, which is in rank order:
    /// which node's write wins each box, and the winning writes.
    fn overlay_writes(
        nodes: &[Arc<SubTxNode>],
        ordered: &[NodeId],
    ) -> (FxHashMap<BoxId, NodeId>, Writes) {
        let frozen = |&n: &NodeId| nodes[n].frozen_writes().map(|w| (n, w));
        let mut winners: FxHashMap<BoxId, NodeId> = FxHashMap::default();
        let room = ordered.iter().filter_map(frozen).map(|(_, w)| w.len());
        winners.reserve(room.sum());
        for (n, writes) in ordered.iter().filter_map(frozen) {
            winners.extend(writes.keys().map(|&id| (id, n)));
        }
        let writes = winners
            .iter()
            .map(|(&id, &n)| {
                let (body, value) = &nodes[n].frozen_writes().expect("a winner froze")[&id];
                (id, *body, value.clone())
            })
            .collect();
        (winners, writes)
    }

    /// A future's body finished executing: attempt serialization at the
    /// submission point (forward validation), or park it.
    pub(crate) fn complete_future(
        &self,
        tm: &Arc<TmInner>,
        core: &Arc<FutureCore>,
        done: Done,
    ) -> FutureCommitOutcome {
        if core.state() == FutState::Cancelled {
            // The future was cancelled (replay restart or top abort) while
            // its body was finishing: discard the incarnation's effects.
            self.notify_change(tm);
            return FutureCommitOutcome::Escaped;
        }
        let final_node = done.final_node;
        let sub = self.sub();
        let nodes = sub.nodes.read();
        let strong = self.strong;
        let outcome = self.update_graph(|g| {
            if self.is_sealed() {
                g.set_status(core.node, NodeStatus::CompletedPending);
                g.set_status(final_node, NodeStatus::CompletedPending);
                return FutureCommitOutcome::Escaped;
            }
            let members = Self::subtree_members(g, core.node, final_node);
            // A doomed member read state that a conflicting serialization
            // invalidated: this incarnation cannot serialize anywhere.
            if members.iter().any(|m| nodes[m].is_doomed()) {
                return FutureCommitOutcome::Doomed;
            }
            // Union of the subtree's (frozen) writes.
            let frozen = |m: NodeId| nodes[m].frozen_writes();
            let mut write_ids: FxHashMap<BoxId, ()> = FxHashMap::default();
            let room = members.iter().filter_map(frozen).map(|w| w.len());
            write_ids.reserve(room.sum());
            for writes in members.iter().filter_map(frozen) {
                write_ids.extend(writes.keys().map(|&k| (k, ())));
            }
            // Forward validation (§4.1): no sub-transaction reachable from
            // the continuation may have read anything the future wrote.
            let mut readers = g.reachable_from(core.cont_node);
            readers.insert(core.cont_node);
            let conflicters: Vec<NodeId> = readers
                .iter()
                .filter(|&n| {
                    g.status(n) != NodeStatus::Aborted && nodes[n].reads_intersect(&write_ids)
                })
                .collect();
            if conflicters.is_empty() || strong {
                g.add_edge(final_node, core.cont_node);
                for m in members.iter() {
                    g.set_status(m, NodeStatus::ICommitted);
                }
                // SO: the future wins its submission point; conflicting
                // readers are doomed. An already-iCommitted (or branched)
                // reader cannot be rolled back alone: cascade to a
                // whole-top-level restart.
                for &n in &conflicters {
                    nodes[n].doom();
                    tm.stats.internal_aborts();
                    if tm.tracer.on() {
                        // Attribute the doom to the box the reader lost.
                        let witness = nodes[n].read_conflict_witness(&write_ids);
                        if let Some(b) = witness {
                            tm.tracer.charge_conflict(b.0);
                        }
                        tm.tracer.record(
                            EventKind::SegmentDoomed,
                            n as u64,
                            witness.map(|b| b.0).unwrap_or(u64::MAX),
                        );
                    }
                    let contained = g.status(n) == NodeStatus::Active && g.succs(n).is_empty();
                    if !contained {
                        self.doom();
                    }
                }
                FutureCommitOutcome::SerializedAtSubmission
            } else {
                g.set_status(core.node, NodeStatus::CompletedPending);
                g.set_status(final_node, NodeStatus::CompletedPending);
                FutureCommitOutcome::Pending
            }
        });
        drop(nodes);
        let next = match outcome {
            FutureCommitOutcome::SerializedAtSubmission => Phase::Serialized(done),
            FutureCommitOutcome::Pending => Phase::Completed(done, None),
            // The spawner already committed: resolve the escape record
            // immediately from the recorded commit info.
            FutureCommitOutcome::Escaped => {
                Phase::Completed(done, self.resolve_escape(core.node, final_node))
            }
            FutureCommitOutcome::Doomed => Phase::Running(Some(final_node)),
        };
        // A replay restart may have cancelled us concurrently: `Finish`
        // leaves a cancelled incarnation as it is.
        let settled = core.transition(&tm.clock, Move::Finish(next)).is_some();
        if settled && matches!(outcome, FutureCommitOutcome::SerializedAtSubmission) {
            tm.stats.serialized_at_submission();
            tm.tracer
                .record(EventKind::FutureSerializedSubmission, core.id, self.id);
        }
        self.notify_change(tm);
        outcome
    }

    /// Serialization upon evaluation (§4.1 backward validation) of a
    /// future the caller claimed, whose attempt ended on `final_node`.
    /// False if the future must re-execute.
    pub(crate) fn serialize_at_evaluation(
        &self,
        tm: &TmInner,
        core: &Arc<FutureCore>,
        final_node: NodeId,
        eval_pred: NodeId,
        eval_node: NodeId,
    ) -> bool {
        let sub = self.sub();
        let nodes = sub.nodes.read();
        let ok = self.update_graph(|g| {
            let members = Self::subtree_members(g, core.node, final_node);
            if members.iter().any(|m| nodes[m].is_doomed()) {
                return false;
            }
            // Boxes the future observed from outside its subtree: by any
            // of their log entries.
            let mut read_ids: FxHashMap<BoxId, ()> = FxHashMap::default();
            for m in members.iter() {
                for entry in nodes[m].reads.published() {
                    if Self::is_external(&entry.origin, &members) {
                        read_ids.insert(entry.id, ());
                    }
                }
            }
            // The sub-transactions that ran concurrently with the future:
            // the backward chain from the evaluation point, minus the
            // future's own ancestors (whose writes it did see).
            let f_anc = g.ancestors(core.node);
            let conflict = g
                .backward_chain(eval_node, usize::MAX)
                .filter(|&n| !f_anc.contains(n) && !members.contains(n))
                .any(|n| {
                    g.status(n) != NodeStatus::Aborted && nodes[n].writes_intersect(&read_ids)
                });
            if conflict {
                return false;
            }
            // Serialize after the continuation, before the evaluation.
            g.add_edge(eval_pred, core.node);
            g.add_edge(final_node, eval_node);
            for m in members.iter() {
                g.set_status(m, NodeStatus::ICommitted);
            }
            true
        });
        drop(nodes);
        if ok {
            core.transition(&tm.clock, Move::Serialize(None));
        }
        ok
    }

    /// Re-incarnates a future's node as a direct successor of the
    /// evaluation point (inline re-execution).
    pub(crate) fn reincarnate_future_at(
        &self,
        core: &Arc<FutureCore>,
        eval_pred: NodeId,
    ) -> Arc<SubTxNode> {
        let sub = self.sub();
        let mut nodes = sub.nodes.write();
        let fresh = SubTxNode::new(core.node, NodeKind::Future);
        nodes[core.node] = fresh.clone();
        self.update_graph(|g| {
            g.set_status(core.node, NodeStatus::Active);
            g.add_edge(eval_pred, core.node);
        });
        fresh
    }

    /// Finishes an inline re-execution: publishes the subtree at the
    /// evaluation point.
    pub(crate) fn finish_inline_serialization(
        &self,
        tm: &TmInner,
        core: &Arc<FutureCore>,
        done: Done,
        eval_node: NodeId,
    ) {
        self.update_graph(|g| {
            g.add_edge(done.final_node, eval_node);
            for m in Self::subtree_members(g, core.node, done.final_node).iter() {
                g.set_status(m, NodeStatus::ICommitted);
            }
        });
        core.transition(&tm.clock, Move::Serialize(Some(done)));
    }

    /// Recursively cancels futures spawned by an aborted body incarnation.
    pub(crate) fn cancel_children(&self, tm: &Arc<TmInner>, core: &Arc<FutureCore>) {
        let mut descendants = Vec::new();
        Self::drain_descendants(core, &mut descendants);
        let mut cancelled = Vec::new();
        for child in &descendants {
            if let Some(left) = child.transition(&tm.clock, Move::Cancel) {
                tm.tracer
                    .record(EventKind::FutureCancelled, child.id, self.id);
                cancelled.push((child.node, left.final_node()));
            }
        }
        self.abort_nodes_of(&cancelled);
    }

    /// Detaches every future spawned (transitively) under `core`,
    /// children before their parent.
    fn drain_descendants(core: &FutureCore, out: &mut Vec<Arc<FutureCore>>) {
        for child in core.take_children() {
            Self::drain_descendants(&child, out);
            out.push(child);
        }
    }

    /// Marks the nodes of cancelled futures (each its own node and the
    /// last node an attempt of it ended on) Aborted in one graph update,
    /// so readers' views go stale once per sweep.
    fn abort_nodes_of(&self, cancelled: &[(NodeId, Option<NodeId>)]) {
        if cancelled.is_empty() {
            return;
        }
        self.update_graph(|g| {
            for &(node, final_node) in cancelled {
                g.set_status(node, NodeStatus::Aborted);
                if let Some(f) = final_node {
                    g.set_status(f, NodeStatus::Aborted);
                }
            }
        });
    }

    /// Abandons this incarnation (retry or explicit abort).
    pub(crate) fn cancel(&self, tm: &Arc<TmInner>) {
        self.cancelled.store(true, Ordering::Release);
        let Some(sub) = self.inflated() else { return };
        let futures: Vec<Arc<FutureCore>> = sub.futures.lock().clone();
        for fut in futures {
            let left = fut.transition(&tm.clock, Move::Cancel);
            if !matches!(left, None | Some(Phase::Cancelled)) {
                tm.tracer
                    .record(EventKind::FutureCancelled, fut.id, self.id);
            }
        }
        tm.clock.notify_all(&sub.change);
    }

    /// Replay restart (internal doom recovery): abandons the current
    /// top-level *thread chain* but keeps the snapshot, the graph, and
    /// every already-serialized future. Returns the reuse queue and the
    /// fresh root node the re-execution starts from.
    ///
    /// Soundness rests on the standard replay-determinism assumption (the
    /// same one behind JTF's continuation rollback): re-running the
    /// transaction body observes identical values up to the first doomed
    /// read — earlier reads were validated against the same snapshot and
    /// graph — hence issues the identical prefix of submissions.
    pub(crate) fn restart_top_chain(
        &self,
        tm: &Arc<TmInner>,
    ) -> (Vec<Arc<FutureCore>>, Arc<SubTxNode>) {
        // An internal restart can land on a flat top-level: the fresh
        // chain root below is then its second node.
        let sub = self.inflate(tm);
        let replay: Vec<Arc<FutureCore>> = std::mem::take(&mut *sub.top_submissions.lock());
        // Cancel not-yet-serialized top submissions: they are respawned at
        // their submission index. (Serialized ones are reused; their
        // nested pending children stay alive and valid.)
        let cancelled: Vec<(NodeId, Option<NodeId>)> = replay
            .iter()
            .filter(|fut| fut.state() != FutState::Serialized)
            .filter_map(|fut| {
                let left = fut.transition(&tm.clock, Move::Cancel)?;
                Some((fut.node, left.final_node()))
            })
            .collect();
        self.abort_nodes_of(&cancelled);
        self.doomed.store(false, Ordering::Release);
        // Fresh chain root (a second rank-0 node; the old chain becomes
        // garbage no path reaches).
        let mut nodes = sub.nodes.write();
        let id = self.update_graph(|g| g.add_node(NodeStatus::Active, &[]));
        debug_assert_eq!(id, nodes.len());
        let node = SubTxNode::new(id, NodeKind::Root);
        nodes.push(node.clone());
        (replay, node)
    }

    /// Reuses an already-serialized future, whose attempt ended on
    /// `final_node`, during a replay restart: links its effects after
    /// `cur` and returns the new continuation node.
    pub(crate) fn relink_reused_future(
        &self,
        core: &Arc<FutureCore>,
        final_node: NodeId,
        cur: NodeId,
    ) -> Arc<SubTxNode> {
        let sub = self.sub();
        let mut nodes = sub.nodes.write();
        let c = self.update_graph(|g| {
            g.set_status(cur, NodeStatus::ICommitted);
            // Re-home the future's subtree onto the new chain: its old
            // spawn point belongs to the aborted chain, whose segments
            // must not leak into the inclusion set. By replay determinism
            // the new chain's prefix is equivalent to the old one.
            g.set_preds(core.node, &[cur]);
            g.add_node(NodeStatus::Active, &[cur, final_node])
        });
        debug_assert_eq!(c, nodes.len());
        let node = SubTxNode::new(c, NodeKind::Continuation);
        nodes.push(node.clone());
        sub.top_submissions.lock().push(core.clone());
        node
    }

    // ---------------- commit ----------------

    /// Commits the top-level transaction (called with the top thread's ctx
    /// so LAC can perform implicit evaluations).
    pub(crate) fn commit(self: &Arc<Self>, ctx: &mut TxCtx) -> Result<(), CommitFail> {
        ctx.tm.clock.advance(ctx.tm.cfg.costs.commit_cost);
        // 1. Settle futures per the configured semantics.
        match (self.strong, ctx.tm.cfg.semantics.atomicity) {
            (true, _) => self.settle_wait_all(&ctx.tm),
            (false, AtomicitySemantics::Local) => {
                self.settle_lac(ctx).map_err(|_| CommitFail::Internal)?
            }
            (false, AtomicitySemantics::Global) => {
                // Escaping futures are allowed to outlive us; sealing
                // happens below under the graph lock.
            }
        }
        // 2. Internal dooms force a restart.
        if self.is_doomed() || self.is_cancelled() || ctx.node.is_doomed() {
            return Err(CommitFail::Internal);
        }
        // 3. Close the final segment and seal against late submissions
        // (GAC). 4. Gather the transaction's effects: the writes to
        // publish, the globally-read boxes to validate and, at full trace
        // detail, the version each read observed — the commit-time
        // serialization record (`CommitRead` events) re-emits it for
        // offline checkers, and it must be captured here: after
        // publication, GC may prune the observed version.
        let (full, traced) = (ctx.tm.tracer.full(), ctx.tm.tracer.on());
        let (committed, n_writes, winners, rec) = {
            // The included nodes, kept until the backend has validated
            // the boxes `gather` borrows out of their logs.
            let nodes;
            // SAFETY: every write was buffered under this incarnation's
            // registration or borrows a handle it keeps (`kept`), both
            // alive until this function returns.
            let body = |b: BoxRef| unsafe { b.get() };
            let mut gather = ReadGather {
                boxes: Vec::new(),
                seen: traced.then(FxHashSet::default),
                rec: full.then(Vec::new),
            };
            let (writes, winners) = match self.inflated() {
                // Flat: the root's own sets — the writes moved out, no
                // descendant exists to read a frozen copy; the log kept
                // alive by `ctx.node`. A read-only commit validates
                // nothing, so its reads matter to the trace alone.
                None => {
                    self.sealed.store(true, Ordering::Release);
                    let writes: Vec<(&dyn BackendBox, Value)> = ctx
                        .take_writes()
                        .into_values()
                        .map(|(b, v)| (body(b), v))
                        .collect();
                    if !writes.is_empty() || full {
                        gather.boxes.reserve(ctx.node.reads.len());
                        gather.node(&ctx.node);
                    }
                    (writes, FxHashMap::default())
                }
                // The nodes on a path from the root to the commit node
                // (the paper's inclusion rule).
                Some(sub) => {
                    ctx.freeze();
                    let commit_node = ctx.node.id;
                    self.update_graph(|g| {
                        g.set_status(commit_node, NodeStatus::ICommitted);
                        self.sealed.store(true, Ordering::Release);
                    });
                    nodes = sub.nodes.read();
                    let (_, g) = sub.graph.snapshot();
                    // In rank order: the overlay's, and the order the
                    // backend validates (and so attributes a conflict) in.
                    let mut included = g.by_rank(&g.ancestors(commit_node));
                    included.push(commit_node);
                    included.retain(|&n| g.status(n) == NodeStatus::ICommitted);
                    if included.iter().any(|&n| nodes[n].is_doomed()) {
                        return Err(CommitFail::Internal);
                    }
                    let (winners, writes) = Self::overlay_writes(&nodes, &included);
                    let writes: Vec<(&dyn BackendBox, Value)> =
                        writes.into_iter().map(|(_, b, v)| (body(b), v)).collect();
                    // As on the flat path, a read-only commit validates
                    // nothing. Otherwise every included segment's global
                    // reads go to the backend as they are.
                    if !writes.is_empty() || full {
                        let room = included.iter().map(|&n| nodes[n].reads.len());
                        gather.boxes.reserve(room.sum());
                        for &n in &included {
                            gather.node(&nodes[n]);
                        }
                    }
                    (writes, winners)
                }
            };
            if self.is_doomed() {
                return Err(CommitFail::Internal);
            }
            // 5. Validate + publish through the STM substrate: the backend
            //    locks only the stripes covering this read/write
            //    footprint, so top-level transactions with disjoint
            //    footprints commit in parallel.
            let n_writes = writes.len() as u64;
            let snapshot = self.snapshot_version();
            let committed = match n_writes {
                0 => Ok(snapshot),
                _ => ctx.tm.stm.commit_attributed(
                    snapshot,
                    !self.has_unsettled_future(),
                    &gather.boxes,
                    writes,
                ),
            };
            (committed, n_writes, winners, gather.rec)
        };
        let tm = &ctx.tm;
        let version = match committed {
            Ok(v) => v,
            Err(conflict_box) => {
                tm.stats.top_aborts();
                // The substrate already charged the conflict map; the
                // event stream additionally ties the abort to this top.
                tm.tracer
                    .record(EventKind::TopConflictAbort, self.id, conflict_box.0);
                return Err(CommitFail::CrossTop);
            }
        };
        // Charge the bus for the published writes.
        if n_writes > 0 {
            ctx.charge(0, n_writes * tm.cfg.costs.write_mem);
        }
        // 6. Publish commit info and resolve escaping futures.
        if let Some(sub) = self.inflated() {
            *sub.committed.lock() = Some(CommitInfo { version, winners });
            let futures: Vec<Arc<FutureCore>> = sub.futures.lock().clone();
            for fut in &futures {
                let unresolved = fut.read(|l| match &l.phase {
                    Phase::Completed(done, None) => Some(done.final_node),
                    _ => None,
                });
                let record = unresolved.and_then(|n| self.resolve_escape(fut.node, n));
                fut.transition(&tm.clock, Move::Commit(version, record));
            }
        }
        tm.stats.top_commits();
        // Serialization record: one `CommitRead` per gathered read,
        // contiguous on this lane immediately before the `TopCommit`, so
        // offline checkers (`wtf-report`) can rebuild the committed
        // read-set from the trace alone.
        let mut rec = rec.unwrap_or_default();
        rec.sort_unstable();
        for (id, v) in rec {
            tm.tracer.record_full(EventKind::CommitRead, id, v);
        }
        tm.tracer.record(EventKind::TopCommit, self.id, version);
        Ok(())
    }

    /// SO: "T's commit request has to be necessarily blocked until all the
    /// futures spawned by T have committed."
    fn settle_wait_all(&self, tm: &Arc<TmInner>) {
        let Some(sub) = self.inflated() else { return };
        let all_settled = |futures: &[Arc<FutureCore>]| {
            futures.iter().all(|f| {
                matches!(
                    f.state(),
                    FutState::Serialized | FutState::Failed | FutState::Cancelled
                )
            })
        };
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "settle_wait_all spinning");
            let futures: Vec<Arc<FutureCore>> = sub.futures.lock().clone();
            if all_settled(&futures) && sub.futures.lock().len() == futures.len() {
                return;
            }
            if self.is_cancelled() || self.is_doomed() {
                return;
            }
            let wait_start = tm.tracer.span_start();
            tm.clock.wait_until(&sub.change, || {
                self.is_cancelled() || self.is_doomed() || all_settled(&sub.futures.lock())
            });
            tm.tracer
                .span_end(EventKind::EvalWaitSpan, wait_start, u64::MAX);
        }
    }

    /// LAC: implicitly evaluate every unserialized future before commit,
    /// in completion order ("no constraint is imposed on the order in
    /// which they are implicitly evaluated").
    fn settle_lac(self: &Arc<Self>, ctx: &mut TxCtx) -> Result<(), StmError> {
        let Some(sub) = self.inflated() else {
            return Ok(());
        };
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "settle_lac spinning");
            if self.is_cancelled() || self.is_doomed() {
                return Ok(()); // commit will notice and restart
            }
            let pending: Vec<Arc<FutureCore>> = sub
                .futures
                .lock()
                .iter()
                .filter(|f| matches!(f.state(), FutState::Running | FutState::Completed))
                .cloned()
                .collect();
            if pending.is_empty() {
                return Ok(());
            }
            // Prefer one that already completed (straggler avoidance);
            // otherwise wait for any change.
            let target = pending
                .iter()
                .find(|f| f.state() == FutState::Completed)
                .cloned();
            match target {
                Some(fut) => match ctx.evaluate_core(&fut, true) {
                    Ok(_) => {}
                    // An explicitly-aborted future has no effects to
                    // include; the implicit evaluation just settles it.
                    Err(StmError::UserAbort) => {}
                    Err(StmError::Conflict) => return Err(StmError::Conflict),
                },
                None => {
                    let wait_start = ctx.tm.tracer.span_start();
                    ctx.tm.clock.wait_until(&sub.change, || {
                        self.is_cancelled()
                            || self.is_doomed()
                            || sub
                                .futures
                                .lock()
                                .iter()
                                .any(|f| f.state() != FutState::Running)
                    });
                    ctx.tm
                        .tracer
                        .span_end(EventKind::EvalWaitSpan, wait_start, u64::MAX);
                }
            }
        }
    }

    /// Resolves the external read-set of an escaped future (node `fnode`,
    /// attempt ended on `final_node`) against the spawner's committed
    /// state (§4.2 GAC). `None` while the spawner has not committed.
    fn resolve_escape(&self, fnode: NodeId, final_node: NodeId) -> Option<EscapeRecord> {
        let sub = self.sub();
        let committed = sub.committed.lock();
        let info = committed.as_ref()?;
        let nodes = sub.nodes.read();
        let (_, g) = sub.graph.snapshot();
        let members = Self::subtree_members(&g, fnode, final_node);
        let ordered = g.by_rank(&members);
        // External read-set: every box read by a member whose value came
        // from outside the subtree, once — by its first such entry; an
        // adopter that revalidates it against a later one's box state
        // fails and re-executes, the safe direction.
        let mut reads: Vec<(BoxRef, u64)> = Vec::new();
        let mut seen: FxHashSet<BoxId> = FxHashSet::default();
        for &m in &ordered {
            for entry in nodes[m].reads.published() {
                let version = match entry.origin {
                    ReadOrigin::Global(v) => v,
                    ReadOrigin::Ancestor(a) if members.contains(a) => continue,
                    // An observed ancestor value is revalidatable only if
                    // it is exactly what the spawner committed for the
                    // box: any entry that is not makes the adopter
                    // re-execute.
                    ReadOrigin::Ancestor(a) if info.winners.get(&entry.id) != Some(&a) => {
                        return Some(EscapeRecord::Reexecute);
                    }
                    ReadOrigin::Ancestor(_) => info.version,
                };
                if seen.insert(entry.id) {
                    reads.push((entry.body, version));
                }
            }
        }
        let (_, writes) = Self::overlay_writes(&nodes, &ordered);
        // The record outlives this incarnation, so it counts its boxes. A
        // box whose last handle has already gone stays retired: the record
        // cannot be revalidated, and the future must re-execute.
        // SAFETY: the borrows were logged under this incarnation's
        // registration or borrow a handle it keeps, both alive here.
        let count = |b: BoxRef| unsafe { b.upgrade() };
        let reads: Option<Vec<_>> = reads
            .into_iter()
            .map(|(b, v)| Some((count(b)?, v)))
            .collect();
        let writes: Option<Vec<_>> = writes
            .into_iter()
            .map(|(_, b, v)| Some((count(b)?, v)))
            .collect();
        Some(match (reads, writes) {
            (Some(reads), Some(writes)) => EscapeRecord::Revalidate {
                version: info.version,
                reads,
                writes,
            },
            _ => EscapeRecord::Reexecute,
        })
    }
}
