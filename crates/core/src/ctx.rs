//! `TxCtx`: the handle through which transactional code reads, writes,
//! submits and evaluates futures.
//!
//! One `TxCtx` exists per executing sub-transaction thread; it is a cursor
//! over the top-level transaction's graph **G**: `submit`, `evaluate` and
//! `step` move it to freshly created nodes (the paper's checkpoints:
//! "when a submit or evaluate operation is executed by T, we implicitly
//! commit the current sub-transaction and begin a new sub-transaction").

use crate::future::{
    run_body_attempt, run_future_body, unpanicked, Done, EscapeRecord, FutState, FutureCore,
    Lifecycle, Move, Phase, TxFuture,
};
use crate::graph::{NodeId, NodeStatus};
use crate::node::{NodeKind, ReadOrigin, SubTxNode, WriteMap};
use crate::toplevel::TopLevel;
use crate::TmInner;
use std::collections::hash_map::Entry;
use std::marker::PhantomData;
use std::sync::Arc;
use wtf_backend::{
    downcast_value, BackendBox, BoxHandle, BoxId, FxHashMap, StmError, TBox as VBox, TxResult,
    TxValue, Value,
};
use wtf_trace::EventKind;

/// Execution context of one sub-transaction thread.
pub struct TxCtx {
    pub(crate) tm: Arc<TmInner>,
    pub(crate) top: Arc<TopLevel>,
    pub(crate) node: Arc<SubTxNode>,
    /// `node`'s write buffer. It is this context's alone until `freeze`
    /// hands it to the node as its (immutable, shared) write-set.
    writes: WriteMap,
    /// The future whose body this context executes (None for the
    /// top-level thread); newly submitted futures register as children so
    /// a body retry can cancel them.
    owner: Option<Arc<FutureCore>>,
    /// Replay-restart reuse queue (top-level thread only): futures already
    /// serialized by the aborted chain incarnation, matched by submission
    /// order.
    replay: Vec<Arc<FutureCore>>,
    replay_idx: usize,
    /// True while re-running an adopted escaping future's body on this
    /// context: its nested submissions must not enter the replay queue
    /// (they are not part of the top-level closure's submission sequence).
    adopting: bool,
    /// Cached ancestor write view: overlay of iCommitted ancestors' frozen
    /// write-sets, keyed by box, with the winning ancestor recorded for
    /// read-origin bookkeeping. Invalidated when the graph stamp moves.
    view: FxHashMap<BoxId, (NodeId, Value)>,
    view_stamp: u64,
    view_valid: bool,
}

impl TxCtx {
    pub(crate) fn new(tm: Arc<TmInner>, top: Arc<TopLevel>, node: Arc<SubTxNode>) -> TxCtx {
        TxCtx {
            tm,
            top,
            node,
            writes: WriteMap::default(),
            owner: None,
            replay: Vec::new(),
            replay_idx: 0,
            adopting: false,
            view: FxHashMap::default(),
            view_stamp: 0,
            view_valid: false,
        }
    }

    pub(crate) fn set_replay(&mut self, queue: Vec<Arc<FutureCore>>) {
        self.replay = queue;
        self.replay_idx = 0;
    }

    pub(crate) fn set_owner(&mut self, owner: Arc<FutureCore>) {
        self.owner = Some(owner);
    }

    /// iCommits the current node: its buffered writes become its frozen
    /// write-set, visible to descendants.
    pub(crate) fn freeze(&mut self) {
        self.node.freeze(std::mem::take(&mut self.writes));
    }

    /// Empties the write buffer into the caller (the commit of a node that
    /// never iCommits: a flat top-level's root).
    pub(crate) fn take_writes(&mut self) -> WriteMap {
        std::mem::take(&mut self.writes)
    }

    /// Moves the cursor to `node`. Whatever the buffer still holds was
    /// written by an incarnation that is being retried.
    fn bind(&mut self, node: Arc<SubTxNode>) {
        self.node = node;
        self.writes.clear();
        self.view_valid = false;
    }

    /// Charges CPU plus (optionally) serialized memory-bus cost.
    pub(crate) fn charge(&self, cpu: u64, mem: u64) {
        if cpu > 0 {
            self.tm.clock.advance(cpu);
        }
        if mem > 0 {
            if let Some(bus) = self.tm.mem_bus {
                self.tm.clock.acquire(bus, mem);
            } else {
                self.tm.clock.advance(mem);
            }
        }
    }

    /// Emulates `iters` iterations of CPU-bound computation (the synthetic
    /// workloads' `iter` knob). One unit per iteration.
    pub fn work(&self, iters: u64) {
        self.tm.clock.advance(iters);
    }

    /// Snapshot read through the backend, downcast inside the backend's
    /// lending closure: the stored value is borrowed, never cloned. On the
    /// multi-versioned substrate this never fails; on a single-version
    /// backend (TL2) the box may have been overwritten since our snapshot,
    /// in which case the whole top-level incarnation is doomed: we cancel
    /// it (so the retry begins on a fresh snapshot under a fresh top id)
    /// and record the justified cross-top abort, exactly as a commit-time
    /// validation failure would. A sealed (committed) top-level is never
    /// cancelled: the reader is one of its escaped futures, and only that
    /// attempt fails.
    fn global_read<T: TxValue>(&self, body: &dyn BackendBox) -> TxResult<(u64, T)> {
        let mut lent = None;
        match body.read_at(self.top.snapshot_version(), &mut |v| {
            lent = Some(downcast_value(v))
        }) {
            Ok(ver) => Ok((ver, lent.expect("read_at lends the value on Ok"))),
            Err(_) => {
                let id = body.id();
                self.tm.tracer.charge_conflict(id.0);
                if !self.top.is_sealed() {
                    self.tm.stats.top_aborts();
                    self.tm
                        .tracer
                        .record(EventKind::TopConflictAbort, self.top.id, id.0);
                    self.top.cancel(&self.tm);
                }
                Err(StmError::Conflict)
            }
        }
    }

    /// Errors out if this sub-transaction was doomed by a conflicting
    /// serialization or its top-level was cancelled.
    fn check_doom(&self) -> TxResult<()> {
        if self.node.is_doomed() || self.top.is_doomed() || self.top.is_cancelled() {
            Err(StmError::Conflict)
        } else {
            Ok(())
        }
    }

    fn refresh_view(&mut self) {
        // A flat top-level has no ancestors: the view stays empty.
        let Some(sub) = self.top.inflated() else {
            return;
        };
        // The view's stamp is even (a snapshot's), so an equal stamp says no
        // writer has entered `update` since: the view is current, by the
        // very condition `read` re-checks once it has recorded.
        if self.view_valid && sub.graph.stamp() == self.view_stamp {
            return;
        }
        // Lock order everywhere: nodes, then graph.
        let nodes = sub.nodes.read();
        let (stamp, g) = sub.graph.snapshot();
        // An ancestor's writes count once it has iCommitted.
        let frozen_of = |anc: NodeId| {
            (g.status(anc) == NodeStatus::ICommitted)
                .then(|| nodes[anc].frozen_writes())
                .flatten()
        };
        let ancestors = g.ancestors(self.node.id);
        self.view.clear();
        let room = ancestors.iter().filter_map(frozen_of).map(|w| w.len());
        self.view.reserve(room.sum());
        for anc in ancestors.iter() {
            let Some(frozen) = frozen_of(anc) else {
                continue;
            };
            // The closest ancestor — the highest rank — wins a box, in
            // whatever order the set is walked.
            let place = (g.rank(anc), anc);
            for (id, (_, value)) in frozen.iter() {
                match self.view.entry(*id) {
                    Entry::Occupied(mut held) => {
                        let writer = held.get().0;
                        if (g.rank(writer), writer) < place {
                            held.insert((anc, value.clone()));
                        }
                    }
                    Entry::Vacant(free) => {
                        free.insert((anc, value.clone()));
                    }
                }
            }
        }
        self.view_stamp = stamp;
        self.view_valid = true;
    }

    /// Transactional read (§4.1): own buffer, then the closest iCommitted
    /// ancestor's write, then the top-level's multi-versioned snapshot.
    /// The global fallback is a lock-free chain walk in `wtf-mvstm`; it is
    /// fenced against version GC by the top-level's live registered
    /// snapshot, which the registry's horizon can never exceed.
    pub fn read<T: TxValue>(&mut self, vbox: &VBox<T>) -> TxResult<T> {
        let costs = self.tm.cfg.costs;
        self.charge(costs.read_cpu, costs.read_mem);
        self.check_doom()?;
        let id = vbox.id();
        if let Some((_, v)) = self.writes.get(&id) {
            return Ok(downcast_value(v));
        }
        // Flat (no sub-transaction yet, and only this thread can create
        // one): no ancestor can hold a write and no sibling can serialize,
        // so the read is the backend's.
        if self.top.inflated().is_none() {
            let (ver, value) = self.global_read(vbox.body())?;
            self.node
                .record_read(id, vbox.borrow(), ReadOrigin::Global(ver));
            self.check_doom()?;
            return Ok(value);
        }
        let body = vbox.body();
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "read stamp-retry loop spinning");
            self.refresh_view();
            let stamp = self.view_stamp;
            let (origin, value) = match self.view.get(&id) {
                Some((writer, v)) => (ReadOrigin::Ancestor(*writer), downcast_value(v)),
                None => {
                    let (ver, value) = self.global_read(body)?;
                    (ReadOrigin::Global(ver), value)
                }
            };
            self.node.record_read(id, vbox.borrow(), origin);
            // Race protocol with concurrent forward validation, a
            // store-buffering pair: we publish the read (a `SeqCst` store
            // of the log's length) *before* re-checking the stamp (a
            // `SeqCst` load); `Graph::update` bumps the stamp on entry (a
            // `SeqCst` RMW), before its closure loads any log's length
            // (`SeqCst`). So one side sees the other. If a serializing
            // future entered after our view was built — even if it is
            // still inside `update` — the stamp differs and we redo the
            // read against the graph it leaves (`snapshot` waits for it).
            // If we see the old stamp, its bump comes after our load, its
            // scan after our publish, and the scan finds our entry.
            if self.top.sub().graph.stamp() == stamp {
                self.check_doom()?;
                return Ok(value);
            }
            self.view_valid = false;
        }
    }

    /// Transactional write: buffered privately until iCommit.
    pub fn write<T: TxValue>(&mut self, vbox: &VBox<T>, value: T) -> TxResult<()> {
        let costs = self.tm.cfg.costs;
        self.charge(costs.write_cpu, 0);
        self.check_doom()?;
        self.writes
            .insert(vbox.id(), (vbox.borrow(), Value::new(value)));
        Ok(())
    }

    /// Explicitly aborts the enclosing transaction (not retried).
    pub fn abort<T>(&mut self) -> TxResult<T> {
        Err(StmError::UserAbort)
    }

    /// Submits a transactional future: iCommits the current segment,
    /// activates `body` on a parallel worker, and returns a handle
    /// (§3: "submit takes a transaction T, activates a parallel thread in
    /// which T will be executed, and returns a future").
    pub fn submit<T, F>(&mut self, body: F) -> TxResult<TxFuture<T>>
    where
        T: TxValue,
        F: Fn(&mut TxCtx) -> TxResult<T> + Send + Sync + 'static,
    {
        let costs = self.tm.cfg.costs;
        self.charge(costs.submit_cost, 0);
        self.check_doom()?;
        let erased: crate::future::BodyFn =
            Arc::new(move |ctx: &mut TxCtx| body(ctx).map(Value::new));
        let core = self.submit_erased(erased)?;
        Ok(TxFuture {
            core,
            _marker: PhantomData,
        })
    }

    fn submit_erased(&mut self, body: crate::future::BodyFn) -> TxResult<Arc<FutureCore>> {
        // Replay restart: reuse the serialized future from the aborted
        // chain incarnation at this submission index (see
        // `TopLevel::restart_top_chain` for the determinism argument).
        if self.owner.is_none() && !self.adopting && self.replay_idx < self.replay.len() {
            let candidate = self.replay[self.replay_idx].clone();
            self.replay_idx += 1;
            let serialized = candidate.read(|l| match &l.phase {
                Phase::Serialized(done) => Some(done.final_node),
                _ => None,
            });
            if let Some(final_node) = serialized {
                let cur = self.node.id;
                self.freeze();
                let cont = self.top.relink_reused_future(&candidate, final_node, cur);
                self.bind(cont);
                return Ok(candidate);
            }
        }
        let cur = self.node.id;
        self.freeze();
        let (fnode, cnode, cont_arc) = self.top.spawn_nodes(&self.tm, cur);
        let core = self
            .top
            .register_future(&self.tm, fnode, cnode, body, self.owner.as_ref());
        if self.owner.is_none() && !self.adopting {
            self.top.sub().top_submissions.lock().push(core.clone());
        }
        self.tm.stats.futures_submitted();
        self.tm
            .tracer
            .record(EventKind::FutureSubmit, core.id, self.top.id);
        // Hand the body to a worker; stamp the submission point so the
        // worker can report the queue-to-start delay.
        let submit_ts = self.tm.tracer.span_start();
        let pool = self.tm.pool();
        let tm = self.tm.clone();
        let top = self.top.clone();
        let core2 = core.clone();
        pool.execute(move || run_future_body(tm, top, core2, submit_ts));
        // The cursor moves to the continuation node.
        self.bind(cont_arc);
        Ok(core)
    }

    /// Evaluates a future: blocks until its result is available under the
    /// configured semantics, serializing it upon evaluation if it could
    /// not serialize at submission (§4.1 commit logic).
    ///
    /// Repeated evaluations are idempotent (§3.2): the first successful
    /// serialization fixes the result.
    pub fn evaluate<T: TxValue>(&mut self, future: &TxFuture<T>) -> TxResult<T> {
        let costs = self.tm.cfg.costs;
        self.charge(costs.evaluate_cost, 0);
        self.check_doom()?;
        let v = self.evaluate_core(&future.core, false)?;
        Ok(downcast_value(&v))
    }

    /// Non-blocking variant (§3.2): returns `None` while the future's body
    /// is still executing. "Any attempt to evaluate a future that is still
    /// executing has no impact on its possible serialization orders."
    pub fn try_evaluate<T: TxValue>(&mut self, future: &TxFuture<T>) -> TxResult<Option<T>> {
        if future.core.state() == FutState::Running {
            return Ok(None);
        }
        self.evaluate(future).map(Some)
    }

    /// Evaluates whichever of `futures` settles first (out-of-order
    /// evaluation — WTF-TM's straggler-avoidance mode, §5.3's
    /// WTF-OutOfOrder variant). Returns the index and value. Blocks until
    /// at least one future's body finishes. Panics on an empty slice.
    pub fn evaluate_any<T: TxValue>(&mut self, futures: &[TxFuture<T>]) -> TxResult<(usize, T)> {
        assert!(!futures.is_empty(), "evaluate_any on an empty set");
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "evaluate_any spinning");
            self.check_doom()?;
            if let Some(i) = futures.iter().position(|f| f.core.state().is_settled()) {
                let v = self.evaluate(&futures[i])?;
                return Ok((i, v));
            }
            // Future completions notify the top-level's change event. The
            // wait blocks on the whole set, so the join edge is
            // unattributed (b = u64::MAX); the profiler resolves the
            // producer from whichever completion ends the span.
            let top = &self.top;
            let wait_start = self.tm.tracer.span_start();
            self.tm.clock.wait_until(&top.inflate(&self.tm).change, || {
                top.is_cancelled()
                    || top.is_doomed()
                    || futures.iter().any(|f| f.core.state().is_settled())
            });
            self.tm
                .tracer
                .span_end(EventKind::EvalWaitSpan, wait_start, u64::MAX);
        }
    }

    pub(crate) fn evaluate_core(
        &mut self,
        core: &Arc<FutureCore>,
        implicit: bool,
    ) -> TxResult<Value> {
        if core.top_id != self.top.id {
            return self.evaluate_escaping(core);
        }
        if implicit {
            self.tm.stats.implicit_evaluations();
        }
        // Fast path: already serialized (at submission, or by an earlier
        // evaluation) — idempotent result.
        if let Some(out) = core.read(|l| l.phase.outcome()) {
            return out;
        }
        // Open the evaluation segment: iCommit the current node, begin
        // V_eval. Its dependence on the future is added upon serialization
        // (before that the future's subtree must stay invisible).
        let cur = self.node.id;
        self.freeze();
        let eval_arc = self.top.open_segment(&self.tm, cur, NodeKind::Eval);
        self.bind(eval_arc);
        loop {
            // Wait for the body to settle (or for the claimer to give up).
            // The wait is a join edge of the causal DAG: the span's `b`
            // names the future we blocked on so the profiler can jump
            // lanes along it.
            let wait_start = self.tm.tracer.span_start();
            self.tm.clock.wait_until(&core.event, || {
                core.state().is_settled() || self.top.is_cancelled()
            });
            self.tm
                .tracer
                .span_end(EventKind::EvalWaitSpan, wait_start, core.id);
            self.check_doom()?;
            if let Some(out) = core.read(|l| l.phase.outcome()) {
                if out.is_ok() {
                    // Serialized at submission while we were waiting.
                    self.view_valid = false;
                }
                return out;
            }
            // Claim the serialization so a concurrent same-top evaluator
            // cannot also position the future (two serialization points
            // would cycle G).
            let Some(Phase::Completed(done, escape)) = core.transition(&self.tm.clock, Move::Claim)
            else {
                continue; // claimed by another evaluator
            };
            if self
                .top
                .serialize_at_evaluation(&self.tm, core, done.final_node, cur, self.node.id)
            {
                self.tm.stats.serialized_at_evaluation();
                self.tm
                    .tracer
                    .record(EventKind::FutureSerializedEvaluation, core.id, self.top.id);
                self.view_valid = false;
                return Ok(done.value);
            }
            // Backward validation failed: re-execute the future inline at
            // the evaluation point.
            self.tm.stats.internal_aborts();
            self.tm.stats.reexecutions();
            self.tm
                .tracer
                .record(EventKind::FutureReexecuted, core.id, self.top.id);
            let out = self.reexecute_inline(core, cur);
            if let Err(StmError::Conflict) = out {
                // Release the claim so another evaluator (or a replay) can
                // settle the future.
                core.transition(&self.tm.clock, Move::Release(escape));
            }
            return out;
        }
    }

    /// Re-executes a future's body inline at its evaluation point: the
    /// future's node is re-incarnated as a direct successor of the
    /// evaluator's previous segment, so the re-execution observes exactly
    /// the evaluation-point state and serializes there trivially.
    fn reexecute_inline(&mut self, core: &Arc<FutureCore>, eval_pred: NodeId) -> TxResult<Value> {
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "reexecute_inline spinning");
            self.check_doom()?;
            // Inline attempts continue the future's retry lineage on the
            // evaluator's lane.
            let attempt = (guard - 1) as u64;
            let fnode_arc = self.top.reincarnate_future_at(core, eval_pred);
            match run_body_attempt(&self.tm, &self.top, core, fnode_arc, attempt) {
                Ok(done) => {
                    let value = done.value.clone();
                    self.top
                        .finish_inline_serialization(&self.tm, core, done, self.node.id);
                    self.tm.stats.serialized_at_evaluation();
                    self.tm.tracer.record(
                        EventKind::FutureSerializedEvaluation,
                        core.id,
                        self.top.id,
                    );
                    self.view_valid = false;
                    return Ok(value);
                }
                Err(StmError::Conflict) => {
                    if self.top.is_cancelled() || self.top.is_doomed() {
                        return Err(StmError::Conflict);
                    }
                    continue;
                }
                Err(StmError::UserAbort) => {
                    core.transition(&self.tm.clock, Move::Fail);
                    return Err(StmError::UserAbort);
                }
            }
        }
    }

    /// Cross-top-level evaluation of an escaping future (§4.2).
    fn evaluate_escaping(&mut self, core: &Arc<FutureCore>) -> TxResult<Value> {
        let snapshot = self.top.snapshot_version();
        let settled = |l: &Lifecycle| match (&l.phase, l.spawn_commit_version) {
            // The future's effects committed with its spawning top-level;
            // we may only observe them if our snapshot is at least as
            // recent.
            (Phase::Serialized(_), Some(version)) if version > snapshot => {
                Some(Err(StmError::Conflict))
            }
            (Phase::Serialized(_), None) => None,
            (phase, _) => phase.outcome(),
        };
        loop {
            // Wait until the future and its spawning top-level have settled
            // enough to decide: a completed future once the spawner
            // committed and resolved the escape record.
            self.tm.clock.wait_until(&core.event, || {
                core.read(|l| {
                    settled(l).is_some() || matches!(l.phase, Phase::Completed(_, Some(_)))
                })
            });
            self.check_doom()?;
            if let Some(out) = core.read(settled) {
                return out;
            }
            // Try to claim the adoption; if someone else won, re-examine.
            if let Some(Phase::Completed(done, Some(record))) =
                core.transition(&self.tm.clock, Move::ClaimEscape)
            {
                return self.adopt_escaping(core, done, record);
            }
        }
    }

    /// Validates an escaped future's read-set against this transaction's
    /// view and either adopts its effects or re-executes it inline.
    fn adopt_escaping(
        &mut self,
        core: &Arc<FutureCore>,
        done: Done,
        record: EscapeRecord,
    ) -> TxResult<Value> {
        match record {
            EscapeRecord::Revalidate {
                version,
                reads,
                writes,
            } if version <= self.top.snapshot_version() && self.validate_escape_reads(&reads) => {
                // Adopt: the future's reads and writes become ours; its
                // result is externalized through us. Our logs borrow the
                // record's boxes, whose handles our top-level keeps from
                // now on.
                let mut kept = Vec::with_capacity(reads.len() + writes.len());
                for (body, version) in reads {
                    let id = body.body().id();
                    self.node
                        .record_read(id, body.borrow(), ReadOrigin::Global(version));
                    kept.push(body);
                }
                for (body, value) in writes {
                    self.writes.insert(body.body().id(), (body.borrow(), value));
                    kept.push(body);
                }
                self.top.keep(kept);
                core.transition(&self.tm.clock, Move::Adopt(None));
                self.tm.stats.adopted_escaping();
                self.tm
                    .tracer
                    .record(EventKind::FutureAdopted, core.id, self.top.id);
                Ok(done.value)
            }
            record => {
                // The state the future observed is stale here: re-execute
                // its body inline within this transaction. The result of
                // this (first successful) serialization becomes the fixed
                // result.
                self.tm.stats.internal_aborts();
                self.tm.stats.reexecutions();
                self.tm
                    .tracer
                    .record(EventKind::FutureReexecuted, core.id, self.top.id);
                let was_adopting = std::mem::replace(&mut self.adopting, true);
                let run = unpanicked(|| (core.body)(self));
                self.adopting = was_adopting;
                match run {
                    Ok(value) => {
                        core.transition(&self.tm.clock, Move::Adopt(Some(value.clone())));
                        self.tm.stats.adopted_escaping();
                        self.tm
                            .tracer
                            .record(EventKind::FutureAdopted, core.id, self.top.id);
                        Ok(value)
                    }
                    Err(StmError::UserAbort) => {
                        core.transition(&self.tm.clock, Move::Fail);
                        Err(StmError::UserAbort)
                    }
                    Err(StmError::Conflict) => {
                        // Restore the claim so another evaluator can retry.
                        core.transition(&self.tm.clock, Move::Release(Some(record)));
                        Err(StmError::Conflict)
                    }
                }
            }
        }
    }

    fn validate_escape_reads(&mut self, reads: &[(BoxHandle, u64)]) -> bool {
        for (body, version) in reads {
            let id = body.body().id();
            // Any local shadow of the box invalidates the observation.
            if self.writes.contains_key(&id) {
                return false;
            }
            self.refresh_view();
            if self.view.contains_key(&id) {
                return false;
            }
            // A failed snapshot read (single-version backend, box
            // overwritten) means the observation is certainly stale:
            // adoption fails and the future re-executes inline.
            match body
                .body()
                .read_at(self.top.snapshot_version(), &mut |_| {})
            {
                Ok(cur) if cur == *version => {}
                _ => return false,
            }
        }
        true
    }

    /// Runs `f` as a checkpointed continuation segment (§3.4: the
    /// boundaries of sub-transactions "serve as natural checkpoints to
    /// enable partial rollbacks"). If the segment is doomed by a
    /// conflicting future serialization (SO semantics) *and* it has not
    /// iCommitted or spawned anything, only the segment retries — not the
    /// whole top-level transaction.
    pub fn step<R>(&mut self, mut f: impl FnMut(&mut TxCtx) -> TxResult<R>) -> TxResult<R> {
        self.check_doom()?;
        // Open a fresh segment.
        let cur = self.node.id;
        self.freeze();
        let seg = self.top.open_segment(&self.tm, cur, NodeKind::Continuation);
        self.bind(seg);
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 100_000, "step retry loop spinning");
            let node_id = self.node.id;
            let nodes_before = self.top.node_count();
            match f(self) {
                // A doom may have landed between the segment's last
                // operation and here; a doomed segment must not seal.
                Ok(v) if self.check_doom().is_ok() => {
                    // Seal the segment so later dooms cannot target the
                    // closure we no longer hold.
                    let sealed_from = self.node.id;
                    self.freeze();
                    let next = self
                        .top
                        .open_segment(&self.tm, sealed_from, NodeKind::Continuation);
                    self.bind(next);
                    return Ok(v);
                }
                Ok(_) | Err(StmError::Conflict) => {
                    // Only the segment retries when the doom is its own and
                    // it neither moved on nor spawned anything.
                    let local = !self.top.is_doomed()
                        && !self.top.is_cancelled()
                        && self.node.id == node_id
                        && self.top.node_count() == nodes_before
                        && self.node.is_doomed();
                    if !local {
                        return Err(StmError::Conflict);
                    }
                    self.tm.stats.segment_retries();
                    self.tm
                        .tracer
                        .record(EventKind::SegmentRetried, node_id as u64, self.top.id);
                    let fresh = self.top.reset_node(node_id, NodeKind::Continuation);
                    self.bind(fresh);
                }
                Err(StmError::UserAbort) => return Err(StmError::UserAbort),
            }
        }
    }

    /// The enclosing top-level transaction's snapshot version.
    pub fn snapshot_version(&self) -> u64 {
        self.top.snapshot_version()
    }
}
