//! Transactional futures: handles, the lifecycle and the body runner.
//!
//! A future's lifecycle (§3.2, §4.1–4.2) lives here: its state together
//! with the data each state implies ([`Phase`]) sits behind the one lock
//! of [`FutureCore`] and changes only through [`FutureCore::transition`];
//! every attempt of its body, wherever it runs, goes through
//! [`run_body_attempt`] or at least through [`unpanicked`].

use crate::ctx::TxCtx;
use crate::graph::NodeId;
use crate::node::{NodeKind, SubTxNode};
use crate::toplevel::{FutureCommitOutcome, TopLevel};
use crate::TmInner;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;
use wtf_backend::{BoxHandle, StmError, TxResult, TxValue, Value};
use wtf_trace::EventKind;
use wtf_vclock::{Clock, Event};

/// Lifecycle of a transactional future (§3.2, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FutState {
    /// Body executing (or queued).
    Running,
    /// Body finished; could not serialize at submission (WO), awaiting its
    /// evaluation serialization point — or, if its spawning top-level
    /// already committed (GAC), awaiting adoption.
    Completed,
    /// Serialized within its top-level transaction (at submission or
    /// evaluation). The result is fixed.
    Serialized,
    /// Claimed by an evaluating top-level transaction that is validating /
    /// re-executing it (GAC adoption in progress).
    Adopting,
    /// Adopted by another top-level transaction (GAC). Result fixed.
    Adopted,
    /// The body requested an explicit abort.
    Failed,
    /// The spawning top-level transaction was aborted/retried; this
    /// incarnation is dead.
    Cancelled,
}

impl FutState {
    /// States in which `evaluate` no longer blocks.
    pub fn is_settled(self) -> bool {
        !matches!(self, FutState::Running | FutState::Adopting)
    }
}

/// Read- and write-set of an escaping future resolved to global versions
/// at its spawning top-level's commit, for adoption-time revalidation
/// (§4.2 GAC).
///
/// The record outlives its spawner's registration, so unlike the logs it
/// comes from it counts its boxes, and an adopter keeps the handles until
/// its own top-level ends.
pub enum EscapeRecord {
    /// What the adopter revalidates and, if that passes, takes over.
    Revalidate {
        /// The spawner's commit version: an adopter with an older
        /// snapshot cannot observe the future's effects.
        version: u64,
        /// `(box, version the future observed)` pairs.
        reads: Vec<(BoxHandle, u64)>,
        /// The future's effective write-set (its subtree overlay), merged
        /// into the adopter on successful validation.
        writes: Vec<(BoxHandle, Value)>,
    },
    /// The observation can never be revalidated and the adopter
    /// re-executes: the future saw ancestor values that did not survive
    /// into the spawner's committed write-set (shadowed by a deeper
    /// write, or the top-level was read-only), one of its boxes had lost
    /// its last handle by the commit, or its attempt failed under the
    /// committed snapshot.
    Reexecute,
}

/// Type-erased body, re-runnable for internal retries and evaluation-time
/// re-executions.
pub type BodyFn = Arc<dyn Fn(&mut TxCtx) -> TxResult<Value> + Send + Sync>;

/// What a finished body attempt left: the node it ended on (its own node,
/// or a later segment when it spawned nested futures) and its result.
#[derive(Clone)]
pub(crate) struct Done {
    pub(crate) final_node: NodeId,
    pub(crate) value: Value,
}

/// A [`FutState`] together with the data that state implies.
pub(crate) enum Phase {
    /// `Some(n)`: an earlier attempt ended on `n` and was doomed; a
    /// cancellation aborts `n` as well.
    Running(Option<NodeId>),
    /// The escape record is attached once the spawner committed (GAC).
    Completed(Done, Option<EscapeRecord>),
    Adopting(Done),
    Serialized(Done),
    Adopted(Done),
    /// `Some(n)`: as for `Running`.
    Failed(Option<NodeId>),
    Cancelled,
}

impl Phase {
    pub(crate) fn state(&self) -> FutState {
        match self {
            Phase::Running(_) => FutState::Running,
            Phase::Completed(..) => FutState::Completed,
            Phase::Adopting(_) => FutState::Adopting,
            Phase::Serialized(_) => FutState::Serialized,
            Phase::Adopted(_) => FutState::Adopted,
            Phase::Failed(_) => FutState::Failed,
            Phase::Cancelled => FutState::Cancelled,
        }
    }

    /// The last node a finished attempt ended on, if any.
    pub(crate) fn final_node(&self) -> Option<NodeId> {
        match self {
            Phase::Running(n) | Phase::Failed(n) => *n,
            Phase::Completed(d, _)
            | Phase::Adopting(d)
            | Phase::Serialized(d)
            | Phase::Adopted(d) => Some(d.final_node),
            Phase::Cancelled => None,
        }
    }

    /// What an evaluation returns once the future is settled for good:
    /// the fixed result (§3.2 idempotent evaluation) or the error.
    pub(crate) fn outcome(&self) -> Option<TxResult<Value>> {
        match self {
            Phase::Serialized(d) | Phase::Adopted(d) => Some(Ok(d.value.clone())),
            Phase::Failed(_) => Some(Err(StmError::UserAbort)),
            Phase::Cancelled => Some(Err(StmError::Conflict)),
            Phase::Running(_) | Phase::Completed(..) | Phase::Adopting(_) => None,
        }
    }
}

/// A change of a future's lifecycle, applied by
/// [`FutureCore::transition`] as [`Lifecycle::apply`] rules.
pub(crate) enum Move {
    /// A worker's attempt finished: `Serialized`, `Completed`, or (doomed)
    /// `Running` again.
    Finish(Phase),
    /// A same-top evaluator claims a `Completed` future to serialize it.
    Claim,
    /// Another top-level claims a `Completed`, escaped future to adopt it.
    ClaimEscape,
    /// The claimer gives up, returning the escape record it took.
    Release(Option<EscapeRecord>),
    /// The claimer serialized it; `Some`: a re-execution's outcome.
    Serialize(Option<Done>),
    /// The claimer adopted it; `Some`: a re-execution's result.
    Adopt(Option<Value>),
    /// The body aborted explicitly or panicked.
    Fail,
    /// The incarnation that runs it was abandoned.
    Cancel,
    /// The spawner committed at this version, with the escape record of a
    /// `Completed` future that has none yet.
    Commit(u64, Option<EscapeRecord>),
}

/// Everything of a future that changes, behind its one lock.
pub(crate) struct Lifecycle {
    pub(crate) phase: Phase,
    /// Commit version of the spawning top-level, set when it commits. Used
    /// by cross-transaction evaluators to order themselves after the
    /// spawner.
    pub(crate) spawn_commit_version: Option<u64>,
    /// Futures spawned by this future's body (for cascade cancellation
    /// when a body incarnation retries).
    children: Vec<Arc<FutureCore>>,
}

impl Lifecycle {
    /// Applies `mv` and returns the phase it left; `None` when the phase
    /// refuses it, and for `Commit`, which leaves no phase. The rules:
    /// - `Finish` never leaves `Cancelled`: a replay restart or a top-level
    ///   abort may cancel a future while its body is finishing, and a
    ///   cancelled incarnation is never resurrected.
    /// - A fixed result is never replaced: `Serialized` and `Adopted`
    ///   refuse `Finish`, `Serialize`, `Adopt` and `Fail`, and `Adopted`
    ///   (its effects are its adopter's) refuses `Cancel` as well.
    /// - Only `Completed` is claimed; only `Adopting` released, serialized
    ///   or adopted.
    pub(crate) fn apply(&mut self, mv: Move) -> Option<Phase> {
        use Phase::*;
        let fixed = matches!(self.phase, Serialized(_) | Adopted(_));
        let next = match (mv, &mut self.phase) {
            (Move::Commit(version, record), phase) => {
                self.spawn_commit_version = Some(version);
                if let Completed(_, slot @ None) = phase {
                    *slot = record;
                }
                return None;
            }
            (Move::Finish(_), Cancelled) => return None,
            (Move::Finish(next), _) if !fixed => next,
            (Move::Claim, Completed(done, _)) => Adopting(done.clone()),
            (Move::ClaimEscape, Completed(done, Some(_))) => Adopting(done.clone()),
            (Move::Release(record), Adopting(done)) => Completed(done.clone(), record),
            (Move::Serialize(again), Adopting(done)) => Serialized(again.unwrap_or(done.clone())),
            (Move::Adopt(value), Adopting(done)) => Adopted(Done {
                final_node: done.final_node,
                value: value.unwrap_or(done.value.clone()),
            }),
            (Move::Fail, phase) if !fixed => Failed(phase.final_node()),
            (Move::Cancel, Adopted(_)) => return None,
            (Move::Cancel, _) => Cancelled,
            _ => return None,
        };
        Some(std::mem::replace(&mut self.phase, next))
    }
}

/// Shared core of one transactional future.
pub struct FutureCore {
    /// Unique across the whole TM instance (diagnostics).
    pub id: u64,
    /// Identity of the spawning top-level transaction *incarnation*.
    pub top_id: u64,
    /// This future's node in the spawning top-level's graph G.
    pub node: NodeId,
    /// The continuation node created alongside (forward validation starts
    /// there).
    pub cont_node: NodeId,
    pub body: BodyFn,
    /// Notified after every transition.
    pub event: Event,
    lifecycle: Mutex<Lifecycle>,
}

impl FutureCore {
    pub(crate) fn new(
        id: u64,
        top_id: u64,
        node: NodeId,
        cont_node: NodeId,
        body: BodyFn,
        event: Event,
    ) -> FutureCore {
        FutureCore {
            id,
            top_id,
            node,
            cont_node,
            body,
            event,
            lifecycle: Mutex::new(Lifecycle {
                phase: Phase::Running(None),
                spawn_commit_version: None,
                children: Vec::new(),
            }),
        }
    }

    pub fn state(&self) -> FutState {
        self.lifecycle.lock().phase.state()
    }

    /// Reads the lifecycle under its lock.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&Lifecycle) -> R) -> R {
        f(&self.lifecycle.lock())
    }

    /// The one way a future's lifecycle changes: applies `mv` under the
    /// lock (see [`Lifecycle::apply`] for what it accepts), drops the
    /// lock, then notifies `event` once, whether or not `mv` was accepted.
    /// Returns the phase left, `None` if refused.
    pub(crate) fn transition(&self, clock: &Clock, mv: Move) -> Option<Phase> {
        let left = self.lifecycle.lock().apply(mv);
        clock.notify_all(&self.event);
        left
    }

    pub(crate) fn add_child(&self, child: Arc<FutureCore>) {
        self.lifecycle.lock().children.push(child);
    }

    pub(crate) fn take_children(&self) -> Vec<Arc<FutureCore>> {
        std::mem::take(&mut self.lifecycle.lock().children)
    }
}

/// Runs `body`, settling a panic as an explicit abort: whoever evaluates
/// the future is answered with an error and the thread lives on. (The
/// panic hook has already printed the message.)
pub(crate) fn unpanicked<T>(body: impl FnOnce() -> TxResult<T>) -> TxResult<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)).unwrap_or(Err(StmError::UserAbort))
}

/// Runs one attempt of `core`'s body on a fresh context at `node` and
/// returns what it left, frozen. Records the attempt's begin and its
/// completion, or its abort on a conflict; an explicit abort (or a panic)
/// goes back to the caller's retry policy. Attempts are numbered per
/// incarnation site: the profiler keys waste on begin/abort pairs.
pub(crate) fn run_body_attempt(
    tm: &Arc<TmInner>,
    top: &Arc<TopLevel>,
    core: &Arc<FutureCore>,
    node: Arc<SubTxNode>,
    attempt: u64,
) -> TxResult<Done> {
    tm.tracer
        .record(EventKind::FutureAttemptBegin, core.id, attempt);
    let mut ctx = TxCtx::new(tm.clone(), top.clone(), node);
    ctx.set_owner(core.clone());
    match unpanicked(|| (core.body)(&mut ctx)) {
        Ok(value) => {
            let final_node = ctx.node.id;
            ctx.freeze();
            tm.tracer
                .record(EventKind::FutureCompleted, core.id, attempt);
            Ok(Done { final_node, value })
        }
        Err(StmError::Conflict) => {
            tm.stats.internal_aborts();
            tm.tracer
                .record(EventKind::FutureAttemptAbort, core.id, attempt);
            Err(StmError::Conflict)
        }
        Err(StmError::UserAbort) => Err(StmError::UserAbort),
    }
}

/// Worker-side execution of a future's body, with internal retry.
/// `submit_ts` is the submission-point timestamp (0 when tracing is off)
/// used to measure the queue-to-start delay.
pub(crate) fn run_future_body(
    tm: Arc<TmInner>,
    top: Arc<TopLevel>,
    core: Arc<FutureCore>,
    submit_ts: u64,
) {
    if tm.tracer.on() {
        let delay = tm.tracer.now().saturating_sub(submit_ts);
        tm.tracer.metrics.queue_delay.record(delay);
        tm.tracer.record(EventKind::FutureStart, core.id, delay);
    }
    let settle = |mv: Move| {
        core.transition(&tm.clock, mv);
        top.notify_change(&tm);
    };
    let mut guard = 0u32;
    loop {
        guard += 1;
        assert!(guard < 100_000, "run_future_body retry spinning");
        if top.is_cancelled() {
            return settle(Move::Cancel);
        }
        // Retry lineage: every incarnation of the body is one attempt;
        // begin/abort pairs let the profiler charge the aborted ones to
        // wasted speculative work and tie them to the attempt that won.
        let attempt = (guard - 1) as u64;
        match run_body_attempt(&tm, &top, &core, top.node_arc(core.node), attempt) {
            Ok(done) => {
                if top.strong {
                    // JTF serializes futures at their submission points *in
                    // spawn order*: a future's commit waits for every
                    // earlier-submitted future of the same top-level. This
                    // is the source of the paper's straggler effect (Fig. 3).
                    wait_for_earlier_futures(&tm, &top, &core);
                }
                let FutureCommitOutcome::Doomed = top.complete_future(&tm, &core, done) else {
                    return;
                };
                tm.stats.internal_aborts();
                tm.tracer
                    .record(EventKind::FutureAttemptAbort, core.id, attempt);
            }
            Err(StmError::Conflict) => {}
            Err(StmError::UserAbort) => {
                tm.tracer
                    .record(EventKind::FutureAttemptAbort, core.id, attempt);
                return settle(Move::Fail);
            }
        }
        // The attempt was doomed or conflicted.
        top.cancel_children(&tm, &core);
        if top.is_cancelled() || core.state() == FutState::Cancelled {
            return settle(Move::Cancel);
        }
        if top.is_sealed() {
            // The spawner committed under the snapshot this attempt failed
            // in, and no retry can read under a newer one: the future
            // escapes as one its adopter re-executes (§4.2). The attempt
            // left no result; its node is doomed, so that an escaped
            // sibling's backward validation never serializes the
            // placeholder either.
            top.node_arc(core.node).doom();
            let done = Done {
                final_node: core.node,
                value: Value::new(()),
            };
            let escaped = Phase::Completed(done, Some(EscapeRecord::Reexecute));
            return settle(Move::Finish(escaped));
        }
        top.reset_node(core.node, NodeKind::Future);
    }
}

/// SO in-spawn-order commit: block until every future registered before
/// `core` under `top` has settled (or the top-level was abandoned).
fn wait_for_earlier_futures(tm: &Arc<TmInner>, top: &Arc<TopLevel>, core: &Arc<FutureCore>) {
    // In-spawn-order blocking is a join edge on whichever earlier future
    // settles last; the producer is resolved offline from the span's end
    // timestamp (b = u64::MAX marks it unattributed at record time).
    let wait_start = tm.tracer.span_start();
    tm.clock.wait_until(&top.sub().change, || {
        if top.is_cancelled() || core.state() == FutState::Cancelled {
            return true;
        }
        let futures = top.sub().futures.lock();
        for f in futures.iter() {
            if Arc::ptr_eq(f, core) {
                return true;
            }
            if matches!(f.state(), FutState::Running | FutState::Adopting) {
                return false;
            }
        }
        true
    });
    tm.tracer
        .span_end(EventKind::EvalWaitSpan, wait_start, u64::MAX);
}

/// A handle to a transactional future returning `T`.
///
/// Clonable and storable inside a [`VBox`](crate::VBox) — that is how
/// futures *escape*: a transaction writes the handle to shared memory,
/// commits, and a different top-level transaction reads and evaluates it
/// (§3.3, Fig. 1c).
pub struct TxFuture<T> {
    pub(crate) core: Arc<FutureCore>,
    pub(crate) _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for TxFuture<T> {
    fn clone(&self) -> Self {
        TxFuture {
            core: self.core.clone(),
            _marker: PhantomData,
        }
    }
}

impl<T: TxValue> TxFuture<T> {
    /// Current lifecycle state (non-blocking; for diagnostics and
    /// non-blocking polling).
    pub fn state(&self) -> FutState {
        self.core.state()
    }

    /// True once the future's body has finished executing (it may still be
    /// awaiting serialization).
    pub fn is_done_executing(&self) -> bool {
        self.core.state() != FutState::Running
    }
}

impl<T> std::fmt::Debug for TxFuture<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TxFuture(id={}, state={:?})",
            self.core.id,
            self.core.state()
        )
    }
}
