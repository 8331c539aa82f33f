//! Transactional futures: handles, state machine and escape records.

use crate::ctx::TxCtx;
use crate::graph::NodeId;
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;
use wtf_backend::{BackendBox, TxResult, TxValue, Value};
use wtf_vclock::Event;

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

/// Read-set of an escaping future resolved to global versions at its
/// spawning top-level's commit, for adoption-time revalidation (§4.2 GAC).
pub struct EscapeRecord {
    /// `(box, version the future observed)` pairs.
    pub reads: Vec<(Arc<dyn BackendBox>, u64)>,
    /// The future's effective write-set (its subtree overlay), merged into
    /// the adopter on successful validation.
    pub writes: Vec<(Arc<dyn BackendBox>, Value)>,
    /// The future observed ancestor values that did not survive into the
    /// spawning transaction's committed write-set (they were shadowed by a
    /// deeper write, or the top-level was read-only): the observation can
    /// never be revalidated and adoption must re-execute.
    pub poisoned: bool,
}

/// Type-erased body, re-runnable for internal retries and evaluation-time
/// re-executions.
pub type BodyFn = Arc<dyn Fn(&mut TxCtx) -> TxResult<Value> + Send + Sync>;

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
    /// Last node of the body's execution (differs from `node` when the
    /// body spawned nested futures). Set when the body completes.
    pub final_node: Mutex<Option<NodeId>>,
    pub state: Mutex<FutState>,
    pub result: Mutex<Option<Value>>,
    /// Notified on every state transition.
    pub event: Event,
    pub body: BodyFn,
    /// Commit version of the spawning top-level, set when it commits. Used
    /// by cross-transaction evaluators to order themselves after the
    /// spawner.
    pub spawn_commit_version: Mutex<Option<u64>>,
    /// Set when the spawning top-level commits while this future is still
    /// unserialized (GAC): the future escaped.
    pub escape: Mutex<Option<EscapeRecord>>,
    /// Futures spawned by this future's body (for cascade cancellation
    /// when a body incarnation retries).
    pub children: Mutex<Vec<Arc<FutureCore>>>,
}

impl FutureCore {
    pub fn state(&self) -> FutState {
        *self.state.lock()
    }

    /// Transitions state and returns the previous value. Callers notify
    /// `event` afterwards (never while holding other locks).
    pub fn set_state(&self, s: FutState) -> FutState {
        std::mem::replace(&mut *self.state.lock(), s)
    }

    pub fn result_value(&self) -> Option<Value> {
        self.result.lock().clone()
    }
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
