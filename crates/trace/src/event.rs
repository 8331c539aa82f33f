//! The event schema: compact fixed-size records of transaction/future
//! lifecycle, STM storage activity and runtime spans.
//!
//! Every event is 4 machine words: a timestamp (from the executing
//! thread's [`wtf_vclock::Clock`], so virtual-clock runs produce
//! bit-deterministic streams), a kind tag and two kind-specific `u64`
//! payloads. Span kinds store their *start* timestamp in `ts` and their
//! duration in `a`, which maps 1:1 onto Chrome trace-event "X" records.

/// What happened. Payload meaning is per-kind (see [`EventKind::arg_names`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A top-level transaction began. a=top_id, b=snapshot_version.
    TopBegin,
    /// A top-level transaction committed. a=top_id, b=commit_version.
    TopCommit,
    /// Commit-time validation failed against another top-level.
    /// a=top_id, b=conflicting box id.
    TopConflictAbort,
    /// Whole-top-level replay restart forced by an internal doom.
    /// a=top_id, b=0.
    TopInternalRestart,
    /// The program aborted explicitly. a=top_id, b=0.
    TopUserAbort,
    /// A transactional future was submitted. a=future_id, b=top_id.
    FutureSubmit,
    /// A worker began executing a future's body. a=future_id,
    /// b=queue-to-start delay (clock units).
    FutureStart,
    /// Forward validation succeeded: serialized at the submission point.
    /// a=future_id, b=top_id.
    FutureSerializedSubmission,
    /// Backward validation succeeded: serialized at the evaluation point.
    /// a=future_id, b=top_id.
    FutureSerializedEvaluation,
    /// An escaping future was adopted by an evaluating top-level (GAC).
    /// a=future_id, b=adopting top_id.
    FutureAdopted,
    /// A future re-executed inline after failing backward validation (or
    /// escape revalidation). a=future_id, b=top_id.
    FutureReexecuted,
    /// A future incarnation was cancelled with its top-level.
    /// a=future_id, b=top_id.
    FutureCancelled,
    /// A sub-transaction was doomed by a conflicting serialization.
    /// a=node_id, b=conflicting box id (or u64::MAX if unattributed).
    SegmentDoomed,
    /// A doomed continuation segment retried locally from its checkpoint.
    /// a=node_id, b=top_id.
    SegmentRetried,
    /// Snapshot read from the multi-versioned store (Full detail only).
    /// a=box_id, b=observed version.
    StmRead,
    /// A committed value was installed into a version chain (Full detail
    /// only). a=box_id, b=version.
    StmInstall,
    /// Commit-time GC pruned old versions. a=box_id, b=versions freed.
    StmPrune,
    /// Span: a whole `commit_attributed` (lock, validate, install, publish, GC).
    /// a=duration, b=commit version.
    StmCommitSpan,
    /// Span: stripe acquisition + read-set validation. a=duration,
    /// b=number of boxes validated.
    StmValidationSpan,
    /// Span: wait for the in-order publication ticket. a=duration,
    /// b=commit version.
    PublishWaitSpan,
    /// Span: a pool worker executing one task. a=duration, b=worker index.
    WorkerBusySpan,
    /// Span: a pool worker blocked waiting for work. a=duration,
    /// b=worker index.
    WorkerIdleSpan,
    /// A gauge sample was recorded. a=sample index in the gauge series,
    /// b=number of gauges sampled.
    GaugeSample,
    /// One entry of a committed transaction's read set, re-emitted on the
    /// committer's lane immediately before its commit event so offline
    /// checkers can reconstruct the serialization record (Full detail
    /// only). a=box_id, b=observed version (0 = initial value).
    CommitRead,
    /// A baseline (future-free) mvstm transaction committed (Full detail
    /// only; top-levels use [`EventKind::TopCommit`] instead).
    /// a=commit_version, b=snapshot_version.
    TxnCommit,
    /// A future body incarnation started executing. a=future_id,
    /// b=attempt index (0-based; bumps on every internal retry).
    FutureAttemptBegin,
    /// A future body incarnation aborted (doomed read or forward-
    /// validation loss) and will retry. a=future_id, b=attempt index.
    FutureAttemptAbort,
    /// A future body incarnation finished executing (before settlement).
    /// a=future_id, b=attempt index that succeeded.
    FutureCompleted,
    /// Span: an evaluation blocked waiting for a future to complete
    /// (the join edge of the causal DAG). a=duration, b=future_id.
    EvalWaitSpan,
    /// Retry lineage: a fresh top-level incarnation replaces a cancelled
    /// one after a full restart. a=new top_id, b=previous top_id.
    TopRetry,
    /// A task was pushed onto the pool queue (causal pair with
    /// [`EventKind::TaskDequeue`]). a=task_id, b=queue depth after push.
    TaskEnqueue,
    /// A worker popped a task off the pool queue. a=task_id,
    /// b=enqueue-to-dequeue delay (clock units).
    TaskDequeue,
    /// A backend-level commit attempt failed read validation (emitted by
    /// both mvstm and tl2 so retry lineage profiles identically).
    /// a=conflicting box id, b=snapshot version of the failed attempt.
    TxnAttemptAbort,
}

/// All kinds, in discriminant order (export tables, tests).
pub const ALL_KINDS: [EventKind; 33] = [
    EventKind::TopBegin,
    EventKind::TopCommit,
    EventKind::TopConflictAbort,
    EventKind::TopInternalRestart,
    EventKind::TopUserAbort,
    EventKind::FutureSubmit,
    EventKind::FutureStart,
    EventKind::FutureSerializedSubmission,
    EventKind::FutureSerializedEvaluation,
    EventKind::FutureAdopted,
    EventKind::FutureReexecuted,
    EventKind::FutureCancelled,
    EventKind::SegmentDoomed,
    EventKind::SegmentRetried,
    EventKind::StmRead,
    EventKind::StmInstall,
    EventKind::StmPrune,
    EventKind::StmCommitSpan,
    EventKind::StmValidationSpan,
    EventKind::PublishWaitSpan,
    EventKind::WorkerBusySpan,
    EventKind::WorkerIdleSpan,
    EventKind::GaugeSample,
    EventKind::CommitRead,
    EventKind::TxnCommit,
    EventKind::FutureAttemptBegin,
    EventKind::FutureAttemptAbort,
    EventKind::FutureCompleted,
    EventKind::EvalWaitSpan,
    EventKind::TopRetry,
    EventKind::TaskEnqueue,
    EventKind::TaskDequeue,
    EventKind::TxnAttemptAbort,
];

impl EventKind {
    /// Stable name used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TopBegin => "top_begin",
            EventKind::TopCommit => "top_commit",
            EventKind::TopConflictAbort => "top_conflict_abort",
            EventKind::TopInternalRestart => "top_internal_restart",
            EventKind::TopUserAbort => "top_user_abort",
            EventKind::FutureSubmit => "future_submit",
            EventKind::FutureStart => "future_start",
            EventKind::FutureSerializedSubmission => "future_serialized_at_submission",
            EventKind::FutureSerializedEvaluation => "future_serialized_at_evaluation",
            EventKind::FutureAdopted => "future_adopted",
            EventKind::FutureReexecuted => "future_reexecuted",
            EventKind::FutureCancelled => "future_cancelled",
            EventKind::SegmentDoomed => "segment_doomed",
            EventKind::SegmentRetried => "segment_retried",
            EventKind::StmRead => "stm_read",
            EventKind::StmInstall => "stm_install",
            EventKind::StmPrune => "stm_prune",
            EventKind::StmCommitSpan => "stm_commit",
            EventKind::StmValidationSpan => "stm_validation",
            EventKind::PublishWaitSpan => "publish_wait",
            EventKind::WorkerBusySpan => "worker_busy",
            EventKind::WorkerIdleSpan => "worker_idle",
            EventKind::GaugeSample => "gauge_sample",
            EventKind::CommitRead => "commit_read",
            EventKind::TxnCommit => "txn_commit",
            EventKind::FutureAttemptBegin => "future_attempt_begin",
            EventKind::FutureAttemptAbort => "future_attempt_abort",
            EventKind::FutureCompleted => "future_completed",
            EventKind::EvalWaitSpan => "eval_wait",
            EventKind::TopRetry => "top_retry",
            EventKind::TaskEnqueue => "task_enqueue",
            EventKind::TaskDequeue => "task_dequeue",
            EventKind::TxnAttemptAbort => "txn_attempt_abort",
        }
    }

    /// Inverse of [`EventKind::name`], for trace importers (`wtf-check`
    /// re-reads exported Chrome traces through this).
    pub fn from_name(name: &str) -> Option<EventKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }

    /// Span kinds carry (start, duration); the rest are instants.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::StmCommitSpan
                | EventKind::StmValidationSpan
                | EventKind::PublishWaitSpan
                | EventKind::WorkerBusySpan
                | EventKind::WorkerIdleSpan
                | EventKind::EvalWaitSpan
        )
    }

    /// Names of the `a`/`b` payloads for the exporters.
    pub fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::TopBegin => ("top", "snapshot"),
            EventKind::TopCommit => ("top", "version"),
            EventKind::TopConflictAbort => ("top", "conflict_box"),
            EventKind::TopInternalRestart | EventKind::TopUserAbort => ("top", "_"),
            EventKind::FutureSubmit => ("future", "top"),
            EventKind::FutureStart => ("future", "queue_delay"),
            EventKind::FutureSerializedSubmission
            | EventKind::FutureSerializedEvaluation
            | EventKind::FutureAdopted
            | EventKind::FutureReexecuted
            | EventKind::FutureCancelled => ("future", "top"),
            EventKind::SegmentDoomed => ("node", "conflict_box"),
            EventKind::SegmentRetried => ("node", "top"),
            EventKind::StmRead | EventKind::StmInstall => ("box", "version"),
            EventKind::StmPrune => ("box", "pruned"),
            EventKind::StmCommitSpan | EventKind::PublishWaitSpan => ("dur", "version"),
            EventKind::StmValidationSpan => ("dur", "reads"),
            EventKind::WorkerBusySpan | EventKind::WorkerIdleSpan => ("dur", "worker"),
            EventKind::GaugeSample => ("sample", "gauges"),
            EventKind::CommitRead => ("box", "version"),
            EventKind::TxnCommit => ("version", "snapshot"),
            EventKind::FutureAttemptBegin
            | EventKind::FutureAttemptAbort
            | EventKind::FutureCompleted => ("future", "attempt"),
            EventKind::EvalWaitSpan => ("dur", "future"),
            EventKind::TopRetry => ("top", "prev_top"),
            EventKind::TaskEnqueue => ("task", "depth"),
            EventKind::TaskDequeue => ("task", "delay"),
            EventKind::TxnAttemptAbort => ("conflict_box", "snapshot"),
        }
    }
}

/// One recorded event. `Copy` and small: rings store these inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock units at recording time (span kinds: at span *start*).
    pub ts: u64,
    pub kind: EventKind,
    pub a: u64,
    pub b: u64,
}
