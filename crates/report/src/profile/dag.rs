//! Causal model reconstruction: from raw per-lane event streams to a
//! queryable dependency structure — per-lane phase timelines (innermost
//! active span wins), attempt/top-level outcome windows, taskpool
//! enqueue→dequeue pairs and future-completion join targets.

use std::collections::BTreeMap;
use wtf_trace::{EventKind, TraceEvent};

/// Innermost runtime phase a lane can be in, by span nesting. Priority
/// resolves same-instant overlap: validation and publish-wait happen
/// inside a commit span, a commit inside a busy span, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Phase {
    /// WorkerIdleSpan: parked waiting for work.
    IdleSpan,
    /// WorkerBusySpan: executing a task (category refined by windows).
    Busy,
    /// EvalWaitSpan: blocked on a future (a join edge).
    EvalWait,
    /// StmCommitSpan outside validation/publish: lock + install.
    Commit,
    /// PublishWaitSpan: waiting for the in-order publication ticket.
    PublishWait,
    /// StmValidationSpan: read-set validation under stripe locks.
    Validation,
}

impl Phase {
    fn of(kind: EventKind) -> Option<Phase> {
        match kind {
            EventKind::WorkerIdleSpan => Some(Phase::IdleSpan),
            EventKind::WorkerBusySpan => Some(Phase::Busy),
            EventKind::EvalWaitSpan => Some(Phase::EvalWait),
            EventKind::StmCommitSpan => Some(Phase::Commit),
            EventKind::PublishWaitSpan => Some(Phase::PublishWait),
            EventKind::StmValidationSpan => Some(Phase::Validation),
            _ => None,
        }
    }
}

/// One incarnation of a future body on this lane, with its outcome.
#[derive(Debug, Clone)]
pub(crate) struct AttemptWindow {
    pub start: u64,
    pub end: u64,
    pub future: u64,
    pub attempt: u64,
    pub aborted: bool,
}

/// One top-level incarnation on this lane, with its outcome. Replay
/// restarts (`TopInternalRestart`) stay inside one window; only a commit,
/// an abort or a successor `TopBegin` closes it.
#[derive(Debug, Clone)]
pub(crate) struct TopWindow {
    pub start: u64,
    pub end: u64,
    pub top: u64,
    pub committed: bool,
    /// Box whose validation failure killed the incarnation, if attributed.
    pub conflict_box: Option<u64>,
}

/// An `EvalWaitSpan` with its blocked-on future (u64::MAX = unattributed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WaitSpan {
    pub start: u64,
    pub end: u64,
    pub future: u64,
}

/// Everything the walkers need about one lane, in query-friendly form.
#[derive(Debug)]
pub(crate) struct LaneModel {
    pub index: usize,
    /// Disjoint, sorted, gap-free over [0, horizon): innermost phase, or
    /// `None` where no span covers the instant.
    pub phases: Vec<(u64, u64, Option<Phase>)>,
    pub waits: Vec<WaitSpan>,
    pub attempts: Vec<AttemptWindow>,
    pub tops: Vec<TopWindow>,
    /// (dequeue ts, task id, enqueue-to-dequeue delay), sorted by ts.
    pub dequeues: Vec<(u64, u64, u64)>,
    /// Sorted, deduplicated cut points: phase boundaries plus window
    /// boundaries — between two consecutive entries the category of this
    /// lane is constant.
    pub boundaries: Vec<u64>,
    /// Latest instant covered by an actual event (spans, windows,
    /// dequeues) — NOT the gap-filled timeline, which always reaches the
    /// horizon.
    pub last_activity: u64,
}

impl LaneModel {
    /// Largest boundary strictly below `t` (0 if none).
    pub fn prev_boundary(&self, t: u64) -> u64 {
        match self.boundaries.partition_point(|&b| b < t) {
            0 => 0,
            i => self.boundaries[i - 1],
        }
    }

    /// Innermost phase covering instant `point`.
    pub fn phase_at(&self, point: u64) -> Option<Phase> {
        let i = self.phases.partition_point(|&(start, _, _)| start <= point);
        let (start, end, phase) = self.phases[i.checked_sub(1)?];
        if start <= point && point < end {
            phase
        } else {
            None
        }
    }

    /// The wait span covering `point` with the latest start (innermost).
    pub fn wait_at(&self, point: u64) -> Option<WaitSpan> {
        self.waits
            .iter()
            .filter(|w| w.start <= point && point < w.end)
            .max_by_key(|w| w.start)
            .copied()
    }

    /// The attempt window covering `point` with the latest start.
    pub fn attempt_at(&self, point: u64) -> Option<&AttemptWindow> {
        self.attempts
            .iter()
            .filter(|w| w.start <= point && point < w.end)
            .max_by_key(|w| w.start)
    }

    /// The top-level window covering `point` with the latest start.
    pub fn top_at(&self, point: u64) -> Option<&TopWindow> {
        self.tops
            .iter()
            .filter(|w| w.start <= point && point < w.end)
            .max_by_key(|w| w.start)
    }

    /// The task dequeued on this lane exactly at `t`, if any.
    pub fn dequeue_at(&self, t: u64) -> Option<(u64, u64)> {
        self.dequeues
            .iter()
            .find(|&&(ts, _, _)| ts == t)
            .map(|&(_, task, delay)| (task, delay))
    }
}

/// The reconstructed causal model of one run.
#[derive(Debug)]
pub(crate) struct Model {
    pub lanes: Vec<LaneModel>,
    /// Time horizon the profile partitions: the run's makespan when the
    /// caller supplied one, else the latest event end in the trace.
    pub horizon: u64,
    pub events: u64,
    /// future id → (completion ts, lane) pairs, ascending by ts.
    pub completions: BTreeMap<u64, Vec<(u64, usize)>>,
    /// Every completion across futures, ascending by ts (for resolving
    /// unattributed waits).
    pub all_completions: Vec<(u64, usize, u64)>,
    /// task id → (enqueue ts, lane).
    pub enqueues: BTreeMap<u64, (u64, usize)>,
    /// future id → spawning top id (from `FutureSubmit`).
    pub future_top: BTreeMap<u64, u64>,
    pub top_retries: u64,
    pub txn_attempt_aborts: u64,
}

impl Model {
    pub fn lane(&self, index: usize) -> Option<&LaneModel> {
        self.lanes.iter().find(|l| l.index == index)
    }

    /// Lane on which the walk starts: the one whose latest real activity
    /// reaches furthest toward the horizon (smallest index on ties, for
    /// determinism) — it is the lane that determined the makespan.
    pub fn start_lane(&self) -> usize {
        self.lanes
            .iter()
            .max_by_key(|l| (l.last_activity, std::cmp::Reverse(l.index)))
            .map_or(0, |l| l.index)
    }

    /// Latest completion of `future` at or before `t`.
    pub fn completion_before(&self, future: u64, t: u64) -> Option<(u64, usize)> {
        let v = self.completions.get(&future)?;
        let i = v.partition_point(|&(ts, _)| ts <= t);
        Some(v[i.checked_sub(1)?])
    }

    /// Latest completion of *any* future in (`after`, `t`].
    pub fn any_completion_in(&self, after: u64, t: u64) -> Option<(u64, usize, u64)> {
        let i = self.all_completions.partition_point(|&(ts, _, _)| ts <= t);
        let last = self.all_completions[i.checked_sub(1)?];
        (last.0 > after).then_some(last)
    }
}

/// When an event ends: a span's start plus its duration (`a`), an
/// instant's timestamp.
fn event_end(ev: &TraceEvent) -> u64 {
    if ev.kind.is_span() {
        ev.ts.saturating_add(ev.a)
    } else {
        ev.ts
    }
}

/// Builds the model. `makespan`, when supplied, extends the horizon past
/// the last event (the tail is attributed to idle).
pub(crate) fn build(lanes: &[(usize, Vec<TraceEvent>)], makespan: Option<u64>) -> Model {
    let mut horizon = makespan.unwrap_or(0);
    let mut events = 0u64;
    let mut completions: BTreeMap<u64, Vec<(u64, usize)>> = BTreeMap::new();
    let mut all_completions: Vec<(u64, usize, u64)> = Vec::new();
    let mut enqueues: BTreeMap<u64, (u64, usize)> = BTreeMap::new();
    let mut future_top: BTreeMap<u64, u64> = BTreeMap::new();
    let mut top_retries = 0u64;
    let mut txn_attempt_aborts = 0u64;

    for (index, evs) in lanes {
        events += evs.len() as u64;
        for ev in evs {
            horizon = horizon.max(event_end(ev));
            match ev.kind {
                EventKind::FutureCompleted => {
                    completions.entry(ev.a).or_default().push((ev.ts, *index));
                    all_completions.push((ev.ts, *index, ev.a));
                }
                EventKind::TaskEnqueue => {
                    enqueues.insert(ev.a, (ev.ts, *index));
                }
                EventKind::FutureSubmit => {
                    future_top.insert(ev.a, ev.b);
                }
                EventKind::TopRetry => top_retries += 1,
                EventKind::TxnAttemptAbort => txn_attempt_aborts += 1,
                _ => {}
            }
        }
    }
    for v in completions.values_mut() {
        v.sort_unstable();
    }
    all_completions.sort_unstable();

    let lane_models = lanes
        .iter()
        .map(|(index, evs)| build_lane(*index, evs, horizon))
        .collect();

    Model {
        lanes: lane_models,
        horizon,
        events,
        completions,
        all_completions,
        enqueues,
        future_top,
        top_retries,
        txn_attempt_aborts,
    }
}

fn build_lane(index: usize, evs: &[TraceEvent], horizon: u64) -> LaneModel {
    let last_activity = evs
        .iter()
        .map(|ev| event_end(ev).min(horizon))
        .max()
        .unwrap_or(0);

    // ---- Phase timeline: sweep span edges, innermost (max) phase wins.
    let mut edges: Vec<(u64, i32, Phase)> = Vec::new();
    let mut waits: Vec<WaitSpan> = Vec::new();
    for ev in evs {
        if let Some(phase) = Phase::of(ev.kind) {
            let (start, end) = (ev.ts, ev.ts.saturating_add(ev.a));
            if end > start {
                edges.push((start, 1, phase));
                edges.push((end, -1, phase));
            }
            if ev.kind == EventKind::EvalWaitSpan && end > start {
                waits.push(WaitSpan {
                    start,
                    end,
                    future: ev.b,
                });
            }
        }
    }
    edges.sort_unstable_by_key(|&(ts, delta, phase)| (ts, delta, phase));
    waits.sort_unstable_by_key(|w| (w.start, w.end));
    let mut phases: Vec<(u64, u64, Option<Phase>)> = Vec::new();
    let mut active: BTreeMap<Phase, u32> = BTreeMap::new();
    let mut cursor = 0u64;
    let mut i = 0;
    while i < edges.len() {
        let ts = edges[i].0;
        if ts > cursor {
            let phase = active.iter().rev().find(|(_, &n)| n > 0).map(|(&p, _)| p);
            phases.push((cursor, ts, phase));
            cursor = ts;
        }
        while i < edges.len() && edges[i].0 == ts {
            let (_, delta, phase) = edges[i];
            let n = active.entry(phase).or_insert(0);
            *n = (*n as i64 + delta as i64).max(0) as u32;
            i += 1;
        }
    }
    if cursor < horizon {
        phases.push((cursor, horizon, None));
    }

    // ---- Outcome windows: pair begin/terminator instants in record
    // order (per-lane instants are recorded at monotone timestamps).
    let mut attempts: Vec<AttemptWindow> = Vec::new();
    let mut open_attempts: Vec<AttemptWindow> = Vec::new();
    let mut tops: Vec<TopWindow> = Vec::new();
    let mut open_top: Option<TopWindow> = None;
    let mut dequeues: Vec<(u64, u64, u64)> = Vec::new();
    for ev in evs {
        match ev.kind {
            EventKind::FutureAttemptBegin => open_attempts.push(AttemptWindow {
                start: ev.ts,
                end: horizon,
                future: ev.a,
                attempt: ev.b,
                aborted: false,
            }),
            EventKind::FutureAttemptAbort | EventKind::FutureCompleted => {
                if let Some(pos) = open_attempts.iter().rposition(|w| w.future == ev.a) {
                    let mut w = open_attempts.remove(pos);
                    w.end = ev.ts;
                    w.aborted = ev.kind == EventKind::FutureAttemptAbort;
                    attempts.push(w);
                }
            }
            EventKind::TopBegin => {
                if let Some(mut w) = open_top.take() {
                    // A successor begin implies the predecessor was
                    // cancelled without its own terminator on this lane.
                    w.end = ev.ts;
                    tops.push(w);
                }
                open_top = Some(TopWindow {
                    start: ev.ts,
                    end: horizon,
                    top: ev.a,
                    committed: false,
                    conflict_box: None,
                });
            }
            EventKind::TopCommit | EventKind::TopConflictAbort | EventKind::TopUserAbort => {
                if let Some(mut w) = open_top.take() {
                    if w.top == ev.a {
                        w.end = ev.ts;
                        w.committed = ev.kind == EventKind::TopCommit;
                        if ev.kind == EventKind::TopConflictAbort {
                            w.conflict_box = Some(ev.b);
                        }
                        tops.push(w);
                    } else {
                        open_top = Some(w);
                    }
                }
            }
            EventKind::TaskDequeue => dequeues.push((ev.ts, ev.a, ev.b)),
            _ => {}
        }
    }
    // Dangling windows close at the horizon. An attempt with no outcome is
    // charged as waste (nothing proves it won); a top with no terminator is
    // left as useful (the run was cut at the measurement boundary).
    for mut w in open_attempts {
        w.aborted = true;
        attempts.push(w);
    }
    if let Some(mut w) = open_top.take() {
        w.committed = true;
        tops.push(w);
    }
    attempts.sort_by_key(|w| (w.start, w.end));
    tops.sort_by_key(|w| (w.start, w.end));
    dequeues.sort_unstable();

    let mut boundaries: Vec<u64> = Vec::new();
    for &(start, end, _) in &phases {
        boundaries.push(start);
        boundaries.push(end);
    }
    for w in &attempts {
        boundaries.push(w.start);
        boundaries.push(w.end);
    }
    for w in &tops {
        boundaries.push(w.start);
        boundaries.push(w.end);
    }
    for &(ts, _, _) in &dequeues {
        boundaries.push(ts);
    }
    boundaries.retain(|&b| b <= horizon);
    boundaries.sort_unstable();
    boundaries.dedup();

    LaneModel {
        index,
        phases,
        waits,
        attempts,
        tops,
        dequeues,
        boundaries,
        last_activity,
    }
}
