//! Critical-path extraction and time attribution.
//!
//! The walk runs *backward* from the horizon: at `(lane, t)` it asks what
//! the lane was doing just before `t`. Plain work peels off one
//! constant-category segment and continues earlier on the same lane; a
//! join wait jumps to the lane of the future whose completion ended the
//! wait; a task dequeue charges the queue delay and jumps to the
//! enqueuer. The emitted segments therefore tile `[0, horizon)` exactly —
//! category totals partition the makespan by construction.

use super::dag::{Model, Phase};

/// Closed attribution category set. Every unit of (lane-)time maps to
/// exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Work inside an attempt/top incarnation that went on to commit.
    Useful,
    /// Work inside an aborted incarnation (speculation that lost).
    Wasted,
    /// Waiting for the in-order publication ticket.
    PublishWait,
    /// A task sitting in the pool queue before a worker picked it up.
    QueueDelay,
    /// Commit-time read-set validation under stripe locks.
    Validation,
    /// Commit span outside validation/publish: lock acquisition + install.
    CommitStall,
    /// Blocked evaluating a future (a join edge that could not be walked
    /// through, or its residual wake-up slack).
    JoinWait,
    /// Nothing attributable was happening.
    Idle,
}

/// All categories, in report order.
pub const ALL_CATEGORIES: [Category; 8] = [
    Category::Useful,
    Category::Wasted,
    Category::PublishWait,
    Category::QueueDelay,
    Category::Validation,
    Category::CommitStall,
    Category::JoinWait,
    Category::Idle,
];

impl Category {
    pub fn name(self) -> &'static str {
        match self {
            Category::Useful => "useful",
            Category::Wasted => "wasted",
            Category::PublishWait => "publish_wait",
            Category::QueueDelay => "queue_delay",
            Category::Validation => "validation",
            Category::CommitStall => "commit_stall",
            Category::JoinWait => "join_wait",
            Category::Idle => "idle",
        }
    }
}

/// One attributed interval of the critical path (or of a lane tiling).
#[derive(Debug, Clone)]
pub struct Segment {
    pub lane: usize,
    pub start: u64,
    pub end: u64,
    pub category: Category,
    /// Top-level incarnation the time belongs to, when known.
    pub top: Option<u64>,
    /// Future the time belongs to (work inside its attempt, or the future
    /// a join/queue edge was blocked on), when known.
    pub future: Option<u64>,
    /// Attempt index within the future, when inside an attempt window.
    pub attempt: Option<u64>,
    /// Conflicting box attributed to a wasted incarnation, when known.
    pub box_id: Option<u64>,
}

impl Segment {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }

    /// A segment of `category` on `lane` that no top, future or box owns
    /// yet; the walk sets its bounds.
    fn unowned(lane: usize, category: Category) -> Segment {
        Segment {
            lane,
            start: 0,
            end: 0,
            category,
            top: None,
            future: None,
            attempt: None,
            box_id: None,
        }
    }
}

/// Category + culprits of lane `lane` at instant `point` (no jumps).
fn attribute(model: &Model, lane: &super::dag::LaneModel, point: u64) -> Segment {
    let phase = lane.phase_at(point);
    let mut seg = Segment::unowned(lane.index, Category::Idle);
    // Windows give ownership even inside commit/validation phases.
    if let Some(w) = lane.attempt_at(point) {
        seg.future = Some(w.future);
        seg.attempt = Some(w.attempt);
        seg.top = model.future_top.get(&w.future).copied();
        seg.category = if w.aborted {
            Category::Wasted
        } else {
            Category::Useful
        };
    } else if let Some(w) = lane.top_at(point) {
        seg.top = Some(w.top);
        seg.box_id = w.conflict_box;
        seg.category = if w.committed {
            Category::Useful
        } else {
            Category::Wasted
        };
    }
    match phase {
        Some(Phase::Validation) => seg.category = Category::Validation,
        Some(Phase::PublishWait) => seg.category = Category::PublishWait,
        Some(Phase::Commit) => seg.category = Category::CommitStall,
        Some(Phase::EvalWait) => {
            seg.category = Category::JoinWait;
            if let Some(w) = lane.wait_at(point) {
                if w.future != u64::MAX {
                    seg.future = Some(w.future);
                }
            }
        }
        Some(Phase::IdleSpan) if seg.future.is_none() && seg.top.is_none() => {
            seg.category = Category::Idle;
        }
        Some(Phase::Busy) if seg.future.is_none() && seg.top.is_none() => {
            // A task outside any window: generic pool housekeeping.
            seg.category = Category::Useful;
        }
        _ => {}
    }
    seg
}

/// Backward walk from `(start_lane, horizon)`. Returns segments tiling
/// `[0, horizon)`, ascending by start.
pub(crate) fn critical_path(model: &Model) -> Vec<Segment> {
    let horizon = model.horizon;
    let mut segs: Vec<Segment> = Vec::new();
    if horizon == 0 || model.lanes.is_empty() {
        return segs;
    }
    let mut lane_idx = model.start_lane();
    let mut t = horizon;
    let push = |segs: &mut Vec<Segment>, mut s: Segment, start: u64, end: u64| {
        if end > start {
            s.start = start;
            s.end = end;
            segs.push(s);
        }
    };
    // Termination: every iteration either moves `t` strictly down or
    // jumps along a causal edge to a lane not yet visited at this `t`
    // (`visited_at_t` blocks same-instant cycles in pathological traces);
    // the guard converts anything left into a padded (still
    // partition-exact) path.
    let mut visited_at_t: Vec<usize> = vec![lane_idx];
    let mut guard = 0u64;
    while t > 0 {
        guard += 1;
        if guard > 10_000_000 {
            push(&mut segs, Segment::unowned(lane_idx, Category::Idle), 0, t);
            break;
        }
        let lane = match model.lane(lane_idx) {
            Some(l) => l,
            None => {
                // Jump target lane recorded nothing: nothing to attribute.
                push(&mut segs, Segment::unowned(lane_idx, Category::Idle), 0, t);
                break;
            }
        };
        let point = t - 1;
        let phase = lane.phase_at(point);

        // Join edge: jump to the completion that ended the wait.
        if phase == Some(Phase::EvalWait) {
            if let Some(w) = lane.wait_at(point) {
                let producer = if w.future != u64::MAX {
                    model
                        .completion_before(w.future, t)
                        .map(|(ts, l)| (ts, l, w.future))
                } else {
                    model.any_completion_in(w.start, t)
                };
                if let Some((p_ts, p_lane, fut)) = producer {
                    let advances = p_ts < t || !visited_at_t.contains(&p_lane);
                    if p_ts > w.start && p_ts <= t && advances {
                        let mut s = attribute(model, lane, point);
                        s.category = Category::JoinWait;
                        s.future = Some(fut);
                        push(&mut segs, s, p_ts, t);
                        if p_ts < t {
                            visited_at_t.clear();
                        }
                        visited_at_t.push(p_lane);
                        t = p_ts;
                        lane_idx = p_lane;
                        continue;
                    }
                }
            }
            // Unresolvable (dangling) join edge: charge as join-wait on
            // this lane and keep walking locally.
            let prev = lane.prev_boundary(t);
            push(&mut segs, attribute(model, lane, point), prev, t);
            if prev < t {
                visited_at_t.clear();
                visited_at_t.push(lane_idx);
            }
            t = prev;
            continue;
        }

        // Queue edge: the segment after `t` started with a dequeue here.
        if let Some((task, delay)) = lane.dequeue_at(t) {
            let target = model.enqueues.get(&task).copied();
            // A zero-delay jump must reach a lane not yet visited at this
            // `t` (same same-instant cycle-breaking as the join edge).
            let moves = delay > 0
                || target
                    .map(|(_, l)| !visited_at_t.contains(&l))
                    .unwrap_or(false);
            if matches!(phase, None | Some(Phase::IdleSpan)) && moves {
                let q = t.saturating_sub(delay);
                let s = Segment::unowned(lane_idx, Category::QueueDelay);
                push(&mut segs, s, q, t);
                if q < t {
                    visited_at_t.clear();
                }
                t = q;
                if let Some((e_ts, e_lane)) = target {
                    if e_ts <= t {
                        lane_idx = e_lane;
                    }
                }
                visited_at_t.push(lane_idx);
                continue;
            }
        }

        let prev = lane.prev_boundary(t);
        push(&mut segs, attribute(model, lane, point), prev, t);
        if prev < t {
            visited_at_t.clear();
            visited_at_t.push(lane_idx);
        }
        t = prev;
    }
    segs.reverse();
    segs
}

/// Tiles `[0, horizon)` on one lane with attributed segments (no jumps;
/// waits and queue gaps stay in their own categories). The sum over all
/// lanes is the run's aggregate lane-time accounting.
pub(crate) fn lane_tiling(model: &Model, lane: &super::dag::LaneModel) -> Vec<Segment> {
    let horizon = model.horizon;
    let mut segs = Vec::new();
    if horizon == 0 {
        return segs;
    }
    let mut cuts: Vec<u64> = lane.boundaries.clone();
    if cuts.first() != Some(&0) {
        cuts.insert(0, 0);
    }
    if cuts.last() != Some(&horizon) {
        cuts.push(horizon);
    }
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        if b <= a {
            continue;
        }
        let mut s = attribute(model, lane, a);
        s.start = a;
        s.end = b;
        segs.push(s);
    }
    segs
}
