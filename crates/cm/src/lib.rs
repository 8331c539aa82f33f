//! # wtf-cm — pluggable contention management
//!
//! The tracer charges every abort to a concrete box, and the telemetry
//! layer detects abort storms — but through PR 8 nothing consumed those
//! signals at runtime: an aborted transaction retried *immediately* into
//! the same hot box. This crate closes the loop with a
//! [`ContentionManager`] trait consulted on every abort/retry decision,
//! in the plain `wtf_backend::atomic` retry loop and in `wtf-core`'s
//! top-level retry loop.
//!
//! ## Design: pure state machines
//!
//! Policies never sleep, never read a clock and never record trace
//! events. They receive the current virtual time and the aborted
//! attempt's cost as plain integers and return a [`CmDecision`] saying
//! how long the loser should wait and whether a box just got flagged for
//! serialized admission. The *caller* applies the wait (one
//! `Clock::advance` under the virtual clock — deterministic by
//! construction) and records the `CmWait` / `CmBoxFlagged` /
//! `AdaptiveFlip` trace events. This keeps every policy trivially
//! testable: the proptest oracles in `tests/oracles.rs` drive the state
//! machines with arbitrary abort streams and check their invariants
//! without any runtime in the loop.
//!
//! ## The policies
//!
//! | kind | decision rule |
//! |---|---|
//! | `immediate` | retry at once (the pre-PR-9 behavior; default) |
//! | `backoff` | capped exponential: `min(base << (streak-1), cap)` |
//! | `karma` | priority accrued per aborted work; poorer txn waits, and newcomers pay a deficit-proportional admission tax |
//! | `hotspot` | per-box abort streaks; flagged boxes gate admission |
//! | `adaptive` | backoff + WO→SO flip on internal-abort hysteresis |
//!
//! Selection: `FutureTm::builder().cm(..)` or
//! [`RunSpec::cm`](../wtf_workloads) name a policy explicitly; otherwise
//! the `WTF_CM` environment variable decides ([`CmKind::resolve`]).

mod adaptive;
mod backoff;
mod hotspot;
mod karma;

pub use adaptive::AdaptiveCm;
pub use backoff::BackoffCm;
pub use hotspot::HotspotCm;
pub use karma::KarmaCm;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wtf_trace::knobs::{self, Knobs};

/// Which contention-management policy a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmKind {
    /// Retry immediately (the default; today's behavior).
    Immediate,
    /// Capped exponential backoff on consecutive aborts.
    Backoff,
    /// Karma: priority accrued per aborted work, loser waits.
    Karma,
    /// Hotspot: serialize admission to boxes with abort streaks.
    Hotspot,
    /// Backoff plus adaptive WO→SO future serialization.
    Adaptive,
}

impl CmKind {
    pub const ALL: [CmKind; 5] = [
        CmKind::Immediate,
        CmKind::Backoff,
        CmKind::Karma,
        CmKind::Hotspot,
        CmKind::Adaptive,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CmKind::Immediate => "immediate",
            CmKind::Backoff => "backoff",
            CmKind::Karma => "karma",
            CmKind::Hotspot => "hotspot",
            CmKind::Adaptive => "adaptive",
        }
    }

    pub fn parse(name: &str) -> Option<CmKind> {
        CmKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The policy a constructor installs: `explicit` when the caller named
    /// one, else `WTF_CM` (unset or empty: `immediate`). An explicit kind
    /// never reads — or panics over — the environment. Panics on an
    /// unknown `WTF_CM` value — a typo'd policy silently running
    /// `immediate` would invalidate a comparison sweep.
    pub fn resolve(explicit: Option<CmKind>) -> CmKind {
        CmKind::resolve_with(explicit, &knobs::env())
    }

    /// [`CmKind::resolve`] over injected knobs, so tests cover every case
    /// without mutating the process environment.
    fn resolve_with<R: Fn(&str) -> Option<String>>(
        explicit: Option<CmKind>,
        knobs: &Knobs<R>,
    ) -> CmKind {
        explicit.unwrap_or_else(|| {
            knobs
                .cm(
                    CmKind::parse,
                    "immediate, backoff, karma, hotspot or adaptive",
                )
                .unwrap_or(CmKind::Immediate)
        })
    }

    /// The policy `WTF_CM` selects (default `immediate`).
    pub fn from_env() -> CmKind {
        CmKind::resolve(None)
    }

    /// Builds a fresh instance of this policy with its default tuning.
    pub fn build(self) -> Arc<dyn ContentionManager> {
        match self {
            CmKind::Immediate => Arc::new(ImmediateCm::default()),
            CmKind::Backoff => Arc::new(BackoffCm::default()),
            CmKind::Karma => Arc::new(KarmaCm::default()),
            CmKind::Hotspot => Arc::new(HotspotCm::default()),
            CmKind::Adaptive => Arc::new(AdaptiveCm::default()),
        }
    }
}

/// The current virtual time, or 0 on a thread that never entered a
/// clock (plain-thread unit tests). Retry loops stamp each attempt's
/// start with this so the policy sees the wasted attempt's cost.
pub fn attempt_now() -> u64 {
    wtf_vclock::Clock::try_current().map_or(0, |c| c.now())
}

/// The one retry-site protocol shared by both loops that consult a CM
/// (`wtf_backend::atomic` and `wtf-core`'s top-level loop): consult the
/// policy, record the `CmBoxFlagged` / `CmWait` events, and apply the
/// wait as a single `Clock::advance`. On a thread without a clock the policy is still
/// consulted (streaks and gates stay coherent) but the wait cannot be
/// applied, so it is neither advanced nor recorded.
pub fn pause_after_abort(
    cm: &dyn ContentionManager,
    tracer: &wtf_trace::Tracer,
    actor: u64,
    conflict_box: Option<u64>,
    streak: u32,
    attempt_start: u64,
) {
    let (clock, now) = match wtf_vclock::Clock::try_current() {
        Some(c) => {
            let now = c.now();
            (Some(c), now)
        }
        None => (None, 0),
    };
    let work = now.saturating_sub(attempt_start);
    let decision = cm.on_abort(actor, conflict_box, streak, work, now);
    if let Some((box_id, gate_deadline)) = decision.flagged {
        tracer.record(wtf_trace::EventKind::CmBoxFlagged, box_id, gate_deadline);
    }
    if let Some(clock) = clock {
        if decision.wait > 0 {
            tracer.record(wtf_trace::EventKind::CmWait, actor, decision.wait);
            clock.advance(decision.wait);
        }
        drain_admission(cm, tracer, actor, &clock);
    }
}

/// Re-checks [`ContentionManager::admission_wait`] until the actor is
/// admitted (or a progress bound trips). A single pre-computed wait is
/// not enough: a priority window granted *while this actor slept* would
/// otherwise let it wake mid-window and trample the protected victim.
/// The iteration bound keeps a pathological grant stream from parking an
/// actor forever — after it, the actor proceeds regardless.
fn drain_admission(
    cm: &dyn ContentionManager,
    tracer: &wtf_trace::Tracer,
    actor: u64,
    clock: &wtf_vclock::Clock,
) {
    for _ in 0..32 {
        let wait = cm.admission_wait(actor, clock.now());
        if wait == 0 {
            return;
        }
        tracer.record(wtf_trace::EventKind::CmWait, actor, wait);
        clock.advance(wait);
    }
}

/// The admission-side counterpart of [`pause_after_abort`], applied once
/// per logical transaction right after `begin_txn`: consult
/// [`ContentionManager::admission_wait`] and, on a clocked thread, apply
/// the wait as one `Clock::advance` recorded as a `CmWait` event. On a
/// clockless thread the wait cannot be applied and is skipped entirely.
pub fn pause_at_begin(cm: &dyn ContentionManager, tracer: &wtf_trace::Tracer, actor: u64) {
    let Some(clock) = wtf_vclock::Clock::try_current() else {
        return;
    };
    drain_admission(cm, tracer, actor, &clock);
}

/// What a policy tells the retry loop to do after an abort.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmDecision {
    /// Virtual-time units to wait before retrying (0 = retry at once).
    /// The caller applies this as one `Clock::advance` and records a
    /// `CmWait` event when nonzero.
    pub wait: u64,
    /// A box that just crossed the hotspot threshold: `(box_id,
    /// gate_deadline)`. Only set on the flagging transition; the caller
    /// records a `CmBoxFlagged` event.
    pub flagged: Option<(u64, u64)>,
}

/// An adaptive-serialization flip reported by
/// [`ContentionManager::note_future_attempt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveFlip {
    /// `true`: newly-submitted futures now serialize at submission
    /// (WO→SO); `false`: flipped back to submission-order-free (WO).
    pub to_strong: bool,
    /// Internal abort rate over the deciding window, in per-mille (the
    /// `AdaptiveFlip` trace event's payload).
    pub rate_per_mille: u64,
}

/// Counter snapshot exported through the `cm_*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmStats {
    /// Nonzero waits handed out.
    pub waits: u64,
    /// Total virtual-time units of wait handed out.
    pub total_wait: u64,
    /// Boxes flagged for serialized admission (flag transitions, not
    /// currently-gated count).
    pub serialized_boxes: u64,
    /// Adaptive WO→SO (and back) flips.
    pub adaptive_flips: u64,
}

/// A contention-management policy: a deterministic state machine over
/// abort/commit/attempt notifications. Implementations must be cheap —
/// they sit on every retry path of both backends.
pub trait ContentionManager: Send + Sync {
    fn kind(&self) -> CmKind;

    /// Issues an actor token for a (re)starting transaction. Karma
    /// carries priority *across* an actor's retries, so callers reuse
    /// the token for every attempt of one logical transaction and report
    /// its retirement via [`ContentionManager::on_commit`].
    fn begin_txn(&self) -> u64;

    /// Consulted once per logical transaction before its first attempt:
    /// how long this actor should defer admission. Karma uses it to tax
    /// newcomers proportionally to their priority deficit against the
    /// richest live (aborting) transaction — loser-side waits alone
    /// cannot end starvation, because the aggressor that keeps winning
    /// never aborts and so never consults [`Self::on_abort`]. Every
    /// other policy admits immediately.
    fn admission_wait(&self, _actor: u64, _now: u64) -> u64 {
        0
    }

    /// Consulted after every conflict abort. `conflict_box` is the box
    /// the abort was attributed to (when the substrate knows it),
    /// `streak` the actor's consecutive-abort count (≥ 1), `work` the
    /// virtual cost of the wasted attempt, `now` the current virtual
    /// time.
    fn on_abort(
        &self,
        actor: u64,
        conflict_box: Option<u64>,
        streak: u32,
        work: u64,
        now: u64,
    ) -> CmDecision;

    /// The actor committed; its priority (if any) retires.
    fn on_commit(&self, actor: u64);

    /// Feeds one future-body attempt outcome to the adaptive policy.
    /// Returns a flip when the internal-abort hysteresis crosses.
    fn note_future_attempt(&self, _aborted: bool, _now: u64) -> Option<AdaptiveFlip> {
        None
    }

    /// Whether newly-beginning top-levels should serialize their futures
    /// at submission (the adaptive WO→SO flip). Sampled once per
    /// top-level at begin, so one transaction never mixes orderings.
    fn serialize_at_submission(&self) -> bool {
        false
    }

    fn stats(&self) -> CmStats;
}

/// Shared counter block used by every policy.
#[derive(Debug, Default)]
pub(crate) struct CmCounters {
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    waits: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    total_wait: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    serialized_boxes: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    adaptive_flips: AtomicU64,
}

impl CmCounters {
    pub(crate) fn count_wait(&self, wait: u64) {
        if wait > 0 {
            self.waits.fetch_add(1, Ordering::Relaxed);
            self.total_wait.fetch_add(wait, Ordering::Relaxed);
        }
    }

    pub(crate) fn count_flag(&self) {
        self.serialized_boxes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_flip(&self) {
        self.adaptive_flips.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> CmStats {
        CmStats {
            waits: self.waits.load(Ordering::Relaxed),
            total_wait: self.total_wait.load(Ordering::Relaxed),
            serialized_boxes: self.serialized_boxes.load(Ordering::Relaxed),
            adaptive_flips: self.adaptive_flips.load(Ordering::Relaxed),
        }
    }
}

/// Monotonic actor-token source shared by the policies.
// ordering(ActorSource): relaxed-rmw — ids only need uniqueness, not
// ordering; nothing is published through the counter.
#[derive(Debug, Default)]
pub(crate) struct ActorSource(AtomicU64);

impl ActorSource {
    pub(crate) fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }
}

/// The default policy: retry immediately, keep no state. Exactly the
/// pre-CM behavior, so `WTF_CM=immediate` (or unset) is byte-identical
/// to runs of earlier revisions modulo the zero-valued `cm_*` gauges.
#[derive(Debug, Default)]
pub struct ImmediateCm {
    actors: ActorSource,
    counters: CmCounters,
}

impl ContentionManager for ImmediateCm {
    fn kind(&self) -> CmKind {
        CmKind::Immediate
    }

    fn begin_txn(&self) -> u64 {
        self.actors.next()
    }

    fn on_abort(
        &self,
        _actor: u64,
        _conflict_box: Option<u64>,
        _streak: u32,
        _work: u64,
        _now: u64,
    ) -> CmDecision {
        CmDecision::default()
    }

    fn on_commit(&self, _actor: u64) {}

    fn stats(&self) -> CmStats {
        self.counters.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_parses_env_values() {
        for kind in CmKind::ALL {
            assert_eq!(CmKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(CmKind::parse("nope"), None);
    }

    /// `CmKind::resolve(None)` with `WTF_CM` set to `v`.
    fn cm_from(v: Option<&'static str>) -> CmKind {
        CmKind::resolve_with(
            None,
            &Knobs(|name: &str| {
                assert_eq!(name, "WTF_CM");
                v.map(str::to_string)
            }),
        )
    }

    #[test]
    fn explicit_kind_wins_without_reading_the_environment() {
        let knobs = Knobs(|_: &str| -> Option<String> { panic!("environment consulted") });
        assert_eq!(
            CmKind::resolve_with(Some(CmKind::Karma), &knobs),
            CmKind::Karma
        );
    }

    #[test]
    fn cm_knob_table() {
        assert_eq!(cm_from(None), CmKind::Immediate);
        assert_eq!(cm_from(Some("")), CmKind::Immediate);
        for kind in CmKind::ALL {
            assert_eq!(cm_from(Some(kind.name())), kind);
        }
    }

    #[test]
    #[should_panic(
        expected = "WTF_CM=\"karmma\": expected immediate, backoff, karma, hotspot or adaptive"
    )]
    fn malformed_environment_value_is_rejected() {
        cm_from(Some("karmma"));
    }

    #[test]
    fn build_round_trips_kind() {
        for kind in CmKind::ALL {
            assert_eq!(kind.build().kind(), kind);
        }
    }

    #[test]
    fn immediate_never_waits_or_serializes() {
        let cm = ImmediateCm::default();
        let a = cm.begin_txn();
        for streak in 1..64u32 {
            let d = cm.on_abort(a, Some(7), streak, 1_000, streak as u64 * 10);
            assert_eq!(d, CmDecision::default());
        }
        assert!(!cm.serialize_at_submission());
        assert_eq!(cm.note_future_attempt(true, 0), None);
        assert_eq!(cm.stats(), CmStats::default());
    }

    #[test]
    fn actor_tokens_are_unique() {
        let cm = ImmediateCm::default();
        let a = cm.begin_txn();
        let b = cm.begin_txn();
        assert_ne!(a, b);
    }
}
