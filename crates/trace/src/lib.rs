//! # wtf-trace — observability for the WTF-TM runtime
//!
//! The paper's evaluation is a story about *where time and aborts go*:
//! top-level vs. internal aborts, serialization at submission vs.
//! evaluation, straggler futures holding up in-order commits. Coarse
//! end-of-run counters cannot tell those stories, so this crate adds
//! three instruments, all dependency-free and all gated behind a single
//! load of the tracer's fixed level per hook:
//!
//! * **Event rings** ([`ring::Lane`]) — per-thread, lock-free,
//!   append-only buffers of [`TraceEvent`]s timestamped with
//!   [`wtf_vclock::Clock`]. Under the virtual clock a run is a
//!   deterministic function of its seeds, so the exported trace is
//!   *byte-identical* across runs — traces can be diffed in CI.
//! * **Histograms** ([`hist::Histogram`]) — log-bucketed atomic
//!   latency histograms for commit, validation, publish-wait and future
//!   queue-to-start delay.
//! * **Abort attribution** ([`attribution::ConflictMap`]) — every
//!   conflict abort is charged to the `VBox` (and commit stripe) whose
//!   version check failed, yielding a per-run hotspot report.
//!
//! Exporters: [`Tracer::chrome_trace_json`] renders the rings in Chrome
//! trace-event format (loadable in Perfetto / `chrome://tracing`), and
//! [`TraceSummary::to_json`] produces the machine-readable metrics dump
//! the fig binaries write into `results/*.json`.
//!
//! ## Levels
//!
//! | level | env | records |
//! |-------|-----|---------|
//! | `Off` | (unset) | nothing — one relaxed load per hook |
//! | `Lifecycle` | `WTF_TRACE=1` | lifecycle events, histograms, attribution |
//! | `Full` | `WTF_TRACE=2` | the above plus per-read/install STM events |

pub mod attribution;
pub mod chrome;
pub mod event;
pub mod gauge;
pub mod hist;
pub mod json;
pub mod knobs;
pub mod ring;

pub use attribution::ConflictMap;
pub use event::{EventKind, Lanes, TraceEvent};
pub use gauge::{GaugeRegistry, GaugeSeriesSnapshot};
pub use hist::{Histogram, HistogramSnapshot};
pub use json::Json;
pub use ring::Lane;

use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use wtf_vclock::Clock;

/// How much the tracer records, fixed when the tracer is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default).
    Off = 0,
    /// Transaction/future lifecycle events, histograms, attribution.
    Lifecycle = 1,
    /// Lifecycle plus per-operation STM events (read/install).
    Full = 2,
}

impl TraceLevel {
    /// Parses a `WTF_TRACE` value: `0`/`off`, `1`/`lifecycle` or
    /// `2`/`full`.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "0" | "off" => Some(TraceLevel::Off),
            "1" | "lifecycle" => Some(TraceLevel::Lifecycle),
            "2" | "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// Level from the `WTF_TRACE` environment variable (unset → Off).
    pub fn from_env() -> TraceLevel {
        knobs::env().trace()
    }

    pub fn name(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Lifecycle => "lifecycle",
            TraceLevel::Full => "full",
        }
    }
}

/// The latency histograms every run maintains (when tracing is on).
#[derive(Default)]
pub struct Metrics {
    /// Whole `commit_attributed` duration (lock → validate → install → publish).
    pub commit_latency: Histogram,
    /// Stripe-lock acquisition + read-set validation duration.
    pub validation_latency: Histogram,
    /// Time spent waiting for the in-order publication ticket.
    pub publish_wait: Histogram,
    /// Future submit → worker pickup delay.
    pub queue_delay: Histogram,
}

// ordering: relaxed-rmw — a pure id dispenser for the lane cache keys.
static NEXT_TRACER_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Cache of `(tracer_id, lane)` so the hot path skips the registry
    /// mutex. Bounded: evicting an entry only means the thread registers
    /// a fresh lane if it ever records for that tracer again.
    static LANE_CACHE: RefCell<Vec<(u64, Arc<Lane>)>> = const { RefCell::new(Vec::new()) };
}

const LANE_CACHE_LIMIT: usize = 8;

/// Wall-clock fallback when no [`Clock`] is entered on this thread.
fn wall_ns() -> u64 {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(std::time::Instant::now);
    std::time::Instant::now().duration_since(epoch).as_nanos() as u64
}

/// The per-run tracing facade. One `Tracer` is shared (via `Arc`) by the
/// STM, the core TM, the task pool and the harness; every hook goes
/// through it. A disabled tracer costs one load of its fixed level per
/// hook and allocates no lanes.
pub struct Tracer {
    id: u64,
    level: TraceLevel,
    lane_capacity: usize,
    lanes: Mutex<Vec<Arc<Lane>>>,
    /// Latency histograms (public: recorded by the hooks, read by dumps).
    pub metrics: Metrics,
    /// Conflict attribution (public: charged by abort paths).
    pub conflicts: ConflictMap,
    /// Gauge registry (public: runtimes register pull gauges at
    /// construction, the harness samples them at end of run).
    pub gauges: GaugeRegistry,
}

impl Tracer {
    /// A tracer recording at `level`, with the default lane capacity.
    pub fn new(level: TraceLevel) -> Arc<Tracer> {
        Tracer::with_capacity(level, ring::DEFAULT_LANE_CAPACITY)
    }

    /// A permanently-off tracer: what every runtime gets by default.
    pub fn disabled() -> Arc<Tracer> {
        Tracer::new(TraceLevel::Off)
    }

    /// Level from the `WTF_TRACE` environment variable (`1`/`2`).
    pub fn from_env() -> Arc<Tracer> {
        Tracer::new(TraceLevel::from_env())
    }

    pub fn with_capacity(level: TraceLevel, lane_capacity: usize) -> Arc<Tracer> {
        Arc::new(Tracer {
            id: NEXT_TRACER_ID.fetch_add(1, Ordering::Relaxed),
            level,
            lane_capacity,
            lanes: Mutex::new(Vec::new()),
            metrics: Metrics::default(),
            conflicts: ConflictMap::new(),
            gauges: GaugeRegistry::new(),
        })
    }

    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// The single hot-path gate: is any recording enabled?
    #[inline]
    pub fn on(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Is per-operation (`Full`) recording enabled?
    #[inline]
    pub fn full(&self) -> bool {
        self.level == TraceLevel::Full
    }

    /// Current timestamp: the entered [`Clock`] if any (virtual units or
    /// wall ns), else a process-relative wall clock.
    pub fn now(&self) -> u64 {
        match Clock::try_current() {
            Some(clock) => clock.now(),
            None => wall_ns(),
        }
    }

    /// Timestamp for an upcoming span, or 0 when tracing is off (so
    /// callers can skip the clock read entirely).
    #[inline]
    pub fn span_start(&self) -> u64 {
        if self.on() {
            self.now()
        } else {
            0
        }
    }

    /// Records an instant event at the current time. No-op when off.
    #[inline]
    pub fn record(&self, kind: EventKind, a: u64, b: u64) {
        if !self.on() {
            return;
        }
        self.record_at(self.now(), kind, a, b);
    }

    /// Records a `Full`-level instant event (per-read/install volume).
    #[inline]
    pub fn record_full(&self, kind: EventKind, a: u64, b: u64) {
        if !self.full() {
            return;
        }
        self.record_at(self.now(), kind, a, b);
    }

    /// Closes a span opened with [`Tracer::span_start`], recording its
    /// duration, and returns that duration (for histogram feeding).
    /// No-op returning 0 when off.
    #[inline]
    pub fn span_end(&self, kind: EventKind, start: u64, b: u64) -> u64 {
        if !self.on() {
            return 0;
        }
        let dur = self.now().saturating_sub(start);
        self.record_at(start, kind, dur, b);
        dur
    }

    /// Records a pre-timestamped event (span closers, replayed streams).
    pub fn record_at(&self, ts: u64, kind: EventKind, a: u64, b: u64) {
        if !self.on() {
            return;
        }
        self.lane().push(TraceEvent { ts, kind, a, b });
    }

    /// Unconditionally samples every registered gauge into the series
    /// (and the event stream) at the current time. No-op when off.
    pub fn sample_gauges(&self) {
        if !self.on() {
            return;
        }
        let ts = self.now();
        if let Some(idx) = self.gauges.record_sample(ts) {
            self.record_at(
                ts,
                EventKind::GaugeSample,
                idx as u64,
                self.gauges.len() as u64,
            );
        }
    }

    /// Charges a conflict abort to `box_id`. No-op when off.
    #[inline]
    pub fn charge_conflict(&self, box_id: u64) {
        if !self.on() {
            return;
        }
        self.conflicts.charge(box_id);
    }

    /// This thread's lane for this tracer, registering one on first use.
    fn lane(&self) -> Arc<Lane> {
        LANE_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, lane)) = cache.iter().find(|(id, _)| *id == self.id) {
                return Arc::clone(lane);
            }
            let lane = {
                let mut lanes = self.lanes.lock();
                let lane = Arc::new(Lane::new(lanes.len(), self.lane_capacity));
                lanes.push(Arc::clone(&lane));
                lane
            };
            if cache.len() >= LANE_CACHE_LIMIT {
                cache.remove(0);
            }
            cache.push((self.id, Arc::clone(&lane)));
            lane
        })
    }

    /// Harvests all lanes as `(lane_index, events)`, ordered by index.
    /// Meant to run after recording threads have quiesced; a concurrent
    /// writer's tail events may be missed but never torn.
    pub fn lanes(&self) -> Lanes {
        let lanes = self.lanes.lock();
        let mut out: Vec<(usize, Vec<TraceEvent>)> =
            lanes.iter().map(|l| (l.index(), l.events())).collect();
        out.sort_by_key(|(i, _)| *i);
        out
    }

    /// Total events currently published across all lanes.
    pub fn events_recorded(&self) -> u64 {
        self.lanes.lock().iter().map(|l| l.len() as u64).sum()
    }

    /// Total events dropped because a lane filled up.
    pub fn events_dropped(&self) -> u64 {
        self.lanes.lock().iter().map(|l| l.dropped()).sum()
    }

    /// The full event-ring export in Chrome trace-event JSON (open in
    /// Perfetto or `chrome://tracing`).
    pub fn chrome_trace_json(&self) -> String {
        chrome::chrome_trace(&self.lanes(), self.events_dropped()).to_string()
    }

    /// Point-in-time metrics summary for the machine-readable dump.
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            level: self.level(),
            events_recorded: self.events_recorded(),
            events_dropped: self.events_dropped(),
            commit_latency: self.metrics.commit_latency.snapshot(),
            validation_latency: self.metrics.validation_latency.snapshot(),
            publish_wait: self.metrics.publish_wait.snapshot(),
            queue_delay: self.metrics.queue_delay.snapshot(),
            conflict_total: self.conflicts.total(),
            hotspots: self.conflicts.hotspots(HOTSPOT_LIMIT),
            stripe_conflicts: self.conflicts.stripe_counts(),
            gauges: self.gauges.series(),
        }
    }
}

/// How many hotspot boxes the summary keeps.
pub const HOTSPOT_LIMIT: usize = 16;

/// Immutable summary of one run's tracing output: histogram snapshots
/// plus the conflict hotspot report. Cheap to clone, JSON-exportable.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    pub level: TraceLevel,
    pub events_recorded: u64,
    pub events_dropped: u64,
    pub commit_latency: HistogramSnapshot,
    pub validation_latency: HistogramSnapshot,
    pub publish_wait: HistogramSnapshot,
    pub queue_delay: HistogramSnapshot,
    pub conflict_total: u64,
    pub hotspots: Vec<(u64, u64)>,
    pub stripe_conflicts: Vec<u64>,
    pub gauges: GaugeSeriesSnapshot,
}

impl Default for TraceSummary {
    fn default() -> Self {
        TraceSummary {
            level: TraceLevel::Off,
            events_recorded: 0,
            events_dropped: 0,
            commit_latency: HistogramSnapshot::default(),
            validation_latency: HistogramSnapshot::default(),
            publish_wait: HistogramSnapshot::default(),
            queue_delay: HistogramSnapshot::default(),
            conflict_total: 0,
            hotspots: Vec::new(),
            stripe_conflicts: Vec::new(),
            gauges: GaugeSeriesSnapshot::default(),
        }
    }
}

impl TraceSummary {
    pub fn enabled(&self) -> bool {
        self.level != TraceLevel::Off
    }

    /// Deterministic JSON rendering (key order fixed, hotspots sorted).
    pub fn to_json(&self) -> Json {
        let hotspots: Vec<Json> = self
            .hotspots
            .iter()
            .map(|&(id, n)| Json::obj(vec![("box", id.into()), ("conflicts", n.into())]))
            .collect();
        let stripes: Vec<Json> = self
            .stripe_conflicts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::arr(vec![i.into(), n.into()]))
            .collect();
        Json::obj(vec![
            ("level", self.level.name().into()),
            ("events_recorded", self.events_recorded.into()),
            ("events_dropped", self.events_dropped.into()),
            ("commit_latency", self.commit_latency.to_json()),
            ("validation_latency", self.validation_latency.to_json()),
            ("publish_wait", self.publish_wait.to_json()),
            ("queue_delay", self.queue_delay.to_json()),
            (
                "conflicts",
                Json::obj(vec![
                    ("total", self.conflict_total.into()),
                    ("hotspots", Json::Arr(hotspots)),
                    ("stripes", Json::Arr(stripes)),
                ]),
            ),
            ("gauges", self.gauges.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.record(EventKind::TopCommit, 1, 2);
        t.record_full(EventKind::StmRead, 1, 2);
        t.charge_conflict(9);
        assert_eq!(t.span_start(), 0);
        assert_eq!(t.span_end(EventKind::StmCommitSpan, 0, 0), 0);
        assert_eq!(t.events_recorded(), 0);
        assert!(t.lanes().is_empty(), "no lanes allocated while off");
        assert_eq!(t.summary().conflict_total, 0);
    }

    #[test]
    fn lifecycle_gates_full_events() {
        let t = Tracer::new(TraceLevel::Lifecycle);
        t.record(EventKind::TopBegin, 1, 0);
        t.record_full(EventKind::StmRead, 5, 7);
        assert_eq!(t.events_recorded(), 1);
        let lanes = t.lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].1[0].kind, EventKind::TopBegin);
    }

    #[test]
    fn per_thread_lanes_and_chrome_export() {
        let t = Tracer::new(TraceLevel::Full);
        t.record(EventKind::TopBegin, 1, 0);
        let t2 = Arc::clone(&t);
        std::thread::spawn(move || {
            t2.record(EventKind::TopCommit, 1, 3);
        })
        .join()
        .unwrap();
        assert_eq!(t.lanes().len(), 2, "one lane per recording thread");
        let trace = t.chrome_trace_json();
        let parsed = Json::parse(&trace).expect("chrome trace parses");
        assert_eq!(parsed.as_arr().unwrap().len(), 2);
    }

    #[test]
    fn summary_json_round_trips() {
        let t = Tracer::new(TraceLevel::Lifecycle);
        t.metrics.commit_latency.record(12);
        t.charge_conflict(4);
        t.charge_conflict(4);
        t.record(EventKind::TopConflictAbort, 1, 4);
        let s = t.summary();
        assert_eq!(s.conflict_total, 2);
        assert_eq!(s.hotspots, vec![(4, 2)]);
        let j = s.to_json();
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn level_parsing_is_strict() {
        assert_eq!(TraceLevel::parse("1"), Some(TraceLevel::Lifecycle));
        assert_eq!(TraceLevel::parse("full"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("0"), Some(TraceLevel::Off));
        // Unknown spellings used to mean Off; now they are rejected.
        assert_eq!(TraceLevel::parse("nope"), None);
        assert_eq!(TraceLevel::parse(" 1"), None);
    }

    #[test]
    fn virtual_clock_timestamps() {
        let clock = Clock::virtual_time();
        let t = Tracer::new(TraceLevel::Lifecycle);
        clock.enter({
            let t = Arc::clone(&t);
            move || {
                let c = Clock::current();
                t.record(EventKind::TopBegin, 1, 0);
                c.advance(25);
                t.record(EventKind::TopCommit, 1, 9);
            }
        });
        let lanes = t.lanes();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].1[0].ts, 0);
        assert_eq!(lanes[0].1[1].ts, 25);
    }
}
