//! # wtf-telemetry — live sliding-window metrics for the WTF-TM runtime
//!
//! `wtf-trace` (PRs 2–3) answers *post-hoc* questions: end-of-run
//! histograms, hotspot reports, gauge series. ROADMAP items 3 (online
//! contention management) and 5 (`wtf-serve`) need *live* answers —
//! rolling abort rate, windowed latency percentiles, hotspot alarms a
//! policy can react to mid-run. This crate layers three pieces on the
//! trace substrate:
//!
//! * **[`TelemetryHub`]** — a sliding-window aggregator. Time is cut
//!   into fixed epochs; every closed epoch snapshots the tracer's
//!   cumulative histograms/conflict map/gauges, takes deltas, and feeds
//!   ring-of-epochs windows ([`wtf_trace::WindowedCounter`] /
//!   [`wtf_trace::WindowedHistogram`]). Rolling throughput, abort rate,
//!   per-box conflict rank and p50/p95/p99 latencies fall out of the
//!   window merges.
//! * **Prometheus exposition** ([`prom`]) — the windows render to the
//!   text exposition format, periodically written to `WTF_METRICS_FILE`
//!   (merge-on-export, so mvstm and tl2 phases of one run land in one
//!   file). Every series carries `backend` and `workload` labels.
//! * **Incident detection** ([`incident`]) — threshold/EWMA rules over
//!   the windows (abort storms, GC-horizon lag, queue-delay growth,
//!   watchdog stalls) emit structured `incidents.json` reports with
//!   onset/peak/recovery timestamps and implicated boxes/stripes,
//!   budgeted like the PR-3 doom-snapshot dumps.
//!
//! ## Determinism
//!
//! The hub has **no thread of its own**. It registers a tick hook on the
//! tracer ([`wtf_trace::Tracer::set_tick_hook`]) that runs from existing
//! runtime hooks (top-level begin/commit), so under the virtual clock
//! epoch boundaries, window contents, exposition files and incident
//! reports are all deterministic functions of the run's seeds. Telemetry
//! therefore requires tracing to be on (`WTF_TRACE>=1`): a disabled
//! tracer never fires its hooks.

pub mod incident;
pub mod prom;

pub use incident::{
    EpochObservation, Hysteresis, HysteresisEdge, Incident, IncidentDetector, IncidentKind,
    IncidentTransition, Thresholds,
};
pub use prom::{PromDoc, PromFamily, PromSample, PromValue};

use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use wtf_trace::hist::bucket_upper;
use wtf_trace::knobs;
use wtf_trace::{EventKind, HistogramSnapshot, Json, Tracer, WindowedCounter, WindowedHistogram};

/// Default epoch length in clock units (virtual units or wall ns).
pub const DEFAULT_EPOCH_LEN: u64 = 50_000;
/// Default window size in epochs.
pub const DEFAULT_WINDOW_EPOCHS: usize = 8;
/// Exposition export cadence, in epochs (a final export always happens
/// at finish).
pub const EXPORT_EVERY: u64 = 4;
/// Incident budget (mirrors the PR-3 snapshot dump budget).
pub const INCIDENT_BUDGET: u64 = 8;
/// Hard cap on retained per-epoch summaries in the run report.
pub const SERIES_CAP: usize = 512;
/// How many hot boxes each epoch frame retains / the rolling rank shows.
pub const HOT_BOX_LIMIT: usize = 8;

/// Telemetry configuration. Built from the environment by
/// [`TelemetryConfig::from_env`] or directly by tests/`RunSpec`.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Clock units per epoch.
    pub epoch_len: u64,
    /// Window size in epochs.
    pub window_epochs: usize,
    /// Exposition file path (`WTF_METRICS_FILE`); None = no file export.
    pub metrics_file: Option<PathBuf>,
    /// Incident report path (`<WTF_SNAPSHOT_DIR>/incidents.json`).
    pub incidents_file: PathBuf,
    /// Detector tuning.
    pub thresholds: Thresholds,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            epoch_len: DEFAULT_EPOCH_LEN,
            window_epochs: DEFAULT_WINDOW_EPOCHS,
            metrics_file: None,
            incidents_file: PathBuf::from("results/snapshots/incidents.json"),
            thresholds: Thresholds::default(),
        }
    }
}

impl TelemetryConfig {
    /// `Some(config)` iff telemetry is requested: `WTF_METRICS_FILE` is
    /// set.
    pub fn from_env() -> Option<TelemetryConfig> {
        let knobs = knobs::env();
        Some(TelemetryConfig {
            metrics_file: Some(knobs.metrics_file()?),
            incidents_file: knobs.snapshot_dir().join("incidents.json"),
            ..TelemetryConfig::default()
        })
    }
}

/// Rolling (windowed) statistics at one epoch close.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollingStats {
    /// Epochs actually retained in the window (≤ configured size).
    pub window_epochs: usize,
    pub commits: u64,
    pub conflicts: u64,
    /// conflicts / (commits + conflicts) over the window.
    pub abort_rate: f64,
    /// Commits per 1000 clock units over the window.
    pub throughput: f64,
    pub commit_p50: u64,
    pub commit_p95: u64,
    pub commit_p99: u64,
    pub validation_p95: u64,
    pub queue_p50: u64,
    pub queue_p95: u64,
    pub queue_p99: u64,
    /// Latest GC-horizon lag gauge reading (0 when not registered).
    pub gc_lag: u64,
    /// Latest pool queue depth gauge reading.
    pub queue_depth: u64,
    /// Hottest boxes in the window: `(box_id, conflicts)`, count
    /// descending then id ascending.
    pub hot_boxes: Vec<(u64, u64)>,
}

impl RollingStats {
    pub fn to_json(&self) -> Json {
        let hot: Vec<Json> = self
            .hot_boxes
            .iter()
            .map(|&(b, n)| Json::arr(vec![b.into(), n.into()]))
            .collect();
        Json::obj(vec![
            ("window_epochs", self.window_epochs.into()),
            ("commits", self.commits.into()),
            ("conflicts", self.conflicts.into()),
            ("abort_rate", self.abort_rate.into()),
            ("throughput", self.throughput.into()),
            ("commit_p50", self.commit_p50.into()),
            ("commit_p95", self.commit_p95.into()),
            ("commit_p99", self.commit_p99.into()),
            ("validation_p95", self.validation_p95.into()),
            ("queue_p50", self.queue_p50.into()),
            ("queue_p95", self.queue_p95.into()),
            ("queue_p99", self.queue_p99.into()),
            ("gc_lag", self.gc_lag.into()),
            ("queue_depth", self.queue_depth.into()),
            ("hot_boxes", Json::Arr(hot)),
        ])
    }
}

/// One closed epoch in the run report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSummary {
    pub epoch: u64,
    pub end_ts: u64,
    /// This epoch's deltas (not the window).
    pub commits: u64,
    pub conflicts: u64,
    pub rolling: RollingStats,
}

impl EpochSummary {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("epoch", self.epoch.into()),
            ("end_ts", self.end_ts.into()),
            ("commits", self.commits.into()),
            ("conflicts", self.conflicts.into()),
            ("rolling", self.rolling.to_json()),
        ])
    }
}

/// The telemetry block a run report embeds. `Default` = disabled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    pub enabled: bool,
    pub backend: String,
    pub workload: String,
    pub epoch_len: u64,
    pub window_epochs: usize,
    pub epochs_closed: u64,
    /// Idle epochs fast-forwarded over (window-sized gaps).
    pub epochs_skipped: u64,
    pub commits_total: u64,
    pub conflicts_total: u64,
    /// Rolling stats at the final epoch close.
    pub rolling: RollingStats,
    pub incidents: Vec<Incident>,
    pub incidents_suppressed: u64,
    /// Per-epoch history (capped at the configured series cap).
    pub series: Vec<EpochSummary>,
}

impl TelemetrySummary {
    /// Deterministic JSON; a disabled summary collapses to
    /// `{"enabled":false}` so untelemetered baselines stay small.
    pub fn to_json(&self) -> Json {
        if !self.enabled {
            return Json::obj(vec![("enabled", false.into())]);
        }
        Json::obj(vec![
            ("enabled", true.into()),
            ("backend", Json::Str(self.backend.clone())),
            ("workload", Json::Str(self.workload.clone())),
            ("epoch_len", self.epoch_len.into()),
            ("window_epochs", self.window_epochs.into()),
            ("epochs_closed", self.epochs_closed.into()),
            ("epochs_skipped", self.epochs_skipped.into()),
            ("commits_total", self.commits_total.into()),
            ("conflicts_total", self.conflicts_total.into()),
            ("rolling", self.rolling.to_json()),
            (
                "incidents",
                Json::Arr(self.incidents.iter().map(|i| i.to_json()).collect()),
            ),
            ("incidents_suppressed", self.incidents_suppressed.into()),
            (
                "series",
                Json::Arr(self.series.iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

/// Aggregation state, all behind one mutex (epoch closes are rare —
/// the per-hook fast path is a single atomic compare in
/// [`TelemetryHub::tick`]).
struct HubState {
    /// Next epoch index to close.
    epoch: u64,
    prev_commit: HistogramSnapshot,
    prev_validation: HistogramSnapshot,
    prev_queue: HistogramSnapshot,
    prev_boxes: BTreeMap<u64, u64>,
    prev_stripes: Vec<u64>,
    prev_commits_cum: u64,
    prev_watchdog: u64,
    commits: WindowedCounter,
    conflicts: WindowedCounter,
    commit_lat: WindowedHistogram,
    validation_lat: WindowedHistogram,
    queue_delay: WindowedHistogram,
    /// Per-epoch box conflict deltas (rank-capped per frame).
    box_frames: VecDeque<(u64, Vec<(u64, u64)>)>,
    /// Per-epoch stripe conflict deltas.
    stripe_frames: VecDeque<Vec<u64>>,
    detector: IncidentDetector,
    epochs_closed: u64,
    epochs_skipped: u64,
    commits_total: u64,
    conflicts_total: u64,
    last_rolling: RollingStats,
    series: Vec<EpochSummary>,
    finished: bool,
}

/// The sliding-window aggregator. Create with [`TelemetryHub::attach`];
/// drive from runtime hooks (automatic once attached); collect with
/// [`TelemetryHub::finish`].
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    tracer: Arc<Tracer>,
    backend: String,
    workload: String,
    /// Fast-path gate: the next epoch boundary. Ticks below it return
    /// after one relaxed load + compare.
    // ordering: relaxed-store / relaxed-load — the state mutex orders
    // the real epoch bookkeeping; this is only the cheap gate in front
    // of it. relaxed-guard: a stale boundary read delays the epoch close
    // to the next tick, which re-checks under the lock.
    next_epoch_end: AtomicU64,
    state: Mutex<HubState>,
}

impl TelemetryHub {
    /// Builds a hub over `tracer` and installs its tick hook. The hub
    /// only aggregates while the tracer records (`WTF_TRACE>=1`): a
    /// disabled tracer never fires hooks. Returns the hub either way so
    /// `finish` still produces a (mostly empty) summary.
    pub fn attach(
        tracer: Arc<Tracer>,
        cfg: TelemetryConfig,
        backend: &str,
        workload: &str,
    ) -> Arc<TelemetryHub> {
        let window = cfg.window_epochs;
        let hub = Arc::new(TelemetryHub {
            next_epoch_end: AtomicU64::new(cfg.epoch_len),
            state: Mutex::new(HubState {
                epoch: 0,
                prev_commit: HistogramSnapshot::default(),
                prev_validation: HistogramSnapshot::default(),
                prev_queue: HistogramSnapshot::default(),
                prev_boxes: BTreeMap::new(),
                prev_stripes: Vec::new(),
                prev_commits_cum: 0,
                prev_watchdog: 0,
                commits: WindowedCounter::new(window),
                conflicts: WindowedCounter::new(window),
                commit_lat: WindowedHistogram::new(window),
                validation_lat: WindowedHistogram::new(window),
                queue_delay: WindowedHistogram::new(window),
                box_frames: VecDeque::new(),
                stripe_frames: VecDeque::new(),
                detector: IncidentDetector::new(cfg.thresholds.clone(), INCIDENT_BUDGET),
                epochs_closed: 0,
                epochs_skipped: 0,
                commits_total: 0,
                conflicts_total: 0,
                last_rolling: RollingStats::default(),
                series: Vec::new(),
                finished: false,
            }),
            cfg,
            tracer: Arc::clone(&tracer),
            backend: backend.to_string(),
            workload: workload.to_string(),
        });
        let weak: Weak<TelemetryHub> = Arc::downgrade(&hub);
        if !tracer.set_tick_hook(move |ts| {
            if let Some(hub) = weak.upgrade() {
                hub.tick(ts);
            }
        }) {
            eprintln!("wtf-telemetry: tracer already has a tick hook; hub will not aggregate");
        }
        hub
    }

    pub fn backend(&self) -> &str {
        &self.backend
    }

    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The hook-driven heartbeat: closes every epoch whose boundary `ts`
    /// has passed. Cheap when no boundary passed (one atomic compare).
    pub fn tick(&self, ts: u64) {
        if ts < self.next_epoch_end.load(Ordering::Relaxed) {
            return;
        }
        let mut s = self.state.lock();
        if s.finished {
            return;
        }
        self.advance_to(&mut s, ts);
    }

    /// Closes epochs so that `state.epoch` catches up with `ts`.
    fn advance_to(&self, s: &mut HubState, ts: u64) {
        let target = ts / self.cfg.epoch_len;
        // Fast-forward over window-sized idle gaps: the skipped epochs
        // would all be empty frames, and the window only remembers the
        // last `window_epochs` anyway.
        let gap = target.saturating_sub(s.epoch);
        if gap > self.cfg.window_epochs as u64 {
            let skip = gap - self.cfg.window_epochs as u64;
            s.epochs_skipped += skip;
            s.epoch += skip;
        }
        while s.epoch < target {
            let end_ts = (s.epoch + 1) * self.cfg.epoch_len;
            self.close_epoch(s, end_ts);
        }
        self.next_epoch_end
            .store((s.epoch + 1) * self.cfg.epoch_len, Ordering::Relaxed);
    }

    /// Closes the epoch `state.epoch` at `end_ts`: snapshot, delta,
    /// window push, rule evaluation, periodic export.
    fn close_epoch(&self, s: &mut HubState, end_ts: u64) {
        let epoch = s.epoch;
        s.epoch += 1;
        s.epochs_closed += 1;

        // Cumulative snapshots → per-epoch deltas.
        let commit_cum = self.tracer.metrics.commit_latency.snapshot();
        let validation_cum = self.tracer.metrics.validation_latency.snapshot();
        let queue_cum = self.tracer.metrics.queue_delay.snapshot();
        let commit_delta = commit_cum.delta_since(&s.prev_commit);
        let validation_delta = validation_cum.delta_since(&s.prev_validation);
        let queue_delta = queue_cum.delta_since(&s.prev_queue);
        let commit_count_cum = commit_cum.count;
        s.prev_commit = commit_cum;
        s.prev_validation = validation_cum;
        s.prev_queue = queue_cum;

        // Gauges: one read of everything registered, by name.
        let gauges: BTreeMap<String, u64> = self.tracer.gauges.read_all().into_iter().collect();
        let gauge = |name: &str| gauges.get(name).copied().unwrap_or(0);

        // Commits: prefer the backend's cumulative commit gauge, fall
        // back to the commit-latency histogram count.
        let commits_cum = if gauges.contains_key("stm_commits") {
            gauge("stm_commits")
        } else {
            commit_count_cum
        };
        let commits_epoch = commits_cum.saturating_sub(s.prev_commits_cum);
        s.prev_commits_cum = commits_cum;
        s.commits_total = commits_cum;

        // Conflicts: per-box deltas out of the attribution map.
        let boxes_cum: BTreeMap<u64, u64> = self
            .tracer
            .conflicts
            .hotspots(usize::MAX)
            .into_iter()
            .collect();
        let mut box_delta: Vec<(u64, u64)> = boxes_cum
            .iter()
            .filter_map(|(&b, &n)| {
                let d = n.saturating_sub(s.prev_boxes.get(&b).copied().unwrap_or(0));
                (d > 0).then_some((b, d))
            })
            .collect();
        box_delta.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        box_delta.truncate(64);
        let conflicts_epoch: u64 = box_delta.iter().map(|&(_, d)| d).sum();
        s.prev_boxes = boxes_cum;
        s.conflicts_total += conflicts_epoch;

        let stripes_cum = self.tracer.conflicts.stripe_counts();
        let stripe_delta: Vec<u64> = stripes_cum
            .iter()
            .enumerate()
            .map(|(i, &n)| n.saturating_sub(s.prev_stripes.get(i).copied().unwrap_or(0)))
            .collect();
        s.prev_stripes = stripes_cum;

        let watchdog_cum = gauge("watchdog_stalls");
        let watchdog_epoch = watchdog_cum.saturating_sub(s.prev_watchdog);
        s.prev_watchdog = watchdog_cum;

        // Push the window frames.
        s.commits.push(epoch, commits_epoch);
        s.conflicts.push(epoch, conflicts_epoch);
        s.commit_lat.push(epoch, commit_delta);
        s.validation_lat.push(epoch, validation_delta);
        s.queue_delay.push(epoch, queue_delta);
        s.box_frames.push_back((epoch, box_delta));
        s.stripe_frames.push_back(stripe_delta);
        while s.box_frames.len() > self.cfg.window_epochs {
            s.box_frames.pop_front();
        }
        while s.stripe_frames.len() > self.cfg.window_epochs {
            s.stripe_frames.pop_front();
        }

        // Rolling statistics over the window.
        let w_commits = s.commits.window_sum();
        let w_conflicts = s.conflicts.window_sum();
        let attempts = w_commits + w_conflicts;
        let abort_rate = if attempts == 0 {
            0.0
        } else {
            w_conflicts as f64 / attempts as f64
        };
        let retained = s.commits.len();
        let span = (retained as u64).max(1) * self.cfg.epoch_len;
        let throughput = w_commits as f64 * 1000.0 / span as f64;
        let commit_roll = s.commit_lat.rolling();
        let validation_roll = s.validation_lat.rolling();
        let queue_roll = s.queue_delay.rolling();
        let mut window_boxes: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, frame) in &s.box_frames {
            for &(b, n) in frame {
                *window_boxes.entry(b).or_insert(0) += n;
            }
        }
        let mut hot_boxes: Vec<(u64, u64)> = window_boxes.into_iter().collect();
        hot_boxes.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        hot_boxes.truncate(HOT_BOX_LIMIT);
        let mut window_stripes = vec![0u64; s.stripe_frames.front().map_or(0, |f| f.len())];
        for frame in &s.stripe_frames {
            for (i, &n) in frame.iter().enumerate() {
                if i < window_stripes.len() {
                    window_stripes[i] += n;
                }
            }
        }
        let hot_stripes: Vec<usize> = window_stripes
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, _)| i)
            .collect();

        let rolling = RollingStats {
            window_epochs: retained,
            commits: w_commits,
            conflicts: w_conflicts,
            abort_rate,
            throughput,
            commit_p50: commit_roll.percentile(50.0),
            commit_p95: commit_roll.percentile(95.0),
            commit_p99: commit_roll.percentile(99.0),
            validation_p95: validation_roll.percentile(95.0),
            queue_p50: queue_roll.percentile(50.0),
            queue_p95: queue_roll.percentile(95.0),
            queue_p99: queue_roll.percentile(99.0),
            gc_lag: gauge("stm_gc_horizon_lag"),
            queue_depth: gauge("pool_queue_depth"),
            hot_boxes: hot_boxes.clone(),
        };

        // Incident rules.
        let obs = EpochObservation {
            epoch,
            end_ts,
            window_commits: w_commits,
            window_conflicts: w_conflicts,
            abort_rate,
            gc_lag: rolling.gc_lag,
            queue_p95: rolling.queue_p95,
            watchdog_stalls: watchdog_epoch,
            hot_boxes,
            hot_stripes,
        };
        let transitions = s.detector.observe(&obs);

        // Event-stream breadcrumbs (deterministic under the vclock).
        self.tracer
            .record_at(end_ts, EventKind::TelemetryEpoch, epoch, retained as u64);
        for t in transitions {
            match t {
                IncidentTransition::Opened(kind) => {
                    self.tracer
                        .record_at(end_ts, EventKind::IncidentOnset, kind.code(), epoch)
                }
                IncidentTransition::Recovered(kind) => {
                    self.tracer
                        .record_at(end_ts, EventKind::IncidentEnd, kind.code(), epoch)
                }
            }
        }

        if s.series.len() < SERIES_CAP {
            s.series.push(EpochSummary {
                epoch,
                end_ts,
                commits: commits_epoch,
                conflicts: conflicts_epoch,
                rolling: rolling.clone(),
            });
        }
        s.last_rolling = rolling;

        if s.epochs_closed.is_multiple_of(EXPORT_EVERY) {
            self.export(s);
        }
    }

    /// Renders the current windows as a Prometheus exposition document.
    fn render_prom(&self, s: &HubState) -> PromDoc {
        let base = vec![
            ("backend".to_string(), self.backend.clone()),
            ("workload".to_string(), self.workload.clone()),
        ];
        let labeled = |extra: Vec<(String, String)>| {
            let mut l = base.clone();
            l.extend(extra);
            l
        };
        let mut doc = PromDoc::default();
        let mut push = |name: &str, help: &str, kind: &str, samples: Vec<PromSample>| {
            let mut f = PromFamily::new(name, help, kind);
            f.samples = samples;
            doc.families.push(f);
        };

        push(
            "wtf_commits_total",
            "Committed transactions (cumulative).",
            "counter",
            vec![PromSample::new(
                "",
                base.clone(),
                PromValue::U64(s.commits_total),
            )],
        );
        push(
            "wtf_conflicts_total",
            "Conflict aborts charged to boxes (cumulative).",
            "counter",
            vec![PromSample::new(
                "",
                base.clone(),
                PromValue::U64(s.conflicts_total),
            )],
        );
        push(
            "wtf_epoch",
            "Telemetry epochs closed.",
            "gauge",
            vec![PromSample::new(
                "",
                base.clone(),
                PromValue::U64(s.epochs_closed),
            )],
        );
        let r = &s.last_rolling;
        push(
            "wtf_rolling_throughput",
            "Windowed commits per 1000 clock units.",
            "gauge",
            vec![PromSample::new(
                "",
                base.clone(),
                PromValue::F64(r.throughput),
            )],
        );
        push(
            "wtf_rolling_abort_rate",
            "Windowed conflicts / attempts.",
            "gauge",
            vec![PromSample::new(
                "",
                base.clone(),
                PromValue::F64(r.abort_rate),
            )],
        );
        let quantiles = [
            ("commit", "0.5", r.commit_p50),
            ("commit", "0.95", r.commit_p95),
            ("commit", "0.99", r.commit_p99),
            ("validation", "0.95", r.validation_p95),
            ("queue", "0.5", r.queue_p50),
            ("queue", "0.95", r.queue_p95),
            ("queue", "0.99", r.queue_p99),
        ];
        push(
            "wtf_rolling_latency",
            "Windowed latency quantiles by pipeline stage (clock units).",
            "gauge",
            quantiles
                .iter()
                .map(|&(stage, q, v)| {
                    PromSample::new(
                        "",
                        labeled(vec![
                            ("stage".to_string(), stage.to_string()),
                            ("quantile".to_string(), q.to_string()),
                        ]),
                        PromValue::U64(v),
                    )
                })
                .collect(),
        );
        for (name, help, roll) in [
            (
                "wtf_commit_latency",
                "Windowed commit latency (clock units).",
                s.commit_lat.rolling(),
            ),
            (
                "wtf_validation_latency",
                "Windowed validation latency (clock units).",
                s.validation_lat.rolling(),
            ),
            (
                "wtf_queue_delay",
                "Windowed future queue-to-start delay (clock units).",
                s.queue_delay.rolling(),
            ),
        ] {
            let mut samples = Vec::new();
            let mut cum = 0u64;
            for (i, &n) in roll.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                samples.push(PromSample::new(
                    "_bucket",
                    labeled(vec![("le".to_string(), bucket_upper(i).to_string())]),
                    PromValue::U64(cum),
                ));
            }
            samples.push(PromSample::new(
                "_bucket",
                labeled(vec![("le".to_string(), "+Inf".to_string())]),
                PromValue::U64(roll.count),
            ));
            samples.push(PromSample::new(
                "_sum",
                base.clone(),
                PromValue::U64(roll.sum),
            ));
            samples.push(PromSample::new(
                "_count",
                base.clone(),
                PromValue::U64(roll.count),
            ));
            push(name, help, "histogram", samples);
        }
        push(
            "wtf_hot_box_conflicts",
            "Windowed conflict count of the hottest boxes.",
            "gauge",
            r.hot_boxes
                .iter()
                .map(|&(b, n)| {
                    PromSample::new(
                        "",
                        labeled(vec![("box".to_string(), b.to_string())]),
                        PromValue::U64(n),
                    )
                })
                .collect(),
        );
        push(
            "wtf_runtime_gauge",
            "Latest reading of every registered runtime gauge.",
            "gauge",
            self.tracer
                .gauges
                .read_all()
                .into_iter()
                .map(|(name, v)| {
                    PromSample::new(
                        "",
                        labeled(vec![("name".to_string(), name)]),
                        PromValue::U64(v),
                    )
                })
                .collect(),
        );
        push(
            "wtf_incidents_total",
            "Incidents opened, by kind (cumulative).",
            "counter",
            incident::ALL_INCIDENT_KINDS
                .iter()
                .map(|&k| {
                    let n = s
                        .detector
                        .incidents()
                        .iter()
                        .filter(|i| i.kind == k)
                        .count();
                    PromSample::new(
                        "",
                        labeled(vec![("kind".to_string(), k.name().to_string())]),
                        PromValue::U64(n as u64),
                    )
                })
                .collect(),
        );
        doc.canonicalize();
        doc
    }

    /// Writes the exposition file (merge-on-export: series from other
    /// backend/workload label sets already in the file are preserved).
    fn export(&self, s: &HubState) {
        let Some(path) = &self.cfg.metrics_file else {
            return;
        };
        let mut merged = self.render_prom(s);
        if let Ok(old_text) = std::fs::read_to_string(path) {
            if let Ok(old) = PromDoc::parse(&old_text) {
                for old_fam in old.families {
                    let keep: Vec<PromSample> = old_fam
                        .samples
                        .into_iter()
                        .filter(|smp| {
                            smp.label("backend") != Some(&self.backend)
                                || smp.label("workload") != Some(&self.workload)
                        })
                        .collect();
                    if keep.is_empty() {
                        continue;
                    }
                    match merged.families.iter_mut().find(|f| f.name == old_fam.name) {
                        Some(f) => f.samples.extend(keep),
                        None => merged.families.push(PromFamily {
                            name: old_fam.name,
                            help: old_fam.help,
                            kind: old_fam.kind,
                            samples: keep,
                        }),
                    }
                }
            }
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, merged.render()) {
            eprintln!("wtf-telemetry: cannot write {}: {e}", path.display());
        }
    }

    /// Summary of the current state (used by `finish`; also callable
    /// mid-run for debugging).
    fn summarize(&self, s: &HubState) -> TelemetrySummary {
        TelemetrySummary {
            enabled: true,
            backend: self.backend.clone(),
            workload: self.workload.clone(),
            epoch_len: self.cfg.epoch_len,
            window_epochs: self.cfg.window_epochs,
            epochs_closed: s.epochs_closed,
            epochs_skipped: s.epochs_skipped,
            commits_total: s.commits_total,
            conflicts_total: s.conflicts_total,
            rolling: s.last_rolling.clone(),
            incidents: s.detector.incidents().to_vec(),
            incidents_suppressed: s.detector.suppressed(),
            series: s.series.clone(),
        }
    }

    /// Ends aggregation at `ts`: closes any whole epochs the clock
    /// passed plus the final partial one, writes `incidents.json` (when
    /// there is anything to report) and the final exposition file, and
    /// returns the run's telemetry block. Idempotent; later calls return
    /// the frozen state.
    pub fn finish(&self, ts: u64) -> TelemetrySummary {
        let mut s = self.state.lock();
        if s.finished {
            return self.summarize(&s);
        }
        self.advance_to(&mut s, ts);
        // Close the trailing partial epoch so short runs (< one epoch)
        // still produce telemetry.
        if ts > s.epoch * self.cfg.epoch_len || s.epochs_closed == 0 {
            let end = ts.max(s.epoch * self.cfg.epoch_len + 1);
            self.close_epoch(&mut s, end);
        }
        s.finished = true;
        // Freeze the gate so stray late ticks cannot reopen epochs.
        self.next_epoch_end.store(u64::MAX, Ordering::Relaxed);

        if !s.detector.incidents().is_empty() || s.detector.suppressed() > 0 {
            let report = s.detector.report(
                &self.backend,
                &self.workload,
                self.cfg.epoch_len,
                self.cfg.window_epochs,
            );
            let path = &self.cfg.incidents_file;
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(e) = std::fs::write(path, format!("{report}\n")) {
                eprintln!("wtf-telemetry: cannot write {}: {e}", path.display());
            }
        }
        self.export(&s);
        self.summarize(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtf_trace::TraceLevel;

    fn test_cfg(epoch_len: u64) -> TelemetryConfig {
        TelemetryConfig {
            epoch_len,
            window_epochs: 4,
            metrics_file: None,
            // Point at a scratch path nothing writes to (no incidents in
            // these tests unless asserted).
            incidents_file: std::env::temp_dir().join("wtf-telemetry-test-incidents.json"),
            ..Default::default()
        }
    }

    #[test]
    fn epochs_close_on_ticks_and_windows_roll() {
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let hub = TelemetryHub::attach(Arc::clone(&tracer), test_cfg(100), "mvstm", "unit");
        assert!(tracer.tick_hook_installed());
        // Epoch 0: 2 commits, one conflict.
        tracer.metrics.commit_latency.record(10);
        tracer.metrics.commit_latency.record(20);
        tracer.charge_conflict(7);
        hub.tick(150); // closes epoch 0 at ts=100
                       // Epoch 1: 1 commit.
        tracer.metrics.commit_latency.record(30);
        hub.tick(250);
        let summary = hub.finish(260);
        assert!(summary.enabled);
        assert_eq!(summary.backend, "mvstm");
        assert_eq!(summary.epochs_closed, 3, "two whole + one partial");
        assert_eq!(summary.commits_total, 3);
        assert_eq!(summary.conflicts_total, 1);
        assert_eq!(summary.rolling.commits, 3, "window holds all epochs");
        assert_eq!(summary.rolling.hot_boxes, vec![(7, 1)]);
        assert_eq!(summary.series.len(), 3);
        assert_eq!(summary.series[0].commits, 2);
        assert_eq!(summary.series[0].end_ts, 100);
        assert_eq!(summary.series[1].commits, 1);
        // Epoch events landed in the trace.
        let lanes = tracer.lanes();
        let epochs: Vec<_> = lanes
            .iter()
            .flat_map(|(_, evs)| evs.iter())
            .filter(|e| e.kind == EventKind::TelemetryEpoch)
            .collect();
        assert_eq!(epochs.len(), 3);
        assert_eq!(epochs[0].ts, 100);
    }

    #[test]
    fn idle_gaps_fast_forward() {
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let hub = TelemetryHub::attach(Arc::clone(&tracer), test_cfg(10), "tl2", "unit");
        tracer.metrics.commit_latency.record(1);
        hub.tick(1_000_000); // 100k epochs elapsed; window is 4
        let summary = hub.finish(1_000_000);
        assert!(summary.epochs_skipped > 0, "gap was fast-forwarded");
        assert_eq!(
            summary.epochs_closed as usize, 4,
            "only the window's worth of epochs actually closed"
        );
        assert_eq!(summary.commits_total, 1);
    }

    #[test]
    fn finish_is_idempotent_and_freezes_ticks() {
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let hub = TelemetryHub::attach(Arc::clone(&tracer), test_cfg(100), "mvstm", "unit");
        tracer.metrics.commit_latency.record(5);
        let a = hub.finish(150);
        hub.tick(10_000); // late tick after finish: ignored
        let b = hub.finish(10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn disabled_summary_json_is_tiny() {
        let s = TelemetrySummary::default();
        assert_eq!(s.to_json().to_string(), r#"{"enabled":false}"#);
    }

    #[test]
    fn summary_json_round_trips() {
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let hub = TelemetryHub::attach(Arc::clone(&tracer), test_cfg(100), "mvstm", "unit");
        tracer.metrics.commit_latency.record(10);
        tracer.metrics.queue_delay.record(99);
        tracer.charge_conflict(3);
        let summary = hub.finish(120);
        let j = summary.to_json();
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(j.get("enabled"), Some(&Json::Bool(true)));
    }

    #[test]
    fn prom_export_merges_backends_in_one_file() {
        let dir = std::env::temp_dir().join(format!("wtf-telemetry-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.prom");
        for backend in ["mvstm", "tl2"] {
            let tracer = Tracer::new(TraceLevel::Lifecycle);
            let mut cfg = test_cfg(100);
            cfg.metrics_file = Some(path.clone());
            let hub = TelemetryHub::attach(Arc::clone(&tracer), cfg, backend, "unit");
            tracer.metrics.commit_latency.record(10);
            hub.finish(150);
        }
        let text = std::fs::read_to_string(&path).expect("exposition file written");
        let doc = PromDoc::parse(&text).expect("parses");
        assert_eq!(doc.label_values("backend"), vec!["mvstm", "tl2"]);
        assert_eq!(doc.render(), text, "file is canonical → round-trips");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_window_exposition_round_trips() {
        // A run that records nothing and finishes at ts=0: zero epochs
        // closed by ticks, so the exposition document is rendered from a
        // completely empty window (no commits, empty histograms, no hot
        // boxes, no gauges). The file must still parse and re-render byte
        // for byte — zero-sample families and all.
        let dir = std::env::temp_dir().join(format!("wtf-telemetry-empty-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("metrics.prom");
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let mut cfg = test_cfg(100);
        cfg.metrics_file = Some(path.clone());
        let hub = TelemetryHub::attach(Arc::clone(&tracer), cfg, "mvstm", "empty");
        let summary = hub.finish(0);
        assert_eq!(summary.epochs_closed, 1, "only the forced partial epoch");
        assert_eq!(summary.commits_total, 0);
        let text = std::fs::read_to_string(&path).expect("exposition file written");
        let doc = PromDoc::parse(&text).expect("empty-window exposition parses");
        assert_eq!(doc.render(), text, "file is canonical → round-trips");
        // Families that aggregate per-entity series are present but
        // empty, rather than dropped (scrapers rely on stable families).
        let hot = doc.family("wtf_hot_box_conflicts").expect("family kept");
        assert!(hot.samples.is_empty());
        for name in ["wtf_commit_latency", "wtf_queue_delay"] {
            let fam = doc.family(name).expect("histogram family kept");
            assert!(
                fam.samples
                    .iter()
                    .any(|s| s.suffix == "_count" && s.value == PromValue::U64(0)),
                "{name} exposes an explicit zero count"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn abort_storm_emits_incident_events_and_report() {
        let dir =
            std::env::temp_dir().join(format!("wtf-telemetry-incident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let mut cfg = test_cfg(100);
        cfg.incidents_file = dir.join("incidents.json");
        cfg.thresholds.min_window_attempts = 4;
        let hub = TelemetryHub::attach(Arc::clone(&tracer), cfg, "mvstm", "unit");
        // Storm epoch: all conflicts, no commits.
        for _ in 0..8 {
            tracer.charge_conflict(42);
        }
        hub.tick(150);
        // Calm epochs push the storm out of the 4-epoch window.
        for _ in 0..40 {
            tracer.metrics.commit_latency.record(5);
        }
        let summary = hub.finish(650);
        assert_eq!(summary.incidents.len(), 1);
        let inc = &summary.incidents[0];
        assert_eq!(inc.kind, IncidentKind::AbortStorm);
        assert_eq!(inc.onset_ts, 100);
        assert!(inc.recovery_ts.is_some(), "storm recovered");
        assert_eq!(inc.boxes, vec![42]);
        let report = std::fs::read_to_string(dir.join("incidents.json")).unwrap();
        let j = Json::parse(report.trim()).unwrap();
        assert_eq!(j.get("incidents").unwrap().as_arr().unwrap().len(), 1);
        let onset_events: Vec<_> = tracer
            .lanes()
            .iter()
            .flat_map(|(_, evs)| evs.clone())
            .filter(|e| e.kind == EventKind::IncidentOnset)
            .collect();
        assert_eq!(onset_events.len(), 1);
        assert_eq!(onset_events[0].a, IncidentKind::AbortStorm.code());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
