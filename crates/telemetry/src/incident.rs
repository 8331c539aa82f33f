//! The incident detector: threshold/EWMA rules over the sliding windows.
//!
//! Each closed epoch feeds one [`EpochObservation`] to the detector; a
//! rule that stays triggered for `trigger_epochs` consecutive epochs
//! opens an [`Incident`], and `recover_epochs` consecutive calm epochs
//! closes it. Onset/peak/recovery timestamps are epoch-end timestamps,
//! so under the virtual clock the whole report is deterministic.
//!
//! Incident *opens* consume the same budget discipline as the PR-3 doom
//! snapshot dumps (a budget of 8): a pathological run emits a bounded
//! report plus a `suppressed` count, never an unbounded file.

use wtf_trace::Json;

/// What kind of incident. The `code` doubles as the event payload on
/// `IncidentOnset`/`IncidentEnd` trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentKind {
    /// Rolling abort rate above threshold (with enough attempts).
    AbortStorm,
    /// GC horizon lagging the global clock beyond threshold.
    GcLag,
    /// Rolling queue-delay p95 blew past its EWMA baseline.
    QueueDelay,
    /// The stall watchdog fired during the epoch.
    WatchdogStall,
}

pub const ALL_INCIDENT_KINDS: [IncidentKind; 4] = [
    IncidentKind::AbortStorm,
    IncidentKind::GcLag,
    IncidentKind::QueueDelay,
    IncidentKind::WatchdogStall,
];

impl IncidentKind {
    pub fn name(self) -> &'static str {
        match self {
            IncidentKind::AbortStorm => "abort_storm",
            IncidentKind::GcLag => "gc_lag",
            IncidentKind::QueueDelay => "queue_delay",
            IncidentKind::WatchdogStall => "watchdog_stall",
        }
    }

    /// Stable numeric code for trace-event payloads.
    pub fn code(self) -> u64 {
        match self {
            IncidentKind::AbortStorm => 0,
            IncidentKind::GcLag => 1,
            IncidentKind::QueueDelay => 2,
            IncidentKind::WatchdogStall => 3,
        }
    }

    fn index(self) -> usize {
        self.code() as usize
    }
}

/// Detector tuning. Defaults are deliberately conservative; tests and
/// `RunSpec` override them directly.
#[derive(Debug, Clone)]
pub struct Thresholds {
    /// Rolling abort rate (conflicts / attempts) that opens an abort
    /// storm.
    pub abort_rate: f64,
    /// Minimum attempts in the window before the abort rate is trusted.
    pub min_window_attempts: u64,
    /// GC horizon lag (clock versions) that opens a GC-lag incident.
    pub gc_lag: u64,
    /// Queue-delay p95 must exceed `queue_p95_factor x EWMA` ...
    pub queue_p95_factor: f64,
    /// ... and this absolute floor, before a queue-delay incident opens.
    pub queue_p95_min: u64,
    /// Consecutive triggered epochs before an incident opens.
    pub trigger_epochs: u32,
    /// Consecutive calm epochs before an open incident recovers.
    pub recover_epochs: u32,
}

impl Default for Thresholds {
    fn default() -> Thresholds {
        Thresholds {
            abort_rate: 0.5,
            min_window_attempts: 16,
            gc_lag: 1024,
            queue_p95_factor: 4.0,
            queue_p95_min: 1000,
            trigger_epochs: 1,
            recover_epochs: 1,
        }
    }
}

/// One closed epoch's signal values, as the hub computed them.
#[derive(Debug, Clone, Default)]
pub struct EpochObservation {
    pub epoch: u64,
    /// Epoch-end timestamp (clock units).
    pub end_ts: u64,
    /// Rolling (windowed) commits + conflicts.
    pub window_commits: u64,
    pub window_conflicts: u64,
    /// Rolling abort rate over the window.
    pub abort_rate: f64,
    /// Latest GC-horizon lag gauge reading (0 when absent).
    pub gc_lag: u64,
    /// Rolling queue-delay p95.
    pub queue_p95: u64,
    /// Watchdog stalls recorded *during this epoch* (delta, not total).
    pub watchdog_stalls: u64,
    /// Hottest boxes in the window, `(box_id, conflicts)` rank order.
    pub hot_boxes: Vec<(u64, u64)>,
    /// Stripes with window conflicts, ascending index.
    pub hot_stripes: Vec<usize>,
}

/// One detected incident, open or recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    pub kind: IncidentKind,
    /// Rules that fired *while this incident was already open* and were
    /// folded into it instead of opening a second incident (deduplicated,
    /// kind-code order). A watchdog stall during an abort storm is one
    /// overlapping incident, not two.
    pub merged: Vec<IncidentKind>,
    pub onset_ts: u64,
    pub onset_epoch: u64,
    pub peak_ts: u64,
    pub peak_epoch: u64,
    /// The rule's severity metric at its peak (abort rate, lag, p95,
    /// stall count — per kind).
    pub peak_value: f64,
    /// `None` while still open (or open at run end).
    pub recovery_ts: Option<u64>,
    pub recovery_epoch: Option<u64>,
    /// Boxes implicated at onset (hotspot rank order).
    pub boxes: Vec<u64>,
    /// Stripes implicated at onset (ascending).
    pub stripes: Vec<usize>,
}

impl Incident {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::Str(self.kind.name().to_string())),
            (
                "merged",
                Json::Arr(
                    self.merged
                        .iter()
                        .map(|k| Json::Str(k.name().to_string()))
                        .collect(),
                ),
            ),
            ("onset", self.onset_ts.into()),
            ("onset_epoch", self.onset_epoch.into()),
            ("peak", self.peak_ts.into()),
            ("peak_epoch", self.peak_epoch.into()),
            ("peak_value", self.peak_value.into()),
            (
                "recovery",
                self.recovery_ts.map(Json::U64).unwrap_or(Json::Null),
            ),
            (
                "recovery_epoch",
                self.recovery_epoch.map(Json::U64).unwrap_or(Json::Null),
            ),
            (
                "boxes",
                Json::Arr(self.boxes.iter().map(|&b| b.into()).collect()),
            ),
            (
                "stripes",
                Json::Arr(self.stripes.iter().map(|&s| s.into()).collect()),
            ),
        ])
    }
}

/// Edge reported by [`Hysteresis::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HysteresisEdge {
    /// `trigger` consecutive hot observations while closed.
    Opened,
    /// `recover` consecutive calm observations while open.
    Recovered,
}

/// A reusable trigger/recover streak counter: `trigger` consecutive hot
/// observations open it, `recover` consecutive calm observations close
/// it. This is the state machine behind every incident-detector rule.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hysteresis {
    trigger: u32,
    recover: u32,
    hot_streak: u32,
    calm_streak: u32,
    open: bool,
}

impl Hysteresis {
    pub(crate) fn new(trigger: u32, recover: u32) -> Hysteresis {
        Hysteresis {
            trigger: trigger.max(1),
            recover: recover.max(1),
            hot_streak: 0,
            calm_streak: 0,
            open: false,
        }
    }

    /// Consecutive hot observations so far (meaningful while closed).
    pub(crate) fn hot_streak(&self) -> u32 {
        self.hot_streak
    }

    /// Feeds one observation; returns the edge it caused, if any.
    pub(crate) fn observe(&mut self, hot: bool) -> Option<HysteresisEdge> {
        if self.open {
            if hot {
                self.calm_streak = 0;
            } else {
                self.calm_streak += 1;
                if self.calm_streak >= self.recover {
                    self.open = false;
                    self.calm_streak = 0;
                    self.hot_streak = 0;
                    return Some(HysteresisEdge::Recovered);
                }
            }
        } else if hot {
            self.hot_streak += 1;
            if self.hot_streak >= self.trigger {
                self.open = true;
                self.hot_streak = 0;
                self.calm_streak = 0;
                return Some(HysteresisEdge::Opened);
            }
        } else {
            self.hot_streak = 0;
        }
        None
    }

    /// Forces the closed state without a `Recovered` edge (used when an
    /// open was vetoed, e.g. by the incident budget or a merge).
    pub fn force_closed(&mut self) {
        self.open = false;
        self.hot_streak = 0;
        self.calm_streak = 0;
    }
}

/// Per-rule detector state: the streak counter plus incident bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RuleState {
    hys: Hysteresis,
    /// First epoch/ts of the current hot streak.
    streak_start: (u64, u64),
    /// Index into `incidents` of the open incident, if any.
    open: Option<usize>,
}

/// The detector: rule states, EWMA baseline, incident log, dump budget.
pub struct IncidentDetector {
    thresholds: Thresholds,
    rules: [RuleState; 4],
    /// EWMA of the queue-delay p95, updated only on calm epochs so an
    /// in-progress incident cannot drag its own baseline up.
    queue_ewma: Option<f64>,
    incidents: Vec<Incident>,
    budget: u64,
    suppressed: u64,
}

/// What `observe` reports back so the hub can emit trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncidentTransition {
    Opened(IncidentKind),
    Recovered(IncidentKind),
}

impl IncidentDetector {
    /// `budget`: maximum incident *opens* recorded (the PR-3 dump
    /// budget); further opens are counted as suppressed.
    pub fn new(thresholds: Thresholds, budget: u64) -> IncidentDetector {
        let rule = RuleState {
            hys: Hysteresis::new(thresholds.trigger_epochs, thresholds.recover_epochs),
            streak_start: (0, 0),
            open: None,
        };
        IncidentDetector {
            thresholds,
            rules: [rule; 4],
            queue_ewma: None,
            incidents: Vec::new(),
            budget,
            suppressed: 0,
        }
    }

    /// Severity of each rule for this observation, `None` = calm.
    fn severities(&self, obs: &EpochObservation) -> [Option<f64>; 4] {
        let t = &self.thresholds;
        let attempts = obs.window_commits + obs.window_conflicts;
        let storm = (attempts >= t.min_window_attempts && obs.abort_rate >= t.abort_rate)
            .then_some(obs.abort_rate);
        let gc = (t.gc_lag > 0 && obs.gc_lag >= t.gc_lag).then_some(obs.gc_lag as f64);
        let queue = match self.queue_ewma {
            Some(base) => (obs.queue_p95 >= t.queue_p95_min
                && obs.queue_p95 as f64 >= base * t.queue_p95_factor)
                .then_some(obs.queue_p95 as f64),
            // No baseline yet: only the absolute floor applies, scaled by
            // the factor so a cold start is not instantly an incident.
            None => (obs.queue_p95 as f64 >= t.queue_p95_min as f64 * t.queue_p95_factor)
                .then_some(obs.queue_p95 as f64),
        };
        let stall = (obs.watchdog_stalls > 0).then_some(obs.watchdog_stalls as f64);
        [storm, gc, queue, stall]
    }

    /// Feeds one closed epoch; returns the open/recover transitions it
    /// caused (deterministic order: kind code ascending).
    pub fn observe(&mut self, obs: &EpochObservation) -> Vec<IncidentTransition> {
        let severities = self.severities(obs);
        // Incident already open *before* this epoch's signals are applied.
        // A rule triggering while one is live merges into it rather than
        // opening a second, overlapping incident; rules triggering in the
        // same epoch with nothing live still open independently.
        let merge_into = self.rules.iter().find_map(|r| r.open);
        let mut transitions = Vec::new();
        for kind in ALL_INCIDENT_KINDS {
            let i = kind.index();
            let severity = severities[i];
            let rule = &mut self.rules[i];
            match rule.open {
                None => {
                    if severity.is_some() && rule.hys.hot_streak() == 0 {
                        rule.streak_start = (obs.epoch, obs.end_ts);
                    }
                    if rule.hys.observe(severity.is_some()) == Some(HysteresisEdge::Opened) {
                        let value = severity.expect("opened on a hot epoch");
                        match merge_into {
                            Some(idx) => {
                                rule.hys.force_closed();
                                let inc = &mut self.incidents[idx];
                                if inc.kind != kind && !inc.merged.contains(&kind) {
                                    inc.merged.push(kind);
                                }
                                if value > inc.peak_value {
                                    inc.peak_value = value;
                                    inc.peak_ts = obs.end_ts;
                                    inc.peak_epoch = obs.epoch;
                                }
                            }
                            None if self.budget == 0 => {
                                rule.hys.force_closed();
                                self.suppressed += 1;
                            }
                            None => {
                                self.budget -= 1;
                                rule.open = Some(self.incidents.len());
                                self.incidents.push(Incident {
                                    kind,
                                    merged: Vec::new(),
                                    onset_ts: rule.streak_start.1,
                                    onset_epoch: rule.streak_start.0,
                                    peak_ts: obs.end_ts,
                                    peak_epoch: obs.epoch,
                                    peak_value: value,
                                    recovery_ts: None,
                                    recovery_epoch: None,
                                    boxes: obs.hot_boxes.iter().map(|&(b, _)| b).collect(),
                                    stripes: obs.hot_stripes.clone(),
                                });
                                transitions.push(IncidentTransition::Opened(kind));
                            }
                        }
                    }
                }
                Some(idx) => {
                    let inc = &mut self.incidents[idx];
                    if let Some(value) = severity {
                        if value > inc.peak_value {
                            inc.peak_value = value;
                            inc.peak_ts = obs.end_ts;
                            inc.peak_epoch = obs.epoch;
                        }
                    }
                    if rule.hys.observe(severity.is_some()) == Some(HysteresisEdge::Recovered) {
                        inc.recovery_ts = Some(obs.end_ts);
                        inc.recovery_epoch = Some(obs.epoch);
                        rule.open = None;
                        transitions.push(IncidentTransition::Recovered(kind));
                    }
                }
            }
        }
        // Update the queue EWMA only when the queue rule is calm.
        if severities[IncidentKind::QueueDelay.index()].is_none() {
            let sample = obs.queue_p95 as f64;
            self.queue_ewma = Some(match self.queue_ewma {
                Some(prev) => 0.7 * prev + 0.3 * sample,
                None => sample,
            });
        }
        transitions
    }

    /// All incidents (open ones keep `recovery: None`).
    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// The `incidents.json` document body.
    pub fn report(
        &self,
        backend: &str,
        workload: &str,
        epoch_len: u64,
        window_epochs: usize,
    ) -> Json {
        Json::obj(vec![
            ("backend", Json::Str(backend.to_string())),
            ("workload", Json::Str(workload.to_string())),
            (
                "window",
                Json::obj(vec![
                    ("epoch_len", epoch_len.into()),
                    ("epochs", window_epochs.into()),
                ]),
            ),
            (
                "incidents",
                Json::Arr(self.incidents.iter().map(|i| i.to_json()).collect()),
            ),
            ("suppressed", self.suppressed.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_obs(epoch: u64, rate: f64) -> EpochObservation {
        EpochObservation {
            epoch,
            end_ts: (epoch + 1) * 100,
            window_commits: 50,
            window_conflicts: 50,
            abort_rate: rate,
            hot_boxes: vec![(7, 40), (9, 10)],
            hot_stripes: vec![7, 9],
            ..Default::default()
        }
    }

    #[test]
    fn storm_opens_peaks_and_recovers() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        assert!(d.observe(&storm_obs(0, 0.1)).is_empty(), "calm epoch");
        assert_eq!(
            d.observe(&storm_obs(1, 0.6)),
            vec![IncidentTransition::Opened(IncidentKind::AbortStorm)]
        );
        assert!(d.observe(&storm_obs(2, 0.9)).is_empty(), "still open");
        assert_eq!(
            d.observe(&storm_obs(3, 0.1)),
            vec![IncidentTransition::Recovered(IncidentKind::AbortStorm)]
        );
        let incs = d.incidents();
        assert_eq!(incs.len(), 1);
        let inc = &incs[0];
        assert_eq!(inc.kind, IncidentKind::AbortStorm);
        assert_eq!((inc.onset_epoch, inc.onset_ts), (1, 200));
        assert_eq!((inc.peak_epoch, inc.peak_ts), (2, 300), "peak at 0.9");
        assert_eq!(inc.peak_value, 0.9);
        assert_eq!(inc.recovery_epoch, Some(3));
        assert_eq!(inc.recovery_ts, Some(400));
        assert_eq!(inc.boxes, vec![7, 9], "onset hotspots implicated");
        assert_eq!(inc.stripes, vec![7, 9]);
    }

    #[test]
    fn trigger_epochs_requires_consecutive_hot() {
        let mut d = IncidentDetector::new(
            Thresholds {
                trigger_epochs: 2,
                ..Default::default()
            },
            8,
        );
        assert!(d.observe(&storm_obs(0, 0.8)).is_empty(), "one hot epoch");
        assert!(d.observe(&storm_obs(1, 0.1)).is_empty(), "streak broken");
        assert!(d.observe(&storm_obs(2, 0.8)).is_empty());
        let t = d.observe(&storm_obs(3, 0.9));
        assert_eq!(
            t,
            vec![IncidentTransition::Opened(IncidentKind::AbortStorm)]
        );
        assert_eq!(d.incidents()[0].onset_epoch, 2, "onset at streak start");
    }

    #[test]
    fn min_attempts_gates_small_windows() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        let mut obs = storm_obs(0, 1.0);
        obs.window_commits = 2;
        obs.window_conflicts = 2;
        assert!(d.observe(&obs).is_empty(), "4 attempts < min 16");
    }

    #[test]
    fn budget_suppresses_opens() {
        let mut d = IncidentDetector::new(Thresholds::default(), 1);
        d.observe(&storm_obs(0, 0.9));
        d.observe(&storm_obs(1, 0.1)); // recover
        d.observe(&storm_obs(2, 0.9)); // second open: suppressed
        assert_eq!(d.incidents().len(), 1);
        assert_eq!(d.suppressed(), 1);
    }

    #[test]
    fn queue_ewma_baseline_does_not_self_inflate() {
        let t = Thresholds {
            queue_p95_min: 100,
            queue_p95_factor: 2.0,
            ..Default::default()
        };
        let mut d = IncidentDetector::new(t, 8);
        let obs = |epoch: u64, p95: u64| EpochObservation {
            epoch,
            end_ts: (epoch + 1) * 100,
            queue_p95: p95,
            ..Default::default()
        };
        // Establish a ~100 baseline.
        for e in 0..4 {
            assert!(d.observe(&obs(e, 100)).is_empty());
        }
        // 4x the baseline: opens, and the EWMA must not absorb it.
        assert_eq!(
            d.observe(&obs(4, 400)),
            vec![IncidentTransition::Opened(IncidentKind::QueueDelay)]
        );
        assert!(d.observe(&obs(5, 400)).is_empty(), "still open");
        // Back to baseline recovers — the 400s did not drag the EWMA up.
        assert_eq!(
            d.observe(&obs(6, 100)),
            vec![IncidentTransition::Recovered(IncidentKind::QueueDelay)]
        );
    }

    #[test]
    fn watchdog_and_gc_rules_fire_independently() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        let obs = EpochObservation {
            epoch: 0,
            end_ts: 100,
            gc_lag: 5000,
            watchdog_stalls: 2,
            ..Default::default()
        };
        let t = d.observe(&obs);
        assert_eq!(
            t,
            vec![
                IncidentTransition::Opened(IncidentKind::GcLag),
                IncidentTransition::Opened(IncidentKind::WatchdogStall),
            ]
        );
    }

    /// Regression: a watchdog stall firing *during* an open abort storm
    /// used to open a second incident. It now merges into the open one.
    #[test]
    fn watchdog_during_open_storm_merges_not_doubles() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        assert_eq!(
            d.observe(&storm_obs(0, 0.8)),
            vec![IncidentTransition::Opened(IncidentKind::AbortStorm)]
        );
        let mut obs = storm_obs(1, 0.9);
        obs.watchdog_stalls = 3;
        assert!(d.observe(&obs).is_empty(), "no second open");
        assert_eq!(d.incidents().len(), 1, "overlap merged into one incident");
        let inc = &d.incidents()[0];
        assert_eq!(inc.kind, IncidentKind::AbortStorm);
        assert_eq!(inc.merged, vec![IncidentKind::WatchdogStall]);
        assert_eq!(inc.peak_value, 3.0, "merged rule can still set the peak");
        assert_eq!(d.suppressed(), 0, "a merge is not a suppressed open");
        // Both signals calm: the one incident recovers once.
        assert_eq!(
            d.observe(&storm_obs(2, 0.1)),
            vec![IncidentTransition::Recovered(IncidentKind::AbortStorm)]
        );
        // A stall *after* recovery is its own incident again.
        let mut late = storm_obs(3, 0.1);
        late.watchdog_stalls = 1;
        assert_eq!(
            d.observe(&late),
            vec![IncidentTransition::Opened(IncidentKind::WatchdogStall)]
        );
        assert_eq!(d.incidents().len(), 2);
    }

    #[test]
    fn merged_kinds_deduplicate_across_epochs() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        d.observe(&storm_obs(0, 0.8));
        for e in 1..4 {
            let mut obs = storm_obs(e, 0.8);
            obs.watchdog_stalls = 1;
            d.observe(&obs);
        }
        assert_eq!(d.incidents().len(), 1);
        assert_eq!(
            d.incidents()[0].merged,
            vec![IncidentKind::WatchdogStall],
            "repeat overlaps record the kind once"
        );
    }

    #[test]
    fn hysteresis_debounces_and_recovers() {
        let mut h = Hysteresis::new(2, 2);
        assert_eq!(h.observe(true), None, "1 hot < trigger 2");
        assert_eq!(h.observe(false), None, "streak broken");
        assert_eq!(h.observe(true), None);
        assert_eq!(h.observe(true), Some(HysteresisEdge::Opened));
        assert!(h.open);
        assert_eq!(h.observe(false), None, "1 calm < recover 2");
        assert_eq!(h.observe(true), None, "calm streak broken");
        assert_eq!(h.observe(false), None);
        assert_eq!(h.observe(false), Some(HysteresisEdge::Recovered));
        assert!(!h.open);
    }

    #[test]
    fn report_json_round_trips() {
        let mut d = IncidentDetector::new(Thresholds::default(), 8);
        d.observe(&storm_obs(0, 0.9));
        let j = d.report("mvstm", "zipf", 100, 8);
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
        assert_eq!(j.get("backend").unwrap().as_str(), Some("mvstm"));
        let incs = j.get("incidents").unwrap().as_arr().unwrap();
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].get("recovery"), Some(&Json::Null), "still open");
    }
}
