//! # wtf-profile — causal critical-path profiler
//!
//! `wtf-trace` records what happened and how often. This crate answers
//! *why a run took as long as it did*: it rebuilds the causal
//! dependency structure of a run from its trace streams (future
//! spawn/join edges, retry lineage, taskpool queue edges, commit-pipeline
//! spans), walks the critical path through that structure under the
//! virtual clock, and attributes every unit of time to a closed category
//! set — useful committed work, wasted aborted work, publish-wait, queue
//! delay, validation, commit-lock stall, join-wait, idle.
//!
//! The critical-path segments tile `[0, makespan)` *exactly*: category
//! totals partition the makespan by construction, which is the invariant
//! CI gates on. The same attribution machinery feeds a flamegraph
//! folded-stacks export (`flamegraph.pl`/speedscope-ready) and the
//! "what if aborts were free" speedup bound.
//!
//! Like `wtf-check`, the profiler hard-fails on truncated traces
//! (`dropped > 0`): a profile over a partial history would silently
//! misattribute the missing time.

mod dag;
mod folded;
mod path;

pub use path::{Category, Segment, ALL_CATEGORIES};

use std::collections::BTreeMap;
use std::fmt;
use wtf_trace::{Json, TraceEvent, Tracer};

/// Profile construction failure (truncated or malformed input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileError(pub String);

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProfileError {}

/// A fully analyzed run: causal model + critical path.
pub struct Profile {
    model: dag::Model,
    cp: Vec<Segment>,
}

impl fmt::Debug for Profile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Profile")
            .field("makespan", &self.makespan())
            .field("segments", &self.cp.len())
            .finish()
    }
}

impl Profile {
    /// Profiles harvested lanes. `dropped > 0` is a hard failure, exactly
    /// as in `wtf-check`: attribution over a truncated history would be
    /// vacuously wrong.
    pub fn from_lanes(
        lanes: Vec<(usize, Vec<TraceEvent>)>,
        dropped: u64,
    ) -> Result<Profile, ProfileError> {
        Profile::from_lanes_with_makespan(lanes, dropped, None)
    }

    /// Like [`Profile::from_lanes`], extending the analysis horizon to a
    /// caller-supplied makespan (the tail past the last event is idle).
    pub fn from_lanes_with_makespan(
        lanes: Vec<(usize, Vec<TraceEvent>)>,
        dropped: u64,
        makespan: Option<u64>,
    ) -> Result<Profile, ProfileError> {
        if dropped > 0 {
            return Err(ProfileError(format!(
                "trace truncated: {dropped} events dropped by full lanes — attribution \
                 would be vacuous; raise the lane capacity or lower the trace level"
            )));
        }
        let model = dag::build(&lanes, makespan);
        let cp = path::critical_path(&model);
        Ok(Profile { model, cp })
    }

    /// Profiles a live tracer's harvested lanes. Call after the run has
    /// quiesced (workers joined).
    pub fn from_tracer(tracer: &Tracer) -> Result<Profile, ProfileError> {
        Profile::from_lanes(tracer.lanes(), tracer.events_dropped())
    }

    /// Like [`Profile::from_tracer`] with an explicit makespan horizon.
    pub fn from_tracer_with_makespan(
        tracer: &Tracer,
        makespan: u64,
    ) -> Result<Profile, ProfileError> {
        Profile::from_lanes_with_makespan(tracer.lanes(), tracer.events_dropped(), Some(makespan))
    }

    /// Profiles an exported Chrome trace (`results/fig3_trace_*.json`).
    /// The export format carries no drop counter, so truncation can only
    /// be detected structurally.
    pub fn from_chrome_json(json: &Json) -> Result<Profile, ProfileError> {
        let lanes = wtf_trace::chrome::parse_chrome_trace(json).map_err(ProfileError)?;
        Profile::from_lanes(lanes, 0)
    }

    /// The horizon the profile partitions (caller makespan or trace end).
    pub fn makespan(&self) -> u64 {
        self.model.horizon
    }

    /// Critical-path segments, ascending by start, tiling `[0, makespan)`.
    pub fn critical_path(&self) -> &[Segment] {
        &self.cp
    }

    /// Per-category totals over the critical path. Sums to the makespan.
    pub fn path_categories(&self) -> BTreeMap<Category, u64> {
        let mut out: BTreeMap<Category, u64> = ALL_CATEGORIES.iter().map(|&c| (c, 0)).collect();
        for seg in &self.cp {
            *out.entry(seg.category).or_insert(0) += seg.dur();
        }
        out
    }

    /// Per-category aggregate *lane-time* totals: every lane's timeline
    /// tiled over `[0, makespan)` plus the measured queue delays. Sums to
    /// at least the makespan (lanes × makespan + queue delay).
    pub fn lane_totals(&self) -> BTreeMap<Category, u64> {
        let mut out: BTreeMap<Category, u64> = ALL_CATEGORIES.iter().map(|&c| (c, 0)).collect();
        for lane in &self.model.lanes {
            for seg in path::lane_tiling(&self.model, lane) {
                *out.entry(seg.category).or_insert(0) += seg.dur();
            }
            for &(_, _, delay) in &lane.dequeues {
                *out.entry(Category::QueueDelay).or_insert(0) += delay;
            }
        }
        out
    }

    /// Checks the partition invariant: critical-path category totals must
    /// sum exactly to the makespan (CI gates on this).
    pub fn verify_partition(&self) -> Result<(), ProfileError> {
        let sum: u64 = self.path_categories().values().sum();
        if sum == self.makespan() {
            Ok(())
        } else {
            Err(ProfileError(format!(
                "critical-path categories sum to {sum}, expected makespan {}",
                self.makespan()
            )))
        }
    }

    /// "What if aborts were free": makespan over makespan minus the
    /// wasted time on the critical path. `None` when the entire path is
    /// waste (the bound diverges).
    pub fn speedup_bound(&self) -> Option<f64> {
        let makespan = self.makespan();
        if makespan == 0 {
            return Some(1.0);
        }
        let wasted = *self.path_categories().get(&Category::Wasted).unwrap_or(&0);
        if wasted >= makespan {
            None
        } else {
            Some(makespan as f64 / (makespan - wasted) as f64)
        }
    }

    /// Path time aggregated per culprit entity (future, top, box),
    /// descending — the "who is to blame" list; the heaviest entry of a
    /// straggler run is the straggler.
    pub fn culprits(&self) -> Vec<(&'static str, u64, u64)> {
        let mut agg: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for seg in &self.cp {
            if seg.category == Category::Idle {
                continue;
            }
            if let Some(f) = seg.future {
                *agg.entry(("future", f)).or_insert(0) += seg.dur();
            } else if let Some(t) = seg.top {
                *agg.entry(("top", t)).or_insert(0) += seg.dur();
            }
            if let Some(b) = seg.box_id {
                *agg.entry(("box", b)).or_insert(0) += seg.dur();
            }
        }
        let mut out: Vec<(&'static str, u64, u64)> =
            agg.into_iter().map(|((k, id), t)| (k, id, t)).collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(b.0)).then(a.1.cmp(&b.1)));
        out
    }

    /// The `CriticalPathReport` JSON block: per-category totals, top-k
    /// path segments with culprits, speedup bound, culprit ranking.
    /// Byte-deterministic under the virtual clock.
    pub fn report(&self, top_k: usize) -> Json {
        let cats = self.path_categories();
        let categories = Json::Obj(
            ALL_CATEGORIES
                .iter()
                .map(|&c| (c.name().to_string(), Json::U64(*cats.get(&c).unwrap_or(&0))))
                .collect(),
        );
        let mut ranked: Vec<&Segment> = self.cp.iter().collect();
        ranked.sort_by(|a, b| b.dur().cmp(&a.dur()).then(a.start.cmp(&b.start)));
        let opt = |v: Option<u64>| v.map(Json::U64).unwrap_or(Json::Null);
        let segments = Json::Arr(
            ranked
                .into_iter()
                .take(top_k)
                .map(|s| {
                    Json::obj(vec![
                        ("lane", (s.lane as u64).into()),
                        ("start", s.start.into()),
                        ("end", s.end.into()),
                        ("dur", s.dur().into()),
                        ("category", s.category.name().into()),
                        ("top", opt(s.top)),
                        ("future", opt(s.future)),
                        ("attempt", opt(s.attempt)),
                        ("box", opt(s.box_id)),
                    ])
                })
                .collect(),
        );
        let totals = self.lane_totals();
        let totals_json = Json::Obj(
            ALL_CATEGORIES
                .iter()
                .map(|&c| {
                    (
                        c.name().to_string(),
                        Json::U64(*totals.get(&c).unwrap_or(&0)),
                    )
                })
                .collect(),
        );
        let culprits = Json::Arr(
            self.culprits()
                .into_iter()
                .take(top_k)
                .map(|(kind, id, t)| {
                    Json::obj(vec![
                        ("kind", kind.into()),
                        ("id", id.into()),
                        ("path_time", t.into()),
                    ])
                })
                .collect(),
        );
        Json::obj(vec![
            ("schema", "wtf-profile/v1".into()),
            ("makespan", self.makespan().into()),
            ("lanes", (self.model.lanes.len() as u64).into()),
            ("events", self.model.events.into()),
            (
                "critical_path",
                Json::obj(vec![
                    (
                        "length",
                        Json::U64(self.path_categories().values().sum::<u64>()),
                    ),
                    ("categories", categories),
                    ("segments", segments),
                ]),
            ),
            ("totals", totals_json),
            (
                "counts",
                Json::obj(vec![
                    ("top_retries", self.model.top_retries.into()),
                    ("txn_attempt_aborts", self.model.txn_attempt_aborts.into()),
                ]),
            ),
            (
                "speedup_bound",
                match self.speedup_bound() {
                    Some(v) => Json::F64(v),
                    None => Json::Null,
                },
            ),
            ("culprits", culprits),
        ])
    }

    /// Flamegraph folded-stacks export (see [`crate::folded`]).
    pub fn folded_stacks(&self) -> String {
        folded::folded_stacks(&self.model)
    }
}

#[cfg(test)]
mod tests;
