//! The causal critical-path profiler.
//!
//! `wtf-trace` records what happened and how often. The profiler answers
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
//! [`Trace::analyze`] gates on. The same attribution machinery feeds a
//! flamegraph folded-stacks export (`flamegraph.pl`/speedscope-ready) and
//! the "what if aborts were free" speedup bound.

mod dag;
mod folded;
mod path;

pub use path::{Category, Segment, ALL_CATEGORIES};

use crate::{ReportError, Trace};
use std::collections::BTreeMap;
use wtf_trace::Json;

/// Per-category totals as a JSON object, in report order (the map's key
/// order is [`ALL_CATEGORIES`]'s).
fn categories_json(totals: &BTreeMap<Category, u64>) -> Json {
    Json::Obj(
        totals
            .iter()
            .map(|(c, &t)| (c.name().to_string(), Json::U64(t)))
            .collect(),
    )
}

/// A fully analyzed run: causal model + critical path.
#[derive(Debug)]
pub struct Profile {
    model: dag::Model,
    cp: Vec<Segment>,
}

impl Trace {
    /// Profiles the run over `[0, makespan)`.
    pub fn profile(&self) -> Result<Profile, ReportError> {
        self.intact()?;
        let model = dag::build(&self.lanes, self.makespan);
        let cp = path::critical_path(&model);
        Ok(Profile { model, cp })
    }
}

impl Profile {
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
    pub fn verify_partition(&self) -> Result<(), ReportError> {
        let sum: u64 = self.path_categories().values().sum();
        if sum == self.makespan() {
            Ok(())
        } else {
            Err(ReportError(format!(
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
        let categories = categories_json(&self.path_categories());
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
            ("totals", categories_json(&self.lane_totals())),
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

    /// Flamegraph folded-stacks export (see `folded.rs`).
    pub fn folded_stacks(&self) -> String {
        folded::folded_stacks(&self.model)
    }
}

#[cfg(test)]
mod tests;
