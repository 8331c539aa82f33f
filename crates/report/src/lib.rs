//! # wtf-report — one analysis of a run's event stream
//!
//! A run's `wtf-trace` events are read once, into a [`Trace`] (lanes,
//! drop count, makespan), from a live [`Tracer`] or from an exported
//! Chrome file. Two analyses read that intake, and both refuse a
//! truncated one:
//!
//! * **[`checker`]** — the verdict. It reconstructs the committed
//!   read/write history, rebuilds the paper's polygraph/FSG from the trace
//!   alone, and demands an acyclic serialization witness (§3.4) plus a
//!   concrete justification (a newer install) for every cross-top
//!   conflict abort. Because the graph is rebuilt from trace data only, a
//!   bug in the runtime's validation cannot hide itself.
//! * **[`profile`]** — the cost. It rebuilds the causal structure of the
//!   run (spawn/join edges, retry lineage, queue edges, commit spans),
//!   walks its critical path and attributes every unit of time to a
//!   closed category set whose totals partition the makespan.
//!
//! [`Trace::analyze`] runs both and checks the partition: it is the
//! post-run gate of a traced harness run and of `fig3_stragglers` under
//! `WTF_REPORT=1`, and what the `wtf-report` binary runs on every
//! exported trace. The **[`explore`]** module drives the runtime through
//! bounded schedule spaces and runs every resulting trace through the
//! checker. Source-level TM misuse is `wtf-audit`'s to find.

pub mod checker;
pub mod explore;
pub mod profile;

pub use checker::CheckReport;
pub use explore::{explore_backend, explore_core_delays, ExploreReport, StepOp};
pub use profile::{Category, Profile, Segment, ALL_CATEGORIES};

use std::fmt;
use wtf_trace::{Json, Lanes, Tracer};

/// Why a trace was rejected. The message is self-contained: it names
/// transactions, boxes, versions and, for cycles, the edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportError(pub String);

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ReportError {}

/// One run's event stream, as the checker and the profiler read it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// `(lane_index, events)`, ordered by lane index.
    pub lanes: Lanes,
    /// Events lost to full lanes. Any loss fails both analyses.
    pub dropped: u64,
    /// The horizon the profile partitions; `None` ends it at the last
    /// event. The tail past the last event is idle time.
    pub makespan: Option<u64>,
}

impl Trace {
    /// Harvested lanes and their drop count, with no makespan horizon.
    pub fn new(lanes: Lanes, dropped: u64) -> Trace {
        Trace {
            lanes,
            dropped,
            makespan: None,
        }
    }

    /// A live tracer's lanes and drop count. Call after the run has
    /// quiesced (workers joined), or commits may be half-recorded.
    pub fn from_tracer(tracer: &Tracer) -> Trace {
        Trace::new(tracer.lanes(), tracer.events_dropped())
    }

    /// An exported Chrome trace (see [`wtf_trace::chrome`]), drop count
    /// included.
    pub fn from_chrome_json(json: &Json) -> Result<Trace, ReportError> {
        let (lanes, dropped) = wtf_trace::chrome::parse_chrome_trace(json).map_err(ReportError)?;
        Ok(Trace::new(lanes, dropped))
    }

    /// The one drop guard: a verdict or an attribution over a truncated
    /// history would be vacuous.
    fn intact(&self) -> Result<(), ReportError> {
        if self.dropped == 0 {
            return Ok(());
        }
        Err(ReportError(format!(
            "trace truncated: {} events dropped by full lanes — verdicts would be \
             vacuous; raise the lane capacity or lower the trace level",
            self.dropped
        )))
    }

    /// Verifies the history, profiles the critical path and checks that
    /// the path partitions the makespan.
    pub fn analyze(&self) -> Result<(CheckReport, Profile), ReportError> {
        let check = self.verify()?;
        let profile = self.profile()?;
        profile.verify_partition()?;
        Ok((check, profile))
    }
}
