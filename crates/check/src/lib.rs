//! # wtf-check — independent correctness tooling for the WTF-TM stack
//!
//! Three pillars, all independent of the runtime's own bookkeeping:
//!
//! * **[`checker`]** — an offline history checker. It consumes a
//!   `wtf-trace` event stream (live tracer lanes or an exported Chrome
//!   trace), reconstructs the committed read/write history, rebuilds the
//!   paper's polygraph/FSG from the trace alone, and demands an acyclic
//!   serialization witness for every run — plus a concrete justification
//!   (a newer install) for every cross-top conflict abort. Because the
//!   graph is rebuilt from trace data only, a bug in the runtime's
//!   validation cannot hide itself: the checker would see the
//!   non-serializable history the bug admitted.
//! * **[`explore`]** — deterministic schedule explorers. A bounded
//!   interleaving explorer steps several plain STM transactions, on
//!   either backend, through every permutation of their read/write/commit steps, and a virtual-
//!   clock delay explorer perturbs the `wtf-core` futures path across a
//!   grid of injected delays; every schedule's trace goes through the
//!   checker.
//! * **[`lint`]** — a TM-misuse source lint (`wtf-lint`) for the
//!   workspace's own Rust code: raw STM APIs outside the runtime crates,
//!   retained snapshots, transactional state escaping to plain threads,
//!   and unchecked `atomic(..)` results in non-test code.
//!
//! Binaries: `wtf-check` (verify exported traces, e.g. `results/*.json`)
//! and `wtf-lint` (scan source trees). The workload harness runs the
//! checker automatically at the end of every traced run when `WTF_CHECK=1`
//! (see `wtf-workloads`).

pub mod checker;
pub mod explore;
pub mod lint;

pub use checker::{CheckError, CheckReport, HistoryChecker};
pub use explore::{explore_backend, explore_core_delays, ExploreReport, StepOp};
pub use lint::{lint_source, lint_tree, Finding};
