//! # transactional-futures
//!
//! A Rust implementation of **transactional futures** — futures whose
//! bodies run as atomic sub-transactions of a software transactional
//! memory — reproducing *“Investigating the Semantics of Futures in
//! Transactional Memory Systems”* (PPoPP 2021).
//!
//! This facade crate re-exports the whole stack:
//!
//! * [`tm`] (`wtf-core`) — the WTF-TM runtime: [`FutureTm`],
//!   [`TxCtx`], [`TxFuture`], the four semantics (WO/SO × LAC/GAC);
//! * [`stm`] (`wtf-mvstm`) — the multi-versioned STM substrate
//!   (JVSTM-style versioned boxes);
//! * [`backend`] (`wtf-backend`) — the substrate abstraction:
//!   [`BackendKind`] selects between mvstm and the single-version TL2
//!   backend (`wtf-tl2`), at runtime via `WTF_BACKEND=tl2`;
//! * [`fsg`] (`wtf-fsg`) — the Future Serialization Graph formalism:
//!   histories, polygraphs, acceptance checking;
//! * [`clock`] (`wtf-vclock`) — deterministic virtual-time execution;
//! * [`pool`] (`wtf-taskpool`) — the clock-aware worker pool;
//! * [`trace`] (`wtf-trace`) — observability: lock-free event tracing,
//!   latency histograms, abort attribution, JSON/Perfetto exporters
//!   (enable with `WTF_TRACE=1`);
//! * [`report`] (`wtf-report`) — trace analysis: the offline
//!   serializability checker, the critical-path profiler and the
//!   schedule explorers;
//! * [`workloads`] (`wtf-workloads`) — the paper's evaluation workloads.
//!
//! ## Quickstart
//!
//! ```
//! use transactional_futures::{FutureTm, Semantics};
//!
//! let tm = FutureTm::new(Semantics::WO_GAC);
//! let balance = tm.new_vbox(100i64);
//!
//! let (before, after) = tm
//!     .atomic(|ctx| {
//!         let before = ctx.read(&balance)?;
//!         let b = balance.clone();
//!         // An interest computation runs as a transactional future,
//!         // atomically isolated from the rest of this transaction.
//!         let interest = ctx.submit(move |c| {
//!             let v = c.read(&b)?;
//!             Ok(v / 10)
//!         })?;
//!         let delta = ctx.evaluate(&interest)?;
//!         ctx.write(&balance, before + delta)?;
//!         ctx.read(&balance).map(|after| (before, after))
//!     })
//!     .unwrap();
//! assert_eq!((before, after), (100, 110));
//! tm.shutdown();
//! ```
//!
//! See the `examples/` directory for larger scenarios (bank replay,
//! vacation booking, escaping-future shopping cart) and `wtf-bench` for
//! the paper's figure harnesses.

pub use wtf_core::{
    Aborted, AtomicitySemantics, BackendKind, BoxId, CostModel, FutState, FutureTm,
    OrderingSemantics, Semantics, Stm, StmError, TmConfig, TmStatsSnapshot, TxCtx, TxFuture,
    TxResult, TxValue, VBox,
};

/// The WTF-TM runtime (re-export of `wtf-core`).
pub mod tm {
    pub use wtf_core::*;
}

/// The multi-versioned STM substrate (re-export of `wtf-mvstm`).
pub mod stm {
    pub use wtf_mvstm::*;
}

/// The STM substrate abstraction: backend trait, stepwise transactions,
/// backend selection (re-export of `wtf-backend`).
pub mod backend {
    pub use wtf_backend::*;
}

/// The single-version, lock-striped TL2 substrate (re-export of
/// `wtf-tl2`).
pub mod tl2 {
    pub use wtf_tl2::*;
}

/// Trace analysis: serializability checker, critical-path profiler,
/// schedule explorers (re-export of `wtf-report`).
pub mod report {
    pub use wtf_report::*;
}

/// The Future Serialization Graph formalism (re-export of `wtf-fsg`).
pub mod fsg {
    pub use wtf_fsg::*;
}

/// Virtual-time / real-time execution substrate (re-export of `wtf-vclock`).
pub mod clock {
    pub use wtf_vclock::*;
}

/// Clock-aware task pool (re-export of `wtf-taskpool`).
pub mod pool {
    pub use wtf_taskpool::*;
}

/// Observability: event tracing, histograms, abort attribution
/// (re-export of `wtf-trace`).
pub mod trace {
    pub use wtf_trace::*;
}

/// The paper's evaluation workloads (re-export of `wtf-workloads`).
pub mod workloads {
    pub use wtf_workloads::*;
}
