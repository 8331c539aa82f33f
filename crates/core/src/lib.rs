//! # wtf-core — WTF-TM: transactional futures over a graph-based STM
//!
//! This crate is the paper's primary contribution, rebuilt in Rust:
//! a software transactional memory in which **futures execute as atomic
//! sub-transactions** ("transactional futures") with configurable
//! semantics along the paper's two axes:
//!
//! * **Ordering** — [`OrderingSemantics::Weak`] (WO, WTF-TM proper:
//!   a future serializes either at its submission point or at its
//!   evaluation point) vs [`OrderingSemantics::Strong`] (SO, the JTF
//!   baseline: always at submission, aborting conflicting continuations).
//! * **Continuation atomicity** for *escaping* futures —
//!   [`AtomicitySemantics::Local`] (LAC: the spawning top-level implicitly
//!   evaluates every stray future at commit) vs
//!   [`AtomicitySemantics::Global`] (GAC: a future may outlive its
//!   spawning transaction and be adopted by whichever transaction
//!   evaluates it).
//!
//! The runtime follows §4 of the paper: each top-level transaction owns a
//! dependency graph **G** over its sub-transactions; reads resolve through
//! the closest iCommitted ancestor, then the multi-versioned snapshot
//! (`wtf-mvstm`, the JVSTM analogue); futures serialize via **forward
//! validation** (at submission) or **backward validation** (at
//! evaluation), re-executing inline when neither order is consistent.
//!
//! ## Quickstart
//!
//! ```
//! use wtf_core::{FutureTm, Semantics};
//!
//! let tm = FutureTm::new(Semantics::WO_GAC);
//! let counter = tm.new_vbox(0i64);
//!
//! let total = tm
//!     .atomic(|ctx| {
//!         ctx.write(&counter, 10)?;
//!         // Run a sub-computation as a transactional future...
//!         let c = counter.clone();
//!         let f = ctx.submit(move |ctx| {
//!             let v = ctx.read(&c)?;
//!             Ok(v * 2)
//!         })?;
//!         // ...do other work in the continuation, then evaluate it.
//!         let doubled = ctx.evaluate(&f)?;
//!         Ok(doubled)
//!     })
//!     .unwrap();
//! assert_eq!(total, 20);
//! tm.shutdown();
//! ```

mod config;
mod ctx;
mod future;
mod graph;
pub mod inspect;
mod node;
mod readlog;
mod stats;
mod toplevel;

pub use config::{AtomicitySemantics, CostModel, OrderingSemantics, Semantics, TmConfig};
pub use ctx::TxCtx;
pub use future::{FutState, TxFuture};
pub use graph::NodeId;
pub use stats::{TmStats, TmStatsSnapshot};
pub use toplevel::TopLevel;
pub use wtf_backend::{
    with_backend, Aborted, BackendBox, BackendKind, BackendSnapshot, BoxId, CmKind, ImmediateCm,
    StmBackend, StmError, TBox as VBox, TxResult, TxValue,
};
pub use wtf_mvstm::Stm;

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wtf_taskpool::TaskPool;
use wtf_trace::{EventKind, Tracer};
use wtf_vclock::{Clock, Resource};

/// Instantiates the STM substrate for `kind`, reporting into `tracer` —
/// the backend-selection point behind `WTF_BACKEND` and
/// [`FutureTmBuilder::backend_kind`].
pub fn make_backend(kind: BackendKind, tracer: Arc<Tracer>) -> Arc<dyn StmBackend> {
    match kind {
        BackendKind::Mvstm => Arc::new(Stm::with_tracer(tracer)),
        BackendKind::Tl2 => Arc::new(wtf_tl2::Tl2Stm::with_tracer(tracer)),
    }
}

const TOP_SHARDS: usize = 16;

/// One registering thread's slice of the in-flight list, on a cache line
/// of its own, so that the thread that begins transactions is also the
/// one that prunes (and so frees) them — DESIGN.md, "The in-flight list".
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct TopShard(Mutex<Vec<std::sync::Weak<TopLevel>>>);

/// The top-level and future id dispensers, on a line of their own:
/// every begin writes it, and the read-mostly fields of [`TmInner`]
/// must not move with it (128 bytes: the adjacent-line prefetcher pulls
/// lines in pairs).
#[repr(align(128))]
struct Ids {
    // ordering: relaxed-rmw — monotonic id source; ids only need
    // uniqueness, nothing is published through the counter.
    top_counter: AtomicU64,
    // ordering: relaxed-rmw — monotonic id source; ids only need
    // uniqueness, nothing is published through the counter.
    future_counter: AtomicU64,
}

pub(crate) struct TmInner {
    pub(crate) stm: Arc<dyn StmBackend>,
    pub(crate) clock: Clock,
    pool: Mutex<Option<Arc<TaskPool>>>,
    pub(crate) cfg: TmConfig,
    pub(crate) stats: TmStats,
    pub(crate) mem_bus: Option<Resource>,
    /// Observability hooks; shared with the STM and the task pool so one
    /// summary covers all layers. Disabled by default.
    pub(crate) tracer: Arc<Tracer>,
    /// Dense, global: the ids in a trace are the order of the begins.
    ids: Ids,
    /// Weak handles to in-flight top-levels, one list per registering
    /// thread (its `wtf_backend::thread_index` modulo the shard count),
    /// read only by the `tm_live_*` gauges: `None` unless the tracer was
    /// on at build, so an untraced begin registers nothing. Dead entries are pruned opportunistically
    /// on registration.
    pub(crate) tops: Option<[TopShard; TOP_SHARDS]>,
}

impl TmInner {
    pub(crate) fn pool(&self) -> Arc<TaskPool> {
        self.pool
            .lock()
            .as_ref()
            .expect("FutureTm already shut down")
            .clone()
    }

    pub(crate) fn next_top_id(&self) -> u64 {
        self.ids.top_counter.fetch_add(1, Ordering::Relaxed)
    }

    pub(crate) fn next_future_id(&self) -> u64 {
        self.ids.future_counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Tracks `top` while it is in flight, if anything reads the list.
    /// The list holds `Weak`s so a finished top-level (whose `Arc` the
    /// caller drops) costs nothing beyond its slot until the next prune.
    pub(crate) fn register_top(&self, top: &Arc<TopLevel>) {
        let Some(shards) = &self.tops else { return };
        let mut tops = shards[wtf_backend::thread_index() % TOP_SHARDS].0.lock();
        if tops.len() >= 32 && tops.len().is_multiple_of(32) {
            tops.retain(|w| w.strong_count() > 0);
        }
        tops.push(Arc::downgrade(top));
    }

    /// Upgrades every still-live tracked top-level, oldest first (none
    /// when the TM keeps no list).
    pub(crate) fn live_tops(&self) -> Vec<Arc<TopLevel>> {
        let mut live: Vec<Arc<TopLevel>> = Vec::new();
        for shard in self.tops.iter().flatten() {
            live.extend(shard.0.lock().iter().filter_map(|w| w.upgrade()));
        }
        live.sort_by_key(|t| t.id);
        live
    }
}

/// Builder for [`FutureTm`].
pub struct FutureTmBuilder {
    cfg: TmConfig,
    clock: Option<Clock>,
    backend_kind: Option<BackendKind>,
    workers: usize,
    tracer: Option<Arc<Tracer>>,
}

impl FutureTmBuilder {
    pub fn semantics(mut self, s: Semantics) -> Self {
        self.cfg.semantics = s;
        self
    }

    pub fn config(mut self, cfg: TmConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The clock to execute under. Defaults to the calling thread's
    /// current clock, or a no-spin real clock outside any clock context.
    pub fn clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    /// Which STM substrate to instantiate ([`BackendKind::Mvstm`] — the
    /// JVSTM analogue — or [`BackendKind::Tl2`]). Defaults to the
    /// `WTF_BACKEND` environment variable, falling back to mvstm.
    pub fn backend_kind(mut self, kind: BackendKind) -> Self {
        self.backend_kind = Some(kind);
        self
    }

    /// Kept for `benchmark/` only.
    pub fn cm(self, _kind: CmKind) -> Self {
        self
    }

    /// Worker threads available for future bodies. Size it to the maximum
    /// number of simultaneously *blocking* futures (the paper dedicates a
    /// thread per in-flight future).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n;
        self
    }

    /// Report lifecycle events, latency histograms and abort attribution
    /// into `tracer` (see `wtf-trace`). The tracer is shared with the
    /// STM and the worker pool, so one summary covers every layer.
    pub fn tracer(mut self, tracer: Arc<Tracer>) -> Self {
        self.tracer = Some(tracer);
        self
    }

    pub fn build(self) -> FutureTm {
        let clock = self
            .clock
            .or_else(Clock::try_current)
            .unwrap_or_else(Clock::real_nospin);
        let must_enter = Clock::try_current().is_none();
        assert!(
            !(must_enter && clock.is_virtual()),
            "a FutureTm over a virtual clock must be built inside Clock::enter              (its pool workers would otherwise deadlock the scheduler)"
        );
        let tracer = self.tracer.unwrap_or_else(Tracer::disabled);
        let traced = tracer.on();
        let make = |clock: &Clock| {
            Arc::new(TaskPool::with_tracer(
                clock,
                self.workers,
                0,
                Arc::clone(&tracer),
            ))
        };
        let pool = if must_enter {
            // Pool workers must be spawned from a registered thread.
            clock.enter(|| make(&clock))
        } else {
            make(&clock)
        };
        let mem_bus = if self.cfg.model_memory_bus && clock.is_virtual() {
            Some(clock.new_resource())
        } else {
            None
        };
        let stm = make_backend(
            self.backend_kind.unwrap_or_else(BackendKind::from_env),
            Arc::clone(&tracer),
        );
        let tm = FutureTm {
            inner: Arc::new(TmInner {
                stm,
                clock,
                pool: Mutex::new(Some(pool)),
                cfg: self.cfg,
                stats: TmStats::default(),
                mem_bus,
                tracer,
                ids: Ids {
                    top_counter: AtomicU64::new(0),
                    future_counter: AtomicU64::new(0),
                },
                tops: traced.then(Default::default),
            }),
        };
        if traced {
            // Live TM gauges. `Weak`: the tracer lives inside `TmInner`.
            let w = Arc::downgrade(&tm.inner);
            tm.inner.tracer.gauges.register("tm_live_tops", move || {
                w.upgrade().map_or(0, |tm| tm.live_tops().len() as u64)
            });
            let w = Arc::downgrade(&tm.inner);
            tm.inner.tracer.gauges.register("tm_live_nodes", move || {
                w.upgrade().map_or(0, |tm| {
                    tm.live_tops().iter().map(|t| t.node_count() as u64).sum()
                })
            });
        }
        tm
    }
}

/// A transactional memory with support for transactional futures.
///
/// Cheap to clone; all clones share the same STM, pool and statistics.
#[derive(Clone)]
pub struct FutureTm {
    inner: Arc<TmInner>,
}

impl FutureTm {
    pub fn builder() -> FutureTmBuilder {
        FutureTmBuilder {
            cfg: TmConfig::default(),
            clock: None,
            backend_kind: None,
            workers: 8,
            tracer: None,
        }
    }

    /// A TM with the given semantics, zero costs, and 8 workers — suitable
    /// for tests and applications. Figure harnesses use [`FutureTm::builder`].
    pub fn new(semantics: Semantics) -> FutureTm {
        Self::builder().semantics(semantics).build()
    }

    /// Creates a transactional box on this TM's STM.
    pub fn new_vbox<T: TxValue>(&self, value: T) -> VBox<T> {
        VBox::from_body(self.inner.stm.new_box(wtf_backend::Value::new(value)))
    }

    /// The underlying STM substrate.
    pub fn stm(&self) -> &Arc<dyn StmBackend> {
        &self.inner.stm
    }

    /// Which STM substrate this TM runs over.
    pub fn backend_kind(&self) -> BackendKind {
        self.inner.stm.kind()
    }

    /// The clock this TM executes under.
    pub fn clock(&self) -> &Clock {
        &self.inner.clock
    }

    /// The configured semantics.
    pub fn semantics(&self) -> Semantics {
        self.inner.cfg.semantics
    }

    /// Runtime counters (abort rates, serialization points, ...).
    pub fn stats(&self) -> TmStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// The tracer this TM reports into (disabled unless one was supplied
    /// via [`FutureTmBuilder::tracer`]).
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    /// Kept for `benchmark/` only.
    pub fn cm(&self) -> ImmediateCm {
        ImmediateCm
    }

    /// Runs `body` as a top-level transaction, retrying on conflicts until
    /// it commits. `Err(Aborted)` only on explicit [`TxCtx::abort`].
    ///
    /// Calls must be made from a thread registered with this TM's clock
    /// (inside [`Clock::enter`] or a clock-spawned thread) when the clock
    /// is virtual.
    pub fn atomic<T>(&self, mut body: impl FnMut(&mut TxCtx) -> TxResult<T>) -> Result<T, Aborted> {
        // Replay restarts are bounded defensively; beyond the cap we fall
        // back to a full restart (fresh snapshot).
        const MAX_REPLAYS: u32 = 10_000;
        // `Some` when the next attempt replays this incarnation.
        let mut replay: Option<Arc<TopLevel>> = None;
        // Retry lineage: the id of the incarnation a full restart abandoned,
        // linked to its successor via a `TopRetry` event so the profiler can
        // charge the abandoned attempt's work to the retry that won.
        let mut prev_top: Option<u64> = None;
        let mut replays = 0u32;
        let mut guard = 0u32;
        loop {
            guard += 1;
            assert!(guard < 200_000, "atomic outer retry spinning");
            let replayed = replay.is_some();
            let (t, ctx) = match replay.take() {
                Some(t) => {
                    // Internal (replay) restart on the same incarnation.
                    let (harvested, root) = t.restart_top_chain(&self.inner);
                    let mut ctx = TxCtx::new(self.inner.clone(), t.clone(), root);
                    ctx.set_replay(harvested);
                    (t, ctx)
                }
                None => {
                    let t = TopLevel::begin(&self.inner);
                    if let Some(prev) = prev_top.take() {
                        self.inner.tracer.record(EventKind::TopRetry, t.id, prev);
                    }
                    let ctx = TxCtx::new(self.inner.clone(), t.clone(), t.root.clone());
                    (t, ctx)
                }
            };
            match self.run_attempt(&t, ctx, &mut body) {
                AttemptOutcome::Done(v) => return v,
                AttemptOutcome::Internal => {
                    replays += u32::from(replayed);
                    if !replayed || replays < MAX_REPLAYS {
                        replay = Some(t);
                        continue;
                    }
                    self.inner.stats.top_internal_restarts();
                    self.inner
                        .tracer
                        .record(EventKind::TopInternalRestart, t.id, 0);
                }
                AttemptOutcome::Full => {}
            }
            t.cancel(&self.inner);
            prev_top = Some(t.id);
        }
    }

    fn run_attempt<T>(
        &self,
        top: &Arc<TopLevel>,
        mut ctx: TxCtx,
        body: &mut impl FnMut(&mut TxCtx) -> TxResult<T>,
    ) -> AttemptOutcome<T> {
        use crate::toplevel::CommitFail;
        match body(&mut ctx) {
            Ok(value) => match top.commit(&mut ctx) {
                Ok(()) => return AttemptOutcome::Done(Ok(value)),
                Err(CommitFail::CrossTop) => return AttemptOutcome::Full,
                Err(CommitFail::Internal) => {}
            },
            Err(StmError::Conflict) => {}
            Err(StmError::UserAbort) => {
                self.inner.tracer.record(EventKind::TopUserAbort, top.id, 0);
                top.cancel(&self.inner);
                return AttemptOutcome::Done(Err(Aborted));
            }
        }
        // An internal doom: a cancelled incarnation restarts in full.
        if top.is_cancelled() {
            return AttemptOutcome::Full;
        }
        self.inner.stats.top_internal_restarts();
        self.inner
            .tracer
            .record(EventKind::TopInternalRestart, top.id, 0);
        AttemptOutcome::Internal
    }

    /// Like [`FutureTm::atomic`] but panics on explicit abort.
    pub fn atomic_infallible<T>(&self, body: impl FnMut(&mut TxCtx) -> TxResult<T>) -> T {
        // This IS the sanctioned panic-on-abort wrapper the lint points
        // users at (the rule itself is off in runtime crates).
        self.atomic(body).expect("transaction aborted explicitly")
    }

    /// Joins the worker pool. Call from a clock-registered thread before
    /// the enclosing `Clock::enter` returns. Shutdown is cooperative: any
    /// clone may call it, the first call joins the pool and later calls
    /// are no-ops; an `atomic` that submits a future afterwards panics.
    pub fn shutdown(&self) {
        if let Some(pool) = self.inner.pool.lock().take() {
            let pool =
                Arc::into_inner(pool).expect("shutdown while futures are still being submitted");
            if Clock::try_current().is_some() {
                pool.shutdown();
            } else {
                self.inner.clock.enter(|| pool.shutdown());
            }
        }
    }
}

/// Internal data structures re-exported for `benchmark/`'s per-layer
/// ledger and the litmus and allocation tests: not a stable API.
#[doc(hidden)]
pub mod internals {
    pub use crate::graph::{Graph, GraphInner, NodeStatus};
    pub use crate::readlog::AppendLog;
}

enum AttemptOutcome<T> {
    Done(Result<T, Aborted>),
    /// Internal doom: replay-restart the same incarnation.
    Internal,
    /// Cross-top conflict or cancellation: full restart, fresh snapshot.
    Full,
}

#[cfg(test)]
mod tests;
