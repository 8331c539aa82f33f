//! # wtf-mvstm — multi-versioned software transactional memory
//!
//! A from-scratch Rust analogue of **JVSTM** (Cachopo & Rito-Silva,
//! "Versioned boxes as the basis for memory transactions"), the substrate
//! the paper builds WTF-TM on. The design mirrors JVSTM's essentials:
//!
//! * **Versioned boxes**: every transactional location keeps
//!   a chain of `(version, value)` pairs, newest first — an immutable
//!   cons list behind an atomic head pointer, so snapshot reads are
//!   lock-free and installing a committed value is O(1).
//! * **Global version clock**: committing writers reserve a version with
//!   one atomic fetch-add and publish their write-set at that version.
//! * **Snapshot reads**: a transaction reads the newest version no newer
//!   than its begin snapshot, so *every* read observes a consistent memory
//!   snapshot — this gives opacity without per-read validation, and lets
//!   **read-only transactions commit without any validation** (JVSTM's
//!   signature property).
//! * **Commit-time validation** for update transactions under **striped
//!   commit locks**: boxes hash onto 64 cache-line-padded lock stripes
//!   ([`raw::STRIPES`]); a committer locks only the stripes covering its
//!   read- and write-set (in ascending order — deadlock-free), validates
//!   that every read is still current, installs, and publishes. Commits
//!   with disjoint stripe footprints run fully in parallel; there is no
//!   global commit mutex.
//! * **Version GC** driven by a dense, lock-free active-transaction
//!   registry (JVSTM's `ActiveTransactionsRecord`, in `wtf-backend`'s
//!   [`Horizon`](wtf_backend::Horizon)): version chains are pruned down
//!   to the oldest snapshot still in use, and the bodies of dropped boxes
//!   are freed under the same horizon.
//!
//! The commit-path concurrency protocol (stripe masks, the
//! ticket/publish clock pair, and the reclamation argument for pruned
//! versions) is documented in `DESIGN.md` § "Commit-path concurrency",
//! in the module docs of `stripe` and `vbox`, and in those of
//! `wtf-backend`'s registry and horizon.
//!
//! The crate has one way in: [`Stm`] implements
//! [`wtf_backend::StmBackend`] and its boxes implement
//! [`wtf_backend::BackendBox`], so transactions run through
//! `wtf_backend::atomic` (the plain "JVSTM" baseline of the paper's
//! evaluation — top-level transactions, no intra-transaction parallelism)
//! or through `wtf-core`, which layers transactional futures on the same
//! trait, exactly as WTF-TM layers on JVSTM ("we abstract the mechanisms
//! used to regulate concurrency among top-level transactions"). What is
//! left public beside the trait is mvstm-only: the gauges on [`Stm`] and
//! the [`raw`] diagnostics the tests use.
//!
//! ## Example
//!
//! ```
//! use wtf_backend::{atomic, TBox};
//! use wtf_mvstm::Stm;
//!
//! let stm = Stm::new();
//! let acc_a = TBox::new_on(&stm, 100i64);
//! let acc_b = TBox::new_on(&stm, 0i64);
//!
//! atomic(&stm, |tx| {
//!     let a = tx.read(&acc_a)?;
//!     tx.write(&acc_a, a - 30)?;
//!     let b = tx.read(&acc_b)?;
//!     tx.write(&acc_b, b + 30)?;
//!     Ok(())
//! })
//! .unwrap();
//!
//! assert_eq!(atomic(&stm, |tx| tx.read(&acc_b)).unwrap(), 30);
//! ```

mod stats;
mod stripe;
mod vbox;

pub mod raw;

// Kept for `benchmark/` only (`stm::VBox::new(&stm, v)`,
// `stm::StmStatsSnapshot`); everything else names these through
// `wtf-backend`.
pub use wtf_backend::{StmStatsSnapshot, TBox as VBox};

use stats::StmStats;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use stripe::StripeTable;
use wtf_backend::{BackendTxn, Horizon};
use wtf_trace::Tracer;

pub(crate) struct StmInner {
    /// The published version clock (only ever advanced by 1, in ticket
    /// order, by `commit_attributed`), the snapshot registry and the
    /// retired box bodies.
    pub(crate) horizon: Arc<Horizon>,
    /// Version ticket dispenser, on a line of its own: every update
    /// commit writes it, and the read-mostly pointers beside it must
    /// not move with it.
    pub(crate) ticket: Ticket,
    /// Striped commit locks; shared with every `BoxBody` for safe chain
    /// walks (see `stripe`).
    pub(crate) stripes: Arc<StripeTable>,
    pub(crate) stats: StmStats,
    // ordering: relaxed-rmw — a pure id dispenser; uniqueness is all
    // that matters, nothing is published through it.
    pub(crate) next_box: AtomicU64,
    /// Observability hooks (`wtf-trace`). Always present — a disabled
    /// tracer costs one relaxed load per hook — so the hot paths carry
    /// no `Option` branch.
    pub(crate) tracer: Arc<Tracer>,
}

/// The version ticket dispenser on a cache line of its own (128 bytes:
/// the adjacent-line prefetcher pulls lines in pairs).
#[repr(align(128))]
pub(crate) struct Ticket {
    /// `fetch_add` here is the single global atomic RMW on the commit
    /// path. A ticket may be ahead of the clock while its commit is
    /// still installing.
    // ordering: acqrel-rmw — the ticket fetch_add orders each reserved
    // ticket after the validation that justified it and before the
    // installs published under it.
    pub(crate) next_version: AtomicU64,
}

impl Drop for StmInner {
    /// Frees the retired bodies no registration holds any more (a body
    /// that held the last handle of another box of this STM would keep
    /// the horizon alive, and with it the whole retire list).
    fn drop(&mut self) {
        self.horizon.close();
    }
}

/// A software transactional memory instance.
///
/// Cheap to clone (all clones share state). Boxes are tied to the `Stm`
/// they were created on.
#[derive(Clone)]
pub struct Stm {
    pub(crate) inner: Arc<StmInner>,
}

impl Default for Stm {
    fn default() -> Self {
        Self::new()
    }
}

impl Stm {
    pub fn new() -> Stm {
        Stm::with_tracer(Tracer::disabled())
    }

    /// An `Stm` whose commit path reports into `tracer`: commit/validation
    /// latency histograms, publish-wait spans, per-box abort attribution
    /// and (at `Full` level) per-install events.
    pub fn with_tracer(tracer: Arc<Tracer>) -> Stm {
        let stm = Stm {
            inner: Arc::new(StmInner {
                horizon: Horizon::new(),
                ticket: Ticket {
                    next_version: AtomicU64::new(0),
                },
                stripes: Arc::new(StripeTable::new()),
                stats: StmStats::default(),
                next_box: AtomicU64::new(0),
                tracer,
            }),
        };
        if stm.inner.tracer.on() {
            stm.register_gauges();
        }
        stm
    }

    /// Registers the STM's live gauges with the tracer's registry. `Weak`
    /// captures: the tracer is owned by `StmInner`, so `Arc` captures
    /// would cycle and leak.
    fn register_gauges(&self) {
        let gauges = &self.inner.tracer.gauges;
        let w = Arc::downgrade(&self.inner);
        gauges.register("stm_clock", move || {
            w.upgrade().map_or(0, |s| s.horizon.now())
        });
        let w = Arc::downgrade(&self.inner);
        gauges.register("stm_retained_versions", move || {
            w.upgrade().map_or(0, |s| s.stats.retained_versions())
        });
        let w = Arc::downgrade(&self.inner);
        gauges.register("stm_gc_horizon_lag", move || {
            w.upgrade().map_or(0, |s| {
                let clock = s.horizon.now();
                clock.saturating_sub(s.horizon.min_active_excluding(u64::MAX, clock))
            })
        });
        let w = Arc::downgrade(&self.inner);
        gauges.register("stm_active_snapshots", move || {
            w.upgrade()
                .map_or(0, |s| s.horizon.active_snapshots() as u64)
        });
        let w = Arc::downgrade(&self.inner);
        gauges.register("stm_registry_occupancy", move || {
            w.upgrade().map_or(0, |s| s.horizon.occupancy() as u64)
        });
    }

    /// Committed versions still retained in version chains (installed
    /// minus pruned; saturating because prunes can free initial versions
    /// that predate the counter).
    pub fn retained_versions(&self) -> u64 {
        self.inner.stats.retained_versions()
    }

    /// How far the oldest active snapshot trails the version clock (0
    /// when no transaction is active): the GC horizon lag that bounds
    /// how much garbage version chains must retain.
    pub fn gc_horizon_lag(&self) -> u64 {
        let clock = self.inner.horizon.now();
        clock.saturating_sub(self.inner.horizon.min_active_excluding(u64::MAX, clock))
    }

    /// `BackendTxn::begin(self)` under the name `benchmark/` calls; kept
    /// for `benchmark/` only.
    pub fn begin_txn(&self) -> BackendTxn<'_> {
        BackendTxn::begin(self)
    }
}

/// Mutation hooks for `wtf-report`'s checker self-tests: deliberately
/// break one protocol branch so a test can assert the offline checker
/// catches the resulting bad history. Compiled only under the
/// `test-hooks` feature and off by default even then; never enable the
/// feature in production builds.
#[cfg(feature = "test-hooks")]
pub mod test_hooks {
    use std::sync::atomic::{AtomicBool, Ordering};

    // ordering: seqcst-store / seqcst-load — a cold test knob; strongest
    // ordering so the deliberately-broken branch is taken deterministically
    // right after the toggle.
    static SKIP_VALIDATION: AtomicBool = AtomicBool::new(false);

    /// When set, `commit_attributed` skips read-set validation entirely —
    /// the classic write-skew hole a serializable TM must not have.
    pub fn set_skip_validation(on: bool) {
        SKIP_VALIDATION.store(on, Ordering::SeqCst);
    }

    pub fn skip_validation() -> bool {
        SKIP_VALIDATION.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests;
