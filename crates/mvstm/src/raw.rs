//! [`StmBackend`] for [`Stm`] — the scalable commit protocol — plus the
//! diagnostics the mvstm tests and benches use. Application code reaches
//! all of this through `wtf_backend::atomic` or `FutureTm::atomic`.
//!
//! The commit protocol (see `DESIGN.md` § "Commit-path concurrency"):
//!
//! 1. lock the stripes covering the read- and write-set, in ascending
//!    index order (deadlock-free);
//! 2. validate every read against its head version under those stripes;
//! 3. reserve a version ticket (`next_version.fetch_add` — the only
//!    global atomic RMW on the path) and install the write-set at it,
//!    O(1) per box;
//! 4. wait for the published clock to reach `ticket - 1`, then publish
//!    `clock = ticket` so the clock only ever exposes fully installed
//!    prefixes (opacity);
//! 5. GC the written boxes' chains down to the registry's horizon, still
//!    under the stripes; then, with the stripes released, free the
//!    retired box bodies that horizon has passed.
//!
//! Beside the stripes of its footprint, a disjoint commit writes three
//! shared words: the ticket, the clock and its own registry slot (at
//! its next begin). Its counters go to its thread's own block.
//!
//! Because tickets are reserved only *after* all stripes are held and
//! validation has passed, a committer spinning in step 4 waits only on
//! earlier ticket holders, each of which already holds every lock it
//! needs — so publication always makes progress, in ticket order.

use crate::stats::Counter;
use crate::stripe::StripeTable;
use crate::vbox::BoxBody;
use crate::Stm;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wtf_backend::{
    BackendBox, BackendKind, BackendSnapshot, BoxHandle, BoxId, Horizon, StmBackend,
    StmStatsSnapshot, TBox, TxValue, Value,
};
use wtf_trace::{EventKind, Tracer};

/// Number of commit-lock stripes (re-exported for tests/diagnostics).
pub const STRIPES: usize = crate::stripe::STRIPES;

/// Recovers the concrete box behind a handle this STM gave out.
fn body_of(b: &dyn BackendBox) -> &BoxBody {
    b.as_any()
        .downcast_ref::<BoxBody>()
        .expect("box from a different backend passed to wtf-mvstm")
}

impl StmBackend for Stm {
    fn kind(&self) -> BackendKind {
        BackendKind::Mvstm
    }

    fn tracer(&self) -> &Arc<Tracer> {
        &self.inner.tracer
    }

    fn clock(&self) -> u64 {
        self.inner.horizon.now()
    }

    fn stats(&self) -> StmStatsSnapshot {
        self.inner.stats.snapshot()
    }

    fn note_abort(&self) {
        self.inner.stats.add(Counter::Aborts, 1);
    }

    fn note_read_only_commit(&self) {
        // The multi-version property: a read-only transaction observed a
        // consistent snapshot and commits with no validation at all, so
        // it never reaches `commit_attributed`.
        let stats = &self.inner.stats;
        stats.add(Counter::Commits, 1);
        stats.add(Counter::ReadOnlyCommits, 1);
    }

    /// The initial version is stamped 0, not the current clock: no commit
    /// wrote the initial value, so it is what every snapshot reads until
    /// the first install — including a snapshot taken before the box was
    /// created, which a box created (or handed over) inside a running
    /// transaction meets. (Creating boxes *inside* a transaction and
    /// publishing them through another box is supported: the value
    /// committed through the STM holds a counted handle.)
    fn new_box(&self, value: Value) -> BoxHandle {
        let inner = &self.inner;
        let id = BoxId(inner.next_box.fetch_add(1, Ordering::Relaxed));
        BoxHandle::new(
            &inner.horizon,
            BoxBody::new(id, inner.stripes.clone(), value),
        )
    }

    fn horizon(&self) -> &Arc<Horizon> {
        &self.inner.horizon
    }

    /// Registered against concurrent GC via the registry's
    /// publish-then-recheck protocol (see `wtf-backend`'s registry module
    /// docs for the race argument); it keeps this snapshot's versions and
    /// every body borrowed under it.
    fn acquire_snapshot(&self) -> BackendSnapshot {
        self.inner.horizon.register()
    }

    /// Under the stripes covering `reads` ∪ `writes`, every box in
    /// `reads` must have no version newer than `snapshot` (i.e. every
    /// value the transaction read is still current), after which all
    /// `writes` are installed atomically at a freshly reserved version.
    ///
    /// With all reads re-validated at the commit point, the transaction is
    /// logically instantaneous at commit time, which yields serializability
    /// even in the presence of blind writes. Locking the *read* stripes too
    /// (not just the write stripes) is what makes validation stable: no
    /// concurrent commit can install into a read box between our check and
    /// our publication, because it would need one of the stripes we hold.
    fn commit_attributed(
        &self,
        snapshot: u64,
        snapshot_ends: bool,
        reads: &[&dyn BackendBox],
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> Result<u64, BoxId> {
        debug_assert!(!writes.is_empty(), "read-only commits skip the backend");
        let inner = &self.inner;
        let tracer = &inner.tracer;
        let commit_start = tracer.span_start();
        let mut mask = 0u64;
        for body in reads {
            mask |= StripeTable::mask_of(body.id());
        }
        for (body, _) in &writes {
            mask |= StripeTable::mask_of(body.id());
        }
        let stripes = inner.stripes.lock_mask(mask);
        // Mutation hook (`test-hooks` feature only): checker self-tests flip
        // this to skip validation and assert `wtf-report` rejects the
        // resulting non-serializable history.
        #[cfg(feature = "test-hooks")]
        let validate = !crate::test_hooks::skip_validation();
        #[cfg(not(feature = "test-hooks"))]
        let validate = true;
        if validate {
            for body in reads.iter().map(|&b| body_of(b)) {
                if body.head_version() > snapshot {
                    // Attribute the abort to the box whose version check
                    // failed — the input to the per-run conflict hotspot
                    // report. The `TxnAttemptAbort` event additionally closes
                    // the attempt for retry-lineage profiling (both backends
                    // emit the identical record on this path).
                    tracer.charge_conflict(body.id.0);
                    tracer.record(EventKind::TxnAttemptAbort, body.id.0, snapshot);
                    return Err(body.id);
                }
            }
        }
        let validated = tracer.span_end(
            EventKind::StmValidationSpan,
            commit_start,
            reads.len() as u64,
        );
        if tracer.on() {
            tracer.metrics.validation_latency.record(validated);
        }
        // Reserve the version ticket only now, after validation under locks:
        // every reserved ticket is certain to publish, so the clock (advanced
        // strictly in ticket order below) can never stall on an aborted
        // commit.
        let version = inner.ticket.next_version.fetch_add(1, Ordering::AcqRel) + 1;
        inner
            .stats
            .add(Counter::VersionsInstalled, writes.len() as u64);
        // The borrows stay in `writes` for the GC pass below, so each
        // value is shared into its chain rather than moved.
        for &(body, ref value) in &writes {
            let body = body_of(body);
            body.install(version, Arc::clone(value));
            tracer.record_full(EventKind::StmInstall, body.id.0, version);
        }
        // Publish in ticket order: wait until every earlier ticket is fully
        // installed, then expose ours. A snapshot at clock value `c` therefore
        // always sees a fully installed prefix `0..=c` (opacity). The wait is
        // only ever on earlier ticket holders, each of which already holds all
        // the locks it needs (see module docs), so this cannot deadlock.
        let mut spins = 0u32;
        let publish_start = tracer.span_start();
        while inner.horizon.now() != version - 1 {
            spins += 1;
            if spins < 1 << 12 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SeqCst: orders the publication against the registry's slot stores
        // and the horizon scan below (see `registry` module docs).
        inner.horizon.publish(version);
        if spins > 0 {
            inner.stats.add(Counter::PublishWaits, 1);
        }
        if tracer.on() {
            // The histogram replaces the single-integer `publish_waits` as
            // the contention signal: it shows *how long* publication stalls,
            // not just that it did. The span is only worth a trace row when
            // the committer actually waited.
            let waited = tracer.now().saturating_sub(publish_start);
            tracer.metrics.publish_wait.record(waited);
            if spins > 0 {
                tracer.record_at(publish_start, EventKind::PublishWaitSpan, waited, version);
            }
        }
        // GC after publication, still under our stripes (prune requires the
        // box's stripe): the horizon is the oldest live snapshot other than
        // our own, if it dies with this commit — an escaped future that
        // still runs reads under it.
        let mut pruned = 0usize;
        let own = if snapshot_ends { snapshot } else { u64::MAX };
        let min_active = inner.horizon.min_active_excluding(own, version);
        for &(body, _) in &writes {
            let body = body_of(body);
            let freed = body.prune(min_active);
            if freed > 0 {
                tracer.record_full(EventKind::StmPrune, body.id.0, freed as u64);
            }
            pruned += freed;
        }
        drop(stripes);
        // Then the retired box bodies, with no stripe held (a freed body
        // drops its chain's values) and our own snapshot counted, unlike
        // above: an escaping future may still borrow under it (see
        // `wtf-backend`'s horizon module docs).
        inner.horizon.drain();
        inner.stats.add(Counter::Commits, 1);
        inner.stats.add(Counter::VersionsPruned, pruned as u64);
        if tracer.on() {
            let dur = tracer.span_end(EventKind::StmCommitSpan, commit_start, version);
            tracer.metrics.commit_latency.record(dur);
        }
        Ok(version)
    }
}

/// Number of distinct snapshots currently registered (diagnostics).
pub fn active_snapshots(stm: &Stm) -> usize {
    stm.inner.horizon.active_snapshots()
}

/// Number of versions `vbox` retains (GC diagnostics). Takes the box's
/// stripe, so it also races committers' prunes safely.
pub fn chain_len<T: TxValue>(vbox: &TBox<T>) -> usize {
    body_of(vbox.body()).chain_len()
}

/// The commit-lock stripe `id` hashes to (tests/diagnostics).
pub fn stripe_index(id: BoxId) -> usize {
    StripeTable::index_of(id)
}

/// RAII hold of a single commit-lock stripe, for tests that need to prove
/// commits on *other* stripes proceed independently (there is no global
/// commit mutex to get stuck on).
pub struct StripeHold<'a> {
    _guard: parking_lot::MutexGuard<'a, ()>,
}

/// Acquires stripe `index` and holds it until the returned guard drops.
/// Any commit whose footprint includes this stripe will block; commits on
/// disjoint stripes are unaffected.
pub fn hold_stripe(stm: &Stm, index: usize) -> StripeHold<'_> {
    StripeHold {
        _guard: stm.inner.stripes.lock_one(index),
    }
}
