//! The commit frame both backends share.
//!
//! mvstm and TL2 run one protocol: lock the stripes covering reads ∪
//! writes, check every read against the version its box holds now,
//! install, release, free what the horizon has passed. They differ only
//! in what a box is, which version a read is checked against, and how a
//! write is installed — a [`Protocol`]. [`Backend`] is the one
//! [`StmBackend`] implementation over any protocol; its [`Shared`] state
//! (horizon, stripes, box ids, counters, tracer) is the same for both.
//!
//! The frame owns, in order (`DESIGN.md` § "Commit-path concurrency"):
//!
//! 1. the stripe mask over reads ∪ writes and its ascending lock walk
//!    ([`StripeTable::lock_mask`], deadlock-free);
//! 2. the per-read version check ([`Protocol::version`]) — a failure
//!    charges the box, records `TxnAttemptAbort` and installs nothing —
//!    closed by the validation span and histogram;
//! 3. the backend's install step ([`Protocol::install`]), run while
//!    every stripe is held; it returns the commit version;
//! 4. with the stripes released: the horizon drain, the commit counter,
//!    and the commit span and histogram.
//!
//! Because both backends run this one function, the records a commit
//! emits are the same on both by construction.

use crate::{
    BackendBox, BackendKind, BackendSnapshot, BackendTxn, BoxHandle, BoxId, Counter, Horizon,
    MaskGuards, StmBackend, StmCounters, StmStatsSnapshot, Value,
};
use parking_lot::{Mutex, MutexGuard};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wtf_trace::{EventKind, Tracer};

/// Number of commit-lock stripes. Must stay ≤ 64 so a stripe set fits in
/// a `u64` bitmask.
pub const STRIPES: usize = 64;

/// The stripe `id` hashes to: Fibonacci multiplicative hash, taking the
/// top `log2(STRIPES)` bits so sequentially allocated ids spread across
/// stripes instead of clustering.
#[inline]
pub fn stripe_index(id: BoxId) -> usize {
    (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
}

/// A commit-lock stripe and what its backend keeps beside the lock,
/// padded to its own cache line so committers on different stripes do
/// not false-share.
#[repr(align(64))]
struct Stripe<W> {
    // lock-order: stripe — multi-acquisition only through `lock_mask`'s
    // ascending bitmask walk, the single source of the stripe ordering.
    lock: Mutex<()>,
    word: W,
}

/// The [`STRIPES`] commit locks of one backend instance, shared by all
/// of its boxes. `W` is the per-stripe word beside each lock: TL2's
/// versioned lock word, nothing for mvstm.
pub struct StripeTable<W = ()> {
    stripes: Box<[Stripe<W>]>,
}

impl<W: Default> Default for StripeTable<W> {
    fn default() -> Self {
        StripeTable {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    lock: Mutex::new(()),
                    word: W::default(),
                })
                .collect(),
        }
    }
}

impl<W> StripeTable<W> {
    /// Acquires every stripe in `mask`, in ascending index order.
    ///
    /// The global ordering is what keeps concurrent committers with
    /// overlapping stripe sets deadlock-free: all lock sequences are
    /// sorted, so there can be no cycle in the waits-for graph. The
    /// guards are kept inline, so this allocates nothing.
    pub fn lock_mask(&self, mask: u64) -> MaskGuards<'_> {
        let mut guards = MaskGuards::default();
        let mut rest = mask;
        while rest != 0 {
            let idx = rest.trailing_zeros() as usize;
            guards.hold(idx, self.stripes[idx].lock.lock());
            rest &= rest - 1;
        }
        guards
    }

    /// Acquires the single stripe `index`: a chain walk or a TL2 reader
    /// waiting out a commit, and tests that hold a stripe hostage.
    pub fn lock_one(&self, index: usize) -> MutexGuard<'_, ()> {
        self.stripes[index].lock.lock()
    }

    /// The word beside stripe `index`'s lock.
    pub fn word(&self, index: usize) -> &W {
        &self.stripes[index].word
    }
}

/// What a backend plugs into the frame: its box, the version a read is
/// checked against, and its install step.
pub trait Protocol: Default + Send + Sync + Sized + 'static {
    const KIND: BackendKind;
    /// Kept beside each stripe lock.
    type Word: Default + Send + Sync;
    type Box: BackendBox + 'static;

    /// A new box holding `value` at version 0.
    fn new_box(stripes: &Arc<StripeTable<Self::Word>>, id: BoxId, value: Value) -> Self::Box;

    /// The version commit-time validation checks a read of `b` against,
    /// taken with `b`'s stripe held.
    fn version(b: &Self::Box) -> u64;

    /// Publishes `writes` at a fresh version, which it returns. Runs
    /// after validation passed, with every stripe of `write_mask` (and
    /// of the reads) held.
    fn install(
        shared: &Shared<Self>,
        snapshot: u64,
        snapshot_ends: bool,
        write_mask: u64,
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> u64;

    /// Registers this backend's gauges beyond `stm_clock`.
    fn register_gauges(shared: &Arc<Shared<Self>>);

    /// Recovers the concrete box behind a handle this backend gave out.
    fn body(b: &dyn BackendBox) -> &Self::Box {
        b.as_any()
            .downcast_ref::<Self::Box>()
            .expect("box from a different backend")
    }
}

/// What every backend instance holds, whatever its protocol.
pub struct Shared<P: Protocol> {
    /// The published version clock, the snapshot registry and the
    /// retired box bodies.
    pub horizon: Arc<Horizon>,
    /// Striped commit locks; shared with every box (mvstm's chain walks,
    /// TL2's reads).
    pub stripes: Arc<StripeTable<P::Word>>,
    // ordering: relaxed-rmw — a pure id dispenser; uniqueness is all
    // that matters, nothing is published through it.
    next_box: AtomicU64,
    pub counters: StmCounters,
    /// Observability hooks (`wtf-trace`). Always present — a disabled
    /// tracer costs one relaxed load per hook — so the hot paths carry
    /// no `Option` branch.
    pub tracer: Arc<Tracer>,
    /// The backend's own state (mvstm's version ticket).
    pub protocol: P,
}

impl<P: Protocol> Shared<P> {
    /// Registers gauge `name` reading `f` of this instance. `Weak`
    /// capture: the tracer is owned by `self`, so an `Arc` capture would
    /// cycle and leak.
    pub fn register_gauge(self: &Arc<Self>, name: &str, f: fn(&Self) -> u64) {
        let w = Arc::downgrade(self);
        self.tracer
            .gauges
            .register(name, move || w.upgrade().map_or(0, |s| f(&s)));
    }
}

impl<P: Protocol> Drop for Shared<P> {
    /// Frees the retired bodies no registration holds any more (a body
    /// that held the last handle of another box of this backend would
    /// keep the horizon alive, and with it the whole retire list).
    fn drop(&mut self) {
        self.horizon.close();
    }
}

/// A backend instance over protocol `P`. Cheap to clone (all clones
/// share state); boxes are tied to the instance they were created on.
pub struct Backend<P: Protocol> {
    shared: Arc<Shared<P>>,
}

impl<P: Protocol> Clone for Backend<P> {
    fn clone(&self) -> Self {
        Backend {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<P: Protocol> Default for Backend<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Protocol> Deref for Backend<P> {
    type Target = Shared<P>;

    fn deref(&self) -> &Shared<P> {
        &self.shared
    }
}

impl<P: Protocol> Backend<P> {
    pub fn new() -> Self {
        Self::with_tracer(Tracer::disabled())
    }

    /// An instance whose commit path reports into `tracer`: commit and
    /// validation latency histograms, per-box abort attribution, (at
    /// `Full` level) per-install events, and the live gauges.
    pub fn with_tracer(tracer: Arc<Tracer>) -> Self {
        let shared = Arc::new(Shared {
            horizon: Horizon::new(),
            stripes: Arc::default(),
            next_box: AtomicU64::new(0),
            counters: StmCounters::default(),
            tracer,
            protocol: P::default(),
        });
        if shared.tracer.on() {
            shared.register_gauge("stm_clock", |s| s.horizon.now());
            P::register_gauges(&shared);
        }
        Backend { shared }
    }

    /// `BackendTxn::begin(self)` under the name `benchmark/` calls; kept
    /// for `benchmark/` only.
    pub fn begin_txn(&self) -> BackendTxn<'_> {
        BackendTxn::begin(self)
    }
}

impl<P: Protocol> StmBackend for Backend<P> {
    fn kind(&self) -> BackendKind {
        P::KIND
    }

    fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    fn clock(&self) -> u64 {
        self.horizon.now()
    }

    fn stats(&self) -> StmStatsSnapshot {
        self.counters.snapshot()
    }

    fn note_abort(&self) {
        self.counters.add(Counter::Aborts, 1);
    }

    fn note_read_only_commit(&self) {
        self.counters.add(Counter::Commits, 1);
        self.counters.add(Counter::ReadOnlyCommits, 1);
    }

    fn new_box(&self, value: Value) -> BoxHandle {
        let id = BoxId(self.next_box.fetch_add(1, Ordering::Relaxed));
        BoxHandle::new(&self.horizon, P::new_box(&self.stripes, id, value))
    }

    fn horizon(&self) -> &Arc<Horizon> {
        &self.horizon
    }

    /// Registered against concurrent GC via the registry's
    /// publish-then-recheck protocol (see the registry module docs); it
    /// keeps this snapshot's versions (mvstm) and every body borrowed
    /// under it (both).
    fn acquire_snapshot(&self) -> BackendSnapshot {
        self.horizon.register()
    }

    fn hold_stripe(&self, index: usize) -> MutexGuard<'_, ()> {
        self.stripes.lock_one(index)
    }

    /// Under the stripes covering `reads` ∪ `writes`, every box in
    /// `reads` must still hold a version no newer than `snapshot`, after
    /// which the backend installs all `writes` at a fresh version.
    ///
    /// With all reads re-validated at the commit point the transaction is
    /// logically instantaneous at commit time, which yields
    /// serializability even with blind writes. Locking the *read* stripes
    /// too is what makes validation stable: no concurrent commit can
    /// install into a read box between our check and our publication,
    /// because it would need one of the stripes we hold.
    fn commit_attributed(
        &self,
        snapshot: u64,
        snapshot_ends: bool,
        reads: &[&dyn BackendBox],
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> Result<u64, BoxId> {
        debug_assert!(!writes.is_empty(), "read-only commits skip the backend");
        let shared = &*self.shared;
        let tracer = &shared.tracer;
        let commit_start = tracer.span_start();
        let mut write_mask = 0u64;
        for (body, _) in &writes {
            write_mask |= 1 << stripe_index(body.id());
        }
        let mut mask = write_mask;
        for body in reads {
            mask |= 1 << stripe_index(body.id());
        }
        let version = {
            let _stripes = shared.stripes.lock_mask(mask);
            // Mutation hook (`test-hooks` feature only): checker self-tests
            // flip this to skip validation and assert `wtf-report` rejects
            // the resulting non-serializable history.
            #[cfg(feature = "test-hooks")]
            let validate = !test_hooks::skip_validation();
            #[cfg(not(feature = "test-hooks"))]
            let validate = true;
            if validate {
                for body in reads.iter().map(|&b| P::body(b)) {
                    if P::version(body) > snapshot {
                        // Attribute the abort to the box whose version check
                        // failed — the input to the per-run conflict hotspot
                        // report. The `TxnAttemptAbort` event additionally
                        // closes the attempt for retry-lineage profiling.
                        let id = body.id();
                        tracer.charge_conflict(id.0);
                        tracer.record(EventKind::TxnAttemptAbort, id.0, snapshot);
                        return Err(id);
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
            P::install(shared, snapshot, snapshot_ends, write_mask, writes)
        };
        // Then the retired box bodies, with no stripe held (a freed body
        // drops its values) and our own snapshot counted: an escaping
        // future may still borrow under it (see the horizon module docs).
        shared.horizon.drain();
        shared.counters.add(Counter::Commits, 1);
        if tracer.on() {
            let dur = tracer.span_end(EventKind::StmCommitSpan, commit_start, version);
            tracer.metrics.commit_latency.record(dur);
        }
        Ok(version)
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

    /// When set, every backend's commit skips read-set validation
    /// entirely — the classic write-skew hole a serializable TM must not
    /// have.
    pub fn set_skip_validation(on: bool) {
        SKIP_VALIDATION.store(on, Ordering::SeqCst);
    }

    pub fn skip_validation() -> bool {
        SKIP_VALIDATION.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_stays_in_range_and_spreads() {
        let mut seen = [false; STRIPES];
        for i in 0..10_000u64 {
            let idx = stripe_index(BoxId(i));
            assert!(idx < STRIPES);
            seen[idx] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > STRIPES / 2, "hash should cover most stripes");
    }

    #[test]
    fn lock_mask_acquires_and_releases() {
        let t = StripeTable::<()>::default();
        {
            let _g = t.lock_mask(0b1011);
            // Disjoint mask is still acquirable while the first is held.
            let _h = t.lock_mask(0b0100);
        }
        // All released: full mask acquirable.
        let _all = t.lock_mask(u64::MAX);
    }
}
