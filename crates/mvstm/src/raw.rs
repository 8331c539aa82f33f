//! The multi-version [`Protocol`] — what mvstm adds to `wtf-backend`'s
//! shared commit frame — plus the diagnostics the mvstm tests use.
//! Application code reaches all of this through `wtf_backend::atomic` or
//! `FutureTm::atomic`.
//!
//! The commit protocol (see `DESIGN.md` § "Commit-path concurrency");
//! the frame runs steps 1, 2 and 6, this module steps 3 to 5:
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
//!    under the stripes;
//! 6. with the stripes released, free the retired box bodies that
//!    horizon has passed.
//!
//! Beside the stripes of its footprint, a disjoint commit writes three
//! shared words: the ticket, the clock and its own registry slot (at
//! its next begin). Its counters go to its thread's own block.
//!
//! Because tickets are reserved only *after* all stripes are held and
//! validation has passed, a committer spinning in step 4 waits only on
//! earlier ticket holders, each of which already holds every lock it
//! needs — so publication always makes progress, in ticket order.

use crate::vbox::BoxBody;
use crate::Mvstm;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wtf_backend::{
    BackendBox, BackendKind, BoxId, Counter, Protocol, Shared, StripeTable, TBox, TxValue, Value,
};
use wtf_trace::EventKind;

impl Protocol for Mvstm {
    const KIND: BackendKind = BackendKind::Mvstm;
    type Word = ();
    type Box = BoxBody;

    fn new_box(stripes: &Arc<StripeTable>, id: BoxId, value: Value) -> BoxBody {
        BoxBody::new(id, stripes.clone(), value)
    }

    fn version(b: &BoxBody) -> u64 {
        b.head_version()
    }

    fn install(
        shared: &Shared<Self>,
        snapshot: u64,
        snapshot_ends: bool,
        _write_mask: u64,
        writes: Vec<(&dyn BackendBox, Value)>,
    ) -> u64 {
        let (tracer, counters, horizon) = (&shared.tracer, &shared.counters, &shared.horizon);
        // Reserve the version ticket only now, after validation under locks:
        // every reserved ticket is certain to publish, so the clock (advanced
        // strictly in ticket order below) can never stall on an aborted
        // commit.
        let version = shared.protocol.next_version.fetch_add(1, Ordering::AcqRel) + 1;
        counters.add(Counter::VersionsInstalled, writes.len() as u64);
        // The borrows stay in `writes` for the GC pass below, so each
        // value is shared into its chain rather than moved.
        for &(body, ref value) in &writes {
            let body = Self::body(body);
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
        while horizon.now() != version - 1 {
            spins += 1;
            if spins < 1 << 12 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        // SeqCst: orders the publication against the registry's slot stores
        // and the horizon scan below (see `registry` module docs).
        horizon.publish(version);
        if spins > 0 {
            counters.add(Counter::PublishWaits, 1);
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
        let min_active = horizon.min_active_excluding(own, version);
        for &(body, _) in &writes {
            let body = Self::body(body);
            let freed = body.prune(min_active);
            if freed > 0 {
                tracer.record_full(EventKind::StmPrune, body.id.0, freed as u64);
            }
            pruned += freed;
        }
        counters.add(Counter::VersionsPruned, pruned as u64);
        version
    }

    fn register_gauges(shared: &Arc<Shared<Self>>) {
        shared.register_gauge("stm_retained_versions", |s| s.counters.retained_versions());
        shared.register_gauge("stm_gc_horizon_lag", |s| s.horizon.lag());
        shared.register_gauge("stm_active_snapshots", |s| {
            s.horizon.active_snapshots() as u64
        });
        shared.register_gauge("stm_registry_occupancy", |s| s.horizon.occupancy() as u64);
    }
}

/// Number of versions `vbox` retains (GC diagnostics). Takes the box's
/// stripe, so it also races committers' prunes safely.
pub fn chain_len<T: TxValue>(vbox: &TBox<T>) -> usize {
    Mvstm::body(vbox.body()).chain_len()
}
