//! Stall watchdog: detects no-commit-progress windows and dumps the
//! live dependency graphs + hotspot report before (optionally) aborting
//! the straggler.
//!
//! ## Virtual-clock awareness
//!
//! The watchdog runs on a **plain OS thread, never registered with the
//! TM's clock**: a clock-registered poller would participate in the
//! virtual scheduler and change every makespan (and the trace
//! determinism guarantees with it). Instead the thread only *reads*
//! shared atomics — the STM version clock, the TM counters, the live
//! top-level list — and measures its window in wall time, which is
//! meaningful under both clock modes. Consequences:
//!
//! * it is an observer by default; detection and dumping never touch
//!   the clock, so a watchdog-carrying run stays byte-deterministic
//!   under the virtual clock as long as it doesn't fire (and firing
//!   only writes files + wall-timestamped events);
//! * [`WatchdogConfig::abort_straggler`] dooms the straggler only under
//!   a **real** clock, where `Clock::notify_all` is safe from an
//!   unregistered thread. Under a virtual clock a stall means the
//!   scheduler itself is wedged (or the workload livelocked) and an
//!   unregistered doom could corrupt the simulation, so the watchdog
//!   downgrades to dump-only.

use crate::toplevel::TopLevel;
use crate::{FutureTm, TmInner, TmStatsSnapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wtf_trace::{EventKind, Json};

/// Tuning for [`FutureTm::start_watchdog`].
#[derive(Clone)]
pub struct WatchdogConfig {
    /// How often the watchdog thread polls for progress.
    pub poll: Duration,
    /// No commit/abort/clock progress for this long (while top-levels
    /// are live) counts as a stall.
    pub window: Duration,
    /// Doom the oldest live top-level on stall (real clocks only; see
    /// the module docs). The doomed top restarts with a fresh snapshot.
    pub abort_straggler: bool,
    /// Where to write `watchdog_*.dot` / `watchdog_report.json`;
    /// defaults to the TM's snapshot directory (`WTF_SNAPSHOT_DIR`).
    pub snapshot_dir: Option<PathBuf>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll: Duration::from_millis(50),
            window: Duration::from_secs(1),
            abort_straggler: false,
            snapshot_dir: None,
        }
    }
}

/// Handle to a running watchdog; stops (and joins) the thread on
/// [`WatchdogHandle::stop`] or drop.
pub struct WatchdogHandle {
    // ordering: release-store signals shutdown; the poll loop's
    // acquire-load pairs with it (the join in `stop` provides the final
    // synchronization either way).
    stop: Arc<AtomicBool>,
    // ordering: acqrel-rmw when a stall fires, so the report write-out
    // happens-before a `times_fired` acquire-load that observes the
    // count.
    fired: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl WatchdogHandle {
    /// How many distinct stalls the watchdog has reported.
    pub fn times_fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Signals the watchdog thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for WatchdogHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Everything that counts as forward progress. Any change resets the
/// stall window.
#[derive(PartialEq)]
struct Progress {
    stm_clock: u64,
    stats: TmStatsSnapshot,
}

fn progress(tm: &TmInner) -> Progress {
    Progress {
        stm_clock: tm.stm.clock(),
        stats: tm.stats.snapshot(),
    }
}

impl FutureTm {
    /// Starts a stall watchdog over this TM. Explicit opt-in: runs that
    /// need byte-determinism simply never start one.
    ///
    /// The watchdog holds only a `Weak` reference, so it never keeps a
    /// TM alive; it exits on its own once the TM is dropped.
    pub fn start_watchdog(&self, cfg: WatchdogConfig) -> WatchdogHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicU64::new(0));
        let weak = Arc::downgrade(&self.inner);
        let stop2 = Arc::clone(&stop);
        let fired2 = Arc::clone(&fired);
        let thread = std::thread::Builder::new()
            .name("wtf-watchdog".into())
            .spawn(move || watch_loop(&weak, &cfg, &stop2, &fired2))
            .expect("spawn watchdog thread");
        WatchdogHandle {
            stop,
            fired,
            thread: Some(thread),
        }
    }
}

fn watch_loop(
    weak: &std::sync::Weak<TmInner>,
    cfg: &WatchdogConfig,
    stop: &AtomicBool,
    fired: &AtomicU64,
) {
    let mut last = match weak.upgrade() {
        Some(tm) => progress(&tm),
        None => return,
    };
    let mut since = Instant::now();
    let mut latched = false;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(cfg.poll);
        let Some(tm) = weak.upgrade() else { return };
        let now = progress(&tm);
        if now != last {
            last = now;
            since = Instant::now();
            latched = false;
            continue;
        }
        let live = tm.live_tops();
        if live.is_empty() {
            // Idle is not stalled: nothing is supposed to commit.
            since = Instant::now();
            latched = false;
            continue;
        }
        if !latched && since.elapsed() >= cfg.window {
            latched = true; // one report per stall episode
            fired.fetch_add(1, Ordering::AcqRel);
            report_stall(&tm, &live, cfg, since.elapsed());
        }
    }
}

/// Dumps each live top-level's graph DOT, a JSON hotspot report, and
/// (if configured, real clocks only) dooms the straggler.
fn report_stall(tm: &TmInner, live: &[Arc<TopLevel>], cfg: &WatchdogConfig, stalled: Duration) {
    // The straggler: the oldest live top-level (smallest id) — under
    // in-order commit disciplines it is the one everyone else waits on.
    let straggler = live.iter().min_by_key(|t| t.id);
    let straggler_id = straggler.map_or(u64::MAX, |t| t.id);
    tm.watchdog_stalls.add(1);
    tm.tracer.record(
        EventKind::WatchdogStall,
        straggler_id,
        stalled.as_millis() as u64,
    );
    let dir = cfg.snapshot_dir.as_ref().unwrap_or(&tm.snapshot_dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[wtf-watchdog] cannot create {}: {e}", dir.display());
        return;
    }
    for top in live {
        let path = dir.join(format!("watchdog_top{}.dot", top.id));
        if let Err(e) = std::fs::write(&path, top.graph_dot()) {
            eprintln!("[wtf-watchdog] cannot write {}: {e}", path.display());
        }
    }
    let summary = tm.tracer.summary();
    let hotspots: Vec<Json> = summary
        .hotspots
        .iter()
        .map(|&(id, n)| Json::obj(vec![("box", id.into()), ("conflicts", n.into())]))
        .collect();
    let report = Json::obj(vec![
        ("stalled_ms", (stalled.as_millis() as u64).into()),
        ("straggler", straggler_id.into()),
        (
            "live_tops",
            Json::Arr(live.iter().map(|t| t.id.into()).collect()),
        ),
        ("stm_clock", tm.stm.clock().into()),
        ("hotspots", Json::Arr(hotspots)),
        (
            "graphs",
            Json::Arr(live.iter().map(|t| t.graph_json()).collect()),
        ),
    ]);
    let path = dir.join("watchdog_report.json");
    if let Err(e) = std::fs::write(&path, report.to_string()) {
        eprintln!("[wtf-watchdog] cannot write {}: {e}", path.display());
    }
    if cfg.abort_straggler && !tm.clock.is_virtual() {
        if let Some(top) = straggler {
            top.doom();
            // Real-clock notify is safe from an unregistered thread;
            // wakes settle/evaluate waits so they observe the doom.
            // (A flat top-level has no waiter: it meets the doom at its
            // next operation.)
            top.notify_change(tm);
        }
    }
}
