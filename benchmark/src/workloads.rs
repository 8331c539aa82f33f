//! The workloads and the closed loop that drives them.
//!
//! Closed loop: each client thread issues its next top-level transaction
//! when the previous `atomic` returns, so a slower runtime receives less
//! load. Clients never exceed the two cores of the reference machine.

use crate::hist::Hist;
use crate::inputs::{Mix, Op, OpGen};
use crate::spans::{Kind, Probe, Sink, Span};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use transactional_futures::tm::{CmKind, TmStatsSnapshot};
use transactional_futures::trace::{TraceLevel, Tracer};
use transactional_futures::{
    Aborted, BackendKind, FutureTm, Semantics, TxCtx, TxFuture, TxResult, VBox,
};

pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub backend: BackendKind,
    pub clients: usize,
    pub mix: Mix,
    pub boxes: usize,
    pub initial: i64,
    /// Operations per top-level transaction.
    pub ops_per_txn: usize,
    /// 0: operations run in the top-level body. Otherwise every operation
    /// is a transactional future with this many in flight.
    pub futures_in_flight: usize,
    pub workers: usize,
    /// Length of one measured window, chosen so a window holds at least a
    /// thousand transactions and its p99 has ten samples beyond it.
    pub window_ms: u64,
    /// Listed in `BENCHMARK.json`: a workload on which no operation may
    /// fail. The unlisted one is a reproducer (README, "Known failures").
    pub listed: bool,
}

const SHORT: Spec = Spec {
    name: "short-rw-1c",
    why: "2 reads + 2 writes over 4,096 boxes, 1 client: per-transaction fixed cost with nothing shared",
    backend: BackendKind::Mvstm,
    clients: 1,
    mix: Mix::Short,
    boxes: 4096,
    initial: 0,
    ops_per_txn: 1,
    futures_in_flight: 0,
    workers: 1,
    window_ms: 100,
    listed: true,
};

const BANK: Spec = Spec {
    name: "bank-top",
    why: "Bank, 80 % transfers of 10 pairs and 20 % 1,000-account scans, 2 clients: read path, version chains, GC horizon",
    clients: 2,
    mix: Mix::Bank,
    boxes: 1000,
    initial: 1000,
    ..SHORT
};

const BANK_FUTURES: Spec = Spec {
    name: "bank-futures",
    why: "Bank in chunks of 8 operations, each a future evaluated before the next, 1 client: submit/evaluate, graph G, validation, pool",
    clients: 1,
    ops_per_txn: 8,
    futures_in_flight: 1,
    workers: 4,
    window_ms: 1500,
    ..BANK
};

pub const ALL: [Spec; 7] = [
    SHORT,
    Spec {
        name: "short-rw",
        why: "short-rw-1c with 2 clients: the same fixed cost on shared cache lines; the ratio is the scaling factor",
        clients: 2,
        ..SHORT
    },
    Spec {
        name: "short-rw-tl2",
        why: "short-rw on the TL2 backend: same layers above the trait, different substrate below",
        clients: 2,
        backend: BackendKind::Tl2,
        ..SHORT
    },
    BANK,
    BANK_FUTURES,
    Spec {
        name: "zipf-hot",
        why: "8 Zipf(0.99) reads over 1,024 boxes, a spin, 2 writes, 2 clients: the abort/retry path and the contention manager",
        clients: 2,
        mix: Mix::ZipfHot,
        boxes: 1024,
        ..SHORT
    },
    Spec {
        name: "bank-futures-2",
        why: "bank-futures with 2 futures in flight and evaluate_any (the paper's WTF-OutOfOrder): loses updates on real threads",
        futures_in_flight: 2,
        listed: false,
        ..BANK_FUTURES
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// Iterations of the benchmark's own spin inside a `zipf-hot` body: it
/// widens the window between the reads and the commit so two clients
/// conflict often enough for the retry path to matter.
const ZIPF_SPIN: u64 = 500;

pub struct World {
    pub tm: FutureTm,
    pub boxes: Arc<Vec<VBox<i64>>>,
}

/// Set-up as a user pays it: the TM, its pool and the boxes. The backend
/// and the contention manager are named here so no `WTF_*` variable can
/// choose them.
pub fn setup(spec: &Spec, trace: TraceLevel) -> World {
    let tm = FutureTm::builder()
        .semantics(Semantics::WO_GAC)
        .backend_kind(spec.backend)
        .cm(CmKind::Immediate)
        .workers(spec.workers)
        .tracer(Tracer::new(trace))
        .build();
    let boxes = Arc::new((0..spec.boxes).map(|_| tm.new_vbox(spec.initial)).collect());
    World { tm, boxes }
}

fn read(ctx: &mut TxCtx, b: &VBox<i64>, probe: &mut Probe) -> TxResult<i64> {
    let s = probe.enter(Kind::Read);
    let r = ctx.read(b);
    probe.exit(s);
    r
}

fn write(ctx: &mut TxCtx, b: &VBox<i64>, v: i64, probe: &mut Probe) -> TxResult<()> {
    let s = probe.enter(Kind::Write);
    let r = ctx.write(b, v);
    probe.exit(s);
    r
}

/// Runs one operation inside a transaction. `Total` returns the sum it
/// read; the others return 0. `broken` (tests only) drops the credit leg
/// of a transfer's first pair, which the invariant must catch.
fn apply(
    ctx: &mut TxCtx,
    boxes: &[VBox<i64>],
    op: &Op,
    probe: &mut Probe,
    broken: bool,
) -> TxResult<i64> {
    match *op {
        Op::Incr2 { a, b } => {
            let (a, b) = (&boxes[a as usize], &boxes[b as usize]);
            let va = read(ctx, a, probe)?;
            let vb = read(ctx, b, probe)?;
            write(ctx, a, va + 1, probe)?;
            write(ctx, b, vb + 1, probe)?;
            Ok(0)
        }
        Op::Transfer { pairs, amount } => {
            for (i, &(from, to)) in pairs.iter().enumerate() {
                let (from, to) = (&boxes[from as usize], &boxes[to as usize]);
                let f = read(ctx, from, probe)?;
                write(ctx, from, f - amount, probe)?;
                if broken && i == 0 {
                    continue;
                }
                let t = read(ctx, to, probe)?;
                write(ctx, to, t + amount, probe)?;
            }
            Ok(0)
        }
        Op::Total => {
            let mut total = 0;
            for b in boxes {
                total += read(ctx, b, probe)?;
            }
            Ok(total)
        }
        Op::Zipf { reads } => {
            let mut vals = [0i64; crate::inputs::ZIPF_READS];
            for (v, &r) in vals.iter_mut().zip(&reads) {
                *v = read(ctx, &boxes[r as usize], probe)?;
            }
            let mut acc = vals[7] as u64;
            for i in 0..ZIPF_SPIN {
                acc = black_box(acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i));
            }
            black_box(acc);
            write(ctx, &boxes[reads[0] as usize], vals[0] + 1, probe)?;
            write(ctx, &boxes[reads[1] as usize], vals[1] + 1, probe)?;
            Ok(0)
        }
    }
}

/// `getTotalAmount` results of one committed transaction, in place.
#[derive(Default)]
struct Totals {
    seen: [i64; 8],
    len: usize,
}

impl Totals {
    fn push(&mut self, op: &Op, value: i64) {
        if matches!(op, Op::Total) {
            self.seen[self.len] = value;
            self.len += 1;
        }
    }
}

/// One top-level transaction over `chunk`.
fn run_txn(
    world: &World,
    spec: &Spec,
    chunk: &[Op],
    probe: &mut Probe,
    broken: bool,
) -> Result<Totals, Aborted> {
    let boxes = &world.boxes;
    let atomic = probe.enter(Kind::Atomic);
    let out = world.tm.atomic(|ctx| {
        let body = probe.enter(Kind::Body);
        let r = if spec.futures_in_flight == 0 {
            direct_body(ctx, boxes, chunk, probe, broken)
        } else {
            futures_body(ctx, boxes, chunk, spec.futures_in_flight, probe, broken)
        };
        probe.exit(body);
        r
    });
    probe.exit(atomic);
    out
}

fn direct_body(
    ctx: &mut TxCtx,
    boxes: &[VBox<i64>],
    chunk: &[Op],
    probe: &mut Probe,
    broken: bool,
) -> TxResult<Totals> {
    let mut totals = Totals::default();
    for op in chunk {
        let v = apply(ctx, boxes, op, probe, broken)?;
        totals.push(op, v);
    }
    Ok(totals)
}

/// The paper's WTF-OutOfOrder: every operation a future, `limit` in
/// flight, whichever settles first is evaluated first.
fn futures_body(
    ctx: &mut TxCtx,
    boxes: &Arc<Vec<VBox<i64>>>,
    chunk: &[Op],
    limit: usize,
    probe: &mut Probe,
    broken: bool,
) -> TxResult<Totals> {
    let mut totals = Totals::default();
    let mut futures: Vec<TxFuture<i64>> = Vec::with_capacity(limit);
    let mut ops: Vec<Op> = Vec::with_capacity(limit);
    let mut settle = |ctx: &mut TxCtx,
                      futures: &mut Vec<TxFuture<i64>>,
                      ops: &mut Vec<Op>,
                      probe: &mut Probe|
     -> TxResult<()> {
        let s = probe.enter(Kind::Evaluate);
        let r = ctx.evaluate_any(futures);
        probe.exit(s);
        let (i, v) = r?;
        futures.remove(i);
        totals.push(&ops.remove(i), v);
        Ok(())
    };
    for &op in chunk {
        if futures.len() == limit {
            settle(ctx, &mut futures, &mut ops, probe)?;
        }
        let s = probe.enter(Kind::Submit);
        let remote = probe.remote_handle();
        let boxes = boxes.clone();
        let f = ctx.submit(move |c| {
            let mut p = Probe::remote(&remote);
            let body = p.enter(Kind::FutureBody);
            let r = apply(c, &boxes, &op, &mut p, broken);
            p.exit(body);
            p.flush();
            r
        });
        probe.exit(s);
        futures.push(f?);
        ops.push(op);
    }
    while !futures.is_empty() {
        settle(ctx, &mut futures, &mut ops, probe)?;
    }
    Ok(totals)
}

/// CPUs this process may run on, in order.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed, which
    // is all sched_getaffinity(2) requires; pid 0 names the caller.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Pins the calling thread to `cpu`. Returns whether the kernel agreed.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed, which is all
    // sched_setaffinity(2) requires; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cpu: usize) -> bool {
    false
}

/// What one client measured in one phase (phase 0 is the warm-up).
#[derive(Clone, Default)]
pub struct Phase {
    pub hist: Hist,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
}

const STOP: usize = usize::MAX;

struct Control {
    // ordering: relaxed-store by the timing thread, relaxed-load by
    // clients — a phase number that publishes no other data; a client
    // that sees it one transaction late counts that transaction in the
    // neighbouring window.
    phase: AtomicUsize,
    start: Barrier,
}

struct ClientOut {
    phases: Vec<Phase>,
    /// Commits over the whole pass, warm-up and tail included: the final
    /// audit needs every one of them.
    committed: u64,
}

/// What every client of a pass shares.
struct Shared<'a> {
    world: &'a World,
    spec: &'a Spec,
    seed: u64,
    ctl: Control,
    broken: bool,
    /// Client `i` runs on `cpus[i % len]`, so that the scheduler cannot
    /// put two clients on one core, where they would not contend at all.
    cpus: Vec<usize>,
}

fn client(shared: &Shared, index: usize, out: &mut ClientOut, probe: &mut Probe) {
    let Shared {
        world,
        spec,
        seed,
        ctl,
        broken,
        cpus,
    } = shared;
    if !cpus.is_empty() {
        pin_to(cpus[index % cpus.len()]);
    }
    let mut gen = OpGen::new(spec.mix, spec.boxes, *seed, index);
    let mut chunk = vec![Op::Total; spec.ops_per_txn];
    // Bank: the total the last committed scan saw. A lost update shifts
    // it for good, so each event is counted once and then re-based.
    let mut expected_total = spec.initial * spec.boxes as i64;
    let mut seq = 0u64;
    ctl.start.wait();
    loop {
        for op in &mut chunk {
            *op = gen.next_op();
        }
        probe.begin_txn(index, seq);
        seq += 1;
        let t0 = Instant::now();
        let result = run_txn(world, spec, &chunk, probe, *broken);
        let ns = t0.elapsed().as_nanos() as u64;
        let mut ok = result.is_ok();
        if let Ok(totals) = &result {
            out.committed += 1;
            for &t in &totals.seen[..totals.len] {
                if t != expected_total {
                    ok = false;
                    expected_total = t;
                }
            }
        }
        let phase = ctl.phase.load(Ordering::Relaxed);
        if phase == STOP {
            return;
        }
        let p = &mut out.phases[phase];
        p.hist.record(ns);
        p.attempted += 1;
        p.committed += u64::from(result.is_ok());
        p.failed += u64::from(!ok);
    }
}

/// One measured window, all clients merged.
pub struct Window {
    pub seconds: f64,
    /// Resident set of the process when the window closed.
    pub rss_mb: f64,
    pub hist: Hist,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
}

impl Window {
    pub fn txn_per_s(&self) -> f64 {
        self.committed as f64 / self.seconds
    }
}

pub struct Counters {
    pub tm: TmStatsSnapshot,
    pub stm: transactional_futures::stm::StmStatsSnapshot,
    pub cm_waits: u64,
    pub cm_total_wait: u64,
}

pub struct PassOut {
    pub windows: Vec<Window>,
    /// Counter deltas over the measured windows.
    pub counters: Counters,
    /// Audited sum minus the sum the committed transactions imply.
    pub final_drift: i64,
    /// Clients that panicked (each also counts as one failed operation).
    pub panicked: u64,
    pub spans: Vec<Span>,
}

impl PassOut {
    /// Median over the measured windows of what `f` reads off each.
    pub fn median_over(&self, f: impl Fn(&Window) -> f64) -> f64 {
        crate::report::median(&self.windows.iter().map(f).collect::<Vec<_>>())
    }

    /// Attempted and failed operations over the windows, plus the audit
    /// and any panicked client.
    pub fn tally(&self) -> (u64, u64) {
        let attempted: u64 = self.windows.iter().map(|w| w.attempted).sum();
        let failed: u64 = self.windows.iter().map(|w| w.failed).sum();
        (
            attempted + 1 + self.panicked,
            failed + u64::from(self.final_drift != 0) + self.panicked,
        )
    }
}

pub struct PassPlan {
    pub warmup: Duration,
    /// Measured time, cut into windows of about `Spec::window_ms`.
    pub measure: Duration,
    pub traced: bool,
    pub broken: bool,
}

/// Resident set of this process, from `/proc/self/statm` (0 elsewhere).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |pages| pages * 4096.0 / (1024.0 * 1024.0))
}

fn counters(tm: &FutureTm) -> Counters {
    let cm = tm.cm().stats();
    Counters {
        tm: tm.stats(),
        stm: tm.stm().stats(),
        cm_waits: cm.waits,
        cm_total_wait: cm.total_wait,
    }
}

/// Runs one pass on `world`: warm-up, the measured windows, then a
/// quiescent audit transaction. Shuts the TM down.
pub fn run_pass(world: World, spec: &Spec, seed: u64, plan: &PassPlan) -> PassOut {
    let n_windows =
        ((plan.measure.as_millis() as u64 + spec.window_ms / 2) / spec.window_ms).max(1);
    let n_windows = n_windows as usize;
    let shared = Shared {
        world: &world,
        spec,
        seed,
        ctl: Control {
            phase: AtomicUsize::new(0),
            start: Barrier::new(spec.clients + 1),
        },
        broken: plan.broken,
        cpus: allowed_cpus(),
    };
    let ctl = &shared.ctl;
    let sink = plan.traced.then(Sink::new);
    let mut outs: Vec<ClientOut> = (0..spec.clients)
        .map(|_| ClientOut {
            phases: vec![Phase::default(); n_windows + 1],
            committed: 0,
        })
        .collect();
    let mut edges = Vec::with_capacity(n_windows + 1);
    let mut rss = Vec::with_capacity(n_windows + 1);
    let mut panicked = 0u64;
    let (before, after) = std::thread::scope(|s| {
        let handles: Vec<_> = outs
            .iter_mut()
            .enumerate()
            .map(|(i, out)| {
                let (shared, sink) = (&shared, &sink);
                s.spawn(move || {
                    let mut probe = sink.as_ref().map_or_else(Probe::off, Probe::on);
                    client(shared, i, out, &mut probe);
                    probe.flush();
                })
            })
            .collect();
        ctl.start.wait();
        std::thread::sleep(plan.warmup);
        let before = counters(&world.tm);
        let started = Instant::now();
        for w in 1..=n_windows {
            edges.push(Instant::now());
            rss.push(rss_mb());
            ctl.phase.store(w, Ordering::Relaxed);
            // Against the start, so that late wake-ups do not add up.
            let due = started + plan.measure.mul_f64(w as f64 / n_windows as f64);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        edges.push(Instant::now());
        rss.push(rss_mb());
        ctl.phase.store(STOP, Ordering::Relaxed);
        let after = counters(&world.tm);
        for h in handles {
            // A client panic is a failed operation, not a crashed run.
            panicked += u64::from(h.join().is_err());
        }
        (before, after)
    });
    let windows = (1..=n_windows)
        .map(|w| {
            let mut hist = Hist::new();
            let (mut attempted, mut committed, mut failed) = (0, 0, 0);
            for out in &outs {
                let p = &out.phases[w];
                hist.merge(&p.hist);
                attempted += p.attempted;
                committed += p.committed;
                failed += p.failed;
            }
            Window {
                seconds: (edges[w] - edges[w - 1]).as_secs_f64(),
                rss_mb: rss[w],
                hist,
                attempted,
                committed,
                failed,
            }
        })
        .collect();
    let committed: u64 = outs.iter().map(|o| o.committed).sum();
    let boxes = &world.boxes;
    let audited = world
        .tm
        .atomic(|ctx| boxes.iter().try_fold(0i64, |acc, b| Ok(acc + ctx.read(b)?)))
        .expect("the audit never aborts itself");
    let implied = match spec.mix {
        Mix::Bank => spec.initial * spec.boxes as i64,
        Mix::Short | Mix::ZipfHot => spec.initial * spec.boxes as i64 + 2 * committed as i64,
    };
    world.tm.shutdown();
    PassOut {
        windows,
        counters: Counters {
            tm: after.tm.delta_since(&before.tm),
            stm: after.stm.delta_since(&before.stm),
            cm_waits: after.cm_waits - before.cm_waits,
            cm_total_wait: after.cm_total_wait - before.cm_total_wait,
        },
        final_drift: audited - implied,
        panicked,
        spans: sink.map(|s| s.take()).unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(traced: bool, broken: bool) -> PassPlan {
        PassPlan {
            warmup: Duration::from_millis(20),
            measure: Duration::from_millis(200),
            traced,
            broken,
        }
    }

    #[test]
    fn every_workload_commits_and_audits_clean() {
        // The unlisted workload has a known lost update; its own test
        // below only asks that failures are counted.
        for spec in ALL.iter().filter(|s| s.listed) {
            let out = run_pass(setup(spec, TraceLevel::Off), spec, 1, &quick(false, false));
            let (attempted, failed) = out.tally();
            assert!(attempted > 10, "{}: {attempted} attempted", spec.name);
            assert_eq!(failed, 0, "{}", spec.name);
            assert_eq!(out.final_drift, 0, "{}", spec.name);
            assert_eq!(out.windows.len(), if spec.window_ms == 100 { 2 } else { 1 });
            assert!(out.counters.tm.top_commits > 0, "{}", spec.name);
        }
    }

    #[test]
    fn bank_futures_2_counts_instead_of_panicking() {
        let spec = find("bank-futures-2").unwrap();
        let out = run_pass(setup(spec, TraceLevel::Off), spec, 1, &quick(true, false));
        let (attempted, failed) = out.tally();
        assert!(attempted > 10 && failed <= attempted);
        assert_eq!(out.panicked, 0);
        assert!(out.counters.tm.futures_submitted > 0);
        let sum = crate::spans::summarize(&out.spans);
        assert!(sum.attempts_per_commit >= 1.0 && sum.submit_ns > 0.0 && sum.future_body_ns > 0.0);
    }

    #[test]
    fn a_broken_transfer_is_a_failure_not_a_panic() {
        let spec = find("bank-top").unwrap();
        let out = run_pass(setup(spec, TraceLevel::Off), spec, 1, &quick(false, true));
        let (attempted, failed) = out.tally();
        assert!(
            failed > 0,
            "one skipped leg must show: 0 of {attempted} failed"
        );
        assert!(
            out.final_drift < 0,
            "debits without credits: {}",
            out.final_drift
        );
        assert_eq!(out.panicked, 0);
    }
}
