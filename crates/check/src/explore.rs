//! Deterministic-schedule explorers: drive the real runtime through a
//! bounded space of interleavings and run every resulting trace through
//! the [`HistoryChecker`](crate::HistoryChecker).
//!
//! Two explorer families, matching the two layers of the stack:
//!
//! * [`explore_backend`] — step-level interleaving of plain STM
//!   transactions. Each thread's program is a fixed sequence of
//!   [`StepOp`]s; the explorer enumerates *every* multiset permutation of
//!   the programs' steps and executes each one against a fresh substrate
//!   of the given [`BackendKind`], through the stepwise [`BackendTxn`].
//!   On a single-version backend *reads* can also conflict (a read of a
//!   box overwritten since the snapshot fails) — a failed read is a final
//!   abort of that thread, exactly like a failed commit. Everything runs
//!   on one OS thread — a commit is a single schedule step, which both
//!   makes schedules exactly reproducible and keeps each transaction's
//!   serialization record contiguous on one trace lane.
//! * [`explore_core_delays`] / [`explore_core_delays_on`] — the
//!   `wtf-core` futures path cannot be single-stepped from outside
//!   (worker threads run future bodies), so it is perturbed instead:
//!   under the deterministic virtual clock, a fixed two-client
//!   submit/evaluate scenario is replayed across a grid of injected
//!   [`Clock::advance`] delays. Distinct delay vectors yield distinct
//!   (but each fully deterministic) schedules through the
//!   commit/doom/adoption machinery.

use crate::checker::{CheckError, CheckReport, HistoryChecker};
use wtf_backend::{BackendKind, BackendTxn, TBox};
use wtf_core::{make_backend, FutureTm, Semantics, TmConfig};
use wtf_trace::{TraceLevel, Tracer};
use wtf_vclock::Clock;

/// One step of an explored transaction. Box indices refer to the
/// explorer's box array (`0..boxes`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOp {
    /// Transactional read of box `i`.
    Read(usize),
    /// Transactional write of `value` to box `i`.
    Write(usize, u64),
    /// Attempt to commit; a conflict is a final abort (steps after it are
    /// skipped).
    Commit,
}

/// Aggregate outcome of an exploration. Returned only when *every*
/// schedule's trace passed the checker.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Distinct schedules executed and verified.
    pub schedules: usize,
    /// Transaction commits across all schedules.
    pub commits: usize,
    /// Final conflict aborts across all schedules.
    pub aborts: usize,
    /// Trace events the checker consumed across all schedules.
    pub events: usize,
    /// Bipath choices across the schedules' acyclic §3.4 witnesses. The
    /// checker *requires* a witness for every schedule (verification
    /// fails otherwise); this counts the non-forced choices it made.
    pub witness_edges: usize,
}

/// Enumerates every interleaving of the threads' step sequences (multiset
/// permutations) and yields each as a sequence of thread indices.
fn for_each_schedule(lens: &[usize], mut visit: impl FnMut(&[usize])) {
    let total: usize = lens.iter().sum();
    let mut taken = vec![0usize; lens.len()];
    let mut cur: Vec<usize> = Vec::with_capacity(total);
    fn rec(
        lens: &[usize],
        taken: &mut [usize],
        cur: &mut Vec<usize>,
        total: usize,
        visit: &mut impl FnMut(&[usize]),
    ) {
        if cur.len() == total {
            visit(cur);
            return;
        }
        for t in 0..lens.len() {
            if taken[t] < lens[t] {
                taken[t] += 1;
                cur.push(t);
                rec(lens, taken, cur, total, visit);
                cur.pop();
                taken[t] -= 1;
            }
        }
    }
    rec(lens, &mut taken, &mut cur, total, &mut visit);
}

/// Number of schedules [`explore_backend`] will execute for the given
/// programs (multinomial coefficient) — use to budget CI configurations.
pub fn schedule_count(programs: &[Vec<StepOp>]) -> usize {
    let total: usize = programs.iter().map(Vec::len).sum();
    let mut count = 1usize;
    let mut placed = 0usize;
    for p in programs {
        for k in 1..=p.len() {
            placed += 1;
            count = count * placed / k; // binomial(placed, k) stays integral
        }
    }
    debug_assert!(placed == total);
    count
}

/// Runs every interleaving of `programs` over `boxes` fresh boxes
/// (initial value 0) through [`BackendTxn`] on the given substrate and
/// checker-verifies each schedule's trace.
///
/// Fails with the offending schedule prefixed to the checker's error if
/// any interleaving produces a non-serializable history or an
/// unjustified abort.
///
/// On a single-version backend (TL2) a [`StepOp::Read`] itself can
/// conflict — the box was overwritten since the transaction's snapshot —
/// which finally aborts that thread (counted in
/// [`ExploreReport::aborts`], remaining steps skipped), so unlike mvstm a
/// thread can die before reaching its `Commit`. Each thread still ends in
/// exactly one terminal event per schedule: `commits + aborts` equals
/// `threads × schedules` whenever every program ends in a `Commit`.
pub fn explore_backend(
    kind: BackendKind,
    programs: &[Vec<StepOp>],
    boxes: usize,
) -> Result<ExploreReport, CheckError> {
    let lens: Vec<usize> = programs.iter().map(Vec::len).collect();
    let mut report = ExploreReport::default();
    let mut failure: Option<CheckError> = None;
    for_each_schedule(&lens, |schedule| {
        if failure.is_some() {
            return;
        }
        match run_one_backend_schedule(kind, programs, boxes, schedule) {
            Ok((check, commits, aborts)) => {
                report.schedules += 1;
                report.commits += commits;
                report.aborts += aborts;
                report.events += check.events;
                report.witness_edges += check.witness_edges;
            }
            Err(e) => {
                failure = Some(CheckError(format!(
                    "{} schedule {:?} (thread index per step): {}",
                    kind.name(),
                    schedule,
                    e.0
                )));
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(report),
    }
}

fn run_one_backend_schedule(
    kind: BackendKind,
    programs: &[Vec<StepOp>],
    boxes: usize,
    schedule: &[usize],
) -> Result<(CheckReport, usize, usize), CheckError> {
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 12);
    let backend = make_backend(kind, tracer.clone());
    let backend = &*backend;
    let vars: Vec<TBox<u64>> = (0..boxes).map(|_| TBox::new_on(backend, 0u64)).collect();
    let mut txns: Vec<Option<BackendTxn<'_>>> = programs.iter().map(|_| None).collect();
    let mut dead = vec![false; programs.len()];
    let mut cursor = vec![0usize; programs.len()];
    let (mut commits, mut aborts) = (0usize, 0usize);
    for &t in schedule {
        let op = programs[t][cursor[t]];
        cursor[t] += 1;
        if dead[t] {
            continue; // aborted transactions skip their remaining steps
        }
        match op {
            StepOp::Read(b) => {
                let tx = txns[t].get_or_insert_with(|| BackendTxn::begin(backend));
                if tx.read(&vars[b]).is_err() {
                    // Single-version backends: the box moved past this
                    // transaction's snapshot — a final abort, like a
                    // failed commit-time validation.
                    aborts += 1;
                    dead[t] = true;
                    txns[t] = None;
                }
            }
            StepOp::Write(b, v) => {
                let tx = txns[t].get_or_insert_with(|| BackendTxn::begin(backend));
                tx.write(&vars[b], v).expect("buffered writes cannot fail");
            }
            StepOp::Commit => {
                let tx = match txns[t].take() {
                    Some(tx) => tx,
                    None => BackendTxn::begin(backend),
                };
                match tx.commit() {
                    Ok(()) => commits += 1,
                    Err(_) => {
                        aborts += 1;
                        dead[t] = true;
                    }
                }
            }
        }
    }
    drop(txns); // release leftover snapshots before harvesting lanes
    let check = HistoryChecker::from_tracer(&tracer).verify()?;
    Ok((check, commits, aborts))
}

/// Delay-grid exploration of the `wtf-core` futures path.
///
/// Under a fresh deterministic virtual clock per delay vector, two
/// clients contend on two boxes: each runs a top-level that submits a
/// future writing one box, does a conflicting read/increment of the other
/// box in the continuation, then evaluates the future. Injected delays
/// (one per client, before its atomic, plus one inside each continuation)
/// shift the clients' commit/validation points against each other, so the
/// grid sweeps racy orderings — including doomed runs that restart —
/// through the real commit, doom and (under GAC) adoption machinery.
///
/// Every run's `Full` trace is checker-verified. `grid` supplies the
/// candidate delay values; the explorer executes `grid.len()^4` runs.
pub fn explore_core_delays(
    semantics: Semantics,
    grid: &[u64],
) -> Result<ExploreReport, CheckError> {
    explore_core_delays_on(BackendKind::from_env(), semantics, grid)
}

/// [`explore_core_delays`] pinned to a specific STM substrate, for
/// side-by-side sweeps of the futures path over mvstm and TL2 regardless
/// of `WTF_BACKEND`.
pub fn explore_core_delays_on(
    kind: BackendKind,
    semantics: Semantics,
    grid: &[u64],
) -> Result<ExploreReport, CheckError> {
    let mut report = ExploreReport::default();
    for &d0 in grid {
        for &d1 in grid {
            for &d2 in grid {
                for &d3 in grid {
                    let delays = [d0, d1, d2, d3];
                    let check = run_core_scenario(kind, semantics, delays).map_err(|e| {
                        CheckError(format!("{} delays {delays:?}: {}", kind.name(), e.0))
                    })?;
                    report.schedules += 1;
                    report.commits += check.committed_tops;
                    report.events += check.events;
                    report.witness_edges += check.witness_edges;
                }
            }
        }
    }
    Ok(report)
}

fn run_core_scenario(
    kind: BackendKind,
    semantics: Semantics,
    delays: [u64; 4],
) -> Result<CheckReport, CheckError> {
    let clock = Clock::virtual_time();
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 14);
    clock.enter(|| {
        let tm = FutureTm::builder()
            .config(TmConfig::new(semantics))
            .workers(2)
            .backend_kind(kind)
            .tracer(tracer.clone())
            .build();
        let a = tm.new_vbox(0u64);
        let b = tm.new_vbox(0u64);
        let c = Clock::current();
        let mut clients = Vec::new();
        for (i, pre) in [(0usize, delays[0]), (1usize, delays[1])] {
            let tm = tm.clone();
            let (mine, theirs) = if i == 0 {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            };
            let inner = delays[2 + i];
            clients.push(c.spawn("client", move || {
                Clock::current().advance(pre);
                tm.atomic_infallible(|ctx| {
                    let mine = mine.clone();
                    let fut = ctx.submit(move |fc| {
                        let v = fc.read(&mine)?;
                        fc.write(&mine, v + 1)
                    })?;
                    Clock::current().advance(inner);
                    // Conflicting access: both clients bump the *other*
                    // box too, so commit order matters and late
                    // validators get doomed and restarted.
                    let v = ctx.read(&theirs)?;
                    ctx.write(&theirs, v + 10)?;
                    ctx.evaluate(&fut)
                });
            }));
        }
        for h in clients {
            h.join();
        }
        tm.shutdown();
    });
    HistoryChecker::from_tracer(&tracer).verify()
}
