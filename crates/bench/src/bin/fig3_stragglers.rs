//! Fig. 3: "SO, unlike WO, suffers from stragglers."
//!
//! A top-level transaction logically composed of 8 commutative sub-tasks,
//! parallelized with up to 3 concurrent futures. A new future is activated
//! whenever the continuation detects that a previously submitted future
//! completed — the *oldest* one under SO (JTF can only commit futures in
//! spawn order), *any* one under WO. Future 1 is a straggler (10x the
//! work); under SO it blocks the whole pipeline, under WO the other tasks
//! stream around it.

use std::sync::Arc;
use wtf_bench::{emit_report, f3, table_header, table_row, FigReport};
use wtf_core::{with_backend, BackendKind, FutureTm, Semantics, TxFuture};
use wtf_report::Trace;
use wtf_trace::{chrome, knobs, Json, Tracer};
use wtf_vclock::Clock;

const TASKS: usize = 8;
const CONCURRENT: usize = 3;
const BASE_WORK: u64 = 10_000;
const STRAGGLER_FACTOR: u64 = 10;

/// Runs the Fig. 3 scenario; returns (per-task completion times, makespan)
/// plus the tracer (recording at the `WTF_TRACE` level) for export.
fn run(semantics: Semantics, in_order: bool) -> (Vec<(usize, u64)>, u64, Arc<Tracer>) {
    let clock = Clock::virtual_time();
    let tracer = Tracer::from_env();
    let t2 = Arc::clone(&tracer);
    let completions = clock.enter(move || {
        let tm = FutureTm::builder()
            .semantics(semantics)
            .workers(CONCURRENT + 1)
            .tracer(t2)
            .build();
        let log = tm.new_vbox::<Vec<(usize, u64)>>(Vec::new());
        let log2 = log.clone();
        tm.atomic_infallible(move |ctx| {
            let mut in_flight: Vec<(usize, TxFuture<u64>)> = Vec::new();
            let mut done: Vec<(usize, u64)> = Vec::new();
            let mut next = 0usize;
            while next < TASKS || !in_flight.is_empty() {
                while next < TASKS && in_flight.len() < CONCURRENT {
                    let work = if next == 0 {
                        BASE_WORK * STRAGGLER_FACTOR
                    } else {
                        BASE_WORK
                    };
                    in_flight.push((
                        next,
                        ctx.submit(move |c| {
                            c.work(work);
                            Ok(Clock::current().now())
                        })?,
                    ));
                    next += 1;
                }
                let (slot, finished_at) = if in_order {
                    (0, ctx.evaluate(&in_flight[0].1)?)
                } else {
                    let futs: Vec<TxFuture<u64>> =
                        in_flight.iter().map(|(_, f)| f.clone()).collect();
                    let (i, v) = ctx.evaluate_any(&futs)?;
                    (i, v)
                };
                let (task, _) = in_flight.remove(slot);
                done.push((task, finished_at));
            }
            ctx.write(&log2, done.clone())?;
            Ok(())
        });
        let out = log.read_latest();
        // Final gauge sample: closes every series at end-of-run virtual
        // time (deterministic, so safe for the byte-stable baselines).
        tm.tracer().sample_gauges();
        tm.shutdown();
        out
    });
    (completions, clock.makespan(), tracer)
}

fn main() {
    let mut report = FigReport::begin(
        "fig3_stragglers",
        "Fig. 3 (straggler illustration)",
        "Fig 3: task completion order and times (task 0 is the 10x straggler)",
        &["mode", "evaluation order (task@time)", "makespan"],
    );
    for (name, mode, sem, in_order) in [
        ("SO (strongly ordered)", "so", Semantics::SO, true),
        ("WO (weakly ordered)", "wo", Semantics::WO_GAC, false),
    ] {
        let (completions, makespan, tracer) = run(sem, in_order);
        // WTF_REPORT=1: verify the run we just traced independently of
        // the TM's own bookkeeping, and profile its critical path — under
        // SO the report should finger the straggler future as the
        // dominant culprit. `analyze` gates on the partition invariant
        // (category totals == makespan), so CI fails loudly if
        // attribution ever leaks time.
        if knobs::env().report() && tracer.summary().enabled() {
            let trace = Trace {
                makespan: Some(makespan),
                ..Trace::from_tracer(&tracer)
            };
            let (check, profile) = trace
                .analyze()
                .unwrap_or_else(|e| panic!("WTF_REPORT failed for fig3 {mode}: {e}"));
            eprintln!("wtf-report[{mode}]: {}", check.summary());
            emit_report(&format!("fig3_profile_{mode}"), &profile.report(10));
            let folded = wtf_bench::results_dir().join(format!("fig3_profile_{mode}.folded"));
            std::fs::write(&folded, profile.folded_stacks())
                .unwrap_or_else(|e| panic!("write {}: {e}", folded.display()));
            eprintln!("wtf-report[{mode}]: wrote {}", folded.display());
        }
        let order: Vec<String> = completions
            .iter()
            .map(|(t, at)| format!("T{t}@{at}"))
            .collect();
        table_row(&[&name, &order.join(" "), &makespan]);
        report.row(vec![
            ("mode", mode.into()),
            ("makespan", makespan.into()),
            (
                "completions",
                Json::Arr(
                    completions
                        .iter()
                        .map(|&(t, at)| {
                            Json::obj(vec![("task", t.into()), ("completed_at", at.into())])
                        })
                        .collect(),
                ),
            ),
            ("trace", tracer.summary().to_json()),
        ]);
        // The headline deliverable of the tracing PR: a Perfetto-loadable
        // timeline of the straggler pipeline (only when tracing is on —
        // an empty trace would overwrite a useful baseline with noise).
        if tracer.summary().enabled() {
            let trace = chrome::chrome_trace(&tracer.lanes(), tracer.events_dropped());
            emit_report(&format!("fig3_trace_{mode}"), &trace);
        }
    }
    let (_, so, _) = run(Semantics::SO, true);
    let (_, wo, _) = run(Semantics::WO_GAC, false);
    println!();
    println!(
        "WO completes the 8 tasks {}x faster than SO (paper: WO is immune to stragglers)",
        f3(so as f64 / wo as f64)
    );
    let ideal = (BASE_WORK * (STRAGGLER_FACTOR + TASKS as u64 - 1)).div_ceil(CONCURRENT as u64);
    println!(
        "(straggler-bound lower bound ≈ {}, WO achieved {wo})",
        ideal.max(BASE_WORK * STRAGGLER_FACTOR)
    );
    // Comparative substrate rows: the WO pipeline re-run on each backend.
    // This scenario is one uncontended transaction, so the substrates
    // should agree on the makespan to within commit-path cost noise.
    println!();
    table_header(
        "backend comparison (WO pipeline per substrate)",
        &["backend", "makespan"],
    );
    for kind in BackendKind::ALL {
        let (_, makespan, _) = with_backend(kind, || run(Semantics::WO_GAC, false));
        table_row(&[&kind.name(), &makespan]);
        report.row(vec![
            ("system", kind.name().into()),
            ("mode", "wo".into()),
            ("makespan", makespan.into()),
        ]);
    }
    report.emit();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wo_beats_so_on_stragglers() {
        let (_, so, _) = run(Semantics::SO, true);
        let (_, wo, _) = run(Semantics::WO_GAC, false);
        assert!(wo < so, "WO {wo} should beat SO {so}");
        // WO is bounded by the straggler itself.
        assert!(wo <= BASE_WORK * STRAGGLER_FACTOR + BASE_WORK);
    }
}
