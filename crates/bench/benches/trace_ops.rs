//! Overhead of the `wtf-trace` hooks on the mvstm commit path (real time).
//!
//! The acceptance bar for the observability layer: a *disabled* tracer —
//! what every `Stm::new()` carries — must cost no more than one relaxed
//! atomic load per hook, i.e. `commit/disabled` must sit within noise of
//! the pre-instrumentation commit cost (compare against
//! `vbox/txn_write_commit_10` from `vbox_ops`, measured on the same
//! machine). The enabled levels are measured alongside so the *price* of
//! turning tracing on is a number, not a guess.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wtf_backend::{atomic, StmBackend, TBox};
use wtf_mvstm::Stm;
use wtf_trace::{TraceLevel, Tracer};

fn commit_loop(stm: &Stm, boxes: &[TBox<i64>]) {
    atomic(stm, |tx| {
        for i in 0..10 {
            tx.write(&boxes[(i * 91) % boxes.len()], i as i64)?;
        }
        Ok(())
    })
    .unwrap();
}

fn bench_trace_overhead(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));

    for (name, level) in [
        ("commit_10_disabled", TraceLevel::Off),
        ("commit_10_lifecycle", TraceLevel::Lifecycle),
        ("commit_10_full", TraceLevel::Full),
    ] {
        let stm = Stm::with_tracer(Tracer::new(level));
        let boxes: Vec<TBox<i64>> = (0..1024).map(|i| TBox::new_on(&stm, i as i64)).collect();
        g.bench_function(name, |b| b.iter(|| commit_loop(&stm, &boxes)));
    }

    // The raw hook, isolated: record() against an off tracer is the cost
    // added to *every* instrumented operation when tracing is unused.
    let off = Tracer::new(TraceLevel::Off);
    g.bench_function("hook_disabled_record", |b| {
        b.iter(|| off.record(black_box(wtf_trace::EventKind::TopCommit), 1, 2))
    });
    let on = Tracer::new(TraceLevel::Lifecycle);
    g.bench_function("hook_enabled_record", |b| {
        b.iter(|| on.record(black_box(wtf_trace::EventKind::TopCommit), 1, 2))
    });

    // One full gauge sweep over a traced Stm. The `stm_active_snapshots` / `stm_registry_occupancy`
    // probes scan every registry slot; since the concurrency-audit pass
    // those scans are `Relaxed` (they decide nothing — see the ordering
    // contract in `registry.rs`), so this row pins the diagnostic-probe
    // cost the SeqCst→Relaxed downgrade bought back.
    let stm = Stm::with_tracer(Tracer::new(TraceLevel::Lifecycle));
    g.bench_function("gauge_read_all_registry_probe", |b| {
        b.iter(|| black_box(stm.tracer().gauges.read_all()))
    });

    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
