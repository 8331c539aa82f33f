//! Overhead of the `wtf-trace` hooks on the mvstm commit path (real time).
//!
//! The acceptance bar for the observability layer: a *disabled* tracer —
//! what every `Stm::new()` carries — must cost no more than one relaxed
//! atomic load per hook, i.e. `commit/disabled` must sit within noise of
//! the pre-instrumentation commit cost (compare against
//! `vbox/txn_write_commit_10` from `vbox_ops`, measured on the same
//! machine). The enabled levels are measured alongside so the *price* of
//! turning tracing on is a number, not a guess.
//!
//! The `wtf-telemetry` hub rides the same sampling hook, so its
//! steady-state bar is pinned here too: with no hub attached the hook
//! costs exactly what `hook_enabled_gauge_not_due` costs, and with a hub
//! attached but no epoch due (`hook_telemetry_tick_not_due`) it adds one
//! relaxed load + compare against the precomputed epoch end.

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

    // The wtf-inspect sampling hook with everything off — the acceptance
    // bar for the gauge layer is that this sits within the noise floor of
    // `hook_disabled_record` (one relaxed level load and out).
    g.bench_function("hook_disabled_gauge_sample", |b| {
        b.iter(|| black_box(&off).maybe_sample_gauges())
    });
    // And enabled-but-not-due: the steady-state cost on commit paths when
    // gauges are registered and the period has not elapsed.
    let gauged = Tracer::new(TraceLevel::Lifecycle);
    gauged.gauges.set_period(1 << 40); // effectively never due
    let c1 = gauged.gauges.counter("bench_counter");
    c1.set(7);
    g.bench_function("hook_enabled_gauge_not_due", |b| {
        b.iter(|| black_box(&gauged).maybe_sample_gauges())
    });

    // Telemetry attached, epoch not due: the hub's steady-state cost on
    // every sampling hook is one atomic load + compare. This is the
    // disabled-telemetry overhead pin for the wtf-telemetry PR — compare
    // against `hook_enabled_gauge_not_due` (no hub) on the same machine.
    let ticked = Tracer::new(TraceLevel::Lifecycle);
    ticked.gauges.set_period(1 << 40);
    let cfg = wtf_telemetry::TelemetryConfig {
        epoch_len: 1 << 40, // first epoch never closes during the bench
        ..wtf_telemetry::TelemetryConfig::default()
    };
    let _hub = wtf_telemetry::TelemetryHub::attach(
        std::sync::Arc::clone(&ticked),
        cfg.clone(),
        "mvstm",
        "bench",
    );
    g.bench_function("hook_telemetry_tick_not_due", |b| {
        b.iter(|| black_box(&ticked).maybe_sample_gauges())
    });

    // And the end-to-end version of the same pin: the commit loop on a
    // lifecycle tracer with a hub attached (no epoch closes) should sit
    // within noise of `commit_10_lifecycle`.
    let traced = Tracer::new(TraceLevel::Lifecycle);
    let _hub2 =
        wtf_telemetry::TelemetryHub::attach(std::sync::Arc::clone(&traced), cfg, "mvstm", "bench");
    let stm = Stm::with_tracer(traced);
    let boxes: Vec<TBox<i64>> = (0..1024).map(|i| TBox::new_on(&stm, i as i64)).collect();
    g.bench_function("commit_10_telemetry_attached", |b| {
        b.iter(|| commit_loop(&stm, &boxes))
    });

    // One full gauge sweep over an Stm with live transactions having come
    // and gone. The `stm_active_snapshots` / `stm_registry_occupancy`
    // probes scan every registry slot; since the concurrency-audit pass
    // those scans are `Relaxed` (they decide nothing — see the ordering
    // contract in `registry.rs`), so this row pins the diagnostic-probe
    // cost the SeqCst→Relaxed downgrade bought back.
    g.bench_function("gauge_read_all_registry_probe", |b| {
        b.iter(|| black_box(stm.tracer().gauges.read_all()))
    });

    g.finish();
}

criterion_group!(benches, bench_trace_overhead);
criterion_main!(benches);
