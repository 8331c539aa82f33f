//! A node's write buffer belongs to the `TxCtx` that runs it until that
//! context freezes it, and backward validation — the one scan that asks
//! another node for its writes — is only ever pointed at frozen nodes:
//! `backward_chain` leaves out the evaluation node itself and every edge
//! behind it was made to a node its owner froze first. `writes_intersect`
//! asserts exactly that in debug builds. This sweep keeps the assertion
//! live on every path that builds a backward chain or re-homes a node:
//! WO and SO, two futures in flight, a nested future, a future body
//! retried through `reset_node`, a segment retry, a replay restart, an
//! inline re-execution and the adoption of an escaping future — each
//! counted from the trace, so a schedule grid that stops reaching one of
//! them fails here instead of passing vacuously.
#![cfg(debug_assertions)]

use std::sync::Arc;
use transactional_futures::clock::Clock;
use transactional_futures::trace::{EventKind, TraceLevel, Tracer};
use transactional_futures::{BackendKind, FutureTm, Semantics, TxFuture, VBox};

/// Virtual-time delays that move the two futures' completions and the
/// continuation's conflicting accesses past one another. None is zero: a
/// body that costs no virtual time retries a doomed top-level's read
/// without ever letting the top-level thread run to restart it.
const GRID: [u64; 4] = [10, 60, 400, 2_500];

fn tm_on(kind: BackendKind, sem: Semantics, tracer: &Arc<Tracer>) -> FutureTm {
    FutureTm::builder()
        .semantics(sem)
        .backend_kind(kind)
        .workers(4)
        .tracer(tracer.clone())
        .build()
}

/// One top-level: two futures in flight and a continuation that reads
/// what each writes and overwrites what the first read. Under WO the
/// first spawns a nested future and evaluates it in its own body (a
/// backward chain behind a future's own evaluation point). Under SO it
/// does not: futures commit in spawn order there, a child behind its
/// still-running parent, and at the parent commit this program with the
/// nested future deadlocks (child evaluated by the parent) or spins in
/// `run_future_body` (child evaluated by the top-level) — an open item,
/// not this sweep's subject.
fn contended_transaction(tm: &FutureTm, sem: Semantics, boxes: &[VBox<i64>; 4], delays: [u64; 3]) {
    let [a, b, c, d] = boxes.clone();
    let [d1, d2, dc] = delays;
    let nest = sem != Semantics::SO;
    tm.atomic(|ctx| {
        let (a1, b1, c1, d1b) = (a.clone(), b.clone(), c.clone(), d.clone());
        let first = ctx.submit(move |f| {
            f.work(d1);
            let v = f.read(&a1)?;
            f.write(&b1, v + 1)?;
            if nest {
                let (c2, d2b) = (c1.clone(), d1b.clone());
                let nested = f.submit(move |n| {
                    n.work(d1 / 2);
                    let w = n.read(&c2)?;
                    n.write(&d2b, w + 1)
                })?;
                f.write(&d1b, v)?;
                f.evaluate(&nested)?;
            }
            Ok(v)
        })?;
        let (b2, c2) = (b.clone(), c.clone());
        let second = ctx.submit(move |f| {
            f.work(d2);
            let v = f.read(&b2)?;
            f.write(&c2, v + 1)?;
            Ok(v)
        })?;
        // Reads what `first` writes: WO parks it until its evaluation, SO
        // dooms this segment, which retries alone.
        let b3 = b.clone();
        ctx.step(move |s| {
            let v = s.read(&b3)?;
            s.work(dc);
            Ok(v)
        })?;
        // On half the grid, overwrites what `first` read: its backward
        // validation walks the chain to that write and fails, and it
        // re-executes inline; on the other half the walk finds nothing.
        // Then reads what `second` writes, outside any checkpoint (SO:
        // the doom is not contained; the chain replays).
        if dc >= 400 {
            ctx.write(&a, 50)?;
        }
        ctx.read(&c)?;
        ctx.work(dc);
        ctx.evaluate(&first)?;
        ctx.evaluate(&second)?;
        Ok(())
    })
    .expect("no explicit abort and no assertion inside a future body");
}

/// A future that escapes its spawning top-level unserialized and is
/// adopted by the next one — after a third transaction made its read
/// stale when `stale`, so that the adopter re-executes it. A stale future
/// must have finished before its spawner commits (`delay` under 100): one
/// still running would, on TL2, find its snapshot overwritten and cancel
/// itself for good.
fn escaping_transaction(tm: &FutureTm, stale: bool, delay: u64) {
    let data = tm.new_vbox(5i64);
    let probe = tm.new_vbox(0i64);
    let handle = tm.new_vbox::<Option<TxFuture<i64>>>(None);
    tm.atomic(|ctx| {
        let (d, p) = (data.clone(), probe.clone());
        let f = ctx.submit(move |c| {
            c.work(delay);
            let v = c.read(&d)?;
            c.write(&p, 1)?;
            Ok(v * 2)
        })?;
        ctx.write(&handle, Some(f))?;
        ctx.read(&probe)?;
        ctx.work(100);
        Ok(())
    })
    .expect("spawner commits");
    if stale {
        tm.atomic(|ctx| ctx.write(&data, 100)).expect("writer");
    }
    let v = tm
        .atomic(|ctx| {
            ctx.write(&probe, 7)?;
            let f = ctx.read(&handle)?.expect("handle published");
            ctx.evaluate(&f)
        })
        .expect("adopter commits");
    assert_eq!(v, if stale { 200 } else { 10 });
}

#[test]
fn no_schedule_reaches_a_live_write_buffer() {
    let mut reached: Vec<(&str, EventKind)> = Vec::new();
    for kind in BackendKind::ALL {
        for (name, sem) in [
            ("wo", Semantics::WO_GAC),
            ("wo", Semantics::WO_LAC),
            ("so", Semantics::SO),
        ] {
            let tracer = Tracer::with_capacity(TraceLevel::Lifecycle, 1 << 18);
            Clock::virtual_time().enter(|| {
                let tm = tm_on(kind, sem, &tracer);
                for d1 in GRID {
                    for d2 in GRID {
                        for dc in GRID {
                            let boxes = [0; 4].map(|v| tm.new_vbox(v));
                            contended_transaction(&tm, sem, &boxes, [d1, d2, dc]);
                        }
                    }
                }
                if sem == Semantics::WO_GAC {
                    for delay in GRID {
                        escaping_transaction(&tm, false, delay);
                        if delay < 100 {
                            escaping_transaction(&tm, true, delay);
                        }
                    }
                }
                tm.shutdown();
            });
            assert_eq!(tracer.summary().events_dropped, 0, "dropped trace events");
            let events = tracer.lanes().into_iter().flat_map(|(_, e)| e);
            reached.extend(events.map(|e| (name, e.kind)));
        }
    }
    let count = |ordering, kind| reached.iter().filter(|&&e| e == (ordering, kind)).count();
    use EventKind::*;
    for (ordering, kind, what) in [
        (
            "wo",
            FutureSerializedSubmission,
            "forward validation passed",
        ),
        ("wo", FutureSerializedEvaluation, "a backward chain walked"),
        ("wo", FutureReexecuted, "inline re-execution"),
        ("wo", FutureAdopted, "an escaping future adopted"),
        ("so", FutureSerializedSubmission, "SO serialization"),
        ("so", FutureAttemptAbort, "a future body on a reset node"),
        ("so", SegmentRetried, "a doomed segment retried alone"),
        ("so", TopInternalRestart, "a replay restart"),
    ] {
        let n = count(ordering, kind);
        println!("{ordering}: {n} × {kind:?} ({what})");
        assert!(n > 0, "{ordering}: no schedule reached {kind:?} ({what})");
    }
    assert!(
        count("wo", FutureSerializedEvaluation) > count("wo", FutureReexecuted),
        "no backward validation passed: every chain walk ended in a re-execution"
    );
}
