//! The lifetime rule for box bodies, on both backends: a transaction
//! borrows the boxes it reads and writes instead of counting them, and a
//! body whose last handle goes is retired, not freed, until every
//! registered snapshot is newer than its retirement — at once when none
//! is registered. `retired_boxes` (on the backend's horizon) counts the
//! bodies still waiting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use transactional_futures::clock::Clock;
use transactional_futures::report::Trace;
use transactional_futures::trace::{TraceLevel, Tracer};
use transactional_futures::{
    BackendKind, FutState, FutureTm, Semantics, TxCtx, TxFuture, TxResult, VBox,
};

fn tm_on(kind: BackendKind, semantics: Semantics) -> FutureTm {
    FutureTm::builder()
        .semantics(semantics)
        .backend_kind(kind)
        .workers(2)
        .build()
}

fn retired(tm: &FutureTm) -> usize {
    tm.stm().horizon().retired_boxes()
}

/// Counts the drops of every copy, stored or read out.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// A slot the transaction takes its only handle out of, so it can drop
/// the handle mid-body.
type Only = Arc<Mutex<Option<VBox<i64>>>>;

fn take(only: &Only) -> VBox<i64> {
    only.lock().unwrap().take().expect("one attempt")
}

/// Reads the box behind `only`, drops the last handle, writes what it
/// read (plus one) to `out`.
fn read_drop_write(ctx: &mut TxCtx, only: &Only, out: &VBox<i64>) -> TxResult<()> {
    let x = take(only);
    let v = ctx.read(&x)?;
    drop(x);
    ctx.write(out, v + 1)
}

/// A flat body, an inflated body and a future body each read a box, drop
/// its only handle and commit an update: the commit validates the read
/// against the retired body, which stays until a later commit.
#[test]
fn a_read_box_outlives_its_last_handle_until_commit() {
    for kind in BackendKind::ALL {
        for shape in ["flat", "inflated", "future"] {
            let tm = tm_on(kind, Semantics::WO_GAC);
            let out = tm.new_vbox(0i64);
            let only: Only = Arc::new(Mutex::new(Some(tm.new_vbox(41i64))));
            let mut during = 0;
            tm.atomic(|ctx| {
                match shape {
                    "flat" => read_drop_write(ctx, &only, &out)?,
                    "inflated" => {
                        ctx.step(|_| Ok(()))?;
                        read_drop_write(ctx, &only, &out)?;
                    }
                    _ => {
                        let (only, o) = (only.clone(), out.clone());
                        let f = ctx.submit(move |c| read_drop_write(c, &only, &o))?;
                        ctx.evaluate(&f)?;
                    }
                }
                during = retired(&tm);
                Ok(())
            })
            .expect("no explicit abort");
            let label = format!("{kind:?} {shape}");
            assert_eq!(during, 1, "{label}: retired, not freed, mid-transaction");
            assert_eq!(out.read_latest(), 42, "{label}: committed what it read");
            assert_eq!(retired(&tm), 1, "{label}: its own commit keeps it");
            // The future's worker lets go of the top-level (and with it
            // the registration) just after the evaluation returns.
            let deadline = Instant::now() + Duration::from_secs(10);
            while tm.stm().horizon().active_snapshots() > 0 {
                assert!(Instant::now() < deadline, "{label}: a snapshot leaked");
                std::thread::yield_now();
            }
            tm.atomic_infallible(|ctx| ctx.write(&out, 0));
            assert_eq!(retired(&tm), 0, "{label}: the next commit frees it");
            tm.shutdown();
        }
    }
}

/// Boxes dropped behind an older snapshot stay retired while it is held,
/// commits or not; once it ends, the next commit frees all of them.
#[test]
fn an_old_snapshot_holds_every_body_retired_behind_it() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind, Semantics::WO_GAC);
        let other = tm.new_vbox(0i64);
        let drops = Arc::new(AtomicUsize::new(0));
        let reader = tm.stm().acquire_snapshot();
        for _ in 0..10 {
            drop(tm.new_vbox(Counted(drops.clone())));
        }
        assert_eq!(retired(&tm), 10, "{kind:?}");
        tm.atomic_infallible(|ctx| ctx.write(&other, 1));
        assert_eq!(retired(&tm), 10, "{kind:?}: the reader still holds them");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "{kind:?}");
        drop(reader);
        tm.atomic_infallible(|ctx| ctx.write(&other, 2));
        assert_eq!(retired(&tm), 0, "{kind:?}: the next commit frees them");
        assert_eq!(drops.load(Ordering::SeqCst), 10, "{kind:?}");
        tm.shutdown();
    }
}

/// With no snapshot registered, nothing can borrow a box: its body goes
/// with its last handle.
#[test]
fn a_box_dropped_with_nothing_registered_is_freed_at_once() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind, Semantics::WO_GAC);
        let drops = Arc::new(AtomicUsize::new(0));
        let b = tm.new_vbox(Counted(drops.clone()));
        let copy = b.clone();
        drop(b);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "{kind:?}: a handle is left"
        );
        drop(copy);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{kind:?}");
        assert_eq!(retired(&tm), 0, "{kind:?}");
        tm.shutdown();
    }
}

/// When the last handles of an escaping future's boxes go.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LastHandles {
    /// After the future escaped: its record counts the boxes.
    AfterEscape,
    /// The same, with the box it read overwritten first.
    AfterEscapeStale,
    /// In the future's own body, before it escapes: the boxes are
    /// retired by the time the record is resolved.
    InTheBody,
}

/// Runs a GAC future that escapes its spawner, drops every handle of the
/// boxes it read and wrote (at `last`), then has a second top-level
/// evaluate it. Returns the evaluated value, the adoptions and
/// re-executions counted, and the final retired count.
fn escape_with_last_handles(kind: BackendKind, last: LastHandles) -> (i64, u64, u64, usize) {
    Clock::virtual_time().enter(|| {
        let tm = tm_on(kind, Semantics::WO_GAC);
        let x = tm.new_vbox(21i64);
        let y = tm.new_vbox(0i64);
        let held = Arc::new(Mutex::new(Some((x.clone(), y.clone()))));
        let own = (last != LastHandles::InTheBody).then_some((x, y));
        let slot = tm.new_vbox::<Option<TxFuture<i64>>>(None);
        let (h, s) = (held.clone(), slot.clone());
        tm.atomic_infallible(move |ctx| {
            let h = h.clone();
            let f = ctx.submit(move |c| {
                c.work(500);
                let mut held = h.lock().unwrap();
                let boxes = match last {
                    LastHandles::InTheBody => held.take(),
                    _ => held.clone(),
                };
                drop(held);
                match boxes {
                    Some((x, y)) => {
                        let v = c.read(&x)?;
                        c.write(&y, v * 2)?;
                        Ok(v * 2)
                    }
                    // Re-executed after the boxes were dropped.
                    None => Ok(-1),
                }
            })?;
            ctx.write(&s, Some(f))
        });
        // Let the future run to completion: it escapes.
        Clock::current().advance(1_000);
        if let Some((x, y)) = own {
            if last == LastHandles::AfterEscapeStale {
                tm.atomic_infallible(|ctx| ctx.write(&x, 50));
            }
            // Every handle of `x` and `y` but the record's.
            drop((x, y));
            held.lock().unwrap().take();
            assert_eq!(retired(&tm), 0, "{kind:?}: the record holds them");
        }
        let s = slot.clone();
        let v = tm.atomic_infallible(move |ctx| {
            let f = ctx.read(&s)?.expect("published");
            ctx.evaluate(&f)
        });
        // An adopter lets go of the record's boxes when it ends. A body is
        // freed once the horizon has passed its retirement: a
        // re-executing evaluation commits nothing, so the first commit
        // after it may still run at that clock (and could itself have
        // borrowed the body); the second runs past it.
        for _ in 0..2 {
            tm.atomic_infallible(|ctx| ctx.write(&slot, None));
        }
        let stats = tm.stats();
        let left = retired(&tm);
        tm.shutdown();
        (v, stats.adopted_escaping, stats.reexecutions, left)
    })
}

/// An escaped future whose boxes lost every other handle before it was
/// evaluated is adopted (its record counts the boxes, so they are still
/// there to revalidate and commit) or, when its read went stale,
/// re-executed. One whose boxes had no handle left when it escaped
/// cannot be revalidated: it re-executes too.
#[test]
fn an_escaped_future_outlives_the_handles_of_its_boxes() {
    use LastHandles::*;
    for kind in BackendKind::ALL {
        assert_eq!(
            escape_with_last_handles(kind, AfterEscape),
            (42, 1, 0, 0),
            "{kind:?}: adopted"
        );
        assert_eq!(
            escape_with_last_handles(kind, AfterEscapeStale),
            (-1, 1, 1, 0),
            "{kind:?}: stale, re-executed"
        );
        assert_eq!(
            escape_with_last_handles(kind, InTheBody),
            (-1, 1, 1, 0),
            "{kind:?}: retired, re-executed"
        );
    }
}

/// An escaped future published through a box and never evaluated goes
/// with that box, record and all: it holds back no retired body, and
/// dropping the TM still frees what is retired then.
#[test]
fn an_unevaluated_escaped_future_holds_no_body_back() {
    for kind in BackendKind::ALL {
        let drops = Arc::new(AtomicUsize::new(0));
        Clock::virtual_time().enter(|| {
            let tm = tm_on(kind, Semantics::WO_GAC);
            let x = tm.new_vbox(21i64);
            let slot = tm.new_vbox::<Option<TxFuture<i64>>>(None);
            let (x2, s) = (x.clone(), slot.clone());
            tm.atomic_infallible(move |ctx| {
                let x = x2.clone();
                let f = ctx.submit(move |c| {
                    c.work(500);
                    c.read(&x)
                })?;
                ctx.write(&s, Some(f))
            });
            // Let the future run to completion: it escapes, and its
            // record is resolved.
            Clock::current().advance(1_000);
            let f = slot.read_latest().expect("published");
            assert_eq!(f.state(), FutState::Completed, "{kind:?}: escaped");
            drop((f, x, slot));
            // Boxes retired behind a snapshot, then freed by commits once
            // it ends: each commit frees what was retired before it
            // began, and a freed body may retire the boxes its values
            // held (the slot's future holds `x`).
            let other = tm.new_vbox(0i64);
            let reader = tm.stm().acquire_snapshot();
            for _ in 0..10 {
                drop(tm.new_vbox(Counted(drops.clone())));
            }
            drop(reader);
            for i in 0..3 {
                tm.atomic_infallible(|ctx| ctx.write(&other, i));
            }
            assert_eq!(retired(&tm), 0, "{kind:?}");
            assert_eq!(drops.load(Ordering::SeqCst), 10, "{kind:?}");
            // One more body retired when the TM drops.
            let reader = tm.stm().acquire_snapshot();
            drop(tm.new_vbox(Counted(drops.clone())));
            drop(reader);
            assert_eq!(retired(&tm), 1, "{kind:?}");
            tm.shutdown();
            drop(tm);
        });
        assert_eq!(
            drops.load(Ordering::SeqCst),
            11,
            "{kind:?}: the TM freed it"
        );
    }
}

/// An escaped future reads the very box its spawner's commit overwrote:
/// mvstm still holds the version the future's snapshot needs, TL2 does
/// not and the read fails. Either way the spawner stays committed, the
/// future escapes, its adopter re-executes it against the new value, and
/// the Full-detail trace of the run verifies.
#[test]
fn an_escaped_future_reads_what_its_spawners_commit_overwrote() {
    for kind in BackendKind::ALL {
        let tracer = Tracer::new(TraceLevel::Full);
        let t2 = tracer.clone();
        let (v, stats) = Clock::virtual_time().enter(move || {
            let tm = FutureTm::builder()
                .semantics(Semantics::WO_GAC)
                .backend_kind(kind)
                .workers(2)
                .tracer(t2)
                .build();
            let x = tm.new_vbox(0i64);
            let slot = tm.new_vbox::<Option<TxFuture<i64>>>(None);
            tm.atomic_infallible(|ctx| {
                let x2 = x.clone();
                let f = ctx.submit(move |c| {
                    c.work(500);
                    c.read(&x2)
                })?;
                ctx.write(&x, 99)?;
                ctx.write(&slot, Some(f))
            });
            Clock::current().advance(1_000);
            let f = slot.read_latest().expect("published");
            assert_eq!(f.state(), FutState::Completed, "{kind:?}: escaped");
            let v = tm.atomic(|ctx| ctx.evaluate(&f));
            let stats = tm.stats();
            tm.shutdown();
            (v, stats)
        });
        assert_eq!(v, Ok(99), "{kind:?}");
        assert_eq!(
            (
                stats.top_commits,
                stats.adopted_escaping,
                stats.reexecutions
            ),
            (2, 1, 1),
            "{kind:?}"
        );
        assert_eq!(tracer.summary().events_dropped, 0, "{kind:?}");
        let report = Trace::from_tracer(&tracer)
            .verify()
            .unwrap_or_else(|e| panic!("{kind:?}: checker rejected: {e:?}"));
        assert_eq!(report.committed_tops, 2, "{kind:?}");
    }
}

/// Boxes published through a box, replaced while readers borrow them on
/// real threads: each replacement drops the old box's last handle once
/// its version is pruned, so bodies retire and are freed while readers
/// read them and commit updates that validate those reads. Every read
/// sees a value its writer stored, and a quiet pair of commits frees
/// every body left.
#[test]
fn boxes_replaced_under_concurrent_readers_are_freed() {
    const ROUNDS: i64 = 2_000;
    for kind in BackendKind::ALL {
        let tm = tm_on(kind, Semantics::WO_GAC);
        let slot = tm.new_vbox(Some(tm.new_vbox(0i64)));
        let sink = tm.new_vbox(0i64);
        std::thread::scope(|s| {
            let (tm, slot, sink) = (&tm, &slot, &sink);
            s.spawn(move || {
                for i in 1..=ROUNDS {
                    tm.atomic_infallible(|ctx| ctx.write(slot, Some(tm.new_vbox(i * 10))));
                }
            });
            for _ in 0..2 {
                s.spawn(move || {
                    for _ in 0..ROUNDS {
                        let seen = tm.atomic_infallible(|ctx| {
                            let inner = ctx.read(slot)?.expect("always published");
                            let v = ctx.read(&inner)?;
                            drop(inner);
                            ctx.write(sink, v)?;
                            Ok(v)
                        });
                        assert_eq!(seen % 10, 0, "{kind:?}: a value no writer stored");
                    }
                });
            }
        });
        for _ in 0..2 {
            tm.atomic_infallible(|ctx| ctx.write(&sink, -1));
        }
        assert_eq!(retired(&tm), 0, "{kind:?}");
        tm.shutdown();
    }
}

/// Dropping the TM frees the bodies still retired.
#[test]
fn dropping_the_tm_frees_retired_bodies() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind, Semantics::WO_GAC);
        let drops = Arc::new(AtomicUsize::new(0));
        let reader = tm.stm().acquire_snapshot();
        drop(tm.new_vbox(Counted(drops.clone())));
        drop(reader);
        assert_eq!(retired(&tm), 1, "{kind:?}: no commit drained it");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "{kind:?}");
        tm.shutdown();
        drop(tm);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{kind:?}");
    }
}
