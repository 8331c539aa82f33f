//! Differential testing of the STM substrates: the same seeded workloads
//! run under the deterministic virtual clock on every [`BackendKind`]
//! must (a) reach identical final states — the scenarios' updates are
//! additive, so the final state is independent of commit order — and
//! (b) produce histories the offline serializability checker accepts,
//! with zero dropped trace events.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use transactional_futures::backend::{atomic, stripe_index, StmBackend, StmError, TBox, Value};
use transactional_futures::clock::Clock;
use transactional_futures::report::Trace;
use transactional_futures::stm::Stm;
use transactional_futures::tl2::Tl2Stm;
use transactional_futures::tm::make_backend;
use transactional_futures::trace::{EventKind, TraceLevel, Tracer};
use transactional_futures::{BackendKind, FutureTm, Semantics, VBox};

/// Tiny deterministic PRNG (xorshift64*), seeded per client.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// Runs `scenario` on a fresh TM over `kind` under a fresh virtual
/// clock, then verifies the full trace with the serializability checker
/// and returns the scenario's final state for cross-backend comparison.
fn checked_run(
    kind: BackendKind,
    workers: usize,
    scenario: impl FnOnce(&FutureTm) -> Vec<i64>,
) -> Vec<i64> {
    let clock = Clock::virtual_time();
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 18);
    let state = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(workers)
            .backend_kind(kind)
            .tracer(tracer.clone())
            .build();
        assert_eq!(tm.backend_kind(), kind);
        let state = scenario(&tm);
        tm.shutdown();
        state
    });
    let summary = tracer.summary();
    assert_eq!(summary.events_dropped, 0, "{kind:?}: dropped trace events");
    let report = Trace::from_tracer(&tracer)
        .verify()
        .unwrap_or_else(|e| panic!("{kind:?}: checker rejected history: {e:?}"));
    assert!(report.events > 0, "{kind:?}: checker consumed no events");
    state
}

/// Runs the scenario on every backend and asserts the final states are
/// bit-identical across substrates.
fn differential(workers: usize, scenario: impl Fn(&FutureTm) -> Vec<i64>) -> Vec<i64> {
    let mut reference: Option<(BackendKind, Vec<i64>)> = None;
    for kind in BackendKind::ALL {
        let state = checked_run(kind, workers, &scenario);
        match &reference {
            None => reference = Some((kind, state)),
            Some((ref_kind, ref_state)) => {
                assert_eq!(
                    &state, ref_state,
                    "final state diverged: {kind:?} vs {ref_kind:?}"
                );
            }
        }
    }
    reference.expect("BackendKind::ALL is non-empty").1
}

/// Hot counter: every client hammers one box with read-modify-write
/// increments through a transactional future. Lost updates on either
/// substrate would show up as a short count.
#[test]
fn hot_counter_agrees_across_backends() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 40;
    let state = differential(CLIENTS * 2 + 2, |tm| {
        let counter = Arc::new(tm.new_vbox(0i64));
        let c = Clock::current();
        let hs: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tm = tm.clone();
                let counter = counter.clone();
                c.spawn(&format!("cl{i}"), move || {
                    for k in 0..PER_CLIENT {
                        let x = (*counter).clone();
                        tm.atomic_infallible(move |ctx| {
                            let x2 = x.clone();
                            let f = ctx.submit(move |c| {
                                c.work((k as u64 % 3) * 70);
                                c.read(&x2)
                            })?;
                            let v = ctx.evaluate(&f)?;
                            ctx.write(&x, v + 1)
                        });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        vec![counter.read_latest()]
    });
    assert_eq!(state, vec![(CLIENTS * PER_CLIENT) as i64]);
}

/// Bank: seeded transfers between accounts, debit in a future and credit
/// in the continuation. Amounts are fixed by the seed (not read-
/// dependent), so the final balances are order-independent and must
/// match exactly across backends; the total is conserved throughout.
#[test]
fn bank_transfers_agree_across_backends() {
    const ACCOUNTS: usize = 8;
    const CLIENTS: usize = 4;
    const TRANSFERS: usize = 30;
    const INITIAL: i64 = 1_000;
    let state = differential(CLIENTS * 2 + 2, |tm| {
        let accounts: Arc<Vec<VBox<i64>>> =
            Arc::new((0..ACCOUNTS).map(|_| tm.new_vbox(INITIAL)).collect());
        let c = Clock::current();
        let hs: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tm = tm.clone();
                let accounts = accounts.clone();
                c.spawn(&format!("teller{i}"), move || {
                    let mut rng = Rng::new(0xB4A9 + i as u64);
                    for _ in 0..TRANSFERS {
                        let from = (rng.next() % ACCOUNTS as u64) as usize;
                        let to = (rng.next() % ACCOUNTS as u64) as usize;
                        let amount = (rng.next() % 50) as i64 + 1;
                        let src = accounts[from].clone();
                        let dst = accounts[to].clone();
                        tm.atomic_infallible(move |ctx| {
                            let src2 = src.clone();
                            let debit = ctx.submit(move |c| {
                                let v = c.read(&src2)?;
                                c.write(&src2, v - amount)
                            })?;
                            let v = ctx.read(&dst)?;
                            ctx.write(&dst, v + amount)?;
                            ctx.evaluate(&debit)
                        });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        accounts.iter().map(|a| a.read_latest()).collect()
    });
    assert_eq!(state.iter().sum::<i64>(), ACCOUNTS as i64 * INITIAL);
}

/// Mini-vacation: each booking reserves one flight, one car and one room
/// (three tables of capacity counters), each table decrement running as
/// its own transactional future inside one atomic booking. Capacities
/// are sized so no booking ever fails, making the final counts a pure
/// (order-independent) sum.
#[test]
fn vacation_bookings_agree_across_backends() {
    const PER_TABLE: usize = 5;
    const CLIENTS: usize = 4;
    const BOOKINGS: usize = 25;
    const CAPACITY: i64 = (CLIENTS * BOOKINGS) as i64; // never sells out
    let state = differential(CLIENTS * 3 + 2, |tm| {
        let tables: Arc<Vec<Vec<VBox<i64>>>> = Arc::new(
            (0..3)
                .map(|_| (0..PER_TABLE).map(|_| tm.new_vbox(CAPACITY)).collect())
                .collect(),
        );
        let c = Clock::current();
        let hs: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tm = tm.clone();
                let tables = tables.clone();
                c.spawn(&format!("agent{i}"), move || {
                    let mut rng = Rng::new(0x7E15 + i as u64);
                    for _ in 0..BOOKINGS {
                        let picks: Vec<VBox<i64>> = (0..3)
                            .map(|t| tables[t][(rng.next() % PER_TABLE as u64) as usize].clone())
                            .collect();
                        tm.atomic_infallible(move |ctx| {
                            let futs = picks
                                .iter()
                                .map(|item| {
                                    let item = item.clone();
                                    ctx.submit(move |c| {
                                        let left = c.read(&item)?;
                                        c.write(&item, left - 1)
                                    })
                                })
                                .collect::<Result<Vec<_>, _>>()?;
                            for f in &futs {
                                ctx.evaluate(f)?;
                            }
                            Ok(())
                        });
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        tables
            .iter()
            .flat_map(|t| t.iter().map(|b| b.read_latest()))
            .collect()
    });
    // Every seat sold is accounted for: 3 decrements per booking.
    let sold: i64 = state.iter().map(|&left| CAPACITY - left).sum();
    assert_eq!(sold, (3 * CLIENTS * BOOKINGS) as i64);
}

/// A box created after the reading transaction's snapshot was taken —
/// here, after another client committed behind that snapshot — reads its
/// initial value on the first attempt: no commit wrote that value, so no
/// snapshot is too old for it. A box stamped with the creation-time clock
/// made mvstm panic ("no version visible at snapshot") and TL2 take an
/// abort that no install justified.
#[test]
fn box_created_behind_a_snapshot_reads_its_initial_value() {
    let state = differential(2, |tm| {
        let other = tm.new_vbox(0i64);
        let mut attempts = 0;
        let read = tm.atomic_infallible(|ctx| {
            attempts += 1;
            if attempts == 1 {
                // Another client's commit, after our snapshot was taken.
                atomic(&**tm.stm(), |tx| tx.write(&other, 1)).unwrap();
            }
            let fresh = tm.new_vbox(7i64);
            ctx.read(&fresh)
        });
        assert_eq!(attempts, 1, "{:?}: an unjustified retry", tm.backend_kind());
        vec![read, other.read_latest()]
    });
    assert_eq!(state, vec![7, 1]);
}

/// A transaction that reads a box created after the first commit, and
/// writes what it read, leaves a history the checker accepts. Read at
/// the creation-time clock, the box's initial value looked like the
/// install of a commit that never wrote it ("read box 1 at version 1, but
/// that version installed different boxes").
#[test]
fn box_created_after_a_commit_passes_the_checker() {
    let state = differential(2, |tm| {
        let a = tm.new_vbox(1i64);
        tm.atomic_infallible(|ctx| ctx.write(&a, 2));
        let b = tm.new_vbox(10i64);
        tm.atomic_infallible(|ctx| {
            let v = ctx.read(&b)?;
            ctx.write(&a, v + 1)
        });
        vec![a.read_latest(), b.read_latest()]
    });
    assert_eq!(state, vec![11, 10]);
}

/// A box value whose clones are counted; `PAD` bytes beside the count
/// pick the `Value` arm (7: 16 bytes, stored inline; 8: 17, behind an
/// `Arc`).
struct Lent<const PAD: usize> {
    n: u8,
    clones: Arc<AtomicUsize>,
    _pad: [u8; PAD],
}

impl<const PAD: usize> Lent<PAD> {
    fn new(n: u8, clones: &Arc<AtomicUsize>) -> Self {
        Lent {
            n,
            clones: clones.clone(),
            _pad: [0; PAD],
        }
    }
}

impl<const PAD: usize> Clone for Lent<PAD> {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        Lent::new(self.n, &self.clones)
    }
}

/// The lending read's contract, on every backend and on both arms of
/// `Value`: `read_at` hands its closure the stored value itself (no
/// clone: the value's own clone count does not move across the read),
/// calls it exactly once on `Ok`, and never on `Err`.
#[test]
fn read_at_lends_the_stored_value_once() {
    assert_eq!(std::mem::size_of::<Lent<7>>(), 16, "inline arm");
    assert!(std::mem::size_of::<Lent<8>>() > 16, "Arc arm");
    for kind in BackendKind::ALL {
        lends_once::<7>(kind);
        lends_once::<8>(kind);
    }
}

fn lends_once<const PAD: usize>(kind: BackendKind) {
    let stm: Arc<dyn StmBackend> = match kind {
        BackendKind::Mvstm => Arc::new(Stm::new()),
        BackendKind::Tl2 => Arc::new(Tl2Stm::new()),
    };
    let clones = Arc::new(AtomicUsize::new(0));
    let x = TBox::new_on(&*stm, Lent::<PAD>::new(5, &clones));
    // `(result, calls, clones made, value seen)` for one read.
    let read = |snapshot: u64| {
        let (mut calls, mut seen) = (0, None);
        let before = clones.load(Ordering::SeqCst);
        let res = x.body().read_at(snapshot, &mut |v| {
            calls += 1;
            seen = v.downcast_ref::<Lent<PAD>>().map(|l| l.n);
        });
        (res, calls, clones.load(Ordering::SeqCst) - before, seen)
    };
    let old = stm.acquire_snapshot();
    assert_eq!(
        read(old.version()),
        (Ok(0), 1, 0, Some(5)),
        "{kind:?}/{PAD}"
    );
    atomic(&*stm, |tx| tx.write(&x, Lent::new(6, &clones))).unwrap();
    let fresh = stm.acquire_snapshot();
    let v = fresh.version();
    assert_eq!(
        read(v),
        (Ok(v), 1, 0, Some(6)),
        "{kind:?}/{PAD}: the new value"
    );
    match read(old.version()) {
        // mvstm keeps the version the old snapshot reads.
        (Ok(0), 1, 0, Some(5)) if kind == BackendKind::Mvstm => {}
        // TL2 has nothing left to lend at the old snapshot.
        (Err(StmError::Conflict), 0, 0, None) if kind == BackendKind::Tl2 => {}
        other => panic!("{kind:?}/{PAD}: read at the old snapshot gave {other:?}"),
    }
}

/// The commit path has no global mutex, on any backend: holding one
/// stripe hostage stalls only commits whose footprint includes it, while
/// commits on disjoint stripes sail through.
#[test]
fn disjoint_commits_proceed_while_stripe_is_held() {
    for kind in BackendKind::ALL {
        let stm = &*make_backend(kind, Tracer::disabled());
        let a = &TBox::new_on(stm, 0i64);
        let mut b = TBox::new_on(stm, 0i64);
        while stripe_index(b.id()) == stripe_index(a.id()) {
            b = TBox::new_on(stm, 0i64);
        }
        let hostage = stm.hold_stripe(stripe_index(a.id()));
        std::thread::scope(|s| {
            // A commit touching only b's stripe completes while a's is
            // hostage (with a global commit mutex this join would hang).
            s.spawn(|| atomic(stm, |tx| tx.write(&b, 1)).unwrap())
                .join()
                .unwrap();
            assert_eq!(b.read_latest(), 1, "{kind}");
            // A commit touching a's stripe blocks until the hostage goes.
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            s.spawn(move || {
                atomic(stm, |tx| tx.write(a, 1)).unwrap();
                done_tx.send(()).unwrap();
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(150)).is_err(),
                "{kind}: commit on the held stripe should be blocked"
            );
            drop(hostage);
            done_rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{kind}: commit should complete once released"));
        });
        assert_eq!(a.read_latest(), 1, "{kind}");
    }
}

/// The commit records, on every backend: one `StmInstall` per written
/// box, one commit and one validation latency sample per update commit,
/// and a failed validation charged to the box that failed, with its
/// `TxnAttemptAbort` carrying that box and the snapshot.
#[test]
fn commits_emit_the_same_records_on_every_backend() {
    for kind in BackendKind::ALL {
        let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 12);
        let stm = make_backend(kind, tracer.clone());
        let x = TBox::new_on(&*stm, 0i64);
        let y = TBox::new_on(&*stm, 0i64);
        atomic(&*stm, |tx| {
            tx.write(&x, 1)?;
            tx.write(&y, 1)
        })
        .unwrap();
        let events = |kind: EventKind| -> Vec<(u64, u64)> {
            let lanes = tracer.lanes().into_iter().flat_map(|(_, events)| events);
            lanes
                .filter(|e| e.kind == kind)
                .map(|e| (e.a, e.b))
                .collect()
        };
        assert_eq!(
            events(EventKind::StmInstall).len(),
            2,
            "{kind}: one StmInstall per written box"
        );
        let summary = tracer.summary();
        assert_eq!(summary.commit_latency.count, 1, "{kind}");
        assert_eq!(summary.validation_latency.count, 1, "{kind}");
        // A justified conflict charges the failing box.
        let snap = stm.acquire_snapshot();
        atomic(&*stm, |tx| {
            let v = tx.read(&x)?;
            tx.write(&x, v + 1)
        })
        .unwrap();
        let res = stm.commit_attributed(
            snap.version(),
            true,
            &[x.body()],
            vec![(y.body(), Value::new(9i64))],
        );
        assert_eq!(res, Err(x.id()), "{kind}");
        let summary = tracer.summary();
        assert_eq!(summary.conflict_total, 1, "{kind}");
        assert_eq!(summary.hotspots, vec![(x.id().0, 1)], "{kind}");
        assert_eq!(
            events(EventKind::TxnAttemptAbort),
            vec![(x.id().0, snap.version())],
            "{kind}"
        );
    }
}
