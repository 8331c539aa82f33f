//! Unit + property tests for the TL2 backend: the versioned-lock word,
//! stripe-collision behaviour, and the `StmBackend` contract driven
//! through `wtf-backend`'s generic transaction layer.

use super::*;
use wtf_backend::{atomic, BackendTxn, StmBackend, TBox};
use wtf_trace::{TraceLevel, Tracer};

fn new_backend() -> Tl2Stm {
    Tl2Stm::new()
}

#[test]
fn kind_and_clock_start_at_zero() {
    let stm = new_backend();
    assert_eq!(stm.kind(), BackendKind::Tl2);
    assert_eq!(stm.clock(), 0);
    let snap = stm.acquire_snapshot();
    assert_eq!(snap.version(), 0);
}

#[test]
fn rmw_increments_commit_and_advance_clock() {
    let stm = new_backend();
    let x = TBox::new_on(&stm, 0i64);
    for i in 0..10 {
        atomic(&stm, |tx| {
            let v = tx.read(&x)?;
            tx.write(&x, v + 1)
        })
        .unwrap();
        assert_eq!(stm.clock(), i + 1);
    }
    assert_eq!(x.read_latest(), 10);
    let stats = stm.stats();
    assert_eq!(stats.commits, 10);
    assert_eq!(stats.read_only_commits, 0);
    assert_eq!(stats.aborts, 0);
}

#[test]
fn read_only_commits_count_and_leave_clock_alone() {
    let stm = new_backend();
    let x = TBox::new_on(&stm, 7i64);
    atomic(&stm, |tx| tx.write(&x, 8)).unwrap();
    let clock = stm.clock();
    for _ in 0..3 {
        assert_eq!(atomic(&stm, |tx| tx.read(&x)).unwrap(), 8);
    }
    assert_eq!(
        stm.clock(),
        clock,
        "read-only commits must not bump the clock"
    );
    let stats = stm.stats();
    assert_eq!(stats.read_only_commits, 3);
    assert_eq!(stats.commits, 4);
}

/// The single-version property itself: once a box is overwritten, an older
/// snapshot has nothing left to read — and the `Err` is justified by a
/// concrete newer install (slot version > snapshot), never spurious.
#[test]
fn stale_snapshot_read_conflicts_after_overwrite() {
    let stm = new_backend();
    let x = TBox::new_on(&stm, 0i64);
    let snap = stm.acquire_snapshot();
    assert_eq!(x.body().read_at(snap.version(), &mut |_| {}), Ok(0));
    atomic(&stm, |tx| tx.write(&x, 1)).unwrap();
    match x.body().read_at(snap.version(), &mut |_| {}) {
        Err(StmError::Conflict) => {}
        other => panic!("expected a read conflict, got {other:?}"),
    }
    // A fresh snapshot sees the new value again.
    let mut lent = None;
    let ver = x
        .body()
        .read_at(stm.clock(), &mut |v| {
            lent = v.downcast_ref::<i64>().copied()
        })
        .unwrap();
    assert_eq!((ver, lent), (1, Some(1)));
}

/// Commit-time validation: a transaction whose read was overwritten must
/// abort (with the conflict charged to the right box), then succeed on
/// retry against a fresh snapshot.
#[test]
fn overwritten_read_fails_validation_once_then_retries() {
    let stm = new_backend();
    let x = TBox::new_on(&stm, 0i64);
    let y = TBox::new_on(&stm, 0i64);
    let mut first = true;
    atomic(&stm, |tx| {
        let v = tx.read(&x)?;
        if first {
            first = false;
            // Sneak in a conflicting commit between read and commit.
            atomic(&stm, |tx2| {
                let w = tx2.read(&x)?;
                tx2.write(&x, w + 100)
            })
            .unwrap();
        }
        tx.write(&y, v)
    })
    .unwrap();
    assert_eq!(stm.stats().aborts, 1);
    assert_eq!(y.read_latest(), 100);
}

/// Stripe-hash collisions must never cause false aborts: a commit into a
/// box that merely *shares a stripe* with one of our reads bumps the
/// stripe word, but validation checks the read box's own slot version.
#[test]
fn stripe_collision_does_not_falsely_abort() {
    let stm = new_backend();
    let a = TBox::new_on(&stm, 0i64);
    // Allocate until we find a box colliding with `a`'s stripe.
    let b = loop {
        let b = TBox::new_on(&stm, 0i64);
        if stripe_index(b.id()) == stripe_index(a.id()) {
            break b;
        }
    };
    let mut tx = BackendTxn::begin(&stm);
    let v = tx.read(&b).unwrap();
    // A commit into the colliding neighbour `a` while `tx` is open.
    atomic(&stm, |t| t.write(&a, 42)).unwrap();
    tx.write(&b, v + 1).unwrap();
    tx.commit()
        .expect("commit into an untouched box must survive a stripe-colliding neighbour commit");
    assert_eq!(b.read_latest(), 1);
    assert_eq!(stm.stats().aborts, 0);
}

/// The classic TL2 anti-pattern the fast path must catch: a reader racing
/// a committer never observes a half-written commit. Writer keeps
/// `x == y`; readers snapshot-read both and demand equality.
#[test]
fn readers_never_observe_torn_commits() {
    use std::sync::atomic::AtomicBool;
    let stm = new_backend();
    let x = TBox::new_on(&stm, 0i64);
    let y = TBox::new_on(&stm, 0i64);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stm, x, y, stop) = (stm.clone(), x.clone(), y.clone(), stop.clone());
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                i += 1;
                atomic(&stm, |tx| {
                    tx.write(&x, i)?;
                    tx.write(&y, i)
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let (stm, x, y, stop) = (stm.clone(), x.clone(), y.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // Reads may conflict (single version) — but committed
                    // reads must always be mutually consistent.
                    let _ = atomic(&stm, |tx| {
                        let a = tx.read(&x)?;
                        let b = tx.read(&y)?;
                        assert_eq!(a, b, "torn read: x={a} y={b}");
                        Ok(())
                    });
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(200));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

#[test]
fn concurrent_hot_counter_loses_no_increments() {
    const THREADS: usize = 8;
    const INCRS: usize = 200;
    let stm = new_backend();
    let x = TBox::new_on(&stm, 0u64);
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let (stm, x) = (stm.clone(), x.clone());
            std::thread::spawn(move || {
                for _ in 0..INCRS {
                    atomic(&stm, |tx| {
                        let v = tx.read(&x)?;
                        tx.write(&x, v + 1)
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(x.read_latest(), (THREADS * INCRS) as u64);
    assert_eq!(stm.stats().commits, (THREADS * INCRS) as u64);
    assert_eq!(stm.clock(), (THREADS * INCRS) as u64);
}

#[test]
fn gauges_register_under_tracer() {
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 10);
    let stm = Tl2Stm::with_tracer(tracer.clone());
    let x = TBox::new_on(&stm, 0i64);
    atomic(&stm, |tx| tx.write(&x, 1)).unwrap();
    let gauges = tracer.gauges.read_all();
    let clock = gauges
        .iter()
        .find(|(name, _)| name == "stm_clock")
        .map(|(_, v)| *v);
    assert_eq!(clock, Some(1));
    assert!(gauges.iter().any(|(name, _)| name == "tl2_locked_stripes"));
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The lock word as the runtime uses it: setting `LOCK_BIT` on a
        /// version word locks it, and clearing it (a committer's release
        /// store of the plain version) restores the unlocked version.
        #[test]
        fn lockword_roundtrip(bits in 0u64..u64::MAX) {
            let version = bits & !lockword::LOCK_BIT;
            prop_assert!(!lockword::is_locked(version));
            let locked = version | lockword::LOCK_BIT;
            prop_assert!(lockword::is_locked(locked));
            prop_assert_eq!(locked & !lockword::LOCK_BIT, version);
        }

        /// Satellite: the global clock advances monotonically — by exactly
        /// one per update commit, by zero per read-only commit — and every
        /// commit version equals the clock value it published.
        #[test]
        fn clock_advance_is_monotone(ops in proptest::collection::vec((0u64..2, 0usize..3), 1..40)) {
            let stm = Tl2Stm::new();
            let boxes: Vec<TBox<u64>> = (0..3).map(|_| TBox::new_on(&stm, 0u64)).collect();
            let mut expected = 0u64;
            for &(kind, i) in &ops {
                if kind == 0 {
                    let mut tx = BackendTxn::begin(&stm);
                    let v = tx.read(&boxes[i]).unwrap();
                    tx.write(&boxes[i], v + 1).unwrap();
                    tx.commit().unwrap();
                    expected += 1;
                } else {
                    atomic(&stm, |tx| tx.read(&boxes[i])).unwrap();
                }
                prop_assert_eq!(stm.clock(), expected);
                // The freshest read observes exactly the published clock's
                // state: version <= clock always holds.
                let ver = boxes[i].body().read_at(stm.clock(), &mut |_| {}).unwrap();
                prop_assert!(ver <= stm.clock());
            }
        }

        /// Satellite: stripe-hash collision oracle, mirroring mvstm's
        /// chain-oracle proptest — the shared stripe hash must stay in
        /// range and colliding neighbours must never invalidate each
        /// other.
        #[test]
        fn stripe_hash_collisions_stay_private(ids in proptest::collection::vec(0u64..1_000_000, 1..50)) {
            for &raw_id in &ids {
                prop_assert!(stripe_index(BoxId(raw_id)) < STRIPES);
            }
            // Collision oracle: group ids by stripe; within one TL2
            // instance, a commit into any box must leave every *other*
            // box's slot version untouched, collision or not.
            let stm = Tl2Stm::new();
            let boxes: Vec<TBox<u64>> = ids.iter().map(|_| TBox::new_on(&stm, 0u64)).collect();
            let victim = &boxes[0];
            atomic(&stm, |tx| tx.write(victim, 1)).unwrap();
            for (i, b) in boxes.iter().enumerate() {
                let ver = b.body().read_at(stm.clock(), &mut |_| {}).unwrap();
                if i == 0 {
                    prop_assert_eq!(ver, stm.clock());
                } else {
                    // A commit must not leak into unwritten boxes' slots.
                    prop_assert_eq!(ver, 0);
                }
            }
        }

        /// Sequential oracle over the generic transaction layer: a random
        /// single-threaded op sequence behaves exactly like plain
        /// variables (mirrors mvstm's `matches_sequential_oracle`).
        #[test]
        fn matches_sequential_oracle(ops in proptest::collection::vec((0u64..3, 0usize..4, 0usize..4), 1..60)) {
            let stm = Tl2Stm::new();
            let boxes: Vec<TBox<i64>> = (0..4).map(|i| TBox::new_on(&stm, i as i64)).collect();
            let mut oracle = [0i64, 1, 2, 3];
            for &(kind, a, b) in &ops {
                match kind {
                    0 => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[a])?;
                            tx.write(&boxes[a], v + 3)
                        }).unwrap();
                        oracle[a] += 3;
                    }
                    1 => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[a])?;
                            tx.write(&boxes[b], v)
                        }).unwrap();
                        oracle[b] = oracle[a];
                    }
                    _ => {
                        atomic(&stm, |tx| {
                            let va = tx.read(&boxes[a])?;
                            let vb = tx.read(&boxes[b])?;
                            tx.write(&boxes[a], vb)?;
                            tx.write(&boxes[b], va)
                        }).unwrap();
                        oracle.swap(a, b);
                    }
                }
            }
            for (i, bx) in boxes.iter().enumerate() {
                prop_assert_eq!(bx.read_latest(), oracle[i]);
            }
        }
    }
}
