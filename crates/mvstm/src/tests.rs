//! Unit tests for the multi-versioned STM substrate.

use crate::raw::chain_len;
use crate::Stm;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use wtf_backend::{atomic, StmBackend, TBox, Value};

/// A lending read through the trait at `snapshot`, copying the value out.
fn read_i64(b: &TBox<i64>, snapshot: u64) -> (u64, i64) {
    let mut lent = None;
    let ver = b
        .body()
        .read_at(snapshot, &mut |v| lent = v.downcast_ref::<i64>().copied())
        .unwrap();
    (ver, lent.unwrap())
}

#[test]
fn read_own_writes() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 1i64);
    let out = atomic(&stm, |tx| {
        tx.write(&b, 5)?;
        tx.read(&b)
    })
    .unwrap();
    assert_eq!(out, 5);
    assert_eq!(b.read_latest(), 5);
}

/// A typed box round-trips through the trait: create, read outside any
/// transaction, read-modify-write through [`atomic`], counters follow.
#[test]
fn typed_box_round_trips_through_atomic() {
    let stm = Stm::new();
    let b: TBox<i64> = TBox::new_on(&stm, 5);
    assert_eq!(b.read_latest(), 5);
    let seen = atomic(&stm, |tx| {
        let v = tx.read(&b)?;
        tx.write(&b, v + 1)?;
        Ok(v)
    })
    .unwrap();
    assert_eq!(seen, 5);
    assert_eq!(b.read_latest(), 6);
    let stats = stm.stats();
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.read_only_commits, 0);
}

#[test]
fn snapshot_isolation_within_txn() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 0i64);
    // Commit a few versions.
    for i in 1..=3 {
        atomic(&stm, |tx| tx.write(&b, i)).unwrap();
    }
    assert_eq!(b.read_latest(), 3);
    assert_eq!(stm.clock(), 3);
}

#[test]
fn read_only_commit_is_validation_free() {
    let stm = Stm::new();
    let b = TBox::new_on(&stm, 7i64);
    atomic(&stm, |tx| tx.read(&b)).unwrap();
    let s = stm.stats();
    assert_eq!(s.commits, 1);
    assert_eq!(s.read_only_commits, 1);
    assert_eq!(s.aborts, 0);
}

#[test]
fn conflicting_writers_abort_and_retry() {
    // Interleave two transactions by hand through the trait: T1 reads x,
    // T2 commits x, T1's commit must fail validation — charged to x.
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let y = TBox::new_on(&stm, 0i64);

    let snap1 = stm.acquire_snapshot();
    let (v0, _) = read_i64(&x, snap1.version());
    assert_eq!(v0, 0);

    // T2 commits a write to x.
    atomic(&stm, |tx| tx.write(&x, 99)).unwrap();

    // T1 tries to commit {read x, write y} at the old snapshot: conflict.
    let err = stm
        .commit_attributed(
            snap1.version(),
            true,
            &[x.body()],
            vec![(y.body(), Value::new(1i64))],
        )
        .unwrap_err();
    assert_eq!(err, x.id());
}

#[test]
fn blind_write_commits_without_validation_failure() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);

    let snap1 = stm.acquire_snapshot();
    // Concurrent committer bumps x.
    atomic(&stm, |tx| tx.write(&x, 5)).unwrap();
    // Blind write (no reads) from the old snapshot still commits: the
    // transaction is logically instantaneous at commit time.
    stm.commit_attributed(
        snap1.version(),
        true,
        &[],
        vec![(x.body(), Value::new(10i64))],
    )
    .unwrap();
    assert_eq!(x.read_latest(), 10);
}

#[test]
fn old_snapshot_reads_old_version() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 1i64);
    let snap = stm.acquire_snapshot();
    atomic(&stm, |tx| tx.write(&x, 2)).unwrap();
    atomic(&stm, |tx| tx.write(&x, 3)).unwrap();
    assert_eq!(read_i64(&x, snap.version()), (0, 1));
    // And the latest snapshot sees the newest.
    assert_eq!(x.read_latest(), 3);
}

#[test]
fn gc_prunes_unreachable_versions() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    for i in 1..=50 {
        atomic(&stm, |tx| tx.write(&x, i)).unwrap();
    }
    // No active snapshots: each commit prunes everything older than itself.
    assert_eq!(chain_len(&x), 1);
    assert!(stm.stats().versions_pruned >= 49);
}

#[test]
fn gc_respects_active_snapshots() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    atomic(&stm, |tx| tx.write(&x, 1)).unwrap();
    let snap = stm.acquire_snapshot(); // pins version 1
    for i in 2..=20 {
        atomic(&stm, |tx| tx.write(&x, i)).unwrap();
    }
    // Versions newer than the pinned snapshot are all kept, plus the
    // version the snapshot reads: 19 new + 1 pinned.
    assert_eq!(chain_len(&x), 20);
    assert_eq!(read_i64(&x, snap.version()), (1, 1));
    drop(snap);
    atomic(&stm, |tx| tx.write(&x, 100)).unwrap();
    assert_eq!(chain_len(&x), 1);
}

#[test]
fn explicit_abort_propagates() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let res: Result<(), _> = atomic(&stm, |tx| {
        tx.write(&x, 42)?;
        tx.abort()
    });
    assert!(res.is_err());
    // The aborted write must not be visible.
    assert_eq!(x.read_latest(), 0);
}

#[test]
fn atomic_retries_on_conflict_until_success() {
    // Force one conflict by committing a competing write between the
    // body's read and its commit, using a flag to only interfere once.
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let interfered = AtomicBool::new(false);
    let stm2 = stm.clone();
    let x2 = x.clone();
    let out = atomic(&stm, |tx| {
        let v = tx.read(&x)?;
        if !interfered.swap(true, Ordering::SeqCst) {
            // Sneak in a conflicting commit from "another thread".
            atomic(&stm2, |t2| {
                let cur = t2.read(&x2)?;
                t2.write(&x2, cur + 100)
            })
            .unwrap();
        }
        tx.write(&x, v + 1)?;
        Ok(v + 1)
    })
    .unwrap();
    // First attempt read 0 but aborted; retry read 100 and wrote 101.
    assert_eq!(out, 101);
    assert_eq!(x.read_latest(), 101);
    assert_eq!(stm.stats().aborts, 1);
}

#[test]
fn heterogeneous_box_types() {
    let stm = Stm::new();
    let a = TBox::new_on(&stm, String::from("hi"));
    let b = TBox::new_on(&stm, vec![1u8, 2, 3]);
    let c = TBox::new_on(&stm, 2.5f64);
    atomic(&stm, |tx| {
        let s = tx.read(&a)?;
        tx.write(&a, format!("{s}!"))?;
        let mut v = tx.read(&b)?;
        v.push(4);
        tx.write(&b, v)?;
        let f = tx.read(&c)?;
        tx.write(&c, f * 2.0)
    })
    .unwrap();
    assert_eq!(a.read_latest(), "hi!");
    assert_eq!(b.read_latest(), vec![1, 2, 3, 4]);
    assert_eq!(c.read_latest(), 5.0);
}

#[test]
fn concurrent_bank_invariant_real_threads() {
    // Classic invariant stress: total balance is conserved under
    // concurrent random transfers.
    const ACCOUNTS: usize = 32;
    const THREADS: usize = 4;
    const TRANSFERS: usize = 500;
    let stm = Stm::new();
    let accounts: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TBox::new_on(&stm, 1000i64))
            .collect::<Vec<_>>(),
    );
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let stm = stm.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut seed = 0x243f_6a88_85a3_08d3u64 ^ (t as u64);
                let mut next = || {
                    seed ^= seed << 13;
                    seed ^= seed >> 7;
                    seed ^= seed << 17;
                    seed
                };
                let mut done = 0;
                while done < TRANSFERS {
                    let from = (next() % ACCOUNTS as u64) as usize;
                    let to = (next() % ACCOUNTS as u64) as usize;
                    if from == to {
                        // A self-transfer with read-both-then-write-both
                        // ordering legitimately nets +amount; skip it so the
                        // conservation invariant stays exact.
                        continue;
                    }
                    done += 1;
                    let amount = (next() % 50) as i64;
                    atomic(&stm, |tx| {
                        let f = tx.read(&accounts[from])?;
                        let t = tx.read(&accounts[to])?;
                        tx.write(&accounts[from], f - amount)?;
                        tx.write(&accounts[to], t + amount)?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = atomic(&stm, |tx| {
        let mut sum = 0i64;
        for a in accounts.iter() {
            sum += tx.read(a)?;
        }
        Ok(sum)
    })
    .unwrap();
    assert_eq!(total, 1000 * ACCOUNTS as i64);
    assert_eq!(stm.stats().commits, THREADS as u64 * TRANSFERS as u64 + 1);
}

#[test]
fn snapshot_registry_counts() {
    let stm = Stm::new();
    assert_eq!(stm.horizon.active_snapshots(), 0);
    let s1 = stm.acquire_snapshot();
    let s2 = stm.acquire_snapshot();
    assert_eq!(stm.horizon.active_snapshots(), 1); // same version, one entry
    let x = TBox::new_on(&stm, 0i64);
    atomic(&stm, |tx| tx.write(&x, 1)).unwrap();
    let s3 = stm.acquire_snapshot();
    assert_eq!(stm.horizon.active_snapshots(), 2);
    drop(s1);
    drop(s2);
    drop(s3);
    assert_eq!(stm.horizon.active_snapshots(), 0);
}

#[test]
fn tracer_attributes_conflicts_and_measures_commits() {
    use wtf_trace::{TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Lifecycle);
    let stm = Stm::with_tracer(Arc::clone(&tracer));
    let x = TBox::new_on(&stm, 0i64);
    let y = TBox::new_on(&stm, 0i64);

    // Interleave by hand as in `conflicting_writers_abort_and_retry`:
    // T1 reads x at an old snapshot; T2 bumps x; T1's commit conflicts.
    let snap1 = stm.acquire_snapshot();
    read_i64(&x, snap1.version());
    atomic(&stm, |tx| tx.write(&x, 99)).unwrap();
    let err = stm
        .commit_attributed(
            snap1.version(),
            true,
            &[x.body()],
            vec![(y.body(), Value::new(1i64))],
        )
        .unwrap_err();
    assert_eq!(err, x.id());

    // The abort is charged to x, the box whose validation failed.
    let summary = tracer.summary();
    assert_eq!(summary.conflict_total, 1);
    assert_eq!(summary.hotspots, vec![(x.id().0, 1)]);
    // The successful commit fed the latency histograms.
    assert_eq!(summary.commit_latency.count, 1);
    assert_eq!(summary.validation_latency.count, 1);
    assert_eq!(summary.publish_wait.count, 1);
    assert!(tracer.events_recorded() > 0);
}

#[test]
fn disabled_tracer_stm_records_nothing() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    for i in 0..10 {
        atomic(&stm, |tx| tx.write(&x, i)).unwrap();
    }
    let summary = stm.tracer().summary();
    assert!(!summary.enabled());
    assert_eq!(summary.events_recorded, 0);
    assert_eq!(summary.commit_latency.count, 0);
    assert_eq!(summary.conflict_total, 0);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Sequential oracle check: a random sequence of single-threaded
    /// transactions over a few boxes behaves exactly like plain variables.
    #[derive(Debug, Clone)]
    enum Op {
        Add(usize, i64),
        Copy(usize, usize),
        Swap(usize, usize),
    }

    fn op_strategy(nboxes: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..nboxes, -100i64..100).prop_map(|(i, d)| Op::Add(i, d)),
            (0..nboxes, 0..nboxes).prop_map(|(a, b)| Op::Copy(a, b)),
            (0..nboxes, 0..nboxes).prop_map(|(a, b)| Op::Swap(a, b)),
        ]
    }

    proptest! {
        #[test]
        fn matches_sequential_oracle(ops in proptest::collection::vec(op_strategy(4), 1..60)) {
            let stm = Stm::new();
            let boxes: Vec<TBox<i64>> = (0..4).map(|i| TBox::new_on(&stm, i as i64)).collect();
            let mut oracle = [0i64, 1, 2, 3];
            for op in &ops {
                match *op {
                    Op::Add(i, d) => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[i])?;
                            tx.write(&boxes[i], v + d)
                        }).unwrap();
                        oracle[i] += d;
                    }
                    Op::Copy(a, b) => {
                        atomic(&stm, |tx| {
                            let v = tx.read(&boxes[a])?;
                            tx.write(&boxes[b], v)
                        }).unwrap();
                        oracle[b] = oracle[a];
                    }
                    Op::Swap(a, b) => {
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
            for (i, b) in boxes.iter().enumerate() {
                prop_assert_eq!(b.read_latest(), oracle[i]);
            }
        }

        #[test]
        fn version_chains_never_lose_newest(writes in 1usize..40) {
            let stm = Stm::new();
            let x = TBox::new_on(&stm, 0usize);
            for i in 1..=writes {
                atomic(&stm, |tx| tx.write(&x, i)).unwrap();
            }
            prop_assert_eq!(x.read_latest(), writes);
            prop_assert_eq!(chain_len(&x), 1);
        }
    }
}

/// Regression test for the snapshot-registration/GC race: readers begin
/// snapshots while writers commit-and-prune as fast as possible. Before
/// the fix (registration under the registry lock + pruning after clock
/// publication) this panicked with "no version visible at snapshot".
#[test]
fn snapshot_gc_race_regression() {
    let stm = Stm::new();
    let x = TBox::new_on(&stm, 0i64);
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stm = stm.clone();
        let x = x.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut i = 0i64;
            while !stop.load(Ordering::Relaxed) {
                atomic(&stm, |tx| tx.write(&x, i)).unwrap();
                i += 1;
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stm = stm.clone();
            let x = x.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    // begin a snapshot and read through it immediately
                    let snap = stm.acquire_snapshot();
                    let (ver, _) = read_i64(&x, snap.version());
                    assert!(ver <= snap.version());
                }
            })
        })
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// The live gauges registered by a traced STM track retained versions,
/// GC horizon lag and registry occupancy through a pin-then-release
/// scenario.
#[test]
fn live_gauges_track_versions_and_horizon() {
    use wtf_trace::{TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Lifecycle);
    let stm = Stm::with_tracer(tracer.clone());
    let gauge = |name: &str| {
        tracer
            .gauges
            .read_all()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("gauge {name} registered"))
    };
    let b = TBox::new_on(&stm, 0i64);
    atomic(&stm, |tx| tx.write(&b, 1)).unwrap();
    assert_eq!(gauge("stm_clock"), 1);
    assert_eq!(gauge("stm_gc_horizon_lag"), 0, "nothing active");
    assert_eq!(gauge("stm_registry_occupancy"), 0);
    // Pin the current snapshot, then commit twice more: GC cannot prune
    // past the pin, so retained versions and horizon lag both grow.
    let pin = stm.acquire_snapshot();
    for i in 2..=3 {
        atomic(&stm, |tx| tx.write(&b, i)).unwrap();
    }
    assert_eq!(gauge("stm_clock"), 3);
    assert_eq!(gauge("stm_gc_horizon_lag"), 3 - pin.version());
    assert_eq!(gauge("stm_registry_occupancy"), 1);
    assert_eq!(gauge("stm_active_snapshots"), 1);
    assert!(
        gauge("stm_retained_versions") >= 2,
        "pinned chain retains the pinned version plus the head"
    );
    drop(pin);
    // Releasing the pin lets the next commit's GC collapse the chain.
    atomic(&stm, |tx| tx.write(&b, 4)).unwrap();
    assert_eq!(gauge("stm_gc_horizon_lag"), 0);
    assert_eq!(
        gauge("stm_retained_versions"),
        stm.counters.retained_versions()
    );
    assert_eq!(stm.horizon.lag(), 0);
}

/// End-to-end churn: snapshot register/deregister racing committing
/// pruners. Reads through a live snapshot must never fall off the chain,
/// and once everything quiesces GC collapses each chain to one version.
#[test]
fn registry_churn_vs_pruning_commits() {
    let stm = Stm::new();
    let boxes: Vec<TBox<i64>> = (0..4).map(|_| TBox::new_on(&stm, 0i64)).collect();
    let stop = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..2)
        .map(|w| {
            let stm = stm.clone();
            let boxes = boxes.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let b = &boxes[(w * 2 + (i as usize & 1)) % boxes.len()];
                    atomic(&stm, |tx| tx.write(b, i)).unwrap();
                    i += 1;
                }
            })
        })
        .collect();
    let churners: Vec<_> = (0..3)
        .map(|c| {
            let stm = stm.clone();
            let boxes = boxes.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = stm.acquire_snapshot();
                    for b in boxes.iter().skip(c % boxes.len()) {
                        let (ver, _) = read_i64(b, snap.version());
                        assert!(ver <= snap.version());
                    }
                    // chain_len takes the box stripe: also races the pruners.
                    assert!(chain_len(&boxes[c % boxes.len()]) >= 1);
                }
            })
        })
        .collect();

    std::thread::sleep(std::time::Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    for c in churners {
        c.join().unwrap();
    }
    // Quiesce: one more pruning commit per box collapses every chain.
    for b in &boxes {
        atomic(&stm, |tx| tx.write(b, -1)).unwrap();
        assert_eq!(chain_len(b), 1);
    }
}

mod chain_proptests {
    use crate::vbox::BoxBody;
    use proptest::prelude::*;
    use std::sync::Arc;
    use wtf_backend::{stripe_index, BoxId, StripeTable, Value};

    proptest! {
        /// Oracle check for the lock-free cons-list chain: arbitrary
        /// interleavings of install / read_at / prune behave exactly like
        /// a newest-first vector, `read_at` always returns the newest
        /// version at-or-below the snapshot, and prune never drops the
        /// newest version at-or-below its horizon.
        #[test]
        fn chain_matches_oracle(ops in proptest::collection::vec((0u8..3, 1u64..4, 0u64..64), 1..80)) {
            let stripes = Arc::new(StripeTable::default());
            let id = BoxId(0);
            let body = BoxBody::new(id, stripes.clone(), Value::new(0u64));
            // Oracle chain, newest first: (version, value).
            let mut oracle: Vec<(u64, u64)> = vec![(0, 0)];
            let mut last_version = 0u64;
            let mut next_value = 0u64;
            for &(kind, gap, pick) in &ops {
                match kind {
                    0 => {
                        last_version += gap; // gaps model skipped tickets elsewhere
                        next_value += 1;
                        {
                            let _stripe = stripes.lock_one(stripe_index(id));
                            body.install(last_version, Value::new(next_value));
                        }
                        oracle.insert(0, (last_version, next_value));
                    }
                    1 => {
                        let snapshot = pick % (last_version + 2);
                        // When all versions <= snapshot were pruned away,
                        // read_at would (correctly) panic — no live
                        // transaction can hold such a snapshot — so only
                        // read when the oracle says something is visible.
                        if let Some(&(ev, eval)) = oracle.iter().find(|(v, _)| *v <= snapshot) {
                            let mut lent = None;
                            let rv = body.read_at(snapshot, |v| lent = v.downcast_ref::<u64>().copied());
                            prop_assert_eq!(rv, ev);
                            prop_assert_eq!(lent, Some(eval));
                        }
                    }
                    _ => {
                        let min_active = pick % (last_version + 2);
                        {
                            let _stripe = stripes.lock_one(stripe_index(id));
                            body.prune(min_active);
                        }
                        if let Some(keep) = oracle.iter().position(|(v, _)| *v <= min_active) {
                            oracle.truncate(keep + 1);
                            // The newest version <= min_active must survive.
                            let rv = body.read_at(min_active, |_| {});
                            prop_assert_eq!(rv, oracle[oracle.len() - 1].0);
                        }
                    }
                }
                prop_assert_eq!(body.chain_len(), oracle.len());
            }
        }
    }
}
