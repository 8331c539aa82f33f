//! Litmus tests for `wtf-mvstm`'s published ordering contracts — the
//! dynamic counterpart of `wtf-audit`'s static checks. Each test is
//! named after the inventory entry (`results/audit_inventory.json`)
//! whose protocol it drives, and runs under Miri and TSan in CI; the
//! iteration counts scale down under Miri so the interpreted runs stay
//! in budget while still interleaving.

use std::sync::Arc;
use wtf_backend::{atomic, StmBackend, TBox};
use wtf_mvstm::Stm;

const ROUNDS: u64 = if cfg!(miri) { 40 } else { 20_000 };

/// MP shape over `head` + `clock`: `install`'s release head-store (and
/// the SeqCst clock republish behind it) must pair with the reader's
/// acquire traversal, so a transaction that observes `flag == i` also
/// observes `data == i` — the two are written in one commit.
#[test]
fn mp_head_release_install_pairs_with_acquire_read() {
    let stm = Arc::new(Stm::new());
    let data = Arc::new(TBox::new_on(&*stm, 0u64));
    let flag = Arc::new(TBox::new_on(&*stm, 0u64));

    let writer = {
        let (stm, data, flag) = (Arc::clone(&stm), Arc::clone(&data), Arc::clone(&flag));
        std::thread::spawn(move || {
            for i in 1..=ROUNDS {
                atomic(&*stm, |tx| {
                    tx.write(&data, i)?;
                    tx.write(&flag, i)
                })
                .unwrap();
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (stm, data, flag) = (Arc::clone(&stm), Arc::clone(&data), Arc::clone(&flag));
            std::thread::spawn(move || {
                let mut last = 0u64;
                while last < ROUNDS {
                    let (f, d) = atomic(&*stm, |tx| {
                        let f = tx.read(&flag)?;
                        let d = tx.read(&data)?;
                        Ok((f, d))
                    })
                    .unwrap();
                    assert_eq!(f, d, "flag and data are committed together");
                    assert!(f >= last, "clock publication is monotonic");
                    last = f;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// SB shape over `Slot` + `clock`: a reader claims a registry slot
/// (SeqCst CAS + republish) while the writer advances the clock and GC
/// prunes behind the minimum registered snapshot. If the republish
/// protocol were weaker, GC could prune a version a just-registered
/// snapshot is entitled to read — observable as a torn or backwards
/// double-read inside one transaction.
#[test]
fn sb_registry_slot_claim_vs_clock_republish() {
    let stm = Arc::new(Stm::new());
    let counter = Arc::new(TBox::new_on(&*stm, 0u64));

    let writer = {
        let (stm, counter) = (Arc::clone(&stm), Arc::clone(&counter));
        std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                atomic(&*stm, |tx| {
                    let v = tx.read(&counter)?;
                    tx.write(&counter, v + 1)
                })
                .unwrap();
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (stm, counter) = (Arc::clone(&stm), Arc::clone(&counter));
            std::thread::spawn(move || {
                let mut last = 0u64;
                loop {
                    let (a, b) = atomic(&*stm, |tx| {
                        let a = tx.read(&counter)?;
                        let b = tx.read(&counter)?;
                        Ok((a, b))
                    })
                    .unwrap();
                    assert_eq!(a, b, "double-read within one snapshot is stable");
                    assert!(a >= last, "snapshots never travel backwards");
                    last = a;
                    if a >= ROUNDS {
                        break;
                    }
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}

/// SB shape over `hwm` + `Slot` + `clock`: on a fresh STM, registrants
/// on fresh threads claim slots at and above the registry's high-water
/// mark — raising it with `fetch_max` before their slot CAS — while a
/// writer publishes and prunes the chain behind the oldest registered
/// snapshot. Were the mark raised after the claim, or read stale by the
/// writer's GC scan, the scan would skip a just-claimed slot and prune
/// the version that snapshot reads: a panic in `read_at`, a torn double
/// read, or (under Miri) a read of a freed node.
#[test]
fn sb_hwm_fresh_thread_claim_vs_prune() {
    use std::sync::Barrier;
    const REGISTRANTS: usize = 3;
    const LEN: usize = 4;
    let (rounds, commits) = if cfg!(miri) { (3, 12) } else { (300, 200) };
    for _ in 0..rounds {
        let stm = Arc::new(Stm::new());
        let payload = Arc::new(TBox::new_on(&*stm, vec![0u64; LEN]));
        let start = Arc::new(Barrier::new(REGISTRANTS + 1));
        let writer = {
            let (stm, payload, start) = (stm.clone(), payload.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                for i in 1..=commits {
                    atomic(&*stm, |tx| tx.write(&payload, vec![i; LEN])).unwrap();
                }
            })
        };
        let registrants: Vec<_> = (0..REGISTRANTS)
            .map(|_| {
                let (stm, payload, start) = (stm.clone(), payload.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    let mut last = 0;
                    while last < commits {
                        let (a, b) = atomic(&*stm, |tx| {
                            let a = tx.read(&payload)?;
                            std::thread::yield_now();
                            let b = tx.read(&payload)?;
                            Ok((a, b))
                        })
                        .unwrap();
                        assert_eq!(a, b, "double-read within one snapshot is stable");
                        assert!(a.iter().all(|&v| v == a[0]), "one commit's payload");
                        assert!(a[0] >= last, "snapshots never travel backwards");
                        last = a[0];
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in registrants {
            r.join().unwrap();
        }
    }
}

/// Lending over `head` + `next`: a reader borrows a heap payload in
/// place — `read_at` hands its closure the version node's value, no
/// reference count taken — and checks it, yielding in the middle, while a
/// writer commits new versions and GC prunes the chain behind them. The
/// reader's registered snapshot is all that keeps its node alive; were
/// `prune` to free a node at or above the keep node, Miri would report
/// the use after free and the payload check would read garbage.
#[test]
fn head_next_lent_payload_survives_concurrent_prune() {
    const LEN: usize = 16;
    let stm = Arc::new(Stm::new());
    let payload = Arc::new(TBox::new_on(&*stm, vec![0u64; LEN]));

    let writer = {
        let (stm, payload) = (Arc::clone(&stm), Arc::clone(&payload));
        std::thread::spawn(move || {
            for i in 1..=ROUNDS {
                atomic(&*stm, |tx| tx.write(&payload, vec![i; LEN])).unwrap();
            }
        })
    };

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (stm, payload) = (Arc::clone(&stm), Arc::clone(&payload));
            std::thread::spawn(move || {
                let mut last = 0u64;
                while last < ROUNDS {
                    let snap = stm.acquire_snapshot();
                    let mut first = None;
                    let ver = payload
                        .body()
                        .read_at(snap.version(), &mut |v| {
                            let lent = v.downcast_ref::<Vec<u64>>().unwrap();
                            first = Some(lent[0]);
                            std::thread::yield_now();
                            assert!(lent.iter().all(|&x| x == lent[0]), "torn payload");
                            assert_eq!(lent.len(), LEN);
                        })
                        .unwrap();
                    // One writer, one box: commit `i` installs `vec![i; LEN]`
                    // at version `i`.
                    assert_eq!(first, Some(ver), "the lent value is the version's");
                    assert!(ver >= last, "snapshots never travel backwards");
                    last = ver;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}
