//! Litmus tests for `wtf-tl2`'s versioned lock words — the dynamic
//! counterpart of `wtf-audit`'s static checks, named after the
//! inventory entry (`results/audit_inventory.json`) whose protocol they
//! drive. Run under Miri and TSan in CI; iteration counts scale down
//! under Miri.

use std::sync::Arc;
use wtf_backend::{atomic, StmBackend, StmError, TBox};
use wtf_tl2::Tl2Stm;

const ROUNDS: u64 = if cfg!(miri) { 30 } else { 10_000 };

/// MP shape over `word`: the committer's acqrel `fetch_or` sets the lock
/// bit before write-back and the release store publishes the bumped
/// version after it; the fast-path reader's acquire-load bracket must
/// therefore never observe `flag == i` without `data == i`.
#[test]
fn word_lock_bit_and_version_bracket_reads() {
    let stm = Arc::new(Tl2Stm::new());
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
                    assert!(f >= last, "version clock is monotonic");
                    last = f;
                }
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert!(stm.clock() >= ROUNDS, "every commit bumped the clock");
}

/// Lending over `tl2-slot`: a reader borrows a heap payload under the
/// slot mutex — `read_at` hands its closure the slot's value, no
/// reference count taken — and checks it, yielding in the middle, while
/// a writer's write-back replaces (and drops) the slot's value. The slot
/// mutex is what keeps the borrow alive; a lend outside it would be a
/// use after free under Miri and a torn payload here.
#[test]
fn tl2_slot_lent_payload_survives_write_back() {
    const LEN: usize = 16;
    let stm = Arc::new(Tl2Stm::new());
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
                    let read = payload.body().read_at(snap.version(), &mut |v| {
                        let lent = v.downcast_ref::<Vec<u64>>().unwrap();
                        first = Some(lent[0]);
                        std::thread::yield_now();
                        assert!(lent.iter().all(|&x| x == lent[0]), "torn payload");
                        assert_eq!(lent.len(), LEN);
                    });
                    match read {
                        // One writer, one box: commit `i` writes back
                        // `vec![i; LEN]` at version `i`.
                        Ok(ver) => {
                            assert_eq!(first, Some(ver), "the lent value is the slot's");
                            assert!(ver >= last, "version clock is monotonic");
                            last = ver;
                        }
                        // Overwritten since the snapshot: nothing lent.
                        Err(e) => {
                            assert_eq!(e, StmError::Conflict);
                            assert_eq!(first, None, "no lend on Err");
                        }
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
