//! Litmus tests for `wtf-backend`'s box-lifetime protocol — the dynamic
//! counterpart of `wtf-audit`'s static checks, named after the
//! inventory entries (`results/audit_inventory.json`) whose protocol
//! they drive. Run under Miri and TSan in CI; iteration counts scale
//! down under Miri.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use wtf_backend::{atomic, BackendTxn, StmBackend, TBox};
use wtf_mvstm::Stm;
use wtf_tl2::Tl2Stm;

const ROUNDS: usize = if cfg!(miri) { 8 } else { 500 };

/// Counts the drops of every copy, stored or read out.
#[derive(Clone)]
struct Counted(Arc<AtomicUsize>);

impl Drop for Counted {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// Retire versus borrow, over `handles` and `retired_len`: a reader
/// borrows a box under its snapshot while a second thread drops the last
/// handle (or the reader does, whichever goes last) and a committer
/// drains. The body must survive until the reader's commit has validated
/// the borrow — the stored value is not dropped while the reader's
/// transaction lives — and the first commits after it free the body.
fn retire_vs_borrow(stm: Arc<dyn StmBackend>) {
    let kind = stm.kind();
    let sink = TBox::new_on(&*stm, 0usize);
    for round in 0..ROUNDS {
        let drops = Arc::new(AtomicUsize::new(0));
        let watched = TBox::new_on(&*stm, Counted(drops.clone()));
        let gate = Arc::new(Barrier::new(3));
        let reader = {
            let (stm, gate, sink) = (stm.clone(), gate.clone(), sink.clone());
            let (handle, drops) = (watched.clone(), drops.clone());
            std::thread::spawn(move || {
                let mut tx = BackendTxn::begin(&*stm);
                tx.read(&handle).expect("the box was written before");
                drop(handle);
                gate.wait();
                // The body is retired and the committer has drained: the
                // reader's registration still holds it.
                let before = drops.load(Ordering::SeqCst);
                tx.write(&sink, round).expect("writes are buffered");
                let _ = tx.commit();
                before
            })
        };
        let dropper = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                drop(watched);
                gate.wait();
            })
        };
        let committer = {
            let (stm, gate) = (stm.clone(), gate.clone());
            let own = TBox::new_on(&*stm, 0usize);
            std::thread::spawn(move || {
                for i in 0..3 {
                    atomic(&*stm, |tx| tx.write(&own, i)).expect("no explicit abort");
                }
                gate.wait();
            })
        };
        committer.join().unwrap();
        dropper.join().unwrap();
        // One drop is the copy the read handed out; the stored value
        // lived on until the reader's commit had validated the borrow.
        let before = reader.join().unwrap();
        assert_eq!(before, 1, "{kind:?}: the body outlived the borrow");
        for _ in 0..2 {
            atomic(&*stm, |tx| tx.write(&sink, round)).expect("no explicit abort");
        }
        assert_eq!(stm.horizon().retired_boxes(), 0, "{kind:?}");
        assert_eq!(drops.load(Ordering::SeqCst), 2, "{kind:?}: freed");
    }
}

#[test]
fn handles_retire_vs_borrow_mvstm() {
    retire_vs_borrow(Arc::new(Stm::new()));
}

#[test]
fn handles_retire_vs_borrow_tl2() {
    retire_vs_borrow(Arc::new(Tl2Stm::new()));
}

/// Upgrade versus last drop, over `handles`: a thread whose snapshot is
/// registered upgrades a borrow while another thread drops the box's
/// last handle. Either the upgrade wins, and the body is retired only
/// when the new handle goes, or it fails on a zero count and the body is
/// already retired; a freed body is never resurrected. Either way the
/// body is freed once the registration ends.
fn upgrade_vs_last_drop(stm: Arc<dyn StmBackend>) {
    let kind = stm.kind();
    let sink = TBox::new_on(&*stm, 0usize);
    for round in 0..ROUNDS {
        let drops = Arc::new(AtomicUsize::new(0));
        let watched = TBox::new_on(&*stm, Counted(drops.clone()));
        let snapshot = stm.acquire_snapshot();
        let borrow = watched.borrow();
        let dropper = std::thread::spawn(move || drop(watched));
        // SAFETY: `snapshot` was registered before the borrow was taken
        // and is held until after the call.
        let upgraded = unsafe { borrow.upgrade() };
        dropper.join().unwrap();
        if let Some(handle) = upgraded {
            assert_eq!(stm.horizon().retired_boxes(), 0, "{kind:?}: counted");
            assert_eq!(handle.handles(), 1, "{kind:?}");
            drop(handle);
        }
        assert_eq!(stm.horizon().retired_boxes(), 1, "{kind:?}: retired");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "{kind:?}");
        drop(snapshot);
        for _ in 0..2 {
            atomic(&*stm, |tx| tx.write(&sink, round)).expect("no explicit abort");
        }
        assert_eq!(stm.horizon().retired_boxes(), 0, "{kind:?}");
        assert_eq!(drops.load(Ordering::SeqCst), 1, "{kind:?}: freed");
    }
}

#[test]
fn handles_upgrade_vs_last_drop_mvstm() {
    upgrade_vs_last_drop(Arc::new(Stm::new()));
}

#[test]
fn handles_upgrade_vs_last_drop_tl2() {
    upgrade_vs_last_drop(Arc::new(Tl2Stm::new()));
}
