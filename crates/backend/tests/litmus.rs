//! Litmus tests for `wtf-backend`'s box-lifetime protocol and the
//! stored values it frees — the dynamic counterpart of `wtf-audit`'s
//! static checks, named after the inventory entries
//! (`results/audit_inventory.json`) whose protocol they drive. Run under
//! Miri and TSan in CI; iteration counts scale down under Miri.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use wtf_backend::{atomic, BackendKind, BackendTxn, StmBackend, TBox};
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

/// Counts the copies of a value made and dropped; `PAD` bytes beside the
/// counts pick the `Value` arm (8: 16 bytes, stored inline; 9: behind an
/// `Arc`).
struct Tracked<const PAD: usize> {
    counts: Arc<[AtomicUsize; 2]>,
    _pad: [u8; PAD],
}

impl<const PAD: usize> Tracked<PAD> {
    fn new(counts: &Arc<[AtomicUsize; 2]>) -> Self {
        counts[0].fetch_add(1, Ordering::SeqCst);
        Tracked {
            counts: counts.clone(),
            _pad: [0; PAD],
        }
    }
}

impl<const PAD: usize> Clone for Tracked<PAD> {
    fn clone(&self) -> Self {
        Tracked::new(&self.counts)
    }
}

impl<const PAD: usize> Drop for Tracked<PAD> {
    fn drop(&mut self) {
        self.counts[1].fetch_add(1, Ordering::SeqCst);
    }
}

/// Every stored value is dropped exactly once, on both arms of `Value`
/// (over `value.rs`): replaced by a commit (mvstm's install and prune,
/// TL2's overwrite in place), held back by an old snapshot and pruned
/// after it, rewritten in a write buffer, buffered by a transaction that
/// aborts, and freed with its retired box.
fn value_drops_once<const PAD: usize>(stm: Arc<dyn StmBackend>) {
    let kind = stm.kind();
    let inline = std::mem::size_of::<Tracked<PAD>>() <= 16;
    assert_eq!(inline, PAD == 8, "PAD picks the arm");
    let counts = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let live = || counts[0].load(Ordering::SeqCst) - counts[1].load(Ordering::SeqCst);
    let sink = TBox::new_on(&*stm, 0usize);
    let b = TBox::new_on(&*stm, Tracked::<PAD>::new(&counts));
    assert_eq!(live(), 1, "{kind:?}/{PAD}: erasing moves");
    for _ in 0..ROUNDS {
        atomic(&*stm, |tx| tx.write(&b, Tracked::new(&counts))).expect("no explicit abort");
    }
    assert_eq!(live(), 1, "{kind:?}/{PAD}: each replaced value dropped");
    let old = stm.acquire_snapshot();
    atomic(&*stm, |tx| tx.write(&b, Tracked::new(&counts))).expect("no explicit abort");
    let held = if kind == BackendKind::Mvstm { 2 } else { 1 };
    assert_eq!(live(), held, "{kind:?}/{PAD}: the old snapshot's version");
    drop(old);
    atomic(&*stm, |tx| tx.write(&sink, 1)).expect("no explicit abort");
    atomic(&*stm, |tx| tx.write(&b, Tracked::new(&counts))).expect("no explicit abort");
    assert_eq!(live(), 1, "{kind:?}/{PAD}: pruned once the snapshot went");
    {
        let mut tx = BackendTxn::begin(&*stm);
        for _ in 0..3 {
            tx.write(&b, Tracked::new(&counts))
                .expect("writes are buffered");
        }
        assert_eq!(
            live(),
            2,
            "{kind:?}/{PAD}: a rewrite drops the buffered value"
        );
    }
    assert_eq!(live(), 1, "{kind:?}/{PAD}: the abandoned buffer dropped");
    let aborted = atomic(&*stm, |tx| {
        tx.write(&b, Tracked::new(&counts))?;
        tx.abort::<()>()
    });
    assert!(aborted.is_err());
    assert_eq!(live(), 1, "{kind:?}/{PAD}: the aborted buffer dropped");
    drop(b);
    atomic(&*stm, |tx| tx.write(&sink, 2)).expect("no explicit abort");
    assert_eq!(stm.horizon().retired_boxes(), 0, "{kind:?}/{PAD}");
    assert_eq!(live(), 0, "{kind:?}/{PAD}: the retired box freed its value");
}

#[test]
fn value_drops_once_mvstm() {
    value_drops_once::<8>(Arc::new(Stm::new()));
    value_drops_once::<9>(Arc::new(Stm::new()));
}

#[test]
fn value_drops_once_tl2() {
    value_drops_once::<8>(Arc::new(Tl2Stm::new()));
    value_drops_once::<9>(Arc::new(Tl2Stm::new()));
}
