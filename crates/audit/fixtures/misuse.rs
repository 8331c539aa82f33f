//! Seeded TM-misuse fixture for wtf-audit's misuse pass. NOT compiled:
//! CI and `seeded_fixtures_trip_every_rule` assert the audit fails on
//! every rule it claims to detect. `audit_tree` skips `fixtures/` when it
//! walks the workspace, so these findings never count against it.

use wtf_backend::{atomic, BackendSnapshot, StmBackend, TBox};

/// raw-api: the trait's own operations outside the runtime crates.
fn sneaky_read(stm: &dyn StmBackend, b: &TBox<u64>) -> u64 {
    let (snap, mut v) = (stm.acquire_snapshot(), 0);
    b.body().read_at(snap.version(), &mut |x| v = *x.downcast_ref::<u64>().unwrap()).unwrap();
    v
}

/// raw-api: a commit with no retry loop and no serialization record.
fn sneaky_write(stm: &dyn StmBackend, b: &TBox<u64>, snapshot: u64) {
    let _ = stm.commit_attributed(snapshot, &[], vec![(b.body().clone(), Arc::new(1u64))]);
}

/// snapshot-retained: pins the GC horizon for the cache's lifetime.
struct SnapshotCache {
    snap: BackendSnapshot,
}

/// thread-escape: transactional context moved into a plain OS thread.
fn escape(ctx: &mut wtf_core::TxCtx, b: TBox<u64>) {
    std::thread::spawn(move || {
        let _ = ctx.read(&b);
    });
}

/// unchecked-atomic: aborts/conflicts swallowed by unwrap, on the plain
/// retry loop...
fn transfer(stm: &dyn StmBackend, a: &TBox<i64>, b: &TBox<i64>) {
    atomic(stm, |tx| {
        let x = tx.read(a)?;
        tx.write(a, x - 1)?;
        let y = tx.read(b)?;
        tx.write(b, y + 1)
    })
    .unwrap();
}

/// ...and on the futures-aware one.
fn bump(tm: &wtf_core::FutureTm, a: &TBox<i64>) {
    tm.atomic(|ctx| {
        let x = ctx.read(a)?;
        ctx.write(a, x + 1)
    })
    .unwrap();
}
