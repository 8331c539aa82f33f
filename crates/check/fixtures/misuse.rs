//! Seeded TM-misuse fixture for `wtf-lint`. NOT compiled — this file
//! exists so CI (and `lint::tests`) can assert the linter fails on every
//! rule it claims to detect. `lint_tree` skips `fixtures/` directories,
//! so these findings never count against the real workspace.

use wtf_backend::{atomic, BackendSnapshot, StmBackend, TBox};

/// raw-api: the trait's own operations outside the runtime crates.
fn sneaky_read(stm: &dyn StmBackend, b: &TBox<u64>) -> u64 {
    let snap = stm.acquire_snapshot();
    let (_, v) = b.body().read_at(snap.version()).unwrap();
    *v.downcast_ref::<u64>().unwrap()
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
