//! Allocation budgets of a top-level transaction, without and with
//! futures.
//!
//! A transaction that never submits a future builds no graph **G**: it
//! runs as a backend transaction plus one `TopLevel` and its root node.
//! One that does appends to G in place, so what it allocates grows with
//! the number of futures, not with its square. Heap allocations on the
//! calling thread are counted exactly, so both are pinned independently
//! of how noisy the host is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use transactional_futures::backend::{atomic as backend_atomic, TBox};
use transactional_futures::clock::Clock;
use transactional_futures::tm::internals::{Graph, NodeStatus};
use transactional_futures::{BackendKind, FutureTm, Semantics, VBox};

thread_local! {
    // `const` + `Cell<u64>`: no lazy initialisation and no destructor, so
    // the allocator may touch it at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System` for every request; the only addition is a
// thread-local counter bump that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same layout, forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations this thread makes inside `f`.
fn count(f: impl FnOnce()) -> u64 {
    let before = allocs();
    f();
    allocs() - before
}

fn tm_on(kind: BackendKind) -> FutureTm {
    FutureTm::builder()
        .semantics(Semantics::WO_GAC)
        .backend_kind(kind)
        .workers(1)
        .build()
}

fn core_2r2w(tm: &FutureTm, a: &VBox<i64>, b: &VBox<i64>) {
    tm.atomic(|ctx| {
        let va = ctx.read(a)?;
        let vb = ctx.read(b)?;
        ctx.write(a, va + 1)?;
        ctx.write(b, vb + 1)
    })
    .expect("no explicit abort");
}

fn backend_2r2w(tm: &FutureTm, a: &TBox<i64>, b: &TBox<i64>) {
    backend_atomic(&**tm.stm(), |tx| {
        let va = tx.read(a)?;
        let vb = tx.read(b)?;
        tx.write(a, va + 1)?;
        tx.write(b, vb + 1)
    })
    .expect("no explicit abort");
}

/// 2 reads + 2 writes through `FutureTm::atomic` cost at most five
/// allocations more than the same transaction through
/// `wtf_backend::atomic` (today one more), and exactly the measured
/// count. Through the backend alone, 7 on mvstm: the read-set and the
/// write-set tables, the commit's read and write lists, the sorted list
/// of the commit record, and one version node per written box. TL2
/// installs in place: 5. Through the core, 8 on mvstm: the `TopLevel`,
/// its root node, the read log's first bucket, the write buffer, the
/// commit's write and read lists and the two version nodes; TL2: 6.
/// Snapshots register inline, and a written `i64` is stored inline in
/// its buffer entry and its version node: neither allocates. (History on
/// mvstm through the core: 42 when every top-level built its graph at
/// begin, 12 while a snapshot registration was boxed, 11 while the
/// commit kept its stripe guards in a `Vec`, 10 while every written
/// value had an `Arc` of its own.)
#[test]
fn future_free_2r2w_stays_within_budget() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind);
        let (a, b) = (tm.new_vbox(0i64), tm.new_vbox(0i64));
        // Warm up: first-touch growth of long-lived tables (registry
        // slots, the `tops` list, thread-locals) is not per-transaction.
        for _ in 0..64 {
            core_2r2w(&tm, &a, &b);
            backend_2r2w(&tm, &a, &b);
        }
        let core = count(|| core_2r2w(&tm, &a, &b));
        let backend = count(|| backend_2r2w(&tm, &a, &b));
        assert_eq!(
            core,
            count(|| core_2r2w(&tm, &a, &b)),
            "{kind:?}: the count repeats exactly"
        );
        assert!(
            core <= backend + 5,
            "{kind:?}: {core} allocations against {backend} through the backend alone"
        );
        let (core_budget, backend_budget) = match kind {
            BackendKind::Mvstm => (8, 7),
            BackendKind::Tl2 => (6, 5),
        };
        assert_eq!(
            (core, backend),
            (core_budget, backend_budget),
            "{kind:?}: allocations per 2R+2W atomic, through the core and the backend alone"
        );
        assert_eq!(a.read_latest(), 2 * 64 + 3, "every transaction committed");
        tm.shutdown();
    }
}

/// A write is buffered by value: once a box is in the write buffer,
/// rewriting it with a small value allocates nothing, through the core
/// and through the backend alone, on every backend.
#[test]
fn rewriting_a_buffered_box_does_not_allocate() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind);
        let a = tm.new_vbox(0i64);
        let mut rewrites = 0;
        tm.atomic(|ctx| {
            ctx.write(&a, 1)?;
            rewrites = count(|| {
                for i in 2..100 {
                    ctx.write(&a, i).expect("a live transaction");
                }
            });
            Ok(())
        })
        .expect("no explicit abort");
        assert_eq!(rewrites, 0, "{kind:?}: through the core");
        backend_atomic(&**tm.stm(), |tx| {
            tx.write(&a, 100)?;
            rewrites = count(|| {
                for i in 101..200 {
                    tx.write(&a, i).expect("writes are buffered");
                }
            });
            Ok(())
        })
        .expect("no explicit abort");
        assert_eq!(rewrites, 0, "{kind:?}: through the backend alone");
        assert_eq!(a.read_latest(), 199);
        tm.shutdown();
    }
}

/// A read-only commit validates nothing, so it must not walk its
/// read-set: after the body returns, a 1,000-read transaction allocates
/// exactly as much as a 10-read one.
#[test]
fn read_only_commit_does_not_allocate_per_read() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind);
        let boxes: Vec<VBox<i64>> = (0..1000).map(|i| tm.new_vbox(i)).collect();
        let commit_allocs = |n: usize| {
            let mut at_body_end = 0;
            let mut sum = 0;
            tm.atomic(|ctx| {
                sum = 0;
                for b in &boxes[..n] {
                    sum += ctx.read(b)?;
                }
                at_body_end = allocs();
                Ok(())
            })
            .expect("no explicit abort");
            assert_eq!(sum, (0..n as i64).sum::<i64>());
            allocs() - at_body_end
        };
        commit_allocs(1000); // warm up
        let (small, large) = (commit_allocs(10), commit_allocs(1000));
        assert_eq!(small, large, "{kind:?}: commit allocates per read");
        assert!(large <= 2, "{kind:?}: {large} allocations at commit");
        tm.shutdown();
    }
}

/// The read-set is a log in doubling buckets that never move: a scan of
/// 1,000 boxes on an inflated top-level allocates six of them (16 + 32 +
/// … + 512 entries) and nothing else per read — a hash map grew ten times
/// on the way there, re-inserting every entry each time. A scan short
/// enough for the first bucket allocates that one.
#[test]
fn read_log_allocates_one_bucket_per_doubling() {
    for kind in BackendKind::ALL {
        let tm = tm_on(kind);
        let boxes: Vec<VBox<i64>> = (0..1000).map(|i| tm.new_vbox(i)).collect();
        let scan_allocs = |n: usize| {
            let mut during_scan = 0;
            tm.atomic(|ctx| {
                ctx.step(|_| Ok(()))?;
                // The first read also builds this segment's ancestor view.
                ctx.read(&boxes[0])?;
                let before = allocs();
                for b in &boxes[1..n] {
                    ctx.read(b)?;
                }
                during_scan = allocs() - before;
                Ok(())
            })
            .expect("no explicit abort");
            during_scan
        };
        scan_allocs(1000); // warm up
        assert_eq!(scan_allocs(16), 0, "{kind:?}: the first bucket holds 16");
        assert_eq!(
            scan_allocs(17),
            1,
            "{kind:?}: the 17th read opens the second"
        );
        assert_eq!(scan_allocs(1000), 5, "{kind:?}: 1,000 reads, six buckets");
        tm.shutdown();
    }
}

/// `Graph::update` mutates G where it lives: with no snapshot held, a
/// status change allocates nothing however large G is; a held snapshot
/// costs the next writer one copy, and only the next.
#[test]
fn graph_update_allocates_only_under_a_held_snapshot() {
    let g = Graph::with_root();
    g.update(|gi| {
        for cur in 0..128 {
            gi.add_node(NodeStatus::Active, &[cur]);
        }
    });
    let set_status = |to| count(|| g.update(|gi| gi.set_status(64, to)));
    assert_eq!(set_status(NodeStatus::ICommitted), 0, "in place");
    assert_eq!(set_status(NodeStatus::Active), 0, "the count repeats");
    let held = g.snapshot();
    assert!(
        set_status(NodeStatus::Aborted) > 128,
        "one copy: the holder keeps its G"
    );
    assert_eq!(set_status(NodeStatus::ICommitted), 0, "in place again");
    assert_eq!(held.1.status(64), NodeStatus::Active);
}

/// The submitting thread's allocations are linear in the number of
/// futures: twice the futures cost at most twice as much, plus the part
/// that does not depend on them: 162 and 291 today. (Cloning G on every
/// `submit` made it 768 and 2,265.) The virtual clock makes the run, and
/// so the count, repeat exactly.
#[test]
fn submitting_thread_allocates_linearly_in_futures() {
    let transaction = |tm: &FutureTm, boxes: &[VBox<i64>]| {
        count(|| {
            tm.atomic(|ctx| {
                for b in boxes {
                    let b = b.clone();
                    let f = ctx.submit(move |c| {
                        let v = c.read(&b)?;
                        c.write(&b, v + 1)
                    })?;
                    ctx.evaluate(&f)?;
                }
                Ok(())
            })
            .expect("no explicit abort")
        })
    };
    Clock::virtual_time().enter(|| {
        let tm = tm_on(BackendKind::Mvstm);
        let boxes: Vec<VBox<i64>> = (0..16).map(|_| tm.new_vbox(0)).collect();
        transaction(&tm, &boxes); // warm up
        let (eight, sixteen) = (transaction(&tm, &boxes[..8]), transaction(&tm, &boxes));
        assert_eq!(
            eight,
            transaction(&tm, &boxes[..8]),
            "the count repeats exactly"
        );
        assert!(
            sixteen <= 2 * eight + 16,
            "{sixteen} allocations for 16 futures against {eight} for 8"
        );
        tm.shutdown();
    });
}
