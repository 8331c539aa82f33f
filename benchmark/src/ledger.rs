//! The isolated layer ledger: one thread, batched timing, ns per call.
//! Each row calls a public function of one layer in a loop and reports
//! the median over its batches. Rows that must stop the watch around a
//! single call subtract the measured cost of the watch itself.

use crate::floor::Floor;
use crate::inputs::{Mix, Op, OpGen, Xorshift};
use crate::workloads::{self, PassPlan};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use transactional_futures::backend::{BackendTxn, StmBackend, TBox};
use transactional_futures::clock::Clock;
use transactional_futures::pool::TaskPool;
use transactional_futures::stm::{Stm, VBox as NativeBox};
use transactional_futures::tm::internals::{Graph, NodeStatus};
use transactional_futures::tm::{make_backend, CmKind};
use transactional_futures::trace::{EventKind, TraceLevel, Tracer};
use transactional_futures::{BackendKind, CostModel, FutureTm, Semantics};

/// Boxes behind every 2R+2W row: the `short-rw` working set, so the rows
/// add up to that workload's transaction.
const BOXES: usize = 4096;
/// Boxes behind the cold-read rows: larger than the last-level cache
/// share a box, its version and its value get.
const COLD_BOXES: usize = 65_536;
/// Calls per batch of the tight rows.
const BATCH: usize = 1024;
/// Rounds of (off, lifecycle, full) behind the tracer-tax rows.
const TAX_ROUNDS: usize = 3;

pub type Rows = BTreeMap<&'static str, f64>;

struct Watch {
    row: Duration,
    /// Cost of one `Instant::now()` pair, subtracted from per-call rows.
    timer_ns: f64,
}

impl Watch {
    fn new(row: Duration) -> Watch {
        let mut pairs: Vec<f64> = (0..2001)
            .map(|_| {
                let t = Instant::now();
                black_box(t).elapsed().as_nanos() as f64
            })
            .collect();
        pairs.sort_by(f64::total_cmp);
        Watch {
            row,
            timer_ns: pairs[pairs.len() / 2],
        }
    }

    /// Median ns per call of `batch`, which runs some calls and returns
    /// the time they took and how many they were.
    fn row(&self, mut batch: impl FnMut() -> (Duration, usize)) -> f64 {
        batch(); // untimed: first-touch allocation and cold caches
        let started = Instant::now();
        let mut per_call = Vec::new();
        while per_call.len() < 5 || started.elapsed() < self.row {
            let (took, calls) = batch();
            per_call.push(took.as_nanos() as f64 / calls as f64);
        }
        crate::report::median(&per_call)
    }

    /// A row whose batch is `BATCH` back-to-back calls of `call`.
    fn tight(&self, mut call: impl FnMut(usize)) -> f64 {
        self.row(|| {
            let t = Instant::now();
            for i in 0..BATCH {
                call(i);
            }
            (t.elapsed(), BATCH)
        })
    }
}

/// Box indices the 2R+2W rows walk: the `short-rw-1c` input stream.
fn short_inputs(seed: u64) -> Vec<(usize, usize)> {
    let mut gen = OpGen::new(Mix::Short, BOXES, seed, 0);
    (0..BATCH)
        .map(|_| match gen.next_op() {
            Op::Incr2 { a, b } => (a as usize, b as usize),
            _ => unreachable!("the short mix only draws Incr2"),
        })
        .collect()
}

fn backend_rows(
    kind: BackendKind,
    names: [&'static str; 7],
    w: &Watch,
    seed: u64,
    rows: &mut Rows,
) {
    let backend: Arc<dyn StmBackend> = make_backend(kind, Tracer::disabled());
    backend.set_cm(CmKind::Immediate.build());
    let b = &*backend;
    let boxes: Vec<TBox<i64>> = (0..BOXES).map(|_| TBox::new_on(b, 0i64)).collect();
    let cold: Vec<TBox<i64>> = (0..COLD_BOXES).map(|_| TBox::new_on(b, 0i64)).collect();
    let inputs = short_inputs(seed);
    let mut rng = Xorshift::for_client(seed, 99);
    let [begin, read, read_cold, write, commit_ro, commit_rw2, txn] = names;

    rows.insert(begin, w.tight(|_| drop(black_box(BackendTxn::begin(b)))));
    // 64 first reads per transaction: of 64 boxes that stay in cache, or
    // of 64 drawn anew out of 65,536.
    let reads_of = |set: &[TBox<i64>], pick: &mut dyn FnMut(usize) -> usize| {
        w.row(|| {
            let mut tx = BackendTxn::begin(b);
            let t = Instant::now();
            for i in 0..64 {
                black_box(tx.read(&set[pick(i)]).expect("one thread never conflicts"));
            }
            (t.elapsed(), 64)
        })
    };
    rows.insert(read, reads_of(&boxes, &mut |i| i));
    rows.insert(read_cold, reads_of(&cold, &mut |_| rng.below(COLD_BOXES)));
    rows.insert(
        write,
        w.row(|| {
            let mut tx = BackendTxn::begin(b);
            let t = Instant::now();
            for (i, &(a, _)) in inputs.iter().take(64).enumerate() {
                tx.write(&boxes[a], i as i64).expect("writes are buffered");
            }
            (t.elapsed(), 64)
        }),
    );
    let commits = |writes: bool| {
        let per_call = w.row(|| {
            let mut spent = Duration::ZERO;
            for &(a, c) in &inputs {
                let mut tx = BackendTxn::begin(b);
                let va = tx.read(&boxes[a]).expect("one thread never conflicts");
                let vc = tx.read(&boxes[c]).expect("one thread never conflicts");
                if writes {
                    tx.write(&boxes[a], va + 1).expect("writes are buffered");
                    tx.write(&boxes[c], vc + 1).expect("writes are buffered");
                }
                let t = Instant::now();
                tx.commit().expect("one thread never conflicts");
                spent += t.elapsed();
            }
            (spent, inputs.len())
        });
        (per_call - w.timer_ns).max(0.0)
    };
    rows.insert(commit_ro, commits(false));
    rows.insert(commit_rw2, commits(true));
    rows.insert(
        txn,
        w.tight(|i| {
            let (a, c) = inputs[i];
            let mut tx = BackendTxn::begin(b);
            let va = tx.read(&boxes[a]).expect("one thread never conflicts");
            let vc = tx.read(&boxes[c]).expect("one thread never conflicts");
            tx.write(&boxes[a], va + 1).expect("writes are buffered");
            tx.write(&boxes[c], vc + 1).expect("writes are buffered");
            tx.commit().expect("one thread never conflicts");
        }),
    );
    if kind == BackendKind::Mvstm {
        rows.insert("backend.cm_handle_ns", w.tight(|_| drop(black_box(b.cm()))));
        let cm = b.cm();
        rows.insert(
            "cm.begin_commit_ns",
            w.tight(|_| cm.on_commit(black_box(cm.begin_txn()))),
        );
    }
}

/// The same transaction on mvstm's own `Txn`, without `dyn StmBackend`.
fn native_row(w: &Watch, seed: u64, rows: &mut Rows) {
    let stm = Stm::new();
    let boxes: Vec<NativeBox<i64>> = (0..BOXES).map(|_| NativeBox::new(&stm, 0)).collect();
    let inputs = short_inputs(seed);
    rows.insert(
        "mvstm.native_txn_2r2w_ns",
        w.tight(|i| {
            let (a, c) = inputs[i];
            let mut tx = stm.begin_txn();
            let va = tx.read(&boxes[a]).expect("mvstm reads never fail");
            let vc = tx.read(&boxes[c]).expect("mvstm reads never fail");
            tx.write(&boxes[a], va + 1).expect("writes are buffered");
            tx.write(&boxes[c], vc + 1).expect("writes are buffered");
            tx.commit().expect("one thread never conflicts");
        }),
    );
}

fn core_rows(w: &Watch, seed: u64, rows: &mut Rows) {
    let spec = workloads::find("short-rw-1c").expect("a named workload");
    let world = workloads::setup(spec, TraceLevel::Off);
    let (tm, boxes) = (&world.tm, &world.boxes);
    let inputs = short_inputs(seed);
    rows.insert(
        "core.txn_2r2w_ns",
        w.tight(|i| {
            let (a, c) = inputs[i];
            tm.atomic(|ctx| {
                let va = ctx.read(&boxes[a])?;
                let vc = ctx.read(&boxes[c])?;
                ctx.write(&boxes[a], va + 1)?;
                ctx.write(&boxes[c], vc + 1)
            })
            .expect("no explicit abort");
        }),
    );
    rows.insert(
        "core.ctx_read_ns",
        w.row(|| {
            let mut spent = Duration::ZERO;
            tm.atomic(|ctx| {
                let t = Instant::now();
                for b in &boxes[..64] {
                    black_box(ctx.read(b)?);
                }
                spent = t.elapsed();
                Ok(())
            })
            .expect("no explicit abort");
            (spent, 64)
        }),
    );
    rows.insert(
        "core.ctx_write_ns",
        w.row(|| {
            let mut spent = Duration::ZERO;
            tm.atomic(|ctx| {
                let t = Instant::now();
                for (i, b) in boxes[..64].iter().enumerate() {
                    ctx.write(b, i as i64)?;
                }
                spent = t.elapsed();
                Ok(())
            })
            .expect("no explicit abort");
            (spent, 64)
        }),
    );
    world.tm.shutdown();
}

/// One future per transaction: `submit`, wait for the body to finish,
/// `evaluate`. Each call is timed on its own, so `evaluate` is the
/// synchronisation and serialisation, not the wait.
fn future_rows(w: &Watch, rows: &mut Rows) {
    let tm = FutureTm::builder()
        .semantics(Semantics::WO_GAC)
        .backend_kind(BackendKind::Mvstm)
        .cm(CmKind::Immediate)
        .workers(2)
        .build();
    let x = tm.new_vbox(1i64);
    let (mut submit, mut evaluate) = (Vec::new(), Vec::new());
    let roundtrip = w.row(|| {
        let t = Instant::now();
        for _ in 0..64 {
            let (mut s, mut e) = (Duration::ZERO, Duration::ZERO);
            tm.atomic(|ctx| {
                let x2 = x.clone();
                let t = Instant::now();
                let f = ctx.submit(move |c| c.read(&x2))?;
                s = t.elapsed();
                while !f.is_done_executing() {
                    std::hint::spin_loop();
                }
                let t = Instant::now();
                black_box(ctx.evaluate(&f)?);
                e = t.elapsed();
                Ok(())
            })
            .expect("no explicit abort");
            submit.push(s.as_nanos() as f64);
            evaluate.push(e.as_nanos() as f64);
        }
        (t.elapsed(), 64)
    });
    tm.shutdown();
    // Three watches run inside each round trip.
    rows.insert(
        "core.future_roundtrip_ns",
        (roundtrip - 3.0 * w.timer_ns).max(0.0),
    );
    rows.insert(
        "core.ctx_submit_ns",
        (crate::report::median(&submit) - w.timer_ns).max(0.0),
    );
    rows.insert(
        "core.ctx_evaluate_ns",
        (crate::report::median(&evaluate) - w.timer_ns).max(0.0),
    );
}

/// A spawn chain of `futures` future/continuation pairs, as `submit`
/// grows **G**.
fn chain_graph(futures: usize) -> Graph {
    let g = Graph::with_root();
    let mut cur = 0;
    for _ in 0..futures {
        cur = g.update(|gi| {
            gi.set_status(cur, NodeStatus::ICommitted);
            let f = gi.add_node(NodeStatus::ICommitted, &[cur]);
            let c = gi.add_node(NodeStatus::Active, &[cur]);
            gi.add_edge(f, c);
            c
        });
    }
    g
}

fn graph_rows(w: &Watch, rows: &mut Rows) {
    for (n, snapshot, update) in [
        (8, "core.graph_snapshot_ns.8", "core.graph_update_ns.8"),
        (32, "core.graph_snapshot_ns.32", "core.graph_update_ns.32"),
        (
            128,
            "core.graph_snapshot_ns.128",
            "core.graph_update_ns.128",
        ),
    ] {
        let g = chain_graph(n);
        rows.insert(snapshot, w.tight(|_| drop(black_box(g.snapshot()))));
        // A reader holding a snapshot forces the copy-on-write path, as a
        // running future's view does.
        let held = g.snapshot();
        rows.insert(
            update,
            w.row(|| {
                let t = Instant::now();
                for _ in 0..64 {
                    g.update(|gi| gi.set_status(0, NodeStatus::ICommitted));
                }
                (t.elapsed(), 64)
            }),
        );
        drop(held);
    }
}

fn pool_and_tracer_rows(w: &Watch, rows: &mut Rows) {
    let clock = Clock::real_nospin();
    let per_call = clock.enter(|| {
        let pool = TaskPool::new(&clock, 2);
        let per_call = w.row(|| {
            let t = Instant::now();
            for i in 0..64u64 {
                black_box(pool.submit(move || i).join());
            }
            (t.elapsed(), 64)
        });
        pool.shutdown();
        per_call
    });
    rows.insert("taskpool.roundtrip_ns", per_call);

    let off = Tracer::disabled();
    rows.insert(
        "trace.record_off_ns",
        w.tight(|i| off.record(black_box(EventKind::TopCommit), i as u64, 2)),
    );
    // A fresh tracer per batch: a lane holds 32,768 events and a full
    // lane would time the drop path instead of the append.
    rows.insert(
        "trace.record_lifecycle_ns",
        w.row(|| {
            let on = Tracer::new(TraceLevel::Lifecycle);
            on.record(EventKind::TopCommit, 0, 0); // hands this thread its lane
            let t = Instant::now();
            for i in 0..BATCH {
                on.record(black_box(EventKind::TopCommit), i as u64, 2);
            }
            (t.elapsed(), BATCH)
        }),
    );
}

/// The floor on the `short-rw-1c` inputs. Also checks the floor's sum.
fn floor_row(w: &Watch, seed: u64, rows: &mut Rows) {
    let mem = Floor::new(BOXES);
    let inputs = short_inputs(seed);
    let mut committed = 0i64;
    let per_call = w.tight(|i| {
        let (a, c) = inputs[i];
        mem.atomic(|tx| {
            let (va, vc) = (tx.read(a)?, tx.read(c)?);
            tx.write(a, va + 1);
            tx.write(c, vc + 1);
            Ok(())
        });
        committed += 1;
    });
    assert_eq!(mem.sum(), 2 * committed, "the floor lost an update");
    rows.insert("floor.txn_2r2w_ns", per_call);
}

/// Windows of the real workloads the ledger needs: `short-rw` at each
/// tracer level (the observability tax) and `short-rw-1c` (the residual).
fn window_rows(w: &Watch, seed: u64, rows: &mut Rows) {
    let window = |name: &str, level: TraceLevel, measure: Duration| {
        let spec = workloads::find(name).expect("a named workload");
        let plan = PassPlan {
            warmup: measure / 4,
            measure,
            traced: false,
            broken: false,
        };
        let out = workloads::run_pass(workloads::setup(spec, level), spec, seed, &plan);
        (
            out.median_over(|w| w.txn_per_s()),
            out.median_over(|w| w.hist.quantile(0.5)),
        )
    };
    // Two clients drift by more than the tax between one pass and the
    // next, so the levels take turns and the median round is reported.
    let (mut lifecycle, mut full) = (Vec::new(), Vec::new());
    for _ in 0..TAX_ROUNDS {
        let (off, _) = window("short-rw", TraceLevel::Off, w.row);
        lifecycle.push(1.0 - window("short-rw", TraceLevel::Lifecycle, w.row).0 / off);
        full.push(1.0 - window("short-rw", TraceLevel::Full, w.row).0 / off);
    }
    rows.insert(
        "trace.lifecycle_tax_frac",
        crate::report::median(&lifecycle),
    );
    rows.insert("trace.full_tax_frac", crate::report::median(&full));

    // What one short-rw-1c transaction calls, from the rows above; the
    // rest of its median latency is what no row accounts for.
    let (_, p50_ns) = window("short-rw-1c", TraceLevel::Off, w.row * 2);
    let accounted = rows["mvstm.begin_ns"]
        + 2.0 * rows["mvstm.read_ns"]
        + 2.0 * rows["mvstm.write_ns"]
        + rows["mvstm.commit_rw2_ns"]
        + rows["backend.cm_handle_ns"]
        + rows["cm.begin_commit_ns"];
    rows.insert("ledger.residual_frac", (p50_ns - accounted) / p50_ns);
}

/// Measured ns over the virtual units the calibrated cost model charges
/// for the same call (1 unit is meant to be 1 ns).
fn model_rows(rows: &mut Rows) {
    let m = CostModel::CALIBRATED;
    for (name, measured, units) in [
        (
            "model.read_ratio",
            "core.ctx_read_ns",
            m.read_cpu + m.read_mem,
        ),
        (
            "model.write_ratio",
            "core.ctx_write_ns",
            m.write_cpu + m.write_mem,
        ),
        ("model.begin_ratio", "mvstm.begin_ns", m.begin_cost),
        ("model.commit_ratio", "mvstm.commit_rw2_ns", m.commit_cost),
        ("model.submit_ratio", "core.ctx_submit_ns", m.submit_cost),
        (
            "model.evaluate_ratio",
            "core.ctx_evaluate_ns",
            m.evaluate_cost,
        ),
    ] {
        rows.insert(name, rows[measured] / units as f64);
    }
}

/// Every ledger row, `row` of measuring each.
pub fn run(row: Duration, seed: u64) -> Rows {
    let w = Watch::new(row);
    let mut rows = Rows::new();
    backend_rows(
        BackendKind::Mvstm,
        [
            "mvstm.begin_ns",
            "mvstm.read_ns",
            "mvstm.read_cold_ns",
            "mvstm.write_ns",
            "mvstm.commit_ro_ns",
            "mvstm.commit_rw2_ns",
            "mvstm.txn_2r2w_ns",
        ],
        &w,
        seed,
        &mut rows,
    );
    backend_rows(
        BackendKind::Tl2,
        [
            "tl2.begin_ns",
            "tl2.read_ns",
            "tl2.read_cold_ns",
            "tl2.write_ns",
            "tl2.commit_ro_ns",
            "tl2.commit_rw2_ns",
            "tl2.txn_2r2w_ns",
        ],
        &w,
        seed,
        &mut rows,
    );
    native_row(&w, seed, &mut rows);
    core_rows(&w, seed, &mut rows);
    future_rows(&w, &mut rows);
    graph_rows(&w, &mut rows);
    pool_and_tracer_rows(&w, &mut rows);
    floor_row(&w, seed, &mut rows);
    rows.insert(
        "core.overhead_over_backend_ns",
        rows["core.txn_2r2w_ns"] - rows["mvstm.txn_2r2w_ns"],
    );
    rows.insert(
        "core.floor_ratio",
        rows["core.txn_2r2w_ns"] / rows["floor.txn_2r2w_ns"],
    );
    window_rows(&w, seed, &mut rows);
    model_rows(&mut rows);
    rows
}
