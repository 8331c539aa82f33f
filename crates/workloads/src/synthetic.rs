//! The synthetic array benchmark of §5.1–§5.3.
//!
//! A shared array of transactional boxes is read at uniformly random
//! positions; contended variants add writes to a small "hot spot" set, and
//! CPU-bound computation between accesses is emulated by `iter` spin units
//! (exactly the paper's knob). Three harness entry points correspond to
//! the three experiments built on this workload:
//!
//! * [`read_only`] / [`read_only_nt`] — Fig. 6 (left): WTF-TM futures vs
//!   plain (non-transactional) futures on a read-only workload;
//! * [`contended`] — Fig. 6 (right): reads plus hot-spot updates under
//!   different top-level × futures splits of a fixed thread budget;
//! * [`conflict_prone`] — Fig. 7: futures whose hot-spot writes conflict
//!   with their continuations' hot-spot reads (the workload where WO's
//!   serialization-upon-evaluation pays off).

use crate::harness::{run_virtual, RunResult, RunSpec, Xorshift};
use std::sync::Arc;
use wtf_core::{CostModel, FutureTm, Semantics, TxCtx, TxResult, VBox};
use wtf_vclock::Clock;

/// Parameters of the synthetic workload family.
#[derive(Debug, Clone, Copy)]
pub struct SyntheticConfig {
    /// Shared array size (the paper uses 1M; scaled down hosts use less —
    /// uniform reads make conflicts independent of this size).
    pub array_size: usize,
    /// Read accesses per task.
    pub reads_per_task: usize,
    /// Spin iterations between accesses (the paper's `iter`).
    pub iter: u64,
    /// Hot-spot set size (contended variants; 0 = no writes).
    pub hot_spots: usize,
    /// Hot-spot writes per task.
    pub writes_per_task: usize,
    /// Blind hot-spot writes (the paper's Fig. 7 workload: futures "write
    /// once" to hot spots) vs read-modify-write updates (Fig. 6 right).
    pub blind_writes: bool,
    /// Tasks per top-level transaction (== concurrent futures when
    /// parallelized).
    pub tasks_per_tx: usize,
    /// Transactions per client.
    pub txs_per_client: usize,
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            array_size: 1 << 14,
            reads_per_task: 1_000,
            iter: 1_000,
            hot_spots: 0,
            writes_per_task: 0,
            blind_writes: false,
            tasks_per_tx: 8,
            txs_per_client: 2,
            seed: 0x5eed,
        }
    }
}

struct Arrays {
    data: Vec<VBox<i64>>,
    hot: Vec<VBox<i64>>,
}

fn make_arrays(tm: &FutureTm, cfg: &SyntheticConfig) -> Arrays {
    Arrays {
        data: (0..cfg.array_size).map(|i| tm.new_vbox(i as i64)).collect(),
        hot: (0..cfg.hot_spots).map(|_| tm.new_vbox(0i64)).collect(),
    }
}

/// Per-access spin with ±50% deterministic jitter (mean `iter`). Real
/// hardware staggers identical tasks through cache/scheduling noise; a
/// deterministic virtual clock must model that explicitly or identical
/// futures complete in lockstep and conflict maximally.
fn jittered(rng: &mut Xorshift, iter: u64) -> u64 {
    if iter == 0 {
        0
    } else {
        iter / 2 + rng.next_u64() % (iter + 1)
    }
}

/// One task: `reads_per_task` random reads with `iter` spin between
/// accesses, then `writes_per_task` hot-spot updates.
fn run_task(
    ctx: &mut TxCtx,
    arrays: &Arrays,
    cfg: &SyntheticConfig,
    rng: &mut Xorshift,
) -> TxResult<i64> {
    let mut acc = 0i64;
    for _ in 0..cfg.reads_per_task {
        ctx.work(jittered(rng, cfg.iter));
        acc = acc.wrapping_add(ctx.read(&arrays.data[rng.below(cfg.array_size)])?);
    }
    for _ in 0..cfg.writes_per_task {
        ctx.work(jittered(rng, cfg.iter));
        let slot = &arrays.hot[rng.below(cfg.hot_spots)];
        if cfg.blind_writes {
            ctx.write(slot, rng.next_u64() as i64)?;
        } else {
            let v = ctx.read(slot)?;
            ctx.write(slot, v + 1)?;
        }
    }
    Ok(acc)
}

/// Shared-array workload with transactional futures: each transaction runs
/// `tasks_per_tx` tasks, one future per task, evaluated in spawn order.
pub fn futures_run(cfg: &SyntheticConfig, semantics: Semantics, clients: usize) -> RunResult {
    let spec = RunSpec {
        units_per_client: (cfg.txs_per_client * cfg.tasks_per_tx) as u64,
        workers: clients * cfg.tasks_per_tx + 2,
        ..RunSpec::new(semantics, clients, 1)
    };
    let cfg = *cfg;
    let arrays: Arc<parking_lot::Mutex<Option<Arc<Arrays>>>> =
        Arc::new(parking_lot::Mutex::new(None));
    run_virtual(
        &spec,
        Arc::new(move |client, tm| {
            let arrays = arrays
                .lock()
                .get_or_insert_with(|| Arc::new(make_arrays(tm, &cfg)))
                .clone();
            let mut seeder = Xorshift::new(cfg.seed ^ (client as u64) << 32);
            for _ in 0..cfg.txs_per_client {
                let arrays = arrays.clone();
                let tx_seed = seeder.next_u64();
                tm.atomic_infallible(move |ctx| {
                    let mut futs = Vec::with_capacity(cfg.tasks_per_tx);
                    for t in 0..cfg.tasks_per_tx {
                        let arrays = arrays.clone();
                        let task_seed = tx_seed ^ t as u64;
                        futs.push(ctx.submit(move |c| {
                            let mut rng = Xorshift::new(task_seed);
                            run_task(c, &arrays, &cfg, &mut rng)
                        })?);
                    }
                    for f in &futs {
                        ctx.evaluate(f)?;
                    }
                    Ok(())
                });
            }
        }),
    )
}

/// Same workload executed as plain top-level transactions without
/// futures: the JVSTM baseline. With `grouped = true` each transaction
/// executes `tasks_per_tx` tasks sequentially (the paper's unparallelized
/// long transactions — "these last longer and are more prone to
/// conflict"); with `grouped = false` each task is its own short
/// transaction.
pub fn toplevel_run(cfg: &SyntheticConfig, clients: usize, grouped: bool) -> RunResult {
    let spec = RunSpec {
        units_per_client: (cfg.txs_per_client * cfg.tasks_per_tx) as u64,
        workers: 1,
        ..RunSpec::new(Semantics::WO_GAC, clients, 1)
    };
    let cfg = *cfg;
    let arrays: Arc<parking_lot::Mutex<Option<Arc<Arrays>>>> =
        Arc::new(parking_lot::Mutex::new(None));
    run_virtual(
        &spec,
        Arc::new(move |client, tm| {
            let arrays = arrays
                .lock()
                .get_or_insert_with(|| Arc::new(make_arrays(tm, &cfg)))
                .clone();
            let mut seeder = Xorshift::new(cfg.seed ^ (client as u64) << 32);
            if grouped {
                for _ in 0..cfg.txs_per_client {
                    let arrays = arrays.clone();
                    let seed = seeder.next_u64();
                    tm.atomic_infallible(move |ctx| {
                        let mut tx_rng = Xorshift::new(seed);
                        for t in 0..cfg.tasks_per_tx {
                            // The unparallelized transaction performs the
                            // same hot-spot read its futures-based version
                            // does in the continuation before each spawn.
                            if cfg.hot_spots > 0 {
                                ctx.read(&arrays.hot[tx_rng.below(cfg.hot_spots)])?;
                            }
                            let mut rng = Xorshift::new(seed ^ ((t as u64) << 17));
                            run_task(ctx, &arrays, &cfg, &mut rng)?;
                        }
                        Ok(())
                    });
                }
            } else {
                for _ in 0..cfg.txs_per_client * cfg.tasks_per_tx {
                    let arrays = arrays.clone();
                    let seed = seeder.next_u64();
                    tm.atomic_infallible(move |ctx| {
                        let mut rng = Xorshift::new(seed);
                        run_task(ctx, &arrays, &cfg, &mut rng)
                    });
                }
            }
        }),
    )
}

/// Sequential baseline: one client executing all tasks as top-level
/// transactions, back to back (the denominator of Figs. 7a and 8/9
/// speedups). `scale` multiplies the per-client task count so the
/// sequential run covers the same total work as a parallel one.
pub fn sequential_run(cfg: &SyntheticConfig) -> RunResult {
    toplevel_run(cfg, 1, true)
}

/// Fig. 6 (left): read-only configuration (no hot spots).
pub fn read_only(cfg: &SyntheticConfig, clients: usize) -> RunResult {
    assert_eq!(cfg.hot_spots, 0);
    futures_run(cfg, Semantics::WO_GAC, clients)
}

/// Fig. 6 (left) baseline: the same read pattern executed by plain
/// (non-transactional) pool futures — same virtual costs minus the STM.
/// Returns the equivalent of a [`RunResult`] with empty STM stats.
pub fn read_only_nt(cfg: &SyntheticConfig, clients: usize, parallel: bool) -> RunResult {
    let clock = Clock::virtual_time();
    let cfg = *cfg;
    let costs = CostModel::CALIBRATED;
    clock.enter(|| {
        let c = Clock::current();
        let bus = c.new_resource();
        let pool = Arc::new(wtf_taskpool::TaskPool::with_dispatch_cost(
            &c,
            clients * cfg.tasks_per_tx + 2,
            costs.submit_cost,
        ));
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let pool = pool.clone();
                c.spawn(&format!("nt-{client}"), move || {
                    let c = Clock::current();
                    let mut seeder = Xorshift::new(cfg.seed ^ (client as u64) << 32);
                    for _ in 0..cfg.txs_per_client {
                        let tx_seed = seeder.next_u64();
                        if parallel {
                            let tasks: Vec<_> = (0..cfg.tasks_per_tx)
                                .map(|t| {
                                    let mut rng = Xorshift::new(tx_seed ^ t as u64);
                                    pool.submit(move || nt_task(&cfg, &costs, bus, &mut rng))
                                })
                                .collect();
                            for t in tasks {
                                t.join();
                            }
                        } else {
                            for t in 0..cfg.tasks_per_tx {
                                let mut rng = Xorshift::new(tx_seed ^ t as u64);
                                nt_task(&cfg, &costs, bus, &mut rng);
                            }
                        }
                        let _ = c.now();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        match Arc::try_unwrap(pool) {
            Ok(p) => p.shutdown(),
            Err(_) => panic!("pool handles leaked"),
        }
    });
    RunResult {
        makespan: clock.makespan(),
        completed: (clients * cfg.txs_per_client * cfg.tasks_per_tx) as u64,
        backend: wtf_core::BackendKind::from_env(),
        tm: Default::default(),
        stm: Default::default(),
        trace: Default::default(),
        profile: None,
    }
}

/// A non-transactional task: identical virtual charges, no STM bookkeeping
/// beyond the raw memory traffic.
fn nt_task(
    cfg: &SyntheticConfig,
    costs: &CostModel,
    bus: wtf_vclock::Resource,
    rng: &mut Xorshift,
) {
    let c = Clock::current();
    for _ in 0..cfg.reads_per_task {
        c.advance(cfg.iter);
        // A plain memory read: bus share only (no STM CPU overhead).
        c.acquire(bus, costs.read_mem);
        rng.next_u64();
    }
}

/// Fig. 6 (right): contended configuration — `clients x tasks_per_tx`
/// splits of a fixed thread budget, WTF vs JTF, JVSTM as baseline.
pub fn contended(cfg: &SyntheticConfig, semantics: Semantics, clients: usize) -> RunResult {
    assert!(cfg.hot_spots > 0 && cfg.writes_per_task > 0);
    futures_run(cfg, semantics, clients)
}

/// Fig. 7 configuration knobs.
#[derive(Debug, Clone, Copy)]
pub struct ConflictConfig {
    pub array_size: usize,
    pub reads_per_future: usize,
    pub iter: u64,
    /// Hot-spot set size: 100 / 1k / 50k in the paper (contention level).
    pub hot_spots: usize,
    /// Hot-spot writes per future.
    pub writes_per_future: usize,
    /// Concurrent futures per transaction (the x-axis thread count).
    pub futures_per_tx: usize,
    pub txs_per_client: usize,
    pub seed: u64,
}

impl Default for ConflictConfig {
    fn default() -> Self {
        ConflictConfig {
            array_size: 1 << 14,
            reads_per_future: 1_000,
            iter: 1_000,
            hot_spots: 100,
            writes_per_future: 1,
            futures_per_tx: 8,
            txs_per_client: 2,
            seed: 0xc0ffee,
        }
    }
}

/// Fig. 7 workload with futures (WTF or JTF): each future performs its
/// reads then writes hot spots; **each continuation reads a random hot
/// spot** before spawning the next future (the read that SO's
/// at-submission serialization invalidates); finally all futures are
/// evaluated in spawning order.
pub fn conflict_prone(cfg: &ConflictConfig, semantics: Semantics, clients: usize) -> RunResult {
    let spec = RunSpec {
        units_per_client: (cfg.txs_per_client * cfg.futures_per_tx) as u64,
        workers: clients * cfg.futures_per_tx + 2,
        ..RunSpec::new(semantics, clients, 1)
    };
    let cfg = *cfg;
    let arrays: Arc<parking_lot::Mutex<Option<Arc<Arrays>>>> =
        Arc::new(parking_lot::Mutex::new(None));
    let syn = SyntheticConfig {
        array_size: cfg.array_size,
        reads_per_task: cfg.reads_per_future,
        iter: cfg.iter,
        hot_spots: cfg.hot_spots,
        writes_per_task: cfg.writes_per_future,
        blind_writes: true, // Fig. 7: futures write "once" (blindly)
        tasks_per_tx: cfg.futures_per_tx,
        txs_per_client: cfg.txs_per_client,
        seed: cfg.seed,
    };
    run_virtual(
        &spec,
        Arc::new(move |client, tm| {
            let arrays = arrays
                .lock()
                .get_or_insert_with(|| Arc::new(make_arrays(tm, &syn)))
                .clone();
            let mut seeder = Xorshift::new(cfg.seed ^ (client as u64) << 32);
            for _ in 0..cfg.txs_per_client {
                let arrays = arrays.clone();
                let tx_seed = seeder.next_u64();
                tm.atomic_infallible(move |ctx| {
                    let mut rng = Xorshift::new(tx_seed);
                    let mut futs = Vec::with_capacity(cfg.futures_per_tx);
                    for t in 0..cfg.futures_per_tx {
                        // Continuation reads a random hot spot inside a
                        // checkpointed segment (partial rollback on doom).
                        let hot_idx = rng.below(cfg.hot_spots);
                        let arrays2 = arrays.clone();
                        ctx.step(move |c| {
                            c.read(&arrays2.hot[hot_idx])?;
                            Ok(())
                        })?;
                        let arrays2 = arrays.clone();
                        let task_seed = tx_seed ^ ((t as u64) << 17);
                        futs.push(ctx.submit(move |c| {
                            let mut rng = Xorshift::new(task_seed);
                            run_task(c, &arrays2, &syn, &mut rng)
                        })?);
                    }
                    for f in &futs {
                        ctx.evaluate(f)?;
                    }
                    Ok(())
                });
            }
        }),
    )
}

/// Fig. 7 JVSTM configuration: `clients` concurrent *unparallelized*
/// top-level transactions, each running the whole `futures_per_tx`-task
/// transaction sequentially (long transactions; abort-prone).
pub fn conflict_prone_toplevel(cfg: &ConflictConfig, clients: usize) -> RunResult {
    let syn = SyntheticConfig {
        array_size: cfg.array_size,
        reads_per_task: cfg.reads_per_future,
        iter: cfg.iter,
        hot_spots: cfg.hot_spots,
        writes_per_task: cfg.writes_per_future,
        blind_writes: true,
        tasks_per_tx: cfg.futures_per_tx,
        txs_per_client: cfg.txs_per_client,
        seed: cfg.seed,
    };
    toplevel_run(&syn, clients, true)
}

/// Fig. 7 sequential denominator: the same long transactions, one client.
pub fn conflict_prone_sequential(cfg: &ConflictConfig) -> RunResult {
    conflict_prone_toplevel(cfg, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SyntheticConfig {
        SyntheticConfig {
            array_size: 64,
            reads_per_task: 20,
            iter: 10,
            hot_spots: 0,
            writes_per_task: 0,
            blind_writes: false,
            tasks_per_tx: 4,
            txs_per_client: 2,
            seed: 1,
        }
    }

    #[test]
    fn read_only_futures_faster_than_sequential() {
        let cfg = SyntheticConfig {
            iter: 1_000,
            ..tiny()
        };
        let par = read_only(&cfg, 1);
        let seq = sequential_run(&cfg);
        assert_eq!(par.tm.top_aborts, 0, "read-only: no aborts");
        let speedup = par.speedup_vs(&seq);
        assert!(speedup > 2.0, "CPU-bound 4-way futures speed up: {speedup}");
    }

    #[test]
    fn memory_bound_workload_does_not_scale() {
        // iter = 0: the memory bus serializes everything (Fig. 6 left's
        // flat It.0 line).
        let cfg = SyntheticConfig { iter: 0, ..tiny() };
        let par = read_only(&cfg, 1);
        let seq = sequential_run(&cfg);
        let speedup = par.speedup_vs(&seq);
        assert!(
            speedup < 1.6,
            "memory-bound: futures cannot beat the bus ({speedup})"
        );
    }

    #[test]
    fn nt_baseline_runs_and_is_faster_than_stm() {
        let cfg = SyntheticConfig {
            iter: 100,
            ..tiny()
        };
        let nt = read_only_nt(&cfg, 1, true);
        let stm = read_only(&cfg, 1);
        assert!(nt.makespan > 0);
        assert!(
            nt.makespan <= stm.makespan,
            "NT futures skip STM overhead: {} vs {}",
            nt.makespan,
            stm.makespan
        );
    }

    #[test]
    fn contended_runs_all_semantics() {
        let cfg = SyntheticConfig {
            hot_spots: 8,
            writes_per_task: 2,
            iter: 100,
            ..tiny()
        };
        for sem in [Semantics::WO_GAC, Semantics::SO] {
            let r = contended(&cfg, sem, 2);
            assert_eq!(r.tm.top_commits, 4, "all transactions commit ({sem:?})");
        }
    }

    #[test]
    fn conflict_prone_wo_avoids_internal_aborts_vs_so() {
        let cfg = ConflictConfig {
            array_size: 64,
            reads_per_future: 50,
            iter: 50,
            hot_spots: 4, // high contention
            writes_per_future: 2,
            futures_per_tx: 4,
            txs_per_client: 3,
            seed: 9,
        };
        let wo = conflict_prone(&cfg, Semantics::WO_GAC, 1);
        let so = conflict_prone(&cfg, Semantics::SO, 1);
        assert_eq!(wo.tm.top_commits, 3);
        assert_eq!(so.tm.top_commits, 3);
        assert!(
            wo.internal_abort_rate() <= so.internal_abort_rate(),
            "WO {} <= SO {}",
            wo.internal_abort_rate(),
            so.internal_abort_rate()
        );
    }

    #[test]
    fn determinism_of_workloads() {
        let cfg = tiny();
        let a = read_only(&cfg, 2);
        let b = read_only(&cfg, 2);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.tm, b.tm);
    }
}
