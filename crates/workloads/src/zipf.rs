//! Zipf hot-box workload: the telemetry exercise rig.
//!
//! The §5 synthetic workloads spread contention uniformly over a small
//! hot-spot set, which makes per-box conflict attribution flat and
//! boring. Observability work wants the opposite: a *skewed* access
//! pattern whose conflict mass concentrates on a few identifiable boxes,
//! so the sliding-window conflict rank ([`wtf_trace::ConflictMap`] →
//! `wtf_rolling`/`hot_boxes`) has a deterministic, assertable shape.
//!
//! Two entry points:
//!
//! * [`zipf_hotbox`] — transactional futures reading and read-modify-
//!   writing array slots sampled from a Zipf(θ) distribution (rank 0 is
//!   hottest). The canonical byte-determinism workload for telemetry.
//! * [`storm_then_calm`] — a two-phase top-level workload: every client
//!   first hammers one shared box (abort storm), then retreats to a
//!   private box (calm). Drives the incident detector through exactly
//!   one open → peak → recover cycle under the virtual clock.

use crate::harness::{run_virtual, RunResult, RunSpec, Xorshift};
use std::sync::Arc;
use wtf_core::{FutureTm, Semantics, VBox};

/// Shared lazily-initialized box array: the first client to run allocates
/// it (so box ids are rank-ordered), later clients reuse it.
type LazyBoxes = Arc<parking_lot::Mutex<Option<Arc<Vec<VBox<i64>>>>>>;

/// Parameters of the Zipf hot-box workload.
#[derive(Debug, Clone, Copy)]
pub struct ZipfConfig {
    /// Shared array size (ranks 0..size, rank 0 hottest).
    pub array_size: usize,
    /// Zipf skew θ (0 = uniform; the classic web value is ~0.99).
    pub theta: f64,
    /// Zipf-sampled reads per task.
    pub reads_per_task: usize,
    /// Zipf-sampled read-modify-writes per task.
    pub writes_per_task: usize,
    /// Spin units between accesses (±50% deterministic jitter).
    pub iter: u64,
    /// Futures per top-level transaction.
    pub tasks_per_tx: usize,
    /// Transactions per client.
    pub txs_per_client: usize,
    pub seed: u64,
}

impl Default for ZipfConfig {
    fn default() -> Self {
        ZipfConfig {
            array_size: 256,
            theta: 0.99,
            reads_per_task: 32,
            writes_per_task: 2,
            iter: 200,
            tasks_per_tx: 4,
            txs_per_client: 4,
            seed: 0x21bf,
        }
    }
}

/// Cumulative-weight Zipf sampler. Weights `1/(rank+1)^θ` are
/// precomputed once; sampling is a binary search over the cumulative
/// table driven by a [`Xorshift`] draw, so every sample is a pure
/// function of the seed (bit-reproducible across runs and platforms —
/// the table is built with the same f64 ops everywhere).
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    pub fn new(size: usize, theta: f64) -> ZipfSampler {
        assert!(size > 0, "zipf over an empty domain");
        let mut cumulative = Vec::with_capacity(size);
        let mut total = 0.0f64;
        for rank in 0..size {
            total += 1.0 / ((rank + 1) as f64).powf(theta);
            cumulative.push(total);
        }
        // Normalize so the last entry is exactly 1.0 and the search
        // below can never fall off the end.
        for c in &mut cumulative {
            *c /= total;
        }
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        ZipfSampler { cumulative }
    }

    /// Draws a rank in `0..size`; rank 0 is the most probable.
    pub fn sample(&self, rng: &mut Xorshift) -> usize {
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

fn jittered(rng: &mut Xorshift, iter: u64) -> u64 {
    if iter == 0 {
        0
    } else {
        iter / 2 + rng.next_u64() % (iter + 1)
    }
}

/// Futures workload over a Zipf-skewed array: each task performs
/// `reads_per_task` Zipf-sampled reads and `writes_per_task` Zipf-sampled
/// read-modify-writes, with jittered spin between accesses. Conflict
/// mass lands on the low ranks (box ids are allocated in rank order by
/// the first client, so rank 0 is the lowest-id box in the run).
pub fn zipf_hotbox(cfg: &ZipfConfig, semantics: Semantics, clients: usize) -> RunResult {
    let spec = RunSpec {
        units_per_client: (cfg.txs_per_client * cfg.tasks_per_tx) as u64,
        workers: clients * cfg.tasks_per_tx + 2,
        ..RunSpec::new(semantics, clients, 1)
    }
    .with_workload("zipf_hotbox");
    zipf_hotbox_spec(cfg, &spec, clients)
}

/// [`zipf_hotbox`] with a caller-supplied [`RunSpec`] (tests override
/// trace level, backend and telemetry config independently of env).
pub fn zipf_hotbox_spec(cfg: &ZipfConfig, spec: &RunSpec, _clients: usize) -> RunResult {
    let cfg = *cfg;
    let sampler = Arc::new(ZipfSampler::new(cfg.array_size, cfg.theta));
    let array: LazyBoxes = Arc::new(parking_lot::Mutex::new(None));
    run_virtual(
        spec,
        Arc::new(move |client, tm: &FutureTm| {
            let array = array
                .lock()
                .get_or_insert_with(|| {
                    Arc::new((0..cfg.array_size).map(|i| tm.new_vbox(i as i64)).collect())
                })
                .clone();
            let mut seeder = Xorshift::new(cfg.seed ^ ((client as u64) << 32));
            for _ in 0..cfg.txs_per_client {
                let array = array.clone();
                let sampler = sampler.clone();
                let tx_seed = seeder.next_u64();
                tm.atomic_infallible(move |ctx| {
                    let mut futs = Vec::with_capacity(cfg.tasks_per_tx);
                    for t in 0..cfg.tasks_per_tx {
                        let array = array.clone();
                        let sampler = sampler.clone();
                        let task_seed = tx_seed ^ ((t as u64) << 17);
                        futs.push(ctx.submit(move |c| {
                            let mut rng = Xorshift::new(task_seed);
                            let mut acc = 0i64;
                            for _ in 0..cfg.reads_per_task {
                                c.work(jittered(&mut rng, cfg.iter));
                                acc = acc.wrapping_add(c.read(&array[sampler.sample(&mut rng)])?);
                            }
                            for _ in 0..cfg.writes_per_task {
                                c.work(jittered(&mut rng, cfg.iter));
                                let slot = &array[sampler.sample(&mut rng)];
                                let v = c.read(slot)?;
                                c.write(slot, v.wrapping_add(1))?;
                            }
                            Ok(acc)
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

/// Parameters of the two-phase incident workload.
#[derive(Debug, Clone, Copy)]
pub struct StormConfig {
    /// Read-modify-writes of the one shared box per client in phase 1.
    pub storm_txs: usize,
    /// Read-modify-writes of the client-private box in phase 2.
    pub calm_txs: usize,
    /// Spin units between the storm read and its write (the conflict
    /// window — larger means more overlap and a denser storm).
    pub iter: u64,
    pub seed: u64,
}

impl Default for StormConfig {
    fn default() -> Self {
        StormConfig {
            storm_txs: 48,
            calm_txs: 48,
            iter: 800,
            seed: 0x5707,
        }
    }
}

/// Abort storm, then calm: phase 1 has every client read-modify-write
/// the *same* box with a long jittered gap between read and write, so
/// concurrent top-levels overlap and all but one abort per round; phase
/// 2 moves each client to its own private box, so conflicts stop dead.
/// Under the virtual clock this produces one deterministic abort-storm
/// incident (onset in phase 1, recovery a few calm epochs into phase 2).
pub fn storm_then_calm(cfg: &StormConfig, spec: &RunSpec) -> RunResult {
    let cfg = *cfg;
    let boxes: LazyBoxes = Arc::new(parking_lot::Mutex::new(None));
    let clients = spec.clients;
    run_virtual(
        spec,
        Arc::new(move |client, tm: &FutureTm| {
            // Box 0 is the shared storm target; boxes 1..=clients are the
            // private calm targets.
            let boxes = boxes
                .lock()
                .get_or_insert_with(|| {
                    Arc::new((0..clients + 1).map(|_| tm.new_vbox(0i64)).collect())
                })
                .clone();
            let mut rng = Xorshift::new(cfg.seed ^ ((client as u64) << 32));
            for _ in 0..cfg.storm_txs {
                let hot = boxes[0].clone();
                let spin = jittered(&mut rng, cfg.iter);
                tm.atomic_infallible(move |ctx| {
                    let v = ctx.read(&hot)?;
                    ctx.work(spin);
                    ctx.write(&hot, v + 1)
                });
            }
            for _ in 0..cfg.calm_txs {
                let own = boxes[client + 1].clone();
                let spin = jittered(&mut rng, cfg.iter);
                tm.atomic_infallible(move |ctx| {
                    let v = ctx.read(&own)?;
                    ctx.work(spin);
                    ctx.write(&own, v + 1)
                });
            }
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_is_skewed_and_deterministic() {
        let sampler = ZipfSampler::new(64, 0.99);
        let mut a = Xorshift::new(9);
        let mut b = Xorshift::new(9);
        let draws: Vec<usize> = (0..4096).map(|_| sampler.sample(&mut a)).collect();
        let again: Vec<usize> = (0..4096).map(|_| sampler.sample(&mut b)).collect();
        assert_eq!(draws, again, "sampling is a pure function of the seed");
        let mut hits = [0usize; 64];
        for &d in &draws {
            assert!(d < 64);
            hits[d] += 1;
        }
        // Rank 0 dominates and the tail is still reachable.
        assert!(hits[0] > hits[1] && hits[1] >= hits[8]);
        assert!(hits[0] > draws.len() / 16, "head rank is hot: {hits:?}");
        assert!(hits.iter().skip(32).sum::<usize>() > 0, "tail reachable");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let sampler = ZipfSampler::new(16, 0.0);
        let mut rng = Xorshift::new(3);
        let mut hits = [0usize; 16];
        for _ in 0..16_000 {
            hits[sampler.sample(&mut rng)] += 1;
        }
        for h in hits {
            assert!((600..1500).contains(&h), "roughly uniform: {hits:?}");
        }
    }

    #[test]
    fn zipf_hotbox_runs_and_counts_work() {
        let cfg = ZipfConfig {
            array_size: 32,
            reads_per_task: 4,
            writes_per_task: 1,
            iter: 50,
            tasks_per_tx: 2,
            txs_per_client: 2,
            ..ZipfConfig::default()
        };
        let res = zipf_hotbox(&cfg, Semantics::WO_GAC, 2);
        assert_eq!(res.completed, 8);
        assert!(res.tm.top_commits >= 4);
        assert!(res.makespan > 0);
    }
}
