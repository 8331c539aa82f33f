//! Flat ≡ inflated: a top-level transaction builds its graph **G** only
//! when it first adds a sub-transaction. The same seeded future-free
//! workload is run as is (every transaction stays flat) and with a
//! leading `ctx.step(|_| Ok(()))` (every transaction inflates at once and
//! runs the graph code); under the virtual clock at full trace detail the
//! two must end in the same box values with the same runtime and
//! substrate counters, and the offline checker must accept both
//! histories — on every backend.

use std::sync::Arc;
use transactional_futures::clock::Clock;
use transactional_futures::report::Trace;
use transactional_futures::stm::StmStatsSnapshot;
use transactional_futures::trace::{TraceLevel, Tracer};
use transactional_futures::{BackendKind, FutureTm, Semantics, TmStatsSnapshot, VBox};

const BOXES: usize = 12;
const CLIENTS: usize = 4;
const TXNS: usize = 60;

/// xorshift64*, one stream per client.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
    }
}

type Outcome = (Vec<i64>, TmStatsSnapshot, StmStatsSnapshot);

/// Four clients, each `TXNS` seeded transactions over a dozen boxes: two
/// in three move an amount between two boxes after some work (they
/// conflict and retry), one in three sums every box (read-only).
fn run(kind: BackendKind, semantics: Semantics, inflate: bool) -> Outcome {
    let clock = Clock::virtual_time();
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 18);
    let out = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(semantics)
            .workers(2)
            .backend_kind(kind)
            .tracer(tracer.clone())
            .build();
        let boxes: Arc<Vec<VBox<i64>>> = Arc::new((0..BOXES).map(|_| tm.new_vbox(100)).collect());
        let c = Clock::current();
        let clients: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let (tm, boxes) = (tm.clone(), boxes.clone());
                c.spawn(&format!("client{i}"), move || {
                    let mut rng = Rng(0x5EED_0000 + i as u64);
                    for _ in 0..TXNS {
                        let (a, b) = (rng.below(BOXES), rng.below(BOXES));
                        let (amount, scan) = (rng.below(9) as i64 + 1, rng.below(3) == 0);
                        tm.atomic_infallible(|ctx| {
                            if inflate {
                                ctx.step(|_| Ok(()))?;
                            }
                            if scan {
                                let mut total = 0;
                                for b in boxes.iter() {
                                    total += ctx.read(b)?;
                                }
                                assert_eq!(total, 100 * BOXES as i64, "torn scan");
                                return Ok(());
                            }
                            let va = ctx.read(&boxes[a])?;
                            ctx.work(40 + 10 * amount as u64);
                            ctx.write(&boxes[a], va - amount)?;
                            let vb = ctx.read(&boxes[b])?;
                            ctx.write(&boxes[b], vb + amount)
                        });
                    }
                })
            })
            .collect();
        for h in clients {
            h.join();
        }
        let values = boxes.iter().map(VBox::read_latest).collect();
        let out = (values, tm.stats(), tm.stm().stats());
        tm.shutdown();
        out
    });
    assert_eq!(tracer.summary().events_dropped, 0, "dropped trace events");
    let report = Trace::from_tracer(&tracer)
        .verify()
        .unwrap_or_else(|e| panic!("{kind:?} inflate={inflate}: checker rejected: {e:?}"));
    assert!(report.events > 0, "checker consumed no events");
    out
}

#[test]
fn flat_and_inflated_runs_agree() {
    for kind in BackendKind::ALL {
        for semantics in [Semantics::WO_GAC, Semantics::WO_LAC, Semantics::SO] {
            let flat = run(kind, semantics, false);
            let inflated = run(kind, semantics, true);
            assert_eq!(flat.0.iter().sum::<i64>(), 100 * BOXES as i64);
            assert_eq!(flat.1.top_commits, (CLIENTS * TXNS) as u64);
            assert!(
                flat.1.top_aborts > 0,
                "{kind:?}: the workload must exercise the retry path"
            );
            assert_eq!(flat, inflated, "{kind:?} {semantics:?}");
        }
    }
}
