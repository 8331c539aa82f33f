//! Abort attribution under contention: when 8 threads hammer one hot
//! box (while also touching private cold boxes), the tracer's hotspot
//! report must charge the hot box with essentially all conflict aborts
//! — that report is what the abort-storm dumps point operators at, so
//! it has to name the right box.
//!
//! Swept across both substrates: mvstm charges the box whose version
//! chain outran the snapshot at commit validation; TL2 additionally
//! charges boxes at failed *reads* (its stripe-guarded slots are
//! single-version, so a box overwritten past the snapshot conflicts the
//! moment it is read). Either way the contended box must dominate.

use std::sync::Arc;
use transactional_futures::clock::Clock;
use transactional_futures::trace::{TraceLevel, Tracer};
use transactional_futures::{BackendKind, FutureTm, Semantics};

#[test]
fn hot_box_dominates_hotspot_report() {
    for kind in BackendKind::ALL {
        hot_box_dominates_on(kind);
    }
}

fn hot_box_dominates_on(kind: BackendKind) {
    const CLIENTS: usize = 8;
    const TXS: usize = 40;
    let clock = Clock::virtual_time();
    let tracer = Tracer::new(TraceLevel::Full);
    let t2 = Arc::clone(&tracer);
    clock.enter(move || {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(CLIENTS + 2)
            .backend_kind(kind)
            .tracer(t2)
            .build();
        let hot = tm.new_vbox(0i64);
        let colds: Vec<_> = (0..CLIENTS).map(|i| tm.new_vbox(i as i64)).collect();
        let c = Clock::current();
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let tm = tm.clone();
                let hot = hot.clone();
                let cold = colds[i].clone();
                c.spawn(&format!("client-{i}"), move || {
                    for _ in 0..TXS {
                        let hot = hot.clone();
                        let cold = cold.clone();
                        tm.atomic(move |ctx| {
                            // Read-modify-write on the shared box, with
                            // enough work in the window to force overlap.
                            let v = ctx.read(&hot)?;
                            ctx.work(200);
                            let cv = ctx.read(&cold)?;
                            ctx.write(&cold, cv + 1)?;
                            ctx.write(&hot, v + 1)
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert_eq!(hot.read_latest(), (CLIENTS * TXS) as i64);
        let summary = tm.tracer().summary();
        assert!(
            summary.conflict_total > 0,
            "{kind:?}: contended run must conflict"
        );
        let hot_id = hot.id().0;
        let charged = summary
            .hotspots
            .iter()
            .find(|&&(id, _)| id == hot_id)
            .map(|&(_, n)| n)
            .unwrap_or(0);
        assert!(
            charged as f64 >= 0.90 * summary.conflict_total as f64,
            "{kind:?}: hot box {hot_id} charged only {charged}/{} conflicts: {:?}",
            summary.conflict_total,
            summary.hotspots
        );
        // The hotspot report is sorted by charge: the hot box leads it.
        assert_eq!(summary.hotspots.first().map(|&(id, _)| id), Some(hot_id));
        tm.shutdown();
    });
}
