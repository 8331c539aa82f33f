//! Adversarial and end-to-end tests for the offline history checker:
//! hand-crafted non-serializable traces must be rejected with a concrete
//! cycle, hand-crafted valid traces accepted, and live traces from the
//! real runtime (mvstm and wtf-core) must verify.

use wtf_report::{CheckReport, ReportError, Trace};
use wtf_trace::{EventKind, TraceEvent, TraceLevel, Tracer};

fn ev(kind: EventKind, a: u64, b: u64) -> TraceEvent {
    TraceEvent { ts: 0, kind, a, b }
}

fn verify(lanes: Vec<Vec<TraceEvent>>) -> Result<CheckReport, ReportError> {
    Trace::new(lanes.into_iter().enumerate().collect(), 0).verify()
}

/// Classic write skew: both transactions read both boxes at the initial
/// version and each writes a different box. No serial order explains both
/// reads, so a checker that accepts this is broken.
#[test]
fn rejects_write_skew() {
    let t1 = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::CommitRead, 0, 0),
        ev(EventKind::CommitRead, 1, 0),
        ev(EventKind::TxnCommit, 1, 0),
    ];
    let t2 = vec![
        ev(EventKind::StmInstall, 1, 2),
        ev(EventKind::CommitRead, 0, 0),
        ev(EventKind::CommitRead, 1, 0),
        ev(EventKind::TxnCommit, 2, 0),
    ];
    let err = verify(vec![t1, t2]).unwrap_err();
    assert!(
        err.0.contains("not serializable"),
        "write skew must be rejected with a cycle, got: {err}"
    );
    assert!(err.0.contains("cycle"), "error should name a cycle: {err}");
}

/// Lost update: both transactions read box 0 at version 0, both write it.
/// The second committer's read was stale — the runtime must have aborted
/// it, so a trace where both committed is non-serializable.
#[test]
fn rejects_lost_update() {
    let t1 = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::CommitRead, 0, 0),
        ev(EventKind::TxnCommit, 1, 0),
    ];
    let t2 = vec![
        ev(EventKind::StmInstall, 0, 2),
        ev(EventKind::CommitRead, 0, 0),
        ev(EventKind::TxnCommit, 2, 0),
    ];
    let err = verify(vec![t1, t2]).unwrap_err();
    assert!(err.0.contains("not serializable"), "lost update: {err}");
}

/// The same schedule done right — the second transaction began after the
/// first committed and observed its write — is serializable.
#[test]
fn accepts_serial_update_chain() {
    let t1 = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::CommitRead, 0, 0),
        ev(EventKind::TxnCommit, 1, 0),
    ];
    let t2 = vec![
        ev(EventKind::StmInstall, 0, 2),
        ev(EventKind::CommitRead, 0, 1),
        ev(EventKind::TxnCommit, 2, 1),
    ];
    let report = verify(vec![t1, t2]).unwrap();
    assert_eq!(report.committed_txns, 2);
    assert!(report.full_detail);
}

/// Read-only transactions serialize at their snapshot: one that saw
/// version 1 while version 2 existed is fine (multi-versioning), as long
/// as its snapshot says so.
#[test]
fn accepts_read_only_at_old_snapshot() {
    let writers = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::TxnCommit, 1, 0),
        ev(EventKind::StmInstall, 0, 2),
        ev(EventKind::CommitRead, 0, 1),
        ev(EventKind::TxnCommit, 2, 1),
    ];
    let reader = vec![
        ev(EventKind::CommitRead, 0, 1),
        ev(EventKind::TxnCommit, 1, 1), // read-only: version == snapshot
    ];
    let report = verify(vec![writers, reader]).unwrap();
    assert_eq!(report.committed_txns, 3);
}

/// A read claiming to observe a version newer than the snapshot is a
/// protocol violation even if the history happens to serialize.
#[test]
fn rejects_read_above_snapshot() {
    let t1 = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::TxnCommit, 1, 0),
    ];
    let t2 = vec![
        ev(EventKind::CommitRead, 0, 1),
        ev(EventKind::TxnCommit, 0, 0), // read-only at snapshot 0, read v1
    ];
    let err = verify(vec![t1, t2]).unwrap_err();
    assert!(err.0.contains("newer than"), "{err}");
}

/// A read of a version no install ever created means the trace (or the
/// runtime) is lying about history.
#[test]
fn rejects_phantom_version_read() {
    let t = vec![
        ev(EventKind::StmInstall, 0, 1),
        ev(EventKind::CommitRead, 0, 7),
        ev(EventKind::TxnCommit, 7, 7),
    ];
    let err = verify(vec![t]).unwrap_err();
    assert!(err.0.contains("no install"), "{err}");
}

/// Cross-top conflict aborts must be justified by an install newer than
/// the doomed top's snapshot.
#[test]
fn doom_justification() {
    // Justified: box 3 was written at version 1 > snapshot 0.
    let justified = vec![
        ev(EventKind::StmInstall, 3, 1),
        ev(EventKind::TopBegin, 5, 0),
        ev(EventKind::TopConflictAbort, 5, 3),
    ];
    let report = verify(vec![justified]).unwrap();
    assert_eq!(report.dooms_justified, 1);
    assert_eq!(report.anonymous_writers, 1);

    // Unjustified: the abort blames box 4, which nobody ever wrote.
    let unjustified = vec![
        ev(EventKind::StmInstall, 3, 1),
        ev(EventKind::TopBegin, 5, 0),
        ev(EventKind::TopConflictAbort, 5, 4),
    ];
    let err = verify(vec![unjustified]).unwrap_err();
    assert!(err.0.contains("unjustified"), "{err}");
}

/// Structural lies: double commits, commits without begins, aborted tops
/// that also commit.
#[test]
fn rejects_structural_violations() {
    let double = vec![
        ev(EventKind::TopBegin, 1, 0),
        ev(EventKind::TopCommit, 1, 0),
        ev(EventKind::TopCommit, 1, 0),
    ];
    assert!(verify(vec![double]).unwrap_err().0.contains("committed 2"));

    let orphan = vec![ev(EventKind::TopCommit, 1, 0)];
    assert!(verify(vec![orphan])
        .unwrap_err()
        .0
        .contains("without a recorded begin"));

    let zombie = vec![
        ev(EventKind::TopBegin, 1, 0),
        ev(EventKind::TopConflictAbort, 1, 2),
        ev(EventKind::TopCommit, 1, 0),
    ];
    assert!(verify(vec![zombie])
        .unwrap_err()
        .0
        .contains("both conflict-aborted and committed"));
}

/// Truncation fails loudly: a non-zero drop counter or a serialization
/// record with no commit marker.
#[test]
fn rejects_truncated_traces() {
    let err = Trace::new(Vec::new(), 3).verify().unwrap_err();
    assert!(err.0.contains("truncated"), "{err}");

    let dangling = vec![ev(EventKind::CommitRead, 0, 0)];
    let err = verify(vec![dangling]).unwrap_err();
    assert!(err.0.contains("no following commit marker"), "{err}");
}

/// A lifecycle-only trace (no installs or serialization records) still
/// gets the structural checks, and reports itself as such.
#[test]
fn lifecycle_trace_checks_structure_only() {
    let t = vec![
        ev(EventKind::TopBegin, 1, 0),
        ev(EventKind::TopCommit, 1, 0),
        ev(EventKind::TopBegin, 2, 0),
        ev(EventKind::TopConflictAbort, 2, 9),
    ];
    let report = verify(vec![t]).unwrap();
    assert!(!report.full_detail);
    assert_eq!(report.committed_tops, 1);
    assert_eq!(report.dooms_unverified, 1);
}

/// Live mvstm traffic (threads hammering `wtf_backend::atomic`) always
/// verifies.
#[test]
fn live_mvstm_trace_verifies() {
    use wtf_backend::{atomic, TBox};
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 14);
    let stm = wtf_mvstm::Stm::with_tracer(tracer.clone());
    let boxes: Vec<TBox<u64>> = (0..4).map(|_| TBox::new_on(&stm, 0u64)).collect();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let stm = stm.clone();
            let boxes = boxes.clone();
            std::thread::spawn(move || {
                for i in 0..50 {
                    let a = boxes[(t + i) % 4].clone();
                    let b = boxes[(t + i + 1) % 4].clone();
                    atomic(&stm, |tx| {
                        let v = tx.read(&a)?;
                        tx.write(&b, v + 1)
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for th in threads {
        th.join().unwrap();
    }
    let report = Trace::from_tracer(&tracer).verify().unwrap();
    assert_eq!(report.committed_txns, 200);
    assert!(report.full_detail);
}

/// Live wtf-core traffic — futures, continuations, dooms and restarts —
/// always verifies, under both WO_GAC and SO.
#[test]
fn live_core_trace_verifies() {
    use wtf_core::{FutureTm, Semantics};
    for sem in [Semantics::WO_GAC, Semantics::SO] {
        let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 15);
        let tm = FutureTm::builder()
            .semantics(sem)
            .workers(3)
            .tracer(tracer.clone())
            .build();
        let a = tm.new_vbox(0u64);
        let b = tm.new_vbox(0u64);
        let threads: Vec<_> = (0..3)
            .map(|t| {
                let tm = tm.clone();
                let (mine, theirs) = if t % 2 == 0 {
                    (a.clone(), b.clone())
                } else {
                    (b.clone(), a.clone())
                };
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        let m = mine.clone();
                        tm.atomic_infallible(|ctx| {
                            let m = m.clone();
                            let fut = ctx.submit(move |fc| {
                                let v = fc.read(&m)?;
                                fc.write(&m, v + 1)
                            })?;
                            let v = ctx.read(&theirs)?;
                            ctx.write(&theirs, v + 1)?;
                            ctx.evaluate(&fut)
                        });
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        tm.shutdown();
        let report = Trace::from_tracer(&tracer).verify().unwrap();
        assert_eq!(report.committed_tops, 60, "{sem:?}");
        assert!(report.full_detail);
    }
}

/// The checker's verdict survives a Chrome-trace export/import round trip
/// (the `wtf-report` CLI path).
#[test]
fn chrome_export_round_trip_verifies() {
    use wtf_backend::{atomic, TBox};
    let tracer = Tracer::with_capacity(TraceLevel::Full, 1 << 12);
    let stm = wtf_mvstm::Stm::with_tracer(tracer.clone());
    let b = TBox::new_on(&stm, 0u64);
    for _ in 0..10 {
        atomic(&stm, |tx| {
            let v = tx.read(&b)?;
            tx.write(&b, v + 1)
        })
        .unwrap();
    }
    let json = wtf_trace::Json::parse(&tracer.chrome_trace_json()).unwrap();
    let report = Trace::from_chrome_json(&json).unwrap().verify().unwrap();
    assert_eq!(report.committed_txns, 10);

    let live = Trace::from_tracer(&tracer).verify().unwrap();
    assert_eq!(report.committed_txns, live.committed_txns);
}
