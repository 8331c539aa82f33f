//! Bounded schedule exploration: every interleaving of small conflicting
//! transaction programs — and every delay vector through the futures
//! path — must produce a checker-clean history.

use wtf_check::explore::{
    explore_backend, explore_core_delays, explore_core_delays_on, schedule_count, StepOp,
};
use wtf_core::{BackendKind, Semantics};
use StepOp::{Commit, Read, Write};

/// Two conflicting read-modify-write transactions on one box: all 20
/// interleavings; whichever validates second aborts, and every schedule's
/// history verifies.
#[test]
fn explores_two_thread_rmw_conflict() {
    let programs = vec![
        vec![Read(0), Write(0, 1), Commit],
        vec![Read(0), Write(0, 2), Commit],
    ];
    assert_eq!(schedule_count(&programs), 20);
    let report = explore_backend(BackendKind::Mvstm, &programs, 1).unwrap();
    assert_eq!(report.schedules, 20);
    assert_eq!(report.commits + report.aborts, 40);
    // Fully serial schedules (one txn strictly before the other) commit
    // both; truly interleaved ones abort the later validator.
    assert!(report.aborts > 0, "{report:?}");
    assert!(report.commits > report.aborts, "{report:?}");
}

/// The write-skew shape: disjoint write sets, crossed read sets. The
/// runtime's read-set validation must abort one of the two in every
/// interleaved schedule, and the checker must agree with every outcome.
#[test]
fn explores_write_skew_shape() {
    let programs = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
    ];
    assert_eq!(schedule_count(&programs), 70);
    let report = explore_backend(BackendKind::Mvstm, &programs, 2).unwrap();
    assert_eq!(report.schedules, 70);
    assert!(report.aborts > 0);
}

/// Three threads: two writers and a read-only observer across two boxes.
/// Read-only transactions must commit in every schedule (multi-version
/// snapshots), and all histories verify.
#[test]
fn explores_three_thread_mix() {
    let programs = vec![
        vec![Read(0), Write(1, 1), Commit],
        vec![Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Commit],
    ];
    assert_eq!(schedule_count(&programs), 1680);
    let report = explore_backend(BackendKind::Mvstm, &programs, 2).unwrap();
    assert_eq!(report.schedules, 1680);
    // The read-only observer never aborts: at most one abort per schedule.
    assert!(report.commits >= 2 * report.schedules, "{report:?}");
}

/// TL2 sweep of the two-thread RMW conflict. Under a single-version
/// backend a thread can also die at a *read* (the box moved past its
/// snapshot), but every thread still ends in exactly one terminal event,
/// serial schedules still commit both, and every history verifies.
#[test]
fn tl2_explores_two_thread_rmw_conflict() {
    let programs = vec![
        vec![Read(0), Write(0, 1), Commit],
        vec![Read(0), Write(0, 2), Commit],
    ];
    let report = explore_backend(BackendKind::Tl2, &programs, 1).unwrap();
    assert_eq!(report.schedules, 20);
    assert_eq!(report.commits + report.aborts, 40);
    assert!(report.aborts > 0, "{report:?}");
    assert!(report.commits > report.aborts, "{report:?}");
}

/// TL2 write skew: crossed read sets with disjoint writes must still
/// abort one transaction in every interleaved schedule.
#[test]
fn tl2_explores_write_skew_shape() {
    let programs = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
    ];
    let report = explore_backend(BackendKind::Tl2, &programs, 2).unwrap();
    assert_eq!(report.schedules, 70);
    assert_eq!(report.commits + report.aborts, 140);
    assert!(report.aborts > 0);
}

/// TL2 three-thread mix. Unlike mvstm there is no multi-version
/// guarantee for the read-only observer — it may abort when a writer
/// overwrites a box it read under an older snapshot — so only the
/// terminal-event invariant and checker cleanliness are asserted.
#[test]
fn tl2_explores_three_thread_mix() {
    let programs = vec![
        vec![Read(0), Write(1, 1), Commit],
        vec![Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Commit],
    ];
    let report = explore_backend(BackendKind::Tl2, &programs, 2).unwrap();
    assert_eq!(report.schedules, 1680);
    assert_eq!(report.commits + report.aborts, 3 * 1680);
    // Serial schedules commit all three; most interleavings keep ≥2.
    assert!(report.commits > report.aborts, "{report:?}");
}

/// Delay-grid exploration of the core futures path under the virtual
/// clock: both the paper's most permissive (WO_GAC) and strictest (SO)
/// semantics stay checker-clean across racy commit orderings.
#[test]
fn explores_core_delay_grid() {
    for sem in [Semantics::WO_GAC, Semantics::SO] {
        let report = explore_core_delays(sem, &[0, 2_500]).unwrap();
        assert_eq!(report.schedules, 16, "{sem:?}");
        // Both clients commit in every run (doomed tops are replayed).
        assert_eq!(report.commits, 32, "{sem:?}");
    }
}

/// The same delay grid pinned to TL2: failed snapshot reads turn into
/// full restarts, but every run still commits both clients and stays
/// checker-clean.
#[test]
fn tl2_explores_core_delay_grid() {
    for sem in [Semantics::WO_GAC, Semantics::SO] {
        let report = explore_core_delays_on(BackendKind::Tl2, sem, &[0, 2_500]).unwrap();
        assert_eq!(report.schedules, 16, "{sem:?}");
        assert_eq!(report.commits, 32, "{sem:?}");
    }
}

/// The delay grid under WO_GAC on both substrates: every cell commits
/// both clients and passes the checker, which demands an acyclic §3.4
/// serialization witness for each run.
#[test]
fn explores_core_delay_grid_on_both_backends() {
    for backend in [BackendKind::Mvstm, BackendKind::Tl2] {
        let report = explore_core_delays_on(backend, Semantics::WO_GAC, &[0, 2_500]).unwrap();
        assert_eq!(report.schedules, 16, "{backend:?}");
        assert_eq!(report.commits, 32, "{backend:?}");
    }
}

/// The same (backend, grid) cell swept twice yields the identical
/// aggregate report, witness choices included.
#[test]
fn core_delay_sweeps_are_reproducible() {
    for backend in [BackendKind::Mvstm, BackendKind::Tl2] {
        let a = explore_core_delays_on(backend, Semantics::SO, &[0, 800]).unwrap();
        let b = explore_core_delays_on(backend, Semantics::SO, &[0, 800]).unwrap();
        assert_eq!(a, b, "{backend:?}");
    }
}

/// Wider CI configuration (runs in the scheduled deep-verify job):
/// `cargo test -p wtf-check --release -- --ignored`.
#[test]
#[ignore = "CI deep-verify: thousands of schedules"]
fn explores_deep_configurations() {
    // Three fully conflicting RMW writers on one box: 1680 schedules.
    let programs = vec![
        vec![Read(0), Write(0, 1), Commit],
        vec![Read(0), Write(0, 2), Commit],
        vec![Read(0), Write(0, 3), Commit],
    ];
    let report = explore_backend(BackendKind::Mvstm, &programs, 1).unwrap();
    assert_eq!(report.schedules, 1680);

    // Write skew plus an observer: 11!/(4!4!3!) = 11550 schedules.
    let programs = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
        vec![Read(0), Read(1), Commit],
    ];
    assert_eq!(schedule_count(&programs), 11_550);
    let report = explore_backend(BackendKind::Mvstm, &programs, 2).unwrap();
    assert_eq!(report.schedules, 11_550);

    // Finer delay grid through the futures path.
    for sem in [Semantics::WO_GAC, Semantics::WO_LAC, Semantics::SO] {
        let report = explore_core_delays(sem, &[0, 800, 2_500]).unwrap();
        assert_eq!(report.schedules, 81, "{sem:?}");
    }
}

/// Wider TL2 CI configuration (scheduled deep-verify job): the full
/// schedule spaces above swept through the single-version stepwise path,
/// plus the finer delay grid pinned to TL2.
#[test]
#[ignore = "CI deep-verify: thousands of schedules"]
fn tl2_explores_deep_configurations() {
    let programs = vec![
        vec![Read(0), Write(0, 1), Commit],
        vec![Read(0), Write(0, 2), Commit],
        vec![Read(0), Write(0, 3), Commit],
    ];
    let report = explore_backend(BackendKind::Tl2, &programs, 1).unwrap();
    assert_eq!(report.schedules, 1680);
    assert_eq!(report.commits + report.aborts, 3 * 1680);

    let programs = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
        vec![Read(0), Read(1), Commit],
    ];
    let report = explore_backend(BackendKind::Tl2, &programs, 2).unwrap();
    assert_eq!(report.schedules, 11_550);

    for sem in [Semantics::WO_GAC, Semantics::WO_LAC, Semantics::SO] {
        let report = explore_core_delays_on(BackendKind::Tl2, sem, &[0, 800, 2_500]).unwrap();
        assert_eq!(report.schedules, 81, "{sem:?}");
    }
}

/// Deep core sweep (scheduled deep-verify job): the finer delay grid on
/// both substrates, every run committing both clients.
#[test]
#[ignore = "CI deep-verify: thousands of schedules"]
fn explores_deep_core_delays_on_both_backends() {
    for backend in [BackendKind::Mvstm, BackendKind::Tl2] {
        for sem in [Semantics::WO_GAC, Semantics::SO] {
            let report = explore_core_delays_on(backend, sem, &[0, 800, 2_500]).unwrap();
            assert_eq!(report.schedules, 81, "{backend:?}/{sem:?}");
            assert_eq!(report.commits, 162, "{backend:?}/{sem:?}");
        }
    }
}
