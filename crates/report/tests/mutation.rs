//! Mutation test: flip the runtime's read-set validation off (via the
//! `test-hooks` feature) and prove the independent checker catches the
//! resulting non-serializable histories. This is the evidence that the
//! checker is not merely replaying the runtime's own bookkeeping — a
//! validation bug the runtime cannot see is exactly what it must flag.
//!
//! Lives in its own integration binary: the hook is process-global, and
//! sharing a test process would poison unrelated tests.

use wtf_core::BackendKind;
use wtf_report::explore::{explore_backend, StepOp};
use StepOp::{Commit, Read, Write};

#[test]
fn checker_catches_disabled_validation() {
    let write_skew = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
    ];

    // Baseline: with validation on, every schedule verifies.
    let report =
        explore_backend(BackendKind::Mvstm, &write_skew, 2).expect("intact runtime must verify");
    assert_eq!(report.schedules, 70);

    // Mutant: skip validation — interleaved schedules now commit both
    // sides of the skew, and the checker must reject the history.
    wtf_mvstm::test_hooks::set_skip_validation(true);
    let err = explore_backend(BackendKind::Mvstm, &write_skew, 2)
        .expect_err("checker must catch the mutant");
    wtf_mvstm::test_hooks::set_skip_validation(false);
    assert!(
        err.0.contains("not serializable"),
        "expected a serializability violation, got: {err}"
    );

    // Back to normal: the world is consistent again.
    explore_backend(BackendKind::Mvstm, &write_skew, 2).expect("hook reset restores verification");
}
