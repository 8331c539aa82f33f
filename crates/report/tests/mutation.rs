//! Mutation test: flip the runtime's read-set validation off (via
//! `wtf-backend`'s `test-hooks` feature) and prove the independent
//! checker catches the resulting non-serializable histories. This is the
//! evidence that the checker is not merely replaying the runtime's own
//! bookkeeping — a validation bug the runtime cannot see is exactly what
//! it must flag.
//!
//! Lives in its own integration binary: the hook is process-global, and
//! sharing a test process would poison unrelated tests.

use wtf_backend::test_hooks::set_skip_validation;
use wtf_core::BackendKind;
use wtf_report::explore::{explore_backend, StepOp};
use StepOp::{Commit, Read, Write};

/// Runs on every backend: the validation loop is the shared commit
/// frame's, so one hook breaks both. TL2 reads fail only on a newer
/// install, so the schedules where both sides read before either commits
/// still commit both sides of the skew.
#[test]
fn checker_catches_disabled_validation() {
    let write_skew = vec![
        vec![Read(0), Read(1), Write(0, 1), Commit],
        vec![Read(0), Read(1), Write(1, 1), Commit],
    ];
    for kind in BackendKind::ALL {
        // Baseline: with validation on, every schedule verifies.
        let report = explore_backend(kind, &write_skew, 2)
            .unwrap_or_else(|e| panic!("{kind}: intact runtime must verify: {e}"));
        assert_eq!(report.schedules, 70, "{kind}");

        // Mutant: skip validation — interleaved schedules now commit both
        // sides of the skew, and the checker must reject the history.
        set_skip_validation(true);
        let err = explore_backend(kind, &write_skew, 2);
        set_skip_validation(false);
        let err = err.expect_err("checker must catch the mutant");
        assert!(
            err.0.contains("not serializable"),
            "{kind}: expected a serializability violation, got: {err}"
        );

        // Back to normal: the world is consistent again.
        explore_backend(kind, &write_skew, 2)
            .unwrap_or_else(|e| panic!("{kind}: hook reset restores verification: {e}"));
    }
}
