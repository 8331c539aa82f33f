//! The workspace gate: the audit must be clean on the repo's own source,
//! and the checked-in inventory baseline must match what the audit
//! produces today (a drifted baseline means an atomic, ordering, lock
//! class or unsafe site changed without the diff being acknowledged).

use std::path::Path;

fn repo_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_audit_is_clean() {
    let report = wtf_audit::audit_tree(&repo_root()).expect("audit walk");
    let findings = report.findings();
    assert!(
        findings.is_empty(),
        "workspace audit found {} problem(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn inventory_baseline_matches() {
    let report = wtf_audit::audit_tree(&repo_root()).expect("audit walk");
    let baseline_path = repo_root().join("results/audit_inventory.json");
    let baseline = std::fs::read_to_string(&baseline_path)
        .expect("results/audit_inventory.json is checked in");
    assert_eq!(
        report.inventory_json(),
        baseline,
        "inventory drifted from results/audit_inventory.json — regenerate \
         it with `wtf-audit --inventory results/audit_inventory.json` and \
         review the diff"
    );
}

#[test]
fn seeded_fixtures_trip_every_rule() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let report = wtf_audit::audit_tree(&fixtures).expect("fixture walk");
    let findings = report.findings();
    for rule in [
        "missing-contract",
        "ordering-violation",
        "relaxed-guard",
        "undeclared-atomic",
        "unsafe-missing-safety",
        "lock-unclassified",
        "unsorted-multi-lock",
        "lock-cycle",
        "env-read",
    ] {
        assert!(
            findings.iter().any(|f| f.rule == rule),
            "fixtures should trip {rule}: {findings:?}"
        );
    }
}
