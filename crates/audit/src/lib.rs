//! `wtf-audit`: whole-workspace source audit.
//!
//! One hand-rolled scanner ([`scan`]) under every check. Items 1–4 make
//! each concurrency protocol in the runtime an explicit, machine-checked
//! contract — the prerequisite for the ROADMAP's
//! epoch-based-reclamation and privatization work; item 5 keeps the
//! environment behind one reader, and item 6 checks how the rest of the
//! workspace uses the STM:
//!
//! 1. **Atomics inventory + ordering contracts** ([`atomics`]): every
//!    atomic declaration must carry a `// ordering:` contract comment;
//!    every `load/store/swap/compare_exchange/fetch_*` call site is
//!    checked against it, Relaxed loads feeding branch/CAS decisions
//!    need an explicit `relaxed-guard` clause, undeclared atomics fail.
//! 2. **Static lock-order graph** ([`lockorder`]): `Mutex`/`RwLock`
//!    fields in `backend`/`mvstm`/`tl2` are classified via `// lock-order:`
//!    annotations; acquisition order (including the sorted stripe-mask
//!    walk) is verified and the class graph must be acyclic.
//! 3. **Unsafe audit** ([`unsafe_audit`]): every `unsafe` needs a
//!    `// SAFETY:` justification, cross-referenced to the inventory.
//! 4. **Inventory baseline** ([`inventory`]): deterministic JSON diffed
//!    in CI (`results/audit_inventory.json`) so any new/changed atomic
//!    or ordering is a visible diff, never a silent slip.
//! 5. **Environment reads** ([`env_read`]): only `wtf_trace::knobs`
//!    calls `std::env::var*`, so every knob has one strict reader.
//! 6. **TM misuse** ([`misuse`]): outside the runtime crates, no raw
//!    substrate calls, retained snapshots or unchecked `atomic(..)`
//!    results; nowhere does transactional state escape into
//!    `thread::spawn`. This pass covers every crate and root `src/`.
//!
//! The dynamic counterpart is the litmus suite (`crates/*/tests/
//! litmus.rs`) run under Miri and TSan; each litmus test is named after
//! the inventory entry whose protocol it enforces.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

pub mod atomics;
pub mod env_read;
pub mod inventory;
pub mod lockorder;
pub mod misuse;
pub mod scan;
pub mod unsafe_audit;

/// Crates whose runtime source is subject to the atomics, unsafe and
/// environment-read audits.
pub const AUDIT_CRATES: [&str; 7] = [
    "backend", "core", "mvstm", "taskpool", "tl2", "trace", "vclock",
];

/// Crates subject to the lock-order audit (the lock-holding substrates
/// and the horizon they share).
pub const LOCK_CRATES: [&str; 3] = ["backend", "mvstm", "tl2"];

/// The runtime: the substrate contract, its two implementations, the
/// futures layer and the checker. The misuse pass lets them call the raw
/// substrate operations, hold snapshots and unwrap commits.
pub const RUNTIME_CRATES: [&str; 5] = ["backend", "core", "mvstm", "tl2", "report"];

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    /// 1-based; 0 for whole-graph findings (cycles).
    pub line: usize,
    /// `missing-contract`, `contract-empty`, `ordering-violation`,
    /// `relaxed-guard`, `undeclared-atomic`, `lock-unclassified`,
    /// `lock-key-collision`, `unsorted-multi-lock`,
    /// `multiple-mask-sources`, `lock-cycle`, `unsafe-missing-safety`,
    /// `env-read`, `raw-api`, `snapshot-retained`, `thread-escape`,
    /// `unchecked-atomic`.
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Combined result of all audit passes.
pub struct AuditReport {
    pub atomics: atomics::AtomicsReport,
    pub locks: lockorder::LockReport,
    pub unsafes: unsafe_audit::UnsafeReport,
    pub env_reads: Vec<Finding>,
    pub misuse: Vec<Finding>,
}

impl AuditReport {
    /// All findings across the passes, file/line sorted.
    pub fn findings(&self) -> Vec<Finding> {
        let mut out: Vec<Finding> = self
            .atomics
            .findings
            .iter()
            .chain(&self.locks.findings)
            .chain(&self.unsafes.findings)
            .chain(&self.env_reads)
            .chain(&self.misuse)
            .cloned()
            .collect();
        out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        out
    }

    /// The checked-in JSON baseline text.
    pub fn inventory_json(&self) -> String {
        inventory::render(&self.atomics, &self.locks, &self.unsafes)
    }

    /// The lock-order graph in DOT.
    pub fn lock_dot(&self) -> String {
        lockorder::to_dot(&self.locks)
    }
}

/// Audits a set of pre-classified source files. The atomics, unsafe and
/// environment-read passes see the [`AUDIT_CRATES`], lock order sees the
/// [`LOCK_CRATES`], and the misuse pass sees every file. Fixture files
/// get every pass, so failing-case fixtures can exercise every rule.
pub fn audit_files(files: Vec<scan::SourceFile>) -> AuditReport {
    let scope = |crates: &[&str]| -> Vec<&scan::SourceFile> {
        files
            .iter()
            .filter(|f| f.fixture || crates.contains(&f.crate_name.as_str()))
            .collect()
    };
    let audited = scope(&AUDIT_CRATES);
    let atomics_report = atomics::analyze(&audited);
    let keys: BTreeSet<(String, String)> = atomics_report
        .decls
        .iter()
        .flat_map(|d| d.keys.iter().map(|k| (d.crate_name.clone(), k.clone())))
        .collect();
    AuditReport {
        locks: lockorder::analyze(&scope(&LOCK_CRATES)),
        unsafes: unsafe_audit::analyze(&audited, &keys),
        env_reads: env_read::analyze(&audited),
        misuse: misuse::analyze(&files.iter().collect::<Vec<_>>()),
        atomics: atomics_report,
    }
}

/// Loads and classifies every `.rs` file under `root` (the workspace root,
/// or a fixtures directory), then runs all passes. Files under
/// `crates/<name>/src` belong to crate `<name>`, files under root `src/`
/// to the root package; loose files audit standalone as fixtures under
/// their file stem, so fixture keys never cross-talk. `tests/`,
/// `benches/`, `examples/`, `fixtures/` (when recursed into), `shims/`,
/// `benchmark/` and `src/tests.rs` unit-test modules are test code or
/// separate packages, and are skipped. Files are read lossily (a stray
/// latin-1 byte does not stop the audit); unreadable files are reported
/// as errors naming the file.
pub fn audit_tree(root: &Path) -> std::io::Result<AuditReport> {
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths)?;
    paths.sort();
    let mut files = Vec::new();
    for path in paths {
        // Root-relative: the inventory baseline must not depend on where
        // the walk was started from (CLI runs from the repo root, the
        // workspace gate test runs from `crates/audit`).
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .to_string();
        let comps: Vec<&str> = rel.split('/').collect();
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_default();
        if stem == "tests" {
            continue;
        }
        let crate_dir = comps
            .windows(3)
            .find(|w| w[0] == "crates" && w[2] == "src")
            .map(|w| w[1]);
        let (crate_name, fixture) = match crate_dir {
            Some(name) => (name.to_string(), false),
            None if comps[0] == "src" => ("transactional-futures".to_string(), false),
            // a workspace file outside every crate's `src/`
            None if ["crates", "src", "shims"].iter().any(|c| comps.contains(c)) => continue,
            None => (stem, true),
        };
        let bytes = std::fs::read(&path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        let src = String::from_utf8_lossy(&bytes).into_owned();
        files.push(scan::SourceFile::new(rel, crate_name, fixture, src));
    }
    Ok(audit_files(files))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", dir.display())))?
    {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().to_string();
        if path.is_dir() {
            if [
                "target", ".git", "fixtures", "tests", "benches", "examples", "results",
            ]
            .contains(&name.as_str())
            {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn audit_tree_survives_non_utf8_files() {
        let dir = std::env::temp_dir().join(format!("wtf_audit_nonutf8_{}", std::process::id()));
        let (audited, app) = (dir.join("crates/trace/src"), dir.join("crates/app/src"));
        std::fs::create_dir_all(&audited).unwrap();
        std::fs::create_dir_all(&app).unwrap();
        // Invalid UTF-8 in a comment: common when editors write latin-1.
        std::fs::write(audited.join("bad.rs"), b"fn f() {} // caf\xe9\n").unwrap();
        std::fs::write(
            app.join("good.rs"),
            "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n",
        )
        .unwrap();
        let report = super::audit_tree(&dir);
        std::fs::remove_dir_all(&dir).ok();
        let findings = report
            .expect("non-UTF-8 files are read lossily, not fatally")
            .findings();
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "unchecked-atomic" && f.file.ends_with("good.rs")),
            "the rest of the tree is still audited: {findings:?}"
        );
    }
}
