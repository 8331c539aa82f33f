//! `wtf-audit`: whole-workspace concurrency static analysis.
//!
//! Grown from the `wtf-lint` scanner (`crates/check/src/lint.rs`), this
//! crate makes every concurrency protocol in the runtime an explicit,
//! machine-checked contract — the prerequisite for the ROADMAP's
//! epoch-based-reclamation and privatization work:
//!
//! 1. **Atomics inventory + ordering contracts** ([`atomics`]): every
//!    atomic declaration must carry a `// ordering:` contract comment;
//!    every `load/store/swap/compare_exchange/fetch_*` call site is
//!    checked against it, Relaxed loads feeding branch/CAS decisions
//!    need an explicit `relaxed-guard` clause, undeclared atomics fail.
//! 2. **Static lock-order graph** ([`lockorder`]): `Mutex`/`RwLock`
//!    fields in `mvstm`/`tl2` are classified via `// lock-order:`
//!    annotations; acquisition order (including the sorted stripe-mask
//!    walk) is verified and the class graph must be acyclic.
//! 3. **Unsafe audit** ([`unsafe_audit`]): every `unsafe` needs a
//!    `// SAFETY:` justification, cross-referenced to the inventory.
//! 4. **Inventory baseline** ([`inventory`]): deterministic JSON diffed
//!    in CI (`results/audit_inventory.json`) so any new/changed atomic
//!    or ordering is a visible diff, never a silent slip.
//! 5. **Environment reads** ([`env_read`]): only `wtf_trace::knobs`
//!    calls `std::env::var*`, so every knob has one strict reader.
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
pub mod scan;
pub mod unsafe_audit;

/// Crates whose runtime source is subject to the atomics, unsafe and
/// environment-read audits.
pub const AUDIT_CRATES: [&str; 9] = [
    "backend",
    "cm",
    "core",
    "mvstm",
    "taskpool",
    "telemetry",
    "tl2",
    "trace",
    "vclock",
];

/// Crates subject to the lock-order audit (the lock-holding substrates).
pub const LOCK_CRATES: [&str; 2] = ["mvstm", "tl2"];

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
    /// `env-read`.
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

/// Audits a set of pre-classified source files. Lock-order analysis runs
/// over the [`LOCK_CRATES`] subset — except in fixture mode (any file
/// whose crate is not one of [`AUDIT_CRATES`] is a loose fixture file,
/// which gets the full treatment so failing-case fixtures can exercise
/// every rule).
pub fn audit_files(files: Vec<scan::SourceFile>) -> AuditReport {
    let atomics_report = atomics::analyze(&files);
    let lock_files: Vec<scan::SourceFile> = files
        .iter()
        .filter(|f| {
            LOCK_CRATES.contains(&f.crate_name.as_str())
                || !AUDIT_CRATES.contains(&f.crate_name.as_str())
        })
        .map(|f| {
            scan::SourceFile::new(
                f.path.clone(),
                f.crate_name.clone(),
                f.test_file,
                f.src.clone(),
            )
        })
        .collect();
    let locks_report = lockorder::analyze(&lock_files);
    let keys: BTreeSet<(String, String)> = atomics_report
        .decls
        .iter()
        .flat_map(|d| d.keys.iter().map(|k| (d.crate_name.clone(), k.clone())))
        .collect();
    let unsafe_report = unsafe_audit::analyze(&files, &keys);
    AuditReport {
        atomics: atomics_report,
        locks: locks_report,
        unsafes: unsafe_report,
        env_reads: env_read::analyze(&files),
    }
}

/// Loads and classifies every audited `.rs` file under `root`, then runs
/// all passes. Files under `crates/<name>/src` belong to crate `<name>`
/// and are audited only when `<name>` is in [`AUDIT_CRATES`]; loose
/// files (e.g. a fixtures directory given as the root) audit standalone
/// under their file stem, so fixture keys never cross-talk. `tests/`,
/// `benches/`, `examples/`, `fixtures/` (when recursed into), `shims/`,
/// and `src/tests.rs` unit-test modules are not runtime code and are
/// skipped. Unreadable files are reported as errors naming the file.
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
        let crate_name = comps
            .windows(3)
            .find(|w| w[0] == "crates" && w[2] == "src")
            .map(|w| w[1].to_string());
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_default();
        if stem == "tests" {
            continue;
        }
        let crate_name = match crate_name {
            Some(name) => {
                if !AUDIT_CRATES.contains(&name.as_str()) {
                    continue;
                }
                name
            }
            None => {
                // A fixtures directory given *as the root* (the walk only
                // prunes `fixtures/` when recursing past it) stays a loose
                // fixture file even though its path mentions `crates/`.
                let fixture = comps.contains(&"fixtures");
                if !fixture
                    && (comps.contains(&"crates")
                        || comps.contains(&"src")
                        || comps.contains(&"shims"))
                {
                    // workspace file outside an audited crate's src
                    continue;
                }
                stem
            }
        };
        let src = std::fs::read_to_string(&path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        files.push(scan::SourceFile::new(rel, crate_name, false, src));
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
