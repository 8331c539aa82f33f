//! TM misuse: application code reaches the STM only through the retry
//! loop and spawns futures only through `ctx.submit`. Four rules, all
//! silent in test code:
//!
//! * **`raw-api`** — calling the substrate trait's own operations
//!   (`acquire_snapshot`, `read_at`, `commit_attributed`) outside the
//!   runtime crates, called as a method or by path
//!   (`BackendBox::read_at(..)`, the natural shape for the lending read
//!   on a `dyn BackendBox`). They skip the retry loop and the
//!   serialization records; application code goes through
//!   `wtf_backend::atomic` / `FutureTm::atomic`.
//! * **`snapshot-retained`** — a `: BackendSnapshot` struct field or
//!   static outside the runtime crates. A live snapshot pins the GC
//!   horizon: version chains grow without bound while it exists (the
//!   runtime holds a snapshot for one transaction attempt only).
//! * **`thread-escape`** — transactional state (`TxCtx`, `ctx`,
//!   `.submit(...)`) moved into `thread::spawn`, in any crate. A plain OS
//!   thread escapes the transaction's tracking; futures are spawned with
//!   `ctx.submit` so the runtime can serialize them.
//! * **`unchecked-atomic`** — `.unwrap()` / `.expect(` directly on an
//!   `atomic(..)` or `commit(..)` result outside the runtime crates.
//!   `atomic` returns `Err(Aborted)` on explicit abort and `commit`
//!   reports conflicts; application code handles them. The runtime's own
//!   concurrency discipline is the atomics pass's to check.

use crate::scan::{self, SourceFile};
use crate::{Finding, RUNTIME_CRATES};

pub fn analyze(files: &[&SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files {
        let runtime = !f.fixture && RUNTIME_CRATES.contains(&f.crate_name.as_str());
        let mut push = |off: usize, rule: &'static str, message: String| {
            if !f.in_test(off) {
                findings.push(Finding {
                    file: f.path.clone(),
                    line: f.line_of(off),
                    rule,
                    message,
                });
            }
        };
        let m = f.masked.as_str();

        for off in scan::find_all(m, "thread::spawn") {
            if let Some((args, _)) = scan::call_args(m, off + "thread::spawn".len()) {
                if scan::has_word(args, "ctx")
                    || scan::has_word(args, "TxCtx")
                    || args.contains(".submit(")
                {
                    push(
                        off,
                        "thread-escape",
                        "transactional context moved into `thread::spawn`; spawn futures \
                         with `ctx.submit` so the runtime serializes them"
                            .to_string(),
                    );
                }
            }
        }
        if runtime {
            continue;
        }

        for needle in [
            ".acquire_snapshot(",
            ".read_at(",
            "::read_at(",
            ".commit_attributed(",
        ] {
            for off in scan::find_all(m, needle) {
                push(
                    off,
                    "raw-api",
                    format!("`{needle}` used outside the runtime crates; use `atomic` instead"),
                );
            }
        }
        for off in scan::find_all(m, "BackendSnapshot") {
            let line_start = f.starts[f.line_of(off) - 1];
            if m[..off].trim_end().ends_with(':')
                && !m[line_start..].trim_start().starts_with("use ")
            {
                push(
                    off,
                    "snapshot-retained",
                    "storing a `BackendSnapshot` pins the GC horizon; hold snapshots only for \
                     the duration of one transaction attempt"
                        .to_string(),
                );
            }
        }
        for (off, name) in calls(m) {
            let rest = m[off..].trim_start();
            if (name == "atomic" || name == "commit")
                && (rest.starts_with(".unwrap()") || rest.starts_with(".expect("))
            {
                push(
                    off,
                    "unchecked-atomic",
                    format!(
                        "`{name}(..)` result unwrapped in non-test code; handle the \
                         abort/conflict case explicitly (or use `atomic_infallible`)"
                    ),
                );
            }
        }
    }
    findings
}

/// Every call site in `masked`, as `(offset_after_closing_paren, callee)`.
fn calls(masked: &str) -> Vec<(usize, &str)> {
    let bytes = masked.as_bytes();
    let mut stack: Vec<Option<(usize, usize)>> = Vec::new(); // ident span per open paren
    let mut out = Vec::new();
    for i in 0..bytes.len() {
        match bytes[i] {
            b'(' => {
                let mut j = i;
                while j > 0 && (bytes[j - 1].is_ascii_alphanumeric() || bytes[j - 1] == b'_') {
                    j -= 1;
                }
                stack.push(if j < i { Some((j, i)) } else { None });
            }
            b')' => {
                if let Some(Some((a, b))) = stack.pop() {
                    out.push((i + 1, &masked[a..b]));
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_in(krate: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::new(
            format!("crates/{krate}/src/x.rs"),
            krate.into(),
            false,
            src.into(),
        );
        analyze(&[&f])
    }

    #[test]
    fn raw_api_flagged_outside_runtime() {
        let src = "fn f(stm: &dyn StmBackend) { let s = stm.acquire_snapshot(); }\n";
        let findings = findings_in("workloads", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "raw-api");
        assert!(findings_in("core", src).is_empty());
    }

    #[test]
    fn lending_read_flagged_as_method_and_by_path() {
        let method = "fn f(b: &TBox<u64>) { b.body().read_at(7, &mut |v| drop(v)).ok(); }\n";
        let path = "fn f(b: &TBox<u64>) { BackendBox::read_at(b.body(), 7, &mut |_| {}).ok(); }\n";
        for src in [method, path] {
            let findings = findings_in("workloads", src);
            assert_eq!(findings.len(), 1, "{src}");
            assert_eq!(findings[0].rule, "raw-api");
            assert!(findings_in("core", src).is_empty());
        }
    }

    #[test]
    fn snapshot_field_flagged() {
        let src = "struct Cache {\n    snap: BackendSnapshot,\n}\n";
        let findings = findings_in("workloads", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "snapshot-retained");
        assert_eq!(findings[0].line, 2);
        // `use` imports are not retention
        assert!(findings_in("workloads", "use wtf_backend::BackendSnapshot;\n").is_empty());
    }

    #[test]
    fn thread_escape_flagged() {
        let src = "fn f(ctx: &mut TxCtx) { std::thread::spawn(move || { ctx.read(&b) }); }\n";
        let findings = findings_in("workloads", src);
        assert!(findings.iter().any(|f| f.rule == "thread-escape"));
        let clean = "fn f() { std::thread::spawn(move || { work() }); }\n";
        assert!(findings_in("workloads", clean).is_empty());
    }

    #[test]
    fn unchecked_atomic_flagged_outside_tests() {
        let src = "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n";
        let findings = findings_in("workloads", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unchecked-atomic");
        let test_src = "#[cfg(test)]\nmod t {\n    fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n}\n";
        assert!(findings_in("workloads", test_src).is_empty());
    }

    #[test]
    fn unchecked_atomic_left_to_the_atomics_pass_in_runtime_crates() {
        let src = "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n";
        let runtime = findings_in("mvstm", src);
        assert!(runtime.is_empty(), "{runtime:?}");
    }
}
