//! `wtf-lint`: a small, dependency-free source lint for TM misuse in the
//! workspace's own Rust code.
//!
//! With no proc-macro parser available offline, this is a hand-rolled
//! scanner: comments and string/char literals are masked out first (so
//! needles never match inside them), `#[cfg(test)]` / `#[test]` regions
//! are tracked with a brace stack, and call shapes are tracked with a
//! paren stack. That is deliberately shallow — the lint aims at the
//! handful of misuse patterns that have bitten TM users, not at general
//! static analysis:
//!
//! * **`raw-api`** — calling the substrate trait's own operations
//!   (`acquire_snapshot`, `read_at`, `commit_attributed`) outside the
//!   runtime crates. They skip the retry loop and the serialization
//!   records; application code must go through `wtf_backend::atomic` /
//!   `FutureTm::atomic`.
//! * **`snapshot-retained`** — storing a `BackendSnapshot` in a struct
//!   field or static. A live snapshot pins the GC horizon: version chains
//!   grow without bound while it exists (the paper's runtime only holds
//!   snapshots for the duration of one transaction attempt).
//! * **`thread-escape`** — moving transactional state (`TxCtx`, `ctx`,
//!   `.submit(...)`) into `thread::spawn`. Futures must be spawned via
//!   `ctx.submit` so the runtime can serialize them; a plain OS thread
//!   escapes the transaction's tracking entirely.
//! * **`unchecked-atomic`** — `.unwrap()` / `.expect(` directly on an
//!   `atomic(...)` or `commit(...)` result in non-test code. `atomic`
//!   returns `Err(Aborted)` on explicit abort and `commit` reports
//!   conflicts; production code must handle them.
//!
//! Suppress a finding with `// wtf-lint: allow(rule)` on the same or the
//! preceding line. Files under `tests/`, `benches/` or `examples/` are
//! test code; `crates/backend`, `crates/mvstm`, `crates/tl2`,
//! `crates/core` and `crates/check` are the runtime (the `raw-api`,
//! `snapshot-retained` and `unchecked-atomic` rules do not apply — the
//! runtime crates' concurrency discipline is `wtf-audit`'s jurisdiction,
//! which checks the atomics themselves rather than how their results are
//! consumed).

use std::fmt;
use std::path::Path;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as given to the linter.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule slug: `raw-api`, `snapshot-retained`, `thread-escape`,
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

/// Per-file classification, derived from the path by [`lint_tree`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FileCtx {
    /// Test code: the `unchecked-atomic` rule (and test-region-sensitive
    /// parts of the others) are off for the whole file.
    pub test_file: bool,
    /// Runtime crate: `raw-api` and `snapshot-retained` do not apply.
    pub runtime_crate: bool,
}

/// Lints one source string as non-test, non-runtime application code.
pub fn lint_source(file: &str, src: &str) -> Vec<Finding> {
    lint_source_with(file, src, FileCtx::default())
}

/// Lints one source string with explicit file classification.
pub fn lint_source_with(file: &str, src: &str, ctx: FileCtx) -> Vec<Finding> {
    let allows = collect_allows(src);
    let masked = mask_comments_and_strings(src);
    let line_starts = line_starts(&masked);
    let test_lines = test_line_mask(&masked, &line_starts);
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(i) => i + 1,
        Err(i) => i,
    };
    let is_test = |line: usize| ctx.test_file || test_lines.get(line - 1).copied().unwrap_or(false);
    let allowed = |line: usize, rule: &str| {
        allows
            .iter()
            .any(|(l, r)| (*l == line || *l + 1 == line) && r == rule)
    };
    let mut out = Vec::new();
    let mut push = |off: usize, rule: &'static str, message: String, skip_in_tests: bool| {
        let line = line_of(off);
        if skip_in_tests && is_test(line) {
            return;
        }
        if allowed(line, rule) {
            return;
        }
        out.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        });
    };

    if !ctx.runtime_crate {
        // raw-api: the low-level layer bypasses retry + serialization
        // records; only the runtime crates may touch it.
        const RAW_NEEDLES: [&str; 3] = [".acquire_snapshot(", ".read_at(", ".commit_attributed("];
        for needle in RAW_NEEDLES {
            for off in find_all(&masked, needle) {
                push(
                    off,
                    "raw-api",
                    format!("`{needle}` used outside the runtime crates; use `atomic` instead"),
                    true,
                );
            }
        }
        // snapshot-retained: `: BackendSnapshot` in type position pins
        // the GC horizon for as long as the holder lives.
        for off in find_all(&masked, "BackendSnapshot") {
            let before = masked[..off].trim_end();
            let line = line_of(off);
            let line_text = line_text(&masked, &line_starts, line);
            if before.ends_with(':') && !line_text.trim_start().starts_with("use ") {
                push(
                    off,
                    "snapshot-retained",
                    "storing a `BackendSnapshot` pins the GC horizon; hold snapshots only for \
                     the duration of one transaction attempt"
                        .to_string(),
                    true,
                );
            }
        }
    }

    // thread-escape: transactional state moved into a plain OS thread.
    for off in find_all(&masked, "thread::spawn") {
        if let Some(args) = call_args(&masked, off + "thread::spawn".len()) {
            if has_word(args, "ctx") || has_word(args, "TxCtx") || args.contains(".submit(") {
                push(
                    off,
                    "thread-escape",
                    "transactional context moved into `thread::spawn`; spawn futures \
                     with `ctx.submit` so the runtime serializes them"
                        .to_string(),
                    true,
                );
            }
        }
    }

    // unchecked-atomic: `.unwrap()`/`.expect(` on atomic/commit results.
    // Off in runtime crates: wtf-audit owns their concurrency discipline
    // (the runtime deliberately unwraps in documented teaching examples,
    // and its own atomics are contract-checked at the source).
    if !ctx.runtime_crate {
        for (off, name) in calls(&masked) {
            if name != "atomic" && name != "commit" {
                continue;
            }
            let rest = masked[off..].trim_start();
            if rest.starts_with(".unwrap()") || rest.starts_with(".expect(") {
                push(
                    off,
                    "unchecked-atomic",
                    format!(
                        "`{name}(..)` result unwrapped in non-test code; handle the \
                         abort/conflict case explicitly (or use `atomic_infallible`)"
                    ),
                    true,
                );
            }
        }
    }

    out.sort_by_key(|f| f.line);
    out
}

/// Recursively lints every `.rs` file under `root`, classifying files by
/// path (skips `target/`, `.git/`, and `fixtures/` directories).
pub fn lint_tree(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let rel = path.to_string_lossy().to_string();
        // Seeded-misuse fixtures are linted as plain application code
        // (CI asserts `wtf-lint crates/check/fixtures` fails).
        let fixture = rel.split('/').any(|c| c == "fixtures");
        let ctx = FileCtx {
            test_file: !fixture
                && rel
                    .split('/')
                    .any(|c| c == "tests" || c == "benches" || c == "examples"),
            runtime_crate: !fixture
                && [
                    "crates/mvstm",
                    "crates/core",
                    "crates/check",
                    // The substrate contract and its two
                    // implementations are the runtime.
                    "crates/backend",
                    "crates/tl2",
                ]
                .iter()
                .any(|r| rel.contains(r)),
        };
        // Read errors carry the offending path (a bare io::Error from a
        // deep walk is undebuggable); non-UTF8 bytes are linted lossily
        // rather than aborting the whole tree.
        let src = match std::fs::read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) => {
                return Err(std::io::Error::new(
                    e.kind(),
                    format!("{}: {e}", path.display()),
                ))
            }
        };
        out.extend(lint_source_with(&rel, &src, ctx));
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---- scanner plumbing ----

/// `(line, rule)` pairs from `// wtf-lint: allow(rule)` directives; each
/// suppresses its own and the following line.
fn collect_allows(src: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let mut rest = line;
        while let Some(p) = rest.find("wtf-lint: allow(") {
            let tail = &rest[p + "wtf-lint: allow(".len()..];
            if let Some(end) = tail.find(')') {
                out.push((i + 1, tail[..end].trim().to_string()));
                rest = &tail[end..];
            } else {
                break;
            }
        }
    }
    out
}

/// Replaces the contents of comments and string/char literals with spaces
/// (newlines kept), so offsets and line numbers survive.
fn mask_comments_and_strings(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out: Vec<char> = b.clone();
    let n = b.len();
    let mut i = 0;
    let blank = |out: &mut Vec<char>, from: usize, to: usize| {
        for c in out.iter_mut().take(to).skip(from) {
            if *c != '\n' {
                *c = ' ';
            }
        }
    };
    while i < n {
        match b[i] {
            '/' if i + 1 < n && b[i + 1] == '/' => {
                let start = i;
                while i < n && b[i] != '\n' {
                    i += 1;
                }
                blank(&mut out, start, i);
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let start = i;
                let mut depth = 1;
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start, i);
            }
            '"' => {
                let start = i;
                i += 1;
                while i < n {
                    if b[i] == '\\' {
                        i += 2;
                    } else if b[i] == '"' {
                        i += 1;
                        break;
                    } else {
                        i += 1;
                    }
                }
                blank(&mut out, start + 1, i.saturating_sub(1).min(n));
            }
            'r' if i + 1 < n && (b[i + 1] == '"' || b[i + 1] == '#') => {
                // raw string r"..." / r#"..."# (only when it starts a
                // token: previous char must not be identifier-ish)
                if i > 0 && (b[i - 1].is_alphanumeric() || b[i - 1] == '_') {
                    i += 1;
                    continue;
                }
                let start = i;
                let mut j = i + 1;
                let mut hashes = 0;
                while j < n && b[j] == '#' {
                    hashes += 1;
                    j += 1;
                }
                if j >= n || b[j] != '"' {
                    i += 1;
                    continue;
                }
                j += 1;
                'raw: while j < n {
                    if b[j] == '"' {
                        let mut k = 0;
                        while k < hashes && j + 1 + k < n && b[j + 1 + k] == '#' {
                            k += 1;
                        }
                        if k == hashes {
                            j += 1 + hashes;
                            break 'raw;
                        }
                    }
                    j += 1;
                }
                blank(&mut out, start + 1, j.saturating_sub(1));
                i = j;
            }
            '\'' => {
                // char literal vs lifetime: a literal closes within a few
                // chars; a lifetime never closes with `'`.
                if i + 2 < n && b[i + 1] == '\\' {
                    let mut j = i + 2;
                    while j < n && b[j] != '\'' && j - i < 12 {
                        j += 1;
                    }
                    if j < n && b[j] == '\'' {
                        blank(&mut out, i + 1, j);
                        i = j + 1;
                        continue;
                    }
                } else if i + 2 < n && b[i + 2] == '\'' {
                    blank(&mut out, i + 1, i + 2);
                    i += 3;
                    continue;
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
    out.into_iter().collect()
}

fn line_starts(s: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, c) in s.char_indices() {
        if c == '\n' {
            starts.push(i + 1);
        }
    }
    starts
}

fn line_text<'a>(s: &'a str, starts: &[usize], line: usize) -> &'a str {
    let begin = starts[line - 1];
    let end = starts.get(line).copied().unwrap_or(s.len());
    s[begin..end].trim_end_matches('\n')
}

/// Marks every line inside a `#[cfg(test)]` / `#[test]` item as test code
/// (brace-matched; `mod tests;`-style declarations end at the `;`).
fn test_line_mask(masked: &str, starts: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; starts.len()];
    let bytes = masked.as_bytes();
    let mut mark = |from: usize, to: usize| {
        let first = match starts.binary_search(&from) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let last = match starts.binary_search(&to) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        for m in mask.iter_mut().take(last + 1).skip(first) {
            *m = true;
        }
    };
    for attr in ["#[cfg(test)]", "#[test]"] {
        for off in find_all(masked, attr) {
            let mut i = off + attr.len();
            let mut depth = 0usize;
            let mut seen_brace = false;
            while i < bytes.len() {
                match bytes[i] {
                    b'{' => {
                        depth += 1;
                        seen_brace = true;
                    }
                    b'}' => {
                        depth = depth.saturating_sub(1);
                        if seen_brace && depth == 0 {
                            break;
                        }
                    }
                    b';' if !seen_brace => break,
                    _ => {}
                }
                i += 1;
            }
            mark(off, i.min(bytes.len().saturating_sub(1)));
        }
    }
    mask
}

fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = haystack[from..].find(needle) {
        out.push(from + p);
        from += p + needle.len();
    }
    out
}

fn has_word(haystack: &str, word: &str) -> bool {
    let mut from = 0;
    while let Some(p) = haystack[from..].find(word) {
        let at = from + p;
        let before_ok = at == 0
            || !haystack[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + word.len();
        let after_ok = !haystack[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        from = after;
    }
    false
}

/// The parenthesized argument text starting at the first `(` at/after
/// `from` (paren-matched), if any.
fn call_args(masked: &str, from: usize) -> Option<&str> {
    let bytes = masked.as_bytes();
    let open = (from..masked.len()).find(|&i| bytes[i] == b'(')?;
    if masked[from..open].trim() != "" {
        return None;
    }
    let mut depth = 0usize;
    for i in open..bytes.len() {
        match bytes[i] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&masked[open + 1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Every call site in `masked`, as `(offset_after_closing_paren, callee)`.
fn calls(masked: &str) -> Vec<(usize, String)> {
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
                    out.push((i + 1, masked[a..b].to_string()));
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

    #[test]
    fn masking_spares_offsets() {
        let src = "let a = \".read_at(\"; // .commit_attributed(\nlet b = 1;\n";
        let masked = mask_comments_and_strings(src);
        assert_eq!(masked.len(), src.len());
        assert!(!masked.contains("read_at"));
        assert!(!masked.contains("commit_attributed"));
        assert!(masked.contains("let b = 1;"));
    }

    #[test]
    fn raw_api_flagged_outside_runtime() {
        let src = "fn f(stm: &dyn StmBackend) { let s = stm.acquire_snapshot(); }\n";
        let findings = lint_source("app.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "raw-api");
        let runtime = lint_source_with(
            "crates/core/src/x.rs",
            src,
            FileCtx {
                test_file: false,
                runtime_crate: true,
            },
        );
        assert!(runtime.is_empty());
    }

    #[test]
    fn snapshot_field_flagged() {
        let src = "struct Cache {\n    snap: BackendSnapshot,\n}\n";
        let findings = lint_source("app.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "snapshot-retained");
        assert_eq!(findings[0].line, 2);
        // `use` imports are not retention
        assert!(lint_source("app.rs", "use wtf_backend::BackendSnapshot;\n")
            .iter()
            .all(|f| f.rule != "snapshot-retained"));
    }

    #[test]
    fn thread_escape_flagged() {
        let src = "fn f(ctx: &mut TxCtx) { std::thread::spawn(move || { ctx.read(&b) }); }\n";
        let findings = lint_source("app.rs", src);
        assert!(findings.iter().any(|f| f.rule == "thread-escape"));
        let clean = "fn f() { std::thread::spawn(move || { work() }); }\n";
        assert!(lint_source("app.rs", clean).is_empty());
    }

    #[test]
    fn unchecked_atomic_flagged_outside_tests() {
        let src = "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n";
        let findings = lint_source("app.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "unchecked-atomic");
        let test_src = "#[cfg(test)]\nmod t {\n    fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n}\n";
        assert!(lint_source("app.rs", test_src).is_empty());
    }

    #[test]
    fn unchecked_atomic_defers_to_audit_in_runtime_crates() {
        let src = "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n";
        let runtime = lint_source_with(
            "crates/mvstm/src/x.rs",
            src,
            FileCtx {
                test_file: false,
                runtime_crate: true,
            },
        );
        assert!(
            runtime.is_empty(),
            "runtime crates are wtf-audit's jurisdiction: {runtime:?}"
        );
    }

    #[test]
    fn lint_tree_survives_non_utf8_files() {
        let dir = std::env::temp_dir().join(format!("wtf_lint_nonutf8_{}", std::process::id()));
        let sub = dir.join("src");
        std::fs::create_dir_all(&sub).unwrap();
        // Invalid UTF-8 in a comment: common when editors write latin-1.
        std::fs::write(sub.join("bad.rs"), b"fn f() {} // caf\xe9\n").unwrap();
        std::fs::write(
            sub.join("good.rs"),
            "fn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n",
        )
        .unwrap();
        let findings = lint_tree(&dir).expect("non-UTF8 files lint lossily, not fatally");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "unchecked-atomic" && f.file.ends_with("good.rs")),
            "the rest of the tree still lints: {findings:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn allow_directive_suppresses() {
        let src =
            "// wtf-lint: allow(unchecked-atomic)\nfn f(stm: &Stm) { atomic(stm, |tx| tx.read(&b)).unwrap(); }\n";
        assert!(lint_source("app.rs", src).is_empty());
    }

    #[test]
    fn seeded_misuse_fixture_trips_every_rule() {
        let fixture = include_str!("../fixtures/misuse.rs");
        let findings = lint_source("fixtures/misuse.rs", fixture);
        for rule in [
            "raw-api",
            "snapshot-retained",
            "thread-escape",
            "unchecked-atomic",
        ] {
            assert!(
                findings.iter().any(|f| f.rule == rule),
                "fixture should trip {rule}: {findings:?}"
            );
        }
    }
}
