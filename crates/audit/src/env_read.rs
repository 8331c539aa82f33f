//! Environment reads: runtime code reads `WTF_*` knobs only through
//! `wtf_trace::knobs`, which checks every value and rejects unknown
//! names. Any other `env::var`, `env::var_os`, `env::vars` or
//! `env::vars_os` call in non-test code is an `env-read` finding.

use crate::scan::{self, SourceFile};
use crate::Finding;

/// The one file allowed to read the process environment.
pub const KNOBS_FILE: &str = "crates/trace/src/knobs.rs";

pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in files.iter().filter(|f| !f.path.ends_with(KNOBS_FILE)) {
        for call in ["var", "var_os", "vars", "vars_os"] {
            for off in scan::find_word_all(&f.masked, call) {
                if !f.masked[..off].ends_with("env::") || f.in_test(off) {
                    continue;
                }
                findings.push(Finding {
                    file: f.path.clone(),
                    line: f.line_of(off),
                    rule: "env-read",
                    message: format!(
                        "`env::{call}` outside `{KNOBS_FILE}`: read the knob through \
                         `wtf_trace::knobs`"
                    ),
                });
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        analyze(&[SourceFile::new(path.into(), "x".into(), false, src.into())])
    }

    #[test]
    fn env_reads_flagged_outside_the_knob_module() {
        let src = "fn f() -> bool {\n    std::env::var_os(\"WTF_DEBUG\").is_some()\n}\n\
                   fn g() { for _ in std::env::vars() {} }\n";
        let found = findings("crates/x/src/lib.rs", src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!((found[0].rule, found[0].line), ("env-read", 2));
        assert_eq!(found[1].line, 4);
        assert!(findings(KNOBS_FILE, src).is_empty());
    }

    #[test]
    fn test_code_comments_and_other_env_calls_exempt() {
        let src = "// std::env::var(\"X\")\nfn f() { let _ = std::env::args(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { std::env::var(\"X\").ok(); }\n}\n";
        assert!(findings("crates/x/src/lib.rs", src).is_empty());
    }
}
