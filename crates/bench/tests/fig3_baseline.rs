//! `fig3_stragglers` reproduces the checked-in Fig. 3 results byte for
//! byte. The figure runs under the virtual clock, so its output is a pure
//! function of the code: any difference is a behaviour change, to be
//! explained and then regenerated with
//! `WTF_TRACE=2 cargo run --release -p wtf-bench --bin fig3_stragglers`.

use std::path::Path;
use std::process::{Command, Stdio};

const FILES: [&str; 3] = [
    "fig3_stragglers.json",
    "fig3_trace_so.json",
    "fig3_trace_wo.json",
];

#[test]
fn fig3_reproduces_the_checked_in_results() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig3_baseline");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig3_stragglers"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("WTF_") {
            cmd.env_remove(name);
        }
    }
    let status = cmd
        .env("WTF_BACKEND", "mvstm")
        .env("WTF_TRACE", "2")
        .env("WTF_RESULTS_DIR", &out)
        .current_dir(&out)
        .stdout(Stdio::null())
        .status()
        .expect("run fig3_stragglers");
    assert!(status.success(), "fig3_stragglers: {status}");

    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for file in FILES {
        let read = |dir: &Path| {
            let path = dir.join(file);
            std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        };
        if let Some(diff) = first_difference(&read(&results), &read(&out)) {
            panic!("results/{file} differs from a fresh run at {diff}");
        }
    }
}

/// Line and column of the first byte where `got` departs from `want`, and
/// a few bytes of each side from just before it (the files are one-line
/// JSON, so the line number alone says little).
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    let at = match want.iter().zip(got).position(|(w, g)| w != g) {
        Some(at) => at,
        None if want.len() == got.len() => return None,
        None => want.len().min(got.len()),
    };
    let line_start = want[..at]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let line = 1 + want[..line_start].iter().filter(|&&b| b == b'\n').count();
    let from = at.saturating_sub(20).max(line_start);
    let window = |s: &[u8]| {
        String::from_utf8_lossy(&s[from.min(s.len())..s.len().min(from + 60)]).into_owned()
    };
    Some(format!(
        "line {line}, column {}:\n  checked in: {}\n  fresh run:  {}",
        at - line_start + 1,
        window(want),
        window(got)
    ))
}
