//! End-to-end tests of the `wtf-report` binary: checked-in traces pass
//! and fold, and each kind of bad input (a non-serializable history, a truncated
//! export, a result with dropped events, a usage error) gets the exit
//! status CI relies on.

use std::path::{Path, PathBuf};
use std::process::Command;
use wtf_backend::{atomic, TBox};
use wtf_report::Trace;
use wtf_trace::{chrome, EventKind, TraceEvent, TraceLevel, Tracer};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_wtf-report")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wtf_report_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn checked_in(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    path.to_str().unwrap().to_string()
}

fn run(args: &[&str]) -> (i32, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("run wtf-report");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().unwrap_or(-1), text)
}

fn write(dir: &Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

/// Both checked-in traces pass, and `--folded` writes one stack file each.
#[test]
fn checked_in_fig3_traces_pass() {
    let dir = scratch("fig3");
    let (so, wo) = (
        checked_in("fig3_trace_so.json"),
        checked_in("fig3_trace_wo.json"),
    );
    let (code, text) = run(&["--folded", dir.to_str().unwrap(), &so, &wo]);
    assert_eq!(code, 0, "{text}");
    assert_eq!(text.matches(": ok: ").count(), 2, "{text}");
    let schema = "\"schema\":\"wtf-profile/v1\"";
    assert_eq!(text.matches(schema).count(), 2, "{text}");
    assert!(text.contains("wtf-report: 2 file(s) ok"), "{text}");
    for mode in ["so", "wo"] {
        let folded = std::fs::read_to_string(dir.join(format!("fig3_trace_{mode}.folded")));
        assert!(folded.unwrap().contains("useful"), "{mode}");
    }
}

/// The checked-in traces are full-detail exports, so the offline verdict
/// rebuilds each run's FSG (§3.4) instead of checking structure only. A
/// regeneration at `WTF_TRACE=1` turns this red.
#[test]
fn checked_in_fig3_traces_carry_the_fsg() {
    let (code, text) = run(&["--all", &checked_in("")]);
    assert_eq!(code, 0, "{text}");
    for mode in ["so", "wo"] {
        let file = format!("fig3_trace_{mode}.json: ok: ");
        let line = text.lines().find(|l| l.contains(&file));
        let line = line.unwrap_or_else(|| panic!("no verdict on {file}: {text}"));
        assert!(
            line.contains(" 8 futures,") && line.ends_with("detail full"),
            "{line}"
        );
    }
}

#[test]
fn exported_write_skew_fails() {
    let ev = |kind, a, b| TraceEvent { ts: 0, kind, a, b };
    let lanes = vec![
        (
            0,
            vec![
                ev(EventKind::StmInstall, 0, 1),
                ev(EventKind::CommitRead, 0, 0),
                ev(EventKind::CommitRead, 1, 0),
                ev(EventKind::TxnCommit, 1, 0),
            ],
        ),
        (
            1,
            vec![
                ev(EventKind::StmInstall, 1, 2),
                ev(EventKind::CommitRead, 0, 0),
                ev(EventKind::CommitRead, 1, 0),
                ev(EventKind::TxnCommit, 2, 0),
            ],
        ),
    ];
    let dir = scratch("skew");
    let file = write(
        &dir,
        "skew.json",
        &chrome::chrome_trace(&lanes, 0).to_string(),
    );
    let (code, text) = run(&[&file]);
    assert_eq!(code, 1, "{text}");
    assert!(
        text.contains("FAILED") && text.contains("not serializable"),
        "{text}"
    );
}

/// A lane that fills up between whole transactions leaves no dangling
/// serialization record, so only the exported drop count can tell.
#[test]
fn truncated_export_fails() {
    let run_txns = |capacity: usize, n: usize| {
        let tracer = Tracer::with_capacity(TraceLevel::Full, capacity);
        let stm = wtf_mvstm::Stm::with_tracer(tracer.clone());
        let b = TBox::new_on(&stm, 0u64);
        let setup = tracer.events_recorded() as usize;
        for _ in 0..n {
            atomic(&stm, |tx| {
                let v = tx.read(&b)?;
                tx.write(&b, v + 1)
            })
            .unwrap();
        }
        (tracer, setup)
    };
    let (probe, setup) = run_txns(1 << 12, 1);
    let per_txn = probe.events_recorded() as usize - setup;
    let (tracer, _) = run_txns(setup + 3 * per_txn, 5);
    assert_eq!(tracer.events_dropped(), 2 * per_txn as u64);
    let kept = Trace::new(tracer.lanes(), 0).verify().unwrap();
    assert_eq!(
        kept.committed_txns, 3,
        "the kept prefix is whole transactions"
    );

    let dir = scratch("truncated");
    let file = write(&dir, "truncated.json", &tracer.chrome_trace_json());
    let (code, text) = run(&[&file]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains("trace truncated"), "{text}");
}

#[test]
fn result_with_dropped_events_fails() {
    let dir = scratch("dropped");
    let ok = write(&dir, "ok.json", r#"{"rows":[{"dropped_events":0}]}"#);
    let (code, text) = run(&[&ok]);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("1 drop counter(s), all zero"), "{text}");

    let bad = write(&dir, "bad.json", r#"{"rows":[{"dropped_events":3}]}"#);
    let (code, text) = run(&["--all", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{text}");
    assert!(text.contains(&format!("{bad}: FAILED")), "{text}");
    assert!(text.contains("truncated"), "{text}");
}

#[test]
fn usage_errors_exit_2() {
    for args in [&[][..], &["--bogus"], &["--top"], &["--top", "x", "f.json"]] {
        let (code, text) = run(args);
        assert_eq!(code, 2, "{args:?}: {text}");
    }
}
