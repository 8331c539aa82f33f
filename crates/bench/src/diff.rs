//! Baseline comparison for `results/*.json` — the perf-regression gate.
//!
//! The figure binaries are deterministic under the virtual clock, so a
//! *behavioural* change shows up as a numeric drift between a freshly
//! generated report and the checked-in baseline. [`compare_reports`]
//! walks the two JSON documents in lockstep and flags every gated
//! metric whose drift exceeds its tolerance — in **either** direction:
//! an unexplained improvement means the baseline is stale and must be
//! regenerated, which is exactly what a gate should force.
//!
//! What is gated (see [`tolerance_for`]):
//!
//! | key | tolerance |
//! |---|---|
//! | `completed` | exact |
//! | `makespan`, `throughput` | ±10% relative |
//! | `*speedup` | ±15% relative |
//! | `*abort_rate` | ±0.05 absolute |
//!
//! Everything else — run parameters, raw `tm`/`stm` counters — is
//! compared *structurally* (same shape, same parameter values) but not
//! gated numerically; `trace` and `profile` subtrees are skipped
//! entirely (tracing volume and observability schema are allowed
//! to evolve without invalidating perf baselines).
//!
//! [`check_backend_rows`] is the companion structural gate for the
//! comparative-substrate section every figure report ends with: the
//! trailing rows must cover every expected backend, in order, each with
//! a numeric speedup and a result dump that really ran on that backend.

use std::path::Path;
use wtf_trace::Json;

/// How much drift a gated metric tolerates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Any change fails (deterministic integer outputs).
    Exact,
    /// `|fresh - baseline| > t` fails.
    Absolute(f64),
    /// `|fresh - baseline| > t * |baseline|` fails (with an absolute
    /// fallback of `t` when the baseline is ~0).
    Relative(f64),
}

impl Tolerance {
    fn exceeded(self, baseline: f64, fresh: f64) -> bool {
        let d = (fresh - baseline).abs();
        match self {
            Tolerance::Exact => d != 0.0,
            Tolerance::Absolute(t) => d > t,
            Tolerance::Relative(t) => {
                if baseline.abs() < 1e-9 {
                    d > t
                } else {
                    d / baseline.abs() > t
                }
            }
        }
    }
}

impl std::fmt::Display for Tolerance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tolerance::Exact => write!(f, "exact"),
            Tolerance::Absolute(t) => write!(f, "±{t} abs"),
            Tolerance::Relative(t) => write!(f, "±{:.0}% rel", t * 100.0),
        }
    }
}

/// The gating policy, by JSON key.
pub fn tolerance_for(key: &str) -> Option<Tolerance> {
    if key == "completed" {
        Some(Tolerance::Exact)
    } else if key == "makespan" || key == "throughput" {
        Some(Tolerance::Relative(0.10))
    } else if key.ends_with("speedup") {
        Some(Tolerance::Relative(0.15))
    } else if key.ends_with("abort_rate") {
        Some(Tolerance::Absolute(0.05))
    } else {
        None
    }
}

/// One gated metric that drifted beyond its tolerance.
#[derive(Debug, Clone)]
pub struct Regression {
    /// JSON path of the metric, e.g. `rows[3].wtf.makespan`.
    pub path: String,
    pub baseline: f64,
    pub fresh: f64,
    pub tolerance: Tolerance,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let dir = if self.fresh > self.baseline {
            "up"
        } else {
            "down"
        };
        write!(
            f,
            "{}: {} -> {} ({dir}, tolerance {})",
            self.path, self.baseline, self.fresh, self.tolerance
        )
    }
}

/// Outcome of diffing one figure report against its baseline.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Gated metrics compared.
    pub compared: usize,
    pub regressions: Vec<Regression>,
    /// Shape or parameter mismatches (row counts, renamed keys, changed
    /// sweep parameters) — always failures: the reports aren't comparable.
    pub structural: Vec<String>,
}

impl DiffReport {
    pub fn ok(&self) -> bool {
        self.regressions.is_empty() && self.structural.is_empty()
    }
}

/// Diffs `fresh` against `baseline` (parsed figure reports).
pub fn compare_reports(baseline: &Json, fresh: &Json) -> DiffReport {
    let mut out = DiffReport::default();
    walk("", "", baseline, fresh, &mut out);
    out
}

fn walk(path: &str, key: &str, base: &Json, fresh: &Json, out: &mut DiffReport) {
    if key == "trace" || key == "profile" {
        return;
    }
    match (base, fresh) {
        (Json::Obj(b), Json::Obj(_)) => {
            for (k, bv) in b {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match fresh.get(k) {
                    Some(fv) => walk(&sub, k, bv, fv, out),
                    None => out.structural.push(format!("{sub}: missing in fresh")),
                }
            }
            if let Json::Obj(f) = fresh {
                for (k, _) in f {
                    if base.get(k).is_none() {
                        out.structural.push(format!(
                            "{}{k}: new key not in baseline",
                            if path.is_empty() {
                                String::new()
                            } else {
                                format!("{path}.")
                            }
                        ));
                    }
                }
            }
        }
        (Json::Arr(b), Json::Arr(f)) => {
            if b.len() != f.len() {
                out.structural.push(format!(
                    "{path}: length {} in baseline vs {} in fresh",
                    b.len(),
                    f.len()
                ));
                return;
            }
            for (i, (bv, fv)) in b.iter().zip(f).enumerate() {
                walk(&format!("{path}[{i}]"), key, bv, fv, out);
            }
        }
        _ => match (base.as_f64(), fresh.as_f64()) {
            (Some(b), Some(f)) => {
                if let Some(tol) = tolerance_for(key) {
                    out.compared += 1;
                    if tol.exceeded(b, f) {
                        out.regressions.push(Regression {
                            path: path.to_string(),
                            baseline: b,
                            fresh: f,
                            tolerance: tol,
                        });
                    }
                }
            }
            // Non-numeric leaves are run parameters/labels: any change
            // means the sweeps aren't comparable.
            _ => {
                if base != fresh {
                    out.structural
                        .push(format!("{path}: parameter changed ({base} -> {fresh})"));
                }
            }
        },
    }
}

/// Structurally validates the trailing comparative-substrate rows of a
/// figure report: the last `backends.len()` rows of `rows` must be
/// `system_row`s labelled with each expected backend in order, carry a
/// numeric `speedup`, and embed a `result` whose own `backend` field
/// matches the row label (i.e. the run really executed on that
/// substrate). Returns the list of problems; empty means the section is
/// well-formed.
pub fn check_backend_rows(report: &Json, backends: &[&str]) -> Vec<String> {
    let mut problems = Vec::new();
    let Some(Json::Arr(rows)) = report.get("rows") else {
        return vec!["report has no rows array".to_string()];
    };
    if rows.len() < backends.len() {
        return vec![format!(
            "only {} rows, need at least one trailing row per backend ({})",
            rows.len(),
            backends.join(",")
        )];
    }
    let tail = &rows[rows.len() - backends.len()..];
    for (i, (row, &want)) in tail.iter().zip(backends).enumerate() {
        let at = rows.len() - backends.len() + i;
        let system = row.get("system").and_then(|s| s.as_str());
        if system != Some(want) {
            problems.push(format!(
                "rows[{at}]: expected backend row for {want:?}, found system {system:?}"
            ));
            continue;
        }
        if row.get("speedup").and_then(|s| s.as_f64()).is_none() {
            problems.push(format!(
                "rows[{at}] ({want}): speedup missing or non-numeric"
            ));
        }
        match row.get("result").and_then(|r| r.get("backend")) {
            Some(b) if b.as_str() == Some(want) => {}
            other => problems.push(format!(
                "rows[{at}] ({want}): result.backend is {other:?}, not {want:?}"
            )),
        }
    }
    problems
}

/// Reads and diffs two report files.
pub fn diff_files(baseline: &Path, fresh: &Path) -> Result<DiffReport, String> {
    let read = |p: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("read {}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("parse {}: {e}", p.display()))
    };
    Ok(compare_reports(&read(baseline)?, &read(fresh)?))
}

/// Figure names (file stems) with baselines in `dir`: every `*.json`
/// except the `fig3_trace_*` Perfetto exports, which are event logs, not
/// perf reports.
pub fn discover_figures(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
            continue;
        };
        if stem.starts_with("fig3_trace_") {
            continue;
        }
        out.push(stem.to_string());
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(speedup: f64, makespan: u64, completed: u64, abort: f64) -> Json {
        Json::obj(vec![
            ("figure", "figX".into()),
            ("clock", "virtual".into()),
            (
                "rows",
                Json::Arr(vec![Json::obj(vec![
                    ("threads", 4u64.into()),
                    ("wtf_speedup", Json::F64(speedup)),
                    (
                        "wtf",
                        Json::obj(vec![
                            ("makespan", makespan.into()),
                            ("completed", completed.into()),
                            ("top_abort_rate", Json::F64(abort)),
                            ("trace", Json::obj(vec![("events_recorded", 0u64.into())])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let b = report(2.0, 1000, 96, 0.1);
        let d = compare_reports(&b, &b.clone());
        assert!(d.ok(), "{:?}", d);
        // speedup + makespan + completed + abort_rate all gated.
        assert_eq!(d.compared, 4);
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let d = compare_reports(&report(2.0, 1000, 96, 0.10), &report(2.2, 1050, 96, 0.13));
        assert!(d.ok(), "{:?}", d.regressions);
    }

    #[test]
    fn speedup_regression_flagged() {
        let d = compare_reports(&report(2.0, 1000, 96, 0.1), &report(1.5, 1000, 96, 0.1));
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].path.contains("wtf_speedup"));
    }

    #[test]
    fn improvement_beyond_tolerance_also_flagged() {
        let d = compare_reports(&report(2.0, 1000, 96, 0.1), &report(3.0, 1000, 96, 0.1));
        assert_eq!(d.regressions.len(), 1, "stale baseline must fail the gate");
    }

    #[test]
    fn completed_is_exact() {
        let d = compare_reports(&report(2.0, 1000, 96, 0.1), &report(2.0, 1000, 95, 0.1));
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].path.contains("completed"));
        assert_eq!(d.regressions[0].tolerance, Tolerance::Exact);
    }

    #[test]
    fn trace_subtree_ignored() {
        let mut fresh = report(2.0, 1000, 96, 0.1);
        // Rewrite the nested trace object to something wildly different.
        if let Json::Obj(top) = &mut fresh {
            if let Json::Arr(rows) = &mut top[2].1 {
                if let Json::Obj(row) = &mut rows[0] {
                    if let Json::Obj(wtf) = &mut row[2].1 {
                        wtf[3].1 = Json::obj(vec![("events_recorded", 999_999u64.into())]);
                    }
                }
            }
        }
        let d = compare_reports(&report(2.0, 1000, 96, 0.1), &fresh);
        assert!(d.ok(), "{:?}", d);
    }

    #[test]
    fn profile_subtree_ignored() {
        let with_profile = |makespan: u64, profile: Json| {
            Json::obj(vec![
                ("figure", "figX".into()),
                (
                    "rows",
                    Json::Arr(vec![Json::obj(vec![
                        ("makespan", makespan.into()),
                        ("profile", profile),
                    ])]),
                ),
            ])
        };
        // A baseline generated without WTF_PROFILE (null) against a fresh
        // run with a full report block — and vice versa — never trips the
        // perf gate, exactly like `trace`.
        let block = Json::obj(vec![
            ("schema", "wtf-profile/v1".into()),
            ("makespan", 999u64.into()),
        ]);
        let d = compare_reports(&with_profile(1000, Json::Null), &with_profile(1000, block));
        assert!(d.ok(), "{:?}", d);
    }

    fn backend_report(tail: Vec<(&str, &str, bool)>) -> Json {
        // (system label, result.backend, has speedup)
        let mut rows = vec![Json::obj(vec![
            ("threads", 4u64.into()),
            ("wtf_speedup", Json::F64(2.0)),
        ])];
        for (system, inner, with_speedup) in tail {
            let mut fields = vec![("system", Json::from(system))];
            if with_speedup {
                fields.push(("speedup", Json::F64(1.0)));
            }
            fields.push(("result", Json::obj(vec![("backend", inner.into())])));
            rows.push(Json::obj(fields));
        }
        Json::obj(vec![("figure", "figX".into()), ("rows", Json::Arr(rows))])
    }

    #[test]
    fn backend_rows_well_formed_pass() {
        let r = backend_report(vec![("mvstm", "mvstm", true), ("tl2", "tl2", true)]);
        assert!(check_backend_rows(&r, &["mvstm", "tl2"]).is_empty());
    }

    #[test]
    fn backend_rows_missing_backend_flagged() {
        let r = backend_report(vec![("mvstm", "mvstm", true)]);
        let problems = check_backend_rows(&r, &["mvstm", "tl2"]);
        assert_eq!(problems.len(), 2, "{problems:?}"); // both tail rows wrong
    }

    #[test]
    fn backend_rows_mislabelled_result_flagged() {
        // The row claims tl2 but the embedded run executed on mvstm.
        let r = backend_report(vec![("mvstm", "mvstm", true), ("tl2", "mvstm", true)]);
        let problems = check_backend_rows(&r, &["mvstm", "tl2"]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("result.backend"));
    }

    #[test]
    fn backend_rows_missing_speedup_flagged() {
        let r = backend_report(vec![("mvstm", "mvstm", false), ("tl2", "tl2", true)]);
        let problems = check_backend_rows(&r, &["mvstm", "tl2"]);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("speedup"));
    }

    #[test]
    fn row_count_mismatch_is_structural() {
        let b = report(2.0, 1000, 96, 0.1);
        let mut fresh = b.clone();
        if let Json::Obj(top) = &mut fresh {
            if let Json::Arr(rows) = &mut top[2].1 {
                let extra = rows[0].clone();
                rows.push(extra);
            }
        }
        let d = compare_reports(&b, &fresh);
        assert!(!d.ok());
        assert_eq!(d.structural.len(), 1);
    }

    #[test]
    fn changed_string_parameter_is_structural() {
        let b = report(2.0, 1000, 96, 0.1);
        let mut fresh = b.clone();
        if let Json::Obj(top) = &mut fresh {
            top[1].1 = Json::from("real"); // clock: virtual -> real
        }
        let d = compare_reports(&b, &fresh);
        assert!(!d.ok());
        assert!(d.structural[0].contains("clock"));
    }

    #[test]
    fn discover_skips_trace_exports() {
        let dir = std::env::temp_dir().join(format!("wtf_diff_discover_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("fig7.json"), "{}").unwrap();
        std::fs::write(dir.join("fig3_trace_so.json"), "{}").unwrap();
        std::fs::write(dir.join("notes.txt"), "x").unwrap();
        assert_eq!(discover_figures(&dir), vec!["fig7".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
