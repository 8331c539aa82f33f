//! # wtf-bench — figure regeneration
//!
//! One binary per figure of the paper's evaluation (§5):
//!
//! | binary | paper figure | what it prints |
//! |---|---|---|
//! | `fig3_stragglers` | Fig. 3 | per-future completion timeline, SO vs WO |
//! | `fig6_left` | Fig. 6 (left) | read-only speedup vs 2 NT threads, by tx length × iter |
//! | `fig6_right` | Fig. 6 (right) | contended speedup vs 48 top-levels, by split × length |
//! | `fig7` | Fig. 7a/7b | speedup vs sequential + abort rates, by contention × threads |
//! | `fig8` | Fig. 8 | Bank speedups + internal abort rates, by update% × threads |
//! | `fig9` | Fig. 9 | Vacation speedups + top-level abort rates |
//!
//! All binaries run under the deterministic virtual clock, so their output
//! is bit-reproducible. Parameters are scaled down from the paper's
//! 56-core testbed sizes; the mapping is recorded in `EXPERIMENTS.md`.
//! Real-time per-operation costs are measured by `benchmark/`'s per-layer
//! ledger, not here.

use std::fmt::Display;
use std::path::PathBuf;
use wtf_core::{with_backend, BackendKind};
use wtf_trace::Json;
use wtf_workloads::RunResult;

/// Prints a table header: `# <title>` followed by tab-separated columns.
pub fn table_header(title: &str, columns: &[&str]) {
    println!("# {title}");
    println!("{}", columns.join("\t"));
}

/// Prints one tab-separated row.
pub fn table_row(cells: &[&dyn Display]) {
    let rendered: Vec<String> = cells.iter().map(|c| format!("{c}")).collect();
    println!("{}", rendered.join("\t"));
}

/// Formats a speedup/rate to 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// The thread counts the paper sweeps in Figs. 7–9.
pub const PAPER_THREADS: [usize; 5] = [4, 8, 14, 28, 56];

/// Where the figure binaries write their JSON artifacts: `WTF_RESULTS_DIR`
/// if set (CI points this at a scratch directory), else `results/` under
/// the current directory (the workspace root when run via `cargo run`).
pub fn results_dir() -> PathBuf {
    wtf_trace::knobs::env().results_dir()
}

/// True when the binary was invoked with `--check-json`: after writing the
/// report, re-read it and fail loudly unless it parses back to the same
/// document (CI's exporter-regression guard).
fn check_json_requested() -> bool {
    std::env::args().any(|a| a == "--check-json")
}

/// Writes `report` as `<results_dir>/<name>.json` and returns the path.
/// Rendering is deterministic (fixed key order, `u64`-preserving), so
/// under the virtual clock two runs produce byte-identical files. With
/// `--check-json` the file is read back and re-parsed; any mismatch
/// aborts the process with a nonzero exit.
pub fn emit_report(name: &str, report: &Json) -> PathBuf {
    let dir = results_dir();
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("create results dir {}: {e}", dir.display()));
    let path = dir.join(format!("{name}.json"));
    let text = report.to_string();
    std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("## wrote {}", path.display());
    if check_json_requested() {
        let read_back =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("re-read {name}.json: {e}"));
        match Json::parse(&read_back) {
            Ok(parsed) if parsed == *report => {
                println!("## --check-json: {name}.json OK ({} bytes)", text.len());
            }
            Ok(_) => {
                eprintln!("--check-json: {name}.json parsed but did not round-trip");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("--check-json: {name}.json failed to parse: {e}");
                std::process::exit(1);
            }
        }
    }
    path
}

/// A figure report under construction: named rows of parameters plus the
/// full [`RunResult`](wtf_workloads::RunResult) dumps for each system.
pub struct FigReport {
    figure: &'static str,
    rows: Vec<Json>,
}

impl FigReport {
    /// The shared preamble of every figure binary: scaling note, table
    /// header, empty report. Keeps the six `fig*` mains down to their
    /// actual parameter sweeps.
    pub fn begin(
        figure: &'static str,
        note: &str,
        table_title: &str,
        columns: &[&str],
    ) -> FigReport {
        println!("## {note} — regenerated under the deterministic virtual clock");
        println!("## (paper-scale parameters reduced; see EXPERIMENTS.md for the mapping)");
        table_header(table_title, columns);
        FigReport {
            figure,
            rows: Vec::new(),
        }
    }

    /// Adds one row (an insertion-ordered object from `(key, value)` pairs).
    pub fn row(&mut self, fields: Vec<(&str, Json)>) {
        self.rows.push(Json::obj(fields));
    }

    /// The shared emission shape of Figs. 6–8: parameter columns, one
    /// `{name}_speedup` per system (each vs `baseline`), then the full
    /// [`RunResult`] dumps — baseline first, systems in order. Key order
    /// is part of the baseline format, so keep params/systems ordered.
    pub fn comparison_row(
        &mut self,
        params: Vec<(&str, Json)>,
        baseline: (&str, &RunResult),
        systems: &[(&str, &RunResult)],
    ) {
        let speedup_keys: Vec<String> = systems
            .iter()
            .map(|(name, _)| format!("{name}_speedup"))
            .collect();
        let mut fields = params;
        for (key, &(_, r)) in speedup_keys.iter().zip(systems) {
            fields.push((key.as_str(), Json::F64(r.speedup_vs(baseline.1))));
        }
        fields.push((baseline.0, baseline.1.to_json()));
        for &(name, r) in systems {
            fields.push((name, r.to_json()));
        }
        self.row(fields);
    }

    /// Fig. 9-style row: one system, its parameters, a precomputed
    /// speedup, and the full result dump.
    pub fn system_row(
        &mut self,
        system: &str,
        params: Vec<(&str, Json)>,
        speedup: f64,
        result: &RunResult,
    ) {
        let mut fields = vec![("system", Json::from(system))];
        fields.extend(params);
        fields.push(("speedup", Json::F64(speedup)));
        fields.push(("result", result.to_json()));
        self.row(fields);
    }

    /// The comparative-substrate section every figure binary appends:
    /// one representative configuration of the figure re-run on every
    /// [`BackendKind`] (via [`with_backend`], so the whole TM stack under
    /// `run` lands on that substrate), emitted as [`FigReport::system_row`]s
    /// labelled by backend name with speedups relative to the first
    /// backend (mvstm). This puts an mvstm/tl2 comparison into every
    /// `results/*.json` regardless of how `WTF_BACKEND` was set for the
    /// main sweep.
    pub fn backend_comparison(&mut self, params: &[(&str, Json)], run: impl Fn() -> RunResult) {
        println!();
        table_header(
            "backend comparison (one representative configuration per substrate)",
            &[
                "backend",
                "makespan",
                "speedup_vs_mvstm",
                "top_abort_rate",
                "internal_abort_rate",
            ],
        );
        let mut base: Option<RunResult> = None;
        for kind in BackendKind::ALL {
            let r = with_backend(kind, &run);
            let speedup = match &base {
                None => 1.0,
                Some(b) => r.speedup_vs(b),
            };
            table_row(&[
                &kind.name(),
                &r.makespan,
                &f3(speedup),
                &f3(r.top_abort_rate()),
                &f3(r.internal_abort_rate()),
            ]);
            self.system_row(kind.name(), params.to_vec(), speedup, &r);
            if base.is_none() {
                base = Some(r);
            }
        }
    }

    /// The assembled report document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("figure", self.figure.into()),
            ("clock", "virtual".into()),
            ("rows", Json::Arr(self.rows.clone())),
        ])
    }

    /// Writes the report into the results directory as `<figure>.json`.
    pub fn emit(&self) -> PathBuf {
        emit_report(self.figure, &self.to_json())
    }
}
