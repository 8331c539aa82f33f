//! `wtf-report` — verify and profile exported traces, and check the drop
//! counters of benchmark results.
//!
//! ```text
//! wtf-report [--top N] [--folded DIR] [--makespan N] FILE... | --all DIR
//! ```
//!
//! Two input shapes are understood:
//!
//! * a Chrome trace JSON *array* (as exported by `Tracer::chrome_trace_json`
//!   or `fig3_stragglers`): the serializability checker and the
//!   critical-path profiler both run on it, and the path must partition
//!   the makespan. The tool prints `FILE: <checker summary>`, then the
//!   `wtf-profile/v1` JSON block on the next line. A trace that records
//!   dropped events fails;
//! * a benchmark result *object* (the figure binaries' `results/*.json`):
//!   every `dropped_events` / `events_dropped` counter anywhere in the
//!   document must be zero — a truncated trace invalidates whatever was
//!   concluded from it.
//!
//! Flags: `--all DIR` adds every `*.json` in DIR; `--top N` sets the
//! number of path segments and culprits in a profile (default 10);
//! `--folded DIR` also writes flamegraph folded stacks to
//! `DIR/<stem>.folded`; `--makespan N` extends every profile's horizon to
//! N clock units (the tail past the last event is idle).
//!
//! Exit status: `0` every file passed; `1` a file failed; `2` usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wtf_report::Trace;
use wtf_trace::Json;

const USAGE: &str = "usage: wtf-report [--top N] [--folded DIR] [--makespan N] FILE... | --all DIR";

struct Options {
    top: usize,
    folded: Option<PathBuf>,
    makespan: Option<u64>,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        top: 10,
        folded: None,
        makespan: None,
        files: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        let number = |v: String| -> Result<u64, String> {
            v.parse().map_err(|_| format!("bad {arg} value: {v}"))
        };
        match arg.as_str() {
            "--all" => {
                let dir = PathBuf::from(value()?);
                let found = list_json(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                opts.files.extend(found);
            }
            "--top" => opts.top = number(value()?)? as usize,
            "--makespan" => opts.makespan = Some(number(value()?)?),
            "--folded" => opts.folded = Some(value()?.into()),
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            file => opts.files.push(file.into()),
        }
    }
    if opts.files.is_empty() {
        return Err(format!("no input files (try --all results/)\n{USAGE}"));
    }
    Ok(opts)
}

fn list_json(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    out.sort();
    Ok(out)
}

fn report_file(opts: &Options, path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let json = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    match &json {
        Json::Arr(_) => {
            let trace = Trace {
                makespan: opts.makespan,
                ..Trace::from_chrome_json(&json).map_err(|e| e.0)?
            };
            let (check, profile) = trace.analyze().map_err(|e| e.0)?;
            println!("{}: {}", path.display(), check.summary());
            println!("{}", profile.report(opts.top));
            if let Some(dir) = &opts.folded {
                let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("trace");
                let out = dir.join(format!("{stem}.folded"));
                std::fs::create_dir_all(dir)
                    .and_then(|()| std::fs::write(&out, profile.folded_stacks()))
                    .map_err(|e| format!("{}: {e}", out.display()))?;
                eprintln!("wtf-report: wrote {}", out.display());
            }
        }
        Json::Obj(_) => {
            let mut counters = 0usize;
            check_no_drops(&json, &mut counters)?;
            println!(
                "{}: summary only (no event stream): {counters} drop counter(s), all zero",
                path.display()
            );
        }
        _ => return Err("neither a Chrome trace array nor a result object".to_string()),
    }
    Ok(())
}

/// Walks a result document for drop counters; any non-zero one is fatal.
fn check_no_drops(json: &Json, counters: &mut usize) -> Result<(), String> {
    match json {
        Json::Obj(fields) => {
            for (k, v) in fields {
                if k == "dropped_events" || k == "events_dropped" {
                    *counters += 1;
                    if v.as_u64() != Some(0) {
                        return Err(format!(
                            "`{k}` is {v} — the trace behind this result was truncated"
                        ));
                    }
                } else {
                    check_no_drops(v, counters)?;
                }
            }
            Ok(())
        }
        Json::Arr(items) => items.iter().try_for_each(|i| check_no_drops(i, counters)),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("wtf-report: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for file in &opts.files {
        if let Err(e) = report_file(&opts, file) {
            failed = true;
            eprintln!("{}: FAILED: {e}", file.display());
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    println!("wtf-report: {} file(s) ok", opts.files.len());
    ExitCode::SUCCESS
}
