//! `wtf-benchmark`: real-thread end-to-end numbers and a per-layer ledger
//! for wtf-tm. See `benchmark/README.md`.
//!
//! ```text
//! run     [--seed N] [--workload W] [--out FILE] [--smoke]
//!         [--seconds S --trace 0|1]     one workload, S measured seconds,
//!                                       one JSON object as the last line
//! compare A.json B.json                 ok / regressed / unresolved rows
//! ```

mod floor;
mod hist;
mod inputs;
mod ledger;
mod report;
mod spans;
mod workloads;

use report::{Verdict, END_TO_END, FAILED_FRAC};
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use transactional_futures::trace::{Json, TraceLevel};
use workloads::{PassOut, PassPlan, Spec};

const SCHEMA: &str = "wtf-benchmark/1";
const OUT_DIR: &str = "benchmark/out";
/// Ledger rows, counting each window of a real workload by its length in
/// rows: what `--seconds` is divided by.
const LEDGER_ROW_UNITS: f64 = 45.0;

/// How long each part of a run measures.
struct Plan {
    /// Set-ups are repeated for this long (at least once): on a shared
    /// machine a hundred of them fit inside one slow or fast episode.
    setups: Duration,
    warmup: Duration,
    /// Measured time of the untraced pass, cut into windows.
    measure: Duration,
    traced: Duration,
    ledger_row: Duration,
}

impl Plan {
    const FULL: Plan = Plan {
        setups: Duration::from_millis(500),
        warmup: Duration::from_secs(1),
        measure: Duration::from_secs(20),
        traced: Duration::from_secs(3),
        ledger_row: Duration::from_millis(500),
    };
    const SMOKE: Plan = Plan {
        setups: Duration::from_millis(20),
        warmup: Duration::from_millis(100),
        measure: Duration::from_secs(1),
        traced: Duration::from_millis(200),
        ledger_row: Duration::from_millis(20),
    };

    /// `seconds` of end-to-end windows and nothing else.
    fn end_to_end(seconds: f64) -> Plan {
        Plan {
            measure: Duration::from_secs_f64(seconds),
            traced: Duration::ZERO,
            ledger_row: Duration::ZERO,
            ..Plan::FULL
        }
    }

    /// `seconds` of per-layer measurement: a fifth on untraced reference
    /// windows, a fifth on the traced pass, the rest on the ledger.
    fn layers(seconds: f64) -> Plan {
        Plan {
            setups: Duration::ZERO,
            measure: Duration::from_secs_f64(seconds / 5.0),
            traced: Duration::from_secs_f64(seconds / 5.0),
            ledger_row: Duration::from_secs_f64(seconds * 0.6 / LEDGER_ROW_UNITS),
            ..Plan::FULL
        }
    }
}

type Args = HashMap<String, String>;

/// `--key value` pairs and bare `--flag`s (stored as "1").
fn parse_args(args: &[String]) -> Result<(Vec<String>, Args), String> {
    let (mut positional, mut named) = (Vec::new(), Args::new());
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some(key) => {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                    _ => "1".to_string(),
                };
                if named.insert(key.to_string(), value).is_some() {
                    return Err(format!("--{key} given twice"));
                }
            }
            None => positional.push(a.clone()),
        }
    }
    Ok((positional, named))
}

fn number<T: std::str::FromStr>(args: &Args, key: &str) -> Result<Option<T>, String> {
    args.get(key)
        .map(|v| v.parse().map_err(|_| format!("--{key} {v}: not a number")))
        .transpose()
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The child: measures one workload in a process of its own, so its peak
/// RSS and its TM's statics are its own. Prints one JSON object.
fn worker(args: &Args) -> Result<(), String> {
    let name = args.get("workload").ok_or("worker needs --workload")?;
    let spec = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let ms = |key: &str| -> Result<Duration, String> {
        let ms = number(args, key)?.ok_or_else(|| format!("worker needs --{key}"))?;
        Ok(Duration::from_millis(ms))
    };
    let plan = Plan {
        setups: ms("setups-ms")?,
        warmup: ms("warmup-ms")?,
        measure: ms("measure-ms")?,
        traced: ms("traced-ms")?,
        ledger_row: Duration::ZERO,
    };
    let (result, trace) = measure(spec, number(args, "seed")?.unwrap_or(1), &plan);
    if let Some(trace) = trace {
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = format!("{OUT_DIR}/trace-{}.json", spec.name);
        std::fs::write(&path, trace.to_string()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{result}");
    Ok(())
}

/// Set-ups, the untraced pass, then the traced pass if the plan has one.
/// Returns the workload's result and the traced pass's spans.
fn measure(spec: &Spec, seed: u64, plan: &Plan) -> (Json, Option<Json>) {
    let (setups_for, traced_for) = (plan.setups, plan.traced);
    let plan = PassPlan {
        warmup: plan.warmup,
        measure: plan.measure,
        traced: false,
        broken: false,
    };

    let mut setup_s = Vec::new();
    let mut world: Option<workloads::World> = None;
    let setups_started = Instant::now();
    while world.is_none() || setups_started.elapsed() < setups_for {
        if let Some(w) = world.take() {
            w.tm.shutdown();
        }
        let t = Instant::now();
        world = Some(workloads::setup(spec, TraceLevel::Off));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let out = workloads::run_pass(world.expect("at least one set-up"), spec, seed, &plan);
    let peak_rss = peak_rss_mb();
    let (mut attempted, mut failed) = out.tally();
    let mut drift = out.final_drift.unsigned_abs();

    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut trace = None;
    if !traced_for.is_zero() {
        let traced_plan = PassPlan {
            measure: traced_for,
            traced: true,
            ..plan
        };
        let traced = workloads::run_pass(
            workloads::setup(spec, TraceLevel::Off),
            spec,
            seed,
            &traced_plan,
        );
        let (a, f) = traced.tally();
        attempted += a;
        failed += f;
        drift += traced.final_drift.unsigned_abs();
        traced_layer_metrics(&out, &traced, &mut layer);
        trace = Some(spans::to_json(spec.name, &traced.spans));
    }
    let per_window =
        |f: &dyn Fn(&workloads::Window) -> f64| -> Vec<f64> { out.windows.iter().map(f).collect() };
    counter_metrics(&out, &mut layer);
    let failed_frac = failed as f64 / attempted as f64;
    layer.insert(FAILED_FRAC, failed_frac);
    layer.insert("process.peak_rss_mb", peak_rss);
    for (name, q) in [("txn_p90_us", 0.9), ("txn_p99_us", 0.99)] {
        layer.insert(name, out.median_over(|w| w.hist.quantile(q) / 1e3));
    }
    for (mix, metric) in [
        (inputs::Mix::Short, "short.final_sum_drift"),
        (inputs::Mix::Bank, "bank.final_total_drift"),
        (inputs::Mix::ZipfHot, "zipf.final_sum_drift"),
    ] {
        layer.insert(metric, if spec.mix == mix { drift as f64 } else { 0.0 });
    }

    let samples = |metric: &str| -> Vec<f64> {
        match metric {
            "txn_per_s" => per_window(&|w| w.txn_per_s()),
            "txn_p50_us" => per_window(&|w| w.hist.quantile(0.5) / 1e3),
            "setup_s" => setup_s.clone(),
            "rss_mb" => per_window(&|w| w.rss_mb),
            FAILED_FRAC => vec![failed_frac],
            other => unreachable!("no samples for end-to-end metric {other}"),
        }
    };
    let end_to_end = Json::Obj(
        END_TO_END
            .iter()
            .map(|def| {
                (
                    def.name.to_string(),
                    report::end_to_end_json(def, &samples(def.name)),
                )
            })
            .collect(),
    );
    let latency_samples: u64 = out.windows.iter().map(|w| w.hist.count()).sum();
    let result = Json::obj(vec![
        ("workload", spec.name.into()),
        ("why", spec.why.into()),
        ("clients", spec.clients.into()),
        ("seed", seed.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("panicked_clients", out.panicked.into()),
        ("latency_samples", latency_samples.into()),
        ("end_to_end", end_to_end),
        ("per_layer", report::per_layer_json(&layer)),
    ]);
    (result, trace)
}

fn traced_layer_metrics(
    untraced: &PassOut,
    traced: &PassOut,
    layer: &mut BTreeMap<&'static str, f64>,
) {
    let s = spans::summarize(&traced.spans);
    let tps = |pass: &PassOut| pass.median_over(|w| w.txn_per_s());
    for (name, v) in [
        ("core.atomic_self_ns", s.atomic_self_ns),
        ("core.body_ns", s.body_ns),
        ("core.read_ns", s.read_ns),
        ("core.write_ns", s.write_ns),
        ("core.submit_ns", s.submit_ns),
        ("core.evaluate_ns", s.evaluate_ns),
        ("core.future_body_ns", s.future_body_ns),
        ("taskpool.submit_to_start_ns", s.submit_to_start_ns),
        ("core.attempts_per_commit", s.attempts_per_commit),
        ("trace_overhead_frac", 1.0 - tps(traced) / tps(untraced)),
    ] {
        layer.insert(name, v);
    }
}

fn counter_metrics(out: &PassOut, layer: &mut BTreeMap<&'static str, f64>) {
    let (tm, stm) = (&out.counters.tm, &out.counters.stm);
    for (name, v) in [
        ("core.top_commits", tm.top_commits as f64),
        ("core.top_aborts", tm.top_aborts as f64),
        (
            "core.top_internal_restarts",
            tm.top_internal_restarts as f64,
        ),
        ("core.internal_aborts", tm.internal_aborts as f64),
        ("core.futures_submitted", tm.futures_submitted as f64),
        ("core.top_abort_ratio", tm.top_abort_rate()),
        ("core.internal_abort_ratio", tm.internal_abort_rate()),
        ("backend.commits", stm.commits as f64),
        ("backend.read_only_commits", stm.read_only_commits as f64),
        ("backend.aborts", stm.aborts as f64),
        ("backend.versions_pruned", stm.versions_pruned as f64),
        ("backend.publish_waits", stm.publish_waits as f64),
        ("cm.waits", out.counters.cm_waits as f64),
        ("cm.total_wait", out.counters.cm_total_wait as f64),
    ] {
        layer.insert(name, v);
    }
}

/// Runs `spec` in a child process and parses what it printed.
fn run_child(spec: &Spec, seed: u64, plan: &Plan) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("worker")
        .args(["--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--setups-ms", &plan.setups.as_millis().to_string()])
        .args(["--warmup-ms", &plan.warmup.as_millis().to_string()])
        .args(["--measure-ms", &plan.measure.as_millis().to_string()])
        .args(["--traced-ms", &plan.traced.as_millis().to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {} worker: {e}", spec.name))?;
    if !out.status.success() {
        return Err(format!(
            "the {} worker exited with {}",
            spec.name, out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("the worker printed nothing")?;
    Json::parse(line).map_err(|e| format!("{} worker output: {e}", spec.name))
}

fn u64_of(j: &Json, key: &str) -> u64 {
    j.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// `{name: {"value", "unit"}}` entries of `metrics` that `keep` accepts.
fn value_unit_pairs(metrics: &Json, keep: impl Fn(&str) -> bool, into: &mut Vec<(String, Json)>) {
    let Json::Obj(pairs) = metrics else { return };
    for (name, m) in pairs.iter().filter(|(n, _)| keep(n)) {
        let pick = |k: &str| m.get(k).cloned().unwrap_or(Json::Null);
        into.push((
            name.clone(),
            Json::obj(vec![("value", pick("value")), ("unit", pick("unit"))]),
        ));
    }
}

fn run(args: &Args) -> Result<(), String> {
    let seed: u64 = number(args, "seed")?.unwrap_or(1);
    let seconds: Option<f64> = number(args, "seconds")?;
    let trace: Option<u8> = number(args, "trace")?;
    let specs: Vec<&Spec> = match args.get("workload") {
        Some(name) => vec![workloads::find(name).ok_or_else(|| {
            let names: Vec<_> = workloads::ALL.iter().map(|s| s.name).collect();
            format!("unknown workload {name}; one of {}", names.join(", "))
        })?],
        None => workloads::ALL.iter().collect(),
    };
    let (plan, want_e2e, want_layers) = match (seconds, trace) {
        (Some(s), _) if !(1.0..=60.0).contains(&s) => {
            return Err(format!("--seconds {s}: 1 to 60"))
        }
        (Some(_), _) if specs.len() != 1 => return Err("--seconds needs --workload".into()),
        (Some(s), Some(0)) => (Plan::end_to_end(s), true, false),
        (Some(s), Some(1)) => (Plan::layers(s), false, true),
        (Some(_), _) => return Err("--seconds needs --trace 0 or --trace 1".into()),
        (None, Some(_)) => return Err("--trace needs --seconds".into()),
        (None, None) if args.contains_key("smoke") => (Plan::SMOKE, true, true),
        (None, None) => (Plan::FULL, true, true),
    };

    println!(
        "wtf-benchmark {SCHEMA}: seed {seed}, nproc {}, closed loop, real threads on Clock::real_nospin()",
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    println!(
        "  every WTF_* variable was removed from the environment of this process and of the \
         workers it starts; backend, contention manager (immediate) and tracer (off) are set \
         through FutureTm::builder()"
    );
    println!(
        "  per workload: {:?} of set-ups, {:?} warm-up, {:?} of measured windows, traced pass {:?}; ledger rows of {:?}",
        plan.setups, plan.warmup, plan.measure, plan.traced, plan.ledger_row
    );

    let mut results = Vec::new();
    for spec in &specs {
        let r = run_child(spec, seed, &plan)?;
        println!(
            "\n{} ({} client{}) — attempted {}, failed {}, {} latency samples",
            spec.name,
            spec.clients,
            if spec.clients == 1 { "" } else { "s" },
            u64_of(&r, "attempted"),
            u64_of(&r, "failed"),
            u64_of(&r, "latency_samples")
        );
        if want_e2e {
            report::print_metrics("end to end", r.get("end_to_end").unwrap_or(&Json::Null));
        }
        if want_layers {
            report::print_metrics("per layer", r.get("per_layer").unwrap_or(&Json::Null));
        }
        results.push(r);
    }
    let ledger = if want_layers {
        let rows = ledger::run(plan.ledger_row, seed);
        let ledger = report::per_layer_json(&rows);
        println!("\nisolated ledger (one thread, ns per call unless named otherwise)");
        report::print_metrics("per layer", &ledger);
        ledger
    } else {
        Json::Obj(Vec::new())
    };

    // Failed operations are reported as measured. On the unlisted
    // reproducer they are known; on a listed workload they make the run
    // incorrect.
    let known_failures: Vec<Json> = specs
        .iter()
        .zip(&results)
        .filter(|(_, r)| u64_of(r, "failed") > 0)
        .map(|(spec, r)| {
            Json::obj(vec![
                ("workload", spec.name.into()),
                ("known", (!spec.listed).into()),
                ("attempted", u64_of(r, "attempted").into()),
                ("failed", u64_of(r, "failed").into()),
                (
                    "reproducer",
                    format!(
                        "cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
                         run --workload {} --seed {seed}",
                        spec.name
                    )
                    .into(),
                ),
            ])
        })
        .collect();
    for f in &known_failures {
        println!("\nfailed operations: {f}");
    }
    let correct = specs
        .iter()
        .zip(&results)
        .all(|(spec, r)| !spec.listed || u64_of(r, "failed") == 0);

    if let Some(path) = args.get("out") {
        let doc = Json::obj(vec![
            ("schema", SCHEMA.into()),
            ("seed", seed.into()),
            (
                "nproc",
                std::thread::available_parallelism()
                    .map_or(0, usize::from)
                    .into(),
            ),
            ("measure_ms", (plan.measure.as_millis() as u64).into()),
            ("workloads", Json::arr(results.clone())),
            ("ledger", ledger.clone()),
            ("correct", correct.into()),
            ("known_failures", Json::arr(known_failures)),
        ]);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("\nreport written to {path}");
    }

    // One workload: the last line is the result object a driver reads.
    if let [r] = results.as_slice() {
        let mut metrics = Vec::new();
        if want_e2e {
            let e2e = r.get("end_to_end").unwrap_or(&Json::Null);
            // With both halves printed, failed_frac comes once, per layer.
            value_unit_pairs(e2e, |n| n != FAILED_FRAC, &mut metrics);
        }
        if want_layers {
            value_unit_pairs(
                r.get("per_layer").unwrap_or(&Json::Null),
                |_| true,
                &mut metrics,
            );
            value_unit_pairs(&ledger, |_| true, &mut metrics);
        }
        println!(
            "{}",
            Json::obj(vec![
                ("correct", (u64_of(r, "failed") == 0).into()),
                ("attempted", u64_of(r, "attempted").into()),
                ("failed", u64_of(r, "failed").into()),
                ("metrics", Json::Obj(metrics)),
            ])
        );
    }
    Ok(())
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare takes two report files".into());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (ja, jb) = (load(a)?, load(b)?);
    let rows = report::compare(&ja, &jb)?;
    println!("A = {a}\nB = {b}");
    for (workload, metric, verdict, detail) in &rows {
        let word = match verdict {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        };
        println!("{workload:<14} {metric:<12} {word:<10} {detail}");
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.2 == v).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(count(Verdict::Regressed) == 0)
}

fn main() -> ExitCode {
    // Before any thread exists: nothing a caller exported may choose a
    // backend, a policy or a trace level behind the benchmark's back.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("WTF_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|(positional, named)| {
        match positional.split_first().map(|(c, rest)| (c.as_str(), rest)) {
            Some(("run", [])) => run(&named).map(|()| true),
            Some(("worker", [])) => worker(&named).map(|()| true),
            Some(("compare", files)) => compare(files),
            _ => Err(
                "usage: run [--seed N] [--workload W] [--out FILE] [--smoke] \
                      [--seconds S --trace 0|1] | compare A.json B.json"
                    .into(),
            ),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `compare` found a regression; its rows say which.
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("wtf-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests;
