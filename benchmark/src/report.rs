//! Metric catalogue, the report file and `compare`.

use std::collections::BTreeMap;
use transactional_futures::trace::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, identical for every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    // Any increase is a regression. It is 0 on a healthy workload, and
    // BENCHMARK.json may not bound a metric that is 0, so there it is
    // listed per layer and the run's `failed` count carries it.
    EndToEnd {
        name: FAILED_FRAC,
        unit: "frac",
        better: Better::Lower,
        bound: 0.0,
    },
];

pub const FAILED_FRAC: &str = "failed_frac";
/// `setup_s` may also move by this much before `compare` calls it worse:
/// a quarter of a few hundred microseconds is scheduler noise.
const SETUP_SLACK_S: f64 = 0.010;

/// `(name, unit, better)` of every per-layer metric, in print order.
pub const PER_LAYER: &[(&str, &str, Better)] = {
    use Better::{Higher, Lower};
    &[
        // Traced pass: medians of the benchmark's own spans.
        ("core.atomic_self_ns", "ns", Lower),
        ("core.body_ns", "ns", Lower),
        ("core.read_ns", "ns", Lower),
        ("core.write_ns", "ns", Lower),
        ("core.submit_ns", "ns", Lower),
        ("core.evaluate_ns", "ns", Lower),
        ("core.future_body_ns", "ns", Lower),
        ("taskpool.submit_to_start_ns", "ns", Lower),
        ("core.attempts_per_commit", "ratio", Lower),
        ("trace_overhead_frac", "frac", Lower),
        // Counter deltas over the measured windows.
        ("core.top_commits", "count", Higher),
        ("core.top_aborts", "count", Lower),
        ("core.top_internal_restarts", "count", Lower),
        ("core.internal_aborts", "count", Lower),
        ("core.futures_submitted", "count", Higher),
        ("core.top_abort_ratio", "ratio", Lower),
        ("core.internal_abort_ratio", "ratio", Lower),
        ("backend.commits", "count", Higher),
        ("backend.read_only_commits", "count", Higher),
        ("backend.aborts", "count", Lower),
        ("backend.versions_pruned", "count", Higher),
        ("backend.publish_waits", "count", Lower),
        ("cm.waits", "count", Lower),
        ("cm.total_wait", "units", Lower),
        // Demoted from end to end: they do not repeat within a quarter
        // from run to run on the reference machine (README, "Bounds").
        ("txn_p90_us", "us", Lower),
        ("txn_p99_us", "us", Lower),
        ("process.peak_rss_mb", "MB", Lower),
        // Verdicts.
        (FAILED_FRAC, "frac", Lower),
        ("short.final_sum_drift", "count", Lower),
        ("bank.final_total_drift", "count", Lower),
        ("zipf.final_sum_drift", "count", Lower),
        // Isolated ledger: one thread, ns per call.
        ("mvstm.begin_ns", "ns", Lower),
        ("mvstm.read_ns", "ns", Lower),
        ("mvstm.read_cold_ns", "ns", Lower),
        ("mvstm.write_ns", "ns", Lower),
        ("mvstm.commit_ro_ns", "ns", Lower),
        ("mvstm.commit_rw2_ns", "ns", Lower),
        ("mvstm.txn_2r2w_ns", "ns", Lower),
        ("mvstm.native_txn_2r2w_ns", "ns", Lower),
        ("tl2.begin_ns", "ns", Lower),
        ("tl2.read_ns", "ns", Lower),
        ("tl2.read_cold_ns", "ns", Lower),
        ("tl2.write_ns", "ns", Lower),
        ("tl2.commit_ro_ns", "ns", Lower),
        ("tl2.commit_rw2_ns", "ns", Lower),
        ("tl2.txn_2r2w_ns", "ns", Lower),
        ("backend.cm_handle_ns", "ns", Lower),
        ("cm.begin_commit_ns", "ns", Lower),
        ("core.txn_2r2w_ns", "ns", Lower),
        ("core.overhead_over_backend_ns", "ns", Lower),
        ("core.ctx_read_ns", "ns", Lower),
        ("core.ctx_write_ns", "ns", Lower),
        ("core.ctx_submit_ns", "ns", Lower),
        ("core.ctx_evaluate_ns", "ns", Lower),
        ("core.future_roundtrip_ns", "ns", Lower),
        ("core.graph_snapshot_ns.8", "ns", Lower),
        ("core.graph_snapshot_ns.32", "ns", Lower),
        ("core.graph_snapshot_ns.128", "ns", Lower),
        ("core.graph_update_ns.8", "ns", Lower),
        ("core.graph_update_ns.32", "ns", Lower),
        ("core.graph_update_ns.128", "ns", Lower),
        ("taskpool.roundtrip_ns", "ns", Lower),
        ("trace.record_off_ns", "ns", Lower),
        ("trace.record_lifecycle_ns", "ns", Lower),
        ("trace.lifecycle_tax_frac", "frac", Lower),
        ("trace.full_tax_frac", "frac", Lower),
        ("floor.txn_2r2w_ns", "ns", Lower),
        ("core.floor_ratio", "ratio", Lower),
        ("ledger.residual_frac", "frac", Lower),
        ("model.read_ratio", "ratio", Lower),
        ("model.write_ratio", "ratio", Lower),
        ("model.begin_ratio", "ratio", Lower),
        ("model.commit_ratio", "ratio", Lower),
        ("model.submit_ratio", "ratio", Lower),
        ("model.evaluate_ratio", "ratio", Lower),
    ]
};

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the rule the driver applies); a single value is both.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One end-to-end metric of one workload: its samples (windows, or
/// set-ups) and what is reported for them.
pub fn end_to_end_json(def: &EndToEnd, samples: &[f64]) -> Json {
    let (q1, q3) = quartiles(samples);
    Json::obj(vec![
        ("unit", def.unit.into()),
        ("better", def.better.name().into()),
        ("bound", def.bound.into()),
        ("value", median(samples).into()),
        ("q1", q1.into()),
        ("q3", q3.into()),
        ("n", samples.len().into()),
        (
            "samples",
            Json::arr(samples.iter().map(|&s| s.into()).collect()),
        ),
    ])
}

pub fn per_layer_json(values: &BTreeMap<&'static str, f64>) -> Json {
    Json::Obj(
        PER_LAYER
            .iter()
            .filter_map(|&(name, unit, better)| {
                values.get(name).map(|&v| {
                    (
                        name.to_string(),
                        Json::obj(vec![
                            ("unit", unit.into()),
                            ("better", better.name().into()),
                            ("value", v.into()),
                        ]),
                    )
                })
            })
            .collect(),
    )
}

/// Prints `{name: {value, unit, ...}}` as aligned rows.
pub fn print_metrics(title: &str, metrics: &Json) {
    println!("  {title}");
    let Json::Obj(pairs) = metrics else { return };
    for (name, m) in pairs {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let spread = match (m.get("q1"), m.get("q3"), m.get("n")) {
            (Some(q1), Some(q3), Some(n)) => format!(
                "  [q1 {:.4}  q3 {:.4}  n {}]",
                q1.as_f64().unwrap_or(f64::NAN),
                q3.as_f64().unwrap_or(f64::NAN),
                n.as_u64().unwrap_or(0)
            ),
            _ => String::new(),
        };
        println!("    {name:<32} {value:>16.4} {unit:<6}{spread}");
    }
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

struct Side {
    median: f64,
    spread: f64,
    samples: Vec<f64>,
}

fn side(metric: &Json) -> Option<Side> {
    let samples: Vec<f64> = metric
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    let median = metric.get("value")?.as_f64()?;
    let (q1, q3) = (metric.get("q1")?.as_f64()?, metric.get("q3")?.as_f64()?);
    Some(Side {
        median,
        spread: if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        },
        samples,
    })
}

/// Judges one metric of workload B against the same metric of A.
fn judge(def: &EndToEnd, a: &Side, b: &Side) -> Verdict {
    // How much worse B's median is, as a share of A's.
    let worse_by = match def.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if def.name == FAILED_FRAC {
        // A baseline that already fails (the reproducer workload) fails
        // at a rate that moves from run to run: more of it decides nothing.
        return match (worse_by > 0.0, a.median == 0.0) {
            (false, _) => Verdict::Ok,
            (true, true) => Verdict::Regressed,
            (true, false) => Verdict::Unresolved,
        };
    }
    let slack = if def.name == "setup_s" {
        SETUP_SLACK_S
    } else {
        0.0
    };
    if worse_by > (def.bound * a.median.abs()).max(slack) {
        return Verdict::Regressed;
    }
    if a.spread.max(b.spread) <= def.bound || a.spread.max(b.spread) * a.median.abs() <= slack {
        return Verdict::Ok;
    }
    // Too noisy to call unchanged — unless one side wins every sample.
    let beats = |x: &[f64], y: &[f64]| {
        !x.is_empty()
            && x.iter().all(|&xv| {
                y.iter().all(|&yv| match def.better {
                    Better::Lower => xv < yv,
                    Better::Higher => xv > yv,
                })
            })
    };
    if beats(&a.samples, &b.samples) || beats(&b.samples, &a.samples) {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn workloads_of(report: &Json) -> Result<BTreeMap<String, &Json>, String> {
    let list = report
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("report has no `workloads` array")?;
    list.iter()
        .map(|w| {
            let name = w
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("workload without a name")?;
            Ok((name.to_string(), w))
        })
        .collect()
}

/// One row per (workload, end-to-end metric) present in both reports.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<(String, &'static str, Verdict, String)>, String> {
    let (wa, wb) = (workloads_of(a)?, workloads_of(b)?);
    let mut rows = Vec::new();
    for (name, a_w) in &wa {
        let Some(b_w) = wb.get(name) else { continue };
        for def in &END_TO_END {
            let pick = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(def.name))
                    .and_then(side)
            };
            let (Some(sa), Some(sb)) = (pick(a_w), pick(b_w)) else {
                continue;
            };
            let verdict = judge(def, &sa, &sb);
            let detail = format!(
                "{:.4} -> {:.4} {} ({:+.1} %, spread {:.1} % / {:.1} %, bound {:.0} %)",
                sa.median,
                sb.median,
                def.unit,
                if sa.median == 0.0 {
                    0.0
                } else {
                    (sb.median - sa.median) / sa.median * 100.0
                },
                sa.spread * 100.0,
                sb.spread * 100.0,
                def.bound * 100.0
            );
            rows.push((name.clone(), def.name, verdict, detail));
        }
    }
    if rows.is_empty() {
        return Err("the two reports share no workload".into());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&ten), 5.5);
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|m| m.0));
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            // failed_frac is the one name in both lists (see END_TO_END).
            assert!(seen.insert(name) || name == FAILED_FRAC, "{name} twice");
        }
    }

    fn report(workload: &str, metric: &str, samples: &[f64]) -> Json {
        let def = END_TO_END.iter().find(|d| d.name == metric).unwrap();
        Json::obj(vec![(
            "workloads",
            Json::arr(vec![Json::obj(vec![
                ("workload", workload.into()),
                (
                    "end_to_end",
                    Json::obj(vec![(metric, end_to_end_json(def, samples))]),
                ),
            ])]),
        )])
    }

    fn verdict(metric: &str, a: &[f64], b: &[f64]) -> Verdict {
        let (a, b) = (report("w", metric, a), report("w", metric, b));
        // Through text, as `compare` reads reports from files.
        let (a, b) = (
            Json::parse(&a.to_string()).unwrap(),
            Json::parse(&b.to_string()).unwrap(),
        );
        compare(&a, &b).unwrap()[0].2
    }

    #[test]
    fn compare_calls_ok_regressed_and_unresolved() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict("txn_per_s", &steady, &steady), Verdict::Ok);
        let slower = [70.0, 71.0, 69.0, 70.5, 69.5];
        assert_eq!(verdict("txn_per_s", &steady, &slower), Verdict::Regressed);
        assert_eq!(
            verdict("txn_per_s", &slower, &steady),
            Verdict::Ok,
            "faster is fine"
        );
        // For a latency the same numbers read the other way round.
        assert_eq!(verdict("txn_p50_us", &slower, &steady), Verdict::Regressed);
        assert_eq!(verdict("txn_p50_us", &steady, &slower), Verdict::Ok);
        let a_bit_slower = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(
            verdict("txn_per_s", &steady, &a_bit_slower),
            Verdict::Ok,
            "inside the bound"
        );
        let noisy = [40.0, 160.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict("txn_per_s", &steady, &noisy), Verdict::Unresolved);
        // Noisy but every window of B beats every window of A: resolved.
        let noisy_low = [20.0, 80.0, 50.0, 35.0, 65.0];
        let noisy_high = [81.0, 200.0, 120.0, 90.0, 160.0];
        assert_eq!(verdict("txn_per_s", &noisy_low, &noisy_high), Verdict::Ok);
        assert_eq!(verdict("failed_frac", &[0.0], &[0.001]), Verdict::Regressed);
        assert_eq!(verdict("failed_frac", &[0.001], &[0.001]), Verdict::Ok);
        assert_eq!(
            verdict("failed_frac", &[0.001], &[0.002]),
            Verdict::Unresolved
        );
        // 0.4 ms -> 0.9 ms of set-up is inside the 10 ms slack.
        assert_eq!(verdict("setup_s", &[0.0004; 5], &[0.0009; 5]), Verdict::Ok);
        assert_eq!(verdict("setup_s", &[0.1; 5], &[0.2; 5]), Verdict::Regressed);
        assert!(compare(
            &report("w", "txn_per_s", &steady),
            &report("v", "txn_per_s", &steady)
        )
        .is_err());
    }
}
