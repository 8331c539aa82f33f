//! Whole-run checks: every workload emits every metric, names are
//! well-formed, the report survives a round trip through text, and
//! `BENCHMARK.json` lists what the code measures.

use super::*;
use report::PER_LAYER;
use std::collections::BTreeSet;

const TINY: Plan = Plan {
    setups: Duration::from_millis(2),
    warmup: Duration::from_millis(10),
    measure: Duration::from_millis(300),
    traced: Duration::from_millis(60),
    ledger_row: Duration::from_millis(2),
};

fn keys(j: &Json) -> BTreeSet<String> {
    match j {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        _ => BTreeSet::new(),
    }
}

#[test]
fn every_workload_emits_every_metric() {
    let ledger = report::per_layer_json(&ledger::run(TINY.ledger_row, 3));
    let mut results = Vec::new();
    for spec in &workloads::ALL {
        let (r, trace) = measure(spec, 3, &TINY);
        let e2e = r.get("end_to_end").expect("end_to_end");
        let want: BTreeSet<String> = END_TO_END.iter().map(|d| d.name.to_string()).collect();
        assert_eq!(keys(e2e), want, "{}", spec.name);
        for def in &END_TO_END {
            let m = e2e.get(def.name).unwrap();
            let v = m.get("value").and_then(Json::as_f64).unwrap();
            assert!(
                v.is_finite() && v >= 0.0,
                "{} {} = {v}",
                spec.name,
                def.name
            );
            assert!(
                v > 0.0 || def.name == FAILED_FRAC,
                "{} {} is 0",
                spec.name,
                def.name
            );
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
        }
        let windows = e2e
            .get("txn_per_s")
            .and_then(|m| m.get("n"))
            .and_then(Json::as_u64);
        assert_eq!(
            windows,
            Some(300 / spec.window_ms.min(300)),
            "{}",
            spec.name
        );
        // Workload rows and ledger rows together are the whole catalogue.
        let mut got = keys(r.get("per_layer").expect("per_layer"));
        got.extend(keys(&ledger));
        let want: BTreeSet<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(got, want, "{}", spec.name);
        let trace = Json::parse(&trace.expect("a traced pass").to_string()).expect("trace is JSON");
        assert!(
            !trace
                .get("spans")
                .and_then(Json::as_arr)
                .unwrap()
                .is_empty(),
            "{}",
            spec.name
        );
        results.push(r);
    }
    let doc = Json::obj(vec![
        ("schema", SCHEMA.into()),
        ("workloads", Json::arr(results)),
        ("ledger", ledger),
    ]);
    let parsed = Json::parse(&doc.to_string()).expect("the report is JSON");
    assert_eq!(parsed.to_string(), doc.to_string(), "round trip");
    // A report compared with itself has nothing regressed.
    let rows = report::compare(&parsed, &parsed).expect("comparable");
    assert_eq!(rows.len(), workloads::ALL.len() * END_TO_END.len());
    assert!(rows.iter().all(|r| r.2 != Verdict::Regressed));
}

#[test]
fn benchmark_json_lists_what_is_measured() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect(path)).expect("BENCHMARK.json");
    let list = |key: &str| -> Vec<&Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .collect()
    };
    let name = |j: &Json| j.get("name").and_then(Json::as_str).unwrap().to_string();

    let workloads_listed: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| {
            (
                name(w),
                w.get("why").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let workloads_run: Vec<(String, String)> = workloads::ALL
        .iter()
        .filter(|s| s.listed)
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(workloads_listed, workloads_run);
    assert!(workloads_run
        .iter()
        .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

    // Every end-to-end metric but failed_frac, which may be 0 and so is
    // listed per layer (see report::END_TO_END).
    let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                name(m),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                m.get("better").and_then(Json::as_str).unwrap().to_string(),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .filter(|d| d.name != FAILED_FRAC)
        .map(|d| {
            (
                d.name.into(),
                d.unit.into(),
                d.better.name().into(),
                d.bound,
            )
        })
        .collect();
    assert_eq!(e2e, want);

    let layers: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| {
            (
                name(m),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                m.get("better").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect();
    let want: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(n, u, b)| (n.into(), u.into(), b.name().into()))
        .collect();
    assert_eq!(layers, want);
    assert_eq!(
        doc.get("paths").map(Json::to_string),
        Some("[\"benchmark\"]".to_string())
    );
}

#[test]
fn arguments_parse_strictly() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let (pos, named) = parse_args(&argv("run --seed 7 --smoke --workload zipf-hot")).unwrap();
    assert_eq!(pos, ["run"]);
    assert_eq!(number::<u64>(&named, "seed"), Ok(Some(7)));
    assert_eq!(named.get("smoke").map(String::as_str), Some("1"));
    assert!(number::<u64>(&named, "workload").is_err());
    assert!(parse_args(&argv("run --seed 1 --seed 2")).is_err());
    assert!(run(&parse_args(&argv("--workload nope")).unwrap().1).is_err());
    assert!(
        run(&parse_args(&argv("--seconds 5")).unwrap().1).is_err(),
        "needs a workload"
    );
    assert!(run(&parse_args(&argv("--workload bank-top --seconds 5"))
        .unwrap()
        .1)
    .is_err());
    assert!(run(
        &parse_args(&argv("--workload bank-top --seconds 500 --trace 0"))
            .unwrap()
            .1
    )
    .is_err());
}
