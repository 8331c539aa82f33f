//! Telemetry-over-workloads integration: the sliding-window metrics are
//! byte-deterministic under the virtual clock, and a two-phase abort
//! storm drives the incident detector through exactly one open → peak →
//! recover cycle — on both STM backends.

use std::path::PathBuf;
use wtf_core::{BackendKind, Semantics};
use wtf_telemetry::{IncidentKind, TelemetryConfig, Thresholds};
use wtf_trace::{Json, TraceLevel};
use wtf_workloads::zipf::{storm_then_calm, zipf_hotbox_spec, StormConfig, ZipfConfig};
use wtf_workloads::RunSpec;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("create test tmpdir");
    dir
}

/// A telemetry config whose detector can never fire (abort rate is
/// bounded by 1.0): determinism tests want the metrics pipeline live
/// without incident side effects or file writes.
fn quiet_telemetry(epoch_len: u64) -> TelemetryConfig {
    TelemetryConfig {
        epoch_len,
        window_epochs: 4,
        thresholds: Thresholds {
            abort_rate: 1.1,
            gc_lag: u64::MAX,
            queue_p95_min: u64::MAX,
            ..Thresholds::default()
        },
        incidents_file: tmp("quiet").join("incidents.json"),
        ..TelemetryConfig::default()
    }
}

#[test]
fn zipf_telemetry_is_byte_deterministic_on_both_backends() {
    for backend in BackendKind::ALL {
        let cfg = ZipfConfig {
            array_size: 64,
            reads_per_task: 8,
            writes_per_task: 2,
            iter: 100,
            tasks_per_tx: 3,
            txs_per_client: 3,
            ..ZipfConfig::default()
        };
        let spec = RunSpec {
            units_per_client: (cfg.txs_per_client * cfg.tasks_per_tx) as u64,
            workers: 2 * cfg.tasks_per_tx + 2,
            ..RunSpec::new(Semantics::WO_GAC, 2, 1)
        }
        .with_trace(TraceLevel::Lifecycle)
        .with_backend(backend)
        .with_telemetry(Some(quiet_telemetry(2_000)))
        .with_workload("zipf_hotbox");
        let a = zipf_hotbox_spec(&cfg, &spec, 2);
        let b = zipf_hotbox_spec(&cfg, &spec, 2);
        let t = &a.telemetry;
        assert!(t.enabled, "telemetry live on {}", backend.name());
        assert_eq!(t.backend, backend.name());
        assert_eq!(t.workload, "zipf_hotbox");
        assert!(t.epochs_closed > 0);
        assert!(t.commits_total > 0);
        assert!(!t.series.is_empty());
        assert_eq!(
            a.telemetry.to_json().to_string(),
            b.telemetry.to_json().to_string(),
            "windowed metrics are byte-deterministic on {}",
            backend.name()
        );
        assert_eq!(
            a.to_json().to_string(),
            b.to_json().to_string(),
            "whole run report is byte-deterministic on {}",
            backend.name()
        );
    }
}

#[test]
fn abort_storm_yields_exactly_one_incident_on_both_backends() {
    for backend in BackendKind::ALL {
        let dir = tmp(&format!("storm_{}", backend.name()));
        let incidents_file = dir.join("incidents.json");
        let _ = std::fs::remove_file(&incidents_file);
        let tcfg = TelemetryConfig {
            epoch_len: 8_000,
            window_epochs: 4,
            metrics_file: Some(dir.join("metrics.prom")),
            incidents_file: incidents_file.clone(),
            thresholds: Thresholds {
                abort_rate: 0.25,
                min_window_attempts: 4,
                // Silence the other rules so the storm is the only signal.
                gc_lag: u64::MAX,
                queue_p95_min: u64::MAX,
                trigger_epochs: 1,
                recover_epochs: 2,
                ..Thresholds::default()
            },
        };
        // Long calm tail: the 4-epoch window must fully drain of storm
        // conflicts and then stay calm for `recover_epochs` more epochs.
        let scfg = StormConfig {
            storm_txs: 48,
            calm_txs: 144,
            iter: 800,
            ..StormConfig::default()
        };
        let spec = RunSpec {
            units_per_client: (scfg.storm_txs + scfg.calm_txs) as u64,
            workers: 1,
            ..RunSpec::new(Semantics::WO_GAC, 4, 1)
        }
        .with_trace(TraceLevel::Lifecycle)
        .with_backend(backend)
        .with_telemetry(Some(tcfg))
        .with_workload("storm_calm");
        let res = storm_then_calm(&scfg, &spec);
        let t = &res.telemetry;
        assert!(t.enabled);
        assert!(
            t.conflicts_total > 0,
            "the storm phase conflicts on {}",
            backend.name()
        );
        assert_eq!(
            t.incidents.len(),
            1,
            "exactly one incident on {}: {:?}",
            backend.name(),
            t.incidents
        );
        let inc = &t.incidents[0];
        assert_eq!(inc.kind, IncidentKind::AbortStorm);
        let recovery_ts = inc.recovery_ts.expect("storm recovered before finish");
        let recovery_epoch = inc.recovery_epoch.expect("storm recovered before finish");
        assert!(inc.onset_ts < recovery_ts, "onset precedes recovery");
        assert!(inc.onset_epoch < recovery_epoch);
        assert!(
            inc.onset_ts <= inc.peak_ts && inc.peak_ts <= recovery_ts,
            "peak lies inside the incident"
        );
        assert!(inc.peak_value >= 0.25, "peak at least the threshold");

        // The structured incident report landed on disk, labeled with the
        // active backend, and parses back.
        let text = std::fs::read_to_string(&incidents_file).expect("incidents.json written");
        let parsed = Json::parse(&text).expect("incidents.json parses");
        assert_eq!(
            parsed.get("backend").and_then(|b| b.as_str()),
            Some(backend.name())
        );
        let listed = match parsed.get("incidents") {
            Some(Json::Arr(items)) => items.len(),
            other => panic!("incidents array missing: {other:?}"),
        };
        assert_eq!(listed, 1);

        // And the whole cycle is deterministic: a second identical run
        // reports the same incident bytes.
        let res2 = storm_then_calm(&scfg, &spec);
        assert_eq!(
            res.telemetry.to_json().to_string(),
            res2.telemetry.to_json().to_string(),
            "incident report is deterministic on {}",
            backend.name()
        );
    }
}
