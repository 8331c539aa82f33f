//! Virtual-time measurement harness.

use std::sync::Arc;
use wtf_backend::StmStatsSnapshot;
use wtf_core::{BackendKind, CostModel, FutureTm, Semantics, TmConfig, TmStatsSnapshot};
use wtf_trace::{knobs, Json, TraceLevel, TraceSummary, Tracer};
use wtf_vclock::Clock;

/// Per-client workload body: `(client_index, tm)`.
pub type ClientFn = Arc<dyn Fn(usize, &FutureTm) + Send + Sync>;

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Virtual makespan of the whole run (units ≈ ns on the paper's Xeon).
    pub makespan: u64,
    /// Work units completed (workload-defined, e.g. transactions or tasks).
    pub completed: u64,
    /// Which STM substrate the run executed over.
    pub backend: BackendKind,
    pub tm: TmStatsSnapshot,
    pub stm: StmStatsSnapshot,
    /// Tracing summary for the run (all-zero when tracing was off).
    pub trace: TraceSummary,
    /// Causal critical-path profile (`wtf-profile` report block), present
    /// when the run had [`RunSpec::profile`] set and tracing on.
    pub profile: Option<Json>,
}

impl RunResult {
    /// Completed work per virtual time unit.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            0.0
        } else {
            self.completed as f64 / self.makespan as f64
        }
    }

    /// This run's throughput normalized to `baseline`'s.
    pub fn speedup_vs(&self, baseline: &RunResult) -> f64 {
        let b = baseline.throughput();
        if b == 0.0 {
            0.0
        } else {
            self.throughput() / b
        }
    }

    /// Top-level abort rate (Figs. 7b left, 9 right).
    pub fn top_abort_rate(&self) -> f64 {
        self.tm.top_abort_rate()
    }

    /// Internal abort rate (Figs. 7b right, 8 bottom).
    pub fn internal_abort_rate(&self) -> f64 {
        self.tm.internal_abort_rate()
    }

    /// Machine-readable dump of everything this run measured. Key order is
    /// fixed and all integers stay `u64`, so the rendering is deterministic
    /// under the virtual clock (the figure binaries diff these files).
    pub fn to_json(&self) -> Json {
        let counters = |fields: Vec<(&'static str, u64)>| {
            Json::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::U64(v)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("makespan", self.makespan.into()),
            ("completed", self.completed.into()),
            ("backend", Json::Str(self.backend.name().to_string())),
            ("throughput", Json::F64(self.throughput())),
            ("top_abort_rate", Json::F64(self.top_abort_rate())),
            ("internal_abort_rate", Json::F64(self.internal_abort_rate())),
            ("tm", counters(self.tm.fields())),
            ("stm", counters(self.stm.fields().to_vec())),
            // Surfaced at top level (not only inside `trace`) so `wtf-check`
            // can reject truncated-trace results without digging into the
            // summary shape.
            ("dropped_events", self.trace.events_dropped.into()),
            ("trace", self.trace.to_json()),
            ("profile", self.profile.clone().unwrap_or(Json::Null)),
        ])
    }
}

/// Parameters of a virtual-time run.
#[derive(Clone)]
pub struct RunSpec {
    pub semantics: Semantics,
    pub costs: CostModel,
    pub memory_bus: bool,
    /// Worker threads for future bodies.
    pub workers: usize,
    /// Concurrent client (top-level) threads.
    pub clients: usize,
    /// Work units each client contributes (for throughput accounting).
    pub units_per_client: u64,
    /// Tracing level for this run. [`RunSpec::new`] seeds it from the
    /// `WTF_TRACE` environment variable, so every figure binary honours
    /// `WTF_TRACE=1` without plumbing a flag through each workload wrapper.
    pub trace: TraceLevel,
    /// STM substrate for this run. [`RunSpec::new`] seeds it from the
    /// `WTF_BACKEND` environment variable (default mvstm), so every figure
    /// binary honours `WTF_BACKEND=tl2` without per-workload plumbing.
    pub backend: BackendKind,
    /// Causal profiling for this run. [`RunSpec::new`] seeds it from the
    /// `WTF_PROFILE` environment variable. Profiling needs the full event
    /// stream, so (like `WTF_CHECK`) it deepens the tracer rings and
    /// requires `trace` ≠ [`TraceLevel::Off`] to observe anything.
    pub profile: bool,
}

/// Scoped backend override for workload sweeps — re-exported from
/// `wtf-backend` (it pins [`BackendKind::from_env`], which both
/// [`RunSpec::new`] and `FutureTm::builder` consult).
pub use wtf_core::with_backend;

impl RunSpec {
    pub fn new(semantics: Semantics, clients: usize, workers: usize) -> RunSpec {
        RunSpec {
            semantics,
            costs: CostModel::CALIBRATED,
            memory_bus: true,
            workers,
            clients,
            units_per_client: 1,
            trace: TraceLevel::from_env(),
            backend: BackendKind::from_env(),
            profile: knobs::env().profile(),
        }
    }

    /// Overrides the tracing level (tests want this independent of env).
    pub fn with_trace(mut self, level: TraceLevel) -> RunSpec {
        self.trace = level;
        self
    }

    /// Overrides the STM substrate (differential tests want this
    /// independent of env).
    pub fn with_backend(mut self, backend: BackendKind) -> RunSpec {
        self.backend = backend;
        self
    }

    /// Overrides causal profiling (tests want this independent of env).
    pub fn with_profile(mut self, profile: bool) -> RunSpec {
        self.profile = profile;
        self
    }
}

/// Runs `client` on `spec.clients` virtual threads over a fresh TM under a
/// fresh deterministic virtual clock, and measures the result.
pub fn run_virtual(spec: &RunSpec, client: ClientFn) -> RunResult {
    run_virtual_traced(spec, client).0
}

/// Like [`run_virtual`], also handing back the [`Tracer`] so callers can
/// export the raw event rings (e.g. as a Perfetto trace) in addition to
/// the summary embedded in the [`RunResult`].
pub fn run_virtual_traced(spec: &RunSpec, client: ClientFn) -> (RunResult, Arc<Tracer>) {
    let clock = Clock::virtual_time();
    // `WTF_CHECK=1`: every traced run is re-verified by the offline
    // serializability checker after it finishes. Checking and causal
    // profiling both need the full event stream, so lanes get a much
    // deeper ring than the default.
    let check = knobs::env().check() && spec.trace != TraceLevel::Off;
    let profiling = spec.profile && spec.trace != TraceLevel::Off;
    let tracer = if check || profiling {
        Tracer::with_capacity(spec.trace, 1 << 18)
    } else {
        Tracer::new(spec.trace)
    };
    let spec2 = spec.clone();
    let t2 = Arc::clone(&tracer);
    let (tm_stats, stm_stats) = clock.enter(move || {
        let tm = FutureTm::builder()
            .config(
                TmConfig::new(spec2.semantics)
                    .with_costs(spec2.costs)
                    .with_memory_bus(spec2.memory_bus),
            )
            .workers(spec2.workers)
            .backend_kind(spec2.backend)
            .tracer(t2)
            .build();
        // Delta against the post-construction baseline so the measurement
        // covers exactly the client work, not TM setup.
        let tm0 = tm.stats();
        let stm0 = tm.stm().stats();
        let c = Clock::current();
        let handles: Vec<_> = (0..spec2.clients)
            .map(|i| {
                let tm = tm.clone();
                let client = client.clone();
                c.spawn(&format!("client-{i}"), move || client(i, &tm))
            })
            .collect();
        for h in handles {
            h.join();
        }
        let tm_stats = tm.stats().delta_since(&tm0);
        let stm_stats = tm.stm().stats().delta_since(&stm0);
        // Close every gauge series with one end-of-run sample, taken at
        // deterministic virtual time (no-op when tracing is off).
        tm.tracer().sample_gauges();
        tm.shutdown();
        (tm_stats, stm_stats)
    });
    let profile = if profiling {
        // A truncated trace would silently misattribute the missing time,
        // so (like WTF_CHECK) a dropped-events profile is a hard failure.
        match wtf_profile::Profile::from_tracer_with_makespan(&tracer, clock.makespan()) {
            Ok(p) => Some(p.report(10)),
            Err(e) => panic!("WTF_PROFILE failed for this run: {e}"),
        }
    } else {
        None
    };
    let result = RunResult {
        makespan: clock.makespan(),
        completed: spec.units_per_client * spec.clients as u64,
        backend: spec.backend,
        tm: tm_stats,
        stm: stm_stats,
        trace: tracer.summary(),
        profile,
    };
    if check {
        match wtf_check::HistoryChecker::from_tracer(&tracer).verify() {
            Ok(report) => eprintln!("wtf-check: {}", report.summary()),
            Err(e) => panic!("WTF_CHECK failed for this run: {e}"),
        }
    }
    (result, tracer)
}

/// Deterministic xorshift64* generator for workload decisions. We keep a
/// tiny local generator (rather than threading `rand` through every
/// workload closure) so that runs are bit-reproducible functions of the
/// seed and all state lives in a single `u64`.
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    pub fn new(seed: u64) -> Xorshift {
        Xorshift {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `per_mille`/1000.
    #[inline]
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.next_u64() % 1000 < per_mille
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtf_core::Semantics;

    #[test]
    fn harness_measures_simple_run() {
        let spec = RunSpec {
            units_per_client: 4,
            ..RunSpec::new(Semantics::WO_GAC, 2, 4)
        };
        let counter_holder: Arc<parking_lot::Mutex<Option<wtf_core::VBox<i64>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        let ch = counter_holder.clone();
        let res = run_virtual(
            &spec,
            Arc::new(move |_i, tm| {
                let counter = {
                    let mut g = ch.lock();
                    g.get_or_insert_with(|| tm.new_vbox(0i64)).clone()
                };
                for _ in 0..4 {
                    let c2 = counter.clone();
                    tm.atomic(move |ctx| {
                        let v = ctx.read(&c2)?;
                        ctx.write(&c2, v + 1)
                    })
                    .unwrap();
                }
            }),
        );
        assert_eq!(res.completed, 8);
        assert_eq!(res.tm.top_commits, 8);
        assert!(res.makespan > 0);
        assert!(res.throughput() > 0.0);
    }

    #[test]
    fn traced_run_captures_summary_and_exports_json() {
        let spec = RunSpec {
            units_per_client: 2,
            ..RunSpec::new(Semantics::WO_GAC, 2, 2)
        }
        .with_trace(TraceLevel::Lifecycle);
        let (res, tracer) = run_virtual_traced(
            &spec,
            Arc::new(move |_i, tm| {
                let b = tm.new_vbox(0u64);
                for _ in 0..2 {
                    let b2 = b.clone();
                    tm.atomic(move |ctx| {
                        let v = ctx.read(&b2)?;
                        ctx.write(&b2, v + 1)
                    })
                    .unwrap();
                }
            }),
        );
        assert!(res.trace.enabled());
        assert!(res.trace.events_recorded > 0);
        assert_eq!(res.trace.commit_latency.count, res.stm.commits);
        // The dump is valid JSON and round-trips the headline numbers.
        let text = res.to_json().to_string();
        let parsed = Json::parse(&text).expect("RunResult::to_json parses");
        assert_eq!(parsed.get("makespan"), Some(&Json::U64(res.makespan)));
        assert_eq!(
            parsed.get("tm").and_then(|t| t.get("top_commits")),
            Some(&Json::U64(res.tm.top_commits))
        );
        assert_eq!(
            parsed
                .get("trace")
                .and_then(|t| t.get("level"))
                .and_then(|l| l.as_str()),
            Some("lifecycle")
        );
        // The tracer handle exposes the raw rings for Perfetto export.
        assert!(tracer.chrome_trace_json().starts_with('['));
    }

    #[test]
    fn untraced_run_summary_is_empty() {
        let spec = RunSpec {
            units_per_client: 1,
            ..RunSpec::new(Semantics::WO_GAC, 1, 2)
        }
        .with_trace(TraceLevel::Off);
        let res = run_virtual(
            &spec,
            Arc::new(move |_i, tm| {
                let b = tm.new_vbox(1u64);
                tm.atomic(move |ctx| {
                    let v = ctx.read(&b)?;
                    ctx.write(&b, v + 1)
                })
                .unwrap();
            }),
        );
        assert!(!res.trace.enabled());
        assert_eq!(res.trace.events_recorded, 0);
        assert_eq!(res.trace.commit_latency.count, 0);
    }

    /// Contended future-spawning workload used by the profiling tests:
    /// every transaction submits a future and bumps a shared counter, so
    /// runs exercise spawn/join edges and conflict-retry chains.
    fn contended_future_client() -> ClientFn {
        let holder: Arc<parking_lot::Mutex<Option<wtf_core::VBox<u64>>>> =
            Arc::new(parking_lot::Mutex::new(None));
        Arc::new(move |_i, tm| {
            let counter = {
                let mut g = holder.lock();
                g.get_or_insert_with(|| tm.new_vbox(0u64)).clone()
            };
            for _ in 0..3 {
                let c2 = counter.clone();
                tm.atomic(move |ctx| {
                    let f = ctx.submit(move |c| {
                        c.work(200);
                        Ok(())
                    })?;
                    let v = ctx.read(&c2)?;
                    ctx.write(&c2, v + 1)?;
                    ctx.evaluate(&f)
                })
                .unwrap();
            }
        })
    }

    /// The acceptance gate of the profiling PR, end-to-end on the live
    /// runtime: under *both* STM substrates the profile block is present,
    /// its critical-path categories sum exactly to the run's makespan
    /// (retry lineage included), and the whole report is byte-
    /// deterministic under the virtual clock.
    #[test]
    fn profiled_run_partitions_makespan_on_both_backends() {
        for kind in wtf_core::BackendKind::ALL {
            let spec = RunSpec {
                units_per_client: 3,
                ..RunSpec::new(Semantics::WO_GAC, 2, 3)
            }
            .with_trace(TraceLevel::Lifecycle)
            .with_backend(kind)
            .with_profile(true);
            let res = run_virtual(&spec, contended_future_client());
            let profile = res.profile.clone().unwrap_or_else(|| {
                panic!("profile block missing under {}", kind.name());
            });
            assert_eq!(
                profile.get("makespan").and_then(|j| j.as_u64()),
                Some(res.makespan),
                "profile horizon == run makespan under {}",
                kind.name()
            );
            assert_eq!(
                profile
                    .get("critical_path")
                    .and_then(|c| c.get("length"))
                    .and_then(|j| j.as_u64()),
                Some(res.makespan),
                "critical-path categories partition the makespan under {}",
                kind.name()
            );
            // Both backends emit the same attempt lineage, so a retried
            // run shows up in the counts block on either substrate.
            assert!(
                profile
                    .get("counts")
                    .and_then(|c| c.get("txn_attempt_aborts"))
                    .and_then(|j| j.as_u64())
                    .is_some(),
                "counts block present under {}",
                kind.name()
            );
            let res2 = run_virtual(&spec, contended_future_client());
            assert_eq!(
                profile.to_string(),
                res2.profile.expect("second run profiled").to_string(),
                "profile is byte-deterministic under {}",
                kind.name()
            );
        }
    }

    /// `RunResult::to_json` carries the profile block under its own key
    /// (after `trace`), and `null` when profiling was off.
    #[test]
    fn run_result_json_carries_profile_block() {
        let spec = RunSpec {
            units_per_client: 2,
            ..RunSpec::new(Semantics::WO_GAC, 1, 2)
        }
        .with_trace(TraceLevel::Lifecycle)
        .with_profile(true);
        let res = run_virtual(&spec, contended_future_client());
        let doc = Json::parse(&res.to_json().to_string()).unwrap();
        assert_eq!(
            doc.get("profile")
                .and_then(|p| p.get("schema"))
                .and_then(|s| s.as_str()),
            Some("wtf-profile/v1")
        );

        let off = run_virtual(&spec.clone().with_profile(false), contended_future_client());
        let doc = Json::parse(&off.to_json().to_string()).unwrap();
        assert_eq!(doc.get("profile"), Some(&Json::Null));
    }

    #[test]
    fn xorshift_deterministic_and_spread() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        let va: Vec<u64> = (0..100).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..100).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        let mut hits = [0usize; 10];
        let mut r = Xorshift::new(7);
        for _ in 0..10_000 {
            hits[r.below(10)] += 1;
        }
        for h in hits {
            assert!((700..1300).contains(&h), "roughly uniform: {hits:?}");
        }
    }
}
