//! Unit + adversarial tests over synthetic traces. Integration tests
//! against the live runtime (both backends) live in `wtf-workloads`.

use super::*;
use wtf_trace::{EventKind, TraceEvent};

fn ev(ts: u64, kind: EventKind, a: u64, b: u64) -> TraceEvent {
    TraceEvent { ts, kind, a, b }
}

fn cat(p: &Profile, c: Category) -> u64 {
    *p.path_categories().get(&c).unwrap_or(&0)
}

/// Lane 0 runs top 1 and blocks on future 7; lane 1 runs the future's
/// body. The walk must jump the join edge and attribute the body time.
fn join_scenario() -> Vec<(usize, Vec<TraceEvent>)> {
    vec![
        (
            0,
            vec![
                ev(0, EventKind::TopBegin, 1, 0),
                ev(8, EventKind::FutureSubmit, 7, 1),
                // Span events carry ts = start, a = duration.
                ev(10, EventKind::EvalWaitSpan, 30, 7),
                ev(0, EventKind::WorkerBusySpan, 50, 0),
                ev(50, EventKind::TopCommit, 1, 0),
            ],
        ),
        (
            1,
            vec![
                ev(5, EventKind::FutureAttemptBegin, 7, 0),
                ev(5, EventKind::WorkerBusySpan, 35, 0),
                ev(40, EventKind::FutureCompleted, 7, 0),
            ],
        ),
    ]
}

#[test]
fn truncated_trace_hard_fails() {
    let err = Trace::new(join_scenario(), 3).profile().unwrap_err();
    assert!(
        err.0.contains("trace truncated: 3 events dropped"),
        "unexpected message: {}",
        err.0
    );
}

#[test]
fn empty_trace_profiles_to_nothing() {
    let p = Trace::new(vec![], 0).profile().unwrap();
    assert_eq!(p.makespan(), 0);
    assert!(p.critical_path().is_empty());
    p.verify_partition().unwrap();
    assert_eq!(p.speedup_bound(), Some(1.0));
    assert_eq!(p.folded_stacks(), "");
    let r = p.report(10).to_string();
    assert!(r.contains("\"schema\":\"wtf-profile/v1\""));
}

/// The partition gate goes red when the path stops tiling the makespan.
#[test]
fn a_path_with_a_gap_fails_the_partition_gate() {
    let mut p = Trace::new(join_scenario(), 0).profile().unwrap();
    p.cp.pop();
    let err = p.verify_partition().unwrap_err();
    assert!(err.0.contains("expected makespan 50"), "{err}");
}

#[test]
fn join_edge_jumps_to_producer_lane() {
    let p = Trace::new(join_scenario(), 0).profile().unwrap();
    assert_eq!(p.makespan(), 50);
    p.verify_partition().unwrap();
    // [40,50) top commit tail + [5,40) future body are useful; [0,5)
    // before the body started is idle. No time is charged to join-wait:
    // the walk crossed the edge instead of waiting on it.
    assert_eq!(cat(&p, Category::Useful), 45);
    assert_eq!(cat(&p, Category::Idle), 5);
    assert_eq!(cat(&p, Category::JoinWait), 0);
    // The future's body dominates the path, so it heads the culprit list.
    let culprits = p.culprits();
    assert_eq!(culprits[0], ("future", 7, 35));
    // FutureSubmit links future 7 to top 1, so the folded stack nests it.
    let folded = p.folded_stacks();
    assert!(
        folded.contains("top:1;future:7#a0;useful 35"),
        "folded:\n{folded}"
    );
}

#[test]
fn dangling_join_edge_charges_join_wait_locally() {
    // The wait's producer never completes: the edge cannot be walked
    // through, so the time stays on this lane as join-wait.
    let lanes = vec![(
        0,
        vec![
            ev(0, EventKind::EvalWaitSpan, 20, 7),
            ev(0, EventKind::WorkerBusySpan, 20, 0),
        ],
    )];
    let p = Trace::new(lanes, 0).profile().unwrap();
    assert_eq!(p.makespan(), 20);
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::JoinWait), 20);
    assert_eq!(p.culprits()[0], ("future", 7, 20));
}

#[test]
fn retry_lineage_attributes_waste_and_speedup_bound() {
    // Top 1 aborts on box 99 at t=20, retries as top 2, commits at t=50.
    let lanes = vec![(
        0,
        vec![
            ev(0, EventKind::TopBegin, 1, 0),
            ev(0, EventKind::WorkerBusySpan, 50, 0),
            ev(20, EventKind::TopConflictAbort, 1, 99),
            ev(20, EventKind::TopRetry, 2, 1),
            ev(20, EventKind::TopBegin, 2, 0),
            ev(50, EventKind::TopCommit, 2, 0),
        ],
    )];
    let p = Trace::new(lanes, 0).profile().unwrap();
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::Wasted), 20);
    assert_eq!(cat(&p, Category::Useful), 30);
    // "What if aborts were free": 50 / (50 - 20).
    assert_eq!(p.speedup_bound(), Some(50.0 / 30.0));
    let r = p.report(10).to_string();
    assert!(r.contains("\"top_retries\":1"), "report:\n{r}");
    // The conflict box shows up as a culprit of the wasted window.
    assert!(p.culprits().contains(&("box", 99, 20)));
}

#[test]
fn queue_delay_charged_and_walk_jumps_to_enqueuer() {
    let lanes = vec![
        (0, vec![ev(0, EventKind::TaskEnqueue, 3, 1)]),
        (
            1,
            vec![
                ev(15, EventKind::TaskDequeue, 3, 15),
                ev(15, EventKind::WorkerBusySpan, 15, 0),
            ],
        ),
    ];
    let p = Trace::new(lanes, 0).profile().unwrap();
    assert_eq!(p.makespan(), 30);
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::QueueDelay), 15);
    assert_eq!(cat(&p, Category::Useful), 15);
}

#[test]
fn commit_pipeline_phases_override_window_category() {
    // Validation and publish-wait nested inside a commit span inside a
    // busy span: innermost wins, remainder of the commit is commit-stall.
    let lanes = vec![(
        0,
        vec![
            ev(0, EventKind::TopBegin, 1, 0),
            ev(0, EventKind::WorkerBusySpan, 40, 0),
            ev(10, EventKind::StmCommitSpan, 30, 0),
            ev(10, EventKind::StmValidationSpan, 8, 0),
            ev(18, EventKind::PublishWaitSpan, 12, 0),
            ev(40, EventKind::TopCommit, 1, 0),
        ],
    )];
    let p = Trace::new(lanes, 0).profile().unwrap();
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::Useful), 10);
    assert_eq!(cat(&p, Category::Validation), 8);
    assert_eq!(cat(&p, Category::PublishWait), 12);
    assert_eq!(cat(&p, Category::CommitStall), 10);
}

#[test]
fn explicit_makespan_extends_horizon_as_idle() {
    let lanes = vec![(0, vec![ev(0, EventKind::WorkerBusySpan, 10, 0)])];
    let p = Trace {
        makespan: Some(25),
        ..Trace::new(lanes, 0)
    }
    .profile()
    .unwrap();
    assert_eq!(p.makespan(), 25);
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::Idle), 15);
}

#[test]
fn chrome_round_trip_preserves_the_report() {
    let lanes = join_scenario();
    let direct = Trace::new(lanes.clone(), 0).profile().unwrap();
    let exported = wtf_trace::chrome::chrome_trace(&lanes, 0);
    let back = Trace::from_chrome_json(&exported)
        .unwrap()
        .profile()
        .unwrap();
    assert_eq!(direct.report(10).to_string(), back.report(10).to_string());
    assert_eq!(direct.folded_stacks(), back.folded_stacks());
}

#[test]
fn report_is_byte_deterministic() {
    let a = Trace::new(join_scenario(), 0).profile().unwrap();
    let b = Trace::new(join_scenario(), 0).profile().unwrap();
    assert_eq!(a.report(10).to_string(), b.report(10).to_string());
    assert_eq!(a.folded_stacks(), b.folded_stacks());
}

#[test]
fn all_wasted_path_has_no_speedup_bound() {
    let lanes = vec![(
        0,
        vec![
            ev(0, EventKind::TopBegin, 1, 0),
            ev(0, EventKind::WorkerBusySpan, 10, 0),
            ev(10, EventKind::TopConflictAbort, 1, 5),
        ],
    )];
    let p = Trace::new(lanes, 0).profile().unwrap();
    p.verify_partition().unwrap();
    assert_eq!(cat(&p, Category::Wasted), 10);
    assert_eq!(p.speedup_bound(), None);
    assert!(p.report(4).to_string().contains("\"speedup_bound\":null"));
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A small event grammar: any mix of span and instant kinds with
    /// bounded timestamps/ids, shaped only loosely like a real run.
    fn arbitrary_event(sel: u64, ts: u64, a: u64, b: u64) -> TraceEvent {
        let kinds = [
            EventKind::WorkerBusySpan,
            EventKind::WorkerIdleSpan,
            EventKind::EvalWaitSpan,
            EventKind::StmCommitSpan,
            EventKind::StmValidationSpan,
            EventKind::PublishWaitSpan,
            EventKind::TopBegin,
            EventKind::TopCommit,
            EventKind::TopConflictAbort,
            EventKind::TopRetry,
            EventKind::FutureSubmit,
            EventKind::FutureAttemptBegin,
            EventKind::FutureAttemptAbort,
            EventKind::FutureCompleted,
            EventKind::TaskEnqueue,
            EventKind::TaskDequeue,
            EventKind::TxnAttemptAbort,
        ];
        let kind = kinds[(sel as usize) % kinds.len()];
        TraceEvent { ts, kind, a, b }
    }

    proptest! {
        /// The load-bearing invariant chain on arbitrary (even causally
        /// nonsensical) traces: the profiler never panics, the critical
        /// path exactly partitions the makespan, and the makespan never
        /// exceeds the aggregate lane-time totals.
        #[test]
        fn partition_invariants_hold_on_arbitrary_traces(
            raw in proptest::collection::vec(
                proptest::collection::vec(
                    (0u64..17, 0u64..120, 0u64..40, 0u64..8),
                    0..24,
                ),
                1..4,
            )
        ) {
            let lanes: Vec<(usize, Vec<TraceEvent>)> = raw
                .into_iter()
                .enumerate()
                .map(|(i, evs)| {
                    let mut evs: Vec<TraceEvent> = evs
                        .into_iter()
                        .map(|(sel, ts, a, b)| arbitrary_event(sel, ts, a, b))
                        .collect();
                    // Real lanes record instants at monotone timestamps.
                    evs.sort_by_key(|e| e.ts);
                    (i, evs)
                })
                .collect();
            let p = Trace::new(lanes.clone(), 0).profile().unwrap();
            p.verify_partition().unwrap();
            let cp_len: u64 = p.path_categories().values().sum();
            prop_assert_eq!(cp_len, p.makespan());
            let totals: u64 = p.lane_totals().values().sum();
            prop_assert!(p.makespan() <= totals);
            // Determinism: rebuilding from the same lanes reproduces the
            // report byte for byte.
            let q = Trace::new(lanes, 0).profile().unwrap();
            prop_assert_eq!(p.report(10).to_string(), q.report(10).to_string());
        }
    }
}
