//! Semantics tests for the transactional-futures runtime.
//!
//! Virtual-clock tests pin interleavings deterministically with
//! `ctx.work(...)` delays; real-clock tests stress the concurrent paths.

use crate::{FutureTm, Semantics, TmStatsSnapshot, TxFuture};
use std::sync::Arc;
use wtf_vclock::Clock;

/// Runs `f` with a fresh TM under a virtual clock; returns its output,
/// the final stats and the virtual makespan.
fn with_vtm<T>(
    semantics: Semantics,
    workers: usize,
    f: impl FnOnce(&FutureTm) -> T,
) -> (T, TmStatsSnapshot, u64) {
    let clock = Clock::virtual_time();
    let (out, stats) = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(semantics)
            .workers(workers)
            .build();
        let out = f(&tm);
        let stats = tm.stats();
        tm.shutdown();
        (out, stats)
    });
    (out, stats, clock.makespan())
}

#[test]
fn plain_transactions_without_futures() {
    let (v, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(1i64);
        tm.atomic(|ctx| {
            let v = ctx.read(&x)?;
            ctx.write(&x, v + 41)?;
            ctx.read(&x)
        })
        .unwrap()
    });
    assert_eq!(v, 42);
    assert_eq!(stats.top_commits, 1);
    assert_eq!(stats.futures_submitted, 0);
}

#[test]
fn future_sees_spawner_writes() {
    let (v, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            ctx.write(&x2, 7)?;
            let x3 = x2.clone();
            let f = ctx.submit(move |c| c.read(&x3))?;
            ctx.evaluate(&f)
        })
        .unwrap()
    });
    assert_eq!(v, 7, "futures observe the spawning segment's writes");
    assert_eq!(stats.futures_submitted, 1);
    assert_eq!(stats.serialized_at_submission, 1);
}

#[test]
fn continuation_does_not_see_pending_future_writes() {
    // WO: the future writes z but the continuation reads before the future
    // serializes — it must see the old value, and the future serializes
    // upon evaluation (Fig. 2's "spared abort").
    let (out, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let z = tm.new_vbox(0i64);
        let (x2, z2) = (x.clone(), z.clone());
        let v = tm
            .atomic(move |ctx| {
                let (x3, z3) = (x2.clone(), z2.clone());
                let f = ctx.submit(move |c| {
                    c.work(100); // complete after the continuation's read
                    c.read(&x3)?;
                    c.write(&z3, 1)?;
                    Ok(())
                })?;
                let seen = ctx.read(&z2)?; // reads z=0 before the future commits
                ctx.work(1_000); // let the future attempt serialization
                ctx.evaluate(&f)?;
                Ok(seen)
            })
            .unwrap();
        (v, z.read_latest())
    });
    assert_eq!(out.0, 0, "continuation read the pre-future value");
    assert_eq!(out.1, 1, "future's write committed");
    assert_eq!(
        stats.serialized_at_evaluation, 1,
        "WO: serialized upon evaluation"
    );
    assert_eq!(stats.internal_aborts, 0, "WO spares the continuation");
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn so_dooms_conflicting_continuation_and_replays() {
    // Same program as above under SO: the future must serialize at
    // submission, dooming the continuation that read stale z. The replay
    // restart reuses the serialized future, and the re-read sees z=1.
    let (out, stats, _) = with_vtm(Semantics::SO, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let z = tm.new_vbox(0i64);
        let (x2, z2) = (x.clone(), z.clone());
        tm.atomic(move |ctx| {
            let (x3, z3) = (x2.clone(), z2.clone());
            let f = ctx.submit(move |c| {
                c.work(100);
                c.read(&x3)?;
                c.write(&z3, 1)?;
                Ok(())
            })?;
            let seen = ctx.read(&z2)?;
            ctx.work(1_000);
            ctx.evaluate(&f)?;
            Ok(seen)
        })
        .unwrap()
    });
    assert_eq!(
        out, 1,
        "SO: the continuation re-ran and saw the future's write"
    );
    assert!(stats.internal_aborts >= 1, "the continuation was doomed");
    assert_eq!(stats.serialized_at_submission, 1);
    assert_eq!(stats.serialized_at_evaluation, 0);
    assert_eq!(stats.top_commits, 1);
    assert_eq!(stats.top_aborts, 0, "no cross-top conflict involved");
}

#[test]
fn so_step_contains_doom_to_segment() {
    // The conflicting read happens inside a `step` checkpoint and the doom
    // arrives while the segment is still active: only the segment retries.
    let (out, stats, _) = with_vtm(Semantics::SO, 2, |tm| {
        let z = tm.new_vbox(0i64);
        let z2 = z.clone();
        tm.atomic(move |ctx| {
            let z3 = z2.clone();
            let f = ctx.submit(move |c| {
                c.work(100);
                c.write(&z3, 1)?;
                Ok(())
            })?;
            let z4 = z2.clone();
            let seen = ctx.step(move |c| {
                let v = c.read(&z4)?;
                c.work(1_000); // stay inside the segment while the future commits
                Ok(v)
            })?;
            ctx.evaluate(&f)?;
            Ok(seen)
        })
        .unwrap()
    });
    assert_eq!(out, 1, "segment retry re-read the future's write");
    assert!(
        stats.segment_retries >= 1,
        "partial rollback, not a top restart"
    );
    assert_eq!(stats.top_internal_restarts, 0);
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn fast_future_serializes_at_submission() {
    let (out, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        let r = tm
            .atomic(move |ctx| {
                let x3 = x2.clone();
                let f = ctx.submit(move |c| {
                    let v = c.read(&x3)?; // reads x=0 immediately
                    c.write(&x3, v + 1)?;
                    Ok(v)
                })?;
                ctx.work(500); // future completes, serializes at submission
                let v = ctx.read(&x2)?; // continuation sees the increment
                ctx.write(&x2, v + 10)?;
                ctx.evaluate(&f)
            })
            .unwrap();
        (r, x.read_latest())
    });
    assert_eq!(out.0, 0);
    assert_eq!(out.1, 11, "increment then +10");
    assert_eq!(stats.serialized_at_submission, 1);
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn backward_validation_conflict_path() {
    // Force the pending-then-conflict path: the continuation reads the
    // future's write target first (parking the future at completion), and
    // also writes something the future read (failing backward validation).
    let (out, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let a = tm.new_vbox(0i64); // future reads a
        let b = tm.new_vbox(0i64); // future writes b
        let (a2, b2) = (a.clone(), b.clone());
        let r = tm
            .atomic(move |ctx| {
                let (a3, b3) = (a2.clone(), b2.clone());
                let f = ctx.submit(move |c| {
                    let v = c.read(&a3)?; // reads a
                    c.work(100);
                    c.write(&b3, v + 1)?; // writes b
                    Ok(v)
                })?;
                ctx.read(&b2)?; // continuation reads b (blocks submission pt)
                ctx.write(&a2, 50)?; // and writes a (blocks evaluation pt)
                ctx.work(1_000);
                ctx.evaluate(&f)
            })
            .unwrap();
        (r, b.read_latest())
    });
    assert_eq!(
        stats.reexecutions, 1,
        "neither point fit: inline re-execution"
    );
    assert_eq!(out.0, 50, "re-execution saw the continuation's write to a");
    assert_eq!(out.1, 51);
    assert_eq!(stats.serialized_at_evaluation, 1);
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn repeated_evaluation_is_idempotent() {
    let (vals, _, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(5i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let f = ctx.submit(move |c| c.read(&x3))?;
            let v1 = ctx.evaluate(&f)?;
            ctx.write(&x2, 99)?; // must not affect the fixed result
            let v2 = ctx.evaluate(&f)?;
            Ok((v1, v2))
        })
        .unwrap()
    });
    assert_eq!(
        vals,
        (5, 5),
        "§3.2: repeated evaluations return the same result"
    );
}

#[test]
fn try_evaluate_is_nonblocking() {
    let (out, _, makespan) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(1i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let f = ctx.submit(move |c| {
                c.work(10_000);
                c.read(&x3)
            })?;
            let early = ctx.try_evaluate(&f)?; // still running
            let late = ctx.evaluate(&f)?;
            Ok((early, late))
        })
        .unwrap()
    });
    assert_eq!(out, (None, 1));
    assert!(makespan >= 10_000);
}

#[test]
fn out_of_order_evaluation_avoids_stragglers_wo() {
    // Fig. 3: a slow future must not block evaluation of a fast one (WO).
    let (_, _, makespan) = with_vtm(Semantics::WO_GAC, 4, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let slow = ctx.submit(move |c| {
                c.work(10_000);
                c.read(&x3)
            })?;
            let x4 = x2.clone();
            let fast = ctx.submit(move |c| {
                c.work(100);
                c.read(&x4)
            })?;
            let f = ctx.evaluate(&fast)?; // available at ~100
            assert_eq!(f, 0);
            ctx.evaluate(&slow)?;
            Ok(())
        })
        .unwrap();
    });
    // Total span is bounded by the slow future, not the sum.
    assert!(makespan < 12_000, "makespan {makespan}");
}

#[test]
fn so_commits_futures_in_spawn_order() {
    // Under SO the fast future's evaluation waits for the straggler
    // submitted before it (spawn-order commit).
    let run = |sem: Semantics| {
        let (t_fast_eval, _, _) = with_vtm(sem, 4, |tm| {
            let x = tm.new_vbox(0i64);
            let x2 = x.clone();
            tm.atomic(move |ctx| {
                let x3 = x2.clone();
                let slow = ctx.submit(move |c| {
                    c.work(10_000);
                    c.read(&x3)
                })?;
                let x4 = x2.clone();
                let fast = ctx.submit(move |c| {
                    c.work(100);
                    c.read(&x4)
                })?;
                ctx.evaluate(&fast)?;
                let now = Clock::current().now();
                ctx.evaluate(&slow)?;
                Ok(now)
            })
            .unwrap()
        });
        t_fast_eval
    };
    let so = run(Semantics::SO);
    let wo = run(Semantics::WO_GAC);
    assert!(
        so >= 10_000,
        "SO: fast future blocked behind the straggler (t={so})"
    );
    assert!(wo < 5_000, "WO: fast future evaluated immediately (t={wo})");
}

#[test]
fn nested_futures_fig1b() {
    // A future spawns a future and returns its handle; the inner future's
    // continuation spans two sub-transactions (w(x) by TF1, w(y) by T0).
    // It must observe both writes — via inline re-execution if its eager
    // run saw inconsistent state.
    let (v, stats, _) = with_vtm(Semantics::WO_GAC, 4, |tm| {
        let x = tm.new_vbox(0i64);
        let y = tm.new_vbox(0i64);
        let probe = tm.new_vbox(0i64);
        let (x2, y2, p2) = (x.clone(), y.clone(), probe.clone());
        tm.atomic(move |ctx| {
            let (x3, y3, p3) = (x2.clone(), y2.clone(), p2.clone());
            let f1 = ctx.submit(move |c| {
                let (x4, y4, p4) = (x3.clone(), y3.clone(), p3.clone());
                let f2 = c.submit(move |c2| {
                    let a = c2.read(&x4)?;
                    let b = c2.read(&y4)?;
                    c2.write(&p4, 1)?;
                    Ok(a + b)
                })?;
                c.write(&x3, 10)?;
                Ok(f2)
            })?;
            ctx.write(&y2, 20)?;
            // Reading `probe` (which TF2 writes) blocks TF2's serialization
            // at its submission point, forcing the evaluation point — where
            // its continuation's writes w(x), w(y) must be visible.
            ctx.read(&p2)?;
            ctx.work(1_000);
            let f2: TxFuture<i64> = ctx.evaluate(&f1)?;
            ctx.evaluate(&f2)
        })
        .unwrap()
    });
    assert_eq!(
        v, 30,
        "TF2 observed both continuation writes (w(x) by TF1, w(y) by T0)"
    );
    assert_eq!(stats.futures_submitted, 2);
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn fig4_overlapping_continuations() {
    let (out, stats, _) = with_vtm(Semantics::WO_GAC, 4, |tm| {
        let x = tm.new_vbox(0i64);
        let y = tm.new_vbox(0i64);
        let z = tm.new_vbox(0i64);
        let (x2, y2, z2) = (x.clone(), y.clone(), z.clone());
        tm.atomic(move |ctx| {
            let (x3, y3) = (x2.clone(), y2.clone());
            let f1 = ctx.submit(move |c| {
                c.work(50);
                let a = c.read(&x3)?;
                let b = c.read(&y3)?;
                Ok((a, b))
            })?;
            ctx.write(&x2, 1)?;
            let (y4, z4) = (y2.clone(), z2.clone());
            let f2 = ctx.submit(move |c| {
                c.work(50);
                let a = c.read(&y4)?;
                let b = c.read(&z4)?;
                Ok((a, b))
            })?;
            ctx.write(&y2, 2)?;
            ctx.write(&z2, 3)?;
            let r1 = ctx.evaluate(&f1)?;
            let r2 = ctx.evaluate(&f2)?;
            Ok((r1, r2))
        })
        .unwrap()
    });
    // TF1 must see {x,y} both-or-neither of {1,2}; TF2 must see {y,z}
    // both-or-neither of {2,3}.
    let (r1, r2) = out;
    assert!(
        r1 == (0, 0) || r1 == (1, 2),
        "TF1 atomic w.r.t. its continuation: {r1:?}"
    );
    assert!(
        r2 == (0, 0) || r2 == (2, 3),
        "TF2 atomic w.r.t. its continuation: {r2:?}"
    );
    assert_eq!(stats.top_commits, 1);
}

#[test]
fn explicit_abort_in_future_propagates() {
    let (res, _, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        let r = tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let f = ctx.submit(move |c| {
                c.write(&x3, 1)?;
                c.abort::<i64>()
            })?;
            ctx.evaluate(&f)
        });
        (r, x.read_latest())
    });
    assert!(res.0.is_err(), "UserAbort propagates through evaluate");
    assert_eq!(res.1, 0, "no effects leak");
}

#[test]
fn lac_implicitly_evaluates_escaping_future_at_commit() {
    let (out, stats, makespan) = with_vtm(Semantics::WO_LAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let _f = ctx.submit(move |c| {
                c.work(5_000);
                c.write(&x3, 42)?;
                Ok(())
            })?;
            // Reading x blocks the future's submission-point serialization,
            // so LAC's commit must settle it by implicit evaluation.
            let seen = ctx.read(&x2)?;
            assert_eq!(seen, 0);
            Ok(()) // commit without evaluating: LAC blocks and settles it
        })
        .unwrap();
        x.read_latest()
    });
    assert_eq!(
        out, 42,
        "the implicit evaluation included the future's effects"
    );
    assert_eq!(stats.implicit_evaluations, 1);
    assert_eq!(stats.serialized_at_evaluation, 1);
    assert!(makespan >= 5_000, "commit blocked on the future");
}

#[test]
fn gac_commit_does_not_wait_and_future_is_adopted() {
    let clock = Clock::virtual_time();
    let (vals, stats) = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(2)
            .build();
        let data = tm.new_vbox(5i64);
        let handle = tm.new_vbox::<Option<TxFuture<i64>>>(None);
        let (d2, h2) = (data.clone(), handle.clone());
        // T1 spawns the future and commits without evaluating it.
        tm.atomic(move |ctx| {
            ctx.write(&d2, 7)?;
            let d3 = d2.clone();
            let f = ctx.submit(move |c| {
                c.work(5_000);
                let v = c.read(&d3)?;
                Ok(v * 2)
            })?;
            ctx.write(&h2, Some(f))?;
            Ok(())
        })
        .unwrap();
        let t_commit = Clock::current().now();
        assert!(t_commit < 5_000, "GAC: T1 did not wait for the future");
        // T2 retrieves the handle and evaluates (adopts) the future.
        let h3 = handle.clone();
        let v = tm
            .atomic(move |ctx| {
                let f = ctx.read(&h3)?.expect("handle published");
                ctx.evaluate(&f)
            })
            .unwrap();
        let stats = tm.stats();
        tm.shutdown();
        ((t_commit, v), stats)
    });
    assert_eq!(
        vals.1, 14,
        "adopted future computed over T1's committed state"
    );
    assert_eq!(stats.adopted_escaping, 1);
    assert_eq!(stats.top_commits, 2);
}

/// A future still running when its top-level commits reads under the
/// top-level's registration, so that commit's version GC must not
/// discount it: here the continuation overwrites the very box the
/// future reads next, and the version the future needs is the one the
/// commit would prune. TL2 keeps one version, so there the read fails:
/// the committed spawner is not cancelled for it, and the future escapes
/// as one its adopter re-executes.
#[test]
fn escaped_future_reads_what_its_spawners_commit_overwrote() {
    use crate::{with_backend, BackendKind};
    for kind in BackendKind::ALL {
        let vtm = |f| with_backend(kind, || with_vtm(Semantics::WO_GAC, 2, f));
        let ((state, adopted), stats, _) = vtm(|tm: &FutureTm| {
            let x = tm.new_vbox(0i64);
            let handle = tm.new_vbox::<Option<TxFuture<i64>>>(None);
            tm.atomic(|ctx| {
                let x2 = x.clone();
                let f = ctx.submit(move |c| {
                    c.work(500);
                    c.read(&x2)
                })?;
                ctx.write(&x, 99)?;
                ctx.write(&handle, Some(f))
            })
            .unwrap();
            let f = tm
                .atomic(|ctx| ctx.read(&handle))
                .unwrap()
                .expect("handle published");
            while !f.is_done_executing() {
                Clock::current().advance(100);
            }
            let state = f.state();
            (state, tm.atomic(|ctx| ctx.evaluate(&f)))
        });
        assert_eq!(state, crate::FutState::Completed, "{kind:?}: the body ran");
        // The body read x = 0 under the spawner's snapshot (mvstm), or
        // failed to (TL2); the adopter re-executes against x = 99.
        assert_eq!(adopted, Ok(99), "{kind:?}");
        assert_eq!(stats.adopted_escaping, 1, "{kind:?}");
    }
}

#[test]
fn gac_adoption_revalidates_and_reexecutes_on_staleness() {
    let clock = Clock::virtual_time();
    let (v, stats) = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(2)
            .build();
        let data = tm.new_vbox(5i64);
        let handle = tm.new_vbox::<Option<TxFuture<i64>>>(None);
        let probe = tm.new_vbox(0i64);
        let (d2, h2, p2) = (data.clone(), handle.clone(), probe.clone());
        tm.atomic(move |ctx| {
            let (d3, p3) = (d2.clone(), p2.clone());
            let f = ctx.submit(move |c| {
                let v = c.read(&d3)?;
                c.write(&p3, 1)?;
                Ok(v * 2)
            })?;
            ctx.write(&h2, Some(f))?;
            // Reading the probe blocks serialization at submission, so the
            // future escapes T1 unserialized.
            ctx.read(&p2)?;
            ctx.work(100); // let the future finish while T1 is active
            Ok(())
        })
        .unwrap();
        // A third transaction invalidates the future's read.
        let d4 = data.clone();
        tm.atomic(move |ctx| ctx.write(&d4, 100)).unwrap();
        // Now the adoption must re-execute against the fresh state.
        let h3 = handle.clone();
        let v = tm
            .atomic(move |ctx| {
                let f = ctx.read(&h3)?.expect("handle");
                ctx.evaluate(&f)
            })
            .unwrap();
        let stats = tm.stats();
        tm.shutdown();
        (v, stats)
    });
    assert_eq!(v, 200, "re-executed against the updated value");
    assert_eq!(stats.reexecutions, 1);
    assert_eq!(stats.adopted_escaping, 1);
}

#[test]
fn gac_unevaluated_escaping_future_never_commits_effects() {
    let (x_final, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let x2 = x.clone();
        tm.atomic(move |ctx| {
            let x3 = x2.clone();
            let _f = ctx.submit(move |c| {
                c.write(&x3, 99)?;
                Ok(())
            })?;
            Ok(())
        })
        .unwrap();
        // Give the future time to complete (its effects must still not
        // materialize — it is only serialized upon an evaluation that
        // never happens).
        let y = tm.new_vbox(0i64);
        let y2 = y.clone();
        tm.atomic(move |ctx| {
            ctx.work(10_000);
            ctx.write(&y2, 1)
        })
        .unwrap();
        x.read_latest()
    });
    assert_eq!(x_final, 0);
    assert_eq!(stats.adopted_escaping, 0);
}

#[test]
fn deterministic_virtual_execution() {
    let run = || {
        with_vtm(Semantics::WO_GAC, 4, |tm| {
            let boxes: Vec<_> = (0..8).map(|i| tm.new_vbox(i as i64)).collect();
            let mut acc = 0i64;
            for round in 0..5 {
                let boxes2 = boxes.clone();
                acc += tm
                    .atomic(move |ctx| {
                        let mut futs = Vec::new();
                        for (i, b) in boxes2.iter().enumerate() {
                            let b2 = b.clone();
                            futs.push(ctx.submit(move |c| {
                                c.work(100 * (i as u64 + 1));
                                let v = c.read(&b2)?;
                                c.write(&b2, v + 1)?;
                                Ok(v)
                            })?);
                        }
                        let mut sum = 0i64;
                        for f in &futs {
                            sum += ctx.evaluate(f)?;
                        }
                        Ok(sum + round)
                    })
                    .unwrap();
            }
            acc
        })
    };
    let (a1, s1, m1) = run();
    let (a2, s2, m2) = run();
    assert_eq!(a1, a2);
    assert_eq!(s1, s2);
    assert_eq!(m1, m2);
}

#[test]
fn parallel_futures_give_virtual_speedup() {
    // Fixed total work split across k futures: virtual makespan shrinks.
    let span = |futures: u64| {
        let (_, _, makespan) = with_vtm(Semantics::WO_GAC, 8, |tm| {
            let x = tm.new_vbox(1i64);
            let x2 = x.clone();
            tm.atomic(move |ctx| {
                let mut futs = Vec::new();
                for _ in 0..futures {
                    let x3 = x2.clone();
                    futs.push(ctx.submit(move |c| {
                        c.work(8_000 / futures);
                        c.read(&x3)
                    })?);
                }
                for f in &futs {
                    ctx.evaluate(f)?;
                }
                Ok(())
            })
            .unwrap();
        });
        makespan
    };
    let serial = span(1);
    let parallel = span(8);
    assert!(
        parallel * 4 < serial,
        "8-way futures at least 4x faster in virtual time ({parallel} vs {serial})"
    );
}

#[test]
fn cross_top_conflicts_preserve_counter() {
    // Two virtual threads increment the same counter through futures;
    // the final count is exact.
    let clock = Clock::virtual_time();
    let total = clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(8)
            .build();
        let counter = tm.new_vbox(0i64);
        let c = Clock::current();
        let hs: Vec<_> = (0..2)
            .map(|t| {
                let tm = tm.clone();
                let counter = counter.clone();
                c.spawn(&format!("top{t}"), move || {
                    for _ in 0..10 {
                        let counter2 = counter.clone();
                        tm.atomic(move |ctx| {
                            let c2 = counter2.clone();
                            let f = ctx.submit(move |c| {
                                c.work(37);
                                let v = c.read(&c2)?;
                                Ok(v)
                            })?;
                            let v = ctx.evaluate(&f)?;
                            ctx.write(&counter2, v + 1)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let v = counter.read_latest();
        tm.shutdown();
        v
    });
    assert_eq!(total, 20, "lost updates prevented across top-levels");
}

#[test]
fn bank_invariant_with_futures_real_clock() {
    // Real-thread stress: transfers split across futures; conservation holds.
    let clock = Clock::real_nospin();
    clock.enter(|| {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(16)
            .build();
        const N: usize = 16;
        let accounts: Arc<Vec<_>> = Arc::new((0..N).map(|_| tm.new_vbox(100i64)).collect());
        let c = Clock::current();
        let hs: Vec<_> = (0..4)
            .map(|t| {
                let tm = tm.clone();
                let accounts = accounts.clone();
                c.spawn(&format!("client{t}"), move || {
                    let mut seed = 0xdeadbeefu64 ^ ((t as u64) << 7);
                    let mut next = move || {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        seed
                    };
                    for _ in 0..50 {
                        let from = (next() % N as u64) as usize;
                        let to = (next() % N as u64) as usize;
                        if from == to {
                            continue;
                        }
                        let accounts2 = accounts.clone();
                        tm.atomic(move |ctx| {
                            let (a, b) = (accounts2[from].clone(), accounts2[to].clone());
                            let f = ctx.submit(move |c| {
                                let v = c.read(&a)?;
                                c.write(&a, v - 5)?;
                                Ok(())
                            })?;
                            let v = ctx.read(&accounts2[to])?;
                            ctx.write(&b, v + 5)?;
                            ctx.evaluate(&f)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        let total: i64 = accounts.iter().map(|a| a.read_latest()).sum();
        assert_eq!(total, 100 * N as i64);
        tm.shutdown();
    });
}

#[test]
fn many_futures_fanout() {
    let (sum, stats, _) = with_vtm(Semantics::WO_GAC, 32, |tm| {
        let boxes: Vec<_> = (0..32).map(|i| tm.new_vbox(i as i64)).collect();
        let boxes2 = boxes.clone();
        tm.atomic(move |ctx| {
            let futs: Vec<_> = boxes2
                .iter()
                .map(|b| {
                    let b2 = b.clone();
                    ctx.submit(move |c| c.read(&b2))
                })
                .collect::<Result<_, _>>()?;
            let mut sum = 0i64;
            for f in &futs {
                sum += ctx.evaluate(f)?;
            }
            Ok(sum)
        })
        .unwrap()
    });
    assert_eq!(sum, (0..32).sum::<i64>());
    assert_eq!(stats.futures_submitted, 32);
}

// ---------------- wtf-inspect: exporters and the in-flight list ----------------

/// Graph exporters: mid-flight DOT and JSON renderings of a top-level
/// with a submitted future reflect node kinds, statuses and edges.
#[test]
fn graph_exporters_render_live_top() {
    let ((dot, json), _, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        tm.atomic(|ctx| {
            let f = ctx.submit(|_| Ok(7u64))?;
            let dot = ctx.top.graph_dot();
            let json = ctx.top.graph_json();
            ctx.evaluate(&f)?;
            Ok((dot, json))
        })
        .unwrap()
    });
    assert!(dot.starts_with("digraph top0"), "{dot}");
    // Submit creates the future node n1 and the continuation node n2,
    // both children of the iCommitted root.
    assert!(dot.contains("n1 future"), "{dot}");
    assert!(dot.contains("n2 cont"), "{dot}");
    assert!(dot.contains("n0 root icommitted"), "{dot}");
    assert!(dot.contains("n0 -> n1;"), "{dot}");
    assert!(dot.contains("n0 -> n2;"), "{dot}");
    let parsed = wtf_trace::Json::parse(&json.to_string()).unwrap();
    assert_eq!(parsed.get("top"), Some(&wtf_trace::Json::U64(0)));
    assert_eq!(parsed.get("nodes").unwrap().as_arr().unwrap().len(), 3);
    assert_eq!(parsed.get("edges").unwrap().as_arr().unwrap().len(), 2);
    // iCommit order: root (rank 0) before its children.
    let order = parsed.get("icommit_order").unwrap().as_arr().unwrap();
    assert_eq!(order[0], wtf_trace::Json::U64(0));
}

/// Live TM gauges (in-flight tops, nodes) report through the tracer.
#[test]
fn tm_gauges_track_live_tops_and_nodes() {
    use wtf_trace::{TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Lifecycle);
    let clock = Clock::virtual_time();
    let t2 = tracer.clone();
    clock.enter(move || {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(2)
            .tracer(t2.clone())
            .build();
        let gauge = |name: &str| {
            t2.gauges
                .read_all()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
                .unwrap()
        };
        assert_eq!(gauge("tm_live_tops"), 0);
        tm.atomic(|ctx| {
            assert_eq!(gauge("tm_live_nodes"), 1, "a flat top-level is its root");
            let f = ctx.submit(|_| Ok(1u64))?;
            assert_eq!(gauge("tm_live_tops"), 1);
            // Root + future node + continuation node.
            assert_eq!(gauge("tm_live_nodes"), 3);
            ctx.evaluate(&f)
        })
        .unwrap();
        assert_eq!(gauge("tm_live_tops"), 0, "finished top is dropped");
        tm.shutdown();
    });
}

/// The in-flight list is sharded by registering thread; its readers see
/// the union, oldest first, and nothing once the transactions are gone.
#[test]
fn live_tops_merges_every_threads_shard() {
    let tm = FutureTm::builder()
        .semantics(Semantics::WO_GAC)
        .tracer(wtf_trace::Tracer::new(wtf_trace::TraceLevel::Lifecycle))
        .build();
    let barrier = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                tm.atomic(|_| {
                    barrier.wait();
                    barrier.wait();
                    Ok(())
                })
                .unwrap();
            });
        }
        barrier.wait();
        let live = tm.inner.live_tops();
        let ids: Vec<u64> = live.iter().map(|t| t.id).collect();
        assert_eq!(ids, [0, 1, 2]);
        drop(live);
        barrier.wait();
    });
    assert!(tm.inner.live_tops().is_empty());
    tm.shutdown();
}

/// Only the gauges read the in-flight list, and they exist only on a TM
/// built traced: an untraced TM keeps no list, so a begin takes no shard
/// lock and the list is empty while a top-level is in flight.
#[test]
fn untraced_tm_keeps_no_in_flight_list() {
    let tm = FutureTm::new(Semantics::WO_GAC);
    tm.atomic(|ctx| {
        assert!(ctx.tm.live_tops().is_empty(), "in flight, yet not listed");
        Ok(())
    })
    .unwrap();
    tm.shutdown();
}

// ---------------- flat top-levels and the stamp protocol ----------------

/// Regression for the lost update behind the benchmark's `bank-futures-2`:
/// `Graph::update` ran a completing future's forward-validation scan
/// *before* moving the stamp, so a sibling future that recorded its read
/// after the scan still passed its stamp re-check with the stale value
/// and was then ordered after the serialized future. Real threads only,
/// two futures in flight: Bank in chunks of 8 operations, every one a
/// future, whichever settles first evaluated first. Every transfer
/// conserves the total, so every `getTotalAmount` must return it.
#[test]
fn bank_two_futures_in_flight_conserves_total() {
    use std::time::{Duration, Instant};
    const ACCOUNTS: usize = 64;
    const TOTAL: i64 = 1_000 * ACCOUNTS as i64;
    for semantics in [Semantics::WO_GAC, Semantics::SO] {
        Clock::real_nospin().enter(|| {
            let tm = FutureTm::builder().semantics(semantics).workers(4).build();
            let accounts: Arc<Vec<_>> =
                Arc::new((0..ACCOUNTS).map(|_| tm.new_vbox(1_000i64)).collect());
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            let mut below = move |n: usize| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 33) as usize % n
            };
            let deadline = Instant::now() + Duration::from_millis(1500);
            let mut chunks = 0u64;
            while Instant::now() < deadline {
                // `None` is getTotalAmount; `Some` a transfer of 4 pairs.
                let ops: Vec<Option<[(usize, usize); 4]>> = (0..8)
                    .map(|_| {
                        (below(5) > 0).then(|| [(); 4].map(|_| (below(ACCOUNTS), below(ACCOUNTS))))
                    })
                    .collect();
                let totals = tm
                    .atomic(|ctx| {
                        let mut totals = Vec::new();
                        let mut flying: Vec<TxFuture<i64>> = Vec::new();
                        for op in &ops {
                            if flying.len() == 2 {
                                let (i, v) = ctx.evaluate_any(&flying)?;
                                flying.remove(i);
                                totals.push(v);
                            }
                            let (accounts, op) = (accounts.clone(), *op);
                            flying.push(ctx.submit(move |c| match op {
                                None => {
                                    let mut total = 0;
                                    for a in accounts.iter() {
                                        total += c.read(a)?;
                                    }
                                    Ok(total)
                                }
                                Some(pairs) => {
                                    for (from, to) in pairs {
                                        let v = c.read(&accounts[from])?;
                                        c.write(&accounts[from], v - 7)?;
                                        let v = c.read(&accounts[to])?;
                                        c.write(&accounts[to], v + 7)?;
                                    }
                                    Ok(TOTAL)
                                }
                            })?);
                        }
                        while !flying.is_empty() {
                            let (i, v) = ctx.evaluate_any(&flying)?;
                            flying.remove(i);
                            totals.push(v);
                        }
                        Ok(totals)
                    })
                    .unwrap();
                assert!(
                    totals.iter().all(|&t| t == TOTAL),
                    "{semantics:?}: chunk {chunks} saw a never-committed total: {totals:?}"
                );
                chunks += 1;
            }
            let total: i64 = accounts.iter().map(|a| a.read_latest()).sum();
            assert_eq!(
                total, TOTAL,
                "{semantics:?}: lost update in {chunks} chunks"
            );
            tm.shutdown();
        });
    }
}

/// A closure that unwinds inside a graph update (forward validation is
/// one) must not leave the seqlock open or a node the table never got:
/// the stamp is even again, the node is gone, the top-level is doomed,
/// and the next read fails at once instead of spinning on the stamp.
#[test]
fn panic_inside_graph_update_dooms_the_top_level() {
    use crate::graph::NodeStatus;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wtf_backend::StmError;
    let mut attempts = 0;
    let (v, _, _) = with_vtm(Semantics::WO_GAC, 1, |tm| {
        let x = tm.new_vbox(5i64);
        tm.atomic(|ctx| {
            attempts += 1;
            ctx.step(|c| c.read(&x))?;
            if attempts == 1 {
                let top = ctx.top.clone();
                let (stamp, nodes) = (top.sub().graph.stamp(), top.node_count());
                let unwound = catch_unwind(AssertUnwindSafe(|| {
                    top.update_graph(|g| {
                        g.add_node(NodeStatus::Active, &[0]);
                        panic!("mid-update");
                    })
                }));
                assert!(unwound.is_err());
                let (after, g) = top.sub().graph.snapshot();
                assert_eq!(after, stamp + 2, "the seqlock closed");
                assert_eq!(g.len(), nodes, "no node without a table entry");
                assert!(top.is_doomed());
                assert_eq!(ctx.read(&x), Err(StmError::Conflict));
            }
            ctx.read(&x)
        })
        .unwrap()
    });
    assert_eq!((v, attempts), (5, 2), "the doomed incarnation restarted");
}

/// Cancelling a body's children is one graph update however many there
/// are: readers' views go stale once per sweep, not once per future.
#[test]
fn cancelling_children_is_one_graph_update() {
    with_vtm(Semantics::WO_GAC, 4, |tm| {
        tm.atomic(|ctx| {
            let parent = ctx.submit(|c| {
                let kids = [c.submit(|_| Ok(1i64))?, c.submit(|_| Ok(2i64))?];
                Ok(c.evaluate(&kids[0])? + c.evaluate(&kids[1])?)
            })?;
            assert_eq!(ctx.evaluate(&parent)?, 3);
            let graph = &ctx.top.sub().graph;
            let before = graph.stamp();
            ctx.top.cancel_children(&ctx.tm, &parent.core);
            assert_eq!(graph.stamp(), before + 2, "two children, one update");
            Ok(())
        })
        .unwrap();
    });
}

/// An inflated commit hands the backend every segment's global reads as
/// they are, duplicates included (validating a box twice changes no
/// verdict). What a trace says must not depend on that: a traced commit
/// names a box two segments read once, in its `CommitRead` record and in
/// the read count of `StmValidationSpan`.
#[test]
fn traced_commit_names_a_box_read_by_two_segments_once() {
    use wtf_trace::{EventKind, TraceLevel, Tracer};
    let tracer = Tracer::new(TraceLevel::Full);
    let t2 = tracer.clone();
    let x_id = Clock::virtual_time().enter(move || {
        let tm = FutureTm::builder()
            .semantics(Semantics::WO_GAC)
            .workers(1)
            .tracer(t2)
            .build();
        let (x, y) = (tm.new_vbox(1i64), tm.new_vbox(0i64));
        tm.atomic(|ctx| {
            let a = ctx.step(|c| c.read(&x))?;
            let b = ctx.step(|c| c.read(&x))?;
            ctx.write(&y, a + b)
        })
        .unwrap();
        assert_eq!(y.read_latest(), 2);
        tm.shutdown();
        x.id().0
    });
    let events: Vec<_> = tracer.lanes().into_iter().flat_map(|(_, e)| e).collect();
    let of = |kind| events.iter().filter(move |e| e.kind == kind);
    let named: Vec<u64> = of(EventKind::CommitRead).map(|e| e.a).collect();
    assert_eq!(named, vec![x_id], "one CommitRead for the one box read");
    let counts: Vec<u64> = of(EventKind::StmValidationSpan).map(|e| e.b).collect();
    assert_eq!(counts, vec![1], "validated read count");
}

/// The read-set is a log, not a map: it grows with the reads performed.
/// A loop that re-reads one box appends once — the repeat is adjacent —
/// while `x, y, x` appends three entries, which an untraced commit
/// validates as they are and a traced commit names once each, flat or
/// inflated.
#[test]
fn read_log_suppresses_adjacent_repeats_only() {
    use wtf_trace::{EventKind, TraceLevel, Tracer};
    for inflate in [false, true] {
        let tracer = Tracer::new(TraceLevel::Full);
        let t2 = tracer.clone();
        let mut ids = Clock::virtual_time().enter(move || {
            let tm = FutureTm::builder()
                .semantics(Semantics::WO_GAC)
                .workers(1)
                .tracer(t2)
                .build();
            let (x, y) = (tm.new_vbox(1i64), tm.new_vbox(2i64));
            tm.atomic(|ctx| {
                if inflate {
                    ctx.step(|_| Ok(()))?;
                }
                let mut sum = 0;
                for _ in 0..100_000 {
                    sum += ctx.read(&x)?;
                }
                assert_eq!(ctx.node.reads.len(), 1, "100,000 reads of one box");
                sum += ctx.read(&y)? + ctx.read(&x)?;
                assert_eq!(ctx.node.reads.len(), 3, "x, y, x");
                ctx.write(&y, sum)
            })
            .unwrap();
            assert_eq!(y.read_latest(), 100_003);
            tm.shutdown();
            vec![x.id().0, y.id().0]
        });
        ids.sort_unstable();
        let events: Vec<_> = tracer.lanes().into_iter().flat_map(|(_, e)| e).collect();
        let of = |kind| events.iter().filter(move |e| e.kind == kind);
        let named: Vec<u64> = of(EventKind::CommitRead).map(|e| e.a).collect();
        assert_eq!(named, ids, "inflate={inflate}: one CommitRead per box");
        let counts: Vec<u64> = of(EventKind::StmValidationSpan).map(|e| e.b).collect();
        assert_eq!(counts, vec![2], "inflate={inflate}: validated read count");
    }
}

/// A top-level transaction has no graph until its first sub-transaction:
/// reads, writes and the exporters see a single root, and the first
/// `submit` builds G around that root.
#[test]
fn top_level_is_flat_until_first_submit() {
    let (sum, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(20i64);
        tm.atomic(|ctx| {
            let v = ctx.read(&x)?;
            ctx.write(&x, v + 1)?;
            assert!(ctx.top.inflated().is_none(), "no sub-transaction yet");
            assert_eq!(ctx.top.node_count(), 1);
            let dot = ctx.top.graph_dot();
            assert!(dot.contains("n0 root active"), "{dot}");
            assert!(!dot.contains("n1") && !dot.contains("->"), "{dot}");
            let json = wtf_trace::Json::parse(&ctx.top.graph_json().to_string()).unwrap();
            assert_eq!(json.get("nodes").unwrap().as_arr().unwrap().len(), 1);
            assert!(json.get("edges").unwrap().as_arr().unwrap().is_empty());
            assert!(ctx.top.inflated().is_none(), "rendering does not inflate");
            let x2 = x.clone();
            let f = ctx.submit(move |c| c.read(&x2))?;
            assert_eq!(ctx.top.node_count(), 3, "root + future + continuation");
            // The future sees the write the flat root buffered.
            Ok(ctx.evaluate(&f)? + ctx.read(&x)?)
        })
        .unwrap()
    });
    assert_eq!(sum, 42);
    assert_eq!(stats.top_commits, 1);
}

/// A doom that lands on a flat top-level (set by hand here: the runtime
/// dooms only inflated ones) takes the replay-restart path: G is built
/// around the abandoned root, the body re-runs from a fresh chain root on
/// the same snapshot, and commits.
#[test]
fn doom_on_flat_top_level_replays_and_commits() {
    let (attempts, stats, _) = with_vtm(Semantics::WO_GAC, 2, |tm| {
        let x = tm.new_vbox(0i64);
        let mut attempts = 0u32;
        tm.atomic(|ctx| {
            attempts += 1;
            ctx.write(&x, 7)?;
            if attempts == 1 {
                assert!(ctx.top.inflated().is_none());
                ctx.top.doom();
            } else {
                assert_eq!(ctx.top.node_count(), 2, "old root + replay root");
            }
            let v = ctx.read(&x)?; // the doomed incarnation stops here
            ctx.write(&x, v + 1)
        })
        .unwrap();
        assert_eq!(x.read_latest(), 8);
        attempts
    });
    assert_eq!(attempts, 2);
    assert_eq!(stats.top_internal_restarts, 1);
    assert_eq!((stats.top_commits, stats.top_aborts), (1, 0));
}

/// GAC adoption by a future-free transaction. A valid escape record is
/// merged into the flat root (no G needed); a stale one re-executes the
/// body inline on the adopter's context, and a body that submits inflates
/// the adopter at that point.
#[test]
fn escaping_future_adopted_by_flat_top_level() {
    for stale in [false, true] {
        let ((v, inflated), stats, _) = with_vtm(Semantics::WO_GAC, 3, |tm| {
            let data = tm.new_vbox(5i64);
            let handle = tm.new_vbox::<Option<TxFuture<i64>>>(None);
            let probe = tm.new_vbox(0i64);
            tm.atomic(|ctx| {
                let (d, p) = (data.clone(), probe.clone());
                let f = ctx.submit(move |c| {
                    c.write(&p, 1)?;
                    let d2 = d.clone();
                    let nested = c.submit(move |n| n.read(&d2))?;
                    Ok(c.evaluate(&nested)? * 2)
                })?;
                ctx.write(&handle, Some(f))?;
                // Reading the probe blocks serialization at submission, so
                // the future escapes unserialized.
                ctx.read(&probe)?;
                ctx.work(100);
                Ok(())
            })
            .unwrap();
            if stale {
                tm.atomic(|ctx| ctx.write(&data, 100)).unwrap();
            }
            tm.atomic(|ctx| {
                let f = ctx.read(&handle)?.expect("handle published");
                assert!(ctx.top.inflated().is_none());
                let v = ctx.evaluate(&f)?;
                Ok((v, ctx.top.inflated().is_some()))
            })
            .unwrap()
        });
        assert_eq!(v, if stale { 200 } else { 10 });
        assert_eq!(
            inflated, stale,
            "only the re-executed body's submit builds G"
        );
        assert_eq!(stats.adopted_escaping, 1);
        assert_eq!(stats.reexecutions, u64::from(stale));
    }
}

/// A future body that panics settles `Failed`, wherever it runs: on a
/// worker, re-executed by its evaluator, or re-executed by its adopter.
/// Its evaluator is woken with an error (the transaction aborts), the
/// worker that ran it takes the next future, and nothing of the
/// transactions stays alive.
#[test]
fn panicking_future_body_fails_the_future_and_keeps_the_worker() {
    use crate::{Aborted, BackendKind};
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::time::{Duration, Instant};
    use wtf_trace::{TraceLevel, Tracer};
    for kind in [BackendKind::Mvstm, BackendKind::Tl2] {
        let tracer = Tracer::new(TraceLevel::Lifecycle);
        let t2 = tracer.clone();
        Clock::real_nospin().enter(move || {
            let tm = FutureTm::builder()
                .semantics(Semantics::WO_GAC)
                .backend_kind(kind)
                .workers(1)
                .tracer(t2.clone())
                .build();
            let out: Result<u64, Aborted> = tm.atomic(|ctx| {
                let f =
                    ctx.submit(|_| -> crate::TxResult<u64> { panic!("future body blew up") })?;
                ctx.evaluate(&f)
            });
            assert_eq!(out, Err(Aborted), "{kind:?}");
            // Re-executed at evaluation: the continuation reads what the
            // body writes (no serialization at submission) and writes what
            // it reads (none at evaluation), so the evaluator re-runs the
            // body, which then sees x = 99. A gate holds the body's first
            // run back until the continuation is done; once open it stays
            // open.
            let (x, y) = (tm.new_vbox(0u64), tm.new_vbox(0u64));
            let reads_x = |gate: &Arc<AtomicBool>| {
                let (x, gate) = (x.clone(), gate.clone());
                move |c: &mut crate::TxCtx| {
                    while !gate.load(SeqCst) {
                        std::thread::yield_now();
                    }
                    if c.read(&x)? == 99 {
                        panic!("re-executed future body blew up");
                    }
                    Ok(0u64)
                }
            };
            let gate = Arc::new(AtomicBool::new(false));
            let out = tm.atomic(|ctx| {
                let (body, y2) = (reads_x(&gate), y.clone());
                let f = ctx.submit(move |c| {
                    let v = body(c)?;
                    c.write(&y2, 1)?;
                    Ok(v)
                })?;
                ctx.read(&y)?;
                ctx.write(&x, 99)?;
                gate.store(true, SeqCst);
                ctx.evaluate(&f)
            });
            assert_eq!(out, Err(Aborted), "{kind:?}: re-executed at evaluation");
            assert_eq!(tm.stats().reexecutions, 1, "{kind:?}");
            // Re-executed by an adopter: the future escapes its committed
            // spawner (its gate opens after that commit), x changes, and
            // the adopter re-runs the body.
            let gate = Arc::new(AtomicBool::new(false));
            let handle = tm.new_vbox::<Option<crate::TxFuture<u64>>>(None);
            tm.atomic(|ctx| {
                let f = ctx.submit(reads_x(&gate))?;
                ctx.write(&handle, Some(f))
            })
            .unwrap();
            gate.store(true, SeqCst);
            let f = tm.atomic(|ctx| ctx.read(&handle)).unwrap().unwrap();
            while !f.is_done_executing() {
                std::thread::yield_now();
            }
            assert_eq!(f.state(), crate::FutState::Completed, "{kind:?}: escaped");
            tm.atomic(|ctx| ctx.write(&x, 99)).unwrap();
            let out = tm.atomic(|ctx| ctx.evaluate(&f));
            assert_eq!(out, Err(Aborted), "{kind:?}: re-executed by its adopter");
            assert_eq!(f.state(), crate::FutState::Failed, "{kind:?}");
            assert_eq!(tm.stats().reexecutions, 2, "{kind:?}");
            // The pool's only worker survived.
            let next = tm.atomic(|ctx| {
                let f = ctx.submit(|_| Ok(7u64))?;
                ctx.evaluate(&f)
            });
            assert_eq!(next, Ok(7), "{kind:?}");
            // The worker drops its hold on the top-level after it notifies.
            let gauge = |name: &str| {
                let all = t2.gauges.read_all();
                all.into_iter().find(|(n, _)| n == name).unwrap().1
            };
            let deadline = Instant::now() + Duration::from_secs(10);
            while (gauge("tm_live_tops"), gauge("tm_live_nodes")) != (0, 0) {
                assert!(Instant::now() < deadline, "{kind:?}: a top-level leaked");
                std::thread::yield_now();
            }
            tm.shutdown();
        });
    }
}

/// A future's lifecycle, driven through `FutureCore::transition` alone:
/// from each phase (itself reached through the method), which move is
/// accepted and where it leads. Every call, accepted or not, wakes a
/// waiter parked on the future's event exactly once.
#[test]
fn lifecycle_transition_table() {
    use crate::future::{Done, EscapeRecord, FutureCore, Move, Phase};
    use crate::FutState::{self, *};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
    fn done(v: u64) -> Done {
        Done {
            final_node: 1,
            value: Arc::new(v),
        }
    }
    fn completed() -> Move {
        Move::Finish(Phase::Completed(done(1), None))
    }
    fn escaped() -> Move {
        Move::Finish(Phase::Completed(done(1), Some(EscapeRecord::Reexecute)))
    }
    let moves: [fn() -> Move; 8] = [
        || Move::Finish(Phase::Serialized(done(2))),
        || Move::Claim,
        || Move::ClaimEscape,
        || Move::Release(None),
        || Move::Serialize(Some(done(2))),
        || Move::Adopt(Some(Arc::new(2u64))),
        || Move::Fail,
        || Move::Cancel,
    ];
    const NO: Option<FutState> = None;
    let (se, ad, co) = (Some(Serialized), Some(Adopting), Some(Completed));
    let (ao, fa, ca) = (Some(Adopted), Some(Failed), Some(Cancelled));
    // A path from `Running` to the row's phase, and the state each move
    // leads to. Columns: finish, claim, claim escape, release, serialize,
    // adopt, fail, cancel. `NO`: refused, the phase stays as it is.
    type Row = (fn() -> Vec<Move>, [Option<FutState>; 8]);
    #[rustfmt::skip]
    let rows: [Row; 8] = [
        (Vec::new,                                      [se, NO, NO, NO, NO, NO, fa, ca]),
        (|| vec![completed()],                          [se, ad, NO, NO, NO, NO, fa, ca]),
        (|| vec![escaped()],                            [se, ad, ad, NO, NO, NO, fa, ca]),
        (|| vec![completed(), Move::Claim],             [se, NO, NO, co, se, ao, fa, ca]),
        // A fixed result is never replaced (§3.2 idempotent evaluation);
        // the serializing incarnation can still be abandoned.
        (|| vec![Move::Finish(Phase::Serialized(done(1)))], [NO, NO, NO, NO, NO, NO, NO, ca]),
        // An adopted future's effects belong to its adopter.
        (|| vec![escaped(), Move::ClaimEscape, Move::Adopt(None)], [NO; 8]),
        (|| vec![Move::Fail],                           [se, NO, NO, NO, NO, NO, fa, ca]),
        // A finishing attempt never resurrects a cancelled incarnation.
        (|| vec![Move::Cancel],                         [NO, NO, NO, NO, NO, NO, fa, ca]),
    ];
    let value = |core: &FutureCore| {
        core.read(|l| l.phase.outcome())
            .and_then(Result::ok)
            .map(|v| *v.downcast_ref::<u64>().unwrap())
    };
    let clock = Clock::virtual_time();
    clock.enter(|| {
        let clock = Clock::current();
        let event = clock.new_event();
        let (wakes, stop) = (
            Arc::new(AtomicUsize::new(0)),
            Arc::new(AtomicBool::new(false)),
        );
        let waiter = {
            let (clock, event, wakes, stop) =
                (clock.clone(), event.clone(), wakes.clone(), stop.clone());
            Clock::current().spawn("waiter", move || {
                clock.wait_until(&event, || {
                    wakes.fetch_add(1, SeqCst);
                    stop.load(SeqCst)
                })
            })
        };
        clock.advance(1); // the waiter parks
        assert_eq!(wakes.load(SeqCst), 1);
        let body: crate::future::BodyFn = Arc::new(|_| Ok(Arc::new(0u64)));
        let mut calls = 0;
        let mut step = |core: &FutureCore, mv: Move| {
            let left = core.transition(&clock, mv);
            clock.advance(1); // let the waiter look once more
            calls += 1;
            assert_eq!(wakes.load(SeqCst), 1 + calls, "one wake per call");
            left
        };
        for (row, (path, expected)) in rows.into_iter().enumerate() {
            for (col, (mv, want)) in moves.iter().zip(expected).enumerate() {
                let core = FutureCore::new(0, 0, 1, 2, body.clone(), event.clone());
                for mv in path() {
                    assert!(step(&core, mv).is_some(), "row {row}: path refused");
                }
                let (from, fixed) = (core.state(), value(&core));
                let left = step(&core, mv());
                let cell = format!("row {row} ({from:?}), column {col}");
                assert_eq!(left.map(|p| p.state()), want.map(|_| from), "{cell}");
                assert_eq!(core.state(), want.unwrap_or(from), "{cell}");
                if let Some(v) = fixed {
                    assert!(
                        value(&core) == Some(v) || core.state() == Cancelled,
                        "{cell}: the fixed result changed"
                    );
                }
            }
        }
        // The spawner's commit sets the version and attaches a record to a
        // completed future that has none; no phase is left.
        let core = FutureCore::new(0, 0, 1, 2, body.clone(), event.clone());
        step(&core, completed());
        assert!(step(&core, Move::Commit(7, Some(EscapeRecord::Reexecute))).is_none());
        let attached = core.read(|l| {
            let record = matches!(l.phase, Phase::Completed(_, Some(_)));
            (l.phase.state(), record, l.spawn_commit_version)
        });
        assert_eq!(attached, (Completed, true, Some(7)));
        stop.store(true, SeqCst);
        clock.notify_all(&event);
        waiter.join();
    });
}
