//! Linearizability stress for the striped commit path, on every
//! [`BackendKind`].
//!
//! Real threads hammer the STM with mixed update / read-only
//! transactions and check the two properties that die first when a
//! commit protocol is wrong:
//!
//! * **conservation** — concurrent bank transfers never create or
//!   destroy money, and *every* committed read-only audit observes the
//!   conserved sum: an audit that saw a torn transfer would prove a
//!   snapshot exposed a half-installed commit. (Under TL2 audits can
//!   conflict and retry; under mvstm they commit with no validation at
//!   all.)
//! * **zero lost updates** — N threads × M increments of one hot
//!   counter end at exactly N×M, so no commit ever overwrote another
//!   without one of them aborting and retrying.
//!
//! One body per property, driven through [`atomic`] on the substrate it
//! is given; the mvstm-only guarantees (read-only audits never abort,
//! version chains stay bounded under GC) are checked as a tail when the
//! substrate is mvstm.

use std::sync::Arc;
use transactional_futures::backend::{atomic, BackendKind, StmBackend, TBox};
use transactional_futures::stm::raw::chain_len;
use transactional_futures::tm::make_backend;
use transactional_futures::trace::Tracer;

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Random transfers between `ACCOUNTS` accounts from `threads` threads,
/// with every 4th transaction a read-only full-sum audit.
fn run_bank(kind: BackendKind, threads: usize, ops_per_thread: usize) {
    const ACCOUNTS: usize = 64;
    const INITIAL: i64 = 1_000;
    let backend: Arc<dyn StmBackend> = make_backend(kind, Tracer::disabled());
    let accounts: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..ACCOUNTS)
            .map(|_| TBox::new_on(&*backend, INITIAL))
            .collect::<Vec<_>>(),
    );
    let expected_total = INITIAL * ACCOUNTS as i64;
    let audit = |backend: &dyn StmBackend, accounts: &[TBox<i64>]| {
        atomic(backend, |tx| {
            let mut sum = 0i64;
            for a in accounts {
                sum += tx.read(a)?;
            }
            Ok(sum)
        })
        .unwrap()
    };

    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let backend = backend.clone();
            let accounts = accounts.clone();
            std::thread::spawn(move || {
                let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (t as u64 + 1);
                for op in 0..ops_per_thread {
                    if op % 4 == 3 {
                        // Read-only audit: must see a consistent snapshot.
                        let total = audit(&*backend, &accounts);
                        assert_eq!(total, expected_total, "{kind:?}: audit saw a torn transfer");
                    } else {
                        let mut from = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        let mut to = (xorshift(&mut seed) % ACCOUNTS as u64) as usize;
                        if from == to {
                            to = (to + 1) % ACCOUNTS;
                            if from == to {
                                from = (from + 1) % ACCOUNTS;
                            }
                        }
                        let amount = (xorshift(&mut seed) % 100) as i64;
                        atomic(&*backend, |tx| {
                            let f = tx.read(&accounts[from])?;
                            let t = tx.read(&accounts[to])?;
                            tx.write(&accounts[from], f - amount)?;
                            tx.write(&accounts[to], t + amount)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(audit(&*backend, &accounts), expected_total, "{kind:?}");

    let stats = backend.stats();
    // Every loop iteration commits exactly one transaction (conflicted
    // attempts retry inside `atomic`), plus the final audit above.
    assert_eq!(
        stats.commits,
        (threads * ops_per_thread) as u64 + 1,
        "{kind:?}"
    );
    let audits = (threads * (ops_per_thread / 4)) as u64 + 1;
    assert_eq!(stats.read_only_commits, audits, "{kind:?}");

    if kind == BackendKind::Mvstm {
        // GC keeps every chain finite: pruning runs at commit time, so
        // after one more update commit per account (with no snapshots
        // live) each chain collapses to exactly its newest version.
        for a in accounts.iter() {
            atomic(&*backend, |tx| {
                let v = tx.read(a)?;
                tx.write(a, v)
            })
            .unwrap();
            assert_eq!(chain_len(a), 1);
        }
    }
}

/// All threads increment one hot box (worst case for the striped commit
/// path: every commit collides on the same stripe) plus a private box.
/// Any lost update shows up as a shortfall in the final counts.
fn run_hot_counter(kind: BackendKind, increments: usize) {
    const THREADS: usize = 8;
    let backend: Arc<dyn StmBackend> = make_backend(kind, Tracer::disabled());
    let shared = TBox::new_on(&*backend, 0i64);
    let privates: Arc<Vec<TBox<i64>>> = Arc::new(
        (0..THREADS)
            .map(|_| TBox::new_on(&*backend, 0i64))
            .collect::<Vec<_>>(),
    );

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let backend = backend.clone();
            let shared = shared.clone();
            let privates = privates.clone();
            std::thread::spawn(move || {
                for _ in 0..increments {
                    atomic(&*backend, |tx| {
                        let s = tx.read(&shared)?;
                        tx.write(&shared, s + 1)?;
                        let p = tx.read(&privates[t])?;
                        tx.write(&privates[t], p + 1)?;
                        Ok(())
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(
        shared.read_latest(),
        (THREADS * increments) as i64,
        "{kind:?}"
    );
    for p in privates.iter() {
        assert_eq!(p.read_latest(), increments as i64, "{kind:?}");
    }
    assert_eq!(
        backend.stats().commits,
        (THREADS * increments) as u64,
        "{kind:?}"
    );
}

#[test]
fn bank_conserves_sum_2_threads() {
    run_bank(BackendKind::Mvstm, 2, 1500);
}

#[test]
fn bank_conserves_sum_4_threads() {
    run_bank(BackendKind::Mvstm, 4, 1500);
}

#[test]
fn bank_conserves_sum_8_threads() {
    run_bank(BackendKind::Mvstm, 8, 1500);
}

#[test]
fn no_lost_updates_on_hot_counter() {
    run_hot_counter(BackendKind::Mvstm, 1_000);
}

#[test]
fn backends_conserve_sum_4_threads() {
    for kind in BackendKind::ALL {
        run_bank(kind, 4, 1000);
    }
}

#[test]
fn backends_lose_no_updates_on_hot_counter() {
    for kind in BackendKind::ALL {
        run_hot_counter(kind, 500);
    }
}
