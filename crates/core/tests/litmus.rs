//! Litmus tests for `wtf-core`'s graph stamp, the read logs it is paired
//! with and the graph it guards —
//! the dynamic counterpart of `wtf-audit`'s static checks, named after
//! the inventory entry (`results/audit_inventory.json`) whose protocol
//! they drive. Run under Miri and TSan in CI; iteration counts scale down
//! under Miri.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use wtf_core::internals::{AppendLog, Graph, NodeStatus};

const ROUNDS: u64 = if cfg!(miri) { 30 } else { 5_000 };

/// Two-party rendezvous that spins: both sides leave within a cache miss
/// of each other, so the reader's record-then-recheck can land inside the
/// writer's critical section (a blocking barrier wakes one side
/// microseconds late and the two never overlap).
fn meet(arrivals: &AtomicU64, nth: u64) {
    arrivals.fetch_add(1, Ordering::SeqCst);
    let mut spins = 0u32;
    while arrivals.load(Ordering::SeqCst) < 2 * nth {
        spins += 1;
        // Yield once the peer is evidently descheduled (or interpreted).
        if cfg!(miri) || spins > 2_000 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// `len` (a read log's published length) against `stamp`, a
/// store-buffering pair. The writer is a completing future: on entering
/// `Graph::update` it bumps the stamp, then its closure scans a sibling's
/// read log (forward validation). The reader is that sibling inside
/// `TxCtx::read`: it appends its read — which publishes `len` — then
/// re-checks the stamp of the snapshot its view was built from. The
/// reader must either be seen by the scan or fail the re-check (and retry
/// against the new graph) — a reader that is neither keeps a value the
/// serialized future overwrote. With the stamp moved only after the
/// closure, or either side weaker than `SeqCst`, that outcome is
/// reachable.
#[test]
fn sb_len_seqcst_publish_vs_stamp_entry_bump() {
    let graph = Arc::new(Graph::with_root());
    // The sibling's read log: round `r` appends `r`.
    let log = Arc::new(AppendLog::default());
    // The writer's verdict for the round, read after the closing barrier.
    let seen = Arc::new(AtomicBool::new(false));
    let arrivals = Arc::new(AtomicU64::new(0));

    let writer = {
        let (graph, log, seen, arrivals) = (
            Arc::clone(&graph),
            Arc::clone(&log),
            Arc::clone(&seen),
            Arc::clone(&arrivals),
        );
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                meet(&arrivals, 2 * round + 1);
                let saw = graph.update(|_| log.published().any(|&read| read == round));
                seen.store(saw, Ordering::SeqCst);
                meet(&arrivals, 2 * round + 2);
            }
        })
    };

    let mut retried = 0u64;
    for round in 0..ROUNDS {
        let (view_stamp, _) = graph.snapshot();
        assert_eq!(view_stamp % 2, 0, "snapshots exclude a writer mid-update");
        meet(&arrivals, 2 * round + 1);
        // Sweep the reader across the writer's critical section.
        for _ in 0..round % 256 {
            std::hint::spin_loop();
        }
        log.push(round);
        let validated = graph.stamp() == view_stamp;
        meet(&arrivals, 2 * round + 2);
        let seen = seen.load(Ordering::SeqCst);
        assert!(
            seen || !validated,
            "round {round}: the scan missed a read whose stamp re-check passed"
        );
        retried += u64::from(!validated);
    }
    writer.join().unwrap();
    assert_eq!(graph.stamp(), 2 * ROUNDS, "two bumps per update");
    assert!(
        log.published().copied().eq(0..ROUNDS),
        "every read, in order"
    );
    assert!(retried <= ROUNDS);
}

/// G is mutated in place, yet a snapshot is a whole graph: a reader
/// walking snapshots while a writer appends spawn pairs and serializes
/// them (an edge that lifts ranks downstream) never follows an edge to a
/// node its snapshot lacks, never sees a rank descend along an edge, and
/// never sees a snapshot it already holds change under it.
#[test]
fn snapshots_stay_whole_while_a_writer_appends() {
    const ROUNDS: u64 = if cfg!(miri) { 5 } else { 100 };
    const PAIRS: usize = 5; // 2 nodes each: 1,000 nodes appended in all
    let graph = Arc::new(Graph::with_root());
    let arrivals = Arc::new(AtomicU64::new(0));

    let writer = {
        let (graph, arrivals) = (Arc::clone(&graph), Arc::clone(&arrivals));
        std::thread::spawn(move || {
            let mut cur = 0;
            for round in 0..ROUNDS {
                meet(&arrivals, round + 1);
                for _ in 0..PAIRS {
                    let (f, c) = graph.update(|g| {
                        g.set_status(cur, NodeStatus::ICommitted);
                        let f = g.add_node(NodeStatus::Active, &[cur]);
                        (f, g.add_node(NodeStatus::Active, &[cur]))
                    });
                    // Serialized at submission: lifts `c` above `f`.
                    graph.update(|g| {
                        g.add_edge(f, c);
                        g.set_status(f, NodeStatus::ICommitted);
                    });
                    cur = c;
                }
            }
        })
    };

    let whole = |g: &wtf_core::internals::GraphInner| {
        for u in 0..g.len() {
            for &v in g.succs(u) {
                assert!(v < g.len(), "edge {u}->{v} leaves a {}-node graph", g.len());
                assert!(g.rank(v) > g.rank(u), "rank descends along {u}->{v}");
                assert!(g.preds(v).contains(&u), "edge {u}->{v} has no way back");
            }
        }
        g.len()
    };
    for round in 0..ROUNDS {
        meet(&arrivals, round + 1);
        let (stamp, held) = graph.snapshot();
        assert_eq!(stamp % 2, 0, "snapshots exclude a writer mid-update");
        let len = whole(&held);
        for _ in 0..4 {
            let (_, g) = graph.snapshot();
            assert!(whole(&g) >= len, "G only grows");
        }
        assert_eq!(whole(&held), len, "a held snapshot is immutable");
    }
    writer.join().unwrap();
    let (stamp, g) = graph.snapshot();
    assert_eq!(whole(&g), 1 + 2 * PAIRS * ROUNDS as usize);
    assert_eq!(stamp, 4 * PAIRS as u64 * ROUNDS, "two bumps per update");
}
