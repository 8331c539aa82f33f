//! Costs of manipulating the dependency graph **G** — the overhead §5.2
//! attributes to "synchronizing the manipulations of the graph structure".
//!
//! Includes the DESIGN.md ablation: an `update` that mutates G in place
//! against one that finds a reader's snapshot outstanding and must copy G
//! first (what every update paid while G was copy-on-write).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wtf_core::internals::{Graph, NodeStatus};

/// Builds a spawn-chain graph with `futures` future/continuation pairs.
fn chain_graph(futures: usize) -> Graph {
    let g = Graph::with_root();
    let mut cur = 0;
    for _ in 0..futures {
        cur = g.update(|gi| {
            gi.set_status(cur, NodeStatus::ICommitted);
            let f = gi.add_node(NodeStatus::ICommitted, &[cur]);
            let c = gi.add_node(NodeStatus::Active, &[cur]);
            gi.add_edge(f, c); // serialized at submission
            c
        });
    }
    g
}

fn bench_graph(c: &mut Criterion) {
    let mut grp = c.benchmark_group("graph");
    grp.sample_size(30);
    grp.measurement_time(std::time::Duration::from_secs(2));
    grp.warm_up_time(std::time::Duration::from_millis(300));

    for &n in &[8usize, 32, 128] {
        let g = chain_graph(n);
        let last = g.snapshot().1.len() - 1;
        grp.bench_function(format!("snapshot_{n}"), |b| {
            b.iter(|| black_box(g.snapshot()))
        });
        grp.bench_function(format!("ancestors_{n}"), |b| {
            let (_, gi) = g.snapshot();
            b.iter(|| black_box(gi.ancestors(last)))
        });
        grp.bench_function(format!("ancestors_by_rank_{n}"), |b| {
            let (_, gi) = g.snapshot();
            b.iter(|| black_box(gi.by_rank(&gi.ancestors(last))))
        });
        grp.bench_function(format!("reachable_{n}"), |b| {
            let (_, gi) = g.snapshot();
            b.iter(|| black_box(gi.reachable_from(0)))
        });
        grp.bench_function(format!("backward_chain_{n}"), |b| {
            let (_, gi) = g.snapshot();
            b.iter(|| black_box(gi.backward_chain(last, 0).count()))
        });
        // A status change: in place, and behind a fresh snapshot (one
        // copy of G per update).
        grp.bench_function(format!("update_{n}"), |b| {
            b.iter(|| g.update(|gi| gi.set_status(0, NodeStatus::ICommitted)))
        });
        grp.bench_function(format!("update_behind_snapshot_{n}"), |b| {
            b.iter(|| {
                let held = g.snapshot();
                g.update(|gi| gi.set_status(0, NodeStatus::ICommitted));
                held
            })
        });
        // What `submit` does to G: a future/continuation pair, then the
        // serialization edge that lifts the continuation's rank. Used
        // graphs are parked and dropped by the (untimed) setup.
        grp.bench_function(format!("spawn_pair_{n}"), |b| {
            let used = std::cell::RefCell::new(Vec::new());
            b.iter_batched(
                || {
                    used.borrow_mut().clear();
                    chain_graph(n)
                },
                |g| {
                    g.update(|gi| {
                        let f = gi.add_node(NodeStatus::Active, &[last]);
                        let c = gi.add_node(NodeStatus::Active, &[last]);
                        gi.add_edge(f, c);
                    });
                    used.borrow_mut().push(g);
                },
                BatchSize::SmallInput,
            )
        });
    }
    grp.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
