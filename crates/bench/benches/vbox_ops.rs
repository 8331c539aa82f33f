//! Per-operation costs of the multi-versioned substrate (real time).
//!
//! Includes the version-GC ablation called out in DESIGN.md: commits with
//! GC on vs off (off lets chains grow, making snapshot reads walk).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;
use wtf_backend::{atomic, StmBackend, TBox};
use wtf_mvstm::raw::chain_len;
use wtf_mvstm::Stm;

fn bench_reads(c: &mut Criterion) {
    let mut g = c.benchmark_group("vbox");
    g.sample_size(30);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(300));

    let stm = Stm::new();
    let boxes: Vec<TBox<i64>> = (0..1024).map(|i| TBox::new_on(&stm, i as i64)).collect();

    g.bench_function("txn_read_100", |b| {
        b.iter(|| {
            atomic(&stm, |tx| {
                let mut acc = 0i64;
                for i in 0..100 {
                    acc += tx.read(&boxes[(i * 37) % 1024])?;
                }
                Ok(black_box(acc))
            })
            .unwrap()
        })
    });

    g.bench_function("txn_write_commit_10", |b| {
        b.iter(|| {
            atomic(&stm, |tx| {
                for i in 0..10 {
                    tx.write(&boxes[(i * 91) % 1024], i as i64)?;
                }
                Ok(())
            })
            .unwrap()
        })
    });

    g.bench_function("read_only_commit", |b| {
        b.iter(|| atomic(&stm, |tx| tx.read(&boxes[7])).unwrap())
    });

    g.bench_function("raw_read_at", |b| {
        let body = boxes[0].body();
        let snap = stm.acquire_snapshot();
        b.iter(|| {
            black_box(body.read_at(snap.version(), &mut |v| {
                black_box(v);
            }))
        })
    });

    // GC ablation: long version chains (GC off) vs pruned chains (GC on).
    g.bench_function("versioned_read_gc_on", |b| {
        let stm = Stm::new();
        let x = TBox::new_on(&stm, 0i64);
        for i in 0..256 {
            atomic(&stm, |tx| tx.write(&x, i)).unwrap();
        }
        assert_eq!(chain_len(&x), 1);
        b.iter(|| black_box(x.read_latest()))
    });
    g.bench_function("versioned_read_gc_off_deep_chain", |b| {
        let stm = Stm::new();
        stm.set_gc_enabled(false);
        let x = TBox::new_on(&stm, 0i64);
        let pin = stm.acquire_snapshot(); // pin so chains keep length
        for i in 0..256 {
            atomic(&stm, |tx| tx.write(&x, i)).unwrap();
        }
        assert!(chain_len(&x) > 200);
        // Reading at the pinned snapshot walks the whole chain.
        b.iter(|| {
            black_box(x.body().read_at(pin.version(), &mut |v| {
                black_box(v);
            }))
        });
        drop(pin);
    });

    // Install is O(1): commit cost into a box with thousands of retained
    // versions (GC off, snapshot pinned) must not scale with chain depth —
    // the new version is consed onto the head, never shifting the history.
    g.bench_function("txn_write_commit_shallow_chain", |b| {
        let stm = Stm::new();
        let x = TBox::new_on(&stm, 0i64);
        b.iter(|| atomic(&stm, |tx| tx.write(&x, 1)).unwrap())
    });
    g.bench_function("txn_write_commit_deep_chain_4096", |b| {
        let stm = Stm::new();
        stm.set_gc_enabled(false);
        let x = TBox::new_on(&stm, 0i64);
        let pin = stm.acquire_snapshot(); // pin so chains keep length
        for i in 0..4096 {
            atomic(&stm, |tx| tx.write(&x, i)).unwrap();
        }
        assert!(chain_len(&x) > 4000);
        b.iter(|| atomic(&stm, |tx| tx.write(&x, 1)).unwrap());
        drop(pin);
    });

    g.bench_function("begin_snapshot", |b| {
        b.iter_batched(
            || (),
            |_| black_box(stm.acquire_snapshot()),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench_reads);
criterion_main!(benches);
