//! The single-writer append-only log behind a sub-transaction's read-set
//! — `wtf-trace`'s SPSC lane publish (`crates/trace/src/ring.rs`) made
//! growable.
//!
//! One thread appends: a plain write into the next slot, then one
//! `SeqCst` store of the length. Any thread scans: a `SeqCst` load of
//! the length, then a walk over that prefix, which nobody writes again.
//! Slots live in buckets of 16, 32, 64, … entries that are allocated on
//! demand and never move, so a scan that runs beside an append only ever
//! touches slots the append has left behind.
//!
//! This is the one `unsafe` module of `wtf-core`; elsewhere there are
//! only the `BoxRef::get` calls of the box lifetime rule. What it relies
//! on — one appender, a prefix that is written once — is set up here and
//! nowhere else: the fields are private and the appender is checked.

use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicPtr, AtomicUsize, Ordering};

/// Entries in the first bucket; bucket `k` holds `FIRST << k`.
const FIRST: usize = 16;
/// 28 doubling buckets hold 16 · (2²⁸ − 1) entries: more than memory.
const BUCKETS: usize = 28;

/// Bucket and offset of entry `i`.
fn place(i: usize) -> (usize, usize) {
    let j = i + FIRST;
    let k = (j.ilog2() - FIRST.ilog2()) as usize;
    (k, j - (FIRST << k))
}

thread_local! {
    // `const` and no destructor: the address is the thread's for life.
    static THREAD: u8 = const { 0 };
}

/// A non-zero word no other live thread shares.
fn this_thread() -> usize {
    THREAD.with(|t| t as *const u8 as usize)
}

/// An append-only log with one appending thread and any number of
/// scanners, none of which takes a lock.
pub struct AppendLog<T> {
    /// Entries published to scanners.
    // ordering: seqcst-store publishes the slot just written, and is the
    // owner's half of a store-buffering pair with the graph `stamp`
    // (`graph.rs`): the owner stores `len`, then loads the stamp
    // (`TxCtx::read`'s re-check); a validator bumps the stamp on entering
    // `Graph::update`, then does the seqcst-load of `len` here. Both sides
    // being `SeqCst`, one of the two loads sees the other side's store: a
    // read is scanned, or fails its re-check. relaxed-load only by the
    // appender re-reading its own tail. relaxed-guard: nobody else
    // advances it.
    len: AtomicUsize,
    /// Start of each bucket, null until the appender reaches it.
    // ordering: release-store of a fresh bucket, before the first `len`
    // that covers it is published; acquire-load by scanners, after their
    // load of `len`. relaxed-load only by the appender re-reading its own
    // store. relaxed-guard: nobody else stores it.
    buckets: [AtomicPtr<T>; BUCKETS],
    /// The appending thread (`this_thread`), 0 until the first append.
    // ordering: relaxed-cas claims the log for the first thread that
    // appends; relaxed-load re-reads the claim. relaxed-guard: a thread
    // that reads a stale 0 goes on to the CAS, which cannot.
    owner: AtomicUsize,
    /// `AtomicPtr<T>` is `Send + Sync` whatever `T` is; the log owns `T`s.
    _owns: PhantomData<*mut T>,
}

// SAFETY: moving the log moves the `T`s in its buckets, nothing else:
// `len` and `owner` are plain words and every bucket is owned uniquely.
unsafe impl<T: Send> Send for AppendLog<T> {}
// SAFETY: through `&AppendLog` a thread can move a `T` in (`push`, so
// `T: Send`; it is dropped wherever the log is) and any thread can hold
// `&T` to a published entry (`published`, so `T: Sync`). `push` admits
// one thread only, and published slots are never written again.
unsafe impl<T: Send + Sync> Sync for AppendLog<T> {}

impl<T> Default for AppendLog<T> {
    fn default() -> Self {
        AppendLog {
            len: AtomicUsize::new(0),
            buckets: [const { AtomicPtr::new(std::ptr::null_mut()) }; BUCKETS],
            owner: AtomicUsize::new(0),
            _owns: PhantomData,
        }
    }
}

impl<T> AppendLog<T> {
    /// Appends `entry`. The first thread to append owns the log; an
    /// append from any other panics.
    pub fn push(&self, entry: T) {
        let me = this_thread();
        let owner = self.owner.load(Ordering::Relaxed);
        let mine = owner == me
            || (owner == 0
                && self
                    .owner
                    .compare_exchange(0, me, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok());
        assert!(mine, "read log appended to from a second thread");
        let len = self.len.load(Ordering::Relaxed);
        let (k, at) = place(len);
        assert!(k < BUCKETS, "read log full");
        let mut bucket = self.buckets[k].load(Ordering::Relaxed);
        if bucket.is_null() {
            let fresh: Box<[MaybeUninit<T>]> = Box::new_uninit_slice(FIRST << k);
            bucket = Box::into_raw(fresh).cast::<T>();
            self.buckets[k].store(bucket, Ordering::Release);
        }
        // SAFETY: `at < FIRST << k`, the length bucket `k` was allocated
        // with. The slot is unpublished (`len` does not cover it yet), so
        // no scanner reads it, and this thread is the only appender.
        unsafe { bucket.add(at).write(entry) };
        self.len.store(len + 1, Ordering::SeqCst);
    }

    /// The entries published so far, oldest first.
    pub fn published(&self) -> impl Iterator<Item = &T> {
        let mut left = self.len();
        let slices = (0..BUCKETS).map_while(move |k| {
            let n = left.min(FIRST << k);
            left -= n;
            let start = self.buckets[k].load(Ordering::Acquire);
            // SAFETY: `n > 0` entries of bucket `k` lie below a published
            // `len`, so the bucket was stored before that `len` was, its
            // first `n` slots are initialised, and no one writes them
            // again while `&self` lives.
            (n > 0).then(|| unsafe { std::slice::from_raw_parts(start, n) })
        });
        slices.flatten()
    }

    /// Number of entries published so far.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The newest published entry.
    pub fn last(&self) -> Option<&T> {
        let (k, at) = place(self.len().checked_sub(1)?);
        let start = self.buckets[k].load(Ordering::Acquire);
        // SAFETY: as in `published`: the entry lies below a published `len`.
        Some(unsafe { &*start.add(at) })
    }
}

impl<T> Drop for AppendLog<T> {
    fn drop(&mut self) {
        let mut left = *self.len.get_mut();
        for (k, bucket) in self.buckets.iter_mut().enumerate() {
            let (start, cap) = (*bucket.get_mut(), FIRST << k);
            if start.is_null() {
                break;
            }
            let n = left.min(cap);
            left -= n;
            // SAFETY: `&mut self`: no scanner is left. The first `n` slots
            // of the bucket hold entries, dropped here once; the bucket
            // came from a `Box<[MaybeUninit<T>]>` of `cap` slots, which
            // frees it without touching the slots again.
            unsafe {
                std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(start, n));
                let slots = std::ptr::slice_from_raw_parts_mut(start.cast::<MaybeUninit<T>>(), cap);
                drop(Box::from_raw(slots));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn place_is_exact_on_both_sides_of_every_boundary() {
        // Against a walk: every index, so both sides of every boundary
        // (entries 15|16, 47|48, 111|112, … 8,175|8,176).
        let (mut k, mut at) = (0, 0);
        for i in 0..=10_000 {
            assert_eq!(place(i), (k, at), "entry {i}");
            at += 1;
            if at == FIRST << k {
                (k, at) = (k + 1, 0);
            }
        }
        let log = AppendLog::default();
        for i in 0..10_000usize {
            log.push(i);
            assert_eq!(log.last(), Some(&i));
        }
        assert!(log.published().copied().eq(0..10_000));
    }

    #[test]
    fn entries_drop_exactly_once_with_the_log() {
        let token = Arc::new(());
        // Empty, one short of a boundary, on it, one past it, mid-bucket.
        for n in [0, 15, 16, 17, 47, 48, 49, 1_000] {
            let log = AppendLog::default();
            for _ in 0..n {
                log.push(token.clone());
            }
            assert_eq!(log.len(), n);
            assert_eq!(Arc::strong_count(&token), 1 + n);
            assert_eq!(log.published().count(), n);
            drop(log);
            assert_eq!(Arc::strong_count(&token), 1, "{n} entries");
        }
    }

    #[test]
    fn a_scanner_beside_the_appender_sees_an_initialised_prefix() {
        const PUSHES: usize = if cfg!(miri) { 2_000 } else { 100_000 };
        let log = Arc::new(AppendLog::default());
        let appender = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for i in 0..PUSHES {
                    log.push(Box::new((i, !i)));
                }
            })
        };
        let mut seen = 0;
        while seen < PUSHES {
            let before = log.len();
            let mut n = 0;
            for (i, entry) in log.published().enumerate() {
                assert_eq!(**entry, (i, !i));
                n = i + 1;
            }
            assert!(n >= before && n >= seen, "the prefix only grows");
            seen = n;
        }
        appender.join().unwrap();
        assert_eq!(log.len(), PUSHES);
    }

    #[test]
    fn a_second_appending_thread_is_refused() {
        let log = Arc::new(AppendLog::default());
        log.push(1);
        let other = Arc::clone(&log);
        let refused = std::thread::spawn(move || other.push(2)).join();
        assert!(refused.is_err(), "the second thread's append panics");
        assert!(log.published().copied().eq([1]));
    }
}
