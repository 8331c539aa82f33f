//! Per-thread state every layer shares: one thread index, and counters
//! kept in per-thread cache lines and summed on read.
//!
//! A statistics counter bumped by every commit is a shared word every
//! commit writes: two clients whose transactions touch nothing in common
//! would still take turns owning its cache line. [`Counters`] gives each
//! thread a block of its own, picked by [`thread_index`], so a bump
//! writes a line no other running thread writes; [`Counters::sum`] adds
//! the blocks up when someone reads.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The calling thread's state, `const`-initialised and without a
/// destructor, so it is readable at any point of the thread's life.
struct Local {
    /// Handed out in first-use order, from 0.
    index: Cell<usize>,
    /// The registry slot this thread claimed last (`usize::MAX`: none).
    last_slot: Cell<usize>,
}

thread_local! {
    static LOCAL: Local = const {
        Local {
            index: Cell::new(usize::MAX),
            last_slot: Cell::new(usize::MAX),
        }
    };
}

/// The next index to hand out.
// ordering: relaxed-rmw — an id dispenser; uniqueness is all that
// matters, nothing is published through it.
static NEXT_INDEX: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's index: 0 for the first thread that asks, 1 for
/// the next, and so on. Threads that first ask one after the other get
/// consecutive indices, so they land in different [`Counters`] blocks
/// (and in-flight shards) unless a multiple of the block count separates
/// them.
#[inline]
pub fn thread_index() -> usize {
    LOCAL.with(|l| {
        let index = l.index.get();
        if index != usize::MAX {
            return index;
        }
        let index = NEXT_INDEX.fetch_add(1, Ordering::Relaxed);
        l.index.set(index);
        index
    })
}

/// The registry slot this thread claimed last, if any.
pub(crate) fn last_slot() -> usize {
    LOCAL.with(|l| l.last_slot.get())
}

pub(crate) fn set_last_slot(slot: usize) {
    LOCAL.with(|l| l.last_slot.set(slot));
}

/// Blocks per [`Counters`] set; thread `i` bumps block `i % COUNTER_BLOCKS`.
const COUNTER_BLOCKS: usize = 32;

/// One thread's counters, on cache lines no other block shares. 128
/// bytes: the adjacent-line prefetcher pulls lines in pairs.
// ordering(Block, blocks, block): relaxed-rmw, relaxed-load — statistics
// counters; the owning thread bumps, readers sum, nothing is published
// through them.
#[repr(align(128))]
struct Block<const N: usize>([AtomicU64; N]);

/// `N` statistics counters, one block of them per thread, summed on
/// read. Bumps are relaxed `fetch_add`s, so two threads that share a
/// block (their indices a multiple of the block count apart) still count
/// exactly.
pub struct Counters<const N: usize> {
    blocks: Box<[Block<N>]>,
}

impl<const N: usize> Default for Counters<N> {
    fn default() -> Self {
        Counters {
            blocks: (0..COUNTER_BLOCKS)
                .map(|_| Block(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }
}

impl<const N: usize> Counters<N> {
    /// Adds `n` to counter `counter` in the calling thread's block.
    #[inline]
    pub fn add(&self, counter: usize, n: u64) {
        self.blocks[thread_index() % COUNTER_BLOCKS].0[counter].fetch_add(n, Ordering::Relaxed);
    }

    /// Counter `counter`, summed over every block.
    pub fn get(&self, counter: usize) -> u64 {
        self.blocks
            .iter()
            .map(|block| block.0[counter].load(Ordering::Relaxed))
            .sum()
    }

    /// Every counter, summed over every block. Not a snapshot of one
    /// instant: bumps racing the read may or may not be in it.
    pub fn sum(&self) -> [u64; N] {
        std::array::from_fn(|counter| self.get(counter))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_thread_keeps_its_index_and_the_next_thread_gets_another() {
        let mine = thread_index();
        assert_eq!(thread_index(), mine);
        let other = std::thread::spawn(thread_index).join().unwrap();
        assert_ne!(other, mine);
    }

    /// N threads × k bumps sum exactly, whatever blocks they share.
    #[test]
    fn counters_from_many_threads_sum_exactly() {
        const THREADS: u64 = 8;
        const K: u64 = if cfg!(miri) { 100 } else { 10_000 };
        let counters = Arc::new(Counters::<2>::default());
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let counters = counters.clone();
                std::thread::spawn(move || {
                    for _ in 0..K {
                        counters.add(0, 1);
                        counters.add(1, t);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(counters.sum(), [THREADS * K, K * (0..THREADS).sum::<u64>()]);
        assert_eq!(counters.get(0), THREADS * K);
    }

    #[test]
    fn blocks_sit_on_lines_of_their_own() {
        assert_eq!(std::mem::align_of::<Block<1>>(), 128);
        assert_eq!(std::mem::size_of::<Block<17>>(), 256);
    }
}
