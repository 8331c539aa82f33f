//! Striped commit locks: per-location synchronization for the commit path.
//!
//! Instead of one global commit mutex, the STM hashes every [`BoxId`] to
//! one of [`STRIPES`] cache-line-padded mutexes. An update transaction
//! locks the stripes covering its read- and write-set (as a bitmask,
//! acquired in ascending index order so overlapping commits cannot
//! deadlock) and validates + installs under only those stripes. Commits
//! whose footprints hash to disjoint stripe sets proceed fully in
//! parallel; the only remaining global synchronization is the version
//! ticket fetch-add and the in-order publication of the version clock
//! (see `raw`).

use parking_lot::{Mutex, MutexGuard};
use wtf_backend::{BoxId, MaskGuards};

/// Number of commit-lock stripes. Must stay ≤ 64 so a stripe set fits in
/// a `u64` bitmask.
pub const STRIPES: usize = 64;

/// A commit-lock stripe, padded to its own cache line so committers on
/// different stripes do not false-share.
#[repr(align(64))]
struct Stripe {
    // lock-order: stripe — multi-acquisition only through `lock_mask`'s
    // ascending bitmask walk, the single source of the stripe ordering.
    lock: Mutex<()>,
}

/// The table of [`STRIPES`] commit locks shared by an [`Stm`](crate::Stm)
/// and all of its boxes.
pub struct StripeTable {
    stripes: Vec<Stripe>,
}

impl StripeTable {
    pub(crate) fn new() -> StripeTable {
        StripeTable {
            stripes: (0..STRIPES)
                .map(|_| Stripe {
                    lock: Mutex::new(()),
                })
                .collect(),
        }
    }

    /// Maps a box to its stripe: Fibonacci multiplicative hash, taking the
    /// top `log2(STRIPES)` bits so sequentially allocated ids spread
    /// across stripes instead of clustering.
    #[inline]
    pub fn index_of(id: BoxId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize
    }

    /// Bit for `id`'s stripe in a stripe mask.
    #[inline]
    pub fn mask_of(id: BoxId) -> u64 {
        1u64 << Self::index_of(id)
    }

    /// Acquires every stripe in `mask`, in ascending index order.
    ///
    /// The global ordering is what keeps concurrent committers with
    /// overlapping stripe sets deadlock-free: all lock sequences are
    /// sorted, so there can be no cycle in the waits-for graph.
    /// The guards are kept inline, so this allocates nothing.
    pub(crate) fn lock_mask(&self, mask: u64) -> MaskGuards<'_> {
        let mut guards = MaskGuards::default();
        let mut rest = mask;
        while rest != 0 {
            let idx = rest.trailing_zeros() as usize;
            guards.hold(idx, self.stripes[idx].lock.lock());
            rest &= rest - 1;
        }
        guards
    }

    /// Acquires a single stripe by index (testing/diagnostics; see
    /// [`crate::raw::hold_stripe`]).
    pub(crate) fn lock_one(&self, index: usize) -> MutexGuard<'_, ()> {
        self.stripes[index].lock.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_stays_in_range_and_spreads() {
        let mut seen = [false; STRIPES];
        for i in 0..10_000u64 {
            let idx = StripeTable::index_of(BoxId(i));
            assert!(idx < STRIPES);
            seen[idx] = true;
        }
        let covered = seen.iter().filter(|&&s| s).count();
        assert!(covered > STRIPES / 2, "hash should cover most stripes");
    }

    #[test]
    fn lock_mask_acquires_and_releases() {
        let t = StripeTable::new();
        {
            let _g = t.lock_mask(0b1011);
            // Disjoint mask is still acquirable while the first is held.
            let _h = t.lock_mask(0b0100);
        }
        // All released: full mask acquirable.
        let _all = t.lock_mask(u64::MAX);
    }
}
