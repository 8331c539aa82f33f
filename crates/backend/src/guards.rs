//! A set of held lock stripes that needs no heap: both backends lock the
//! stripes of a commit's footprint in one ascending mask walk and keep
//! the guards here, indexed by stripe, until the set drops.

use parking_lot::MutexGuard;
use std::mem::MaybeUninit;

/// Most stripes a set can hold: a stripe mask is a `u64`.
pub const MAX_STRIPES: usize = 64;

/// The guards of the stripes in `held`, released in ascending index
/// order on drop.
pub struct MaskGuards<'a> {
    /// Bit `i` set: `guards[i]` is initialised.
    held: u64,
    guards: [MaybeUninit<MutexGuard<'a, ()>>; MAX_STRIPES],
}

impl Default for MaskGuards<'_> {
    fn default() -> Self {
        MaskGuards {
            held: 0,
            guards: [const { MaybeUninit::uninit() }; MAX_STRIPES],
        }
    }
}

impl<'a> MaskGuards<'a> {
    /// Keeps `guard`, the guard of stripe `index`, until the set drops.
    pub fn hold(&mut self, index: usize, guard: MutexGuard<'a, ()>) {
        debug_assert_eq!(self.held & (1 << index), 0, "stripe {index} held twice");
        self.guards[index].write(guard);
        self.held |= 1 << index;
    }
}

impl Drop for MaskGuards<'_> {
    fn drop(&mut self) {
        let mut rest = self.held;
        while rest != 0 {
            let index = rest.trailing_zeros() as usize;
            // SAFETY: bit `index` of `held` is set only by `hold`, right
            // after it wrote `guards[index]`, and each guard is dropped
            // once, here.
            unsafe { self.guards[index].assume_init_drop() };
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn held_stripes_release_on_drop() {
        let locks: Vec<Mutex<()>> = (0..MAX_STRIPES).map(|_| Mutex::new(())).collect();
        {
            let mut set = MaskGuards::default();
            set.hold(3, locks[3].lock());
            set.hold(63, locks[63].lock());
            assert!(locks[3].try_lock().is_none());
            assert!(locks[0].try_lock().is_some());
        }
        assert!(locks[3].try_lock().is_some());
        assert!(locks[63].try_lock().is_some());
    }
}
