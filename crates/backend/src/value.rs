//! Type-erased values stored in transactional boxes.
//!
//! A [`Value`] is 24 bytes: a pointer to a per-type table and 16
//! bytes of payload. A `T` of at most 16 bytes and alignment at most 8
//! (`i64`, `f64`, a `Box`, an `Arc`, a pair of words) sits in the
//! payload itself, so erasing it allocates nothing; a larger or
//! over-aligned `T` (a `String`, a `Vec`, a `u128`) sits behind an
//! `Arc<T>` kept in the same payload. Which arm a `T` takes is a function
//! of its layout alone, so a downcast to `T` knows where to find it
//! without asking the table.

use std::any::TypeId;
use std::mem::{self, MaybeUninit};
use std::sync::Arc;

/// Unique identifier of a box within its backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(pub u64);

/// Marker trait for types storable in a box. Blanket-implemented.
pub trait TxValue: std::any::Any + Send + Sync + Clone {}
impl<T: std::any::Any + Send + Sync + Clone> TxValue for T {}

/// Bytes of payload a [`Value`] holds in place.
const INLINE_BYTES: usize = 16;

/// The payload: a `T` that fits, else an `Arc<T>`. `MaybeUninit` keeps
/// pointer provenance, so an `Arc` stored here is an `Arc` read back.
#[repr(C, align(8))]
struct Payload(MaybeUninit<[u8; INLINE_BYTES]>);

/// What a [`Value`] knows about the type it holds: one static table per
/// stored type (`T` itself, or `Arc<T>`).
struct Table {
    /// The `T` a downcast must name (for the `Arc` arm, the target's).
    type_id: fn() -> TypeId,
    // SAFETY: an `unsafe fn` because it reads the payload as the stored
    // type: callers pass a payload built with this table.
    clone: unsafe fn(&Payload) -> Payload,
    /// `None` when the stored type has no drop glue (`i64`, `u64`, …).
    // SAFETY: as `clone`, and the payload is not used again.
    drop: Option<unsafe fn(&mut Payload)>,
}

/// A type-erased, immutable transactional value.
///
/// One backend holds boxes of many types, so values are stored erased and
/// downcast at the typed [`TBox`](crate::TBox) facade. Values are
/// immutable once installed — mutation happens by installing a *new*
/// version — which is what makes lock-free snapshot reads safe: a reader
/// borrows the value where it lies (a version node, a TL2 slot). Cloning
/// clones the `T` inline or bumps the `Arc` count.
///
/// `Value` is `Send + Sync` because its fields are; that is sound because
/// [`Value::new`] only stores `T: Send + Sync` (an `Arc<T>` of one is
/// both as well).
pub struct Value {
    table: &'static Table,
    payload: Payload,
}

/// Whether `T` sits in the payload itself.
const fn fits<T>() -> bool {
    mem::size_of::<T>() <= INLINE_BYTES && mem::align_of::<T>() <= mem::align_of::<Payload>()
}

impl Payload {
    /// Moves `s` into a fresh payload. `S` must fit (`fits::<S>()`).
    fn of<S>(s: S) -> Payload {
        // Constant per `S`, so it folds away; not a `const` assertion,
        // because `Value::new` instantiates both arms for every `T`.
        assert!(fits::<S>());
        let mut p = Payload(MaybeUninit::uninit());
        // SAFETY: `S` fits the payload's size and alignment (asserted
        // above), and the payload is fresh: nothing is overwritten.
        unsafe { p.0.as_mut_ptr().cast::<S>().write(s) };
        p
    }

    /// Borrows the stored `S`.
    ///
    /// # Safety
    ///
    /// The payload holds a live `S` (written by [`Payload::of`]).
    // SAFETY: an `unsafe fn` because the contract above is the caller's.
    unsafe fn get<S>(&self) -> &S {
        // SAFETY: the caller guarantees an `S` lives here; `of` wrote it
        // at the payload's (sufficiently aligned) start.
        unsafe { &*self.0.as_ptr().cast::<S>() }
    }
}

/// Clones the `S` in `p` into a fresh payload.
///
/// # Safety
///
/// `p` holds a live `S`.
// SAFETY: an `unsafe fn` because the contract above is the caller's.
unsafe fn clone_stored<S: Clone>(p: &Payload) -> Payload {
    // SAFETY: forwarded from the caller.
    Payload::of(unsafe { p.get::<S>() }.clone())
}

/// Drops the `S` in `p` in place.
///
/// # Safety
///
/// `p` holds a live `S`, and nothing reads it afterwards.
// SAFETY: an `unsafe fn` because the contract above is the caller's.
unsafe fn drop_stored<S>(p: &mut Payload) {
    // SAFETY: forwarded from the caller.
    unsafe { p.0.as_mut_ptr().cast::<S>().drop_in_place() }
}

/// The table of a payload that stores an `S` and downcasts as `T`.
const fn table<T: 'static, S: Clone>() -> Table {
    Table {
        type_id: TypeId::of::<T>,
        clone: clone_stored::<S>,
        drop: if mem::needs_drop::<S>() {
            Some(drop_stored::<S>)
        } else {
            None
        },
    }
}

impl Value {
    /// Erases `value`: in place if it fits 16 bytes at alignment 8, else
    /// behind one `Arc`.
    pub fn new<T: TxValue>(value: T) -> Value {
        if fits::<T>() {
            Value {
                table: const { &table::<T, T>() },
                payload: Payload::of(value),
            }
        } else {
            Value {
                table: const { &table::<T, Arc<T>>() },
                payload: Payload::of(Arc::new(value)),
            }
        }
    }

    /// Borrows the stored value as a `T`; `None` if it is not one.
    pub fn downcast_ref<T: TxValue>(&self) -> Option<&T> {
        if (self.table.type_id)() != TypeId::of::<T>() {
            return None;
        }
        // SAFETY: the type ids match, so `new::<T>` built this value, and
        // it stored a `T` if `T` fits and an `Arc<T>` otherwise.
        Some(unsafe {
            if fits::<T>() {
                self.payload.get::<T>()
            } else {
                &**self.payload.get::<Arc<T>>()
            }
        })
    }
}

impl Clone for Value {
    fn clone(&self) -> Value {
        Value {
            table: self.table,
            // SAFETY: `table` describes what this payload stores.
            payload: unsafe { (self.table.clone)(&self.payload) },
        }
    }
}

impl Drop for Value {
    fn drop(&mut self) {
        if let Some(drop) = self.table.drop {
            // SAFETY: `table` describes what this payload stores, and the
            // payload is not read again.
            unsafe { drop(&mut self.payload) }
        }
    }
}

/// Downcasts a stored [`Value`] to `T`, cloning the payload out.
///
/// Panics on type mismatch — impossible through the typed `TBox<T>` API,
/// so a failure here always indicates internal corruption.
pub fn downcast_value<T: TxValue>(v: &Value) -> T {
    v.downcast_ref::<T>()
        .expect("box type invariant violated: stored value has wrong type")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Counts its clones and drops; `N` bytes of padding pick the arm.
    #[derive(Debug)]
    struct Counted<const N: usize> {
        counts: Arc<Counts>,
        _pad: [u8; N],
    }

    #[derive(Debug, Default)]
    struct Counts {
        clones: AtomicUsize,
        drops: AtomicUsize,
    }

    impl Counts {
        fn get(&self) -> (usize, usize) {
            (
                self.clones.load(Ordering::SeqCst),
                self.drops.load(Ordering::SeqCst),
            )
        }
    }

    impl<const N: usize> Counted<N> {
        fn new(counts: &Arc<Counts>) -> Self {
            Counted {
                counts: counts.clone(),
                _pad: [0; N],
            }
        }
    }

    impl<const N: usize> Clone for Counted<N> {
        fn clone(&self) -> Self {
            self.counts.clones.fetch_add(1, Ordering::SeqCst);
            Counted::new(&self.counts)
        }
    }

    impl<const N: usize> Drop for Counted<N> {
        fn drop(&mut self) {
            self.counts.drops.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// 8 bytes of `Arc` + 8 of padding: exactly the payload.
    type Small = Counted<8>;
    /// One byte past it.
    type Large = Counted<9>;

    #[test]
    fn a_value_is_three_words() {
        assert!(mem::size_of::<Value>() <= 24);
        assert_eq!(mem::size_of::<Small>(), 16);
        assert!(fits::<Small>() && !fits::<Large>());
    }

    fn clone_and_drop_once<const N: usize>() {
        // An inline clone is a second `T`; an `Arc` clone shares the one.
        let shared = usize::from(!fits::<Counted<N>>());
        let counts = Arc::new(Counts::default());
        let v = Value::new(Counted::<N>::new(&counts));
        assert_eq!(counts.get(), (0, 0), "erasing moves, it does not clone");
        let w = v.clone();
        assert_eq!(counts.get(), (1 - shared, 0), "{N}");
        let same = std::ptr::eq(
            v.downcast_ref::<Counted<N>>().unwrap(),
            w.downcast_ref::<Counted<N>>().unwrap(),
        );
        assert_eq!(same, shared == 1, "{N}: only the Arc arm shares its T");
        let out: Counted<N> = downcast_value(&w);
        assert_eq!(counts.get(), (2 - shared, 0), "{N}");
        drop((v, w, out));
        assert_eq!(
            counts.get(),
            (2 - shared, 3 - shared),
            "{N}: every copy dropped once"
        );
    }

    #[test]
    fn every_copy_drops_once_on_both_arms() {
        clone_and_drop_once::<8>();
        clone_and_drop_once::<9>();
    }

    #[test]
    fn the_boundary_is_sixteen_bytes_at_alignment_eight() {
        #[derive(Clone, Copy, PartialEq, Debug)]
        #[repr(align(16))]
        struct Aligned16(u64);
        assert!(fits::<[u64; 2]>() && fits::<(u32, u64)>() && fits::<Box<u64>>());
        assert!(!fits::<String>(), "a String header is 24 bytes");
        assert!(!fits::<[u8; 17]>() && !fits::<Aligned16>());
        let exact = Value::new([7u64, 9]);
        assert_eq!(exact.downcast_ref::<[u64; 2]>(), Some(&[7, 9]));
        let past = Value::new([3u8; 17]);
        assert_eq!(past.downcast_ref::<[u8; 17]>(), Some(&[3; 17]));
        let aligned = Value::new(Aligned16(5));
        let r = aligned.downcast_ref::<Aligned16>().unwrap();
        assert_eq!(*r, Aligned16(5));
        assert_eq!(
            r as *const Aligned16 as usize % 16,
            0,
            "over-aligned lives behind an Arc"
        );
        let s = Value::new(String::from("behind an Arc"));
        assert_eq!(downcast_value::<String>(&s.clone()), "behind an Arc");
    }

    #[test]
    fn a_zero_sized_value_round_trips() {
        #[derive(Clone, PartialEq, Debug)]
        struct Unit;
        let v = Value::new(Unit);
        assert_eq!(v.clone().downcast_ref::<Unit>(), Some(&Unit));
        assert_eq!(downcast_value::<()>(&Value::new(())), ());
    }

    #[test]
    fn a_wrong_downcast_is_none_on_both_arms() {
        let small = Value::new(5u64);
        assert_eq!(small.downcast_ref::<i64>(), None);
        assert_eq!(small.downcast_ref::<u64>(), Some(&5));
        let large = Value::new([1u64; 3]);
        assert_eq!(large.downcast_ref::<[u64; 2]>(), None);
        assert_eq!(large.downcast_ref::<u64>(), None);
        assert_eq!(large.downcast_ref::<[u64; 3]>(), Some(&[1; 3]));
    }

    #[test]
    #[should_panic(expected = "box type invariant violated")]
    fn downcast_value_panics_on_the_wrong_type() {
        downcast_value::<u32>(&Value::new(1u64));
    }

    fn dropped_on_another_thread<const N: usize>() {
        // An inline clone is a second `T`; an `Arc` clone shares the one.
        let copies = if fits::<Counted<N>>() { 2 } else { 1 };
        let counts = Arc::new(Counts::default());
        let v = Value::new(Counted::<N>::new(&counts));
        let w = v.clone();
        std::thread::spawn(move || drop(v)).join().unwrap();
        assert_eq!(counts.get(), (copies - 1, copies - 1), "{N}");
        let reader = std::thread::spawn(move || w.downcast_ref::<Counted<N>>().is_some());
        assert!(reader.join().unwrap(), "{N}");
        assert_eq!(counts.get(), (copies - 1, copies), "{N}");
    }

    #[test]
    fn a_value_built_on_one_thread_drops_on_another() {
        dropped_on_another_thread::<8>();
        dropped_on_another_thread::<9>();
    }
}
