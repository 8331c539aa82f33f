//! Type-erased values stored in transactional boxes.

use std::any::Any;
use std::sync::Arc;

/// Unique identifier of a box within its backend instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoxId(pub u64);

/// A type-erased, immutably shared transactional value.
///
/// One backend holds boxes of many types, so values are stored erased and
/// downcast at the typed [`TBox`](crate::TBox) facade. Values are
/// immutable once installed — mutation happens by installing a *new*
/// version — which is what makes lock-free snapshot reads safe.
pub type Value = Arc<dyn Any + Send + Sync>;

/// Marker trait for types storable in a box. Blanket-implemented.
pub trait TxValue: Any + Send + Sync + Clone {}
impl<T: Any + Send + Sync + Clone> TxValue for T {}

/// Downcasts a stored [`Value`] to `T`, cloning the payload out.
///
/// Panics on type mismatch — impossible through the typed `TBox<T>` API,
/// so a failure here always indicates internal corruption.
pub fn downcast_value<T: TxValue>(v: &Value) -> T {
    v.downcast_ref::<T>()
        .expect("box type invariant violated: stored value has wrong type")
        .clone()
}
