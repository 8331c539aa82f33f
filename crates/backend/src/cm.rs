//! The contention-manager names `benchmark/` still compiles against.
//! Retry is immediate, as in the paper: no retry loop consults these.

/// The one retry policy; kept for `benchmark/` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmKind {
    /// Retry at once.
    Immediate,
}

impl CmKind {
    /// Kept for `benchmark/` only.
    pub fn build(self) -> ImmediateCm {
        ImmediateCm
    }
}

/// A policy with no state and no waits; kept for `benchmark/` only.
#[derive(Debug)]
pub struct ImmediateCm;

impl ImmediateCm {
    /// Kept for `benchmark/` only.
    pub fn begin_txn(&self) -> u64 {
        0
    }

    /// Kept for `benchmark/` only.
    pub fn on_commit(&self, _actor: u64) {}

    /// Kept for `benchmark/` only; always zero.
    pub fn stats(&self) -> CmStats {
        CmStats::default()
    }
}

/// Wait counters, always zero; kept for `benchmark/` only.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CmStats {
    pub waits: u64,
    pub total_wait: u64,
}
