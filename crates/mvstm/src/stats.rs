//! STM-level counters.

use std::sync::atomic::{AtomicU64, Ordering};
use wtf_backend::StmStatsSnapshot;

/// Internal atomic counters. Relaxed ordering throughout: these are
/// statistics, not synchronization.
pub(crate) struct StmStats {
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    pub(crate) commits: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    pub(crate) read_only_commits: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    pub(crate) aborts: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    pub(crate) versions_pruned: AtomicU64,
    // ordering: relaxed-rmw, relaxed-load — a statistics counter.
    pub(crate) publish_waits: AtomicU64,
}

impl StmStats {
    pub(crate) fn new() -> Self {
        StmStats {
            commits: AtomicU64::new(0),
            read_only_commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            versions_pruned: AtomicU64::new(0),
            publish_waits: AtomicU64::new(0),
        }
    }

    pub(crate) fn snapshot(&self) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            read_only_commits: self.read_only_commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            versions_pruned: self.versions_pruned.load(Ordering::Relaxed),
            publish_waits: self.publish_waits.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta() {
        let stats = StmStats::new();
        stats.commits.fetch_add(5, Ordering::Relaxed);
        stats.aborts.fetch_add(2, Ordering::Relaxed);
        let before = stats.snapshot();
        stats.commits.fetch_add(3, Ordering::Relaxed);
        stats.publish_waits.fetch_add(1, Ordering::Relaxed);
        let d = stats.snapshot().delta_since(&before);
        assert_eq!(d.commits, 3);
        assert_eq!(d.aborts, 0);
        assert_eq!(d.publish_waits, 1);
        assert_eq!(d.abort_rate(), 0.0);
    }
}
