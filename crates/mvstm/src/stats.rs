//! STM-level counters, one block per thread, summed on read (see
//! `wtf_backend::Counters`): a commit bumps lines no other client writes.

use wtf_backend::{Counters, StmStatsSnapshot};

/// The STM's counters. Relaxed statistics, not synchronization.
#[derive(Clone, Copy)]
pub(crate) enum Counter {
    Commits,
    ReadOnlyCommits,
    Aborts,
    VersionsPruned,
    PublishWaits,
    /// Versions ever installed by commits (gauge bookkeeping; the live
    /// retained count is installed minus pruned).
    VersionsInstalled,
}

const COUNTERS: usize = Counter::VersionsInstalled as usize + 1;

#[derive(Default)]
pub(crate) struct StmStats(Counters<COUNTERS>);

impl StmStats {
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.0.add(counter as usize, n);
    }

    pub(crate) fn snapshot(&self) -> StmStatsSnapshot {
        let sums = self.0.sum();
        StmStatsSnapshot {
            commits: sums[Counter::Commits as usize],
            read_only_commits: sums[Counter::ReadOnlyCommits as usize],
            aborts: sums[Counter::Aborts as usize],
            versions_pruned: sums[Counter::VersionsPruned as usize],
            publish_waits: sums[Counter::PublishWaits as usize],
        }
    }

    /// Committed versions still retained in version chains (installed
    /// minus pruned; saturating because prunes can free initial versions
    /// that predate the counter).
    pub(crate) fn retained_versions(&self) -> u64 {
        self.0
            .get(Counter::VersionsInstalled as usize)
            .saturating_sub(self.0.get(Counter::VersionsPruned as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta() {
        let stats = StmStats::default();
        stats.add(Counter::Commits, 5);
        stats.add(Counter::Aborts, 2);
        let before = stats.snapshot();
        stats.add(Counter::Commits, 3);
        stats.add(Counter::PublishWaits, 1);
        let d = stats.snapshot().delta_since(&before);
        assert_eq!(d.commits, 3);
        assert_eq!(d.aborts, 0);
        assert_eq!(d.publish_waits, 1);
        assert_eq!(d.abort_rate(), 0.0);
    }

    #[test]
    fn retained_is_installed_minus_pruned() {
        let stats = StmStats::default();
        stats.add(Counter::VersionsInstalled, 7);
        stats.add(Counter::VersionsPruned, 3);
        assert_eq!(stats.retained_versions(), 4);
        stats.add(Counter::VersionsPruned, 9);
        assert_eq!(stats.retained_versions(), 0);
    }
}
