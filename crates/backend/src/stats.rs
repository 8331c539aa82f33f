//! Backend-level counters, as every backend reports them.

/// Point-in-time copy of a backend's counters
/// ([`StmBackend::stats`](crate::StmBackend::stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StmStatsSnapshot {
    /// Successful top-level commits (update + read-only).
    pub commits: u64,
    /// Commits that needed no validation because the transaction read only.
    pub read_only_commits: u64,
    /// Commit- or read-time conflicts that forced a re-execution.
    pub aborts: u64,
    /// Old versions removed by commit-time GC.
    pub versions_pruned: u64,
    /// Commits that had to spin for an earlier version ticket before
    /// publishing (contention signal on the in-order publication step).
    pub publish_waits: u64,
}

impl StmStatsSnapshot {
    /// Aborts / (commits + aborts); 0 when idle.
    pub fn abort_rate(&self) -> f64 {
        let attempts = self.commits + self.aborts;
        if attempts == 0 {
            0.0
        } else {
            self.aborts as f64 / attempts as f64
        }
    }

    /// Counters gained since `earlier` (parity with
    /// `TmStatsSnapshot::delta_since`), so multi-run processes sharing
    /// one `Stm` don't double-count earlier runs' activity.
    pub fn delta_since(&self, earlier: &StmStatsSnapshot) -> StmStatsSnapshot {
        StmStatsSnapshot {
            commits: self.commits - earlier.commits,
            read_only_commits: self.read_only_commits - earlier.read_only_commits,
            aborts: self.aborts - earlier.aborts,
            versions_pruned: self.versions_pruned - earlier.versions_pruned,
            publish_waits: self.publish_waits - earlier.publish_waits,
        }
    }

    /// `(name, value)` pairs in declaration order — the single list the
    /// JSON exporters iterate, so they can't drift from the fields.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            ("commits", self.commits),
            ("read_only_commits", self.read_only_commits),
            ("aborts", self.aborts),
            ("versions_pruned", self.versions_pruned),
            ("publish_waits", self.publish_waits),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_cover_every_counter() {
        let snap = StmStatsSnapshot {
            commits: 1,
            read_only_commits: 2,
            aborts: 3,
            versions_pruned: 4,
            publish_waits: 5,
        };
        // Sum over fields() must equal the sum of all struct fields: a
        // counter missing from fields() breaks this identity.
        let total: u64 = snap.fields().iter().map(|(_, v)| v).sum();
        assert_eq!(total, 1 + 2 + 3 + 4 + 5);
    }
}
