//! Runtime counters: the metrics the paper's evaluation reports.

use wtf_backend::Counters;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// The counters' positions in a [`TmStats`] block.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Counter { $( $name, )+ }

        const COUNTERS: usize = [$( Counter::$name, )+].len();

        /// The runtime's counters, one block per thread, summed on read
        /// (relaxed: statistics, not synchronization).
        #[derive(Default)]
        pub struct TmStats(Counters<COUNTERS>);

        /// Point-in-time copy of [`TmStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct TmStatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )+
        }

        impl TmStats {
            pub(crate) fn snapshot(&self) -> TmStatsSnapshot {
                let sums = self.0.sum();
                TmStatsSnapshot {
                    $( $name: sums[Counter::$name as usize], )+
                }
            }

            $(
                pub(crate) fn $name(&self) {
                    self.0.add(Counter::$name as usize, 1);
                }
            )+
        }

        impl TmStatsSnapshot {
            /// Difference between two snapshots (for measuring one run).
            pub fn delta_since(&self, earlier: &TmStatsSnapshot) -> TmStatsSnapshot {
                TmStatsSnapshot {
                    $( $name: self.$name - earlier.$name, )+
                }
            }

            /// `(name, value)` pairs in declaration order — generated
            /// alongside the fields, so exporters can't go stale.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )+ ]
            }
        }
    };
}

counters! {
    /// Successful top-level commits.
    top_commits,
    /// Top-level aborts from commit-time read validation (conflicts with
    /// other top-level transactions).
    top_aborts,
    /// Whole-top-level restarts forced by an internal doom that could not
    /// be contained to a segment (cascading rollback).
    top_internal_restarts,
    /// Futures submitted.
    futures_submitted,
    /// Futures serialized at their submission point (forward validation
    /// succeeded).
    serialized_at_submission,
    /// Futures serialized at their evaluation point (backward validation
    /// succeeded).
    serialized_at_evaluation,
    /// Escaping futures adopted by an evaluating top-level (GAC).
    adopted_escaping,
    /// Implicit evaluations performed at commit under LAC.
    implicit_evaluations,
    /// Internal aborts: future-body retries, doomed continuation segments
    /// and evaluation-time re-executions.
    internal_aborts,
    /// Futures re-executed inline at their evaluation point after failing
    /// backward validation.
    reexecutions,
    /// Continuation segments retried locally after being doomed (partial
    /// rollback via checkpoints).
    segment_retries,
}

impl TmStatsSnapshot {
    /// Top-level abort rate: aborts / (commits + aborts). This is the
    /// "top-level abort rate" of Figs. 7b and 9.
    pub fn top_abort_rate(&self) -> f64 {
        rate(
            self.top_aborts + self.top_internal_restarts,
            self.top_commits,
        )
    }

    /// Internal abort rate: internal aborts over internal serialization
    /// successes (the "internal abort rate" of Figs. 7b and 8).
    pub fn internal_abort_rate(&self) -> f64 {
        let successes =
            self.serialized_at_submission + self.serialized_at_evaluation + self.adopted_escaping;
        rate(self.internal_aborts, successes)
    }
}

fn rate(bad: u64, good: u64) -> f64 {
    if bad + good == 0 {
        0.0
    } else {
        bad as f64 / (bad + good) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let mut s = TmStatsSnapshot::default();
        assert_eq!(s.top_abort_rate(), 0.0);
        s.top_commits = 3;
        s.top_aborts = 1;
        assert!((s.top_abort_rate() - 0.25).abs() < 1e-12);
        s.serialized_at_submission = 8;
        s.internal_aborts = 2;
        assert!((s.internal_abort_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn delta() {
        let stats = TmStats::default();
        stats.top_commits();
        let before = stats.snapshot();
        stats.top_commits();
        stats.internal_aborts();
        let after = stats.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.top_commits, 1);
        assert_eq!(d.internal_aborts, 1);
        // fields() comes from the same macro list as the struct, so its
        // total must equal everything counted since `before`.
        assert_eq!(d.fields().iter().map(|(_, v)| v).sum::<u64>(), 2);
        let names: Vec<&str> = d.fields().iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"top_commits"));
        assert!(names.contains(&"segment_retries"));
    }

    /// Bumps from many threads land in their own blocks and sum exactly.
    #[test]
    fn counts_from_many_threads_sum_exactly() {
        const THREADS: u64 = 6;
        const K: u64 = 5_000;
        let stats = std::sync::Arc::new(TmStats::default());
        let before = stats.snapshot();
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let stats = stats.clone();
                std::thread::spawn(move || {
                    for _ in 0..K {
                        stats.top_commits();
                        stats.segment_retries();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let d = stats.snapshot().delta_since(&before);
        assert_eq!(d.top_commits, THREADS * K);
        assert_eq!(d.segment_retries, THREADS * K);
        assert_eq!(
            d.fields().iter().map(|(_, v)| v).sum::<u64>(),
            2 * THREADS * K
        );
    }
}
