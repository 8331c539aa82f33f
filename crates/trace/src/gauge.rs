//! Gauge registry: named pull gauges over the runtime's live state.
//!
//! Events and histograms record what happened; a gauge reads what the
//! runtime holds at one instant — how deep the version chains are, how far
//! behind the GC horizon is, how many futures are queued, how many
//! top-levels are in flight. Each gauge is a closure sampled on demand, so
//! the hot path pays nothing for it.
//!
//! Sampling is explicit: [`Tracer::sample_gauges`](crate::Tracer::sample_gauges)
//! records one row of every gauge, and the harness calls it once at the
//! end of a run, at deterministic virtual time. Nothing samples in the
//! background (a sampler thread would perturb the virtual-clock schedule
//! and break byte-determinism).

use crate::json::Json;
use parking_lot::Mutex;

/// A pull-style gauge callback. Captures `Weak` handles into the
/// runtime (the tracer is owned *by* the runtime, so `Arc` captures
/// would cycle); returns the current value, or a stale 0 once the owner
/// is gone.
pub type GaugeFn = Box<dyn Fn() -> u64 + Send + Sync>;

struct GaugeEntry {
    name: String,
    read: GaugeFn,
}

/// The per-tracer gauge registry: named gauges plus the timestamped
/// series their samples accumulate into. Registration takes a mutex (it
/// happens a handful of times at runtime construction).
pub struct GaugeRegistry {
    entries: Mutex<Vec<GaugeEntry>>,
    samples: Mutex<Vec<(u64, Vec<u64>)>>,
}

impl Default for GaugeRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl GaugeRegistry {
    pub fn new() -> GaugeRegistry {
        GaugeRegistry {
            entries: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Registers a pull-style gauge sampled on demand.
    pub fn register(&self, name: &str, f: impl Fn() -> u64 + Send + Sync + 'static) {
        self.entries.lock().push(GaugeEntry {
            name: name.to_string(),
            read: Box::new(f),
        });
    }

    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    /// Reads every gauge now, without recording. Registration order.
    pub fn read_all(&self) -> Vec<(String, u64)> {
        self.entries
            .lock()
            .iter()
            .map(|e| (e.name.clone(), (e.read)()))
            .collect()
    }

    /// Unconditionally samples every gauge into the series at `ts`,
    /// returning the sample index (`None` when no gauges are
    /// registered — an empty row would carry no information).
    pub fn record_sample(&self, ts: u64) -> Option<usize> {
        let entries = self.entries.lock();
        if entries.is_empty() {
            return None;
        }
        let values: Vec<u64> = entries.iter().map(|e| (e.read)()).collect();
        drop(entries);
        let mut samples = self.samples.lock();
        samples.push((ts, values));
        Some(samples.len() - 1)
    }

    /// Point-in-time copy of the recorded series.
    pub fn series(&self) -> GaugeSeriesSnapshot {
        GaugeSeriesSnapshot {
            names: self.entries.lock().iter().map(|e| e.name.clone()).collect(),
            samples: self.samples.lock().clone(),
        }
    }
}

/// Immutable copy of a gauge series: gauge names (registration order)
/// plus `(timestamp, values)` rows, one value per name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GaugeSeriesSnapshot {
    pub names: Vec<String>,
    pub samples: Vec<(u64, Vec<u64>)>,
}

impl GaugeSeriesSnapshot {
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The last recorded value of gauge `name`, if any.
    pub fn last(&self, name: &str) -> Option<u64> {
        let idx = self.names.iter().position(|n| n == name)?;
        self.samples.last().and_then(|(_, vs)| vs.get(idx).copied())
    }

    /// Deterministic JSON: `{"names": [...], "samples": [[ts, v0, v1,
    /// ...], ...]}` — each sample row is the timestamp followed by one
    /// value per name.
    pub fn to_json(&self) -> Json {
        let names: Vec<Json> = self.names.iter().map(|n| Json::Str(n.clone())).collect();
        let samples: Vec<Json> = self
            .samples
            .iter()
            .map(|(ts, vs)| {
                let mut row = Vec::with_capacity(vs.len() + 1);
                row.push(Json::U64(*ts));
                row.extend(vs.iter().map(|&v| Json::U64(v)));
                Json::Arr(row)
            })
            .collect();
        Json::obj(vec![
            ("names", Json::Arr(names)),
            ("samples", Json::Arr(samples)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn pull_gauges_sample_in_registration_order() {
        let reg = GaugeRegistry::new();
        reg.register("queue_depth", || 2);
        let shared = Arc::new(AtomicU64::new(7));
        let weak = Arc::downgrade(&shared);
        reg.register("chain_len", move || {
            weak.upgrade()
                .map(|v| v.load(Ordering::Relaxed))
                .unwrap_or(0)
        });
        assert_eq!(
            reg.read_all(),
            vec![("queue_depth".to_string(), 2), ("chain_len".to_string(), 7)]
        );
        reg.record_sample(100);
        shared.store(9, Ordering::Relaxed);
        reg.record_sample(250);
        let s = reg.series();
        assert_eq!(s.names, vec!["queue_depth", "chain_len"]);
        assert_eq!(s.samples, vec![(100, vec![2, 7]), (250, vec![2, 9])]);
        assert_eq!(s.last("chain_len"), Some(9));
        // Owner dropped: the pull gauge degrades to 0 instead of dangling.
        drop(shared);
        assert_eq!(reg.read_all()[1].1, 0);
    }

    #[test]
    fn empty_registry_records_nothing() {
        let reg = GaugeRegistry::new();
        assert_eq!(reg.record_sample(5), None);
        assert!(reg.series().is_empty());
    }

    #[test]
    fn series_json_round_trips() {
        let reg = GaugeRegistry::new();
        reg.register("a", || 4);
        reg.register("b", || 0);
        reg.record_sample(17);
        let j = reg.series().to_json();
        assert_eq!(j.to_string(), r#"{"names":["a","b"],"samples":[[17,4,0]]}"#);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }
}
