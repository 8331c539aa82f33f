//! The benchmark's own spans, recorded from outside the runtime around
//! each call into it. Kept in memory, written out when the pass ends.
//!
//! A [`Probe`] lives on one thread. Off (every untraced pass) `enter` is
//! one predictable branch; on, it samples one transaction in
//! [`SAMPLE_EVERY`] and stamps two `Instant`s per span, so the spans carry
//! that timer cost — `trace_overhead_frac` reports what it does to
//! throughput.

use crate::report::median;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use transactional_futures::trace::Json;

pub const SAMPLE_EVERY: u64 = 64;
/// Spans one thread keeps; sampling stops when its buffer is full, so the
/// timed loop never reallocates.
const SPAN_CAPACITY: usize = 1 << 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Atomic,
    Body,
    Read,
    Write,
    Submit,
    Evaluate,
    FutureBody,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Atomic => "atomic",
            Kind::Body => "body",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Submit => "submit",
            Kind::Evaluate => "evaluate",
            Kind::FutureBody => "future_body",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// Shared by every span of one top-level transaction.
    pub txn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the threads of one traced pass share.
pub struct Sink {
    origin: Instant,
    // ordering: relaxed-rmw — span ids only need to be unique.
    next_id: AtomicU64,
    done: Mutex<Vec<Span>>,
}

impl Sink {
    pub fn new() -> Arc<Sink> {
        Arc::new(Sink {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            done: Mutex::new(Vec::new()),
        })
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.done.lock().expect("no span writer panics holding it"))
    }
}

/// Token returned by [`Probe::enter`]; `NONE` when the span is not kept.
#[derive(Clone, Copy)]
pub struct Open(usize);
const NONE: Open = Open(usize::MAX);

/// Lets a future body, on a pool worker, continue its transaction's trace.
#[derive(Clone)]
pub struct Remote {
    sink: Arc<Sink>,
    parent: u64,
    txn: u64,
}

pub struct Probe {
    sink: Option<Arc<Sink>>,
    sampled: bool,
    txn: u64,
    spans: Vec<Span>,
    /// Ids of the open spans, innermost last; `base` sits under them.
    stack: Vec<u64>,
    base: u64,
}

impl Probe {
    pub fn off() -> Probe {
        Probe {
            sink: None,
            sampled: false,
            txn: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            base: 0,
        }
    }

    pub fn on(sink: &Arc<Sink>) -> Probe {
        Probe {
            sink: Some(sink.clone()),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            stack: Vec::with_capacity(8),
            ..Probe::off()
        }
    }

    /// On a worker: a probe whose spans hang under the submitting span.
    pub fn remote(remote: &Option<Remote>) -> Probe {
        match remote {
            None => Probe::off(),
            Some(r) => Probe {
                sink: Some(r.sink.clone()),
                sampled: true,
                txn: r.txn,
                spans: Vec::with_capacity(64),
                stack: Vec::with_capacity(4),
                base: r.parent,
            },
        }
    }

    /// Decides whether transaction number `seq` of this client is traced.
    #[inline]
    pub fn begin_txn(&mut self, client: usize, seq: u64) {
        if self.sink.is_some() {
            self.sampled =
                seq.is_multiple_of(SAMPLE_EVERY) && self.spans.len() + 64 <= SPAN_CAPACITY;
            self.txn = ((client as u64 + 1) << 48) | seq;
        }
    }

    #[inline]
    pub fn enter(&mut self, kind: Kind) -> Open {
        if !self.sampled {
            return NONE;
        }
        let sink = self.sink.as_ref().expect("sampled implies a sink");
        let id = sink.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.stack.last().copied().unwrap_or(self.base);
        self.stack.push(id);
        self.spans.push(Span {
            kind,
            id,
            parent,
            txn: self.txn,
            start_ns: sink.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        Open(self.spans.len() - 1)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if open.0 == NONE.0 {
            return;
        }
        let sink = self.sink.as_ref().expect("an open span implies a sink");
        self.spans[open.0].end_ns = sink.origin.elapsed().as_nanos() as u64;
        self.stack.pop();
    }

    /// Handle for work the innermost open span hands to another thread.
    pub fn remote_handle(&self) -> Option<Remote> {
        if !self.sampled {
            return None;
        }
        Some(Remote {
            sink: self.sink.clone().expect("sampled implies a sink"),
            parent: self.stack.last().copied().unwrap_or(self.base),
            txn: self.txn,
        })
    }

    /// Moves this thread's spans to the shared sink.
    pub fn flush(&mut self) {
        if let Some(sink) = &self.sink {
            if !self.spans.is_empty() {
                sink.done
                    .lock()
                    .expect("no span writer panics holding it")
                    .append(&mut self.spans);
            }
        }
    }
}

/// Per-layer numbers of one traced pass. Times are medians in ns; a kind
/// the workload never enters reads 0.
pub struct Summary {
    pub atomic_self_ns: f64,
    pub body_ns: f64,
    pub read_ns: f64,
    pub write_ns: f64,
    pub submit_ns: f64,
    pub evaluate_ns: f64,
    pub future_body_ns: f64,
    pub submit_to_start_ns: f64,
    pub attempts_per_commit: f64,
}

pub fn summarize(spans: &[Span]) -> Summary {
    let dur = |s: &Span| (s.end_ns.saturating_sub(s.start_ns)) as f64;
    let of =
        |kind: Kind| -> Vec<f64> { spans.iter().filter(|s| s.kind == kind).map(dur).collect() };
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    // Self time: the span minus the interval its children cover. The only
    // children of `atomic` are its body attempts, which never overlap.
    let mut body_under: HashMap<u64, f64> = HashMap::new();
    for s in spans.iter().filter(|s| s.kind == Kind::Body) {
        *body_under.entry(s.parent).or_default() += dur(s);
    }
    let atomics: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Atomic).collect();
    let atomic_self: Vec<f64> = atomics
        .iter()
        .map(|s| (dur(s) - body_under.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
        .collect();
    let submit_to_start: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == Kind::FutureBody)
        .filter_map(|s| {
            by_id
                .get(&s.parent)
                .map(|p| (s.start_ns.saturating_sub(p.start_ns)) as f64)
        })
        .collect();
    let bodies = of(Kind::Body);
    Summary {
        attempts_per_commit: if atomics.is_empty() {
            0.0
        } else {
            bodies.len() as f64 / atomics.len() as f64
        },
        atomic_self_ns: median(&atomic_self),
        body_ns: median(&bodies),
        read_ns: median(&of(Kind::Read)),
        write_ns: median(&of(Kind::Write)),
        submit_ns: median(&of(Kind::Submit)),
        evaluate_ns: median(&of(Kind::Evaluate)),
        future_body_ns: median(&of(Kind::FutureBody)),
        submit_to_start_ns: median(&submit_to_start),
    }
}

/// The trace file: one object per span.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    Json::obj(vec![
        ("workload", workload.into()),
        ("sample_every", SAMPLE_EVERY.into()),
        ("time_unit", "ns".into()),
        (
            "spans",
            Json::arr(
                spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", s.kind.name().into()),
                            ("id", s.id.into()),
                            ("parent", s.parent.into()),
                            ("txn", s.txn.into()),
                            ("start", s.start_ns.into()),
                            ("end", s.end_ns.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_probe_records_nothing() {
        let mut p = Probe::off();
        p.begin_txn(0, 0);
        let s = p.enter(Kind::Atomic);
        p.exit(s);
        assert!(p.remote_handle().is_none());
        assert!(p.spans.is_empty());
    }

    #[test]
    fn nesting_sampling_and_self_time() {
        let sink = Sink::new();
        let mut p = Probe::on(&sink);
        for seq in 0..(2 * SAMPLE_EVERY) {
            p.begin_txn(0, seq);
            let a = p.enter(Kind::Atomic);
            for _ in 0..2 {
                let b = p.enter(Kind::Body);
                let s = p.enter(Kind::Submit);
                if let Some(r) = p.remote_handle() {
                    let mut w = Probe::remote(&Some(r));
                    let f = w.enter(Kind::FutureBody);
                    let rd = w.enter(Kind::Read);
                    w.exit(rd);
                    w.exit(f);
                    w.flush();
                }
                p.exit(s);
                p.exit(b);
            }
            p.exit(a);
        }
        p.flush();
        let spans = sink.take();
        let count = |k: Kind| spans.iter().filter(|s| s.kind == k).count();
        assert_eq!(count(Kind::Atomic), 2, "one transaction in {SAMPLE_EVERY}");
        assert_eq!(count(Kind::Body), 4);
        assert_eq!(count(Kind::FutureBody), 4);
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            let want_parent = match s.kind {
                Kind::Atomic => None,
                Kind::Body => Some(Kind::Atomic),
                Kind::Submit => Some(Kind::Body),
                Kind::FutureBody => Some(Kind::Submit),
                Kind::Read => Some(Kind::FutureBody),
                _ => unreachable!(),
            };
            assert_eq!(by_id.get(&s.parent).map(|p| p.kind), want_parent);
            if let Some(p) = by_id.get(&s.parent) {
                assert_eq!(p.txn, s.txn, "spans of one transaction share its id");
            }
        }
        let sum = summarize(&spans);
        assert_eq!(sum.attempts_per_commit, 2.0);
        assert_eq!(sum.write_ns, 0.0);
        let parsed = Json::parse(&to_json("t", &spans).to_string()).expect("trace is JSON");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(spans.len())
        );
    }
}
