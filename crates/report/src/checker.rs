//! The offline history checker: rebuild a [`History`] and its FSG from a
//! `wtf-trace` event stream alone, and re-derive the runtime's commit and
//! abort decisions independently.
//!
//! ## What the trace gives us
//!
//! At `Full` detail every commit leaves a *serialization record* on the
//! committing thread's lane: one [`EventKind::CommitRead`] per read-set
//! entry (box id + the version the transaction observed), immediately
//! followed by the commit marker — [`EventKind::TopCommit`] for
//! `wtf-core` top-levels, [`EventKind::TxnCommit`] for baseline `mvstm`
//! transactions. Writes are recovered from [`EventKind::StmInstall`]
//! (box id + commit version), and commit versions are globally unique
//! tickets, so `version -> writer` is a bijection the checker can invert.
//!
//! ## The verdict
//!
//! Committed transactions are ordered by their serialization position
//! (writers at their commit version, read-only transactions at their
//! snapshot, after the writer of that version), a [`History`] is built
//! with every read labeled by the writer it observed, and the polygraph
//! is rebuilt via [`wtf_fsg::build_fsg`] — the same §3.4 construction the
//! paper's acceptance criterion uses, driven *only* by trace data. The
//! run is accepted iff [`Polygraph::acyclic_witness`] finds an edge
//! choice; otherwise the shared cycle finder names a concrete cycle.
//! Every [`EventKind::TopConflictAbort`] must additionally be *justified*
//! by an install newer than the doomed transaction's snapshot: the doomed
//! top read the box before that install yet tried to commit after it, a
//! two-edge cycle that makes the abort necessary.
//!
//! Serialized futures of committed top-levels are replayed into the
//! history as sub-transactions (submission, optional evaluation), so the
//! graph carries the paper's ordering bipaths; their operation effects
//! are already folded into their top-level's serialization record.

use crate::{ReportError, Trace};
use std::collections::HashMap;
use wtf_fsg::{build_fsg, History, Semantics, TxId, Var};
use wtf_trace::EventKind;

fn err<T>(msg: impl Into<String>) -> Result<T, ReportError> {
    Err(ReportError(msg.into()))
}

/// What a successful verification covered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Events consumed across all lanes.
    pub events: usize,
    /// Committed `wtf-core` top-level transactions.
    pub committed_tops: usize,
    /// Committed baseline `mvstm` transactions.
    pub committed_txns: usize,
    /// Writers reconstructed from installs with no commit marker (raw
    /// STM API users).
    pub anonymous_writers: usize,
    /// Serialized futures replayed into the history.
    pub futures: usize,
    /// Cross-top conflict aborts justified by a concrete newer install.
    pub dooms_justified: usize,
    /// Conflict aborts seen in a lifecycle-only trace (no install data to
    /// justify them with).
    pub dooms_unverified: usize,
    /// Bipath choices in the acyclic witness.
    pub witness_edges: usize,
    /// Whether per-operation (`Full`) data was present; without it only
    /// structural lifecycle checks run.
    pub full_detail: bool,
}

impl CheckReport {
    /// One-line human rendering for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "ok: {} events, {} top commits, {} txn commits, {} anonymous writers, \
             {} futures, {} dooms justified ({} unverified), witness edges {}, detail {}",
            self.events,
            self.committed_tops,
            self.committed_txns,
            self.anonymous_writers,
            self.futures,
            self.dooms_justified,
            self.dooms_unverified,
            self.witness_edges,
            if self.full_detail {
                "full"
            } else {
                "lifecycle"
            },
        )
    }
}

/// One reconstructed committed transaction.
struct Commit {
    /// `wtf-core` top-level id, if any (`None` = baseline mvstm txn or
    /// anonymous raw-API writer).
    top: Option<u64>,
    /// Commit version (writers) or snapshot version (read-only commits).
    version: u64,
    /// Begin snapshot, when the trace records it.
    snapshot: Option<u64>,
    /// `(box, observed_version)` from the commit's serialization record.
    reads: Vec<(u64, u64)>,
}

/// How a future was serialized, per its last lifecycle event.
enum FutureMode {
    Submission,
    /// Serialized at evaluation (or adopted) by the given top-level.
    Evaluation(u64),
}

impl Trace {
    /// The trace-driven serializability check: `Ok` means the run's
    /// commit/abort decisions are independently consistent with FSG
    /// acceptance.
    pub fn verify(&self) -> Result<CheckReport, ReportError> {
        self.intact()?;
        let mut report = CheckReport::default();

        // ---- Pass 1: scan lanes into commits / installs / dooms. ----
        let mut commits: Vec<Commit> = Vec::new();
        let mut installs: HashMap<u64, Vec<u64>> = HashMap::new(); // version -> boxes
        let mut top_snapshots: HashMap<u64, u64> = HashMap::new();
        let mut top_commits: HashMap<u64, usize> = HashMap::new();
        let mut dooms: Vec<(u64, u64)> = Vec::new(); // (top, box)
        let mut future_spawn: HashMap<u64, u64> = HashMap::new(); // future -> top
        let mut future_mode: HashMap<u64, FutureMode> = HashMap::new();
        for (lane, events) in &self.lanes {
            let mut pending: Vec<(u64, u64)> = Vec::new();
            for ev in events {
                report.events += 1;
                match ev.kind {
                    EventKind::CommitRead => pending.push((ev.a, ev.b)),
                    EventKind::TopCommit => {
                        *top_commits.entry(ev.a).or_insert(0) += 1;
                        commits.push(Commit {
                            top: Some(ev.a),
                            version: ev.b,
                            snapshot: None,
                            reads: std::mem::take(&mut pending),
                        });
                    }
                    EventKind::TxnCommit => commits.push(Commit {
                        top: None,
                        version: ev.a,
                        snapshot: Some(ev.b),
                        reads: std::mem::take(&mut pending),
                    }),
                    // The insert in the guard is load-bearing: it records
                    // the snapshot, and a prior mapping means a double begin.
                    EventKind::TopBegin if top_snapshots.insert(ev.a, ev.b).is_some() => {
                        return err(format!("top {} began twice", ev.a));
                    }
                    EventKind::TopConflictAbort => dooms.push((ev.a, ev.b)),
                    EventKind::StmInstall => {
                        let boxes = installs.entry(ev.b).or_default();
                        if !boxes.contains(&ev.a) {
                            boxes.push(ev.a);
                        }
                    }
                    EventKind::FutureSubmit => {
                        future_spawn.insert(ev.a, ev.b);
                    }
                    EventKind::FutureSerializedSubmission => {
                        future_mode.insert(ev.a, FutureMode::Submission);
                    }
                    EventKind::FutureSerializedEvaluation | EventKind::FutureAdopted => {
                        future_mode.insert(ev.a, FutureMode::Evaluation(ev.b));
                    }
                    _ => {}
                }
            }
            if !pending.is_empty() {
                return err(format!(
                    "lane {lane}: {} commit_read events with no following commit marker \
                     — truncated or corrupted trace",
                    pending.len()
                ));
            }
        }

        // ---- Structural checks (any trace level). ----
        for (&top, &n) in &top_commits {
            if n > 1 {
                return err(format!("top {top} committed {n} times"));
            }
            if !top_snapshots.contains_key(&top) {
                return err(format!("top {top} committed without a recorded begin"));
            }
        }
        for &(top, _) in &dooms {
            if !top_snapshots.contains_key(&top) {
                return err(format!(
                    "top {top} conflict-aborted without a recorded begin"
                ));
            }
            if top_commits.contains_key(&top) {
                // A cross-top abort cancels the incarnation; the retry gets
                // a fresh top id, so one id never both aborts and commits.
                return err(format!("top {top} both conflict-aborted and committed"));
            }
        }

        report.full_detail = !installs.is_empty()
            || commits
                .iter()
                .any(|c| c.top.is_none() || !c.reads.is_empty());
        if !report.full_detail {
            // Lifecycle-only stream: no read/install data to rebuild the
            // polygraph from. Structural checks above still hold.
            report.committed_tops = commits.iter().filter(|c| c.top.is_some()).count();
            report.dooms_unverified = dooms.len();
            return Ok(report);
        }

        // ---- Resolve snapshots and claim writers. ----
        for c in &mut commits {
            if c.snapshot.is_none() {
                c.snapshot = c.top.and_then(|t| top_snapshots.get(&t)).copied();
            }
        }
        // version -> index into `commits`, for writers only. A commit is a
        // writer iff it committed strictly above its snapshot (tickets are
        // reserved past the clock, so read-only commits sit *at* their
        // snapshot and can never collide with a writer's ticket).
        let mut writer_of: HashMap<u64, usize> = HashMap::new();
        for (i, c) in commits.iter().enumerate() {
            let snap = match c.snapshot {
                Some(s) => s,
                None => return err("commit with unknown snapshot".to_string()),
            };
            if c.version > snap {
                if !installs.contains_key(&c.version) {
                    return err(format!(
                        "commit at version {} (snapshot {snap}) has no recorded installs",
                        c.version
                    ));
                }
                if writer_of.insert(c.version, i).is_some() {
                    return err(format!(
                        "two commits claim version {} — tickets must be unique",
                        c.version
                    ));
                }
            }
        }
        // Installs nobody claims: raw-API writers without commit markers.
        // Reconstruct them as write-only transactions.
        let mut anon_versions: Vec<u64> = installs
            .keys()
            .copied()
            .filter(|v| !writer_of.contains_key(v))
            .collect();
        anon_versions.sort_unstable();
        for v in anon_versions {
            let i = commits.len();
            commits.push(Commit {
                top: None,
                version: v,
                snapshot: None,
                reads: Vec::new(),
            });
            writer_of.insert(v, i);
            report.anonymous_writers += 1;
        }

        // ---- Serialization order: writers at their version, read-only
        // commits at their snapshot, after that version's writer. ----
        let mut order: Vec<usize> = (0..commits.len()).collect();
        let sort_key = |i: usize| {
            let c = &commits[i];
            let writer = c.snapshot.map(|s| c.version > s).unwrap_or(true);
            (c.version, u8::from(!writer), i)
        };
        order.sort_by_key(|&i| sort_key(i));

        // ---- Rebuild the history. ----
        let mut h = History::new();
        let mut history_id: HashMap<usize, TxId> = HashMap::new();
        let mut top_history_id: HashMap<u64, TxId> = HashMap::new();
        for &i in &order {
            let id = h.begin_top();
            history_id.insert(i, id);
            if let Some(t) = commits[i].top {
                top_history_id.insert(t, id);
            }
        }
        // Futures of committed tops, grouped by spawner: replayed as
        // empty-bodied sub-transactions so the FSG carries the ordering
        // bipaths. Their data effects already live in the spawner's
        // serialization record.
        let mut futures_of: HashMap<u64, Vec<u64>> = HashMap::new();
        for (&fut, &top) in &future_spawn {
            if top_history_id.contains_key(&top) && future_mode.contains_key(&fut) {
                futures_of.entry(top).or_default().push(fut);
            }
        }
        for futs in futures_of.values_mut() {
            futs.sort_unstable();
        }
        // Evaluations to emit while replaying a given top's stream.
        let mut evals_in: HashMap<u64, Vec<TxId>> = HashMap::new();
        let mut fut_history_id: HashMap<u64, TxId> = HashMap::new();

        for &i in &order {
            let c = &commits[i];
            let me = history_id[&i];
            if let Some(top) = c.top {
                for &fut in futures_of.get(&top).map(Vec::as_slice).unwrap_or(&[]) {
                    let fh = h.submit(me);
                    h.commit(fh);
                    fut_history_id.insert(fut, fh);
                    report.futures += 1;
                    match future_mode[&fut] {
                        FutureMode::Submission => {}
                        FutureMode::Evaluation(evaluator) => {
                            if evaluator == top {
                                h.evaluate(me, fh);
                            } else if top_history_id.contains_key(&evaluator) {
                                evals_in.entry(evaluator).or_default().push(fh);
                            }
                            // Evaluator never committed: no constraint to
                            // replay (its inclusion died with it).
                        }
                    }
                }
                // Adoptions this top performed of earlier tops' escapees.
                if let Some(pending_evals) = evals_in.remove(&top) {
                    for fh in pending_evals {
                        h.evaluate(me, fh);
                    }
                }
            }
            let snap = c.snapshot;
            let mut reads = c.reads.clone();
            reads.sort_unstable();
            for (bx, observed) in reads {
                if let Some(s) = snap {
                    if observed > s {
                        return err(format!(
                            "commit {} read box {bx} at version {observed}, newer than \
                             its snapshot {s}",
                            describe(c)
                        ));
                    }
                }
                // Version 0 is every box's initial value: backends stamp
                // a new box at 0 whenever it is created, and no commit
                // installs at 0.
                if observed == 0 {
                    h.read(me, Var(bx as u32));
                } else {
                    let wi = match writer_of.get(&observed) {
                        Some(&wi) => wi,
                        None => {
                            return err(format!(
                                "commit {} read box {bx} at version {observed}, but no \
                                 install created that version",
                                describe(c)
                            ))
                        }
                    };
                    if !installs[&observed].contains(&bx) {
                        return err(format!(
                            "commit {} read box {bx} at version {observed}, but that \
                             version installed different boxes",
                            describe(c)
                        ));
                    }
                    h.read_observing(me, Var(bx as u32), history_id[&wi]);
                }
            }
            if let Some(boxes) = installs.get(&c.version) {
                let writes_here = c.snapshot.map(|s| c.version > s).unwrap_or(true);
                if writes_here {
                    let mut boxes = boxes.clone();
                    boxes.sort_unstable();
                    for bx in boxes {
                        h.write(me, Var(bx as u32));
                    }
                }
            }
            h.commit(me);
            match c.top {
                Some(_) => report.committed_tops += 1,
                None if c.snapshot.is_some() => report.committed_txns += 1,
                None => {}
            }
        }

        // ---- The verdict: rebuild the polygraph, demand a witness. ----
        let fsg = build_fsg(&h, Semantics::WO_GAC);
        match fsg.polygraph.acyclic_witness() {
            Some(witness) => report.witness_edges = witness.len(),
            None => {
                let cycle = fsg
                    .polygraph
                    .find_cycle()
                    .map(|c| render_cycle(&fsg, &c))
                    .unwrap_or_else(|| "every bipath choice closes a cycle".to_string());
                return err(format!(
                    "committed history is not serializable: no acyclic witness; {cycle}"
                ));
            }
        }

        // ---- Doom justification: every cross-top abort needs a newer
        // install on the box it was charged to. ----
        for &(top, bx) in &dooms {
            let snap = top_snapshots[&top];
            if !installs
                .iter()
                .any(|(&v, boxes)| v > snap && boxes.contains(&bx))
            {
                return err(format!(
                    "top {top} was conflict-aborted on box {bx} (snapshot {snap}), \
                     but no install newer than the snapshot exists for that box — \
                     the abort is unjustified"
                ));
            }
            report.dooms_justified += 1;
        }
        Ok(report)
    }
}

fn describe(c: &Commit) -> String {
    match c.top {
        Some(t) => format!("of top {t} (version {})", c.version),
        None => format!("of txn at version {}", c.version),
    }
}

/// Renders a polygraph cycle with the FSG's paper-style vertex labels.
fn render_cycle(fsg: &wtf_fsg::Fsg, cycle: &[(usize, usize)]) -> String {
    use wtf_fsg::VertexKind;
    let label = |n: usize| match fsg.vertices[n].kind {
        VertexKind::Begin(t) => format!("V_begin(T{})", t.0),
        VertexKind::CBegin(f) => format!("V_C-begin(F{})", f.0),
        VertexKind::Eval(f) => format!("V_eval(F{})", f.0),
    };
    let edges: Vec<String> = cycle
        .iter()
        .map(|&(a, b)| format!("{} -> {}", label(a), label(b)))
        .collect();
    format!("fixed-edge cycle: {}", edges.join(", "))
}
