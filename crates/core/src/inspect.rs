//! Snapshot exporters for the per-top-level dependency graph **G**.
//!
//! The graph is the paper's core runtime artifact: every doom, cascade
//! and serialization decision is a structural fact about it. This module
//! renders a live [`TopLevel`]'s graph as Graphviz DOT (for eyes) and as
//! JSON (for tools), and auto-dumps snapshots at the two moments the
//! structure explains a failure:
//!
//! * **doom** — an uncontained sub-transaction doom cascades to a
//!   whole-top-level restart; and
//! * **abort-storm** — a run of consecutive cross-top conflict aborts
//!   with no intervening commit (livelock smell).
//!
//! Auto-dumps fire only at `WTF_TRACE>=2` (`Tracer::full`), write to
//! the TM's snapshot directory (`WTF_SNAPSHOT_DIR`, default
//! `results/snapshots`, resolved when the TM is built), and are
//! rate-limited by a per-TM budget of [`DUMP_LIMIT`] so a pathological
//! run cannot fill the disk.
//!
//! DOT encoding: node fill encodes [`NodeStatus`], a red outline marks
//! doomed nodes, and `rank` (longest path from the root — the iCommit
//! overlay order) is printed in each label.

use crate::graph::{GraphInner, NodeStatus};
use crate::node::SubTxNode;
use crate::toplevel::TopLevel;
use crate::TmInner;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use wtf_trace::Json;

/// Consecutive cross-top conflict aborts (without a commit) that count
/// as an abort storm.
pub const ABORT_STORM: u64 = 20;

/// Automatic-dump budget per TM.
pub const DUMP_LIMIT: u64 = 8;

fn status_name(s: NodeStatus) -> &'static str {
    match s {
        NodeStatus::Active => "active",
        NodeStatus::ICommitted => "icommitted",
        NodeStatus::CompletedPending => "completed_pending",
        NodeStatus::Aborted => "aborted",
    }
}

fn status_fill(s: NodeStatus) -> &'static str {
    match s {
        NodeStatus::Active => "lightblue",
        NodeStatus::ICommitted => "palegreen",
        NodeStatus::CompletedPending => "khaki",
        NodeStatus::Aborted => "lightgray",
    }
}

/// Per-node annotations that live outside the graph snapshot (the node
/// table knows kinds and doom flags; the graph knows edges and status).
struct NodeAnnotations {
    kinds: Vec<&'static str>,
    doomed: Vec<bool>,
}

impl TopLevel {
    /// `(stamp, G, annotations)`. A flat top-level (no G yet) renders as
    /// its single root and is *not* inflated: the caller may be a foreign
    /// thread (a pool worker whose serialization doomed this top-level).
    fn render_view(&self) -> (u64, Arc<GraphInner>, NodeAnnotations) {
        let annotate = |nodes: &[Arc<SubTxNode>]| NodeAnnotations {
            kinds: nodes
                .iter()
                .map(|n| match n.kind {
                    crate::node::NodeKind::Root => "root",
                    crate::node::NodeKind::Future => "future",
                    crate::node::NodeKind::Continuation => "cont",
                    crate::node::NodeKind::Eval => "eval",
                })
                .collect(),
            doomed: nodes.iter().map(|n| n.is_doomed()).collect(),
        };
        match self.inflated() {
            Some(sub) => {
                let (stamp, g) = sub.graph.snapshot();
                let ann = annotate(&sub.nodes.read());
                (stamp, g, ann)
            }
            None => {
                let status = if self.is_sealed() {
                    NodeStatus::ICommitted
                } else {
                    NodeStatus::Active
                };
                let g = Arc::new(GraphInner::root(status));
                (0, g, annotate(std::slice::from_ref(&self.root)))
            }
        }
    }

    /// Graphviz DOT rendering of this top-level's dependency graph.
    pub fn graph_dot(&self) -> String {
        let (stamp, g, ann) = self.render_view();
        graph_dot_impl(&g, &ann, self.id, stamp, self.is_doomed())
    }

    /// JSON rendering: node status/kind/rank/doom plus the edge list, in
    /// iCommit-overlay (rank, then id) order.
    pub fn graph_json(&self) -> Json {
        let (stamp, g, ann) = self.render_view();
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.sort_by_key(|&n| (g.rank(n), n));
        let nodes: Vec<Json> = order
            .iter()
            .map(|&n| {
                Json::obj(vec![
                    ("id", n.into()),
                    ("kind", (*ann.kinds.get(n).unwrap_or(&"?")).into()),
                    ("status", status_name(g.status(n)).into()),
                    ("rank", u64::from(g.rank(n)).into()),
                    ("doomed", ann.doomed.get(n).copied().unwrap_or(false).into()),
                ])
            })
            .collect();
        let edges: Vec<Json> = (0..g.len())
            .flat_map(|from| {
                g.succs(from)
                    .iter()
                    .map(move |&to| Json::arr(vec![from.into(), to.into()]))
            })
            .collect();
        Json::obj(vec![
            ("top", self.id.into()),
            ("stamp", stamp.into()),
            ("doomed", self.is_doomed().into()),
            (
                "icommit_order",
                Json::Arr(order.iter().map(|&n| n.into()).collect()),
            ),
            ("nodes", Json::Arr(nodes)),
            ("edges", Json::Arr(edges)),
        ])
    }
}

fn graph_dot_impl(
    g: &GraphInner,
    ann: &NodeAnnotations,
    top_id: u64,
    stamp: u64,
    top_doomed: bool,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "digraph top{top_id} {{");
    let _ = writeln!(
        out,
        "  label=\"top {top_id} stamp {stamp}{}\";",
        if top_doomed { " DOOMED" } else { "" }
    );
    let _ = writeln!(out, "  rankdir=TB;");
    let _ = writeln!(out, "  node [shape=box style=filled];");
    for n in 0..g.len() {
        let doomed = ann.doomed.get(n).copied().unwrap_or(false);
        let outline = if doomed { " color=red penwidth=2" } else { "" };
        let _ = writeln!(
            out,
            "  n{n} [label=\"n{n} {} {}\\nrank {}{}\" fillcolor={}{}];",
            ann.kinds.get(n).unwrap_or(&"?"),
            status_name(g.status(n)),
            g.rank(n),
            if doomed { " doomed" } else { "" },
            status_fill(g.status(n)),
            outline,
        );
    }
    for from in 0..g.len() {
        for &to in g.succs(from) {
            let _ = writeln!(out, "  n{from} -> n{to};");
        }
    }
    out.push_str("}\n");
    out
}

/// Claims one unit of the TM's dump budget. Returns false once spent.
fn claim_dump(tm: &TmInner) -> bool {
    tm.dumps_remaining
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
        .is_ok()
}

/// Dumps `top`'s graph as `{reason}_top{id}.dot` + `.json` in the
/// snapshot dir. Rate-limited by the TM's dump budget; IO errors are
/// reported to stderr but never propagate into the transaction path.
pub(crate) fn auto_dump(tm: &TmInner, top: &TopLevel, reason: &str) {
    if !claim_dump(tm) {
        return;
    }
    let dir = &tm.snapshot_dir;
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("[wtf-inspect] cannot create {}: {e}", dir.display());
        return;
    }
    let dot_path = dir.join(format!("{reason}_top{}.dot", top.id));
    let json_path = dir.join(format!("{reason}_top{}.json", top.id));
    if let Err(e) = std::fs::write(&dot_path, top.graph_dot()) {
        eprintln!("[wtf-inspect] cannot write {}: {e}", dot_path.display());
    }
    if let Err(e) = std::fs::write(&json_path, top.graph_json().to_string()) {
        eprintln!("[wtf-inspect] cannot write {}: {e}", json_path.display());
    }
}

/// Cross-top conflict-abort hook: bumps the storm streak and dumps the
/// aborting top's graph when the streak reaches the threshold. Only
/// active at `WTF_TRACE>=2` (one relaxed load otherwise).
pub(crate) fn on_conflict_abort(tm: &TmInner, top: &TopLevel) {
    if !tm.tracer.full() {
        return;
    }
    let streak = tm.conflict_abort_streak.fetch_add(1, Ordering::Relaxed) + 1;
    if streak == ABORT_STORM {
        auto_dump(tm, top, "abort_storm");
    }
}
