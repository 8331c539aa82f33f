//! The per-top-level dependency graph **G** (§4.1 of the paper).
//!
//! G tracks the serialization constraints among the sub-transactions of a
//! single top-level transaction: future bodies, continuation segments and
//! evaluation segments. Nodes are added on `submit`/`evaluate`/`step`;
//! edges encode "serialized before".
//!
//! Readers need consistent ancestor sets without blocking the (rare)
//! writers. The paper uses a stamp-validated lock-free traversal; we get
//! the same effect with a safe-Rust strengthening: the graph body is an
//! immutable snapshot behind `RwLock<Arc<GraphInner>>`. Readers clone the
//! `Arc` (nanoseconds under a read lock) and traverse their private
//! snapshot; writers clone-on-write and bump a stamp. The stamp is still
//! exposed so callers can detect that their cached ancestor view went
//! stale — the paper's optimistic re-read, minus the torn-read hazard.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a sub-transaction node within its top-level transaction.
pub type NodeId = usize;

/// Visibility status of a node's write-set, kept inside the snapshot so a
/// single `Arc` clone observes statuses and edges atomically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Running; writes are private.
    Active,
    /// Internally committed: writes visible to descendant sub-transactions
    /// of the same top-level transaction (the paper's `iCommit`).
    ICommitted,
    /// A future that finished executing but could not serialize at
    /// submission; its writes stay invisible until it serializes upon
    /// evaluation (or is adopted by another top-level under GAC).
    CompletedPending,
    /// Aborted incarnation (being replaced).
    Aborted,
}

/// Immutable graph snapshot.
#[derive(Debug, Clone, Default)]
pub struct GraphInner {
    pub preds: Vec<Vec<NodeId>>,
    pub succs: Vec<Vec<NodeId>>,
    pub status: Vec<NodeStatus>,
    /// Longest-path-from-root rank: ancestors overlay their write-sets in
    /// ascending rank order, so higher rank = closer ancestor = wins.
    pub rank: Vec<u32>,
}

impl GraphInner {
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    fn recompute_ranks(&mut self) {
        // Longest path over a DAG in topological order (Kahn).
        let n = self.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds[i].len()).collect();
        let mut stack: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut rank = vec![0u32; n];
        let mut seen = 0;
        while let Some(u) = stack.pop() {
            seen += 1;
            for &v in &self.succs[u] {
                rank[v] = rank[v].max(rank[u] + 1);
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        debug_assert_eq!(seen, n, "G must stay acyclic");
        self.rank = rank;
    }

    /// All ancestors of `node` (reverse reachability, excluding `node`),
    /// in ascending rank order — the overlay order for building the
    /// ancestor write view.
    pub fn ancestors(&self, node: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![node];
        seen[node] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &p in &self.preds[u] {
                if !seen[p] {
                    seen[p] = true;
                    out.push(p);
                    stack.push(p);
                }
            }
        }
        out.sort_by_key(|&n| (self.rank[n], n));
        out
    }

    /// All nodes reachable from `node` (excluding it): the set forward
    /// validation scans for readers that would be invalidated by
    /// serializing a future at its submission point.
    pub fn reachable_from(&self, node: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![node];
        seen[node] = true;
        let mut out = Vec::new();
        while let Some(u) = stack.pop() {
            for &s in &self.succs[u] {
                if !seen[s] {
                    seen[s] = true;
                    out.push(s);
                    stack.push(s);
                }
            }
        }
        out
    }

    /// The backward chain from `from` (exclusive) to `stop` (exclusive):
    /// the sub-transactions that executed concurrently with a future being
    /// serialized upon evaluation. Follows the maximum-rank predecessor at
    /// each step — the serialization chain (the paper's footnote: G has no
    /// backward bifurcations among serialized nodes).
    pub fn backward_chain(&self, from: NodeId, stop: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = from;
        loop {
            let next = self.preds[cur]
                .iter()
                .copied()
                .max_by_key(|&p| (self.rank[p], p));
            match next {
                Some(p) if p != stop => {
                    out.push(p);
                    cur = p;
                }
                _ => break,
            }
        }
        out
    }
}

/// The shared, stamped graph.
pub struct Graph {
    inner: RwLock<Arc<GraphInner>>,
    // ordering: seqcst-rmw, seqcst-load — a seqlock over graph
    // publication: `update` bumps the stamp to odd on entry (under the
    // write lock, before its closure scans any read-set) and back to even
    // after publishing, so `snapshot` (under the read lock) only ever
    // returns even stamps and the unlocked re-check in `ctx.rs::read`
    // differs from its view's stamp whenever a writer entered since the
    // view was built. SeqCst keeps the stamp totally ordered against the
    // read-set mutexes and graph publication the protocol interleaves
    // with; a weaker load could pair a stale stamp with a newer graph.
    stamp: AtomicU64,
}

impl GraphInner {
    /// The one-node graph of a top-level with no sub-transactions.
    pub fn root(status: NodeStatus) -> GraphInner {
        GraphInner {
            preds: vec![Vec::new()],
            succs: vec![Vec::new()],
            status: vec![status],
            rank: vec![0],
        }
    }
}

impl Graph {
    /// A graph with the root sub-transaction (node 0, Active).
    pub fn with_root() -> Graph {
        Graph {
            inner: RwLock::new(Arc::new(GraphInner::root(NodeStatus::Active))),
            stamp: AtomicU64::new(0),
        }
    }

    /// Current stamp: odd while a writer is inside `update`, and moved
    /// past every stamp a `snapshot` returned before that writer entered.
    /// `SeqCst` pairs with the read-side re-check protocol (see `ctx.rs`).
    pub fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::SeqCst)
    }

    /// Cheap consistent snapshot: `(stamp, graph)` taken atomically. The
    /// stamp is even: the read lock excludes a writer mid-`update`.
    pub fn snapshot(&self) -> (u64, Arc<GraphInner>) {
        let guard = self.inner.read();
        let stamp = self.stamp.load(Ordering::SeqCst);
        (stamp, guard.clone())
    }

    /// Clone-mutate-publish under the write lock. Returns `f`'s output.
    /// The stamp moves on entry as well as on exit: `f` may scan
    /// read-sets (forward validation), and a reader that records a read
    /// after that scan must fail its stamp re-check even though the new
    /// graph is not published yet.
    pub fn update<R>(&self, f: impl FnOnce(&mut GraphInner) -> R) -> R {
        let mut guard = self.inner.write();
        self.stamp.fetch_add(1, Ordering::SeqCst);
        let mut g: GraphInner = (**guard).clone();
        let out = f(&mut g);
        g.recompute_ranks();
        *guard = Arc::new(g);
        self.stamp.fetch_add(1, Ordering::SeqCst);
        out
    }
}

/// Mutation helpers used by the runtime.
impl GraphInner {
    pub fn add_node(&mut self, status: NodeStatus, preds: &[NodeId]) -> NodeId {
        let id = self.len();
        self.preds.push(preds.to_vec());
        self.succs.push(Vec::new());
        self.status.push(status);
        self.rank.push(0);
        for &p in preds {
            self.succs[p].push(id);
        }
        id
    }

    /// Replaces a node's predecessor set (replay restart re-homes reused
    /// futures onto the new chain).
    pub fn set_preds(&mut self, node: NodeId, preds: &[NodeId]) {
        let old = std::mem::take(&mut self.preds[node]);
        for p in old {
            self.succs[p].retain(|&s| s != node);
        }
        for &p in preds {
            self.add_edge(p, node);
        }
    }

    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
        }
    }

    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) {
        self.status[node] = status;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> {1 (future), 2 (continuation)}; 1,2 -> 3 (eval)
        let g = Graph::with_root();
        g.update(|gi| {
            let f = gi.add_node(NodeStatus::Active, &[0]);
            let c = gi.add_node(NodeStatus::Active, &[0]);
            let e = gi.add_node(NodeStatus::Active, &[f, c]);
            assert_eq!((f, c, e), (1, 2, 3));
        });
        g
    }

    #[test]
    fn ranks_longest_path() {
        let g = diamond();
        let (_, gi) = g.snapshot();
        assert_eq!(gi.rank, vec![0, 1, 1, 2]);
        // Serialize the future upon evaluation: edge 2 -> 1.
        g.update(|gi| gi.add_edge(2, 1));
        let (_, gi) = g.snapshot();
        assert_eq!(gi.rank, vec![0, 2, 1, 3]);
    }

    #[test]
    fn ancestors_order_by_rank() {
        let g = diamond();
        g.update(|gi| gi.add_edge(2, 1)); // future after continuation
        let (_, gi) = g.snapshot();
        assert_eq!(gi.ancestors(3), vec![0, 2, 1]);
        // Before the serialization edge, the eval node saw both branches
        // unordered; ties broken by id.
        let g2 = diamond();
        let (_, gi2) = g2.snapshot();
        assert_eq!(gi2.ancestors(3), vec![0, 1, 2]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let (_, gi) = g.snapshot();
        assert_eq!(gi.reachable_from(0).len(), 3);
        let mut r = gi.reachable_from(1);
        r.sort_unstable();
        assert_eq!(r, vec![3]);
        assert!(gi.reachable_from(3).is_empty());
    }

    #[test]
    fn backward_chain_follows_max_rank() {
        let g = diamond();
        // Future 1 serialized upon evaluation: 2 -> 1; chain from eval
        // node 3 back to root must pass 1 then 2.
        g.update(|gi| gi.add_edge(2, 1));
        let (_, gi) = g.snapshot();
        assert_eq!(gi.backward_chain(3, 0), vec![1, 2]);
        // Chain from the eval node back to the continuation (exclusive).
        assert_eq!(gi.backward_chain(3, 2), vec![1]);
    }

    #[test]
    fn stamp_moves_on_update() {
        let g = Graph::with_root();
        let s0 = g.stamp();
        g.update(|gi| {
            gi.add_node(NodeStatus::Active, &[0]);
        });
        assert!(g.stamp() > s0);
    }

    #[test]
    fn snapshots_are_immutable() {
        let g = Graph::with_root();
        let (_, before) = g.snapshot();
        g.update(|gi| {
            gi.add_node(NodeStatus::Active, &[0]);
        });
        assert_eq!(before.len(), 1, "old snapshot untouched");
        let (_, after) = g.snapshot();
        assert_eq!(after.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    // Random spawn/serialize sequences keep G a DAG with consistent
    // ancestor/reachability relations.
    proptest! {
        #[test]
        fn dag_invariants(ops in proptest::collection::vec(0u8..3, 1..40)) {
            let g = Graph::with_root();
            let mut cur: NodeId = 0; // continuation cursor
            let mut pending: Vec<(NodeId, NodeId)> = Vec::new(); // (future, spawn point)
            for op in ops {
                match op {
                    // submit: future + continuation pair
                    0 => {
                        let (f, c) = g.update(|gi| {
                            gi.set_status(cur, NodeStatus::ICommitted);
                            let f = gi.add_node(NodeStatus::CompletedPending, &[cur]);
                            let c = gi.add_node(NodeStatus::Active, &[cur]);
                            (f, c)
                        });
                        pending.push((f, cur));
                        cur = c;
                    }
                    // serialize oldest pending future at submission
                    1 => {
                        if let Some((f, spawn)) = pending.pop() {
                            g.update(|gi| {
                                // future before everything after its spawn
                                let succs = gi.succs[spawn].clone();
                                for s in succs {
                                    if s != f {
                                        gi.add_edge(f, s);
                                    }
                                }
                                gi.set_status(f, NodeStatus::ICommitted);
                            });
                        }
                    }
                    // serialize at evaluation: future after current cursor
                    _ => {
                        if let Some((f, _)) = pending.pop() {
                            let e = g.update(|gi| {
                                gi.set_status(cur, NodeStatus::ICommitted);
                                gi.add_edge(cur, f);
                                gi.set_status(f, NodeStatus::ICommitted);
                                gi.add_node(NodeStatus::Active, &[cur, f])
                            });
                            cur = e;
                        }
                    }
                }
            }
            let (_, gi) = g.snapshot();
            // Ranks are a valid topological labeling: every edge ascends.
            for u in 0..gi.len() {
                for &v in &gi.succs[u] {
                    prop_assert!(gi.rank[v] > gi.rank[u], "edge {u}->{v} must ascend");
                }
            }
            // ancestors/reachable are converses.
            for n in 0..gi.len() {
                for &a in &gi.ancestors(n) {
                    prop_assert!(gi.reachable_from(a).contains(&n));
                }
            }
            // The cursor's ancestors are totally ordered by rank (the
            // serialization chain has no rank ties).
            let anc = gi.ancestors(cur);
            for w in anc.windows(2) {
                prop_assert!(gi.rank[w[0]] != gi.rank[w[1]] || w[0] == w[1] ||
                    // rank ties are allowed only between nodes that are
                    // mutually unreachable AND both invisible-pending
                    gi.status[w[0]] != NodeStatus::ICommitted
                    || gi.status[w[1]] != NodeStatus::ICommitted
                    || !(gi.reachable_from(w[0]).contains(&w[1])
                        || gi.reachable_from(w[1]).contains(&w[0])));
            }
        }

        /// set_preds fully detaches a node from its old predecessors.
        #[test]
        fn set_preds_detaches(extra in 1usize..6) {
            let g = Graph::with_root();
            let nodes: Vec<NodeId> = g.update(|gi| {
                (0..extra).map(|_| gi.add_node(NodeStatus::Active, &[0])).collect()
            });
            let target = nodes[0];
            g.update(|gi| gi.set_preds(target, &[]));
            let (_, gi) = g.snapshot();
            prop_assert!(gi.preds[target].is_empty());
            prop_assert!(!gi.succs[0].contains(&target));
            prop_assert_eq!(gi.rank[target], 0);
        }
    }
}
