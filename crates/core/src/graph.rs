//! The per-top-level dependency graph **G** (§4.1 of the paper).
//!
//! G tracks the serialization constraints among the sub-transactions of a
//! single top-level transaction: future bodies, continuation segments and
//! evaluation segments. Nodes are added on `submit`/`evaluate`/`step`;
//! edges encode "serialized before".
//!
//! G is the paper's structure: appended to **in place**, validated by a
//! stamp. A writer ([`Graph::update`]) holds the write lock, moves the
//! stamp to odd, mutates the one `GraphInner` — a node is four pushes, a
//! status one store, an edge two pushes plus a forward rank propagation
//! that stops where ranks already ascend — and moves the stamp back to
//! even. Nothing is copied and nothing is recomputed over all of G.
//!
//! Readers do not traverse the live structure. [`Graph::snapshot`] hands
//! out the `Arc` the graph lives in, so a reader walks an owned,
//! immutable value without holding a lock; the writer pays for that only
//! when it happens — `Arc::make_mut` copies G iff a snapshot is still
//! outstanding when the next writer enters. The stamp tells a reader that
//! its cached ancestor view went stale — the paper's optimistic re-read,
//! without the torn-read hazard.
//!
//! Traversals answer with a [`NodeSet`] (one machine word up to 64
//! nodes), not with freshly allocated vectors and hash sets.

use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a sub-transaction node within its top-level transaction.
pub type NodeId = usize;

/// Visibility status of a node's write-set, kept inside the graph so a
/// single snapshot observes statuses and edges atomically.
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

/// A set of nodes as a bitset: ids below 64 live in one word, so the
/// traversals of a transaction with up to 64 sub-transactions allocate
/// nothing; larger ids spill into a vector of further words.
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    low: u64,
    high: Vec<u64>,
}

impl NodeSet {
    fn word(&self, id: NodeId) -> u64 {
        match id / 64 {
            0 => self.low,
            w => self.high.get(w - 1).copied().unwrap_or(0),
        }
    }

    fn word_mut(&mut self, id: NodeId) -> &mut u64 {
        match id / 64 {
            0 => &mut self.low,
            w => {
                if self.high.len() < w {
                    self.high.resize(w, 0);
                }
                &mut self.high[w - 1]
            }
        }
    }

    /// Adds `id`; true if it was not in the set.
    pub fn insert(&mut self, id: NodeId) -> bool {
        let bit = 1u64 << (id % 64);
        let word = self.word_mut(id);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    pub fn contains(&self, id: NodeId) -> bool {
        self.word(id) & (1u64 << (id % 64)) != 0
    }

    /// Keeps only the members that `other` has too.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        self.low &= other.low;
        for (i, w) in self.high.iter_mut().enumerate() {
            *w &= other.high.get(i).copied().unwrap_or(0);
        }
    }

    /// Members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::once(self.low)
            .chain(self.high.iter().copied())
            .enumerate()
            .flat_map(|(w, word)| members_of(w * 64, word))
    }

    /// Empties the lowest non-empty word: its members, ascending.
    fn take_first_word(&mut self) -> Option<impl Iterator<Item = NodeId>> {
        if self.low != 0 {
            return Some(members_of(0, std::mem::take(&mut self.low)));
        }
        let (w, word) = self.high.iter_mut().enumerate().find(|(_, w)| **w != 0)?;
        Some(members_of((w + 1) * 64, std::mem::take(word)))
    }
}

/// The ids `base + i` for every set bit `i` of `word`, ascending.
fn members_of(base: NodeId, mut word: u64) -> impl Iterator<Item = NodeId> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = word.trailing_zeros() as usize;
        word &= word - 1;
        Some(base + bit)
    })
}

/// The graph body: edges both ways, statuses and ranks. Fields are
/// private because `rank` is maintained incrementally against the edges.
#[derive(Debug, Clone, Default)]
pub struct GraphInner {
    preds: Vec<Vec<NodeId>>,
    succs: Vec<Vec<NodeId>>,
    status: Vec<NodeStatus>,
    /// Longest-path-from-a-root rank: ancestors overlay their write-sets
    /// in ascending rank order, so higher rank = closer ancestor = wins.
    rank: Vec<u32>,
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

    pub fn len(&self) -> usize {
        self.preds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    pub fn status(&self, node: NodeId) -> NodeStatus {
        self.status[node]
    }

    pub fn rank(&self, node: NodeId) -> u32 {
        self.rank[node]
    }

    pub fn preds(&self, node: NodeId) -> &[NodeId] {
        &self.preds[node]
    }

    pub fn succs(&self, node: NodeId) -> &[NodeId] {
        &self.succs[node]
    }

    /// Everything `node` reaches along `adj`, excluding `node` itself (G
    /// is acyclic). The frontier is a bitset too: no stack to allocate.
    fn closure(&self, node: NodeId, adj: &[Vec<NodeId>]) -> NodeSet {
        let mut seen = NodeSet::default();
        let mut frontier = NodeSet::default();
        frontier.insert(node);
        while let Some(batch) = frontier.take_first_word() {
            for u in batch {
                for &next in &adj[u] {
                    if seen.insert(next) {
                        frontier.insert(next);
                    }
                }
            }
        }
        seen
    }

    /// All ancestors of `node` (reverse reachability, excluding `node`).
    pub fn ancestors(&self, node: NodeId) -> NodeSet {
        self.closure(node, &self.preds)
    }

    /// All nodes reachable from `node` (excluding it): the set forward
    /// validation scans for readers that would be invalidated by
    /// serializing a future at its submission point.
    pub fn reachable_from(&self, node: NodeId) -> NodeSet {
        self.closure(node, &self.succs)
    }

    /// `set` in ascending rank order (ties by id) — the overlay order of
    /// write-sets: the closest ancestor comes last and wins.
    pub fn by_rank(&self, set: &NodeSet) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = set.iter().collect();
        out.sort_unstable_by_key(|&n| (self.rank[n], n));
        out
    }

    /// The backward chain from `from` (exclusive) to `stop` (exclusive):
    /// the sub-transactions that executed concurrently with a future being
    /// serialized upon evaluation. Follows the maximum-rank predecessor at
    /// each step — the serialization chain (the paper's footnote: G has no
    /// backward bifurcations among serialized nodes).
    pub fn backward_chain(&self, from: NodeId, stop: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let step = move |cur: &NodeId| {
            self.preds[*cur]
                .iter()
                .copied()
                .max_by_key(|&p| (self.rank[p], p))
                .filter(|&p| p != stop)
        };
        std::iter::successors(step(&from), step)
    }
}

/// Mutation helpers used by the runtime. Each keeps `rank` the longest
/// path from a root, touching only the nodes whose rank changes.
impl GraphInner {
    pub fn add_node(&mut self, status: NodeStatus, preds: &[NodeId]) -> NodeId {
        let id = self.len();
        let rank = preds.iter().map(|&p| self.rank[p] + 1).max().unwrap_or(0);
        self.preds.push(preds.to_vec());
        self.succs.push(Vec::new());
        self.status.push(status);
        self.rank.push(rank);
        for &p in preds {
            self.succs[p].push(id);
        }
        id
    }

    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
            self.preds[to].push(from);
            self.raise_rank(to, self.rank[from] + 1);
        }
    }

    /// Lifts `node` to at least `floor` and pushes the rise forward,
    /// stopping wherever an edge already ascends.
    fn raise_rank(&mut self, node: NodeId, floor: u32) {
        if self.rank[node] >= floor {
            return;
        }
        self.rank[node] = floor;
        let n = self.len();
        let GraphInner { succs, rank, .. } = self;
        let mut risen = NodeSet::default();
        risen.insert(node);
        while let Some(batch) = risen.take_first_word() {
            for u in batch {
                let floor = rank[u] + 1;
                for &s in &succs[u] {
                    if rank[s] < floor {
                        // A longest path has fewer edges than G has nodes:
                        // a rank past that means the rise chases a cycle.
                        assert!((floor as usize) < n, "G must stay acyclic");
                        rank[s] = floor;
                        risen.insert(s);
                    }
                }
            }
        }
    }

    /// Replaces a node's predecessor set (replay restart re-homes reused
    /// futures onto the new chain).
    pub fn set_preds(&mut self, node: NodeId, preds: &[NodeId]) {
        for p in std::mem::take(&mut self.preds[node]) {
            self.succs[p].retain(|&s| s != node);
        }
        // Detaching can only lower ranks, and only from `node` downward.
        // The old ranks still order that part topologically (no edge was
        // added), so one pass in that order settles it.
        let mut below = self.reachable_from(node);
        below.insert(node);
        for n in self.by_rank(&below) {
            let rank = self.preds[n].iter().map(|&p| self.rank[p] + 1).max();
            self.rank[n] = rank.unwrap_or(0);
        }
        for &p in preds {
            self.add_edge(p, node);
        }
    }

    pub fn set_status(&mut self, node: NodeId, status: NodeStatus) {
        self.status[node] = status;
    }

    /// Forgets every node from `len` on, and every edge to or from one.
    fn truncate(&mut self, len: usize) {
        for adj in [&mut self.preds, &mut self.succs] {
            adj.truncate(len);
            for list in adj.iter_mut() {
                list.retain(|&n| n < len);
            }
        }
        self.status.truncate(len);
        self.rank.truncate(len);
    }
}

/// The shared, stamped graph.
pub struct Graph {
    inner: RwLock<Arc<GraphInner>>,
    // ordering: seqcst-rmw, seqcst-load — a seqlock over graph
    // mutation: `update` bumps the stamp to odd on entry (under the
    // write lock, before its closure scans any read-set or touches G)
    // and back to even once G is whole again, so `snapshot` (under the
    // read lock) only ever returns even stamps and the unlocked re-check
    // in `ctx.rs::read` differs from its view's stamp whenever a writer
    // entered since the view was built. The entry bump is also the
    // validator's half of a store-buffering pair with each read log's
    // `len` (`readlog.rs`): a reader stores `len`, then loads the stamp;
    // `update` bumps the stamp, then its closure loads `len`. SeqCst on
    // all four puts them in one total order, so a read is either seen by
    // the scan or fails its re-check; a weaker load could also pair a
    // stale stamp with a newer graph.
    stamp: AtomicU64,
}

/// A writer inside [`Graph::update`]. Dropping it closes the seqlock on
/// every way out; if the closure unwound first, the nodes it added are
/// taken back (their entries in the owner's node table were never made)
/// and the owner is told, before any reader can see an even stamp again.
struct OpenUpdate<'a, U: FnOnce()> {
    graph: &'a Graph,
    g: &'a mut GraphInner,
    len_at_entry: usize,
    on_unwind: Option<U>,
}

impl<U: FnOnce()> Drop for OpenUpdate<'_, U> {
    fn drop(&mut self) {
        if let Some(on_unwind) = self.on_unwind.take() {
            self.g.truncate(self.len_at_entry);
            on_unwind();
        }
        self.graph.stamp.fetch_add(1, Ordering::SeqCst);
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

    /// Consistent view: `(stamp, graph)` taken atomically. The stamp is
    /// even: the read lock excludes a writer mid-`update`. The graph is
    /// the caller's to keep — a later `update` leaves it untouched and
    /// copies G for itself instead.
    pub fn snapshot(&self) -> (u64, Arc<GraphInner>) {
        let guard = self.inner.read();
        let stamp = self.stamp.load(Ordering::SeqCst);
        (stamp, guard.clone())
    }

    /// Mutates G in place under the write lock and returns `f`'s output.
    /// The stamp moves on entry as well as on exit: `f` may scan
    /// read-sets (forward validation), and a reader that records a read
    /// after that scan must fail its stamp re-check even though `f` has
    /// not changed G yet.
    pub fn update<R>(&self, f: impl FnOnce(&mut GraphInner) -> R) -> R {
        self.update_or(|| {}, f)
    }

    /// [`Graph::update`] for a graph with an owner: `on_unwind` runs if
    /// `f` panics, after G is consistent again and before the seqlock
    /// closes.
    pub(crate) fn update_or<R>(
        &self,
        on_unwind: impl FnOnce(),
        f: impl FnOnce(&mut GraphInner) -> R,
    ) -> R {
        let mut published = self.inner.write();
        self.stamp.fetch_add(1, Ordering::SeqCst);
        // In place, unless a reader still holds the last snapshot.
        let g = Arc::make_mut(&mut published);
        let mut open = OpenUpdate {
            graph: self,
            len_at_entry: g.len(),
            g,
            on_unwind: Some(on_unwind),
        };
        let out = f(&mut *open.g);
        open.on_unwind = None;
        out
    }
}

#[cfg(test)]
impl GraphInner {
    /// Test oracle for the incremental ranks: longest path over the whole
    /// DAG in topological order (Kahn).
    fn kahn_ranks(&self) -> Vec<u32> {
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
        assert_eq!(seen, n, "G must stay acyclic");
        rank
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

    fn ids(set: &NodeSet) -> Vec<NodeId> {
        set.iter().collect()
    }

    #[test]
    fn ranks_longest_path() {
        let g = diamond();
        let (_, gi) = g.snapshot();
        assert_eq!(gi.rank, vec![0, 1, 1, 2]);
        drop(gi);
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
        assert_eq!(gi.by_rank(&gi.ancestors(3)), vec![0, 2, 1]);
        // Before the serialization edge, the eval node saw both branches
        // unordered; ties broken by id.
        let g2 = diamond();
        let (_, gi2) = g2.snapshot();
        assert_eq!(gi2.by_rank(&gi2.ancestors(3)), vec![0, 1, 2]);
    }

    #[test]
    fn reachability() {
        let g = diamond();
        let (_, gi) = g.snapshot();
        assert_eq!(ids(&gi.reachable_from(0)), vec![1, 2, 3]);
        assert_eq!(ids(&gi.reachable_from(1)), vec![3]);
        assert_eq!(ids(&gi.reachable_from(3)), vec![]);
    }

    #[test]
    fn backward_chain_follows_max_rank() {
        let g = diamond();
        // Future 1 serialized upon evaluation: 2 -> 1; chain from eval
        // node 3 back to root must pass 1 then 2.
        g.update(|gi| gi.add_edge(2, 1));
        let (_, gi) = g.snapshot();
        assert_eq!(gi.backward_chain(3, 0).collect::<Vec<_>>(), vec![1, 2]);
        // Chain from the eval node back to the continuation (exclusive).
        assert_eq!(gi.backward_chain(3, 2).collect::<Vec<_>>(), vec![1]);
    }

    /// Past 64 nodes the sets spill out of their first word and answer
    /// the same questions.
    #[test]
    fn node_sets_span_words() {
        let g = Graph::with_root();
        g.update(|gi| {
            for cur in 0..199 {
                gi.add_node(NodeStatus::Active, &[cur]);
            }
        });
        let (_, gi) = g.snapshot();
        let anc = gi.ancestors(199);
        assert!(anc.contains(0) && anc.contains(64) && anc.contains(198) && !anc.contains(199));
        assert_eq!(ids(&anc), (0..199).collect::<Vec<_>>());
        assert_eq!(ids(&gi.reachable_from(130)), (131..200).collect::<Vec<_>>());
        let mut both = gi.ancestors(150);
        both.intersect_with(&gi.reachable_from(60));
        assert_eq!(ids(&both), (61..150).collect::<Vec<_>>());
        assert_eq!(gi.rank(199), 199);
        assert_eq!(gi.rank, gi.kahn_ranks());
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

    /// G is copied for a writer only while a reader holds a snapshot.
    #[test]
    fn update_copies_only_under_a_held_snapshot() {
        let g = Graph::with_root();
        let address = |g: &Graph| Arc::as_ptr(&g.snapshot().1);
        let at_start = address(&g);
        g.update(|gi| gi.add_node(NodeStatus::Active, &[0]));
        assert_eq!(address(&g), at_start, "no snapshot out: mutated in place");
        let held = g.snapshot();
        g.update(|gi| gi.set_status(0, NodeStatus::ICommitted));
        assert_ne!(address(&g), at_start, "the holder keeps the old G");
        assert_eq!(held.1.status(0), NodeStatus::Active);
        let moved_to = address(&g);
        g.update(|gi| gi.set_status(1, NodeStatus::ICommitted));
        assert_eq!(address(&g), moved_to, "one copy per held snapshot");
    }

    /// A closure that unwinds leaves a closed seqlock, takes its nodes
    /// back with it and tells the owner.
    #[test]
    fn unwinding_update_closes_the_seqlock() {
        let g = diamond();
        let (before, _) = g.snapshot();
        let mut told = false;
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.update_or(
                || told = true,
                |gi| {
                    let n = gi.add_node(NodeStatus::Active, &[3]);
                    gi.add_edge(1, n);
                    panic!("mid-update");
                },
            )
        }));
        assert!(unwound.is_err() && told);
        let (after, gi) = g.snapshot();
        assert_eq!(after, before + 2, "entry and exit bumps, stamp even");
        assert_eq!(gi.len(), 4, "the half-added node is gone");
        for n in 0..gi.len() {
            assert!(gi.succs(n).iter().chain(gi.preds(n)).all(|&m| m < 4));
        }
        // The graph is still usable.
        g.update(|gi| gi.add_node(NodeStatus::Active, &[3]));
        let (_, gi) = g.snapshot();
        assert_eq!(gi.rank, gi.kahn_ranks());
    }

    #[test]
    #[should_panic(expected = "G must stay acyclic")]
    fn an_edge_that_closes_a_cycle_panics() {
        let g = diamond();
        g.update(|gi| gi.add_edge(3, 0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    // Random spawn/serialize/replay sequences keep G a DAG with
    // consistent ancestor/reachability relations, and the incrementally
    // maintained ranks equal to the whole-graph oracle's after every step.
    proptest! {
        #[test]
        fn dag_invariants(ops in proptest::collection::vec(0u8..5, 1..40)) {
            let g = Graph::with_root();
            let mut cur: NodeId = 0; // continuation cursor
            let mut pending: Vec<(NodeId, NodeId)> = Vec::new(); // (future, spawn point)
            let mut serialized: Vec<NodeId> = Vec::new(); // in spawn order
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
                                for s in gi.succs(spawn).to_vec() {
                                    if s != f {
                                        gi.add_edge(f, s);
                                    }
                                }
                                gi.set_status(f, NodeStatus::ICommitted);
                            });
                            serialized.push(f);
                        }
                    }
                    // serialize at evaluation: open the evaluation
                    // segment, then order the future between the cursor
                    // and it
                    2 => {
                        if let Some((f, _)) = pending.pop() {
                            let e = g.update(|gi| {
                                gi.set_status(cur, NodeStatus::ICommitted);
                                gi.add_node(NodeStatus::Active, &[cur])
                            });
                            g.update(|gi| {
                                gi.add_edge(cur, f);
                                gi.add_edge(f, e);
                                gi.set_status(f, NodeStatus::ICommitted);
                            });
                            serialized.push(f);
                            cur = e;
                        }
                    }
                    // replay restart: a fresh chain root, unserialized
                    // futures aborted, serialized ones re-homed in spawn
                    // order
                    3 => {
                        serialized.sort_unstable();
                        cur = g.update(|gi| {
                            for (f, _) in pending.drain(..) {
                                gi.set_status(f, NodeStatus::Aborted);
                            }
                            gi.add_node(NodeStatus::Active, &[])
                        });
                        for &f in &serialized {
                            cur = g.update(|gi| {
                                gi.set_status(cur, NodeStatus::ICommitted);
                                gi.set_preds(f, &[cur]);
                                gi.add_node(NodeStatus::Active, &[cur, f])
                            });
                            let (_, gi) = g.snapshot();
                            prop_assert_eq!(&gi.rank, &gi.kahn_ranks());
                        }
                    }
                    // an edge that already ascends (from the cursor's
                    // farthest ancestor) moves no rank
                    _ => {
                        let (_, before) = g.snapshot();
                        if let Some(&a) = before.by_rank(&before.ancestors(cur)).first() {
                            g.update(|gi| gi.add_edge(a, cur));
                            let (_, after) = g.snapshot();
                            prop_assert_eq!(&after.rank, &before.rank);
                        }
                    }
                }
                let (_, gi) = g.snapshot();
                prop_assert_eq!(&gi.rank, &gi.kahn_ranks());
            }
            let (_, gi) = g.snapshot();
            // Ranks are a valid topological labeling: every edge ascends.
            for u in 0..gi.len() {
                for &v in gi.succs(u) {
                    prop_assert!(gi.rank(v) > gi.rank(u), "edge {u}->{v} must ascend");
                }
            }
            // ancestors/reachable are converses.
            for n in 0..gi.len() {
                for a in gi.ancestors(n).iter() {
                    prop_assert!(gi.reachable_from(a).contains(n));
                }
            }
            // The cursor's ancestors are totally ordered by rank (the
            // serialization chain has no rank ties).
            let anc = gi.by_rank(&gi.ancestors(cur));
            for w in anc.windows(2) {
                prop_assert!(gi.rank(w[0]) != gi.rank(w[1]) || w[0] == w[1] ||
                    // rank ties are allowed only between nodes that are
                    // mutually unreachable AND both invisible-pending
                    gi.status(w[0]) != NodeStatus::ICommitted
                    || gi.status(w[1]) != NodeStatus::ICommitted
                    || !(gi.reachable_from(w[0]).contains(w[1])
                        || gi.reachable_from(w[1]).contains(w[0])));
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
            prop_assert!(gi.preds(target).is_empty());
            prop_assert!(!gi.succs(0).contains(&target));
            prop_assert_eq!(gi.rank(target), 0);
        }
    }
}
