//! FSG construction (§3.4 of the paper).

use crate::graph::Polygraph;
use crate::history::{History, Op, TxId, Var};
use crate::{AtomicitySemantics, OrderingSemantics, Semantics};
use std::collections::HashMap;

/// Index into [`Fsg::vertices`].
pub type VertexId = usize;

/// The role a vertex plays (§3.4's vertex taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VertexKind {
    /// `V_begin(T)`: T's operations from its begin to the first
    /// submit/evaluate/commit/abort.
    Begin(TxId),
    /// `V_C-begin(F)`: the spawner's operations right after `submit(F)`.
    CBegin(TxId),
    /// `V_eval(F)`: operations starting with (and including) `evaluate(F)`.
    Eval(TxId),
}

/// One FSG vertex: a sub-transaction's operation segment.
#[derive(Debug, Clone)]
pub struct Vertex {
    pub id: VertexId,
    /// The (sub-)transaction executing these operations (continuations are
    /// executed by the spawner).
    pub issuer: TxId,
    pub kind: VertexKind,
    /// Indices into the (possibly LAC-extended) history's event list.
    pub ops: Vec<usize>,
}

/// A constructed Future Serialization Graph.
pub struct Fsg {
    /// The history the graph was built from, after LAC's implicit
    /// evaluations were inserted (if applicable).
    pub history: History,
    pub semantics: Semantics,
    pub vertices: Vec<Vertex>,
    pub polygraph: Polygraph,
}

impl Fsg {
    /// The acceptance criterion: the history is admissible under the
    /// chosen semantics iff the polygraph is acyclic.
    pub fn acceptable(&self) -> bool {
        self.polygraph.acyclic()
    }

    /// First vertex of `tx` (its `V_begin`).
    pub fn v_begin(&self, tx: TxId) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|v| v.issuer == tx && matches!(v.kind, VertexKind::Begin(_)))
            .map(|v| v.id)
    }

    /// Vertex holding `tx`'s commit operation (its `V_end`).
    pub fn v_end(&self, tx: TxId) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|v| {
                v.issuer == tx
                    && v.ops
                        .iter()
                        .any(|&i| self.history.events[i].op == Op::Commit)
            })
            .map(|v| v.id)
    }

    /// `V_C-begin(future)`.
    pub fn v_cbegin(&self, future: TxId) -> Option<VertexId> {
        self.vertices
            .iter()
            .find(|v| v.kind == VertexKind::CBegin(future))
            .map(|v| v.id)
    }

    /// GraphViz DOT rendering (fixed edges solid, bipaths dashed).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph fsg {\n  rankdir=LR;\n");
        for v in &self.vertices {
            let label = match v.kind {
                VertexKind::Begin(t) => format!("V_begin(T{})", t.0),
                VertexKind::CBegin(f) => format!("V_C-begin(F{})", f.0),
                VertexKind::Eval(f) => format!("V_eval(F{})", f.0),
            };
            writeln!(s, "  n{} [label=\"{}\"];", v.id, label).unwrap();
        }
        for &(a, b) in &self.polygraph.edges {
            writeln!(s, "  n{a} -> n{b};").unwrap();
        }
        for &((a1, b1), (a2, b2)) in &self.polygraph.bipaths {
            writeln!(s, "  n{a1} -> n{b1} [style=dashed, color=blue];").unwrap();
            writeln!(s, "  n{a2} -> n{b2} [style=dashed, color=red];").unwrap();
        }
        s.push_str("}\n");
        s
    }
}

/// Builds the FSG of `history` under `semantics`.
pub fn build_fsg(history: &History, semantics: Semantics) -> Fsg {
    let h = if semantics.ordering == OrderingSemantics::Weak
        && semantics.atomicity == AtomicitySemantics::Local
    {
        history.with_implicit_lac_evaluations()
    } else {
        history.clone()
    };

    // ---- 1. Segment every issuer's op stream into vertices. ----
    let mut issuers: Vec<TxId> = h.tops().to_vec();
    issuers.extend(h.futures().iter().map(|(f, _)| *f));

    let mut vertices: Vec<Vertex> = Vec::new();
    // Per-issuer ordered vertex ids (program order chains).
    let mut streams: HashMap<TxId, Vec<VertexId>> = HashMap::new();

    for &issuer in &issuers {
        let ops: Vec<usize> = h
            .events
            .iter()
            .enumerate()
            .filter(|(_, e)| e.issuer == issuer)
            .map(|(i, _)| i)
            .collect();
        let mut segs: Vec<(VertexKind, Vec<usize>)> = Vec::new();
        let mut cur_kind = VertexKind::Begin(issuer);
        let mut cur_ops: Vec<usize> = Vec::new();
        for &idx in &ops {
            match h.events[idx].op {
                Op::Evaluate(f, _) => {
                    // Evaluate opens a new vertex that includes it.
                    segs.push((cur_kind, std::mem::take(&mut cur_ops)));
                    cur_kind = VertexKind::Eval(f);
                    cur_ops.push(idx);
                }
                Op::Submit(f) => {
                    cur_ops.push(idx);
                    segs.push((cur_kind, std::mem::take(&mut cur_ops)));
                    cur_kind = VertexKind::CBegin(f);
                }
                Op::Commit | Op::Abort => {
                    cur_ops.push(idx);
                    segs.push((cur_kind, std::mem::take(&mut cur_ops)));
                    cur_kind = VertexKind::Begin(issuer); // dropped if empty
                }
                Op::Read(..) | Op::Write(..) => cur_ops.push(idx),
            }
        }
        // Keep the trailing segment when nonempty or when it is a
        // structural endpoint (a C-begin/eval vertex another edge targets).
        if !cur_ops.is_empty() || !matches!(cur_kind, VertexKind::Begin(_)) || segs.is_empty() {
            segs.push((cur_kind, cur_ops));
        }
        let mut chain = Vec::new();
        for (kind, ops) in segs {
            let id = vertices.len();
            vertices.push(Vertex {
                id,
                issuer,
                kind,
                ops,
            });
            chain.push(id);
        }
        streams.insert(issuer, chain);
    }

    let mut pg = Polygraph::new(vertices.len());

    // ---- 2. Program-order edges within each thread. ----
    for chain in streams.values() {
        for w in chain.windows(2) {
            pg.add_edge(w[0], w[1]);
        }
    }

    // Helper lookups over the freshly built vertex set.
    let find_end = |tx: TxId| -> Option<VertexId> {
        vertices
            .iter()
            .find(|v| v.issuer == tx && v.ops.iter().any(|&i| h.events[i].op == Op::Commit))
            .map(|v| v.id)
    };
    let find_cbegin = |f: TxId| -> Option<VertexId> {
        vertices
            .iter()
            .find(|v| v.kind == VertexKind::CBegin(f))
            .map(|v| v.id)
    };
    let find_begin =
        |tx: TxId| -> Option<VertexId> { streams.get(&tx).and_then(|c| c.first().copied()) };
    let eval_vertices = |f: TxId| -> Vec<VertexId> {
        let mut v: Vec<VertexId> = vertices
            .iter()
            .filter(|v| v.kind == VertexKind::Eval(f))
            .map(|v| v.id)
            .collect();
        v.sort_by_key(|&id| vertices[id].ops.first().copied().unwrap_or(usize::MAX));
        v
    };
    let find_spawn = |f: TxId| -> Option<VertexId> {
        vertices
            .iter()
            .find(|v| v.ops.iter().any(|&i| h.events[i].op == Op::Submit(f)))
            .map(|v| v.id)
    };

    // ---- 3. Structural edges: spawn and end->eval. ----
    for &(f, _) in h.futures() {
        if let (Some(spawn), Some(begin)) = (find_spawn(f), find_begin(f)) {
            pg.add_edge(spawn, begin);
        }
        if let Some(end) = find_end(f) {
            for ev in eval_vertices(f) {
                pg.add_edge(end, ev);
            }
        }
    }

    // ---- 4. Ordering-semantics edges / bipaths. ----
    for &(f, _) in h.futures() {
        let (end, cbegin) = match (find_end(f), find_cbegin(f)) {
            (Some(e), Some(c)) => (e, c),
            // A future with no commit (still active / aborted) imposes no
            // serialization constraint yet.
            _ => continue,
        };
        match semantics.ordering {
            OrderingSemantics::Strong => pg.add_edge(end, cbegin),
            OrderingSemantics::Weak => {
                let evals = eval_vertices(f);
                match evals.first() {
                    Some(&ev) => {
                        // V_C-end(F): the vertex immediately preceding the
                        // first eval vertex in the evaluating thread.
                        let evaluator = vertices[ev].issuer;
                        let chain = &streams[&evaluator];
                        let pos = chain.iter().position(|&v| v == ev).unwrap();
                        let cend = if pos > 0 { chain[pos - 1] } else { ev };
                        let begin = find_begin(f).unwrap();
                        pg.add_bipath((cend, begin), (end, cbegin));
                    }
                    // Never evaluated: serialization upon evaluation is
                    // impossible, so the future must order at submission.
                    None => pg.add_edge(end, cbegin),
                }
            }
        }
    }

    // ---- 5. Conflict edges. ----
    add_conflict_edges(&h, semantics, &vertices, &streams, &mut pg);

    Fsg {
        history: h,
        semantics,
        vertices,
        polygraph: pg,
    }
}

/// Scope of a (sub-)transaction for the paper's two conflict rules: same
/// top-level transactions get vertex-to-vertex edges; different top-levels
/// get all-to-all edges (atomicity of whole top-level transactions).
///
/// Escaping futures under WO+GAC are not statically included in any single
/// top-level (that is decided by which bipath edge holds), so they form
/// their own scope — a conservative but safe interpretation.
fn scope_of(h: &History, sem: Semantics, tx: TxId) -> TxId {
    if h.spawner_of(tx).is_none() {
        return tx; // top-level
    }
    let escaping = h.escapes(tx);
    if escaping
        && sem.ordering == OrderingSemantics::Weak
        && sem.atomicity == AtomicitySemantics::Global
    {
        tx
    } else {
        h.top_of(tx)
    }
}
/// Is `tx` an independently-scoped escaping future (WO+GAC)?
fn is_escaping_unit(h: &History, sem: Semantics, tx: TxId) -> bool {
    h.spawner_of(tx).is_some() && scope_of(h, sem, tx) == tx
}

/// Conflict-edge construction.
///
/// Follows the paper's two atomicity rules, refined with Papadimitriou's
/// view-serializability treatment of reads (every history records which
/// writer each read observed):
///
/// * **Vertex level** — used when both operations belong to the same
///   top-level scope, or when either belongs to an escaping future under
///   WO+GAC (such a future is not statically included in any single
///   top-level transaction; its position is fixed by its bipath):
///   - reads-from (`r` observed `t`): fixed edge `w_t -> r`;
///   - interfering writer `w` when `r` observed same-scope `t`: bipath
///     `(w -> w_t, r -> w)` — `w` either precedes the observed version or
///     follows the read;
///   - `r` observed the initial value or an earlier top-level's version:
///     fixed edge `r -> w` for every same-unit interferer `w`.
/// * **Scope level** — operations in two *different committed top-level*
///   scopes order their entire scopes (atomicity between top-level
///   transactions): edges from every vertex of one scope to every vertex
///   of the other, directed by observation for reads and by top-level
///   commit order (the multi-version version order) for write-write pairs.
fn add_conflict_edges(
    h: &History,
    sem: Semantics,
    vertices: &[Vertex],
    _streams: &HashMap<TxId, Vec<VertexId>>,
    pg: &mut Polygraph,
) {
    let mut vertex_of_event: HashMap<usize, VertexId> = HashMap::new();
    for v in vertices {
        for &i in &v.ops {
            vertex_of_event.insert(i, v.id);
        }
    }
    let mut commit_idx: HashMap<TxId, usize> = HashMap::new();
    for (i, e) in h.events.iter().enumerate() {
        if e.op == Op::Commit {
            commit_idx.insert(e.issuer, i);
        }
    }
    let mut scope_vertices: HashMap<TxId, Vec<VertexId>> = HashMap::new();
    for v in vertices {
        scope_vertices
            .entry(scope_of(h, sem, v.issuer))
            .or_default()
            .push(v.id);
    }
    let mut scope_pairs_done: std::collections::HashSet<(TxId, TxId)> =
        std::collections::HashSet::new();

    struct ReadAcc {
        issuer: TxId,
        vertex: VertexId,
        observed: Option<TxId>,
        event_idx: usize,
    }
    struct WriteAcc {
        tx: TxId,
        /// Every write event by `tx` on this var: (event index, vertex).
        events: Vec<(usize, VertexId)>,
    }
    struct VarAccesses {
        reads: Vec<ReadAcc>,
        writes: Vec<WriteAcc>,
    }
    let mut per_var: HashMap<Var, VarAccesses> = HashMap::new();
    for (i, e) in h.events.iter().enumerate() {
        match e.op {
            Op::Read(var, observed) => {
                per_var
                    .entry(var)
                    .or_insert_with(|| VarAccesses {
                        reads: Vec::new(),
                        writes: Vec::new(),
                    })
                    .reads
                    .push(ReadAcc {
                        issuer: e.issuer,
                        vertex: vertex_of_event[&i],
                        observed,
                        event_idx: i,
                    });
            }
            Op::Write(var) => {
                let acc = per_var.entry(var).or_insert_with(|| VarAccesses {
                    reads: Vec::new(),
                    writes: Vec::new(),
                });
                let vtx = vertex_of_event[&i];
                match acc.writes.iter_mut().find(|w| w.tx == e.issuer) {
                    Some(entry) => entry.events.push((i, vtx)),
                    None => acc.writes.push(WriteAcc {
                        tx: e.issuer,
                        events: vec![(i, vtx)],
                    }),
                }
            }
            _ => {}
        }
    }

    let scope = |tx: TxId| scope_of(h, sem, tx);
    let committed = |s: TxId| commit_idx.contains_key(&s);
    // Vertex-level relations apply within one scope and around WO+GAC
    // escaping futures.
    let vertex_level = |a: TxId, b: TxId| {
        scope(a) == scope(b) || is_escaping_unit(h, sem, a) || is_escaping_unit(h, sem, b)
    };

    let add_scope_pair =
        |from: TxId,
         to: TxId,
         pg: &mut Polygraph,
         seen: &mut std::collections::HashSet<(TxId, TxId)>| {
            if from == to || !seen.insert((from, to)) {
                return;
            }
            for &a in &scope_vertices[&from] {
                for &b in &scope_vertices[&to] {
                    if a != b {
                        pg.add_edge(a, b);
                    }
                }
            }
        };
    let add_vertex_edge = |from: VertexId, to: VertexId, pg: &mut Polygraph| {
        if from != to {
            pg.add_edge(from, to);
        }
    };

    for acc in per_var.values() {
        for r in &acc.reads {
            let r_scope = scope(r.issuer);
            // The concrete write event an observation of `t` saw: t's last
            // write on this var preceding the read.
            let observed_event = |t: TxId| {
                acc.writes.iter().find(|w| w.tx == t).map(|w| {
                    w.events
                        .iter()
                        .rev()
                        .find(|&&(i, _)| i < r.event_idx)
                        .copied()
                        .unwrap_or(w.events[w.events.len() - 1])
                })
            };
            // ---- reads-from edge ----
            if let Some(t) = r.observed {
                if vertex_level(r.issuer, t) {
                    if let Some((_, tl)) = observed_event(t) {
                        add_vertex_edge(tl, r.vertex, pg);
                    }
                } else if committed(scope(t)) && committed(r_scope) {
                    add_scope_pair(scope(t), r_scope, pg, &mut scope_pairs_done);
                }
            }
            // ---- interfering writes (per write event) ----
            for w in &acc.writes {
                let w_tx = w.tx;
                if w_tx == r.issuer {
                    continue; // own writes: program order
                }
                for &(w_idx, w_vtx) in &w.events {
                    match r.observed {
                        Some(t) if w_tx == t => {
                            // Another write by the observed transaction.
                            let (obs_idx, _) = observed_event(t).unwrap();
                            if w_idx <= obs_idx {
                                continue; // at/before the observed write
                            }
                            // A later write by `t` that the read missed:
                            // the read precedes it. (Cross-scope this case
                            // cannot arise in a multi-versioned TM — only a
                            // committed top's final value is visible — so
                            // vertex-level treatment is always applicable.)
                            add_vertex_edge(r.vertex, w_vtx, pg);
                        }
                        Some(t) if vertex_level(r.issuer, w_tx) => {
                            if vertex_level(r.issuer, t) && vertex_level(w_tx, t) {
                                // Papadimitriou triangle: the interfering
                                // write precedes the observed version or
                                // follows the read.
                                if let Some((_, obs_v)) = observed_event(t) {
                                    if w_vtx != obs_v && r.vertex != w_vtx {
                                        pg.add_bipath((w_vtx, obs_v), (r.vertex, w_vtx));
                                    }
                                }
                            } else {
                                // r observed an earlier top-level's version
                                // (or a version outside this unit): the
                                // same-unit writer follows the read.
                                add_vertex_edge(r.vertex, w_vtx, pg);
                            }
                        }
                        Some(t) => {
                            // Cross-scope interferer.
                            let w_scope = scope(w_tx);
                            if !(committed(w_scope) && committed(r_scope)) {
                                continue;
                            }
                            if !vertex_level(r.issuer, t) && committed(scope(t)) {
                                // w precedes the observed top's version or
                                // follows r's whole scope.
                                if commit_idx[&w_scope] < commit_idx[&scope(t)] {
                                    add_scope_pair(w_scope, scope(t), pg, &mut scope_pairs_done);
                                } else {
                                    add_scope_pair(r_scope, w_scope, pg, &mut scope_pairs_done);
                                }
                            } else if commit_idx[&w_scope] < commit_idx[&r_scope] {
                                add_scope_pair(w_scope, r_scope, pg, &mut scope_pairs_done);
                            } else {
                                add_scope_pair(r_scope, w_scope, pg, &mut scope_pairs_done);
                            }
                        }
                        None => {
                            // Initial-value read precedes every write.
                            if vertex_level(r.issuer, w_tx) {
                                add_vertex_edge(r.vertex, w_vtx, pg);
                            } else {
                                let w_scope = scope(w_tx);
                                if committed(w_scope) && committed(r_scope) {
                                    add_scope_pair(r_scope, w_scope, pg, &mut scope_pairs_done);
                                }
                            }
                        }
                    }
                }
            }
        }
        // ---- write/write conflicts across committed scopes ----
        for (i, w1) in acc.writes.iter().enumerate() {
            for w2 in acc.writes.iter().skip(i + 1) {
                let (t1, t2) = (w1.tx, w2.tx);
                if vertex_level(t1, t2) {
                    // Same unit: write order is determined by the reads and
                    // the semantics bipaths (view serializability imposes
                    // no direct ww constraint).
                    continue;
                }
                let (s1, s2) = (scope(t1), scope(t2));
                if !(committed(s1) && committed(s2)) {
                    continue;
                }
                if commit_idx[&s1] < commit_idx[&s2] {
                    add_scope_pair(s1, s2, pg, &mut scope_pairs_done);
                } else {
                    add_scope_pair(s2, s1, pg, &mut scope_pairs_done);
                }
            }
        }
    }
}
