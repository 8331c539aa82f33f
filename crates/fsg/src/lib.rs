//! # wtf-fsg — the Future Serialization Graph formalism
//!
//! Executable encoding of §3.4 of the paper: given a *history* of
//! transactions, transactional futures and their operations, build the
//! **Future Serialization Graph (FSG)** — a polygraph in the sense of
//! Papadimitriou's view-serializability construction — and decide whether
//! the history is acceptable under a chosen semantics:
//!
//! * **SO** (strongly ordered): every future carries a fixed edge
//!   `V_end(F) -> V_C-begin(F)`, forcing serialization at submission.
//! * **WO** (weakly ordered): every evaluated future carries a **bipath**
//!   `(V_C-end(F) -> V_begin(F), V_end(F) -> V_C-begin(F))` — either the
//!   whole continuation precedes the future (serialization upon
//!   evaluation) or the future precedes its continuation (serialization
//!   upon submission).
//! * **LAC** (locally atomic continuations): escaping futures are
//!   implicitly evaluated right before their spawning top-level's commit.
//! * **GAC** (globally atomic continuations): escaping futures may be
//!   evaluated by other top-level transactions; their continuation spans
//!   transaction boundaries.
//!
//! A history is accepted iff the polygraph is *acyclic*: some choice of
//! one edge per bipath yields a DAG ([`Fsg::acceptable`]).
//!
//! The crate is used two ways in this repository: (1) unit tests encode
//! the paper's example executions (Figs. 1a–1d, 2, 4) and check the
//! acceptance matrix the paper claims; (2) `wtf-core` can trace its real
//! executions into [`History`] values, and integration tests assert that
//! every history the runtime commits is FSG-acceptable (soundness).
//!
//! ## Conflict-direction convention
//!
//! The paper directs conflict edges "depending on whether op is ordered
//! before or after op′" in the history's partial order. For read/write
//! conflicts we use the *observation* order, which is what a
//! multi-versioned TM actually defines: if read `r` observed writer `W`'s
//! value, then `W` precedes `r`; if it observed an older value, `r`
//! precedes `W`. Write/write conflicts are directed by real-time order.
//! Histories therefore record, for every read, which (sub-)transaction's
//! write it observed ([`History::read_observing`]).

mod build;
mod dot;
mod graph;
mod history;
pub mod paper;

pub use build::{build_fsg, Fsg, Vertex, VertexId, VertexKind};
pub use graph::{find_cycle_in, Polygraph};
pub use history::{History, Op, TxId, Var};

/// Ordering semantics of transactional futures (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingSemantics {
    /// Weakly ordered: a future serializes either at submission or at its
    /// (first) evaluation.
    Weak,
    /// Strongly ordered: a future always serializes at submission, before
    /// its continuation.
    Strong,
}

/// Continuation-atomicity semantics for escaping futures (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicitySemantics {
    /// Locally atomic continuations: a top-level transaction implicitly
    /// evaluates all its (transitively) spawned unevaluated futures at
    /// commit, bounding every continuation to its top-level transaction.
    Local,
    /// Globally atomic continuations: a continuation may span top-level
    /// transactions; escaping futures serialize wherever they are
    /// eventually evaluated.
    Global,
}

/// A full semantics point in the paper's two-dimensional space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Semantics {
    pub ordering: OrderingSemantics,
    pub atomicity: AtomicitySemantics,
}

impl Semantics {
    /// WO + GAC: the most permissive semantics (WTF-TM's native mode).
    pub const WO_GAC: Semantics = Semantics {
        ordering: OrderingSemantics::Weak,
        atomicity: AtomicitySemantics::Global,
    };
    /// WO + LAC.
    pub const WO_LAC: Semantics = Semantics {
        ordering: OrderingSemantics::Weak,
        atomicity: AtomicitySemantics::Local,
    };
    /// SO (atomicity dimension is irrelevant under strong ordering; the
    /// paper notes the distinction collapses).
    pub const SO: Semantics = Semantics {
        ordering: OrderingSemantics::Strong,
        atomicity: AtomicitySemantics::Local,
    };
}

#[cfg(test)]
mod tests;
