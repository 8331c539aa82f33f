//! Witness-aware DOT exporters for [`Polygraph`]s and [`Fsg`]s.
//!
//! [`Fsg::to_dot`] already renders the raw polygraph structure (fixed
//! edges solid, bipath alternatives dashed). The exporters here add the
//! *verdict*: when the polygraph is acyclic, the witnessing edge choice
//! (one edge per bipath, from [`Polygraph::acyclic_witness`]) is drawn
//! **solid red**, so the picture shows the serialization order that
//! makes the history acceptable; when it is doomed, a concrete cycle
//! through the fixed edges ([`Polygraph::find_cycle`]) is drawn red
//! instead, showing *why* no choice can help.

use crate::build::Fsg;
use crate::graph::Polygraph;
use crate::VertexKind;
use std::fmt::Write;

impl Polygraph {
    /// DOT rendering with verdict highlighting (nodes labeled `v{i}`).
    ///
    /// * `witness: Some(edges)` — the chosen bipath edges (normally
    ///   [`Polygraph::acyclic_witness`]) are drawn **solid red**; the
    ///   rejected alternatives stay dashed gray.
    /// * `witness: None` — if the fixed edges are cyclic, the
    ///   [`Polygraph::find_cycle`] edges are drawn red and the graph is
    ///   labeled `DOOMED`; otherwise no highlighting.
    pub fn to_dot(&self, witness: Option<&[(usize, usize)]>) -> String {
        self.to_dot_labeled(witness, |n| format!("v{n}"))
    }

    /// [`Polygraph::to_dot`] with caller-supplied node labels.
    pub fn to_dot_labeled<F>(&self, witness: Option<&[(usize, usize)]>, label: F) -> String
    where
        F: Fn(usize) -> String,
    {
        let cycle = if witness.is_none() {
            self.find_cycle()
        } else {
            None
        };
        let verdict = match (&witness, &cycle) {
            (Some(_), _) => " — acyclic, witness in red",
            (None, Some(_)) => " — DOOMED, cycle in red",
            (None, None) => "",
        };
        let highlighted = |e: (usize, usize)| -> bool {
            witness.is_some_and(|w| w.contains(&e))
                || cycle.as_deref().is_some_and(|c| c.contains(&e))
        };
        let mut s = String::from("digraph polygraph {\n  rankdir=LR;\n");
        let _ = writeln!(s, "  label=\"polygraph{verdict}\";");
        for n in 0..self.node_count() {
            let _ = writeln!(s, "  n{n} [label=\"{}\"];", label(n));
        }
        for &(a, b) in &self.edges {
            if highlighted((a, b)) {
                let _ = writeln!(s, "  n{a} -> n{b} [color=red penwidth=2];");
            } else {
                let _ = writeln!(s, "  n{a} -> n{b};");
            }
        }
        for (i, &(first, second)) in self.bipaths.iter().enumerate() {
            for (a, b) in [first, second] {
                if highlighted((a, b)) {
                    let _ = writeln!(
                        s,
                        "  n{a} -> n{b} [style=solid color=red penwidth=2 label=\"b{i}\"];"
                    );
                } else {
                    let _ = writeln!(
                        s,
                        "  n{a} -> n{b} [style=dashed color=gray label=\"b{i}\"];"
                    );
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

impl Fsg {
    /// Verdict-annotated DOT: paper-style vertex labels plus the acyclic
    /// witness (or, for doomed graphs, a fixed-edge cycle) in red.
    pub fn to_dot_with_verdict(&self) -> String {
        let witness = self.polygraph.acyclic_witness();
        self.polygraph
            .to_dot_labeled(witness.as_deref(), |n| match self.vertices[n].kind {
                VertexKind::Begin(t) => format!("V_begin(T{})", t.0),
                VertexKind::CBegin(f) => format!("V_C-begin(F{})", f.0),
                VertexKind::Eval(f) => format!("V_eval(F{})", f.0),
            })
    }
}

#[cfg(test)]
mod tests {
    use crate::{build_fsg, paper, Polygraph, Semantics};

    /// Finds the DOT line rendering edge `a -> b`, if any.
    fn edge_line(dot: &str, a: usize, b: usize) -> Option<&str> {
        let needle = format!("n{a} -> n{b}");
        dot.lines().find(|l| l.contains(&needle))
    }

    #[test]
    fn witness_edges_rendered_red() {
        // 0 -> 1 fixed; bipath (1,0) | (0,2). The only witness is (0,2).
        let mut g = Polygraph::new(3);
        g.add_edge(0, 1);
        g.add_bipath((1, 0), (0, 2));
        let w = g.acyclic_witness().unwrap();
        let dot = g.to_dot(Some(&w));
        for &(a, b) in &w {
            let line = edge_line(&dot, a, b).expect("witness edge rendered");
            assert!(line.contains("red"), "witness edge {a}->{b} red: {line}");
            assert!(line.contains("solid"), "witness edge solid: {line}");
        }
        // The rejected alternative stays dashed gray.
        let rejected = edge_line(&dot, 1, 0).unwrap();
        assert!(rejected.contains("dashed") && rejected.contains("gray"));
        assert!(dot.contains("witness in red"));
    }

    #[test]
    fn doomed_cycle_rendered_red_and_closed() {
        let mut g = Polygraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 0);
        let cyc = g.find_cycle().unwrap();
        // Closed: each edge's head is the next edge's tail, wrapping.
        assert!(!cyc.is_empty());
        for (i, &(_, head)) in cyc.iter().enumerate() {
            let (next_tail, _) = cyc[(i + 1) % cyc.len()];
            assert_eq!(head, next_tail, "cycle is edge-connected");
        }
        let dot = g.to_dot(None);
        for &(a, b) in &cyc {
            let line = edge_line(&dot, a, b).expect("cycle edge rendered");
            assert!(line.contains("red"), "cycle edge {a}->{b} red: {line}");
        }
        assert!(dot.contains("DOOMED"));
    }

    #[test]
    fn find_cycle_none_on_dag_and_self_loop() {
        let mut g = Polygraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        assert!(g.find_cycle().is_none());
        g.add_edge(2, 2);
        assert_eq!(g.find_cycle(), Some(vec![(2, 2)]));
    }

    #[test]
    fn fsg_witness_dot_contains_every_witness_edge() {
        // Fig. 1a serialized at evaluation: WO-acceptable only via the
        // evaluation-side bipath choice, so the witness is non-trivial.
        let (h, _, _) = paper::fig1a_serialized_at_evaluation();
        let fsg = build_fsg(&h, Semantics::WO_GAC);
        let w = fsg
            .polygraph
            .acyclic_witness()
            .expect("WO accepts fig1a-eval");
        assert!(!w.is_empty());
        let dot = fsg.to_dot_with_verdict();
        for &(a, b) in &w {
            let line = edge_line(&dot, a, b).expect("witness edge in DOT");
            assert!(line.contains("red"), "witness edge {a}->{b} red: {line}");
        }
        assert!(dot.contains("V_begin(T"), "paper-style labels present");
    }

    #[test]
    fn fsg_doomed_dot_flags_torn_history() {
        // Fig. 1a torn: rejected under every semantics. When the doom
        // comes from the fixed edges alone, the DOT names the cycle.
        let (h, _, _) = paper::fig1a_torn();
        let fsg = build_fsg(&h, Semantics::WO_GAC);
        assert!(fsg.polygraph.acyclic_witness().is_none());
        let dot = fsg.to_dot_with_verdict();
        if let Some(cyc) = fsg.polygraph.find_cycle() {
            assert!(dot.contains("DOOMED"));
            for &(a, b) in &cyc {
                let line = edge_line(&dot, a, b).expect("cycle edge in DOT");
                assert!(line.contains("red"));
            }
        } else {
            // Doom came from the bipaths (every choice closes a cycle):
            // no fixed-edge cycle to name, and no false witness either.
            assert!(!dot.contains("witness in red"));
        }
    }
}
