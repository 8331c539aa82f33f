//! Polygraphs and acyclicity (Papadimitriou 1979).
//!
//! A polygraph is a directed graph plus a set of *bipaths*: pairs of edges
//! of which exactly one must hold. A polygraph with `n` bipaths compactly
//! encodes `2^n` directed graphs; it is **acyclic** iff at least one of
//! those graphs is a DAG.

/// Finds a concrete cycle in the directed graph over `nodes` vertices
/// with the given `edges`, as a closed edge list (each edge's head is
/// the next edge's tail, and the last edge closes back to the first),
/// or `None` if the edges form a DAG. Self-loops count as one-edge
/// cycles.
///
/// This is the single cycle finder shared by [`Polygraph::find_cycle`]
/// (the doom explainer behind the DOT exporters and `wtf-report`'s
/// trace-driven history checker) and `wtf-audit`'s lock-order check.
pub fn find_cycle_in(nodes: usize, edges: &[(usize, usize)]) -> Option<Vec<(usize, usize)>> {
    let mut adj = vec![Vec::new(); nodes];
    for &(a, b) in edges {
        if a == b {
            return Some(vec![(a, a)]);
        }
        adj[a].push(b);
    }
    // 0 = unvisited, 1 = on the current DFS path, 2 = done.
    let mut color = vec![0u8; nodes];
    let mut path = Vec::new();
    for start in 0..nodes {
        if color[start] == 0 {
            if let Some(c) = dfs_cycle(start, &adj, &mut color, &mut path) {
                return Some(c);
            }
        }
    }
    None
}

fn dfs_cycle(
    n: usize,
    adj: &[Vec<usize>],
    color: &mut [u8],
    path: &mut Vec<usize>,
) -> Option<Vec<(usize, usize)>> {
    color[n] = 1;
    path.push(n);
    for &m in &adj[n] {
        if color[m] == 1 {
            // Back edge: the cycle is the path suffix from m, closed by
            // the edge (n, m).
            let pos = path.iter().position(|&x| x == m).expect("m is on path");
            let mut cyc: Vec<(usize, usize)> =
                path[pos..].windows(2).map(|w| (w[0], w[1])).collect();
            cyc.push((n, m));
            return Some(cyc);
        }
        if color[m] == 0 {
            if let Some(c) = dfs_cycle(m, adj, color, path) {
                return Some(c);
            }
        }
    }
    path.pop();
    color[n] = 2;
    None
}

/// A directed graph with bipath (either/or edge) constraints.
#[derive(Debug, Clone, Default)]
pub struct Polygraph {
    nodes: usize,
    /// Fixed edges `(from, to)`.
    pub edges: Vec<(usize, usize)>,
    /// Bipaths: `((a1, b1), (a2, b2))` — at least one of the two edges
    /// must be included.
    pub bipaths: Vec<((usize, usize), (usize, usize))>,
}

impl Polygraph {
    pub fn new(nodes: usize) -> Polygraph {
        Polygraph {
            nodes,
            edges: Vec::new(),
            bipaths: Vec::new(),
        }
    }

    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Adds a fixed edge. Self-loops are rejected eagerly (they can arise
    /// from degenerate constructions and always make the graph cyclic).
    pub fn add_edge(&mut self, from: usize, to: usize) {
        assert!(from < self.nodes && to < self.nodes);
        self.edges.push((from, to));
    }

    pub fn add_bipath(&mut self, first: (usize, usize), second: (usize, usize)) {
        assert!(first.0 < self.nodes && first.1 < self.nodes);
        assert!(second.0 < self.nodes && second.1 < self.nodes);
        self.bipaths.push((first, second));
    }

    /// Kahn's-algorithm acyclicity check on `base ∪ extra`.
    fn is_dag(&self, extra: &[(usize, usize)]) -> bool {
        let mut indeg = vec![0usize; self.nodes];
        let mut adj = vec![Vec::new(); self.nodes];
        for &(a, b) in self.edges.iter().chain(extra.iter()) {
            if a == b {
                return false;
            }
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut stack: Vec<usize> = (0..self.nodes).filter(|&n| indeg[n] == 0).collect();
        let mut seen = 0;
        while let Some(n) = stack.pop() {
            seen += 1;
            for &m in &adj[n] {
                indeg[m] -= 1;
                if indeg[m] == 0 {
                    stack.push(m);
                }
            }
        }
        seen == self.nodes
    }

    /// True iff some choice of one edge per bipath yields a DAG.
    ///
    /// Backtracking search over bipath choices. Histories in this
    /// repository carry at most a few dozen futures, far below the point
    /// where the exponential worst case (inherent: deciding polygraph
    /// acyclicity is NP-complete) would bite.
    pub fn acyclic(&self) -> bool {
        if !self.is_dag(&[]) {
            // The fixed edges alone are cyclic; no choice can help.
            return false;
        }
        let mut chosen = Vec::with_capacity(self.bipaths.len());
        self.solve(0, &mut chosen)
    }

    fn solve(&self, i: usize, chosen: &mut Vec<(usize, usize)>) -> bool {
        if i == self.bipaths.len() {
            return self.is_dag(chosen);
        }
        let (first, second) = self.bipaths[i];
        for edge in [first, second] {
            chosen.push(edge);
            // Prune: if the partial assignment is already cyclic, no
            // extension can be acyclic.
            if self.is_dag(chosen) && self.solve(i + 1, chosen) {
                chosen.pop();
                return true;
            }
            chosen.pop();
        }
        false
    }

    /// Returns a concrete cycle among the **fixed** edges, as a closed
    /// edge list, or `None` if the fixed edges form a DAG. Delegates to
    /// [`find_cycle_in`], the cycle finder shared with `wtf-audit`.
    ///
    /// This is the doom explainer: when [`Polygraph::acyclic_witness`]
    /// returns `None` because the fixed edges alone are cyclic, this
    /// names the offending edges.
    pub fn find_cycle(&self) -> Option<Vec<(usize, usize)>> {
        find_cycle_in(self.nodes, &self.edges)
    }

    /// Like [`Polygraph::acyclic`] but also returns the witnessing edge
    /// choice (one entry per bipath), if any.
    pub fn acyclic_witness(&self) -> Option<Vec<(usize, usize)>> {
        if !self.is_dag(&[]) {
            return None;
        }
        let mut chosen = Vec::with_capacity(self.bipaths.len());
        if self.solve(0, &mut chosen) {
            // Re-run to actually capture the assignment.
            let mut out = Vec::new();
            if self.solve_capture(0, &mut out) {
                return Some(out);
            }
        }
        None
    }

    fn solve_capture(&self, i: usize, chosen: &mut Vec<(usize, usize)>) -> bool {
        if i == self.bipaths.len() {
            return self.is_dag(chosen);
        }
        let (first, second) = self.bipaths[i];
        for edge in [first, second] {
            chosen.push(edge);
            if self.is_dag(chosen) && self.solve_capture(i + 1, chosen) {
                return true;
            }
            chosen.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_acyclic() {
        assert!(Polygraph::new(0).acyclic());
        assert!(Polygraph::new(5).acyclic());
    }

    #[test]
    fn simple_cycle_rejected() {
        let mut g = Polygraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        assert!(!g.acyclic());
    }

    #[test]
    fn bipath_allows_escape() {
        // 0 -> 1 fixed; bipath: (1 -> 0) or (0 -> 2). Choosing the second
        // edge keeps the graph acyclic.
        let mut g = Polygraph::new(3);
        g.add_edge(0, 1);
        g.add_bipath((1, 0), (0, 2));
        assert!(g.acyclic());
        let w = g.acyclic_witness().unwrap();
        assert_eq!(w, vec![(0, 2)]);
    }

    #[test]
    fn bipath_with_no_escape() {
        // 0 -> 1 -> 2 fixed; bipath (1,0) or (2,0): both close a cycle.
        let mut g = Polygraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_bipath((1, 0), (2, 0));
        assert!(!g.acyclic());
        assert!(g.acyclic_witness().is_none());
    }

    #[test]
    fn interacting_bipaths() {
        // Two bipaths whose first choices conflict with each other but
        // whose mixed assignment works.
        let mut g = Polygraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        g.add_bipath((1, 2), (3, 0)); // choose 1->2 or 3->0
        g.add_bipath((3, 0), (1, 2)); // same pair, swapped preference
        assert!(g.acyclic());
    }

    #[test]
    fn self_loop_edge_rejected() {
        let mut g = Polygraph::new(2);
        g.add_edge(1, 1);
        assert!(!g.acyclic());
    }

    #[test]
    fn brute_force_agreement_small_random() {
        // Cross-check the backtracking solver against exhaustive
        // enumeration on random small polygraphs.
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..200 {
            let n = 4 + (next() % 3) as usize;
            let mut g = Polygraph::new(n);
            for _ in 0..(next() % 6) {
                g.add_edge((next() % n as u64) as usize, (next() % n as u64) as usize);
            }
            let nb = (next() % 4) as usize;
            for _ in 0..nb {
                g.add_bipath(
                    ((next() % n as u64) as usize, (next() % n as u64) as usize),
                    ((next() % n as u64) as usize, (next() % n as u64) as usize),
                );
            }
            // Exhaustive check.
            let mut any = false;
            for mask in 0..(1u32 << g.bipaths.len()) {
                let extra: Vec<_> = g
                    .bipaths
                    .iter()
                    .enumerate()
                    .map(|(i, &(a, b))| if mask & (1 << i) != 0 { a } else { b })
                    .collect();
                if g.is_dag(&extra) {
                    any = true;
                    break;
                }
            }
            assert_eq!(g.acyclic(), any);
        }
    }
}
