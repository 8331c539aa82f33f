//! Static lock-order graph for the striped commit paths.
//!
//! Scope: the lock-holding runtime crates (`backend`, `mvstm`, `tl2`).
//! Every `Mutex`/`RwLock` struct field there must carry a
//! `// lock-order: <class>` annotation naming its lock class; the pass
//! then tracks `.lock()` / `.read()` / `.write()` acquisition sites,
//! guard lifetimes (temporaries die with their statement, `let`-bound
//! guards with their block or an explicit `drop(g)`, guards pushed into
//! a collection live to the end of the function), and intra-crate calls
//! (a call made while holding class A to a function that acquires class
//! B adds the edge A → B; functions returning a `*Guard` transfer their
//! acquisitions to the caller's binding). The resulting class graph is
//! emitted as DOT/JSON and must be acyclic — cycle detection reuses the
//! `fsg` polygraph cycle finder.
//!
//! Multi-lock discipline: acquiring the *same* class repeatedly in a
//! loop with the guards outliving the iteration (the commit path's
//! stripe-mask walk) is only accepted when the loop is provably
//! index-sorted — it walks an ascending bitmask via `trailing_zeros` +
//! `mask &= mask - 1` — and at most one function per (crate, class) may
//! contain such a walk, so there is a single source of the ordering
//! mask (`unsorted-multi-lock` / `multiple-mask-sources` otherwise).

use std::collections::{BTreeMap, BTreeSet};

use crate::scan::{self, Receiver, SourceFile};
use crate::Finding;

/// One classified lock field.
#[derive(Debug, Clone)]
pub struct LockClass {
    pub crate_name: String,
    /// Field name call sites resolve to.
    pub key: String,
    /// Declared class (`stripe`, `registry-overflow`, ...).
    pub class: String,
    pub file: String,
    pub line: usize,
    /// Acquired under the sorted bitmask walk somewhere.
    pub mask_ordered: bool,
}

/// One ordered acquisition edge: `from` held while `to` is acquired.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// `crate/class` labels.
    pub from: String,
    pub to: String,
    /// Example site (file only, so line churn never moves the baseline).
    pub site: String,
}

#[derive(Debug, Default)]
pub struct LockReport {
    pub classes: Vec<LockClass>,
    pub edges: Vec<LockEdge>,
    /// Functions containing a sorted mask walk, as `crate::fn (class)`.
    pub mask_sources: Vec<String>,
    pub findings: Vec<Finding>,
}

struct FnDef {
    name: String,
    file_idx: usize,
    body_start: usize,
    body_end: usize,
    returns_guard: bool,
}

#[derive(Clone)]
struct Acquisition {
    off: usize,
    classes: Vec<String>, // >1 when a guard-returning call transfers them
    binding: Binding,
    in_sorted_loop: bool,
    in_loop: bool,
}

#[derive(Clone, PartialEq)]
enum Binding {
    Temporary,
    Let { ident: String, depth: u32 },
    Pushed,
}

/// Analyzes lock ordering across the given files (already filtered to
/// the lock-audited crates by the caller).
pub fn analyze(files: &[&SourceFile]) -> LockReport {
    let mut report = LockReport::default();
    let mut crates: BTreeSet<&str> = BTreeSet::new();
    for f in files {
        crates.insert(&f.crate_name);
    }
    for krate in crates {
        analyze_crate(krate, files, &mut report);
    }
    report.edges.sort();
    report
        .edges
        .dedup_by(|a, b| a.from == b.from && a.to == b.to);
    // Cycle detection over distinct classes (mask-ordered self-edges are
    // an ordered discipline, not a cycle).
    let labels: Vec<String> = report
        .classes
        .iter()
        .map(|c| format!("{}/{}", c.crate_name, c.class))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let index: BTreeMap<&str, usize> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let edge_idx: Vec<(usize, usize)> = report
        .edges
        .iter()
        .filter(|e| e.from != e.to)
        .filter_map(|e| Some((*index.get(e.from.as_str())?, *index.get(e.to.as_str())?)))
        .collect();
    if let Some(cycle) = wtf_fsg::find_cycle_in(labels.len(), &edge_idx) {
        let path: Vec<&str> = cycle
            .iter()
            .map(|&(a, _)| labels[a].as_str())
            .chain(cycle.last().map(|&(_, b)| labels[b].as_str()))
            .collect();
        report.findings.push(Finding {
            file: report
                .edges
                .first()
                .map(|e| e.site.clone())
                .unwrap_or_default(),
            line: 0,
            rule: "lock-cycle",
            message: format!("lock-order graph has a cycle: {}", path.join(" -> ")),
        });
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    report
}

fn analyze_crate(krate: &str, files: &[&SourceFile], report: &mut LockReport) {
    let file_idxs: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.crate_name == krate)
        .map(|(i, _)| i)
        .collect();
    // 1. lock classes from Mutex/RwLock struct fields
    let mut key_to_class: BTreeMap<String, String> = BTreeMap::new();
    let mut class_decls: Vec<LockClass> = Vec::new();
    for &fi in &file_idxs {
        collect_classes(files[fi], &mut key_to_class, &mut class_decls, report);
    }
    // 2. function definitions + their local acquisition events
    let mut fns: Vec<FnDef> = Vec::new();
    for &fi in &file_idxs {
        collect_fns(files[fi], fi, &mut fns);
    }
    let mut local_events: Vec<Vec<Acquisition>> = Vec::with_capacity(fns.len());
    for d in &fns {
        let f = files[d.file_idx];
        local_events.push(collect_acquisitions(
            f,
            d,
            &key_to_class,
            &mut class_decls,
            report,
        ));
    }
    // 3. fixpoint: classes each function may acquire (incl. callees)
    let name_to_fns: BTreeMap<&str, Vec<usize>> = {
        let mut m: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, d) in fns.iter().enumerate() {
            m.entry(d.name.as_str()).or_default().push(i);
        }
        m
    };
    let mut acquires: Vec<BTreeSet<String>> = local_events
        .iter()
        .map(|evs| evs.iter().flat_map(|e| e.classes.clone()).collect())
        .collect();
    let call_sites: Vec<Vec<(usize, Vec<usize>)>> = fns
        .iter()
        .map(|d| collect_calls(files[d.file_idx], d, &name_to_fns))
        .collect();
    for _ in 0..fns.len().min(32) {
        let mut changed = false;
        for i in 0..fns.len() {
            for (_, callees) in &call_sites[i] {
                for &c in callees {
                    let extra: Vec<String> = acquires[c]
                        .iter()
                        .filter(|x| !acquires[i].contains(*x))
                        .cloned()
                        .collect();
                    if !extra.is_empty() {
                        changed = true;
                        acquires[i].extend(extra);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    // 4. per-function walk: held set → edges
    for (i, d) in fns.iter().enumerate() {
        let f = files[d.file_idx];
        let depths = scan::brace_depths(&f.masked);
        // merge local acquisitions and calls into one ordered stream
        #[derive(Clone)]
        enum Ev {
            Acq(Acquisition),
            Call { off: usize, callees: Vec<usize> },
        }
        let mut evs: Vec<Ev> = local_events[i].iter().cloned().map(Ev::Acq).collect();
        for (off, callees) in &call_sites[i] {
            evs.push(Ev::Call {
                off: *off,
                callees: callees.clone(),
            });
        }
        evs.sort_by_key(|e| match e {
            Ev::Acq(a) => a.off,
            Ev::Call { off, .. } => *off,
        });
        struct Held {
            class: String,
            binding: Binding,
            off: usize,
        }
        let mut held: Vec<Held> = Vec::new();
        for ev in evs {
            let ev_off = match &ev {
                Ev::Acq(a) => a.off,
                Ev::Call { off, .. } => *off,
            };
            // evict dead guards: block ended below the binding depth, or
            // an explicit drop(ident) appeared since
            held.retain(|h| match &h.binding {
                Binding::Temporary => {
                    let (_, stmt_end) = scan::statement_span(&f.masked, h.off);
                    ev_off <= stmt_end
                }
                Binding::Let { ident, depth } => {
                    let alive_scope =
                        (h.off..ev_off.min(depths.len())).all(|p| depths[p] >= *depth);
                    let dropped = scan::find_all(&f.masked[h.off..ev_off], "drop")
                        .into_iter()
                        .any(|p| {
                            let at = h.off + p + 4;
                            scan::call_args(&f.masked, at)
                                .is_some_and(|(args, _)| args.trim() == ident)
                        });
                    alive_scope && !dropped
                }
                Binding::Pushed => true, // collection assumed live to fn end
            });
            match ev {
                Ev::Acq(a) => {
                    for new_class in &a.classes {
                        for h in &held {
                            if &h.class == new_class {
                                // same class re-acquired while held: only
                                // the sorted mask walk may do this
                                if !a.in_sorted_loop {
                                    report.findings.push(Finding {
                                        file: f.path.clone(),
                                        line: f.line_of(a.off),
                                        rule: "unsorted-multi-lock",
                                        message: format!(
                                            "class `{krate}/{new_class}` re-acquired while \
                                             already held outside a sorted bitmask walk"
                                        ),
                                    });
                                }
                            } else {
                                report.edges.push(LockEdge {
                                    from: format!("{krate}/{}", h.class),
                                    to: format!("{krate}/{new_class}"),
                                    site: f.path.clone(),
                                });
                            }
                        }
                    }
                    // accumulating same-class acquisition inside a loop
                    // (guards outlive the iteration) needs the idiom even
                    // on its first event
                    if a.in_loop && a.binding == Binding::Pushed && !a.in_sorted_loop {
                        report.findings.push(Finding {
                            file: f.path.clone(),
                            line: f.line_of(a.off),
                            rule: "unsorted-multi-lock",
                            message: format!(
                                "loop accumulates `{krate}/{}` guards without the sorted \
                                 bitmask idiom (trailing_zeros + `mask &= mask - 1`)",
                                a.classes.join(",")
                            ),
                        });
                    }
                    if a.in_sorted_loop {
                        for c in &a.classes {
                            report
                                .mask_sources
                                .push(format!("{krate}::{} ({c})", d.name));
                            for cd in class_decls.iter_mut() {
                                if &cd.class == c {
                                    cd.mask_ordered = true;
                                }
                            }
                        }
                    }
                    for c in a.classes {
                        held.push(Held {
                            class: c,
                            binding: a.binding.clone(),
                            off: a.off,
                        });
                    }
                }
                Ev::Call { off, callees } => {
                    let stmt = scan::statement_span(&f.masked, off);
                    let binding = classify_binding(f, stmt, off, &depths);
                    for c in callees {
                        if fns[c].returns_guard {
                            // transfers its acquisitions to our binding
                            for cls in acquires[c].iter() {
                                for h in &held {
                                    if &h.class != cls {
                                        report.edges.push(LockEdge {
                                            from: format!("{krate}/{}", h.class),
                                            to: format!("{krate}/{cls}"),
                                            site: f.path.clone(),
                                        });
                                    }
                                }
                            }
                            for cls in acquires[c].iter() {
                                held.push(Held {
                                    class: cls.clone(),
                                    binding: binding.clone(),
                                    off,
                                });
                            }
                        } else {
                            // transient: callee acquires and releases
                            for cls in acquires[c].iter() {
                                for h in &held {
                                    if &h.class != cls {
                                        report.edges.push(LockEdge {
                                            from: format!("{krate}/{}", h.class),
                                            to: format!("{krate}/{cls}"),
                                            site: f.path.clone(),
                                        });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    report.mask_sources.sort();
    report.mask_sources.dedup();
    // single source of the ordering mask, per (crate, class)
    let mut per_class: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for s in &report.mask_sources {
        if let Some((func, class)) = s.rsplit_once(" (") {
            if func.starts_with(&format!("{krate}::")) {
                per_class
                    .entry(class.trim_end_matches(')').to_string())
                    .or_default()
                    .insert(func.to_string());
            }
        }
    }
    for (class, sources) in per_class {
        if sources.len() > 1 {
            report.findings.push(Finding {
                file: class_decls
                    .iter()
                    .find(|c| c.class == class)
                    .map(|c| c.file.clone())
                    .unwrap_or_default(),
                line: 0,
                rule: "multiple-mask-sources",
                message: format!(
                    "class `{krate}/{class}` has {} sorted-mask walk sites ({}); the \
                     ordering mask must have a single source",
                    sources.len(),
                    sources.into_iter().collect::<Vec<_>>().join(", ")
                ),
            });
        }
    }
    report.classes.append(&mut class_decls);
}

fn collect_classes(
    f: &SourceFile,
    key_to_class: &mut BTreeMap<String, String>,
    class_decls: &mut Vec<LockClass>,
    report: &mut LockReport,
) {
    for needle in ["Mutex<", "RwLock<"] {
        for off in scan::find_all(&f.masked, needle) {
            if f.in_test(off) {
                continue;
            }
            // only struct fields / statics shaped `name: Mutex<..>` —
            // walking back over any `path::segments` before the type
            let mut before = f.masked[..off].trim_end();
            loop {
                if before.ends_with("::") {
                    // path segment (`parking_lot::RwLock`): skip it
                    let p = before[..before.len() - 2].trim_end();
                    let seg_start = p
                        .char_indices()
                        .rev()
                        .take_while(|(_, c)| scan::is_ident_char(*c))
                        .last()
                        .map(|(i, _)| i);
                    let Some(seg_start) = seg_start else { break };
                    before = p[..seg_start].trim_end();
                } else {
                    break;
                }
            }
            if !before.ends_with(':') {
                continue;
            }
            let name_part = before.trim_end_matches(':').trim_end();
            let name_start = name_part
                .char_indices()
                .rev()
                .take_while(|(_, c)| scan::is_ident_char(*c))
                .last()
                .map(|(i, _)| i);
            let Some(name_start) = name_start else {
                continue;
            };
            let key = name_part[name_start..].to_string();
            if key.is_empty() || key == "Option" {
                continue;
            }
            let line = f.line_of(off);
            let block = f.comment_block_above(line);
            let class = block.iter().find_map(|l| {
                let t = l.trim_start_matches('/').trim_start_matches('!').trim();
                t.strip_prefix("lock-order:").map(|c| {
                    c.trim()
                        .chars()
                        .take_while(|&ch| scan::is_ident_char(ch) || ch == '-')
                        .collect::<String>()
                })
            });
            let Some(class) = class.filter(|c| !c.is_empty()) else {
                report.findings.push(Finding {
                    file: f.path.clone(),
                    line,
                    rule: "lock-unclassified",
                    message: format!(
                        "lock field `{key}` has no `// lock-order: <class>` annotation"
                    ),
                });
                continue;
            };
            if let Some(prev) = key_to_class.get(&key) {
                if prev != &class {
                    report.findings.push(Finding {
                        file: f.path.clone(),
                        line,
                        rule: "lock-key-collision",
                        message: format!(
                            "lock field key `{key}` maps to classes `{prev}` and `{class}`; \
                             rename one field so acquisition sites resolve unambiguously"
                        ),
                    });
                    continue;
                }
            }
            key_to_class.insert(key.clone(), class.clone());
            class_decls.push(LockClass {
                crate_name: f.crate_name.clone(),
                key,
                class,
                file: f.path.clone(),
                line,
                mask_ordered: false,
            });
        }
    }
}

fn collect_fns(f: &SourceFile, file_idx: usize, fns: &mut Vec<FnDef>) {
    let masked = &f.masked;
    let bytes = masked.as_bytes();
    for off in scan::find_word_all(masked, "fn") {
        if f.in_test(off) {
            continue;
        }
        let mut i = off + 2;
        while i < bytes.len() && (bytes[i] as char).is_whitespace() {
            i += 1;
        }
        let name_start = i;
        while i < bytes.len() && scan::is_ident_char(bytes[i] as char) {
            i += 1;
        }
        let name = masked[name_start..i].to_string();
        if name.is_empty() {
            continue;
        }
        // signature args, then body brace (trait decls end with `;`)
        let Some((_, sig_end)) = scan::call_args(
            masked,
            masked[i..].find('(').map(|p| i + p).unwrap_or(masked.len()),
        ) else {
            continue;
        };
        let ret_and_where = &masked[sig_end..];
        let body_rel = ret_and_where.find('{');
        let semi_rel = ret_and_where.find(';');
        let body_rel = match (body_rel, semi_rel) {
            (Some(b), Some(s)) if s < b => continue,
            (Some(b), _) => b,
            (None, _) => continue,
        };
        let returns_guard = {
            let ret = &ret_and_where[..body_rel];
            ret.contains("Guard") || ret.contains("Hold")
        };
        let body_start = sig_end + body_rel;
        let mut depth = 0usize;
        let mut body_end = bytes.len();
        for (j, &c) in bytes.iter().enumerate().skip(body_start) {
            match c {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = j + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        fns.push(FnDef {
            name,
            file_idx,
            body_start,
            body_end,
            returns_guard,
        });
    }
}

/// Loop spans (keyword offset → body end) for sorted-walk checks.
fn loop_spans(masked: &str, from: usize, to: usize) -> Vec<(usize, usize)> {
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for kw in ["while", "for", "loop"] {
        for off in scan::find_word_all(&masked[from..to], kw) {
            let off = from + off;
            let Some(body_rel) = masked[off..to].find('{') else {
                continue;
            };
            let body_start = off + body_rel;
            let mut depth = 0usize;
            let mut end = to;
            for (j, &c) in bytes
                .iter()
                .enumerate()
                .skip(body_start)
                .take(to - body_start)
            {
                match c {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = j + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            out.push((off, end));
        }
    }
    out
}

fn classify_binding(f: &SourceFile, stmt: (usize, usize), _off: usize, depths: &[u32]) -> Binding {
    let stmt_text = &f.masked[stmt.0..stmt.1];
    if stmt_text.contains(".push(") || stmt_text.contains(".insert(") {
        return Binding::Pushed;
    }
    let trimmed = stmt_text.trim_start();
    if let Some(binding) = trimmed.strip_prefix("let ") {
        let eq = binding.find('=').unwrap_or(binding.len());
        let idents: Vec<&str> = binding[..eq]
            .split(|c: char| !scan::is_ident_char(c))
            .filter(|s| !s.is_empty() && *s != "mut")
            .collect();
        if let Some(ident) = idents.first() {
            return Binding::Let {
                ident: ident.to_string(),
                depth: depths[stmt.0.min(depths.len() - 1)],
            };
        }
    }
    Binding::Temporary
}

fn collect_acquisitions(
    f: &SourceFile,
    d: &FnDef,
    key_to_class: &BTreeMap<String, String>,
    _class_decls: &mut [LockClass],
    _report: &mut LockReport,
) -> Vec<Acquisition> {
    let masked = &f.masked;
    let bytes = masked.as_bytes();
    let depths = scan::brace_depths(masked);
    let loops = loop_spans(masked, d.body_start, d.body_end);
    let mut out = Vec::new();
    for method in ["lock", "read", "write"] {
        for off in scan::find_word_all(&masked[d.body_start..d.body_end], method) {
            let off = d.body_start + off;
            if off == 0 || bytes[off - 1] != b'.' || f.in_test(off) {
                continue;
            }
            let Some((args, _)) = scan::call_args(masked, off + method.len()) else {
                continue;
            };
            if !args.trim().is_empty() {
                continue; // lock acquisition methods take no arguments
            }
            let Receiver::Ident(recv) = scan::resolve_receiver(masked, off - 1) else {
                continue;
            };
            let Some(class) = key_to_class.get(&recv) else {
                continue;
            };
            let stmt = scan::statement_span(masked, off);
            let binding = classify_binding(f, stmt, off, &depths);
            let enclosing_loop = loops
                .iter()
                .filter(|(s, e)| *s <= off && off < *e)
                .min_by_key(|(s, e)| e - s);
            let in_sorted_loop = enclosing_loop.is_some_and(|&(s, e)| {
                let text = &masked[s..e];
                text.contains("trailing_zeros") && text.contains("&=")
            });
            out.push(Acquisition {
                off,
                classes: vec![class.clone()],
                binding,
                in_sorted_loop,
                in_loop: enclosing_loop.is_some(),
            });
        }
    }
    out.sort_by_key(|a| a.off);
    out
}

fn collect_calls(
    f: &SourceFile,
    d: &FnDef,
    name_to_fns: &BTreeMap<&str, Vec<usize>>,
) -> Vec<(usize, Vec<usize>)> {
    let masked = &f.masked;
    let bytes = masked.as_bytes();
    let mut out = Vec::new();
    for (name, idxs) in name_to_fns {
        if *name == d.name {
            continue; // recursion adds no new ordering information
        }
        for off in scan::find_word_all(&masked[d.body_start..d.body_end], name) {
            let off = d.body_start + off;
            // must be a call: followed by `(`; not a definition (`fn name`)
            let after = off + name.len();
            if bytes.get(after) != Some(&b'(') {
                continue;
            }
            let before = masked[..off].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            out.push((off, idxs.clone()));
        }
    }
    out.sort_by_key(|(off, _)| *off);
    out
}

/// DOT rendering of the class graph.
pub fn to_dot(report: &LockReport) -> String {
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    for c in &report.classes {
        let label = format!("{}/{}", c.crate_name, c.class);
        if nodes.insert(label.clone()) {
            let shape = if c.mask_ordered {
                " [shape=box, style=\"rounded,bold\", xlabel=\"mask-ordered\"]"
            } else {
                " [shape=box]"
            };
            out.push_str(&format!("  \"{label}\"{shape};\n"));
        }
    }
    for e in &report.edges {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            e.from, e.to, e.site
        ));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, krate: &str, src: &str) -> SourceFile {
        SourceFile::new(path.into(), krate.into(), false, src.into())
    }

    #[test]
    fn unannotated_lock_flagged() {
        let r = analyze(&[&file(
            "crates/x/src/lib.rs",
            "x",
            "struct S {\n    guard: Mutex<()>,\n}\n",
        )]);
        assert!(r.findings.iter().any(|f| f.rule == "lock-unclassified"));
    }

    #[test]
    fn ordered_pair_builds_edge() {
        let src = "struct S {\n    // lock-order: outer\n    a: Mutex<()>,\n    \
                   // lock-order: inner\n    b: Mutex<()>,\n}\n\
                   impl S {\n    fn f(&self) {\n        let g = self.a.lock();\n        \
                   let h = self.b.lock();\n        drop(h);\n        drop(g);\n    }\n}\n";
        let r = analyze(&[&file("crates/x/src/lib.rs", "x", src)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r
            .edges
            .iter()
            .any(|e| e.from == "x/outer" && e.to == "x/inner"));
    }

    #[test]
    fn cycle_detected() {
        let src = "struct S {\n    // lock-order: outer\n    a: Mutex<()>,\n    \
                   // lock-order: inner\n    b: Mutex<()>,\n}\n\
                   impl S {\n    fn f(&self) {\n        let g = self.a.lock();\n        \
                   let h = self.b.lock();\n    }\n    fn g(&self) {\n        \
                   let h = self.b.lock();\n        let g = self.a.lock();\n    }\n}\n";
        let r = analyze(&[&file("crates/x/src/lib.rs", "x", src)]);
        assert!(
            r.findings.iter().any(|f| f.rule == "lock-cycle"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn sorted_mask_walk_accepted_unsorted_rejected() {
        let sorted = "struct Stripes {\n    // lock-order: stripe\n    lock: Mutex<()>,\n}\n\
                      impl T {\n    fn lock_mask(&self, mask: u64) -> Vec<Guard> {\n        \
                      let mut guards = Vec::new();\n        let mut rest = mask;\n        \
                      while rest != 0 {\n            let idx = rest.trailing_zeros() as usize;\n            \
                      guards.push(self.stripes[idx].lock.lock());\n            rest &= rest - 1;\n        }\n        \
                      guards\n    }\n}\n";
        let r = analyze(&[&file("crates/x/src/stripe.rs", "x", sorted)]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r
            .classes
            .iter()
            .any(|c| c.class == "stripe" && c.mask_ordered));
        let unsorted = "struct Stripes {\n    // lock-order: stripe\n    lock: Mutex<()>,\n}\n\
                        impl T {\n    fn lock_all(&self) -> Vec<Guard> {\n        \
                        let mut guards = Vec::new();\n        for s in &self.stripes {\n            \
                        guards.push(s.lock.lock());\n        }\n        guards\n    }\n}\n";
        let r = analyze(&[&file("crates/x/src/stripe.rs", "x", unsorted)]);
        assert!(
            r.findings.iter().any(|f| f.rule == "unsorted-multi-lock"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn call_propagation_builds_edge() {
        let src = "struct S {\n    // lock-order: stripe\n    lock: Mutex<()>,\n    \
                   // lock-order: registry\n    overflow: Mutex<()>,\n}\n\
                   impl S {\n    fn gc(&self) {\n        let g = self.overflow.lock();\n    }\n    \
                   fn commit(&self) {\n        let g = self.lock.lock();\n        self.gc();\n    }\n}\n";
        let r = analyze(&[&file("crates/x/src/lib.rs", "x", src)]);
        assert!(r
            .edges
            .iter()
            .any(|e| e.from == "x/stripe" && e.to == "x/registry"));
    }
}
