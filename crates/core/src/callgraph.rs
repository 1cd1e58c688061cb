//! The conservative whole-program call graph, shared by the
//! demand-driven slicer ([`crate::demand`]) and the program-scope memo
//! ([`crate::MemoScope::Program`]).
//!
//! Edges follow the *conservative* resolution rule both consumers need
//! before any points-to facts exist: a direct call to a defined
//! function contributes one edge; an indirect call contributes edges to
//! **every address-taken defined function** (a function pointer can
//! only hold addresses the program takes, so this over-approximates any
//! points-to-resolved target set). Calls to modelled externals
//! contribute no edges — they never re-enter the program.
//!
//! On top of the edge relation the graph carries its Tarjan strongly
//! connected components in **reverse topological order** (callees
//! before callers), plus per-function recursion facts that decide which
//! functions' context pairs are safe to reuse program-wide.

use crate::baseline::address_taken_functions;
use pta_cfront::ast::FuncId;
use pta_simple::{BasicStmt, CallSiteId, CallTarget, IrProgram, StmtId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One call statement under the conservative resolution rule: its
/// program point, its possible *defined* callees, and whether the call
/// is indirect (through a function pointer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsCall {
    /// The call statement's program point.
    pub stmt: StmtId,
    /// The call site id (one per textual call).
    pub call_site: CallSiteId,
    /// Possible defined callees (one for a direct call; every
    /// address-taken defined function for an indirect call; empty for
    /// an extern call).
    pub callees: Vec<FuncId>,
    /// True for a call through a function pointer.
    pub indirect: bool,
}

/// All call statements of `fid`, with conservative callees.
pub fn cons_calls(ir: &IrProgram, fid: FuncId, address_taken: &[FuncId]) -> Vec<ConsCall> {
    let mut out = Vec::new();
    let Some(body) = ir.function(fid).body.as_ref() else {
        return out;
    };
    body.for_each_basic(&mut |b, id| {
        if let BasicStmt::Call {
            target, call_site, ..
        } = b
        {
            let (callees, indirect) = match target {
                CallTarget::Direct(g) if ir.function(*g).is_defined() => (vec![*g], false),
                CallTarget::Direct(_) => (Vec::new(), false), // extern: modelled, no edge
                CallTarget::Indirect(_) => (address_taken.to_vec(), true),
            };
            out.push(ConsCall {
                stmt: id,
                call_site: *call_site,
                callees,
                indirect,
            });
        }
    });
    out
}

/// Forward closure over a successor map.
pub fn closure(
    succs: &BTreeMap<FuncId, Vec<FuncId>>,
    seeds: impl IntoIterator<Item = FuncId>,
) -> BTreeSet<FuncId> {
    let mut seen: BTreeSet<FuncId> = BTreeSet::new();
    let mut work: VecDeque<FuncId> = seeds.into_iter().collect();
    while let Some(f) = work.pop_front() {
        if !seen.insert(f) {
            continue;
        }
        if let Some(ss) = succs.get(&f) {
            work.extend(ss.iter().copied());
        }
    }
    seen
}

/// The conservative call graph with its SCC condensation.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Address-taken *defined* functions (the conservative target set
    /// of every indirect call site).
    pub address_taken: Vec<FuncId>,
    /// Call statements per defined function.
    pub calls: BTreeMap<FuncId, Vec<ConsCall>>,
    /// Caller → callees (with one entry per call edge; not deduplicated,
    /// so edge multiplicity is preserved for the slicer).
    pub succs: BTreeMap<FuncId, Vec<FuncId>>,
    /// Callee → callers.
    pub preds: BTreeMap<FuncId, Vec<FuncId>>,
    /// Strongly connected components in reverse topological order:
    /// every function a component calls lives in an earlier component.
    pub sccs: Vec<Vec<FuncId>>,
    /// Function → index into `sccs`.
    comp_of: BTreeMap<FuncId, usize>,
    /// Functions on a call cycle: members of a multi-function SCC, or
    /// functions with a (conservative) self edge.
    recursive: BTreeSet<FuncId>,
}

impl CallGraph {
    /// Builds the conservative call graph of every defined function.
    pub fn build(ir: &IrProgram) -> CallGraph {
        let address_taken: Vec<FuncId> = address_taken_functions(ir)
            .into_iter()
            .filter(|f| ir.function(*f).is_defined())
            .collect();
        let mut calls: BTreeMap<FuncId, Vec<ConsCall>> = BTreeMap::new();
        let mut succs: BTreeMap<FuncId, Vec<FuncId>> = BTreeMap::new();
        let mut preds: BTreeMap<FuncId, Vec<FuncId>> = BTreeMap::new();
        let mut funcs: Vec<FuncId> = Vec::new();
        for (fid, _) in ir.defined_functions() {
            funcs.push(fid);
            let cc = cons_calls(ir, fid, &address_taken);
            for c in &cc {
                for g in &c.callees {
                    succs.entry(fid).or_default().push(*g);
                    preds.entry(*g).or_default().push(fid);
                }
            }
            calls.insert(fid, cc);
        }
        let (sccs, comp_of) = tarjan(&funcs, &succs);
        let mut recursive: BTreeSet<FuncId> = BTreeSet::new();
        for scc in &sccs {
            if scc.len() > 1 {
                recursive.extend(scc.iter().copied());
            }
        }
        for f in &funcs {
            if succs.get(f).is_some_and(|ss| ss.contains(f)) {
                recursive.insert(*f);
            }
        }
        CallGraph {
            address_taken,
            calls,
            succs,
            preds,
            sccs,
            comp_of,
            recursive,
        }
    }

    /// The index of `f`'s component in [`CallGraph::sccs`].
    pub fn comp_of(&self, f: FuncId) -> Option<usize> {
        self.comp_of.get(&f).copied()
    }

    /// True if `f` sits on a (conservative) call cycle.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.recursive.contains(&f)
    }

    /// The functions whose conservative call closure (themselves
    /// included) contains **no** recursive function. A call to such a
    /// function can never participate in a fixed point, so its analysis
    /// under an exact input is a self-contained, repeatable summary.
    pub fn recursion_free(&self) -> BTreeSet<FuncId> {
        let mut out = BTreeSet::new();
        // Reverse-topological components: a component is recursion-free
        // iff it is acyclic (a singleton without a self edge) and every
        // callee component already proved recursion-free.
        let mut comp_ok: Vec<bool> = vec![false; self.sccs.len()];
        for (ci, scc) in self.sccs.iter().enumerate() {
            let mut ok = scc.len() == 1 && !self.recursive.contains(&scc[0]);
            if ok {
                let f = scc[0];
                for g in self.succs.get(&f).into_iter().flatten() {
                    let gc = self.comp_of[g];
                    if gc != ci && !comp_ok[gc] {
                        ok = false;
                        break;
                    }
                }
            }
            comp_ok[ci] = ok;
            if ok {
                out.insert(scc[0]);
            }
        }
        out
    }

    /// Distinct edges of the SCC condensation, as `(caller component,
    /// callee component)` pairs, sorted.
    pub fn condensation_edges(&self) -> Vec<(usize, usize)> {
        let mut edges: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (f, ss) in &self.succs {
            let fc = self.comp_of[f];
            for g in ss {
                let gc = self.comp_of[g];
                if fc != gc {
                    edges.insert((fc, gc));
                }
            }
        }
        edges.into_iter().collect()
    }

    /// Renders the call graph and its SCC condensation in Graphviz DOT
    /// (functions clustered by component; dashed cluster borders mark
    /// recursive components).
    pub fn to_dot(&self, ir: &IrProgram) -> String {
        let mut out = String::from("digraph conservative_call_graph {\n  node [shape=box];\n");
        for (ci, scc) in self.sccs.iter().enumerate() {
            let cyclic = scc.iter().any(|f| self.recursive.contains(f));
            out.push_str(&format!(
                "  subgraph cluster_scc{} {{\n    label=\"scc {} (order {})\";\n    style={};\n",
                ci,
                ci,
                ci,
                if cyclic { "dashed" } else { "dotted" }
            ));
            for f in scc {
                out.push_str(&format!(
                    "    f{} [label=\"{}\"];\n",
                    f.0,
                    ir.function(*f).name
                ));
            }
            out.push_str("  }\n");
        }
        let mut edges: BTreeSet<(FuncId, FuncId, bool)> = BTreeSet::new();
        for (f, calls) in &self.calls {
            for c in calls {
                for g in &c.callees {
                    edges.insert((*f, *g, c.indirect));
                }
            }
        }
        for (f, g, indirect) in edges {
            let style = if indirect { " [style=dashed]" } else { "" };
            out.push_str(&format!("  f{} -> f{}{};\n", f.0, g.0, style));
        }
        out.push_str("}\n");
        out
    }

    /// Renders the call graph and its SCC condensation as a single JSON
    /// object (stable field and array order).
    pub fn to_json(&self, ir: &IrProgram) -> String {
        let esc = crate::trace::json_escape;
        let mut out = String::from("{\"functions\":[");
        let mut first = true;
        for (f, _) in ir.defined_functions() {
            if !first {
                out.push(',');
            }
            first = false;
            let callees: BTreeSet<FuncId> =
                self.succs.get(&f).into_iter().flatten().copied().collect();
            let names: Vec<String> = callees
                .iter()
                .map(|g| format!("\"{}\"", esc(&ir.function(*g).name)))
                .collect();
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"scc\":{},\"recursive\":{},\"address_taken\":{},\"calls\":[{}]}}",
                esc(&ir.function(f).name),
                self.comp_of[&f],
                self.recursive.contains(&f),
                self.address_taken.contains(&f),
                names.join(",")
            ));
        }
        out.push_str("],\"sccs\":[");
        for (ci, scc) in self.sccs.iter().enumerate() {
            if ci > 0 {
                out.push(',');
            }
            let names: Vec<String> = scc
                .iter()
                .map(|f| format!("\"{}\"", esc(&ir.function(*f).name)))
                .collect();
            out.push_str(&format!(
                "{{\"order\":{},\"members\":[{}],\"recursive\":{}}}",
                ci,
                names.join(","),
                scc.iter().any(|f| self.recursive.contains(f))
            ));
        }
        out.push_str("],\"condensation_edges\":[");
        for (i, (a, b)) in self.condensation_edges().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{a},{b}]"));
        }
        out.push_str("]}");
        out
    }
}

/// Iterative Tarjan SCC (recursion-free: conservative call chains in
/// generated stress programs can be thousands of functions deep).
/// Components come out in reverse topological order of the
/// condensation: callees before callers.
fn tarjan(
    funcs: &[FuncId],
    succs: &BTreeMap<FuncId, Vec<FuncId>>,
) -> (Vec<Vec<FuncId>>, BTreeMap<FuncId, usize>) {
    #[derive(Clone)]
    struct NodeState {
        index: u32,
        lowlink: u32,
        on_stack: bool,
    }
    let mut state: BTreeMap<FuncId, NodeState> = BTreeMap::new();
    let mut stack: Vec<FuncId> = Vec::new();
    let mut next_index: u32 = 0;
    let mut sccs: Vec<Vec<FuncId>> = Vec::new();
    let mut comp_of: BTreeMap<FuncId, usize> = BTreeMap::new();
    let empty: Vec<FuncId> = Vec::new();

    for &root in funcs {
        if state.contains_key(&root) {
            continue;
        }
        // Explicit DFS frames: (node, next successor position).
        let mut frames: Vec<(FuncId, usize)> = vec![(root, 0)];
        state.insert(
            root,
            NodeState {
                index: next_index,
                lowlink: next_index,
                on_stack: true,
            },
        );
        next_index += 1;
        stack.push(root);
        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            let ss = succs.get(&v).unwrap_or(&empty);
            if *pos < ss.len() {
                let w = ss[*pos];
                *pos += 1;
                match state.get(&w) {
                    None => {
                        state.insert(
                            w,
                            NodeState {
                                index: next_index,
                                lowlink: next_index,
                                on_stack: true,
                            },
                        );
                        next_index += 1;
                        stack.push(w);
                        frames.push((w, 0));
                    }
                    Some(sw) if sw.on_stack => {
                        let wi = sw.index;
                        let sv = state.get_mut(&v).expect("v visited");
                        sv.lowlink = sv.lowlink.min(wi);
                    }
                    Some(_) => {}
                }
            } else {
                frames.pop();
                let sv = state[&v].clone();
                if let Some(&(p, _)) = frames.last() {
                    let sp = state.get_mut(&p).expect("parent visited");
                    sp.lowlink = sp.lowlink.min(sv.lowlink);
                }
                if sv.lowlink == sv.index {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc member on stack");
                        state.get_mut(&w).expect("w visited").on_stack = false;
                        comp_of.insert(w, sccs.len());
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    (sccs, comp_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_simple::compile;

    fn fid(ir: &IrProgram, name: &str) -> FuncId {
        ir.function_by_name(name).unwrap().0
    }

    #[test]
    fn straight_chain_orders_callees_first() {
        let ir = compile(
            "int g;
             void leaf(int **p) { *p = &g; }
             void mid(int **p) { leaf(p); }
             int main(void) { int *q; mid(&q); return *q; }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        assert_eq!(cg.sccs.len(), 3);
        let pos = |n: &str| cg.comp_of(fid(&ir, n)).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("main"));
        assert!(!cg.is_recursive(fid(&ir, "leaf")));
        assert_eq!(cg.recursion_free().len(), 3);
    }

    #[test]
    fn self_recursion_is_a_recursive_singleton() {
        let ir = compile(
            "int f(int n) { if (n) return f(n - 1); return 0; }
             int main(void) { return f(3); }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        assert!(cg.is_recursive(fid(&ir, "f")));
        assert!(!cg.is_recursive(fid(&ir, "main")));
        // main reaches the cycle, so only the cycle-free closure is empty.
        assert!(cg.recursion_free().is_empty());
    }

    #[test]
    fn mutually_recursive_knot_is_one_component() {
        let ir = compile(
            "int b(int n);
             int a(int n) { if (n) return b(n - 1); return 0; }
             int b(int n) { if (n) return a(n - 1); return 1; }
             int side(void) { return 7; }
             int main(void) { side(); a(5); return b(5); }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        assert_eq!(cg.comp_of(fid(&ir, "a")), cg.comp_of(fid(&ir, "b")));
        assert!(cg.is_recursive(fid(&ir, "a")) && cg.is_recursive(fid(&ir, "b")));
        let knot = cg.comp_of(fid(&ir, "a")).unwrap();
        assert_eq!(cg.sccs[knot].len(), 2);
        assert!(knot < cg.comp_of(fid(&ir, "main")).unwrap());
        // `side` calls nothing: recursion-free even though main is not.
        let free = cg.recursion_free();
        assert!(free.contains(&fid(&ir, "side")));
        assert!(!free.contains(&fid(&ir, "main")));
        // Condensation edges all point from later (caller) to earlier
        // (callee) components.
        for (a, b) in cg.condensation_edges() {
            assert!(a > b, "caller component {a} must follow callee {b}");
        }
    }

    #[test]
    fn indirect_calls_take_all_address_taken_functions() {
        let ir = compile(
            "int g;
             void a(int **p) { *p = &g; }
             void b(int **p) { *p = 0; }
             void never(int **p) { *p = 0; }
             int main(void) {
                 int *q;
                 void (*fp)(int **);
                 fp = a;
                 if (g) fp = b;
                 fp(&q);
                 return *q;
             }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        // `never` is defined but never address-taken: no edge to it.
        let main_succs: BTreeSet<FuncId> = cg.succs[&fid(&ir, "main")].iter().copied().collect();
        assert!(main_succs.contains(&fid(&ir, "a")));
        assert!(main_succs.contains(&fid(&ir, "b")));
        assert!(!main_succs.contains(&fid(&ir, "never")));
        let call = cg.calls[&fid(&ir, "main")]
            .iter()
            .find(|c| c.indirect)
            .expect("indirect call recorded");
        assert_eq!(call.callees.len(), 2);
    }

    #[test]
    fn fnptr_cycle_is_detected_conservatively() {
        // a calls through a pointer that (conservatively) may hold &a:
        // the conservative graph has a cycle even though no direct
        // recursion exists.
        let ir = compile(
            "void a(void);
             void (*fp)(void);
             void a(void) { if (fp) fp(); }
             int main(void) { fp = a; a(); return 0; }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        assert!(cg.is_recursive(fid(&ir, "a")));
        assert!(!cg.recursion_free().contains(&fid(&ir, "main")));
    }

    #[test]
    fn dot_and_json_render_components() {
        let ir = compile(
            "int a(int n) { if (n) return a(n - 1); return 0; }
             int main(void) { return a(2); }",
        )
        .unwrap();
        let cg = CallGraph::build(&ir);
        let dot = cg.to_dot(&ir);
        assert!(
            dot.contains("cluster_scc0") && dot.contains("main"),
            "{dot}"
        );
        let json = cg.to_json(&ir);
        assert!(
            json.contains("\"sccs\"") && json.contains("\"recursive\":true"),
            "{json}"
        );
        assert!(json.contains("\"condensation_edges\""));
    }
}
