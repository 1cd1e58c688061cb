//! The measurements behind the paper's evaluation (§6): Tables 2–6.
//!
//! All counters follow the paper's definitions:
//! - statistics are computed over the *simplified* program;
//! - pairs whose target is `null` are excluded ("points-to relationships
//!   contributed by \[NULL initialization\] are not counted");
//! - indirect references are split into the scalar style (`*x`,
//!   `(*x).y.z`) and the array style (`x[i][j]` with `x` a pointer to an
//!   array) — the two sub-columns of Table 3.

use crate::analysis::AnalysisResult;
use crate::location::{LocBase, LocId};
use crate::points_to_set::{Def, PtSet};
use crate::query::FactQuery;
use pta_cfront::ast::FuncId;
use pta_simple::{BasicStmt, CallTarget, CondExpr, IrProgram, Operand, Stmt, StmtId, VarRef};

/// Table 2: benchmark characteristics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Source lines (including comments).
    pub lines: usize,
    /// Basic statements in SIMPLE form.
    pub simple_stmts: usize,
    /// Minimum abstract-stack size over defined functions.
    pub min_vars: usize,
    /// Maximum abstract-stack size over defined functions.
    pub max_vars: usize,
}

/// Table 3: points-to characteristics of indirect references. Each
/// `(scalar, array)` pair mirrors the two sub-columns of the paper.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// Dereferenced pointer definitely points to a single location.
    pub one_d: (usize, usize),
    /// Possibly points to a single location (the other being NULL).
    pub one_p: (usize, usize),
    /// Two possible target locations.
    pub two_p: (usize, usize),
    /// Three possible target locations.
    pub three_p: (usize, usize),
    /// Four or more possible target locations.
    pub four_p: (usize, usize),
    /// Indirect references whose pointer has no non-NULL target (dead
    /// or always-NULL dereference; not a paper column, kept for
    /// accounting).
    pub zero: usize,
    /// Total indirect references.
    pub ind_refs: usize,
    /// Indirect references replaceable by a direct reference.
    pub scalar_rep: usize,
    /// Points-to pairs used, target on the stack.
    pub to_stack: usize,
    /// Points-to pairs used, target in the heap.
    pub to_heap: usize,
}

impl Table3Row {
    /// Total pairs used by indirect references.
    pub fn tot(&self) -> usize {
        self.to_stack + self.to_heap
    }

    /// Average pairs per indirect reference (the paper's `Avg`).
    pub fn avg(&self) -> f64 {
        if self.ind_refs == 0 {
            0.0
        } else {
            self.tot() as f64 / self.ind_refs as f64
        }
    }
}

/// Table 4: categorization of the `to_stack` pairs of Table 3 by the
/// kind of their source and target locations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table4Row {
    /// Benchmark name.
    pub name: String,
    /// Sources: locals (incl. temporaries), globals, formal parameters,
    /// symbolic names.
    pub from: KindCounts,
    /// Targets, same classification.
    pub to: KindCounts,
}

/// Location-kind counters (lo/gl/fp/sy of Table 4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Local variables and temporaries.
    pub lo: usize,
    /// Globals (including string-literal storage).
    pub gl: usize,
    /// Formal parameters.
    pub fp: usize,
    /// Symbolic names.
    pub sy: usize,
}

/// Table 5: general points-to statistics, summed over all program
/// points.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table5Row {
    /// Benchmark name.
    pub name: String,
    /// Pairs with stack source and stack target.
    pub stack_to_stack: usize,
    /// Pairs with stack source and heap target.
    pub stack_to_heap: usize,
    /// Pairs with heap source and heap target.
    pub heap_to_heap: usize,
    /// Pairs with heap source and stack target (the paper reports 0
    /// everywhere — the basis for decoupling heap analysis).
    pub heap_to_stack: usize,
    /// Number of program points with recorded information.
    pub points: usize,
    /// Maximum pairs at a single point.
    pub max_per_stmt: usize,
}

impl Table5Row {
    /// Total pairs summed over statements.
    pub fn total(&self) -> usize {
        self.stack_to_stack + self.stack_to_heap + self.heap_to_heap + self.heap_to_stack
    }

    /// Average pairs per statement.
    pub fn avg(&self) -> f64 {
        if self.points == 0 {
            0.0
        } else {
            self.total() as f64 / self.points as f64
        }
    }
}

/// Table 6: invocation-graph statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table6Row {
    /// Benchmark name.
    pub name: String,
    /// Invocation-graph nodes.
    pub ig_nodes: usize,
    /// Call sites in the program.
    pub call_sites: usize,
    /// Distinct functions actually invoked.
    pub functions: usize,
    /// Recursive nodes.
    pub recursive: usize,
    /// Approximate nodes.
    pub approximate: usize,
}

impl Table6Row {
    /// Average non-root nodes per call site (`Avgc`).
    pub fn avg_per_call_site(&self) -> f64 {
        if self.call_sites == 0 {
            0.0
        } else {
            (self.ig_nodes.saturating_sub(1)) as f64 / self.call_sites as f64
        }
    }

    /// Average nodes per invoked function (`Avgf`).
    pub fn avg_per_function(&self) -> f64 {
        if self.functions == 0 {
            0.0
        } else {
            self.ig_nodes as f64 / self.functions as f64
        }
    }
}

/// All tables for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkStats {
    /// Table 2 row.
    pub t2: Table2Row,
    /// Table 3 row.
    pub t3: Table3Row,
    /// Table 4 row.
    pub t4: Table4Row,
    /// Table 5 row.
    pub t5: Table5Row,
    /// Table 6 row.
    pub t6: Table6Row,
}

/// Computes every table for one analysed benchmark. `source` is used
/// only for the line count of Table 2.
pub fn compute(
    name: &str,
    source: &str,
    ir: &IrProgram,
    result: &AnalysisResult,
) -> BenchmarkStats {
    BenchmarkStats {
        t2: table2(name, source, ir, result),
        t3: table3(name, ir, result),
        t4: table4(name, ir, result),
        t5: table5(name, ir, result),
        t6: table6(name, ir, result),
    }
}

/// Table 2: program characteristics.
pub fn table2(name: &str, source: &str, ir: &IrProgram, result: &AnalysisResult) -> Table2Row {
    let lines = source.lines().count();
    let simple_stmts = ir.total_basic_stmts();
    // Abstract-stack size per function: globals visible everywhere +
    // the function's own variables + symbolic names owned by it,
    // counting pointer-relevant leaf locations.
    let global_locs = result
        .locs
        .ids()
        .filter(|l| {
            matches!(
                result.locs.get(*l).base,
                LocBase::Global(_) | LocBase::StrLit
            )
        })
        .count()
        + 1; // heap
    let mut min_vars = usize::MAX;
    let mut max_vars = 0usize;
    for (fid, _) in ir.defined_functions() {
        let own = result
            .locs
            .ids()
            .filter(|l| match result.locs.get(*l).base {
                LocBase::Var(g, _) | LocBase::Symbolic(g, _) => g == fid,
                _ => false,
            })
            .count();
        let n = own + global_locs;
        min_vars = min_vars.min(n);
        max_vars = max_vars.max(n);
    }
    if min_vars == usize::MAX {
        min_vars = 0;
    }
    Table2Row {
        name: name.to_owned(),
        lines,
        simple_stmts,
        min_vars,
        max_vars,
    }
}

/// One indirect-reference occurrence: the program point and the
/// reference itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndirectRef {
    /// Containing function.
    pub func: FuncId,
    /// Program point the reference executes at.
    pub stmt: StmtId,
    /// The reference.
    pub r: VarRef,
}

/// Collects every indirect-reference occurrence in the program (from
/// basic statements, call targets, and condition operands).
pub fn collect_indirect_refs(ir: &IrProgram) -> Vec<IndirectRef> {
    let mut out = Vec::new();
    for (fid, f) in ir.defined_functions() {
        let Some(body) = &f.body else { continue };
        collect_stmt(fid, body, &mut out);
    }
    out
}

fn push_ref(func: FuncId, stmt: StmtId, r: &VarRef, out: &mut Vec<IndirectRef>) {
    if r.is_indirect() {
        out.push(IndirectRef {
            func,
            stmt,
            r: r.clone(),
        });
    }
}

fn push_op(func: FuncId, stmt: StmtId, op: &Operand, out: &mut Vec<IndirectRef>) {
    match op {
        Operand::Ref(r) | Operand::AddrOf(r) => push_ref(func, stmt, r, out),
        _ => {}
    }
}

fn collect_basic(func: FuncId, b: &BasicStmt, id: StmtId, out: &mut Vec<IndirectRef>) {
    match b {
        BasicStmt::Copy { lhs, rhs } => {
            push_ref(func, id, lhs, out);
            push_op(func, id, rhs, out);
        }
        BasicStmt::Unary { lhs, rhs, .. } => {
            push_ref(func, id, lhs, out);
            push_op(func, id, rhs, out);
        }
        BasicStmt::Binary { lhs, a, b, .. } => {
            push_ref(func, id, lhs, out);
            push_op(func, id, a, out);
            push_op(func, id, b, out);
        }
        BasicStmt::PtrArith { lhs, ptr, .. } => {
            push_ref(func, id, lhs, out);
            push_ref(func, id, ptr, out);
        }
        BasicStmt::Alloc { lhs, size } => {
            push_ref(func, id, lhs, out);
            push_op(func, id, size, out);
        }
        BasicStmt::Call {
            lhs, target, args, ..
        } => {
            if let Some(l) = lhs {
                push_ref(func, id, l, out);
            }
            if let CallTarget::Indirect(r) = target {
                push_ref(func, id, r, out);
            }
            for a in args {
                push_op(func, id, a, out);
            }
        }
        BasicStmt::Return(v) => {
            if let Some(v) = v {
                push_op(func, id, v, out);
            }
        }
    }
}

fn collect_cond(func: FuncId, c: &CondExpr, id: StmtId, out: &mut Vec<IndirectRef>) {
    for op in c.operands() {
        push_op(func, id, op, out);
    }
}

fn collect_stmt(func: FuncId, s: &Stmt, out: &mut Vec<IndirectRef>) {
    match s {
        Stmt::Basic(b, id) => collect_basic(func, b, *id, out),
        Stmt::Seq(v) => v.iter().for_each(|s| collect_stmt(func, s, out)),
        Stmt::If {
            cond,
            then_s,
            else_s,
            id,
        } => {
            collect_cond(func, cond, *id, out);
            collect_stmt(func, then_s, out);
            if let Some(e) = else_s {
                collect_stmt(func, e, out);
            }
        }
        Stmt::While {
            pre_cond,
            cond,
            body,
            id,
        } => {
            collect_stmt(func, pre_cond, out);
            collect_cond(func, cond, *id, out);
            collect_stmt(func, body, out);
        }
        Stmt::DoWhile {
            body,
            pre_cond,
            cond,
            id,
        } => {
            collect_stmt(func, body, out);
            collect_stmt(func, pre_cond, out);
            collect_cond(func, cond, *id, out);
        }
        Stmt::For {
            init,
            pre_cond,
            cond,
            step,
            body,
            id,
        } => {
            collect_stmt(func, init, out);
            collect_stmt(func, pre_cond, out);
            collect_cond(func, cond, *id, out);
            collect_stmt(func, step, out);
            collect_stmt(func, body, out);
        }
        Stmt::Switch {
            scrutinee,
            arms,
            id,
            ..
        } => {
            push_op(func, *id, scrutinee, out);
            for a in arms {
                collect_stmt(func, &a.body, out);
            }
        }
        Stmt::Break(_) | Stmt::Continue(_) => {}
    }
}

/// The points-to pairs a single indirect reference *uses*: the non-NULL
/// targets of its dereferenced pointer at its program point.
fn pairs_used(q: &FactQuery<'_>, occ: &IndirectRef, set: &PtSet) -> Vec<(LocId, LocId, Def)> {
    let VarRef::Deref { path, .. } = &occ.r else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (pl, _) in q.path_locs(occ.func, path) {
        for (t, d) in set.targets(pl) {
            if q.result.locs.is_null(t) {
                continue;
            }
            if !out.iter().any(|(a, b, _)| *a == pl && *b == t) {
                out.push((pl, t, d));
            }
        }
    }
    out
}

/// Table 3.
pub fn table3(name: &str, ir: &IrProgram, result: &AnalysisResult) -> Table3Row {
    let q = FactQuery::new(ir, result);
    let mut row = Table3Row {
        name: name.to_owned(),
        ..Default::default()
    };
    for occ in collect_indirect_refs(ir) {
        let set = result.at(occ.stmt);
        let pairs = pairs_used(&q, &occ, &set);
        row.ind_refs += 1;
        let array = occ.r.is_array_style();
        let bump = |slot: &mut (usize, usize)| {
            if array {
                slot.1 += 1;
            } else {
                slot.0 += 1;
            }
        };
        match pairs.len() {
            0 => row.zero += 1,
            1 => {
                if pairs[0].2 == Def::D {
                    bump(&mut row.one_d);
                    // Scalar replacement: definite single target that is
                    // nameable at the reference (not symbolic/summary).
                    let t = pairs[0].1;
                    if !result.locs.is_symbolic(t)
                        && !result.locs.is_heap(t)
                        && !result.locs.is_summary(t)
                        && !array
                    {
                        row.scalar_rep += 1;
                    }
                } else {
                    bump(&mut row.one_p);
                }
            }
            2 => bump(&mut row.two_p),
            3 => bump(&mut row.three_p),
            _ => bump(&mut row.four_p),
        }
        for (_, t, _) in &pairs {
            if result.locs.is_heap(*t) {
                row.to_heap += 1;
            } else {
                row.to_stack += 1;
            }
        }
    }
    row
}

fn loc_kind(
    result: &AnalysisResult,
    ir: &IrProgram,
    l: LocId,
) -> Option<fn(&mut KindCounts) -> &mut usize> {
    match result.locs.get(l).base {
        LocBase::Var(f, v) => {
            if (v.0 as usize) < ir.function(f).n_params {
                Some(|k| &mut k.fp)
            } else {
                Some(|k| &mut k.lo)
            }
        }
        LocBase::Global(_) | LocBase::StrLit => Some(|k| &mut k.gl),
        LocBase::Symbolic(..) => Some(|k| &mut k.sy),
        _ => None,
    }
}

/// Table 4.
pub fn table4(name: &str, ir: &IrProgram, result: &AnalysisResult) -> Table4Row {
    let q = FactQuery::new(ir, result);
    let mut row = Table4Row {
        name: name.to_owned(),
        ..Default::default()
    };
    for occ in collect_indirect_refs(ir) {
        let set = result.at(occ.stmt);
        let pairs = pairs_used(&q, &occ, &set);
        for (src, tgt, _) in pairs {
            if result.locs.is_heap(tgt) {
                continue; // Table 4 categorizes the To-Stack pairs
            }
            if let Some(sel) = loc_kind(result, ir, src) {
                *sel(&mut row.from) += 1;
            }
            if let Some(sel) = loc_kind(result, ir, tgt) {
                *sel(&mut row.to) += 1;
            }
        }
    }
    row
}

/// Table 5.
pub fn table5(name: &str, _ir: &IrProgram, result: &AnalysisResult) -> Table5Row {
    let mut row = Table5Row {
        name: name.to_owned(),
        ..Default::default()
    };
    for set in result.per_stmt.values() {
        row.points += 1;
        let mut here = 0usize;
        for (s, t, _) in set.iter() {
            if result.locs.is_null(t) {
                continue;
            }
            here += 1;
            match (result.locs.is_heap(s), result.locs.is_heap(t)) {
                (false, false) => row.stack_to_stack += 1,
                (false, true) => row.stack_to_heap += 1,
                (true, true) => row.heap_to_heap += 1,
                (true, false) => row.heap_to_stack += 1,
            }
        }
        row.max_per_stmt = row.max_per_stmt.max(here);
    }
    row
}

/// Table 6.
pub fn table6(name: &str, ir: &IrProgram, result: &AnalysisResult) -> Table6Row {
    let s = result.ig.stats();
    let mut called: Vec<FuncId> = result
        .ig
        .iter()
        .filter(|(_, n)| n.parent.is_some())
        .map(|(_, n)| n.func)
        .collect();
    called.sort_unstable();
    called.dedup();
    Table6Row {
        name: name.to_owned(),
        ig_nodes: s.nodes,
        call_sites: ir.call_sites.len(),
        functions: called.len(),
        recursive: s.recursive,
        approximate: s.approximate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analysed(src: &str) -> (IrProgram, AnalysisResult) {
        let ir = pta_simple::compile(src).expect("compile ok");
        let r = crate::analyze(&ir).expect("analysis ok");
        (ir, r)
    }

    #[test]
    fn table2_counts_lines_and_stmts() {
        let src = "int x;\nint main(void){ int *p; p = &x; return *p; }\n";
        let (ir, r) = analysed(src);
        let t2 = table2("t", src, &ir, &r);
        assert_eq!(t2.lines, 2);
        assert!(t2.simple_stmts >= 2);
        assert!(t2.max_vars >= t2.min_vars);
        assert!(t2.min_vars > 0);
    }

    #[test]
    fn table3_classifies_definite_single_target() {
        let (ir, r) = analysed("int x; int main(void){ int *p; p = &x; return *p; }");
        let t3 = table3("t", &ir, &r);
        assert_eq!(t3.ind_refs, 1);
        assert_eq!(t3.one_d, (1, 0));
        assert_eq!(t3.scalar_rep, 1);
        assert_eq!(t3.to_stack, 1);
        assert_eq!(t3.to_heap, 0);
        assert!((t3.avg() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table3_classifies_two_possible_targets() {
        let (ir, r) = analysed(
            "int x, y, c; int main(void){ int *p; if (c) p = &x; else p = &y; return *p; }",
        );
        let t3 = table3("t", &ir, &r);
        assert_eq!(t3.two_p, (1, 0));
        assert_eq!(t3.scalar_rep, 0);
        assert_eq!(t3.tot(), 2);
    }

    #[test]
    fn table3_counts_heap_targets() {
        let (ir, r) = analysed("int main(void){ int *p; p = (int*) malloc(4); return *p; }");
        let t3 = table3("t", &ir, &r);
        assert_eq!(t3.to_heap, 1);
        assert_eq!(t3.one_p, (1, 0)); // single possible target (heap)
    }

    #[test]
    fn table3_null_single_target_is_possible() {
        let (ir, r) = analysed("int x, c; int main(void){ int *p; if (c) p = &x; return *p; }");
        let t3 = table3("t", &ir, &r);
        // p → {x possibly, null possibly} — counted as "1 P".
        assert_eq!(t3.one_p, (1, 0));
    }

    #[test]
    fn table4_classifies_sources_and_targets() {
        let (ir, r) = analysed(
            "int g;
             int f(int *p) { return *p; }
             int main(void){ return f(&g); }",
        );
        let t4 = table4("t", &ir, &r);
        // The deref of the formal p uses pair (p → g): from fp, to gl.
        assert_eq!(t4.from.fp, 1);
        assert_eq!(t4.to.gl, 1);
    }

    #[test]
    fn table4_symbolic_targets() {
        let (ir, r) = analysed(
            "void f(int **pp) { int *t; t = *pp; }
             int main(void){ int x; int *q; q = &x; f(&q); return 0; }",
        );
        let t4 = table4("t", &ir, &r);
        assert!(t4.to.sy >= 1, "expected symbolic targets, got {t4:?}");
    }

    #[test]
    fn table5_sums_pairs_over_points() {
        let (ir, r) = analysed("int x; int main(void){ int *p; p = &x; return *p; }");
        let t5 = table5("t", &ir, &r);
        assert!(t5.points >= 2);
        assert!(t5.stack_to_stack >= 1);
        assert_eq!(t5.heap_to_stack, 0);
        assert!(t5.max_per_stmt >= 1);
    }

    #[test]
    fn table6_matches_ig() {
        let (ir, r) = analysed(
            "int f(void){ return 1; }
             int g(void){ return f(); }
             int main(void){ g(); g(); return 0; }",
        );
        let t6 = table6("t", &ir, &r);
        assert_eq!(t6.ig_nodes, 5);
        // Call sites: g() twice in main, f() once in g.
        assert_eq!(t6.call_sites, 3);
        assert_eq!(t6.functions, 2);
        assert!((t6.avg_per_call_site() - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn compute_produces_all_tables() {
        let src = "int x; int main(void){ int *p; p = &x; return *p; }";
        let (ir, r) = analysed(src);
        let all = compute("tiny", src, &ir, &r);
        assert_eq!(all.t2.name, "tiny");
        assert_eq!(all.t3.ind_refs, 1);
        assert_eq!(all.t6.ig_nodes, 1);
    }
}
