//! Read/write set computation (§6.1: the basis for ALPHA IR
//! construction and dependence testing).
//!
//! For every basic statement, the locations it may/must read and write,
//! resolved through the points-to information (so `*p = x` writes p's
//! targets, not `p`).
//!
//! Unlike the other clients, these functions take `&mut AnalysisResult`:
//! the sets name scalar storage (an `int` variable, a field read
//! through a pointer) that the engine never interns, because no
//! points-to pair mentions it, so resolution interns it into the
//! result's table. Giving such storage ids without touching the table
//! is the open question of a lint-side location domain (ROADMAP item 3,
//! `DomainLoc`).

use pta_cfront::ast::FuncId;
use pta_core::lvalue::RefEnv;
use pta_core::{AnalysisResult, Def, LocId, PtSet};
use pta_simple::{BasicStmt, CallTarget, IrProgram, Operand, StmtId, VarPath, VarRef};
use std::collections::{BTreeMap, BTreeSet};

/// Read and write sets of one statement (or one function).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RwSets {
    /// Locations possibly read.
    pub reads: BTreeSet<LocId>,
    /// Locations possibly written.
    pub writes: BTreeSet<LocId>,
    /// Locations definitely written (single definite L-location).
    pub must_writes: BTreeSet<LocId>,
}

impl RwSets {
    /// Union with another set.
    pub fn absorb(&mut self, other: &RwSets) {
        self.reads.extend(other.reads.iter().copied());
        self.writes.extend(other.writes.iter().copied());
        self.must_writes.extend(other.must_writes.iter().copied());
    }

    /// True if this statement may conflict (RW/WR/WW) with another.
    pub fn conflicts_with(&self, other: &RwSets) -> bool {
        let hit = |a: &BTreeSet<LocId>, b: &BTreeSet<LocId>| a.intersection(b).next().is_some();
        hit(&self.writes, &other.writes)
            || hit(&self.writes, &other.reads)
            || hit(&self.reads, &other.writes)
    }
}

/// Computes read/write sets for every basic statement of the program.
pub fn stmt_rw_sets(ir: &IrProgram, result: &mut AnalysisResult) -> BTreeMap<StmtId, RwSets> {
    let mut out = BTreeMap::new();
    for (fid, f) in ir.defined_functions() {
        let Some(body) = &f.body else { continue };
        body.for_each_basic(&mut |b, id| {
            let rw = basic_rw(ir, result, fid, b, id);
            out.insert(id, rw);
        });
    }
    out
}

/// Aggregates statement sets per function (direct effects only; callee
/// effects are visible through the per-statement sets of the callee).
pub fn function_rw_sets(ir: &IrProgram, result: &mut AnalysisResult) -> BTreeMap<String, RwSets> {
    let per_stmt = stmt_rw_sets(ir, result);
    let mut out: BTreeMap<String, RwSets> = BTreeMap::new();
    for (_, f) in ir.defined_functions() {
        let Some(body) = &f.body else { continue };
        let entry = out.entry(f.name.clone()).or_default();
        body.for_each_basic(&mut |_, id| {
            if let Some(rw) = per_stmt.get(&id) {
                entry.absorb(rw);
            }
        });
    }
    out
}

fn basic_rw(
    ir: &IrProgram,
    result: &mut AnalysisResult,
    func: FuncId,
    b: &BasicStmt,
    id: StmtId,
) -> RwSets {
    let mut c = Collector {
        set: result.at(id),
        env: RefEnv {
            ir,
            func,
            locs: &mut result.locs,
        },
        rw: RwSets::default(),
    };
    match b {
        BasicStmt::Copy { lhs, rhs } | BasicStmt::Unary { lhs, rhs, .. } => {
            c.read_op(rhs);
            c.write(lhs);
        }
        BasicStmt::Binary { lhs, a, b, .. } => {
            c.read_op(a);
            c.read_op(b);
            c.write(lhs);
        }
        BasicStmt::PtrArith { lhs, ptr, .. } => {
            c.read_ref(ptr);
            c.write(lhs);
        }
        BasicStmt::Alloc { lhs, size } => {
            c.read_op(size);
            c.write(lhs);
        }
        BasicStmt::Call {
            lhs, target, args, ..
        } => {
            if let CallTarget::Indirect(r) = target {
                c.read_ref(r);
            }
            for a in args {
                c.read_op(a);
            }
            if let Some(l) = lhs {
                c.write(l);
            }
        }
        BasicStmt::Return(v) => {
            if let Some(v) = v {
                c.read_op(v);
            }
        }
    }
    c.rw
}

/// The read/write sets of one statement under its points-to set.
struct Collector<'a> {
    set: PtSet,
    env: RefEnv<'a>,
    rw: RwSets,
}

impl Collector<'_> {
    fn write(&mut self, r: &VarRef) {
        let ls = self.env.l_locations(&self.set, r);
        if let [(l, Def::D)] = ls[..] {
            self.rw.must_writes.insert(l);
        }
        self.rw.writes.extend(ls.into_iter().map(|(l, _)| l));
    }

    /// Reading a reference reads its L-locations (the cells named),
    /// and reading through a pointer also reads the pointer itself.
    fn read_ref(&mut self, r: &VarRef) {
        if let VarRef::Deref { path, .. } = r {
            self.read_pointer(path);
        }
        let ls = self.env.l_locations(&self.set, r);
        self.rw.reads.extend(ls.into_iter().map(|(l, _)| l));
    }

    fn read_pointer(&mut self, path: &VarPath) {
        let pl = self.env.path_locs(path);
        self.rw.reads.extend(pl.into_iter().map(|(l, _)| l));
    }

    fn read_op(&mut self, op: &Operand) {
        match op {
            Operand::Ref(r) => self.read_ref(r),
            // &x reads nothing (it only forms an address), but a deref
            // inside still reads the pointer.
            Operand::AddrOf(VarRef::Deref { path, .. }) => self.read_pointer(path),
            _ => {}
        }
    }
}

/// Transitive interprocedural MOD/REF summaries: each function's sets
/// include the effects of everything it (transitively) calls, with
/// callee-scoped locations (locals, temporaries, symbolic names)
/// filtered out at the boundary — the caller-visible side effects.
pub fn modref_summaries(ir: &IrProgram, result: &mut AnalysisResult) -> BTreeMap<String, RwSets> {
    let direct = function_rw_sets(ir, result);
    let cg = crate::call_graph::call_graph(ir, result);
    // Iterate to a fixed point over the (possibly cyclic) call graph.
    let mut summaries: BTreeMap<String, RwSets> = direct
        .iter()
        .map(|(name, rw)| {
            let fid = ir.function_by_name(name).map(|(id, _)| id);
            (name.clone(), visible_part(result, fid, rw))
        })
        .collect();
    loop {
        let mut changed = false;
        let names: Vec<String> = summaries.keys().cloned().collect();
        for name in &names {
            let mut acc = summaries[name].clone();
            for callee in cg.callees(name) {
                if let Some(cs) = summaries.get(callee) {
                    let fid = ir.function_by_name(name).map(|(id, _)| id);
                    let filtered = visible_part(result, fid, cs);
                    acc.absorb(&filtered);
                }
            }
            // Transitive must-writes are not preserved across calls
            // (a callee's must-write may be conditional at this level);
            // keep only the direct ones.
            acc.must_writes = summaries[name].must_writes.clone();
            if acc != summaries[name] {
                summaries.insert(name.clone(), acc);
                changed = true;
            }
        }
        if !changed {
            return summaries;
        }
    }
}

/// Drops locations scoped to any function other than `keep` (locals and
/// symbolics of other scopes are meaningless outside them).
fn visible_part(
    result: &AnalysisResult,
    keep: Option<pta_cfront::ast::FuncId>,
    rw: &RwSets,
) -> RwSets {
    let visible = |l: &LocId| match result.locs.get(*l).base {
        pta_core::LocBase::Var(f, _)
        | pta_core::LocBase::Symbolic(f, _)
        | pta_core::LocBase::Ret(f) => Some(f) == keep,
        _ => true,
    };
    RwSets {
        reads: rw.reads.iter().copied().filter(visible).collect(),
        writes: rw.writes.iter().copied().filter(visible).collect(),
        must_writes: rw.must_writes.iter().copied().filter(visible).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (pta_core::Pta, BTreeMap<StmtId, RwSets>) {
        let mut t = pta_core::run_source(src).expect("analysis ok");
        let ir = t.ir.clone();
        let sets = stmt_rw_sets(&ir, &mut t.result);
        (t, sets)
    }

    fn names(t: &pta_core::Pta, s: &BTreeSet<LocId>) -> Vec<String> {
        s.iter()
            .map(|l| t.result.locs.name(*l).to_owned())
            .collect()
    }

    #[test]
    fn indirect_write_targets_pointee() {
        let (t, sets) = run("int x; int main(void){ int *p; p = &x; *p = 3; return 0; }");
        let store = t.find_stmt("main", "*p = 3", 0).unwrap();
        let rw = &sets[&store];
        assert_eq!(names(&t, &rw.writes), vec!["x"]);
        assert_eq!(names(&t, &rw.must_writes), vec!["x"]);
        // The pointer itself is not written by *p = 3.
        assert!(!names(&t, &rw.writes).contains(&"p".to_string()));
    }

    #[test]
    fn indirect_read_reads_pointer_and_target() {
        let (t, sets) = run("int x; int main(void){ int *p; int v; p = &x; v = *p; return v; }");
        let load = t.find_stmt("main", "v = *p", 0).unwrap();
        let rw = &sets[&load];
        let reads = names(&t, &rw.reads);
        assert!(reads.contains(&"p".to_string()), "{reads:?}");
        assert!(reads.contains(&"x".to_string()), "{reads:?}");
        assert_eq!(names(&t, &rw.writes), vec!["v"]);
    }

    #[test]
    fn possible_targets_are_may_writes_only() {
        let (t, sets) = run("int x, y, c;
             int main(void){ int *p; if (c) p = &x; else p = &y; *p = 1; return 0; }");
        let store = t.find_stmt("main", "*p = 1", 0).unwrap();
        let rw = &sets[&store];
        let w = names(&t, &rw.writes);
        assert!(
            w.contains(&"x".to_string()) && w.contains(&"y".to_string()),
            "{w:?}"
        );
        assert!(rw.must_writes.is_empty());
    }

    #[test]
    fn conflict_detection() {
        let (t, sets) =
            run("int x; int main(void){ int *p; int v; p = &x; *p = 1; v = x; return v; }");
        let store = t.find_stmt("main", "*p = 1", 0).unwrap();
        let load = t.find_stmt("main", "v = x", 0).unwrap();
        assert!(sets[&store].conflicts_with(&sets[&load]));
    }

    #[test]
    fn function_aggregation() {
        let src = "int g; void w(void){ g = 1; } int main(void){ w(); return 0; }";
        let mut t = pta_core::run_source(src).unwrap();
        let ir = t.ir.clone();
        let per_fn = function_rw_sets(&ir, &mut t.result);
        let w = &per_fn["w"];
        assert!(names_set(&t, &w.writes).contains(&"g".to_string()));
    }

    fn names_set(t: &pta_core::Pta, s: &BTreeSet<LocId>) -> Vec<String> {
        s.iter()
            .map(|l| t.result.locs.name(*l).to_owned())
            .collect()
    }

    #[test]
    fn modref_is_transitive() {
        let src = "int g; int h;
             void leaf(void){ g = 1; }
             void mid(void){ h = 2; leaf(); }
             int main(void){ mid(); return g + h; }";
        let mut t = pta_core::run_source(src).unwrap();
        let ir = t.ir.clone();
        let sums = modref_summaries(&ir, &mut t.result);
        let mid_w = names_set(&t, &sums["mid"].writes);
        assert!(
            mid_w.contains(&"g".to_string()),
            "mid writes g transitively: {mid_w:?}"
        );
        assert!(mid_w.contains(&"h".to_string()), "{mid_w:?}");
        let main_w = names_set(&t, &sums["main"].writes);
        assert!(main_w.contains(&"g".to_string()) && main_w.contains(&"h".to_string()));
    }

    #[test]
    fn modref_filters_callee_locals() {
        let src = "int g;
             void leaf(void){ int local; local = 1; g = local; }
             int main(void){ leaf(); return g; }";
        let mut t = pta_core::run_source(src).unwrap();
        let ir = t.ir.clone();
        let sums = modref_summaries(&ir, &mut t.result);
        let main_w = names_set(&t, &sums["main"].writes);
        assert!(main_w.contains(&"g".to_string()), "{main_w:?}");
        assert!(
            !main_w.contains(&"local".to_string()),
            "callee local leaked: {main_w:?}"
        );
    }

    #[test]
    fn modref_converges_on_recursion() {
        let src = "int g;
             void f(int n){ g = n; if (n) f(n - 1); }
             int main(void){ f(3); return g; }";
        let mut t = pta_core::run_source(src).unwrap();
        let ir = t.ir.clone();
        let sums = modref_summaries(&ir, &mut t.result);
        assert!(names_set(&t, &sums["main"].writes).contains(&"g".to_string()));
    }
}
