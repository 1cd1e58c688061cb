//! Read-only queries over a finished analysis.
//!
//! Client analyses (diagnostics, metrics, IDE integrations) want to ask
//! "what does this reference resolve to at this point?" without mutating
//! the analysis state. A [`FactQuery`] resolves references with the
//! engine's own Table 1 rules ([`RefEnv`]) over the result's
//! `&LocationTable`, which finds locations but never interns them, so a
//! query can be shared freely and never perturbs the result. A location
//! that was never interned during the analysis can never appear in a
//! points-to pair, so dropping it from a query result loses nothing.

use crate::analysis::AnalysisResult;
use crate::location::{LocId, LocationTable};
use crate::lvalue::RefEnv;
use crate::points_to_set::{Def, PtSet};
use pta_cfront::ast::FuncId;
use pta_cfront::span::Span;
use pta_simple::{BasicStmt, CallSiteId, IrProgram, Operand, StmtId, VarPath, VarRef};
use std::collections::BTreeSet;

/// Read-only access to the points-to facts of one analysed program.
#[derive(Clone, Copy)]
pub struct FactQuery<'a> {
    /// The program in SIMPLE form.
    pub ir: &'a IrProgram,
    /// The analysis results being queried.
    pub result: &'a AnalysisResult,
}

impl<'a> FactQuery<'a> {
    /// Creates a query facade over `ir`'s analysis `result`.
    pub fn new(ir: &'a IrProgram, result: &'a AnalysisResult) -> Self {
        FactQuery { ir, result }
    }

    /// The merged points-to set flowing *into* a program point (empty if
    /// the point was never reached).
    pub fn at(&self, stmt: StmtId) -> PtSet {
        self.result.at(stmt)
    }

    /// True if the analysis visited this program point on some path.
    /// Distinguishes "reached with an empty set" from "never reached"
    /// ([`FactQuery::at`] returns an empty set for both).
    pub fn reached(&self, stmt: StmtId) -> bool {
        self.result.per_stmt.contains_key(&stmt)
    }

    /// The source span of a program point (dummy for built programs).
    pub fn span_of(&self, stmt: StmtId) -> Span {
        self.ir.span_of(stmt)
    }

    /// Table 1 resolution in `func`'s scope over the result's table,
    /// which it only reads.
    pub fn env(&self, func: FuncId) -> RefEnv<'a, &'a LocationTable> {
        RefEnv {
            ir: self.ir,
            func,
            locs: &self.result.locs,
        }
    }

    /// Resolves a dereference-free path in `func`'s scope (Table 1,
    /// left column). Empty if the path was never materialized.
    pub fn path_locs(&self, func: FuncId, path: &VarPath) -> Vec<(LocId, Def)> {
        self.env(func).path_locs(path)
    }

    /// The L-location set of a reference under `set` (Table 1, middle
    /// column): the locations a write through `r` could touch. NULL and
    /// function targets are skipped, as in the engine.
    pub fn l_locations(&self, func: FuncId, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        self.env(func).l_locations(set, r)
    }

    /// See [`RefEnv::deref_base_targets`].
    pub fn deref_base_targets(&self, func: FuncId, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        self.env(func).deref_base_targets(set, r)
    }

    /// The R-location set of a reference read as a pointer value
    /// (Table 1, right column): one more hop through `set` than the
    /// L-location set, with definiteness conjunction.
    pub fn r_locations(&self, func: FuncId, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        self.env(func).r_locations(set, r)
    }

    /// The R-location set of an operand in a pointer context.
    pub fn operand_r_locations(
        &self,
        func: FuncId,
        set: &PtSet,
        op: &Operand,
    ) -> Vec<(LocId, Def)> {
        self.env(func).operand_r_locations(set, op)
    }

    /// The functions on some invocation-graph path from the entry.
    ///
    /// When the result came from a fallback engine (empty invocation
    /// graph), approximates reachability over the direct call graph
    /// seeded with the entry and every address-taken function — a
    /// superset, so "unreachable" stays trustworthy.
    pub fn reachable_functions(&self) -> BTreeSet<FuncId> {
        if !self.result.ig.is_empty() {
            return self.result.ig.iter().map(|(_, n)| n.func).collect();
        }
        let mut work: Vec<FuncId> = Vec::new();
        if let Some(e) = self.ir.entry {
            work.push(e);
        }
        // Fallback engines can't resolve indirect calls, so every
        // address-taken function is a root. Scoping roots to reachable
        // takers would be more precise, but the imprecision only widens
        // the superset.
        for (_, f) in self.ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            body.for_each_basic(&mut |b, _| {
                for_each_function_operand(b, &mut |fid| work.push(fid));
            });
        }
        let mut seen = BTreeSet::new();
        while let Some(f) = work.pop() {
            if !seen.insert(f) {
                continue;
            }
            if let Some(body) = &self.ir.function(f).body {
                for (_, callee) in crate::invocation_graph::direct_callees(self.ir, body) {
                    work.push(callee);
                }
            }
        }
        seen
    }

    /// The callees the analysis actually invoked from a call site
    /// (several for a call through a function pointer). Empty for
    /// fallback results, whose invocation graph is empty.
    pub fn call_targets(&self, cs: CallSiteId) -> BTreeSet<FuncId> {
        let mut out = BTreeSet::new();
        for (_, n) in self.result.ig.iter() {
            for &(site, callee) in n.children.keys() {
                if site == cs {
                    out.insert(callee);
                }
            }
        }
        out
    }
}

fn for_each_function_operand(b: &BasicStmt, f: &mut impl FnMut(FuncId)) {
    let mut op = |o: &Operand| {
        if let Operand::Func(fid) = o {
            f(*fid);
        }
    };
    match b {
        BasicStmt::Copy { rhs, .. } | BasicStmt::Unary { rhs, .. } => op(rhs),
        BasicStmt::Binary { a, b, .. } => {
            op(a);
            op(b);
        }
        BasicStmt::PtrArith { .. } => {}
        BasicStmt::Alloc { size, .. } => op(size),
        BasicStmt::Call { args, .. } => args.iter().for_each(&mut op),
        BasicStmt::Return(Some(o)) => op(o),
        BasicStmt::Return(None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_simple::IdxClass;

    #[test]
    fn query_matches_engine_resolution() {
        let pta = crate::run_source("int x; int main(void) { int *p; p = &x; return *p; }")
            .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let (main, f) = pta.ir.function_by_name("main").unwrap();
        // Resolve `*p` at the return statement.
        let mut ret_stmt = None;
        f.body.as_ref().unwrap().for_each_basic(&mut |b, id| {
            if matches!(b, BasicStmt::Return(_)) {
                ret_stmt = Some((b.clone(), id));
            }
        });
        let (_, id) = ret_stmt.expect("return present");
        assert!(q.reached(id));
        let set = q.at(id);
        let p = f.vars.iter().position(|v| v.name == "p").unwrap();
        let r = VarRef::Deref {
            path: VarPath::var(pta_simple::IrVarId(p as u32)),
            shift: IdxClass::Zero,
            after: vec![],
        };
        let ls = q.l_locations(main, &set, &r);
        assert_eq!(ls.len(), 1);
        assert_eq!(q.result.locs.name(ls[0].0), "x");
        assert_eq!(ls[0].1, Def::D);
    }

    #[test]
    fn unresolved_paths_are_empty_not_interned() {
        let pta = crate::run_source("int main(void) { return 0; }").expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let before = q.result.locs.len();
        let (main, _) = pta.ir.function_by_name("main").unwrap();
        // A variable id that exists in no scope.
        let ghost = VarPath::var(pta_simple::IrVarId(99));
        assert!(q.path_locs(main, &ghost).is_empty());
        assert_eq!(q.result.locs.len(), before);
    }

    #[test]
    fn reachability_via_invocation_graph() {
        let pta = crate::run_source(
            "void used(void) {}
             void unused(void) {}
             int main(void) { used(); return 0; }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let reach = q.reachable_functions();
        let (used, _) = pta.ir.function_by_name("used").unwrap();
        let (unused, _) = pta.ir.function_by_name("unused").unwrap();
        let (main, _) = pta.ir.function_by_name("main").unwrap();
        assert!(reach.contains(&main));
        assert!(reach.contains(&used));
        assert!(!reach.contains(&unused));
    }

    #[test]
    fn fallback_reachability_keeps_address_taken() {
        let ir = pta_simple::compile(
            "void cb(void) {}
             void dead(void) {}
             int main(void) { void (*fp)(void); fp = cb; fp(); return 0; }",
        )
        .expect("compiles");
        let out = crate::analyze_resilient(
            &ir,
            crate::AnalysisConfig {
                max_steps: 1,
                ..Default::default()
            },
        )
        .expect("ladder lands");
        assert!(!out.fidelity.is_full());
        let q = FactQuery::new(&ir, &out.result);
        let reach = q.reachable_functions();
        let (cb, _) = ir.function_by_name("cb").unwrap();
        let (dead, _) = ir.function_by_name("dead").unwrap();
        assert!(reach.contains(&cb), "address-taken stays reachable");
        assert!(!reach.contains(&dead));
    }

    #[test]
    fn call_targets_resolves_indirect_sites() {
        let pta = crate::run_source(
            "int f(void) { return 1; }
             int main(void) { int (*fp)(void); fp = f; return fp(); }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let (fid, _) = pta.ir.function_by_name("f").unwrap();
        let indirect = pta
            .ir
            .call_sites
            .iter()
            .position(|c| c.indirect)
            .expect("indirect site");
        let targets = q.call_targets(CallSiteId(indirect as u32));
        assert!(targets.contains(&fid));
    }
}
