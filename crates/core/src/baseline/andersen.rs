//! Andersen-style flow-insensitive, inclusion-based points-to analysis.
//!
//! One global points-to set; every assignment only *generates* subset
//! constraints (no kills, everything possible); iterate to a fixed
//! point. Context- and flow-insensitive, field-sensitive through the
//! same location abstraction as the main analysis.

use crate::analysis::AnalysisError;
use crate::baseline::insensitive::ptr_leaves;
use crate::location::{LocId, LocationTable};
use crate::lvalue::RefEnv;
use crate::points_to_set::{Def, PtSet};
use pta_cfront::ast::FuncId;
use pta_cfront::builtins::{extern_effect, ExternEffect};
use pta_simple::{BasicStmt, CallTarget, IrProgram, Operand};

/// Result of the Andersen-style baseline.
#[derive(Debug)]
pub struct AndersenResult {
    /// Locations created.
    pub locs: LocationTable,
    /// The single, global points-to solution (all pairs possible).
    pub solution: PtSet,
    /// Fixed-point rounds over the whole program.
    pub rounds: usize,
}

impl AndersenResult {
    /// Target names of a location, NULL excluded, sorted.
    pub fn target_names(&self, src: LocId) -> Vec<String> {
        let mut v: Vec<String> = self
            .solution
            .targets(src)
            .filter(|(t, _)| !self.locs.is_null(*t))
            .map(|(t, _)| self.locs.name(t).to_owned())
            .collect();
        v.sort();
        v
    }
}

/// Runs the Andersen-style baseline.
///
/// # Errors
///
/// Returns [`AnalysisError::StepBudget`] if the fixed point does not
/// settle within a generous bound.
pub fn andersen(ir: &IrProgram) -> Result<AndersenResult, AnalysisError> {
    andersen_budgeted(ir, None)
}

/// [`andersen`] with an optional wall-clock deadline, checked once per
/// fixed-point round. Used by the degradation ladder so a fallback rung
/// cannot itself hang.
///
/// # Errors
///
/// As [`andersen`], plus [`AnalysisError::Deadline`] on expiry.
pub fn andersen_budgeted(
    ir: &IrProgram,
    deadline: Option<std::time::Duration>,
) -> Result<AndersenResult, AnalysisError> {
    let budget = crate::budget::Budget::new(u64::MAX, deadline, usize::MAX, u32::MAX);
    let mut locs = LocationTable::new();
    locs.null();
    locs.heap();
    locs.strlit();
    let mut solution = PtSet::new();
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > 10_000 {
            // Internal fixed-point guard, not a configured budget.
            return Err(AnalysisError::StepBudget {
                limit: 10_000,
                at: crate::baseline::baseline_trip("andersen", ir, None),
            });
        }
        if budget.check_deadline().is_err() {
            return Err(AnalysisError::Deadline {
                limit: deadline.unwrap_or_default(),
                at: crate::baseline::baseline_trip("andersen", ir, None),
            });
        }
        let before = solution.clone();
        for (fid, f) in ir.functions.iter().enumerate() {
            let func = FuncId(fid as u32);
            let Some(body) = &f.body else { continue };
            let mut env = RefEnv {
                ir,
                func,
                locs: &mut locs,
            };
            body.for_each_basic(&mut |b, _| apply_stmt(&mut env, &mut solution, b));
        }
        if solution == before {
            break;
        }
    }
    Ok(AndersenResult {
        locs,
        solution,
        rounds,
    })
}

fn apply_stmt(env: &mut RefEnv<'_>, sol: &mut PtSet, b: &BasicStmt) {
    let (ir, func) = (env.ir, env.func);
    match b {
        BasicStmt::Copy { lhs, rhs } => {
            let (l, r) = (env.l_locations(sol, lhs), env.operand_r_locations(sol, rhs));
            gen_only(sol, &l, &r);
        }
        BasicStmt::PtrArith { lhs, ptr, shift } => {
            let l = env.l_locations(sol, lhs);
            let mut r = Vec::new();
            for (t, _) in env.r_locations(sol, ptr) {
                for (t2, _) in env.shift_loc(t, *shift) {
                    r.push((t2, Def::P));
                }
            }
            gen_only(sol, &l, &r);
        }
        BasicStmt::Alloc { lhs, .. } => {
            let (l, heap) = (env.l_locations(sol, lhs), env.locs.heap());
            gen_only(sol, &l, &[(heap, Def::P)]);
        }
        BasicStmt::Call {
            lhs, target, args, ..
        } => {
            let callees: Vec<FuncId> = match target {
                CallTarget::Direct(f) => vec![*f],
                CallTarget::Indirect(r) => env
                    .r_locations(sol, r)
                    .into_iter()
                    .filter_map(|(t, _)| env.locs.as_function(t))
                    .collect(),
            };
            for callee in callees {
                apply_call(env, sol, callee, lhs.as_ref(), args);
            }
        }
        BasicStmt::Return(Some(v)) if ir.function(func).ret.carries_pointers(&ir.structs) => {
            let ret = env.locs.ret(ir, func);
            let r = env.operand_r_locations(sol, v);
            gen_only(sol, &[(ret, Def::P)], &r);
        }
        _ => {}
    }
}

fn apply_call(
    env: &mut RefEnv<'_>,
    sol: &mut PtSet,
    callee: FuncId,
    lhs: Option<&pta_simple::VarRef>,
    args: &[Operand],
) {
    let ir = env.ir;
    if !ir.function(callee).is_defined() {
        let name = &ir.function(callee).name;
        match extern_effect(name) {
            Some(ExternEffect::ReturnsHeap) => {
                if let Some(lhs) = lhs {
                    let (l, heap) = (env.l_locations(sol, lhs), env.locs.heap());
                    gen_only(sol, &l, &[(heap, Def::P)]);
                }
            }
            Some(ExternEffect::ReturnsFirstArg) => {
                if let (Some(lhs), Some(arg0)) = (lhs, args.first()) {
                    let l = env.l_locations(sol, lhs);
                    let r = env.operand_r_locations(sol, arg0);
                    gen_only(sol, &l, &r);
                }
            }
            _ => {}
        }
        return;
    }
    // Formal ⊇ actual.
    let n = ir.function(callee).n_params;
    for (i, arg) in args.iter().enumerate().take(n) {
        let formal = env.locs.var(ir, callee, pta_simple::IrVarId(i as u32));
        for leaf in ptr_leaves(env.locs, ir, formal) {
            let r = env.operand_r_locations(sol, arg);
            gen_only(sol, &[(leaf, Def::P)], &r);
        }
    }
    // lhs ⊇ return slot.
    if let Some(lhs) = lhs {
        if ir.function(callee).ret.carries_pointers(&ir.structs) {
            let ret = env.locs.ret(ir, callee);
            let r: Vec<(LocId, Def)> = sol.targets(ret).map(|(t, _)| (t, Def::P)).collect();
            let l = env.l_locations(sol, lhs);
            gen_only(sol, &l, &r);
        }
    }
}

fn gen_only(sol: &mut PtSet, l: &[(LocId, Def)], r: &[(LocId, Def)]) {
    for (p, _) in l {
        for (x, _) in r {
            sol.insert(*p, *x, Def::P);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (IrProgram, AndersenResult) {
        let ir = pta_simple::compile(src).expect("compile ok");
        let r = andersen(&ir).expect("andersen ok");
        (ir, r)
    }

    fn targets(ir: &IrProgram, r: &AndersenResult, func: &str, var: &str) -> Vec<String> {
        let (fid, f) = ir.function_by_name(func).unwrap();
        let vi = f.vars.iter().position(|v| v.name == var);
        let src = match vi {
            Some(vi) => r.locs.lookup(
                &crate::location::LocBase::Var(fid, pta_simple::IrVarId(vi as u32)),
                &[],
            ),
            None => {
                let gi = ir.globals.iter().position(|g| g.name == var).unwrap();
                r.locs.lookup(
                    &crate::location::LocBase::Global(pta_cfront::ast::GlobalId(gi as u32)),
                    &[],
                )
            }
        };
        match src {
            Some(s) => r.target_names(s),
            None => vec![],
        }
    }

    #[test]
    fn no_kills_accumulate_all_targets() {
        let (ir, r) = run("int x, y; int main(void){ int *p; p = &x; p = &y; return 0; }");
        assert_eq!(targets(&ir, &r, "main", "p"), vec!["x", "y"]);
    }

    #[test]
    fn flows_through_copies_and_derefs() {
        let (ir, r) = run("int x;
             int main(void){ int *p; int **pp; int *q; p = &x; pp = &p; q = *pp; return 0; }");
        assert_eq!(targets(&ir, &r, "main", "q"), vec!["x"]);
    }

    #[test]
    fn interprocedural_flow_insensitive() {
        let (ir, r) = run("int x, y;
             void set(int **p, int *v) { *p = v; }
             int main(void){ int *a; int *b; set(&a, &x); set(&b, &y); return 0; }");
        // Andersen pollutes across call sites.
        assert_eq!(targets(&ir, &r, "main", "a"), vec!["x", "y"]);
        assert_eq!(targets(&ir, &r, "main", "b"), vec!["x", "y"]);
    }

    #[test]
    fn function_pointers_resolved_iteratively() {
        let (ir, r) = run("int x; int *g;
             void s(void){ g = &x; }
             int main(void){ void (*fp)(void); fp = s; fp(); return 0; }");
        assert_eq!(targets(&ir, &r, "main", "g"), vec!["x"]);
    }
}
