//! Context-insensitive, flow-sensitive points-to analysis.
//!
//! Uses the same basic rules as the main analysis (Table 1 / Figure 1)
//! but summarizes each function once: its input is the merge of the
//! states at *all* its call sites, and every call site receives the same
//! output summary. No symbolic renaming is needed: all functions share
//! one location namespace, so caller locals are directly visible.
//!
//! This is the ablation baseline for the invocation-graph design; the
//! paper's Table 4 discussion (most relationships arise at procedure
//! boundaries) predicts a visible precision gap on indirect references.

use crate::analysis::AnalysisError;
use crate::baseline::baseline_trip;
use crate::location::{LocId, LocationTable};
use crate::lvalue::RefEnv;
use crate::points_to_set::{merge_flow, Def, Flow, PtSet};
use pta_cfront::ast::FuncId;
use pta_cfront::builtins::{extern_effect, ExternEffect};
use pta_simple::{BasicStmt, CallTarget, IrProgram, Operand, Stmt, StmtId, VarRef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Result of the context-insensitive analysis.
#[derive(Debug)]
pub struct InsensitiveResult {
    /// Locations created.
    pub locs: LocationTable,
    /// Merged points-to facts per program point.
    pub per_stmt: BTreeMap<StmtId, PtSet>,
    /// Final output summary per function.
    pub summaries: BTreeMap<FuncId, PtSet>,
    /// Number of function (re-)analyses until the fixed point.
    pub iterations: usize,
    /// The state at the end of `main`.
    pub exit_set: PtSet,
}

/// Runs the context-insensitive baseline.
///
/// # Errors
///
/// Returns [`AnalysisError::NoEntry`] when the program has no `main`.
pub fn insensitive(ir: &IrProgram) -> Result<InsensitiveResult, AnalysisError> {
    insensitive_budgeted(ir, None)
}

/// [`insensitive`] with an optional wall-clock deadline, checked once
/// per function (re-)analysis. Used by the degradation ladder so a
/// fallback rung cannot itself hang.
///
/// # Errors
///
/// As [`insensitive`], plus [`AnalysisError::Deadline`] on expiry.
pub fn insensitive_budgeted(
    ir: &IrProgram,
    deadline: Option<std::time::Duration>,
) -> Result<InsensitiveResult, AnalysisError> {
    let budget = crate::budget::Budget::new(u64::MAX, deadline, usize::MAX, u32::MAX);
    let entry = ir.entry.ok_or(AnalysisError::NoEntry)?;
    let mut e = Engine {
        ir,
        locs: LocationTable::new(),
        inputs: BTreeMap::new(),
        outputs: BTreeMap::new(),
        callers: BTreeMap::new(),
        per_stmt: BTreeMap::new(),
        iterations: 0,
    };
    e.locs.null();
    e.locs.heap();
    e.locs.strlit();

    let mut init = PtSet::new();
    let null = e.locs.null();
    for gi in 0..ir.globals.len() {
        let g = e.locs.global(ir, pta_cfront::ast::GlobalId(gi as u32));
        for leaf in ptr_leaves(&mut e.locs, ir, g) {
            init.insert(leaf, null, Def::D);
        }
    }
    e.null_locals(entry, &mut init, true);
    e.inputs.insert(entry, init);

    let mut work: VecDeque<FuncId> = VecDeque::new();
    work.push_back(entry);
    let mut guard = 0usize;
    while let Some(f) = work.pop_front() {
        guard += 1;
        if guard > 100_000 {
            // Internal fixed-point guard, not a configured budget.
            return Err(AnalysisError::StepBudget {
                limit: 100_000,
                at: baseline_trip("insensitive", ir, Some(f)),
            });
        }
        if budget.check_deadline().is_err() {
            return Err(AnalysisError::Deadline {
                limit: deadline.unwrap_or_default(),
                at: baseline_trip("insensitive", ir, Some(f)),
            });
        }
        e.iterations += 1;
        let input = e.inputs.get(&f).cloned().unwrap_or_default();
        let body = match ir.function(f).body.as_ref() {
            Some(b) => b,
            None => continue,
        };
        let mut touched: BTreeSet<FuncId> = BTreeSet::new();
        let out = e.stmt(f, body, Some(input), &mut touched)?;
        let summary = merge_flow(out.normal, out.ret).unwrap_or_default();
        let old = e.outputs.get(&f);
        let changed = old != Some(&summary);
        if changed {
            let merged = match old {
                Some(o) => o.merge(&summary),
                None => summary,
            };
            e.outputs.insert(f, merged);
            // Re-analyze callers: their call-site outputs changed.
            if let Some(cs) = e.callers.get(&f) {
                for c in cs.clone() {
                    if !work.contains(&c) {
                        work.push_back(c);
                    }
                }
            }
        }
        for g in touched {
            if !work.contains(&g) {
                work.push_back(g);
            }
        }
    }

    let exit_set = e.outputs.get(&entry).cloned().unwrap_or_default();
    Ok(InsensitiveResult {
        locs: e.locs,
        per_stmt: e.per_stmt,
        summaries: e.outputs,
        iterations: e.iterations,
        exit_set,
    })
}

struct Engine<'p> {
    ir: &'p IrProgram,
    locs: LocationTable,
    inputs: BTreeMap<FuncId, PtSet>,
    outputs: BTreeMap<FuncId, PtSet>,
    callers: BTreeMap<FuncId, BTreeSet<FuncId>>,
    per_stmt: BTreeMap<StmtId, PtSet>,
    iterations: usize,
}

#[derive(Default)]
struct Out {
    normal: Flow,
    brk: Flow,
    cont: Flow,
    ret: Flow,
}

impl<'p> Engine<'p> {
    fn env(&mut self, func: FuncId) -> RefEnv<'_> {
        RefEnv {
            ir: self.ir,
            func,
            locs: &mut self.locs,
        }
    }

    fn record(&mut self, id: StmtId, s: &PtSet) {
        match self.per_stmt.entry(id) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(s.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let merged = e.get().merge(s);
                e.insert(merged);
            }
        }
    }

    fn null_locals(&mut self, func: FuncId, set: &mut PtSet, include_params: bool) {
        let ir = self.ir;
        let null = self.locs.null();
        let f = ir.function(func);
        for (i, v) in f.vars.iter().enumerate() {
            if !include_params && i < f.n_params {
                continue;
            }
            if !v.ty.carries_pointers(&ir.structs) {
                continue;
            }
            let root = self.locs.var(ir, func, pta_simple::IrVarId(i as u32));
            for leaf in ptr_leaves(&mut self.locs, ir, root) {
                set.insert(leaf, null, Def::D);
            }
        }
    }

    fn assign(&mut self, input: PtSet, l: &[(LocId, Def)], r: &[(LocId, Def)]) -> PtSet {
        let mut out = input;
        for (p, d) in l {
            match d {
                Def::D if !self.locs.is_summary(*p) => out.kill_from(*p),
                _ => out.demote_from(*p),
            }
        }
        for (p, d1) in l {
            let d1 = if self.locs.is_summary(*p) {
                Def::P
            } else {
                *d1
            };
            for (x, d2) in r {
                out.insert(*p, *x, d1.and(*d2));
            }
        }
        out
    }

    fn is_ptr_lhs(&self, func: FuncId, lhs: &VarRef) -> bool {
        // Coarse: resolve the static type through the IR (same logic as
        // the main analysis, simplified to "unknown = pointer").
        crate::baseline::insensitive::ref_is_pointerish(self.ir, func, lhs)
    }

    fn stmt(
        &mut self,
        func: FuncId,
        s: &Stmt,
        input: Flow,
        touched: &mut BTreeSet<FuncId>,
    ) -> Result<Out, AnalysisError> {
        let Some(input) = input else {
            return Ok(Out::default());
        };
        match s {
            Stmt::Basic(b, id) => self.basic(func, b, *id, input, touched),
            Stmt::Seq(v) => {
                let mut out = Out {
                    normal: Some(input),
                    ..Default::default()
                };
                for s in v {
                    let mut nxt = self.stmt(func, s, out.normal.take(), touched)?;
                    out.normal = nxt.normal.take();
                    out.brk = merge_flow(out.brk.take(), nxt.brk.take());
                    out.cont = merge_flow(out.cont.take(), nxt.cont.take());
                    out.ret = merge_flow(out.ret.take(), nxt.ret.take());
                }
                Ok(out)
            }
            Stmt::If {
                then_s, else_s, id, ..
            } => {
                self.record(*id, &input);
                let mut t = self.stmt(func, then_s, Some(input.clone()), touched)?;
                let mut e = match else_s {
                    Some(e) => self.stmt(func, e, Some(input), touched)?,
                    None => Out {
                        normal: Some(input),
                        ..Default::default()
                    },
                };
                Ok(Out {
                    normal: merge_flow(t.normal.take(), e.normal.take()),
                    brk: merge_flow(t.brk.take(), e.brk.take()),
                    cont: merge_flow(t.cont.take(), e.cont.take()),
                    ret: merge_flow(t.ret.take(), e.ret.take()),
                })
            }
            Stmt::While {
                pre_cond, body, id, ..
            } => {
                let mut inv = Some(input);
                let mut brk = None;
                let mut ret = None;
                loop {
                    let mut pre = self.stmt(func, pre_cond, inv.clone(), touched)?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                    }
                    let mut b = self.stmt(func, body, test.clone(), touched)?;
                    let back = merge_flow(b.normal.take(), b.cont.take());
                    brk = merge_flow(brk, b.brk.take());
                    ret = merge_flow(ret, merge_flow(pre.ret.take(), b.ret.take()));
                    let ni = merge_flow(inv.clone(), back);
                    if ni == inv {
                        return Ok(Out {
                            normal: merge_flow(test, brk),
                            brk: None,
                            cont: None,
                            ret,
                        });
                    }
                    inv = ni;
                }
            }
            Stmt::DoWhile {
                body, pre_cond, id, ..
            } => {
                let mut inv = Some(input);
                let mut brk = None;
                let mut ret = None;
                loop {
                    let mut b = self.stmt(func, body, inv.clone(), touched)?;
                    let mut pre = self.stmt(
                        func,
                        pre_cond,
                        merge_flow(b.normal.take(), b.cont.take()),
                        touched,
                    )?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                    }
                    brk = merge_flow(brk, b.brk.take());
                    ret = merge_flow(ret, merge_flow(b.ret.take(), pre.ret.take()));
                    let ni = merge_flow(inv.clone(), test.clone());
                    if ni == inv {
                        return Ok(Out {
                            normal: merge_flow(test, brk),
                            brk: None,
                            cont: None,
                            ret,
                        });
                    }
                    inv = ni;
                }
            }
            Stmt::For {
                init,
                pre_cond,
                step,
                body,
                id,
                ..
            } => {
                let mut i = self.stmt(func, init, Some(input), touched)?;
                let mut inv = i.normal.take();
                let mut brk = None;
                let mut ret = i.ret.take();
                loop {
                    let mut pre = self.stmt(func, pre_cond, inv.clone(), touched)?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                    }
                    let mut b = self.stmt(func, body, test.clone(), touched)?;
                    let mut st = self.stmt(
                        func,
                        step,
                        merge_flow(b.normal.take(), b.cont.take()),
                        touched,
                    )?;
                    brk = merge_flow(brk, b.brk.take());
                    for r in [pre.ret.take(), b.ret.take(), st.ret.take()] {
                        ret = merge_flow(ret, r);
                    }
                    let ni = merge_flow(inv.clone(), st.normal.take());
                    if ni == inv {
                        return Ok(Out {
                            normal: merge_flow(test, brk),
                            brk: None,
                            cont: None,
                            ret,
                        });
                    }
                    inv = ni;
                }
            }
            Stmt::Switch {
                arms,
                has_default,
                id,
                ..
            } => {
                self.record(*id, &input);
                let mut exit = if *has_default {
                    None
                } else {
                    Some(input.clone())
                };
                let mut fall: Flow = None;
                let mut cont = None;
                let mut ret = None;
                for arm in arms {
                    let arm_in = merge_flow(Some(input.clone()), fall.take());
                    let mut o = self.stmt(func, &arm.body, arm_in, touched)?;
                    exit = merge_flow(exit, o.brk.take());
                    fall = o.normal.take();
                    cont = merge_flow(cont, o.cont.take());
                    ret = merge_flow(ret, o.ret.take());
                }
                exit = merge_flow(exit, fall);
                Ok(Out {
                    normal: exit,
                    brk: None,
                    cont,
                    ret,
                })
            }
            Stmt::Break(id) => {
                self.record(*id, &input);
                Ok(Out {
                    brk: Some(input),
                    ..Default::default()
                })
            }
            Stmt::Continue(id) => {
                self.record(*id, &input);
                Ok(Out {
                    cont: Some(input),
                    ..Default::default()
                })
            }
        }
    }

    fn basic(
        &mut self,
        func: FuncId,
        b: &BasicStmt,
        id: StmtId,
        input: PtSet,
        touched: &mut BTreeSet<FuncId>,
    ) -> Result<Out, AnalysisError> {
        self.record(id, &input);
        let normal = match b {
            BasicStmt::Copy { lhs, rhs } => {
                if self.is_ptr_lhs(func, lhs) {
                    let (l, r) = {
                        let mut env = self.env(func);
                        (
                            env.l_locations(&input, lhs),
                            env.operand_r_locations(&input, rhs),
                        )
                    };
                    Some(self.assign(input, &l, &r))
                } else {
                    Some(input)
                }
            }
            BasicStmt::Unary { .. } | BasicStmt::Binary { .. } => Some(input),
            BasicStmt::PtrArith { lhs, ptr, shift } => {
                let (l, r) = {
                    let mut env = self.env(func);
                    let l = env.l_locations(&input, lhs);
                    let base = env.r_locations(&input, ptr);
                    let mut r = Vec::new();
                    for (t, d) in base {
                        for (t2, ds) in env.shift_loc(t, *shift) {
                            crate::intra::push_pair(&mut r, t2, d.and(ds));
                        }
                    }
                    (l, r)
                };
                Some(self.assign(input, &l, &r))
            }
            BasicStmt::Alloc { lhs, .. } => {
                let (l, r) = {
                    let mut env = self.env(func);
                    let l = env.l_locations(&input, lhs);
                    let heap = env.locs.heap();
                    (l, vec![(heap, Def::P)])
                };
                Some(self.assign(input, &l, &r))
            }
            BasicStmt::Call {
                lhs, target, args, ..
            } => {
                return Ok(Out {
                    normal: self.call(func, target, lhs.as_ref(), args, input, touched)?,
                    ..Default::default()
                });
            }
            BasicStmt::Return(v) => {
                let mut out = input;
                if let Some(v) = v {
                    let carries = self
                        .ir
                        .function(func)
                        .ret
                        .carries_pointers(&self.ir.structs);
                    if carries {
                        let ret = self.locs.ret(self.ir, func);
                        let r = {
                            let mut env = self.env(func);
                            env.operand_r_locations(&out, v)
                        };
                        out = self.assign(out, &[(ret, Def::D)], &r);
                    }
                }
                return Ok(Out {
                    ret: Some(out),
                    ..Default::default()
                });
            }
        };
        Ok(Out {
            normal,
            ..Default::default()
        })
    }

    fn call(
        &mut self,
        func: FuncId,
        target: &CallTarget,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
        touched: &mut BTreeSet<FuncId>,
    ) -> Result<Flow, AnalysisError> {
        let callees: Vec<FuncId> = match target {
            CallTarget::Direct(f) => vec![*f],
            CallTarget::Indirect(r) => {
                let targets = {
                    let mut env = self.env(func);
                    env.r_locations(&input, r)
                };
                let mut fs = Vec::new();
                for (t, _) in targets {
                    if let Some(f) = self.locs.as_function(t) {
                        if !fs.contains(&f) {
                            fs.push(f);
                        }
                    }
                }
                fs
            }
        };
        if callees.is_empty() {
            return Ok(Some(input));
        }
        let mut out: Flow = None;
        for callee in callees {
            let o = if self.ir.function(callee).is_defined() {
                self.call_defined(func, callee, lhs, args, &input, touched)?
            } else {
                self.extern_call(func, callee, lhs, args, input.clone())?
            };
            out = merge_flow(out, o);
        }
        Ok(out)
    }

    fn call_defined(
        &mut self,
        func: FuncId,
        callee: FuncId,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: &PtSet,
        touched: &mut BTreeSet<FuncId>,
    ) -> Result<Flow, AnalysisError> {
        self.callers.entry(callee).or_default().insert(func);
        // Contribute to the callee's merged input: the caller state with
        // formals bound to the actuals' targets (shared namespace — no
        // renaming).
        let mut contrib = input.clone();
        let n = self.ir.function(callee).n_params;
        for i in 0..n {
            let formal = self
                .locs
                .var(self.ir, callee, pta_simple::IrVarId(i as u32));
            let leaves = ptr_leaves(&mut self.locs, self.ir, formal);
            for leaf in leaves {
                let r = match args.get(i) {
                    Some(op) => {
                        let mut env = self.env(func);
                        env.operand_r_locations(input, op)
                    }
                    None => Vec::new(),
                };
                // Weak bind: many call sites merge here anyway.
                contrib.demote_from(leaf);
                for (t, _) in r {
                    contrib.insert(leaf, t, Def::P);
                }
            }
        }
        self.null_locals(callee, &mut contrib, false);
        let entry = self.inputs.entry(callee).or_default();
        let merged = entry.merge(&contrib);
        if &merged != entry {
            *entry = merged;
            touched.insert(callee);
        }
        // A callee with no summary yet must be scheduled even when its
        // merged input did not change (e.g. it takes no pointers).
        if !self.outputs.contains_key(&callee) {
            touched.insert(callee);
        }
        // The call-site output is the callee's (current) summary.
        let Some(summary) = self.outputs.get(&callee).cloned() else {
            return Ok(None); // ⊥ until a summary exists
        };
        let mut out = input.merge(&summary);
        if let Some(lhs) = lhs {
            let ret = self.locs.ret(self.ir, callee);
            let r: Vec<(LocId, Def)> = summary.targets(ret).map(|(t, _)| (t, Def::P)).collect();
            let l = {
                let mut env = self.env(func);
                env.l_locations(&out, lhs)
            };
            out = self.assign(out, &l, &r);
        }
        Ok(Some(out))
    }

    fn extern_call(
        &mut self,
        func: FuncId,
        callee: FuncId,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        let name = self.ir.function(callee).name.clone();
        let effect = extern_effect(&name).unwrap_or(ExternEffect::None);
        let r = match effect {
            ExternEffect::NoReturn => return Ok(None),
            ExternEffect::ReturnsHeap => Some(vec![(self.locs.heap(), Def::P)]),
            ExternEffect::ReturnsFirstArg => Some(match args.first() {
                Some(op) => {
                    let mut env = self.env(func);
                    env.operand_r_locations(&input, op)
                }
                None => Vec::new(),
            }),
            _ => None,
        };
        match (lhs, r) {
            (Some(lhs), Some(r)) if self.is_ptr_lhs(func, lhs) => {
                let l = {
                    let mut env = self.env(func);
                    env.l_locations(&input, lhs)
                };
                Ok(Some(self.assign(input, &l, &r)))
            }
            _ => Ok(Some(input)),
        }
    }
}

/// Type-directed pointer-assignment check shared with the engines.
pub(crate) fn ref_is_pointerish(ir: &IrProgram, func: FuncId, lhs: &VarRef) -> bool {
    use pta_cfront::types::Type;
    use pta_simple::{IrProj, VarBase};
    let path_ty = |path: &pta_simple::VarPath| -> Option<Type> {
        let mut ty = match path.base {
            VarBase::Global(g) => ir.global(g).ty.clone(),
            VarBase::Var(v) => ir.function(func).var(v).ty.clone(),
        };
        for p in &path.projs {
            ty = match p {
                IrProj::Field(f) => match ty {
                    Type::Struct(sid) => ir.structs.def(sid).field(f)?.ty.clone(),
                    _ => return None,
                },
                IrProj::Index(_) => ty.elem()?.clone(),
            };
        }
        Some(ty)
    };
    let ty = match lhs {
        VarRef::Path(p) => path_ty(p),
        VarRef::Deref { path, after, .. } => {
            let pt = path_ty(path);
            match pt.map(|t| t.decay()) {
                Some(Type::Pointer(inner)) => {
                    let mut ty = *inner;
                    let mut ok = true;
                    for p in after {
                        ty = match p {
                            IrProj::Field(f) => match ty {
                                Type::Struct(sid) => match ir.structs.def(sid).field(f) {
                                    Some(fl) => fl.ty.clone(),
                                    None => {
                                        ok = false;
                                        break;
                                    }
                                },
                                _ => {
                                    ok = false;
                                    break;
                                }
                            },
                            IrProj::Index(_) => match ty.elem() {
                                Some(e) => e.clone(),
                                None => {
                                    ok = false;
                                    break;
                                }
                            },
                        };
                    }
                    if ok {
                        Some(ty)
                    } else {
                        None
                    }
                }
                _ => None,
            }
        }
    };
    match ty {
        Some(t) => matches!(t.decay(), pta_cfront::types::Type::Pointer(_)),
        None => true,
    }
}

/// Pointer-leaf enumeration shared with the engines (a free-function
/// variant of `Analyzer::ptr_leaves`).
pub(crate) fn ptr_leaves(locs: &mut LocationTable, ir: &IrProgram, loc: LocId) -> Vec<LocId> {
    use crate::location::Proj;
    use pta_cfront::types::Type;
    let mut out = Vec::new();
    let mut stack = vec![(loc, 0usize)];
    while let Some((l, depth)) = stack.pop() {
        if depth > 12 {
            continue;
        }
        let Some(ty) = locs.ty(l).cloned() else {
            if locs.is_heap(l) {
                out.push(l);
            }
            continue;
        };
        match ty {
            Type::Pointer(_) | Type::Func(_) => out.push(l),
            Type::Struct(sid) => {
                for f in &ir.structs.def(sid).fields {
                    if !f.ty.carries_pointers(&ir.structs) {
                        continue;
                    }
                    if let Some(n) = locs.project_field(l, &f.name, ir) {
                        stack.push((n, depth + 1));
                    }
                }
            }
            Type::Array(elem, _) if elem.carries_pointers(&ir.structs) => {
                if let Some(h) = locs.project(l, &Proj::Head, ir) {
                    stack.push((h, depth + 1));
                }
                if let Some(t) = locs.project(l, &Proj::Tail, ir) {
                    stack.push((t, depth + 1));
                }
            }
            _ => {}
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (IrProgram, InsensitiveResult) {
        let ir = pta_simple::compile(src).expect("compile ok");
        let r = insensitive(&ir).expect("analysis ok");
        (ir, r)
    }

    fn targets(ir: &IrProgram, r: &InsensitiveResult, func: &str, var: &str) -> Vec<String> {
        let (fid, f) = ir.function_by_name(func).unwrap();
        let set = r.summaries.get(&fid).cloned().unwrap_or_default();
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
        let Some(src) = src else { return vec![] };
        let mut v: Vec<String> = set
            .targets(src)
            .filter(|(t, _)| !r.locs.is_null(*t))
            .map(|(t, _)| r.locs.name(t).to_owned())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn intraprocedural_facts_match_main_analysis() {
        let (ir, r) = run("int x, y; int main(void){ int *p; p = &x; p = &y; return *p; }");
        assert_eq!(targets(&ir, &r, "main", "p"), vec!["y"]);
    }

    #[test]
    fn contexts_are_merged_imprecisely() {
        // The context-insensitivity ablation: both call sites pollute
        // each other.
        let (ir, r) = run("int x, y;
             void set(int **p, int *v) { *p = v; }
             int main(void){ int *a; int *b; set(&a, &x); set(&b, &y); return 0; }");
        let a = targets(&ir, &r, "main", "a");
        assert!(a.contains(&"x".to_string()), "got {a:?}");
        assert!(
            a.contains(&"y".to_string()),
            "a should be polluted, got {a:?}"
        );
    }

    #[test]
    fn converges_on_recursion() {
        let (ir, r) = run("int x;
             void f(int **pp, int n){ if (n) { *pp = &x; f(pp, n-1); } }
             int main(void){ int *p; f(&p, 3); return 0; }");
        let p = targets(&ir, &r, "main", "p");
        assert!(p.contains(&"x".to_string()), "got {p:?}");
    }

    #[test]
    fn handles_function_pointers() {
        let (ir, r) = run("int x; int *g;
             void s(void){ g = &x; }
             int main(void){ void (*fp)(void); fp = s; fp(); return 0; }");
        assert_eq!(targets(&ir, &r, "main", "g"), vec!["x"]);
    }
}
