//! Intraprocedural (compositional) analysis rules — Figure 1 of the
//! paper, extended with the full set of structured constructs
//! (`do`/`for`/`switch`/`break`/`continue`/`return`).

use crate::analysis::{AnalysisError, Analyzer};
use crate::invocation_graph::IgNodeId;
use crate::location::LocId;
use crate::points_to_set::{merge_flow, Def, Flow, PtSet};
use crate::trace::TraceEvent;
use pta_cfront::ast::FuncId;
use pta_simple::{BasicStmt, IdxClass, Stmt, StmtId, VarRef};
use std::borrow::Cow;

/// The compositional flow result of a statement: the fall-through state
/// plus the pending states of each non-structured exit.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowOut {
    /// Normal completion.
    pub normal: Flow,
    /// Pending `break` states (resolved by the enclosing loop/switch).
    pub brk: Flow,
    /// Pending `continue` states (resolved by the enclosing loop).
    pub cont: Flow,
    /// Pending `return` states (resolved at the function boundary).
    pub ret: Flow,
}

impl FlowOut {
    pub(crate) fn normal(f: Flow) -> Self {
        FlowOut {
            normal: f,
            ..Default::default()
        }
    }

    fn absorb_exits(&mut self, other: &mut FlowOut) {
        self.brk = merge_flow(self.brk.take(), other.brk.take());
        self.cont = merge_flow(self.cont.take(), other.cont.take());
        self.ret = merge_flow(self.ret.take(), other.ret.take());
    }
}

impl<'p> Analyzer<'p> {
    /// Processes a statement tree with the given input flow fact.
    pub(crate) fn process_stmt(
        &mut self,
        func: FuncId,
        node: IgNodeId,
        stmt: &'p Stmt,
        input: Flow,
    ) -> Result<FlowOut, AnalysisError> {
        let Some(input) = input else {
            return Ok(FlowOut::default()); // unreachable code
        };
        match stmt {
            Stmt::Basic(b, id) => self.process_basic(func, node, b, *id, input),
            Stmt::Seq(stmts) => {
                let mut out = FlowOut::normal(Some(input));
                for s in stmts {
                    let mut next = self.process_stmt(func, node, s, out.normal.take())?;
                    out.normal = next.normal.take();
                    out.absorb_exits(&mut next);
                }
                Ok(out)
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                id,
            } => {
                self.record(*id, &input);
                self.record_cond_refs(func, cond, &input);
                let mut t = self.process_stmt(func, node, then_s, Some(input.clone()))?;
                let mut e = match else_s {
                    Some(e) => self.process_stmt(func, node, e, Some(input))?,
                    None => FlowOut::normal(Some(input)),
                };
                let mut out = FlowOut::normal(merge_flow(t.normal.take(), e.normal.take()));
                out.absorb_exits(&mut t);
                out.absorb_exits(&mut e);
                Ok(out)
            }
            Stmt::While {
                pre_cond,
                cond,
                body,
                id,
            } => {
                let mut inv = Some(input);
                let mut acc = FlowOut::default();
                loop {
                    let mut pre = self.process_stmt(func, node, pre_cond, inv.clone())?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                        self.record_cond_refs(func, cond, t);
                    }
                    let mut b = self.process_stmt(func, node, body, test.clone())?;
                    let back = merge_flow(b.normal.take(), b.cont.take());
                    acc.brk = merge_flow(acc.brk.take(), b.brk.take());
                    acc.ret = merge_flow(acc.ret.take(), pre.ret.take());
                    acc.ret = merge_flow(acc.ret.take(), b.ret.take());
                    let new_inv = merge_flow(inv.clone(), back);
                    if new_inv == inv {
                        let normal = merge_flow(test, acc.brk.take());
                        return Ok(FlowOut {
                            normal,
                            brk: None,
                            cont: None,
                            ret: acc.ret,
                        });
                    }
                    inv = new_inv;
                }
            }
            Stmt::DoWhile {
                body,
                pre_cond,
                cond,
                id,
            } => {
                let mut inv = Some(input);
                let mut acc = FlowOut::default();
                loop {
                    let mut b = self.process_stmt(func, node, body, inv.clone())?;
                    let to_test = merge_flow(b.normal.take(), b.cont.take());
                    let mut pre = self.process_stmt(func, node, pre_cond, to_test)?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                        self.record_cond_refs(func, cond, t);
                    }
                    acc.brk = merge_flow(acc.brk.take(), b.brk.take());
                    acc.ret = merge_flow(acc.ret.take(), b.ret.take());
                    acc.ret = merge_flow(acc.ret.take(), pre.ret.take());
                    let new_inv = merge_flow(inv.clone(), test.clone());
                    if new_inv == inv {
                        let normal = merge_flow(test, acc.brk.take());
                        return Ok(FlowOut {
                            normal,
                            brk: None,
                            cont: None,
                            ret: acc.ret,
                        });
                    }
                    inv = new_inv;
                }
            }
            Stmt::For {
                init,
                pre_cond,
                cond,
                step,
                body,
                id,
            } => {
                let mut i = self.process_stmt(func, node, init, Some(input))?;
                let mut inv = i.normal.take();
                let mut acc = FlowOut::default();
                acc.ret = merge_flow(acc.ret.take(), i.ret.take());
                loop {
                    let mut pre = self.process_stmt(func, node, pre_cond, inv.clone())?;
                    let test = pre.normal.take();
                    if let Some(t) = &test {
                        self.record(*id, t);
                        self.record_cond_refs(func, cond, t);
                    }
                    let mut b = self.process_stmt(func, node, body, test.clone())?;
                    let to_step = merge_flow(b.normal.take(), b.cont.take());
                    let mut st = self.process_stmt(func, node, step, to_step)?;
                    acc.brk = merge_flow(acc.brk.take(), b.brk.take());
                    for r in [pre.ret.take(), b.ret.take(), st.ret.take()] {
                        acc.ret = merge_flow(acc.ret.take(), r);
                    }
                    let new_inv = merge_flow(inv.clone(), st.normal.take());
                    if new_inv == inv {
                        let normal = merge_flow(test, acc.brk.take());
                        return Ok(FlowOut {
                            normal,
                            brk: None,
                            cont: None,
                            ret: acc.ret,
                        });
                    }
                    inv = new_inv;
                }
            }
            Stmt::Switch {
                scrutinee: _,
                arms,
                has_default,
                id,
            } => {
                self.record(*id, &input);
                // Conservative compositional rule: any arm may be
                // entered from the dispatch; fall-through chains arms.
                let mut exit: Flow = if *has_default {
                    None
                } else {
                    Some(input.clone())
                };
                let mut fall: Flow = None;
                let mut acc = FlowOut::default();
                for arm in arms {
                    let arm_in = merge_flow(Some(input.clone()), fall.take());
                    let mut o = self.process_stmt(func, node, &arm.body, arm_in)?;
                    exit = merge_flow(exit, o.brk.take());
                    fall = o.normal.take();
                    acc.cont = merge_flow(acc.cont.take(), o.cont.take());
                    acc.ret = merge_flow(acc.ret.take(), o.ret.take());
                }
                exit = merge_flow(exit, fall);
                Ok(FlowOut {
                    normal: exit,
                    brk: None,
                    cont: acc.cont,
                    ret: acc.ret,
                })
            }
            Stmt::Break(id) => {
                self.record(*id, &input);
                Ok(FlowOut {
                    brk: Some(input),
                    ..Default::default()
                })
            }
            Stmt::Continue(id) => {
                self.record(*id, &input);
                Ok(FlowOut {
                    cont: Some(input),
                    ..Default::default()
                })
            }
        }
    }

    /// Program points inside conditions carry indirect references too;
    /// recording happens at the owning control statement's id, which
    /// `record` already did — this hook exists for symmetry and future
    /// per-operand stats.
    fn record_cond_refs(&mut self, _func: FuncId, _cond: &pta_simple::CondExpr, _set: &PtSet) {}

    /// Figure 1's `process_basic_stmt`, extended with pointer
    /// arithmetic, allocation, calls, and returns. This wrapper owns
    /// the budget accounting and the trace points (budget heartbeat +
    /// per-statement transfer timing); the kernel below does the work.
    fn process_basic(
        &mut self,
        func: FuncId,
        node: IgNodeId,
        b: &'p BasicStmt,
        id: StmtId,
        input: PtSet,
    ) -> Result<FlowOut, AnalysisError> {
        if let Err(e) = self.budget.step(input.len()) {
            return Err(self.exhausted(e, node, Some(id)));
        }
        if self.tracer.enabled() {
            if self.budget.tick_due() {
                let (steps, elapsed_us) = (self.budget.steps(), self.budget.elapsed_us());
                self.tracer
                    .emit(|| TraceEvent::BudgetTick { steps, elapsed_us });
            }
            let pairs = input.len();
            let t0 = std::time::Instant::now();
            self.record(id, &input);
            let mut out = self.process_basic_kernel(func, node, b, id, input);
            if self.config.prune_liveness {
                if let Ok(o) = &mut out {
                    self.prune_flow(func, id, &mut o.normal);
                }
            }
            // For call statements the duration includes the nested call
            // processing (map, callee body, unmap).
            let dur_us = t0.elapsed().as_micros() as u64;
            let name = self.ir.function(func).name.clone();
            self.tracer.emit(|| TraceEvent::Stmt {
                stmt: id.0,
                func: name,
                pairs,
                dur_us,
            });
            return out;
        }
        self.record(id, &input);
        let mut out = self.process_basic_kernel(func, node, b, id, input);
        if self.config.prune_liveness {
            if let Ok(o) = &mut out {
                self.prune_flow(func, id, &mut o.normal);
            }
        }
        out
    }

    /// The `prune_liveness` hook: drops pairs sourced at a dead,
    /// never-address-taken local from a statement's fall-through flow.
    /// Only the *normal* edge is pruned — `return` states feed the
    /// function's exit set (queried by clients) and unmap discards
    /// callee locals anyway. Pairs whose source is not a frame variable
    /// of `func` (globals, symbolics, heap, other frames) always
    /// survive, as do pairs sourced under an address-taken or parameter
    /// root, so every resolution at a *use* point sees the exhaustive
    /// answer.
    fn prune_flow(&mut self, func: FuncId, id: StmtId, flow: &mut Flow) {
        self.ensure_prune_mask(func);
        let Some(set) = flow.as_mut() else { return };
        let (seen, pruned) = {
            let Some(mask) = self.prune_masks.get(&func).and_then(|m| m.as_ref()) else {
                return;
            };
            let Some(live) = mask.live_out.get(&id) else {
                return;
            };
            let before = set.len();
            let locs = &self.locs;
            set.retain(|src, _, _| match &locs.get(src).base {
                crate::location::LocBase::Var(g, v) if *g == func => {
                    let i = v.0 as usize;
                    // Keep the pair unless its source is provably dead.
                    !mask.prunable.contains(i) || live.contains(i)
                }
                _ => true,
            });
            (before as u64, (before - set.len()) as u64)
        };
        self.prune.seen_pairs += seen;
        self.prune.pruned_pairs += pruned;
    }

    /// Builds (once per function) the liveness mask `prune_flow` uses.
    fn ensure_prune_mask(&mut self, func: FuncId) {
        if self.prune_masks.contains_key(&func) {
            return;
        }
        let f = self.ir.function(func);
        let mask = crate::dataflow::prune_mask(self.ir, f);
        match &mask {
            Some(m) => {
                self.prune.funcs_analyzed += 1;
                if self.tracer.enabled() {
                    let (name, prunable, nodes, visits) =
                        (f.name.clone(), m.prunable.count(), m.nodes, m.visits);
                    self.tracer.emit(|| TraceEvent::Dataflow {
                        func: name,
                        prunable,
                        nodes,
                        visits,
                        converged: true,
                    });
                }
            }
            None => self.prune.funcs_skipped += 1,
        }
        self.prune_masks.insert(func, mask);
    }

    fn process_basic_kernel(
        &mut self,
        func: FuncId,
        node: IgNodeId,
        b: &'p BasicStmt,
        id: StmtId,
        input: PtSet,
    ) -> Result<FlowOut, AnalysisError> {
        match b {
            BasicStmt::Copy { lhs, rhs } => {
                if !self.is_pointer_assignment(func, lhs) {
                    self.check_discarded_address(func, rhs);
                    return Ok(FlowOut::normal(Some(input)));
                }
                let (l, r) = {
                    let mut env = self.renv(func);
                    let l = env.l_locations(&input, lhs);
                    let r = env.operand_r_locations(&input, rhs);
                    (l, r)
                };
                Ok(FlowOut::normal(Some(self.assign(input, &l, &r))))
            }
            BasicStmt::Unary { .. } | BasicStmt::Binary { .. } => {
                // Arithmetic only: pointer-producing forms were lowered
                // to Copy/PtrArith by the simplifier.
                Ok(FlowOut::normal(Some(input)))
            }
            BasicStmt::PtrArith { lhs, ptr, shift } => {
                let (l, r) = {
                    let mut env = self.renv(func);
                    let l = env.l_locations(&input, lhs);
                    let base = env.r_locations(&input, ptr);
                    let mut r = Vec::new();
                    for (t, d) in base {
                        for (t2, ds) in env.shift_loc(t, *shift) {
                            push_pair(&mut r, t2, d.and(ds));
                        }
                    }
                    (l, r)
                };
                if *shift != IdxClass::Zero {
                    self.warn(format!(
                        "pointer arithmetic in `{}` assumed to stay within the pointed-to object",
                        self.ir.function(func).name
                    ));
                }
                Ok(FlowOut::normal(Some(self.assign(input, &l, &r))))
            }
            BasicStmt::Alloc { lhs, .. } => {
                let heap_sites = self.config.heap_sites;
                let (l, r) = {
                    let mut env = self.renv(func);
                    let l = env.l_locations(&input, lhs);
                    let heap = if heap_sites {
                        env.locs.heap_site(id.0)
                    } else {
                        env.locs.heap()
                    };
                    (l, vec![(heap, Def::P)])
                };
                Ok(FlowOut::normal(Some(self.assign(input, &l, &r))))
            }
            BasicStmt::Call {
                lhs,
                target,
                args,
                call_site,
            } => {
                let out = self.process_call_stmt(
                    func,
                    node,
                    *call_site,
                    target,
                    lhs.as_ref(),
                    args,
                    input,
                )?;
                Ok(FlowOut::normal(out))
            }
            BasicStmt::Return(v) => {
                let ret_ty = &self.ir.function(func).ret;
                let carries = ret_ty.carries_pointers(&self.ir.structs);
                let mut out = input;
                if carries {
                    if let Some(v) = v {
                        out = self.assign_return(func, v, out);
                    }
                }
                Ok(FlowOut {
                    ret: Some(out),
                    ..Default::default()
                })
            }
        }
    }

    /// Records the returned pointer value into the function's
    /// return-value slot (`ret@f`), field-by-field for struct returns.
    fn assign_return(&mut self, func: FuncId, v: &pta_simple::Operand, input: PtSet) -> PtSet {
        let ir = self.ir;
        let ret_loc = self.locs.ret(ir, func);
        let leaves = self.ptr_leaves(ret_loc);
        let base_depth = self.locs.get(ret_loc).projs.len();
        let mut out = input;
        for &leaf in leaves.iter() {
            // Project the operand by the same path as the leaf.
            let r = match project_operand(v, &self.locs.get(leaf).projs[base_depth..]) {
                Some(op) => self.renv(func).operand_r_locations(&out, &op),
                None => Vec::new(),
            };
            let l = vec![(leaf, Def::D)];
            out = self.assign(out, &l, &r);
        }
        out
    }

    /// The kill/change/gen rule of Figure 1. Strong kills are restricted
    /// to non-summary L-locations; a definite L-location that is a
    /// summary (array tail, heap) is demoted to a change, and generated
    /// pairs from it are possible.
    pub(crate) fn assign(
        &mut self,
        input: PtSet,
        l_locs: &[(LocId, Def)],
        r_locs: &[(LocId, Def)],
    ) -> PtSet {
        let mut out = input;
        for (p, d) in l_locs {
            match d {
                Def::D if !self.locs.is_summary(*p) => out.kill_from(*p),
                _ => out.demote_from(*p),
            }
        }
        for (p, d1) in l_locs {
            let d1 = if self.locs.is_summary(*p) {
                Def::P
            } else {
                *d1
            };
            for (x, d2) in r_locs {
                out.insert(*p, *x, d1.and(*d2));
            }
        }
        out
    }

    /// Warns when an address value flows into a non-pointer destination
    /// (cast abuse loses points-to information).
    fn check_discarded_address(&mut self, func: FuncId, rhs: &pta_simple::Operand) {
        if matches!(
            rhs,
            pta_simple::Operand::AddrOf(_) | pta_simple::Operand::Func(_)
        ) {
            self.warn(format!(
                "address value stored into a non-pointer in `{}`; points-to information is lost",
                self.ir.function(func).name
            ));
        }
    }
}

/// Projects an operand by extra projections (for struct values:
/// `return s;` assigns `ret.f = s.f` for each leaf, and a struct
/// actual passes `a.f` to the formal's leaf `p.f`). `None` if the
/// operand is not a reference.
pub(crate) fn project_operand<'o>(
    op: &'o pta_simple::Operand,
    projs: &[crate::location::Proj],
) -> Option<Cow<'o, pta_simple::Operand>> {
    use crate::location::Proj;
    use pta_simple::{IrProj, Operand};
    if projs.is_empty() {
        return Some(Cow::Borrowed(op));
    }
    let Operand::Ref(r) = op else { return None };
    let mut r = r.clone();
    for p in projs {
        let ip = match p {
            Proj::Field(f) => IrProj::Field(f.clone()),
            Proj::Head => IrProj::Index(IdxClass::Zero),
            Proj::Tail => IrProj::Index(IdxClass::Positive),
        };
        r = append_proj(r, ip);
    }
    Some(Cow::Owned(Operand::Ref(r)))
}

pub(crate) fn append_proj(r: VarRef, p: pta_simple::IrProj) -> VarRef {
    match r {
        VarRef::Path(path) => VarRef::Path(path.project(p)),
        VarRef::Deref {
            path,
            shift,
            mut after,
        } => {
            after.push(p);
            VarRef::Deref { path, shift, after }
        }
    }
}

pub(crate) fn push_pair(out: &mut Vec<(LocId, Def)>, l: LocId, d: Def) {
    for (el, ed) in out.iter_mut() {
        if *el == l {
            if *ed != d {
                *ed = Def::P;
            }
            return;
        }
    }
    out.push((l, d));
}
