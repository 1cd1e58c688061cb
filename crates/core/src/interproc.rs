//! Interprocedural strategy (§4, Figure 4) and function-pointer calls
//! (§5, Figure 5), plus the modelled-external call effects.
//!
//! The general idea (Figure 3): map the caller's points-to information
//! into the callee's name space, analyse the body (memoized on the
//! invocation-graph node), and unmap the output back to the call site.
//! Information induced by one call site is never returned to another.
//! Under [`crate::MemoScope::Program`] a finished context pair is also
//! replayed at other call sites with the same mapped input; the unmap
//! still runs per site.

use crate::analysis::{AnalysisError, Analyzer, WarmPair};
use crate::invocation_graph::{IgKind, IgNodeId};
use crate::points_to_set::{flow_subset, merge_flow, Def, Flow, PtSet};
use crate::trace::TraceEvent;
use pta_cfront::ast::FuncId;
use pta_cfront::builtins::{extern_effect, ExternEffect};
use pta_simple::{CallSiteId, CallTarget, Operand, VarRef};

impl<'p> Analyzer<'p> {
    /// Dispatches a call statement.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn process_call_stmt(
        &mut self,
        caller: FuncId,
        node: IgNodeId,
        cs: CallSiteId,
        target: &CallTarget,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        match target {
            CallTarget::Direct(callee) => {
                if self.ir.function(*callee).is_defined() {
                    self.call_defined(caller, node, cs, *callee, lhs, args, input)
                } else {
                    self.extern_call(caller, *callee, lhs, args, input)
                }
            }
            CallTarget::Indirect(fnptr) => {
                self.process_call_indirect(caller, node, cs, fnptr, lhs, args, input)
            }
        }
    }

    /// A call to a function defined in the program: map, analyse
    /// (memoized on the invocation-graph node), unmap, and bind the
    /// return value.
    #[allow(clippy::too_many_arguments)]
    fn call_defined(
        &mut self,
        caller: FuncId,
        node: IgNodeId,
        cs: CallSiteId,
        callee: FuncId,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        let ir = self.ir;
        let child = self
            .ig
            .ensure_child(ir, node, cs, callee, self.config.max_ig_nodes)
            .map_err(|o| o.into_error(ir, None))?;
        // A child discovered at an indirect call site needs its direct
        // call structure expanded so recursion is detected eagerly.
        if self.ig.node(child).kind == IgKind::Ordinary && self.ig.node(child).children.is_empty() {
            self.ig
                .expand_direct(ir, child, self.config.max_ig_nodes)
                .map_err(|o| o.into_error(ir, None))?;
        }
        // Demand mode: a call to a function outside the slice is
        // skipped (identity flow). The slice guarantees every such
        // call post-dominates the query roots, so the facts *at the
        // roots* are unaffected — see `crate::demand`. The IG child
        // above is still created so `call-targets` queries resolve
        // identically.
        if let Some(d) = &self.config.demand {
            if !d.slice.contains(&callee) {
                return Ok(Some(input));
            }
        }
        let mut mapping = self.map_process(caller, node, callee, args, &input)?;
        let out = self.analyze_node(child, std::mem::take(&mut mapping.callee_input))?;
        // Set after the body: a memo hit may graft a fragment whose root
        // was recorded at another call site, with that site's map info.
        self.ig.node_mut(child).map_info = mapping.sym_reps.clone();
        match out {
            None => Ok(None), // ⊥: pending recursive input, or the callee never returns
            Some(callee_out) => {
                let mut caller_out = self.unmap_process(
                    cs,
                    callee,
                    &input,
                    &callee_out,
                    &mapping.sym_reps,
                    &mapping.mapped_sources,
                );
                if let Some(lhs) = lhs {
                    caller_out = self.bind_return(
                        caller,
                        cs,
                        callee,
                        lhs,
                        &callee_out,
                        &mapping.sym_reps,
                        caller_out,
                    );
                }
                Ok(Some(caller_out))
            }
        }
    }

    /// Figure 4: evaluates an invocation-graph node with a prepared
    /// input, with memoization, and the recursive/approximate
    /// fixed-point protocol.
    pub(crate) fn analyze_node(
        &mut self,
        node: IgNodeId,
        func_input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        let ir = self.ir;
        if self.ig.node(node).kind == IgKind::Approximate {
            let rec = self
                .ig
                .node(node)
                .rec_edge
                .expect("approximate nodes have a partner");
            if let Some(si) = &self.ig.node(rec).stored_input {
                if func_input.subset_of(si) {
                    if self.tracer.enabled() {
                        let name = ir.function(self.ig.node(node).func).name.clone();
                        let (hash, pairs) = (func_input.fingerprint(), func_input.len());
                        self.tracer.emit(|| TraceEvent::MemoHit {
                            node: node.0,
                            func: name,
                            input_hash: hash,
                            input_pairs: pairs,
                        });
                    }
                    return Ok(self.ig.node(rec).stored_output.clone());
                }
            }
            if self.tracer.enabled() {
                let name = ir.function(self.ig.node(node).func).name.clone();
                let pairs = func_input.len();
                self.tracer.emit(|| TraceEvent::ApproxDefer {
                    node: node.0,
                    func: name,
                    input_pairs: pairs,
                });
            }
            self.ig.node_mut(rec).pending.push(func_input);
            return Ok(None); // ⊥
        }
        // Ordinary or Recursive node: memo check.
        {
            let n = self.ig.node(node);
            if n.memo_valid && n.stored_input.as_ref() == Some(&func_input) {
                if self.tracer.enabled() {
                    let name = ir.function(n.func).name.clone();
                    let (hash, pairs) = (func_input.fingerprint(), func_input.len());
                    self.tracer.emit(|| TraceEvent::MemoHit {
                        node: node.0,
                        func: name,
                        input_hash: hash,
                        input_pairs: pairs,
                    });
                }
                self.cap_note_hit(node);
                return Ok(self.ig.node(node).stored_output.clone());
            }
        }
        let func = self.ig.node(node).func;
        // Warm seeds (pta-store): a context pair from a previous run
        // whose subtree is unchanged serves the memo lookup without
        // re-analysing the body — graft the recorded subtree, replay
        // its captured side outputs, and return the memoized flow.
        if self.seeds.find(func, &func_input).is_some() {
            // Move the seed store out of `self` for the duration of the
            // graft so the hit works by reference: a context pair can
            // carry a large fragment and capture, and deep-cloning them
            // per hit would spend a significant slice of what the hit
            // saves (program scope serves every repeated context through
            // this path).
            let seeds = std::mem::take(&mut self.seeds);
            let pair = seeds.find(func, &func_input).expect("checked above");
            if self.tracer.enabled() {
                let name = ir.function(func).name.clone();
                let (hash, pairs) = (func_input.fingerprint(), func_input.len());
                self.tracer.emit(|| TraceEvent::MemoHit {
                    node: node.0,
                    func: name,
                    input_hash: hash,
                    input_pairs: pairs,
                });
            }
            let grafted = match self
                .ig
                .graft(ir, node, &pair.fragment, self.config.max_ig_nodes)
            {
                Ok(g) => g,
                Err(o) => {
                    let e = o.into_error(ir, None);
                    self.seeds = seeds;
                    return Err(e);
                }
            };
            if self.capture {
                // Keep interior grafted nodes attributable: a later
                // in-run hit on one must find its capture.
                for id in &grafted {
                    let n = self.ig.node(*id);
                    if n.kind == IgKind::Approximate || !n.memo_valid {
                        continue;
                    }
                    let Some(input) = n.stored_input.clone() else {
                        continue;
                    };
                    let nf = n.func;
                    if let Some(p) = seeds.find(nf, &input) {
                        let cap = p.capture.clone();
                        self.node_caps.insert(id.0, cap);
                    }
                }
                self.node_caps.insert(node.0, pair.capture.clone());
            }
            self.cap_replay(&pair.capture);
            let out = pair.output.clone();
            self.seed_hits += 1;
            self.seeds = seeds;
            return Ok(out);
        }
        if self.tracer.enabled() {
            let name = ir.function(func).name.clone();
            let kind = self.ig.node(node).kind.tag();
            let path = self.ig.path_to(ir, node);
            let (hash, pairs) = (func_input.fingerprint(), func_input.len());
            {
                let name = name.clone();
                self.tracer.emit(|| TraceEvent::MemoMiss {
                    node: node.0,
                    func: name,
                    input_hash: hash,
                    input_pairs: pairs,
                });
            }
            self.tracer.emit(|| TraceEvent::IgEnter {
                node: node.0,
                func: name,
                kind,
                path,
                input_pairs: pairs,
                input_hash: hash,
            });
        }
        let body = ir
            .function(func)
            .body
            .as_ref()
            .expect("node for a defined function");
        {
            let n = self.ig.node_mut(node);
            n.stored_input = Some(func_input.clone());
            n.stored_output = None;
            n.memo_valid = false;
            n.pending.clear();
        }
        self.cap_push();
        let mut rounds: u32 = 0;
        loop {
            // Fixed-point rounds can each be expensive; re-check the
            // deadline between them even if few statements ran.
            if let Err(e) = self.budget.check_deadline() {
                return Err(self.exhausted(e, node, None));
            }
            rounds += 1;
            let cur = self
                .ig
                .node(node)
                .stored_input
                .clone()
                .expect("input set above");
            let fo = self.process_stmt(func, node, body, Some(cur))?;
            let out = merge_flow(fo.normal, fo.ret);
            // Unresolved inputs from approximate descendants: generalize
            // the input and restart (Figure 4).
            let pending = std::mem::take(&mut self.ig.node_mut(node).pending);
            if !pending.is_empty() {
                let mut si = self.ig.node(node).stored_input.clone().expect("input set");
                for p in pending {
                    si = si.merge(&p);
                }
                let n = self.ig.node_mut(node);
                n.stored_input = Some(si);
                n.stored_output = None;
                continue;
            }
            if self.ig.node(node).kind != IgKind::Recursive {
                let n = self.ig.node_mut(node);
                n.stored_output = out.clone();
                n.memo_valid = true;
                self.cap_pop(node);
                self.publish_pair(node, func, &out);
                self.emit_ig_exit(node, &out, rounds);
                return Ok(out);
            }
            // Recursive: generalize the output until stable.
            let stored = self.ig.node(node).stored_output.clone();
            if flow_subset(&out, &stored) {
                let n = self.ig.node_mut(node);
                n.stored_input = Some(func_input); // reset for memoization
                n.memo_valid = true;
                let out = n.stored_output.clone();
                self.cap_pop(node);
                self.emit_ig_exit(node, &out, rounds);
                return Ok(out);
            }
            self.ig.node_mut(node).stored_output = merge_flow(stored, out);
        }
    }

    /// Program scope: publishes a just-completed context pair of `func`
    /// to the program-wide memo, so any other call site producing the
    /// same input replays it. Only functions whose conservative call
    /// closure is recursion-free qualify (anything touching recursion
    /// has provisional, node-local outputs), and only with a complete
    /// capture. The key is the node's *stored* input, the context the
    /// final fixpoint round ran with.
    fn publish_pair(&mut self, node: IgNodeId, func: FuncId, out: &Flow) {
        if !self
            .program_memo
            .as_ref()
            .is_some_and(|fns| fns.contains(&func))
        {
            return;
        }
        let Some(input) = self.ig.node(node).stored_input.clone() else {
            return;
        };
        if self.seeds.find(func, &input).is_some() {
            return;
        }
        let Some(capture) = self.node_caps.get(&node.0).filter(|c| c.complete) else {
            return;
        };
        let capture = std::sync::Arc::clone(capture);
        let Some(fragment) = self.ig.extract_fragment(node) else {
            return;
        };
        self.seeds.insert(
            func,
            WarmPair {
                input,
                output: out.clone(),
                capture,
                fragment,
            },
        );
    }

    fn emit_ig_exit(&mut self, node: IgNodeId, out: &Flow, rounds: u32) {
        if self.tracer.enabled() {
            let name = self.ir.function(self.ig.node(node).func).name.clone();
            let (bottom, out_pairs) = match out {
                None => (true, 0),
                Some(s) => (false, s.len()),
            };
            self.tracer.emit(|| TraceEvent::IgExit {
                node: node.0,
                func: name,
                bottom,
                out_pairs,
                rounds,
            });
        }
    }

    /// Binds the callee's return value to the call's destination,
    /// field-by-field for struct returns.
    #[allow(clippy::too_many_arguments)]
    fn bind_return(
        &mut self,
        caller: FuncId,
        cs: CallSiteId,
        callee: FuncId,
        lhs: &VarRef,
        callee_out: &PtSet,
        sym_reps: &crate::invocation_graph::MapInfo,
        mut caller_out: PtSet,
    ) -> PtSet {
        let ir = self.ir;
        if !self.is_pointer_assignment(caller, lhs)
            && !ir.function(callee).ret.carries_pointers(&ir.structs)
        {
            return caller_out;
        }
        let ret_loc = self.locs.ret(ir, callee);
        let leaves = self.ptr_leaves(ret_loc);
        if leaves.is_empty() {
            // Return type carries no pointers but the destination is a
            // pointer (cast abuse): clear the destination.
            let l = {
                let mut env = self.renv(caller);
                env.l_locations(&caller_out, lhs)
            };
            return self.assign(caller_out, &l, &[]);
        }
        let base_depth = self.locs.get(ret_loc).projs.len();
        let mut tr = Vec::new();
        for &leaf in leaves.iter() {
            let extra = self.locs.get(leaf).projs[base_depth..].to_vec();
            let mut lhs_leaf = lhs.clone();
            for p in &extra {
                let ip = match p {
                    crate::location::Proj::Field(f) => pta_simple::IrProj::Field(f.clone()),
                    crate::location::Proj::Head => {
                        pta_simple::IrProj::Index(pta_simple::IdxClass::Zero)
                    }
                    crate::location::Proj::Tail => {
                        pta_simple::IrProj::Index(pta_simple::IdxClass::Positive)
                    }
                };
                lhs_leaf = crate::intra::append_proj(lhs_leaf, ip);
            }
            let mut r: Vec<(crate::location::LocId, Def)> = Vec::new();
            let ret_targets: Vec<(crate::location::LocId, Def)> =
                callee_out.targets(leaf).collect();
            for (t, d) in ret_targets {
                tr.clear();
                self.rtr(callee, t, sym_reps, &mut tr);
                if tr.is_empty() && self.is_callee_local(callee, t) {
                    self.warn(format!(
                        "address of a local of `{}` escapes through its return value (dangling pointer dropped)",
                        self.ir.function(callee).name
                    ));
                    let local = self.locs.name(t).to_owned();
                    self.escape(crate::analysis::EscapeEvent {
                        callee,
                        call_site: cs,
                        via: crate::analysis::EscapeVia::Return,
                        local,
                        def: d,
                    });
                }
                let unique = tr.len() == 1;
                for &t2 in &tr {
                    let d2 = if d == Def::D && unique {
                        Def::D
                    } else {
                        Def::P
                    };
                    crate::intra::push_pair(&mut r, t2, d2);
                }
            }
            let l = {
                let mut env = self.renv(caller);
                env.l_locations(&caller_out, &lhs_leaf)
            };
            caller_out = self.assign(caller_out, &l, &r);
        }
        caller_out
    }

    /// Calls to modelled external functions (§"Externals" in DESIGN.md).
    fn extern_call(
        &mut self,
        caller: FuncId,
        callee: FuncId,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        let name = self.ir.function(callee).name.clone();
        let effect = match extern_effect(&name) {
            Some(e) => e,
            None => {
                if self.config.strict_externs {
                    return Err(AnalysisError::Unsupported(format!(
                        "call to unmodelled external function `{name}`"
                    )));
                }
                self.warn(format!(
                    "call to unmodelled external `{name}` treated as having no pointer effects"
                ));
                ExternEffect::None
            }
        };
        match effect {
            ExternEffect::NoReturn => Ok(None),
            ExternEffect::None | ExternEffect::Free => {
                Ok(Some(self.extern_bind(caller, lhs, None, input)))
            }
            ExternEffect::ReturnsHeap => {
                let heap = self.locs.heap();
                Ok(Some(self.extern_bind(
                    caller,
                    lhs,
                    Some(vec![(heap, Def::P)]),
                    input,
                )))
            }
            ExternEffect::ReturnsFirstArg => {
                let r = match args.first() {
                    Some(op) => {
                        let mut env = self.renv(caller);
                        env.operand_r_locations(&input, op)
                    }
                    None => Vec::new(),
                };
                Ok(Some(self.extern_bind(caller, lhs, Some(r), input)))
            }
        }
    }

    fn extern_bind(
        &mut self,
        caller: FuncId,
        lhs: Option<&VarRef>,
        r: Option<Vec<(crate::location::LocId, Def)>>,
        input: PtSet,
    ) -> PtSet {
        let Some(lhs) = lhs else { return input };
        if !self.is_pointer_assignment(caller, lhs) {
            return input;
        }
        let l = {
            let mut env = self.renv(caller);
            env.l_locations(&input, lhs)
        };
        let r = r.unwrap_or_default();
        self.assign(input, &l, &r)
    }

    /// Figure 5: a call through a function pointer. The invocable set is
    /// the current points-to set of the pointer; the invocation graph is
    /// extended accordingly; each invocable function is analysed with
    /// the pointer made to *definitely* point to it; the outputs merge.
    #[allow(clippy::too_many_arguments)]
    fn process_call_indirect(
        &mut self,
        caller: FuncId,
        node: IgNodeId,
        cs: CallSiteId,
        fnptr: &VarRef,
        lhs: Option<&VarRef>,
        args: &[Operand],
        input: PtSet,
    ) -> Result<Flow, AnalysisError> {
        let targets = {
            let mut env = self.renv(caller);
            env.r_locations(&input, fnptr)
        };
        let mut fns: Vec<FuncId> = Vec::new();
        for (t, _) in &targets {
            if let Some(f) = self.locs.as_function(*t) {
                if !fns.contains(&f) {
                    fns.push(f);
                }
            }
        }
        if fns.is_empty() {
            self.warn(format!(
                "indirect call in `{}` has no function targets on some path; treated as a no-op",
                self.ir.function(caller).name
            ));
            return Ok(Some(input));
        }
        let mut out: Flow = None;
        for f in fns {
            // Make the function pointer definitely point to `f` for this
            // branch of the call.
            let floc = self.locs.function(self.ir, f);
            let l = {
                let mut env = self.renv(caller);
                env.l_locations(&input, fnptr)
            };
            let input_f = self.assign(input.clone(), &l, &[(floc, Def::D)]);
            let o = if self.ir.function(f).is_defined() {
                self.call_defined(caller, node, cs, f, lhs, args, input_f)?
            } else {
                self.extern_call(caller, f, lhs, args, input_f)?
            };
            out = merge_flow(out, o);
        }
        Ok(out)
    }
}
