//! The map process (§4.1 of the paper): prepares the callee's input
//! points-to set from the caller's state at the call site.
//!
//! - formal parameters inherit the points-to relationships of the
//!   corresponding actuals (field-by-field for struct parameters);
//! - global variables keep their relationships;
//! - locations indirectly accessible through formals/globals are mapped
//!   recursively through all pointer levels;
//! - caller locations invisible in the callee are renamed to *symbolic
//!   names* (`1_x`, `2_x`, …), at most one symbolic name per invisible
//!   variable, definite relationships mapped first; the association is
//!   recorded as per-context map information on the invocation-graph
//!   node.

use crate::analysis::{AnalysisError, Analyzer};
use crate::dense::{FxHashMap, LocSet};
use crate::intra::project_operand;
use crate::invocation_graph::{IgNodeId, MapInfo};
use crate::location::{LocBase, LocId};
use crate::points_to_set::{Def, PtSet};
use crate::trace::TraceEvent;
use pta_cfront::ast::FuncId;
use pta_simple::Operand;
use std::collections::VecDeque;

/// The outcome of mapping a call.
#[derive(Debug, Clone)]
pub(crate) struct Mapping {
    /// The callee's input points-to set.
    pub callee_input: PtSet,
    /// Symbolic name (base location) → invisible caller locations it
    /// represents in this context.
    pub sym_reps: MapInfo,
    /// Every caller location whose relationships were conveyed into the
    /// callee (used by unmapping to decide strong vs weak updates).
    pub mapped_sources: Vec<LocId>,
}

impl<'p> Analyzer<'p> {
    /// Builds the callee input set, symbolic names, and map information
    /// for one call. `node` is the caller's invocation-graph node (trip
    /// context for the depth budget).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::MapDepthBudget`] when the pointer-chain
    /// traversal exceeds `AnalysisConfig::max_map_depth`, and
    /// [`AnalysisError::Deadline`] when the wall clock runs out mid-map.
    pub(crate) fn map_process(
        &mut self,
        caller: FuncId,
        node: IgNodeId,
        callee: FuncId,
        args: &[Operand],
        input: &PtSet,
    ) -> Result<Mapping, AnalysisError> {
        let ir = self.ir;
        let t0 = self.tracer.now();
        let mut max_depth_seen: u32 = 0;
        let mut st = MapState {
            sym_reps: MapInfo::new(),
            tr: FxHashMap::default(),
            raw: Vec::new(),
            visited: LocSet::new(),
            queue: VecDeque::new(),
        };

        // --- formal parameters inherit from actuals -------------------
        let n_params = ir.function(callee).n_params;
        let null = self.locs.null();
        for i in 0..n_params {
            let formal_root = self.locs.var(ir, callee, pta_simple::IrVarId(i as u32));
            let root_depth = self.locs.get(formal_root).projs.len();
            for &leaf in self.ptr_leaves(formal_root).iter() {
                let projected = args
                    .get(i)
                    .and_then(|op| project_operand(op, &self.locs.get(leaf).projs[root_depth..]));
                let targets = match projected {
                    Some(op) => self.renv(caller).operand_r_locations(input, &op),
                    None => Vec::new(),
                };
                if targets.is_empty() {
                    st.raw.push((leaf, null, Def::D));
                    continue;
                }
                for (t, d) in definite_first(targets) {
                    let t2 = self.translate(callee, t, leaf, &mut st);
                    st.raw.push((leaf, t2, d));
                    self.enqueue_content(t, t2, 2, &mut st);
                }
            }
        }
        if args.len() > n_params && ir.function(callee).variadic {
            self.warn(format!(
                "extra variadic arguments to `{}` are not tracked",
                ir.function(callee).name
            ));
        }

        // --- globals keep their relationships -------------------------
        st.queue
            .extend(self.global_leaves.iter().map(|&leaf| (leaf, leaf, 1)));
        // --- the heap is visible everywhere ---------------------------
        let heap = self.locs.heap();
        st.queue.push_back((heap, heap, 1));
        // (extension) allocation-site heap locations are visible too
        st.queue
            .extend(self.locs.heap_sites().iter().map(|&site| (site, site, 1)));

        // --- propagate through all pointer levels ----------------------
        let max_depth = self.budget.max_map_depth();
        let mut pops: u32 = 0;
        while let Some((c_src, k_src, depth)) = st.queue.pop_front() {
            if depth > max_depth {
                return Err(AnalysisError::MapDepthBudget {
                    limit: max_depth,
                    at: self.map_trip(node, caller, callee),
                });
            }
            max_depth_seen = max_depth_seen.max(depth);
            pops += 1;
            if pops.is_multiple_of(256) {
                if let Err(e) = self.budget.check_deadline() {
                    return Err(self.exhausted(e, node, None));
                }
            }
            if !st.visited.insert(c_src) {
                continue;
            }
            // Definite targets first, each group in id order (the set
            // is sorted by target within a source).
            for pass in [Def::D, Def::P] {
                for (t, d) in input.targets(c_src).filter(|&(_, d)| d == pass) {
                    let t2 = self.translate(callee, t, k_src, &mut st);
                    st.raw.push((k_src, t2, d));
                    self.enqueue_content(t, t2, depth + 1, &mut st);
                }
            }
        }

        // --- assemble with definiteness rules --------------------------
        let mut callee_input = PtSet::new();
        self.null_init_function_vars(callee, &mut callee_input, false);
        let raw = std::mem::take(&mut st.raw);
        callee_input.weak_union(raw.into_iter().map(|(s, t, d)| {
            let d = if d == Def::D
                && self.rep_multiplicity(s, &st.sym_reps) <= 1
                && self.rep_multiplicity(t, &st.sym_reps) <= 1
            {
                Def::D
            } else {
                Def::P
            };
            (s, t, d)
        }));
        let mapping = Mapping {
            callee_input,
            sym_reps: st.sym_reps,
            mapped_sources: st.visited.iter().collect(),
        };
        if let Some(t0) = t0 {
            let dur_us = t0.elapsed().as_micros() as u64;
            let caller_name = ir.function(caller).name.clone();
            let callee_name = ir.function(callee).name.clone();
            let invisibles = mapping.sym_reps.len();
            let callee_pairs = mapping.callee_input.len();
            self.tracer.emit(|| TraceEvent::Map {
                caller: caller_name,
                callee: callee_name,
                invisibles,
                max_chain_depth: max_depth_seen,
                callee_pairs,
                dur_us,
            });
        }
        Ok(mapping)
    }

    /// Trip context for a budget that ran out while mapping a call.
    fn map_trip(&self, node: IgNodeId, caller: FuncId, callee: FuncId) -> crate::budget::TripPoint {
        crate::budget::TripPoint {
            function: self.ir.function(caller).name.clone(),
            ig_path: format!(
                "{} > {}",
                self.ig.path_to(self.ir, node),
                self.ir.function(callee).name
            ),
            stmt: None,
        }
    }

    /// How many invisible variables the (symbolic) base of `l` stands
    /// for (1 for non-symbolic locations).
    pub(crate) fn rep_multiplicity(&self, l: LocId, sym_reps: &MapInfo) -> usize {
        let d = self.locs.get(l);
        match d.base {
            LocBase::Symbolic(..) => {
                let base = self
                    .locs
                    .lookup(&d.base, &[])
                    .expect("symbolic base location interned");
                sym_reps.get(&base).map_or(1, |v| v.len().max(1))
            }
            _ => 1,
        }
    }

    /// Translates one caller location into the callee's name space.
    /// Visible locations (globals, heap, null, string storage,
    /// functions) keep their identity; invisible ones get (or reuse) a
    /// symbolic name derived from the callee-side pointer that reached
    /// them (`via`).
    fn translate(&mut self, callee: FuncId, t: LocId, via: LocId, st: &mut MapState) -> LocId {
        if self.loc_visible(t) {
            return t;
        }
        if let Some(&s) = st.tr.get(&t) {
            return s;
        }
        // Longest mapped prefix: `x.f` translates through `x`'s symbol.
        for k in (0..self.locs.get(t).projs.len()).rev() {
            let td = self.locs.get(t);
            let Some(prefix) = self.locs.lookup(&td.base, &td.projs[..k]) else {
                continue;
            };
            if let Some(&base_sym) = st.tr.get(&prefix) {
                // A step that fails keeps the deepest name reached.
                let cur = self
                    .locs
                    .project_path(base_sym, t, k, self.ir)
                    .unwrap_or_else(|reached| reached);
                st.tr.insert(t, cur);
                return cur;
            }
        }
        // Fresh symbolic name seeded from `via`.
        let (depth, root) = self.sym_seed(via);
        if depth > self.config.max_sym_depth {
            // k-limit: deeper invisibles collapse into `via` itself,
            // which becomes a (weak) multi-representative symbol.
            let via_base = self.sym_base_of(via).unwrap_or(via);
            st.sym_reps.entry(via_base).or_default().push(t);
            st.tr.insert(t, via);
            return via;
        }
        let name = format!("{depth}_{root}");
        let ty = self.locs.ty(t).cloned();
        let sym = self.locs.symbolic(callee, &name, depth, ty);
        st.tr.insert(t, sym);
        let reps = st.sym_reps.entry(sym).or_default();
        if !reps.contains(&t) {
            reps.push(t);
        }
        sym
    }

    /// True if the location is nameable in every scope.
    pub(crate) fn loc_visible(&self, l: LocId) -> bool {
        matches!(
            self.locs.get(l).base,
            LocBase::Global(_)
                | LocBase::Heap
                | LocBase::HeapSite(_)
                | LocBase::Null
                | LocBase::StrLit
                | LocBase::Function(_)
        )
    }

    /// Depth and root for a symbolic name derived from pointer `via`.
    fn sym_seed(&self, via: LocId) -> (u32, String) {
        let d = self.locs.get(via);
        match d.base {
            LocBase::Symbolic(..) => {
                let sd = self
                    .locs
                    .symbolic_data(
                        self.locs
                            .lookup(&d.base, &[])
                            .expect("symbolic base interned"),
                    )
                    .expect("symbolic data");
                // `1_x` → root `x`; keep any projections of `via`.
                let root = sd.name.split_once('_').map(|(_, r)| r).unwrap_or(&sd.name);
                let suffix = d.name.strip_prefix(&sd.name).unwrap_or("");
                (sd.depth + 1, format!("{root}{suffix}"))
            }
            _ => (1, d.name.clone()),
        }
    }

    fn sym_base_of(&self, l: LocId) -> Option<LocId> {
        let d = self.locs.get(l);
        match d.base {
            LocBase::Symbolic(..) => self.locs.lookup(&d.base, &[]),
            _ => None,
        }
    }

    /// Schedules the pointer content of caller location `t` (itself a
    /// mapped target) for mapping: each pointer leaf inside `t` pairs
    /// with the corresponding leaf of its callee-side name. `depth` is
    /// the indirection level the leaf sits at (budgeted).
    fn enqueue_content(&mut self, t: LocId, t2: LocId, depth: u32, st: &mut MapState) {
        if st.visited.contains(t) {
            return;
        }
        let base_depth = self.locs.get(t).projs.len();
        for &leaf in self.ptr_leaves(t).iter() {
            if let Ok(k_leaf) = self.locs.project_path(t2, leaf, base_depth, self.ir) {
                st.queue.push_back((leaf, k_leaf, depth));
            }
        }
    }
}

struct MapState {
    sym_reps: MapInfo,
    /// Caller location → callee-side name.
    tr: FxHashMap<LocId, LocId>,
    raw: Vec<(LocId, LocId, Def)>,
    visited: LocSet,
    /// `(caller loc, callee-side name, indirection depth)`.
    queue: VecDeque<(LocId, LocId, u32)>,
}

fn definite_first(mut v: Vec<(LocId, Def)>) -> Vec<(LocId, Def)> {
    v.sort_by_key(|(l, d)| (*d != Def::D, *l));
    v
}
