//! The unmap process (§4.1): translates the callee's output points-to
//! set back into the caller's name space at the call site.
//!
//! Symbolic names are replaced by the invisible variables they
//! represent (per the map information); globals translate to
//! themselves; relationships involving the callee's own variables are
//! dropped (their storage is dead after the return). Mapped caller
//! locations with a unique, non-summary name are *strongly* replaced by
//! the callee's facts; summaries and multi-representative invisibles
//! are updated weakly.

use crate::analysis::{Analyzer, EscapeEvent, EscapeVia};
use crate::dense::FxHashMap;
use crate::invocation_graph::MapInfo;
use crate::location::{LocBase, LocId};
use crate::points_to_set::{Def, PtSet};
use crate::trace::TraceEvent;
use pta_cfront::ast::FuncId;
use pta_simple::CallSiteId;

impl<'p> Analyzer<'p> {
    /// Translates `callee_out` back to the caller, starting from the
    /// caller's `input` at the call site.
    pub(crate) fn unmap_process(
        &mut self,
        cs: CallSiteId,
        callee: FuncId,
        input: &PtSet,
        callee_out: &PtSet,
        sym_reps: &MapInfo,
        mapped_sources: &[LocId],
    ) -> PtSet {
        let t0 = self.tracer.now();
        let mut out = input.clone();
        let rev = reverse_map(sym_reps);

        // Strong replacement (kill) for uniquely-named non-summary
        // sources; weak (demote) for the rest. `mapped_sources` is in
        // ascending id order.
        let retire: Vec<(LocId, bool)> = mapped_sources
            .iter()
            .map(|&l| {
                let unique = match rev.get(&l) {
                    Some(sym) => sym_reps.get(sym).map_or(1, |r| r.len()) == 1,
                    None => true, // visible location: named by itself
                };
                (l, unique && !self.locs.is_summary(l))
            })
            .collect();
        out.kill_or_demote(&retire);

        let mut gen = Vec::with_capacity(callee_out.len());
        let (mut srcs, mut tgts) = (Vec::new(), Vec::new());
        for (s, t, d) in callee_out.iter() {
            // Visible endpoints name themselves in the caller.
            if self.loc_visible(s) && self.loc_visible(t) {
                gen.push((s, t, d));
                continue;
            }
            srcs.clear();
            self.rtr(callee, s, sym_reps, &mut srcs);
            if srcs.is_empty() {
                continue;
            }
            tgts.clear();
            self.rtr(callee, t, sym_reps, &mut tgts);
            if tgts.is_empty() {
                if self.is_callee_local(callee, t) {
                    self.warn(format!(
                        "address of a local of `{}` escapes through its caller (dangling pointer dropped)",
                        self.ir.function(callee).name
                    ));
                    let local = self.locs.name(t).to_owned();
                    self.escape(EscapeEvent {
                        callee,
                        call_site: cs,
                        via: EscapeVia::Unmap,
                        local,
                        def: d,
                    });
                }
                continue;
            }
            let d2 = if d == Def::D && srcs.len() == 1 && tgts.len() == 1 {
                Def::D
            } else {
                Def::P
            };
            for &s2 in &srcs {
                gen.extend(tgts.iter().map(|&t2| (s2, t2, d2)));
            }
        }
        out.weak_union(gen);
        if let Some(t0) = t0 {
            let dur_us = t0.elapsed().as_micros() as u64;
            let callee_name = self.ir.function(callee).name.clone();
            let (callee_pairs, caller_pairs) = (callee_out.len(), out.len());
            self.tracer.emit(|| TraceEvent::Unmap {
                callee: callee_name,
                callee_pairs,
                caller_pairs,
                dur_us,
            });
        }
        out
    }

    /// Reverse-translates one callee location to caller locations,
    /// appended to `out`. Appends nothing for locations scoped to the
    /// callee.
    pub(crate) fn rtr(
        &mut self,
        callee: FuncId,
        l: LocId,
        sym_reps: &MapInfo,
        out: &mut Vec<LocId>,
    ) {
        let d = self.locs.get(l);
        match d.base {
            LocBase::Symbolic(f, _) if f == callee => {
                let Some(base) = self.locs.lookup(&d.base, &[]) else {
                    return;
                };
                let Some(reps) = sym_reps.get(&base) else {
                    return;
                };
                for &rep in reps {
                    if let Ok(cur) = self.locs.project_path(rep, l, 0, self.ir) {
                        if !out.contains(&cur) {
                            out.push(cur);
                        }
                    }
                }
            }
            // Variables and return slots of the callee die with it;
            // those of some *other* function (and symbols of other
            // functions) should never appear in a callee's output and
            // are dropped defensively.
            LocBase::Var(..) | LocBase::Ret(_) | LocBase::Symbolic(..) => {}
            _ => out.push(l),
        }
    }

    pub(crate) fn is_callee_local(&self, callee: FuncId, l: LocId) -> bool {
        matches!(self.locs.get(l).base, LocBase::Var(f, _) if f == callee)
    }
}

/// Invisible caller location → the symbolic name standing for it (the
/// last one in map order when several do).
fn reverse_map(sym_reps: &MapInfo) -> FxHashMap<LocId, LocId> {
    let mut rev = FxHashMap::default();
    for (sym, reps) in sym_reps {
        for &r in reps {
            rev.insert(r, *sym);
        }
    }
    rev
}
