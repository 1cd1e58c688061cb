//! Demand-driven (lazy) query evaluation: answer one query by running
//! the context-sensitive engine over a *slice* of the program instead
//! of all of it.
//!
//! A query root is a program point inside a function — the statement a
//! `points-to`/`aliases?` request names, a call site whose targets are
//! asked for, or one lint check's use site. The slice is computed on
//! the *conservative* call graph (direct edges plus, at every indirect
//! call site, edges to all address-taken defined functions — so
//! unresolved function pointers widen the slice rather than shrink
//! it):
//!
//! 1. **Ancestors** (`Anc`): every function from which a root function
//!    is reachable. Calls between ancestor functions ("chain sites")
//!    carry exact flow down to the roots, so ancestors are analysed in
//!    full.
//! 2. **Pre sites**: within each ancestor, the call sites from which a
//!    target (a root statement or chain site) is still reachable
//!    *strictly afterwards* in the CFG. Their effects flow into a
//!    target, so everything such a site can transitively call joins
//!    the slice too.
//! 3. Every call to a function **outside** the slice is skipped by the
//!    engine (treated as the identity flow). By construction those
//!    calls post-dominate every target, so the facts *at the roots*
//!    are byte-identical to the exhaustive run — the equivalence the
//!    suite, property, and stress gates assert (docs/QUERIES.md).
//!
//! When the slice exceeds a budgeted fraction of the reachable
//! program, or the query is whole-program in nature (exit-set queries,
//! full lint, `report`), the caller falls back to the exhaustive
//! engine; [`analyze_demand`] also falls back when the sliced run
//! itself trips a resource budget.

use std::collections::{BTreeSet, VecDeque};

use crate::analysis::{analyze_with, AnalysisConfig, AnalysisError, AnalysisResult};
use crate::callgraph::{closure, CallGraph};
use crate::dataflow::Cfg;
use pta_cfront::ast::FuncId;
use pta_simple::{IrProgram, Stmt, StmtId};

/// Default ceiling on `|slice| / |reachable|` before a demand run
/// falls back to the exhaustive engine: beyond this, slicing overhead
/// buys too little.
pub const DEFAULT_BUDGET_FRACTION: f64 = 0.75;

/// A query root: a program point inside a defined function.
pub type QueryRoot = (FuncId, StmtId);

/// The slice a demand run analyses, as planned by [`plan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemandInfo {
    /// Functions analysed in full; calls to functions outside this set
    /// are skipped by the engine.
    pub slice: BTreeSet<FuncId>,
    /// The query roots the slice was computed for.
    pub roots: Vec<QueryRoot>,
    /// Functions reachable from `main` on the conservative call graph
    /// (the denominator of the budget fraction).
    pub reachable: usize,
    /// True when an unresolved indirect call widened the slice (its
    /// conservative targets — every address-taken defined function —
    /// joined it).
    pub widened: bool,
}

/// Why a demand request was (or must be) answered by the exhaustive
/// engine instead of a sliced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The query has no single root: exit-set queries, full lint,
    /// whole-program reports, or a program without an entry function.
    WholeProgram,
    /// The root names a statement outside the named function (or a
    /// function without a body).
    UnknownRoot,
    /// The slice exceeded the budgeted fraction of the reachable
    /// program.
    SliceOverBudget,
    /// The sliced run tripped a resource budget; the exhaustive run
    /// is the authoritative answer.
    EngineError,
}

impl FallbackReason {
    /// Stable tag for traces, metrics, and JSON artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            FallbackReason::WholeProgram => "whole-program",
            FallbackReason::UnknownRoot => "unknown-root",
            FallbackReason::SliceOverBudget => "slice-over-budget",
            FallbackReason::EngineError => "engine-error",
        }
    }
}

/// The outcome of [`plan`]: run a sliced analysis, or fall back.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandPlan {
    /// Analyse the slice.
    Run(DemandInfo),
    /// Use the exhaustive engine.
    Fallback(FallbackReason),
}

/// How [`analyze_demand`] produced its result.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandMode {
    /// A sliced run answered the query.
    Sliced(DemandInfo),
    /// The exhaustive engine answered (reason attached).
    Fallback(FallbackReason),
}

/// An analysis result together with how it was obtained.
#[derive(Debug)]
pub struct DemandOutcome {
    /// The analysis result — sliced or exhaustive; at the query roots
    /// the two are equivalent.
    pub result: AnalysisResult,
    /// Sliced, or fallback and why.
    pub mode: DemandMode,
}

/// True if `stmt` is one of `body`'s program points (basic statements,
/// control tests, and `break`/`continue` points all count).
pub fn stmt_in_body(body: &Stmt, stmt: StmtId) -> bool {
    match body {
        Stmt::Basic(_, id) | Stmt::Break(id) | Stmt::Continue(id) => *id == stmt,
        Stmt::Seq(stmts) => stmts.iter().any(|s| stmt_in_body(s, stmt)),
        Stmt::If {
            then_s, else_s, id, ..
        } => {
            *id == stmt
                || stmt_in_body(then_s, stmt)
                || else_s.as_ref().is_some_and(|e| stmt_in_body(e, stmt))
        }
        Stmt::While {
            pre_cond, body, id, ..
        }
        | Stmt::DoWhile {
            pre_cond, body, id, ..
        } => *id == stmt || stmt_in_body(pre_cond, stmt) || stmt_in_body(body, stmt),
        Stmt::For {
            init,
            pre_cond,
            step,
            body,
            id,
            ..
        } => {
            *id == stmt
                || stmt_in_body(init, stmt)
                || stmt_in_body(pre_cond, stmt)
                || stmt_in_body(step, stmt)
                || stmt_in_body(body, stmt)
        }
        Stmt::Switch { arms, id, .. } => {
            *id == stmt || arms.iter().any(|a| stmt_in_body(&a.body, stmt))
        }
    }
}

/// The defined function whose body contains program point `stmt`.
pub fn containing_function(ir: &IrProgram, stmt: StmtId) -> Option<FuncId> {
    ir.defined_functions()
        .find(|(_, f)| f.body.as_ref().is_some_and(|b| stmt_in_body(b, stmt)))
        .map(|(fid, _)| fid)
}

/// Plans the slice for a set of query roots (see the module docs for
/// the algorithm). `budget_fraction` caps `|slice| / |reachable|`.
/// The conservative call graph comes from the shared
/// [`crate::callgraph`] module.
pub fn plan(ir: &IrProgram, roots: &[QueryRoot], budget_fraction: f64) -> DemandPlan {
    if roots.is_empty() {
        return DemandPlan::Fallback(FallbackReason::WholeProgram);
    }
    let Some(entry) = ir.entry else {
        return DemandPlan::Fallback(FallbackReason::WholeProgram);
    };
    for (fid, stmt) in roots {
        let ok = (fid.0 as usize) < ir.functions.len()
            && ir
                .function(*fid)
                .body
                .as_ref()
                .is_some_and(|b| stmt_in_body(b, *stmt));
        if !ok {
            return DemandPlan::Fallback(FallbackReason::UnknownRoot);
        }
    }

    let cg = CallGraph::build(ir);
    let calls = &cg.calls;

    let reachable = closure(&cg.succs, [entry]);
    let anc = closure(&cg.preds, roots.iter().map(|(f, _)| *f));

    // Per ancestor: targets are its root statements plus its chain
    // sites (calls that may enter another ancestor); a call site is a
    // "pre" site when a target is reachable strictly after it.
    let mut widened = false;
    let mut pre_callees: BTreeSet<FuncId> = BTreeSet::new();
    for &a in &anc {
        let func = ir.function(a);
        let Some(body) = func.body.as_ref() else {
            continue;
        };
        let empty = Vec::new();
        let a_calls = calls.get(&a).unwrap_or(&empty);
        let mut targets: BTreeSet<StmtId> = roots
            .iter()
            .filter(|(f, _)| *f == a)
            .map(|(_, s)| *s)
            .collect();
        for c in a_calls {
            if c.callees.iter().any(|g| anc.contains(g)) {
                targets.insert(c.stmt);
                if c.indirect {
                    widened = true;
                }
            }
        }
        if targets.is_empty() {
            continue;
        }
        let cfg = Cfg::build(body);
        // Backward closure: nodes from which a target is reachable.
        let mut reaches = vec![false; cfg.nodes.len()];
        let mut work: VecDeque<usize> = (0..cfg.nodes.len())
            .filter(|&n| cfg.stmt_of(n).is_some_and(|s| targets.contains(&s)))
            .collect();
        while let Some(n) = work.pop_front() {
            if reaches[n] {
                continue;
            }
            reaches[n] = true;
            work.extend(cfg.preds[n].iter().copied());
        }
        for c in a_calls {
            let is_pre = (0..cfg.nodes.len()).any(|n| {
                cfg.stmt_of(n) == Some(c.stmt) && cfg.succs[n].iter().any(|&s| reaches[s])
            });
            if is_pre {
                if c.indirect {
                    widened = true;
                }
                pre_callees.extend(c.callees.iter().copied());
            }
        }
    }

    let mut slice = anc;
    slice.extend(closure(&cg.succs, pre_callees));
    if (slice.len() as f64) > budget_fraction * (reachable.len() as f64) {
        return DemandPlan::Fallback(FallbackReason::SliceOverBudget);
    }
    DemandPlan::Run(DemandInfo {
        slice,
        roots: roots.to_vec(),
        reachable: reachable.len(),
        widened,
    })
}

/// Analyses just enough of the program to answer queries at `roots`,
/// falling back to the exhaustive engine when no valid slice exists,
/// the slice is over budget, or the sliced run trips a resource
/// budget. At the roots, the result is equivalent to the exhaustive
/// one either way.
///
/// # Errors
///
/// Only when the *exhaustive* fallback itself fails ([`AnalysisError`]).
pub fn analyze_demand(
    ir: &IrProgram,
    config: &AnalysisConfig,
    roots: &[QueryRoot],
) -> Result<DemandOutcome, AnalysisError> {
    let exhaustive = AnalysisConfig {
        demand: None,
        ..config.clone()
    };
    let fallback = |reason| -> Result<DemandOutcome, AnalysisError> {
        Ok(DemandOutcome {
            result: analyze_with(ir, exhaustive.clone())?,
            mode: DemandMode::Fallback(reason),
        })
    };
    match plan(ir, roots, DEFAULT_BUDGET_FRACTION) {
        DemandPlan::Fallback(reason) => fallback(reason),
        DemandPlan::Run(info) => {
            let sliced = AnalysisConfig {
                demand: Some(info.clone()),
                ..config.clone()
            };
            match analyze_with(ir, sliced) {
                Ok(result) => Ok(DemandOutcome {
                    result,
                    mode: DemandMode::Sliced(info),
                }),
                // A sliced run can trip budgets the exhaustive run
                // would not (skipped calls change fan-out); the
                // exhaustive engine is the authority then.
                Err(_) => fallback(FallbackReason::EngineError),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_simple::compile;

    const CHAIN: &str = "
        int g;
        void leaf(int **p) { *p = &g; }
        void mid(int **p) { leaf(p); }
        void side(void) { int x; x = 1; }
        int main(void) { int *q; side(); mid(&q); return *q; }
    ";

    fn first_basic(ir: &IrProgram, name: &str) -> (FuncId, StmtId) {
        let (fid, f) = ir.function_by_name(name).unwrap();
        let mut first = None;
        f.body.as_ref().unwrap().for_each_basic(&mut |_, id| {
            if first.is_none() {
                first = Some(id);
            }
        });
        (fid, first.unwrap())
    }

    #[test]
    fn slice_excludes_post_dominated_side_calls() {
        let ir = compile(CHAIN).unwrap();
        let root = first_basic(&ir, "leaf");
        let DemandPlan::Run(info) = plan(&ir, &[root], 1.0) else {
            panic!("expected a sliced plan");
        };
        let names: Vec<&str> = info
            .slice
            .iter()
            .map(|f| ir.function(*f).name.as_str())
            .collect();
        assert!(names.contains(&"leaf") && names.contains(&"mid") && names.contains(&"main"));
        // `side()` runs before the chain call in `main`, but it is not
        // an ancestor and nothing it calls flows into the root… it IS
        // a pre site though (it precedes the chain call), so it joins.
        assert!(names.contains(&"side"), "{names:?}");
        assert!(!info.widened);
        assert_eq!(info.reachable, 4);
    }

    #[test]
    fn roots_after_every_call_keep_the_slice_small() {
        // The only call in main() happens before the root statement in
        // side(), and side() calls nothing: slice = {main, side}.
        let src = "
            int g;
            void helper(void) { int y; y = 2; }
            void side(void) { int x; x = 1; }
            int main(void) { int *q; q = &g; side(); return 0; }
        ";
        let ir = compile(src).unwrap();
        let root = first_basic(&ir, "side");
        let DemandPlan::Run(info) = plan(&ir, &[root], 1.0) else {
            panic!("expected a sliced plan");
        };
        let names: Vec<&str> = info
            .slice
            .iter()
            .map(|f| ir.function(*f).name.as_str())
            .collect();
        assert!(names.contains(&"side") && names.contains(&"main"));
        assert!(!names.contains(&"helper"), "{names:?}");
    }

    #[test]
    fn whole_program_and_unknown_roots_fall_back() {
        let ir = compile(CHAIN).unwrap();
        assert_eq!(
            plan(&ir, &[], 1.0),
            DemandPlan::Fallback(FallbackReason::WholeProgram)
        );
        let (main, _) = ir.function_by_name("main").unwrap();
        assert_eq!(
            plan(&ir, &[(main, StmtId(u32::MAX))], 1.0),
            DemandPlan::Fallback(FallbackReason::UnknownRoot)
        );
    }

    #[test]
    fn tiny_budget_forces_fallback() {
        let ir = compile(CHAIN).unwrap();
        let root = first_basic(&ir, "leaf");
        assert_eq!(
            plan(&ir, &[root], 0.0),
            DemandPlan::Fallback(FallbackReason::SliceOverBudget)
        );
    }

    #[test]
    fn indirect_calls_widen_the_slice() {
        let src = "
            int g;
            void a(int **p) { *p = &g; }
            void b(int **p) { *p = 0; }
            int main(void) {
                int *q;
                void (*fp)(int **);
                fp = a;
                fp(&q);
                return *q;
            }
        ";
        let ir = compile(src).unwrap();
        let root = first_basic(&ir, "a");
        let DemandPlan::Run(info) = plan(&ir, &[root], 1.0) else {
            panic!("expected a sliced plan");
        };
        assert!(info.widened);
    }

    #[test]
    fn demand_facts_match_exhaustive_at_the_root() {
        let ir = compile(CHAIN).unwrap();
        let config = AnalysisConfig::default();
        let full = analyze_with(&ir, config.clone()).unwrap();
        // Rooting in `side` slices out the `mid`/`leaf` chain that runs
        // after it (2 of 4 functions), fitting the default budget.
        let root = first_basic(&ir, "side");
        let out = analyze_demand(&ir, &config, &[root]).unwrap();
        let DemandMode::Sliced(info) = &out.mode else {
            panic!("expected a sliced run, got {:?}", out.mode);
        };
        assert_eq!(info.slice.len(), 2);
        let name = |r: &AnalysisResult, set: &crate::PtSet| {
            let mut v: Vec<(String, String)> = set
                .iter()
                .map(|(s, t, _)| (r.locs.name(s).to_owned(), r.locs.name(t).to_owned()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(
            name(&full, &full.at(root.1)),
            name(&out.result, &out.result.at(root.1))
        );
    }

    #[test]
    fn containing_function_walks_control_points() {
        let ir = compile(CHAIN).unwrap();
        let (leaf, _) = ir.function_by_name("leaf").unwrap();
        let root = first_basic(&ir, "leaf");
        assert_eq!(containing_function(&ir, root.1), Some(leaf));
        assert_eq!(containing_function(&ir, StmtId(ir.n_stmts)), None);
    }
}
