//! # pta-core — context-sensitive interprocedural points-to analysis
//!
//! A from-scratch implementation of Emami, Ghiya & Hendren,
//! *"Context-Sensitive Interprocedural Points-to Analysis in the
//! Presence of Function Pointers"* (PLDI 1994):
//!
//! - the **points-to abstraction** over abstract stack locations, with
//!   both *definite* and *possible* relationships ([`points_to_set`]);
//! - the **Table 1** L-location/R-location rules and the **Figure 1**
//!   compositional statement rules ([`lvalue`], intra rules);
//! - the **invocation graph** with recursive/approximate node pairs
//!   ([`invocation_graph`]), memoization, and the **Figure 4**
//!   fixed-point protocol;
//! - the **map/unmap** processes with symbolic names for invisible
//!   variables and per-context map information;
//! - **function pointers** handled during the analysis itself
//!   (**Figure 5**), growing the invocation graph incrementally;
//! - baseline analyses for comparison ([`baseline`]) and the statistics
//!   behind Tables 2–6 of the paper ([`stats`]).
//!
//! The simplest entry point runs the entire pipeline from C source:
//!
//! ```
//! let pta = pta_core::run_source(
//!     "int x, y;
//!      void set(int **p, int *v) { *p = v; }
//!      int main(void) { int *q; set(&q, &x); return *q; }",
//! )?;
//! let targets = pta.exit_targets_of("main", "q");
//! assert_eq!(targets, vec![("x".to_string(), pta_core::Def::D)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod analysis;
pub mod baseline;
pub mod budget;
pub mod callgraph;
pub mod dataflow;
pub mod demand;
pub mod dense;
pub mod fingerprint;
pub mod invocation_graph;
pub mod location;
pub mod lvalue;
pub mod points_to_set;
pub mod query;
pub mod resilient;
pub mod shared;
pub mod stats;
pub mod trace;

mod interproc;
mod intra;
mod map_process;
mod unmap;

pub use analysis::{
    analyze, analyze_recorded, analyze_seeded, analyze_traced, analyze_with, AnalysisConfig,
    AnalysisError, AnalysisResult, Capture, EngineRun, EscapeEvent, EscapeVia, MemoScope,
    PruneStats, WarmPair, WarmSeeds, WarmStart,
};
pub use budget::{Budget, BudgetKind, TripPoint};
pub use callgraph::{closure, cons_calls, CallGraph, ConsCall};
pub use dataflow::{
    solve, var_liveness, BitSet, CallEffects, Cfg, Direction, DomainLoc, FnFacts, InitFact,
    NodeKind, ProgramDataflow, Solution, SolveStats, Transfer, VarLivenessResult,
};
pub use demand::{
    analyze_demand, containing_function, DemandInfo, DemandMode, DemandOutcome, DemandPlan,
    FallbackReason, QueryRoot, DEFAULT_BUDGET_FRACTION,
};
pub use fingerprint::SCHEMA_VERSION;
pub use invocation_graph::{
    FragmentNode, IgFragment, IgKind, IgNode, IgNodeId, IgStats, InvocationGraph, MapInfo,
};
pub use location::{LocBase, LocId, LocationTable, Proj};
pub use points_to_set::{Def, Flow, PtSet};
pub use query::FactQuery;
pub use resilient::{analyze_resilient, analyze_resilient_traced, Fidelity, ResilientOutcome};
pub use shared::Shared;
pub use trace::{
    render_jsonl, ChromeTraceSink, EventSpec, FuncMetrics, JsonlSink, ServeEvent, TeeSink,
    TraceEvent, TraceMetrics, TraceSink, EVENT_SPECS, SERVE_EVENT_SPECS,
};

use pta_simple::{IrProgram, StmtId};
use std::error::Error;
use std::fmt;

/// Any error from the source-to-analysis pipeline.
#[derive(Debug)]
pub enum PtaError {
    /// Front-end (lex/parse/sema/lowering) failure.
    Frontend(pta_cfront::FrontendError),
    /// Analysis failure.
    Analysis(AnalysisError),
}

impl fmt::Display for PtaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PtaError::Frontend(e) => write!(f, "{e}"),
            PtaError::Analysis(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PtaError {}

impl From<pta_cfront::FrontendError> for PtaError {
    fn from(e: pta_cfront::FrontendError) -> Self {
        PtaError::Frontend(e)
    }
}

impl From<AnalysisError> for PtaError {
    fn from(e: AnalysisError) -> Self {
        PtaError::Analysis(e)
    }
}

/// A program together with its points-to analysis results — the
/// high-level facade most clients (and the examples) use.
#[derive(Debug)]
pub struct Pta {
    /// The program in SIMPLE form.
    pub ir: IrProgram,
    /// The analysis results.
    pub result: AnalysisResult,
}

/// Compiles C source and runs the full context-sensitive analysis.
///
/// # Errors
///
/// Returns a [`PtaError`] for front-end or analysis failures.
pub fn run_source(source: &str) -> Result<Pta, PtaError> {
    run_source_with(source, AnalysisConfig::default())
}

/// [`run_source`] with an explicit configuration.
///
/// # Errors
///
/// Returns a [`PtaError`] for front-end or analysis failures.
pub fn run_source_with(source: &str, config: AnalysisConfig) -> Result<Pta, PtaError> {
    let ir = pta_simple::compile(source)?;
    let result = analyze_with(&ir, config)?;
    Ok(Pta { ir, result })
}

/// Runs the analysis over an already-lowered program.
///
/// # Errors
///
/// Returns a [`PtaError::Analysis`] on analysis failure.
pub fn run_ir(ir: IrProgram) -> Result<Pta, PtaError> {
    let result = analyze(&ir)?;
    Ok(Pta { ir, result })
}

/// What [`run_source_resilient`] returns: the analysed program, the
/// ladder rung that produced the result, and the rungs that failed
/// first (with the budget error that pushed past each one).
pub type ResilientRun = (Pta, Fidelity, Vec<(Fidelity, AnalysisError)>);

/// [`run_source_with`] through the degradation ladder: budget-exhausted
/// runs fall back to cheaper analyses (see [`analyze_resilient`]), so
/// the returned [`Pta`] carries a [`Fidelity`]-tagged result instead of
/// a budget error.
///
/// # Errors
///
/// Returns a [`PtaError`] for front-end failures, non-recoverable
/// analysis failures, or an exhausted ladder.
pub fn run_source_resilient(
    source: &str,
    config: AnalysisConfig,
) -> Result<ResilientRun, PtaError> {
    let ir = pta_simple::compile(source)?;
    let outcome = analyze_resilient(&ir, config)?;
    Ok((
        Pta {
            ir,
            result: outcome.result,
        },
        outcome.fidelity,
        outcome.degradations,
    ))
}

/// [`run_source_resilient`] with a [`TraceSink`] attached: the
/// context-sensitive rung emits structured trace events (see the
/// [`trace`] module and `docs/TRACING.md`), and each ladder transition
/// is reported as a `rung` event. Baseline rungs run uninstrumented.
///
/// # Errors
///
/// Returns a [`PtaError`] for front-end failures, non-recoverable
/// analysis failures, or an exhausted ladder.
pub fn run_source_traced(
    source: &str,
    config: AnalysisConfig,
    sink: &mut dyn TraceSink,
) -> Result<ResilientRun, PtaError> {
    let ir = pta_simple::compile(source)?;
    let outcome = analyze_resilient_traced(&ir, config, sink)?;
    Ok((
        Pta {
            ir,
            result: outcome.result,
        },
        outcome.fidelity,
        outcome.degradations,
    ))
}

impl Pta {
    /// The location id of a named location, scoped to `func` when it is
    /// function-local. Accepts projected names like `s.a`, `buf[0]`,
    /// `a[1..]`, the distinguished `heap`/`strlit`, and symbolic names
    /// like `1_x`.
    pub fn loc_of(&self, func: &str, var: &str) -> Option<LocId> {
        // Try a global root first.
        for (gi, g) in self.ir.globals.iter().enumerate() {
            if g.name == var {
                let base = LocBase::Global(pta_cfront::ast::GlobalId(gi as u32));
                return self.result.locs.lookup(&base, &[]);
            }
        }
        if let Some((fid, f)) = self.ir.function_by_name(func) {
            if let Some(vi) = f.vars.iter().position(|v| v.name == var) {
                let base = LocBase::Var(fid, pta_simple::IrVarId(vi as u32));
                if let Some(id) = self.result.locs.lookup(&base, &[]) {
                    return Some(id);
                }
            }
        }
        // Fall back to a name scan over the interned locations, scoped
        // to `func` where applicable.
        let fid = self.ir.function_by_name(func).map(|(id, _)| id);
        for id in self.result.locs.ids() {
            if self.result.locs.name(id) != var {
                continue;
            }
            let scoped_elsewhere = match self.result.locs.get(id).base {
                LocBase::Var(f, _) | LocBase::Symbolic(f, _) | LocBase::Ret(f) => Some(f) != fid,
                _ => false,
            };
            if !scoped_elsewhere {
                return Some(id);
            }
        }
        None
    }

    /// Target names (with definiteness) of `var` in `func` at the given
    /// program point, NULL excluded, sorted by name.
    pub fn targets_at(&self, stmt: StmtId, func: &str, var: &str) -> Vec<(String, Def)> {
        let Some(src) = self.loc_of(func, var) else {
            return Vec::new();
        };
        let set = self.result.at(stmt);
        self.named_targets(&set, src)
    }

    /// Target names of `var` in the exit set of `main`.
    pub fn exit_targets_of(&self, func: &str, var: &str) -> Vec<(String, Def)> {
        let Some(src) = self.loc_of(func, var) else {
            return Vec::new();
        };
        self.named_targets(&self.result.exit_set, src)
    }

    fn named_targets(&self, set: &PtSet, src: LocId) -> Vec<(String, Def)> {
        let mut v: Vec<(String, Def)> = set
            .targets(src)
            .filter(|(t, _)| !self.result.locs.is_null(*t))
            .map(|(t, d)| (self.result.locs.name(t).to_owned(), d))
            .collect();
        v.sort();
        v
    }

    /// Finds the program point of the `n`-th basic statement (0-based)
    /// of `func` whose printed form contains `pattern`.
    pub fn find_stmt(&self, func: &str, pattern: &str, n: usize) -> Option<StmtId> {
        let (_, f) = self.ir.function_by_name(func)?;
        let body = f.body.as_ref()?;
        let mut hits = Vec::new();
        body.for_each_basic(&mut |b, id| {
            if pta_simple::printer::basic_str(&self.ir, f, b).contains(pattern) {
                hits.push(id);
            }
        });
        hits.get(n).copied()
    }

    /// The merged points-to pairs (names) at a program point, NULL
    /// excluded, sorted.
    pub fn pairs_at(&self, stmt: StmtId) -> Vec<(String, String, Def)> {
        let set = self.result.at(stmt);
        let mut v: Vec<(String, String, Def)> = set
            .iter()
            .filter(|(_, t, _)| !self.result.locs.is_null(*t))
            .map(|(s, t, d)| {
                (
                    self.result.locs.name(s).to_owned(),
                    self.result.locs.name(t).to_owned(),
                    d,
                )
            })
            .collect();
        v.sort();
        v
    }
}
