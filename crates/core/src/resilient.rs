//! Graceful degradation: budget-exhausted runs fall back to cheaper
//! analyses instead of failing.
//!
//! The paper's algorithm is worst-case exponential; real inputs (and the
//! stress generator in `pta-prop`) can trip any of the configured
//! budgets. Rather than surface an error, [`analyze_resilient`] walks a
//! ladder of strictly cheaper analyses — context-sensitive →
//! context-insensitive → Andersen → Steensgaard — and returns the first
//! one that completes, tagged with its [`Fidelity`] so tables and JSON
//! output can show the provenance of every number.
//!
//! Each rung is sound but coarser than the one above it (fewer kills,
//! more merging), so falling down the ladder loses precision, never
//! correctness. Every rung gets a *fresh* deadline: a caller asking for
//! a 2-second budget gets at most ~8 seconds worst-case (4 rungs), not
//! a ladder that dies because rung one consumed the whole allowance.
//! Rungs are additionally isolated with [`std::panic::catch_unwind`]: an
//! internal invariant failure in one engine degrades to the next engine
//! instead of aborting the caller (important for the fault-isolated
//! suite driver).

use crate::analysis::{AnalysisConfig, AnalysisError, AnalysisResult};
use crate::baseline::{
    andersen_budgeted, insensitive_budgeted, steensgaard_budgeted, SteensgaardResult,
};
use crate::invocation_graph::InvocationGraph;
use crate::points_to_set::{Def, PtSet};
use crate::trace::{TraceEvent, TraceSink};
use pta_simple::{IrProgram, StmtId};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Which analysis produced a result — the provenance tag of the
/// degradation ladder, ordered from most to least precise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fidelity {
    /// The paper's full context-sensitive analysis completed.
    ContextSensitive,
    /// Fell back to the context-insensitive flow-sensitive baseline.
    ContextInsensitive,
    /// Fell back to the Andersen-style flow-insensitive baseline.
    Andersen,
    /// Fell back to the Steensgaard-style unification baseline.
    Steensgaard,
}

impl Fidelity {
    /// Short machine-readable tag (used in JSON output).
    pub fn tag(self) -> &'static str {
        match self {
            Fidelity::ContextSensitive => "context-sensitive",
            Fidelity::ContextInsensitive => "context-insensitive",
            Fidelity::Andersen => "andersen",
            Fidelity::Steensgaard => "steensgaard",
        }
    }

    /// True when this is a full-precision analysis (no degradation).
    pub fn is_full(self) -> bool {
        self == Fidelity::ContextSensitive
    }
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A result plus the record of how it was obtained.
#[derive(Debug)]
pub struct ResilientOutcome {
    /// The analysis result (shape-compatible with the full analysis;
    /// fallback rungs carry an empty invocation graph).
    pub result: AnalysisResult,
    /// Which rung of the ladder produced `result`.
    pub fidelity: Fidelity,
    /// The rungs that failed before `fidelity` succeeded, with the
    /// error that pushed the ladder past each one.
    pub degradations: Vec<(Fidelity, AnalysisError)>,
}

impl ResilientOutcome {
    /// Human-readable one-line provenance, e.g.
    /// `"andersen (degraded: context-sensitive: …; context-insensitive: …)"`.
    pub fn provenance(&self) -> String {
        if self.degradations.is_empty() {
            return self.fidelity.to_string();
        }
        let why: Vec<String> = self
            .degradations
            .iter()
            .map(|(f, e)| format!("{f}: {e}"))
            .collect();
        format!("{} (degraded: {})", self.fidelity, why.join("; "))
    }
}

/// Runs the ladder: full context-sensitive analysis under `config`'s
/// budgets, then progressively cheaper baselines on recoverable errors.
///
/// # Errors
///
/// Non-recoverable errors ([`AnalysisError::NoEntry`],
/// [`AnalysisError::Unsupported`]) propagate from the first rung that
/// reports one; they would fail identically on every rung. If every
/// rung fails recoverably, the *last* error is returned (the ladder is
/// exhausted — with Steensgaard near-linear this effectively requires a
/// pathological deadline).
pub fn analyze_resilient(
    ir: &IrProgram,
    config: AnalysisConfig,
) -> Result<ResilientOutcome, AnalysisError> {
    resilient_impl(ir, config, None)
}

/// [`analyze_resilient`] with a [`TraceSink`] attached: the
/// context-sensitive rung runs fully instrumented (see
/// [`crate::analysis::analyze_traced`]), and every ladder transition is
/// reported as a `rung` event. The baseline rungs themselves run
/// uninstrumented — they are the fallback path, not the engine the
/// trace layer profiles — so a degraded run's stream ends with its
/// `rung` events.
///
/// # Errors
///
/// As [`analyze_resilient`].
pub fn analyze_resilient_traced(
    ir: &IrProgram,
    config: AnalysisConfig,
    sink: &mut dyn TraceSink,
) -> Result<ResilientOutcome, AnalysisError> {
    resilient_impl(ir, config, Some(sink))
}

fn resilient_impl(
    ir: &IrProgram,
    config: AnalysisConfig,
    mut sink: Option<&mut dyn TraceSink>,
) -> Result<ResilientOutcome, AnalysisError> {
    let mut degradations: Vec<(Fidelity, AnalysisError)> = Vec::new();

    let rungs: [(Fidelity, RunFn); 4] = [
        (Fidelity::ContextSensitive, run_full),
        (Fidelity::ContextInsensitive, run_insensitive),
        (Fidelity::Andersen, run_andersen),
        (Fidelity::Steensgaard, run_steensgaard),
    ];
    for (i, (fidelity, run)) in rungs.iter().enumerate() {
        let traced = sink.as_deref_mut().filter(|_| fidelity.is_full());
        let attempt = match traced {
            Some(s) => catch_unwind(AssertUnwindSafe(|| {
                crate::analysis::analyze_traced(ir, config.clone(), s)
            })),
            None => catch_unwind(AssertUnwindSafe(|| run(ir, &config))),
        }
        .unwrap_or_else(|p| Err(AnalysisError::Internal(panic_message(&*p))));
        match attempt {
            Ok(result) => {
                return Ok(ResilientOutcome {
                    result,
                    fidelity: *fidelity,
                    degradations,
                })
            }
            Err(e) if e.is_recoverable() => {
                if let (Some(s), Some((next, _))) = (sink.as_deref_mut(), rungs.get(i + 1)) {
                    // Between engine runs no trace clock is active, so
                    // rung events carry ts_us 0.
                    s.event(
                        0,
                        &TraceEvent::Rung {
                            from: fidelity.tag(),
                            to: next.tag(),
                            reason: e.to_string(),
                        },
                    );
                }
                degradations.push((*fidelity, e));
            }
            Err(e) => return Err(e),
        }
    }
    // Ladder exhausted: every rung tripped a budget (or panicked).
    let (_, last) = degradations
        .pop()
        .unwrap_or((Fidelity::Steensgaard, AnalysisError::NoEntry));
    Err(last)
}

type RunFn = fn(&IrProgram, &AnalysisConfig) -> Result<AnalysisResult, AnalysisError>;

fn run_full(ir: &IrProgram, config: &AnalysisConfig) -> Result<AnalysisResult, AnalysisError> {
    crate::analysis::analyze_with(ir, config.clone())
}

fn run_insensitive(
    ir: &IrProgram,
    config: &AnalysisConfig,
) -> Result<AnalysisResult, AnalysisError> {
    let r = insensitive_budgeted(ir, config.deadline)?;
    Ok(AnalysisResult {
        locs: r.locs,
        ig: InvocationGraph::empty(),
        per_stmt: r.per_stmt,
        exit_set: r.exit_set,
        warnings: Vec::new(),
        escapes: Vec::new(),
        prune: Default::default(),
    })
}

fn run_andersen(ir: &IrProgram, config: &AnalysisConfig) -> Result<AnalysisResult, AnalysisError> {
    let r = andersen_budgeted(ir, config.deadline)?;
    Ok(AnalysisResult {
        locs: r.locs,
        ig: InvocationGraph::empty(),
        per_stmt: replicate(ir, &r.solution),
        exit_set: r.solution,
        warnings: Vec::new(),
        escapes: Vec::new(),
        prune: Default::default(),
    })
}

fn run_steensgaard(
    ir: &IrProgram,
    config: &AnalysisConfig,
) -> Result<AnalysisResult, AnalysisError> {
    let r = steensgaard_budgeted(ir, config.deadline)?;
    let sol = steensgaard_pairs(&r);
    Ok(AnalysisResult {
        locs: r.locs,
        ig: InvocationGraph::empty(),
        per_stmt: replicate(ir, &sol),
        exit_set: sol,
        warnings: Vec::new(),
        escapes: Vec::new(),
        prune: Default::default(),
    })
}

/// Materializes Steensgaard's storage classes as (possible) points-to
/// pairs so the result is shape-compatible with the other engines.
fn steensgaard_pairs(r: &SteensgaardResult) -> PtSet {
    let mut sol = PtSet::new();
    for s in r.locs.ids() {
        for t in r.targets(s) {
            sol.insert(s, t, Def::P);
        }
    }
    sol
}

/// A flow-insensitive engine has one global solution; use it at every
/// program point so per-statement consumers (the statistics tables)
/// keep working.
fn replicate(ir: &IrProgram, sol: &PtSet) -> BTreeMap<StmtId, PtSet> {
    let mut m = BTreeMap::new();
    for f in &ir.functions {
        let Some(body) = &f.body else { continue };
        body.for_each_basic(&mut |_, id| {
            m.insert(id, sol.clone());
        });
    }
    m
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = p.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        String::from("panic: <non-string payload>")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const PROG: &str = "int x, y;
         void set(int **p, int *v) { *p = v; }
         int main(void) { int *q; set(&q, &x); q = &y; return *q; }";

    #[test]
    fn full_precision_when_budgets_suffice() {
        let ir = pta_simple::compile(PROG).unwrap();
        let out = analyze_resilient(&ir, AnalysisConfig::default()).unwrap();
        assert_eq!(out.fidelity, Fidelity::ContextSensitive);
        assert!(out.degradations.is_empty());
        assert!(out.fidelity.is_full());
    }

    #[test]
    fn step_budget_degrades_to_insensitive() {
        let ir = pta_simple::compile(PROG).unwrap();
        let config = AnalysisConfig {
            max_steps: 1,
            ..AnalysisConfig::default()
        };
        let out = analyze_resilient(&ir, config).unwrap();
        assert_eq!(out.fidelity, Fidelity::ContextInsensitive);
        assert_eq!(out.degradations.len(), 1);
        assert!(matches!(
            out.degradations[0].1,
            AnalysisError::StepBudget { limit: 1, .. }
        ));
        assert!(out.provenance().contains("degraded"));
    }

    #[test]
    fn ig_budget_degrades_and_keeps_answers() {
        let ir = pta_simple::compile(PROG).unwrap();
        let config = AnalysisConfig {
            max_ig_nodes: 1,
            ..AnalysisConfig::default()
        };
        let out = analyze_resilient(&ir, config).unwrap();
        assert_eq!(out.fidelity, Fidelity::ContextInsensitive);
        // The fallback still knows q's final target.
        assert!(!out.result.exit_set.is_empty());
    }

    #[test]
    fn program_scope_keeps_the_context_sensitive_rung() {
        let ir = pta_simple::compile(PROG).unwrap();
        let config = AnalysisConfig {
            memo: crate::analysis::MemoScope::Program,
            ..AnalysisConfig::default()
        };
        let out = analyze_resilient(&ir, config.clone()).unwrap();
        assert_eq!(out.fidelity, Fidelity::ContextSensitive);
        assert!(out.degradations.is_empty());
        let out = analyze_resilient(
            &ir,
            AnalysisConfig {
                max_steps: 1,
                ..config
            },
        )
        .unwrap();
        assert_eq!(out.fidelity, Fidelity::ContextInsensitive);
        assert_eq!(out.degradations[0].0, Fidelity::ContextSensitive);
    }

    #[test]
    fn zero_deadline_exhausts_the_whole_ladder() {
        let ir = pta_simple::compile(PROG).unwrap();
        let config = AnalysisConfig {
            deadline: Some(Duration::ZERO),
            ..AnalysisConfig::default()
        };
        let err = analyze_resilient(&ir, config).unwrap_err();
        assert!(matches!(err, AnalysisError::Deadline { .. }), "{err:?}");
    }

    #[test]
    fn no_entry_is_not_recoverable() {
        let ir = pta_simple::compile("int f(void) { return 0; }").unwrap();
        let err = analyze_resilient(&ir, AnalysisConfig::default()).unwrap_err();
        assert_eq!(err, AnalysisError::NoEntry);
    }
}
