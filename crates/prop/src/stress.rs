//! The stress harness: feed generated pathological programs (see
//! [`crate::cgen`]) through the resilient analysis pipeline under tight
//! budgets, and check the three robustness invariants:
//!
//! 1. **termination** — every run finishes within its (generous outer)
//!    deadline because the budgets trip cooperatively;
//! 2. **no panics** — a panic anywhere in the pipeline is caught and
//!    reported as a harness failure, never a crash;
//! 3. **tagged fidelity** — whatever comes back is either a
//!    full-precision result or one explicitly tagged with the fallback
//!    rung that produced it.
//!
//! Everything is seeded, so any failing case prints the seed needed to
//! replay it exactly.

use crate::{case_seed, cgen, Rng};
use pta_core::{AnalysisConfig, Fidelity, MemoScope};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Knobs for a stress run.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Number of generated programs to run.
    pub cases: u32,
    /// Base seed; each case derives its own seed from it.
    pub seed: u64,
    /// Per-analysis deadline in milliseconds (each ladder rung gets a
    /// fresh one).
    pub deadline_ms: u64,
    /// Step budget used for the tight-budget cases.
    pub tight_steps: u64,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            cases: 64,
            seed: crate::DEFAULT_SEED,
            deadline_ms: 2_000,
            // Low enough that the generated programs reliably trip it
            // (the analyser counts coarse per-statement steps).
            tight_steps: 25,
        }
    }
}

/// What happened to one generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Analysis completed; `Fidelity::ContextSensitive` means no rung
    /// was skipped, anything else is a tagged degradation.
    Analysed(Fidelity),
    /// The whole ladder tripped its budgets — acceptable (it
    /// terminated, with provenance), but worth counting separately.
    LadderExhausted(String),
    /// Invariant violation: the pipeline panicked or returned a
    /// non-recoverable error on a generated (valid) program.
    Failed(String),
}

/// One case's record, sufficient to replay it.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Case index within the run.
    pub case: u32,
    /// Seed that regenerates this exact program.
    pub seed: u64,
    /// Which generator family produced the program.
    pub family: &'static str,
    /// Whether the tight step budget was applied.
    pub tight: bool,
    /// Whether the case was additionally answered in demand mode and
    /// checked against the exhaustive facts (every third case).
    pub demand: bool,
    /// Whether the case ran with the program-scope memo and was checked
    /// id for id against a node-scope run (every third case, offset
    /// from the demand probes).
    pub program_memo: bool,
    /// The outcome.
    pub outcome: CaseOutcome,
    /// Wall-clock time for the case.
    pub elapsed: Duration,
}

/// Aggregate results of a stress run.
#[derive(Debug, Clone)]
pub struct StressSummary {
    /// Per-case records, in case order.
    pub reports: Vec<CaseReport>,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
}

impl StressSummary {
    /// Count of full-precision completions.
    pub fn full(&self) -> usize {
        self.count(|o| matches!(o, CaseOutcome::Analysed(f) if f.is_full()))
    }

    /// Count of tagged degradations.
    pub fn degraded(&self) -> usize {
        self.count(|o| matches!(o, CaseOutcome::Analysed(f) if !f.is_full()))
    }

    /// Count of exhausted ladders (terminated, budget provenance, no
    /// result).
    pub fn exhausted(&self) -> usize {
        self.count(|o| matches!(o, CaseOutcome::LadderExhausted(_)))
    }

    /// The invariant violations. A robust build has none.
    pub fn failures(&self) -> Vec<&CaseReport> {
        self.reports
            .iter()
            .filter(|r| matches!(r.outcome, CaseOutcome::Failed(_)))
            .collect()
    }

    /// True when no case violated an invariant.
    pub fn is_clean(&self) -> bool {
        self.failures().is_empty()
    }

    fn count(&self, f: impl Fn(&CaseOutcome) -> bool) -> usize {
        self.reports.iter().filter(|r| f(&r.outcome)).count()
    }

    /// Human-readable summary, one line per failure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "stress: {} cases in {:?} — {} full, {} degraded, {} exhausted, {} FAILED",
            self.reports.len(),
            self.wall,
            self.full(),
            self.degraded(),
            self.exhausted(),
            self.failures().len(),
        );
        for r in self.failures() {
            let CaseOutcome::Failed(msg) = &r.outcome else {
                continue;
            };
            let _ = writeln!(
                out,
                "  case {} [{}{}{}{}] seed {:#x}: {msg}",
                r.case,
                r.family,
                if r.tight { ", tight" } else { "" },
                if r.demand { ", demand" } else { "" },
                if r.program_memo { ", memo=program" } else { "" },
                r.seed,
            );
        }
        out
    }

    /// Machine-readable summary (JSON, no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"cases\":{},\"full\":{},\"degraded\":{},\"exhausted\":{},\"failed\":{},\"wall_ms\":{},\"results\":[",
            self.reports.len(),
            self.full(),
            self.degraded(),
            self.exhausted(),
            self.failures().len(),
            self.wall.as_millis(),
        );
        for (i, r) in self.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (status, detail) = match &r.outcome {
                CaseOutcome::Analysed(f) => ("analysed", f.tag().to_owned()),
                CaseOutcome::LadderExhausted(m) => ("exhausted", m.clone()),
                CaseOutcome::Failed(m) => ("failed", m.clone()),
            };
            let _ = write!(
                out,
                "{{\"case\":{},\"seed\":\"{:#x}\",\"family\":\"{}\",\"tight\":{},\"demand\":{},\"program_memo\":{},\"status\":\"{status}\",\"detail\":\"{}\",\"ms\":{}}}",
                r.case,
                r.seed,
                r.family,
                r.tight,
                r.demand,
                r.program_memo,
                json_escape(&detail),
                r.elapsed.as_millis(),
            );
        }
        out.push_str("]}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs one generated program under the given budgets and classifies
/// the outcome. Panics anywhere in the pipeline — including the lint
/// passes, which run on every successful analysis — become
/// [`CaseOutcome::Failed`]. A degraded run that still emits an
/// error-severity diagnostic violates the fidelity contract and is
/// likewise a failure.
pub fn run_case(source: &str, config: AnalysisConfig) -> CaseOutcome {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let (pta, fidelity, degradations) = pta_core::run_source_resilient(source, config)?;
        let diags = pta_lint::lint_ir(
            &pta.ir,
            &pta.result,
            fidelity,
            &pta_lint::LintOptions::default(),
        );
        Ok::<_, pta_core::PtaError>(((pta, fidelity, degradations), diags))
    }));
    match caught {
        Ok(Ok(((_, fidelity, _), diags))) => {
            if !fidelity.is_full()
                && diags
                    .iter()
                    .any(|d| d.severity == pta_lint::Severity::Error)
            {
                return CaseOutcome::Failed(format!(
                    "degraded run ({}) emitted an error-severity diagnostic",
                    fidelity.tag()
                ));
            }
            CaseOutcome::Analysed(fidelity)
        }
        Ok(Err(e)) => {
            let msg = e.to_string();
            if is_budget_error(&e) {
                CaseOutcome::LadderExhausted(msg)
            } else {
                CaseOutcome::Failed(format!("non-recoverable error: {msg}"))
            }
        }
        Err(p) => CaseOutcome::Failed(format!("panic: {}", panic_text(&*p))),
    }
}

/// Demand-mode equivalence probe: root a demand-driven run at every
/// defined function's first program point and require the name-level
/// facts there to match one exhaustive run (the byte-equivalence
/// contract of docs/QUERIES.md, exercised on generated pathology).
/// Budget trips on either side skip the probe — the contract is about
/// completed analyses. Returns the first divergence, `None` when the
/// case is equivalent (or unprobeable).
pub fn demand_divergence(source: &str, deadline_ms: u64) -> Option<String> {
    let ir = pta_simple::compile(source).ok()?; // invalid input: nothing to probe
    let config = AnalysisConfig {
        deadline: Some(Duration::from_millis(deadline_ms)),
        ..AnalysisConfig::default()
    };
    let full = pta_core::analyze_with(&ir, config.clone()).ok()?;
    let names = |r: &pta_core::AnalysisResult, set: &pta_core::PtSet| {
        let mut v: Vec<(String, String)> = set
            .iter()
            .map(|(s, t, _)| (r.locs.name(s).to_owned(), r.locs.name(t).to_owned()))
            .collect();
        v.sort();
        v
    };
    for (fid, f) in ir.defined_functions() {
        let Some(body) = &f.body else { continue };
        let mut first = None;
        body.for_each_basic(&mut |_, id| {
            if first.is_none() {
                first = Some(id);
            }
        });
        let Some(stmt) = first else { continue };
        let out = match pta_core::analyze_demand(&ir, &config, &[(fid, stmt)]) {
            Ok(out) => out,
            // The sliced run *and* its exhaustive fallback tripped a
            // budget the full run squeaked under — a wall-clock race,
            // not a divergence.
            Err(e) if e.budget_kind().is_some() => continue,
            Err(e) => return Some(format!("demand run failed at `{}`: {e}", f.name)),
        };
        let want = names(&full, &full.at(stmt));
        let got = names(&out.result, &out.result.at(stmt));
        if got != want {
            return Some(format!(
                "facts diverge at `{}` {stmt:?}: demand {got:?} vs exhaustive {want:?}",
                f.name
            ));
        }
    }
    None
}

/// Memo-scope probe: analyse the program under node scope and under
/// program scope and require the two runs to agree id for id
/// ([`pta_store::run_divergence`]). Budget trips on either side skip
/// the probe. Returns the first difference, `None` when the runs agree
/// (or the case is unprobeable).
pub fn memo_divergence(source: &str, deadline_ms: u64) -> Option<String> {
    let ir = pta_simple::compile(source).ok()?; // invalid input: nothing to probe
    let config = AnalysisConfig {
        deadline: Some(Duration::from_millis(deadline_ms)),
        ..AnalysisConfig::default()
    };
    let node = pta_core::analyze_recorded(&ir, config.clone()).ok()?;
    let program = AnalysisConfig {
        memo: MemoScope::Program,
        ..config.clone()
    };
    let program = match pta_core::analyze_recorded(&ir, program) {
        Ok(r) => r,
        Err(e) if e.budget_kind().is_some() => return None,
        Err(e) => return Some(format!("program-scope run failed: {e}")),
    };
    pta_store::run_divergence(&ir, &config, &node, &program)
}

fn is_budget_error(e: &pta_core::PtaError) -> bool {
    match e {
        pta_core::PtaError::Analysis(a) => a.budget_kind().is_some(),
        pta_core::PtaError::Frontend(_) => false,
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        String::from("<non-string payload>")
    }
}

/// Runs the full stress suite: `cases` generated programs cycling
/// through the generator families, alternating generous and tight
/// budgets so both the full analysis and the degradation ladder get
/// exercised.
pub fn run_stress(cfg: &StressConfig) -> StressSummary {
    let start = Instant::now();
    let mut reports = Vec::with_capacity(cfg.cases as usize);
    for case in 0..cfg.cases {
        let seed = case_seed(cfg.seed, case);
        let mut g = Rng::new(seed);
        let family = cgen::FAMILIES[case as usize % cgen::FAMILIES.len()];
        let source = cgen::generate(family, &mut g);
        // Every other case gets a tight step budget to force the
        // ladder; the rest run with only the deadline as a backstop.
        let tight = case % 2 == 1;
        // Every third case (offset from the demand probes) runs with the
        // program-scope memo and must match node scope id for id.
        let program_memo = case % 3 == 1;
        let config = AnalysisConfig {
            deadline: Some(Duration::from_millis(cfg.deadline_ms)),
            max_steps: if tight { cfg.tight_steps } else { u64::MAX },
            // Every third case runs with liveness pruning so the
            // stress corpus exercises the pruned engine path (and its
            // interaction with the ladder) end to end.
            prune_liveness: case % 3 == 0,
            memo: if program_memo {
                MemoScope::Program
            } else {
                MemoScope::Node
            },
            ..AnalysisConfig::default()
        };
        // Every third case is additionally answered demand-driven and
        // checked against the exhaustive facts, so the equivalence
        // contract is stressed on generated pathology, not only on the
        // curated suite.
        let demand = case % 3 == 2;
        let t0 = Instant::now();
        let mut outcome = run_case(&source, config);
        if demand && matches!(outcome, CaseOutcome::Analysed(_)) {
            if let Some(msg) = demand_divergence(&source, cfg.deadline_ms) {
                outcome = CaseOutcome::Failed(format!("demand mode: {msg}"));
            }
        }
        if program_memo && matches!(outcome, CaseOutcome::Analysed(_)) {
            if let Some(msg) = memo_divergence(&source, cfg.deadline_ms) {
                outcome = CaseOutcome::Failed(format!("program memo: {msg}"));
            }
        }
        reports.push(CaseReport {
            case,
            seed,
            family,
            tight,
            demand,
            program_memo,
            outcome,
            elapsed: t0.elapsed(),
        });
    }
    StressSummary {
        reports,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_smoke_is_clean() {
        let summary = run_stress(&StressConfig {
            cases: 16,
            ..StressConfig::default()
        });
        assert!(summary.is_clean(), "{}", summary.render());
        assert_eq!(summary.reports.len(), 16);
        // Both paths get exercised: some cases complete at full
        // precision, and the alternating tight budget forces the
        // degradation ladder at least once.
        assert!(summary.full() > 0, "{}", summary.render());
        assert!(summary.degraded() > 0, "{}", summary.render());
        // Every third case ran the demand-equivalence probe, and every
        // third (offset) ran with the program-scope memo.
        assert_eq!(summary.reports.iter().filter(|r| r.demand).count(), 5);
        assert_eq!(summary.reports.iter().filter(|r| r.program_memo).count(), 5);
    }

    #[test]
    fn memo_probe_finds_no_divergence_on_generated_programs() {
        for family in ["call-fanout", "fnptr-knot", "wide-indirect"] {
            let mut g = Rng::new(0x5eed);
            let source = cgen::generate(family, &mut g);
            assert_eq!(memo_divergence(&source, 5_000), None, "{family}");
        }
    }

    #[test]
    fn demand_probe_finds_no_divergence_on_generated_programs() {
        // Unresolved-indirect-call pathology is exactly where the
        // slice widens; the facts must still match exhaustive.
        for family in ["wide-indirect", "fnptr-knot", "deep-chain"] {
            let mut g = Rng::new(0x5eed);
            let source = cgen::generate(family, &mut g);
            assert_eq!(demand_divergence(&source, 5_000), None, "{family}");
        }
    }

    #[test]
    fn tight_budget_forces_tagged_degradation() {
        let source = cgen::wide_indirect(16);
        let config = AnalysisConfig {
            max_steps: 5,
            ..AnalysisConfig::default()
        };
        match run_case(&source, config) {
            CaseOutcome::Analysed(f) => assert!(!f.is_full(), "expected a degraded tag"),
            other => panic!("expected a tagged analysis, got {other:?}"),
        }
    }

    #[test]
    fn json_and_render_shapes() {
        let summary = run_stress(&StressConfig {
            cases: 4,
            ..StressConfig::default()
        });
        let json = summary.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"cases\":4"));
        assert!(json.contains("\"family\":\"deep-chain\""));
        assert!(summary.render().contains("4 cases"));
    }

    #[test]
    fn panicking_pipeline_is_reported_not_propagated() {
        // An invalid program is a frontend error, not a panic; the
        // harness classifies it as Failed without crashing.
        let out = run_case("int main(void) {", AnalysisConfig::default());
        assert!(matches!(out, CaseOutcome::Failed(_)), "{out:?}");
    }
}
