//! Rendering of the reproduced evaluation: Tables 2–6, the §6 headline
//! aggregates, the `livc` invocation-graph study, and the
//! context-sensitivity ablation.
//!
//! Every study has a `*_jobs` variant taking a worker count, and the
//! suite driver [`run_benchmarks`] takes one too; the default variants
//! use [`default_jobs`]. The suite programs are analysed concurrently
//! (see [`crate::parallel`]) but reported in paper order, so the
//! rendered tables and the JSON document are identical for any job
//! count. Nothing here is timed except [`summary_scale_study`], whose
//! wall clocks back one test of the E19 crossover.

use crate::parallel::{catch_panic, default_jobs, par_join3, par_join4, par_map};
use crate::{all_benchmarks, analyse, Analysed, Benchmark, LIVC, PANIC_BENCH_NAME, SUITE};
use pta_core::baseline::{
    address_taken_functions, andersen, build_ig_with_strategy, insensitive, steensgaard,
    CallGraphStrategy,
};
use pta_core::stats::{self, BenchmarkStats};
use pta_core::{AnalysisConfig, AnalysisError, Def, Fidelity, PtSet, PtaError};
use std::fmt::Write as _;
use std::time::Instant;

/// One successfully analysed benchmark with its statistics and the
/// provenance of the numbers (which rung of the degradation ladder
/// produced them).
#[derive(Debug)]
pub struct AnalysedRow {
    /// The analysed benchmark.
    pub analysed: Analysed,
    /// Its statistics (Tables 2–6 inputs).
    pub stats: BenchmarkStats,
    /// Which analysis produced the result.
    pub fidelity: Fidelity,
    /// The ladder rungs that failed before `fidelity` succeeded.
    pub degradations: Vec<(Fidelity, AnalysisError)>,
    /// Diagnostics the lint pass derived from the points-to facts.
    pub lint: Vec<pta_lint::Diagnostic>,
    /// Aggregated trace metrics, when the run was profiled (the
    /// `--profile` flag or a `--json` artifact). `None` on the default
    /// path so plain table runs pay no tracing cost.
    pub metrics: Option<pta_core::TraceMetrics>,
}

/// How a suite row failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteErrorKind {
    /// The worker panicked (caught; siblings unaffected).
    Panic,
    /// The front end rejected the program.
    Frontend,
    /// The analysis failed unrecoverably (ladder included).
    Analysis,
}

/// A benchmark that produced no analysis: the row survives into the
/// report (deterministically, in paper order) so one bad program shows
/// up as one failed line instead of killing the whole run.
#[derive(Debug, Clone)]
pub struct SuiteError {
    /// Benchmark name.
    pub name: String,
    /// Failure category.
    pub kind: SuiteErrorKind,
    /// Human-readable cause.
    pub message: String,
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            SuiteErrorKind::Panic => "panic",
            SuiteErrorKind::Frontend => "frontend error",
            SuiteErrorKind::Analysis => "analysis error",
        };
        write!(f, "{}: {kind}: {}", self.name, self.message)
    }
}

/// One row of the suite report: analysed or failed.
#[derive(Debug)]
pub enum SuiteRow {
    /// The benchmark was analysed (possibly at degraded fidelity).
    Analysed(Box<AnalysedRow>),
    /// The benchmark produced no result.
    Failed(SuiteError),
}

impl SuiteRow {
    /// The benchmark name of either variant.
    pub fn name(&self) -> &str {
        match self {
            SuiteRow::Analysed(r) => r.analysed.bench.name,
            SuiteRow::Failed(e) => &e.name,
        }
    }

    /// The analysed row, when there is one.
    pub fn as_analysed(&self) -> Option<&AnalysedRow> {
        match self {
            SuiteRow::Analysed(r) => Some(r),
            SuiteRow::Failed(_) => None,
        }
    }
}

/// The whole suite, analysed, with its statistics.
#[derive(Debug)]
pub struct SuiteReport {
    /// Per-benchmark rows (paper order), failed ones included.
    pub rows: Vec<SuiteRow>,
}

/// Analyses the full 17-program suite with [`default_jobs`] workers and
/// the default configuration. Never fails: a crashing or
/// budget-exhausted benchmark becomes a failed or degraded row.
pub fn run_suite() -> SuiteReport {
    run_benchmarks(SUITE, default_jobs(), AnalysisConfig::default(), false)
}

/// The suite driver over an explicit benchmark list, worker count (`1`
/// forces the serial path) and configuration.
///
/// Fault isolation: each benchmark's job runs under `catch_unwind`, so
/// a panic in one worker yields a [`SuiteRow::Failed`] row while every
/// sibling completes normally. Budget exhaustion degrades through
/// [`pta_core::analyze_resilient`] and tags the row's [`Fidelity`].
/// With `profile` set, each benchmark's context-sensitive analysis runs
/// with a [`pta_core::TraceMetrics`] sink attached and the aggregated
/// counters land on [`AnalysedRow::metrics`] (rendered by
/// [`SuiteReport::profile_table`] and embedded in
/// [`SuiteReport::suite_json`]). Rows come back in input order, so
/// every rendering is byte-identical for every job count.
pub fn run_benchmarks(
    benches: &[Benchmark],
    jobs: usize,
    config: AnalysisConfig,
    profile: bool,
) -> SuiteReport {
    let rows = par_map(jobs, benches, |b| {
        let (kind, message) = match catch_panic(|| suite_job(*b, config.clone(), profile)) {
            Ok(Ok(row)) => return SuiteRow::Analysed(Box::new(row)),
            Ok(Err(e @ PtaError::Frontend(_))) => (SuiteErrorKind::Frontend, e.to_string()),
            Ok(Err(e @ PtaError::Analysis(_))) => (SuiteErrorKind::Analysis, e.to_string()),
            Err(msg) => (SuiteErrorKind::Panic, msg),
        };
        SuiteRow::Failed(SuiteError {
            name: b.name.to_owned(),
            kind,
            message,
        })
    });
    SuiteReport { rows }
}

/// One benchmark's full job: compile, analyse through the degradation
/// ladder, compute statistics.
fn suite_job(b: Benchmark, config: AnalysisConfig, profile: bool) -> Result<AnalysedRow, PtaError> {
    if b.name == PANIC_BENCH_NAME {
        panic!("deliberate suite-job panic (fault-isolation test hook)");
    }
    let ir = pta_simple::compile(b.source)?;
    let mut metrics = profile.then(pta_core::TraceMetrics::new);
    let outcome = match &mut metrics {
        Some(m) => pta_core::analyze_resilient_traced(&ir, config, m)?,
        None => pta_core::analyze_resilient(&ir, config)?,
    };
    let mut analysed = Analysed {
        bench: b,
        ir,
        result: outcome.result,
    };
    let stats = stats::compute(b.name, b.source, &analysed.ir, &mut analysed.result);
    let lint = pta_lint::lint_ir(
        &analysed.ir,
        &analysed.result,
        outcome.fidelity,
        &pta_lint::LintOptions::default(),
    );
    Ok(AnalysedRow {
        analysed,
        stats,
        fidelity: outcome.fidelity,
        degradations: outcome.degradations,
        lint,
        metrics,
    })
}

impl SuiteReport {
    /// The successfully analysed rows, in paper order.
    pub fn analysed_rows(&self) -> impl Iterator<Item = &AnalysedRow> {
        self.rows.iter().filter_map(SuiteRow::as_analysed)
    }

    /// The failed rows, in paper order.
    pub fn failures(&self) -> Vec<&SuiteError> {
        self.rows
            .iter()
            .filter_map(|r| match r {
                SuiteRow::Failed(e) => Some(e),
                SuiteRow::Analysed(_) => None,
            })
            .collect()
    }

    /// The rows that degraded below full context-sensitive fidelity.
    pub fn degraded(&self) -> Vec<&AnalysedRow> {
        self.analysed_rows()
            .filter(|r| !r.fidelity.is_full())
            .collect()
    }

    /// True when every row analysed at full fidelity.
    pub fn is_clean(&self) -> bool {
        self.failures().is_empty() && self.degraded().is_empty()
    }

    /// Renders the failure/degradation summary (empty string when
    /// clean).
    pub fn render_failures(&self) -> String {
        let mut out = String::new();
        for e in self.failures() {
            let _ = writeln!(out, "FAILED   {e}");
        }
        for r in self.degraded() {
            let _ = writeln!(
                out,
                "DEGRADED {}: answered by the {} fallback ({})",
                r.analysed.bench.name,
                r.fidelity,
                r.degradations
                    .iter()
                    .map(|(f, e)| format!("{f}: {e}"))
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
        out
    }

    /// Renders Table 2.
    pub fn table2(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8} {:>8} {:>8}  Description",
            "Benchmark", "Lines", "#stmts", "Min#var", "Max#var"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let (a, s) = (&r.analysed, &r.stats);
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>8} {:>8} {:>8}  {}",
                s.t2.name,
                s.t2.lines,
                s.t2.simple_stmts,
                s.t2.min_vars,
                s.t2.max_vars,
                a.bench.description
            );
        }
        out
    }

    /// Renders Table 3 (each multi-column entry as `scalar/array`).
    pub fn table3(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>5} {:>6} {:>7} {:>6} {:>5} {:>5}",
            "Benchmark",
            "1D",
            "1P",
            "2P",
            "3P",
            ">=4P",
            "ind",
            "ScRep",
            "ToStk",
            "ToHp",
            "Tot",
            "Avg"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let t = &r.stats.t3;
            let pair = |p: (usize, usize)| format!("{}/{}", p.0, p.1);
            let _ = writeln!(
                out,
                "{:<10} {:>7} {:>7} {:>7} {:>7} {:>7} {:>5} {:>6} {:>7} {:>6} {:>5} {:>5.2}{}",
                t.name,
                pair(t.one_d),
                pair(t.one_p),
                pair(t.two_p),
                pair(t.three_p),
                pair(t.four_p),
                t.ind_refs,
                t.scalar_rep,
                t.to_stack,
                t.to_heap,
                t.tot(),
                t.avg(),
                fidelity_marker(r)
            );
        }
        let agg = self.summary();
        let _ = writeln!(
            out,
            "{:<10} overall avg {:.2}; {:.2}% definite-single; {:.2}% replaceable; {:.2}% single-target; {:.2}% heap pairs",
            "TOTAL", agg.overall_avg, agg.pct_definite, agg.pct_replaceable, agg.pct_single,
            agg.pct_heap
        );
        out
    }

    /// Renders Table 4.
    pub fn table4(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} | {:>5} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5}",
            "Benchmark", "f.lo", "f.gl", "f.fp", "f.sy", "t.lo", "t.gl", "t.fp", "t.sy"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let t = &r.stats.t4;
            let _ = writeln!(
                out,
                "{:<10} | {:>5} {:>5} {:>5} {:>5} | {:>5} {:>5} {:>5} {:>5}",
                t.name,
                t.from.lo,
                t.from.gl,
                t.from.fp,
                t.from.sy,
                t.to.lo,
                t.to.gl,
                t.to.fp,
                t.to.sy
            );
        }
        out
    }

    /// Renders Table 5.
    pub fn table5(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}",
            "Benchmark", "Stk->Stk", "Stk->Hp", "Hp->Hp", "Hp->Stk", "Avg", "Max"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let t = &r.stats.t5;
            let _ = writeln!(
                out,
                "{:<10} {:>9} {:>9} {:>9} {:>9} {:>6.1} {:>6}",
                t.name,
                t.stack_to_stack,
                t.stack_to_heap,
                t.heap_to_heap,
                t.heap_to_stack,
                t.avg(),
                t.max_per_stmt
            );
        }
        out
    }

    /// Renders Table 6.
    pub fn table6(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>9} {:>6} {:>4} {:>4} {:>6} {:>6}",
            "Benchmark", "ig-nodes", "call-site", "#fns", "R", "A", "Avgc", "Avgf"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let t = &r.stats.t6;
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>9} {:>6} {:>4} {:>4} {:>6.2} {:>6.2}",
                t.name,
                t.ig_nodes,
                t.call_sites,
                t.functions,
                t.recursive,
                t.approximate,
                t.avg_per_call_site(),
                t.avg_per_function()
            );
        }
        out
    }

    /// The suite as a JSON document (the `--json` artifact), stamped
    /// with the snapshot/trace schema version. Each benchmark entry
    /// carries its result provenance: a `"fidelity"` tag and diagnostic
    /// counts for analysed rows, `"failed"` plus an `"error"` message
    /// for failed ones. Profiled runs add the deterministic trace
    /// counters as `"metrics"`; runs with `--prune-liveness` add a
    /// per-benchmark `"prune"` object (seen/pruned pair counters and the
    /// sparsity percentage, E17). No field is a wall-clock figure, so
    /// the document is byte-identical for every job count.
    pub fn suite_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"{}\",\"failures\":{},\"benchmarks\":[",
            pta_core::SCHEMA_VERSION,
            self.failures().len()
        );
        for (i, row) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",",
                if i == 0 { "" } else { "," },
                row.name()
            );
            match row {
                SuiteRow::Analysed(r) => {
                    let c = pta_lint::DiagnosticCounts::of(&r.lint);
                    let _ = write!(
                        out,
                        "\"fidelity\":\"{}\",\"diagnostics\":{{\"errors\":{},\"warnings\":{}}}",
                        r.fidelity, c.errors, c.warnings
                    );
                    // Deterministic counters only (TraceMetrics::to_json
                    // excludes timing fields), so the artifact stays
                    // byte-comparable across runs and job counts.
                    if let Some(m) = &r.metrics {
                        let _ = write!(out, ",\"metrics\":{}", m.to_json());
                    }
                    let p = &r.analysed.result.prune;
                    if p.enabled {
                        let _ = write!(
                            out,
                            ",\"prune\":{{\"seen_pairs\":{},\"pruned_pairs\":{},\
                             \"sparsity_pct\":{:.2}}}",
                            p.seen_pairs,
                            p.pruned_pairs,
                            p.sparsity_pct()
                        );
                    }
                    out.push('}');
                }
                SuiteRow::Failed(e) => {
                    let _ = write!(
                        out,
                        "\"failed\":true,\"error\":\"{}\"}}",
                        json_escape(&e.message)
                    );
                }
            }
        }
        out.push_str("]}\n");
        out
    }

    /// Renders the per-benchmark diagnostics table (the `--lint`
    /// section): error/warning counts plus a per-check breakdown.
    /// Byte-identical for every job count, like the paper tables.
    pub fn lint_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>6} {:>8}  checks",
            "bench", "errors", "warnings"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let c = pta_lint::DiagnosticCounts::of(&r.lint);
            let mut by_check: Vec<(&str, usize)> = Vec::new();
            for d in &r.lint {
                match by_check.iter_mut().find(|(id, _)| *id == d.check_id) {
                    Some((_, n)) => *n += 1,
                    None => by_check.push((d.check_id, 1)),
                }
            }
            by_check.sort();
            let breakdown = if by_check.is_empty() {
                "-".to_owned()
            } else {
                by_check
                    .iter()
                    .map(|(id, n)| format!("{id}:{n}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            let _ = writeln!(
                out,
                "{:<10} {:>6} {:>8}  {}{}",
                r.analysed.bench.name,
                c.errors,
                c.warnings,
                breakdown,
                fidelity_marker(r)
            );
        }
        out
    }

    /// Renders the self-profiling table (the `--profile` section):
    /// per-benchmark counters from the trace-metrics layer — memo
    /// hit/miss with hit rate, invocation-graph node counts (which
    /// reconcile exactly with Table 6: both read the final graph), map
    /// volumes, and the deepest map pointer chain. Counter-valued, so
    /// byte-identical for every job count. Rows without metrics (the
    /// run was not profiled, or the benchmark degraded off the
    /// context-sensitive engine) render a `-` marker.
    pub fn profile_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>9} {:>6} {:>8} {:>6} {:>7} {:>10} {:>6}",
            "Benchmark",
            "ig-nodes",
            "memo-hit",
            "miss",
            "hit%",
            "maps",
            "invis",
            "max-chain",
            "steps"
        );
        for row in &self.rows {
            let Some(r) = row.as_analysed() else {
                failed_line(&mut out, row);
                continue;
            };
            let Some(m) = r.metrics.as_ref().filter(|m| m.completed) else {
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>9} {:>6} {:>8} {:>6} {:>7} {:>10} {:>6}{}",
                    r.analysed.bench.name,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    fidelity_marker(r)
                );
                continue;
            };
            let _ = writeln!(
                out,
                "{:<10} {:>8} {:>9} {:>6} {:>7.1}% {:>6} {:>7} {:>10} {:>6}",
                r.analysed.bench.name,
                m.ig_nodes,
                m.memo_hits,
                m.memo_misses,
                m.hit_rate(),
                m.maps,
                m.invisibles,
                m.max_chain_depth,
                m.steps
            );
        }
        out
    }

    /// Headline aggregates corresponding to the bullet list of §6.
    pub fn summary(&self) -> Summary {
        let mut ind = 0usize;
        let mut one_d = 0usize;
        let mut single = 0usize;
        let mut rep = 0usize;
        let mut to_stack = 0usize;
        let mut to_heap = 0usize;
        for r in self.analysed_rows() {
            let t = &r.stats.t3;
            ind += t.ind_refs;
            one_d += t.one_d.0 + t.one_d.1;
            single += t.one_d.0 + t.one_d.1 + t.one_p.0 + t.one_p.1 + t.zero;
            rep += t.scalar_rep;
            to_stack += t.to_stack;
            to_heap += t.to_heap;
        }
        let tot = to_stack + to_heap;
        let pct = |a: usize, b: usize| {
            if b == 0 {
                0.0
            } else {
                100.0 * a as f64 / b as f64
            }
        };
        Summary {
            ind_refs: ind,
            overall_avg: if ind == 0 {
                0.0
            } else {
                tot as f64 / ind as f64
            },
            pct_definite: pct(one_d, ind),
            pct_single: pct(single, ind),
            pct_replaceable: pct(rep, ind),
            pct_heap: pct(to_heap, tot),
        }
    }
}

/// Appends a table line for a failed row, keeping the table's
/// benchmark column aligned.
fn failed_line(out: &mut String, row: &SuiteRow) {
    if let SuiteRow::Failed(e) = row {
        let _ = writeln!(out, "{:<10} FAILED ({})", e.name, e.message);
    }
}

/// A trailing provenance marker for degraded rows (empty at full
/// fidelity, so clean tables render byte-identically to before).
fn fidelity_marker(r: &AnalysedRow) -> String {
    if r.fidelity.is_full() {
        String::new()
    } else {
        format!("  [{}]", r.fidelity)
    }
}

/// Minimal JSON string escaping for error messages.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The §6 headline aggregates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Total indirect references across the suite.
    pub ind_refs: usize,
    /// Average locations pointed to per indirect reference (paper: 1.13
    /// overall, ≤ 1.77 per program).
    pub overall_avg: f64,
    /// Percent of indirect references with one definite target
    /// (paper: 28.80%).
    pub pct_definite: f64,
    /// Percent with at most one non-NULL target (paper: 90.76% under
    /// the non-NULL-dereference assumption).
    pub pct_single: f64,
    /// Percent replaceable by direct references (paper: 19.39%).
    pub pct_replaceable: f64,
    /// Percent of used pairs targeting the heap (paper: 27.92%).
    pub pct_heap: f64,
}

/// The `livc` invocation-graph case study (§6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivcStudy {
    /// Nodes with points-to-driven resolution (paper: 203).
    pub precise_nodes: usize,
    /// Nodes when every indirect call targets all functions (paper: 619).
    pub all_functions_nodes: usize,
    /// Nodes with the address-taken set (paper: 589).
    pub address_taken_nodes: usize,
    /// Total defined functions (paper: 82).
    pub total_functions: usize,
    /// Address-taken functions (paper: 72).
    pub address_taken_functions: usize,
    /// Indirect call sites (paper: 3).
    pub indirect_sites: usize,
}

/// Runs the `livc` study with [`default_jobs`] workers.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn livc_study() -> Result<LivcStudy, PtaError> {
    livc_study_jobs(default_jobs())
}

/// [`livc_study`] with an explicit worker count: the three invocation
/// graphs (points-to driven, all-functions, address-taken) build
/// concurrently.
///
/// # Errors
///
/// As [`livc_study`].
pub fn livc_study_jobs(jobs: usize) -> Result<LivcStudy, PtaError> {
    let ir = pta_simple::compile(LIVC.source)?;
    let (precise, all, at) = par_join3(
        jobs,
        || pta_core::analyze(&ir).map(|r| r.ig.len()),
        || build_ig_with_strategy(&ir, CallGraphStrategy::AllFunctions, 2_000_000).map(|g| g.len()),
        || build_ig_with_strategy(&ir, CallGraphStrategy::AddressTaken, 2_000_000).map(|g| g.len()),
    );
    Ok(LivcStudy {
        precise_nodes: precise?,
        all_functions_nodes: all?,
        address_taken_nodes: at?,
        total_functions: ir.defined_functions().count(),
        address_taken_functions: address_taken_functions(&ir).len(),
        indirect_sites: ir.call_sites.iter().filter(|c| c.indirect).count(),
    })
}

impl LivcStudy {
    /// Renders the study.
    pub fn render(&self) -> String {
        format!(
            "livc function-pointer study (paper: 203 vs 619 vs 589 nodes)\n\
             total functions:            {}\n\
             address-taken functions:    {}\n\
             indirect call sites:        {}\n\
             IG nodes, points-to driven: {}\n\
             IG nodes, all-functions:    {}\n\
             IG nodes, address-taken:    {}\n",
            self.total_functions,
            self.address_taken_functions,
            self.indirect_sites,
            self.precise_nodes,
            self.all_functions_nodes,
            self.address_taken_nodes,
        )
    }
}

/// Precision of one analysis on one benchmark: the average number of
/// non-NULL targets of the dereferenced pointer per indirect reference.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: String,
    /// Context-sensitive (the paper's analysis).
    pub context_sensitive: f64,
    /// Context-insensitive flow-sensitive baseline.
    pub context_insensitive: f64,
    /// Andersen-style flow-insensitive baseline.
    pub andersen: f64,
    /// Steensgaard-style unification baseline (coarsest).
    pub steensgaard: f64,
    /// Percent of indirect references with a definite single target
    /// under the context-sensitive analysis.
    pub definite_cs: f64,
    /// Same under the context-insensitive baseline (contexts merge, so
    /// definite information degrades — the paper's central claim).
    pub definite_ci: f64,
}

/// Compares precision across the suite (context-sensitivity ablation,
/// E11) with [`default_jobs`] workers.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn ablation() -> Result<Vec<AblationRow>, PtaError> {
    ablation_jobs(default_jobs())
}

/// [`ablation`] with an explicit worker count. With `jobs > 1` the
/// benchmarks fan out across workers (each row's four analyses then run
/// on one worker to avoid oversubscription); `jobs = 1` is fully
/// serial.
///
/// # Errors
///
/// As [`ablation`].
pub fn ablation_jobs(jobs: usize) -> Result<Vec<AblationRow>, PtaError> {
    let benches = all_benchmarks();
    par_map(jobs, &benches, |b| ablation_one_jobs(*b, 1))
        .into_iter()
        .collect()
}

/// Ablation for a single benchmark; the context-sensitive analysis and
/// the three baselines run concurrently ([`default_jobs`], capped at 4).
///
/// # Errors
///
/// Propagates analysis failures.
pub fn ablation_one(b: Benchmark) -> Result<AblationRow, PtaError> {
    ablation_one_jobs(b, default_jobs().min(4))
}

/// [`ablation_one`] with an explicit worker count for the four
/// analyses.
///
/// # Errors
///
/// As [`ablation_one`].
pub fn ablation_one_jobs(b: Benchmark, jobs: usize) -> Result<AblationRow, PtaError> {
    let ir = pta_simple::compile(b.source)?;
    // The four analyses are independent given the SIMPLE form.
    let (cs_r, ins_r, and_r, st_r) = par_join4(
        jobs,
        || pta_core::analyze(&ir),
        || insensitive(&ir),
        || andersen(&ir),
        || steensgaard(&ir),
    );
    let mut result = cs_r?;
    let cs = stats::table3(b.name, &ir, &mut result).avg();

    let ins = ins_r?;
    let mut ins_result = pta_core::AnalysisResult {
        locs: ins.locs,
        ig: result.ig.clone(),
        per_stmt: ins.per_stmt,
        exit_set: ins.exit_set,
        warnings: Vec::new(),
        escapes: Vec::new(),
        prune: Default::default(),
    };
    let ci = stats::table3(b.name, &ir, &mut ins_result).avg();
    let t3_ins = stats::table3(b.name, &ir, &mut ins_result);

    let and = and_r?;
    // Andersen has one global solution: count average targets directly.
    let an = {
        let mut and_result = pta_core::AnalysisResult {
            locs: and.locs,
            ig: result.ig.clone(),
            per_stmt: {
                // Use the same global solution at every program point.
                let mut m = std::collections::BTreeMap::new();
                for id in result.per_stmt.keys() {
                    m.insert(*id, and.solution.clone());
                }
                m
            },
            exit_set: and.solution.clone(),
            warnings: Vec::new(),
            escapes: Vec::new(),
            prune: Default::default(),
        };
        stats::table3(b.name, &ir, &mut and_result).avg()
    };

    let st = st_r?;
    // Steensgaard is also a single global solution; materialize its
    // classes as (possible) points-to pairs.
    let se = {
        let mut sol = PtSet::new();
        for s in st.locs.ids() {
            for t in st.targets(s) {
                sol.insert(s, t, Def::P);
            }
        }
        let mut st_result = pta_core::AnalysisResult {
            locs: st.locs,
            ig: result.ig.clone(),
            per_stmt: {
                let mut m = std::collections::BTreeMap::new();
                for id in result.per_stmt.keys() {
                    m.insert(*id, sol.clone());
                }
                m
            },
            exit_set: sol,
            warnings: Vec::new(),
            escapes: Vec::new(),
            prune: Default::default(),
        };
        stats::table3(b.name, &ir, &mut st_result).avg()
    };

    let t3_cs = stats::table3(b.name, &ir, &mut result);
    let pct = |t: &stats::Table3Row| {
        if t.ind_refs == 0 {
            0.0
        } else {
            100.0 * (t.one_d.0 + t.one_d.1) as f64 / t.ind_refs as f64
        }
    };
    Ok(AblationRow {
        name: b.name.to_owned(),
        context_sensitive: cs,
        context_insensitive: ci,
        andersen: an,
        steensgaard: se,
        definite_cs: pct(&t3_cs),
        definite_ci: pct(&t3_ins),
    })
}

/// Renders the ablation table.
pub fn render_ablation(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>10} {:>12} {:>8} {:>8}   (avg targets/ref; %D = definite single target)",
        "Benchmark", "ctx-sens", "ctx-insens", "andersen", "steensgaard", "%D-cs", "%D-ci"
    );
    let mut sums = (0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>7.1}% {:>7.1}%",
            r.name,
            r.context_sensitive,
            r.context_insensitive,
            r.andersen,
            r.steensgaard,
            r.definite_cs,
            r.definite_ci
        );
        sums.0 += r.context_sensitive;
        sums.1 += r.context_insensitive;
        sums.2 += r.andersen;
        sums.3 += r.steensgaard;
        sums.4 += r.definite_cs;
        sums.5 += r.definite_ci;
    }
    let n = rows.len().max(1) as f64;
    let _ = writeln!(
        out,
        "{:<10} {:>10.2} {:>12.2} {:>10.2} {:>12.2} {:>7.1}% {:>7.1}%",
        "MEAN",
        sums.0 / n,
        sums.1 / n,
        sums.2 / n,
        sums.3 / n,
        sums.4 / n,
        sums.5 / n
    );
    out
}

/// Extension experiment (E19): where the program-scope memo overtakes
/// per-invocation re-analysis. One row per size tier of the
/// `call-fanout` stress family (see `pta_prop::cgen::call_fanout`):
/// `n` call sites hand one worker function the same calling context, so
/// node scope re-analyses the worker `n` times while program scope
/// replays `n - 1` of them from its context memo.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryScaleRow {
    /// Fan-out (call sites on the worker = size-tier parameter).
    pub call_sites: usize,
    /// Defined functions in the generated program.
    pub functions: usize,
    /// SIMPLE statements in the generated program.
    pub stmts: usize,
    /// Wall clock under node scope (best of three).
    pub node_ms: f64,
    /// Wall clock under program scope (best of three).
    pub program_ms: f64,
    /// Calling contexts program scope replayed from its memo.
    pub memo_hits: usize,
    /// True when the two scopes agree id for id
    /// ([`pta_store::run_divergence`]); must always hold.
    pub identical: bool,
}

impl SummaryScaleRow {
    /// Node-scope over program-scope wall clock.
    pub fn speedup(&self) -> f64 {
        if self.program_ms > 0.0 {
            self.node_ms / self.program_ms
        } else {
            f64::INFINITY
        }
    }
}

/// The E19 size tiers (call-site fan-out of the generated programs).
pub const SUMMARY_SCALE_TIERS: &[usize] = &[2, 4, 8, 16, 32, 64];

/// Best-of-three wall clock of one analysis (these programs analyse in
/// milliseconds, so a single sample is mostly scheduler noise), with
/// the last run.
fn best_of_three<T>(
    mut run: impl FnMut() -> Result<T, pta_core::AnalysisError>,
) -> Result<(f64, T), PtaError> {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..3 {
        let t = Instant::now();
        let r = run()?;
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    Ok((best, last.expect("three iterations ran")))
}

/// Runs the node-scope vs program-scope memo study (E19) on the
/// `call-fanout` generator at the given size tiers.
///
/// # Errors
///
/// Propagates front-end or analysis failures.
pub fn summary_scale_study(tiers: &[usize]) -> Result<Vec<SummaryScaleRow>, PtaError> {
    let mut rows = Vec::with_capacity(tiers.len());
    for &n in tiers {
        let source = pta_prop::cgen::call_fanout(n);
        let ir = pta_simple::compile(&source)?;
        let config = AnalysisConfig::default();
        let (node_ms, _) = best_of_three(|| pta_core::analyze_with(&ir, config.clone()))?;
        let program_config = AnalysisConfig {
            memo: pta_core::MemoScope::Program,
            ..config.clone()
        };
        let (program_ms, program_run) =
            best_of_three(|| pta_core::analyze_recorded(&ir, program_config.clone()))?;
        // The node-scope reference for the identity check captures
        // too; it runs outside the timed loop.
        let node_run = pta_core::analyze_recorded(&ir, config.clone())?;
        rows.push(SummaryScaleRow {
            call_sites: n,
            functions: ir.defined_functions().count(),
            stmts: ir.total_basic_stmts(),
            node_ms,
            program_ms,
            memo_hits: program_run.seed_hits,
            identical: pta_store::run_divergence(&ir, &config, &node_run, &program_run).is_none(),
        });
    }
    Ok(rows)
}

/// Extension experiment (E12): precision effect of allocation-site heap
/// naming on the heap-heavy benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct HeapSiteRow {
    /// Benchmark name.
    pub name: String,
    /// Average targets per indirect reference with the single `heap`.
    pub single_heap_avg: f64,
    /// Same with per-allocation-site locations.
    pub heap_sites_avg: f64,
    /// Distinct heap locations under site naming.
    pub sites: usize,
}

/// Runs the heap-site ablation on the heap-using benchmarks with
/// [`default_jobs`] workers.
///
/// # Errors
///
/// Propagates analysis failures.
pub fn heap_site_ablation() -> Result<Vec<HeapSiteRow>, PtaError> {
    heap_site_ablation_jobs(default_jobs())
}

/// [`heap_site_ablation`] with an explicit worker count.
///
/// # Errors
///
/// As [`heap_site_ablation`].
pub fn heap_site_ablation_jobs(jobs: usize) -> Result<Vec<HeapSiteRow>, PtaError> {
    let names = ["hash", "misr", "xref", "sim", "dry", "compress"];
    par_map(jobs, &names, |name| {
        let b = crate::benchmark(name).expect("known benchmark");
        let mut base = analyse(b)?;
        let single = stats::table3(b.name, &base.ir, &mut base.result).avg();
        let cfg = pta_core::AnalysisConfig {
            heap_sites: true,
            ..Default::default()
        };
        let mut sited = crate::analyse_with(b, cfg)?;
        let with_sites = stats::table3(b.name, &sited.ir, &mut sited.result).avg();
        let sites = sited
            .result
            .locs
            .ids()
            .filter(|l| {
                matches!(
                    sited.result.locs.get(*l).base,
                    pta_core::LocBase::HeapSite(_)
                )
            })
            .count();
        Ok(HeapSiteRow {
            name: (*name).to_owned(),
            single_heap_avg: single,
            heap_sites_avg: with_sites,
            sites,
        })
    })
    .into_iter()
    .collect()
}

/// Renders the heap-site ablation.
pub fn render_heap_sites(rows: &[HeapSiteRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>12} {:>7}   (avg targets per indirect ref)",
        "Benchmark", "single-heap", "heap-sites", "#sites"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<10} {:>12.2} {:>12.2} {:>7}",
            r.name, r.single_heap_avg, r.heap_sites_avg, r.sites
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_analyses_cleanly() {
        for b in all_benchmarks() {
            let a = analyse(b);
            assert!(a.is_ok(), "{} failed: {:?}", b.name, a.err());
        }
    }

    #[test]
    fn livc_study_shape_matches_paper() {
        let s = livc_study().expect("livc study");
        assert_eq!(s.total_functions, 82);
        assert_eq!(s.address_taken_functions, 72);
        assert_eq!(s.indirect_sites, 3);
        // The paper's qualitative result: precise << address-taken <= all.
        assert!(
            s.precise_nodes < s.address_taken_nodes,
            "precise {} !< address-taken {}",
            s.precise_nodes,
            s.address_taken_nodes
        );
        assert!(
            s.address_taken_nodes <= s.all_functions_nodes,
            "address-taken {} !<= all {}",
            s.address_taken_nodes,
            s.all_functions_nodes
        );
    }

    #[test]
    fn heap_site_ablation_runs_and_splits_the_summary() {
        // Note the metric subtlety: splitting the single `heap` summary
        // can RAISE the average target count (a pointer that "pointed to
        // heap" now points to several sites) while improving
        // disambiguation — two pointers to different sites are provably
        // disjoint. The rows document this trade-off.
        let rows = heap_site_ablation().expect("heap-site ablation");
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.sites >= 1, "{}: no allocation sites found", r.name);
            assert!(r.heap_sites_avg >= 1.0 - 1e-9, "{r:?}");
        }
        // At least one benchmark has multiple sites (the split happened).
        assert!(rows.iter().any(|r| r.sites > 1), "{rows:?}");
    }

    #[test]
    fn ablation_orders_precision_on_pointer_benchmark() {
        let r = ablation_one(crate::benchmark("toplev").unwrap()).expect("ablation");
        // Context-sensitive is at least as precise as all three baselines.
        assert!(r.context_sensitive <= r.context_insensitive + 1e-9, "{r:?}");
        assert!(r.context_sensitive <= r.andersen + 1e-9, "{r:?}");
        assert!(r.context_sensitive <= r.steensgaard + 1e-9, "{r:?}");
    }
}
