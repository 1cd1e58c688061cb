//! Prints the reproduced evaluation tables of the PLDI 1994 points-to
//! paper. Usage:
//!
//! ```text
//! report [SECTION] [--jobs N] [--lint] [--profile] [--json PATH]
//!        [--deadline MS] [--budget N] [--prune-liveness]
//!        [--memo node|program]
//!
//! SECTION: table2|table3|table4|table5|table6|livc|ablation|
//!          heap-sites|summary|all                      (default: all)
//! --jobs N     worker threads (default: available parallelism; 1 = serial)
//! --lint       append the per-benchmark diagnostics table (pta-lint)
//! --profile    run with the trace-metrics layer attached and append
//!              the per-benchmark self-profiling table (memo hit/miss,
//!              invocation-graph activity, map volumes)
//! --json PATH  write the suite as JSON: per-benchmark fidelity,
//!              diagnostic counts and the deterministic trace-metrics
//!              counters
//! --deadline MS wall-clock budget per benchmark analysis, in
//!              milliseconds; exhaustion degrades to cheaper analyses
//!              (rows are tagged with their fidelity)
//! --budget N   statement budget per benchmark analysis (same ladder)
//! --prune-liveness  drop points-to pairs for dead local pointers during
//!              propagation (liveness-pruned per-point tables; use-point
//!              resolutions unchanged); the JSON artifact then carries a
//!              per-benchmark `"prune"` sparsity section (E17)
//! --memo node|program  memo scope for the suite runs: `node` (default)
//!              is the paper's per-node memo, `program` also reuses a
//!              context pair at every call site with the same input
//!              (same answers; see DESIGN.md §11)
//! ```
//!
//! Every section, table and JSON document is byte-identical for every
//! `--jobs` value: the report prints counts only. Speed is measured by
//! `pta-perf` (`perf/`), not here.
//!
//! Exit status: `0` on a clean run, `1` when any suite row failed or an
//! analysis errored, `2` on a usage error.

use pta_benchsuite::report;
use pta_core::AnalysisConfig;
use std::time::Duration;

/// Usage error (bad flags).
const EXIT_USAGE: i32 = 2;
/// A benchmark failed to analyse (partial report printed).
const EXIT_ANALYSIS: i32 = 1;

fn main() {
    let mut section: Option<String> = None;
    let mut jobs: Option<usize> = None;
    let mut lint = false;
    let mut profile = false;
    let mut json: Option<String> = None;
    let mut config = AnalysisConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<usize>() {
                    Ok(0) => die_usage(
                        "--jobs expects a positive number (got 0); use 1 for a serial run",
                    ),
                    Ok(n) => jobs = Some(n),
                    Err(_) => die_usage(&format!("--jobs expects a number, got `{v}`")),
                }
            }
            "--lint" => lint = true,
            "--profile" => profile = true,
            "--json" => match args.next() {
                Some(p) => json = Some(p),
                None => die_usage("--json expects a file path"),
            },
            "--deadline" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(ms) => config.deadline = Some(Duration::from_millis(ms)),
                    Err(_) => die_usage(&format!("--deadline expects milliseconds, got `{v}`")),
                }
            }
            "--budget" => {
                let v = args.next().unwrap_or_default();
                match v.parse::<u64>() {
                    Ok(n) if n > 0 => config.max_steps = n,
                    _ => die_usage(&format!("--budget expects a positive number, got `{v}`")),
                }
            }
            "--prune-liveness" => config.prune_liveness = true,
            "--memo" => {
                let v = args.next().unwrap_or_default();
                match pta_core::MemoScope::parse(&v) {
                    Some(m) => config.memo = m,
                    None => die_usage(&format!("--memo expects `node` or `program`, got `{v}`")),
                }
            }
            s if s.starts_with('-') => die_usage(&format!("unknown flag `{s}`")),
            s => section = Some(s.to_owned()),
        }
    }
    const SECTIONS: &[&str] = &[
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "summary",
        "livc",
        "heap-sites",
        "ablation",
        "all",
    ];
    if let Some(s) = &section {
        if !SECTIONS.contains(&s.as_str()) {
            die_usage(&format!(
                "unknown section `{s}` (expected one of: {})",
                SECTIONS.join(", ")
            ));
        }
    }
    let jobs = jobs.unwrap_or_else(pta_benchsuite::default_jobs);
    let arg = section.unwrap_or_else(|| "all".to_owned());
    let want = |s: &str| arg == s || arg == "all";
    let mut failed = false;

    let suite_wanted = want("table2")
        || want("table3")
        || want("table4")
        || want("table5")
        || want("table6")
        || want("summary")
        || lint
        || profile
        || json.is_some();
    if suite_wanted {
        // Metrics ride along whenever the artifact or the profile table
        // asks for them; plain table runs stay untraced.
        let with_metrics = profile || json.is_some();
        let suite = report::run_benchmarks(pta_benchsuite::SUITE, jobs, config, with_metrics);
        if want("table2") {
            println!(
                "== Table 2: benchmark characteristics ==\n{}",
                suite.table2()
            );
        }
        if want("table3") {
            println!(
                "== Table 3: points-to statistics for indirect references ==\n{}",
                suite.table3()
            );
        }
        if want("table4") {
            println!(
                "== Table 4: categorization of points-to info used by indirect refs ==\n{}",
                suite.table4()
            );
        }
        if want("table5") {
            println!(
                "== Table 5: general points-to statistics ==\n{}",
                suite.table5()
            );
        }
        if want("table6") {
            println!(
                "== Table 6: invocation graph statistics ==\n{}",
                suite.table6()
            );
        }
        if want("summary") {
            let s = suite.summary();
            println!("== Section 6 headline aggregates ==");
            println!("indirect references:           {}", s.ind_refs);
            println!(
                "overall avg targets/ref:       {:.2}  (paper: 1.13)",
                s.overall_avg
            );
            println!(
                "% definite single target:      {:.2}% (paper: 28.80%)",
                s.pct_definite
            );
            println!(
                "% at most one non-NULL target: {:.2}% (paper: 90.76%)",
                s.pct_single
            );
            println!(
                "% replaceable by direct ref:   {:.2}% (paper: 19.39%)",
                s.pct_replaceable
            );
            println!(
                "% pairs targeting the heap:    {:.2}% (paper: 27.92%)",
                s.pct_heap
            );
            println!();
        }
        if lint {
            println!(
                "== Diagnostics per benchmark (pta-lint) ==\n{}",
                suite.lint_table()
            );
        }
        if profile {
            println!(
                "== Self-profiling metrics per benchmark (trace layer) ==\n{}",
                suite.profile_table()
            );
        }
        if let Some(path) = &json {
            std::fs::write(path, suite.suite_json())
                .unwrap_or_else(|e| die_usage(&format!("cannot write {path}: {e}")));
            eprintln!("wrote the suite JSON to {path}");
        }
        if !suite.is_clean() {
            eprint!("{}", suite.render_failures());
        }
        if !suite.failures().is_empty() {
            failed = true;
        }
    }
    if want("livc") {
        match report::livc_study_jobs(jobs) {
            Ok(s) => println!("== livc function-pointer study ==\n{}", s.render()),
            Err(e) => {
                eprintln!("report: livc study failed: {e}");
                failed = true;
            }
        }
    }
    if want("heap-sites") {
        match report::heap_site_ablation_jobs(jobs) {
            Ok(rows) => println!(
                "== Allocation-site heap extension (E12) ==\n{}",
                report::render_heap_sites(&rows)
            ),
            Err(e) => {
                eprintln!("report: heap-site ablation failed: {e}");
                failed = true;
            }
        }
    }
    if want("ablation") {
        match report::ablation_jobs(jobs) {
            Ok(rows) => println!(
                "== Context-sensitivity ablation ==\n{}",
                report::render_ablation(&rows)
            ),
            Err(e) => {
                eprintln!("report: ablation failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        eprintln!("report: some analyses failed; see the rows above");
        std::process::exit(EXIT_ANALYSIS);
    }
}

fn die_usage(msg: &str) -> ! {
    eprintln!("report: {msg}");
    std::process::exit(EXIT_USAGE);
}
