//! Prints the reproduced evaluation tables of the PLDI 1994 points-to
//! paper. Usage:
//!
//! ```text
//! report [SECTION] [--jobs N] [--timings] [--lint] [--profile]
//!        [--json PATH] [--serve-json PATH] [--store-dir DIR]
//!        [--deadline MS] [--budget N] [--prune-liveness]
//!        [--memo node|program] [--summary-json PATH]
//!
//! SECTION: table2|table3|table4|table5|table6|livc|ablation|
//!          heap-sites|summary|summary-scale|all        (default: all)
//! --jobs N     worker threads (default: available parallelism; 1 = serial)
//! --timings    append the per-benchmark timing table (suite sections only)
//! --lint       append the per-benchmark diagnostics table (pta-lint)
//! --profile    run with the trace-metrics layer attached and append
//!              the per-benchmark self-profiling table (memo hit/miss,
//!              invocation-graph activity, map volumes)
//! --json PATH  write suite timings as JSON (the CI bench artifact);
//!              entries embed per-benchmark diagnostic counts and the
//!              deterministic trace-metrics counters
//! --serve-json PATH  embed a `pta.load.v1` artifact (written by
//!              `pta-load --json`) as a `"serve"` section of the JSON
//!              artifact, and print its throughput/latency table
//! --store-dir DIR  write one fact-store snapshot per benchmark to
//!              DIR/<name>.ptas and time a warm (snapshot-seeded)
//!              re-analysis next to the cold one; the timing table and
//!              JSON artifact then carry cold/warm columns
//! --deadline MS wall-clock budget per benchmark analysis, in
//!              milliseconds; exhaustion degrades to cheaper analyses
//!              (rows are tagged with their fidelity)
//! --budget N   statement budget per benchmark analysis (same ladder)
//! --prune-liveness  drop points-to pairs for dead local pointers during
//!              propagation (liveness-pruned per-point tables; use-point
//!              resolutions unchanged); the JSON artifact then carries a
//!              per-benchmark `"prune"` sparsity section (E17)
//! --demand     run the demand-driven first-answer study (E18): per
//!              benchmark, pick the defined function with the smallest
//!              backward slice, time a demand-driven analysis rooted
//!              there against an exhaustive cold analysis, and print
//!              the latency table; the JSON artifact then carries a
//!              `"demand"` section (see docs/QUERIES.md)
//! --memo node|program  memo scope for the suite runs: `node` (default)
//!              is the paper's per-node memo, `program` also reuses a
//!              context pair at every call site with the same input
//!              (same answers; see DESIGN.md §11)
//! --summary-json PATH  write the memo-scope artifact
//!              (`BENCH_summary.json`): the E19 node-vs-program table on
//!              the call-fanout generator plus the E11 ablation; the
//!              `summary-scale` section prints the E19 table (timings,
//!              so excluded from `all` like --timings)
//! ```
//!
//! Tables 2–6 are byte-identical for every `--jobs` value; timings are
//! kept out of them and shown only on request.
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
    let mut timings = false;
    let mut lint = false;
    let mut profile = false;
    let mut json: Option<String> = None;
    let mut serve_json: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut demand = false;
    let mut summary_json: Option<String> = None;
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
            "--timings" => timings = true,
            "--lint" => lint = true,
            "--profile" => profile = true,
            "--json" => match args.next() {
                Some(p) => json = Some(p),
                None => die_usage("--json expects a file path"),
            },
            "--serve-json" => match args.next() {
                Some(p) => serve_json = Some(p),
                None => die_usage("--serve-json expects a file path"),
            },
            "--store-dir" => match args.next() {
                Some(p) => store_dir = Some(p),
                None => die_usage("--store-dir expects a directory path"),
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
            "--demand" => demand = true,
            "--memo" => {
                let v = args.next().unwrap_or_default();
                match pta_core::MemoScope::parse(&v) {
                    Some(m) => config.memo = m,
                    None => die_usage(&format!("--memo expects `node` or `program`, got `{v}`")),
                }
            }
            "--summary-json" => match args.next() {
                Some(p) => summary_json = Some(p),
                None => die_usage("--summary-json expects a file path"),
            },
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
        "summary-scale",
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
    // Load (and validate) the pta-load artifact up front so a missing
    // or corrupt file fails before the suite spends minutes analysing.
    let serve_artifact: Option<String> = serve_json.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die_usage(&format!("cannot read {path}: {e}")));
        if let Err(e) = report::parse_serve_artifact(&text) {
            die_usage(&format!("{path}: {e}"));
        }
        text
    });
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
        || timings
        || lint
        || profile
        || json.is_some()
        || serve_json.is_some()
        || store_dir.is_some()
        || demand;
    if suite_wanted {
        // Metrics ride along whenever the artifact or the profile table
        // asks for them; plain table runs stay untraced. Store mode
        // collects no metrics (the cold run is a plain recorded run).
        let with_metrics = (profile || json.is_some()) && store_dir.is_none();
        let store_path = store_dir.as_ref().map(std::path::PathBuf::from);
        if let Some(dir) = &store_path {
            if let Err(e) = std::fs::create_dir_all(dir) {
                die_usage(&format!("cannot create {}: {e}", dir.display()));
            }
        }
        let suite = report::run_benchmarks_store(
            pta_benchsuite::SUITE,
            jobs,
            config.clone(),
            with_metrics,
            store_path.as_deref(),
        );
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
        if timings {
            println!(
                "== Suite timings (wall clock; not part of the tables) ==\n{}",
                suite.timings_table()
            );
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
        if let Some(text) = &serve_artifact {
            // Validated at startup, so these unwraps cannot fire.
            let parsed = report::parse_serve_artifact(text).expect("validated at startup");
            println!(
                "== Serving throughput (pta-load) ==\n{}",
                report::serve_table(&parsed)
            );
        }
        let demand_rows = if demand {
            match report::demand_study_jobs(jobs, &config) {
                Ok(rows) => {
                    println!(
                        "== Demand-driven first-answer latency (E18) ==\n{}",
                        report::render_demand(&rows)
                    );
                    Some(rows)
                }
                Err(e) => {
                    eprintln!("report: demand study failed: {e}");
                    failed = true;
                    None
                }
            }
        } else {
            None
        };
        if let Some(path) = &json {
            let mut artifact = match &serve_artifact {
                Some(text) => suite
                    .timings_json_with_serve(text)
                    .expect("validated at startup"),
                None => suite.timings_json(),
            };
            if let Some(rows) = &demand_rows {
                artifact =
                    report::splice_json_section(&artifact, "demand", &report::demand_json(rows))
                        .expect("our own artifact ends with `}`");
            }
            std::fs::write(path, artifact)
                .unwrap_or_else(|e| die_usage(&format!("cannot write {path}: {e}")));
            eprintln!("wrote timings to {path}");
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
    let mut ablation_rows = None;
    if want("ablation") || summary_json.is_some() {
        match report::ablation_jobs(jobs) {
            Ok(rows) => {
                if want("ablation") {
                    println!(
                        "== Context-sensitivity ablation ==\n{}",
                        report::render_ablation(&rows)
                    );
                }
                ablation_rows = Some(rows);
            }
            Err(e) => {
                eprintln!("report: ablation failed: {e}");
                failed = true;
            }
        }
    }
    // The E19 table carries wall-clock timings, so (like `--timings`) it
    // is excluded from `all`: `report all` stays byte-identical across
    // runs and store modes. Ask for the section by name.
    let scale_wanted = arg == "summary-scale";
    if scale_wanted || summary_json.is_some() {
        match report::summary_scale_study(report::SUMMARY_SCALE_TIERS) {
            Ok(rows) => {
                if scale_wanted {
                    println!(
                        "== Program-scope memo on call fan-out (E19) ==\n{}",
                        report::render_summary_scale(&rows)
                    );
                }
                if rows.iter().any(|r| !r.identical) {
                    eprintln!("report: program-scope facts diverged from node scope");
                    failed = true;
                }
                if let (Some(path), Some(ablation)) = (&summary_json, &ablation_rows) {
                    let artifact = report::summary_artifact(ablation, &rows);
                    std::fs::write(path, artifact)
                        .unwrap_or_else(|e| die_usage(&format!("cannot write {path}: {e}")));
                    eprintln!("wrote memo-scope study to {path}");
                }
            }
            Err(e) => {
                eprintln!("report: memo-scope study failed: {e}");
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
