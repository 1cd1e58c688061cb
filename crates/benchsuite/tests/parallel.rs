//! The parallel suite driver must be invisible in the results: every
//! rendered table and every computed study is byte-identical whether
//! the work runs on one worker or many.

use pta_benchsuite::{report, SUITE};
use pta_core::AnalysisConfig;

#[test]
fn tables_are_byte_identical_across_job_counts() {
    // Profiled, so the JSON document carries the trace counters too.
    let serial = report::run_benchmarks(SUITE, 1, AnalysisConfig::default(), true);
    let parallel = report::run_benchmarks(SUITE, 4, AnalysisConfig::default(), true);
    assert!(serial.is_clean(), "{}", serial.render_failures());
    assert_eq!(serial.table2(), parallel.table2(), "Table 2 differs");
    assert_eq!(serial.table3(), parallel.table3(), "Table 3 differs");
    assert_eq!(serial.table4(), parallel.table4(), "Table 4 differs");
    assert_eq!(serial.table5(), parallel.table5(), "Table 5 differs");
    assert_eq!(serial.table6(), parallel.table6(), "Table 6 differs");
    assert_eq!(serial.summary(), parallel.summary(), "summary differs");
    assert_eq!(serial.lint_table(), parallel.lint_table(), "lint differs");
    assert_eq!(
        serial.profile_table(),
        parallel.profile_table(),
        "profile differs"
    );
    assert_eq!(serial.suite_json(), parallel.suite_json(), "JSON differs");
    assert!(serial.suite_json().contains("\"metrics\":{"));
}

#[test]
fn panicking_job_becomes_a_failed_row_on_every_job_count() {
    use pta_benchsuite::{benchmark, Benchmark, PANIC_BENCH_NAME};
    let benches = vec![
        benchmark("hash").unwrap(),
        Benchmark {
            name: PANIC_BENCH_NAME,
            source: "int main(void) { return 0; }",
            description: "deliberately panicking job",
        },
        benchmark("travel").unwrap(),
    ];
    let cfg = AnalysisConfig::default();
    let reference = report::run_benchmarks(&benches, 1, cfg.clone(), false);
    for jobs in 1..=8 {
        let suite = report::run_benchmarks(&benches, jobs, cfg.clone(), false);
        // The panic is contained: its row fails, the siblings analyse.
        assert_eq!(suite.rows.len(), 3, "jobs={jobs}");
        assert!(suite.rows[0].as_analysed().is_some(), "jobs={jobs}");
        assert!(suite.rows[2].as_analysed().is_some(), "jobs={jobs}");
        let failures = suite.failures();
        assert_eq!(failures.len(), 1, "jobs={jobs}");
        assert_eq!(failures[0].name, PANIC_BENCH_NAME);
        assert_eq!(failures[0].kind, report::SuiteErrorKind::Panic);
        assert!(failures[0].message.contains("deliberate"), "{failures:?}");
        assert!(!suite.is_clean());
        // The partial tables are deterministic and job-count independent.
        assert_eq!(suite.table2(), reference.table2(), "jobs={jobs}");
        assert_eq!(suite.table3(), reference.table3(), "jobs={jobs}");
        assert_eq!(suite.table6(), reference.table6(), "jobs={jobs}");
        assert_eq!(suite.summary(), reference.summary(), "jobs={jobs}");
        // The failed row shows up in the rendered tables and the JSON.
        assert!(suite.table2().contains("FAILED"), "jobs={jobs}");
        assert!(suite.render_failures().contains(PANIC_BENCH_NAME));
        assert!(suite.suite_json().contains("\"failed\":true"));
    }
}

#[test]
fn budget_exhaustion_degrades_a_row_instead_of_failing() {
    use pta_benchsuite::benchmark;
    let benches = vec![benchmark("hash").unwrap()];
    let cfg = AnalysisConfig {
        max_steps: 10,
        ..Default::default()
    };
    let suite = report::run_benchmarks(&benches, 1, cfg, false);
    assert!(suite.failures().is_empty(), "{}", suite.render_failures());
    let degraded = suite.degraded();
    assert_eq!(degraded.len(), 1);
    assert!(!degraded[0].fidelity.is_full());
    assert!(!degraded[0].degradations.is_empty());
    // The provenance reaches the rendered table and the JSON artifact.
    assert!(suite
        .table3()
        .contains(&format!("[{}]", degraded[0].fidelity)));
    assert!(suite
        .suite_json()
        .contains(&format!("\"fidelity\":\"{}\"", degraded[0].fidelity)));
}

#[test]
fn livc_study_is_job_count_independent() {
    let serial = report::livc_study_jobs(1).expect("serial livc");
    let parallel = report::livc_study_jobs(3).expect("parallel livc");
    assert_eq!(serial, parallel);
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn ablation_is_job_count_independent() {
    let serial = report::ablation_jobs(1).expect("serial ablation");
    let parallel = report::ablation_jobs(4).expect("parallel ablation");
    assert_eq!(serial, parallel);
    assert_eq!(
        report::render_ablation(&serial),
        report::render_ablation(&parallel)
    );
}

#[test]
fn heap_site_ablation_is_job_count_independent() {
    let serial = report::heap_site_ablation_jobs(1).expect("serial heap sites");
    let parallel = report::heap_site_ablation_jobs(4).expect("parallel heap sites");
    assert_eq!(serial, parallel);
}
