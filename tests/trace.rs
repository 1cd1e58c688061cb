//! Trace-layer integration tests (E13):
//!
//! 1. the golden JSONL trace of `tests/programs/trace_small.c` is
//!    reproduced byte-for-byte with scrubbed timings;
//! 2. every event kind the engine can emit is documented in
//!    `docs/TRACING.md` (the same contract `trace-check --docs`
//!    enforces in CI);
//! 3. one-source-of-truth: the invocation-graph statistics reported by
//!    the metrics layer reconcile exactly with the Table 6 pipeline
//!    (E5) on the whole benchmark suite.

use pta::benchsuite::report;
use pta::core::{run_source_traced, AnalysisConfig, JsonlSink, TraceMetrics, EVENT_SPECS};

const TRACE_SMALL: &str = include_str!("programs/trace_small.c");
const GOLDEN: &str = include_str!("programs/trace_small.jsonl");
const TRACING_DOC: &str = include_str!("../docs/TRACING.md");

#[test]
fn golden_trace_is_byte_stable() {
    let mut sink = JsonlSink::scrubbed();
    let (_, fidelity, degradations) =
        run_source_traced(TRACE_SMALL, AnalysisConfig::default(), &mut sink).expect("analysis ok");
    assert!(fidelity.is_full(), "golden run degraded: {degradations:?}");
    assert_eq!(
        sink.as_str(),
        GOLDEN,
        "regenerate with: pta trace tests/programs/trace_small.c --scrub-timings"
    );
}

#[test]
fn golden_trace_exercises_the_memoization_paths() {
    // The recursive shape of the golden program must keep covering the
    // interesting event kinds; a silent fixture change that loses the
    // memo-hit or approximate coverage should fail loudly here.
    for kind in [
        "analysis_start",
        "analysis_end",
        "ig_enter",
        "ig_exit",
        "memo_hit",
        "memo_miss",
        "approx_defer",
        "map",
        "unmap",
        "stmt",
    ] {
        assert!(
            GOLDEN.contains(&format!("{{\"ev\":\"{kind}\"")),
            "golden trace lost coverage of `{kind}`"
        );
    }
    // Scrubbed timings: no non-zero ts_us/dur_us survive.
    for line in GOLDEN.lines() {
        assert!(line.contains("\"ts_us\":0"), "unscrubbed line: {line}");
        assert!(!line.contains("\"dur_us\":1"), "unscrubbed line: {line}");
    }
}

#[test]
fn every_event_kind_is_documented() {
    for spec in EVENT_SPECS {
        let heading = format!("### `{}`", spec.kind);
        assert!(
            TRACING_DOC.contains(&heading),
            "docs/TRACING.md lacks a section for event kind `{}`",
            spec.kind
        );
        for field in spec.fields {
            assert!(
                TRACING_DOC.contains(&format!("`{field}`")),
                "docs/TRACING.md never mentions field `{}` of `{}`",
                field,
                spec.kind
            );
        }
    }
}

#[test]
fn e13_metrics_reconcile_with_table6() {
    // The metrics layer and the Table 6 statistics pipeline must agree
    // exactly: analysis_end carries `ig.stats()`, which is the same
    // source `stats::table6` reads, so any divergence means an event
    // was dropped or double-counted.
    let suite = report::run_benchmarks(pta::benchsuite::SUITE, 2, AnalysisConfig::default(), true);
    assert!(suite.is_clean(), "{}", suite.render_failures());
    let mut seen = 0;
    for row in suite.analysed_rows() {
        let name = row.analysed.bench.name;
        let m = row
            .metrics
            .as_ref()
            .unwrap_or_else(|| panic!("{name}: profiled run lost its metrics"));
        assert!(m.completed, "{name}: metrics never saw analysis_end");
        let t6 = &row.stats.t6;
        assert_eq!(m.ig_nodes, t6.ig_nodes, "{name}: IG node count diverged");
        assert_eq!(m.ig_recursive, t6.recursive, "{name}: recursive diverged");
        assert_eq!(
            m.ig_approximate, t6.approximate,
            "{name}: approximate diverged"
        );
        // Sanity on the derived counters: every enter is a miss (hits
        // return before entering), and per-function counters sum to
        // the whole-run ones.
        let func_hits: u64 = m.per_func.values().map(|f| f.memo_hits).sum();
        let func_misses: u64 = m.per_func.values().map(|f| f.memo_misses).sum();
        assert_eq!(func_hits, m.memo_hits, "{name}: per-function hit sum");
        assert_eq!(func_misses, m.memo_misses, "{name}: per-function miss sum");
        seen += 1;
    }
    assert_eq!(
        seen,
        pta::benchsuite::SUITE.len(),
        "suite rows went missing"
    );
}

#[test]
fn metrics_json_is_self_consistent() {
    let mut m = TraceMetrics::new();
    run_source_traced(TRACE_SMALL, AnalysisConfig::default(), &mut m).expect("analysis ok");
    let js = m.to_json();
    assert_eq!(
        js.matches('{').count(),
        js.matches('}').count(),
        "balanced: {js}"
    );
    // Deterministic counters only: no timing keys in the suite artifact.
    assert!(!js.contains("_us"), "timing leaked into metrics json: {js}");
    assert!(js.contains("\"completed\":true"), "{js}");
    assert!(js.contains("\"ig_nodes\":5"), "{js}");
}
