//! Property tests for the trace layer over generated pathological
//! programs:
//!
//! 1. attaching a sink never changes the analysis result or the lint
//!    findings (observation must be free of side effects);
//! 2. a scrubbed JSONL trace is byte-identical across repeated runs of
//!    the same program (determinism is what makes golden traces and
//!    the CI smoke check possible);
//! 3. every emitted line is schema-valid: known kind, `ts_us` present,
//!    kind-specific fields in wire order.

use pta_core::trace::{JsonlSink, TraceMetrics, EVENT_SPECS};
use pta_core::{analyze, analyze_traced, AnalysisConfig, Fidelity, MemoScope};
use pta_lint::{lint_ir, LintOptions};
use pta_prop::{case_seed, cgen, check_seeded, Rng};

/// Deterministic generated source for one case, cycling the families.
fn source_for(case_rng: &mut Rng, case: u32) -> String {
    let family = cgen::FAMILIES[case as usize % cgen::FAMILIES.len()];
    cgen::generate(family, case_rng)
}

#[test]
fn tracing_never_changes_results_or_findings() {
    let mut case = 0u32;
    check_seeded("trace-transparency", pta_prop::DEFAULT_SEED, 20, &mut |g| {
        let src = source_for(g, case);
        case += 1;
        let Ok(ir) = pta_simple::compile(&src) else {
            return; // front-end rejections are covered elsewhere
        };
        let plain = analyze(&ir);
        let mut metrics = TraceMetrics::new();
        let traced = analyze_traced(&ir, AnalysisConfig::default(), &mut metrics);
        match (plain, traced) {
            (Ok(a), Ok(b)) => {
                assert_eq!(
                    format!("{:?}", a.per_stmt),
                    format!("{:?}", b.per_stmt),
                    "per-statement facts diverged under tracing:\n{src}"
                );
                assert_eq!(
                    format!("{:?}", a.exit_set),
                    format!("{:?}", b.exit_set),
                    "exit set diverged under tracing:\n{src}"
                );
                assert_eq!(a.warnings, b.warnings, "warnings diverged:\n{src}");
                let opts = LintOptions::default();
                let la = lint_ir(&ir, &a, Fidelity::ContextSensitive, &opts);
                let lb = lint_ir(&ir, &b, Fidelity::ContextSensitive, &opts);
                assert_eq!(la, lb, "lint findings diverged under tracing:\n{src}");
            }
            (Err(ea), Err(eb)) => {
                assert_eq!(
                    ea.to_string(),
                    eb.to_string(),
                    "failure mode diverged under tracing:\n{src}"
                );
            }
            (a, b) => panic!(
                "tracing flipped success/failure: plain={:?} traced={:?}\n{src}",
                a.map(|_| ()),
                b.map(|_| ()),
            ),
        }
    });
}

#[test]
fn scrubbed_traces_are_deterministic_and_schema_valid() {
    let mut case = 0u32;
    check_seeded("trace-determinism", pta_prop::DEFAULT_SEED, 12, &mut |g| {
        let seed_rng_src = source_for(g, case);
        case += 1;
        let Ok(ir) = pta_simple::compile(&seed_rng_src) else {
            return;
        };
        let run = |ir: &pta_simple::IrProgram| {
            let mut sink = JsonlSink::scrubbed();
            let _ = analyze_traced(ir, AnalysisConfig::default(), &mut sink);
            sink.into_string()
        };
        let first = run(&ir);
        let second = run(&ir);
        assert_eq!(first, second, "scrubbed trace varied across runs");
        for line in first.lines() {
            assert!(line.starts_with("{\"ev\":\""), "bad prefix: {line}");
            let kind = &line["{\"ev\":\"".len()..]
                [..line["{\"ev\":\"".len()..].find('"').expect("closing quote")];
            let spec = EVENT_SPECS
                .iter()
                .find(|s| s.kind == kind)
                .unwrap_or_else(|| panic!("unknown event kind `{kind}`: {line}"));
            let mut at = 0usize;
            for field in std::iter::once(&"ts_us").chain(spec.fields) {
                let needle = format!("\"{field}\":");
                let pos = line[at..]
                    .find(&needle)
                    .unwrap_or_else(|| panic!("field `{field}` missing or out of order: {line}"));
                at += pos + needle.len();
            }
        }
    });
}

fn program_memo() -> AnalysisConfig {
    AnalysisConfig {
        memo: MemoScope::Program,
        ..AnalysisConfig::default()
    }
}

#[test]
fn program_memo_tracing_never_changes_results() {
    // Program scope serves repeated contexts through the warm-pair
    // replay path; observing it must be as side-effect free as the
    // node-scope engine. Compare an untraced run against a traced one
    // on every generated family.
    let mut case = 0u32;
    check_seeded(
        "program-memo-trace-transparency",
        pta_prop::DEFAULT_SEED,
        15,
        &mut |g| {
            let src = source_for(g, case);
            case += 1;
            let Ok(ir) = pta_simple::compile(&src) else {
                return;
            };
            let plain = pta_core::analyze_with(&ir, program_memo());
            let mut metrics = TraceMetrics::new();
            let traced = analyze_traced(&ir, program_memo(), &mut metrics);
            match (plain, traced) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(
                        format!("{:?}", a.per_stmt),
                        format!("{:?}", b.per_stmt),
                        "per-statement facts diverged under program-memo tracing:\n{src}"
                    );
                    assert_eq!(
                        format!("{:?}", a.exit_set),
                        format!("{:?}", b.exit_set),
                        "exit set diverged under program-memo tracing:\n{src}"
                    );
                    assert_eq!(a.warnings, b.warnings, "warnings diverged:\n{src}");
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        ea.to_string(),
                        eb.to_string(),
                        "failure mode diverged under program-memo tracing:\n{src}"
                    );
                }
                (a, b) => panic!(
                    "program-memo tracing flipped success/failure: plain={:?} traced={:?}\n{src}",
                    a.map(|_| ()),
                    b.map(|_| ()),
                ),
            }
        },
    );
}

#[test]
fn program_memo_replays_pairs_on_the_corpus() {
    // At least one generated program must be served more memo hits
    // under program scope than under node scope, so the transparency
    // property above covers the replay path and is not vacuous.
    let mut replayed = false;
    for case in 0..20u32 {
        let mut g = Rng::new(case_seed(pta_prop::DEFAULT_SEED, case));
        let src = source_for(&mut g, case);
        let Ok(ir) = pta_simple::compile(&src) else {
            continue;
        };
        let (mut node, mut program) = (TraceMetrics::new(), TraceMetrics::new());
        if analyze_traced(&ir, AnalysisConfig::default(), &mut node).is_ok()
            && analyze_traced(&ir, program_memo(), &mut program).is_ok()
            && program.memo_hits > node.memo_hits
        {
            replayed = true;
            break;
        }
    }
    assert!(replayed, "corpus never replayed a program-scope pair");
}

#[test]
fn seeded_corpus_produces_memo_traffic() {
    // Make sure the generated corpus actually exercises the memo
    // counters at least somewhere, so the transparency property above
    // is not vacuously passing on programs with no calls.
    let mut saw_calls = false;
    for case in 0..20u32 {
        let mut g = Rng::new(case_seed(pta_prop::DEFAULT_SEED, case));
        let src = source_for(&mut g, case);
        let Ok(ir) = pta_simple::compile(&src) else {
            continue;
        };
        let mut m = TraceMetrics::new();
        if analyze_traced(&ir, AnalysisConfig::default(), &mut m).is_ok()
            && m.memo_hits + m.memo_misses > 0
        {
            saw_calls = true;
            break;
        }
    }
    assert!(saw_calls, "corpus never produced memoization traffic");
}
