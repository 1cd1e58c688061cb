//! Resource budgets and the degradation ladder, end to end: every
//! `AnalysisError` budget variant trips on a minimal program, trip
//! points carry usable provenance, and falling down the ladder loses
//! precision but never answers.

use pta::core::{analyze_resilient, analyze_with, stats, AnalysisConfig, AnalysisError, Fidelity};
use std::collections::BTreeSet;
use std::time::Duration;

/// Two pointers with distinct targets: any per-statement set reaches
/// two pairs, and a call gives the invocation graph a second node.
const SMALL: &str = "int x, y;
     void set(int **p, int *v) { *p = v; }
     int main(void) { int *a; int *b; a = &x; b = &y; set(&a, &y); return *a; }";

fn config() -> AnalysisConfig {
    AnalysisConfig::default()
}

#[test]
fn step_budget_trips_with_provenance() {
    let ir = pta::simple::compile(SMALL).unwrap();
    let err = analyze_with(
        &ir,
        AnalysisConfig {
            max_steps: 1,
            ..config()
        },
    )
    .unwrap_err();
    let AnalysisError::StepBudget { limit: 1, at } = &err else {
        panic!("expected StepBudget, got {err:?}");
    };
    // The trip point names the function being analysed.
    assert!(!at.function.is_empty());
    assert!(err.to_string().contains("max_steps"), "{err}");
}

#[test]
fn deadline_trips_immediately_at_zero() {
    let ir = pta::simple::compile(SMALL).unwrap();
    let err = analyze_with(
        &ir,
        AnalysisConfig {
            deadline: Some(Duration::ZERO),
            ..config()
        },
    )
    .unwrap_err();
    assert!(matches!(err, AnalysisError::Deadline { .. }), "{err:?}");
    assert!(err.to_string().contains("deadline"), "{err}");
}

#[test]
fn pt_pair_budget_trips_on_a_two_pair_set() {
    let ir = pta::simple::compile(SMALL).unwrap();
    let err = analyze_with(
        &ir,
        AnalysisConfig {
            max_pt_pairs: 1,
            ..config()
        },
    )
    .unwrap_err();
    let AnalysisError::PtBudget { limit: 1, size, .. } = &err else {
        panic!("expected PtBudget, got {err:?}");
    };
    assert!(*size > 1);
    assert!(err.to_string().contains("max_pt_pairs"), "{err}");
}

#[test]
fn ig_budget_trips_on_the_second_node() {
    let ir = pta::simple::compile(SMALL).unwrap();
    let err = analyze_with(
        &ir,
        AnalysisConfig {
            max_ig_nodes: 1,
            ..config()
        },
    )
    .unwrap_err();
    assert!(
        matches!(err, AnalysisError::IgBudget { limit: 1, .. }),
        "{err:?}"
    );
    assert!(err.to_string().contains("max_ig_nodes"), "{err}");
}

#[test]
fn map_depth_budget_trips_on_a_deep_chain() {
    let src = pta_prop::cgen::deep_chain(6);
    let ir = pta::simple::compile(&src).unwrap();
    let err = analyze_with(
        &ir,
        AnalysisConfig {
            max_map_depth: 1,
            ..config()
        },
    )
    .unwrap_err();
    let AnalysisError::MapDepthBudget { limit: 1, at } = &err else {
        panic!("expected MapDepthBudget, got {err:?}");
    };
    assert!(!at.function.is_empty());
    assert!(err.to_string().contains("max_map_depth"), "{err}");
}

#[test]
fn every_budget_error_is_recoverable_and_kinded() {
    let ir = pta::simple::compile(SMALL).unwrap();
    let deep = pta::simple::compile(&pta_prop::cgen::deep_chain(6)).unwrap();
    let cases: Vec<AnalysisError> = vec![
        analyze_with(
            &ir,
            AnalysisConfig {
                max_steps: 1,
                ..config()
            },
        )
        .unwrap_err(),
        analyze_with(
            &ir,
            AnalysisConfig {
                deadline: Some(Duration::ZERO),
                ..config()
            },
        )
        .unwrap_err(),
        analyze_with(
            &ir,
            AnalysisConfig {
                max_pt_pairs: 1,
                ..config()
            },
        )
        .unwrap_err(),
        analyze_with(
            &ir,
            AnalysisConfig {
                max_ig_nodes: 1,
                ..config()
            },
        )
        .unwrap_err(),
        analyze_with(
            &deep,
            AnalysisConfig {
                max_map_depth: 1,
                ..config()
            },
        )
        .unwrap_err(),
    ];
    for e in cases {
        assert!(e.is_recoverable(), "{e:?} should be recoverable");
        assert!(e.budget_kind().is_some(), "{e:?} should carry its kind");
    }
}

// ---------------------------------------------------------------------
// Degradation ladder precision: coarser, never wrong
// ---------------------------------------------------------------------

/// The exit-of-main points-to pairs as (source name, target name),
/// definiteness erased — the common currency across engines.
fn exit_pair_names(result: &pta::core::AnalysisResult) -> BTreeSet<(String, String)> {
    result
        .exit_set
        .iter()
        .filter(|(_, t, _)| !result.locs.is_null(*t))
        .map(|(s, t, _)| {
            (
                result.locs.name(s).to_owned(),
                result.locs.name(t).to_owned(),
            )
        })
        .collect()
}

#[test]
fn ladder_fallback_is_a_superset_of_the_full_analysis() {
    for name in ["hash", "travel", "fixoutput"] {
        let b = pta::benchsuite::benchmark(name).unwrap();
        let ir = pta::simple::compile(b.source).unwrap();
        let full = analyze_with(&ir, config()).unwrap();
        let out = analyze_resilient(
            &ir,
            AnalysisConfig {
                max_steps: 25,
                ..config()
            },
        )
        .unwrap();
        assert!(!out.fidelity.is_full(), "{name}: budget should trip");
        let cs = exit_pair_names(&full);
        let fb = exit_pair_names(&out.result);
        for pair in &cs {
            assert!(
                fb.contains(pair),
                "{name} [{}]: fallback lost pair {pair:?}",
                out.fidelity
            );
        }
    }
}

#[test]
fn ladder_fallback_precision_is_no_better_than_full() {
    // E11's metric: average non-NULL targets per indirect reference.
    // A sound fallback may only equal or exceed the full analysis.
    for name in ["hash", "travel"] {
        let b = pta::benchsuite::benchmark(name).unwrap();
        let ir = pta::simple::compile(b.source).unwrap();
        let full = analyze_with(&ir, config()).unwrap();
        let full_avg = stats::table3(name, &ir, &full).avg();
        let out = analyze_resilient(
            &ir,
            AnalysisConfig {
                max_steps: 25,
                ..config()
            },
        )
        .unwrap();
        let degraded_avg = stats::table3(name, &ir, &out.result).avg();
        assert!(
            degraded_avg >= full_avg - 1e-9,
            "{name}: degraded avg {degraded_avg} < full avg {full_avg}"
        );
    }
}

// ---------------------------------------------------------------------
// The checked-in stress case from the acceptance criteria
// ---------------------------------------------------------------------

#[test]
fn checked_in_stress_case_degrades_gracefully() {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/programs/stress_knot.c"
    ))
    .unwrap();
    let (pta, fidelity, degradations) = pta::core::run_source_resilient(
        &src,
        AnalysisConfig {
            max_steps: 8,
            deadline: Some(Duration::from_secs(10)),
            ..config()
        },
    )
    .unwrap();
    assert!(!fidelity.is_full(), "tight budget should force a fallback");
    assert!(!degradations.is_empty());
    assert!(matches!(
        degradations[0].1.budget_kind(),
        Some(pta::core::BudgetKind::Steps)
    ));
    // The fallback still resolves the function pointer somewhere.
    assert!(!pta.result.exit_set.is_empty());
    // And with generous budgets the same program completes at full
    // precision — the stress case is pathological only under pressure.
    let (_, full_fidelity, _) = pta::core::run_source_resilient(&src, config()).unwrap();
    assert_eq!(full_fidelity, Fidelity::ContextSensitive);
}
