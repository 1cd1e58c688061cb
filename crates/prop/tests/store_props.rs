//! Property tests for the fact store over generated pathological
//! programs:
//!
//! 1. save → load → warm re-analysis of the *unchanged* program is
//!    fact-identical to the cold run that produced the snapshot;
//! 2. save → mutate one function → load + incremental re-analysis is
//!    fact-identical to a cold run of the mutated program (the
//!    incremental correctness contract);
//! 3. the snapshot codec is a fixed point: serialize ∘ parse ∘
//!    serialize is byte-identical to serialize;
//! 4. an edit chain warmed from the resident run and one warmed from
//!    its snapshot agree id for id, and with a cold run, at every step.

use pta_core::{analyze_recorded, AnalysisConfig, Fidelity};
use pta_lint::{lint_ir, LintOptions};
use pta_prop::{cgen, check_seeded, Rng};
use pta_store::{analyze_incremental, canonical_facts, parse, perturb_source, serialize, Prior};
use pta_store::{Snapshot, WarmMode};

/// Deterministic generated source for one case, cycling the families.
fn source_for(case_rng: &mut Rng, case: u32) -> String {
    let family = cgen::FAMILIES[case as usize % cgen::FAMILIES.len()];
    cgen::generate(family, case_rng)
}

/// Cold-analyses `source` and returns its snapshot plus canonical
/// facts and lint findings (the byte-comparison basis).
fn cold_facts(source: &str) -> Option<(Snapshot, String, Vec<pta_lint::Diagnostic>)> {
    let config = AnalysisConfig::default();
    let ir = pta_simple::compile(source).ok()?;
    let run = analyze_recorded(&ir, config.clone()).ok()?;
    let lint = lint_ir(
        &ir,
        &run.result,
        Fidelity::ContextSensitive,
        &LintOptions::default(),
    );
    let facts = canonical_facts(&ir, &run.result);
    Some((Snapshot::build(&ir, &config, &run, &lint), facts, lint))
}

#[test]
fn warm_reanalysis_of_unchanged_program_matches_cold() {
    let mut case = 0u32;
    check_seeded(
        "store-warm-identity",
        pta_prop::DEFAULT_SEED,
        16,
        &mut |g| {
            let src = source_for(g, case);
            case += 1;
            let Some((snap, cold, lint)) = cold_facts(&src) else {
                return;
            };
            // Through the codec: the warm run must be seeded from parsed
            // bytes, not from the in-memory snapshot.
            let snap = parse(&serialize(&snap)).expect("snapshot must round-trip");
            let ir = pta_simple::compile(&src).unwrap();
            let config = AnalysisConfig::default();
            let warm = analyze_incremental(&ir, &config, Some(Prior::Snapshot(&snap)))
                .expect("warm analysis");
            let WarmMode::Warm { ref dirty, .. } = warm.mode else {
                panic!("expected a warm start, got {:?}\n{src}", warm.mode);
            };
            assert!(
                dirty.is_empty(),
                "unchanged program marked dirty: {dirty:?}"
            );
            assert_eq!(
                canonical_facts(&ir, &warm.run.result),
                cold,
                "warm facts diverged from cold:\n{src}"
            );
            let warm_lint = lint_ir(
                &ir,
                &warm.run.result,
                Fidelity::ContextSensitive,
                &LintOptions::default(),
            );
            assert_eq!(warm_lint, lint, "warm lint diverged from cold:\n{src}");
        },
    );
}

#[test]
fn incremental_after_single_function_edit_matches_cold() {
    let mut case = 0u32;
    check_seeded("store-incremental", pta_prop::DEFAULT_SEED, 16, &mut |g| {
        let src = source_for(g, case);
        case += 1;
        let Some((snap, _, _)) = cold_facts(&src) else {
            return;
        };
        let Some(mutated) = perturb_source(&src) else {
            return;
        };
        let Some((_, cold_mutated, cold_lint)) = cold_facts(&mutated) else {
            return;
        };
        let snap = parse(&serialize(&snap)).expect("snapshot must round-trip");
        let ir = pta_simple::compile(&mutated).unwrap();
        let config = AnalysisConfig::default();
        let inc = analyze_incremental(&ir, &config, Some(Prior::Snapshot(&snap)))
            .expect("incremental analysis");
        // The stale snapshot may warm-start (with a dirty set) or be
        // rejected outright; either way the facts must match cold.
        if let WarmMode::Warm { ref dirty, .. } = inc.mode {
            assert!(
                !dirty.is_empty(),
                "mutated program produced an empty dirty set:\n{mutated}"
            );
        }
        assert_eq!(
            canonical_facts(&ir, &inc.run.result),
            cold_mutated,
            "incremental facts diverged from cold on the mutated program:\n{mutated}"
        );
        let inc_lint = lint_ir(
            &ir,
            &inc.run.result,
            Fidelity::ContextSensitive,
            &LintOptions::default(),
        );
        assert_eq!(
            inc_lint, cold_lint,
            "incremental lint diverged from cold:\n{mutated}"
        );
    });
}

#[test]
fn snapshot_codec_is_a_fixed_point() {
    let mut case = 0u32;
    check_seeded(
        "store-codec-fixpoint",
        pta_prop::DEFAULT_SEED,
        12,
        &mut |g| {
            let src = source_for(g, case);
            case += 1;
            let Some((snap, _, _)) = cold_facts(&src) else {
                return;
            };
            let text = serialize(&snap);
            let reparsed = parse(&text).expect("snapshot must parse");
            assert_eq!(
                serialize(&reparsed),
                text,
                "serialize∘parse is not a fixed point:\n{src}"
            );
        },
    );
}

#[test]
fn memory_and_disk_warm_starts_agree() {
    let mut case = 0u32;
    check_seeded(
        "store-memory-vs-disk",
        pta_prop::DEFAULT_SEED,
        16,
        &mut |g| {
            let src = source_for(g, case);
            case += 1;
            let Some(mutated) = perturb_source(&src) else {
                return;
            };
            if pta_simple::compile(&mutated).is_err() || cold_facts(&src).is_none() {
                return;
            }
            if let Err(e) = pta_prop::warm::edit_chain([&src, &mutated], 3) {
                panic!("{e}:\n{src}");
            }
        },
    );
}
