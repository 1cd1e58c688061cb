//! Tier-1 guarantees of the fact store: incremental re-analysis is
//! byte-identical to a cold run, snapshots round-trip losslessly, and
//! every kind of damage degrades to a cold run instead of failing.

use pta_benchsuite::SUITE;
use pta_core::analysis::{analyze_recorded, AnalysisConfig};
use pta_core::points_to_set::{Def, PtSet};
use pta_core::Fidelity;
use pta_core::LocId;
use pta_lint::{lint_ir, LintOptions};
use pta_prop::{check, Rng};
use pta_store::format::{dec_ptset, dec_ptset_canonical, dec_ptset_general, enc_ptset};
use pta_store::{
    analyze_incremental, canonical_facts, parse, perturb_source, serialize, verify, ColdReason,
    Prior, Snapshot, StoreError, WarmMode,
};
use std::path::Path;

fn lint_of(
    ir: &pta_simple::IrProgram,
    result: &pta_core::AnalysisResult,
) -> Vec<pta_lint::Diagnostic> {
    lint_ir(
        ir,
        result,
        Fidelity::ContextSensitive,
        &LintOptions::default(),
    )
}

/// Cold-analyses a source and snapshots the run.
fn cold_snapshot(source: &str) -> (pta_simple::IrProgram, Snapshot) {
    let ir = pta_simple::compile(source).expect("benchmark compiles");
    let run = analyze_recorded(&ir, AnalysisConfig::default()).expect("benchmark analyses");
    let lint = lint_of(&ir, &run.result);
    let snap = Snapshot::build(&ir, &AnalysisConfig::default(), &run, &lint);
    (ir, snap)
}

#[test]
fn warm_replay_of_unchanged_suite_is_byte_identical() {
    for b in SUITE {
        let (ir, snap) = cold_snapshot(b.source);
        // Round-trip through text first: the warm path must work off
        // exactly what a file would hold.
        let snap = parse(&serialize(&snap)).expect("round-trip parses");
        let cold = analyze_recorded(&ir, AnalysisConfig::default()).unwrap();
        let inc = analyze_incremental(
            &ir,
            &AnalysisConfig::default(),
            Some(Prior::Snapshot(&snap)),
        )
        .unwrap();
        match &inc.mode {
            WarmMode::Warm {
                seed_hits, dirty, ..
            } => {
                assert!(dirty.is_empty(), "{}: nothing is dirty", b.name);
                assert!(*seed_hits > 0, "{}: expected warm hits", b.name);
            }
            WarmMode::Cold(r) => panic!("{}: unexpectedly cold: {r:?}", b.name),
        }
        // Identical source: the result must match id-for-id, not just
        // name-for-name.
        assert_eq!(
            inc.run.result.per_stmt, cold.result.per_stmt,
            "{}: per-statement facts differ",
            b.name
        );
        assert_eq!(inc.run.result.exit_set, cold.result.exit_set, "{}", b.name);
        assert_eq!(inc.run.result.warnings, cold.result.warnings, "{}", b.name);
        assert_eq!(inc.run.result.escapes, cold.result.escapes, "{}", b.name);
        assert_eq!(
            canonical_facts(&ir, &inc.run.result),
            canonical_facts(&ir, &cold.result),
            "{}: canonical facts differ",
            b.name
        );
        assert_eq!(
            lint_of(&ir, &inc.run.result),
            lint_of(&ir, &cold.result),
            "{}: lint findings differ",
            b.name
        );
    }
}

#[test]
fn single_function_edit_matches_cold_run_on_every_benchmark() {
    for b in SUITE {
        let (_, snap) = cold_snapshot(b.source);
        let Some(mutated) = perturb_source(b.source) else {
            panic!("{}: no return statement to perturb", b.name);
        };
        let ir2 = pta_simple::compile(&mutated).expect("mutated benchmark compiles");
        let cold = analyze_recorded(&ir2, AnalysisConfig::default()).unwrap();
        let inc = analyze_incremental(
            &ir2,
            &AnalysisConfig::default(),
            Some(Prior::Snapshot(&snap)),
        )
        .unwrap();
        match &inc.mode {
            WarmMode::Warm { dirty, .. } => {
                assert_eq!(dirty.len(), 1, "{}: exactly one function edited", b.name);
            }
            WarmMode::Cold(r) => panic!("{}: unexpectedly cold: {r:?}", b.name),
        }
        assert_eq!(
            canonical_facts(&ir2, &inc.run.result),
            canonical_facts(&ir2, &cold.result),
            "{}: incremental facts differ from cold after edit",
            b.name
        );
        assert_eq!(
            lint_of(&ir2, &inc.run.result),
            lint_of(&ir2, &cold.result),
            "{}: lint differs after edit",
            b.name
        );
    }
}

#[test]
fn memory_and_disk_warm_starts_agree_on_every_benchmark() {
    for b in SUITE {
        let mutated = perturb_source(b.source).expect("every benchmark returns");
        let warm = pta_prop::warm::edit_chain([b.source, &mutated], 3)
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        assert_eq!(warm, 3, "{}: every edit must warm-start", b.name);
    }
}

#[test]
fn snapshot_text_round_trips_and_verifies() {
    let b = SUITE[0];
    let (_, snap) = cold_snapshot(b.source);
    let text = serialize(&snap);
    let reparsed = parse(&text).expect("parses");
    assert_eq!(serialize(&reparsed), text, "serialization is idempotent");
    let summary = verify(&text).expect("verifies");
    assert!(summary.functions > 0 && summary.nodes > 0 && summary.pairs > 0);
}

#[test]
fn every_single_byte_corruption_degrades_cleanly() {
    let b = SUITE[1];
    let (ir, snap) = cold_snapshot(b.source);
    let text = serialize(&snap);
    let bytes = text.as_bytes();
    // Sample positions across the whole file (header, checksum, every
    // section) and flip one byte at each.
    let step = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut damaged = bytes.to_vec();
        damaged[pos] = if damaged[pos] == b'0' { b'1' } else { b'0' };
        let Ok(damaged) = String::from_utf8(damaged) else {
            continue;
        };
        match parse(&damaged) {
            // A flip that leaves the text parseable must have been
            // semantically neutral is impossible: the checksum covers
            // the payload and the header covers itself.
            Ok(_) => panic!("byte flip at {pos} went undetected"),
            Err(e) => {
                // The orchestration layer turns any of these into a
                // cold run.
                let inc = analyze_incremental(&ir, &AnalysisConfig::default(), None).unwrap();
                assert!(matches!(inc.mode, WarmMode::Cold(ColdReason::NoSnapshot)));
                drop(e);
            }
        }
    }
}

#[test]
fn version_config_and_skeleton_mismatches_fall_back_cold() {
    let b = SUITE[2];
    let (ir, snap) = cold_snapshot(b.source);

    // Foreign schema version.
    let text = serialize(&snap).replacen(pta_core::SCHEMA_VERSION, "pta.v0", 1);
    assert!(matches!(parse(&text), Err(StoreError::Version { .. })));

    // Changed configuration: warm start refuses, incremental goes cold.
    let mut other = AnalysisConfig::default();
    other.max_sym_depth += 1;
    assert!(matches!(
        pta_store::warm_start(&ir, &other, &snap),
        Err(StoreError::Config)
    ));
    let inc = analyze_incremental(&ir, &other, Some(Prior::Snapshot(&snap))).unwrap();
    assert!(matches!(
        inc.mode,
        WarmMode::Cold(ColdReason::Store(StoreError::Config))
    ));

    // Changed skeleton (new global): same story.
    let grown = format!("int __pta_new_global;\n{}", b.source);
    let ir3 = pta_simple::compile(&grown).unwrap();
    let inc = analyze_incremental(
        &ir3,
        &AnalysisConfig::default(),
        Some(Prior::Snapshot(&snap)),
    )
    .unwrap();
    assert!(matches!(
        inc.mode,
        WarmMode::Cold(ColdReason::Store(StoreError::Skeleton))
    ));
}

/// A snapshot written while lint rows could carry the retired
/// `summary` fidelity still has the current schema tag, so it must fail
/// as a typed [`StoreError::Corrupt`], which every loader turns into a
/// cold start.
#[test]
fn retired_summary_fidelity_rows_fail_as_corrupt() {
    let (_, snap) = SUITE
        .iter()
        .map(|b| cold_snapshot(b.source))
        .find(|(_, snap)| !snap.lint.is_empty())
        .expect("some benchmark has lint findings");
    let text = serialize(&snap);
    let (head, payload) = text.split_once("\nchecksum ").expect("checksum line");
    let payload = payload.split_once('\n').expect("payload").1;
    let mut lines: Vec<String> = payload.lines().map(str::to_owned).collect();
    let row = lines
        .iter_mut()
        .find(|l| l.starts_with("l "))
        .expect("a lint row");
    let mut toks: Vec<&str> = row.split(' ').collect();
    assert_eq!(toks[3], "context-sensitive");
    toks[3] = "summary";
    *row = toks.join(" ");
    let payload = lines.join("\n") + "\n";
    let csum = pta_core::fingerprint::fnv1a(payload.as_bytes());
    let text = format!("{head}\nchecksum {csum:016x}\n{payload}");
    match parse(&text) {
        Err(StoreError::Corrupt { msg, .. }) => assert!(msg.contains("summary"), "{msg}"),
        other => panic!("expected a corrupt-snapshot error, got {other:?}"),
    }
}

#[test]
fn reload_supports_queries_without_reanalysis() {
    let b = SUITE[0];
    let (ir, snap) = cold_snapshot(b.source);
    let result = pta_store::reload_result(&snap).expect("reloads");
    let fresh = analyze_recorded(&ir, AnalysisConfig::default()).unwrap();
    assert_eq!(result.per_stmt, fresh.result.per_stmt);
    assert_eq!(result.exit_set, fresh.result.exit_set);
    assert_eq!(snap.diagnostics(), lint_of(&ir, &fresh.result));
}

/// The first line where two snapshot texts differ, for a readable
/// failure instead of two full dumps.
fn first_difference(got: &str, want: &str) -> String {
    let mut want_lines = want.lines();
    for (i, g) in got.lines().enumerate() {
        match want_lines.next() {
            Some(w) if w == g => {}
            w => return format!("line {}: got `{g}`, want `{}`", i + 1, w.unwrap_or("<end>")),
        }
    }
    format!("got ends at line {}", got.lines().count())
}

/// `tests/programs/store/<benchmark>.ptas` are snapshots of suite
/// programs under the default configuration, written by an earlier
/// encoder and never regenerated while `SCHEMA_VERSION` stays put. The
/// encoder must reproduce them byte for byte and the codec must be a
/// fixed point on them, so every snapshot already on disk keeps loading
/// and keeps its bytes when saved back. If only the first check fails,
/// the analysis answers changed rather than the format.
#[test]
fn golden_snapshots_pin_the_text_format() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/programs/store");
    let mut checked = 0;
    for entry in std::fs::read_dir(&dir).expect("golden snapshot directory") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("ptas") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap();
        let golden = std::fs::read_to_string(&path).unwrap();
        let b = pta_benchsuite::benchmark(name).expect("golden named after a benchmark");
        let (_, snap) = cold_snapshot(b.source);
        let text = serialize(&snap);
        assert!(
            text == golden,
            "{name}: encoder output differs from the golden: {}",
            first_difference(&text, &golden)
        );
        let again = serialize(&parse(&golden).expect("golden parses"));
        assert!(
            again == golden,
            "{name}: codec is not a fixed point on the golden: {}",
            first_difference(&again, &golden)
        );
        checked += 1;
    }
    assert!(checked > 0, "no golden snapshots in {}", dir.display());
}

fn arb_def(g: &mut Rng) -> Def {
    if g.ratio(1, 2) {
        Def::D
    } else {
        Def::P
    }
}

/// A set sized around the inline/spill boundary (6/7 triples) or well
/// past it, with small ids, ids near the top of their fields, or both.
fn arb_set(g: &mut Rng) -> PtSet {
    let n = *g.pick(&[0usize, 1, 5, 6, 7, 8, 40]);
    let mut s = PtSet::new();
    while s.len() < n {
        let (src, tgt) = match g.usize(0..3) {
            0 => (g.u32(0..8), g.u32(0..8)),
            1 => (u32::MAX - g.u32(0..4), (1 << 31) - 1 - g.u32(0..4)),
            _ => (g.u32(0..u32::MAX), g.u32(0..1 << 31)),
        };
        s.insert(LocId(src), LocId(tgt), arb_def(g));
    }
    s
}

fn triple_text((a, b, d): (LocId, LocId, Def)) -> String {
    format!("{},{},{d}", a.0, b.0)
}

/// Non-canonical spellings of a non-empty set's triples, each named.
/// None of them may take the fast path.
fn non_canonical(g: &mut Rng, s: &PtSet) -> Vec<(&'static str, String)> {
    let triples: Vec<_> = s.iter().collect();
    let texts: Vec<String> = triples.iter().map(|&t| triple_text(t)).collect();
    let mut out = Vec::new();
    if texts.len() > 1 {
        let mut rev = texts.clone();
        rev.reverse();
        out.push(("unsorted", rev.join(";")));
    }
    let i = g.usize(0..texts.len());
    let (a, b, d) = triples[i];
    let flipped = if d == Def::D { Def::P } else { Def::D };
    let mut dup = texts.clone();
    dup.insert(i + 1, triple_text((a, b, flipped)));
    out.push(("duplicate pair", dup.join(";")));
    let mut dup = texts.clone();
    dup.insert(i + 1, texts[i].clone());
    out.push(("repeated triple", dup.join(";")));
    let joined = texts.join(";");
    out.push(("plus sign", format!("+{joined}")));
    out.push(("leading zero", format!("0{joined}")));
    out.push(("leading zero in target", joined.replacen(',', ",0", 1)));
    out.push(("trailing separator", format!("{joined};")));
    out.push(("leading separator", format!(";{joined}")));
    out.push(("empty segment", joined.replacen(';', ";;", 1) + ";;"));
    out.push(("u32 overflow", format!("{joined};4294967296,0,P")));
    out.push(("missing definiteness", format!("{joined};1,2")));
    out.push(("extra field", format!("{joined},D")));
    out
}

/// The canonical scanner and the general decoder agree on every token:
/// canonical encodings of random sets take the fast path and decode to
/// the set; non-canonical spellings are declined by the scanner, so
/// `dec_ptset` gives exactly the general decoder's `Ok` set or `Err`.
#[test]
fn canonical_ptset_decoding_agrees_with_the_general_decoder() {
    check("ptset fast path ≡ general decoder", 512, |g| {
        let s = arb_set(g);
        let tok = enc_ptset(&s);
        assert_eq!(dec_ptset(&tok), Ok(s.clone()), "{tok}");
        assert_eq!(dec_ptset_general(&tok), Ok(s.clone()), "{tok}");
        if s.is_empty() {
            return;
        }
        assert_eq!(dec_ptset_canonical(&tok), Some(s.clone()), "{tok}");
        for (what, tok) in non_canonical(g, &s) {
            assert_eq!(dec_ptset_canonical(&tok), None, "{what}: {tok}");
            assert_eq!(dec_ptset(&tok), dec_ptset_general(&tok), "{what}: {tok}");
        }
        // A target past the packed field is declined too; the general
        // decoder alone decides it (it cannot pack the pair, so only the
        // scanner's refusal is checked here).
        let big = format!("{tok};{},{},P", u32::MAX, 1u64 << 31);
        assert_eq!(dec_ptset_canonical(&big), None, "{big}");
    });
}

/// Random tokens over the set alphabet: whatever the scanner accepts,
/// the general decoder accepts with the same set.
#[test]
fn ptset_token_soup_decodes_like_the_general_decoder() {
    check("ptset soup", 2048, |g| {
        let n = g.usize(1..24);
        let tok: String = (0..n)
            .map(|_| *g.pick(&['0', '1', '7', '9', ',', ',', ';', 'D', 'P', '+', 'x']))
            .collect();
        let general = dec_ptset_general(&tok);
        if let Some(s) = dec_ptset_canonical(&tok) {
            assert_eq!(general, Ok(s), "{tok}");
        }
        assert_eq!(dec_ptset(&tok), general, "{tok}");
    });
}
