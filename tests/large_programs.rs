//! Pins the engine's answers on generated programs of 1–2k statements.
//!
//! Suite programs keep most points-to sets inside the six-triple inline
//! buffer; these programs spill them, and their calls build large
//! callee inputs and caller outputs in the map and unmap processes.
//! `tests/programs/large/facts.digest` holds one line per program,
//! written by an engine that built those sets one triple at a time and
//! projected locations without caches. The current engine must
//! reproduce every line byte for byte: the same statements, the same
//! location rows in the same id order, and the same canonical facts.

use pta_core::analysis::analyze;
use pta_core::fingerprint::Fnv1a;
use pta_prop::{cgen, Rng};

/// The pinned programs: three crafted families at 1–2k statements and
/// a few seeded random mixes.
fn programs() -> Vec<(String, String)> {
    let mut out = vec![
        ("fnptr_knot(400)".to_owned(), cgen::fnptr_knot(400)),
        ("wide_indirect(750)".to_owned(), cgen::wide_indirect(750)),
        ("call_fanout(400)".to_owned(), cgen::call_fanout(400)),
    ];
    for seed in 1..=4u64 {
        let src = cgen::random_mix(&mut Rng::new(seed));
        out.push((format!("random_mix(seed {seed})"), src));
    }
    out
}

/// One digest line: sizes, then FNV-1a of the location rows in id
/// order and of the canonical facts (`pta_store::canonical_facts`).
fn digest_line(name: &str, src: &str) -> String {
    let ir = pta_simple::compile(src).expect("generated program compiles");
    let result = analyze(&ir).expect("generated program analyses");
    let mut rows = Fnv1a::new();
    for id in result.locs.ids() {
        let d = result.locs.get(id);
        rows.write_str(&format!(
            "{:?} {:?} {:?} {}\n",
            d.base, d.projs, d.ty, d.name
        ));
    }
    let facts = pta_store::canonical_facts(&ir, &result);
    format!(
        "{name} stmts={} locs={} fact_lines={} rows_fnv={:016x} facts_fnv={:016x}",
        ir.total_basic_stmts(),
        result.locs.len(),
        facts.lines().count(),
        rows.finish(),
        pta_core::fingerprint::fnv1a(facts.as_bytes()),
    )
}

#[test]
fn large_generated_programs_reproduce_the_pinned_facts() {
    let want = include_str!("programs/large/facts.digest");
    // Long call chains recurse deeply in an unoptimised build.
    let got: String = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            programs()
                .iter()
                .map(|(name, src)| digest_line(name, src) + "\n")
                .collect()
        })
        .expect("spawn the analysis thread")
        .join()
        .expect("analysis thread");
    for (g, w) in got.lines().zip(want.lines()) {
        assert_eq!(g, w, "digest line differs");
    }
    assert_eq!(got, want, "digest file covers the same programs");
}

#[test]
fn memory_and_disk_warm_starts_agree_on_large_programs() {
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(|| {
            for (name, src) in programs() {
                let mutated = pta_store::perturb_source(&src).expect("generated programs return");
                let warm = pta_prop::warm::edit_chain([&src, &mutated], 3)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert_eq!(warm, 3, "{name}: every edit must warm-start");
            }
        })
        .expect("spawn")
        .join()
        .expect("no divergence");
}
