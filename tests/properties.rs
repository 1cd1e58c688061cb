//! Property-based tests (pta-prop) over the core data structures and
//! the analysis pipeline.

use pta::core::points_to_set::{merge_flow, Def, PtSet};
use pta::core::LocId;
use pta_prop::{check, Rng};

// ---------------------------------------------------------------------
// PtSet lattice laws
// ---------------------------------------------------------------------

fn arb_def(g: &mut Rng) -> Def {
    if g.ratio(1, 2) {
        Def::D
    } else {
        Def::P
    }
}

fn arb_ptset(g: &mut Rng) -> PtSet {
    let mut s = PtSet::new();
    for _ in 0..g.usize(0..24) {
        let a = g.u32(0..12);
        let b = g.u32(0..12);
        let d = arb_def(g);
        // insert_weak keeps arbitrary mixes consistent.
        s.insert_weak(LocId(a), LocId(b), d);
    }
    s
}

#[test]
fn merge_is_commutative() {
    check("merge commutes", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        assert_eq!(a.merge(&b), b.merge(&a));
    });
}

#[test]
fn merge_is_associative() {
    check("merge associates", 256, |g| {
        let (a, b, c) = (arb_ptset(g), arb_ptset(g), arb_ptset(g));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    });
}

#[test]
fn merge_is_idempotent() {
    check("merge idempotent", 256, |g| {
        let a = arb_ptset(g);
        assert_eq!(a.merge(&a), a);
    });
}

#[test]
fn merge_is_an_upper_bound() {
    check("merge upper bound", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        let m = a.merge(&b);
        assert!(a.subset_of(&m), "a ⊄ merge");
        assert!(b.subset_of(&m), "b ⊄ merge");
    });
}

#[test]
fn subset_is_reflexive() {
    check("subset reflexive", 256, |g| {
        let a = arb_ptset(g);
        assert!(a.subset_of(&a));
    });
}

#[test]
fn subset_is_transitive() {
    check("subset transitive", 256, |g| {
        let (a, b, c) = (arb_ptset(g), arb_ptset(g), arb_ptset(g));
        let ab = a.merge(&b);
        let abc = ab.merge(&c);
        assert!(a.subset_of(&ab));
        assert!(ab.subset_of(&abc));
        assert!(a.subset_of(&abc));
    });
}

#[test]
fn flow_merge_has_bottom_identity() {
    check("flow bottom identity", 256, |g| {
        let a = arb_ptset(g);
        assert_eq!(merge_flow(Some(a.clone()), None), Some(a.clone()));
        assert_eq!(merge_flow(None, Some(a.clone())), Some(a));
    });
}

#[test]
fn kill_removes_all_pairs_from_source() {
    check("kill clears source", 256, |g| {
        let mut s = arb_ptset(g);
        let src = g.u32(0..12);
        s.kill_from(LocId(src));
        assert_eq!(s.target_count(LocId(src)), 0);
    });
}

#[test]
fn demote_leaves_no_definite_pairs() {
    check("demote leaves only P", 256, |g| {
        let mut s = arb_ptset(g);
        let src = g.u32(0..12);
        s.demote_from(LocId(src));
        for (_, d) in s.targets(LocId(src)) {
            assert_eq!(d, Def::P);
        }
    });
}

#[test]
fn merged_pair_is_definite_only_if_definite_in_both() {
    check("merge definiteness", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        let m = a.merge(&b);
        for (s, t, d) in m.iter() {
            if d == Def::D {
                assert_eq!(a.get(s, t), Some(Def::D));
                assert_eq!(b.get(s, t), Some(Def::D));
            }
        }
    });
}

// ---------------------------------------------------------------------
// Generated straight-line programs: the analysis terminates, maintains
// Definition 3.1, and is deterministic.
// ---------------------------------------------------------------------

/// Renders a random straight-line pointer program with `n` statements
/// over ints x0..x3, pointers p0..p3, and double pointers q0..q1.
fn render_program(stmts: &[u8]) -> String {
    let mut body = String::new();
    for (i, op) in stmts.iter().enumerate() {
        let s = match op % 12 {
            0 => format!("p{} = &x{};", op % 4, (op / 4) % 4),
            1 => format!("p{} = p{};", op % 4, (op / 4) % 4),
            2 => format!("q{} = &p{};", op % 2, (op / 4) % 4),
            3 => format!("*q{} = &x{};", op % 2, (op / 4) % 4),
            4 => format!("p{} = *q{};", op % 4, op % 2),
            5 => format!("if (c{}) p{} = &x{};", i % 3, op % 4, (op / 4) % 4),
            6 => format!("p{} = 0;", op % 4),
            7 => format!("p{} = (int*) malloc(4);", op % 4),
            8 => format!(
                "while (c{}) {{ p{} = p{}; c{} = c{} - 1; }}",
                i % 3,
                op % 4,
                (op / 4) % 4,
                i % 3,
                i % 3
            ),
            9 => format!("q{} = &p{};", op % 2, op % 4),
            10 => format!("x{} = x{} + 1;", op % 4, (op / 4) % 4),
            _ => format!(
                "if (c{}) q{} = &p{}; else q{} = &p{};",
                i % 3,
                op % 2,
                op % 4,
                op % 2,
                (op / 3) % 4
            ),
        };
        body.push_str("    ");
        body.push_str(&s);
        body.push('\n');
    }
    format!(
        "int x0, x1, x2, x3;\nint c0, c1, c2;\n\
         int main(void) {{\n    int *p0; int *p1; int *p2; int *p3;\n    int **q0; int **q1;\n{body}    return 0;\n}}\n"
    )
}

fn arb_stmts(g: &mut Rng, max: usize) -> Vec<u8> {
    g.vec(1..max, |g| g.u8())
}

#[test]
fn random_programs_analyze_and_keep_definition_3_1() {
    check("definition 3.1 holds", 64, |g| {
        let stmts = arb_stmts(g, 30);
        let src = render_program(&stmts);
        let t = pta::analyze_c(&src).expect("generated program analyses");
        for set in t.result.per_stmt.values() {
            for src_loc in set.sources() {
                let d_count = set.targets(src_loc).filter(|(_, d)| *d == Def::D).count();
                assert!(d_count <= 1, "source with {d_count} definite targets");
            }
        }
    });
}

#[test]
fn random_programs_are_deterministic() {
    check("analysis deterministic", 32, |g| {
        let stmts = arb_stmts(g, 20);
        let src = render_program(&stmts);
        let a = pta::analyze_c(&src).expect("analyses");
        let b = pta::analyze_c(&src).expect("analyses");
        assert_eq!(a.result.exit_set, b.result.exit_set);
    });
}

#[test]
fn random_programs_context_sensitive_at_least_as_precise_as_andersen() {
    check("cs ⊆ andersen", 32, |g| {
        let stmts = arb_stmts(g, 20);
        let src = render_program(&stmts);
        let t = pta::analyze_c(&src).expect("analyses");
        let ir = pta::simple::compile(&src).expect("compiles");
        let and = pta::core::baseline::andersen(&ir).expect("andersen");
        // Every non-null pair in the context-sensitive exit set also
        // exists in Andersen's (coarser) solution — i.e. the precise
        // analysis never invents pairs the inclusion-based one misses.
        // (Both are sound, Andersen is flow-insensitive so it covers
        // every program point at once.)
        for (s, tgt, _) in t.result.exit_set.iter() {
            if t.result.locs.is_null(tgt) {
                continue;
            }
            let sname = t.result.locs.name(s);
            let tname = t.result.locs.name(tgt);
            let found = and
                .solution
                .iter()
                .any(|(s2, t2, _)| and.locs.name(s2) == sname && and.locs.name(t2) == tname);
            assert!(found, "pair ({sname},{tname}) missing from Andersen");
        }
    });
}

// ---------------------------------------------------------------------
// Front-end robustness: random token soup never panics.
// ---------------------------------------------------------------------

#[test]
fn frontend_never_panics_on_ascii_soup() {
    check("frontend total", 128, |g| {
        let s = g.ascii_soup(0..200);
        let _ = pta::cfront::frontend(&s); // must return, not panic
    });
}

#[test]
fn lexer_round_trips_identifiers() {
    check("ident round-trip", 128, |g| {
        let name = g.ident(13);
        if pta::cfront::token::Keyword::from_str(&name).is_some() {
            return; // keyword: lexes as a keyword token, skip
        }
        let toks = pta::cfront::lexer::lex(&name).unwrap();
        assert_eq!(toks.len(), 2); // ident + EOF
        match &toks[0].kind {
            pta::cfront::token::TokenKind::Ident(n) => assert_eq!(n, &name),
            other => panic!("unexpected token {other:?}"),
        }
    });
}

#[test]
fn lexer_round_trips_integers() {
    check("integer round-trip", 128, |g| {
        let v = g.u64(0..1_000_000_000) as i64;
        let toks = pta::cfront::lexer::lex(&v.to_string()).unwrap();
        match &toks[0].kind {
            pta::cfront::token::TokenKind::IntLit(x) => assert_eq!(*x, v),
            other => panic!("unexpected token {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// Pipeline robustness: panics are bugs, errors are fine
// ---------------------------------------------------------------------

/// Runs the whole pipeline on `src` and asserts it returns (Ok or Err)
/// rather than panicking. This is the executable form of the panic-site
/// audit: every `unwrap`/`expect` left in `pta-cfront` and `pta-core`
/// is an internal invariant, so no input may reach one.
fn assert_no_panic(src: &str) {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = pta::core::run_source(src);
    }));
    assert!(caught.is_ok(), "pipeline panicked on input:\n{src}");
}

#[test]
fn pipeline_never_panics_on_ascii_soup() {
    check("no panic on soup", 256, |g| {
        assert_no_panic(&g.ascii_soup(0..400));
    });
}

#[test]
fn pipeline_never_panics_on_keyword_soup() {
    const WORDS: &[&str] = &[
        "int", "void", "*", "&", "(", ")", "{", "}", ";", ",", "=", "if", "while", "return",
        "struct", "x", "p", "main", "[", "]", "1", "malloc", ".", "->", "double", "for", "else",
        "switch", "case", "break", "0",
    ];
    check("no panic on keyword soup", 256, |g| {
        let n = g.usize(0..80);
        let src: Vec<&str> = (0..n).map(|_| *g.pick(WORDS)).collect();
        assert_no_panic(&src.join(" "));
    });
}

#[test]
fn pipeline_never_panics_on_mutated_valid_programs() {
    check("no panic on mutations", 128, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let mut bytes = pta_prop::cgen::generate(family, g).into_bytes();
        for _ in 0..g.usize(1..8) {
            if bytes.is_empty() {
                break;
            }
            let i = g.usize(0..bytes.len());
            match g.usize(0..3) {
                0 => bytes[i] = b' ' + (g.next_u64() % 95) as u8,
                1 => {
                    bytes.remove(i);
                }
                _ => bytes.insert(i, b' ' + (g.next_u64() % 95) as u8),
            }
        }
        assert_no_panic(&String::from_utf8_lossy(&bytes));
    });
}

// ---------------------------------------------------------------------
// Liveness pruning: pruned ≡ exhaustive where it matters
// ---------------------------------------------------------------------

use pta::core::AnalysisConfig;
use pta::simple::{BasicStmt, CallTarget, IrFunction, Operand, StmtId, VarBase, VarRef};

/// Collects every variable reference a basic statement contains.
fn refs_of<'a>(b: &'a BasicStmt, out: &mut Vec<&'a VarRef>) {
    fn op<'a>(o: &'a Operand, out: &mut Vec<&'a VarRef>) {
        if let Operand::Ref(r) | Operand::AddrOf(r) = o {
            out.push(r);
        }
    }
    match b {
        BasicStmt::Copy { lhs, rhs } => {
            out.push(lhs);
            op(rhs, out);
        }
        BasicStmt::Unary { lhs, rhs, .. } => {
            out.push(lhs);
            op(rhs, out);
        }
        BasicStmt::Binary { lhs, a, b, .. } => {
            out.push(lhs);
            op(a, out);
            op(b, out);
        }
        BasicStmt::PtrArith { lhs, ptr, .. } => {
            out.push(lhs);
            out.push(ptr);
        }
        BasicStmt::Alloc { lhs, size } => {
            out.push(lhs);
            op(size, out);
        }
        BasicStmt::Call {
            lhs, target, args, ..
        } => {
            if let Some(l) = lhs {
                out.push(l);
            }
            if let CallTarget::Indirect(r) = target {
                out.push(r);
            }
            for a in args {
                op(a, out);
            }
        }
        BasicStmt::Return(v) => {
            if let Some(o) = v {
                op(o, out);
            }
        }
    }
}

/// The use points the pruned engine must preserve exactly: every bare
/// local pointer a statement dereferences (or calls through), with the
/// statement it happens at.
fn deref_uses(f: &IrFunction) -> Vec<(StmtId, String)> {
    let mut uses = Vec::new();
    let Some(body) = &f.body else { return uses };
    body.for_each_basic(&mut |b, id| {
        let mut refs = Vec::new();
        refs_of(b, &mut refs);
        for r in refs {
            if let VarRef::Deref { path, .. } = r {
                if let VarBase::Var(v) = path.base {
                    if path.projs.is_empty() {
                        uses.push((id, f.var(v).name.clone()));
                    }
                }
            }
        }
    });
    uses
}

#[test]
fn prune_liveness_preserves_use_point_and_exit_resolutions() {
    // `--prune-liveness` drops pairs for *dead* frame-local pointers
    // from the per-statement tables; any pointer actually read at a
    // statement is live there, so its resolution must be byte-identical
    // to the exhaustive engine's — as must the exit resolutions of
    // globals and parameters, which are never prunable.
    check("prune ≡ exhaustive", 24, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let source = pta_prop::cgen::generate(family, g);
        let Ok(base) = pta::core::run_source_with(&source, AnalysisConfig::default()) else {
            return; // generator corner the pipeline rejects: vacuous case
        };
        let pruned = pta::core::run_source_with(
            &source,
            AnalysisConfig {
                prune_liveness: true,
                ..AnalysisConfig::default()
            },
        )
        .expect("pruned run must succeed when the exhaustive run does");
        // Globals and parameters are never prunable: exact at exit.
        for gl in &base.ir.globals {
            assert_eq!(
                base.exit_targets_of("main", &gl.name),
                pruned.exit_targets_of("main", &gl.name),
                "exit targets diverged for global `{}` in:\n{source}",
                gl.name,
            );
        }
        for (_, f) in base.ir.defined_functions() {
            for v in &f.vars[..f.n_params] {
                assert_eq!(
                    base.exit_targets_of(&f.name, &v.name),
                    pruned.exit_targets_of(&f.name, &v.name),
                    "exit targets diverged for param `{}::{}` in:\n{source}",
                    f.name,
                    v.name,
                );
            }
            for (stmt, var) in deref_uses(f) {
                assert_eq!(
                    base.targets_at(stmt, &f.name, &var),
                    pruned.targets_at(stmt, &f.name, &var),
                    "use-point targets diverged for `{}::{var}` in:\n{source}",
                    f.name,
                );
            }
        }
    });
}

#[test]
fn lint_output_is_deterministic_across_jobs_on_generated_programs() {
    // The dataflow-backed checks must not introduce any worker-count
    // dependence: a batch of generated files lints byte-identically
    // serial and parallel, JSON and text alike.
    check("lint determinism across jobs", 8, |g| {
        let inputs: Vec<pta::lint::FileInput> = (0..4)
            .map(|i| {
                let family = *g.pick(pta_prop::cgen::FAMILIES);
                pta::lint::FileInput {
                    path: format!("g{i}.c"),
                    source: pta_prop::cgen::generate(family, g),
                }
            })
            .collect();
        let config = AnalysisConfig::default();
        let opts = pta::lint::LintOptions::default();
        let base = pta::lint::lint_files(&inputs, &config, &opts, 1);
        let (base_text, base_json) = (pta::lint::render_text(&base), pta::lint::render_json(&base));
        for jobs in [2, 5, 8] {
            let got = pta::lint::lint_files(&inputs, &config, &opts, jobs);
            assert_eq!(
                base_text,
                pta::lint::render_text(&got),
                "text diverged at jobs={jobs}"
            );
            assert_eq!(
                base_json,
                pta::lint::render_json(&got),
                "json diverged at jobs={jobs}"
            );
        }
    });
}

#[test]
fn demand_rooted_answers_equal_exhaustive_on_generated_programs() {
    // The demand-driven equivalence guarantee (docs/QUERIES.md) on
    // generated pathology: rooting an analysis at a *random* program
    // point — across all families, including the unresolved-indirect-
    // call ones that force slice widening — yields the same name-level
    // facts at the root as the exhaustive engine. Fallbacks count: a
    // plan that falls back must still return the exhaustive facts.
    check("demand ≡ exhaustive", 24, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let source = pta_prop::cgen::generate(family, g);
        let Ok(ir) = pta::simple::compile(&source) else {
            return; // generator corner the frontend rejects: vacuous
        };
        let Ok(full) = pta::core::analyze_with(&ir, AnalysisConfig::default()) else {
            return;
        };
        let mut points: Vec<pta::core::QueryRoot> = Vec::new();
        for (fid, f) in ir.defined_functions() {
            if let Some(body) = &f.body {
                body.for_each_basic(&mut |_, id| points.push((fid, id)));
            }
        }
        if points.is_empty() {
            return;
        }
        let names = |r: &pta::core::AnalysisResult, stmt| {
            let mut v: Vec<(String, String, bool)> = r
                .at(stmt)
                .iter()
                .map(|(s, t, d)| {
                    (
                        r.locs.name(s).to_owned(),
                        r.locs.name(t).to_owned(),
                        d == pta::core::Def::D,
                    )
                })
                .collect();
            v.sort();
            v
        };
        for _ in 0..3 {
            let root = points[g.usize(0..points.len())];
            let out = pta::core::analyze_demand(&ir, &AnalysisConfig::default(), &[root])
                .expect("demand run must succeed when the exhaustive run does");
            assert_eq!(
                names(&full, root.1),
                names(&out.result, root.1),
                "facts diverged at {root:?} ({}, mode {:?}) in:\n{source}",
                family,
                out.mode,
            );
        }
    });
}

// ---------------------------------------------------------------------
// Read-only Table 1 resolution ≡ the engine's interning resolution
// ---------------------------------------------------------------------

/// Resolves every reference of every reached basic statement twice:
/// read-only over the result's table (`FactQuery`), and interning on a
/// clone of it, keeping only the ids that existed before. Returns how
/// many references were compared.
fn assert_read_only_resolution_matches(name: &str, source: &str) -> usize {
    let ir = pta::simple::compile(source).unwrap();
    let result = pta::core::analyze(&ir).unwrap();
    let q = pta::core::FactQuery::new(&ir, &result);
    let before = result.locs.len();
    let known = |v: Vec<(LocId, Def)>| -> Vec<(LocId, Def)> {
        v.into_iter()
            .filter(|(l, _)| (l.0 as usize) < before)
            .collect()
    };
    let mut checked = 0;
    for (func, f) in ir.defined_functions() {
        let Some(body) = &f.body else { continue };
        body.for_each_basic(&mut |b, id| {
            if !q.reached(id) {
                return;
            }
            let set = q.at(id);
            let mut locs = result.locs.clone();
            let mut interning = pta::core::lvalue::RefEnv {
                ir: &ir,
                func,
                locs: &mut locs,
            };
            let mut read_only = q.env(func);
            let mut refs = Vec::new();
            refs_of(b, &mut refs);
            for r in refs {
                let (VarRef::Path(path) | VarRef::Deref { path, .. }) = r;
                let what = format!(
                    "{name}: {}@{id} `{}`",
                    f.name,
                    pta::simple::printer::ref_str(&ir, f, r)
                );
                assert_eq!(
                    read_only.path_locs(path),
                    known(interning.path_locs(path)),
                    "path of {what}"
                );
                assert_eq!(
                    read_only.l_locations(&set, r),
                    known(interning.l_locations(&set, r)),
                    "L-locations of {what}"
                );
                assert_eq!(
                    read_only.r_locations(&set, r),
                    known(interning.r_locations(&set, r)),
                    "R-locations of {what}"
                );
                assert_eq!(
                    read_only.deref_base_targets(&set, r),
                    known(interning.deref_base_targets(&set, r)),
                    "dereferenced targets of {what}"
                );
                checked += 1;
            }
        });
    }
    checked
}

#[test]
fn read_only_resolution_matches_interning_on_generated_programs() {
    check("read-only ≡ interning resolution", 40, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let source = pta_prop::cgen::generate(family, g);
        assert!(assert_read_only_resolution_matches(family, &source) > 0);
    });
}

#[test]
fn read_only_resolution_matches_interning_on_the_suite_and_lint_corpus() {
    // These reach heap structs, arrays and pointer arithmetic, which
    // the generated programs do not.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/programs/lint");
    let mut sources: Vec<(String, String)> = pta::benchsuite::all_benchmarks()
        .iter()
        .map(|b| (b.name.to_owned(), b.source.to_owned()))
        .collect();
    for entry in std::fs::read_dir(corpus).unwrap() {
        let p = entry.unwrap().path();
        if p.extension().is_some_and(|e| e == "c") {
            sources.push((
                p.display().to_string(),
                std::fs::read_to_string(&p).unwrap(),
            ));
        }
    }
    // `*(p + k)` in a non-pointer copy: the engine never interns the
    // `a[1..]` it reads, so the read-only answer drops it rather than
    // staying on `a[0]`.
    sources.push((
        "tail-read".to_owned(),
        "int a[4]; int main(void) { int *p; int x; p = &a[0]; x = p[1]; return x; }".to_owned(),
    ));
    let checked: usize = sources
        .iter()
        .map(|(name, source)| assert_read_only_resolution_matches(name, source))
        .sum();
    assert!(checked > 1000, "{checked} references");
}

// ---------------------------------------------------------------------
// Memo scope: program scope reproduces node scope id for id
// ---------------------------------------------------------------------

#[test]
fn program_memo_matches_node_memo_on_generated_programs() {
    // The memo-scope contract (DESIGN.md §11) on generated pathology,
    // across every family, including the recursive and
    // unresolved-indirect-call shapes whose functions program scope
    // must keep out of its memo: location rows, per-statement sets,
    // exit set, warnings, escapes and snapshot text are identical.
    check("program memo = node memo", 24, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let source = pta_prop::cgen::generate(family, g);
        let Ok(ir) = pta::simple::compile(&source) else {
            return; // generator corner the frontend rejects: vacuous
        };
        let config = AnalysisConfig::default();
        let Ok(node) = pta::core::analyze_recorded(&ir, config.clone()) else {
            return; // budget trips are the stress harness's domain
        };
        let program = pta::core::analyze_recorded(
            &ir,
            AnalysisConfig {
                memo: pta::core::MemoScope::Program,
                ..config.clone()
            },
        )
        .unwrap_or_else(|e| panic!("program-scope run failed ({family}): {e}\n{source}"));
        if let Some(d) = pta_store::run_divergence(&ir, &config, &node, &program) {
            panic!("program scope diverged ({family}): {d}\nin:\n{source}");
        }
    });
}
