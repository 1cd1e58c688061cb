//! Suite-level end-to-end assertions: every benchmark analyses; the
//! reproduced evaluation keeps the paper's qualitative shape.

use pta::benchsuite::{self, report};
use pta::core::stats;

#[test]
fn all_benchmarks_compile_lower_validate_and_analyze() {
    for b in benchsuite::all_benchmarks() {
        let a = benchsuite::analyse(b);
        assert!(a.is_ok(), "{}: {:?}", b.name, a.err());
        let a = a.unwrap();
        assert!(a.ir.total_basic_stmts() > 0, "{}", b.name);
        assert!(!a.result.per_stmt.is_empty(), "{}", b.name);
    }
}

#[test]
fn table5_heap_never_points_back_to_stack() {
    // The paper's key observation justifying the stack/heap split:
    // the Heap→Stack column is zero on the whole suite.
    for b in benchsuite::SUITE {
        let a = benchsuite::analyse(*b).unwrap();
        let t5 = stats::table5(b.name, &a.ir, &a.result);
        assert_eq!(t5.heap_to_stack, 0, "{}: {t5:?}", b.name);
    }
}

#[test]
fn suite_summary_matches_paper_shape() {
    let suite = report::run_suite();
    assert!(suite.is_clean(), "{}", suite.render_failures());
    let s = suite.summary();
    // Paper: overall average 1.13, per-program max 1.77. Our synthetic
    // suite is close to 1 for most programs; assert the same regime.
    assert!(s.overall_avg >= 1.0, "{s:?}");
    assert!(s.overall_avg < 2.5, "{s:?}");
    // A substantial fraction of indirect references resolves to one
    // definite target (paper: 28.8%).
    assert!(s.pct_definite > 10.0, "{s:?}");
    // Under the non-NULL assumption most references have one target.
    assert!(s.pct_single > 50.0, "{s:?}");
    // Some heap usage exists but stack pairs dominate.
    assert!(s.pct_heap > 0.0 && s.pct_heap < 60.0, "{s:?}");
}

#[test]
fn livc_invocation_graph_comparison() {
    let s = report::livc_study().expect("livc study");
    // The paper's structural facts.
    assert_eq!(s.total_functions, 82);
    assert_eq!(s.address_taken_functions, 72);
    assert_eq!(s.indirect_sites, 3);
    // Qualitative result: points-to-driven resolution gives a much
    // smaller invocation graph than either naive strategy (paper:
    // 203 vs 589 vs 619).
    assert!(s.precise_nodes * 2 < s.address_taken_nodes, "{s:?}");
    assert!(s.address_taken_nodes <= s.all_functions_nodes, "{s:?}");
    // The precise graph binds each of the 3 sites to exactly its 24
    // kernels plus the direct structure.
    assert!(s.precise_nodes >= 72 + 3, "{s:?}");
}

#[test]
fn context_sensitivity_preserves_definiteness() {
    // The ablation: definite information survives under the
    // context-sensitive analysis but degrades when contexts merge.
    let rows = report::ablation().expect("ablation");
    let mean_cs: f64 = rows.iter().map(|r| r.definite_cs).sum::<f64>() / rows.len() as f64;
    let mean_ci: f64 = rows.iter().map(|r| r.definite_ci).sum::<f64>() / rows.len() as f64;
    assert!(
        mean_cs > mean_ci + 5.0,
        "expected a definiteness gap: cs={mean_cs:.1}% ci={mean_ci:.1}%"
    );
    // And the context-sensitive analysis is never less precise on
    // average targets.
    for r in &rows {
        assert!(
            r.context_sensitive <= r.andersen + 1e-9,
            "{}: cs {} > andersen {}",
            r.name,
            r.context_sensitive,
            r.andersen
        );
    }
}

#[test]
fn invocation_graphs_stay_moderate() {
    // §6: "our approach of explicitly following call-chains is
    // practical for real programs of moderate size".
    let suite = report::run_suite();
    assert!(suite.is_clean(), "{}", suite.render_failures());
    for r in suite.analysed_rows() {
        let s = &r.stats;
        assert!(
            s.t6.ig_nodes < 2_000,
            "{}: invocation graph exploded ({} nodes)",
            s.t6.name,
            s.t6.ig_nodes
        );
    }
}

#[test]
fn analysis_is_deterministic() {
    // Two runs over the same benchmark give identical results (the
    // entire pipeline is BTreeMap-ordered).
    let b = benchsuite::benchmark("travel").unwrap();
    let a1 = benchsuite::analyse(b).unwrap();
    let a2 = benchsuite::analyse(b).unwrap();
    assert_eq!(a1.result.exit_set, a2.result.exit_set);
    assert_eq!(a1.result.per_stmt, a2.result.per_stmt);
    assert_eq!(a1.result.ig.len(), a2.result.ig.len());
}

#[test]
fn definiteness_invariant_holds_on_the_suite() {
    // Definition 3.1: a definite pair means both endpoints name exactly
    // one real location and the relation holds on all paths — so a
    // source can have at most one definite target in any single state.
    for b in benchsuite::all_benchmarks() {
        let a = benchsuite::analyse(b).unwrap();
        for (id, set) in &a.result.per_stmt {
            for src in set.sources() {
                let d_targets = set.targets(src).filter(|(_, d)| *d == pta::Def::D).count();
                assert!(
                    d_targets <= 1,
                    "{}@{id}: {} has {} definite targets",
                    b.name,
                    a.result.locs.name(src),
                    d_targets
                );
            }
        }
    }
}

#[test]
fn clients_leave_the_finished_result_alone() {
    // A finished result is read-only: running a client before the
    // statistics must not move them (Table 2 counts interned rows).
    for b in benchsuite::SUITE {
        let a = benchsuite::analyse(*b).unwrap();
        let before = stats::compute(b.name, b.source, &a.ir, &a.result);
        let rows = a.result.locs.len();
        let reps = pta::apps::replaceable_refs(&a.ir, &a.result);
        assert_eq!(a.result.locs.len(), rows, "{}: {reps:?}", b.name);
        let after = stats::compute(b.name, b.source, &a.ir, &a.result);
        assert_eq!(before, after, "{}", b.name);
        if b.name == "travel" {
            let t2 = &after.t2;
            assert_eq!((t2.min_vars, t2.max_vars), (9, 12), "travel abstract stack");
            assert!(
                reps.iter().any(
                    |r| r.to_string() == "greedy_tour@s37: (*cur).visited -> cities[0].visited"
                ),
                "a projection the engine never interned is still named: {reps:?}"
            );
        }
    }
}

#[test]
fn applications_run_on_the_whole_suite() {
    for b in benchsuite::all_benchmarks() {
        let mut a = benchsuite::analyse(b).unwrap();
        let ir = a.ir.clone();
        let reps = pta::apps::replaceable_refs(&ir, &a.result);
        let cg = pta::apps::call_graph(&ir, &a.result);
        let rw = pta::apps::stmt_rw_sets(&ir, &mut a.result);
        assert!(cg.edge_count() > 0, "{}", b.name);
        assert!(!rw.is_empty(), "{}", b.name);
        let _ = reps;
    }
}

#[test]
fn builder_constructed_ir_analyzes() {
    use pta::cfront::types::Type;
    use pta::simple::builder::ProgramBuilder;

    let mut b = ProgramBuilder::new();
    let x = b.global("x", Type::Int);
    let mut main = b.function("main", Type::Int);
    let p = main.local("p", Type::Int.ptr_to());
    main.assign_addr(p, x);
    let d = main.deref(p);
    main.ret_ref(d);
    let program = main.finish_entry();

    let result = pta::analyze(&program).expect("built IR analyzes");
    // p definitely points to x at exit.
    let pairs: Vec<(String, String)> = result
        .exit_set
        .iter()
        .filter(|(_, t, _)| !result.locs.is_null(*t))
        .map(|(s, t, _)| {
            (
                result.locs.name(s).to_owned(),
                result.locs.name(t).to_owned(),
            )
        })
        .collect();
    assert_eq!(pairs, vec![("p".to_string(), "x".to_string())]);
}

#[test]
fn prune_liveness_is_equivalence_preserving_on_the_suite() {
    // The pruned engine drops pairs for dead frame-local pointers.
    // Everything a caller or a query can still observe — globals,
    // parameters, every pointer actually read — must resolve exactly
    // as in the exhaustive engine, and the pruned exit set can only
    // shrink, never grow. The prune counters must show the mode
    // actually did work somewhere on the suite.
    use pta::core::AnalysisConfig;
    let mut pruned_somewhere = false;
    for b in benchsuite::SUITE {
        let Ok(base) = pta::core::run_source(b.source) else {
            continue; // resilient rows are covered by the suite tests
        };
        let pruned = pta::core::run_source_with(
            b.source,
            AnalysisConfig {
                prune_liveness: true,
                ..AnalysisConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: pruned run failed: {e}", b.name));
        assert!(pruned.result.prune.enabled, "{}: stats not enabled", b.name);
        pruned_somewhere |= pruned.result.prune.pruned_pairs > 0;
        // Globals and parameters are never prunable, so their exit
        // resolutions must be exact.
        for g in &base.ir.globals {
            assert_eq!(
                base.exit_targets_of("main", &g.name),
                pruned.exit_targets_of("main", &g.name),
                "{}: exit targets diverged for global `{}`",
                b.name,
                g.name,
            );
        }
        for (_, f) in base.ir.defined_functions() {
            for v in &f.vars[..f.n_params] {
                assert_eq!(
                    base.exit_targets_of(&f.name, &v.name),
                    pruned.exit_targets_of(&f.name, &v.name),
                    "{}: exit targets diverged for param `{}::{}`",
                    b.name,
                    f.name,
                    v.name,
                );
            }
        }
        // The pruned exit set may drop pairs whose source is a local
        // dead at exit (that is the mode's contract) but must never
        // invent a pair the exhaustive engine lacks.
        let named = |p: &pta::core::Pta| -> std::collections::BTreeSet<(String, String, bool)> {
            p.result
                .exit_set
                .iter()
                .map(|(s, t, d)| {
                    (
                        p.result.locs.name(s).to_owned(),
                        p.result.locs.name(t).to_owned(),
                        d == pta::core::Def::D,
                    )
                })
                .collect()
        };
        let (be, pe) = (named(&base), named(&pruned));
        assert!(
            pe.is_subset(&be),
            "{}: pruned exit set invented pairs: {:?}",
            b.name,
            pe.difference(&be).collect::<Vec<_>>()
        );
    }
    assert!(
        pruned_somewhere,
        "no benchmark had a single prunable pair: the mode is a no-op"
    );
}

/// The demand-driven equivalence guarantee (docs/QUERIES.md): on every
/// suite benchmark, a [`pta_store::DemandEngine`] answers the full
/// query mix — rooted point queries, whole-program queries, and
/// fact-free errors — with responses byte-identical to an exhaustive
/// [`pta_store::ServeEngine`] over the same program.
#[test]
fn demand_serving_is_byte_identical_on_every_benchmark() {
    use pta::core::AnalysisConfig;

    let mut sliced_total = 0;
    for b in benchsuite::SUITE {
        let ir = pta::simple::compile(b.source).expect(b.name);
        let result = pta::core::analyze_with(&ir, AnalysisConfig::default()).expect(b.name);
        let full_pta = pta::core::Pta {
            ir: ir.clone(),
            result,
        };
        let lint = pta::lint::lint_ir(
            &full_pta.ir,
            &full_pta.result,
            pta::core::Fidelity::ContextSensitive,
            &pta::lint::LintOptions::default(),
        );
        let demand = pta_store::DemandEngine::new(ir.clone(), AnalysisConfig::default());
        let full = pta_store::ServeEngine::new(full_pta, lint);

        let mut queries: Vec<String> = vec![
            // Whole-program queries delegate to the exhaustive engine.
            r#"{"id":1,"op":"lint"}"#.into(),
            // Fact-free errors must not trigger any analysis.
            r#"{"id":2,"op":"points-to","var":"p"}"#.into(),
            r#"{"id":3,"op":"nonsense"}"#.into(),
        ];
        for cs in 0..=ir.call_sites.len() {
            queries.push(format!(r#"{{"id":4,"op":"call-targets","site":{cs}}}"#));
        }
        let mut pointer_vars: Vec<(String, String, u32)> = Vec::new();
        for (_, f) in ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            let mut first = None;
            body.for_each_basic(&mut |_, id| {
                if first.is_none() {
                    first = Some(id.0);
                }
            });
            let Some(stmt) = first else { continue };
            for v in f.vars.iter().take(4) {
                pointer_vars.push((f.name.clone(), v.name.clone(), stmt));
            }
        }
        for (func, var, stmt) in &pointer_vars {
            // Rooted (demand-eligible) and exit-set (whole-program)
            // variants of the same query.
            queries.push(format!(
                r#"{{"id":5,"op":"points-to","func":"{func}","var":"{var}","stmt":{stmt}}}"#
            ));
            queries.push(format!(
                r#"{{"id":6,"op":"points-to","func":"{func}","var":"{var}"}}"#
            ));
        }
        if let Some((af, av, s)) = pointer_vars.first() {
            let (bf, bv, _) = pointer_vars.last().unwrap();
            queries.push(format!(
                r#"{{"id":7,"op":"aliases?","a_func":"{af}","a_var":"{av}","b_func":"{bf}","b_var":"{bv}","stmt":{s}}}"#
            ));
        }
        // One batch line exercising per-request routing.
        queries.push(format!(
            "[{},{}]",
            r#"{"id":8,"op":"lint"}"#, r#"{"id":9,"op":"call-targets","site":0}"#
        ));

        for q in &queries {
            let (rd, _) = demand.handle_text(q);
            let (rf, _) = full.handle_text(q);
            assert_eq!(rd, rf, "{}: response diverged for {q}", b.name);
        }
        sliced_total += demand.sliced_answers();
    }
    // The equivalence must not hold vacuously: across the suite, some
    // answers actually came from sliced runs.
    assert!(sliced_total > 0, "no query was ever answered from a slice");
}

/// Analyses `ir` under node and under program memo scope and returns
/// the first id-level difference between the two runs (DESIGN.md §11).
fn memo_scope_divergence(name: &str, ir: &pta::simple::IrProgram) -> Option<String> {
    use pta::core::{AnalysisConfig, MemoScope};
    let config = AnalysisConfig::default();
    let node = pta::core::analyze_recorded(ir, config.clone())
        .unwrap_or_else(|e| panic!("{name}: node-scope run failed: {e}"));
    let program = pta::core::analyze_recorded(
        ir,
        AnalysisConfig {
            memo: MemoScope::Program,
            ..config.clone()
        },
    )
    .unwrap_or_else(|e| panic!("{name}: program-scope run failed: {e}"));
    pta_store::run_divergence(ir, &config, &node, &program)
}

/// Program scope only changes which memo a call consults, never an
/// answer: on every benchmark and on every E19 fan-out tier, the
/// location rows, per-statement sets, exit set, warnings, escapes and
/// snapshot text equal node scope's, id for id.
#[test]
fn program_memo_matches_node_memo_on_every_benchmark() {
    let mut compared = 0;
    for b in benchsuite::SUITE {
        let Ok(ir) = pta::simple::compile(b.source) else {
            continue; // front-end rejections are covered by suite tests
        };
        if let Some(d) = memo_scope_divergence(b.name, &ir) {
            panic!("{}: program scope diverged from node scope: {d}", b.name);
        }
        compared += 1;
    }
    assert_eq!(compared, benchsuite::SUITE.len(), "skipped benchmarks");
    for &n in report::SUMMARY_SCALE_TIERS {
        let ir = pta::simple::compile(&pta_prop::cgen::call_fanout(n)).expect("fan-out compiles");
        if let Some(d) = memo_scope_divergence("call-fanout", &ir) {
            panic!("call_fanout({n}): program scope diverged from node scope: {d}");
        }
    }
}

/// The E19 claim (EXPERIMENTS.md): as call fan-out grows, replaying a
/// context pair program-wide overtakes re-analysing the callee at every
/// site. At least one generated tier must show a wall-clock win with
/// identical answers. Tiers with the widest measured margins are used
/// so the gate stays robust on loaded CI machines.
#[test]
fn program_memo_overtakes_reanalysis_on_call_fanout() {
    let rows = report::summary_scale_study(&[16, 32, 64]).expect("scale study");
    assert_eq!(rows.len(), 3, "scale study dropped a tier");
    for r in &rows {
        assert!(
            r.identical,
            "{} sites: program-scope answers differ from node scope",
            r.call_sites
        );
    }
    assert!(
        rows.iter().any(|r| r.speedup() > 1.0),
        "program scope never beat per-invocation re-analysis: {:?}",
        rows.iter()
            .map(|r| (r.call_sites, r.speedup()))
            .collect::<Vec<_>>()
    );
}

/// Checked-in recursion-shape goldens for the program-scope memo: a
/// self-recursive walker, a mutually recursive pair, and a
/// function-pointer ring the conservative call graph fuses into one
/// SCC. Each must keep its expected call-graph shape, and program scope
/// (which must keep every recursive function out of its memo) must
/// match node scope exactly.
#[test]
fn summary_recursion_goldens_hold_under_both_memo_scopes() {
    let goldens: &[(&str, &str, usize)] = &[
        (
            "summary_recursive",
            include_str!("programs/summary_recursive.c"),
            1,
        ),
        (
            "summary_mutual",
            include_str!("programs/summary_mutual.c"),
            2,
        ),
        (
            "summary_fnptr_scc",
            include_str!("programs/summary_fnptr_scc.c"),
            3,
        ),
    ];
    for (name, src, knot) in goldens {
        let ir = pta::simple::compile(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cg = pta::core::CallGraph::build(&ir);
        let largest = cg.sccs.iter().map(Vec::len).max().unwrap_or(0);
        assert_eq!(
            largest, *knot,
            "{name}: expected a {knot}-member recursive component, call graph has {largest}"
        );
        if let Some(d) = memo_scope_divergence(name, &ir) {
            panic!("{name}: program scope diverged from node scope: {d}");
        }
    }
}
