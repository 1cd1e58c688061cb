//! Generators of pathological-but-valid C programs for stress-testing
//! the analysis budgets.
//!
//! Three families target the known blow-up axes of the paper's
//! algorithm, plus a random mix:
//!
//! - **deep pointer chains** ([`deep_chain`]) — `int ****…*p` towers
//!   passed across a call boundary, stressing the map process's
//!   pointer-chain traversal (`max_map_depth`) and symbolic naming;
//! - **recursive function-pointer knots** ([`fnptr_knot`]) — a ring of
//!   functions re-targeting one global function pointer and calling
//!   through it, stressing invocation-graph growth with
//!   recursive/approximate nodes (`max_ig_nodes`);
//! - **wide indirect calls** ([`wide_indirect`]) — one call site whose
//!   pointer may target many functions, stressing fan-out
//!   (`max_ig_nodes`, `max_steps`);
//! - **call fan-out** ([`call_fanout`]) — many distinct call sites
//!   handing one worker function the *same* calling context; the
//!   node-scope memo re-analyses the worker at every site while the
//!   program-scope memo replays it, so this family is the E19 scaling
//!   axis where program-wide reuse overtakes per-invocation
//!   re-analysis;
//! - **random mix** ([`random_mix`]) — a seeded combination with
//!   aliasing noise, for coverage beyond the crafted families.
//!
//! All generators are deterministic in their inputs, so any failing
//! case replays from its seed.

use crate::Rng;
use std::fmt::Write as _;

/// A pointer tower of the given depth, threaded through a helper call:
/// `p1 = &x; p2 = &p1; …; pd = &p(d-1)` then `poke(pd)` dereferences
/// all the way back down. Depth ≥ 1.
pub fn deep_chain(depth: usize) -> String {
    let depth = depth.max(1);
    let mut s = String::new();
    let stars = |n: usize| "*".repeat(n);
    let _ = writeln!(s, "int x;");
    // void poke(int ***…*p) { int *q; q = **…*p; }
    let _ = writeln!(
        s,
        "void poke(int {}p) {{ int *q; q = {}p; *q = 1; }}",
        stars(depth + 1),
        stars(depth)
    );
    let _ = writeln!(s, "int main(void) {{");
    for i in 1..=depth {
        let _ = writeln!(s, "    int {}p{};", stars(i), i);
    }
    let _ = writeln!(s, "    p1 = &x;");
    for i in 2..=depth {
        let _ = writeln!(s, "    p{} = &p{};", i, i - 1);
    }
    let _ = writeln!(s, "    poke(&p{depth});");
    let _ = writeln!(s, "    return x;");
    let _ = writeln!(s, "}}");
    s
}

/// A ring of `n` functions that each re-target the global function
/// pointer at the *previous* ring member and call through it, guarded
/// by a shared counter — indirect recursion that forces the invocation
/// graph to approximate. `n ≥ 2`.
pub fn fnptr_knot(n: usize) -> String {
    let n = n.max(2);
    let mut s = String::new();
    let _ = writeln!(s, "int n;");
    let _ = writeln!(s, "void (*fp)(void);");
    let _ = writeln!(s, "void k0(void) {{ if (n) {{ n = n - 1; fp(); }} }}");
    for i in 1..n {
        let _ = writeln!(
            s,
            "void k{i}(void) {{ if (n) {{ n = n - 1; fp = k{}; fp(); }} }}",
            i - 1
        );
    }
    let _ = writeln!(
        s,
        "int main(void) {{ n = {}; fp = k{}; fp(); return n; }}",
        n * 2,
        n - 1
    );
    s
}

/// One indirect call site whose pointer may target any of `n`
/// functions (each writes a distinct global through a shared pointer),
/// stressing call fan-out. `n ≥ 1`.
pub fn wide_indirect(n: usize) -> String {
    let n = n.max(1);
    let mut s = String::new();
    let _ = writeln!(s, "int sel;");
    let _ = writeln!(s, "int *shared;");
    for i in 0..n {
        let _ = writeln!(s, "int g{i};");
        let _ = writeln!(s, "void t{i}(void) {{ shared = &g{i}; }}");
    }
    let _ = writeln!(s, "int main(void) {{");
    let _ = writeln!(s, "    void (*fp)(void);");
    let _ = writeln!(s, "    fp = t0;");
    for i in 1..n {
        let _ = writeln!(s, "    if (sel == {i}) {{ fp = t{i}; }}");
    }
    let _ = writeln!(s, "    fp();");
    let _ = writeln!(s, "    return *shared;");
    let _ = writeln!(s, "}}");
    s
}

/// `n` caller functions that each hand the same worker function an
/// identical calling context (`work(&q, &g0)` on a fresh local `q`),
/// with main invoking every caller. The worker's body is deliberately
/// heavy — a 40-step alias shuffle re-run inside a loop through a rank
/// of pointer-to-pointer cursors, so the intra-procedural fixpoint
/// takes several rounds — and re-analysing it per call site costs far
/// more than replaying a stored context pair: node scope pays that cost
/// `n` times, program scope once. `n ≥ 1`.
pub fn call_fanout(n: usize) -> String {
    let n = n.max(1);
    let mut s = String::new();
    let _ = writeln!(s, "int g0, g1, g2;");
    let _ = writeln!(s, "void work(int **p, int *v) {{");
    for i in 0..64 {
        let _ = writeln!(s, "    int *a{i};");
    }
    for i in 0..8 {
        let _ = writeln!(s, "    int **w{i};");
    }
    let _ = writeln!(s, "    int i;");
    let _ = writeln!(s, "    a0 = v;");
    for i in 1..64 {
        let _ = writeln!(s, "    a{i} = a{};", i - 1);
    }
    for i in 0..8 {
        let _ = writeln!(s, "    w{i} = &a{};", i * 8);
    }
    let _ = writeln!(s, "    for (i = 0; i < 4; i++) {{");
    for i in 0..8 {
        let _ = writeln!(s, "        *w{i} = a63;");
    }
    let _ = writeln!(s, "        a0 = *w7;");
    for i in 1..64 {
        let _ = writeln!(s, "        a{i} = a{};", i - 1);
    }
    let _ = writeln!(s, "        if (g1) {{ a20 = &g1; }}");
    let _ = writeln!(s, "        if (g0) {{ a40 = &g2; }}");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "    *p = a63;");
    let _ = writeln!(s, "}}");
    for i in 0..n {
        let _ = writeln!(s, "void c{i}(void) {{ int *q; work(&q, &g0); *q = 1; }}");
    }
    let _ = writeln!(s, "int main(void) {{");
    for i in 0..n {
        let _ = writeln!(s, "    c{i}();");
    }
    let _ = writeln!(s, "    return g0;");
    let _ = writeln!(s, "}}");
    s
}

/// A seeded combination: a few globals, a pointer tower, a handful of
/// functions assigned to a function pointer under data-dependent
/// branches, aliasing helpers called in a loop.
pub fn random_mix(g: &mut Rng) -> String {
    let globals = g.usize(2..6);
    let depth = g.usize(2..6);
    let fns = g.usize(2..7);
    let mut s = String::new();
    for i in 0..globals {
        let _ = writeln!(s, "int g{i};");
    }
    let _ = writeln!(s, "int *cursor;");
    // Helpers that alias globals through a pointer-to-pointer.
    let _ = writeln!(s, "void alias(int **pp, int *v) {{ *pp = v; }}");
    for i in 0..fns {
        let target = g.usize(0..globals);
        let _ = writeln!(s, "void h{i}(void) {{ cursor = &g{target}; }}");
    }
    let _ = writeln!(s, "int main(void) {{");
    let _ = writeln!(s, "    int i;");
    let _ = writeln!(s, "    void (*fp)(void);");
    for i in 1..=depth {
        let _ = writeln!(s, "    int {}q{};", "*".repeat(i), i);
    }
    let _ = writeln!(s, "    q1 = &g0;");
    for i in 2..=depth {
        let _ = writeln!(s, "    q{} = &q{};", i, i - 1);
    }
    let _ = writeln!(s, "    fp = h0;");
    for i in 1..fns {
        let cond = g.usize(0..globals);
        let _ = writeln!(s, "    if (g{cond}) {{ fp = h{i}; }}");
    }
    let iters = g.usize(1..4);
    let _ = writeln!(s, "    for (i = 0; i < {iters}; i++) {{");
    let _ = writeln!(s, "        fp();");
    let a = g.usize(0..globals);
    let b = g.usize(0..globals);
    let _ = writeln!(s, "        alias(&cursor, &g{a});");
    let _ = writeln!(s, "        alias(&q1, &g{b});");
    let _ = writeln!(s, "    }}");
    let _ = writeln!(s, "    return *cursor;");
    let _ = writeln!(s, "}}");
    s
}

/// The stress families, picked by index (see [`FAMILIES`]).
pub fn generate(family: &str, g: &mut Rng) -> String {
    match family {
        "deep-chain" => deep_chain(g.usize(3..24)),
        "fnptr-knot" => fnptr_knot(g.usize(2..12)),
        "wide-indirect" => wide_indirect(g.usize(2..40)),
        "call-fanout" => call_fanout(g.usize(2..32)),
        _ => random_mix(g),
    }
}

/// The generator family names.
pub const FAMILIES: &[&str] = &[
    "deep-chain",
    "fnptr-knot",
    "wide-indirect",
    "call-fanout",
    "random-mix",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_sources_compile() {
        for (i, src) in [
            deep_chain(1),
            deep_chain(8),
            fnptr_knot(2),
            fnptr_knot(6),
            wide_indirect(1),
            wide_indirect(12),
            call_fanout(1),
            call_fanout(10),
        ]
        .iter()
        .enumerate()
        {
            assert!(pta_core::run_source(src).is_ok(), "case {i} failed:\n{src}");
        }
    }

    #[test]
    fn random_mix_compiles_across_seeds() {
        for seed in 0..20 {
            let mut g = Rng::new(seed);
            let src = random_mix(&mut g);
            let r = pta_core::run_source(&src);
            assert!(r.is_ok(), "seed {seed} failed: {:?}\n{src}", r.err());
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let a = generate("random-mix", &mut Rng::new(9));
        let b = generate("random-mix", &mut Rng::new(9));
        assert_eq!(a, b);
    }
}
