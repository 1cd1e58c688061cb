//! The benchmark's own seeded C program generator (`scale-cold` inputs
//! and the large serve tenants).
//!
//! A program is a row of *modules* called in turn from `main`. Each
//! module plants the structures whose cost the paper's analysis is
//! sensitive to:
//!
//! - a function-pointer table filled with handlers and called through;
//! - `malloc` cells with pointer fields, linked into one global pool;
//! - pointer-to-pointer helpers (`set`, `swap`) called from workers;
//! - a bounded mutual-recursion pair;
//! - worker call sites, a seeded share of which hand the worker the
//!   same calling context (the memo-reuse dimension).
//!
//! Every module also publishes into one global `hub` pointer, so
//! points-to sets grow with the number of modules and analysis cost
//! grows faster than program size, as it does on real programs.
//!
//! Size and the share of same-context sites are fixed per slot, so one
//! run spans both dimensions; the seed permutes targets, table slots,
//! call order and the planted module. That keeps a run's cost steady
//! across seeds while the facts differ.

use pta_prop::Rng;
use std::fmt::Write as _;

/// Statement targets of the eight `scale-cold` programs, smallest
/// first: a geometric ladder from 1.5k to 6k SIMPLE statements whose
/// two middle rungs are equal, so the median op of a round falls
/// inside one population of op times rather than in the gap between
/// two.
pub const SCALE_SIZES: [usize; 8] = [1500, 1850, 2300, 3000, 3000, 3850, 4800, 6000];

/// Same-context share of worker call sites per `scale-cold` slot, in
/// eighths (the two middle slots alike, for the reason above).
pub const SCALE_SHARE_EIGHTHS: [u32; 8] = [0, 6, 2, 4, 4, 1, 7, 3];

/// Basic statements one module lowers to when no call site shares its
/// context (measured; each same-context site saves one). The generator
/// sizes programs by whole modules.
const STMTS_PER_MODULE: usize = 89;

/// One generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Tenant / file stem.
    pub name: String,
    /// C source text.
    pub source: String,
    /// The module whose planted statement an edit toggles.
    pub planted: usize,
}

impl Program {
    /// The planted statement's two forms: `aK = &gK_0;` and
    /// `aK = &gK_1;`. Both have the same length, so an edit keeps the
    /// program's skeleton and moves only one function's fingerprint.
    pub fn planted_forms(&self) -> (String, String) {
        let k = self.planted;
        (format!("a{k} = &g{k}_0;"), format!("a{k} = &g{k}_1;"))
    }

    /// The global the planted statement assigns (`aK`).
    pub fn planted_var(&self) -> String {
        format!("a{}", self.planted)
    }

    /// The source with the planted statement in state `state` (0 or
    /// 1); state 0 is the generated source.
    pub fn with_state(&self, state: u8) -> String {
        let (s0, s1) = self.planted_forms();
        if state == 0 {
            self.source.clone()
        } else {
            self.source.replacen(&s0, &s1, 1)
        }
    }
}

/// Generates a program of about `stmts` SIMPLE statements in which
/// `share_eighths`/8 of the worker call sites pass one shared context.
pub fn program(name: &str, stmts: usize, share_eighths: u32, rng: &mut Rng) -> Program {
    let modules = (stmts / (STMTS_PER_MODULE - shared_sites(share_eighths))).max(1);
    let planted = rng.usize(0..modules);
    let mut s = String::new();
    let _ = writeln!(s, "/* {name}: generated, {modules} modules */");
    let _ = writeln!(
        s,
        "struct cell {{ int *val; int *aux; struct cell *next; }};"
    );
    let _ = writeln!(s, "int *hub;");
    let _ = writeln!(s, "struct cell *pool;");
    for m in 0..modules {
        module(&mut s, m, planted, share_eighths, rng);
    }
    let _ = writeln!(s, "int main(void) {{");
    let mut order: Vec<usize> = (0..modules).collect();
    shuffle(&mut order, rng);
    // The planted module is called halfway through `main`: how much an
    // edit re-analyses depends on how many calls follow it, and that
    // must not depend on the seed.
    let at = order
        .iter()
        .position(|&m| m == planted)
        .expect("planted is a module");
    order.swap(at, modules / 2);
    for m in order {
        let _ = writeln!(s, "    drive{m}();");
    }
    let _ = writeln!(s, "    return 0;");
    let _ = writeln!(s, "}}");
    Program {
        name: name.to_owned(),
        source: s,
        planted,
    }
}

/// The eight `scale-cold` programs of a seed.
pub fn scale_programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x5ca1_e000);
    SCALE_SIZES
        .iter()
        .zip(SCALE_SHARE_EIGHTHS)
        .enumerate()
        .map(|(i, (&n, share))| program(&format!("scale{i}"), n, share, &mut rng))
        .collect()
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.usize(0..i + 1);
        items.swap(i, j);
    }
}

const WORKERS: usize = 3;
const SITES_PER_WORKER: usize = 3;
const HANDLERS: usize = 4;

/// The order in which worker call sites become same-context sites as
/// the share grows: alternating inside and outside the loop in `drive`.
const SHARE_ORDER: [usize; WORKERS * SITES_PER_WORKER] = [0, 3, 6, 1, 4, 7, 2, 5, 8];

/// Worker call sites of a module that share one context, for a share
/// in eighths.
fn shared_sites(share_eighths: u32) -> usize {
    (WORKERS * SITES_PER_WORKER * share_eighths as usize + 4) / 8
}

/// A seeded permutation of the module's four globals. Targets are drawn
/// from permutations, not independently, so that the number of distinct
/// targets — and with it the analysis cost — does not depend on the
/// seed.
fn globals(rng: &mut Rng) -> [usize; 4] {
    let mut g = [0, 1, 2, 3];
    shuffle(&mut g, rng);
    g
}

fn module(s: &mut String, m: usize, planted: usize, share_eighths: u32, rng: &mut Rng) {
    let _ = writeln!(s, "int g{m}_0, g{m}_1, g{m}_2, g{m}_3;");
    if m == planted {
        let _ = writeln!(s, "int *a{m};");
    }
    let g = globals(rng);
    for (h, target) in g.iter().enumerate() {
        let _ = writeln!(
            s,
            "void h{m}_{h}(struct cell *c) {{ c->aux = &g{m}_{target}; }}"
        );
    }
    let _ = writeln!(s, "void set{m}(int **pp, int *v) {{ *pp = v; }}");
    let _ = writeln!(
        s,
        "void swap{m}(int **x, int **y) {{ int *t; t = *x; *x = *y; *y = t; }}"
    );
    let _ = writeln!(
        s,
        "struct cell *mk{m}(int *v) {{ struct cell *c; \
         c = (struct cell *) malloc(sizeof(struct cell)); \
         c->val = v; c->next = pool; pool = c; return c; }}"
    );
    let g = globals(rng);
    let _ = writeln!(s, "int r{m}b(int n, int **pp);");
    let _ = writeln!(
        s,
        "int r{m}a(int n, int **pp) {{ if (n > 0) {{ *pp = &g{m}_{}; return r{m}b(n - 1, pp); }} return n; }}",
        g[0]
    );
    let _ = writeln!(
        s,
        "int r{m}b(int n, int **pp) {{ if (n > 0) {{ *pp = &g{m}_{}; return r{m}a(n - 1, pp); }} return n; }}",
        g[1]
    );
    for w in 0..WORKERS {
        worker(s, m, w, rng);
    }
    // `drive`: table set-up, the planted statement, and the worker
    // call sites, some inside a loop so memo lookups repeat.
    let sites = WORKERS * SITES_PER_WORKER;
    let shared = shared_sites(share_eighths);
    let _ = writeln!(s, "void drive{m}(void) {{");
    let _ = writeln!(s, "    int i;");
    let _ = writeln!(s, "    int *qs;");
    let _ = writeln!(s, "    void (*t[{HANDLERS}])(struct cell *);");
    for q in 0..sites {
        let _ = writeln!(s, "    int *q{q};");
    }
    let mut slots: Vec<usize> = (0..HANDLERS).collect();
    shuffle(&mut slots, rng);
    for (slot, h) in slots.iter().enumerate() {
        let _ = writeln!(s, "    t[{slot}] = h{m}_{h};");
    }
    if m == planted {
        let _ = writeln!(s, "    a{m} = &g{m}_0;");
    }
    let _ = writeln!(s, "    qs = 0;");
    let g = globals(rng);
    for site in 0..sites {
        let w = site % WORKERS;
        if site == WORKERS {
            let _ = writeln!(s, "    for (i = 0; i < 2; i++) {{");
        }
        if SHARE_ORDER[..shared].contains(&site) {
            let _ = writeln!(s, "    work{m}_{w}(&qs, &g{m}_0, t[0]);");
        } else {
            let _ = writeln!(s, "    q{site} = &g{m}_{};", g[site % 4]);
            let _ = writeln!(
                s,
                "    work{m}_{w}(&q{site}, &g{m}_{}, t[{}]);",
                g[(site + 1) % 4],
                site % HANDLERS
            );
        }
        if site == 2 * WORKERS - 1 {
            let _ = writeln!(s, "    }}");
        }
    }
    let _ = writeln!(s, "    r{m}a(3, &qs);");
    let _ = writeln!(s, "}}");
}

/// A worker: pointer shuffles through the helpers, a heap cell handed
/// to a handler through a function pointer, and (worker 0 only) a read
/// and a write of the global hub.
fn worker(s: &mut String, m: usize, w: usize, rng: &mut Rng) {
    let g = globals(rng);
    let _ = writeln!(
        s,
        "void work{m}_{w}(int **pp, int *v, void (*f)(struct cell *)) {{"
    );
    let _ = writeln!(s, "    int *x0, *x1, *x2, *x3;");
    let _ = writeln!(s, "    struct cell *c;");
    let _ = writeln!(s, "    x0 = v;");
    let _ = writeln!(s, "    x1 = *pp;");
    let _ = writeln!(s, "    x2 = &g{m}_{};", g[0]);
    if w == 0 {
        let _ = writeln!(s, "    x3 = hub;");
    } else {
        let _ = writeln!(s, "    x3 = &g{m}_{};", g[1]);
    }
    let _ = writeln!(s, "    c = mk{m}(x2);");
    let _ = writeln!(s, "    f(c);");
    if w == 0 {
        let _ = writeln!(s, "    hub = c->aux;");
        let _ = writeln!(s, "    x1 = c->val;");
    }
    let _ = writeln!(s, "    swap{m}(&x0, &x2);");
    let _ = writeln!(s, "    if (x0 == x1) {{ x1 = pool->val; }}");
    let _ = writeln!(s, "    set{m}(pp, x3);");
    let _ = writeln!(s, "    set{m}(&x1, x0);");
    let _ = writeln!(s, "    *pp = x2;");
    let _ = writeln!(s, "}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{self, Tracer};

    #[test]
    fn generator_output_is_deterministic_per_seed() {
        assert_eq!(scale_programs(7), scale_programs(7));
        assert_ne!(scale_programs(7), scale_programs(8));
    }

    #[test]
    fn every_generated_program_analyses_at_full_fidelity_and_size() {
        // The default configuration errors out (rather than degrading)
        // when a budget trips, so `Ok` means full fidelity.
        let mut tr = Tracer::off();
        for (p, &target) in scale_programs(3).iter().zip(&SCALE_SIZES) {
            let (ir, _) = layers::compile(&mut tr, &p.source).unwrap();
            let n = layers::stmts(&ir);
            assert!(
                n * 10 >= target * 9 && n * 10 <= target * 11,
                "{}: {n} vs {target}",
                p.name
            );
            let result = layers::analyze(&mut tr, &ir).unwrap();
            assert!(layers::pt_pairs(&result) > 0);
        }
    }

    #[test]
    fn the_planted_edit_changes_one_statement() {
        let p = program("t", 400, 4, &mut Rng::new(5));
        let (s0, s1) = (p.with_state(0), p.with_state(1));
        assert_ne!(s0, s1);
        assert_eq!(s0.len(), s1.len());
        assert_eq!(s0.matches(&p.planted_forms().0).count(), 1);
    }
}
