//! Round-trip tests for the location interner and property tests that
//! the packed, `LocId`-indexed points-to set operations agree with a
//! structural reference model of the paper's semantics (Definition 3.3
//! merge, kill/change/gen, subset ordering).

use pta_core::{Def, LocBase, LocId, LocationTable, Proj, PtSet};
use std::collections::BTreeMap;

fn ir() -> pta_simple::IrProgram {
    pta_simple::compile(
        "struct inner { int *ip; int ia[4]; };
         struct outer { struct inner in; int *op; struct inner arr[3]; };
         struct outer go;
         int garr[8];
         int *gp;
         int f1(int *p) { return *p; }
         int main(void) { int x; int *q; q = &x; return f1(q); }",
    )
    .expect("test program compiles")
}

fn func(ir: &pta_simple::IrProgram, name: &str) -> pta_cfront::ast::FuncId {
    ir.function_by_name(name).expect("function exists").0
}

// ---------------------------------------------------------------------
// Interner round trips: every location shape maps to one dense id, and
// the id maps back to exactly the data that created it.
// ---------------------------------------------------------------------

#[test]
fn round_trips_roots() {
    let ir = ir();
    let mut t = LocationTable::new();
    let main = func(&ir, "main");
    let f1 = func(&ir, "f1");

    let shapes = [
        t.global(&ir, pta_cfront::ast::GlobalId(0)),
        t.global(&ir, pta_cfront::ast::GlobalId(1)),
        t.global(&ir, pta_cfront::ast::GlobalId(2)),
        t.var(&ir, main, pta_simple::IrVarId(0)),
        t.var(&ir, f1, pta_simple::IrVarId(0)),
        t.heap(),
        t.heap_site(7),
        t.null(),
        t.strlit(),
        t.function(&ir, f1),
        t.ret(&ir, f1),
    ];
    // Dense, distinct, and stable under re-interning.
    for (i, &id) in shapes.iter().enumerate() {
        assert_eq!(id, LocId(i as u32), "ids assigned densely in intern order");
        let d = t.get(id).clone();
        assert_eq!(
            t.lookup(&d.base, &d.projs),
            Some(id),
            "lookup({}) round-trips",
            t.name(id)
        );
    }
    assert_eq!(t.len(), shapes.len());
    // Re-interning every shape is a no-op.
    assert_eq!(t.global(&ir, pta_cfront::ast::GlobalId(0)), shapes[0]);
    assert_eq!(t.heap_site(7), shapes[6]);
    assert_eq!(t.ret(&ir, f1), shapes[10]);
    assert_eq!(t.len(), shapes.len());
}

#[test]
fn round_trips_field_chains() {
    let ir = ir();
    let mut t = LocationTable::new();
    let go = t.global(&ir, pta_cfront::ast::GlobalId(0));

    // go.in.ip — a two-level field chain.
    let inner = t
        .project(go, &Proj::Field("in".into()), &ir)
        .expect("go.in");
    let ip = t
        .project(inner, &Proj::Field("ip".into()), &ir)
        .expect("go.in.ip");
    assert_eq!(t.name(ip), "go.in.ip");
    let d = t.get(ip).clone();
    assert_eq!(
        d.projs,
        vec![Proj::Field("in".into()), Proj::Field("ip".into())]
    );
    assert_eq!(t.lookup(&d.base, &d.projs), Some(ip));
    // The same chain re-projected hits the same id.
    let inner2 = t.project(go, &Proj::Field("in".into()), &ir).unwrap();
    assert_eq!(t.project(inner2, &Proj::Field("ip".into()), &ir), Some(ip));
}

#[test]
fn round_trips_head_tail_and_mixed_chains() {
    let ir = ir();
    let mut t = LocationTable::new();
    let go = t.global(&ir, pta_cfront::ast::GlobalId(0));
    let garr = t.global(&ir, pta_cfront::ast::GlobalId(1));

    let head = t.project(garr, &Proj::Head, &ir).expect("garr[0]");
    let tail = t.project(garr, &Proj::Tail, &ir).expect("garr[1..]");
    assert_ne!(head, tail);
    assert!(!t.is_summary(head));
    assert!(t.is_summary(tail), "array tails are summaries");

    // go.arr[1..].ia[0] — field → tail → field → head.
    let arr = t.project(go, &Proj::Field("arr".into()), &ir).unwrap();
    let at = t.project(arr, &Proj::Tail, &ir).unwrap();
    let ia = t.project(at, &Proj::Field("ia".into()), &ir).unwrap();
    let iah = t.project(ia, &Proj::Head, &ir).unwrap();
    assert_eq!(t.name(iah), "go.arr[1..].ia[0]");
    assert!(t.is_summary(iah), "anything under a tail stays a summary");
    let d = t.get(iah).clone();
    assert_eq!(
        d.projs,
        vec![
            Proj::Field("arr".into()),
            Proj::Tail,
            Proj::Field("ia".into()),
            Proj::Head,
        ]
    );
    assert_eq!(t.lookup(&d.base, &d.projs), Some(iah));
}

#[test]
fn round_trips_symbolic_names_and_k_limited_chains() {
    let ir = ir();
    let mut t = LocationTable::new();
    let main = func(&ir, "main");
    let f1 = func(&ir, "f1");
    let int_ty = Some(pta_cfront::types::Type::Int);

    // The k-limited chain of symbolic names the map process creates:
    // 1_x, 2_x, 3_x — one per indirection depth.
    let mut chain = Vec::new();
    for depth in 1..=3u32 {
        let name = format!("{depth}_x");
        let s = t.symbolic(f1, &name, depth, int_ty.clone());
        assert_eq!(
            t.symbolic(f1, &name, depth, int_ty.clone()),
            s,
            "symbolic interning idempotent"
        );
        let sd = t.symbolic_data(s).expect("symbolic metadata");
        assert_eq!(sd.depth, depth);
        assert_eq!(sd.name, name);
        assert_eq!(sd.func, f1);
        assert!(t.is_symbolic(s));
        assert!(t.is_scoped_to(s, f1));
        assert!(!t.is_scoped_to(s, main));
        chain.push(s);
    }
    assert_eq!(chain.len(), 3);
    assert!(chain[0] != chain[1] && chain[1] != chain[2]);

    // Same printable name in a different scope is a different location.
    let other = t.symbolic(main, "1_x", 1, int_ty);
    assert_ne!(other, chain[0]);

    // Each symbolic id round-trips through lookup on its interned base.
    for &s in &chain {
        let d = t.get(s).clone();
        assert!(matches!(d.base, LocBase::Symbolic(fid, _) if fid == f1));
        assert_eq!(t.lookup(&d.base, &d.projs), Some(s));
    }
}

#[test]
fn classification_flags_match_shapes() {
    let ir = ir();
    let mut t = LocationTable::new();
    let f1 = func(&ir, "f1");
    let h = t.heap();
    let hs = t.heap_site(0);
    let n = t.null();
    let sl = t.strlit();
    let fl = t.function(&ir, f1);
    assert!(t.is_heap(h) && t.is_summary(h));
    assert!(t.is_heap(hs) && t.is_summary(hs));
    assert!(t.is_null(n) && !t.is_summary(n));
    assert!(t.is_summary(sl) && !t.is_heap(sl));
    assert!(t.is_function(fl) && t.as_function(fl) == Some(f1));
}

#[test]
fn prop_random_intern_sequences_are_consistent() {
    // Interleave interning of a fixed pool of shapes in random orders;
    // a structural reference map must always agree with the table.
    let ir = ir();
    pta_prop::check("interner agrees with a structural map", 64, |g| {
        let mut t = LocationTable::new();
        let go = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let garr = t.global(&ir, pta_cfront::ast::GlobalId(1));
        let mut model: BTreeMap<(LocBase, Vec<Proj>), LocId> = BTreeMap::new();
        for root in [go, garr] {
            let d = t.get(root).clone();
            model.insert((d.base, d.projs), root);
        }
        let fields = ["in", "op", "arr", "ip", "ia"];
        for _ in 0..g.usize(5..60) {
            // Pick a random known location and try a random projection.
            let &start = g.pick(&model.values().copied().collect::<Vec<_>>());
            let proj = match g.usize(0..3) {
                0 => Proj::Field((*g.pick(&fields)).to_owned()),
                1 => Proj::Head,
                _ => Proj::Tail,
            };
            if let Some(id) = t.project(start, &proj, &ir) {
                let d = t.get(id).clone();
                let prev = model.insert((d.base.clone(), d.projs.clone()), id);
                if let Some(p) = prev {
                    assert_eq!(p, id, "re-interning {:?} changed its id", d.name);
                }
                assert_eq!(t.lookup(&d.base, &d.projs), Some(id));
            }
        }
        // Table size equals the number of structurally-distinct shapes.
        assert_eq!(t.len(), model.len());
    });
}

// ---------------------------------------------------------------------
// Packed PtSet vs a structural reference model.
// ---------------------------------------------------------------------

/// The reference model: the old structural representation — a sorted map
/// keyed by `(src, tgt)` holding the definiteness.
type Model = BTreeMap<(u32, u32), Def>;

fn model_insert(m: &mut Model, s: u32, t: u32, d: Def) {
    let e = m.entry((s, t)).or_insert(d);
    if d == Def::D {
        *e = Def::D;
    }
}

fn model_insert_weak(m: &mut Model, s: u32, t: u32, d: Def) {
    match m.get_mut(&(s, t)) {
        Some(e) if *e != d => *e = Def::P,
        Some(_) => {}
        None => {
            m.insert((s, t), d);
        }
    }
}

fn model_kill(m: &mut Model, s: u32) {
    m.retain(|&(src, _), _| src != s);
}

fn model_demote(m: &mut Model, s: u32) {
    for (&(src, _), d) in m.iter_mut() {
        if src == s {
            *d = Def::P;
        }
    }
}

/// Definition 3.3: D ∧ D = D; a pair on one side only, or P on either,
/// is P.
fn model_merge(a: &Model, b: &Model) -> Model {
    let mut out = Model::new();
    for (&k, &da) in a {
        let d = match b.get(&k) {
            Some(&Def::D) if da == Def::D => Def::D,
            _ => Def::P,
        };
        out.insert(k, d);
    }
    for &k in b.keys() {
        out.entry(k).or_insert(Def::P);
    }
    out
}

/// `a ⊑ b`: every pair of `a` appears in `b`, and `b` may not claim D
/// where `a` only has P (P generalizes D, not the other way around).
fn model_subset(a: &Model, b: &Model) -> bool {
    a.iter().all(|(k, &da)| match b.get(k) {
        Some(&db) => !(da == Def::P && db == Def::D),
        None => false,
    })
}

fn to_model(s: &PtSet) -> Model {
    s.iter().map(|(a, b, d)| ((a.0, b.0), d)).collect()
}

fn random_set(g: &mut pta_prop::Rng, n_ops: usize, ids: u32) -> (PtSet, Model) {
    let mut s = PtSet::new();
    let mut m = Model::new();
    for _ in 0..n_ops {
        let a = g.u32(0..ids);
        let b = g.u32(0..ids);
        let d = if g.ratio(1, 2) { Def::D } else { Def::P };
        if g.ratio(1, 2) {
            s.insert(LocId(a), LocId(b), d);
            model_insert(&mut m, a, b, d);
        } else {
            s.insert_weak(LocId(a), LocId(b), d);
            model_insert_weak(&mut m, a, b, d);
        }
    }
    (s, m)
}

#[test]
fn prop_gen_kill_demote_agree_with_structural_model() {
    pta_prop::check("gen/kill/demote agree with the model", 256, |g| {
        let ids = g.u32(2..10);
        let mut s = PtSet::new();
        let mut m = Model::new();
        for _ in 0..g.usize(1..80) {
            let a = g.u32(0..ids);
            let b = g.u32(0..ids);
            let d = if g.ratio(1, 2) { Def::D } else { Def::P };
            match g.usize(0..5) {
                0 => {
                    s.insert(LocId(a), LocId(b), d);
                    model_insert(&mut m, a, b, d);
                }
                1 => {
                    s.insert_weak(LocId(a), LocId(b), d);
                    model_insert_weak(&mut m, a, b, d);
                }
                2 => {
                    s.kill_from(LocId(a));
                    model_kill(&mut m, a);
                }
                3 => {
                    s.demote_from(LocId(a));
                    model_demote(&mut m, a);
                }
                _ => {
                    s.remove(LocId(a), LocId(b));
                    m.remove(&(a, b));
                }
            }
            assert_eq!(to_model(&s), m);
            assert_eq!(s.len(), m.len());
        }
    });
}

#[test]
fn prop_merge_agrees_with_definition_3_3() {
    pta_prop::check("merge agrees with Definition 3.3", 256, |g| {
        let ids = g.u32(2..10);
        let (na, nb) = (g.usize(0..40), g.usize(0..40));
        let (a, ma) = random_set(g, na, ids);
        let (b, mb) = random_set(g, nb, ids);
        let merged = a.merge(&b);
        assert_eq!(to_model(&merged), model_merge(&ma, &mb));
        // Merge is symmetric and an upper bound of both inputs.
        assert_eq!(merged, b.merge(&a));
        assert!(a.subset_of(&merged), "a ⊑ a∨b");
        assert!(b.subset_of(&merged), "b ⊑ a∨b");
    });
}

#[test]
fn prop_subset_agrees_with_structural_model() {
    pta_prop::check("subset_of agrees with the model", 256, |g| {
        let ids = g.u32(2..8);
        let (na, nb) = (g.usize(0..25), g.usize(0..25));
        let (a, ma) = random_set(g, na, ids);
        let (b, mb) = random_set(g, nb, ids);
        assert_eq!(a.subset_of(&b), model_subset(&ma, &mb));
        assert!(a.subset_of(&a), "reflexive");
    });
}

#[test]
fn prop_demote_models_unmap_definiteness_degradation() {
    // The unmap process weakens facts through multi-representative
    // symbolic names via demote: keys never change, definiteness only
    // ever goes down, and the result is generalized by the original.
    pta_prop::check("demote degrades definiteness monotonically", 256, |g| {
        let ids = g.u32(2..10);
        let n = g.usize(1..40);
        let (mut s, m) = random_set(g, n, ids);
        let before = to_model(&s);
        assert_eq!(before, m);
        let victim = g.u32(0..ids);
        s.demote_from(LocId(victim));
        let after = to_model(&s);
        assert_eq!(
            before.len(),
            after.len(),
            "demote never changes the key set"
        );
        for (k, d_after) in &after {
            let d_before = before[k];
            if k.0 == victim {
                assert_eq!(*d_after, Def::P);
            } else {
                assert_eq!(*d_after, d_before);
            }
        }
        // Degraded facts are generalized by the originals: old ⊑ new.
        let orig: PtSet = before
            .iter()
            .map(|(&(a, b), &d)| (LocId(a), LocId(b), d))
            .collect();
        assert!(orig.subset_of(&s));
    });
}
