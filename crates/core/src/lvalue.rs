//! L-location and R-location sets (Table 1 of the paper).
//!
//! An *L-location set* names the abstract locations a variable reference
//! may denote when written; an *R-location set* names the locations a
//! reference (or operand) may evaluate to when read as a pointer value.
//! Both are sets of `(location, D|P)` pairs relative to the current
//! points-to set `S`.
//!
//! This is the only implementation of those rules. A [`RefEnv`] takes
//! its locations from a [`LocSource`]: the engine's `&mut
//! LocationTable` interns every location it reaches, and a finished
//! result's `&LocationTable` only finds locations the analysis already
//! interned ([`FactQuery`](crate::FactQuery) resolves through it). A
//! location that was never interned can never appear in a points-to
//! pair, so dropping it from a read-only answer loses nothing.

use crate::location::{LocBase, LocId, LocationTable, Proj, Step};
use crate::points_to_set::{Def, PtSet};
use pta_cfront::ast::FuncId;
use pta_simple::{Const, IdxClass, IrProgram, IrProj, Operand, VarBase, VarPath, VarRef};

/// Where a [`RefEnv`] gets its locations from.
pub trait LocSource {
    /// True if the source makes every well-typed location it is asked
    /// for, so a failed projection means the shape does not type-check.
    const INTERNS: bool;
    /// The table locations are read from.
    fn table(&self) -> &LocationTable;
    /// The root location of `base`.
    fn root(&mut self, ir: &IrProgram, base: LocBase) -> Option<LocId>;
    /// [`LocationTable::project`] by an array head or tail.
    fn element(&mut self, id: LocId, proj: &Proj, ir: &IrProgram) -> Option<LocId>;
    /// [`LocationTable::project`] by a struct field given by name.
    fn field(&mut self, id: LocId, field: &str, ir: &IrProgram) -> Option<LocId>;
}

/// The engine's source: locations are interned on demand.
impl LocSource for &mut LocationTable {
    const INTERNS: bool = true;

    fn table(&self) -> &LocationTable {
        self
    }

    #[inline]
    fn root(&mut self, ir: &IrProgram, base: LocBase) -> Option<LocId> {
        Some(match base {
            LocBase::Global(g) => self.global(ir, g),
            LocBase::Var(f, v) => self.var(ir, f, v),
            LocBase::Function(f) => self.function(ir, f),
            LocBase::StrLit => self.strlit(),
            LocBase::Null => self.null(),
            // No reference names these roots directly.
            _ => return self.lookup(&base, &[]),
        })
    }

    #[inline]
    fn element(&mut self, id: LocId, proj: &Proj, ir: &IrProgram) -> Option<LocId> {
        self.project(id, proj, ir)
    }

    #[inline]
    fn field(&mut self, id: LocId, field: &str, ir: &IrProgram) -> Option<LocId> {
        self.project_field(id, field, ir)
    }
}

/// A finished result's source: locations are only found, never made.
impl LocSource for &LocationTable {
    const INTERNS: bool = false;

    fn table(&self) -> &LocationTable {
        self
    }

    fn root(&mut self, _: &IrProgram, base: LocBase) -> Option<LocId> {
        self.lookup(&base, &[])
    }

    fn element(&mut self, id: LocId, proj: &Proj, ir: &IrProgram) -> Option<LocId> {
        self.find_step(id, proj.into(), ir)
    }

    fn field(&mut self, id: LocId, field: &str, ir: &IrProgram) -> Option<LocId> {
        self.find_step(id, Step::Field(field), ir)
    }
}

/// Context needed to resolve references to locations.
pub struct RefEnv<'a, L = &'a mut LocationTable> {
    /// The program.
    pub ir: &'a IrProgram,
    /// The function whose scope references are resolved in.
    pub func: FuncId,
    /// Where locations come from.
    pub locs: L,
}

impl<L: LocSource> RefEnv<'_, L> {
    fn base_loc(&mut self, base: VarBase) -> Option<LocId> {
        let base = match base {
            VarBase::Global(g) => LocBase::Global(g),
            VarBase::Var(v) => LocBase::Var(self.func, v),
        };
        self.locs.root(self.ir, base)
    }

    /// Resolves a dereference-free path to its location set. Constant
    /// indices are precise (`D`); unknown indices yield both the head
    /// and tail locations, possibly (`P`).
    pub fn path_locs(&mut self, path: &VarPath) -> Vec<(LocId, Def)> {
        let Some(base) = self.base_loc(path.base) else {
            return Vec::new();
        };
        let mut cur = vec![(base, Def::D)];
        for proj in &path.projs {
            cur = self.apply_proj(&cur, proj);
        }
        cur
    }

    fn apply_proj(&mut self, cur: &[(LocId, Def)], proj: &IrProj) -> Vec<(LocId, Def)> {
        let mut out = Vec::new();
        for (l, d) in cur {
            match proj {
                IrProj::Field(f) => {
                    if let Some(n) = self.locs.field(*l, f, self.ir) {
                        push_unique(&mut out, n, *d);
                    }
                }
                IrProj::Index(IdxClass::Zero) => {
                    if let Some(n) = self.locs.element(*l, &Proj::Head, self.ir) {
                        push_unique(&mut out, n, *d);
                    }
                }
                IrProj::Index(IdxClass::Positive) => {
                    if let Some(n) = self.locs.element(*l, &Proj::Tail, self.ir) {
                        push_unique(&mut out, n, *d);
                    }
                }
                IrProj::Index(IdxClass::Unknown) => {
                    if let Some(n) = self.locs.element(*l, &Proj::Head, self.ir) {
                        push_unique(&mut out, n, Def::P);
                    }
                    if let Some(n) = self.locs.element(*l, &Proj::Tail, self.ir) {
                        push_unique(&mut out, n, Def::P);
                    }
                }
            }
        }
        out
    }

    fn is_null_or_function(&self, t: LocId) -> bool {
        let table = self.locs.table();
        table.is_null(t) || table.is_function(t)
    }

    /// Shifts a points-to target by a pointer-arithmetic class, under the
    /// paper's assumption that array pointers stay inside their array
    /// (§6). Shifting `null` or a function drops the target.
    pub fn shift_loc(&mut self, t: LocId, class: IdxClass) -> Vec<(LocId, Def)> {
        if self.is_null_or_function(t) {
            return Vec::new();
        }
        match class {
            IdxClass::Zero => vec![(t, Def::D)],
            IdxClass::Positive => self.tailify(t).map(|tl| (tl, Def::D)).into_iter().collect(),
            IdxClass::Unknown => {
                let mut v = vec![(t, Def::P)];
                match self.tailify(t) {
                    Some(tl) if tl != t => v.push((tl, Def::P)),
                    _ => {}
                }
                v
            }
        }
    }

    /// `head → tail` on the last array projection; other shapes stay
    /// put (pointer arithmetic within the pointed-to object). `None` if
    /// the tail is a location the source does not have.
    fn tailify(&mut self, t: LocId) -> Option<LocId> {
        let table = self.locs.table();
        let d = table.get(t);
        if matches!(
            d.base,
            LocBase::Heap | LocBase::HeapSite(_) | LocBase::StrLit
        ) {
            return Some(t);
        }
        let Some((Proj::Head, parent_projs)) = d.projs.split_last() else {
            return Some(t);
        };
        // A child is only ever interned after its parent, so the parent
        // of `x[0]` is always found; staying put is the safe fallback.
        let Some(parent) = table.lookup(&d.base, parent_projs) else {
            return Some(t);
        };
        match self.locs.element(parent, &Proj::Tail, self.ir) {
            Some(tl) => Some(tl),
            None if L::INTERNS => Some(t),
            None => None,
        }
    }

    /// The L-location set of a variable reference (Table 1, middle
    /// column).
    pub fn l_locations(&mut self, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        match r {
            VarRef::Path(p) => self.path_locs(p),
            VarRef::Deref { path, shift, after } => {
                let ptrs = self.path_locs(path);
                let mut out = Vec::new();
                for (pl, dl) in ptrs {
                    for (t, dp) in set.targets(pl) {
                        if self.is_null_or_function(t) {
                            continue; // cannot write through null / code
                        }
                        for (t2, ds) in self.shift_loc(t, *shift) {
                            let mut cur = vec![(t2, dl.and(dp).and(ds))];
                            for proj in after {
                                cur = self.apply_proj(&cur, proj);
                            }
                            for (l, d) in cur {
                                push_unique(&mut out, l, d);
                            }
                        }
                    }
                }
                out
            }
        }
    }

    /// The targets a dereference goes *through* under `set`: the union
    /// of the pointer path's target sets, NULL and function targets
    /// included (unlike [`RefEnv::l_locations`], which drops them).
    /// This is what dereference diagnostics inspect — did the pointer
    /// have NULL as a target, or as its *only* target?
    pub fn deref_base_targets(&mut self, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        let VarRef::Deref { path, .. } = r else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (pl, dl) in self.path_locs(path) {
            for (t, dp) in set.targets(pl) {
                push_unique(&mut out, t, dl.and(dp));
            }
        }
        out
    }

    /// The R-location set of a variable reference read as a pointer
    /// value (Table 1, right column): one more hop through `S` than the
    /// L-location set.
    pub fn r_locations(&mut self, set: &PtSet, r: &VarRef) -> Vec<(LocId, Def)> {
        let ls = self.l_locations(set, r);
        let mut out = Vec::new();
        for (l, d) in ls {
            for (t, dp) in set.targets(l) {
                push_unique(&mut out, t, d.and(dp));
            }
        }
        out
    }

    /// The R-location set of an operand in a pointer context.
    pub fn operand_r_locations(&mut self, set: &PtSet, op: &Operand) -> Vec<(LocId, Def)> {
        let (base, d) = match op {
            Operand::Ref(r) => return self.r_locations(set, r),
            Operand::AddrOf(r) => return self.l_locations(set, r),
            Operand::Func(f) => (LocBase::Function(*f), Def::D),
            Operand::Str(_) => (LocBase::StrLit, Def::P),
            Operand::Const(Const::Int(0)) => (LocBase::Null, Def::D),
            Operand::Const(_) => return Vec::new(),
        };
        self.locs
            .root(self.ir, base)
            .map(|l| (l, d))
            .into_iter()
            .collect()
    }
}

fn push_unique(out: &mut Vec<(LocId, Def)>, l: LocId, d: Def) {
    for (el, ed) in out.iter_mut() {
        if *el == l {
            // Same location reached twice: keep D only if both are D.
            if *ed != d {
                *ed = Def::P;
            }
            return;
        }
    }
    out.push((l, d));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_simple::VarPath;

    struct Fixture {
        ir: IrProgram,
        locs: LocationTable,
        main: FuncId,
    }

    fn fixture(src: &str) -> Fixture {
        let ir = pta_simple::compile(src).expect("compile ok");
        let main = ir.entry.expect("main");
        Fixture {
            ir,
            locs: LocationTable::new(),
            main,
        }
    }

    fn var_id(ir: &IrProgram, f: FuncId, name: &str) -> pta_simple::IrVarId {
        let func = ir.function(f);
        let idx = func
            .vars
            .iter()
            .position(|v| v.name == name)
            .expect("var exists");
        pta_simple::IrVarId(idx as u32)
    }

    #[test]
    fn direct_reference_llocs() {
        let mut fx = fixture("int main(void){ int a; a = 1; return a; }");
        let a = var_id(&fx.ir, fx.main, "a");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let r = VarRef::Path(VarPath::var(a));
        let ls = env.l_locations(&PtSet::new(), &r);
        assert_eq!(ls.len(), 1);
        assert_eq!(ls[0].1, Def::D);
        assert_eq!(env.locs.name(ls[0].0), "a");
    }

    #[test]
    fn array_reference_llocs_follow_table1() {
        let mut fx = fixture("int a[10]; int main(void){ return 0; }");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let ga = pta_cfront::ast::GlobalId(0);
        // a[0] → {(a[0], D)}
        let head = VarRef::Path(VarPath::global(ga).project(IrProj::Index(IdxClass::Zero)));
        let ls = env.l_locations(&PtSet::new(), &head);
        assert_eq!(ls.len(), 1);
        assert_eq!((env.locs.name(ls[0].0), ls[0].1), ("a[0]", Def::D));
        // a[i>0] → {(a[1..], D)}
        let tail = VarRef::Path(VarPath::global(ga).project(IrProj::Index(IdxClass::Positive)));
        let ls = env.l_locations(&PtSet::new(), &tail);
        assert_eq!((env.locs.name(ls[0].0), ls[0].1), ("a[1..]", Def::D));
        // a[i?] → {(a[0], P), (a[1..], P)}
        let unk = VarRef::Path(VarPath::global(ga).project(IrProj::Index(IdxClass::Unknown)));
        let ls = env.l_locations(&PtSet::new(), &unk);
        assert_eq!(ls.len(), 2);
        assert!(ls.iter().all(|(_, d)| *d == Def::P));
    }

    #[test]
    fn deref_llocs_follow_points_to() {
        // *p with (p,x,D) → {(x, D)}; with possibles → P.
        let mut fx = fixture("int main(void){ int x; int y; int *p; p = &x; return 0; }");
        let x = var_id(&fx.ir, fx.main, "x");
        let y = var_id(&fx.ir, fx.main, "y");
        let p = var_id(&fx.ir, fx.main, "p");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let (lx, ly, lp) = (
            env.locs.var(&fx.ir, fx.main, x),
            env.locs.var(&fx.ir, fx.main, y),
            env.locs.var(&fx.ir, fx.main, p),
        );
        let deref = VarRef::Deref {
            path: VarPath::var(p),
            shift: IdxClass::Zero,
            after: vec![],
        };
        let mut s = PtSet::new();
        s.insert(lp, lx, Def::D);
        let ls = env.l_locations(&s, &deref);
        assert_eq!(ls, vec![(lx, Def::D)]);
        // Two possible targets.
        let mut s2 = PtSet::new();
        s2.insert(lp, lx, Def::P);
        s2.insert(lp, ly, Def::P);
        let ls2 = env.l_locations(&s2, &deref);
        assert_eq!(ls2.len(), 2);
        assert!(ls2.iter().all(|(_, d)| *d == Def::P));
    }

    #[test]
    fn deref_skips_null_targets() {
        let mut fx = fixture("int main(void){ int *p; p = 0; return 0; }");
        let p = var_id(&fx.ir, fx.main, "p");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let lp = env.locs.var(&fx.ir, fx.main, p);
        let null = env.locs.null();
        let mut s = PtSet::new();
        s.insert(lp, null, Def::D);
        let deref = VarRef::Deref {
            path: VarPath::var(p),
            shift: IdxClass::Zero,
            after: vec![],
        };
        assert!(env.l_locations(&s, &deref).is_empty());
    }

    #[test]
    fn rlocs_are_two_hops_with_d_conjunction() {
        // Table 1: R-locs of *a are definite only if both hops definite.
        let mut fx = fixture("int main(void){ int x; int *p; int **pp; return 0; }");
        let x = var_id(&fx.ir, fx.main, "x");
        let p = var_id(&fx.ir, fx.main, "p");
        let pp = var_id(&fx.ir, fx.main, "pp");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let (lx, lp, lpp) = (
            env.locs.var(&fx.ir, fx.main, x),
            env.locs.var(&fx.ir, fx.main, p),
            env.locs.var(&fx.ir, fx.main, pp),
        );
        let mut s = PtSet::new();
        s.insert(lpp, lp, Def::D);
        s.insert(lp, lx, Def::P);
        let deref = VarRef::Deref {
            path: VarPath::var(pp),
            shift: IdxClass::Zero,
            after: vec![],
        };
        let rs = env.r_locations(&s, &deref);
        assert_eq!(rs, vec![(lx, Def::P)]);
        // Make both hops definite → D.
        let mut s2 = PtSet::new();
        s2.insert(lpp, lp, Def::D);
        s2.insert(lp, lx, Def::D);
        let rs2 = env.r_locations(&s2, &deref);
        assert_eq!(rs2, vec![(lx, Def::D)]);
    }

    #[test]
    fn addr_of_operand_uses_llocs() {
        let mut fx = fixture("int main(void){ int a; return 0; }");
        let a = var_id(&fx.ir, fx.main, "a");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let la = env.locs.var(&fx.ir, fx.main, a);
        let op = Operand::AddrOf(VarRef::Path(VarPath::var(a)));
        let rs = env.operand_r_locations(&PtSet::new(), &op);
        assert_eq!(rs, vec![(la, Def::D)]);
    }

    #[test]
    fn null_and_function_operands() {
        let mut fx = fixture("int f(void){ return 1; } int main(void){ return f(); }");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let rs = env.operand_r_locations(&PtSet::new(), &Operand::int(0));
        assert_eq!(rs.len(), 1);
        assert!(env.locs.is_null(rs[0].0));
        assert_eq!(rs[0].1, Def::D);
        let (fid, _) = fx.ir.function_by_name("f").unwrap();
        let rs2 = env.operand_r_locations(&PtSet::new(), &Operand::Func(fid));
        assert!(env.locs.is_function(rs2[0].0));
        // Non-zero integer constants carry no address.
        assert!(env
            .operand_r_locations(&PtSet::new(), &Operand::int(7))
            .is_empty());
    }

    #[test]
    fn shift_semantics() {
        let mut fx = fixture("int a[10]; int main(void){ return 0; }");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let ga = env.locs.global(&fx.ir, pta_cfront::ast::GlobalId(0));
        let head = env.locs.project(ga, &Proj::Head, &fx.ir).unwrap();
        let tail = env.locs.project(ga, &Proj::Tail, &fx.ir).unwrap();
        assert_eq!(env.shift_loc(head, IdxClass::Zero), vec![(head, Def::D)]);
        assert_eq!(
            env.shift_loc(head, IdxClass::Positive),
            vec![(tail, Def::D)]
        );
        let unk = env.shift_loc(head, IdxClass::Unknown);
        assert_eq!(unk.len(), 2);
        // Shifting the tail stays in the tail.
        assert_eq!(
            env.shift_loc(tail, IdxClass::Positive),
            vec![(tail, Def::D)]
        );
        // Shifting null drops it.
        let null = env.locs.null();
        assert!(env.shift_loc(null, IdxClass::Positive).is_empty());
    }

    #[test]
    fn tailify_looks_the_parent_up_and_never_interns() {
        let mut fx = fixture("int *a[10]; int main(void){ return 0; }");
        let ir = &fx.ir;
        let ga = fx.locs.global(ir, pta_cfront::ast::GlobalId(0));
        let head = fx.locs.project(ga, &Proj::Head, ir).unwrap();
        let tail = fx.locs.project(ga, &Proj::Tail, ir).unwrap();
        // An `x[0]` row whose parent was never interned (only a damaged
        // table could hold one): shifting it stays put.
        let orphan = fx.locs.intern(
            LocBase::Global(pta_cfront::ast::GlobalId(7)),
            vec![Proj::Head],
            None,
            "b[0]".to_owned(),
        );
        let before = fx.locs.len();
        let mut env = RefEnv {
            ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        assert_eq!(
            env.shift_loc(head, IdxClass::Positive),
            vec![(tail, Def::D)]
        );
        assert_eq!(
            env.shift_loc(orphan, IdxClass::Positive),
            vec![(orphan, Def::D)]
        );
        assert_eq!(env.locs.len(), before, "no untyped parent row appears");
        // The parent found keeps its type, so projections through it work.
        assert!(env.locs.ty(ga).is_some());
    }

    #[test]
    fn deref_field_after_projection() {
        let mut fx = fixture(
            "struct s { int *q; int v; };
             int main(void){ struct s t; struct s *p; p = &t; return 0; }",
        );
        let t = var_id(&fx.ir, fx.main, "t");
        let p = var_id(&fx.ir, fx.main, "p");
        let mut env = RefEnv {
            ir: &fx.ir,
            func: fx.main,
            locs: &mut fx.locs,
        };
        let (lt, lp) = (
            env.locs.var(&fx.ir, fx.main, t),
            env.locs.var(&fx.ir, fx.main, p),
        );
        let mut s = PtSet::new();
        s.insert(lp, lt, Def::D);
        let r = VarRef::Deref {
            path: VarPath::var(p),
            shift: IdxClass::Zero,
            after: vec![IrProj::Field("q".into())],
        };
        let ls = env.l_locations(&s, &r);
        assert_eq!(ls.len(), 1);
        assert_eq!(env.locs.name(ls[0].0), "t.q");
        assert_eq!(ls[0].1, Def::D);
    }
}
