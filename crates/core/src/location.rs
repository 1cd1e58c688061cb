//! Abstract stack locations (§3.1 of the paper).
//!
//! Every real storage location that can participate in a points-to
//! relationship is represented by exactly one *named abstract stack
//! location* (Property 3.1): a named variable, a field path inside it,
//! an array head/tail element, a *symbolic name* (`1_x`, `2_x`, …) for an
//! invisible variable, the single `heap` location, the `null`
//! pseudo-location, string-literal storage, or a function (the target of
//! a function pointer).
//!
//! [`LocationTable`] is the per-program interner behind the analysis:
//! every location shape maps to a dense [`LocId`] exactly once, via an
//! FxHash-bucketed index (no structural tree comparisons on the hot
//! path), and each id carries a classification bitmask so predicates
//! like [`LocationTable::is_summary`] are a single flag test instead of
//! a match over the interned data.
//!
//! Every constructor looks a location up before it builds its type or
//! name, and [`LocationTable::project`] answers repeated projections
//! from a per-table cache, so re-reaching a known location allocates
//! nothing. The caches only skip work whose outcome would have been a
//! hit: the order in which locations are interned, and so every
//! [`LocId`], is the same as without them.

use crate::dense::{FxHashMap, FxHasher};
use pta_cfront::ast::{FuncId, GlobalId};
use pta_cfront::types::Type;
use pta_simple::{IrProgram, IrVarId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// An interned abstract stack location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// One projection step inside a storage object.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proj {
    /// A struct/union field.
    Field(String),
    /// The first element of an array (`a[0]` — `a_head` in the paper).
    Head,
    /// All other elements (`a[1..]` — `a_tail`; a *summary* location).
    Tail,
}

/// The root of an abstract location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocBase {
    /// A global variable.
    Global(GlobalId),
    /// A parameter, local, or temporary of a function.
    Var(FuncId, IrVarId),
    /// A symbolic name for invisible variables, owned by a function.
    /// The `u32` indexes the function's symbolic-name registry.
    Symbolic(FuncId, u32),
    /// The single abstract heap location.
    Heap,
    /// An allocation-site-specific heap location (extension: enabled by
    /// `AnalysisConfig::heap_sites`; the paper uses the single `heap`).
    HeapSite(u32),
    /// The NULL pseudo-location (every pointer is initialized to it).
    Null,
    /// Storage of all string literals.
    StrLit,
    /// The code location of a function (target of function pointers).
    Function(FuncId),
    /// The return-value slot of a function (analysis-internal).
    Ret(FuncId),
}

/// The interned data of one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocData {
    /// Root storage.
    pub base: LocBase,
    /// Projections from the root.
    pub projs: Vec<Proj>,
    /// The C type of this location (`None` for `heap`, `null`,
    /// string-literal storage, and functions, which are untyped
    /// summaries).
    pub ty: Option<Type>,
    /// Human-readable name (stable, used in reports and tests).
    pub name: String,
}

/// Metadata of a symbolic name (created by the map process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicData {
    /// The function whose scope the name lives in.
    pub func: FuncId,
    /// Indirection depth (the `1` of `1_x`).
    pub depth: u32,
    /// Printable name (`1_x`).
    pub name: String,
    /// The type of the invisible variables it stands for.
    pub ty: Option<Type>,
}

// Per-location classification flags, computed once at intern time.
const F_SUMMARY: u8 = 1 << 0;
const F_NULL: u8 = 1 << 1;
const F_FUNCTION: u8 = 1 << 2;
const F_HEAP: u8 = 1 << 3;
const F_SYMBOLIC: u8 = 1 << 4;

fn classify(base: &LocBase, projs: &[Proj]) -> u8 {
    let mut f = 0;
    match base {
        LocBase::Heap | LocBase::HeapSite(_) => f |= F_HEAP | F_SUMMARY,
        LocBase::StrLit => f |= F_SUMMARY,
        LocBase::Null => f |= F_NULL,
        LocBase::Function(_) => f |= F_FUNCTION,
        LocBase::Symbolic(..) => f |= F_SYMBOLIC,
        _ => {}
    }
    if projs.iter().any(|p| matches!(p, Proj::Tail)) {
        f |= F_SUMMARY;
    }
    f
}

fn key_hash(base: &LocBase, projs: &[Proj]) -> u64 {
    let mut h = FxHasher::default();
    base.hash(&mut h);
    projs.hash(&mut h);
    h.finish()
}

fn sym_hash(func: FuncId, name: &str) -> u64 {
    let mut h = FxHasher::default();
    func.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Interning table for abstract locations.
///
/// Locations are created deterministically in analysis order, so ids are
/// stable for a given program and configuration. The index maps the
/// FxHash of `(base, projs)` to candidate ids (hand-rolled hash
/// buckets), so lookups never clone the key and hits cost one hash plus
/// a candidate comparison.
#[derive(Debug, Clone, Default)]
pub struct LocationTable {
    data: Vec<LocData>,
    flags: Vec<u8>,
    index: FxHashMap<u64, Vec<LocId>>,
    symbolics: Vec<SymbolicData>,
    sym_index: FxHashMap<u64, Vec<u32>>,
    /// Allocation-site heap locations, in intern order.
    heap_sites: Vec<LocId>,
    /// `(parent, projection slot)` → child for every projection that
    /// has succeeded; slot 0 is the head, 1 the tail, 2 + i the i-th
    /// struct field. Derived state: never persisted, and cleared when
    /// row types change.
    proj_cache: FxHashMap<u64, LocId>,
}

/// One projection step with a borrowed field name.
#[derive(Clone, Copy)]
pub(crate) enum Step<'a> {
    Field(&'a str),
    Head,
    Tail,
}

impl<'a> From<&'a Proj> for Step<'a> {
    fn from(p: &'a Proj) -> Self {
        match p {
            Proj::Field(f) => Step::Field(f),
            Proj::Head => Step::Head,
            Proj::Tail => Step::Tail,
        }
    }
}

impl Step<'_> {
    fn to_proj(self) -> Proj {
        match self {
            Step::Field(f) => Proj::Field(f.to_owned()),
            Step::Head => Proj::Head,
            Step::Tail => Proj::Tail,
        }
    }

    /// The name of the child of a location named `parent`.
    fn child_name(self, parent: &str) -> String {
        match self {
            Step::Field(f) => format!("{parent}.{f}"),
            Step::Head => format!("{parent}[0]"),
            Step::Tail => format!("{parent}[1..]"),
        }
    }

    /// The projection slot of this step below a location of type `ty`
    /// (0 head, 1 tail, 2 + i the i-th struct field) and the child's
    /// type; `None` if the step does not type-check.
    fn child_type<'t>(self, ty: &'t Type, ir: &'t IrProgram) -> Option<(u64, &'t Type)> {
        match self {
            Step::Head | Step::Tail => Some((matches!(self, Step::Tail) as u64, ty.elem()?)),
            Step::Field(f) => {
                let Type::Struct(sid) = ty else {
                    return None;
                };
                let fields = &ir.structs.def(*sid).fields;
                let i = fields.iter().position(|x| x.name == f)?;
                Some((i as u64 + 2, &fields[i].ty))
            }
        }
    }
}

/// The type and name of the location `projs` below one of type `ty`
/// named `name`; `None` where a step does not type-check.
fn descend<'t>(
    mut ty: &'t Type,
    name: &str,
    projs: &[Proj],
    ir: &'t IrProgram,
) -> Option<(&'t Type, String)> {
    let mut name = name.to_owned();
    for p in projs {
        let step = Step::from(p);
        ty = step.child_type(ty, ir)?.1;
        name = step.child_name(&name);
    }
    Some((ty, name))
}

/// What a projection resolves to without interning anything.
enum Probe<'t> {
    /// The child location (cached, or the summary itself).
    Hit(LocId),
    /// The projection does not type-check (or the base is null/code).
    Fails,
    /// A valid projection not yet cached: its cache key and the
    /// child's type.
    Miss { key: u64, ty: &'t Type },
}

impl LocationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned locations.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no location has been interned.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The data behind an id.
    pub fn get(&self, id: LocId) -> &LocData {
        &self.data[id.0 as usize]
    }

    /// The display name of a location.
    pub fn name(&self, id: LocId) -> &str {
        &self.data[id.0 as usize].name
    }

    /// Finds an already-interned location.
    pub fn lookup(&self, base: &LocBase, projs: &[Proj]) -> Option<LocId> {
        let candidates = self.index.get(&key_hash(base, projs))?;
        candidates.iter().copied().find(|&id| {
            let d = &self.data[id.0 as usize];
            d.base == *base && d.projs == projs
        })
    }

    /// Interns a location.
    pub fn intern(
        &mut self,
        base: LocBase,
        projs: Vec<Proj>,
        ty: Option<Type>,
        name: String,
    ) -> LocId {
        match self.lookup(&base, &projs) {
            Some(id) => id,
            None => self.push(base, projs, ty, name),
        }
    }

    /// Appends a row known to be absent.
    fn push(&mut self, base: LocBase, projs: Vec<Proj>, ty: Option<Type>, name: String) -> LocId {
        let id = LocId(self.data.len() as u32);
        self.index
            .entry(key_hash(&base, &projs))
            .or_default()
            .push(id);
        self.flags.push(classify(&base, &projs));
        if matches!(base, LocBase::HeapSite(_)) {
            self.heap_sites.push(id);
        }
        self.data.push(LocData {
            base,
            projs,
            ty,
            name,
        });
        id
    }

    /// Interns a root location, building its type and name only when it
    /// is new.
    fn root(&mut self, base: LocBase, make: impl FnOnce() -> (Option<Type>, String)) -> LocId {
        if let Some(id) = self.lookup(&base, &[]) {
            return id;
        }
        let (ty, name) = make();
        self.push(base, Vec::new(), ty, name)
    }

    /// The `heap` location.
    pub fn heap(&mut self) -> LocId {
        self.root(LocBase::Heap, || (None, "heap".to_owned()))
    }

    /// An allocation-site heap location (extension).
    pub fn heap_site(&mut self, site: u32) -> LocId {
        self.root(LocBase::HeapSite(site), || (None, format!("heap@s{site}")))
    }

    /// Every allocation-site heap location, in intern (= id) order.
    pub(crate) fn heap_sites(&self) -> &[LocId] {
        &self.heap_sites
    }

    /// The `null` pseudo-location.
    pub fn null(&mut self) -> LocId {
        self.root(LocBase::Null, || (None, "null".to_owned()))
    }

    /// The string-literal storage location.
    pub fn strlit(&mut self) -> LocId {
        self.root(LocBase::StrLit, || (None, "strlit".to_owned()))
    }

    /// The code location of function `f`.
    pub fn function(&mut self, ir: &IrProgram, f: FuncId) -> LocId {
        self.root(LocBase::Function(f), || (None, ir.function(f).name.clone()))
    }

    /// The return-value slot of function `f`.
    pub fn ret(&mut self, ir: &IrProgram, f: FuncId) -> LocId {
        self.root(LocBase::Ret(f), || {
            let func = ir.function(f);
            (Some(func.ret.clone()), format!("ret@{}", func.name))
        })
    }

    /// The location of a variable root.
    pub fn var(&mut self, ir: &IrProgram, func: FuncId, v: IrVarId) -> LocId {
        self.root(LocBase::Var(func, v), || {
            let data = ir.function(func).var(v);
            (Some(data.ty.clone()), data.name.clone())
        })
    }

    /// The location of a global root.
    pub fn global(&mut self, ir: &IrProgram, g: GlobalId) -> LocId {
        self.root(LocBase::Global(g), || {
            let data = ir.global(g);
            (Some(data.ty.clone()), data.name.clone())
        })
    }

    /// Projects a location by one step, computing the resulting type and
    /// name. Projections on `heap`/`strlit` collapse back to the summary
    /// location itself; projections on `null` or functions return `None`.
    /// A projection that succeeded before is answered from the
    /// projection cache without allocating.
    pub fn project(&mut self, id: LocId, proj: &Proj, ir: &IrProgram) -> Option<LocId> {
        self.project_step(id, proj.into(), ir)
    }

    /// [`LocationTable::project`] by a struct field given by name.
    pub(crate) fn project_field(
        &mut self,
        id: LocId,
        field: &str,
        ir: &IrProgram,
    ) -> Option<LocId> {
        self.project_step(id, Step::Field(field), ir)
    }

    /// Applies the projections of `path_of` from index `from` on, one
    /// [`LocationTable::project`] at a time, starting at `cur`. On a step
    /// that fails, `Err` carries the last location reached.
    pub(crate) fn project_path(
        &mut self,
        mut cur: LocId,
        path_of: LocId,
        from: usize,
        ir: &IrProgram,
    ) -> Result<LocId, LocId> {
        for i in from..self.data[path_of.0 as usize].projs.len() {
            let step = Step::from(&self.data[path_of.0 as usize].projs[i]);
            cur = match self.probe(cur, step, ir) {
                Probe::Hit(n) => n,
                Probe::Fails => return Err(cur),
                Probe::Miss { key, ty } => {
                    let ty = ty.clone();
                    let p = self.data[path_of.0 as usize].projs[i].clone();
                    self.project_new(cur, (&p).into(), key, ty)
                }
            };
        }
        Ok(cur)
    }

    fn project_step(&mut self, id: LocId, step: Step<'_>, ir: &IrProgram) -> Option<LocId> {
        match self.probe(id, step, ir) {
            Probe::Hit(n) => Some(n),
            Probe::Fails => None,
            Probe::Miss { key, ty } => {
                let ty = ty.clone();
                Some(self.project_new(id, step, key, ty))
            }
        }
    }

    /// What [`LocationTable::project`] would return, without interning:
    /// `None` where it fails or where its child was never interned.
    pub(crate) fn find_step(&self, id: LocId, step: Step<'_>, ir: &IrProgram) -> Option<LocId> {
        match self.probe(id, step, ir) {
            Probe::Hit(n) => Some(n),
            Probe::Fails => None,
            // A table rebuilt from a snapshot starts with an empty cache.
            Probe::Miss { .. } => self.lookup_child(id, step),
        }
    }

    fn lookup_child(&self, id: LocId, step: Step<'_>) -> Option<LocId> {
        let d = &self.data[id.0 as usize];
        let mut projs = d.projs.clone();
        projs.push(step.to_proj());
        self.lookup(&d.base, &projs)
    }

    /// The name [`LocationTable::project`] would give the location
    /// `projs` below `id`, without interning it or any row on the way:
    /// `None` where a step fails.
    pub fn projected_name(&self, id: LocId, projs: &[Proj], ir: &IrProgram) -> Option<String> {
        let mut cur = id;
        for (i, p) in projs.iter().enumerate() {
            match self.find_step(cur, p.into(), ir) {
                Some(n) => cur = n,
                None => {
                    // Off the table (or ill-typed): follow the types.
                    let d = self.get(cur);
                    return descend(d.ty.as_ref()?, &d.name, &projs[i..], ir).map(|(_, name)| name);
                }
            }
        }
        Some(self.name(cur).to_owned())
    }

    /// Resolves a projection as far as possible without interning.
    fn probe<'t>(&'t self, id: LocId, step: Step<'_>, ir: &'t IrProgram) -> Probe<'t> {
        let d = &self.data[id.0 as usize];
        match d.base {
            LocBase::Heap | LocBase::HeapSite(_) | LocBase::StrLit => return Probe::Hit(id),
            LocBase::Null | LocBase::Function(_) => return Probe::Fails,
            _ => {}
        }
        let Some((slot, ty)) = d.ty.as_ref().and_then(|ty| step.child_type(ty, ir)) else {
            return Probe::Fails;
        };
        let key = ((id.0 as u64) << 32) | slot;
        match self.proj_cache.get(&key) {
            Some(&child) => Probe::Hit(child),
            None => Probe::Miss { key, ty },
        }
    }

    /// Interns (or finds) the child of a projection that [`Self::probe`]
    /// validated but found uncached, and caches it under `key`.
    fn project_new(&mut self, id: LocId, step: Step<'_>, key: u64, ty: Type) -> LocId {
        let d = &self.data[id.0 as usize];
        let name = step.child_name(&d.name);
        let mut projs = d.projs.clone();
        projs.push(step.to_proj());
        let base = d.base.clone();
        let child = self.intern(base, projs, Some(ty), name);
        self.proj_cache.insert(key, child);
        child
    }

    /// Creates (or returns) a symbolic name owned by `func`.
    pub fn symbolic(&mut self, func: FuncId, name: &str, depth: u32, ty: Option<Type>) -> LocId {
        let h = sym_hash(func, name);
        let found = self.sym_index.get(&h).and_then(|candidates| {
            candidates.iter().copied().find(|&i| {
                let s = &self.symbolics[i as usize];
                s.func == func && s.name == name
            })
        });
        let sym_idx = match found {
            Some(i) => i,
            None => {
                let i = self.symbolics.len() as u32;
                self.symbolics.push(SymbolicData {
                    func,
                    depth,
                    name: name.to_owned(),
                    ty: ty.clone(),
                });
                self.sym_index.entry(h).or_default().push(i);
                i
            }
        };
        self.root(LocBase::Symbolic(func, sym_idx), || (ty, name.to_owned()))
    }

    /// Metadata of a symbolic location's base (if it is one).
    pub fn symbolic_data(&self, id: LocId) -> Option<&SymbolicData> {
        match self.get(id).base {
            LocBase::Symbolic(_, i) => Some(&self.symbolics[i as usize]),
            _ => None,
        }
    }

    /// The type of a location, if known.
    pub fn ty(&self, id: LocId) -> Option<&Type> {
        self.get(id).ty.as_ref()
    }

    #[inline]
    fn flag(&self, id: LocId, f: u8) -> bool {
        self.flags[id.0 as usize] & f != 0
    }

    /// True if this abstract location may stand for more than one real
    /// location, so that strong updates (kills) through it are unsound:
    /// the `heap`, string-literal storage, and any array-tail element.
    pub fn is_summary(&self, id: LocId) -> bool {
        self.flag(id, F_SUMMARY)
    }

    /// True if the location is the `null` pseudo-location.
    pub fn is_null(&self, id: LocId) -> bool {
        self.flag(id, F_NULL)
    }

    /// True for function code locations.
    pub fn is_function(&self, id: LocId) -> bool {
        self.flag(id, F_FUNCTION)
    }

    /// The function id if this is a function code location.
    pub fn as_function(&self, id: LocId) -> Option<FuncId> {
        match self.get(id).base {
            LocBase::Function(f) => Some(f),
            _ => None,
        }
    }

    /// True for heap locations (the summary `heap` or any
    /// allocation-site location).
    pub fn is_heap(&self, id: LocId) -> bool {
        self.flag(id, F_HEAP)
    }

    /// True if the location lives in the scope of `func` (its variables
    /// and symbolic names) — i.e. it disappears when `func` returns.
    pub fn is_scoped_to(&self, id: LocId, func: FuncId) -> bool {
        match self.get(id).base {
            LocBase::Var(f, _) | LocBase::Symbolic(f, _) | LocBase::Ret(f) => f == func,
            _ => false,
        }
    }

    /// True for symbolic locations (at any projection depth).
    pub fn is_symbolic(&self, id: LocId) -> bool {
        self.flag(id, F_SYMBOLIC)
    }

    /// Iterates over all interned ids.
    pub fn ids(&self) -> impl Iterator<Item = LocId> {
        (0..self.data.len() as u32).map(LocId)
    }

    /// The symbolic-name registry in creation order (persisted by the
    /// store so [`LocBase::Symbolic`] indices survive a reload).
    pub fn symbolic_entries(&self) -> &[SymbolicData] {
        &self.symbolics
    }

    /// Re-registers a symbolic name during a snapshot reload, *without*
    /// interning a location for it (the location rows are replayed
    /// separately, in id order). Must be called in the registry's
    /// original creation order. Returns the registry index.
    pub fn restore_symbolic(
        &mut self,
        func: FuncId,
        name: &str,
        depth: u32,
        ty: Option<Type>,
    ) -> u32 {
        let h = sym_hash(func, name);
        let i = self.symbolics.len() as u32;
        self.symbolics.push(SymbolicData {
            func,
            depth,
            name: name.to_owned(),
            ty,
        });
        self.sym_index.entry(h).or_default().push(i);
        i
    }

    /// Recomputes the types and names of variable-rooted rows belonging
    /// to `funcs` against a (possibly edited) program.
    ///
    /// A preloaded table keys rows by `(base, projs)` only, so rows of a
    /// *dirty* function would otherwise keep the types and names of the
    /// old source — and location types steer the analysis (pointer-leaf
    /// enumeration). Rows whose variable no longer exists, or whose
    /// projection path no longer type-checks, keep their old data: the
    /// new code can never look such a row up, because resolving the same
    /// path against the new program fails first.
    ///
    /// Rows rooted elsewhere need no refresh: globals and struct layouts
    /// are skeleton-fixed, `Ret` types are signature-fixed, and symbolic
    /// types derive from signatures and globals.
    pub fn refresh_for(&mut self, ir: &IrProgram, funcs: &std::collections::BTreeSet<FuncId>) {
        // Cached projections were validated against the old types.
        self.proj_cache.clear();
        for i in 0..self.data.len() {
            let LocBase::Var(f, v) = self.data[i].base else {
                continue;
            };
            if !funcs.contains(&f) {
                continue;
            }
            let Some(var) = ir.function(f).vars.get(v.0 as usize) else {
                continue;
            };
            if let Some((ty, name)) = descend(&var.ty, &var.name, &self.data[i].projs, ir) {
                self.data[i].ty = Some(ty.clone());
                self.data[i].name = name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ir() -> IrProgram {
        pta_simple::compile(
            "struct s { int *p; int a[4]; };
             struct s gs;
             int arr[8];
             int f1(void) { return 1; }
             int main(void) { int x; int *q; q = &x; return f1(); }",
        )
        .expect("compile ok")
    }

    #[test]
    fn intern_is_idempotent() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let a = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let b = t.global(&ir, pta_cfront::ast::GlobalId(0));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn project_fields_and_arrays() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let gs = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let p = t.project(gs, &Proj::Field("p".into()), &ir).unwrap();
        assert_eq!(t.name(p), "gs.p");
        assert_eq!(t.ty(p), Some(&pta_cfront::types::Type::Int.ptr_to()));
        let a = t.project(gs, &Proj::Field("a".into()), &ir).unwrap();
        let head = t.project(a, &Proj::Head, &ir).unwrap();
        let tail = t.project(a, &Proj::Tail, &ir).unwrap();
        assert_eq!(t.name(head), "gs.a[0]");
        assert_eq!(t.name(tail), "gs.a[1..]");
        assert!(!t.is_summary(head));
        assert!(t.is_summary(tail));
    }

    #[test]
    fn bad_projections_return_none() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let gs = t.global(&ir, pta_cfront::ast::GlobalId(0));
        assert!(t.project(gs, &Proj::Field("zzz".into()), &ir).is_none());
        assert!(t.project(gs, &Proj::Head, &ir).is_none());
        let null = t.null();
        assert!(t.project(null, &Proj::Head, &ir).is_none());
    }

    #[test]
    fn heap_projections_collapse() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let h = t.heap();
        assert_eq!(t.project(h, &Proj::Field("p".into()), &ir), Some(h));
        assert_eq!(t.project(h, &Proj::Tail, &ir), Some(h));
        assert!(t.is_summary(h));
    }

    #[test]
    fn symbolic_names_are_per_function() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let (main_id, _) = ir.function_by_name("main").unwrap();
        let (f1_id, _) = ir.function_by_name("f1").unwrap();
        let s1 = t.symbolic(main_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        let s2 = t.symbolic(main_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        let s3 = t.symbolic(f1_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(t.symbolic_data(s1).unwrap().depth, 1);
        assert!(t.is_symbolic(s1));
    }

    /// The projection algorithm without caches: clone the parent's row,
    /// derive the child's type and name, intern.
    fn reference_project(
        t: &mut LocationTable,
        id: LocId,
        proj: Proj,
        ir: &IrProgram,
    ) -> Option<LocId> {
        let d = t.get(id).clone();
        match d.base {
            LocBase::Heap | LocBase::HeapSite(_) | LocBase::StrLit => return Some(id),
            LocBase::Null | LocBase::Function(_) => return None,
            _ => {}
        }
        let ty = d.ty.as_ref()?;
        let (new_ty, suffix) = match &proj {
            Proj::Field(f) => {
                let Type::Struct(sid) = ty else { return None };
                (ir.structs.def(*sid).field(f)?.ty.clone(), format!(".{f}"))
            }
            Proj::Head => (ty.elem()?.clone(), "[0]".to_owned()),
            Proj::Tail => (ty.elem()?.clone(), "[1..]".to_owned()),
        };
        let mut projs = d.projs;
        projs.push(proj);
        let name = format!("{}{suffix}", d.name);
        Some(t.intern(d.base, projs, Some(new_ty), name))
    }

    #[test]
    fn cached_projection_returns_the_uncached_id() {
        let ir = tiny_ir();
        let field = Proj::Field("p".into());
        let mut t = LocationTable::new();
        let gs = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let first = t.project(gs, &field, &ir);
        assert_eq!(t.project(gs, &field, &ir), first, "cache hit");
        assert_eq!(t.project_field(gs, "p", &ir), first);
        // The uncached algorithm on a fresh table lands on the same id,
        // and a row interned without the cache is found, not duplicated.
        let mut u = LocationTable::new();
        let gs2 = u.global(&ir, pta_cfront::ast::GlobalId(0));
        let direct = reference_project(&mut u, gs2, field.clone(), &ir);
        assert_eq!(direct, first);
        let len = u.len();
        assert_eq!(u.project(gs2, &field, &ir), direct);
        assert_eq!(u.len(), len);
    }

    #[test]
    fn refresh_for_invalidates_cached_projections() {
        // Field `p` of `struct a` and field `q` of `struct b` share
        // projection slot 0 of their structs.
        let header = "struct a { int *p; }; struct b { int *q; int *r; };";
        let old = pta_simple::compile(&format!(
            "{header} int main(void) {{ struct a v; v.p = 0; return 0; }}"
        ))
        .expect("compile ok");
        let new = pta_simple::compile(&format!(
            "{header} int main(void) {{ struct b v; v.q = 0; return 0; }}"
        ))
        .expect("compile ok");
        let (main, f) = old.function_by_name("main").unwrap();
        let v = IrVarId(f.vars.iter().position(|x| x.name == "v").unwrap() as u32);
        let mut t = LocationTable::new();
        let lv = t.var(&old, main, v);
        let vp = t
            .project_field(lv, "p", &old)
            .expect("v.p under the old type");
        assert_eq!(t.project_field(lv, "q", &old), None);
        t.refresh_for(&new, &[main].into_iter().collect());
        let vq = t
            .project_field(lv, "q", &new)
            .expect("v.q under the new type");
        assert_ne!(vq, vp, "the stale `v.p` child is not served for `q`");
        assert_eq!(t.name(vq), "v.q");
        assert_eq!(t.project_field(lv, "p", &new), None);
    }

    #[test]
    fn prop_caches_leave_interning_order_unchanged() {
        // Drive a cached table and an uncached reference through the
        // same random walk of roots and projections: every step returns
        // the same id, and the rows come out in the same order.
        let ir = pta_simple::compile(
            "struct in { int *ip; int ia[4]; };
             struct out { struct in i; int *op; struct in arr[3]; };
             struct out go; int *garr[8];
             int main(void) { struct out lo; int *lp; lp = 0; return 0; }",
        )
        .expect("compile ok");
        let (main, f) = ir.function_by_name("main").unwrap();
        let n_vars = f.vars.len() as u32;
        let fields = ["i", "ip", "ia", "op", "arr", "zz"];
        pta_prop::check("cached interning ≡ uncached", 128, |g| {
            let mut cached = LocationTable::new();
            let mut plain = LocationTable::new();
            let mut known = Vec::new();
            for _ in 0..g.usize(1..80) {
                let step = g.usize(0..6);
                let (a, b) = match step {
                    0 => {
                        let gid = pta_cfront::ast::GlobalId(g.u32(0..2));
                        (
                            cached.global(&ir, gid),
                            Some(plain_root(&mut plain, &ir, Root::Global(gid))),
                        )
                    }
                    1 => {
                        let v = IrVarId(g.u32(0..n_vars));
                        (
                            cached.var(&ir, main, v),
                            Some(plain_root(&mut plain, &ir, Root::Var(main, v))),
                        )
                    }
                    2 => {
                        let site = g.u32(0..3);
                        (
                            cached.heap_site(site),
                            Some(plain_root(&mut plain, &ir, Root::Site(site))),
                        )
                    }
                    _ if known.is_empty() => continue,
                    _ => {
                        let &from = g.pick(&known);
                        let proj = match g.usize(0..3) {
                            0 => Proj::Field((*g.pick(&fields)).to_owned()),
                            1 => Proj::Head,
                            _ => Proj::Tail,
                        };
                        let a = cached.project(from, &proj, &ir);
                        let b = reference_project(&mut plain, from, proj, &ir);
                        match (a, b) {
                            (Some(a), b) => (a, b),
                            (None, None) => continue,
                            (None, b) => panic!("cached projection failed, reference gave {b:?}"),
                        }
                    }
                };
                assert_eq!(Some(a), b);
                known.push(a);
            }
            assert_eq!(cached.len(), plain.len());
            for id in cached.ids() {
                assert_eq!(cached.get(id), plain.get(id), "row {id}");
            }
            let sites: Vec<LocId> = plain
                .ids()
                .filter(|&l| matches!(plain.get(l).base, LocBase::HeapSite(_)))
                .collect();
            assert_eq!(cached.heap_sites(), &sites[..]);
        });
    }

    enum Root {
        Global(GlobalId),
        Var(FuncId, IrVarId),
        Site(u32),
    }

    /// Interns a root the way the constructors did before they looked
    /// up first: build the type and name, then intern.
    fn plain_root(t: &mut LocationTable, ir: &IrProgram, root: Root) -> LocId {
        match root {
            Root::Global(g) => {
                let d = ir.global(g);
                t.intern(
                    LocBase::Global(g),
                    vec![],
                    Some(d.ty.clone()),
                    d.name.clone(),
                )
            }
            Root::Var(f, v) => {
                let d = ir.function(f).var(v);
                t.intern(
                    LocBase::Var(f, v),
                    vec![],
                    Some(d.ty.clone()),
                    d.name.clone(),
                )
            }
            Root::Site(s) => t.intern(LocBase::HeapSite(s), vec![], None, format!("heap@s{s}")),
        }
    }

    #[test]
    fn scoping_and_classification() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let (main_id, _) = ir.function_by_name("main").unwrap();
        let (f1_id, _) = ir.function_by_name("f1").unwrap();
        let x = t.var(&ir, main_id, pta_simple::IrVarId(0));
        assert!(t.is_scoped_to(x, main_id));
        assert!(!t.is_scoped_to(x, f1_id));
        let fl = t.function(&ir, f1_id);
        assert!(t.is_function(fl));
        assert_eq!(t.as_function(fl), Some(f1_id));
        let n = t.null();
        assert!(t.is_null(n));
        assert!(!t.is_summary(n));
    }
}
