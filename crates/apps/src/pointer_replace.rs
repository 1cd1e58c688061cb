//! The pointer-replacement transformation (§1, §6.1 of the paper).
//!
//! When the dereferenced pointer of an indirect reference *definitely*
//! points to a single, directly nameable location, the indirect
//! reference can be replaced by a direct one (`x = *q` → `x = y`),
//! reducing loads/stores downstream. Replacement is impossible when the
//! target is an invisible variable (symbolic name), the heap, or a
//! summary location.

use pta_core::stats::{collect_indirect_refs, IndirectRef};
use pta_core::{AnalysisResult, Def, FactQuery, LocId, Proj};
use pta_simple::{IdxClass, IrProgram, IrProj, StmtId, VarRef};

/// One applicable replacement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replacement {
    /// The containing function's name.
    pub function: String,
    /// The program point.
    pub stmt: StmtId,
    /// The indirect reference (rendered).
    pub indirect: String,
    /// The direct location name that can replace it.
    pub direct: String,
}

impl std::fmt::Display for Replacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}@{}: {} -> {}",
            self.function, self.stmt, self.indirect, self.direct
        )
    }
}

/// Finds every indirect reference replaceable by a direct reference
/// under the definite points-to information.
pub fn replaceable_refs(ir: &IrProgram, result: &AnalysisResult) -> Vec<Replacement> {
    let q = FactQuery::new(ir, result);
    collect_indirect_refs(ir)
        .iter()
        .filter_map(|occ| replacement_for(&q, occ))
        .collect()
}

fn replacement_for(q: &FactQuery<'_>, occ: &IndirectRef) -> Option<Replacement> {
    let VarRef::Deref { path, shift, after } = &occ.r else {
        return None;
    };
    // Only plain `*p` / `(*p).f` shapes replace cleanly.
    if *shift != IdxClass::Zero {
        return None;
    }
    let locs = &q.result.locs;
    let set = q.at(occ.stmt);
    let ptr_locs = q.path_locs(occ.func, path);
    // The pointer itself must be a single definite location.
    let [(ptr, Def::D)] = ptr_locs[..] else {
        return None;
    };
    let targets: Vec<(LocId, Def)> = set
        .targets(ptr)
        .filter(|(t, _)| !locs.is_null(*t))
        .collect();
    let [(t, Def::D)] = targets[..] else {
        return None;
    };
    if locs.is_symbolic(t) || locs.is_heap(t) || locs.is_summary(t) {
        return None;
    }
    // Name the post-deref projections without interning: the engine
    // makes no `t.f` row for a non-pointer field read through `(*p).f`.
    let projs = after
        .iter()
        .map(|p| match p {
            IrProj::Field(f) => Some(Proj::Field(f.clone())),
            IrProj::Index(IdxClass::Zero) => Some(Proj::Head),
            IrProj::Index(_) => None,
        })
        .collect::<Option<Vec<_>>>()?;
    let direct = locs.projected_name(t, &projs, q.ir)?;
    let f = q.ir.function(occ.func);
    Some(Replacement {
        function: f.name.clone(),
        stmt: occ.stmt,
        indirect: pta_simple::printer::ref_str(q.ir, f, &occ.r),
        direct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Replacement> {
        let t = pta_core::run_source(src).expect("analysis ok");
        replaceable_refs(&t.ir, &t.result)
    }

    #[test]
    fn definite_single_target_is_replaceable() {
        let reps = run("int x; int main(void){ int *p; int v; p = &x; v = *p; return v; }");
        assert!(
            reps.iter().any(|r| r.indirect == "*p" && r.direct == "x"),
            "{reps:?}"
        );
    }

    #[test]
    fn possible_target_is_not_replaceable() {
        let reps = run("int x, y, c;
             int main(void){ int *p; int v; if (c) p = &x; else p = &y; v = *p; return v; }");
        assert!(reps.is_empty(), "{reps:?}");
    }

    #[test]
    fn heap_target_is_not_replaceable() {
        let reps = run("int main(void){ int *p; int v; p = (int*) malloc(4); v = *p; return v; }");
        assert!(reps.is_empty(), "{reps:?}");
    }

    #[test]
    fn invisible_target_is_not_replaceable() {
        // Inside f, p definitely points to the invisible variable 1_p —
        // the paper's footnote: replacement cannot be done for
        // invisibles.
        let reps = run("int f(int *p){ return *p; }
             int main(void){ int x; return f(&x); }");
        assert!(
            !reps.iter().any(|r| r.function == "f"),
            "invisible replaced: {reps:?}"
        );
    }

    #[test]
    fn field_replacement_through_definite_pointer() {
        let reps = run("struct s { int v; int w; };
             int main(void){ struct s t; struct s *p; int a; p = &t; a = p->v; return a; }");
        assert!(
            reps.iter().any(|r| r.direct == "t.v"),
            "expected t.v replacement: {reps:?}"
        );
    }
}
