//! The pointer-replacement transformation (§1, §6.1 of the paper).
//!
//! When the dereferenced pointer of an indirect reference *definitely*
//! points to a single, directly nameable location, the indirect
//! reference can be replaced by a direct one (`x = *q` → `x = y`),
//! reducing loads/stores downstream. Replacement is impossible when the
//! target is an invisible variable (symbolic name), the heap, or a
//! summary location.

use pta_core::stats::{collect_indirect_refs, IndirectRef};
use pta_core::{AnalysisResult, Def, LocId};
use pta_simple::{IrProgram, StmtId, VarRef};

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
    /// The location replaced with.
    pub target: LocId,
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
pub fn replaceable_refs(ir: &IrProgram, result: &mut AnalysisResult) -> Vec<Replacement> {
    let mut out = Vec::new();
    for occ in collect_indirect_refs(ir) {
        if let Some(rep) = replacement_for(ir, result, &occ) {
            out.push(rep);
        }
    }
    out
}

fn replacement_for(
    ir: &IrProgram,
    result: &mut AnalysisResult,
    occ: &IndirectRef,
) -> Option<Replacement> {
    let VarRef::Deref { path, shift, after } = &occ.r else {
        return None;
    };
    // Only plain `*p` / `(*p).f` shapes replace cleanly.
    if *shift != pta_simple::IdxClass::Zero {
        return None;
    }
    let set = result.at(occ.stmt);
    let ptr_locs = {
        let mut env = pta_core::lvalue::RefEnv {
            ir,
            func: occ.func,
            locs: &mut result.locs,
        };
        env.path_locs(path)
    };
    // The pointer itself must be a single definite location.
    if ptr_locs.len() != 1 || ptr_locs[0].1 != Def::D {
        return None;
    }
    let targets: Vec<(LocId, Def)> = set
        .targets(ptr_locs[0].0)
        .filter(|(t, _)| !result.locs.is_null(*t))
        .collect();
    let [(t, Def::D)] = targets[..] else {
        return None;
    };
    if result.locs.is_symbolic(t) || result.locs.is_heap(t) || result.locs.is_summary(t) {
        return None;
    }
    // Apply the post-deref projections to name the replacement.
    let mut tgt = t;
    for p in after {
        let proj = match p {
            pta_simple::IrProj::Field(f) => pta_core::Proj::Field(f.clone()),
            pta_simple::IrProj::Index(pta_simple::IdxClass::Zero) => pta_core::Proj::Head,
            pta_simple::IrProj::Index(_) => return None,
        };
        tgt = result.locs.project(tgt, &proj, ir)?;
    }
    let func_name = ir.function(occ.func).name.clone();
    let f = ir.function(occ.func);
    let indirect = pta_simple::printer::ref_str(ir, f, &occ.r);
    Some(Replacement {
        function: func_name,
        stmt: occ.stmt,
        indirect,
        direct: result.locs.name(tgt).to_owned(),
        target: tgt,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Replacement> {
        let mut t = pta_core::run_source(src).expect("analysis ok");
        replaceable_refs(&t.ir.clone(), &mut t.result)
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
