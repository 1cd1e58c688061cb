//! Tier-1 fault-injection guarantees: every numbered fault in the save
//! path leaves an old-or-new loadable snapshot on disk (never a torn
//! one), injected load faults degrade an incremental run to a cold run
//! with identical facts, a server reload after a source-only edit never
//! reads the store, and a seeded chaos run of the hardened server comes
//! back clean with store faults armed.
//!
//! Fault arming is process-global (`pta_store::fault`), so every test
//! that arms a plan holds [`FAULT_LOCK`] for its whole body. The unit
//! suites never arm; these tests serialize among themselves.

use pta_core::analysis::AnalysisConfig;
use pta_core::Fidelity;
use pta_lint::{lint_ir, LintOptions};
use pta_store::fault::{self, FaultPlan};
use pta_store::{
    analyze_incremental, canonical_facts, load, save, serialize, Prior, Snapshot, WarmMode,
};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes arming tests; survives a poisoned lock from an earlier
/// assertion failure so later tests still report their own result.
fn fault_lock() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const OLD: &str = "int x; int main(void) { int *p; p = &x; return *p; }";
const NEW: &str = "int x, y;
     void set(int **p, int *v) { *p = v; }
     int main(void) { int *a; a = &x; set(&a, &y); return *a; }";

fn snapshot_of(source: &str) -> Snapshot {
    let ir = pta_simple::compile(source).expect("source compiles");
    let config = AnalysisConfig::default();
    let inc = analyze_incremental(&ir, &config, None).expect("source analyses");
    let lint = lint_ir(
        &ir,
        &inc.run.result,
        Fidelity::ContextSensitive,
        &LintOptions::default(),
    );
    Snapshot::build(&ir, &config, &inc.run, &lint)
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pta-robust-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_no_tempfile_debris(dir: &std::path::Path, context: &str) {
    for entry in std::fs::read_dir(dir).expect("read scratch dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            !name.contains(".tmp."),
            "{context}: tempfile debris left behind: {name}"
        );
    }
}

#[test]
fn every_save_fault_point_leaves_an_old_or_new_loadable_snapshot() {
    let _guard = fault_lock();
    fault::disarm();
    let s_old = snapshot_of(OLD);
    let s_new = snapshot_of(NEW);
    let old_text = serialize(&s_old);
    let new_text = serialize(&s_new);
    let dir = scratch("save-faults");
    let path = dir.join("prog.ptas");
    // Every save-path point, plus the torn-write mode on the write
    // point. `5` (dirsync) fires after the rename lands, so the save
    // may legitimately report success there.
    for spec in ["1", "2", "2:trunc", "3", "4", "5"] {
        save(&path, &s_old).expect("clean save of the old snapshot");
        let plan = FaultPlan::parse(spec).expect("valid plan");
        fault::arm(plan);
        let saved = save(&path, &s_new);
        fault::disarm();
        if spec != "5" {
            assert!(saved.is_err(), "plan {spec}: injected fault must surface");
        }
        let text = std::fs::read_to_string(&path).expect("target file survives");
        assert!(
            text == old_text || text == new_text,
            "plan {spec}: on-disk snapshot is neither the old nor the new bytes"
        );
        load(&path).unwrap_or_else(|e| panic!("plan {spec}: snapshot must stay loadable: {e}"));
        assert_no_tempfile_debris(&dir, &format!("plan {spec}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two versions of one program: same skeleton, different targets and
/// lengths (so the source stamp moves on any clock).
const TO_X: &str = "int x, z; int main(void) { int *p; p = &x; return *p; }";
const TO_Z: &str = "int x, z; int main(void) { int *p; p = &z; return *p;  }";

#[test]
fn source_only_reloads_never_read_the_store() {
    use pta_store::{Router, TenantCache, TenantSpec};
    let _guard = fault_lock();
    fault::disarm();
    let dir = scratch("resident-reload");
    let src = dir.join("prog.c");
    std::fs::write(&src, TO_X).expect("write source");
    let spec = TenantSpec::from_source(&src, &dir);
    let store = spec.store.clone();
    let router = Router::new(TenantCache::new(
        vec![spec],
        2,
        AnalysisConfig::default(),
        None,
    ));
    let query = r#"{"id":1,"op":"points-to","func":"main","var":"p"}"#;
    let points_to = |name: &str| format!("\"name\":\"{name}\"");
    let edit = |source: &str| {
        std::fs::write(&src, source).expect("edit source");
        router.cache().resolve(None).expect("reload")
    };
    let _ = router.handle_text(query);
    // The first reload reads the snapshot the start-up build saved; it
    // keeps its captures for the next one.
    assert!(edit(TO_Z).mode.starts_with("warm start ("));
    // Armed, a read of the store fails. A source-only reload warms from
    // the resident run, so the plan never fires and no load degrades.
    fault::arm(FaultPlan::parse("6").expect("valid plan"));
    let t = edit(TO_X);
    assert!(fault::is_armed(), "a source-only reload read the store");
    assert!(t.mode.ends_with(", 1 dirty functions)"), "{}", t.mode);
    assert!(t.mode.starts_with("warm start ("), "{}", t.mode);
    let (r, _) = router.handle_text(query);
    assert!(r.contains(&points_to("x")), "{r}");
    // An outside rewrite of the snapshot (same bytes, new mtime) moves
    // the store stamp: the reload reads the disk, the plan fires, the
    // load degrades (`serve-degraded`, stage `load`, since the file
    // exists) and the build goes cold with the right answer.
    let bytes = std::fs::read(&store).expect("read snapshot");
    let mtime = std::fs::metadata(&store)
        .and_then(|m| m.modified())
        .expect("mtime");
    std::fs::write(&store, &bytes).expect("rewrite snapshot");
    std::fs::OpenOptions::new()
        .write(true)
        .open(&store)
        .and_then(|f| f.set_modified(mtime + std::time::Duration::from_secs(2)))
        .expect("move the snapshot's mtime");
    let t = edit(TO_Z);
    assert!(!fault::is_armed(), "the outside rewrite was not read back");
    fault::disarm();
    assert!(store.exists());
    assert_eq!(t.mode, "cold start (NoSnapshot)");
    let (r, _) = router.handle_text(query);
    assert!(r.contains(&points_to("z")), "{r}");
    assert!(pta_store::verify(&std::fs::read_to_string(&store).expect("snapshot")).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_load_faults_degrade_to_a_cold_run_with_identical_facts() {
    let _guard = fault_lock();
    fault::disarm();
    let ir = pta_simple::compile(NEW).expect("source compiles");
    let config = AnalysisConfig::default();
    let dir = scratch("load-faults");
    let path = dir.join("prog.ptas");
    save(&path, &snapshot_of(NEW)).expect("clean save");
    let cold = analyze_incremental(&ir, &config, None).expect("cold run");
    let cold_facts = canonical_facts(&ir, &cold.run.result);
    // A hard read failure and a torn (half-truncated) read: both must
    // surface as a load error, and the serving flow — fall back to no
    // snapshot — must land on the same answer as a cold run.
    for spec in ["6", "6:trunc"] {
        fault::arm(FaultPlan::parse(spec).expect("valid plan"));
        let loaded = load(&path);
        fault::disarm();
        assert!(
            loaded.is_err(),
            "plan {spec}: injected load fault must surface"
        );
        let inc = analyze_incremental(&ir, &config, loaded.ok().as_ref().map(Prior::Snapshot))
            .expect("degraded run");
        assert!(
            matches!(inc.mode, WarmMode::Cold(_)),
            "plan {spec}: expected a cold fallback, got {:?}",
            inc.mode
        );
        assert_eq!(
            canonical_facts(&ir, &inc.run.result),
            cold_facts,
            "plan {spec}: degraded run must match the cold facts"
        );
    }
    // Disarmed, the same snapshot warms the run again.
    let warm = analyze_incremental(&ir, &config, load(&path).ok().as_ref().map(Prior::Snapshot))
        .expect("warm run");
    assert!(
        matches!(warm.mode, WarmMode::Warm { .. }),
        "clean reload should warm-start, got {:?}",
        warm.mode
    );
    assert_eq!(canonical_facts(&ir, &warm.run.result), cold_facts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_seeded_chaos_run_with_store_faults_is_clean() {
    // The chaos harness arms store faults in its fifth phase, so it
    // shares the process-global lock with the tests above. Phase 6
    // (SIGKILL-during-save) needs a victim executable and is exercised
    // by the `pta-chaos` binary in CI, not here.
    let _guard = fault_lock();
    fault::disarm();
    let cfg = pta_prop::chaos::ChaosConfig {
        seed: 0x0b57_ac1e,
        kill_conns: 2,
        dribbles: 1,
        garbage: 3,
        store_faults: true,
        kill_saves: 0,
        victim_exe: None,
    };
    let report = pta_prop::chaos::run_chaos(&cfg).expect("chaos harness sets up");
    assert!(
        report.is_clean(),
        "chaos run not clean:\n{}",
        report.render()
    );
}
