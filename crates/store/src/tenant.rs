//! Multi-tenant snapshot management for the query server.
//!
//! A *tenant* is one program behind the server: a C source file plus
//! its on-disk snapshot. The [`TenantCache`] keeps at most `capacity`
//! tenants analysed and resident at once, evicting the least recently
//! used; each resident tenant lives behind a [`Shared`] handle, so
//!
//! - every connection answers from the same immutable `Arc` (snapshots
//!   are never re-parsed per connection), and
//! - when the files behind a tenant change on disk, the next query
//!   rebuilds and *swaps* the snapshot: requests already in flight
//!   finish against the old `Arc` (it drains), new requests see the
//!   new facts ([`Shared`]'s contract).
//!
//! Builds reuse the `store` pipeline unchanged: warm from the snapshot
//! when it is usable, degrade to a cold analysis on any corruption, and
//! save the fresh snapshot back. Staleness is detected by file stamps
//! (length + mtime) on *both* the source and the store file; the stamp
//! is taken after the save-back so the server's own write never looks
//! like an external change.
//!
//! The [`Router`] is the request-level face of the cache: it resolves
//! each request's `"program"` field (optional when a single tenant is
//! configured) to an engine and answers, with per-request errors kept
//! in-band — exactly the [`crate::serve`] protocol plus one field.

use crate::demand::DemandEngine;
use crate::json::{self, escape as json_str, Json};
use crate::serve::{QueryMetrics, ServeEngine};
use crate::{analyze_incremental, ColdReason, WarmMode};
use pta_core::{AnalysisConfig, Pta, ServeEvent, Shared};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One program the server can answer for.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// The tenant name clients select with `"program"` (by default the
    /// source file stem).
    pub name: String,
    /// The C source file.
    pub source: PathBuf,
    /// The snapshot path (need not exist yet).
    pub store: PathBuf,
}

impl TenantSpec {
    /// Builds a spec from a source path: the tenant is named after the
    /// file stem and its snapshot lives at `store_dir/<stem>.ptas`.
    pub fn from_source(source: &Path, store_dir: &Path) -> TenantSpec {
        let stem = source
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| source.to_string_lossy().into_owned());
        TenantSpec {
            store: store_dir.join(format!("{stem}.ptas")),
            name: stem,
            source: source.to_owned(),
        }
    }
}

/// A length + mtime stamp of a file; `None` for a missing file. Equal
/// stamps mean "unchanged" for reload purposes.
type FileStamp = Option<(u64, std::time::SystemTime)>;

fn stamp(path: &Path) -> FileStamp {
    std::fs::metadata(path)
        .ok()
        .and_then(|m| Some((m.len(), m.modified().ok()?)))
}

/// The query engine behind one tenant: a fully analysed
/// [`ServeEngine`], or a [`DemandEngine`] that analyses per-query
/// slices on demand (`pta serve --demand`). Both speak the same wire
/// protocol and produce byte-identical responses.
pub enum TenantEngine {
    /// Exhaustive: one upfront analysis answers everything.
    Full(ServeEngine),
    /// Demand-driven: sliced analyses per query root, exhaustive
    /// fallback built lazily (see [`crate::demand`]).
    Demand(DemandEngine),
}

impl TenantEngine {
    /// Serves one parsed request.
    pub fn handle_request(&self, req: &Json) -> (String, QueryMetrics) {
        match self {
            TenantEngine::Full(e) => e.handle_request(req),
            TenantEngine::Demand(e) => e.handle_request(req),
        }
    }
}

/// A resident, analysed tenant: the query engine plus a human-readable
/// description of how it was built (for the startup/reload log line).
pub struct LoadedTenant {
    /// The tenant name.
    pub name: String,
    /// The engine answering queries for this tenant.
    pub engine: TenantEngine,
    /// `"warm start (...)"` / `"cold start (...)"` /
    /// `"demand (analysis deferred)"`.
    pub mode: String,
}

struct Resident {
    handle: Arc<Shared<LoadedTenant>>,
    source_stamp: FileStamp,
    store_stamp: FileStamp,
    /// LRU clock value of the last touch.
    tick: u64,
}

struct CacheState {
    resident: Vec<(usize, Resident)>, // spec index -> resident entry
    clock: u64,
    builds: u64,
    evictions: u64,
}

/// An LRU cache of analysed tenants (see the module docs).
pub struct TenantCache {
    specs: Vec<TenantSpec>,
    capacity: usize,
    config: AnalysisConfig,
    budget: Option<Duration>,
    demand: bool,
    state: Mutex<CacheState>,
}

impl TenantCache {
    /// A cache over `specs` keeping at most `capacity` tenants resident.
    ///
    /// `budget` is the per-query deadline handed to every engine.
    pub fn new(
        specs: Vec<TenantSpec>,
        capacity: usize,
        config: AnalysisConfig,
        budget: Option<Duration>,
    ) -> TenantCache {
        TenantCache {
            specs,
            capacity: capacity.max(1),
            config,
            budget,
            demand: false,
            state: Mutex::new(CacheState {
                resident: Vec::new(),
                clock: 0,
                builds: 0,
                evictions: 0,
            }),
        }
    }

    /// Switches tenants to demand-driven engines: each build compiles
    /// only, analyses are sliced per query root, and the exhaustive
    /// fallback is deferred until a whole-program query needs it.
    pub fn with_demand(mut self, demand: bool) -> Self {
        self.demand = demand;
        self
    }

    /// The configured tenant names, in configuration order.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// How many tenant builds (initial loads + reloads) have run.
    pub fn build_count(&self) -> u64 {
        self.state.lock().expect("tenant cache lock").builds
    }

    /// How many residents the LRU policy has evicted.
    pub fn eviction_count(&self) -> u64 {
        self.state.lock().expect("tenant cache lock").evictions
    }

    /// Resolves a request's program selector to a resident tenant,
    /// loading / reloading / evicting as needed.
    ///
    /// # Errors
    ///
    /// A protocol-level message: unknown program, ambiguous default, or
    /// a build failure (unreadable source, front-end or analysis error).
    pub fn resolve(&self, program: Option<&str>) -> Result<Arc<LoadedTenant>, String> {
        let idx = match program {
            Some(name) => self
                .specs
                .iter()
                .position(|s| s.name == name)
                .ok_or_else(|| format!("unknown program `{name}`"))?,
            None if self.specs.len() == 1 => 0,
            None => {
                return Err(format!(
                    "missing `program` (serving: {})",
                    self.tenant_names().join(", ")
                ))
            }
        };
        let spec = &self.specs[idx];
        let mut state = self.state.lock().expect("tenant cache lock");
        // Stamp under the lock: builds and their snapshot save-backs
        // also run under it, so a stamp can never observe a half-done
        // sibling build (which would read as an external change and
        // force a spurious rebuild).
        let source_stamp = stamp(&spec.source);
        let store_stamp = stamp(&spec.store);
        state.clock += 1;
        let clock = state.clock;
        if let Some((_, r)) = state.resident.iter_mut().find(|(i, _)| *i == idx) {
            r.tick = clock;
            if r.source_stamp == source_stamp && r.store_stamp == store_stamp {
                return Ok(r.handle.load());
            }
            // Stale on disk: rebuild and swap. In-flight queries keep
            // their old `Arc`; the swap is what new queries observe.
            let old = r.handle.load();
            let built = build_tenant(spec, &self.config, self.budget, self.demand)?;
            // Demand engines carry cached sliced analyses across the
            // reload: slices whose functions are untouched answer warm,
            // only dirty slices re-analyse.
            if let (TenantEngine::Demand(new), TenantEngine::Demand(prev)) =
                (&built.engine, &old.engine)
            {
                new.carry_from(prev);
            }
            state.builds += 1;
            ServeEvent::Reload {
                program: spec.name.clone(),
                mode: built.mode.clone(),
            }
            .emit();
            let r = state
                .resident
                .iter_mut()
                .find(|(i, _)| *i == idx)
                .expect("entry still resident");
            // Stamp *after* the build's save-back, so our own snapshot
            // write does not read as another external change.
            r.1.source_stamp = stamp(&spec.source);
            r.1.store_stamp = stamp(&spec.store);
            let shared = Arc::new(built);
            r.1.handle.swap_arc(Arc::clone(&shared));
            return Ok(shared);
        }
        // Miss: build, insert, evict past capacity.
        let built = build_tenant(spec, &self.config, self.budget, self.demand)?;
        state.builds += 1;
        let handle = Arc::new(Shared::new(built));
        let loaded = handle.load();
        state.resident.push((
            idx,
            Resident {
                handle,
                source_stamp: stamp(&spec.source),
                store_stamp: stamp(&spec.store),
                tick: clock,
            },
        ));
        while state.resident.len() > self.capacity {
            let oldest = state
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, r))| r.tick)
                .map(|(pos, _)| pos)
                .expect("non-empty resident list");
            let (spec_idx, _) = state.resident.remove(oldest);
            state.evictions += 1;
            ServeEvent::Evict {
                program: self.specs[spec_idx].name.clone(),
            }
            .emit();
        }
        Ok(loaded)
    }
}

/// Analyses one tenant through the incremental pipeline: warm from its
/// snapshot when usable, cold on any store-level problem, and save the
/// fresh snapshot back (best effort).
fn build_tenant(
    spec: &TenantSpec,
    config: &AnalysisConfig,
    budget: Option<Duration>,
    demand: bool,
) -> Result<LoadedTenant, String> {
    let source = std::fs::read_to_string(&spec.source)
        .map_err(|e| format!("cannot read `{}`: {e}", spec.source.display()))?;
    let ir = pta_simple::compile(&source).map_err(|e| format!("`{}`: {e}", spec.name))?;
    if demand {
        return Ok(build_demand_tenant(spec, config, budget, ir));
    }
    let snap = match crate::load(&spec.store) {
        Ok(s) => Some(s),
        Err(e) => {
            // A fault here (corruption, torn read, injected failure)
            // costs the warm start, never the answer: the build below
            // degrades to a cold run.
            if spec.store.exists() {
                ServeEvent::Degraded {
                    program: spec.name.clone(),
                    stage: "load".to_owned(),
                    reason: e.to_string(),
                }
                .emit();
            }
            None
        }
    };
    let inc = analyze_incremental(&ir, config, snap.as_ref())
        .map_err(|e| format!("`{}`: {e}", spec.name))?;
    // The old snapshot is spent: free it before lint and the new
    // snapshot's build and save, so a reload never holds both.
    drop(snap);
    let mode = match &inc.mode {
        WarmMode::Warm {
            seed_hits, dirty, ..
        } => format!(
            "warm start ({seed_hits} replayed pairs, {} dirty functions)",
            dirty.len()
        ),
        WarmMode::Cold(r) => {
            if let ColdReason::Store(e) = r {
                ServeEvent::Degraded {
                    program: spec.name.clone(),
                    stage: "load".to_owned(),
                    reason: e.to_string(),
                }
                .emit();
            }
            format!("cold start ({r:?})")
        }
    };
    let lint = pta_lint::lint_ir(
        &ir,
        &inc.run.result,
        pta_core::Fidelity::ContextSensitive,
        &pta_lint::LintOptions::default(),
    );
    let rebuilt = crate::Snapshot::build(&ir, config, &inc.run, &lint);
    if let Err(e) = crate::save(&spec.store, &rebuilt) {
        // Atomic save: a failed write-back leaves the old snapshot (or
        // none) intact. The server keeps answering from memory; only
        // the *next* process's warm start is at stake.
        ServeEvent::Degraded {
            program: spec.name.clone(),
            stage: "save".to_owned(),
            reason: e.to_string(),
        }
        .emit();
        eprintln!("pta serve: cannot write snapshot for `{}`: {e}", spec.name);
    }
    let engine = ServeEngine::new(
        Pta {
            ir,
            result: inc.run.result,
        },
        lint,
    )
    .with_budget(budget)
    .with_program(&spec.name);
    Ok(LoadedTenant {
        name: spec.name.clone(),
        engine: TenantEngine::Full(engine),
        mode,
    })
}

/// A demand-driven tenant: compile now, analyse per query. The
/// exhaustive fallback reuses the incremental warm-start pipeline but
/// runs lazily (first whole-program query) and **never saves the
/// snapshot back** — the stamps recorded at build time must stay valid,
/// and a deferred save-back would read as an external store change and
/// force a rebuild loop.
fn build_demand_tenant(
    spec: &TenantSpec,
    config: &AnalysisConfig,
    budget: Option<Duration>,
    ir: pta_simple::IrProgram,
) -> LoadedTenant {
    let name = spec.name.clone();
    let store = spec.store.clone();
    let builder_ir = ir.clone();
    let builder_config = config.clone();
    let engine = DemandEngine::new(ir, config.clone())
        .with_budget(budget)
        .with_program(&spec.name)
        .with_exhaustive_builder(Box::new(move || {
            let snap = match crate::load(&store) {
                Ok(s) => Some(s),
                Err(e) => {
                    if store.exists() {
                        ServeEvent::Degraded {
                            program: name.clone(),
                            stage: "load".to_owned(),
                            reason: e.to_string(),
                        }
                        .emit();
                    }
                    None
                }
            };
            let inc = analyze_incremental(&builder_ir, &builder_config, snap.as_ref())
                .map_err(|e| format!("`{name}`: {e}"))?;
            drop(snap);
            let mode = match &inc.mode {
                WarmMode::Warm {
                    seed_hits, dirty, ..
                } => format!(
                    "warm start ({seed_hits} replayed pairs, {} dirty functions)",
                    dirty.len()
                ),
                WarmMode::Cold(r) => format!("cold start ({r:?})"),
            };
            let lint = pta_lint::lint_ir(
                &builder_ir,
                &inc.run.result,
                pta_core::Fidelity::ContextSensitive,
                &pta_lint::LintOptions::default(),
            );
            Ok((
                Pta {
                    ir: builder_ir,
                    result: inc.run.result,
                },
                lint,
                mode,
            ))
        }));
    LoadedTenant {
        name: spec.name.clone(),
        engine: TenantEngine::Demand(engine),
        mode: "demand (analysis deferred)".to_owned(),
    }
}

/// Renders a protocol error response that still echoes the request id.
pub fn error_response(id: &Json, msg: &str) -> String {
    format!(
        "{{\"id\":{},\"ok\":false,\"error\":{}}}",
        id.render(),
        json_str(msg)
    )
}

/// The multi-tenant request handler: resolves each request's
/// `"program"` field against a [`TenantCache`] and dispatches to that
/// tenant's engine. Wire-compatible with the single-snapshot protocol —
/// with one tenant configured, `"program"` is optional.
pub struct Router {
    cache: TenantCache,
}

impl Router {
    /// Wraps a cache.
    pub fn new(cache: TenantCache) -> Router {
        Router { cache }
    }

    /// The underlying cache (tests read its counters).
    pub fn cache(&self) -> &TenantCache {
        &self.cache
    }

    fn handle_one(&self, req: &Json) -> (String, QueryMetrics) {
        if !req.is_obj() {
            return (
                error_response(&Json::Null, "bad request: expected a request object"),
                QueryMetrics {
                    op: "?".to_owned(),
                    ok: false,
                    micros: 0,
                    program: None,
                },
            );
        }
        let program = req.get("program").and_then(|v| v.as_str());
        match self.cache.resolve(program) {
            Ok(tenant) => tenant.engine.handle_request(req),
            Err(msg) => {
                let id = req.get("id").cloned().unwrap_or(Json::Null);
                (
                    error_response(&id, &msg),
                    QueryMetrics {
                        op: req
                            .get("op")
                            .and_then(|v| v.as_str())
                            .unwrap_or("?")
                            .to_owned(),
                        ok: false,
                        micros: 0,
                        program: program.map(str::to_owned),
                    },
                )
            }
        }
    }

    /// Serves one text line: a request object or a batch array, exactly
    /// as [`ServeEngine::handle_text`], with per-request tenant routing.
    pub fn handle_text(&self, line: &str) -> (String, Vec<QueryMetrics>) {
        match json::parse(line.trim()) {
            Ok(Json::Arr(items)) if items.len() > crate::serve::MAX_BATCH_ITEMS => {
                let msg = crate::serve::batch_too_large(items.len());
                (
                    error_response(&Json::Null, &msg),
                    vec![QueryMetrics {
                        op: "?".to_owned(),
                        ok: false,
                        micros: 0,
                        program: None,
                    }],
                )
            }
            Ok(Json::Arr(items)) => {
                let mut parts = Vec::with_capacity(items.len());
                let mut metrics = Vec::with_capacity(items.len());
                for item in &items {
                    let (resp, m) = self.handle_one(item);
                    parts.push(resp);
                    metrics.push(m);
                }
                (format!("[{}]", parts.join(",")), metrics)
            }
            Ok(req) => {
                let (resp, m) = self.handle_one(&req);
                (resp, vec![m])
            }
            Err(e) => {
                let msg = format!("bad request: {e}");
                (
                    error_response(&Json::Null, &msg),
                    vec![QueryMetrics {
                        op: "?".to_owned(),
                        ok: false,
                        micros: 0,
                        program: None,
                    }],
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tenant(dir: &Path, name: &str, source: &str) -> TenantSpec {
        let src = dir.join(format!("{name}.c"));
        std::fs::write(&src, source).unwrap();
        TenantSpec::from_source(&src, dir)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pta-tenant-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    const PROG_A: &str = "int x; int main(void) { int *p; p = &x; return *p; }";
    const PROG_B: &str = "int y; int main(void) { int *q; q = &y; return *q; }";

    #[test]
    fn single_tenant_needs_no_program_field() {
        let dir = tmpdir("single");
        let spec = write_tenant(&dir, "a", PROG_A);
        let cache = TenantCache::new(vec![spec], 4, AnalysisConfig::default(), None);
        let router = Router::new(cache);
        let (r, _) = router.handle_text(r#"{"id":1,"op":"points-to","func":"main","var":"p"}"#);
        assert!(r.contains("\"name\":\"x\""), "{r}");
        // Same request again: answered from cache, no rebuild.
        let _ = router.handle_text(r#"{"id":1,"op":"points-to","func":"main","var":"p"}"#);
        assert_eq!(router.cache().build_count(), 1);
    }

    #[test]
    fn programs_route_and_unknown_ones_error_in_band() {
        let dir = tmpdir("route");
        let a = write_tenant(&dir, "a", PROG_A);
        let b = write_tenant(&dir, "b", PROG_B);
        let cache = TenantCache::new(vec![a, b], 4, AnalysisConfig::default(), None);
        let router = Router::new(cache);
        let (ra, _) = router
            .handle_text(r#"{"id":1,"program":"a","op":"points-to","func":"main","var":"p"}"#);
        assert!(ra.contains("\"name\":\"x\""), "{ra}");
        let (rb, _) = router
            .handle_text(r#"{"id":2,"program":"b","op":"points-to","func":"main","var":"q"}"#);
        assert!(rb.contains("\"name\":\"y\""), "{rb}");
        let (r, m) = router.handle_text(r#"{"id":3,"program":"zz","op":"lint"}"#);
        assert_eq!(
            r,
            "{\"id\":3,\"ok\":false,\"error\":\"unknown program `zz`\"}"
        );
        assert!(!m[0].ok);
        // With two tenants, a request without `program` is ambiguous.
        let (r, _) = router.handle_text(r#"{"id":4,"op":"lint"}"#);
        assert!(r.contains("missing `program`"), "{r}");
    }

    #[test]
    fn lru_evicts_and_reload_sees_new_facts() {
        let dir = tmpdir("lru");
        let a = write_tenant(&dir, "a", PROG_A);
        let b = write_tenant(&dir, "b", PROG_B);
        let a_src = a.source.clone();
        let cache = TenantCache::new(vec![a, b], 1, AnalysisConfig::default(), None);
        let router = Router::new(cache);
        let q_a = r#"{"program":"a","op":"points-to","func":"main","var":"p"}"#;
        let q_b = r#"{"program":"b","op":"points-to","func":"main","var":"q"}"#;
        let (r1, _) = router.handle_text(q_a);
        let _ = router.handle_text(q_b); // capacity 1: evicts `a`
        assert_eq!(router.cache().eviction_count(), 1);
        let (r2, _) = router.handle_text(q_a); // rebuilt, byte-identical
        assert_eq!(r1, r2);
        assert_eq!(router.cache().build_count(), 3);
        // Rewrite `a` on disk (ensure the stamp moves even on coarse
        // mtime clocks by growing the file) and query again: the reload
        // must see the new fact base.
        std::fs::write(
            &a_src,
            "int x, z; int main(void) { int *p; p = &z; return *p; }",
        )
        .unwrap();
        let (r3, _) = router.handle_text(q_a);
        assert!(r3.contains("\"name\":\"z\""), "{r3}");
        assert!(!r3.contains("\"name\":\"x\""), "{r3}");
    }

    #[test]
    fn corrupt_snapshots_degrade_to_cold() {
        let dir = tmpdir("corrupt");
        let spec = write_tenant(&dir, "a", PROG_A);
        std::fs::write(&spec.store, "not a snapshot").unwrap();
        let cache = TenantCache::new(vec![spec.clone()], 2, AnalysisConfig::default(), None);
        let router = Router::new(cache);
        let (r, _) = router.handle_text(r#"{"id":1,"op":"points-to","func":"main","var":"p"}"#);
        assert!(r.contains("\"name\":\"x\""), "{r}");
        // The build healed the store: a fresh cache warms from it.
        let text = std::fs::read_to_string(&spec.store).unwrap();
        assert!(pta_store_verify_ok(&text));
    }

    fn pta_store_verify_ok(text: &str) -> bool {
        crate::verify(text).is_ok()
    }

    #[test]
    fn demand_tenants_answer_byte_identically() {
        let dir = tmpdir("demand");
        let spec = write_tenant(&dir, "a", PROG_A);
        let full = Router::new(TenantCache::new(
            vec![spec.clone()],
            4,
            AnalysisConfig::default(),
            None,
        ));
        let demand = Router::new(
            TenantCache::new(vec![spec], 4, AnalysisConfig::default(), None).with_demand(true),
        );
        for q in [
            r#"{"id":1,"op":"points-to","func":"main","var":"p"}"#,
            r#"{"id":2,"op":"lint"}"#,
            r#"{"id":3,"op":"call-targets","site":0}"#,
            r#"{"id":4,"op":"points-to","func":"main","var":"nope"}"#,
        ] {
            let (rf, _) = full.handle_text(q);
            let (rd, _) = demand.handle_text(q);
            assert_eq!(rf, rd, "query: {q}");
        }
    }

    #[test]
    fn demand_reload_carries_untouched_slices() {
        let dir = tmpdir("demand-reload");
        let spec = write_tenant(&dir, "a", PROG_A);
        let src = spec.source.clone();
        let router = Router::new(
            TenantCache::new(vec![spec], 4, AnalysisConfig::default(), None).with_demand(true),
        );
        // Find main's first program point so the query slices.
        let ir = pta_simple::compile(PROG_A).unwrap();
        let mut s0 = None;
        let (_, f) = ir.function_by_name("main").unwrap();
        f.body.as_ref().unwrap().for_each_basic(&mut |_, id| {
            if s0.is_none() {
                s0 = Some(id.0);
            }
        });
        let q = format!(
            r#"{{"id":1,"op":"points-to","func":"main","var":"p","stmt":{}}}"#,
            s0.unwrap()
        );
        let (r1, _) = router.handle_text(&q);
        assert!(r1.contains("\"ok\":true"), "{r1}");
        // Rewrite the source with identical bytes: the length stays the
        // same and only the mtime moves, which is enough to trigger a
        // reload.
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::fs::write(&src, PROG_A).unwrap();
        let (r2, _) = router.handle_text(&q);
        assert_eq!(r1, r2);
        assert!(router.cache().build_count() >= 2, "reload must have run");
    }
}
