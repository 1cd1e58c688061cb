//! The one adapter between the benchmark and the workspace's public
//! API. Every call the benchmark makes into a layer of the program goes
//! through a function here, wrapped in a span, so a later rename of a
//! public function touches this file only.
//!
//! Layers are timed from outside: a span covers one call into a public
//! function. Where a public function repeats work another layer does
//! (`parse` lexes, `save` serializes), the repeated layer is timed by a
//! separate probe call made outside the op and recorded as a child of
//! the outer span, so self times still add up to the op's wall time.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use pta_benchsuite::SUITE;
pub use pta_core::{AnalysisResult, EngineRun};
pub use pta_lint::Diagnostic;
pub use pta_simple::IrProgram;
pub use pta_store::json::{self, Json};
pub use pta_store::tenant::LoadedTenant;
pub use pta_store::{Router, Snapshot};

/// One timed call: which layer, when, under which span and op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, as in the metric names (`cfront.parse`, ...).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was made.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was made.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (batch op, tenant build, reload or request) it belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder. When off it records nothing and reads
/// no clock, so untraced runs go through the same adapter calls at the
/// cost of one branch each.
pub struct Tracer {
    on: bool,
    origin: Instant,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

/// The handle [`Tracer::begin`] returns; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a new op; spans opened from now on carry its id.
    pub fn next_op(&mut self) -> u32 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        let Some(idx) = id else { return };
        let now = self.now_ns();
        self.spans[idx].end_ns = now;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    }

    /// Records a child of `parent` that lasted `dur_ns`, placed at the
    /// parent's start: the share of the parent's work that a separate
    /// probe call timed on its own.
    pub fn probe_child(&mut self, parent: SpanId, name: &'static str, dur: Duration) {
        let Some(p) = parent else { return };
        let start_ns = self.spans[p].start_ns;
        let end_ns = (start_ns + dur.as_nanos() as u64).min(self.spans[p].end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(p),
            op: self.spans[p].op,
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Self time in microseconds per layer and op: each span's duration
    /// minus the part its children cover, summed per op.
    pub fn self_us(&self) -> BTreeMap<&'static str, BTreeMap<u32, f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let us = s.dur_ns().saturating_sub(c) as f64 / 1e3;
            *out.entry(s.name).or_default().entry(s.op).or_default() += us;
        }
        out
    }
}

/// Times `f` on its own (a probe made outside any op).
pub fn probe<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

// ---------------------------------------------------------------- front end

/// Lexes `source` and returns the token count (`cfront.lex`, probe).
pub fn lex(source: &str) -> Result<usize, String> {
    pta_cfront::lexer::lex(source)
        .map(|t| t.len())
        .map_err(|e| e.to_string())
}

/// Source → validated SIMPLE, one span per layer. Returns the parse
/// span, under which a traced caller records its `cfront.lex` probe.
pub fn compile(tr: &mut Tracer, source: &str) -> Result<(IrProgram, SpanId), String> {
    let parse = tr.begin("cfront.parse");
    let parsed = pta_cfront::parser::parse(source);
    tr.end(parse);
    let mut ast = parsed.map_err(|e| e.to_string())?;
    tr.span("cfront.sema", || pta_cfront::sema::analyze(&mut ast))
        .map_err(|e| e.to_string())?;
    let ir = tr
        .span("simple.lower", || pta_simple::lower(&ast))
        .map_err(|e| e.to_string())?;
    tr.span("simple.validate", || pta_simple::validate(&ir))
        .map_err(|e| format!("invalid SIMPLE: {e:?}"))?;
    Ok((ir, parse))
}

/// SIMPLE basic statements in the program.
pub fn stmts(ir: &IrProgram) -> usize {
    ir.total_basic_stmts()
}

// ------------------------------------------------------------------- engine

/// Default-configuration analysis (`core.analyze`).
pub fn analyze(tr: &mut Tracer, ir: &IrProgram) -> Result<AnalysisResult, String> {
    tr.span("core.analyze", || pta_core::analyze(ir))
        .map_err(|e| e.to_string())
}

/// The capturing analysis a tenant build runs (`core.analyze`).
pub fn analyze_recorded(tr: &mut Tracer, ir: &IrProgram) -> Result<EngineRun, String> {
    tr.span("core.analyze", || {
        pta_core::analyze_recorded(ir, pta_core::AnalysisConfig::default())
    })
    .map_err(|e| e.to_string())
}

/// Engine counters and internal timers from the public `TraceMetrics`
/// sink, by metric name (a separate traced analysis, made outside any
/// op).
pub fn engine_counters(ir: &IrProgram) -> Result<Vec<(&'static str, f64)>, String> {
    let mut m = pta_core::TraceMetrics::new();
    pta_core::analyze_traced(ir, pta_core::AnalysisConfig::default(), &mut m)
        .map_err(|e| e.to_string())?;
    let lookups = (m.memo_hits + m.memo_misses).max(1);
    Ok(vec![
        ("core.ig_nodes", m.ig_nodes as f64),
        ("core.memo_hits", m.memo_hits as f64),
        ("core.memo_misses", m.memo_misses as f64),
        ("core.memo_hit_ratio", m.memo_hits as f64 / lookups as f64),
        ("core.maps", m.maps as f64),
        ("core.unmaps", m.unmaps as f64),
        ("core.stmt_visits", m.stmt_events as f64),
        ("core.steps", m.steps as f64),
        ("core.intra_us", m.stmt_us as f64),
        ("core.map_us", m.map_us as f64),
        ("core.unmap_us", m.unmap_us as f64),
    ])
}

/// Points-to pairs summed over the per-statement tables.
pub fn pt_pairs(result: &AnalysisResult) -> u64 {
    result.per_stmt.values().map(|s| s.len() as u64).sum()
}

/// A cheap id-level digest input of a result: per-statement set sizes,
/// the exit set, and the invocation-graph shape.
pub fn result_fingerprint(result: &AnalysisResult, out: &mut impl FnMut(u64)) {
    for (stmt, set) in &result.per_stmt {
        out(u64::from(stmt.0));
        out(set.len() as u64);
    }
    for (a, b, d) in result.exit_set.iter() {
        out(u64::from(a.0) << 32 | u64::from(b.0));
        out(matches!(d, pta_core::Def::D) as u64);
    }
    let s = result.ig.stats();
    out(s.nodes as u64);
    out(s.recursive as u64);
    out(s.approximate as u64);
}

/// Name-level facts of a result, comparable across runs and commits.
pub fn canonical_facts(ir: &IrProgram, result: &AnalysisResult) -> String {
    pta_store::canonical_facts(ir, result)
}

// ------------------------------------------------------------------ clients

/// All eight lint checks at full fidelity (`lint.lint`).
pub fn lint(tr: &mut Tracer, ir: &IrProgram, result: &AnalysisResult) -> Vec<Diagnostic> {
    tr.span("lint.lint", || {
        pta_lint::lint_ir(
            ir,
            result,
            pta_core::Fidelity::ContextSensitive,
            &pta_lint::LintOptions::default(),
        )
    })
}

/// One line per finding, for digests.
pub fn render_diagnostics(diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| {
            format!(
                "{} {} {} {}\n",
                d.span.line, d.check_id, d.function, d.message
            )
        })
        .collect()
}

/// Tables 2–6 for one program (`stats.compute`); returns them rendered.
pub fn stats(
    tr: &mut Tracer,
    name: &str,
    source: &str,
    ir: &IrProgram,
    result: &mut AnalysisResult,
) -> String {
    let s = tr.span("stats.compute", || {
        pta_core::stats::compute(name, source, ir, result)
    });
    format!("{:?}", (s.t2, s.t3, s.t4, s.t5, s.t6))
}

// -------------------------------------------------------------------- store

/// `Snapshot::build` (`store.build`).
pub fn snapshot_build(
    tr: &mut Tracer,
    ir: &IrProgram,
    run: &EngineRun,
    lint: &[Diagnostic],
) -> Snapshot {
    tr.span("store.build", || {
        Snapshot::build(ir, &pta_core::AnalysisConfig::default(), run, lint)
    })
}

/// The snapshot text (`store.serialize`, probe).
pub fn serialize(snap: &Snapshot) -> String {
    pta_store::serialize(snap)
}

/// Crash-safe save (`store.save`). It serializes internally; a traced
/// caller records its `store.serialize` probe under the returned span.
pub fn save(tr: &mut Tracer, path: &Path, snap: &Snapshot) -> Result<SpanId, String> {
    let id = tr.begin("store.save");
    let out = pta_store::save(path, snap);
    tr.end(id);
    out.map(|()| id).map_err(|e| e.to_string())
}

/// Reads the snapshot file (`store.load`).
pub fn load_text(tr: &mut Tracer, path: &Path) -> Result<String, String> {
    tr.span("store.load", || std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Parses snapshot text (`store.parse`).
pub fn parse_snapshot(tr: &mut Tracer, text: &str) -> Result<Snapshot, String> {
    tr.span("store.parse", || pta_store::parse(text))
        .map_err(|e| e.to_string())
}

/// Reads and parses a snapshot file, untimed.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    pta_store::load(path).map_err(|e| e.to_string())
}

/// The saved run as a plain result, untimed.
pub fn reload_result(snap: &Snapshot) -> Result<AnalysisResult, String> {
    pta_store::reload_result(snap).map_err(|e| e.to_string())
}

/// What a warm reload did: replayed pairs and re-analysed functions.
pub struct Reloaded {
    /// The capturing engine run.
    pub run: EngineRun,
    /// Memo hits served from the snapshot's pairs.
    pub seed_hits: usize,
    /// Functions whose fingerprint changed.
    pub dirty: usize,
}

/// Warm start plus incremental analysis (`store.warm_start`,
/// `store.incremental`) — the reload path of a tenant build.
pub fn warm_reload(tr: &mut Tracer, ir: &IrProgram, snap: &Snapshot) -> Result<Reloaded, String> {
    let config = pta_core::AnalysisConfig::default();
    let (warm, info) = tr
        .span("store.warm_start", || {
            pta_store::warm_start(ir, &config, snap)
        })
        .map_err(|e| e.to_string())?;
    let run = tr
        .span("store.incremental", || {
            pta_core::analyze_seeded(ir, config, warm, true)
        })
        .map_err(|e| e.to_string())?;
    Ok(Reloaded {
        seed_hits: run.seed_hits,
        dirty: info.dirty.len(),
        run,
    })
}

// -------------------------------------------------------------------- serve

/// What a program's facts offer to query, by kind.
#[derive(Debug, Default)]
pub struct QueryTargets {
    /// `(func, var)` of pointers with facts in `main`'s exit set.
    pub exit: Vec<(String, String)>,
    /// `(func, var, stmt)` of locals with facts at a statement of their
    /// own function.
    pub at_stmt: Vec<(String, String, u32)>,
    /// Number of call sites.
    pub sites: usize,
    /// Defined function names.
    pub functions: Vec<String>,
}

/// Statements sampled per function, and sources per statement, when
/// collecting [`QueryTargets::at_stmt`].
const STMTS_PER_FUNCTION: usize = 4;
const SOURCES_PER_STMT: usize = 2;

/// Collects query targets from an analysed program.
pub fn query_targets(ir: &IrProgram, result: &AnalysisResult) -> QueryTargets {
    use pta_core::LocBase;
    let mut t = QueryTargets {
        sites: ir.call_sites.len(),
        ..QueryTargets::default()
    };
    for (src, _, _) in result.exit_set.iter() {
        let d = result.locs.get(src);
        let plain = d.projs.is_empty() && !result.locs.is_null(src);
        match d.base {
            LocBase::Global(_) if plain => t.exit.push(("main".to_owned(), d.name.clone())),
            LocBase::Var(f, _) if plain && Some(f) == ir.entry => {
                t.exit.push(("main".to_owned(), d.name.clone()))
            }
            _ => {}
        }
    }
    t.exit.dedup();
    for (fid, f) in ir.defined_functions() {
        t.functions.push(f.name.clone());
        let mut ids = Vec::new();
        if let Some(body) = &f.body {
            body.for_each_basic(&mut |_, id| ids.push(id));
        }
        let stride = (ids.len() / STMTS_PER_FUNCTION).max(1);
        for &id in ids.iter().step_by(stride).take(STMTS_PER_FUNCTION) {
            let Some(set) = result.per_stmt.get(&id) else {
                continue;
            };
            let mut seen: Vec<&str> = Vec::new();
            for (src, _, _) in set.iter() {
                let d = result.locs.get(src);
                if d.projs.is_empty()
                    && matches!(d.base, LocBase::Var(g, _) if g == fid)
                    && !seen.contains(&d.name.as_str())
                {
                    seen.push(&d.name);
                    t.at_stmt.push((f.name.clone(), d.name.clone(), id.0));
                    if seen.len() == SOURCES_PER_STMT {
                        break;
                    }
                }
            }
        }
    }
    t
}

/// An in-process multi-tenant router over `sources`, with snapshots in
/// `store_dir` — the same handler `pta serve` runs.
pub fn router(sources: &[PathBuf], store_dir: &Path) -> Result<Router, String> {
    std::fs::create_dir_all(store_dir).map_err(|e| format!("{}: {e}", store_dir.display()))?;
    let specs = sources
        .iter()
        .map(|s| pta_store::TenantSpec::from_source(s, store_dir))
        .collect::<Vec<_>>();
    let n = specs.len();
    Ok(Router::new(pta_store::TenantCache::new(
        specs,
        n,
        pta_core::AnalysisConfig::default(),
        None,
    )))
}

/// The analysed program behind a resident tenant.
pub fn tenant_program(t: &LoadedTenant) -> Option<(&IrProgram, &AnalysisResult)> {
    match &t.engine {
        pta_store::TenantEngine::Full(e) => Some((&e.pta().ir, &e.pta().result)),
        pta_store::TenantEngine::Demand(_) => None,
    }
}

/// Parses a request line (`serve.json_parse`).
pub fn json_parse(tr: &mut Tracer, line: &str) -> Result<Json, String> {
    tr.span("serve.json_parse", || json::parse(line.trim()))
}

/// Resolves the request's tenant (`serve.route`: `TenantCache::resolve`,
/// which reloads a tenant whose files changed).
pub fn route(
    tr: &mut Tracer,
    router: &Router,
    program: Option<&str>,
) -> Result<Arc<LoadedTenant>, String> {
    tr.span("serve.route", || router.cache().resolve(program))
}

/// Answers a parsed request on its tenant (`serve.dispatch.<op>`).
pub fn dispatch(tr: &mut Tracer, tenant: &LoadedTenant, req: &Json, layer: &'static str) -> String {
    tr.span(layer, || tenant.engine.handle_request(req).0)
}

/// The whole request path in one call (`serve.handle`).
pub fn handle_text(tr: &mut Tracer, router: &Router, line: &str) -> String {
    tr.span("serve.handle", || router.handle_text(line).0)
}
