//! `pta` — command-line driver for the points-to analysis.
//!
//! ```text
//! pta <file.c> [--simple] [--points-to] [--ig] [--call-graph]
//!              [--aliases] [--replace] [--tables] [--warnings]
//!              [--deadline MS] [--budget N]
//! pta lint <file.c>... [--json] [--allow ID] [--deny ID] [--jobs N]
//!              [--deadline MS] [--budget N]
//! pta trace <file.c> [--trace-out PATH] [--chrome-out PATH]
//!              [--metrics] [--scrub-timings] [--deadline MS] [--budget N]
//! pta serve <file.c>... [--store PATH | --store-dir DIR] [--listen ADDR]
//!              [--cache N] [--query-deadline MS] [--metrics]
//!              [--deadline MS] [--budget N] [--max-conns N]
//!              [--io-timeout-ms MS] [--max-line-bytes N]
//! pta store verify <snapshot.ptas>...
//! pta callgraph <file.c> [--dot | --json]
//! ```
//!
//! Every analysing mode also takes `--memo node|program` to pick where
//! finished calling contexts are reused: `node` (default) is the
//! paper's per-node memo, `program` also replays a context pair at
//! every call site with the same input (same answers; see `DESIGN.md`
//! §11).
//!
//! With no flags, prints a short summary. `--points-to` dumps the
//! merged points-to set at every program point. `--deadline` and
//! `--budget` bound the analysis; when a bound trips, the run degrades
//! to a cheaper engine and the summary reports the fidelity.
//! NULL-dereference findings come from `pta lint` (check `null-deref`).
//! A usage error exits 2, as in every subcommand.
//!
//! `pta lint` runs the diagnostics passes (see the `pta-lint` crate)
//! and exits 0 when clean, 1 when any error-severity finding or file
//! failure occurred, and 2 on usage errors. Note the fidelity cap: when
//! a budget forces the analysis onto a degraded engine, that file's
//! findings are capped at warning severity — even for checks escalated
//! with `--deny` — so a degraded run never exits 1 via findings alone.
//!
//! `pta serve` analyses each file once — warmed from its snapshot
//! (`--store` / `--store-dir`) when one is usable, falling back to a
//! cold run on any store problem — then answers JSONL queries
//! (`points-to`, `aliases?`, `call-targets`, `lint`) on stdin/stdout
//! until EOF, or over concurrent socket connections with `--listen`.
//! With several files, requests pick their program by file stem; an
//! LRU cache (`--cache`) bounds resident tenants and snapshots reload
//! in place when their files change on disk. Responses are
//! byte-deterministic; per-query metrics go to stderr. See
//! `docs/SERVING.md`.
//!
//! `pta trace` runs the analysis with the observability layer attached
//! (see `docs/TRACING.md`): the JSONL event stream goes to stdout or
//! `--trace-out`, `--chrome-out` writes a Chrome `trace_events` file
//! for `chrome://tracing`/Perfetto, `--metrics` prints the aggregated
//! per-function profile, and `--scrub-timings` zeroes every timing
//! field for byte-identical golden streams.

use pta_apps::{alias_pairs_at, call_graph, replaceable_refs};
use pta_core::{stats, AnalysisConfig};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    file: Option<String>,
    simple: bool,
    points_to: bool,
    ig: bool,
    callgraph: bool,
    aliases: bool,
    replace: bool,
    tables: bool,
    warnings: bool,
    dot: bool,
    config: AnalysisConfig,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        file: None,
        simple: false,
        points_to: false,
        ig: false,
        callgraph: false,
        aliases: false,
        replace: false,
        tables: false,
        warnings: false,
        dot: false,
        config: AnalysisConfig::default(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--simple" => o.simple = true,
            "--points-to" => o.points_to = true,
            "--ig" => o.ig = true,
            "--call-graph" => o.callgraph = true,
            "--aliases" => o.aliases = true,
            "--replace" => o.replace = true,
            "--tables" => o.tables = true,
            "--warnings" => o.warnings = true,
            "--dot" => o.dot = true,
            "--deadline" => {
                let ms: u64 = parse_value(&mut argv, "--deadline")?;
                o.config.deadline = Some(Duration::from_millis(ms));
            }
            "--budget" => {
                let n: u64 = parse_value(&mut argv, "--budget")?;
                if n == 0 {
                    return Err("--budget must be positive".to_owned());
                }
                o.config.max_steps = n;
            }
            "--memo" => o.config.memo = parse_memo(&mut argv)?,
            "--help" | "-h" => return Err(usage()),
            f if !f.starts_with('-') => {
                if o.file.is_some() {
                    return Err("only one input file is supported".to_owned());
                }
                o.file = Some(f.to_owned());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if o.file.is_none() {
        return Err(usage());
    }
    Ok(o)
}

fn parse_value<T: std::str::FromStr>(
    argv: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    let raw = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value `{raw}`"))
}

fn parse_memo(argv: &mut impl Iterator<Item = String>) -> Result<pta_core::MemoScope, String> {
    let raw: String = parse_value(argv, "--memo")?;
    pta_core::MemoScope::parse(&raw)
        .ok_or_else(|| format!("--memo: unknown scope `{raw}` (expected `node` or `program`)"))
}

fn usage() -> String {
    "usage: pta <file.c> [--simple] [--points-to] [--ig] [--call-graph] \
     [--aliases] [--replace] [--tables] [--warnings] [--dot] \
     [--deadline MS] [--budget N] [--memo node|program]"
        .to_owned()
}

struct LintCliOptions {
    files: Vec<String>,
    json: bool,
    jobs: usize,
    lint: pta_lint::LintOptions,
    config: AnalysisConfig,
    check: Option<String>,
    demand: bool,
}

fn lint_usage() -> String {
    let checks: Vec<String> = pta_lint::all_checks()
        .iter()
        .map(|c| format!("  {:<15} {}", c.id(), c.description()))
        .collect();
    format!(
        "usage: pta lint <file.c>... [--json] [--allow ID] [--deny ID] \
         [--jobs N] [--deadline MS] [--budget N] [--prune-liveness] \
         [--memo node|program] [--check ID [--demand]]\nchecks:\n{}\n\
         --check runs (and reports) a single check; with --demand it \
         runs demand-driven — the analysis covers only the backward \
         slice of the check's query roots (see docs/QUERIES.md), with \
         identical findings.\n\
         exit codes: 0 clean, 1 error-severity findings or file failures, \
         2 usage errors.\nfidelity cap: findings from a budget-degraded \
         analysis are capped at warning severity (overrides --deny), so \
         they never cause exit 1 on their own.",
        checks.join("\n")
    )
}

fn parse_lint_args(args: impl Iterator<Item = String>) -> Result<LintCliOptions, String> {
    let mut o = LintCliOptions {
        files: Vec::new(),
        json: false,
        jobs: 1,
        lint: pta_lint::LintOptions::default(),
        config: AnalysisConfig::default(),
        check: None,
        demand: false,
    };
    let mut argv = args.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => o.json = true,
            "--allow" => o.lint.allow.push(parse_value(&mut argv, "--allow")?),
            "--deny" => o.lint.deny.push(parse_value(&mut argv, "--deny")?),
            "--jobs" => {
                o.jobs = parse_value(&mut argv, "--jobs")?;
                if o.jobs == 0 {
                    return Err("--jobs must be positive".to_owned());
                }
            }
            "--deadline" => {
                let ms: u64 = parse_value(&mut argv, "--deadline")?;
                o.config.deadline = Some(Duration::from_millis(ms));
            }
            "--budget" => {
                let n: u64 = parse_value(&mut argv, "--budget")?;
                if n == 0 {
                    return Err("--budget must be positive".to_owned());
                }
                o.config.max_steps = n;
            }
            "--prune-liveness" => o.config.prune_liveness = true,
            "--memo" => o.config.memo = parse_memo(&mut argv)?,
            "--check" => o.check = Some(parse_value(&mut argv, "--check")?),
            "--demand" => o.demand = true,
            "--help" | "-h" => return Err(lint_usage()),
            f if !f.starts_with('-') => o.files.push(f.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{}", lint_usage())),
        }
    }
    if o.files.is_empty() {
        return Err(lint_usage());
    }
    if o.demand && o.check.is_none() {
        return Err(format!("--demand needs --check\n{}", lint_usage()));
    }
    if let Some(id) = &o.check {
        if !pta_lint::all_checks().iter().any(|c| c.id() == id) {
            return Err(format!("unknown check id: {id}\n{}", lint_usage()));
        }
    }
    let unknown = o.lint.unknown_ids();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown check id{}: {}\n{}",
            if unknown.len() == 1 { "" } else { "s" },
            unknown.join(", "),
            lint_usage()
        ));
    }
    Ok(o)
}

fn run_lint(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = match parse_lint_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut inputs = Vec::new();
    for path in &opts.files {
        match std::fs::read_to_string(path) {
            Ok(source) => inputs.push(pta_lint::FileInput {
                path: path.clone(),
                source,
            }),
            Err(e) => {
                eprintln!("pta lint: cannot read `{path}`: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let mut reports = match (&opts.check, opts.demand) {
        (Some(id), true) => lint_demand_reports(&inputs, &opts.config, id, &opts.lint),
        _ => pta_lint::lint_files(&inputs, &opts.config, &opts.lint, opts.jobs),
    };
    if let Some(id) = &opts.check {
        for r in &mut reports {
            r.diagnostics.retain(|d| d.check_id == id.as_str());
        }
    }
    if opts.json {
        print!("{}", pta_lint::render_json(&reports));
    } else {
        print!("{}", pta_lint::render_text(&reports));
    }
    let failed = reports.iter().any(|r| r.error.is_some());
    let errors = reports
        .iter()
        .flat_map(|r| r.diagnostics.iter())
        .any(|d| d.severity == pta_lint::Severity::Error);
    if failed || errors {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `pta lint --check <id> --demand`: one sliced (or fallback) analysis
/// per file, findings identical to the exhaustive single-check run. Any
/// trouble on the demand path — front-end failure, analysis error —
/// reruns that file through the regular resilient pipeline, so demand
/// mode never changes what the user sees, only how much is analysed.
fn lint_demand_reports(
    inputs: &[pta_lint::FileInput],
    config: &AnalysisConfig,
    check_id: &str,
    opts: &pta_lint::LintOptions,
) -> Vec<pta_lint::FileReport> {
    inputs
        .iter()
        .map(|input| {
            let demand_run = pta_simple::compile(&input.source)
                .ok()
                .and_then(|ir| pta_lint::lint_check_demand(&ir, config, check_id, opts))
                .and_then(|r| r.ok());
            match demand_run {
                Some(run) => pta_lint::FileReport {
                    path: input.path.clone(),
                    fidelity: Some(pta_core::Fidelity::ContextSensitive),
                    diagnostics: run.diagnostics,
                    error: None,
                },
                None => pta_lint::lint_files(std::slice::from_ref(input), config, opts, 1)
                    .pop()
                    .expect("one report per input"),
            }
        })
        .collect()
}

struct TraceCliOptions {
    file: Option<String>,
    trace_out: Option<String>,
    chrome_out: Option<String>,
    metrics: bool,
    scrub: bool,
    config: AnalysisConfig,
}

fn trace_usage() -> String {
    "usage: pta trace <file.c> [--trace-out PATH] [--chrome-out PATH] \
     [--metrics] [--scrub-timings] [--deadline MS] [--budget N] \
     [--memo node|program]\n\
     JSONL events go to stdout unless --trace-out is given; the schema \
     is documented in docs/TRACING.md"
        .to_owned()
}

fn parse_trace_args(args: impl Iterator<Item = String>) -> Result<TraceCliOptions, String> {
    let mut o = TraceCliOptions {
        file: None,
        trace_out: None,
        chrome_out: None,
        metrics: false,
        scrub: false,
        config: AnalysisConfig::default(),
    };
    let mut argv = args.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace-out" => o.trace_out = Some(parse_value(&mut argv, "--trace-out")?),
            "--chrome-out" => o.chrome_out = Some(parse_value(&mut argv, "--chrome-out")?),
            "--metrics" => o.metrics = true,
            "--scrub-timings" => o.scrub = true,
            "--deadline" => {
                let ms: u64 = parse_value(&mut argv, "--deadline")?;
                o.config.deadline = Some(Duration::from_millis(ms));
            }
            "--budget" => {
                let n: u64 = parse_value(&mut argv, "--budget")?;
                if n == 0 {
                    return Err("--budget must be positive".to_owned());
                }
                o.config.max_steps = n;
            }
            "--memo" => o.config.memo = parse_memo(&mut argv)?,
            "--help" | "-h" => return Err(trace_usage()),
            f if !f.starts_with('-') => {
                if o.file.is_some() {
                    return Err("only one input file is supported".to_owned());
                }
                o.file = Some(f.to_owned());
            }
            other => return Err(format!("unknown flag `{other}`\n{}", trace_usage())),
        }
    }
    if o.file.is_none() {
        return Err(trace_usage());
    }
    Ok(o)
}

fn run_trace(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = match parse_trace_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let file = opts.file.as_deref().expect("checked in parse_trace_args");
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pta trace: cannot read `{file}`: {e}");
            return ExitCode::from(2);
        }
    };
    let mut jsonl = if opts.scrub {
        pta_core::JsonlSink::scrubbed()
    } else {
        pta_core::JsonlSink::new()
    };
    let mut chrome = if opts.scrub {
        pta_core::ChromeTraceSink::scrubbed()
    } else {
        pta_core::ChromeTraceSink::new()
    };
    let mut metrics = pta_core::TraceMetrics::new();
    let want_chrome = opts.chrome_out.is_some();
    let (pta, fidelity, degradations) = {
        let mut tee = pta_core::TeeSink::new();
        tee.push(&mut jsonl);
        if want_chrome {
            tee.push(&mut chrome);
        }
        tee.push(&mut metrics);
        match pta_core::run_source_traced(&source, opts.config.clone(), &mut tee) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pta trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for (rung, why) in &degradations {
        eprintln!("pta trace: {rung} analysis exceeded its budget ({why}); falling back");
    }
    match &opts.trace_out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, jsonl.as_str()) {
                eprintln!("pta trace: cannot write `{path}`: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{}", jsonl.as_str()),
    }
    if let Some(path) = &opts.chrome_out {
        if let Err(e) = std::fs::write(path, chrome.finish()) {
            eprintln!("pta trace: cannot write `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.metrics {
        print!("{}", metrics.render_text());
    }
    eprintln!(
        "pta trace: {file}: {} events, {} ig nodes, fidelity {}",
        metrics.events,
        pta.result.ig.stats().nodes,
        fidelity
    );
    ExitCode::SUCCESS
}

struct ServeCliOptions {
    files: Vec<String>,
    store: Option<String>,
    store_dir: Option<String>,
    listen: Option<String>,
    cache: Option<usize>,
    metrics: bool,
    query_deadline: Option<Duration>,
    config: AnalysisConfig,
    max_conns: usize,
    io_timeout: Option<Duration>,
    max_line_bytes: usize,
    demand: bool,
}

fn serve_usage() -> String {
    "usage: pta serve <file.c>... [--store PATH | --store-dir DIR] \
     [--listen ADDR] [--cache N] [--query-deadline MS] [--metrics] \
     [--deadline MS] [--budget N] [--memo node|program] [--max-conns N] \
     [--io-timeout-ms MS] [--max-line-bytes N] [--demand]\n\
     JSONL request/response daemon (see docs/SERVING.md). Requests: \
     {\"id\":…,\"op\":\"points-to\"|\"aliases?\"|\"call-targets\"|\"lint\",…}, \
     or a JSON array of them (a batch). With several files, each \
     request selects its tenant with \"program\": \"<file stem>\". \
     --listen unix:PATH | tcp:HOST:PORT | HOST:PORT serves concurrent \
     socket connections instead of stdin/stdout. --store (one file) or \
     --store-dir names the snapshots to warm from and rewrite; any \
     store problem degrades to a cold run. --cache caps resident \
     tenants (LRU). --query-deadline bounds each request; --metrics \
     emits per-query serve-query events on stderr (responses stay \
     byte-deterministic on both transports). Socket hardening (see \
     docs/ROBUSTNESS.md): --max-conns sheds connections past N in-band \
     (default 256, 0 = unlimited), --io-timeout-ms bounds each \
     incomplete request line and each write (default 10000, 0 = off), \
     --max-line-bytes answers over-long request lines in-band (default \
     1048576, 0 = unlimited). --demand defers analysis: each query \
     analyses only the backward slice of its root (docs/QUERIES.md), \
     whole-program requests build the exhaustive engine lazily; \
     responses are byte-identical either way."
        .to_owned()
}

fn parse_serve_args(args: impl Iterator<Item = String>) -> Result<ServeCliOptions, String> {
    let mut o = ServeCliOptions {
        files: Vec::new(),
        store: None,
        store_dir: None,
        listen: None,
        cache: None,
        metrics: false,
        query_deadline: None,
        config: AnalysisConfig::default(),
        max_conns: pta_store::ServeOptions::default().max_conns,
        io_timeout: pta_store::ServeOptions::default().io_timeout,
        max_line_bytes: pta_store::ServeOptions::default().max_line_bytes,
        demand: false,
    };
    let mut argv = args.peekable();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--store" => o.store = Some(parse_value(&mut argv, "--store")?),
            "--store-dir" => o.store_dir = Some(parse_value(&mut argv, "--store-dir")?),
            "--listen" => o.listen = Some(parse_value(&mut argv, "--listen")?),
            "--cache" => {
                o.cache = Some(parse_value(&mut argv, "--cache")?);
                if o.cache == Some(0) {
                    return Err("--cache must be positive".to_owned());
                }
            }
            "--metrics" => o.metrics = true,
            "--query-deadline" => {
                let ms: u64 = parse_value(&mut argv, "--query-deadline")?;
                o.query_deadline = Some(Duration::from_millis(ms));
            }
            "--deadline" => {
                let ms: u64 = parse_value(&mut argv, "--deadline")?;
                o.config.deadline = Some(Duration::from_millis(ms));
            }
            "--budget" => {
                let n: u64 = parse_value(&mut argv, "--budget")?;
                if n == 0 {
                    return Err("--budget must be positive".to_owned());
                }
                o.config.max_steps = n;
            }
            "--memo" => o.config.memo = parse_memo(&mut argv)?,
            "--max-conns" => o.max_conns = parse_value(&mut argv, "--max-conns")?,
            "--io-timeout-ms" => {
                let ms: u64 = parse_value(&mut argv, "--io-timeout-ms")?;
                o.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-line-bytes" => o.max_line_bytes = parse_value(&mut argv, "--max-line-bytes")?,
            "--demand" => o.demand = true,
            "--help" | "-h" => return Err(serve_usage()),
            f if !f.starts_with('-') => o.files.push(f.to_owned()),
            other => return Err(format!("unknown flag `{other}`\n{}", serve_usage())),
        }
    }
    if o.files.is_empty() {
        return Err(serve_usage());
    }
    if o.store.is_some() && (o.files.len() > 1 || o.store_dir.is_some()) {
        return Err("--store names one snapshot; use --store-dir with several files".to_owned());
    }
    Ok(o)
}

fn run_serve(args: impl Iterator<Item = String>) -> ExitCode {
    let opts = match parse_serve_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // One file on stdio keeps the original eager single-engine daemon
    // (same stderr lines, no snapshot write unless --store). Several
    // files, --store-dir, or --listen go through the tenant cache.
    if opts.files.len() == 1 && opts.listen.is_none() && opts.store_dir.is_none() {
        run_serve_single(&opts)
    } else {
        run_serve_tenants(&opts)
    }
}

/// The single-snapshot stdin/stdout daemon.
fn run_serve_single(opts: &ServeCliOptions) -> ExitCode {
    let file = opts.files.first().expect("checked in parse_serve_args");
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pta serve: cannot read `{file}`: {e}");
            return ExitCode::from(2);
        }
    };
    let ir = match pta_simple::compile(&source) {
        Ok(ir) => ir,
        Err(e) => {
            eprintln!("pta serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.demand {
        // Demand mode: no upfront analysis. Sliced runs answer rooted
        // queries; the first whole-program request builds the
        // exhaustive engine (warming from --store read-only — no
        // save-back, so the snapshot on disk never churns).
        let store = opts.store.clone();
        let builder_ir = ir.clone();
        let builder_config = opts.config.clone();
        let engine = pta_store::DemandEngine::new(ir, opts.config.clone())
            .with_budget(opts.query_deadline)
            .with_exhaustive_builder(Box::new(move || {
                let snap = store.as_deref().and_then(|path| {
                    match pta_store::load(std::path::Path::new(path)) {
                        Ok(s) => Some(s),
                        Err(e) => {
                            eprintln!("pta serve: snapshot unusable ({e}); running cold");
                            None
                        }
                    }
                });
                let inc = pta_store::analyze_incremental(
                    &builder_ir,
                    &builder_config,
                    snap.as_ref().map(pta_store::Prior::Snapshot),
                )
                .map_err(|e| e.to_string())?;
                let mode = match &inc.mode {
                    pta_store::WarmMode::Warm {
                        seed_hits, dirty, ..
                    } => format!(
                        "warm start ({seed_hits} replayed pairs, {} dirty functions)",
                        dirty.len()
                    ),
                    pta_store::WarmMode::Cold(r) => format!("cold start ({r:?})"),
                };
                eprintln!("pta serve: exhaustive fallback built ({mode})");
                let lint = pta_lint::lint_ir(
                    &builder_ir,
                    &inc.run.result,
                    pta_core::Fidelity::ContextSensitive,
                    &pta_lint::LintOptions::default(),
                );
                Ok((
                    pta_core::Pta {
                        ir: builder_ir,
                        result: inc.run.result,
                    },
                    lint,
                    mode,
                ))
            }));
        eprintln!("pta serve: demand (analysis deferred)");
        eprintln!("pta serve: ready");
        return serve_stdio(&engine, opts.metrics);
    }
    let snap =
        opts.store
            .as_deref()
            .and_then(|path| match pta_store::load(std::path::Path::new(path)) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("pta serve: snapshot unusable ({e}); running cold");
                    None
                }
            });
    let inc = match pta_store::analyze_incremental(
        &ir,
        &opts.config,
        snap.as_ref().map(pta_store::Prior::Snapshot),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pta serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    match &inc.mode {
        pta_store::WarmMode::Warm {
            seed_hits, dirty, ..
        } => eprintln!(
            "pta serve: warm start ({seed_hits} replayed pairs, {} dirty functions)",
            dirty.len()
        ),
        pta_store::WarmMode::Cold(r) => eprintln!("pta serve: cold start ({r:?})"),
    }
    let lint = pta_lint::lint_ir(
        &ir,
        &inc.run.result,
        pta_core::Fidelity::ContextSensitive,
        &pta_lint::LintOptions::default(),
    );
    if let Some(path) = opts.store.as_deref() {
        let snap = pta_store::Snapshot::build(&ir, &opts.config, &inc.run, &lint);
        if let Err(e) = pta_store::save(std::path::Path::new(path), &snap) {
            eprintln!("pta serve: cannot write snapshot: {e}");
        }
    }
    let engine = pta_store::ServeEngine::new(
        pta_core::Pta {
            ir,
            result: inc.run.result,
        },
        lint,
    )
    .with_budget(opts.query_deadline);
    eprintln!("pta serve: ready");
    serve_stdio(&engine, opts.metrics)
}

/// The multi-tenant daemon: an LRU snapshot cache behind either stdio
/// or a socket listener.
fn run_serve_tenants(opts: &ServeCliOptions) -> ExitCode {
    use std::path::{Path, PathBuf};
    // Snapshots always have a home here: an explicit --store/--store-dir
    // or a per-process scratch directory (the cache rewrites snapshots
    // after each build).
    let store_dir = opts
        .store_dir
        .clone()
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join(format!("pta-serve-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&store_dir) {
        eprintln!("pta serve: cannot create `{}`: {e}", store_dir.display());
        return ExitCode::from(2);
    }
    let mut specs = Vec::new();
    for file in &opts.files {
        let mut spec = pta_store::TenantSpec::from_source(Path::new(file), &store_dir);
        if let Some(store) = opts.store.as_deref() {
            spec.store = PathBuf::from(store);
        }
        if specs
            .iter()
            .any(|s: &pta_store::TenantSpec| s.name == spec.name)
        {
            eprintln!("pta serve: duplicate program name `{}`", spec.name);
            return ExitCode::from(2);
        }
        specs.push(spec);
    }
    let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
    let capacity = opts.cache.unwrap_or(specs.len());
    let cache =
        pta_store::TenantCache::new(specs, capacity, opts.config.clone(), opts.query_deadline)
            .with_demand(opts.demand);
    // Eager preload (up to the cache capacity, in argument order) so
    // "ready" means warmed, not "will analyse on first query".
    for name in names.iter().take(capacity) {
        match cache.resolve(Some(name)) {
            Ok(t) => eprintln!("pta serve: {}: {}", name, t.mode),
            Err(e) => {
                eprintln!("pta serve: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let router = pta_store::Router::new(cache);
    let Some(listen) = opts.listen.as_deref() else {
        eprintln!("pta serve: ready");
        return serve_stdio(&router, opts.metrics);
    };
    let addr = match pta_store::parse_listen(listen) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pta serve: {e}");
            return ExitCode::from(2);
        }
    };
    let listener = match pta_store::Listener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("pta serve: cannot listen on `{addr}`: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("pta serve: listening on {}", listener.local_addr());
    eprintln!("pta serve: ready");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let serve_opts = pta_store::ServeOptions {
        metrics: opts.metrics,
        max_conns: opts.max_conns,
        io_timeout: opts.io_timeout,
        max_line_bytes: opts.max_line_bytes,
    };
    match pta_store::server::serve_with(&listener, &router, &stop, &serve_opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pta serve: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The stdin/stdout request loop, shared by both daemons. Per-request
/// errors — malformed JSON, invalid UTF-8 — are answered in-band and
/// never terminate the loop; only EOF and real I/O conditions end it
/// (cleanly).
fn serve_stdio(handler: &impl pta_store::LineHandler, metrics: bool) -> ExitCode {
    use std::io::{BufRead, Write};
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut out = stdout.lock();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        match input.read_until(b'\n', &mut buf) {
            Ok(0) => return ExitCode::SUCCESS,
            Ok(_) => {}
            Err(e) => {
                eprintln!("pta serve: stdin: {e}");
                return ExitCode::SUCCESS;
            }
        }
        let (response, batch) = match std::str::from_utf8(&buf) {
            Ok(text) if text.trim().is_empty() => continue,
            Ok(text) => handler.handle_text(text),
            Err(_) => {
                let (r, m) = handler.handle_invalid("bad request: invalid UTF-8");
                (r, vec![m])
            }
        };
        if writeln!(out, "{response}")
            .and_then(|()| out.flush())
            .is_err()
        {
            // Client went away; a clean shutdown, not an error.
            return ExitCode::SUCCESS;
        }
        if metrics {
            for m in &batch {
                eprintln!("{}", m.render());
            }
        }
    }
}

/// `pta callgraph <file.c>` — prints the conservative call graph the
/// program-scope memo and the demand slicer plan over (indirect calls resolved to
/// every address-taken function), its Tarjan SCCs, and the
/// condensation, without running any points-to analysis. `--dot`
/// renders Graphviz (SCCs as clusters), `--json` a machine-readable
/// object; the default is a text listing in bottom-up SCC order.
fn run_callgraph(args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: pta callgraph <file.c> [--dot | --json]\n\
         prints the conservative call graph (indirect call sites expand \
         to every address-taken function), its SCCs in bottom-up order, \
         and the SCC condensation. --dot emits Graphviz with one cluster \
         per SCC; --json emits a stable machine-readable object.";
    let mut file = None;
    let mut dot = false;
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--dot" => dot = true,
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => {
                if file.is_some() {
                    eprintln!("only one input file is supported");
                    return ExitCode::from(2);
                }
                file = Some(f.to_owned());
            }
            other => {
                eprintln!("unknown flag `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if dot && json {
        eprintln!("--dot and --json are mutually exclusive\n{USAGE}");
        return ExitCode::from(2);
    }
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pta callgraph: cannot read `{file}`: {e}");
            return ExitCode::from(2);
        }
    };
    let ir = match pta_simple::compile(&source) {
        Ok(ir) => ir,
        Err(e) => {
            eprintln!("pta callgraph: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cg = pta_core::CallGraph::build(&ir);
    if dot {
        print!("{}", cg.to_dot(&ir));
    } else if json {
        println!("{}", cg.to_json(&ir));
    } else {
        print!("{}", render_callgraph_text(&ir, &cg));
    }
    ExitCode::SUCCESS
}

/// The human-readable `pta callgraph` listing: one line per SCC in
/// bottom-up (callees-first) order, then the condensation edges.
fn render_callgraph_text(ir: &pta_simple::IrProgram, cg: &pta_core::CallGraph) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let name = |f: pta_cfront::ast::FuncId| ir.function(f).name.as_str();
    for (i, scc) in cg.sccs.iter().enumerate() {
        let members: Vec<&str> = scc.iter().map(|&f| name(f)).collect();
        let recursive = scc.iter().any(|&f| cg.is_recursive(f));
        let _ = writeln!(
            out,
            "scc {i}: {{{}}}{}",
            members.join(", "),
            if recursive { " (recursive)" } else { "" }
        );
        for &f in scc {
            for call in cg.calls.get(&f).into_iter().flatten() {
                let targets: Vec<&str> = call.callees.iter().map(|&g| name(g)).collect();
                let _ = writeln!(
                    out,
                    "  {} -> {{{}}}{}",
                    name(f),
                    targets.join(", "),
                    if call.indirect { " (indirect)" } else { "" }
                );
            }
        }
    }
    let edges = cg.condensation_edges();
    let _ = writeln!(
        out,
        "condensation: {} sccs, {} edges",
        cg.sccs.len(),
        edges.len()
    );
    for (from, to) in edges {
        let _ = writeln!(out, "  scc {from} -> scc {to}");
    }
    out
}

/// `pta store verify <snapshot>...` — deep-verifies snapshot files
/// (checksum, structural parse, location/invocation-graph replay).
/// Exit 0 when every file verifies, 1 otherwise. This is what CI's
/// crash-recovery checks call after interrupting a save: an atomic
/// store must always leave a verifiable old-or-new snapshot behind.
fn run_store(args: impl Iterator<Item = String>) -> ExitCode {
    const USAGE: &str = "usage: pta store verify <snapshot.ptas>...";
    let mut argv = args;
    match argv.next().as_deref() {
        Some("verify") => {}
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    let files: Vec<String> = argv.filter(|a| a != "--help" && a != "-h").collect();
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("pta store verify: {file}: {e}");
                failed = true;
                continue;
            }
        };
        match pta_store::verify(&text) {
            Ok(s) => println!(
                "{file}: ok — {} functions, {} locations, {} nodes, {} pairs, {} lint findings",
                s.functions, s.locations, s.nodes, s.pairs, s.lint
            ),
            Err(e) => {
                eprintln!("pta store verify: {file}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    {
        let mut argv = std::env::args().skip(1);
        match argv.next().as_deref() {
            Some("lint") => return run_lint(argv),
            Some("trace") => return run_trace(argv),
            Some("serve") => return run_serve(argv),
            Some("store") => return run_store(argv),
            Some("callgraph") => return run_callgraph(argv),
            _ => {}
        }
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let file = opts.file.as_deref().expect("checked in parse_args");
    let source = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pta: cannot read `{file}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (pta, fidelity, degradations) =
        match pta_core::run_source_resilient(&source, opts.config.clone()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("pta: {e}");
                return ExitCode::FAILURE;
            }
        };
    for (rung, why) in &degradations {
        eprintln!("pta: {rung} analysis exceeded its budget ({why}); falling back");
    }

    if opts.simple {
        println!("== SIMPLE form ==");
        println!("{}", pta_simple::printer::print_program(&pta.ir));
    }
    if opts.ig {
        println!("== Invocation graph ==");
        print!("{}", pta.result.ig.render(&pta.ir));
        let s = pta.result.ig.stats();
        println!(
            "({} nodes, {} recursive, {} approximate)\n",
            s.nodes, s.recursive, s.approximate
        );
    }
    if opts.callgraph {
        println!("== Call graph ==");
        print!("{}", call_graph(&pta.ir, &pta.result).render());
        println!();
    }
    if opts.points_to {
        println!("== Points-to sets per program point (NULL targets omitted) ==");
        let ids: Vec<pta_simple::StmtId> = pta.result.per_stmt.keys().copied().collect();
        for id in ids {
            let pairs = pta.pairs_at(id);
            if pairs.is_empty() {
                continue;
            }
            let rendered: Vec<String> = pairs
                .iter()
                .map(|(a, b, d)| format!("({a},{b},{d})"))
                .collect();
            println!("{id}: {}", rendered.join(" "));
        }
        println!();
    }
    if opts.aliases {
        println!("== Alias pairs at exit of main ==");
        if let Some(ret) = pta.find_stmt("main", "return", 0) {
            for p in alias_pairs_at(&pta.result, ret, 3) {
                println!("{p}");
            }
        }
        println!();
    }
    if opts.replace {
        println!("== Replaceable indirect references ==");
        for r in replaceable_refs(&pta.ir, &pta.result) {
            println!("{r}");
        }
        println!();
    }
    if opts.tables {
        let all = stats::compute(file, &source, &pta.ir, &pta.result);
        println!("== Statistics ==");
        println!(
            "lines {} | SIMPLE stmts {} | abstract stack {}..{}",
            all.t2.lines, all.t2.simple_stmts, all.t2.min_vars, all.t2.max_vars
        );
        println!(
            "indirect refs {} | 1D {:?} | 1P {:?} | 2P {:?} | avg {:.2} | replaceable {}",
            all.t3.ind_refs,
            all.t3.one_d,
            all.t3.one_p,
            all.t3.two_p,
            all.t3.avg(),
            all.t3.scalar_rep
        );
        println!(
            "ig nodes {} | call sites {} | functions {} | R {} | A {}",
            all.t6.ig_nodes,
            all.t6.call_sites,
            all.t6.functions,
            all.t6.recursive,
            all.t6.approximate
        );
        println!();
    }
    if opts.dot {
        println!("// invocation graph");
        print!("{}", pta.result.ig.to_dot(&pta.ir));
        println!("// call graph");
        print!("{}", call_graph(&pta.ir, &pta.result).to_dot());
    }
    if opts.warnings {
        println!("== Warnings ==");
        for w in &pta.result.warnings {
            println!("warning: {w}");
        }
        println!();
    }

    // Default summary.
    let s = pta.result.ig.stats();
    let fidelity_note = if fidelity.is_full() {
        String::new()
    } else {
        format!(" [fidelity: {fidelity}]")
    };
    println!(
        "{}: {} functions, {} SIMPLE statements, {} invocation-graph nodes, {} points-to pairs at exit, {} warnings{}",
        file,
        pta.ir.defined_functions().count(),
        pta.ir.total_basic_stmts(),
        s.nodes,
        pta.result.exit_set.len(),
        pta.result.warnings.len(),
        fidelity_note
    );
    ExitCode::SUCCESS
}
