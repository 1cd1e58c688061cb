//! Structured tracing and self-profiling for the points-to engine.
//!
//! The analysis is a black box at runtime: budgets trip, the
//! degradation ladder fires, and the invocation graph explodes — with
//! no way to see *where* the time and nodes went. This module makes the
//! engine observable: the analyzer emits [`TraceEvent`]s at every
//! interesting point (invocation-graph enter/exit, memo hit/miss,
//! map/unmap, per-statement transfers, budget ticks, ladder rungs), and
//! pluggable [`TraceSink`]s consume them.
//!
//! Three sinks ship here:
//!
//! - [`TraceMetrics`] — an in-memory aggregator: per-function memo
//!   hit/miss counts, invocation-graph activity, map/unmap volumes,
//!   phase timings. Powers `report --profile` and the per-benchmark
//!   metrics in the CI `BENCH_*.json` artifact.
//! - [`JsonlSink`] — one JSON object per line (stable field order; see
//!   `docs/TRACING.md` for the schema).
//! - [`ChromeTraceSink`] — Chrome `trace_events` JSON that loads
//!   directly in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! # Cost contract
//!
//! Tracing is strictly opt-in and *zero-cost when disabled*: the
//! analyzer holds an `Option`al sink reference, every trace point is
//! guarded by a [`Tracer::enabled`] test (one branch on a local
//! `Option`), and no event value, string, or timestamp is constructed
//! on the disabled path. Enabling tracing never changes analysis
//! results — only observes them (enforced by property tests in
//! `pta-prop`).
//!
//! All counter-valued fields are deterministic (same program + config →
//! same values, on any machine and for any `--jobs` count). Fields in
//! microseconds (`ts_us`, `dur_us`, `elapsed_us`) are wall-clock
//! measurements and vary run to run; sinks accept a *scrub* flag that
//! zeroes them for golden tests and byte-identical artifacts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One structured event from the engine. Field meanings, units, and
/// stability notes are documented in `docs/TRACING.md`; the JSONL wire
/// names match the Rust field names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// The context-sensitive analysis started on a program.
    AnalysisStart {
        /// Defined functions in the program.
        functions: usize,
        /// Total basic SIMPLE statements.
        stmts: usize,
    },
    /// The context-sensitive analysis completed successfully.
    AnalysisEnd {
        /// Basic statements processed (budget steps consumed).
        steps: u64,
        /// Final invocation-graph node count.
        ig_nodes: usize,
        /// Recursive nodes among them.
        recursive: usize,
        /// Approximate nodes among them.
        approximate: usize,
        /// Points-to pairs at the exit of `main`.
        exit_pairs: usize,
        /// Non-fatal diagnostics recorded.
        warnings: usize,
    },
    /// An invocation-graph node's body analysis began (Figure 4).
    IgEnter {
        /// Node id.
        node: u32,
        /// Function the node invokes.
        func: String,
        /// Node kind tag (`ordinary` | `recursive` | `approximate`).
        kind: &'static str,
        /// Invocation path from `main` (e.g. `main > f > g`).
        path: String,
        /// Cardinality of the input points-to set.
        input_pairs: usize,
        /// Content fingerprint of the input set (matches the hash in
        /// the paired memo events).
        input_hash: u64,
    },
    /// An invocation-graph node's body analysis finished.
    IgExit {
        /// Node id.
        node: u32,
        /// Function the node invokes.
        func: String,
        /// True when the node produced ⊥ (pending recursive input or a
        /// function that never returns); `out_pairs` is 0 then.
        bottom: bool,
        /// Cardinality of the output points-to set.
        out_pairs: usize,
        /// Fixed-point rounds run over the body (1 for non-recursive).
        rounds: u32,
    },
    /// The node's memoized summary answered a call (§4.3 reuse).
    MemoHit {
        /// Node id.
        node: u32,
        /// Function the node invokes.
        func: String,
        /// Fingerprint of the input set that matched.
        input_hash: u64,
        /// Cardinality of the input set.
        input_pairs: usize,
    },
    /// The memo could not answer; the body will be (re)analysed.
    MemoMiss {
        /// Node id.
        node: u32,
        /// Function the node invokes.
        func: String,
        /// Fingerprint of the unmatched input set.
        input_hash: u64,
        /// Cardinality of the input set.
        input_pairs: usize,
    },
    /// An approximate node deferred: its recursive partner's stored
    /// summary did not cover the input, so the input was queued as
    /// pending and ⊥ returned (Figure 4's fixed-point protocol).
    ApproxDefer {
        /// Node id (of the approximate node).
        node: u32,
        /// Function the node invokes.
        func: String,
        /// Cardinality of the deferred input set.
        input_pairs: usize,
    },
    /// The map process translated a caller's state into a callee
    /// (§4.1): invisible variables got symbolic names.
    Map {
        /// Calling function.
        caller: String,
        /// Called function.
        callee: String,
        /// Symbolic names created for invisible variables.
        invisibles: usize,
        /// Deepest pointer-chain level traversed.
        max_chain_depth: u32,
        /// Cardinality of the assembled callee input set.
        callee_pairs: usize,
        /// Wall-clock time spent mapping, in microseconds.
        dur_us: u64,
    },
    /// The unmap process translated a callee's output back (§4.1).
    Unmap {
        /// The returning function.
        callee: String,
        /// Cardinality of the callee's output set.
        callee_pairs: usize,
        /// Cardinality of the caller-side result set.
        caller_pairs: usize,
        /// Wall-clock time spent unmapping, in microseconds.
        dur_us: u64,
    },
    /// One basic statement's transfer function ran (includes nested
    /// call processing for call statements).
    Stmt {
        /// Statement id.
        stmt: u32,
        /// Enclosing function.
        func: String,
        /// Cardinality of the statement's input points-to set.
        pairs: usize,
        /// Wall-clock time of the transfer, in microseconds.
        dur_us: u64,
    },
    /// Budget consumption heartbeat (every [`crate::budget::DEADLINE_STRIDE`]
    /// processed statements).
    BudgetTick {
        /// Statements processed so far.
        steps: u64,
        /// Wall-clock time since the budget started, in microseconds.
        elapsed_us: u64,
    },
    /// A liveness mask was computed for a function (`prune_liveness`
    /// mode; emitted once per function, at first entry).
    Dataflow {
        /// The function.
        func: String,
        /// Prunable (never-address-taken pointer-carrying) variables.
        prunable: usize,
        /// CFG nodes the solver ran over.
        nodes: usize,
        /// Worklist visits spent.
        visits: usize,
        /// The solve converged within its visit budget (always true for
        /// emitted events — non-converged masks are discarded and the
        /// function is skipped).
        converged: bool,
    },
    /// A demand-sliced run started (emitted right after
    /// `analysis_start` when [`crate::demand`] planned a slice).
    Demand {
        /// Query roots the slice was planned for.
        roots: usize,
        /// Functions analysed in full (the slice).
        slice_functions: usize,
        /// Functions reachable from `main` on the conservative call
        /// graph (the budget denominator).
        reachable_functions: usize,
        /// An unresolved indirect call widened the slice.
        widened: bool,
    },
    /// The degradation ladder moved down a rung.
    Rung {
        /// The fidelity that failed.
        from: &'static str,
        /// The next fidelity attempted.
        to: &'static str,
        /// The budget error that pushed the ladder down.
        reason: String,
    },
}

/// Field lists for one event kind — the machine-readable half of the
/// schema in `docs/TRACING.md` (the `trace-check` bin validates streams
/// and docs against this table).
#[derive(Debug, Clone, Copy)]
pub struct EventSpec {
    /// The `"ev"` tag.
    pub kind: &'static str,
    /// The kind-specific field names, in wire order (every event also
    /// carries the common `ts_us` field).
    pub fields: &'static [&'static str],
}

/// Every event kind the engine can emit, with its fields. Adding a
/// variant to [`TraceEvent`] without extending this table (and
/// `docs/TRACING.md`) fails the schema tests.
pub const EVENT_SPECS: &[EventSpec] = &[
    EventSpec {
        kind: "analysis_start",
        fields: &["functions", "stmts"],
    },
    EventSpec {
        kind: "analysis_end",
        fields: &[
            "steps",
            "ig_nodes",
            "recursive",
            "approximate",
            "exit_pairs",
            "warnings",
        ],
    },
    EventSpec {
        kind: "ig_enter",
        fields: &["node", "func", "kind", "path", "input_pairs", "input_hash"],
    },
    EventSpec {
        kind: "ig_exit",
        fields: &["node", "func", "bottom", "out_pairs", "rounds"],
    },
    EventSpec {
        kind: "memo_hit",
        fields: &["node", "func", "input_hash", "input_pairs"],
    },
    EventSpec {
        kind: "memo_miss",
        fields: &["node", "func", "input_hash", "input_pairs"],
    },
    EventSpec {
        kind: "approx_defer",
        fields: &["node", "func", "input_pairs"],
    },
    EventSpec {
        kind: "map",
        fields: &[
            "caller",
            "callee",
            "invisibles",
            "max_chain_depth",
            "callee_pairs",
            "dur_us",
        ],
    },
    EventSpec {
        kind: "unmap",
        fields: &["callee", "callee_pairs", "caller_pairs", "dur_us"],
    },
    EventSpec {
        kind: "stmt",
        fields: &["stmt", "func", "pairs", "dur_us"],
    },
    EventSpec {
        kind: "budget_tick",
        fields: &["steps", "elapsed_us"],
    },
    EventSpec {
        kind: "dataflow",
        fields: &["func", "prunable", "nodes", "visits", "converged"],
    },
    EventSpec {
        kind: "demand",
        fields: &["roots", "slice_functions", "reachable_functions", "widened"],
    },
    EventSpec {
        kind: "rung",
        fields: &["from", "to", "reason"],
    },
];

impl TraceEvent {
    /// The stable kind tag (the JSONL `"ev"` value).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::AnalysisStart { .. } => "analysis_start",
            TraceEvent::AnalysisEnd { .. } => "analysis_end",
            TraceEvent::IgEnter { .. } => "ig_enter",
            TraceEvent::IgExit { .. } => "ig_exit",
            TraceEvent::MemoHit { .. } => "memo_hit",
            TraceEvent::MemoMiss { .. } => "memo_miss",
            TraceEvent::ApproxDefer { .. } => "approx_defer",
            TraceEvent::Map { .. } => "map",
            TraceEvent::Unmap { .. } => "unmap",
            TraceEvent::Stmt { .. } => "stmt",
            TraceEvent::BudgetTick { .. } => "budget_tick",
            TraceEvent::Dataflow { .. } => "dataflow",
            TraceEvent::Demand { .. } => "demand",
            TraceEvent::Rung { .. } => "rung",
        }
    }
}

/// Operational events of the *serving* layer — distinct from the
/// analysis [`TraceEvent`] stream. `pta serve` emits these on stderr as
/// single JSONL lines in the same `{"ev":…}` wire shape as the
/// per-query `serve-query` metrics records (no `ts_us`: serve events
/// are operational log lines, not a profiling stream). Typed here so
/// every emitter renders identical bytes and [`SERVE_EVENT_SPECS`]
/// stays the single source of truth for the schema in
/// `docs/TRACING.md` / `docs/SERVING.md`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// A store-level fault degraded a tenant: the analysis fell back to
    /// a cold run, or the snapshot write-back failed. Answers stay
    /// correct (the degradation-ladder contract); only warm-start work
    /// is lost.
    Degraded {
        /// The tenant.
        program: String,
        /// Where in the pipeline the fault landed (`"load"` /
        /// `"save"`).
        stage: String,
        /// The underlying store error.
        reason: String,
    },
    /// A connection was shed at accept because the server is at
    /// `--max-conns`; the client got an in-band `overloaded` error.
    Overloaded {
        /// Connections currently being served.
        active: usize,
        /// The configured cap.
        max: usize,
    },
    /// `accept()` failed transiently (e.g. EMFILE); the loop retries
    /// after a capped exponential backoff instead of spinning or
    /// exiting.
    AcceptRetry {
        /// The accept error.
        error: String,
        /// How long the loop backs off before retrying.
        backoff_ms: u64,
    },
    /// A tenant was rebuilt and swapped after its files changed on
    /// disk.
    Reload {
        /// The tenant.
        program: String,
        /// `"warm start (…)"` / `"cold start (…)"`.
        mode: String,
    },
    /// A resident tenant was evicted (LRU).
    Evict {
        /// The tenant.
        program: String,
    },
    /// The server stopped accepting and is draining in-flight
    /// connections before exiting.
    Drain {
        /// Connections still in flight at drain start.
        conns: usize,
    },
}

/// Every serve-layer event kind with its fields, in wire order
/// (mirrors [`EVENT_SPECS`] for the analysis stream).
pub const SERVE_EVENT_SPECS: &[EventSpec] = &[
    EventSpec {
        kind: "serve-degraded",
        fields: &["program", "stage", "reason"],
    },
    EventSpec {
        kind: "serve-overloaded",
        fields: &["active", "max"],
    },
    EventSpec {
        kind: "serve-accept-retry",
        fields: &["error", "backoff_ms"],
    },
    EventSpec {
        kind: "serve-reload",
        fields: &["program", "mode"],
    },
    EventSpec {
        kind: "serve-evict",
        fields: &["program"],
    },
    EventSpec {
        kind: "serve-drain",
        fields: &["conns"],
    },
];

impl ServeEvent {
    /// The stable kind tag (the JSONL `"ev"` value).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::Degraded { .. } => "serve-degraded",
            ServeEvent::Overloaded { .. } => "serve-overloaded",
            ServeEvent::AcceptRetry { .. } => "serve-accept-retry",
            ServeEvent::Reload { .. } => "serve-reload",
            ServeEvent::Evict { .. } => "serve-evict",
            ServeEvent::Drain { .. } => "serve-drain",
        }
    }

    /// Renders the single JSONL line (stable field order, matching
    /// [`SERVE_EVENT_SPECS`]).
    pub fn render(&self) -> String {
        match self {
            ServeEvent::Degraded {
                program,
                stage,
                reason,
            } => format!(
                "{{\"ev\":\"serve-degraded\",\"program\":\"{}\",\"stage\":\"{}\",\"reason\":\"{}\"}}",
                json_escape(program),
                json_escape(stage),
                json_escape(reason)
            ),
            ServeEvent::Overloaded { active, max } => format!(
                "{{\"ev\":\"serve-overloaded\",\"active\":{active},\"max\":{max}}}"
            ),
            ServeEvent::AcceptRetry { error, backoff_ms } => format!(
                "{{\"ev\":\"serve-accept-retry\",\"error\":\"{}\",\"backoff_ms\":{backoff_ms}}}",
                json_escape(error)
            ),
            ServeEvent::Reload { program, mode } => format!(
                "{{\"ev\":\"serve-reload\",\"program\":\"{}\",\"mode\":\"{}\"}}",
                json_escape(program),
                json_escape(mode)
            ),
            ServeEvent::Evict { program } => format!(
                "{{\"ev\":\"serve-evict\",\"program\":\"{}\"}}",
                json_escape(program)
            ),
            ServeEvent::Drain { conns } => {
                format!("{{\"ev\":\"serve-drain\",\"conns\":{conns}}}")
            }
        }
    }

    /// Emits the event where serve events go: one line on stderr.
    pub fn emit(&self) {
        eprintln!("{}", self.render());
    }
}

/// A consumer of trace events. `ts_us` is microseconds since tracing
/// started (the analysis entry point); events arrive in emission order
/// from a single thread.
pub trait TraceSink {
    /// Consumes one event.
    fn event(&mut self, ts_us: u64, ev: &TraceEvent);
}

/// Forwards every event to several sinks (e.g. JSONL + Chrome + metrics
/// in one run, as `pta trace` does).
#[derive(Default)]
pub struct TeeSink<'a> {
    sinks: Vec<&'a mut dyn TraceSink>,
}

impl<'a> TeeSink<'a> {
    /// An empty tee.
    pub fn new() -> Self {
        TeeSink { sinks: Vec::new() }
    }

    /// Adds a downstream sink.
    pub fn push(&mut self, sink: &'a mut dyn TraceSink) {
        self.sinks.push(sink);
    }
}

impl TraceSink for TeeSink<'_> {
    fn event(&mut self, ts_us: u64, ev: &TraceEvent) {
        for s in &mut self.sinks {
            s.event(ts_us, ev);
        }
    }
}

// ---------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------

/// Renders one event as a single JSONL line (no trailing newline).
/// Field order is fixed: `ev`, `ts_us`, then the kind's fields in
/// [`EVENT_SPECS`] order. With `scrub` set, every timing field renders
/// as 0 so streams are byte-identical across runs.
pub fn render_jsonl(ts_us: u64, ev: &TraceEvent, scrub: bool) -> String {
    let t = |us: u64| if scrub { 0 } else { us };
    let mut s = format!("{{\"ev\":\"{}\",\"ts_us\":{}", ev.kind(), t(ts_us));
    match ev {
        TraceEvent::AnalysisStart { functions, stmts } => {
            let _ = write!(s, ",\"functions\":{functions},\"stmts\":{stmts}");
        }
        TraceEvent::AnalysisEnd {
            steps,
            ig_nodes,
            recursive,
            approximate,
            exit_pairs,
            warnings,
        } => {
            let _ = write!(
                s,
                ",\"steps\":{steps},\"ig_nodes\":{ig_nodes},\"recursive\":{recursive},\
                 \"approximate\":{approximate},\"exit_pairs\":{exit_pairs},\"warnings\":{warnings}"
            );
        }
        TraceEvent::IgEnter {
            node,
            func,
            kind,
            path,
            input_pairs,
            input_hash,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"func\":\"{}\",\"kind\":\"{kind}\",\"path\":\"{}\",\
                 \"input_pairs\":{input_pairs},\"input_hash\":\"{input_hash:016x}\"",
                json_escape(func),
                json_escape(path)
            );
        }
        TraceEvent::IgExit {
            node,
            func,
            bottom,
            out_pairs,
            rounds,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"func\":\"{}\",\"bottom\":{bottom},\
                 \"out_pairs\":{out_pairs},\"rounds\":{rounds}",
                json_escape(func)
            );
        }
        TraceEvent::MemoHit {
            node,
            func,
            input_hash,
            input_pairs,
        }
        | TraceEvent::MemoMiss {
            node,
            func,
            input_hash,
            input_pairs,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"func\":\"{}\",\"input_hash\":\"{input_hash:016x}\",\
                 \"input_pairs\":{input_pairs}",
                json_escape(func)
            );
        }
        TraceEvent::ApproxDefer {
            node,
            func,
            input_pairs,
        } => {
            let _ = write!(
                s,
                ",\"node\":{node},\"func\":\"{}\",\"input_pairs\":{input_pairs}",
                json_escape(func)
            );
        }
        TraceEvent::Map {
            caller,
            callee,
            invisibles,
            max_chain_depth,
            callee_pairs,
            dur_us,
        } => {
            let _ = write!(
                s,
                ",\"caller\":\"{}\",\"callee\":\"{}\",\"invisibles\":{invisibles},\
                 \"max_chain_depth\":{max_chain_depth},\"callee_pairs\":{callee_pairs},\
                 \"dur_us\":{}",
                json_escape(caller),
                json_escape(callee),
                t(*dur_us)
            );
        }
        TraceEvent::Unmap {
            callee,
            callee_pairs,
            caller_pairs,
            dur_us,
        } => {
            let _ = write!(
                s,
                ",\"callee\":\"{}\",\"callee_pairs\":{callee_pairs},\
                 \"caller_pairs\":{caller_pairs},\"dur_us\":{}",
                json_escape(callee),
                t(*dur_us)
            );
        }
        TraceEvent::Stmt {
            stmt,
            func,
            pairs,
            dur_us,
        } => {
            let _ = write!(
                s,
                ",\"stmt\":{stmt},\"func\":\"{}\",\"pairs\":{pairs},\"dur_us\":{}",
                json_escape(func),
                t(*dur_us)
            );
        }
        TraceEvent::BudgetTick { steps, elapsed_us } => {
            let _ = write!(s, ",\"steps\":{steps},\"elapsed_us\":{}", t(*elapsed_us));
        }
        TraceEvent::Dataflow {
            func,
            prunable,
            nodes,
            visits,
            converged,
        } => {
            let _ = write!(
                s,
                ",\"func\":\"{}\",\"prunable\":{prunable},\"nodes\":{nodes},\
                 \"visits\":{visits},\"converged\":{converged}",
                json_escape(func)
            );
        }
        TraceEvent::Demand {
            roots,
            slice_functions,
            reachable_functions,
            widened,
        } => {
            let _ = write!(
                s,
                ",\"roots\":{roots},\"slice_functions\":{slice_functions},\
                 \"reachable_functions\":{reachable_functions},\"widened\":{widened}"
            );
        }
        TraceEvent::Rung { from, to, reason } => {
            let _ = write!(
                s,
                ",\"from\":\"{from}\",\"to\":\"{to}\",\"reason\":\"{}\"",
                json_escape(reason)
            );
        }
    }
    s.push('}');
    s
}

/// Collects events as JSON Lines (one object per line, stable field
/// order; schema in `docs/TRACING.md`).
#[derive(Debug, Default)]
pub struct JsonlSink {
    buf: String,
    scrub: bool,
}

impl JsonlSink {
    /// A sink with real timestamps.
    pub fn new() -> Self {
        JsonlSink::default()
    }

    /// A sink that zeroes every timing field (`ts_us`, `dur_us`,
    /// `elapsed_us`) so the stream is byte-identical across runs —
    /// used by the golden tests and determinism checks.
    pub fn scrubbed() -> Self {
        JsonlSink {
            buf: String::new(),
            scrub: true,
        }
    }

    /// The collected stream (newline-terminated lines).
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Borrows the collected stream.
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

impl TraceSink for JsonlSink {
    fn event(&mut self, ts_us: u64, ev: &TraceEvent) {
        self.buf.push_str(&render_jsonl(ts_us, ev, self.scrub));
        self.buf.push('\n');
    }
}

// ---------------------------------------------------------------------
// Chrome trace_events
// ---------------------------------------------------------------------

/// Builds a Chrome `trace_events` document (the JSON object form,
/// `{"traceEvents":[...]}`), loadable in `chrome://tracing` and
/// Perfetto. Invocation-graph activity renders as nested duration
/// slices, statements and map/unmap as complete events, memo and ladder
/// activity as instants, and budget consumption as a counter track.
#[derive(Debug, Default)]
pub struct ChromeTraceSink {
    events: Vec<String>,
    scrub: bool,
}

impl ChromeTraceSink {
    /// A sink with real timestamps.
    pub fn new() -> Self {
        ChromeTraceSink::default()
    }

    /// A sink with all timestamps zeroed (degenerate but valid JSON —
    /// used only to test shape determinism).
    pub fn scrubbed() -> Self {
        ChromeTraceSink {
            events: Vec::new(),
            scrub: true,
        }
    }

    /// Finalizes the document.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(e);
            if i + 1 != self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    fn push(&mut self, ph: char, name: &str, ts: u64, dur: Option<u64>, args: &str) {
        let ts = if self.scrub { 0 } else { ts };
        let mut e = format!(
            "{{\"name\":\"{}\",\"ph\":\"{ph}\",\"ts\":{ts},\"pid\":1,\"tid\":1",
            json_escape(name)
        );
        if let Some(d) = dur {
            let d = if self.scrub { 0 } else { d };
            let _ = write!(e, ",\"dur\":{d}");
        }
        if ph == 'i' {
            e.push_str(",\"s\":\"t\"");
        }
        if !args.is_empty() {
            let _ = write!(e, ",\"args\":{{{args}}}");
        }
        e.push('}');
        self.events.push(e);
    }
}

impl TraceSink for ChromeTraceSink {
    fn event(&mut self, ts_us: u64, ev: &TraceEvent) {
        match ev {
            TraceEvent::AnalysisStart { functions, stmts } => self.push(
                'i',
                "analysis_start",
                ts_us,
                None,
                &format!("\"functions\":{functions},\"stmts\":{stmts}"),
            ),
            TraceEvent::AnalysisEnd {
                steps, ig_nodes, ..
            } => self.push(
                'i',
                "analysis_end",
                ts_us,
                None,
                &format!("\"steps\":{steps},\"ig_nodes\":{ig_nodes}"),
            ),
            TraceEvent::IgEnter {
                node,
                func,
                kind,
                path,
                input_pairs,
                ..
            } => self.push(
                'B',
                func,
                ts_us,
                None,
                &format!(
                    "\"node\":{node},\"kind\":\"{kind}\",\"path\":\"{}\",\"input_pairs\":{input_pairs}",
                    json_escape(path)
                ),
            ),
            TraceEvent::IgExit {
                func,
                out_pairs,
                rounds,
                ..
            } => self.push(
                'E',
                func,
                ts_us,
                None,
                &format!("\"out_pairs\":{out_pairs},\"rounds\":{rounds}"),
            ),
            TraceEvent::MemoHit { node, func, .. } => self.push(
                'i',
                &format!("memo_hit:{func}"),
                ts_us,
                None,
                &format!("\"node\":{node}"),
            ),
            TraceEvent::MemoMiss { node, func, .. } => self.push(
                'i',
                &format!("memo_miss:{func}"),
                ts_us,
                None,
                &format!("\"node\":{node}"),
            ),
            TraceEvent::ApproxDefer { node, func, .. } => self.push(
                'i',
                &format!("approx_defer:{func}"),
                ts_us,
                None,
                &format!("\"node\":{node}"),
            ),
            TraceEvent::Map {
                caller,
                callee,
                invisibles,
                dur_us,
                ..
            } => self.push(
                'X',
                &format!("map:{caller}>{callee}"),
                ts_us.saturating_sub(*dur_us),
                Some(*dur_us),
                &format!("\"invisibles\":{invisibles}"),
            ),
            TraceEvent::Unmap {
                callee,
                caller_pairs,
                dur_us,
                ..
            } => self.push(
                'X',
                &format!("unmap:{callee}"),
                ts_us.saturating_sub(*dur_us),
                Some(*dur_us),
                &format!("\"caller_pairs\":{caller_pairs}"),
            ),
            TraceEvent::Stmt {
                stmt,
                pairs,
                dur_us,
                ..
            } => self.push(
                'X',
                "stmt",
                ts_us.saturating_sub(*dur_us),
                Some(*dur_us),
                &format!("\"stmt\":{stmt},\"pairs\":{pairs}"),
            ),
            TraceEvent::BudgetTick { steps, .. } => {
                self.push('C', "steps", ts_us, None, &format!("\"steps\":{steps}"))
            }
            TraceEvent::Dataflow {
                func,
                prunable,
                visits,
                ..
            } => self.push(
                'i',
                &format!("dataflow:{func}"),
                ts_us,
                None,
                &format!("\"prunable\":{prunable},\"visits\":{visits}"),
            ),
            TraceEvent::Demand {
                slice_functions,
                reachable_functions,
                ..
            } => self.push(
                'i',
                "demand",
                ts_us,
                None,
                &format!(
                    "\"slice_functions\":{slice_functions},\
                     \"reachable_functions\":{reachable_functions}"
                ),
            ),
            TraceEvent::Rung { from, to, reason } => self.push(
                'i',
                &format!("rung:{from}->{to}"),
                ts_us,
                None,
                &format!("\"reason\":\"{}\"", json_escape(reason)),
            ),
        }
    }
}

// ---------------------------------------------------------------------
// In-memory metrics aggregation
// ---------------------------------------------------------------------

/// Per-function slice of [`TraceMetrics`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncMetrics {
    /// Invocation-graph nodes entered for this function (body runs).
    pub enters: u64,
    /// Memoized answers served (ordinary + approximate reuse).
    pub memo_hits: u64,
    /// Memo misses (body had to be (re)analysed).
    pub memo_misses: u64,
    /// Approximate-node deferrals.
    pub approx_defers: u64,
    /// Fixed-point rounds summed over every body run.
    pub rounds: u64,
    /// Basic-statement transfers executed inside this function.
    pub stmts: u64,
    /// Wall-clock microseconds spent in those transfers
    /// (non-deterministic; excluded from deterministic output).
    pub stmt_us: u64,
    /// Map processes targeting this function as the callee.
    pub maps: u64,
    /// Symbolic (invisible-variable) names created mapping into it.
    pub invisibles: u64,
    /// Deepest map pointer chain observed mapping into it.
    pub max_chain_depth: u32,
}

impl FuncMetrics {
    /// Memo hit rate in percent (0 when the node was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.memo_hits as f64 / total as f64
        }
    }
}

/// The in-memory aggregator sink: folds the event stream into
/// per-function and whole-run metrics. All fields except the `*_us`
/// timings are deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMetrics {
    /// Total events observed.
    pub events: u64,
    /// Per-function metrics, keyed by function name (sorted).
    pub per_func: BTreeMap<String, FuncMetrics>,
    /// Whole-run memo hits.
    pub memo_hits: u64,
    /// Whole-run memo misses.
    pub memo_misses: u64,
    /// Map processes run.
    pub maps: u64,
    /// Unmap processes run.
    pub unmaps: u64,
    /// Symbolic names created across all maps.
    pub invisibles: u64,
    /// Deepest map pointer chain across all maps.
    pub max_chain_depth: u32,
    /// Basic-statement transfers executed.
    pub stmt_events: u64,
    /// Budget heartbeats observed.
    pub budget_ticks: u64,
    /// Functions a `prune_liveness` mask was built for.
    pub dataflow_funcs: u64,
    /// Liveness-solver visits summed over those masks.
    pub dataflow_visits: u64,
    /// Demand-sliced runs observed.
    pub demand_runs: u64,
    /// Slice size (functions) summed over those runs.
    pub demand_slice_functions: u64,
    /// Steps reported by `analysis_end` (0 until completion).
    pub steps: u64,
    /// Invocation-graph node count reported by `analysis_end`.
    pub ig_nodes: usize,
    /// Recursive nodes reported by `analysis_end`.
    pub ig_recursive: usize,
    /// Approximate nodes reported by `analysis_end`.
    pub ig_approximate: usize,
    /// Exit-set cardinality reported by `analysis_end`.
    pub exit_pairs: usize,
    /// Warnings reported by `analysis_end`.
    pub warnings: usize,
    /// True once `analysis_end` was seen (the context-sensitive engine
    /// completed; false when the run degraded or failed).
    pub completed: bool,
    /// Ladder transitions, in order: `(from, to, reason)`.
    pub rungs: Vec<(String, String, String)>,
    /// Total microseconds in statement transfers (non-deterministic).
    pub stmt_us: u64,
    /// Total microseconds in map processes (non-deterministic).
    pub map_us: u64,
    /// Total microseconds in unmap processes (non-deterministic).
    pub unmap_us: u64,
}

impl TraceMetrics {
    /// A fresh aggregator.
    pub fn new() -> Self {
        TraceMetrics::default()
    }

    /// Whole-run memo hit rate in percent.
    pub fn hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            100.0 * self.memo_hits as f64 / total as f64
        }
    }

    fn func(&mut self, name: &str) -> &mut FuncMetrics {
        if !self.per_func.contains_key(name) {
            self.per_func
                .insert(name.to_owned(), FuncMetrics::default());
        }
        self.per_func.get_mut(name).expect("inserted above")
    }

    /// Renders the deterministic counters as a JSON object (no
    /// surrounding whitespace; stable key order). Timing fields are
    /// deliberately excluded so the output is byte-identical across
    /// runs and `--jobs` values — this is what the BENCH artifact
    /// embeds.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"completed\":{},\"steps\":{},\"ig_nodes\":{},\"recursive\":{},\
             \"approximate\":{},\"exit_pairs\":{},\"warnings\":{},\"memo_hits\":{},\
             \"memo_misses\":{},\"maps\":{},\"unmaps\":{},\"invisibles\":{},\
             \"max_chain_depth\":{},\"stmt_events\":{},\"per_function\":[",
            self.completed,
            self.steps,
            self.ig_nodes,
            self.ig_recursive,
            self.ig_approximate,
            self.exit_pairs,
            self.warnings,
            self.memo_hits,
            self.memo_misses,
            self.maps,
            self.unmaps,
            self.invisibles,
            self.max_chain_depth,
            self.stmt_events,
        );
        for (i, (name, f)) in self.per_func.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"func\":\"{}\",\"enters\":{},\"memo_hits\":{},\"memo_misses\":{},\
                 \"rounds\":{},\"stmts\":{},\"maps\":{},\"invisibles\":{}}}",
                if i == 0 { "" } else { "," },
                json_escape(name),
                f.enters,
                f.memo_hits,
                f.memo_misses,
                f.rounds,
                f.stmts,
                f.maps,
                f.invisibles,
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders a human-readable profile (the `pta trace --metrics`
    /// output): whole-run counters, phase timings, and a per-function
    /// table sorted by name.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "steps {} | ig nodes {} (R {}, A {}) | memo {}/{} hits ({:.1}%) | maps {} | invisibles {} | max chain depth {}",
            self.steps,
            self.ig_nodes,
            self.ig_recursive,
            self.ig_approximate,
            self.memo_hits,
            self.memo_hits + self.memo_misses,
            self.hit_rate(),
            self.maps,
            self.invisibles,
            self.max_chain_depth,
        );
        let _ = writeln!(
            out,
            "phase time: stmts {:.3} ms | map {:.3} ms | unmap {:.3} ms",
            self.stmt_us as f64 / 1e3,
            self.map_us as f64 / 1e3,
            self.unmap_us as f64 / 1e3,
        );
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>9} {:>10} {:>6} {:>7} {:>8} {:>6} {:>6}",
            "function",
            "enters",
            "memo-hit",
            "memo-miss",
            "hit%",
            "rounds",
            "stmts",
            "maps",
            "invis"
        );
        for (name, f) in &self.per_func {
            let _ = writeln!(
                out,
                "{:<16} {:>7} {:>9} {:>10} {:>5.1}% {:>7} {:>8} {:>6} {:>6}",
                name,
                f.enters,
                f.memo_hits,
                f.memo_misses,
                f.hit_rate(),
                f.rounds,
                f.stmts,
                f.maps,
                f.invisibles,
            );
        }
        out
    }
}

impl TraceSink for TraceMetrics {
    fn event(&mut self, _ts_us: u64, ev: &TraceEvent) {
        self.events += 1;
        match ev {
            TraceEvent::AnalysisStart { .. } => {}
            TraceEvent::AnalysisEnd {
                steps,
                ig_nodes,
                recursive,
                approximate,
                exit_pairs,
                warnings,
            } => {
                self.steps = *steps;
                self.ig_nodes = *ig_nodes;
                self.ig_recursive = *recursive;
                self.ig_approximate = *approximate;
                self.exit_pairs = *exit_pairs;
                self.warnings = *warnings;
                self.completed = true;
            }
            TraceEvent::IgEnter { func, .. } => self.func(func).enters += 1,
            TraceEvent::IgExit { func, rounds, .. } => {
                self.func(func).rounds += u64::from(*rounds);
            }
            TraceEvent::MemoHit { func, .. } => {
                self.memo_hits += 1;
                self.func(func).memo_hits += 1;
            }
            TraceEvent::MemoMiss { func, .. } => {
                self.memo_misses += 1;
                self.func(func).memo_misses += 1;
            }
            TraceEvent::ApproxDefer { func, .. } => self.func(func).approx_defers += 1,
            TraceEvent::Map {
                callee,
                invisibles,
                max_chain_depth,
                dur_us,
                ..
            } => {
                self.maps += 1;
                self.invisibles += *invisibles as u64;
                self.max_chain_depth = self.max_chain_depth.max(*max_chain_depth);
                self.map_us += dur_us;
                let f = self.func(callee);
                f.maps += 1;
                f.invisibles += *invisibles as u64;
                f.max_chain_depth = f.max_chain_depth.max(*max_chain_depth);
            }
            TraceEvent::Unmap { dur_us, .. } => {
                self.unmaps += 1;
                self.unmap_us += dur_us;
            }
            TraceEvent::Stmt { func, dur_us, .. } => {
                self.stmt_events += 1;
                self.stmt_us += dur_us;
                let f = self.func(func);
                f.stmts += 1;
                f.stmt_us += dur_us;
            }
            TraceEvent::BudgetTick { .. } => self.budget_ticks += 1,
            TraceEvent::Dataflow { visits, .. } => {
                self.dataflow_funcs += 1;
                self.dataflow_visits += *visits as u64;
            }
            TraceEvent::Demand {
                slice_functions, ..
            } => {
                self.demand_runs += 1;
                self.demand_slice_functions += *slice_functions as u64;
            }
            TraceEvent::Rung { from, to, reason } => {
                self.rungs
                    .push(((*from).to_owned(), (*to).to_owned(), reason.clone()));
            }
        }
    }
}

// ---------------------------------------------------------------------
// The engine-side handle
// ---------------------------------------------------------------------

/// The analyzer's tracing handle: an optional sink plus the trace
/// clock. Every trace point goes through [`Tracer::emit`], which builds
/// the event only when a sink is attached — the disabled path is a
/// single branch with no allocation, formatting, or clock read.
pub(crate) struct Tracer<'a> {
    sink: Option<&'a mut dyn TraceSink>,
    start: Instant,
}

impl<'a> Tracer<'a> {
    /// A tracer over an optional sink (starts the trace clock).
    pub(crate) fn new(sink: Option<&'a mut dyn TraceSink>) -> Self {
        Tracer {
            sink,
            start: Instant::now(),
        }
    }

    /// True when a sink is attached. Callers use this to gate the
    /// construction of expensive event inputs (paths, names, hashes).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits an event; the closure runs only when a sink is attached.
    #[inline]
    pub(crate) fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            let ts = self.start.elapsed().as_micros() as u64;
            sink.event(ts, &build());
        }
    }

    /// The current clock reading, only when tracing (for duration
    /// measurements around a phase).
    #[inline]
    pub(crate) fn now(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_has_a_spec_and_vice_versa() {
        let reps: Vec<TraceEvent> = vec![
            TraceEvent::AnalysisStart {
                functions: 1,
                stmts: 2,
            },
            TraceEvent::AnalysisEnd {
                steps: 1,
                ig_nodes: 2,
                recursive: 0,
                approximate: 0,
                exit_pairs: 3,
                warnings: 0,
            },
            TraceEvent::IgEnter {
                node: 0,
                func: "f".into(),
                kind: "ordinary",
                path: "main > f".into(),
                input_pairs: 1,
                input_hash: 7,
            },
            TraceEvent::IgExit {
                node: 0,
                func: "f".into(),
                bottom: false,
                out_pairs: 1,
                rounds: 1,
            },
            TraceEvent::MemoHit {
                node: 0,
                func: "f".into(),
                input_hash: 7,
                input_pairs: 1,
            },
            TraceEvent::MemoMiss {
                node: 0,
                func: "f".into(),
                input_hash: 7,
                input_pairs: 1,
            },
            TraceEvent::ApproxDefer {
                node: 0,
                func: "f".into(),
                input_pairs: 1,
            },
            TraceEvent::Map {
                caller: "main".into(),
                callee: "f".into(),
                invisibles: 1,
                max_chain_depth: 2,
                callee_pairs: 3,
                dur_us: 4,
            },
            TraceEvent::Unmap {
                callee: "f".into(),
                callee_pairs: 1,
                caller_pairs: 2,
                dur_us: 3,
            },
            TraceEvent::Stmt {
                stmt: 1,
                func: "f".into(),
                pairs: 2,
                dur_us: 3,
            },
            TraceEvent::BudgetTick {
                steps: 64,
                elapsed_us: 1,
            },
            TraceEvent::Dataflow {
                func: "f".into(),
                prunable: 2,
                nodes: 5,
                visits: 9,
                converged: true,
            },
            TraceEvent::Demand {
                roots: 1,
                slice_functions: 3,
                reachable_functions: 12,
                widened: false,
            },
            TraceEvent::Rung {
                from: "context-sensitive",
                to: "context-insensitive",
                reason: "over budget".into(),
            },
        ];
        assert_eq!(reps.len(), EVENT_SPECS.len());
        for ev in &reps {
            let spec = EVENT_SPECS
                .iter()
                .find(|s| s.kind == ev.kind())
                .unwrap_or_else(|| panic!("no spec for `{}`", ev.kind()));
            let line = render_jsonl(0, ev, false);
            for field in spec.fields {
                assert!(
                    line.contains(&format!("\"{field}\":")),
                    "`{}` line misses `{field}`: {line}",
                    ev.kind()
                );
            }
        }
    }

    #[test]
    fn serve_events_render_their_full_spec() {
        let reps = [
            ServeEvent::Degraded {
                program: "a".into(),
                stage: "save".into(),
                reason: "injected fault at point 2 (save.write)".into(),
            },
            ServeEvent::Overloaded { active: 4, max: 4 },
            ServeEvent::AcceptRetry {
                error: "Too many open files".into(),
                backoff_ms: 40,
            },
            ServeEvent::Reload {
                program: "a".into(),
                mode: "warm start (3 replayed pairs, 0 dirty functions)".into(),
            },
            ServeEvent::Evict {
                program: "a".into(),
            },
            ServeEvent::Drain { conns: 2 },
        ];
        assert_eq!(reps.len(), SERVE_EVENT_SPECS.len());
        for ev in &reps {
            let spec = SERVE_EVENT_SPECS
                .iter()
                .find(|s| s.kind == ev.kind())
                .unwrap_or_else(|| panic!("no spec for `{}`", ev.kind()));
            let line = ev.render();
            assert!(
                line.starts_with(&format!("{{\"ev\":\"{}\"", ev.kind())),
                "{line}"
            );
            for field in spec.fields {
                assert!(
                    line.contains(&format!("\"{field}\":")),
                    "`{}` line misses `{field}`: {line}",
                    ev.kind()
                );
            }
        }
        // The reload/evict lines are pinned byte-for-byte: scripts and
        // older logs grep for exactly this shape.
        assert_eq!(
            reps[4].render(),
            "{\"ev\":\"serve-evict\",\"program\":\"a\"}"
        );
    }

    #[test]
    fn scrubbed_lines_zero_every_timing() {
        let ev = TraceEvent::Stmt {
            stmt: 3,
            func: "main".into(),
            pairs: 5,
            dur_us: 999,
        };
        let line = render_jsonl(123_456, &ev, true);
        assert!(line.contains("\"ts_us\":0"), "{line}");
        assert!(line.contains("\"dur_us\":0"), "{line}");
        let raw = render_jsonl(123_456, &ev, false);
        assert!(raw.contains("\"ts_us\":123456"), "{raw}");
        assert!(raw.contains("\"dur_us\":999"), "{raw}");
    }

    #[test]
    fn metrics_aggregate_per_function() {
        let mut m = TraceMetrics::new();
        m.event(
            0,
            &TraceEvent::MemoMiss {
                node: 1,
                func: "f".into(),
                input_hash: 1,
                input_pairs: 2,
            },
        );
        m.event(
            0,
            &TraceEvent::MemoHit {
                node: 1,
                func: "f".into(),
                input_hash: 1,
                input_pairs: 2,
            },
        );
        m.event(
            0,
            &TraceEvent::Stmt {
                stmt: 0,
                func: "f".into(),
                pairs: 1,
                dur_us: 10,
            },
        );
        assert_eq!(m.memo_hits, 1);
        assert_eq!(m.memo_misses, 1);
        assert!((m.hit_rate() - 50.0).abs() < 1e-9);
        let f = &m.per_func["f"];
        assert_eq!((f.memo_hits, f.memo_misses, f.stmts), (1, 1, 1));
        let js = m.to_json();
        assert!(js.contains("\"memo_hits\":1"), "{js}");
        assert!(!js.contains("stmt_us"), "timings must stay out: {js}");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let mut c = ChromeTraceSink::new();
        c.event(
            0,
            &TraceEvent::IgEnter {
                node: 0,
                func: "main".into(),
                kind: "ordinary",
                path: "main".into(),
                input_pairs: 0,
                input_hash: 0,
            },
        );
        c.event(
            5,
            &TraceEvent::IgExit {
                node: 0,
                func: "main".into(),
                bottom: false,
                out_pairs: 2,
                rounds: 1,
            },
        );
        let doc = c.finish();
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(doc.contains("\"traceEvents\""), "{doc}");
        assert!(doc.contains("\"ph\":\"B\"") && doc.contains("\"ph\":\"E\""));
    }

    #[test]
    fn tee_forwards_to_every_sink() {
        let mut a = TraceMetrics::new();
        let mut b = JsonlSink::scrubbed();
        {
            let mut tee = TeeSink::new();
            tee.push(&mut a);
            tee.push(&mut b);
            tee.event(
                1,
                &TraceEvent::BudgetTick {
                    steps: 64,
                    elapsed_us: 2,
                },
            );
        }
        assert_eq!(a.budget_ticks, 1);
        assert!(b.as_str().contains("budget_tick"));
    }
}
