//! # pta-store — a versioned on-disk fact database
//!
//! Persists a completed analysis run — interned locations, the final
//! per-statement points-to facts, the invocation graph with its
//! memoized context pairs (and their captured side outputs), lint
//! findings, and per-function source fingerprints — into a single
//! deterministic snapshot file, and warms later runs from it:
//!
//! - [`Snapshot::build`] / [`save`] / [`load`] / [`verify`] move facts
//!   between the engine and disk; the [`format`] module defines the
//!   text encoding (header, schema version, payload checksum).
//! - [`warm_start`] validates a snapshot against a (possibly edited)
//!   program and harvests every *clean* memoized context pair — one
//!   whose entire invocation subtree only touches functions with
//!   unchanged fingerprints — as warm seeds.
//! - [`analyze_incremental`] is the drop-in entry point: warm when the
//!   snapshot is usable, and a graceful cold run (never a failure) on
//!   any [`StoreError`] — missing file, corruption, foreign version,
//!   changed skeleton or configuration.
//! - [`canonical_facts`] renders results at the *name* level so that a
//!   warm (incrementally re-analysed) run can be compared byte-for-byte
//!   against a cold run of the same program, which is the correctness
//!   contract the tier-1 tests pin down.
//! - [`serve`] answers `points-to` / `aliases?` / `call-targets` /
//!   `lint` queries over a loaded snapshot as a JSONL request/response
//!   protocol (the `pta serve` subcommand); [`tenant`] puts many
//!   programs behind one server (LRU snapshot cache, graceful reload)
//!   and [`server`] carries the protocol over TCP / Unix-domain
//!   sockets with per-connection scoped threads. [`json`] is the
//!   shared hand-rolled JSON layer beneath all of it.

pub mod demand;
pub mod fault;
pub mod format;
pub mod json;
pub mod serve;
pub mod server;
pub mod tenant;

pub use demand::DemandEngine;
pub use fault::{FaultMode, FaultPlan};
pub use format::{parse, serialize, FnRow, LintRow, NodeRow, Snapshot, StoreError, MAGIC};
pub use serve::ServeEngine;
pub use server::{connect, parse_listen, LineHandler, ListenAddr, Listener, ServeOptions};
pub use tenant::{Router, TenantCache, TenantEngine, TenantSpec};

use pta_cfront::ast::FuncId;
use pta_core::analysis::{
    analyze_recorded, analyze_seeded, AnalysisConfig, AnalysisError, AnalysisResult, EngineRun,
    WarmPair, WarmSeeds, WarmStart,
};
use pta_core::fingerprint;
use pta_core::invocation_graph::{IgKind, IgNode, IgNodeId, InvocationGraph};
use pta_core::location::{LocBase, LocId, LocationTable};
use pta_core::points_to_set::{Def, PtSet};
use pta_lint::Diagnostic;
use pta_simple::{CallSiteId, IrProgram, StmtId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

impl Snapshot {
    /// Captures a completed recorded run (plus its lint findings) as a
    /// snapshot of the given program and configuration.
    pub fn build(
        ir: &IrProgram,
        config: &AnalysisConfig,
        run: &EngineRun,
        lint: &[Diagnostic],
    ) -> Snapshot {
        let result = &run.result;
        let functions = (0..ir.functions.len() as u32)
            .map(|f| FnRow {
                func: f,
                fp: fingerprint::function(ir, FuncId(f)),
                name: ir.functions[f as usize].name.clone(),
            })
            .collect();
        let locs = result
            .locs
            .ids()
            .map(|id| result.locs.get(id).clone())
            .collect();
        let nodes = result
            .ig
            .iter()
            .map(|(_, n)| NodeRow {
                func: n.func.0,
                parent: n.parent.map(|p| p.0),
                kind: n.kind,
                rec: n.rec_edge.map(|r| r.0),
                memo_valid: n.memo_valid,
                stored_input: n.stored_input.clone(),
                stored_output: n.stored_output.clone(),
                map_info: n.map_info.clone(),
                children: n
                    .children
                    .iter()
                    .map(|(&(cs, f), &id)| (cs.0, f.0, id.0))
                    .collect(),
            })
            .collect();
        let lint = lint
            .iter()
            .map(|d| LintRow {
                check_id: d.check_id.to_owned(),
                severity: d.severity,
                fidelity: d.fidelity,
                function: d.function.clone(),
                stmt: d.stmt.map(|s| s.0),
                span: (d.span.start, d.span.end, d.span.line, d.span.col),
                message: d.message.clone(),
            })
            .collect();
        Snapshot {
            skeleton: fingerprint::skeleton(ir),
            config: fingerprint::config(config),
            functions,
            syms: result.locs.symbolic_entries().to_vec(),
            locs,
            nodes,
            root: if result.ig.is_empty() {
                None
            } else {
                Some(result.ig.root().0)
            },
            captures: run.node_captures.clone(),
            per_stmt: result.per_stmt.clone(),
            exit_set: result.exit_set.clone(),
            warnings: result.warnings.clone(),
            escapes: result.escapes.clone(),
            lint: lint_sorted(lint),
        }
    }

    /// The lint findings as [`Diagnostic`]s (check ids resolved against
    /// the live registry; [`format::parse`] already validated them).
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let checks = pta_lint::all_checks();
        self.lint
            .iter()
            .filter_map(|l| {
                let id = checks.iter().map(|c| c.id()).find(|id| *id == l.check_id)?;
                Some(Diagnostic {
                    check_id: id,
                    severity: l.severity,
                    fidelity: l.fidelity,
                    function: l.function.clone(),
                    stmt: l.stmt.map(StmtId),
                    span: pta_cfront::Span {
                        start: l.span.0,
                        end: l.span.1,
                        line: l.span.2,
                        col: l.span.3,
                    },
                    message: l.message.clone(),
                })
            })
            .collect()
    }
}

fn lint_sorted(mut rows: Vec<LintRow>) -> Vec<LintRow> {
    // `lint_ir` already emits deterministically, but the snapshot should
    // not depend on that: sort by position, then check, then message.
    rows.sort_by(|a, b| {
        (a.span, &a.function, &a.check_id, &a.message).cmp(&(
            b.span,
            &b.function,
            &b.check_id,
            &b.message,
        ))
    });
    rows
}

/// Writes a snapshot to `path` in the canonical text form,
/// **crash-safely**: the bytes go to a same-directory tempfile which is
/// written, fsynced, and atomically renamed over `path`, then the
/// directory itself is fsynced. A crash (or injected fault, see
/// [`fault`]) at any point leaves either the complete old snapshot or
/// the complete new one at `path` — never a torn file.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure. On error the target file
/// is untouched and the tempfile is removed (best effort).
pub fn save(path: &Path, snap: &Snapshot) -> Result<(), StoreError> {
    atomic_write(path, serialize(snap).as_bytes())
        .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))
}

/// The tempfile-then-rename write behind [`save`], with every I/O step
/// a numbered [`fault`] point.
fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_owned());
    // Same directory as the target: rename(2) is only atomic within a
    // filesystem. The pid keeps concurrent processes off each other's
    // tempfiles; within a process, saves of one path are serialized by
    // the tenant cache lock.
    let tmp = dir.join(format!(".{file_name}.tmp.{}", std::process::id()));
    let result = (|| {
        if fault::check(fault::SAVE_CREATE).is_some() {
            return Err(fault::injected_error(fault::SAVE_CREATE));
        }
        let mut f = std::fs::File::create(&tmp)?;
        match fault::check(fault::SAVE_WRITE) {
            Some(FaultMode::Truncate) => {
                // A torn write: half the payload reaches the tempfile,
                // then the "crash".
                f.write_all(&bytes[..bytes.len() / 2])?;
                return Err(fault::injected_error(fault::SAVE_WRITE));
            }
            Some(FaultMode::Fail) => return Err(fault::injected_error(fault::SAVE_WRITE)),
            None => {}
        }
        f.write_all(bytes)?;
        if fault::check(fault::SAVE_SYNC).is_some() {
            return Err(fault::injected_error(fault::SAVE_SYNC));
        }
        f.sync_all()?;
        drop(f);
        if fault::check(fault::SAVE_RENAME).is_some() {
            return Err(fault::injected_error(fault::SAVE_RENAME));
        }
        std::fs::rename(&tmp, path)?;
        if fault::check(fault::SAVE_DIRSYNC).is_some() {
            return Err(fault::injected_error(fault::SAVE_DIRSYNC));
        }
        // fsync the directory so the rename itself is durable; skipped
        // silently where directories cannot be opened for sync.
        if let Ok(d) = std::fs::File::open(dir) {
            d.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and parses a snapshot from `path`.
///
/// # Errors
///
/// [`StoreError::Io`] on filesystem failure, or any [`format::parse`]
/// error.
pub fn load(path: &Path) -> Result<Snapshot, StoreError> {
    let mut text = std::fs::read_to_string(path)
        .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
    match fault::check(fault::LOAD_READ) {
        Some(FaultMode::Truncate) => {
            // A torn read: the checksum line sees half a payload and the
            // caller degrades to a cold run.
            text.truncate(text.len() / 2);
        }
        Some(FaultMode::Fail) => {
            return Err(StoreError::Io(format!(
                "{}: {}",
                path.display(),
                fault::injected_error(fault::LOAD_READ)
            )))
        }
        None => {}
    }
    parse(&text)
}

/// What [`verify`] found in a well-formed snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifySummary {
    /// Fingerprinted functions.
    pub functions: usize,
    /// Interned locations.
    pub locations: usize,
    /// Invocation-graph nodes.
    pub nodes: usize,
    /// Memoized context pairs (non-approximate, memo-valid nodes).
    pub pairs: usize,
    /// Persisted lint findings.
    pub lint: usize,
}

/// Deep-verifies snapshot text: checksum, structural parse, location
/// table replay, invocation-graph cross-reference validation, and
/// range checks on every persisted points-to set and capture.
///
/// # Errors
///
/// The first [`StoreError`] found.
pub fn verify(text: &str) -> Result<VerifySummary, StoreError> {
    let snap = parse(text)?;
    rebuild_locs(&snap)?;
    let ig = rebuild_ig(&snap)?;
    let n_locs = snap.locs.len();
    let corrupt = |msg: &str| StoreError::Corrupt {
        line: 0,
        msg: msg.to_owned(),
    };
    let check_set = |set: &PtSet| -> Result<(), StoreError> {
        for (a, b, _) in set.iter() {
            if a.0 as usize >= n_locs || b.0 as usize >= n_locs {
                return Err(corrupt("points-to set references an unknown location"));
            }
        }
        Ok(())
    };
    for set in snap.per_stmt.values() {
        check_set(set)?;
    }
    check_set(&snap.exit_set)?;
    let mut pairs = 0;
    for row in &snap.nodes {
        if let Some(s) = &row.stored_input {
            check_set(s)?;
        }
        if let Some(s) = &row.stored_output {
            check_set(s)?;
        }
        for (k, v) in &row.map_info {
            if k.0 as usize >= n_locs || v.iter().any(|l| l.0 as usize >= n_locs) {
                return Err(corrupt("map information references an unknown location"));
            }
        }
        if row.kind != IgKind::Approximate && row.memo_valid && row.stored_input.is_some() {
            pairs += 1;
        }
    }
    for (&node, cap) in &snap.captures {
        if node as usize >= snap.nodes.len() {
            return Err(corrupt("capture references an unknown node"));
        }
        for set in cap.per_stmt.values() {
            check_set(set)?;
        }
    }
    let _ = ig;
    Ok(VerifySummary {
        functions: snap.functions.len(),
        locations: n_locs,
        nodes: snap.nodes.len(),
        pairs,
        lint: snap.lint.len(),
    })
}

/// Replays the snapshot's location rows into a fresh table, restoring
/// the symbolic registry first so ids come out identical to save time.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if rows are out of id order (duplicates) or
/// reference unknown symbolic entries.
pub fn rebuild_locs(snap: &Snapshot) -> Result<LocationTable, StoreError> {
    let corrupt = |msg: &str| StoreError::Corrupt {
        line: 0,
        msg: msg.to_owned(),
    };
    let mut table = LocationTable::new();
    for s in &snap.syms {
        table.restore_symbolic(s.func, &s.name, s.depth, s.ty.clone());
    }
    for (i, row) in snap.locs.iter().enumerate() {
        if let LocBase::Symbolic(_, idx) = row.base {
            if idx as usize >= snap.syms.len() {
                return Err(corrupt("location references an unknown symbolic entry"));
            }
        }
        let id = table.intern(
            row.base.clone(),
            row.projs.clone(),
            row.ty.clone(),
            row.name.clone(),
        );
        if id.0 as usize != i {
            return Err(corrupt("location rows are not in id order"));
        }
    }
    Ok(table)
}

/// Reassembles the invocation graph from the snapshot's node rows,
/// running the full cross-reference validation of
/// [`InvocationGraph::from_nodes`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on any inconsistency.
pub fn rebuild_ig(snap: &Snapshot) -> Result<InvocationGraph, StoreError> {
    let corrupt = |msg: String| StoreError::Corrupt { line: 0, msg };
    let mut nodes = Vec::with_capacity(snap.nodes.len());
    for row in &snap.nodes {
        let mut children = BTreeMap::new();
        for &(cs, f, id) in &row.children {
            children.insert((CallSiteId(cs), FuncId(f)), IgNodeId(id));
        }
        if children.len() != row.children.len() {
            return Err(corrupt("duplicate child call-site key".to_owned()));
        }
        nodes.push(IgNode {
            func: FuncId(row.func),
            parent: row.parent.map(IgNodeId),
            kind: row.kind,
            rec_edge: row.rec.map(IgNodeId),
            children,
            stored_input: row.stored_input.clone(),
            stored_output: row.stored_output.clone(),
            memo_valid: row.memo_valid,
            pending: Vec::new(),
            map_info: row.map_info.clone(),
        });
    }
    InvocationGraph::from_nodes(nodes, snap.root.map(IgNodeId)).map_err(corrupt)
}

/// Reconstitutes the saved run as a plain [`AnalysisResult`] — what the
/// serve engine queries without re-running any analysis.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if locations or graph fail validation.
pub fn reload_result(snap: &Snapshot) -> Result<AnalysisResult, StoreError> {
    Ok(AnalysisResult {
        locs: rebuild_locs(snap)?,
        ig: rebuild_ig(snap)?,
        per_stmt: snap.per_stmt.clone(),
        exit_set: snap.exit_set.clone(),
        warnings: snap.warnings.clone(),
        escapes: snap.escapes.clone(),
        prune: Default::default(),
    })
}

/// What [`warm_start`] decided about a usable snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarmInfo {
    /// Names of functions whose fingerprint changed (re-analysed cold).
    pub dirty: Vec<String>,
    /// Number of context pairs harvested as warm seeds.
    pub pairs: usize,
}

/// Validates a snapshot against a (possibly edited) program and
/// harvests warm seeds: the preloaded location table (refreshed for
/// dirty functions) plus every memoized context pair whose entire
/// invocation subtree is clean.
///
/// # Errors
///
/// [`StoreError::Skeleton`] / [`StoreError::Config`] when the program
/// shape or configuration changed (dense ids would be meaningless), or
/// [`StoreError::Corrupt`] for internal inconsistencies.
pub fn warm_start(
    ir: &IrProgram,
    config: &AnalysisConfig,
    snap: &Snapshot,
) -> Result<(WarmStart, WarmInfo), StoreError> {
    if snap.skeleton != fingerprint::skeleton(ir) {
        return Err(StoreError::Skeleton);
    }
    if snap.config != fingerprint::config(config) {
        return Err(StoreError::Config);
    }
    if snap.functions.len() != ir.functions.len() {
        return Err(StoreError::Corrupt {
            line: 0,
            msg: "function rows do not cover the program".to_owned(),
        });
    }
    let mut dirty: BTreeSet<FuncId> = BTreeSet::new();
    for row in &snap.functions {
        if row.func as usize >= ir.functions.len() {
            return Err(StoreError::Corrupt {
                line: 0,
                msg: "function row out of range".to_owned(),
            });
        }
        if fingerprint::function(ir, FuncId(row.func)) != row.fp {
            dirty.insert(FuncId(row.func));
        }
    }
    let mut locs = rebuild_locs(snap)?;
    locs.refresh_for(ir, &dirty);
    let ig = rebuild_ig(snap)?;
    for &node in snap.captures.keys() {
        if node as usize >= snap.nodes.len() {
            return Err(StoreError::Corrupt {
                line: 0,
                msg: "capture references an unknown node".to_owned(),
            });
        }
    }
    let mut seeds = WarmSeeds::default();
    let mut pairs = 0;
    for (id, node) in ig.iter() {
        if node.kind == IgKind::Approximate || !node.memo_valid {
            continue;
        }
        let Some(input) = &node.stored_input else {
            continue;
        };
        let Some(cap) = snap.captures.get(&id.0) else {
            continue;
        };
        if !cap.complete {
            continue;
        }
        let Some(fragment) = ig.extract_fragment(id) else {
            continue;
        };
        if fragment.functions().iter().any(|f| dirty.contains(f)) {
            continue;
        }
        if seeds.insert(
            node.func,
            WarmPair {
                input: input.clone(),
                output: node.stored_output.clone(),
                capture: std::sync::Arc::clone(cap),
                fragment,
            },
        ) {
            pairs += 1;
        }
    }
    let dirty_names = dirty.iter().map(|f| ir.function(*f).name.clone()).collect();
    Ok((
        WarmStart { locs, seeds },
        WarmInfo {
            dirty: dirty_names,
            pairs,
        },
    ))
}

/// Why an incremental run fell back to a cold analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColdReason {
    /// No snapshot was offered.
    NoSnapshot,
    /// The snapshot was unusable (corrupt, foreign version, changed
    /// skeleton or configuration, …).
    Store(StoreError),
}

/// How an incremental run actually executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmMode {
    /// Seeded from a snapshot.
    Warm {
        /// Memo hits served from warm seeds.
        seed_hits: usize,
        /// Dirty (re-analysed) function names.
        dirty: Vec<String>,
        /// Pairs harvested from the snapshot.
        pairs: usize,
    },
    /// Full cold analysis.
    Cold(ColdReason),
}

/// An incremental analysis run: the engine output plus how it ran.
#[derive(Debug)]
pub struct IncrementalRun {
    /// The (capturing) engine run — ready to be snapshotted again.
    pub run: EngineRun,
    /// Warm or cold, and why.
    pub mode: WarmMode,
}

/// Analyses `ir`, warmed from `snap` when possible. Every store-level
/// problem — no snapshot, corruption, foreign version, changed skeleton
/// or configuration — degrades to a cold recorded run; the analysis
/// itself is the only thing that can fail.
///
/// The correctness contract (pinned by the tier-1 tests): the result is
/// byte-identical, at the fact level ([`canonical_facts`]), to a cold
/// run of the same program under the same configuration.
///
/// # Errors
///
/// Only [`AnalysisError`] — never a [`StoreError`].
pub fn analyze_incremental(
    ir: &IrProgram,
    config: &AnalysisConfig,
    snap: Option<&Snapshot>,
) -> Result<IncrementalRun, AnalysisError> {
    let cold = |reason: ColdReason| -> Result<IncrementalRun, AnalysisError> {
        Ok(IncrementalRun {
            run: analyze_recorded(ir, config.clone())?,
            mode: WarmMode::Cold(reason),
        })
    };
    let Some(snap) = snap else {
        return cold(ColdReason::NoSnapshot);
    };
    match warm_start(ir, config, snap) {
        Ok((warm, info)) => {
            let run = analyze_seeded(ir, config.clone(), warm, true)?;
            let seed_hits = run.seed_hits;
            Ok(IncrementalRun {
                run,
                mode: WarmMode::Warm {
                    seed_hits,
                    dirty: info.dirty,
                    pairs: info.pairs,
                },
            })
        }
        Err(e) => cold(ColdReason::Store(e)),
    }
}

fn qualified_name(ir: &IrProgram, result: &AnalysisResult, id: LocId) -> String {
    let scope = match result.locs.get(id).base {
        LocBase::Var(f, _) | LocBase::Symbolic(f, _) | LocBase::Ret(f) => {
            Some(&ir.function(f).name)
        }
        _ => None,
    };
    match scope {
        Some(f) => format!("{f}::{}", result.locs.name(id)),
        None => result.locs.name(id).to_owned(),
    }
}

fn render_set(ir: &IrProgram, result: &AnalysisResult, set: &PtSet) -> Vec<String> {
    let mut lines: Vec<String> = set
        .iter()
        .map(|(a, b, d)| {
            format!(
                "{} -> {} {}",
                qualified_name(ir, result, a),
                qualified_name(ir, result, b),
                match d {
                    Def::D => "D",
                    Def::P => "P",
                }
            )
        })
        .collect();
    lines.sort();
    lines.dedup();
    lines
}

/// Renders an analysis result at the *name* level (function-qualified
/// location names, no ids), deterministically. Two runs of the same
/// program — one cold, one incrementally warmed from a snapshot of an
/// *earlier* version — must render byte-identically; this is the
/// comparator behind the incremental-correctness tests and the CI
/// round-trip diff.
pub fn canonical_facts(ir: &IrProgram, result: &AnalysisResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (stmt, set) in &result.per_stmt {
        for line in render_set(ir, result, set) {
            let _ = writeln!(out, "s{} {}", stmt.0, line);
        }
    }
    for line in render_set(ir, result, &result.exit_set) {
        let _ = writeln!(out, "exit {line}");
    }
    for w in &result.warnings {
        let _ = writeln!(out, "warn {w}");
    }
    for e in &result.escapes {
        let _ = writeln!(
            out,
            "escape {} s{} {:?} {:?} {}",
            ir.function(e.callee).name,
            e.call_site.0,
            e.via,
            e.def,
            e.local
        );
    }
    let s = result.ig.stats();
    let _ = writeln!(
        out,
        "ig nodes={} recursive={} approximate={} functions={}",
        s.nodes, s.recursive, s.approximate, s.functions
    );
    out
}

/// Inserts a semantically inert statement (`if (0) { }`) in front of
/// the last `return` of the source, changing exactly one function's
/// body fingerprint. Returns `None` when the source has no `return`.
/// Test helper for the mutate-one-function incrementality properties.
pub fn perturb_source(source: &str) -> Option<String> {
    let at = source.rfind("return")?;
    let mut out = String::with_capacity(source.len() + 12);
    out.push_str(&source[..at]);
    out.push_str("if (0) { } ");
    out.push_str(&source[at..]);
    Some(out)
}
