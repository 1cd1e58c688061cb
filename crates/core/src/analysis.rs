//! The analysis driver: configuration, results, and the top-level
//! [`analyze`] entry point.

use crate::budget::{Budget, BudgetKind, Exhausted, TripPoint};
use crate::dense::FxHashMap;
use crate::invocation_graph::{IgFragment, IgNodeId, InvocationGraph};
use crate::location::{LocId, LocationTable, Proj};
use crate::lvalue::RefEnv;
use crate::points_to_set::{Def, Flow, PtSet};
use crate::trace::{TraceEvent, TraceSink, Tracer};
use pta_cfront::ast::FuncId;
use pta_cfront::types::Type;
use pta_simple::{CallSiteId, IrProgram, StmtId};
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// How far a completed calling context is reused.
///
/// Both scopes run the one invocation-graph engine and give the same
/// answers, id for id; they differ only in which memo a call consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoScope {
    /// Figure 4: each invocation-graph node remembers its own last
    /// context pair.
    #[default]
    Node,
    /// Value contexts: a finished pair of a function whose conservative
    /// call closure is recursion-free is also published program-wide,
    /// so an input analysed at one call site is replayed at every other
    /// site that produces it.
    Program,
}

impl MemoScope {
    /// Parses a `--memo` flag value.
    pub fn parse(s: &str) -> Option<MemoScope> {
        match s {
            "node" => Some(MemoScope::Node),
            "program" => Some(MemoScope::Program),
            _ => None,
        }
    }
}

/// Tunable parameters of the analysis, including its resource budgets.
///
/// Every budget exhaustion surfaces as a distinct [`AnalysisError`]
/// variant; [`crate::resilient::analyze_resilient`] turns those errors
/// into degraded-but-sound answers instead.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Maximum symbolic-name depth per invisible-variable chain (the
    /// `k` of `k_x`); deeper chains collapse into the last symbol.
    pub max_sym_depth: u32,
    /// Bound on invocation-graph size (it is worst-case exponential).
    pub max_ig_nodes: usize,
    /// Error (rather than warn) on calls to unmodelled externals.
    pub strict_externs: bool,
    /// Safety budget on processed basic statements.
    pub max_steps: u64,
    /// Record per-statement points-to sets (needed for the statistics
    /// tables; adds memory).
    pub record_stats: bool,
    /// Name heap storage per allocation site (`heap@sN`) instead of the
    /// paper's single `heap` location (extension; improves heap
    /// precision at the cost of more locations).
    pub heap_sites: bool,
    /// Wall-clock deadline for one analysis run (`None` = unbounded).
    /// Checked cooperatively every few statements and at every
    /// fixed-point round, so a run ends within a small overshoot of
    /// the deadline rather than exactly at it.
    pub deadline: Option<Duration>,
    /// Cardinality cap on any single flow fact (points-to set). Blowups
    /// multiply pair counts long before they exhaust memory; this trips
    /// them early with a precise location.
    pub max_pt_pairs: usize,
    /// Depth cap on the map process's pointer-chain traversal (how many
    /// indirection levels of the caller's state are conveyed into a
    /// callee). Distinct from `max_sym_depth`, which bounds the *names*
    /// invented for invisible variables, not the traversal itself.
    pub max_map_depth: u32,
    /// Drop points-to pairs sourced at dead, never-address-taken locals
    /// during propagation (liveness from [`crate::dataflow`]). Shrinks
    /// the flowed and recorded sets; resolutions at every *use* point
    /// are unchanged (a used pointer is live there by definition), and
    /// globals/parameters are never pruned, but per-point tables are
    /// sparser and locals dead at a function's exit drop out of its
    /// exit flow — see `docs/DESIGN.md`.
    pub prune_liveness: bool,
    /// Demand slice: when set, calls to defined functions outside
    /// `slice` are skipped (identity flow). Only sound for the query
    /// roots the slice was planned for — see [`crate::demand`] and
    /// `docs/QUERIES.md`; `None` is the exhaustive engine.
    pub demand: Option<crate::demand::DemandInfo>,
    /// Where completed context pairs are reused (see [`MemoScope`]).
    pub memo: MemoScope,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            max_sym_depth: 5,
            max_ig_nodes: 100_000,
            strict_externs: false,
            max_steps: 50_000_000,
            record_stats: true,
            heap_sites: false,
            deadline: None,
            max_pt_pairs: 4_000_000,
            max_map_depth: 128,
            prune_liveness: false,
            demand: None,
            memo: MemoScope::default(),
        }
    }
}

/// Statistics from the opt-in `prune_liveness` mode (all zero when the
/// mode is off or the engine never ran — fallback rungs don't prune).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// The mode was on for this run.
    pub enabled: bool,
    /// Pairs that flowed out of basic statements (pre-prune).
    pub seen_pairs: u64,
    /// Pairs dropped because their source was dead.
    pub pruned_pairs: u64,
    /// Functions with a usable liveness mask.
    pub funcs_analyzed: usize,
    /// Functions skipped (no body, nothing prunable, or the solver ran
    /// out of visits).
    pub funcs_skipped: usize,
}

impl PruneStats {
    /// Percentage of flowed pairs that pruning dropped.
    pub fn sparsity_pct(&self) -> f64 {
        if self.seen_pairs == 0 {
            0.0
        } else {
            100.0 * self.pruned_pairs as f64 / self.seen_pairs as f64
        }
    }
}

/// Errors the analysis can report. The budget variants carry a
/// [`TripPoint`] saying *where* the resource ran out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// The program has no `main`.
    NoEntry,
    /// The invocation graph exceeded its configured node bound.
    IgBudget {
        /// The configured cap.
        limit: usize,
        /// The invocation chain whose extension tripped the cap.
        at: TripPoint,
    },
    /// The statement budget was exceeded (non-termination guard).
    StepBudget {
        /// The configured cap.
        limit: u64,
        /// Where processing stopped.
        at: TripPoint,
    },
    /// The wall-clock deadline passed.
    Deadline {
        /// The configured deadline.
        limit: Duration,
        /// Where processing stopped.
        at: TripPoint,
    },
    /// A single points-to set grew beyond the cardinality cap.
    PtBudget {
        /// The configured cap.
        limit: usize,
        /// The observed cardinality.
        size: usize,
        /// The statement whose flow fact blew up.
        at: TripPoint,
    },
    /// The map process chased a pointer chain deeper than the cap.
    MapDepthBudget {
        /// The configured cap.
        limit: u32,
        /// The call being mapped.
        at: TripPoint,
    },
    /// A construct the analysis does not support.
    Unsupported(String),
    /// An internal invariant failed (e.g. a panic caught by the
    /// resilient driver). Always a bug, but reported as an error so a
    /// suite run can continue past it.
    Internal(String),
}

impl AnalysisError {
    /// The budget that ran out, when this error is a budget exhaustion.
    /// The degradation ladder treats exactly these (plus [`Internal`])
    /// as recoverable by a cheaper analysis.
    ///
    /// [`Internal`]: AnalysisError::Internal
    pub fn budget_kind(&self) -> Option<BudgetKind> {
        match self {
            AnalysisError::IgBudget { .. } => Some(BudgetKind::IgNodes),
            AnalysisError::StepBudget { .. } => Some(BudgetKind::Steps),
            AnalysisError::Deadline { .. } => Some(BudgetKind::Deadline),
            AnalysisError::PtBudget { .. } => Some(BudgetKind::PtPairs),
            AnalysisError::MapDepthBudget { .. } => Some(BudgetKind::MapDepth),
            _ => None,
        }
    }

    /// True if a cheaper analysis may still produce an answer (budget
    /// exhaustions and caught internal failures).
    pub fn is_recoverable(&self) -> bool {
        self.budget_kind().is_some() || matches!(self, AnalysisError::Internal(_))
    }
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::NoEntry => write!(f, "program has no `main` function"),
            AnalysisError::IgBudget { limit, at } => write!(
                f,
                "invocation graph exceeded {limit} nodes {at}; raise AnalysisConfig::max_ig_nodes"
            ),
            AnalysisError::StepBudget { limit, at } => write!(
                f,
                "analysis exceeded its statement budget ({limit}) {at}; raise AnalysisConfig::max_steps"
            ),
            AnalysisError::Deadline { limit, at } => write!(
                f,
                "analysis exceeded its deadline ({} ms) {at}",
                limit.as_millis()
            ),
            AnalysisError::PtBudget { limit, size, at } => write!(
                f,
                "a points-to set grew to {size} pairs (cap {limit}) {at}; raise AnalysisConfig::max_pt_pairs"
            ),
            AnalysisError::MapDepthBudget { limit, at } => write!(
                f,
                "map process exceeded its pointer-chain depth cap ({limit}) {at}; raise AnalysisConfig::max_map_depth"
            ),
            AnalysisError::Unsupported(m) => write!(f, "unsupported construct: {m}"),
            AnalysisError::Internal(m) => write!(f, "internal analysis failure: {m}"),
        }
    }
}

impl Error for AnalysisError {}

/// The boundary a callee-local address escaped through (see
/// [`EscapeEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EscapeVia {
    /// Via a caller-visible memory location during the unmap process.
    Unmap,
    /// Via the callee's return value.
    Return,
}

/// A dangling-pointer event: during unmap, a caller-visible location
/// (or the return value) was found pointing at a local of the returning
/// callee. The engine drops the pair (the storage is dead); the event
/// records what was dropped so clients can report the bug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeEvent {
    /// The function whose local escaped.
    pub callee: FuncId,
    /// The call site the escape was observed at.
    pub call_site: CallSiteId,
    /// The boundary the address crossed.
    pub via: EscapeVia,
    /// Name of the escaping callee-local location.
    pub local: String,
    /// Definiteness of the dropped pair: `D` means the dangling pointer
    /// exists on every path through the call.
    pub def: Def,
}

/// The output of the context-sensitive points-to analysis.
#[derive(Debug)]
pub struct AnalysisResult {
    /// All abstract locations created during the analysis.
    pub locs: LocationTable,
    /// The final invocation graph (with memoized summaries and
    /// per-context map information).
    pub ig: InvocationGraph,
    /// Points-to facts per program point, merged over all invocation
    /// contexts (`D` only where definite in every context that reaches
    /// the point).
    pub per_stmt: BTreeMap<StmtId, PtSet>,
    /// The points-to set at the end of `main`.
    pub exit_set: PtSet,
    /// Non-fatal diagnostics (pointer arithmetic warnings, escaping
    /// locals, unmodelled externals, …).
    pub warnings: Vec<String>,
    /// Structured dangling-pointer events observed during unmap (empty
    /// for the fallback engines, which do not model scopes).
    pub escapes: Vec<EscapeEvent>,
    /// Liveness-pruning statistics (zeroed unless the run had
    /// [`AnalysisConfig::prune_liveness`] on).
    pub prune: PruneStats,
}

impl AnalysisResult {
    /// The merged points-to set at a program point (empty if the point
    /// was never reached).
    pub fn at(&self, stmt: StmtId) -> PtSet {
        self.per_stmt.get(&stmt).cloned().unwrap_or_default()
    }
}

/// Everything one invocation-graph subtree contributed to the *global*
/// analysis outputs: per-statement facts, warnings, and escape events.
///
/// Memoized context pairs alone are not enough to replay a call without
/// re-walking its body — the byte-identity guarantee of the store also
/// covers `per_stmt`, `warnings`, and `escapes`, which the Figure 4
/// memo hit would otherwise silently skip. A `Capture` records those
/// side outputs while a subtree is analysed cold, so a later warm run
/// can replay them verbatim at the memo-hit point.
#[derive(Debug, Clone, PartialEq)]
pub struct Capture {
    /// Per-statement contributions, pre-merged across every fixpoint
    /// round and inner context of the subtree.
    pub per_stmt: BTreeMap<StmtId, PtSet>,
    /// Warnings first emitted inside the subtree, in emission order.
    pub warnings: Vec<String>,
    /// Escape events observed inside the subtree.
    pub escapes: Vec<EscapeEvent>,
    /// False if some inner memo hit could not be attributed (its own
    /// capture was missing) — an incomplete capture must not be
    /// persisted as a warm pair.
    pub complete: bool,
}

impl Capture {
    /// An empty, complete capture.
    pub fn new() -> Self {
        Capture {
            per_stmt: BTreeMap::new(),
            warnings: Vec::new(),
            escapes: Vec::new(),
            complete: true,
        }
    }

    fn record(&mut self, id: StmtId, set: &PtSet) {
        match self.per_stmt.entry(id) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(set.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                // Replays and later fixpoint rounds mostly re-record an
                // unchanged set; skip the merge allocation when so.
                if e.get() == set {
                    return;
                }
                let merged = e.get().merge(set);
                e.insert(merged);
            }
        }
    }

    fn warn(&mut self, msg: &str) {
        if !self.warnings.iter().any(|w| w == msg) {
            self.warnings.push(msg.to_owned());
        }
    }

    fn escape(&mut self, ev: &EscapeEvent) {
        for e in &mut self.escapes {
            if e.callee == ev.callee
                && e.call_site == ev.call_site
                && e.via == ev.via
                && e.local == ev.local
            {
                if ev.def == Def::D {
                    e.def = Def::D;
                }
                return;
            }
        }
        self.escapes.push(ev.clone());
    }

    /// Folds a child subtree's capture into this one (same merge
    /// discipline as the global outputs).
    pub fn merge_from(&mut self, other: &Capture) {
        for (id, set) in &other.per_stmt {
            self.record(*id, set);
        }
        for w in &other.warnings {
            self.warn(w);
        }
        for e in &other.escapes {
            self.escape(e);
        }
        self.complete &= other.complete;
    }
}

impl Default for Capture {
    fn default() -> Self {
        Capture::new()
    }
}

/// One replayable memo entry: a context pair `(input, output)` for a
/// function, the invocation-graph fragment its cold analysis grew
/// beneath the node, and the captured side outputs of that subtree.
#[derive(Debug, Clone)]
pub struct WarmPair {
    /// The callee input context (exact-match key).
    pub input: PtSet,
    /// The memoized output flow.
    pub output: Flow,
    /// Side outputs to replay at the hit point. Shared, not owned: a
    /// hit re-attributes the capture to its node in O(1) instead of
    /// deep-cloning a per-statement map sized like the whole subtree.
    pub capture: Arc<Capture>,
    /// The self-contained IG subtree to graft under the hit node.
    pub fragment: IgFragment,
}

/// Warm context pairs, keyed by function. Lookup is an exact-input
/// linear scan — context counts per function are small in practice
/// (Table 5), and exactness is what makes replay sound without any
/// monotonicity argument.
#[derive(Debug, Clone, Default)]
pub struct WarmSeeds {
    /// Pairs per function, in snapshot order.
    pub pairs: BTreeMap<FuncId, Vec<WarmPair>>,
}

impl WarmSeeds {
    /// Adds a pair unless an equal-input pair for `func` is present.
    /// Returns true if the pair was added.
    pub fn insert(&mut self, func: FuncId, pair: WarmPair) -> bool {
        let v = self.pairs.entry(func).or_default();
        if v.iter().any(|p| p.input == pair.input) {
            return false;
        }
        v.push(pair);
        true
    }

    /// The pair for `func` whose input equals `input`, if any.
    pub fn find(&self, func: FuncId, input: &PtSet) -> Option<&WarmPair> {
        self.pairs.get(&func)?.iter().find(|p| &p.input == input)
    }

    /// Total number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.values().map(Vec::len).sum()
    }

    /// True if no pairs are held.
    pub fn is_empty(&self) -> bool {
        self.pairs.values().all(Vec::is_empty)
    }
}

/// What a warm (incremental) run starts from: the previous run's
/// location table (refreshed for dirty functions, so retained ids — and
/// with them every replayed `PtSet` — stay valid) and the surviving
/// context pairs.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// The preloaded location table.
    pub locs: LocationTable,
    /// Context pairs whose subtrees are clean.
    pub seeds: WarmSeeds,
}

/// An analysis run together with the persistence-facing extras: the
/// per-node captures a snapshot needs, and how many warm pairs were
/// replayed instead of analysed.
#[derive(Debug)]
pub struct EngineRun {
    /// The ordinary analysis result.
    pub result: AnalysisResult,
    /// Captured side outputs per invocation-graph node (node id →
    /// capture), for every node analysed or grafted while capturing.
    /// Values are shared with any warm pairs that reused them.
    pub node_captures: BTreeMap<u32, Arc<Capture>>,
    /// Number of memo hits served from [`WarmSeeds`].
    pub seed_hits: usize,
}

/// Runs the full context-sensitive interprocedural points-to analysis.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn analyze(ir: &IrProgram) -> Result<AnalysisResult, AnalysisError> {
    analyze_with(ir, AnalysisConfig::default())
}

/// [`analyze`] with an explicit configuration.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn analyze_with(
    ir: &IrProgram,
    config: AnalysisConfig,
) -> Result<AnalysisResult, AnalysisError> {
    Ok(analyze_impl(ir, config, None, false, None)?.result)
}

/// [`analyze_with`] that also captures per-subtree side outputs, so the
/// run can be persisted as warm context pairs (see `pta-store`).
/// Analysis results are identical to the uncaptured run.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn analyze_recorded(
    ir: &IrProgram,
    config: AnalysisConfig,
) -> Result<EngineRun, AnalysisError> {
    analyze_impl(ir, config, None, true, None)
}

/// An incremental run: starts from a preloaded location table and warm
/// context pairs, replaying any memo lookup whose function and exact
/// input context match a seed instead of re-analysing its subtree.
/// When `capture` is true the run also records fresh captures, so its
/// own results can be persisted again.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn analyze_seeded(
    ir: &IrProgram,
    config: AnalysisConfig,
    warm: WarmStart,
    capture: bool,
) -> Result<EngineRun, AnalysisError> {
    analyze_impl(ir, config, None, capture, Some(warm))
}

/// [`analyze_with`] with a [`TraceSink`] attached: the engine emits
/// structured trace events at every invocation-graph transition, memo
/// lookup, map/unmap, statement transfer, and budget heartbeat. See the
/// [`crate::trace`] module and `docs/TRACING.md` for the schema.
/// Analysis results are identical to the untraced run.
///
/// # Errors
///
/// See [`AnalysisError`].
pub fn analyze_traced(
    ir: &IrProgram,
    config: AnalysisConfig,
    sink: &mut dyn TraceSink,
) -> Result<AnalysisResult, AnalysisError> {
    Ok(analyze_impl(ir, config, Some(sink), false, None)?.result)
}

fn analyze_impl<'p>(
    ir: &'p IrProgram,
    config: AnalysisConfig,
    sink: Option<&'p mut dyn TraceSink>,
    capture: bool,
    warm: Option<WarmStart>,
) -> Result<EngineRun, AnalysisError> {
    let entry = ir.entry.ok_or(AnalysisError::NoEntry)?;
    let budget = Budget::new(
        config.max_steps,
        config.deadline,
        config.max_pt_pairs,
        config.max_map_depth,
    );
    // Program scope publishes pairs of recursion-free functions, and
    // a hit replays the pair's capture, so it always captures.
    let program_memo = (config.memo == MemoScope::Program)
        .then(|| crate::callgraph::CallGraph::build(ir).recursion_free());
    let capture = capture || program_memo.is_some();
    let ig = InvocationGraph::build(ir, entry, config.max_ig_nodes)
        .map_err(|o| o.into_error(ir, None))?;
    let (locs, seeds) = match warm {
        Some(w) => (w.locs, w.seeds),
        None => (LocationTable::new(), WarmSeeds::default()),
    };
    let prune = PruneStats {
        enabled: config.prune_liveness,
        ..PruneStats::default()
    };
    let mut a = Analyzer {
        ir,
        config,
        locs,
        ig,
        per_stmt: BTreeMap::new(),
        warnings: Vec::new(),
        escapes: Vec::new(),
        budget,
        tracer: Tracer::new(sink),
        seeds,
        capture,
        cap_stack: Vec::new(),
        node_caps: BTreeMap::new(),
        seed_hits: 0,
        prune_masks: BTreeMap::new(),
        prune,
        program_memo,
        leaf_cache: FxHashMap::default(),
        global_leaves: Vec::new(),
    };
    a.tracer.emit(|| TraceEvent::AnalysisStart {
        functions: ir.defined_functions().count(),
        stmts: ir.total_basic_stmts(),
    });
    if let Some(d) = &a.config.demand {
        let (roots, slice, reachable, widened) =
            (d.roots.len(), d.slice.len(), d.reachable, d.widened);
        a.tracer.emit(|| TraceEvent::Demand {
            roots,
            slice_functions: slice,
            reachable_functions: reachable,
            widened,
        });
    }
    // Pre-intern the distinguished locations so their ids are stable.
    a.locs.null();
    a.locs.heap();
    a.locs.strlit();

    // Initial set for main: every global and local pointer leaf starts
    // at NULL (§6: "we initialize all pointers to NULL").
    let mut global_leaves = Vec::new();
    for gi in 0..ir.globals.len() {
        let g = a.locs.global(ir, pta_cfront::ast::GlobalId(gi as u32));
        global_leaves.extend_from_slice(&a.ptr_leaves(g));
    }
    a.global_leaves = global_leaves;
    let mut init = PtSet::new();
    let null = a.locs.null();
    init.weak_union(a.global_leaves.iter().map(|&leaf| (leaf, null, Def::D)));
    a.null_init_function_vars(entry, &mut init, true);

    let root = a.ig.root();
    let out = a.analyze_node(root, init)?;
    let exit_set = out.unwrap_or_default();
    if a.tracer.enabled() {
        let s = a.ig.stats();
        let (steps, exit_pairs, warnings) = (a.budget.steps(), exit_set.len(), a.warnings.len());
        a.tracer.emit(|| TraceEvent::AnalysisEnd {
            steps,
            ig_nodes: s.nodes,
            recursive: s.recursive,
            approximate: s.approximate,
            exit_pairs,
            warnings,
        });
    }
    Ok(EngineRun {
        result: AnalysisResult {
            locs: a.locs,
            ig: a.ig,
            per_stmt: a.per_stmt,
            exit_set,
            warnings: a.warnings,
            escapes: a.escapes,
            prune: a.prune,
        },
        node_captures: a.node_caps,
        seed_hits: a.seed_hits,
    })
}

/// The analysis engine. Split across `intra`, `interproc`, `map_process`,
/// `unmap`, `funcptr`, and `externs` modules.
pub(crate) struct Analyzer<'p> {
    pub(crate) ir: &'p IrProgram,
    pub(crate) config: AnalysisConfig,
    pub(crate) locs: LocationTable,
    pub(crate) ig: InvocationGraph,
    pub(crate) per_stmt: BTreeMap<StmtId, PtSet>,
    pub(crate) warnings: Vec<String>,
    pub(crate) escapes: Vec<EscapeEvent>,
    pub(crate) budget: Budget,
    pub(crate) tracer: Tracer<'p>,
    /// Warm context pairs consulted on memo misses (empty on cold runs).
    pub(crate) seeds: WarmSeeds,
    /// True if this run records per-subtree captures.
    pub(crate) capture: bool,
    /// One frame per invocation-graph node currently on the analysis
    /// stack (miss path only); outputs land in every open frame.
    pub(crate) cap_stack: Vec<Capture>,
    /// Finished captures per node id (replaced when a node is
    /// re-analysed under a new input context).
    pub(crate) node_caps: BTreeMap<u32, Arc<Capture>>,
    /// Memo hits served from `seeds`.
    pub(crate) seed_hits: usize,
    /// Lazily-built per-function liveness masks for `prune_liveness`
    /// (`None` = function skipped: no body, nothing prunable, or the
    /// solver budget ran out).
    pub(crate) prune_masks: BTreeMap<pta_cfront::ast::FuncId, Option<crate::dataflow::PruneMask>>,
    /// Pruning counters for this run.
    pub(crate) prune: PruneStats,
    /// Program-scope memo ([`MemoScope::Program`] runs only): the
    /// functions whose finished context pairs are published to `seeds`.
    pub(crate) program_memo: Option<BTreeSet<FuncId>>,
    /// [`Analyzer::ptr_leaves`] of every location asked so far. Row
    /// types do not change during a run, so neither do the leaves.
    pub(crate) leaf_cache: FxHashMap<LocId, Rc<[LocId]>>,
    /// The pointer leaves of every global, in global order: what the
    /// map process passes through unchanged at every call.
    pub(crate) global_leaves: Vec<LocId>,
}

impl<'p> Analyzer<'p> {
    /// Builds the trip context for a budget exhaustion: the current
    /// function, the invocation-graph chain that reached it, and the
    /// statement (when one is at hand).
    pub(crate) fn trip(&self, node: IgNodeId, stmt: Option<StmtId>) -> TripPoint {
        let function = self.ir.function(self.ig.node(node).func).name.clone();
        TripPoint {
            function,
            ig_path: self.ig.path_to(self.ir, node),
            stmt,
        }
    }

    /// Converts a raw budget exhaustion into the matching error variant.
    pub(crate) fn exhausted(
        &self,
        e: Exhausted,
        node: IgNodeId,
        stmt: Option<StmtId>,
    ) -> AnalysisError {
        let at = self.trip(node, stmt);
        match e {
            Exhausted::Steps(limit) => AnalysisError::StepBudget { limit, at },
            Exhausted::Deadline(limit) => AnalysisError::Deadline { limit, at },
            Exhausted::PtPairs { limit, size } => AnalysisError::PtBudget { limit, size, at },
        }
    }
    /// A reference-resolution environment for `func`.
    pub(crate) fn renv(&mut self, func: FuncId) -> RefEnv<'_> {
        RefEnv {
            ir: self.ir,
            func,
            locs: &mut self.locs,
        }
    }

    pub(crate) fn warn(&mut self, msg: String) {
        if let Some(top) = self.cap_stack.last_mut() {
            top.warn(&msg);
        }
        if !self.warnings.contains(&msg) {
            self.warnings.push(msg);
        }
    }

    /// Records a dangling-pointer event (deduplicated; strengthened to
    /// `D` if the same escape is later seen definitely).
    pub(crate) fn escape(&mut self, ev: EscapeEvent) {
        if let Some(top) = self.cap_stack.last_mut() {
            top.escape(&ev);
        }
        for e in &mut self.escapes {
            if e.callee == ev.callee
                && e.call_site == ev.call_site
                && e.via == ev.via
                && e.local == ev.local
            {
                if ev.def == Def::D {
                    e.def = Def::D;
                }
                return;
            }
        }
        self.escapes.push(ev);
    }

    /// Records the points-to set at a program point, merging across
    /// contexts (and loop iterations): a pair stays definite only if it
    /// is definite every time control reaches the point.
    pub(crate) fn record(&mut self, id: StmtId, set: &PtSet) {
        if self.config.record_stats {
            if let Some(top) = self.cap_stack.last_mut() {
                top.record(id, set);
            }
            match self.per_stmt.entry(id) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(set.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    if e.get() == set {
                        return;
                    }
                    let merged = e.get().merge(set);
                    e.insert(merged);
                }
            }
        }
    }

    /// Opens a capture frame for a node entering its miss path.
    pub(crate) fn cap_push(&mut self) {
        if self.capture {
            self.cap_stack.push(Capture::new());
        }
    }

    /// Closes the current frame: stores it as `node`'s capture
    /// (replacing any capture from an earlier input context) and folds
    /// it into the enclosing frame.
    pub(crate) fn cap_pop(&mut self, node: IgNodeId) {
        if !self.capture {
            return;
        }
        let Some(frame) = self.cap_stack.pop() else {
            return;
        };
        if let Some(parent) = self.cap_stack.last_mut() {
            parent.merge_from(&frame);
        }
        self.node_caps.insert(node.0, Arc::new(frame));
    }

    /// On an in-run memo hit while capturing: attribute the hit
    /// subtree's recorded outputs to the enclosing frame, or poison the
    /// frame if no capture exists for the node (the frame then never
    /// becomes a warm pair).
    pub(crate) fn cap_note_hit(&mut self, node: IgNodeId) {
        if !self.capture || self.cap_stack.is_empty() {
            return;
        }
        match self.node_caps.get(&node.0) {
            Some(cap) => {
                if let Some(top) = self.cap_stack.last_mut() {
                    top.merge_from(cap);
                }
            }
            None => {
                if let Some(top) = self.cap_stack.last_mut() {
                    top.complete = false;
                }
            }
        }
    }

    /// Replays a stored capture into the global outputs (and, via the
    /// hooks above, into any open frames).
    pub(crate) fn cap_replay(&mut self, cap: &Capture) {
        for (id, set) in &cap.per_stmt {
            self.record(*id, set);
        }
        for w in &cap.warnings {
            self.warn(w.clone());
        }
        for e in &cap.escapes {
            self.escape(e.clone());
        }
    }

    /// Enumerates the pointer-valued leaf locations reachable inside
    /// `loc` without dereferencing (the location itself if it is a
    /// pointer; struct fields and array head/tail elements recursively).
    /// Walked once per location per run; later calls share the slice.
    pub(crate) fn ptr_leaves(&mut self, loc: LocId) -> Rc<[LocId]> {
        if let Some(leaves) = self.leaf_cache.get(&loc) {
            return Rc::clone(leaves);
        }
        let mut out = Vec::new();
        self.ptr_leaves_into(loc, &mut out, 0);
        let leaves: Rc<[LocId]> = out.into();
        self.leaf_cache.insert(loc, Rc::clone(&leaves));
        leaves
    }

    fn ptr_leaves_into(&mut self, loc: LocId, out: &mut Vec<LocId>, depth: usize) {
        if depth > 12 {
            return; // deeply nested aggregates: cut off defensively
        }
        let ir = self.ir;
        let sid = match self.locs.ty(loc) {
            Some(Type::Pointer(_) | Type::Func(_)) => {
                out.push(loc);
                return;
            }
            Some(Type::Struct(sid)) => *sid,
            Some(Type::Array(elem, _)) if elem.carries_pointers(&ir.structs) => {
                if let Some(h) = self.locs.project(loc, &Proj::Head, ir) {
                    self.ptr_leaves_into(h, out, depth + 1);
                }
                if let Some(t) = self.locs.project(loc, &Proj::Tail, ir) {
                    self.ptr_leaves_into(t, out, depth + 1);
                }
                return;
            }
            Some(_) => return,
            None => {
                // Untyped summaries (heap, strlit) act as their own leaf.
                if self.locs.is_heap(loc) {
                    out.push(loc);
                }
                return;
            }
        };
        for f in &ir.structs.def(sid).fields {
            if !f.ty.carries_pointers(&ir.structs) {
                continue;
            }
            if let Some(l) = self.locs.project_field(loc, &f.name, ir) {
                self.ptr_leaves_into(l, out, depth + 1);
            }
        }
    }

    /// Adds `(leaf, null, D)` for every pointer leaf of every variable of
    /// `func`. When `include_params` is false, parameters are skipped
    /// (they receive their values from the map process). Callers pass a
    /// set with no `P` pair from these leaves, so the batch weak union
    /// equals inserting the triples one by one.
    pub(crate) fn null_init_function_vars(
        &mut self,
        func: FuncId,
        set: &mut PtSet,
        include_params: bool,
    ) {
        let ir = self.ir;
        let null = self.locs.null();
        let f = ir.function(func);
        let mut triples = Vec::new();
        for (i, v) in f.vars.iter().enumerate() {
            if !include_params && i < f.n_params {
                continue;
            }
            if !v.ty.carries_pointers(&ir.structs) {
                continue;
            }
            let root = self.locs.var(ir, func, pta_simple::IrVarId(i as u32));
            triples.extend(
                self.ptr_leaves(root)
                    .iter()
                    .map(|&leaf| (leaf, null, Def::D)),
            );
        }
        set.weak_union(triples);
    }

    /// The static type of a variable reference, if derivable.
    pub(crate) fn ref_ty(&self, func: FuncId, r: &pta_simple::VarRef) -> Option<Type> {
        use pta_simple::{IrProj, VarBase, VarRef};
        let path_ty = |path: &pta_simple::VarPath| -> Option<Type> {
            let mut ty = match path.base {
                VarBase::Global(g) => self.ir.global(g).ty.clone(),
                VarBase::Var(v) => self.ir.function(func).var(v).ty.clone(),
            };
            for p in &path.projs {
                ty = match p {
                    IrProj::Field(f) => match ty {
                        Type::Struct(sid) => self.ir.structs.def(sid).field(f)?.ty.clone(),
                        _ => return None,
                    },
                    IrProj::Index(_) => ty.elem()?.clone(),
                };
            }
            Some(ty)
        };
        match r {
            VarRef::Path(p) => path_ty(p),
            VarRef::Deref { path, after, .. } => {
                let pt = path_ty(path)?;
                let mut ty = match pt.decay() {
                    Type::Pointer(inner) => *inner,
                    _ => return None,
                };
                for p in after {
                    ty = match p {
                        IrProj::Field(f) => match ty {
                            Type::Struct(sid) => self.ir.structs.def(sid).field(f)?.ty.clone(),
                            _ => return None,
                        },
                        IrProj::Index(_) => ty.elem()?.clone(),
                    };
                }
                Some(ty)
            }
        }
    }

    /// True if assignments into this reference transfer points-to
    /// information.
    pub(crate) fn is_pointer_assignment(&self, func: FuncId, lhs: &pta_simple::VarRef) -> bool {
        match self.ref_ty(func, lhs) {
            Some(ty) => matches!(ty.decay(), Type::Pointer(_)),
            // Unknown type (e.g. a reference through the heap summary):
            // treat as a pointer assignment for safety.
            None => true,
        }
    }
}
