//! A generic interprocedural dataflow framework over the SIMPLE CFG.
//!
//! The points-to engine walks the structured statement tree
//! compositionally (Figure 1); clients that want classical dataflow —
//! liveness, reaching definitions — need an explicit control-flow
//! graph. This module provides:
//!
//! - a [`Cfg`] lowered from the structured [`Stmt`] tree (one node per
//!   basic statement plus test nodes for control-statement conditions,
//!   honoring `pre_cond` re-evaluation, `for`-`continue`-to-step, and
//!   `switch` fall-through);
//! - a direction-parametric worklist solver ([`solve`]) over any join
//!   semilattice, with a visit budget so pathological inputs degrade
//!   gracefully instead of spinning;
//! - **syntactic variable liveness** ([`var_liveness`]) used by the
//!   engine's opt-in `--prune-liveness` mode: points-to pairs sourced
//!   at a dead, never-address-taken local cannot influence any later
//!   resolution, map/unmap, or memo lookup, so the engine may drop
//!   them during propagation (see `docs/DESIGN.md`);
//! - **location-level liveness and may/must-initialization**
//!   ([`ProgramDataflow`]) with indirect defs/uses resolved through the
//!   points-to facts ([`FactQuery`]) and call effects resolved through
//!   the invocation graph — the substrate for the `uninit-read`,
//!   `dead-store`, and `heap-leak` lint checks.
//!
//! Both concrete analyses are *uses-conservative*: anything the
//! framework cannot prove dead or uninitialized is treated as live /
//! initialized, so clients only act on facts that hold under the same
//! resolution rules the engine itself uses.

use crate::dense::FxHashMap;
use crate::location::{LocBase, LocId, Proj};
use crate::points_to_set::{Def, PtSet};
use crate::query::FactQuery;
use pta_cfront::ast::FuncId;
use pta_simple::{
    BasicStmt, CallTarget, IdxClass, IrFunction, IrProgram, IrProj, IrVarId, Operand, Stmt, StmtId,
    VarBase, VarKind, VarPath, VarRef,
};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Bit sets
// ---------------------------------------------------------------------------

/// A fixed-capacity bit set over a dense `0..n` domain — the fact
/// representation both concrete analyses use.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with capacity for `n` bits.
    pub fn new(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A set with capacity `n` and every bit set.
    pub fn full(n: usize) -> Self {
        let mut s = BitSet::new(n);
        for i in 0..n {
            s.insert(i);
        }
        s
    }

    /// Sets bit `i`; returns true if it was newly set.
    pub fn insert(&mut self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Clears bit `i`.
    pub fn remove(&mut self, i: usize) {
        let (w, b) = (i / 64, i % 64);
        if w < self.words.len() {
            self.words[w] &= !(1 << b);
        }
    }

    /// True if bit `i` is set.
    pub fn contains(&self, i: usize) -> bool {
        let (w, b) = (i / 64, i % 64);
        w < self.words.len() && self.words[w] & (1 << b) != 0
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// Number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let nv = *a | *b;
            changed |= nv != *a;
            *a = nv;
        }
        changed
    }

    /// `self &= other`; returns true if `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        let mut changed = false;
        for (i, a) in self.words.iter_mut().enumerate() {
            let b = other.words.get(i).copied().unwrap_or(0);
            let nv = *a & b;
            changed |= nv != *a;
            *a = nv;
        }
        changed
    }

    /// Iterates the set bit indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, w)| {
            let w = *w;
            (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

// ---------------------------------------------------------------------------
// CFG construction from the structured statement tree
// ---------------------------------------------------------------------------

/// What one CFG node represents.
#[derive(Debug, Clone)]
pub enum NodeKind<'a> {
    /// The unique function entry.
    Entry,
    /// The unique function exit (normal completion and every `return`).
    Exit,
    /// A no-op anchor introduced by the lowering (loop heads, arm
    /// entries, merge points). Transfer functions treat it as identity.
    Join,
    /// One basic statement at its program point.
    Basic(&'a BasicStmt, StmtId),
    /// The condition evaluation of a control statement, carrying the
    /// operands the test reads and the control statement's program
    /// point (`if`/`while`/`do`/`for` conditions, `switch` scrutinee).
    Test(Vec<&'a Operand>, StmtId),
}

/// A control-flow graph for one function body, borrowing the IR.
#[derive(Debug)]
pub struct Cfg<'a> {
    /// Node payloads; indices are node ids.
    pub nodes: Vec<NodeKind<'a>>,
    /// Successor edges in program order.
    pub succs: Vec<Vec<usize>>,
    /// Predecessor edges (the reverse of `succs`).
    pub preds: Vec<Vec<usize>>,
    /// The entry node id.
    pub entry: usize,
    /// The exit node id.
    pub exit: usize,
}

struct CfgBuilder<'a> {
    nodes: Vec<NodeKind<'a>>,
    succs: Vec<Vec<usize>>,
    exit: usize,
    /// Innermost-last `break` targets (loops and switches).
    breaks: Vec<usize>,
    /// Innermost-last `continue` targets (loops only).
    continues: Vec<usize>,
}

impl<'a> CfgBuilder<'a> {
    fn node(&mut self, kind: NodeKind<'a>) -> usize {
        self.nodes.push(kind);
        self.succs.push(Vec::new());
        self.nodes.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        if !self.succs[from].contains(&to) {
            self.succs[from].push(to);
        }
    }

    /// Lowers `stmt` with `cur` as the incoming frontier; returns the
    /// outgoing fall-through frontier. After a jump (`break`,
    /// `continue`, `return`) the returned frontier is a fresh node with
    /// no predecessors, so syntactically-dead code still chains forward
    /// (backward analyses see its uses; forward analyses see it as
    /// unreachable).
    fn lower(&mut self, stmt: &'a Stmt, cur: usize) -> usize {
        match stmt {
            Stmt::Basic(b, id) => {
                let n = self.node(NodeKind::Basic(b, *id));
                self.edge(cur, n);
                if matches!(b, BasicStmt::Return(_)) {
                    let exit = self.exit;
                    self.edge(n, exit);
                    self.node(NodeKind::Join) // unreachable continuation
                } else {
                    n
                }
            }
            Stmt::Seq(stmts) => {
                let mut cur = cur;
                for s in stmts {
                    cur = self.lower(s, cur);
                }
                cur
            }
            Stmt::If {
                cond,
                then_s,
                else_s,
                id,
            } => {
                let t = self.node(NodeKind::Test(cond.operands(), *id));
                self.edge(cur, t);
                let join = self.node(NodeKind::Join);
                let t_end = self.lower(then_s, t);
                self.edge(t_end, join);
                match else_s {
                    Some(e) => {
                        let e_end = self.lower(e, t);
                        self.edge(e_end, join);
                    }
                    None => self.edge(t, join),
                }
                join
            }
            Stmt::While {
                pre_cond,
                cond,
                body,
                id,
            } => {
                let head = self.node(NodeKind::Join); // continue target
                self.edge(cur, head);
                let p_end = self.lower(pre_cond, head);
                let test = self.node(NodeKind::Test(cond.operands(), *id));
                self.edge(p_end, test);
                let exit = self.node(NodeKind::Join);
                self.edge(test, exit);
                self.breaks.push(exit);
                self.continues.push(head);
                let b_end = self.lower(body, test);
                self.breaks.pop();
                self.continues.pop();
                self.edge(b_end, head);
                exit
            }
            Stmt::DoWhile {
                body,
                pre_cond,
                cond,
                id,
            } => {
                let entry = self.node(NodeKind::Join);
                self.edge(cur, entry);
                let head = self.node(NodeKind::Join); // continue target
                let exit = self.node(NodeKind::Join);
                self.breaks.push(exit);
                self.continues.push(head);
                let b_end = self.lower(body, entry);
                self.breaks.pop();
                self.continues.pop();
                self.edge(b_end, head);
                let p_end = self.lower(pre_cond, head);
                let test = self.node(NodeKind::Test(cond.operands(), *id));
                self.edge(p_end, test);
                self.edge(test, entry); // back edge
                self.edge(test, exit);
                exit
            }
            Stmt::For {
                init,
                pre_cond,
                cond,
                step,
                body,
                id,
            } => {
                let i_end = self.lower(init, cur);
                let head = self.node(NodeKind::Join);
                self.edge(i_end, head);
                let p_end = self.lower(pre_cond, head);
                let test = self.node(NodeKind::Test(cond.operands(), *id));
                self.edge(p_end, test);
                let step_in = self.node(NodeKind::Join); // continue target
                let exit = self.node(NodeKind::Join);
                self.edge(test, exit);
                self.breaks.push(exit);
                self.continues.push(step_in);
                let b_end = self.lower(body, test);
                self.breaks.pop();
                self.continues.pop();
                self.edge(b_end, step_in);
                let s_end = self.lower(step, step_in);
                self.edge(s_end, head);
                exit
            }
            Stmt::Switch {
                scrutinee,
                arms,
                has_default,
                id,
            } => {
                let test = self.node(NodeKind::Test(vec![scrutinee], *id));
                self.edge(cur, test);
                let exit = self.node(NodeKind::Join);
                self.breaks.push(exit);
                let mut fall: Option<usize> = None;
                for arm in arms {
                    let entry = self.node(NodeKind::Join);
                    self.edge(test, entry);
                    if let Some(f) = fall {
                        self.edge(f, entry);
                    }
                    fall = Some(self.lower(&arm.body, entry));
                }
                self.breaks.pop();
                if let Some(f) = fall {
                    self.edge(f, exit);
                }
                if !*has_default {
                    self.edge(test, exit);
                }
                exit
            }
            Stmt::Break(_) => {
                let target = self.breaks.last().copied().unwrap_or(self.exit);
                self.edge(cur, target);
                self.node(NodeKind::Join) // unreachable continuation
            }
            Stmt::Continue(_) => {
                let target = self.continues.last().copied().unwrap_or(self.exit);
                self.edge(cur, target);
                self.node(NodeKind::Join) // unreachable continuation
            }
        }
    }
}

impl<'a> Cfg<'a> {
    /// Builds the CFG of one function body.
    pub fn build(body: &'a Stmt) -> Cfg<'a> {
        let mut b = CfgBuilder {
            nodes: vec![NodeKind::Entry, NodeKind::Exit],
            succs: vec![Vec::new(), Vec::new()],
            exit: 1,
            breaks: Vec::new(),
            continues: Vec::new(),
        };
        let end = b.lower(body, 0);
        b.edge(end, 1);
        let mut preds = vec![Vec::new(); b.nodes.len()];
        for (n, ss) in b.succs.iter().enumerate() {
            for &s in ss {
                preds[s].push(n);
            }
        }
        Cfg {
            nodes: b.nodes,
            succs: b.succs,
            preds,
            entry: 0,
            exit: 1,
        }
    }

    /// The program point of a node, when it has one.
    pub fn stmt_of(&self, n: usize) -> Option<StmtId> {
        match &self.nodes[n] {
            NodeKind::Basic(_, id) | NodeKind::Test(_, id) => Some(*id),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Generic worklist solver
// ---------------------------------------------------------------------------

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow entry → exit (e.g. reaching definitions).
    Forward,
    /// Facts flow exit → entry (e.g. liveness).
    Backward,
}

/// One dataflow problem: a join semilattice of facts plus a transfer
/// function per CFG node. Transfers must be monotone for the solver to
/// reach its fixed point within the visit budget.
pub trait Transfer<'a> {
    /// The lattice element.
    type Fact: Clone + PartialEq;

    /// Flow direction.
    fn direction(&self) -> Direction;

    /// The fact at the boundary: function entry for forward problems,
    /// function exit for backward ones.
    fn boundary(&self) -> Self::Fact;

    /// `into ⊔= from`; returns true if `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;

    /// Applies node `ix`'s effect to `fact` in the flow direction.
    fn transfer(&mut self, ix: usize, node: &NodeKind<'a>, fact: &mut Self::Fact);
}

/// Where the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveStats {
    /// CFG node count.
    pub nodes: usize,
    /// Total node visits until the fixed point (or the budget).
    pub visits: usize,
    /// False if the visit budget ran out before convergence — the
    /// partial facts are unsound and callers must discard them.
    pub converged: bool,
}

/// Solved facts in *program order*: `before[n]` holds immediately
/// before node `n` executes, `after[n]` immediately after. `None`
/// means the solver never reached the node (unreachable in the flow
/// direction).
#[derive(Debug)]
pub struct Solution<F> {
    /// Fact at each node's entry, program order.
    pub before: Vec<Option<F>>,
    /// Fact at each node's exit, program order.
    pub after: Vec<Option<F>>,
    /// Convergence metadata.
    pub stats: SolveStats,
}

/// Runs the worklist algorithm for `t` over `cfg`, visiting at most
/// `max_visits` nodes (a budget in the spirit of the engine's
/// statement budget: blowups degrade, they don't hang).
pub fn solve<'a, T: Transfer<'a>>(
    cfg: &Cfg<'a>,
    t: &mut T,
    max_visits: usize,
) -> Solution<T::Fact> {
    let n = cfg.nodes.len();
    let dir = t.direction();
    let before: Vec<Option<T::Fact>> = vec![None; n];
    let after: Vec<Option<T::Fact>> = vec![None; n];
    // In flow orientation: `inputs` is the joined fact entering a node,
    // `outputs` the transferred fact leaving it.
    let (start, mut inputs, mut outputs) = match dir {
        Direction::Forward => (cfg.entry, before, after),
        Direction::Backward => (cfg.exit, after, before),
    };
    inputs[start] = Some(t.boundary());
    let mut work: Vec<usize> = vec![start];
    let mut queued = vec![false; n];
    queued[start] = true;
    let mut visits = 0usize;
    let mut converged = true;
    while let Some(node) = work.pop() {
        queued[node] = false;
        visits += 1;
        if visits > max_visits {
            converged = false;
            break;
        }
        // Join the upstream outputs into this node's input.
        let ups: &[usize] = match dir {
            Direction::Forward => &cfg.preds[node],
            Direction::Backward => &cfg.succs[node],
        };
        for &u in ups {
            let Some(fact) = outputs[u].clone() else {
                continue;
            };
            match &mut inputs[node] {
                Some(cur) => {
                    t.join(cur, &fact);
                }
                slot @ None => *slot = Some(fact),
            }
        }
        let Some(mut out) = inputs[node].clone() else {
            continue;
        };
        t.transfer(node, &cfg.nodes[node], &mut out);
        if outputs[node].as_ref() == Some(&out) {
            continue;
        }
        outputs[node] = Some(out);
        let downs: &[usize] = match dir {
            Direction::Forward => &cfg.succs[node],
            Direction::Backward => &cfg.preds[node],
        };
        for &d in downs {
            if !queued[d] {
                queued[d] = true;
                work.push(d);
            }
        }
    }
    let (before, after) = match dir {
        Direction::Forward => (inputs, outputs),
        Direction::Backward => (outputs, inputs),
    };
    Solution {
        before,
        after,
        stats: SolveStats {
            nodes: n,
            visits,
            converged,
        },
    }
}

/// Default visit budget for a CFG: generous for real programs, tight
/// enough that adversarial inputs stop quickly.
pub fn default_visit_budget(nodes: usize) -> usize {
    nodes.saturating_mul(64).saturating_add(256)
}

// ---------------------------------------------------------------------------
// Syntactic statement helpers
// ---------------------------------------------------------------------------

/// Adds the root variable of every reference that `op` *reads* to
/// `out`. Taking an address (`&x`) reads nothing; dereferencing
/// (`*p`, `&p->f`) reads the pointer.
fn op_use_roots(op: &Operand, out: &mut impl FnMut(IrVarId)) {
    match op {
        Operand::Ref(r) => ref_use_roots(r, true, out),
        Operand::AddrOf(r) => ref_use_roots(r, false, out),
        Operand::Func(_) | Operand::Const(_) | Operand::Str(_) => {}
    }
}

fn ref_use_roots(r: &VarRef, read_value: bool, out: &mut impl FnMut(IrVarId)) {
    match r {
        VarRef::Path(p) => {
            if read_value {
                if let VarBase::Var(v) = p.base {
                    out(v);
                }
            }
        }
        VarRef::Deref { path, .. } => {
            // The pointer itself is always read, whether the reference
            // is a value read or an address computation.
            if let VarBase::Var(v) = path.base {
                out(v);
            }
        }
    }
}

/// The variable roots a basic statement reads (its lhs write path
/// counts only when it dereferences a pointer).
fn basic_use_roots(b: &BasicStmt, out: &mut impl FnMut(IrVarId)) {
    if let Some(lhs) = basic_lhs(b) {
        ref_use_roots(lhs, false, out); // a deref write reads the pointer
    }
    match b {
        BasicStmt::Copy { rhs, .. } | BasicStmt::Unary { rhs, .. } => op_use_roots(rhs, out),
        BasicStmt::Binary { a, b, .. } => {
            op_use_roots(a, out);
            op_use_roots(b, out);
        }
        BasicStmt::PtrArith { ptr, .. } => ref_use_roots(ptr, true, out),
        BasicStmt::Alloc { size, .. } => op_use_roots(size, out),
        BasicStmt::Call { target, args, .. } => {
            if let CallTarget::Indirect(r) = target {
                ref_use_roots(r, true, out);
            }
            for a in args {
                op_use_roots(a, out);
            }
        }
        BasicStmt::Return(v) => {
            if let Some(v) = v {
                op_use_roots(v, out);
            }
        }
    }
}

fn basic_lhs(b: &BasicStmt) -> Option<&VarRef> {
    match b {
        BasicStmt::Copy { lhs, .. }
        | BasicStmt::Unary { lhs, .. }
        | BasicStmt::Binary { lhs, .. }
        | BasicStmt::PtrArith { lhs, .. }
        | BasicStmt::Alloc { lhs, .. } => Some(lhs),
        BasicStmt::Call { lhs, .. } => lhs.as_ref(),
        BasicStmt::Return(_) => None,
    }
}

fn for_each_operand<'b>(b: &'b BasicStmt, f: &mut impl FnMut(&'b Operand)) {
    match b {
        BasicStmt::Copy { rhs, .. } | BasicStmt::Unary { rhs, .. } => f(rhs),
        BasicStmt::Binary { a, b, .. } => {
            f(a);
            f(b);
        }
        BasicStmt::PtrArith { .. } => {}
        BasicStmt::Alloc { size, .. } => f(size),
        BasicStmt::Call { args, .. } => args.iter().for_each(f),
        BasicStmt::Return(Some(v)) => f(v),
        BasicStmt::Return(None) => {}
    }
}

// ---------------------------------------------------------------------------
// Syntactic variable liveness (the engine's pruning substrate)
// ---------------------------------------------------------------------------

/// Backward, uses-only liveness at *variable* granularity, computed
/// purely syntactically (it runs inside the engine, before any
/// points-to facts exist).
///
/// A variable is live at a point if some path from the point reads it —
/// appears as the root of a reference that is evaluated. There are no
/// kills: redefinition does not end liveness, which costs precision but
/// keeps the analysis trivially sound against the engine's
/// field-granularity strong/weak kill rules.
struct VarLiveness {
    n_vars: usize,
    /// Pre-computed use set per CFG node.
    uses: Vec<BitSet>,
}

impl<'a> Transfer<'a> for VarLiveness {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BitSet {
        // Locals die with the frame. Escaping *targets* are tracked by
        // the engine's unmap process, not by variable liveness.
        BitSet::new(self.n_vars)
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&mut self, ix: usize, _node: &NodeKind<'a>, fact: &mut BitSet) {
        fact.union_with(&self.uses[ix]); // uses-only: no kills
    }
}

/// The result of [`var_liveness`]: per-statement live-out variable
/// sets plus convergence metadata.
#[derive(Debug)]
pub struct VarLivenessResult {
    /// Live-out variables per program point (basic statements only).
    pub live_out: BTreeMap<StmtId, BitSet>,
    /// Solver metadata.
    pub stats: SolveStats,
}

/// Computes syntactic uses-only liveness for one function body.
pub fn var_liveness(f: &IrFunction) -> Option<VarLivenessResult> {
    let body = f.body.as_ref()?;
    let cfg = Cfg::build(body);
    let n_vars = f.vars.len();
    let uses: Vec<BitSet> = cfg
        .nodes
        .iter()
        .map(|node| {
            let mut u = BitSet::new(n_vars);
            match node {
                NodeKind::Basic(b, _) => basic_use_roots(b, &mut |v| {
                    u.insert(v.0 as usize);
                }),
                NodeKind::Test(ops, _) => {
                    for op in ops {
                        op_use_roots(op, &mut |v| {
                            u.insert(v.0 as usize);
                        });
                    }
                }
                _ => {}
            }
            u
        })
        .collect();
    let mut problem = VarLiveness { n_vars, uses };
    let sol = solve(&cfg, &mut problem, default_visit_budget(cfg.nodes.len()));
    let mut live_out = BTreeMap::new();
    for (i, node) in cfg.nodes.iter().enumerate() {
        if let NodeKind::Basic(_, id) = node {
            live_out.insert(*id, sol.after[i].clone().unwrap_or(BitSet::new(n_vars)));
        }
    }
    Some(VarLivenessResult {
        live_out,
        stats: sol.stats,
    })
}

/// The variables of `f` whose points-to pairs the engine may prune
/// when dead: pointer-carrying locals and temporaries whose address is
/// never taken. Such a variable can never be a points-to *target*, so
/// its pairs are invisible to the map/unmap processes, to memo
/// contexts, and to every resolution that does not read the variable
/// itself. Parameters are excluded: their pairs participate in unmap.
pub fn prunable_vars(ir: &IrProgram, f: &IrFunction) -> BitSet {
    let mut prunable = BitSet::new(f.vars.len());
    for (i, v) in f.vars.iter().enumerate() {
        if matches!(v.kind, VarKind::Local | VarKind::Temp) && v.ty.carries_pointers(&ir.structs) {
            prunable.insert(i);
        }
    }
    // Remove anything address-taken, anywhere in the body.
    if let Some(body) = &f.body {
        body.for_each_basic(&mut |b, _| {
            for_each_operand(b, &mut |op| {
                if let Operand::AddrOf(VarRef::Path(p)) = op {
                    if let VarBase::Var(v) = p.base {
                        prunable.remove(v.0 as usize);
                    }
                }
            });
        });
    }
    prunable
}

/// A per-function mask for the engine's `prune_liveness` mode: which
/// variables are prunable at all, and which are live after each basic
/// statement.
#[derive(Debug)]
pub struct PruneMask {
    /// Never-address-taken pointer-carrying locals/temps.
    pub prunable: BitSet,
    /// Live-out variables per basic statement.
    pub live_out: BTreeMap<StmtId, BitSet>,
    /// CFG nodes (for trace reporting).
    pub nodes: usize,
    /// Solver visits spent (for trace reporting).
    pub visits: usize,
}

/// Builds the pruning mask for one function, or `None` when pruning
/// cannot help (no body, nothing prunable) or cannot be trusted (the
/// liveness solve ran out of visits).
pub fn prune_mask(ir: &IrProgram, f: &IrFunction) -> Option<PruneMask> {
    let prunable = prunable_vars(ir, f);
    if prunable.is_empty() {
        return None;
    }
    let live = var_liveness(f)?;
    if !live.stats.converged {
        return None;
    }
    Some(PruneMask {
        prunable,
        live_out: live.live_out,
        nodes: live.stats.nodes,
        visits: live.stats.visits,
    })
}

// ---------------------------------------------------------------------------
// Call-effect summaries (interprocedural component)
// ---------------------------------------------------------------------------

/// Transitive memory effects per function, resolved over the direct
/// call edges plus the invocation graph's indirect-call targets: may
/// the function (or anything it calls) read or write storage through a
/// pointer? Externals and unresolved indirect calls are conservative
/// (both effects).
#[derive(Debug)]
pub struct CallEffects {
    may_read: Vec<bool>,
    may_write: Vec<bool>,
}

impl CallEffects {
    /// Computes the summaries for every function of the program.
    pub fn compute(q: &FactQuery<'_>) -> CallEffects {
        let ir = q.ir;
        let n = ir.functions.len();
        let mut may_read = vec![false; n];
        let mut may_write = vec![false; n];
        // Direct syntactic effects + call edges.
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (fid, f) in ir.functions.iter().enumerate() {
            let Some(body) = &f.body else {
                // External: modelled conservatively.
                may_read[fid] = true;
                may_write[fid] = true;
                continue;
            };
            body.for_each_basic(&mut |b, _| {
                if let Some(lhs) = basic_lhs(b) {
                    if lhs.is_indirect() {
                        may_write[fid] = true;
                    }
                }
                for_each_operand(b, &mut |op| {
                    if op.is_indirect() {
                        may_read[fid] = true;
                    }
                });
                if let BasicStmt::Call {
                    target, call_site, ..
                } = b
                {
                    match target {
                        CallTarget::Direct(g) => callees[fid].push(g.0 as usize),
                        CallTarget::Indirect(r) => {
                            if r.is_indirect() {
                                may_read[fid] = true;
                            }
                            let targets = q.call_targets(*call_site);
                            if targets.is_empty() {
                                // Unresolved: conservative.
                                may_read[fid] = true;
                                may_write[fid] = true;
                            }
                            for t in targets {
                                callees[fid].push(t.0 as usize);
                            }
                        }
                    }
                }
            });
        }
        // Propagate to a fixed point over the call edges.
        let mut changed = true;
        while changed {
            changed = false;
            for f in 0..n {
                for &g in &callees[f] {
                    if may_read[g] && !may_read[f] {
                        may_read[f] = true;
                        changed = true;
                    }
                    if may_write[g] && !may_write[f] {
                        may_write[f] = true;
                        changed = true;
                    }
                }
            }
        }
        CallEffects {
            may_read,
            may_write,
        }
    }

    /// May `f` (transitively) read storage through a pointer?
    pub fn may_read(&self, f: FuncId) -> bool {
        self.may_read.get(f.0 as usize).copied().unwrap_or(true)
    }

    /// May `f` (transitively) write storage through a pointer?
    pub fn may_write(&self, f: FuncId) -> bool {
        self.may_write.get(f.0 as usize).copied().unwrap_or(true)
    }
}

/// Joint may/must initialization fact (forward).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InitFact {
    /// Locations initialized on *some* path.
    pub may: BitSet,
    /// Locations initialized on *every* path.
    pub must: BitSet,
}

/// One storage slot of a function frame at *path* granularity: a
/// variable plus a projection chain (`s`, `s.f`, `buf[0]`, `buf[1..]`).
/// Built from the syntax, so a slot exists even when the engine never
/// interned a location for it (plain scalars that no pointer touches).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DomainLoc {
    /// The frame variable the slot is rooted at.
    pub var: IrVarId,
    /// The projection chain below the root.
    pub projs: Vec<Proj>,
}

/// Expands an IR projection chain into concrete location projection
/// chains with the definiteness of the selection (an unknown array
/// index selects both `head` and `tail`, possibly).
fn expand_projs(projs: &[IrProj]) -> Vec<(Vec<Proj>, Def)> {
    let mut cur: Vec<(Vec<Proj>, Def)> = vec![(Vec::new(), Def::D)];
    for p in projs {
        let mut next = Vec::new();
        for (path, d) in &cur {
            let mut with = |pr: Proj, dd: Def| {
                let mut q = path.clone();
                q.push(pr);
                next.push((q, dd));
            };
            match p {
                IrProj::Field(f) => with(Proj::Field(f.clone()), *d),
                IrProj::Index(IdxClass::Zero) => with(Proj::Head, *d),
                IrProj::Index(IdxClass::Positive) => with(Proj::Tail, *d),
                IrProj::Index(IdxClass::Unknown) => {
                    with(Proj::Head, Def::P);
                    with(Proj::Tail, Def::P);
                }
            }
        }
        cur = next;
    }
    cur
}

/// Per-node effect table shared by the location-level problems.
struct NodeEffects {
    /// Reads resolved to domain indices.
    reads: Vec<Vec<(usize, Def)>>,
    /// Direct writes resolved to domain indices (strong iff `Def::D`).
    writes: Vec<Vec<(usize, Def)>>,
    /// Domain slots handed to a callee by address (`f(&x)`).
    out_args: Vec<Vec<usize>>,
    /// Node is a call that may (transitively) read through pointers.
    call_reads_mem: Vec<bool>,
    /// Node is a call that may (transitively) write through pointers.
    call_writes_mem: Vec<bool>,
}

/// Maps syntax and interned locations onto the domain indices.
struct Resolver<'x, 'a> {
    q: &'x FactQuery<'a>,
    fid: FuncId,
    index: &'x FxHashMap<DomainLoc, usize>,
    loc_index: &'x FxHashMap<LocId, usize>,
}

impl Resolver<'_, '_> {
    /// Domain indices of a dereference-free path (empty for globals —
    /// they are outside the frame domain).
    fn path_ixes(&self, path: &VarPath) -> Vec<(usize, Def)> {
        let VarBase::Var(v) = path.base else {
            return Vec::new();
        };
        expand_projs(&path.projs)
            .into_iter()
            .filter_map(|(projs, d)| {
                self.index
                    .get(&DomainLoc { var: v, projs })
                    .map(|i| (*i, d))
            })
            .collect()
    }

    /// Domain indices of interned locations (frame-local only).
    fn loc_ixes(&self, ls: &[(LocId, Def)]) -> Vec<(usize, Def)> {
        ls.iter()
            .filter_map(|(l, d)| self.loc_index.get(l).map(|i| (*i, *d)))
            .collect()
    }

    /// Accumulates the domain slots a reference *reads*.
    fn read_ref(&self, set: &PtSet, r: &VarRef, read_value: bool, acc: &mut Vec<(usize, Def)>) {
        match r {
            VarRef::Path(p) => {
                if read_value {
                    push_ixes(acc, self.path_ixes(p));
                }
            }
            VarRef::Deref { path, .. } => {
                push_ixes(acc, self.path_ixes(path)); // the pointer itself
                if read_value {
                    let ls = self.q.l_locations(self.fid, set, r);
                    push_ixes(acc, self.loc_ixes(&ls)); // the pointed-to storage
                }
            }
        }
    }

    fn read_op(&self, set: &PtSet, op: &Operand, acc: &mut Vec<(usize, Def)>) {
        match op {
            Operand::Ref(r) => self.read_ref(set, r, true, acc),
            Operand::AddrOf(r) => self.read_ref(set, r, false, acc),
            Operand::Func(_) | Operand::Const(_) | Operand::Str(_) => {}
        }
    }

    /// The domain slots a write through `lhs` touches; `Def::D` iff the
    /// write is strong (single definite non-summary slot — the engine's
    /// strong-kill condition).
    fn write_lhs(&self, set: &PtSet, lhs: &VarRef) -> Vec<(usize, Def)> {
        match lhs {
            VarRef::Path(p) => {
                let mut rs = self.path_ixes(p);
                let strong = rs.len() == 1
                    && rs[0].1 == Def::D
                    && !expand_projs(&p.projs)
                        .first()
                        .is_some_and(|(projs, _)| projs.contains(&Proj::Tail));
                if !strong {
                    for (_, d) in rs.iter_mut() {
                        *d = Def::P;
                    }
                }
                rs
            }
            VarRef::Deref { .. } => {
                let ls = self.q.l_locations(self.fid, set, lhs);
                let strong =
                    ls.len() == 1 && ls[0].1 == Def::D && !self.q.result.locs.is_summary(ls[0].0);
                let mut rs = self.loc_ixes(&ls);
                if !strong {
                    for (_, d) in rs.iter_mut() {
                        *d = Def::P;
                    }
                }
                rs
            }
        }
    }
}

fn push_ixes(acc: &mut Vec<(usize, Def)>, add: Vec<(usize, Def)>) {
    for (i, d) in add {
        let mut found = false;
        for (ei, ed) in acc.iter_mut() {
            if *ei == i {
                if *ed != d {
                    *ed = Def::P;
                }
                found = true;
                break;
            }
        }
        if !found {
            acc.push((i, d));
        }
    }
}

/// Backward location liveness: `live_in = uses ∪ (live_out \ strong
/// kills)`. A read of a slot keeps every overlapping slot alive (a
/// whole-struct read covers the fields and vice versa); a strong write
/// kills the slot and its extensions; calls that may read memory keep
/// all address-taken storage alive.
struct LocLiveness<'e> {
    fx: &'e NodeEffects,
    addr_taken: &'e BitSet,
    overlap: &'e [Vec<usize>],
    extensions: &'e [Vec<usize>],
}

impl<'a> Transfer<'a> for LocLiveness<'_> {
    type Fact = BitSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> BitSet {
        // Address-taken storage is live at exit: reads through saved
        // pointers can outlive the last direct read.
        self.addr_taken.clone()
    }

    fn join(&self, into: &mut BitSet, from: &BitSet) -> bool {
        into.union_with(from)
    }

    fn transfer(&mut self, ix: usize, _node: &NodeKind<'a>, fact: &mut BitSet) {
        for (i, d) in &self.fx.writes[ix] {
            if *d == Def::D {
                for &e in &self.extensions[*i] {
                    fact.remove(e); // strong kill ends liveness
                }
            }
        }
        for (i, _) in &self.fx.reads[ix] {
            for &o in &self.overlap[*i] {
                fact.insert(o);
            }
        }
        for i in &self.fx.out_args[ix] {
            for &o in &self.overlap[*i] {
                fact.insert(o);
            }
        }
        if self.fx.call_reads_mem[ix] {
            fact.union_with(self.addr_taken);
        }
    }
}

/// Forward may/must initialization: strong writes initialize on every
/// path, weak writes and callee side effects only on some. A write to
/// a slot also initializes its extensions (whole-variable stores cover
/// the fields).
struct InitProblem<'e> {
    fx: &'e NodeEffects,
    addr_taken: &'e BitSet,
    extensions: &'e [Vec<usize>],
    boundary: InitFact,
}

impl<'a> Transfer<'a> for InitProblem<'_> {
    type Fact = InitFact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self) -> InitFact {
        self.boundary.clone()
    }

    fn join(&self, into: &mut InitFact, from: &InitFact) -> bool {
        let a = into.may.union_with(&from.may);
        let b = into.must.intersect_with(&from.must);
        a || b
    }

    fn transfer(&mut self, ix: usize, _node: &NodeKind<'a>, fact: &mut InitFact) {
        for (i, d) in &self.fx.writes[ix] {
            for &e in &self.extensions[*i] {
                fact.may.insert(e);
                if *d == Def::D {
                    fact.must.insert(e);
                }
            }
        }
        for i in &self.fx.out_args[ix] {
            for &e in &self.extensions[*i] {
                fact.may.insert(e);
            }
        }
        if self.fx.call_writes_mem[ix] {
            fact.may.union_with(self.addr_taken);
        }
    }
}

/// Per-function dataflow facts for the lint checks, indexed by CFG
/// node. The slot domain covers the function's frame at path
/// granularity; globals, symbolics, and heap are outside the domain
/// and treated as always-live / always-initialized.
pub struct FnFacts<'a> {
    /// The function's CFG.
    pub cfg: Cfg<'a>,
    /// The slot domain, sorted; indices are the bit positions.
    pub domain: Vec<DomainLoc>,
    /// Slots whose root variable is address-taken somewhere in the body.
    pub addr_taken: BitSet,
    /// Slots each node reads (with read definiteness), per CFG node.
    pub reads: Vec<Vec<(usize, Def)>>,
    /// Slots each node writes (`Def::D` iff strong), per CFG node.
    pub writes: Vec<Vec<(usize, Def)>>,
    /// Live slots *after* each node (backward liveness).
    pub live_out: Vec<BitSet>,
    /// Initialization facts *before* each node (forward).
    pub init_in: Vec<InitFact>,
    /// Storage-overlap closure per slot: the slot, its prefixes, and
    /// its extensions (same root, prefix-related projection chains).
    pub overlap: Vec<Vec<usize>>,
    /// Extension closure per slot: the slot plus every slot below it.
    pub extensions: Vec<Vec<usize>>,
    /// False if either solve ran out of visits; checks must then skip
    /// the function.
    pub converged: bool,
    /// Combined solver visits (liveness + initialization).
    pub visits: usize,
}

impl FnFacts<'_> {
    /// Domain index of a slot.
    pub fn ix(&self, var: IrVarId, projs: &[Proj]) -> Option<usize> {
        self.domain
            .binary_search_by(|d| (d.var, d.projs.as_slice()).cmp(&(var, projs)))
            .ok()
    }

    /// Renders a slot the way the engine names locations (`s.f`,
    /// `buf[0]`, `buf[1..]`).
    pub fn render(&self, f: &IrFunction, ix: usize) -> String {
        let d = &self.domain[ix];
        let mut s = f.var(d.var).name.clone();
        for p in &d.projs {
            match p {
                Proj::Field(name) => {
                    s.push('.');
                    s.push_str(name);
                }
                Proj::Head => s.push_str("[0]"),
                Proj::Tail => s.push_str("[1..]"),
            }
        }
        s
    }
}

/// Lint-facing dataflow facts for every reachable, defined function.
pub struct ProgramDataflow<'a> {
    /// Facts per function.
    pub funcs: BTreeMap<FuncId, FnFacts<'a>>,
    /// Transitive call-effect summaries used by the transfers.
    pub effects: CallEffects,
}

impl<'a> ProgramDataflow<'a> {
    /// Computes liveness and initialization facts for every function
    /// the analysis reached. Facts resolve indirect defs/uses through
    /// `q`'s points-to facts, and call effects through the invocation
    /// graph.
    pub fn compute(q: &FactQuery<'a>) -> ProgramDataflow<'a> {
        let effects = CallEffects::compute(q);
        let reachable = q.reachable_functions();
        let mut funcs = BTreeMap::new();
        for (fid, f) in q.ir.defined_functions() {
            if !reachable.contains(&fid) {
                continue;
            }
            let Some(body) = &f.body else { continue };
            funcs.insert(fid, compute_fn_facts(q, &effects, fid, f, body));
        }
        ProgramDataflow { funcs, effects }
    }
}

fn compute_fn_facts<'a>(
    q: &FactQuery<'a>,
    effects: &CallEffects,
    fid: FuncId,
    f: &'a IrFunction,
    body: &'a Stmt,
) -> FnFacts<'a> {
    let cfg = Cfg::build(body);

    // --- Domain: every frame slot named by the syntax or interned by
    // the engine, plus all prefixes.
    let mut slots: std::collections::BTreeSet<DomainLoc> = std::collections::BTreeSet::new();
    for (i, _) in f.vars.iter().enumerate() {
        slots.insert(DomainLoc {
            var: IrVarId(i as u32),
            projs: Vec::new(),
        });
    }
    let add_path = |slots: &mut std::collections::BTreeSet<DomainLoc>, path: &VarPath| {
        let VarBase::Var(v) = path.base else { return };
        for (projs, _) in expand_projs(&path.projs) {
            for j in 0..=projs.len() {
                slots.insert(DomainLoc {
                    var: v,
                    projs: projs[..j].to_vec(),
                });
            }
        }
    };
    {
        let on_ref = |slots: &mut std::collections::BTreeSet<DomainLoc>, r: &VarRef| match r {
            VarRef::Path(p) => add_path(slots, p),
            VarRef::Deref { path, .. } => add_path(slots, path),
        };
        body.for_each_basic(&mut |b, _| {
            if let Some(lhs) = basic_lhs(b) {
                on_ref(&mut slots, lhs);
            }
            for_each_operand(b, &mut |op| match op {
                Operand::Ref(r) | Operand::AddrOf(r) => on_ref(&mut slots, r),
                _ => {}
            });
            if let BasicStmt::Call {
                target: CallTarget::Indirect(r),
                ..
            } = b
            {
                on_ref(&mut slots, r);
            }
        });
    }
    let mut taken_vars = BitSet::new(f.vars.len());
    body.for_each_basic(&mut |b, _| {
        for_each_operand(b, &mut |op| {
            if let Operand::AddrOf(VarRef::Path(p)) = op {
                if let VarBase::Var(v) = p.base {
                    taken_vars.insert(v.0 as usize);
                }
            }
        });
    });
    // Interned frame locations (targets of pointers into this frame).
    for l in q.result.locs.ids() {
        if let LocBase::Var(g, v) = &q.result.locs.get(l).base {
            if *g == fid {
                let projs = q.result.locs.get(l).projs.clone();
                for j in 0..=projs.len() {
                    slots.insert(DomainLoc {
                        var: *v,
                        projs: projs[..j].to_vec(),
                    });
                }
            }
        }
    }
    let domain: Vec<DomainLoc> = slots.into_iter().collect();
    let nd = domain.len();
    let mut index: FxHashMap<DomainLoc, usize> = FxHashMap::default();
    for (i, d) in domain.iter().enumerate() {
        index.insert(d.clone(), i);
    }
    let mut loc_index: FxHashMap<LocId, usize> = FxHashMap::default();
    for l in q.result.locs.ids() {
        let d = q.result.locs.get(l);
        if let LocBase::Var(g, v) = &d.base {
            if *g == fid {
                if let Some(i) = index.get(&DomainLoc {
                    var: *v,
                    projs: d.projs.clone(),
                }) {
                    loc_index.insert(l, *i);
                }
            }
        }
    }
    let mut addr_taken = BitSet::new(nd);
    for (i, d) in domain.iter().enumerate() {
        if taken_vars.contains(d.var.0 as usize) {
            addr_taken.insert(i);
        }
    }
    // Prefix-closure tables.
    let prefix_of = |a: &DomainLoc, b: &DomainLoc| {
        a.var == b.var && b.projs.len() >= a.projs.len() && b.projs[..a.projs.len()] == a.projs[..]
    };
    let mut extensions: Vec<Vec<usize>> = vec![Vec::new(); nd];
    let mut overlap: Vec<Vec<usize>> = vec![Vec::new(); nd];
    for i in 0..nd {
        for j in 0..nd {
            if prefix_of(&domain[i], &domain[j]) {
                extensions[i].push(j);
                overlap[i].push(j);
            } else if prefix_of(&domain[j], &domain[i]) {
                overlap[i].push(j);
            }
        }
    }

    // --- Per-node effects, resolved against the merged facts at each
    // node's program point.
    let n = cfg.nodes.len();
    let rsv = Resolver {
        q,
        fid,
        index: &index,
        loc_index: &loc_index,
    };
    let mut fx = NodeEffects {
        reads: vec![Vec::new(); n],
        writes: vec![Vec::new(); n],
        out_args: vec![Vec::new(); n],
        call_reads_mem: vec![false; n],
        call_writes_mem: vec![false; n],
    };
    for (i, node) in cfg.nodes.iter().enumerate() {
        let Some(id) = cfg.stmt_of(i) else { continue };
        let set = q.at(id);
        match node {
            NodeKind::Basic(b, _) => {
                if let Some(lhs) = basic_lhs(b) {
                    rsv.read_ref(&set, lhs, false, &mut fx.reads[i]);
                    if !matches!(b, BasicStmt::Return(_)) {
                        fx.writes[i] = rsv.write_lhs(&set, lhs);
                    }
                }
                match b {
                    BasicStmt::Copy { rhs, .. } | BasicStmt::Unary { rhs, .. } => {
                        rsv.read_op(&set, rhs, &mut fx.reads[i]);
                    }
                    BasicStmt::Binary { a, b, .. } => {
                        rsv.read_op(&set, a, &mut fx.reads[i]);
                        rsv.read_op(&set, b, &mut fx.reads[i]);
                    }
                    BasicStmt::PtrArith { ptr, .. } => {
                        rsv.read_ref(&set, ptr, true, &mut fx.reads[i]);
                    }
                    BasicStmt::Alloc { size, .. } => {
                        rsv.read_op(&set, size, &mut fx.reads[i]);
                    }
                    BasicStmt::Call {
                        target,
                        args,
                        call_site,
                        ..
                    } => {
                        if let CallTarget::Indirect(r) = target {
                            rsv.read_ref(&set, r, true, &mut fx.reads[i]);
                        }
                        for a in args {
                            rsv.read_op(&set, a, &mut fx.reads[i]);
                        }
                        let targets: Vec<FuncId> = match target {
                            CallTarget::Direct(g) => vec![*g],
                            CallTarget::Indirect(_) => {
                                let ts: Vec<FuncId> =
                                    q.call_targets(*call_site).into_iter().collect();
                                if ts.is_empty() {
                                    fx.call_reads_mem[i] = true;
                                    fx.call_writes_mem[i] = true;
                                }
                                ts
                            }
                        };
                        for t in targets {
                            fx.call_reads_mem[i] |= effects.may_read(t);
                            fx.call_writes_mem[i] |= effects.may_write(t);
                        }
                        // `f(&x)` lets the callee initialize/read `x`.
                        for a in args {
                            if let Operand::AddrOf(r) = a {
                                let ixes = match r {
                                    VarRef::Path(p) => rsv.path_ixes(p),
                                    VarRef::Deref { .. } => {
                                        let ls = q.l_locations(fid, &set, r);
                                        rsv.loc_ixes(&ls)
                                    }
                                };
                                for (ix, _) in ixes {
                                    if !fx.out_args[i].contains(&ix) {
                                        fx.out_args[i].push(ix);
                                    }
                                }
                            }
                        }
                    }
                    BasicStmt::Return(v) => {
                        if let Some(v) = v {
                            rsv.read_op(&set, v, &mut fx.reads[i]);
                        }
                    }
                }
            }
            NodeKind::Test(ops, _) => {
                for op in ops {
                    rsv.read_op(&set, op, &mut fx.reads[i]);
                }
            }
            _ => {}
        }
    }

    let budget = default_visit_budget(n);

    // --- Backward liveness.
    let mut live_problem = LocLiveness {
        fx: &fx,
        addr_taken: &addr_taken,
        overlap: &overlap,
        extensions: &extensions,
    };
    let live_sol = solve(&cfg, &mut live_problem, budget);
    let live_out: Vec<BitSet> = live_sol
        .after
        .iter()
        .map(|o| o.clone().unwrap_or(BitSet::new(nd)))
        .collect();

    // --- Forward initialization. Parameters (and everything under
    // them) start initialized.
    let mut boundary = InitFact {
        may: BitSet::new(nd),
        must: BitSet::new(nd),
    };
    for (i, d) in domain.iter().enumerate() {
        if matches!(f.var(d.var).kind, VarKind::Param(_)) {
            boundary.may.insert(i);
            boundary.must.insert(i);
        }
    }
    let mut init_problem = InitProblem {
        fx: &fx,
        addr_taken: &addr_taken,
        extensions: &extensions,
        boundary,
    };
    let init_sol = solve(&cfg, &mut init_problem, budget.saturating_mul(2));
    // Unreached nodes keep a pessimistic "everything may be
    // initialized" fact so checks stay silent there.
    let pessimistic = InitFact {
        may: BitSet::full(nd),
        must: BitSet::full(nd),
    };
    let init_in: Vec<InitFact> = init_sol
        .before
        .iter()
        .map(|o| o.clone().unwrap_or_else(|| pessimistic.clone()))
        .collect();

    FnFacts {
        cfg,
        domain,
        addr_taken,
        reads: fx.reads,
        writes: fx.writes,
        live_out,
        init_in,
        overlap,
        extensions,
        converged: live_sol.stats.converged && init_sol.stats.converged,
        visits: live_sol.stats.visits + init_sol.stats.visits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_of(src: &str, func: &str) -> (pta_simple::IrProgram, FuncId) {
        let ir = pta_simple::compile(src).expect("compiles");
        let (fid, _) = ir.function_by_name(func).unwrap();
        (ir, fid)
    }

    #[test]
    fn cfg_counts_every_basic_stmt_once() {
        let (ir, fid) = cfg_of(
            "int main(void) {
                 int i; int s; s = 0;
                 for (i = 0; i < 4; i = i + 1) { if (i > 2) { continue; } s = s + i; }
                 while (s > 0) { s = s - 1; if (s == 3) { break; } }
                 switch (s) { case 0: s = 1; case 1: s = 2; break; default: s = 9; }
                 do { s = s - 1; } while (s > 0);
                 return s;
             }",
            "main",
        );
        let f = ir.function(fid);
        let body = f.body.as_ref().unwrap();
        let cfg = Cfg::build(body);
        let in_cfg = cfg
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeKind::Basic(..)))
            .count();
        assert_eq!(in_cfg, body.count_basic());
        // Predecessors are the exact reverse of successors.
        for (n, ss) in cfg.succs.iter().enumerate() {
            for &s in ss {
                assert!(cfg.preds[s].contains(&n));
            }
        }
    }

    #[test]
    fn var_liveness_sees_loop_back_edges() {
        let (ir, fid) = cfg_of(
            "int main(void) {
                 int i; int s; s = 0;
                 for (i = 0; i < 4; i = i + 1) { s = s + i; }
                 return s;
             }",
            "main",
        );
        let f = ir.function(fid);
        let live = var_liveness(f).expect("has body");
        assert!(live.stats.converged);
        let i_var = f.vars.iter().position(|v| v.name == "i").unwrap();
        let s_var = f.vars.iter().position(|v| v.name == "s").unwrap();
        // After `s = s + i` (inside the loop), both i (next test/step)
        // and s (next iteration + return) are live.
        let mut body_store = None;
        f.body.as_ref().unwrap().for_each_basic(&mut |b, id| {
            if let BasicStmt::Binary { a, .. } = b {
                if matches!(a, Operand::Ref(VarRef::Path(p))
                    if p.base == VarBase::Var(IrVarId(s_var as u32)))
                {
                    body_store = Some(id);
                }
            }
        });
        let id = body_store.expect("s = s + i present");
        let out = &live.live_out[&id];
        assert!(out.contains(i_var), "i live across the back edge");
        assert!(out.contains(s_var), "s live into the next iteration");
    }

    #[test]
    fn prunable_excludes_params_and_address_taken() {
        let (ir, fid) = cfg_of(
            "int g;
             void take(int **pp) { *pp = &g; }
             int main(void) { int *a; int *b; int *c; take(&b); a = &g; c = a; return *c; }",
            "main",
        );
        let f = ir.function(fid);
        let p = prunable_vars(&ir, f);
        let pos = |n: &str| f.vars.iter().position(|v| v.name == n).unwrap();
        assert!(p.contains(pos("a")), "plain local pointer is prunable");
        assert!(!p.contains(pos("b")), "address-taken local is not");
        assert!(p.contains(pos("c")));
        let (_, take) = ir.function_by_name("take").unwrap();
        let tp = prunable_vars(&ir, take);
        assert!(!tp.contains(0), "parameters are never prunable");
    }

    #[test]
    fn bitset_ops() {
        let mut a = BitSet::new(130);
        assert!(a.insert(0));
        assert!(a.insert(129));
        assert!(!a.insert(129));
        let mut b = BitSet::new(130);
        b.insert(64);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.count(), 3);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 64, 129]);
        a.remove(64);
        assert!(!a.contains(64));
        let mut c = BitSet::full(10);
        assert!(c.intersect_with(&a));
        assert_eq!(c.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn program_dataflow_tracks_initialization() {
        let pta = crate::run_source(
            "int g;
             int main(void) {
                 int x; int y; int c;
                 c = 0;
                 if (c) { x = 1; }
                 y = x + 1;
                 return y;
             }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let df = ProgramDataflow::compute(&q);
        let (main, f) = pta.ir.function_by_name("main").unwrap();
        let facts = df.funcs.get(&main).expect("main analysed");
        assert!(facts.converged);
        let vi = f.vars.iter().position(|v| v.name == "x").unwrap();
        let xi = facts.ix(IrVarId(vi as u32), &[]).expect("x in domain");
        // At `y = x + 1`, x is may-but-not-must initialized, and the
        // node reads it.
        let mut checked = false;
        for (i, node) in facts.cfg.nodes.iter().enumerate() {
            if let NodeKind::Basic(BasicStmt::Binary { .. }, _) = node {
                if facts.reads[i].iter().any(|(ix, _)| *ix == xi) {
                    let init = &facts.init_in[i];
                    assert!(init.may.contains(xi), "x assigned on the then-path");
                    assert!(!init.must.contains(xi), "x unassigned on the else-path");
                    checked = true;
                }
            }
        }
        assert!(checked, "the read of x was resolved");
    }

    #[test]
    fn dataflow_sees_dead_stores() {
        let pta = crate::run_source(
            "int main(void) {
                 int a; int b;
                 a = 1;
                 a = 2;
                 b = a;
                 return b;
             }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let df = ProgramDataflow::compute(&q);
        let (main, f) = pta.ir.function_by_name("main").unwrap();
        let facts = df.funcs.get(&main).expect("main analysed");
        let vi = f.vars.iter().position(|v| v.name == "a").unwrap();
        let ai = facts.ix(IrVarId(vi as u32), &[]).expect("a in domain");
        // `a = 1` writes a dead slot; `a = 2` writes a live one.
        let mut dead = 0;
        let mut live = 0;
        for (i, _) in facts.cfg.nodes.iter().enumerate() {
            let strong_a = facts.writes[i]
                .iter()
                .any(|(ix, d)| *ix == ai && *d == Def::D);
            if !strong_a {
                continue;
            }
            if facts.live_out[i].contains(ai) {
                live += 1;
            } else {
                dead += 1;
            }
        }
        assert_eq!(dead, 1, "exactly one dead store to a");
        assert_eq!(live, 1, "exactly one live store to a");
    }

    #[test]
    fn call_effects_are_transitive() {
        let pta = crate::run_source(
            "int g;
             void leaf(int *p) { *p = 1; }
             void mid(int *p) { leaf(p); }
             int pure_add(int a, int b) { return a + b; }
             int main(void) { int x; mid(&x); return pure_add(x, 1); }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let fx = CallEffects::compute(&q);
        let id = |n: &str| pta.ir.function_by_name(n).unwrap().0;
        assert!(fx.may_write(id("leaf")));
        assert!(fx.may_write(id("mid")), "effects propagate to callers");
        assert!(!fx.may_write(id("pure_add")));
        assert!(!fx.may_read(id("pure_add")));
    }

    #[test]
    fn out_arg_initializes_through_call() {
        let pta = crate::run_source(
            "void fill(int *p) { *p = 7; }
             int main(void) {
                 int x;
                 fill(&x);
                 return x;
             }",
        )
        .expect("analyses");
        let q = FactQuery::new(&pta.ir, &pta.result);
        let df = ProgramDataflow::compute(&q);
        let (main, f) = pta.ir.function_by_name("main").unwrap();
        let facts = df.funcs.get(&main).expect("main analysed");
        let vi = f.vars.iter().position(|v| v.name == "x").unwrap();
        let xi = facts.ix(IrVarId(vi as u32), &[]).expect("x in domain");
        // At `return x`, x may be initialized (by the callee).
        for (i, node) in facts.cfg.nodes.iter().enumerate() {
            if let NodeKind::Basic(BasicStmt::Return(Some(_)), _) = node {
                assert!(facts.init_in[i].may.contains(xi), "callee initialized x");
            }
        }
    }
}
