//! The on-disk snapshot format: a versioned, line-oriented,
//! deterministic text encoding with an FNV-1a payload checksum.
//!
//! Layout (`\n`-separated lines, space-separated tokens):
//!
//! ```text
//! pta-store pta.v1          header: magic + schema version
//! checksum <16 hex>         FNV-1a over every byte after this line
//! skeleton <16 hex>         program-skeleton fingerprint
//! config <16 hex>           analysis-configuration digest
//! funcs <n>                 then n  `fn <id> <fp> <name>` lines
//! syms <n>                  then n  `sym <func> <depth> <name> <ty>` lines
//! locs <n>                  then n  `loc <base> <projs> <ty> <name>` lines
//! ig <n> <root>             then n  `node …` + `mi …` + `ch …` line triples
//! caps <n>                  then n  `cap …` groups (cp/cw/ce lines)
//! result                    rs/rp, exit, warns/w, escs/e lines
//! lint <n>                  then n  `l …` lines
//! end
//! ```
//!
//! Strings are percent-encoded (every byte `<= 0x20`, `%`, and
//! `>= 0x7f`; a lone `%` is the empty string), so tokens never contain
//! whitespace and the encoding is byte-deterministic. Types use a
//! self-delimiting prefix code. Points-to sets are `src,tgt,D|P`
//! triples joined by `;` (or `0` when empty; `!` is the absent flow ⊥).
//!
//! Every parse failure is a typed [`StoreError`] — the orchestration
//! layer degrades to a cold run on any of them, never a panic.

use pta_cfront::ast::{FuncId, GlobalId};
use pta_cfront::types::{FuncSig, StructId, Type};
use pta_core::analysis::{Capture, EscapeEvent, EscapeVia};
use pta_core::fingerprint::{fnv1a, SCHEMA_VERSION};
use pta_core::invocation_graph::{IgKind, MapInfo};
use pta_core::location::{LocBase, LocData, LocId, Proj, SymbolicData};
use pta_core::points_to_set::{Def, Flow, PtSet};
use pta_core::Fidelity;
use pta_lint::Severity;
use pta_simple::{CallSiteId, IrVarId, StmtId};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The magic token opening every snapshot.
pub const MAGIC: &str = "pta-store";

/// Why a snapshot could not be used. Every variant degrades to a cold
/// run at the orchestration layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem-level failure (missing file, unreadable, …).
    Io(String),
    /// The header is not `pta-store` + the current schema version.
    Version {
        /// The header line actually found.
        found: String,
    },
    /// The payload checksum does not match its content.
    Checksum,
    /// A structural parse failure.
    Corrupt {
        /// 1-based line of the failure.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The snapshot was taken from a program with a different skeleton
    /// (globals/structs/signatures), so its dense ids are meaningless.
    Skeleton,
    /// The snapshot was taken under a different analysis configuration.
    Config,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot header `{found}` (want `{MAGIC} {SCHEMA_VERSION}`)"
                )
            }
            StoreError::Checksum => write!(f, "snapshot payload checksum mismatch"),
            StoreError::Corrupt { line, msg } => {
                write!(f, "corrupt snapshot at line {line}: {msg}")
            }
            StoreError::Skeleton => {
                write!(f, "snapshot is for a program with a different skeleton")
            }
            StoreError::Config => write!(f, "snapshot was taken under a different configuration"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One function's identity row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRow {
    /// Dense function id (valid because the skeleton matched).
    pub func: u32,
    /// Source fingerprint at save time.
    pub fp: u64,
    /// Name (diagnostics only; ids are authoritative).
    pub name: String,
}

/// One invocation-graph node, in absolute (snapshot-wide) ids.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Invoked function.
    pub func: u32,
    /// Parent node (`None` for the root).
    pub parent: Option<u32>,
    /// Node kind.
    pub kind: IgKind,
    /// Approximate nodes: the matching recursive node.
    pub rec: Option<u32>,
    /// Memo validity.
    pub memo_valid: bool,
    /// Memoized input.
    pub stored_input: Option<PtSet>,
    /// Memoized output.
    pub stored_output: Flow,
    /// Per-context map information.
    pub map_info: MapInfo,
    /// Children as `(call site, callee func, node id)`.
    pub children: Vec<(u32, u32, u32)>,
}

/// One persisted lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRow {
    /// Stable check id (validated against the registry at parse time).
    pub check_id: String,
    /// Finding severity.
    pub severity: Severity,
    /// Fidelity of the producing engine.
    pub fidelity: Fidelity,
    /// Enclosing function name.
    pub function: String,
    /// Program point, if statement-tied.
    pub stmt: Option<u32>,
    /// Source span as `(start, end, line, col)`.
    pub span: (usize, usize, u32, u32),
    /// Message text.
    pub message: String,
}

/// A parsed snapshot: everything a warm start or a serve engine needs,
/// in program-independent form (dense ids are validated against the
/// skeleton fingerprint before use).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Skeleton fingerprint of the source program.
    pub skeleton: u64,
    /// Digest of the analysis configuration.
    pub config: u64,
    /// Per-function fingerprints.
    pub functions: Vec<FnRow>,
    /// Symbolic-name registry in creation order.
    pub syms: Vec<SymbolicData>,
    /// Location rows in id order.
    pub locs: Vec<LocData>,
    /// Invocation-graph nodes in id order.
    pub nodes: Vec<NodeRow>,
    /// Root node id.
    pub root: Option<u32>,
    /// Captured side outputs per node id, shared with the run that
    /// produced them and with the warm pairs harvested from them.
    pub captures: BTreeMap<u32, Arc<Capture>>,
    /// Final merged per-statement facts.
    pub per_stmt: BTreeMap<StmtId, PtSet>,
    /// Final exit set of `main`.
    pub exit_set: PtSet,
    /// Final warnings, in emission order.
    pub warnings: Vec<String>,
    /// Final escape events, in emission order.
    pub escapes: Vec<EscapeEvent>,
    /// Lint findings of the saved run.
    pub lint: Vec<LintRow>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            skeleton: 0,
            config: 0,
            functions: Vec::new(),
            syms: Vec::new(),
            locs: Vec::new(),
            nodes: Vec::new(),
            root: None,
            captures: BTreeMap::new(),
            per_stmt: BTreeMap::new(),
            exit_set: PtSet::new(),
            warnings: Vec::new(),
            escapes: Vec::new(),
            lint: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// String encoding
// ---------------------------------------------------------------------

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Appends the decimal digits of `v`.
fn push_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf[i..].iter().for_each(|&d| out.push(char::from(d)));
}

fn push_u32(out: &mut String, v: u32) {
    push_u64(out, u64::from(v));
}

fn push_usize(out: &mut String, v: usize) {
    push_u64(out, v as u64);
}

/// The 16 lowercase hex digits of `v`, zero-padded.
fn hex16(v: u64) -> [u8; 16] {
    let mut buf = [0u8; 16];
    for (i, b) in buf.iter_mut().enumerate() {
        *b = HEX[(v >> (60 - 4 * i)) as usize & 0xf];
    }
    buf
}

fn push_hex16(out: &mut String, v: u64) {
    out.push_str(std::str::from_utf8(&hex16(v)).expect("ASCII hex"));
}

/// Percent-encodes a string into a single whitespace-free token. The
/// empty string becomes a lone `%`.
pub fn enc_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    enc_str_into(&mut out, s);
    out
}

fn enc_str_into(out: &mut String, s: &str) {
    if s.is_empty() {
        out.push('%');
        return;
    }
    for &b in s.as_bytes() {
        if b <= 0x20 || b == b'%' || b >= 0x7f {
            out.push('%');
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push(b as char);
        }
    }
}

/// Decodes [`enc_str`].
pub fn dec_str(tok: &str) -> Result<String, String> {
    if tok == "%" {
        return Ok(String::new());
    }
    let bytes = tok.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated percent escape".to_owned())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad percent escape".to_owned())?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| "bad percent escape".to_owned())?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "escaped string is not UTF-8".to_owned())
}

// ---------------------------------------------------------------------
// Type encoding (self-delimiting prefix code)
// ---------------------------------------------------------------------

fn enc_ty_into(t: &Type, out: &mut String) {
    match t {
        Type::Void => out.push('v'),
        Type::Int => out.push('i'),
        Type::Char => out.push('c'),
        Type::Double => out.push('d'),
        Type::Pointer(inner) => {
            out.push('p');
            enc_ty_into(inner, out);
        }
        Type::Array(elem, n) => {
            out.push('A');
            match n {
                Some(n) => push_u64(out, *n),
                None => out.push('?'),
            }
            out.push(';');
            enc_ty_into(elem, out);
        }
        Type::Struct(sid) => {
            out.push('s');
            push_u32(out, sid.0);
            out.push(';');
        }
        Type::Func(sig) => {
            out.push('f');
            push_usize(out, sig.params.len());
            out.push(';');
            for p in &sig.params {
                enc_ty_into(p, out);
            }
            out.push(if sig.variadic { 'V' } else { '.' });
            enc_ty_into(&sig.ret, out);
        }
    }
}

/// Encodes a type as a whitespace-free token.
pub fn enc_ty(t: &Type) -> String {
    let mut s = String::new();
    enc_ty_into(t, &mut s);
    s
}

/// Encodes an optional type (`-` is `None`).
fn enc_opt_ty_into(out: &mut String, t: &Option<Type>) {
    match t {
        Some(t) => enc_ty_into(t, out),
        None => out.push('-'),
    }
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cur<'_> {
    fn next(&mut self) -> Result<u8, String> {
        let c = *self.b.get(self.i).ok_or("truncated type")?;
        self.i += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number in type".to_owned());
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "bad number in type".to_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.next()? != c {
            return Err(format!("expected `{}` in type", c as char));
        }
        Ok(())
    }
}

fn dec_ty_cur(c: &mut Cur) -> Result<Type, String> {
    match c.next()? {
        b'v' => Ok(Type::Void),
        b'i' => Ok(Type::Int),
        b'c' => Ok(Type::Char),
        b'd' => Ok(Type::Double),
        b'p' => Ok(Type::Pointer(Box::new(dec_ty_cur(c)?))),
        b'A' => {
            let n = if c.b.get(c.i) == Some(&b'?') {
                c.i += 1;
                None
            } else {
                Some(c.number()?)
            };
            c.expect(b';')?;
            Ok(Type::Array(Box::new(dec_ty_cur(c)?), n))
        }
        b's' => {
            let id = c.number()? as u32;
            c.expect(b';')?;
            Ok(Type::Struct(StructId(id)))
        }
        b'f' => {
            let k = c.number()? as usize;
            c.expect(b';')?;
            if k > 4096 {
                return Err("implausible parameter count in type".to_owned());
            }
            let mut params = Vec::with_capacity(k);
            for _ in 0..k {
                params.push(dec_ty_cur(c)?);
            }
            let variadic = match c.next()? {
                b'V' => true,
                b'.' => false,
                _ => return Err("bad variadic marker in type".to_owned()),
            };
            let ret = dec_ty_cur(c)?;
            Ok(Type::Func(Box::new(FuncSig {
                ret,
                params,
                variadic,
            })))
        }
        other => Err(format!("unknown type tag `{}`", other as char)),
    }
}

/// Decodes [`enc_ty`].
pub fn dec_ty(tok: &str) -> Result<Type, String> {
    let mut c = Cur {
        b: tok.as_bytes(),
        i: 0,
    };
    let t = dec_ty_cur(&mut c)?;
    if c.i != c.b.len() {
        return Err("trailing bytes after type".to_owned());
    }
    Ok(t)
}

/// Decodes [`enc_opt_ty`].
pub fn dec_opt_ty(tok: &str) -> Result<Option<Type>, String> {
    if tok == "-" {
        return Ok(None);
    }
    dec_ty(tok).map(Some)
}

// ---------------------------------------------------------------------
// Points-to sets, locations
// ---------------------------------------------------------------------

fn def_tag(d: Def) -> &'static str {
    match d {
        Def::D => "D",
        Def::P => "P",
    }
}

fn dec_def(s: &str) -> Result<Def, String> {
    match s {
        "D" => Ok(Def::D),
        "P" => Ok(Def::P),
        _ => Err(format!("bad definiteness `{s}`")),
    }
}

/// Encodes a points-to set (`0` when empty).
pub fn enc_ptset(s: &PtSet) -> String {
    let mut out = String::new();
    enc_ptset_into(&mut out, s);
    out
}

fn enc_ptset_into(out: &mut String, s: &PtSet) {
    if s.is_empty() {
        out.push('0');
        return;
    }
    for (i, (a, b, d)) in s.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        push_u32(out, a.0);
        out.push(',');
        push_u32(out, b.0);
        out.push(',');
        out.push_str(def_tag(d));
    }
}

/// Decodes [`enc_ptset`]: the canonical scanner when it accepts the
/// token, else the general decoder. Both give the same set on every
/// token the scanner accepts, so which one ran never shows.
pub fn dec_ptset(tok: &str) -> Result<PtSet, String> {
    dec_ptset_canonical(tok).map_or_else(|| dec_ptset_general(tok), Ok)
}

/// Decodes a token exactly as [`enc_ptset`] writes a non-empty set:
/// digits without leading zeros, `,`, `D`/`P` and `;` only, pairs in
/// strictly increasing `(source, target)` order, targets below 2³¹. One
/// pass over the bytes, appending to the set without a search. `None`
/// for anything else, which [`dec_ptset_general`] then decides.
pub fn dec_ptset_canonical(tok: &str) -> Option<PtSet> {
    let mut b = tok.as_bytes();
    if b.is_empty() {
        return None;
    }
    let mut ok = true;
    let set = PtSet::from_sorted(std::iter::from_fn(|| {
        if b.is_empty() {
            return None;
        }
        let t = scan_triple(&mut b);
        ok &= t.is_some();
        t
    }))?;
    ok.then_some(set)
}

/// Scans `src,tgt,D|P` plus the `;` that must separate it from a next
/// triple off the front of `b`.
fn scan_triple(b: &mut &[u8]) -> Option<(LocId, LocId, Def)> {
    let src = scan_u32(b, b',')?;
    let tgt = scan_u32(b, b',')?;
    let d = match b.first()? {
        b'D' => Def::D,
        b'P' => Def::P,
        _ => return None,
    };
    *b = match &b[1..] {
        [] => &[],
        [b';', rest @ ..] if !rest.is_empty() => rest,
        _ => return None,
    };
    Some((LocId(src), LocId(tgt), d))
}

/// Scans a canonical `u32` (no sign, no leading zero) and the `end`
/// byte after it.
fn scan_u32(b: &mut &[u8], end: u8) -> Option<u32> {
    let mut v = 0u64;
    for (i, &c) in b.iter().enumerate() {
        if c == end {
            if i == 0 || (i > 1 && b[0] == b'0') {
                return None;
            }
            *b = &b[i + 1..];
            return u32::try_from(v).ok();
        }
        let digit = c.wrapping_sub(b'0');
        if digit > 9 || i == 10 {
            return None;
        }
        v = v * 10 + u64::from(digit);
    }
    None
}

/// The general points-to set decoder: any token the canonical scanner
/// declines, including non-canonical spellings the text form has always
/// accepted (`+5`, leading zeros, unsorted or repeated pairs).
pub fn dec_ptset_general(tok: &str) -> Result<PtSet, String> {
    let mut set = PtSet::new();
    if tok == "0" {
        return Ok(set);
    }
    for t in tok.split(';') {
        let mut it = t.split(',');
        let a: u32 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or("bad points-to triple")?;
        let b: u32 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or("bad points-to triple")?;
        let d = dec_def(it.next().ok_or("bad points-to triple")?)?;
        if it.next().is_some() {
            return Err("bad points-to triple".to_owned());
        }
        set.insert(LocId(a), LocId(b), d);
    }
    Ok(set)
}

/// Encodes a flow value (`!` is ⊥).
fn enc_flow_into(out: &mut String, f: &Flow) {
    match f {
        None => out.push('!'),
        Some(s) => enc_ptset_into(out, s),
    }
}

/// Decodes [`enc_flow`].
pub fn dec_flow(tok: &str) -> Result<Flow, String> {
    if tok == "!" {
        return Ok(None);
    }
    dec_ptset(tok).map(Some)
}

fn enc_base_into(out: &mut String, b: &LocBase) {
    let (tag, nums) = match *b {
        LocBase::Global(g) => ('g', [Some(g.0), None]),
        LocBase::Var(f, v) => ('V', [Some(f.0), Some(v.0)]),
        LocBase::Symbolic(f, i) => ('y', [Some(f.0), Some(i)]),
        LocBase::Heap => ('h', [None, None]),
        LocBase::HeapSite(s) => ('H', [Some(s), None]),
        LocBase::Null => ('n', [None, None]),
        LocBase::StrLit => ('S', [None, None]),
        LocBase::Function(f) => ('F', [Some(f.0), None]),
        LocBase::Ret(f) => ('r', [Some(f.0), None]),
    };
    out.push(tag);
    if let Some(a) = nums[0] {
        push_u32(out, a);
    }
    if let Some(b) = nums[1] {
        out.push('.');
        push_u32(out, b);
    }
}

fn dec_base(tok: &str) -> Result<LocBase, String> {
    let pair = |rest: &str| -> Result<(u32, u32), String> {
        let (a, b) = rest.split_once('.').ok_or("bad location base")?;
        Ok((
            a.parse().map_err(|_| "bad location base")?,
            b.parse().map_err(|_| "bad location base")?,
        ))
    };
    let num = |rest: &str| -> Result<u32, String> {
        rest.parse().map_err(|_| "bad location base".to_owned())
    };
    match tok.split_at(1) {
        ("g", rest) => Ok(LocBase::Global(GlobalId(num(rest)?))),
        ("V", rest) => {
            let (f, v) = pair(rest)?;
            Ok(LocBase::Var(FuncId(f), IrVarId(v)))
        }
        ("y", rest) => {
            let (f, i) = pair(rest)?;
            Ok(LocBase::Symbolic(FuncId(f), i))
        }
        ("h", "") => Ok(LocBase::Heap),
        ("H", rest) => Ok(LocBase::HeapSite(num(rest)?)),
        ("n", "") => Ok(LocBase::Null),
        ("S", "") => Ok(LocBase::StrLit),
        ("F", rest) => Ok(LocBase::Function(FuncId(num(rest)?))),
        ("r", rest) => Ok(LocBase::Ret(FuncId(num(rest)?))),
        _ => Err(format!("unknown location base `{tok}`")),
    }
}

fn enc_projs_into(out: &mut String, ps: &[Proj]) {
    if ps.is_empty() {
        out.push('-');
        return;
    }
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        match p {
            Proj::Field(f) => {
                out.push('f');
                enc_str_into(out, f);
            }
            Proj::Head => out.push('h'),
            Proj::Tail => out.push('t'),
        }
    }
}

fn dec_projs(tok: &str) -> Result<Vec<Proj>, String> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split('/')
        .map(|p| match p.split_at(1) {
            ("f", rest) => Ok(Proj::Field(dec_str(rest)?)),
            ("h", "") => Ok(Proj::Head),
            ("t", "") => Ok(Proj::Tail),
            _ => Err(format!("unknown projection `{p}`")),
        })
        .collect()
}

fn enc_opt_u32_into(out: &mut String, v: Option<u32>) {
    match v {
        Some(v) => push_u32(out, v),
        None => out.push('-'),
    }
}

fn dec_opt_u32(tok: &str) -> Result<Option<u32>, String> {
    if tok == "-" {
        return Ok(None);
    }
    tok.parse().map(Some).map_err(|_| "bad number".to_owned())
}

fn kind_tag(k: IgKind) -> &'static str {
    match k {
        IgKind::Ordinary => "o",
        IgKind::Recursive => "r",
        IgKind::Approximate => "a",
    }
}

fn dec_kind(tok: &str) -> Result<IgKind, String> {
    match tok {
        "o" => Ok(IgKind::Ordinary),
        "r" => Ok(IgKind::Recursive),
        "a" => Ok(IgKind::Approximate),
        _ => Err(format!("bad node kind `{tok}`")),
    }
}

fn via_tag(v: EscapeVia) -> &'static str {
    match v {
        EscapeVia::Unmap => "u",
        EscapeVia::Return => "r",
    }
}

fn dec_via(tok: &str) -> Result<EscapeVia, String> {
    match tok {
        "u" => Ok(EscapeVia::Unmap),
        "r" => Ok(EscapeVia::Return),
        _ => Err(format!("bad escape kind `{tok}`")),
    }
}

/// Appends an escape row: its tag, the event's fields and the newline.
fn enc_escape_row(out: &mut String, tag: &str, e: &EscapeEvent) {
    out.push_str(tag);
    out.push(' ');
    push_u32(out, e.callee.0);
    out.push(' ');
    push_u32(out, e.call_site.0);
    out.push(' ');
    out.push_str(via_tag(e.via));
    out.push(' ');
    out.push_str(def_tag(e.def));
    out.push(' ');
    enc_str_into(out, &e.local);
    out.push('\n');
}

fn dec_severity(tok: &str) -> Result<Severity, String> {
    match tok {
        "warning" => Ok(Severity::Warning),
        "error" => Ok(Severity::Error),
        _ => Err(format!("bad severity `{tok}`")),
    }
}

fn dec_fidelity(tok: &str) -> Result<Fidelity, String> {
    for f in [
        Fidelity::ContextSensitive,
        Fidelity::Summary,
        Fidelity::ContextInsensitive,
        Fidelity::Andersen,
        Fidelity::Steensgaard,
    ] {
        if f.tag() == tok {
            return Ok(f);
        }
    }
    Err(format!("bad fidelity `{tok}`"))
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// The checksum line's value before the payload is hashed; patched in
/// place once it is.
const CSUM_PLACEHOLDER: &str = "0000000000000000";

/// Appends `tag` and a count: a section header such as `funcs 59`.
fn push_count_line(out: &mut String, tag: &str, n: usize) {
    out.push_str(tag);
    out.push(' ');
    push_usize(out, n);
    out.push('\n');
}

/// Appends `tag`, a statement id and its set: a `cp` or `rp` row.
fn push_set_row(out: &mut String, tag: &str, id: StmtId, set: &PtSet) {
    out.push_str(tag);
    out.push(' ');
    push_u32(out, id.0);
    out.push(' ');
    enc_ptset_into(out, set);
    out.push('\n');
}

/// Renders a snapshot as its canonical text form (header, checksum,
/// payload). Serializing the same snapshot always yields the same
/// bytes.
///
/// Every row is written straight into the one output buffer; the
/// checksum line holds a placeholder until the payload is done and is
/// then patched in place.
pub fn serialize(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push(' ');
    out.push_str(SCHEMA_VERSION);
    out.push_str("\nchecksum ");
    let csum_at = out.len();
    out.push_str(CSUM_PLACEHOLDER);
    out.push('\n');
    let payload_at = out.len();

    out.push_str("skeleton ");
    push_hex16(&mut out, snap.skeleton);
    out.push_str("\nconfig ");
    push_hex16(&mut out, snap.config);
    out.push('\n');
    push_count_line(&mut out, "funcs", snap.functions.len());
    for f in &snap.functions {
        out.push_str("fn ");
        push_u32(&mut out, f.func);
        out.push(' ');
        push_hex16(&mut out, f.fp);
        out.push(' ');
        enc_str_into(&mut out, &f.name);
        out.push('\n');
    }
    push_count_line(&mut out, "syms", snap.syms.len());
    for s in &snap.syms {
        out.push_str("sym ");
        push_u32(&mut out, s.func.0);
        out.push(' ');
        push_u32(&mut out, s.depth);
        out.push(' ');
        enc_str_into(&mut out, &s.name);
        out.push(' ');
        enc_opt_ty_into(&mut out, &s.ty);
        out.push('\n');
    }
    push_count_line(&mut out, "locs", snap.locs.len());
    for l in &snap.locs {
        out.push_str("loc ");
        enc_base_into(&mut out, &l.base);
        out.push(' ');
        enc_projs_into(&mut out, &l.projs);
        out.push(' ');
        enc_opt_ty_into(&mut out, &l.ty);
        out.push(' ');
        enc_str_into(&mut out, &l.name);
        out.push('\n');
    }
    out.push_str("ig ");
    push_usize(&mut out, snap.nodes.len());
    out.push(' ');
    enc_opt_u32_into(&mut out, snap.root);
    out.push('\n');
    for n in &snap.nodes {
        out.push_str("node ");
        push_u32(&mut out, n.func);
        out.push(' ');
        enc_opt_u32_into(&mut out, n.parent);
        out.push(' ');
        out.push_str(kind_tag(n.kind));
        out.push(' ');
        enc_opt_u32_into(&mut out, n.rec);
        out.push_str(if n.memo_valid { " 1 " } else { " 0 " });
        match &n.stored_input {
            Some(s) => enc_ptset_into(&mut out, s),
            None => out.push('!'),
        }
        out.push(' ');
        enc_flow_into(&mut out, &n.stored_output);
        out.push_str("\nmi ");
        push_usize(&mut out, n.map_info.len());
        for (k, v) in &n.map_info {
            out.push(' ');
            push_u32(&mut out, k.0);
            out.push('=');
            for (i, l) in v.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_u32(&mut out, l.0);
            }
        }
        out.push_str("\nch ");
        push_usize(&mut out, n.children.len());
        for &(cs, f, id) in &n.children {
            out.push(' ');
            push_u32(&mut out, cs);
            out.push(',');
            push_u32(&mut out, f);
            out.push(',');
            push_u32(&mut out, id);
        }
        out.push('\n');
    }
    push_count_line(&mut out, "caps", snap.captures.len());
    for (&node, cap) in &snap.captures {
        out.push_str("cap ");
        push_u32(&mut out, node);
        out.push_str(if cap.complete { " 1 " } else { " 0 " });
        push_usize(&mut out, cap.per_stmt.len());
        out.push(' ');
        push_usize(&mut out, cap.warnings.len());
        out.push(' ');
        push_usize(&mut out, cap.escapes.len());
        out.push('\n');
        for (&id, set) in &cap.per_stmt {
            push_set_row(&mut out, "cp", id, set);
        }
        for w in &cap.warnings {
            out.push_str("cw ");
            enc_str_into(&mut out, w);
            out.push('\n');
        }
        for e in &cap.escapes {
            enc_escape_row(&mut out, "ce", e);
        }
    }
    out.push_str("result\n");
    push_count_line(&mut out, "rs", snap.per_stmt.len());
    for (&id, set) in &snap.per_stmt {
        push_set_row(&mut out, "rp", id, set);
    }
    out.push_str("exit ");
    enc_ptset_into(&mut out, &snap.exit_set);
    out.push('\n');
    push_count_line(&mut out, "warns", snap.warnings.len());
    for w in &snap.warnings {
        out.push_str("w ");
        enc_str_into(&mut out, w);
        out.push('\n');
    }
    push_count_line(&mut out, "escs", snap.escapes.len());
    for e in &snap.escapes {
        enc_escape_row(&mut out, "e", e);
    }
    push_count_line(&mut out, "lint", snap.lint.len());
    for l in &snap.lint {
        out.push_str("l ");
        enc_str_into(&mut out, &l.check_id);
        out.push(' ');
        out.push_str(l.severity.tag());
        out.push(' ');
        out.push_str(l.fidelity.tag());
        out.push(' ');
        enc_opt_u32_into(&mut out, l.stmt);
        out.push(' ');
        push_usize(&mut out, l.span.0);
        out.push(' ');
        push_usize(&mut out, l.span.1);
        out.push(' ');
        push_u32(&mut out, l.span.2);
        out.push(' ');
        push_u32(&mut out, l.span.3);
        out.push(' ');
        enc_str_into(&mut out, &l.function);
        out.push(' ');
        enc_str_into(&mut out, &l.message);
        out.push('\n');
    }
    out.push_str("end\n");

    let csum = hex16(fnv1a(&out.as_bytes()[payload_at..]));
    out.replace_range(
        csum_at..csum_at + CSUM_PLACEHOLDER.len(),
        std::str::from_utf8(&csum).expect("ASCII hex"),
    );
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Most tokens a fixed-shape row has (`l` rows have 11).
const MAX_TOKS: usize = 11;

/// One line split into tokens without allocating: the first
/// [`MAX_TOKS`] tokens, plus the whole line for rows with a variable
/// number of entries (`mi`, `ch`).
struct Row<'a> {
    line: &'a str,
    toks: [&'a str; MAX_TOKS],
    n: usize,
}

impl<'a> Row<'a> {
    fn new(line: &'a str) -> Row<'a> {
        let mut row = Row {
            line,
            toks: [""; MAX_TOKS],
            n: 0,
        };
        for (slot, t) in row.toks.iter_mut().zip(line.split(' ')) {
            *slot = t;
            row.n += 1;
        }
        row
    }

    fn get(&self, at: usize) -> Option<&'a str> {
        self.toks[..self.n].get(at).copied()
    }
}

struct Parser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, StoreError> {
        Err(StoreError::Corrupt {
            line: self.line_no,
            msg: msg.into(),
        })
    }

    /// Next line split into tokens; the first token must equal `tag`.
    fn line(&mut self, tag: &str) -> Result<Row<'a>, StoreError> {
        let Some(l) = self.lines.next() else {
            return Err(StoreError::Corrupt {
                line: self.line_no + 1,
                msg: format!("unexpected end of snapshot (wanted `{tag}`)"),
            });
        };
        self.line_no += 1;
        let row = Row::new(l);
        if row.toks[0] != tag {
            return self.err(format!("expected a `{tag}` line, found `{}`", row.toks[0]));
        }
        Ok(row)
    }

    fn count(&self, toks: &Row, at: usize) -> Result<usize, StoreError> {
        toks.get(at)
            .and_then(|t| t.parse().ok())
            .ok_or(StoreError::Corrupt {
                line: self.line_no,
                msg: "bad count".to_owned(),
            })
    }

    fn tok<'b>(&self, toks: &Row<'b>, at: usize) -> Result<&'b str, StoreError> {
        toks.get(at).ok_or(StoreError::Corrupt {
            line: self.line_no,
            msg: "missing token".to_owned(),
        })
    }

    fn u32_at(&self, toks: &Row, at: usize) -> Result<u32, StoreError> {
        self.tok(toks, at)?
            .parse()
            .map_err(|_| StoreError::Corrupt {
                line: self.line_no,
                msg: "bad number".to_owned(),
            })
    }

    fn hex_at(&self, toks: &Row, at: usize) -> Result<u64, StoreError> {
        u64::from_str_radix(self.tok(toks, at)?, 16).map_err(|_| StoreError::Corrupt {
            line: self.line_no,
            msg: "bad hex value".to_owned(),
        })
    }

    fn map<T>(&self, r: Result<T, String>) -> Result<T, StoreError> {
        r.map_err(|msg| StoreError::Corrupt {
            line: self.line_no,
            msg,
        })
    }
}

/// Parses (and checksums) snapshot text.
///
/// # Errors
///
/// [`StoreError::Version`] for a foreign header, [`StoreError::Checksum`]
/// for payload damage the structural parser cannot even reach, and
/// [`StoreError::Corrupt`] (with a line number) for structural damage.
pub fn parse(text: &str) -> Result<Snapshot, StoreError> {
    // Header and checksum lines are handled before line-based parsing so
    // a corrupt count cannot desynchronize them.
    let mut head = text.splitn(3, '\n');
    let magic = head.next().unwrap_or("");
    if magic != format!("{MAGIC} {SCHEMA_VERSION}") {
        return Err(StoreError::Version {
            found: magic.to_owned(),
        });
    }
    let csum_line = head.next().unwrap_or("");
    let payload = head.next().unwrap_or("");
    let Some(csum) = csum_line.strip_prefix("checksum ") else {
        return Err(StoreError::Corrupt {
            line: 2,
            msg: "missing checksum line".to_owned(),
        });
    };
    let csum = u64::from_str_radix(csum, 16).map_err(|_| StoreError::Corrupt {
        line: 2,
        msg: "bad checksum value".to_owned(),
    })?;
    if fnv1a(payload.as_bytes()) != csum {
        return Err(StoreError::Checksum);
    }

    let mut p = Parser {
        lines: payload.lines(),
        line_no: 2,
    };
    let mut snap = Snapshot::default();

    let t = p.line("skeleton")?;
    snap.skeleton = p.hex_at(&t, 1)?;
    let t = p.line("config")?;
    snap.config = p.hex_at(&t, 1)?;

    let t = p.line("funcs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("fn")?;
        snap.functions.push(FnRow {
            func: p.u32_at(&t, 1)?,
            fp: p.hex_at(&t, 2)?,
            name: p.map(dec_str(p.tok(&t, 3)?))?,
        });
    }

    let t = p.line("syms")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("sym")?;
        snap.syms.push(SymbolicData {
            func: FuncId(p.u32_at(&t, 1)?),
            depth: p.u32_at(&t, 2)?,
            name: p.map(dec_str(p.tok(&t, 3)?))?,
            ty: p.map(dec_opt_ty(p.tok(&t, 4)?))?,
        });
    }

    let t = p.line("locs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("loc")?;
        snap.locs.push(LocData {
            base: p.map(dec_base(p.tok(&t, 1)?))?,
            projs: p.map(dec_projs(p.tok(&t, 2)?))?,
            ty: p.map(dec_opt_ty(p.tok(&t, 3)?))?,
            name: p.map(dec_str(p.tok(&t, 4)?))?,
        });
    }

    let t = p.line("ig")?;
    let n = p.count(&t, 1)?;
    snap.root = p.map(dec_opt_u32(p.tok(&t, 2)?))?;
    for _ in 0..n {
        let t = p.line("node")?;
        let stored_input = match p.tok(&t, 6)? {
            "!" => None,
            s => Some(p.map(dec_ptset(s))?),
        };
        let mut row = NodeRow {
            func: p.u32_at(&t, 1)?,
            parent: p.map(dec_opt_u32(p.tok(&t, 2)?))?,
            kind: p.map(dec_kind(p.tok(&t, 3)?))?,
            rec: p.map(dec_opt_u32(p.tok(&t, 4)?))?,
            memo_valid: p.u32_at(&t, 5)? != 0,
            stored_input,
            stored_output: p.map(dec_flow(p.tok(&t, 7)?))?,
            map_info: MapInfo::new(),
            children: Vec::new(),
        };
        let t = p.line("mi")?;
        let k = p.count(&t, 1)?;
        let mut entries = t.line.split(' ').skip(2);
        for _ in 0..k {
            let Some(entry) = entries.next() else {
                return p.err("missing token");
            };
            let Some((key, reps)) = entry.split_once('=') else {
                return p.err("bad map-info entry");
            };
            let key: u32 = match key.parse() {
                Ok(k) => k,
                Err(_) => return p.err("bad map-info key"),
            };
            let mut locs = Vec::new();
            if !reps.is_empty() {
                for r in reps.split(',') {
                    match r.parse::<u32>() {
                        Ok(v) => locs.push(LocId(v)),
                        Err(_) => return p.err("bad map-info value"),
                    }
                }
            }
            row.map_info.insert(LocId(key), locs);
        }
        let t = p.line("ch")?;
        let k = p.count(&t, 1)?;
        let mut entries = t.line.split(' ').skip(2);
        for _ in 0..k {
            let Some(entry) = entries.next() else {
                return p.err("missing token");
            };
            let mut parts = entry.split(',').map(str::parse::<u32>);
            let (Some(Ok(cs)), Some(Ok(f)), Some(Ok(id)), None) =
                (parts.next(), parts.next(), parts.next(), parts.next())
            else {
                return p.err("bad child entry");
            };
            row.children.push((cs, f, id));
        }
        snap.nodes.push(row);
    }

    let t = p.line("caps")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("cap")?;
        let node = p.u32_at(&t, 1)?;
        let complete = p.u32_at(&t, 2)? != 0;
        let (np, nw, ne) = (p.count(&t, 3)?, p.count(&t, 4)?, p.count(&t, 5)?);
        let mut cap = Capture::new();
        cap.complete = complete;
        for _ in 0..np {
            let t = p.line("cp")?;
            cap.per_stmt
                .insert(StmtId(p.u32_at(&t, 1)?), p.map(dec_ptset(p.tok(&t, 2)?))?);
        }
        for _ in 0..nw {
            let t = p.line("cw")?;
            cap.warnings.push(p.map(dec_str(p.tok(&t, 1)?))?);
        }
        for _ in 0..ne {
            let t = p.line("ce")?;
            cap.escapes.push(parse_escape(&p, &t)?);
        }
        snap.captures.insert(node, Arc::new(cap));
    }

    p.line("result")?;
    let t = p.line("rs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("rp")?;
        snap.per_stmt
            .insert(StmtId(p.u32_at(&t, 1)?), p.map(dec_ptset(p.tok(&t, 2)?))?);
    }
    let t = p.line("exit")?;
    snap.exit_set = p.map(dec_ptset(p.tok(&t, 1)?))?;
    let t = p.line("warns")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("w")?;
        snap.warnings.push(p.map(dec_str(p.tok(&t, 1)?))?);
    }
    let t = p.line("escs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("e")?;
        snap.escapes.push(parse_escape(&p, &t)?);
    }

    let t = p.line("lint")?;
    let n = p.count(&t, 1)?;
    let known: Vec<&'static str> = pta_lint::all_checks().iter().map(|c| c.id()).collect();
    for _ in 0..n {
        let t = p.line("l")?;
        let check_id = p.map(dec_str(p.tok(&t, 1)?))?;
        if !known.contains(&check_id.as_str()) {
            return p.err(format!("unknown lint check id `{check_id}`"));
        }
        snap.lint.push(LintRow {
            check_id,
            severity: p.map(dec_severity(p.tok(&t, 2)?))?,
            fidelity: p.map(dec_fidelity(p.tok(&t, 3)?))?,
            stmt: p.map(dec_opt_u32(p.tok(&t, 4)?))?,
            span: (
                self_parse(&p, &t, 5)?,
                self_parse(&p, &t, 6)?,
                p.u32_at(&t, 7)?,
                p.u32_at(&t, 8)?,
            ),
            function: p.map(dec_str(p.tok(&t, 9)?))?,
            message: p.map(dec_str(p.tok(&t, 10)?))?,
        });
    }
    p.line("end")?;
    Ok(snap)
}

fn self_parse(p: &Parser, toks: &Row, at: usize) -> Result<usize, StoreError> {
    p.tok(toks, at)?.parse().map_err(|_| StoreError::Corrupt {
        line: p.line_no,
        msg: "bad number".to_owned(),
    })
}

fn parse_escape(p: &Parser, toks: &Row) -> Result<EscapeEvent, StoreError> {
    Ok(EscapeEvent {
        callee: FuncId(p.u32_at(toks, 1)?),
        call_site: CallSiteId(p.u32_at(toks, 2)?),
        via: p.map(dec_via(p.tok(toks, 3)?))?,
        def: p.map(dec_def(p.tok(toks, 4)?))?,
        local: p.map(dec_str(p.tok(toks, 5)?))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_core::invocation_graph::MapInfo;

    #[test]
    fn string_roundtrip_covers_awkward_bytes() {
        for s in [
            "",
            "plain",
            "two words",
            "percent% sign",
            "tab\there",
            "née",
        ] {
            let enc = enc_str(s);
            assert!(!enc.contains(' '), "{enc:?} must be space-free");
            assert_eq!(dec_str(&enc).unwrap(), s);
        }
    }

    #[test]
    fn type_roundtrip() {
        let sig = FuncSig {
            ret: Type::Int.ptr_to(),
            params: vec![Type::Char, Type::Array(Box::new(Type::Double), Some(4))],
            variadic: true,
        };
        let cases = [
            Type::Void,
            Type::Int.ptr_to().ptr_to(),
            Type::Array(Box::new(Type::Struct(StructId(3))), None),
            Type::Func(Box::new(sig)),
        ];
        for t in cases {
            assert_eq!(dec_ty(&enc_ty(&t)).unwrap(), t, "{}", enc_ty(&t));
        }
        assert!(dec_ty("px").is_err());
        assert!(dec_ty("ii").is_err());
    }

    #[test]
    fn ptset_roundtrip() {
        let mut s = PtSet::new();
        s.insert(LocId(3), LocId(7), Def::D);
        s.insert(LocId(1), LocId(0), Def::P);
        let enc = enc_ptset(&s);
        assert_eq!(dec_ptset(&enc).unwrap(), s);
        assert_eq!(dec_ptset("0").unwrap(), PtSet::new());
        assert_eq!(dec_flow("!").unwrap(), None);
        assert!(dec_ptset("1,2").is_err());
    }

    #[test]
    fn base_and_projs_roundtrip() {
        let bases = [
            LocBase::Global(GlobalId(2)),
            LocBase::Var(FuncId(1), IrVarId(4)),
            LocBase::Symbolic(FuncId(0), 9),
            LocBase::Heap,
            LocBase::HeapSite(12),
            LocBase::Null,
            LocBase::StrLit,
            LocBase::Function(FuncId(5)),
            LocBase::Ret(FuncId(6)),
        ];
        for b in bases {
            let mut enc = String::new();
            enc_base_into(&mut enc, &b);
            assert_eq!(dec_base(&enc).unwrap(), b);
        }
        let projs = vec![Proj::Field("next".into()), Proj::Head, Proj::Tail];
        let mut enc = String::new();
        enc_projs_into(&mut enc, &projs);
        assert_eq!(dec_projs(&enc).unwrap(), projs);
        assert_eq!(dec_projs("-").unwrap(), Vec::<Proj>::new());
    }

    #[test]
    fn empty_snapshot_roundtrip_is_byte_stable() {
        let snap = Snapshot::default();
        let text = serialize(&snap);
        let parsed = parse(&text).unwrap();
        assert_eq!(serialize(&parsed), text);
    }

    #[test]
    fn version_and_checksum_are_enforced() {
        let text = serialize(&Snapshot::default());
        let wrong = text.replacen(SCHEMA_VERSION, "pta.v0", 1);
        assert!(matches!(parse(&wrong), Err(StoreError::Version { .. })));
        // Flip one payload byte: the checksum must catch it.
        let mut damaged = text.clone().into_bytes();
        let i = text.len() - 3;
        damaged[i] = damaged[i].wrapping_add(1);
        let damaged = String::from_utf8(damaged).unwrap();
        assert!(matches!(
            parse(&damaged),
            Err(StoreError::Checksum) | Err(StoreError::Corrupt { .. })
        ));
    }

    /// A snapshot with every row kind and every optional field both ways.
    fn every_row_kind() -> Snapshot {
        let set = |ts: &[(u32, u32, Def)]| -> PtSet {
            ts.iter()
                .map(|&(a, b, d)| (LocId(a), LocId(b), d))
                .collect()
        };
        let escape = |via, def| EscapeEvent {
            callee: FuncId(1),
            call_site: CallSiteId(4),
            via,
            local: "buf x".to_owned(),
            def,
        };
        let mut cap = Capture::new();
        cap.per_stmt.insert(StmtId(3), set(&[(0, 1, Def::D)]));
        cap.per_stmt.insert(StmtId(9), PtSet::new());
        cap.warnings.push("w%1".to_owned());
        cap.escapes.push(escape(EscapeVia::Unmap, Def::P));
        let mut incomplete = Capture::new();
        incomplete.complete = false;
        let ty = Type::Func(Box::new(FuncSig {
            ret: Type::Int.ptr_to(),
            params: vec![Type::Array(Box::new(Type::Struct(StructId(2))), Some(12))],
            variadic: true,
        }));
        let mut map_info = MapInfo::new();
        map_info.insert(LocId(5), vec![LocId(1), LocId(2)]);
        map_info.insert(LocId(6), Vec::new());
        let loc = |base, projs, ty, name: &str| LocData {
            base,
            projs,
            ty,
            name: name.to_owned(),
        };
        let mut wide = PtSet::new();
        for i in 0..8 {
            wide.insert(LocId(i / 3), LocId(1000 + i), Def::P);
        }
        wide.insert(LocId(u32::MAX), LocId(u32::MAX >> 1), Def::D);
        Snapshot {
            skeleton: 0x0123_4567_89ab_cdef,
            config: 7,
            functions: vec![
                FnRow {
                    func: 0,
                    fp: u64::MAX,
                    name: "main".to_owned(),
                },
                FnRow {
                    func: 1,
                    fp: 0,
                    name: String::new(),
                },
            ],
            syms: vec![
                SymbolicData {
                    func: FuncId(1),
                    depth: 2,
                    name: "2_p".to_owned(),
                    ty: Some(ty.clone()),
                },
                SymbolicData {
                    func: FuncId(0),
                    depth: 1,
                    name: "1_q".to_owned(),
                    ty: None,
                },
            ],
            locs: vec![
                loc(
                    LocBase::Global(GlobalId(0)),
                    Vec::new(),
                    Some(Type::Int),
                    "g",
                ),
                loc(
                    LocBase::Var(FuncId(1), IrVarId(3)),
                    vec![Proj::Field("next".into()), Proj::Head],
                    Some(ty),
                    "s.next",
                ),
                loc(
                    LocBase::Symbolic(FuncId(1), 0),
                    vec![Proj::Tail],
                    None,
                    "2_p",
                ),
                loc(LocBase::Heap, Vec::new(), None, "heap"),
                loc(LocBase::HeapSite(17), Vec::new(), None, "heap@s17"),
                loc(LocBase::Null, Vec::new(), None, "null"),
                loc(
                    LocBase::StrLit,
                    Vec::new(),
                    Some(Type::Array(Box::new(Type::Char), None)),
                    "str lit",
                ),
                loc(LocBase::Function(FuncId(1)), Vec::new(), None, "f"),
                loc(
                    LocBase::Ret(FuncId(1)),
                    Vec::new(),
                    Some(Type::Void.ptr_to()),
                    "ret_f",
                ),
            ],
            nodes: vec![
                NodeRow {
                    func: 0,
                    parent: None,
                    kind: IgKind::Ordinary,
                    rec: None,
                    memo_valid: true,
                    stored_input: Some(set(&[(0, 1, Def::D), (2, 3, Def::P)])),
                    stored_output: Some(wide.clone()),
                    map_info,
                    children: vec![(0, 1, 1), (4, 1, 2)],
                },
                NodeRow {
                    func: 1,
                    parent: Some(0),
                    kind: IgKind::Recursive,
                    rec: None,
                    memo_valid: false,
                    stored_input: Some(PtSet::new()),
                    stored_output: None,
                    map_info: MapInfo::new(),
                    children: Vec::new(),
                },
                NodeRow {
                    func: 1,
                    parent: Some(0),
                    kind: IgKind::Approximate,
                    rec: Some(1),
                    memo_valid: false,
                    stored_input: None,
                    stored_output: Some(PtSet::new()),
                    map_info: MapInfo::new(),
                    children: Vec::new(),
                },
            ],
            root: Some(0),
            captures: [(0, Arc::new(cap)), (2, Arc::new(incomplete))]
                .into_iter()
                .collect(),
            per_stmt: [(StmtId(0), wide), (StmtId(12), PtSet::new())]
                .into_iter()
                .collect(),
            exit_set: set(&[(7, 0, Def::P)]),
            warnings: vec!["two words".to_owned(), String::new()],
            escapes: vec![
                escape(EscapeVia::Return, Def::D),
                escape(EscapeVia::Unmap, Def::P),
            ],
            lint: vec![
                LintRow {
                    check_id: "null-deref".to_owned(),
                    severity: Severity::Error,
                    fidelity: Fidelity::ContextSensitive,
                    function: "main".to_owned(),
                    stmt: Some(3),
                    span: (10, 24, 2, 5),
                    message: "dereference of `p`, which may be NULL".to_owned(),
                },
                LintRow {
                    check_id: "dead-store".to_owned(),
                    severity: Severity::Warning,
                    fidelity: Fidelity::Steensgaard,
                    function: "f".to_owned(),
                    stmt: None,
                    span: (0, 0, 0, 0),
                    message: "é\ttab".to_owned(),
                },
            ],
        }
    }

    /// [`every_row_kind`] as the text format has always spelled it.
    const EVERY_ROW_KIND: &str = r#"pta-store pta.v1
checksum b40ea8bc9746a7ff
skeleton 0123456789abcdef
config 0000000000000007
funcs 2
fn 0 ffffffffffffffff main
fn 1 0000000000000000 %
syms 2
sym 1 2 2_p f1;A12;s2;Vpi
sym 0 1 1_q -
locs 9
loc g0 - i g
loc V1.3 fnext/h f1;A12;s2;Vpi s.next
loc y1.0 t - 2_p
loc h - - heap
loc H17 - - heap@s17
loc n - - null
loc S - A?;c str%20lit
loc F1 - - f
loc r1 - pv ret_f
ig 3 0
node 0 - o - 1 0,1,D;2,3,P 0,1000,P;0,1001,P;0,1002,P;1,1003,P;1,1004,P;1,1005,P;2,1006,P;2,1007,P;4294967295,2147483647,D
mi 2 5=1,2 6=
ch 2 0,1,1 4,1,2
node 1 0 r - 0 0 !
mi 0
ch 0
node 1 0 a 1 0 ! 0
mi 0
ch 0
caps 2
cap 0 1 2 1 1
cp 3 0,1,D
cp 9 0
cw w%251
ce 1 4 u P buf%20x
cap 2 0 0 0 0
result
rs 2
rp 0 0,1000,P;0,1001,P;0,1002,P;1,1003,P;1,1004,P;1,1005,P;2,1006,P;2,1007,P;4294967295,2147483647,D
rp 12 0
exit 7,0,P
warns 2
w two%20words
w %
escs 2
e 1 4 r D buf%20x
e 1 4 u P buf%20x
lint 2
l null-deref error context-sensitive 3 10 24 2 5 main dereference%20of%20`p`,%20which%20may%20be%20NULL
l dead-store warning steensgaard - 0 0 0 0 f %c3%a9%09tab
end
"#;

    #[test]
    fn every_row_kind_keeps_its_bytes() {
        let text = serialize(&every_row_kind());
        for (i, (got, want)) in text.lines().zip(EVERY_ROW_KIND.lines()).enumerate() {
            assert_eq!(got, want, "line {}", i + 1);
        }
        assert_eq!(text, EVERY_ROW_KIND);
        assert_eq!(serialize(&parse(EVERY_ROW_KIND).unwrap()), EVERY_ROW_KIND);
    }
}
