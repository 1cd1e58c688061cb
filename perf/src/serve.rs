//! The serve workloads, `serve-read` and `serve-edit`: a child
//! `pta serve --listen` over several tenants, driven from this process's
//! main thread over one TCP connection at a time, with the server and
//! the load on one CPU (see `cpu`).
//!
//! Every query in the mix is valid and answered `ok:true`; the served
//! bytes are checked, after the load ends, against an in-process
//! `Router` over the same tenant files.

use crate::layers::{self, Json, Router, Tracer};
use crate::report::{self, Counts, Outcome};
use crate::stats::{self, Fnv};
use crate::{batch, gen, Settings, Workload};
use pta_prop::Rng;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `serve-edit`'s open-loop rate (requests per second), frozen: about a
/// quarter of the closed-loop rate of `serve-read`.
const OPEN_RATE: f64 = 20000.0;

/// Distinct queries generated per tenant.
const QUERIES_PER_TENANT: usize = 48;

/// Query kinds in a fixed rotation of twenty: 7 `points-to` at exit, 5
/// `points-to` at a statement, 3 `aliases?`, 3 `call-targets`, 2
/// `lint`. Fixed, not drawn, so every seed's mix has the same shape.
const KINDS: [u8; 20] = [0, 1, 0, 2, 3, 0, 1, 4, 0, 2, 1, 3, 0, 1, 2, 0, 3, 1, 4, 0];

/// Length of the seeded request sequence the loops cycle through.
const SEQUENCE: usize = 8192;

/// A request whose answer takes longer than this fails.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A server that is not ready by then fails the run.
const READY_TIMEOUT: Duration = Duration::from_secs(150);

/// The open loop sleeps until this long before a request is due, then
/// yields until it is: a sleep overshoots by up to the 50 us default
/// timer slack.
const SPIN: Duration = Duration::from_micros(60);

/// Edits (with probes) in the traced pass's in-process replay of the
/// request sequence.
const REPLAY_EDITS: usize = 4;

/// The load runs as back-to-back cycles and a metric is the median of
/// the cycles' values, so a burst of noise on a shared machine moves
/// one cycle, not the result. A `serve-read` cycle lasts this many
/// seconds.
const READ_CYCLE_S: f64 = 1.0 / 3.0;

/// A `serve-edit` cycle lasts this long and holds one edit.
const EDIT_CYCLE_S: f64 = 1.0;

/// The untimed warm-up round (at most as long as the measured run):
/// seconds of closed loop for `serve-read`; seconds of open loop, with
/// two edits, for `serve-edit`.
const WARM_UP_S: f64 = 1.0;
const EDIT_WARM_UP_S: f64 = 2.0;

/// One program behind the server.
struct Tenant {
    name: String,
    source: String,
    /// For the `serve-edit` tenant: the program with its planted
    /// statement.
    edit: Option<gen::Program>,
}

/// Suite tenants, the same for every seed so that runs on different
/// seeds serve the same amount of work: the seed varies the generated
/// tenants and the query mix.
const READ_SUITE: [&str; 6] = ["compress", "hash", "misr", "stanford", "travel", "xref"];
const EDIT_SUITE: [&str; 2] = ["hash", "misr"];

/// The tenants of a workload for a seed: suite programs plus generated
/// programs of about 1.2k (and, for `serve-read`, 3k) SIMPLE
/// statements.
fn tenants(w: Workload, seed: u64) -> Vec<Tenant> {
    let mut rng = Rng::new(seed ^ 0x7e4a_4701);
    let (suite, generated): (&[&str], &[(&str, usize)]) = match w {
        Workload::ServeRead => (&READ_SUITE, &[("gen1k", 1240), ("gen3k", 3000)]),
        _ => (&EDIT_SUITE, &[("gen1k", 1240)]),
    };
    let mut out: Vec<Tenant> = layers::SUITE
        .iter()
        .filter(|b| suite.contains(&b.name))
        .map(|b| Tenant {
            name: b.name.to_owned(),
            source: b.source.to_owned(),
            edit: None,
        })
        .collect();
    for &(name, size) in generated {
        let p = gen::program(name, size, 4, &mut rng);
        out.push(Tenant {
            name: name.to_owned(),
            source: p.source.clone(),
            edit: (w == Workload::ServeEdit).then_some(p),
        });
    }
    out
}

/// A scratch directory under `.perf_work/` at the repository root,
/// removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(w: Workload, traced: bool) -> Result<WorkDir, String> {
        let dir = crate::repo_root().join(".perf_work").join(format!(
            "{}-{}-{}",
            w.name(),
            if traced { "traced" } else { "run" },
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Writes each tenant's source as `<dir>/<name>.c`; `state` 1 writes
/// the edited tenant with its planted statement toggled.
fn write_sources(dir: &Path, tenants: &[Tenant], state: u8) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    tenants
        .iter()
        .map(|t| {
            let path = dir.join(format!("{}.c", t.name));
            let text = t
                .edit
                .as_ref()
                .map_or(t.source.clone(), |p| p.with_state(state));
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

/// The query mix: request lines, each one's tenant and dispatch layer.
struct Mix {
    lines: Vec<String>,
    wire: Vec<Vec<u8>>,
    tenant: Vec<usize>,
    layer: Vec<&'static str>,
    /// `serve-edit`: the probe of the planted statement.
    probe: Option<usize>,
}

/// Resolves every tenant so later requests find it resident.
fn preload(router: &Router, tenants: &[Tenant]) -> Result<(), String> {
    let mut off = Tracer::off();
    for t in tenants {
        layers::route(&mut off, router, Some(&t.name))?;
    }
    Ok(())
}

fn esc(s: &str) -> String {
    layers::json::escape(s)
}

/// Generates the seeded query mix from the facts of each tenant. Every
/// query must be answered `ok:true` by `router`.
fn build_mix(router: &Router, tenants: &[Tenant], seed: u64) -> Result<Mix, String> {
    let mut rng = Rng::new(seed ^ 0x9e7_0001);
    let mut mix = Mix {
        lines: Vec::new(),
        wire: Vec::new(),
        tenant: Vec::new(),
        layer: Vec::new(),
        probe: None,
    };
    let mut off = Tracer::off();
    for (ti, t) in tenants.iter().enumerate() {
        let loaded = layers::route(&mut off, router, Some(&t.name))?;
        let (ir, result) = layers::tenant_program(&loaded).ok_or("tenant is not fully analysed")?;
        let q = layers::query_targets(ir, result);
        let p = esc(&t.name);
        for j in 0..QUERIES_PER_TENANT {
            let id = mix.lines.len();
            let kind = KINDS[j % KINDS.len()];
            let (line, layer) = if kind == 0 && !q.exit.is_empty() {
                let (f, v) = rng.pick(&q.exit);
                (
                    format!(
                        r#"{{"id":{id},"program":{p},"op":"points-to","func":{},"var":{}}}"#,
                        esc(f),
                        esc(v)
                    ),
                    "serve.dispatch.points_to",
                )
            } else if kind <= 1 && !q.at_stmt.is_empty() {
                let (f, v, s) = rng.pick(&q.at_stmt);
                (
                    format!(
                        r#"{{"id":{id},"program":{p},"op":"points-to","func":{},"var":{},"stmt":{s}}}"#,
                        esc(f),
                        esc(v)
                    ),
                    "serve.dispatch.points_to",
                )
            } else if kind == 2 && q.exit.len() >= 2 {
                let (af, av) = rng.pick(&q.exit);
                let (bf, bv) = rng.pick(&q.exit);
                (
                    format!(
                        r#"{{"id":{id},"program":{p},"op":"aliases?","a_func":{},"a_var":{},"b_func":{},"b_var":{}}}"#,
                        esc(af),
                        esc(av),
                        esc(bf),
                        esc(bv)
                    ),
                    "serve.dispatch.aliases",
                )
            } else if kind == 3 && q.sites > 0 {
                let site = rng.usize(0..q.sites);
                (
                    format!(r#"{{"id":{id},"program":{p},"op":"call-targets","site":{site}}}"#),
                    "serve.dispatch.call_targets",
                )
            } else {
                let f = rng.pick(&q.functions);
                (
                    format!(
                        r#"{{"id":{id},"program":{p},"op":"lint","function":{}}}"#,
                        esc(f)
                    ),
                    "serve.dispatch.lint",
                )
            };
            mix.push(line, ti, layer);
        }
        if let Some(prog) = &t.edit {
            mix.probe = Some(mix.lines.len());
            let id = mix.lines.len();
            mix.push(
                format!(
                    r#"{{"id":{id},"program":{p},"op":"points-to","func":"main","var":{}}}"#,
                    esc(&prog.planted_var())
                ),
                ti,
                "serve.dispatch.points_to",
            );
        }
    }
    let mut tr = Tracer::off();
    for line in &mix.lines {
        let resp = layers::handle_text(&mut tr, router, line);
        if !resp.contains(r#""ok":true"#) {
            return Err(format!("query mix: `{line}` answered {resp}"));
        }
    }
    Ok(mix)
}

impl Mix {
    fn push(&mut self, line: String, tenant: usize, layer: &'static str) {
        self.wire.push(format!("{line}\n").into_bytes());
        self.lines.push(line);
        self.tenant.push(tenant);
        self.layer.push(layer);
    }
}

/// Digests of `router`'s answer to every query of the mix.
fn expected(router: &Router, mix: &Mix) -> Vec<u64> {
    let mut tr = Tracer::off();
    mix.lines
        .iter()
        .map(|l| Fnv::of(&layers::handle_text(&mut tr, router, l)))
        .collect()
}

/// Golden text: one digest per tenant (and per edited state) of the
/// in-process answers to its queries.
fn golden_text(tenants: &[Tenant], mix: &Mix, exp: &[Vec<u64>]) -> String {
    let mut text = String::new();
    for (state, digests) in exp.iter().enumerate() {
        for (ti, t) in tenants.iter().enumerate() {
            if state > 0 && t.edit.is_none() {
                continue;
            }
            let mut h = Fnv::default();
            for (q, d) in digests.iter().enumerate() {
                if mix.tenant[q] == ti {
                    h.u64(*d);
                }
            }
            let tag = if state > 0 { "@edited" } else { "" };
            text.push_str(&format!("{}{tag} {:016x}\n", t.name, h.0));
        }
    }
    text
}

/// The seeded request sequence (query indices).
fn sequence(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5e9_0001);
    (0..SEQUENCE).map(|_| rng.usize(0..n)).collect()
}

/// A running `pta serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the server and waits for `pta serve: ready`; returns it
    /// with the time that took.
    fn start(
        pta: &Path,
        sources: &[PathBuf],
        store: &Path,
        log: &Path,
    ) -> Result<(Server, f64), String> {
        let err = |e: std::io::Error| format!("{}: {e}", pta.display());
        let log_file = std::fs::File::create(log).map_err(err)?;
        let t = Instant::now();
        let child = Command::new(pta)
            .arg("serve")
            .args(sources)
            .arg("--store-dir")
            .arg(store)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(err)?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if text.contains("pta serve: ready") {
                let addr = text
                    .lines()
                    .find_map(|l| l.strip_prefix("pta serve: listening on tcp:"))
                    .and_then(|a| a.trim().parse().ok())
                    .ok_or_else(|| format!("no listen address in the server log:\n{text}"))?;
                server.addr = addr;
                return Ok((server, t.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("pta serve exited ({status}):\n{text}"));
            }
            if t.elapsed() > READY_TIMEOUT {
                return Err("pta serve did not become ready".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(IO_TIMEOUT))?;
        s.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(s.try_clone()?),
            writer: s,
            line: String::new(),
        })
    }

    /// Sends one request line and returns the digest of the answer.
    fn call(&mut self, wire: &[u8]) -> std::io::Result<u64> {
        self.writer.write_all(wire)?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(Fnv::of(self.line.trim_end_matches('\n')))
    }
}

/// The `serve-edit` plan: toggle the planted statement once a second,
/// then probe for the new answer.
///
/// No file the benchmark or the server replaces is freed while the
/// load runs: the source is replaced by a link to one of two state
/// files written beforehand, and every snapshot a reload replaces is
/// kept by a hard link (for the checks). The store directory's
/// filesystem is mounted with `discard` on the benchmark machine, and
/// there a commit that frees blocks made the server's next `fsync`
/// wait 50–85 ms for the device, against about 1 ms otherwise — as much
/// as the reload's own work, and varying with the device.
struct EditPlan {
    source: PathBuf,
    tmp: PathBuf,
    /// The source in each state, written once.
    states: [PathBuf; 2],
    probe: usize,
    probe_expected: [u64; 2],
    /// The server's snapshot of the edited tenant.
    store: PathBuf,
    /// Where each post-reload snapshot is kept (hard links).
    links: PathBuf,
    /// The planted statement's current state, and edits made so far;
    /// both carry over from one load phase to the next.
    state: u8,
    made: usize,
}

/// One edit: its state, the time from the start of the file write to
/// the probe's answer, and whether the probe saw the new target.
struct Edit {
    state: u8,
    reload_ms: f64,
    probe_ok: bool,
    link: PathBuf,
}

/// What a load phase recorded.
#[derive(Default)]
struct Load {
    /// (query, answer digest) of every answered request.
    answers: Vec<(usize, u64)>,
    lat_us: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    secs: f64,
    edits: Vec<Edit>,
}

impl Load {
    fn merge(&mut self, o: Load) {
        self.answers.extend(o.answers);
        self.lat_us.extend(o.lat_us);
        self.late_us.extend(o.late_us);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.edits.extend(o.edits);
    }
}

/// Opens a connection and sends `hello` on it: the server polls for new
/// connections every few milliseconds, a wait no measured request may
/// see.
fn connect(addr: SocketAddr, hello: &[u8]) -> Result<Conn, String> {
    Conn::open(addr)
        .and_then(|mut conn| conn.call(hello).map(|_| conn))
        .map_err(|e| format!("connecting to pta serve at {addr}: {e}"))
}

/// Cycles of `cycle_s` seconds that fill `seconds` (at least one).
fn cycles(seconds: f64, cycle_s: f64) -> usize {
    ((seconds / cycle_s).round() as usize).max(1)
}

/// The median and tail latency of each cycle.
#[derive(Default)]
struct CycleLatency {
    p50s: Vec<f64>,
    tails: Vec<f64>,
    /// The tail percentile (the cycles are alike in length).
    tail_p: f64,
}

impl CycleLatency {
    fn add(&mut self, cycle: &Load) {
        let sorted = stats::sorted(&cycle.lat_us);
        self.tail_p = stats::tail_percentile(sorted.len());
        self.p50s.push(stats::percentile(&sorted, 50.0));
        self.tails.push(stats::percentile(&sorted, self.tail_p));
    }
}

/// Closed loop on one connection: the next request goes out when the
/// last one is answered, and each request is timed from its send.
fn closed_loop(conn: &mut Conn, mix: &Mix, seq: &[usize], seconds: f64) -> Load {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut l = Load::default();
    let mut k = 0;
    while Instant::now() < end {
        let q = seq[k % seq.len()];
        l.attempted += 1;
        let t = Instant::now();
        match conn.call(&mix.wire[q]) {
            Ok(h) => {
                l.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
                l.answers.push((q, h))
            }
            Err(_) => {
                l.failed += 1;
                break;
            }
        }
        k += 1;
    }
    l.secs = start.elapsed().as_secs_f64();
    l
}

/// Sleeps, then yields, until `t`.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop on one connection: request `i` is due at `i / rate`
/// seconds. Latency counts from the due time, so a server stall delays
/// every request behind it, less the generator's own lateness (time it
/// was late while the connection was free — a late wake-up, or an
/// edit's file write), which is recorded on its own. With `edit`, the
/// planted statement is toggled once a second and the next request is
/// the probe.
fn open_loop(
    conn: &mut Conn,
    mix: &Mix,
    seq: &[usize],
    rate: f64,
    seconds: f64,
    mut edit: Option<&mut EditPlan>,
) -> Load {
    let n = (rate * seconds).ceil() as usize;
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut l = Load {
        attempted: n as u64,
        ..Load::default()
    };
    // Edits half a second into each second (or halfway through a
    // shorter run).
    let mut next_edit = t0 + Duration::from_secs_f64(seconds.min(1.0) / 2.0);
    let mut prev_done = t0;
    for i in 0..n {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        wait_until(due);
        let mut q = seq[i % seq.len()];
        let mut edited = None;
        if let Some(plan) = edit.as_deref_mut().filter(|_| Instant::now() >= next_edit) {
            let started = Instant::now();
            plan.state ^= 1;
            if plan.write(plan.state).is_err() {
                break;
            }
            edited = Some((plan.state, started));
            q = plan.probe;
            next_edit += Duration::from_secs(1);
        }
        // The generator's own lateness: how long after the request was
        // due, and after the previous answer freed the connection, it
        // went out.
        let sent = Instant::now();
        let own_late = sent.saturating_duration_since(due.max(prev_done));
        l.late_us.push(own_late.as_secs_f64() * 1e6);
        let Ok(h) = conn.call(&mix.wire[q]) else {
            break;
        };
        let done = Instant::now();
        l.lat_us.push((done - due - own_late).as_secs_f64() * 1e6);
        l.answers.push((q, h));
        prev_done = done;
        if let (Some(plan), Some((state, started))) = (edit.as_deref_mut(), edited) {
            let link = plan.links.join(format!("edit{}.ptas", plan.made));
            plan.made += 1;
            l.edits.push(Edit {
                state,
                reload_ms: (done - started).as_secs_f64() * 1e3,
                probe_ok: h == plan.probe_expected[state as usize]
                    && std::fs::hard_link(&plan.store, &link).is_ok(),
                link,
            });
        }
    }
    l.failed = l.attempted - l.answers.len() as u64;
    l.secs = (Instant::now() - t0).as_secs_f64();
    l
}

/// Writes the edited tenant's source in each state to `dir`, each file
/// with its own modification time (a server sees a change by length
/// and modification time, and both states have the same length).
fn write_states(dir: &Path, texts: &[String; 2]) -> Result<[PathBuf; 2], String> {
    let base = std::time::UNIX_EPOCH + Duration::from_secs(1_000_000_000);
    let write = |state: usize| -> std::io::Result<PathBuf> {
        let path = dir.join(format!("state{state}.c"));
        std::fs::write(&path, &texts[state])?;
        let f = std::fs::File::options().write(true).open(&path)?;
        f.set_modified(base + Duration::from_secs(state as u64))?;
        Ok(path)
    };
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    Ok([write(0).map_err(io)?, write(1).map_err(io)?])
}

/// Replaces `dest` atomically (a reader never sees a torn file) by a
/// link to `state_file`, through `tmp`; the replaced file stays linked
/// as the other state file.
fn link_state(state_file: &Path, tmp: &Path, dest: &Path) -> std::io::Result<()> {
    std::fs::hard_link(state_file, tmp)?;
    std::fs::rename(tmp, dest)
}

/// Keeps `file` alive under `dir` by a hard link named `name`.
fn keep(file: &Path, dir: &Path, name: &str) -> Result<PathBuf, String> {
    let link = dir.join(name);
    std::fs::hard_link(file, &link).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok(link)
}

impl EditPlan {
    /// Toggles the tenant's source to `state`.
    fn write(&self, state: u8) -> std::io::Result<()> {
        link_state(&self.states[state as usize], &self.tmp, &self.source)
    }
}

/// Answers of a cold analysis of `source`, at the name level.
fn cold_facts(source: &str) -> Result<String, String> {
    let mut off = Tracer::off();
    let (ir, _) = layers::compile(&mut off, source)?;
    let result = layers::analyze(&mut off, &ir)?;
    Ok(layers::canonical_facts(&ir, &result))
}

/// The checks of a saved post-reload snapshot: its facts must equal a
/// cold analysis of the same source.
fn snapshot_matches(link: &Path, source: &str, cold: &str) -> Result<bool, String> {
    let mut off = Tracer::off();
    let (ir, _) = layers::compile(&mut off, source)?;
    let snap = layers::load_snapshot(link)?;
    let result = layers::reload_result(&snap)?;
    Ok(layers::canonical_facts(&ir, &result) == cold)
}

/// Everything both the run and the traced pass set up: tenants, their
/// files, the mix and its expected answers per edit state.
struct Setup {
    work: WorkDir,
    tenants: Vec<Tenant>,
    sources: Vec<PathBuf>,
    /// The in-process router over `sources` the expected answers came
    /// from.
    router: Router,
    mix: Mix,
    exp: Vec<Vec<u64>>,
    seq: Vec<usize>,
    /// `serve-edit`: the edited tenant's index.
    edited: Option<usize>,
}

fn set_up(w: Workload, seed: u64, traced: bool) -> Result<Setup, String> {
    let work = WorkDir::new(w, traced)?;
    let tenants = tenants(w, seed);
    let sources = write_sources(&work.join("src"), &tenants, 0)?;
    let ref0 = layers::router(&sources, &work.join("ref0"))?;
    preload(&ref0, &tenants)?;
    let mix = build_mix(&ref0, &tenants, seed)?;
    let mut exp = vec![expected(&ref0, &mix)];
    let edited = tenants.iter().position(|t| t.edit.is_some());
    if edited.is_some() {
        let src1 = write_sources(&work.join("src1"), &tenants, 1)?;
        let ref1 = layers::router(&src1, &work.join("ref1"))?;
        preload(&ref1, &tenants)?;
        exp.push(expected(&ref1, &mix));
        let probe = mix.probe.expect("edited tenant has a probe");
        if exp[0][probe] == exp[1][probe] {
            return Err("the planted edit does not change the probe's answer".to_owned());
        }
    }
    let seq = sequence(mix.lines.len(), seed);
    Ok(Setup {
        work,
        tenants,
        sources,
        router: ref0,
        mix,
        exp,
        seq,
        edited,
    })
}

impl Setup {
    /// True if `h` is a right answer to query `q` (for the edited
    /// tenant, in either state: a request racing an edit may see
    /// either).
    fn answer_ok(&self, q: usize, h: u64) -> bool {
        self.exp[0][q] == h
            || (Some(self.mix.tenant[q]) == self.edited
                && self.exp.get(1).is_some_and(|e| e[q] == h))
    }

    fn edit_states(&self) -> Option<[String; 2]> {
        let t = &self.tenants[self.edited?];
        let p = t.edit.as_ref()?;
        Some([p.with_state(0), p.with_state(1)])
    }
}

/// The golden text of a workload's answers for a seed.
pub fn golden(w: Workload, seed: u64) -> Result<String, String> {
    let st = set_up(w, seed, true)?;
    Ok(golden_text(&st.tenants, &st.mix, &st.exp))
}

/// The untraced run.
pub fn run(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let pta = s.pta.as_deref().ok_or("serve workloads need --pta PATH")?;
    let mut out = Outcome::new(w, s.seed, false);
    let st = set_up(w, s.seed, false)?;
    if s.seed == crate::DEFAULT_SEED {
        out.golden = Some(crate::golden_matches(
            w,
            &golden_text(&st.tenants, &st.mix, &st.exp),
        ));
    }
    let mut setup_s = Vec::new();
    let mut server = None;
    // The servers started from here on, and the load, share one CPU.
    crate::cpu::pin_to_one();
    for k in 0..s.setups(w) {
        drop(server.take()); // stop the previous server first
        let store = st.work.join(&format!("srv{k}"));
        let log = st.work.join(&format!("server{k}.log"));
        let (srv, secs) = Server::start(pta, &st.sources, &store, &log)?;
        setup_s.push(secs);
        server = Some((srv, store));
    }
    let (server, store) = server.ok_or("no set-up ran")?;
    let mut load = Load::default();
    let (mix, seq) = (&st.mix, &st.seq);
    // A metric is the median of the cycles' values. Connections are
    // opened untimed: for each `serve-read` cycle, so that its requests
    // run on a fresh server thread, and once for `serve-edit`, whose
    // reloads then run on one server thread (with a connection per
    // cycle, the server's peak memory moved between 69 and 97 MB from
    // run to run).
    let conn = || connect(server.addr, &mix.wire[0]);
    let mut rates = Vec::new();
    let mut lat = CycleLatency::default();
    match w {
        Workload::ServeRead => {
            closed_loop(&mut conn()?, mix, seq, WARM_UP_S.min(s.seconds));
            let n = cycles(s.seconds, READ_CYCLE_S);
            for _ in 0..n {
                let closed = closed_loop(&mut conn()?, mix, seq, s.seconds / n as f64);
                rates.push(closed.answers.len() as f64 / closed.secs);
                lat.add(&closed);
                load.merge(closed);
            }
        }
        _ => {
            let ti = st.edited.ok_or("serve-edit needs an edited tenant")?;
            let links = st.work.join("edits");
            std::fs::create_dir_all(&links).map_err(|e| e.to_string())?;
            let probe = mix.probe.expect("edited tenant has a probe");
            let mut plan = EditPlan {
                source: st.sources[ti].clone(),
                tmp: st.work.join("edit.tmp"),
                probe_expected: [st.exp[0][probe], st.exp[1][probe]],
                states: write_states(&st.work.0, &st.edit_states().expect("checked above"))?,
                probe,
                store: store.join(format!("{}.ptas", st.tenants[ti].name)),
                links,
                state: 0,
                made: 0,
            };
            let warm_up = EDIT_WARM_UP_S.min(s.seconds);
            let mut c = conn()?;
            open_loop(&mut c, mix, seq, OPEN_RATE, warm_up, Some(&mut plan));
            let n = cycles(s.seconds, EDIT_CYCLE_S);
            for _ in 0..n {
                let cycle_s = s.seconds / n as f64;
                let open = open_loop(&mut c, mix, seq, OPEN_RATE, cycle_s, Some(&mut plan));
                rates.push(open.answers.len() as f64 / open.secs);
                lat.add(&open);
                load.merge(open);
            }
        }
    }
    let rss = crate::peak_rss_mb(&server.child.id().to_string())?;
    drop(server);
    // Checks, after the load: every answer against the in-process
    // router, every reload's facts against a cold analysis.
    out.attempted = load.attempted;
    out.failed = load.failed;
    out.failed += load
        .answers
        .iter()
        .filter(|(q, h)| !st.answer_ok(*q, *h))
        .count() as u64;
    let mut reload_ms = Vec::new();
    if let Some(states) = st.edit_states() {
        let cold = [cold_facts(&states[0])?, cold_facts(&states[1])?];
        for e in &load.edits {
            let s = e.state as usize;
            if !e.probe_ok || !snapshot_matches(&e.link, &states[s], &cold[s])? {
                out.failed += 1;
            }
            reload_ms.push(e.reload_ms);
        }
        if load.edits.is_empty() {
            out.failed += 1;
        }
    }
    out.metric_noted(
        "setup_s",
        stats::median(&setup_s),
        "s",
        format!("median of {} server starts", setup_s.len()),
    );
    let names: Vec<&str> = st.tenants.iter().map(|t| t.name.as_str()).collect();
    let how = if w == Workload::ServeRead {
        "closed loop"
    } else {
        "open-loop completions"
    };
    out.metric_noted(
        "ops_per_s",
        stats::median(&rates),
        "1/s",
        format!(
            "median of {} cycles, {how}; {} tenants ({}), {} distinct queries",
            rates.len(),
            names.len(),
            names.join(" "),
            st.mix.lines.len()
        ),
    );
    out.metric_noted(
        "latency_p50_us",
        stats::median(&lat.p50s),
        "us",
        format!(
            "median of {} cycles' p50, {} requests in all",
            lat.p50s.len(),
            load.lat_us.len()
        ),
    );
    out.metric_noted(
        "latency_tail_us",
        stats::median(&lat.tails),
        "us",
        format!(
            "median of {} cycles' p{}, each of about {} requests",
            lat.tails.len(),
            lat.tail_p,
            load.lat_us.len() / lat.tails.len()
        ),
    );
    out.metric("peak_rss_mb", rss, "MB");
    out.metric(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    if w == Workload::ServeEdit {
        out.metric_noted(
            "reload_p50_ms",
            stats::median(&reload_ms),
            "ms",
            format!("{} edits", reload_ms.len()),
        );
        let r = stats::sorted(&reload_ms);
        out.info(
            "reload ms",
            format!(
                "min {:.1}, max {:.1}",
                r.first().unwrap_or(&f64::NAN),
                r.last().unwrap_or(&f64::NAN)
            ),
        );
    }
    let late = stats::sorted(&load.late_us);
    out.info(
        "generator lateness",
        format!(
            "p50 {:.1} us, p99 {:.1} us",
            stats::percentile(&late, 50.0),
            stats::percentile(&late, 99.0)
        ),
    );
    Ok(out)
}

/// Builds one tenant as the server does (compile, capturing analysis,
/// lint, snapshot build and save), traced as one `build` op.
fn traced_build(
    tr: &mut Tracer,
    counts: &mut Counts,
    source: &str,
    store: &Path,
) -> Result<(), String> {
    tr.next_op();
    let root = tr.begin("build");
    let (ir, parse) = layers::compile(tr, source)?;
    let run = layers::analyze_recorded(tr, &ir)?;
    let diags = layers::lint(tr, &ir, &run.result);
    let snap = layers::snapshot_build(tr, &ir, &run, &diags);
    let save = layers::save(tr, store, &snap)?;
    tr.end(root);
    let (tokens, lex) = layers::probe(|| layers::lex(source));
    tr.probe_child(parse, "cfront.lex", lex);
    let (text, ser) = layers::probe(|| layers::serialize(&snap));
    tr.probe_child(save, "store.serialize", ser);
    counts.add("store.snapshot_bytes", text.len() as f64);
    batch::pipeline_counts(counts, &ir, &run.result, &diags, tokens?, lex)
}

/// Reloads the edited tenant after an edit as the server does (load,
/// parse, warm start, incremental analysis, lint, build, save), traced
/// as one `reload` op. Returns the facts for the check.
fn traced_reload(
    tr: &mut Tracer,
    counts: &mut Counts,
    source: &str,
    store: &Path,
) -> Result<String, String> {
    tr.next_op();
    let root = tr.begin("reload");
    let (ir, parse) = layers::compile(tr, source)?;
    let text = layers::load_text(tr, store)?;
    let snap = layers::parse_snapshot(tr, &text)?;
    let re = layers::warm_reload(tr, &ir, &snap)?;
    let diags = layers::lint(tr, &ir, &re.run.result);
    let rebuilt = layers::snapshot_build(tr, &ir, &re.run, &diags);
    let save = layers::save(tr, store, &rebuilt)?;
    tr.end(root);
    let (_, lex) = layers::probe(|| layers::lex(source));
    tr.probe_child(parse, "cfront.lex", lex);
    let (_, ser) = layers::probe(|| layers::serialize(&rebuilt));
    tr.probe_child(save, "store.serialize", ser);
    counts.add("store.seed_hits", re.seed_hits as f64);
    counts.add("store.dirty_functions", re.dirty as f64);
    Ok(layers::canonical_facts(&ir, &re.run.result))
}

/// Layers of a reload that belong to the store.
const STORE_LAYERS: [&str; 6] = [
    "store.load",
    "store.parse",
    "store.warm_start",
    "store.build",
    "store.serialize",
    "store.save",
];

/// The traced pass: tenant builds, the edit sequence's reloads
/// (`serve-edit`), and the request mix replayed in process, request by
/// request through parse, route and dispatch, and whole through
/// `Router::handle_text`.
pub fn trace(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::new(w, s.seed, true);
    let st = set_up(w, s.seed, true)?;
    let mut tr = Tracer::on();
    let mut counts = Counts::default();
    let dir = st.work.join("build");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    for t in &st.tenants {
        out.attempted += 1;
        let store = dir.join(format!("{}.ptas", t.name));
        traced_build(&mut tr, &mut counts, &t.source, &store)?;
    }
    if let Some(states) = st.edit_states() {
        let cold = [cold_facts(&states[0])?, cold_facts(&states[1])?];
        let name = &st.tenants[st.edited.expect("checked by edit_states")].name;
        let store = dir.join(format!("{name}.ptas"));
        for e in 0..(s.seconds.round() as usize).max(1) {
            let state = (e + 1) % 2;
            // The snapshot the reload replaces stays linked, as in the
            // untraced run (see `EditPlan`).
            keep(&store, &st.work.0, &format!("reload{e}.ptas"))?;
            out.attempted += 1;
            if traced_reload(&mut tr, &mut counts, &states[state], &store)? != cold[state] {
                out.failed += 1;
            }
        }
        let reloads = report::root_us(&tr, "reload");
        let selfs = tr.self_us();
        let layers_ms: Vec<f64> = reloads
            .keys()
            .map(|op| {
                selfs
                    .iter()
                    .filter(|(name, _)| **name != "reload")
                    .filter_map(|(_, per_op)| per_op.get(op))
                    .sum::<f64>()
                    / 1e3
            })
            .collect();
        out.metric("reload.layers_ms", stats::median(&layers_ms), "ms");
        out.metric(
            "share.store_of_reload_pct",
            report::share_pct(&tr, "reload", &STORE_LAYERS),
            "%",
        );
    }
    // Replay the request sequence in process, with `serve-edit`'s
    // edits spread through it.
    let router = &st.router;
    let edit_every = SEQUENCE / REPLAY_EDITS;
    let states = match st.edit_states() {
        Some(texts) => Some(write_states(&st.work.0, &texts)?),
        None => None,
    };
    let mut state = 0;
    let mut route_reload_us = Vec::new();
    for (i, &seq_q) in st.seq.iter().enumerate() {
        let mut q = seq_q;
        let mut edited = false;
        if let (Some(states), Some(ti), true) =
            (&states, st.edited, i % edit_every == edit_every / 2)
        {
            state ^= 1;
            let name = &st.tenants[ti].name;
            let snapshot = st.work.join("ref0").join(format!("{name}.ptas"));
            keep(&snapshot, &st.work.0, &format!("replay{i}.ptas"))?;
            link_state(&states[state], &st.work.join("edit.tmp"), &st.sources[ti])
                .map_err(|e| e.to_string())?;
            q = st.mix.probe.expect("edited tenant has a probe");
            edited = true;
        }
        out.attempted += 1;
        tr.next_op();
        let root = tr.begin("request");
        let req = layers::json_parse(&mut tr, &st.mix.lines[q])?;
        let program = req.get("program").and_then(Json::as_str);
        let route = tr.spans.len();
        let tenant = layers::route(&mut tr, router, program)?;
        let resp = layers::dispatch(&mut tr, &tenant, &req, st.mix.layer[q]);
        tr.end(root);
        if edited {
            route_reload_us.push(tr.spans[route].dur_ns() as f64 / 1e3);
        }
        counts.add("serve.response_bytes", resp.len() as f64);
        tr.next_op();
        let whole = layers::handle_text(&mut tr, router, &st.mix.lines[q]);
        let h = Fnv::of(&resp);
        let right = if edited {
            h == st.exp[state][q]
        } else {
            st.answer_ok(q, h)
        };
        if whole != resp || !right {
            out.failed += 1;
        }
    }
    report::emit_layers(&mut out, &tr, &["build", "reload", "request"]);
    counts.emit(&mut out);
    let selfs = tr.self_us();
    let requests_us = report::root_us(&tr, "request");
    let dispatch: Vec<f64> = requests_us
        .keys()
        .map(|op| {
            selfs
                .iter()
                .filter(|(name, _)| name.starts_with("serve.dispatch."))
                .filter_map(|(_, per_op)| per_op.get(op))
                .sum()
        })
        .collect();
    out.metric("serve.dispatch_us", stats::median(&dispatch), "us");
    let handle: Vec<f64> = report::root_us(&tr, "serve.handle").into_values().collect();
    let request: Vec<f64> = requests_us.into_values().collect();
    out.metric(
        "trace_overhead_pct",
        100.0 * (stats::median(&request) / stats::median(&handle) - 1.0),
        "%",
    );
    if !route_reload_us.is_empty() {
        out.info(
            "serve.route during reloads",
            format!(
                "median {:.1} us over {} reloads",
                stats::median(&route_reload_us),
                route_reload_us.len()
            ),
        );
    }
    out.spans = tr.spans;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_query_mix_is_all_ok() {
        for (w, seed) in [(Workload::ServeRead, 3), (Workload::ServeEdit, 4)] {
            let work = WorkDir::new(w, true).unwrap();
            let tenants = tenants(w, seed);
            let sources = write_sources(&work.join("src"), &tenants, 0).unwrap();
            let router = layers::router(&sources, &work.join("store")).unwrap();
            preload(&router, &tenants).unwrap();
            let mix = build_mix(&router, &tenants, seed).unwrap();
            assert!(mix.lines.len() >= QUERIES_PER_TENANT * tenants.len());
            let mut tr = Tracer::off();
            for line in &mix.lines {
                let resp = layers::handle_text(&mut tr, &router, line);
                assert!(resp.contains(r#""ok":true"#), "{line} -> {resp}");
            }
            assert_eq!(mix.probe.is_some(), w == Workload::ServeEdit);
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // A server that answers one request, then stalls for 300 ms
        // before answering the rest: every request due during the stall
        // must show the wait.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stall = Duration::from_millis(300);
        let mix = Mix {
            lines: vec!["{}".to_owned()],
            wire: vec![b"{}\n".to_vec()],
            tenant: vec![0],
            layer: vec!["serve.dispatch.lint"],
            probe: None,
        };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let (conn, _) = listener.accept().unwrap();
                let mut r = BufReader::new(conn.try_clone().unwrap());
                let mut w = conn;
                let mut line = String::new();
                let mut n = 0;
                while r.read_line(&mut line).unwrap_or(0) > 0 {
                    if n == 1 {
                        std::thread::sleep(stall);
                    }
                    n += 1;
                    w.write_all(b"{\"ok\":true}\n").unwrap();
                    line.clear();
                }
            });
            let mut conn = connect(addr, &mix.wire[0]).unwrap();
            let load = open_loop(&mut conn, &mix, &[0], 100.0, 0.5, None);
            assert_eq!(load.failed, 0);
            let worst = load.lat_us.iter().cloned().fold(0.0, f64::max);
            assert!(worst >= stall.as_secs_f64() * 1e6 * 0.9, "worst {worst} us");
            // Requests due during the stall went out late and count that
            // wait as latency; it is the server's, not the generator's.
            let slow = load.lat_us.iter().filter(|l| **l > 100_000.0).count();
            assert!(slow >= 10, "{slow} slow requests");
            let own = load.late_us.iter().cloned().fold(0.0, f64::max);
            assert!(own < 50_000.0, "generator lateness {own} us");
        });
    }
}
