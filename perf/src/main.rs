//! `pta-perf` — the repository's benchmark: end-to-end and per-layer
//! performance of the points-to workspace on four workloads.
//!
//! ```text
//! pta-perf bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--pta PATH] [--json FILE] [--setups K] [--min-ops N]
//! pta-perf run --pta PATH [--seed N] [--seconds S] [--runs R] [--json FILE]
//! pta-perf smoke --pta PATH
//! pta-perf compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]
//! pta-perf golden
//! ```
//!
//! `bench` runs one workload and ends with the one-line JSON result
//! (`correct`, `attempted`, `failed`, and the `BENCHMARK.json` metrics:
//! end to end untraced, per layer with `--trace 1`). `run` runs every
//! workload untraced, each in its own child process, then one traced
//! pass each, and prints and writes the lot. `smoke` is `run` at about
//! a hundredth of the length. `compare` sets two groups of runs against
//! each other and the bounds. `golden` rewrites `perf/golden/` from the
//! default seed. See `perf/README.md`.

mod batch;
mod cpu;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;

use layers::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

/// The seed whose answers `perf/golden/` records.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// Measured seconds per run, as `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

/// The workloads, in table order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 17 suite programs, cold, closed loop.
    SuiteCold,
    /// Eight generated 1.5k–6k statement programs, cold, closed loop.
    ScaleCold,
    /// Reads against a served snapshot set.
    ServeRead,
    /// Reads while one tenant is edited once a second.
    ServeEdit,
}

/// Every workload.
pub const WORKLOADS: [Workload; 4] = [
    Workload::SuiteCold,
    Workload::ScaleCold,
    Workload::ServeRead,
    Workload::ServeEdit,
];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteCold => "suite-cold",
            Workload::ScaleCold => "scale-cold",
            Workload::ServeRead => "serve-read",
            Workload::ServeEdit => "serve-edit",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The recorded tail percentile: the highest with at least ten
    /// samples beyond it in a measured cycle (a `scale-cold` run
    /// measures only about 150 ops, and is one cycle).
    pub fn tail(self) -> f64 {
        match self {
            Workload::ScaleCold => 90.0,
            _ => 99.0,
        }
    }

    fn is_batch(self) -> bool {
        matches!(self, Workload::SuiteCold | Workload::ScaleCold)
    }

    /// Set-ups per run; `setup_s` is their median. A `suite-cold`
    /// set-up takes about 8 ms, so many of them steady the median; a
    /// `scale-cold` one about a second; a serve set-up writes every
    /// tenant's snapshot (about 50 MB for `serve-read`, 6 MB for
    /// `serve-edit`, `fsync`ed), and removing those took seconds on a
    /// disk that discards freed blocks.
    fn setups(self) -> usize {
        match self {
            Workload::SuiteCold => 15,
            Workload::ScaleCold => 5,
            Workload::ServeRead => 3,
            Workload::ServeEdit => 5,
        }
    }
}

/// How one workload run is made.
pub struct Settings {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Set-ups whose median is `setup_s` (default: per workload).
    pub setups: Option<usize>,
    /// Minimum measured batch ops (default: enough for the recorded
    /// tail percentile).
    pub min_ops: Option<usize>,
    /// The `pta` binary the serve workloads start.
    pub pta: Option<PathBuf>,
}

impl Settings {
    /// Set-ups to run.
    pub fn setups(&self, w: Workload) -> usize {
        self.setups.unwrap_or(w.setups())
    }

    /// Batch ops to measure at least.
    pub fn min_ops(&self, w: Workload) -> usize {
        self.min_ops.unwrap_or_else(|| stats::samples_for(w.tail()))
    }
}

/// The repository root (the parent of this package).
fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository")
}

/// Peak resident set (`VmHWM`) of a process (`self` or a pid), in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line".to_owned())
}

fn golden_path(w: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", w.name()))
}

/// Whether `text` equals the committed golden digests of `w`.
pub fn golden_matches(w: Workload, text: &str) -> bool {
    std::fs::read_to_string(golden_path(w)).is_ok_and(|g| g == text)
}

/// Parsed command-line flags.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) => {
                    let v = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                    a.flags.push((flag.to_owned(), v.clone()));
                }
                None => a.positional.push(arg.clone()),
            }
        }
        Ok(a)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad --{flag} `{v}`"))
        })
    }

    fn seed(&self) -> Result<u64, String> {
        match self.get("seed") {
            None => Ok(DEFAULT_SEED),
            Some(v) => match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            }
            .map_err(|_| format!("bad --seed `{v}`")),
        }
    }

    fn settings(&self) -> Result<Settings, String> {
        let seconds: f64 = self.num("seconds", DEFAULT_SECONDS)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds} is out of range"));
        }
        Ok(Settings {
            seed: self.seed()?,
            seconds,
            setups: self
                .get("setups")
                .map(|_| self.num("setups", 1).map(|k: usize| k.max(1)))
                .transpose()?,
            min_ops: self
                .get("min-ops")
                .map(|_| self.num("min-ops", 0))
                .transpose()?,
            pta: self.get("pta").map(PathBuf::from),
        })
    }
}

const USAGE: &str = "usage: pta-perf bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
[--pta PATH] [--json FILE] [--setups K] [--min-ops N]
       pta-perf run --pta PATH [--seed N] [--seconds S] [--runs R] [--json FILE]
       pta-perf smoke --pta PATH
       pta-perf compare BASE.json[,...] NEW.json[,...]
       pta-perf golden
workloads: suite-cold scale-cold serve-read serve-edit";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = || Args::parse(&argv[1..]);
    let result = match argv.first().map(String::as_str) {
        Some("bench") => args().and_then(|a| bench(&a)),
        Some("run") => args().and_then(|a| run(&a, false)),
        Some("smoke") => args().and_then(|a| run(&a, true)),
        Some("compare") => args().and_then(|a| compare(&a)),
        Some("golden") => golden(),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pta-perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// The `--workload` flag.
fn workload(a: &Args) -> Result<Workload, String> {
    let name = a.get("workload").ok_or(USAGE)?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`\n{USAGE}"))
}

/// One workload, one mode; ends with the one-line result.
fn bench(a: &Args) -> Result<bool, String> {
    let w = workload(a)?;
    let traced = match a.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`")),
    };
    let s = a.settings()?;
    let spec = report::read_spec(&repo_root().join("BENCHMARK.json"))?;
    let outcome = match (w.is_batch(), traced) {
        (true, false) => batch::run(w, &s),
        (true, true) => batch::trace(w, &s),
        (false, false) => serve::run(w, &s),
        (false, true) => serve::trace(w, &s),
    }?;
    outcome.print();
    if let Some(path) = a.get("json") {
        std::fs::write(path, outcome.to_json().render()).map_err(|e| format!("{path}: {e}"))?;
    }
    let names = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", outcome.result_line(names)?);
    Ok(true)
}

/// Runs one workload in a child `bench` process and returns its JSON.
fn child(
    a: &Args,
    s: &Settings,
    w: Workload,
    traced: bool,
    smoke: bool,
    out: &Path,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["bench", "--workload", w.name()])
        .args(["--seed", &s.seed.to_string()])
        .args(["--seconds", &s.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--json")
        .arg(out);
    if let Some(p) = a.get("pta") {
        cmd.args(["--pta", p]);
    }
    if let Some(k) = s.setups {
        cmd.args(["--setups", &k.to_string()]);
    }
    if smoke {
        cmd.args(["--min-ops", "1"]);
    }
    let status = cmd.status().map_err(|e| e.to_string())?;
    let mode = if traced { "traced" } else { "untraced" };
    if !status.success() {
        return Err(format!("{} ({mode}) failed: {status}", w.name()));
    }
    let text = std::fs::read_to_string(out).map_err(|e| format!("{}: {e}", out.display()))?;
    layers::json::parse(&text).map_err(|e| format!("{}: {e}", out.display()))
}

/// Every workload untraced (`--runs` rounds, alternating the order),
/// then one traced pass each; prints medians and quartiles and writes
/// everything to `--json`. `smoke` runs at a hundredth of the length.
fn run(a: &Args, smoke: bool) -> Result<bool, String> {
    let mut s = a.settings()?;
    let runs: usize = a.num("runs", 1)?.max(1);
    if smoke {
        s.seconds = DEFAULT_SECONDS / 100.0;
        s.setups = Some(1);
    }
    let started = Instant::now();
    let scratch = repo_root()
        .join(".perf_work")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let result = run_children(a, &s, runs, smoke, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let (doc, ok) = result?;
    if let Some(path) = a.get("json") {
        std::fs::write(path, doc.render()).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{} in {:.1} s: {}",
        if smoke { "smoke" } else { "run" },
        started.elapsed().as_secs_f64(),
        if ok {
            "all outputs correct"
        } else {
            "FAILED checks"
        }
    );
    Ok(ok)
}

fn run_children(
    a: &Args,
    s: &Settings,
    runs: usize,
    smoke: bool,
    scratch: &Path,
) -> Result<(Json, bool), String> {
    let mut untraced = Vec::new();
    let mut set = report::RunSet::new();
    let mut ok = true;
    for r in 0..runs {
        let mut order = WORKLOADS.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let file = scratch.join(format!("{}-{r}.json", w.name()));
            let j = child(a, s, w, false, smoke, &file)?;
            ok &= outcome_ok(&j);
            report::add_run(&mut set, &j);
            untraced.push(j);
        }
    }
    let summary = report::summary(&set);
    let mut traced = Vec::new();
    for w in WORKLOADS {
        let file = scratch.join(format!("{}-traced.json", w.name()));
        let mut j = child(a, s, w, true, smoke, &file)?;
        ok &= outcome_ok(&j);
        derive(&mut j, &summary, w);
        traced.push((w.name().to_owned(), j));
    }
    println!("== summary: median [q1, q3] over {runs} run(s) ==");
    if let Json::Obj(rows) = &summary {
        for (w, metrics) in rows {
            let Json::Obj(metrics) = metrics else {
                continue;
            };
            for (name, m) in metrics {
                let f = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                println!(
                    "  {w:<10} {name:<18} {:>14.4} [{:.4}, {:.4}] {unit}",
                    f("median"),
                    f("q1"),
                    f("q3")
                );
            }
        }
    }
    for (w, j) in &traced {
        for key in ["serve.transport_us", "reload.residual_ms"] {
            let v = j.get("metrics").and_then(|m| m.get(key));
            if let Some(v) = v.and_then(|m| m.get("value")).and_then(Json::as_f64) {
                println!("  {w:<10} {key:<18} {v:>14.4}");
            }
        }
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str("pta.perf.v1".into())),
        ("seed".into(), Json::Num(s.seed as f64)),
        ("seconds".into(), Json::Num(s.seconds)),
        ("machine".into(), machine_info()),
        ("runs".into(), Json::Arr(untraced)),
        ("summary".into(), summary),
        ("traced".into(), Json::Obj(traced)),
    ]);
    Ok((doc, ok))
}

/// True when a child outcome had no failure and, where checked, matched
/// the golden answers.
fn outcome_ok(j: &Json) -> bool {
    j.get("correct") == Some(&Json::Bool(true))
        && j.get("answers_match_golden") != Some(&Json::Bool(false))
}

/// Metrics that need both passes: the client-observed transport cost
/// and the part of a reload no traced layer covers.
fn derive(traced: &mut Json, summary: &Json, w: Workload) {
    let untraced = |m: &str| {
        summary
            .get(w.name())
            .and_then(|r| r.get(m))
            .and_then(|v| v.get("median"))
            .and_then(Json::as_f64)
    };
    let layer = |m: &str| {
        traced
            .get("metrics")
            .and_then(|r| r.get(m))
            .and_then(|v| v.get("value"))
            .and_then(Json::as_f64)
    };
    let mut add = Vec::new();
    if let (Some(p50), Some(handle)) = (untraced("latency_p50_us"), layer("serve.handle_us")) {
        add.push(("serve.transport_us", p50 - handle, "us"));
    }
    if let (Some(reload), Some(layers)) = (untraced("reload_p50_ms"), layer("reload.layers_ms")) {
        add.push(("reload.residual_ms", reload - layers, "ms"));
    }
    if let Json::Obj(fields) = traced {
        if let Some((_, Json::Obj(metrics))) = fields.iter_mut().find(|(k, _)| k == "metrics") {
            for (name, v, unit) in add {
                metrics.push((
                    name.to_owned(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                ));
            }
        }
    }
}

/// `nproc`, CPU model, and the filesystem the serve snapshots live on.
fn machine_info() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_default();
    let root = std::fs::canonicalize(repo_root()).unwrap_or_default();
    let fs = std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|m| {
            m.lines()
                .filter_map(|l| {
                    let mut f = l.split_whitespace();
                    let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
                    root.starts_with(point)
                        .then(|| (point.len(), kind.to_owned()))
                })
                .max()
                .map(|(_, kind)| kind)
        })
        .unwrap_or_default();
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("store_fs".into(), Json::Str(fs)),
    ])
}

fn split_files(list: &str) -> Vec<PathBuf> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect()
}

/// `compare BASE NEW`: both sides' medians and quartiles, the ratio,
/// and a verdict against the bounds. Fails if anything regressed.
fn compare(a: &Args) -> Result<bool, String> {
    let [base, new] = a.positional.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let spec = report::read_spec(&repo_root().join("BENCHMARK.json"))?;
    let base = report::load_runs(&split_files(base))?;
    let new = report::load_runs(&split_files(new))?;
    Ok(!report::compare(&base, &new, &spec))
}

/// Rewrites `perf/golden/` from the default seed.
fn golden() -> Result<bool, String> {
    for w in WORKLOADS {
        let text = if w.is_batch() {
            batch::golden_text(&batch::inputs(w, DEFAULT_SEED))?
        } else {
            serve::golden(w, DEFAULT_SEED)?
        };
        let path = golden_path(w);
        std::fs::create_dir_all(path.parent().expect("golden dir")).map_err(|e| e.to_string())?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(true)
}
