//! Serve-protocol stress: the determinism contract of `pta serve`,
//! exercised against warm stores.
//!
//! Each case generates a program (see [`crate::cgen`]), analyses it
//! cold, round-trips the facts through the on-disk snapshot format,
//! re-analyses warm from the reloaded snapshot, and then replays a
//! deterministic query workload against both engines from several
//! worker threads at once. Three invariants are asserted:
//!
//! 1. **warm ≡ cold** — every response served from the warm
//!    (snapshot-seeded) engine is byte-identical to the cold engine's;
//! 2. **thread independence** — under `--jobs N`, every worker replaying
//!    the workload concurrently gets byte-identical responses;
//! 3. **no panics** — a panic anywhere (store codec, warm start, query
//!    dispatch) is caught and reported as a harness failure;
//! 4. **transport independence** — the same workload replayed over real
//!    TCP connections (one per worker, concurrently, plus the whole
//!    workload as a single batch line) gets the same bytes as the
//!    in-process engine.
//!
//! Everything is seeded; a failing case prints the seed that replays it.

use crate::{case_seed, cgen, Rng};
use pta_core::{AnalysisConfig, Fidelity, Pta};
use pta_simple::IrProgram;
use pta_store::{analyze_incremental, parse, serialize, Prior, ServeEngine, Snapshot, WarmMode};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Knobs for a serve-stress run.
#[derive(Debug, Clone)]
pub struct ServeStressConfig {
    /// Number of generated programs to push through the store + serve
    /// pipeline.
    pub cases: u32,
    /// Base seed; each case derives its own seed from it.
    pub seed: u64,
    /// Concurrent workers replaying the workload per case.
    pub jobs: usize,
    /// Also replay the workload over a real TCP connection per worker
    /// (invariant 4); `false` keeps the phase in-process only.
    pub socket: bool,
}

impl Default for ServeStressConfig {
    fn default() -> Self {
        ServeStressConfig {
            cases: 8,
            seed: crate::DEFAULT_SEED,
            jobs: 2,
            socket: true,
        }
    }
}

/// One serve-stress case's record.
#[derive(Debug, Clone)]
pub struct ServeCaseReport {
    /// Case index within the run.
    pub case: u32,
    /// Seed that regenerates this exact program and workload.
    pub seed: u64,
    /// Generator family of the program.
    pub family: &'static str,
    /// Queries replayed (per worker).
    pub queries: usize,
    /// `Err` describes the violated invariant.
    pub outcome: Result<(), String>,
    /// Wall-clock time for the case.
    pub elapsed: Duration,
}

/// Aggregate results of a serve-stress run.
#[derive(Debug, Clone)]
pub struct ServeStressSummary {
    /// Per-case records, in case order.
    pub reports: Vec<ServeCaseReport>,
    /// Workers used per case.
    pub jobs: usize,
    /// Wall-clock time for the whole run.
    pub wall: Duration,
}

impl ServeStressSummary {
    /// The invariant violations. A correct build has none.
    pub fn failures(&self) -> Vec<&ServeCaseReport> {
        self.reports.iter().filter(|r| r.outcome.is_err()).collect()
    }

    /// True when every case held all three invariants.
    pub fn is_clean(&self) -> bool {
        self.failures().is_empty()
    }

    /// Total queries served (golden + cold + workers, per case).
    pub fn queries(&self) -> usize {
        self.reports.iter().map(|r| r.queries).sum()
    }

    /// Human-readable summary, one line per failure.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "serve-stress: {} cases × {} workers in {:?} — {} queries, {} FAILED",
            self.reports.len(),
            self.jobs,
            self.wall,
            self.queries(),
            self.failures().len(),
        );
        for r in self.failures() {
            let Err(msg) = &r.outcome else { continue };
            let _ = writeln!(
                out,
                "  case {} [{}] seed {:#x}: {msg}",
                r.case, r.family, r.seed,
            );
        }
        out
    }
}

/// Builds the deterministic query workload for one analysed program:
/// every function's lint findings, every call site's targets, a
/// points-to query per variable (at the exit set and at one seeded
/// program point), alias queries between neighbouring variables, and a
/// few deliberately invalid requests (error responses are part of the
/// determinism contract too).
pub fn build_workload(ir: &IrProgram, g: &mut Rng) -> Vec<String> {
    let mut lines = Vec::new();
    let mut id = 0u32;
    let mut push = |lines: &mut Vec<String>, body: String| {
        id += 1;
        lines.push(format!("{{\"id\":{id},{body}}}"));
    };
    push(&mut lines, "\"op\":\"lint\"".to_owned());
    for f in &ir.functions {
        push(
            &mut lines,
            format!("\"op\":\"lint\",\"function\":\"{}\"", f.name),
        );
    }
    for site in 0..ir.call_sites.len() {
        push(
            &mut lines,
            format!("\"op\":\"call-targets\",\"site\":{site}"),
        );
    }
    for f in &ir.functions {
        for v in &f.vars {
            push(
                &mut lines,
                format!(
                    "\"op\":\"points-to\",\"func\":\"{}\",\"var\":\"{}\"",
                    f.name, v.name
                ),
            );
            if ir.n_stmts > 0 {
                let stmt = g.u32(0..ir.n_stmts);
                push(
                    &mut lines,
                    format!(
                        "\"op\":\"points-to\",\"func\":\"{}\",\"var\":\"{}\",\"stmt\":{stmt}",
                        f.name, v.name
                    ),
                );
            }
        }
        for w in f.vars.windows(2) {
            push(
                &mut lines,
                format!(
                    "\"op\":\"aliases?\",\"a_func\":\"{0}\",\"a_var\":\"{1}\",\"b_func\":\"{0}\",\"b_var\":\"{2}\"",
                    f.name, w[0].name, w[1].name
                ),
            );
        }
    }
    // Invalid requests: must answer deterministic errors, never panic.
    push(
        &mut lines,
        "\"op\":\"points-to\",\"func\":\"main\",\"var\":\"no_such_var_\"".to_owned(),
    );
    push(
        &mut lines,
        format!("\"op\":\"call-targets\",\"site\":{}", ir.call_sites.len()),
    );
    push(&mut lines, "\"op\":\"no-such-op\"".to_owned());
    lines
}

/// Replays the workload over TCP against `engine` served in-process:
/// `jobs` concurrent pipelined connections plus one batch-line
/// connection, each compared byte-for-byte against `golden`.
fn run_socket_phase(
    engine: &ServeEngine,
    workload: &[String],
    golden: &[String],
    jobs: usize,
) -> Result<(), String> {
    use pta_store::server::{connect, serve, ListenAddr, Listener};
    use std::io::{BufReader, Read as _, Write as _};
    use std::sync::atomic::{AtomicBool, Ordering};

    let listener = Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_owned()))
        .map_err(|e| format!("socket bind: {e}"))?;
    let addr = listener.local_addr();
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|s| -> Result<(), String> {
        let server = s.spawn(|| serve(&listener, engine, &stop, false));
        let replay = |label: String, lines: Vec<String>| -> Result<Vec<String>, String> {
            let mut conn = connect(&addr).map_err(|e| format!("{label}: connect: {e}"))?;
            // A wedged server must fail the phase, never hang it.
            let deadline = Some(std::time::Duration::from_secs(30));
            let _ = conn.set_read_timeout(deadline);
            let _ = conn.set_write_timeout(deadline);
            // Pipeline everything before reading anything back.
            let mut request = String::new();
            for l in &lines {
                request.push_str(l);
                request.push('\n');
            }
            conn.write_all(request.as_bytes())
                .and_then(|()| conn.shutdown_write())
                .map_err(|e| format!("{label}: send: {e}"))?;
            let mut responses = String::new();
            BufReader::new(conn)
                .read_to_string(&mut responses)
                .map_err(|e| format!("{label}: recv: {e}"))?;
            Ok(responses.lines().map(str::to_owned).collect())
        };
        // Any early `Err` must still lower the stop flag before the
        // scope tries to join the server thread.
        let outcome = (|| -> Result<(), String> {
            let mut clients = Vec::new();
            for worker in 0..jobs {
                let lines = workload.to_vec();
                clients.push(s.spawn(move || replay(format!("socket worker {worker}"), lines)));
            }
            for (worker, c) in clients.into_iter().enumerate() {
                let got = c
                    .join()
                    .map_err(|_| "socket worker panicked".to_owned())??;
                if got.len() != golden.len() {
                    return Err(format!(
                        "socket worker {worker}: {} responses for {} requests",
                        got.len(),
                        golden.len()
                    ));
                }
                for (i, (g_, w)) in got.iter().zip(golden).enumerate() {
                    if g_ != w {
                        return Err(format!(
                            "socket worker {worker} diverged on query {i}:\n  got:  {g_}\n  want: {w}"
                        ));
                    }
                }
            }
            // The whole workload as one batch line answers one array
            // line of the same individual responses.
            let batch = format!("[{}]", workload.join(","));
            let got = replay("socket batch".to_owned(), vec![batch])?;
            let want = vec![format!("[{}]", golden.join(","))];
            if got != want {
                return Err("socket batch response diverged from per-line responses".to_owned());
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let served = server
            .join()
            .map_err(|_| "socket server panicked".to_owned())?
            .map_err(|e| format!("socket server: {e}"));
        outcome.and(served)
    });
    result
}

/// Runs one generated program through store + serve and checks the
/// invariants. Returns the per-worker query count.
fn run_serve_case(source: &str, jobs: usize, socket: bool, g: &mut Rng) -> Result<usize, String> {
    let config = AnalysisConfig::default();
    let ir = pta_simple::compile(source).map_err(|e| format!("compile: {e}"))?;
    let cold = pta_core::analyze_recorded(&ir, config.clone())
        .map_err(|e| format!("cold analysis: {e}"))?;
    let lint = pta_lint::lint_ir(
        &ir,
        &cold.result,
        Fidelity::ContextSensitive,
        &pta_lint::LintOptions::default(),
    );

    // Round-trip the facts through the snapshot *text* — the workload
    // must be served from a store that went through the codec.
    let snap = Snapshot::build(&ir, &config, &cold, &lint);
    let text = serialize(&snap);
    let snap = parse(&text).map_err(|e| format!("snapshot round-trip: {e}"))?;
    let warm = analyze_incremental(&ir, &config, Some(Prior::Snapshot(&snap)))
        .map_err(|e| format!("warm analysis: {e}"))?;
    match &warm.mode {
        WarmMode::Warm { dirty, .. } if dirty.is_empty() => {}
        other => return Err(format!("expected a clean warm start, got {other:?}")),
    }

    let workload = build_workload(&ir, g);
    let cold_engine = ServeEngine::new(
        Pta {
            ir: ir.clone(),
            result: cold.result,
        },
        lint.clone(),
    );
    let warm_engine = Arc::new(ServeEngine::new(
        Pta {
            ir,
            result: warm.run.result,
        },
        lint,
    ));

    // Invariant 1: warm ≡ cold, byte for byte.
    let golden: Vec<String> = workload
        .iter()
        .map(|l| warm_engine.handle_line(l).0)
        .collect();
    for (line, want) in workload.iter().zip(&golden) {
        let (got, _) = cold_engine.handle_line(line);
        if &got != want {
            return Err(format!(
                "warm/cold divergence on `{line}`:\n  cold: {got}\n  warm: {want}"
            ));
        }
    }

    // Invariant 2: byte-identical under concurrent workers.
    let workload = Arc::new(workload);
    let mut handles = Vec::new();
    for worker in 0..jobs {
        let engine = Arc::clone(&warm_engine);
        let workload = Arc::clone(&workload);
        handles.push(std::thread::spawn(move || {
            let responses: Vec<String> = workload.iter().map(|l| engine.handle_line(l).0).collect();
            (worker, responses)
        }));
    }
    for h in handles {
        let (worker, responses) = h.join().map_err(|_| "worker panicked".to_owned())?;
        for (i, (got, want)) in responses.iter().zip(&golden).enumerate() {
            if got != want {
                return Err(format!(
                    "worker {worker} diverged on query {i}:\n  got:  {got}\n  want: {want}"
                ));
            }
        }
    }

    // Invariant 4: the socket transport changes nothing about the bytes.
    if socket {
        run_socket_phase(&warm_engine, &workload, &golden, jobs)?;
    }
    Ok(workload.len())
}

/// Runs the serve-stress suite: `cases` generated programs cycling
/// through the generator families, each replayed by `jobs` concurrent
/// workers.
pub fn run_serve_stress(cfg: &ServeStressConfig) -> ServeStressSummary {
    let start = Instant::now();
    let jobs = cfg.jobs.max(1);
    let mut reports = Vec::with_capacity(cfg.cases as usize);
    for case in 0..cfg.cases {
        let seed = case_seed(cfg.seed ^ 0x5e57_e55e_5e57_e55e, case);
        let mut g = Rng::new(seed);
        let family = cgen::FAMILIES[case as usize % cgen::FAMILIES.len()];
        let source = cgen::generate(family, &mut g);
        let t0 = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_serve_case(&source, jobs, cfg.socket, &mut g)
        }));
        let (queries, outcome) = match caught {
            Ok(Ok(n)) => (n, Ok(())),
            Ok(Err(msg)) => (0, Err(msg)),
            Err(_) => (0, Err("panic in the store/serve pipeline".to_owned())),
        };
        reports.push(ServeCaseReport {
            case,
            seed,
            family,
            queries,
            outcome,
            elapsed: t0.elapsed(),
        });
    }
    ServeStressSummary {
        reports,
        jobs,
        wall: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stress_smoke_is_clean() {
        let summary = run_serve_stress(&ServeStressConfig {
            cases: 4,
            jobs: 3,
            ..ServeStressConfig::default()
        });
        assert!(summary.is_clean(), "{}", summary.render());
        assert_eq!(summary.reports.len(), 4);
        assert!(summary.queries() > 0);
        assert!(summary.render().contains("4 cases × 3 workers"));
    }

    #[test]
    fn workload_is_deterministic_per_seed() {
        let ir = pta_simple::compile(&cgen::deep_chain(3)).unwrap();
        let a = build_workload(&ir, &mut Rng::new(9));
        let b = build_workload(&ir, &mut Rng::new(9));
        assert_eq!(a, b);
        assert!(a.len() > 4, "workload too small: {}", a.len());
    }
}
