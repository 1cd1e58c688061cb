//! The `pta-load` generator: seeded, deterministic query load against a
//! running `pta serve --listen` server, measured as QPS and latency
//! percentiles.
//!
//! The query mix reuses the serve-stress workload builder
//! ([`crate::serve::build_workload`]) per program, tags each request
//! with its `"program"`, shuffles the combined list per round with the
//! run seed, and partitions it round-robin across `conns` concurrent
//! connections. Because the server answers each connection strictly in
//! request order, the responses reassemble by query index into one
//! vector that is independent of the connection count — which is what
//! lets `--verify` assert byte-identical responses across 1 vs N
//! connections, and what the CI `serve-load` job pins.
//!
//! Latency is measured per request (or per `--batch` array line) from
//! write to response line; QPS is total queries over the measured wall
//! clock. [`render_json`] emits the `pta.load.v1` artifact (CI
//! uploads it as `serve-load.json`).

use crate::{case_seed, Rng};
use pta_store::json::{self, Json};
use pta_store::server::{connect, ListenAddr, Stream};
use std::io::{BufRead, BufReader, Write as _};
use std::time::{Duration, Instant};

/// Knobs for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address to connect to.
    pub addr: ListenAddr,
    /// `(program name, compiled IR)` per tenant to generate queries
    /// for; names must match the server's tenants.
    pub programs: Vec<(String, pta_simple::IrProgram)>,
    /// Concurrent connections.
    pub conns: usize,
    /// Rounds: the full mixed workload is replayed this many times
    /// (each round reshuffled, same seed stream).
    pub rounds: u32,
    /// Run seed.
    pub seed: u64,
    /// Queries per request line: 1 sends plain objects, larger values
    /// send batch arrays.
    pub batch: usize,
    /// Re-run the whole workload on a single connection afterwards and
    /// require byte-identical responses.
    pub verify: bool,
    /// Per-request deadline: a response must arrive within this long or
    /// the attempt counts as timed out (and is retried on a fresh
    /// connection). `None` = wait forever (the pre-hardening behavior).
    pub timeout: Option<Duration>,
    /// Extra attempts per request beyond the first; each retry
    /// reconnects after a capped, seeded-jitter backoff. `0` = fail a
    /// request on its first broken exchange.
    pub retries: u32,
}

/// What one measured run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries sent (across all connections and rounds).
    pub queries: usize,
    /// Responses with `"ok": true`.
    pub ok: usize,
    /// Responses with `"ok": false` (in-band errors are part of the
    /// workload: some generated queries are deliberately invalid).
    pub errors: usize,
    /// Measured wall clock of the concurrent run.
    pub wall: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// `Some(true)` when `--verify` ran and the single-connection replay
    /// was byte-identical; `None` when `--verify` was off.
    pub verified: Option<bool>,
    /// Re-sent exchanges during the measured run (reconnect + replay
    /// after a broken or timed-out exchange).
    pub retries: u64,
    /// Exchanges that hit the per-request deadline.
    pub timeouts: u64,
    /// Queries that exhausted every attempt and were answered with a
    /// synthetic client-side error row instead of hanging the run.
    pub failed: u64,
}

/// One replayed exchange: `(query index, response line, micros)`.
type ConnRow = (usize, String, u64);

/// Client-side resilience counters for one connection's replay.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ClientStats {
    pub(crate) retries: u64,
    pub(crate) timeouts: u64,
    pub(crate) failed: u64,
}

impl ClientStats {
    fn absorb(&mut self, other: ClientStats) {
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.failed += other.failed;
    }
}

impl LoadReport {
    /// Queries per second over the measured wall clock.
    pub fn qps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.queries as f64 / secs
        } else {
            0.0
        }
    }

    /// The `p`-th latency percentile (0..=100), in microseconds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (p / 100.0 * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[rank.min(self.latencies_us.len() - 1)]
    }
}

/// Builds the tagged, shuffled, round-replicated master query list.
/// Deterministic in `(programs, rounds, seed)`.
pub fn build_mix(cfg: &LoadConfig) -> Vec<String> {
    let mut per_program: Vec<Vec<String>> = Vec::new();
    for (i, (name, ir)) in cfg.programs.iter().enumerate() {
        let mut g = Rng::new(case_seed(cfg.seed, i as u32));
        let tagged: Vec<String> = crate::serve::build_workload(ir, &mut g)
            .into_iter()
            .map(|line| {
                // `{"id":…` → `{"program":"name","id":…` — still one
                // flat request object.
                line.replacen('{', &format!("{{\"program\":\"{name}\","), 1)
            })
            .collect();
        per_program.push(tagged);
    }
    let base: Vec<String> = per_program.into_iter().flatten().collect();
    let mut g = Rng::new(case_seed(cfg.seed, u32::MAX));
    let mut mix = Vec::with_capacity(base.len() * cfg.rounds.max(1) as usize);
    for _ in 0..cfg.rounds.max(1) {
        let mut round = base.clone();
        // Fisher–Yates with the run's own stream.
        for i in (1..round.len()).rev() {
            round.swap(i, g.usize(0..i + 1));
        }
        mix.extend(round);
    }
    mix
}

/// The synthetic response row a query gets when every attempt at its
/// exchange failed. Deterministic bytes: retried runs stay comparable.
fn failed_row(attempts: u32) -> String {
    format!(
        "{{\"id\":null,\"ok\":false,\"error\":\"client: no response after {attempts} attempts\"}}"
    )
}

/// Seeded exponential backoff with jitter: attempt 1 waits ~10ms,
/// doubling up to a 500ms cap, each with up to +50% jitter from the
/// connection's own deterministic stream.
fn backoff_delay(g: &mut Rng, attempt: u32) -> Duration {
    let base = 10u64.saturating_mul(1u64 << (attempt.saturating_sub(1)).min(6));
    let base = base.min(500);
    Duration::from_millis(base + g.usize(0..(base / 2 + 1) as usize) as u64)
}

/// A connected client stream: write half + buffered read half.
fn open_conn(addr: &ListenAddr, timeout: Option<Duration>) -> Option<(Stream, BufReader<Stream>)> {
    let conn = connect(addr).ok()?;
    // A deadline on both halves: a dead or wedged server must surface
    // as a timed-out exchange, never a hung client thread.
    let _ = conn.set_read_timeout(timeout);
    let _ = conn.set_write_timeout(timeout);
    let out = conn.try_clone().ok()?;
    Some((out, BufReader::new(conn)))
}

/// One connection's replay: its queries in index order, one
/// request/response exchange per line (batched per `batch`), each
/// exchange timed. A broken or timed-out exchange reconnects and
/// retries under seeded backoff; a query whose attempts are exhausted
/// gets a synthetic error row — this function never hangs on a dead
/// server and never fails the run. Returns `(index, response, micros)`
/// triples plus the resilience counters.
fn replay_conn(
    addr: &ListenAddr,
    queries: &[(usize, &str)],
    cfg: &LoadConfig,
    seed: u64,
) -> (Vec<ConnRow>, ClientStats) {
    let mut g = Rng::new(seed);
    let mut stats = ClientStats::default();
    let mut conn: Option<(Stream, BufReader<Stream>)> = None;
    let mut results = Vec::with_capacity(queries.len());
    let batch = cfg.batch.max(1);
    let attempts = cfg.retries.saturating_add(1);
    for chunk in queries.chunks(batch) {
        let line = if chunk.len() == 1 && batch <= 1 {
            format!("{}\n", chunk[0].1)
        } else {
            let bodies: Vec<&str> = chunk.iter().map(|(_, q)| *q).collect();
            format!("[{}]\n", bodies.join(","))
        };
        let t0 = Instant::now();
        let mut answer: Option<String> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                stats.retries += 1;
                std::thread::sleep(backoff_delay(&mut g, attempt));
            }
            if conn.is_none() {
                conn = open_conn(addr, cfg.timeout);
            }
            let Some((out, reader)) = conn.as_mut() else {
                continue;
            };
            if out
                .write_all(line.as_bytes())
                .and_then(|()| out.flush())
                .is_err()
            {
                conn = None;
                continue;
            }
            let mut response = String::new();
            match reader.read_line(&mut response) {
                // EOF (0) or a partial line without its newline: the
                // server closed mid-response — reconnect and retry.
                Ok(n) if n == 0 || !response.ends_with('\n') => conn = None,
                Ok(_) => {
                    answer = Some(response);
                    break;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    stats.timeouts += 1;
                    conn = None;
                }
                Err(_) => conn = None,
            }
        }
        let us = t0.elapsed().as_micros() as u64;
        let answer = answer
            .as_deref()
            .map(str::trim_end)
            .map(str::to_owned)
            .unwrap_or_else(|| {
                stats.failed += chunk.len() as u64;
                failed_row(attempts)
            });
        if chunk.len() == 1 && batch <= 1 {
            results.push((chunk[0].0, answer, us));
        } else {
            // One array line answers the whole chunk; every member gets
            // the batch's latency. A response that does not split back
            // into the chunk (garbled, or the synthetic row) is copied
            // to every member so indexes stay covered.
            match split_batch(&answer, chunk.len()) {
                Ok(parts) => {
                    for ((idx, _), part) in chunk.iter().zip(parts) {
                        results.push((*idx, part, us));
                    }
                }
                Err(_) => {
                    for (idx, _) in chunk {
                        results.push((*idx, answer.clone(), us));
                    }
                }
            }
        }
    }
    (results, stats)
}

/// Splits a batch response array line back into its `n` member
/// responses (rendered bytes, not re-encoded).
fn split_batch(line: &str, n: usize) -> Result<Vec<String>, String> {
    let v = json::parse(line).map_err(|e| format!("unparsable batch response: {e}"))?;
    let items = v
        .as_arr()
        .ok_or_else(|| format!("expected a batch array, got: {line}"))?;
    if items.len() != n {
        return Err(format!("batch answered {} of {n} requests", items.len()));
    }
    Ok(items.iter().map(Json::render).collect())
}

/// Runs the mix over `conns` connections and reassembles responses in
/// query order.
pub(crate) fn run_once(
    cfg: &LoadConfig,
    mix: &[String],
    conns: usize,
) -> Result<(Vec<String>, Vec<u64>, Duration, ClientStats), String> {
    let conns = conns.max(1);
    let shares: Vec<Vec<(usize, &str)>> = (0..conns)
        .map(|c| {
            mix.iter()
                .enumerate()
                .skip(c)
                .step_by(conns)
                .map(|(i, q)| (i, q.as_str()))
                .collect()
        })
        .collect();
    let t0 = Instant::now();
    let results = std::thread::scope(|s| -> Result<(Vec<ConnRow>, ClientStats), String> {
        let mut handles = Vec::new();
        for (c, share) in shares.iter().enumerate() {
            // Each connection retries on its own seeded jitter
            // stream, disjoint from the workload-building streams.
            let seed = case_seed(cfg.seed ^ 0x7e7a_11ed, c as u32);
            handles.push(s.spawn(move || replay_conn(&cfg.addr, share, cfg, seed)));
        }
        let mut all = Vec::with_capacity(mix.len());
        let mut stats = ClientStats::default();
        for h in handles {
            let (rows, s) = h.join().map_err(|_| "client thread panicked".to_owned())?;
            all.extend(rows);
            stats.absorb(s);
        }
        Ok((all, stats))
    })?;
    let wall = t0.elapsed();
    let (rows, stats) = results;
    let mut responses = vec![String::new(); mix.len()];
    let mut latencies = Vec::with_capacity(rows.len());
    for (idx, resp, us) in rows {
        responses[idx] = resp;
        latencies.push(us);
    }
    latencies.sort_unstable();
    Ok((responses, latencies, wall, stats))
}

/// Runs the configured load and, with `verify`, the single-connection
/// control replay.
///
/// # Errors
///
/// Connection-level failures; in-band error responses are counted, not
/// failures.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport, String> {
    let mix = build_mix(cfg);
    if mix.is_empty() {
        return Err("empty workload (no programs?)".to_owned());
    }
    let (responses, latencies_us, wall, stats) = run_once(cfg, &mix, cfg.conns)?;
    let verified = if cfg.verify {
        let (control, _, _, _) = run_once(cfg, &mix, 1)?;
        Some(control == responses)
    } else {
        None
    };
    let ok = responses
        .iter()
        .filter(|r| r.starts_with("{\"id\":") && r.contains("\"ok\":true"))
        .count();
    Ok(LoadReport {
        queries: mix.len(),
        ok,
        errors: responses.len() - ok,
        wall,
        latencies_us,
        verified,
        retries: stats.retries,
        timeouts: stats.timeouts,
        failed: stats.failed,
    })
}

/// Renders the `pta.load.v1` JSON artifact (one line).
pub fn render_json(cfg: &LoadConfig, report: &LoadReport) -> String {
    let programs: Vec<String> = cfg.programs.iter().map(|(n, _)| json::escape(n)).collect();
    format!(
        "{{\"schema\":\"pta.load.v1\",\"addr\":{addr},\"programs\":[{programs}],\
         \"conns\":{conns},\"rounds\":{rounds},\"seed\":\"{seed:#x}\",\"batch\":{batch},\
         \"queries\":{queries},\"ok\":{ok},\"errors\":{errors},\"retries\":{retries},\
         \"timeouts\":{timeouts},\"failed\":{failed},\"wall_ms\":{wall_ms},\
         \"qps\":{qps:.1},\"latency_us\":{{\"p50\":{p50},\"p90\":{p90},\"p99\":{p99},\
         \"max\":{max}}},\"verified\":{verified}}}",
        addr = json::escape(&cfg.addr.to_string()),
        programs = programs.join(","),
        conns = cfg.conns,
        rounds = cfg.rounds,
        seed = cfg.seed,
        batch = cfg.batch.max(1),
        queries = report.queries,
        ok = report.ok,
        errors = report.errors,
        retries = report.retries,
        timeouts = report.timeouts,
        failed = report.failed,
        wall_ms = report.wall.as_millis(),
        qps = report.qps(),
        p50 = report.percentile_us(50.0),
        p90 = report.percentile_us(90.0),
        p99 = report.percentile_us(99.0),
        max = report.latencies_us.last().copied().unwrap_or(0),
        verified = match report.verified {
            Some(v) => v.to_string(),
            None => "null".to_owned(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pta_store::server::{serve, Listener};
    use pta_store::{Router, TenantCache, TenantSpec};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn serve_sources(sources: &[(&str, &str)]) -> (Listener, Router, Vec<TenantSpec>) {
        let dir = std::env::temp_dir().join(format!(
            "pta-load-test-{}-{}",
            std::process::id(),
            sources.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut specs = Vec::new();
        for (name, source) in sources {
            let src = dir.join(format!("{name}.c"));
            std::fs::write(&src, source).unwrap();
            specs.push(TenantSpec::from_source(&src, &dir));
        }
        let cache = TenantCache::new(
            specs.clone(),
            specs.len(),
            pta_core::AnalysisConfig::default(),
            None,
        );
        let router = Router::new(cache);
        let listener = Listener::bind(&ListenAddr::Tcp("127.0.0.1:0".to_owned())).unwrap();
        (listener, router, specs)
    }

    #[test]
    fn mix_is_deterministic_and_tagged() {
        let ir =
            pta_simple::compile("int x; int main(void) { int *p; p = &x; return *p; }").unwrap();
        let cfg = LoadConfig {
            addr: ListenAddr::Tcp("unused:0".to_owned()),
            programs: vec![("alpha".to_owned(), ir)],
            conns: 2,
            rounds: 2,
            seed: 7,
            batch: 1,
            verify: false,
            timeout: None,
            retries: 0,
        };
        let a = build_mix(&cfg);
        let b = build_mix(&cfg);
        assert_eq!(a, b);
        assert!(a.iter().all(|q| q.contains("\"program\":\"alpha\"")));
        assert_eq!(a.len() % 2, 0, "two identical-length rounds");
    }

    #[test]
    fn load_run_verifies_across_connection_counts() {
        let (listener, router, _specs) = serve_sources(&[
            ("a", "int x; int main(void) { int *p; p = &x; return *p; }"),
            (
                "b",
                "int y; void set(int **p, int *v) { *p = v; } \
                 int main(void) { int *q; set(&q, &y); return *q; }",
            ),
        ]);
        let addr = listener.local_addr();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let server = s.spawn(|| serve(&listener, &router, &stop, false));
            let programs = ["a", "b"]
                .iter()
                .map(|n| {
                    let src = std::fs::read_to_string(
                        _specs
                            .iter()
                            .find(|sp| sp.name == **n)
                            .unwrap()
                            .source
                            .clone(),
                    )
                    .unwrap();
                    ((*n).to_owned(), pta_simple::compile(&src).unwrap())
                })
                .collect();
            let cfg = LoadConfig {
                addr: addr.clone(),
                programs,
                conns: 4,
                rounds: 2,
                seed: 0x5eed,
                batch: 1,
                verify: true,
                timeout: Some(Duration::from_secs(10)),
                retries: 2,
            };
            let report = run_load(&cfg).unwrap();
            assert_eq!(report.verified, Some(true));
            assert!(report.queries > 0);
            assert!(report.ok > 0);
            assert_eq!(report.latencies_us.len(), report.queries);
            let rendered = render_json(&cfg, &report);
            let parsed = json::parse(&rendered).unwrap();
            assert_eq!(
                parsed.get("schema").and_then(Json::as_str),
                Some("pta.load.v1")
            );
            assert_eq!(parsed.get("verified"), Some(&Json::Bool(true)));
            // Batched replay answers the same bytes.
            let batched = LoadConfig {
                batch: 8,
                verify: true,
                ..cfg
            };
            let batched_report = run_load(&batched).unwrap();
            assert_eq!(batched_report.verified, Some(true));
            assert_eq!(batched_report.queries, report.queries);
            assert_eq!(batched_report.ok, report.ok);
            stop.store(true, Ordering::Release);
            server.join().unwrap().unwrap();
        });
    }

    #[test]
    fn a_dead_server_yields_error_rows_not_a_hang() {
        // Bind a port, then drop the listener: connects are refused.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = ListenAddr::Tcp(dead.local_addr().unwrap().to_string());
        drop(dead);
        let ir =
            pta_simple::compile("int x; int main(void) { int *p; p = &x; return *p; }").unwrap();
        let cfg = LoadConfig {
            addr,
            programs: vec![("alpha".to_owned(), ir)],
            conns: 2,
            rounds: 1,
            seed: 11,
            batch: 1,
            verify: false,
            timeout: Some(Duration::from_millis(200)),
            retries: 1,
        };
        let t0 = Instant::now();
        let report = run_load(&cfg).unwrap();
        assert_eq!(report.ok, 0);
        assert_eq!(report.failed as usize, report.queries);
        assert!(report.retries > 0, "each query should have retried once");
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "dead-server run took {:?}",
            t0.elapsed()
        );
        let rendered = render_json(&cfg, &report);
        let parsed = json::parse(&rendered).unwrap();
        assert_eq!(
            parsed.get("failed").and_then(Json::as_u32),
            Some(report.failed as u32)
        );
    }
}
