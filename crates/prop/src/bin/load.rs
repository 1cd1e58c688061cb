//! `pta-load` — QPS/latency load generator for `pta serve --listen`.
//!
//! Compiles the given C sources (the same ones the server is serving),
//! builds a seeded deterministic query mix across all of them, replays
//! it over `--conns` concurrent socket connections, and reports
//! QPS + p50/p90/p99 latency. `--verify` replays the identical mix on a
//! single connection afterwards and fails (exit 1) unless the
//! responses, reassembled in query order, are byte-identical — the
//! connection count must never change an answer.
//!
//! ```text
//! pta-load --connect ADDR <file.c>... [--conns N] [--rounds N]
//!          [--batch N] [--seed S] [--verify] [--json PATH]
//!          [--timeout-ms MS] [--retries N]
//! ```
//!
//! Every request carries a deadline (`--timeout-ms`, default 5000,
//! `0` = none) and is retried up to `--retries` times (default 2) on a
//! fresh connection under seeded-jitter backoff; a dead or wedged
//! server yields synthetic `client:` error rows and a non-zero exit
//! instead of a hung process.
//!
//! `ADDR` accepts the same forms as `pta serve --listen`: `unix:PATH`,
//! `tcp:HOST:PORT`, or `HOST:PORT`. The `--json` artifact follows the
//! `pta.load.v1` schema (CI uploads it as `serve-load.json`).

use pta_prop::load::{render_json, run_load, LoadConfig};
use pta_prop::DEFAULT_SEED;
use std::process::ExitCode;

const USAGE: &str = "usage: pta-load --connect ADDR <file.c>... [--conns N] [--rounds N] \
     [--batch N] [--seed S] [--verify] [--json PATH] [--timeout-ms MS] [--retries N]";

fn main() -> ExitCode {
    let mut addr: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut conns = 4usize;
    let mut rounds = 3u32;
    let mut batch = 1usize;
    let mut seed = DEFAULT_SEED;
    let mut verify = false;
    let mut json_path: Option<String> = None;
    let mut timeout_ms = 5000u64;
    let mut retries = 2u32;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| {
            argv.next()
                .unwrap_or_else(|| die_usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--connect" => addr = Some(value("--connect")),
            "--conns" => {
                conns = parse(&value("--conns"), "--conns");
                if conns == 0 {
                    die_usage("--conns must be positive");
                }
            }
            "--rounds" => {
                rounds = parse(&value("--rounds"), "--rounds");
                if rounds == 0 {
                    die_usage("--rounds must be positive");
                }
            }
            "--batch" => {
                batch = parse(&value("--batch"), "--batch");
                if batch == 0 {
                    die_usage("--batch must be positive");
                }
            }
            "--seed" => seed = parse_seed(&value("--seed")),
            "--verify" => verify = true,
            "--json" => json_path = Some(value("--json")),
            "--timeout-ms" => timeout_ms = parse(&value("--timeout-ms"), "--timeout-ms"),
            "--retries" => retries = parse(&value("--retries"), "--retries"),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            f if !f.starts_with('-') => files.push(f.to_owned()),
            other => die_usage(&format!("unknown argument `{other}`")),
        }
    }
    let Some(addr) = addr else {
        die_usage("--connect is required");
    };
    if files.is_empty() {
        die_usage("at least one <file.c> is required");
    }
    let addr = pta_store::parse_listen(&addr).unwrap_or_else(|e| die_usage(&e));

    let mut programs = Vec::new();
    for file in &files {
        let stem = std::path::Path::new(file)
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.clone());
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("pta-load: cannot read `{file}`: {e}");
                return ExitCode::from(2);
            }
        };
        let ir = match pta_simple::compile(&source) {
            Ok(ir) => ir,
            Err(e) => {
                eprintln!("pta-load: `{file}`: {e}");
                return ExitCode::from(2);
            }
        };
        programs.push((stem, ir));
    }
    // With a single program the server accepts untagged requests too,
    // but tagging is always correct, so the mix always tags.
    let cfg = LoadConfig {
        addr,
        programs,
        conns,
        rounds,
        seed,
        batch,
        verify,
        timeout: (timeout_ms > 0).then(|| std::time::Duration::from_millis(timeout_ms)),
        retries,
    };
    let report = match run_load(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pta-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "pta-load: {} queries over {} conns in {:?} — {:.1} qps, \
         p50 {}us p90 {}us p99 {}us, {} ok / {} errors, \
         {} retries / {} timeouts / {} failed{}",
        report.queries,
        cfg.conns,
        report.wall,
        report.qps(),
        report.percentile_us(50.0),
        report.percentile_us(90.0),
        report.percentile_us(99.0),
        report.ok,
        report.errors,
        report.retries,
        report.timeouts,
        report.failed,
        match report.verified {
            Some(true) => ", verified across connection counts",
            Some(false) => ", VERIFY FAILED",
            None => "",
        }
    );
    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, render_json(&cfg, &report) + "\n") {
            eprintln!("pta-load: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if report.verified == Some(false) {
        eprintln!("pta-load: responses differ between {conns} connections and 1 connection");
        return ExitCode::FAILURE;
    }
    if report.failed as usize >= report.queries {
        eprintln!("pta-load: server unreachable — every request failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> T {
    s.parse()
        .unwrap_or_else(|_| die_usage(&format!("{flag}: invalid value `{s}`")))
}

fn parse_seed(s: &str) -> u64 {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.unwrap_or_else(|_| die_usage(&format!("--seed: invalid value `{s}`")))
}

fn die_usage(msg: &str) -> ! {
    eprintln!("pta-load: {msg}\n{USAGE}");
    std::process::exit(2);
}
