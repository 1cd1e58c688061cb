//! The batch workloads, `suite-cold` and `scale-cold`: a closed loop on
//! one thread, each op taking one program from source through the
//! front end, the default-configuration analysis, all lint checks and
//! the paper's statistics tables.

use crate::layers::{self, AnalysisResult, Diagnostic, IrProgram, Tracer};
use crate::report::{self, Counts, Outcome};
use crate::stats::{self, Fnv};
use crate::{gen, Settings, Workload};
use pta_prop::Rng;
use std::time::{Duration, Instant};

/// One input program.
pub struct Input {
    /// Program name.
    pub name: String,
    /// C source.
    pub source: String,
}

/// The programs of a batch workload for a seed: the 17 suite programs
/// (the same for every seed), or the eight generated scale programs.
pub fn inputs(w: Workload, seed: u64) -> Vec<Input> {
    match w {
        Workload::SuiteCold => layers::SUITE
            .iter()
            .map(|b| Input {
                name: b.name.to_owned(),
                source: b.source.to_owned(),
            })
            .collect(),
        _ => gen::scale_programs(seed)
            .into_iter()
            .map(|p| Input {
                name: p.name,
                source: p.source,
            })
            .collect(),
    }
}

/// What one op produced.
struct Done {
    ir: IrProgram,
    result: AnalysisResult,
    diags: Vec<Diagnostic>,
    stats: String,
}

/// One op. `parse` receives the parse span (for the lex probe).
fn op(tr: &mut Tracer, input: &Input) -> Result<(Done, layers::SpanId), String> {
    let (ir, parse) = layers::compile(tr, &input.source)?;
    let mut result = layers::analyze(tr, &ir)?;
    let diags = layers::lint(tr, &ir, &result);
    let stats = layers::stats(tr, &input.name, &input.source, &ir, &mut result);
    Ok((
        Done {
            ir,
            result,
            diags,
            stats,
        },
        parse,
    ))
}

/// An id-level digest of an op's answers, cheap enough to take after
/// every op: a repeated op on an input must reproduce it exactly.
fn digest(d: &Done) -> u64 {
    let mut h = Fnv::default();
    layers::result_fingerprint(&d.result, &mut |x| h.u64(x));
    h.bytes(layers::render_diagnostics(&d.diags).as_bytes());
    h.bytes(d.stats.as_bytes());
    h.0
}

/// Runs every input once, untimed, returning each first digest.
fn warm_up(inputs: &[Input]) -> Result<Vec<u64>, String> {
    let mut tr = Tracer::off();
    inputs
        .iter()
        .map(|i| op(&mut tr, i).map(|(d, _)| digest(&d)))
        .collect()
}

/// A measured run is cut, at round boundaries, into cycles of at least
/// this many seconds and enough ops for the tail percentile; a shorter
/// last cycle joins the one before. An op is fixed CPU work, so outside
/// load on a shared machine only slows a cycle; it came and went within
/// runs, and the quieter quartile of the cycles repeated from run to
/// run more closely than the whole run did. A slower op slows every
/// cycle.
const CYCLE_S: f64 = 1.0;

/// One set-up: generate the inputs and run the warm-up round. Returns
/// the inputs, their first digests and the seconds it took.
fn set_up(w: Workload, seed: u64) -> Result<(Vec<Input>, Vec<u64>, f64), String> {
    let t = Instant::now();
    let inputs = inputs(w, seed);
    let first = warm_up(&inputs)?;
    Ok((inputs, first, t.elapsed().as_secs_f64()))
}

/// One more set-up, whose warm-up round must reproduce the first one's
/// digests; returns its seconds.
fn set_up_again(w: Workload, seed: u64, first: &[u64], out: &mut Outcome) -> Result<f64, String> {
    let (_, digests, secs) = set_up(w, seed)?;
    out.attempted += digests.len() as u64;
    out.failed += digests.iter().zip(first).filter(|(d, f)| d != f).count() as u64;
    Ok(secs)
}

/// The untraced run: measure whole seeded rounds until the measured
/// time and the sample minimum are both met. The set-ups are spread
/// evenly through the measured time, between rounds: outside load on a
/// shared machine came and went over seconds, and set-ups made back to
/// back all met the same load (all of a `suite-cold` run's set-ups took
/// about 8 ms, or all about 11.5 ms). The first set-up's inputs are the
/// ones measured. Throughput is the upper quartile of the cycles' rates
/// and each latency the lower quartile of the cycles' percentiles.
pub fn run(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::new(w, s.seed, false);
    let (inputs, first, secs) = set_up(w, s.seed)?;
    let mut setup_s = vec![secs];
    let setups = s.setups(w);
    let mut tr = Tracer::off();
    let mut rng = Rng::new(s.seed ^ 0x0bde_c0de);
    let min_ops = s.min_ops(w);
    let mut cycles: Vec<Vec<f64>> = Vec::new();
    let mut cycle = Vec::new();
    let mut per_input: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let (mut measured, mut cycle_s, mut ops) = (0.0, 0.0, 0);
    while measured < s.seconds || ops < min_ops {
        if setup_s.len() < setups && measured >= s.seconds * setup_s.len() as f64 / setups as f64 {
            setup_s.push(set_up_again(w, s.seed, &first, &mut out)?);
        }
        let round = Instant::now();
        for i in order(inputs.len(), &mut rng) {
            out.attempted += 1;
            let t0 = Instant::now();
            let done = op(&mut tr, &inputs[i]);
            let mut busy = t0.elapsed();
            match done {
                Ok((d, _)) => {
                    if digest(&d) != first[i] {
                        out.failed += 1;
                    }
                    // Freeing the results is part of the op's cost.
                    let t1 = Instant::now();
                    drop(d);
                    busy += t1.elapsed();
                }
                Err(_) => out.failed += 1,
            }
            cycle.push(busy.as_secs_f64() * 1e6);
            per_input[i].push(busy.as_secs_f64() * 1e6);
            ops += 1;
        }
        let round_s = round.elapsed().as_secs_f64();
        measured += round_s;
        cycle_s += round_s;
        if cycle_s >= CYCLE_S && cycle.len() >= min_ops {
            cycles.push(std::mem::take(&mut cycle));
            cycle_s = 0.0;
        }
    }
    while setup_s.len() < setups {
        setup_s.push(set_up_again(w, s.seed, &first, &mut out)?);
    }
    match cycles.last_mut() {
        Some(last) => last.append(&mut cycle),
        None => cycles.push(cycle),
    }
    let total_stmts: usize = inputs
        .iter()
        .map(|i| layers::compile(&mut tr, &i.source).map_or(0, |(ir, _)| layers::stmts(&ir)))
        .sum();
    let tail = w.tail();
    let (mut rates, mut p50s, mut tails) = (Vec::new(), Vec::new(), Vec::new());
    for c in &cycles {
        rates.push(c.len() as f64 / (c.iter().sum::<f64>() / 1e6));
        let sorted = stats::sorted(c);
        p50s.push(stats::percentile(&sorted, 50.0));
        tails.push(stats::percentile(&sorted, tail));
    }
    let quieter = |v: &[f64], p: f64| stats::percentile(&stats::sorted(v), p);
    let of = format!("{} cycles of about {} ops", cycles.len(), ops / cycles.len());
    out.metric_noted(
        "setup_s",
        stats::median(&setup_s),
        "s",
        format!("median of {} set-ups spread through the run", setup_s.len()),
    );
    out.metric_noted(
        "ops_per_s",
        quieter(&rates, 75.0),
        "1/s",
        format!(
            "upper quartile of {of}; {} programs, {} SIMPLE statements in all",
            inputs.len(),
            total_stmts
        ),
    );
    out.metric_noted(
        "latency_p50_us",
        quieter(&p50s, 25.0),
        "us",
        format!("lower quartile of {of}"),
    );
    out.metric_noted(
        "latency_tail_us",
        quieter(&tails, 25.0),
        "us",
        format!("p{tail}, lower quartile of {of}"),
    );
    out.metric("peak_rss_mb", crate::peak_rss_mb("self")?, "MB");
    out.metric(
        "failed_ratio",
        out.failed as f64 / out.attempted as f64,
        "ratio",
    );
    let rows: Vec<String> = inputs
        .iter()
        .zip(&per_input)
        .map(|(i, v)| format!("{} {:.0}", i.name, stats::median(v)))
        .collect();
    out.info("p50 per program (us)", rows.join(", "));
    if s.seed == crate::DEFAULT_SEED {
        out.golden = Some(crate::golden_matches(w, &golden_text(&inputs)?));
    }
    Ok(out)
}

/// A seeded permutation of `0..n`.
fn order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    gen::shuffle(&mut v, rng);
    v
}

/// Name-level answers of every input, one digest line each, as kept in
/// `perf/golden/`.
pub fn golden_text(inputs: &[Input]) -> Result<String, String> {
    let mut tr = Tracer::off();
    let mut text = String::new();
    for i in inputs {
        let (d, _) = op(&mut tr, i)?;
        let mut h = Fnv::default();
        h.bytes(layers::canonical_facts(&d.ir, &d.result).as_bytes());
        h.bytes(layers::render_diagnostics(&d.diags).as_bytes());
        h.bytes(d.stats.as_bytes());
        text.push_str(&format!("{} {:016x}\n", i.name, h.0));
    }
    Ok(text)
}

/// Layers of a batch op, in pipeline order.
const OP_LAYERS: [&str; 8] = [
    "cfront.lex",
    "cfront.parse",
    "cfront.sema",
    "simple.lower",
    "simple.validate",
    "core.analyze",
    "lint.lint",
    "stats.compute",
];

/// Records the per-op counts of one compiled and analysed program.
pub fn pipeline_counts(
    counts: &mut Counts,
    ir: &IrProgram,
    result: &AnalysisResult,
    diags: &[Diagnostic],
    tokens: usize,
    lex: Duration,
) -> Result<(), String> {
    counts.add("cfront.tokens_per_s", tokens as f64 / lex.as_secs_f64());
    counts.add("simple.stmts", layers::stmts(ir) as f64);
    counts.add("core.pt_pairs", layers::pt_pairs(result) as f64);
    for (name, v) in layers::engine_counters(ir)? {
        // The engine's own timers count whole microseconds, mostly 0 or
        // 1 per op at suite scale: their mean moves, their median not.
        if name.ends_with("_us") {
            counts.add_mean(name, v);
        } else {
            counts.add(name, v);
        }
    }
    counts.add("lint.diagnostics", diags.len() as f64);
    Ok(())
}

/// Wall time of one untraced op in microseconds, not counting freeing
/// its results (as the traced op's span does not).
fn untraced_us(input: &Input) -> Result<f64, String> {
    let t = Instant::now();
    let done = op(&mut Tracer::off(), input)?;
    let us = t.elapsed().as_secs_f64() * 1e6;
    drop(done);
    Ok(us)
}

/// The traced pass: the same inputs for about a fifth of the untraced
/// run's op count (the traced ops' own time runs to a fifth of the
/// measured seconds). Each traced op has an untraced twin, for the
/// tracing overhead.
pub fn trace(w: Workload, s: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::new(w, s.seed, true);
    let (inputs, first, _) = set_up(w, s.seed)?;
    let mut tr = Tracer::on();
    let mut counts = Counts::default();
    let mut twin_us = Vec::new();
    let mut rng = Rng::new(s.seed ^ 0x0bde_c0de);
    let mut traced_s = 0.0;
    while traced_s < s.seconds / 5.0 {
        for i in order(inputs.len(), &mut rng) {
            let input = &inputs[i];
            // The twin runs before the traced op on even ops and after it
            // on odd ones, so neither side always finds the caches warm.
            let twin_first = out.attempted.is_multiple_of(2);
            if twin_first {
                twin_us.push(untraced_us(input)?);
            }
            out.attempted += 1;
            tr.next_op();
            let t = Instant::now();
            let root = tr.begin("op");
            let (d, parse) = op(&mut tr, input)?;
            tr.end(root);
            traced_s += t.elapsed().as_secs_f64();
            if !twin_first {
                twin_us.push(untraced_us(input)?);
            }
            let (tokens, lex) = layers::probe(|| layers::lex(&input.source));
            tr.probe_child(parse, "cfront.lex", lex);
            pipeline_counts(&mut counts, &d.ir, &d.result, &d.diags, tokens?, lex)?;
            if digest(&d) != first[i] {
                out.failed += 1;
            }
        }
    }
    report::emit_layers(&mut out, &tr, &["op"]);
    counts.emit(&mut out);
    let traced: Vec<f64> = report::root_us(&tr, "op").into_values().collect();
    out.metric(
        "trace_overhead_pct",
        100.0 * (stats::median(&traced) / stats::median(&twin_us) - 1.0),
        "%",
    );
    out.metric(
        "layers.coverage_pct",
        report::share_pct(&tr, "op", &OP_LAYERS),
        "%",
    );
    let front_lint = report::share_pct(
        &tr,
        "op",
        &[
            "cfront.lex",
            "cfront.parse",
            "cfront.sema",
            "simple.lower",
            "simple.validate",
            "lint.lint",
        ],
    );
    out.metric("share.frontend_lint_pct", front_lint, "%");
    out.metric(
        "share.engine_pct",
        report::share_pct(&tr, "op", &["core.analyze"]),
        "%",
    );
    out.spans = tr.spans;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_ops_reproduce_their_digest() {
        let inputs = inputs(Workload::SuiteCold, 1);
        let a = warm_up(&inputs[..3]).unwrap();
        let b = warm_up(&inputs[..3]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_self_times_cover_the_op() {
        let mut tr = Tracer::on();
        let input = &inputs(Workload::SuiteCold, 1)[7];
        for _ in 0..5 {
            tr.next_op();
            let root = tr.begin("op");
            let (_, parse) = op(&mut tr, input).unwrap();
            tr.end(root);
            let (_, lex) = layers::probe(|| layers::lex(&input.source));
            tr.probe_child(parse, "cfront.lex", lex);
        }
        let cover = report::share_pct(&tr, "op", &OP_LAYERS);
        assert!((80.0..=100.0).contains(&cover), "coverage {cover}");
    }
}
