//! Results: one workload run's outcome, its one-line result, run
//! files, and the comparison of two sets of runs.

use crate::layers::{json, Json, Span, Tracer};
use crate::stats;
use crate::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Ops whose spans an outcome writes to its `layers` section (all spans
/// are kept in memory and feed the metrics; the file gets a sample).
const SPAN_OPS_WRITTEN: u32 = 8;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Context printed next to it (input size, percentile and count).
    pub note: String,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Traced pass (per-layer metrics) or untraced run (end to end).
    pub traced: bool,
    /// Ops or requests attempted in the measured phase.
    pub attempted: u64,
    /// Those that errored, timed out, were refused, or failed a
    /// self-consistency check.
    pub failed: u64,
    /// Every metric, in the order measured.
    pub metrics: Vec<Metric>,
    /// Other facts worth printing (input sizes, lateness, checks).
    pub info: Vec<(String, String)>,
    /// On the default seed: whether answers match `perf/golden/`.
    pub golden: Option<bool>,
    /// Spans of the traced pass.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Outcome {
        Outcome {
            workload,
            seed,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            info: Vec::new(),
            golden: None,
            spans: Vec::new(),
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metric_noted(name, value, unit, String::new());
    }

    /// Adds a metric with a note printed next to it.
    pub fn metric_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            note,
        });
    }

    /// Adds an info line.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push((key.to_owned(), value.to_string()));
    }

    /// True when no op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Prints every metric with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} (seed {:#x}, {}) ==",
            self.workload.name(),
            self.seed,
            if self.traced {
                "traced pass"
            } else {
                "untraced"
            }
        );
        for m in &self.metrics {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  [{}]", m.note)
            };
            println!("  {:<32} {:>14.4} {}{note}", m.name, m.value, m.unit);
        }
        for (k, v) in &self.info {
            println!("  {k}: {v}");
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  failed_ratio: {ratio} ({} of {} failed)",
            self.failed, self.attempted
        );
        if let Some(g) = self.golden {
            println!("  answers_match_golden: {g}");
        }
    }

    /// The outcome as a JSON object (what `--json` writes).
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let info = self
            .info
            .iter()
            .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
            .collect();
        let layers = self
            .spans
            .iter()
            .filter(|s| s.op <= SPAN_OPS_WRITTEN)
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.start_ns as f64 / 1e3),
                    Json::Num(s.end_ns as f64 / 1e3),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    Json::Num(f64::from(s.op)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.workload.name().into())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("trace".into(), Json::Bool(self.traced)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("correct".into(), Json::Bool(self.correct())),
            (
                "answers_match_golden".into(),
                self.golden.map_or(Json::Null, Json::Bool),
            ),
            ("metrics".into(), Json::Obj(metrics)),
            ("info".into(), Json::Obj(info)),
            ("layers".into(), Json::Arr(layers)),
        ])
    }

    /// The one-line result: `correct`, `attempted`, `failed`, and
    /// exactly the named metrics.
    pub fn result_line(&self, names: &[MetricSpec]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for spec in names {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == spec.name)
                .ok_or_else(|| format!("metric `{}` was not measured", spec.name))?;
            if !m.value.is_finite() {
                return Err(format!("metric `{}` is not a number", m.name));
            }
            metrics.push((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(m.value)),
                    ("unit".into(), Json::Str(m.unit.into())),
                ]),
            ));
        }
        Ok(Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .render())
    }
}

/// The unit a metric name implies.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("bytes") {
        "bytes"
    } else if name.ends_with("per_s") {
        "1/s"
    } else if name.ends_with("ratio") {
        "ratio"
    } else {
        "count"
    }
}

/// Per-op values a traced pass records next to its spans, reported as
/// their median (or, when recorded with [`Counts::add_mean`], mean).
#[derive(Default)]
pub struct Counts(BTreeMap<&'static str, (Vec<f64>, bool)>);

impl Counts {
    /// Records one op's value.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().0.push(value);
    }

    /// Records one op's value of a metric reported as a mean.
    pub fn add_mean(&mut self, name: &'static str, value: f64) {
        let e = self.0.entry(name).or_default();
        e.0.push(value);
        e.1 = true;
    }

    /// Adds every recorded metric to `out`.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, (v, mean)) in &self.0 {
            let value = if *mean {
                v.iter().sum::<f64>() / v.len() as f64
            } else {
                stats::median(v)
            };
            out.metric(name, value, unit_of(name));
        }
    }
}

/// Adds `<layer>_us`, the per-op median self time, for every layer the
/// tracer saw except the op roots.
pub fn emit_layers(out: &mut Outcome, tr: &Tracer, roots: &[&str]) {
    for (name, per_op) in tr.self_us() {
        if roots.contains(&name) {
            continue;
        }
        let v: Vec<f64> = per_op.values().copied().collect();
        out.metric(&format!("{name}_us"), stats::median(&v), "us");
    }
}

/// Wall time in microseconds of each root span named `name`, by op.
pub fn root_us(tr: &Tracer, name: &str) -> BTreeMap<u32, f64> {
    tr.spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == name)
        .map(|s| (s.op, s.dur_ns() as f64 / 1e3))
        .collect()
}

/// Share (percent) of the root spans' wall time that the self times of
/// `layers` cover, over all ops with a root named `root`.
pub fn share_pct(tr: &Tracer, root: &str, layers: &[&str]) -> f64 {
    let walls = root_us(tr, root);
    let total: f64 = walls.values().sum();
    let selfs = tr.self_us();
    let covered: f64 = selfs
        .iter()
        .filter(|(name, _)| layers.contains(name))
        .flat_map(|(_, per_op)| per_op.iter())
        .filter(|(op, _)| walls.contains_key(op))
        .map(|(_, us)| us)
        .sum();
    100.0 * covered / total
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Whether a smaller value is better.
    pub lower_better: bool,
    /// Share of the base median it may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The metric lists of `BENCHMARK.json`.
pub struct Spec {
    /// Printed by untraced runs; bounded.
    pub end_to_end: Vec<MetricSpec>,
    /// Printed by traced passes.
    pub per_layer: Vec<MetricSpec>,
}

/// Reads `BENCHMARK.json`.
pub fn read_spec(path: &Path) -> Result<Spec, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<Vec<MetricSpec>, String> {
        let items = doc
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{}: no `{key}` list", path.display()))?;
        items
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("metric without a name")?
                        .to_owned(),
                    lower_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        end_to_end: list("end_to_end")?,
        per_layer: list("per_layer")?,
    })
}

/// Untraced metric values of many runs: workload → metric → (unit,
/// values in run order).
pub type RunSet = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// Collects the untraced runs of `pta-perf run` files and single
/// `pta-perf bench --json` outcomes.
pub fn load_runs(files: &[PathBuf]) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for f in files {
        let text =
            std::fs::read_to_string(f).map_err(|e| format!("cannot read {}: {e}", f.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        let outcomes: Vec<&Json> = match doc.get("runs").and_then(Json::as_arr) {
            Some(runs) => runs.iter().collect(),
            None => vec![&doc],
        };
        for o in outcomes {
            add_run(&mut set, o);
        }
    }
    Ok(set)
}

/// Adds one untraced outcome's metrics (traced ones are skipped).
pub fn add_run(set: &mut RunSet, outcome: &Json) {
    if outcome.get("trace") == Some(&Json::Bool(true)) {
        return;
    }
    let Some(w) = outcome.get("workload").and_then(Json::as_str) else {
        return;
    };
    let Some(Json::Obj(metrics)) = outcome.get("metrics") else {
        return;
    };
    let row = set.entry(w.to_owned()).or_default();
    for (name, m) in metrics {
        let (Some(v), Some(u)) = (
            m.get("value").and_then(Json::as_f64),
            m.get("unit").and_then(Json::as_str),
        ) else {
            continue;
        };
        let e = row
            .entry(name.clone())
            .or_insert_with(|| (u.to_owned(), Vec::new()));
        e.1.push(v);
    }
}

/// Medians and quartiles of every workload and metric.
pub fn summary(set: &RunSet) -> Json {
    Json::Obj(
        ordered(set)
            .map(|(w, row)| {
                let metrics = row
                    .iter()
                    .map(|(name, (unit, v))| {
                        let (q1, _, q3) = stats::quartiles(v);
                        (
                            name.clone(),
                            Json::Obj(vec![
                                ("median".into(), Json::Num(stats::median(v))),
                                ("q1".into(), Json::Num(q1)),
                                ("q3".into(), Json::Num(q3)),
                                ("n".into(), Json::Num(v.len() as f64)),
                                ("unit".into(), Json::Str(unit.clone())),
                            ]),
                        )
                    })
                    .collect();
                (w.to_owned(), Json::Obj(metrics))
            })
            .collect(),
    )
}

/// Workloads in table order, then any unknown ones.
fn ordered(set: &RunSet) -> impl Iterator<Item = (&str, &BTreeMap<String, (String, Vec<f64>)>)> {
    let known: Vec<&str> = crate::WORKLOADS.iter().map(|w| w.name()).collect();
    let mut names: Vec<&str> = set.keys().map(String::as_str).collect();
    names.sort_by_key(|n| known.iter().position(|k| k == n).unwrap_or(usize::MAX));
    names.into_iter().map(move |n| (n, &set[n]))
}

/// The verdict for one metric, `base` the parent's runs and `new` the
/// change's, paired in run order (the rule of section 8 of the
/// choosing-metrics guide).
pub fn verdict(base: &[f64], new: &[f64], lower_better: bool, bound: Option<f64>) -> &'static str {
    let better = |x: f64, y: f64| if lower_better { x < y } else { x > y };
    let (q1, _, q3) = stats::quartiles(base);
    let (bm, nm) = (stats::median(base), stats::median(new));
    let pairs = base.len().min(new.len());
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| better(**n, **b))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(nm, bm) && (nm - bm).abs() > q3 - q1 {
        return "improved";
    }
    let Some(bound) = bound else {
        return "no bound";
    };
    let worse = if lower_better { nm - bm } else { bm - nm } / bm.abs();
    let all_better = new.iter().all(|n| base.iter().all(|b| better(*n, *b)));
    if (q3 - q1) / bm.abs() > bound && !all_better {
        "unresolved"
    } else if worse > bound {
        "regression"
    } else {
        "within bound"
    }
}

/// Prints both sides of every workload and metric with the ratio and
/// its base, and a verdict against the bounds. Returns true if any
/// metric regressed.
pub fn compare(base: &RunSet, new: &RunSet, spec: &Spec) -> bool {
    let mut regressed = false;
    for (w, row) in ordered(base) {
        println!("== {w} ==");
        let Some(new_row) = new.get(w) else {
            println!("  (no runs on the new side)");
            continue;
        };
        for (name, (unit, a)) in row {
            let Some((_, b)) = new_row.get(name) else {
                continue;
            };
            let s = spec.end_to_end.iter().find(|m| &m.name == name);
            let lower_better = s.map_or(!name.ends_with("per_s"), |m| m.lower_better);
            let v = verdict(a, b, lower_better, s.and_then(|m| m.bound));
            regressed |= v == "regression";
            let side = |v: &[f64]| {
                let (q1, _, q3) = stats::quartiles(v);
                format!(
                    "{:.4} [{:.4}, {:.4}] n={}",
                    stats::median(v),
                    q1,
                    q3,
                    v.len()
                )
            };
            let base = stats::median(a);
            let ratio = if base == 0.0 {
                "-".to_owned()
            } else {
                format!("{:.4}x", stats::median(b) / base)
            };
            let mut line = format!(
                "  {name:<18} {unit:<6} base {}  new {}  ratio {ratio} of base",
                side(a),
                side(b),
            );
            let _ = write!(
                line,
                "  bound {}  -> {v}",
                s.and_then(|m| m.bound)
                    .map_or("-".to_owned(), |b| format!("{b}"))
            );
            println!("{line}");
        }
    }
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_pair_rule() {
        let base: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        let same = base.clone();
        assert_eq!(verdict(&base, &same, true, Some(0.1)), "within bound");
        let slower: Vec<f64> = base.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&base, &slower, true, Some(0.1)), "regression");
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), "improved");
        // Throughput: higher is better.
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), "regression");
        let noisy: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 10.0).collect();
        assert_eq!(verdict(&noisy, &noisy, true, Some(0.1)), "unresolved");
    }
}
