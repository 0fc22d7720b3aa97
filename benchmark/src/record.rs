//! Result records with provenance, `--repeat`, `--compare` and `--smoke`.
//!
//! One record schema for every result file:
//! `{schema, provenance{commit, dirty, cpu_model, cpu_caps, nproc, backend,
//! pool_threads, date, seed, seconds, catalogue_rows, rates, limits},
//! workloads{name → metric → {value, unit, n, q1, q3, spread, values}},
//! per_layer{name → metric → {value, unit}}}` where a workload metric's
//! `value` is the median over `n` untraced runs of distinct seeds and the
//! per-layer values come from one traced run on the first seed.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::json::Value;
use crate::serving::RunArgs;
use crate::spec::{self, Better, MetricSpec};
use crate::stats::{median, quartiles, spread};
use crate::{run_workload, RunRequest};

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).stderr(Stdio::null()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from the system clock (civil-from-days).
fn utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs()) as i64;
    let (days, rem) = (secs.div_euclid(86_400), secs.rem_euclid(86_400));
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        rem / 3_600,
        rem % 3_600 / 60,
        rem % 60
    )
}

pub fn provenance(seed: u64, seconds: f64, catalog_items: usize) -> Value {
    let mut rates = Value::obj();
    let mut limits = Value::obj();
    for s in spec::SERVING {
        rates = rates.with(s.name, s.rate_rps);
        limits = limits.with(s.name, s.limit_us);
    }
    Value::obj()
        .with(
            "commit",
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string()),
        )
        // Uncommitted changes on top of that commit (`None` outside git).
        .with(
            "dirty",
            command_line("git", &["status", "--porcelain"])
                .map_or(Value::Null, |s| Value::Bool(!s.is_empty())),
        )
        .with("cpu_model", cpu_model())
        .with("cpu_caps", format!("{:?}", atnn_tensor::cpu_caps()))
        .with("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()))
        .with("backend", atnn_tensor::process_backend().name())
        .with("pool_threads", atnn_tensor::pool::effective_threads())
        .with("date", utc_now())
        .with("seed", seed)
        .with("seconds", seconds)
        .with("catalogue_rows", catalog_items)
        .with("rates_rps", rates)
        .with("limits_us", limits)
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

/// The registry file at the repository root, rendered from [`spec`] — the
/// tables here are the source, `BENCHMARK.json` their mirror (a unit test
/// fails when the two drift apart).
pub fn benchmark_json() -> Value {
    let metric = |m: &MetricSpec| {
        let obj = Value::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        match m.bound {
            Some(bound) => obj.with("bound", bound),
            None => obj,
        }
    };
    Value::obj()
        .with(
            "command",
            [
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]
            .map(Value::from)
            .to_vec(),
        )
        .with("paths", vec![Value::from("benchmark")])
        .with("run_seconds", crate::DEFAULT_SECONDS)
        .with(
            "workloads",
            spec::WORKLOADS
                .iter()
                .map(|(name, why)| Value::obj().with("name", *name).with("why", *why))
                .collect::<Vec<_>>(),
        )
        .with("end_to_end", spec::END_TO_END.iter().map(metric).collect::<Vec<_>>())
        .with("per_layer", spec::PER_LAYER.iter().map(metric).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------------
// --repeat
// ---------------------------------------------------------------------------

/// One child run: this executable, one workload, one seed. The child is
/// waited for; its result line is parsed from stdout.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let value = Value::parse(line).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !out.status.success() || value.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "{workload} seed {seed} failed its checks; stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(value)
}

fn summarize(values: &[f64], unit: &str) -> Value {
    let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
    Value::obj()
        .with("value", median(values))
        .with("unit", unit)
        .with("n", values.len())
        .with("q1", q1)
        .with("q3", q3)
        .with("spread", spread(values))
        .with("values", values.iter().map(|&v| Value::Num(v)).collect::<Vec<_>>())
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs each workload `n` times untraced on seeds `seed..seed+n`, prints
/// median, quartiles and spread per end-to-end metric against its bound,
/// then once traced (first seed) for the per-layer numbers, and writes the
/// record to `out` when given.
pub fn repeat(
    workload: Option<&str>,
    n: usize,
    seed: u64,
    seconds: f64,
    out: Option<&Path>,
) -> Result<bool, String> {
    if n == 0 {
        return Err("--repeat needs at least 1".to_string());
    }
    let names: Vec<&str> = match workload {
        Some(w) => vec![w],
        None => spec::WORKLOADS.iter().map(|w| w.0).collect(),
    };
    let mut workloads = Value::obj();
    let mut per_layer = Value::obj();
    let mut all_within = true;
    for name in names {
        let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for i in 0..n as u64 {
            let result = child_run(name, seed + i, seconds, false)?;
            for (slot, m) in per_metric.iter_mut().zip(spec::END_TO_END) {
                slot.push(
                    metric_value(&result, m.name)
                        .ok_or_else(|| format!("{name}: result line lacks {}", m.name))?,
                );
            }
            eprintln!("{name}: run {}/{n} (seed {}) done", i + 1, seed + i);
        }
        let traced = child_run(name, seed, seconds, true)?;
        let mut layers = Value::obj();
        for m in spec::PER_LAYER {
            let value = metric_value(&traced, m.name)
                .ok_or_else(|| format!("{name}: traced result line lacks {}", m.name))?;
            layers = layers.with(m.name, Value::obj().with("value", value).with("unit", m.unit));
        }
        per_layer = per_layer.with(name, layers);
        eprintln!("{name}: traced run (seed {seed}) done");
        println!("== {name}: {n} runs, seeds {seed}..{} ==", seed + n as u64 - 1);
        println!(
            "  {:<18} {:>14} {:>14} {:>14} {:>8} {:>7}  unit",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        let mut obj = Value::obj();
        for (values, m) in per_metric.iter().zip(spec::END_TO_END) {
            let (q1, q3) = quartiles(values).unwrap_or((values[0], values[0]));
            let (s, bound) = (spread(values), m.bound.unwrap_or(0.0));
            // setup_s is the one metric whose spread the driver does not hold
            // against its bound.
            let wide = s > bound && m.name != "setup_s";
            all_within &= !wide;
            println!(
                "  {:<18} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>7.3}  {}{}",
                m.name,
                median(values),
                q1,
                q3,
                s,
                bound,
                m.unit,
                if wide { "   <-- spread wider than bound" } else { "" }
            );
            obj = obj.with(m.name, summarize(values, m.unit));
        }
        workloads = workloads.with(name, obj);
    }
    if let Some(path) = out {
        let record = Value::obj()
            .with("schema", 1usize)
            .with("provenance", provenance(seed, seconds, spec::CATALOG_ITEMS))
            .with("workloads", workloads)
            .with("per_layer", per_layer);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, record.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(all_within)
}

// ---------------------------------------------------------------------------
// --compare
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    Regressed,
    /// Run-to-run spread on either side is wider than the bound, so a
    /// difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Within => "within",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's median and spread on a workload.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub spread: f64,
}

/// `b` against baseline `a` for metric `m`: regressed when worse by more
/// than the bound, improved when better by more than either side's
/// spread, unresolved when the spreads are too wide to say.
pub fn verdict(m: &MetricSpec, a: Side, b: Side) -> Verdict {
    let bound = m.bound.unwrap_or(f64::INFINITY);
    let noise = a.spread.max(b.spread);
    if noise > bound {
        return Verdict::Unresolved;
    }
    if a.median == 0.0 {
        return Verdict::Within;
    }
    // Signed change in the direction that is better for this metric.
    let gain = match m.better {
        Better::Higher => (b.median - a.median) / a.median.abs(),
        Better::Lower => (a.median - b.median) / a.median.abs(),
    };
    if gain < -bound {
        Verdict::Regressed
    } else if gain > noise && gain > 0.0 {
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

fn side(record: &Value, workload: &str, metric: &str) -> Option<Side> {
    let m = record.get("workloads")?.get(workload)?.get(metric)?;
    Some(Side {
        median: m.get("value")?.as_f64()?,
        spread: m.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

fn load_record(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints one row per workload × end-to-end metric; `Ok(false)` when any
/// row regressed.
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load_record(a_path)?, load_record(b_path)?);
    println!(
        "{:<20} {:<18} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "spread", "bound"
    );
    let mut none_regressed = true;
    let mut rows = 0;
    for (workload, _) in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (Some(sa), Some(sb)) = (side(&a, workload, m.name), side(&b, workload, m.name))
            else {
                continue;
            };
            let v = verdict(m, sa, sb);
            none_regressed &= v != Verdict::Regressed;
            rows += 1;
            println!(
                "{:<20} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>8.4} {:>7.3}  {}",
                workload,
                m.name,
                sa.median,
                sb.median,
                (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE) * 100.0,
                sa.spread.max(sb.spread),
                m.bound.unwrap_or(0.0),
                v.as_str()
            );
        }
    }
    if rows == 0 {
        return Err("the two files share no workload x metric".to_string());
    }
    Ok(none_regressed)
}

// ---------------------------------------------------------------------------
// --smoke
// ---------------------------------------------------------------------------

/// All four workloads, untraced then traced, at a twentieth of the duration
/// over the small catalogue, in this process. Same oracle, same checks.
pub fn smoke(args: RunArgs) -> Result<bool, String> {
    let mut all_ok = true;
    for (name, _) in spec::WORKLOADS {
        for trace in [false, true] {
            let req = RunRequest {
                workload: name.to_string(),
                trace,
                args: RunArgs { process_start: std::time::Instant::now(), ..args },
                trace_out: None,
            };
            let started = std::time::Instant::now();
            let (outcome, table) = run_workload(&req)?;
            eprintln!(
                "smoke {name} trace={}: correct={} attempted={} failed={} in {:.1}s",
                u8::from(trace),
                outcome.correct,
                outcome.attempted(),
                outcome.failed(),
                started.elapsed().as_secs_f64()
            );
            if !outcome.correct {
                eprint!("{}", outcome.render(name, table));
            }
            all_ok &= outcome.correct;
        }
    }
    eprintln!("smoke: {}", if all_ok { "all workloads passed their checks" } else { "FAILED" });
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> MetricSpec {
        MetricSpec { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: Some(bound) }
    }

    fn higher(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "throughput_per_s",
            unit: "1/s",
            better: Better::Higher,
            bound: Some(bound),
        }
    }

    fn s(median: f64, spread: f64) -> Side {
        Side { median, spread }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        // Lower is better, bound 10%.
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.02), s(115.0, 0.02)), Verdict::Regressed);
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.02), s(108.0, 0.02)), Verdict::Within);
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.02), s(99.0, 0.02)), Verdict::Within);
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.02), s(90.0, 0.02)), Verdict::Improved);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(&higher(0.1), s(100.0, 0.02), s(85.0, 0.02)), Verdict::Regressed);
        assert_eq!(verdict(&higher(0.1), s(100.0, 0.02), s(115.0, 0.02)), Verdict::Improved);
        // A gain inside the noise is not a gain.
        assert_eq!(verdict(&higher(0.1), s(100.0, 0.06), s(105.0, 0.01)), Verdict::Within);
        // Spread wider than the bound on either side: nothing can be said.
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.15), s(150.0, 0.01)), Verdict::Unresolved);
        assert_eq!(verdict(&lower(0.1), s(100.0, 0.01), s(50.0, 0.2)), Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_the_record_schema() {
        let record = |p50: f64| {
            Value::obj().with("schema", 1usize).with(
                "workloads",
                Value::obj().with(
                    "point_score",
                    Value::obj()
                        .with("latency_p50_us", summarize(&[p50, p50 * 1.01, p50 * 0.99], "us")),
                ),
            )
        };
        let dir = std::env::temp_dir().join(format!("atnn-benchmark-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, record(60.0).pretty()).unwrap();
        std::fs::write(&b, record(90.0).pretty()).unwrap();
        let (a, b) = (a.to_str().unwrap(), b.to_str().unwrap());
        assert_eq!(compare_files(a, a), Ok(true));
        assert_eq!(compare_files(a, b), Ok(false), "a 50% slower median is a regression");
        assert_eq!(compare_files(b, a), Ok(true));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn benchmark_json_mirrors_the_spec_and_fits_the_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let on_disk = Value::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --print-benchmark-json");
        assert!(text.len() <= 64 * 1024);

        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{} / {}", m.name, m.unit);
            assert!(names.insert(m.name), "{} is used twice", m.name);
        }
        for (name, why) in spec::WORKLOADS {
            assert!(name_ok(name) && names.insert(name));
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why too long");
        }
        assert!((2..=8).contains(&spec::WORKLOADS.len()));
        assert!((1..=16).contains(&spec::END_TO_END.len()));
        assert!((1..=128).contains(&spec::PER_LAYER.len()));
        assert!(spec::END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = spec::metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = spec::END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
    }

    #[test]
    fn dates_are_iso_utc() {
        let d = utc_now();
        assert_eq!(d.len(), 20);
        assert!(d.ends_with('Z') && &d[4..5] == "-" && &d[10..11] == "T");
        assert!(d[..4].parse::<u32>().unwrap() >= 2024);
    }
}
