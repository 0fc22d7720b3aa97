//! `benchmark` — the repository's one accountable benchmark.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one run (what the driver calls)
//! benchmark [--workload NAME] --repeat N [--out FILE]          N runs per workload, medians + spreads
//! benchmark --compare A.json B.json                            verdict per workload x metric
//! benchmark --smoke                                            all four workloads, 1/20 duration, 20k items
//! benchmark --print-benchmark-json                             the registry file, rendered from spec.rs
//! ```
//!
//! One run generates its inputs from the seed, runs the workload with
//! tracing off (`--trace 0`: end-to-end metrics) or with spans recorded
//! around the calls into each layer (`--trace 1`: per-layer metrics and
//! the tracing overhead), checks every output against the oracle, prints
//! every metric by name on stderr and one JSON result object as the last
//! line of stdout. Any failed check exits non-zero. See `README.md`.

mod fixture;
mod json;
mod layers;
mod loadgen;
mod oracle;
mod record;
mod report;
mod serving;
mod spec;
mod stats;
mod stream;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::Outcome;
use serving::RunArgs;
use spec::MetricSpec;
use trace::{Clock, Tracer};

/// `--seconds` when the caller gives none (the value in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Client-side `socket.*` spans written to the trace file at most (all of
/// them stay counted in `trace.spans`; layer spans are always written).
const TRACE_FILE_SOCKET_SPANS: usize = 30_000;

struct Cli {
    args: Vec<String>,
}

impl Cli {
    fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.flag(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value for {name}: {v}")),
        }
    }
}

/// One run of one workload in this process.
pub struct RunRequest {
    pub workload: String,
    pub trace: bool,
    pub args: RunArgs,
    pub trace_out: Option<PathBuf>,
}

/// Runs a workload and returns its outcome with the metric table it
/// reports against.
pub fn run_workload(req: &RunRequest) -> Result<(Outcome, &'static [MetricSpec]), String> {
    let serving = spec::SERVING.iter().find(|s| s.name == req.workload);
    if serving.is_none() && req.workload != "train_epoch" {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {:?}; one of {names:?}", req.workload));
    }
    if !req.trace {
        let outcome = match serving {
            Some(spec) => serving::run(spec, &req.args),
            None => train::run(&req.args, None, Clock::start()),
        };
        return Ok((outcome, spec::END_TO_END));
    }
    let clock = Clock::start();
    let mut tracer = Tracer::new(clock);
    let mut outcome = match serving {
        Some(spec) => layers::run(spec, &req.args, &mut tracer, clock),
        None => train::run(&req.args, Some(&mut tracer), clock),
    };
    outcome.put("trace.spans", tracer.len() as f64, tracer.len() as u64);
    let path = req
        .trace_out
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!("benchmark/out/trace-{}.jsonl", req.workload)));
    match trace::write_jsonl(&path, tracer.spans(), TRACE_FILE_SOCKET_SPANS) {
        Ok(written) => outcome.notes.push(format!(
            "trace: {} spans recorded, {written} written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => {
            outcome.notes.push(format!("trace file {} not written: {e}", path.display()));
            outcome.correct = false;
        }
    }
    Ok((outcome, spec::PER_LAYER))
}

fn real_main(process_start: Instant) -> Result<bool, String> {
    let cli = Cli { args: std::env::args().skip(1).collect() };
    if cli.flag("--help") || cli.flag("-h") {
        eprintln!("see benchmark/README.md; modes: --workload/--seed/--seconds/--trace, --repeat N, --compare A B, --smoke");
        return Ok(true);
    }
    if let Some(i) = cli.args.iter().position(|a| a == "--compare") {
        let (a, b) = match (cli.args.get(i + 1), cli.args.get(i + 2)) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("--compare needs two result files".to_string()),
        };
        return record::compare_files(a, b);
    }
    if cli.flag("--print-benchmark-json") {
        print!("{}", record::benchmark_json().pretty());
        return Ok(true);
    }
    let smoke = cli.flag("--smoke");
    let seed: u64 = cli.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = cli.parsed("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if !(seconds.is_finite() && seconds >= 0.5) {
        return Err("--seconds must be at least 0.5".to_string());
    }
    let trace = match cli.value("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
    };
    let args = RunArgs {
        seed,
        seconds: if smoke { seconds / 20.0 } else { seconds },
        catalog_items: if smoke { spec::SMOKE_CATALOG_ITEMS } else { spec::CATALOG_ITEMS },
        process_start,
    };
    let workload = cli.value("--workload").map(str::to_string);

    if smoke {
        return record::smoke(args);
    }
    if let Some(repeat) = cli.parsed::<usize>("--repeat")? {
        let out = cli.value("--out").map(PathBuf::from);
        return record::repeat(workload.as_deref(), repeat, seed, seconds, out.as_deref());
    }
    let workload =
        workload.ok_or("--workload NAME is required (or --repeat / --compare / --smoke)")?;
    let req = RunRequest {
        workload,
        trace,
        args,
        trace_out: cli.value("--trace-out").map(PathBuf::from),
    };
    let (outcome, table) = run_workload(&req)?;
    eprint!("{}", outcome.render(&req.workload, table));
    println!("{}", outcome.result_line(table));
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    match real_main(process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed (see above)");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
