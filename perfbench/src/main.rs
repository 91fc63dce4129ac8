//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <sim_paper|serve_ingest|serve_control> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Each run measures one workload for `--seconds`, checks the program's
//! outputs against the references in [`reference`], and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics when untraced, the per-layer metrics
//! when traced. A traced run also writes its spans as Chrome trace-event
//! JSON to `.bench_out/trace_<workload>.json` and prints the per-layer
//! table. See `README.md` next to this crate for what every metric means.

mod control;
mod ingest;
mod reference;
mod report;
mod rng;
mod service;
mod sim;
mod spans;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use report::{Metric, Outcome};
use spans::Spans;

/// Where traced runs write their Chrome trace, relative to the working
/// directory (the repository root when run through `run.py`).
const TRACE_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(args)
}

/// Decides whether a run starts another round: always the first; in a
/// traced run, always the traced twin of an untraced round; otherwise
/// only while the mean round time so far still fits in `--seconds`. So
/// every run is made of whole rounds, and a run never overshoots its
/// budget by a long round.
pub struct Rounds {
    start: std::time::Instant,
    seconds: f64,
    trace: bool,
    done: usize,
}

impl Rounds {
    pub fn new(args: &Args) -> Self {
        Rounds {
            start: std::time::Instant::now(),
            seconds: args.seconds,
            trace: args.trace,
            done: 0,
        }
    }

    /// `Some(tracing)` for the next round, `None` when the run is over.
    pub fn next_round(&mut self) -> Option<bool> {
        let elapsed = self.start.elapsed().as_secs_f64();
        let pending_twin = self.trace && self.done % 2 == 1;
        let fits = self.done == 0 || elapsed + elapsed / self.done as f64 <= self.seconds;
        if !(pending_twin || fits) {
            return None;
        }
        self.done += 1;
        Some(pending_twin)
    }

    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Times a workload's set-up several times over a run, so that
/// `setup_s` samples the host over the same window as the other metrics:
/// once before the first round, then between operations whenever the run
/// passes the next of even steps of `--seconds`, and after the last round
/// for the steps a run ended before. `setup_s` is the median.
pub struct Setups {
    start: std::time::Instant,
    seconds: f64,
    count: usize,
    times: Vec<f64>,
}

impl Setups {
    pub fn new(args: &Args, count: usize) -> Self {
        Setups {
            start: std::time::Instant::now(),
            seconds: args.seconds,
            count,
            times: Vec::with_capacity(count),
        }
    }

    /// Run and time one set-up.
    pub fn time<T>(&mut self, set_up: impl FnOnce() -> T) -> T {
        let t = std::time::Instant::now();
        let built = set_up();
        self.times.push(t.elapsed().as_secs_f64());
        built
    }

    /// Whether the next set-up is due by now.
    pub fn due(&self) -> bool {
        let step = self.seconds / self.count as f64;
        self.times.len() < self.count
            && self.start.elapsed().as_secs_f64() >= self.times.len() as f64 * step
    }

    /// Set-ups still to time once the rounds are over.
    pub fn left(&self) -> usize {
        self.count - self.times.len()
    }

    pub fn times(&self) -> &[f64] {
        &self.times
    }
}

/// The benchmark's declaration; its `per_layer` list names every
/// per-layer metric with its unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Every per-layer metric `(name, unit)`, in the order `BENCHMARK.json`
/// lists them.
fn layer_metrics() -> Vec<(String, String)> {
    use serde_json::Value;
    let json: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(Value::Array(list)) = json.get("per_layer") else {
        panic!("BENCHMARK.json has no per_layer list");
    };
    let field = |m: &Value, key: &str| match m.get(key) {
        Some(Value::String(s)) => s.clone(),
        _ => panic!("a per_layer entry of BENCHMARK.json has no {key}"),
    };
    list.iter()
        .map(|m| (field(m, "name"), field(m, "unit")))
        .collect()
}

/// The traced result: every declared per-layer metric, in declared order.
/// A layer the workload never calls reads 0. A metric the workload
/// reports must be declared, with the declared unit.
fn layer_result(out: &mut Outcome) -> Vec<Metric> {
    let declared = layer_metrics();
    for m in &out.layers {
        let unit = declared
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|d| &d.1);
        out.checks.check(unit == Some(&m.unit), || {
            format!(
                "per-layer metric {} ({}) is not declared so in BENCHMARK.json",
                m.name, m.unit
            )
        });
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            let value = out
                .layers
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric { name, unit, value }
        })
        .collect()
}

/// Shared tail of every traced run: the tracing overhead (traced rounds
/// against the untraced rounds of the same run, medians), span coverage
/// of the measured wall time, the per-layer table, and the Chrome trace.
/// `round_secs[0]` holds untraced round times, `round_secs[1]` traced.
pub fn finish_trace(out: &mut Outcome, spans: &Spans, round_secs: &[Vec<f64>; 2], args: &Args) {
    let untraced = stats::median(&round_secs[0]);
    let traced = stats::median(&round_secs[1]);
    out.layer("trace.overhead_pct", "%", 100.0 * (traced / untraced - 1.0));
    let coverage = 100.0 * spans.coverage("round");
    out.layer("trace.span_coverage_pct", "%", coverage);
    out.checks.check(coverage >= 90.0, || {
        format!("spans cover only {coverage:.1}% of the traced wall time")
    });
    out.note(format!(
        "tracing overhead: traced round median {:.3} ms vs untraced {:.3} ms over {} + {} rounds",
        traced * 1e3,
        untraced * 1e3,
        round_secs[1].len(),
        round_secs[0].len()
    ));
    out.note(format!(
        "per-layer table (self time excludes child spans):\n{}",
        spans.table()
    ));
    let dir = Path::new(TRACE_DIR);
    let path = dir.join(format!("trace_{}.json", args.workload));
    let (json, events) = spans.chrome_json();
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => out.note(format!(
            "chrome trace written to {} ({events} of {} spans)",
            path.display(),
            spans.len()
        )),
        Err(e) => out
            .checks
            .check(false, || format!("writing {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "sim_paper" => sim::run(&args),
        "serve_ingest" => ingest::run(&args),
        "serve_control" => control::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` (sim_paper, serve_ingest, serve_control)"
            );
            return ExitCode::from(2);
        }
    };
    let metrics: Vec<Metric> = if args.trace {
        layer_result(&mut out)
    } else {
        out.e2e.clone()
    };
    for line in &out.notes {
        println!("{line}");
    }
    for msg in out.checks.messages() {
        println!("CHECK FAILED: {msg}");
    }
    println!(
        "operations: attempted {}, failed {}; checks failed: {}",
        out.attempted,
        out.failed,
        out.checks.failures()
    );
    println!(
        "{}",
        report::result_json(out.checks.passed(), out.attempted, out.failed, &metrics)
    );
    if out.checks.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
