//! The repo benchmark. See `README.md` beside this package.
//!
//! ```text
//! soc-benchmark run   --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//! soc-benchmark trace --workload NAME [--seed S]
//! soc-benchmark aa    [--seed S] [--seconds T]
//! ```
//!
//! `run` is the timed run (end-to-end metrics, tracing off); `run --trace 1`
//! and `trace` are the traced run (per-layer metrics and a span file);
//! `aa` runs every workload twice and checks the two agree.

mod aa;
mod alloc;
mod calib;
mod clock;
mod host;
mod kernels;
mod measure;
mod span;
mod spec;
mod stats;
mod trace;
mod verify;
mod workloads;

use soc_sim::json::Obj;
use std::process::ExitCode;
use verify::Ops;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds a timed run measures for when `--seconds` is not given; equal
/// to `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 30.0;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (a ratio over zero) reads as 0.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// Parsed command line.
pub struct Args {
    mode: String,
    workload: Option<String>,
    /// Workload seed (default 1; 7 is held out for claims).
    pub seed: u64,
    /// Measuring time of a timed run.
    pub seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: soc-benchmark run|trace --workload NAME [--seed S] [--seconds T] \
                     [--trace 0|1]\n       soc-benchmark aa [--seed S] [--seconds T]\n\
                     workloads: paper-cell large-n churn-storm gossip-baseline";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: argv.first().cloned().ok_or("missing mode")?,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = argv[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The result line the driver reads: last line of standard output.
fn result_line(ops: &Ops, metrics: &[Metric]) -> String {
    let mut m = Obj::new();
    for metric in metrics {
        let entry = Obj::new()
            .f64("value", metric.value)
            .str("unit", metric.unit)
            .finish();
        m = m.raw(metric.name, &entry);
    }
    Obj::new()
        .bool("correct", ops.failed == 0)
        .u64("attempted", ops.attempted)
        .u64("failed", ops.failed)
        .raw("metrics", &m.finish())
        .finish()
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("# {title}");
    for m in metrics {
        let note = match spec::describe(m.name) {
            Some((better, Some(bound))) => {
                format!("  {} is better, bound {}%", better.label(), bound * 100.0)
            }
            Some((better, None)) => format!("  {} is better", better.label()),
            None => String::new(),
        };
        println!("{:<32} {:>16.6} {:<6}{note}", m.name, m.value, m.unit);
    }
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let workload = workloads::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let traced = args.trace || args.mode == "trace";
    println!(
        "# workload {name} seed {} ({})\n# why: {}",
        args.seed,
        if traced { "traced run" } else { "timed run" },
        workload.why
    );
    let (ops, metrics) = if traced {
        let out = trace::run(workload, args.seed)?;
        spec::check_listed(
            &out.per_layer,
            spec::PER_LAYER.iter().map(|p| (p.name, p.unit)),
        )?;
        print_metrics("per-layer metrics (traced run)", &out.per_layer);
        println!("# spans written to {}", out.span_file);
        (out.ops, out.per_layer)
    } else {
        let out = measure::run(workload, args.seed, args.seconds)?;
        spec::check_listed(
            &out.end_to_end,
            spec::END_TO_END.iter().map(|e| (e.name, e.unit)),
        )?;
        print_metrics("noise diagnostics", &out.diagnostics);
        for (name, values) in &out.samples {
            let list: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!("# samples {name}: {}", list.join(" "));
        }
        println!("noisy: {}", out.noisy);
        print_metrics(
            "end-to-end metrics (timed run, tracing off)",
            &out.end_to_end,
        );
        (out.ops, out.end_to_end)
    };
    println!(
        "ops_failed_share                 {:>16.6} ratio  ({} of {})",
        ops.failed as f64 / ops.attempted.max(1) as f64,
        ops.failed,
        ops.attempted
    );
    println!("{}", result_line(&ops, &metrics));
    Ok(if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Defaults only — what a user gets. The traced rep alone sets
    // SOC_PROFILE, and unsets it again.
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("SOC_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.mode.as_str() {
        "run" | "trace" => run_one(&args),
        "aa" => aa::run(&args),
        other => Err(format!("unknown mode {other:?}")),
    });
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("soc-benchmark: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
