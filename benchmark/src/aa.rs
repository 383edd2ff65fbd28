//! The A/A self-check: does the benchmark agree with itself?
//!
//! Every workload is run twice — timed and traced — in alternating order
//! (forward, then reversed, so no workload always follows the same
//! neighbour), each run a fresh child process exactly as the driver starts
//! it. Host-time metrics of the two runs must agree within their bound;
//! simulated statistics and count-type layer metrics must agree exactly.

use crate::spec::{END_TO_END, PER_LAYER};
use crate::workloads::ALL;
use crate::Args;
use soc_sim::json::{self, Value};
use std::process::{Command, ExitCode, Stdio};

/// One child run's metrics, by name.
type Metrics = Vec<(String, f64)>;

fn child(workload: &str, args: &Args, traced: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting child run: {e}"))?;
    let what = format!("{workload} {} run", if traced { "traced" } else { "timed" });
    if !out.status.success() {
        return Err(format!("{what} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or(format!("{what} printed nothing"))?;
    let doc = json::parse(line).map_err(|e| format!("{what} result line: {e}"))?;
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        return Err(format!("{what} reported incorrect outputs"));
    }
    match doc.get("metrics") {
        Some(Value::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let v = m.get("value").and_then(Value::as_f64);
                v.map(|v| (name.clone(), v))
                    .ok_or(format!("{what}: {name} has no value"))
            })
            .collect(),
        _ => Err(format!("{what} result line has no metrics")),
    }
}

fn value(metrics: &Metrics, name: &str) -> Result<f64, String> {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .ok_or(format!("metric {name} missing from a run"))
}

/// Run the self-check; the exit code is non-zero when any pair disagrees.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    println!(
        "# A/A: every workload twice, seed {}, {} s timed runs",
        args.seed, args.seconds
    );
    let mut timed: [Vec<Metrics>; 4] = Default::default();
    let mut traced: [Vec<Metrics>; 4] = Default::default();
    let forward = 0..ALL.len();
    for i in forward.clone().chain(forward.rev()) {
        eprintln!("# running {} …", ALL[i].name);
        timed[i].push(child(ALL[i].name, args, false)?);
        traced[i].push(child(ALL[i].name, args, true)?);
    }

    let mut misses = 0u32;
    println!(
        "{:<16} {:<28} {:>14} {:>14} {:>8} {:>7}  verdict",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for (i, w) in ALL.iter().enumerate() {
        for e in &END_TO_END {
            let (a, b) = (value(&timed[i][0], e.name)?, value(&timed[i][1], e.name)?);
            let gap = (a - b).abs() / a.abs().min(b.abs());
            let (bound, ok) = if e.exact {
                (0.0, a == b)
            } else {
                (e.bound, gap <= e.bound)
            };
            misses += u32::from(!ok);
            println!(
                "{:<16} {:<28} {a:>14.6} {b:>14.6} {:>7.2}% {:>6.0}%  {}",
                w.name,
                e.name,
                gap * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "MISS" }
            );
        }
        let mut differing = Vec::new();
        for p in PER_LAYER.iter().filter(|p| p.exact) {
            let (a, b) = (value(&traced[i][0], p.name)?, value(&traced[i][1], p.name)?);
            if a != b {
                differing.push(format!("{} ({a} vs {b})", p.name));
            }
        }
        let exact = PER_LAYER.iter().filter(|p| p.exact).count();
        misses += differing.len() as u32;
        println!(
            "{:<16} {exact} count-type layer metrics: {}",
            w.name,
            if differing.is_empty() {
                "all identical".to_string()
            } else {
                format!("MISS {}", differing.join(", "))
            }
        );
    }
    println!("# {misses} misses");
    Ok(if misses == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
