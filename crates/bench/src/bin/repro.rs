//! `repro` — regenerate every table and figure of the paper, and run
//! declarative scenarios beyond it.
//!
//! ```text
//! repro fig4              # Fig. 4(a)(b): SID vs Newscast vs KHDN, λ=0.84/0.25
//! repro fig5 --lambda 1.0 # Fig. 5 (λ=1); 0.5 → Fig. 6; 0.25 → Fig. 7
//! repro fig8              # Fig. 8: HID-CAN under churn
//! repro table3            # Table III: HID-CAN scalability
//! repro all               # everything above
//! repro diag              # λ=0.5 rejection split (oracle on) and the
//!                         #   hostility A/B (defence off vs on)
//! repro scenario FILE     # run a scenario file (see scenarios/ gallery);
//!                         #   --record PATH dumps the realized trace
//! repro replay TRACE      # replay a recorded trace bit-exactly and
//!                         #   verify its fingerprint
//! ```
//!
//! Options: `--scale full|smoke|bench` (default smoke), `--seed N`
//! (default 1; scenario files keep their own seed unless overridden),
//! `--json PATH` (dump every report of the command as JSON). Full scale
//! reproduces §IV-A exactly (2000–12000 nodes, 24 simulated hours) and
//! takes minutes per figure; smoke preserves the shapes in seconds. Wall time, RSS and the
//! per-layer breakdown are measured by the repo benchmark (`benchmark/`),
//! not here. A scenario file or trace that cannot be read or is rejected
//! by its parser exits 2 with the error on stderr.

use soc_bench::{
    diag_hostility, diag_lambda05, fig4, fig5, fig8, fig8_checkpointing, print_diag, print_fig8,
    print_hostility, print_series, print_table3, reports_json, sweep, table3, Scale,
};
use soc_scenario::{record_run, replay_run, ScenarioSpec, Trace};
use soc_sim::RunReport;

struct Args {
    cmd: String,
    file: Option<String>,
    scale: Scale,
    scale_label: &'static str,
    scale_given: bool,
    seed: Option<u64>,
    lambda: f64,
    json: Option<String>,
    record: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        cmd: String::new(),
        file: None,
        scale: Scale::smoke(),
        scale_label: "smoke",
        scale_given: false,
        seed: None,
        lambda: 1.0,
        json: None,
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().unwrap_or_default();
                args.scale_given = true;
                (args.scale, args.scale_label) = match v.as_str() {
                    "full" => (Scale::full(), "full"),
                    "smoke" => (Scale::smoke(), "smoke"),
                    "bench" => (Scale::bench(), "bench"),
                    other => {
                        eprintln!("unknown scale {other:?} (use full|smoke|bench)");
                        std::process::exit(2);
                    }
                };
            }
            "--json" => {
                args.json = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--json needs a path");
                    std::process::exit(2);
                }));
            }
            "--record" => {
                args.record = Some(it.next().unwrap_or_else(|| {
                    eprintln!("--record needs a path");
                    std::process::exit(2);
                }));
            }
            "--seed" => {
                args.seed = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed needs an integer");
                    std::process::exit(2);
                }));
            }
            "--lambda" => {
                args.lambda = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--lambda needs a number");
                    std::process::exit(2);
                });
            }
            cmd if args.cmd.is_empty() && !cmd.starts_with('-') => {
                args.cmd = cmd.to_string();
            }
            file if args.file.is_none() && !file.starts_with('-') => {
                args.file = Some(file.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    if args.cmd.is_empty() {
        eprintln!(
            "usage: repro <fig4|fig5|fig8|table3|ckpt|diag|all> \
             [--scale full|smoke|bench] [--seed N] [--lambda L] [--json PATH]\n\
             \x20      repro scenario FILE [--seed N] [--record PATH] [--json PATH]\n\
             \x20      repro replay TRACE [--json PATH]"
        );
        std::process::exit(2);
    }
    args
}

type Sections = Vec<(String, Vec<RunReport>)>;

fn run_fig4(scale: Scale, seed: u64) -> Sections {
    println!("== Fig. 4: contrary results under different query ranges ==");
    let mut sections = Sections::new();
    for (lambda, reports) in fig4(scale, seed, sweep::thread_count()) {
        println!("\n-- Fig. 4 (demand ratio = {lambda}) — Throughput Ratio --");
        println!("{}", print_series(&reports, "t"));
        for r in &reports {
            println!("# {}", r.summary());
        }
        sections.push((format!("lambda={lambda}"), reports));
    }
    sections
}

fn run_fig5(scale: Scale, lambda: f64, seed: u64) -> Sections {
    let fig = match lambda {
        l if (l - 1.0).abs() < 1e-9 => "Fig. 5 (λ=1)",
        l if (l - 0.5).abs() < 1e-9 => "Fig. 6 (λ=0.5)",
        l if (l - 0.25).abs() < 1e-9 => "Fig. 7 (λ=0.25)",
        _ => "Fig. 5-series (custom λ)",
    };
    println!("== {fig}: efficacy of resource discovery protocols ==");
    let reports = fig5(scale, lambda, seed);
    println!("\n-- (a) throughput ratio --");
    println!("{}", print_series(&reports, "t"));
    println!("-- (b) failed task ratio --");
    println!("{}", print_series(&reports, "f"));
    println!("-- (c) fairness index --");
    println!("{}", print_series(&reports, "fair"));
    for r in &reports {
        println!("# {}", r.summary());
    }
    vec![(format!("lambda={lambda}"), reports)]
}

fn run_fig8(scale: Scale, seed: u64) -> Sections {
    println!("== Fig. 8: HID-CAN under different node churning rates (λ=0.5) ==");
    let rows = fig8(scale, seed);
    println!("{}", print_fig8(&rows));
    println!("-- (a) throughput ratio series --");
    let reports: Vec<_> = rows.iter().map(|(_, r)| r.clone()).collect();
    println!("{}", print_series(&reports, "t"));
    println!("-- (b) failed task ratio series --");
    println!("{}", print_series(&reports, "f"));
    println!("-- (c) fairness index series --");
    println!("{}", print_series(&reports, "fair"));
    vec![("churn-degrees".to_string(), reports)]
}

fn run_ckpt(scale: Scale, seed: u64) -> Sections {
    println!("== Extension (§VI future work): checkpoint fault tolerance under churn ==");
    println!("churn	T-plain	T-ckpt	killed-plain	killed-ckpt	resubmits");
    let mut plains = Vec::new();
    let mut ckpts = Vec::new();
    for (deg, plain, ckpt) in fig8_checkpointing(scale, seed) {
        println!(
            "{:.0}%	{:.3}	{:.3}	{}	{}	{}",
            deg * 100.0,
            plain.t_ratio,
            ckpt.t_ratio,
            plain.killed,
            ckpt.killed,
            ckpt.checkpoint_resubmits
        );
        plains.push(plain);
        ckpts.push(ckpt);
    }
    println!();
    vec![
        ("plain".to_string(), plains),
        ("checkpointing".to_string(), ckpts),
    ]
}

fn run_table3(scale: Scale, seed: u64) -> Sections {
    println!("== Table III: system scalability of HID-CAN ==");
    let reports = table3(scale, seed, sweep::thread_count());
    println!("{}", print_table3(&reports));
    for r in &reports {
        println!("# {}", r.summary());
    }
    vec![("table3".to_string(), reports)]
}

fn run_diag(scale: Scale, seed: u64) -> Sections {
    println!("== diagnostic: λ=0.5 rejection split (oracle on) ==");
    let base = diag_lambda05(scale, seed);
    println!("{}", print_diag(&base));
    for r in &base {
        println!("# {}", r.summary());
        if !r.diag.is_empty() {
            println!("#   {}", r.diag);
        }
    }
    println!("\n== hostility A/B: 15% blackhole nodes, defence off vs on ==");
    let ab = diag_hostility(scale, seed, 0.15);
    println!("{}", print_hostility(&ab));
    vec![
        ("baseline".to_string(), base),
        ("hostility-clean".to_string(), vec![ab.clean]),
        ("hostility-undefended".to_string(), vec![ab.undefended]),
        ("hostility-defended".to_string(), vec![ab.defended]),
    ]
}

/// Returns the command's report sections plus the seed actually used (the
/// file's own seed unless `--seed` overrides), so `--json` metadata
/// records the truth.
fn run_scenario_cmd(args: &Args) -> (Sections, u64) {
    let Some(file) = &args.file else {
        eprintln!("repro scenario needs a file (see scenarios/)");
        std::process::exit(2);
    };
    let mut spec = ScenarioSpec::load(file).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    if let Some(seed) = args.seed {
        spec.scenario.seed = seed;
    }
    println!(
        "== scenario {} ({}, {} nodes, {:.1} h, workload {}) ==",
        spec.name,
        spec.scenario.protocol.label(),
        spec.scenario.n_nodes,
        spec.scenario.duration_ms as f64 / 3_600_000.0,
        spec.scenario.workload.tag(),
    );
    let report = if let Some(trace_path) = &args.record {
        let (report, trace) = record_run(&spec);
        trace.save(trace_path).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
        println!(
            "recorded {} workload events to {trace_path}",
            trace.events.len()
        );
        report
    } else {
        spec.scenario.run()
    };
    println!("{}", report.summary());
    println!("{}", report.series_rows());
    println!("# fingerprint: {:016x}", report.fingerprint_digest());
    let seed = spec.scenario.seed;
    (vec![(spec.name.clone(), vec![report])], seed)
}

/// Returns the replayed sections plus the trace's embedded seed.
fn run_replay(args: &Args) -> (Sections, u64) {
    let Some(file) = &args.file else {
        eprintln!("repro replay needs a trace file (see `repro scenario --record`)");
        std::process::exit(2);
    };
    let trace = Trace::load(file).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    println!(
        "== replay {} ({} events) ==",
        trace.spec.name,
        trace.events.len()
    );
    match replay_run(&trace) {
        Ok(report) => {
            println!("bit-exact replay OK: fingerprint matches the recording");
            println!("{}", report.summary());
            let seed = trace.spec.scenario.seed;
            (vec![(trace.spec.name.clone(), vec![report])], seed)
        }
        Err(e) => {
            eprintln!("REPLAY FAILED: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    // A mistyped knob value would otherwise select its default without a
    // word, and a removed knob would be read by nobody.
    if let Err(e) = soc_types::knobs::check_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let args = parse_args();
    let takes_file = matches!(args.cmd.as_str(), "scenario" | "replay");
    if !takes_file {
        // Catch e.g. `repro table3 full` (a forgotten `--scale`): silently
        // running at the default scale would hand back wrong-scale numbers.
        if let Some(file) = &args.file {
            eprintln!("unexpected argument {file:?}: `{}` takes no file", args.cmd);
            std::process::exit(2);
        }
    } else if args.scale_given {
        // Scenario files carry their own scale; a no-op --scale would hand
        // back wrong-scale numbers just as silently.
        eprintln!(
            "--scale does not apply to `repro {}` (edit the scenario file's nodes/hours)",
            args.cmd
        );
        std::process::exit(2);
    }
    if args.record.is_some() && args.cmd != "scenario" {
        eprintln!("--record only applies to `repro scenario`");
        std::process::exit(2);
    }
    if args.seed.is_some() && args.cmd == "replay" {
        eprintln!("--seed does not apply to `repro replay` (the trace pins its seed)");
        std::process::exit(2);
    }
    let seed = args.seed.unwrap_or(1);
    // --json metadata must record what actually ran: scenario/replay use
    // the file's (or trace's) seed and self-describe their scale.
    let mut json_seed = seed;
    let mut json_scale = args.scale_label;
    let sections: Sections = match args.cmd.as_str() {
        "fig4" => run_fig4(args.scale, seed),
        "fig5" | "fig6" | "fig7" => {
            let lambda = match args.cmd.as_str() {
                "fig6" => 0.5,
                "fig7" => 0.25,
                _ => args.lambda,
            };
            run_fig5(args.scale, lambda, seed)
        }
        "fig8" => run_fig8(args.scale, seed),
        "ckpt" => run_ckpt(args.scale, seed),
        "table3" => run_table3(args.scale, seed),
        "diag" => run_diag(args.scale, seed),
        "scenario" => {
            let (sections, used_seed) = run_scenario_cmd(&args);
            json_seed = used_seed;
            json_scale = "scenario-file";
            sections
        }
        "replay" => {
            let (sections, used_seed) = run_replay(&args);
            json_seed = used_seed;
            json_scale = "scenario-file";
            sections
        }
        "all" => {
            let mut s = run_fig4(args.scale, seed);
            for l in [1.0, 0.5, 0.25] {
                s.extend(run_fig5(args.scale, l, seed));
            }
            s.extend(run_fig8(args.scale, seed));
            s.extend(run_table3(args.scale, seed));
            s.extend(run_ckpt(args.scale, seed));
            s
        }
        other => {
            eprintln!("unknown command {other:?}");
            std::process::exit(2);
        }
    };
    if let Some(path) = &args.json {
        let doc = reports_json(&args.cmd, json_scale, json_seed, &sections);
        std::fs::write(path, doc).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
