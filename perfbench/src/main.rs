//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints a human-readable report, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! `perfbench --describe` lists the workloads and metrics.

use std::process::ExitCode;

use perfbench::catalogue::{workloads, DEFAULT_SEED, END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad(&"must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn describe() {
    println!("workloads (default seed {DEFAULT_SEED}):");
    for w in workloads() {
        println!("  {:<24} {}", w.name, w.why);
    }
    for (title, defs) in [
        ("end-to-end (--trace 0)", &END_TO_END[..]),
        ("per-layer (--trace 1)", &PER_LAYER[..]),
    ] {
        println!("\n{title}:");
        for m in defs {
            let bound = m.bound.map_or(String::new(), |b| format!(" bound {b}"));
            println!(
                "  {:<26} {:<13} {:<6} {:<10} moves: {:<45} {}{bound}",
                m.name,
                m.unit,
                m.better.name(),
                m.layer,
                m.moves,
                m.what
            );
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--describe") {
        describe();
        return ExitCode::SUCCESS;
    }
    let args = match parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = all.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {}", names.join(", "));
        return ExitCode::from(2);
    };
    let outcome = perfbench::run(w, args.seed, args.seconds, args.trace);
    for line in &outcome.lines {
        println!("{line}");
    }
    let defs = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    for m in defs {
        println!(
            "{:<26} = {} {}",
            m.name,
            outcome.metrics.get(m.name),
            m.unit
        );
    }
    for (name, ok) in &outcome.checks {
        println!("check {:<4} {name}", if *ok { "ok" } else { "FAIL" });
    }
    println!("{}", outcome.json(defs));
    ExitCode::SUCCESS
}
