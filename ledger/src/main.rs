//! `ledger`: the end-to-end and per-layer PARP serving benchmark.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass, result JSON on the last line
//! ledger [--seed <n>] [--seconds <s>]                               all six workloads, both passes
//! ledger --aa [--seed <n>] [--seconds <s>]                          the suite twice, compared against the bounds
//! ledger --list                                                     every metric: name, unit, direction, bound
//! ```
//!
//! See `README.md` next to this package for what is measured and why.

mod awake;
mod catalog;
mod direct;
mod gateway;
mod layers;
mod rng;
mod run;
mod scratch;
mod span;
mod stats;
mod suite;
mod unroll;
mod workload;
mod world;

use std::process::ExitCode;

/// Seconds one pass measures for when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    list: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
        list: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--aa" => args.aa = true,
            "--list" => args.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.list {
        suite::list();
        return Ok(());
    }
    if args.aa {
        return suite::aa(args.seed, args.seconds);
    }
    let Some(workload) = args.workload else {
        return suite::run_and_print(args.seed, args.seconds);
    };
    scratch::use_process_scratch();
    let outcome = if args.trace {
        let trace_file = scratch::out_dir().join(format!("trace-{workload}.json"));
        run::traced_pass(
            &workload,
            args.seed,
            args.seconds,
            &world::Size::FULL,
            Some(&trace_file),
        )
    } else {
        run::timed_pass(&workload, args.seed, args.seconds, &world::Size::FULL)
    };
    scratch::remove_process_scratch();
    let outcome = outcome?;
    println!(
        "{workload} seed={} seconds={} trace={}",
        args.seed, args.seconds, args.trace as u8
    );
    for (name, unit, value) in &outcome.metrics {
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!("{}", outcome.to_json());
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}
