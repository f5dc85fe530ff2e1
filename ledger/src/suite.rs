//! The whole suite: every workload, both passes, each pass in a child
//! process of its own (clean caches, clean `VmHWM`), plus `--aa` (the
//! suite twice on one binary and seed, held to the bounds) and `--list`.

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::workload::WORKLOADS;
use parp_jsonrpc::Json;
use std::collections::BTreeMap;
use std::process::Command;

/// Metrics that are counts or sim-clock figures: for one seed they must
/// repeat bit for bit, on any host.
const EXACT: &[&str] = &[
    "verified_share",
    "wire_bytes_per_call",
    "failed_share",
    "sim_latency_mean_us",
    "sim_latency_p50_us",
    "sim_latency_p99_us",
    "recover_p50_sim_us",
    "runtime.head_rebuilds",
    "runtime.tier_spills",
    "runtime.tier_rehydrates",
    "runtime.tier_hit_share",
    "runtime.cache_hit_share",
    "net.fault_drops",
    "net.fault_corruptions",
    "net.fault_delays",
    "net.fault_crashes",
    "net.fault_partitions",
    "net.fault_timeouts",
    "net.fault_steps",
    "gateway.failovers_per_1k",
    "gateway.refused_failovers_per_1k",
    "gateway.useful_exchange_share",
];

pub fn list() {
    println!("workloads:");
    for (name, why) in WORKLOADS {
        println!("  {name:<16} {why}");
    }
    println!("end-to-end metrics (name, unit, better, bound):");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<8} {:<7} {:<5} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.what
        );
    }
    println!("per-layer metrics (name, unit, better, the end-to-end metric it should move):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<8} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.moves
        );
    }
}

/// The metrics one child pass printed, by name.
struct Pass {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `output` waits for the child to end.
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {}: {}",
            trace as u8,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let json = parp_jsonrpc::parse(last).map_err(|e| format!("child result: {e}"))?;
    let number = |key: &str| {
        json.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("child result lacks {key}"))
    };
    let Some(Json::Object(members)) = json.get("metrics") else {
        return Err("child result lacks metrics".into());
    };
    let metrics = members
        .iter()
        .filter_map(|(name, metric)| Some((name.clone(), metric.get("value")?.as_f64()?)))
        .collect();
    Ok(Pass {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Both passes of every workload: `[workload] -> (timed, traced)`.
fn run_suite(seed: u64, seconds: f64) -> Result<Vec<(&'static str, Pass, Pass)>, String> {
    WORKLOADS
        .iter()
        .map(|(name, _)| {
            eprintln!("ledger: {name} ...");
            Ok((
                *name,
                child(name, seed, seconds, false)?,
                child(name, seed, seconds, true)?,
            ))
        })
        .collect()
}

/// What the traced pass must show for each workload to be what it says
/// it is. Returns how many of the failing checks do not hold: a
/// fault-free workload with an unserved exchange is broken, on any host.
/// Shares of time move with the host's phase, and `failed_share` on
/// `gateway-chaos` is above the issue's 0.05 on most seeds until the
/// refused-payment ban defect is fixed (README); those warn.
fn identity_checks(suite: &[(&'static str, Pass, Pass)]) -> u32 {
    // (workload, metric, whether the threshold is a floor, threshold,
    // whether a breach fails the run)
    let checks = [
        ("read-single", "share.crypto", true, 0.60, false),
        ("read-batch64", "share.crypto", false, 0.25, false),
        ("write-mix", "share.write_path", true, 0.60, false),
        ("history-cold", "runtime.tier_cost_share", true, 0.30, false),
        ("read-single", "net.unattributed_share", false, 0.05, false),
        ("read-batch64", "net.unattributed_share", false, 0.05, false),
        ("write-mix", "net.unattributed_share", false, 0.05, false),
        ("history-cold", "net.unattributed_share", false, 0.05, false),
        ("read-single", "failed_share", false, 0.0, true),
        ("read-batch64", "failed_share", false, 0.0, true),
        ("write-mix", "failed_share", false, 0.0, true),
        ("history-cold", "failed_share", false, 0.0, true),
        ("gateway-quorum", "failed_share", false, 0.0, true),
        ("gateway-chaos", "failed_share", false, 0.05, false),
    ];
    let mut breaches = 0;
    println!("workload identity (traced pass):");
    for (workload, metric, floor, threshold, fails) in checks {
        let value = suite
            .iter()
            .find(|(name, _, _)| *name == workload)
            .and_then(|(_, _, traced)| traced.metrics.get(metric));
        let Some(&value) = value else { continue };
        let holds = if floor {
            value >= threshold
        } else {
            value <= threshold
        };
        let verdict = match (holds, fails) {
            (true, _) => "ok  ",
            (false, false) => "WARN",
            (false, true) => {
                breaches += 1;
                "FAIL"
            }
        };
        println!(
            "  {verdict} {workload:<16} {metric:<28} {value:>8.4}  expected {} {threshold}",
            if floor { ">=" } else { "<=" },
        );
    }
    breaches
}

pub fn run_and_print(seed: u64, seconds: f64) -> Result<(), String> {
    let suite = run_suite(seed, seconds)?;
    for (name, timed, traced) in &suite {
        println!(
            "{name}  seed={seed}  attempted={} failed={}",
            timed.attempted, timed.failed
        );
        for m in &END_TO_END {
            let value = timed.metrics.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<36} {value:>16.4} {}", m.name, m.unit);
        }
        for m in &PER_LAYER {
            let value = traced.metrics.get(m.name).copied().unwrap_or(0.0);
            println!("    {:<34} {value:>16.4} {}", m.name, m.unit);
        }
    }
    match identity_checks(&suite) {
        0 => Ok(()),
        breaches => Err(format!("{breaches} workload identity check(s) failed")),
    }
}

/// Prints one workload's end-to-end comparison and returns how many
/// metrics are outside their bound (exact ones: differ at all).
fn compare_timed(name: &str, a: &Pass, b: &Pass) -> u32 {
    let mut breaches = 0;
    for m in &END_TO_END {
        let (a, b) = (a.metrics[m.name], b.metrics[m.name]);
        let exact = EXACT.contains(&m.name);
        // Positive = the second run is worse. A bound is the share by
        // which a metric may get worse, so, as in the driver's own
        // check of two sets of runs, only that direction breaches it.
        let worse = match m.better {
            Better::Lower => (b - a) / a,
            Better::Higher => (a - b) / a,
        };
        let breach = if exact {
            a.to_bits() != b.to_bits()
        } else {
            worse > m.bound
        };
        breaches += breach as u32;
        println!(
            "{name:<16} {:<26} {a:>14.4} {b:>14.4} {:>8.2}% {:>6} {}",
            m.name,
            100.0 * worse,
            if exact {
                "exact".to_string()
            } else {
                m.bound.to_string()
            },
            if breach { "BREACH" } else { "" }
        );
    }
    breaches
}

pub fn aa(seed: u64, seconds: f64) -> Result<(), String> {
    let first = run_suite(seed, seconds)?;
    let second = run_suite(seed, seconds)?;
    let mut breaches = 0;
    println!(
        "{:<16} {:<26} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "run 1", "run 2", "rel diff", "bound"
    );
    for ((name, timed_a, traced_a), (_, timed_b, traced_b)) in first.iter().zip(&second) {
        breaches += compare_timed(name, timed_a, timed_b);
        for metric in EXACT {
            let (Some(a), Some(b)) = (traced_a.metrics.get(*metric), traced_b.metrics.get(*metric))
            else {
                continue;
            };
            if a.to_bits() != b.to_bits() {
                breaches += 1;
                println!(
                    "{name:<16} {metric:<26} {a:>14.4} {b:>14.4} {:>9} {:>6} BREACH",
                    "", "exact"
                );
            }
        }
    }
    breaches += identity_checks(&second);
    if breaches > 0 {
        return Err(format!(
            "--aa: {breaches} metric(s) outside their bound or identity check(s) failed"
        ));
    }
    println!("--aa: both runs agree within every bound; exact metrics match bit for bit");
    Ok(())
}
