//! Chaos-plane resilience bench.
//!
//! Runs the seeded fault-injection scenario ([`run_chaos`]) end to end
//! and emits `BENCH_chaos.json` (a CI artifact alongside
//! `BENCH_gateway.json`): outcome accounting (served / degraded /
//! errored), p50/p99 time-to-recover after transient failures, hedge
//! fire rate, circuit-breaker transitions, and the fault-plane's own
//! counters. The artifact hard-asserts the invariants that make the
//! numbers meaningful — zero accepted wrong payloads, zero unclassified
//! outcomes (no hangs), and no refused failover (every provider here is
//! honest, so a refusal means one was banned for a transport fault) —
//! plus byte-identical same-seed replay, so a regression fails the
//! bench job rather than skewing a trend line.

use criterion::{criterion_group, criterion_main, Criterion};
use parp_gateway::{run_chaos, ChaosConfig, ChaosReport};
use std::hint::black_box;

/// Sorted-quantile helper over the recovery samples (µs).
fn quantile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Asserts the invariants that every chaos run must uphold, whatever
/// the schedule drew.
fn assert_invariants(report: &ChaosReport) {
    assert_eq!(report.wrong_payloads, 0, "accepted a wrong payload");
    assert_eq!(report.unclassified, 0, "unclassified call outcome");
    assert_eq!(
        report.served + report.degraded + report.errored,
        report.issued,
        "issued calls must be fully accounted for (no hangs)"
    );
    assert!(report.payments_monotone, "payment trajectory regressed");
    let refused = report
        .failovers_by_cause
        .iter()
        .find(|(cause, _)| *cause == "refused")
        .map(|(_, n)| *n);
    assert_eq!(refused, Some(0), "an honest provider is never banned");
}

/// Emits `BENCH_chaos.json` from the default chaos schedule (crash +
/// partition + drop/corruption/delay rates + corruption bursts).
fn emit_chaos_artifact() {
    let config = ChaosConfig::default();
    let report = run_chaos(&config);
    assert_invariants(&report);

    // Same-seed replay must be byte-identical before the numbers are
    // worth publishing.
    let replay = run_chaos(&config);
    assert_eq!(report.metrics.to_json(), replay.metrics.to_json());
    assert_eq!(report.payment_digest, replay.payment_digest);
    assert_eq!(report.clock_us, replay.clock_us);
    assert_eq!(report.steps, replay.steps);

    let mut recoveries = report.recoveries_us.clone();
    recoveries.sort_unstable();
    let recover_p50 = quantile_us(&recoveries, 0.50);
    let recover_p99 = quantile_us(&recoveries, 0.99);
    // Bounded p99 time-to-recover: a failover must finish in bounded
    // simulated time (deadline burns + backoff + reconnect), never hang.
    assert!(
        recover_p99 < 2_500_000,
        "p99 time-to-recover unbounded: {recover_p99} µs"
    );

    let quorum_turns = report.issued.div_ceil(config.quorum_every.max(1));
    let hedge_rate = report.hedges_fired as f64 / quorum_turns.max(1) as f64;
    let by_cause = report
        .failovers_by_cause
        .iter()
        .map(|(cause, n)| format!("\"{cause}\":{n}"))
        .collect::<Vec<_>>()
        .join(",");
    let json = format!(
        "{{\"bench\":\"chaos_resilience\",\"seed\":{seed},\"issued\":{issued},\
         \"served\":{served},\"degraded\":{degraded},\"errored\":{errored},\
         \"wrong_payloads\":{wrong},\"unclassified\":{unclassified},\
         \"recover_p50_us\":{recover_p50},\"recover_p99_us\":{recover_p99},\
         \"recoveries\":{recoveries},\"retries\":{retries},\
         \"hedges_fired\":{hedges},\"hedge_fire_rate\":{hedge_rate:.3},\
         \"breaker_opens\":{opens},\"breaker_half_opens\":{half_opens},\
         \"failovers_by_cause\":{{{by_cause}}},\
         \"fault_drops\":{drops},\"fault_corruptions\":{corruptions},\
         \"fault_delays\":{delays},\"fault_crashes\":{crashes},\
         \"fault_partitions\":{partitions},\"fault_timeouts\":{timeouts},\
         \"steps\":{steps},\"clock_us\":{clock_us}}}\n",
        seed = config.seed,
        issued = report.issued,
        served = report.served,
        degraded = report.degraded,
        errored = report.errored,
        wrong = report.wrong_payloads,
        unclassified = report.unclassified,
        recoveries = recoveries.len(),
        retries = report.retries,
        hedges = report.hedges_fired,
        opens = report.breaker_opens,
        half_opens = report.breaker_half_opens,
        drops = report.fault_drops,
        corruptions = report.fault_corruptions,
        delays = report.fault_delays,
        crashes = report.fault_crashes,
        partitions = report.fault_partitions,
        timeouts = report.fault_timeouts,
        steps = report.steps,
        clock_us = report.clock_us,
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // artifact at the workspace root where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_chaos.json");
    std::fs::write(path, &json).expect("write BENCH_chaos.json");
    println!("wrote BENCH_chaos.json: {json}");
    println!(
        "chaos outcomes: {}/{} served, {} degraded, {} errored; \
         time-to-recover p50 {recover_p50} µs p99 {recover_p99} µs over {} failovers",
        report.served,
        report.issued,
        report.degraded,
        report.errored,
        recoveries.len()
    );
    println!(
        "resilience machinery: {} retries, {} hedged legs ({hedge_rate:.2} per quorum turn), \
         breaker {}× open / {}× half-open",
        report.retries, report.hedges_fired, report.breaker_opens, report.breaker_half_opens
    );
}

fn bench_chaos(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos_resilience");
    group.sample_size(10);
    // Full chaos run (5 providers, 48 calls, all fault classes armed).
    group.bench_function("run_chaos_default", |b| {
        b.iter(|| black_box(run_chaos(&ChaosConfig::default())))
    });
    // Quiet schedule = the fault plane's bookkeeping overhead alone.
    let quiet = ChaosConfig {
        drop_ppm: 0,
        corrupt_ppm: 0,
        delay_ppm: 0,
        crash: false,
        partition: false,
        corruption_bursts: false,
        ..ChaosConfig::default()
    };
    group.bench_function("run_chaos_quiet", |b| {
        b.iter(|| black_box(run_chaos(&quiet)))
    });
    group.finish();
}

fn run_all(c: &mut Criterion) {
    emit_chaos_artifact();
    bench_chaos(c);
}

criterion_group!(benches, run_all);
criterion_main!(benches);
