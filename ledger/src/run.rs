//! One workload, one pass: the timed pass (end-to-end metrics, tracing
//! off) or the traced pass (per-layer metrics). Set-up, one untimed
//! warm-up round, then a number of rounds of a fixed operation list
//! that depends on `--seconds` alone ([`planned_rounds`]), so two
//! commits are measured on the same number of samples.
//!
//! Every round replays the same operations, so operation `j` of one
//! round is the same work as operation `j` of the next. The timed pass
//! uses that: each operation's time is its fastest across the rounds,
//! and the end-to-end figures are read off those per-operation times.
//! Host noise only ever adds time, so the fastest observation is the
//! one closest to the program's cost; the program's own slow operations
//! (a write, a quorum, a rehydrating batch) are slow in every round and
//! stay. A tail percentile is only measurable this way: between
//! identical runs the median across rounds of the per-round p99 moved
//! 65–160 %, the p99 of the per-operation fastest 8–15 % (README,
//! "Noise").

use crate::awake::KeepAwake;
use crate::catalog::{END_TO_END, PER_LAYER};
use crate::direct::{Direct, Kind};
use crate::gateway::{Chaos, Quorum};
use crate::span::{summarize, write_chrome_trace, Recorder, Span, Summary};
use crate::stats::{median, percentile, share};
use crate::workload::{Round, Workload};
use crate::world::Size;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

/// World builds per timed run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Timed rounds every run completes, however short `--seconds` is; the
/// peak RSS and the byte counts are read after exactly this many.
const MIN_ROUNDS: usize = 3;
/// Seconds one round takes on the reference box, wall clock, with the
/// untimed preparation between rounds (signing a round's transfers,
/// rebuilding the chaos episodes).
const ROUND_SECONDS: [(&str, f64); 6] = [
    ("read-single", 1.0),
    ("read-batch64", 1.7),
    ("write-mix", 1.0),
    ("history-cold", 1.2),
    ("gateway-quorum", 1.0),
    ("gateway-chaos", 1.7),
];
/// A run that has its [`MIN_ROUNDS`] stops once it has measured for
/// this many times `--seconds`, so a host or a commit several times
/// slower than the reference still ends in time.
const OVERRUN: f64 = 1.5;

/// Timed rounds of one run: `--seconds` of rounds at the reference
/// box's speed. Fixed by the arguments, not by how fast the host or the
/// commit is — the per-operation fastest gets lower with every round
/// added, so both sides of a comparison must see the same number.
fn planned_rounds(name: &str, seconds: f64) -> usize {
    let round_s = ROUND_SECONDS
        .iter()
        .find(|(workload, _)| *workload == name)
        .map_or(1.0, |(_, round_s)| *round_s);
    ((seconds / round_s).round() as usize).max(MIN_ROUNDS)
}

/// Spans of each recorder written to the trace file.
const TRACE_FILE_SPANS: usize = 20_000;

/// What a pass reports: the last line of the driver contract.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, unit, value)` in catalogue order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The contract's result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|(_, _, value)| *value)
    }
}

fn build(name: &str, seed: u64, size: &Size) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "read-single" => Box::new(Direct::build(Kind::ReadSingle, seed, size)?),
        "read-batch64" => Box::new(Direct::build(Kind::ReadBatch64, seed, size)?),
        "write-mix" => Box::new(Direct::build(Kind::WriteMix, seed, size)?),
        "history-cold" => Box::new(Direct::build(Kind::HistoryCold, seed, size)?),
        "gateway-quorum" => Box::new(Quorum::build(seed, size)?),
        "gateway-chaos" => Box::new(Chaos::build(seed, size)?),
        other => return Err(format!("unknown workload {other:?} (see --list)")),
    })
}

/// One round with its untimed preparation; set-up time the preparation
/// spent building worlds is one more `setup_s` sample.
fn run_round(
    workload: &mut dyn Workload,
    setups: &mut Vec<f64>,
    rec: Option<&mut Recorder>,
) -> Result<Round, String> {
    if let Some(setup_s) = workload.before_round()? {
        setups.push(setup_s);
    }
    workload.round(rec)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `gateway-chaos` replays the same sweep every round: every count and
/// every sim-clock latency must come out identical (same-seed replay
/// identity at the sweep's full length).
fn check_replay_identity(rounds: &[&Round]) -> Result<(), String> {
    let Some(first) = rounds.first() else {
        return Ok(());
    };
    for (index, round) in rounds.iter().enumerate().skip(1) {
        if round.counts != first.counts
            || round.sim_us != first.sim_us
            || round.recoveries_sim_us != first.recoveries_sim_us
            || round.unserved_at != first.unserved_at
            || (round.attempted, round.failed, round.verified_calls)
                != (first.attempted, first.failed, first.verified_calls)
        {
            return Err(format!(
                "replay identity broken: round {index} disagrees with round 0 \
                 ({:?} vs {:?})",
                round.counts, first.counts
            ));
        }
    }
    Ok(())
}

fn per_round(rounds: &[&Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(|round| f(round)).collect::<Vec<_>>())
}

fn total(rounds: &[&Round], name: &str) -> f64 {
    rounds
        .iter()
        .map(|round| round.counts.get(name).copied().unwrap_or(0) as f64)
        .sum()
}

/// The times of the operations that were served: a percentile of the
/// exchange is taken over these, so an instant error cannot pass for a
/// fast exchange (an unserved one costs the rate its time and counts
/// against `verified_share`). Every round replays one operation list;
/// the first round says which operations went unserved.
fn served_us(per_operation_us: &[f64], rounds: &[&Round]) -> Vec<f64> {
    let unserved: BTreeSet<usize> = rounds
        .first()
        .map(|round| round.unserved_at.iter().copied().collect())
        .unwrap_or_default();
    per_operation_us
        .iter()
        .enumerate()
        .filter(|(position, _)| !unserved.contains(position))
        .map(|(_, us)| *us)
        .collect()
}

/// Per-operation exchange time: for each position of the operation
/// list, its fastest time across `rounds`.
fn fastest_exchange_us(rounds: &[&Round]) -> Vec<f64> {
    let ops = rounds
        .iter()
        .map(|r| r.exchange_us.len())
        .min()
        .unwrap_or(0);
    (0..ops)
        .map(|j| {
            rounds
                .iter()
                .map(|r| r.exchange_us[j])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The timed pass: tracing off, the program's own drivers.
pub fn timed_pass(name: &str, seed: u64, seconds: f64, size: &Size) -> Result<Outcome, String> {
    let _awake = KeepAwake::start();
    let mut setups = Vec::new();
    let mut slot: Option<Box<dyn Workload>> = None;
    for _ in 0..SETUP_REPEATS {
        // One world resident at a time, so the peak RSS is one world's.
        drop(slot.take());
        let started = Instant::now();
        slot = Some(build(name, seed, size)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = slot.ok_or("no world built")?;
    run_round(workload.as_mut(), &mut setups, None)?; // warm-up

    let planned = planned_rounds(name, seconds);
    let mut rounds = Vec::new();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    while rounds.len() < planned {
        rounds.push(run_round(workload.as_mut(), &mut setups, None)?);
        if rounds.len() == MIN_ROUNDS {
            peak_rss = peak_rss_mib();
        }
        if rounds.len() >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= OVERRUN * seconds {
            break;
        }
    }
    eprintln!(
        "ledger: {name}: {} of {planned} planned rounds in {:.1} s",
        rounds.len(),
        started.elapsed().as_secs_f64()
    );
    let rounds: Vec<&Round> = rounds.iter().collect();
    if name == "gateway-chaos" {
        check_replay_identity(&rounds)?;
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let unserved: u64 = rounds.iter().map(|r| r.unserved()).sum();
    let fastest_us = fastest_exchange_us(&rounds);
    let served_us = served_us(&fastest_us, &rounds);
    let value = |metric: &str| match metric {
        // Verified calls of one pass over the operation list, per
        // second of exchange time, unserved exchanges' time included.
        "calls_per_s" => {
            per_round(&rounds, |r| r.verified_calls as f64) / (fastest_us.iter().sum::<f64>() / 1e6)
        }
        "exchange_p50_us" => percentile(&served_us, 0.50),
        "exchange_p99_us" => percentile(&served_us, 0.99),
        "verified_share" => 1.0 - share(unserved as f64, attempted as f64),
        // A count: taken over the rounds every run completes, so it
        // repeats exactly for a seed however many more the host fits in.
        "wire_bytes_per_call" => per_round(&rounds[..MIN_ROUNDS], |r| {
            share(r.wire_bytes, r.verified_calls as f64)
        }),
        "peak_rss_mib" => peak_rss,
        "setup_s" => median(&setups),
        other => unreachable!("end-to-end metric {other} has no measurement"),
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, value(m.name)))
            .collect(),
    })
}

/// For every root span: `(its duration, Σ durations of its direct
/// children)` in µs.
fn roots_and_children_us(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut children = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent] += span.dur_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .filter(|(span, _)| span.parent.is_none())
        .map(|(span, children)| (span.dur_ns() as f64 / 1e3, children as f64 / 1e3))
        .collect()
}

/// Splits `(root, children)` pairs recorded round after round into
/// rounds of `ops` and keeps, for each position, the fastest of each.
fn fastest_by_position(layered: &[(f64, f64)], ops: usize) -> (Vec<f64>, Vec<f64>) {
    let mut roots = vec![f64::INFINITY; ops];
    let mut children = vec![f64::INFINITY; ops];
    for round in layered.chunks(ops.max(1)) {
        for (position, (root, child)) in round.iter().enumerate() {
            roots[position] = roots[position].min(*root);
            children[position] = children[position].min(*child);
        }
    }
    (roots, children)
}

fn p50_of(summary: &Summary, name: &str) -> Option<f64> {
    summary
        .durations_us
        .get(name)
        .map(|durations| percentile(durations, 0.50))
}

/// The traced pass: untraced and traced rounds interleaved, then the
/// workload's own layer measurements.
pub fn traced_pass(
    name: &str,
    seed: u64,
    seconds: f64,
    size: &Size,
    trace_file: Option<&Path>,
) -> Result<Outcome, String> {
    let _awake = KeepAwake::start();
    let mut workload = build(name, seed, size)?;
    let mut setups = Vec::new();
    run_round(workload.as_mut(), &mut setups, None)?; // warm-up

    // A quarter of the timed pass's rounds, each once untraced and
    // once traced: a traced round and the layer measurements after the
    // rounds take the rest of the time.
    let pairs = (planned_rounds(name, seconds) + 2) / 4;
    let mut rec = Recorder::new();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        untraced.push(run_round(workload.as_mut(), &mut setups, None)?);
        traced.push(run_round(workload.as_mut(), &mut setups, Some(&mut rec))?);
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut probe = Recorder::new();
    workload.layer_metrics(&mut out, &mut probe)?;

    let untraced: Vec<&Round> = untraced.iter().collect();
    let all: Vec<&Round> = untraced.iter().copied().chain(traced.iter()).collect();
    if name == "gateway-chaos" {
        check_replay_identity(&all)?;
    }
    // Counts and sim-clock figures come from the first round after the
    // warm-up: the program running undisturbed, at a position every run
    // reaches, so they repeat exactly for a seed.
    let exact = &untraced[..1];
    let summary = summarize(&rec.spans);
    let probe_summary = summarize(&probe.spans);
    let span_p50 = |span: &str| {
        p50_of(&summary, span)
            .or_else(|| p50_of(&probe_summary, span))
            .unwrap_or(0.0)
    };
    for (metric, span) in [
        ("runtime.serve_single_us", "runtime.serve"),
        ("runtime.serve_batch_us", "runtime.serve_batch"),
        ("core.client_request_us", "core.client.request"),
        ("core.client_process_us", "core.client.process"),
        ("core.client_request_batch_us", "core.client.request_batch"),
        ("core.client_process_batch_us", "core.client.process_batch"),
        (
            "core.server_verify_request_us",
            "core.server.verify_request",
        ),
        ("core.classify_us", "core.classify"),
        ("contracts.request_encode_us", "contracts.encode_request"),
        ("contracts.response_encode_us", "contracts.encode_response"),
        ("net.sync_client_us", "net.sync_client"),
    ] {
        out.insert(metric, span_p50(span));
    }

    // Wall figures of the untraced rounds of this same run, per
    // operation and fastest-of-rounds like the timed pass.
    let untraced_us = fastest_exchange_us(&untraced);
    let untraced_p50 = percentile(&served_us(&untraced_us, &untraced), 0.50);
    out.insert("untraced_exchange_p50_us", untraced_p50);
    out.insert(
        "write_p50_us",
        per_round(&untraced, |r| percentile(&r.write_us, 0.50)),
    );
    let single_p50 = per_round(&untraced, |r| percentile(&r.gateway_single_us, 0.50));
    let quorum_p50 = per_round(&untraced, |r| percentile(&r.gateway_quorum_us, 0.50));
    out.insert("gateway.quorum3_p50_us", quorum_p50);
    out.insert(
        "gateway.quorum_vs_single_ratio",
        share(quorum_p50, single_p50),
    );
    out.insert(
        "sim_latency_p50_us",
        per_round(exact, |r| percentile(&r.sim_us, 0.50)),
    );
    out.insert(
        "sim_latency_p99_us",
        per_round(exact, |r| percentile(&r.sim_us, 0.99)),
    );
    out.insert(
        "sim_latency_mean_us",
        per_round(exact, |r| {
            share(r.sim_us.iter().sum::<f64>(), r.sim_us.len() as f64)
        }),
    );
    out.insert(
        "recover_p50_sim_us",
        per_round(exact, |r| percentile(&r.recoveries_sim_us, 0.50)),
    );

    // The layer spans against the untraced exchange, where the round's
    // own exchanges were unrolled (behind the gateway they cannot be).
    // Operation by operation again: the root span and the sum of its
    // children, each the fastest across the traced rounds.
    let (root_us, children_us) =
        fastest_by_position(&roots_and_children_us(&rec.spans), untraced_us.len());
    out.insert("traced_exchange_p50_us", percentile(&root_us, 0.50));
    if summary.durations_us.contains_key("net.exchange") {
        out.insert(
            "bench.trace_overhead_share",
            1.0 - share(children_us.iter().sum(), root_us.iter().sum()),
        );
        let overhead = untraced_p50 - percentile(&children_us, 0.50);
        out.insert("net.driver_overhead_us", overhead);
        out.insert(
            "net.unattributed_share",
            share(overhead.abs(), untraced_p50),
        );
    }
    if let (Some(call), Some(direct)) = (
        p50_of(&summary, "gateway.call"),
        p50_of(&summary, "net.parp_call"),
    ) {
        out.insert("gateway.call_overhead_us", call - direct);
    }

    // Where an exchange's time goes: self time per layer over the
    // round's own spans.
    for (layer, self_ns) in &summary.self_ns_by_layer {
        if let Some(metric) = PER_LAYER
            .iter()
            .find(|m| m.name.strip_prefix("share.") == Some(layer))
        {
            out.insert(metric.name, share(*self_ns as f64, summary.root_ns as f64));
        }
    }
    let writes: BTreeSet<u32> = rec
        .spans
        .iter()
        .filter(|s| s.name == "chain.produce_block")
        .map(|s| s.exchange_id)
        .collect();
    let write_ns = |pick: &dyn Fn(&Span) -> bool| -> f64 {
        rec.spans
            .iter()
            .filter(|s| writes.contains(&s.exchange_id) && pick(s))
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    out.insert(
        "share.write_path",
        share(
            write_ns(&|s| s.name == "chain.produce_block"),
            write_ns(&|s| s.parent.is_none()),
        ),
    );

    // Counts.
    let hits = total(exact, "cache_hits");
    out.insert(
        "runtime.cache_hit_share",
        share(hits, hits + total(exact, "cache_misses")),
    );
    let tier_hits = total(exact, "tier_hits");
    out.insert(
        "runtime.tier_hit_share",
        share(
            tier_hits,
            tier_hits + total(exact, "tier_misses") + total(exact, "tier_rehydrates"),
        ),
    );
    let count =
        |name: &'static str| per_round(exact, |r| r.counts.get(name).copied().unwrap_or(0) as f64);
    for (metric, counter) in [
        ("runtime.head_rebuilds", "cache_misses"),
        ("runtime.tier_spills", "tier_spills"),
        ("runtime.tier_rehydrates", "tier_rehydrates"),
        ("net.fault_drops", "fault_drops"),
        ("net.fault_corruptions", "fault_corruptions"),
        ("net.fault_delays", "fault_delays"),
        ("net.fault_crashes", "fault_crashes"),
        ("net.fault_partitions", "fault_partitions"),
        ("net.fault_timeouts", "fault_timeouts"),
        ("net.fault_steps", "fault_steps"),
        ("gateway.breaker_opens", "breaker_opens"),
    ] {
        out.insert(metric, count(counter));
    }
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.failed).sum();
    out.insert(
        "failed_share",
        share(exact[0].unserved() as f64, exact[0].attempted as f64),
    );
    let gateway_calls = total(exact, "gateway_calls");
    out.insert(
        "gateway.retries_per_call",
        share(total(exact, "retries"), gateway_calls),
    );
    out.insert(
        "gateway.hedges_per_quorum",
        share(total(exact, "hedges"), total(exact, "quorums")),
    );
    out.insert(
        "gateway.failovers_per_1k",
        1e3 * share(total(exact, "failovers"), gateway_calls),
    );
    out.insert(
        "gateway.refused_failovers_per_1k",
        1e3 * share(total(exact, "refused_failovers"), gateway_calls),
    );
    out.insert(
        "gateway.degraded_share",
        share(total(exact, "degraded"), gateway_calls),
    );
    out.insert(
        "gateway.useful_exchange_share",
        share(
            total(exact, "gateway_served"),
            total(exact, "exchanges_sent"),
        ),
    );
    // Bytes as the rounds saw them, where the driver reports them.
    let round = exact[0];
    if round.request_bytes > 0 {
        let exchanges = round.sim_us.len() as f64;
        out.insert(
            "contracts.request_bytes",
            round.request_bytes as f64 / exchanges,
        );
        out.insert(
            "contracts.response_bytes",
            round.response_bytes as f64 / exchanges,
        );
        out.insert(
            "trie.proof_bytes_per_call",
            round.proof_bytes as f64 / round.verified_calls as f64,
        );
    }
    out.insert(
        "traced_exchanges",
        rec.spans.iter().filter(|s| s.parent.is_none()).count() as f64,
    );
    out.insert("traced_rounds", traced.len() as f64);
    out.insert(
        "nproc",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );

    if let Some(path) = trace_file {
        let mut spans: Vec<Span> = rec.spans.iter().take(TRACE_FILE_SPANS).cloned().collect();
        // Keep parent indices valid: cut at a root boundary, then
        // append the probe's spans re-based behind them.
        while spans.last().is_some_and(|s| s.parent.is_some()) && spans.len() < rec.spans.len() {
            spans.push(rec.spans[spans.len()].clone());
        }
        let base = spans.len();
        spans.extend(probe.spans.iter().take(TRACE_FILE_SPANS).map(|span| Span {
            parent: span.parent.map(|p| p + base),
            ..span.clone()
        }));
        write_chrome_trace(path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, out.get(m.name).copied().unwrap_or(0.0)))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// Every workload at 1/50 size with the oracle on, both passes: an
    /// API change in any layer breaks here, in the tests, not in the
    /// next benchmark run.
    #[test]
    fn smoke_all_six_workloads_both_passes() {
        crate::scratch::use_process_scratch();
        for (name, _) in WORKLOADS {
            let timed = timed_pass(name, 1, 0.0, &Size::SMOKE)
                .unwrap_or_else(|e| panic!("{name} timed pass: {e}"));
            assert!(timed.attempted > 0, "{name} attempted nothing");
            // Unserved exchanges count as failed on a fault-free world
            // and as a classified outcome under a fault schedule.
            assert_eq!(timed.failed, 0, "{name}: an exchange failed");
            if name != "gateway-chaos" {
                assert_eq!(timed.get("verified_share"), Some(1.0), "{name}");
            }
            for (metric, _, value) in &timed.metrics {
                assert!(
                    value.is_finite() && *value > 0.0,
                    "{name}: end-to-end metric {metric} = {value} must never be 0"
                );
            }
            let traced = traced_pass(name, 1, 0.0, &Size::SMOKE, None)
                .unwrap_or_else(|e| panic!("{name} traced pass: {e}"));
            assert_eq!(traced.metrics.len(), PER_LAYER.len());
            assert!(traced.metrics.iter().all(|(_, _, v)| v.is_finite()));
            assert!(traced.get("crypto.sign_us").unwrap() > 0.0);
            assert!(traced.get("traced_exchanges").unwrap() > 0.0);
            let json = timed.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }

    #[test]
    fn different_seeds_change_the_inputs() {
        crate::scratch::use_process_scratch();
        let a = timed_pass("read-single", 1, 0.0, &Size::SMOKE).unwrap();
        let b = timed_pass("read-single", 2, 0.0, &Size::SMOKE).unwrap();
        // Different targets have different proof lengths.
        assert_ne!(a.get("wire_bytes_per_call"), b.get("wire_bytes_per_call"));
        let again = timed_pass("read-single", 1, 0.0, &Size::SMOKE).unwrap();
        assert_eq!(
            a.get("wire_bytes_per_call"),
            again.get("wire_bytes_per_call")
        );
    }

    #[test]
    fn replay_identity_catches_a_diverging_round() {
        let mut a = Round::default();
        a.counts.insert("retries", 3);
        let mut b = Round::default();
        b.counts.insert("retries", 3);
        assert!(check_replay_identity(&[&a, &b]).is_ok());
        b.counts.insert("retries", 4);
        assert!(check_replay_identity(&[&a, &b]).is_err());
    }
}
