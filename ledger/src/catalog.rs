//! Every metric the benchmark prints: name, unit, direction, and — for
//! the end-to-end ones — the share of the parent's median by which it
//! may get worse before a change counts as a regression. `--list`
//! prints this table; `BENCHMARK.json` restates it (a test holds the
//! two together).

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

/// What a user of the system sees. Every one is defined, and never 0,
/// on every workload.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "calls_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "verified RPC calls per second of exchange time (unserved exchanges' time included), a 64-batch counting 64",
    },
    EndToEnd {
        name: "exchange_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "wall time from handing the call(s) to the driver to a classified, verified result: median over the served operations",
    },
    EndToEnd {
        name: "exchange_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        what: "the same, 99th percentile (nearest rank): the program's own slow operations - a write on write-mix, a quorum read behind the gateway",
    },
    EndToEnd {
        name: "verified_share",
        unit: "share",
        better: Better::Higher,
        bound: 0.15,
        what: "exchanges that ended in a verified, ground-truth-equal payload / attempted (1 - failed_share): refused, timed-out and errored exchanges all count against it",
    },
    EndToEnd {
        name: "wire_bytes_per_call",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
        what: "request + response bytes per verified call (Table II / Fig. 6); behind the gateway, which reports no bytes: exchanges sent x the bytes of one GetBalance exchange probed on the same world",
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        what: "the process's VmHWM after set-up, warm-up and the first three timed rounds",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "world build, median of the builds in a run (at least three)",
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Metrics of single layers (layer = crate or module), from the traced
/// pass. 0 on a workload that does not exercise the layer.
pub const PER_LAYER: [Layer; 80] = [
    layer(
        "crypto.sign_us",
        "us",
        Lower,
        "exchange_p50_us, calls_per_s on read-single, gateway-quorum",
    ),
    layer(
        "crypto.recover_us",
        "us",
        Lower,
        "exchange_p50_us, calls_per_s on read-single, gateway-quorum",
    ),
    layer(
        "crypto.keccak_ns_per_byte",
        "ns/B",
        Lower,
        "calls_per_s on read-batch64 (proof hashing), write-mix (freeze)",
    ),
    layer(
        "rlp.decode_ns_per_byte",
        "ns/B",
        Lower,
        "calls_per_s on read-batch64, history-cold (segment decode)",
    ),
    layer(
        "trie.prove1_us",
        "us",
        Lower,
        "exchange_p50_us on read-single (small)",
    ),
    layer(
        "trie.verify1_us",
        "us",
        Lower,
        "exchange_p50_us on read-single (small)",
    ),
    layer(
        "trie.multiproof64_us",
        "us",
        Lower,
        "calls_per_s on read-batch64",
    ),
    layer(
        "trie.verify_many64_us",
        "us",
        Lower,
        "calls_per_s on read-batch64",
    ),
    layer(
        "trie.proof_nodes_per_batch",
        "count",
        Lower,
        "calls_per_s, wire_bytes_per_call on read-batch64",
    ),
    layer(
        "trie.proof_bytes_per_call",
        "B",
        Lower,
        "wire_bytes_per_call, sim_latency_mean_us on every workload",
    ),
    layer(
        "contracts.request_bytes",
        "B",
        Lower,
        "wire_bytes_per_call on every workload",
    ),
    layer(
        "contracts.response_bytes",
        "B",
        Lower,
        "wire_bytes_per_call on every workload",
    ),
    layer(
        "trie.freeze_us",
        "us",
        Lower,
        "write_p50_us, calls_per_s on write-mix",
    ),
    layer(
        "chain.produce_block_us",
        "us",
        Lower,
        "write_p50_us, calls_per_s on write-mix",
    ),
    layer(
        "runtime.head_rebuilds",
        "count",
        Lower,
        "write_p50_us on write-mix (per round; 0 on the read workloads)",
    ),
    layer(
        "trie.from_bytes_us",
        "us",
        Lower,
        "exchange_p50_us on history-cold",
    ),
    layer(
        "store.segment_read_us",
        "us",
        Lower,
        "exchange_p50_us on history-cold",
    ),
    layer(
        "store.spill_get_us",
        "us",
        Lower,
        "exchange_p50_us on history-cold",
    ),
    layer(
        "store.spill_put_us",
        "us",
        Lower,
        "exchange_p50_us on history-cold",
    ),
    layer(
        "store.disk_bytes",
        "B",
        Lower,
        "none (size of segments + spill file) on history-cold",
    ),
    layer(
        "runtime.tier_hit_share",
        "share",
        Higher,
        "exchange_p50_us on history-cold",
    ),
    layer(
        "runtime.tier_spills",
        "count",
        Lower,
        "exchange_p50_us on history-cold (per round)",
    ),
    layer(
        "runtime.tier_rehydrates",
        "count",
        Lower,
        "exchange_p50_us on history-cold (per round)",
    ),
    layer(
        "runtime.tier_resident_bytes",
        "B",
        Lower,
        "peak_rss_mib on history-cold",
    ),
    layer(
        "runtime.tier_cost_share",
        "share",
        Lower,
        "exchange_p50_us on history-cold (1 - all-resident twin / budgeted world)",
    ),
    layer(
        "runtime.serve_single_us",
        "us",
        Lower,
        "calls_per_s on read-single",
    ),
    layer(
        "runtime.serve_batch_us",
        "us",
        Lower,
        "calls_per_s on read-batch64, history-cold",
    ),
    layer(
        "runtime.cache_hit_share",
        "share",
        Higher,
        "exchange_p50_us: ~1 on reads, lower on write-mix",
    ),
    layer(
        "core.client_request_us",
        "us",
        Lower,
        "exchange_p50_us on read-single",
    ),
    layer(
        "core.client_process_us",
        "us",
        Lower,
        "exchange_p50_us on read-single",
    ),
    layer(
        "core.client_request_batch_us",
        "us",
        Lower,
        "exchange_p50_us on read-batch64",
    ),
    layer(
        "core.client_process_batch_us",
        "us",
        Lower,
        "exchange_p50_us on read-batch64",
    ),
    layer(
        "core.server_verify_request_us",
        "us",
        Lower,
        "exchange_p50_us on read-single",
    ),
    layer(
        "core.classify_us",
        "us",
        Lower,
        "exchange_p50_us on read-single",
    ),
    layer(
        "contracts.request_encode_us",
        "us",
        Lower,
        "calls_per_s on read-batch64",
    ),
    layer(
        "contracts.response_encode_us",
        "us",
        Lower,
        "calls_per_s on read-batch64",
    ),
    layer(
        "contracts.connect_gas",
        "gas",
        Lower,
        "setup_s; recover_p50_sim_us on gateway-chaos (every failover reconnects)",
    ),
    layer(
        "contracts.blocks_per_connect",
        "count",
        Lower,
        "setup_s; recover_p50_sim_us on gateway-chaos",
    ),
    layer(
        "net.sync_client_us",
        "us",
        Lower,
        "exchange_p50_us on read-single",
    ),
    layer(
        "net.driver_overhead_us",
        "us",
        Lower,
        "exchange_p50_us on read-single: parp_call wall - sum of the unrolled layer calls",
    ),
    layer(
        "net.unattributed_share",
        "share",
        Lower,
        "none: |untraced exchange - sum of layer spans| / untraced exchange, expected <= 0.05",
    ),
    layer(
        "net.fault_drops",
        "count",
        Lower,
        "verified_share on gateway-chaos (input, exact per seed)",
    ),
    layer(
        "net.fault_corruptions",
        "count",
        Lower,
        "verified_share on gateway-chaos (input, exact per seed)",
    ),
    layer(
        "net.fault_delays",
        "count",
        Lower,
        "sim_latency_mean_us on gateway-chaos (input, exact per seed)",
    ),
    layer(
        "net.fault_crashes",
        "count",
        Lower,
        "verified_share on gateway-chaos (input, exact per seed)",
    ),
    layer(
        "net.fault_partitions",
        "count",
        Lower,
        "verified_share on gateway-chaos (input, exact per seed)",
    ),
    layer(
        "net.fault_timeouts",
        "count",
        Lower,
        "sim_latency_mean_us on gateway-chaos",
    ),
    layer(
        "net.fault_steps",
        "count",
        Lower,
        "wire_bytes_per_call on gateway-chaos (exchange attempts decided)",
    ),
    layer(
        "gateway.call_overhead_us",
        "us",
        Lower,
        "exchange_p50_us on gateway-quorum: Gateway::call - paired parp_call",
    ),
    layer(
        "gateway.quorum3_p50_us",
        "us",
        Lower,
        "exchange_p95_us on gateway-quorum (the p95 is the quorum calls)",
    ),
    layer(
        "gateway.quorum_vs_single_ratio",
        "ratio",
        Lower,
        "exchange_p95_us on gateway-quorum; moves before p50 on 2 cores",
    ),
    layer(
        "gateway.retries_per_call",
        "ratio",
        Lower,
        "sim_latency_mean_us, calls_per_s on gateway-chaos",
    ),
    layer(
        "gateway.hedges_per_quorum",
        "ratio",
        Lower,
        "sim_latency_mean_us on gateway-chaos",
    ),
    layer(
        "gateway.failovers_per_1k",
        "1/1k",
        Lower,
        "recover_p50_sim_us, calls_per_s on gateway-chaos",
    ),
    layer(
        "gateway.refused_failovers_per_1k",
        "1/1k",
        Lower,
        "verified_share on gateway-chaos (tracks the refused-payment ban defect)",
    ),
    layer(
        "gateway.breaker_opens",
        "count",
        Lower,
        "verified_share on gateway-chaos",
    ),
    layer(
        "gateway.degraded_share",
        "share",
        Lower,
        "verified_share on gateway-chaos (degraded-but-verified reads count as served)",
    ),
    layer(
        "gateway.useful_exchange_share",
        "share",
        Higher,
        "wire_bytes_per_call, calls_per_s on gateway-chaos: verified results / exchanges sent",
    ),
    layer(
        "telemetry.attached_overhead_share",
        "share",
        Lower,
        "none: bare world vs attached on read-batch64, 0 +- spread",
    ),
    layer(
        "bench.trace_overhead_share",
        "share",
        Lower,
        "none: share of a traced exchange spent outside every layer span",
    ),
    layer(
        "write_p50_us",
        "us",
        Lower,
        "end to end on write-mix: the SendRawTransaction exchanges",
    ),
    layer(
        "failed_share",
        "share",
        Lower,
        "end to end (verified_share = 1 - this): 0 on the five fault-free workloads, every refused, timed-out or errored gateway call on gateway-chaos",
    ),
    layer(
        "sim_latency_mean_us",
        "sim_us",
        Lower,
        "end to end, exact: serve quantum + modelled link + injected waits per exchange",
    ),
    layer(
        "sim_latency_p50_us",
        "sim_us",
        Lower,
        "end to end, exact: serial-vs-concurrent leg design on the gateway workloads",
    ),
    layer(
        "sim_latency_p99_us",
        "sim_us",
        Lower,
        "end to end, exact: deadline burns and backoffs on gateway-chaos",
    ),
    layer(
        "recover_p50_sim_us",
        "sim_us",
        Lower,
        "end to end, exact, gateway-chaos: failover to next verified response",
    ),
    layer(
        "traced_exchange_p50_us",
        "us",
        Lower,
        "none: the unrolled, traced exchange, for comparison with exchange_p50_us",
    ),
    layer(
        "untraced_exchange_p50_us",
        "us",
        Lower,
        "none: exchange_p50_us as measured inside the traced run",
    ),
    layer(
        "share.crypto",
        "share",
        Lower,
        "exchange_p50_us: >= 0.6 on read-single, <= 0.25 on read-batch64",
    ),
    layer("share.trie", "share", Lower, "calls_per_s on read-batch64"),
    layer(
        "share.contracts",
        "share",
        Lower,
        "calls_per_s on read-batch64 (encode)",
    ),
    layer(
        "share.core",
        "share",
        Lower,
        "exchange_p50_us on read-single (client/server self time)",
    ),
    layer("share.chain", "share", Lower, "write_p50_us on write-mix"),
    layer(
        "share.runtime",
        "share",
        Lower,
        "exchange_p50_us on history-cold (tier + store live inside serve)",
    ),
    layer(
        "share.net",
        "share",
        Lower,
        "exchange_p50_us (sync_client, recording gaps)",
    ),
    layer(
        "share.gateway",
        "share",
        Lower,
        "exchange_p50_us on gateway-quorum (wrapper self time)",
    ),
    layer(
        "share.write_path",
        "share",
        Lower,
        "write_p50_us on write-mix: (trie.freeze + chain.produce_block) / write exchange, >= 0.6",
    ),
    layer(
        "traced_exchanges",
        "count",
        Higher,
        "none: sample size of the traced pass",
    ),
    layer(
        "traced_rounds",
        "count",
        Higher,
        "none: rounds of the traced pass",
    ),
    layer(
        "nproc",
        "count",
        Higher,
        "none: std::thread::available_parallelism, for reading thread-dependent figures",
    ),
];

/// Letters, digits, `_`, `.`, `-`; starts with a letter or digit; at
/// most 64 characters (the benchmark contract's name rule).
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Letters, digits, `_`, `/`, `%`, `.`, `-`; at most 16 characters.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn metric_names_and_units_fit_the_contract_charset_and_are_unique() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(
                crate::workload::WORKLOADS
                    .iter()
                    .map(|(name, _)| (*name, "x")),
            );
        for (name, unit) in names {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(!valid_name("-leading") && !valid_name("sp ace") && !valid_name(""));
        assert!(!valid_name(&"x".repeat(65)) && valid_name(&"x".repeat(64)));
        assert!(valid_unit("1/s") && !valid_unit("µs") && !valid_unit(&"u".repeat(17)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (_, why) in crate::workload::WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    /// `BENCHMARK.json` at the repo root restates this catalogue.
    #[test]
    fn benchmark_json_agrees_with_the_catalogue() {
        use parp_jsonrpc::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let json = parp_jsonrpc::parse(&text).expect("BENCHMARK.json parses");
        let Json::Object(keys) = &json else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let field =
            |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(str::to_owned);
        let list = |key: &str| json.get(key).and_then(Json::as_array).expect(key).to_vec();
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let expected: Vec<(String, String)> = crate::workload::WORKLOADS
            .iter()
            .map(|(name, why)| (name.to_string(), why.to_string()))
            .collect();
        assert_eq!(workloads, expected);
        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (item, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
            assert_eq!(item.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (item, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(item, "name").as_deref(), Some(m.name));
            assert_eq!(field(item, "unit").as_deref(), Some(m.unit));
            assert_eq!(field(item, "better").as_deref(), Some(m.better.as_str()));
        }
    }
}
