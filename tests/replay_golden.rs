//! Before/after replay oracle: checked-in keccak digests of the three
//! deterministic scenarios and the checked-in marketplace trace.
//!
//! The other suites assert *same-process* replay identity (`a == b`),
//! which a change that alters both runs alike still passes. These
//! digests were recorded at the commit before the exchange-pipeline
//! refactor; any change to what a scenario serves, pays, counts, times
//! (on the simulated clock) or traces moves one of them. A digest may
//! only be edited by a change that *intends* to alter behaviour, and
//! says so.

use parp_suite::contracts::RpcCall;
use parp_suite::crypto::keccak256;
use parp_suite::gateway::{run_chaos, run_marketplace, ChaosConfig, MarketplaceConfig};
use parp_suite::net::{run_deep_history, DeepHistoryConfig, LatencyModel, Network};
use parp_suite::primitives::{Address, U256};
use parp_suite::runtime::{Runtime, RuntimeConfig};

/// Re-recorded once when a transient fault stopped costing the channel:
/// timeouts, corruption and crashes keep it, a refusal carrying the
/// client's own `σ_a` is reconciled and retried in place.
/// The default run now serves 44 calls, degrades 4 and errors none (was
/// 43 / 4 / 1), and its snapshot gains `parp_gateway_reconciled_total`.
const CHAOS_DIGEST: &str = "8bbd5315051a31fd5ba5c11417240b0426f1b56b643b17f36e23855e66493436";
const MARKETPLACE_DIGEST: &str = "d6ddb01462e52680d92d061efbd91bb627eb65046674d77b4eacf50206dae09a";
/// Re-recorded once when arena pages dropped their witness ids: a spilled
/// node record went from 25 bytes to 9 and a resident one from 28 to 24,
/// so `spill_disk_bytes` (2,647 → 2,407) and `resident_trie_bytes`
/// (790 → 778) moved; warm hits, misses, spills and rehydrates did not.
/// Re-recorded again when the inclusion cache's hits and misses got one
/// metric name: `parp_runtime_inclusion_cache_{hits,misses}_total` read
/// 6 and 12 (they read 0 while a separate cache sat idle beside the
/// tier) and `parp_runtime_warm_tier_{hits,misses}_total` are gone;
/// every other field of the report and of its snapshot reads the same.
const DEEP_HISTORY_REPORT_DIGEST: &str =
    "57ed334de89a6cde9a663fd9165b7345b4fcabafa82e1f409a4e41d3c3313a74";
/// Re-recorded once when the batch `h_res` began binding proof nodes by
/// hash: every response's `σ_res` moved with it, and nothing else did —
/// [`DEEP_HISTORY_UNSIGNED_WIRE_DIGEST`], the same bytes with each
/// response's `σ_res` field left out, read the same before and after.
const DEEP_HISTORY_WIRE_DIGEST: &str =
    "0a648748855ef98c78621d5079881f9cc38bcf42e28c577526c57b0f1ba237f4";
const DEEP_HISTORY_UNSIGNED_WIRE_DIGEST: &str =
    "08319e152521f5dd01953bd2954865a3d19850353387167698b37f81c7181daf";

fn assert_digest(what: &str, transcript: &[u8], expected: &str) {
    let actual = format!("{:x}", keccak256(transcript));
    assert_eq!(
        actual, expected,
        "{what} no longer replays the recorded behaviour"
    );
}

#[test]
fn chaos_replays_the_recorded_run() {
    let report = run_chaos(&ChaosConfig::default());
    // `Debug` covers every accounting field, the payment digest, the
    // final clock and the fault steps; the snapshot JSON is what the
    // same-process replay tests compare.
    let transcript = format!("{report:?}\n{}", report.metrics.to_json());
    assert_digest("run_chaos", transcript.as_bytes(), CHAOS_DIGEST);
}

#[test]
fn marketplace_replays_the_recorded_run_and_trace() {
    let report = run_marketplace(&MarketplaceConfig::default());
    let providers: Vec<_> = report
        .provider_stats
        .iter()
        .map(|(address, stats)| {
            (
                *address,
                stats.calls(),
                stats.failures(),
                stats.samples(),
                stats.latency_p50_us(),
                stats.latency_p99_us(),
            )
        })
        .collect();
    let transcript = format!(
        "{:?}\n{providers:?}\n{}",
        (
            (report.results, report.wrong_payloads, report.errors),
            (report.fraud_detected, report.fraud_proofs_accepted),
            (report.cheapest_slashed, report.failovers),
            (&report.failovers_by_cause, &report.recoveries_us),
            (report.quorum_reads, report.quorum_disagreements),
            (report.payments_monotone, report.providers_joined),
            (report.providers_exited, report.final_registry_len),
        ),
        report.metrics.to_json()
    );
    assert_digest("run_marketplace", transcript.as_bytes(), MARKETPLACE_DIGEST);
    assert!(
        report.telemetry.tracer.export_chrome_json() == include_str!("../TRACE_sample.json"),
        "the regenerated marketplace trace differs from the checked-in TRACE_sample.json"
    );
}

/// A small deep-history run: just past the resident window, so a few
/// lookups go through the segments.
const DEEP: DeepHistoryConfig = DeepHistoryConfig {
    blocks: 320,
    window: 0,
    storage_budget_bytes: 1_024,
    lookups: 12,
    zipf_exponent: 1.1,
    seed: 42,
};

#[test]
fn deep_history_replays_the_recorded_run() {
    let report = run_deep_history(&DEEP).expect("scenario runs");
    assert!(report.byte_identical && report.cold_batches > 0);
    let transcript = format!("{report:?}\n{}", report.metrics.to_json());
    assert_digest(
        "run_deep_history",
        transcript.as_bytes(),
        DEEP_HISTORY_REPORT_DIGEST,
    );
}

/// `run_deep_history` reports only *whether* its twins agreed; this
/// drives the same twins (cold tier vs fully resident) over every mined
/// transaction and pins the request and response bytes of both — with
/// and without the responses' signatures, so a change to what `σ_res`
/// signs shows apart from a change to what is served.
#[test]
fn deep_history_twins_put_the_recorded_bytes_on_the_wire() {
    let price = U256::from(10u64);
    let mut cold = Network::with_latency(LatencyModel::zero());
    cold.set_runtime(Runtime::new(RuntimeConfig::default()));
    cold.enable_deep_history(DEEP.window, DEEP.storage_budget_bytes)
        .expect("segment files open");
    let mut full = Network::with_latency(LatencyModel::zero());
    full.set_runtime(Runtime::new(RuntimeConfig::default()));
    let mut wire = Vec::new();
    let mut unsigned = Vec::new();
    let mut twins: Vec<_> = [cold, full]
        .into_iter()
        .map(|mut net| {
            let node = net.spawn_node(b"golden-deep-node", price);
            let mut client = net.spawn_client(b"golden-deep-client", price);
            net.connect(&mut client, node, U256::from(1u64) << 60)
                .expect("channel opens");
            for i in 0..DEEP.blocks {
                if i % 8 == 0 {
                    net.fund(Address::from_low_u64_be(0xB10C_0000 + i % 32));
                } else {
                    net.advance_blocks(1).expect("empty block");
                }
            }
            (net, node, client)
        })
        .collect();
    let locations = twins[0].0.transaction_locations();
    assert!(locations[0].1 < twins[0].0.chain().resident_base());
    for (hash, _) in locations.iter().step_by(5) {
        for (net, node, client) in &mut twins {
            let provider = net.node(*node).address();
            let calls = vec![
                RpcCall::GetTransactionByHash { hash: *hash },
                RpcCall::GetTransactionReceipt { hash: *hash },
            ];
            let request = client
                .request_batch_from(provider, calls)
                .expect("request builds");
            let response = net.serve_batch(*node, &request).expect("node serves");
            net.sync_client(client);
            client
                .process_batch_response_from(provider, &response)
                .expect("response pairs");
            let (request, response) = (request.encode(), response.encode());
            // `σ_res` is the last field: a 65-byte string, 67 encoded.
            unsigned.extend(&request);
            unsigned.extend(&response[..response.len() - 67]);
            wire.extend(request);
            wire.extend(response);
        }
    }
    assert_digest("deep-history twins", &wire, DEEP_HISTORY_WIRE_DIGEST);
    assert_digest(
        "deep-history twins without σ_res",
        &unsigned,
        DEEP_HISTORY_UNSIGNED_WIRE_DIGEST,
    );
}
