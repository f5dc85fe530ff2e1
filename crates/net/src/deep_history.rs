//! The deep-history serving scenario: a provider with a bounded memory
//! envelope answering inclusion lookups far behind its resident window.
//!
//! The node mines a chain thousands of blocks deep with the storage
//! tier on — every block archived into append-only segment files, the
//! resident window pruned, and the runtime's per-block inclusion tries
//! bounded by a byte budget that spills cold pages to disk. A Zipf
//! stream of old-block transaction lookups (most mass on the deepest
//! blocks, the access pattern archival RPC traffic shows) then drives
//! real batched PARP exchanges through the cold path.
//!
//! A second, fully resident network runs the *same* schedule in
//! lockstep as the control: every batch is served by both and the
//! response bytes compared, so the scenario asserts — not assumes —
//! that segment-backed serving is indistinguishable on the wire from
//! keeping everything in memory.

use crate::latency::LatencyModel;
use crate::sim::{Network, SimError};
use parp_contracts::RpcCall;
use parp_core::ProcessBatchOutcome;
use parp_primitives::{Address, H256, U256};
use parp_runtime::{Runtime, RuntimeConfig};
use parp_telemetry::{MetricsSnapshot, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning for the deep-history scenario.
#[derive(Debug, Clone, Copy)]
pub struct DeepHistoryConfig {
    /// Blocks to mine beyond the bootstrap (each carries one funding
    /// transaction, so every block has a provable inclusion target).
    pub blocks: u64,
    /// Resident window the chain keeps in memory (floored at
    /// [`parp_chain::MIN_HISTORY_WINDOW`]; 0 means the floor).
    pub window: u64,
    /// Warm-tier byte budget for rebuilt inclusion-trie pages.
    pub storage_budget_bytes: usize,
    /// Batched lookups to drive (each batch pairs a transaction lookup
    /// with its receipt lookup against one sampled block).
    pub lookups: usize,
    /// Zipf exponent of the block sampler: higher skews harder toward
    /// the oldest blocks.
    pub zipf_exponent: f64,
    /// Sampler seed.
    pub seed: u64,
}

impl Default for DeepHistoryConfig {
    fn default() -> Self {
        DeepHistoryConfig {
            blocks: 2_048,
            window: 0,
            storage_budget_bytes: 1_024,
            lookups: 48,
            zipf_exponent: 1.1,
            seed: 42,
        }
    }
}

/// Outcome of a deep-history run.
#[derive(Debug, Clone)]
pub struct DeepHistoryReport {
    /// Final chain height of the storage-tiered network.
    pub height: u64,
    /// Blocks still resident in memory (the pruning window).
    pub resident_blocks: u64,
    /// First resident block number.
    pub resident_base: u64,
    /// Bytes the history segments occupy on disk.
    pub history_disk_bytes: u64,
    /// Bytes the spilled trie pages occupy on disk.
    pub spill_disk_bytes: u64,
    /// Measured bytes of inclusion-trie pages resident at the end.
    pub resident_trie_bytes: u64,
    /// Warm-tier hits across the lookup stream.
    pub warm_hits: u64,
    /// Warm-tier misses (pages built from segment decodes).
    pub warm_misses: u64,
    /// Pages spilled to disk under budget pressure.
    pub spills: u64,
    /// Pages rehydrated from disk.
    pub rehydrates: u64,
    /// Batches served and verified valid by the client.
    pub served_batches: u64,
    /// Batches whose sampled block lay behind the resident window.
    pub cold_batches: u64,
    /// Whether every batch response matched the fully resident
    /// control network byte for byte.
    pub byte_identical: bool,
    /// End-of-run snapshot of the run's telemetry registry.
    pub metrics: MetricsSnapshot,
}

/// Deterministic Zipf sampler over `0..n`: index 0 carries the most
/// mass. Cumulative weights are precomputed once; each draw maps a
/// uniform integer onto the distribution by binary search.
struct ZipfSampler {
    cumulative: Vec<f64>,
}

/// Resolution of the uniform draw the sampler quantizes to.
const ZIPF_DRAW_STEPS: u64 = 1 << 20;

/// One block in this many carries a lookup-target transaction while
/// mining the deep history (the rest are empty blocks — history depth
/// is what the scenario stresses, not signature throughput).
const TX_STRIDE: u64 = 8;

impl ZipfSampler {
    fn new(n: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += (rank as f64).powf(-exponent);
            cumulative.push(total);
        }
        ZipfSampler { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let Some(&total) = self.cumulative.last() else {
            return 0;
        };
        let u = rng.gen_range(0..ZIPF_DRAW_STEPS) as f64 / ZIPF_DRAW_STEPS as f64;
        let target = u * total;
        self.cumulative.partition_point(|&c| c <= target)
    }
}

/// Runs the deep-history scenario and reports storage-tier figures.
///
/// Fully deterministic: both networks replay the identical bootstrap,
/// mining schedule and lookup stream, so the byte-identity comparison
/// is exact and the report reproduces across hosts.
///
/// # Errors
///
/// Propagates [`SimError`]s from setup, mining, and serving (the cold
/// tier failing to open its segment files surfaces as
/// [`SimError::Storage`]).
pub fn run_deep_history(config: &DeepHistoryConfig) -> Result<DeepHistoryReport, SimError> {
    let price = U256::from(10u64);
    let telemetry = Telemetry::new();

    // The network under test: bounded memory, segments on disk.
    let mut cold_net = Network::with_latency(LatencyModel::zero());
    cold_net.set_runtime(Runtime::new(RuntimeConfig::default()));
    cold_net.enable_deep_history(config.window, config.storage_budget_bytes)?;
    cold_net.attach_telemetry(&telemetry);

    // The control: same schedule, everything resident, no telemetry.
    let mut full_net = Network::with_latency(LatencyModel::zero());
    full_net.set_runtime(Runtime::new(RuntimeConfig::default()));

    let node_seed: &[u8] = b"deep-history-node";
    let client_seed: &[u8] = b"deep-history-client";
    let budget = U256::from(1u64) << 60;
    let cold_node = cold_net.spawn_node(node_seed, price);
    let full_node = full_net.spawn_node(node_seed, price);
    let mut cold_client = cold_net.spawn_client(client_seed, price);
    let mut full_client = full_net.spawn_client(client_seed, price);
    cold_net.connect(&mut cold_client, cold_node, budget)?;
    full_net.connect(&mut full_client, full_node, budget)?;

    // Mine the history: every TX_STRIDEth block carries one funding
    // transfer (a provable inclusion target); the rest are empty. The
    // transfers cycle over a fixed target set so the state stays small
    // and per-block cost constant — the scenario measures depth of
    // *history*, not breadth of *state* or signature throughput.
    let targets: Vec<Address> = (0..32u64)
        .map(|i| Address::from_low_u64_be(0xB10C_0000 + i))
        .collect();
    let mut funded = 0u64;
    for i in 0..config.blocks {
        if i % TX_STRIDE == 0 {
            let target = targets[(funded % targets.len() as u64) as usize];
            cold_net.fund(target);
            full_net.fund(target);
            funded += 1;
        } else {
            cold_net.advance_blocks(1)?;
            full_net.advance_blocks(1)?;
        }
    }

    // Lookup targets, oldest block first — read back through the
    // segments on the cold network, so the supply itself exercises the
    // archive path. The identical schedule makes both maps equal.
    let locations: Vec<(H256, u64)> = cold_net.transaction_locations();
    let provider = cold_net.node(cold_node).address();
    let resident_base = cold_net.chain().resident_base();

    let sampler = ZipfSampler::new(locations.len(), config.zipf_exponent);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut byte_identical = true;
    let mut served_batches = 0u64;
    let mut cold_batches = 0u64;
    for _ in 0..config.lookups {
        let (hash, block) = locations[sampler.sample(&mut rng)];
        if block < resident_base {
            cold_batches += 1;
        }
        let calls = vec![
            RpcCall::GetTransactionByHash { hash },
            RpcCall::GetTransactionReceipt { hash },
        ];
        // Both clients share one identity and one ledger history, so
        // the signed requests — and therefore the responses — must
        // agree byte for byte.
        let cold_request = cold_client.request_batch_from(provider, calls.clone())?;
        let full_request = full_client.request_batch_from(provider, calls)?;
        let cold_response = cold_net.serve_batch(cold_node, &cold_request)?;
        let full_response = full_net.serve_batch(full_node, &full_request)?;
        byte_identical &= cold_request.encode() == full_request.encode();
        byte_identical &= cold_response.encode() == full_response.encode();
        cold_net.sync_client(&mut cold_client);
        full_net.sync_client(&mut full_client);
        let outcome = cold_client.process_batch_response_from(provider, &cold_response)?;
        full_client.process_batch_response_from(provider, &full_response)?;
        if matches!(outcome, ProcessBatchOutcome::Valid { .. }) {
            served_batches += 1;
        }
    }

    let chain = cold_net.chain();
    let (height, resident_blocks, resident_base, history_disk_bytes) = (
        chain.height(),
        chain.resident_blocks(),
        chain.resident_base(),
        chain.history_disk_bytes(),
    );
    let tier = cold_net.runtime().cold_storage().map(|cold| cold.tier());
    let report = DeepHistoryReport {
        height,
        resident_blocks,
        resident_base,
        history_disk_bytes,
        spill_disk_bytes: tier.map(|t| t.disk_bytes()).unwrap_or(0),
        resident_trie_bytes: tier.map(|t| t.resident_bytes() as u64).unwrap_or(0),
        warm_hits: tier.map(|t| t.hits()).unwrap_or(0),
        warm_misses: tier.map(|t| t.misses()).unwrap_or(0),
        spills: tier.map(|t| t.spill_count()).unwrap_or(0),
        rehydrates: tier.map(|t| t.rehydrate_count()).unwrap_or(0),
        served_batches,
        cold_batches,
        byte_identical,
        metrics: telemetry.registry.snapshot(),
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_sampler_skews_toward_low_ranks() {
        let sampler = ZipfSampler::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u32; 100];
        for _ in 0..2_000 {
            counts[sampler.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 dominates rank 10");
        assert!(counts[0] > counts[50]);
        let head: u32 = counts[..10].iter().sum();
        assert!(head > 1_000, "top decile carries most of the mass");
        // Degenerate sampler never panics.
        assert_eq!(ZipfSampler::new(0, 1.0).sample(&mut rng), 0);
    }

    #[test]
    fn deep_history_sustains_thousands_of_blocks_under_budget() {
        let config = DeepHistoryConfig::default();
        let report = run_deep_history(&config).expect("scenario runs");
        assert!(report.height > 2_000, "chain is thousands of blocks deep");
        assert!(
            report.resident_blocks < report.height / 4,
            "almost all blocks pruned from memory"
        );
        assert!(report.resident_base > 0);
        assert!(report.history_disk_bytes > 0, "segments hold the history");
        // The acceptance property: serving from segments is
        // indistinguishable on the wire from serving from memory.
        assert!(report.byte_identical, "cold responses match resident ones");
        assert_eq!(report.served_batches, config.lookups as u64);
        assert!(report.cold_batches > 0, "Zipf stream reached cold blocks");
        // The warm tier stayed within its budget and actually tiered:
        // pages were built, spilled under pressure, and rehydrated.
        assert!(report.resident_trie_bytes <= config.storage_budget_bytes as u64);
        assert!(report.warm_misses > 0);
        assert!(report.spills > 0, "budget pressure forced spills");
        assert!(report.rehydrates > 0, "revisited pages came back from disk");
        // Telemetry adopted the live tier counters, each under one name.
        let counter = |name| report.metrics.counter(name, &[]);
        assert_eq!(
            counter("parp_runtime_inclusion_cache_hits_total"),
            Some(report.warm_hits)
        );
        assert_eq!(
            counter("parp_runtime_inclusion_cache_misses_total"),
            Some(report.warm_misses)
        );
        assert_eq!(counter("parp_runtime_warm_tier_hits_total"), None);
        assert_eq!(counter("parp_runtime_warm_tier_misses_total"), None);
        assert_eq!(
            counter("parp_runtime_warm_tier_rehydrates_total"),
            Some(report.rehydrates)
        );
        assert_eq!(
            report
                .metrics
                .counter("parp_runtime_warm_tier_spills_total", &[]),
            Some(report.spills)
        );
        assert_eq!(
            report
                .metrics
                .gauge("parp_runtime_warm_tier_resident_bytes", &[]),
            Some(report.resident_trie_bytes as i64)
        );
    }
}
