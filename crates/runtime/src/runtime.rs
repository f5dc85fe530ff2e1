//! The serving runtime: head-trie holder + inclusion-trie cache +
//! admission controller behind one [`parp_core::ProofEngine`].

use crate::admission::{AdmissionController, AdmissionError, AdmissionStats};
use crate::tiered::{ColdProofEngine, TrieCache};
use parp_chain::{Blockchain, Header, State};
use parp_contracts::{
    ParpBatchRequest, ParpBatchResponse, ParpExecutor, ParpRequest, ParpResponse,
};
use parp_core::{FullNode, ProofEngine, ServeError};
use parp_crypto::keccak256;
use parp_primitives::Address;
use parp_telemetry::{Histogram, Telemetry, TimeSource};
use parp_trie::ProofBuf;
use std::sync::Arc;

/// Measured bytes of per-block transaction and receipt tries a runtime
/// keeps resident until [`Runtime::enable_cold_storage`] sets its own
/// budget: some eighty pages of a one-transfer block, five of a
/// 64-transfer one.
const INCLUSION_BUDGET_BYTES: usize = 64 * 1024;

/// Admission tuning for a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Per-client admission burst (calls).
    pub burst_capacity: u64,
    /// Per-client steady-state admission rate (calls per second).
    pub rate_per_sec: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            burst_capacity: 256,
            rate_per_sec: 512,
        }
    }
}

/// Why the runtime refused to serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The client's admission bucket is exhausted.
    Throttled {
        /// Microseconds until the rejected cost would be admissible.
        retry_after_us: u64,
    },
    /// The underlying protocol layer refused the request.
    Serve(ServeError),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Throttled { retry_after_us } => {
                write!(f, "rate limited; retry in {retry_after_us} µs")
            }
            RuntimeError::Serve(e) => write!(f, "serve error: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ServeError> for RuntimeError {
    fn from(e: ServeError) -> Self {
        RuntimeError::Serve(e)
    }
}

/// The concurrent serving engine behind a PARP full node.
///
/// Combines the runtime concerns, each trie held in a [`TrieCache`]:
///
/// * a zero-budget cache — one slot — holding the **head** state trie:
///   the `Arc` the chain's [`State`] memoises, not a second build, so
///   every state proof is one
///   [`FrozenTrie::multiproof_into`](parp_trie::FrozenTrie::multiproof_into)
///   / [`FrozenTrie::prove`](parp_trie::FrozenTrie::prove) walk over
///   it, and the slot's hit / miss counters say how often the head
///   moved under the traffic. PARP proves accounts at the head only,
///   so no older state trie is kept;
/// * a byte-budgeted cache of per-block **transaction and receipt
///   tries** (content-addressed by their roots, exactly like state
///   tries), so batched inclusion lookups against a hot block reuse one
///   frozen trie instead of rebuilding it per proof, and — once
///   [`Runtime::enable_cold_storage`] gives it a spill store — evicted
///   pages of deep history come back off disk;
/// * an [`AdmissionController`] so one aggressive client cannot starve
///   the others ([`Runtime::admit`] + [`crate::FairQueue`]).
///
/// `FullNode::handle_request`/`handle_batch` route through a runtime by
/// taking it as their [`ProofEngine`]; [`Runtime::serve_request`] and
/// [`Runtime::serve_batch`] are the ready-made entry points.
#[derive(Debug, Clone)]
pub struct Runtime {
    /// Budget 0, so one slot: the head state trie, the `Arc` the
    /// chain's `State` holds.
    cache: TrieCache,
    /// Frozen transaction/receipt tries keyed by their trie roots.
    /// Content addressing makes entries reusable across forks and
    /// immune to invalidation: a block's transaction set never changes.
    inclusion: ColdProofEngine,
    admission: AdmissionController,
    /// Serve-path histograms, present once a telemetry registry is
    /// attached. `None` keeps the uninstrumented path at one branch.
    metrics: Option<RuntimeMetrics>,
    /// The injected clock serve-path durations are measured with.
    /// Defaults to the host clock (production serving); the
    /// deterministic simulator injects a [`TimeSource::fixed`] handle
    /// so metric readings reproduce across hosts (lint W002).
    clock: TimeSource,
}

/// The runtime's registered histograms (fixed-memory, lock-free).
#[derive(Debug, Clone)]
struct RuntimeMetrics {
    multiproof_us: Arc<Histogram>,
    serve_single_us: Arc<Histogram>,
    serve_batch_us: Arc<Histogram>,
    batch_calls: Arc<Histogram>,
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new(RuntimeConfig::default())
    }
}

impl ProofEngine for Runtime {
    fn account_multiproof_into(
        &mut self,
        state: &State,
        addresses: &[Address],
        out: &mut ProofBuf,
    ) {
        let trie = self.cache.get_or_build(state);
        let start = self.metrics.is_some().then(|| self.clock.start());
        trie.multiproof_into(
            addresses
                .iter()
                .map(|address| keccak256(address.as_bytes())),
            out,
        );
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.multiproof_us.record(self.clock.elapsed_us(t));
        }
    }

    fn account_proof(&mut self, state: &State, address: &Address) -> Vec<Vec<u8>> {
        let trie = self.cache.get_or_build(state);
        trie.prove(keccak256(address.as_bytes()).as_bytes())
    }

    fn transaction_proof(&mut self, chain: &Blockchain, header: &Header, index: usize) -> ProofBuf {
        self.inclusion.transaction_proof(chain, header, index)
    }

    fn receipt_proof(
        &mut self,
        chain: &Blockchain,
        header: &Header,
        index: usize,
    ) -> Option<(Vec<u8>, ProofBuf)> {
        self.inclusion.receipt_proof(chain, header, index)
    }
}

impl Runtime {
    /// A runtime with the given admission tuning. Its inclusion tries
    /// stay in memory under a fixed byte budget (64 KiB) until
    /// [`Runtime::enable_cold_storage`] says otherwise.
    pub fn new(config: RuntimeConfig) -> Self {
        Runtime {
            cache: TrieCache::new(0, None),
            inclusion: ColdProofEngine::new(INCLUSION_BUDGET_BYTES, None),
            admission: AdmissionController::new(config.burst_capacity, config.rate_per_sec),
            metrics: None,
            clock: TimeSource::default(),
        }
    }

    /// Keeps at most `budget_bytes` of inclusion tries resident and
    /// spills the rest to `spill`, rehydrating them on demand. Starts
    /// from an empty cache; call before [`Runtime::attach_telemetry`]
    /// so the new cache's counters are adopted.
    pub fn enable_cold_storage(&mut self, spill: parp_store::SpillStore, budget_bytes: usize) {
        self.inclusion = ColdProofEngine::new(budget_bytes, Some(spill));
    }

    /// The inclusion engine, when [`Runtime::enable_cold_storage`] gave
    /// it a spill store (tier counters, resident/disk footprint).
    pub fn cold_storage(&self) -> Option<&ColdProofEngine> {
        self.inclusion
            .tier()
            .spills_to_disk()
            .then_some(&self.inclusion)
    }

    /// Replaces the clock serve-path durations are measured with. The
    /// simulator injects its deterministic [`TimeSource`] here so
    /// runtime histograms record sim-consistent readings; benches
    /// inject [`TimeSource::wall`] to measure the hardware.
    pub fn set_time_source(&mut self, clock: TimeSource) {
        self.clock = clock;
    }

    /// The clock serve-path durations are measured with.
    pub fn time_source(&self) -> &TimeSource {
        &self.clock
    }

    /// Registers the runtime's counters and histograms with
    /// `telemetry` and turns on serve-path latency recording.
    ///
    /// The caches' and admission controller's live counters are
    /// *adopted* (the registry exports the same atomic cells the hot
    /// path already increments), so attaching late loses no counts.
    /// The spill and rehydrate counters and the resident-bytes gauge
    /// are registered only when the inclusion cache spills to disk.
    /// Metric names follow the `parp_<subsystem>_<name>_<unit>`
    /// convention.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let r = &telemetry.registry;
        r.adopt_counter(
            "parp_runtime_snapshot_cache_hits_total",
            &[],
            &self.cache.hit_counter(),
        );
        r.adopt_counter(
            "parp_runtime_snapshot_cache_misses_total",
            &[],
            &self.cache.miss_counter(),
        );
        let tier = self.inclusion.tier();
        r.adopt_counter(
            "parp_runtime_inclusion_cache_hits_total",
            &[],
            &tier.hit_counter(),
        );
        r.adopt_counter(
            "parp_runtime_inclusion_cache_misses_total",
            &[],
            &tier.miss_counter(),
        );
        r.adopt_counter(
            "parp_runtime_admitted_calls_total",
            &[],
            &self.admission.admitted_counter(),
        );
        r.adopt_counter(
            "parp_runtime_throttled_calls_total",
            &[],
            &self.admission.throttled_counter(),
        );
        if tier.spills_to_disk() {
            r.adopt_counter(
                "parp_runtime_warm_tier_spills_total",
                &[],
                &tier.spill_counter(),
            );
            r.adopt_counter(
                "parp_runtime_warm_tier_rehydrates_total",
                &[],
                &tier.rehydrate_counter(),
            );
            r.adopt_gauge(
                "parp_runtime_warm_tier_resident_bytes",
                &[],
                &tier.resident_gauge(),
            );
        }
        self.metrics = Some(RuntimeMetrics {
            multiproof_us: r.histogram("parp_runtime_multiproof_us", &[]),
            serve_single_us: r.histogram("parp_runtime_serve_single_us", &[]),
            serve_batch_us: r.histogram("parp_runtime_serve_batch_us", &[]),
            batch_calls: r.histogram("parp_runtime_batch_calls", &[]),
        });
    }

    /// Builder form of [`Runtime::attach_telemetry`].
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.attach_telemetry(telemetry);
        self
    }

    /// The one-slot head-trie cache (hit/miss counters, contents).
    pub fn cache(&self) -> &TrieCache {
        &self.cache
    }

    /// The per-block transaction/receipt trie cache (hit/miss counters,
    /// contents), keyed by transaction- or receipt-trie root.
    pub fn inclusion_cache(&self) -> &TrieCache {
        self.inclusion.tier()
    }

    /// Bytes this runtime keeps alive: both caches
    /// ([`TrieCache::mem_bytes`]), not the admission controller's few
    /// dozen bytes per client.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            - std::mem::size_of::<TrieCache>()
            - std::mem::size_of::<ColdProofEngine>()
            + self.cache.mem_bytes()
            + self.inclusion_cache().mem_bytes()
    }

    /// Admission check for `calls` calls from `client` at `now_us`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Throttled`] when the client's token
    /// bucket cannot cover the calls.
    pub fn admit(&mut self, client: Address, calls: u64, now_us: u64) -> Result<(), RuntimeError> {
        self.admission.admit(client, calls, now_us).map_err(
            |AdmissionError::RateLimited { retry_after_us }| RuntimeError::Throttled {
                retry_after_us,
            },
        )
    }

    /// Admission statistics for `client`.
    pub fn admission_stats(&self, client: &Address) -> AdmissionStats {
        self.admission.stats(client)
    }

    /// Serves one single-call exchange through the runtime's caches.
    ///
    /// # Errors
    ///
    /// Propagates the node's [`ServeError`]s.
    pub fn serve_request(
        &mut self,
        node: &mut FullNode,
        request: &ParpRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
    ) -> Result<ParpResponse, ServeError> {
        let start = self.metrics.is_some().then(|| self.clock.start());
        let response = node.handle_request_with(request, chain, executor, self);
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.serve_single_us.record(self.clock.elapsed_us(t));
        }
        response
    }

    /// Serves one batched exchange through the runtime's caches.
    ///
    /// # Errors
    ///
    /// Propagates the node's [`ServeError`]s.
    pub fn serve_batch(
        &mut self,
        node: &mut FullNode,
        request: &ParpBatchRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
    ) -> Result<ParpBatchResponse, ServeError> {
        let start = self.metrics.is_some().then(|| self.clock.start());
        let response = node.handle_batch_with(request, chain, executor, self);
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.serve_batch_us.record(self.clock.elapsed_us(t));
            m.batch_calls.record(request.calls.len() as u64);
        }
        response
    }

    /// Invalidation hook for `Blockchain::mine` (and reorgs): takes the
    /// new head's trie into the one slot — which lets go of whatever
    /// was there — so the next exchange is a hit.
    pub fn note_new_head(&mut self, chain: &Blockchain) {
        self.cache.get_or_build(chain.state());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_primitives::{H256, U256};
    use parp_trie::FrozenTrie;

    /// A signed one-unit transfer from `key` to account 7.
    fn transfer(key: &parp_crypto::SecretKey, nonce: u64) -> parp_chain::SignedTransaction {
        parp_chain::Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(7)),
            value: U256::ONE,
            data: Vec::new(),
        }
        .sign(key)
    }

    #[test]
    fn engine_reuses_cached_trie() {
        let mut runtime = Runtime::default();
        let state =
            State::with_alloc((1..=64u64).map(|i| (Address::from_low_u64_be(i), U256::from(i))));
        let addresses: Vec<Address> = (1..=8).map(Address::from_low_u64_be).collect();
        let mut multi = ProofBuf::new();
        runtime.account_multiproof_into(&state, &addresses, &mut multi);
        assert_eq!(multi.to_vecs(), state.account_multiproof(&addresses));
        assert_eq!(runtime.cache().misses(), 1);
        let single = runtime.account_proof(&state, &addresses[0]);
        assert_eq!(single, state.account_proof(&addresses[0]));
        assert_eq!(runtime.cache().misses(), 1, "second proof hits the cache");
        assert_eq!(runtime.cache().hits(), 1);
    }

    #[test]
    fn runtime_keeps_the_head_trie_and_nothing_else() {
        let mut runtime = Runtime::default();
        let key = parp_crypto::SecretKey::from_seed(b"runtime-head");
        let bystanders = (1..=200u64).map(|i| (Address::from_low_u64_be(0x1000 + i), U256::ONE));
        let mut chain = Blockchain::new(
            std::iter::once((key.address(), U256::from(1u64) << 64)).chain(bystanders),
        );
        // A foreign root (an abandoned fork, say) sits in the slot.
        let foreign = State::with_alloc([(Address::from_low_u64_be(9), U256::ONE)]);
        let foreign_root = foreign.state_root();
        runtime.cache.insert(foreign_root, foreign.shared_trie());
        let mut earlier_heads = Vec::new();
        // What the runtime holds, less the superseded bytes of the head
        // trie: those rise and fall with its compaction, not the chain.
        let live = |runtime: &Runtime, chain: &Blockchain| {
            runtime.mem_bytes() - chain.state().shared_trie().superseded_bytes()
        };
        let mut mem_at_second = 0;
        for nonce in 0..12 {
            chain
                .produce_block(
                    vec![transfer(&key, nonce)],
                    &mut parp_chain::TransferExecutor,
                )
                .unwrap();
            runtime.note_new_head(&chain);
            assert!(
                earlier_heads
                    .iter()
                    .all(|trie: &std::sync::Weak<FrozenTrie>| trie.upgrade().is_none()),
                "a trie below the head is still alive at block {}",
                chain.height()
            );
            assert!(!runtime.cache().contains(&foreign_root));
            assert_eq!(runtime.cache().len(), 1);
            let held = runtime
                .cache
                .get(&chain.head().header.state_root)
                .expect("the head is held");
            assert!(Arc::ptr_eq(&held, &chain.state().shared_trie()));
            earlier_heads.push(Arc::downgrade(&held));
            if chain.height() == 2 {
                mem_at_second = live(&runtime, &chain);
            }
        }
        let mem_at_last = live(&runtime, &chain);
        assert!(
            mem_at_last.abs_diff(mem_at_second) * 20 <= mem_at_second,
            "{mem_at_second} B at block 2, {mem_at_last} B at block 12"
        );
    }

    #[test]
    fn cold_runtime_serves_pruned_blocks_byte_identically() {
        let key = parp_crypto::SecretKey::from_seed(b"cold-runtime");
        // Twin chains over the same blocks: `cold` prunes behind a
        // history store, `resident` keeps everything in memory.
        let alloc = vec![(key.address(), U256::from(1u64) << 64)];
        let mut cold_chain = Blockchain::new(alloc.clone());
        let mut resident = Blockchain::new(alloc);
        let dir = parp_store::scratch_dir("cold-runtime").unwrap();
        let store = parp_store::BlockStore::open(&dir).unwrap();
        cold_chain.attach_history(store, 0).unwrap();
        let blocks = parp_chain::MIN_HISTORY_WINDOW + 20;
        for nonce in 0..blocks {
            let executor = &mut parp_chain::TransferExecutor;
            cold_chain
                .produce_block(vec![transfer(&key, nonce)], executor)
                .unwrap();
            resident
                .produce_block(vec![transfer(&key, nonce)], executor)
                .unwrap();
        }
        assert!(cold_chain.resident_base() > 1, "old blocks were pruned");
        // A storage-budgeted runtime against the pruned chain must
        // produce the same proof bytes as a plain runtime against the
        // fully resident one.
        let mut cold_rt = Runtime::default();
        assert!(cold_rt.cold_storage().is_none());
        let spill_dir = parp_store::scratch_dir("cold-runtime-spill").unwrap();
        let spill = parp_store::SpillStore::open(&spill_dir).unwrap();
        cold_rt.enable_cold_storage(spill, 1); // force spills after every page
        assert!(cold_rt.cold_storage().is_some());
        let mut warm_rt = Runtime::default();
        for block in [1u64, 2, 3, 1, 2, 3] {
            // The header comes off a segment on one side and out of
            // memory on the other, and must be the same header.
            let header = cold_chain.header_at(block).unwrap();
            assert_eq!(Some(&header), resident.header_at(block).as_ref());
            let cold_proof = cold_rt.transaction_proof(&cold_chain, &header, 0);
            assert_eq!(cold_proof, warm_rt.transaction_proof(&resident, &header, 0));
            assert!(!cold_proof.is_empty());
            // Receipt and proof come off one page, cold or resident.
            let cold_receipt = cold_rt.receipt_proof(&cold_chain, &header, 0);
            assert_eq!(cold_receipt, warm_rt.receipt_proof(&resident, &header, 0));
            let (receipt, proof) = cold_receipt.expect("a receipt");
            assert_eq!(
                Some((receipt, proof.to_vecs())),
                resident.receipt_with_proof(block, 0)
            );
        }
        let tier = cold_rt.cold_storage().unwrap().tier();
        assert!(tier.spill_count() > 0, "tiny budget forced spills");
        assert!(tier.rehydrate_count() > 0, "revisits rehydrated from disk");
        // Unknown locations degrade to empty proofs, not panics.
        let mut ghost = resident.head().header.clone();
        ghost.number = blocks + 99;
        ghost.transactions_root = H256::new([0xee; 32]);
        ghost.receipts_root = H256::new([0xef; 32]);
        assert!(cold_rt.transaction_proof(&cold_chain, &ghost, 0).is_empty());
        assert!(warm_rt.transaction_proof(&resident, &ghost, 0).is_empty());
        assert_eq!(cold_rt.receipt_proof(&cold_chain, &ghost, 0), None);
        assert_eq!(warm_rt.receipt_proof(&resident, &ghost, 0), None);
        let _ = std::fs::remove_dir_all(dir);
        let _ = std::fs::remove_dir_all(spill_dir);
    }

    #[test]
    fn throttle_surfaces_retry_hint() {
        let mut runtime = Runtime::new(RuntimeConfig {
            burst_capacity: 2,
            rate_per_sec: 2,
        });
        let client = Address::from_low_u64_be(0xc1);
        assert!(runtime.admit(client, 2, 0).is_ok());
        let Err(RuntimeError::Throttled { retry_after_us }) = runtime.admit(client, 1, 0) else {
            panic!("expected throttle");
        };
        assert_eq!(retry_after_us, 500_000);
        assert_eq!(runtime.admission_stats(&client).admitted, 2);
        assert_eq!(runtime.admission_stats(&client).throttled, 1);
    }
}
