//! The deterministic in-process PARP network: one simulated chain, any
//! number of PARP full nodes and light clients, and a logical clock.
//!
//! Every exchange — `parp_call`, `parp_batch_call`, each leg of
//! `parp_call_fanout` — is one **leg** driven through four phases, each
//! written once and generic over what the leg carries
//! ([`parp_core::Exchange`]):
//!
//! 1. **open** — look the node up, count the call, draw the leg's fault,
//!    refuse on a crash or a partition, build and sign the request
//!    (Fig. 5 step A);
//! 2. **serve** — run the node (steps B + C), unless the request was
//!    lost on the way;
//! 3. **deliver** — corrupt, delay or lose the response, price the round
//!    trip, enforce the deadline, and have the client forget whatever
//!    did not arrive;
//! 4. **settle** — pair, classify and commit the payment (step D), then
//!    trace the leg and score the provider.
//!
//! A leg that ends early burns simulated time all the same (a refused
//! connection one hop, a timeout the whole deadline); the clock advances
//! by the leg, or by the slowest of concurrent legs.

use crate::fault::{FaultConfig, FaultEffect, FaultPlane};
use crate::latency::LatencyModel;
use parp_chain::{BlockError, Blockchain, SignedTransaction};
use parp_contracts::{
    build_module_call, ModuleCall, ParpBatchRequest, ParpBatchResponse, ParpExecutor, ParpRequest,
    ParpResponse, RpcCall, DISPUTE_WINDOW_BLOCKS,
};
use parp_core::{
    Classification, Exchange, FullNode, LightClient, ProcessBatchOutcome, ProcessOutcome,
    SequentialEngine, ServeError,
};
use parp_crypto::SecretKey;
use parp_primitives::{Address, U256};
use parp_runtime::Runtime;
use parp_telemetry::{
    ArgValue, Counter, Histogram, StageRecorder, StageSample, Telemetry, TimeSource,
};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Identifier of a registered full node within the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Serve-time quantum of the simulator's default deterministic clock:
/// every measured serve leg reports this many microseconds.
///
/// The simulator used to stamp `ExchangeStats::server_us` (and through
/// it the sim clock, provider aggregates, and reputation latencies)
/// with `Instant::now()` wall readings — host scheduling noise leaking
/// into what is otherwise a fully deterministic run (lint W002). By
/// default every serve measurement now reports this fixed quantum;
/// harnesses that genuinely measure the hardware (the Figure 7
/// scalability sweep, the bench binaries) opt back into wall time via
/// [`Network::set_time_source`].
pub const DEFAULT_SERVE_QUANTUM_US: u64 = 50;

/// Default per-call deadline budget against the simulated clock (µs):
/// generous enough that no fault-free exchange comes near it, tight
/// enough that *nothing* can hang the simulation — a dropped or
/// partitioned exchange burns at most this much simulated time and
/// surfaces as [`SimError::Timeout`]. Chaos scenarios tighten it via
/// [`Network::set_call_deadline_us`].
pub const DEFAULT_CALL_DEADLINE_US: u64 = 2_000_000;

/// Aggregate traffic and timing statistics for one PARP exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeStats {
    /// PARP request size on the wire (bytes).
    pub request_bytes: usize,
    /// PARP response size on the wire (bytes).
    pub response_bytes: usize,
    /// Merkle proof portion of the response (bytes).
    pub proof_bytes: usize,
    /// Server-side processing time (steps B+C), measured.
    pub server_us: u64,
    /// Simulated network round-trip time.
    pub network_us: u64,
}

impl ExchangeStats {
    /// End-to-end latency of the exchange: server time + network time.
    pub fn latency_us(&self) -> u64 {
        self.server_us + self.network_us
    }
}

/// Nearest-rank `q`-quantile of unsorted latency samples (0 when
/// empty): the **exact** percentile definition the fixed-memory
/// histograms approximate.
///
/// Production accounting ([`ProviderAggregate`], the gateway's
/// reputation book) now lives in [`parp_telemetry::Histogram`]s, whose
/// quantiles agree with this function within the histogram's
/// documented one-sided relative error
/// ([`parp_telemetry::RELATIVE_ERROR`] = 2⁻⁶ ≈ 1.56%, never *above*
/// the exact value). This O(n log n) full-sort form is kept as the
/// reference for tests and offline analysis of raw sample sets.
pub fn latency_quantile_us(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Rolling per-provider accounting the network maintains across every
/// exchange it carries: call and failure counts plus a **fixed-memory**
/// latency histogram, from which the gateway's reputation scorer and
/// the bench report read p50/p99. One exchange (single or batched)
/// counts once.
///
/// The aggregate used to retain every latency sample in an unbounded
/// `Vec<u64>` and re-sort it on each quantile query — memory and CPU
/// both scaling with exchange count, a wall for population-scale runs.
/// It now records into a [`parp_telemetry::Histogram`] (~30 KiB flat,
/// O(buckets) quantiles within the documented
/// [`parp_telemetry::RELATIVE_ERROR`]), and its counters are live
/// [`Counter`] cells a telemetry registry adopts per provider.
#[derive(Debug, Default)]
pub struct ProviderAggregate {
    calls: Counter,
    failures: Counter,
    latency: Arc<Histogram>,
}

impl ProviderAggregate {
    /// Exchanges attempted against this provider.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Exchanges that ended in a refusal, an invalid response, or
    /// detected fraud.
    pub fn failures(&self) -> u64 {
        self.failures.get()
    }

    /// Counts one attempted exchange.
    pub fn record_call(&self) {
        self.calls.inc();
    }

    /// Counts one failed exchange.
    pub fn record_failure(&self) {
        self.failures.inc();
    }

    /// Records a completed exchange's end-to-end latency.
    pub fn record_latency(&self, latency_us: u64) {
        self.latency.record(latency_us);
    }

    /// Number of latency samples recorded.
    pub fn samples(&self) -> u64 {
        self.latency.count()
    }

    /// Median exchange latency (µs; histogram quantile, within
    /// [`parp_telemetry::RELATIVE_ERROR`] below the exact
    /// nearest-rank value).
    pub fn latency_p50_us(&self) -> u64 {
        self.latency.quantile(0.50)
    }

    /// 99th-percentile exchange latency (µs; same error bound).
    pub fn latency_p99_us(&self) -> u64 {
        self.latency.quantile(0.99)
    }

    /// Arbitrary latency quantile (µs; same error bound).
    pub fn latency_quantile(&self, q: f64) -> u64 {
        self.latency.quantile(q)
    }

    /// Live counter handle for registry adoption.
    pub fn calls_counter(&self) -> Counter {
        self.calls.clone()
    }

    /// Live counter handle for registry adoption.
    pub fn failures_counter(&self) -> Counter {
        self.failures.clone()
    }

    /// Shared latency histogram for registry adoption.
    pub fn latency_histogram(&self) -> &Arc<Histogram> {
        &self.latency
    }

    /// Current memory footprint in bytes — constant in the number of
    /// recorded exchanges (the regression the telemetry tests assert).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.latency.mem_bytes()
    }
}

impl Clone for ProviderAggregate {
    /// Deep snapshot: the clone owns fresh cells holding the source's
    /// current readings (how scenario reports freeze per-provider
    /// stats without aliasing the live network accounting).
    fn clone(&self) -> Self {
        ProviderAggregate {
            calls: Counter::with_value(self.calls.get()),
            failures: Counter::with_value(self.failures.get()),
            latency: Arc::new(Histogram::clone(&self.latency)),
        }
    }
}

impl PartialEq for ProviderAggregate {
    fn eq(&self, other: &Self) -> bool {
        self.calls == other.calls
            && self.failures == other.failures
            && self.latency == other.latency
    }
}

impl Eq for ProviderAggregate {}

/// Errors surfaced by the simulation driver.
#[derive(Debug)]
pub enum SimError {
    /// The underlying chain rejected a block.
    Chain(BlockError),
    /// A full node refused to serve.
    Serve(ServeError),
    /// A client-side protocol error.
    Client(parp_core::ClientError),
    /// An on-chain module call reverted.
    Reverted(String),
    /// Unknown node id.
    UnknownNode(usize),
    /// The on-disk storage tier failed (opening or writing segment
    /// files for deep history).
    Storage(std::io::Error),
    /// A node with this registry address already exists in the
    /// simulation (same seed spawned twice).
    DuplicateNode(Address),
    /// The exchange exceeded the per-call deadline budget (the message
    /// was dropped, the provider partitioned away, or the response was
    /// delayed past the deadline). The simulated clock was charged the
    /// full deadline.
    Timeout {
        /// The provider the exchange was attempted against.
        provider: Address,
        /// The deadline budget that was burned (µs of simulated time).
        deadline_us: u64,
    },
    /// The provider's process is down (fault-plane crash window): the
    /// connection was refused immediately.
    Crashed(Address),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Chain(e) => write!(f, "chain error: {e}"),
            SimError::Serve(e) => write!(f, "serve error: {e}"),
            SimError::Client(e) => write!(f, "client error: {e}"),
            SimError::Reverted(e) => write!(f, "module call reverted: {e}"),
            SimError::UnknownNode(id) => write!(f, "unknown node {id}"),
            SimError::Storage(e) => write!(f, "storage error: {e}"),
            SimError::DuplicateNode(address) => {
                write!(
                    f,
                    "a full node with registry address {address} already exists \
                     (duplicate spawn seed?)"
                )
            }
            SimError::Timeout {
                provider,
                deadline_us,
            } => {
                write!(
                    f,
                    "exchange with {provider} exceeded its {deadline_us} µs deadline"
                )
            }
            SimError::Crashed(provider) => {
                write!(f, "provider {provider} is down (connection refused)")
            }
        }
    }
}

impl Error for SimError {}

impl From<BlockError> for SimError {
    fn from(e: BlockError) -> Self {
        SimError::Chain(e)
    }
}

impl From<ServeError> for SimError {
    fn from(e: ServeError) -> Self {
        SimError::Serve(e)
    }
}

impl From<parp_core::ClientError> for SimError {
    fn from(e: parp_core::ClientError) -> Self {
        SimError::Client(e)
    }
}

/// The simulated PARP network.
///
/// # Examples
///
/// ```
/// use parp_net::Network;
/// use parp_contracts::RpcCall;
/// use parp_core::ProcessOutcome;
/// use parp_primitives::U256;
///
/// let mut net = Network::new();
/// let node = net.spawn_node(b"node-1", U256::from(10u64));
/// let mut client = net.spawn_client(b"client-1", U256::from(10u64));
/// net.connect(&mut client, node, U256::from(100_000u64)).unwrap();
/// let (outcome, stats) = net
///     .parp_call(&mut client, node, RpcCall::BlockNumber)
///     .unwrap();
/// assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
/// assert!(stats.request_bytes > 0);
/// ```
#[derive(Debug)]
pub struct Network {
    chain: Blockchain,
    executor: ParpExecutor,
    nodes: Vec<FullNode>,
    nonces: HashMap<Address, u64>,
    latency: LatencyModel,
    faucet: SecretKey,
    clock_us: u64,
    /// The serving runtime every node's exchanges route through:
    /// the head trie it proves state off (re-taken by
    /// [`Network::mine`]), the inclusion-trie cache, and the admission
    /// controller the contention scenario drives.
    runtime: Runtime,
    /// Per-provider exchange accounting (see [`ProviderAggregate`]).
    provider_stats: HashMap<Address, ProviderAggregate>,
    /// The attached observability hub, if any (see
    /// [`Network::attach_telemetry`]).
    telemetry: Option<Telemetry>,
    /// Network-wide metric handles, present with `telemetry`.
    metrics: Option<NetMetrics>,
    /// Shared per-stage serve-timing scratch every node reports into
    /// (drained per exchange to emit trace sub-spans).
    stages: StageRecorder,
    /// The injected clock every serve-time measurement routes through
    /// (see [`DEFAULT_SERVE_QUANTUM_US`]): deterministic by default,
    /// wall time when a measurement harness injects it.
    time: TimeSource,
    /// The installed fault schedule, if any (see
    /// [`Network::install_fault_plane`]).
    fault: Option<FaultPlane>,
    /// Per-call deadline budget in simulated µs (see
    /// [`DEFAULT_CALL_DEADLINE_US`]). A dropped, partitioned, or
    /// over-delayed exchange charges exactly this much simulated time
    /// and returns [`SimError::Timeout`] — no exchange can hang.
    call_deadline_us: u64,
}

/// The network's registered global metric handles.
#[derive(Debug, Clone)]
struct NetMetrics {
    exchanges_total: Counter,
    failures_total: Counter,
    exchange_latency_us: Arc<Histogram>,
}

/// How a leg flies — the two things the entry points do differently,
/// as data the phase functions read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flight {
    /// The only leg of its exchange (`parp_call`, `parp_batch_call`): a
    /// drop loses the **request**, so the node never serves, and the
    /// leg traces its whole request lifecycle.
    Alone,
    /// One of several legs sharing a window (`parp_call_fanout`): a drop
    /// loses the **response** after the node served, and the leg traces
    /// as one `quorum_leg` span.
    Concurrent,
}

/// One exchange with one provider, between `open` and `settle`.
struct Leg<E: Exchange> {
    node_id: NodeId,
    provider: Address,
    /// The fault drawn for this leg when it opened.
    effect: FaultEffect,
    flight: Flight,
    /// RPC calls the request carries.
    calls: u64,
    request: E::Request,
}

impl<E: Exchange> Leg<E> {
    /// Whether the request gets as far as the node.
    fn reaches_node(&self) -> bool {
        !(self.effect == FaultEffect::Drop && self.flight == Flight::Alone)
    }
}

/// A leg that ended early: the error, and the simulated time it burned
/// before ending.
type Burn = (SimError, u64);

/// What the serve phase hands to delivery: the response and the measured
/// serve time, `None` when the request never reached the node, or the
/// node's refusal.
type Served<E> = Result<Option<(<E as Exchange>::Response, u64)>, SimError>;

/// The network method that runs a node on one kind of request.
type ServeFn<E> = fn(
    &mut Network,
    NodeId,
    &<E as Exchange>::Request,
) -> Result<<E as Exchange>::Response, SimError>;

/// Splits a finished leg into what the caller sees and the simulated
/// time the leg burned: its round trip when it flew one, else what it
/// cost to fail.
fn finish<T>(
    flown: Result<(T, ExchangeStats), Burn>,
) -> (Result<(T, ExchangeStats), SimError>, u64) {
    match flown {
        Ok((outcome, stats)) => {
            let burned_us = stats.latency_us();
            (Ok((outcome, stats)), burned_us)
        }
        Err((error, burned_us)) => (Err(error), burned_us),
    }
}

/// Funds given to every spawned identity: 100 tokens.
fn spawn_grant() -> U256 {
    U256::from(100u64) * U256::from(1_000_000_000_000_000_000u64)
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates a network with a funded faucet and default LAN latency.
    pub fn new() -> Self {
        Self::with_latency(LatencyModel::default())
    }

    /// Creates a network with a custom latency model.
    pub fn with_latency(latency: LatencyModel) -> Self {
        let faucet = SecretKey::from_seed(b"network-faucet");
        // Faucet holds 2^170-ish wei: enough for any experiment.
        let supply = U256::ONE << 170;
        let chain = Blockchain::new(vec![(faucet.address(), supply)]);
        let time = TimeSource::fixed(DEFAULT_SERVE_QUANTUM_US);
        let mut runtime = Runtime::default();
        runtime.set_time_source(time.clone());
        Network {
            chain,
            executor: ParpExecutor::new(),
            nodes: Vec::new(),
            nonces: HashMap::new(),
            latency,
            faucet,
            clock_us: 0,
            runtime,
            provider_stats: HashMap::new(),
            telemetry: None,
            metrics: None,
            stages: StageRecorder::new(),
            time,
            fault: None,
            call_deadline_us: DEFAULT_CALL_DEADLINE_US,
        }
    }

    /// Installs a seeded fault schedule: from now on every
    /// `parp_call` / `parp_batch_call` / fan-out leg consults the plane
    /// before flying. Replaces any previously installed plane (and its
    /// step counter). With telemetry attached, the plane's injection
    /// counters are registered immediately.
    pub fn install_fault_plane(&mut self, config: FaultConfig) {
        let plane = FaultPlane::new(config);
        if let Some(telemetry) = &self.telemetry {
            plane.register(telemetry);
        }
        self.fault = Some(plane);
    }

    /// The installed fault plane, if any (step counter + injection
    /// counters).
    pub fn fault_plane(&self) -> Option<&FaultPlane> {
        self.fault.as_ref()
    }

    /// Sets the per-call deadline budget (simulated µs). Values below
    /// one serve quantum are clamped to it.
    pub fn set_call_deadline_us(&mut self, deadline_us: u64) {
        self.call_deadline_us = deadline_us.max(DEFAULT_SERVE_QUANTUM_US);
    }

    /// The per-call deadline budget (simulated µs).
    pub fn call_deadline_us(&self) -> u64 {
        self.call_deadline_us
    }

    /// Advances the simulated clock by `us` without carrying any
    /// traffic — how resilience layers above the network model backoff
    /// waits and other deliberate pauses.
    pub fn advance_clock(&mut self, us: u64) {
        self.clock_us += us;
    }

    /// Draws the fault effect for one exchange attempt against node
    /// `node_index` (no-op [`FaultEffect::None`] without a plane).
    fn fault_effect(&mut self, node_index: usize) -> FaultEffect {
        match &mut self.fault {
            Some(plane) => plane.decide(node_index),
            None => FaultEffect::None,
        }
    }

    /// Replaces the clock serve-time measurements route through — for
    /// the whole network *and* its serving runtime (and every already
    /// spawned node's stage recorder). The default is a deterministic
    /// [`TimeSource::fixed`] quantum; measurement harnesses inject
    /// [`TimeSource::wall`] to time the hardware.
    pub fn set_time_source(&mut self, time: TimeSource) {
        self.time = time.clone();
        self.runtime.set_time_source(time.clone());
        for node in &mut self.nodes {
            node.set_time_source(time.clone());
        }
    }

    /// The clock serve-time measurements route through.
    pub fn time_source(&self) -> &TimeSource {
        &self.time
    }

    /// Attaches an observability hub: registers the runtime's and the
    /// network's metrics with `telemetry.registry` (adopting every
    /// live counter and per-provider aggregate, so attaching late
    /// loses no counts), wires a shared [`StageRecorder`] into every
    /// node, and — when `telemetry.tracer` is enabled — starts
    /// emitting per-exchange request-lifecycle spans stamped with the
    /// simulated clock (sign → flight → serve with verify / multiproof
    /// / sign-response sub-spans → flight → classify).
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.runtime.attach_telemetry(telemetry);
        let r = &telemetry.registry;
        self.metrics = Some(NetMetrics {
            exchanges_total: r.counter("parp_net_exchanges_total", &[]),
            failures_total: r.counter("parp_net_failures_total", &[]),
            exchange_latency_us: r.histogram("parp_net_exchange_latency_us", &[]),
        });
        for (provider, aggregate) in &self.provider_stats {
            Self::register_provider(telemetry, *provider, aggregate);
        }
        if let Some(plane) = &self.fault {
            plane.register(telemetry);
        }
        telemetry.tracer.name_track(0, "client");
        for (index, node) in self.nodes.iter_mut().enumerate() {
            node.set_stage_recorder(Some(self.stages.clone()));
            telemetry
                .tracer
                .name_track(index as u32 + 1, &format!("provider {}", node.address()));
        }
        self.telemetry = Some(telemetry.clone());
    }

    /// The attached observability hub, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    fn register_provider(telemetry: &Telemetry, provider: Address, aggregate: &ProviderAggregate) {
        let address = provider.to_string();
        let labels = [("provider", address.as_str())];
        let r = &telemetry.registry;
        r.adopt_counter(
            "parp_net_provider_calls_total",
            &labels,
            &aggregate.calls_counter(),
        );
        r.adopt_counter(
            "parp_net_provider_failures_total",
            &labels,
            &aggregate.failures_counter(),
        );
        r.adopt_histogram(
            "parp_net_provider_latency_us",
            &labels,
            aggregate.latency_histogram(),
        );
    }

    /// The aggregate for `provider`, created (and, with telemetry
    /// attached, registered under per-provider labels) on first touch.
    fn provider_entry(&mut self, provider: Address) -> &mut ProviderAggregate {
        let telemetry = &self.telemetry;
        self.provider_stats.entry(provider).or_insert_with(|| {
            let aggregate = ProviderAggregate::default();
            if let Some(telemetry) = telemetry {
                Self::register_provider(telemetry, provider, &aggregate);
            }
            aggregate
        })
    }

    /// Replaces the serving runtime (inclusion-cache size, admission
    /// limits). The existing cache is dropped with the old runtime; the
    /// network's injected clock carries over so a runtime swap cannot
    /// silently reintroduce wall-clock readings into the sim.
    pub fn set_runtime(&mut self, runtime: Runtime) {
        self.runtime = runtime;
        self.runtime.set_time_source(self.time.clone());
    }

    /// The serving runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Mutable access to the serving runtime (admission checks).
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// The simulated chain.
    pub fn chain(&self) -> &Blockchain {
        &self.chain
    }

    /// The on-chain module state.
    pub fn executor(&self) -> &ParpExecutor {
        &self.executor
    }

    /// A registered node.
    ///
    /// # Panics
    ///
    /// Panics on an unknown id.
    pub fn node(&self, id: NodeId) -> &FullNode {
        &self.nodes[id.0]
    }

    /// Mutable access to a registered node (e.g. to inject misbehavior).
    pub fn node_mut(&mut self, id: NodeId) -> &mut FullNode {
        &mut self.nodes[id.0]
    }

    /// Elapsed simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// Mines a block with the given transactions.
    ///
    /// # Errors
    ///
    /// Propagates chain validation failures.
    pub fn mine(&mut self, txs: Vec<SignedTransaction>) -> Result<(), SimError> {
        self.chain.produce_block(txs, &mut self.executor)?;
        // The head moved: hand the runtime the new head's trie (it lets
        // go of the old one) so the next exchange is a cache hit.
        self.runtime.note_new_head(&self.chain);
        Ok(())
    }

    /// Mines `n` empty blocks (time passing).
    ///
    /// # Errors
    ///
    /// Propagates chain validation failures.
    pub fn advance_blocks(&mut self, n: u64) -> Result<(), SimError> {
        for _ in 0..n {
            self.mine(Vec::new())?;
        }
        Ok(())
    }

    fn next_nonce(&mut self, address: Address) -> u64 {
        // Track nonces locally so queued transactions in one block don't
        // collide; fall back to chain state for fresh accounts.
        let chain_nonce = self.chain.nonce(&address);
        let entry = self.nonces.entry(address).or_insert(chain_nonce);
        if *entry < chain_nonce {
            *entry = chain_nonce;
        }
        let nonce = *entry;
        *entry += 1;
        nonce
    }

    /// Submits a module call from `key`, mines it, and returns whether the
    /// receipt reported success.
    ///
    /// # Errors
    ///
    /// Fails when the chain rejects the transaction outright.
    pub fn submit_module_call(
        &mut self,
        key: &SecretKey,
        call: ModuleCall,
        value: U256,
    ) -> Result<bool, SimError> {
        let nonce = self.next_nonce(key.address());
        let tx = build_module_call(key, nonce, call, value);
        self.mine(vec![tx])?;
        let receipts = self
            .chain
            .receipts(self.chain.height())
            .expect("just mined");
        Ok(receipts.last().map(|r| r.status == 1).unwrap_or(false))
    }

    /// Creates, funds, stakes and registers a PARP full node, returning
    /// its id.
    ///
    /// # Panics
    ///
    /// Panics when a node with the same registry address already exists
    /// (a duplicate seed would otherwise silently create a second
    /// `FullNode` behind one on-chain identity — the second `Deposit`
    /// just tops up the first, and every registry-keyed view would
    /// conflate the two). Use [`Network::try_spawn_node`] to handle the
    /// collision as a value.
    pub fn spawn_node(&mut self, seed: &[u8], price_per_call: U256) -> NodeId {
        match self.try_spawn_node(seed, price_per_call) {
            Ok(id) => id,
            Err(e) => panic!("spawn_node: {e}"),
        }
    }

    /// Fallible [`Network::spawn_node`]: detects registry-address
    /// collisions instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateNode`] when a node with the same
    /// address is already registered.
    pub fn try_spawn_node(
        &mut self,
        seed: &[u8],
        price_per_call: U256,
    ) -> Result<NodeId, SimError> {
        let key = SecretKey::from_seed(seed);
        if self.nodes.iter().any(|n| n.address() == key.address()) {
            return Err(SimError::DuplicateNode(key.address()));
        }
        self.fund(key.address());
        let stake = parp_contracts::min_deposit();
        assert!(
            self.submit_module_call(&key.clone(), ModuleCall::Deposit, stake)
                .expect("deposit tx"),
            "deposit must succeed"
        );
        assert!(
            self.submit_module_call(&key, ModuleCall::SetServing { serving: true }, U256::ZERO)
                .expect("serving tx"),
            "serving registration must succeed"
        );
        let mut node = FullNode::new(key, price_per_call);
        node.set_time_source(self.time.clone());
        if let Some(telemetry) = &self.telemetry {
            node.set_stage_recorder(Some(self.stages.clone()));
            telemetry.tracer.name_track(
                self.nodes.len() as u32 + 1,
                &format!("provider {}", node.address()),
            );
        }
        self.nodes.push(node);
        Ok(NodeId(self.nodes.len() - 1))
    }

    /// Looks up a registered node's simulation id by its registry
    /// address — how a registry-driven client maps on-chain discovery
    /// onto a serving endpoint.
    pub fn node_id_by_address(&self, address: &Address) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.address() == *address)
            .map(NodeId)
    }

    /// Creates and funds a light client identity.
    pub fn spawn_client(&mut self, seed: &[u8], price_per_call: U256) -> LightClient {
        let key = SecretKey::from_seed(seed);
        self.fund(key.address());
        LightClient::new(key, price_per_call)
    }

    /// Sends 100 tokens from the faucet to `address`.
    pub fn fund(&mut self, address: Address) {
        let nonce = self.next_nonce(self.faucet.address());
        let tx = parp_chain::Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(address),
            value: spawn_grant(),
            data: Vec::new(),
        }
        .sign(&self.faucet.clone());
        self.mine(vec![tx]).expect("faucet transfer");
    }

    /// Funds many addresses with as few blocks as possible (chunked to
    /// stay under the block gas limit) — the way to populate a large
    /// state for throughput experiments without mining one block per
    /// account.
    pub fn fund_many(&mut self, addresses: &[Address]) {
        // 21k gas per transfer against a 30M block limit → stay well
        // below with 1000 transfers per block.
        for chunk in addresses.chunks(1000) {
            let faucet = self.faucet;
            let txs: Vec<SignedTransaction> = chunk
                .iter()
                .map(|address| {
                    let nonce = self.next_nonce(faucet.address());
                    parp_chain::Transaction {
                        nonce,
                        gas_price: U256::ZERO,
                        gas_limit: 21_000,
                        to: Some(*address),
                        value: spawn_grant(),
                        data: Vec::new(),
                    }
                    .sign(&faucet)
                })
                .collect();
            self.mine(txs).expect("bulk faucet transfer");
        }
    }

    /// The on-chain serving registry (how clients discover nodes, §IV-A).
    ///
    /// Duplicate-free by construction: the FNDM keys records by address
    /// and [`Network::spawn_node`] refuses address collisions, so one
    /// entry here is one distinct serving identity.
    pub fn registry(&self) -> Vec<Address> {
        self.executor.fndm().registry()
    }

    /// Every mined transaction as `(hash, containing block)` in chain
    /// order — the supply of historical inclusion-lookup targets for
    /// mixed batched workloads and tests ([`Network::fund`] mines one
    /// faucet transfer per call, so funding N addresses leaves N
    /// targets spread over N distinct blocks).
    pub fn transaction_locations(&self) -> Vec<(parp_primitives::H256, u64)> {
        // `transactions_at` decodes pruned blocks out of the history
        // segments, so the supply of lookup targets survives deep
        // history (blocks the node never archived contribute nothing).
        (1..=self.chain.height())
            .flat_map(|number| {
                self.chain
                    .transactions_at(number)
                    .unwrap_or_default()
                    .iter()
                    .map(|tx| (tx.hash(), number))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Syncs a client's header store up to the chain head.
    pub fn sync_client(&self, client: &mut LightClient) {
        let from = client.tip().map(|h| h.number + 1).unwrap_or(0);
        for n in from..=self.chain.height() {
            // `header_at` falls through to the history segments for
            // headers behind the resident window.
            if let Some(header) = self.chain.header_at(n) {
                client.sync_header(header);
            }
        }
    }

    /// Turns on the storage tier for deep historical serving: attaches
    /// an append-only [`parp_store::BlockStore`] to the chain (archiving
    /// every block and pruning the resident window down to `window`,
    /// floored at [`parp_chain::MIN_HISTORY_WINDOW`]) and routes the
    /// runtime's inclusion proofs through a cold-storage tier whose
    /// resident trie pages are bounded by `storage_budget_bytes`.
    ///
    /// Call before [`Network::attach_telemetry`] so the tier's counters
    /// are adopted, and before mining the history the scenario will
    /// look back into.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Storage`] when the segment files cannot be
    /// created.
    pub fn enable_deep_history(
        &mut self,
        window: u64,
        storage_budget_bytes: usize,
    ) -> Result<(), SimError> {
        let history_dir = parp_store::scratch_dir("net-history").map_err(SimError::Storage)?;
        let store = parp_store::BlockStore::open(&history_dir).map_err(SimError::Storage)?;
        self.chain
            .attach_history(store, window)
            .map_err(SimError::Storage)?;
        let spill_dir = parp_store::scratch_dir("net-spill").map_err(SimError::Storage)?;
        let spill = parp_store::SpillStore::open(&spill_dir).map_err(SimError::Storage)?;
        self.runtime
            .enable_cold_storage(spill, storage_budget_bytes);
        Ok(())
    }

    /// Runs the full bootstrap + connection setup of §IV-E: header sync,
    /// handshake, `OpenChannel` transaction, receipt. Returns the channel
    /// id.
    ///
    /// # Errors
    ///
    /// Propagates handshake and chain failures.
    pub fn connect(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
        budget: U256,
    ) -> Result<u64, SimError> {
        self.sync_client(client);
        let node = self
            .nodes
            .get(node_id.0)
            .ok_or(SimError::UnknownNode(node_id.0))?;
        let provider = node.address();
        client.start_handshake(provider)?;
        let now = self.chain.head().header.timestamp;
        let confirm = node.confirm_handshake(client.address(), now);
        self.clock_us += self.latency.round_trip_us(64, 128);
        let nonce = self.next_nonce(client.address());
        let open_tx = client.accept_confirmation(provider, &confirm, budget, nonce)?;
        self.mine(vec![open_tx])?;
        let receipts = self
            .chain
            .receipts(self.chain.height())
            .expect("just mined");
        if receipts.last().map(|r| r.status) != Some(1) {
            client.abandon_provider(provider);
            return Err(SimError::Reverted("open channel reverted".into()));
        }
        let channel_id = self.executor.cmm().channel_count() as u64 - 1;
        client.channel_opened(provider, channel_id)?;
        self.sync_client(client);
        Ok(channel_id)
    }

    /// One full PARP exchange: the client builds a request, the node
    /// serves it, the client verifies the response.
    ///
    /// # Errors
    ///
    /// Propagates client and server refusals (a *served but corrupt*
    /// response is not an error — it comes back as the outcome).
    pub fn parp_call(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
        call: RpcCall,
    ) -> Result<(ProcessOutcome, ExchangeStats), SimError> {
        self.exchange(client, node_id, call, Self::serve)
    }

    /// One full **batched** PARP exchange: the client signs N calls once,
    /// the node serves them against a single snapshot with a deduplicated
    /// multiproof, and the client classifies every item.
    ///
    /// # Errors
    ///
    /// Propagates client and server refusals (a *served but corrupt*
    /// response is not an error — it comes back as the outcome).
    pub fn parp_batch_call(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
        calls: Vec<RpcCall>,
    ) -> Result<(ProcessBatchOutcome, ExchangeStats), SimError> {
        self.exchange(client, node_id, calls, Self::serve_batch)
    }

    /// One leg flying alone through the four phases; the clock advances
    /// by what the leg burned.
    fn exchange<E: Exchange>(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
        payload: E,
        serve: ServeFn<E>,
    ) -> Result<(E::Outcome, ExchangeStats), SimError> {
        let trace_t0 = self.exchange_trace_start();
        let opened = self.open(client, node_id, payload, Flight::Alone);
        let flown = opened.and_then(|leg| {
            let served = self.serve_leg(&leg, serve);
            let (response, stats) = self.deliver(client, &leg, served)?;
            let classified = E::settle(client, leg.provider, &response);
            self.settle(&leg, stats, classified, trace_t0)
        });
        let (result, burned_us) = finish(flown);
        self.clock_us += burned_us;
        result
    }

    /// Fans one call out to several providers **concurrently** — the
    /// transport the gateway's quorum reads ride on. Per-leg results
    /// come back in input order.
    ///
    /// Every leg goes through the same four phases as a leg flying alone
    /// (see the module docs), one phase at a time across all legs. What
    /// differs is how a leg flies — a drop loses the *response*, after
    /// the node served, and a leg traces as one `quorum_leg` span — plus
    /// two things this function owns:
    ///
    /// * **concurrency** — the legs' nodes serve in parallel (one worker
    ///   per core at most; one after the other when a leg carries a
    ///   write, node ids repeat, or the host has a single core) and the
    ///   §V-D classifications fan out via
    ///   [`LightClient::process_responses_from`]; opening, delivery and
    ///   scoring stay sequential, in leg order, so fault draws and
    ///   ledgers do not depend on worker interleaving;
    /// * **the clock rule** — the legs share one window, so the
    ///   simulated clock advances by the **slowest leg**, not the sum.
    pub fn parp_call_fanout(
        &mut self,
        client: &mut LightClient,
        legs: &[(NodeId, RpcCall)],
    ) -> Vec<Result<(ProcessOutcome, ExchangeStats), SimError>> {
        let trace_t0 = self.exchange_trace_start();
        let opened: Vec<Result<Leg<RpcCall>, Burn>> = legs
            .iter()
            .map(|(node_id, call)| self.open(client, *node_id, call.clone(), Flight::Concurrent))
            .collect();
        let served = self.serve_all(&opened);
        let mut responses = Vec::new();
        let delivered: Vec<Result<(Leg<RpcCall>, ExchangeStats), Burn>> = opened
            .into_iter()
            .zip(served)
            .map(|(opened, served)| {
                let leg = opened?;
                let (response, stats) = self.deliver(client, &leg, served)?;
                responses.push((leg.provider, response));
                Ok((leg, stats))
            })
            .collect();
        let mut classified = client.process_responses_from(&responses).into_iter();
        let (results, burned_us): (Vec<_>, Vec<u64>) = delivered
            .into_iter()
            .map(|delivered| {
                finish(delivered.and_then(|(leg, stats)| {
                    let unpaired = Err(parp_core::ClientError::UnknownResponse);
                    let classified = classified.next().unwrap_or(unpaired);
                    self.settle(&leg, stats, classified, trace_t0)
                }))
            })
            .unzip();
        self.clock_us += burned_us.into_iter().max().unwrap_or(0);
        results
    }

    /// Phase 1, **open**: looks the node up, draws the leg's fault,
    /// refuses on a crash or a partition, and has the client build and
    /// sign the request. The call is counted against the provider once
    /// it is known to go out (or to be refused by a fault); a client
    /// refusal scores nothing.
    fn open<E: Exchange>(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
        payload: E,
        flight: Flight,
    ) -> Result<Leg<E>, Burn> {
        let node = self.nodes.get(node_id.0);
        let provider = node.ok_or((SimError::UnknownNode(node_id.0), 0))?.address();
        let effect = self.fault_effect(node_id.0);
        let refused = match effect {
            // Connection refused: the attempt costs one one-way hop.
            FaultEffect::Crashed => {
                Some((SimError::Crashed(provider), self.latency.one_way_us(64)))
            }
            // The request vanishes into the partition; the caller's
            // deadline burns in full.
            FaultEffect::Partitioned => Some(self.timed_out(provider)),
            _ => None,
        };
        if let Some(burn) = refused {
            self.provider_entry(provider).record_call();
            self.note_provider_failure(provider);
            return Err(burn);
        }
        let calls = payload.calls();
        let request = payload.build(client, provider).map_err(|e| (e.into(), 0))?;
        self.provider_entry(provider).record_call();
        Ok(Leg {
            node_id,
            provider,
            effect,
            flight,
            calls,
            request,
        })
    }

    /// Phase 2, **serve**: runs the node and measures it — unless the
    /// request never reached it.
    fn serve_leg<E: Exchange>(&mut self, leg: &Leg<E>, serve: ServeFn<E>) -> Served<E> {
        if !leg.reaches_node() {
            return Ok(None);
        }
        let started = self.time.start();
        let response = serve(self, leg.node_id, &leg.request)?;
        Ok(Some((response, self.time.elapsed_us(started))))
    }

    /// Phase 2 for a fan-out: serves every opened leg, one [`Served`] per
    /// input leg. The legs' nodes run in parallel via
    /// [`parp_crypto::par_map`] — at most one worker per core, the
    /// calling thread among them — each doing request verification,
    /// proof generation off the shared `Arc`-frozen head trie, and
    /// response signing over one `&Blockchain` (read-only calls never
    /// mutate the chain, enforced by [`FullNode::handle_read_request`]).
    ///
    /// Falls back to serving the legs one after the other when a leg
    /// carries a write, node ids repeat, or the host has a single core.
    /// Responses are byte-identical either way.
    fn serve_all(&mut self, opened: &[Result<Leg<RpcCall>, Burn>]) -> Vec<Served<RpcCall>> {
        let legs: Vec<&Leg<RpcCall>> = opened.iter().flatten().collect();
        let parallel_ok = opened.len() > 1
            && legs
                .iter()
                .all(|leg| !matches!(leg.request.call, RpcCall::SendRawTransaction { .. }))
            && {
                let mut seen = HashSet::new();
                legs.iter().all(|leg| seen.insert(leg.node_id.0))
            }
            && std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                > 1;
        if !parallel_ok {
            return opened
                .iter()
                .map(|opened| match opened {
                    Ok(leg) => self.serve_leg(leg, Self::serve),
                    Err(_) => Ok(None),
                })
                .collect();
        }
        // The fan-out touches the head slot once, as one exchange
        // would; each leg then proves through `SequentialEngine` off the
        // trie the head state memoises (the `Arc` the slot holds), over
        // disjoint &mut nodes + one &chain.
        self.runtime.note_new_head(&self.chain);
        let clock = self.time.clone();
        let Network {
            nodes,
            chain,
            executor,
            ..
        } = &mut *self;
        let (chain, executor) = (&*chain, &*executor);
        let mut node_slots: HashMap<usize, &mut FullNode> = nodes.iter_mut().enumerate().collect();
        // Each leg owns its node; the mutex only carries that `&mut`
        // across `par_map`'s shared slice (never contended: one leg,
        // one worker).
        let jobs: Vec<_> = opened
            .iter()
            .enumerate()
            .filter_map(|(index, opened)| {
                let leg = opened.as_ref().ok().filter(|leg| leg.reaches_node())?;
                let node = node_slots.remove(&leg.node_id.0)?;
                Some((index, &leg.request, Mutex::new(node)))
            })
            .collect();
        // One worker per core at most, the calling thread among
        // them: a spawn costs about what a leg does.
        let worker_results = parp_crypto::par_map(&jobs, |(index, request, slot)| {
            let mut node = slot.lock().unwrap_or_else(PoisonError::into_inner);
            let started = clock.start();
            let outcome = node.handle_read_request(request, chain, executor, &mut SequentialEngine);
            (*index, outcome, clock.elapsed_us(started))
        });
        let mut served: Vec<Served<RpcCall>> = opened.iter().map(|_| Ok(None)).collect();
        for (index, outcome, server_us) in worker_results {
            served[index] = outcome
                .map(|response| Some((response, server_us)))
                .map_err(SimError::Serve);
        }
        served
    }

    /// Phase 3, **deliver**: brings the response back to the client —
    /// corrupted, delayed or lost as the leg's fault has it — computes
    /// the round trip and enforces the deadline. Whatever was refused,
    /// lost or late is forgotten by the client (its payment ledger only
    /// moves on a processed response); what was lost or late burns the
    /// deadline.
    fn deliver<E: Exchange>(
        &mut self,
        client: &mut LightClient,
        leg: &Leg<E>,
        served: Served<E>,
    ) -> Result<(E::Response, ExchangeStats), Burn> {
        let request_hash = E::request_hash(&leg.request);
        let arrived = match served {
            Ok(arrived) => arrived,
            Err(refusal) => {
                // Refused unserved: the node holds nothing new, and the
                // channel stays usable for the next request.
                client.forget_pending(leg.provider, &request_hash);
                self.note_provider_failure(leg.provider);
                return Err((refusal, 0));
            }
        };
        if let Some((mut response, server_us)) = arrived {
            // The one place a served response is damaged, held up
            // (`Some(added µs)`) or lost (`None`) — "served, then lost":
            // the node has recorded σ_a and counted the request, the
            // client will never see the reply.
            let added_us = match leg.effect {
                FaultEffect::Drop => None,
                FaultEffect::Corrupt { nudge } => {
                    E::corrupt(&mut response, nudge);
                    Some(0)
                }
                FaultEffect::Delay { added_us } => Some(added_us),
                FaultEffect::None | FaultEffect::Crashed | FaultEffect::Partitioned => Some(0),
            };
            // The client needs the header for res.m_B before verifying.
            self.sync_client(client);
            if let Some(added_us) = added_us {
                let (request_bytes, response_bytes, proof_bytes) =
                    E::wire_bytes(&leg.request, &response);
                let flight_us = self.latency.round_trip_us(request_bytes, response_bytes);
                let stats = ExchangeStats {
                    request_bytes,
                    response_bytes,
                    proof_bytes,
                    server_us,
                    network_us: flight_us + added_us,
                };
                // A response past the deadline exists, but the client
                // already walked away, so it is never classified.
                if stats.latency_us() <= self.call_deadline_us {
                    return Ok((response, stats));
                }
            }
        }
        // Lost or late. When the node served, it holds this request's
        // σ_a, so its ledger is now ahead of the client's by this call's
        // price; the next request on the channel is refused with that
        // (a, σ_a), which the client may reconcile from.
        client.forget_pending(leg.provider, &request_hash);
        self.note_provider_failure(leg.provider);
        Err(self.timed_out(leg.provider))
    }

    /// Phase 4, **settle**: takes the client's classification of the
    /// delivered response (pairing and payment commit included), emits
    /// the leg's trace and scores the provider. The pairing was scoped
    /// to the provider's connection, so it can never cross onto another
    /// channel.
    fn settle<E: Exchange>(
        &mut self,
        leg: &Leg<E>,
        stats: ExchangeStats,
        classified: Result<E::Outcome, parp_core::ClientError>,
        trace_t0: Option<u64>,
    ) -> Result<(E::Outcome, ExchangeStats), Burn> {
        // A leg that flew its round trip burned it, whatever the client
        // concludes about the payload.
        let outcome = match classified {
            Ok(outcome) => outcome,
            Err(e) => {
                self.note_provider_failure(leg.provider);
                return Err((e.into(), stats.latency_us()));
            }
        };
        let verdict = E::verdict(&outcome);
        if let Some(t0) = trace_t0 {
            self.trace_leg(leg, t0, &stats, verdict.label());
        }
        let valid = matches!(verdict, Classification::Valid);
        self.note_provider_outcome(leg.provider, valid, stats.latency_us());
        Ok((outcome, stats))
    }

    /// A deadline burn against `provider`: counts it and prices it.
    fn timed_out(&self, provider: Address) -> Burn {
        if let Some(plane) = &self.fault {
            plane.note_timeout();
        }
        let deadline_us = self.call_deadline_us;
        let timeout = SimError::Timeout {
            provider,
            deadline_us,
        };
        (timeout, deadline_us)
    }

    /// When tracing is live, drains stale stage timings (so the coming
    /// exchange's sub-spans are its own) and returns the sim-clock
    /// timestamp the exchange starts at.
    fn exchange_trace_start(&self) -> Option<u64> {
        let telemetry = self.telemetry.as_ref()?;
        if !telemetry.tracer.enabled() {
            return None;
        }
        self.stages.take();
        Some(self.clock_us)
    }

    /// Emits the trace of one settled leg. A leg flying alone gets the
    /// request-lifecycle spans on the simulated-clock timeline
    /// `[t0, t0 + network + server]` — exactly the interval the exchange
    /// advances `clock_us` by, so consecutive exchanges' spans never
    /// overlap and always sort in sim-clock order:
    ///
    /// ```text
    /// client track:   sign ▸ [request_flight] ............ [response_flight] ▸ classify
    /// provider track:                [serve: verify|multiproof|sign_response]
    /// ```
    ///
    /// Stage sub-spans come from the shared [`StageRecorder`] the
    /// node stamped while serving (wall-clock µs, clamped to the
    /// serve interval). Concurrent legs share the window
    /// `[t0, t0 + slowest]`; each gets one `quorum_leg` span on its
    /// provider track.
    fn trace_leg<E: Exchange>(&self, leg: &Leg<E>, t0: u64, stats: &ExchangeStats, verdict: &str) {
        let Some(telemetry) = &self.telemetry else {
            return;
        };
        let tracer = &telemetry.tracer;
        let tid = leg.node_id.0 as u32 + 1;
        if leg.flight == Flight::Concurrent {
            let args = vec![
                ("server_us".to_string(), ArgValue::U64(stats.server_us)),
                ("network_us".to_string(), ArgValue::U64(stats.network_us)),
                ("verdict".to_string(), ArgValue::Str(verdict.to_string())),
            ];
            tracer.span("quorum_leg", "net", t0, stats.latency_us(), tid, args);
            return;
        }
        let stages = self.stages.take();
        let calls = leg.calls;
        let up_us = self.latency.one_way_us(stats.request_bytes);
        let down_us = stats.network_us.saturating_sub(up_us);
        let t_end = t0 + stats.network_us + stats.server_us;
        tracer.span(
            "exchange",
            "net",
            t0,
            t_end - t0,
            0,
            vec![
                ("kind".to_string(), ArgValue::Str(E::KIND.to_string())),
                ("calls".to_string(), ArgValue::U64(calls)),
                ("verdict".to_string(), ArgValue::Str(verdict.to_string())),
            ],
        );
        tracer.instant(
            "sign_request",
            "client",
            t0,
            0,
            vec![(
                "request_bytes".to_string(),
                ArgValue::U64(stats.request_bytes as u64),
            )],
        );
        tracer.span("request_flight", "net", t0, up_us, 0, Vec::new());
        let serve_ts = t0 + up_us;
        tracer.span(
            "serve",
            "serve",
            serve_ts,
            stats.server_us,
            tid,
            vec![
                ("calls".to_string(), ArgValue::U64(calls)),
                (
                    "proof_bytes".to_string(),
                    ArgValue::U64(stats.proof_bytes as u64),
                ),
            ],
        );
        self.trace_serve_stages(serve_ts, stats.server_us, tid, &stages);
        tracer.span(
            "response_flight",
            "net",
            serve_ts + stats.server_us,
            down_us,
            0,
            vec![(
                "response_bytes".to_string(),
                ArgValue::U64(stats.response_bytes as u64),
            )],
        );
        tracer.instant(
            "classify",
            "client",
            t_end,
            0,
            vec![("verdict".to_string(), ArgValue::Str(verdict.to_string()))],
        );
    }

    /// Lays the measured serve stages out as sequential sub-spans of
    /// `[serve_ts, serve_ts + server_us]`, clamped so they never
    /// escape the serve span (stage and serve times are measured by
    /// different wall-clock reads).
    fn trace_serve_stages(&self, serve_ts: u64, server_us: u64, tid: u32, stages: &StageSample) {
        let Some(telemetry) = &self.telemetry else {
            return;
        };
        let mut offset = 0u64;
        for (name, dur) in [
            ("verify", stages.verify_us),
            ("multiproof", stages.proof_us),
            ("sign_response", stages.sign_us),
        ] {
            let dur = dur.min(server_us.saturating_sub(offset));
            if dur > 0 {
                telemetry
                    .tracer
                    .span(name, "serve", serve_ts + offset, dur, tid, Vec::new());
            }
            offset += dur;
        }
    }

    /// Records a completed exchange in the provider's aggregate and
    /// the network-wide metrics.
    fn note_provider_outcome(&mut self, provider: Address, valid: bool, latency_us: u64) {
        let entry = self.provider_entry(provider);
        entry.record_latency(latency_us);
        if !valid {
            entry.record_failure();
        }
        if let Some(metrics) = &self.metrics {
            metrics.exchanges_total.inc();
            metrics.exchange_latency_us.record(latency_us);
            if !valid {
                metrics.failures_total.inc();
            }
        }
    }

    /// Records a refusal (the exchange never completed).
    fn note_provider_failure(&mut self, provider: Address) {
        self.provider_entry(provider).record_failure();
        if let Some(metrics) = &self.metrics {
            metrics.exchanges_total.inc();
            metrics.failures_total.inc();
        }
    }

    /// The rolling exchange aggregate for one provider (empty default
    /// when the provider has served nothing).
    pub fn provider_stats(&self, provider: &Address) -> ProviderAggregate {
        self.provider_stats
            .get(provider)
            .cloned()
            .unwrap_or_default()
    }

    /// Every provider aggregate recorded so far, sorted by address for
    /// deterministic reporting.
    pub fn provider_stats_all(&self) -> Vec<(Address, ProviderAggregate)> {
        let mut all: Vec<_> = self
            .provider_stats
            .iter()
            .map(|(a, s)| (*a, s.clone()))
            .collect();
        all.sort_by_key(|(a, _)| *a);
        all
    }

    /// Server-side handling only (used by the scalability harness).
    /// Routes through the serving runtime's snapshot cache; responses
    /// are byte-identical to the sequential path.
    ///
    /// # Errors
    ///
    /// Propagates the node's refusal.
    pub fn serve(
        &mut self,
        node_id: NodeId,
        request: &ParpRequest,
    ) -> Result<ParpResponse, SimError> {
        let node = self
            .nodes
            .get_mut(node_id.0)
            .ok_or(SimError::UnknownNode(node_id.0))?;
        Ok(self
            .runtime
            .serve_request(node, request, &mut self.chain, &mut self.executor)?)
    }

    /// Server-side batch handling only (used by the benches). Routes
    /// through the serving runtime: one multiproof walk over the held
    /// head trie — byte-identical to [`FullNode::handle_batch`].
    ///
    /// # Errors
    ///
    /// Propagates the node's refusal.
    pub fn serve_batch(
        &mut self,
        node_id: NodeId,
        request: &ParpBatchRequest,
    ) -> Result<ParpBatchResponse, SimError> {
        let node = self
            .nodes
            .get_mut(node_id.0)
            .ok_or(SimError::UnknownNode(node_id.0))?;
        Ok(self
            .runtime
            .serve_batch(node, request, &mut self.chain, &mut self.executor)?)
    }

    /// Cooperative closure of the client's channel with `node_id`,
    /// initiated by the client: close, wait out the dispute window,
    /// confirm, settle. Channels with other nodes stay open.
    ///
    /// # Errors
    ///
    /// Propagates client refusals, chain failures and reverted
    /// settlements.
    pub fn close_cooperatively(
        &mut self,
        client: &mut LightClient,
        node_id: NodeId,
    ) -> Result<(), SimError> {
        let provider = self
            .nodes
            .get(node_id.0)
            .ok_or(SimError::UnknownNode(node_id.0))?
            .address();
        let close = client.close_channel_call(provider)?;
        let client_key = *client.secret();
        if !self.submit_module_call(&client_key, close, U256::ZERO)? {
            return Err(SimError::Reverted("close channel reverted".into()));
        }
        self.advance_blocks(DISPUTE_WINDOW_BLOCKS)?;
        let confirm = client.confirm_closure_call(provider)?;
        if !self.submit_module_call(&client_key, confirm, U256::ZERO)? {
            return Err(SimError::Reverted("confirm closure reverted".into()));
        }
        client.channel_closed(provider);
        Ok(())
    }

    /// Relays a fraud proof through a witness node (§IV-F): the witness
    /// submits the on-chain transaction on the client's behalf.
    ///
    /// # Errors
    ///
    /// Propagates chain failures.
    pub fn report_fraud(
        &mut self,
        evidence: &parp_core::FraudEvidence,
        witness_id: NodeId,
    ) -> Result<bool, SimError> {
        self.relay_fraud_proof(witness_id, |witness| evidence.to_module_call(witness))
    }

    /// Relays a **batch** fraud proof through a witness node: one
    /// provably wrong item in a signed batch slashes the offender exactly
    /// like single-call fraud.
    ///
    /// # Errors
    ///
    /// Propagates chain failures.
    pub fn report_batch_fraud(
        &mut self,
        evidence: &parp_core::BatchFraudEvidence,
        witness_id: NodeId,
    ) -> Result<bool, SimError> {
        self.relay_fraud_proof(witness_id, |witness| evidence.to_module_call(witness))
    }

    /// Has the witness submit the proof `proof_for` builds for it.
    fn relay_fraud_proof(
        &mut self,
        witness_id: NodeId,
        proof_for: impl FnOnce(Address) -> ModuleCall,
    ) -> Result<bool, SimError> {
        let witness = self
            .nodes
            .get(witness_id.0)
            .ok_or(SimError::UnknownNode(witness_id.0))?;
        let witness_key = *witness.secret();
        let call = proof_for(witness.address());
        self.submit_module_call(&witness_key, call, U256::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn duplicate_spawn_seed_is_detected() {
        let mut net = Network::new();
        let first = net.try_spawn_node(b"dup-seed", U256::from(10u64)).unwrap();
        let err = net
            .try_spawn_node(b"dup-seed", U256::from(99u64))
            .unwrap_err();
        let SimError::DuplicateNode(address) = err else {
            panic!("expected DuplicateNode, got {err:?}");
        };
        assert_eq!(address, net.node(first).address());
        // The collision left no second node and no registry duplicate.
        assert_eq!(net.node_id_by_address(&address), Some(first));
        assert_eq!(net.registry().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_spawn_seed_panics_in_infallible_path() {
        let mut net = Network::new();
        net.spawn_node(b"dup-panic", U256::from(10u64));
        net.spawn_node(b"dup-panic", U256::from(10u64));
    }

    #[test]
    fn registry_is_duplicate_free_and_sorted() {
        let mut net = Network::new();
        for i in 0..6u64 {
            net.spawn_node(format!("reg-{i}").as_bytes(), U256::from(10 + i));
        }
        let registry = net.registry();
        assert_eq!(registry.len(), 6);
        let unique: HashSet<_> = registry.iter().collect();
        assert_eq!(
            unique.len(),
            registry.len(),
            "registry must be duplicate-free"
        );
        let mut sorted = registry.clone();
        sorted.sort();
        assert_eq!(registry, sorted, "registry is address-sorted");
        // The records surface agrees with the address list.
        let records = net.executor().fndm().registry_records();
        assert_eq!(
            records.iter().map(|(a, _)| *a).collect::<Vec<_>>(),
            registry
        );
        assert!(records
            .iter()
            .all(|(_, r)| r.serving && r.deposit >= parp_contracts::min_deposit()));
    }

    #[test]
    fn provider_aggregates_track_exchanges() {
        let mut net = Network::new();
        let good = net.spawn_node(b"agg-good", U256::from(10u64));
        let bad = net.spawn_node(b"agg-bad", U256::from(10u64));
        let mut client = net.spawn_client(b"agg-client", U256::from(10u64));
        net.connect(&mut client, good, U256::from(10_000u64))
            .unwrap();
        net.connect(&mut client, bad, U256::from(10_000u64))
            .unwrap();
        net.node_mut(bad)
            .set_misbehavior(parp_core::Misbehavior::WrongAmount);
        for _ in 0..4 {
            let (outcome, _) = net
                .parp_call(&mut client, good, RpcCall::BlockNumber)
                .unwrap();
            assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
        }
        let (outcome, _) = net
            .parp_call(&mut client, bad, RpcCall::BlockNumber)
            .unwrap();
        assert!(!matches!(outcome, ProcessOutcome::Valid { .. }));
        let good_stats = net.provider_stats(&net.node(good).address());
        assert_eq!(good_stats.calls(), 4);
        assert_eq!(good_stats.failures(), 0);
        assert_eq!(good_stats.samples(), 4);
        assert!(good_stats.latency_p50_us() > 0);
        assert!(good_stats.latency_p99_us() >= good_stats.latency_p50_us());
        let bad_stats = net.provider_stats(&net.node(bad).address());
        assert_eq!(bad_stats.calls(), 1);
        assert_eq!(bad_stats.failures(), 1);
        assert_eq!(net.provider_stats_all().len(), 2);
    }
}
