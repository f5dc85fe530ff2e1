//! The gateway orchestrator: N concurrent channels, policy-driven
//! routing, live failover with fraud submission, and quorum reads.

use crate::directory::{Directory, ProviderInfo};
use crate::policy::SelectionPolicy;
use crate::reputation::ReputationBook;
use crate::resilience::{CircuitBreaker, ResilienceConfig};
use parp_contracts::{FraudVerdict, RpcCall};
use parp_core::{
    ClientState, InvalidReason, LightClient, ProcessBatchOutcome, ProcessOutcome, ServeError,
};
use parp_net::{Network, NodeId, SimError};
use parp_primitives::{Address, U256};
use parp_telemetry::{ArgValue, Counter, Telemetry, Tracer};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Refusals the client reconciles with one provider between two of its
/// verified responses; the next one is [`FailoverCause::Refused`] and
/// bans. The client cannot tell a response lost in transit from one
/// withheld, so this bounds what a provider that never answers is paid:
/// these reconciled calls plus the one whose `σ_a` it holds when banned.
/// Two, because one call's default in-place retries
/// ([`ResilienceConfig::max_retries`]) can lose two served responses in
/// a row on an honest provider, and a bound of one would ban it.
const MAX_UNVERIFIED_RECONCILES: u32 = 2;

/// Tuning for a [`Gateway`].
#[derive(Debug, Clone, Copy)]
pub struct GatewayConfig {
    /// How the next provider is chosen.
    pub policy: SelectionPolicy,
    /// Budget locked into each per-provider channel on connect.
    pub channel_budget: U256,
    /// Providers a single logical call may burn through before the
    /// gateway gives up.
    pub max_failovers: usize,
    /// Fan-out width [`Gateway::quorum_call`] uses when called with
    /// `k = 0`.
    pub quorum: usize,
    /// Fault-handling knobs: deadlines, retries, circuit breakers,
    /// hedged legs, and the degraded-read escape hatch.
    pub resilience: ResilienceConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            policy: SelectionPolicy::default(),
            channel_budget: U256::from(1u64) << 40,
            max_failovers: 8,
            quorum: 3,
            resilience: ResilienceConfig::default(),
        }
    }
}

/// Why a failover fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailoverCause {
    /// The provider refused to serve (or the exchange failed locally),
    /// and the refusal was not reconciled: it carried no evidence the
    /// client could reconcile from (see
    /// [`LightClient::reconcile_payment`]), or the client had already
    /// reconciled with the provider twice since its last verified
    /// response.
    Refused,
    /// The response was classified invalid (§V-D: walk away).
    Invalid(InvalidReason),
    /// The response was provably fraudulent.
    Fraud(FraudVerdict),
    /// The exchange exceeded its deadline (message dropped, provider
    /// partitioned, or response too slow). Transient: the provider may
    /// be re-selected once its circuit breaker re-admits it.
    Timeout,
    /// The response frame arrived corrupted (wire payload failed the
    /// signature check) — transport damage, not a provable lie.
    /// Transient, like [`FailoverCause::Timeout`].
    Corruption,
    /// The provider was down (connection refused mid-schedule).
    /// Transient — crashed providers restart.
    Crash,
}

/// One recorded failover: which provider failed, why, whether the fraud
/// evidence stuck on-chain, and how long until service resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverEvent {
    /// The abandoned provider.
    pub failed_provider: Address,
    /// What triggered the switch.
    pub cause: FailoverCause,
    /// Whether a fraud proof was submitted and accepted on-chain.
    pub slashed: bool,
    /// Simulated clock when the failure was detected (µs).
    pub detected_at_us: u64,
    /// Simulated clock when the next valid response completed (µs);
    /// `None` while recovery is still in progress.
    pub recovered_at_us: Option<u64>,
}

impl FailoverEvent {
    /// Time from failure detection to the next verified response (µs).
    pub fn time_to_recover_us(&self) -> Option<u64> {
        self.recovered_at_us
            .map(|r| r.saturating_sub(self.detected_at_us))
    }
}

/// One provider's vote in a quorum read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumVote {
    /// The provider that answered.
    pub provider: Address,
    /// Its verified `R(γ)` payload.
    pub result: Vec<u8>,
}

/// Outcome of a quorum read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumOutcome {
    /// The majority payload (every verified vote agrees when `agreed`).
    pub result: Vec<u8>,
    /// Whether all verified votes were byte-identical.
    pub agreed: bool,
    /// `true` when quorum `k` was unreachable and the gateway returned
    /// a best-effort read with fewer votes (only under
    /// [`ResilienceConfig::allow_degraded`]). Degraded results carry
    /// weaker cross-check guarantees — the caller must decide whether
    /// to trust them.
    pub degraded: bool,
    /// Every verified vote, in the order the providers were queried.
    pub votes: Vec<QuorumVote>,
}

/// Gateway-level failures.
#[derive(Debug)]
pub enum GatewayError {
    /// The registry lists no eligible provider.
    NoProviders,
    /// Every eligible provider failed for this call.
    FailoversExhausted {
        /// Providers tried before giving up.
        attempts: usize,
    },
    /// A quorum read could not reach `needed` distinct providers.
    QuorumUnreachable {
        /// Fan-out width requested.
        needed: usize,
        /// Verified votes actually collected.
        collected: usize,
    },
    /// The call's total simulated-time budget
    /// ([`ResilienceConfig::call_budget_us`]) ran out before a verified
    /// result was obtained — the bounded alternative to hanging.
    Deadline {
        /// The configured budget (µs, simulated).
        budget_us: u64,
        /// Simulated time actually burned before giving up (µs).
        waited_us: u64,
    },
    /// An unrecoverable simulation error.
    Sim(SimError),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::NoProviders => write!(f, "no eligible serving provider in the registry"),
            GatewayError::FailoversExhausted { attempts } => {
                write!(f, "all {attempts} tried providers failed")
            }
            GatewayError::QuorumUnreachable { needed, collected } => {
                write!(
                    f,
                    "quorum of {needed} unreachable ({collected} verified votes)"
                )
            }
            GatewayError::Deadline {
                budget_us,
                waited_us,
            } => {
                write!(
                    f,
                    "call budget of {budget_us} µs exhausted after {waited_us} µs"
                )
            }
            GatewayError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl Error for GatewayError {}

impl From<SimError> for GatewayError {
    fn from(e: SimError) -> Self {
        GatewayError::Sim(e)
    }
}

/// What a settled exchange amounts to for routing, whatever it carried:
/// a verified payload, grounds to walk away, or a fraud verdict with the
/// relay that submits its evidence on-chain through a given witness.
enum Verdict<T> {
    Valid(T),
    Invalid(InvalidReason),
    Fraud(FraudVerdict, FraudRelay),
}

type FraudRelay = Box<dyn FnOnce(&mut Network, NodeId) -> Result<bool, SimError>>;

/// One exchange as the routing loop sees it: its verdict and stats, or
/// the transport's error.
type Exchanged<T> = Result<(Verdict<T>, parp_net::ExchangeStats), SimError>;

impl From<ProcessOutcome> for Verdict<Vec<u8>> {
    fn from(outcome: ProcessOutcome) -> Self {
        match outcome {
            ProcessOutcome::Valid { result, .. } => Verdict::Valid(result),
            ProcessOutcome::Invalid(reason) => Verdict::Invalid(reason),
            ProcessOutcome::Fraud(evidence) => Verdict::Fraud(
                evidence.verdict,
                Box::new(move |net, witness| net.report_fraud(&evidence, witness)),
            ),
        }
    }
}

impl From<ProcessBatchOutcome> for Verdict<Vec<Vec<u8>>> {
    fn from(outcome: ProcessBatchOutcome) -> Self {
        match outcome {
            ProcessBatchOutcome::Valid { results, .. } => Verdict::Valid(results),
            ProcessBatchOutcome::Invalid(reason) => Verdict::Invalid(reason),
            ProcessBatchOutcome::Fraud { evidence, .. } => Verdict::Fraud(
                evidence.verdict,
                Box::new(move |net, witness| net.report_batch_fraud(&evidence, witness)),
            ),
        }
    }
}

/// A multi-provider PARP client: one [`LightClient`] identity, one
/// payment channel per provider, and the orchestration the paper's
/// accountability model makes safe — spread traffic over permissionless
/// providers, score them, and switch the moment one misbehaves.
///
/// The flow per logical call:
///
/// 1. refresh the [`Directory`] from the on-chain registry and the
///    [`ReputationBook`] from observed slash events;
/// 2. pick a provider via the configured [`SelectionPolicy`];
/// 3. open (or reuse) the channel with it and run the exchange;
/// 4. on a §V-D *fraud* classification: submit the evidence through a
///    witness (slashing the provider on-chain), ban the provider,
///    abandon its channel, re-select, and replay the call; on *invalid*
///    or a refusal: the same without the on-chain step;
/// 5. on a transient fault (timeout, corruption, crash): keep the
///    channel and re-select, the circuit breaker gating the provider's
///    return.
///
/// A response the provider served and the transport lost leaves the
/// provider holding the request's `σ_a`, one payment ahead of the
/// client. Its next refusal carries that `(a, σ_a)`; the gateway has the
/// client reconcile from it ([`LightClient::reconcile_payment`]) and
/// retries in place. The client cannot tell a response served and lost
/// from one withheld, so it reconciles at most twice per provider
/// between two verified responses: a refusal without the client's own
/// valid `σ_a`, or one past that count, is `Refused` and bans. A
/// provider that keeps every `σ_a` and never answers is thus paid for at
/// most three calls it never verifiably served — two reconciled, and
/// the one whose `σ_a` it holds when banned.
///
/// Only verified results are ever returned — an invalid or fraudulent
/// response is never surfaced as data.
#[derive(Debug)]
pub struct Gateway {
    client: LightClient,
    config: GatewayConfig,
    directory: Directory,
    reputation: ReputationBook,
    rr_cursor: usize,
    banned: HashSet<Address>,
    /// Per-provider circuit breakers (transient-failure routing; a
    /// banned provider never reaches its breaker again).
    breakers: HashMap<Address, CircuitBreaker>,
    failovers: Vec<FailoverEvent>,
    /// Index into `failovers` of the event still awaiting recovery.
    pending_recovery: Option<usize>,
    /// Per-provider committed-payment trajectory (monotonicity
    /// witness). A provider keeps its channel until it is banned, and a
    /// banned provider is never scored again, so each trail follows one
    /// channel.
    payments: HashMap<Address, Vec<U256>>,
    payments_monotone: bool,
    calls_served: u64,
    fraud_proofs_submitted: u64,
    retries: u64,
    /// Per provider, the refusals the client reconciled since its last
    /// verified response (at most [`MAX_UNVERIFIED_RECONCILES`]).
    unverified: HashMap<Address, u32>,
    hedges_fired: u64,
    degraded_reads: u64,
    telemetry: Option<Telemetry>,
    metrics: Option<GatewayMetrics>,
}

/// Registry-backed counters for the gateway's own lifecycle events.
#[derive(Debug, Clone)]
struct GatewayMetrics {
    calls_served: Counter,
    failovers: Counter,
    fraud_proofs: Counter,
    quorum_reads: Counter,
    retries: Counter,
    hedges: Counter,
    degraded_reads: Counter,
}

impl Gateway {
    /// Wraps a (typically fresh) client identity.
    pub fn new(client: LightClient, config: GatewayConfig) -> Self {
        Gateway {
            client,
            config,
            directory: Directory::new(),
            reputation: ReputationBook::new(),
            rr_cursor: 0,
            banned: HashSet::new(),
            breakers: HashMap::new(),
            failovers: Vec::new(),
            pending_recovery: None,
            payments: HashMap::new(),
            payments_monotone: true,
            calls_served: 0,
            fraud_proofs_submitted: 0,
            retries: 0,
            unverified: HashMap::new(),
            hedges_fired: 0,
            degraded_reads: 0,
            telemetry: None,
            metrics: None,
        }
    }

    /// Wires the gateway's lifecycle counters into `telemetry`'s
    /// registry and its failover machinery into the tracer: every
    /// failover becomes `fraud_detected` → `slash` → `failover` →
    /// `reselect` → `replay` instants on the client track, and each
    /// completed [`FailoverEvent`] is emitted as a `failover_recovery`
    /// span whose duration is exactly
    /// [`FailoverEvent::time_to_recover_us`].
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        let registry = &telemetry.registry;
        self.metrics = Some(GatewayMetrics {
            calls_served: registry.counter("parp_gateway_calls_served_total", &[]),
            failovers: registry.counter("parp_gateway_failovers_total", &[]),
            fraud_proofs: registry.counter("parp_gateway_fraud_proofs_total", &[]),
            quorum_reads: registry.counter("parp_gateway_quorum_reads_total", &[]),
            retries: registry.counter("parp_gateway_retries_total", &[]),
            hedges: registry.counter("parp_gateway_hedges_total", &[]),
            degraded_reads: registry.counter("parp_gateway_degraded_reads_total", &[]),
        });
        self.telemetry = Some(telemetry.clone());
    }

    /// The tracer, only when attached *and* live.
    fn tracer(&self) -> Option<&Tracer> {
        self.telemetry
            .as_ref()
            .map(|t| &t.tracer)
            .filter(|t| t.enabled())
    }

    /// The wrapped client.
    pub fn client(&self) -> &LightClient {
        &self.client
    }

    /// The current provider directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The reputation book.
    pub fn reputation(&self) -> &ReputationBook {
        &self.reputation
    }

    /// Providers this gateway banned (fraud, an invalid response, or a
    /// refusal it could not reconcile); each one's channel is abandoned.
    pub fn banned(&self) -> &HashSet<Address> {
        &self.banned
    }

    /// Every failover recorded so far.
    pub fn failovers(&self) -> &[FailoverEvent] {
        &self.failovers
    }

    /// Verified results returned to the caller.
    pub fn calls_served(&self) -> u64 {
        self.calls_served
    }

    /// Fraud proofs submitted and accepted on-chain.
    pub fn fraud_proofs_submitted(&self) -> u64 {
        self.fraud_proofs_submitted
    }

    /// In-place retries after timeouts (same provider, deterministic
    /// jittered backoff applied between attempts).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Hedged quorum legs launched (a spare leg fired because an
    /// original leg failed or exceeded its EWMA-derived threshold).
    pub fn hedges_fired(&self) -> u64 {
        self.hedges_fired
    }

    /// Quorum reads that returned best-effort results below the
    /// requested width (only under
    /// [`ResilienceConfig::allow_degraded`]).
    pub fn degraded_reads(&self) -> u64 {
        self.degraded_reads
    }

    /// Circuit-breaker transitions accumulated across all providers:
    /// `(opens, half_opens)`.
    pub fn breaker_transitions(&self) -> (u64, u64) {
        let mut opens = 0u64;
        let mut half_opens = 0u64;
        for breaker in self.breakers.values() {
            opens += breaker.opens;
            half_opens += breaker.half_opens;
        }
        (opens, half_opens)
    }

    /// Failover counts broken down by cause, in a fixed label order
    /// (stable across runs, for reports and benches).
    pub fn failovers_by_cause(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; 6];
        for event in &self.failovers {
            let index = match &event.cause {
                FailoverCause::Refused => 0,
                FailoverCause::Invalid(_) => 1,
                FailoverCause::Fraud(_) => 2,
                FailoverCause::Timeout => 3,
                FailoverCause::Corruption => 4,
                FailoverCause::Crash => 5,
            };
            counts[index] += 1;
        }
        [
            "refused",
            "invalid",
            "fraud",
            "timeout",
            "corruption",
            "crash",
        ]
        .into_iter()
        .zip(counts)
        .collect()
    }

    /// Whether every per-provider committed payment sequence has been
    /// non-decreasing across the gateway's whole life, reconciles and
    /// transient faults included.
    pub fn payments_monotone(&self) -> bool {
        self.payments_monotone
    }

    /// Per-provider committed-payment trajectories (final committed
    /// amount is the last element), one channel per provider.
    pub fn payment_trajectories(&self) -> &HashMap<Address, Vec<U256>> {
        &self.payments
    }

    /// Re-reads the registry and on-chain slash state.
    pub fn refresh(&mut self, net: &Network) {
        self.directory.refresh(net);
        let addresses: Vec<Address> = self
            .directory
            .providers()
            .iter()
            .map(|p| p.address)
            .collect();
        self.reputation
            .observe_chain(net.executor(), addresses.iter());
    }

    /// The currently selectable provider set: discovered, not banned by
    /// this gateway, never slashed on-chain, and trusted by the book.
    fn eligible(&self) -> Vec<&ProviderInfo> {
        self.directory
            .providers()
            .iter()
            .filter(|p| {
                !self.banned.contains(&p.address)
                    && p.slash_count == 0
                    && self.reputation.get(&p.address).trustworthy()
            })
            .collect()
    }

    /// Picks the next provider under the configured policy, excluding
    /// `skip` and anyone whose circuit breaker is open at simulated
    /// time `now_us` (an open breaker whose cooldown has elapsed
    /// half-opens here and admits one probe).
    fn select_excluding(&mut self, skip: &HashSet<Address>, now_us: u64) -> Option<Address> {
        let candidates: Vec<ProviderInfo> = self
            .eligible()
            .into_iter()
            .filter(|p| !skip.contains(&p.address))
            .cloned()
            .collect();
        let resilience = self.config.resilience;
        let candidates: Vec<ProviderInfo> = candidates
            .into_iter()
            .filter(|p| {
                self.breakers
                    .get_mut(&p.address)
                    .is_none_or(|b| b.allows(now_us, &resilience))
            })
            .collect();
        let refs: Vec<&ProviderInfo> = candidates.iter().collect();
        self.config
            .policy
            .select(&refs, &self.reputation, &mut self.rr_cursor)
    }

    /// Ensures a bonded channel with `provider`, connecting if needed.
    fn ensure_connected(
        &mut self,
        net: &mut Network,
        provider: Address,
    ) -> Result<NodeId, SimError> {
        let node_id = net
            .node_id_by_address(&provider)
            .ok_or(SimError::UnknownNode(usize::MAX))?;
        // Pay the provider's advertised registry rate on this channel.
        if let Some(info) = self.directory.get(&provider) {
            self.client.set_price_for(provider, info.price_per_call);
        }
        if self.client.state_with(&provider) == ClientState::Bonded {
            return Ok(node_id);
        }
        // Clear any half-open session left by an earlier failure.
        if self.client.state_with(&provider) != ClientState::Idle {
            self.client.abandon_provider(provider);
        }
        net.connect(&mut self.client, node_id, self.config.channel_budget)?;
        Ok(node_id)
    }

    /// [`Gateway::ensure_connected`], with a provider that cannot be
    /// connected scored as a refusal and failed over (`Ok(None)`); only
    /// a chain error is unrecoverable.
    fn connect_or_fail_over(
        &mut self,
        net: &mut Network,
        provider: Address,
    ) -> Result<Option<NodeId>, GatewayError> {
        match self.ensure_connected(net, provider) {
            Ok(node_id) => Ok(Some(node_id)),
            Err(e @ SimError::Chain(_)) => Err(GatewayError::Sim(e)),
            Err(_) => {
                self.reputation.entry(provider).record_refused();
                self.fail_over(net, provider, FailoverCause::Refused, false);
                Ok(None)
            }
        }
    }

    /// Snapshots the provider's committed amount, its channel's `spent`,
    /// into the monotonicity trail (called after every exchange, before
    /// any abandon).
    fn note_payment(&mut self, provider: Address) {
        if let Some(channel) = self.client.channel_with(&provider) {
            let committed = channel.spent;
            let trail = self.payments.entry(provider).or_default();
            if let Some(last) = trail.last() {
                if committed < *last {
                    self.payments_monotone = false;
                }
            }
            trail.push(committed);
        }
    }

    /// Records a failover. Fraud, invalid responses, and refusals ban
    /// the provider outright and abandon its channel; transient causes
    /// (timeout, corruption, crash) keep the channel, and the provider
    /// is re-selectable once its circuit breaker re-admits it.
    fn fail_over(&mut self, net: &Network, provider: Address, cause: FailoverCause, slashed: bool) {
        let transient = matches!(
            cause,
            FailoverCause::Timeout | FailoverCause::Corruption | FailoverCause::Crash
        );
        if !transient {
            self.banned.insert(provider);
            self.client.abandon_provider(provider);
        }
        let now_us = net.now_us();
        if let Some(tracer) = self.tracer() {
            let provider_arg = || ("provider".to_string(), ArgValue::Str(provider.to_string()));
            if matches!(cause, FailoverCause::Fraud(_)) {
                tracer.instant("fraud_detected", "gateway", now_us, 0, vec![provider_arg()]);
            }
            if slashed {
                tracer.instant("slash", "gateway", now_us, 0, vec![provider_arg()]);
            }
            let cause_label = match &cause {
                FailoverCause::Refused => "refused",
                FailoverCause::Invalid(_) => "invalid",
                FailoverCause::Fraud(_) => "fraud",
                FailoverCause::Timeout => "timeout",
                FailoverCause::Corruption => "corruption",
                FailoverCause::Crash => "crash",
            };
            tracer.instant(
                "failover",
                "gateway",
                now_us,
                0,
                vec![
                    provider_arg(),
                    ("cause".to_string(), cause_label.into()),
                    ("slashed".to_string(), ArgValue::U64(slashed as u64)),
                ],
            );
        }
        if let Some(metrics) = &self.metrics {
            metrics.failovers.inc();
        }
        // Only the first failure of an outage window starts the
        // recovery stopwatch; later failures during the same outage
        // keep the original detection time.
        let event = FailoverEvent {
            failed_provider: provider,
            cause,
            slashed,
            detected_at_us: now_us,
            recovered_at_us: None,
        };
        self.failovers.push(event);
        if self.pending_recovery.is_none() {
            self.pending_recovery = Some(self.failovers.len() - 1);
        }
    }

    /// Stamps the pending failover (if any) as recovered now, emitting
    /// the outage window as a `failover_recovery` span.
    fn mark_recovered(&mut self, now_us: u64) {
        if let Some(index) = self.pending_recovery.take() {
            self.failovers[index].recovered_at_us = Some(now_us);
            if let Some(tracer) = self.tracer() {
                let event = &self.failovers[index];
                tracer.span(
                    "failover_recovery",
                    "gateway",
                    event.detected_at_us,
                    now_us.saturating_sub(event.detected_at_us),
                    0,
                    vec![
                        (
                            "failed_provider".to_string(),
                            ArgValue::Str(event.failed_provider.to_string()),
                        ),
                        ("slashed".to_string(), ArgValue::U64(event.slashed as u64)),
                    ],
                );
            }
        }
    }

    /// Advances `provider`'s circuit breaker on a transport-level
    /// failure at simulated time `now_us`.
    fn breaker_failure(&mut self, provider: Address, now_us: u64) {
        let resilience = self.config.resilience;
        self.breakers
            .entry(provider)
            .or_default()
            .record_failure(now_us, &resilience);
    }

    /// Closes `provider`'s circuit breaker after a verified exchange.
    fn breaker_success(&mut self, provider: Address) {
        self.breakers.entry(provider).or_default().record_success();
    }

    /// Emits the re-selection instants of a failover replay: the
    /// gateway picked `provider` to retry a call a previous provider
    /// failed.
    fn trace_reselect(&self, now_us: u64, provider: Address) {
        if let Some(tracer) = self.tracer() {
            tracer.instant(
                "reselect",
                "gateway",
                now_us,
                0,
                vec![("provider".to_string(), ArgValue::Str(provider.to_string()))],
            );
            tracer.instant("replay", "gateway", now_us, 0, vec![]);
        }
    }

    /// Reconciles a refusal that carries the client's own `σ_a` for more
    /// than the channel with `provider` has committed — the trace of a
    /// response the provider served and the transport lost, or withheld
    /// — and reports whether it did. Anything else changes nothing, and
    /// so does a refusal from a provider already reconciled with
    /// [`MAX_UNVERIFIED_RECONCILES`] times since its last verified
    /// response.
    fn reconcile<T>(&mut self, net: &Network, provider: Address, outcome: &Exchanged<T>) -> bool {
        let Err(SimError::Serve(ServeError::InsufficientPayment {
            held: Some(held), ..
        })) = outcome
        else {
            return false;
        };
        let reconciled = self.unverified.entry(provider).or_default();
        if *reconciled >= MAX_UNVERIFIED_RECONCILES {
            return false;
        }
        let (amount, payment_sig) = &**held;
        if !self
            .client
            .reconcile_payment(provider, *amount, payment_sig)
        {
            return false;
        }
        *reconciled += 1;
        if let Some(telemetry) = &self.telemetry {
            // Registered on the first reconcile, so a run that never
            // loses a served response exports the metric set it did
            // before reconciling existed.
            let reconciled = telemetry
                .registry
                .counter("parp_gateway_reconciled_total", &[]);
            reconciled.inc();
        }
        if let Some(tracer) = self.tracer() {
            tracer.instant(
                "reconcile",
                "gateway",
                net.now_us(),
                0,
                vec![
                    ("provider".to_string(), ArgValue::Str(provider.to_string())),
                    ("amount".to_string(), ArgValue::Str(amount.to_string())),
                ],
            );
        }
        true
    }

    /// Submits fraud evidence through a witness node (§IV-F). Returns
    /// whether the proof was accepted on-chain.
    fn submit_fraud(&mut self, net: &mut Network, offender: Address, relay: FraudRelay) -> bool {
        let Some(witness_id) = self.pick_witness(net, offender) else {
            return false;
        };
        let accepted = relay(net, witness_id).unwrap_or(false);
        if accepted {
            self.fraud_proofs_submitted += 1;
            if let Some(metrics) = &self.metrics {
                metrics.fraud_proofs.inc();
            }
        }
        accepted
    }

    /// Any reachable registered node other than the offender — fraud
    /// proofs are relayed through a witness full node.
    fn pick_witness(&self, net: &Network, offender: Address) -> Option<NodeId> {
        self.directory
            .providers()
            .iter()
            .find(|p| p.address != offender)
            .map(|p| p.node_id)
            .or_else(|| {
                net.registry()
                    .into_iter()
                    .filter(|a| *a != offender)
                    .find_map(|a| net.node_id_by_address(&a))
            })
    }

    /// One verified read through the marketplace: select, exchange,
    /// and — on fraud, an invalid response, or a refusal — slash (when
    /// provable), fail over, and replay until a provider answers
    /// honestly. A timed-out provider is first retried in place, and so
    /// is one whose refusal the client reconciled.
    ///
    /// # Errors
    ///
    /// Fails when no eligible provider remains, the failover budget is
    /// exhausted, or the call's simulated-time budget runs out
    /// ([`GatewayError::Deadline`] — bounded, never a hang). Never
    /// returns an unverified payload.
    pub fn call(&mut self, net: &mut Network, call: RpcCall) -> Result<Vec<u8>, GatewayError> {
        let max_retries = self.config.resilience.max_retries;
        self.route(net, 1, max_retries, Self::single(&call))
    }

    /// One single-call exchange of `call` against a connected node, read
    /// as a routing verdict.
    fn single(
        call: &RpcCall,
    ) -> impl FnMut(&mut Network, &mut LightClient, NodeId) -> Exchanged<Vec<u8>> + '_ {
        move |net, client, node_id| {
            let (outcome, stats) = net.parp_call(client, node_id, call.clone())?;
            Ok((outcome.into(), stats))
        }
    }

    /// One verified **batched** read (the whole batch is the unit of
    /// failover: a batch with even one provably bad item is replayed in
    /// full against the next provider, so no partial results leak; a
    /// timed-out batch fails over at once).
    ///
    /// # Errors
    ///
    /// As [`Gateway::call`].
    pub fn call_batch(
        &mut self,
        net: &mut Network,
        calls: Vec<RpcCall>,
    ) -> Result<Vec<Vec<u8>>, GatewayError> {
        // No in-place retries: one batch already burns a whole serve
        // quantum, so a timed-out batch goes to the next provider.
        self.route(net, calls.len() as u64, 0, |net, client, node_id| {
            let (outcome, stats) = net.parp_batch_call(client, node_id, calls.clone())?;
            Ok((outcome.into(), stats))
        })
    }

    /// The failover loop behind [`Gateway::call`] and
    /// [`Gateway::call_batch`]: select → connect → exchange → score,
    /// again with the next provider until one answers honestly.
    fn route<T>(
        &mut self,
        net: &mut Network,
        calls: u64,
        max_retries: u32,
        mut exchange: impl FnMut(&mut Network, &mut LightClient, NodeId) -> Exchanged<T>,
    ) -> Result<T, GatewayError> {
        self.refresh(net);
        let budget_us = self.config.resilience.call_budget_us;
        let started_us = net.now_us();
        let mut attempts = 0usize;
        loop {
            let waited_us = net.now_us().saturating_sub(started_us);
            if waited_us > budget_us {
                return Err(GatewayError::Deadline {
                    budget_us,
                    waited_us,
                });
            }
            let provider = self
                .select_excluding(&HashSet::new(), net.now_us())
                .ok_or(GatewayError::NoProviders)?;
            if attempts > 0 {
                self.trace_reselect(net.now_us(), provider);
            }
            if let Some(payload) = self.try_on(net, provider, calls, max_retries, &mut exchange)? {
                return Ok(payload);
            }
            attempts += 1;
            if attempts > self.config.max_failovers {
                return Err(GatewayError::FailoversExhausted { attempts });
            }
            self.refresh(net);
        }
    }

    /// One exchange attempt against `provider`. `Ok(Some)` is a
    /// verified result; `Ok(None)` means the provider failed and a
    /// failover was recorded; `Err` is unrecoverable.
    fn try_on<T>(
        &mut self,
        net: &mut Network,
        provider: Address,
        calls: u64,
        max_retries: u32,
        exchange: &mut impl FnMut(&mut Network, &mut LightClient, NodeId) -> Exchanged<T>,
    ) -> Result<Option<T>, GatewayError> {
        let Some(node_id) = self.connect_or_fail_over(net, provider)? else {
            return Ok(None);
        };
        let resilience = self.config.resilience;
        let started_us = net.now_us();
        let mut attempt = 0u32;
        loop {
            let outcome = exchange(net, &mut self.client, node_id);
            // Retry the same provider in place on a timeout, after a
            // deterministic jittered backoff: the channel is intact. If
            // the node served the lost exchange, the retry is refused
            // with the σ_a it holds, which the next arm reconciles.
            if matches!(outcome, Err(SimError::Timeout { .. }))
                && attempt < max_retries
                && net.now_us().saturating_sub(started_us) < resilience.call_budget_us
            {
                attempt += 1;
                net.advance_clock(resilience.backoff_us(attempt, addr_salt(&provider)));
                self.retries += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.retries.inc();
                }
                continue;
            }
            if self.reconcile(net, provider, &outcome) {
                continue;
            }
            return self.score(net, provider, calls, outcome);
        }
    }

    /// Scores one finished exchange and routes its failure modes — the
    /// one place the gateway reacts to fraud, invalid responses,
    /// refusals and transport faults, whatever the exchange carried and
    /// whether it flew alone or as a quorum leg.
    fn score<T>(
        &mut self,
        net: &mut Network,
        provider: Address,
        calls: u64,
        outcome: Exchanged<T>,
    ) -> Result<Option<T>, GatewayError> {
        let (cause, slashed) = match outcome {
            Ok((Verdict::Valid(payload), stats)) => {
                self.reputation
                    .entry(provider)
                    .record_valid(stats.latency_us());
                self.breaker_success(provider);
                self.unverified.remove(&provider);
                self.note_payment(provider);
                self.mark_recovered(net.now_us());
                self.calls_served += calls;
                if let Some(metrics) = &self.metrics {
                    metrics.calls_served.add(calls);
                }
                return Ok(Some(payload));
            }
            // A bad response signature on an otherwise well-formed
            // frame is transport corruption, not a §V-D lie — a
            // re-signing provider would produce a *valid* signature
            // over wrong data and land in the fraud arm instead.
            Ok((Verdict::Invalid(InvalidReason::ResponseSignatureInvalid), _)) => {
                self.reputation.entry(provider).record_corruption();
                self.breaker_failure(provider, net.now_us());
                self.note_payment(provider);
                (FailoverCause::Corruption, false)
            }
            Ok((Verdict::Invalid(reason), _)) => {
                self.reputation.entry(provider).record_invalid();
                self.note_payment(provider);
                (FailoverCause::Invalid(reason), false)
            }
            Ok((Verdict::Fraud(verdict, relay), _)) => {
                self.reputation.entry(provider).record_fraud();
                self.note_payment(provider);
                let slashed = self.submit_fraud(net, provider, relay);
                (FailoverCause::Fraud(verdict), slashed)
            }
            Err(SimError::Serve(_)) | Err(SimError::Client(_)) => {
                self.reputation.entry(provider).record_refused();
                (FailoverCause::Refused, false)
            }
            Err(SimError::Timeout { .. }) => {
                self.reputation.entry(provider).record_timeout();
                self.breaker_failure(provider, net.now_us());
                (FailoverCause::Timeout, false)
            }
            Err(SimError::Crashed(_)) => {
                self.reputation.entry(provider).record_refused();
                self.breaker_failure(provider, net.now_us());
                (FailoverCause::Crash, false)
            }
            Err(e) => return Err(GatewayError::Sim(e)),
        };
        self.fail_over(net, provider, cause, slashed);
        Ok(None)
    }

    /// Fans one call out to `k` distinct providers and cross-checks the
    /// verified results byte-for-byte.
    ///
    /// All `k` channels are opened **before** the first exchange, so
    /// every leg is served at the same chain height and honest verified
    /// results must be byte-identical. A leg that fails verification
    /// goes through the normal failover path (including fraud
    /// submission) and a replacement provider is drafted when one is
    /// available.
    ///
    /// Quorum reads are the belt-and-suspenders mode: Merkle-proven
    /// calls are already individually verified, but *unproven* results
    /// (e.g. `BlockNumber`) and the residual risk of an equivocating
    /// header source are caught by cross-provider agreement.
    ///
    /// Pass `k = 0` to use the configured default width
    /// ([`GatewayConfig::quorum`]).
    ///
    /// # Errors
    ///
    /// Fails when fewer than `k` verified votes could be collected.
    pub fn quorum_call(
        &mut self,
        net: &mut Network,
        call: RpcCall,
        k: usize,
    ) -> Result<QuorumOutcome, GatewayError> {
        let k = if k == 0 { self.config.quorum } else { k }.max(1);
        if let Some(metrics) = &self.metrics {
            metrics.quorum_reads.inc();
        }
        self.refresh(net);
        // Phase 1: draft k distinct providers, channels open, before any
        // exchange (keeps all legs at one chain height).
        let mut drafted: Vec<(Address, NodeId)> = Vec::new();
        let mut skip: HashSet<Address> = HashSet::new();
        while drafted.len() < k {
            let Some(provider) = self.select_excluding(&skip, net.now_us()) else {
                break;
            };
            skip.insert(provider);
            if let Some(node_id) = self.connect_or_fail_over(net, provider)? {
                drafted.push((provider, node_id));
            }
        }
        let resilience = self.config.resilience;
        if drafted.len() < k {
            // Under a partition the full width may be unreachable; with
            // degradation enabled the read proceeds best-effort on the
            // legs that exist and the outcome carries `degraded = true`.
            if !resilience.allow_degraded || drafted.is_empty() {
                // Report how many providers were actually drafted — this
                // used to hard-code 0, hiding partial progress from the
                // caller's error handling.
                return Err(GatewayError::QuorumUnreachable {
                    needed: k,
                    collected: drafted.len(),
                });
            }
        }
        // Phase 2: fan the k legs out **concurrently** over the
        // network's scoped-worker transport (serving and §V-D
        // verification run in parallel per leg; the simulated clock
        // advances by the slowest leg instead of the sum). A leg whose
        // refusal the client reconciled is retried in place, as `try_on`
        // does; failed legs go through the normal failover
        // scoring, then replacements are drafted serially.
        let mut votes: Vec<QuorumVote> = Vec::new();
        let legs: Vec<(NodeId, RpcCall)> = drafted
            .iter()
            .map(|(_, node_id)| (*node_id, call.clone()))
            .collect();
        let outcomes = net.parp_call_fanout(&mut self.client, &legs);
        let mut single = Self::single(&call);
        let mut any_leg_failed = false;
        let mut hedge_due = false;
        for ((provider, node_id), outcome) in drafted.iter().zip(outcomes) {
            let mut outcome = outcome.map(|(outcome, stats)| (outcome.into(), stats));
            if self.reconcile(net, *provider, &outcome) {
                outcome = single(net, &mut self.client, *node_id);
            }
            // Hedge trigger is judged against the EWMA *before* this
            // leg's own sample lands in it.
            let prior_ewma = self.reputation.get(provider).latency_ewma_us;
            if let Ok((_, stats)) = &outcome {
                let threshold = (prior_ewma.saturating_mul(resilience.hedge_factor_pct) / 100)
                    .max(resilience.hedge_min_us);
                if prior_ewma > 0 && stats.latency_us() > threshold {
                    hedge_due = true;
                }
            } else {
                hedge_due = true;
            }
            match self.score(net, *provider, 1, outcome)? {
                Some(result) => votes.push(QuorumVote {
                    provider: *provider,
                    result,
                }),
                None => any_leg_failed = true,
            }
        }
        if any_leg_failed {
            self.refresh(net);
        }
        // Spare legs, one after the other from fresh providers: first
        // the hedged (k+1)-th leg, fired when a leg failed or straggled
        // past its EWMA-derived threshold rather than waiting on
        // replacements alone; then replacements (rare path) until the
        // quorum fills or candidates run out.
        while hedge_due || votes.len() < k {
            let Some(provider) = self.select_excluding(&skip, net.now_us()) else {
                break;
            };
            skip.insert(provider);
            if std::mem::take(&mut hedge_due) {
                self.hedges_fired += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.hedges.inc();
                }
            }
            match self.try_on(net, provider, 1, resilience.max_retries, &mut single)? {
                Some(result) => votes.push(QuorumVote { provider, result }),
                None => self.refresh(net),
            }
        }
        if votes.len() < k {
            if resilience.allow_degraded && !votes.is_empty() {
                self.degraded_reads += 1;
                if let Some(metrics) = &self.metrics {
                    metrics.degraded_reads.inc();
                }
                return Ok(Self::tally_votes(votes, true));
            }
            return Err(GatewayError::QuorumUnreachable {
                needed: k,
                collected: votes.len(),
            });
        }
        Ok(Self::tally_votes(votes, false))
    }

    /// Majority payload over `votes` (deterministic: ties broken by
    /// first seen — `counts` is in first-seen order and only a strictly
    /// greater count displaces the current best).
    fn tally_votes(votes: Vec<QuorumVote>, degraded: bool) -> QuorumOutcome {
        let (result, agreed) = {
            let mut counts: Vec<(&Vec<u8>, usize)> = Vec::new();
            for vote in &votes {
                match counts.iter_mut().find(|(r, _)| *r == &vote.result) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((&vote.result, 1)),
                }
            }
            let mut best = 0usize;
            for (i, (_, n)) in counts.iter().enumerate().skip(1) {
                if *n > counts[best].1 {
                    best = i;
                }
            }
            let result = counts
                .get(best)
                .map(|(r, _)| (*r).clone())
                .unwrap_or_default();
            (result, counts.len() == 1)
        };
        QuorumOutcome {
            result,
            agreed,
            degraded,
            votes,
        }
    }
}

/// A deterministic per-provider salt for the backoff-jitter stream,
/// folded from the address bytes (no hashing dependency needed).
fn addr_salt(provider: &Address) -> u64 {
    provider.as_bytes().iter().fold(0u64, |acc, b| {
        acc.wrapping_mul(31).wrapping_add(u64::from(*b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_contracts::payment_digest;
    use parp_crypto::{sign, SecretKey, Signature};
    use parp_telemetry::Telemetry;

    const PRICE: u64 = 10;
    const BUDGET: u64 = 1_000;

    /// One honest provider and a gateway that has paid it for one call
    /// on a 1,000 wei channel.
    fn served_once() -> (Network, Gateway, Address) {
        let mut net = Network::new();
        net.spawn_node(b"reconcile-node", U256::from(PRICE));
        let client = net.spawn_client(b"reconcile-client", U256::from(PRICE));
        let config = GatewayConfig {
            channel_budget: U256::from(BUDGET),
            ..GatewayConfig::default()
        };
        let mut gateway = Gateway::new(client, config);
        gateway
            .call(&mut net, RpcCall::BlockNumber)
            .expect("serves");
        let provider = net.registry()[0];
        (net, gateway, provider)
    }

    fn spent(gateway: &Gateway, provider: &Address) -> U256 {
        gateway
            .client()
            .channel_with(provider)
            .expect("bonded")
            .spent
    }

    fn channel_id(gateway: &Gateway, provider: &Address) -> u64 {
        gateway.client().channel_with(provider).expect("bonded").id
    }

    fn sig(secret: &SecretKey, channel_id: u64, amount: u64) -> Signature {
        sign(secret, &payment_digest(channel_id, &U256::from(amount)))
    }

    /// A payment refusal carrying `(amount, σ_a)` as its evidence.
    fn refusal(amount: u64, payment_sig: Signature) -> Exchanged<Vec<u8>> {
        Err(SimError::Serve(ServeError::InsufficientPayment {
            offered: U256::from(amount),
            required: U256::from(amount + PRICE),
            held: Some(Box::new((U256::from(amount), payment_sig))),
        }))
    }

    #[test]
    fn a_served_then_lost_call_is_reconciled_on_the_same_channel() {
        let (mut net, mut gateway, provider) = served_once();
        let telemetry = Telemetry::with_tracing();
        gateway.attach_telemetry(&telemetry);
        let channel = channel_id(&gateway, &provider);
        // Round after round, the node serves a request whose response the
        // client never sees; each verified response after a reconcile
        // restores the allowance, so rounds past it ban nobody.
        let rounds = MAX_UNVERIFIED_RECONCILES as u64 + 1;
        for round in 1..=rounds {
            let request = gateway
                .client
                .request_from(provider, RpcCall::BlockNumber)
                .expect("builds");
            net.serve(NodeId(0), &request).expect("node serves");
            gateway
                .client
                .forget_pending(provider, &request.request_hash);
            let served = gateway.call(&mut net, RpcCall::BlockNumber);
            assert!(served.is_ok(), "round {round}: {served:?}");
            // The client paid for the lost call and the one served after
            // it; the node holds exactly that.
            let held = net.node(NodeId(0)).served_channel(channel).expect("served");
            let paid = U256::from((1 + 2 * round) * PRICE);
            assert_eq!(spent(&gateway, &provider), paid, "round {round}");
            assert_eq!(held.latest_amount, paid, "round {round}");
        }
        let events = telemetry.tracer.events();
        let reconciles = events.iter().filter(|e| e.name == "reconcile").count();
        assert_eq!(reconciles as u64, rounds);
        assert!(gateway.failovers().is_empty() && gateway.banned().is_empty());
        assert_eq!(channel_id(&gateway, &provider), channel);
        assert!(gateway.payments_monotone());
    }

    #[test]
    fn a_lying_refusal_moves_nothing_and_bans() {
        let stranger = SecretKey::from_seed(b"not-the-client");
        for lie in ["another key", "another channel", "above budget", "at spent"] {
            let (mut net, mut gateway, provider) = served_once();
            let own = *gateway.client().secret();
            let channel = channel_id(&gateway, &provider);
            let before = spent(&gateway, &provider);
            let (amount, payment_sig) = match lie {
                "another key" => (2 * PRICE, sig(&stranger, channel, 2 * PRICE)),
                "another channel" => (2 * PRICE, sig(&own, channel + 1, 2 * PRICE)),
                "above budget" => (BUDGET + PRICE, sig(&own, channel, BUDGET + PRICE)),
                _ => (PRICE, sig(&own, channel, PRICE)),
            };
            let mut exchanges = 0;
            let mut lying = |_: &mut Network, client: &mut LightClient, _| {
                exchanges += 1;
                assert_eq!(
                    client.channel_with(&provider).unwrap().spent,
                    before,
                    "{lie}"
                );
                refusal(amount, payment_sig)
            };
            let outcome = gateway.try_on(&mut net, provider, 1, 0, &mut lying);
            assert!(matches!(outcome, Ok(None)), "{lie}");
            assert_eq!(exchanges, 1, "{lie}: no reconcile, so no retry");
            assert!(gateway.banned().contains(&provider), "{lie}");
            assert_eq!(
                gateway.failovers()[0].cause,
                FailoverCause::Refused,
                "{lie}"
            );
        }
    }

    #[test]
    fn a_third_refusal_without_a_verified_response_bans() {
        let (mut net, mut gateway, provider) = served_once();
        let own = *gateway.client().secret();
        let channel = channel_id(&gateway, &provider);
        // A node that takes each σ_a and refuses anyway: its evidence
        // checks out every time, but two reconciles are all it gets.
        let mut exchanges = 0u64;
        let mut taking = |_: &mut Network, _: &mut LightClient, _| {
            exchanges += 1;
            let amount = (exchanges + 1) * PRICE;
            refusal(amount, sig(&own, channel, amount))
        };
        let outcome = gateway.try_on(&mut net, provider, 1, 0, &mut taking);
        assert!(matches!(outcome, Ok(None)));
        assert_eq!(exchanges, 3, "two reconciles, two retries");
        assert!(gateway.banned().contains(&provider));
    }

    #[test]
    fn a_provider_that_withholds_every_response_is_banned_within_three_prices() {
        // The node admits each payment, keeps its σ_a, and never answers:
        // the client cannot tell this from a response served and lost.
        for max_retries in [0, ResilienceConfig::default().max_retries] {
            let (mut net, mut gateway, provider) = served_once();
            let channel = channel_id(&gateway, &provider);
            let before = spent(&gateway, &provider);
            let mut spent_seen = before;
            let mut withholding =
                |net: &mut Network, client: &mut LightClient, node_id| -> Exchanged<Vec<u8>> {
                    spent_seen = client.channel_with(&provider).expect("bonded").spent;
                    let request = client.request_from(provider, RpcCall::BlockNumber)?;
                    let served = net.serve(node_id, &request);
                    client.forget_pending(provider, &request.request_hash);
                    served?;
                    Err(SimError::Timeout {
                        provider,
                        deadline_us: 0,
                    })
                };
            for _ in 0..8 {
                let outcome = gateway.route(&mut net, 1, max_retries, &mut withholding);
                assert!(outcome.is_err(), "retries {max_retries}: nothing served");
                if gateway.banned().contains(&provider) {
                    break;
                }
                net.advance_clock(ResilienceConfig::default().breaker_cooldown_us);
            }
            assert!(
                gateway.banned().contains(&provider),
                "retries {max_retries}: a withholder is banned"
            );
            let last = gateway.failovers().last().expect("failed over");
            assert_eq!(last.cause, FailoverCause::Refused, "retries {max_retries}");
            // Two reconciles moved the client's ledger; the node holds one
            // more σ_a on top of them, and no more.
            let held = net.node(NodeId(0)).served_channel(channel).expect("served");
            let price = U256::from(PRICE);
            assert_eq!(
                spent_seen,
                before + price * U256::from(2u64),
                "retries {max_retries}"
            );
            assert_eq!(
                held.latest_amount,
                before + price * U256::from(3u64),
                "retries {max_retries}"
            );
        }
    }
}
