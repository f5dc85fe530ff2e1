//! An executable model of the payment ledger, stepped beside a real
//! `Network` + `Gateway` over random fault schedules.
//!
//! Per provider the model keeps three numbers: what the client has
//! committed (`spent`), what the node holds a signed payment for
//! (`latest`), and how many served calls the client has not accounted
//! for yet (`lost` — responses dropped or late after the node served).
//! The node serves only an offer of `latest + price`, so an honest
//! client is served only while the two ledgers agree; a lost response
//! puts the node one price ahead, and the refusal that follows carries
//! the `(a, σ_a)` the client reconciles from. After every gateway call
//! the test checks:
//!
//! * `spent ≤ latest = spent + price × lost` — the client never pays
//!   for more than was served, and is behind by exactly the lost calls;
//! * spend is monotone;
//! * every call ends exactly once, served or as a typed error;
//! * with all-honest providers no failover is a refusal and nobody is
//!   banned. The gateway reconciles at most twice with a provider
//!   between two verified responses (what bounds a provider that
//!   withholds every response), so this holds as long as no provider
//!   loses three served responses in a row, which these schedules do
//!   not.

use parp_suite::contracts::RpcCall;
use parp_suite::gateway::{
    FailoverCause, Gateway, GatewayConfig, GatewayError, ResilienceConfig, SelectionPolicy,
};
use parp_suite::net::{CrashWindow, FaultConfig, Network, NodeId, PartitionWindow};
use parp_suite::primitives::{Address, U256};
use parp_suite::telemetry::{ArgValue, Telemetry};
use proptest::prelude::*;
use std::collections::HashSet;

const PROVIDERS: usize = 4;
const CALLS: usize = 16;
const QUORUM_EVERY: usize = 4;
const DEADLINE_US: u64 = 25_000;

/// One provider's channel ledger as a pure state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ledger {
    spent: u64,
    latest: u64,
    lost: u64,
}

/// What one gateway call did on one provider's channel.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Calls the node served.
    served: u64,
    /// Responses the client processed (valid or damaged: both commit).
    processed: u64,
    /// Whether a refusal was reconciled during the call.
    reconciled: bool,
    /// The client's committed spend after the call.
    spent: u64,
}

impl Ledger {
    /// The ledger after `step`, or why the step is impossible.
    ///
    /// Without a reconcile the model is exact: every served call moves
    /// `latest`, every processed response moves `spent`, and the rest
    /// are losses. A reconcile sets `spent` to the node's `latest` at
    /// that moment; only this call's own losses can follow it, so the
    /// client may end at most that many calls behind.
    fn step(self, price: u64, step: Step) -> Result<Ledger, String> {
        if step.processed > step.served {
            return Err(format!(
                "processed {} of {} served",
                step.processed, step.served
            ));
        }
        let latest = self.latest + price * step.served;
        let losses = step.served - step.processed;
        if !step.reconciled {
            if self.lost > 0 && step.served > 0 {
                return Err("a node served a client whose ledger was behind".into());
            }
            return Ok(Ledger {
                spent: self.spent + price * step.processed,
                latest,
                lost: self.lost + losses,
            });
        }
        let behind = latest
            .checked_sub(step.spent)
            .ok_or("reconciled past latest")?;
        if behind % price != 0 || behind / price > losses {
            return Err(format!(
                "{behind} behind after a reconcile, {losses} lost since"
            ));
        }
        Ok(Ledger {
            spent: step.spent,
            latest,
            lost: behind / price,
        })
    }
}

/// A network of honest providers on a price ladder, funded read
/// targets, and a traced gateway over it.
fn world(fault: FaultConfig) -> (Network, Gateway, Telemetry, Vec<Address>) {
    let telemetry = Telemetry::with_tracing();
    let mut net = Network::new();
    net.set_call_deadline_us(DEADLINE_US);
    net.attach_telemetry(&telemetry);
    for i in 0..PROVIDERS {
        let price = U256::from(10 * (i as u64 + 1));
        net.spawn_node(format!("ledger-model-node-{i}").as_bytes(), price);
    }
    let targets: Vec<Address> = (0..8)
        .map(|i| Address::from_low_u64_be(0x1ED6_0000 + i))
        .collect();
    net.fund_many(&targets);
    net.install_fault_plane(fault);
    let client = net.spawn_client(b"ledger-model-client", U256::from(10u64));
    let config = GatewayConfig {
        policy: SelectionPolicy::ReputationWeighted,
        resilience: ResilienceConfig {
            allow_degraded: true,
            call_budget_us: 400_000,
            breaker_cooldown_us: 100_000,
            ..ResilienceConfig::default()
        },
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(client, config);
    gateway.attach_telemetry(&telemetry);
    (net, gateway, telemetry, targets)
}

/// Per provider: calls its node served on the gateway's channel, the
/// node's latest redeemable amount, responses the client processed, and
/// the client's committed spend.
fn observe(net: &Network, gateway: &Gateway, node: NodeId) -> (u64, u64, u64, u64) {
    let provider = net.node(node).address();
    let processed = net.provider_stats(&provider).samples();
    let Some(channel) = gateway.client().channel_with(&provider) else {
        return (0, 0, processed, 0);
    };
    let spent = channel.spent.to_u64().expect("fits");
    match net.node(node).served_channel(channel.id) {
        Some(held) => (
            held.calls_served,
            held.latest_amount.to_u64().expect("fits"),
            processed,
            spent,
        ),
        None => (0, 0, processed, spent),
    }
}

/// Providers the gateway reconciled with among trace events `from..`.
fn reconciled_since(telemetry: &Telemetry, from: usize) -> (HashSet<String>, usize) {
    let events = telemetry.tracer.events();
    let providers = events[from..]
        .iter()
        .filter(|event| event.name == "reconcile")
        .filter_map(
            |event| match event.args.iter().find(|(k, _)| k == "provider") {
                Some((_, ArgValue::Str(provider))) => Some(provider.clone()),
                _ => None,
            },
        )
        .collect();
    (providers, events.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn the_payment_ledger_follows_its_model_under_any_fault_schedule(
        seed in any::<u64>(),
        drop_ppm in 0u32..300_000,
        corrupt_ppm in 0u32..150_000,
        late_ppm in 0u32..300_000,
        crash in any::<bool>(),
        partition in any::<bool>(),
    ) {
        let mut fault = FaultConfig {
            seed,
            drop_ppm,
            corrupt_ppm,
            // Half the delays stay inside the deadline, spikes land late.
            delay_ppm: late_ppm,
            delay_base_us: 2_000,
            delay_spike_us: 2 * DEADLINE_US,
            ..FaultConfig::default()
        };
        if crash {
            fault.crashes.push(CrashWindow { provider_index: 1, from_step: 8, until_step: 30 });
        }
        if partition {
            fault.partitions.push(PartitionWindow {
                provider_indices: vec![2, 3],
                from_step: 16,
                until_step: 40,
            });
        }
        let (mut net, mut gateway, telemetry, targets) = world(fault);
        let nodes: Vec<NodeId> = (0..PROVIDERS).map(NodeId).collect();
        let prices: Vec<u64> = nodes
            .iter()
            .map(|node| net.node(*node).price_per_call().to_u64().expect("fits"))
            .collect();
        let mut models = [Ledger::default(); PROVIDERS];
        let mut trace_len = telemetry.tracer.len();
        let (mut served, mut errored) = (0usize, 0usize);
        for i in 0..CALLS {
            let before: Vec<_> = nodes.iter().map(|n| observe(&net, &gateway, *n)).collect();
            let call = RpcCall::GetBalance { address: targets[i % targets.len()] };
            let outcome = if i % QUORUM_EVERY == QUORUM_EVERY - 1 {
                gateway.quorum_call(&mut net, call, 3).map(|_| ())
            } else {
                gateway.call(&mut net, call).map(|_| ())
            };
            match outcome {
                Ok(()) => served += 1,
                Err(GatewayError::Sim(e)) => prop_assert!(false, "call {i} untyped: {e}"),
                Err(_) => errored += 1,
            }
            prop_assert_eq!(served + errored, i + 1, "call {} ended exactly once", i);
            let (reconciled, len) = reconciled_since(&telemetry, trace_len);
            trace_len = len;
            for (p, node) in nodes.iter().enumerate() {
                let (served_before, _, processed_before, spent_before) = before[p];
                let (served_after, latest, processed_after, spent) = observe(&net, &gateway, *node);
                let provider = net.node(*node).address().to_string();
                let step = Step {
                    served: served_after - served_before,
                    processed: processed_after - processed_before,
                    reconciled: reconciled.contains(&provider),
                    spent,
                };
                let model = models[p].step(prices[p], step);
                prop_assert!(model.is_ok(), "call {} provider {}: {:?}", i, p, model);
                let model = model.unwrap_or_default();
                prop_assert!(spent >= spent_before, "call {} provider {}: spend regressed", i, p);
                prop_assert_eq!(model.spent, spent, "call {} provider {}: client spent", i, p);
                prop_assert_eq!(model.latest, latest, "call {} provider {}: node latest", i, p);
                prop_assert!(spent <= latest, "call {} provider {}: paid past served", i, p);
                prop_assert_eq!(latest, spent + prices[p] * model.lost);
                models[p] = model;
            }
            let refused = gateway
                .failovers()
                .iter()
                .filter(|event| event.cause == FailoverCause::Refused)
                .count();
            prop_assert_eq!(refused, 0, "call {}: an honest provider refused", i);
            prop_assert!(gateway.banned().is_empty(), "call {}: an honest provider banned", i);
        }
        prop_assert!(gateway.payments_monotone());
    }
}
