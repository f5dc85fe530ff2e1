//! Integration + property tests for the gateway subsystem: quorum-read
//! consistency across honest providers for every state and inclusion
//! call kind, failover after a slashed provider with zero accepted
//! invalid responses and monotone payment counters, and the full
//! marketplace acceptance scenario.

use parp_suite::contracts::RpcCall;
use parp_suite::gateway::{
    FailoverCause, Gateway, GatewayConfig, MarketplaceConfig, SelectionPolicy,
};
use parp_suite::net::Network;
use parp_suite::primitives::{Address, H256, U256};
use proptest::prelude::*;

/// A network with `n` honest providers, funded read targets, and a
/// supply of mined transactions for inclusion lookups.
fn marketplace_net(n: usize, seed_tag: &str) -> (Network, Vec<Address>, Vec<(H256, u64)>) {
    let mut net = Network::new();
    for i in 0..n {
        net.spawn_node(
            format!("gwt-{seed_tag}-node-{i}").as_bytes(),
            U256::from(10 * (i as u64 + 1)),
        );
    }
    let targets: Vec<Address> = (0..8)
        .map(|i| Address::from_low_u64_be(0xAB00 + i))
        .collect();
    // One faucet transfer per call: every target leaves a transaction in
    // its own block — inclusion-lookup material at distinct heights.
    for target in &targets {
        net.fund(*target);
    }
    let lookups = net.transaction_locations();
    (net, targets, lookups)
}

fn gateway_for(net: &mut Network, seed: &[u8], policy: SelectionPolicy) -> Gateway {
    let client = net.spawn_client(seed, U256::from(10u64));
    Gateway::new(
        client,
        GatewayConfig {
            policy,
            ..GatewayConfig::default()
        },
    )
}

/// Every state and inclusion call kind, parameterized over the fixture.
fn call_of_kind(kind: usize, target: Address, lookup: H256) -> RpcCall {
    match kind {
        0 => RpcCall::GetBalance { address: target },
        1 => RpcCall::GetTransactionCount { address: target },
        2 => RpcCall::GetTransactionByHash { hash: lookup },
        _ => RpcCall::GetTransactionReceipt { hash: lookup },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// §Satellite: a `QuorumRead` over k honest providers at the same
    /// height yields byte-identical verified results for every state
    /// and inclusion call kind.
    #[test]
    fn quorum_reads_are_byte_identical_across_honest_providers(
        kind in 0usize..4,
        target_index in 0usize..8,
        lookup_index in 0usize..8,
        seed in any::<u16>(),
    ) {
        let (mut net, targets, lookups) = marketplace_net(3, &format!("prop-{seed}"));
        let mut gateway = gateway_for(
            &mut net,
            format!("gwt-prop-client-{seed}").as_bytes(),
            SelectionPolicy::RoundRobin,
        );
        let call = call_of_kind(
            kind,
            targets[target_index],
            lookups[lookup_index % lookups.len()].0,
        );
        let outcome = gateway.quorum_call(&mut net, call, 3).expect("quorum");
        prop_assert!(outcome.agreed, "honest same-height votes must agree");
        prop_assert_eq!(outcome.votes.len(), 3);
        let reference = &outcome.votes[0].result;
        for vote in &outcome.votes {
            prop_assert_eq!(&vote.result, reference);
        }
        // Three distinct providers answered.
        let mut providers: Vec<Address> =
            outcome.votes.iter().map(|v| v.provider).collect();
        providers.sort();
        providers.dedup();
        prop_assert_eq!(providers.len(), 3);
        prop_assert_eq!(gateway.failovers().len(), 0);
    }
}

/// §Satellite: failover after a slashed provider loses zero
/// accepted-invalid responses and keeps the payment counter monotone
/// across the channel switch.
#[test]
fn failover_after_slash_accepts_nothing_invalid_and_keeps_payments_monotone() {
    let (mut net, targets, _) = marketplace_net(3, "slash");
    let mut gateway = gateway_for(&mut net, b"gwt-slash-client", SelectionPolicy::Cheapest);

    // The cheapest provider forges results.
    let cheapest = gateway_probe_cheapest(&mut gateway, &net);
    let cheapest_id = net.node_id_by_address(&cheapest).unwrap();
    net.node_mut(cheapest_id)
        .set_misbehavior(parp_suite::core::Misbehavior::ForgedResult);

    // Ground truth for every target, read straight off the chain.
    let expected: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            net.chain()
                .state()
                .account(t)
                .map(parp_suite::chain::Account::encode)
                .unwrap_or_default()
        })
        .collect();

    // Run the workload across the fraud + failover.
    for (i, target) in targets.iter().cycle().take(12).enumerate() {
        let result = gateway
            .call(&mut net, RpcCall::GetBalance { address: *target })
            .expect("workload must survive the failover");
        assert_eq!(
            result,
            expected[i % targets.len()],
            "returned payloads match ground truth (zero accepted-invalid)"
        );
    }

    // The fraud was detected, proven, and slashed on-chain.
    let fraud_events: Vec<_> = gateway
        .failovers()
        .iter()
        .filter(|f| matches!(f.cause, FailoverCause::Fraud(_)))
        .collect();
    assert_eq!(fraud_events.len(), 1);
    assert_eq!(fraud_events[0].failed_provider, cheapest);
    assert!(fraud_events[0].slashed);
    assert!(fraud_events[0].time_to_recover_us().unwrap() > 0);
    let record = net.executor().fndm().record(&cheapest).unwrap();
    assert_eq!(record.slash_count, 1);
    assert!(record.deposit.is_zero());
    assert!(
        !net.registry().contains(&cheapest),
        "slashed ⇒ out of registry"
    );

    // Payment counters stayed monotone across the channel switch, and
    // every call was eventually served (12 verified results).
    assert!(gateway.payments_monotone());
    assert_eq!(gateway.calls_served(), 12);
    // Both channels' trajectories exist: the abandoned one and its
    // replacement, each individually non-decreasing.
    assert!(gateway.payment_trajectories().len() >= 2);
    for trail in gateway.payment_trajectories().values() {
        assert!(trail.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// Reads the cheapest provider the gateway would select, without
/// issuing a call.
fn gateway_probe_cheapest(gateway: &mut Gateway, net: &Network) -> Address {
    gateway.refresh(net);
    gateway
        .directory()
        .providers()
        .iter()
        .min_by_key(|p| (p.price_per_call, p.address))
        .map(|p| p.address)
        .expect("providers registered")
}

/// The ISSUE acceptance scenario: ≥4 providers, the cheapest forges, the
/// gateway classifies under §V-D, submits the fraud proof (slashed
/// on-chain), fails over, and finishes the workload with zero invalid
/// results accepted and monotone payment counters.
#[test]
fn marketplace_acceptance_scenario() {
    let config = MarketplaceConfig::default();
    assert!(config.providers >= 4);
    let report = parp_suite::gateway::run_marketplace(&config);
    assert_eq!(report.errors, 0, "workload finished");
    assert_eq!(report.wrong_payloads, 0, "zero invalid results accepted");
    assert!(report.fraud_detected >= 1, "§V-D classification fired");
    assert!(report.fraud_proofs_accepted >= 1, "fraud proof accepted");
    assert!(report.cheapest_slashed, "provider slashed on-chain");
    assert!(report.failovers >= 1, "gateway failed over");
    assert!(report.payments_monotone, "payment counters monotone");
    assert!(!report.recoveries_us.is_empty(), "time-to-recover measured");
    // The per-provider aggregates drove the run and are reportable.
    assert!(!report.provider_stats.is_empty());
    let total_calls: u64 = report.provider_stats.iter().map(|(_, s)| s.calls()).sum();
    assert!(total_calls as usize >= config.calls);
}

/// §Satellite bugfix: an unreachable quorum reports how many providers
/// were actually drafted, not a hard-coded zero. With 2 providers and
/// k = 3, both drafts succeed and the error must say `collected: 2`.
#[test]
fn unreachable_quorum_reports_drafted_count() {
    let (mut net, targets, _) = marketplace_net(2, "short");
    let mut gateway = gateway_for(&mut net, b"gwt-short-client", SelectionPolicy::RoundRobin);
    let err = gateway
        .quorum_call(
            &mut net,
            RpcCall::GetBalance {
                address: targets[0],
            },
            3,
        )
        .expect_err("2 providers cannot fill a quorum of 3");
    match err {
        parp_suite::gateway::GatewayError::QuorumUnreachable { needed, collected } => {
            assert_eq!(needed, 3);
            assert_eq!(collected, 2, "both drafted providers must be reported");
        }
        other => panic!("expected QuorumUnreachable, got {other:?}"),
    }
}

/// Quorum reads also cover unproven chain queries (`BlockNumber` has no
/// Merkle proof — cross-provider agreement is its only check).
#[test]
fn quorum_read_covers_unproven_calls() {
    let (mut net, _, _) = marketplace_net(3, "unproven");
    let mut gateway = gateway_for(&mut net, b"gwt-unproven-client", SelectionPolicy::Fastest);
    let outcome = gateway
        .quorum_call(&mut net, RpcCall::BlockNumber, 3)
        .expect("quorum");
    assert!(outcome.agreed);
    assert_eq!(
        outcome.result,
        parp_suite::rlp::encode_u64(net.chain().height())
    );
}

/// A fan-out of one leg and a plain `parp_call` are the same exchange:
/// on twin worlds (same seeds, no fault plane) they return equal
/// outcomes and stats and leave equal client, node, provider-aggregate
/// and clock state behind.
#[test]
fn one_leg_fanout_is_a_parp_call() {
    let twin = || {
        let (mut net, targets, _) = marketplace_net(1, "twin");
        let mut client = net.spawn_client(b"gwt-twin-client", U256::from(10u64));
        let node = parp_suite::net::NodeId(0);
        net.connect(&mut client, node, U256::from(100_000u64))
            .expect("channel opens");
        let call = RpcCall::GetBalance {
            address: targets[0],
        };
        (net, client, node, call)
    };
    let (mut net_a, mut client_a, node, call) = twin();
    let (mut net_b, mut client_b, _, _) = twin();
    let alone = net_a
        .parp_call(&mut client_a, node, call.clone())
        .expect("lone leg");
    let mut fanned = net_b.parp_call_fanout(&mut client_b, &[(node, call)]);
    let fanned = fanned.pop().expect("one leg").expect("fan-out leg");
    assert_eq!(alone, fanned, "outcome and stats");
    assert_eq!(net_a.now_us(), net_b.now_us(), "clock");
    let provider = net_a.node(node).address();
    assert_eq!(
        client_a.channel_with(&provider),
        client_b.channel_with(&provider),
        "client ledger"
    );
    assert_eq!(client_a.valid_responses(), client_b.valid_responses());
    assert_eq!(client_a.pending_with(&provider), 0);
    assert_eq!(client_b.pending_with(&provider), 0);
    let (served_a, served_b) = (net_a.node(node), net_b.node(node));
    assert_eq!(served_a.requests_served(), served_b.requests_served());
    let channel_id = client_a.channel_with(&provider).expect("bonded").id;
    let ledger = |node: &parp_suite::core::FullNode| {
        let channel = node.served_channel(channel_id).expect("served");
        (
            channel.latest_amount,
            channel.latest_payment_sig,
            channel.calls_served,
        )
    };
    assert_eq!(ledger(served_a), ledger(served_b), "node ledger");
    assert_eq!(net_a.provider_stats_all(), net_b.provider_stats_all());
}
