//! Integration: channel liveness monitoring (§V-C) and node fail-over
//! (§IV-A "enhanced availability" / §VIII single-node-dependence risk).

use parp_suite::contracts::{ChannelStatus, ModuleCall, RpcCall};
use parp_suite::core::{ClientState, LightClient, Misbehavior, ProcessOutcome};
use parp_suite::net::{Network, NodeId};
use parp_suite::primitives::U256;

fn connected(seed: &str) -> (Network, NodeId, LightClient) {
    let mut net = Network::new();
    let node = net.spawn_node(format!("{seed}-node").as_bytes(), U256::from(10u64));
    let mut client = net.spawn_client(format!("{seed}-client").as_bytes(), U256::from(10u64));
    net.connect(&mut client, node, U256::from(10_000u64))
        .unwrap();
    (net, node, client)
}

#[test]
fn liveness_probe_reports_open_channel() {
    let (mut net, node, mut client) = connected("live-open");
    let provider = net.node(node).address();
    let probe = client.liveness_probe(provider).unwrap();
    let response = net.serve(node, &probe).unwrap();
    net.sync_client(&mut client);
    let outcome = client.process_response_from(provider, &response).unwrap();
    let ProcessOutcome::Valid { result, .. } = outcome else {
        panic!("probe must be valid");
    };
    assert!(LightClient::channel_reported_open(&result));
}

#[test]
fn secret_close_is_detected_by_liveness_probe() {
    let (mut net, node, mut client) = connected("live-secret");
    // The node secretly starts closing the channel with the zero state
    // (hoping the client keeps paying off-chain).
    let node_key = *net.node(node).secret();
    let close = ModuleCall::CloseChannel {
        channel_id: 0,
        amount: U256::ZERO,
        payment_sig: parp_suite::crypto::sign(
            client.secret(),
            &parp_suite::contracts::payment_digest(0, &U256::ZERO),
        ),
    };
    assert!(net
        .submit_module_call(&node_key, close, U256::ZERO)
        .unwrap());
    assert!(matches!(
        net.executor().cmm().channel(0).unwrap().status,
        ChannelStatus::Closing { .. }
    ));

    // The client's periodic probe (answered honestly here) reveals it.
    let provider = net.node(node).address();
    let probe = client.liveness_probe(provider).unwrap();
    let response = net.serve(node, &probe).unwrap();
    net.sync_client(&mut client);
    let outcome = client.process_response_from(provider, &response).unwrap();
    let ProcessOutcome::Valid { result, .. } = outcome else {
        panic!("probe should verify");
    };
    assert!(
        !LightClient::channel_reported_open(&result),
        "client must learn the channel is closing"
    );
}

#[test]
fn lying_about_channel_status_is_caught_via_witness() {
    let (mut net, node, mut client) = connected("live-lie");
    let witness = net.spawn_node(b"live-lie-witness", U256::from(10u64));
    // Node closes on-chain but keeps answering probes with stale data by
    // serving from its (now doctored) local view: simulate by having the
    // client cross-check with the witness node, which it can query for
    // free (header/status service, §IV-D assumption).
    let node_key = *net.node(node).secret();
    let close = ModuleCall::CloseChannel {
        channel_id: 0,
        amount: U256::ZERO,
        payment_sig: parp_suite::crypto::sign(
            client.secret(),
            &parp_suite::contracts::payment_digest(0, &U256::ZERO),
        ),
    };
    assert!(net
        .submit_module_call(&node_key, close, U256::ZERO)
        .unwrap());
    // Cross-check through the witness's chain view instead of the
    // (possibly lying) serving node.
    let status = net.executor().cmm().channel(0).map(|c| c.status).unwrap();
    assert!(matches!(status, ChannelStatus::Closing { .. }));
    // The client reacts: abandon and fail over.
    client.abandon_provider(net.node(node).address());
    let mut client2 = client.clone();
    net.connect(&mut client2, witness, U256::from(1_000u64))
        .unwrap();
    assert_eq!(
        client2.state_with(&net.node(witness).address()),
        ClientState::Bonded
    );
}

#[test]
fn failover_after_invalid_response() {
    let mut net = Network::new();
    let bad_node = net.spawn_node(b"fo-bad", U256::from(10u64));
    let good_node = net.spawn_node(b"fo-good", U256::from(10u64));
    let mut client = net.spawn_client(b"fo-client", U256::from(10u64));
    net.connect(&mut client, bad_node, U256::from(1_000u64))
        .unwrap();

    // The bad node serves garbage signatures (invalid, not slashable).
    net.node_mut(bad_node)
        .set_misbehavior(Misbehavior::WrongResponseKey);
    let (outcome, _) = net
        .parp_call(&mut client, bad_node, RpcCall::BlockNumber)
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Invalid(_)));

    // §V-D: sensible to terminate. No sign-up means switching is trivial.
    client.abandon_provider(net.node(bad_node).address());
    net.connect(&mut client, good_node, U256::from(1_000u64))
        .unwrap();
    let (outcome, _) = net
        .parp_call(&mut client, good_node, RpcCall::BlockNumber)
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
}

#[test]
fn failover_after_proven_fraud_keeps_client_whole() {
    let mut net = Network::new();
    let rogue = net.spawn_node(b"fw-rogue", U256::from(10u64));
    let witness = net.spawn_node(b"fw-witness", U256::from(10u64));
    let mut client = net.spawn_client(b"fw-client", U256::from(10u64));
    let budget = U256::from(5_000u64);
    let funds_before = net.chain().balance(&client.address());
    net.connect(&mut client, rogue, budget).unwrap();
    net.node_mut(rogue)
        .set_misbehavior(Misbehavior::WrongAmount);
    let (outcome, _) = net
        .parp_call(&mut client, rogue, RpcCall::BlockNumber)
        .unwrap();
    let ProcessOutcome::Fraud(evidence) = outcome else {
        panic!("expected fraud");
    };
    assert!(net.report_fraud(&evidence, witness).unwrap());
    client.abandon_provider(net.node(rogue).address());

    // Budget refunded + slash reward: the client ends richer than it
    // started, then re-connects to the witness and resumes service.
    let funds_after = net.chain().balance(&client.address());
    assert!(funds_after > funds_before - budget);
    net.connect(&mut client, witness, budget).unwrap();
    let (outcome, _) = net
        .parp_call(&mut client, witness, RpcCall::BlockNumber)
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
}

#[test]
fn header_sync_from_any_source() {
    // §IV-D: headers come from any node, paid connections not required.
    let (net, _, _) = connected("hdr");
    let mut fresh = LightClient::new(
        parp_suite::crypto::SecretKey::from_seed(b"hdr-fresh"),
        U256::from(10u64),
    );
    for n in 0..=net.chain().height() {
        assert!(fresh.sync_header(net.chain().block(n).unwrap().header.clone()));
    }
    assert_eq!(fresh.tip().unwrap().number, net.chain().height());
    // Headers chain correctly: parent hashes link.
    for n in 1..=net.chain().height() {
        let child = fresh.header(n).unwrap();
        let parent = fresh.header(n - 1).unwrap();
        assert_eq!(child.parent_hash, parent.hash());
    }
}
