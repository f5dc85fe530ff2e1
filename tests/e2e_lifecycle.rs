//! End-to-end integration: the full PARP connection lifecycle of §IV-E —
//! bootstrap, connection setup, active phase, closure and settlement —
//! across every crate in the workspace.

use parp_suite::contracts::{ChannelStatus, RpcCall};
use parp_suite::core::{ClientState, ProcessOutcome};
use parp_suite::net::Network;
use parp_suite::primitives::{Address, U256};

#[test]
fn full_lifecycle_with_cooperative_close() {
    let mut net = Network::new();
    let node = net.spawn_node(b"e2e-node", U256::from(10u64));
    let mut client = net.spawn_client(b"e2e-client", U256::from(10u64));

    // Discovery via the on-chain registry (§IV-A).
    let registry = net.registry();
    let provider = net.node(node).address();
    assert!(registry.contains(&provider));

    // Bootstrap + connection setup.
    let budget = U256::from(10_000u64);
    let channel_id = net.connect(&mut client, node, budget).unwrap();
    assert_eq!(client.state_with(&provider), ClientState::Bonded);
    assert_eq!(
        net.executor().cmm().channel(channel_id).unwrap().status,
        ChannelStatus::Open
    );
    let balance_before_close = net.chain().balance(&client.address());

    // Active phase: a mix of verified reads and writes.
    let me = client.address();
    for i in 0..5 {
        let (outcome, stats) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
            .unwrap();
        let ProcessOutcome::Valid { proven, .. } = outcome else {
            panic!("read {i} not valid");
        };
        assert!(proven, "balance reads carry Merkle proofs");
        assert!(stats.request_bytes > 200);
    }
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::BlockNumber)
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));

    // The client committed 6 calls x 10 wei.
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(60u64)
    );
    assert_eq!(net.node(node).requests_served(), 6);

    // Cooperative closure: client closes, window passes, settlement.
    let node_balance_before = net.chain().balance(&net.node(node).address());
    net.close_cooperatively(&mut client, node).unwrap();
    assert_eq!(client.state_with(&provider), ClientState::Idle);
    assert_eq!(
        net.executor().cmm().channel(channel_id).unwrap().status,
        ChannelStatus::Closed
    );
    // The node earned exactly the cumulative amount...
    let node_balance_after = net.chain().balance(&net.node(node).address());
    assert_eq!(node_balance_after - node_balance_before, U256::from(60u64));
    // ...and the client got the unspent budget back (10_000 - 60).
    let balance_after_close = net.chain().balance(&client.address());
    assert_eq!(
        balance_after_close - balance_before_close,
        budget - U256::from(60u64)
    );
}

#[test]
fn cooperative_close_settles_the_named_channel_only() {
    let mut net = Network::new();
    let node_a = net.spawn_node(b"close-a", U256::from(10u64));
    let node_b = net.spawn_node(b"close-b", U256::from(10u64));
    let mut client = net.spawn_client(b"close-client", U256::from(10u64));
    let (a, b) = (net.node(node_a).address(), net.node(node_b).address());
    let channel_a = net
        .connect(&mut client, node_a, U256::from(1_000u64))
        .unwrap();
    let channel_b = net
        .connect(&mut client, node_b, U256::from(1_000u64))
        .unwrap();
    let (outcome, _) = net
        .parp_call(&mut client, node_a, RpcCall::BlockNumber)
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));

    // Close A, the channel handshaken first.
    net.close_cooperatively(&mut client, node_a).unwrap();
    assert_eq!(client.state_with(&a), ClientState::Idle);
    assert_eq!(
        net.executor().cmm().channel(channel_a).unwrap().status,
        ChannelStatus::Closed
    );
    // B's channel is untouched and still serves verified calls.
    assert_eq!(client.state_with(&b), ClientState::Bonded);
    assert_eq!(
        net.executor().cmm().channel(channel_b).unwrap().status,
        ChannelStatus::Open
    );
    let me = client.address();
    let (outcome, _) = net
        .parp_call(&mut client, node_b, RpcCall::GetBalance { address: me })
        .unwrap();
    assert!(matches!(
        outcome,
        ProcessOutcome::Valid { proven: true, .. }
    ));
}

#[test]
fn node_redeems_with_clients_latest_signature() {
    let mut net = Network::new();
    let node = net.spawn_node(b"redeem-node", U256::from(10u64));
    let mut client = net.spawn_client(b"redeem-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(1_000u64))
        .unwrap();

    for _ in 0..3 {
        let (outcome, _) = net
            .parp_call(&mut client, node, RpcCall::BlockNumber)
            .unwrap();
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    }
    // The *node* initiates closure using the client's σ_a.
    let close_call = net.node(node).close_channel_call(0).unwrap();
    let node_key = *net.node(node).secret();
    assert!(net
        .submit_module_call(&node_key, close_call, U256::ZERO)
        .unwrap());
    net.advance_blocks(parp_suite::contracts::DISPUTE_WINDOW_BLOCKS)
        .unwrap();
    let before = net.chain().balance(&net.node(node).address());
    assert!(net
        .submit_module_call(
            &node_key,
            parp_suite::contracts::ModuleCall::ConfirmClosure { channel_id: 0 },
            U256::ZERO,
        )
        .unwrap());
    let after = net.chain().balance(&net.node(node).address());
    assert_eq!(after - before, U256::from(30u64));
}

#[test]
fn client_cannot_overdraw_budget() {
    let mut net = Network::new();
    let node = net.spawn_node(b"budget-node", U256::from(40u64));
    let mut client = net.spawn_client(b"budget-client", U256::from(40u64));
    net.connect(&mut client, node, U256::from(100u64)).unwrap();
    // Two calls fit (40, 80); the third (120) exceeds the 100 budget.
    for _ in 0..2 {
        let (outcome, _) = net
            .parp_call(&mut client, node, RpcCall::BlockNumber)
            .unwrap();
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    }
    let err = net
        .parp_call(&mut client, node, RpcCall::BlockNumber)
        .unwrap_err();
    assert!(err.to_string().contains("budget"), "got: {err}");
}

#[test]
fn write_workload_lands_on_chain_with_proof() {
    let mut net = Network::new();
    let node = net.spawn_node(b"write-node", U256::from(10u64));
    let mut client = net.spawn_client(b"write-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(10_000u64))
        .unwrap();

    let sender = parp_suite::crypto::SecretKey::from_seed(b"write-sender");
    net.fund(sender.address());
    net.sync_client(&mut client);
    let recipient = Address::from_low_u64_be(0xabcdef);
    let tx = parp_suite::chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(recipient),
        value: U256::from(777u64),
        data: Vec::new(),
    }
    .sign(&sender);
    let (outcome, stats) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::SendRawTransaction { raw: tx.encode() },
        )
        .unwrap();
    let ProcessOutcome::Valid { proven, .. } = outcome else {
        panic!("write must be valid");
    };
    assert!(proven, "inclusion proof expected");
    assert!(stats.proof_bytes > 0);
    assert_eq!(net.chain().balance(&recipient), U256::from(777u64));
}

#[test]
fn receipt_queries_are_proven_against_the_receipt_trie() {
    let mut net = Network::new();
    let node = net.spawn_node(b"rcpt-node", U256::from(10u64));
    let mut client = net.spawn_client(b"rcpt-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(10_000u64))
        .unwrap();

    // Include a transfer through the node, then query its receipt.
    let sender = parp_suite::crypto::SecretKey::from_seed(b"rcpt-sender");
    net.fund(sender.address());
    net.sync_client(&mut client);
    let tx = parp_suite::chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(Address::from_low_u64_be(0x22)),
        value: U256::from(9u64),
        data: Vec::new(),
    }
    .sign(&sender);
    let tx_hash = tx.hash();
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::SendRawTransaction { raw: tx.encode() },
        )
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));

    let (outcome, stats) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::GetTransactionReceipt { hash: tx_hash },
        )
        .unwrap();
    let ProcessOutcome::Valid { result, proven } = outcome else {
        panic!("receipt query must verify, got {outcome:?}");
    };
    assert!(proven, "receipt comes with a receipt-trie proof");
    assert!(stats.proof_bytes > 0);
    // The payload decodes to (index, receipt) and the receipt succeeded.
    let fields = parp_suite::rlp::decode_list_of(&result, 2).unwrap();
    let receipt = parp_suite::chain::Receipt::decode(fields[1].as_bytes().unwrap()).unwrap();
    assert!(receipt.is_success());
}

#[test]
fn forged_receipt_is_slashable() {
    let mut net = Network::new();
    let node = net.spawn_node(b"rcptf-node", U256::from(10u64));
    let witness = net.spawn_node(b"rcptf-witness", U256::from(10u64));
    let mut client = net.spawn_client(b"rcptf-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(10_000u64))
        .unwrap();
    let sender = parp_suite::crypto::SecretKey::from_seed(b"rcptf-sender");
    net.fund(sender.address());
    net.sync_client(&mut client);
    let tx = parp_suite::chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(Address::from_low_u64_be(0x23)),
        value: U256::ONE,
        data: Vec::new(),
    }
    .sign(&sender);
    let tx_hash = tx.hash();
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::SendRawTransaction { raw: tx.encode() },
        )
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));

    // The node forges the receipt (status flipped to failure) but keeps
    // the honest proof — the contradiction is slashable.
    net.node_mut(node)
        .set_misbehavior(parp_suite::core::Misbehavior::ForgedResult);
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::GetTransactionReceipt { hash: tx_hash },
        )
        .unwrap();
    let ProcessOutcome::Fraud(evidence) = outcome else {
        panic!("forged receipt must be fraud, got {outcome:?}");
    };
    assert!(net.report_fraud(&evidence, witness).unwrap());
    assert_eq!(
        net.executor().fndm().deposit_of(&net.node(node).address()),
        U256::ZERO
    );
}

#[test]
fn historical_tx_lookup_is_valid_not_fraud() {
    // Soundness guard: proofs for old inclusions are bound to old blocks;
    // an honest node answering them must never be slashable.
    let mut net = Network::new();
    let node = net.spawn_node(b"hist-node", U256::from(10u64));
    let witness = net.spawn_node(b"hist-witness", U256::from(10u64));
    let mut client = net.spawn_client(b"hist-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(10_000u64))
        .unwrap();

    // Include a transfer, then let the chain grow well past it.
    let sender = parp_suite::crypto::SecretKey::from_seed(b"hist-sender");
    net.fund(sender.address());
    net.sync_client(&mut client);
    let tx = parp_suite::chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(Address::from_low_u64_be(0x31)),
        value: U256::ONE,
        data: Vec::new(),
    }
    .sign(&sender);
    let tx_hash = tx.hash();
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::SendRawTransaction { raw: tx.encode() },
        )
        .unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    net.advance_blocks(10).unwrap();
    net.sync_client(&mut client);

    // The lookup answers with the *old* containing block — Valid.
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::GetTransactionByHash { hash: tx_hash },
        )
        .unwrap();
    let ProcessOutcome::Valid { proven, .. } = outcome else {
        panic!("historical lookup must be valid, got {outcome:?}");
    };
    assert!(proven);

    // A malicious client trying to frame the honest response as "stale"
    // fails on-chain.
    let provider = net.node(node).address();
    let request = client
        .request_from(provider, RpcCall::GetTransactionByHash { hash: tx_hash })
        .unwrap();
    let response = net.serve(node, &request).unwrap();
    net.sync_client(&mut client);
    let header = net
        .chain()
        .block(response.block_number)
        .unwrap()
        .header
        .clone();
    let evidence = parp_suite::core::FraudEvidence {
        request: request.clone(),
        response: response.clone(),
        header,
        verdict: parp_suite::contracts::FraudVerdict::StaleBlockHeight,
    };
    // Commit the exchange client-side so the payment ledger stays in sync.
    let outcome = client.process_response_from(provider, &response).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert!(
        !net.report_fraud(&evidence, witness).unwrap(),
        "framing an honest historical lookup must revert"
    );

    // "Not found" answers are unverified but not fraudulent either.
    let missing = parp_suite::crypto::keccak256(b"no-such-tx");
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::GetTransactionByHash { hash: missing },
        )
        .unwrap();
    let ProcessOutcome::Valid { result, proven } = outcome else {
        panic!("not-found must be valid-unverified, got {outcome:?}");
    };
    assert!(result.is_empty());
    assert!(!proven);
}

#[test]
fn multiple_clients_share_one_node() {
    let mut net = Network::new();
    let node = net.spawn_node(b"shared-node", U256::from(10u64));
    let mut clients: Vec<_> = (0..4)
        .map(|i| {
            let seed = format!("shared-client-{i}");
            let mut c = net.spawn_client(seed.as_bytes(), U256::from(10u64));
            net.connect(&mut c, node, U256::from(1_000u64)).unwrap();
            c
        })
        .collect();
    // Interleaved requests: every client gets valid responses and the
    // node tracks each channel independently.
    for round in 0..3 {
        for client in clients.iter_mut() {
            let (outcome, _) = net.parp_call(client, node, RpcCall::BlockNumber).unwrap();
            assert!(
                matches!(outcome, ProcessOutcome::Valid { .. }),
                "round {round}"
            );
        }
    }
    assert_eq!(net.node(node).requests_served(), 12);
    for (id, channel) in net.node(node).served_channels() {
        assert_eq!(channel.calls_served, 3, "channel {id}");
        assert_eq!(channel.latest_amount, U256::from(30u64));
    }
}

#[test]
fn pseudonymity_no_identity_beyond_keys() {
    // The protocol's only identity material is the address; two clients
    // with different keys are unlinkable at the protocol level.
    let mut net = Network::new();
    let node = net.spawn_node(b"pseudo-node", U256::from(10u64));
    let mut a = net.spawn_client(b"pseudo-a", U256::from(10u64));
    let mut b = net.spawn_client(b"pseudo-b", U256::from(10u64));
    assert_ne!(a.address(), b.address());
    let ch_a = net.connect(&mut a, node, U256::from(100u64)).unwrap();
    let ch_b = net.connect(&mut b, node, U256::from(100u64)).unwrap();
    assert_ne!(ch_a, ch_b);
    let chan_a = net.executor().cmm().channel(ch_a).unwrap();
    assert_eq!(chan_a.light_client, a.address());
}
