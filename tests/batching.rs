//! End-to-end tests for the batched request pipeline: one signature, many
//! calls, one deduplicated multiproof — with per-item fraud attribution
//! and cumulative-payment monotonicity across mixed single/batch traffic.

use parp_suite::contracts::{FraudVerdict, ParpBatchRequest, ParpResponse, RpcCall};
use parp_suite::core::{
    Classification, InvalidReason, Misbehavior, ProcessBatchOutcome, ProcessOutcome, ServeError,
};
use parp_suite::crypto::keccak256;
use parp_suite::net::Network;
use parp_suite::primitives::{Address, H256, U256};
use parp_suite::trie::{verify_many, verify_proof};

const PRICE: u64 = 10;

fn connected() -> (
    Network,
    parp_suite::net::NodeId,
    parp_suite::core::LightClient,
) {
    let mut net = Network::new();
    let node = net.spawn_node(b"batch-node", U256::from(PRICE));
    let mut client = net.spawn_client(b"batch-client", U256::from(PRICE));
    net.connect(&mut client, node, U256::from(1_000_000u64))
        .expect("connect");
    (net, node, client)
}

fn funded_addresses(net: &mut Network, n: u64) -> Vec<Address> {
    let addresses: Vec<Address> = (0..n)
        .map(|i| Address::from_low_u64_be(0xB000 + i))
        .collect();
    for address in &addresses {
        net.fund(*address);
    }
    addresses
}

#[test]
fn batch_of_reads_verifies_end_to_end() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 8);
    net.sync_client(&mut client);
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .chain([RpcCall::BlockNumber])
        .collect();
    let n = calls.len() as u64;
    let (outcome, stats) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Valid { results, proven } = outcome else {
        panic!("expected valid batch, got {outcome:?}");
    };
    assert_eq!(results.len(), n as usize);
    // Balance reads are multiproof-backed; the chain-tip query is not.
    assert_eq!(proven[..8], [true; 8]);
    assert!(!proven[8]);
    assert!(stats.proof_bytes > 0);
    // One batch advanced the ledger by N × price.
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(n * PRICE)
    );
    assert_eq!(client.valid_responses(), n);
    assert_eq!(net.node(node).requests_served(), n);
}

#[test]
fn empty_batch_rejected_by_client_and_server() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    // Client refuses to build one.
    assert_eq!(
        client.request_batch_from(provider, Vec::new()),
        Err(parp_suite::core::ClientError::EmptyBatch)
    );
    // A hand-built empty batch is refused by the server.
    let request = ParpBatchRequest::build(
        client.secret(),
        client.channel_with(&provider).unwrap().id,
        client.tip().unwrap().hash(),
        U256::from(PRICE),
        Vec::new(),
    );
    assert!(matches!(
        net.serve_batch(node, &request),
        Err(parp_suite::net::SimError::Serve(ServeError::EmptyBatch))
    ));
}

#[test]
fn unbatchable_calls_rejected() {
    // With the multi-header envelope, every *read* batches — including
    // historical inclusion lookups. Only writes travel alone.
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let write = RpcCall::SendRawTransaction { raw: vec![1, 2, 3] };
    assert!(RpcCall::GetTransactionByHash {
        hash: keccak256(b"tx"),
    }
    .batchable());
    assert!(RpcCall::GetTransactionReceipt {
        hash: keccak256(b"tx"),
    }
    .batchable());
    assert!(!write.batchable());
    assert_eq!(
        client.request_batch_from(provider, vec![RpcCall::BlockNumber, write.clone()]),
        Err(parp_suite::core::ClientError::UnbatchableCall)
    );
    // The server refuses them too, independently of the client.
    let request = ParpBatchRequest::build(
        client.secret(),
        client.channel_with(&provider).unwrap().id,
        client.tip().unwrap().hash(),
        U256::from(2 * PRICE),
        vec![RpcCall::BlockNumber, write],
    );
    assert!(matches!(
        net.serve_batch(node, &request),
        Err(parp_suite::net::SimError::Serve(
            ServeError::UnbatchableCall
        ))
    ));
}

#[test]
fn unknown_block_hash_rejected_not_served_at_genesis() {
    // A request pinned to a block hash the node has never seen must be
    // refused outright — the old behaviour silently mapped it to height
    // 0, which would have judged the timestamp check against a
    // fabricated genesis-height view.
    let (mut net, node, client) = connected();
    let ghost_hash = keccak256(b"no-such-block");
    let channel_id = client.channel_with(&net.node(node).address()).unwrap().id;
    let batch = ParpBatchRequest::build(
        client.secret(),
        channel_id,
        ghost_hash,
        U256::from(PRICE),
        vec![RpcCall::BlockNumber],
    );
    assert!(matches!(
        net.serve_batch(node, &batch),
        Err(parp_suite::net::SimError::Serve(
            ServeError::UnknownBlockHash(h)
        )) if h == ghost_hash
    ));
    let single = parp_suite::contracts::ParpRequest::build(
        client.secret(),
        channel_id,
        ghost_hash,
        U256::from(PRICE),
        RpcCall::BlockNumber,
    );
    assert!(matches!(
        net.serve(node, &single),
        Err(parp_suite::net::SimError::Serve(
            ServeError::UnknownBlockHash(h)
        )) if h == ghost_hash
    ));
    // Nothing was served or charged.
    assert_eq!(net.node(node).requests_served(), 0);
}

#[test]
fn batches_mix_balance_and_nonce_reads_over_one_multiproof() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 3);
    net.sync_client(&mut client);
    // Interleave balance and nonce reads of the same and different
    // accounts; both are proven by the same account multiproof.
    let calls = vec![
        RpcCall::GetBalance {
            address: addresses[0],
        },
        RpcCall::GetTransactionCount {
            address: addresses[0],
        },
        RpcCall::GetTransactionCount {
            address: addresses[1],
        },
        RpcCall::GetBalance {
            address: addresses[2],
        },
        RpcCall::GetTransactionCount {
            address: client.address(),
        },
    ];
    let n = calls.len() as u64;
    let (outcome, stats) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Valid { results, proven } = outcome else {
        panic!("expected valid batch, got {outcome:?}");
    };
    assert!(proven.iter().all(|p| *p), "all five items are state-proven");
    assert!(stats.proof_bytes > 0);
    // Balance and nonce reads of the same account return the same
    // proven account record; the client decodes the field it wants.
    assert_eq!(results[0], results[1]);
    let account = parp_suite::chain::Account::decode(&results[1]).expect("account record");
    assert!(account.balance > U256::ZERO);
    assert_eq!(account.nonce, 0, "freshly funded account has nonce 0");
    // The client's own account opened the channel: nonce advanced.
    let own = parp_suite::chain::Account::decode(&results[4]).expect("account record");
    assert!(own.nonce > 0, "channel-open transaction bumped the nonce");
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(n * PRICE)
    );

    // A *forged* nonce answer inside a batch is provable fraud, exactly
    // like a forged balance.
    net.node_mut(node)
        .set_misbehavior(Misbehavior::ForgedResult);
    let calls = vec![
        RpcCall::GetTransactionCount {
            address: addresses[0],
        },
        RpcCall::GetTransactionCount {
            address: addresses[1],
        },
    ];
    let (outcome, _) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    assert_eq!(items[0], Classification::Valid);
    assert_eq!(
        items[1],
        Classification::Fraudulent(FraudVerdict::InvalidProof)
    );
    assert_eq!(evidence.item, Some(1));
}

#[test]
fn duplicate_keys_deduplicated_in_multiproof() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 2);
    net.sync_client(&mut client);
    let target = addresses[0];
    // Five reads of the same account: the multiproof must carry that
    // account's path once, not five times.
    let repeated = client
        .request_batch_from(provider, vec![RpcCall::GetBalance { address: target }; 5])
        .expect("batch request");
    let repeated_response = net.serve_batch(node, &repeated).expect("serve");
    net.sync_client(&mut client);
    // The deduplicated proof verifies all five items.
    let outcome = client
        .process_batch_response_from(provider, &repeated_response)
        .expect("process");
    let ProcessBatchOutcome::Valid { results, .. } = outcome else {
        panic!("expected valid, got {outcome:?}");
    };
    assert_eq!(results.len(), 5);
    assert!(results.iter().all(|r| r == &results[0]));
    // A single read of the same account needs the identical node set:
    // duplicate keys contributed nothing extra.
    let distinct = client
        .request_batch_from(provider, vec![RpcCall::GetBalance { address: target }])
        .expect("batch request");
    let distinct_response = net.serve_batch(node, &distinct).expect("serve");
    assert_eq!(
        repeated_response.multiproof, distinct_response.multiproof,
        "duplicate keys must not enlarge the multiproof"
    );
}

#[test]
fn one_forged_item_classified_per_item_and_yields_evidence() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 4);
    net.sync_client(&mut client);
    // Forge only the last item's result; the other three stay honest.
    net.node_mut(node)
        .set_misbehavior(Misbehavior::ForgedResult);
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let (outcome, _) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    assert_eq!(items.len(), 4);
    assert_eq!(items[0], Classification::Valid);
    assert_eq!(items[1], Classification::Valid);
    assert_eq!(items[2], Classification::Valid);
    assert_eq!(
        items[3],
        Classification::Fraudulent(FraudVerdict::InvalidProof)
    );
    assert_eq!(evidence.item, Some(3));
    assert_eq!(evidence.verdict, FraudVerdict::InvalidProof);
    // The evidence binds the node's own signature to the forged item.
    assert_eq!(evidence.response.signer(), Some(provider));
}

#[test]
fn batch_level_fraud_condemns_every_item() {
    for (misbehavior, verdict) in [
        (Misbehavior::WrongAmount, FraudVerdict::AmountMismatch),
        (Misbehavior::StaleHeight, FraudVerdict::StaleBlockHeight),
        (Misbehavior::CorruptProof, FraudVerdict::InvalidProof),
        (Misbehavior::OmitProof, FraudVerdict::InvalidProof),
    ] {
        let (mut net, node, mut client) = connected();
        let addresses = funded_addresses(&mut net, 3);
        net.sync_client(&mut client);
        net.node_mut(node).set_misbehavior(misbehavior);
        let calls: Vec<RpcCall> = addresses
            .iter()
            .map(|a| RpcCall::GetBalance { address: *a })
            .collect();
        let (outcome, _) = net
            .parp_batch_call(&mut client, node, calls)
            .expect("batch call");
        let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
            panic!("{misbehavior:?}: expected fraud, got {outcome:?}");
        };
        assert_eq!(evidence.item, None, "{misbehavior:?} is batch-level");
        assert_eq!(evidence.verdict, verdict, "{misbehavior:?}");
        assert!(
            items
                .iter()
                .all(|c| *c == Classification::Fraudulent(verdict)),
            "{misbehavior:?}: every item condemned"
        );
    }
}

#[test]
fn unprovable_batch_misbehavior_is_invalid_not_fraud() {
    for misbehavior in [
        Misbehavior::WrongChannelId,
        Misbehavior::WrongResponseKey,
        Misbehavior::WrongRequestHash,
    ] {
        let (mut net, node, mut client) = connected();
        let addresses = funded_addresses(&mut net, 2);
        net.sync_client(&mut client);
        net.node_mut(node).set_misbehavior(misbehavior);
        let calls: Vec<RpcCall> = addresses
            .iter()
            .map(|a| RpcCall::GetBalance { address: *a })
            .collect();
        let (outcome, _) = net
            .parp_batch_call(&mut client, node, calls)
            .expect("batch call");
        assert!(
            matches!(outcome, ProcessBatchOutcome::Invalid(_)),
            "{misbehavior:?}: expected invalid, got {outcome:?}"
        );
    }
}

#[test]
fn cumulative_payment_monotonic_across_mixed_traffic() {
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 4);
    net.sync_client(&mut client);
    let me = client.address();

    // Single call: spent 0 → 10.
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
        .expect("single");
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(PRICE)
    );

    // Batch of 4: spent 10 → 50.
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let (outcome, _) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch");
    assert!(matches!(outcome, ProcessBatchOutcome::Valid { .. }));
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(5 * PRICE)
    );

    // Another single: spent 50 → 60.
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::BlockNumber)
        .expect("single");
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(6 * PRICE)
    );

    // The node's receivable tracks the same cumulative amount, and its
    // per-channel call count includes the batched items.
    let channel_id = client.channel_with(&provider).unwrap().id;
    let served = net.node(node).served_channel(channel_id).expect("served");
    assert_eq!(served.latest_amount, U256::from(6 * PRICE));
    assert_eq!(served.calls_served, 6);

    // Replaying the committed amount (no increase) is refused: a batch
    // paying only the current total offers nothing for its items.
    let replay = ParpBatchRequest::build(
        client.secret(),
        channel_id,
        client.tip().unwrap().hash(),
        U256::from(6 * PRICE),
        vec![RpcCall::BlockNumber],
    );
    assert!(matches!(
        net.serve_batch(node, &replay),
        Err(parp_suite::net::SimError::Serve(
            ServeError::InsufficientPayment { .. }
        ))
    ));

    // An underpaying batch (N items, fewer than N × price on top) too.
    let underpay = ParpBatchRequest::build(
        client.secret(),
        channel_id,
        client.tip().unwrap().hash(),
        U256::from(6 * PRICE + PRICE), // one price for a two-item batch
        vec![RpcCall::BlockNumber, RpcCall::BlockNumber],
    );
    assert!(matches!(
        net.serve_batch(node, &underpay),
        Err(parp_suite::net::SimError::Serve(
            ServeError::InsufficientPayment { .. }
        ))
    ));
}

#[test]
fn batch_beats_singles_on_proof_bytes_and_server_time() {
    // The acceptance check: a 64-call GetBalance batch uses fewer total
    // proof bytes and lower per-call server time than 64 single calls.
    let (mut net, node, mut client) = connected();
    let addresses = funded_addresses(&mut net, 64);
    net.sync_client(&mut client);

    let mut singles_proof_bytes = 0usize;
    let mut singles_server_us = 0u64;
    for address in &addresses {
        let (outcome, stats) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: *address })
            .expect("single");
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
        singles_proof_bytes += stats.proof_bytes;
        singles_server_us += stats.server_us;
    }

    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let (outcome, stats) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch");
    assert!(matches!(outcome, ProcessBatchOutcome::Valid { .. }));

    assert!(
        stats.proof_bytes < singles_proof_bytes,
        "batch multiproof ({} B) must undercut 64 single proofs ({} B)",
        stats.proof_bytes,
        singles_proof_bytes
    );
    // Per-call server time: the batch's one signature check and one trie
    // build amortize over all 64 items.
    assert!(
        stats.server_us < singles_server_us,
        "batch server time ({} µs for 64 calls) must undercut 64 singles ({} µs)",
        stats.server_us,
        singles_server_us
    );
}

#[test]
fn batch_multiproof_verifies_against_header_root() {
    // The served multiproof is a real trie multiproof: verify it directly
    // against the header's state root with verify_many.
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 6);
    net.sync_client(&mut client);
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let request = client.request_batch_from(provider, calls).expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    net.sync_client(&mut client);
    let header = client.header(response.block_number).expect("header");
    let keys: Vec<Vec<u8>> = addresses
        .iter()
        .map(|a| keccak256(a.as_bytes()).as_bytes().to_vec())
        .collect();
    let proven = verify_many(header.state_root, &keys, &response.multiproof).expect("verifies");
    for (value, result) in proven.iter().zip(&response.results) {
        assert_eq!(value.as_ref().expect("funded account"), result);
    }
}

#[test]
fn batch_fraud_evidence_slashes_on_chain() {
    // The full accountability loop for batches: a forged item inside a
    // signed batch → client evidence → witness relays the proof → the
    // FDM condemns the node, slashes its deposit and rewards the client.
    let mut net = Network::new();
    let rogue = net.spawn_node(b"batch-rogue", U256::from(PRICE));
    let witness = net.spawn_node(b"batch-witness", U256::from(PRICE));
    let mut client = net.spawn_client(b"batch-victim", U256::from(PRICE));
    net.connect(&mut client, rogue, U256::from(100_000u64))
        .expect("connect");
    let addresses = funded_addresses(&mut net, 4);
    net.sync_client(&mut client);
    net.node_mut(rogue)
        .set_misbehavior(Misbehavior::ForgedResult);
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let (outcome, _) = net
        .parp_batch_call(&mut client, rogue, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { evidence, .. } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    let offender = net.node(rogue).address();
    let deposit_before = net.executor().fndm().deposit_of(&offender);
    assert!(deposit_before > U256::ZERO);
    assert!(
        net.report_batch_fraud(&evidence, witness).expect("relay"),
        "batch fraud proof must be accepted on-chain"
    );
    assert_eq!(net.executor().fndm().deposit_of(&offender), U256::ZERO);
    let record = net
        .executor()
        .fdm()
        .record(&evidence.request.request_hash)
        .expect("fraud record");
    assert_eq!(record.offender, offender);
    assert_eq!(record.verdict, FraudVerdict::InvalidProof);
    assert_eq!(record.slashed, deposit_before);
    // Double reporting the same batch is refused.
    assert!(!net.report_batch_fraud(&evidence, witness).expect("relay"));
}

#[test]
fn honest_batch_cannot_be_framed() {
    // Submitting a "fraud proof" against an honestly served batch must
    // revert: the FDM finds no condition and the node keeps its deposit.
    let mut net = Network::new();
    let node = net.spawn_node(b"frame-node", U256::from(PRICE));
    let witness = net.spawn_node(b"frame-witness", U256::from(PRICE));
    let mut client = net.spawn_client(b"frame-client", U256::from(PRICE));
    net.connect(&mut client, node, U256::from(100_000u64))
        .expect("connect");
    let addresses = funded_addresses(&mut net, 3);
    net.sync_client(&mut client);
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let request = client
        .request_batch_from(net.node(node).address(), calls)
        .expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    net.sync_client(&mut client);
    let header = client
        .header(response.block_number)
        .expect("header")
        .clone();
    let evidence = parp_suite::core::BatchFraudEvidence {
        request,
        response,
        headers: vec![header],
        verdict: FraudVerdict::InvalidProof,
        item: Some(0),
    };
    let offender = net.node(node).address();
    let deposit_before = net.executor().fndm().deposit_of(&offender);
    assert!(
        !net.report_batch_fraud(&evidence, witness).expect("relay"),
        "framing an honest batch must revert"
    );
    assert_eq!(net.executor().fndm().deposit_of(&offender), deposit_before);
}

#[test]
fn probe_batches_served_while_channel_is_closing() {
    // The §V-C Closing-channel allowance applies to batches made purely
    // of liveness probes, matching the single-call path; anything else
    // in the batch requires an Open channel.
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let channel_id = client.channel_with(&provider).unwrap().id;
    // The node secretly starts closing the channel with the zero state.
    let node_key = *net.node(node).secret();
    let close = parp_suite::contracts::ModuleCall::CloseChannel {
        channel_id,
        amount: U256::ZERO,
        payment_sig: parp_suite::crypto::sign(
            client.secret(),
            &parp_suite::contracts::payment_digest(channel_id, &U256::ZERO),
        ),
    };
    assert!(net
        .submit_module_call(&node_key, close, U256::ZERO)
        .unwrap());
    net.sync_client(&mut client);
    // A pure probe batch is still served...
    let probes = vec![RpcCall::GetChannelStatus { channel_id }; 2];
    let request = client
        .request_batch_from(provider, probes)
        .expect("probe batch");
    let response = net
        .serve_batch(node, &request)
        .expect("served while closing");
    assert!(response
        .results
        .iter()
        .all(|r| !parp_suite::core::LightClient::channel_reported_open(r)));
    // ...but a batch with any other call is refused.
    let mixed = ParpBatchRequest::build(
        client.secret(),
        channel_id,
        client.tip().unwrap().hash(),
        U256::from(4 * PRICE),
        vec![
            RpcCall::GetChannelStatus { channel_id },
            RpcCall::BlockNumber,
        ],
    );
    assert!(matches!(
        net.serve_batch(node, &mixed),
        Err(parp_suite::net::SimError::Serve(
            ServeError::ChannelNotOpen(_)
        ))
    ));
}

#[test]
fn multi_block_mixed_batch_round_trips() {
    // The acceptance scenario: one signed batch mixing GetBalance,
    // GetTransactionByHash and GetTransactionReceipt across ≥ 3 distinct
    // blocks, every item verified through the multi-header envelope.
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    let addresses = funded_addresses(&mut net, 3);
    net.sync_client(&mut client);
    // The last three mined blocks each hold one faucet transfer.
    let transactions = net.transaction_locations();
    let lookups: Vec<(H256, u64)> = transactions[transactions.len() - 3..].to_vec();
    let inclusion_blocks: std::collections::BTreeSet<u64> =
        lookups.iter().map(|(_, block)| *block).collect();
    assert_eq!(
        inclusion_blocks.len(),
        3,
        "three distinct containing blocks"
    );

    let calls = vec![
        RpcCall::GetBalance {
            address: addresses[0],
        },
        RpcCall::GetTransactionByHash { hash: lookups[0].0 },
        RpcCall::GetTransactionCount {
            address: addresses[1],
        },
        RpcCall::GetTransactionReceipt { hash: lookups[1].0 },
        RpcCall::GetTransactionByHash { hash: lookups[2].0 },
        RpcCall::BlockNumber,
        // Unknown hash: served as an unproven "not found".
        RpcCall::GetTransactionByHash {
            hash: keccak256(b"no-such-tx"),
        },
    ];
    let n = calls.len() as u64;
    let (outcome, stats) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Valid { results, proven } = outcome else {
        panic!("expected valid batch, got {outcome:?}");
    };
    assert_eq!(results.len(), n as usize);
    assert_eq!(
        proven,
        vec![true, true, true, true, true, false, false],
        "state + found-inclusion items proven, chain query and not-found unproven"
    );
    assert!(results[6].is_empty(), "unknown lookup answers empty");
    assert!(stats.proof_bytes > 0);
    assert_eq!(
        client.channel_with(&provider).unwrap().spent,
        U256::from(n * PRICE)
    );
    assert_eq!(client.valid_responses(), n);
}

#[test]
fn multi_block_batch_headers_and_proofs_bind_per_block() {
    // The served envelope itself: deduplicated headers cover exactly the
    // referenced blocks, and each inclusion proof verifies against its
    // own block's transaction/receipt root — not the snapshot's.
    let (mut net, node, mut client) = connected();
    let provider = net.node(node).address();
    funded_addresses(&mut net, 3);
    // One empty block on top: the snapshot head is distinct from every
    // lookup's containing block, so the envelope carries 4 headers.
    net.advance_blocks(1).expect("empty block");
    net.sync_client(&mut client);
    let transactions = net.transaction_locations();
    let lookups: Vec<(H256, u64)> = transactions[transactions.len() - 3..].to_vec();
    let calls = vec![
        RpcCall::GetTransactionByHash { hash: lookups[0].0 },
        RpcCall::GetTransactionReceipt { hash: lookups[1].0 },
        RpcCall::GetTransactionByHash { hash: lookups[2].0 },
    ];
    let request = client.request_batch_from(provider, calls).expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    net.sync_client(&mut client);

    // Items bind to their containing blocks, not the snapshot.
    assert_eq!(response.block_number, net.chain().height());
    assert_eq!(
        response.item_blocks,
        vec![lookups[0].1, lookups[1].1, lookups[2].1]
    );
    // One carried header per referenced block (3 inclusion + snapshot),
    // ascending, each matching the client's own trusted header.
    let referenced = response.referenced_blocks();
    assert_eq!(referenced.len(), 4);
    assert_eq!(response.headers.len(), referenced.len());
    for (bytes, number) in response.headers.iter().zip(&referenced) {
        let carried = parp_suite::chain::Header::decode(bytes).expect("carried header");
        assert_eq!(carried.number, *number);
        assert_eq!(
            carried.hash(),
            client.header(*number).expect("synced").hash()
        );
    }

    // Each inclusion proof verifies against its own block's root.
    let tx_header = client.header(lookups[0].1).expect("synced");
    let index = parp_suite::rlp::decode(&response.results[0])
        .unwrap()
        .as_u64()
        .unwrap();
    let proven_tx = verify_proof(
        tx_header.transactions_root,
        &parp_suite::rlp::encode_u64(index),
        &response.item_proofs[0],
    )
    .expect("walks")
    .expect("included");
    assert_eq!(keccak256(&proven_tx), lookups[0].0);

    let receipt_header = client.header(lookups[1].1).expect("synced");
    let fields = parp_suite::rlp::decode_list_of(&response.results[1], 2).expect("receipt result");
    let receipt_index = fields[0].as_u64().unwrap();
    let claimed_receipt = fields[1].as_bytes().unwrap();
    let proven_receipt = verify_proof(
        receipt_header.receipts_root,
        &parp_suite::rlp::encode_u64(receipt_index),
        &response.item_proofs[1],
    )
    .expect("walks")
    .expect("included");
    assert_eq!(proven_receipt, claimed_receipt);

    // And the client classifies the whole thing Valid.
    let outcome = client
        .process_batch_response_from(provider, &response)
        .expect("process");
    assert!(matches!(outcome, ProcessBatchOutcome::Valid { .. }));
}

#[test]
fn forged_inclusion_item_in_multi_block_batch_slashed() {
    // The acceptance fraud case: a forged receipt inside a multi-block
    // batch is caught per item, and the evidence (with its multi-header
    // set) slashes the node through submitBatchFraudProof.
    let mut net = Network::new();
    let rogue = net.spawn_node(b"mh-rogue", U256::from(PRICE));
    let witness = net.spawn_node(b"mh-witness", U256::from(PRICE));
    let mut client = net.spawn_client(b"mh-victim", U256::from(PRICE));
    net.connect(&mut client, rogue, U256::from(100_000u64))
        .expect("connect");
    let addresses = funded_addresses(&mut net, 2);
    // The lookup target must live strictly below the serving snapshot.
    net.advance_blocks(1).expect("empty block");
    net.sync_client(&mut client);
    let transactions = net.transaction_locations();
    let (target_hash, target_block) = *transactions.last().expect("mined");
    assert!(target_block < net.chain().height(), "historical block");

    net.node_mut(rogue)
        .set_misbehavior(Misbehavior::ForgedResult);
    // Last item is the receipt lookup: the forgery doctors its contents
    // while keeping the [index, receipt] envelope well-formed.
    let calls = vec![
        RpcCall::GetBalance {
            address: addresses[0],
        },
        RpcCall::GetTransactionByHash { hash: target_hash },
        RpcCall::GetTransactionReceipt { hash: target_hash },
    ];
    let (outcome, _) = net
        .parp_batch_call(&mut client, rogue, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    assert_eq!(items[0], Classification::Valid);
    assert_eq!(items[1], Classification::Valid);
    assert_eq!(
        items[2],
        Classification::Fraudulent(FraudVerdict::InvalidProof)
    );
    assert_eq!(evidence.item, Some(2));
    // The evidence carries the full multi-header set: snapshot block +
    // the lookup's containing block.
    assert!(evidence.headers.iter().any(|h| h.number == target_block));
    assert!(evidence
        .headers
        .iter()
        .any(|h| h.number == evidence.response.block_number));

    let offender = net.node(rogue).address();
    let deposit_before = net.executor().fndm().deposit_of(&offender);
    assert!(deposit_before > U256::ZERO);
    assert!(
        net.report_batch_fraud(&evidence, witness).expect("relay"),
        "multi-header batch fraud proof must be accepted on-chain"
    );
    assert_eq!(net.executor().fndm().deposit_of(&offender), U256::ZERO);
    let record = net
        .executor()
        .fdm()
        .record(&evidence.request.request_hash)
        .expect("fraud record");
    assert_eq!(record.offender, offender);
    assert_eq!(record.verdict, FraudVerdict::InvalidProof);
    // Double reporting the same batch is refused.
    assert!(!net.report_batch_fraud(&evidence, witness).expect("relay"));
}

#[test]
fn unknown_get_header_rejected_not_served_empty() {
    // Regression for the silent-empty-header bug: GetHeader for a block
    // this node does not have used to answer an empty unproven payload
    // indistinguishable from a real header. It must now refuse, on the
    // single and the batched path, without charging.
    let (mut net, node, mut client) = connected();
    net.sync_client(&mut client);
    let beyond = net.chain().height() + 100;
    let channel_id = client.channel_with(&net.node(node).address()).unwrap().id;

    let single = parp_suite::contracts::ParpRequest::build(
        client.secret(),
        channel_id,
        client.tip().unwrap().hash(),
        U256::from(PRICE),
        RpcCall::GetHeader { number: beyond },
    );
    assert!(matches!(
        net.serve(node, &single),
        Err(parp_suite::net::SimError::Serve(ServeError::UnknownBlock(n))) if n == beyond
    ));

    let batch = ParpBatchRequest::build(
        client.secret(),
        channel_id,
        client.tip().unwrap().hash(),
        U256::from(2 * PRICE),
        vec![RpcCall::BlockNumber, RpcCall::GetHeader { number: beyond }],
    );
    assert!(matches!(
        net.serve_batch(node, &batch),
        Err(parp_suite::net::SimError::Serve(ServeError::UnknownBlock(n))) if n == beyond
    ));
    assert_eq!(net.node(node).requests_served(), 0, "nothing charged");

    // A known header is still served, and its payload is the real one.
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::GetHeader { number: 0 })
        .expect("known header");
    let ProcessOutcome::Valid { result, .. } = outcome else {
        panic!("expected valid, got {outcome:?}");
    };
    assert_eq!(
        result,
        net.chain().block(0).unwrap().header.encode(),
        "served header payload is the genesis header"
    );
}

#[test]
fn fresh_item_fraud_slashable_despite_out_of_window_lookup() {
    // An honest historical lookup whose containing block fell out of
    // the 256-block BLOCKHASH window must not shield fraud in the fresh
    // items next to it: the FDM skips the unvalidatable header and
    // still condemns the forged state item against the snapshot root.
    let mut net = Network::new();
    let rogue = net.spawn_node(b"window-rogue", U256::from(PRICE));
    let witness = net.spawn_node(b"window-witness", U256::from(PRICE));
    let mut client = net.spawn_client(b"window-victim", U256::from(PRICE));
    net.connect(&mut client, rogue, U256::from(100_000u64))
        .expect("connect");
    let addresses = funded_addresses(&mut net, 1);
    let (old_hash, old_block) = *net.transaction_locations().last().expect("mined");
    // Push the lookup's block far outside the BLOCKHASH window.
    net.advance_blocks(parp_suite::chain::BLOCK_HASH_WINDOW + 5)
        .expect("advance");
    net.sync_client(&mut client);
    assert!(net.chain().height() - old_block > parp_suite::chain::BLOCK_HASH_WINDOW);

    // Last item is the state read: ForgedResult forges it; the old
    // lookup stays honest.
    net.node_mut(rogue)
        .set_misbehavior(Misbehavior::ForgedResult);
    let calls = vec![
        RpcCall::GetTransactionByHash { hash: old_hash },
        RpcCall::GetBalance {
            address: addresses[0],
        },
    ];
    let (outcome, _) = net
        .parp_batch_call(&mut client, rogue, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    // The client (which holds every header) judges both items.
    assert_eq!(items[0], Classification::Valid);
    assert_eq!(
        items[1],
        Classification::Fraudulent(FraudVerdict::InvalidProof)
    );
    // The evidence carries the old header too; the FDM skips it (it
    // cannot validate it) and slashes on the fresh item regardless.
    let offender = net.node(rogue).address();
    assert!(net.executor().fndm().deposit_of(&offender) > U256::ZERO);
    assert!(
        net.report_batch_fraud(&evidence, witness).expect("relay"),
        "out-of-window honest lookup must not block the slash"
    );
    assert_eq!(net.executor().fndm().deposit_of(&offender), U256::ZERO);
}

#[test]
fn forged_transaction_lookup_in_batch_is_provable_fraud() {
    // A doctored transaction-index answer keeps its rlp(index) shape,
    // so the per-item check proves it wrong (fraud) rather than merely
    // failing to parse it (invalid).
    let (mut net, node, mut client) = connected();
    funded_addresses(&mut net, 2);
    net.advance_blocks(1).expect("empty block");
    net.sync_client(&mut client);
    let (tx_hash, _) = *net.transaction_locations().last().expect("mined");
    net.node_mut(node)
        .set_misbehavior(Misbehavior::ForgedResult);
    let calls = vec![
        RpcCall::BlockNumber,
        RpcCall::GetTransactionByHash { hash: tx_hash },
    ];
    let (outcome, _) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Fraud { items, evidence } = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    assert_eq!(items[0], Classification::Valid);
    assert_eq!(
        items[1],
        Classification::Fraudulent(FraudVerdict::InvalidProof)
    );
    assert_eq!(evidence.item, Some(1));
}

/// One pending store holds single and batch requests side by side; a
/// response whose echoed hash is corrupted pairs by transport — within
/// its own connection and its own wire shape only. With a batch *and* a
/// single in flight on provider A and a single in flight on B, a batch
/// response can never consume a single request's entry, nor the
/// reverse, nor anything of B's.
#[test]
fn corrupted_echo_pairs_within_one_connection_and_one_wire_shape() {
    let mut net = Network::new();
    let node_a = net.spawn_node(b"echo-node-a", U256::from(PRICE));
    let node_b = net.spawn_node(b"echo-node-b", U256::from(PRICE));
    let mut client = net.spawn_client(b"echo-client", U256::from(PRICE));
    for node in [node_a, node_b] {
        net.connect(&mut client, node, U256::from(1_000_000u64))
            .expect("connect");
    }
    let addresses = funded_addresses(&mut net, 2);
    net.sync_client(&mut client);
    let (a, b) = (net.node(node_a).address(), net.node(node_b).address());
    let height = net.chain().height();
    let secrets = [node_a, node_b].map(|node| *net.node(node).secret());
    let tip_answer = |node: usize, request| {
        let result = parp_suite::rlp::encode_u64(height);
        ParpResponse::build(&secrets[node], request, height, result, Vec::new())
    };

    let single_a = client.request_from(a, RpcCall::BlockNumber).unwrap();
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let batch_a = client.request_batch_from(a, calls).unwrap();
    let single_b = client.request_from(b, RpcCall::BlockNumber).unwrap();
    assert_eq!((client.pending_with(&a), client.pending_with(&b)), (2, 1));
    let honest_batch = net.serve_batch(node_a, &batch_a).expect("batch served");

    // A single response with a garbage echo arrives over A's connection:
    // it pairs with A's one single request — not with the batch — and
    // the §V-D hash check refuses it.
    let mut garbage_single = tip_answer(0, &single_a);
    garbage_single.request_hash = keccak256(b"corrupted single echo");
    assert_eq!(
        client.process_response_from(a, &garbage_single).unwrap(),
        ProcessOutcome::Invalid(InvalidReason::RequestHashMismatch)
    );
    assert_eq!((client.pending_with(&a), client.pending_with(&b)), (1, 1));
    // Nothing single is left on A: a second garbage single pairs with
    // nothing, and in particular not with the batch still in flight.
    assert_eq!(
        client.process_response_from(a, &garbage_single),
        Err(parp_suite::core::ClientError::UnknownResponse)
    );
    assert_eq!(client.pending_with(&a), 1);

    // A batch response echoing *B's single request's* hash arrives over
    // A's connection: the hash names a single request on another
    // channel, so it pairs by transport with A's one batch — B's entry
    // survives — and is refused.
    let mut garbage_batch = honest_batch.clone();
    garbage_batch.request_hash = single_b.request_hash;
    assert_eq!(
        client
            .process_batch_response_from(a, &garbage_batch)
            .unwrap(),
        ProcessBatchOutcome::Invalid(InvalidReason::RequestHashMismatch)
    );
    assert_eq!((client.pending_with(&a), client.pending_with(&b)), (0, 1));
    // With no batch left anywhere, a batch response over B's connection
    // pairs with nothing — B's single request is not a candidate.
    assert_eq!(
        client.process_batch_response_from(b, &garbage_batch),
        Err(parp_suite::core::ClientError::UnknownResponse)
    );
    // B's request is still alive and pairs with its honest response.
    let honest_b = tip_answer(1, &single_b);
    assert!(matches!(
        client.process_response_from(b, &honest_b).unwrap(),
        ProcessOutcome::Valid { .. }
    ));
    assert_eq!(client.pending_with(&b), 0);
}
