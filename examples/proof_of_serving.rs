//! The §VIII "Proof of Serving" extension: a full node aggregates the
//! payment receipts (σ_a signatures) it collected while serving light
//! clients into a verifiable claim of work performed — the building block
//! for the paper's proposed serving-reward mechanism.
//!
//! Run with: `cargo run --example proof_of_serving`

use parp_suite::contracts::RpcCall;
use parp_suite::core::{collect_serving_proof, verify_serving_proof, ProcessOutcome};
use parp_suite::net::Network;
use parp_suite::primitives::U256;

fn main() {
    let mut net = Network::new();
    let node = net.spawn_node(b"pos-node", U256::from(10u64));

    // Three clients with different usage patterns.
    let mut clients = Vec::new();
    for i in 0..3 {
        let seed = format!("pos-client-{i}");
        let mut client = net.spawn_client(seed.as_bytes(), U256::from(10u64));
        net.connect(&mut client, node, U256::from(10_000u64))
            .expect("connect");
        clients.push(client);
    }
    for (i, client) in clients.iter_mut().enumerate() {
        let calls = (i + 1) * 4;
        for _ in 0..calls {
            let (outcome, _) = net
                .parp_call(client, node, RpcCall::BlockNumber)
                .expect("call");
            assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
        }
        println!(
            "client {} paid for {calls} calls (channel spent: {} wei)",
            client.address(),
            client
                .channel_with(&net.node(node).address())
                .expect("bonded")
                .spent
        );
    }

    // The node aggregates its receipts.
    let proof = collect_serving_proof(net.node(node));
    println!(
        "\nnode {} claims {} wei of service across {} channels",
        proof.node,
        proof.claimed_total(),
        proof.receipts.len()
    );

    // Anyone can verify the claim against on-chain channel records: every
    // receipt must carry the channel owner's signature and respect the
    // channel budget.
    let verified = verify_serving_proof(&proof, net.executor().cmm()).expect("valid proof");
    println!("verified serving total: {verified} wei");
    assert_eq!(verified, proof.claimed_total());

    // A doctored claim does not survive verification.
    let mut doctored = proof.clone();
    doctored.receipts[0].amount += U256::from(1_000u64);
    match verify_serving_proof(&doctored, net.executor().cmm()) {
        Err(e) => println!("doctored claim rejected: {e}"),
        Ok(_) => panic!("inflated receipts must not verify"),
    }
    println!("\n(the Sybil caveat from §VIII applies: receipts only measure paid channels,");
    println!(" and every channel requires a real on-chain budget deposit)");
}
