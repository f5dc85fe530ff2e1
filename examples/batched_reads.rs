//! The batched request pipeline: one signature, many calls, one
//! deduplicated Merkle multiproof.
//!
//! A wallet watching many accounts is the motivating workload: instead of
//! paying the signature check and per-call proof for every balance, the
//! client signs one batch covering all of them, and the node answers from
//! a single state snapshot with a shared proof whose branch nodes cross
//! the wire once.
//!
//! Run with: `cargo run --example batched_reads`

use parp_suite::contracts::RpcCall;
use parp_suite::core::ProcessBatchOutcome;
use parp_suite::net::Network;
use parp_suite::primitives::{Address, U256};

fn main() {
    let mut net = Network::new();
    let node = net.spawn_node(b"batch-node", U256::from(10u64));
    let mut client = net.spawn_client(b"batch-client", U256::from(10u64));
    net.connect(&mut client, node, U256::from(100_000u64))
        .expect("connect");

    // A portfolio of 16 accounts to watch.
    let watched: Vec<Address> = (0..16)
        .map(|i| Address::from_low_u64_be(0xFEED + i))
        .collect();
    for address in &watched {
        net.fund(*address);
    }
    net.sync_client(&mut client);

    // 16 single calls, for comparison.
    let mut single_proof_bytes = 0;
    let mut single_request_bytes = 0;
    for address in &watched {
        let (_, stats) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: *address })
            .expect("single call");
        single_proof_bytes += stats.proof_bytes;
        single_request_bytes += stats.request_bytes;
    }

    // The same 16 reads as one batch: one signature, one multiproof.
    let calls: Vec<RpcCall> = watched
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    let (outcome, stats) = net
        .parp_batch_call(&mut client, node, calls)
        .expect("batch call");
    let ProcessBatchOutcome::Valid { results, proven } = outcome else {
        panic!("honest node must serve a valid batch, got {outcome:?}");
    };
    assert!(proven.iter().all(|p| *p));

    println!("watched accounts: {}", results.len());
    println!(
        "16 single calls: {} request bytes, {} proof bytes",
        single_request_bytes, single_proof_bytes
    );
    println!(
        "one 16-batch:    {} request bytes, {} proof bytes ({}% of the singles' proofs)",
        stats.request_bytes,
        stats.proof_bytes,
        100 * stats.proof_bytes / single_proof_bytes.max(1)
    );
    println!(
        "channel ledger: {} wei committed over {} verified responses",
        client
            .channel_with(&net.node(node).address())
            .expect("bonded")
            .spent,
        client.valid_responses()
    );
}
