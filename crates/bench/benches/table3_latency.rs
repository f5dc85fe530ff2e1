//! Table III: per-step processing latency added by PARP (paper §VI-D).
//!
//! Steps map to Fig. 5: (A) client request generation, (B) server request
//! verification, (C) server response generation (proof-only and total),
//! (D) client response verification (proof-only and total). The write
//! workload uses a transaction inside a 200-transaction block, exactly as
//! the paper; the read workload is an `eth_getBalance`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use parp_bench::{chain_with_block_of, connected_fixture, read_call, served_exchange};
use parp_contracts::{ParpRequest, ParpResponse, RpcCall};
use parp_core::classify_response;
use parp_crypto::SecretKey;
use parp_primitives::{Address, U256};
use std::hint::black_box;

fn bench_request_generation(c: &mut Criterion) {
    let (net, node, client) = connected_fixture();
    let provider = net.node(node).address();
    let mut group = c.benchmark_group("table3/A_request_generation");
    // Read: two ECDSA signatures over the balance query.
    group.bench_function("read", |b| {
        b.iter_batched(
            || client.clone(),
            |mut lc| {
                let me = lc.address();
                black_box(lc.request_from(provider, read_call(me)).expect("request"))
            },
            BatchSize::SmallInput,
        )
    });
    // Write: also signs the raw transfer transaction, as a wallet would.
    let sender = SecretKey::from_seed(b"t3-wallet");
    group.bench_function("write", |b| {
        b.iter_batched(
            || client.clone(),
            |mut lc| {
                let raw = parp_chain::Transaction {
                    nonce: 0,
                    gas_price: U256::ZERO,
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64_be(0xaa)),
                    value: U256::from(5u64),
                    data: Vec::new(),
                }
                .sign(&sender)
                .encode();
                black_box(
                    lc.request_from(provider, RpcCall::SendRawTransaction { raw })
                        .expect("request"),
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_request_verification(c: &mut Criterion) {
    let (mut net, node, mut client) = connected_fixture();
    let request = {
        let me = client.address();
        let provider = net.node(node).address();
        client
            .request_from(provider, read_call(me))
            .expect("request")
    };
    let mut group = c.benchmark_group("table3/B_request_verification");
    // Two signature recoveries + channel lookup (paper: ~703 µs).
    group.bench_function("read", |b| {
        let full_node = net.node(node).clone();
        let executor = net.executor().clone();
        b.iter(|| black_box(full_node.verify_request(&request, &executor)).expect("valid"))
    });
    let _ = net.serve(node, &request); // keep the node state warm
    group.finish();
}

fn bench_response_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/C_response_generation");
    group.sample_size(20);

    // Read: account proof over the current state + response signing.
    let (net, node, client) = {
        let (mut net, node, mut client) = connected_fixture();
        let _ = client.address();
        // Touch some accounts so the state trie has realistic depth.
        for i in 0..64u64 {
            net.fund(Address::from_low_u64_be(1000 + i));
        }
        net.sync_client(&mut client);
        (net, node, client)
    };
    let me = client.address();
    group.bench_function("read_proof_only", |b| {
        let state = net.chain().state();
        b.iter(|| black_box(state.account_proof(&me)))
    });
    group.bench_function("read_total", |b| {
        let request = {
            let mut lc = client.clone();
            let provider = net.node(node).address();
            lc.request_from(provider, read_call(me)).expect("request")
        };
        b.iter_batched(
            || {
                (
                    net.node(node).clone(),
                    net.chain().clone(),
                    net.executor().clone(),
                )
            },
            |(mut fnode, mut chain, mut executor)| {
                black_box(
                    fnode
                        .handle_request(&request, &mut chain, &mut executor)
                        .expect("served"),
                )
            },
            BatchSize::LargeInput,
        )
    });

    // Write: Merkle proof for a transaction in a 200-tx block + signing
    // (the paper's exact setup).
    let (chain200, _) = chain_with_block_of(200);
    let block = chain200.head().clone();
    let node_key = SecretKey::from_seed(b"t3-node");
    let lc_key = SecretKey::from_seed(b"t3-lc");
    let raw = block.transactions[100].encode();
    let request = ParpRequest::build(
        &lc_key,
        0,
        block.hash(),
        U256::from(10u64),
        RpcCall::SendRawTransaction { raw },
    );
    group.bench_function("write_proof_only", |b| {
        b.iter(|| black_box(block.transaction_proof(100).expect("in range")))
    });
    group.bench_function("write_total", |b| {
        b.iter(|| {
            let proof = block.transaction_proof(100).expect("in range");
            black_box(ParpResponse::build(
                &node_key,
                &request,
                block.number(),
                parp_rlp::encode_u64(100),
                proof,
            ))
        })
    });
    group.finish();
}

fn bench_response_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3/D_response_verification");

    // Read: verify an account proof + the response signature.
    let (mut net, node, mut client) = connected_fixture();
    let me = client.address();
    let (request, response, request_height) =
        served_exchange(&mut net, node, &mut client, read_call(me));
    let header = net.chain().head().header.clone();
    let state_root = header.state_root;
    group.bench_function("read_proof_only", |b| {
        let key = parp_crypto::keccak256(me.as_bytes());
        b.iter(|| {
            black_box(
                parp_trie::verify_proof(state_root, key.as_bytes(), &response.proof)
                    .expect("proof verifies"),
            )
        })
    });
    let node_addr = net.node(node).address();
    group.bench_function("read_total", |b| {
        b.iter(|| {
            black_box(classify_response(
                &request,
                &response,
                node_addr,
                request_height,
                |n| {
                    if n == header.number {
                        Some(header.clone())
                    } else {
                        None
                    }
                },
            ))
        })
    });

    // Write: verify a 200-tx-block transaction proof + signature.
    let (chain200, _) = chain_with_block_of(200);
    let block = chain200.head().clone();
    let node_key = SecretKey::from_seed(b"t3d-node");
    let lc_key = SecretKey::from_seed(b"t3d-lc");
    let raw = block.transactions[100].encode();
    let w_request = ParpRequest::build(
        &lc_key,
        0,
        block.hash(),
        U256::from(10u64),
        RpcCall::SendRawTransaction { raw },
    );
    let w_proof = block.transaction_proof(100).expect("in range");
    let w_response = ParpResponse::build(
        &node_key,
        &w_request,
        block.number(),
        parp_rlp::encode_u64(100),
        w_proof,
    );
    let w_header = block.header.clone();
    group.bench_function("write_proof_only", |b| {
        let key = parp_rlp::encode_u64(100);
        b.iter(|| {
            black_box(
                parp_trie::verify_proof(w_header.transactions_root, &key, &w_response.proof)
                    .expect("proof verifies"),
            )
        })
    });
    group.bench_function("write_total", |b| {
        b.iter(|| {
            black_box(classify_response(
                &w_request,
                &w_response,
                node_key.address(),
                block.number(),
                |n| {
                    if n == w_header.number {
                        Some(w_header.clone())
                    } else {
                        None
                    }
                },
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_request_generation,
    bench_request_verification,
    bench_response_generation,
    bench_response_verification
);
criterion_main!(benches);
