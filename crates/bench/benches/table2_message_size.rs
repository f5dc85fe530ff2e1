//! Table II: message-size overhead of PARP requests/responses relative to
//! base Ethereum JSON-RPC calls (paper §VI-C).
//!
//! Sizes are deterministic, so they are printed once; the timed portion
//! benches the wire encoding itself.

use criterion::{criterion_group, criterion_main, Criterion};
use parp_bench::{connected_fixture, read_call, served_exchange};
use parp_contracts::RpcCall;
use parp_jsonrpc::base_request;
use std::hint::black_box;

fn print_table2() {
    let (mut net, node, mut client) = connected_fixture();
    let me = client.address();

    // Read workload: eth_getBalance.
    let base_read = base_request(&read_call(me), 1).wire_size();
    let (read_req, read_res, _) = served_exchange(&mut net, node, &mut client, read_call(me));
    let provider = net.node(node).address();
    client
        .process_response_from(provider, &read_res)
        .expect("valid read");

    // Write workload: eth_sendRawTransaction.
    let raw_tx = {
        let key = parp_crypto::SecretKey::from_seed(b"t2-sender");
        net.fund(key.address());
        parp_chain::Transaction {
            nonce: 0,
            gas_price: parp_primitives::U256::ZERO,
            gas_limit: 21_000,
            to: Some(parp_primitives::Address::from_low_u64_be(9)),
            value: parp_primitives::U256::from(5u64),
            data: Vec::new(),
        }
        .sign(&key)
        .encode()
    };
    let write_call = RpcCall::SendRawTransaction { raw: raw_tx };
    let base_write = base_request(&write_call, 1).wire_size();
    let (write_req, write_res, _) = served_exchange(&mut net, node, &mut client, write_call);

    println!("=== Table II: message size overhead (bytes) ===");
    println!("base eth_getBalance request        : {base_read} (paper: 118)");
    println!("base eth_sendRawTransaction request: {base_write} (paper: 422 for a ~170B tx)");
    println!(
        "PARP request overhead  (read)      : {} (paper: 226)",
        read_req.overhead_bytes()
    );
    println!(
        "PARP request overhead  (write)     : {} (paper: 226)",
        write_req.overhead_bytes()
    );
    println!(
        "PARP response overhead (read)      : {} + {}B proof (paper: 187 + proof)",
        read_res.overhead_bytes(),
        read_res.proof_bytes()
    );
    println!(
        "PARP response overhead (write)     : {} + {}B proof (paper: 187 + proof)",
        write_res.overhead_bytes(),
        write_res.proof_bytes()
    );
}

fn bench_encoding(c: &mut Criterion) {
    print_table2();
    let (mut net, node, mut client) = connected_fixture();
    let me = client.address();
    let (request, response, _) = served_exchange(&mut net, node, &mut client, read_call(me));
    let mut group = c.benchmark_group("table2");
    group.bench_function("encode_parp_request", |b| {
        b.iter(|| black_box(request.encode()))
    });
    group.bench_function("encode_parp_response", |b| {
        b.iter(|| black_box(response.encode()))
    });
    group.bench_function("encode_base_json_request", |b| {
        b.iter(|| black_box(base_request(&read_call(me), 1).to_bytes()))
    });
    group.finish();
}

criterion_group!(benches, bench_encoding);
criterion_main!(benches);
