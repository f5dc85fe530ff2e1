//! Batched pipeline vs. single calls: N `eth_getBalance` reads served as
//! N single PARP exchanges (N signature checks, N per-call proofs) versus
//! one N-item batch (one signature check, one snapshot, one deduplicated
//! multiproof).
//!
//! Reports server-side processing time per shape, and prints the
//! bytes-on-wire comparison (request + response + proof) once at startup.
//! The companion tier-1 test `tests/batching.rs` asserts the wins; this
//! bench quantifies them.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use parp_bench::{bench_price, populated_fixture, read_call};
use parp_contracts::{ParpBatchRequest, ParpRequest, RpcCall};
use parp_primitives::{Address, U256};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

const ACCOUNTS: usize = 128;
const BATCH_SIZES: [usize; 3] = [8, 16, 64];

/// Builds `n` single requests continuing the channel's cumulative amount
/// from `*amount` (each offering `price` more than the last).
fn build_singles(
    client: &parp_core::LightClient,
    provider: Address,
    amount: &Cell<u64>,
    calls: &[RpcCall],
) -> Vec<ParpRequest> {
    let channel = client.channel_with(&provider).expect("bonded");
    let tip = client.tip().expect("synced").hash();
    calls
        .iter()
        .map(|call| {
            amount.set(amount.get() + 10);
            ParpRequest::build(
                client.secret(),
                channel.id,
                tip,
                U256::from(amount.get()),
                call.clone(),
            )
        })
        .collect()
}

/// Builds one batch request covering `calls`, continuing from `*amount`.
fn build_batch(
    client: &parp_core::LightClient,
    provider: Address,
    amount: &Cell<u64>,
    calls: &[RpcCall],
) -> ParpBatchRequest {
    let channel = client.channel_with(&provider).expect("bonded");
    let tip = client.tip().expect("synced").hash();
    amount.set(amount.get() + 10 * calls.len() as u64);
    ParpBatchRequest::build(
        client.secret(),
        channel.id,
        tip,
        U256::from(amount.get()),
        calls.to_vec(),
    )
}

fn print_wire_comparison() {
    let (mut net, node, client, addresses) = populated_fixture(ACCOUNTS);
    let provider = net.node(node).address();
    // One cumulative-payment counter across every shape: the channel's
    // committed amount only ever grows.
    let amount = Cell::new(0u64);
    for n in BATCH_SIZES {
        let calls: Vec<RpcCall> = addresses[..n].iter().map(|a| read_call(*a)).collect();
        let singles = build_singles(&client, provider, &amount, &calls);
        let mut single_req = 0usize;
        let mut single_res = 0usize;
        let mut single_proof = 0usize;
        for request in &singles {
            let response = net.serve(node, request).expect("single serve");
            single_req += request.encode().len();
            single_res += response.encode().len();
            single_proof += response.proof_bytes();
        }
        let batch = build_batch(&client, provider, &amount, &calls);
        let response = net.serve_batch(node, &batch).expect("batch serve");
        let (batch_req, batch_res, batch_proof) = (
            batch.encode().len(),
            response.encode().len(),
            response.proof_bytes(),
        );
        println!(
            "wire bytes, {n:>3} GetBalance calls | singles: req {single_req:>6}  res {single_res:>6}  \
             proof {single_proof:>6} | batch: req {batch_req:>6}  res {batch_res:>6}  proof {batch_proof:>6} \
             | proof saved {:.1}%",
            100.0 * (1.0 - batch_proof as f64 / single_proof.max(1) as f64),
        );
    }
}

fn bench_server_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_vs_singles/server_time");
    group.sample_size(20);
    for n in BATCH_SIZES {
        // Singles: N envelope verifications, N per-call trie walks.
        let (mut net, node, client, addresses) = populated_fixture(ACCOUNTS);
        let provider = net.node(node).address();
        let calls: Vec<RpcCall> = addresses[..n].iter().map(|a| read_call(*a)).collect();
        let amount = Cell::new(0u64);
        group.bench_with_input(BenchmarkId::new("singles", n), &n, |b, _| {
            b.iter_batched(
                || build_singles(&client, provider, &amount, &calls),
                |requests| {
                    for request in &requests {
                        black_box(net.serve(node, request).expect("single serve"));
                    }
                },
                BatchSize::SmallInput,
            )
        });
        // Batch: one envelope verification, one snapshot, one multiproof.
        let (mut net, node, client, addresses) = populated_fixture(ACCOUNTS);
        let provider = net.node(node).address();
        let calls: Vec<RpcCall> = addresses[..n].iter().map(|a| read_call(*a)).collect();
        let amount = Cell::new(0u64);
        group.bench_with_input(BenchmarkId::new("batch", n), &n, |b, _| {
            b.iter_batched(
                || build_batch(&client, provider, &amount, &calls),
                |request| black_box(net.serve_batch(node, &request).expect("batch serve")),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_client_verification(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_vs_singles/client_verify");
    group.sample_size(20);
    let n = 64usize;
    // Pre-serve one batch exchange, then time the client-side
    // classification (one signature recovery + one multiproof walk).
    let (mut net, node, mut client, addresses) = populated_fixture(ACCOUNTS);
    let calls: Vec<RpcCall> = addresses[..n].iter().map(|a| read_call(*a)).collect();
    let full_node = net.node(node).address();
    let request = client
        .request_batch_from(full_node, calls)
        .expect("batch request");
    let response = net.serve_batch(node, &request).expect("batch serve");
    net.sync_client(&mut client);
    let request_height = client.tip().expect("synced").number;
    let headers: Vec<_> = (0..=request_height)
        .filter_map(|h| client.header(h).cloned())
        .collect();
    group.bench_function(BenchmarkId::new("classify_batch", n), |b| {
        b.iter(|| {
            black_box(parp_core::classify_batch_response(
                &request,
                &response,
                full_node,
                request_height,
                |h| headers.get(h as usize).cloned(),
            ))
        })
    });
    group.finish();
}

/// One measured batch shape for the `BENCH_batch.json` artifact.
struct BatchSample {
    n: usize,
    distinct_blocks: usize,
    proof_bytes: usize,
    header_bytes: usize,
    response_bytes: usize,
    serve_us: u64,
}

impl BatchSample {
    fn to_json(&self) -> String {
        format!(
            "{{\"n\":{},\"distinct_blocks\":{},\"proof_bytes\":{},\"header_bytes\":{},\
             \"response_bytes\":{},\"serve_us\":{}}}",
            self.n,
            self.distinct_blocks,
            self.proof_bytes,
            self.header_bytes,
            self.response_bytes,
            self.serve_us
        )
    }
}

/// Serves `calls` as one batch a few times, recording proof/header bytes
/// and the fastest server-side serve time.
fn measure_batch(
    net: &mut parp_net::Network,
    node: parp_net::NodeId,
    client: &parp_core::LightClient,
    amount: &Cell<u64>,
    calls: &[RpcCall],
) -> BatchSample {
    let mut serve_us = u64::MAX;
    let mut last_response = None;
    for _ in 0..5 {
        let request = build_batch(client, net.node(node).address(), amount, calls);
        let started = Instant::now();
        let response = net.serve_batch(node, &request).expect("batch serve");
        serve_us = serve_us.min(started.elapsed().as_micros() as u64);
        last_response = Some(response);
    }
    // Byte metrics are identical across iterations; compute them once.
    let response = last_response.expect("at least one serve");
    BatchSample {
        n: calls.len(),
        distinct_blocks: response.referenced_blocks().len(),
        proof_bytes: response.proof_bytes(),
        header_bytes: response.header_bytes(),
        response_bytes: response.encode().len(),
        serve_us,
    }
}

/// Writes `BENCH_batch.json`: proof bytes + serve time for single-block
/// (pure state reads) vs multi-block (state + historical inclusion)
/// batches, so CI tracks the multi-header envelope's perf trajectory.
fn emit_batch_artifact() {
    let (mut net, node, client, addresses) = populated_fixture(ACCOUNTS);
    // Funding mined one faucet transfer per account: a deep supply of
    // historical inclusion targets across distinct blocks.
    let lookups = net.transaction_locations();
    let amount = Cell::new(0u64);
    let mut single_block = Vec::new();
    let mut multi_block = Vec::new();
    for n in BATCH_SIZES {
        // Single-block: N balance reads against the snapshot.
        let state_calls: Vec<RpcCall> = addresses[..n].iter().map(|a| read_call(*a)).collect();
        single_block.push(measure_batch(
            &mut net,
            node,
            &client,
            &amount,
            &state_calls,
        ));
        // Multi-block: half state reads, half historical lookups spread
        // over distinct containing blocks.
        let mixed_calls: Vec<RpcCall> = addresses[..n / 2]
            .iter()
            .map(|a| read_call(*a))
            .chain(
                lookups
                    .iter()
                    .take(n - n / 2)
                    .enumerate()
                    .map(|(i, (hash, _))| match i % 2 {
                        0 => RpcCall::GetTransactionByHash { hash: *hash },
                        _ => RpcCall::GetTransactionReceipt { hash: *hash },
                    }),
            )
            .collect();
        multi_block.push(measure_batch(
            &mut net,
            node,
            &client,
            &amount,
            &mixed_calls,
        ));
    }
    let join = |samples: &[BatchSample]| {
        samples
            .iter()
            .map(BatchSample::to_json)
            .collect::<Vec<_>>()
            .join(",")
    };
    let json = format!(
        "{{\"bench\":\"batch_vs_singles\",\"accounts\":{ACCOUNTS},\
         \"single_block\":[{}],\"multi_block\":[{}]}}\n",
        join(&single_block),
        join(&multi_block),
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // artifact at the workspace root where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_batch.json");
    std::fs::write(path, &json).expect("write BENCH_batch.json");
    println!("wrote BENCH_batch.json: {json}");
}

fn run_all(c: &mut Criterion) {
    // Touch bench_price so the shared fixture constants stay in sync.
    assert_eq!(bench_price(), U256::from(10u64));
    print_wire_comparison();
    emit_batch_artifact();
    bench_server_time(c);
    bench_client_verification(c);
}

criterion_group!(benches, run_all);
criterion_main!(benches);
