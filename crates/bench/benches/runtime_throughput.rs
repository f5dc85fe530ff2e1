//! The `parp-runtime` throughput bench: what the serving runtime buys a
//! full node under heavy read traffic.
//!
//! Two questions, two sections:
//!
//! 1. **Cold vs warm snapshot cache** — `FullNode::handle_batch` at a
//!    10k-account head, paying a full trie rebuild per batch (the
//!    pre-runtime behaviour) versus reusing the cached `Arc`-shared
//!    trie. The measured warm speedup is asserted ≥ 5×.
//! 2. **Fairness under contention** — the `parp-net` over-capacity
//!    scenario: a flooding client against honest clients, admitted
//!    calls and latency per class, contended vs uncontended.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parp_bench::bench_price;
use parp_chain::{Blockchain, State};
use parp_contracts::{
    build_module_call, min_deposit, ModuleCall, ParpBatchRequest, ParpExecutor, RpcCall,
};
use parp_core::{FullNode, ProofEngine};
use parp_crypto::{keccak256, SecretKey};
use parp_net::{run_contention, ContentionConfig};
use parp_primitives::{Address, U256};
use parp_runtime::{Runtime, RuntimeConfig};
use parp_trie::ProofBuf;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

const ACCOUNTS: usize = 10_000;
const BATCH: usize = 64;

/// The pre-runtime serving behaviour: every proof request rebuilds the
/// state trie from scratch.
struct ColdEngine;

impl ProofEngine for ColdEngine {
    fn account_multiproof_into(
        &mut self,
        state: &State,
        addresses: &[Address],
        out: &mut ProofBuf,
    ) {
        out.clear();
        let keys = addresses
            .iter()
            .map(|a| keccak256(a.as_bytes()).as_bytes().to_vec());
        for node in state.build_trie().prove_many(keys) {
            out.push(&node);
        }
    }

    fn account_proof(&mut self, state: &State, address: &Address) -> Vec<Vec<u8>> {
        state
            .build_trie()
            .prove(keccak256(address.as_bytes()).as_bytes())
    }
}

/// A serving node over a chain whose genesis holds `accounts` funded
/// accounts (no per-account funding blocks), with one open channel.
fn serving_fixture(
    accounts: usize,
) -> (
    Blockchain,
    ParpExecutor,
    FullNode,
    SecretKey,
    u64,
    Vec<Address>,
) {
    let node_key = SecretKey::from_seed(b"rt-bench-node");
    let client_key = SecretKey::from_seed(b"rt-bench-client");
    let funds = U256::from(10u64) * min_deposit();
    let addresses: Vec<Address> = (0..accounts)
        .map(|i| Address::from_low_u64_be(0xA000_0000 + i as u64))
        .collect();
    let mut alloc: Vec<(Address, U256)> = addresses
        .iter()
        .enumerate()
        .map(|(i, a)| (*a, U256::from(1_000 + i as u64)))
        .collect();
    alloc.push((node_key.address(), funds));
    alloc.push((client_key.address(), funds));
    let mut chain = Blockchain::new(alloc);
    let mut executor = ParpExecutor::new();
    chain
        .produce_block(
            vec![build_module_call(
                &node_key,
                0,
                ModuleCall::Deposit,
                min_deposit(),
            )],
            &mut executor,
        )
        .expect("deposit");
    chain
        .produce_block(
            vec![build_module_call(
                &node_key,
                1,
                ModuleCall::SetServing { serving: true },
                U256::ZERO,
            )],
            &mut executor,
        )
        .expect("serving");
    let node = FullNode::new(node_key, bench_price());
    let confirm = node.confirm_handshake(client_key.address(), chain.head().header.timestamp);
    let open = build_module_call(
        &client_key,
        0,
        ModuleCall::OpenChannel {
            full_node: node.address(),
            expiry: confirm.expiry,
            confirmation_sig: confirm.signature,
        },
        U256::from(1u64) << 60,
    );
    chain
        .produce_block(vec![open], &mut executor)
        .expect("open");
    (chain, executor, node, client_key, 0, addresses)
}

fn build_batch(
    client: &SecretKey,
    chain: &Blockchain,
    channel: u64,
    amount: &Cell<u64>,
    targets: &[Address],
) -> ParpBatchRequest {
    amount.set(amount.get() + 10 * targets.len() as u64);
    ParpBatchRequest::build(
        client,
        channel,
        chain.head().hash(),
        U256::from(amount.get()),
        targets
            .iter()
            .map(|a| RpcCall::GetBalance { address: *a })
            .collect(),
    )
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let (mut chain, mut executor, mut node, client, channel, addresses) = serving_fixture(ACCOUNTS);
    let targets = &addresses[..BATCH];
    let amount = Cell::new(0u64);
    let mut runtime = Runtime::new(RuntimeConfig::default());

    // Direct speedup measurement over a fixed number of serves, in
    // addition to the per-path criterion medians below.
    let measure = |engine: &mut dyn ProofEngine,
                   node: &mut FullNode,
                   chain: &mut Blockchain,
                   executor: &mut ParpExecutor,
                   amount: &Cell<u64>,
                   rounds: u32| {
        let started = Instant::now();
        for _ in 0..rounds {
            let request = build_batch(&client, chain, channel, amount, targets);
            black_box(
                node.handle_batch_with(&request, chain, executor, engine)
                    .expect("serve"),
            );
        }
        started.elapsed() / rounds
    };
    // Warm the cache once so the warm path measures steady state.
    let _ = measure(
        &mut runtime,
        &mut node,
        &mut chain,
        &mut executor,
        &amount,
        1,
    );
    let warm = measure(
        &mut runtime,
        &mut node,
        &mut chain,
        &mut executor,
        &amount,
        10,
    );
    let cold = measure(
        &mut ColdEngine,
        &mut node,
        &mut chain,
        &mut executor,
        &amount,
        3,
    );
    let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-12);
    println!(
        "runtime_throughput/cold_vs_warm | {ACCOUNTS} accounts, {BATCH}-call batch | \
         cold {cold:?}/batch  warm {warm:?}/batch  speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 5.0,
        "warm snapshot cache must be >= 5x faster than per-batch rebuilds, got {speedup:.1}x"
    );

    let mut group = c.benchmark_group("runtime_throughput/handle_batch");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("cold_rebuild", ACCOUNTS), |b| {
        b.iter(|| {
            let request = build_batch(&client, &chain, channel, &amount, targets);
            black_box(
                node.handle_batch_with(&request, &mut chain, &mut executor, &mut ColdEngine)
                    .expect("serve"),
            )
        })
    });
    group.bench_function(BenchmarkId::new("warm_cache", ACCOUNTS), |b| {
        b.iter(|| {
            let request = build_batch(&client, &chain, channel, &amount, targets);
            black_box(
                node.handle_batch_with(&request, &mut chain, &mut executor, &mut runtime)
                    .expect("serve"),
            )
        })
    });
    group.finish();
}

/// Where does a warm-cache batch serve spend its time — envelope crypto
/// (two signature recoveries) or trie work (snapshot multiproof)? The
/// split tells future PRs which side of the pipeline is the bottleneck.
/// Before the arena-flattened `FrozenTrie` the multiproof leg held ~42%
/// of a warm serve; the walk-by-ids path must keep it under 35%.
fn report_crypto_vs_trie_split() {
    let (mut chain, mut executor, mut node, client, channel, addresses) = serving_fixture(ACCOUNTS);
    let targets = &addresses[..BATCH];
    let amount = Cell::new(0u64);
    let mut runtime = Runtime::new(RuntimeConfig::default());
    // Warm the snapshot cache, then measure steady state.
    let warm = build_batch(&client, &chain, channel, &amount, targets);
    node.handle_batch_with(&warm, &mut chain, &mut executor, &mut runtime)
        .expect("warm serve");
    const ROUNDS: u32 = 10;
    // Crypto share: the envelope checks (request + payment signature
    // recoveries) — the same request re-verifies cheaply because
    // verification does not consume channel state.
    let request = build_batch(&client, &chain, channel, &amount, targets);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        black_box(node.verify_batch_request(&request, &executor)).expect("verify");
    }
    let crypto = started.elapsed() / ROUNDS;
    // Trie share: the deduplicated multiproof off the cached snapshot.
    let state = chain.state();
    let mut proof = ProofBuf::new();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        runtime.account_multiproof_into(state, black_box(targets), &mut proof);
        black_box(&proof);
    }
    let trie = started.elapsed() / ROUNDS;
    // Whole serve (verify + execute + multiproof + response signing).
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let request = build_batch(&client, &chain, channel, &amount, targets);
        black_box(
            node.handle_batch_with(&request, &mut chain, &mut executor, &mut runtime)
                .expect("serve"),
        );
    }
    let total = started.elapsed() / ROUNDS;
    let share =
        |part: std::time::Duration| 100.0 * part.as_secs_f64() / total.as_secs_f64().max(1e-12);
    println!(
        "runtime_throughput/crypto_vs_trie | warm {BATCH}-call batch: total {total:?} | \
         envelope crypto {crypto:?} ({:.0}%)  snapshot multiproof {trie:?} ({:.0}%)  \
         other (execute + response sign + build) {:.0}%",
        share(crypto),
        share(trie),
        100.0 - share(crypto) - share(trie),
    );
    assert!(
        share(trie) < 35.0,
        "snapshot multiproof share {:.0}% regressed past the 35% ceiling \
         (pre-arena it held ~42% of a warm serve)",
        share(trie)
    );
}

fn report_contention() {
    let contended = run_contention(&ContentionConfig::default());
    let baseline = run_contention(&ContentionConfig {
        flood_rate_per_sec: 0,
        ..ContentionConfig::default()
    });
    let config = ContentionConfig::default();
    println!(
        "runtime_throughput/contention | flooder: attempted {} admitted {} throttled {} calls \
         (bucket {} + {}/s over {}ms)",
        contended.flooder.attempted_calls,
        contended.flooder.admitted_calls,
        contended.flooder.throttled_calls,
        config.admission_burst,
        config.admission_rate_per_sec,
        config.duration_ms,
    );
    println!(
        "runtime_throughput/contention | honest mean latency: contended {} µs vs uncontended {} µs \
         | honest served calls: {} vs {}",
        contended.honest_mean_latency_us(),
        baseline.honest_mean_latency_us(),
        contended.honest_served_calls(config.batch_size),
        baseline.honest_served_calls(config.batch_size),
    );
}

fn run_all(c: &mut Criterion) {
    bench_cold_vs_warm(c);
    report_crypto_vs_trie_split();
    report_contention();
}

criterion_group!(benches, run_all);
criterion_main!(benches);
