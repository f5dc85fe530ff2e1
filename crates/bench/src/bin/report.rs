//! Regenerates every table and figure from the paper's evaluation (§VI)
//! in one run, printing paper-vs-measured comparisons.
//!
//! Usage: `cargo run --release -p parp-bench --bin report [--full]`
//!
//! `--full` runs Figure 7 at the paper's full request volume
//! (240 requests per client); the default uses 40 per client.

use parp_bench::{chain_with_block_of, connected_fixture, read_call};
use parp_chain::Blockchain;
use parp_contracts::{
    build_module_call, confirmation_digest, min_deposit, payment_digest, ModuleCall, ParpExecutor,
    ParpRequest, ParpResponse, RpcCall, DISPUTE_WINDOW_BLOCKS,
};
use parp_core::classify_response;
use parp_crypto::{sign, SecretKey};
use parp_net::{dataset, run_scalability_sweep, ScalabilityConfig};
use parp_primitives::{Address, U256};
use std::time::Instant;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    section_2b_table1();
    table2();
    table3();
    table4();
    fig6();
    fig7(full);
    marketplace_section();
    chaos_section();
    contention_section();
    crypto_section();
    trie_section();
    println!("\nreport complete — see EXPERIMENTS.md for interpretation");
}

/// Renders one histogram row from a telemetry snapshot.
fn histogram_row(metrics: &parp_telemetry::MetricsSnapshot, label: &str, name: &str) {
    match metrics.histogram(name, &[]) {
        Some(h) => println!(
            "  {label:<28} n={:<6} p50={:<8} p99={:<8} max={}",
            h.count, h.p50, h.p99, h.max
        ),
        None => println!("  {label:<28} (no samples)"),
    }
}

/// Beyond the paper: the trie hot path after the arena-flattening
/// overhaul, against the retained pre-optimization frozen index.
fn trie_section() {
    println!("\n== trie hot path (beyond the paper) ==");
    const ACCOUNTS: u64 = 2_000;
    const BATCH: usize = 64;
    let state = parp_chain::State::with_alloc(
        (1..=ACCOUNTS).map(|i| (Address::from_low_u64_be(i * 17), U256::from(i))),
    );
    let trie = state.build_trie();
    let keys: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| {
            let address = Address::from_low_u64_be(((i as u64 * 131) % ACCOUNTS + 1) * 17);
            parp_crypto::keccak256(address.as_bytes())
                .as_bytes()
                .to_vec()
        })
        .collect();
    let arena = parp_trie::FrozenTrie::new(trie.clone());
    let base = parp_trie::baseline::FrozenTrie::new(trie.clone());
    let reference = base.prove_many(&keys);
    assert_eq!(arena.prove_many(&keys), reference, "arena diverged");
    let multi_new = time_avg(30, || {
        arena.prove_many(&keys);
    });
    let multi_ref = time_avg(30, || {
        base.prove_many(&keys);
    });
    let mut buf = parp_trie::ProofBuf::new();
    let multi_into = time_avg(30, || {
        arena.multiproof_into(&keys, &mut buf);
    });
    let freeze_new = time_avg(5, || {
        parp_trie::FrozenTrie::new(trie.clone());
    });
    let freeze_ref = time_avg(5, || {
        parp_trie::baseline::FrozenTrie::new(trie.clone());
    });
    println!(
        "  {BATCH}-key multiproof  {multi_new:>10.2?}  (pre-PR frozen index {multi_ref:>10.2?}, {:.1}x)",
        multi_ref.as_secs_f64() / multi_new.as_secs_f64().max(1e-12)
    );
    println!(
        "  zero-copy into buf {multi_into:>10.2?}  ({:.1}x; {} nodes, {} B, one allocation)",
        multi_ref.as_secs_f64() / multi_into.as_secs_f64().max(1e-12),
        reference.len(),
        reference.iter().map(Vec::len).sum::<usize>(),
    );
    println!(
        "  freeze ({ACCOUNTS} accts) {freeze_new:>10.2?}  (pre-PR index pass {freeze_ref:>10.2?}, \
         level-batched keccak)",
    );
}

/// Beyond the paper: the crypto hot path after the fixed-base /
/// wNAF+GLV overhaul, against the retained pre-optimization loop.
fn crypto_section() {
    println!("\n== crypto hot path (beyond the paper) ==");
    const N: u32 = 60;
    let key = SecretKey::from_seed(b"report-crypto");
    let digests: Vec<_> = (0..N)
        .map(|i| parp_crypto::keccak256(&i.to_be_bytes()))
        .collect();
    let signatures: Vec<_> = digests.iter().map(|d| sign(&key, d)).collect();
    let mut cursor = digests.iter().cycle();
    let sign_new = time_avg(N, || {
        sign(&key, cursor.next().expect("cycle"));
    });
    let mut cursor = digests.iter().cycle();
    let sign_ref = time_avg(N, || {
        parp_crypto::baseline::sign_reference(&key, cursor.next().expect("cycle"));
    });
    let mut cursor = digests.iter().zip(&signatures).cycle();
    let rec_new = time_avg(N, || {
        let (d, s) = cursor.next().expect("cycle");
        parp_crypto::recover_address(d, s).expect("recovers");
    });
    let mut cursor = digests.iter().zip(&signatures).cycle();
    let rec_ref = time_avg(N, || {
        let (d, s) = cursor.next().expect("cycle");
        parp_crypto::baseline::recover_address_reference(d, s).expect("recovers");
    });
    let pairs: Vec<_> = digests
        .iter()
        .zip(&signatures)
        .map(|(d, s)| (*d, *s))
        .collect();
    let batch = time_avg(4, || {
        parp_crypto::recover_addresses_parallel(&pairs);
    });
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "  sign            {sign_new:>10.2?}  (pre-PR loop {sign_ref:>10.2?}, {:.1}x)",
        sign_ref.as_secs_f64() / sign_new.as_secs_f64().max(1e-12)
    );
    println!(
        "  recover         {rec_new:>10.2?}  (pre-PR loop {rec_ref:>10.2?}, {:.1}x)",
        rec_ref.as_secs_f64() / rec_new.as_secs_f64().max(1e-12)
    );
    println!(
        "  batch recover   {:>10.2?}/op across {} items on {cores} core(s) \
         (scoped-worker fan-out)",
        batch / N,
        pairs.len(),
    );
}

/// Beyond the paper: the gateway marketplace scenario — fraud detected
/// and slashed mid-run, live failover, per-provider exchange
/// aggregates (the accounting the reputation scorer feeds on).
fn marketplace_section() {
    println!("\n== gateway marketplace (beyond the paper) ==");
    let report = parp_gateway::run_marketplace(&parp_gateway::MarketplaceConfig::default());
    println!(
        "{} verified results, {} wrong payloads, {} failover(s), \
         fraud proofs accepted: {}, cheapest slashed: {}",
        report.results,
        report.wrong_payloads,
        report.failovers,
        report.fraud_proofs_accepted,
        report.cheapest_slashed,
    );
    println!(
        "time-to-recover after provider failure: {:?} µs; quorum reads {} \
         (disagreements {}); payments monotone: {}",
        report.recoveries_us,
        report.quorum_reads,
        report.quorum_disagreements,
        report.payments_monotone,
    );
    let by_cause: Vec<String> = report
        .failovers_by_cause
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(cause, n)| format!("{cause} {n}"))
        .collect();
    println!(
        "failovers by cause: {}",
        if by_cause.is_empty() {
            "none".to_string()
        } else {
            by_cause.join(", ")
        }
    );
    println!("per-provider aggregates:");
    println!(
        "  {:<44} {:>6} {:>9} {:>9} {:>9}",
        "provider", "calls", "failures", "p50 µs", "p99 µs"
    );
    for (address, stats) in &report.provider_stats {
        println!(
            "  {:<44} {:>6} {:>9} {:>9} {:>9}",
            address.to_string(),
            stats.calls(),
            stats.failures(),
            stats.latency_p50_us(),
            stats.latency_p99_us(),
        );
    }
    // The same run seen through the unified telemetry registry: the
    // counters below are the very cells the gateway/net/runtime
    // incremented, snapshotted at end of run.
    let m = &report.metrics;
    println!("telemetry snapshot ({} series):", m.entries.len());
    for (label, name) in [
        ("gateway calls served", "parp_gateway_calls_served_total"),
        ("gateway failovers", "parp_gateway_failovers_total"),
        ("gateway fraud proofs", "parp_gateway_fraud_proofs_total"),
        ("gateway quorum reads", "parp_gateway_quorum_reads_total"),
        ("net exchanges", "parp_net_exchanges_total"),
        ("net failures", "parp_net_failures_total"),
        (
            "runtime cache hits",
            "parp_runtime_snapshot_cache_hits_total",
        ),
    ] {
        println!("  {label:<28} {}", m.counter(name, &[]).unwrap_or(0));
    }
    histogram_row(m, "exchange latency µs", "parp_net_exchange_latency_us");
    histogram_row(m, "multiproof build µs", "parp_runtime_multiproof_us");
    println!(
        "captured request-lifecycle trace: {} events (Chrome trace-event \
         JSON via Tracer::export_chrome_json — see TRACE_sample.json)",
        report.telemetry.tracer.len()
    );
}

/// Beyond the paper: the chaos scenario — the same marketplace under a
/// seeded fault schedule (crash + partition + drop/corrupt/delay), with
/// the gateway's resilience machinery (deadlines, retries, hedging,
/// circuit breakers) carrying the workload.
fn chaos_section() {
    println!("\n== chaos / fault injection (beyond the paper) ==");
    let config = parp_gateway::ChaosConfig::default();
    let report = parp_gateway::run_chaos(&config);
    println!(
        "{} calls issued under seed {:#x}: {} served, {} degraded, \
         {} errored, {} unclassified, {} wrong payloads",
        report.issued,
        config.seed,
        report.served,
        report.degraded,
        report.errored,
        report.unclassified,
        report.wrong_payloads,
    );
    println!(
        "faults injected: {} drops, {} corruptions, {} delays, \
         {} crash refusals, {} partition swallows, {} deadline burns",
        report.fault_drops,
        report.fault_corruptions,
        report.fault_delays,
        report.fault_crashes,
        report.fault_partitions,
        report.fault_timeouts,
    );
    let by_cause: Vec<String> = report
        .failovers_by_cause
        .iter()
        .filter(|(_, n)| *n > 0)
        .map(|(cause, n)| format!("{cause} {n}"))
        .collect();
    println!(
        "resilience: {} retries, {} hedged legs, breaker {}x open / {}x \
         half-open; failovers by cause: {}",
        report.retries,
        report.hedges_fired,
        report.breaker_opens,
        report.breaker_half_opens,
        if by_cause.is_empty() {
            "none".to_string()
        } else {
            by_cause.join(", ")
        }
    );
    let mut recoveries = report.recoveries_us.clone();
    recoveries.sort_unstable();
    let p50 = recoveries.get(recoveries.len() / 2).copied().unwrap_or(0);
    let p99 = recoveries.last().copied().unwrap_or(0);
    println!(
        "time-to-recover: p50 {p50} µs, max {p99} µs over {} failovers; \
         payments monotone: {}",
        recoveries.len(),
        report.payments_monotone,
    );
}

/// Beyond the paper: the over-capacity serving scenario, rendered from
/// the run's telemetry snapshot — admission verdicts and serve-path
/// latency distributions come from the registry, not ad-hoc fields.
fn contention_section() {
    println!("\n== runtime contention (beyond the paper) ==");
    let config = parp_net::ContentionConfig::default();
    let report = parp_net::run_contention(&config);
    println!(
        "{} honest client(s) at {}/s vs flooder at {}/s for {} ms \
         (batch size {})",
        config.honest_clients,
        config.honest_rate_per_sec,
        config.flood_rate_per_sec,
        config.duration_ms,
        config.batch_size,
    );
    println!(
        "honest: mean latency {} µs over {} served calls; flooder: {} \
         admitted, {} throttled",
        report.honest_mean_latency_us(),
        report.honest_served_calls(config.batch_size),
        report.flooder.admitted_calls,
        report.flooder.throttled_calls,
    );
    let m = &report.metrics;
    println!("telemetry snapshot ({} series):", m.entries.len());
    for (label, name) in [
        ("admitted calls", "parp_runtime_admitted_calls_total"),
        ("throttled calls", "parp_runtime_throttled_calls_total"),
        ("cache hits", "parp_runtime_snapshot_cache_hits_total"),
        ("cache misses", "parp_runtime_snapshot_cache_misses_total"),
    ] {
        println!("  {label:<28} {}", m.counter(name, &[]).unwrap_or(0));
    }
    histogram_row(m, "serve_batch µs", "parp_runtime_serve_batch_us");
    histogram_row(m, "multiproof µs", "parp_runtime_multiproof_us");
    histogram_row(m, "batch size (calls)", "parp_runtime_batch_calls");
}

fn section_2b_table1() {
    println!("== §II-B / Table I: node provider centralization ==");
    println!(
        "{} of {} dApps call node providers directly",
        dataset::RPC_DAPPS,
        dataset::TOTAL_DAPPS
    );
    for provider in dataset::providers() {
        println!(
            "  {:<12} {:>3}/{} dApps = {:>5.2}%   signup: {}   crypto pay: {}",
            provider.name,
            provider.dapp_count,
            dataset::RPC_DAPPS,
            dataset::traffic_share(&provider),
            if provider.email_required {
                "email required"
            } else if provider.wallet_login {
                "wallet (permissionless)"
            } else {
                "none"
            },
            if provider.accepts_crypto { "yes" } else { "no" },
        );
    }
}

fn table2() {
    println!("\n== Table II: message size overhead ==");
    let (mut net, node, mut client) = connected_fixture();
    let me = client.address();
    let provider = net.node(node).address();
    let base_read = parp_jsonrpc::base_request(&read_call(me), 1).wire_size();
    let read_req = client
        .request_from(provider, read_call(me))
        .expect("request");
    let read_res = net.serve(node, &read_req).expect("serve");
    net.sync_client(&mut client);
    client
        .process_response_from(provider, &read_res)
        .expect("valid");

    let key = SecretKey::from_seed(b"report-sender");
    net.fund(key.address());
    net.sync_client(&mut client);
    let raw = parp_chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(Address::from_low_u64_be(0x77)),
        value: U256::from(3u64),
        data: Vec::new(),
    }
    .sign(&key)
    .encode();
    let write_call = RpcCall::SendRawTransaction { raw: raw.clone() };
    let base_write = parp_jsonrpc::base_request(&write_call, 1).wire_size();
    let write_req = client.request_from(provider, write_call).expect("request");
    let write_res = net.serve(node, &write_req).expect("serve");

    println!("  base eth_getBalance request:         {base_read} B   (paper 118 B)");
    println!("  base eth_sendRawTransaction request: {base_write} B  (paper 422 B, ~170 B tx)");
    println!(
        "  PARP request overhead:               {} B   (paper 226 B)",
        read_req.overhead_bytes()
    );
    println!(
        "  PARP response overhead:              {} B + proof ({} B read / {} B write)   (paper 187 B + proof)",
        read_res.overhead_bytes(),
        read_res.proof_bytes(),
        write_res.proof_bytes()
    );
}

fn table3() {
    println!("\n== Table III: added processing latency (averages over 100 requests) ==");
    const N: u32 = 100;

    // (A) request generation.
    let (net, node, client) = connected_fixture();
    let me = client.address();
    let provider = net.node(node).address();
    let wallet = SecretKey::from_seed(b"report-wallet");
    let read_a = time_avg(N, || {
        let mut lc = client.clone();
        lc.request_from(provider, read_call(me)).expect("request");
    });
    let write_a = time_avg(N, || {
        let mut lc = client.clone();
        let raw = parp_chain::Transaction {
            nonce: 0,
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(0xaa)),
            value: U256::from(5u64),
            data: Vec::new(),
        }
        .sign(&wallet)
        .encode();
        lc.request_from(provider, RpcCall::SendRawTransaction { raw })
            .expect("request");
    });
    println!("  (A) request generation    write {write_a:>9.2?}  read {read_a:>9.2?}   (paper 10.91 ms / 4.82 ms)");

    // (B) request verification.
    let (mut net, node, mut client) = connected_fixture();
    let me = client.address();
    let provider = net.node(node).address();
    let request = client
        .request_from(provider, read_call(me))
        .expect("request");
    let fnode = net.node(node).clone();
    let executor = net.executor().clone();
    let b_time = time_avg(N, || {
        fnode.verify_request(&request, &executor).expect("valid");
    });
    println!("  (B) request verification  write {b_time:>9.2?}  read {b_time:>9.2?}   (paper 714 µs / 703 µs)");

    // (C) response generation: read = account proof + sign; write =
    // 200-tx block proof + sign.
    let state = net.chain().state().clone();
    let c_read_proof = time_avg(N, || {
        state.account_proof(&me);
    });
    let node_key = *net.node(node).secret();
    let c_read_total = time_avg(N, || {
        let proof = state.account_proof(&me);
        let account = state.account(&me).map(|a| a.encode()).unwrap_or_default();
        ParpResponse::build(&node_key, &request, 1, account, proof);
    });
    let (chain200, _) = chain_with_block_of(200);
    let block = chain200.head().clone();
    let lc_key = SecretKey::from_seed(b"report-lc");
    let w_request = ParpRequest::build(
        &lc_key,
        0,
        block.hash(),
        U256::from(10u64),
        RpcCall::SendRawTransaction {
            raw: block.transactions[100].encode(),
        },
    );
    let c_write_proof = time_avg(N, || {
        block.transaction_proof(100).expect("in range");
    });
    let c_write_total = time_avg(N, || {
        let proof = block.transaction_proof(100).expect("in range");
        ParpResponse::build(
            &node_key,
            &w_request,
            block.number(),
            parp_rlp::encode_u64(100),
            proof,
        );
    });
    println!("  (C) response gen (proof)  write {c_write_proof:>9.2?}  read {c_read_proof:>9.2?}   (paper 3.08 ms / 477 µs)");
    println!("  (C) response gen (total)  write {c_write_total:>9.2?}  read {c_read_total:>9.2?}   (paper 3.37 ms / 1.29 ms)");

    // (D) response verification.
    let response = net.serve(node, &request).expect("serve");
    net.sync_client(&mut client);
    let header = net.chain().head().header.clone();
    let account_key = parp_crypto::keccak256(me.as_bytes());
    let d_read_proof = time_avg(N, || {
        parp_trie::verify_proof(header.state_root, account_key.as_bytes(), &response.proof)
            .expect("verifies");
    });
    let node_addr = net.node(node).address();
    let request_height = request_height_of(&net, &request);
    let d_read_total = time_avg(N, || {
        classify_response(&request, &response, node_addr, request_height, |n| {
            (n == header.number).then(|| header.clone())
        });
    });
    let w_proof = block.transaction_proof(100).expect("in range");
    let w_response = ParpResponse::build(
        &node_key,
        &w_request,
        block.number(),
        parp_rlp::encode_u64(100),
        w_proof,
    );
    let tx_key = parp_rlp::encode_u64(100);
    let d_write_proof = time_avg(N, || {
        parp_trie::verify_proof(block.header.transactions_root, &tx_key, &w_response.proof)
            .expect("verifies");
    });
    let d_write_total = time_avg(N, || {
        classify_response(
            &w_request,
            &w_response,
            node_key.address(),
            block.number(),
            |n| (n == block.header.number).then(|| block.header.clone()),
        );
    });
    println!("  (D) response ver (proof)  write {d_write_proof:>9.2?}  read {d_read_proof:>9.2?}   (paper 7.13 ms / 5.78 ms)");
    println!("  (D) response ver (total)  write {d_write_total:>9.2?}  read {d_read_total:>9.2?}   (paper 8.11 ms / 1.01 ms)");
}

fn request_height_of(net: &parp_net::Network, request: &ParpRequest) -> u64 {
    net.chain()
        .block_number_by_hash(&request.block_hash)
        .unwrap_or(0)
}

fn table4() {
    println!("\n== Table IV: on-chain gas costs ==");
    let node = SecretKey::from_seed(b"t4r-node");
    let client = SecretKey::from_seed(b"t4r-client");
    let funds = U256::from(100u64) * min_deposit();
    let mut chain = Blockchain::new(vec![(node.address(), funds), (client.address(), funds)]);
    let mut executor = ParpExecutor::new();
    let mut node_nonce = 0u64;
    let mut client_nonce = 0u64;
    let run = |chain: &mut Blockchain,
               executor: &mut ParpExecutor,
               key: &SecretKey,
               nonce: &mut u64,
               call: ModuleCall,
               value: U256|
     -> u64 {
        let tx = build_module_call(key, *nonce, call, value);
        *nonce += 1;
        chain.produce_block(vec![tx], executor).expect("block");
        assert_eq!(
            chain.receipts(chain.height()).unwrap()[0].status,
            1,
            "module call must succeed"
        );
        chain.head().header.gas_used
    };

    let deposit_gas = run(
        &mut chain,
        &mut executor,
        &node,
        &mut node_nonce,
        ModuleCall::Deposit,
        min_deposit(),
    );
    run(
        &mut chain,
        &mut executor,
        &node,
        &mut node_nonce,
        ModuleCall::SetServing { serving: true },
        U256::ZERO,
    );
    let expiry = chain.head().header.timestamp + 3600;
    let sig = sign(&node, &confirmation_digest(&client.address(), expiry));
    let open_gas = run(
        &mut chain,
        &mut executor,
        &client,
        &mut client_nonce,
        ModuleCall::OpenChannel {
            full_node: node.address(),
            expiry,
            confirmation_sig: sig,
        },
        U256::from(1_000_000u64),
    );
    let id = executor.cmm().channel_count() as u64 - 1;
    let amount = U256::from(500u64);
    let pay_sig = sign(&client, &payment_digest(id, &amount));
    let close_gas = run(
        &mut chain,
        &mut executor,
        &node,
        &mut node_nonce,
        ModuleCall::CloseChannel {
            channel_id: id,
            amount,
            payment_sig: pay_sig,
        },
        U256::ZERO,
    );
    for _ in 0..DISPUTE_WINDOW_BLOCKS {
        chain
            .produce_block(Vec::new(), &mut executor)
            .expect("block");
    }
    let confirm_gas = run(
        &mut chain,
        &mut executor,
        &node,
        &mut node_nonce,
        ModuleCall::ConfirmClosure { channel_id: id },
        U256::ZERO,
    );
    // Second channel for the fraud path.
    let expiry2 = chain.head().header.timestamp + 3600;
    let sig2 = sign(&node, &confirmation_digest(&client.address(), expiry2));
    run(
        &mut chain,
        &mut executor,
        &client,
        &mut client_nonce,
        ModuleCall::OpenChannel {
            full_node: node.address(),
            expiry: expiry2,
            confirmation_sig: sig2,
        },
        U256::from(1_000u64),
    );
    let id2 = executor.cmm().channel_count() as u64 - 1;
    let head = chain.head().header.clone();
    let f_request = ParpRequest::build(
        &client,
        id2,
        head.hash(),
        U256::from(10u64),
        RpcCall::GetBalance {
            address: client.address(),
        },
    );
    let proof = chain.state().account_proof(&client.address());
    let forged = parp_chain::Account::with_balance(U256::ONE);
    let f_response = ParpResponse::build(&node, &f_request, head.number, forged.encode(), proof);
    let fraud_gas = run(
        &mut chain,
        &mut executor,
        &client,
        &mut client_nonce,
        ModuleCall::SubmitFraudProof {
            request: f_request.encode(),
            response: f_response.encode(),
            witness: Address::from_low_u64_be(0x317),
            header: head.encode(),
        },
        U256::ZERO,
    );

    let usd = |gas: u64, gwei: f64| gas as f64 * gwei * 1e-9 * 4000.0;
    for (label, gas, paper) in [
        ("Deposit funds", deposit_gas, 45_238u64),
        ("Open a channel", open_gas, 196_183),
        ("Close a channel", close_gas, 110_118),
        ("Confirm closure", confirm_gas, 87_128),
        ("Submit a fraud proof", fraud_gas, 762_508),
    ] {
        println!(
            "  {label:<22} {gas:>8} gas (paper {paper:>7})  mainnet ${:>7.3}  arbitrum ${:>7.4}",
            usd(gas, 12.0),
            usd(gas, 0.1)
        );
    }
}

fn fig6() {
    println!("\n== Figure 6: Merkle proof size vs transaction index ==");
    println!("  block_size  avg_bytes  min  max   (paper: ~1150 B average at 200 txs)");
    for &size in &[50usize, 100, 200, 300, 400, 500] {
        let (chain, _) = chain_with_block_of(size);
        let block = chain.head();
        let sizes: Vec<usize> = (0..size)
            .map(|i| {
                block
                    .transaction_proof(i)
                    .expect("in range")
                    .iter()
                    .map(Vec::len)
                    .sum()
            })
            .collect();
        let avg = sizes.iter().sum::<usize>() / size;
        let min = *sizes.iter().min().expect("nonempty");
        let max = *sizes.iter().max().expect("nonempty");
        println!("  {size:>10}  {avg:>9}  {min:>4} {max:>5}");
    }
}

fn fig7(full: bool) {
    let requests = if full { 240 } else { 40 };
    println!("\n== Figure 7: scalability, {requests} requests/client ==");
    let config = ScalabilityConfig {
        requests_per_client: requests,
        read_fraction: 0.9,
        seed: 0xF167,
    };
    println!("  clients  cpu_ratio  mem_ratio   (paper at 20: 3.43x cpu, 2.38x mem)");
    for point in run_scalability_sweep(&[1, 5, 10, 15, 20], &config) {
        println!(
            "  {:>7}  {:>8.2}x  {:>8.2}x",
            point.clients,
            point.cpu_ratio(),
            point.mem_ratio()
        );
    }
}

fn time_avg(n: u32, mut f: impl FnMut()) -> std::time::Duration {
    let started = Instant::now();
    for _ in 0..n {
        f();
    }
    started.elapsed() / n
}
