//! Per-layer measurements taken from outside: leaf calls timed on
//! inputs captured from the workload's own world, and the two twin
//! comparisons (all-resident history, bare telemetry).

use crate::direct::twin_chain;
use crate::stats::{median, share};
use crate::world::{sender_key, transfer, DirectWorld, Size, TxLocation, BATCH};
use parp_chain::TransferExecutor;
use parp_contracts::RpcCall;
use parp_core::{LightClient, ProcessBatchOutcome, ProcessOutcome};
use parp_crypto::{keccak256, recover_address, sign};
use parp_net::{Network, NodeId};
use parp_primitives::{Address, H256};
use parp_store::SpillStore;
use parp_trie::{ordered_trie, verify_many, verify_proof, FrozenTrie, ProofBuf};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Fastest over `batches` of the mean time of `iters` calls (µs): host
/// noise only adds time.
fn timed_us(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_batch: Vec<f64> = (0..batches)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..iters {
                f();
            }
            started.elapsed().as_nanos() as f64 / 1e3 / iters as f64
        })
        .collect();
    fastest(&per_batch)
}

fn fastest(us: &[f64]) -> f64 {
    us.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One call, timed (µs).
fn once_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64 / 1e3)
}

/// Times the leaf layers (`crypto`, `rlp`, `trie`, `chain`) on one
/// exchange captured from this world and on its head state.
pub fn leaf_timers(
    net: &mut Network,
    client: &mut LightClient,
    node: NodeId,
    accounts: &[Address],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let provider = net.node(node).address();
    let address = accounts[accounts.len() / 2];
    let request = client
        .request_from(provider, RpcCall::GetBalance { address })
        .map_err(|e| format!("capture request: {e}"))?;
    let response = net
        .serve(node, &request)
        .map_err(|e| format!("capture serve: {e}"))?;
    net.sync_client(client);
    let outcome = client
        .process_response_from(provider, &response)
        .map_err(|e| format!("capture process: {e}"))?;
    if !matches!(outcome, ProcessOutcome::Valid { .. }) {
        return Err("captured exchange did not verify".into());
    }
    out.insert("contracts.request_bytes", request.encode().len() as f64);
    out.insert("contracts.response_bytes", response.encode().len() as f64);
    out.insert("trie.proof_bytes_per_call", response.proof_bytes() as f64);

    let secret = *client.secret();
    out.insert(
        "crypto.sign_us",
        timed_us(5, 40, || {
            black_box(sign(&secret, black_box(&request.request_hash)));
        }),
    );
    let digest = response.expected_hash();
    out.insert(
        "crypto.recover_us",
        timed_us(5, 20, || {
            black_box(recover_address(black_box(&digest), &response.response_sig).is_ok());
        }),
    );
    let wire = response.encode();
    out.insert(
        "crypto.keccak_ns_per_byte",
        timed_us(5, 200, || {
            black_box(keccak256(black_box(&wire)));
        }) * 1e3
            / wire.len() as f64,
    );
    out.insert(
        "rlp.decode_ns_per_byte",
        timed_us(5, 200, || {
            black_box(parp_rlp::decode(black_box(&wire)).is_ok());
        }) * 1e3
            / wire.len() as f64,
    );

    let state = net.chain().state();
    let trie = state.shared_trie();
    let root = trie.root_hash();
    let key = keccak256(address.as_bytes());
    out.insert(
        "trie.prove1_us",
        timed_us(5, 200, || {
            black_box(trie.prove(black_box(key.as_bytes())));
        }),
    );
    let proof = trie.prove(key.as_bytes());
    out.insert(
        "trie.verify1_us",
        timed_us(5, 200, || {
            black_box(verify_proof(root, key.as_bytes(), black_box(&proof)).is_ok());
        }),
    );
    let keys: Vec<H256> = (0..BATCH)
        .map(|i| keccak256(accounts[i * accounts.len() / BATCH].as_bytes()))
        .collect();
    let mut buf = ProofBuf::new();
    out.insert(
        "trie.multiproof64_us",
        timed_us(5, 20, || trie.multiproof_into(black_box(&keys), &mut buf)),
    );
    out.insert("trie.proof_nodes_per_batch", buf.len() as f64);
    let multiproof = buf.to_vecs();
    out.insert(
        "trie.verify_many64_us",
        timed_us(5, 20, || {
            black_box(verify_many(root, &keys, black_box(&multiproof)).is_ok());
        }),
    );
    let freezes: Vec<f64> = (0..3)
        .map(|_| {
            let built = state.build_trie();
            once_us(|| black_box(FrozenTrie::new(built))).1
        })
        .collect();
    out.insert("trie.freeze_us", fastest(&freezes));

    // Block production on a side chain with this world's account set:
    // one transfer per block, as a served write mines it.
    let mut twin = twin_chain(accounts);
    let sender = sender_key(0);
    let blocks: Vec<f64> = (0..3)
        .map(|nonce| {
            let transfer = transfer(&sender, nonce, address);
            let started = Instant::now();
            let produced = twin
                .produce_block(vec![transfer], &mut TransferExecutor)
                .is_ok();
            let us = started.elapsed().as_nanos() as f64 / 1e3;
            black_box(produced);
            us
        })
        .collect();
    out.insert("chain.produce_block_us", fastest(&blocks));
    Ok(())
}

/// One pass of `batches` through `parp_batch_call`, wall µs per batch.
fn batch_pass_us(world: &mut DirectWorld, batches: &[Vec<RpcCall>]) -> Result<f64, String> {
    let started = Instant::now();
    for calls in batches {
        let (outcome, _) = world
            .net
            .parp_batch_call(&mut world.client, world.node, calls.clone())
            .map_err(|e| format!("twin batch: {e}"))?;
        if !matches!(outcome, ProcessBatchOutcome::Valid { .. }) {
            return Err("twin batch did not verify".into());
        }
    }
    Ok(started.elapsed().as_nanos() as f64 / 1e3 / batches.len() as f64)
}

/// Interleaved passes over two worlds; returns each world's fastest pass
/// `(a, b)` (host noise only adds time).
fn interleaved_us(
    a: &mut DirectWorld,
    b: &mut DirectWorld,
    batches: &[Vec<RpcCall>],
    passes: usize,
) -> Result<(f64, f64), String> {
    let (mut a_us, mut b_us) = (Vec::new(), Vec::new());
    for _ in 0..passes {
        a_us.push(batch_pass_us(a, batches)?);
        b_us.push(batch_pass_us(b, batches)?);
    }
    Ok((fastest(&a_us), fastest(&b_us)))
}

/// Batches each twin comparison replays per pass.
const TWIN_BATCHES: usize = 60;
const TWIN_PASSES: usize = 5;

/// `history-cold`: tier counters, the store's leaf calls on this
/// world's own pages and segments, and the all-resident twin.
pub fn history_metrics(
    world: &mut DirectWorld,
    locations: &[TxLocation],
    plan: &[Vec<RpcCall>],
    size: &Size,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let chain = world.net.chain();
    let mut blocks: Vec<u64> = locations.iter().map(|l| l.block).collect();
    blocks.dedup();
    let sample: Vec<u64> = blocks.iter().copied().take(32).collect();

    let mut reads = Vec::new();
    let mut pages: Vec<(H256, Vec<u8>)> = Vec::new();
    for &block in &sample {
        let (encoded, us) = once_us(|| chain.transactions_encoded(block));
        reads.push(us);
        let encoded = encoded.ok_or("pruned block not readable from its segment")?;
        let page = FrozenTrie::new(ordered_trie(encoded.iter().map(Vec::as_slice)));
        pages.push((page.root_hash(), page.to_bytes()));
    }
    out.insert("store.segment_read_us", median(&reads));
    let from_bytes: Vec<f64> = pages
        .iter()
        .map(|(_, bytes)| once_us(|| black_box(FrozenTrie::from_bytes(bytes).is_some())).1)
        .collect();
    out.insert("trie.from_bytes_us", median(&from_bytes));

    let dir = parp_store::scratch_dir("ledger-spill").map_err(|e| e.to_string())?;
    let spill = SpillStore::open(&dir).map_err(|e| e.to_string())?;
    let mut puts = Vec::new();
    for (root, bytes) in &pages {
        let (put, us) = once_us(|| spill.put(*root, bytes));
        put.map_err(|e| e.to_string())?;
        puts.push(us);
    }
    let mut gets = Vec::new();
    for (root, _) in &pages {
        let (page, us) = once_us(|| spill.get(root));
        gets.push(us);
        if page.map_err(|e| e.to_string())?.is_none() {
            return Err("spilled page not found".into());
        }
    }
    out.insert("store.spill_put_us", median(&puts));
    out.insert("store.spill_get_us", median(&gets));

    let tier = world
        .net
        .runtime()
        .cold_storage()
        .ok_or("history world has no cold storage")?
        .tier();
    out.insert("runtime.tier_resident_bytes", tier.resident_bytes() as f64);
    out.insert(
        "store.disk_bytes",
        (chain.history_disk_bytes() + tier.disk_bytes()) as f64,
    );

    // The same batches on a twin whose budget holds every page: what
    // is left of an exchange once spill, eviction and rehydration are
    // gone. One untimed pass first makes every page resident there.
    let mut resident = DirectWorld::history(size.history_blocks, size.history_txs, 1 << 30)?;
    let batches = &plan[..plan.len().min(TWIN_BATCHES)];
    batch_pass_us(&mut resident, batches)?;
    let (budgeted_us, resident_us) = interleaved_us(world, &mut resident, batches, TWIN_PASSES)?;
    out.insert(
        "runtime.tier_cost_share",
        1.0 - share(resident_us, budgeted_us),
    );
    Ok(())
}

/// `read-batch64`: the attached world against a bare twin (no
/// telemetry registry), interleaved passes of the same batches.
pub fn telemetry_overhead(
    world: &mut DirectWorld,
    plan: &[Vec<RpcCall>],
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let mut bare = DirectWorld::state(world.accounts.len(), false)?;
    let batches = &plan[..plan.len().min(TWIN_BATCHES)];
    batch_pass_us(&mut bare, batches)?;
    let (attached_us, bare_us) = interleaved_us(world, &mut bare, batches, TWIN_PASSES)?;
    out.insert(
        "telemetry.attached_overhead_share",
        share(attached_us - bare_us, bare_us),
    );
    Ok(())
}
