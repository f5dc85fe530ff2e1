//! The trie hot-path bench: what the arena [`FrozenTrie`], its derive
//! overlay and zero-copy multiproof serialization bought, measured
//! **against the retained pre-optimization path** (`parp_trie::baseline`)
//! compiled into this same binary.
//!
//! Five sections:
//!
//! 1. **Correctness pin** — on the bench fixture, the arena path must
//!    produce the identical root hash and byte-identical multiproofs to
//!    the retained baseline (hard assert).
//! 2. **Warm multiproof** — a 64-call `GetBalance`-shaped batch against
//!    a frozen 10k-account trie: baseline `prove_many` vs arena
//!    `prove_many` vs `multiproof_into` writing into one reused
//!    [`ProofBuf`] allocation. The arena speedup is asserted ≥ 2×.
//! 3. **Freeze cost** — `FrozenTrie::new` (the derive overlay run over
//!    the empty arena with the pointer trie's pairs, the one arena
//!    writer) vs the baseline's recursive index pass, per snapshot.
//!    The arena build is asserted within 1.5× of the baseline.
//! 4. **Derive vs rebuild** — what a write pays for its new head trie:
//!    [`FrozenTrie::derive`] from the parent arena against the
//!    `State::build_trie` + `FrozenTrie::new` it replaced, for the two
//!    batch sizes the chain serves (a block touching 6 accounts of
//!    10,000; 1,000 new accounts funded into 5,000). The derived arena
//!    must serve byte-identical proofs to the retained baseline over the
//!    updated contents (hard assert), 6 keys must derive ≥ 10× faster
//!    than the rebuild, and 1,000 keys no slower. A derived arena shares
//!    its parent's pages: the bytes of the pages a 3-key derive over
//!    10,000 accounts does *not* share (`derive_3_of_10k_copied_bytes`,
//!    a count that repeats exactly) are hard-asserted under 256 KiB,
//!    against the ~2.2 MB a full copy of the arena costs.
//! 5. **Client verification** — the inverse of section 2, on the same
//!    fixture: `verify_many` over the 64-key multiproof and
//!    `verify_proof` over one key's own proof, results pinned equal to
//!    the trie's contents; then `h_res` and `encode` of a 64-item
//!    [`ParpBatchResponse`] carrying that multiproof. `h_res` binds proof
//!    nodes by hash and is timed in both forms: the client's
//!    (`expected_hash`: hash every node, then the digest) and the
//!    server's (`digest` over the hashes `multiproof_into` recorded in
//!    its [`ProofBuf`]); the two are hard-asserted equal, and the
//!    encoding is pinned by a decode round trip. No speed gate: each
//!    figure is emitted beside the one an earlier commit measured on the
//!    same box (`*_PARENT_US`), so the artifact shows both.
//!
//! Emits `BENCH_trie.json` at the workspace root (a CI artifact
//! alongside `BENCH_crypto.json` and friends).

use criterion::{criterion_group, criterion_main, Criterion};
use parp_chain::State;
use parp_contracts::{BatchOutput, ParpBatchRequest, ParpBatchResponse, ProofHashes, RpcCall};
use parp_crypto::{keccak256, SecretKey};
use parp_primitives::{Address, H256, U256};
use parp_trie::{baseline, verify_many, verify_proof, FrozenTrie, ProofBuf, Trie};
use std::hint::black_box;
use std::time::Instant;

/// Accounts in the snapshot trie (the runtime bench's serving scale).
const ACCOUNTS: u64 = 10_000;
/// Most a 3-account derive over [`ACCOUNTS`] may copy or write.
const DERIVE_3_COPIED_CEILING: usize = 256 * 1024;
/// Calls per warm batch (the paper's batch evaluation size).
const BATCH: usize = 64;
/// Measurement rounds per timed section.
const ROUNDS: u32 = 30;

/// Rounds for the section 5 timings (each round is well under a
/// millisecond).
const VERIFY_ROUNDS: u32 = 300;
/// Section 5 as commit `af1d086` (the `Item`-tree walk and the
/// `Vec<Vec<u8>>` response encoder) measured it with this same bench code
/// on the box that produced the checked-in artifact: medians of four runs
/// alternated with its successor's (288–310, 7.3–7.7 and 15–16 µs against
/// 144–178, 5.6–7.2 and 3–4). The host's speed drifts by up to 2× over
/// tens of minutes, so compare a figure with its parent only within one
/// such alternation.
const VERIFY_MANY64_PARENT_US: f64 = 298.0;
const VERIFY1_PARENT_US: f64 = 7.6;
const BATCH_RESPONSE_ENCODE_PARENT_US: f64 = 16.0;
/// `h_res` of the section 5 response when it hashed the whole envelope,
/// every proof node's bytes included (119.7 µs in the artifact the last
/// commit before proof nodes were bound by hash checked in).
const BATCH_RESPONSE_HASH_PARENT_US: f64 = 120.0;

/// A populated snapshot trie plus the hashed keys of a 64-call batch
/// (every call an account read, some duplicated — the dedup-heavy shape
/// `handle_batch` actually serves).
fn fixture() -> (Trie, Vec<Vec<u8>>) {
    let state = funded_state(ACCOUNTS);
    let keys: Vec<Vec<u8>> = (0..BATCH)
        .map(|i| {
            // Three hot accounts soak ~30% of the batch; the rest spread.
            let account = if i % 10 < 3 {
                (i % 3 + 1) as u64
            } else {
                (i as u64 * 131) % ACCOUNTS + 1
            };
            let address = Address::from_low_u64_be(account * 31);
            keccak256(address.as_bytes()).as_bytes().to_vec()
        })
        .collect();
    (state.build_trie(), keys)
}

/// An account state of `accounts` funded addresses (the fixture's
/// address and balance scheme).
fn funded_state(accounts: u64) -> State {
    State::with_alloc(
        (1..=accounts).map(|i| (Address::from_low_u64_be(i * 31), U256::from(1_000 + i))),
    )
}

/// Section 4, one row: credits `touched` on a copy of `state` and times
/// the two ways to its frozen trie — deriving from `state`'s arena, and
/// the full `build_trie` + freeze — after pinning the derived arena
/// byte-identical to the retained baseline over the updated contents.
/// Returns `(derive_us, rebuild_us)`.
fn derive_vs_rebuild(state: &State, touched: &[Address], rounds: u32) -> (f64, f64) {
    let parent = FrozenTrie::new(state.build_trie());
    let mut updated = state.clone();
    for address in touched {
        updated.credit(*address, U256::from(7u64));
    }
    let upserts: Vec<(Vec<u8>, Vec<u8>)> = touched
        .iter()
        .map(|address| {
            let account = updated.account(address).expect("just credited");
            (
                keccak256(address.as_bytes()).as_bytes().to_vec(),
                account.encode(),
            )
        })
        .collect();
    let derive = || {
        parent
            .derive(upserts.iter().map(|(k, v)| (k, v)))
            .expect("the arena's own spine decodes")
    };

    let derived = derive();
    let base = baseline::FrozenTrie::new(updated.build_trie());
    let mut probes: Vec<Vec<u8>> = upserts.iter().take(BATCH).map(|(k, _)| k.clone()).collect();
    probes.extend((1..=8u64).map(|i| {
        let untouched = Address::from_low_u64_be(i * 31 * 7);
        keccak256(untouched.as_bytes()).as_bytes().to_vec()
    }));
    assert_byte_identical(&derived, &base, &probes);
    assert_eq!(derived.len(), updated.len());

    let started = Instant::now();
    for _ in 0..rounds {
        black_box(derive());
    }
    let derive_us = started.elapsed().as_micros() as f64 / f64::from(rounds);
    let started = Instant::now();
    for _ in 0..rounds {
        black_box(FrozenTrie::new(updated.build_trie()));
    }
    let rebuild_us = started.elapsed().as_micros() as f64 / f64::from(rounds);
    (derive_us, rebuild_us)
}

/// Section 4, the sharing row: the bytes of the pages that deriving a
/// 3-account write from a fresh 10,000-account arena copies or writes —
/// every page it does not share with its parent.
fn derive_3_copied_bytes() -> usize {
    let state = funded_state(ACCOUNTS);
    let parent = FrozenTrie::new(state.build_trie());
    let touched = [17u64, 4_001, 9_973].map(|i| Address::from_low_u64_be(i * 31));
    let mut updated = state.clone();
    let upserts: Vec<(H256, Vec<u8>)> = touched
        .iter()
        .map(|address| {
            updated.credit(*address, U256::from(7u64));
            let account = updated.account(address).expect("just credited");
            (keccak256(address.as_bytes()), account.encode())
        })
        .collect();
    let derived = parent
        .derive(upserts.iter().map(|(k, v)| (k, v)))
        .expect("the arena's own spine decodes");
    assert_eq!(derived.root_hash(), updated.state_root());
    derived.bytes_not_shared_with(&parent)
}

/// Section 1: the arena path must be indistinguishable from the
/// retained baseline on the wire.
fn assert_byte_identical(
    arena: &FrozenTrie,
    base: &baseline::FrozenTrie,
    keys: &[Vec<u8>],
) -> Vec<Vec<u8>> {
    assert_eq!(
        arena.root_hash(),
        base.root_hash(),
        "arena root diverged from the pre-optimization path"
    );
    let reference = base.prove_many(keys);
    assert_eq!(
        arena.prove_many(keys),
        reference,
        "arena multiproof diverged from the pre-optimization path"
    );
    let mut buf = ProofBuf::new();
    arena.multiproof_into(keys, &mut buf);
    assert_eq!(
        buf.to_vecs(),
        reference,
        "zero-copy serialization diverged from the allocating path"
    );
    let proven = verify_many(arena.root_hash(), keys, &buf.as_slices()).expect("verifies");
    assert!(proven.iter().all(Option::is_some), "batch keys all present");
    reference
}

/// Mean wall-clock microseconds of `f` over `rounds` back-to-back calls.
fn mean_us(rounds: u32, f: &mut dyn FnMut()) -> f64 {
    let started = Instant::now();
    for _ in 0..rounds {
        f();
    }
    started.elapsed().as_nanos() as f64 / 1e3 / f64::from(rounds)
}

struct Numbers {
    multiproof_base_us: f64,
    multiproof_arena_us: f64,
    multiproof_into_us: f64,
    freeze_base_us: f64,
    freeze_arena_us: f64,
    proof_nodes: usize,
    proof_bytes: usize,
    derive_6_of_10k_us: f64,
    rebuild_10k_us: f64,
    derive_1000_into_5k_us: f64,
    rebuild_6k_us: f64,
    derive_3_of_10k_copied_bytes: usize,
    client: ClientSide,
}

/// Section 5's timings, µs.
struct ClientSide {
    verify_many64_us: f64,
    verify1_us: f64,
    /// `h_res` as a client computes it: hash every proof node, then the
    /// digest.
    batch_response_hash_us: f64,
    /// `h_res` as the serving node computes it, from the node hashes its
    /// multiproof walk recorded.
    batch_response_digest_served_us: f64,
    batch_response_encode_us: f64,
}

/// Section 5 over `multiproof`, the fixture batch's proof.
fn measure_client_side(
    trie: &Trie,
    arena: &FrozenTrie,
    keys: &[Vec<u8>],
    multiproof: &[Vec<u8>],
) -> ClientSide {
    let time = |f: &mut dyn FnMut()| mean_us(VERIFY_ROUNDS, f);
    let root = arena.root_hash();
    let expected: Vec<Option<Vec<u8>>> = keys
        .iter()
        .map(|key| trie.get(key).map(<[u8]>::to_vec))
        .collect();
    assert_eq!(
        verify_many(root, keys, multiproof).expect("multiproof verifies"),
        expected,
        "verify_many must bind every key to the trie's own value"
    );
    let verify_many64_us = time(&mut || {
        black_box(verify_many(root, keys, black_box(multiproof)).is_ok());
    });
    let single = arena.prove(&keys[0]);
    assert_eq!(
        verify_proof(root, &keys[0], &single).expect("single proof verifies"),
        expected[0],
    );
    let verify1_us = time(&mut || {
        black_box(verify_proof(root, &keys[0], black_box(&single)).is_ok());
    });

    // A 64-item response shaped like the serving path's: one account
    // encoding per call, the shared multiproof, one carried header.
    let calls: Vec<RpcCall> = (0..keys.len() as u64)
        .map(|i| RpcCall::GetBalance {
            address: Address::from_low_u64_be(i),
        })
        .collect();
    let request = ParpBatchRequest::build(
        &SecretKey::from_seed(b"trie-hotpath-client"),
        1,
        H256::from_low_u64_be(0xb10c),
        U256::from(64_000u64),
        calls,
    );
    let output = BatchOutput::snapshot(
        9,
        expected.iter().flatten().cloned().collect(),
        multiproof.to_vec(),
        vec![0xab; 540],
    );
    // The serving node's hashes: recorded by the multiproof walk, never
    // computed from the node bytes.
    let mut buf = ProofBuf::new();
    arena.multiproof_into(keys, &mut buf);
    assert_eq!(buf.to_vecs(), multiproof);
    let served = ProofHashes::served(&buf, &vec![ProofBuf::new(); output.item_proofs.len()]);
    let response = ParpBatchResponse::build_hashed(
        &SecretKey::from_seed(b"trie-hotpath-node"),
        &request,
        output,
        &served,
    );
    assert_eq!(
        response.digest(&served),
        response.expected_hash(),
        "the server's digest must equal the client's"
    );
    assert_eq!(
        response.signer(),
        Some(SecretKey::from_seed(b"trie-hotpath-node").address())
    );
    assert_eq!(
        ParpBatchResponse::decode(&response.encode()).expect("own encoding decodes"),
        response,
    );
    let batch_response_hash_us = time(&mut || {
        black_box(black_box(&response).expected_hash());
    });
    let batch_response_digest_served_us = time(&mut || {
        black_box(black_box(&response).digest(black_box(&served)));
    });
    let batch_response_encode_us = time(&mut || {
        black_box(black_box(&response).encode());
    });
    ClientSide {
        verify_many64_us,
        verify1_us,
        batch_response_hash_us,
        batch_response_digest_served_us,
        batch_response_encode_us,
    }
}

fn measure(trie: &Trie, keys: &[Vec<u8>]) -> Numbers {
    let arena = FrozenTrie::new(trie.clone());
    let base = baseline::FrozenTrie::new(trie.clone());
    let reference = assert_byte_identical(&arena, &base, keys);
    let proof_nodes = reference.len();
    let proof_bytes = reference.iter().map(Vec::len).sum();

    let time = |f: &mut dyn FnMut()| mean_us(ROUNDS, f);

    let multiproof_base_us = time(&mut || {
        black_box(base.prove_many(keys));
    });
    let multiproof_arena_us = time(&mut || {
        black_box(arena.prove_many(keys));
    });
    let mut buf = ProofBuf::new();
    arena.multiproof_into(keys, &mut buf); // pre-size the reused buffer
    let multiproof_into_us = time(&mut || {
        arena.multiproof_into(keys, &mut buf);
        black_box(&buf);
    });

    const FREEZE_ROUNDS: u32 = 5;
    let started = Instant::now();
    for _ in 0..FREEZE_ROUNDS {
        black_box(baseline::FrozenTrie::new(trie.clone()));
    }
    let freeze_base_us = started.elapsed().as_micros() as f64 / f64::from(FREEZE_ROUNDS);
    let started = Instant::now();
    for _ in 0..FREEZE_ROUNDS {
        black_box(FrozenTrie::new(trie.clone()));
    }
    let freeze_arena_us = started.elapsed().as_micros() as f64 / f64::from(FREEZE_ROUNDS);

    // A block's worth of writes: sender, recipient, beneficiary and the
    // three module accounts, here six existing accounts spread over the
    // key space.
    let six: Vec<Address> = (1..=6u64)
        .map(|i| Address::from_low_u64_be(i * 1_499 * 31))
        .collect();
    let (derive_6_of_10k_us, rebuild_10k_us) =
        derive_vs_rebuild(&funded_state(ACCOUNTS), &six, ROUNDS);
    // A faucet block: 1,000 accounts that did not exist.
    let thousand: Vec<Address> = (1..=1_000u64)
        .map(|i| Address::from_low_u64_be(i * 31 + 7))
        .collect();
    let (derive_1000_into_5k_us, rebuild_6k_us) =
        derive_vs_rebuild(&funded_state(5_000), &thousand, FREEZE_ROUNDS);
    let derive_3_of_10k_copied_bytes = derive_3_copied_bytes();
    assert_eq!(
        derive_3_copied_bytes(),
        derive_3_of_10k_copied_bytes,
        "the copied-bytes count must repeat exactly"
    );

    let client = measure_client_side(trie, &arena, keys, &reference);
    Numbers {
        multiproof_base_us,
        multiproof_arena_us,
        multiproof_into_us,
        freeze_base_us,
        freeze_arena_us,
        proof_nodes,
        proof_bytes,
        derive_6_of_10k_us,
        rebuild_10k_us,
        derive_1000_into_5k_us,
        rebuild_6k_us,
        derive_3_of_10k_copied_bytes,
        client,
    }
}

fn emit_artifact(n: &Numbers) {
    let multiproof_speedup = n.multiproof_base_us / n.multiproof_arena_us.max(1e-9);
    let zero_copy_speedup = n.multiproof_base_us / n.multiproof_into_us.max(1e-9);
    let freeze_ratio = n.freeze_arena_us / n.freeze_base_us.max(1e-9);
    let batch_per_sec = 1e6 / n.multiproof_into_us.max(1e-9);
    let derive_6_speedup = n.rebuild_10k_us / n.derive_6_of_10k_us.max(1e-9);
    let derive_1000_speedup = n.rebuild_6k_us / n.derive_1000_into_5k_us.max(1e-9);
    let json = format!(
        "{{\"bench\":\"trie_hotpath\",\"accounts\":{ACCOUNTS},\"batch\":{BATCH},\
         \"multiproof_prepr_us\":{:.1},\"multiproof_arena_us\":{:.1},\
         \"multiproof_into_us\":{:.1},\"multiproof_speedup\":{multiproof_speedup:.2},\
         \"zero_copy_speedup\":{zero_copy_speedup:.2},\
         \"batches_per_sec\":{batch_per_sec:.0},\
         \"proof_nodes\":{},\"proof_bytes\":{},\
         \"freeze_prepr_us\":{:.0},\"freeze_arena_us\":{:.0},\"freeze_ratio\":{freeze_ratio:.2},\
         \"derive_6_of_10k_us\":{:.0},\"rebuild_10k_us\":{:.0},\
         \"derive_6_speedup\":{derive_6_speedup:.1},\
         \"derive_1000_into_5k_us\":{:.0},\"rebuild_6k_us\":{:.0},\
         \"derive_1000_speedup\":{derive_1000_speedup:.2},\
         \"derive_3_of_10k_copied_bytes\":{},\
         \"derive_3_of_10k_copied_ceiling\":{DERIVE_3_COPIED_CEILING},\
         \"verify_nodes\":{},\"verify_bytes\":{},\
         \"verify_many64_us\":{:.1},\"verify_many64_parent_us\":{VERIFY_MANY64_PARENT_US:.1},\
         \"verify1_us\":{:.2},\"verify1_parent_us\":{VERIFY1_PARENT_US:.2},\
         \"batch_response_hash_us\":{:.1},\
         \"batch_response_hash_parent_us\":{BATCH_RESPONSE_HASH_PARENT_US:.1},\
         \"batch_response_digest_served_us\":{:.1},\
         \"batch_response_encode_us\":{:.1},\
         \"batch_response_encode_parent_us\":{BATCH_RESPONSE_ENCODE_PARENT_US:.1}}}\n",
        n.multiproof_base_us,
        n.multiproof_arena_us,
        n.multiproof_into_us,
        n.proof_nodes,
        n.proof_bytes,
        n.freeze_base_us,
        n.freeze_arena_us,
        n.derive_6_of_10k_us,
        n.rebuild_10k_us,
        n.derive_1000_into_5k_us,
        n.rebuild_6k_us,
        n.derive_3_of_10k_copied_bytes,
        n.proof_nodes,
        n.proof_bytes,
        n.client.verify_many64_us,
        n.client.verify1_us,
        n.client.batch_response_hash_us,
        n.client.batch_response_digest_served_us,
        n.client.batch_response_encode_us,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trie.json");
    std::fs::write(path, &json).expect("write BENCH_trie.json");
    println!("wrote BENCH_trie.json: {json}");
    println!(
        "warm {BATCH}-call multiproof: pre-PR {:.0} µs | arena {:.0} µs ({multiproof_speedup:.1}×) \
         | zero-copy {:.0} µs ({zero_copy_speedup:.1}×) | {} nodes, {} B",
        n.multiproof_base_us, n.multiproof_arena_us, n.multiproof_into_us, n.proof_nodes,
        n.proof_bytes,
    );
    println!(
        "freeze {ACCOUNTS}-account snapshot: pre-PR {:.0} µs | arena {:.0} µs ({freeze_ratio:.2}× \
         relative)",
        n.freeze_base_us, n.freeze_arena_us,
    );

    println!(
        "head trie after a write: 6 of {ACCOUNTS} accounts — derive {:.0} µs vs build+freeze {:.0} µs \
         ({derive_6_speedup:.1}×) | 1,000 new into 5,000 — derive {:.0} µs vs build+freeze {:.0} µs \
         ({derive_1000_speedup:.2}×) | a 3-account derive copies or writes {} B of pages \
         (ceiling {DERIVE_3_COPIED_CEILING} B)",
        n.derive_6_of_10k_us,
        n.rebuild_10k_us,
        n.derive_1000_into_5k_us,
        n.rebuild_6k_us,
        n.derive_3_of_10k_copied_bytes,
    );

    println!(
        "client side of the same batch ({} nodes, {} B): verify_many {:.0} µs (parent \
         {VERIFY_MANY64_PARENT_US:.0}) | verify_proof {:.1} µs (parent {VERIFY1_PARENT_US:.1}) | \
         64-item response h_res {:.0} µs hashing the nodes, {:.0} µs from the walk's hashes \
         (parent {BATCH_RESPONSE_HASH_PARENT_US:.0}, over the node bytes) | encode {:.0} µs \
         (parent {BATCH_RESPONSE_ENCODE_PARENT_US:.0})",
        n.proof_nodes,
        n.proof_bytes,
        n.client.verify_many64_us,
        n.client.verify1_us,
        n.client.batch_response_hash_us,
        n.client.batch_response_digest_served_us,
        n.client.batch_response_encode_us,
    );

    // Hard gates, set conservatively below the measured wins so VM
    // noise cannot flake CI: the real numbers live in the JSON.
    assert!(
        multiproof_speedup >= 2.0,
        "arena multiproof must beat the pre-PR path by ≥2× (measured {multiproof_speedup:.2}×)"
    );
    assert!(
        zero_copy_speedup >= multiproof_speedup * 0.95,
        "zero-copy serialization must not give back the arena win \
         ({zero_copy_speedup:.2}× vs {multiproof_speedup:.2}×)"
    );
    assert!(
        derive_6_speedup >= 10.0,
        "deriving a 6-account write must beat the full rebuild by ≥10× \
         (measured {derive_6_speedup:.1}×)"
    );
    assert!(
        derive_1000_speedup >= 1.0,
        "deriving a 1,000-account block must not be dearer than the rebuild it replaces \
         (measured {derive_1000_speedup:.2}×)"
    );
    assert!(
        n.derive_3_of_10k_copied_bytes <= DERIVE_3_COPIED_CEILING,
        "a 3-account derive copied or wrote {} B of pages (ceiling {DERIVE_3_COPIED_CEILING} B)",
        n.derive_3_of_10k_copied_bytes
    );
    assert!(
        freeze_ratio <= 1.5,
        "arena freeze must stay within 1.5× of the baseline index pass \
         (measured {freeze_ratio:.2}×)"
    );
}

fn bench_trie_ops(c: &mut Criterion) {
    let (trie, keys) = fixture();
    let arena = FrozenTrie::new(trie.clone());
    let base = baseline::FrozenTrie::new(trie.clone());
    let mut group = c.benchmark_group("trie_hotpath");
    group.sample_size(10);
    group.bench_function("multiproof_64_prepr", |b| {
        b.iter(|| black_box(base.prove_many(&keys)))
    });
    group.bench_function("multiproof_64_arena", |b| {
        b.iter(|| black_box(arena.prove_many(&keys)))
    });
    let mut buf = ProofBuf::new();
    group.bench_function("multiproof_64_zero_copy", |b| {
        b.iter(|| {
            arena.multiproof_into(&keys, &mut buf);
            black_box(buf.total_bytes())
        })
    });
    group.bench_function("freeze_10k", |b| {
        b.iter(|| black_box(FrozenTrie::new(trie.clone())))
    });
    group.finish();
}

fn run_all(c: &mut Criterion) {
    let (trie, keys) = fixture();
    let numbers = measure(&trie, &keys);
    emit_artifact(&numbers);
    bench_trie_ops(c);
}

criterion_group!(benches, run_all);
criterion_main!(benches);
