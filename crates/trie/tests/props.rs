//! Property tests: the trie against a BTreeMap model, root determinism,
//! proof soundness/completeness, the arena-frozen serving path pinned
//! byte-identical to the retained baseline, an arena built from pairs in
//! any order (repeated keys and none at all included) pinned to the
//! pointer trie, `FrozenTrie::derive` pinned indistinguishable from a
//! fresh build and from the pointer trie over long upsert chains (its
//! superseded bytes held to their bound), and the node hashes
//! `multiproof_into` records — read from parent references, never
//! computed — equal to `keccak256` of the node bytes on fresh, derived
//! and rehydrated arenas alike.

use parp_trie::{baseline, verify_many, verify_proof, FrozenTrie, ProofBuf, Trie};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;

fn arb_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(any::<u8>(), 1..12),
            proptest::collection::vec(any::<u8>(), 1..24),
        ),
        0..40,
    )
}

/// Key sets drawn from a two-byte alphabet behind a shared prefix:
/// long extension chains, dense branch fan-in, and byte-identical
/// repeated subtrees — the shapes that stress multiproof hash dedup.
fn arb_shared_prefix_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    (
        proptest::collection::vec(any::<u8>(), 0..5),
        proptest::collection::vec(
            (
                proptest::collection::vec(prop_oneof![Just(0x11u8), Just(0xee)], 1..4),
                proptest::collection::vec(any::<u8>(), 1..40),
            ),
            1..24,
        ),
    )
        .prop_map(|(prefix, tails)| {
            tails
                .into_iter()
                .map(|(suffix, value)| {
                    let mut key = prefix.clone();
                    key.extend_from_slice(&suffix);
                    (key, value)
                })
                .collect()
        })
}

/// Asserts every hash `multiproof_into` records for `keys` is
/// `keccak256` of its node's bytes, and returns the buffer.
fn assert_recorded_hashes(arena: &FrozenTrie, keys: &[Vec<u8>]) -> ProofBuf {
    let mut buf = ProofBuf::new();
    arena.multiproof_into(keys, &mut buf);
    assert_eq!(buf.hashes().len(), buf.len());
    for (index, (node, hash)) in buf.iter().zip(buf.hashes()).enumerate() {
        assert_eq!(
            hash,
            parp_crypto::keccak256(node),
            "recorded hash of node {index} is not the hash of its bytes"
        );
    }
    buf
}

/// Asserts the arena path equals the retained baseline byte for byte on
/// `root_hash`, `prove`, `prove_many` and the zero-copy serialization,
/// and that the arena multiproof still verifies.
fn assert_arena_matches_baseline(
    pairs: &[(Vec<u8>, Vec<u8>)],
    probes: &[Vec<u8>],
) -> Result<(), TestCaseError> {
    let trie: Trie = pairs.iter().cloned().collect();
    let arena = FrozenTrie::new(trie.clone());
    let base = baseline::FrozenTrie::new(trie.clone());
    prop_assert_eq!(arena.root_hash(), base.root_hash());
    prop_assert_eq!(arena.root_hash(), trie.root_hash());
    // Present keys, absent probes, and duplicates all walk identically.
    let mut keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
    keys.extend(probes.iter().cloned());
    keys.extend(pairs.iter().take(3).map(|(k, _)| k.clone()));
    for key in &keys {
        prop_assert_eq!(arena.prove(key), base.prove(key));
    }
    let arena_multi = arena.prove_many(&keys);
    prop_assert_eq!(&arena_multi, &base.prove_many(&keys));
    prop_assert_eq!(&arena_multi, &trie.prove_many(&keys));
    // Zero-copy serialization carries the same bytes, each beside its
    // hash...
    let buf = assert_recorded_hashes(&arena, &keys);
    prop_assert_eq!(buf.to_vecs(), arena_multi.clone());
    // ...and verifies straight out of the buffer, matching per-key
    // single-proof verdicts.
    let results = verify_many(arena.root_hash(), &keys, &buf.as_slices());
    let results = results.map_err(|e| TestCaseError::fail(e.to_string()))?;
    for (key, result) in keys.iter().zip(&results) {
        let single = verify_proof(arena.root_hash(), key, &arena.prove(key));
        prop_assert_eq!(result, &single.unwrap());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trie_matches_btreemap(pairs in arb_pairs()) {
        let mut trie = Trie::new();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for (k, v) in &pairs {
            prop_assert_eq!(
                trie.insert(k.clone(), v.clone()),
                model.insert(k.clone(), v.clone())
            );
        }
        prop_assert_eq!(trie.len(), model.len());
        for (k, v) in &model {
            prop_assert_eq!(trie.get(k), Some(v.as_slice()));
        }
        let collected: Vec<(Vec<u8>, Vec<u8>)> =
            trie.iter().map(|(k, v)| (k, v.to_vec())).collect();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(collected, expected);
    }

    #[test]
    fn root_is_insertion_order_independent(pairs in arb_pairs()) {
        // Dedupe first: with duplicate keys the last write wins, so only
        // unique-key sets are order independent.
        let unique: BTreeMap<Vec<u8>, Vec<u8>> = pairs.into_iter().collect();
        let forward: Trie = unique.clone().into_iter().collect();
        let reverse: Trie = unique.into_iter().rev().collect();
        prop_assert_eq!(forward.root_hash(), reverse.root_hash());
    }

    #[test]
    fn every_key_proves(pairs in arb_pairs()) {
        let trie: Trie = pairs.clone().into_iter().collect();
        let root = trie.root_hash();
        let model: BTreeMap<Vec<u8>, Vec<u8>> = pairs.into_iter().collect();
        for (k, v) in &model {
            let proof = trie.prove(k);
            prop_assert_eq!(verify_proof(root, k, &proof).unwrap(), Some(v.clone()));
        }
    }

    #[test]
    fn absent_keys_prove_exclusion(pairs in arb_pairs(), probe in proptest::collection::vec(any::<u8>(), 1..12)) {
        let trie: Trie = pairs.clone().into_iter().collect();
        let model: BTreeMap<Vec<u8>, Vec<u8>> = pairs.into_iter().collect();
        prop_assume!(!model.contains_key(&probe));
        let proof = trie.prove(&probe);
        prop_assert_eq!(verify_proof(trie.root_hash(), &probe, &proof).unwrap(), None);
    }

    #[test]
    fn remove_then_reinsert_restores_root(pairs in arb_pairs(), victim_index in any::<prop::sample::Index>()) {
        prop_assume!(!pairs.is_empty());
        let mut trie: Trie = pairs.clone().into_iter().collect();
        let root_before = trie.root_hash();
        let model: BTreeMap<Vec<u8>, Vec<u8>> = pairs.into_iter().collect();
        let keys: Vec<&Vec<u8>> = model.keys().collect();
        let victim = keys[victim_index.index(keys.len())].clone();
        let value = trie.remove(&victim).expect("key present in model");
        prop_assert_eq!(trie.get(&victim), None);
        trie.insert(victim, value);
        prop_assert_eq!(trie.root_hash(), root_before);
    }

    #[test]
    fn removals_match_model(pairs in arb_pairs()) {
        let mut trie: Trie = pairs.clone().into_iter().collect();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = pairs.clone().into_iter().collect();
        for (k, _) in pairs.iter().step_by(2) {
            prop_assert_eq!(trie.remove(k), model.remove(k));
        }
        prop_assert_eq!(trie.len(), model.len());
        let rebuilt: Trie = model.clone().into_iter().collect();
        prop_assert_eq!(trie.root_hash(), rebuilt.root_hash());
    }

    #[test]
    fn proofs_fail_against_tampered_roots(pairs in arb_pairs(), flip in any::<u8>()) {
        prop_assume!(!pairs.is_empty());
        let trie: Trie = pairs.clone().into_iter().collect();
        let (key, value) = &pairs[0];
        let proof = trie.prove(key);
        let mut root_bytes = trie.root_hash().into_inner();
        root_bytes[(flip % 32) as usize] ^= 1 | (flip >> 3);
        let tampered = parp_primitives::H256::new(root_bytes);
        prop_assume!(tampered != trie.root_hash());
        if let Ok(Some(v)) = verify_proof(tampered, key, &proof) { prop_assert_ne!(&v, value) }
    }

    #[test]
    fn multiproof_agrees_with_single_proofs(
        pairs in arb_pairs(),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 1..12),
    ) {
        // verify_many accepts exactly the key/value sets whose per-key
        // single proofs verify against the same root: for an arbitrary
        // mix of present, absent and duplicate keys, every per-key result
        // must equal the single-proof verdict for that key.
        let trie: Trie = pairs.clone().into_iter().collect();
        let root = trie.root_hash();
        let mut keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
        keys.extend(probes); // arbitrary probes: absent keys and duplicates
        let proof = trie.prove_many(&keys);
        let results = verify_many(root, &keys, &proof).unwrap();
        prop_assert_eq!(results.len(), keys.len());
        for (key, result) in keys.iter().zip(&results) {
            let single = trie.prove(key);
            prop_assert_eq!(result, &verify_proof(root, key, &single).unwrap());
        }
        // And the deduplicated node set never exceeds the concatenation.
        let multi_bytes: usize = proof.iter().map(Vec::len).sum();
        let single_bytes: usize = keys
            .iter()
            .map(|k| trie.prove(k).iter().map(Vec::len).sum::<usize>())
            .sum();
        prop_assert!(multi_bytes <= single_bytes);
    }

    #[test]
    fn arena_frozen_matches_baseline(
        pairs in arb_pairs(),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..8),
    ) {
        assert_arena_matches_baseline(&pairs, &probes)?;
    }

    #[test]
    fn arena_frozen_matches_baseline_on_shared_prefixes(
        pairs in arb_shared_prefix_pairs(),
        probes in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(0x11u8), Just(0xee)], 1..6),
            0..6,
        ),
    ) {
        assert_arena_matches_baseline(&pairs, &probes)?;
    }

    /// The storage tier's spill format: `to_bytes`/`from_bytes` must
    /// round-trip any trie with byte-identical proofs (what the warm
    /// tier's rehydration path relies on), re-serialize canonically,
    /// and reject every truncated page rather than misparse it.
    #[test]
    fn page_serialization_round_trips(
        pairs in arb_pairs(),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..6),
        cut_frac in 0usize..1000,
    ) {
        let trie: Trie = pairs.clone().into_iter().collect();
        let frozen = FrozenTrie::new(trie);
        let page = frozen.to_bytes();
        let back = FrozenTrie::from_bytes(&page).expect("own page parses");
        prop_assert_eq!(back.root_hash(), frozen.root_hash());
        let mut keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
        keys.extend(probes);
        for key in &keys {
            prop_assert_eq!(back.prove(key), frozen.prove(key));
        }
        prop_assert_eq!(back.prove_many(&keys), frozen.prove_many(&keys));
        assert_recorded_hashes(&back, &keys);
        // Rehydration is canonical: the page of the page is the page.
        prop_assert_eq!(back.to_bytes(), page.clone());
        // A torn spill write (any strict prefix) is rejected outright.
        let cut = page.len() * cut_frac / 1000;
        if cut < page.len() {
            prop_assert!(FrozenTrie::from_bytes(&page[..cut]).is_none());
        }
    }

    #[test]
    fn multiproof_rejects_forgery(pairs in arb_pairs(), flip in any::<u16>()) {
        // Soundness: corrupting any byte of any node changes that node's
        // hash, so either a walk dead-ends (missing node) or the altered
        // node goes unreferenced (padding) — verification must fail.
        prop_assume!(!pairs.is_empty());
        let trie: Trie = pairs.clone().into_iter().collect();
        let root = trie.root_hash();
        let keys: Vec<Vec<u8>> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let mut proof = trie.prove_many(&keys);
        let node = (flip as usize / 8) % proof.len();
        let byte = (flip as usize) % proof[node].len();
        proof[node][byte] ^= 1 | ((flip >> 8) as u8);
        prop_assert!(verify_many(root, &keys, &proof).is_err());
    }
}

#[test]
fn arena_matches_baseline_on_degenerate_tries() {
    // Empty trie and single-key trie: the edge cases the proptest
    // strategies reach rarely, pinned explicitly.
    assert_arena_matches_baseline(&[], &[b"probe".to_vec()]).unwrap();
    assert_arena_matches_baseline(
        &[(b"solo".to_vec(), vec![0x5a; 40])],
        &[b"solo".to_vec(), b"absent".to_vec()],
    )
    .unwrap();
    // A single short key whose root encoding is < 32 bytes (root is
    // still recorded and hashed).
    assert_arena_matches_baseline(&[(vec![7], vec![1, 2])], &[vec![8]]).unwrap();
}

// --- FrozenTrie::derive ≡ the pointer trie of the updated contents -----

/// The two key populations a `FrozenTrie` serves.
#[derive(Clone, Copy)]
enum Shape {
    /// 32-byte hashed keys with account-sized values: the secure state
    /// trie (every leaf behind a hash reference, no branch values).
    Hashed,
    /// 1–4 byte keys over a 16-symbol alphabet with values from a small
    /// pool of tiny and ≥ 32-byte strings: keys that are prefixes of
    /// other keys (branch values), embedded (< 32-byte) children,
    /// extension chains and byte-identical twin subtrees.
    Short,
}

const SHORT_ALPHABET: [u8; 16] = [
    0x00, 0x01, 0x02, 0x0f, 0x10, 0x11, 0x1f, 0x20, 0x7f, 0x80, 0xa0, 0xaa, 0xf0, 0xf1, 0xfe, 0xff,
];

impl Shape {
    fn key(self, rng: &mut StdRng) -> Vec<u8> {
        match self {
            Shape::Hashed => parp_crypto::keccak256(&rng.next_u64().to_be_bytes())
                .as_bytes()
                .to_vec(),
            Shape::Short => (0..1 + rng.gen_range(0..4usize))
                .map(|_| SHORT_ALPHABET[rng.gen_range(0..SHORT_ALPHABET.len())])
                .collect(),
        }
    }

    fn value(self, rng: &mut StdRng) -> Vec<u8> {
        match self {
            Shape::Hashed => {
                let len = 70 + rng.gen_range(0..40usize);
                (0..len).map(|_| rng.next_u64() as u8).collect()
            }
            Shape::Short => match rng.gen_range(0..5usize) {
                0 => vec![0x07],
                1 => vec![0xaa, 0xbb],
                2 => vec![0xcd; 40],
                3 => vec![0xef; 33],
                _ => vec![rng.next_u64() as u8; 1 + rng.gen_range(0..48usize)],
            },
        }
    }
}

/// `pairs` in a random order (Fisher–Yates).
fn shuffled(pairs: &[(Vec<u8>, Vec<u8>)], rng: &mut StdRng) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = pairs.to_vec();
    for i in (1..out.len()).rev() {
        out.swap(i, rng.gen_range(0..i + 1));
    }
    out
}

/// Asserts `arena` answers like the pointer trie `model` over the same
/// pairs: root, length, the multiproof of `present` and `absent` keys,
/// and each absent key's own (exclusion) proof.
///
/// `Trie::prove` re-encodes the whole trie for every key, so the root
/// and the multiproof are read through the retained baseline instead:
/// the pointer trie's own node encodings, indexed in one pass over its
/// boxed nodes.
fn assert_matches_pointer_trie(
    arena: &FrozenTrie,
    model: &Trie,
    present: &[Vec<u8>],
    absent: &[Vec<u8>],
) {
    let oracle = baseline::FrozenTrie::new(model.clone());
    assert_eq!(arena.root_hash(), oracle.root_hash());
    assert_eq!(arena.len(), model.len());
    let keys: Vec<Vec<u8>> = present.iter().chain(absent).cloned().collect();
    assert_eq!(arena.prove_many(&keys), oracle.prove_many(&keys));
    for key in absent {
        let proof = arena.prove(key);
        assert_eq!(proof, model.prove(key));
        assert_eq!(verify_proof(arena.root_hash(), key, &proof).unwrap(), None);
    }
}

/// A build from pairs against the pointer trie: `size` pairs plus a
/// quarter as many rewrites of earlier keys, collected as drawn and in
/// two shuffled orders (each checked against the pointer trie built in
/// the same order, so the last write of a key wins in both), then with
/// every key once, sorted and shuffled. Builds of the same contents take
/// the same bytes whatever the order: only arena ids and the record
/// order of a page may differ.
fn collect_matches_pointer_trie(shape: Shape, size: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pairs: Vec<(Vec<u8>, Vec<u8>)> = (0..size)
        .map(|_| (shape.key(&mut rng), shape.value(&mut rng)))
        .collect();
    for _ in 0..size / 4 {
        let key = pairs[rng.gen_range(0..pairs.len())].0.clone();
        pairs.push((key, shape.value(&mut rng)));
    }
    let absent: Vec<Vec<u8>> = (0..6)
        .map(|_| shape.key(&mut rng))
        .filter(|key| !pairs.iter().any(|(k, _)| k == key))
        .collect();
    let orders = [
        pairs.clone(),
        shuffled(&pairs, &mut rng),
        shuffled(&pairs, &mut rng),
    ];
    for order in &orders {
        let model: Trie = order.iter().cloned().collect();
        let arena: FrozenTrie = order.iter().map(|(k, v)| (k, v)).collect();
        let present: Vec<Vec<u8>> = order.iter().step_by(3).map(|(k, _)| k.clone()).collect();
        assert_matches_pointer_trie(&arena, &model, &present, &absent);
    }
    let model: Trie = pairs.iter().cloned().collect();
    let unique: Vec<(Vec<u8>, Vec<u8>)> = model.iter().map(|(k, v)| (k, v.to_vec())).collect();
    let sizes = |arena: &FrozenTrie| (arena.mem_bytes(), arena.to_bytes().len());
    let expected = sizes(&pairs.iter().map(|(k, v)| (k, v)).collect());
    for order in [unique.clone(), shuffled(&unique, &mut rng)] {
        let arena: FrozenTrie = order.into_iter().collect();
        let present: Vec<Vec<u8>> = unique.iter().map(|(k, _)| k.clone()).collect();
        assert_matches_pointer_trie(&arena, &model, &present, &absent);
        assert_eq!(sizes(&arena), expected);
    }
}

/// Sizes from none (the empty root) to 1,000 pairs, several seeds each.
fn collect_checks(shape: Shape) {
    for (size, seeds) in [(0, 2), (1, 6), (2, 6), (5, 6), (17, 6), (64, 4), (1_000, 1)] {
        for seed in 0..seeds {
            collect_matches_pointer_trie(shape, size, 0xC0 + seed * 7919 + size as u64);
        }
    }
}

#[test]
fn pairs_collect_like_the_pointer_trie_in_any_order_for_hashed_keys() {
    collect_checks(Shape::Hashed);
}

#[test]
fn pairs_collect_like_the_pointer_trie_in_any_order_for_short_keys() {
    collect_checks(Shape::Short);
}

/// The superseded bytes a derived arena carries stay within their fixed
/// fraction of its live bytes.
fn assert_superseded_bounded(derived: &FrozenTrie) {
    let superseded = derived.superseded_bytes();
    assert!(
        superseded * FrozenTrie::LIVE_PER_SUPERSEDED <= derived.mem_bytes() - superseded,
        "{superseded} superseded bytes in a {} byte arena",
        derived.mem_bytes()
    );
}

/// The derive contract: the derived arena answers exactly like the
/// pointer trie `model` and a fresh build of it, carries superseded bytes
/// only within their bound, and leaves none in its page: rehydrated, it
/// is exactly the fresh build's size.
///
/// A fresh build runs the same overlay as `derive`, so the root, length
/// and multiproof are also checked against `model` itself: the oracle
/// that shares no code with the arena writer.
fn assert_derived_is_fresh(derived: &FrozenTrie, model: &Trie, probes: &[Vec<u8>]) {
    assert_matches_pointer_trie(derived, model, probes, &[]);
    let fresh = FrozenTrie::new(model.clone());
    assert_eq!(derived.root_hash(), fresh.root_hash());
    assert_eq!(derived.len(), fresh.len());
    assert_eq!(derived.is_empty(), fresh.is_empty());
    assert_eq!(derived.node_count(), fresh.node_count());
    assert_superseded_bounded(derived);
    for key in probes {
        assert_eq!(derived.prove(key), fresh.prove(key));
    }
    // First-touch order and the one-witness-per-identical-node rule,
    // in both key orders.
    let reversed: Vec<Vec<u8>> = probes.iter().rev().cloned().collect();
    for keys in [probes, &reversed[..]] {
        let expected = fresh.prove_many(keys);
        assert_eq!(derived.prove_many(keys), expected);
        let buf = assert_recorded_hashes(derived, keys);
        assert_eq!(buf.to_vecs(), expected);
    }
    let paged = FrozenTrie::from_bytes(&derived.to_bytes()).expect("derived page parses");
    assert_eq!(paged.mem_bytes(), fresh.mem_bytes());
    assert_eq!(paged.superseded_bytes(), 0);
    assert_eq!(paged.root_hash(), fresh.root_hash());
    assert_eq!(paged.prove_many(probes), fresh.prove_many(probes));
    assert_recorded_hashes(&paged, probes);
}

/// One chain: a random trie of `size` keys, then `batches` derivations,
/// each checked against a fresh freeze. Batches mix overwrites (some
/// re-writing the value already there) with new keys, 1–1,000 at a time.
fn derive_chain(shape: Shape, size: usize, batches: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model = Trie::new();
    let mut known: Vec<Vec<u8>> = Vec::new();
    while model.len() < size {
        let key = shape.key(&mut rng);
        if model.insert(key.clone(), shape.value(&mut rng)).is_none() {
            known.push(key);
        }
    }
    let mut arena = FrozenTrie::new(model.clone());
    for _ in 0..batches {
        let batch_len = match rng.gen_range(0..25usize) {
            0 => 1 + rng.gen_range(0..1_000usize),
            1..=6 => 1 + rng.gen_range(0..64usize),
            _ => 1 + rng.gen_range(0..6usize),
        };
        let mut batch: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(batch_len);
        for _ in 0..batch_len {
            let existing = !known.is_empty() && rng.gen_range(0..2usize) == 0;
            let key = if existing {
                known[rng.gen_range(0..known.len())].clone()
            } else {
                shape.key(&mut rng)
            };
            let value = match model.get(&key) {
                Some(current) if rng.gen_range(0..4usize) == 0 => current.to_vec(),
                _ => shape.value(&mut rng),
            };
            batch.push((key, value));
        }
        arena = arena
            .derive(batch.iter().map(|(k, v)| (k, v)))
            .expect("derives");
        for (key, value) in &batch {
            if model.insert(key.clone(), value.clone()).is_none() {
                known.push(key.clone());
            }
        }
        // Probe what changed (sampled when the batch is large), some of
        // what did not, and a few absent keys.
        let stride = batch.len().div_ceil(40);
        let mut probes: Vec<Vec<u8>> = batch
            .iter()
            .step_by(stride)
            .map(|(k, _)| k.clone())
            .collect();
        probes.extend((0..8).map(|_| known[rng.gen_range(0..known.len())].clone()));
        probes.extend((0..3).map(|_| shape.key(&mut rng)));
        assert_derived_is_fresh(&arena, &model, &probes);
    }
}

/// 4 small sizes × 6 seeds + the large size once, 50 batches each:
/// 1,250 derivations per shape, 2,500 in all, every one checked.
fn derive_chains(shape: Shape) {
    for (size, seeds) in [(0, 6), (1, 6), (2, 6), (17, 6), (3_000, 1)] {
        for seed in 0..seeds {
            derive_chain(shape, size, 50, 0xD0 + seed * 7919 + size as u64);
        }
    }
}

#[test]
fn derive_matches_fresh_freeze_over_long_chains_of_hashed_keys() {
    derive_chains(Shape::Hashed);
}

#[test]
fn derive_matches_fresh_freeze_over_long_chains_of_short_keys() {
    derive_chains(Shape::Short);
}

#[test]
fn derived_arenas_carry_no_garbage_after_a_thousand_derivations() {
    // Every key of a small key space is overwritten, split and
    // re-joined many times over; the superseded bytes must stay within
    // their bound after every derivation, and the arena's page must be
    // the size of a fresh freeze's at the end of the chain.
    let shape = Shape::Short;
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let mut model = Trie::new();
    let mut arena = FrozenTrie::new(Trie::new());
    for _ in 0..1_000 {
        let batch: Vec<(Vec<u8>, Vec<u8>)> = (0..1 + rng.gen_range(0..4usize))
            .map(|_| (shape.key(&mut rng), shape.value(&mut rng)))
            .collect();
        arena = arena
            .derive(batch.iter().map(|(k, v)| (k, v)))
            .expect("derives");
        assert_superseded_bounded(&arena);
        for (key, value) in batch {
            model.insert(key, value);
        }
    }
    let probes: Vec<Vec<u8>> = model.iter().map(|(k, _)| k).collect();
    assert_derived_is_fresh(&arena, &model, &probes);
}

/// Twin leaves: keys that diverge at the first nibble and share the
/// rest, holding the same ≥ 32-byte value, encode byte-identically.
fn twin_key(first: u8) -> Vec<u8> {
    let mut key = vec![first];
    key.extend_from_slice(&[0xab; 20]);
    key
}

fn derive_and_check(
    arena: &FrozenTrie,
    model: &mut Trie,
    upserts: &[(Vec<u8>, Vec<u8>)],
    probes: &[Vec<u8>],
) -> FrozenTrie {
    let derived = arena
        .derive(upserts.iter().map(|(k, v)| (k, v)))
        .expect("derives");
    for (key, value) in upserts {
        model.insert(key.clone(), value.clone());
    }
    assert_derived_is_fresh(&derived, model, probes);
    derived
}

#[test]
fn derive_breaks_and_recreates_the_canonical_twin() {
    let twin_value = vec![0xcd; 40];
    let (a, b, c) = (twin_key(0x10), twin_key(0x20), twin_key(0x30));
    let mut model: Trie = [&a, &b, &c]
        .into_iter()
        .map(|k| (k.clone(), twin_value.clone()))
        .collect();
    let probes = [a.clone(), b.clone(), c.clone()];
    let arena = FrozenTrie::new(model.clone());
    // Three twins, one witness: root + one leaf.
    assert_eq!(arena.prove_many(&probes).len(), 2);

    // `a` is the first of the three in arena order — their canonical
    // witness. Changing it must re-seat the other two on one witness.
    let broken = derive_and_check(&arena, &mut model, &[(a.clone(), vec![0x99; 40])], &probes);
    assert_eq!(broken.prove_many(&probes).len(), 3);
    // Re-creating it: the touched leaf joins the untouched twins' class.
    let rejoined = derive_and_check(
        &broken,
        &mut model,
        &[(a.clone(), twin_value.clone())],
        &probes,
    );
    assert_eq!(rejoined.prove_many(&probes).len(), 2);
    // Re-writing the canonical twin with the value it already has keeps
    // the class whole.
    let same = derive_and_check(
        &arena,
        &mut model,
        &[(a.clone(), twin_value.clone())],
        &probes,
    );
    assert_eq!(same.prove_many(&probes).len(), 2);
    // Breaking a non-canonical member leaves the others alone.
    let other = derive_and_check(&arena, &mut model, &[(c.clone(), vec![0x77; 40])], &probes);
    assert_eq!(other.prove_many(&probes).len(), 3);
}

#[test]
fn derive_adds_a_leaf_equal_to_two_existing_ones() {
    let twin_value = vec![0xcd; 40];
    let (a, b, new) = (twin_key(0x10), twin_key(0x20), twin_key(0x50));
    let mut model: Trie = [&a, &b]
        .into_iter()
        .map(|k| (k.clone(), twin_value.clone()))
        .collect();
    let arena = FrozenTrie::new(model.clone());
    let probes = [new.clone(), a.clone(), b.clone()];
    let grown = derive_and_check(
        &arena,
        &mut model,
        &[(new.clone(), twin_value.clone())],
        &probes,
    );
    assert_eq!(grown.prove_many(&probes).len(), 2);
    // Two leaves created by one derive that equal each other and no
    // untouched node: they share one witness too.
    let (x, y) = (twin_key(0x40), twin_key(0x60));
    let fresh_pair = [(x.clone(), vec![0x31; 40]), (y.clone(), vec![0x31; 40])];
    let probes = [y, x, a, b, new];
    let paired = derive_and_check(&grown, &mut model, &fresh_pair, &probes);
    assert_eq!(paired.prove_many(&probes).len(), 3);
}

#[test]
fn derive_handles_every_root_and_split_shape() {
    // From nothing; a root that is a leaf, then an extension, then a
    // branch; a value landing on a branch; a leaf absorbed as a branch
    // value; an extension split at its first, middle and last nibble.
    let steps: [&[(&[u8], &[u8])]; 8] = [
        &[(b"\x12\x34\x56", b"leaf-root")],
        &[(b"\x12\x34\x57", b"ext-root: shares five nibbles")],
        &[(
            b"\x12\x34",
            b"value on the branch under the extension, long enough to hash",
        )],
        &[(b"\x12\x34\x56\x78", b"the old leaf becomes a branch value")],
        &[(b"\x12\x35", b"split the extension at its last nibble")],
        &[(b"\x13", b"split it in the middle")],
        &[(b"\x22", b"split it at the first nibble: branch root")],
        &[
            (b"", b"the empty key: a value on the root branch"),
            (b"\x12", b"x"),
        ],
    ];
    let mut model = Trie::new();
    let mut arena = FrozenTrie::new(Trie::new());
    let mut probes: Vec<Vec<u8>> = vec![b"\x12\x99".to_vec(), b"\xff".to_vec()];
    for step in steps {
        let upserts: Vec<(Vec<u8>, Vec<u8>)> =
            step.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
        probes.extend(upserts.iter().map(|(k, _)| k.clone()));
        arena = derive_and_check(&arena, &mut model, &upserts, &probes);
    }
    // No upserts: the same arena.
    let same = arena
        .derive(std::iter::empty::<(&[u8], &[u8])>())
        .expect("nothing to decode");
    assert_eq!(same.to_bytes(), arena.to_bytes());
}

#[test]
#[should_panic(expected = "empty values")]
fn derive_rejects_empty_values_like_insert() {
    let _ = FrozenTrie::new(Trie::new()).derive([(b"key", b"")]);
}
