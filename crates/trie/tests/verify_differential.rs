//! Differential and adversarial tests for proof verification.
//!
//! [`reference`] is the verifier as it stood before the decode-once
//! rewrite: every key walks from the root through a `HashMap` of node
//! bytes, fully decoding each node it meets into a `parp_rlp::Item` tree.
//! It lives here, as a test oracle only. The shipped verifier must
//! return exactly what it returns — the same values, the same
//! [`ProofError`] variant, the same hash inside `MissingNode` — on honest
//! proofs and on every way of damaging one. So must the pre-hashed cores
//! ([`verify_many_hashed`], [`verify_proof_hashed`]) handed the proof's
//! node hashes.

use parp_crypto::keccak256;
use parp_primitives::H256;
use parp_rlp::{encode_bytes, encode_list, Item};
use parp_trie::nibbles::hp_encode;
use parp_trie::{
    verify_many, verify_many_hashed, verify_proof, verify_proof_hashed, FrozenTrie, ProofError,
    Trie,
};
use proptest::prelude::*;

mod reference {
    use parp_crypto::keccak256;
    use parp_primitives::H256;
    use parp_rlp::{decode, Item};
    use parp_trie::nibbles::{bytes_to_nibbles, hp_decode};
    use parp_trie::{empty_root, ProofError};
    use std::collections::{HashMap, HashSet};

    pub fn verify_proof(
        root: H256,
        key: &[u8],
        proof: &[Vec<u8>],
    ) -> Result<Option<Vec<u8>>, ProofError> {
        if root == empty_root() {
            return if proof.is_empty() {
                Ok(None)
            } else {
                Err(ProofError::UnusedNodes)
            };
        }
        let nodes = index_nodes(proof);
        let mut used = HashSet::with_capacity(proof.len());
        let result = walk(root, key, &nodes, &mut used)?;
        if used.len() != proof.len() {
            return Err(ProofError::UnusedNodes);
        }
        Ok(result)
    }

    pub fn verify_many(
        root: H256,
        keys: &[Vec<u8>],
        proof: &[Vec<u8>],
    ) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
        if root == empty_root() || keys.is_empty() {
            return if proof.is_empty() {
                Ok(keys.iter().map(|_| None).collect())
            } else {
                Err(ProofError::UnusedNodes)
            };
        }
        let nodes = index_nodes(proof);
        if nodes.len() != proof.len() {
            return Err(ProofError::UnusedNodes);
        }
        let mut used = HashSet::with_capacity(nodes.len());
        let mut results = Vec::with_capacity(keys.len());
        for key in keys {
            results.push(walk(root, key, &nodes, &mut used)?);
        }
        if used.len() != nodes.len() {
            return Err(ProofError::UnusedNodes);
        }
        Ok(results)
    }

    fn index_nodes(proof: &[Vec<u8>]) -> HashMap<H256, &[u8]> {
        proof
            .iter()
            .map(|encoded| (keccak256(encoded), encoded.as_slice()))
            .collect()
    }

    fn walk(
        root: H256,
        key: &[u8],
        nodes: &HashMap<H256, &[u8]>,
        used: &mut HashSet<H256>,
    ) -> Result<Option<Vec<u8>>, ProofError> {
        let nibbles = bytes_to_nibbles(key);
        let mut remaining: &[u8] = &nibbles;
        let mut current_hash = root;
        let result = 'walk: loop {
            let encoded = nodes
                .get(&current_hash)
                .ok_or(ProofError::MissingNode(current_hash))?;
            used.insert(current_hash);
            let mut item = decode(encoded).map_err(|_| ProofError::MalformedNode)?;
            loop {
                let list = match &item {
                    Item::List(children) => children.as_slice(),
                    Item::Bytes(_) => return Err(ProofError::MalformedNode),
                };
                match list.len() {
                    2 => {
                        let encoded_path =
                            list[0].as_bytes().map_err(|_| ProofError::MalformedNode)?;
                        let (path, is_leaf) =
                            hp_decode(encoded_path).ok_or(ProofError::MalformedNode)?;
                        if is_leaf {
                            if path.as_slice() == remaining {
                                let value = list[1]
                                    .as_bytes()
                                    .map_err(|_| ProofError::MalformedNode)?
                                    .to_vec();
                                break 'walk Some(value);
                            }
                            break 'walk None;
                        }
                        if remaining.len() < path.len() || remaining[..path.len()] != path[..] {
                            break 'walk None;
                        }
                        remaining = &remaining[path.len()..];
                        match follow_child(&list[1])? {
                            ChildRef::Hash(hash) => {
                                current_hash = hash;
                                continue 'walk;
                            }
                            ChildRef::Inline(child) => {
                                item = child;
                                continue;
                            }
                            ChildRef::Empty => return Err(ProofError::MalformedNode),
                        }
                    }
                    17 => {
                        if remaining.is_empty() {
                            let value =
                                list[16].as_bytes().map_err(|_| ProofError::MalformedNode)?;
                            break 'walk if value.is_empty() {
                                None
                            } else {
                                Some(value.to_vec())
                            };
                        }
                        let idx = remaining[0] as usize;
                        remaining = &remaining[1..];
                        match follow_child(&list[idx])? {
                            ChildRef::Hash(hash) => {
                                current_hash = hash;
                                continue 'walk;
                            }
                            ChildRef::Inline(child) => {
                                item = child;
                                continue;
                            }
                            ChildRef::Empty => break 'walk None,
                        }
                    }
                    _ => return Err(ProofError::MalformedNode),
                }
            }
        };
        Ok(result)
    }

    enum ChildRef {
        Empty,
        Hash(H256),
        Inline(Item),
    }

    fn follow_child(item: &Item) -> Result<ChildRef, ProofError> {
        match item {
            Item::Bytes(bytes) if bytes.is_empty() => Ok(ChildRef::Empty),
            Item::Bytes(bytes) => {
                let hash = H256::from_slice(bytes).ok_or(ProofError::MalformedNode)?;
                Ok(ChildRef::Hash(hash))
            }
            Item::List(_) => Ok(ChildRef::Inline(item.clone())),
        }
    }
}

/// Asserts the shipped verifier and the reference agree on `verify_many`
/// over `keys`; returns the agreed verdict.
fn assert_many_agree(
    root: H256,
    keys: &[Vec<u8>],
    proof: &[Vec<u8>],
) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
    let expected = reference::verify_many(root, keys, proof);
    assert_eq!(
        verify_many(root, keys, proof),
        expected,
        "verify_many diverged"
    );
    // The borrowed-slice form `ProofBuf::as_slices` hands over.
    let slices: Vec<&[u8]> = proof.iter().map(Vec::as_slice).collect();
    assert_eq!(verify_many(root, keys, &slices), expected);
    // The core a batch client runs on hashes it computed once.
    assert_eq!(
        verify_many_hashed(root, keys, proof, &node_hashes(proof)),
        expected,
        "verify_many_hashed diverged"
    );
    expected
}

fn node_hashes(proof: &[Vec<u8>]) -> Vec<H256> {
    proof.iter().map(|node| keccak256(node)).collect()
}

/// [`assert_many_agree`], plus agreement on `verify_proof` of each key
/// against the same node set.
fn assert_agree(
    root: H256,
    keys: &[Vec<u8>],
    proof: &[Vec<u8>],
) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
    let expected = assert_many_agree(root, keys, proof);
    let hashes = node_hashes(proof);
    for key in keys {
        let single = reference::verify_proof(root, key, proof);
        assert_eq!(
            verify_proof(root, key, proof),
            single,
            "verify_proof diverged"
        );
        assert_eq!(
            verify_proof_hashed(root, key, proof, &hashes),
            single,
            "verify_proof_hashed diverged"
        );
    }
    expected
}

/// Replaces node `index` with `replacement` and re-seals the path above
/// it: every node (and the root) that referenced the old node by hash now
/// references the new one, so a walk still reaches the damaged node
/// instead of stopping at a hash mismatch.
fn reseal(
    proof: &[Vec<u8>],
    root: H256,
    index: usize,
    replacement: Vec<u8>,
) -> (Vec<Vec<u8>>, H256) {
    let mut proof = proof.to_vec();
    let mut root = root;
    let mut pending = vec![(keccak256(&proof[index]), keccak256(&replacement))];
    proof[index] = replacement;
    while let Some((old, new)) = pending.pop() {
        if old == new {
            continue;
        }
        if root == old {
            root = new;
        }
        for node in proof.iter_mut() {
            let before = keccak256(node);
            let mut changed = false;
            let mut at = 0;
            while at + 32 <= node.len() {
                if node[at..at + 32] == *old.as_bytes() {
                    node[at..at + 32].copy_from_slice(new.as_bytes());
                    changed = true;
                    at += 32;
                } else {
                    at += 1;
                }
            }
            if changed {
                pending.push((before, keccak256(node)));
            }
        }
    }
    (proof, root)
}

fn decode_node(node: &[u8]) -> Vec<Item> {
    match parp_rlp::decode(node).expect("honest node") {
        Item::List(items) => items,
        Item::Bytes(_) => panic!("honest node is a list"),
    }
}

/// The payload of an honest list node with its header stripped.
fn list_payload(node: &[u8]) -> &[u8] {
    let payload_len: usize = decode_node(node).iter().map(|i| i.encode().len()).sum();
    &node[node.len() - payload_len..]
}

/// Every structural way of damaging `node` the issue names. Each result
/// is a complete replacement encoding for the node.
fn damaged_variants(node: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    let items = decode_node(node);
    let encoded_items: Vec<Vec<u8>> = items.iter().map(Item::encode).collect();
    let mut variants = Vec::new();
    let mut flipped = node.to_vec();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    variants.push(("flipped byte", flipped));
    variants.push(("truncated", node[..node.len() - 1].to_vec()));
    let mut trailing = node.to_vec();
    trailing.push(0x80);
    variants.push(("trailing byte", trailing));
    // The same payload under a non-minimal list header: the long form
    // for a short payload, a leading zero in the length otherwise.
    let payload = list_payload(node);
    let mut long_header = match payload.len() {
        len @ 0..=55 => vec![0xf8, len as u8],
        len @ 56..=255 => vec![0xf9, 0x00, len as u8],
        len => vec![0xfa, 0x00, (len >> 8) as u8, len as u8],
    };
    long_header.extend_from_slice(payload);
    variants.push(("non-minimal list length", long_header));
    // The last item re-encoded with a non-minimal string header.
    if let Some(Item::Bytes(bytes)) = items.last() {
        if bytes.len() <= 55 {
            let mut bad = vec![0xb8, bytes.len() as u8];
            bad.extend_from_slice(bytes);
            let mut with_bad = encoded_items.clone();
            *with_bad.last_mut().unwrap() = bad;
            variants.push(("non-minimal string length", encode_list(&with_bad)));
        }
    }
    // The last item replaced by a wrapped single byte.
    let mut wrapped = encoded_items.clone();
    *wrapped.last_mut().unwrap() = vec![0x81, 0x05];
    variants.push(("wrapped single byte", encode_list(&wrapped)));
    // The last item replaced by a list (a leaf whose value is a list, an
    // extension whose child is an inline node, a branch whose value is a
    // list).
    let mut list_valued = encoded_items.clone();
    *list_valued.last_mut().unwrap() = encode_list(&[encode_bytes(b"x"), encode_bytes(b"y")]);
    variants.push(("last item is a list", encode_list(&list_valued)));
    // One item fewer and one item more (16 and 18 for a branch, 1 and 3
    // for a leaf or extension).
    variants.push((
        "one item fewer",
        encode_list(&encoded_items[..encoded_items.len() - 1]),
    ));
    let mut longer = encoded_items.clone();
    longer.push(vec![0x80]);
    variants.push(("one item more", encode_list(&longer)));
    // A child reference of the wrong width, and an invalid hex-prefix
    // flag on a two-item node.
    let mut short_ref = encoded_items.clone();
    short_ref[0] = encode_bytes(&[0xaa; 31]);
    variants.push(("first item 31 bytes", encode_list(&short_ref)));
    let mut bad_flag = encoded_items;
    bad_flag[0] = encode_bytes(&[0x40, 0x12]);
    variants.push(("first item bad hp flag", encode_list(&bad_flag)));
    // Not a list at all.
    variants.push(("byte string", encode_bytes(node)));
    variants
}

/// The damages that make a node malformed whichever item a walk selects
/// (the rest only matter to a walk through the damaged item, or — a
/// flipped value byte under a re-sealed root — are a valid proof of a
/// different trie).
const REJECTED_WHEN_REACHED: [&str; 8] = [
    "truncated",
    "trailing byte",
    "non-minimal list length",
    "non-minimal string length",
    "wrapped single byte",
    "one item fewer",
    "one item more",
    "byte string",
];

/// Runs every damage of every node (each one re-sealed so the walk
/// reaches it, and once un-sealed), plus the set-level manipulations, and
/// checks the two verifiers agree on all of them.
fn assert_agree_under_damage(trie: &Trie, keys: &[Vec<u8>], foreign_key: &[u8]) {
    let root = trie.root_hash();
    let proof = trie.prove_many(keys);
    assert_agree(root, keys, &proof).expect("honest multiproof verifies");
    if proof.is_empty() {
        return;
    }
    for index in 0..proof.len() {
        for (what, replacement) in damaged_variants(&proof[index]) {
            let (sealed, sealed_root) = reseal(&proof, root, index, replacement.clone());
            let verdict = assert_agree(sealed_root, keys, &sealed);
            if REJECTED_WHEN_REACHED.contains(&what) {
                assert!(verdict.is_err(), "{what} on node {index} was accepted");
            }
            let mut unsealed = proof.clone();
            unsealed[index] = replacement;
            assert!(assert_agree(root, keys, &unsealed).is_err(), "{what}");
        }
        let mut dropped = proof.clone();
        dropped.remove(index);
        assert!(assert_agree(root, keys, &dropped).is_err());
        let mut duplicated = proof.clone();
        duplicated.push(proof[index].clone());
        assert_eq!(
            assert_agree(root, keys, &duplicated),
            Err(ProofError::UnusedNodes)
        );
    }
    let mut reordered = proof.clone();
    reordered.reverse();
    assert_agree(root, keys, &reordered).expect("node order is free");
    reordered.rotate_left(proof.len() / 2);
    assert_agree(root, keys, &reordered).expect("node order is free");
    let mut padded = proof.clone();
    for node in trie.prove(foreign_key) {
        if !padded.contains(&node) {
            padded.push(node);
        }
    }
    if padded.len() > proof.len() {
        assert_eq!(
            assert_agree(root, keys, &padded),
            Err(ProofError::UnusedNodes)
        );
    }
    // A duplicate *and* a missing node: the multiproof reports the
    // duplicate first, the single proof the missing node first.
    if proof.len() > 1 {
        let mut both = proof.clone();
        both.pop();
        both.push(proof[0].clone());
        assert!(assert_agree(root, keys, &both).is_err());
    }
}

fn hashed_key(i: u32) -> Vec<u8> {
    keccak256(&i.to_be_bytes()).as_bytes().to_vec()
}

fn hashed_trie(n: u32) -> Trie {
    (0..n)
        .map(|i| (hashed_key(i), format!("value-{i}").into_bytes()))
        .collect()
}

#[test]
fn hashed_keys_agree_under_every_damage() {
    let trie = hashed_trie(300);
    // Present, absent and duplicate keys in one batch.
    let keys: Vec<Vec<u8>> = [3, 77, 3, 1_000, 299, 2_000, 77]
        .into_iter()
        .map(hashed_key)
        .collect();
    assert_agree_under_damage(&trie, &keys, &hashed_key(150));
    assert_agree_under_damage(&trie, &keys[..1], &hashed_key(150));
}

#[test]
fn short_keys_with_inline_nodes_agree_under_every_damage() {
    // One- and two-byte keys with short values: most nodes encode below
    // 32 bytes and sit inline in their parents.
    let mut trie = Trie::new();
    for i in 0..40u8 {
        trie.insert(vec![i], vec![i, i]);
        trie.insert(vec![i, i ^ 0x5a], vec![i]);
    }
    let keys: Vec<Vec<u8>> = vec![
        vec![1],
        vec![1, 1 ^ 0x5a],
        vec![39],
        vec![200],
        vec![1, 2],
        vec![],
        vec![1],
    ];
    assert_agree_under_damage(&trie, &keys, &[17, 17 ^ 0x5a]);
}

#[test]
fn extension_heavy_tries_agree_under_every_damage() {
    // Long shared prefixes over a two-letter alphabet: extension nodes at
    // several depths, branch values (one key a prefix of another).
    let mut trie = Trie::new();
    let prefix = [0xab, 0xcd, 0xef, 0x01, 0x23];
    for a in [0x11u8, 0xee] {
        for b in [0x11u8, 0xee] {
            for c in [0x11u8, 0xee] {
                let mut key = prefix.to_vec();
                key.extend_from_slice(&[a, b]);
                trie.insert(key.clone(), vec![a; 40]);
                key.push(c);
                trie.insert(key, vec![c; 3]);
            }
        }
    }
    let mut keys: Vec<Vec<u8>> = vec![
        [&prefix[..], &[0x11, 0xee]].concat(),
        [&prefix[..], &[0x11, 0xee, 0x11]].concat(),
        [&prefix[..], &[0xee, 0xee, 0xee]].concat(),
        prefix.to_vec(),
        [&prefix[..], &[0x11]].concat(),
        vec![0xab, 0xcd, 0x00],
        [&prefix[..], &[0x11, 0xee, 0x11, 0x07]].concat(),
    ];
    keys.push(keys[1].clone());
    assert_agree_under_damage(&trie, &keys, &[&prefix[..], &[0xee, 0x11, 0xee]].concat());
}

#[test]
fn ten_thousand_leaves_agree() {
    let trie = hashed_trie(10_000);
    let frozen = FrozenTrie::new(trie.clone());
    let root = frozen.root_hash();
    let keys: Vec<Vec<u8>> = (0..64u32)
        .map(|i| hashed_key(if i % 8 == 7 { 20_000 + i } else { i * 131 }))
        .collect();
    let proof = frozen.prove_many(&keys);
    let values = assert_agree(root, &keys, &proof).expect("honest multiproof verifies");
    for (key, value) in keys.iter().zip(&values) {
        assert_eq!(value.as_deref(), trie.get(key));
    }
    // Re-sealed damage at the root, one shared interior node and one leaf.
    for index in [0, 1, proof.len() - 1] {
        for (what, replacement) in damaged_variants(&proof[index]) {
            let (sealed, sealed_root) = reseal(&proof, root, index, replacement);
            let verdict = assert_many_agree(sealed_root, &keys, &sealed);
            if REJECTED_WHEN_REACHED.contains(&what) {
                assert!(verdict.is_err(), "{what} on node {index} was accepted");
            }
        }
    }
}

/// A hand-built two-level trie whose second level is an inline leaf, with
/// the leaf's value item supplied raw so it can be malformed while every
/// enclosing length stays consistent.
fn root_with_inline_leaf(raw_value: Vec<u8>) -> (H256, Vec<u8>) {
    let inline_leaf = encode_list(&[encode_bytes(&hp_encode(&[0x2], true)), raw_value]);
    let mut slots = vec![vec![0x80]; 17];
    slots[0x1] = inline_leaf;
    let root_node = encode_list(&slots);
    (keccak256(&root_node), root_node)
}

#[test]
fn malformed_items_inside_inline_children_are_rejected_alike() {
    let key = vec![0x12];
    let (root, node) = root_with_inline_leaf(encode_bytes(b"ok"));
    assert_eq!(
        assert_agree(root, std::slice::from_ref(&key), &[node]),
        Ok(vec![Some(b"ok".to_vec())])
    );
    let malformed: [(&str, Vec<u8>); 5] = [
        ("non-minimal long length", vec![0xb8, 0x02, b'o', b'k']),
        ("wrapped single byte", vec![0x81, 0x05]),
        ("leading zero in length", {
            let mut raw = vec![0xb9, 0x00, 0x38];
            raw.extend_from_slice(&[7u8; 56]);
            raw
        }),
        ("value is a list", encode_list(&[encode_bytes(b"ok")])),
        ("nested non-minimal", encode_list(&[vec![0x81, 0x05]])),
    ];
    for (what, raw) in malformed {
        let (root, node) = root_with_inline_leaf(raw);
        // The walk through slot 1 dies on the inline child...
        assert_eq!(
            assert_agree(
                root,
                std::slice::from_ref(&key),
                std::slice::from_ref(&node)
            ),
            Err(ProofError::MalformedNode),
            "{what}"
        );
        // ...and, except for the well-formed list value, so does a walk
        // that never looks at slot 1: the node is checked as a whole.
        let verdict = assert_agree(root, &[vec![0x52]], &[node]);
        if what == "value is a list" {
            assert_eq!(verdict, Ok(vec![None]), "{what}");
        } else {
            assert_eq!(verdict, Err(ProofError::MalformedNode), "{what}");
        }
    }
    // Inline children with 1, 3, 16 and 18 items.
    for count in [1usize, 3, 16, 18] {
        let mut slots = vec![vec![0x80]; 17];
        slots[0x1] = encode_list(&vec![vec![0x80]; count]);
        let node = encode_list(&slots);
        assert_eq!(
            assert_agree(keccak256(&node), std::slice::from_ref(&key), &[node]),
            Err(ProofError::MalformedNode),
            "{count}-item inline child"
        );
    }
}

#[test]
fn huge_item_counts_are_rejected_without_being_collected() {
    // A megabyte of empty strings under one list header: the verifier
    // looks at no more than 18 of them.
    let payload = vec![0x80u8; 1 << 20];
    let mut node = vec![0xfa, 0x10, 0x00, 0x00];
    node.extend_from_slice(&payload);
    let root = keccak256(&node);
    assert_eq!(
        verify_proof(root, b"key", std::slice::from_ref(&node)),
        Err(ProofError::MalformedNode)
    );
    assert_eq!(
        verify_many(root, &[b"key".to_vec(), b"other".to_vec()], &[node]),
        Err(ProofError::MalformedNode)
    );
}

fn arb_pairs() -> impl Strategy<Value = Vec<(Vec<u8>, Vec<u8>)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(prop_oneof![Just(0x11u8), Just(0x1e), any::<u8>()], 1..6),
            proptest::collection::vec(any::<u8>(), 1..40),
        ),
        1..40,
    )
}

proptest! {
    /// Random tries, random key batches, one random damage of one random
    /// node, re-sealed or not: the verifiers agree.
    #[test]
    fn random_damage_agrees(
        pairs in arb_pairs(),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..6), 0..6),
        pick in any::<prop::sample::Index>(),
        variant in any::<prop::sample::Index>(),
        seal in any::<bool>(),
    ) {
        let trie: Trie = pairs.iter().cloned().collect();
        let root = trie.root_hash();
        let mut keys: Vec<Vec<u8>> = pairs.iter().step_by(2).map(|(k, _)| k.clone()).collect();
        keys.extend(probes);
        let proof = trie.prove_many(&keys);
        prop_assert!(assert_agree(root, &keys, &proof).is_ok());
        let index = pick.index(proof.len());
        let variants = damaged_variants(&proof[index]);
        let (_, replacement) = variants[variant.index(variants.len())].clone();
        if seal {
            let (sealed, sealed_root) = reseal(&proof, root, index, replacement);
            let _ = assert_agree(sealed_root, &keys, &sealed);
        } else {
            let mut damaged = proof.clone();
            damaged[index] = replacement;
            prop_assert!(assert_agree(root, &keys, &damaged).is_err());
        }
    }

    /// Total-decoder sweep: arbitrary byte strings as proof nodes, the
    /// first of them made reachable from the root, never panic and are
    /// judged alike.
    #[test]
    fn arbitrary_bytes_as_proof_nodes_never_panic(
        nodes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..80), 1..5),
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..5), 1..4),
    ) {
        let root = keccak256(&nodes[0]);
        let _ = assert_agree(root, &keys, &nodes);
    }

    /// The same sweep biased towards almost-nodes: a list header in front
    /// of arbitrary bytes, so the walk gets past the first check.
    #[test]
    fn arbitrary_list_payloads_as_proof_nodes_never_panic(
        payload in proptest::collection::vec(
            prop_oneof![Just(0x80u8), Just(0x00), Just(0xc0), Just(0xa0), any::<u8>()],
            0..120,
        ),
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3), 1..4),
    ) {
        let mut node = Vec::new();
        parp_rlp::write_list_header(payload.len(), &mut node);
        node.extend_from_slice(&payload);
        let root = keccak256(&node);
        let _ = assert_agree(root, &keys, &[node]);
    }
}
