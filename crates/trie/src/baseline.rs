//! The **retained pre-arena frozen-trie path**, frozen as a reference.
//!
//! This module is a byte-faithful copy of [`crate::FrozenTrie`] as it
//! stood *before* the arena flattening landed: a `HashMap` of node
//! encodings keyed by cloned nibble-prefix vectors, proof walks that
//! chase the boxed [`Node`] tree, per-node `clone()`s into every proof,
//! and multiproof deduplication that pays a fresh `keccak256` per
//! recorded node per key.
//!
//! It exists for two jobs and must not be used for anything else:
//!
//! * the `trie_hotpath` bench measures the arena path **against it**
//!   (the "pre-PR walk" denominator in `BENCH_trie.json`);
//! * the property tests assert the arena path is **byte-identical** to
//!   it on `prove`, `prove_many` and `root_hash`.
//!
//! Node encoding (`Node::encode` semantics) is shared with the live
//! path — the optimization changed where encodings live and how walks
//! find them, never what they are — which is what makes proof equality
//! exact.

use crate::nibbles::{bytes_to_nibbles, hp_encode};
use crate::node::{empty_root, Node};
use crate::trie::Trie;
use parp_crypto::keccak256;
use parp_primitives::H256;
use parp_rlp::{encode_bytes, encode_list};
use std::collections::HashMap;

/// The pre-arena [`crate::FrozenTrie`]: a [`Trie`] plus a `HashMap`
/// index of every node's encoding, keyed by consumed nibble prefix.
#[derive(Debug, Clone)]
pub struct FrozenTrie {
    trie: Trie,
    root: H256,
    /// Canonical encoding of each node, keyed by the nibble prefix a
    /// proof walk has consumed when it reaches the node.
    encodings: HashMap<Vec<u8>, Vec<u8>>,
}

impl FrozenTrie {
    /// Freezes `trie`, computing every node encoding bottom-up in one
    /// linear pass.
    pub fn new(trie: Trie) -> Self {
        let mut encodings = HashMap::new();
        let mut prefix = Vec::new();
        let root = match trie.root_node() {
            Node::Empty => empty_root(),
            node => {
                index_node(node, &mut prefix, &mut encodings);
                keccak256(&encodings[&Vec::new()])
            }
        };
        FrozenTrie {
            trie,
            root,
            encodings,
        }
    }

    /// The underlying trie.
    pub fn trie(&self) -> &Trie {
        &self.trie
    }

    /// Number of key/value pairs stored.
    pub fn len(&self) -> usize {
        self.trie.len()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.trie.is_empty()
    }

    /// The Merkle root, precomputed at freeze time.
    pub fn root_hash(&self) -> H256 {
        self.root
    }

    /// Merkle proof for `key`: byte-identical to [`Trie::prove`], with
    /// every node encoding looked up instead of recomputed.
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let nibbles = bytes_to_nibbles(key);
        let mut proof = Vec::new();
        let mut node = self.trie.root_node();
        let mut consumed = 0usize;
        let mut is_root = true;
        loop {
            if node.is_empty() {
                break;
            }
            let encoded = &self.encodings[&nibbles[..consumed]];
            if encoded.len() >= 32 || is_root {
                proof.push(encoded.clone());
            }
            is_root = false;
            match node {
                Node::Empty | Node::Leaf { .. } => break,
                Node::Extension { path, child } => {
                    let remaining = &nibbles[consumed..];
                    if remaining.len() < path.len() || &remaining[..path.len()] != path.as_slice() {
                        break;
                    }
                    consumed += path.len();
                    node = child;
                }
                Node::Branch { children, .. } => {
                    if consumed == nibbles.len() {
                        break;
                    }
                    let idx = nibbles[consumed] as usize;
                    consumed += 1;
                    node = &children[idx];
                }
            }
        }
        proof
    }

    /// Deduplicated multiproof for `keys`: byte-identical to
    /// [`Trie::prove_many`]. Deduplication re-hashes every recorded
    /// node — the cost the arena path removes by reading each node's
    /// hash off its parent's reference.
    pub fn prove_many<I, K>(&self, keys: I) -> Vec<Vec<u8>>
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut seen: std::collections::HashSet<H256> = std::collections::HashSet::new();
        let mut nodes = Vec::new();
        for key in keys {
            for node in self.prove(key.as_ref()) {
                if seen.insert(keccak256(&node)) {
                    nodes.push(node);
                }
            }
        }
        nodes
    }
}

impl From<Trie> for FrozenTrie {
    fn from(trie: Trie) -> Self {
        FrozenTrie::new(trie)
    }
}

/// Encodes `node` (reached after consuming `prefix` nibbles) from its
/// children's cached references, records it, and returns the node's
/// parent-embedded reference. Mirrors [`Node::encode`]/[`Node::reference`]
/// byte for byte, but linear over the whole trie instead of quadratic.
fn index_node(
    node: &Node,
    prefix: &mut Vec<u8>,
    encodings: &mut HashMap<Vec<u8>, Vec<u8>>,
) -> Vec<u8> {
    let encoded = match node {
        Node::Empty => return encode_bytes(&[]),
        Node::Leaf { path, value } => {
            encode_list(&[encode_bytes(&hp_encode(path, true)), encode_bytes(value)])
        }
        Node::Extension { path, child } => {
            let base = prefix.len();
            prefix.extend_from_slice(path);
            let child_ref = index_node(child, prefix, encodings);
            prefix.truncate(base);
            encode_list(&[encode_bytes(&hp_encode(path, false)), child_ref])
        }
        Node::Branch { children, value } => {
            let mut items: Vec<Vec<u8>> = Vec::with_capacity(17);
            for (i, child) in children.iter().enumerate() {
                prefix.push(i as u8);
                let child_ref = index_node(child, prefix, encodings);
                prefix.pop();
                items.push(child_ref);
            }
            items.push(match value {
                Some(v) => encode_bytes(v),
                None => encode_bytes(&[]),
            });
            encode_list(&items)
        }
    };
    let reference = if encoded.len() < 32 {
        encoded.clone()
    } else {
        encode_bytes(keccak256(&encoded).as_bytes())
    };
    encodings.insert(prefix.clone(), encoded);
    reference
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trie(n: u32) -> Trie {
        let mut trie = Trie::new();
        for i in 0..n {
            let key = keccak256(&i.to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), format!("value-{i}").into_bytes());
        }
        trie
    }

    #[test]
    fn baseline_matches_trie_walk() {
        let trie = sample_trie(300);
        let frozen = FrozenTrie::new(trie);
        assert_eq!(frozen.root_hash(), frozen.trie().root_hash());
        for i in [0u32, 7, 123, 299, 5000] {
            // 5000 is absent: exclusion proofs must match too.
            let key = keccak256(&i.to_be_bytes());
            assert_eq!(
                frozen.prove(key.as_bytes()),
                frozen.trie().prove(key.as_bytes())
            );
        }
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        assert_eq!(frozen.prove_many(&keys), frozen.trie().prove_many(&keys));
    }

    #[test]
    fn baseline_empty_trie() {
        let empty = FrozenTrie::new(Trie::new());
        assert!(empty.is_empty());
        assert_eq!(empty.root_hash(), empty_root());
        assert!(empty.prove(b"anything").is_empty());
    }
}
