//! Stateless Merkle proof verification.
//!
//! This is the code path a PARP light client (and the on-chain Fraud
//! Detection Module) runs: given only a trusted root hash from a block
//! header and a list of RLP-encoded trie nodes, confirm what value — if
//! any — the trie binds to a key.
//!
//! The proof's nodes go into a [`NodeTable`] keyed by their hash. A walk
//! resolves each hash reference through it; the first walk to reach a
//! node checks it as strict RLP and records where its 2 or 17 items lie
//! in the proof bytes, and every later walk (the other keys of a
//! multiproof) reads those items back. Which item a key selects, and
//! whether *that* item is well-formed as a path, a child reference or a
//! value, is judged per walk — exactly what a walk over the full trie
//! would look at.

use crate::nibbles::{nibble_at, HpPath};
use crate::node::empty_root;
use parp_crypto::keccak256;
use parp_primitives::H256;
use parp_rlp::{view, ListView, View};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Errors surfaced by [`verify_proof`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProofError {
    /// A referenced node was not supplied in the proof.
    MissingNode(H256),
    /// A proof node was not valid RLP or not a valid trie node.
    MalformedNode,
    /// The proof contained nodes that the walk never referenced.
    UnusedNodes,
}

impl fmt::Display for ProofError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProofError::MissingNode(hash) => write!(f, "proof is missing node {hash}"),
            ProofError::MalformedNode => write!(f, "proof contains a malformed trie node"),
            ProofError::UnusedNodes => write!(f, "proof contains unrelated nodes"),
        }
    }
}

impl Error for ProofError {}

/// Verifies a Merkle proof against a trusted `root`.
///
/// Returns `Ok(Some(value))` when the proof shows `key` is bound to
/// `value`, and `Ok(None)` when the proof shows `key` is absent
/// (exclusion proof).
///
/// # Errors
///
/// Returns [`ProofError`] when the proof is incomplete, malformed, or
/// contains nodes the walk never touches (which would let a malicious
/// prover pad proofs arbitrarily).
///
/// # Examples
///
/// ```
/// use parp_trie::{Trie, verify_proof};
///
/// let mut trie = Trie::new();
/// trie.insert(b"key".to_vec(), b"value".to_vec());
/// let proof = trie.prove(b"key");
/// assert_eq!(
///     verify_proof(trie.root_hash(), b"key", &proof).unwrap(),
///     Some(b"value".to_vec()),
/// );
/// // The same trie proves absence of other keys:
/// let absent = trie.prove(b"other");
/// assert_eq!(verify_proof(trie.root_hash(), b"other", &absent).unwrap(), None);
/// ```
pub fn verify_proof<P: AsRef<[u8]>>(
    root: H256,
    key: &[u8],
    proof: &[P],
) -> Result<Option<Vec<u8>>, ProofError> {
    verify_proof_with(root, key, proof, hash_nodes(proof))
}

/// [`verify_proof`] for a caller that has already hashed the proof's
/// nodes: `hashes[i]` must be `keccak256(proof[i])`, computed by the
/// caller from these very bytes (a batch client hashes each node once,
/// for the response digest and for this walk). Returns exactly what
/// [`verify_proof`] returns on the same proof.
///
/// # Errors
///
/// As [`verify_proof`]; a `hashes` slice of the wrong length leaves
/// nodes out of the walk, which is reported as [`ProofError`], never a
/// panic.
pub fn verify_proof_hashed<P: AsRef<[u8]>>(
    root: H256,
    key: &[u8],
    proof: &[P],
    hashes: &[H256],
) -> Result<Option<Vec<u8>>, ProofError> {
    verify_proof_with(root, key, proof, hashes.iter().copied())
}

/// `keccak256` of each node, in order: what [`verify_proof`] and
/// [`crate::verify_many`] feed their pre-hashed cores.
pub(crate) fn hash_nodes<P: AsRef<[u8]>>(proof: &[P]) -> impl Iterator<Item = H256> + '_ {
    proof.iter().map(|node| keccak256(node.as_ref()))
}

fn verify_proof_with<P: AsRef<[u8]>>(
    root: H256,
    key: &[u8],
    proof: &[P],
    hashes: impl Iterator<Item = H256>,
) -> Result<Option<Vec<u8>>, ProofError> {
    if root == empty_root() {
        return if proof.is_empty() {
            Ok(None)
        } else {
            Err(ProofError::UnusedNodes)
        };
    }
    let mut nodes = NodeTable::new(proof, hashes);
    let value = nodes.walk(root, key)?;
    if !nodes.all_used() {
        return Err(ProofError::UnusedNodes);
    }
    Ok(value.map(<[u8]>::to_vec))
}

/// Items in a branch node: sixteen children and a value.
const BRANCH_ITEMS: usize = 17;

/// What a visit to a proof entry found there.
#[derive(Clone, Copy)]
enum Shape {
    /// No walk has reached the entry yet.
    Unvisited,
    /// Not strict RLP, or not a list of 2 or 17 items.
    Malformed,
    /// A node whose `len` (2 or 17) items sit at `slots[start..]`.
    Node { start: usize, len: usize },
}

struct Entry<'a> {
    bytes: &'a [u8],
    shape: Shape,
}

/// A proof's nodes keyed by hash: each hashed once, by the caller, each
/// decoded at most once (on the first walk that reaches it) into borrowed
/// item slots. An entry still [`Shape::Unvisited`] when the walks are
/// over is one no key used.
pub(crate) struct NodeTable<'a> {
    nodes: HashMap<H256, Entry<'a>>,
    /// Nodes in the proof, repeats included.
    proof_len: usize,
    /// Entries some walk has visited.
    visited: usize,
    /// Item slots of every decoded node, back to back.
    slots: Vec<View<'a>>,
}

impl<'a> NodeTable<'a> {
    /// Keys each node of `proof` by its hash in `hashes`. A node without
    /// a hash (a short `hashes`) is left out of the table but still
    /// counted, so the walk reports the proof as padded.
    pub(crate) fn new<P: AsRef<[u8]>>(proof: &'a [P], hashes: impl Iterator<Item = H256>) -> Self {
        let mut nodes = HashMap::with_capacity(proof.len());
        for (encoded, hash) in proof.iter().zip(hashes) {
            let bytes = encoded.as_ref();
            let shape = Shape::Unvisited;
            nodes.insert(hash, Entry { bytes, shape });
        }
        NodeTable {
            nodes,
            proof_len: proof.len(),
            visited: 0,
            slots: Vec::new(),
        }
    }

    /// Whether the proof repeats a node (padding by duplication: only one
    /// copy can ever be used).
    pub(crate) fn has_duplicates(&self) -> bool {
        self.nodes.len() != self.proof_len
    }

    /// Whether every node of the proof was reached by some walk.
    pub(crate) fn all_used(&self) -> bool {
        self.visited == self.proof_len
    }

    /// Resolves a hash reference to its node's items, decoding the entry
    /// on its first visit.
    fn resolve(&mut self, hash: H256) -> Result<&[View<'a>], ProofError> {
        let entry = self
            .nodes
            .get_mut(&hash)
            .ok_or(ProofError::MissingNode(hash))?;
        if let Shape::Unvisited = entry.shape {
            self.visited += 1;
            entry.shape = match view(entry.bytes) {
                Ok(View::List(list)) => push_items(&mut self.slots, list),
                _ => Shape::Malformed,
            };
        }
        let shape = entry.shape;
        self.items(shape)
    }

    fn items(&self, shape: Shape) -> Result<&[View<'a>], ProofError> {
        match shape {
            Shape::Node { start, len } => self.slots.get(start..start + len),
            Shape::Unvisited | Shape::Malformed => None,
        }
        .ok_or(ProofError::MalformedNode)
    }

    /// Walks one key down from `root`, marking every hash-referenced node
    /// it resolves as used. The value, if any, borrows from the proof.
    pub(crate) fn walk(&mut self, root: H256, key: &[u8]) -> Result<Option<&'a [u8]>, ProofError> {
        let mut remaining = KeyNibbles { key, pos: 0 };
        let mut hash = root;
        loop {
            let mut step = step_into(self.resolve(hash)?, &mut remaining)?;
            // Follow inline children (embedded lists) without a lookup;
            // their items only stay in `slots` for the step through them.
            hash = loop {
                match step {
                    Step::Done(value) => return Ok(value),
                    Step::Hash(child) => break child,
                    Step::Inline(list) => {
                        let kept = self.slots.len();
                        let shape = push_items(&mut self.slots, list);
                        step = step_into(self.items(shape)?, &mut remaining)?;
                        self.slots.truncate(kept);
                    }
                }
            };
        }
    }
}

/// Appends a node's items to `slots`; appends nothing and reports
/// [`Shape::Malformed`] unless there are exactly 2 (leaf or extension)
/// or 17 (branch).
fn push_items<'a>(slots: &mut Vec<View<'a>>, list: ListView<'a>) -> Shape {
    let start = slots.len();
    slots.extend(list.iter().take(BRANCH_ITEMS + 1));
    match slots.len() - start {
        len @ (2 | BRANCH_ITEMS) => Shape::Node { start, len },
        _ => {
            slots.truncate(start);
            Shape::Malformed
        }
    }
}

/// The part of a key a walk has not consumed yet, as nibbles read in
/// place from the key bytes.
struct KeyNibbles<'k> {
    key: &'k [u8],
    pos: usize,
}

impl KeyNibbles<'_> {
    fn len(&self) -> usize {
        self.key.len() * 2 - self.pos
    }

    fn pop_front(&mut self) -> Option<u8> {
        let nibble = nibble_at(self.key, self.pos)?;
        self.pos += 1;
        Some(nibble)
    }

    fn starts_with(&self, path: &HpPath<'_>) -> bool {
        path.len() <= self.len()
            && path
                .nibbles()
                .zip(self.pos..)
                .all(|(nibble, at)| nibble_at(self.key, at) == Some(nibble))
    }
}

/// Where one node sends the walk.
enum Step<'a> {
    /// The walk ends: the key's value, or proof of its absence.
    Done(Option<&'a [u8]>),
    /// Descend into the node with this hash.
    Hash(H256),
    /// Descend into a child embedded in its parent.
    Inline(ListView<'a>),
}

/// Advances the walk through one node, given its 2 or 17 items. Only the
/// item the key selects is inspected, as in a walk over the full trie.
fn step_into<'a>(
    items: &[View<'a>],
    remaining: &mut KeyNibbles<'_>,
) -> Result<Step<'a>, ProofError> {
    match items {
        [View::Bytes(encoded_path), target] => {
            let path = HpPath::parse(encoded_path).ok_or(ProofError::MalformedNode)?;
            if path.is_leaf {
                if path.len() != remaining.len() || !remaining.starts_with(&path) {
                    return Ok(Step::Done(None)); // diverged: key absent
                }
                return match target {
                    View::Bytes(value) => Ok(Step::Done(Some(value))),
                    View::List(_) => Err(ProofError::MalformedNode),
                };
            }
            // Extension node.
            if !remaining.starts_with(&path) {
                return Ok(Step::Done(None));
            }
            remaining.pos += path.len();
            child(target)?.ok_or(ProofError::MalformedNode)
        }
        [children @ .., value] if children.len() == BRANCH_ITEMS - 1 => {
            let Some(nibble) = remaining.pop_front() else {
                return match value {
                    View::Bytes([]) => Ok(Step::Done(None)),
                    View::Bytes(value) => Ok(Step::Done(Some(value))),
                    View::List(_) => Err(ProofError::MalformedNode),
                };
            };
            let target = children
                .get(usize::from(nibble))
                .ok_or(ProofError::MalformedNode)?;
            Ok(child(target)?.unwrap_or(Step::Done(None)))
        }
        _ => Err(ProofError::MalformedNode),
    }
}

/// Reads a child reference: `None` for an empty slot, a hash for a
/// 32-byte string, the embedded node for a list.
fn child<'a>(item: &View<'a>) -> Result<Option<Step<'a>>, ProofError> {
    match *item {
        View::Bytes([]) => Ok(None),
        View::Bytes(bytes) => H256::from_slice(bytes)
            .map(|hash| Some(Step::Hash(hash)))
            .ok_or(ProofError::MalformedNode),
        View::List(list) => Ok(Some(Step::Inline(list))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::Trie;

    fn sample_trie(n: u32) -> Trie {
        let mut trie = Trie::new();
        for i in 0..n {
            let key = keccak256(&i.to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), format!("value-{i}").into_bytes());
        }
        trie
    }

    #[test]
    fn inclusion_proofs_verify() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        for i in 0..100u32 {
            let key = keccak256(&i.to_be_bytes());
            let proof = trie.prove(key.as_bytes());
            let value = verify_proof(root, key.as_bytes(), &proof).unwrap();
            assert_eq!(value, Some(format!("value-{i}").into_bytes()));
        }
    }

    #[test]
    fn exclusion_proofs_verify() {
        let trie = sample_trie(50);
        let root = trie.root_hash();
        for i in 1000..1020u32 {
            let key = keccak256(&i.to_be_bytes());
            let proof = trie.prove(key.as_bytes());
            assert_eq!(verify_proof(root, key.as_bytes(), &proof).unwrap(), None);
        }
    }

    #[test]
    fn empty_trie_proves_absence() {
        let trie = Trie::new();
        assert_eq!(
            verify_proof::<Vec<u8>>(trie.root_hash(), b"any", &[]).unwrap(),
            None
        );
        // ...but padding nodes onto an empty-trie proof is rejected.
        assert_eq!(
            verify_proof(trie.root_hash(), b"any", &[vec![0x80]]),
            Err(ProofError::UnusedNodes)
        );
    }

    #[test]
    fn wrong_root_fails() {
        let trie = sample_trie(10);
        let key = keccak256(&0u32.to_be_bytes());
        let proof = trie.prove(key.as_bytes());
        let bogus_root = keccak256(b"bogus");
        assert!(matches!(
            verify_proof(bogus_root, key.as_bytes(), &proof),
            Err(ProofError::MissingNode(_))
        ));
    }

    #[test]
    fn truncated_proof_fails() {
        let trie = sample_trie(100);
        let key = keccak256(&7u32.to_be_bytes());
        let mut proof = trie.prove(key.as_bytes());
        assert!(proof.len() > 1, "need a multi-node proof");
        proof.pop();
        assert!(matches!(
            verify_proof(trie.root_hash(), key.as_bytes(), &proof),
            Err(ProofError::MissingNode(_))
        ));
    }

    #[test]
    fn tampered_value_fails() {
        let trie = sample_trie(100);
        let key = keccak256(&7u32.to_be_bytes());
        let mut proof = trie.prove(key.as_bytes());
        // Flip a byte in the terminal node: its hash no longer matches the
        // parent reference, so the node appears missing.
        let last = proof.len() - 1;
        let byte = proof[last].len() - 1;
        proof[last][byte] ^= 0x01;
        assert!(verify_proof(trie.root_hash(), key.as_bytes(), &proof).is_err());
    }

    #[test]
    fn padded_proof_rejected() {
        let trie = sample_trie(100);
        let key = keccak256(&3u32.to_be_bytes());
        let mut proof = trie.prove(key.as_bytes());
        // Append a legitimate node for a different key.
        let other = keccak256(&99u32.to_be_bytes());
        let mut other_proof = trie.prove(other.as_bytes());
        let extra = other_proof.pop().unwrap();
        if !proof.contains(&extra) {
            proof.push(extra);
            assert_eq!(
                verify_proof(trie.root_hash(), key.as_bytes(), &proof),
                Err(ProofError::UnusedNodes)
            );
        }
    }

    #[test]
    fn proof_for_wrong_key_is_exclusion_not_value() {
        let trie = sample_trie(100);
        let key_a = keccak256(&1u32.to_be_bytes());
        let key_b = keccak256(&2u32.to_be_bytes());
        let proof_a = trie.prove(key_a.as_bytes());
        // Verifying key B against key A's proof either fails (missing
        // nodes) or proves nothing about B's value; it must never return
        // B's actual value bound to A's proof path.
        if let Ok(Some(value)) = verify_proof(trie.root_hash(), key_b.as_bytes(), &proof_a) {
            assert_ne!(value, b"value-2".to_vec());
        }
    }

    #[test]
    fn short_key_proofs() {
        // Keys shorter than a hash exercise inline nodes (< 32 byte
        // encodings embedded directly in parents).
        let mut trie = Trie::new();
        for i in 0..30u8 {
            trie.insert(vec![i], vec![i, i]);
        }
        let root = trie.root_hash();
        for i in 0..30u8 {
            let proof = trie.prove(&[i]);
            assert_eq!(
                verify_proof(root, &[i], &proof).unwrap(),
                Some(vec![i, i]),
                "key {i}"
            );
        }
        let absent_proof = trie.prove(&[200]);
        assert_eq!(verify_proof(root, &[200], &absent_proof).unwrap(), None);
    }
}
