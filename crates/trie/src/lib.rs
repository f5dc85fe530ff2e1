//! A from-scratch Merkle Patricia Trie (MPT), byte-compatible with
//! Ethereum's state, transaction and receipt tries.
//!
//! PARP's integrity story rests on this structure: full nodes commit to
//! chain data through trie roots in block headers, serve Merkle proofs
//! alongside RPC responses, and light clients (plus the on-chain Fraud
//! Detection Module) verify those proofs statelessly with
//! [`verify_proof`].
//!
//! Verification ([`verify_proof`], [`verify_many`]) reads a proof from
//! the bytes it arrived in: every node is hashed once, decoded at most
//! once — into borrowed item slices, on the first walk that reaches it —
//! and a 64-key multiproof shares that work across all 64 walks. Nothing
//! is copied until the proven values are returned. A caller that needs
//! the node hashes for something else too — a batch client binds them
//! into the response digest — hashes once and hands them to
//! [`verify_many_hashed`] / [`verify_proof_hashed`], the cores both
//! entry points run.
//!
//! # Examples
//!
//! ```
//! use parp_trie::{Trie, verify_proof};
//!
//! let mut trie = Trie::new();
//! trie.insert(b"account-1".to_vec(), b"balance: 100".to_vec());
//! trie.insert(b"account-2".to_vec(), b"balance: 250".to_vec());
//!
//! let root = trie.root_hash();
//! let proof = trie.prove(b"account-2");
//! let verified = verify_proof(root, b"account-2", &proof)?;
//! assert_eq!(verified, Some(b"balance: 250".to_vec()));
//! # Ok::<(), parp_trie::ProofError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
mod frozen;
mod multiproof;
pub mod nibbles;
mod node;
mod proof;
mod proofbuf;
mod trie;

pub use frozen::FrozenTrie;
pub use multiproof::{verify_many, verify_many_hashed};
pub use node::{empty_root, Node};
pub use proof::{verify_proof, verify_proof_hashed, ProofError};
pub use proofbuf::ProofBuf;
pub use trie::{Iter, Trie};

/// The `(key, value)` pairs of a transaction-trie-style trie over
/// ordered values: key `i` is `rlp(i)`, as in Ethereum's transaction and
/// receipt tries.
///
/// # Examples
///
/// ```
/// use parp_trie::{ordered_pairs, FrozenTrie};
///
/// let txs: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 10]).collect();
/// let trie: FrozenTrie = ordered_pairs(&txs).collect();
/// assert_eq!(trie.get(&parp_rlp::encode_u64(2)), Some(txs[2].clone()));
/// ```
pub fn ordered_pairs<I>(values: I) -> impl Iterator<Item = (Vec<u8>, I::Item)>
where
    I: IntoIterator,
    I::Item: AsRef<[u8]>,
{
    (0u64..).map(parp_rlp::encode_u64).zip(values)
}

/// Builds the pointer [`Trie`] of [`ordered_pairs`].
///
/// # Examples
///
/// ```
/// let txs: Vec<Vec<u8>> = (0..3).map(|i| vec![i as u8; 10]).collect();
/// let trie = parp_trie::ordered_trie(txs.iter().map(|t| t.as_slice()));
/// assert_eq!(trie.len(), 3);
/// ```
pub fn ordered_trie<'a, I>(values: I) -> Trie
where
    I: IntoIterator<Item = &'a [u8]>,
{
    ordered_pairs(values)
        .map(|(key, value)| (key, value.to_vec()))
        .collect()
}
