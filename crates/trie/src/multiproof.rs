//! Deduplicated Merkle multiproofs: one node set authenticating many keys.
//!
//! A batched PARP exchange proves N values against the same trusted root.
//! Serving N independent proofs repeats every shared branch node near the
//! root N times; a multiproof ships the *union* of the per-key proof
//! paths, so each shared node crosses the wire once. Verification walks
//! every key through the shared node set and — exactly like
//! [`crate::verify_proof`] — rejects node sets containing entries no walk
//! touches, so a malicious prover cannot pad proofs.

use crate::node::empty_root;
use crate::proof::{hash_nodes, NodeTable, ProofError};
use crate::trie::Trie;
use parp_crypto::keccak256;
use parp_primitives::H256;
use std::collections::HashSet;

impl Trie {
    /// Generates a deduplicated multiproof for `keys`: the union of every
    /// key's [`Trie::prove`] path, each distinct node appearing once, in
    /// first-touch order.
    ///
    /// Duplicate keys contribute their path once. The proof doubles as an
    /// exclusion proof for absent keys, as with single proofs.
    ///
    /// # Examples
    ///
    /// ```
    /// use parp_trie::{verify_many, Trie};
    ///
    /// let mut trie = Trie::new();
    /// for i in 0..50u32 {
    ///     trie.insert(i.to_be_bytes().to_vec(), format!("v{i}").into_bytes());
    /// }
    /// let keys = [1u32.to_be_bytes(), 2u32.to_be_bytes()];
    /// let proof = trie.prove_many(&keys);
    /// let values = verify_many(trie.root_hash(), &keys, &proof).unwrap();
    /// assert_eq!(values[0], Some(b"v1".to_vec()));
    /// assert_eq!(values[1], Some(b"v2".to_vec()));
    /// // The union is smaller than the concatenation of single proofs.
    /// let singles: usize = keys.iter().map(|k| trie.prove(k).len()).sum();
    /// assert!(proof.len() < singles);
    /// ```
    pub fn prove_many<I, K>(&self, keys: I) -> Vec<Vec<u8>>
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut seen: HashSet<H256> = HashSet::new();
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

/// Verifies a deduplicated multiproof against a trusted `root`, returning
/// one result per input key (in order): `Some(value)` for proven
/// inclusions, `None` for proven exclusions.
///
/// Accepts exactly the key/value sets whose per-key single proofs verify
/// against the same root: for every key, the returned result equals what
/// [`crate::verify_proof`] would return for that key's own proof.
///
/// # Errors
///
/// Returns [`ProofError`] when any key's walk hits a missing or malformed
/// node, when the proof repeats a node, or when it contains nodes no
/// key's walk touches (anti-padding, as with single proofs).
///
/// The proof parameter accepts any node representation (`Vec<u8>` from
/// the wire, `&[u8]` slices out of a [`crate::ProofBuf`]): verification
/// only ever reads the bytes.
pub fn verify_many<K: AsRef<[u8]>, P: AsRef<[u8]>>(
    root: H256,
    keys: &[K],
    proof: &[P],
) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
    verify_many_with(root, keys, proof, hash_nodes(proof))
}

/// [`verify_many`] for a caller that has already hashed the proof's
/// nodes: `hashes[i]` must be `keccak256(proof[i])`, computed by the
/// caller from these very bytes (a batch client hashes each multiproof
/// node once, for the response digest and for this walk). Returns
/// exactly what [`verify_many`] returns on the same proof.
///
/// # Errors
///
/// As [`verify_many`]; a `hashes` slice of the wrong length leaves
/// nodes out of the table, which is reported as
/// [`ProofError::UnusedNodes`], never a panic.
pub fn verify_many_hashed<K: AsRef<[u8]>, P: AsRef<[u8]>>(
    root: H256,
    keys: &[K],
    proof: &[P],
    hashes: &[H256],
) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
    verify_many_with(root, keys, proof, hashes.iter().copied())
}

fn verify_many_with<K: AsRef<[u8]>, P: AsRef<[u8]>>(
    root: H256,
    keys: &[K],
    proof: &[P],
    hashes: impl Iterator<Item = H256>,
) -> Result<Vec<Option<Vec<u8>>>, ProofError> {
    if root == empty_root() || keys.is_empty() {
        // Nothing can be proven: the whole node set would be unused.
        return if proof.is_empty() {
            Ok(keys.iter().map(|_| None).collect())
        } else {
            Err(ProofError::UnusedNodes)
        };
    }
    let mut nodes = NodeTable::new(proof, hashes);
    if nodes.has_duplicates() {
        // A repeated node is padding by duplication.
        return Err(ProofError::UnusedNodes);
    }
    // The shared upper nodes are hashed and decoded once for all keys;
    // values stay borrowed from the proof until every walk has passed.
    let values = keys
        .iter()
        .map(|key| nodes.walk(root, key.as_ref()))
        .collect::<Result<Vec<_>, _>>()?;
    if !nodes.all_used() {
        return Err(ProofError::UnusedNodes);
    }
    Ok(values
        .into_iter()
        .map(|value| value.map(<[u8]>::to_vec))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proof::verify_proof;

    fn sample_trie(n: u32) -> Trie {
        let mut trie = Trie::new();
        for i in 0..n {
            let key = keccak256(&i.to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), format!("value-{i}").into_bytes());
        }
        trie
    }

    fn sample_keys(indices: &[u32]) -> Vec<Vec<u8>> {
        indices
            .iter()
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect()
    }

    #[test]
    fn multiproof_matches_single_proofs() {
        let trie = sample_trie(200);
        let root = trie.root_hash();
        let keys = sample_keys(&[0, 7, 63, 120, 1000, 1001]); // last two absent
        let proof = trie.prove_many(&keys);
        let results = verify_many(root, &keys, &proof).unwrap();
        for (key, result) in keys.iter().zip(&results) {
            let single = trie.prove(key);
            assert_eq!(result, &verify_proof(root, key, &single).unwrap());
        }
        assert_eq!(results[4], None);
        assert_eq!(results[5], None);
    }

    #[test]
    fn multiproof_is_smaller_than_concatenated_singles() {
        let trie = sample_trie(500);
        let keys = sample_keys(&(0..64).collect::<Vec<_>>());
        let proof = trie.prove_many(&keys);
        let multi_bytes: usize = proof.iter().map(Vec::len).sum();
        let single_bytes: usize = keys
            .iter()
            .map(|k| trie.prove(k).iter().map(Vec::len).sum::<usize>())
            .sum();
        assert!(
            multi_bytes < single_bytes,
            "multiproof {multi_bytes} B not smaller than singles {single_bytes} B"
        );
        // At minimum, the root node is shared by all 64 walks.
        assert!(proof.len() < keys.len() * trie.prove(&keys[0]).len());
    }

    #[test]
    fn duplicate_keys_share_one_path() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        let mut keys = sample_keys(&[5, 5, 5, 9]);
        let proof = trie.prove_many(&keys);
        // Same node set as the distinct-key multiproof.
        let distinct = trie.prove_many(sample_keys(&[5, 9]));
        assert_eq!(proof, distinct);
        let results = verify_many(root, &keys, &proof).unwrap();
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0], Some(b"value-5".to_vec()));
        // Re-ordering duplicates still verifies.
        keys.swap(0, 3);
        assert!(verify_many(root, &keys, &proof).is_ok());
    }

    #[test]
    fn padded_multiproof_rejected() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        let keys = sample_keys(&[1, 2]);
        let mut proof = trie.prove_many(&keys);
        // Graft a node only key 50's path touches.
        let foreign = trie
            .prove(&sample_keys(&[50])[0])
            .pop()
            .expect("non-empty proof");
        if !proof.contains(&foreign) {
            proof.push(foreign);
            assert_eq!(
                verify_many(root, &keys, &proof),
                Err(ProofError::UnusedNodes)
            );
        }
    }

    #[test]
    fn duplicated_node_rejected() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        let keys = sample_keys(&[1, 2]);
        let mut proof = trie.prove_many(&keys);
        proof.push(proof[0].clone());
        assert_eq!(
            verify_many(root, &keys, &proof),
            Err(ProofError::UnusedNodes)
        );
    }

    #[test]
    fn truncated_multiproof_rejected() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        let keys = sample_keys(&[1, 2, 3]);
        let mut proof = trie.prove_many(&keys);
        proof.pop();
        assert!(matches!(
            verify_many(root, &keys, &proof),
            Err(ProofError::MissingNode(_))
        ));
    }

    #[test]
    fn empty_cases() {
        let trie = sample_trie(10);
        // No keys: only the empty proof verifies.
        assert_eq!(
            verify_many::<Vec<u8>, Vec<u8>>(trie.root_hash(), &[], &[]).unwrap(),
            Vec::<Option<Vec<u8>>>::new()
        );
        assert_eq!(
            verify_many::<Vec<u8>, Vec<u8>>(trie.root_hash(), &[], &[vec![0x80]]),
            Err(ProofError::UnusedNodes)
        );
        // Empty trie: every key is absent, the proof must be empty.
        let empty = Trie::new();
        let keys = sample_keys(&[1, 2]);
        assert_eq!(empty.prove_many(&keys), Vec::<Vec<u8>>::new());
        assert_eq!(
            verify_many::<_, Vec<u8>>(empty.root_hash(), &keys, &[]).unwrap(),
            vec![None, None]
        );
    }

    #[test]
    fn tampered_node_rejected() {
        let trie = sample_trie(100);
        let root = trie.root_hash();
        let keys = sample_keys(&[1, 2]);
        let mut proof = trie.prove_many(&keys);
        let last = proof.len() - 1;
        let byte = proof[last].len() - 1;
        proof[last][byte] ^= 0x01;
        assert!(verify_many(root, &keys, &proof).is_err());
    }
}
