//! The in-memory Merkle Patricia Trie with proof generation.

use crate::nibbles::{bytes_to_nibbles, common_prefix_len};
use crate::node::{empty_root, Node};
use parp_primitives::H256;

/// A Merkle Patricia Trie mapping byte keys to byte values.
///
/// Semantically equivalent to Ethereum's state/transaction/receipt tries:
/// identical key/value contents produce identical root hashes, so Merkle
/// proofs generated here verify against headers exactly like proofs served
/// by a real node.
///
/// # Examples
///
/// ```
/// use parp_trie::Trie;
///
/// let mut trie = Trie::new();
/// trie.insert(b"dog".to_vec(), b"puppy".to_vec());
/// assert_eq!(trie.get(b"dog"), Some(&b"puppy"[..]));
///
/// let proof = trie.prove(b"dog");
/// let value = parp_trie::verify_proof(trie.root_hash(), b"dog", &proof).unwrap();
/// assert_eq!(value, Some(b"puppy".to_vec()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trie {
    root: Node,
    len: usize,
}

impl Trie {
    /// Creates an empty trie.
    pub fn new() -> Self {
        Trie {
            root: Node::Empty,
            len: 0,
        }
    }

    /// Number of key/value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The Merkle root hash of the current contents.
    pub fn root_hash(&self) -> H256 {
        match &self.root {
            Node::Empty => empty_root(),
            node => node.hash(),
        }
    }

    /// Inserts or updates a key. Empty values are not allowed (they encode
    /// ambiguously in proofs); use [`Trie::remove`] instead.
    ///
    /// Returns the previous value if the key was present.
    ///
    /// # Panics
    ///
    /// Panics when `value` is empty.
    pub fn insert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Option<Vec<u8>> {
        assert!(!value.is_empty(), "empty values are not representable");
        let nibbles = bytes_to_nibbles(&key);
        let root = std::mem::take(&mut self.root);
        let (new_root, old) = Self::insert_node(root, &nibbles, value);
        self.root = new_root;
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Looks up a key.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let nibbles = bytes_to_nibbles(key);
        Self::get_node(&self.root, &nibbles)
    }

    /// Removes a key, returning its value if present.
    pub fn remove(&mut self, key: &[u8]) -> Option<Vec<u8>> {
        let nibbles = bytes_to_nibbles(key);
        let root = std::mem::take(&mut self.root);
        let (new_root, removed) = Self::remove_node(root, &nibbles);
        self.root = new_root;
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Generates a Merkle proof for `key`: the ordered list of RLP node
    /// encodings on the path from the root towards the key.
    ///
    /// The proof doubles as an *exclusion* proof when the key is absent;
    /// [`crate::verify_proof`] returns `None` in that case.
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let nibbles = bytes_to_nibbles(key);
        let mut proof = Vec::new();
        let mut node = &self.root;
        let mut remaining: &[u8] = &nibbles;
        loop {
            if node.is_empty() {
                break;
            }
            // Record every node that lives behind a hash reference (plus the
            // root, which verifiers resolve by hash as well).
            let encoded = node.encode();
            if encoded.len() >= 32 || std::ptr::eq(node, &self.root) {
                proof.push(encoded);
            }
            match node {
                Node::Empty => break,
                Node::Leaf { .. } => break,
                Node::Extension { path, child } => {
                    if remaining.len() < path.len() || &remaining[..path.len()] != path.as_slice() {
                        break;
                    }
                    remaining = &remaining[path.len()..];
                    node = child;
                }
                Node::Branch { children, .. } => {
                    if remaining.is_empty() {
                        break;
                    }
                    let idx = remaining[0] as usize;
                    remaining = &remaining[1..];
                    node = &children[idx];
                }
            }
        }
        proof
    }

    /// Iterates over all key/value pairs in lexicographic key order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            stack: vec![(&self.root, Vec::new())],
        }
    }

    /// The root node (for the retained [`crate::baseline`]'s index pass).
    pub(crate) fn root_node(&self) -> &Node {
        &self.root
    }

    fn insert_node(node: Node, path: &[u8], value: Vec<u8>) -> (Node, Option<Vec<u8>>) {
        match node {
            Node::Empty => (
                Node::Leaf {
                    path: path.to_vec(),
                    value,
                },
                None,
            ),
            Node::Leaf {
                path: leaf_path,
                value: leaf_value,
            } => {
                let shared = common_prefix_len(&leaf_path, path);
                if shared == leaf_path.len() && shared == path.len() {
                    // Same key: replace.
                    return (
                        Node::Leaf {
                            path: leaf_path,
                            value,
                        },
                        Some(leaf_value),
                    );
                }
                // Split into a branch (optionally under an extension).
                let mut branch_children: [Node; 16] = std::array::from_fn(|_| Node::Empty);
                let mut branch_value = None;
                if shared == leaf_path.len() {
                    branch_value = Some(leaf_value);
                } else {
                    let idx = leaf_path[shared] as usize;
                    branch_children[idx] = Node::Leaf {
                        path: leaf_path[shared + 1..].to_vec(),
                        value: leaf_value,
                    };
                }
                if shared == path.len() {
                    branch_value = Some(value);
                } else {
                    let idx = path[shared] as usize;
                    branch_children[idx] = Node::Leaf {
                        path: path[shared + 1..].to_vec(),
                        value,
                    };
                }
                let branch = Node::Branch {
                    children: Box::new(branch_children),
                    value: branch_value,
                };
                let result = if shared == 0 {
                    branch
                } else {
                    Node::Extension {
                        path: path[..shared].to_vec(),
                        child: Box::new(branch),
                    }
                };
                (result, None)
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                let shared = common_prefix_len(&ext_path, path);
                if shared == ext_path.len() {
                    let (new_child, old) = Self::insert_node(*child, &path[shared..], value);
                    return (
                        Node::Extension {
                            path: ext_path,
                            child: Box::new(new_child),
                        },
                        old,
                    );
                }
                // Split the extension.
                let mut branch_children: [Node; 16] = std::array::from_fn(|_| Node::Empty);
                let mut branch_value = None;
                // Remainder of the old extension.
                let ext_idx = ext_path[shared] as usize;
                let ext_rest = &ext_path[shared + 1..];
                branch_children[ext_idx] = if ext_rest.is_empty() {
                    *child
                } else {
                    Node::Extension {
                        path: ext_rest.to_vec(),
                        child,
                    }
                };
                // The new key.
                if shared == path.len() {
                    branch_value = Some(value);
                } else {
                    let idx = path[shared] as usize;
                    branch_children[idx] = Node::Leaf {
                        path: path[shared + 1..].to_vec(),
                        value,
                    };
                }
                let branch = Node::Branch {
                    children: Box::new(branch_children),
                    value: branch_value,
                };
                let result = if shared == 0 {
                    branch
                } else {
                    Node::Extension {
                        path: path[..shared].to_vec(),
                        child: Box::new(branch),
                    }
                };
                (result, None)
            }
            Node::Branch {
                mut children,
                value: branch_value,
            } => {
                if path.is_empty() {
                    return (
                        Node::Branch {
                            children,
                            value: Some(value),
                        },
                        branch_value,
                    );
                }
                let idx = path[0] as usize;
                let child = std::mem::take(&mut children[idx]);
                let (new_child, old) = Self::insert_node(child, &path[1..], value);
                children[idx] = new_child;
                (
                    Node::Branch {
                        children,
                        value: branch_value,
                    },
                    old,
                )
            }
        }
    }

    fn get_node<'a>(node: &'a Node, path: &[u8]) -> Option<&'a [u8]> {
        match node {
            Node::Empty => None,
            Node::Leaf {
                path: leaf_path,
                value,
            } => (leaf_path.as_slice() == path).then_some(value.as_slice()),
            Node::Extension {
                path: ext_path,
                child,
            } => {
                if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice() {
                    None
                } else {
                    Self::get_node(child, &path[ext_path.len()..])
                }
            }
            Node::Branch { children, value } => {
                if path.is_empty() {
                    value.as_deref()
                } else {
                    Self::get_node(&children[path[0] as usize], &path[1..])
                }
            }
        }
    }

    fn remove_node(node: Node, path: &[u8]) -> (Node, Option<Vec<u8>>) {
        match node {
            Node::Empty => (Node::Empty, None),
            Node::Leaf {
                path: leaf_path,
                value,
            } => {
                if leaf_path.as_slice() == path {
                    (Node::Empty, Some(value))
                } else {
                    (
                        Node::Leaf {
                            path: leaf_path,
                            value,
                        },
                        None,
                    )
                }
            }
            Node::Extension {
                path: ext_path,
                child,
            } => {
                if path.len() < ext_path.len() || &path[..ext_path.len()] != ext_path.as_slice() {
                    return (
                        Node::Extension {
                            path: ext_path,
                            child,
                        },
                        None,
                    );
                }
                let (new_child, removed) = Self::remove_node(*child, &path[ext_path.len()..]);
                if removed.is_none() {
                    return (
                        Node::Extension {
                            path: ext_path,
                            child: Box::new(new_child),
                        },
                        None,
                    );
                }
                (Self::merge_extension(ext_path, new_child), removed)
            }
            Node::Branch {
                mut children,
                value,
            } => {
                if path.is_empty() {
                    if value.is_none() {
                        return (Node::Branch { children, value }, None);
                    }
                    let node = Self::normalize_branch(children, None);
                    return (node, value);
                }
                let idx = path[0] as usize;
                let child = std::mem::take(&mut children[idx]);
                let (new_child, removed) = Self::remove_node(child, &path[1..]);
                children[idx] = new_child;
                if removed.is_none() {
                    return (Node::Branch { children, value }, None);
                }
                (Self::normalize_branch(children, value), removed)
            }
        }
    }

    /// Re-attaches an extension path to whatever its child collapsed into.
    fn merge_extension(ext_path: Vec<u8>, child: Node) -> Node {
        match child {
            Node::Empty => Node::Empty,
            Node::Leaf { path, value } => {
                let mut full = ext_path;
                full.extend_from_slice(&path);
                Node::Leaf { path: full, value }
            }
            Node::Extension { path, child } => {
                let mut full = ext_path;
                full.extend_from_slice(&path);
                Node::Extension { path: full, child }
            }
            branch @ Node::Branch { .. } => Node::Extension {
                path: ext_path,
                child: Box::new(branch),
            },
        }
    }

    /// Collapses a branch that may have become degenerate after a removal.
    fn normalize_branch(children: Box<[Node; 16]>, value: Option<Vec<u8>>) -> Node {
        let occupied: Vec<usize> = children
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_empty())
            .map(|(i, _)| i)
            .collect();
        match (occupied.len(), &value) {
            (0, None) => Node::Empty,
            (0, Some(_)) => Node::Leaf {
                path: Vec::new(),
                value: value.expect("matched Some"),
            },
            (1, None) => {
                let idx = occupied[0];
                let mut children = children;
                let child = std::mem::take(&mut children[idx]);
                Self::merge_extension(vec![idx as u8], child)
            }
            _ => Node::Branch { children, value },
        }
    }
}

impl FromIterator<(Vec<u8>, Vec<u8>)> for Trie {
    fn from_iter<I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>>(iter: I) -> Self {
        let mut trie = Trie::new();
        for (k, v) in iter {
            trie.insert(k, v);
        }
        trie
    }
}

impl Extend<(Vec<u8>, Vec<u8>)> for Trie {
    fn extend<I: IntoIterator<Item = (Vec<u8>, Vec<u8>)>>(&mut self, iter: I) {
        for (k, v) in iter {
            self.insert(k, v);
        }
    }
}

/// Iterator over `(key, value)` pairs; see [`Trie::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    /// Nodes still to visit, with the nibble path leading to them.
    stack: Vec<(&'a Node, Vec<u8>)>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (Vec<u8>, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some((node, prefix)) = self.stack.pop() {
            match node {
                Node::Empty => {}
                Node::Leaf { path, value } => {
                    let mut nibbles = prefix;
                    nibbles.extend_from_slice(path);
                    return Some((nibbles_to_bytes(&nibbles), value));
                }
                Node::Extension { path, child } => {
                    let mut nibbles = prefix;
                    nibbles.extend_from_slice(path);
                    self.stack.push((child, nibbles));
                }
                Node::Branch { children, value } => {
                    // Push children in reverse so nibble 0 pops first.
                    for (i, child) in children.iter().enumerate().rev() {
                        if !child.is_empty() {
                            let mut nibbles = prefix.clone();
                            nibbles.push(i as u8);
                            self.stack.push((child, nibbles));
                        }
                    }
                    if let Some(v) = value {
                        return Some((nibbles_to_bytes(&prefix), v));
                    }
                }
            }
        }
        None
    }
}

fn nibbles_to_bytes(nibbles: &[u8]) -> Vec<u8> {
    debug_assert!(nibbles.len().is_multiple_of(2), "keys are whole bytes");
    nibbles
        .chunks_exact(2)
        .map(|pair| (pair[0] << 4) | pair[1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn empty_trie_root() {
        assert_eq!(
            Trie::new().root_hash().to_string(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
    }

    #[test]
    fn single_entry_known_root() {
        // Computed with the canonical MPT rules: root = keccak(rlp([hp, v])).
        let mut trie = Trie::new();
        trie.insert(b"dog".to_vec(), b"puppy".to_vec());
        let leaf = Node::Leaf {
            path: bytes_to_nibbles(b"dog"),
            value: b"puppy".to_vec(),
        };
        assert_eq!(trie.root_hash(), leaf.hash());
    }

    #[test]
    fn insert_get_update() {
        let mut trie = Trie::new();
        assert_eq!(trie.insert(b"a".to_vec(), b"1".to_vec()), None);
        assert_eq!(
            trie.insert(b"a".to_vec(), b"2".to_vec()),
            Some(b"1".to_vec())
        );
        assert_eq!(trie.get(b"a"), Some(&b"2"[..]));
        assert_eq!(trie.len(), 1);
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let pairs: Vec<(Vec<u8>, Vec<u8>)> = vec![
            (b"do".to_vec(), b"verb".to_vec()),
            (b"dog".to_vec(), b"puppy".to_vec()),
            (b"doge".to_vec(), b"coin".to_vec()),
            (b"horse".to_vec(), b"stallion".to_vec()),
        ];
        let forward: Trie = pairs.clone().into_iter().collect();
        let backward: Trie = pairs.into_iter().rev().collect();
        assert_eq!(forward.root_hash(), backward.root_hash());
    }

    #[test]
    fn matches_reference_root_for_eth_example() {
        // The {do, dog, doge, horse} example appears in many MPT writeups;
        // its structure exercises extension splits and branch values.
        let mut trie = Trie::new();
        trie.insert(b"do".to_vec(), b"verb".to_vec());
        trie.insert(b"dog".to_vec(), b"puppy".to_vec());
        trie.insert(b"doge".to_vec(), b"coin".to_vec());
        trie.insert(b"horse".to_vec(), b"stallion".to_vec());
        assert_eq!(
            trie.root_hash().to_string(),
            "0x5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
        );
    }

    #[test]
    fn remove_restores_previous_root() {
        let mut trie = Trie::new();
        trie.insert(b"do".to_vec(), b"verb".to_vec());
        trie.insert(b"dog".to_vec(), b"puppy".to_vec());
        let snapshot = trie.root_hash();
        trie.insert(b"doge".to_vec(), b"coin".to_vec());
        assert_ne!(trie.root_hash(), snapshot);
        assert_eq!(trie.remove(b"doge"), Some(b"coin".to_vec()));
        assert_eq!(trie.root_hash(), snapshot);
        assert_eq!(trie.remove(b"missing"), None);
    }

    #[test]
    fn remove_everything_returns_empty_root() {
        let keys: Vec<Vec<u8>> = (0u32..50).map(|i| i.to_be_bytes().to_vec()).collect();
        let mut trie = Trie::new();
        for key in &keys {
            trie.insert(key.clone(), b"value".to_vec());
        }
        for key in &keys {
            assert!(trie.remove(key).is_some());
        }
        assert!(trie.is_empty());
        assert_eq!(trie.root_hash(), empty_root());
    }

    #[test]
    fn model_check_against_btreemap() {
        // Deterministic pseudo-random workload compared against a model.
        let mut model = BTreeMap::new();
        let mut trie = Trie::new();
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed
        };
        for _ in 0..500 {
            let r = next();
            let key = (r % 64).to_be_bytes().to_vec();
            match r % 3 {
                0 | 1 => {
                    let value = r.to_be_bytes().to_vec();
                    assert_eq!(
                        trie.insert(key.clone(), value.clone()),
                        model.insert(key, value)
                    );
                }
                _ => {
                    assert_eq!(trie.remove(&key), model.remove(&key));
                }
            }
            assert_eq!(trie.len(), model.len());
        }
        for (k, v) in &model {
            assert_eq!(trie.get(k), Some(v.as_slice()));
        }
    }

    #[test]
    fn iter_yields_sorted_pairs() {
        let mut trie = Trie::new();
        let mut keys: Vec<Vec<u8>> = (0u16..40)
            .map(|i| (i * 37).to_be_bytes().to_vec())
            .collect();
        for key in &keys {
            trie.insert(key.clone(), key.clone());
        }
        keys.sort();
        let collected: Vec<Vec<u8>> = trie.iter().map(|(k, _)| k).collect();
        assert_eq!(collected, keys);
    }

    #[test]
    #[should_panic(expected = "empty values")]
    fn empty_value_panics() {
        Trie::new().insert(b"k".to_vec(), Vec::new());
    }
}
