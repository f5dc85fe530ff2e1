//! In-memory Merkle-Patricia-Trie nodes and their canonical RLP encoding.

use crate::nibbles::hp_encode;
use parp_crypto::keccak256;
use parp_primitives::H256;
use parp_rlp::{encode_bytes, encode_list};

/// A trie node. `Empty` is the absent node (RLP `0x80`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum Node {
    /// No node.
    #[default]
    Empty,
    /// Terminal node holding the remaining key path and a value.
    Leaf {
        /// Remaining nibble path.
        path: Vec<u8>,
        /// Stored value (non-empty).
        value: Vec<u8>,
    },
    /// Interior node compressing a shared nibble path.
    Extension {
        /// Shared nibble path (non-empty).
        path: Vec<u8>,
        /// The single child (never `Empty`).
        child: Box<Node>,
    },
    /// 16-way fan-out node with an optional value for keys ending here.
    Branch {
        /// One child per next nibble.
        children: Box<[Node; 16]>,
        /// Value when a key terminates at this node.
        value: Option<Vec<u8>>,
    },
}

impl Node {
    /// Creates an empty branch node.
    pub fn empty_branch() -> Node {
        Node::Branch {
            children: Box::new(std::array::from_fn(|_| Node::Empty)),
            value: None,
        }
    }

    /// Returns `true` for [`Node::Empty`].
    pub fn is_empty(&self) -> bool {
        matches!(self, Node::Empty)
    }

    /// Canonical RLP encoding of this node.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Node::Empty => encode_bytes(&[]),
            Node::Leaf { path, value } => {
                encode_list(&[encode_bytes(&hp_encode(path, true)), encode_bytes(value)])
            }
            Node::Extension { path, child } => {
                encode_list(&[encode_bytes(&hp_encode(path, false)), child.reference()])
            }
            Node::Branch { children, value } => {
                let mut items: Vec<Vec<u8>> = Vec::with_capacity(17);
                for child in children.iter() {
                    items.push(child.reference());
                }
                items.push(match value {
                    Some(v) => encode_bytes(v),
                    None => encode_bytes(&[]),
                });
                encode_list(&items)
            }
        }
    }

    /// The reference to this node as embedded in a parent: the raw encoding
    /// when shorter than 32 bytes, otherwise the RLP-wrapped Keccak hash.
    pub fn reference(&self) -> Vec<u8> {
        if self.is_empty() {
            return encode_bytes(&[]);
        }
        let encoded = self.encode();
        if encoded.len() < 32 {
            encoded
        } else {
            encode_bytes(keccak256(&encoded).as_bytes())
        }
    }

    /// The Keccak-256 hash of the node encoding (the "node hash").
    pub fn hash(&self) -> H256 {
        keccak256(&self.encode())
    }
}

/// `keccak256(rlp(""))`, spelled out: it is read on every empty-trie
/// check and every default account, so it is a constant, not a hash.
const EMPTY_ROOT: H256 = H256::new([
    0x56, 0xe8, 0x1f, 0x17, 0x1b, 0xcc, 0x55, 0xa6, 0xff, 0x83, 0x45, 0xe6, 0x92, 0xc0, 0xf8, 0x6e,
    0x5b, 0x48, 0xe0, 0x1b, 0x99, 0x6c, 0xad, 0xc0, 0x01, 0x62, 0x2f, 0xb5, 0xe3, 0x63, 0xb4, 0x21,
]);

/// Root hash of the empty trie: `keccak256(rlp(""))`.
pub fn empty_root() -> H256 {
    EMPTY_ROOT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_root_constant() {
        // The famous Ethereum empty-trie root, and what it is the hash of.
        assert_eq!(empty_root(), keccak256(&encode_bytes(&[])));
        assert_eq!(
            empty_root().to_string(),
            "0x56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
        );
    }

    #[test]
    fn small_nodes_inline() {
        let leaf = Node::Leaf {
            path: vec![1, 2],
            value: b"v".to_vec(),
        };
        let encoded = leaf.encode();
        assert!(encoded.len() < 32);
        assert_eq!(leaf.reference(), encoded);
    }

    #[test]
    fn large_nodes_hash() {
        let leaf = Node::Leaf {
            path: vec![1, 2, 3, 4],
            value: vec![0xaa; 64],
        };
        let reference = leaf.reference();
        assert_eq!(reference.len(), 33); // 0xa0 prefix + 32-byte hash
        assert_eq!(reference[0], 0xa0);
        assert_eq!(&reference[1..], leaf.hash().as_bytes());
    }

    #[test]
    fn branch_encoding_has_17_items() {
        let branch = Node::empty_branch();
        let decoded = parp_rlp::decode(&branch.encode()).unwrap();
        assert_eq!(decoded.as_list().unwrap().len(), 17);
    }

    #[test]
    fn empty_node_is_empty_string() {
        assert_eq!(Node::Empty.encode(), vec![0x80]);
    }
}
