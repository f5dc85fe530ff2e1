//! A flat, reusable proof container: many node encodings in one
//! contiguous allocation, each with its hash.
//!
//! The serving path materializes a multiproof per batch; shipping it as
//! `Vec<Vec<u8>>` costs one heap allocation per node, every batch. A
//! [`ProofBuf`] instead appends every node into a single byte buffer and
//! records the node boundaries, so a warm serving loop reuses the same
//! two allocations across batches ([`ProofBuf::clear`] keeps capacity).
//! Conversion to the wire's `Vec<Vec<u8>>` shape happens exactly once,
//! at the envelope boundary, via [`ProofBuf::to_vecs`].
//!
//! Beside each node's end offset sits `keccak256` of the node: the batch
//! response digest binds proof nodes by hash, and a multiproof walk
//! already holds each node's hash — it is the 32-byte reference in the
//! node's parent, or the root hash — so the server never hashes a proof
//! node's bytes a second time ([`crate::FrozenTrie::multiproof_into`]).

use parp_crypto::keccak256;
use parp_primitives::H256;

/// Where one node ends in [`ProofBuf`]'s bytes, and its hash. Kept in one
/// vector so the buffer stays two allocations and its struct two `Vec`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeEnd {
    end: usize,
    hash: H256,
}

/// An ordered sequence of proof-node encodings stored back to back in
/// one buffer, each with `keccak256` of its bytes.
///
/// # Examples
///
/// ```
/// use parp_trie::ProofBuf;
///
/// let mut buf = ProofBuf::new();
/// buf.push(b"node-1");
/// buf.push(b"node-2");
/// assert_eq!(buf.len(), 2);
/// assert_eq!(buf.get(1), Some(b"node-2".as_slice()));
/// assert_eq!(buf.hashes().nth(1), Some(parp_crypto::keccak256(b"node-2")));
/// assert_eq!(buf.to_vecs(), vec![b"node-1".to_vec(), b"node-2".to_vec()]);
/// buf.clear(); // keeps capacity for the next batch
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofBuf {
    bytes: Vec<u8>,
    /// Per node: its end offset in `bytes` — node `i` spans
    /// `ends[i-1].end..ends[i].end` (with `ends[-1]` read as 0) — and
    /// `keccak256` of those bytes.
    ends: Vec<NodeEnd>,
}

impl ProofBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one node encoding, hashing it.
    pub fn push(&mut self, node: &[u8]) {
        self.push_hashed(node, keccak256(node));
    }

    /// Appends one node encoding whose hash the caller already holds.
    /// `hash` must be `keccak256(node)`: [`ProofBuf::hash`] reports it as
    /// such.
    pub(crate) fn push_hashed(&mut self, node: &[u8], hash: H256) {
        self.bytes.extend_from_slice(node);
        let end = self.bytes.len();
        self.ends.push(NodeEnd { end, hash });
    }

    /// Removes every node, keeping the allocations for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Number of nodes held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no nodes are held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes this buffer occupies, its (reusable) capacity included.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.bytes.capacity()
            + self.ends.capacity() * std::mem::size_of::<NodeEnd>()
    }

    /// Total encoded bytes across all nodes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The `index`-th node encoding, if present.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        let end = self.ends.get(index)?.end;
        let start = if index == 0 {
            0
        } else {
            self.ends[index - 1].end
        };
        Some(&self.bytes[start..end])
    }

    /// `keccak256` of each node encoding, in insertion order.
    pub fn hashes(&self) -> impl ExactSizeIterator<Item = H256> + '_ {
        self.ends.iter().map(|node| node.hash)
    }

    /// Iterates the node encodings in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.len()).map(|i| self.get(i).expect("index in range"))
    }

    /// Borrowed view of every node, e.g. for [`crate::verify_many`].
    pub fn as_slices(&self) -> Vec<&[u8]> {
        self.iter().collect()
    }

    /// Materializes the wire shape (one `Vec<u8>` per node).
    pub fn to_vecs(&self) -> Vec<Vec<u8>> {
        self.iter().map(<[u8]>::to_vec).collect()
    }
}

/// Collects node encodings into a buffer, hashing each: for nodes that
/// did not come out of a [`crate::FrozenTrie`] walk.
impl<T: AsRef<[u8]>> FromIterator<T> for ProofBuf {
    fn from_iter<I: IntoIterator<Item = T>>(nodes: I) -> Self {
        let mut buf = ProofBuf::new();
        for node in nodes {
            buf.push(node.as_ref());
        }
        buf
    }
}

impl<'a> IntoIterator for &'a ProofBuf {
    type Item = &'a [u8];
    type IntoIter = Box<dyn Iterator<Item = &'a [u8]> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut buf = ProofBuf::new();
        assert!(buf.is_empty());
        assert_eq!(buf.get(0), None);
        buf.push(b"");
        buf.push(b"abc");
        buf.push(&[0xa0; 33]);
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.total_bytes(), 36);
        assert_eq!(buf.get(0), Some(b"".as_slice()));
        assert_eq!(buf.get(1), Some(b"abc".as_slice()));
        assert_eq!(buf.get(3), None);
        let collected: Vec<Vec<u8>> = buf.iter().map(<[u8]>::to_vec).collect();
        assert_eq!(collected, buf.to_vecs());
        assert_eq!(buf.as_slices().len(), 3);
        let hashes: Vec<H256> = buf.hashes().collect();
        let expected: Vec<H256> = buf.iter().map(keccak256).collect();
        assert_eq!(hashes, expected);
        assert_eq!(buf.to_vecs().iter().collect::<ProofBuf>(), buf);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = ProofBuf::new();
        for _ in 0..8 {
            buf.push(&[7u8; 64]);
        }
        let byte_cap = buf.bytes.capacity();
        let end_cap = buf.ends.capacity();
        buf.clear();
        assert!(buf.is_empty());
        assert_eq!(buf.total_bytes(), 0);
        assert_eq!(buf.bytes.capacity(), byte_cap);
        assert_eq!(buf.ends.capacity(), end_cap);
    }

    #[test]
    fn hashes_ride_in_the_offsets_vector() {
        // Two `Vec`s, as before the hashes were kept: a third would grow
        // every struct that embeds a buffer (a `FullNode` holds one).
        assert_eq!(
            std::mem::size_of::<ProofBuf>(),
            2 * std::mem::size_of::<Vec<u8>>()
        );
    }
}
