//! A flat, reusable proof container: many node encodings in one
//! contiguous allocation.
//!
//! The serving path materializes a multiproof per batch; shipping it as
//! `Vec<Vec<u8>>` costs one heap allocation per node, every batch. A
//! [`ProofBuf`] instead appends every node into a single byte buffer and
//! records the node boundaries, so a warm serving loop reuses the same
//! two allocations across batches ([`ProofBuf::clear`] keeps capacity).
//! Conversion to the wire's `Vec<Vec<u8>>` shape happens exactly once,
//! at the envelope boundary, via [`ProofBuf::to_vecs`].

/// An ordered sequence of proof-node encodings stored back to back in
/// one buffer.
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
/// assert_eq!(buf.to_vecs(), vec![b"node-1".to_vec(), b"node-2".to_vec()]);
/// buf.clear(); // keeps capacity for the next batch
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofBuf {
    bytes: Vec<u8>,
    /// End offset of each node in `bytes`; node `i` spans
    /// `ends[i-1]..ends[i]` (with `ends[-1]` read as 0).
    ends: Vec<usize>,
}

impl ProofBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one node encoding.
    pub fn push(&mut self, node: &[u8]) {
        self.bytes.extend_from_slice(node);
        self.ends.push(self.bytes.len());
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
            + self.ends.capacity() * std::mem::size_of::<usize>()
    }

    /// Total encoded bytes across all nodes.
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The `index`-th node encoding, if present.
    pub fn get(&self, index: usize) -> Option<&[u8]> {
        let end = *self.ends.get(index)?;
        let start = if index == 0 { 0 } else { self.ends[index - 1] };
        Some(&self.bytes[start..end])
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
}
