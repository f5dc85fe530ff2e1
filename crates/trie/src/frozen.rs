//! An arena-flattened trie frozen for serving: node encodings laid out
//! contiguously, proofs in O(depth) with zero hashing.
//!
//! [`crate::Trie::prove`] re-encodes every node it records, and encoding
//! an interior node recursively encodes (and hashes) its whole subtree —
//! a proof walk from the root therefore costs O(total trie bytes). The
//! previous frozen layout fixed that with a `HashMap` of encodings keyed
//! by cloned nibble-prefix vectors (retained verbatim as
//! [`crate::baseline::FrozenTrie`]), but every walk step still paid a
//! `Vec` key clone plus a hash-map probe, every recorded node was cloned
//! per key, and multiproof dedup re-keccaked every recorded node.
//!
//! A [`FrozenTrie`] flattens the trie into an arena instead:
//!
//! * one contiguous node table ([`ArenaNode`] is a few words; children
//!   are `u32` arena ids, not boxes), so a proof walk is index chasing
//!   through one allocation;
//! * one contiguous encoding buffer, with each node holding an
//!   `(offset, len)` range — recorded proof nodes are slices, copied at
//!   most once into the caller's [`ProofBuf`];
//! * a freeze pass that encodes bottom-up level by level and hashes
//!   each level's encodings through [`parp_crypto::keccak256_batch`],
//!   then precomputes every node's **witness id** — the canonical arena
//!   id among nodes with byte-identical encodings — so
//!   [`FrozenTrie::prove_many`]'s cross-key dedup is a bitset probe
//!   instead of a keccak per recorded node per key.
//!
//! The proof bytes are **identical** to [`crate::Trie::prove`] and to
//! the retained baseline — the freeze changes where encodings come
//! from, never what they are — so frozen proofs verify (and
//! fraud-check) interchangeably with unfrozen ones. This is the shape
//! the chain's head state and the serving runtime share behind one
//! `Arc`: a walk chases arena ids and only the final emit touches bytes.
//!
//! # Deriving instead of re-freezing
//!
//! A frozen arena is immutable, but the next block's state differs from
//! it in a handful of keys. [`FrozenTrie::derive`] produces the arena of
//! the updated trie from the parent arena and a set of `(key, value)`
//! upserts: it decodes only the nodes on the upserted keys' spines into
//! an editable overlay, applies the inserts there (splitting leaves and
//! extensions exactly as [`Trie::insert`] does), encodes and hashes each
//! touched node once, bottom-up — an untouched child's reference is the
//! hash already embedded in its old parent's encoding, never a fresh
//! keccak — and writes the result out with one compacting copy of the
//! parent's pools. The cost is O(n) bytes copied plus O(dirty · depth)
//! nodes hashed, against O(n) nodes hashed for a re-freeze; the derived
//! arena has the same root, the same proofs and the same size as
//! `FrozenTrie::new` on the updated contents (only the arena ids, and
//! therefore the page bytes, may differ), and holds no reference to its
//! parent.

use crate::nibbles::{bytes_to_nibbles, common_prefix_len, hp_decode, hp_encode};
use crate::node::{empty_root, Node};
use crate::proofbuf::ProofBuf;
use crate::trie::Trie;
use parp_crypto::{keccak256, keccak256_batch};
use parp_primitives::H256;
use parp_rlp::{encode_bytes, encode_list, Item};
use std::collections::HashMap;
use std::ops::Range;

/// Sentinel arena id marking an absent branch child.
const NO_NODE: u32 = u32::MAX;

/// What [`FrozenTrie::mem_bytes`] charges per arena on top of its
/// pools: the struct and the bookkeeping of its four heap allocations.
/// A constant, not `size_of::<Self>()`, so that byte budgets — and the
/// recorded deep-history replay, whose spill pattern under a 1 KiB
/// budget this decides — do not shift when a field comes or goes.
const ARENA_HEADER_BYTES: usize = 192;

/// Magic prefix of a serialized arena page ([`FrozenTrie::to_bytes`]).
const PAGE_MAGIC: &[u8] = b"PFT1";

/// Cursor over a serialized page; every read is bounds-checked.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let slice = self.bytes.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(slice)
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
}

/// What a flattened node is; the walk only needs the shape, never the
/// boxed tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Leaf,
    Extension,
    Branch,
}

/// One flattened trie node: encoding range, children ids and walk
/// metadata, all as indices into the arena's shared pools.
#[derive(Debug, Clone, Copy)]
struct ArenaNode {
    kind: Kind,
    /// Range of this node's canonical RLP encoding in the shared
    /// encoding buffer.
    enc_off: u32,
    enc_len: u32,
    /// Extension: one slot in the children pool; branch: 16 slots
    /// (absent children hold [`NO_NODE`]); leaf: unused.
    child_off: u32,
    /// Extension: nibble-path range in the path pool; leaf/branch:
    /// unused (a proof walk never compares a leaf's path).
    path_off: u32,
    path_len: u32,
    /// Witness id: the one arena id that stands for every node whose
    /// encoding is byte-identical to this node's (the smallest such id
    /// after a freeze; any member of the class after a derive).
    /// Structurally repeated subtrees collapse to one witness, exactly
    /// like the baseline's hash-keyed dedup — but precomputed.
    dedup: u32,
}

/// A [`Trie`] flattened into a contiguous arena for O(depth),
/// allocation-light proof serving.
///
/// # Examples
///
/// ```
/// use parp_trie::{FrozenTrie, Trie};
///
/// let mut trie = Trie::new();
/// for i in 0..100u32 {
///     trie.insert(i.to_be_bytes().to_vec(), format!("v{i}").into_bytes());
/// }
/// let frozen = FrozenTrie::new(trie.clone());
/// let key = 42u32.to_be_bytes();
/// // Same bytes as Trie::prove, at O(depth) instead of O(trie) cost.
/// assert_eq!(frozen.prove(&key), trie.prove(&key));
/// assert_eq!(frozen.root_hash(), trie.root_hash());
///
/// // The next version of the trie, without re-hashing what did not change.
/// let next = frozen.derive([(key, b"changed")]);
/// trie.insert(key.to_vec(), b"changed".to_vec());
/// assert_eq!(next.root_hash(), trie.root_hash());
/// assert_eq!(next.prove(&key), trie.prove(&key));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenTrie {
    root: H256,
    /// Key/value pair count (the arena does not keep the boxed tree it
    /// was flattened from).
    len: usize,
    nodes: Vec<ArenaNode>,
    /// Child-id pool: 16 slots per branch, 1 per extension.
    children: Vec<u32>,
    /// Nibble-path pool for extension nodes.
    paths: Vec<u8>,
    /// Every node's canonical RLP encoding, back to back.
    buf: Vec<u8>,
}

impl FrozenTrie {
    /// Freezes `trie`: flattens it into the arena and computes every
    /// node encoding bottom-up, hashing each level's encodings in one
    /// batched keccak pass. The boxed tree is dropped: the arena alone
    /// serves proofs and [`FrozenTrie::derive`]s successors.
    pub fn new(trie: Trie) -> Self {
        let (root, nodes, children, paths, buf) = match trie.root_node() {
            Node::Empty => (empty_root(), Vec::new(), Vec::new(), Vec::new(), Vec::new()),
            node => {
                let mut arena = Arena::default();
                arena.flatten(node, 0);
                let root = arena.encode_levels();
                // `srcs` (which borrows the trie) stays behind; only the
                // owned pools move into the frozen value.
                (root, arena.nodes, arena.children, arena.paths, arena.buf)
            }
        };
        FrozenTrie {
            root,
            len: trie.len(),
            nodes,
            children,
            paths,
            buf,
        }
    }

    /// Number of key/value pairs stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The Merkle root, precomputed at freeze time.
    pub fn root_hash(&self) -> H256 {
        self.root
    }

    /// Number of arena nodes: the bound every id accepted by
    /// [`FrozenTrie::node_bytes`] is below.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Measured resident size of the arena in bytes: the node table,
    /// the child and nibble-path pools and the shared encoding buffer,
    /// plus a fixed charge for the struct itself — the whole footprint
    /// (no boxed tree is retained), which is what a byte-budgeted cache
    /// should account and what [`FrozenTrie::to_bytes`] round-trips.
    pub fn mem_bytes(&self) -> usize {
        ARENA_HEADER_BYTES
            + self.nodes.len() * std::mem::size_of::<ArenaNode>()
            + self.children.len() * std::mem::size_of::<u32>()
            + self.paths.len()
            + self.buf.len()
    }

    /// Serializes the arena (root, key count, node table and pools)
    /// into a flat byte page suitable for spilling to disk.
    ///
    /// [`FrozenTrie::from_bytes`] inverts this, and the rehydrated
    /// trie's proofs are byte-identical to the original's.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.mem_bytes());
        out.extend_from_slice(PAGE_MAGIC);
        out.extend_from_slice(self.root.as_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.children.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.paths.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u32).to_le_bytes());
        for node in &self.nodes {
            out.push(match node.kind {
                Kind::Leaf => 0,
                Kind::Extension => 1,
                Kind::Branch => 2,
            });
            for word in [
                node.enc_off,
                node.enc_len,
                node.child_off,
                node.path_off,
                node.path_len,
                node.dedup,
            ] {
                out.extend_from_slice(&word.to_le_bytes());
            }
        }
        for &child in &self.children {
            out.extend_from_slice(&child.to_le_bytes());
        }
        out.extend_from_slice(&self.paths);
        out.extend_from_slice(&self.buf);
        out
    }

    /// Rehydrates a trie from a [`FrozenTrie::to_bytes`] page.
    ///
    /// Returns `None` when the page is malformed: every node's
    /// encoding range, child slots, extension path and witness id are
    /// bounds-checked here so that proof walks over a page read from
    /// disk can never panic or loop, even on corrupt input. The
    /// rehydrated instance's proofs are byte-identical to the
    /// original's.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut reader = Reader { bytes, pos: 0 };
        if reader.take(PAGE_MAGIC.len())? != PAGE_MAGIC {
            return None;
        }
        let root = H256::from_slice(reader.take(32)?)?;
        let len = u64::from_le_bytes(reader.take(8)?.try_into().ok()?) as usize;
        let node_count = reader.u32()? as usize;
        let children_len = reader.u32()? as usize;
        let paths_len = reader.u32()? as usize;
        let buf_len = reader.u32()? as usize;

        // Reject length prefixes that overrun the page before any
        // allocation happens — a corrupt count must not turn into a
        // multi-gigabyte reservation.
        let required = (node_count as u64) * 25
            + (children_len as u64) * 4
            + paths_len as u64
            + buf_len as u64;
        if required != (bytes.len() - reader.pos) as u64 {
            return None;
        }

        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            let kind = match reader.take(1)?[0] {
                0 => Kind::Leaf,
                1 => Kind::Extension,
                2 => Kind::Branch,
                _ => return None,
            };
            let mut words = [0u32; 6];
            for word in &mut words {
                *word = reader.u32()?;
            }
            let node = ArenaNode {
                kind,
                enc_off: words[0],
                enc_len: words[1],
                child_off: words[2],
                path_off: words[3],
                path_len: words[4],
                dedup: words[5],
            };
            // Bounds that make every later arena access infallible.
            let enc_end = node.enc_off as u64 + node.enc_len as u64;
            if enc_end > buf_len as u64 || node.dedup as usize >= node_count {
                return None;
            }
            match node.kind {
                Kind::Leaf => {}
                Kind::Extension => {
                    let path_end = node.path_off as u64 + node.path_len as u64;
                    // A zero-length extension path would let a crafted
                    // page trap a proof walk in a cycle.
                    if node.path_len == 0
                        || path_end > paths_len as u64
                        || node.child_off as usize >= children_len
                    {
                        return None;
                    }
                }
                Kind::Branch => {
                    if node.child_off as u64 + 16 > children_len as u64 {
                        return None;
                    }
                }
            }
            nodes.push(node);
        }
        let mut children = Vec::with_capacity(children_len);
        for _ in 0..children_len {
            let child = reader.u32()?;
            if child != NO_NODE && child as usize >= node_count {
                return None;
            }
            children.push(child);
        }
        let paths = reader.take(paths_len)?.to_vec();
        let buf = reader.take(buf_len)?.to_vec();
        if reader.pos != bytes.len() {
            return None;
        }
        Some(FrozenTrie {
            root,
            len,
            nodes,
            children,
            paths,
            buf,
        })
    }

    /// The canonical encoding of arena node `id`, as a slice into the
    /// shared buffer.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not below [`FrozenTrie::node_count`].
    pub fn node_bytes(&self, id: u32) -> &[u8] {
        let node = &self.nodes[id as usize];
        &self.buf[node.enc_off as usize..(node.enc_off + node.enc_len) as usize]
    }

    /// Appends the witness ids of the proof nodes [`Trie::prove`] would
    /// record for `key`, in walk order.
    ///
    /// Mapping each id through [`FrozenTrie::node_bytes`] reproduces
    /// [`FrozenTrie::prove`] exactly; first-touch deduplication over the
    /// ids reproduces [`FrozenTrie::prove_many`].
    fn prove_ids(&self, key: &[u8], out: &mut Vec<u32>) {
        self.walk(key, |node, parent| {
            if recorded(node, parent) {
                out.push(node.dedup);
            }
        });
    }

    /// The value stored under `key`, read off the same arena nodes
    /// [`FrozenTrie::prove`] cuts the key's proof from — no hashing,
    /// and no second copy of the values kept beside the page.
    ///
    /// Returns `None` when the key is absent, and also when the node
    /// the walk ends on does not decode (which only a corrupted page
    /// can cause: [`FrozenTrie::from_bytes`] checks structure, not
    /// contents).
    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        let (id, consumed) = self.walk(key, |_, _| {})?;
        let is_leaf = self.nodes[id as usize].kind == Kind::Leaf;
        let arity = if is_leaf { 2 } else { 17 };
        let mut items = parp_rlp::decode_list_of(self.node_bytes(id), arity).ok()?;
        if is_leaf {
            let (path, _) = hp_decode(items.first()?.as_bytes().ok()?)?;
            let rest = consumed..key.len() * 2;
            if path.len() != rest.len() || !rest.zip(&path).all(|(i, &p)| nibble_at(key, i) == p) {
                return None;
            }
        }
        match items.pop()? {
            Item::Bytes(value) if !value.is_empty() => Some(value),
            _ => None,
        }
    }

    /// Walks from the root along `key`, calling `visit(node, parent)` on
    /// every node reached, in order: `parent` is `None` at the root and
    /// otherwise the parent's arena id with the index of the item that
    /// holds this node's reference in the parent's encoding. Returns the
    /// arena id of the node the key's value would sit in — the leaf the
    /// walk ended on, or the branch at which the key ran out — with the
    /// key nibbles consumed before it; `None` when the walk fell off the
    /// trie first.
    fn walk(
        &self,
        key: &[u8],
        mut visit: impl FnMut(&ArenaNode, Option<(u32, usize)>),
    ) -> Option<(u32, usize)> {
        if self.nodes.is_empty() {
            return None;
        }
        let nib_len = key.len() * 2;
        let mut id = 0u32;
        let mut consumed = 0usize;
        let mut parent = None;
        loop {
            let node = self.nodes[id as usize];
            visit(&node, parent);
            match node.kind {
                Kind::Leaf => return Some((id, consumed)),
                Kind::Extension => {
                    let path = &self.paths
                        [node.path_off as usize..(node.path_off + node.path_len) as usize];
                    if nib_len - consumed < path.len()
                        || !path
                            .iter()
                            .enumerate()
                            .all(|(i, &p)| nibble_at(key, consumed + i) == p)
                    {
                        return None;
                    }
                    consumed += path.len();
                    parent = Some((id, 1));
                    id = self.children[node.child_off as usize];
                }
                Kind::Branch => {
                    if consumed == nib_len {
                        return Some((id, consumed));
                    }
                    let idx = nibble_at(key, consumed) as usize;
                    consumed += 1;
                    let child = self.children[node.child_off as usize + idx];
                    if child == NO_NODE {
                        return None;
                    }
                    parent = Some((id, idx));
                    id = child;
                }
            }
        }
    }

    /// Merkle proof for `key`: byte-identical to [`Trie::prove`], with
    /// every node a slice copy out of the arena's encoding buffer.
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut ids = Vec::new();
        self.prove_ids(key, &mut ids);
        ids.iter().map(|&id| self.node_bytes(id).to_vec()).collect()
    }

    /// Deduplicated multiproof for `keys`: byte-identical to
    /// [`Trie::prove_many`]. Cross-key dedup is a bitset over
    /// precomputed witness ids — no hashing, no hash map.
    pub fn prove_many<I, K>(&self, keys: I) -> Vec<Vec<u8>>
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        let mut nodes = Vec::new();
        self.for_each_multiproof_node(keys, |bytes, _| nodes.push(bytes.to_vec()));
        nodes
    }

    /// [`FrozenTrie::prove_many`] into a reusable [`ProofBuf`]: the
    /// whole multiproof lands in one contiguous allocation, each shared
    /// node materialized exactly once across all keys. Clears `out`
    /// first; capacity is retained across batches. For one key it holds
    /// exactly the nodes of [`FrozenTrie::prove`].
    ///
    /// Each node's hash is recorded beside it without hashing: it is the
    /// 32-byte reference the walk read the node through in its parent's
    /// encoding, and the root's is [`FrozenTrie::root_hash`]. A reference
    /// that cannot be read (only a corrupted page has one) falls back to
    /// a fresh `keccak256` of the node.
    pub fn multiproof_into<I, K>(&self, keys: I, out: &mut ProofBuf)
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
    {
        out.clear();
        self.for_each_multiproof_node(keys, |bytes, hash| out.push_hashed(bytes, hash));
    }

    /// The frozen arena of this trie with `upserts` applied (insert or
    /// replace, in order — a repeated key keeps its last value), without
    /// re-freezing: only the nodes on the upserted keys' spines are
    /// re-encoded and re-hashed, each once; everything else is copied.
    /// Costs O(n) bytes copied plus O(upserts · depth) nodes hashed,
    /// against O(n) nodes hashed for [`FrozenTrie::new`].
    ///
    /// The result is indistinguishable from [`FrozenTrie::new`] on the
    /// updated contents through `root_hash`, `len`, `node_count`,
    /// `prove`, `prove_many` / `multiproof_into` and a
    /// [`FrozenTrie::to_bytes`] round trip; it shares nothing with
    /// `self`.
    ///
    /// # Panics
    ///
    /// Panics when a value is empty (as [`Trie::insert`] does), or when
    /// a node encoding on a touched spine is not node RLP — which only
    /// a corrupted page can cause: [`FrozenTrie::from_bytes`] checks a
    /// page's structure, not its contents.
    pub fn derive<I, K, V>(&self, upserts: I) -> FrozenTrie
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let mut overlay = Overlay::new(self);
        for (key, value) in upserts {
            let value = value.as_ref();
            assert!(!value.is_empty(), "empty values are not representable");
            overlay.upsert(&bytes_to_nibbles(key.as_ref()), value);
        }
        if overlay.work.is_empty() {
            return self.clone();
        }
        overlay.encode(0);
        overlay.emit()
    }

    /// Walks every key and emits each first-touched witness node once,
    /// with its hash, in the exact order [`Trie::prove_many`] produces.
    fn for_each_multiproof_node<I, K, F>(&self, keys: I, mut emit: F)
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
        F: FnMut(&[u8], H256),
    {
        let mut seen = vec![false; self.nodes.len()];
        for key in keys {
            self.walk(key.as_ref(), |node, parent| {
                let id = node.dedup;
                if !recorded(node, parent) || std::mem::replace(&mut seen[id as usize], true) {
                    return;
                }
                let bytes = self.node_bytes(id);
                let hash = match parent {
                    None => self.root,
                    Some((parent, item)) => child_reference(self.node_bytes(parent), item)
                        .unwrap_or_else(|| keccak256(bytes)),
                };
                emit(bytes, hash);
            });
        }
    }
}

/// Whether a proof records `node`: the root always, any other node when
/// its parent references it by hash (an encoding of 32 bytes or more) —
/// shorter ones travel inline in their parent.
fn recorded(node: &ArenaNode, parent: Option<(u32, usize)>) -> bool {
    node.enc_len >= 32 || parent.is_none()
}

/// The 32-byte hash reference at item `index` of a node encoding, read
/// by skipping the items before it. `None` unless the list header is
/// well-formed, the skipped items are short forms and the item is a
/// 32-byte string — always the case in an arena's own encodings, whose
/// items before a child reference are empty slots, references, inline
/// nodes or an extension's path.
fn child_reference(encoding: &[u8], index: usize) -> Option<H256> {
    const REFERENCE_LEN: usize = 33;
    let mut at = match *encoding.first()? {
        0xc0..=0xf7 => 1,
        first @ 0xf8..=0xff => 1 + usize::from(first - 0xf7),
        _ => return None,
    };
    for _ in 0..index {
        // References and empty slots, the items a branch is made of, are
        // matched first: a predicted branch lets the next header's load
        // start before this one has arrived. Otherwise a single byte
        // below 0x80 is its own item, the low six bits of a short string
        // (0x80..=0xb7) or short list (0xc0..=0xf7) header are its
        // payload length, and 0x38 or more marks the long forms no
        // skipped item uses.
        at += match *encoding.get(at)? {
            0xa0 => REFERENCE_LEN,
            0x80 => 1,
            header => {
                let len = if header < 0x80 { 0 } else { header & 0x3f };
                if len >= 0x38 {
                    return None;
                }
                1 + usize::from(len)
            }
        };
    }
    match encoding.get(at..at + REFERENCE_LEN)? {
        [0xa0, hash @ ..] => H256::from_slice(hash),
        _ => None,
    }
}

impl From<Trie> for FrozenTrie {
    fn from(trie: Trie) -> Self {
        FrozenTrie::new(trie)
    }
}

/// The nibble at position `i` of `key`'s nibble expansion, without
/// materializing the expansion.
fn nibble_at(key: &[u8], i: usize) -> u8 {
    let byte = key[i / 2];
    if i.is_multiple_of(2) {
        byte >> 4
    } else {
        byte & 0x0f
    }
}

/// Freeze-pass scratch: flattens the boxed tree, then encodes and
/// hashes it level by level.
#[derive(Default)]
struct Arena<'a> {
    nodes: Vec<ArenaNode>,
    children: Vec<u32>,
    paths: Vec<u8>,
    buf: Vec<u8>,
    /// Source nodes, parallel to `nodes` (branch values are read at
    /// encode time instead of being copied into a pool).
    srcs: Vec<&'a Node>,
    depths: Vec<u32>,
}

impl<'a> Arena<'a> {
    /// Pass 1: assigns arena ids in pre-order (the root is id 0),
    /// records structure, and encodes leaves (which have no
    /// dependencies) immediately.
    fn flatten(&mut self, node: &'a Node, depth: u32) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(ArenaNode {
            kind: Kind::Leaf,
            enc_off: 0,
            enc_len: 0,
            child_off: 0,
            path_off: 0,
            path_len: 0,
            dedup: id,
        });
        self.srcs.push(node);
        self.depths.push(depth);
        match node {
            Node::Empty => unreachable!("flatten is never called on an empty node"),
            Node::Leaf { path, value } => {
                let encoded = encode_list(&[
                    encode_bytes(&crate::nibbles::hp_encode(path, true)),
                    encode_bytes(value),
                ]);
                self.set_encoding(id, &encoded);
            }
            Node::Extension { path, child } => {
                let path_off = self.paths.len() as u32;
                self.paths.extend_from_slice(path);
                let child_off = self.children.len() as u32;
                self.children.push(NO_NODE);
                {
                    let slot = &mut self.nodes[id as usize];
                    slot.kind = Kind::Extension;
                    slot.child_off = child_off;
                    slot.path_off = path_off;
                    slot.path_len = path.len() as u32;
                }
                let child_id = self.flatten(child, depth + 1);
                self.children[child_off as usize] = child_id;
            }
            Node::Branch { children, .. } => {
                let child_off = self.children.len() as u32;
                self.children.extend_from_slice(&[NO_NODE; 16]);
                {
                    let slot = &mut self.nodes[id as usize];
                    slot.kind = Kind::Branch;
                    slot.child_off = child_off;
                }
                for (i, child) in children.iter().enumerate() {
                    if !child.is_empty() {
                        let child_id = self.flatten(child, depth + 1);
                        self.children[child_off as usize + i] = child_id;
                    }
                }
            }
        }
        id
    }

    /// Pass 2: deepest level first, encodes interior nodes from their
    /// children's cached references, batch-hashes each level's
    /// recordable encodings, and derives witness ids. Returns the root
    /// hash.
    fn encode_levels(&mut self) -> H256 {
        let count = self.nodes.len();
        let mut hashes: Vec<H256> = vec![H256::default(); count];
        let max_depth = *self.depths.iter().max().expect("non-empty arena") as usize;
        let mut by_depth: Vec<Vec<u32>> = vec![Vec::new(); max_depth + 1];
        for (id, &depth) in self.depths.iter().enumerate() {
            by_depth[depth as usize].push(id as u32);
        }
        for level in by_depth.iter().rev() {
            for &id in level {
                let node = self.nodes[id as usize];
                let encoded = match node.kind {
                    Kind::Leaf => continue, // encoded during flatten
                    Kind::Extension => {
                        let path = &self.paths
                            [node.path_off as usize..(node.path_off + node.path_len) as usize];
                        let child = self.children[node.child_off as usize];
                        encode_list(&[
                            encode_bytes(&crate::nibbles::hp_encode(path, false)),
                            self.reference(child, &hashes),
                        ])
                    }
                    Kind::Branch => {
                        let mut items: Vec<Vec<u8>> = Vec::with_capacity(17);
                        for i in 0..16 {
                            let child = self.children[node.child_off as usize + i];
                            items.push(if child == NO_NODE {
                                encode_bytes(&[])
                            } else {
                                self.reference(child, &hashes)
                            });
                        }
                        items.push(match self.srcs[id as usize] {
                            Node::Branch { value: Some(v), .. } => encode_bytes(v),
                            _ => encode_bytes(&[]),
                        });
                        encode_list(&items)
                    }
                };
                self.set_encoding(id, &encoded);
            }
            // One batched keccak over the level's recordable encodings:
            // nodes referenced by hash, plus the root (hashed even when
            // its encoding is short).
            let to_hash: Vec<u32> = level
                .iter()
                .copied()
                .filter(|&id| self.nodes[id as usize].enc_len >= 32 || id == 0)
                .collect();
            let slices: Vec<&[u8]> = to_hash.iter().map(|&id| self.encoding(id)).collect();
            for (&id, digest) in to_hash.iter().zip(keccak256_batch(&slices)) {
                hashes[id as usize] = digest;
            }
        }
        // Witness ids: among recordable nodes, byte-identical encodings
        // share the first id carrying them, mirroring the baseline's
        // first-touch hash dedup without any hashing at prove time.
        let mut first: HashMap<H256, u32> = HashMap::new();
        for id in 0..count as u32 {
            if self.nodes[id as usize].enc_len >= 32 || id == 0 {
                let canonical = *first.entry(hashes[id as usize]).or_insert(id);
                self.nodes[id as usize].dedup = canonical;
            }
        }
        hashes[0]
    }

    /// Appends `encoded` to the shared buffer and records its range.
    fn set_encoding(&mut self, id: u32, encoded: &[u8]) {
        let slot = &mut self.nodes[id as usize];
        slot.enc_off = self.buf.len() as u32;
        slot.enc_len = encoded.len() as u32;
        self.buf.extend_from_slice(encoded);
    }

    fn encoding(&self, id: u32) -> &[u8] {
        let node = &self.nodes[id as usize];
        &self.buf[node.enc_off as usize..(node.enc_off + node.enc_len) as usize]
    }

    /// The parent-embedded reference of node `id`: the raw encoding
    /// when shorter than 32 bytes, otherwise the RLP-wrapped hash
    /// cached by the level pass.
    fn reference(&self, id: u32, hashes: &[H256]) -> Vec<u8> {
        if self.nodes[id as usize].enc_len < 32 {
            self.encoding(id).to_vec()
        } else {
            encode_bytes(hashes[id as usize].as_bytes())
        }
    }
}

/// An editable node of a [`FrozenTrie::derive`] overlay: a parent node
/// decoded on first touch, or one the upserts created. Children are
/// arena ids ([`NO_NODE`] when absent).
enum Work {
    Leaf {
        path: Vec<u8>,
        value: Vec<u8>,
    },
    Extension {
        path: Vec<u8>,
        child: u32,
    },
    Branch {
        children: [u32; 16],
        value: Option<Vec<u8>>,
    },
}

/// Derive-pass scratch: the parent arena plus a sparse overlay of the
/// nodes the upserts touch.
///
/// A node that is replaced (a split leaf or extension) hands its arena
/// id to the top node of what replaces it, so no id ever dies, no
/// parent's child slot ever needs re-pointing, and the root stays id 0;
/// nodes the upserts create take fresh ids past the parent's.
struct Overlay<'a> {
    parent: &'a FrozenTrie,
    /// Per arena id: its index in `work`, or [`NO_NODE`] while the node
    /// is untouched. Longer than the parent's table once nodes are
    /// created.
    slot: Vec<u32>,
    work: Vec<Work>,
    /// New canonical encodings, parallel to `work` (empty until `encode`).
    encodings: Vec<Vec<u8>>,
    /// Per arena id, where known: the hash its parent references it by.
    /// For an untouched node that is read out of its old parent's
    /// encoding when the parent is decoded; for a touched one it is
    /// computed by `encode`.
    hashes: Vec<H256>,
    /// Keys the upserts added (as opposed to overwrote).
    added: usize,
}

impl<'a> Overlay<'a> {
    fn new(parent: &'a FrozenTrie) -> Self {
        let count = parent.nodes.len();
        Overlay {
            parent,
            slot: vec![NO_NODE; count],
            work: Vec::new(),
            encodings: Vec::new(),
            hashes: vec![H256::default(); count],
            added: 0,
        }
    }

    /// Gives `node` a fresh arena id.
    fn create(&mut self, node: Work) -> u32 {
        let id = self.slot.len() as u32;
        self.slot.push(self.work.len() as u32);
        self.hashes.push(H256::default());
        self.work.push(node);
        self.encodings.push(Vec::new());
        id
    }

    /// The overlay index of arena node `id`, decoding it out of the
    /// parent on first touch (which also records the hashes the old
    /// encoding references its children by).
    fn edit(&mut self, id: u32) -> usize {
        if self.slot[id as usize] != NO_NODE {
            return self.slot[id as usize] as usize;
        }
        let parent = self.parent;
        let node = parent.nodes[id as usize];
        let items = match parp_rlp::decode(parent.node_bytes(id)) {
            Ok(Item::List(items)) => items,
            _ => panic!("arena node {id} is not an RLP list"),
        };
        let payload = |item: &Item| match item {
            Item::Bytes(bytes) => bytes.clone(),
            Item::List(_) => panic!("arena node {id} holds a list where bytes belong"),
        };
        let mut note_child = |child: u32, reference: &Item| {
            // A 32-byte string is a hash reference; anything else is an
            // embedded (< 32 byte) child, referenced by its own bytes.
            if let Item::Bytes(bytes) = reference {
                if let Some(hash) = H256::from_slice(bytes) {
                    self.hashes[child as usize] = hash;
                }
            }
        };
        let decoded = match node.kind {
            Kind::Leaf => {
                assert_eq!(items.len(), 2, "arena leaf {id} is not a pair");
                let (path, _) = hp_decode(&payload(&items[0])).expect("leaf path is hex-prefix");
                Work::Leaf {
                    path,
                    value: payload(&items[1]),
                }
            }
            Kind::Extension => {
                assert_eq!(items.len(), 2, "arena extension {id} is not a pair");
                let child = parent.children[node.child_off as usize];
                note_child(child, &items[1]);
                let path = node.path_off as usize..(node.path_off + node.path_len) as usize;
                Work::Extension {
                    path: parent.paths[path].to_vec(),
                    child,
                }
            }
            Kind::Branch => {
                assert_eq!(items.len(), 17, "arena branch {id} has no 17 items");
                let mut children = [NO_NODE; 16];
                let slots = node.child_off as usize..node.child_off as usize + 16;
                children.copy_from_slice(&parent.children[slots]);
                for (&child, reference) in children.iter().zip(&items) {
                    if child != NO_NODE {
                        note_child(child, reference);
                    }
                }
                let value = payload(&items[16]);
                Work::Branch {
                    children,
                    value: (!value.is_empty()).then_some(value),
                }
            }
        };
        self.slot[id as usize] = self.work.len() as u32;
        self.work.push(decoded);
        self.encodings.push(Vec::new());
        self.work.len() - 1
    }

    /// Inserts or replaces one key (as nibbles), mirroring
    /// [`Trie::insert`] node for node.
    fn upsert(&mut self, key: &[u8], value: &[u8]) {
        if self.slot.is_empty() {
            self.create(Work::Leaf {
                path: key.to_vec(),
                value: value.to_vec(),
            });
            self.added += 1;
            return;
        }
        let mut id = 0u32;
        let mut rest = key;
        loop {
            let at = self.edit(id);
            // What sits at `id` besides the new key, if the two part
            // ways here: its path and what hangs below the fork.
            let (old_path, old) = match &mut self.work[at] {
                Work::Branch {
                    children,
                    value: slot,
                } => {
                    let Some((&nibble, below)) = rest.split_first() else {
                        self.added += usize::from(slot.is_none());
                        *slot = Some(value.to_vec());
                        return;
                    };
                    let child = children[nibble as usize];
                    if child != NO_NODE {
                        id = child;
                        rest = below;
                        continue;
                    }
                    let leaf = self.create(Work::Leaf {
                        path: below.to_vec(),
                        value: value.to_vec(),
                    });
                    if let Work::Branch { children, .. } = &mut self.work[at] {
                        children[nibble as usize] = leaf;
                    }
                    self.added += 1;
                    return;
                }
                Work::Extension { path, child } => {
                    if rest.starts_with(path) {
                        id = *child;
                        rest = &rest[path.len()..];
                        continue;
                    }
                    (std::mem::take(path), Below::Child(*child))
                }
                Work::Leaf { path, value: slot } => {
                    if path.as_slice() == rest {
                        *slot = value.to_vec();
                        return;
                    }
                    (std::mem::take(path), Below::Value(std::mem::take(slot)))
                }
            };
            self.fork(at, &old_path, old, rest, value);
            self.added += 1;
            return;
        }
    }

    /// Replaces the leaf or extension at overlay index `at` (path
    /// `old_path`, carrying `old`) by a branch at the point where
    /// `new_path` diverges from it — under an extension when they share
    /// a prefix — holding both what was there and the new `value`.
    fn fork(&mut self, at: usize, old_path: &[u8], old: Below, new_path: &[u8], value: &[u8]) {
        let shared = common_prefix_len(old_path, new_path);
        let mut children = [NO_NODE; 16];
        let mut branch_value = None;
        match (old_path.get(shared), old) {
            (None, Below::Value(old_value)) => branch_value = Some(old_value),
            (None, Below::Child(_)) => unreachable!("a consumed extension is followed, not forked"),
            (Some(&nibble), old) => {
                let tail = old_path[shared + 1..].to_vec();
                children[nibble as usize] = match old {
                    Below::Value(value) => self.create(Work::Leaf { path: tail, value }),
                    Below::Child(child) if tail.is_empty() => child,
                    Below::Child(child) => self.create(Work::Extension { path: tail, child }),
                };
            }
        }
        match new_path.get(shared) {
            None => branch_value = Some(value.to_vec()),
            Some(&nibble) => {
                children[nibble as usize] = self.create(Work::Leaf {
                    path: new_path[shared + 1..].to_vec(),
                    value: value.to_vec(),
                });
            }
        }
        let branch = Work::Branch {
            children,
            value: branch_value,
        };
        self.work[at] = if shared == 0 {
            branch
        } else {
            Work::Extension {
                path: new_path[..shared].to_vec(),
                child: self.create(branch),
            }
        };
    }

    /// Current encoding of arena node `id`: the overlay's once encoded,
    /// the parent's otherwise.
    fn encoding(&self, id: u32) -> &[u8] {
        match self.slot[id as usize] {
            NO_NODE => self.parent.node_bytes(id),
            at => &self.encodings[at as usize],
        }
    }

    /// The parent-embedded reference of node `id` (see
    /// [`Arena::reference`]).
    fn reference(&self, id: u32) -> Vec<u8> {
        let encoded = self.encoding(id);
        if encoded.len() < 32 {
            encoded.to_vec()
        } else {
            encode_bytes(self.hashes[id as usize].as_bytes())
        }
    }

    /// Encodes and hashes the touched nodes at and below `id`, children
    /// first, each exactly once.
    fn encode(&mut self, id: u32) {
        let at = match self.slot[id as usize] {
            NO_NODE => return,
            at => at as usize,
        };
        let below: Vec<u32> = match &self.work[at] {
            Work::Leaf { .. } => Vec::new(),
            Work::Extension { child, .. } => vec![*child],
            Work::Branch { children, .. } => {
                children.iter().copied().filter(|&c| c != NO_NODE).collect()
            }
        };
        for child in below {
            self.encode(child);
        }
        let encoded = match &self.work[at] {
            Work::Leaf { path, value } => {
                encode_list(&[encode_bytes(&hp_encode(path, true)), encode_bytes(value)])
            }
            Work::Extension { path, child } => encode_list(&[
                encode_bytes(&hp_encode(path, false)),
                self.reference(*child),
            ]),
            Work::Branch { children, value } => {
                let mut items: Vec<Vec<u8>> = children
                    .iter()
                    .map(|&child| match child {
                        NO_NODE => encode_bytes(&[]),
                        child => self.reference(child),
                    })
                    .collect();
                items.push(encode_bytes(value.as_deref().unwrap_or(&[])));
                encode_list(&items)
            }
        };
        if encoded.len() >= 32 || id == 0 {
            self.hashes[id as usize] = keccak256(&encoded);
        }
        self.encodings[at] = encoded;
    }

    /// Writes the derived arena out: one pass in id order that copies
    /// every untouched node's ranges out of the parent's pools (adjacent
    /// ranges as one run), appends the overlay's nodes where they fall,
    /// and re-seats the witness ids the upserts disturbed.
    fn emit(self) -> FrozenTrie {
        let parent = self.parent;
        let recordable = |id: u32, enc_len: usize| enc_len >= 32 || id == 0;

        // Touched nodes a proof can record, sorted by encoding so that
        // byte-identical ones are neighbours, smallest id first, and an
        // untouched node can find its new twins by binary search.
        let mut fresh: Vec<(&[u8], u32)> = (0..self.slot.len() as u32)
            .filter(|&id| self.slot[id as usize] != NO_NODE)
            .map(|id| (self.encoding(id), id))
            .filter(|&(encoded, id)| recordable(id, encoded.len()))
            .collect();
        fresh.sort_by_key(|&(encoded, id)| (rank(encoded), id));
        // Witness id per twin class of `fresh`, held at the index of the
        // class's first member: that member, unless an untouched node
        // already carries the same bytes.
        let mut witness: Vec<u32> = fresh.iter().map(|&(_, id)| id).collect();
        // Untouched classes whose witness was touched (and so left the
        // class): old witness id → the first untouched member.
        let mut reseated: HashMap<u32, u32> = HashMap::new();

        let mut nodes = Vec::with_capacity(self.slot.len());
        // Sized for the parent's data plus everything the overlay adds:
        // never less than the result, so the copy never reallocates.
        let (mut slots, mut nibbles) = (0, 0);
        for node in &self.work {
            match node {
                Work::Leaf { .. } => {}
                Work::Extension { path, .. } => {
                    (slots, nibbles) = (slots + 1, nibbles + path.len())
                }
                Work::Branch { .. } => slots += 16,
            }
        }
        let mut buf = Pool::new(&parent.buf, self.encodings.iter().map(Vec::len).sum());
        let mut children = Pool::new(&parent.children, slots);
        let mut paths = Pool::new(&parent.paths, nibbles);
        for (id, &at) in self.slot.iter().enumerate() {
            let id = id as u32;
            if at == NO_NODE {
                let old = parent.nodes[id as usize];
                let mut dedup = old.dedup;
                if recordable(id, old.enc_len as usize) {
                    if self.slot[dedup as usize] != NO_NODE {
                        dedup = *reseated.entry(dedup).or_insert(id);
                    }
                    if dedup == id {
                        let bytes = parent.node_bytes(id);
                        let first = fresh.partition_point(|&(f, _)| rank(f) < rank(bytes));
                        if fresh.get(first).is_some_and(|&(f, _)| f == bytes) {
                            witness[first] = id;
                        }
                    }
                }
                let (child_off, path_off) = match old.kind {
                    Kind::Leaf => (0, 0),
                    Kind::Extension => (
                        children.keep(old.child_off, 1),
                        paths.keep(old.path_off, old.path_len),
                    ),
                    Kind::Branch => (children.keep(old.child_off, 16), 0),
                };
                nodes.push(ArenaNode {
                    enc_off: buf.keep(old.enc_off, old.enc_len),
                    child_off,
                    path_off,
                    dedup,
                    ..old
                });
            } else {
                let encoded = &self.encodings[at as usize];
                let (kind, child_off, path_off, path_len) = match &self.work[at as usize] {
                    Work::Leaf { .. } => (Kind::Leaf, 0, 0, 0),
                    Work::Extension { path, child } => (
                        Kind::Extension,
                        children.add(&[*child]),
                        paths.add(path),
                        path.len() as u32,
                    ),
                    Work::Branch { children: ids, .. } => (Kind::Branch, children.add(ids), 0, 0),
                };
                nodes.push(ArenaNode {
                    kind,
                    enc_off: buf.add(encoded),
                    enc_len: encoded.len() as u32,
                    child_off,
                    path_off,
                    path_len,
                    dedup: id,
                });
            }
        }
        let mut class = 0;
        for (i, &(encoded, id)) in fresh.iter().enumerate() {
            if encoded != fresh[class].0 {
                class = i;
            }
            nodes[id as usize].dedup = witness[class];
        }
        FrozenTrie {
            root: self.hashes[0],
            len: parent.len + self.added,
            nodes,
            children: children.finish(),
            paths: paths.finish(),
            buf: buf.finish(),
        }
    }
}

/// Sort key for node encodings: by length first — lengths alone tell
/// most encodings apart, so a search rarely compares bytes.
fn rank(encoded: &[u8]) -> (usize, &[u8]) {
    (encoded.len(), encoded)
}

/// What a forked leaf or extension carried below its path.
enum Below {
    Value(Vec<u8>),
    Child(u32),
}

/// A compacting copy of one of the parent's pools: ranges to keep are
/// gathered into runs (a range that starts where the last one ended
/// extends it) and copied a run at a time, with new data appended in
/// between. Returned offsets are positions in the copy.
struct Pool<'a, T> {
    src: &'a [T],
    out: Vec<T>,
    run: Range<usize>,
}

impl<'a, T: Copy> Pool<'a, T> {
    fn new(src: &'a [T], added: usize) -> Self {
        Pool {
            src,
            out: Vec::with_capacity(src.len() + added),
            run: 0..0,
        }
    }

    fn keep(&mut self, off: u32, len: u32) -> u32 {
        if off as usize != self.run.end {
            self.flush();
            self.run = off as usize..off as usize;
        }
        let at = self.out.len() + self.run.len();
        self.run.end += len as usize;
        at as u32
    }

    fn add(&mut self, data: &[T]) -> u32 {
        self.flush();
        self.out.extend_from_slice(data);
        (self.out.len() - data.len()) as u32
    }

    fn flush(&mut self) {
        self.out.extend_from_slice(&self.src[self.run.clone()]);
        self.run.start = self.run.end;
    }

    fn finish(mut self) -> Vec<T> {
        self.flush();
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::proof::verify_proof;
    use parp_crypto::keccak256;

    fn sample_trie(n: u32) -> Trie {
        let mut trie = Trie::new();
        for i in 0..n {
            let key = keccak256(&i.to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), format!("value-{i}").into_bytes());
        }
        trie
    }

    #[test]
    fn frozen_proofs_match_trie_proofs() {
        let trie = sample_trie(500);
        let frozen = FrozenTrie::new(trie.clone());
        assert_eq!(frozen.root_hash(), trie.root_hash());
        for i in [0u32, 7, 123, 499, 5000, 5001] {
            // 5000/5001 are absent: exclusion proofs must match too.
            let key = keccak256(&i.to_be_bytes());
            assert_eq!(
                frozen.prove(key.as_bytes()),
                trie.prove(key.as_bytes()),
                "key {i} diverged"
            );
        }
    }

    #[test]
    fn frozen_multiproof_matches_and_verifies() {
        let trie = sample_trie(300);
        let frozen = FrozenTrie::new(trie.clone());
        let keys: Vec<Vec<u8>> = (0..64u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        let frozen_proof = frozen.prove_many(&keys);
        assert_eq!(frozen_proof, trie.prove_many(&keys));
        let results = crate::verify_many(frozen.root_hash(), &keys, &frozen_proof).unwrap();
        assert!(results.iter().all(Option::is_some));
    }

    #[test]
    fn arena_matches_baseline_byte_for_byte() {
        let trie = sample_trie(400);
        let arena = FrozenTrie::new(trie.clone());
        let base = baseline::FrozenTrie::new(trie);
        assert_eq!(arena.root_hash(), base.root_hash());
        let keys: Vec<Vec<u8>> = (0..96u32)
            .map(|i| keccak256(&(i * 7).to_be_bytes()).as_bytes().to_vec())
            .collect();
        for key in &keys {
            assert_eq!(arena.prove(key), base.prove(key));
        }
        assert_eq!(arena.prove_many(&keys), base.prove_many(&keys));
    }

    #[test]
    fn repeated_subtrees_share_one_witness() {
        // Two keys diverging at the first nibble but with identical
        // (≥ 32 byte) tails produce byte-identical leaf encodings at
        // different arena positions. The baseline's hash dedup collapses
        // them in a multiproof; witness ids must do the same.
        let mut trie = Trie::new();
        let tail = [0xabu8; 20];
        let mut key_a = vec![0x10];
        key_a.extend_from_slice(&tail);
        let mut key_b = vec![0x20];
        key_b.extend_from_slice(&tail);
        trie.insert(key_a.clone(), vec![0xcd; 40]);
        trie.insert(key_b.clone(), vec![0xcd; 40]);
        let arena = FrozenTrie::new(trie.clone());
        let base = baseline::FrozenTrie::new(trie);
        let keys = [key_a, key_b];
        let arena_proof = arena.prove_many(&keys);
        assert_eq!(arena_proof, base.prove_many(&keys));
        // Root branch + one shared leaf encoding: the duplicate leaf
        // must not appear twice.
        assert_eq!(arena_proof.len(), 2);
        let results = crate::verify_many(arena.root_hash(), &keys, &arena_proof).unwrap();
        assert!(results.iter().all(Option::is_some));
    }

    #[test]
    fn get_reads_what_the_trie_holds() {
        // Hashed keys with 40-byte values, ordered keys (one a prefix
        // path of the next level) with values short enough to inline.
        let mut ordered = Trie::new();
        for i in 0..300u64 {
            ordered.insert(
                parp_rlp::encode_u64(i),
                vec![(i % 251) as u8 + 1; 1 + (i % 5) as usize],
            );
        }
        for trie in [sample_trie(200), ordered, sample_trie(1), Trie::new()] {
            let frozen = FrozenTrie::new(trie.clone());
            let page = FrozenTrie::from_bytes(&frozen.to_bytes()).unwrap();
            for (key, value) in trie.iter() {
                assert_eq!(frozen.get(&key).as_deref(), Some(value));
                assert_eq!(page.get(&key).as_deref(), Some(value));
                // A longer key is absent; a shorter one is whatever
                // the trie says (another key, or nothing).
                let mut longer = key.clone();
                longer.push(0x11);
                assert_eq!(frozen.get(&longer), None);
                let shorter = &key[..key.len() - 1];
                assert_eq!(frozen.get(shorter).as_deref(), trie.get(shorter));
            }
            assert_eq!(frozen.get(keccak256(b"absent").as_bytes()), None);
            assert_eq!(frozen.get(&[]), None);
        }
    }

    #[test]
    fn multiproof_into_reuses_buffer() {
        let trie = sample_trie(200);
        let frozen = FrozenTrie::new(trie);
        let keys: Vec<Vec<u8>> = (0..48u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        let mut buf = ProofBuf::new();
        frozen.multiproof_into(&keys, &mut buf);
        assert_eq!(buf.to_vecs(), frozen.prove_many(&keys));
        // Reuse with a different key set: cleared, then refilled.
        let other: Vec<Vec<u8>> = (100..120u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        frozen.multiproof_into(&other, &mut buf);
        assert_eq!(buf.to_vecs(), frozen.prove_many(&other));
    }

    #[test]
    fn unreadable_reference_falls_back_to_hashing() {
        let mut frozen = FrozenTrie::new(sample_trie(200));
        let keys: Vec<Vec<u8>> = (0..16u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        // The root's list header turned into a string header: none of
        // its child references can be read any more (the page checks
        // structure, not contents, so a rotten page can look like this).
        let root = frozen.nodes[0];
        frozen.buf[root.enc_off as usize] = 0x80;
        let mut buf = ProofBuf::new();
        frozen.multiproof_into(&keys, &mut buf);
        assert_eq!(buf.len(), frozen.prove_many(&keys).len());
        let hashes: Vec<H256> = buf.hashes().collect();
        assert_eq!(hashes[0], frozen.root_hash());
        for (node, hash) in buf.iter().zip(&hashes).skip(1) {
            assert_eq!(*hash, keccak256(node));
        }
    }

    #[test]
    fn child_reference_reads_each_item_shape() {
        let reference = keccak256(b"child");
        let branch = {
            let mut items = vec![encode_bytes(&[]); 17];
            items[3] = encode_list(&[encode_bytes(&[0x20]), encode_bytes(b"inline")]);
            items[5] = encode_bytes(reference.as_bytes());
            items[16] = encode_bytes(&[0x42; 60]);
            encode_list(&items)
        };
        assert_eq!(child_reference(&branch, 5), Some(reference));
        // Empty slots, an inline node and a long value are not references.
        assert_eq!(child_reference(&branch, 0), None);
        assert_eq!(child_reference(&branch, 3), None);
        assert_eq!(child_reference(&branch, 16), None);
        let extension = encode_list(&[
            encode_bytes(&[0x00, 0x12]),
            encode_bytes(reference.as_bytes()),
        ]);
        assert_eq!(child_reference(&extension, 1), Some(reference));
        // Truncated or non-list encodings never panic.
        assert_eq!(child_reference(&branch[..40], 5), None);
        assert_eq!(child_reference(&[], 0), None);
        assert_eq!(child_reference(&[0x80], 0), None);
    }

    #[test]
    fn small_and_empty_tries() {
        let empty = FrozenTrie::new(Trie::new());
        assert!(empty.is_empty());
        assert_eq!(empty.root_hash(), empty_root());
        assert!(empty.prove(b"anything").is_empty());
        assert_eq!(empty.node_count(), 0);

        let mut one = Trie::new();
        one.insert(b"dog".to_vec(), b"puppy".to_vec());
        let frozen = FrozenTrie::new(one.clone());
        assert_eq!(frozen.len(), 1);
        assert_eq!(frozen.prove(b"dog"), one.prove(b"dog"));
        let value = verify_proof(frozen.root_hash(), b"dog", &frozen.prove(b"dog")).unwrap();
        assert_eq!(value, Some(b"puppy".to_vec()));
    }

    #[test]
    fn serialized_page_round_trips_byte_identically() {
        let trie = sample_trie(400);
        let frozen = FrozenTrie::new(trie);
        let page = frozen.to_bytes();
        let rehydrated = FrozenTrie::from_bytes(&page).expect("own page parses");
        assert_eq!(rehydrated.root_hash(), frozen.root_hash());
        assert_eq!(rehydrated.len(), frozen.len());
        assert_eq!(rehydrated.node_count(), frozen.node_count());
        // Proofs from the rehydrated arena are byte-identical to the
        // in-memory path — single, multi, and zero-copy.
        let keys: Vec<Vec<u8>> = (0..96u32)
            .map(|i| keccak256(&(i * 3).to_be_bytes()).as_bytes().to_vec())
            .collect();
        for key in &keys {
            assert_eq!(rehydrated.prove(key), frozen.prove(key));
        }
        assert_eq!(rehydrated.prove_many(&keys), frozen.prove_many(&keys));
        let (mut a, mut b) = (ProofBuf::new(), ProofBuf::new());
        frozen.multiproof_into(&keys, &mut a);
        rehydrated.multiproof_into(&keys, &mut b);
        assert_eq!(a.to_vecs(), b.to_vecs());
        // Serialization is stable: a second round trip is identical.
        assert_eq!(rehydrated.to_bytes(), page);
    }

    #[test]
    fn empty_trie_page_round_trips() {
        let frozen = FrozenTrie::new(Trie::new());
        let page = frozen.to_bytes();
        let rehydrated = FrozenTrie::from_bytes(&page).expect("empty page parses");
        assert!(rehydrated.is_empty());
        assert_eq!(rehydrated.root_hash(), empty_root());
        assert!(rehydrated.prove(b"anything").is_empty());
    }

    #[test]
    fn mem_bytes_tracks_arena_size() {
        let small = FrozenTrie::new(sample_trie(10));
        let large = FrozenTrie::new(sample_trie(1_000));
        assert!(small.mem_bytes() >= std::mem::size_of::<FrozenTrie>());
        assert_eq!(FrozenTrie::new(Trie::new()).mem_bytes(), ARENA_HEADER_BYTES);
        assert!(large.mem_bytes() > small.mem_bytes());
        // A rehydrated page reports the same measured size.
        let rehydrated = FrozenTrie::from_bytes(&large.to_bytes()).unwrap();
        assert_eq!(rehydrated.mem_bytes(), large.mem_bytes());
    }

    #[test]
    fn malformed_pages_are_rejected_not_panics() {
        let page = FrozenTrie::new(sample_trie(50)).to_bytes();
        // Truncations at every prefix length parse as None or, at full
        // length, Some — never a panic.
        for cut in 0..page.len() {
            assert!(FrozenTrie::from_bytes(&page[..cut]).is_none(), "cut {cut}");
        }
        // Single-byte corruptions either fail to parse or yield an
        // arena whose walks stay in bounds.
        for pos in (0..page.len()).step_by(7) {
            let mut bad = page.clone();
            bad[pos] ^= 0xFF;
            if let Some(trie) = FrozenTrie::from_bytes(&bad) {
                let key = keccak256(&7u32.to_be_bytes());
                let _ = trie.prove(key.as_bytes());
            }
        }
        assert!(FrozenTrie::from_bytes(b"").is_none());
        assert!(FrozenTrie::from_bytes(b"nope").is_none());
    }

    #[test]
    fn frozen_proof_is_much_cheaper_than_walking() {
        // Structural sanity rather than a timing assertion: the frozen
        // walk performs O(depth) index chases, so proving every key in a
        // large trie stays well under the quadratic re-encoding cost.
        // (The trie_hotpath bench measures the actual speedup.)
        let trie = sample_trie(2_000);
        let frozen = FrozenTrie::new(trie);
        let keys: Vec<Vec<u8>> = (0..2_000u32)
            .map(|i| keccak256(&i.to_be_bytes()).as_bytes().to_vec())
            .collect();
        let proof = frozen.prove_many(&keys);
        assert!(!proof.is_empty());
        assert!(frozen.node_count() >= 2_000);
    }
}
