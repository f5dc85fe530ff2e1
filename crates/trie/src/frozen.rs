//! A trie frozen into an arena for serving: node encodings laid out in
//! shared pages, proofs in O(depth) with zero hashing.
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
//! A [`FrozenTrie`] holds an arena instead:
//!
//! * a node table ([`ArenaNode`] is a few words; children are `u32`
//!   arena ids, not boxes), so a proof walk is index chasing;
//! * an encoding buffer, with each node holding an `(offset, len)` range
//!   — recorded proof nodes are slices, copied at most once into the
//!   caller's [`ProofBuf`].
//!
//! A multiproof needs no hashing either: each recorded node's hash is the
//! reference its parent's encoding already holds, and
//! [`FrozenTrie::prove_many`] deduplicates across keys on that hash —
//! the same rule, byte-identical encodings recorded once, that
//! [`crate::Trie::prove_many`] applies by keccak.
//!
//! The proof bytes are **identical** to [`crate::Trie::prove`] and to
//! the retained baseline — the arena changes where encodings come from,
//! never what they are — so frozen proofs verify (and fraud-check)
//! interchangeably with unfrozen ones. This is the shape the chain's
//! head state and the serving runtime share behind one `Arc`: a walk
//! chases arena ids and only the final emit touches bytes.
//!
//! # One writer: deriving
//!
//! The node table, the child-id and path pools and the encoding buffer
//! are each stored as fixed-size pages behind [`Arc`] (3–4 KiB; a
//! node's encoding, child slots and path never straddle two pages).
//!
//! A frozen arena is immutable, and only [`FrozenTrie::derive`] writes
//! one: it produces the arena of the updated trie from a parent arena
//! and a set of `(key, value)` upserts. It decodes only the nodes on the
//! upserted keys' spines into an editable overlay, applies the inserts
//! there (splitting leaves and extensions exactly as [`Trie::insert`]
//! does), encodes and hashes each touched node once, bottom-up — an
//! untouched child's reference is the hash already embedded in its old
//! parent's encoding, never a fresh keccak. The result starts as a copy
//! of the parent's page *lists*: it copies only the pages whose node
//! records or child slots change, and the last page of a pool it appends
//! to, sharing every other page with its parent. The cost is
//! O(dirty · depth) nodes hashed and pages copied, against O(n) for a
//! build from scratch. A build from scratch — [`FrozenTrie::from_iter`]
//! over pairs, or [`FrozenTrie::new`] over a [`Trie`]'s — is the same
//! derive run over the empty arena.
//!
//! A replaced encoding stays where it is, **superseded**: the derived
//! arena still holds its bytes, and [`FrozenTrie::superseded_bytes`]
//! counts them. A derive that could take them past
//! [`FrozenTrie::LIVE_PER_SUPERSEDED`]'s fraction of the live bytes
//! writes the updated arena compact instead, so a long chain of
//! derivations pays that O(n) copy once per many blocks. A derived arena
//! answers like a build from scratch of the updated contents through its
//! root, length, node count and proofs; only its arena ids and the
//! superseded bytes may differ, and a [`FrozenTrie::to_bytes`] page
//! leaves the superseded bytes out.

use crate::nibbles::{bytes_to_nibbles, common_prefix_len, hp_decode, hp_encode};
use crate::node::empty_root;
use crate::proofbuf::ProofBuf;
use crate::trie::Trie;
use parp_crypto::keccak256;
use parp_primitives::H256;
use parp_rlp::{list_len, write_bytes, write_list_header, Item};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Sentinel arena id marking an absent branch child.
const NO_NODE: u32 = u32::MAX;

/// What [`FrozenTrie::mem_bytes`] charges per arena on top of its
/// pools: the struct and the bookkeeping of its page lists. A constant,
/// not `size_of::<Self>()`, so that byte budgets — and the recorded
/// deep-history replay, whose spill pattern under a 1 KiB budget this
/// decides — do not shift when a field comes or goes.
const ARENA_HEADER_BYTES: usize = 192;

/// Magic prefix of a serialized arena page ([`FrozenTrie::to_bytes`]).
const PAGE_MAGIC: &[u8] = b"PFT2";

/// Bytes of one node record in a serialized page: kind, encoding length
/// and path length.
const RECORD_BYTES: usize = 9;

/// Log2 of the elements per page of each pool: 128 node records
/// (3 KiB), 1,024 child slots and 4,096 path or encoding bytes (4 KiB).
const NODE_PAGE_SHIFT: u32 = 7;
const SLOT_PAGE_SHIFT: u32 = 10;
const BYTE_PAGE_SHIFT: u32 = 12;

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

/// What an arena node is; the walk only needs the shape, never a boxed
/// tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Kind {
    #[default]
    Leaf,
    Extension,
    Branch,
}

/// One arena node: encoding range, children ids and walk
/// metadata, all as offsets into the arena's pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ArenaNode {
    kind: Kind,
    /// Range of this node's canonical RLP encoding in the encoding
    /// buffer.
    enc_off: u32,
    enc_len: u32,
    /// Extension: one slot in the children pool; branch: 16 slots
    /// (absent children hold [`NO_NODE`]); leaf: unused.
    child_off: u32,
    /// Extension: nibble-path range in the path pool; leaf/branch:
    /// unused (a proof walk never compares a leaf's path).
    path_off: u32,
    path_len: u32,
}

impl ArenaNode {
    /// Child slots the node holds in the children pool.
    fn slots(&self) -> u32 {
        match self.kind {
            Kind::Leaf => 0,
            Kind::Extension => 1,
            Kind::Branch => 16,
        }
    }

    /// Pool bytes the node's ranges cover: its encoding, slots and path.
    fn pool_bytes(&self) -> usize {
        self.enc_len as usize + self.slots() as usize * 4 + self.path_len as usize
    }
}

/// One pool of an arena, stored as pages of `1 << SHIFT` elements
/// behind [`Arc`] so that a derived arena shares every page it does not
/// write with its parent.
///
/// An offset is the page's index times the page size plus the position
/// in the page. [`Paged::push`] never lets a run straddle two pages — a
/// run that does not fit the last page opens the next, and one longer
/// than a page gets a page of its own — so every run reads back as one
/// slice. A page is as long as the run that opens it and at least
/// doubles whenever a later run does not fit, up to the page size, so
/// that a small arena holds little more than its elements; the
/// elements past the runs pushed onto a page are filler no offset
/// points at.
#[derive(Debug, Clone)]
struct Paged<T, const SHIFT: u32> {
    pages: Vec<Arc<[T]>>,
    /// Elements pushed onto the last page.
    tail: usize,
    /// Elements pushed, over all pages (the slack a page leaves at its
    /// end, where the next run did not fit, is not counted).
    len: usize,
}

impl<T, const SHIFT: u32> Default for Paged<T, SHIFT> {
    fn default() -> Self {
        Paged {
            pages: Vec::new(),
            tail: 0,
            len: 0,
        }
    }
}

impl<T: Copy + Default, const SHIFT: u32> Paged<T, SHIFT> {
    const CAP: usize = 1 << SHIFT;

    fn page_of(off: u32) -> usize {
        (off >> SHIFT) as usize
    }

    fn in_page(off: u32) -> usize {
        off as usize & (Self::CAP - 1)
    }

    fn get(&self, i: u32) -> T {
        self.pages[Self::page_of(i)][Self::in_page(i)]
    }

    fn slice(&self, off: u32, len: u32) -> &[T] {
        let at = Self::in_page(off);
        &self.pages[Self::page_of(off)][at..at + len as usize]
    }

    /// The run at `off` for writing, its page copied first when another
    /// arena holds it too.
    fn slice_mut(&mut self, off: u32, len: u32) -> &mut [T] {
        let at = Self::in_page(off);
        &mut Arc::make_mut(&mut self.pages[Self::page_of(off)])[at..at + len as usize]
    }

    fn get_mut(&mut self, i: u32) -> &mut T {
        &mut self.slice_mut(i, 1)[0]
    }

    /// Where a run of `len` elements pushed now would start.
    fn next_offset(&self, len: usize) -> u32 {
        if !self.pages.is_empty() && self.tail + len.max(1) <= Self::CAP {
            (((self.pages.len() - 1) << SHIFT) | self.tail) as u32
        } else {
            (self.pages.len() << SHIFT) as u32
        }
    }

    /// Appends `data` as one run and returns its offset: on the last
    /// page when it fits there (copying that page first when it is
    /// shared, growing it when it is short), on a fresh page otherwise.
    fn push(&mut self, data: &[T]) -> u32 {
        let off = self.next_offset(data.len());
        self.len += data.len();
        if Self::page_of(off) == self.pages.len() {
            self.pages.push(Arc::from(data));
            self.tail = data.len();
            return off;
        }
        let last = self.pages.len() - 1;
        let end = self.tail + data.len();
        if self.pages[last].len() < end {
            let size = (2 * self.pages[last].len())
                .clamp(Self::CAP / 16, Self::CAP)
                .max(end);
            let mut grown = Vec::with_capacity(size);
            grown.extend_from_slice(&self.pages[last][..self.tail]);
            grown.resize(size, T::default());
            self.pages[last] = Arc::from(grown);
        }
        Arc::make_mut(&mut self.pages[last])[self.tail..end].copy_from_slice(data);
        self.tail = end;
        off
    }

    /// Every element, in order, of a pool pushed one element at a time
    /// (so that no page but the last has slack).
    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        let elements = self.pages.iter().flat_map(|page| page.iter().copied());
        elements.take(self.len)
    }

    /// Bytes of this pool's pages that `other` does not hold as well.
    fn unshared_bytes(&self, other: &Self) -> usize {
        self.pages
            .iter()
            .enumerate()
            .filter(|&(i, page)| other.pages.get(i).is_none_or(|o| !Arc::ptr_eq(page, o)))
            .map(|(_, page)| page.len() * std::mem::size_of::<T>())
            .sum()
    }
}

/// Hashes what is spread already — a node hash, by its first eight
/// bytes, or an arena id — mixed with a per-process random seed by one
/// multiply, so that which keys share a bucket cannot be worked out
/// from outside (account keys, and so node hashes, are chosen by users).
struct SpreadHasher(u64);

impl Hasher for SpreadHasher {
    fn finish(&self) -> u64 {
        let mixed = self.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mixed ^ (mixed >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        let head = bytes.first_chunk::<8>().copied().unwrap_or_default();
        self.0 ^= u64::from_le_bytes(head);
    }

    fn write_u32(&mut self, id: u32) {
        self.0 ^= u64::from(id);
    }

    /// A hash's length prefix, the same for every key.
    fn write_usize(&mut self, _: usize) {}
}

/// Builds [`SpreadHasher`]s from the process's seed.
#[derive(Clone, Copy)]
struct Spread(u64);

impl Default for Spread {
    fn default() -> Self {
        static SEED: OnceLock<u64> = OnceLock::new();
        Spread(*SEED.get_or_init(|| RandomState::new().hash_one(())))
    }
}

impl BuildHasher for Spread {
    type Hasher = SpreadHasher;

    fn build_hasher(&self) -> SpreadHasher {
        SpreadHasher(self.0)
    }
}

/// A trie held in a paged arena for O(depth), allocation-light proof
/// serving.
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
/// // The same arena as collecting the pairs straight into one.
/// let pairs = (0..100u32).map(|i| (i.to_be_bytes(), format!("v{i}")));
/// assert_eq!(pairs.collect::<FrozenTrie>().to_bytes(), frozen.to_bytes());
/// let key = 42u32.to_be_bytes();
/// // Same bytes as Trie::prove, at O(depth) instead of O(trie) cost.
/// assert_eq!(frozen.prove(&key), trie.prove(&key));
/// assert_eq!(frozen.root_hash(), trie.root_hash());
///
/// // The next version of the trie, without re-hashing what did not change.
/// let next = frozen.derive([(key, b"changed")]).expect("the arena's own nodes decode");
/// trie.insert(key.to_vec(), b"changed".to_vec());
/// assert_eq!(next.root_hash(), trie.root_hash());
/// assert_eq!(next.prove(&key), trie.prove(&key));
/// ```
#[derive(Debug, Clone)]
pub struct FrozenTrie {
    root: H256,
    /// Key/value pair count.
    len: usize,
    nodes: Paged<ArenaNode, NODE_PAGE_SHIFT>,
    /// Child-id pool: 16 slots per branch, 1 per extension.
    children: Paged<u32, SLOT_PAGE_SHIFT>,
    /// Nibble-path pool for extension nodes.
    paths: Paged<u8, BYTE_PAGE_SHIFT>,
    /// Node encodings.
    buf: Paged<u8, BYTE_PAGE_SHIFT>,
    /// Pool bytes some node's ranges cover; the pools' other bytes are
    /// superseded.
    live: usize,
}

impl FrozenTrie {
    /// A derived arena's live bytes are at least this many times its
    /// superseded ones: `superseded_bytes() × LIVE_PER_SUPERSEDED ≤
    /// mem_bytes() − superseded_bytes()`. A derivation that would pass
    /// the bound writes a compact arena instead.
    pub const LIVE_PER_SUPERSEDED: usize = 8;

    /// Freezes `trie`: the arena [`FrozenTrie::from_iter`] builds from
    /// its pairs. The boxed tree is dropped: the arena alone serves
    /// proofs and [`FrozenTrie::derive`]s successors.
    pub fn new(trie: Trie) -> Self {
        trie.iter().collect()
    }

    /// The arena of the empty trie, which every other arena is derived
    /// from.
    fn empty() -> Self {
        FrozenTrie {
            root: empty_root(),
            len: 0,
            nodes: Paged::default(),
            children: Paged::default(),
            paths: Paged::default(),
            buf: Paged::default(),
            live: 0,
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

    /// The Merkle root, computed when the arena was written.
    pub fn root_hash(&self) -> H256 {
        self.root
    }

    /// Number of arena nodes: the bound every id accepted by
    /// [`FrozenTrie::node_bytes`] is below.
    pub fn node_count(&self) -> usize {
        self.nodes.len
    }

    /// Bytes the child, path and encoding pools hold, superseded ones
    /// included.
    fn pool_bytes(&self) -> usize {
        self.children.len * 4 + self.paths.len + self.buf.len
    }

    /// Measured size of the arena in bytes: the node table, the child
    /// and nibble-path pools and the encoding buffer — superseded bytes
    /// included — plus a fixed charge for the struct itself. No boxed
    /// tree is retained, so this is what a byte-budgeted cache should
    /// account. Pages shared with another arena are counted by both.
    pub fn mem_bytes(&self) -> usize {
        ARENA_HEADER_BYTES + self.nodes.len * std::mem::size_of::<ArenaNode>() + self.pool_bytes()
    }

    /// Bytes [`FrozenTrie::mem_bytes`] counts that no node refers to
    /// any more: encodings, child slots and paths a
    /// [`FrozenTrie::derive`] replaced and left in place. Zero for a
    /// build from scratch and a rehydrated page; bounded by
    /// [`FrozenTrie::LIVE_PER_SUPERSEDED`].
    pub fn superseded_bytes(&self) -> usize {
        self.pool_bytes() - self.live
    }

    /// Bytes of this arena's pages that `other` does not hold as well —
    /// for an arena derived from `other`, what the derivation copied
    /// or wrote.
    pub fn bytes_not_shared_with(&self, other: &FrozenTrie) -> usize {
        self.nodes.unshared_bytes(&other.nodes)
            + self.children.unshared_bytes(&other.children)
            + self.paths.unshared_bytes(&other.paths)
            + self.buf.unshared_bytes(&other.buf)
    }

    /// Serializes the arena (root, key count, node records and the
    /// ranges they cover, in id order) into a flat byte page suitable
    /// for spilling to disk. Superseded bytes are left out.
    ///
    /// [`FrozenTrie::from_bytes`] inverts this, and the rehydrated
    /// trie's proofs are byte-identical to the original's.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.mem_bytes());
        let (mut slots, mut nibbles) = (0u32, 0u32);
        for node in self.nodes.iter() {
            slots += node.slots();
            nibbles += node.path_len;
        }
        out.extend_from_slice(PAGE_MAGIC);
        out.extend_from_slice(self.root.as_bytes());
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for count in [self.nodes.len as u32, slots, nibbles] {
            out.extend_from_slice(&count.to_le_bytes());
        }
        for node in self.nodes.iter() {
            out.push(match node.kind {
                Kind::Leaf => 0,
                Kind::Extension => 1,
                Kind::Branch => 2,
            });
            out.extend_from_slice(&node.enc_len.to_le_bytes());
            out.extend_from_slice(&node.path_len.to_le_bytes());
        }
        for node in self.nodes.iter().filter(|node| node.slots() > 0) {
            for &child in self.children.slice(node.child_off, node.slots()) {
                out.extend_from_slice(&child.to_le_bytes());
            }
        }
        for node in self.nodes.iter().filter(|node| node.path_len > 0) {
            out.extend_from_slice(self.paths.slice(node.path_off, node.path_len));
        }
        for node in self.nodes.iter() {
            out.extend_from_slice(self.buf.slice(node.enc_off, node.enc_len));
        }
        out
    }

    /// Rehydrates a trie from a [`FrozenTrie::to_bytes`] page.
    ///
    /// Returns `None` when the page is malformed: the node records must
    /// account for every byte of the page, and every child id must name
    /// a node, so that proof walks over a page read from disk can never
    /// panic or loop, even on corrupt input. The rehydrated instance's
    /// proofs are byte-identical to the original's.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut reader = Reader { bytes, pos: 0 };
        if reader.take(PAGE_MAGIC.len())? != PAGE_MAGIC {
            return None;
        }
        let root = H256::from_slice(reader.take(32)?)?;
        let len = u64::from_le_bytes(reader.take(8)?.try_into().ok()?) as usize;
        let node_count = reader.u32()?;
        let slot_count = reader.u32()? as usize;
        let nibble_count = reader.u32()? as usize;

        // Reject a node count that overruns the page before any
        // allocation happens — a corrupt count must not turn into a
        // multi-gigabyte reservation.
        let records = reader.take((node_count as usize).checked_mul(RECORD_BYTES)?)?;
        let mut shapes = Vec::with_capacity(node_count as usize);
        let (mut slots, mut nibbles, mut enc_bytes) = (0usize, 0usize, 0usize);
        for record in records.chunks_exact(RECORD_BYTES) {
            let kind = match record[0] {
                0 => Kind::Leaf,
                1 => Kind::Extension,
                2 => Kind::Branch,
                _ => return None,
            };
            let enc_len = u32::from_le_bytes(record[1..5].try_into().ok()?);
            let path_len = u32::from_le_bytes(record[5..9].try_into().ok()?);
            // Only an extension has a path, and never an empty one: a
            // zero-length extension path would let a crafted page trap a
            // proof walk in a cycle.
            if enc_len == 0 || (kind == Kind::Extension) != (path_len > 0) {
                return None;
            }
            let node = ArenaNode {
                kind,
                enc_off: 0,
                enc_len,
                child_off: 0,
                path_off: 0,
                path_len,
            };
            slots += node.slots() as usize;
            nibbles += path_len as usize;
            enc_bytes += enc_len as usize;
            shapes.push(node);
        }
        if slots != slot_count || nibbles != nibble_count {
            return None;
        }
        let child_bytes = reader.take(slots * 4)?;
        let path_bytes = reader.take(nibbles)?;
        let enc = reader.take(enc_bytes)?;
        if reader.pos != bytes.len() {
            return None;
        }

        let ids: Vec<u32> = child_bytes
            .chunks_exact(4)
            .map(|word| u32::from_le_bytes([word[0], word[1], word[2], word[3]]))
            .collect();
        let mut children = Pool::new(&ids[..]);
        let mut paths = Pool::new(path_bytes);
        let mut buf = Pool::new(enc);
        let (mut slot_at, mut path_at, mut enc_at) = (0u32, 0u32, 0u32);
        for node in &mut shapes {
            let held = node.slots();
            if held > 0 {
                let range = slot_at as usize..(slot_at + held) as usize;
                // An extension always has a child; a branch may not.
                let dangling = |&child: &u32| {
                    child >= node_count && (child != NO_NODE || node.kind == Kind::Extension)
                };
                if ids[range].iter().any(dangling) {
                    return None;
                }
                node.child_off = children.keep(slot_at, held);
                slot_at += held;
            }
            if node.path_len > 0 {
                node.path_off = paths.keep(path_at, node.path_len);
                path_at += node.path_len;
            }
            node.enc_off = buf.keep(enc_at, node.enc_len);
            enc_at += node.enc_len;
        }
        let mut frozen = FrozenTrie {
            root,
            len,
            nodes: Paged::default(),
            children: children.finish(),
            paths: paths.finish(),
            buf: buf.finish(),
            live: 0,
        };
        // Whole pages of records: each id lands at its own offset.
        for records in shapes.chunks(Paged::<ArenaNode, NODE_PAGE_SHIFT>::CAP) {
            frozen.nodes.push(records);
        }
        frozen.live = frozen.pool_bytes();
        Some(frozen)
    }

    /// The canonical encoding of arena node `id`, as a slice into the
    /// encoding buffer.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not below [`FrozenTrie::node_count`].
    pub fn node_bytes(&self, id: u32) -> &[u8] {
        self.encoding(&self.nodes.get(id))
    }

    fn encoding(&self, node: &ArenaNode) -> &[u8] {
        self.buf.slice(node.enc_off, node.enc_len)
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
        let is_leaf = self.nodes.get(id).kind == Kind::Leaf;
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

    /// Walks from the root along `key`, calling `visit(node, via)` on
    /// every node reached, in order: `via` is `None` at the root and
    /// otherwise the index of the item that holds this node's reference
    /// in its parent's encoding — the node visited just before it. Returns the
    /// arena id of the node the key's value would sit in — the leaf the
    /// walk ended on, or the branch at which the key ran out — with the
    /// key nibbles consumed before it; `None` when the walk fell off the
    /// trie first.
    fn walk(
        &self,
        key: &[u8],
        mut visit: impl FnMut(&ArenaNode, Option<usize>),
    ) -> Option<(u32, usize)> {
        if self.nodes.len == 0 {
            return None;
        }
        let nib_len = key.len() * 2;
        let mut id = 0u32;
        let mut consumed = 0usize;
        let mut via = None;
        loop {
            let node = self.nodes.get(id);
            visit(&node, via);
            match node.kind {
                Kind::Leaf => return Some((id, consumed)),
                Kind::Extension => {
                    let path = self.paths.slice(node.path_off, node.path_len);
                    if nib_len - consumed < path.len()
                        || !path
                            .iter()
                            .enumerate()
                            .all(|(i, &p)| nibble_at(key, consumed + i) == p)
                    {
                        return None;
                    }
                    consumed += path.len();
                    via = Some(1);
                    id = self.children.get(node.child_off);
                }
                Kind::Branch => {
                    if consumed == nib_len {
                        return Some((id, consumed));
                    }
                    let idx = nibble_at(key, consumed) as usize;
                    consumed += 1;
                    let child = self.children.get(node.child_off + idx as u32);
                    if child == NO_NODE {
                        return None;
                    }
                    via = Some(idx);
                    id = child;
                }
            }
        }
    }

    /// Merkle proof for `key`: byte-identical to [`Trie::prove`], with
    /// every node a slice copy out of the arena's encoding buffer.
    pub fn prove(&self, key: &[u8]) -> Vec<Vec<u8>> {
        let mut proof = Vec::new();
        self.walk(key, |node, via| {
            if recorded(node, via) {
                proof.push(self.encoding(node).to_vec());
            }
        });
        proof
    }

    /// Deduplicated multiproof for `keys`: byte-identical to
    /// [`Trie::prove_many`]. Cross-key dedup is on the hash each node's
    /// parent references it by — no hashing.
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
    /// a rebuild: only the nodes on the upserted keys' spines are
    /// re-encoded and re-hashed, each once, and only the pages holding
    /// their records and changed child slots are copied; every other
    /// page is shared with `self`. Costs O(upserts · depth), against
    /// O(n) nodes hashed for a build from scratch — plus, once the
    /// superseded bytes pass [`FrozenTrie::LIVE_PER_SUPERSEDED`]'s
    /// bound, one compacting O(n) copy.
    ///
    /// The result is indistinguishable from a build from scratch of the
    /// updated contents ([`FrozenTrie::from_iter`]) through `root_hash`,
    /// `len`, `node_count`, `prove`, `prove_many` / `multiproof_into` and
    /// a [`FrozenTrie::to_bytes`] round trip. It does not depend on `self`
    /// staying alive: shared pages live as long as either arena does.
    ///
    /// Returns `None` when a node on a touched spine is not node RLP —
    /// which only a corrupted page can cause ([`FrozenTrie::from_bytes`]
    /// checks a page's structure, not its contents); a build from
    /// scratch of the updated contents is then the way to the new arena.
    /// Derived from the empty arena, it is always `Some`.
    ///
    /// # Panics
    ///
    /// Panics when a value is empty, as [`Trie::insert`] does.
    pub fn derive<I, K, V>(&self, upserts: I) -> Option<FrozenTrie>
    where
        I: IntoIterator<Item = (K, V)>,
        K: AsRef<[u8]>,
        V: AsRef<[u8]>,
    {
        let mut overlay = Overlay::new(self);
        for (key, value) in upserts {
            let value = value.as_ref();
            assert!(!value.is_empty(), "empty values are not representable");
            overlay.upsert(&bytes_to_nibbles(key.as_ref()), value)?;
        }
        if overlay.work.is_empty() {
            return Some(self.clone());
        }
        overlay.encode(0, 0)?;
        Some(if overlay.fits() {
            overlay.apply()
        } else {
            overlay.emit()
        })
    }

    /// Walks every key and emits each recorded node once — the first
    /// time its hash comes up — with that hash, in the exact order
    /// [`Trie::prove_many`] produces.
    fn for_each_multiproof_node<I, K, F>(&self, keys: I, mut emit: F)
    where
        I: IntoIterator<Item = K>,
        K: AsRef<[u8]>,
        F: FnMut(&[u8], H256),
    {
        let keys = keys.into_iter();
        // Room for a few distinct nodes a key, so that a batch rarely
        // grows the set.
        let mut seen: HashSet<H256, Spread> =
            HashSet::with_capacity_and_hasher(4 * keys.size_hint().0, Spread::default());
        for key in keys {
            let mut above: &[u8] = &[];
            self.walk(key.as_ref(), |node, via| {
                let bytes = self.encoding(node);
                let parent = std::mem::replace(&mut above, bytes);
                if !recorded(node, via) {
                    return;
                }
                let hash = match via {
                    // Every walk starts at the root: recorded by the first.
                    None if !seen.is_empty() => return,
                    None => self.root,
                    Some(item) => child_reference(parent, item).unwrap_or_else(|| keccak256(bytes)),
                };
                if seen.insert(hash) {
                    emit(bytes, hash);
                }
            });
        }
    }
}

/// Whether a proof records `node`: the root always, any other node when
/// its parent references it by hash (an encoding of 32 bytes or more) —
/// shorter ones travel inline in their parent.
fn recorded(node: &ArenaNode, via: Option<usize>) -> bool {
    node.enc_len >= 32 || via.is_none()
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

/// Builds the arena of `(key, value)` pairs: [`FrozenTrie::derive`] over
/// the empty arena, so a repeated key keeps its last value, order does
/// not matter, and an empty value panics as [`Trie::insert`] does. No
/// pairs give the empty trie, rooted at [`empty_root`].
///
/// # Examples
///
/// ```
/// use parp_trie::{FrozenTrie, Trie};
///
/// let pairs: [(&[u8], &[u8]); 3] =
///     [(b"dog", b"puppy"), (b"doe", b"deer"), (b"dog", b"hound")];
/// let frozen: FrozenTrie = pairs.into_iter().collect();
/// let trie: Trie = pairs.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
/// assert_eq!(frozen.len(), 2);
/// assert_eq!(frozen.root_hash(), trie.root_hash());
/// assert_eq!(frozen.prove(b"dog"), trie.prove(b"dog"));
/// ```
impl<K: AsRef<[u8]>, V: AsRef<[u8]>> FromIterator<(K, V)> for FrozenTrie {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        FrozenTrie::empty()
            .derive(pairs)
            .expect("an empty arena has no node to decode")
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

/// One touched node of an overlay.
struct Touched {
    id: u32,
    node: Work,
    /// Canonical encoding; empty until `encode` reaches the node.
    encoding: Vec<u8>,
    /// Its keccak, when it is referenced by hash or is the root.
    hash: H256,
}

impl Touched {
    /// Pool bytes the node's record will cover (see
    /// [`ArenaNode::pool_bytes`]).
    fn pool_bytes(&self) -> usize {
        self.encoding.len()
            + match &self.node {
                Work::Leaf { .. } => 0,
                Work::Extension { path, .. } => 4 + path.len(),
                Work::Branch { .. } => 16 * 4,
            }
    }
}

/// Derive-pass scratch: the parent arena plus a sparse overlay of the
/// nodes the upserts touch.
///
/// A node that is replaced (a split leaf or extension) hands its arena
/// id to the top node of what replaces it, so no id ever dies, no
/// parent's child slot ever needs re-pointing, and the root stays id 0;
/// nodes the upserts create take fresh ids past the parent's, in order.
struct Overlay<'a> {
    parent: &'a FrozenTrie,
    /// Touched arena id → its index in `work`.
    slot: HashMap<u32, usize, Spread>,
    work: Vec<Touched>,
    /// For the untouched children of touched nodes: the hash the old
    /// parent's encoding references each by, read when it was decoded.
    hashes: HashMap<u32, H256, Spread>,
    /// The id the next created node takes.
    next_id: u32,
    /// Keys the upserts added (as opposed to overwrote).
    added: usize,
}

impl<'a> Overlay<'a> {
    fn new(parent: &'a FrozenTrie) -> Self {
        Overlay {
            parent,
            slot: HashMap::default(),
            work: Vec::new(),
            hashes: HashMap::default(),
            next_id: parent.nodes.len as u32,
            added: 0,
        }
    }

    fn touch(&mut self, id: u32, node: Work) -> usize {
        self.slot.insert(id, self.work.len());
        self.work.push(Touched {
            id,
            node,
            encoding: Vec::new(),
            hash: H256::default(),
        });
        self.work.len() - 1
    }

    /// Gives `node` a fresh arena id.
    fn create(&mut self, node: Work) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.touch(id, node);
        id
    }

    /// The overlay index of arena node `id`, decoding it out of the
    /// parent on first touch (which also records the hashes the old
    /// encoding references its children by). `None` when the encoding
    /// is not the node RLP its record says it is.
    fn edit(&mut self, id: u32) -> Option<usize> {
        if let Some(&at) = self.slot.get(&id) {
            return Some(at);
        }
        let parent = self.parent;
        let node = parent.nodes.get(id);
        let arity = if node.kind == Kind::Branch { 17 } else { 2 };
        let items = parp_rlp::decode_list_of(parent.node_bytes(id), arity).ok()?;
        let mut note_child = |child: u32, reference: &Item| {
            // A 32-byte string is a hash reference; anything else is an
            // embedded (< 32 byte) child, referenced by its own bytes.
            if let Some(hash) = reference.as_bytes().ok().and_then(H256::from_slice) {
                self.hashes.insert(child, hash);
            }
        };
        let decoded = match node.kind {
            Kind::Leaf => Work::Leaf {
                path: hp_decode(items[0].as_bytes().ok()?)?.0,
                value: items[1].as_bytes().ok()?.to_vec(),
            },
            Kind::Extension => {
                let child = parent.children.get(node.child_off);
                note_child(child, &items[1]);
                Work::Extension {
                    path: parent.paths.slice(node.path_off, node.path_len).to_vec(),
                    child,
                }
            }
            Kind::Branch => {
                let mut children = [NO_NODE; 16];
                children.copy_from_slice(parent.children.slice(node.child_off, 16));
                for (&child, reference) in children.iter().zip(&items) {
                    if child != NO_NODE {
                        note_child(child, reference);
                    }
                }
                let value = items[16].as_bytes().ok()?;
                Work::Branch {
                    children,
                    value: (!value.is_empty()).then(|| value.to_vec()),
                }
            }
        };
        Some(self.touch(id, decoded))
    }

    /// Inserts or replaces one key (as nibbles), mirroring
    /// [`Trie::insert`] node for node. `None` when a node on the way
    /// does not decode.
    fn upsert(&mut self, key: &[u8], value: &[u8]) -> Option<()> {
        if self.next_id == 0 {
            self.create(Work::Leaf {
                path: key.to_vec(),
                value: value.to_vec(),
            });
            self.added += 1;
            return Some(());
        }
        let mut id = 0u32;
        let mut rest = key;
        loop {
            let at = self.edit(id)?;
            // What sits at `id` besides the new key, if the two part
            // ways here: its path and what hangs below the fork.
            let (old_path, old) = match &mut self.work[at].node {
                Work::Branch {
                    children,
                    value: slot,
                } => {
                    let Some((&nibble, below)) = rest.split_first() else {
                        self.added += usize::from(slot.is_none());
                        *slot = Some(value.to_vec());
                        return Some(());
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
                    if let Work::Branch { children, .. } = &mut self.work[at].node {
                        children[nibble as usize] = leaf;
                    }
                    self.added += 1;
                    return Some(());
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
                        return Some(());
                    }
                    (std::mem::take(path), Below::Value(std::mem::take(slot)))
                }
            };
            self.fork(at, &old_path, old, rest, value);
            self.added += 1;
            return Some(());
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
        self.work[at].node = if shared == 0 {
            branch
        } else {
            Work::Extension {
                path: new_path[..shared].to_vec(),
                child: self.create(branch),
            }
        };
    }

    /// Appends the parent-embedded reference of node `id` to `out` — its
    /// encoding when shorter than 32 bytes, its RLP-wrapped hash
    /// otherwise: a touched node's new encoding or hash, an untouched
    /// one's old encoding or the hash its old parent referenced it by
    /// (hashed afresh only if that parent held none).
    fn write_reference(&self, id: u32, out: &mut Vec<u8>) {
        let (encoded, hash) = match self.slot.get(&id) {
            Some(&at) => (&self.work[at].encoding[..], Some(self.work[at].hash)),
            None => (self.parent.node_bytes(id), self.hashes.get(&id).copied()),
        };
        if encoded.len() < 32 {
            out.extend_from_slice(encoded);
        } else {
            write_bytes(hash.unwrap_or_else(|| keccak256(encoded)).as_bytes(), out);
        }
    }

    /// Encodes and hashes the touched nodes at and below `id`, children
    /// first, each exactly once. `None` when the child ids loop back
    /// (only a crafted page can): no path through distinct touched nodes
    /// is longer than there are touched nodes.
    fn encode(&mut self, id: u32, depth: usize) -> Option<()> {
        let Some(&at) = self.slot.get(&id) else {
            return Some(());
        };
        if !self.work[at].encoding.is_empty() {
            return Some(());
        }
        if depth > self.work.len() {
            return None;
        }
        let below = match &self.work[at].node {
            Work::Leaf { .. } => [NO_NODE; 16],
            Work::Extension { child, .. } => {
                let mut one = [NO_NODE; 16];
                one[0] = *child;
                one
            }
            Work::Branch { children, .. } => *children,
        };
        for child in below {
            if child != NO_NODE {
                self.encode(child, depth + 1)?;
            }
        }
        // One buffer for all of a node's items: a build from scratch
        // encodes every node of the trie here, so per-item allocations
        // would add up.
        let mut items = Vec::new();
        match &self.work[at].node {
            Work::Leaf { path, value } => {
                write_bytes(&hp_encode(path, true), &mut items);
                write_bytes(value, &mut items);
            }
            Work::Extension { path, child } => {
                write_bytes(&hp_encode(path, false), &mut items);
                self.write_reference(*child, &mut items);
            }
            Work::Branch { children, value } => {
                for &child in children {
                    match child {
                        NO_NODE => write_bytes(&[], &mut items),
                        child => self.write_reference(child, &mut items),
                    }
                }
                write_bytes(value.as_deref().unwrap_or(&[]), &mut items);
            }
        }
        let mut encoded = Vec::with_capacity(list_len(items.len()));
        write_list_header(items.len(), &mut encoded);
        encoded.extend_from_slice(&items);
        if encoded.len() >= 32 || id == 0 {
            self.work[at].hash = keccak256(&encoded);
        }
        self.work[at].encoding = encoded;
        Some(())
    }

    /// Whether [`Overlay::apply`] keeps the derived arena's superseded
    /// bytes within [`FrozenTrie::LIVE_PER_SUPERSEDED`]'s bound, counting
    /// every byte a touched node held as superseded (`apply` keeps some
    /// of them in use).
    fn fits(&self) -> bool {
        let parent = self.parent;
        let (mut superseded, mut live) = (parent.superseded_bytes(), parent.live);
        for touched in &self.work {
            if touched.id < parent.nodes.len as u32 {
                let old = parent.nodes.get(touched.id).pool_bytes();
                superseded += old;
                live -= old;
            }
            live += touched.pool_bytes();
        }
        let records = self.next_id as usize * std::mem::size_of::<ArenaNode>();
        superseded * FrozenTrie::LIVE_PER_SUPERSEDED <= ARENA_HEADER_BYTES + records + live
    }

    /// The root hash and key count the upserts leave.
    fn root_and_len(&self) -> (H256, usize) {
        let root = self
            .slot
            .get(&0)
            .map_or(self.parent.root, |&at| self.work[at].hash);
        (root, self.parent.len + self.added)
    }

    /// The derived arena: the parent's page lists, with each touched
    /// node's record written in place (a created node's appended) and
    /// its new encoding, slots and path placed by [`FrozenTrie::place`].
    fn apply(self) -> FrozenTrie {
        let parent = self.parent;
        let mut out = parent.clone();
        // Created ids follow the parent's, and `work` holds them in
        // creation order: each one's record is the next to append.
        for touched in &self.work {
            let old = (touched.id < parent.nodes.len as u32).then(|| parent.nodes.get(touched.id));
            let node = out.place(touched, old);
            match old {
                None => {
                    let id = out.nodes.push(&[node]);
                    debug_assert_eq!(id, touched.id, "created ids are appended in order");
                }
                Some(old) if old != node => *out.nodes.get_mut(touched.id) = node,
                Some(_) => {}
            }
        }
        let (root, len) = self.root_and_len();
        FrozenTrie { root, len, ..out }
    }

    /// The derived arena written compact, superseded bytes left behind:
    /// one pass in id order into fresh pages that copies each untouched
    /// node's ranges out of the parent's (adjacent ranges as one run)
    /// and writes each touched node's new ones where it falls. Arena ids
    /// are the same as [`Overlay::apply`] gives them.
    fn emit(self) -> FrozenTrie {
        let parent = self.parent;
        let mut buf = Pool::new(&parent.buf);
        let mut children = Pool::new(&parent.children);
        let mut paths = Pool::new(&parent.paths);
        let mut nodes = Paged::default();
        for id in 0..self.next_id {
            let node = match self.slot.get(&id) {
                None => {
                    let old = parent.nodes.get(id);
                    ArenaNode {
                        enc_off: buf.keep(old.enc_off, old.enc_len),
                        child_off: match old.slots() {
                            0 => 0,
                            slots => children.keep(old.child_off, slots),
                        },
                        path_off: match old.path_len {
                            0 => 0,
                            len => paths.keep(old.path_off, len),
                        },
                        ..old
                    }
                }
                Some(&at) => {
                    let touched = &self.work[at];
                    let mut node = ArenaNode {
                        enc_off: buf.add(&touched.encoding),
                        enc_len: touched.encoding.len() as u32,
                        ..ArenaNode::default()
                    };
                    match &touched.node {
                        Work::Leaf { .. } => {}
                        Work::Extension { path, child } => {
                            node.kind = Kind::Extension;
                            node.child_off = children.add(&[*child]);
                            node.path_off = paths.add(path);
                            node.path_len = path.len() as u32;
                        }
                        Work::Branch { children: ids, .. } => {
                            node.kind = Kind::Branch;
                            node.child_off = children.add(ids);
                        }
                    }
                    node
                }
            };
            nodes.push(&[node]);
        }
        let (root, len) = self.root_and_len();
        let mut frozen = FrozenTrie {
            root,
            len,
            nodes,
            children: children.finish(),
            paths: paths.finish(),
            buf: buf.finish(),
            live: 0,
        };
        frozen.live = frozen.pool_bytes();
        frozen
    }
}

impl FrozenTrie {
    /// Writes a touched node's encoding, child slots and path into the
    /// pools and returns its record. What the node held at its id
    /// before (`old`) is kept where it still serves: an unchanged
    /// encoding, the slots of a node of the same kind (rewritten only
    /// where a child changed) and a path the new one is a prefix of.
    /// Everything else is appended, and what it replaced is superseded.
    fn place(&mut self, touched: &Touched, old: Option<ArenaNode>) -> ArenaNode {
        let encoding = &touched.encoding[..];
        let enc_off = match old {
            Some(old) if self.encoding(&old) == encoding => old.enc_off,
            _ => self.buf.push(encoding),
        };
        let mut node = ArenaNode {
            kind: Kind::Leaf,
            enc_off,
            enc_len: encoding.len() as u32,
            child_off: 0,
            path_off: 0,
            path_len: 0,
        };
        match &touched.node {
            Work::Leaf { .. } => {}
            Work::Extension { path, child } => {
                node.kind = Kind::Extension;
                node.child_off = self.place_slots(old, node.kind, &[*child]);
                node.path_len = path.len() as u32;
                node.path_off = match old {
                    Some(old)
                        if old.kind == Kind::Extension
                            && old.path_len >= node.path_len
                            && self.paths.slice(old.path_off, node.path_len) == path.as_slice() =>
                    {
                        old.path_off
                    }
                    _ => self.paths.push(path),
                };
            }
            Work::Branch { children, .. } => {
                node.kind = Kind::Branch;
                node.child_off = self.place_slots(old, node.kind, children);
            }
        }
        self.live += node.pool_bytes();
        self.live -= old.map_or(0, |old| old.pool_bytes());
        node
    }

    /// The child slots holding `ids` for a node of `kind`: the old
    /// node's when it was of the same kind, fresh ones otherwise.
    fn place_slots(&mut self, old: Option<ArenaNode>, kind: Kind, ids: &[u32]) -> u32 {
        let len = ids.len() as u32;
        match old {
            Some(old) if old.kind == kind => {
                if self.children.slice(old.child_off, len) != ids {
                    self.children
                        .slice_mut(old.child_off, len)
                        .copy_from_slice(ids);
                }
                old.child_off
            }
            _ => self.children.push(ids),
        }
    }
}

/// What a forked leaf or extension carried below its path.
enum Below {
    Value(Vec<u8>),
    Child(u32),
}

/// What a [`Pool`] copies runs out of: an arena's pool, where a run
/// ends at its page's end, or one flat slice.
trait Runs<T> {
    /// Whether a range starting at `off`, where the run that started at
    /// `start` ends, can join that run.
    fn joins(&self, start: u32, off: u32) -> bool;

    fn run(&self, off: u32, len: u32) -> &[T];
}

impl<T: Copy + Default, const SHIFT: u32> Runs<T> for Paged<T, SHIFT> {
    fn joins(&self, start: u32, off: u32) -> bool {
        start >> SHIFT == off >> SHIFT
    }

    fn run(&self, off: u32, len: u32) -> &[T] {
        self.slice(off, len)
    }
}

impl<T> Runs<T> for [T] {
    fn joins(&self, _: u32, _: u32) -> bool {
        true
    }

    fn run(&self, off: u32, len: u32) -> &[T] {
        &self[off as usize..(off + len) as usize]
    }
}

/// A compacting copy into fresh pages: ranges to keep are gathered into
/// runs (a range that starts where the last one ended, and fits on the
/// copy's page beside it, extends it) and copied a run at a time, with
/// new data appended in between. Returned offsets are positions in the
/// copy.
struct Pool<'a, T, R: ?Sized, const SHIFT: u32> {
    src: &'a R,
    out: Paged<T, SHIFT>,
    run: Range<u32>,
    /// Where the run starts in `out`.
    at: u32,
}

impl<'a, T: Copy + Default, R: Runs<T> + ?Sized, const SHIFT: u32> Pool<'a, T, R, SHIFT> {
    fn new(src: &'a R) -> Self {
        Pool {
            src,
            out: Paged::default(),
            run: 0..0,
            at: 0,
        }
    }

    fn keep(&mut self, off: u32, len: u32) -> u32 {
        let run_len = (self.run.end - self.run.start) as usize;
        let extends = run_len > 0
            && off == self.run.end
            && self.src.joins(self.run.start, off)
            && Paged::<T, SHIFT>::in_page(self.at) + run_len + len as usize
                <= Paged::<T, SHIFT>::CAP;
        if !extends {
            self.flush();
            self.run = off..off;
            self.at = self.out.next_offset(len as usize);
        }
        let at = self.at + (off - self.run.start);
        self.run.end += len;
        at
    }

    /// Appends `data`, which the source does not hold.
    fn add(&mut self, data: &[T]) -> u32 {
        self.flush();
        self.out.push(data)
    }

    fn flush(&mut self) {
        let len = self.run.end - self.run.start;
        if len > 0 {
            let at = self.out.push(self.src.run(self.run.start, len));
            debug_assert_eq!(at, self.at, "a run lands where its offsets said");
        }
        self.run.start = self.run.end;
    }

    fn finish(mut self) -> Paged<T, SHIFT> {
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
    use parp_rlp::{encode_bytes, encode_list};

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
        // them in a multiproof; the arena's dedup on the referenced hash
        // must do the same.
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
        let root = frozen.nodes.get(0);
        *frozen.buf.get_mut(root.enc_off) = 0x80;
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
    fn derive_shares_all_but_the_touched_pages() {
        fn pages<T, const S: u32>(pool: &Paged<T, S>, parent: &Paged<T, S>) -> (usize, usize) {
            let shared = (pool.pages.iter().zip(&parent.pages))
                .filter(|(page, old)| Arc::ptr_eq(page, old))
                .count();
            (pool.pages.len(), shared)
        }
        let parent = FrozenTrie::new(sample_trie(10_000));
        let keys = [11u32, 4_321, 9_876].map(|i| keccak256(&i.to_be_bytes()));
        let child = parent
            .derive(keys.iter().map(|key| (key.as_bytes(), b"rewritten")))
            .expect("derives");
        let counts = [
            pages(&child.nodes, &parent.nodes),
            pages(&child.children, &parent.children),
            pages(&child.paths, &parent.paths),
            pages(&child.buf, &parent.buf),
        ];
        let total: usize = counts.iter().map(|(all, _)| all).sum();
        let unshared = total - counts.iter().map(|(_, shared)| shared).sum::<usize>();
        let depth = keys
            .iter()
            .map(|key| parent.prove(key.as_bytes()).len())
            .max()
            .unwrap();
        assert!(total > 300, "{total} pages");
        assert!(
            unshared <= 3 * depth + 4,
            "{unshared} of {total} pages not shared for 3 keys at depth {depth}"
        );
        // The child stands on its own: the parent's pages it shares
        // outlive the parent.
        let proofs = keys.map(|key| child.prove(key.as_bytes()));
        drop(parent);
        for (key, proof) in keys.iter().zip(&proofs) {
            assert_eq!(&child.prove(key.as_bytes()), proof);
            let value = verify_proof(child.root_hash(), key.as_bytes(), proof).unwrap();
            assert_eq!(value.as_deref(), Some(&b"rewritten"[..]));
        }
    }

    #[test]
    fn derive_on_an_undecodable_spine_is_none_not_a_panic() {
        let mut trie = sample_trie(300);
        let fresh = FrozenTrie::new(trie.clone());
        let key = keccak256(&7u32.to_be_bytes());
        trie.insert(key.as_bytes().to_vec(), b"after".to_vec());
        let expected = trie.root_hash();
        let page = fresh.to_bytes();
        // Each spine node in turn, its list header flipped in the page:
        // the page still parses (it checks structure, not contents), but
        // the node no longer decodes.
        let mut spine = Vec::new();
        fresh.walk(key.as_bytes(), |node, _| spine.push(*node));
        let encodings_at = page.len() - fresh.buf.len;
        for node in spine {
            let mut offset = encodings_at;
            for earlier in fresh.nodes.iter().take_while(|n| *n != node) {
                offset += earlier.enc_len as usize;
            }
            let mut bad = page.clone();
            bad[offset] ^= 0x40;
            let rotten = FrozenTrie::from_bytes(&bad).expect("structure is intact");
            let derived = rotten.derive([(key.as_bytes(), b"after")]);
            assert!(derived.is_none());
            // What a caller falls back to: a fresh freeze.
            let next = derived.unwrap_or_else(|| FrozenTrie::new(trie.clone()));
            assert_eq!(next.root_hash(), expected);
        }
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
