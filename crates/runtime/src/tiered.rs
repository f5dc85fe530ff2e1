//! The runtime's one trie cache: a byte-budgeted LRU of frozen tries,
//! measured by [`FrozenTrie::mem_bytes`], whose evicted pages may spill
//! to an append-only [`SpillStore`] and rehydrate on demand.

use parp_chain::{Blockchain, Header, State};
use parp_primitives::H256;
use parp_store::SpillStore;
use parp_telemetry::{Counter, Gauge};
use parp_trie::{FrozenTrie, ProofBuf};
use std::sync::Arc;

/// An LRU of built, [`Arc`]-shared tries keyed by their root hash and
/// bounded by **measured bytes**, not entry counts.
///
/// Every resident trie is accounted at its [`FrozenTrie::mem_bytes`] —
/// the arena, pools and encoding buffer that actually sit in RAM — and
/// when the total exceeds the budget the least recently used tries are
/// evicted. The newest entry is always kept, even when it alone
/// exceeds the budget: a budget of 0 makes a one-slot holder (what
/// [`Runtime::cache`](crate::Runtime::cache) keeps the head state trie
/// in), and a budget smaller than one page degrades to
/// serve-then-evict, not to failure.
///
/// With a spill store, an evicted page is serialized to disk
/// ([`FrozenTrie::to_bytes`]) and a later lookup rehydrates it
/// ([`FrozenTrie::from_bytes`]) with proofs byte-identical to the
/// in-memory original. Without one, an evicted page is dropped and
/// rebuilt on its next miss.
///
/// Content addressing (keys are trie roots) makes every entry, resident
/// or spilled, immutable and forever reusable for its key, so neither
/// tier needs invalidation.
///
/// Hit/miss/spill/rehydrate accounting lives in live [`Counter`]
/// handles a telemetry registry can adopt; the resident footprint is
/// mirrored into a [`Gauge`] after every mutation. Clones share those
/// cells.
#[derive(Debug, Clone)]
pub struct TrieCache {
    /// `(root, trie, measured bytes)` triples, least recently used
    /// first. Growth is bounded by the byte budget: `enforce_budget`
    /// evicts from the front whenever the measured total exceeds it.
    warm: Vec<(H256, Arc<FrozenTrie>, usize)>,
    budget_bytes: usize,
    resident_bytes: usize,
    spill: Option<SpillStore>,
    hits: Counter,
    misses: Counter,
    spills: Counter,
    rehydrates: Counter,
    resident_gauge: Gauge,
}

impl TrieCache {
    /// A cache keeping at most `budget_bytes` of measured trie bytes
    /// resident (and always its newest entry), spilling evicted pages
    /// into `spill` when one is given.
    pub fn new(budget_bytes: usize, spill: Option<SpillStore>) -> Self {
        TrieCache {
            warm: Vec::new(),
            budget_bytes,
            resident_bytes: 0,
            spill,
            hits: Counter::new(),
            misses: Counter::new(),
            spills: Counter::new(),
            rehydrates: Counter::new(),
            resident_gauge: Gauge::new(),
        }
    }

    /// The resident trie for `root`, marking it most recently used and
    /// counting a hit. Never reads the spill store.
    pub(crate) fn get(&mut self, root: &H256) -> Option<Arc<FrozenTrie>> {
        let position = self.warm.iter().position(|(r, _, _)| r == root)?;
        let entry = self.warm.remove(position);
        let trie = entry.1.clone();
        self.warm.push(entry);
        self.hits.inc();
        Some(trie)
    }

    /// Makes `trie` the most recently used entry under `root` (an
    /// existing entry for `root` is replaced) and re-enforces the
    /// budget.
    pub(crate) fn insert(&mut self, root: H256, trie: Arc<FrozenTrie>) {
        debug_assert_eq!(trie.root_hash(), root, "a cached trie must match its key");
        if let Some(position) = self.warm.iter().position(|(r, _, _)| *r == root) {
            let (_, _, bytes) = self.warm.remove(position);
            self.resident_bytes -= bytes;
        }
        let bytes = trie.mem_bytes();
        self.warm.push((root, trie, bytes));
        self.resident_bytes += bytes;
        self.enforce_budget();
    }

    /// The trie for `root`: resident, else rehydrated from the spill
    /// store, else built by `build` (`None` when `build` cannot produce
    /// it). Whatever the source, the trie ends resident and most
    /// recently used. Content addressing makes this correct for any
    /// trie family — state, transaction or receipt — as long as `build`
    /// returns the trie whose root is `root`.
    pub fn get_or_insert_with<F>(&mut self, root: H256, build: F) -> Option<Arc<FrozenTrie>>
    where
        F: FnOnce() -> Option<Arc<FrozenTrie>>,
    {
        if let Some(trie) = self.get(&root) {
            return Some(trie);
        }
        let (trie, counter) = match self.rehydrate(&root) {
            Some(trie) => (trie, &self.rehydrates),
            None => (build()?, &self.misses),
        };
        counter.inc();
        self.insert(root, trie.clone());
        Some(trie)
    }

    /// The trie for `state`: the resident one under its root, else the
    /// state's own memoised trie (the same `Arc`, not a second build).
    pub fn get_or_build(&mut self, state: &State) -> Arc<FrozenTrie> {
        let trie = state.shared_trie();
        self.get_or_insert_with(trie.root_hash(), || Some(trie.clone()))
            .unwrap_or(trie)
    }

    /// A spilled page for `root`, straight from the slice of the record
    /// the store just read and checksummed. A page that fails its
    /// checksum, its decode or its root check (a rotten or torn spill
    /// file) is forgotten, so the caller rebuilds it and its next
    /// eviction appends a fresh record.
    fn rehydrate(&self, root: &H256) -> Option<Arc<FrozenTrie>> {
        let spill = self.spill.as_ref()?;
        let trie = match spill.with_page(root, FrozenTrie::from_bytes) {
            Ok(None) => return None, // never spilled
            Ok(Some(page)) => page.filter(|trie| trie.root_hash() == *root),
            Err(_) => None,
        };
        if trie.is_none() {
            spill.forget(root);
        }
        trie.map(Arc::new)
    }

    /// Evicts least-recently-used tries until the measured resident
    /// total fits the budget (always keeping the newest), spilling
    /// each to the spill store when there is one.
    fn enforce_budget(&mut self) {
        while self.resident_bytes > self.budget_bytes && self.warm.len() > 1 {
            let (root, trie, bytes) = self.warm.remove(0);
            // Content-addressed pages never change: a root already on
            // disk is not written or counted again.
            if let Some(spill) = &self.spill {
                if !spill.contains(&root) && spill.put(root, &trie.to_bytes()).is_ok() {
                    self.spills.inc();
                }
            }
            self.resident_bytes -= bytes;
        }
        self.resident_gauge.set(self.resident_bytes as i64);
    }

    /// Whether a trie for `root` is resident (touches neither the LRU
    /// order nor the counters).
    pub fn contains(&self, root: &H256) -> bool {
        self.warm.iter().any(|(r, _, _)| r == root)
    }

    /// Resident trie count.
    pub fn len(&self) -> usize {
        self.warm.len()
    }

    /// Whether nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.warm.is_empty()
    }

    /// Measured bytes of the resident tries.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Bytes this cache keeps alive in memory: itself, its slots and
    /// every resident trie — including one another owner (a chain's
    /// head state, say) shares and reports too.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.warm.capacity() * std::mem::size_of::<(H256, Arc<FrozenTrie>, usize)>()
            + self.resident_bytes
    }

    /// Whether evicted pages spill to disk.
    pub fn spills_to_disk(&self) -> bool {
        self.spill.is_some()
    }

    /// Bytes the spill store occupies on disk (0 without one).
    pub fn disk_bytes(&self) -> u64 {
        self.spill.as_ref().map_or(0, SpillStore::disk_bytes)
    }

    /// Lookups served from a resident trie.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that built a fresh trie.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Pages serialized out to the spill store.
    pub fn spill_count(&self) -> u64 {
        self.spills.get()
    }

    /// Lookups served by deserializing a spilled page.
    pub fn rehydrate_count(&self) -> u64 {
        self.rehydrates.get()
    }

    /// Live counter handle for registry adoption (hits).
    pub fn hit_counter(&self) -> Counter {
        self.hits.clone()
    }

    /// Live counter handle for registry adoption (misses).
    pub fn miss_counter(&self) -> Counter {
        self.misses.clone()
    }

    /// Live counter handle for registry adoption (spills).
    pub fn spill_counter(&self) -> Counter {
        self.spills.clone()
    }

    /// Live counter handle for registry adoption (rehydrates).
    pub fn rehydrate_counter(&self) -> Counter {
        self.rehydrates.clone()
    }

    /// Live gauge handle for registry adoption (resident bytes).
    pub fn resident_gauge(&self) -> Gauge {
        self.resident_gauge.clone()
    }
}

/// The runtime's inclusion-proof engine: per-block transaction and
/// receipt tries in a [`TrieCache`] keyed by the header's roots.
///
/// The serving loop hands in the header of the block an item sits in
/// (resolved through the chain's cold accessors — the append-only
/// segment files once the block has been pruned), so repeated lookups
/// into one block pay the body read and the build once, and a body
/// record is read only when no tier holds its page. Proofs are
/// byte-identical to the chain's own: the same ordered trie over the
/// same encoded items.
///
/// A missing location yields an *empty* proof rather than a panic; the
/// protocol layer treats an empty proof as unverifiable, so a client
/// asking for a block the node never had gets a refusable answer, not
/// a crashed server.
#[derive(Debug, Clone)]
pub struct ColdProofEngine {
    tier: TrieCache,
}

impl ColdProofEngine {
    /// An engine keeping `budget_bytes` of pages resident, spilling
    /// the rest to `spill` when one is given.
    pub(crate) fn new(budget_bytes: usize, spill: Option<SpillStore>) -> Self {
        ColdProofEngine {
            tier: TrieCache::new(budget_bytes, spill),
        }
    }

    /// The page cache (counters, resident/disk footprint).
    pub fn tier(&self) -> &TrieCache {
        &self.tier
    }

    /// Inclusion proof for transaction `index` of the block `header`
    /// heads, as [`parp_core::ProofEngine::transaction_proof`]: empty
    /// when there is no such transaction.
    pub(crate) fn transaction_proof(
        &mut self,
        chain: &Blockchain,
        header: &Header,
        index: usize,
    ) -> ProofBuf {
        self.page(header.transactions_root, || {
            chain.transactions_encoded(header.number)
        })
        .map(|page| item_proof(&page, index))
        .unwrap_or_default()
    }

    /// Receipt `index` of the block `header` heads with its inclusion
    /// proof, as [`parp_core::ProofEngine::receipt_proof`]. The receipt
    /// is read off the page the proof is cut from, so a receipt whose
    /// page is in either tier never touches the receipts segment.
    pub(crate) fn receipt_proof(
        &mut self,
        chain: &Blockchain,
        header: &Header,
        index: usize,
    ) -> Option<(Vec<u8>, ProofBuf)> {
        let page = self.page(header.receipts_root, || {
            chain.receipts_encoded(header.number)
        })?;
        let item = page.get(&parp_rlp::encode_u64(index as u64))?;
        Some((item, item_proof(&page, index)))
    }

    /// The ordered-trie page under `root`: resident, rehydrated, or —
    /// only when neither tier has it — built from the encoded items
    /// `body` reads off the chain.
    fn page(
        &mut self,
        root: H256,
        body: impl FnOnce() -> Option<Vec<Vec<u8>>>,
    ) -> Option<Arc<FrozenTrie>> {
        self.tier.get_or_insert_with(root, || {
            let encoded = body()?;
            Some(Arc::new(parp_trie::ordered_pairs(encoded).collect()))
        })
    }
}

/// The inclusion proof of item `index` of an ordered page, each node
/// beside the hash the walk read from its parent — nothing is hashed.
fn item_proof(page: &FrozenTrie, index: usize) -> ProofBuf {
    let mut proof = ProofBuf::new();
    page.multiproof_into([parp_rlp::encode_u64(index as u64)], &mut proof);
    proof
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_trie::Trie;

    fn page(seed: u64, keys: u32) -> (H256, Arc<FrozenTrie>) {
        let mut trie = Trie::new();
        for i in 0..keys {
            let key = parp_crypto::keccak256(&(seed ^ u64::from(i) << 17).to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), vec![seed as u8; 40]);
        }
        let frozen = FrozenTrie::new(trie);
        (frozen.root_hash(), Arc::new(frozen))
    }

    fn store(budget: usize) -> (TrieCache, std::path::PathBuf) {
        let dir = parp_store::scratch_dir("tiered").unwrap();
        let spill = SpillStore::open(&dir).unwrap();
        (TrieCache::new(budget, Some(spill)), dir)
    }

    #[test]
    fn budget_spills_lru_and_rehydrates_byte_identically() {
        let (root_a, page_a) = page(1, 120);
        let (root_b, page_b) = page(2, 120);
        let budget = page_a.mem_bytes() + page_b.mem_bytes() / 2;
        let (mut tiered, dir) = store(budget);
        assert!(tiered
            .get_or_insert_with(root_a, || Some(page_a.clone()))
            .is_some());
        assert!(tiered
            .get_or_insert_with(root_b, || Some(page_b.clone()))
            .is_some());
        // A was least recently used: spilled to fit the budget.
        assert_eq!(tiered.spill_count(), 1);
        assert_eq!(tiered.len(), 1);
        assert!(tiered.resident_bytes() <= budget);
        assert!(tiered.disk_bytes() > 0);
        // Touching A again rehydrates from disk — no rebuild — and the
        // proofs are byte-identical to the in-memory original.
        let back = tiered
            .get_or_insert_with(root_a, || panic!("must rehydrate, not rebuild"))
            .unwrap();
        assert_eq!(tiered.rehydrate_count(), 1);
        let key = parp_crypto::keccak256(&1u64.to_be_bytes());
        assert_eq!(back.prove(key.as_bytes()), page_a.prove(key.as_bytes()));
        assert_eq!(back.root_hash(), root_a);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_rotten_spilled_page_is_rebuilt_not_served() {
        let (root_a, page_a) = page(5, 120);
        let (root_b, page_b) = page(6, 120);
        let (mut tiered, dir) = store(1); // every page but the newest spills
        tiered.get_or_insert_with(root_a, || Some(page_a.clone()));
        tiered.get_or_insert_with(root_b, || Some(page_b.clone()));
        assert_eq!(tiered.spill_count(), 1, "A is on disk only");
        // One bit of A's spilled arena flips after the spill.
        let path = dir.join("spill.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        // The read fails its checksum, so the lookup falls through to
        // a rebuild — counted as a miss, not a rehydrate — and what it
        // serves is the page the chain would build, not the file's.
        let mut rebuilt = false;
        let back = tiered
            .get_or_insert_with(root_a, || {
                rebuilt = true;
                Some(page_a.clone())
            })
            .unwrap();
        assert!(rebuilt, "a page that fails its checksum must not be served");
        assert_eq!(tiered.rehydrate_count(), 0);
        assert_eq!(tiered.misses(), 3);
        let key = parp_crypto::keccak256(&5u64.to_be_bytes());
        assert_eq!(back.prove(key.as_bytes()), page_a.prove(key.as_bytes()));
        assert_eq!(tiered.spill_count(), 2, "the rebuilt A pushed B out");
        // The rotten record is forgotten: evicting A spills a fresh
        // one, and the next visit rehydrates it instead of rebuilding.
        tiered.get_or_insert_with(root_b, || panic!("B is on disk, intact"));
        assert_eq!(tiered.spill_count(), 3, "A is spilled afresh");
        let again = tiered
            .get_or_insert_with(root_a, || panic!("a repaired page must rehydrate"))
            .unwrap();
        assert_eq!((tiered.misses(), tiered.rehydrate_count()), (3, 2));
        assert_eq!(again.prove(key.as_bytes()), page_a.prove(key.as_bytes()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn warm_hits_do_not_touch_disk() {
        let (root, page) = page(7, 50);
        let (mut tiered, dir) = store(usize::MAX);
        tiered.get_or_insert_with(root, || Some(page.clone()));
        let first = tiered
            .get_or_insert_with(root, || panic!("resident"))
            .unwrap();
        let second = tiered
            .get_or_insert_with(root, || panic!("resident"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second), "one shared resident build");
        assert_eq!(tiered.hits(), 2);
        assert_eq!(tiered.misses(), 1);
        assert_eq!(tiered.spill_count(), 0);
        assert_eq!(tiered.disk_bytes(), 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn newest_page_survives_a_tiny_budget() {
        let (root_a, page_a) = page(3, 80);
        let (root_b, page_b) = page(4, 80);
        let (mut tiered, dir) = store(1); // smaller than any one page
        tiered.get_or_insert_with(root_a, || Some(page_a.clone()));
        tiered.get_or_insert_with(root_b, || Some(page_b.clone()));
        assert_eq!(tiered.len(), 1, "newest page stays resident");
        assert_eq!(tiered.warm[0].0, root_b);
        assert_eq!(tiered.spill_count(), 1);
        // Alternating lookups keep serving via rehydration.
        assert!(tiered
            .get_or_insert_with(root_a, || panic!("spilled, must rehydrate"))
            .is_some());
        assert_eq!(tiered.rehydrate_count(), 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gauge_tracks_resident_bytes() {
        let (root, page) = page(9, 60);
        let (mut tiered, dir) = store(usize::MAX);
        let gauge = tiered.resident_gauge();
        tiered.get_or_insert_with(root, || Some(page.clone()));
        // enforce_budget ran and mirrored the measured size.
        assert_eq!(gauge.get(), page.mem_bytes() as i64);
        assert_eq!(tiered.resident_bytes(), page.mem_bytes());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn touching_an_entry_protects_it_from_eviction() {
        let pages = [page(10, 40), page(11, 40), page(12, 40)];
        let budget = pages[0].1.mem_bytes() + pages[1].1.mem_bytes();
        let mut cache = TrieCache::new(budget, None);
        for (root, trie) in &pages[..2] {
            cache.insert(*root, trie.clone());
        }
        // A is older, but touching it makes B the next eviction.
        assert!(cache.get(&pages[0].0).is_some());
        cache.insert(pages[2].0, pages[2].1.clone());
        assert!(cache.contains(&pages[0].0));
        assert!(!cache.contains(&pages[1].0), "B was least recently used");
        assert!(cache.contains(&pages[2].0));
        assert_eq!((cache.hits(), cache.len()), (1, 2));
    }

    #[test]
    fn without_a_spill_store_an_evicted_page_is_rebuilt() {
        let (root_a, page_a) = page(13, 60);
        let (root_b, page_b) = page(14, 60);
        let mut cache = TrieCache::new(1, None);
        cache.get_or_insert_with(root_a, || Some(page_a.clone()));
        cache.get_or_insert_with(root_b, || Some(page_b.clone()));
        assert!(!cache.contains(&root_a), "A was dropped, not spilled");
        assert_eq!((cache.spill_count(), cache.disk_bytes()), (0, 0));
        assert!(!cache.spills_to_disk());
        let mut rebuilt = false;
        cache.get_or_insert_with(root_a, || {
            rebuilt = true;
            Some(page_a.clone())
        });
        assert!(rebuilt, "the only way back is a rebuild");
        assert_eq!((cache.misses(), cache.rehydrate_count()), (3, 0));
    }

    #[test]
    fn a_zero_budget_keeps_exactly_the_newest_entry() {
        let mut cache = TrieCache::new(0, None);
        assert!(cache.is_empty());
        for seed in 20..24 {
            let (root, trie) = page(seed, 30);
            cache.insert(root, trie.clone());
            assert_eq!(cache.len(), 1);
            assert!(cache.contains(&root));
            assert_eq!(cache.resident_bytes(), trie.mem_bytes());
        }
        // Re-inserting the held root replaces it rather than adding one.
        let (root, trie) = page(23, 30);
        cache.insert(root, trie);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must match its key")]
    fn a_build_for_another_root_is_refused() {
        let (root_a, _) = page(15, 10);
        let (_, page_b) = page(16, 10);
        let mut cache = TrieCache::new(usize::MAX, None);
        cache.get_or_insert_with(root_a, || Some(page_b));
    }
}
