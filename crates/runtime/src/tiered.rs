//! Byte-budgeted warm tier over frozen tries: resident pages measured
//! by [`FrozenTrie::mem_bytes`], cold pages spilled to an append-only
//! [`SpillStore`] and rehydrated on demand.

use parp_chain::{Blockchain, Header, State};
use parp_core::ProofEngine;
use parp_primitives::{Address, H256};
use parp_store::SpillStore;
use parp_telemetry::{Counter, Gauge};
use parp_trie::{FrozenTrie, ProofBuf};
use std::sync::Arc;

/// A [`SnapshotCache`](crate::SnapshotCache)-shaped store whose warm
/// tier is bounded by **measured bytes**, not entry counts.
///
/// The snapshot cache holds N tries regardless of size; for deep
/// historical serving that either wastes the budget on small tries or
/// blows it on large ones. This store accounts every resident page at
/// its [`FrozenTrie::mem_bytes`] — the arena, pools and encoding
/// buffer that actually sit in RAM — and when the total exceeds the
/// budget it serializes the least-recently-used pages to the spill
/// store ([`FrozenTrie::to_bytes`]) and drops them from memory. A
/// later lookup rehydrates the page ([`FrozenTrie::from_bytes`]) with
/// proofs byte-identical to the in-memory original.
///
/// Content addressing (keys are trie roots) makes spilled pages
/// immutable and forever reusable: a rehydrate can never be wrong for
/// its key, so the disk tier needs no invalidation.
///
/// Hit/miss/spill/rehydrate accounting lives in live [`Counter`]
/// handles a telemetry registry can adopt; the resident footprint is
/// mirrored into a [`Gauge`] after every mutation.
#[derive(Debug, Clone)]
pub struct TieredSnapshotStore {
    /// `(root, page, measured bytes)` triples, least recently used
    /// first. Growth is bounded by the byte budget: `enforce_budget`
    /// spills and removes from the front whenever the measured total
    /// exceeds it.
    warm: Vec<(H256, Arc<FrozenTrie>, usize)>,
    budget_bytes: usize,
    resident_bytes: usize,
    spill: SpillStore,
    hits: Counter,
    misses: Counter,
    spills: Counter,
    rehydrates: Counter,
    resident_gauge: Gauge,
}

impl TieredSnapshotStore {
    /// A store keeping at most `budget_bytes` of measured trie bytes
    /// resident, spilling overflow into `spill`.
    ///
    /// The most recently used page is always kept resident even when
    /// it alone exceeds the budget — a budget smaller than one page
    /// must degrade to serve-then-spill, not fail.
    pub fn new(budget_bytes: usize, spill: SpillStore) -> Self {
        TieredSnapshotStore {
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

    /// The page for `root`: from the warm tier if resident, rehydrated
    /// from the spill store if spilled, otherwise built via `build`
    /// (returning `None` when `build` cannot produce it). Whatever the
    /// source, the page ends resident and the budget is re-enforced.
    pub fn get_or_insert_with<F>(&mut self, root: H256, build: F) -> Option<Arc<FrozenTrie>>
    where
        F: FnOnce() -> Option<Arc<FrozenTrie>>,
    {
        if let Some(position) = self.warm.iter().position(|(r, _, _)| *r == root) {
            let entry = self.warm.remove(position);
            let page = entry.1.clone();
            self.warm.push(entry);
            self.hits.inc();
            return Some(page);
        }
        // Disk tier: a spilled page rehydrates without touching the
        // chain, straight from the slice of the record the store just
        // read and checksummed. A page that fails its checksum or its
        // bounds checks (rotten or torn spill file) falls through to a
        // fresh build instead of erroring.
        let rehydrated = self
            .spill
            .with_page(&root, FrozenTrie::from_bytes)
            .ok()
            .flatten()
            .flatten()
            .filter(|trie| trie.root_hash() == root);
        let (page, counter) = match rehydrated {
            Some(trie) => (Arc::new(trie), &self.rehydrates),
            None => (build()?, &self.misses),
        };
        counter.inc();
        let bytes = page.mem_bytes();
        self.warm.push((root, page.clone(), bytes));
        self.resident_bytes += bytes;
        self.enforce_budget();
        Some(page)
    }

    /// Spills least-recently-used pages until the measured resident
    /// total fits the budget (always keeping the newest page).
    fn enforce_budget(&mut self) {
        while self.resident_bytes > self.budget_bytes && self.warm.len() > 1 {
            let (root, page, bytes) = self.warm.remove(0);
            // Content-addressed pages never change: spilling the same
            // root twice is a no-op inside the store, so only count
            // the first materialization.
            if !self.spill.contains(&root) && self.spill.put(root, &page.to_bytes()).is_ok() {
                self.spills.inc();
            }
            self.resident_bytes -= bytes;
        }
        self.resident_gauge.set(self.resident_bytes as i64);
    }

    /// Measured bytes currently resident in the warm tier.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// The configured warm-tier budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Resident page count.
    pub fn len(&self) -> usize {
        self.warm.len()
    }

    /// Whether the warm tier is empty.
    pub fn is_empty(&self) -> bool {
        self.warm.is_empty()
    }

    /// Bytes the spill store occupies on disk.
    pub fn disk_bytes(&self) -> u64 {
        self.spill.disk_bytes()
    }

    /// Warm-tier lookups served without a build or a disk read.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that built a fresh page.
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

/// Segment-backed inclusion-proof engine for deep history.
///
/// The serving loop hands in the header of the block an item sits in
/// (resolved through the chain's cold accessors — the append-only
/// segment files once the block has been pruned); this engine keeps the
/// per-block transaction and receipt tries in a
/// [`TieredSnapshotStore`] keyed by the header's roots, so repeated
/// old-block lookups pay the segment decode once and a page rehydrate
/// (or warm hit) thereafter, and a body record is read only when
/// neither tier holds its page. Proofs are byte-identical to the
/// in-memory path: same ordered trie over the same encoded items.
///
/// A missing location yields an *empty* proof rather than a panic; the
/// protocol layer treats an empty proof as unverifiable, so a client
/// asking for a block the node never had gets a refusable answer, not
/// a crashed server.
#[derive(Debug, Clone)]
pub struct ColdProofEngine {
    tier: TieredSnapshotStore,
}

impl ColdProofEngine {
    /// An engine spilling to `spill` under a `budget_bytes` warm tier.
    pub fn new(budget_bytes: usize, spill: SpillStore) -> Self {
        ColdProofEngine {
            tier: TieredSnapshotStore::new(budget_bytes, spill),
        }
    }

    /// The tiered store (counters, resident/disk footprint).
    pub fn tier(&self) -> &TieredSnapshotStore {
        &self.tier
    }

    /// The ordered-trie page under `root`: warm, rehydrated, or — only
    /// when neither tier has it — built from the encoded items `body`
    /// reads off the chain.
    pub(crate) fn page(
        &mut self,
        root: H256,
        body: impl FnOnce() -> Option<Vec<Vec<u8>>>,
    ) -> Option<Arc<FrozenTrie>> {
        self.tier
            .get_or_insert_with(root, || Some(Arc::new(ordered_page(&body()?))))
    }
}

/// The frozen ordered trie over a block's encoded transactions or
/// receipts — exactly the trie the header's root was computed from.
pub(crate) fn ordered_page(encoded: &[Vec<u8>]) -> FrozenTrie {
    FrozenTrie::new(parp_trie::ordered_trie(encoded.iter().map(Vec::as_slice)))
}

/// The inclusion proof of item `index` of an ordered page, each node
/// beside the hash the walk read from its parent — nothing is hashed.
pub(crate) fn item_proof(page: &FrozenTrie, index: usize) -> ProofBuf {
    let mut proof = ProofBuf::new();
    page.multiproof_into([parp_rlp::encode_u64(index as u64)], &mut proof);
    proof
}

/// Item `index` of an ordered page with its inclusion proof: the
/// value is read off the arena the proof is cut from, so a receipt
/// whose page is in either tier never touches the receipts segment.
pub(crate) fn item_with_proof(page: &FrozenTrie, index: usize) -> Option<(Vec<u8>, ProofBuf)> {
    let item = page.get(&parp_rlp::encode_u64(index as u64))?;
    Some((item, item_proof(page, index)))
}

impl ProofEngine for ColdProofEngine {
    fn account_multiproof_into(
        &mut self,
        state: &State,
        addresses: &[Address],
        out: &mut ProofBuf,
    ) {
        state.account_multiproof_into(addresses, out);
    }

    fn account_proof(&mut self, state: &State, address: &Address) -> Vec<Vec<u8>> {
        state.account_proof(address)
    }

    fn transaction_proof(&mut self, chain: &Blockchain, header: &Header, index: usize) -> ProofBuf {
        self.page(header.transactions_root, || {
            chain.transactions_encoded(header.number)
        })
        .map(|page| item_proof(&page, index))
        .unwrap_or_default()
    }

    fn receipt_proof(
        &mut self,
        chain: &Blockchain,
        header: &Header,
        index: usize,
    ) -> Option<(Vec<u8>, ProofBuf)> {
        let page = self.page(header.receipts_root, || {
            chain.receipts_encoded(header.number)
        })?;
        item_with_proof(&page, index)
    }
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

    fn store(budget: usize) -> (TieredSnapshotStore, std::path::PathBuf) {
        let dir = parp_store::scratch_dir("tiered").unwrap();
        let spill = SpillStore::open(&dir).unwrap();
        (TieredSnapshotStore::new(budget, spill), dir)
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
}
