//! LRU cache of fully built, [`Arc`]-shared tries, keyed by trie root.
//!
//! A PARP full node serves almost all of its traffic at an unchanged
//! head: every batch and every single balance read between two blocks
//! walks the *same* state trie, and every lookup into a hot block walks
//! the same transaction or receipt trie. The cache holds built tries
//! behind `Arc`s so overlapping exchanges (and the read legs of a
//! fan-out) share one build. [`Runtime`](crate::Runtime) uses it twice:
//! with one slot for the head state trie — PARP proves accounts at the
//! head only, so nothing older is kept — and with a fixed number of
//! slots for per-block inclusion tries.
//!
//! Keying by root makes entries content-addressed: a cached trie can
//! never be *wrong* for its key, so invalidation is purely a memory and
//! relevance concern — a full cache drops its least recently used
//! entry, and [`SnapshotCache::retain`] drops whatever roots the caller
//! no longer wants.

use parp_chain::State;
use parp_primitives::H256;
use parp_telemetry::Counter;
use parp_trie::FrozenTrie;
use std::sync::Arc;

/// An LRU of built tries keyed by their root hash.
///
/// Hit/miss accounting lives in live [`Counter`] handles so a
/// telemetry [`Registry`](parp_telemetry::Registry) can adopt them
/// (via [`SnapshotCache::hit_counter`] / [`SnapshotCache::miss_counter`])
/// and export the very cells the cache increments — no polling, no
/// count transfer. Clones share those cells.
#[derive(Debug, Clone)]
pub struct SnapshotCache {
    /// `(root, trie)` pairs, least recently used first.
    entries: Vec<(H256, Arc<FrozenTrie>)>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
}

impl SnapshotCache {
    /// Creates a cache holding at most `capacity` built tries.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero (a zero-entry cache would silently
    /// degrade every serve to a cold build).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "snapshot cache needs at least one slot");
        SnapshotCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// Maximum number of cached tries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently cached tries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes this cache keeps alive: itself, its slots and every trie it
    /// holds ([`FrozenTrie::mem_bytes`]) — including one another owner
    /// (a chain's head state, say) shares and reports too.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<(H256, Arc<FrozenTrie>)>()
            + self
                .entries
                .iter()
                .map(|(_, t)| t.mem_bytes())
                .sum::<usize>()
    }

    /// Lookups served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that had to build (or import) a trie.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Live handle to the hit counter, for registry adoption.
    pub fn hit_counter(&self) -> Counter {
        self.hits.clone()
    }

    /// Live handle to the miss counter, for registry adoption.
    pub fn miss_counter(&self) -> Counter {
        self.misses.clone()
    }

    /// Whether a trie for `root` is cached (does not touch LRU order or
    /// the hit/miss counters; observability for tests).
    pub fn contains(&self, root: &H256) -> bool {
        self.entries.iter().any(|(r, _)| r == root)
    }

    /// The cached trie for `root`, marking it most recently used.
    pub fn get(&mut self, root: &H256) -> Option<Arc<FrozenTrie>> {
        let index = self.entries.iter().position(|(r, _)| r == root)?;
        let entry = self.entries.remove(index);
        let trie = entry.1.clone();
        self.entries.push(entry);
        self.hits.inc();
        Some(trie)
    }

    /// Inserts a built trie under `root`, evicting the least recently
    /// used entry when full. An existing entry for `root` is refreshed.
    pub fn insert(&mut self, root: H256, trie: Arc<FrozenTrie>) {
        if let Some(index) = self.entries.iter().position(|(r, _)| *r == root) {
            self.entries.remove(index);
        } else if self.entries.len() == self.capacity {
            self.entries.remove(0);
        }
        self.entries.push((root, trie));
    }

    /// The trie for `state`, from cache when its root is present, built
    /// (via the state's own memo) and cached otherwise.
    pub fn get_or_build(&mut self, state: &State) -> Arc<FrozenTrie> {
        let root = state.state_root();
        self.get_or_insert_with(root, || state.shared_trie())
    }

    /// The trie for `root`, from cache when present, built by `build`
    /// and cached otherwise (counting a miss). Content addressing makes
    /// this correct for *any* trie family — state, transaction or
    /// receipt — as long as `build` returns the trie whose root is
    /// `root`.
    pub fn get_or_insert_with(
        &mut self,
        root: H256,
        build: impl FnOnce() -> Arc<FrozenTrie>,
    ) -> Arc<FrozenTrie> {
        if let Some(trie) = self.get(&root) {
            return trie;
        }
        self.misses.inc();
        let trie = build();
        debug_assert_eq!(trie.root_hash(), root, "cached trie must match its key");
        self.insert(root, trie.clone());
        trie
    }

    /// Drops the entry for `root`, returning whether one existed.
    pub fn invalidate(&mut self, root: &H256) -> bool {
        match self.entries.iter().position(|(r, _)| r == root) {
            Some(index) => {
                self.entries.remove(index);
                true
            }
            None => false,
        }
    }

    /// Keeps only the entries whose root satisfies `keep`, dropping the
    /// rest in one sweep.
    pub fn retain(&mut self, keep: impl Fn(&H256) -> bool) {
        self.entries.retain(|(root, _)| keep(root));
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_primitives::{Address, U256};

    fn state_with(n: u64) -> State {
        State::with_alloc((1..=n).map(|i| (Address::from_low_u64_be(i), U256::from(i))))
    }

    #[test]
    fn caches_and_counts() {
        let mut cache = SnapshotCache::new(4);
        let state = state_with(10);
        let first = cache.get_or_build(&state);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = cache.get_or_build(&state);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut cache = SnapshotCache::new(2);
        let states = [state_with(1), state_with(2), state_with(3)];
        for state in &states {
            cache.get_or_build(state);
        }
        assert_eq!(cache.len(), 2);
        assert!(!cache.contains(&states[0].state_root()), "oldest evicted");
        assert!(cache.contains(&states[1].state_root()));
        assert!(cache.contains(&states[2].state_root()));
        // Touching an entry protects it from the next eviction.
        cache.get(&states[1].state_root()).unwrap();
        cache.get_or_build(&states[0]);
        assert!(cache.contains(&states[1].state_root()));
        assert!(!cache.contains(&states[2].state_root()));
    }

    #[test]
    fn invalidate_and_retain() {
        let mut cache = SnapshotCache::new(4);
        let a = state_with(1);
        let b = state_with(2);
        cache.get_or_build(&a);
        cache.get_or_build(&b);
        assert!(cache.invalidate(&a.state_root()));
        assert!(!cache.invalidate(&a.state_root()));
        let keep = b.state_root();
        cache.get_or_build(&a);
        cache.retain(|root| *root == keep);
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&keep));
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        SnapshotCache::new(0);
    }
}
