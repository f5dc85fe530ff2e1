//! World state: accounts keyed by address, committed to a secure Merkle
//! Patricia Trie (keys are `keccak256(address)`, as in Ethereum).

use crate::account::Account;
use parp_crypto::keccak256;
use parp_primitives::{Address, H256, U256};
use parp_trie::{FrozenTrie, Trie};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

/// The world state at a point in time.
///
/// The secure state trie over the accounts is memoized: the first call to
/// [`State::state_root`], [`State::account_proof`],
/// [`State::account_multiproof`] or [`State::shared_trie`] builds it once,
/// and every later call reuses the same [`Arc`]-shared trie until a write
/// supersedes it. Clones share the built trie (the contents are equal),
/// so chain snapshots inherit the trie built at block production for free.
///
/// A write does not throw the built trie away: it becomes the **parent**
/// of the next build, and the written address joins a **dirty set**. The
/// next build then [derives](FrozenTrie::derive) the new trie from the
/// parent — an O(accounts) copy plus O(dirty · depth) node hashes —
/// instead of re-hashing every account. Only a state that does not
/// descend from a built trie (genesis, [`State::with_alloc`], a snapshot
/// whose memo was [released](State::release_trie)) pays the full
/// [`State::build_trie`] + freeze. The two routes produce the same root
/// and the same proof bytes; debug builds assert it on every derive.
///
/// # Examples
///
/// ```
/// use parp_chain::State;
/// use parp_primitives::{Address, U256};
///
/// let mut state = State::new();
/// let alice = Address::from_low_u64_be(1);
/// state.credit(alice, U256::from(100u64));
/// assert_eq!(state.balance(&alice), U256::from(100u64));
/// ```
#[derive(Debug, Clone, Default)]
pub struct State {
    accounts: BTreeMap<Address, Account>,
    /// Lazily built, frozen secure trie over `accounts` (structure plus
    /// the O(depth)-proof encoding index); superseded by every write.
    /// `OnceLock` keeps `&State` shareable across threads (the sharded
    /// proof executor walks one frozen trie from many workers).
    trie: OnceLock<Arc<FrozenTrie>>,
    /// The trie of the accounts as they were before the writes in
    /// `dirty`, when this state descends from a built one.
    parent: Option<Arc<FrozenTrie>>,
    /// Addresses written since `parent` was built (empty without one).
    dirty: BTreeSet<Address>,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        // The memoized trie is derived data; only the accounts count.
        self.accounts == other.accounts
    }
}

impl Eq for State {}

impl State {
    /// Creates an empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Creates a state pre-funded with the given balances.
    pub fn with_alloc<I: IntoIterator<Item = (Address, U256)>>(alloc: I) -> Self {
        let mut state = State::new();
        for (address, balance) in alloc {
            state
                .accounts
                .insert(address, Account::with_balance(balance));
        }
        state
    }

    /// Looks up an account.
    pub fn account(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address)
    }

    /// Returns a mutable account record, creating a default one on first
    /// touch. Supersedes the memoized trie (the caller holds a mutable
    /// handle, so the account must be assumed changed).
    pub fn account_mut(&mut self, address: Address) -> &mut Account {
        self.wrote(address);
        self.accounts.entry(address).or_default()
    }

    /// Records a write to `address`: a built trie becomes the parent the
    /// next build derives from (replacing — and so releasing — the one
    /// it was itself derived from), and the address is marked dirty.
    fn wrote(&mut self, address: Address) {
        if let Some(built) = self.trie.take() {
            self.parent = Some(built);
            self.dirty.clear();
        }
        if self.parent.is_some() {
            self.dirty.insert(address);
        }
    }

    /// The balance of an address (zero for absent accounts).
    pub fn balance(&self, address: &Address) -> U256 {
        self.accounts
            .get(address)
            .map(|a| a.balance)
            .unwrap_or(U256::ZERO)
    }

    /// The nonce of an address (zero for absent accounts).
    pub fn nonce(&self, address: &Address) -> u64 {
        self.accounts.get(address).map(|a| a.nonce).unwrap_or(0)
    }

    /// Adds `amount` to an address, creating the account if needed.
    pub fn credit(&mut self, address: Address, amount: U256) {
        let account = self.account_mut(address);
        account.balance = account.balance.saturating_add(amount);
    }

    /// Removes `amount` from an address.
    ///
    /// Returns `false` (leaving the balance untouched) when funds are
    /// insufficient.
    #[must_use]
    pub fn debit(&mut self, address: &Address, amount: U256) -> bool {
        match self.accounts.get_mut(address) {
            Some(account) => match account.balance.checked_sub(amount) {
                Some(rest) => {
                    account.balance = rest;
                    self.wrote(*address);
                    true
                }
                None => false,
            },
            None => amount.is_zero(),
        }
    }

    /// Moves `amount` from `from` to `to`; `false` on insufficient funds.
    #[must_use]
    pub fn transfer(&mut self, from: &Address, to: Address, amount: U256) -> bool {
        if !self.debit(from, amount) {
            return false;
        }
        self.credit(to, amount);
        true
    }

    /// Number of touched accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// Returns `true` when no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Iterates over `(address, account)` pairs in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter()
    }

    /// Builds the secure state trie from scratch:
    /// `keccak256(address) → rlp(account)`.
    ///
    /// Bypasses the memo deliberately (cold-path baseline for the
    /// runtime benches, and the reference the derived trie is checked
    /// against); normal callers want [`State::shared_trie`].
    pub fn build_trie(&self) -> Trie {
        let mut trie = Trie::new();
        for (address, account) in &self.accounts {
            trie.insert(
                keccak256(address.as_bytes()).as_bytes().to_vec(),
                account.encode(),
            );
        }
        trie
    }

    /// The memoized, frozen secure state trie, shared behind an [`Arc`]
    /// so snapshot caches and shard workers can hold it without copying.
    /// Built (and its proof index computed) at most once per write
    /// generation: derived from the parent trie when this state descends
    /// from a built one, frozen from scratch otherwise.
    pub fn shared_trie(&self) -> Arc<FrozenTrie> {
        self.trie
            .get_or_init(|| {
                let Some(parent) = &self.parent else {
                    return Arc::new(FrozenTrie::new(self.build_trie()));
                };
                let derived = parent.derive(self.dirty.iter().map(|address| {
                    (
                        keccak256(address.as_bytes()),
                        self.accounts[address].encode(),
                    )
                }));
                debug_assert_eq!(
                    derived.root_hash(),
                    FrozenTrie::new(self.build_trie()).root_hash(),
                    "derived state trie diverged from a fresh freeze"
                );
                Arc::new(derived)
            })
            .clone()
    }

    /// Lets go of the trie this state's own was derived from, once that
    /// is built — [`State::shared_trie`] cannot (it only has `&self`),
    /// so whoever builds a state to keep seals it, or the predecessor's
    /// arena stays pinned until the next write.
    pub(crate) fn seal(&mut self) {
        if self.trie_is_built() {
            self.parent = None;
            self.dirty.clear();
        }
    }

    /// Whether the memoized trie is currently built (no rebuild would be
    /// paid for a proof right now). Observability for cache tests.
    pub fn trie_is_built(&self) -> bool {
        self.trie.get().is_some()
    }

    /// Drops this state's memoized trie without touching the accounts.
    ///
    /// Retention control for long-lived snapshot stores: a frozen trie
    /// (structure + encoding index) is several times the size of the
    /// account map, so a chain that keeps every historical snapshot
    /// releases the memo when a snapshot stops being the head — callers
    /// that still need the build (the runtime's `SnapshotCache`) hold
    /// their own `Arc` and control its lifetime via LRU eviction.
    pub fn release_trie(&mut self) {
        self.trie.take();
        self.parent = None;
        self.dirty.clear();
    }

    /// The state root committed into block headers.
    pub fn state_root(&self) -> H256 {
        self.shared_trie().root_hash()
    }

    /// Merkle proof for an account (inclusion or exclusion), verifiable
    /// against [`State::state_root`] with the key `keccak256(address)`.
    pub fn account_proof(&self, address: &Address) -> Vec<Vec<u8>> {
        self.shared_trie()
            .prove(keccak256(address.as_bytes()).as_bytes())
    }

    /// Deduplicated Merkle multiproof for many accounts at once,
    /// verifiable against [`State::state_root`] with
    /// [`parp_trie::verify_many`] and the keys `keccak256(address)`.
    ///
    /// Uses the memoized trie — back-to-back proofs within one block
    /// generation pay for a single build.
    pub fn account_multiproof(&self, addresses: &[Address]) -> Vec<Vec<u8>> {
        self.shared_trie().prove_many(
            addresses
                .iter()
                .map(|address| keccak256(address.as_bytes()).as_bytes().to_vec()),
        )
    }

    /// [`State::account_multiproof`] into a reusable
    /// [`parp_trie::ProofBuf`]: byte-identical node set, serialized
    /// zero-copy into one contiguous allocation.
    pub fn account_multiproof_into(&self, addresses: &[Address], out: &mut parp_trie::ProofBuf) {
        let keys: Vec<H256> = addresses
            .iter()
            .map(|address| keccak256(address.as_bytes()))
            .collect();
        self.shared_trie().multiproof_into(&keys, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_trie::verify_proof;

    fn addr(n: u64) -> Address {
        Address::from_low_u64_be(n)
    }

    #[test]
    fn empty_state_has_empty_root() {
        assert_eq!(State::new().state_root(), parp_trie::empty_root());
    }

    #[test]
    fn credit_debit_transfer() {
        let mut state = State::new();
        state.credit(addr(1), U256::from(100u64));
        assert!(state.debit(&addr(1), U256::from(30u64)));
        assert!(!state.debit(&addr(1), U256::from(1000u64)));
        assert!(state.transfer(&addr(1), addr(2), U256::from(70u64)));
        assert_eq!(state.balance(&addr(1)), U256::ZERO);
        assert_eq!(state.balance(&addr(2)), U256::from(70u64));
        assert!(!state.transfer(&addr(1), addr(2), U256::ONE));
        // Debiting zero from a missing account is fine.
        assert!(state.debit(&addr(9), U256::ZERO));
        assert!(!state.debit(&addr(9), U256::ONE));
    }

    #[test]
    fn root_reflects_balances() {
        let mut a = State::new();
        a.credit(addr(1), U256::from(5u64));
        let mut b = State::new();
        b.credit(addr(1), U256::from(6u64));
        assert_ne!(a.state_root(), b.state_root());
        let _ = b.debit(&addr(1), U256::ONE);
        assert_eq!(a.state_root(), b.state_root());
    }

    #[test]
    fn account_proof_verifies_against_root() {
        let mut state = State::new();
        for i in 1..50u64 {
            state.credit(addr(i), U256::from(i * 1000));
        }
        let root = state.state_root();
        let proof = state.account_proof(&addr(7));
        let key = keccak256(addr(7).as_bytes());
        let value = verify_proof(root, key.as_bytes(), &proof).unwrap().unwrap();
        let account = Account::decode(&value).unwrap();
        assert_eq!(account.balance, U256::from(7000u64));
    }

    #[test]
    fn absent_account_proof_is_exclusion() {
        let mut state = State::new();
        state.credit(addr(1), U256::ONE);
        let root = state.state_root();
        let proof = state.account_proof(&addr(999));
        let key = keccak256(addr(999).as_bytes());
        assert_eq!(verify_proof(root, key.as_bytes(), &proof).unwrap(), None);
    }

    #[test]
    fn trie_memoized_until_write() {
        let mut state = State::new();
        for i in 1..20u64 {
            state.credit(addr(i), U256::from(i));
        }
        assert!(!state.trie_is_built());
        let root = state.state_root();
        assert!(state.trie_is_built());
        // Back-to-back reads reuse the same built trie.
        let first = state.shared_trie();
        let _ = state.account_proof(&addr(7));
        let _ = state.account_multiproof(&[addr(7), addr(8)]);
        assert!(Arc::ptr_eq(&first, &state.shared_trie()));
        // Clones share it too.
        let snapshot = state.clone();
        assert!(snapshot.trie_is_built());
        assert!(Arc::ptr_eq(&first, &snapshot.shared_trie()));
        // A write invalidates, and the rebuilt trie reflects it.
        state.credit(addr(1), U256::ONE);
        assert!(!state.trie_is_built());
        assert_ne!(state.state_root(), root);
        // The untouched clone keeps the old root.
        assert_eq!(snapshot.state_root(), root);
    }

    /// Root, single proofs and a multiproof of `state` against a trie
    /// frozen from scratch over the same accounts.
    fn assert_matches_fresh_freeze(state: &State, probes: &[Address]) {
        let fresh = FrozenTrie::new(state.build_trie());
        assert_eq!(state.state_root(), fresh.root_hash());
        assert_eq!(state.shared_trie().len(), state.len());
        let keys: Vec<H256> = probes.iter().map(|a| keccak256(a.as_bytes())).collect();
        for (address, key) in probes.iter().zip(&keys) {
            assert_eq!(state.account_proof(address), fresh.prove(key.as_bytes()));
        }
        assert_eq!(state.account_multiproof(probes), fresh.prove_many(&keys));
    }

    #[test]
    fn writes_derive_from_the_built_trie() {
        let mut state = State::new();
        for i in 1..200u64 {
            state.credit(addr(i), U256::from(i));
        }
        let genesis = state.shared_trie();
        // Existing accounts, a new one, a no-op write and a nonce bump.
        state.credit(addr(7), U256::from(1_000u64));
        assert!(state.transfer(&addr(8), addr(5_000), U256::from(3u64)));
        assert!(state.debit(&addr(9), U256::ZERO));
        state.account_mut(addr(10)).nonce += 1;
        assert!(!state.trie_is_built());
        let probes = [
            addr(7),
            addr(8),
            addr(9),
            addr(10),
            addr(5_000),
            addr(77),
            addr(9_999),
        ];
        assert_matches_fresh_freeze(&state, &probes);
        assert!(!Arc::ptr_eq(&genesis, &state.shared_trie()));
        // A second generation derives from the derived trie.
        state.credit(addr(6_000), U256::ONE);
        state.credit(addr(7), U256::ONE);
        assert_matches_fresh_freeze(&state, &[addr(6_000), addr(7), addr(1)]);
    }

    #[test]
    fn clones_derive_independently_and_agree() {
        let mut state = State::with_alloc((1..100u64).map(|i| (addr(i), U256::from(i))));
        let _ = state.state_root();
        let mut before = state.clone();
        state.credit(addr(3), U256::from(50u64));
        state.credit(addr(500), U256::from(50u64));
        let after = state.clone();
        // The same writes replayed on the earlier copy; a released copy
        // takes the full-freeze route to the same answer.
        before.credit(addr(3), U256::from(50u64));
        before.credit(addr(500), U256::from(50u64));
        let mut released = after.clone();
        released.release_trie();
        let tries = [&state, &before, &after, &released].map(State::shared_trie);
        for trie in &tries[1..] {
            assert!(!Arc::ptr_eq(&tries[0], trie), "each copy builds its own");
            assert_eq!(trie.root_hash(), tries[0].root_hash());
            assert_eq!(trie.node_count(), tries[0].node_count());
        }
        assert_matches_fresh_freeze(&before, &[addr(3), addr(500), addr(42)]);
    }

    #[test]
    fn seal_releases_the_parent_trie() {
        let mut state = State::with_alloc((1..50u64).map(|i| (addr(i), U256::from(i))));
        let parent = Arc::downgrade(&state.shared_trie());
        state.credit(addr(1), U256::ONE);
        // Not built yet: sealing must not drop what the build needs.
        state.seal();
        assert!(parent.upgrade().is_some());
        let _ = state.state_root();
        assert!(parent.upgrade().is_some(), "held until sealed or rewritten");
        state.seal();
        assert!(
            parent.upgrade().is_none(),
            "a sealed state pins no predecessor"
        );
        // Unsealed, the next write lets go of it just the same.
        let parent = Arc::downgrade(&state.shared_trie());
        state.credit(addr(2), U256::ONE);
        let _ = state.state_root();
        state.credit(addr(3), U256::ONE);
        assert!(parent.upgrade().is_none());
    }

    #[test]
    fn failed_debit_keeps_memo() {
        let mut state = State::new();
        state.credit(addr(1), U256::from(10u64));
        let root = state.state_root();
        assert!(!state.debit(&addr(1), U256::from(100u64)));
        assert!(state.trie_is_built(), "no-op debit must not invalidate");
        assert_eq!(state.state_root(), root);
    }

    #[test]
    fn alloc_constructor() {
        let state = State::with_alloc([(addr(1), U256::ONE), (addr(2), U256::from(2u64))]);
        assert_eq!(state.len(), 2);
        assert_eq!(state.balance(&addr(2)), U256::from(2u64));
    }
}
