//! World state: accounts keyed by address, committed to a secure Merkle
//! Patricia Trie (keys are `keccak256(address)`, as in Ethereum).

use crate::account::Account;
use parp_crypto::keccak256;
use parp_primitives::{Address, H256, U256};
use parp_trie::{FrozenTrie, Trie};
use std::collections::{BTreeMap, BTreeSet};
use std::mem::size_of;
use std::sync::{Arc, OnceLock};

/// What one sealed write generation changed: for each account it wrote,
/// the value the account had before (`None`: it did not exist), one
/// entry per account. [`State::rewind`] applies it; a chain keeps one per
/// block in place of a copy of the state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndoRecord(Vec<(Address, Option<Account>)>);

impl UndoRecord {
    /// Number of accounts the generation wrote.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the generation wrote nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes this record occupies: itself plus its heap entries.
    pub fn mem_bytes(&self) -> usize {
        size_of::<Self>() + self.0.capacity() * size_of::<(Address, Option<Account>)>()
    }
}

/// The world state: one account map, and a **journal** of the writes made
/// to it since it was last sealed.
///
/// Every write ([`State::account_mut`], [`State::credit`], a successful
/// [`State::debit`] or [`State::transfer`]) first logs the account's prior
/// value. [`State::checkpoint`] names a point in that log and
/// [`State::revert_to`] unwinds back to it, so a failed module call or a
/// refused block undoes exactly the accounts it touched and nothing is
/// ever copied to make that possible. [`State::seal`] ends the generation:
/// it hands the log back as an [`UndoRecord`] — what a chain keeps per
/// block — and starts an empty one.
///
/// The secure state trie over the accounts is memoized: the first call to
/// [`State::state_root`], [`State::account_proof`],
/// [`State::account_multiproof`] or [`State::shared_trie`] builds it once,
/// and every later call reuses the same [`Arc`]-shared trie until a write
/// supersedes it. Clones share the built trie (the contents are equal).
///
/// A write does not throw the built trie away: it becomes the **parent**
/// of the next build, remembered with the journal length it was current
/// at, so the accounts written since — the dirty set — are the journal's
/// tail. The next build then [derives](FrozenTrie::derive) the new trie
/// from the parent — O(dirty · depth) node hashes and page copies, every
/// arena page the writes do not touch shared with the parent — instead
/// of re-hashing every account, and a revert that lands
/// exactly where the parent was current takes it back as the memo (same
/// `Arc`, nothing rebuilt). Only a state that does not descend from a
/// built trie (genesis, [`State::with_alloc`], a [rewound](State::rewind)
/// one) pays a build from scratch: every account derived into the empty
/// arena. The two routes produce the same root and the same proof bytes;
/// debug builds check every derived root against the pointer trie
/// [`State::build_trie`] builds.
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
/// let mark = state.checkpoint();
/// assert!(state.debit(&alice, U256::from(60u64)));
/// state.revert_to(mark);
/// assert_eq!(state.balance(&alice), U256::from(100u64));
/// ```
#[derive(Debug, Clone, Default)]
pub struct State {
    accounts: BTreeMap<Address, Account>,
    /// Lazily built, frozen secure trie over `accounts` (structure plus
    /// the O(depth)-proof encoding index); superseded by every write.
    /// `OnceLock` keeps `&State` shareable across threads (the read
    /// legs of a fan-out are served from one `&Blockchain`).
    trie: OnceLock<Arc<FrozenTrie>>,
    /// A trie built earlier in this generation, with the length the
    /// journal had while it was current: the accounts differ from it in
    /// exactly the addresses logged from there on.
    parent: Option<(Arc<FrozenTrie>, usize)>,
    /// `(address, value before the write)` for every write since the
    /// last seal, oldest first.
    journal: Vec<(Address, Option<Account>)>,
}

/// The secure trie's pair for one account: `keccak256(address) →
/// rlp(account)`.
fn leaf((address, account): (&Address, &Account)) -> (H256, Vec<u8>) {
    (keccak256(address.as_bytes()), account.encode())
}

/// Puts `address` back to `prior`: its earlier value, or gone.
fn restore(accounts: &mut BTreeMap<Address, Account>, address: Address, prior: Option<Account>) {
    match prior {
        Some(account) => accounts.insert(address, account),
        None => accounts.remove(&address),
    };
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        // The memoized trie is derived data and the journal is history;
        // only the accounts count.
        self.accounts == other.accounts
    }
}

impl Eq for State {}

impl State {
    /// Creates an empty state.
    pub fn new() -> Self {
        State::default()
    }

    /// Creates a state pre-funded with the given balances (nothing
    /// journaled: there is no earlier state to go back to).
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
    /// touch. Journals the prior value and supersedes the memoized trie
    /// (the caller holds a mutable handle, so the account must be
    /// assumed changed).
    pub fn account_mut(&mut self, address: Address) -> &mut Account {
        self.log_write(address);
        self.accounts.entry(address).or_default()
    }

    /// Records that `address` is about to be written: a built trie
    /// becomes the parent the next build derives from (replacing — and so
    /// releasing — the one it was itself derived from), and the account's
    /// current value goes on the journal.
    fn log_write(&mut self, address: Address) {
        if let Some(built) = self.trie.take() {
            self.parent = Some((built, self.journal.len()));
        }
        self.journal
            .push((address, self.accounts.get(&address).cloned()));
    }

    /// A mark for [`State::revert_to`]: the current journal length.
    /// Marks nest (revert to an outer one undoes the inner ones too) and
    /// are void once the state is [sealed](State::seal).
    pub fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    /// Undoes every write made since `mark` was taken, newest first.
    ///
    /// The accounts end up exactly as they were, created ones gone. The
    /// memoized trie follows: landing where the parent trie was current
    /// makes it the memo again, a parent from before `mark` still serves
    /// the next build, and one built after `mark` is dropped. A `mark` at
    /// or past the journal's end undoes nothing.
    pub fn revert_to(&mut self, mark: usize) {
        if mark >= self.journal.len() {
            return;
        }
        self.trie.take();
        for (address, prior) in self.journal.drain(mark..).rev() {
            restore(&mut self.accounts, address, prior);
        }
        match self.parent.take() {
            Some((trie, at)) if at == mark => self.trie = OnceLock::from(trie),
            Some(parent) if parent.1 < mark => self.parent = Some(parent),
            _ => {}
        }
    }

    /// Ends the write generation: builds the trie if a write is pending
    /// (the journal about to go is its dirty set), lets go of the trie it
    /// was derived from, and returns what the generation changed. After
    /// this the state pins no predecessor's arena and holds no journal.
    pub fn seal(&mut self) -> UndoRecord {
        self.shared_trie();
        self.parent = None;
        let mut undo = std::mem::take(&mut self.journal);
        // Only the value from before the generation matters per account.
        let mut seen = BTreeSet::new();
        undo.retain(|(address, _)| seen.insert(*address));
        undo.shrink_to_fit();
        UndoRecord(undo)
    }

    /// Takes a sealed state back across one generation: every account
    /// `undo` names gets the value it had before. The result descends
    /// from no built trie (its next proof pays a full freeze) and has an
    /// empty journal.
    pub fn rewind(&mut self, undo: &UndoRecord) {
        self.trie.take();
        self.parent = None;
        self.journal.clear();
        for (address, prior) in &undo.0 {
            restore(&mut self.accounts, *address, prior.clone());
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
    /// Returns `false` (leaving the balance, the journal and the
    /// memoized trie untouched) when funds are insufficient.
    #[must_use]
    pub fn debit(&mut self, address: &Address, amount: U256) -> bool {
        let Some(account) = self.accounts.get(address) else {
            return amount.is_zero();
        };
        let Some(rest) = account.balance.checked_sub(amount) else {
            return false;
        };
        self.account_mut(*address).balance = rest;
        true
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

    /// Builds the secure state trie from scratch as a pointer [`Trie`]:
    /// `keccak256(address) → rlp(account)`.
    ///
    /// Bypasses the memo deliberately (cold-path baseline for the
    /// runtime benches, and the independent reference the derived trie
    /// is checked against); normal callers want [`State::shared_trie`].
    pub fn build_trie(&self) -> Trie {
        self.accounts
            .iter()
            .map(leaf)
            .map(|(key, value)| (key.as_bytes().to_vec(), value))
            .collect()
    }

    /// The memoized, frozen secure state trie, shared behind an [`Arc`]
    /// so the serving runtime can hold it without copying.
    /// Built (and its proof index computed) at most once per write
    /// generation: derived from the parent trie when this state descends
    /// from a built one, built from scratch otherwise — and also when
    /// the parent's spine does not decode, which only a corrupted arena
    /// can cause.
    pub fn shared_trie(&self) -> Arc<FrozenTrie> {
        self.trie
            .get_or_init(|| {
                let derived = self.parent.as_ref().and_then(|(parent, at)| {
                    // Every address logged since the parent was current
                    // is still an account: undoing its creation pops the
                    // entry.
                    let dirty: BTreeSet<Address> =
                        self.journal[*at..].iter().map(|(a, _)| *a).collect();
                    parent.derive(dirty.iter().map(|a| leaf((a, &self.accounts[a]))))
                });
                let Some(derived) = derived else {
                    return Arc::new(self.accounts.iter().map(leaf).collect());
                };
                debug_assert_eq!(
                    derived.root_hash(),
                    self.build_trie().root_hash(),
                    "derived state trie diverged from the pointer trie"
                );
                Arc::new(derived)
            })
            .clone()
    }

    /// Whether the memoized trie is currently built (no rebuild would be
    /// paid for a proof right now). Observability for cache tests.
    pub fn trie_is_built(&self) -> bool {
        self.trie.get().is_some()
    }

    /// Estimated bytes of the account map and the journal (the memoized
    /// trie is `Arc`-shared with caches and reports
    /// [its own](FrozenTrie::mem_bytes)). A B-tree node has 11 slots and
    /// runs about two-thirds full, so the map is charged one node — its
    /// slots, a 16-byte header and the allocator's 16 — per 7 accounts.
    pub fn mem_bytes(&self) -> usize {
        let node = 11 * (size_of::<Address>() + size_of::<Account>()) + 32;
        size_of::<Self>()
            + self.accounts.len().div_ceil(7) * node
            + self.journal.capacity() * size_of::<(Address, Option<Account>)>()
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
        // The same writes replayed on the earlier copy; a copy without a
        // memo takes the full-freeze route to the same answer.
        before.credit(addr(3), U256::from(50u64));
        before.credit(addr(500), U256::from(50u64));
        let mut released = after.clone();
        released.rewind(&UndoRecord::default());
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
        let _ = state.state_root();
        assert!(parent.upgrade().is_some(), "held until sealed or rewritten");
        assert_eq!(state.seal().len(), 1);
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
        // Sealing with a write pending builds first: the journal it hands
        // back is the dirty set that build needs.
        assert!(!state.trie_is_built());
        let undo = state.seal();
        assert!(state.trie_is_built());
        assert_eq!(undo.len(), 2);
        assert_matches_fresh_freeze(&state, &[addr(1), addr(2), addr(3)]);
    }

    #[test]
    fn revert_restores_the_accounts_and_the_trie_that_was_current() {
        let mut state = State::with_alloc((1..50u64).map(|i| (addr(i), U256::from(i))));
        let before = state.clone();
        let trie = state.shared_trie();
        let outer = state.checkpoint();
        state.credit(addr(1), U256::ONE);
        let inner = state.checkpoint();
        assert!(state.transfer(&addr(2), addr(900), U256::ONE));
        state.account_mut(addr(901)).nonce = 4;
        // Back to the inner mark: the created accounts are gone and the
        // next trie still derives from the one built before `outer`.
        state.revert_to(inner);
        assert_eq!(state.len(), 49);
        assert_eq!(state.balance(&addr(1)), U256::from(2u64));
        assert_eq!(state.balance(&addr(2)), U256::from(2u64));
        assert_matches_fresh_freeze(&state, &[addr(1), addr(2), addr(900), addr(901)]);
        // Back to the outer mark, across the trie just built: the
        // original is the memo again, not a rebuild of it.
        state.revert_to(outer);
        assert_eq!(state, before);
        assert!(Arc::ptr_eq(&trie, &state.shared_trie()));
        assert_eq!(state.checkpoint(), 0);
        // A mark at the journal's end undoes nothing and keeps the memo.
        state.revert_to(state.checkpoint());
        assert!(state.trie_is_built());
    }

    #[test]
    fn rewind_applies_what_seal_returned() {
        let mut state = State::with_alloc((1..50u64).map(|i| (addr(i), U256::from(i))));
        let genesis = state.clone();
        state.credit(addr(1), U256::ONE);
        state.credit(addr(1), U256::ONE);
        state.credit(addr(700), U256::ONE);
        let first = state.seal();
        assert_eq!(first.len(), 2, "one entry per account, its oldest value");
        let after_first = state.clone();
        assert!(state.debit(&addr(700), U256::ONE));
        let second = state.seal();
        state.rewind(&second);
        assert_eq!(state, after_first);
        assert_eq!(state.state_root(), after_first.state_root());
        state.rewind(&first);
        assert_eq!(state, genesis);
        assert_eq!(state.account(&addr(700)), None);
        assert_eq!(state.state_root(), genesis.state_root());
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
