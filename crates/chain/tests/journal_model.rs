//! Model-based test of [`State`]'s write journal: random interleavings
//! of writes, refused writes, nested checkpoints, reverts and seals,
//! stepped beside an oracle that does it the obvious way — a full copy
//! of the account map per checkpoint. After every step the accounts, the
//! count and the state root must equal the oracle's.

use parp_chain::{Account, State};
use parp_crypto::keccak256;
use parp_primitives::{Address, H256, U256};
use parp_trie::Trie;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

type Accounts = BTreeMap<Address, Account>;

/// The root a trie built from nothing over `accounts` commits to.
fn reference_root(accounts: &Accounts) -> H256 {
    let mut trie = Trie::new();
    for (address, account) in accounts {
        trie.insert(
            keccak256(address.as_bytes()).as_bytes().to_vec(),
            account.encode(),
        );
    }
    trie.root_hash()
}

/// The oracle: the accounts now, a copy of them per live checkpoint
/// (with the mark the state gave for it), and a copy as of the last seal.
struct Oracle {
    accounts: Accounts,
    checkpoints: Vec<(usize, Accounts)>,
    sealed: Accounts,
}

/// Runs `steps` random operations from `seed`. With `always_root` the
/// root is compared after every step, so every write supersedes a built
/// trie; without it roots are compared now and then, so tries are also
/// derived across many writes, reverts and unbuilt checkpoints.
fn run(seed: u64, steps: usize, always_root: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let addr = |n: u64| Address::from_low_u64_be(n * 7919);
    let alloc: Vec<(Address, U256)> = (1..=24).map(|i| (addr(i), U256::from(i * 100))).collect();
    let mut state = State::with_alloc(alloc.iter().copied());
    let genesis: Accounts = alloc
        .into_iter()
        .map(|(address, balance)| (address, Account::with_balance(balance)))
        .collect();
    let mut oracle = Oracle {
        accounts: genesis.clone(),
        checkpoints: Vec::new(),
        sealed: genesis,
    };
    let (mut reverts, mut seals, mut refused) = (0, 0, 0);

    for step in 0..steps {
        // Mostly known accounts, sometimes one that does not exist yet.
        let pick = |rng: &mut StdRng| addr(rng.gen_range(1..31u64));
        let amount = U256::from(rng.gen_range(0..150u64));
        match rng.gen_range(0..12u32) {
            0..=1 => {
                let to = pick(&mut rng);
                state.credit(to, amount);
                let account = oracle.accounts.entry(to).or_default();
                account.balance = account.balance.saturating_add(amount);
            }
            2..=3 => {
                let from = pick(&mut rng);
                let held = oracle.accounts.get(&from).map(|a| a.balance);
                let ok = held.map_or(amount.is_zero(), |balance| balance >= amount);
                assert_eq!(state.debit(&from, amount), ok, "step {step}");
                if let (true, Some(account)) = (ok, oracle.accounts.get_mut(&from)) {
                    account.balance -= amount;
                }
            }
            4..=5 => {
                let (from, to) = (pick(&mut rng), pick(&mut rng));
                let held = oracle.accounts.get(&from).map(|a| a.balance);
                let ok = held.map_or(amount.is_zero(), |balance| balance >= amount);
                assert_eq!(state.transfer(&from, to, amount), ok, "step {step}");
                if ok {
                    if let Some(account) = oracle.accounts.get_mut(&from) {
                        account.balance -= amount;
                    }
                    let account = oracle.accounts.entry(to).or_default();
                    account.balance = account.balance.saturating_add(amount);
                }
            }
            6 => {
                let who = pick(&mut rng);
                let root = H256::from_low_u64_be(step as u64);
                let account = state.account_mut(who);
                account.nonce += 1;
                account.storage_root = root;
                let account = oracle.accounts.entry(who).or_default();
                account.nonce += 1;
                account.storage_root = root;
            }
            7 => {
                // More than anyone holds: refused, and nothing moves.
                let from = pick(&mut rng);
                let built = state.trie_is_built();
                let mark = state.checkpoint();
                assert!(!state.debit(&from, U256::from(1u64) << 100));
                assert_eq!(state.checkpoint(), mark, "a refused debit logs nothing");
                assert_eq!(state.trie_is_built(), built);
                refused += 1;
            }
            // Checkpoints nest: each is taken on top of the live ones.
            8..=9 => oracle
                .checkpoints
                .push((state.checkpoint(), oracle.accounts.clone())),
            10 => {
                if !oracle.checkpoints.is_empty() {
                    // To any live checkpoint; the ones inside it die with
                    // it, and it stays good for another revert half the
                    // time.
                    let index = rng.gen_range(0..oracle.checkpoints.len());
                    let (mark, accounts) = oracle.checkpoints[index].clone();
                    oracle
                        .checkpoints
                        .truncate(index + rng.gen_range(0..2usize));
                    state.revert_to(mark);
                    assert_eq!(state.checkpoint(), mark);
                    oracle.accounts = accounts;
                    reverts += 1;
                }
            }
            _ => {
                if rng.gen_range(0..3u32) == 0 {
                    let undo = state.seal();
                    assert_eq!(state.checkpoint(), 0);
                    assert!(state.trie_is_built());
                    // What the seal returned takes a copy back to the
                    // seal before it.
                    let mut back = state.clone();
                    back.rewind(&undo);
                    assert!(back.iter().eq(oracle.sealed.iter()), "step {step}");
                    assert_eq!(back.state_root(), reference_root(&oracle.sealed));
                    oracle.sealed = oracle.accounts.clone();
                    oracle.checkpoints.clear();
                    seals += 1;
                }
            }
        }
        assert!(state.iter().eq(oracle.accounts.iter()), "step {step}");
        assert_eq!(state.len(), oracle.accounts.len(), "step {step}");
        if always_root || rng.gen_range(0..6u32) == 0 {
            assert_eq!(
                state.state_root(),
                reference_root(&oracle.accounts),
                "step {step}"
            );
        }
    }
    assert!(
        reverts > steps / 40 && seals > steps / 80 && refused > steps / 40,
        "{reverts} {seals} {refused}"
    );
}

#[test]
fn journal_matches_a_stack_of_cloned_maps() {
    for seed in 0..3 {
        run(0xA11CE + seed, 500, true);
        run(0xB0B + seed, 500, false);
    }
}
