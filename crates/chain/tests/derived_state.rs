//! Differential test of the head trie a block derives from its
//! parent's arena: over a long random chain, every header's state root
//! and every account proof must equal what freezing the state from
//! scratch gives, a rejected block must leave the head trie alone, no
//! state may pin its predecessor's arena, and every older state must come
//! back out of the undo records as a replay from genesis produces it.

use parp_chain::{
    Account, BlockError, Blockchain, SignedTransaction, State, Transaction, TransferExecutor,
};
use parp_crypto::{keccak256, SecretKey};
use parp_primitives::{Address, H256, U256};
use parp_trie::FrozenTrie;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const GAS_PRICE: u64 = 1_000_000_000;
const SENDERS: usize = 6;
const BLOCKS: usize = 300;

fn transfer(key: &SecretKey, nonce: u64, to: Address, value: U256) -> SignedTransaction {
    Transaction {
        nonce,
        gas_price: U256::from(GAS_PRICE),
        gas_limit: 21_000,
        to: Some(to),
        value,
        data: Vec::new(),
    }
    .sign(key)
}

/// The head's root and proofs against a trie frozen from scratch.
fn assert_head_matches_fresh_freeze(chain: &Blockchain, probes: &[Address]) {
    let state: &State = chain.state();
    let fresh = FrozenTrie::new(state.build_trie());
    assert_eq!(chain.head().header.state_root, fresh.root_hash());
    assert_eq!(state.state_root(), fresh.root_hash());
    let keys: Vec<H256> = probes.iter().map(|a| keccak256(a.as_bytes())).collect();
    for (address, key) in probes.iter().zip(&keys) {
        assert_eq!(state.account_proof(address), fresh.prove(key.as_bytes()));
    }
    assert_eq!(state.account_multiproof(probes), fresh.prove_many(&keys));
}

#[test]
fn every_block_derives_the_trie_a_fresh_freeze_would_build() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let keys: Vec<SecretKey> = (0..SENDERS)
        .map(|i| SecretKey::from_seed(format!("derived-state-{i}").as_bytes()))
        .collect();
    let rich = U256::from(10u64) * U256::from(1_000_000_000_000_000_000u64);
    let mut chain = Blockchain::new(
        keys.iter()
            .map(|k| (k.address(), rich))
            // A few hundred bystanders, so spines are a small part of the trie.
            .chain((1..=400u64).map(|i| (Address::from_low_u64_be(i * 97), U256::from(i)))),
    );
    let mut known: Vec<Address> = (1..=400u64)
        .map(|i| Address::from_low_u64_be(i * 97))
        .collect();
    let (mut empty, mut rejected, mut failed) = (0, 0, 0);
    // Replay-from-genesis oracle: the accounts after every block (not
    // `State` copies, which would share — and pin — each head's trie).
    let accounts_of = |state: &State| -> Vec<(Address, Account)> {
        state
            .iter()
            .map(|(a, account)| (*a, account.clone()))
            .collect()
    };
    let mut replayed = vec![accounts_of(chain.state())];

    for round in 0..BLOCKS {
        let head_trie = chain.state().shared_trie();
        let kind = rng.gen_range(0..10u32);
        if kind == 0 {
            // Nothing written: the new head shares the trie as it is.
            chain
                .produce_block(Vec::new(), &mut TransferExecutor)
                .unwrap();
            assert!(Arc::ptr_eq(&head_trie, &chain.state().shared_trie()));
            empty += 1;
        } else if kind == 1 {
            // A good transfer followed by one with a stale nonce: the
            // whole block is refused and the head — state, trie and all —
            // must be exactly what it was.
            let key = &keys[rng.gen_range(0..SENDERS)];
            let nonce = chain.nonce(&key.address());
            let txs = vec![
                transfer(key, nonce, known[rng.gen_range(0..known.len())], U256::ONE),
                transfer(key, nonce, Address::from_low_u64_be(0xdead), U256::ONE),
            ];
            let height = chain.height();
            let err = chain.produce_block(txs, &mut TransferExecutor).unwrap_err();
            assert!(matches!(
                err,
                BlockError::InvalidTransaction { index: 1, .. }
            ));
            assert_eq!(chain.height(), height);
            assert!(Arc::ptr_eq(&head_trie, &chain.state().shared_trie()));
            rejected += 1;
        } else {
            let mut nonces: HashMap<Address, u64> = HashMap::new();
            let mut txs = Vec::new();
            for _ in 0..1 + rng.gen_range(0..5u32) {
                let key = &keys[rng.gen_range(0..SENDERS)];
                let nonce = nonces
                    .entry(key.address())
                    .or_insert_with(|| chain.nonce(&key.address()));
                let (to, value) = match rng.gen_range(0..4u32) {
                    // A brand-new account.
                    0 => {
                        let fresh =
                            Address::from_low_u64_be(1_000_000 + round as u64 * 8 + *nonce % 8);
                        known.push(fresh);
                        (fresh, U256::from(1 + rng.gen_range(0..1_000u64)))
                    }
                    // More than anyone has: fails, still pays for gas.
                    1 => {
                        failed += 1;
                        (
                            known[rng.gen_range(0..known.len())],
                            rich * U256::from(5u64),
                        )
                    }
                    _ => (
                        known[rng.gen_range(0..known.len())],
                        U256::from(rng.gen_range(0..1_000u64)),
                    ),
                };
                txs.push(transfer(key, *nonce, to, value));
                *nonce += 1;
            }
            let touched: Vec<Address> = txs
                .iter()
                .flat_map(|tx| [tx.sender().unwrap(), tx.tx().to.unwrap()])
                .collect();
            chain.produce_block(txs, &mut TransferExecutor).unwrap();
            let mut probes = touched;
            probes.push(known[rng.gen_range(0..known.len())]);
            probes.push(Address::from_low_u64_be(0xab5e27)); // absent
            assert_head_matches_fresh_freeze(&chain, &probes);
            // The new head was sealed: with our own handle gone, nothing
            // holds the old arena.
            let old = Arc::downgrade(&head_trie);
            drop(head_trie);
            assert!(
                old.upgrade().is_none(),
                "block {round} pinned its parent's arena"
            );
        }
        if replayed.len() as u64 <= chain.height() {
            replayed.push(accounts_of(chain.state()));
        }
    }
    assert!(
        empty > 5 && rejected > 5 && failed > 20,
        "{empty} {rejected} {failed}"
    );
    // History is intact: every state comes back out of the undo records
    // equal to the replay's, and rebuilds on demand to the committed root.
    assert_eq!(replayed.len() as u64, chain.height() + 1);
    // A copy that prunes its resident window behind a history store.
    let mut pruned = chain.clone();
    let dir = parp_store::scratch_dir("derived-state").unwrap();
    pruned
        .attach_history(parp_store::BlockStore::open(&dir).unwrap(), 0)
        .unwrap();
    assert!(pruned.resident_base() > 0, "the copy pruned nothing");
    for (number, expected) in replayed.iter().enumerate() {
        let number = number as u64;
        let rebuilt = chain.state_at(number).unwrap();
        assert_eq!(&accounts_of(&rebuilt), expected, "state {number}");
        assert_eq!(
            rebuilt.state_root(),
            chain.block(number).unwrap().header.state_root
        );
        // Pruned: the same state while the block is resident, none after.
        if number >= pruned.resident_base() {
            assert_eq!(&accounts_of(&pruned.state_at(number).unwrap()), expected);
        } else {
            assert!(pruned.state_at(number).is_none());
        }
    }
    assert!(chain.state_at(chain.height() + 1).is_none());
    assert_eq!(pruned.head().header, chain.head().header);
    let _ = std::fs::remove_dir_all(dir);
}
