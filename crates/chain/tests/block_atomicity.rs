//! `produce_block` executes on the head state in place, so a block that
//! fails — at its first transaction or after earlier ones wrote accounts
//! — must put every account back, keep the head's trie (not rebuild an
//! equal one), leave no journal behind, and not show in any later block.

use parp_chain::{
    BlockContext, BlockError, Blockchain, ExecutionResult, SignedTransaction, Transaction,
    TransactionExecutor, TransferExecutor,
};
use parp_crypto::SecretKey;
use parp_primitives::{Address, U256};
use parp_store::BlockStore;
use std::sync::Arc;

const GAS_PRICE: u64 = 1_000_000_000;
const BLOCK_GAS_LIMIT: u64 = 30_000_000;

/// Transfers that burn their whole gas limit, so a few of them can
/// outgrow the block.
struct Guzzler;

impl TransactionExecutor for Guzzler {
    fn execute(
        &mut self,
        state: &mut parp_chain::State,
        ctx: &BlockContext,
        tx: &SignedTransaction,
        sender: Address,
        intrinsic_gas: u64,
    ) -> ExecutionResult {
        let mut result = TransferExecutor.execute(state, ctx, tx, sender, intrinsic_gas);
        result.gas_used = tx.tx().gas_limit;
        result
    }
}

fn transfer(key: &SecretKey, nonce: u64, to: u64, gas_limit: u64) -> SignedTransaction {
    Transaction {
        nonce,
        gas_price: U256::from(GAS_PRICE),
        gas_limit,
        to: Some(Address::from_low_u64_be(to)),
        value: U256::from(5u64),
        data: Vec::new(),
    }
    .sign(key)
}

/// How a block is made to fail.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    BadNonce,
    NoGasFunds,
    GasLimit,
    History,
}

/// A chain two good blocks long, funded for `rich` and barely for `poor`.
fn chain(rich: &SecretKey, poor: &SecretKey) -> Blockchain {
    let mut chain = Blockchain::new(
        (1..=50u64)
            .map(|i| (Address::from_low_u64_be(i), U256::from(i)))
            .chain([
                (rich.address(), U256::from(1u64) << 90),
                (poor.address(), U256::from(100u64)),
            ]),
    );
    for nonce in 0..2 {
        chain
            .produce_block(vec![transfer(rich, nonce, 7, 21_000)], &mut Guzzler)
            .unwrap();
    }
    chain
}

/// Fails one block on `fault` after `good` valid transfers (which write
/// the sender, the beneficiary, an existing account and a new one), and
/// checks the chain against the copy taken before and a twin that never
/// saw the block.
fn fail_and_compare(fault: Fault, good: u64) {
    let rich = SecretKey::from_seed(b"atomic-rich");
    let poor = SecretKey::from_seed(b"atomic-poor");
    let mut victim = chain(&rich, &poor);
    let mut twin = chain(&rich, &poor);
    let dir = parp_store::scratch_dir("block-atomicity").unwrap();
    let store = BlockStore::open(&dir).unwrap();
    if fault == Fault::History {
        victim.attach_history(store.clone(), 0).unwrap();
    }

    let mut txs: Vec<SignedTransaction> = (0..good)
        .map(|i| transfer(&rich, 2 + i, [9, 9_000 + i][i as usize % 2], 21_000))
        .collect();
    txs.push(match fault {
        Fault::BadNonce => transfer(&rich, 40, 9, 21_000),
        Fault::NoGasFunds => transfer(&poor, 0, 9, 21_000),
        // With what the good ones burnt, one more than the block holds.
        Fault::GasLimit => transfer(&rich, 2 + good, 9, BLOCK_GAS_LIMIT - good * 21_000 + 1),
        // Valid — but someone else has written the store's next record.
        Fault::History => {
            store.append_block(3, b"not this block", &[], &[]).unwrap();
            transfer(&rich, 2 + good, 9, 21_000)
        }
    });

    let before = victim.state().clone();
    let (root, trie) = (before.state_root(), before.shared_trie());
    let err = victim.produce_block(txs, &mut Guzzler).unwrap_err();
    match fault {
        Fault::BadNonce | Fault::NoGasFunds => assert!(
            matches!(err, BlockError::InvalidTransaction { index, .. } if index as u64 == good),
            "{err}"
        ),
        Fault::GasLimit => assert_eq!(err, BlockError::GasLimitExceeded),
        Fault::History => assert!(matches!(err, BlockError::History { .. }), "{err}"),
    }

    assert_eq!(victim.height(), 2);
    assert_eq!(victim.state(), &before);
    assert!(victim.state().iter().eq(before.iter()));
    assert_eq!(victim.state().len(), before.len(), "created accounts gone");
    assert_eq!(victim.nonce(&rich.address()), 2);
    assert_eq!(victim.nonce(&poor.address()), 0);
    assert_eq!(victim.state().checkpoint(), 0, "journal left behind");
    assert!(victim.state().trie_is_built(), "the head lost its trie");
    assert!(
        Arc::ptr_eq(&trie, &victim.state().shared_trie()),
        "the head's trie was rebuilt"
    );
    assert_eq!(victim.state().state_root(), root);
    assert_eq!(victim.state_at(1), twin.state_at(1));

    // The store now holds a foreign record 3, so that chain cannot go on;
    // the others must continue exactly as if nothing had been tried.
    if fault != Fault::History {
        for chain in [&mut victim, &mut twin] {
            chain
                .produce_block(vec![transfer(&rich, 2, 9_500, 21_000)], &mut Guzzler)
                .unwrap();
        }
        assert_eq!(victim.head().header, twin.head().header);
        assert_eq!(victim.state(), twin.state());
        assert_eq!(victim.state_at(2), twin.state_at(2));
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_failed_block_leaves_the_head_exactly_as_it_was() {
    for fault in [
        Fault::BadNonce,
        Fault::NoGasFunds,
        Fault::GasLimit,
        Fault::History,
    ] {
        for good in [0, 3] {
            fail_and_compare(fault, good);
        }
    }
}
