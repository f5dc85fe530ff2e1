//! Blocks: a header plus its transaction list, with trie construction for
//! inclusion proofs.

use crate::header::Header;
use crate::transaction::SignedTransaction;
use parp_primitives::H256;
use parp_trie::{ordered_pairs, FrozenTrie};

/// A block: header plus ordered transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block header.
    pub header: Header,
    /// Transactions in execution order.
    pub transactions: Vec<SignedTransaction>,
}

impl Block {
    /// The block hash (the header hash).
    pub fn hash(&self) -> H256 {
        self.header.hash()
    }

    /// Block height.
    pub fn number(&self) -> u64 {
        self.header.number
    }

    /// Builds the transaction trie: `rlp(index) → rlp(signed_tx)`.
    pub fn transactions_trie(&self) -> FrozenTrie {
        ordered_pairs(self.transactions.iter().map(SignedTransaction::encode)).collect()
    }

    /// Merkle proof that transaction `index` is included in this block,
    /// verifiable against `header.transactions_root`.
    ///
    /// Returns `None` when `index` is out of range.
    pub fn transaction_proof(&self, index: usize) -> Option<Vec<Vec<u8>>> {
        if index >= self.transactions.len() {
            return None;
        }
        Some(
            self.transactions_trie()
                .prove(&parp_rlp::encode_u64(index as u64)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receipt::Receipt;
    use crate::transaction::Transaction;
    use parp_crypto::SecretKey;
    use parp_primitives::{Address, U256};
    use parp_trie::verify_proof;

    fn make_block(tx_count: usize) -> Block {
        let key = SecretKey::from_seed(b"block-maker");
        let transactions: Vec<SignedTransaction> = (0..tx_count)
            .map(|i| {
                Transaction {
                    nonce: i as u64,
                    gas_price: U256::from(10u64),
                    gas_limit: 21_000,
                    to: Some(Address::from_low_u64_be(5)),
                    value: U256::from(i as u64 + 1),
                    data: Vec::new(),
                }
                .sign(&key)
            })
            .collect();
        let tx_root = {
            let encoded: Vec<Vec<u8>> =
                transactions.iter().map(SignedTransaction::encode).collect();
            parp_trie::ordered_trie(encoded.iter().map(Vec::as_slice)).root_hash()
        };
        Block {
            header: Header {
                parent_hash: H256::ZERO,
                ommers_hash: crate::header::empty_ommers_hash(),
                beneficiary: Address::ZERO,
                state_root: H256::ZERO,
                transactions_root: tx_root,
                receipts_root: parp_trie::empty_root(),
                difficulty: U256::ZERO,
                number: 1,
                gas_limit: 30_000_000,
                gas_used: 21_000 * tx_count as u64,
                timestamp: 0,
                extra_data: Vec::new(),
            },
            transactions,
        }
    }

    #[test]
    fn transaction_proofs_verify() {
        let block = make_block(20);
        for index in [0usize, 1, 7, 19] {
            let proof = block.transaction_proof(index).unwrap();
            let key = parp_rlp::encode_u64(index as u64);
            let value = verify_proof(block.header.transactions_root, &key, &proof)
                .unwrap()
                .unwrap();
            assert_eq!(value, block.transactions[index].encode());
        }
    }

    #[test]
    fn out_of_range_proof_is_none() {
        let block = make_block(3);
        assert!(block.transaction_proof(3).is_none());
    }

    #[test]
    fn receipts_trie_roots_differ_by_contents() {
        let a = vec![Receipt {
            status: 1,
            cumulative_gas_used: 21_000,
            logs: Vec::new(),
        }];
        let b = vec![Receipt {
            status: 0,
            cumulative_gas_used: 21_000,
            logs: Vec::new(),
        }];
        let root = |receipts: &[Receipt]| {
            ordered_pairs(receipts.iter().map(Receipt::encode))
                .collect::<FrozenTrie>()
                .root_hash()
        };
        assert_ne!(root(&a), root(&b));
    }
}
