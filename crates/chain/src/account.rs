//! Account state objects, RLP-encoded into the state trie exactly like
//! Ethereum's `(nonce, balance, storageRoot, codeHash)` tuples.

use parp_primitives::{H256, U256};
use parp_rlp::{decode_list_of, encode_h256, encode_list, encode_u256, encode_u64, DecodeError};

/// `keccak256("")`, spelled out (every default account carries it).
const EMPTY_CODE_HASH: H256 = H256::new([
    0xc5, 0xd2, 0x46, 0x01, 0x86, 0xf7, 0x23, 0x3c, 0x92, 0x7e, 0x7d, 0xb2, 0xdc, 0xc7, 0x03, 0xc0,
    0xe5, 0x00, 0xb6, 0x53, 0xca, 0x82, 0x27, 0x3b, 0x7b, 0xfa, 0xd8, 0x04, 0x5d, 0x85, 0xa4, 0x70,
]);

/// Hash of the empty byte string, the `codeHash` of externally owned
/// accounts.
pub fn empty_code_hash() -> H256 {
    EMPTY_CODE_HASH
}

/// An account record as stored in the state trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Account {
    /// Transaction count for this account (replay protection).
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Commitment to the account's storage. For the simulated on-chain
    /// PARP modules this commits to the module's typed state; for plain
    /// accounts it is the empty trie root.
    pub storage_root: H256,
    /// Hash of the account's code (`keccak256("")` for EOAs).
    pub code_hash: H256,
}

impl Default for Account {
    fn default() -> Self {
        Account {
            nonce: 0,
            balance: U256::ZERO,
            storage_root: parp_trie::empty_root(),
            code_hash: empty_code_hash(),
        }
    }
}

impl Account {
    /// Creates an externally owned account holding `balance` wei.
    pub fn with_balance(balance: U256) -> Self {
        Account {
            balance,
            ..Account::default()
        }
    }

    /// RLP encoding as stored in the state trie.
    pub fn encode(&self) -> Vec<u8> {
        encode_list(&[
            encode_u64(self.nonce),
            encode_u256(&self.balance),
            encode_h256(&self.storage_root),
            encode_h256(&self.code_hash),
        ])
    }

    /// Decodes a state-trie account record.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the input is not a 4-item account list.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let items = decode_list_of(bytes, 4)?;
        Ok(Account {
            nonce: items[0].as_u64()?,
            balance: items[1].as_u256()?,
            storage_root: items[2].as_h256()?,
            code_hash: items[3].as_h256()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_account_is_empty_eoa() {
        let account = Account::default();
        assert_eq!(account.nonce, 0);
        assert!(account.balance.is_zero());
        assert_eq!(account.storage_root, parp_trie::empty_root());
        assert_eq!(account.code_hash, empty_code_hash());
    }

    #[test]
    fn encode_decode_roundtrip() {
        let account = Account {
            nonce: 42,
            balance: U256::from(1_000_000_000_000_000_000u64),
            storage_root: H256::from_low_u64_be(7),
            code_hash: empty_code_hash(),
        };
        assert_eq!(Account::decode(&account.encode()).unwrap(), account);
    }

    #[test]
    fn decode_rejects_wrong_arity() {
        let bad = encode_list(&[encode_u64(1)]);
        assert!(Account::decode(&bad).is_err());
    }

    #[test]
    fn empty_code_hash_vector() {
        // keccak256("") — the canonical EOA code hash.
        assert_eq!(empty_code_hash(), parp_crypto::keccak256(&[]));
        assert_eq!(
            empty_code_hash().to_string(),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }
}
