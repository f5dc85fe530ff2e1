//! Block headers: the light client's root of trust.

use parp_crypto::keccak256;
use parp_primitives::{Address, H256, U256};
use parp_rlp::{
    decode_list_of, encode_address, encode_bytes, encode_h256, encode_list, encode_u256,
    encode_u64, DecodeError,
};

/// `keccak256(rlp([]))`, spelled out (every header carries it).
const EMPTY_OMMERS_HASH: H256 = H256::new([
    0x1d, 0xcc, 0x4d, 0xe8, 0xde, 0xc7, 0x5d, 0x7a, 0xab, 0x85, 0xb5, 0x67, 0xb6, 0xcc, 0xd4, 0x1a,
    0xd3, 0x12, 0x45, 0x1b, 0x94, 0x8a, 0x74, 0x13, 0xf0, 0xa1, 0x42, 0xfd, 0x40, 0xd4, 0x93, 0x47,
]);

/// Hash of the empty ommer list: the `ommers_hash` of every block this
/// chain produces.
pub fn empty_ommers_hash() -> H256 {
    EMPTY_OMMERS_HASH
}

/// A block header carrying the three trie roots PARP proofs verify
/// against.
///
/// This is a 12-field subset of Ethereum's header (omitting the bloom
/// filter, PoW fields and post-merge additions), but hashed the same way:
/// `keccak256(rlp(header))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Hash of the parent block header.
    pub parent_hash: H256,
    /// Hash of the (always empty) ommer list, kept for structural fidelity.
    pub ommers_hash: H256,
    /// Block producer / fee recipient.
    pub beneficiary: Address,
    /// Root of the world-state trie after executing this block.
    pub state_root: H256,
    /// Root of the transaction trie.
    pub transactions_root: H256,
    /// Root of the receipt trie.
    pub receipts_root: H256,
    /// Always zero in the simulated PoS-style chain.
    pub difficulty: U256,
    /// Block height.
    pub number: u64,
    /// Gas limit for the block.
    pub gas_limit: u64,
    /// Total gas consumed by the block's transactions.
    pub gas_used: u64,
    /// Unix timestamp (seconds).
    pub timestamp: u64,
    /// Arbitrary extra data (<= 32 bytes by convention).
    pub extra_data: Vec<u8>,
}

impl Header {
    /// RLP encoding of all 12 fields in order.
    pub fn encode(&self) -> Vec<u8> {
        encode_list(&[
            encode_h256(&self.parent_hash),
            encode_h256(&self.ommers_hash),
            encode_address(&self.beneficiary),
            encode_h256(&self.state_root),
            encode_h256(&self.transactions_root),
            encode_h256(&self.receipts_root),
            encode_u256(&self.difficulty),
            encode_u64(self.number),
            encode_u64(self.gas_limit),
            encode_u64(self.gas_used),
            encode_u64(self.timestamp),
            encode_bytes(&self.extra_data),
        ])
    }

    /// Decodes a header.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] when the input is not a 12-field header.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let items = decode_list_of(bytes, 12)?;
        Ok(Header {
            parent_hash: items[0].as_h256()?,
            ommers_hash: items[1].as_h256()?,
            beneficiary: items[2].as_address()?,
            state_root: items[3].as_h256()?,
            transactions_root: items[4].as_h256()?,
            receipts_root: items[5].as_h256()?,
            difficulty: items[6].as_u256()?,
            number: items[7].as_u64()?,
            gas_limit: items[8].as_u64()?,
            gas_used: items[9].as_u64()?,
            timestamp: items[10].as_u64()?,
            extra_data: items[11].as_bytes()?.to_vec(),
        })
    }

    /// The block hash: `keccak256(rlp(header))`.
    pub fn hash(&self) -> H256 {
        keccak256(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> Header {
        Header {
            parent_hash: H256::from_low_u64_be(1),
            ommers_hash: empty_ommers_hash(),
            beneficiary: Address::from_low_u64_be(2),
            state_root: H256::from_low_u64_be(3),
            transactions_root: H256::from_low_u64_be(4),
            receipts_root: H256::from_low_u64_be(5),
            difficulty: U256::ZERO,
            number: 7,
            gas_limit: 30_000_000,
            gas_used: 21_000,
            timestamp: 1_700_000_000,
            extra_data: b"parp".to_vec(),
        }
    }

    #[test]
    fn empty_ommers_hash_vector() {
        // keccak256(rlp([])) — Ethereum's post-merge ommers hash.
        assert_eq!(empty_ommers_hash(), keccak256(&encode_list(&[])));
        assert_eq!(
            empty_ommers_hash().to_string(),
            "0x1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347"
        );
    }

    #[test]
    fn roundtrip() {
        let header = sample_header();
        assert_eq!(Header::decode(&header.encode()).unwrap(), header);
    }

    #[test]
    fn hash_changes_with_any_field() {
        let base = sample_header();
        let mut changed = base.clone();
        changed.gas_used += 1;
        assert_ne!(base.hash(), changed.hash());
        let mut changed2 = base.clone();
        changed2.state_root = H256::from_low_u64_be(99);
        assert_ne!(base.hash(), changed2.hash());
    }

    #[test]
    fn header_size_is_realistic() {
        // An Ethereum header is ~500-600 bytes; our 12-field subset should
        // be in the few-hundred-byte range so message-size experiments are
        // comparable.
        let len = sample_header().encode().len();
        assert!((200..600).contains(&len), "header size {len}");
    }

    #[test]
    fn decode_rejects_wrong_field_count() {
        let bad = encode_list(&[encode_u64(1), encode_u64(2)]);
        assert!(Header::decode(&bad).is_err());
    }
}
