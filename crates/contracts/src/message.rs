//! The PARP wire messages (paper §V-A, Fig. 3).
//!
//! `req = (α, h_B, a, γ, h_req, σ_a, σ_req)` and
//! `res = (α, m_B, a, R(γ), π_γ, h_req, σ_req, σ_res)`.
//!
//! These types live in the contracts crate because the on-chain Fraud
//! Detection Module is the canonical decoder of this encoding — exactly as
//! the Solidity contract is in the paper's prototype. The off-chain
//! protocol (`parp-core`) reuses them.

use parp_crypto::{keccak256, recover_address, sign, SecretKey, Signature};
use parp_primitives::{Address, H256, U256};
use parp_rlp::{
    bytes_len, decode_list_of, encode_bytes, encode_h256, encode_list, encode_u256, encode_u64,
    list_len, u256_len, u64_len, DecodeError, Item,
};
use std::error::Error;
use std::fmt;

/// The RPC call γ carried inside a PARP request.
///
/// The variants cover the calls the paper's evaluation exercises: balance
/// reads (the read workload), raw-transaction submission (the write
/// workload), transaction lookups, plus the protocol-internal calls used
/// for bootstrapping and channel liveness checks (§V-C).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcCall {
    /// `eth_getBalance(address)` — proven against the state trie.
    GetBalance {
        /// Queried account.
        address: Address,
    },
    /// `eth_sendRawTransaction(bytes)` — proven against the transaction
    /// trie of the block that includes the transaction.
    SendRawTransaction {
        /// RLP-encoded signed transaction.
        raw: Vec<u8>,
    },
    /// `eth_getTransactionByHash(hash)` — proven against the transaction
    /// trie.
    GetTransactionByHash {
        /// Transaction hash.
        hash: H256,
    },
    /// `eth_blockNumber` — unproven chain-tip query.
    BlockNumber,
    /// Fetch a block header by number (light-client sync; unproven, the
    /// header is self-authenticating via its hash).
    GetHeader {
        /// Block height.
        number: u64,
    },
    /// Channel liveness probe (§V-C): the current on-chain status of a
    /// payment channel.
    GetChannelStatus {
        /// Channel identifier α.
        channel_id: u64,
    },
    /// `eth_getTransactionReceipt(hash)` — proven against the receipt
    /// trie (the third MPT committed in every header, §VI).
    ///
    /// The receipt proof binds `(index → receipt)` under the header's
    /// `receipts_root`; binding `index` to the queried hash additionally
    /// requires the transaction-trie proof for the same index, which the
    /// client obtains via [`RpcCall::GetTransactionByHash`].
    GetTransactionReceipt {
        /// Transaction hash.
        hash: H256,
    },
    /// `eth_getTransactionCount(address)` — the account nonce, proven
    /// against the state trie with the **same** account record (and the
    /// same multiproof path) as [`RpcCall::GetBalance`]: the response
    /// payload is the full RLP account, and the client reads the nonce
    /// out of it. Batches can therefore mix balance and nonce reads over
    /// one snapshot at no extra proof cost.
    GetTransactionCount {
        /// Queried account.
        address: Address,
    },
}

/// Which Merkle trie (if any) authenticates the response to a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProofKind {
    /// No Merkle proof applies.
    None,
    /// State-trie proof keyed by `keccak256(address)`.
    State,
    /// Transaction-trie proof keyed by `rlp(index)`.
    Transaction,
    /// Receipt-trie proof keyed by `rlp(index)`.
    Receipt,
}

impl RpcCall {
    /// RLP encoding `[selector, args...]`.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            RpcCall::GetBalance { address } => {
                encode_list(&[encode_u64(0), parp_rlp::encode_address(address)])
            }
            RpcCall::SendRawTransaction { raw } => encode_list(&[encode_u64(1), encode_bytes(raw)]),
            RpcCall::GetTransactionByHash { hash } => {
                encode_list(&[encode_u64(2), encode_h256(hash)])
            }
            RpcCall::BlockNumber => encode_list(&[encode_u64(3)]),
            RpcCall::GetHeader { number } => encode_list(&[encode_u64(4), encode_u64(*number)]),
            RpcCall::GetChannelStatus { channel_id } => {
                encode_list(&[encode_u64(5), encode_u64(*channel_id)])
            }
            RpcCall::GetTransactionReceipt { hash } => {
                encode_list(&[encode_u64(6), encode_h256(hash)])
            }
            RpcCall::GetTransactionCount { address } => {
                encode_list(&[encode_u64(7), parp_rlp::encode_address(address)])
            }
        }
    }

    /// `self.encode().len()`, from the argument's size alone.
    pub fn encoded_len(&self) -> usize {
        let argument = match self {
            RpcCall::GetBalance { address } | RpcCall::GetTransactionCount { address } => {
                bytes_len(address.as_bytes())
            }
            RpcCall::SendRawTransaction { raw } => bytes_len(raw),
            RpcCall::GetTransactionByHash { hash } | RpcCall::GetTransactionReceipt { hash } => {
                bytes_len(hash.as_bytes())
            }
            RpcCall::BlockNumber => 0,
            RpcCall::GetHeader { number } => u64_len(*number),
            RpcCall::GetChannelStatus { channel_id } => u64_len(*channel_id),
        };
        // Every selector is below 0x80: one byte.
        list_len(1 + argument)
    }

    /// Decodes a call.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] for unknown selectors or malformed args.
    pub fn decode(bytes: &[u8]) -> Result<Self, DecodeError> {
        let item = parp_rlp::decode(bytes)?;
        let fields = item.as_list()?;
        let selector = fields
            .first()
            .ok_or(DecodeError::WrongArity {
                expected: 1,
                actual: 0,
            })?
            .as_u64()?;
        let arity = |n: usize| -> Result<(), DecodeError> {
            if fields.len() != n {
                Err(DecodeError::WrongArity {
                    expected: n,
                    actual: fields.len(),
                })
            } else {
                Ok(())
            }
        };
        match selector {
            0 => {
                arity(2)?;
                Ok(RpcCall::GetBalance {
                    address: fields[1].as_address()?,
                })
            }
            1 => {
                arity(2)?;
                Ok(RpcCall::SendRawTransaction {
                    raw: fields[1].as_bytes()?.to_vec(),
                })
            }
            2 => {
                arity(2)?;
                Ok(RpcCall::GetTransactionByHash {
                    hash: fields[1].as_h256()?,
                })
            }
            3 => {
                arity(1)?;
                Ok(RpcCall::BlockNumber)
            }
            4 => {
                arity(2)?;
                Ok(RpcCall::GetHeader {
                    number: fields[1].as_u64()?,
                })
            }
            5 => {
                arity(2)?;
                Ok(RpcCall::GetChannelStatus {
                    channel_id: fields[1].as_u64()?,
                })
            }
            6 => {
                arity(2)?;
                Ok(RpcCall::GetTransactionReceipt {
                    hash: fields[1].as_h256()?,
                })
            }
            7 => {
                arity(2)?;
                Ok(RpcCall::GetTransactionCount {
                    address: fields[1].as_address()?,
                })
            }
            _ => Err(DecodeError::ExpectedList),
        }
    }

    /// The trie that authenticates this call's response.
    pub fn proof_kind(&self) -> ProofKind {
        match self {
            RpcCall::GetBalance { .. } | RpcCall::GetTransactionCount { .. } => ProofKind::State,
            RpcCall::SendRawTransaction { .. } | RpcCall::GetTransactionByHash { .. } => {
                ProofKind::Transaction
            }
            RpcCall::GetTransactionReceipt { .. } => ProofKind::Receipt,
            RpcCall::BlockNumber | RpcCall::GetHeader { .. } | RpcCall::GetChannelStatus { .. } => {
                ProofKind::None
            }
        }
    }

    /// Whether this call may ride inside a [`crate::ParpBatchRequest`].
    ///
    /// The multi-header batch envelope carries one header per distinct
    /// block any item's proof binds to, so every *read* batches: state
    /// reads and unproven chain queries verify against the snapshot
    /// header, and historical inclusion lookups
    /// (`eth_getTransactionByHash`, `eth_getTransactionReceipt`) verify
    /// against the header of their containing block. Only
    /// `eth_sendRawTransaction` travels alone: it mutates state (the
    /// serving node mines the transaction), so it cannot share a batch's
    /// read-only snapshot.
    pub fn batchable(&self) -> bool {
        !matches!(self, RpcCall::SendRawTransaction { .. })
    }

    /// The account a state-proven call reads, i.e. the address whose
    /// `keccak256(address)` trie key its proof walks. `None` for calls
    /// that are not state-proven.
    ///
    /// This is the single source of truth pairing state-proven calls
    /// with their trie keys: the serving node, the batched multiproof
    /// verifier and the on-chain FDM all extract keys through it, so a
    /// new state-read variant cannot desync them.
    pub fn state_address(&self) -> Option<&Address> {
        match self {
            RpcCall::GetBalance { address } | RpcCall::GetTransactionCount { address } => {
                Some(address)
            }
            _ => None,
        }
    }

    /// Whether the §V-D timestamp check applies: calls that answer about
    /// the *current* chain state must respond at `m_B >= height(h_B)`.
    ///
    /// Lookups of historical inclusions (`GetTransactionByHash`,
    /// `GetTransactionReceipt`) are exempt: their proofs are bound to the
    /// containing block, which may legitimately predate the client's tip.
    /// Without this exemption a malicious client could slash an honest
    /// node simply by querying an old transaction.
    pub fn requires_fresh_height(&self) -> bool {
        !matches!(
            self,
            RpcCall::GetTransactionByHash { .. } | RpcCall::GetTransactionReceipt { .. }
        )
    }
}

/// Errors from decoding PARP messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// Malformed RLP structure.
    Decode(DecodeError),
    /// A signature field was out of range.
    BadSignature,
}

impl fmt::Display for MessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MessageError::Decode(e) => write!(f, "message decode failed: {e}"),
            MessageError::BadSignature => write!(f, "message signature field out of range"),
        }
    }
}

impl Error for MessageError {}

impl From<DecodeError> for MessageError {
    fn from(e: DecodeError) -> Self {
        MessageError::Decode(e)
    }
}

/// Encoded size of a 32-byte hash field.
pub(crate) const H256_FIELD_LEN: usize = 1 + 32;
/// Encoded size of a 65-byte signature field (a long-form string header).
pub(crate) const SIGNATURE_FIELD_LEN: usize = 2 + 65;

/// Encoded size of a request envelope (single or batched) around a γ
/// field of `gamma_len` encoded bytes: `[α, h_B, a, γ, h_req, σ_a, σ_req]`.
pub(crate) fn request_envelope_len(channel_id: u64, amount: &U256, gamma_len: usize) -> usize {
    list_len(
        u64_len(channel_id)
            + H256_FIELD_LEN
            + u256_len(amount)
            + gamma_len
            + H256_FIELD_LEN
            + 2 * SIGNATURE_FIELD_LEN,
    )
}

pub(crate) fn encode_signature(sig: &Signature) -> Vec<u8> {
    encode_bytes(&sig.to_bytes())
}

pub(crate) fn decode_signature(item: &Item) -> Result<Signature, MessageError> {
    let bytes = item.as_bytes()?;
    let array: &[u8; 65] = bytes.try_into().map_err(|_| MessageError::BadSignature)?;
    Signature::from_bytes(array).map_err(|_| MessageError::BadSignature)
}

/// A PARP request (paper Fig. 3, left).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParpRequest {
    /// Channel identifier α.
    pub channel_id: u64,
    /// `h_B`: the most recent block hash known to the light client.
    pub block_hash: H256,
    /// `a`: cumulative payment amount authorized so far.
    pub amount: U256,
    /// γ: the wrapped RPC call.
    pub call: RpcCall,
    /// `h_req = keccak256(rlp([α, h_B, a, γ]))`.
    pub request_hash: H256,
    /// `σ_a = Sign(keccak256(rlp([α, a])))` — the detachable payment proof.
    pub payment_sig: Signature,
    /// `σ_req = Sign(h_req)`.
    pub request_sig: Signature,
}

/// Computes `h_req` over the request's signed fields.
pub fn request_hash(channel_id: u64, block_hash: &H256, amount: &U256, call: &RpcCall) -> H256 {
    keccak256(&encode_list(&[
        encode_u64(channel_id),
        encode_h256(block_hash),
        encode_u256(amount),
        encode_bytes(&call.encode()),
    ]))
}

/// Computes the payment digest `keccak256(rlp([α, a]))` that `σ_a` signs.
/// This is the message the CMM verifies when redeeming payments on-chain.
pub fn payment_digest(channel_id: u64, amount: &U256) -> H256 {
    keccak256(&encode_list(&[encode_u64(channel_id), encode_u256(amount)]))
}

impl ParpRequest {
    /// Builds and signs a request with the light client's key.
    pub fn build(
        secret: &SecretKey,
        channel_id: u64,
        block_hash: H256,
        amount: U256,
        call: RpcCall,
    ) -> Self {
        let h_req = request_hash(channel_id, &block_hash, &amount, &call);
        let payment_sig = sign(secret, &payment_digest(channel_id, &amount));
        let request_sig = sign(secret, &h_req);
        ParpRequest {
            channel_id,
            block_hash,
            amount,
            call,
            request_hash: h_req,
            payment_sig,
            request_sig,
        }
    }

    /// Recomputes `h_req` from the request contents.
    pub fn expected_hash(&self) -> H256 {
        request_hash(self.channel_id, &self.block_hash, &self.amount, &self.call)
    }

    /// Recovers the request signer (the light client) from `σ_req`.
    ///
    /// Returns `None` when recovery fails or the hash is inconsistent.
    pub fn signer(&self) -> Option<Address> {
        if self.expected_hash() != self.request_hash {
            return None;
        }
        recover_address(&self.request_hash, &self.request_sig).ok()
    }

    /// Recovers the payment signer from `σ_a`.
    pub fn payment_signer(&self) -> Option<Address> {
        recover_address(
            &payment_digest(self.channel_id, &self.amount),
            &self.payment_sig,
        )
        .ok()
    }

    /// Full RLP wire encoding (7 fields).
    pub fn encode(&self) -> Vec<u8> {
        encode_list(&[
            encode_u64(self.channel_id),
            encode_h256(&self.block_hash),
            encode_u256(&self.amount),
            encode_bytes(&self.call.encode()),
            encode_h256(&self.request_hash),
            encode_signature(&self.payment_sig),
            encode_signature(&self.request_sig),
        ])
    }

    /// Decodes a request.
    ///
    /// # Errors
    ///
    /// Returns [`MessageError`] on malformed structure or signatures.
    pub fn decode(bytes: &[u8]) -> Result<Self, MessageError> {
        let fields = decode_list_of(bytes, 7)?;
        Ok(ParpRequest {
            channel_id: fields[0].as_u64()?,
            block_hash: fields[1].as_h256()?,
            amount: fields[2].as_u256()?,
            call: RpcCall::decode(fields[3].as_bytes()?)?,
            request_hash: fields[4].as_h256()?,
            payment_sig: decode_signature(&fields[5])?,
            request_sig: decode_signature(&fields[6])?,
        })
    }

    /// `self.encode().len()`, from the field sizes alone.
    pub fn encoded_len(&self) -> usize {
        // γ travels as a byte string holding the call's own list.
        let call = list_len(self.call.encoded_len());
        request_envelope_len(self.channel_id, &self.amount, call)
    }

    /// Byte size of the PARP metadata added on top of the bare RPC call
    /// (Table II's "PARP request overhead").
    pub fn overhead_bytes(&self) -> usize {
        self.encoded_len() - self.call.encoded_len()
    }
}

/// A PARP response (paper Fig. 3, right).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParpResponse {
    /// Channel identifier α (must match the request).
    pub channel_id: u64,
    /// `m_B`: the block height the response (and its proof) refer to.
    pub block_number: u64,
    /// `a`: echo of the request's cumulative payment amount.
    pub amount: U256,
    /// `R(γ)`: the call result payload (encoding depends on the call).
    pub result: Vec<u8>,
    /// `π_γ`: Merkle proof nodes (empty for unproven calls).
    pub proof: Vec<Vec<u8>>,
    /// `h_req`: echo of the request hash.
    pub request_hash: H256,
    /// `σ_req`: echo of the request signature.
    pub request_sig: Signature,
    /// `σ_res = Sign(h_res)` by the full node.
    pub response_sig: Signature,
}

/// Computes `h_res` over all response fields before `σ_res`.
pub fn response_hash(
    channel_id: u64,
    block_number: u64,
    amount: &U256,
    result: &[u8],
    proof: &[Vec<u8>],
    request_hash: &H256,
    request_sig: &Signature,
) -> H256 {
    let proof_items: Vec<Vec<u8>> = proof.iter().map(|n| encode_bytes(n)).collect();
    keccak256(&encode_list(&[
        encode_u64(channel_id),
        encode_u64(block_number),
        encode_u256(amount),
        encode_bytes(result),
        encode_list(&proof_items),
        encode_h256(request_hash),
        encode_bytes(&request_sig.to_bytes()),
    ]))
}

impl ParpResponse {
    /// Builds and signs a response with the full node's key.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        secret: &SecretKey,
        request: &ParpRequest,
        block_number: u64,
        result: Vec<u8>,
        proof: Vec<Vec<u8>>,
    ) -> Self {
        let h_res = response_hash(
            request.channel_id,
            block_number,
            &request.amount,
            &result,
            &proof,
            &request.request_hash,
            &request.request_sig,
        );
        ParpResponse {
            channel_id: request.channel_id,
            block_number,
            amount: request.amount,
            result,
            proof,
            request_hash: request.request_hash,
            request_sig: request.request_sig,
            response_sig: sign(secret, &h_res),
        }
    }

    /// Recomputes `h_res` from the response contents.
    pub fn expected_hash(&self) -> H256 {
        response_hash(
            self.channel_id,
            self.block_number,
            &self.amount,
            &self.result,
            &self.proof,
            &self.request_hash,
            &self.request_sig,
        )
    }

    /// Recovers the response signer (the full node) from `σ_res`.
    pub fn signer(&self) -> Option<Address> {
        recover_address(&self.expected_hash(), &self.response_sig).ok()
    }

    /// Full RLP wire encoding (8 fields).
    pub fn encode(&self) -> Vec<u8> {
        let proof_items: Vec<Vec<u8>> = self.proof.iter().map(|n| encode_bytes(n)).collect();
        encode_list(&[
            encode_u64(self.channel_id),
            encode_u64(self.block_number),
            encode_u256(&self.amount),
            encode_bytes(&self.result),
            encode_list(&proof_items),
            encode_h256(&self.request_hash),
            encode_signature(&self.request_sig),
            encode_signature(&self.response_sig),
        ])
    }

    /// Decodes a response.
    ///
    /// # Errors
    ///
    /// Returns [`MessageError`] on malformed structure or signatures.
    pub fn decode(bytes: &[u8]) -> Result<Self, MessageError> {
        let fields = decode_list_of(bytes, 8)?;
        let proof = fields[4]
            .as_list()?
            .iter()
            .map(|n| n.as_bytes().map(<[u8]>::to_vec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParpResponse {
            channel_id: fields[0].as_u64()?,
            block_number: fields[1].as_u64()?,
            amount: fields[2].as_u256()?,
            result: fields[3].as_bytes()?.to_vec(),
            proof,
            request_hash: fields[5].as_h256()?,
            request_sig: decode_signature(&fields[6])?,
            response_sig: decode_signature(&fields[7])?,
        })
    }

    /// Total size of the Merkle proof nodes in bytes.
    pub fn proof_bytes(&self) -> usize {
        self.proof.iter().map(Vec::len).sum()
    }

    /// `self.encode().len()`, from the field sizes alone.
    pub fn encoded_len(&self) -> usize {
        let proof: usize = self.proof.iter().map(|n| bytes_len(n)).sum();
        list_len(
            u64_len(self.channel_id)
                + u64_len(self.block_number)
                + u256_len(&self.amount)
                + bytes_len(&self.result)
                + list_len(proof)
                + H256_FIELD_LEN
                + 2 * SIGNATURE_FIELD_LEN,
        )
    }

    /// Byte size of the PARP metadata added on top of the result and proof
    /// (Table II's "PARP response overhead", which excludes the
    /// variable-sized proof).
    pub fn overhead_bytes(&self) -> usize {
        self.encoded_len() - self.result.len() - self.proof_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc_key() -> SecretKey {
        SecretKey::from_seed(b"light-client")
    }

    fn fn_key() -> SecretKey {
        SecretKey::from_seed(b"full-node")
    }

    fn sample_request(amount: u64) -> ParpRequest {
        ParpRequest::build(
            &lc_key(),
            7,
            H256::from_low_u64_be(0xb10c),
            U256::from(amount),
            RpcCall::GetBalance {
                address: Address::from_low_u64_be(0xabc),
            },
        )
    }

    #[test]
    fn rpc_call_roundtrips() {
        let calls = vec![
            RpcCall::GetBalance {
                address: Address::from_low_u64_be(1),
            },
            RpcCall::SendRawTransaction { raw: vec![1, 2, 3] },
            RpcCall::GetTransactionByHash {
                hash: H256::from_low_u64_be(2),
            },
            RpcCall::BlockNumber,
            RpcCall::GetHeader { number: 9 },
            RpcCall::GetChannelStatus { channel_id: 3 },
            RpcCall::GetTransactionReceipt {
                hash: H256::from_low_u64_be(4),
            },
            RpcCall::GetTransactionCount {
                address: Address::from_low_u64_be(5),
            },
        ];
        for call in calls {
            assert_eq!(RpcCall::decode(&call.encode()).unwrap(), call);
        }
    }

    #[test]
    fn nonce_reads_share_the_balance_read_proof_machinery() {
        let address = Address::from_low_u64_be(0x77);
        let call = RpcCall::GetTransactionCount { address };
        assert_eq!(call.proof_kind(), ProofKind::State);
        assert!(call.batchable());
        assert!(call.requires_fresh_height());
        assert_eq!(call.state_address(), Some(&address));
        assert_eq!(
            RpcCall::GetBalance { address }.state_address(),
            Some(&address)
        );
        assert_eq!(RpcCall::BlockNumber.state_address(), None);
    }

    #[test]
    fn unknown_selector_rejected() {
        let bad = encode_list(&[encode_u64(99)]);
        assert!(RpcCall::decode(&bad).is_err());
    }

    #[test]
    fn proof_kinds() {
        assert_eq!(
            RpcCall::GetBalance {
                address: Address::ZERO
            }
            .proof_kind(),
            ProofKind::State
        );
        assert_eq!(
            RpcCall::SendRawTransaction { raw: vec![] }.proof_kind(),
            ProofKind::Transaction
        );
        assert_eq!(RpcCall::BlockNumber.proof_kind(), ProofKind::None);
    }

    #[test]
    fn request_roundtrip_and_signers() {
        let request = sample_request(100);
        let decoded = ParpRequest::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.signer(), Some(lc_key().address()));
        assert_eq!(decoded.payment_signer(), Some(lc_key().address()));
    }

    #[test]
    fn tampered_request_hash_breaks_signer() {
        let mut request = sample_request(100);
        request.amount = U256::from(999u64);
        // Hash no longer matches contents.
        assert_eq!(request.signer(), None);
    }

    #[test]
    fn response_roundtrip_and_signer() {
        let request = sample_request(100);
        let response = ParpResponse::build(
            &fn_key(),
            &request,
            42,
            b"result".to_vec(),
            vec![vec![1, 2, 3], vec![4, 5]],
        );
        let decoded = ParpResponse::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(decoded.signer(), Some(fn_key().address()));
        assert_eq!(decoded.proof_bytes(), 5);
    }

    #[test]
    fn tampered_response_changes_signer() {
        let request = sample_request(100);
        let mut response = ParpResponse::build(&fn_key(), &request, 42, b"result".to_vec(), vec![]);
        response.result = b"forged".to_vec();
        assert_ne!(response.signer(), Some(fn_key().address()));
    }

    #[test]
    fn payment_sig_is_detachable() {
        // σ_a alone (without the RPC payload) must let the CMM attribute
        // a payment of `a` on channel α to the light client.
        let request = sample_request(5000);
        let digest = payment_digest(request.channel_id, &request.amount);
        assert_eq!(
            recover_address(&digest, &request.payment_sig).unwrap(),
            lc_key().address()
        );
    }

    #[test]
    fn request_overhead_matches_table2_scale() {
        // Table II: 226 bytes of request overhead (two 65-byte signatures
        // plus hash and bookkeeping). Our RLP framing differs from the
        // prototype's JSON, but the same order of magnitude must hold.
        let request = sample_request(100);
        let overhead = request.overhead_bytes();
        assert!(
            (150..350).contains(&overhead),
            "request overhead {overhead} out of expected range"
        );
    }

    #[test]
    fn response_overhead_matches_table2_scale() {
        let request = sample_request(100);
        let response = ParpResponse::build(
            &fn_key(),
            &request,
            42,
            b"some-result-bytes".to_vec(),
            vec![vec![0xaa; 100], vec![0xbb; 100]],
        );
        let overhead = response.overhead_bytes();
        // Table II: 187 bytes + proof.
        assert!(
            (120..300).contains(&overhead),
            "response overhead {overhead} out of expected range"
        );
    }
}
