//! Client-side response classification (paper §V-D).
//!
//! Every PARP response is classified as **valid** (all checks pass),
//! **invalid** (cannot be trusted, but also cannot support a fraud proof —
//! the client should walk away), or **fraudulent** (provably wrong: the
//! client can slash the full node on-chain).

use crate::peer::Peer;
use parp_chain::Header;
use parp_contracts::{
    batch_fraud_conditions, fraud_conditions, BatchFraud, FraudVerdict, ParpBatchRequest,
    ParpBatchResponse, ParpRequest, ParpResponse,
};
use parp_crypto::PublicKey;
use parp_primitives::Address;
use std::collections::BTreeMap;
use std::fmt;

/// Why a response is invalid (untrusted but not slashable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvalidReason {
    /// The echoed request hash does not match the request's.
    RequestHashMismatch,
    /// The echoed request signature differs (breaks fraud-proof linkage).
    RequestSigMismatch,
    /// `σ_res` does not recover to the serving full node.
    ResponseSignatureInvalid,
    /// The response's channel id differs from the request's.
    ChannelIdMismatch,
    /// The client has no header for `res.m_B`, so proofs cannot be
    /// checked yet (fetch the header and retry).
    MissingHeader(u64),
    /// The result payload is too malformed to judge.
    MalformedResult(String),
}

impl fmt::Display for InvalidReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidReason::RequestHashMismatch => write!(f, "request hash mismatch"),
            InvalidReason::RequestSigMismatch => write!(f, "request signature echo mismatch"),
            InvalidReason::ResponseSignatureInvalid => write!(f, "response signature invalid"),
            InvalidReason::ChannelIdMismatch => write!(f, "channel identifier mismatch"),
            InvalidReason::MissingHeader(n) => write!(f, "missing header for block {n}"),
            InvalidReason::MalformedResult(e) => write!(f, "malformed result: {e}"),
        }
    }
}

/// The §V-D trichotomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classification {
    /// All checks pass; the client trusts the response.
    Valid,
    /// The client cannot trust the response, but cannot prove fraud
    /// either; terminating the connection is the sensible reaction.
    Invalid(InvalidReason),
    /// Provably wrong; grounds for an on-chain fraud proof.
    Fraudulent(FraudVerdict),
}

impl Classification {
    /// The verdict as a trace / telemetry label.
    pub fn label(&self) -> &'static str {
        match self {
            Classification::Valid => "valid",
            Classification::Invalid(_) => "invalid",
            Classification::Fraudulent(_) => "fraud",
        }
    }
}

/// Runs the full §V-D check sequence on a response.
///
/// * `full_node` — the address the serving node authenticated with when
///   the channel was opened.
/// * `request_height` — the height of the block `req.h_B` names (the
///   client knows it: it picked `h_B` from its own header store).
/// * `header_for` — the client's header store lookup for `res.m_B`.
///
/// This entry point knows the node by address only, so `σ_res` is
/// recovered; a [`crate::LightClient`] classifies against the key its
/// session has learned.
pub fn classify_response(
    req: &ParpRequest,
    res: &ParpResponse,
    full_node: Address,
    request_height: u64,
    header_for: impl Fn(u64) -> Option<Header>,
) -> Classification {
    if req.expected_hash() != req.request_hash {
        return Classification::Invalid(InvalidReason::RequestHashMismatch);
    }
    let peer = Peer::first_contact(full_node);
    match classify_paired(req, res, peer, request_height, header_for).0 {
        Err(reason) => Classification::Invalid(reason),
        Ok(None) => Classification::Valid,
        Ok(Some((verdict, _))) => Classification::Fraudulent(verdict),
    }
}

/// A single response's §V-D verdict as the client acts on it: `Err` when
/// invalid, `Ok(None)` when valid, and on fraud the verdict with the
/// header of `res.m_B` it was judged against.
pub(crate) type Judged = Result<Option<(FraudVerdict, Header)>, InvalidReason>;

/// [`classify_response`] for a request whose `request_hash` is known to
/// be the hash of its contents (the client's own pending request),
/// against whatever the session knows of the node's key. Also returns
/// the node's key when this was first contact.
pub(crate) fn classify_paired(
    req: &ParpRequest,
    res: &ParpResponse,
    full_node: Peer<'_>,
    request_height: u64,
    header_for: impl Fn(u64) -> Option<Header>,
) -> (Judged, Option<PublicKey>) {
    let invalid = |reason| (Err(reason), None);
    // 1. Verify request hash: without the correct linkage no fraud proof
    //    can be built, so a mismatch is invalid, not fraud.
    if res.request_hash != req.request_hash {
        return invalid(InvalidReason::RequestHashMismatch);
    }
    if res.request_sig != req.request_sig {
        return invalid(InvalidReason::RequestSigMismatch);
    }
    // 2. Verify response signature.
    let Ok(learned) = full_node.signed(&res.expected_hash(), &res.response_sig) else {
        return invalid(InvalidReason::ResponseSignatureInvalid);
    };
    // 3. Channel identifier check.
    if res.channel_id != req.channel_id {
        return invalid(InvalidReason::ChannelIdMismatch);
    }
    // 4-6. Payment amount, timestamp and Merkle proof — the same
    // conditions the on-chain module enforces (Algorithm 2).
    let Some(header) = header_for(res.block_number) else {
        let reason = InvalidReason::MissingHeader(res.block_number);
        return (Err(reason), learned);
    };
    let judged = fraud_conditions(req, res, &header, request_height)
        .map(|verdict| verdict.map(|verdict| (verdict, header)))
        .map_err(InvalidReason::MalformedResult);
    (judged, learned)
}

/// The §V-D trichotomy applied to a batched exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchClassification {
    /// The envelope cannot be trusted (hash echo, signature, channel id
    /// or missing header): nothing item-specific can be judged, and no
    /// fraud proof is possible. The client should walk away.
    Invalid(InvalidReason),
    /// A batch-level fraud condition — payment echo mismatch, stale
    /// snapshot, or a multiproof that does not verify — condemns the
    /// whole signed response, and with it every item.
    BatchFraud {
        /// The condition that condemned the response.
        verdict: FraudVerdict,
    },
    /// The envelope and batch-level conditions hold; each item carries
    /// its own verdict.
    Items(Vec<Classification>),
}

impl BatchClassification {
    /// Whether every item in the batch verified.
    pub fn all_valid(&self) -> bool {
        match self {
            BatchClassification::Items(items) => {
                items.iter().all(|c| matches!(c, Classification::Valid))
            }
            _ => false,
        }
    }

    /// The first fraudulent item, as `(index, verdict)`.
    pub fn first_fraud(&self) -> Option<(usize, FraudVerdict)> {
        match self {
            BatchClassification::Items(items) => {
                items.iter().enumerate().find_map(|(i, c)| match c {
                    Classification::Fraudulent(verdict) => Some((i, *verdict)),
                    _ => None,
                })
            }
            _ => None,
        }
    }
}

/// Runs the §V-D check sequence on a batched response: the same envelope
/// checks as [`classify_response`] (one signature check covers all N
/// items), then the batch fraud conditions with per-item attribution —
/// each item judged against the trusted header of **its own** block.
///
/// Parameters mirror [`classify_response`]; `header_for` is consulted
/// once per distinct block the response binds proofs to (the snapshot
/// plus every inclusion item's containing block).
pub fn classify_batch_response(
    req: &ParpBatchRequest,
    res: &ParpBatchResponse,
    full_node: Address,
    request_height: u64,
    header_for: impl Fn(u64) -> Option<Header>,
) -> BatchClassification {
    if req.expected_hash() != req.request_hash {
        return BatchClassification::Invalid(InvalidReason::RequestHashMismatch);
    }
    classify_batch_paired(
        req,
        res,
        Peer::first_contact(full_node),
        request_height,
        header_for,
    )
    .0
}

/// The batch analogue of [`classify_paired`]: the headers handed back
/// are those of every block the response references, by number, once
/// the checks reached them (empty before).
pub(crate) fn classify_batch_paired(
    req: &ParpBatchRequest,
    res: &ParpBatchResponse,
    full_node: Peer<'_>,
    request_height: u64,
    header_for: impl Fn(u64) -> Option<Header>,
) -> (
    BatchClassification,
    Option<PublicKey>,
    BTreeMap<u64, Header>,
) {
    let invalid = |reason| (BatchClassification::Invalid(reason), None, BTreeMap::new());
    // 1. Request hash linkage (no fraud proof without it).
    if res.request_hash != req.request_hash {
        return invalid(InvalidReason::RequestHashMismatch);
    }
    if res.request_sig != req.request_sig {
        return invalid(InvalidReason::RequestSigMismatch);
    }
    // 2. One response-signature check for the whole batch. Each proof
    //    node is hashed here once: `h_res` binds the nodes by these
    //    hashes, and the proof walks below key the nodes by them.
    let hashes = res.proof_hashes();
    let Ok(learned) = full_node.signed(&res.digest(&hashes), &res.response_sig) else {
        return invalid(InvalidReason::ResponseSignatureInvalid);
    };
    // 3. Channel identifier.
    if res.channel_id != req.channel_id {
        return invalid(InvalidReason::ChannelIdMismatch);
    }
    // 4-6. Payment, snapshot freshness, multiproof and per-item proofs,
    // judged against the client's own trusted headers for every block
    // the response references (the carried header set must match them —
    // a mismatch is unjudgeable, not fraud, because the node's proofs
    // are checked against the canonical roots either way).
    let mut trusted = BTreeMap::new();
    for number in res.referenced_blocks() {
        let Some(header) = header_for(number) else {
            let reason = InvalidReason::MissingHeader(number);
            return (
                BatchClassification::Invalid(reason),
                learned,
                BTreeMap::new(),
            );
        };
        trusted.insert(number, header);
    }
    let classification = match batch_fraud_conditions(req, res, &hashes, &trusted, request_height) {
        Err(e) => BatchClassification::Invalid(InvalidReason::MalformedResult(e)),
        Ok(None) => BatchClassification::Items(vec![Classification::Valid; req.calls.len()]),
        Ok(Some(BatchFraud::Batch(verdict))) => BatchClassification::BatchFraud { verdict },
        Ok(Some(BatchFraud::Items(verdicts))) => BatchClassification::Items(
            verdicts
                .into_iter()
                .map(|v| match v {
                    Some(verdict) => Classification::Fraudulent(verdict),
                    None => Classification::Valid,
                })
                .collect(),
        ),
    };
    (classification, learned, trusted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_contracts::RpcCall;
    use parp_crypto::{sign, SecretKey};
    use parp_primitives::{H256, U256};

    fn lc() -> SecretKey {
        SecretKey::from_seed(b"verify-lc")
    }

    fn node() -> SecretKey {
        SecretKey::from_seed(b"verify-fn")
    }

    fn header_at(number: u64) -> Header {
        Header {
            parent_hash: H256::from_low_u64_be(number.wrapping_sub(1)),
            ommers_hash: parp_crypto::keccak256(&[0xc0]),
            beneficiary: Address::ZERO,
            state_root: parp_trie::empty_root(),
            transactions_root: parp_trie::empty_root(),
            receipts_root: parp_trie::empty_root(),
            difficulty: U256::ZERO,
            number,
            gas_limit: 30_000_000,
            gas_used: 0,
            timestamp: number * 12,
            extra_data: Vec::new(),
        }
    }

    fn honest_pair() -> (ParpRequest, ParpResponse) {
        let req = ParpRequest::build(
            &lc(),
            1,
            header_at(10).hash(),
            U256::from(100u64),
            RpcCall::BlockNumber,
        );
        let res = ParpResponse::build(&node(), &req, 12, parp_rlp::encode_u64(12), Vec::new());
        (req, res)
    }

    fn classify(req: &ParpRequest, res: &ParpResponse) -> Classification {
        classify_response(req, res, node().address(), 10, |n| Some(header_at(n)))
    }

    #[test]
    fn honest_response_is_valid() {
        let (req, res) = honest_pair();
        assert_eq!(classify(&req, &res), Classification::Valid);
    }

    #[test]
    fn wrong_request_hash_is_invalid() {
        let (req, mut res) = honest_pair();
        res.request_hash = H256::from_low_u64_be(0xbad);
        assert_eq!(
            classify(&req, &res),
            Classification::Invalid(InvalidReason::RequestHashMismatch)
        );
    }

    #[test]
    fn wrong_signer_is_invalid() {
        let (req, _) = honest_pair();
        let imposter = SecretKey::from_seed(b"imposter");
        let res = ParpResponse::build(&imposter, &req, 12, parp_rlp::encode_u64(12), Vec::new());
        assert_eq!(
            classify(&req, &res),
            Classification::Invalid(InvalidReason::ResponseSignatureInvalid)
        );
    }

    #[test]
    fn wrong_channel_id_is_invalid() {
        let (req, mut res) = honest_pair();
        res.channel_id = 99;
        let digest = res.expected_hash();
        res.response_sig = sign(&node(), &digest);
        assert_eq!(
            classify(&req, &res),
            Classification::Invalid(InvalidReason::ChannelIdMismatch)
        );
    }

    #[test]
    fn amount_mismatch_is_fraud() {
        let (req, mut res) = honest_pair();
        res.amount = U256::from(50u64);
        let digest = res.expected_hash();
        res.response_sig = sign(&node(), &digest);
        assert_eq!(
            classify(&req, &res),
            Classification::Fraudulent(FraudVerdict::AmountMismatch)
        );
    }

    #[test]
    fn stale_height_is_fraud() {
        let (req, _) = honest_pair();
        let res = ParpResponse::build(&node(), &req, 9, parp_rlp::encode_u64(9), Vec::new());
        assert_eq!(
            classify(&req, &res),
            Classification::Fraudulent(FraudVerdict::StaleBlockHeight)
        );
    }

    #[test]
    fn missing_header_is_invalid_not_fraud() {
        let (req, res) = honest_pair();
        let classification = classify_response(&req, &res, node().address(), 10, |_| None);
        assert_eq!(
            classification,
            Classification::Invalid(InvalidReason::MissingHeader(12))
        );
    }

    #[test]
    fn bad_balance_proof_is_fraud() {
        let req = ParpRequest::build(
            &lc(),
            1,
            header_at(10).hash(),
            U256::from(100u64),
            RpcCall::GetBalance {
                address: Address::from_low_u64_be(5),
            },
        );
        // Claims a balance but supplies no proof: with the empty-trie root
        // in our test header the claim contradicts the (empty) state.
        let account = parp_chain::Account::with_balance(U256::from(777u64));
        let res = ParpResponse::build(&node(), &req, 12, account.encode(), Vec::new());
        assert_eq!(
            classify(&req, &res),
            Classification::Fraudulent(FraudVerdict::InvalidProof)
        );
    }
}
