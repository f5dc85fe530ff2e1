//! The Fraud Detection Module (FDM): on-chain verification of fraud
//! proofs, implementing the paper's Algorithm 2.
//!
//! A fraud proof is `(req, res, addr_WN, header)`. The module:
//!
//! 1. checks the channel identifiers match and the channel is not closed;
//! 2. re-derives `h_req` and recovers the request signer (must be the
//!    channel's light client);
//! 3. recovers the response signer (must be the channel's full node);
//! 4. validates the submitted header against the `BLOCKHASH` window
//!    (Ethereum can only validate hashes of the last 256 blocks — §VI);
//! 5. condemns the full node when the response shows a payment-amount
//!    mismatch, a stale block height, or an invalid/contradicting Merkle
//!    proof;
//! 6. slashes the offender's collateral via the FNDM and distributes the
//!    reward to the light client, the witness node and the serving pool.

use crate::cmm::{ChannelStatus, ChannelsModule};
use crate::fndm::{address_topic, event_log, DepositModule, Revert};
use crate::gas::GasMeter;
use crate::message::{ParpRequest, ParpResponse, ProofKind, RpcCall};
use parp_chain::{BlockContext, Header, Log, State};
use parp_crypto::{keccak256, recover_address, Signature};
use parp_primitives::{Address, H256, U256};
use parp_trie::{verify_proof, ProofError};
use std::collections::BTreeMap;

/// Why a full node was condemned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FraudVerdict {
    /// `req.a != res.a` (payment amount check, §V-D).
    AmountMismatch,
    /// `res.m_B` is lower than the height of `req.h_B` (timestamp check).
    StaleBlockHeight,
    /// `π_γ` does not verify against the trusted root, or proves a value
    /// different from the claimed result (Merkle proof check).
    InvalidProof,
}

impl FraudVerdict {
    /// Single-byte encoding used in the module output and event data.
    pub fn as_byte(&self) -> u8 {
        match self {
            FraudVerdict::AmountMismatch => 1,
            FraudVerdict::StaleBlockHeight => 2,
            FraudVerdict::InvalidProof => 3,
        }
    }
}

/// Evaluates the paper's three fraud conditions against a request/response
/// pair and the trusted header for `res.m_B`.
///
/// `request_height` is the height of the block `req.h_B` refers to (the
/// light client knows it because it chose `h_B`; the on-chain module
/// resolves it through the `BLOCKHASH` window).
///
/// Returns `Ok(None)` when the response is consistent, `Ok(Some(verdict))`
/// when it is provably fraudulent.
///
/// # Errors
///
/// Returns a description when the response payload is too malformed to
/// judge (e.g. an unparsable transaction index) — such responses are
/// *invalid* rather than fraudulent in the §V-D classification.
pub fn fraud_conditions(
    req: &ParpRequest,
    res: &ParpResponse,
    header: &Header,
    request_height: u64,
) -> Result<Option<FraudVerdict>, String> {
    // Condition 1: payment amount mismatch.
    if req.amount != res.amount {
        return Ok(Some(FraudVerdict::AmountMismatch));
    }
    // Condition 2: stale block height. Historical-inclusion lookups are
    // exempt (see [`RpcCall::requires_fresh_height`]); everything else
    // must answer at or after the client's view.
    if req.call.requires_fresh_height() && res.block_number < request_height {
        return Ok(Some(FraudVerdict::StaleBlockHeight));
    }
    proof_condition(&req.call, &res.result, &res.proof, header, |root, key| {
        verify_proof(root, key, &res.proof)
    })
}

/// Whether a claimed result equals the value a state proof binds (an
/// empty result claims a proven absence). Shared between the single-call
/// proof check and the batched multiproof's per-item checks so the two
/// paths cannot drift.
pub(crate) fn state_claim_matches(result: &[u8], proven: &Option<Vec<u8>>) -> bool {
    match proven {
        None => result.is_empty(),
        Some(value) => result == value.as_slice(),
    }
}

/// Condition 3 of the §V-D checks in isolation: does the call's Merkle
/// proof authenticate the claimed result under the trusted `header`?
/// `verify(root, key)` walks `proof` — [`verify_proof`] for a single
/// call, the pre-hashed core for a batch item whose node hashes the
/// batch digest already computed.
///
/// # Errors
///
/// Returns a description when the result payload is too malformed to
/// judge (invalid rather than fraudulent in the §V-D classification).
pub(crate) fn proof_condition(
    call: &RpcCall,
    result: &[u8],
    proof: &[Vec<u8>],
    header: &Header,
    verify: impl Fn(H256, &[u8]) -> Result<Option<Vec<u8>>, ProofError>,
) -> Result<Option<FraudVerdict>, String> {
    // An unproven empty result for an inclusion lookup means "not found"
    // — absence by hash is not provable in an index-keyed trie, so it is
    // unverifiable rather than fraudulent.
    if matches!(
        call.proof_kind(),
        ProofKind::Transaction | ProofKind::Receipt
    ) && result.is_empty()
        && proof.is_empty()
    {
        return Ok(None);
    }
    match call.proof_kind() {
        ProofKind::None => Ok(None),
        ProofKind::State => {
            let Some(address) = call.state_address() else {
                return Ok(None);
            };
            let key = keccak256(address.as_bytes());
            match verify(header.state_root, key.as_bytes()) {
                Err(_) => Ok(Some(FraudVerdict::InvalidProof)),
                Ok(proven) => {
                    if state_claim_matches(result, &proven) {
                        Ok(None)
                    } else {
                        Ok(Some(FraudVerdict::InvalidProof))
                    }
                }
            }
        }
        ProofKind::Transaction => {
            // result = rlp(index) of the included transaction.
            let index = parp_rlp::decode(result)
                .and_then(|i| i.as_u64())
                .map_err(|_| "malformed transaction index in result".to_string())?;
            let key = parp_rlp::encode_u64(index);
            match verify(header.transactions_root, &key) {
                Err(_) | Ok(None) => Ok(Some(FraudVerdict::InvalidProof)),
                Ok(Some(proven_tx)) => {
                    let consistent = match call {
                        RpcCall::SendRawTransaction { raw } => proven_tx == *raw,
                        RpcCall::GetTransactionByHash { hash } => keccak256(&proven_tx) == *hash,
                        _ => true,
                    };
                    if consistent {
                        Ok(None)
                    } else {
                        Ok(Some(FraudVerdict::InvalidProof))
                    }
                }
            }
        }
        ProofKind::Receipt => {
            // result = rlp([index, receipt]): the claimed receipt and its
            // position, provable under the header's receipts_root.
            let fields = parp_rlp::decode_list_of(result, 2)
                .map_err(|_| "malformed receipt result".to_string())?;
            let index = fields[0]
                .as_u64()
                .map_err(|_| "malformed receipt index".to_string())?;
            let claimed_receipt = fields[1]
                .as_bytes()
                .map_err(|_| "malformed receipt payload".to_string())?;
            let key = parp_rlp::encode_u64(index);
            match verify(header.receipts_root, &key) {
                Err(_) | Ok(None) => Ok(Some(FraudVerdict::InvalidProof)),
                Ok(Some(proven_receipt)) => {
                    if proven_receipt == claimed_receipt {
                        Ok(None)
                    } else {
                        Ok(Some(FraudVerdict::InvalidProof))
                    }
                }
            }
        }
    }
}

/// A processed fraud case (kept to prevent double reporting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraudRecord {
    /// The condemned full node.
    pub offender: Address,
    /// The reporting light client.
    pub reporter: Address,
    /// The witness that relayed the proof.
    pub witness: Address,
    /// What the proof showed.
    pub verdict: FraudVerdict,
    /// The slashed collateral.
    pub slashed: U256,
    /// Block at which the proof was accepted.
    pub block: u64,
}

/// One slash in the order it was accepted — the observability view of
/// the fraud records. The keyed [`FraudRecord`] map answers "was this
/// request's case processed?"; this log answers "what happened, in
/// what order?" (the question telemetry and the report binary ask).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlashEvent {
    /// `h_req` of the condemned exchange.
    pub request_hash: H256,
    /// The slashed full node.
    pub offender: Address,
    /// The witness that relayed the proof.
    pub witness: Address,
    /// Which fraud condition held.
    pub verdict: FraudVerdict,
    /// Collateral taken.
    pub slashed: U256,
    /// Block at which the proof was accepted.
    pub block: u64,
}

/// The fraud detection module state.
#[derive(Debug, Clone, Default)]
pub struct FraudModule {
    /// Accepted proofs, keyed by `h_req` (one slash per request).
    records: BTreeMap<H256, FraudRecord>,
    /// The same accepted proofs in acceptance order. Deliberately
    /// excluded from [`FraudModule::commitment`]: it carries no
    /// information beyond the keyed records (which are committed), and
    /// keeping it out preserves every existing commitment value.
    slash_log: Vec<SlashEvent>,
}

/// The cheaply extracted fields an exchange presents to Algorithm 2,
/// identical between single and batched messages. The expensive values
/// (hash recomputation, signature recoveries) are passed to
/// [`FraudModule::authenticate_exchange`] as closures so submissions that
/// fail the early channel guards never pay for them.
struct ExchangeFields {
    req_channel_id: u64,
    res_channel_id: u64,
    request_hash: H256,
    res_request_hash: H256,
    request_sig: Signature,
    request_block_hash: H256,
    amounts_equal: bool,
}

impl FraudModule {
    /// Creates an empty module.
    pub fn new() -> Self {
        FraudModule::default()
    }

    /// Accepted fraud records, in request-hash order.
    pub fn records(&self) -> impl Iterator<Item = (&H256, &FraudRecord)> {
        self.records.iter()
    }

    /// Looks up the fraud record for a request hash.
    pub fn record(&self, request_hash: &H256) -> Option<&FraudRecord> {
        self.records.get(request_hash)
    }

    /// Every accepted slash, in chronological acceptance order.
    pub fn slash_events(&self) -> &[SlashEvent] {
        &self.slash_log
    }

    /// `submitFraudProof(req, res, addrWN, header)` — Algorithm 2.
    ///
    /// Returns `[verdict_byte]` on success.
    ///
    /// # Errors
    ///
    /// Reverts when the proof is malformed, refers to an unknown or closed
    /// channel, fails authentication, the header cannot be validated, the
    /// case was already processed — or when no fraud condition holds
    /// (submitting proofs against honest responses costs the submitter
    /// gas and achieves nothing).
    #[allow(clippy::too_many_arguments)]
    pub fn submit_fraud_proof(
        &mut self,
        request_bytes: &[u8],
        response_bytes: &[u8],
        witness: Address,
        header_bytes: &[u8],
        ctx: &BlockContext,
        cmm: &mut ChannelsModule,
        fndm: &mut DepositModule,
        state: &mut State,
        meter: &mut GasMeter,
    ) -> Result<(Vec<u8>, Vec<Log>), Revert> {
        // Solidity-style decode cost over every submitted byte.
        meter.process_bytes(request_bytes.len() + response_bytes.len() + header_bytes.len());
        let req = ParpRequest::decode(request_bytes)
            .map_err(|e| Revert::new(format!("malformed request: {e}")))?;
        let res = ParpResponse::decode(response_bytes)
            .map_err(|e| Revert::new(format!("malformed response: {e}")))?;

        let exchange = ExchangeFields {
            req_channel_id: req.channel_id,
            res_channel_id: res.channel_id,
            request_hash: req.request_hash,
            res_request_hash: res.request_hash,
            request_sig: req.request_sig,
            request_block_hash: req.block_hash,
            amounts_equal: req.amount == res.amount,
        };
        let (channel, request_height) = self.authenticate_exchange(
            &exchange,
            || req.expected_hash(),
            || res.signer(),
            request_bytes,
            || response_bytes.len(),
            ctx,
            cmm,
            meter,
        )?;
        let header = Self::validate_header(header_bytes, ctx, meter)?;
        if header.number != res.block_number {
            return Err(Revert::new("header height does not match response"));
        }

        // MPT walk cost: hash every proof node.
        for node in &res.proof {
            meter.keccak(node.len());
        }
        let verdict = fraud_conditions(&req, &res, &header, request_height).map_err(Revert::new)?;
        let Some(verdict) = verdict else {
            return Err(Revert::new("no fraud detected"));
        };
        self.slash_and_record(
            req.request_hash,
            verdict,
            witness,
            &channel,
            ctx,
            cmm,
            fndm,
            state,
            meter,
        )
    }

    /// `submitBatchFraudProof(req, res, addrWN, headers)`: Algorithm 2
    /// generalized to batched exchanges. The node's one signature covers
    /// every item, so a single provably wrong item — or a batch-level
    /// condition — condemns the whole response and slashes the node.
    ///
    /// The witness submits one RLP header per block the response binds
    /// proofs to (the snapshot block plus each inclusion item's
    /// containing block); every submitted header inside the `BLOCKHASH`
    /// window is validated before any item is judged. Headers whose
    /// blocks fell out of the window are skipped — the items bound to
    /// them go unjudged (§VI), but fraud in the rest of the batch stays
    /// slashable. The snapshot block's header must validate.
    ///
    /// Returns `[verdict_byte]` on success.
    ///
    /// # Errors
    ///
    /// Reverts under the same conditions as
    /// [`FraudModule::submit_fraud_proof`], plus when a submitted
    /// in-window header fails validation, when no valid header covers
    /// the snapshot block, or when no fraud condition holds on the
    /// judgeable items. An in-window referenced header the witness
    /// *omitted* leaves its item unjudged, so a proof resting on that
    /// item alone reverts with "no fraud detected" — resubmit with the
    /// missing header.
    #[allow(clippy::too_many_arguments)]
    pub fn submit_batch_fraud_proof(
        &mut self,
        request_bytes: &[u8],
        response_bytes: &[u8],
        witness: Address,
        headers_bytes: &[Vec<u8>],
        ctx: &BlockContext,
        cmm: &mut ChannelsModule,
        fndm: &mut DepositModule,
        state: &mut State,
        meter: &mut GasMeter,
    ) -> Result<(Vec<u8>, Vec<Log>), Revert> {
        let headers_len: usize = headers_bytes.iter().map(Vec::len).sum();
        meter.process_bytes(request_bytes.len() + response_bytes.len() + headers_len);
        let req = crate::ParpBatchRequest::decode(request_bytes)
            .map_err(|e| Revert::new(format!("malformed batch request: {e}")))?;
        let res = crate::ParpBatchResponse::decode(response_bytes)
            .map_err(|e| Revert::new(format!("malformed batch response: {e}")))?;

        let exchange = ExchangeFields {
            req_channel_id: req.channel_id,
            res_channel_id: res.channel_id,
            request_hash: req.request_hash,
            res_request_hash: res.request_hash,
            request_sig: req.request_sig,
            request_block_hash: req.block_hash,
            amounts_equal: req.amount == res.amount,
        };
        // Each proof node is hashed once — after the cheap guards pass —
        // for `h_res` and for the proof walks; `h_res` hashes those
        // hashes, not the nodes' bytes.
        let hashes = std::cell::OnceCell::new();
        let hashes = || hashes.get_or_init(|| res.proof_hashes());
        let (channel, request_height) = self.authenticate_exchange(
            &exchange,
            || req.expected_hash(),
            || recover_address(&res.digest(hashes()), &res.response_sig).ok(),
            request_bytes,
            || res.digest_preimage_len(hashes()),
            ctx,
            cmm,
            meter,
        )?;
        // Every submitted header inside the `BLOCKHASH` window must
        // hash to the chain's stored block hash; duplicates are
        // padding. A header whose height fell out of the window is
        // skipped rather than reverted on: it cannot be validated, so
        // items bound to it go unjudged (§VI freshness bound) — but an
        // old honest lookup never blocks condemning the fresh items
        // (or batch-level conditions) next to it.
        let mut trusted: BTreeMap<u64, Header> = BTreeMap::new();
        for header_bytes in headers_bytes {
            let header = Header::decode(header_bytes)
                .map_err(|e| Revert::new(format!("malformed header: {e}")))?;
            let Some(expected) = ctx.block_hash(header.number) else {
                continue;
            };
            meter.keccak(header_bytes.len());
            if keccak256(header_bytes) != expected {
                return Err(Revert::new("header hash does not match the chain"));
            }
            if trusted.insert(header.number, header).is_some() {
                return Err(Revert::new("duplicate header submitted"));
            }
        }
        if !trusted.contains_key(&res.block_number) {
            return Err(Revert::new("no valid header for the snapshot block"));
        }

        // MPT walk cost: hash every multiproof and inclusion-proof
        // node, plus the carried headers the structure check re-hashes.
        for node in &res.multiproof {
            meter.keccak(node.len());
        }
        for proof in &res.item_proofs {
            for node in proof {
                meter.keccak(node.len());
            }
        }
        for header in &res.headers {
            meter.keccak(header.len());
        }
        let fraud = crate::batch_fraud_conditions(&req, &res, hashes(), &trusted, request_height)
            .map_err(Revert::new)?;
        let verdict = match fraud {
            None => return Err(Revert::new("no fraud detected")),
            Some(crate::BatchFraud::Batch(verdict)) => verdict,
            Some(crate::BatchFraud::Items(verdicts)) => verdicts
                .into_iter()
                .flatten()
                .next()
                .ok_or_else(|| Revert::new("no fraud detected"))?,
        };
        self.slash_and_record(
            req.request_hash,
            verdict,
            witness,
            &channel,
            ctx,
            cmm,
            fndm,
            state,
            meter,
        )
    }

    /// Decodes a submitted header and validates it against the
    /// `BLOCKHASH` window: the header must hash to the stored block hash
    /// for its height, which is only visible inside the 256-block window
    /// (paper §VI).
    fn validate_header(
        header_bytes: &[u8],
        ctx: &BlockContext,
        meter: &mut GasMeter,
    ) -> Result<Header, Revert> {
        let header = Header::decode(header_bytes)
            .map_err(|e| Revert::new(format!("malformed header: {e}")))?;
        meter.keccak(header_bytes.len());
        let expected = ctx
            .block_hash(header.number)
            .ok_or_else(|| Revert::new("header outside the blockhash window"))?;
        if keccak256(header_bytes) != expected {
            return Err(Revert::new("header hash does not match the chain"));
        }
        Ok(header)
    }

    /// The shared authentication sequence of Algorithm 2: channel lookup
    /// and status, double-report guard, request-hash consistency, both
    /// signature recoveries, and `req.h_B` height resolution. The hash
    /// recomputation and response-signer recovery run only after the
    /// cheap guards pass. Header validation is separate
    /// ([`FraudModule::validate_header`]) because single and batched
    /// submissions carry different header sets. `h_res` is metered over
    /// `response_digest_len()` bytes: the whole response for a single
    /// call (§V's digest covers its fields' bytes), the digest preimage
    /// for a batch (proof nodes enter it as 32-byte hashes).
    #[allow(clippy::too_many_arguments)]
    fn authenticate_exchange(
        &self,
        exchange: &ExchangeFields,
        expected_request_hash: impl FnOnce() -> H256,
        response_signer: impl FnOnce() -> Option<Address>,
        request_bytes: &[u8],
        response_digest_len: impl FnOnce() -> usize,
        ctx: &BlockContext,
        cmm: &ChannelsModule,
        meter: &mut GasMeter,
    ) -> Result<(crate::cmm::Channel, u64), Revert> {
        // The match of the identifier.
        if exchange.req_channel_id != exchange.res_channel_id {
            return Err(Revert::new("channel identifier mismatch"));
        }
        meter.sload_n(6);
        let channel = cmm
            .channel(exchange.req_channel_id)
            .ok_or_else(|| Revert::new("unknown channel"))?
            .clone();
        if channel.status == ChannelStatus::Closed {
            return Err(Revert::new("channel already closed"));
        }
        if self.records.contains_key(&exchange.request_hash) {
            return Err(Revert::new("fraud case already processed"));
        }

        // The origin of the request: recompute h_req, recover σ_req. The
        // hash equality just checked lets σ_req be recovered against the
        // carried hash directly, without re-encoding the request again.
        meter.keccak(request_bytes.len());
        if expected_request_hash() != exchange.request_hash {
            return Err(Revert::new("request hash does not match contents"));
        }
        if exchange.res_request_hash != exchange.request_hash {
            return Err(Revert::new("response references a different request"));
        }
        meter.ecrecover();
        let request_signer = recover_address(&exchange.request_hash, &exchange.request_sig)
            .map_err(|_| Revert::new("request signature invalid"))?;
        if request_signer != channel.light_client {
            return Err(Revert::new(
                "request not signed by the channel's light client",
            ));
        }

        // The origin of the response: recover σ_res.
        meter.keccak(response_digest_len());
        meter.ecrecover();
        let response_signer =
            response_signer().ok_or_else(|| Revert::new("response signature invalid"))?;
        if response_signer != channel.full_node {
            return Err(Revert::new(
                "response not signed by the channel's full node",
            ));
        }

        // The height of req.h_B must be resolvable on-chain (unless the
        // amount condition already condemns and makes it irrelevant).
        let request_height = if !exchange.amounts_equal {
            0
        } else {
            ctx.block_height_by_hash(&exchange.request_block_hash)
                .ok_or_else(|| Revert::new("request block hash outside the window"))?
        };
        Ok((channel, request_height))
    }

    /// slashAndReward (Algorithm 2) plus the fraud record and event.
    #[allow(clippy::too_many_arguments)]
    fn slash_and_record(
        &mut self,
        request_hash: H256,
        verdict: FraudVerdict,
        witness: Address,
        channel: &crate::cmm::Channel,
        ctx: &BlockContext,
        cmm: &mut ChannelsModule,
        fndm: &mut DepositModule,
        state: &mut State,
        meter: &mut GasMeter,
    ) -> Result<(Vec<u8>, Vec<Log>), Revert> {
        let slashed = fndm.slash(
            channel.full_node,
            channel.light_client,
            witness,
            state,
            meter,
        )?;
        cmm.settle_for_fraud(channel.id, state, meter)?;
        self.records.insert(
            request_hash,
            FraudRecord {
                offender: channel.full_node,
                reporter: channel.light_client,
                witness,
                verdict,
                slashed,
                block: ctx.number,
            },
        );
        // parp-allow(W004): the slash log is the append-only audit trail fraud adjudication exists to produce
        self.slash_log.push(SlashEvent {
            request_hash,
            offender: channel.full_node,
            witness,
            verdict,
            slashed,
            block: ctx.number,
        });
        meter.sstore_set_n(3);
        let log = event_log(
            crate::calls::fdm_address(),
            "FraudProven(address,address,uint8)",
            &[address_topic(&channel.full_node), address_topic(&witness)],
            &[verdict.as_byte()],
        );
        meter.log(3, 1);
        Ok((vec![verdict.as_byte()], vec![log]))
    }

    /// Commitment to the module state.
    pub fn commitment(&self) -> H256 {
        let mut hasher = parp_crypto::Keccak256::new();
        hasher.update(b"fdm");
        for (hash, record) in &self.records {
            hasher.update(hash.as_bytes());
            hasher.update(record.offender.as_bytes());
            hasher.update(record.witness.as_bytes());
            hasher.update(&[record.verdict.as_byte()]);
            hasher.update(&record.slashed.to_be_bytes());
            hasher.update(&record.block.to_be_bytes());
        }
        hasher.finalize()
    }
}
