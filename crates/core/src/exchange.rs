//! The wire shape of one exchange, hidden behind one trait.
//!
//! The paper has one exchange — Fig. 5's (A) request → (B) verify →
//! (C) respond → (D) classify — and two message formats that carry it:
//! one call per envelope, or a batch under one signature and one
//! payment. A driver written against [`Exchange`] runs that one
//! exchange without knowing which format is on the wire; the formats
//! themselves are untouched (a single call is *not* a batch of one).

use crate::client::{ClientError, LightClient, ProcessBatchOutcome, ProcessOutcome};
use crate::verify::Classification;
use parp_contracts::{ParpBatchRequest, ParpBatchResponse, ParpRequest, ParpResponse, RpcCall};
use parp_primitives::{Address, H256};

/// What one PARP exchange carries — implemented by [`RpcCall`] (one
/// call per envelope) and `Vec<RpcCall>` (a batch) — and everything
/// about it that depends on the message format.
pub trait Exchange: Sized {
    /// The signed request envelope.
    type Request;
    /// The signed response envelope.
    type Response;
    /// What the client concludes from a response.
    type Outcome;
    /// Label of this kind of exchange in traces.
    const KIND: &'static str;

    /// Number of RPC calls carried.
    fn calls(&self) -> u64;

    /// Step (A): builds and signs the request on `provider`'s channel and
    /// files it as pending.
    ///
    /// # Errors
    ///
    /// The client's refusal (not bonded, no headers, budget exhausted,
    /// malformed batch).
    fn build(
        self,
        client: &mut LightClient,
        provider: Address,
    ) -> Result<Self::Request, ClientError>;

    /// The hash the pending entry is filed under.
    fn request_hash(request: &Self::Request) -> H256;

    /// Bytes one exchange puts on the wire: `(request, response, Merkle
    /// proof share of the response)`.
    fn wire_bytes(request: &Self::Request, response: &Self::Response) -> (usize, usize, usize);

    /// Transport damage: flips one deterministic payload byte **without**
    /// re-signing, so the recomputed `h_res` no longer matches `σ_res`
    /// and the client classifies the response
    /// `Invalid(ResponseSignatureInvalid)` instead of trusting it.
    fn corrupt(response: &mut Self::Response, nudge: u64);

    /// Step (D): pairs `response`, which arrived over `provider`'s
    /// connection, with its pending request, classifies it and commits
    /// the payment.
    ///
    /// # Errors
    ///
    /// Fails when no pending request pairs with the response.
    fn settle(
        client: &mut LightClient,
        provider: Address,
        response: &Self::Response,
    ) -> Result<Self::Outcome, ClientError>;

    /// The §V-D verdict an outcome amounts to (for a batch: valid only
    /// when every item is; fraudulent when any item is).
    fn verdict(outcome: &Self::Outcome) -> Classification;
}

impl Exchange for RpcCall {
    type Request = ParpRequest;
    type Response = ParpResponse;
    type Outcome = ProcessOutcome;
    const KIND: &'static str = "call";

    fn calls(&self) -> u64 {
        1
    }

    fn build(
        self,
        client: &mut LightClient,
        provider: Address,
    ) -> Result<ParpRequest, ClientError> {
        client.request_from(provider, self)
    }

    fn request_hash(request: &ParpRequest) -> H256 {
        request.request_hash
    }

    fn wire_bytes(request: &ParpRequest, response: &ParpResponse) -> (usize, usize, usize) {
        let (request, wire) = (request.encoded_len(), response.encoded_len());
        (request, wire, response.proof_bytes())
    }

    fn corrupt(response: &mut ParpResponse, nudge: u64) {
        if response.result.is_empty() {
            // Nothing to flip in the payload: grow it, which breaks the
            // hash just the same.
            response.result.push(0xA5);
        } else {
            let index = (nudge as usize) % response.result.len();
            response.result[index] ^= 0x40;
        }
    }

    fn settle(
        client: &mut LightClient,
        provider: Address,
        response: &ParpResponse,
    ) -> Result<ProcessOutcome, ClientError> {
        client.process_response_from(provider, response)
    }

    fn verdict(outcome: &ProcessOutcome) -> Classification {
        match outcome {
            ProcessOutcome::Valid { .. } => Classification::Valid,
            ProcessOutcome::Invalid(reason) => Classification::Invalid(reason.clone()),
            ProcessOutcome::Fraud(evidence) => Classification::Fraudulent(evidence.verdict),
        }
    }
}

impl Exchange for Vec<RpcCall> {
    type Request = ParpBatchRequest;
    type Response = ParpBatchResponse;
    type Outcome = ProcessBatchOutcome;
    const KIND: &'static str = "batch";

    fn calls(&self) -> u64 {
        self.len() as u64
    }

    fn build(
        self,
        client: &mut LightClient,
        provider: Address,
    ) -> Result<ParpBatchRequest, ClientError> {
        client.request_batch_from(provider, self)
    }

    fn request_hash(request: &ParpBatchRequest) -> H256 {
        request.request_hash
    }

    fn wire_bytes(
        request: &ParpBatchRequest,
        response: &ParpBatchResponse,
    ) -> (usize, usize, usize) {
        let (request, wire) = (request.encoded_len(), response.encoded_len());
        (request, wire, response.proof_bytes())
    }

    /// Flips one byte of one item's result, condemning the whole signed
    /// envelope.
    fn corrupt(response: &mut ParpBatchResponse, nudge: u64) {
        if let Some(result) = response.results.iter_mut().find(|r| !r.is_empty()) {
            let index = (nudge as usize) % result.len();
            result[index] ^= 0x40;
        } else if let Some(first) = response.results.first_mut() {
            first.push(0xA5);
        } else {
            response.results.push(vec![0xA5]);
        }
    }

    fn settle(
        client: &mut LightClient,
        provider: Address,
        response: &ParpBatchResponse,
    ) -> Result<ProcessBatchOutcome, ClientError> {
        client.process_batch_response_from(provider, response)
    }

    fn verdict(outcome: &ProcessBatchOutcome) -> Classification {
        match outcome {
            ProcessBatchOutcome::Valid { .. } => Classification::Valid,
            ProcessBatchOutcome::Invalid(reason) => Classification::Invalid(reason.clone()),
            ProcessBatchOutcome::Fraud { evidence, .. } => {
                Classification::Fraudulent(evidence.verdict)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corruption_breaks_payload_not_length_invariants() {
        let secret = parp_crypto::SecretKey::from_seed(b"fault-test");
        let sig = parp_crypto::sign(&secret, &H256::ZERO);
        let mut response = ParpResponse {
            channel_id: 0,
            block_number: 1,
            amount: parp_primitives::U256::from(10u64),
            result: vec![1, 2, 3],
            proof: Vec::new(),
            request_hash: H256::ZERO,
            request_sig: sig,
            response_sig: sig,
        };
        let original = response.result.clone();
        RpcCall::corrupt(&mut response, 5);
        assert_ne!(response.result, original);
        assert_eq!(response.result.len(), original.len());
    }
}
