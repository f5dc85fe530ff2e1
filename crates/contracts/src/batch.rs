//! Batched PARP wire messages: one ECDSA signature and one cumulative
//! micropayment covering N RPC calls, with a **multi-header envelope**
//! that lets historical inclusion lookups ride in the same batch as
//! state reads.
//!
//! The single-call protocol (Fig. 3) pays for its accountability with a
//! signature check and a Merkle proof *per call* — the dominant server
//! cost under heavy read traffic. A batch amortizes both: the light
//! client signs the whole call vector once, the full node verifies one
//! signature and serves every item, and all state-trie proofs collapse
//! into a single deduplicated multiproof (shared branch nodes cross the
//! wire once; see [`parp_trie::verify_many`]).
//!
//! Where the first batched pipeline bound every item to **one** snapshot
//! header, the envelope now carries a deduplicated set of block headers —
//! one per distinct block any item's proof binds to — so transaction and
//! receipt lookups (proven against the trie roots of their *containing*
//! blocks) batch alongside balance and nonce reads. Each item names its
//! block in [`ParpBatchResponse::item_blocks`]; inclusion items carry
//! their own proof in [`ParpBatchResponse::item_proofs`]; state items
//! keep sharing the snapshot multiproof. One `σ_res` still commits the
//! node to everything, including the carried headers.
//!
//! Accountability is preserved per item: the node's batch signature
//! commits it to every `(result, block, proof)` triple, so one
//! fraudulent item is enough for the client to hold fraud evidence
//! against the whole signed response.
//!
//! # What `σ_res` signs
//!
//! `h_res` is the keccak of the response's ten signed fields with every
//! proof node — multiproof and inclusion proofs alike — replaced by its
//! `keccak256` ([`ProofHashes`]); results, item blocks, carried headers,
//! `h_req` and `σ_req` are bound by their bytes. The binding is as
//! strong as binding the bytes: finding two different proof nodes with
//! one hash is a keccak collision, and the client verifies the very bytes
//! whose hashes the node signed. It is cheaper on both sides, because
//! each side holds those hashes anyway — the server reads each node's
//! hash from its parent's child reference during the trie walk that cut
//! the proof, and the client hashes each node once, for the digest and
//! for the proof walk ([`parp_trie::verify_many_hashed`]). The single-call
//! [`crate::ParpResponse`] keeps the paper's §V digest over its bytes.

use crate::fdm::FraudVerdict;
use crate::message::{
    decode_signature, encode_signature, payment_digest, request_envelope_len, MessageError,
    ProofKind, RpcCall, H256_FIELD_LEN, SIGNATURE_FIELD_LEN,
};
use parp_chain::Header;
use parp_crypto::{keccak256, recover_address, sign, SecretKey, Signature};
use parp_primitives::{Address, H256, U256};
use parp_rlp::{
    bytes_len, decode_list_of, encode_bytes, encode_h256, encode_list, encode_u256, encode_u64,
    list_len, u256_len, u64_len, write_bytes, write_list_header, write_u256, write_u64, Item,
};
use parp_trie::ProofBuf;
use std::collections::BTreeMap;

fn encode_calls(calls: &[RpcCall]) -> Vec<u8> {
    let items: Vec<Vec<u8>> = calls.iter().map(|c| encode_bytes(&c.encode())).collect();
    encode_list(&items)
}

/// Encoded size of the items of a list of byte strings.
fn nodes_payload_len(nodes: &[Vec<u8>]) -> usize {
    nodes.iter().map(|n| bytes_len(n)).sum()
}

/// Appends `nodes` as a list of byte strings.
fn write_nodes(nodes: &[Vec<u8>], out: &mut Vec<u8>) {
    write_list_header(nodes_payload_len(nodes), out);
    for node in nodes {
        write_bytes(node, out);
    }
}

fn decode_nodes(item: &Item) -> Result<Vec<Vec<u8>>, MessageError> {
    Ok(item
        .as_list()?
        .iter()
        .map(|n| n.as_bytes().map(<[u8]>::to_vec))
        .collect::<Result<Vec<_>, _>>()?)
}

fn u64s_payload_len(values: &[u64]) -> usize {
    values.iter().map(|v| u64_len(*v)).sum()
}

fn decode_u64_list(item: &Item) -> Result<Vec<u64>, MessageError> {
    Ok(item
        .as_list()?
        .iter()
        .map(Item::as_u64)
        .collect::<Result<Vec<_>, _>>()?)
}

fn proof_sets_payload_len(proofs: &[Vec<Vec<u8>>]) -> usize {
    proofs.iter().map(|p| list_len(nodes_payload_len(p))).sum()
}

fn decode_proof_sets(item: &Item) -> Result<Vec<Vec<Vec<u8>>>, MessageError> {
    item.as_list()?.iter().map(decode_nodes).collect()
}

/// Encoded size of the items of a list of hashes.
fn hashes_payload_len(hashes: &[H256]) -> usize {
    hashes.len() * H256_FIELD_LEN
}

/// Appends `hashes` as a list of 32-byte strings.
fn write_hashes(hashes: &[H256], out: &mut Vec<u8>) {
    write_list_header(hashes_payload_len(hashes), out);
    for hash in hashes {
        write_bytes(hash.as_bytes(), out);
    }
}

/// `keccak256` of every proof node of a batch response, in envelope
/// order: the multiproof's nodes, then each item proof's nodes, item by
/// item. `h_res` binds proof nodes through these hashes, and the same
/// hashes key the verifier's node table, so a node's bytes are hashed at
/// most once on each side of an exchange.
///
/// Built only from bytes the holder has — by hashing a received
/// response's nodes ([`ParpBatchResponse::proof_hashes`]) or from the
/// serving node's own proof buffers ([`ProofHashes::served`]) — never
/// read off the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProofHashes {
    hashes: Vec<H256>,
    /// How many of `hashes` are the multiproof's.
    multiproof: usize,
}

impl ProofHashes {
    /// Hashes every node of a multiproof and of each item's inclusion
    /// proof: what a client or a judge does with a response it received.
    fn of(multiproof: &[Vec<u8>], item_proofs: &[Vec<Vec<u8>>]) -> Self {
        let item_nodes: usize = item_proofs.iter().map(Vec::len).sum();
        let mut hashes = Vec::with_capacity(multiproof.len() + item_nodes);
        let nodes = multiproof.iter().chain(item_proofs.iter().flatten());
        hashes.extend(nodes.map(|node| keccak256(node)));
        ProofHashes {
            hashes,
            multiproof: multiproof.len(),
        }
    }

    /// The serving node's form: every hash as its trie walks recorded it
    /// beside the node — in `multiproof`, the buffer the response's
    /// multiproof is copied out of, and in `item_proofs`, one buffer per
    /// item that its inclusion proof is copied out of. Nothing is hashed.
    pub fn served(multiproof: &ProofBuf, item_proofs: &[ProofBuf]) -> Self {
        let item_nodes: usize = item_proofs.iter().map(ProofBuf::len).sum();
        let mut hashes = Vec::with_capacity(multiproof.len() + item_nodes);
        hashes.extend(multiproof.hashes());
        hashes.extend(item_proofs.iter().flat_map(ProofBuf::hashes));
        ProofHashes {
            hashes,
            multiproof: multiproof.len(),
        }
    }

    /// The multiproof's node hashes.
    fn multiproof(&self) -> &[H256] {
        &self.hashes[..self.multiproof]
    }

    /// The inclusion-proof node hashes, cut into one run per item, each
    /// as long as that item's proof in `item_proofs`. Runs past the end
    /// of the hashes come out short, never a panic.
    fn items<'a>(
        &'a self,
        item_proofs: &'a [Vec<Vec<u8>>],
    ) -> impl Iterator<Item = &'a [H256]> + 'a {
        let mut rest = &self.hashes[self.multiproof..];
        item_proofs.iter().map(move |proof| {
            let (run, tail) = rest.split_at(proof.len().min(rest.len()));
            rest = tail;
            run
        })
    }
}

/// Computes the batch `h_req` over the request's signed fields.
pub fn batch_request_hash(
    channel_id: u64,
    block_hash: &H256,
    amount: &U256,
    calls: &[RpcCall],
) -> H256 {
    keccak256(&encode_list(&[
        encode_u64(channel_id),
        encode_h256(block_hash),
        encode_u256(amount),
        encode_calls(calls),
    ]))
}

/// A batched PARP request: the Fig. 3 request shape with γ generalized to
/// a call vector. One `σ_req` covers every call; one `σ_a` covers the
/// cumulative payment for all of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParpBatchRequest {
    /// Channel identifier α.
    pub channel_id: u64,
    /// `h_B`: the most recent block hash known to the light client.
    pub block_hash: H256,
    /// `a`: cumulative payment amount authorized so far — this single
    /// amount pays for the whole batch.
    pub amount: U256,
    /// The wrapped RPC calls γ₁..γₙ (read-only; see
    /// [`RpcCall::batchable`]).
    pub calls: Vec<RpcCall>,
    /// `h_req = keccak256(rlp([α, h_B, a, [γ₁..γₙ]]))`.
    pub request_hash: H256,
    /// `σ_a = Sign(keccak256(rlp([α, a])))` — the detachable payment
    /// proof, identical in form to the single-call one so the CMM redeems
    /// batch payments unchanged.
    pub payment_sig: Signature,
    /// `σ_req = Sign(h_req)` — the batch's one request signature.
    pub request_sig: Signature,
}

impl ParpBatchRequest {
    /// Builds and signs a batch request with the light client's key.
    pub fn build(
        secret: &SecretKey,
        channel_id: u64,
        block_hash: H256,
        amount: U256,
        calls: Vec<RpcCall>,
    ) -> Self {
        let h_req = batch_request_hash(channel_id, &block_hash, &amount, &calls);
        let payment_sig = sign(secret, &payment_digest(channel_id, &amount));
        let request_sig = sign(secret, &h_req);
        ParpBatchRequest {
            channel_id,
            block_hash,
            amount,
            calls,
            request_hash: h_req,
            payment_sig,
            request_sig,
        }
    }

    /// Number of calls in the batch.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether the batch carries no calls (such requests are rejected by
    /// every honest server: an empty batch still demands payment).
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Recomputes `h_req` from the request contents.
    pub fn expected_hash(&self) -> H256 {
        batch_request_hash(self.channel_id, &self.block_hash, &self.amount, &self.calls)
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

    /// Full RLP wire encoding (7 fields, as the single-call request).
    pub fn encode(&self) -> Vec<u8> {
        encode_list(&[
            encode_u64(self.channel_id),
            encode_h256(&self.block_hash),
            encode_u256(&self.amount),
            encode_calls(&self.calls),
            encode_h256(&self.request_hash),
            encode_signature(&self.payment_sig),
            encode_signature(&self.request_sig),
        ])
    }

    /// Decodes a batch request.
    ///
    /// # Errors
    ///
    /// Returns [`MessageError`] on malformed structure or signatures.
    pub fn decode(bytes: &[u8]) -> Result<Self, MessageError> {
        let fields = decode_list_of(bytes, 7)?;
        let calls = fields[3]
            .as_list()?
            .iter()
            .map(|c| {
                c.as_bytes()
                    .map_err(MessageError::from)
                    .and_then(|b| Ok(RpcCall::decode(b)?))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParpBatchRequest {
            channel_id: fields[0].as_u64()?,
            block_hash: fields[1].as_h256()?,
            amount: fields[2].as_u256()?,
            calls,
            request_hash: fields[4].as_h256()?,
            payment_sig: decode_signature(&fields[5])?,
            request_sig: decode_signature(&fields[6])?,
        })
    }

    /// `self.encode().len()`, from the field sizes alone.
    pub fn encoded_len(&self) -> usize {
        let calls: usize = self.calls.iter().map(|c| list_len(c.encoded_len())).sum();
        request_envelope_len(self.channel_id, &self.amount, list_len(calls))
    }

    /// Byte size of the PARP metadata added on top of the bare RPC calls:
    /// the per-batch equivalent of Table II's request overhead. Constant
    /// in the batch size — that is the point.
    pub fn overhead_bytes(&self) -> usize {
        let calls: usize = self.calls.iter().map(RpcCall::encoded_len).sum();
        self.encoded_len() - calls
    }
}

/// Everything a full node produces when serving a batch: the served
/// payloads, each item's binding block and (for inclusion lookups) its
/// own proof, the shared state multiproof, and the deduplicated header
/// set. [`ParpBatchResponse::build`] signs it as one response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchOutput {
    /// `m_B`: the state-snapshot height state-proven and unproven items
    /// were served at.
    pub block_number: u64,
    /// `R(γᵢ)` per item, aligned with the request's call order.
    pub results: Vec<Vec<u8>>,
    /// The shared state-trie multiproof under the snapshot's
    /// `state_root`.
    pub multiproof: Vec<Vec<u8>>,
    /// Per item: the block whose header roots the item's proof binds to
    /// (`block_number` for state-proven and unproven items, the
    /// containing block for inclusion lookups).
    pub item_blocks: Vec<u64>,
    /// Per item: the inclusion proof nodes for transaction/receipt
    /// lookups; empty for state-proven (they share the multiproof) and
    /// unproven items.
    pub item_proofs: Vec<Vec<Vec<u8>>>,
    /// The deduplicated header set: the RLP encoding of one header per
    /// distinct block in `item_blocks` (plus the snapshot block),
    /// ascending by height.
    pub headers: Vec<Vec<u8>>,
}

impl BatchOutput {
    /// A snapshot-only output: every item bound to `block_number`, no
    /// per-item proofs, and `header` as the single carried header —
    /// the shape the original one-snapshot pipeline produced.
    pub fn snapshot(
        block_number: u64,
        results: Vec<Vec<u8>>,
        multiproof: Vec<Vec<u8>>,
        header: Vec<u8>,
    ) -> Self {
        let n = results.len();
        BatchOutput {
            block_number,
            results,
            multiproof,
            item_blocks: vec![block_number; n],
            item_proofs: vec![Vec::new(); n],
            headers: vec![header],
        }
    }
}

/// A batched PARP response: per-item results, one shared deduplicated
/// state multiproof, per-item inclusion proofs bound to their own
/// blocks' headers, the deduplicated header set, and one response
/// signature over everything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParpBatchResponse {
    /// Channel identifier α (must match the request).
    pub channel_id: u64,
    /// `m_B`: the snapshot height state-proven and unproven items were
    /// served at.
    pub block_number: u64,
    /// `a`: echo of the request's cumulative payment amount.
    pub amount: U256,
    /// `R(γᵢ)` per item, aligned with the request's call order.
    pub results: Vec<Vec<u8>>,
    /// The shared state-trie multiproof: the deduplicated union of every
    /// state-proven item's path under the snapshot's `state_root`
    /// (verified with [`parp_trie::verify_many`]).
    pub multiproof: Vec<Vec<u8>>,
    /// Per item: the block whose header the item's proof binds to.
    /// State-proven and unproven items carry `block_number`; inclusion
    /// lookups carry their containing block.
    pub item_blocks: Vec<u64>,
    /// Per item: inclusion proof nodes under the item block's
    /// transaction/receipt root; empty for state-proven and unproven
    /// items.
    pub item_proofs: Vec<Vec<Vec<u8>>>,
    /// The deduplicated carried headers (RLP), one per distinct
    /// referenced block, ascending by height. `σ_res` commits the node
    /// to them: they are its claim of which roots it served against.
    pub headers: Vec<Vec<u8>>,
    /// `h_req`: echo of the batch request hash.
    pub request_hash: H256,
    /// `σ_req`: echo of the batch request signature.
    pub request_sig: Signature,
    /// `σ_res = Sign(h_res)` by the full node — the batch's one response
    /// signature, committing the node to every item.
    pub response_sig: Signature,
}

/// How [`SignedFields`] writes its proof nodes.
#[derive(Clone, Copy)]
enum ProofForm<'a> {
    /// As the wire carries them: each node's bytes.
    Bytes,
    /// As `h_res` binds them: each node's `keccak256`.
    Hashes(&'a ProofHashes),
}

/// The ten fields `σ_res` signs, by reference. The wire encoding is the
/// ten as a list followed by `σ_res`; `h_res` is the keccak of the ten as
/// a list with every proof node written as its hash
/// ([`SignedFields::digest`], the one batch digest). Both are sized
/// arithmetically and written once into one buffer.
struct SignedFields<'a> {
    channel_id: u64,
    block_number: u64,
    amount: &'a U256,
    results: &'a [Vec<u8>],
    multiproof: &'a [Vec<u8>],
    item_blocks: &'a [u64],
    item_proofs: &'a [Vec<Vec<u8>>],
    headers: &'a [Vec<u8>],
    request_hash: &'a H256,
    request_sig: &'a Signature,
}

impl SignedFields<'_> {
    /// Encoded size of the ten fields with proof nodes in `form`:
    /// exactly what [`Self::write`] appends.
    fn len(&self, form: ProofForm<'_>) -> usize {
        let multiproof = match form {
            ProofForm::Bytes => nodes_payload_len(self.multiproof),
            ProofForm::Hashes(hashes) => hashes_payload_len(hashes.multiproof()),
        };
        u64_len(self.channel_id)
            + u64_len(self.block_number)
            + u256_len(self.amount)
            + list_len(nodes_payload_len(self.results))
            + list_len(multiproof)
            + list_len(u64s_payload_len(self.item_blocks))
            + list_len(self.item_proofs_payload_len(form))
            + list_len(nodes_payload_len(self.headers))
            + H256_FIELD_LEN
            + SIGNATURE_FIELD_LEN
    }

    fn item_proofs_payload_len(&self, form: ProofForm<'_>) -> usize {
        match form {
            ProofForm::Bytes => proof_sets_payload_len(self.item_proofs),
            ProofForm::Hashes(hashes) => hashes
                .items(self.item_proofs)
                .map(|run| list_len(hashes_payload_len(run)))
                .sum(),
        }
    }

    fn write(&self, form: ProofForm<'_>, out: &mut Vec<u8>) {
        write_u64(self.channel_id, out);
        write_u64(self.block_number, out);
        write_u256(self.amount, out);
        write_nodes(self.results, out);
        match form {
            ProofForm::Bytes => write_nodes(self.multiproof, out),
            ProofForm::Hashes(hashes) => write_hashes(hashes.multiproof(), out),
        }
        write_list_header(u64s_payload_len(self.item_blocks), out);
        for block in self.item_blocks {
            write_u64(*block, out);
        }
        write_list_header(self.item_proofs_payload_len(form), out);
        match form {
            ProofForm::Bytes => self.item_proofs.iter().for_each(|p| write_nodes(p, out)),
            ProofForm::Hashes(hashes) => hashes
                .items(self.item_proofs)
                .for_each(|run| write_hashes(run, out)),
        }
        write_nodes(self.headers, out);
        write_bytes(self.request_hash.as_bytes(), out);
        write_bytes(&self.request_sig.to_bytes(), out);
    }

    /// The fields as one list, then `trailer_len` bytes of room the
    /// caller fills with further items of the same list.
    fn encode_with_room(&self, form: ProofForm<'_>, trailer_len: usize) -> Vec<u8> {
        let payload_len = self.len(form) + trailer_len;
        let mut out = Vec::with_capacity(list_len(payload_len));
        write_list_header(payload_len, &mut out);
        self.write(form, &mut out);
        out
    }

    /// `h_res`: the keccak of the fields with each proof node bound by
    /// its hash in `hashes`. The builder, the client and the judge all
    /// reach this one function.
    fn digest(&self, hashes: &ProofHashes) -> H256 {
        keccak256(&self.encode_with_room(ProofForm::Hashes(hashes), 0))
    }
}

impl ParpBatchResponse {
    /// Builds and signs a batch response with the full node's key,
    /// hashing every proof node for `h_res`.
    pub fn build(secret: &SecretKey, request: &ParpBatchRequest, output: BatchOutput) -> Self {
        let hashes = ProofHashes::of(&output.multiproof, &output.item_proofs);
        Self::build_hashed(secret, request, output, &hashes)
    }

    /// [`ParpBatchResponse::build`] with the proof-node hashes already in
    /// hand — a serving node's [`ProofHashes::served`], which its trie
    /// walks recorded without hashing. `hashes` must be those of
    /// `output`'s proofs, or the signature will not verify.
    pub fn build_hashed(
        secret: &SecretKey,
        request: &ParpBatchRequest,
        output: BatchOutput,
        hashes: &ProofHashes,
    ) -> Self {
        let h_res = SignedFields {
            channel_id: request.channel_id,
            block_number: output.block_number,
            amount: &request.amount,
            results: &output.results,
            multiproof: &output.multiproof,
            item_blocks: &output.item_blocks,
            item_proofs: &output.item_proofs,
            headers: &output.headers,
            request_hash: &request.request_hash,
            request_sig: &request.request_sig,
        }
        .digest(hashes);
        ParpBatchResponse {
            channel_id: request.channel_id,
            block_number: output.block_number,
            amount: request.amount,
            results: output.results,
            multiproof: output.multiproof,
            item_blocks: output.item_blocks,
            item_proofs: output.item_proofs,
            headers: output.headers,
            request_hash: request.request_hash,
            request_sig: request.request_sig,
            response_sig: sign(secret, &h_res),
        }
    }

    /// Number of items in the response.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the response carries no items.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    fn signed_fields(&self) -> SignedFields<'_> {
        SignedFields {
            channel_id: self.channel_id,
            block_number: self.block_number,
            amount: &self.amount,
            results: &self.results,
            multiproof: &self.multiproof,
            item_blocks: &self.item_blocks,
            item_proofs: &self.item_proofs,
            headers: &self.headers,
            request_hash: &self.request_hash,
            request_sig: &self.request_sig,
        }
    }

    /// `keccak256` of every proof node this response carries, each
    /// hashed once: the input to [`ParpBatchResponse::digest`] and to
    /// [`batch_fraud_conditions`].
    pub fn proof_hashes(&self) -> ProofHashes {
        ProofHashes::of(&self.multiproof, &self.item_proofs)
    }

    /// `h_res` from the response contents, with proof nodes bound by
    /// `hashes` — this response's [`ParpBatchResponse::proof_hashes`],
    /// computed once and shared with the proof checks.
    pub fn digest(&self, hashes: &ProofHashes) -> H256 {
        self.signed_fields().digest(hashes)
    }

    /// Recomputes `h_res` from the response contents, hashing every
    /// proof node.
    pub fn expected_hash(&self) -> H256 {
        self.digest(&self.proof_hashes())
    }

    /// Bytes `h_res` hashes: the length of the list
    /// [`ParpBatchResponse::digest`] feeds keccak — what the judge meters
    /// the response-hash recomputation over.
    pub(crate) fn digest_preimage_len(&self, hashes: &ProofHashes) -> usize {
        list_len(self.signed_fields().len(ProofForm::Hashes(hashes)))
    }

    /// Recovers the response signer (the full node) from `σ_res`.
    pub fn signer(&self) -> Option<Address> {
        recover_address(&self.expected_hash(), &self.response_sig).ok()
    }

    /// Full RLP wire encoding (11 fields).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self
            .signed_fields()
            .encode_with_room(ProofForm::Bytes, SIGNATURE_FIELD_LEN);
        write_bytes(&self.response_sig.to_bytes(), &mut out);
        out
    }

    /// `self.encode().len()`, from the field sizes alone.
    pub fn encoded_len(&self) -> usize {
        list_len(self.signed_fields().len(ProofForm::Bytes) + SIGNATURE_FIELD_LEN)
    }

    /// Decodes a batch response.
    ///
    /// # Errors
    ///
    /// Returns [`MessageError`] on malformed structure or signatures.
    pub fn decode(bytes: &[u8]) -> Result<Self, MessageError> {
        let fields = decode_list_of(bytes, 11)?;
        let results = fields[3]
            .as_list()?
            .iter()
            .map(|r| r.as_bytes().map(<[u8]>::to_vec))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ParpBatchResponse {
            channel_id: fields[0].as_u64()?,
            block_number: fields[1].as_u64()?,
            amount: fields[2].as_u256()?,
            results,
            multiproof: decode_nodes(&fields[4])?,
            item_blocks: decode_u64_list(&fields[5])?,
            item_proofs: decode_proof_sets(&fields[6])?,
            headers: decode_nodes(&fields[7])?,
            request_hash: fields[8].as_h256()?,
            request_sig: decode_signature(&fields[9])?,
            response_sig: decode_signature(&fields[10])?,
        })
    }

    /// Total proof bytes on the wire: the shared state multiproof plus
    /// every per-item inclusion proof.
    pub fn proof_bytes(&self) -> usize {
        let state: usize = self.multiproof.iter().map(Vec::len).sum();
        let inclusion: usize = self
            .item_proofs
            .iter()
            .flat_map(|p| p.iter().map(Vec::len))
            .sum::<usize>();
        state + inclusion
    }

    /// Total bytes of the carried header set.
    pub fn header_bytes(&self) -> usize {
        self.headers.iter().map(Vec::len).sum()
    }

    /// The distinct block heights this response binds proofs to: the
    /// snapshot height plus every item's block, deduplicated ascending.
    pub fn referenced_blocks(&self) -> Vec<u64> {
        referenced_blocks(self.block_number, &self.item_blocks)
    }

    /// Byte size of the PARP metadata on top of the results, proofs and
    /// headers: the per-batch equivalent of Table II's response overhead.
    pub fn overhead_bytes(&self) -> usize {
        let results: usize = self.results.iter().map(Vec::len).sum();
        self.encoded_len() - results - self.proof_bytes() - self.header_bytes()
    }
}

/// The distinct block heights a batch binds proofs to — the snapshot
/// plus every item's block, deduplicated ascending. The serving node
/// orders its carried header set with this exact function and the
/// judge zips the carried headers against it, so the two sides can
/// never drift.
pub fn referenced_blocks(snapshot: u64, item_blocks: &[u64]) -> Vec<u64> {
    let mut blocks: Vec<u64> = std::iter::once(snapshot)
        .chain(item_blocks.iter().copied())
        .collect();
    blocks.sort_unstable();
    blocks.dedup();
    blocks
}

/// How a batched response fails the fraud conditions, when it does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchFraud {
    /// The whole response is condemned: payment echo mismatch, stale
    /// snapshot, or a state multiproof that does not verify against the
    /// trusted root.
    Batch(FraudVerdict),
    /// Individual items are condemned: `Some(verdict)` at an item's index
    /// means that item's result/proof pair is provably wrong.
    Items(Vec<Option<FraudVerdict>>),
}

/// Structural consistency of the envelope before any fraud judgement:
/// arity of the per-item vectors, snapshot binding of state/unproven
/// items, and the carried header set matching the trusted headers.
///
/// Returns an error description when the response is unjudgeable —
/// *invalid* rather than fraudulent in the §V-D trichotomy.
fn check_envelope_structure(
    req: &ParpBatchRequest,
    res: &ParpBatchResponse,
    trusted: &BTreeMap<u64, Header>,
) -> Result<(), String> {
    let n = req.calls.len();
    if res.results.len() != n || res.item_blocks.len() != n || res.item_proofs.len() != n {
        return Err(format!(
            "batch arity mismatch: {n} calls, {} results, {} item blocks, {} item proofs",
            res.results.len(),
            res.item_blocks.len(),
            res.item_proofs.len(),
        ));
    }
    for (index, call) in req.calls.iter().enumerate() {
        let snapshot_bound = match call.proof_kind() {
            ProofKind::State | ProofKind::None => true,
            // A "not found" inclusion answer (empty result, no proof)
            // has no containing block; it binds to the snapshot.
            ProofKind::Transaction | ProofKind::Receipt => {
                res.results[index].is_empty() && res.item_proofs[index].is_empty()
            }
        };
        if snapshot_bound {
            if res.item_blocks[index] != res.block_number {
                return Err(format!(
                    "item {index} must bind to the snapshot block {}, claims {}",
                    res.block_number, res.item_blocks[index],
                ));
            }
            if !res.item_proofs[index].is_empty() {
                return Err(format!(
                    "item {index} carries a per-item proof but is snapshot-proven"
                ));
            }
        }
    }
    // The carried header set must be exactly one header per referenced
    // block, each matching the trusted (canonical) header by hash.
    let referenced = res.referenced_blocks();
    if res.headers.len() != referenced.len() {
        return Err(format!(
            "carried header set has {} entries for {} referenced blocks",
            res.headers.len(),
            referenced.len(),
        ));
    }
    for (bytes, number) in res.headers.iter().zip(referenced.iter()) {
        let carried =
            Header::decode(bytes).map_err(|e| format!("malformed carried header: {e}"))?;
        if carried.number != *number {
            return Err(format!(
                "carried headers must cover referenced blocks ascending: expected {number}, got {}",
                carried.number,
            ));
        }
        // Hash-check against the canonical header where one is
        // available. A referenced block the judge has no trusted header
        // for (outside the on-chain `BLOCKHASH` window) is tolerated
        // here — items bound to it simply cannot be condemned — so an
        // old honest lookup in the batch never blocks judging the
        // fresh items next to it.
        if let Some(trusted_header) = trusted.get(number) {
            if carried.hash() != trusted_header.hash() {
                return Err(format!(
                    "carried header for block {number} does not match the canonical header"
                ));
            }
        }
    }
    Ok(())
}

/// Evaluates the fraud conditions of §V-D against a batched exchange:
/// the batch-level payment and timestamp checks, each state-proven
/// item's value against the shared multiproof under the snapshot header,
/// and each inclusion item's proof against its own block's header.
///
/// `trusted` maps block heights to their canonical headers — the light
/// client reads them from its header store, the on-chain FDM from
/// witness-submitted headers validated against the `BLOCKHASH` window.
/// The snapshot block's header is mandatory; for other referenced
/// blocks the map is best-effort: an inclusion item whose block is
/// missing (outside the judge's window) is simply not condemnable —
/// the paper's §VI freshness bound — and never blocks judging the
/// items next to it.
///
/// `hashes` is `res`'s [`ParpBatchResponse::proof_hashes`], the same
/// value its `σ_res` was checked with: the proof walks key the nodes by
/// it instead of hashing them again.
///
/// Returns `Ok(None)` when every item is consistent.
///
/// # Errors
///
/// Returns a description when the response is structurally unjudgeable
/// (arity mismatch, an unbatchable call, a carried header set that does
/// not match the trusted headers, or a missing trusted header) — such
/// responses are *invalid* rather than fraudulent.
pub fn batch_fraud_conditions(
    req: &ParpBatchRequest,
    res: &ParpBatchResponse,
    hashes: &ProofHashes,
    trusted: &BTreeMap<u64, Header>,
    request_height: u64,
) -> Result<Option<BatchFraud>, String> {
    // Writes cannot be judged against any header set: they mutate state.
    if let Some(call) = req.calls.iter().find(|c| !c.batchable()) {
        return Err(format!("unbatchable call in batch: {call:?}"));
    }
    // Condition 1: payment amount mismatch.
    if req.amount != res.amount {
        return Ok(Some(BatchFraud::Batch(FraudVerdict::AmountMismatch)));
    }
    // Condition 2: stale snapshot. One snapshot answers every
    // fresh-height item, so a single fresh-height call in the batch pins
    // the whole response; inclusion lookups are exempt (their proofs
    // legitimately bind to older blocks).
    if req.calls.iter().any(RpcCall::requires_fresh_height) && res.block_number < request_height {
        return Ok(Some(BatchFraud::Batch(FraudVerdict::StaleBlockHeight)));
    }
    check_envelope_structure(req, res, trusted)?;
    let snapshot_header = trusted
        .get(&res.block_number)
        .ok_or_else(|| format!("no trusted header for snapshot block {}", res.block_number))?;
    // Condition 3a: the shared state multiproof. All state-proven items
    // verify in one pass over the deduplicated node set. The key
    // extraction matches on `proof_kind()` — the same predicate the
    // per-item loop below pairs results with — so the two sides cannot
    // desync if a new state-proven call variant appears.
    let mut state_keys: Vec<H256> = Vec::new();
    for call in &req.calls {
        if call.proof_kind() == ProofKind::State {
            let Some(address) = call.state_address() else {
                return Err(format!("state-proven call without a trie key: {call:?}"));
            };
            state_keys.push(keccak256(address.as_bytes()));
        }
    }
    let proven = match parp_trie::verify_many_hashed(
        snapshot_header.state_root,
        &state_keys,
        &res.multiproof,
        hashes.multiproof(),
    ) {
        Ok(proven) => proven,
        // The node signed a multiproof that does not verify against the
        // trusted root: provably wrong as a whole.
        Err(_) => return Ok(Some(BatchFraud::Batch(FraudVerdict::InvalidProof))),
    };
    // Condition 3b: per-item value checks. State items against the
    // proven multiproof bindings; inclusion items against their own
    // block's transaction/receipt root via the single-call proof check.
    let mut verdicts: Vec<Option<FraudVerdict>> = Vec::with_capacity(req.calls.len());
    let mut any_fraud = false;
    let mut proven_iter = proven.into_iter();
    let items = req
        .calls
        .iter()
        .zip(&res.results)
        .zip(hashes.items(&res.item_proofs));
    for (index, ((call, result), item_hashes)) in items.enumerate() {
        let verdict = match call.proof_kind() {
            ProofKind::State => {
                let proven_value = proven_iter
                    .next()
                    .ok_or("state multiproof bound fewer values than state keys")?;
                if crate::fdm::state_claim_matches(result, &proven_value) {
                    None
                } else {
                    Some(FraudVerdict::InvalidProof)
                }
            }
            ProofKind::Transaction | ProofKind::Receipt => {
                match trusted.get(&res.item_blocks[index]) {
                    Some(header) => {
                        let proof = &res.item_proofs[index];
                        crate::fdm::proof_condition(call, result, proof, header, |root, key| {
                            parp_trie::verify_proof_hashed(root, key, proof, item_hashes)
                        })?
                    }
                    // No trusted header for the item's block (it fell
                    // out of the `BLOCKHASH` window): the item cannot
                    // be judged either way — the §VI freshness bound,
                    // exactly as for single-call historical lookups.
                    None => None,
                }
            }
            // Unproven items only need the batch-level checks above.
            ProofKind::None => None,
        };
        any_fraud |= verdict.is_some();
        verdicts.push(verdict);
    }
    if any_fraud {
        Ok(Some(BatchFraud::Items(verdicts)))
    } else {
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc_key() -> SecretKey {
        SecretKey::from_seed(b"batch-light-client")
    }

    fn fn_key() -> SecretKey {
        SecretKey::from_seed(b"batch-full-node")
    }

    fn sample_calls(n: u64) -> Vec<RpcCall> {
        (0..n)
            .map(|i| RpcCall::GetBalance {
                address: Address::from_low_u64_be(0x1000 + i),
            })
            .collect()
    }

    fn sample_request(n: u64) -> ParpBatchRequest {
        ParpBatchRequest::build(
            &lc_key(),
            7,
            H256::from_low_u64_be(0xb10c),
            U256::from(10 * n),
            sample_calls(n),
        )
    }

    fn sample_header_bytes() -> Vec<u8> {
        vec![0xc1, 0x80]
    }

    /// The serving node's form of `h_res` — multiproof hashes taken from
    /// a [`ProofBuf`] — equals the client's, which hashes every node.
    fn assert_forms_agree(response: &ParpBatchResponse) {
        let buf: ProofBuf = response.multiproof.iter().collect();
        let items: Vec<ProofBuf> = response
            .item_proofs
            .iter()
            .map(|proof| proof.iter().collect())
            .collect();
        let served = ProofHashes::served(&buf, &items);
        assert_eq!(served, response.proof_hashes());
        assert_eq!(response.digest(&served), response.expected_hash());
    }

    /// A three-item response with a two-node multiproof and a two-node
    /// inclusion proof on the last item.
    fn proof_carrying_response() -> ParpBatchResponse {
        let output = BatchOutput {
            block_number: 42,
            results: vec![Vec::new(), vec![0x05], vec![0xd7; 60]],
            multiproof: vec![vec![0xa1; 57], vec![0xc2, 0x80, 0x80]],
            item_blocks: vec![42, 42, 7],
            item_proofs: vec![Vec::new(), Vec::new(), vec![vec![9, 9], vec![8]]],
            headers: vec![vec![0xc1, 0x07], vec![0xc1, 0x2a]],
        };
        ParpBatchResponse::build(&fn_key(), &sample_request(3), output)
    }

    #[test]
    fn digest_is_the_list_of_fields_with_proof_nodes_hashed() {
        // Oracle: the ten fields through the allocating `Vec` encoders,
        // each proof node replaced by its keccak.
        let response = proof_carrying_response();
        let hashed = |nodes: &[Vec<u8>]| {
            encode_list(
                &nodes
                    .iter()
                    .map(|node| encode_h256(&keccak256(node)))
                    .collect::<Vec<_>>(),
            )
        };
        let strings = |items: &[Vec<u8>]| {
            encode_list(&items.iter().map(|i| encode_bytes(i)).collect::<Vec<_>>())
        };
        let preimage = encode_list(&[
            encode_u64(response.channel_id),
            encode_u64(response.block_number),
            encode_u256(&response.amount),
            strings(&response.results),
            hashed(&response.multiproof),
            encode_list(
                &response
                    .item_blocks
                    .iter()
                    .map(|b| encode_u64(*b))
                    .collect::<Vec<_>>(),
            ),
            encode_list(
                &response
                    .item_proofs
                    .iter()
                    .map(|p| hashed(p))
                    .collect::<Vec<_>>(),
            ),
            strings(&response.headers),
            encode_h256(&response.request_hash),
            encode_signature(&response.request_sig),
        ]);
        assert_eq!(response.expected_hash(), keccak256(&preimage));
        assert_eq!(
            response.digest_preimage_len(&response.proof_hashes()),
            preimage.len()
        );
        assert_forms_agree(&response);
    }

    #[test]
    fn every_proof_node_byte_is_bound() {
        let response = proof_carrying_response();
        let signed = response.expected_hash();
        let mut flips = 0;
        for node in 0..response.multiproof.len() {
            for byte in 0..response.multiproof[node].len() {
                let mut tampered = response.clone();
                tampered.multiproof[node][byte] ^= 0x01;
                assert_ne!(tampered.expected_hash(), signed, "multiproof {node}:{byte}");
                flips += 1;
            }
        }
        for item in 0..response.item_proofs.len() {
            for node in 0..response.item_proofs[item].len() {
                for byte in 0..response.item_proofs[item][node].len() {
                    let mut tampered = response.clone();
                    tampered.item_proofs[item][node][byte] ^= 0x01;
                    assert_ne!(
                        tampered.expected_hash(),
                        signed,
                        "item {item} {node}:{byte}"
                    );
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, response.proof_bytes());
    }

    #[test]
    fn proof_node_order_and_placement_are_bound() {
        let response = proof_carrying_response();
        let signed = response.expected_hash();
        let mut swapped = response.clone();
        swapped.multiproof.swap(0, 1);
        assert_ne!(swapped.expected_hash(), signed);
        let mut swapped = response.clone();
        swapped.item_proofs[2].swap(0, 1);
        assert_ne!(swapped.expected_hash(), signed);
        // Trading a multiproof node for an inclusion-proof node.
        let mut traded = response.clone();
        std::mem::swap(&mut traded.multiproof[0], &mut traded.item_proofs[2][0]);
        assert_ne!(traded.expected_hash(), signed);
        // Moving a node out of the multiproof into an item's proof, at
        // either end of it.
        for at in [0, 2] {
            let mut moved = response.clone();
            let node = moved.multiproof.pop().unwrap();
            moved.item_proofs[2].insert(at, node);
            assert_ne!(moved.expected_hash(), signed, "moved to {at}");
            assert_forms_agree(&moved);
        }
        // ...or into an item that had none.
        let mut moved = response.clone();
        let node = moved.multiproof.pop().unwrap();
        moved.item_proofs[0].push(node);
        assert_ne!(moved.expected_hash(), signed);
    }

    #[test]
    fn served_hashes_from_a_trie_walk_sign_what_the_client_checks() {
        // A real multiproof: the walk reads each node's hash from its
        // parent instead of hashing the node.
        let mut trie = parp_trie::Trie::new();
        for i in 0..300u32 {
            let key = keccak256(&i.to_be_bytes());
            trie.insert(key.as_bytes().to_vec(), vec![0x5a; 70]);
        }
        let trie = parp_trie::FrozenTrie::new(trie);
        let keys: Vec<H256> = (0..64u32)
            .map(|i| keccak256(&(i * 3).to_be_bytes()))
            .collect();
        let mut buf = ProofBuf::new();
        trie.multiproof_into(&keys, &mut buf);
        let mut inclusion = ProofBuf::new();
        trie.multiproof_into([keys[1]], &mut inclusion);
        let items = [ProofBuf::new(), inclusion, [[3u8; 40]].iter().collect()];
        let request = sample_request(3);
        let output = BatchOutput {
            block_number: 42,
            results: vec![b"state".to_vec(), b"tx".to_vec(), b"receipt".to_vec()],
            multiproof: buf.to_vecs(),
            item_blocks: vec![42, 7, 7],
            item_proofs: items.iter().map(ProofBuf::to_vecs).collect(),
            headers: vec![sample_header_bytes(), sample_header_bytes()],
        };
        assert_eq!(output.item_proofs[1], trie.prove(keys[1].as_bytes()));
        let served = ProofHashes::served(&buf, &items);
        let response = ParpBatchResponse::build_hashed(&fn_key(), &request, output, &served);
        assert_eq!(served, response.proof_hashes());
        assert_eq!(response.signer(), Some(fn_key().address()));
        assert_forms_agree(&response);
    }

    #[test]
    fn batch_request_roundtrip_and_signers() {
        let request = sample_request(5);
        let decoded = ParpBatchRequest::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded.signer(), Some(lc_key().address()));
        assert_eq!(decoded.payment_signer(), Some(lc_key().address()));
    }

    #[test]
    fn tampered_batch_request_breaks_signer() {
        let mut request = sample_request(3);
        request.calls.pop();
        assert_eq!(request.signer(), None);
    }

    #[test]
    fn empty_batch_encodes_but_reports_empty() {
        let request = sample_request(0);
        assert!(request.is_empty());
        let decoded = ParpBatchRequest::decode(&request.encode()).unwrap();
        assert!(decoded.is_empty());
    }

    #[test]
    fn batch_response_roundtrip_and_signer() {
        let request = sample_request(3);
        let response = ParpBatchResponse::build(
            &fn_key(),
            &request,
            BatchOutput::snapshot(
                42,
                vec![b"r0".to_vec(), b"r1".to_vec(), b"r2".to_vec()],
                vec![vec![1, 2, 3], vec![4, 5]],
                sample_header_bytes(),
            ),
        );
        let decoded = ParpBatchResponse::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(decoded.signer(), Some(fn_key().address()));
        assert_eq!(decoded.proof_bytes(), 5);
        assert_eq!(decoded.item_blocks, vec![42; 3]);
        assert_eq!(decoded.referenced_blocks(), vec![42]);
        assert_forms_agree(&decoded);
    }

    #[test]
    fn multi_block_response_roundtrips() {
        let request = sample_request(2);
        let output = BatchOutput {
            block_number: 42,
            results: vec![b"state".to_vec(), b"inclusion".to_vec()],
            multiproof: vec![vec![1, 2]],
            item_blocks: vec![42, 7],
            item_proofs: vec![Vec::new(), vec![vec![9, 9], vec![8]]],
            headers: vec![sample_header_bytes(), sample_header_bytes()],
        };
        let response = ParpBatchResponse::build(&fn_key(), &request, output);
        let decoded = ParpBatchResponse::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
        assert_eq!(decoded.signer(), Some(fn_key().address()));
        assert_eq!(decoded.referenced_blocks(), vec![7, 42]);
        // Proof bytes cover the multiproof and the inclusion proofs.
        assert_eq!(decoded.proof_bytes(), 2 + 3);
        assert_eq!(decoded.header_bytes(), 4);
        assert_forms_agree(&decoded);
    }

    #[test]
    fn tampered_batch_response_changes_signer() {
        let request = sample_request(2);
        let mut response = ParpBatchResponse::build(
            &fn_key(),
            &request,
            BatchOutput::snapshot(
                42,
                vec![b"a".to_vec(), b"b".to_vec()],
                Vec::new(),
                sample_header_bytes(),
            ),
        );
        assert_forms_agree(&response);
        response.results[1] = b"forged".to_vec();
        assert_ne!(response.signer(), Some(fn_key().address()));
        // The signature also commits the node to its item blocks and
        // carried headers: re-binding an item is equally detectable.
        let mut rebound = ParpBatchResponse::build(
            &fn_key(),
            &request,
            BatchOutput::snapshot(
                42,
                vec![b"a".to_vec(), b"b".to_vec()],
                Vec::new(),
                sample_header_bytes(),
            ),
        );
        rebound.item_blocks[0] = 41;
        assert_ne!(rebound.signer(), Some(fn_key().address()));
    }

    #[test]
    fn batch_overhead_amortizes_signatures() {
        // One signature pair serves any N: going from 1 to 64 calls may
        // add per-call RLP framing (length prefixes for the result, the
        // item block and the empty item-proof list) but no new
        // signatures or hashes — unlike 64 single requests, which repeat
        // the full ~226-byte overhead each time.
        let small = sample_request(1).overhead_bytes();
        let large = sample_request(64).overhead_bytes();
        assert!(
            large < small + 2 * 64,
            "batch overhead grew from {small} to {large}"
        );
        let singles: usize = (0..64).map(|_| sample_request(1).overhead_bytes()).sum();
        assert!(
            large * 10 < singles,
            "64-batch overhead {large} not ≪ 64 singles {singles}"
        );
    }

    #[test]
    fn payment_sig_redeems_like_single_calls() {
        // The CMM accepts batch payment signatures unchanged: σ_a signs
        // the same (α, a) digest as the single-call protocol.
        let request = sample_request(8);
        let digest = payment_digest(request.channel_id, &request.amount);
        assert_eq!(
            recover_address(&digest, &request.payment_sig).unwrap(),
            lc_key().address()
        );
    }
}
