//! The traced pass's exchange: the same pipeline `Network::parp_call` /
//! `parp_batch_call` drive, unrolled here into its public calls with a
//! span around each:
//!
//! ```text
//! net.exchange
//!   core.client.request        (replayed: crypto.sign ×2)
//!   contracts.encode_request
//!   runtime.serve              (replayed: core.server.verify_request ⊃ crypto.recover,
//!                                         trie.prove | trie.multiproof_into,
//!                                         chain.produce_block ⊃ trie.freeze, crypto.sign)
//!   contracts.encode_response
//!   net.sync_client
//!   core.client.process        (replayed: core.classify ⊃ crypto.recover, trie.verify)
//! ```
//!
//! A batched exchange has the same shape under `core.client.request_batch`,
//! `runtime.serve_batch` and `core.client.process_batch`.
//!
//! `runtime.serve` and `core.client.process` cannot be opened from
//! outside, so the leaf calls they make are replayed on the captured
//! request and response and laid out as child spans; what is left is
//! the parent's self time. The replays run once the round's live
//! exchanges are over, with the recorder's clock stopped: interleaved
//! with the exchanges they made the next live exchange up to a quarter
//! slower (caches, allocator), which is measurement error, not cost.

use crate::span::Recorder;
use parp_chain::{Blockchain, SignedTransaction, TransferExecutor};
use parp_contracts::{
    payment_digest, ParpBatchRequest, ParpBatchResponse, ParpRequest, ParpResponse, RpcCall,
};
use parp_core::{
    classify_batch_response, classify_response, LightClient, ProcessBatchOutcome, ProcessOutcome,
};
use parp_crypto::{keccak256, par_join, recover_address, sign};
use parp_net::{ExchangeStats, Network, NodeId};
use parp_primitives::H256;
use parp_trie::{verify_many, verify_proof, FrozenTrie, ProofBuf};
use std::hint::black_box;
use std::time::Instant;

/// The side chain a traced write is replayed on: same account set, its
/// own nonces, so the live chain is mined exactly once per write.
pub struct Twin {
    pub chain: Blockchain,
}

impl Twin {
    /// Replays `transfer` (signed against this chain's nonce) and
    /// returns `(produce_block ns, freeze ns)`.
    fn replay_write(&mut self, transfer: SignedTransaction) -> Result<(u64, u64), String> {
        let started = Instant::now();
        let produced = self
            .chain
            .produce_block(vec![transfer], &mut TransferExecutor)
            .map(|_| ());
        let block_ns = started.elapsed().as_nanos() as u64;
        produced.map_err(|e| format!("twin produce_block: {e}"))?;
        let trie = self.chain.state().build_trie();
        let started = Instant::now();
        black_box(FrozenTrie::new(trie));
        Ok((block_ns, started.elapsed().as_nanos() as u64))
    }
}

enum Messages {
    Single(ParpRequest, ParpResponse),
    Batch(ParpBatchRequest, ParpBatchResponse),
}

/// One live exchange's messages and spans, kept for [`replay`].
pub struct Captured {
    messages: Messages,
    /// Height of the block the request named.
    request_height: u64,
    request_span: usize,
    serve_span: usize,
    process_span: usize,
}

/// One unrolled single-call exchange: the live pipeline, nothing but
/// the layer calls on the clock.
pub fn single(
    net: &mut Network,
    client: &mut LightClient,
    node: NodeId,
    call: RpcCall,
    rec: &mut Recorder,
) -> Result<(ProcessOutcome, ExchangeStats, Captured), String> {
    let provider = net.node(node).address();
    let sim_started = net.now_us();
    let request_height = client.tip().map_or(0, |tip| tip.number);
    rec.next_exchange();
    let root = rec.open("net.exchange");
    let request_span = rec.open("core.client.request");
    let request = client.request_from(provider, call);
    rec.close(request_span);
    let request = request.map_err(|e| format!("request_from: {e}"))?;
    let request_bytes = rec.timed("contracts.encode_request", || request.encode().len());
    let serve_span = rec.open("runtime.serve");
    let response = net.serve(node, &request);
    rec.close(serve_span);
    let response = response.map_err(|e| format!("serve: {e}"))?;
    let response_bytes = rec.timed("contracts.encode_response", || response.encode().len());
    rec.timed("net.sync_client", || net.sync_client(client));
    let process_span = rec.open("core.client.process");
    let outcome = client.process_response_from(provider, &response);
    rec.close(process_span);
    let outcome = outcome.map_err(|e| format!("process_response_from: {e}"))?;
    rec.close(root);

    let stats = ExchangeStats {
        request_bytes,
        response_bytes,
        proof_bytes: response.proof_bytes(),
        server_us: 0,
        // `Network::serve` charges the sim clock nothing; the driver
        // would have: report what the clock actually moved.
        network_us: net.now_us() - sim_started,
    };
    let captured = Captured {
        messages: Messages::Single(request, response),
        request_height,
        request_span,
        serve_span,
        process_span,
    };
    Ok((outcome, stats, captured))
}

/// One unrolled batched exchange.
pub fn batch(
    net: &mut Network,
    client: &mut LightClient,
    node: NodeId,
    calls: Vec<RpcCall>,
    rec: &mut Recorder,
) -> Result<(ProcessBatchOutcome, ExchangeStats, Captured), String> {
    let provider = net.node(node).address();
    let sim_started = net.now_us();
    let request_height = client.tip().map_or(0, |tip| tip.number);
    rec.next_exchange();
    let root = rec.open("net.exchange");
    let request_span = rec.open("core.client.request_batch");
    let request = client.request_batch_from(provider, calls);
    rec.close(request_span);
    let request = request.map_err(|e| format!("request_batch_from: {e}"))?;
    let request_bytes = rec.timed("contracts.encode_request", || request.encode().len());
    let serve_span = rec.open("runtime.serve_batch");
    let response = net.serve_batch(node, &request);
    rec.close(serve_span);
    let response = response.map_err(|e| format!("serve_batch: {e}"))?;
    let response_bytes = rec.timed("contracts.encode_response", || response.encode().len());
    rec.timed("net.sync_client", || net.sync_client(client));
    let process_span = rec.open("core.client.process_batch");
    let outcome = client.process_batch_response_from(provider, &response);
    rec.close(process_span);
    let outcome = outcome.map_err(|e| format!("process_batch_response_from: {e}"))?;
    rec.close(root);

    let stats = ExchangeStats {
        request_bytes,
        response_bytes,
        proof_bytes: response.proof_bytes(),
        server_us: 0,
        network_us: net.now_us() - sim_started,
    };
    let captured = Captured {
        messages: Messages::Batch(request, response),
        request_height,
        request_span,
        serve_span,
        process_span,
    };
    Ok((outcome, stats, captured))
}

/// Replays, off the clock, the leaf calls the captured exchange made
/// inside `runtime.serve` and `core.client.process`, as child spans of
/// those. `twin_write` carries the side chain and the twin-signed
/// transfer when the exchange was a write.
pub fn replay(
    net: &Network,
    client: &LightClient,
    node: NodeId,
    captured: Captured,
    twin_write: Option<(&mut Twin, SignedTransaction)>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let Captured {
        messages,
        request_height,
        request_span,
        serve_span,
        process_span,
    } = captured;
    let full_node = net.node(node);
    let provider = full_node.address();
    let header_for = |n: u64| client.header(n).cloned();
    // What a single and a batched exchange share: the envelope fields.
    let (channel_id, amount, request_hash, response_digest, response_sig, block_number) =
        match &messages {
            Messages::Single(req, res) => (
                req.channel_id,
                req.amount,
                req.request_hash,
                res.expected_hash(),
                res.response_sig,
                res.block_number,
            ),
            Messages::Batch(req, res) => (
                req.channel_id,
                req.amount,
                req.request_hash,
                res.expected_hash(),
                res.response_sig,
                res.block_number,
            ),
        };
    let calls: &[RpcCall] = match &messages {
        Messages::Single(req, _) => std::slice::from_ref(&req.call),
        Messages::Batch(req, _) => &req.calls,
    };
    let state_keys: Vec<H256> = calls
        .iter()
        .filter_map(RpcCall::state_address)
        .map(|address| keccak256(address.as_bytes()))
        .collect();

    // The two signatures every request carries (σ_a, σ_req).
    let secret = *client.secret();
    for digest in [payment_digest(channel_id, &amount), request_hash] {
        let (_, ns) = rec.off_clock(|| black_box(sign(&secret, &digest)));
        rec.replay(request_span, "crypto.sign", ns);
    }

    // The node's ledger has moved on, so the replayed envelope check
    // ends in a payment refusal — after the two recoveries it is timed
    // for.
    let (_, verify_ns) = rec.off_clock(|| match &messages {
        Messages::Single(req, _) => {
            black_box(full_node.verify_request(req, net.executor()).is_ok())
        }
        Messages::Batch(req, _) => {
            black_box(full_node.verify_batch_request(req, net.executor()).is_ok())
        }
    });
    let (_, recover_ns) = rec.off_clock(|| match &messages {
        Messages::Single(req, _) => black_box(par_join(|| req.signer(), || req.payment_signer())),
        Messages::Batch(req, _) => black_box(par_join(|| req.signer(), || req.payment_signer())),
    });
    let verify = rec.replay(serve_span, "core.server.verify_request", verify_ns);
    rec.replay(verify, "crypto.recover", recover_ns);
    if !state_keys.is_empty() {
        let trie = net.chain().state().shared_trie();
        match &messages {
            Messages::Single(..) => {
                let key = state_keys[0];
                let (_, ns) = rec.off_clock(|| black_box(trie.prove(key.as_bytes())));
                rec.replay(serve_span, "trie.prove", ns);
            }
            Messages::Batch(..) => {
                let mut buf = ProofBuf::default();
                let ((), ns) = rec.off_clock(|| trie.multiproof_into(&state_keys, &mut buf));
                black_box(buf.len());
                rec.replay(serve_span, "trie.multiproof_into", ns);
            }
        }
    }
    if let Some((twin, transfer)) = twin_write {
        let (block_ns, freeze_ns) = rec.off_clock(|| twin.replay_write(transfer)).0?;
        let block = rec.replay(serve_span, "chain.produce_block", block_ns);
        rec.replay(block, "trie.freeze", freeze_ns);
    }
    let (_, sign_ns) = rec.off_clock(|| black_box(sign(full_node.secret(), &response_digest)));
    rec.replay(serve_span, "crypto.sign", sign_ns);

    let (_, classify_ns) = rec.off_clock(|| match &messages {
        Messages::Single(req, res) => {
            black_box(classify_response(
                req,
                res,
                provider,
                request_height,
                header_for,
            ));
        }
        Messages::Batch(req, res) => {
            black_box(classify_batch_response(
                req,
                res,
                provider,
                request_height,
                header_for,
            ));
        }
    });
    let classify = rec.replay(process_span, "core.classify", classify_ns);
    let (_, recover_ns) =
        rec.off_clock(|| black_box(recover_address(&response_digest, &response_sig).is_ok()));
    rec.replay(classify, "crypto.recover", recover_ns);
    if let (false, Some(header)) = (state_keys.is_empty(), client.header(block_number)) {
        let (_, ns) = rec.off_clock(|| match &messages {
            Messages::Single(_, res) => black_box(
                verify_proof(header.state_root, state_keys[0].as_bytes(), &res.proof).is_ok(),
            ),
            Messages::Batch(_, res) => {
                black_box(verify_many(header.state_root, &state_keys, &res.multiproof).is_ok())
            }
        });
        rec.replay(classify, "trie.verify", ns);
    }
    Ok(())
}
