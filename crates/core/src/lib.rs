//! PARP: the Permissionless Accountable RPC Protocol (Wang & Van Cutsem,
//! ICDCS 2025) — off-chain protocol layer.
//!
//! This crate implements both sides of a PARP connection on top of the
//! on-chain modules from [`parp_contracts`]:
//!
//! * [`LightClient`] — header store, handshake and channel state machine
//!   (paper Fig. 4 / Algorithm 1), one session per full node with every
//!   operation naming its provider, signed request construction with
//!   cumulative micropayments, the §V-D response classification
//!   (valid / invalid / fraudulent), fraud-evidence collection, and the
//!   §V-C channel liveness probe.
//! * [`FullNode`] — handshake confirmation, request verification,
//!   response generation with Merkle proofs, payment tracking and
//!   redemption, plus configurable [`Misbehavior`] injection for the
//!   fraud experiments.
//! * [`classify_response`] — the standalone check sequence, shared with
//!   the on-chain Fraud Detection Module.
//! * The **batched pipeline**: [`LightClient::request_batch_from`] signs N
//!   calls with one signature and one cumulative payment,
//!   [`FullNode::handle_batch`] serves them from a single state
//!   snapshot with a deduplicated multiproof, and
//!   [`classify_batch_response`] judges every item separately — one
//!   fraudulent item still yields [`BatchFraudEvidence`].
//! * [`collect_serving_proof`] / [`verify_serving_proof`] — the §VIII
//!   "Proof of Serving" extension.
//!
//! # Examples
//!
//! A complete connection against an in-process chain:
//!
//! ```
//! use parp_core::{FullNode, LightClient, ProcessOutcome};
//! use parp_chain::Blockchain;
//! use parp_contracts::{build_module_call, min_deposit, ModuleCall, ParpExecutor, RpcCall};
//! use parp_crypto::SecretKey;
//! use parp_primitives::U256;
//!
//! # fn main() {
//! // Network: a chain with a staked, serving full node.
//! let node_key = SecretKey::from_seed(b"node");
//! let client_key = SecretKey::from_seed(b"client");
//! let funds = U256::from(4u64) * min_deposit();
//! let mut chain = Blockchain::new(vec![
//!     (node_key.address(), funds),
//!     (client_key.address(), funds),
//! ]);
//! let mut executor = ParpExecutor::new();
//! chain.produce_block(vec![
//!     build_module_call(&node_key, 0, ModuleCall::Deposit, min_deposit()),
//! ], &mut executor).unwrap();
//! chain.produce_block(vec![
//!     build_module_call(&node_key, 1, ModuleCall::SetServing { serving: true }, U256::ZERO),
//! ], &mut executor).unwrap();
//!
//! let mut node = FullNode::new(node_key, U256::from(10u64));
//! let mut client = LightClient::new(client_key, U256::from(10u64));
//!
//! // Bootstrap: sync headers, handshake, open the channel on-chain.
//! client.sync_headers((0..=chain.height()).map(|n| chain.block(n).unwrap().header.clone()));
//! // Every channel operation names the provider it talks to.
//! let provider = node.address();
//! client.start_handshake(provider).unwrap();
//! let confirm = node.confirm_handshake(client.address(), chain.head().header.timestamp);
//! let open_tx = client.accept_confirmation(provider, &confirm, U256::from(10_000u64), 0).unwrap();
//! chain.produce_block(vec![open_tx], &mut executor).unwrap();
//! let channel_id = executor.cmm().channel_count() as u64 - 1;
//! client.channel_opened(provider, channel_id).unwrap();
//! client.sync_header(chain.head().header.clone());
//!
//! // Request/response with verification.
//! let call = RpcCall::GetBalance { address: client.address() };
//! let request = client.request_from(provider, call).unwrap();
//! let response = node.handle_request(&request, &mut chain, &mut executor).unwrap();
//! client.sync_header(chain.head().header.clone());
//! match client.process_response_from(provider, &response).unwrap() {
//!     ProcessOutcome::Valid { proven, .. } => assert!(proven),
//!     other => panic!("expected valid, got {other:?}"),
//! }
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod client;
mod exchange;
mod misbehavior;
mod peer;
mod server;
mod serving_proof;
mod verify;

pub use client::{
    BatchFraudEvidence, ClientChannel, ClientError, ClientState, FraudEvidence, LightClient,
    ProcessBatchOutcome, ProcessOutcome,
};
pub use exchange::Exchange;
pub use misbehavior::Misbehavior;
pub use server::{
    FullNode, HandshakeConfirm, ProofEngine, SequentialEngine, ServeError, ServedChannel,
    HANDSHAKE_TTL_SECS,
};
pub use serving_proof::{
    collect_serving_proof, verify_serving_proof, ServingProof, ServingProofError, ServingReceipt,
};
pub use verify::{
    classify_batch_response, classify_response, BatchClassification, Classification, InvalidReason,
};
