//! The PARP on-chain modules, reproduced as native state-transition
//! contracts with EVM-style gas metering.
//!
//! The paper's prototype implements three Solidity contracts (1631 LoC,
//! solc 0.8.25): a Full Nodes Deposit Module, a Channels Management
//! Module and a Fraud Detection Module. This crate reproduces their exact
//! observable behaviour — the channel lifecycle of §V-B, Algorithm 2's
//! fraud verification, and the collateral/slashing economics of §IV-F —
//! as native modules executed by the simulated chain, metered with the
//! published EVM gas schedule (see [`gas`]).
//!
//! It also defines the canonical PARP wire messages ([`ParpRequest`],
//! [`ParpResponse`]): the on-chain fraud verifier is their authoritative
//! decoder, exactly as the Solidity contract is in the prototype.
//!
//! # Examples
//!
//! ```
//! use parp_contracts::{build_module_call, ModuleCall, ParpExecutor};
//! use parp_chain::Blockchain;
//! use parp_crypto::SecretKey;
//! use parp_primitives::U256;
//!
//! let node = SecretKey::from_seed(b"node-operator");
//! let stake = U256::from(10u64) * U256::from(1_000_000_000_000_000_000u64);
//! let mut chain = Blockchain::new(vec![(node.address(), stake)]);
//! let mut executor = ParpExecutor::new();
//!
//! // Stake collateral, then register as serving.
//! let deposit = build_module_call(&node, 0, ModuleCall::Deposit, stake / U256::from(2u64));
//! let serve = build_module_call(&node, 1, ModuleCall::SetServing { serving: true }, U256::ZERO);
//! chain.produce_block(vec![deposit, serve], &mut executor)?;
//! assert!(executor.fndm().is_eligible(&node.address()));
//! # Ok::<(), parp_chain::BlockError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod batch;
mod calls;
mod cmm;
mod executor;
mod fdm;
mod fndm;
pub mod gas;
mod message;

pub use batch::{
    batch_fraud_conditions, batch_request_hash, referenced_blocks, BatchFraud, BatchOutput,
    ParpBatchRequest, ParpBatchResponse, ProofHashes,
};
pub use calls::{cmm_address, fdm_address, fndm_address, ModuleCall};
pub use cmm::{confirmation_digest, Channel, ChannelStatus, ChannelsModule, DISPUTE_WINDOW_BLOCKS};
pub use executor::ParpExecutor;
pub use fdm::{fraud_conditions, FraudModule, FraudRecord, FraudVerdict, SlashEvent};
pub use fndm::{
    min_deposit, DepositModule, NodeRecord, Revert, SLASH_CLIENT_SHARE, SLASH_WITNESS_SHARE,
};
pub use message::{
    payment_digest, request_hash, response_hash, MessageError, ParpRequest, ParpResponse,
    ProofKind, RpcCall,
};

use parp_chain::{SignedTransaction, Transaction};
use parp_crypto::SecretKey;
use parp_primitives::U256;

/// Gas limit generous enough for every module call, including large
/// fraud proofs.
pub const MODULE_CALL_GAS_LIMIT: u64 = 3_000_000;

/// Builds and signs a transaction invoking a module call.
///
/// Uses a zero gas price (the simulated network does not price gas;
/// benches meter gas separately) and a generous gas limit.
pub fn build_module_call(
    secret: &SecretKey,
    nonce: u64,
    call: ModuleCall,
    value: U256,
) -> SignedTransaction {
    Transaction {
        nonce,
        gas_price: U256::ZERO,
        gas_limit: MODULE_CALL_GAS_LIMIT,
        to: Some(call.target()),
        value,
        data: call.encode(),
    }
    .sign(secret)
}
