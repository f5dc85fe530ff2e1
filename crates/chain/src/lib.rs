//! A deterministic, in-process Ethereum-like blockchain: the substrate the
//! PARP protocol runs against.
//!
//! The paper's prototype extends Geth; this crate rebuilds the parts of an
//! execution client that PARP actually touches — accounts, ECDSA-signed
//! transactions, receipts, headers committing to state/transaction/receipt
//! Merkle-Patricia tries, and deterministic block production — so every
//! proof and signature the protocol checks is real.
//!
//! Execution is pluggable through [`TransactionExecutor`]; the
//! `parp-contracts` crate layers the PARP on-chain modules on top of the
//! plain [`TransferExecutor`].
//!
//! # Examples
//!
//! ```
//! use parp_chain::{Blockchain, Transaction, TransferExecutor};
//! use parp_crypto::SecretKey;
//! use parp_primitives::{Address, U256};
//!
//! let alice = SecretKey::from_seed(b"alice");
//! let mut chain = Blockchain::new(vec![(alice.address(), U256::from(1_000_000u64))]);
//!
//! let tx = Transaction {
//!     nonce: 0,
//!     gas_price: U256::ZERO,
//!     gas_limit: 21_000,
//!     to: Some(Address::from_low_u64_be(0xb0b)),
//!     value: U256::from(500u64),
//!     data: Vec::new(),
//! }
//! .sign(&alice);
//!
//! chain.produce_block(vec![tx], &mut TransferExecutor)?;
//! assert_eq!(chain.height(), 1);
//! # Ok::<(), parp_chain::BlockError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod account;
mod block;
mod chain;
mod exec;
mod header;
mod receipt;
mod state;
mod transaction;

pub use account::{empty_code_hash, Account};
pub use block::Block;
pub use chain::{
    BlockError, Blockchain, ChainMemory, BLOCK_HASH_WINDOW, BLOCK_INTERVAL, MIN_HISTORY_WINDOW,
};
pub use exec::{BlockContext, ExecutionResult, TransactionExecutor, TransferExecutor};
pub use header::{empty_ommers_hash, Header};
pub use receipt::{Log, Receipt};
pub use state::{State, UndoRecord};
pub use transaction::{SignedTransaction, Transaction, TransactionError};
