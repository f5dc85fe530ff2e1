//! `parp-runtime`: the concurrent serving runtime behind a PARP full
//! node.
//!
//! The accountable RPC protocol only matters at provider scale — a full
//! node serving heavy read traffic from many light clients must not let
//! per-request overheads swamp the accountability machinery. This crate
//! supplies the serving-layer mechanisms the protocol layer
//! (`parp-core`) deliberately stays agnostic of:
//!
//! * [`TrieCache`] — the one trie cache: an LRU of built, `Arc`-shared
//!   tries keyed by trie root, bounded by their measured bytes, that
//!   always keeps its newest entry and can spill evicted pages to a
//!   `parp-store` segment file. [`Runtime`] keeps two: a zero-budget,
//!   so **one-slot**, holder of the head state trie (the very `Arc` the
//!   chain's `State` memoises, so a state proof is one
//!   [`FrozenTrie::multiproof_into`](parp_trie::FrozenTrie::multiproof_into)
//!   walk and nothing is built twice; [`Runtime::note_new_head`] is the
//!   hook block production drives), and, inside its
//!   [`ColdProofEngine`], a cache of per-block transaction / receipt
//!   tries for inclusion lookups.
//! * [`AdmissionController`] + [`FairQueue`] — per-client token-bucket
//!   rate limiting and fair round-robin dequeueing across open
//!   channels, so one flooding client is bounded to its paid-for rate
//!   and cannot starve honest clients (the incentive-compatibility
//!   condition Relay Mining identifies for multi-tenant RPC serving).
//! * [`Runtime::enable_cold_storage`] — gives the inclusion cache a
//!   spill store and a budget, so evicted pages rehydrate off disk
//!   instead of being rebuilt and a node can serve arbitrarily deep
//!   history under a fixed memory envelope.
//!
//! [`Runtime`] bundles them behind `parp-core`'s
//! [`ProofEngine`](parp_core::ProofEngine) hook:
//!
//! ```
//! use parp_runtime::Runtime;
//! use parp_chain::State;
//! use parp_core::ProofEngine;
//! use parp_primitives::{Address, U256};
//! use parp_trie::ProofBuf;
//!
//! let mut runtime = Runtime::default();
//! let state = State::with_alloc(
//!     (1..=100u64).map(|i| (Address::from_low_u64_be(i), U256::from(i))),
//! );
//! let addresses = [Address::from_low_u64_be(1), Address::from_low_u64_be(2)];
//! let mut multiproof = ProofBuf::new();
//! runtime.account_multiproof_into(&state, &addresses, &mut multiproof);
//! // The bytes `State` itself proves, cut from the trie it memoises.
//! assert_eq!(multiproof.to_vecs(), state.account_multiproof(&addresses));
//! assert_eq!(runtime.cache().misses(), 1);
//! // The head slot holds exactly that trie and nothing else.
//! assert_eq!(runtime.cache().len(), 1);
//! assert!(runtime.cache().contains(&state.state_root()));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod admission;
mod runtime;
mod tiered;

pub use admission::{AdmissionController, AdmissionError, AdmissionStats, FairQueue, TokenBucket};
pub use runtime::{Runtime, RuntimeConfig, RuntimeError};
pub use tiered::{ColdProofEngine, TrieCache};
