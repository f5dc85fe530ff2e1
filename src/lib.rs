//! Umbrella crate for the PARP reproduction workspace.
//!
//! Re-exports the public crates so examples and integration tests can use a
//! single dependency. Library users should depend on the individual crates
//! (`parp-core`, `parp-chain`, …) directly.

pub use parp_chain as chain;
pub use parp_contracts as contracts;
pub use parp_core as core;
pub use parp_crypto as crypto;
pub use parp_gateway as gateway;
pub use parp_jsonrpc as jsonrpc;
pub use parp_net as net;
pub use parp_primitives as primitives;
pub use parp_rlp as rlp;
pub use parp_runtime as runtime;
pub use parp_store as store;
pub use parp_telemetry as telemetry;
pub use parp_trie as trie;
