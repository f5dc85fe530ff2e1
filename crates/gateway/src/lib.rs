//! `parp-gateway`: client-side multi-provider orchestration for PARP.
//!
//! The paper's accountability machinery (collateral, Merkle-proven
//! responses, on-chain fraud proofs) makes *any* permissionless
//! provider safe to consume — but a client wired to a single full node
//! still reproduces the §VIII single-node-dependence risk: one outage
//! or one liar and service stops until a human intervenes. This crate
//! is the layer that turns one-channel accountability into an actual
//! marketplace, the way Relay Mining assumes a priced market of RPC
//! nodes and "Time Tells All" argues against pinning a request stream
//! to one endpoint:
//!
//! * [`Directory`] — registry-driven discovery: the FNDM's on-chain
//!   serving set (address, deposit, slash history) joined with each
//!   provider's advertised price, refreshed across joins, voluntary
//!   exits and slashes.
//! * [`Reputation`] / [`ReputationBook`] — per-provider measurement
//!   from *verified* outcomes only (valid/invalid/refused/fraud counts,
//!   latency EWMA + p50/p99, slash events observed on-chain), so a
//!   provider cannot inflate its own score.
//! * [`SelectionPolicy`] — pluggable routing: cheapest, fastest,
//!   reputation-weighted, or round-robin (the profiling
//!   countermeasure).
//! * [`Gateway`] — N concurrent payment channels (one per provider,
//!   over the multi-session [`parp_core::LightClient`]), live failover
//!   — a §V-D fraud classification submits the proof through a witness,
//!   bans the provider, abandons its channel, re-selects and replays the
//!   in-flight call — and [`Gateway::quorum_call`] fan-out reads
//!   cross-checking `k` providers' verified results byte-for-byte.
//! * [`run_marketplace`] — the end-to-end churn scenario: a
//!   cheapest-but-fraudulent provider slashed mid-run, a join and a
//!   voluntary exit, zero invalid results accepted.
//! * [`ResilienceConfig`] / [`CircuitBreaker`] — the machinery for the
//!   *boring* failures accountability cannot classify: per-call
//!   deadlines and call budgets, bounded retries with deterministic
//!   jittered backoff, hedged quorum legs off the latency EWMA, and a
//!   per-provider closed → open → half-open breaker. Transient causes
//!   ([`FailoverCause::Timeout`] / `Corruption` / `Crash`) fail over
//!   without banning and keep the channel. A response the provider
//!   served and the transport lost leaves it holding the client's
//!   `σ_a`; its next refusal carries that `(a, σ_a)`, the client
//!   reconciles ([`parp_core::LightClient::reconcile_payment`]) and the
//!   call is retried in place, keeping the channel. The client cannot
//!   tell a lost response from a withheld one, so it reconciles at most
//!   twice per provider between verified responses; the next refusal
//!   bans, and a provider that never answers is paid for at most three
//!   calls.
//! * [`run_chaos`] — the marketplace under a seeded
//!   [`parp_net::FaultPlane`] schedule (drops, delays, corruption,
//!   crashes, partitions): zero accepted wrong payloads, every call
//!   classified (no hangs), byte-identical same-seed replay.
//!
//! ```
//! use parp_gateway::{Gateway, GatewayConfig, SelectionPolicy};
//! use parp_contracts::RpcCall;
//! use parp_net::Network;
//! use parp_primitives::U256;
//!
//! let mut net = Network::new();
//! for (seed, price) in [(b"gw-a", 10u64), (b"gw-b", 20u64)] {
//!     net.spawn_node(seed, U256::from(price));
//! }
//! let client = net.spawn_client(b"gw-client", U256::from(10u64));
//! let mut gateway = Gateway::new(client, GatewayConfig {
//!     policy: SelectionPolicy::Cheapest,
//!     ..GatewayConfig::default()
//! });
//! let me = gateway.client().address();
//! let result = gateway
//!     .call(&mut net, RpcCall::GetBalance { address: me })
//!     .unwrap();
//! assert!(!result.is_empty());
//! assert_eq!(gateway.directory().len(), 2);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod chaos;
mod directory;
mod gateway;
mod marketplace;
mod policy;
mod reputation;
mod resilience;

pub use chaos::{run_chaos, ChaosConfig, ChaosReport};
pub use directory::{Directory, ProviderInfo};
pub use gateway::{
    FailoverCause, FailoverEvent, Gateway, GatewayConfig, GatewayError, QuorumOutcome, QuorumVote,
};
pub use marketplace::{run_marketplace, MarketplaceConfig, MarketplaceReport};
pub use policy::SelectionPolicy;
pub use reputation::{Reputation, ReputationBook};
pub use resilience::{BreakerState, CircuitBreaker, ResilienceConfig};
