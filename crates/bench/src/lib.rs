//! Shared fixtures for the evaluation benches and the `report` binary.
//!
//! Every table and figure of the paper's §VI maps to one bench target in
//! `benches/` plus one section of the `report` binary (see DESIGN.md §4).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use parp_chain::Blockchain;
use parp_contracts::{ParpRequest, ParpResponse, RpcCall};
use parp_core::LightClient;
use parp_crypto::SecretKey;
use parp_net::{Network, NodeId, Workload};
use parp_primitives::{Address, U256};

/// Price per call used across benches (wei).
pub fn bench_price() -> U256 {
    U256::from(10u64)
}

/// A network with one staked node and one bonded client, ready to serve.
pub fn connected_fixture() -> (Network, NodeId, LightClient) {
    let mut net = Network::with_latency(parp_net::LatencyModel::zero());
    let node = net.spawn_node(b"bench-node", bench_price());
    let mut client = net.spawn_client(b"bench-client", bench_price());
    net.connect(&mut client, node, U256::from(1_000_000_000u64))
        .expect("bench connect");
    (net, node, client)
}

/// A chain whose head block contains exactly `tx_count` transfer
/// transactions (the Figure 6 / Table III "write" substrate), together
/// with the funded sender key.
pub fn chain_with_block_of(tx_count: usize) -> (Blockchain, SecretKey) {
    let sender = SecretKey::from_seed(b"block-filler");
    let supply = U256::ONE << 120;
    let mut chain = Blockchain::new(vec![(sender.address(), supply)]);
    let mut workload = Workload::new(0xF166, sender, 0);
    let txs = workload.transfer_batch(tx_count);
    chain
        .produce_block(txs, &mut parp_chain::TransferExecutor)
        .expect("filled block");
    (chain, sender)
}

/// The read-workload call of §VI-A (`eth_getBalance`).
pub fn read_call(target: Address) -> RpcCall {
    RpcCall::GetBalance { address: target }
}

/// A connected fixture whose chain also carries `accounts` funded
/// accounts, so balance reads walk a populated state trie. Returns the
/// funded addresses (the batch-vs-singles targets).
pub fn populated_fixture(accounts: usize) -> (Network, NodeId, LightClient, Vec<Address>) {
    let (mut net, node, client) = connected_fixture();
    let addresses: Vec<Address> = (0..accounts)
        .map(|i| Address::from_low_u64_be(0xA000_0000 + i as u64))
        .collect();
    for address in &addresses {
        net.fund(*address);
    }
    let mut client = client;
    net.sync_client(&mut client);
    (net, node, client, addresses)
}

/// A ready-to-verify `(request, response, request_height)` triple served
/// honestly over the fixture network.
pub fn served_exchange(
    net: &mut Network,
    node: NodeId,
    client: &mut LightClient,
    call: RpcCall,
) -> (ParpRequest, ParpResponse, u64) {
    let provider = net.node(node).address();
    let request = client.request_from(provider, call).expect("bench request");
    let request_height = client.tip().expect("synced").number;
    let response = net.serve(node, &request).expect("bench serve");
    net.sync_client(client);
    (request, response, request_height)
}

/// Formats a `paper vs measured` comparison row.
pub fn comparison_row(label: &str, paper: &str, measured: &str) -> String {
    format!("{label:<42} paper: {paper:>14}   measured: {measured:>14}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_core::ProcessOutcome;

    #[test]
    fn fixture_serves_valid_responses() {
        let (mut net, node, mut client) = connected_fixture();
        let me = client.address();
        let (_, response, _) = served_exchange(&mut net, node, &mut client, read_call(me));
        let provider = net.node(node).address();
        let outcome = client.process_response_from(provider, &response).unwrap();
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    }

    #[test]
    fn filled_block_has_requested_size() {
        let (chain, _) = chain_with_block_of(50);
        assert_eq!(chain.head().transactions.len(), 50);
    }
}
