//! A wallet-style balance watcher — the paper's motivating dApp scenario
//! (§I: "MetaMask uses Infura as its default endpoint to obtain the
//! balance for the end-user's addresses"), rebuilt on PARP so the wallet
//! needs no trusted provider:
//!
//! * balances come with Merkle proofs checked against headers,
//! * a node returning bogus data is detected immediately, and
//! * the wallet fails over to another node without any sign-up.
//!
//! Run with: `cargo run --example wallet_balance_watcher`

use parp_suite::chain::Account;
use parp_suite::contracts::RpcCall;
use parp_suite::core::{Misbehavior, ProcessOutcome};
use parp_suite::net::{Network, NodeId};
use parp_suite::primitives::{Address, U256};

/// The wallet's address book: accounts whose balances it tracks.
fn address_book() -> Vec<(&'static str, Address)> {
    vec![
        ("savings", Address::from_low_u64_be(0x5a71)),
        ("trading", Address::from_low_u64_be(0x7ead)),
        ("cold storage", Address::from_low_u64_be(0xc01d)),
    ]
}

fn watch_once(
    net: &mut Network,
    client: &mut parp_suite::core::LightClient,
    node: NodeId,
) -> Result<(), String> {
    for (label, address) in address_book() {
        let (outcome, _) = net
            .parp_call(client, node, RpcCall::GetBalance { address })
            .map_err(|e| e.to_string())?;
        match outcome {
            ProcessOutcome::Valid { result, .. } => {
                let balance = if result.is_empty() {
                    U256::ZERO // proven absent: zero balance
                } else {
                    Account::decode(&result).map_err(|e| e.to_string())?.balance
                };
                println!("  {label:<13} {address} = {balance} wei (verified)");
            }
            ProcessOutcome::Invalid(reason) => {
                return Err(format!("untrusted response ({reason}), failing over"));
            }
            ProcessOutcome::Fraud(evidence) => {
                return Err(format!(
                    "fraud detected ({:?}), evidence collected, failing over",
                    evidence.verdict
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let mut net = Network::new();
    let primary = net.spawn_node(b"wallet-primary", U256::from(10u64));
    let backup = net.spawn_node(b"wallet-backup", U256::from(10u64));
    let mut wallet = net.spawn_client(b"wallet-user", U256::from(10u64));

    // Fund the watched accounts so there is something to show.
    for (_, address) in address_book() {
        net.fund(address);
    }

    println!(
        "wallet connects to primary node {}",
        net.node(primary).address()
    );
    net.connect(&mut wallet, primary, U256::from(100_000u64))
        .expect("connect primary");

    println!("balance sweep #1 (primary node, honest):");
    watch_once(&mut net, &mut wallet, primary).expect("honest sweep");

    // The primary node turns malicious: it starts forging balances.
    println!("\nprimary node starts forging results...");
    net.node_mut(primary)
        .set_misbehavior(Misbehavior::ForgedResult);
    match watch_once(&mut net, &mut wallet, primary) {
        Err(reason) => println!("balance sweep #2 aborted: {reason}"),
        Ok(()) => panic!("forged balances must not verify"),
    }

    // Fail-over: permissionless means a new channel is one handshake away.
    wallet.abandon_provider(net.node(primary).address());
    println!(
        "\nwallet fails over to backup node {}",
        net.node(backup).address()
    );
    net.connect(&mut wallet, backup, U256::from(100_000u64))
        .expect("connect backup");
    println!("balance sweep #3 (backup node):");
    watch_once(&mut net, &mut wallet, backup).expect("backup sweep");

    println!(
        "\ndone: {} verified responses received in total",
        wallet.valid_responses()
    );
}
