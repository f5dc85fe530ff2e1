//! The worlds the workloads run in, built only through the program's
//! public functions and in its production configuration: a telemetry
//! registry attached, the tracer off, and the network left on its
//! default fixed-quantum clock so every sim-clock figure and every count
//! repeats exactly.

use parp_chain::{Account, SignedTransaction, Transaction};
use parp_contracts::RpcCall;
use parp_core::{LightClient, ProcessOutcome};
use parp_crypto::SecretKey;
use parp_gateway::{Gateway, GatewayConfig, ResilienceConfig, SelectionPolicy};
use parp_net::{FaultConfig, LatencyModel, Network, NodeId};
use parp_primitives::{Address, H256, U256};
use parp_telemetry::Telemetry;

/// Wei per call every direct client pays.
pub const PRICE: u64 = 10;

/// Sizes of the reference box; the smoke test runs them at 1/50.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Funded accounts in the state worlds.
    pub accounts: usize,
    /// `read-single`: calls per round.
    pub single_calls: usize,
    /// `read-batch64`: batches per round.
    pub batches: usize,
    /// `write-mix`: operations per round (one write per 16).
    pub mix_ops: usize,
    /// `history-cold`: blocks mined, every 4th carrying transfers.
    pub history_blocks: u64,
    /// `history-cold`: transfers in each carrying block.
    pub history_txs: usize,
    /// `history-cold`: batches per round.
    pub history_batches: usize,
    /// `gateway-quorum`: operations per round (one quorum per 4).
    pub quorum_ops: usize,
    /// `gateway-chaos`: fault seeds (episodes) per sweep.
    pub chaos_episodes: usize,
    /// `gateway-chaos`: calls per episode.
    pub chaos_calls: usize,
}

impl Size {
    pub const FULL: Size = Size {
        accounts: 10_000,
        single_calls: 2_500,
        batches: 1_000,
        mix_ops: 480,
        history_blocks: 1_024,
        history_txs: 64,
        history_batches: 400,
        quorum_ops: 1_600,
        chaos_episodes: 12,
        chaos_calls: 150,
    };

    /// 1/50 of [`Size::FULL`], except that the history stays deep enough
    /// (past the chain's 257-block resident floor) to have pruned blocks.
    #[cfg(test)]
    pub const SMOKE: Size = Size {
        accounts: 200,
        single_calls: 50,
        batches: 20,
        mix_ops: 32,
        history_blocks: 300,
        history_txs: 2,
        history_batches: 8,
        quorum_ops: 32,
        chaos_episodes: 1,
        chaos_calls: 36,
    };
}

/// Calls in one `read-batch64` batch.
pub const BATCH: usize = 64;
/// (transaction, receipt) lookup pairs in one `history-cold` batch.
pub const HISTORY_PAIRS: usize = 32;
/// Warm-tier budget of the `history-cold` world: ~3 % of the pages.
pub const HISTORY_BUDGET_BYTES: usize = 64 * 1024;
/// Senders that sign the `write-mix` transfers.
pub const SENDERS: usize = 30;

pub fn account_address(index: usize) -> Address {
    Address::from_low_u64_be(0x1ED6_E400_0000 + index as u64)
}

pub fn sender_key(index: usize) -> SecretKey {
    SecretKey::from_seed(format!("ledger-sender-{index}").as_bytes())
}

/// A signed one-wei transfer: what `write-mix` submits.
pub fn transfer(key: &SecretKey, nonce: u64, to: Address) -> SignedTransaction {
    Transaction {
        nonce,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(to),
        value: U256::from(1u64),
        data: Vec::new(),
    }
    .sign(key)
}

/// What the chain says a `GetBalance` must return right now.
pub fn expected_account(net: &Network, address: &Address) -> Vec<u8> {
    net.chain()
        .state()
        .account(address)
        .map(Account::encode)
        .unwrap_or_default()
}

fn channel_budget() -> U256 {
    U256::from(1u64) << 60
}

/// Gas and blocks one `Network::connect` cost on chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnectCost {
    pub gas: u64,
    pub blocks: u64,
}

fn connect(
    net: &mut Network,
    client: &mut LightClient,
    node: NodeId,
) -> Result<ConnectCost, String> {
    let before = net.chain().height();
    net.connect(client, node, channel_budget())
        .map_err(|e| format!("connect: {e}"))?;
    let height = net.chain().height();
    let gas = net
        .chain()
        .receipts(height)
        .and_then(|receipts| receipts.last())
        .map_or(0, |receipt| receipt.cumulative_gas_used);
    Ok(ConnectCost {
        gas,
        blocks: height - before,
    })
}

/// One provider, one bonded client, a funded account set.
pub struct DirectWorld {
    pub net: Network,
    pub node: NodeId,
    pub client: LightClient,
    pub accounts: Vec<Address>,
    pub connect_cost: ConnectCost,
}

impl DirectWorld {
    /// The 10,000-account state world on a zero-latency link.
    /// `attached: false` builds the bare twin the telemetry-overhead
    /// comparison runs against.
    pub fn state(accounts: usize, attached: bool) -> Result<Self, String> {
        let mut net = Network::with_latency(LatencyModel::zero());
        if attached {
            net.attach_telemetry(&Telemetry::new());
        }
        let node = net.spawn_node(b"ledger-node-0", U256::from(PRICE));
        let mut funded: Vec<Address> = (0..accounts).map(account_address).collect();
        funded.extend((0..SENDERS).map(|i| sender_key(i).address()));
        net.fund_many(&funded);
        funded.truncate(accounts);
        let mut client = net.spawn_client(b"ledger-client", U256::from(PRICE));
        let connect_cost = connect(&mut net, &mut client, node)?;
        Ok(DirectWorld {
            net,
            node,
            client,
            accounts: funded,
            connect_cost,
        })
    }

    /// The deep-history world: `blocks` mined with the storage tier on,
    /// every 4th carrying `txs` transfers, warm tier capped at
    /// `budget_bytes`.
    pub fn history(blocks: u64, txs: usize, budget_bytes: usize) -> Result<Self, String> {
        let mut net = Network::with_latency(LatencyModel::zero());
        net.enable_deep_history(0, budget_bytes)
            .map_err(|e| format!("enable_deep_history: {e}"))?;
        net.attach_telemetry(&Telemetry::new());
        let node = net.spawn_node(b"ledger-node-0", U256::from(PRICE));
        let mut client = net.spawn_client(b"ledger-client", U256::from(PRICE));
        let connect_cost = connect(&mut net, &mut client, node)?;
        let accounts: Vec<Address> = (0..txs).map(account_address).collect();
        for block in 0..blocks {
            if block % 4 == 0 {
                net.fund_many(&accounts);
            } else {
                net.advance_blocks(1)
                    .map_err(|e| format!("advance_blocks: {e}"))?;
            }
        }
        net.sync_client(&mut client);
        Ok(DirectWorld {
            net,
            node,
            client,
            accounts,
            connect_cost,
        })
    }
}

/// A mined transfer behind the resident window, with what the chain
/// says its two lookups must return.
#[derive(Debug, Clone)]
pub struct TxLocation {
    pub hash: H256,
    pub block: u64,
    pub expected_tx: Vec<u8>,
    pub expected_receipt: Vec<u8>,
}

/// Every transfer in a pruned block, oldest block first, grouped per
/// block. Falls back to the resident blocks when nothing is pruned.
pub fn pruned_transfers(net: &Network) -> Vec<Vec<TxLocation>> {
    let chain = net.chain();
    let collect = |range: std::ops::Range<u64>| -> Vec<Vec<TxLocation>> {
        range
            .filter_map(|block| {
                let txs = chain.transactions_at(block)?;
                let receipts = chain.receipts_encoded(block)?;
                let group: Vec<TxLocation> = txs
                    .iter()
                    .zip(&receipts)
                    .enumerate()
                    .map(|(index, (tx, receipt))| TxLocation {
                        hash: tx.hash(),
                        block,
                        expected_tx: parp_rlp::encode_u64(index as u64),
                        expected_receipt: parp_rlp::encode_list(&[
                            parp_rlp::encode_u64(index as u64),
                            parp_rlp::encode_bytes(receipt),
                        ]),
                    })
                    .collect();
                // Connection set-up blocks carry one module call each;
                // only the transfer blocks are lookup targets.
                (group.len() > 1).then_some(group)
            })
            .collect()
    };
    let pruned = collect(1..chain.resident_base());
    if pruned.is_empty() {
        collect(1..chain.height() + 1)
    } else {
        pruned
    }
}

/// `providers` nodes on the price ladder behind one [`Gateway`], plus a
/// direct probe client bonded to every provider (the paired baseline
/// the gateway's overhead is measured against).
pub struct GatewayWorld {
    pub net: Network,
    pub gateway: Gateway,
    pub nodes: Vec<NodeId>,
    pub probe: LightClient,
    pub accounts: Vec<Address>,
    pub connect_cost: ConnectCost,
    /// Mean request + response bytes of one `GetBalance` exchange on
    /// this world, probed directly (the gateway does not report bytes).
    pub bytes_per_exchange: f64,
}

/// Direct probe exchanges averaged for [`GatewayWorld::bytes_per_exchange`].
const PROBE_EXCHANGES: usize = 32;

impl GatewayWorld {
    /// `chaos: Some((fault schedule, per-exchange deadline µs))` installs
    /// the fault plane after set-up, so set-up consumes no schedule step.
    pub fn build(
        providers: usize,
        accounts: usize,
        chaos: Option<(FaultConfig, u64)>,
    ) -> Result<Self, String> {
        let telemetry = Telemetry::new();
        let mut net = Network::new();
        if let Some((_, deadline_us)) = &chaos {
            net.set_call_deadline_us(*deadline_us);
        }
        net.attach_telemetry(&telemetry);
        let nodes: Vec<NodeId> = (0..providers)
            .map(|i| {
                net.spawn_node(
                    format!("ledger-provider-{i}").as_bytes(),
                    U256::from(PRICE * (i as u64 + 1)),
                )
            })
            .collect();
        let accounts: Vec<Address> = (0..accounts).map(account_address).collect();
        net.fund_many(&accounts);

        let mut probe = net.spawn_client(b"ledger-probe", U256::from(PRICE));
        let mut connect_cost = ConnectCost::default();
        for (i, node) in nodes.iter().enumerate() {
            probe.set_price_for(
                net.node(*node).address(),
                U256::from(PRICE * (i as u64 + 1)),
            );
            connect_cost = connect(&mut net, &mut probe, *node)?;
        }
        let mut probed_bytes = 0usize;
        for i in 0..PROBE_EXCHANGES {
            let address = accounts[i * accounts.len() / PROBE_EXCHANGES];
            let (outcome, stats) = net
                .parp_call(&mut probe, nodes[0], RpcCall::GetBalance { address })
                .map_err(|e| format!("probe exchange: {e}"))?;
            if !matches!(outcome, ProcessOutcome::Valid { .. }) {
                return Err("probe exchange did not verify".into());
            }
            probed_bytes += stats.request_bytes + stats.response_bytes;
        }

        let seed = chaos.as_ref().map_or(0, |(fault, _)| fault.seed);
        let resilience = if chaos.is_some() {
            // The PR-10 chaos configuration.
            ResilienceConfig {
                allow_degraded: true,
                jitter_seed: seed ^ 0x5EED,
                call_budget_us: 400_000,
                breaker_cooldown_us: 100_000,
                ..ResilienceConfig::default()
            }
        } else {
            ResilienceConfig::default()
        };
        if let Some((fault, _)) = chaos {
            net.install_fault_plane(fault);
        }
        let config = GatewayConfig {
            policy: SelectionPolicy::ReputationWeighted,
            quorum: 3,
            resilience,
            ..GatewayConfig::default()
        };
        let client = net.spawn_client(b"ledger-gateway-client", U256::from(PRICE));
        let mut gateway = Gateway::new(client, config);
        gateway.attach_telemetry(&telemetry);
        Ok(GatewayWorld {
            net,
            gateway,
            nodes,
            probe,
            accounts,
            connect_cost,
            bytes_per_exchange: probed_bytes as f64 / PROBE_EXCHANGES as f64,
        })
    }
}
