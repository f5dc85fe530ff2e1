//! The four workloads that talk to one provider directly:
//! `read-single`, `read-batch64`, `write-mix` and `history-cold`.
//! Closed loop, one client: the next exchange is sent only after the
//! previous one has been classified and checked against the chain.

use crate::layers;
use crate::rng::{Rng, Zipf};
use crate::span::Recorder;
use crate::unroll::{self, Captured, Twin};
use crate::workload::{Round, Workload};
use crate::world::{
    expected_account, pruned_transfers, sender_key, transfer, DirectWorld, Size, TxLocation, BATCH,
    HISTORY_BUDGET_BYTES, HISTORY_PAIRS, SENDERS,
};
use parp_chain::{Blockchain, SignedTransaction};
use parp_contracts::RpcCall;
use parp_core::{ProcessBatchOutcome, ProcessOutcome};
use parp_net::{ExchangeStats, Network, SimError};
use parp_primitives::{Address, U256};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadSingle,
    ReadBatch64,
    WriteMix,
    HistoryCold,
}

/// One exchange of the operation list.
enum Op {
    Single(Address),
    Batch(Vec<Address>),
    /// The `n`-th write of the round: sender `n`, this recipient.
    Write(usize, Address),
    /// Indices into `Direct::locations`; each is looked up twice
    /// (transaction, receipt).
    History(Vec<usize>),
}

impl Op {
    /// The call vector of a batched operation.
    fn batch_calls(&self, locations: &[TxLocation]) -> Option<Vec<RpcCall>> {
        match self {
            Op::Batch(addresses) => Some(
                addresses
                    .iter()
                    .map(|address| RpcCall::GetBalance { address: *address })
                    .collect(),
            ),
            Op::History(picks) => Some(
                picks
                    .iter()
                    .flat_map(|&i| {
                        let hash = locations[i].hash;
                        [
                            RpcCall::GetTransactionByHash { hash },
                            RpcCall::GetTransactionReceipt { hash },
                        ]
                    })
                    .collect(),
            ),
            Op::Single(_) | Op::Write(..) => None,
        }
    }
}

/// Reads per write in `write-mix`.
const READS_PER_WRITE: usize = 15;
/// Zipf exponent of the `history-cold` block draw (rank 0 = oldest).
const HISTORY_ZIPF: f64 = 0.6;

pub struct Direct {
    kind: Kind,
    world: DirectWorld,
    plan: Vec<Op>,
    locations: Vec<TxLocation>,
    /// This round's signed transfers, in write order.
    transfers: Vec<SignedTransaction>,
    /// The traced pass's side chain for write replays.
    twin: Option<Twin>,
    size: Size,
}

impl Direct {
    pub fn build(kind: Kind, seed: u64, size: &Size) -> Result<Self, String> {
        let world = match kind {
            Kind::HistoryCold => {
                DirectWorld::history(size.history_blocks, size.history_txs, HISTORY_BUDGET_BYTES)?
            }
            _ => DirectWorld::state(size.accounts, true)?,
        };
        let mut rng = Rng::new(seed, kind as u64);
        let mut locations = Vec::new();
        let pick = |rng: &mut Rng| world.accounts[rng.below(world.accounts.len())];
        let plan = match kind {
            Kind::ReadSingle => (0..size.single_calls)
                .map(|_| Op::Single(pick(&mut rng)))
                .collect(),
            Kind::ReadBatch64 => (0..size.batches)
                .map(|_| Op::Batch((0..BATCH).map(|_| pick(&mut rng)).collect()))
                .collect(),
            Kind::WriteMix => {
                // One write per group of 16, at a seeded position.
                let group = READS_PER_WRITE + 1;
                let mut plan = Vec::with_capacity(size.mix_ops);
                for g in 0..size.mix_ops / group {
                    let write_at = rng.below(group);
                    for i in 0..group {
                        let target = pick(&mut rng);
                        plan.push(if i == write_at {
                            Op::Write(g % SENDERS, target)
                        } else {
                            Op::Single(target)
                        });
                    }
                }
                plan
            }
            Kind::HistoryCold => {
                let groups = pruned_transfers(&world.net);
                if groups.is_empty() {
                    return Err("history world mined no transfer blocks".into());
                }
                let zipf = Zipf::new(groups.len(), HISTORY_ZIPF);
                let starts: Vec<usize> = groups
                    .iter()
                    .scan(0, |offset, group| {
                        let start = *offset;
                        *offset += group.len();
                        Some(start)
                    })
                    .collect();
                let plan = (0..size.history_batches)
                    .map(|_| {
                        Op::History(
                            (0..HISTORY_PAIRS)
                                .map(|_| {
                                    let block = zipf.sample(&mut rng);
                                    starts[block] + rng.below(groups[block].len())
                                })
                                .collect(),
                        )
                    })
                    .collect();
                locations = groups.into_iter().flatten().collect();
                plan
            }
        };
        Ok(Direct {
            kind,
            world,
            plan,
            locations,
            transfers: Vec::new(),
            twin: None,
            size: *size,
        })
    }

    /// The call vectors of the plan's batched operations (what the
    /// twin-world comparisons replay).
    fn batch_plan(&self) -> Vec<Vec<RpcCall>> {
        self.plan
            .iter()
            .filter_map(|op| op.batch_calls(&self.locations))
            .collect()
    }
}

/// Folds one single-call exchange into the round; `Err` on an accepted
/// payload that disagrees with the chain.
fn settle_single(
    round: &mut Round,
    result: Result<(ProcessOutcome, ExchangeStats), String>,
    expected: impl FnOnce() -> Vec<u8>,
    what: &str,
) -> Result<(), String> {
    round.attempted += 1;
    match result {
        Ok((ProcessOutcome::Valid { result, proven }, stats)) => {
            if !proven || result != expected() {
                return Err(format!("wrong payload accepted for {what}"));
            }
            round.verified_calls += 1;
            add_stats(round, &stats);
        }
        Ok(_) | Err(_) => round.mark_unserved(false),
    }
    Ok(())
}

/// A traced exchange kept for replay, with the write's (sender,
/// recipient) where the exchange was one.
type Kept = (Captured, Option<(usize, Address)>);

/// Files a traced exchange for replay once the round is over and hands
/// back what the untraced driver would have returned.
fn keep<T>(
    captured: &mut Vec<Kept>,
    (outcome, stats, exchange): (T, ExchangeStats, Captured),
    write: Option<(usize, Address)>,
) -> (T, ExchangeStats) {
    captured.push((exchange, write));
    (outcome, stats)
}

fn add_stats(round: &mut Round, stats: &ExchangeStats) {
    round.request_bytes += stats.request_bytes as u64;
    round.response_bytes += stats.response_bytes as u64;
    round.proof_bytes += stats.proof_bytes as u64;
    round.wire_bytes += (stats.request_bytes + stats.response_bytes) as f64;
    round.sim_us.push(stats.latency_us() as f64);
}

fn sim_error(e: SimError) -> String {
    e.to_string()
}

/// What the chain must hold after a served write: the transfer, mined,
/// at the index the node reported.
fn written(net: &Network, transfer: &SignedTransaction) -> Vec<u8> {
    let chain = net.chain();
    chain
        .transaction_location(&transfer.hash())
        .filter(|(block, index)| {
            chain
                .transactions_encoded(*block)
                .is_some_and(|txs| txs.get(*index) == Some(&transfer.encode()))
        })
        .map(|(_, index)| parp_rlp::encode_u64(index as u64))
        .unwrap_or_else(|| b"transfer not mined".to_vec())
}

impl Workload for Direct {
    fn before_round(&mut self) -> Result<Option<f64>, String> {
        if self.kind == Kind::WriteMix {
            let chain = self.world.net.chain();
            // A sender may write more than once in a round: its later
            // transfers take the following nonces.
            let mut signed_by = [0u64; SENDERS];
            self.transfers = self
                .plan
                .iter()
                .filter_map(|op| match op {
                    Op::Write(sender, to) => {
                        let key = sender_key(*sender);
                        let nonce = chain.nonce(&key.address()) + signed_by[*sender];
                        signed_by[*sender] += 1;
                        Some(transfer(&key, nonce, *to))
                    }
                    _ => None,
                })
                .collect();
        }
        Ok(None)
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) -> Result<Round, String> {
        if rec.is_some() && self.kind == Kind::WriteMix && self.twin.is_none() {
            self.twin = Some(Twin {
                chain: twin_chain(&self.world.accounts),
            });
        }
        let Direct {
            world,
            plan,
            locations,
            transfers,
            twin,
            ..
        } = self;
        let DirectWorld {
            net, node, client, ..
        } = world;
        let node = *node;
        let mut round = Round::default();
        let mut writes = transfers.iter();
        let mut captured: Vec<Kept> = Vec::new();
        let counters_before = program_counters(net);
        for op in plan.iter() {
            let op_started = Instant::now();
            match op {
                Op::Single(address) => {
                    let call = RpcCall::GetBalance { address: *address };
                    let result = match rec.as_deref_mut() {
                        None => net.parp_call(client, node, call).map_err(sim_error),
                        Some(rec) => unroll::single(net, client, node, call, rec)
                            .map(|traced| keep(&mut captured, traced, None)),
                    };
                    round.exchange_us.push(micros(op_started));
                    let expected = || expected_account(net, address);
                    settle_single(&mut round, result, expected, "GetBalance")?;
                }
                Op::Write(sender, to) => {
                    let signed = writes.next().ok_or("write without a signed transfer")?;
                    let call = RpcCall::SendRawTransaction {
                        raw: signed.encode(),
                    };
                    let result = match rec.as_deref_mut() {
                        None => net.parp_call(client, node, call).map_err(sim_error),
                        Some(rec) => unroll::single(net, client, node, call, rec)
                            .map(|traced| keep(&mut captured, traced, Some((*sender, *to)))),
                    };
                    let us = micros(op_started);
                    round.exchange_us.push(us);
                    round.write_us.push(us);
                    let expected = || written(net, signed);
                    settle_single(&mut round, result, expected, "SendRawTransaction")?;
                }
                Op::Batch(_) | Op::History(_) => {
                    let calls = op.batch_calls(locations).ok_or("not a batch")?;
                    let result = match rec.as_deref_mut() {
                        None => net.parp_batch_call(client, node, calls).map_err(sim_error),
                        Some(rec) => unroll::batch(net, client, node, calls, rec)
                            .map(|traced| keep(&mut captured, traced, None)),
                    };
                    round.exchange_us.push(micros(op_started));
                    let expected: Vec<Vec<u8>> = match op {
                        Op::Batch(addresses) => addresses
                            .iter()
                            .map(|address| expected_account(net, address))
                            .collect(),
                        Op::History(picks) => picks
                            .iter()
                            .flat_map(|&i| {
                                let location = &locations[i];
                                [
                                    location.expected_tx.clone(),
                                    location.expected_receipt.clone(),
                                ]
                            })
                            .collect(),
                        Op::Single(_) | Op::Write(..) => Vec::new(),
                    };
                    settle_batch(&mut round, result, expected)?;
                }
            }
        }
        for ((name, after), (_, before)) in program_counters(net).into_iter().zip(counters_before) {
            round.counts.insert(name, after - before);
        }
        if let Some(rec) = rec {
            for (exchange, write) in captured {
                let twin_write = match write {
                    None => None,
                    Some((sender, to)) => {
                        let twin = twin.as_mut().ok_or("traced write without a twin")?;
                        let key = sender_key(sender);
                        let nonce = twin.chain.nonce(&key.address());
                        Some((twin, transfer(&key, nonce, to)))
                    }
                };
                unroll::replay(net, client, node, exchange, twin_write, rec)?;
            }
        }
        Ok(round)
    }

    fn layer_metrics(
        &mut self,
        out: &mut BTreeMap<&'static str, f64>,
        _probe: &mut Recorder,
    ) -> Result<(), String> {
        let world = &mut self.world;
        layers::leaf_timers(
            &mut world.net,
            &mut world.client,
            world.node,
            &world.accounts,
            out,
        )?;
        out.insert("contracts.connect_gas", world.connect_cost.gas as f64);
        out.insert(
            "contracts.blocks_per_connect",
            world.connect_cost.blocks as f64,
        );
        match self.kind {
            Kind::HistoryCold => {
                let plan = self.batch_plan();
                layers::history_metrics(&mut self.world, &self.locations, &plan, &self.size, out)
            }
            Kind::ReadBatch64 => {
                let plan = self.batch_plan();
                layers::telemetry_overhead(&mut self.world, &plan, out)
            }
            _ => Ok(()),
        }
    }
}

/// The program's own cache and tier counters, read through its public
/// accessors (monotone: a round reports the difference).
fn program_counters(net: &Network) -> [(&'static str, u64); 6] {
    let cache = net.runtime().cache();
    let tier = net.runtime().cold_storage().map(|cold| cold.tier());
    [
        ("cache_hits", cache.hits()),
        ("cache_misses", cache.misses()),
        ("tier_hits", tier.map_or(0, |t| t.hits())),
        ("tier_misses", tier.map_or(0, |t| t.misses())),
        ("tier_rehydrates", tier.map_or(0, |t| t.rehydrate_count())),
        ("tier_spills", tier.map_or(0, |t| t.spill_count())),
    ]
}

fn settle_batch(
    round: &mut Round,
    result: Result<(ProcessBatchOutcome, ExchangeStats), String>,
    expected: Vec<Vec<u8>>,
) -> Result<(), String> {
    round.attempted += 1;
    match result {
        Ok((ProcessBatchOutcome::Valid { results, proven }, stats)) => {
            if results != expected || !proven.iter().all(|p| *p) {
                return Err("wrong payload accepted in a batch".into());
            }
            round.verified_calls += results.len() as u64;
            add_stats(round, &stats);
        }
        Ok(_) | Err(_) => round.mark_unserved(false),
    }
    Ok(())
}

fn micros(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64 / 1e3
}

/// A chain holding the state world's accounts and senders with the
/// faucet grant each — the same trie shape the live head has.
pub fn twin_chain(accounts: &[Address]) -> Blockchain {
    let grant = U256::from(100u64) * U256::from(1_000_000_000_000_000_000u64);
    Blockchain::new(
        accounts
            .iter()
            .copied()
            .chain((0..SENDERS).map(|i| sender_key(i).address()))
            .map(|address| (address, grant)),
    )
}
