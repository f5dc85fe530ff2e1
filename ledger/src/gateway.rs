//! The two workloads behind the marketplace wrapper: `gateway-quorum`
//! (fault-free, one persistent world) and `gateway-chaos` (a sweep of
//! fresh worlds, one per fault seed).

use crate::layers;
use crate::rng::Rng;
use crate::span::Recorder;
use crate::unroll;
use crate::workload::{Round, Workload};
use crate::world::{expected_account, GatewayWorld, Size};
use parp_contracts::RpcCall;
use parp_core::ProcessOutcome;
use parp_gateway::FailoverCause;
use parp_net::{CorruptionBurst, CrashWindow, FaultConfig, Network, NodeId, PartitionWindow};
use parp_primitives::Address;
use std::collections::BTreeMap;
use std::time::Instant;

/// One logical call through the gateway.
#[derive(Debug, Clone, Copy)]
enum GwOp {
    Call(Address),
    Quorum(Address),
}

/// Providers in the `gateway-quorum` world.
const QUORUM_PROVIDERS: usize = 4;
/// Every `n`-th `gateway-quorum` operation is a quorum read.
const QUORUM_EVERY: usize = 4;
/// Providers in each `gateway-chaos` episode.
const CHAOS_PROVIDERS: usize = 5;
/// Funded read targets in each `gateway-chaos` episode.
const CHAOS_ACCOUNTS: usize = 16;
/// Every `n`-th `gateway-chaos` call is a quorum read.
const CHAOS_QUORUM_EVERY: usize = 6;
/// Per-exchange deadline of the chaos episodes (µs, simulated).
const CHAOS_DEADLINE_US: u64 = 25_000;
/// Unrolled probe exchanges the traced pass adds on a gateway world to
/// see the layers below the gateway.
const PROBE_UNROLLED: usize = 100;

/// The PR-10 chaos schedule: 10 % drop, 2 % corrupt, 15 % delay with
/// spikes, one crash window, one partition, two corruption bursts.
fn chaos_schedule(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        drop_ppm: 100_000,
        corrupt_ppm: 20_000,
        delay_ppm: 150_000,
        delay_base_us: 2_000,
        delay_spike_us: 40_000,
        crashes: vec![CrashWindow {
            provider_index: 1,
            from_step: 30,
            until_step: 90,
        }],
        partitions: vec![PartitionWindow {
            provider_indices: vec![2, 3],
            from_step: 60,
            until_step: 110,
        }],
        bursts: vec![
            CorruptionBurst {
                from_step: 40,
                until_step: 70,
                corrupt_ppm: 400_000,
            },
            CorruptionBurst {
                from_step: 120,
                until_step: 150,
                corrupt_ppm: 400_000,
            },
        ],
        ..FaultConfig::default()
    }
}

fn plan(rng: &mut Rng, accounts: &[Address], ops: usize, quorum_every: usize) -> Vec<GwOp> {
    (0..ops)
        .map(|i| {
            let address = accounts[rng.below(accounts.len())];
            if i % quorum_every == quorum_every - 1 {
                GwOp::Quorum(address)
            } else {
                GwOp::Call(address)
            }
        })
        .collect()
}

/// Exchanges the network has carried for every provider so far.
fn exchanges_sent(net: &Network) -> u64 {
    net.provider_stats_all()
        .iter()
        .map(|(_, aggregate)| aggregate.calls())
        .sum()
}

/// Monotone totals of a world's gateway and serving cache; a round
/// reports the difference.
fn gateway_totals(world: &GatewayWorld) -> [(&'static str, u64); 8] {
    let gateway = &world.gateway;
    let failovers = gateway.failovers();
    [
        ("gateway_served", gateway.calls_served()),
        ("retries", gateway.retries()),
        ("hedges", gateway.hedges_fired()),
        ("breaker_opens", gateway.breaker_transitions().0),
        ("failovers", failovers.len() as u64),
        (
            "refused_failovers",
            failovers
                .iter()
                .filter(|event| event.cause == FailoverCause::Refused)
                .count() as u64,
        ),
        ("cache_hits", world.net.runtime().cache().hits()),
        ("cache_misses", world.net.runtime().cache().misses()),
    ]
}

/// Runs `ops` through `world`'s gateway, one `Gateway::call` or
/// `quorum_call` per operation, folding results into `round`; any `Err`
/// is a failed exchange. With `pair`, each traced call is followed by
/// the same call made directly (the probe client, provider 0 /
/// providers 0–2) and recorded as the gateway span's replayed child —
/// what is left is the gateway's own cost. Only fault-free worlds pair:
/// a direct call would consume fault-schedule steps.
fn run_ops(
    world: &mut GatewayWorld,
    ops: &[GwOp],
    round: &mut Round,
    mut rec: Option<&mut Recorder>,
    pair: bool,
) -> Result<(), String> {
    let sent_before = exchanges_sent(&world.net);
    let totals_before = gateway_totals(world);
    let failovers_before = world.gateway.failovers().len();
    let faults_injected = world.net.fault_plane().is_some();
    let mut paired_exchanges = 0;
    for op in ops {
        let (address, quorum) = match *op {
            GwOp::Call(address) => (address, false),
            GwOp::Quorum(address) => (address, true),
        };
        let call = RpcCall::GetBalance { address };
        let span = rec.as_deref_mut().map(|rec| {
            rec.next_exchange();
            rec.open(if quorum {
                "gateway.quorum_call"
            } else {
                "gateway.call"
            })
        });
        let sim_started = world.net.now_us();
        let started = Instant::now();
        let outcome = if quorum {
            world
                .gateway
                .quorum_call(&mut world.net, call.clone(), 0)
                .map(|outcome| (outcome.result, outcome.degraded))
        } else {
            world
                .gateway
                .call(&mut world.net, call.clone())
                .map(|bytes| (bytes, false))
        };
        let us = started.elapsed().as_nanos() as f64 / 1e3;
        let sim_us = world.net.now_us() - sim_started;
        if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
            rec.close(span);
            if pair {
                let GatewayWorld {
                    net, probe, nodes, ..
                } = world;
                let legs: Vec<(NodeId, RpcCall)> = nodes
                    .iter()
                    .take(if quorum { 3 } else { 1 })
                    .map(|node| (*node, call.clone()))
                    .collect();
                paired_exchanges += legs.len() as u64;
                let valid = |leg: &Result<(ProcessOutcome, _), _>| {
                    matches!(leg, Ok((ProcessOutcome::Valid { .. }, _)))
                };
                let (direct_ok, ns) = rec.off_clock(|| {
                    if quorum {
                        net.parp_call_fanout(probe, &legs).iter().all(valid)
                    } else {
                        valid(&net.parp_call(probe, nodes[0], call.clone()))
                    }
                });
                if !direct_ok {
                    return Err("paired direct call did not verify".into());
                }
                let name = if quorum {
                    "net.parp_call_fanout"
                } else {
                    "net.parp_call"
                };
                rec.replay(span, name, ns);
            }
        }
        round.attempted += 1;
        *round.counts.entry("gateway_calls").or_default() += 1;
        round.exchange_us.push(us);
        round.sim_us.push(sim_us as f64);
        if quorum {
            round.gateway_quorum_us.push(us);
            *round.counts.entry("quorums").or_default() += 1;
        } else {
            round.gateway_single_us.push(us);
        }
        match outcome {
            Ok((bytes, degraded)) => {
                // Degraded reads are still individually verified
                // (signature + proof): they too must match the chain.
                if bytes != expected_account(&world.net, &address) {
                    return Err("wrong payload accepted through the gateway".into());
                }
                round.verified_calls += 1;
                if degraded {
                    *round.counts.entry("degraded").or_default() += 1;
                }
            }
            Err(_) => round.mark_unserved(faults_injected),
        }
    }
    // The pairing sends direct exchanges of its own; they are not the
    // gateway's.
    let sent = exchanges_sent(&world.net) - sent_before - paired_exchanges;
    round.wire_bytes += sent as f64 * world.bytes_per_exchange;
    *round.counts.entry("exchanges_sent").or_default() += sent;
    for ((name, after), (_, before)) in gateway_totals(world).into_iter().zip(totals_before) {
        *round.counts.entry(name).or_default() += after - before;
    }
    round.recoveries_sim_us.extend(
        world
            .gateway
            .failovers()
            .iter()
            .skip(failovers_before)
            .filter_map(|event| event.time_to_recover_us())
            .map(|us| us as f64),
    );
    Ok(())
}

/// Adds a consumed episode's fault-plane counters to the round (the
/// plane is fresh per episode, so its lifetime is the episode).
fn add_fault_counts(world: &GatewayWorld, round: &mut Round) {
    let mut add = |name: &'static str, value: u64| {
        *round.counts.entry(name).or_default() += value;
    };
    if let Some(plane) = world.net.fault_plane() {
        let counters = plane.counters();
        add("fault_drops", counters.drops.get());
        add("fault_corruptions", counters.corruptions.get());
        add("fault_delays", counters.delays.get());
        add("fault_crashes", counters.crashes.get());
        add("fault_partitions", counters.partitions.get());
        add("fault_timeouts", counters.timeouts.get());
        add("fault_steps", plane.step());
    }
}

/// Leaf timers plus a short unrolled pass on the probe client, so the
/// layers below the gateway are measured on this world too.
fn gateway_layer_metrics(
    world: &mut GatewayWorld,
    out: &mut BTreeMap<&'static str, f64>,
    probe_spans: &mut Recorder,
) -> Result<(), String> {
    layers::leaf_timers(
        &mut world.net,
        &mut world.probe,
        world.nodes[0],
        &world.accounts,
        out,
    )?;
    out.insert("contracts.connect_gas", world.connect_cost.gas as f64);
    out.insert(
        "contracts.blocks_per_connect",
        world.connect_cost.blocks as f64,
    );
    let mut captured = Vec::new();
    for i in 0..PROBE_UNROLLED {
        let address = world.accounts[i % world.accounts.len()];
        let (outcome, _, exchange) = unroll::single(
            &mut world.net,
            &mut world.probe,
            world.nodes[0],
            RpcCall::GetBalance { address },
            probe_spans,
        )?;
        if !matches!(outcome, ProcessOutcome::Valid { .. }) {
            return Err("unrolled probe exchange did not verify".into());
        }
        captured.push(exchange);
    }
    for exchange in captured {
        unroll::replay(
            &world.net,
            &world.probe,
            world.nodes[0],
            exchange,
            None,
            probe_spans,
        )?;
    }
    Ok(())
}

pub struct Quorum {
    world: GatewayWorld,
    plan: Vec<GwOp>,
}

impl Quorum {
    pub fn build(seed: u64, size: &Size) -> Result<Self, String> {
        let world = GatewayWorld::build(QUORUM_PROVIDERS, size.accounts, None)?;
        let plan = plan(
            &mut Rng::new(seed, 0x51),
            &world.accounts,
            size.quorum_ops,
            QUORUM_EVERY,
        );
        Ok(Quorum { world, plan })
    }
}

impl Workload for Quorum {
    fn round(&mut self, rec: Option<&mut Recorder>) -> Result<Round, String> {
        let mut round = Round::default();
        run_ops(&mut self.world, &self.plan, &mut round, rec, true)?;
        Ok(round)
    }

    fn layer_metrics(
        &mut self,
        out: &mut BTreeMap<&'static str, f64>,
        probe: &mut Recorder,
    ) -> Result<(), String> {
        gateway_layer_metrics(&mut self.world, out, probe)
    }
}

pub struct Chaos {
    fault_seeds: Vec<u64>,
    plans: Vec<Vec<GwOp>>,
    /// Fresh, unconsumed episode worlds (empty once a round ran).
    episodes: Vec<GatewayWorld>,
    /// The last consumed world (leaf timers run on it).
    spent: Option<GatewayWorld>,
}

impl Chaos {
    pub fn build(seed: u64, size: &Size) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 0xC4A05);
        let fault_seeds: Vec<u64> = (0..size.chaos_episodes).map(|_| rng.next_u64()).collect();
        let accounts: Vec<Address> = (0..CHAOS_ACCOUNTS)
            .map(crate::world::account_address)
            .collect();
        let plans = fault_seeds
            .iter()
            .map(|_| plan(&mut rng, &accounts, size.chaos_calls, CHAOS_QUORUM_EVERY))
            .collect();
        let mut chaos = Chaos {
            fault_seeds,
            plans,
            episodes: Vec::new(),
            spent: None,
        };
        chaos.build_episodes()?;
        Ok(chaos)
    }

    fn build_episodes(&mut self) -> Result<(), String> {
        self.episodes = self
            .fault_seeds
            .iter()
            .map(|seed| {
                GatewayWorld::build(
                    CHAOS_PROVIDERS,
                    CHAOS_ACCOUNTS,
                    Some((chaos_schedule(*seed), CHAOS_DEADLINE_US)),
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }
}

impl Workload for Chaos {
    fn before_round(&mut self) -> Result<Option<f64>, String> {
        if !self.episodes.is_empty() {
            return Ok(None);
        }
        let started = Instant::now();
        self.build_episodes()?;
        Ok(Some(started.elapsed().as_secs_f64()))
    }

    fn round(&mut self, mut rec: Option<&mut Recorder>) -> Result<Round, String> {
        let mut round = Round::default();
        let mut episodes = std::mem::take(&mut self.episodes);
        if episodes.is_empty() {
            return Err("chaos round without fresh episode worlds".into());
        }
        for (world, ops) in episodes.iter_mut().zip(&self.plans) {
            run_ops(world, ops, &mut round, rec.as_deref_mut(), false)?;
            add_fault_counts(world, &mut round);
        }
        self.spent = episodes.pop();
        Ok(round)
    }

    fn layer_metrics(
        &mut self,
        out: &mut BTreeMap<&'static str, f64>,
        probe: &mut Recorder,
    ) -> Result<(), String> {
        let world = self.spent.as_mut().ok_or("no chaos round ran")?;
        gateway_layer_metrics(world, out, probe)
    }
}
