//! Chaos-plane integration + property tests: any random fault schedule
//! must yield zero accepted wrong payloads and zero unclassified call
//! outcomes; same-seed runs must replay byte-identically (telemetry
//! snapshots and payment trajectories); `ReputationWeighted` selection
//! must learn to avoid a flaky-but-honest provider; and each injected
//! fault class must surface as its own `FailoverCause`.

use parp_suite::contracts::RpcCall;
use parp_suite::core::{InvalidReason, LightClient, ProcessBatchOutcome, ProcessOutcome};
use parp_suite::gateway::{
    run_chaos, ChaosConfig, FailoverCause, Gateway, GatewayConfig, ResilienceConfig,
    SelectionPolicy,
};
use parp_suite::net::{
    CrashWindow, ExchangeStats, FaultConfig, Network, NodeId, PartitionWindow, ProviderFaultRates,
    SimError,
};
use parp_suite::primitives::{Address, U256};
use proptest::prelude::*;

/// A small chaos network: `n` honest providers on a price ladder, 8
/// funded read targets with their expected payloads, a tight per-call
/// deadline, and a gateway under the given policy.
fn chaos_fixture(
    n: usize,
    seed_tag: &str,
    policy: SelectionPolicy,
) -> (Network, Gateway, Vec<Address>, Vec<Vec<u8>>) {
    let mut net = Network::new();
    net.set_call_deadline_us(25_000);
    for i in 0..n {
        net.spawn_node(
            format!("chaos-{seed_tag}-node-{i}").as_bytes(),
            U256::from(10 * (i as u64 + 1)),
        );
    }
    let targets: Vec<Address> = (0..8)
        .map(|i| Address::from_low_u64_be(0xCA05_0000 + i))
        .collect();
    net.fund_many(&targets);
    let expected: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| {
            net.chain()
                .state()
                .account(t)
                .map(parp_suite::chain::Account::encode)
                .unwrap_or_default()
        })
        .collect();
    let client = net.spawn_client(
        format!("chaos-{seed_tag}-client").as_bytes(),
        U256::from(10u64),
    );
    let gateway = Gateway::new(
        client,
        GatewayConfig {
            policy,
            resilience: ResilienceConfig {
                call_budget_us: 400_000,
                breaker_cooldown_us: 100_000,
                ..ResilienceConfig::default()
            },
            ..GatewayConfig::default()
        },
    );
    (net, gateway, targets, expected)
}

#[test]
fn reputation_weighted_learns_to_avoid_a_flaky_but_honest_provider() {
    // Provider 0 is the cheapest, so the initial score tie sends the
    // gateway straight into it — and it drops 90% of everything.
    let (mut net, mut gateway, targets, expected) =
        chaos_fixture(3, "flaky", SelectionPolicy::ReputationWeighted);
    let flaky = net.registry()[0];
    net.install_fault_plane(ChaosConfig::flaky_override(0));

    let calls = 20usize;
    let mut served = 0usize;
    for i in 0..calls {
        let index = i % targets.len();
        let call = RpcCall::GetBalance {
            address: targets[index],
        };
        if let Ok(bytes) = gateway.call(&mut net, call) {
            served += 1;
            assert_eq!(bytes, expected[index], "verified payloads only");
        }
    }
    assert_eq!(served, calls, "reliable providers carry the workload");

    // The flaky provider was tried, timed out, and scored down — the
    // policy stopped feeding it long before the workload ended.
    let flaky_rep = gateway.reputation().get(&flaky);
    assert!(flaky_rep.timeouts >= 1, "the trap was actually sprung");
    assert!(
        flaky_rep.timeouts <= 4,
        "selection must learn, not keep retrying the flake ({} timeouts)",
        flaky_rep.timeouts
    );
    let reliable = net.registry()[1];
    assert!(
        gateway.reputation().score(&flaky) < gateway.reputation().score(&reliable),
        "flaky {} vs reliable {}",
        gateway.reputation().score(&flaky),
        gateway.reputation().score(&reliable)
    );
    // Flaky-but-honest is not fraud: the provider stays trustworthy
    // (and un-banned), it just loses the scoring contest.
    assert!(flaky_rep.trustworthy());
    assert_eq!(flaky_rep.fraud, 0);
}

#[test]
fn each_fault_class_surfaces_as_its_own_failover_cause() {
    // Crash window → FailoverCause::Crash.
    let (mut net, mut gateway, targets, _) = chaos_fixture(2, "crash", SelectionPolicy::Cheapest);
    let mut fault = FaultConfig::default();
    fault.crashes.push(parp_suite::net::CrashWindow {
        provider_index: 0,
        from_step: 0,
        until_step: 10_000,
    });
    net.install_fault_plane(fault);
    gateway
        .call(
            &mut net,
            RpcCall::GetBalance {
                address: targets[0],
            },
        )
        .expect("provider 1 serves");
    assert!(
        gateway
            .failovers()
            .iter()
            .any(|f| matches!(f.cause, FailoverCause::Crash)),
        "crash must be recorded as a Crash failover: {:?}",
        gateway.failovers_by_cause()
    );

    // 100% corruption on provider 0 → FailoverCause::Corruption.
    let (mut net, mut gateway, targets, _) = chaos_fixture(2, "corrupt", SelectionPolicy::Cheapest);
    net.install_fault_plane(FaultConfig {
        overrides: vec![ProviderFaultRates {
            provider_index: 0,
            drop_ppm: 0,
            corrupt_ppm: 1_000_000,
            delay_ppm: 0,
        }],
        ..FaultConfig::default()
    });
    gateway
        .call(
            &mut net,
            RpcCall::GetBalance {
                address: targets[0],
            },
        )
        .expect("provider 1 serves");
    assert!(
        gateway
            .failovers()
            .iter()
            .any(|f| matches!(f.cause, FailoverCause::Corruption)),
        "corruption must be recorded as a Corruption failover: {:?}",
        gateway.failovers_by_cause()
    );

    // 100% drop on provider 0 → retries burn, then FailoverCause::Timeout.
    let (mut net, mut gateway, targets, _) = chaos_fixture(2, "drop", SelectionPolicy::Cheapest);
    net.install_fault_plane(FaultConfig {
        overrides: vec![ProviderFaultRates {
            provider_index: 0,
            drop_ppm: 1_000_000,
            corrupt_ppm: 0,
            delay_ppm: 0,
        }],
        ..FaultConfig::default()
    });
    gateway
        .call(
            &mut net,
            RpcCall::GetBalance {
                address: targets[0],
            },
        )
        .expect("provider 1 serves");
    assert!(
        gateway
            .failovers()
            .iter()
            .any(|f| matches!(f.cause, FailoverCause::Timeout)),
        "drops must be recorded as a Timeout failover: {:?}",
        gateway.failovers_by_cause()
    );
    assert!(gateway.retries() >= 1, "in-place retries fired first");
}

#[test]
fn transient_failures_do_not_ban_and_the_channel_survives_them() {
    // Single provider that drops everything for a step window, then
    // heals: the gateway must time out, come back once the breaker
    // lets it, and find the channel it had before — same id, payment
    // trail non-decreasing.
    let (mut net, mut gateway, targets, expected) =
        chaos_fixture(1, "heal", SelectionPolicy::Cheapest);
    let provider = net.registry()[0];
    let call = |t: usize| RpcCall::GetBalance {
        address: targets[t],
    };
    // Clean serve first, payment committed on the original channel.
    assert_eq!(
        gateway.call(&mut net, call(0)).expect("clean serve"),
        expected[0]
    );
    let channel_before = gateway.client().channel_with(&provider).expect("bonded").id;
    // Now wall the sole provider off (the step counter starts at the
    // plane's install). The window must outlast what one call budget
    // can burn through in retries, or the call simply rides it out.
    let mut fault = FaultConfig::default();
    fault.partitions.push(parp_suite::net::PartitionWindow {
        provider_indices: vec![0],
        from_step: 0,
        until_step: 24,
    });
    net.install_fault_plane(fault);
    // Inside the partition the sole provider times out; with nobody
    // else to fail over to, the call errs (classified, not hung).
    let during = gateway.call(&mut net, call(1));
    assert!(during.is_err(), "partitioned sole provider cannot serve");
    // Past the window the provider is *not* banned — once the breaker
    // cooldown elapses, service resumes over the same channel.
    let mut healed = None;
    for _ in 0..16 {
        net.advance_clock(200_000);
        if let Ok(bytes) = gateway.call(&mut net, call(2)) {
            healed = Some(bytes);
            break;
        }
    }
    let after = healed.expect("healed provider serves after the window");
    assert_eq!(after, expected[2]);
    let channel_after = gateway.client().channel_with(&provider).expect("bonded").id;
    assert_eq!(
        channel_after, channel_before,
        "a partition costs no channel"
    );
    assert!(gateway.banned().is_empty());
    assert!(gateway.payments_monotone());
    let trail = &gateway.payment_trajectories()[&provider];
    assert!(trail.len() >= 2);
    assert!(
        trail.windows(2).all(|w| w[0] <= w[1]),
        "trail must be non-decreasing: {trail:?}"
    );
}

/// How one leg of an exchange ended, whatever entry point carried it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LegEnd {
    Valid(ExchangeStats),
    /// Served and delivered, but the frame fails the §V-D signature check.
    Damaged(ExchangeStats),
    Crashed,
    TimedOut,
    /// The client refused to build the request.
    ClientRefused,
}

fn leg_end<T>(
    result: Result<(T, ExchangeStats), SimError>,
    verdict: impl Fn(&T) -> Option<bool>,
) -> LegEnd {
    match result {
        Ok((outcome, stats)) => match verdict(&outcome) {
            Some(true) => LegEnd::Valid(stats),
            Some(false) => LegEnd::Damaged(stats),
            None => panic!("fault-plane damage must read as a bad response signature"),
        },
        Err(SimError::Crashed(_)) => LegEnd::Crashed,
        Err(SimError::Timeout { .. }) => LegEnd::TimedOut,
        Err(SimError::Client(_)) => LegEnd::ClientRefused,
        Err(other) => panic!("unexpected leg error {other}"),
    }
}

fn single_verdict(outcome: &ProcessOutcome) -> Option<bool> {
    match outcome {
        ProcessOutcome::Valid { .. } => Some(true),
        ProcessOutcome::Invalid(InvalidReason::ResponseSignatureInvalid) => Some(false),
        _ => None,
    }
}

fn batch_verdict(outcome: &ProcessBatchOutcome) -> Option<bool> {
    match outcome {
        ProcessBatchOutcome::Valid { .. } => Some(true),
        ProcessBatchOutcome::Invalid(InvalidReason::ResponseSignatureInvalid) => Some(false),
        _ => None,
    }
}

/// The four ways into the one exchange pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    Call,
    BatchCall,
    Fanout(usize),
}

impl Entry {
    fn legs(self) -> usize {
        match self {
            Entry::Fanout(n) => n,
            _ => 1,
        }
    }

    /// RPC calls one leg pays for.
    fn calls(self) -> u64 {
        if self == Entry::BatchCall {
            2
        } else {
            1
        }
    }

    fn run(self, net: &mut Network, client: &mut LightClient, target: Address) -> Vec<LegEnd> {
        let call = RpcCall::GetBalance { address: target };
        match self {
            Entry::Call => vec![leg_end(
                net.parp_call(client, NodeId(0), call),
                single_verdict,
            )],
            Entry::BatchCall => vec![leg_end(
                net.parp_batch_call(client, NodeId(0), vec![call.clone(), call]),
                batch_verdict,
            )],
            Entry::Fanout(n) => {
                let legs: Vec<_> = (0..n).map(|i| (NodeId(i), call.clone())).collect();
                net.parp_call_fanout(client, &legs)
                    .into_iter()
                    .map(|result| leg_end(result, single_verdict))
                    .collect()
            }
        }
    }
}

/// What the table expects of every leg under one fault.
struct Expect {
    end: fn(&LegEnd) -> bool,
    /// Whether the client's ledger advanced by the leg's price.
    paid: bool,
    /// Whether the node served (`requests_served` counts the leg's
    /// calls) when the leg flew alone / as one of a fan-out: the only
    /// cell where the entry points differ, because a drop loses the
    /// *request* of a lone leg and the *response* of a concurrent one.
    served: (u64, u64),
    /// Simulated time the exchange advances the clock by, given the
    /// delivered leg's own latency.
    clock_us: fn(Option<ExchangeStats>) -> u64,
    failures: u64,
}

const DEADLINE_US: u64 = 25_000;
const PRICE: u64 = 10;

/// Every fault effect through every entry point: the returned variant,
/// the client's `spent` and pending entries, the node's
/// `requests_served`, the clock advance and the provider aggregate.
#[test]
fn every_fault_lands_the_same_way_on_every_entry_point() {
    let everyone = || vec![0, 1, 2];
    let always_delay = |added_us| FaultConfig {
        delay_ppm: 1_000_000,
        delay_base_us: added_us,
        delay_spike_us: added_us,
        ..FaultConfig::default()
    };
    let flown = |stats: Option<ExchangeStats>| stats.expect("delivered").latency_us();
    let deadline = |_| DEADLINE_US;
    let table: Vec<(&str, FaultConfig, Expect)> = vec![
        (
            "none",
            FaultConfig::default(),
            Expect {
                end: |end| matches!(end, LegEnd::Valid(_)),
                paid: true,
                served: (1, 1),
                clock_us: flown,
                failures: 0,
            },
        ),
        (
            "crashed",
            FaultConfig {
                crashes: everyone()
                    .into_iter()
                    .map(|provider_index| CrashWindow {
                        provider_index,
                        from_step: 0,
                        until_step: 1_000,
                    })
                    .collect(),
                ..FaultConfig::default()
            },
            Expect {
                end: |end| *end == LegEnd::Crashed,
                paid: false,
                served: (0, 0),
                // Connection refused: one one-way hop of a 64-byte frame
                // on the default 1 ms / 12.5 B/µs link.
                clock_us: |_| 1_005,
                failures: 1,
            },
        ),
        (
            "partitioned",
            FaultConfig {
                partitions: vec![PartitionWindow {
                    provider_indices: everyone(),
                    from_step: 0,
                    until_step: 1_000,
                }],
                ..FaultConfig::default()
            },
            Expect {
                end: |end| *end == LegEnd::TimedOut,
                paid: false,
                served: (0, 0),
                clock_us: deadline,
                failures: 1,
            },
        ),
        (
            "drop",
            FaultConfig {
                drop_ppm: 1_000_000,
                ..FaultConfig::default()
            },
            Expect {
                end: |end| *end == LegEnd::TimedOut,
                paid: false,
                served: (0, 1),
                clock_us: deadline,
                failures: 1,
            },
        ),
        (
            "corrupt",
            FaultConfig {
                corrupt_ppm: 1_000_000,
                ..FaultConfig::default()
            },
            Expect {
                end: |end| matches!(end, LegEnd::Damaged(_)),
                // The node holds σ_a: counted spent defensively.
                paid: true,
                served: (1, 1),
                clock_us: flown,
                failures: 1,
            },
        ),
        (
            "delay within the deadline",
            always_delay(2_000),
            Expect {
                end: |end| matches!(end, LegEnd::Valid(stats) if stats.network_us > 2_000),
                paid: true,
                served: (1, 1),
                clock_us: flown,
                failures: 0,
            },
        ),
        (
            "delay past the deadline",
            always_delay(40_000),
            Expect {
                end: |end| *end == LegEnd::TimedOut,
                paid: false,
                served: (1, 1),
                clock_us: deadline,
                failures: 1,
            },
        ),
    ];
    for (fault_name, fault, expect) in &table {
        for entry in [
            Entry::Call,
            Entry::BatchCall,
            Entry::Fanout(1),
            Entry::Fanout(3),
        ] {
            let case = format!("{fault_name} via {entry:?}");
            let mut net = Network::new();
            net.set_call_deadline_us(DEADLINE_US);
            let mut client = net.spawn_client(b"fault-table-client", U256::from(PRICE));
            for i in 0..3 {
                let node = net.spawn_node(format!("fault-table-{i}").as_bytes(), U256::from(PRICE));
                net.connect(&mut client, node, U256::from(100_000u64))
                    .expect("channel opens");
            }
            net.install_fault_plane(fault.clone());
            let before_us = net.now_us();
            let ends = entry.run(&mut net, &mut client, Address::from_low_u64_be(7));
            assert_eq!(ends.len(), entry.legs(), "{case}");
            let mut slowest_us = 0;
            for (i, end) in ends.iter().enumerate() {
                assert!((expect.end)(end), "{case}: leg {i} ended {end:?}");
                let stats = match end {
                    LegEnd::Valid(stats) | LegEnd::Damaged(stats) => Some(*stats),
                    _ => None,
                };
                slowest_us = slowest_us.max((expect.clock_us)(stats));
                let node = net.node(NodeId(i));
                let provider = node.address();
                let served = match entry {
                    Entry::Fanout(_) => expect.served.1,
                    _ => expect.served.0,
                };
                let served = served * entry.calls();
                assert_eq!(node.requests_served(), served, "{case}: leg {i} served");
                let paid = if expect.paid {
                    PRICE * entry.calls()
                } else {
                    0
                };
                let channel = client.channel_with(&provider).expect("bonded");
                assert_eq!(channel.spent, U256::from(paid), "{case}: leg {i} spent");
                assert_eq!(client.pending_with(&provider), 0, "{case}: leg {i} pending");
                let aggregate = net.provider_stats(&provider);
                assert_eq!(aggregate.calls(), 1, "{case}: leg {i} calls");
                assert_eq!(aggregate.failures(), expect.failures, "{case}: leg {i}");
            }
            // Concurrent legs share one window: the slowest, not the sum.
            assert_eq!(net.now_us() - before_us, slowest_us, "{case}: clock");
        }
    }
}

/// A request the client refuses to build scores nothing against the
/// provider and burns no time, on every entry point (the fan-out used to
/// count it as a call and a failure).
#[test]
fn a_client_refusal_scores_nothing_on_any_entry_point() {
    for entry in [
        Entry::Call,
        Entry::BatchCall,
        Entry::Fanout(1),
        Entry::Fanout(3),
    ] {
        let mut net = Network::new();
        let mut client = net.spawn_client(b"refusal-client", U256::from(PRICE));
        for i in 0..3 {
            net.spawn_node(format!("refusal-{i}").as_bytes(), U256::from(PRICE));
        }
        // Synced but never connected: `request_from` refuses (not bonded).
        net.sync_client(&mut client);
        let before_us = net.now_us();
        let ends = entry.run(&mut net, &mut client, Address::from_low_u64_be(7));
        assert_eq!(ends, vec![LegEnd::ClientRefused; entry.legs()], "{entry:?}");
        assert_eq!(net.now_us(), before_us, "{entry:?}: no time burned");
        assert!(
            net.provider_stats_all().is_empty(),
            "{entry:?}: nothing scored"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random fault schedule: no accepted wrong payloads, no
    /// unclassified outcomes, and same-seed replay is byte-identical
    /// (metrics snapshot JSON + payment trajectories + final clock).
    #[test]
    fn any_fault_schedule_is_safe_and_replayable(
        seed in any::<u64>(),
        drop_ppm in 0u32..300_000,
        corrupt_ppm in 0u32..150_000,
        delay_ppm in 0u32..300_000,
        crash in any::<bool>(),
        partition in any::<bool>(),
        bursts in any::<bool>(),
    ) {
        let config = ChaosConfig {
            seed,
            providers: 4,
            calls: 12,
            quorum_every: 4,
            drop_ppm,
            corrupt_ppm,
            delay_ppm,
            crash,
            partition,
            corruption_bursts: bursts,
            ..ChaosConfig::default()
        };
        let a = run_chaos(&config);
        prop_assert_eq!(a.wrong_payloads, 0, "no wrong payload under any schedule");
        prop_assert_eq!(a.unclassified, 0, "every outcome classified");
        let refused = a.failovers_by_cause.iter().find(|(cause, _)| *cause == "refused");
        prop_assert_eq!(refused, Some(&("refused", 0)), "an honest provider is never refused");
        prop_assert_eq!(
            a.served + a.degraded + a.errored,
            a.issued,
            "no call may hang or vanish"
        );
        let b = run_chaos(&config);
        prop_assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        prop_assert_eq!(a.payment_digest, b.payment_digest);
        prop_assert_eq!(a.clock_us, b.clock_us);
        prop_assert_eq!(a.steps, b.steps);
    }
}
