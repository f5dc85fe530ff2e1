//! Randomized end-to-end property tests: arbitrary interleavings of
//! reads, writes and misbehavior, checking the protocol's global
//! invariants after every step.
//!
//! Invariants checked:
//! 1. Honest service is always classified Valid.
//! 2. The client's committed spend never exceeds the channel budget and
//!    never decreases.
//! 3. Slashable misbehavior always produces acceptable fraud evidence;
//!    after slashing, the offender's deposit is zero.
//! 4. Total supply is conserved throughout.

use parp_suite::contracts::RpcCall;
use parp_suite::core::{Misbehavior, ProcessOutcome};
use parp_suite::net::Network;
use parp_suite::primitives::{Address, U256};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Step {
    Read(u64),
    Write(u64),
    Probe,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            any::<u64>().prop_map(Step::Read),
            (1u64..1000).prop_map(Step::Write),
            Just(Step::Probe),
        ],
        1..10,
    )
}

fn total_supply(net: &Network) -> U256 {
    net.chain()
        .state()
        .iter()
        .fold(U256::ZERO, |acc, (_, account)| acc + account.balance)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn honest_runs_preserve_all_invariants(steps in arb_steps(), seed in any::<u16>()) {
        let mut net = Network::new();
        let node = net.spawn_node(format!("pe2e-node-{seed}").as_bytes(), U256::from(10u64));
        let mut client =
            net.spawn_client(format!("pe2e-client-{seed}").as_bytes(), U256::from(10u64));
        let supply = total_supply(&net);
        let budget = U256::from(1_000_000u64);
        net.connect(&mut client, node, budget).unwrap();
        let provider = net.node(node).address();
        let sender = parp_suite::crypto::SecretKey::from_seed(
            format!("pe2e-sender-{seed}").as_bytes(),
        );
        net.fund(sender.address());
        net.sync_client(&mut client);
        let mut nonce = 0u64;
        let mut last_spent = U256::ZERO;
        for step in steps {
            let call = match step {
                Step::Read(addr) => RpcCall::GetBalance {
                    address: Address::from_low_u64_be(addr),
                },
                Step::Write(value) => {
                    let tx = parp_suite::chain::Transaction {
                        nonce,
                        gas_price: U256::ZERO,
                        gas_limit: 21_000,
                        to: Some(Address::from_low_u64_be(0x9999)),
                        value: U256::from(value),
                        data: Vec::new(),
                    }
                    .sign(&sender);
                    nonce += 1;
                    RpcCall::SendRawTransaction { raw: tx.encode() }
                }
                Step::Probe => {
                    let id = client.channel_with(&provider).unwrap().id;
                    RpcCall::GetChannelStatus { channel_id: id }
                }
            };
            let (outcome, _) = net.parp_call(&mut client, node, call).unwrap();
            // Invariant 1: honest service verifies.
            let is_valid = matches!(outcome, ProcessOutcome::Valid { .. });
            prop_assert!(is_valid, "expected valid outcome, got {:?}", outcome);
            // Invariant 2: spend is monotone and bounded.
            let spent = client.channel_with(&provider).unwrap().spent;
            prop_assert!(spent >= last_spent);
            prop_assert!(spent <= budget);
            last_spent = spent;
            // Invariant 4: conservation.
            prop_assert_eq!(total_supply(&net), supply);
        }
        // Settlement also conserves.
        net.close_cooperatively(&mut client, node).unwrap();
        prop_assert_eq!(total_supply(&net), supply);
    }

    #[test]
    fn random_slashable_misbehavior_is_always_punished(
        honest_prefix in 0usize..4,
        which in 0usize..5,
        seed in any::<u16>(),
    ) {
        let slashable: Vec<Misbehavior> = Misbehavior::all()
            .into_iter()
            .filter(Misbehavior::slashable)
            .collect();
        let misbehavior = slashable[which % slashable.len()];
        let mut net = Network::new();
        let node = net.spawn_node(format!("pm-node-{seed}").as_bytes(), U256::from(10u64));
        let witness = net.spawn_node(format!("pm-witness-{seed}").as_bytes(), U256::from(10u64));
        let mut client =
            net.spawn_client(format!("pm-client-{seed}").as_bytes(), U256::from(10u64));
        net.connect(&mut client, node, U256::from(100_000u64)).unwrap();
        let supply = total_supply(&net);
        let me = client.address();
        for _ in 0..honest_prefix {
            let (outcome, _) = net
                .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
                .unwrap();
            let is_valid = matches!(outcome, ProcessOutcome::Valid { .. });
            prop_assert!(is_valid, "expected valid outcome, got {:?}", outcome);
        }
        net.node_mut(node).set_misbehavior(misbehavior);
        let (outcome, _) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
            .unwrap();
        // Invariant 3: provable, accepted, punished.
        let ProcessOutcome::Fraud(evidence) = outcome else {
            return Err(TestCaseError::fail(format!(
                "{misbehavior:?} after {honest_prefix} honest calls: expected fraud, got {outcome:?}"
            )));
        };
        prop_assert!(net.report_fraud(&evidence, witness).unwrap());
        prop_assert_eq!(
            net.executor().fndm().deposit_of(&net.node(node).address()),
            U256::ZERO
        );
        prop_assert_eq!(total_supply(&net), supply);
    }
}
