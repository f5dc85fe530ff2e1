//! End-to-end tests for the `parp-runtime` serving engine: byte
//! identity with the bare full node, head-trie cache behaviour across
//! blocks, LRU bounds, and fairness under a flooding client.

use parp_suite::contracts::{ParpBatchRequest, ParpBatchResponse, RpcCall};
use parp_suite::net::{run_contention, ContentionConfig, Network, NodeId};
use parp_suite::primitives::{Address, U256};
use parp_suite::runtime::{Runtime, RuntimeConfig, TrieCache};

const PRICE: u64 = 10;

/// A connected network with `accounts` bulk-funded addresses.
fn connected(accounts: u64) -> (Network, NodeId, parp_suite::core::LightClient, Vec<Address>) {
    let mut net = Network::new();
    let node = net.spawn_node(b"runtime-node", U256::from(PRICE));
    let mut client = net.spawn_client(b"runtime-client", U256::from(PRICE));
    net.connect(&mut client, node, U256::from(1_000_000u64))
        .expect("connect");
    let addresses: Vec<Address> = (0..accounts)
        .map(|i| Address::from_low_u64_be(0xD000 + i))
        .collect();
    net.fund_many(&addresses);
    net.sync_client(&mut client);
    (net, node, client, addresses)
}

/// The two proof engines a batch can be served through: the network's
/// `Runtime`, and the bare `FullNode` with its built-in
/// `SequentialEngine` (on copies of the node, chain and executor — the
/// network lends them out only together with its runtime).
#[derive(Debug, Clone, Copy)]
enum Engine {
    Runtime,
    Sequential,
}

impl Engine {
    fn serve(
        self,
        net: &mut Network,
        node: NodeId,
        request: &ParpBatchRequest,
    ) -> ParpBatchResponse {
        match self {
            Engine::Runtime => net.serve_batch(node, request).expect("serve"),
            Engine::Sequential => {
                let (mut chain, mut executor) = (net.chain().clone(), net.executor().clone());
                let mut bare = net.node(node).clone();
                bare.handle_batch(request, &mut chain, &mut executor)
                    .expect("serve")
            }
        }
    }
}

#[test]
fn batch_responses_are_byte_identical_across_engines() {
    // The same seeded network served through the runtime and through
    // the bare full node must sign the exact same bytes for the same
    // batch: an engine decides where the trie comes from, never what
    // goes on the wire.
    let mut encodings = Vec::new();
    for engine in [Engine::Runtime, Engine::Sequential] {
        let (mut net, node, mut client, addresses) = connected(24);
        let provider = net.node(node).address();
        let calls: Vec<RpcCall> = addresses
            .iter()
            .map(|a| RpcCall::GetBalance { address: *a })
            .chain(
                addresses
                    .iter()
                    .map(|a| RpcCall::GetTransactionCount { address: *a }),
            )
            .chain([RpcCall::BlockNumber])
            .collect();
        let request = client
            .request_batch_from(provider, calls)
            .expect("batch request");
        let response = engine.serve(&mut net, node, &request);
        encodings.push((engine, request.encode(), response.encode()));
    }
    let (_, ref request_reference, ref response_reference) = encodings[0];
    for (engine, request, response) in &encodings {
        assert_eq!(request, request_reference, "fixture drift under {engine:?}");
        assert_eq!(
            response, response_reference,
            "response bytes diverged under {engine:?}"
        );
    }
}

#[test]
fn skewed_batch_byte_identical_and_passes_fraud_conditions() {
    // A Zipf-flavoured batch — most calls hammer a few hot accounts,
    // two ask for accounts that do not exist — served off the
    // arena-frozen trie through either engine must sign the same bytes.
    // And the honest arena-served response must pass the on-chain fraud
    // conditions: a framing attempt against it reverts, so the zero-copy
    // serving path interoperates with the accountability machinery
    // unchanged.
    let mut encodings = Vec::new();
    for engine in [Engine::Runtime, Engine::Sequential] {
        let (mut net, node, mut client, addresses) = connected(16);
        let provider = net.node(node).address();
        let witness = net.spawn_node(b"runtime-witness", U256::from(PRICE));
        let calls: Vec<RpcCall> = (0..96usize)
            .map(|i| {
                // ~70% of calls hit 3 hot accounts; the rest spread out,
                // and calls 33 and 66 name accounts nobody funded.
                let address = if i % 33 == 0 && i > 0 {
                    Address::from_low_u64_be(0xDEAD00 + i as u64)
                } else if i % 10 < 7 {
                    addresses[i % 3]
                } else {
                    addresses[(i * 7) % addresses.len()]
                };
                RpcCall::GetBalance { address }
            })
            .collect();
        let request = client
            .request_batch_from(provider, calls)
            .expect("batch request");
        let response = engine.serve(&mut net, node, &request);
        net.sync_client(&mut client);
        let outcome = client
            .process_batch_response_from(provider, &response)
            .expect("process");
        assert!(
            matches!(outcome, parp_suite::core::ProcessBatchOutcome::Valid { .. }),
            "arena-served skewed batch must classify Valid under {engine:?}"
        );
        // Framing the honest batch must find no fraud condition.
        let header = client
            .header(response.block_number)
            .expect("header")
            .clone();
        let evidence = parp_suite::core::BatchFraudEvidence {
            request: request.clone(),
            response: response.clone(),
            headers: vec![header],
            verdict: parp_suite::contracts::FraudVerdict::InvalidProof,
            item: Some(0),
        };
        let offender = net.node(node).address();
        let deposit_before = net.executor().fndm().deposit_of(&offender);
        assert!(
            !net.report_batch_fraud(&evidence, witness).expect("relay"),
            "framing an arena-served honest batch must revert under {engine:?}"
        );
        assert_eq!(net.executor().fndm().deposit_of(&offender), deposit_before);
        encodings.push((engine, request.encode(), response.encode()));
    }
    let (_, ref request_reference, ref response_reference) = encodings[0];
    for (engine, request, response) in &encodings {
        assert_eq!(request, request_reference, "fixture drift under {engine:?}");
        assert_eq!(
            response, response_reference,
            "skewed-batch response bytes diverged under {engine:?}"
        );
    }
}

#[test]
fn snapshot_cache_warms_and_invalidates_across_mine() {
    let (mut net, node, mut client, addresses) = connected(8);
    let provider = net.node(node).address();
    let calls: Vec<RpcCall> = addresses
        .iter()
        .map(|a| RpcCall::GetBalance { address: *a })
        .collect();
    // First serve at this head: the trie was already warmed by the mine
    // hook, so serving hits the cache.
    let head_root = net.chain().head().header.state_root;
    assert!(net.runtime().cache().contains(&head_root));
    let hits_before = net.runtime().cache().hits();
    let request = client
        .request_batch_from(provider, calls.clone())
        .expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    assert!(net.runtime().cache().hits() > hits_before);
    assert_eq!(response.block_number, net.chain().height());
    // Accept the response so the next request's payment advances.
    net.sync_client(&mut client);
    client
        .process_batch_response_from(provider, &response)
        .expect("process");

    // Mining moves the head: the cache must pick up the new root and
    // the next batch must be served (and proven) at the new height, not
    // from a stale cached trie.
    net.fund(Address::from_low_u64_be(0xFEED));
    net.sync_client(&mut client);
    let new_root = net.chain().head().header.state_root;
    assert_ne!(new_root, head_root);
    assert!(
        net.runtime().cache().contains(&new_root),
        "mine() must warm the new head"
    );
    let request = client.request_batch_from(provider, calls).expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    assert_eq!(response.block_number, net.chain().height());
    let header = net
        .chain()
        .block(response.block_number)
        .expect("head block")
        .header
        .clone();
    let keys: Vec<Vec<u8>> = addresses
        .iter()
        .map(|a| {
            parp_suite::crypto::keccak256(a.as_bytes())
                .as_bytes()
                .to_vec()
        })
        .collect();
    let proven = parp_suite::trie::verify_many(header.state_root, &keys, &response.multiproof)
        .expect("multiproof verifies against the NEW root");
    assert!(proven.iter().all(Option::is_some));
}

#[test]
fn snapshot_cache_lru_stays_bounded() {
    let (net, _, _, _) = connected(4);
    let heights: Vec<u64> = (0..=net.chain().height()).collect();
    assert!(
        heights.len() > 2,
        "need more snapshots than the budget holds"
    );
    let snapshots: Vec<_> = heights
        .iter()
        .map(|height| net.chain().state_at(*height).expect("snapshot"))
        .collect();
    // A byte budget the two newest snapshot tries fill exactly.
    let newest_two = &snapshots[snapshots.len() - 2..];
    assert_ne!(newest_two[0].state_root(), newest_two[1].state_root());
    let budget: usize = newest_two
        .iter()
        .map(|state| state.shared_trie().mem_bytes())
        .sum();
    let mut cache = TrieCache::new(budget, None);
    for state in &snapshots {
        cache.get_or_build(state);
        assert!(
            cache.resident_bytes() <= budget,
            "cache exceeded its budget"
        );
    }
    assert_eq!(cache.len(), 2);
    // Only the two most recent snapshot roots survive.
    let last = net.chain().head().header.state_root;
    assert!(cache.contains(&last));
    let first = net.chain().block(0).expect("genesis").header.state_root;
    assert!(!cache.contains(&first), "oldest snapshot evicted");
}

#[test]
fn flooding_client_is_bounded_and_honest_share_preserved() {
    let config = ContentionConfig::default();
    let contended = run_contention(&config);
    let baseline = run_contention(&ContentionConfig {
        flood_rate_per_sec: 0,
        ..config
    });

    // The flooder attempted far beyond its entitlement and was bounded
    // to its token bucket: burst + rate × duration.
    let bound = config.admission_burst + config.admission_rate_per_sec * config.duration_ms / 1_000;
    assert!(
        contended.flooder.attempted_calls > 4 * bound,
        "flooder must actually flood (attempted {})",
        contended.flooder.attempted_calls
    );
    assert!(
        contended.flooder.admitted_calls <= bound,
        "flooder admitted {} calls, bucket allows at most {bound}",
        contended.flooder.admitted_calls
    );
    assert!(contended.flooder.throttled_calls > 0);

    // Honest clients keep their full fair share: nothing throttled,
    // every admitted batch served, same served volume as the
    // uncontended baseline.
    for outcome in &contended.honest {
        assert_eq!(outcome.throttled_calls, 0, "honest client throttled");
        assert_eq!(
            outcome.served_batches * config.batch_size as u64,
            outcome.admitted_calls,
            "admitted but unserved honest calls"
        );
    }
    assert_eq!(
        contended.honest_served_calls(config.batch_size),
        baseline.honest_served_calls(config.batch_size),
        "flooding reduced honest throughput"
    );

    // And their latency stays within 2x of the uncontended case.
    let contended_latency = contended.honest_mean_latency_us().max(1);
    let baseline_latency = baseline.honest_mean_latency_us().max(1);
    assert!(
        contended_latency <= 2 * baseline_latency,
        "honest latency {contended_latency} µs exceeds 2x uncontended {baseline_latency} µs"
    );
}

#[test]
fn admission_is_per_client_not_global() {
    // Two clients exhausting one bucket each: the second client's calls
    // are admitted even when the first is throttled.
    let mut runtime = Runtime::new(RuntimeConfig {
        burst_capacity: 4,
        rate_per_sec: 1,
    });
    let first = Address::from_low_u64_be(1);
    let second = Address::from_low_u64_be(2);
    assert!(runtime.admit(first, 4, 0).is_ok());
    assert!(runtime.admit(first, 1, 0).is_err());
    assert!(runtime.admit(second, 4, 0).is_ok());
    assert_eq!(runtime.admission_stats(&first).throttled, 1);
    assert_eq!(runtime.admission_stats(&second).throttled, 0);
}

#[test]
fn inclusion_trie_cache_reuses_per_block_tries() {
    // Batched historical lookups against the same block must build its
    // transaction/receipt tries once and serve every later proof from
    // the cache — with bytes identical to the uncached chain path.
    let (mut net, node, mut client, _) = connected(4);
    let provider = net.node(node).address();
    net.advance_blocks(1).expect("empty block");
    net.sync_client(&mut client);
    // Pick a historical faucet transfer.
    let (tx_hash, tx_block) = *net
        .transaction_locations()
        .last()
        .expect("mined transactions");
    assert!(tx_block < net.chain().height());

    assert!(net.runtime().inclusion_cache().is_empty());
    let calls = vec![
        RpcCall::GetTransactionByHash { hash: tx_hash },
        RpcCall::GetTransactionReceipt { hash: tx_hash },
    ];
    let request = client
        .request_batch_from(provider, calls.clone())
        .expect("request");
    let response = net.serve_batch(node, &request).expect("serve");
    // Two tries built (tx + receipt), both now cached.
    assert_eq!(net.runtime().inclusion_cache().misses(), 2);
    assert_eq!(net.runtime().inclusion_cache().len(), 2);

    // The cached proofs are byte-identical to the uncached chain path.
    let (_, tx_index) = net.chain().transaction_location(&tx_hash).expect("located");
    let expected_tx_proof = net
        .chain()
        .transaction_proof(tx_block, tx_index)
        .expect("tx proof");
    assert_eq!(response.item_proofs[0], expected_tx_proof);
    let expected_receipt_proof = net
        .chain()
        .receipt_proof(tx_block, tx_index)
        .expect("receipt proof");
    assert_eq!(response.item_proofs[1], expected_receipt_proof);

    // A second batch over the same block is served from the cache.
    net.sync_client(&mut client);
    client
        .process_batch_response_from(provider, &response)
        .expect("process");
    let request = client.request_batch_from(provider, calls).expect("request");
    let again = net.serve_batch(node, &request).expect("serve");
    assert_eq!(net.runtime().inclusion_cache().misses(), 2, "no rebuild");
    assert!(net.runtime().inclusion_cache().hits() >= 2);
    assert_eq!(again.item_proofs, response.item_proofs);
}

mod fair_queue_churn {
    use parp_suite::primitives::Address;
    use parp_suite::runtime::FairQueue;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::collections::VecDeque;

    fn client(n: u64) -> Address {
        Address::from_low_u64_be(n + 1)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn fairness_invariants_under_join_drain_churn(
            ops in proptest::collection::vec((0u64..3, 0u64..6), 1..120)
        ) {
            let mut queue: FairQueue<u64> = FairQueue::new();
            // Reference model: per-client FIFO queues.
            let mut model: HashMap<Address, VecDeque<u64>> = HashMap::new();
            let mut ticket = 0u64;
            for (op, who) in ops {
                match op {
                    // Two pushes for every pop on average keeps backlog.
                    0 | 1 => {
                        queue.push(client(who), ticket);
                        model.entry(client(who)).or_default().push_back(ticket);
                        ticket += 1;
                    }
                    _ => {
                        match queue.pop() {
                            None => prop_assert!(model.values().all(VecDeque::is_empty)),
                            Some((served, item)) => {
                                let backlog = model.get_mut(&served).expect("known client");
                                // Per-client FIFO order.
                                prop_assert_eq!(backlog.pop_front(), Some(item));
                            }
                        }
                    }
                }
                // Invariants after every operation:
                let live = model.values().filter(|q| !q.is_empty()).count();
                // 1. Drained clients do not linger in the rotation —
                //    memory is bounded by clients *with backlog*, not by
                //    clients ever seen (the leak this fixes).
                prop_assert_eq!(queue.active_clients(), live);
                let total: usize = model.values().map(VecDeque::len).sum();
                prop_assert_eq!(queue.len(), total);
                for (address, backlog) in &model {
                    prop_assert_eq!(queue.backlog(address), backlog.len());
                }
            }
            // 2. Round-robin fairness at drain time: with k clients
            //    holding backlog, the next k pops serve k distinct
            //    clients — no client waits more than one full rotation.
            let live = queue.active_clients();
            let mut first_round = Vec::new();
            for _ in 0..live {
                first_round.push(queue.pop().expect("backlog remains").0);
            }
            let distinct: std::collections::HashSet<_> = first_round.iter().collect();
            prop_assert_eq!(distinct.len(), live, "one service per client per round");
            // Drain fully: every queued item comes out.
            while queue.pop().is_some() {}
            prop_assert!(queue.is_empty());
            prop_assert_eq!(queue.active_clients(), 0);
        }
    }

    #[test]
    fn one_shot_client_churn_does_not_accumulate() {
        // Regression for the unbounded-growth bug: 10k one-shot clients
        // pushing one item each and draining immediately must leave no
        // trace in the rotation (the old implementation kept one empty
        // queue per client forever, degrading every pop to an
        // O(total-clients) scan).
        let mut queue: FairQueue<u64> = FairQueue::new();
        for i in 0..10_000u64 {
            queue.push(client(i), i);
            assert_eq!(queue.active_clients(), 1);
            let (served, item) = queue.pop().expect("just pushed");
            assert_eq!(served, client(i));
            assert_eq!(item, i);
            assert_eq!(queue.active_clients(), 0, "drained client lingered");
        }
        assert!(queue.is_empty());
    }

    #[test]
    fn rejoining_client_goes_to_the_rotation_tail() {
        // A client that drains and rejoins must not cut the line: the
        // clients already holding backlog are each served once first.
        let mut queue: FairQueue<u64> = FairQueue::new();
        queue.push(client(0), 0);
        queue.push(client(1), 1);
        queue.push(client(1), 2);
        queue.push(client(2), 3);
        // Serve client 0 fully; it leaves the rotation.
        let (served, _) = queue.pop().expect("backlog");
        assert_eq!(served, client(0));
        // It rejoins behind clients 1 and 2.
        queue.push(client(0), 4);
        let order: Vec<Address> = std::iter::from_fn(|| queue.pop().map(|(c, _)| c)).collect();
        assert_eq!(
            order,
            vec![client(1), client(2), client(0), client(1)],
            "rejoined client served after the standing rotation"
        );
    }
}
