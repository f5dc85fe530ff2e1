//! Cold reads, once per exchange: a 64-item transaction + receipt
//! batch over pruned blocks reads each referenced block's archived
//! header once, reads no receipts record for an item whose trie page
//! is in either tier, and answers with the bytes an all-resident twin
//! answers with.

use parp_suite::chain::MIN_HISTORY_WINDOW;
use parp_suite::contracts::{ParpBatchResponse, RpcCall};
use parp_suite::core::{LightClient, ProcessBatchOutcome};
use parp_suite::net::{LatencyModel, Network, NodeId};
use parp_suite::primitives::{Address, U256};
use parp_suite::runtime::{Runtime, RuntimeConfig};
use parp_suite::store::ReadCounts;
use std::collections::BTreeSet;

/// Blocks that carry one transfer each; all of them end up pruned.
const TARGET_BLOCKS: u64 = 32;
/// Warm-tier budget: a few of the 64 pages stay resident, the rest
/// spill.
const BUDGET_BYTES: usize = 4 * 1024;

struct World {
    net: Network,
    node: NodeId,
    client: LightClient,
}

/// The same seeded history, with the storage tier on (`cold`) or with
/// everything resident.
fn world(cold: bool) -> World {
    let mut net = Network::with_latency(LatencyModel::zero());
    net.set_runtime(Runtime::new(RuntimeConfig::default()));
    if cold {
        net.enable_deep_history(0, BUDGET_BYTES)
            .expect("storage tier opens");
    }
    let price = U256::from(10u64);
    let node = net.spawn_node(b"cold-reads-node", price);
    let mut client = net.spawn_client(b"cold-reads-client", price);
    net.connect(&mut client, node, U256::from(1u64) << 60)
        .expect("connect");
    for i in 0..TARGET_BLOCKS {
        net.fund(Address::from_low_u64_be(0xC01D_0000 + i));
    }
    net.advance_blocks(MIN_HISTORY_WINDOW + 8)
        .expect("empty blocks");
    net.sync_client(&mut client);
    World { net, node, client }
}

impl World {
    /// Serves `calls` as one batch and has the client accept it.
    fn exchange(&mut self, calls: &[RpcCall]) -> ParpBatchResponse {
        let provider = self.net.node(self.node).address();
        let request = self
            .client
            .request_batch_from(provider, calls.to_vec())
            .expect("request");
        let response = self.net.serve_batch(self.node, &request).expect("serve");
        let outcome = self
            .client
            .process_batch_response_from(provider, &response)
            .expect("process");
        assert!(
            matches!(outcome, ProcessBatchOutcome::Valid { .. }),
            "the client rejected an honest batch: {outcome:?}"
        );
        response
    }

    fn reads(&self) -> ReadCounts {
        self.net.chain().history_read_counts()
    }

    /// `(hits, misses, spills, rehydrates)` of the warm tier.
    fn tier(&self) -> (u64, u64, u64, u64) {
        let tier = self.net.runtime().cold_storage().expect("tier on").tier();
        (
            tier.hits(),
            tier.misses(),
            tier.spill_count(),
            tier.rehydrate_count(),
        )
    }
}

#[test]
fn a_cold_batch_reads_each_record_once_and_matches_the_resident_twin() {
    let mut cold = world(true);
    let mut resident = world(false);

    // One (transaction, receipt) pair per pruned transfer block, the
    // last `TARGET_BLOCKS` transfers mined: 64 items, 32 blocks.
    let targets: Vec<_> = cold
        .net
        .transaction_locations()
        .into_iter()
        .rev()
        .take(TARGET_BLOCKS as usize)
        .collect();
    assert_eq!(targets.len() as u64, TARGET_BLOCKS);
    let base = cold.net.chain().resident_base();
    assert!(targets.iter().all(|(_, block)| *block < base), "all pruned");
    let calls: Vec<RpcCall> = targets
        .iter()
        .flat_map(|(hash, _)| {
            [
                RpcCall::GetTransactionByHash { hash: *hash },
                RpcCall::GetTransactionReceipt { hash: *hash },
            ]
        })
        .collect();
    assert_eq!(calls.len(), 64);
    assert_eq!(resident.reads(), ReadCounts::default(), "no store to read");
    // Pages are addressed by trie root: every block has its own
    // transaction trie, but blocks whose receipts are equal (one plain
    // transfer each) share one receipts page.
    let receipt_pages = targets
        .iter()
        .map(|(_, block)| {
            resident
                .net
                .chain()
                .header_at(*block)
                .unwrap()
                .receipts_root
        })
        .collect::<BTreeSet<_>>()
        .len() as u64;

    // First batch: neither tier holds a page, so a body record is read
    // once per page to build it — and each block's header once, for
    // the proof roots and the carried header set alike (the head is
    // resident). An item whose page an earlier item built reads
    // nothing.
    let before = cold.reads();
    let first = cold.exchange(&calls);
    assert_eq!(first.encode(), resident.exchange(&calls).encode());
    assert_eq!(first.headers.len() as u64, TARGET_BLOCKS + 1);
    let after = cold.reads();
    assert_eq!(after.headers - before.headers, TARGET_BLOCKS);
    assert_eq!(after.transactions - before.transactions, TARGET_BLOCKS);
    assert_eq!(after.receipts - before.receipts, receipt_pages);
    let pages = TARGET_BLOCKS + receipt_pages;
    let (hits, misses, _, rehydrates) = cold.tier();
    assert_eq!((hits, misses, rehydrates), (64 - pages, pages, 0));
    // The tier's counters are the ones the commit before this test
    // recorded for the same two batches (the tier is asked for the
    // same roots in the same order as it was then).
    assert_eq!(cold.tier(), (31, 33, 21, 0));

    // Second batch, same items: every page is warm or spilled (half
    // of the 64 lookups rehydrate one). A header is still read once
    // per block, and no body record is read at all — each receipt
    // comes off the page its proof is cut from.
    let before = after;
    let second = cold.exchange(&calls);
    assert_eq!(second.encode(), resident.exchange(&calls).encode());
    assert_eq!(second.results, first.results);
    assert_eq!(second.item_proofs, first.item_proofs);
    let after = cold.reads();
    assert_eq!(after.headers - before.headers, TARGET_BLOCKS);
    assert_eq!(after.transactions, before.transactions);
    assert_eq!(after.receipts, before.receipts);
    assert_eq!(cold.tier(), (63, 33, 32, 32), "nothing rebuilt");
}
