//! The memory-footprint bench: what a serving node's memory is made of,
//! and that it does not grow with the length of the chain.
//!
//! A network with one node, one client and 10,000 funded accounts mines
//! 500 one-transfer blocks through [`Network::mine`] (so the runtime's
//! `note_new_head` runs per block, as it does when serving), the client
//! following the head and reading a balance every block. At blocks 0,
//! 100 and 500 past set-up it prints, per component, the bytes each
//! `mem_bytes()` attributes — head accounts, undo records, blocks and
//! receipts, indices, the head trie (its live bytes and, apart, the
//! superseded encodings its derivations left in shared pages), whatever
//! the runtime's state cache holds beyond it, the inclusion cache,
//! client, node — their sum, the
//! process's `VmRSS` growth since start, and the remainder nobody
//! claimed (allocator slack, the executor's module state, crypto tables).
//!
//! Hard asserts — at every sample, the runtime's state cache holds the
//! head trie and under 1 KiB besides — and over blocks 100–500:
//!
//! * [`Blockchain::mem_bytes`], less the head trie's superseded bytes,
//!   grows by at most 16 KiB a block, and by the same amount (±10 %) on
//!   a 1,000-account chain — a block keeps what it changed, not a
//!   function of how many accounts exist. The superseded bytes are left
//!   out because they do not grow with the chain: they rise with every
//!   block and drop to zero whenever a derive compacts the arena, which
//!   happens at different blocks on the two chains;
//! * `VmRSS` grows by at most 8 MiB (where `/proc` says; skipped
//!   elsewhere). A block's head trie shares all but a few 3–4 KiB pages
//!   with the previous head's, so a block allocates and frees tens of
//!   KiB; every few dozen blocks a derive writes the ~2.2 MB arena
//!   compact while the previous one is still alive, and the pages the
//!   old one frees leave holes among the long-lived ones. This fixture
//!   reads 0.73 MiB, the same in five runs, without pinning
//!   `MALLOC_MMAP_THRESHOLD_` (a full copy per block read 0.00–0.23 MiB
//!   when the hole it freed was the previous block's, 6.8–12.8 MiB at
//!   eight blocks). The ceiling is there to catch a copy of the state,
//!   or a retained trie, per block — not to measure the allocator.
//!
//! The chain that kept one cloned account map per block read +2.24 MiB
//! of RSS per block on this fixture (~896 MiB over the same window);
//! those figures ride along as constants for the artifact.
//!
//! Emits `BENCH_mem.json` at the workspace root.

use parp_bench::{connected_fixture, read_call};
use parp_chain::Blockchain;
use parp_core::LightClient;
use parp_net::{Network, NodeId};
use parp_primitives::Address;

const BLOCKS: u64 = 500;
const SAMPLE_AT: [u64; 3] = [0, 100, BLOCKS];
/// Most a one-transfer block may add to [`Blockchain::mem_bytes`] (less
/// the head trie's superseded bytes).
const CHAIN_BYTES_PER_BLOCK_CEILING: usize = 16 * 1024;
/// Most `VmRSS` may grow over blocks 100–500.
const RSS_GROWTH_CEILING_MIB: f64 = 8.0;
/// Most the runtime's state cache may hold beyond the head trie.
const CACHE_BEYOND_HEAD_CEILING: usize = 1024;
/// Chain height both fixtures are padded to before block 0, so their
/// per-block vectors double at the same blocks.
const SETUP_HEIGHT: u64 = 32;
/// The per-block RSS growth the snapshot-per-block chain measured on
/// this fixture (120-block probe), and that rate over blocks 100–500.
const PARENT_RSS_PER_BLOCK_MIB: f64 = 2.24;
const PARENT_RSS_GROWTH_MIB: f64 = PARENT_RSS_PER_BLOCK_MIB * 400.0;

const MIB: f64 = 1024.0 * 1024.0;

/// `VmRSS` of this process in bytes, where `/proc` exists.
fn vm_rss() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    let kib: usize = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib * 1024)
}

/// The fixture: a network whose chain carries `accounts` funded
/// accounts, one serving node and one connected client.
struct World {
    net: Network,
    node: NodeId,
    client: LightClient,
    accounts: Vec<Address>,
}

fn world(accounts: usize) -> World {
    let (mut net, node, client) = connected_fixture();
    let accounts: Vec<Address> = (0..accounts as u64)
        .map(|i| Address::from_low_u64_be(0xACC0_0000 + i))
        .collect();
    net.fund_many(&accounts);
    assert!(
        net.chain().height() <= SETUP_HEIGHT,
        "set-up outgrew its pad"
    );
    while net.chain().height() < SETUP_HEIGHT {
        net.fund(accounts[0]);
    }
    World {
        net,
        node,
        client,
        accounts,
    }
}

/// Mines `blocks` one-transfer blocks, the client following and reading.
fn mine(world: &mut World, from_block: u64, blocks: u64) {
    for block in from_block..from_block + blocks {
        let target = world.accounts[block as usize % world.accounts.len()];
        world.net.fund(target);
        world.net.sync_client(&mut world.client);
        world
            .net
            .parp_call(&mut world.client, world.node, read_call(target))
            .expect("balance read");
    }
}

/// One row of the attributed table: `(component, bytes)`.
type Breakdown = Vec<(&'static str, usize)>;

fn breakdown(world: &World) -> Breakdown {
    let chain: &Blockchain = world.net.chain();
    let memory = chain.mem_breakdown();
    let superseded = chain.state().shared_trie().superseded_bytes();
    let runtime = world.net.runtime();
    // The cache holds the head's trie too; the chain already reports it.
    let head_cached = runtime.cache().contains(&chain.head().header.state_root);
    let other_tries = runtime.cache().mem_bytes() - if head_cached { memory.head_trie } else { 0 };
    assert!(
        other_tries < CACHE_BEYOND_HEAD_CEILING,
        "the runtime holds {other_tries} B of state tries besides the head's"
    );
    vec![
        ("head_accounts", memory.head_accounts),
        ("undo_records", memory.undo_records),
        ("blocks_and_receipts", memory.blocks),
        ("indices", memory.indices),
        ("head_trie_live", memory.head_trie - superseded),
        ("head_trie_superseded", superseded),
        ("snapshot_cache_other_tries", other_tries),
        ("inclusion_cache", runtime.inclusion_cache().mem_bytes()),
        ("client", world.client.mem_bytes()),
        ("node", world.net.node(world.node).mem_bytes()),
    ]
}

/// What one sample point read.
struct Sample {
    block: u64,
    parts: Breakdown,
    /// [`Blockchain::mem_bytes`] less the head trie's superseded bytes.
    chain_bytes: usize,
    rss: Option<usize>,
}

/// Runs the fixture at `accounts`, sampling at [`SAMPLE_AT`].
fn run(accounts: usize) -> Vec<Sample> {
    let mut world = world(accounts);
    let mut samples = Vec::new();
    let mut mined = 0;
    for at in SAMPLE_AT {
        mine(&mut world, mined, at - mined);
        mined = at;
        let chain = world.net.chain();
        samples.push(Sample {
            block: at,
            parts: breakdown(&world),
            chain_bytes: chain.mem_bytes() - chain.state().shared_trie().superseded_bytes(),
            rss: vm_rss(),
        });
    }
    samples
}

/// Bytes the chain's live memory grew per block between the last two
/// samples (blocks 100 and 500).
fn chain_bytes_per_block(samples: &[Sample]) -> usize {
    let [.., from, to] = samples else {
        panic!("at least two samples");
    };
    (to.chain_bytes - from.chain_bytes) / (to.block - from.block) as usize
}

fn main() {
    let rss_at_start = vm_rss();
    // The small chain first, so its pages are not the large one's slack.
    let small = run(1_000);
    let large = run(10_000);

    println!("memory footprint, 10,000 accounts, one-transfer blocks:");
    let mut json_samples = Vec::new();
    for sample in &large {
        let attributed: usize = sample.parts.iter().map(|(_, bytes)| bytes).sum();
        println!("  block {}:", sample.block);
        for (name, bytes) in &sample.parts {
            println!("    {name:<28} {bytes:>12} B");
        }
        println!("    {:<28} {attributed:>12} B", "attributed sum");
        let mut fields: Vec<String> = sample
            .parts
            .iter()
            .map(|(name, bytes)| format!("\"{name}\":{bytes}"))
            .collect();
        fields.push(format!("\"attributed_sum\":{attributed}"));
        fields.push(format!("\"chain_live_bytes\":{}", sample.chain_bytes));
        if let (Some(rss), Some(start)) = (sample.rss, rss_at_start) {
            let grown = rss.saturating_sub(start);
            let remainder = grown as i64 - attributed as i64;
            println!("    {:<28} {rss:>12} B", "VmRSS");
            println!("    {:<28} {grown:>12} B", "VmRSS growth since start");
            println!(
                "    {:<28} {remainder:>12} B ({:.0} % of growth)",
                "unattributed remainder",
                100.0 * remainder as f64 / grown.max(1) as f64
            );
            fields.push(format!("\"vm_rss\":{rss}"));
            fields.push(format!("\"vm_rss_growth_since_start\":{grown}"));
            fields.push(format!("\"unattributed_remainder\":{remainder}"));
        }
        json_samples.push(format!(
            "{{\"block\":{},{}}}",
            sample.block,
            fields.join(",")
        ));
    }

    let (per_block_small, per_block_large) =
        (chain_bytes_per_block(&small), chain_bytes_per_block(&large));
    println!(
        "Blockchain::mem_bytes less superseded trie bytes, per block, blocks 100-500: \
         {per_block_large} B at 10,000 accounts, \
         {per_block_small} B at 1,000 (ceiling {CHAIN_BYTES_PER_BLOCK_CEILING} B)"
    );
    assert!(
        per_block_large <= CHAIN_BYTES_PER_BLOCK_CEILING,
        "a one-transfer block retains {per_block_large} B"
    );
    assert!(
        per_block_large.abs_diff(per_block_small) * 10 <= per_block_small,
        "bytes per block depend on the account count: {per_block_small} B at 1,000 accounts, \
         {per_block_large} B at 10,000"
    );

    let rss_growth_mib = match (large[1].rss, large[2].rss) {
        (Some(at_100), Some(at_500)) => Some((at_500 as f64 - at_100 as f64) / MIB),
        _ => None,
    };
    if let Some(grown) = rss_growth_mib {
        println!(
            "VmRSS growth, blocks 100-500: {grown:.2} MiB (ceiling {RSS_GROWTH_CEILING_MIB} MiB; \
             a cloned map per block: ~{PARENT_RSS_GROWTH_MIB:.0} MiB at \
             {PARENT_RSS_PER_BLOCK_MIB} MiB a block)"
        );
        assert!(
            grown <= RSS_GROWTH_CEILING_MIB,
            "VmRSS grew {grown:.2} MiB over 400 one-transfer blocks \
             (heap fragmentation? compare under MALLOC_MMAP_THRESHOLD_=131072)"
        );
    }

    let json = format!(
        "{{\"bench\":\"mem_footprint\",\"accounts\":10000,\"blocks\":{BLOCKS},\
         \"samples\":[{samples}],\
         \"chain_bytes_per_block\":{per_block_large},\
         \"chain_bytes_per_block_at_1000_accounts\":{per_block_small},\
         \"chain_bytes_per_block_ceiling\":{CHAIN_BYTES_PER_BLOCK_CEILING},\
         \"rss_growth_100_500_mib\":{rss_growth},\
         \"rss_growth_ceiling_mib\":{RSS_GROWTH_CEILING_MIB},\
         \"parent_rss_per_block_mib\":{PARENT_RSS_PER_BLOCK_MIB},\
         \"parent_rss_growth_100_500_mib\":{PARENT_RSS_GROWTH_MIB}}}\n",
        samples = json_samples.join(","),
        rss_growth = rss_growth_mib.map_or("null".to_string(), |g| format!("{g:.3}")),
    );
    // Cargo runs bench binaries with the package as cwd; anchor the
    // artifact at the workspace root where CI picks it up.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mem.json");
    std::fs::write(path, &json).expect("write BENCH_mem.json");
    println!("wrote BENCH_mem.json: {json}");
}
