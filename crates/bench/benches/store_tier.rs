//! The storage-tier bench: what serving deep history from append-only
//! segments and a byte-budgeted warm tier costs, versus keeping every
//! block resident.
//!
//! Five sections:
//!
//! 1. **Correctness pin** — transaction and receipt proofs served by
//!    a [`Runtime`] with cold storage enabled against a pruned chain
//!    must be byte-identical to a plain [`Runtime`] against the fully
//!    resident twin (hard assert).
//! 2. **Cold first touch** — segment read + RLP decode + ordered-trie
//!    rebuild + freeze, on a fresh engine per round.
//! 3. **Rehydrate** — the same lookups against a tightly budgeted tier
//!    whose pages were spilled to disk: spill read + `from_bytes`.
//! 4. **Warm / in-memory** — warm-tier hits and a plain runtime's
//!    inclusion-cache hits on the resident twin, the steady-state serve
//!    cost.
//! 5. **Store leaf calls at the ledger's page size** — the checksum
//!    per byte, one record read and one spilled-page read, on the
//!    record and the ~12 KB page of a 64-transfer block (what the
//!    `history-cold` workload's blocks carry). Every checksum is
//!    asserted equal to the bit-at-a-time definition and every read
//!    byte-identical to what was written; there is no speed floor.
//!
//! Every proof in sections 1–4 is cut the way the serving loop cuts
//! it: the block's header is resolved through the chain (a segment
//! read and a decode for a pruned block), then handed to the runtime.
//!
//! Emits `BENCH_store.json` at the workspace root (a CI artifact
//! alongside `BENCH_trie.json` and friends) with the latency ladder
//! plus the footprint split: bytes on disk (segments + spill) versus
//! bytes resident under the budget versus the full in-memory set.

use criterion::{criterion_group, criterion_main, Criterion};
use parp_chain::{Blockchain, Transaction, TransferExecutor, MIN_HISTORY_WINDOW};
use parp_core::ProofEngine;
use parp_crypto::SecretKey;
use parp_primitives::{Address, U256};
use parp_runtime::{Runtime, TrieCache};
use parp_store::{crc32, encode_items, scratch_dir, BlockStore, SegmentFile, SpillStore};
use parp_trie::{ordered_trie, FrozenTrie, ProofBuf};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Blocks past the pruning floor — the pruned span the bench probes.
const DEEP: u64 = 64;
/// Measurement rounds per timed section.
const ROUNDS: u32 = 8;

/// A pruned chain backed by segment files, its fully resident twin,
/// and the scratch directories to clean up afterwards.
struct Fixture {
    cold: Blockchain,
    resident: Blockchain,
    /// Pruned block numbers the bench probes (oldest first).
    probe: Vec<u64>,
    dirs: Vec<PathBuf>,
}

fn fixture() -> Fixture {
    let key = SecretKey::from_seed(b"store-bench");
    let make_tx = |nonce| {
        Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(0x57_0e)),
            value: U256::ONE,
            data: Vec::new(),
        }
        .sign(&key)
    };
    let alloc = vec![(key.address(), U256::from(1u64) << 64)];
    let mut cold = Blockchain::new(alloc.clone());
    let mut resident = Blockchain::new(alloc);
    let dir = scratch_dir("bench-history").expect("scratch dir");
    let store = BlockStore::open(&dir).expect("open block store");
    cold.attach_history(store, 0).expect("attach history");
    for nonce in 0..MIN_HISTORY_WINDOW + DEEP {
        let tx = make_tx(nonce);
        cold.produce_block(vec![tx.clone()], &mut TransferExecutor)
            .expect("cold block");
        resident
            .produce_block(vec![tx], &mut TransferExecutor)
            .expect("resident block");
    }
    let base = cold.resident_base();
    assert!(base > DEEP, "the probe span must be fully pruned");
    Fixture {
        cold,
        resident,
        probe: (1..=DEEP).collect(),
        dirs: vec![dir],
    }
}

/// A runtime whose inclusion cache keeps `budget` bytes resident and
/// spills to a fresh, empty directory.
fn fresh_engine(budget: usize, dirs: &mut Vec<PathBuf>) -> Runtime {
    let dir = scratch_dir("bench-spill").expect("scratch dir");
    let spill = SpillStore::open(&dir).expect("open spill store");
    dirs.push(dir);
    let mut runtime = Runtime::default();
    runtime.enable_cold_storage(spill, budget);
    runtime
}

/// The spilling inclusion cache of a [`fresh_engine`] runtime.
fn tier(runtime: &Runtime) -> &TrieCache {
    runtime.cold_storage().expect("cold storage enabled").tier()
}

/// One old-block transaction proof, cut as the serving loop cuts it:
/// resolve the block's header, hand it to the runtime.
fn prove(engine: &mut Runtime, chain: &Blockchain, block: u64) -> ProofBuf {
    let header = chain.header_at(block).expect("probed block has a header");
    engine.transaction_proof(chain, &header, 0)
}

/// Section 1: the segment-backed path must be indistinguishable from
/// the resident path on the wire.
fn assert_byte_identical(fx: &mut Fixture) {
    let mut engine = fresh_engine(1, &mut fx.dirs); // spill after every page
    let mut runtime = Runtime::default();
    // Two passes: the second serves from rehydrated pages, which must
    // not change a single byte either.
    for _ in 0..2 {
        for &block in &fx.probe {
            let tx_proof = prove(&mut engine, &fx.cold, block);
            assert!(!tx_proof.is_empty(), "pruned block {block} must prove");
            assert_eq!(
                tx_proof,
                prove(&mut runtime, &fx.resident, block),
                "cold transaction proof diverged at block {block}"
            );
            let header = fx.cold.header_at(block).expect("archived header");
            let receipt = engine.receipt_proof(&fx.cold, &header, 0);
            assert!(
                receipt.is_some(),
                "pruned block {block} must serve its receipt"
            );
            assert_eq!(
                receipt,
                runtime.receipt_proof(&fx.resident, &header, 0),
                "cold receipt or its proof diverged at block {block}"
            );
        }
    }
    assert!(tier(&engine).spill_count() > 0, "budget of 1 must spill");
    assert!(tier(&engine).rehydrate_count() > 0, "revisits rehydrate");
}

/// Transfers in the block whose record and page section 5 reads: the
/// `history-cold` workload's block shape.
const LEDGER_BLOCK_TXS: u64 = 64;
/// Timed reads (and checksum passes) per section-5 figure.
const LEAF_SAMPLES: usize = 400;

/// Section 5's figures: medians over [`LEAF_SAMPLES`] calls.
struct LeafNumbers {
    crc32_ns_per_byte_4k: f64,
    crc32_ns_per_byte_16k: f64,
    segment_read_us: f64,
    spill_get_us: f64,
    record_bytes: usize,
    page_bytes: usize,
}

/// CRC-32 by its definition, one bit at a time: what every checksum
/// the section times is asserted equal to.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// Median wall-clock nanoseconds of `LEAF_SAMPLES` calls of `call`.
fn median_ns<R>(mut call: impl FnMut() -> R) -> f64 {
    let mut samples: Vec<f64> = (0..LEAF_SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(call());
            started.elapsed().as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Section 5: the store's leaf calls on a 64-transfer block's record
/// and page.
fn measure_leaf_calls(dirs: &mut Vec<PathBuf>) -> LeafNumbers {
    let key = SecretKey::from_seed(b"store-bench-wide");
    let encoded: Vec<Vec<u8>> = (0..LEDGER_BLOCK_TXS)
        .map(|nonce| {
            Transaction {
                nonce,
                gas_price: U256::ZERO,
                gas_limit: 21_000,
                to: Some(Address::from_low_u64_be(0x57_0e)),
                value: U256::ONE,
                data: Vec::new(),
            }
            .sign(&key)
            .encode()
        })
        .collect();
    let record = encode_items(&encoded);
    let trie = FrozenTrie::new(ordered_trie(encoded.iter().map(Vec::as_slice)));
    let (root, page) = (trie.root_hash(), trie.to_bytes());

    let crc32_ns_per_byte = |size: usize| {
        let buffer: Vec<u8> = page.iter().cycle().take(size).copied().collect();
        assert_eq!(
            crc32(&buffer),
            crc32_bitwise(&buffer),
            "the sliced checksum of a {size}-byte buffer diverged from the definition"
        );
        median_ns(|| crc32(black_box(&buffer))) / size as f64
    };
    let crc32_ns_per_byte_4k = crc32_ns_per_byte(4 * 1024);
    let crc32_ns_per_byte_16k = crc32_ns_per_byte(16 * 1024);

    let dir = scratch_dir("bench-leaf").expect("scratch dir");
    let mut segment = SegmentFile::open(dir.join("records.seg")).expect("open segment");
    let index = segment.append(&record).expect("append record");
    assert_eq!(
        segment.get(index).expect("read record"),
        Some(record.clone()),
        "the record read back is not the record written"
    );
    let segment_read_us = median_ns(|| segment.get(index)) / 1_000.0;

    let spill = SpillStore::open(dir.join("spill")).expect("open spill store");
    spill.put(root, &page).expect("spill page");
    assert_eq!(
        spill.get(&root).expect("read page"),
        Some(page.clone()),
        "the page read back is not the page spilled"
    );
    let spill_get_us = median_ns(|| spill.get(&root)) / 1_000.0;
    dirs.push(dir);

    LeafNumbers {
        crc32_ns_per_byte_4k,
        crc32_ns_per_byte_16k,
        segment_read_us,
        spill_get_us,
        record_bytes: record.len(),
        page_bytes: page.len(),
    }
}

struct Numbers {
    cold_first_us: f64,
    rehydrate_us: f64,
    warm_us: f64,
    inmem_us: f64,
    history_disk_bytes: u64,
    spill_disk_bytes: u64,
    resident_full_bytes: usize,
    budget_bytes: usize,
    budget_resident_bytes: usize,
}

fn measure(fx: &mut Fixture) -> Numbers {
    let per_proof = |elapsed_ns: u128, rounds: u32| {
        elapsed_ns as f64 / 1_000.0 / f64::from(rounds) / fx.probe.len() as f64
    };

    // Cold first touch: a fresh engine (and fresh, empty spill) per
    // round, so every proof pays segment read + rebuild + freeze.
    let mut engines: Vec<Runtime> = (0..ROUNDS)
        .map(|_| fresh_engine(usize::MAX, &mut fx.dirs))
        .collect();
    let started = Instant::now();
    for engine in &mut engines {
        for &block in &fx.probe {
            black_box(prove(engine, &fx.cold, block));
        }
    }
    let cold_first_us = per_proof(started.elapsed().as_nanos(), ROUNDS);

    // The unbounded engine now holds every probed page resident: its
    // measured footprint is what "keep deep history in RAM" costs.
    let warm_engine = &mut engines[0];
    let resident_full_bytes = tier(warm_engine).resident_bytes();

    // Warm hits against that engine: the steady-state tier serve.
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for &block in &fx.probe {
            black_box(prove(warm_engine, &fx.cold, block));
        }
    }
    let warm_us = per_proof(started.elapsed().as_nanos(), ROUNDS);

    // A tier budgeted at one eighth of the full set. The first pass
    // populates and spills; sequential re-scans then always find the
    // probed page on disk (the resident tail is the most recent
    // eighth), so the timed passes measure spill read + `from_bytes`.
    let budget_bytes = (resident_full_bytes / 8).max(1);
    let mut budgeted = fresh_engine(budget_bytes, &mut fx.dirs);
    for &block in &fx.probe {
        black_box(prove(&mut budgeted, &fx.cold, block));
    }
    let rehydrates_before = tier(&budgeted).rehydrate_count();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for &block in &fx.probe {
            black_box(prove(&mut budgeted, &fx.cold, block));
        }
    }
    let rehydrate_us = per_proof(started.elapsed().as_nanos(), ROUNDS);
    assert!(
        tier(&budgeted).rehydrate_count() > rehydrates_before,
        "the budgeted passes must actually rehydrate"
    );
    let budget_resident_bytes = tier(&budgeted).resident_bytes();
    let spill_disk_bytes = tier(&budgeted).disk_bytes();

    // The in-memory baseline: a resident chain behind a plain runtime's
    // inclusion cache, whose default budget holds every probed page, so
    // every timed probe is a cache hit.
    let mut runtime = Runtime::default();
    for &block in &fx.probe {
        black_box(prove(&mut runtime, &fx.resident, block));
    }
    let misses_before = runtime.inclusion_cache().misses();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        for &block in &fx.probe {
            black_box(prove(&mut runtime, &fx.resident, block));
        }
    }
    let inmem_us = per_proof(started.elapsed().as_nanos(), ROUNDS);
    assert_eq!(
        runtime.inclusion_cache().misses(),
        misses_before,
        "the in-memory baseline must serve every probe from its cache"
    );

    Numbers {
        cold_first_us,
        rehydrate_us,
        warm_us,
        inmem_us,
        history_disk_bytes: fx.cold.history_disk_bytes(),
        spill_disk_bytes,
        resident_full_bytes,
        budget_bytes,
        budget_resident_bytes,
    }
}

fn emit_artifact(n: &Numbers, leaf: &LeafNumbers, blocks: u64) {
    let warm_vs_cold = n.cold_first_us / n.warm_us.max(1e-9);
    let rehydrate_vs_cold = n.cold_first_us / n.rehydrate_us.max(1e-9);
    let budget_ratio = n.budget_bytes as f64 / n.resident_full_bytes.max(1) as f64;
    let json = format!(
        "{{\"bench\":\"store_tier\",\"blocks\":{blocks},\"probed_pruned_blocks\":{DEEP},\
         \"cold_first_us\":{:.1},\"rehydrate_us\":{:.1},\"warm_us\":{:.1},\
         \"inmem_us\":{:.1},\"warm_vs_cold_speedup\":{warm_vs_cold:.2},\
         \"rehydrate_vs_cold_speedup\":{rehydrate_vs_cold:.2},\
         \"history_disk_bytes\":{},\"spill_disk_bytes\":{},\
         \"resident_full_bytes\":{},\"budget_bytes\":{},\
         \"budget_resident_bytes\":{},\"budget_ratio\":{budget_ratio:.3},\
         \"crc32_ns_per_byte_4k\":{:.3},\"crc32_ns_per_byte_16k\":{:.3},\
         \"segment_read_us\":{:.1},\"spill_get_us\":{:.1},\
         \"record_bytes\":{},\"page_bytes\":{},\
         \"byte_identical\":true}}\n",
        n.cold_first_us,
        n.rehydrate_us,
        n.warm_us,
        n.inmem_us,
        n.history_disk_bytes,
        n.spill_disk_bytes,
        n.resident_full_bytes,
        n.budget_bytes,
        n.budget_resident_bytes,
        leaf.crc32_ns_per_byte_4k,
        leaf.crc32_ns_per_byte_16k,
        leaf.segment_read_us,
        leaf.spill_get_us,
        leaf.record_bytes,
        leaf.page_bytes,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_store.json");
    std::fs::write(path, &json).expect("write BENCH_store.json");
    println!("wrote BENCH_store.json: {json}");
    println!(
        "old-block proof serve: cold first touch {:.1} µs | rehydrate {:.1} µs | \
         warm hit {:.1} µs ({warm_vs_cold:.1}× vs cold) | resident baseline {:.1} µs",
        n.cold_first_us, n.rehydrate_us, n.warm_us, n.inmem_us,
    );
    println!(
        "store leaf calls on a {LEDGER_BLOCK_TXS}-transfer block: crc32 {:.3} ns/B (4 KiB) \
         {:.3} ns/B (16 KiB) | {} B record read {:.1} µs | {} B page spill get {:.1} µs",
        leaf.crc32_ns_per_byte_4k,
        leaf.crc32_ns_per_byte_16k,
        leaf.record_bytes,
        leaf.segment_read_us,
        leaf.page_bytes,
        leaf.spill_get_us,
    );
    let budget_pct = budget_ratio * 100.0;
    println!(
        "footprint: {} B segments + {} B spill on disk | {} B resident under a {} B budget \
         ({budget_pct:.0}% of the {} B full in-memory set)",
        n.history_disk_bytes,
        n.spill_disk_bytes,
        n.budget_resident_bytes,
        n.budget_bytes,
        n.resident_full_bytes,
    );

    // Hard gates, kept loose enough that VM noise cannot flake CI:
    // the real numbers live in the JSON.
    assert!(
        n.budget_resident_bytes <= n.budget_bytes,
        "the budgeted tier overran its byte budget \
         ({} B resident vs {} B budget)",
        n.budget_resident_bytes,
        n.budget_bytes,
    );
    assert!(
        n.spill_disk_bytes > 0 && n.history_disk_bytes > 0,
        "deep history must actually live on disk"
    );
    assert!(
        n.warm_us <= n.cold_first_us,
        "a warm-tier hit must not lose to a segment rebuild \
         ({:.1} µs vs {:.1} µs)",
        n.warm_us,
        n.cold_first_us,
    );
}

fn bench_store_ops(c: &mut Criterion, fx: &mut Fixture) {
    let mut group = c.benchmark_group("store_tier");
    group.sample_size(10);
    let mut warm = fresh_engine(usize::MAX, &mut fx.dirs);
    let probe = fx.probe.clone();
    group.bench_function("warm_hit_proof", |b| {
        b.iter(|| {
            for &block in &probe {
                black_box(prove(&mut warm, &fx.cold, block));
            }
        })
    });
    // Budget of 1 keeps only the newest page: alternating two blocks
    // forces a rehydrate on every proof.
    let mut tiny = fresh_engine(1, &mut fx.dirs);
    group.bench_function("rehydrate_proof", |b| {
        b.iter(|| {
            for &block in &probe[..2] {
                black_box(prove(&mut tiny, &fx.cold, block));
            }
        })
    });
    let mut runtime = Runtime::default();
    group.bench_function("inmem_proof", |b| {
        b.iter(|| {
            for &block in &probe[..2] {
                black_box(prove(&mut runtime, &fx.resident, block));
            }
        })
    });
    group.finish();
}

fn run_all(c: &mut Criterion) {
    let mut fx = fixture();
    assert_byte_identical(&mut fx);
    let numbers = measure(&mut fx);
    let leaf = measure_leaf_calls(&mut fx.dirs);
    emit_artifact(&numbers, &leaf, fx.cold.height());
    bench_store_ops(c, &mut fx);
    for dir in fx.dirs.drain(..) {
        let _ = std::fs::remove_dir_all(dir);
    }
}

criterion_group!(benches, run_all);
criterion_main!(benches);
