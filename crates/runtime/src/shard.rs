//! Sharded multiproof generation: batch items partitioned across a
//! `std::thread` worker pool, per-shard proof paths walked in parallel
//! as **arena witness ids**, merged into the exact deduplicated
//! multiproof the sequential path produces.
//!
//! Determinism is the contract: the merged node set is **byte-identical
//! to [`parp_trie::Trie::prove_many`] for every shard count**, because each key's
//! proof path is a pure function of the trie, and the merge replays the
//! paths in the original call order with the same first-touch
//! deduplication. Sharding only decides *which worker walks which key*,
//! never what ends up on the wire — so a response served with 8 shards
//! verifies (and hashes, and signs) exactly like one served with 1.
//!
//! Workers never touch proof bytes: each walks its keys over the shared
//! [`FrozenTrie`] arena and returns `u32` witness ids. The merge dedups
//! them through a bitset (no hashing) and materializes each surviving
//! node exactly once — straight into the caller's [`ProofBuf`] on the
//! zero-copy path.
//!
//! Work is split into **equal-size contiguous index chunks**, not by key
//! bytes: a byte-keyed partition (the previous leading-byte scheme)
//! collapses under Zipf-skewed hot-account workloads, where most keys of
//! a batch can share a prefix or simply repeat. Chunking balances worker
//! load for any key distribution, including all-duplicates.

use parp_crypto::keccak256;
use parp_primitives::{Address, H256};
use parp_trie::{FrozenTrie, ProofBuf};

/// Upper bound on worker threads per batch; more shards than this would
/// only add scheduling noise on any realistic host.
pub const MAX_SHARDS: usize = 64;

/// Below this many keys the batch runs inline: against a frozen trie
/// each proof walk is O(depth), so spawning workers costs more than the
/// walks themselves.
pub const INLINE_THRESHOLD: usize = 32;

/// The shard a trie key lands on: a splitmix64 mix of the key's first
/// eight bytes, reduced modulo the shard count.
///
/// Mixing (rather than taking the leading byte, as this function once
/// did) keeps the partition balanced even when keys share a prefix —
/// the Zipf-skew failure mode of hot-account workloads. The proof
/// workers themselves no longer partition by key at all (see the module
/// docs); this remains the key-affine partitioner for callers that need
/// a stable key → shard mapping (e.g. cache sharding).
pub fn shard_of(key: &[u8], shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut acc = 0u64;
    for &byte in key.iter().take(8) {
        acc = (acc << 8) | u64::from(byte);
    }
    let mut z = acc.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards as u64) as usize
}

/// Deduplicated account multiproof for `addresses` under `trie`,
/// generated across `shards` workers. Byte-identical to
/// `trie.prove_many(keccak256(address) for address in addresses)` for
/// every shard count (including 1, which runs inline without spawning).
/// Takes a [`FrozenTrie`] so every per-key walk is O(depth) — the
/// snapshot cache hands the same frozen trie to all workers.
pub fn sharded_account_multiproof(
    trie: &FrozenTrie,
    addresses: &[Address],
    shards: usize,
) -> Vec<Vec<u8>> {
    let paths = account_id_paths(trie, addresses, shards);
    let mut nodes = Vec::new();
    merge_id_paths(trie, &paths, |bytes| nodes.push(bytes.to_vec()));
    nodes
}

/// [`sharded_account_multiproof`] serialized into a reusable
/// [`ProofBuf`]: the same node set, written zero-copy into one
/// contiguous allocation. Clears `out` first; capacity is retained
/// across batches.
pub fn sharded_account_multiproof_into(
    trie: &FrozenTrie,
    addresses: &[Address],
    shards: usize,
    out: &mut ProofBuf,
) {
    out.clear();
    let paths = account_id_paths(trie, addresses, shards);
    merge_id_paths(trie, &paths, |bytes| out.push(bytes));
}

/// Per-key witness-id paths for the account keys, in call order.
fn account_id_paths(trie: &FrozenTrie, addresses: &[Address], shards: usize) -> Vec<Vec<u32>> {
    let keys: Vec<H256> = addresses
        .iter()
        .map(|address| keccak256(address.as_bytes()))
        .collect();
    prove_id_paths(trie, &keys, shards)
}

/// Per-key witness-id paths in call order, walked by up to `shards`
/// scoped workers (spawned per batch — workers live exactly as long as
/// the batch, so there is no idle pool to drain on shutdown). Keys are
/// split into equal-size contiguous chunks, so worker load stays
/// balanced for arbitrarily skewed (or duplicate-heavy) key sets.
fn prove_id_paths(trie: &FrozenTrie, keys: &[H256], shards: usize) -> Vec<Vec<u32>> {
    let shards = shards.clamp(1, MAX_SHARDS);
    let walk = |key: &H256| {
        let mut ids = Vec::new();
        trie.prove_ids(key.as_bytes(), &mut ids);
        ids
    };
    if shards == 1 || keys.len() < INLINE_THRESHOLD {
        return keys.iter().map(walk).collect();
    }
    let chunk = keys.len().div_ceil(shards);
    let mut results: Vec<Vec<Vec<u32>>> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(chunk)
            .map(|chunk_keys| scope.spawn(move || chunk_keys.iter().map(walk).collect::<Vec<_>>()))
            .collect();
        results = workers
            .into_iter()
            .map(|worker| worker.join().expect("shard worker panicked"))
            .collect();
    });
    // Chunks are contiguous in call order, so flattening restores it.
    results.into_iter().flatten().collect()
}

/// First-touch-order dedup merge — the same fold
/// [`parp_trie::Trie::prove_many`] performs, applied to pre-walked
/// witness ids: a bitset probe per id, one byte materialization per
/// surviving node, zero hashing.
fn merge_id_paths<F: FnMut(&[u8])>(trie: &FrozenTrie, paths: &[Vec<u32>], mut emit: F) {
    let mut seen = vec![false; trie.node_count()];
    for path in paths {
        for &id in path {
            if !std::mem::replace(&mut seen[id as usize], true) {
                emit(trie.node_bytes(id));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_primitives::U256;

    /// The unfrozen trie over `n` accounts: its walk-and-encode proofs
    /// are the reference the sharded paths are held to.
    fn unfrozen_trie(n: u64) -> parp_trie::Trie {
        parp_chain::State::with_alloc(
            (1..=n).map(|i| (Address::from_low_u64_be(i * 31), U256::from(i))),
        )
        .build_trie()
    }

    fn populated_trie(n: u64) -> (FrozenTrie, Vec<Address>) {
        let addresses: Vec<Address> = (1..=n).map(|i| Address::from_low_u64_be(i * 31)).collect();
        (FrozenTrie::new(unfrozen_trie(n)), addresses)
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let (trie, addresses) = populated_trie(300);
        let sequential = unfrozen_trie(300).prove_many(
            addresses
                .iter()
                .map(|a| keccak256(a.as_bytes()).as_bytes().to_vec()),
        );
        for shards in [1, 2, 3, 8, 64] {
            assert_eq!(
                sharded_account_multiproof(&trie, &addresses, shards),
                sequential,
                "shard count {shards} diverged"
            );
        }
    }

    #[test]
    fn zero_copy_path_matches_allocating_path() {
        let (trie, addresses) = populated_trie(200);
        let mut buf = ProofBuf::new();
        for shards in [1, 4] {
            sharded_account_multiproof_into(&trie, &addresses, shards, &mut buf);
            assert_eq!(
                buf.to_vecs(),
                sharded_account_multiproof(&trie, &addresses, shards)
            );
        }
        sharded_account_multiproof_into(&trie, &[], 4, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn duplicates_absences_and_empty_inputs() {
        let (trie, addresses) = populated_trie(50);
        // Duplicate keys and absent accounts, shuffled across shards —
        // enough of them to clear INLINE_THRESHOLD so the parallel
        // merge path is the one under test.
        let mut mixed = vec![
            addresses[3],
            Address::from_low_u64_be(0xdead),
            addresses[3],
            addresses[40],
            Address::from_low_u64_be(0xbeef),
        ];
        for i in 0..INLINE_THRESHOLD {
            mixed.push(addresses[i % addresses.len()]);
        }
        let sequential = unfrozen_trie(50).prove_many(
            mixed
                .iter()
                .map(|a| keccak256(a.as_bytes()).as_bytes().to_vec()),
        );
        for shards in [1, 2, 8] {
            assert_eq!(
                sharded_account_multiproof(&trie, &mixed, shards),
                sequential
            );
        }
        assert!(sharded_account_multiproof(&trie, &[], 8).is_empty());
    }

    #[test]
    fn skewed_key_sets_stay_byte_identical() {
        // A Zipf-flavoured workload: a handful of hot accounts dominate
        // the batch. Under the old leading-byte partition, every copy of
        // a hot key landed on one worker; chunking splits them evenly —
        // and the output must not change either way.
        let (trie, addresses) = populated_trie(100);
        let mut skewed = Vec::new();
        for i in 0..128usize {
            // ~70% of calls hit 4 hot accounts, the rest spread out.
            let address = if i % 10 < 7 {
                addresses[i % 4]
            } else {
                addresses[(i * 13) % addresses.len()]
            };
            skewed.push(address);
        }
        let sequential = unfrozen_trie(100).prove_many(
            skewed
                .iter()
                .map(|a| keccak256(a.as_bytes()).as_bytes().to_vec()),
        );
        for shards in [1, 2, 8] {
            assert_eq!(
                sharded_account_multiproof(&trie, &skewed, shards),
                sequential,
                "shard count {shards} diverged on the skewed set"
            );
        }
    }

    #[test]
    fn oversized_shard_count_clamped() {
        let (trie, addresses) = populated_trie(INLINE_THRESHOLD as u64 + 10);
        let reference = sharded_account_multiproof(&trie, &addresses, 1);
        assert_eq!(
            sharded_account_multiproof(&trie, &addresses, 10_000),
            reference
        );
    }

    #[test]
    fn shard_partition_is_total() {
        for shards in 1..=8 {
            for byte in 0..=255u8 {
                let shard = shard_of(&[byte, 1, 2], shards);
                assert!(shard < shards);
            }
            assert!(shard_of(&[], shards) < shards);
        }
    }

    #[test]
    fn shard_of_spreads_shared_prefixes() {
        // Every key shares the same leading byte — the case the old
        // `key[0] % shards` partition mapped onto a single shard.
        for shards in [2usize, 4, 8] {
            let mut hit = vec![0usize; shards];
            for i in 0..=255u8 {
                let key = [0xaa, i, 3, 4, 5, 6, 7, 8];
                hit[shard_of(&key, shards)] += 1;
            }
            assert!(
                hit.iter().all(|&count| count > 0),
                "shared-prefix keys collapsed onto a subset of {shards} shards: {hit:?}"
            );
        }
    }
}
