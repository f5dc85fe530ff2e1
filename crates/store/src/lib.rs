//! Embedded cold/warm storage for the PARP reproduction: append-only
//! checksummed segment files plus content-addressed spill storage, with
//! zero external dependencies.
//!
//! Every other crate in the workspace keeps its serving state in RAM;
//! this crate converts chain depth from a memory bound into a disk
//! bound. It deliberately knows nothing about headers, transactions or
//! tries — records are opaque byte payloads, framed and checksummed, so
//! the dependency arrow points *from* `parp-chain`/`parp-runtime`
//! *into* here and never back.
//!
//! Three layers:
//!
//! * [`SegmentFile`] — one append-only file of framed records
//!   (`[len u32][crc32 u32][payload]`), an in-memory offset index
//!   rebuilt by one streamed scan on open (memory: the largest record,
//!   not the file), and torn-write recovery that truncates the file
//!   back to the last record whose checksum verifies. A read is one
//!   positional `pread` of the record plus its checksum — every read
//!   re-verifies, there is no "verified once" state.
//! * [`BlockStore`] — three segments (headers, transactions, receipts)
//!   advancing in lockstep, one record per block number starting at
//!   genesis. Opening after a crash trims all three to the shortest
//!   fully-recovered prefix so the block store is always consistent as
//!   a unit.
//! * [`SpillStore`] — a content-addressed segment keyed by 32-byte
//!   root hash, used by the runtime's warm tier to spill serialized
//!   frozen-trie pages and rehydrate them on demand. Its root index is
//!   built by the same scan that verifies the segment, and a page is
//!   handed out as a slice of the record just read.
//!
//! The checksum is CRC-32 (IEEE) computed sixteen bytes per step from
//! compile-time tables; a cold read is dominated by it (a trie page is
//! ~12 KB), so its speed is the tier's speed. The values are the
//! polynomial's, not the loop's: files written by any earlier build
//! open unchanged.
//!
//! Durability boundary: appends are buffered by the OS; [`BlockStore::sync`]
//! / [`SpillStore::sync`] / [`SegmentFile::sync`] fsync the tail.
//! Recovery never panics — a corrupt or truncated tail is dropped, a
//! valid prefix is kept.
//!
//! Platform: unix only. Segment reads are positional
//! (`std::os::unix::fs::FileExt::read_exact_at`), so the crate — and with
//! it `parp-chain` and everything above — does not build elsewhere.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod blockstore;
mod checksum;
mod segment;
mod spill;

pub use blockstore::{BlockStore, ReadCounts};
pub use checksum::crc32;
pub use segment::{decode_items, encode_items, SegmentFile};
pub use spill::SpillStore;

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide sequence for scratch directory names, so two stores
/// opened in the same process never collide without consulting the
/// wall clock (the workspace is deterministic by contract).
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Creates a fresh private directory under the system temp dir,
/// namespaced by `tag`, the process id and a process-wide counter.
///
/// # Errors
///
/// Returns the underlying I/O error when the directory cannot be
/// created.
pub fn scratch_dir(tag: &str) -> io::Result<PathBuf> {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = std::env::temp_dir().join(format!("parp-store-{tag}-{}-{seq}", std::process::id()));
    std::fs::create_dir_all(&path)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_are_distinct() {
        let a = scratch_dir("t").unwrap();
        let b = scratch_dir("t").unwrap();
        assert_ne!(a, b);
        assert!(a.is_dir() && b.is_dir());
        let _ = std::fs::remove_dir_all(a);
        let _ = std::fs::remove_dir_all(b);
    }
}
