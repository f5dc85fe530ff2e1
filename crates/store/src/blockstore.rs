//! Per-block history segments: headers, transactions and receipts
//! advancing in lockstep, one record per block number from genesis.

use crate::segment::{decode_items, encode_items, SegmentFile};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The three append-only segments backing a chain's cold history.
///
/// Record `n` of every segment belongs to block `n`: the header
/// segment holds the block's encoded header verbatim, the transaction
/// and receipt segments hold the block's encoded items packed with
/// [`encode_items`]. Blocks must be appended contiguously from the
/// store's current [`BlockStore::next_number`].
///
/// Opening after a crash trims all three segments to the shortest
/// fully-recovered prefix, so the store is always consistent as a
/// unit: a block either has its header, transactions *and* receipts,
/// or none of them.
///
/// Handles are cheaply cloneable and share one underlying store
/// (appends move the tails, so access is serialized internally); this
/// is what lets a [`Clone`]d chain share its history files.
#[derive(Debug, Clone)]
pub struct BlockStore {
    inner: Arc<Mutex<Segments>>,
}

#[derive(Debug)]
struct Segments {
    headers: SegmentFile,
    transactions: SegmentFile,
    receipts: SegmentFile,
    dropped_bytes: u64,
    reads: ReadCounts,
}

/// Record reads a [`BlockStore`] has served since it was opened, per
/// segment. A plain tally for tests and benches that pin how often the
/// serving path goes to disk; deliberately not a telemetry metric, so
/// exported snapshots do not change with it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadCounts {
    /// Reads of the header segment.
    pub headers: u64,
    /// Reads of the transaction segment.
    pub transactions: u64,
    /// Reads of the receipt segment.
    pub receipts: u64,
}

impl BlockStore {
    /// Opens (creating if needed) the block store in directory `dir`,
    /// recovering each segment and trimming all three to the shortest
    /// consistent prefix.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or a
    /// segment cannot be opened.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut headers = SegmentFile::open(dir.join("headers.seg"))?;
        let mut transactions = SegmentFile::open(dir.join("transactions.seg"))?;
        let mut receipts = SegmentFile::open(dir.join("receipts.seg"))?;
        let dropped_bytes =
            headers.dropped_bytes() + transactions.dropped_bytes() + receipts.dropped_bytes();
        let keep = headers.len().min(transactions.len()).min(receipts.len()) as u64;
        headers.truncate_records(keep)?;
        transactions.truncate_records(keep)?;
        receipts.truncate_records(keep)?;
        Ok(BlockStore {
            inner: Arc::new(Mutex::new(Segments {
                headers,
                transactions,
                receipts,
                dropped_bytes,
                reads: ReadCounts::default(),
            })),
        })
    }

    /// A poisoned mutex only means another handle panicked mid-read;
    /// the segments themselves stay consistent (writes are single
    /// appends), so recover the guard instead of propagating.
    fn locked(&self) -> MutexGuard<'_, Segments> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next block number this store expects (== number of blocks
    /// archived so far, since archiving starts at genesis).
    pub fn next_number(&self) -> u64 {
        self.locked().headers.len() as u64
    }

    /// Whether no blocks have been archived.
    pub fn is_empty(&self) -> bool {
        self.locked().headers.is_empty()
    }

    /// Archives one block: its encoded header plus per-item encoded
    /// transactions and receipts.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when `number` is not the store's next
    /// expected block (history must be contiguous), or the underlying
    /// I/O error on write failure.
    pub fn append_block(
        &self,
        number: u64,
        header: &[u8],
        transactions: &[Vec<u8>],
        receipts: &[Vec<u8>],
    ) -> io::Result<()> {
        let mut inner = self.locked();
        let expected = inner.headers.len() as u64;
        if number != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("non-contiguous archive: expected block {expected}, got {number}"),
            ));
        }
        inner.headers.append(header)?;
        inner.transactions.append(&encode_items(transactions))?;
        inner.receipts.append(&encode_items(receipts))?;
        Ok(())
    }

    /// The encoded header of block `number`, byte-identical to what
    /// was archived.
    ///
    /// Returns `Ok(None)` when the block is not in the store.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on read failure.
    pub fn header(&self, number: u64) -> io::Result<Option<Vec<u8>>> {
        let mut inner = self.locked();
        inner.reads.headers += 1;
        inner.headers.get(number)
    }

    /// The encoded transactions of block `number`, in block order.
    ///
    /// Returns `Ok(None)` when the block is not in the store.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the packed record is malformed, or
    /// the underlying I/O error on read failure.
    pub fn transactions(&self, number: u64) -> io::Result<Option<Vec<Vec<u8>>>> {
        let record = {
            let mut inner = self.locked();
            inner.reads.transactions += 1;
            inner.transactions.get(number)?
        };
        record.map(|bytes| unpack(&bytes)).transpose()
    }

    /// The encoded receipts of block `number`, in block order.
    ///
    /// Returns `Ok(None)` when the block is not in the store.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the packed record is malformed, or
    /// the underlying I/O error on read failure.
    pub fn receipts(&self, number: u64) -> io::Result<Option<Vec<Vec<u8>>>> {
        let record = {
            let mut inner = self.locked();
            inner.reads.receipts += 1;
            inner.receipts.get(number)?
        };
        record.map(|bytes| unpack(&bytes)).transpose()
    }

    /// Fsyncs all three segment tails.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.locked();
        inner.headers.sync()?;
        inner.transactions.sync()?;
        inner.receipts.sync()
    }

    /// Total bytes on disk across the three segments.
    pub fn disk_bytes(&self) -> u64 {
        let inner = self.locked();
        inner.headers.file_bytes() + inner.transactions.file_bytes() + inner.receipts.file_bytes()
    }

    /// Bytes dropped by torn-write recovery when this store opened.
    pub fn dropped_bytes(&self) -> u64 {
        self.locked().dropped_bytes
    }

    /// Record reads served so far, per segment.
    pub fn read_counts(&self) -> ReadCounts {
        self.locked().reads
    }
}

fn unpack(record: &[u8]) -> io::Result<Vec<Vec<u8>>> {
    decode_items(record).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed packed record in block store",
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn archive_and_read_back() {
        let dir = crate::scratch_dir("blockstore").unwrap();
        let store = BlockStore::open(&dir).unwrap();
        assert!(store.is_empty());
        for n in 0..20u64 {
            let header = vec![n as u8; 40];
            let txs: Vec<Vec<u8>> = (0..n % 4).map(|i| vec![i as u8, n as u8]).collect();
            let receipts: Vec<Vec<u8>> = (0..n % 4).map(|i| vec![0xee, i as u8]).collect();
            store.append_block(n, &header, &txs, &receipts).unwrap();
        }
        store.sync().unwrap();
        assert_eq!(store.next_number(), 20);
        assert_eq!(store.header(7).unwrap(), Some(vec![7u8; 40]));
        assert_eq!(
            store.transactions(7).unwrap().unwrap(),
            vec![vec![0u8, 7], vec![1, 7], vec![2, 7]]
        );
        assert_eq!(store.receipts(3).unwrap().unwrap().len(), 3);
        assert_eq!(store.header(20).unwrap(), None);
        assert!(store.disk_bytes() > 0);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn non_contiguous_append_rejected() {
        let dir = crate::scratch_dir("contig").unwrap();
        let store = BlockStore::open(&dir).unwrap();
        store.append_block(0, b"genesis", &[], &[]).unwrap();
        let err = store.append_block(5, b"skip", &[], &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn reopen_trims_to_consistent_prefix() {
        let dir = crate::scratch_dir("lockstep").unwrap();
        {
            let store = BlockStore::open(&dir).unwrap();
            for n in 0..5u64 {
                store
                    .append_block(n, &[n as u8; 8], &[vec![n as u8]], &[vec![n as u8, 2]])
                    .unwrap();
            }
            store.sync().unwrap();
        }
        // Simulate a crash that tore the receipts segment mid-record:
        // drop its last 3 bytes.
        let receipts_path = dir.join("receipts.seg");
        let len = std::fs::metadata(&receipts_path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&receipts_path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = BlockStore::open(&dir).unwrap();
        // Block 4's receipts were torn, so block 4 is gone from all
        // three segments.
        assert_eq!(store.next_number(), 4);
        assert_eq!(store.header(4).unwrap(), None);
        assert_eq!(store.transactions(4).unwrap(), None);
        assert_eq!(store.header(3).unwrap(), Some(vec![3u8; 8]));
        assert!(store.dropped_bytes() > 0);
        // Appending continues from the trimmed height.
        store.append_block(4, b"again", &[], &[]).unwrap();
        assert_eq!(store.header(4).unwrap(), Some(b"again".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clones_share_the_store() {
        let dir = crate::scratch_dir("clone").unwrap();
        let store = BlockStore::open(&dir).unwrap();
        let alias = store.clone();
        store.append_block(0, b"h", &[], &[]).unwrap();
        assert_eq!(alias.next_number(), 1);
        assert_eq!(alias.header(0).unwrap(), Some(b"h".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }
}
