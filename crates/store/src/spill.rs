//! Content-addressed spill segment: serialized pages keyed by a
//! 32-byte root hash, rebuilt by scan on open.

use crate::segment::SegmentFile;
use parp_primitives::H256;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Bytes of key leading every record.
const KEY_BYTES: usize = 32;

/// An append-only spill store for pages addressed by root hash.
///
/// Each record is `[root: 32 bytes][page bytes]`, so the key → record
/// index map is rebuilt by the same open scan that validates
/// checksums — there is no separate index file to keep consistent.
/// Pages are immutable (content-addressed by trie root): putting the
/// same root twice is a no-op.
///
/// Handles are cheaply cloneable and share one underlying file; this
/// is what lets the runtime's warm tier and its telemetry exporter
/// hold the same store.
#[derive(Debug, Clone)]
pub struct SpillStore {
    inner: Arc<Mutex<Spill>>,
}

#[derive(Debug)]
struct Spill {
    segment: SegmentFile,
    index: BTreeMap<H256, u64>,
}

impl SpillStore {
    /// Opens (creating if needed) the spill store at `dir/spill.seg`,
    /// recovering the segment and rebuilding the root → record index.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory or segment
    /// cannot be opened.
    pub fn open<P: AsRef<Path>>(dir: P) -> io::Result<Self> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // One pass over the file verifies every record's checksum and
        // reads its key off the same bytes.
        let mut index = BTreeMap::new();
        let segment = SegmentFile::open_with(dir.join("spill.seg"), |record, payload| {
            if let Some(root) = H256::from_slice(payload.get(..KEY_BYTES).unwrap_or_default()) {
                index.entry(root).or_insert(record);
            }
        })?;
        Ok(SpillStore {
            inner: Arc::new(Mutex::new(Spill { segment, index })),
        })
    }

    /// Recover from poisoning rather than propagate it — appends are
    /// atomic at the record level, so a panicked peer cannot leave
    /// the index half-updated in a way reads would misinterpret.
    fn locked(&self) -> MutexGuard<'_, Spill> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Spills `page` under `root`. No-op when the root is already
    /// stored (pages are content-addressed and immutable).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on write failure.
    pub fn put(&self, root: H256, page: &[u8]) -> io::Result<()> {
        let mut inner = self.locked();
        if inner.index.contains_key(&root) {
            return Ok(());
        }
        let mut record = Vec::with_capacity(KEY_BYTES + page.len());
        record.extend_from_slice(root.as_bytes());
        record.extend_from_slice(page);
        let index = inner.segment.append(&record)?;
        inner.index.insert(root, index);
        Ok(())
    }

    /// Reads the page spilled under `root` and hands `read` its bytes
    /// — byte-identical to what was stored — as a slice of the record
    /// just read and verified, without copying the page out of it.
    ///
    /// Returns `Ok(None)` when the root was never spilled.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (including checksum failure)
    /// on read failure.
    pub fn with_page<R>(
        &self,
        root: &H256,
        read: impl FnOnce(&[u8]) -> R,
    ) -> io::Result<Option<R>> {
        let record = {
            let inner = self.locked();
            let Some(&record) = inner.index.get(root) else {
                return Ok(None);
            };
            inner.segment.get(record)?
        };
        Ok(record.map(|bytes| read(bytes.get(KEY_BYTES..).unwrap_or_default())))
    }

    /// An owned copy of the page spilled under `root`
    /// ([`SpillStore::with_page`] for callers that keep the bytes).
    ///
    /// # Errors
    ///
    /// As [`SpillStore::with_page`].
    pub fn get(&self, root: &H256) -> io::Result<Option<Vec<u8>>> {
        self.with_page(root, <[u8]>::to_vec)
    }

    /// Drops `root` from the index, so the next [`SpillStore::put`]
    /// under it appends a fresh record: how a reader retires a record
    /// that failed to decode. Returns whether one was indexed. Only the
    /// open handle forgets; a reopen's scan indexes the file again.
    pub fn forget(&self, root: &H256) -> bool {
        self.locked().index.remove(root).is_some()
    }

    /// Whether a page is stored under `root`.
    pub fn contains(&self, root: &H256) -> bool {
        self.locked().index.contains_key(root)
    }

    /// Number of spilled pages.
    pub fn len(&self) -> usize {
        self.locked().index.len()
    }

    /// Whether no pages have been spilled.
    pub fn is_empty(&self) -> bool {
        self.locked().index.is_empty()
    }

    /// Bytes on disk (frames, keys and pages).
    pub fn disk_bytes(&self) -> u64 {
        self.locked().segment.file_bytes()
    }

    /// Fsyncs spilled pages to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on fsync failure.
    pub fn sync(&self) -> io::Result<()> {
        self.locked().segment.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(n: u8) -> H256 {
        H256::new([n; 32])
    }

    #[test]
    fn spill_and_rehydrate() {
        let dir = crate::scratch_dir("spill").unwrap();
        let store = SpillStore::open(&dir).unwrap();
        store.put(root(1), b"page-one").unwrap();
        store.put(root(2), b"").unwrap();
        assert_eq!(store.get(&root(1)).unwrap(), Some(b"page-one".to_vec()));
        assert_eq!(store.get(&root(2)).unwrap(), Some(Vec::new()));
        assert_eq!(store.get(&root(3)).unwrap(), None);
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A spill file byte for byte as the format lays it out (the CRCs
    /// are zlib's): `"page-one"` under root `0x11…`, the empty page
    /// under `0x22…`, a later record under `0x11…` again (the first
    /// one wins), then a torn tail announcing 40 bytes of which 36
    /// reached the disk.
    fn fixture() -> Vec<u8> {
        let frames: [(&[u8], u8, &[u8]); 4] = [
            (&[0x28, 0, 0, 0, 0xf3, 0x0c, 0xc0, 0x90], 0x11, b"page-one"),
            (&[0x20, 0, 0, 0, 0x06, 0xb9, 0xfd, 0x88], 0x22, b""),
            (&[0x28, 0, 0, 0, 0x4d, 0x0f, 0x35, 0xd7], 0x11, b"shadowed"),
            (&[0x28, 0, 0, 0, 0x04, 0x03, 0x02, 0x01], 0x33, b"torn"),
        ];
        let mut bytes = Vec::new();
        for (header, key, page) in frames {
            bytes.extend_from_slice(header);
            bytes.extend_from_slice(&[key; 32]);
            bytes.extend_from_slice(page);
        }
        bytes
    }
    /// Bytes of [`fixture`] before the torn frame.
    const FIXTURE_VALID: usize = 136;

    #[test]
    fn fixture_in_the_on_disk_format_opens_indexes_and_reads() {
        let dir = crate::scratch_dir("spill-fixture").unwrap();
        let path = dir.join("spill.seg");
        std::fs::write(&path, fixture()).unwrap();
        let store = SpillStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2, "two distinct roots survive the scan");
        assert_eq!(store.disk_bytes(), FIXTURE_VALID as u64);
        assert_eq!(std::fs::read(&path).unwrap(), &fixture()[..FIXTURE_VALID]);
        assert_eq!(store.get(&root(0x11)).unwrap(), Some(b"page-one".to_vec()));
        assert_eq!(store.get(&root(0x22)).unwrap(), Some(Vec::new()));
        assert_eq!(store.get(&root(0x33)).unwrap(), None, "torn, never indexed");
        assert_eq!(
            store.with_page(&root(0x11), <[u8]>::len).unwrap(),
            Some(b"page-one".len())
        );

        // A bit of the first page rots after open: reading it is an
        // error, not the wrong page; its neighbour is untouched.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 32] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let err = store.get(&root(0x11)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(store.with_page(&root(0x11), <[u8]>::len).is_err());
        assert_eq!(store.get(&root(0x22)).unwrap(), Some(Vec::new()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn duplicate_put_is_noop() {
        let dir = crate::scratch_dir("dup").unwrap();
        let store = SpillStore::open(&dir).unwrap();
        store.put(root(9), b"first").unwrap();
        let bytes = store.disk_bytes();
        store.put(root(9), b"second-ignored").unwrap();
        assert_eq!(store.disk_bytes(), bytes);
        assert_eq!(store.get(&root(9)).unwrap(), Some(b"first".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_forgotten_root_is_written_again() {
        let dir = crate::scratch_dir("forget").unwrap();
        let store = SpillStore::open(&dir).unwrap();
        store.put(root(4), b"stale").unwrap();
        assert!(store.forget(&root(4)));
        assert!(!store.forget(&root(4)), "nothing left to forget");
        assert_eq!(store.get(&root(4)).unwrap(), None);
        let bytes = store.disk_bytes();
        store.put(root(4), b"fresh").unwrap();
        assert!(store.disk_bytes() > bytes, "a new record was appended");
        assert_eq!(store.get(&root(4)).unwrap(), Some(b"fresh".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Arbitrary pages round-trip byte-identical through spill,
        /// reopen, and a torn-tail crash: every record the recovered
        /// index still knows reads back exactly as stored.
        #[test]
        fn pages_round_trip_and_survive_torn_tails(
            pages in proptest::collection::vec(
                // Seeds stay below the 0xfe probe root used after the crash.
                (0u8..0xf0, proptest::collection::vec(proptest::prelude::any::<u8>(), 0..200)),
                1..12,
            ),
            cut_frac in 0u64..1000,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let dir = crate::scratch_dir("spill-props").unwrap();
            // Dedup by root: content addressing makes later duplicates no-ops.
            let mut expected: Vec<(H256, Vec<u8>)> = Vec::new();
            {
                let store = SpillStore::open(&dir).unwrap();
                for (seed, page) in &pages {
                    store.put(root(*seed), page).unwrap();
                    if !expected.iter().any(|(r, _)| *r == root(*seed)) {
                        expected.push((root(*seed), page.clone()));
                    }
                }
                store.sync().unwrap();
                for (r, page) in &expected {
                    prop_assert_eq!(store.get(r).unwrap().as_deref(), Some(page.as_slice()));
                }
            }
            // Clean reopen: the scan-rebuilt index serves the same bytes.
            {
                let store = SpillStore::open(&dir).unwrap();
                prop_assert_eq!(store.len(), expected.len());
                for (r, page) in &expected {
                    prop_assert_eq!(store.get(r).unwrap().as_deref(), Some(page.as_slice()));
                }
            }
            // Crash: chop the segment at an arbitrary byte. Recovery
            // keeps a prefix of the puts, each still byte-identical;
            // the rest read as absent, never as wrong bytes.
            let path = dir.join("spill.seg");
            let total = std::fs::metadata(&path).unwrap().len();
            let cut = total * cut_frac / 1000;
            std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let store = SpillStore::open(&dir).unwrap();
            prop_assert!(store.len() <= expected.len());
            let survivors = store.len();
            for (i, (r, page)) in expected.iter().enumerate() {
                let read = store.get(r).unwrap();
                if i < survivors {
                    prop_assert_eq!(read.as_deref(), Some(page.as_slice()));
                } else {
                    prop_assert_eq!(read, None);
                }
            }
            // The store stays writable after recovery.
            store.put(root(0xfe), b"post-crash").unwrap();
            prop_assert_eq!(store.get(&root(0xfe)).unwrap(), Some(b"post-crash".to_vec()));
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn reopen_rebuilds_index() {
        let dir = crate::scratch_dir("reopen").unwrap();
        {
            let store = SpillStore::open(&dir).unwrap();
            for n in 0..10u8 {
                store.put(root(n), &[n; 100]).unwrap();
            }
            store.sync().unwrap();
        }
        let store = SpillStore::open(&dir).unwrap();
        assert_eq!(store.len(), 10);
        assert_eq!(store.get(&root(7)).unwrap(), Some(vec![7u8; 100]));
        assert!(store.contains(&root(0)));
        let _ = std::fs::remove_dir_all(dir);
    }
}
