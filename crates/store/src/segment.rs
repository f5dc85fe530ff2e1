//! Append-only segment files: framed, checksummed records with an
//! offset index rebuilt by scan on open and torn-write recovery.

use crate::checksum::crc32;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Bytes of framing per record: `[len: u32 LE][crc32: u32 LE]`.
const FRAME_HEADER: u64 = 8;

/// Read-ahead of the open scan. A record longer than this is read
/// straight into the scan's one reused payload buffer, so opening
/// holds this plus the largest record in memory, never the file.
const SCAN_BUFFER_BYTES: usize = 64 * 1024;

/// One append-only file of framed records.
///
/// On-disk layout is a back-to-back sequence of
/// `[len u32 LE][crc32(payload) u32 LE][payload]` frames. Opening
/// scans the file front to back, rebuilding the in-memory offset
/// index; the scan stops at the first frame that is truncated or
/// whose checksum fails, and the file is truncated back to the end
/// of the last valid record — a torn tail from a crash is dropped,
/// never served.
///
/// Appends go through the OS page cache; [`SegmentFile::sync`]
/// fsyncs the tail. Every read re-verifies the stored checksum so a
/// record that rots after open surfaces as an error, not as wrong
/// bytes. Reads and appends are positional (`pread`/`pwrite`): the
/// handle has no cursor to move, so reading takes `&self`.
#[derive(Debug)]
pub struct SegmentFile {
    file: File,
    /// Per-record `(payload offset, payload len, crc)`; the index is
    /// bounded by construction — one entry per record on disk, and
    /// [`SegmentFile::truncate_records`] shrinks it in lockstep with
    /// the file (see also `len()`).
    offsets: Vec<(u64, u32, u32)>,
    /// Logical end of file: offset of the next frame to append.
    tail: u64,
    /// Bytes dropped by torn-write recovery at open.
    dropped_bytes: u64,
}

impl SegmentFile {
    /// Opens (creating if absent) the segment at `path`, scanning it
    /// to rebuild the record index and truncating any torn tail.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// opened, read, or truncated.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Self::open_with(path, |_, _| {})
    }

    /// [`SegmentFile::open`], handing `visit` the index and payload of
    /// every record the scan keeps — how a store that indexes records
    /// by their contents builds that index from the one pass that
    /// verifies the checksums, instead of reading the file twice.
    ///
    /// # Errors
    ///
    /// As [`SegmentFile::open`].
    pub fn open_with<P, F>(path: P, mut visit: F) -> io::Result<Self>
    where
        P: AsRef<Path>,
        F: FnMut(u64, &[u8]),
    {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(SCAN_BUFFER_BYTES, &file);
        let mut offsets = Vec::new();
        let mut payload = Vec::new();
        let mut tail = 0u64;
        while file_len - tail >= FRAME_HEADER {
            let mut header = [0u8; FRAME_HEADER as usize];
            reader.read_exact(&mut header)?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            let start = tail + FRAME_HEADER;
            // A length that overruns the file is a torn (or rotten)
            // frame: it ends the scan before anything is allocated.
            if u64::from(len) > file_len - start {
                break;
            }
            payload.resize(len as usize, 0);
            reader.read_exact(&mut payload)?;
            if crc32(&payload) != crc {
                break;
            }
            visit(offsets.len() as u64, &payload);
            offsets.push((start, len, crc));
            tail = start + u64::from(len);
        }
        let dropped_bytes = file_len - tail;
        if dropped_bytes > 0 {
            file.set_len(tail)?;
            file.sync_data()?;
        }
        Ok(SegmentFile {
            file,
            offsets,
            tail,
            dropped_bytes,
        })
    }

    /// Appends one record and returns its index. The write lands in
    /// the OS page cache; call [`SegmentFile::sync`] to make it
    /// durable.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the payload exceeds `u32::MAX`
    /// bytes, or the underlying I/O error on write failure.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let len = u32::try_from(payload.len())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record exceeds u32 bytes"))?;
        let crc = crc32(payload);
        let mut frame = Vec::with_capacity(FRAME_HEADER as usize + payload.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc.to_le_bytes());
        frame.extend_from_slice(payload);
        self.file.write_all_at(&frame, self.tail)?;
        let index = self.offsets.len() as u64;
        self.offsets.push((self.tail + FRAME_HEADER, len, crc));
        self.tail += frame.len() as u64;
        Ok(index)
    }

    /// Reads record `index` with one positional read, re-verifying
    /// its checksum.
    ///
    /// Returns `Ok(None)` when no such record exists.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` when the stored bytes no longer match
    /// their checksum, or the underlying I/O error on read failure.
    pub fn get(&self, index: u64) -> io::Result<Option<Vec<u8>>> {
        let slot = usize::try_from(index)
            .ok()
            .and_then(|i| self.offsets.get(i).copied());
        let Some((offset, len, crc)) = slot else {
            return Ok(None);
        };
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact_at(&mut payload, offset)?;
        if crc32(&payload) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "segment record failed checksum on read",
            ));
        }
        Ok(Some(payload))
    }

    /// Truncates the segment to its first `keep` records (no-op when
    /// it already holds that many or fewer).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be
    /// truncated.
    pub fn truncate_records(&mut self, keep: u64) -> io::Result<()> {
        let keep = usize::try_from(keep).unwrap_or(usize::MAX);
        if keep >= self.offsets.len() {
            return Ok(());
        }
        let end = self.offsets[keep].0 - FRAME_HEADER;
        self.file.set_len(end)?;
        self.offsets.truncate(keep);
        self.tail = end;
        Ok(())
    }

    /// Fsyncs appended records to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on fsync failure.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    /// Number of valid records.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the segment holds no records.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Logical file size in bytes (frames plus payloads).
    pub fn file_bytes(&self) -> u64 {
        self.tail
    }

    /// Bytes dropped by torn-write recovery when this handle opened
    /// the file.
    pub fn dropped_bytes(&self) -> u64 {
        self.dropped_bytes
    }
}

/// Packs a list of byte items into one record payload
/// (`[len u32 LE][bytes]` per item), the inverse of [`decode_items`].
pub fn encode_items<I, A>(items: I) -> Vec<u8>
where
    I: IntoIterator<Item = A>,
    A: AsRef<[u8]>,
{
    let mut out = Vec::new();
    for item in items {
        let bytes = item.as_ref();
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

/// Unpacks a record payload produced by [`encode_items`].
///
/// Returns `None` when the payload is malformed (an item length
/// overruns the record) — callers treat that as a missing record, not
/// a panic.
pub fn decode_items(record: &[u8]) -> Option<Vec<Vec<u8>>> {
    let mut items = Vec::new();
    let mut pos = 0usize;
    while pos < record.len() {
        let header = record.get(pos..pos + 4)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let item = record.get(pos + 4..pos + 4 + len)?;
        items.push(item.to_vec());
        pos += 4 + len;
    }
    Some(items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::{Seek, SeekFrom, Write};

    fn scratch_segment(tag: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = crate::scratch_dir(tag).unwrap();
        let path = dir.join("seg.bin");
        (dir, path)
    }

    #[test]
    fn round_trip_and_reopen() {
        let (dir, path) = scratch_segment("roundtrip");
        let records: Vec<Vec<u8>> = (0..50u32)
            .map(|i| vec![i as u8; (i as usize * 7) % 97])
            .collect();
        {
            let mut seg = SegmentFile::open(&path).unwrap();
            for (i, record) in records.iter().enumerate() {
                assert_eq!(seg.append(record).unwrap(), i as u64);
            }
            seg.sync().unwrap();
        }
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.len(), records.len());
        assert_eq!(seg.dropped_bytes(), 0);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(
                seg.get(i as u64).unwrap().as_deref(),
                Some(record.as_slice())
            );
        }
        assert_eq!(seg.get(records.len() as u64).unwrap(), None);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A segment byte for byte as the format lays it out — and as the
    /// byte-at-a-time checksum loop this crate used to ship wrote it;
    /// the CRCs are zlib's. Three records (`"123456789"`, the empty
    /// record, `"a"`), then a torn tail: a frame announcing five bytes
    /// of which two reached the disk.
    const FIXTURE: &[u8] = &[
        0x09, 0x00, 0x00, 0x00, 0x26, 0x39, 0xf4, 0xcb, // len 9, crc 0xCBF43926
        0x31, 0x32, 0x33, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, // "123456789"
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // len 0, crc 0
        0x01, 0x00, 0x00, 0x00, 0x43, 0xbe, 0xb7, 0xe8, // len 1, crc 0xE8B7BE43
        0x61, // "a"
        0x05, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, // len 5, any crc
        0x78, 0x79, // "xy", then the crash
    ];
    /// Bytes of [`FIXTURE`] before the torn frame.
    const FIXTURE_VALID: usize = 34;

    #[test]
    fn fixture_in_the_on_disk_format_opens_truncates_and_reads() {
        let (dir, path) = scratch_segment("fixture");
        std::fs::write(&path, FIXTURE).unwrap();
        let mut visited = Vec::new();
        let mut seg = SegmentFile::open_with(&path, |index, payload: &[u8]| {
            visited.push((index, payload.to_vec()));
        })
        .unwrap();
        let records: [&[u8]; 3] = [b"123456789", b"", b"a"];
        assert_eq!(seg.len(), 3);
        assert_eq!(seg.file_bytes(), FIXTURE_VALID as u64);
        assert_eq!(seg.dropped_bytes(), (FIXTURE.len() - FIXTURE_VALID) as u64);
        assert_eq!(std::fs::read(&path).unwrap(), &FIXTURE[..FIXTURE_VALID]);
        for (i, record) in records.iter().enumerate() {
            assert_eq!(visited[i], (i as u64, record.to_vec()), "scan visit {i}");
            assert_eq!(seg.get(i as u64).unwrap().as_deref(), Some(*record));
        }
        assert_eq!(visited.len(), 3);
        assert_eq!(seg.get(3).unwrap(), None);

        // The other direction: what this build appends is the frame the
        // format (and the fixture) spells out for the same payload.
        seg.append(b"a").unwrap();
        let mut expected = FIXTURE[..FIXTURE_VALID].to_vec();
        expected.extend_from_slice(&FIXTURE[25..FIXTURE_VALID]);
        assert_eq!(std::fs::read(&path).unwrap(), expected);

        // A bit that rots after open: the scan vouched for the record
        // once, the read still checks it, and the damage stays local.
        let mut file = OpenOptions::new().write(true).open(&path).unwrap();
        file.seek(SeekFrom::Start(8)).unwrap();
        file.write_all(&[b'1' ^ 0x04]).unwrap();
        drop(file);
        let err = seg.get(0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(seg.get(2).unwrap().as_deref(), Some(&b"a"[..]));
        assert_eq!(seg.get(3).unwrap().as_deref(), Some(&b"a"[..]));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn empty_records_are_valid() {
        let (dir, path) = scratch_segment("empty");
        let mut seg = SegmentFile::open(&path).unwrap();
        seg.append(b"").unwrap();
        seg.append(b"x").unwrap();
        drop(seg);
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.get(0).unwrap(), Some(Vec::new()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn truncate_records_drops_tail() {
        let (dir, path) = scratch_segment("trunc");
        let mut seg = SegmentFile::open(&path).unwrap();
        for i in 0..10u8 {
            seg.append(&[i; 16]).unwrap();
        }
        seg.truncate_records(4).unwrap();
        assert_eq!(seg.len(), 4);
        assert_eq!(seg.get(3).unwrap(), Some(vec![3u8; 16]));
        assert_eq!(seg.get(4).unwrap(), None);
        // Appends continue cleanly after a truncation.
        seg.append(b"new").unwrap();
        drop(seg);
        let seg = SegmentFile::open(&path).unwrap();
        assert_eq!(seg.len(), 5);
        assert_eq!(seg.get(4).unwrap(), Some(b"new".to_vec()));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn item_packing_round_trips() {
        let items: Vec<Vec<u8>> = vec![vec![], vec![1], vec![2; 300]];
        let packed = encode_items(&items);
        assert_eq!(decode_items(&packed), Some(items));
        assert_eq!(decode_items(&[]), Some(Vec::new()));
        // Truncated item length overruns the record: malformed, not a panic.
        assert_eq!(decode_items(&[5, 0, 0, 0, 1]), None);
        assert_eq!(decode_items(&[1, 0, 0]), None);
    }

    /// Writes `records` to a fresh segment file and returns its path.
    fn written_segment(dir: &std::path::Path, records: &[Vec<u8>]) -> std::path::PathBuf {
        let path = dir.join("seg.bin");
        let mut seg = SegmentFile::open(&path).unwrap();
        for record in records {
            seg.append(record).unwrap();
        }
        seg.sync().unwrap();
        path
    }

    /// Asserts the segment at `path` opens to a valid prefix of
    /// `records` and returns the recovered count.
    fn assert_recovers_prefix(path: &std::path::Path, records: &[Vec<u8>]) -> usize {
        let seg = SegmentFile::open(path).unwrap();
        let recovered = seg.len();
        assert!(recovered <= records.len());
        for (i, record) in records.iter().take(recovered).enumerate() {
            assert_eq!(
                seg.get(i as u64).unwrap().as_deref(),
                Some(record.as_slice()),
                "recovered record {i} diverged"
            );
        }
        recovered
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Torn write: chopping the file at any byte recovers a valid
        /// prefix — every surviving record byte-identical, tail dropped,
        /// no panic.
        #[test]
        fn prefix_truncation_recovers(
            sizes in proptest::collection::vec(0usize..40, 1..12),
            cut_frac in 0u64..1000,
        ) {
            let dir = crate::scratch_dir("torn").unwrap();
            let records: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| vec![(i as u8).wrapping_mul(37); n])
                .collect();
            let path = written_segment(&dir, &records);
            let total = std::fs::metadata(&path).unwrap().len();
            let cut = total * cut_frac / 1000;
            OpenOptions::new()
                .write(true)
                .open(&path)
                .unwrap()
                .set_len(cut)
                .unwrap();
            let recovered = assert_recovers_prefix(&path, &records);
            if cut == total {
                prop_assert_eq!(recovered, records.len());
            }
            // Recovery is stable: a second open drops nothing further.
            let seg = SegmentFile::open(&path).unwrap();
            prop_assert_eq!(seg.len(), recovered);
            prop_assert_eq!(seg.dropped_bytes(), 0);
            let _ = std::fs::remove_dir_all(dir);
        }

        /// Flipping any single byte anywhere in the file recovers a
        /// valid prefix on open: records before the damaged frame are
        /// served byte-identical, the checksummed tail is dropped.
        #[test]
        fn single_byte_corruption_recovers(
            sizes in proptest::collection::vec(1usize..40, 1..12),
            pos_frac in 0u64..1000,
            flip in 1u8..255,
        ) {
            let dir = crate::scratch_dir("flip").unwrap();
            let records: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| vec![(i as u8).wrapping_mul(59).wrapping_add(1); n])
                .collect();
            let path = written_segment(&dir, &records);
            let total = std::fs::metadata(&path).unwrap().len();
            let pos = (total - 1) * pos_frac / 1000;
            let mut file = OpenOptions::new().read(true).write(true).open(&path).unwrap();
            let mut byte = [0u8; 1];
            file.seek(SeekFrom::Start(pos)).unwrap();
            file.read_exact(&mut byte).unwrap();
            byte[0] ^= flip;
            file.seek(SeekFrom::Start(pos)).unwrap();
            file.write_all(&byte).unwrap();
            drop(file);
            let recovered = assert_recovers_prefix(&path, &records);
            prop_assert!(recovered < records.len(), "corruption must drop the damaged tail");
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}
