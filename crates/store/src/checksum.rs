//! CRC-32 (IEEE 802.3 polynomial), sliced table-driven, dependency-free.
//!
//! Segment records carry a CRC per payload so torn or bit-flipped
//! tails are detected on open and truncated away instead of being
//! served, and every read re-verifies its record. CRC-32 is the right
//! strength here: the threat model is crash corruption, not an
//! adversary forging records on the provider's own disk.
//!
//! A cold read checksums a whole trie page (~12 KB), so the loop runs
//! at word width: [`SLICES`] compile-time tables fold that many input
//! bytes into the register per step ("slicing-by-N"), breaking the
//! byte-at-a-time loop's one-table-lookup-per-byte dependency chain.
//! Same polynomial, same values — a checksum is a function of the
//! bytes alone, so files written before and after agree.

/// Reflected IEEE polynomial, as used by zlib/ethernet.
const POLY: u32 = 0xEDB8_8320;

/// Input bytes folded per step of the main loop.
const SLICES: usize = 16;

/// `TABLES[k][b]` is the CRC register after byte `b` followed by `k`
/// zero bytes; `TABLES[0]` is the classic byte-at-a-time table.
static TABLES: [[u32; 256]; SLICES] = {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (IEEE, reflected, init/xorout `0xFFFF_FFFF`) —
/// bit-compatible with zlib's `crc32`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        // The register only overlaps the block's first four bytes; the
        // byte at position `i` is followed by `SLICES - 1 - i` more.
        let head = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        crc = TABLES[SLICES - 1][(head & 0xFF) as usize]
            ^ TABLES[SLICES - 2][((head >> 8) & 0xFF) as usize]
            ^ TABLES[SLICES - 3][((head >> 16) & 0xFF) as usize]
            ^ TABLES[SLICES - 4][(head >> 24) as usize];
        for (i, &byte) in block.iter().enumerate().skip(4) {
            crc ^= TABLES[SLICES - 1 - i][byte as usize];
        }
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition, one bit at a time and no tables: the register
    /// after `byte` is folded into `crc` (before the final inversion).
    fn bitwise_step(mut crc: u32, byte: u8) -> u32 {
        crc ^= byte as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        // Longer than one sliced block (zlib's crc32 of the same bytes).
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = vec![0xA5u8; 1024];
        let base = crc32(&data);
        for i in [0usize, 511, 1023] {
            let mut corrupted = data.clone();
            corrupted[i] ^= 0x01;
            assert_ne!(crc32(&corrupted), base, "flip at {i} undetected");
        }
    }

    /// Longest buffer the differential covers: a 4 KiB page plus a few
    /// bytes, so every remainder length follows many sliced blocks.
    const MAX_LEN: usize = 4_099;
    /// Start offsets tried into the shared backing array.
    const STARTS: usize = 16;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// The sliced loop against the bit-at-a-time definition: every
        /// length `0..=MAX_LEN` at every start offset `0..STARTS` of
        /// one random backing array, so each block/remainder split is
        /// met at each alignment. The definition runs once per start
        /// and is read off at every prefix.
        #[test]
        fn sliced_matches_the_definition(
            backing in proptest::collection::vec(
                any::<u8>(),
                MAX_LEN + STARTS..MAX_LEN + STARTS + 1,
            ),
        ) {
            for start in 0..STARTS {
                let mut register = 0xFFFF_FFFFu32;
                for len in 0..=MAX_LEN {
                    prop_assert_eq!(
                        crc32(&backing[start..start + len]),
                        register ^ 0xFFFF_FFFF,
                        "start {} len {}",
                        start,
                        len
                    );
                    register = bitwise_step(register, backing[start + len]);
                }
            }
        }
    }
}
