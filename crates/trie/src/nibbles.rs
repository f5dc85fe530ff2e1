//! Nibble paths and the hex-prefix (HP) encoding from the Ethereum yellow
//! paper, appendix C.

/// Expands a byte key into its nibble path (two nibbles per byte, high
/// nibble first).
pub fn bytes_to_nibbles(key: &[u8]) -> Vec<u8> {
    let mut nibbles = Vec::with_capacity(key.len() * 2);
    for &b in key {
        nibbles.push(b >> 4);
        nibbles.push(b & 0x0f);
    }
    nibbles
}

/// Hex-prefix encodes a nibble path.
///
/// The first nibble of the output carries two flags: bit 1 marks a leaf
/// node (vs. extension), bit 0 marks an odd-length path.
pub fn hp_encode(nibbles: &[u8], is_leaf: bool) -> Vec<u8> {
    let odd = nibbles.len() % 2 == 1;
    let mut flag = if is_leaf { 0x20u8 } else { 0x00u8 };
    let mut out = Vec::with_capacity(nibbles.len() / 2 + 1);
    let mut rest = nibbles;
    if odd {
        flag |= 0x10;
        out.push(flag | nibbles[0]);
        rest = &nibbles[1..];
    } else {
        out.push(flag);
    }
    for pair in rest.chunks_exact(2) {
        out.push((pair[0] << 4) | pair[1]);
    }
    out
}

/// Nibble `index` of `bytes` (high nibble of each byte first), if in range.
pub(crate) fn nibble_at(bytes: &[u8], index: usize) -> Option<u8> {
    let byte = *bytes.get(index / 2)?;
    Some(if index & 1 == 0 {
        byte >> 4
    } else {
        byte & 0x0f
    })
}

/// A hex-prefix encoded path read in place: the flags are checked once
/// and nibbles come straight out of the encoded bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HpPath<'a> {
    encoded: &'a [u8],
    /// Index in `encoded`'s nibble stream of the path's first nibble: 1
    /// for an odd path (it shares the flag byte), 2 for an even one.
    start: usize,
    pub(crate) is_leaf: bool,
}

impl<'a> HpPath<'a> {
    /// Reads the flag nibble; `None` on an empty input, an invalid flag,
    /// or a nonzero padding nibble on an even path.
    pub(crate) fn parse(encoded: &'a [u8]) -> Option<Self> {
        let first = *encoded.first()?;
        let flag = first >> 4;
        if flag > 3 {
            return None;
        }
        let odd = flag & 0x1 != 0;
        if !odd && first & 0x0f != 0 {
            return None; // padding nibble must be zero for even paths
        }
        Some(HpPath {
            encoded,
            start: if odd { 1 } else { 2 },
            is_leaf: flag & 0x2 != 0,
        })
    }

    /// Number of nibbles in the path.
    pub(crate) fn len(&self) -> usize {
        self.encoded.len() * 2 - self.start
    }

    /// The path's nibbles in order.
    pub(crate) fn nibbles(&self) -> impl Iterator<Item = u8> + 'a {
        let encoded = self.encoded;
        (self.start..encoded.len() * 2).filter_map(move |i| nibble_at(encoded, i))
    }
}

/// Decodes a hex-prefix encoded path into `(nibbles, is_leaf)`.
///
/// Returns `None` on an empty input or invalid flag nibble.
pub fn hp_decode(encoded: &[u8]) -> Option<(Vec<u8>, bool)> {
    let path = HpPath::parse(encoded)?;
    let mut nibbles = Vec::with_capacity(path.len());
    nibbles.extend(path.nibbles());
    Some((nibbles, path.is_leaf))
}

/// Length of the longest common prefix of two nibble slices.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_expand_high_nibble_first() {
        assert_eq!(bytes_to_nibbles(&[0xab, 0x10]), vec![0xa, 0xb, 0x1, 0x0]);
        assert_eq!(bytes_to_nibbles(&[]), Vec::<u8>::new());
    }

    // Yellow-paper appendix C examples.
    #[test]
    fn hp_yellow_paper_vectors() {
        // [1, 2, 3, 4, 5] extension (odd) -> 0x11 0x23 0x45
        assert_eq!(hp_encode(&[1, 2, 3, 4, 5], false), vec![0x11, 0x23, 0x45]);
        // [0, 1, 2, 3, 4, 5] extension (even) -> 0x00 0x01 0x23 0x45
        assert_eq!(
            hp_encode(&[0, 1, 2, 3, 4, 5], false),
            vec![0x00, 0x01, 0x23, 0x45]
        );
        // [0, f, 1, c, b, 8] leaf? No: [f, 1, c, b, 8, 10] in the paper uses
        // the terminator; here: odd leaf [f, 1, c, b, 8] -> 0x3f 0x1c 0xb8
        assert_eq!(
            hp_encode(&[0xf, 1, 0xc, 0xb, 8], true),
            vec![0x3f, 0x1c, 0xb8]
        );
        // even leaf [0, f, 1, c, b, 8] -> 0x20 0x0f 0x1c 0xb8
        assert_eq!(
            hp_encode(&[0, 0xf, 1, 0xc, 0xb, 8], true),
            vec![0x20, 0x0f, 0x1c, 0xb8]
        );
    }

    #[test]
    fn hp_roundtrip() {
        for len in 0..8 {
            for leaf in [false, true] {
                let nibbles: Vec<u8> = (0..len).map(|i| (i * 3 % 16) as u8).collect();
                let encoded = hp_encode(&nibbles, leaf);
                assert_eq!(hp_decode(&encoded), Some((nibbles.clone(), leaf)));
            }
        }
    }

    #[test]
    fn hp_decode_rejects_bad_flags() {
        assert_eq!(hp_decode(&[]), None);
        assert_eq!(hp_decode(&[0x40]), None); // flag nibble 4 is invalid
        assert_eq!(hp_decode(&[0x01]), None); // even path with nonzero pad
    }

    #[test]
    fn common_prefix() {
        assert_eq!(common_prefix_len(&[1, 2, 3], &[1, 2, 4]), 2);
        assert_eq!(common_prefix_len(&[1, 2], &[1, 2]), 2);
        assert_eq!(common_prefix_len(&[], &[1]), 0);
        assert_eq!(common_prefix_len(&[5], &[6]), 0);
    }
}
