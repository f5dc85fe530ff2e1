//! Keccak-256 as used by Ethereum.
//!
//! This is the *original* Keccak submission (domain/padding byte `0x01`),
//! not the later FIPS-202 SHA3-256 (`0x06`). Ethereum block hashes, trie
//! node hashes, transaction hashes and address derivation all use this
//! variant.

use parp_primitives::H256;

const ROUNDS: usize = 24;
/// Sponge rate for a 256-bit capacity: 1600 - 2*256 = 1088 bits = 136 bytes.
const RATE: usize = 136;

const ROUND_CONSTANTS: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

/// Rotation offsets for the rho step, indexed `[x][y]` flattened as `x + 5y`.
const ROTATION: [u32; 25] = [
    0, 1, 62, 28, 27, //
    36, 44, 6, 55, 20, //
    3, 10, 43, 25, 39, //
    41, 45, 15, 21, 8, //
    18, 2, 61, 56, 14,
];

fn keccak_f1600(state: &mut [u64; 25]) {
    for &rc in &ROUND_CONSTANTS {
        // theta
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // rho + pi
        let mut b = [0u64; 25];
        for x in 0..5 {
            for y in 0..5 {
                // B[y, 2x+3y] = rot(A[x, y], r[x, y])
                let target = y + 5 * ((2 * x + 3 * y) % 5);
                b[target] = state[x + 5 * y].rotate_left(ROTATION[x + 5 * y]);
            }
        }
        // chi
        for y in 0..5 {
            for x in 0..5 {
                state[x + 5 * y] =
                    b[x + 5 * y] ^ (!b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);
            }
        }
        // iota
        state[0] ^= rc;
    }
}

/// XORs one rate-sized block into the sponge state. `block` must be
/// exactly [`RATE`] bytes; reading lanes straight off the input slice
/// avoids the buffer copy the incremental path pays per block.
fn xor_block(state: &mut [u64; 25], block: &[u8]) {
    debug_assert_eq!(block.len(), RATE);
    for (lane, chunk) in state.iter_mut().zip(block.chunks_exact(8)) {
        *lane ^= u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
}

/// Absorbs a complete message (including padding) into `state`.
fn absorb_all(state: &mut [u64; 25], data: &[u8]) {
    let mut chunks = data.chunks_exact(RATE);
    for block in chunks.by_ref() {
        xor_block(state, block);
        keccak_f1600(state);
    }
    // Original Keccak multi-rate padding: 0x01 .. 0x80 (0x81 if one byte).
    let rem = chunks.remainder();
    let mut last = [0u8; RATE];
    last[..rem.len()].copy_from_slice(rem);
    last[rem.len()] ^= 0x01;
    last[RATE - 1] ^= 0x80;
    xor_block(state, &last);
    keccak_f1600(state);
}

/// Squeezes the 32-byte digest out of an absorbed state.
fn squeeze(state: &[u64; 25]) -> H256 {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&state[i].to_le_bytes());
    }
    H256::new(out)
}

/// Incremental Keccak-256 hasher.
///
/// # Examples
///
/// ```
/// use parp_crypto::Keccak256;
///
/// let mut hasher = Keccak256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), parp_crypto::keccak256(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Keccak256 {
    state: [u64; 25],
    buffer: [u8; RATE],
    buffered: usize,
}

impl Default for Keccak256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Keccak256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keccak256")
            .field("buffered", &self.buffered)
            .finish_non_exhaustive()
    }
}

impl Keccak256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Keccak256 {
            state: [0u64; 25],
            buffer: [0u8; RATE],
            buffered: 0,
        }
    }

    /// Absorbs `data` into the sponge.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        if self.buffered > 0 {
            let take = (RATE - self.buffered).min(input.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&input[..take]);
            self.buffered += take;
            input = &input[take..];
            if self.buffered == RATE {
                let block = self.buffer;
                self.absorb_block(&block);
                self.buffered = 0;
            }
        }
        while input.len() >= RATE {
            let (block, rest) = input.split_at(RATE);
            xor_block(&mut self.state, block);
            keccak_f1600(&mut self.state);
            input = rest;
        }
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffered = input.len();
        }
    }

    fn absorb_block(&mut self, block: &[u8; RATE]) {
        xor_block(&mut self.state, block);
        keccak_f1600(&mut self.state);
    }

    /// Pads, squeezes and returns the 32-byte digest.
    pub fn finalize(mut self) -> H256 {
        // Original Keccak multi-rate padding: 0x01 .. 0x80 (0x81 if one byte).
        let mut block = [0u8; RATE];
        block[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        block[self.buffered] ^= 0x01;
        block[RATE - 1] ^= 0x80;
        self.absorb_block(&block);
        squeeze(&self.state)
    }
}

/// One-shot Keccak-256.
///
/// Independent inputs — the nodes of a trie level, say — are hashed one
/// call each. A batch entry point earns its place only with a
/// lane-parallel permutation behind it that hashes several inputs at
/// once; a loop over this function is what it would otherwise be.
///
/// # Examples
///
/// ```
/// let digest = parp_crypto::keccak256(b"");
/// assert_eq!(
///     digest.to_string(),
///     "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
/// );
/// ```
pub fn keccak256(data: &[u8]) -> H256 {
    // One-shot absorb: full blocks are XORed straight off `data`, skipping
    // the incremental hasher's per-block buffer copies.
    let mut state = [0u64; 25];
    absorb_all(&mut state, data);
    squeeze(&state)
}

/// Keccak-256 over the concatenation of several byte slices, without
/// intermediate allocation.
pub fn keccak256_concat(parts: &[&[u8]]) -> H256 {
    let mut hasher = Keccak256::new();
    for part in parts {
        hasher.update(part);
    }
    hasher.finalize()
}

/// HMAC instantiated with Keccak-256 (block size 136 bytes).
///
/// Used for deterministic ECDSA nonce derivation (RFC 6979 with the hash
/// swapped for Keccak-256, which this prototype standardizes on).
pub fn hmac_keccak256(key: &[u8], parts: &[&[u8]]) -> H256 {
    HmacKey::new(key).mac(parts)
}

/// An HMAC-Keccak-256 key with its ipad and opad blocks absorbed: the
/// two sponge states every MAC under the key starts from. Absorbing a
/// block is one Keccak-f permutation, so a key used `n` times costs two
/// permutations once instead of on each of the `n` calls.
#[derive(Clone)]
pub(crate) struct HmacKey {
    inner: Keccak256,
    outer: Keccak256,
}

impl HmacKey {
    /// Absorbs `key`'s ipad and opad blocks (a key longer than a block
    /// is hashed first, as HMAC prescribes).
    pub(crate) fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; RATE];
        if key.len() > RATE {
            let digest = keccak256(key);
            key_block[..32].copy_from_slice(digest.as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0x36u8; RATE];
        let mut opad = [0x5cu8; RATE];
        for i in 0..RATE {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }
        let mut inner = Keccak256::new();
        inner.update(&ipad);
        let mut outer = Keccak256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// The MAC of the concatenation of `parts` under this key.
    pub(crate) fn mac(&self, parts: &[&[u8]]) -> H256 {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        keccak256(data).to_string()
    }

    #[test]
    fn empty_string_vector() {
        // Canonical Ethereum empty-keccak constant.
        assert_eq!(
            hex_digest(b""),
            "0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex_digest(b"abc"),
            "0x4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn hello_vector() {
        // keccak256("hello") — widely published Ethereum example.
        assert_eq!(
            hex_digest(b"hello"),
            "0x1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8"
        );
    }

    #[test]
    fn empty_rlp_list_vector() {
        // keccak256(rlp([])) = keccak256(0xc0): the empty ommers hash in
        // every Ethereum block header.
        assert_eq!(
            hex_digest(&[0xc0]),
            "0x1dcc4de8dec75d7aab85b567b6ccd41ad312451b948a7413f0a142fd40d49347"
        );
    }

    #[test]
    fn rate_boundary_inputs() {
        // Exercise padding at and around the 136-byte rate boundary.
        for len in [135usize, 136, 137, 271, 272, 273] {
            let data = vec![0xabu8; len];
            let one_shot = keccak256(&data);
            let mut incremental = Keccak256::new();
            for chunk in data.chunks(17) {
                incremental.update(chunk);
            }
            assert_eq!(incremental.finalize(), one_shot, "length {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).collect();
        for split in [0usize, 1, 63, 128, 255, 256] {
            let mut hasher = Keccak256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            assert_eq!(hasher.finalize(), keccak256(&data));
        }
    }

    #[test]
    fn concat_matches_buffer() {
        assert_eq!(
            keccak256_concat(&[b"foo", b"bar", b""]),
            keccak256(b"foobar")
        );
    }

    #[test]
    fn hmac_is_deterministic_and_key_sensitive() {
        let a = hmac_keccak256(b"key", &[b"message"]);
        let b = hmac_keccak256(b"key", &[b"mess", b"age"]);
        assert_eq!(a, b);
        assert_ne!(a, hmac_keccak256(b"other", &[b"message"]));
        assert_ne!(a, hmac_keccak256(b"key", &[b"messagf"]));
    }

    #[test]
    fn hmac_known_answers() {
        // Recorded from the one-key-per-call implementation, before key
        // blocks were absorbed once per key.
        for (key, part, expected) in [
            (
                &b"key"[..],
                &b"The quick brown fox jumps over the lazy dog"[..],
                "0x74547bc8c8e1ef02aec834ca60ff24cc316d4c2244a360fe17448cb53410bed4",
            ),
            (
                &[0u8; 32][..],
                &b""[..],
                "0x042186ec4e98680a0866091d6fb89b60871134b44327f8f467c14e9841d3e97b",
            ),
            (
                &[0xaa; 200][..],
                &[0x55; 300][..],
                "0x8925a7dca95875f389d37cc8de206af26129f4bea268a14f765081b80d10f4bc",
            ),
        ] {
            assert_eq!(hmac_keccak256(key, &[part]).to_string(), expected);
        }
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let long_key = vec![7u8; 200];
        let digest = hmac_keccak256(&long_key, &[b"x"]);
        let hashed_key = keccak256(&long_key);
        assert_eq!(digest, hmac_keccak256(hashed_key.as_bytes(), &[b"x"]));
    }
}
