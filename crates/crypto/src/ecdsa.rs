//! ECDSA over secp256k1 with public-key recovery, Ethereum-style.
//!
//! Signatures are 65 bytes `r || s || v` where `v ∈ {0, 1}` is the recovery
//! id (the parity of the nonce point's y-coordinate, adjusted when `s` is
//! normalized to the low half of the order, as required by Ethereum's
//! EIP-2 malleability rule).
//!
//! Nonces are deterministic, derived with an RFC-6979-style HMAC DRBG
//! instantiated with Keccak-256 (see [`crate::hmac_keccak256`]). This keeps
//! the whole stack self-contained and reproducible; it intentionally does
//! not match the HMAC-SHA256 nonces other libraries produce — signatures
//! remain verifiable by any standards-compliant verifier.

use crate::field::FieldElement;
use crate::keccak::HmacKey;
use crate::keys::{PublicKey, SecretKey};
use crate::point::{double_scalar_mul, mul_generator, AffinePoint, PointComb};
use crate::scalar::Scalar;
use parp_primitives::{Address, H256};
use std::error::Error;
use std::fmt;
use std::sync::OnceLock;

/// A recoverable ECDSA signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    r: [u8; 32],
    s: [u8; 32],
    v: u8,
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature(r=0x{}, s=0x{}, v={})",
            parp_primitives::to_hex(&self.r),
            parp_primitives::to_hex(&self.s),
            self.v
        )
    }
}

/// Errors produced when parsing or applying a signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// `r` or `s` is zero or not below the group order, or `s` is in the
    /// high half of the order (EIP-2).
    InvalidComponent,
    /// The recovery id is not 0 or 1.
    InvalidRecoveryId,
    /// Public-key recovery produced no valid point.
    RecoveryFailed,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::InvalidComponent => {
                write!(f, "signature component out of range or non-canonical")
            }
            SignatureError::InvalidRecoveryId => write!(f, "recovery id must be 0 or 1"),
            SignatureError::RecoveryFailed => write!(f, "public key recovery failed"),
        }
    }
}

impl Error for SignatureError {}

impl Signature {
    /// Byte length of the serialized form.
    pub const LEN: usize = 65;

    /// Serializes as 65 bytes `r || s || v`.
    pub fn to_bytes(&self) -> [u8; 65] {
        let mut out = [0u8; 65];
        out[..32].copy_from_slice(&self.r);
        out[32..64].copy_from_slice(&self.s);
        out[64] = self.v;
        out
    }

    /// Parses a 65-byte `r || s || v` encoding.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range `r`/`s`, high-`s` values and recovery ids other
    /// than 0/1.
    pub fn from_bytes(bytes: &[u8; 65]) -> Result<Self, SignatureError> {
        let mut r = [0u8; 32];
        let mut s = [0u8; 32];
        r.copy_from_slice(&bytes[..32]);
        s.copy_from_slice(&bytes[32..64]);
        let v = bytes[64];
        if v > 1 {
            return Err(SignatureError::InvalidRecoveryId);
        }
        let r_scalar = Scalar::from_be_bytes(&r).ok_or(SignatureError::InvalidComponent)?;
        let s_scalar = Scalar::from_be_bytes(&s).ok_or(SignatureError::InvalidComponent)?;
        if r_scalar.is_zero() || s_scalar.is_zero() || s_scalar.is_high() {
            return Err(SignatureError::InvalidComponent);
        }
        Ok(Signature { r, s, v })
    }

    /// The recovery id (0 or 1).
    pub fn v(&self) -> u8 {
        self.v
    }

    /// The `r` component as big-endian bytes.
    pub fn r_bytes(&self) -> &[u8; 32] {
        &self.r
    }

    /// The `s` component as big-endian bytes.
    pub fn s_bytes(&self) -> &[u8; 32] {
        &self.s
    }

    fn r_scalar(&self) -> Scalar {
        Scalar::from_be_bytes(&self.r).expect("validated at construction")
    }

    fn s_scalar(&self) -> Scalar {
        Scalar::from_be_bytes(&self.s).expect("validated at construction")
    }
}

/// Derives a deterministic nonce for `(secret, digest)` following the
/// RFC 6979 HMAC-DRBG construction with Keccak-256. Shared with
/// [`crate::baseline`] so the retained reference produces byte-identical
/// signatures.
///
/// The derivation is the one [`crate::hmac_keccak256`] spells call by
/// call, byte for byte; only the work differs. Each HMAC key's ipad and
/// opad blocks are absorbed once ([`HmacKey`]) — the all-zero first key
/// once per process, each derived key once per nonce — so a nonce costs
/// 14 Keccak-f permutations where a fresh key per call cost 20.
pub(crate) fn deterministic_nonce(secret: &SecretKey, digest: &H256, extra: u32) -> Scalar {
    static ZERO_KEY: OnceLock<HmacKey> = OnceLock::new();
    let sk_bytes = secret.to_bytes();
    let extra_bytes = extra.to_be_bytes();
    let v = [0x01u8; 32];
    let k = ZERO_KEY.get_or_init(|| HmacKey::new(&[0x00u8; 32])).mac(&[
        &v,
        &[0x00],
        &sk_bytes,
        digest.as_bytes(),
        &extra_bytes,
    ]);
    let key = HmacKey::new(k.as_bytes());
    let v = key.mac(&[&v]);
    let k = key.mac(&[
        v.as_bytes(),
        &[0x01],
        &sk_bytes,
        digest.as_bytes(),
        &extra_bytes,
    ]);
    let mut key = HmacKey::new(k.as_bytes());
    let mut v = key.mac(&[v.as_bytes()]);
    loop {
        v = key.mac(&[v.as_bytes()]);
        if let Some(candidate) = Scalar::from_be_bytes(&v.into_inner()) {
            if !candidate.is_zero() {
                return candidate;
            }
        }
        let k = key.mac(&[v.as_bytes(), &[0x00]]);
        key = HmacKey::new(k.as_bytes());
        v = key.mac(&[v.as_bytes()]);
    }
}

/// Signs a 32-byte message digest, producing a recoverable low-`s`
/// signature.
///
/// # Examples
///
/// ```
/// use parp_crypto::{keccak256, recover_address, sign, SecretKey};
///
/// let sk = SecretKey::from_seed(b"example");
/// let digest = keccak256(b"attack at dawn");
/// let sig = sign(&sk, &digest);
/// assert_eq!(recover_address(&digest, &sig).unwrap(), sk.address());
/// ```
pub fn sign(secret: &SecretKey, digest: &H256) -> Signature {
    let z = Scalar::from_be_bytes_reduced(&digest.into_inner());
    let d = secret.0;
    let mut extra = 0u32;
    loop {
        let k = deterministic_nonce(secret, digest, extra);
        extra = extra.wrapping_add(1);
        // Fixed-base comb: ≤32 mixed additions off the shared table
        // instead of rebuilding a 16-entry window table of G per call.
        let r_point = mul_generator(&k).to_affine();
        let (rx, ry_odd) = match r_point {
            AffinePoint::Infinity => continue,
            AffinePoint::Point { x, y } => (x, y.is_odd()),
        };
        let r = Scalar::from_be_bytes_reduced(&rx.to_be_bytes());
        if r.is_zero() {
            continue;
        }
        let mut s = k.invert() * (z + r * d);
        if s.is_zero() {
            continue;
        }
        // Recovery id: parity of R.y, plus whether r overflowed mod n
        // (ignored here: probability ~2^-127, retried instead).
        if Scalar::from_be_bytes(&rx.to_be_bytes()).is_none() {
            continue;
        }
        let mut v = ry_odd as u8;
        if s.is_high() {
            s = -s;
            v ^= 1;
        }
        return Signature {
            r: r.to_be_bytes(),
            s: s.to_be_bytes(),
            v,
        };
    }
}

/// The multipliers `(z·s⁻¹, r·s⁻¹)` of the nonce point a valid signature
/// commits to, `R' = (z·s⁻¹)·G + (r·s⁻¹)·Q` — shared by [`verify`] and
/// [`PreparedKey::signed`], which differ only in which table of `Q` the
/// multiplication reads and in what they ask of `R'`.
fn nonce_multipliers(digest: &H256, signature: &Signature) -> (Scalar, Scalar) {
    let z = Scalar::from_be_bytes_reduced(&digest.into_inner());
    let s_inv = signature.s_scalar().invert();
    (z * s_inv, signature.r_scalar() * s_inv)
}

/// Verifies a signature against a public key (plain ECDSA: the recovery
/// id is not part of the statement).
pub fn verify(public: &PublicKey, digest: &H256, signature: &Signature) -> bool {
    let r = signature.r_scalar();
    let s = signature.s_scalar();
    if r.is_zero() || s.is_zero() || s.is_high() {
        return false;
    }
    let (u1, u2) = nonce_multipliers(digest, signature);
    match double_scalar_mul(&u1, &u2, public.point()) {
        AffinePoint::Infinity => false,
        AffinePoint::Point { x, .. } => Scalar::from_be_bytes_reduced(&x.to_be_bytes()) == r,
    }
}

/// A verifying key prepared for repeated use: the public key, its
/// address, and its [`PointComb`], built once.
///
/// Both ends of a PARP channel are fixed for the channel's lifetime, so
/// after the first [`recover`] names the peer, every later envelope check
/// asks a cheaper question — *did this key sign?* — that needs no field
/// square root, no per-call table and a sixth of a recovery's doublings.
#[derive(Clone)]
pub struct PreparedKey {
    public: PublicKey,
    address: Address,
    comb: PointComb,
}

impl fmt::Debug for PreparedKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PreparedKey({})", self.address)
    }
}

impl PreparedKey {
    /// Prepares `public`: one comb build (32 entries, 2.25 KiB per key),
    /// after which every [`PreparedKey::signed`] reads it.
    pub fn new(public: PublicKey) -> Self {
        PreparedKey {
            public,
            address: public.address(),
            comb: PointComb::new(public.point()),
        }
    }

    /// Bytes this key occupies, its comb's heap entries included.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() - std::mem::size_of::<PointComb>() + self.comb.mem_bytes()
    }

    /// The key this was prepared from.
    pub fn public_key(&self) -> &PublicKey {
        &self.public
    }

    /// The key's address (hashed once, at preparation).
    pub fn address(&self) -> Address {
        self.address
    }

    /// Whether this key made `signature` over `digest`, recovery id
    /// included: `R'.x == r` **and** the parity of `R'.y` equals `v`.
    /// That is exactly the acceptance set of
    /// `recover(digest, signature) == Ok(key)` — a signature whose `v` is
    /// flipped recovers to some other key on chain, so it is refused here
    /// too.
    pub fn signed(&self, digest: &H256, signature: &Signature) -> bool {
        let (u1, u2) = nonce_multipliers(digest, signature);
        match self.comb.double_scalar_mul(&u1, &u2) {
            AffinePoint::Infinity => false,
            AffinePoint::Point { x, y } => {
                x.to_be_bytes() == signature.r && y.is_odd() == (signature.v == 1)
            }
        }
    }
}

/// Recovers the signing public key from a digest and signature.
///
/// # Errors
///
/// Returns [`SignatureError::RecoveryFailed`] when `r` does not correspond
/// to a curve point or the recovered point is infinity.
pub fn recover(digest: &H256, signature: &Signature) -> Result<PublicKey, SignatureError> {
    let r = signature.r_scalar();
    let s = signature.s_scalar();
    // R has x = r (the r >= p - n edge case is never produced by `sign`).
    let x = FieldElement::from_be_bytes(&signature.r).ok_or(SignatureError::RecoveryFailed)?;
    let r_point = AffinePoint::from_x(x, signature.v == 1).ok_or(SignatureError::RecoveryFailed)?;
    let z = Scalar::from_be_bytes_reduced(&digest.into_inner());
    let r_inv = r.invert();
    // Q = r^{-1} (s R - z G) = (-z r^{-1}) G + (s r^{-1}) R
    let u1 = -(z * r_inv);
    let u2 = s * r_inv;
    match double_scalar_mul(&u1, &u2, &r_point) {
        AffinePoint::Infinity => Err(SignatureError::RecoveryFailed),
        point => Ok(PublicKey(point)),
    }
}

/// Recovers the signer's address, the operation Ethereum's `ecrecover`
/// precompile performs.
///
/// # Errors
///
/// Propagates [`SignatureError::RecoveryFailed`] from [`recover`].
pub fn recover_address(digest: &H256, signature: &Signature) -> Result<Address, SignatureError> {
    recover(digest, signature).map(|pk| pk.address())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keccak::keccak256;

    fn sk(seed: &str) -> SecretKey {
        SecretKey::from_seed(seed.as_bytes())
    }

    /// RFC 6979 as [`crate::hmac_keccak256`] spells it, a fresh key per
    /// call: what [`deterministic_nonce`]'s absorbed keys must reproduce.
    fn nonce_call_by_call(secret: &SecretKey, digest: &H256, extra: u32) -> Scalar {
        use crate::hmac_keccak256;
        let (sk, extra) = (secret.to_bytes(), extra.to_be_bytes());
        let d = digest.as_bytes();
        let mut v = [0x01u8; 32];
        let mut k = hmac_keccak256(&[0u8; 32], &[&v, &[0x00], &sk, d, &extra]).into_inner();
        v = hmac_keccak256(&k, &[&v]).into_inner();
        k = hmac_keccak256(&k, &[&v, &[0x01], &sk, d, &extra]).into_inner();
        v = hmac_keccak256(&k, &[&v]).into_inner();
        loop {
            v = hmac_keccak256(&k, &[&v]).into_inner();
            match Scalar::from_be_bytes(&v) {
                Some(candidate) if !candidate.is_zero() => return candidate,
                _ => {}
            }
            k = hmac_keccak256(&k, &[&v, &[0x00]]).into_inner();
            v = hmac_keccak256(&k, &[&v]).into_inner();
        }
    }

    #[test]
    fn nonce_matches_the_call_by_call_derivation() {
        for i in 0..32u8 {
            let secret = sk(&format!("nonce-{i}"));
            let digest = keccak256(&[i]);
            for extra in [0, 1, u32::from(i) << 24] {
                assert_eq!(
                    deterministic_nonce(&secret, &digest, extra),
                    nonce_call_by_call(&secret, &digest, extra),
                    "key {i}, extra {extra}"
                );
            }
        }
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = sk("alice");
        let digest = keccak256(b"message");
        let sig = sign(&key, &digest);
        assert!(verify(&key.public_key(), &digest, &sig));
    }

    #[test]
    fn signature_is_deterministic() {
        let key = sk("alice");
        let digest = keccak256(b"message");
        assert_eq!(sign(&key, &digest), sign(&key, &digest));
    }

    #[test]
    fn different_messages_different_signatures() {
        let key = sk("alice");
        let s1 = sign(&key, &keccak256(b"a"));
        let s2 = sign(&key, &keccak256(b"b"));
        assert_ne!(s1, s2);
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let digest = keccak256(b"message");
        let sig = sign(&sk("alice"), &digest);
        assert!(!verify(&sk("bob").public_key(), &digest, &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = sk("alice");
        let sig = sign(&key, &keccak256(b"message"));
        assert!(!verify(&key.public_key(), &keccak256(b"other"), &sig));
    }

    #[test]
    fn recover_returns_signer() {
        let key = sk("carol");
        let digest = keccak256(b"recover me");
        let sig = sign(&key, &digest);
        let recovered = recover(&digest, &sig).unwrap();
        assert_eq!(recovered, key.public_key());
        assert_eq!(recover_address(&digest, &sig).unwrap(), key.address());
    }

    #[test]
    fn recover_with_flipped_v_gives_other_key() {
        let key = sk("carol");
        let digest = keccak256(b"recover me");
        let sig = sign(&key, &digest);
        let mut bytes = sig.to_bytes();
        bytes[64] ^= 1;
        let flipped = Signature::from_bytes(&bytes).unwrap();
        let recovered = recover_address(&digest, &flipped);
        assert_ne!(recovered.ok(), Some(key.address()));
    }

    #[test]
    fn signatures_are_low_s() {
        for msg in [&b"one"[..], b"two", b"three", b"four"] {
            let sig = sign(&sk("dave"), &keccak256(msg));
            let s = Scalar::from_be_bytes(sig.s_bytes()).unwrap();
            assert!(!s.is_high());
        }
    }

    #[test]
    fn high_s_rejected_on_parse() {
        let key = sk("eve");
        let digest = keccak256(b"malleability");
        let sig = sign(&key, &digest);
        // Forge the high-s twin: s' = n - s.
        let s = Scalar::from_be_bytes(sig.s_bytes()).unwrap();
        let high_s = -s;
        let mut bytes = sig.to_bytes();
        bytes[32..64].copy_from_slice(&high_s.to_be_bytes());
        bytes[64] ^= 1;
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::InvalidComponent)
        );
    }

    #[test]
    fn bad_recovery_id_rejected() {
        let sig = sign(&sk("f"), &keccak256(b"x"));
        let mut bytes = sig.to_bytes();
        bytes[64] = 2;
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::InvalidRecoveryId)
        );
    }

    #[test]
    fn zero_r_rejected() {
        let mut bytes = [0u8; 65];
        bytes[63] = 1; // s = 1, r = 0
        assert_eq!(
            Signature::from_bytes(&bytes),
            Err(SignatureError::InvalidComponent)
        );
    }

    #[test]
    fn serialized_roundtrip() {
        let sig = sign(&sk("grace"), &keccak256(b"serialize"));
        let parsed = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert_eq!(parsed, sig);
    }

    #[test]
    fn tampered_signature_fails_verification() {
        let key = sk("henry");
        let digest = keccak256(b"tamper");
        let sig = sign(&key, &digest);
        let mut bytes = sig.to_bytes();
        bytes[10] ^= 0xff;
        if let Ok(tampered) = Signature::from_bytes(&bytes) {
            assert!(!verify(&key.public_key(), &digest, &tampered));
        }
    }

    #[test]
    fn many_keys_roundtrip() {
        for i in 0..8u8 {
            let key = SecretKey::from_seed(&[i]);
            let digest = keccak256(&[i, i, i]);
            let sig = sign(&key, &digest);
            assert!(verify(&key.public_key(), &digest, &sig), "key {i}");
            assert_eq!(recover_address(&digest, &sig).unwrap(), key.address());
        }
    }
}
