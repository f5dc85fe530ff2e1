//! Arithmetic modulo the secp256k1 group order
//! `n = 0xfffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141`.

use crate::modarith::{self, Limbs, Modulus62};
use parp_primitives::U256;
use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// The group order `n` as little-endian limbs.
pub(crate) const N: Limbs = [
    0xbfd2_5e8c_d036_4141,
    0xbaae_dce6_af48_a03b,
    0xffff_ffff_ffff_fffe,
    0xffff_ffff_ffff_ffff,
];

/// `2^256 - n = 0x14551231950b75fc4402da1732fc9bebf` (129 bits).
const D: Limbs = [0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 0x1, 0];

/// `n` as [`modarith::inv_mod`] reads it (signed 62-bit limbs, the
/// third negative), and `n⁻¹ mod 2^62` (a test recomputes both).
const N62: Modulus62 = Modulus62 {
    limbs: [0x3fd2_5e8c_d036_4141, 0x2abb_739a_bd22_80ee, -0x15, 0, 256],
    inv62: 0x34f2_0099_aa77_4ec1,
};

/// Half the group order, used for low-`s` normalization (EIP-2).
const HALF_N: Limbs = [
    0xdfe9_2f46_681b_20a0,
    0x5d57_6e73_57a4_501d,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

/// The GLV lattice basis: `a + b·λ ≡ 0 (mod n)` for `(a1, b1)` and
/// `(a2, b2)`, with `b1` negative and `b2 = a1` on this curve.
const GLV_A1: Limbs = [0xe86c_90e4_9284_eb15, 0x3086_d221_a7d4_6bcd, 0, 0];
const GLV_MINUS_B1: Limbs = [0x6f54_7fa9_0abf_e4c3, 0xe443_7ed6_010e_8828, 0, 0];
const GLV_A2: Limbs = [0x57c1_108d_9d44_cfd8, 0x14ca_50f7_a8e2_f3f6, 0x1, 0];
const GLV_B2: Limbs = GLV_A1;

/// A scalar modulo the secp256k1 group order, always reduced below `n`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Scalar(Limbs);

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Scalar(0x{})",
            parp_primitives::to_hex(&self.to_be_bytes())
        )
    }
}

impl Scalar {
    /// The scalar `0`.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar `1`.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Builds a scalar from a small integer.
    pub fn from_u64(v: u64) -> Self {
        Scalar([v, 0, 0, 0])
    }

    /// Parses 32 big-endian bytes; `None` when the value is >= `n`.
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Option<Self> {
        let limbs = modarith::from_be_bytes(bytes);
        if modarith::gte(&limbs, &N) {
            None
        } else {
            Some(Scalar(limbs))
        }
    }

    /// Parses 32 big-endian bytes, reducing modulo `n`.
    pub fn from_be_bytes_reduced(bytes: &[u8; 32]) -> Self {
        let limbs = modarith::from_be_bytes(bytes);
        let wide = [limbs[0], limbs[1], limbs[2], limbs[3], 0, 0, 0, 0];
        Scalar(modarith::reduce_wide(wide, &D, &N))
    }

    /// Converts a [`U256`] reducing modulo `n`.
    pub fn from_u256_reduced(value: U256) -> Self {
        Self::from_be_bytes_reduced(&value.to_be_bytes())
    }

    /// Serializes to 32 big-endian bytes.
    pub fn to_be_bytes(self) -> [u8; 32] {
        modarith::to_be_bytes(&self.0)
    }

    /// Returns `true` for zero.
    pub fn is_zero(self) -> bool {
        modarith::is_zero(&self.0)
    }

    /// Returns `true` when the scalar exceeds `n/2` ("high s").
    pub fn is_high(self) -> bool {
        modarith::gte(&self.0, &HALF_N) && self != Scalar(HALF_N)
    }

    /// Multiplicative inverse, via the variable-time safegcd inversion
    /// ([Bernstein–Yang](https://eprint.iacr.org/2019/266)): ~1.4 µs,
    /// about 15× faster than the former Fermat ladder and 4× faster
    /// than the binary extended GCD it replaced. Not constant-time.
    ///
    /// # Panics
    ///
    /// Panics when `self` is zero.
    pub fn invert(self) -> Self {
        assert!(!self.is_zero(), "inverse of zero scalar");
        Scalar(modarith::inv_mod(&self.0, &N62))
    }

    /// Extracts the 4-bit window ending at bit `i*4` (for windowed point
    /// multiplication).
    pub(crate) fn nibble(&self, i: usize) -> u8 {
        let bit = i * 4;
        ((self.0[bit / 64] >> (bit % 64)) & 0xf) as u8
    }

    /// Extracts byte `i` (0 = least significant) — the fixed-base comb
    /// table is indexed by the scalar's little-endian bytes.
    pub(crate) fn byte(&self, i: usize) -> u8 {
        (self.0[i / 8] >> ((i % 8) * 8)) as u8
    }

    /// Bit `i` (0 = least significant) — the per-point comb reads its
    /// column digits off these.
    pub(crate) fn bit(&self, i: usize) -> usize {
        (self.0[i / 64] >> (i % 64)) as usize & 1
    }

    /// Splits the scalar for the secp256k1 GLV endomorphism:
    /// `self ≡ k1 + k2·λ (mod n)` with both halves at most 129 bits
    /// (after sign normalization), where `λ` is the cube root of unity
    /// acting as `λ·(x, y) = (β·x, y)` on curve points. Halving the
    /// scalar length halves the doubling chain of a variable-base
    /// multiplication.
    ///
    /// Returns `(k1, neg1, k2, neg2)`: each half is the *magnitude* and
    /// its flag says the half enters negated. The decomposition is exact
    /// by construction (`k1 = k − c1·a1 − c2·a2` for any `c1`, `c2`); the
    /// precomputed `round(2^384·b/n)` constants only make the halves
    /// short, a bound the property tests pin down.
    pub(crate) fn split_glv(&self) -> (Scalar, bool, Scalar, bool) {
        let (k1, k2) = self.split_glv_mod_n();
        sign_normalized_halves(k1, k2)
    }

    /// [`Scalar::split_glv`] with both halves **odd** and at most 130
    /// bits: the per-point comb spells a half in digits `±1`, which reach
    /// only odd numbers. Adding a lattice vector leaves `k1 + k2·λ`
    /// alone, and the basis has the parities to fix either half: `a1`,
    /// `b1` and `b2` are odd and `a2` is even, so `(a1, b1)` flips both
    /// halves' parity and `(a2, b2)` only `k2`'s. (A half's parity is its
    /// magnitude's — `n` is odd, so a negative half's residue has the
    /// other one.)
    pub(crate) fn split_glv_odd(&self) -> (Scalar, bool, Scalar, bool) {
        let (mut k1, mut k2) = self.split_glv_mod_n();
        if k1.sign_normalized().0.bit(0) == 0 {
            k1 = k1 + Scalar(GLV_A1);
            k2 = k2 - Scalar(GLV_MINUS_B1);
        }
        if k2.sign_normalized().0.bit(0) == 0 {
            k1 = k1 + Scalar(GLV_A2);
            k2 = k2 + Scalar(GLV_B2);
        }
        sign_normalized_halves(k1, k2)
    }

    /// The GLV halves as residues mod `n` (a negative half is `n − |k|`):
    /// `k1 = k − c1·a1 − c2·a2`, `k2 = c1·|b1| − c2·b2`.
    fn split_glv_mod_n(&self) -> (Scalar, Scalar) {
        /// `round(2^384 · b2 / n)`.
        const G1: Limbs = [
            0xe893_209a_45db_b031,
            0x3daa_8a14_71e8_ca7f,
            0xe86c_90e4_9284_eb15,
            0x3086_d221_a7d4_6bcd,
        ];
        /// `round(2^384 · (−b1) / n)`.
        const G2: Limbs = [
            0x1571_b4ae_8ac4_7f71,
            0x2212_08ac_9df5_06c6,
            0x6f54_7fa9_0abf_e4c4,
            0xe443_7ed6_010e_8828,
        ];
        let c1 = Scalar(mul_shift_384(&self.0, &G1));
        let c2 = Scalar(mul_shift_384(&self.0, &G2));
        (
            *self - c1 * Scalar(GLV_A1) - c2 * Scalar(GLV_A2),
            c1 * Scalar(GLV_MINUS_B1) - c2 * Scalar(GLV_B2),
        )
    }

    /// `(magnitude, was_negated)`: values above `n/2` are treated as
    /// negative and returned as their (short) negation.
    fn sign_normalized(self) -> (Scalar, bool) {
        if self.is_high() {
            (-self, true)
        } else {
            (self, false)
        }
    }

    /// The window-`w` non-adjacent form, least-significant digit first:
    /// 257 entries, each zero or odd with `|d| < 2^(w-1)`, satisfying
    /// `Σ digits[i] · 2^i = self`. Subtracting a negative digit can push
    /// the working value past 2^256, hence the 257th position.
    pub(crate) fn wnaf(&self, w: u32) -> [i8; 257] {
        debug_assert!((2..=8).contains(&w));
        let mut digits = [0i8; 257];
        // A fifth limb absorbs the carry a negative digit can produce.
        let mut k = [self.0[0], self.0[1], self.0[2], self.0[3], 0u64];
        let half = 1u64 << (w - 1);
        let full = 1u64 << w;
        let mut i = 0usize;
        while k.iter().any(|&l| l != 0) {
            if k[0] & 1 == 1 {
                let low = k[0] & (full - 1);
                if low >= half {
                    // Negative digit d = low − 2^w; clearing it adds
                    // 2^w − low to the working value.
                    digits[i] = (low as i64 - full as i64) as i8;
                    let mut carry = full - low;
                    for limb in k.iter_mut() {
                        let (s, c) = limb.overflowing_add(carry);
                        *limb = s;
                        carry = c as u64;
                        if carry == 0 {
                            break;
                        }
                    }
                } else {
                    digits[i] = low as i8;
                    let mut borrow = low;
                    for limb in k.iter_mut() {
                        let (s, b) = limb.overflowing_sub(borrow);
                        *limb = s;
                        borrow = b as u64;
                        if borrow == 0 {
                            break;
                        }
                    }
                }
            }
            for j in 0..4 {
                k[j] = (k[j] >> 1) | (k[j + 1] << 63);
            }
            k[4] >>= 1;
            i += 1;
        }
        digits
    }
}

/// `(k1, neg1, k2, neg2)` from two GLV halves given as residues mod `n`.
fn sign_normalized_halves(k1: Scalar, k2: Scalar) -> (Scalar, bool, Scalar, bool) {
    let (k1, neg1) = k1.sign_normalized();
    let (k2, neg2) = k2.sign_normalized();
    (k1, neg1, k2, neg2)
}

/// `round((a · g) / 2^384)`: the 512-bit product's limbs 6 and 7, plus a
/// rounding carry from bit 383.
fn mul_shift_384(a: &Limbs, g: &Limbs) -> Limbs {
    let wide = modarith::mul_wide(a, g);
    let round = (wide[5] >> 63) & 1;
    let (lo, carry) = wide[6].overflowing_add(round);
    [lo, wide[7].wrapping_add(carry as u64), 0, 0]
}

impl Add for Scalar {
    type Output = Scalar;

    fn add(self, rhs: Scalar) -> Scalar {
        Scalar(modarith::add_mod(&self.0, &rhs.0, &N))
    }
}

impl Sub for Scalar {
    type Output = Scalar;

    fn sub(self, rhs: Scalar) -> Scalar {
        Scalar(modarith::sub_mod(&self.0, &rhs.0, &N))
    }
}

impl Mul for Scalar {
    type Output = Scalar;

    fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(modarith::mul_mod(&self.0, &rhs.0, &D, &N))
    }
}

impl Neg for Scalar {
    type Output = Scalar;

    fn neg(self) -> Scalar {
        Scalar::ZERO - self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn d_constant_is_complement_of_n() {
        // n + d must equal 2^256, i.e. n + d wraps to zero with carry.
        let (sum, carry) = modarith::add(&N, &D);
        assert!(carry);
        assert!(modarith::is_zero(&sum));
    }

    #[test]
    fn half_n_doubles_to_n_minus_one() {
        let half = Scalar(HALF_N);
        let doubled = half + half;
        // 2 * ((n-1)/2) = n - 1
        assert_eq!(doubled + Scalar::ONE, Scalar::ZERO);
    }

    #[test]
    fn n_reduces_to_zero() {
        let n_bytes = modarith::to_be_bytes(&N);
        assert!(Scalar::from_be_bytes(&n_bytes).is_none());
        assert_eq!(Scalar::from_be_bytes_reduced(&n_bytes), Scalar::ZERO);
    }

    #[test]
    fn inverse() {
        let a = Scalar::from_u64(0xabcdef);
        assert_eq!(a * a.invert(), Scalar::ONE);
    }

    #[test]
    fn inverse_constants_are_recomputed() {
        assert_eq!(N62.value(), N);
        assert_eq!(N62.inv62, Modulus62::derive(&N).inv62);
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        let _ = Scalar::ZERO.invert();
    }

    #[test]
    fn high_low_classification() {
        assert!(!Scalar::ONE.is_high());
        assert!(!Scalar(HALF_N).is_high());
        assert!((Scalar(HALF_N) + Scalar::ONE).is_high());
        assert!((-Scalar::ONE).is_high());
    }

    #[test]
    fn negation_cancels() {
        let a = Scalar::from_u64(777);
        assert_eq!(a + (-a), Scalar::ZERO);
    }

    #[test]
    fn nibble_and_byte_extraction() {
        let s = Scalar::from_u64(0xabcd);
        assert_eq!(s.nibble(0), 0xd);
        assert_eq!(s.nibble(1), 0xc);
        assert_eq!(s.nibble(2), 0xb);
        assert_eq!(s.nibble(3), 0xa);
        assert_eq!(s.nibble(4), 0);
        assert_eq!(s.byte(0), 0xcd);
        assert_eq!(s.byte(1), 0xab);
        assert_eq!(s.byte(2), 0);
    }

    #[test]
    fn wnaf_recomposes_and_stays_sparse() {
        for (w, seed) in [(2u32, 1u64), (5, 0xdead_beef), (8, u64::MAX)] {
            let s =
                Scalar::from_be_bytes_reduced(&crate::keccak256(&seed.to_be_bytes()).into_inner());
            let digits = s.wnaf(w);
            let half = 1i16 << (w - 1);
            // Recompose Σ dᵢ·2ⁱ mod n by Horner from the top.
            let mut acc = Scalar::ZERO;
            for &d in digits.iter().rev() {
                acc = acc + acc;
                assert!(
                    d == 0 || (d % 2 != 0 && (d as i16).abs() < half),
                    "digit {d}"
                );
                let mag = Scalar::from_u64(d.unsigned_abs() as u64);
                acc = if d < 0 { acc - mag } else { acc + mag };
            }
            assert_eq!(acc, s, "wNAF({w}) must recompose");
        }
    }

    /// The scalar `λ` of the GLV endomorphism (`λ³ = 1 mod n`).
    const LAMBDA: Scalar = Scalar([
        0xdf02_967c_1b23_bd72,
        0x122e_22ea_2081_6678,
        0xa526_1c02_8812_645a,
        0x5363_ad4c_c05c_30e0,
    ]);

    #[test]
    fn lambda_is_a_cube_root_of_unity() {
        assert_eq!(LAMBDA * LAMBDA * LAMBDA, Scalar::ONE);
        assert_ne!(LAMBDA, Scalar::ONE);
    }

    #[test]
    fn glv_split_recomposes_with_short_halves() {
        let recomposes = |k: Scalar, (k1, neg1, k2, neg2): (Scalar, bool, Scalar, bool)| {
            let s1 = if neg1 { -k1 } else { k1 };
            let s2 = if neg2 { -k2 } else { k2 };
            assert_eq!(s1 + s2 * LAMBDA, k, "k1 + k2·λ must equal k");
        };
        let seeded = [1u64, 7, 0xdead_beef, u64::MAX]
            .map(|seed| crate::keccak256(&seed.to_be_bytes()).into_inner())
            .map(|bytes| Scalar::from_be_bytes_reduced(&bytes));
        // Small scalars split as (k, 0): the odd split has parities to fix.
        let small = [0u64, 1, 2, 3].map(Scalar::from_u64);
        for k in seeded
            .into_iter()
            .chain(small)
            .chain([-Scalar::ONE, LAMBDA])
        {
            let (k1, neg1, k2, neg2) = k.split_glv();
            recomposes(k, (k1, neg1, k2, neg2));
            // Both magnitudes fit in 129 bits (the GLV shortness bound).
            for half in [k1, k2] {
                let bytes = half.to_be_bytes();
                assert!(
                    bytes[..15].iter().all(|&b| b == 0) && bytes[15] <= 3,
                    "GLV half too long: {half:?}"
                );
            }
            // The comb's split: the same sum from odd halves that fit its
            // 132 bits with room to spare (≤ 130).
            let (k1, neg1, k2, neg2) = k.split_glv_odd();
            recomposes(k, (k1, neg1, k2, neg2));
            for half in [k1, k2] {
                assert_eq!(half.bit(0), 1, "half must be odd: {half:?}");
                assert!(
                    (130..256).all(|i| half.bit(i) == 0),
                    "odd GLV half too long: {half:?}"
                );
            }
        }
    }

    #[test]
    fn u256_reduction_roundtrip() {
        let v = U256::from(123456789u64);
        assert_eq!(Scalar::from_u256_reduced(v), Scalar::from_u64(123456789));
    }
}
