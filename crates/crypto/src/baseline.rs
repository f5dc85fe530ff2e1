//! The **retained pre-optimization ECDSA path**, frozen as a reference.
//!
//! This module is a byte-faithful copy of the crate's signing and
//! recovery hot path as it stood *before* the fixed-base tables, wNAF +
//! GLV double multiplication, the faster inversions and specialized
//! reductions landed: generic fold-loop reduction, Fermat-ladder
//! inversion, a 16-entry window table of `G` rebuilt per signature, and
//! the 2-bit Shamir loop over `{G, Q, G+Q}` for recovery.
//!
//! It exists for two jobs and must not be used for anything else:
//!
//! * the `crypto_throughput` bench measures the optimized path **against
//!   it** (the "pre-PR loop" denominator in `BENCH_crypto.json`);
//! * the property tests assert the optimized path is **byte-identical**
//!   to it on signatures and recovered addresses, and its Fermat
//!   inverses are the oracle for the live safegcd inverse.
//!
//! Nonce derivation is shared with the live path, which is what makes
//! signature equality exact; `tests/props.rs` pins the nonce itself to a
//! digest of 1,024 signatures.

use crate::ecdsa::{deterministic_nonce, Signature};
use crate::field;
use crate::keccak::keccak256;
use crate::keys::SecretKey;
use crate::modarith::Limbs;
use crate::scalar;
use parp_primitives::{Address, H256};

// --- frozen limb primitives ---------------------------------------------
//
// Private copies of the pre-PR `modarith` routines, *without* the inline
// hints the live path gained, so this module's cost profile stays pinned
// to the pre-optimization code even as the shared layer evolves.

mod frozen {
    use super::Limbs;

    pub(super) fn add(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
        let mut out = [0u64; 4];
        let mut carry = false;
        for i in 0..4 {
            let (s1, c1) = a[i].overflowing_add(b[i]);
            let (s2, c2) = s1.overflowing_add(carry as u64);
            out[i] = s2;
            carry = c1 | c2;
        }
        (out, carry)
    }

    pub(super) fn sub(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
        let mut out = [0u64; 4];
        let mut borrow = false;
        for i in 0..4 {
            let (d1, b1) = a[i].overflowing_sub(b[i]);
            let (d2, b2) = d1.overflowing_sub(borrow as u64);
            out[i] = d2;
            borrow = b1 | b2;
        }
        (out, borrow)
    }

    pub(super) fn gte(a: &Limbs, b: &Limbs) -> bool {
        for i in (0..4).rev() {
            if a[i] != b[i] {
                return a[i] > b[i];
            }
        }
        true
    }

    pub(super) fn is_zero(a: &Limbs) -> bool {
        a.iter().all(|&l| l == 0)
    }

    pub(super) fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 8] {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..4 {
                let wide = a[i] as u128 * b[j] as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = wide as u64;
                carry = (wide >> 64) as u64;
            }
            out[i + 4] = carry;
        }
        out
    }

    pub(super) fn reduce_wide(mut wide: [u64; 8], d: &Limbs, m: &Limbs) -> Limbs {
        loop {
            let hi = [wide[4], wide[5], wide[6], wide[7]];
            if is_zero(&hi) {
                break;
            }
            let lo = [wide[0], wide[1], wide[2], wide[3]];
            let mut folded = [0u64; 8];
            for i in 0..4 {
                let mut carry = 0u64;
                for j in 0..3 {
                    let wide_prod =
                        hi[i] as u128 * d[j] as u128 + folded[i + j] as u128 + carry as u128;
                    folded[i + j] = wide_prod as u64;
                    carry = (wide_prod >> 64) as u64;
                }
                let mut k = i + 3;
                while carry != 0 {
                    let (sum, c) = folded[k].overflowing_add(carry);
                    folded[k] = sum;
                    carry = c as u64;
                    k += 1;
                }
            }
            let mut carry = 0u64;
            for i in 0..4 {
                let (s1, c1) = folded[i].overflowing_add(lo[i]);
                let (s2, c2) = s1.overflowing_add(carry);
                folded[i] = s2;
                carry = (c1 | c2) as u64;
            }
            let mut k = 4;
            while carry != 0 {
                let (sum, c) = folded[k].overflowing_add(carry);
                folded[k] = sum;
                carry = c as u64;
                k += 1;
            }
            wide = folded;
        }
        let mut out = [wide[0], wide[1], wide[2], wide[3]];
        while gte(&out, m) {
            out = sub(&out, m).0;
        }
        out
    }

    pub(super) fn mul_mod(a: &Limbs, b: &Limbs, d: &Limbs, m: &Limbs) -> Limbs {
        reduce_wide(mul_wide(a, b), d, m)
    }

    pub(super) fn add_mod(a: &Limbs, b: &Limbs, m: &Limbs) -> Limbs {
        let (sum, carry) = add(a, b);
        if carry || gte(&sum, m) {
            sub(&sum, m).0
        } else {
            sum
        }
    }

    pub(super) fn sub_mod(a: &Limbs, b: &Limbs, m: &Limbs) -> Limbs {
        let (diff, borrow) = sub(a, b);
        if borrow {
            add(&diff, m).0
        } else {
            diff
        }
    }

    pub(super) fn pow_mod(base: &Limbs, exp: &Limbs, d: &Limbs, m: &Limbs) -> Limbs {
        let mut result = [1u64, 0, 0, 0];
        let mut started = false;
        for i in (0..256).rev() {
            if started {
                result = mul_mod(&result, &result, d, m);
            }
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                if started {
                    result = mul_mod(&result, base, d, m);
                } else {
                    result = *base;
                    started = true;
                }
            }
        }
        if started {
            result
        } else {
            [1, 0, 0, 0]
        }
    }

    pub(super) fn inv_mod(a: &Limbs, d: &Limbs, m: &Limbs) -> Limbs {
        let (exp, _) = sub(m, &[2, 0, 0, 0]);
        pow_mod(a, &exp, d, m)
    }

    pub(super) fn from_be_bytes(bytes: &[u8; 32]) -> Limbs {
        let mut limbs = [0u64; 4];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            limbs[3 - i] = u64::from_be_bytes(buf);
        }
        limbs
    }

    pub(super) fn to_be_bytes(limbs: &Limbs) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
        }
        out
    }
}

use frozen as modarith;

/// `2^256 − p`, the field's fold constant.
const FIELD_D: Limbs = [0x1_0000_03d1, 0, 0, 0];
/// `2^256 − n`, the scalar fold constant.
const SCALAR_D: Limbs = [0x402d_a173_2fc9_bebf, 0x4551_2319_50b7_5fc4, 0x1, 0];
/// Half the group order (low-`s` normalization).
const HALF_N: Limbs = [
    0xdfe9_2f46_681b_20a0,
    0x5d57_6e73_57a4_501d,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

/// The generator coordinates (copied: the live table-building code no
/// longer exposes them the way the old loop consumed them).
const GX: [u8; 32] = [
    0x79, 0xbe, 0x66, 0x7e, 0xf9, 0xdc, 0xbb, 0xac, 0x55, 0xa0, 0x62, 0x95, 0xce, 0x87, 0x0b, 0x07,
    0x02, 0x9b, 0xfc, 0xdb, 0x2d, 0xce, 0x28, 0xd9, 0x59, 0xf2, 0x81, 0x5b, 0x16, 0xf8, 0x17, 0x98,
];
const GY: [u8; 32] = [
    0x48, 0x3a, 0xda, 0x77, 0x26, 0xa3, 0xc4, 0x65, 0x5d, 0xa4, 0xfb, 0xfc, 0x0e, 0x11, 0x08, 0xa8,
    0xfd, 0x17, 0xb4, 0x48, 0xa6, 0x85, 0x54, 0x19, 0x9c, 0x47, 0xd0, 0x8f, 0xfb, 0x10, 0xd4, 0xb8,
];

// --- field arithmetic, generic loops only -------------------------------

fn fmul(a: &Limbs, b: &Limbs) -> Limbs {
    modarith::mul_mod(a, b, &FIELD_D, &field::P)
}

fn fadd(a: &Limbs, b: &Limbs) -> Limbs {
    modarith::add_mod(a, b, &field::P)
}

fn fsub(a: &Limbs, b: &Limbs) -> Limbs {
    modarith::sub_mod(a, b, &field::P)
}

fn finv(a: &Limbs) -> Limbs {
    modarith::inv_mod(a, &FIELD_D, &field::P)
}

fn fsqrt(a: &Limbs) -> Option<Limbs> {
    // (p + 1) / 4, plain square-and-multiply.
    const EXP: Limbs = [
        0xffff_ffff_bfff_ff0c,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_ffff_ffff,
        0x3fff_ffff_ffff_ffff,
    ];
    let candidate = modarith::pow_mod(a, &EXP, &FIELD_D, &field::P);
    (fmul(&candidate, &candidate) == *a).then_some(candidate)
}

fn smul(a: &Limbs, b: &Limbs) -> Limbs {
    modarith::mul_mod(a, b, &SCALAR_D, &scalar::N)
}

fn sadd(a: &Limbs, b: &Limbs) -> Limbs {
    modarith::add_mod(a, b, &scalar::N)
}

fn sneg(a: &Limbs) -> Limbs {
    modarith::sub_mod(&[0, 0, 0, 0], a, &scalar::N)
}

fn sinv(a: &Limbs) -> Limbs {
    modarith::inv_mod(a, &SCALAR_D, &scalar::N)
}

fn sreduce(bytes: &[u8; 32]) -> Limbs {
    let limbs = modarith::from_be_bytes(bytes);
    let wide = [limbs[0], limbs[1], limbs[2], limbs[3], 0, 0, 0, 0];
    modarith::reduce_wide(wide, &SCALAR_D, &scalar::N)
}

// --- Jacobian point arithmetic, as the old loop ran it ------------------

#[derive(Clone, Copy)]
struct Jac {
    x: Limbs,
    y: Limbs,
    z: Limbs,
}

const INF: Jac = Jac {
    x: [1, 0, 0, 0],
    y: [1, 0, 0, 0],
    z: [0, 0, 0, 0],
};

impl Jac {
    fn is_inf(&self) -> bool {
        modarith::is_zero(&self.z)
    }

    fn double(&self) -> Jac {
        if self.is_inf() || modarith::is_zero(&self.y) {
            return INF;
        }
        let a = fmul(&self.x, &self.x);
        let b = fmul(&self.y, &self.y);
        let c = fmul(&b, &b);
        let xb = fadd(&self.x, &b);
        let mut d = fsub(&fmul(&xb, &xb), &fadd(&a, &c));
        d = fadd(&d, &d);
        let e = fadd(&fadd(&a, &a), &a);
        let f = fmul(&e, &e);
        let x3 = fsub(&f, &fadd(&d, &d));
        let c2 = fadd(&c, &c);
        let c4 = fadd(&c2, &c2);
        let c8 = fadd(&c4, &c4);
        let y3 = fsub(&fmul(&e, &fsub(&d, &x3)), &c8);
        let yz = fmul(&self.y, &self.z);
        let z3 = fadd(&yz, &yz);
        Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    fn add(&self, other: &Jac) -> Jac {
        if self.is_inf() {
            return *other;
        }
        if other.is_inf() {
            return *self;
        }
        let z1z1 = fmul(&self.z, &self.z);
        let z2z2 = fmul(&other.z, &other.z);
        let u1 = fmul(&self.x, &z2z2);
        let u2 = fmul(&other.x, &z1z1);
        let s1 = fmul(&fmul(&self.y, &z2z2), &other.z);
        let s2 = fmul(&fmul(&other.y, &z1z1), &self.z);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return INF;
        }
        let h = fsub(&u2, &u1);
        let r = fsub(&s2, &s1);
        let h2 = fmul(&h, &h);
        let h3 = fmul(&h2, &h);
        let u1h2 = fmul(&u1, &h2);
        let x3 = fsub(&fsub(&fmul(&r, &r), &h3), &fadd(&u1h2, &u1h2));
        let y3 = fsub(&fmul(&r, &fsub(&u1h2, &x3)), &fmul(&s1, &h3));
        let z3 = fmul(&fmul(&self.z, &other.z), &h);
        Jac {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    fn into_affine(self) -> Option<(Limbs, Limbs)> {
        if self.is_inf() {
            return None;
        }
        let z_inv = finv(&self.z);
        let z_inv2 = fmul(&z_inv, &z_inv);
        let z_inv3 = fmul(&z_inv2, &z_inv);
        Some((fmul(&self.x, &z_inv2), fmul(&self.y, &z_inv3)))
    }
}

fn generator() -> Jac {
    Jac {
        x: modarith::from_be_bytes(&GX),
        y: modarith::from_be_bytes(&GY),
        z: [1, 0, 0, 0],
    }
}

fn nibble(k: &Limbs, i: usize) -> usize {
    let bit = i * 4;
    ((k[bit / 64] >> (bit % 64)) & 0xf) as usize
}

fn bit(k: &Limbs, i: usize) -> bool {
    (k[i / 64] >> (i % 64)) & 1 == 1
}

/// Windowed (4-bit) multiplication, rebuilding the 16-entry table per
/// call — exactly what the old `JacobianPoint::mul` did for every
/// signature's `k·G`.
fn mul(p: &Jac, k: &Limbs) -> Jac {
    if modarith::is_zero(k) || p.is_inf() {
        return INF;
    }
    let mut table = [INF; 16];
    table[1] = *p;
    for i in 2..16 {
        table[i] = if i % 2 == 0 {
            table[i / 2].double()
        } else {
            table[i - 1].add(p)
        };
    }
    let mut acc = INF;
    for window in (0..64).rev() {
        if !acc.is_inf() {
            acc = acc.double().double().double().double();
        }
        let digit = nibble(k, window);
        if digit != 0 {
            acc = acc.add(&table[digit]);
        }
    }
    acc
}

/// The old 2-bit Shamir trick over `{G, Q, G+Q}`.
fn double_scalar_mul(a: &Limbs, b: &Limbs, q: &Jac) -> Jac {
    let g = generator();
    let gq = g.add(q);
    let mut acc = INF;
    for i in (0..256).rev() {
        if !acc.is_inf() {
            acc = acc.double();
        }
        match (bit(a, i), bit(b, i)) {
            (true, true) => acc = acc.add(&gq),
            (true, false) => acc = acc.add(&g),
            (false, true) => acc = acc.add(q),
            (false, false) => {}
        }
    }
    acc
}

// --- the frozen sign / recover loops ------------------------------------

/// Pre-optimization [`crate::sign`]: byte-identical output, original
/// cost profile (per-call window table, Fermat inversions, generic
/// reduction).
pub fn sign_reference(secret: &SecretKey, digest: &H256) -> Signature {
    let z = sreduce(&digest.into_inner());
    let d = modarith::from_be_bytes(&secret.to_bytes());
    let mut extra = 0u32;
    loop {
        let k_scalar = deterministic_nonce(secret, digest, extra);
        extra = extra.wrapping_add(1);
        let k = modarith::from_be_bytes(&k_scalar.to_be_bytes());
        let Some((rx, ry)) = mul(&generator(), &k).into_affine() else {
            continue;
        };
        let rx_bytes = modarith::to_be_bytes(&rx);
        let r = sreduce(&rx_bytes);
        if modarith::is_zero(&r) {
            continue;
        }
        let mut s = smul(&sinv(&k), &sadd(&z, &smul(&r, &d)));
        if modarith::is_zero(&s) {
            continue;
        }
        // r >= n would shift the recovery id; the old loop retried.
        if modarith::gte(&modarith::from_be_bytes(&rx_bytes), &scalar::N) {
            continue;
        }
        let mut v = (ry[0] & 1) as u8;
        if modarith::gte(&s, &HALF_N) && s != HALF_N {
            s = sneg(&s);
            v ^= 1;
        }
        let mut bytes = [0u8; 65];
        bytes[..32].copy_from_slice(&modarith::to_be_bytes(&r));
        bytes[32..64].copy_from_slice(&modarith::to_be_bytes(&s));
        bytes[64] = v;
        return Signature::from_bytes(&bytes).expect("reference signature is canonical");
    }
}

/// Pre-optimization [`crate::recover_address`]: the 2-bit Shamir loop
/// plus Fermat inversions, returning `None` where the live path errors.
pub fn recover_address_reference(digest: &H256, signature: &Signature) -> Option<Address> {
    let r = modarith::from_be_bytes(signature.r_bytes());
    let s = modarith::from_be_bytes(signature.s_bytes());
    // R has x = r (r < n < p, so the field parse cannot fail).
    let x = r;
    let y2 = fadd(&fmul(&fmul(&x, &x), &x), &[7, 0, 0, 0]);
    let mut y = fsqrt(&y2)?;
    if (y[0] & 1 == 1) != (signature.v() == 1) {
        y = fsub(&[0, 0, 0, 0], &y);
    }
    let r_point = Jac {
        x,
        y,
        z: [1, 0, 0, 0],
    };
    let z = sreduce(&digest.into_inner());
    let r_inv = sinv(&r);
    let u1 = sneg(&smul(&z, &r_inv));
    let u2 = smul(&s, &r_inv);
    let (qx, qy) = double_scalar_mul(&u1, &u2, &r_point).into_affine()?;
    let mut encoded = [0u8; 64];
    encoded[..32].copy_from_slice(&modarith::to_be_bytes(&qx));
    encoded[32..].copy_from_slice(&modarith::to_be_bytes(&qy));
    let hash = keccak256(&encoded);
    Some(Address::from_slice(&hash.as_bytes()[12..]).expect("20-byte tail of a 32-byte digest"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{recover_address, sign, FieldElement, Scalar};
    use proptest::prelude::*;

    /// The live inverse of `a` (safegcd) equals the Fermat ladder's and
    /// times `a` is one, modulo `p` and modulo `n` — for each modulus
    /// `a` is a nonzero residue of.
    fn check_inverse(a: &Limbs) {
        let bytes = modarith::to_be_bytes(a);
        if let Some(x) = FieldElement::from_be_bytes(&bytes).filter(|x| !x.is_zero()) {
            let inv = x.invert();
            assert_eq!(inv.to_be_bytes(), modarith::to_be_bytes(&finv(a)), "{x:?}");
            assert_eq!(x * inv, FieldElement::ONE, "{x:?}");
        }
        if let Some(x) = Scalar::from_be_bytes(&bytes).filter(|x| !x.is_zero()) {
            let inv = x.invert();
            assert_eq!(inv.to_be_bytes(), modarith::to_be_bytes(&sinv(a)), "{x:?}");
            assert_eq!(x * inv, Scalar::ONE, "{x:?}");
        }
    }

    /// `2^k` as limbs (`k < 256`).
    fn pow2(k: usize) -> Limbs {
        let mut limbs = [0u64; 4];
        limbs[k / 64] = 1 << (k % 64);
        limbs
    }

    #[test]
    fn inverse_matches_fermat_at_the_edges() {
        for m in [field::P, scalar::N] {
            for small in 1..=3u64 {
                check_inverse(&[small, 0, 0, 0]);
                check_inverse(&modarith::sub(&m, &[small, 0, 0, 0]).0);
            }
            for k in 0..256 {
                // Powers of two, runs of k ones (a long run of zeros
                // above them), and values just under m.
                check_inverse(&pow2(k));
                check_inverse(&modarith::sub(&pow2(k), &[1, 0, 0, 0]).0);
                check_inverse(&modarith::sub(&m, &pow2(k)).0);
            }
        }
        // A long run of zeros between two set bits; all ones below 2^256.
        check_inverse(&[1, 0, 0, 1 << 63]);
        check_inverse(&[u64::MAX; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random values, and random values with a long run of their
        /// bits forced to zero or to one.
        #[test]
        fn inverse_matches_fermat(
            limbs in any::<[u64; 4]>(),
            run_start in 0usize..256,
            run_len in 0usize..192,
            shape in 0u8..3,
        ) {
            let mut a = limbs;
            for bit in run_start..(run_start + run_len).min(256) {
                match shape {
                    1 => a[bit / 64] &= !(1 << (bit % 64)),
                    2 => a[bit / 64] |= 1 << (bit % 64),
                    _ => {}
                }
            }
            check_inverse(&a);
        }
    }

    #[test]
    fn reference_matches_live_path() {
        for seed in 0..6u8 {
            let key = SecretKey::from_seed(&[seed, 0xba]);
            let digest = keccak256(&[seed, 0x5e]);
            let live = sign(&key, &digest);
            let frozen = sign_reference(&key, &digest);
            assert_eq!(live, frozen, "signatures must be byte-identical");
            assert_eq!(
                recover_address(&digest, &live).ok(),
                recover_address_reference(&digest, &frozen),
                "recovered addresses must agree"
            );
            assert_eq!(
                recover_address_reference(&digest, &frozen),
                Some(key.address())
            );
        }
    }
}
