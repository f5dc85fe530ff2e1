//! Shared 256-bit modular arithmetic for moduli of the form `2^256 - d`.
//!
//! Both secp256k1 moduli have this shape: the field prime
//! `p = 2^256 - 0x1000003d1` and the group order
//! `n = 2^256 - 0x14551231950b75fc4402da1732fc9bebf`. Reduction therefore
//! folds the high 256 bits back in as `hi * d + lo` until the value fits in
//! 256 bits, followed by at most one conditional subtraction.
//!
//! Hot-path variants live alongside the generic routines: a dedicated
//! squaring ([`sqr_wide`]), a single-limb fold for the field prime
//! ([`reduce_wide_d1`], `d = 0x1000003d1` fits one limb), one inverse
//! for both moduli ([`inv_mod`]: Bernstein and Yang's safegcd,
//! <https://eprint.iacr.org/2019/266>, in the variable-time form of
//! libsecp256k1's `modinv64_var`: ~1.4 µs on a 2-vCPU Xeon VM, where the
//! binary extended GCD it replaced took ~5.3 µs and the Fermat ladder
//! before that ~21 µs), and a sliding-window exponentiation
//! ([`pow_mod_window`]) that cuts the multiply count of square roots by
//! ~4×. The generic multiply/reduce stay in use for the scalar modulus
//! (whose fold constant spans three limbs); the *whole*
//! pre-optimization routine set, Fermat ladders included, lives on as
//! the frozen reference in `crate::baseline`.
//!
//! Values are four little-endian `u64` limbs (the inverse works on five
//! signed 62-bit ones inside). Nothing here is constant-time — the
//! inverse's step count and branches follow its input; this is a
//! research prototype, not a production signer (see crate docs).

pub(crate) type Limbs = [u64; 4];

/// Adds `a + b`, returning the 4-limb sum and the carry-out.
#[inline]
pub(crate) fn add(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
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

/// Subtracts `a - b`, returning the 4-limb difference and the borrow-out.
#[inline]
pub(crate) fn sub(a: &Limbs, b: &Limbs) -> (Limbs, bool) {
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

/// Compares two 4-limb values.
#[inline]
pub(crate) fn gte(a: &Limbs, b: &Limbs) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

pub(crate) fn is_zero(a: &Limbs) -> bool {
    a.iter().all(|&l| l == 0)
}

/// Schoolbook 4x4-limb multiplication into an 8-limb product.
#[inline]
pub(crate) fn mul_wide(a: &Limbs, b: &Limbs) -> [u64; 8] {
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

/// Reduces an 8-limb value modulo `m = 2^256 - d`.
///
/// `d` must be at most 192 bits (three limbs) so the fold product fits in
/// eight limbs — true for both secp256k1 moduli.
pub(crate) fn reduce_wide(mut wide: [u64; 8], d: &Limbs, m: &Limbs) -> Limbs {
    debug_assert_eq!(d[3], 0, "fold constant must fit in three limbs");
    loop {
        let hi = [wide[4], wide[5], wide[6], wide[7]];
        if is_zero(&hi) {
            break;
        }
        let lo = [wide[0], wide[1], wide[2], wide[3]];
        // hi * d: hi has <=4 limbs, d has <=3 limbs, product <= 2^(256+192)
        // which fits in 7 limbs; adding lo can carry into limb 7.
        let mut folded = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u64;
            for j in 0..3 {
                let wide_prod =
                    hi[i] as u128 * d[j] as u128 + folded[i + j] as u128 + carry as u128;
                folded[i + j] = wide_prod as u64;
                carry = (wide_prod >> 64) as u64;
            }
            // Propagate the final carry.
            let mut k = i + 3;
            while carry != 0 {
                let (sum, c) = folded[k].overflowing_add(carry);
                folded[k] = sum;
                carry = c as u64;
                k += 1;
            }
        }
        // folded += lo
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

/// Modular multiplication for `m = 2^256 - d`.
pub(crate) fn mul_mod(a: &Limbs, b: &Limbs, d: &Limbs, m: &Limbs) -> Limbs {
    reduce_wide(mul_wide(a, b), d, m)
}

/// Modular addition; inputs must already be `< m`.
#[inline]
pub(crate) fn add_mod(a: &Limbs, b: &Limbs, m: &Limbs) -> Limbs {
    let (sum, carry) = add(a, b);
    if carry || gte(&sum, m) {
        sub(&sum, m).0
    } else {
        sum
    }
}

/// Modular subtraction; inputs must already be `< m`.
#[inline]
pub(crate) fn sub_mod(a: &Limbs, b: &Limbs, m: &Limbs) -> Limbs {
    let (diff, borrow) = sub(a, b);
    if borrow {
        add(&diff, m).0
    } else {
        diff
    }
}

/// Dedicated 4-limb squaring: computes the 16 cross products once,
/// doubles them with shifts, and adds the 4 diagonal squares — 10 wide
/// multiplications instead of [`mul_wide`]'s 16.
#[inline]
pub(crate) fn sqr_wide(a: &Limbs) -> [u64; 8] {
    // Cross terms a[i] * a[j] for i < j, accumulated at i + j.
    let mut out = [0u64; 8];
    for i in 0..4 {
        let mut carry = 0u64;
        for j in (i + 1)..4 {
            let wide = a[i] as u128 * a[j] as u128 + out[i + j] as u128 + carry as u128;
            out[i + j] = wide as u64;
            carry = (wide >> 64) as u64;
        }
        if i < 3 {
            out[i + 4] = carry;
        }
    }
    // Double the cross terms (the sum of cross terms is < 2^447, so the
    // shift cannot lose a bit out of limb 7).
    let mut carry = 0u64;
    for limb in &mut out {
        let next = *limb >> 63;
        *limb = (*limb << 1) | carry;
        carry = next;
    }
    // Add the diagonal squares.
    let mut carry = 0u64;
    for i in 0..4 {
        let sq = a[i] as u128 * a[i] as u128;
        let (s1, c1) = out[2 * i].overflowing_add(sq as u64);
        let (s1, c2) = s1.overflowing_add(carry);
        out[2 * i] = s1;
        let (s2, c3) = out[2 * i + 1].overflowing_add((sq >> 64) as u64);
        let (s2, c4) = s2.overflowing_add(c1 as u64 + c2 as u64);
        out[2 * i + 1] = s2;
        carry = c3 as u64 + c4 as u64;
    }
    out
}

/// Reduces an 8-limb value modulo `m = 2^256 - d0` where the fold
/// constant fits a **single limb** (true for the field prime,
/// `d0 = 0x1000003d1`): two straight-line folds and a conditional
/// subtraction replace the generic loop's 4×3-limb products.
#[inline]
pub(crate) fn reduce_wide_d1(wide: [u64; 8], d0: u64, m: &Limbs) -> Limbs {
    // First fold: hi * d0 + lo. hi*d0 < 2^(256+34), so the sum fits in
    // five limbs.
    let mut t = [0u64; 5];
    let mut carry = 0u64;
    for i in 0..4 {
        let w = wide[4 + i] as u128 * d0 as u128 + carry as u128;
        t[i] = w as u64;
        carry = (w >> 64) as u64;
    }
    t[4] = carry;
    let mut c = 0u64;
    for i in 0..4 {
        let (s1, c1) = t[i].overflowing_add(wide[i]);
        let (s2, c2) = s1.overflowing_add(c);
        t[i] = s2;
        c = c1 as u64 + c2 as u64;
    }
    t[4] += c; // t[4] < 2^34, cannot overflow
               // Second fold: t[4] * d0 < 2^68.
    let mut out = [t[0], t[1], t[2], t[3]];
    if t[4] != 0 {
        let w = t[4] as u128 * d0 as u128;
        let (sum, overflow) = add(&out, &[w as u64, (w >> 64) as u64, 0, 0]);
        out = sum;
        if overflow {
            // Wrapped past 2^256: 2^256 ≡ d0 (mod m), and the result is
            // now tiny, so one more add cannot wrap again.
            out = add(&out, &[d0, 0, 0, 0]).0;
        }
    }
    while gte(&out, m) {
        out = sub(&out, m).0;
    }
    out
}

/// Modular multiplication for a single-limb fold constant.
#[inline]
pub(crate) fn mul_mod_d1(a: &Limbs, b: &Limbs, d0: u64, m: &Limbs) -> Limbs {
    reduce_wide_d1(mul_wide(a, b), d0, m)
}

/// Modular squaring for a single-limb fold constant.
#[inline]
pub(crate) fn sqr_mod_d1(a: &Limbs, d0: u64, m: &Limbs) -> Limbs {
    reduce_wide_d1(sqr_wide(a), d0, m)
}

/// A modulus as [`inv_mod`] reads it: five signed 62-bit limbs
/// (`Σ limbs[i]·2^(62·i)`; a limb may be negative, so `p`'s reads
/// `−0x1000003d1 + 256·2^248`) and `m⁻¹ mod 2^62`.
pub(crate) struct Modulus62 {
    pub(crate) limbs: [i64; 5],
    pub(crate) inv62: u64,
}

/// The low 62 bits.
const M62: u64 = u64::MAX >> 2;

/// What 62 divsteps did to `(f, g)`, scaled by `2^62`:
/// `2^62·(f', g') = (u·f + v·g, q·f + r·g)`.
struct Transition {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Runs 62 divsteps on the low 64 bits of `f` (odd) and `g`, starting
/// at `eta = −δ`, and returns the new `eta` with the matrix that
/// applies them to the full values. Variable-time: a run of zero bits
/// in `g` is one shift, and each odd step cancels up to six bits of
/// `g` at once (the shape of libsecp256k1's `divsteps_62_var`).
fn divsteps_62(mut eta: i64, f0: u64, g0: u64) -> (i64, Transition) {
    let (mut u, mut v, mut q, mut r) = (1u64, 0u64, 0u64, 1u64);
    let (mut f, mut g) = (f0, g0);
    let mut left = 62u32;
    loop {
        // A sentinel bit stops the count at the steps still left.
        let zeros = (g | (u64::MAX << left)).trailing_zeros();
        g >>= zeros;
        u <<= zeros;
        v <<= zeros;
        eta -= i64::from(zeros);
        left -= zeros;
        if left == 0 {
            break;
        }
        // g is odd. No more than `left` steps remain, and no more than
        // `|eta| + 1` pass before δ changes sign again.
        let limit = (eta.unsigned_abs() + 1).min(u64::from(left));
        let w = if eta < 0 {
            // δ > 0: (f, g) ← (g, −f), then cancel up to six bits of g
            // with w = −g·f⁻¹ (f·(f² − 2) is −f⁻¹ mod 64).
            eta = -eta;
            (f, g) = (g, f.wrapping_neg());
            (u, q) = (q, u.wrapping_neg());
            (v, r) = (r, v.wrapping_neg());
            let mask = (u64::MAX >> (64 - limit)) & 63;
            f.wrapping_mul(g)
                .wrapping_mul(f.wrapping_mul(f).wrapping_sub(2))
                & mask
        } else {
            // Up to four bits: f + ((f + 1) & 4)·2 is f⁻¹ mod 16.
            let mask = (u64::MAX >> (64 - limit)) & 15;
            let f_inv = f.wrapping_add((f.wrapping_add(1) & 4) << 1);
            f_inv.wrapping_neg().wrapping_mul(g) & mask
        };
        g = g.wrapping_add(f.wrapping_mul(w));
        q = q.wrapping_add(u.wrapping_mul(w));
        r = r.wrapping_add(v.wrapping_mul(w));
    }
    (
        eta,
        Transition {
            u: u as i64,
            v: v as i64,
            q: q as i64,
            r: r as i64,
        },
    )
}

/// `(d, e) ← t·(d, e) / 2^62 mod m`: a multiple of `m` chosen to zero
/// the low 62 bits makes the division exact. Keeps both in `(−2m, m)`
/// with limbs 0–3 in `[0, 2^62)`.
fn update_de(d: &mut [i64; 5], e: &mut [i64; 5], t: &Transition, m: &Modulus62) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    // Start from m·(u, q) if d is negative and m·(v, r) if e is, which
    // keeps the result above −2m.
    let (sd, se) = (d[4] >> 63, e[4] >> 63);
    let mut md = (t.u & sd) + (t.v & se);
    let mut me = (t.q & sd) + (t.r & se);
    let mut cd = u * d[0] as i128 + v * e[0] as i128;
    let mut ce = q * d[0] as i128 + r * e[0] as i128;
    md -= (m.inv62.wrapping_mul(cd as u64).wrapping_add(md as u64) & M62) as i64;
    me -= (m.inv62.wrapping_mul(ce as u64).wrapping_add(me as u64) & M62) as i64;
    cd += m.limbs[0] as i128 * md as i128;
    ce += m.limbs[0] as i128 * me as i128;
    debug_assert!(cd as u64 & M62 == 0 && ce as u64 & M62 == 0);
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += u * d[i] as i128 + v * e[i] as i128;
        ce += q * d[i] as i128 + r * e[i] as i128;
        if m.limbs[i] != 0 {
            cd += m.limbs[i] as i128 * md as i128;
            ce += m.limbs[i] as i128 * me as i128;
        }
        d[i - 1] = (cd as u64 & M62) as i64;
        e[i - 1] = (ce as u64 & M62) as i64;
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// `(f, g) ← t·(f, g) / 2^62` over the first `len` limbs (the
/// divsteps zeroed the low 62 bits, so the division is exact).
fn update_fg(len: usize, f: &mut [i64; 5], g: &mut [i64; 5], t: &Transition) {
    let (u, v, q, r) = (t.u as i128, t.v as i128, t.q as i128, t.r as i128);
    let mut cf = u * f[0] as i128 + v * g[0] as i128;
    let mut cg = q * f[0] as i128 + r * g[0] as i128;
    debug_assert!(cf as u64 & M62 == 0 && cg as u64 & M62 == 0);
    cf >>= 62;
    cg >>= 62;
    for i in 1..len {
        cf += u * f[i] as i128 + v * g[i] as i128;
        cg += q * f[i] as i128 + r * g[i] as i128;
        f[i - 1] = (cf as u64 & M62) as i64;
        g[i - 1] = (cg as u64 & M62) as i64;
        cf >>= 62;
        cg >>= 62;
    }
    f[len - 1] = cf as i64;
    g[len - 1] = cg as i64;
}

/// Splits four 64-bit limbs into five 62-bit ones.
fn to_signed62(a: &Limbs) -> [i64; 5] {
    [
        (a[0] & M62) as i64,
        ((a[0] >> 62 | a[1] << 2) & M62) as i64,
        ((a[1] >> 60 | a[2] << 4) & M62) as i64,
        ((a[2] >> 58 | a[3] << 6) & M62) as i64,
        (a[3] >> 56) as i64,
    ]
}

/// Carries every limb's excess into the next, leaving limbs 0–3 in
/// `[0, 2^62)` and the sign in limb 4.
fn carry62(r: &mut [i64; 5]) {
    for i in 0..4 {
        r[i + 1] += r[i] >> 62;
        r[i] &= M62 as i64;
    }
}

/// Brings `±d` from `(−2m, m)` into `[0, m)` and packs it into four
/// 64-bit limbs.
fn normalize(mut d: [i64; 5], negate: bool, m: &Modulus62) -> Limbs {
    let add_m = |d: &mut [i64; 5]| {
        for (limb, m) in d.iter_mut().zip(m.limbs) {
            *limb += m;
        }
        carry62(d);
    };
    if d[4] < 0 {
        add_m(&mut d);
    }
    if negate {
        for limb in &mut d {
            *limb = -*limb;
        }
        carry62(&mut d);
    }
    if d[4] < 0 {
        add_m(&mut d);
    }
    from_signed62(&d)
}

/// Packs five carried 62-bit limbs of a value in `[0, 2^256)` into four
/// 64-bit ones.
fn from_signed62(d: &[i64; 5]) -> Limbs {
    let d = d.map(|limb| limb as u64);
    [
        d[0] | d[1] << 62,
        d[1] >> 2 | d[2] << 60,
        d[2] >> 4 | d[3] << 58,
        d[3] >> 6 | d[4] << 56,
    ]
}

#[cfg(test)]
impl Modulus62 {
    /// The form of an odd `m` recomputed from scratch: its plain 62-bit
    /// limbs, and `m⁻¹ mod 2^62` by Newton's iteration (`x ← x·(2 − m·x)`
    /// doubles the correct low bits; odd `m` is its own inverse mod 8).
    pub(crate) fn derive(m: &Limbs) -> Self {
        let mut inv = m[0];
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(m[0].wrapping_mul(inv)));
        }
        Modulus62 {
            limbs: to_signed62(m),
            inv62: inv & M62,
        }
    }

    /// The value the (possibly negative) limbs spell.
    pub(crate) fn value(&self) -> Limbs {
        let mut limbs = self.limbs;
        carry62(&mut limbs);
        from_signed62(&limbs)
    }
}

/// Modular inverse by Bernstein and Yang's safegcd ("Fast
/// constant-time gcd computation and modular inversion", TCHES 2019,
/// <https://eprint.iacr.org/2019/266>), in its variable-time form.
///
/// Each round runs 62 divsteps on the low limbs of `f` (from `m`) and
/// `g` (from `a`) alone, folds them into a 2×2 matrix, and applies it to
/// the full five-limb values with `i128` products: to `(f, g)`, whose
/// length shrinks as they do, and to the Bézout pair `(d, e)` mod `m`.
/// When `g` reaches zero, `f = ±1` and `±d` is the inverse. At most
/// twelve rounds for 256-bit inputs; ~1.4 µs over distinct inputs
/// (`BENCH_crypto.json` `field_invert_us` / `scalar_invert_us`), a
/// quarter of the bit-at-a-time binary extended GCD it replaced and a
/// fifteenth of the Fermat ladder `crate::baseline` keeps as the oracle.
///
/// `m` must be odd and `0 < a < m` with `gcd(a, m) = 1` (every nonzero
/// `a` for prime `m`); the result is in `[0, m)`.
pub(crate) fn inv_mod(a: &Limbs, m: &Modulus62) -> Limbs {
    debug_assert!(!is_zero(a), "inverse of zero");
    let mut d = [0i64; 5];
    let mut e = [1i64, 0, 0, 0, 0];
    let mut f = m.limbs;
    let mut g = to_signed62(a);
    let mut len = 5;
    // eta = −δ; δ starts at 1.
    let mut eta = -1i64;
    loop {
        let (next_eta, t) = divsteps_62(eta, f[0] as u64, g[0] as u64);
        eta = next_eta;
        update_de(&mut d, &mut e, &t, m);
        update_fg(len, &mut f, &mut g, &t);
        if g[..len].iter().all(|&limb| limb == 0) {
            break;
        }
        // When both top limbs are bare sign extension (0 or −1), fold
        // them into the limb below and drop a limb.
        let (top_f, top_g) = (f[len - 1], g[len - 1]);
        if len > 1 && (top_f == 0 || top_f == -1) && (top_g == 0 || top_g == -1) {
            f[len - 2] |= top_f << 62;
            g[len - 2] |= top_g << 62;
            len -= 1;
        }
    }
    normalize(d, f[len - 1] < 0, m)
}

/// Returns bit `i` of a 4-limb value.
fn bit(a: &Limbs, i: usize) -> bool {
    (a[i / 64] >> (i % 64)) & 1 == 1
}

/// Sliding-window (4-bit) modular exponentiation: ~255 squarings plus one
/// multiply per window instead of one per set bit. With the high-Hamming-
/// weight exponents of the square-root and Fermat paths (~250 set bits)
/// this removes ~200 multiplications per call.
pub(crate) fn pow_mod_window(base: &Limbs, exp: &Limbs, d: &Limbs, m: &Limbs) -> Limbs {
    let mut top = 255usize;
    loop {
        if bit(exp, top) {
            break;
        }
        if top == 0 {
            return [1, 0, 0, 0]; // exponent is zero
        }
        top -= 1;
    }
    // Odd powers base^1, base^3, ..., base^15.
    let base_sq = mul_mod(base, base, d, m);
    let mut odd = [[0u64; 4]; 8];
    odd[0] = *base;
    for i in 1..8 {
        odd[i] = mul_mod(&odd[i - 1], &base_sq, d, m);
    }
    let mut result: Limbs = [1, 0, 0, 0];
    let mut started = false;
    let mut i = top as isize;
    while i >= 0 {
        if !bit(exp, i as usize) {
            result = mul_mod(&result, &result, d, m);
            i -= 1;
            continue;
        }
        // Greedy window [j, i] with an odd low end, at most 4 bits wide.
        let mut j = if i >= 3 { i - 3 } else { 0 };
        while !bit(exp, j as usize) {
            j += 1;
        }
        let width = (i - j + 1) as usize;
        let mut window = 0usize;
        for k in (j..=i).rev() {
            window = (window << 1) | bit(exp, k as usize) as usize;
        }
        if started {
            for _ in 0..width {
                result = mul_mod(&result, &result, d, m);
            }
            result = mul_mod(&result, &odd[(window - 1) / 2], d, m);
        } else {
            result = odd[(window - 1) / 2];
            started = true;
        }
        i = j - 1;
    }
    result
}

/// Parses 32 big-endian bytes into limbs (no reduction).
pub(crate) fn from_be_bytes(bytes: &[u8; 32]) -> Limbs {
    let mut limbs = [0u64; 4];
    for (i, chunk) in bytes.chunks_exact(8).enumerate() {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(chunk);
        limbs[3 - i] = u64::from_be_bytes(buf);
    }
    limbs
}

/// Serializes limbs as 32 big-endian bytes.
pub(crate) fn to_be_bytes(limbs: &Limbs) -> [u8; 32] {
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[i * 8..(i + 1) * 8].copy_from_slice(&limbs[3 - i].to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small prime 2^256 - 189 is handy: d = 189.
    const D: Limbs = [189, 0, 0, 0];
    const M: Limbs = [u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX];

    #[test]
    fn add_sub_roundtrip() {
        let a = [5, 6, 7, 8];
        let b = [1, 2, 3, 4];
        let (sum, carry) = add(&a, &b);
        assert!(!carry);
        assert_eq!(sub(&sum, &b), (a, false));
    }

    #[test]
    fn mul_wide_known() {
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        let a = [u64::MAX, 0, 0, 0];
        let prod = mul_wide(&a, &a);
        assert_eq!(prod[0], 1);
        assert_eq!(prod[1], u64::MAX - 1);
        assert!(prod[2..].iter().all(|&l| l == 0));
    }

    #[test]
    fn reduce_identity_below_modulus() {
        let value = [12345, 0, 0, 0];
        let wide = [12345, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &D, &M), value);
    }

    #[test]
    fn reduce_exact_modulus_is_zero() {
        let wide = [M[0], M[1], M[2], M[3], 0, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &D, &M), [0, 0, 0, 0]);
    }

    #[test]
    fn two_to_256_reduces_to_d() {
        // 2^256 mod (2^256 - d) = d
        let wide = [0, 0, 0, 0, 1, 0, 0, 0];
        assert_eq!(reduce_wide(wide, &D, &M), D);
    }

    #[test]
    fn mul_mod_matches_small_numbers() {
        let a = [0xffff_ffff_ffff_ffff, 1, 0, 0];
        let b = [7, 0, 0, 0];
        // No reduction needed (fits in 256 bits, below m).
        let expected = {
            let wide = mul_wide(&a, &b);
            [wide[0], wide[1], wide[2], wide[3]]
        };
        assert_eq!(mul_mod(&a, &b, &D, &M), expected);
    }

    #[test]
    fn inverse_times_self_is_one() {
        let m = Modulus62::derive(&M);
        assert_eq!(m.value(), M);
        for a in [
            [1, 0, 0, 0],
            [2, 0, 0, 0],
            [0xdead_beef, 0xcafe, 42, 7],
            [M[0] - 1, M[1], M[2], M[3]],
            [0, 0, 0, 1 << 63],
        ] {
            let inv = inv_mod(&a, &m);
            assert!(!gte(&inv, &M), "inverse of {a:?} not reduced");
            assert_eq!(mul_mod(&a, &inv, &D, &M), [1, 0, 0, 0], "{a:?}");
        }
        assert_eq!(inv_mod(&[1, 0, 0, 0], &m), [1, 0, 0, 0]);
    }

    #[test]
    fn signed62_roundtrip() {
        for a in [
            [0u64; 4],
            [u64::MAX; 4],
            [0x0123_4567_89ab_cdef, 1 << 62, 3 << 60, 0xff << 56],
        ] {
            assert_eq!(from_signed62(&to_signed62(&a)), a);
        }
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        // Oracle: plain MSB-first square-and-multiply.
        let slow = |base: &Limbs, exp: &Limbs| -> Limbs {
            let mut result = [1u64, 0, 0, 0];
            for i in (0..256).rev() {
                result = mul_mod(&result, &result, &D, &M);
                if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                    result = mul_mod(&result, base, &D, &M);
                }
            }
            result
        };
        let base = [0x1234_5678, 0x9abc_def0, 3, 1];
        for exp in [
            [0u64, 0, 0, 0],
            [1, 0, 0, 0],
            [0xff, 0, 0, 0],
            [
                0xdead_beef_cafe_f00d,
                0x0123_4567_89ab_cdef,
                u64::MAX,
                0x7fff_ffff_ffff_ffff,
            ],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX],
        ] {
            assert_eq!(pow_mod_window(&base, &exp, &D, &M), slow(&base, &exp));
        }
    }

    #[test]
    fn pow_window_zero_exponent_is_one() {
        let a = [9, 9, 9, 9];
        assert_eq!(pow_mod_window(&a, &[0, 0, 0, 0], &D, &M), [1, 0, 0, 0]);
    }

    #[test]
    fn squaring_matches_general_multiplication() {
        for a in [
            [0u64, 0, 0, 0],
            [1, 0, 0, 0],
            [u64::MAX, u64::MAX, u64::MAX, u64::MAX],
            [
                0xdead_beef_0bad_f00d,
                0x0123_4567_89ab_cdef,
                0xfedc_ba98_7654_3210,
                0x7fff_eeee_dddd_cccc,
            ],
        ] {
            assert_eq!(sqr_wide(&a), mul_wide(&a, &a), "sqr_wide({a:?})");
        }
    }

    #[test]
    fn single_limb_reduction_matches_generic() {
        // The field modulus: d fits one limb.
        const FIELD_D: Limbs = [0x1_0000_03d1, 0, 0, 0];
        const P: Limbs = [
            0xffff_fffe_ffff_fc2f,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
        ];
        let samples = [
            [0u64; 8],
            [0, 0, 0, 0, 1, 0, 0, 0],
            [u64::MAX; 8],
            [
                0xdead_beef,
                0xcafe_babe,
                1,
                2,
                0x0123_4567_89ab_cdef,
                u64::MAX,
                7,
                0x8000_0000_0000_0000,
            ],
        ];
        for wide in samples {
            assert_eq!(
                reduce_wide_d1(wide, FIELD_D[0], &P),
                reduce_wide(wide, &FIELD_D, &P),
                "reduce({wide:?})"
            );
        }
    }

    #[test]
    fn byte_roundtrip() {
        let a = [1, 2, 3, 0x0807060504030201];
        assert_eq!(from_be_bytes(&to_be_bytes(&a)), a);
    }
}
