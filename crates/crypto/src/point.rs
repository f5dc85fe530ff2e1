//! secp256k1 group arithmetic: affine and Jacobian points, windowed and
//! comb scalar multiplication, and the curve generator.
//!
//! The curve is `y^2 = x^3 + 7` over `F_p`. Jacobian coordinates
//! `(X, Y, Z)` represent the affine point `(X/Z^2, Y/Z^3)`; `Z = 0` is the
//! point at infinity.
//!
//! # The fixed-base hot path
//!
//! Every PARP exchange multiplies the generator several times (one per
//! signature, one per recovery or verification), so `G` gets an 8-bit
//! **comb table** (`windows[i][j] = (j+1)·2^(8i)·G`, 32 × 255 entries),
//! built once behind `OnceLock` and normalized to affine with a single
//! shared field inversion ([`batch_to_affine`]): [`mul_generator`] is ≤ 32
//! mixed additions with **zero** doublings, and it is the `a·G` half of
//! every `a·G + b·Q`.
//!
//! # The two variable-base paths
//!
//! A point seen once (the nonce point of a recovery) gets a
//! [`PointTable`] per call: eight odd multiples, batch-normalized, read by
//! a GLV/wNAF ladder over a ~130-long doubling chain. A point seen on
//! every exchange (a channel peer's key) keeps a [`PointComb`], built
//! once: 32 sign patterns of six rows `2^(22j)·Q`, read column by column
//! over a 22-long chain. Which one a caller gets depends only on which it
//! built.

use crate::field::FieldElement;
use crate::scalar::Scalar;
use std::fmt;
use std::sync::OnceLock;

/// An affine point on secp256k1, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum AffinePoint {
    /// The identity element.
    Infinity,
    /// A finite curve point.
    Point {
        /// x-coordinate.
        x: FieldElement,
        /// y-coordinate.
        y: FieldElement,
    },
}

impl fmt::Debug for AffinePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AffinePoint::Infinity => write!(f, "AffinePoint::Infinity"),
            AffinePoint::Point { x, y } => f
                .debug_struct("AffinePoint")
                .field("x", x)
                .field("y", y)
                .finish(),
        }
    }
}

/// The secp256k1 generator point coordinates.
const GX: [u8; 32] = [
    0x79, 0xbe, 0x66, 0x7e, 0xf9, 0xdc, 0xbb, 0xac, 0x55, 0xa0, 0x62, 0x95, 0xce, 0x87, 0x0b, 0x07,
    0x02, 0x9b, 0xfc, 0xdb, 0x2d, 0xce, 0x28, 0xd9, 0x59, 0xf2, 0x81, 0x5b, 0x16, 0xf8, 0x17, 0x98,
];
const GY: [u8; 32] = [
    0x48, 0x3a, 0xda, 0x77, 0x26, 0xa3, 0xc4, 0x65, 0x5d, 0xa4, 0xfb, 0xfc, 0x0e, 0x11, 0x08, 0xa8,
    0xfd, 0x17, 0xb4, 0x48, 0xa6, 0x85, 0x54, 0x19, 0x9c, 0x47, 0xd0, 0x8f, 0xfb, 0x10, 0xd4, 0xb8,
];

/// The generator, parsed once (callers used to re-parse and re-validate
/// the coordinates on every `generator()` call — a measurable cost inside
/// the old per-signature loop).
static GENERATOR: OnceLock<AffinePoint> = OnceLock::new();

impl AffinePoint {
    /// The group generator `G` (cached; the byte parse runs once per
    /// process).
    pub fn generator() -> Self {
        *GENERATOR.get_or_init(|| AffinePoint::Point {
            x: FieldElement::from_be_bytes(&GX).expect("generator x below p"),
            y: FieldElement::from_be_bytes(&GY).expect("generator y below p"),
        })
    }

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, AffinePoint::Infinity)
    }

    /// Checks the curve equation `y^2 = x^3 + 7`. Infinity is on the curve.
    pub fn is_on_curve(&self) -> bool {
        match self {
            AffinePoint::Infinity => true,
            AffinePoint::Point { x, y } => y.square() == x.square() * *x + FieldElement::B,
        }
    }

    /// Reconstructs a point from an x-coordinate and the parity of `y`.
    ///
    /// Returns `None` when `x^3 + 7` is not a quadratic residue.
    pub fn from_x(x: FieldElement, y_is_odd: bool) -> Option<Self> {
        let y2 = x.square() * x + FieldElement::B;
        let mut y = y2.sqrt()?;
        if y.is_odd() != y_is_odd {
            y = -y;
        }
        Some(AffinePoint::Point { x, y })
    }

    /// Serializes as 64 bytes `x || y` (uncompressed, without the 0x04 tag).
    ///
    /// # Panics
    ///
    /// Panics on the point at infinity, which has no affine encoding.
    pub fn to_bytes(&self) -> [u8; 64] {
        match self {
            AffinePoint::Infinity => panic!("cannot serialize the point at infinity"),
            AffinePoint::Point { x, y } => {
                let mut out = [0u8; 64];
                out[..32].copy_from_slice(&x.to_be_bytes());
                out[32..].copy_from_slice(&y.to_be_bytes());
                out
            }
        }
    }

    /// Parses a 64-byte `x || y` encoding, validating the curve equation.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<Self> {
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[..32]);
        yb.copy_from_slice(&bytes[32..]);
        let x = FieldElement::from_be_bytes(&xb)?;
        let y = FieldElement::from_be_bytes(&yb)?;
        let point = AffinePoint::Point { x, y };
        point.is_on_curve().then_some(point)
    }

    /// Negates the point.
    pub fn neg(&self) -> Self {
        match self {
            AffinePoint::Infinity => AffinePoint::Infinity,
            AffinePoint::Point { x, y } => AffinePoint::Point { x: *x, y: -*y },
        }
    }

    /// Converts to Jacobian coordinates.
    pub fn to_jacobian(&self) -> JacobianPoint {
        match self {
            AffinePoint::Infinity => JacobianPoint::INFINITY,
            AffinePoint::Point { x, y } => JacobianPoint {
                x: *x,
                y: *y,
                z: FieldElement::ONE,
            },
        }
    }

    /// Scalar multiplication `k * self` using a 4-bit fixed window.
    pub fn mul(&self, k: &Scalar) -> AffinePoint {
        self.to_jacobian().mul(k).to_affine()
    }
}

/// A point in Jacobian projective coordinates.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl JacobianPoint {
    /// The point at infinity (`Z = 0`).
    pub const INFINITY: JacobianPoint = JacobianPoint {
        x: FieldElement::ONE,
        y: FieldElement::ONE,
        z: FieldElement::ZERO,
    };

    /// Returns `true` for the point at infinity.
    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (specialized for curve parameter `a = 0`).
    pub fn double(&self) -> JacobianPoint {
        if self.is_infinity() || self.y.is_zero() {
            return JacobianPoint::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let mut d = (self.x + b).square() - a - c;
        d = d + d;
        let e = a + a + a;
        let f = e.square();
        let x3 = f - (d + d);
        let c8 = {
            let c2 = c + c;
            let c4 = c2 + c2;
            c4 + c4
        };
        let y3 = e * (d - x3) - c8;
        let z3 = {
            let yz = self.y * self.z;
            yz + yz
        };
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian point addition.
    pub fn add(&self, other: &JacobianPoint) -> JacobianPoint {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x * z2z2;
        let u2 = other.x * z1z1;
        let s1 = self.y * z2z2 * other.z;
        let s2 = other.y * z1z1 * self.z;
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return JacobianPoint::INFINITY;
        }
        let h = u2 - u1;
        let r = s2 - s1;
        let h2 = h.square();
        let h3 = h2 * h;
        let u1h2 = u1 * h2;
        let x3 = r.square() - h3 - (u1h2 + u1h2);
        let y3 = r * (u1h2 - x3) - s1 * h3;
        let z3 = self.z * other.z * h;
        JacobianPoint {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition with an affine point (slightly cheaper).
    pub fn add_affine(&self, other: &AffinePoint) -> JacobianPoint {
        match other {
            AffinePoint::Infinity => *self,
            AffinePoint::Point { x, y } => {
                if self.is_infinity() {
                    return JacobianPoint {
                        x: *x,
                        y: *y,
                        z: FieldElement::ONE,
                    };
                }
                let z1z1 = self.z.square();
                let u2 = *x * z1z1;
                let s2 = *y * z1z1 * self.z;
                if self.x == u2 {
                    if self.y == s2 {
                        return self.double();
                    }
                    return JacobianPoint::INFINITY;
                }
                let h = u2 - self.x;
                let r = s2 - self.y;
                let h2 = h.square();
                let h3 = h2 * h;
                let u1h2 = self.x * h2;
                let x3 = r.square() - h3 - (u1h2 + u1h2);
                let y3 = r * (u1h2 - x3) - self.y * h3;
                let z3 = self.z * h;
                JacobianPoint {
                    x: x3,
                    y: y3,
                    z: z3,
                }
            }
        }
    }

    /// Windowed (4-bit) scalar multiplication, MSB window first.
    pub fn mul(&self, k: &Scalar) -> JacobianPoint {
        if k.is_zero() || self.is_infinity() {
            return JacobianPoint::INFINITY;
        }
        // Precompute 1..=15 multiples of self.
        let mut table = [JacobianPoint::INFINITY; 16];
        table[1] = *self;
        for i in 2..16 {
            table[i] = if i % 2 == 0 {
                table[i / 2].double()
            } else {
                table[i - 1].add(self)
            };
        }
        let mut acc = JacobianPoint::INFINITY;
        for window in (0..64).rev() {
            if !acc.is_infinity() {
                acc = acc.double().double().double().double();
            }
            let digit = k.nibble(window) as usize;
            if digit != 0 {
                acc = acc.add(&table[digit]);
            }
        }
        acc
    }

    /// Negates the point.
    fn neg(&self) -> JacobianPoint {
        JacobianPoint {
            x: self.x,
            y: -self.y,
            z: self.z,
        }
    }

    /// Mixed addition with the sign of the affine operand chosen at the
    /// call site — the ladders add or subtract table entries, and negating
    /// an affine point is one field negation.
    fn add_affine_signed(&self, other: &AffinePoint, negate: bool) -> JacobianPoint {
        match other {
            AffinePoint::Infinity => *self,
            AffinePoint::Point { x, y } if negate => {
                self.add_affine(&AffinePoint::Point { x: *x, y: -*y })
            }
            point => self.add_affine(point),
        }
    }

    /// Converts back to affine coordinates (one field inversion).
    ///
    /// Converting **many** points should go through [`batch_to_affine`],
    /// which amortizes the inversion across the whole set.
    pub fn to_affine(&self) -> AffinePoint {
        if self.is_infinity() {
            return AffinePoint::Infinity;
        }
        let z_inv = self.z.invert();
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2 * z_inv;
        AffinePoint::Point {
            x: self.x * z_inv2,
            y: self.y * z_inv3,
        }
    }
}

/// Converts many Jacobian points to affine with **one** field inversion
/// (Montgomery batch inversion over the `Z` coordinates): `3(N−1)`
/// multiplications plus a single inversion instead of `N` inversions.
/// Points at infinity map to [`AffinePoint::Infinity`].
pub fn batch_to_affine(points: &[JacobianPoint]) -> Vec<AffinePoint> {
    let mut zs: Vec<FieldElement> = points.iter().map(|p| p.z).collect();
    FieldElement::batch_invert(&mut zs);
    points
        .iter()
        .zip(&zs)
        .map(|(p, z_inv)| {
            if p.is_infinity() {
                AffinePoint::Infinity
            } else {
                let z_inv2 = z_inv.square();
                let z_inv3 = z_inv2 * *z_inv;
                AffinePoint::Point {
                    x: p.x * z_inv2,
                    y: p.y * z_inv3,
                }
            }
        })
        .collect()
}

/// Comb window width in bits; the table is indexed by scalar bytes.
const COMB_WINDOW_BITS: usize = 8;
/// Number of byte windows covering a 256-bit scalar.
const COMB_WINDOWS: usize = 256 / COMB_WINDOW_BITS;
/// Entries per comb window (every non-zero byte value).
const COMB_ENTRIES: usize = (1 << COMB_WINDOW_BITS) - 1;

/// wNAF window width of a [`PointTable`] (8 odd multiples — the table is
/// rebuilt for every recovery, so it must stay small).
const WNAF_ONCE_WIDTH: u32 = 5;

/// The precomputed fixed-base comb: `windows[i][j] = (j+1) · 2^(8i) · G`.
/// ~8k affine points (≈0.5 MB), built once and shared by every signature
/// and recovery in the process.
static G_COMB: OnceLock<Vec<Vec<AffinePoint>>> = OnceLock::new();

fn g_comb() -> &'static Vec<Vec<AffinePoint>> {
    G_COMB.get_or_init(|| {
        let mut jacobians: Vec<JacobianPoint> = Vec::with_capacity(COMB_WINDOWS * COMB_ENTRIES);
        let mut base = AffinePoint::generator().to_jacobian();
        for _ in 0..COMB_WINDOWS {
            let mut multiple = base;
            for _ in 0..COMB_ENTRIES {
                jacobians.push(multiple);
                multiple = multiple.add(&base);
            }
            // After pushing j·base for j = 1..=255, `multiple` is
            // 256·base — exactly the next window's base.
            base = multiple;
        }
        let affine = batch_to_affine(&jacobians);
        affine
            .chunks(COMB_ENTRIES)
            .map(|chunk| chunk.to_vec())
            .collect()
    })
}

/// Fixed-base multiplication `k · G` off the precomputed comb: at most 32
/// mixed additions and **no doublings** (the old path rebuilt a 16-entry
/// window table of `G` and ran 256 doublings per call).
pub fn mul_generator(k: &Scalar) -> JacobianPoint {
    let table = g_comb();
    let mut acc = JacobianPoint::INFINITY;
    for (window, entries) in table.iter().enumerate() {
        let byte = k.byte(window);
        if byte != 0 {
            acc = acc.add_affine(&entries[byte as usize - 1]);
        }
    }
    acc
}

/// `β`: the cube root of unity in the base field realizing the GLV
/// endomorphism `λ·(x, y) = (β·x, y)`.
fn beta() -> FieldElement {
    const BETA_BYTES: [u8; 32] = [
        0x7a, 0xe9, 0x6a, 0x2b, 0x65, 0x7c, 0x07, 0x10, 0x6e, 0x64, 0x47, 0x9e, 0xac, 0x34, 0x34,
        0xe9, 0x9c, 0xf0, 0x49, 0x75, 0x12, 0xf5, 0x89, 0x95, 0xc1, 0x39, 0x6c, 0x28, 0x71, 0x95,
        0x01, 0xee,
    ];
    static BETA: OnceLock<FieldElement> = OnceLock::new();
    *BETA.get_or_init(|| FieldElement::from_be_bytes(&BETA_BYTES).expect("beta below p"))
}

/// Upper bound on the wNAF digit positions of a sign-normalized GLV half
/// (≤129 bits, plus the window's carry slack).
const GLV_DIGITS: usize = 136;

/// `λ·(x, y) = (β·x, y)`: the endomorphism image of a table entry, one
/// field multiplication away and therefore never stored.
fn lambda_image(point: &AffinePoint, beta: FieldElement) -> AffinePoint {
    match *point {
        AffinePoint::Infinity => AffinePoint::Infinity,
        AffinePoint::Point { x, y } => AffinePoint::Point { x: beta * x, y },
    }
}

/// The odd multiples `1Q, 3Q, …, 15Q` of a point seen once (the nonce
/// point of a recovery), batch-normalized: everything the GLV/wNAF ladder
/// reads about `Q`. Building one costs 8 Jacobian additions plus one
/// field inversion on every call, so it stays small; a point multiplied
/// on every exchange gets a [`PointComb`] instead.
#[derive(Clone)]
pub struct PointTable {
    odd: Vec<AffinePoint>,
}

impl PointTable {
    /// Builds the w = 5 table of `q` (8 entries of 72 bytes).
    pub fn new(q: &AffinePoint) -> Self {
        let qj = q.to_jacobian();
        let q2 = qj.double();
        let mut jacobians = Vec::with_capacity(1 << (WNAF_ONCE_WIDTH - 2));
        let mut current = qj;
        for _ in 0..(1usize << (WNAF_ONCE_WIDTH - 2)) {
            jacobians.push(current);
            current = current.add(&q2);
        }
        PointTable {
            odd: batch_to_affine(&jacobians),
        }
    }

    /// Computes `a * G + b * Q` for a point without a comb — the core of
    /// recovery and one-shot verification, and the only ladder in the
    /// crate that walks a full doubling chain.
    ///
    /// The `G` half rides the precomputed fixed-base comb (≤32 mixed
    /// additions, zero doublings). The `Q` half is GLV-split into two
    /// ≤129-bit scalars whose wNAF forms interleave over **one**
    /// half-length doubling chain, adding the table's odd multiples and
    /// their endomorphism image `λ·(x, y) = (β·x, y)`. Net cost: ~130
    /// doublings plus ~75 mixed additions (~1,750 field operations).
    pub fn double_scalar_mul(&self, a: &Scalar, b: &Scalar) -> AffinePoint {
        let (b1, neg1, b2, neg2) = b.split_glv();
        let naf1 = b1.wnaf(WNAF_ONCE_WIDTH);
        let naf2 = b2.wnaf(WNAF_ONCE_WIDTH);
        debug_assert!(
            naf1[GLV_DIGITS..].iter().all(|&d| d == 0)
                && naf2[GLV_DIGITS..].iter().all(|&d| d == 0),
            "GLV halves must stay short"
        );
        let beta = beta();
        let mut acc = JacobianPoint::INFINITY;
        for i in (0..GLV_DIGITS).rev() {
            if !acc.is_infinity() {
                acc = acc.double();
            }
            let d1 = naf1[i];
            if d1 != 0 {
                let entry = &self.odd[(d1.unsigned_abs() as usize - 1) / 2];
                acc = acc.add_affine_signed(entry, (d1 < 0) ^ neg1);
            }
            let d2 = naf2[i];
            if d2 != 0 {
                let entry = lambda_image(&self.odd[(d2.unsigned_abs() as usize - 1) / 2], beta);
                acc = acc.add_affine_signed(&entry, (d2 < 0) ^ neg2);
            }
        }
        acc.add(&mul_generator(a)).to_affine()
    }
}

/// `a * G + b * Q` for a point multiplied once: a [`PointTable`] of `q`,
/// then [`PointTable::double_scalar_mul`].
pub fn double_scalar_mul(a: &Scalar, b: &Scalar, q: &AffinePoint) -> AffinePoint {
    PointTable::new(q).double_scalar_mul(a, b)
}

/// Teeth of a [`PointComb`]: rows `2^(COLS·j)·Q` for `j = 0..TEETH`.
const POINT_COMB_TEETH: usize = 6;
/// Columns of a [`PointComb`], and the length of its doubling chain:
/// `TEETH × COLS = 132` bits hold a ≤130-bit odd GLV half.
const POINT_COMB_COLS: usize = 22;
/// Entries of a [`PointComb`]: one per sign pattern of the lower teeth
/// (the top tooth's sign is folded into the lookup).
const POINT_COMB_ENTRIES: usize = 1 << (POINT_COMB_TEETH - 1);

/// A signed-digit Lim–Lee comb of a point multiplied on every exchange (a
/// channel peer's key): what [`mul_generator`]'s table is to `G`, sized
/// to be kept per peer.
///
/// With rows `R_j = 2^(COLS·j)·Q`, entry `i` is `R_top + Σ_{j<top} ±R_j`,
/// `R_j` entering with `+` where bit `j` of `i` is set — batch-normalized
/// once. An odd `k < 2^(TEETH·COLS)` is a sum of digits `±1`
/// (`k = Σ s_i·2^i`, `s_i = 2·bit_(i+1)(k) − 1`, the top digit `+1`), so
/// every column of every GLV half is exactly one lookup, and
/// `a·G + b·Q` costs 22 doublings plus 44 mixed additions for `Q` where
/// the wNAF ladder of a [`PointTable`] walks ~130 doublings.
#[derive(Clone)]
pub struct PointComb {
    entries: Box<[AffinePoint]>,
}

impl PointComb {
    /// Builds the comb of `q`: 110 doublings for the rows, 36 additions
    /// for the 32 entries (72 bytes each), one field inversion.
    pub fn new(q: &AffinePoint) -> Self {
        // lower[j] = R_j and twice[j] = 2·R_j (which the chain from R_j to
        // R_(j+1) passes through anyway); the chain ends on the top row.
        let mut lower = [JacobianPoint::INFINITY; POINT_COMB_TEETH - 1];
        let mut twice = [JacobianPoint::INFINITY; POINT_COMB_TEETH - 1];
        let mut row = q.to_jacobian();
        for j in 0..POINT_COMB_TEETH - 1 {
            lower[j] = row;
            row = row.double();
            twice[j] = row;
            for _ in 1..POINT_COMB_COLS {
                row = row.double();
            }
        }
        // Entry 0 has every lower tooth negative; setting bit j of the
        // index flips R_j from − to +, i.e. adds 2·R_j.
        let mut jacobians = Vec::with_capacity(POINT_COMB_ENTRIES);
        jacobians.push(lower.iter().fold(row, |sum, r| sum.add(&r.neg())));
        for (j, step) in twice.iter().enumerate() {
            for i in 0..1 << j {
                jacobians.push(jacobians[i].add(step));
            }
        }
        PointComb {
            entries: batch_to_affine(&jacobians).into_boxed_slice(),
        }
    }

    /// Bytes this comb occupies: itself plus its heap entries.
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(&*self.entries)
    }

    /// The entry column `col` of `k` selects, and whether it enters
    /// negated: tooth `j`'s sign is bit `col + COLS·j + 1` of `k` (the
    /// digit string is `k >> 1` with the top digit forced to `+1`), and a
    /// negative top tooth is the mirrored pattern negated,
    /// `−entries[!lower]`.
    fn lookup(&self, k: &Scalar, col: usize) -> (&AffinePoint, bool) {
        const TOP: usize = POINT_COMB_TEETH - 1;
        let mut lower = 0;
        for j in 0..TOP {
            lower |= k.bit(col + POINT_COMB_COLS * j + 1) << j;
        }
        if col == POINT_COMB_COLS - 1 || k.bit(col + POINT_COMB_COLS * TOP + 1) == 1 {
            (&self.entries[lower], false)
        } else {
            (&self.entries[!lower & (POINT_COMB_ENTRIES - 1)], true)
        }
    }

    /// `±k1·Q ± k2·λ·Q` for odd halves below `2^(TEETH·COLS)`: both read
    /// this one table column by column (the `λ` half through `β·x`) over
    /// a single `COLS`-long doubling chain.
    fn mul_halves(&self, k1: &Scalar, neg1: bool, k2: &Scalar, neg2: bool) -> JacobianPoint {
        const BITS: usize = POINT_COMB_TEETH * POINT_COMB_COLS;
        debug_assert!(
            [k1, k2]
                .iter()
                .all(|k| k.bit(0) == 1 && (BITS..256).all(|i| k.bit(i) == 0)),
            "comb halves must be odd and short"
        );
        let beta = beta();
        let mut acc = JacobianPoint::INFINITY;
        for col in (0..POINT_COMB_COLS).rev() {
            acc = acc.double();
            let (entry, negated) = self.lookup(k1, col);
            acc = acc.add_affine_signed(entry, negated ^ neg1);
            let (entry, negated) = self.lookup(k2, col);
            acc = acc.add_affine_signed(&lambda_image(entry, beta), negated ^ neg2);
        }
        acc
    }

    /// Computes `a * G + b * Q` with next to no doubling chain: the GLV
    /// halves of `b` (made odd: digits `±1` spell only odd numbers) read the comb
    /// and the `G` half rides [`mul_generator`]. 22 doublings plus ~76
    /// mixed additions (~1,000 field operations).
    pub fn double_scalar_mul(&self, a: &Scalar, b: &Scalar) -> AffinePoint {
        let (k1, neg1, k2, neg2) = b.split_glv_odd();
        self.mul_halves(&k1, neg1, &k2, neg2)
            .add(&mul_generator(a))
            .to_affine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_primitives::to_hex;

    fn g() -> AffinePoint {
        AffinePoint::generator()
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(g().is_on_curve());
    }

    #[test]
    fn two_g_known_answer() {
        // 2G, published test vector.
        let two_g = g().to_jacobian().double().to_affine();
        match two_g {
            AffinePoint::Point { x, y } => {
                assert_eq!(
                    to_hex(&x.to_be_bytes()),
                    "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
                );
                assert_eq!(
                    to_hex(&y.to_be_bytes()),
                    "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a"
                );
            }
            AffinePoint::Infinity => panic!("2G must be finite"),
        }
    }

    #[test]
    fn three_g_two_ways() {
        let j = g().to_jacobian();
        let via_add = j.double().add(&j).to_affine();
        let via_mul = g().mul(&Scalar::from_u64(3));
        assert_eq!(via_add, via_mul);
        assert!(via_mul.is_on_curve());
    }

    #[test]
    fn mul_by_zero_is_infinity() {
        assert!(g().mul(&Scalar::ZERO).is_infinity());
    }

    #[test]
    fn mul_by_order_is_infinity() {
        // n * G = O, expressed as (n - 1) * G + G.
        let n_minus_one = -Scalar::ONE;
        let p = g().mul(&n_minus_one);
        let sum = p.to_jacobian().add_affine(&g()).to_affine();
        assert!(sum.is_infinity());
    }

    #[test]
    fn n_minus_one_g_is_neg_g() {
        let p = g().mul(&(-Scalar::ONE));
        assert_eq!(p, g().neg());
    }

    #[test]
    fn addition_commutes() {
        let a = g().mul(&Scalar::from_u64(17));
        let b = g().mul(&Scalar::from_u64(23));
        let ab = a.to_jacobian().add(&b.to_jacobian()).to_affine();
        let ba = b.to_jacobian().add(&a.to_jacobian()).to_affine();
        assert_eq!(ab, ba);
        assert_eq!(ab, g().mul(&Scalar::from_u64(40)));
    }

    #[test]
    fn mixed_addition_matches_full() {
        let a = g().mul(&Scalar::from_u64(99));
        let b = g().mul(&Scalar::from_u64(101));
        let full = a.to_jacobian().add(&b.to_jacobian()).to_affine();
        let mixed = a.to_jacobian().add_affine(&b).to_affine();
        assert_eq!(full, mixed);
    }

    #[test]
    fn point_plus_negation_is_infinity() {
        let p = g().mul(&Scalar::from_u64(5));
        let sum = p.to_jacobian().add_affine(&p.neg()).to_affine();
        assert!(sum.is_infinity());
    }

    #[test]
    fn from_x_recovers_generator() {
        match g() {
            AffinePoint::Point { x, y } => {
                let recovered = AffinePoint::from_x(x, y.is_odd()).unwrap();
                assert_eq!(recovered, g());
                let flipped = AffinePoint::from_x(x, !y.is_odd()).unwrap();
                assert_eq!(flipped, g().neg());
            }
            AffinePoint::Infinity => unreachable!(),
        }
    }

    #[test]
    fn byte_roundtrip_and_validation() {
        let p = g().mul(&Scalar::from_u64(42));
        let bytes = p.to_bytes();
        assert_eq!(AffinePoint::from_bytes(&bytes), Some(p));
        // Corrupt y: almost surely off-curve.
        let mut bad = bytes;
        bad[63] ^= 1;
        assert_eq!(AffinePoint::from_bytes(&bad), None);
    }

    #[test]
    fn double_scalar_mul_matches_separate() {
        let a = Scalar::from_u64(1234567);
        let b = Scalar::from_u64(7654321);
        let q = g().mul(&Scalar::from_u64(31337));
        let combined = double_scalar_mul(&a, &b, &q);
        let separate = g()
            .mul(&a)
            .to_jacobian()
            .add(&q.mul(&b).to_jacobian())
            .to_affine();
        assert_eq!(combined, separate);
    }

    #[test]
    fn prepared_key_table_fits_its_budget() {
        // What a channel end keeps per peer: 32 entries, the 2,304 bytes
        // the w = 7 wNAF table took before it.
        let comb = PointComb::new(&g());
        assert_eq!(comb.entries.len(), 32);
        assert_eq!(comb.mem_bytes(), std::mem::size_of::<PointComb>() + 2304);
    }

    #[test]
    fn comb_halves_match_the_slow_ladder_at_every_edge() {
        // Odd halves the GLV split rarely or never hands the comb: the
        // shortest, the longest it has room for (132 bits), exactly 129
        // and 130 bits, every column's lower teeth all negative (1 — the
        // digit string is all zeros under the forced top digit), every
        // digit positive (2^132 − 1), and one tooth alone positive.
        let bit = |i: u32| {
            let mut bytes = [0u8; 32];
            bytes[31 - (i / 8) as usize] = 1 << (i % 8);
            Scalar::from_be_bytes(&bytes).unwrap()
        };
        let one = Scalar::ONE;
        let halves = [
            one,
            Scalar::from_u64(3),
            bit(128) + one,
            bit(129) - one,
            bit(129) + one,
            bit(130) - one,
            bit(132) - one,
            bit(132) - bit(110) + one,
            bit(22) - one,
            bit(88) - bit(66) + one,
        ];
        let q = g().mul(&Scalar::from_u64(0xc0ffee));
        let comb = PointComb::new(&q);
        let lambda_q = lambda_image(&q, beta());
        let signed = |p: AffinePoint, negate: bool| if negate { p.neg() } else { p };
        for (i, k1) in halves.iter().enumerate() {
            let k2 = &halves[(i + 3) % halves.len()];
            for (neg1, neg2) in [(false, false), (true, false), (false, true), (true, true)] {
                let expected = signed(q.mul(k1), neg1)
                    .to_jacobian()
                    .add(&signed(lambda_q.mul(k2), neg2).to_jacobian())
                    .to_affine();
                assert_eq!(
                    comb.mul_halves(k1, neg1, k2, neg2).to_affine(),
                    expected,
                    "{k1:?} {neg1} {k2:?} {neg2}"
                );
            }
        }
        // Equal halves entering with opposite signs.
        let k = bit(100) + one;
        assert_eq!(
            comb.mul_halves(&k, false, &k, true).to_affine(),
            q.mul(&k)
                .to_jacobian()
                .add(&lambda_q.mul(&k).neg().to_jacobian())
                .to_affine()
        );
    }

    #[test]
    fn scalar_mul_distributes_over_addition() {
        // (a + b) G == aG + bG for random-ish scalars.
        let a = Scalar::from_be_bytes_reduced(&[0xa5; 32]);
        let b = Scalar::from_be_bytes_reduced(&[0x3c; 32]);
        let lhs = g().mul(&(a + b));
        let rhs = g()
            .mul(&a)
            .to_jacobian()
            .add(&g().mul(&b).to_jacobian())
            .to_affine();
        assert_eq!(lhs, rhs);
    }
}
