//! Property tests on the cryptographic core: ECDSA round-trips, group
//! laws on secp256k1, hash stability, and the equivalence the known-signer
//! envelope check rests on: `PreparedKey::signed(d, σ)` ⇔
//! `recover(d, σ) == Ok(key)`.

use parp_crypto::{
    baseline, double_scalar_mul, keccak256, recover, recover_address, sign, verify, AffinePoint,
    PointComb, PointTable, PreparedKey, Scalar, SecretKey, Signature,
};
use parp_primitives::H256;
use proptest::prelude::*;

fn arb_secret() -> impl Strategy<Value = SecretKey> {
    proptest::collection::vec(any::<u8>(), 1..32).prop_map(|seed| SecretKey::from_seed(&seed))
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

/// `a·G + b·Q` the slow way: two 4-bit fixed-window ladders and one
/// addition, sharing nothing with the wNAF table or the comb.
fn slow_double_mul(a: &Scalar, b: &Scalar, q: &AffinePoint) -> AffinePoint {
    let ag = AffinePoint::generator().mul(a).to_jacobian();
    ag.add(&q.mul(b).to_jacobian()).to_affine()
}

/// `signature` with one byte of `r || s || v` XOR-ed, when the result
/// still parses (a high `s` or out-of-range `r` is refused at the door,
/// before either verdict is asked for).
fn with_byte_flipped(signature: &Signature, index: usize, mask: u8) -> Option<Signature> {
    let mut bytes = signature.to_bytes();
    bytes[index] ^= mask;
    Signature::from_bytes(&bytes).ok()
}

proptest! {
    // 1,500 cases × 8 signature columns = 12,000 verdicts.
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// The known-signer check accepts exactly the signatures whose
    /// recovery yields the key — on the genuine signature and on every
    /// way an envelope can be wrong. Every eighth case also holds the
    /// verdict to the retained pre-optimization recovery. (The comb
    /// under it is held to the slow ladder below.)
    #[test]
    fn prepared_key_verdict_is_recovery_verdict(
        key in arb_secret(),
        other in arb_secret(),
        message in any::<[u8; 16]>(),
        random_sig in any::<[u8; 32]>(),
        flip in 0usize..32,
        mask in 1u8..255,
        against_baseline in 0u8..8,
    ) {
        let public = key.public_key();
        let digest = keccak256(&message);
        let genuine = sign(&key, &digest);
        let mut tampered_digest = digest.into_inner();
        tampered_digest[flip] ^= mask;
        let tampered_digest = H256::new(tampered_digest);
        // A syntactically valid signature nobody made: r and s drawn
        // from the same bytes, s forced into the low half.
        let mut random = [0u8; 65];
        random[..32].copy_from_slice(&keccak256(&random_sig).into_inner());
        random[32..64].copy_from_slice(&random_sig);
        random[32] &= 0x3f;
        random[64] = mask & 1;
        // The key `n − d`, whose public point is `−Q`: a comb that lost a
        // sign would take its signatures for the key's.
        let negated = Scalar::from_be_bytes(&key.to_bytes()).expect("a secret key is below n");
        let negated = SecretKey::from_bytes(&(-negated).to_be_bytes()).expect("n − d is in range");
        // (what is wrong with it, digest, signature if it still parses)
        let columns: [(Option<&str>, H256, Option<Signature>); 8] = [
            (None, digest, Some(genuine)),
            (Some("flipped recovery id"), digest, with_byte_flipped(&genuine, 64, 1)),
            (Some("another key's signature"), digest, Some(sign(&other, &digest))),
            (Some("the negated key's signature"), digest, Some(sign(&negated, &digest))),
            (Some("tampered digest"), tampered_digest, Some(genuine)),
            (Some("tampered r"), digest, with_byte_flipped(&genuine, flip, mask)),
            // Low-order half of s: the result stays in the low half of
            // the order, so it parses.
            (Some("tampered s"), digest, with_byte_flipped(&genuine, 48 + flip % 16, mask)),
            (Some("random signature"), digest, Signature::from_bytes(&random).ok()),
        ];
        let prepared = PreparedKey::new(public);
        for (wrong, digest, signature) in &columns {
            let Some(signature) = signature else { continue };
            let by_recovery = recover(digest, signature) == Ok(public);
            match wrong {
                None => prop_assert!(by_recovery, "the genuine signature recovers to its key"),
                Some(_) if other.address() == key.address() => {}
                Some(wrong) => prop_assert!(!by_recovery, "{} recovered to the key", wrong),
            }
            prop_assert_eq!(prepared.signed(digest, signature), by_recovery, "{:?}", wrong);
            if against_baseline == 0 {
                let by_baseline =
                    baseline::recover_address_reference(digest, signature) == Some(key.address());
                prop_assert_eq!(by_baseline, by_recovery, "{:?} vs baseline", wrong);
            }
        }
        prop_assert_eq!(prepared.address(), key.address());
        prop_assert_eq!(prepared.public_key(), &public);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One answer: `double_scalar_mul` is the wNAF table's loop, and the
    /// loop and the per-point comb both compute what two slow ladders and
    /// an addition do.
    #[test]
    fn double_scalar_mul_is_the_table_loop(a in arb_scalar(), b in arb_scalar(), q in arb_scalar()) {
        let q = AffinePoint::generator().mul(&q);
        let expected = slow_double_mul(&a, &b, &q);
        prop_assert_eq!(double_scalar_mul(&a, &b, &q), expected);
        prop_assert_eq!(PointTable::new(&q).double_scalar_mul(&a, &b), expected);
        prop_assert_eq!(PointComb::new(&q).double_scalar_mul(&a, &b), expected);
    }
}

/// `λ`, the scalar of the GLV endomorphism: `b = k1 + k2·λ` puts chosen
/// halves in front of the split.
const LAMBDA: [u8; 32] = [
    0x53, 0x63, 0xad, 0x4c, 0xc0, 0x5c, 0x30, 0xe0, 0xa5, 0x26, 0x1c, 0x02, 0x88, 0x12, 0x64, 0x5a,
    0x12, 0x2e, 0x22, 0xea, 0x20, 0x81, 0x66, 0x78, 0xdf, 0x02, 0x96, 0x7c, 0x1b, 0x23, 0xbd, 0x72,
];

/// The comb against the slow ladder where a digit string, a sign or an
/// addition is special: `b` ∈ {0, 1, n−1}; halves that are 0, 1, a lone
/// high bit, all ones across every column, and ~2^127 (one parity fix
/// away from the longest half the comb meets); `a = 0`; `a·G = −b·Q` (the
/// sum is infinity); `a·G = b·Q` (the last addition must double); and
/// `Q` at infinity.
#[test]
fn comb_matches_the_slow_ladder_at_the_edges() {
    let lambda = Scalar::from_be_bytes(&LAMBDA).unwrap();
    let pow2 = |i: u32| {
        let mut bytes = [0u8; 32];
        bytes[31 - (i / 8) as usize] = 1 << (i % 8);
        Scalar::from_be_bytes(&bytes).unwrap()
    };
    let one = Scalar::ONE;
    let halves = [
        Scalar::ZERO,
        one,
        Scalar::from_u64(2),
        pow2(22),
        pow2(110),
        pow2(127),
        pow2(127) - one,
        pow2(126) + pow2(22) - one,
    ];
    let mut bs = vec![Scalar::ZERO, one, -one, lambda, -lambda, one + lambda];
    for k1 in &halves {
        for k2 in &halves {
            bs.push(*k1 + *k2 * lambda);
            bs.push(*k1 - *k2 * lambda);
            bs.push(-*k1 + *k2 * lambda);
        }
    }
    let t = Scalar::from_be_bytes_reduced(&keccak256(b"comb edges").into_inner());
    let q = AffinePoint::generator().mul(&t);
    let comb = PointComb::new(&q);
    let a = Scalar::from_be_bytes_reduced(&keccak256(b"comb edges, a").into_inner());
    for b in &bs {
        // b·Q = (b·t)·G, so these two choices of `a` cancel and double it.
        for a in [Scalar::ZERO, a, -(*b * t), *b * t] {
            assert_eq!(
                comb.double_scalar_mul(&a, b),
                slow_double_mul(&a, b, &q),
                "a = {a:?}, b = {b:?}"
            );
        }
        assert!(comb.double_scalar_mul(&-(*b * t), b).is_infinity());
    }
    assert_eq!(
        PointComb::new(&AffinePoint::Infinity).double_scalar_mul(&a, &bs[7]),
        AffinePoint::generator().mul(&a)
    );
}

/// Over 1,024 distinct digests under four keys, the live path signs,
/// recovers and checks a known signer exactly as the retained
/// pre-optimization loop does. The reference shares the RFC 6979 nonce
/// derivation, so agreeing with it cannot pin the nonce; the digest of
/// all 1,024 signatures can, and was recorded from the code before each
/// HMAC key's blocks were absorbed once.
#[test]
fn live_path_is_byte_identical_to_the_reference() {
    const SIGNATURES_DIGEST: &str =
        "0xcc2913460d9d47f2d530de33676ea559465345f6c3de274091d952eb78a1a42d";
    let mut all = Vec::with_capacity(1024 * Signature::LEN);
    for k in 0..4u8 {
        let key = SecretKey::from_seed(&[b'i', b'd', k]);
        let prepared = PreparedKey::new(key.public_key());
        for i in 0..256u16 {
            let digest = keccak256(&[&[k][..], &i.to_be_bytes()].concat());
            let signature = sign(&key, &digest);
            assert_eq!(signature, baseline::sign_reference(&key, &digest));
            let recovered = recover_address(&digest, &signature).ok();
            assert_eq!(
                recovered,
                baseline::recover_address_reference(&digest, &signature)
            );
            assert_eq!(recovered, Some(key.address()));
            assert!(prepared.signed(&digest, &signature));
            all.extend_from_slice(&signature.to_bytes());
        }
    }
    assert_eq!(keccak256(&all).to_string(), SIGNATURES_DIGEST);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sign_verify_recover_roundtrip(key in arb_secret(), message in proptest::collection::vec(any::<u8>(), 0..128)) {
        let digest = keccak256(&message);
        let signature = sign(&key, &digest);
        prop_assert!(verify(&key.public_key(), &digest, &signature));
        prop_assert_eq!(recover(&digest, &signature).unwrap(), key.public_key());
        prop_assert_eq!(recover_address(&digest, &signature).unwrap(), key.address());
        // Serialized round-trip preserves everything.
        let parsed = Signature::from_bytes(&signature.to_bytes()).unwrap();
        prop_assert_eq!(parsed, signature);
    }

    #[test]
    fn signatures_do_not_cross_verify(a in arb_secret(), b in arb_secret(), message in any::<[u8; 16]>()) {
        prop_assume!(a.address() != b.address());
        let digest = keccak256(&message);
        let sig_a = sign(&a, &digest);
        prop_assert!(!verify(&b.public_key(), &digest, &sig_a));
    }

    #[test]
    fn tampered_digest_fails(key in arb_secret(), message in any::<[u8; 16]>(), flip in 0usize..32) {
        let digest = keccak256(&message);
        let signature = sign(&key, &digest);
        let mut tampered = digest.into_inner();
        tampered[flip] ^= 0x01;
        let tampered = parp_primitives::H256::new(tampered);
        prop_assert!(!verify(&key.public_key(), &tampered, &signature));
        prop_assert_ne!(recover_address(&tampered, &signature).ok(), Some(key.address()));
    }

    #[test]
    fn scalar_mul_is_additive_homomorphism(a in arb_scalar(), b in arb_scalar()) {
        // (a + b)G == aG + bG
        let g = AffinePoint::generator();
        let lhs = g.mul(&(a + b));
        let rhs = g.mul(&a).to_jacobian().add(&g.mul(&b).to_jacobian()).to_affine();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn point_addition_commutes(a in arb_scalar(), b in arb_scalar()) {
        let g = AffinePoint::generator();
        let p = g.mul(&a);
        let q = g.mul(&b);
        let pq = p.to_jacobian().add(&q.to_jacobian()).to_affine();
        let qp = q.to_jacobian().add(&p.to_jacobian()).to_affine();
        prop_assert_eq!(pq, qp);
        prop_assert!(pq.is_on_curve());
    }

    #[test]
    fn scalar_field_laws(a in arb_scalar(), b in arb_scalar(), c in arb_scalar()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a + b) * c, a * c + b * c);
        prop_assert_eq!(a + (-a), Scalar::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.invert(), Scalar::ONE);
        }
    }

    #[test]
    fn keccak_has_no_trivial_collisions(a in proptest::collection::vec(any::<u8>(), 0..64), b in proptest::collection::vec(any::<u8>(), 0..64)) {
        if a != b {
            prop_assert_ne!(keccak256(&a), keccak256(&b));
        } else {
            prop_assert_eq!(keccak256(&a), keccak256(&b));
        }
    }

    #[test]
    fn public_key_bytes_roundtrip(key in arb_secret()) {
        let public = key.public_key();
        let parsed = parp_crypto::PublicKey::from_bytes(&public.to_bytes()).unwrap();
        prop_assert_eq!(parsed, public);
        prop_assert_eq!(parsed.address(), key.address());
    }
}
