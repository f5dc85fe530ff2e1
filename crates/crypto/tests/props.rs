//! Property tests on the cryptographic core: ECDSA round-trips, group
//! laws on secp256k1, hash stability, and the equivalence the known-signer
//! envelope check rests on: `PreparedKey::signed(d, σ)` ⇔
//! `recover(d, σ) == Ok(key)`.

use parp_crypto::{
    baseline, double_scalar_mul, keccak256, recover, recover_address, sign, verify, AffinePoint,
    PointTable, PreparedKey, Scalar, SecretKey, Signature,
};
use parp_primitives::H256;
use proptest::prelude::*;

fn arb_secret() -> impl Strategy<Value = SecretKey> {
    proptest::collection::vec(any::<u8>(), 1..32).prop_map(|seed| SecretKey::from_seed(&seed))
}

fn arb_scalar() -> impl Strategy<Value = Scalar> {
    any::<[u8; 32]>().prop_map(|b| Scalar::from_be_bytes_reduced(&b))
}

/// Every wNAF window a [`PointTable`] accepts.
const WINDOWS: std::ops::RangeInclusive<u32> = 2..=8;

/// `signature` with one byte of `r || s || v` XOR-ed, when the result
/// still parses (a high `s` or out-of-range `r` is refused at the door,
/// before either verdict is asked for).
fn with_byte_flipped(signature: &Signature, index: usize, mask: u8) -> Option<Signature> {
    let mut bytes = signature.to_bytes();
    bytes[index] ^= mask;
    Signature::from_bytes(&bytes).ok()
}

proptest! {
    // 1,500 cases × 7 signature columns = 10,500 verdicts.
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// The known-signer check accepts exactly the signatures whose
    /// recovery yields the key — on the genuine signature and on every
    /// way an envelope can be wrong. Every eighth case also holds the
    /// verdict to the retained pre-optimization recovery. (The ladder
    /// under it is held to `double_scalar_mul` at every window below.)
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
        // (what is wrong with it, digest, signature if it still parses)
        let columns: [(Option<&str>, H256, Option<Signature>); 7] = [
            (None, digest, Some(genuine)),
            (Some("flipped recovery id"), digest, with_byte_flipped(&genuine, 64, 1)),
            (Some("another key's signature"), digest, Some(sign(&other, &digest))),
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

    /// One ladder: `double_scalar_mul` is the table-taking loop at the
    /// one-shot window, and the loop computes the same point at every
    /// window.
    #[test]
    fn double_scalar_mul_is_the_table_loop(a in arb_scalar(), b in arb_scalar(), q in arb_scalar()) {
        let q = AffinePoint::generator().mul(&q);
        let expected = double_scalar_mul(&a, &b, &q);
        for window in WINDOWS {
            let table = PointTable::new(&q, window);
            prop_assert_eq!(table.width(), window);
            prop_assert_eq!(table.double_scalar_mul(&a, &b), expected, "w = {}", window);
        }
    }
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
