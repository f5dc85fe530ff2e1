//! Property tests pinning the optimized crypto hot path to its
//! pre-optimization semantics.
//!
//! The fixed-base comb, the GLV-split interleaved-wNAF double
//! multiplication, the per-point comb, the binary-GCD inversions and the
//! Montgomery batch inversion are all pure speedups: every one must be
//! **bit-identical** to the generic (retained) implementations. These
//! tests check that equivalence on random inputs, plus the edge cases
//! the batch paths must survive (zero elements, points at infinity).

use parp_suite::contracts::RpcCall;
use parp_suite::crypto::{
    batch_to_affine, double_scalar_mul, keccak256, mul_generator, recover_address,
    recover_addresses_parallel, sign, AffinePoint, FieldElement, PointComb, PreparedKey, Scalar,
    SecretKey,
};
use parp_suite::net::Network;
use parp_suite::primitives::U256;
use proptest::prelude::*;

fn scalar_from(seed: &[u8]) -> Scalar {
    Scalar::from_be_bytes_reduced(&keccak256(seed).into_inner())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fixed-base comb multiplication ≡ the generic double-and-add
    /// ladder, for random scalars.
    #[test]
    fn fixed_base_table_matches_generic_mul(seed in any::<u64>()) {
        let k = scalar_from(&seed.to_be_bytes());
        let comb = mul_generator(&k).to_affine();
        let generic = AffinePoint::generator().mul(&k);
        prop_assert_eq!(comb, generic);
    }

    /// The GLV + interleaved-wNAF `a·G + b·Q` ≡ computing the two halves
    /// with the generic ladder and adding them.
    #[test]
    fn wnaf_double_mul_matches_generic(sa in any::<u64>(), sb in any::<u64>(), sq in any::<u64>()) {
        let a = scalar_from(&sa.to_be_bytes());
        let b = scalar_from(&sb.to_be_bytes());
        let q = AffinePoint::generator().mul(&scalar_from(&sq.to_be_bytes()));
        let fast = double_scalar_mul(&a, &b, &q);
        let reference = AffinePoint::generator()
            .mul(&a)
            .to_jacobian()
            .add(&q.mul(&b).to_jacobian())
            .to_affine();
        prop_assert_eq!(fast, reference);
    }

    /// Optimized sign/recover ≡ the retained pre-optimization loop:
    /// byte-identical signatures, identical recovered addresses.
    #[test]
    fn sign_and_recovery_match_retained_baseline(key_seed in any::<u64>(), msg in any::<u64>()) {
        let key = SecretKey::from_seed(&key_seed.to_be_bytes());
        let digest = keccak256(&msg.to_be_bytes());
        let fast_sig = sign(&key, &digest);
        let slow_sig = parp_suite::crypto::baseline::sign_reference(&key, &digest);
        prop_assert_eq!(fast_sig, slow_sig, "signatures must be byte-identical");
        let fast_addr = recover_address(&digest, &fast_sig).ok();
        let slow_addr =
            parp_suite::crypto::baseline::recover_address_reference(&digest, &fast_sig);
        prop_assert_eq!(fast_addr, slow_addr, "recovered addresses must agree");
        prop_assert_eq!(fast_addr, Some(key.address()));
    }

    /// Montgomery batch inversion ≡ per-element `invert`, with zero
    /// elements passing through untouched.
    #[test]
    fn batch_inversion_matches_per_element(seeds in proptest::collection::vec(any::<u64>(), 0..12), zero_at in any::<u8>()) {
        let mut elems: Vec<FieldElement> = seeds
            .iter()
            .map(|s| FieldElement::from_be_bytes_reduced(&keccak256(&s.to_be_bytes()).into_inner()))
            .collect();
        if !elems.is_empty() {
            // Plant a zero somewhere: it must survive as zero.
            let at = zero_at as usize % elems.len();
            elems[at] = FieldElement::ZERO;
        }
        let expected: Vec<FieldElement> = elems
            .iter()
            .map(|e| if e.is_zero() { *e } else { e.invert() })
            .collect();
        let mut batched = elems;
        FieldElement::batch_invert(&mut batched);
        prop_assert_eq!(batched, expected);
    }

    /// Multi-point batch normalization ≡ per-point `to_affine`,
    /// including points at infinity in the middle of the batch.
    #[test]
    fn batch_to_affine_matches_per_point(seeds in proptest::collection::vec(any::<u64>(), 0..10)) {
        let mut points: Vec<_> = seeds
            .iter()
            .map(|s| mul_generator(&scalar_from(&s.to_be_bytes())))
            .collect();
        points.push(parp_suite::crypto::JacobianPoint::INFINITY);
        let expected: Vec<AffinePoint> = points.iter().map(|p| p.to_affine()).collect();
        prop_assert_eq!(batch_to_affine(&points), expected);
    }

    /// The parallel batch-recovery helper ≡ a sequential loop.
    #[test]
    fn parallel_recovery_matches_sequential(n in 1usize..12, seed in any::<u32>()) {
        let pairs: Vec<_> = (0..n)
            .map(|i| {
                let key = SecretKey::from_seed(&(seed as u64 + i as u64).to_be_bytes());
                let digest = keccak256(&[i as u8, 0xcc]);
                (digest, sign(&key, &digest))
            })
            .collect();
        let parallel = recover_addresses_parallel(&pairs);
        let sequential: Vec<_> = pairs
            .iter()
            .map(|(digest, sig)| recover_address(digest, sig))
            .collect();
        prop_assert_eq!(parallel, sequential);
    }
}

/// Known-degenerate inputs the table paths must not mishandle.
#[test]
fn degenerate_scalars_and_points() {
    // Zero scalars.
    assert!(mul_generator(&Scalar::ZERO).to_affine().is_infinity());
    let g = AffinePoint::generator();
    assert_eq!(
        double_scalar_mul(&Scalar::ZERO, &Scalar::ONE, &g),
        g,
        "0·G + 1·G"
    );
    assert_eq!(
        double_scalar_mul(&Scalar::ONE, &Scalar::ZERO, &g),
        g,
        "1·G + 0·G"
    );
    assert!(double_scalar_mul(&Scalar::ZERO, &Scalar::ZERO, &g).is_infinity());
    // Q at infinity: only the G half contributes.
    assert_eq!(
        double_scalar_mul(
            &Scalar::from_u64(7),
            &Scalar::from_u64(9),
            &AffinePoint::Infinity
        ),
        g.mul(&Scalar::from_u64(7))
    );
    // a + b spanning the order: (n−1)·G + 1·G = O.
    let n_minus_one = -Scalar::ONE;
    assert!(double_scalar_mul(&n_minus_one, &Scalar::ONE, &g).is_infinity());
    // The same edges through the comb a prepared key carries.
    let comb = PointComb::new(&g);
    assert_eq!(comb.double_scalar_mul(&Scalar::ZERO, &Scalar::ONE), g);
    assert_eq!(comb.double_scalar_mul(&Scalar::ONE, &Scalar::ZERO), g);
    assert!(comb
        .double_scalar_mul(&Scalar::ZERO, &Scalar::ZERO)
        .is_infinity());
    assert!(comb
        .double_scalar_mul(&n_minus_one, &Scalar::ONE)
        .is_infinity());
    assert_eq!(
        PointComb::new(&AffinePoint::Infinity)
            .double_scalar_mul(&Scalar::from_u64(7), &Scalar::from_u64(9)),
        g.mul(&Scalar::from_u64(7))
    );
    // Batch inversion of an all-zero and an empty slice.
    let mut zeros = vec![FieldElement::ZERO; 3];
    FieldElement::batch_invert(&mut zeros);
    assert!(zeros.iter().all(|e| e.is_zero()));
    let mut empty: Vec<FieldElement> = Vec::new();
    FieldElement::batch_invert(&mut empty);
    assert!(empty.is_empty());
    assert!(batch_to_affine(&[]).is_empty());
}

/// The budget that keeps `gateway-chaos` flat: every failover there
/// learns two keys again and abandoned channels pin theirs, so a learned
/// key may cost no more than it did when it carried the w = 7 wNAF table
/// (2,432 bytes a key; 2,680 on the node and 3,392 on the client for the
/// first exchange of a channel, pending record included).
#[test]
fn a_learned_key_costs_no_more_than_the_table_it_replaced() {
    let key = PreparedKey::new(SecretKey::from_seed(b"key-budget").public_key());
    assert!(key.mem_bytes() <= 2432, "{} bytes a key", key.mem_bytes());

    let mut net = Network::new();
    let node = net.spawn_node(b"key-budget-node", U256::from(10u64));
    let mut client = net.spawn_client(b"key-budget-client", U256::from(10u64));
    let channel = net
        .connect(&mut client, node, U256::from(10_000u64))
        .expect("connection setup");
    let (node_before, client_before) = (net.node(node).mem_bytes(), client.mem_bytes());
    let address = client.address();
    net.parp_call(&mut client, node, RpcCall::GetBalance { address })
        .expect("first exchange");
    assert!(net.node(node).client_key(channel).is_some());
    assert!(client.provider_key(&net.node(node).address()).is_some());
    let node_grew = net.node(node).mem_bytes() - node_before;
    let client_grew = client.mem_bytes() - client_before;
    assert!(node_grew <= 2680, "node grew {node_grew} bytes");
    assert!(client_grew <= 3392, "client grew {client_grew} bytes");
}
