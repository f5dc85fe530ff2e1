//! From-scratch cryptography for the PARP reproduction: Keccak-256 and
//! ECDSA over secp256k1 with Ethereum-style public-key recovery.
//!
//! Everything in this crate is implemented from first principles on top of
//! `u64` limb arithmetic — no external cryptography dependencies — so the
//! whole reproduction remains self-contained and auditable.
//!
//! **Not constant-time.** Scalar multiplication and field arithmetic take
//! data-dependent branches, and the modular inverse (variable-time
//! safegcd) runs a number of steps that depends on its input — as the
//! binary extended GCD before it did. This is a research prototype for
//! protocol evaluation, not a production signer; do not use it to
//! protect real funds.
//!
//! # Examples
//!
//! ```
//! use parp_crypto::{keccak256, recover_address, sign, verify, SecretKey};
//!
//! let sk = SecretKey::from_seed(b"demo");
//! let digest = keccak256(b"hello PARP");
//! let sig = sign(&sk, &digest);
//! assert!(verify(&sk.public_key(), &digest, &sig));
//! assert_eq!(recover_address(&digest, &sig).unwrap(), sk.address());
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
mod ecdsa;
mod field;
mod keccak;
mod keys;
mod modarith;
mod parallel;
mod point;
mod scalar;

pub use ecdsa::{recover, recover_address, sign, verify, PreparedKey, Signature, SignatureError};
pub use field::FieldElement;
pub use keccak::{hmac_keccak256, keccak256, keccak256_concat, Keccak256};
pub use keys::{InvalidSecretKey, KeyPair, PublicKey, SecretKey};
pub use parallel::{par_join, par_map, recover_addresses_parallel};
pub use point::{
    batch_to_affine, double_scalar_mul, mul_generator, AffinePoint, JacobianPoint, PointComb,
    PointTable,
};
pub use scalar::Scalar;
