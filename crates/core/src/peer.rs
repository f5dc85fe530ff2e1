//! Whose signature is this? — the question both ends of a channel ask of
//! every envelope (§V-B step (B) on the node, §V-D check 2 on the client).
//!
//! The far end of a channel is fixed when the CMM opens it, so the answer
//! is computed two ways. On **first contact** the signer is recovered from
//! the signature and its address compared with the registered one: that
//! is how the key is learned. **After**, the signature is checked against
//! that key ([`PreparedKey::signed`]), which accepts exactly the
//! signatures whose recovery yields the key and costs under half of one.
//! Which way runs depends on nothing but whether the key is known.

use parp_crypto::{recover, PreparedKey, PublicKey, Signature};
use parp_primitives::{Address, H256};

/// The far end of a channel as the near end knows it: the address the
/// channel registered and, once a first recovery has named it, its key.
#[derive(Clone, Copy)]
pub(crate) struct Peer<'a> {
    pub(crate) address: Address,
    pub(crate) key: Option<&'a PreparedKey>,
}

/// The signature is not the peer's.
pub(crate) struct NotPeer;

impl<'a> Peer<'a> {
    /// A peer known by address only: every check recovers.
    pub(crate) fn first_contact(address: Address) -> Self {
        Peer { address, key: None }
    }

    /// Attributes `signature` over `digest` to this peer or to nobody.
    /// `Ok(Some(key))` is first contact: the recovered key, whose address
    /// is the peer's, for the caller to keep with the channel. A stored
    /// key that is not the registered address's is not consulted.
    pub(crate) fn signed(
        &self,
        digest: &H256,
        signature: &Signature,
    ) -> Result<Option<PublicKey>, NotPeer> {
        match self.key.filter(|key| key.address() == self.address) {
            Some(key) if key.signed(digest, signature) => Ok(None),
            Some(_) => Err(NotPeer),
            None => match recover(digest, signature) {
                Ok(public) if public.address() == self.address => Ok(Some(public)),
                _ => Err(NotPeer),
            },
        }
    }
}
