//! The wire encoding as a byte-for-byte contract: `encoded_len()` equals
//! `encode().len()` on all four PARP messages for arbitrary contents, and
//! one hand-built batch response whose signed fields still encode to the
//! bytes the `Vec<Vec<u8>>` encoder produced before `h_res` and the wire
//! encoding were written into one buffer.

use parp_contracts::{
    BatchOutput, ParpBatchRequest, ParpBatchResponse, ParpRequest, ParpResponse, ProofHashes,
    RpcCall,
};
use parp_crypto::{sign, SecretKey, Signature};
use parp_primitives::{to_hex, Address, H256, U256};
use parp_trie::ProofBuf;
use proptest::prelude::*;

fn a_signature() -> Signature {
    sign(
        &SecretKey::from_seed(b"wire-props"),
        &H256::from_low_u64_be(1),
    )
}

/// Byte strings on every side of RLP's length-form boundaries: empty, a
/// single byte below and above 0x80, around 55 bytes, around 255 bytes.
fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..1),
        proptest::collection::vec(0u8..0x80, 1..2),
        (0u8..0x80).prop_map(|byte| vec![byte | 0x80]),
        proptest::collection::vec(any::<u8>(), 2..54),
        proptest::collection::vec(any::<u8>(), 54..58),
        proptest::collection::vec(any::<u8>(), 250..260),
        proptest::collection::vec(any::<u8>(), 260..600),
    ]
}

fn arb_blobs() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(arb_blob(), 0..6)
}

/// Integers on both sides of the single-byte and each width boundary.
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..0x100,
        any::<u64>(),
        (0u32..64).prop_map(|s| 1u64 << s)
    ]
}

fn arb_u256() -> impl Strategy<Value = U256> {
    prop_oneof![
        arb_u64().prop_map(U256::from),
        any::<[u64; 4]>().prop_map(U256::from_limbs),
    ]
}

fn arb_call() -> impl Strategy<Value = RpcCall> {
    let address = || arb_u64().prop_map(Address::from_low_u64_be);
    let hash = || arb_u64().prop_map(H256::from_low_u64_be);
    prop_oneof![
        address().prop_map(|address| RpcCall::GetBalance { address }),
        arb_blob().prop_map(|raw| RpcCall::SendRawTransaction { raw }),
        hash().prop_map(|hash| RpcCall::GetTransactionByHash { hash }),
        Just(RpcCall::BlockNumber),
        arb_u64().prop_map(|number| RpcCall::GetHeader { number }),
        arb_u64().prop_map(|channel_id| RpcCall::GetChannelStatus { channel_id }),
        hash().prop_map(|hash| RpcCall::GetTransactionReceipt { hash }),
        address().prop_map(|address| RpcCall::GetTransactionCount { address }),
    ]
}

proptest! {
    #[test]
    fn call_and_request_lengths(
        channel_id in arb_u64(),
        amount in arb_u256(),
        call in arb_call(),
    ) {
        prop_assert_eq!(call.encoded_len(), call.encode().len());
        let request = ParpRequest {
            channel_id,
            block_hash: H256::from_low_u64_be(channel_id),
            amount,
            call,
            request_hash: H256::ZERO,
            payment_sig: a_signature(),
            request_sig: a_signature(),
        };
        prop_assert_eq!(request.encoded_len(), request.encode().len());
    }

    #[test]
    fn response_length(
        channel_id in arb_u64(),
        block_number in arb_u64(),
        amount in arb_u256(),
        result in arb_blob(),
        proof in arb_blobs(),
    ) {
        let response = ParpResponse {
            channel_id,
            block_number,
            amount,
            result,
            proof,
            request_hash: H256::from_low_u64_be(block_number),
            request_sig: a_signature(),
            response_sig: a_signature(),
        };
        prop_assert_eq!(response.encoded_len(), response.encode().len());
    }

    #[test]
    fn batch_request_length(
        channel_id in arb_u64(),
        amount in arb_u256(),
        calls in proptest::collection::vec(arb_call(), 0..70),
    ) {
        let request = ParpBatchRequest {
            channel_id,
            block_hash: H256::from_low_u64_be(channel_id),
            amount,
            calls,
            request_hash: H256::ZERO,
            payment_sig: a_signature(),
            request_sig: a_signature(),
        };
        prop_assert_eq!(request.encoded_len(), request.encode().len());
    }

    #[test]
    fn batch_response_length_and_roundtrip(
        channel_id in arb_u64(),
        block_number in arb_u64(),
        amount in arb_u256(),
        results in arb_blobs(),
        multiproof in arb_blobs(),
        item_blocks in proptest::collection::vec(arb_u64(), 0..6),
        item_proofs in proptest::collection::vec(arb_blobs(), 0..6),
        headers in arb_blobs(),
    ) {
        let response = ParpBatchResponse {
            channel_id,
            block_number,
            amount,
            results,
            multiproof,
            item_blocks,
            item_proofs,
            headers,
            request_hash: H256::from_low_u64_be(block_number),
            request_sig: a_signature(),
            response_sig: a_signature(),
        };
        let encoded = response.encode();
        prop_assert_eq!(response.encoded_len(), encoded.len());
        prop_assert_eq!(ParpBatchResponse::decode(&encoded).unwrap(), response);
    }
}

/// `h_res`, `σ_res` and the wire bytes of a three-item response. The
/// ten signed fields encode to the bytes the `Vec<Vec<u8>>` encoder
/// produced before `h_res` and the wire encoding were written into one
/// buffer; `h_res` and `σ_res` are those of the digest that binds proof
/// nodes by their hashes.
#[test]
fn batch_response_fixed_vector() {
    let calls = vec![
        RpcCall::GetBalance {
            address: Address::from_low_u64_be(0x1001),
        },
        RpcCall::GetTransactionCount {
            address: Address::from_low_u64_be(0x1002),
        },
        RpcCall::GetTransactionByHash {
            hash: H256::from_low_u64_be(0x77),
        },
    ];
    let request = ParpBatchRequest::build(
        &SecretKey::from_seed(b"vector-light-client"),
        7,
        H256::from_low_u64_be(0xb10c),
        U256::from(300u64),
        calls,
    );
    let output = BatchOutput {
        block_number: 42,
        results: vec![Vec::new(), vec![0x05], vec![0xd7; 60]],
        multiproof: vec![vec![0xa1; 57], vec![0xc2, 0x80, 0x80]],
        item_blocks: vec![42, 42, 7],
        item_proofs: vec![Vec::new(), Vec::new(), vec![vec![9, 9], vec![8]]],
        headers: vec![vec![0xc1, 0x07], vec![0xc1, 0x2a]],
    };
    // The serving node's form of the digest: the hashes beside the
    // nodes in its proof buffers.
    let multiproof: ProofBuf = output.multiproof.iter().collect();
    let items: Vec<ProofBuf> = output
        .item_proofs
        .iter()
        .map(|proof| proof.iter().collect())
        .collect();
    let served = ProofHashes::served(&multiproof, &items);
    let node = SecretKey::from_seed(b"vector-full-node");
    let response = ParpBatchResponse::build_hashed(&node, &request, output, &served);
    assert_eq!(
        to_hex(response.expected_hash().as_bytes()),
        "937b41970e06382177d505c04febceb66706488bb0a1e9756970c498d8fbd6d8"
    );
    assert_eq!(response.digest(&served), response.expected_hash());
    assert_eq!(response.signer(), Some(node.address()));
    let signed_fields = concat!(
        "f90142072a82012cf8408005b83c",
        "d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7",
        "d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7d7",
        "f83fb839",
        "a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1",
        "a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1a1",
        "83c28080c32a2a07c7c0c0c482090908c682c10782c12a",
        "a0439f62f2309c1f07ddc691b1143475923b0d388c076ce186671b66792aee5435",
        "b8412b56f45ec44d1c4efa2e6be96f850516cd8e8036061fab0fa6510382f3f63a07",
        "3eb7d4e4695092051fe36f23e084aed0445a0a905305865c9672517d92e755d100",
    );
    let encoded = to_hex(&response.encode());
    let (fields, response_sig) = encoded.split_at(signed_fields.len().min(encoded.len()));
    assert_eq!(fields, signed_fields);
    assert_eq!(
        response_sig,
        concat!(
            "b84141e391087984b11e2114c64917527f10f8d8d63ad053a6713e7b96ebe0e6ad4f",
            "20947359adc55f755ad670901a6366e4366eadd3dded2ff9b98a8553c31f6be101",
        )
    );
}
