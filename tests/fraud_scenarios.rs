//! Integration: every misbehavior from §V-D, end to end.
//!
//! The protocol's core safety claims, exercised across all crates:
//!
//! * **completeness** — every slashable deviation is detected by the
//!   client AND accepted by the on-chain Fraud Detection Module, costing
//!   the node its whole collateral;
//! * **soundness** — no honest response can be used to slash, and
//!   non-provable deviations (invalid responses) never slash either.

use parp_suite::contracts::{
    min_deposit, payment_digest, ChannelStatus, ModuleCall, ParpRequest, ParpResponse, RpcCall,
};
use parp_suite::core::{InvalidReason, Misbehavior, ProcessOutcome, ServeError};
use parp_suite::crypto::{sign, SecretKey, Signature};
use parp_suite::net::{Network, SimError};
use parp_suite::primitives::U256;

/// Builds a network with a serving node, a witness node, and a bonded
/// client; returns the channel id.
fn fraud_fixture(
    seed: &str,
) -> (
    Network,
    parp_suite::net::NodeId,
    parp_suite::net::NodeId,
    parp_suite::core::LightClient,
    u64,
) {
    let mut net = Network::new();
    let node = net.spawn_node(format!("{seed}-node").as_bytes(), U256::from(10u64));
    let witness = net.spawn_node(format!("{seed}-witness").as_bytes(), U256::from(10u64));
    let mut client = net.spawn_client(format!("{seed}-client").as_bytes(), U256::from(10u64));
    let channel = net
        .connect(&mut client, node, U256::from(100_000u64))
        .unwrap();
    (net, node, witness, client, channel)
}

#[test]
fn every_slashable_misbehavior_ends_in_a_slash() {
    for misbehavior in Misbehavior::all()
        .into_iter()
        .filter(Misbehavior::slashable)
    {
        let seed = format!("slash-{misbehavior:?}");
        let (mut net, node, witness, mut client, channel) = fraud_fixture(&seed);
        net.node_mut(node).set_misbehavior(misbehavior);

        // A proof-bearing read makes all three fraud conditions reachable.
        let me = client.address();
        let (outcome, _) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
            .unwrap_or_else(|e| panic!("{misbehavior:?}: serve failed: {e}"));
        let ProcessOutcome::Fraud(evidence) = outcome else {
            panic!("{misbehavior:?}: expected fraud, got {outcome:?}");
        };

        // The witness relays the proof on-chain (§IV-F).
        let stake_before = net.executor().fndm().deposit_of(&net.node(node).address());
        assert_eq!(stake_before, min_deposit());
        let accepted = net.report_fraud(&evidence, witness).unwrap();
        assert!(accepted, "{misbehavior:?}: fraud proof must be accepted");

        // Slash: collateral gone, channel force-settled, witness paid.
        assert_eq!(
            net.executor().fndm().deposit_of(&net.node(node).address()),
            U256::ZERO,
            "{misbehavior:?}: offender keeps stake"
        );
        assert_eq!(
            net.executor().cmm().channel(channel).unwrap().status,
            ChannelStatus::Closed,
            "{misbehavior:?}: channel not settled"
        );
        let record = net
            .executor()
            .fdm()
            .record(&evidence.request.request_hash)
            .unwrap_or_else(|| panic!("{misbehavior:?}: no fraud record"));
        assert_eq!(record.offender, net.node(node).address());
        assert!(
            net.chain().balance(&net.node(witness).address()) > U256::ZERO,
            "{misbehavior:?}: witness not rewarded"
        );
        // The node can no longer accept connections.
        assert!(!net.registry().contains(&net.node(node).address()));
    }
}

#[test]
fn invalid_misbehaviors_are_rejected_but_not_slashable() {
    for misbehavior in Misbehavior::all().into_iter().filter(|m| !m.slashable()) {
        let seed = format!("invalid-{misbehavior:?}");
        let (mut net, node, _witness, mut client, _) = fraud_fixture(&seed);
        net.node_mut(node).set_misbehavior(misbehavior);
        let me = client.address();
        let (outcome, _) = net
            .parp_call(&mut client, node, RpcCall::GetBalance { address: me })
            .unwrap();
        assert!(
            matches!(outcome, ProcessOutcome::Invalid(_)),
            "{misbehavior:?}: expected invalid, got {outcome:?}"
        );
        // No fraud record, stake untouched.
        assert_eq!(
            net.executor().fndm().deposit_of(&net.node(node).address()),
            min_deposit(),
            "{misbehavior:?}"
        );
        // Client walks away and can reconnect elsewhere.
        let provider = net.node(node).address();
        client.abandon_provider(provider);
        assert_eq!(
            client.state_with(&provider),
            parp_suite::core::ClientState::Idle
        );
    }
}

#[test]
fn honest_node_cannot_be_framed_with_valid_response() {
    let (mut net, node, witness, mut client, _) = fraud_fixture("frame");
    let me = client.address();
    let provider = net.node(node).address();
    let request = client
        .request_from(provider, RpcCall::GetBalance { address: me })
        .unwrap();
    let response = net.serve(node, &request).unwrap();
    net.sync_client(&mut client);
    let outcome = client.process_response_from(provider, &response).unwrap();
    let ProcessOutcome::Valid { .. } = outcome else {
        panic!("honest response should be valid");
    };
    // Frame attempt: fabricate evidence from the honest exchange.
    let header = net
        .chain()
        .block(response.block_number)
        .unwrap()
        .header
        .clone();
    let evidence = parp_suite::core::FraudEvidence {
        request,
        response,
        header,
        verdict: parp_suite::contracts::FraudVerdict::InvalidProof,
    };
    let accepted = net.report_fraud(&evidence, witness).unwrap();
    assert!(!accepted, "framing must revert on-chain");
    assert_eq!(
        net.executor().fndm().deposit_of(&net.node(node).address()),
        min_deposit()
    );
}

#[test]
fn client_cannot_forge_responses_to_slash() {
    // A malicious *client* invents a response the node never signed.
    let (mut net, node, witness, mut client, _) = fraud_fixture("forge");
    let me = client.address();
    let provider = net.node(node).address();
    let request = client
        .request_from(provider, RpcCall::GetBalance { address: me })
        .unwrap();
    let honest = net.serve(node, &request).unwrap();
    net.sync_client(&mut client);
    // Tamper the result but keep the node's (now wrong) signature.
    let mut forged = honest.clone();
    forged.amount = U256::ZERO;
    let header = net
        .chain()
        .block(forged.block_number)
        .unwrap()
        .header
        .clone();
    let evidence = parp_suite::core::FraudEvidence {
        request,
        response: forged,
        header,
        verdict: parp_suite::contracts::FraudVerdict::AmountMismatch,
    };
    let accepted = net.report_fraud(&evidence, witness).unwrap();
    assert!(
        !accepted,
        "a response with a broken signature must not slash"
    );
}

#[test]
fn fraud_on_write_workload_is_slashable() {
    let (mut net, node, witness, mut client, _) = fraud_fixture("write-fraud");
    net.node_mut(node)
        .set_misbehavior(Misbehavior::CorruptProof);
    let sender = parp_suite::crypto::SecretKey::from_seed(b"wf-sender");
    net.fund(sender.address());
    net.sync_client(&mut client);
    let tx = parp_suite::chain::Transaction {
        nonce: 0,
        gas_price: U256::ZERO,
        gas_limit: 21_000,
        to: Some(parp_suite::primitives::Address::from_low_u64_be(1)),
        value: U256::ONE,
        data: Vec::new(),
    }
    .sign(&sender);
    let (outcome, _) = net
        .parp_call(
            &mut client,
            node,
            RpcCall::SendRawTransaction { raw: tx.encode() },
        )
        .unwrap();
    let ProcessOutcome::Fraud(evidence) = outcome else {
        panic!("expected fraud, got {outcome:?}");
    };
    assert!(net.report_fraud(&evidence, witness).unwrap());
    assert_eq!(
        net.executor().fndm().deposit_of(&net.node(node).address()),
        U256::ZERO
    );
}

#[test]
fn double_reporting_the_same_fraud_fails() {
    let (mut net, node, witness, mut client, _) = fraud_fixture("double");
    net.node_mut(node).set_misbehavior(Misbehavior::WrongAmount);
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::BlockNumber)
        .unwrap();
    let ProcessOutcome::Fraud(evidence) = outcome else {
        panic!("expected fraud");
    };
    assert!(net.report_fraud(&evidence, witness).unwrap());
    // Same evidence again: the case is already processed (and the channel
    // closed), so the module reverts.
    assert!(!net.report_fraud(&evidence, witness).unwrap());
}

#[test]
fn reporter_reward_flows_to_the_defrauded_client() {
    let (mut net, node, witness, mut client, _) = fraud_fixture("reward");
    net.node_mut(node).set_misbehavior(Misbehavior::WrongAmount);
    let before = net.chain().balance(&client.address());
    let (outcome, _) = net
        .parp_call(&mut client, node, RpcCall::BlockNumber)
        .unwrap();
    let ProcessOutcome::Fraud(evidence) = outcome else {
        panic!("expected fraud");
    };
    net.report_fraud(&evidence, witness).unwrap();
    let after = net.chain().balance(&client.address());
    let client_share =
        min_deposit() * U256::from(parp_suite::contracts::SLASH_CLIENT_SHARE) / U256::from(100u64);
    // Client share plus the refunded channel budget (cs = 0 on-chain:
    // the node never redeemed).
    assert_eq!(after - before, client_share + U256::from(100_000u64));
}

// ---- Known-signer envelope checks (first contact vs learned key) ----
//
// Each end of a channel recovers its peer's key from the first envelope
// and checks later envelopes against it. The verdicts must not depend on
// which of the two ran.

/// `signature` with its recovery id flipped: on chain it recovers to some
/// other key, so off chain it must not pass as the signer's either.
fn with_flipped_v(signature: &Signature) -> Signature {
    let mut bytes = signature.to_bytes();
    bytes[64] ^= 1;
    Signature::from_bytes(&bytes).unwrap()
}

/// One served exchange whose response `forge` rewrites before the client
/// sees it.
fn forged_exchange(
    net: &mut Network,
    client: &mut parp_suite::core::LightClient,
    node: parp_suite::net::NodeId,
    forge: impl Fn(&mut ParpResponse),
) -> ProcessOutcome {
    let me = client.address();
    let provider = net.node(node).address();
    let request = client
        .request_from(provider, RpcCall::GetBalance { address: me })
        .unwrap();
    let mut response = net.serve(node, &request).unwrap();
    net.sync_client(client);
    forge(&mut response);
    client.process_response_from(provider, &response).unwrap()
}

#[test]
fn forged_response_signatures_are_invalid_before_and_after_the_key_is_learned() {
    let imposter = SecretKey::from_seed(b"known-signer-imposter");
    let flip_v = |res: &mut ParpResponse| res.response_sig = with_flipped_v(&res.response_sig);
    let resign = |res: &mut ParpResponse| res.response_sig = sign(&imposter, &res.expected_hash());
    let (mut net, node, _witness, mut client, _) = fraud_fixture("known-signer-res");
    let provider = net.node(node).address();
    let invalid = ProcessOutcome::Invalid(InvalidReason::ResponseSignatureInvalid);

    // First contact: nothing learned, nothing learned from a forgery.
    assert!(client.provider_key(&provider).is_none());
    assert_eq!(
        forged_exchange(&mut net, &mut client, node, flip_v),
        invalid
    );
    assert_eq!(
        forged_exchange(&mut net, &mut client, node, resign),
        invalid
    );
    assert!(client.provider_key(&provider).is_none());

    // An honest exchange names the provider's key…
    let honest = forged_exchange(&mut net, &mut client, node, |_| {});
    assert!(matches!(honest, ProcessOutcome::Valid { .. }), "{honest:?}");
    let learned = client.provider_key(&provider).expect("key learned");
    assert_eq!(learned.address(), provider);

    // …and the same forgeries get the same verdict against it.
    assert_eq!(
        forged_exchange(&mut net, &mut client, node, flip_v),
        invalid
    );
    assert_eq!(
        forged_exchange(&mut net, &mut client, node, resign),
        invalid
    );
    let honest = forged_exchange(&mut net, &mut client, node, |_| {});
    assert!(matches!(honest, ProcessOutcome::Valid { .. }), "{honest:?}");
}

#[test]
fn requests_from_a_non_owner_are_refused_before_and_after_the_key_is_learned() {
    let (mut net, node, _witness, mut client, channel) = fraud_fixture("known-signer-req");
    let stranger = SecretKey::from_seed(b"known-signer-stranger");
    let me = client.address();
    let call = || RpcCall::GetBalance { address: me };
    let refused = |net: &mut Network, request: &ParpRequest| match net.serve(node, request) {
        Err(SimError::Serve(e)) => e,
        other => panic!("expected a refusal, got {other:?}"),
    };
    let forgeries = |net: &mut Network, client: &parp_suite::core::LightClient, amount: U256| {
        let tip = client.tip().unwrap().hash();
        // Both signatures the stranger's.
        let foreign = ParpRequest::build(&stranger, channel, tip, amount, call());
        assert_eq!(refused(net, &foreign), ServeError::WrongSigner);
        // The owner's request carrying the stranger's payment signature,
        // and the owner's signatures with a flipped recovery id.
        let mut mixed = ParpRequest::build(client.secret(), channel, tip, amount, call());
        let owned = mixed.clone();
        mixed.payment_sig = foreign.payment_sig;
        assert_eq!(refused(net, &mixed), ServeError::WrongSigner);
        let mut flipped = owned.clone();
        flipped.request_sig = with_flipped_v(&owned.request_sig);
        assert_eq!(refused(net, &flipped), ServeError::WrongSigner);
        let mut flipped = owned;
        flipped.payment_sig = with_flipped_v(&flipped.payment_sig);
        assert_eq!(refused(net, &flipped), ServeError::WrongSigner);
    };

    // First contact: nothing learned, nothing learned from a forgery.
    assert!(net.node(node).client_key(channel).is_none());
    forgeries(&mut net, &client, U256::from(10u64));
    assert!(net.node(node).client_key(channel).is_none());

    // One honest exchange names the client's key…
    let (outcome, _) = net.parp_call(&mut client, node, call()).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    let learned = net.node(node).client_key(channel).expect("key learned");
    assert_eq!(learned.address(), me);

    // …and the same forgeries are refused against it, while the owner
    // keeps being served.
    forgeries(&mut net, &client, U256::from(20u64));
    let (outcome, _) = net.parp_call(&mut client, node, call()).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
}

#[test]
fn a_learned_key_is_bound_to_its_session_and_dies_with_it() {
    let mut net = Network::new();
    let node_a = net.spawn_node(b"known-signer-a", U256::from(10u64));
    let node_b = net.spawn_node(b"known-signer-b", U256::from(10u64));
    let mut client = net.spawn_client(b"known-signer-lc", U256::from(10u64));
    let budget = U256::from(100_000u64);
    let channel_a = net.connect(&mut client, node_a, budget).unwrap();
    net.connect(&mut client, node_b, budget).unwrap();
    let (a, b) = (net.node(node_a).address(), net.node(node_b).address());
    let me = client.address();
    let call = || RpcCall::GetBalance { address: me };

    // Learn A's key; B's session learns nothing from it.
    let (outcome, _) = net.parp_call(&mut client, node_a, call()).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert_eq!(client.provider_key(&a).unwrap().address(), a);
    assert!(client.provider_key(&b).is_none());

    // A response A signed, arriving on B's connection, is not B's —
    // before B's key is learned and after.
    let a_signs_on_b = |net: &mut Network, client: &mut parp_suite::core::LightClient| {
        let request = client.request_from(b, call()).unwrap();
        let mut response = net.serve(node_b, &request).unwrap();
        net.sync_client(client);
        response.response_sig = sign(net.node(node_a).secret(), &response.expected_hash());
        client.process_response_from(b, &response).unwrap()
    };
    let invalid = ProcessOutcome::Invalid(InvalidReason::ResponseSignatureInvalid);
    assert_eq!(a_signs_on_b(&mut net, &mut client), invalid);
    assert!(client.provider_key(&b).is_none());
    let (outcome, _) = net.parp_call(&mut client, node_b, call()).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert_eq!(client.provider_key(&b).unwrap().address(), b);
    assert_eq!(a_signs_on_b(&mut net, &mut client), invalid);

    // Abandoning A drops its key with the session; the reconnect opens a
    // fresh channel, and on it both ends recover again.
    client.abandon_provider(a);
    assert!(client.provider_key(&a).is_none());
    assert!(client.provider_key(&b).is_some());
    let reopened = net.connect(&mut client, node_a, budget).unwrap();
    assert_ne!(reopened, channel_a);
    assert!(client.provider_key(&a).is_none());
    assert!(net.node(node_a).client_key(channel_a).is_some());
    assert!(net.node(node_a).client_key(reopened).is_none());
    let (outcome, _) = net.parp_call(&mut client, node_a, call()).unwrap();
    assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
    assert_eq!(client.provider_key(&a).unwrap().address(), a);
    // Each channel's record holds the key learned on it; the abandoned
    // channel is still Open on chain, so the node keeps that one too.
    let learned =
        |net: &Network, channel| net.node(node_a).client_key(channel).map(|k| k.address());
    assert_eq!(learned(&net, reopened), Some(me));
    assert_eq!(learned(&net, channel_a), Some(me));

    // The key is serving state of an Open channel. The node starts
    // closing the reopened one: the next envelope it sees there drops the
    // key, the §V-C probe is still served — by recovering — and names no
    // key to keep; anything else is refused.
    let node_key = *net.node(node_a).secret();
    let close = ModuleCall::CloseChannel {
        channel_id: reopened,
        amount: U256::ZERO,
        payment_sig: sign(client.secret(), &payment_digest(reopened, &U256::ZERO)),
    };
    assert!(net
        .submit_module_call(&node_key, close, U256::ZERO)
        .unwrap());
    let status = RpcCall::GetChannelStatus {
        channel_id: reopened,
    };
    let probe = client.request_from(a, status).unwrap();
    let response = net.serve(node_a, &probe).unwrap();
    net.sync_client(&mut client);
    let outcome = client.process_response_from(a, &response).unwrap();
    assert!(
        matches!(outcome, ProcessOutcome::Valid { .. }),
        "{outcome:?}"
    );
    assert_eq!(learned(&net, reopened), None);
    let request = client.request_from(a, call()).unwrap();
    assert!(matches!(
        net.serve(node_a, &request),
        Err(SimError::Serve(ServeError::ChannelNotOpen(id))) if id == reopened
    ));
    assert_eq!(learned(&net, reopened), None);
    assert_eq!(learned(&net, channel_a), Some(me));
}
