//! End-to-end tests of the on-chain modules running on the simulated
//! chain: deposits, channel lifecycle, disputes and fraud proofs.

use parp_chain::{Blockchain, Header, Transaction, TransferExecutor};
use parp_contracts::{
    build_module_call, cmm_address, confirmation_digest, fdm_address, fndm_address, min_deposit,
    payment_digest, BatchOutput, ChannelStatus, FraudVerdict, ModuleCall, ParpBatchRequest,
    ParpBatchResponse, ParpExecutor, ParpRequest, ParpResponse, RpcCall, DISPUTE_WINDOW_BLOCKS,
    SLASH_CLIENT_SHARE, SLASH_WITNESS_SHARE,
};
use parp_crypto::{keccak256, sign, SecretKey};
use parp_primitives::{Address, H256, U256};
use parp_trie::FrozenTrie;

struct Env {
    chain: Blockchain,
    executor: ParpExecutor,
    node: SecretKey,
    client: SecretKey,
    node_nonce: u64,
    client_nonce: u64,
}

fn token(n: u64) -> U256 {
    U256::from(n) * U256::from(1_000_000_000_000_000_000u64)
}

impl Env {
    fn new() -> Self {
        Env::with_accounts(&[])
    }

    /// [`Env::new`] with `accounts` funded at genesis too.
    fn with_accounts(accounts: &[Address]) -> Self {
        let node = SecretKey::from_seed(b"env-full-node");
        let client = SecretKey::from_seed(b"env-light-client");
        let mut alloc = vec![(node.address(), token(10)), (client.address(), token(10))];
        alloc.extend(accounts.iter().map(|address| (*address, token(1))));
        let chain = Blockchain::new(alloc);
        Env {
            chain,
            executor: ParpExecutor::new(),
            node,
            client,
            node_nonce: 0,
            client_nonce: 0,
        }
    }

    fn node_call(&mut self, call: ModuleCall, value: U256) {
        let tx = build_module_call(&self.node, self.node_nonce, call, value);
        self.node_nonce += 1;
        self.chain
            .produce_block(vec![tx], &mut self.executor)
            .expect("node call block");
        self.assert_head_matches_fresh_freeze();
    }

    fn client_call(&mut self, call: ModuleCall, value: U256) {
        let tx = build_module_call(&self.client, self.client_nonce, call, value);
        self.client_nonce += 1;
        self.chain
            .produce_block(vec![tx], &mut self.executor)
            .expect("client call block");
        self.assert_head_matches_fresh_freeze();
    }

    /// Every module block — deposits, channel opens and closes, disputes,
    /// slashes — derives its head trie from the previous head's arena:
    /// hold each one to the root and the proofs of a trie frozen from
    /// scratch over the same accounts.
    fn assert_head_matches_fresh_freeze(&self) {
        let state = self.chain.state();
        let fresh = FrozenTrie::new(state.build_trie());
        assert_eq!(self.chain.head().header.state_root, fresh.root_hash());
        let accounts = [
            self.node.address(),
            self.client.address(),
            fndm_address(),
            cmm_address(),
            fdm_address(),
            Address::from_low_u64_be(0xab5e27), // absent
        ];
        let keys: Vec<H256> = accounts.iter().map(|a| keccak256(a.as_bytes())).collect();
        for (address, key) in accounts.iter().zip(&keys) {
            assert_eq!(state.account_proof(address), fresh.prove(key.as_bytes()));
        }
        assert_eq!(state.account_multiproof(&accounts), fresh.prove_many(&keys));
    }

    fn last_receipt_status(&self) -> u64 {
        let receipts = self.chain.receipts(self.chain.height()).unwrap();
        receipts.last().unwrap().status
    }

    fn register_node(&mut self) {
        self.node_call(ModuleCall::Deposit, min_deposit());
        self.node_call(ModuleCall::SetServing { serving: true }, U256::ZERO);
        assert!(self.executor.fndm().is_eligible(&self.node.address()));
    }

    fn open_channel(&mut self, budget: U256) -> u64 {
        let expiry = self.chain.head().header.timestamp + 3600;
        let sig = sign(
            &self.node,
            &confirmation_digest(&self.client.address(), expiry),
        );
        self.client_call(
            ModuleCall::OpenChannel {
                full_node: self.node.address(),
                expiry,
                confirmation_sig: sig,
            },
            budget,
        );
        assert_eq!(self.last_receipt_status(), 1, "open channel must succeed");
        self.executor.cmm().channel_count() as u64 - 1
    }

    fn advance_blocks(&mut self, n: u64) {
        for _ in 0..n {
            self.chain
                .produce_block(Vec::new(), &mut TransferExecutor)
                .unwrap();
        }
    }

    fn payment_sig(&self, channel_id: u64, amount: U256) -> parp_crypto::Signature {
        sign(&self.client, &payment_digest(channel_id, &amount))
    }
}

#[test]
fn full_channel_lifecycle_without_dispute() {
    let mut env = Env::new();
    env.register_node();
    let budget = U256::from(1_000_000u64);
    let id = env.open_channel(budget);
    assert_eq!(
        env.executor.cmm().channel(id).unwrap().status,
        ChannelStatus::Open
    );

    // Off-chain, the client pays up to 400k; the node closes with σ_a.
    let final_amount = U256::from(400_000u64);
    let sig = env.payment_sig(id, final_amount);
    let node_balance_before = env.chain.balance(&env.node.address());
    env.node_call(
        ModuleCall::CloseChannel {
            channel_id: id,
            amount: final_amount,
            payment_sig: sig,
        },
        U256::ZERO,
    );
    assert_eq!(env.last_receipt_status(), 1);
    env.advance_blocks(DISPUTE_WINDOW_BLOCKS);
    env.node_call(ModuleCall::ConfirmClosure { channel_id: id }, U256::ZERO);
    assert_eq!(env.last_receipt_status(), 1);
    assert_eq!(
        env.executor.cmm().channel(id).unwrap().status,
        ChannelStatus::Closed
    );
    let node_balance_after = env.chain.balance(&env.node.address());
    assert_eq!(node_balance_after - node_balance_before, final_amount);
}

#[test]
fn stale_close_is_overridden_by_dispute() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000_000u64));

    // Client closes with a stale (low) amount, trying to underpay.
    let stale = U256::from(10u64);
    let stale_sig = env.payment_sig(id, stale);
    env.client_call(
        ModuleCall::CloseChannel {
            channel_id: id,
            amount: stale,
            payment_sig: stale_sig,
        },
        U256::ZERO,
    );
    // Node answers with the newest signed state.
    let latest = U256::from(900_000u64);
    let latest_sig = env.payment_sig(id, latest);
    env.node_call(
        ModuleCall::SubmitState {
            channel_id: id,
            amount: latest,
            payment_sig: latest_sig,
        },
        U256::ZERO,
    );
    assert_eq!(env.last_receipt_status(), 1);
    assert_eq!(
        env.executor.cmm().channel(id).unwrap().latest_amount,
        latest
    );
    env.advance_blocks(DISPUTE_WINDOW_BLOCKS);
    let before = env.chain.balance(&env.node.address());
    env.node_call(ModuleCall::ConfirmClosure { channel_id: id }, U256::ZERO);
    assert_eq!(env.chain.balance(&env.node.address()) - before, latest);
}

#[test]
fn confirm_before_deadline_reverts() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1000u64));
    let sig = env.payment_sig(id, U256::from(1u64));
    env.client_call(
        ModuleCall::CloseChannel {
            channel_id: id,
            amount: U256::from(1u64),
            payment_sig: sig,
        },
        U256::ZERO,
    );
    env.node_call(ModuleCall::ConfirmClosure { channel_id: id }, U256::ZERO);
    assert_eq!(env.last_receipt_status(), 0, "early confirm must revert");
    // The channel is still closing, not closed.
    assert!(matches!(
        env.executor.cmm().channel(id).unwrap().status,
        ChannelStatus::Closing { .. }
    ));
}

/// Builds a fraudulent response (amount mismatch) and the matching header,
/// then proves the fraud on-chain.
#[test]
fn fraud_proof_amount_mismatch_slashes_node() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000_000u64));

    let witness = Address::from_low_u64_be(0x3317);
    let head = env.chain.head().header.clone();
    let request = ParpRequest::build(
        &env.client,
        id,
        head.hash(),
        U256::from(500u64),
        RpcCall::BlockNumber,
    );
    // The node echoes a *different* amount — fraud condition 1.
    let mut response = ParpResponse::build(
        &env.node,
        &request,
        head.number,
        parp_rlp::encode_u64(head.number),
        Vec::new(),
    );
    response.amount = U256::from(400u64);
    // Re-sign so the response authenticates as the node's.
    response = resign(&env.node, response);

    let stake_before = env.executor.fndm().deposit_of(&env.node.address());
    assert_eq!(stake_before, min_deposit());
    let client_before = env.chain.balance(&env.client.address());

    submit_fraud(&mut env, &request, &response, witness, &head);
    assert_eq!(env.last_receipt_status(), 1, "fraud proof must be accepted");

    // Slashed and rewarded.
    assert_eq!(
        env.executor.fndm().deposit_of(&env.node.address()),
        U256::ZERO
    );
    // The client receives its slash share plus the unspent channel budget
    // (the forced settlement refunds budget - cs, and cs is still zero).
    let client_after = env.chain.balance(&env.client.address());
    assert_eq!(
        client_after - client_before,
        min_deposit() * U256::from(SLASH_CLIENT_SHARE) / U256::from(100u64)
            + U256::from(1_000_000u64)
    );
    assert_eq!(
        env.chain.balance(&witness),
        min_deposit() * U256::from(SLASH_WITNESS_SHARE) / U256::from(100u64)
    );
    let record = env
        .executor
        .fdm()
        .record(&request.request_hash)
        .expect("fraud recorded");
    assert_eq!(record.verdict, FraudVerdict::AmountMismatch);
    assert_eq!(record.offender, env.node.address());
    // The channel was force-settled.
    assert_eq!(
        env.executor.cmm().channel(id).unwrap().status,
        ChannelStatus::Closed
    );
}

#[test]
fn fraud_proof_stale_height_slashes_node() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000u64));
    env.advance_blocks(5);

    // Client references the current tip; node answers as of an older block.
    let tip = env.chain.head().header.clone();
    let old = env.chain.block(tip.number - 3).unwrap().header.clone();
    let request = ParpRequest::build(
        &env.client,
        id,
        tip.hash(),
        U256::from(10u64),
        RpcCall::BlockNumber,
    );
    let response = ParpResponse::build(
        &env.node,
        &request,
        old.number,
        parp_rlp::encode_u64(old.number),
        Vec::new(),
    );
    submit_fraud(
        &mut env,
        &request,
        &response,
        Address::from_low_u64_be(1),
        &old,
    );
    assert_eq!(env.last_receipt_status(), 1);
    let record = env.executor.fdm().record(&request.request_hash).unwrap();
    assert_eq!(record.verdict, FraudVerdict::StaleBlockHeight);
}

#[test]
fn fraud_proof_wrong_balance_slashes_node() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000u64));
    env.advance_blocks(2);

    let head = env.chain.head().header.clone();
    let target = env.node.address(); // query the node's own balance
    let request = ParpRequest::build(
        &env.client,
        id,
        head.hash(),
        U256::from(10u64),
        RpcCall::GetBalance { address: target },
    );
    // Honest proof, but a *forged* account payload as the result.
    let proof = env.chain.account_proof_at(&target, head.number).unwrap();
    let forged_account = parp_chain::Account {
        nonce: 0,
        balance: U256::from(999_999_999u64),
        ..Default::default()
    };
    let response = ParpResponse::build(
        &env.node,
        &request,
        head.number,
        forged_account.encode(),
        proof,
    );
    submit_fraud(
        &mut env,
        &request,
        &response,
        Address::from_low_u64_be(2),
        &head,
    );
    assert_eq!(env.last_receipt_status(), 1);
    let record = env.executor.fdm().record(&request.request_hash).unwrap();
    assert_eq!(record.verdict, FraudVerdict::InvalidProof);
}

#[test]
fn honest_response_cannot_be_proven_fraudulent() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000u64));
    env.advance_blocks(2);

    let head = env.chain.head().header.clone();
    let target = env.client.address();
    let request = ParpRequest::build(
        &env.client,
        id,
        head.hash(),
        U256::from(10u64),
        RpcCall::GetBalance { address: target },
    );
    // Fully honest response: correct account record + proof.
    let state = env.chain.state();
    let account = state.account(&target).unwrap().clone();
    let proof = state.account_proof(&target);
    let response = ParpResponse::build(&env.node, &request, head.number, account.encode(), proof);
    submit_fraud(
        &mut env,
        &request,
        &response,
        Address::from_low_u64_be(3),
        &head,
    );
    assert_eq!(
        env.last_receipt_status(),
        0,
        "fraud proof against an honest response must revert"
    );
    assert_eq!(
        env.executor.fndm().deposit_of(&env.node.address()),
        min_deposit(),
        "honest node keeps its collateral"
    );
}

#[test]
fn header_outside_window_is_unverifiable() {
    let mut env = Env::new();
    env.register_node();
    let id = env.open_channel(U256::from(1_000u64));
    let old_header = env.chain.head().header.clone();
    env.advance_blocks(parp_chain::BLOCK_HASH_WINDOW + 5);

    let request = ParpRequest::build(
        &env.client,
        id,
        old_header.hash(),
        U256::from(1u64),
        RpcCall::BlockNumber,
    );
    let mut response = ParpResponse::build(
        &env.node,
        &request,
        old_header.number,
        parp_rlp::encode_u64(old_header.number),
        Vec::new(),
    );
    response.amount = U256::from(999u64); // would be fraud, if verifiable
    response = resign(&env.node, response);
    submit_fraud(
        &mut env,
        &request,
        &response,
        Address::from_low_u64_be(4),
        &old_header,
    );
    assert_eq!(env.last_receipt_status(), 0, "stale header must revert");
}

/// Gas the dispute in [`forged_batch64_fraud_proof_gas`] used while the
/// judge metered `h_res` over the whole 16,487-byte response.
const FORGED_BATCH64_FRAUD_GAS_BEFORE: u64 = 4_209_780;
/// The same dispute with `h_res` metered over its digest preimage, where
/// each proof node is a 32-byte hash: 251 keccak words fewer.
const FORGED_BATCH64_FRAUD_GAS: u64 = 4_208_274;

/// The forged 64-item batch of [`forged_batch64_fraud_proof_gas`]: 64
/// funded accounts besides the node and the client.
fn batch_accounts() -> Vec<Address> {
    (0..64u64)
        .map(|i| Address::from_low_u64_be(0xB000 + i))
        .collect()
}

#[test]
fn forged_batch64_fraud_proof_gas() {
    let accounts = batch_accounts();
    let mut env = Env::with_accounts(&accounts);
    env.register_node();
    let id = env.open_channel(U256::from(1_000_000u64));
    let head = env.chain.head().header.clone();
    let calls: Vec<RpcCall> = accounts
        .iter()
        .map(|address| RpcCall::GetBalance { address: *address })
        .collect();
    let request = ParpBatchRequest::build(&env.client, id, head.hash(), U256::from(640u64), calls);
    let state = env.chain.state();
    let mut results: Vec<Vec<u8>> = accounts
        .iter()
        .map(|address| state.account(address).expect("funded").encode())
        .collect();
    results[63] = parp_chain::Account::with_balance(U256::from(1u64)).encode();
    let output = BatchOutput::snapshot(
        head.number,
        results,
        state.account_multiproof(&accounts),
        head.encode(),
    );
    let response = ParpBatchResponse::build(&env.node, &request, output);
    let call = ModuleCall::SubmitBatchFraudProof {
        request: request.encode(),
        response: response.encode(),
        witness: Address::from_low_u64_be(0x64),
        headers: vec![head.encode()],
    };
    // A 64-item dispute does not fit `MODULE_CALL_GAS_LIMIT`: it is
    // submitted with room to spare, and the gas it used is what counts.
    let tx = Transaction {
        nonce: env.client_nonce,
        gas_price: U256::ZERO,
        gas_limit: 10_000_000,
        to: Some(call.target()),
        value: U256::ZERO,
        data: call.encode(),
    }
    .sign(&env.client);
    env.chain
        .produce_block(vec![tx], &mut env.executor)
        .expect("dispute block");
    assert_eq!(
        env.last_receipt_status(),
        1,
        "the forged batch is condemned"
    );
    let gas = env.chain.head().header.gas_used;
    assert_eq!(gas, FORGED_BATCH64_FRAUD_GAS);
    assert!(gas < FORGED_BATCH64_FRAUD_GAS_BEFORE);
    assert_eq!(response.encoded_len(), 16_487);
}

fn resign(node: &SecretKey, mut response: ParpResponse) -> ParpResponse {
    let digest = response.expected_hash();
    response.response_sig = sign(node, &digest);
    response
}

fn submit_fraud(
    env: &mut Env,
    request: &ParpRequest,
    response: &ParpResponse,
    witness: Address,
    header: &Header,
) {
    // Any funded account may relay; here the witness path is exercised via
    // the client's account for simplicity of nonce management.
    env.client_call(
        ModuleCall::SubmitFraudProof {
            request: request.encode(),
            response: response.encode(),
            witness,
            header: header.encode(),
        },
        U256::ZERO,
    );
}

#[test]
fn module_state_is_committed_into_state_root() {
    let mut env = Env::new();
    let root_before = env.chain.head().header.state_root;
    env.register_node();
    let root_after = env.chain.head().header.state_root;
    assert_ne!(root_before, root_after);
    // The FNDM account's storage root carries the module commitment.
    let account = env.chain.state().account(&fndm_address()).unwrap();
    assert_eq!(account.storage_root, env.executor.fndm().commitment());
    assert_eq!(account.balance, min_deposit());
}

#[test]
fn gas_costs_reproduce_table4_ordering() {
    // Table IV: fraud proof ≫ open > close > confirm > deposit.
    let mut env = Env::new();
    env.node_call(ModuleCall::Deposit, min_deposit());
    let deposit_gas = env.chain.head().header.gas_used;
    env.node_call(ModuleCall::SetServing { serving: true }, U256::ZERO);

    let expiry = env.chain.head().header.timestamp + 3600;
    let sig = sign(
        &env.node,
        &confirmation_digest(&env.client.address(), expiry),
    );
    env.client_call(
        ModuleCall::OpenChannel {
            full_node: env.node.address(),
            expiry,
            confirmation_sig: sig,
        },
        U256::from(1_000_000u64),
    );
    let open_gas = env.chain.head().header.gas_used;
    let id = env.executor.cmm().channel_count() as u64 - 1;

    let amount = U256::from(1_000u64);
    let pay_sig = env.payment_sig(id, amount);
    env.node_call(
        ModuleCall::CloseChannel {
            channel_id: id,
            amount,
            payment_sig: pay_sig,
        },
        U256::ZERO,
    );
    let close_gas = env.chain.head().header.gas_used;

    env.advance_blocks(DISPUTE_WINDOW_BLOCKS);
    env.node_call(ModuleCall::ConfirmClosure { channel_id: id }, U256::ZERO);
    let confirm_gas = env.chain.head().header.gas_used;

    // A second channel for the fraud path.
    let id2 = env.open_channel(U256::from(1_000u64));
    let head = env.chain.head().header.clone();
    let request = ParpRequest::build(
        &env.client,
        id2,
        head.hash(),
        U256::from(5u64),
        RpcCall::GetBalance {
            address: env.client.address(),
        },
    );
    let state = env.chain.state();
    let proof = state.account_proof(&env.client.address());
    let forged = parp_chain::Account::with_balance(U256::from(1u64));
    let response = ParpResponse::build(&env.node, &request, head.number, forged.encode(), proof);
    submit_fraud(
        &mut env,
        &request,
        &response,
        Address::from_low_u64_be(7),
        &head,
    );
    assert_eq!(env.last_receipt_status(), 1);
    let fraud_gas = env.chain.head().header.gas_used;

    assert!(
        fraud_gas > open_gas
            && open_gas > close_gas
            && close_gas > confirm_gas
            && confirm_gas > deposit_gas,
        "Table IV ordering violated: fraud={fraud_gas} open={open_gas} \
         close={close_gas} confirm={confirm_gas} deposit={deposit_gas}"
    );
    // The paper reports 45 238 gas for a deposit; ours must be in range.
    assert!(
        (30_000..70_000).contains(&deposit_gas),
        "deposit gas {deposit_gas}"
    );
    assert!(
        (120_000..300_000).contains(&open_gas),
        "open gas {open_gas}"
    );
}
