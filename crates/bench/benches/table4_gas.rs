//! Table IV: on-chain gas costs of every PARP module action (paper
//! §VI-E), plus USD conversions at the paper's reference prices
//! (ETH = $4000; 12 gwei on mainnet, 0.1 gwei on Arbitrum).
//!
//! Gas is deterministic — printed once — while the timed portion benches
//! on-chain fraud-proof verification (the heaviest module path).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use parp_chain::Blockchain;
use parp_contracts::{
    build_module_call, confirmation_digest, min_deposit, payment_digest, ModuleCall, ParpExecutor,
    ParpRequest, ParpResponse, RpcCall, DISPUTE_WINDOW_BLOCKS,
};
use parp_crypto::{sign, SecretKey};
use parp_primitives::{Address, U256};
use std::hint::black_box;

struct GasEnv {
    chain: Blockchain,
    executor: ParpExecutor,
    node: SecretKey,
    client: SecretKey,
    node_nonce: u64,
    client_nonce: u64,
}

impl GasEnv {
    fn new() -> Self {
        let node = SecretKey::from_seed(b"t4-node");
        let client = SecretKey::from_seed(b"t4-client");
        let funds = U256::from(100u64) * min_deposit();
        GasEnv {
            chain: Blockchain::new(vec![(node.address(), funds), (client.address(), funds)]),
            executor: ParpExecutor::new(),
            node,
            client,
            node_nonce: 0,
            client_nonce: 0,
        }
    }

    fn run_node(&mut self, call: ModuleCall, value: U256) -> u64 {
        let tx = build_module_call(&self.node, self.node_nonce, call, value);
        self.node_nonce += 1;
        self.chain
            .produce_block(vec![tx], &mut self.executor)
            .expect("block");
        assert_eq!(
            self.chain.receipts(self.chain.height()).unwrap()[0].status,
            1,
            "module call must succeed"
        );
        self.chain.head().header.gas_used
    }

    fn run_client(&mut self, call: ModuleCall, value: U256) -> u64 {
        let tx = build_module_call(&self.client, self.client_nonce, call, value);
        self.client_nonce += 1;
        self.chain
            .produce_block(vec![tx], &mut self.executor)
            .expect("block");
        assert_eq!(
            self.chain.receipts(self.chain.height()).unwrap()[0].status,
            1,
            "module call must succeed"
        );
        self.chain.head().header.gas_used
    }

    fn open_channel(&mut self, budget: U256) -> (u64, u64) {
        let expiry = self.chain.head().header.timestamp + 3600;
        let sig = sign(
            &self.node,
            &confirmation_digest(&self.client.address(), expiry),
        );
        let gas = self.run_client(
            ModuleCall::OpenChannel {
                full_node: self.node.address(),
                expiry,
                confirmation_sig: sig,
            },
            budget,
        );
        (gas, self.executor.cmm().channel_count() as u64 - 1)
    }

    fn fraud_proof_call(&mut self, channel_id: u64) -> ModuleCall {
        // Realistic evidence: a balance query answered with a forged
        // account but an honest (thus contradicting) proof.
        let head = self.chain.head().header.clone();
        let request = ParpRequest::build(
            &self.client,
            channel_id,
            head.hash(),
            U256::from(10u64),
            RpcCall::GetBalance {
                address: self.client.address(),
            },
        );
        let state = self.chain.state();
        let proof = state.account_proof(&self.client.address());
        let forged = parp_chain::Account::with_balance(U256::from(1u64));
        let response =
            ParpResponse::build(&self.node, &request, head.number, forged.encode(), proof);
        ModuleCall::SubmitFraudProof {
            request: request.encode(),
            response: response.encode(),
            witness: Address::from_low_u64_be(0x317),
            header: head.encode(),
        }
    }
}

fn usd(gas: u64, gwei: f64) -> f64 {
    gas as f64 * gwei * 1e-9 * 4000.0
}

fn print_table4() {
    let mut env = GasEnv::new();
    let deposit_gas = env.run_node(ModuleCall::Deposit, min_deposit());
    env.run_node(ModuleCall::SetServing { serving: true }, U256::ZERO);
    let (open_gas, id) = env.open_channel(U256::from(1_000_000u64));
    let amount = U256::from(500u64);
    let pay_sig = sign(&env.client, &payment_digest(id, &amount));
    let close_gas = env.run_node(
        ModuleCall::CloseChannel {
            channel_id: id,
            amount,
            payment_sig: pay_sig,
        },
        U256::ZERO,
    );
    for _ in 0..DISPUTE_WINDOW_BLOCKS {
        env.chain
            .produce_block(Vec::new(), &mut env.executor)
            .expect("empty block");
    }
    let confirm_gas = env.run_node(ModuleCall::ConfirmClosure { channel_id: id }, U256::ZERO);
    let (_, id2) = env.open_channel(U256::from(1_000u64));
    let fraud_call = env.fraud_proof_call(id2);
    let fraud_gas = env.run_client(fraud_call, U256::ZERO);

    println!("=== Table IV: on-chain gas costs ===");
    let rows = [
        ("Deposit funds", deposit_gas, 45_238u64),
        ("Open a channel", open_gas, 196_183),
        ("Close a channel", close_gas, 110_118),
        ("Confirm closure", confirm_gas, 87_128),
        ("Submit a fraud proof", fraud_gas, 762_508),
    ];
    for (label, gas, paper) in rows {
        println!(
            "{label:<22} gas {gas:>8} (paper {paper:>7})  mainnet ${:>6.3} (paper-scale)  arbitrum ${:>6.4}",
            usd(gas, 12.0),
            usd(gas, 0.1),
        );
    }
}

fn bench_fraud_proof_verification(c: &mut Criterion) {
    print_table4();
    let mut group = c.benchmark_group("table4");
    group.sample_size(20);
    group.bench_function("submit_fraud_proof_tx", |b| {
        b.iter_batched(
            || {
                let mut env = GasEnv::new();
                env.run_node(ModuleCall::Deposit, min_deposit());
                env.run_node(ModuleCall::SetServing { serving: true }, U256::ZERO);
                let (_, id) = env.open_channel(U256::from(1_000u64));
                let call = env.fraud_proof_call(id);
                let tx = build_module_call(&env.client, env.client_nonce, call, U256::ZERO);
                (env.chain, env.executor, tx)
            },
            |(mut chain, mut executor, tx)| {
                black_box(chain.produce_block(vec![tx], &mut executor).expect("block"));
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("open_channel_tx", |b| {
        b.iter_batched(
            || {
                let mut env = GasEnv::new();
                env.run_node(ModuleCall::Deposit, min_deposit());
                env.run_node(ModuleCall::SetServing { serving: true }, U256::ZERO);
                let expiry = env.chain.head().header.timestamp + 3600;
                let sig = sign(
                    &env.node,
                    &confirmation_digest(&env.client.address(), expiry),
                );
                let call = ModuleCall::OpenChannel {
                    full_node: env.node.address(),
                    expiry,
                    confirmation_sig: sig,
                };
                let tx =
                    build_module_call(&env.client, env.client_nonce, call, U256::from(1_000u64));
                (env.chain, env.executor, tx)
            },
            |(mut chain, mut executor, tx)| {
                black_box(chain.produce_block(vec![tx], &mut executor).expect("block"));
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_fraud_proof_verification);
criterion_main!(benches);
