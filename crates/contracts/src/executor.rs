//! The PARP transaction executor: routes transactions addressed to the
//! on-chain modules and falls back to plain transfers otherwise.

use crate::calls::{cmm_address, fdm_address, fndm_address, ModuleCall};
use crate::cmm::ChannelsModule;
use crate::fdm::FraudModule;
use crate::fndm::{DepositModule, Revert};
use crate::gas::GasMeter;
use parp_chain::{
    BlockContext, ExecutionResult, Log, SignedTransaction, State, TransactionExecutor,
    TransferExecutor,
};
use parp_primitives::{Address, U256};

/// Executor wiring the three PARP modules into the chain's execution
/// layer.
///
/// # Examples
///
/// ```
/// use parp_contracts::{ModuleCall, ParpExecutor};
/// use parp_chain::{Blockchain, Transaction};
/// use parp_crypto::SecretKey;
/// use parp_primitives::U256;
///
/// let node = SecretKey::from_seed(b"node");
/// let stake = U256::from(2_000_000_000_000_000_000u64); // 2 tokens
/// let mut chain = Blockchain::new(vec![(node.address(), stake + stake)]);
/// let mut executor = ParpExecutor::new();
///
/// let deposit = Transaction {
///     nonce: 0,
///     gas_price: U256::ZERO,
///     gas_limit: 100_000,
///     to: Some(parp_contracts::fndm_address()),
///     value: stake,
///     data: ModuleCall::Deposit.encode(),
/// }
/// .sign(&node);
/// chain.produce_block(vec![deposit], &mut executor).unwrap();
/// assert_eq!(executor.fndm().deposit_of(&node.address()), stake);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ParpExecutor {
    fndm: DepositModule,
    cmm: ChannelsModule,
    fdm: FraudModule,
}

impl ParpExecutor {
    /// Creates an executor with empty module state.
    pub fn new() -> Self {
        ParpExecutor::default()
    }

    /// The deposit module (read-only view).
    pub fn fndm(&self) -> &DepositModule {
        &self.fndm
    }

    /// The channels module (read-only view).
    pub fn cmm(&self) -> &ChannelsModule {
        &self.cmm
    }

    /// The fraud module (read-only view).
    pub fn fdm(&self) -> &FraudModule {
        &self.fdm
    }

    fn is_module(address: &Address) -> bool {
        *address == fndm_address() || *address == cmm_address() || *address == fdm_address()
    }

    fn dispatch(
        &mut self,
        call: &ModuleCall,
        sender: Address,
        value: U256,
        ctx: &BlockContext,
        state: &mut State,
        meter: &mut GasMeter,
    ) -> Result<(Vec<u8>, Vec<Log>), Revert> {
        match call {
            ModuleCall::Deposit => self.fndm.deposit(sender, value, meter),
            ModuleCall::Withdraw { amount } => self.fndm.withdraw(sender, *amount, state, meter),
            ModuleCall::SetServing { serving } => self.fndm.set_serving(sender, *serving, meter),
            ModuleCall::OpenChannel {
                full_node,
                expiry,
                confirmation_sig,
            } => self.cmm.open_channel(
                sender,
                value,
                *full_node,
                *expiry,
                confirmation_sig,
                ctx,
                &self.fndm,
                meter,
            ),
            ModuleCall::CloseChannel {
                channel_id,
                amount,
                payment_sig,
            } => self
                .cmm
                .close_channel(sender, *channel_id, *amount, payment_sig, ctx, meter),
            ModuleCall::SubmitState {
                channel_id,
                amount,
                payment_sig,
            } => self
                .cmm
                .submit_state(*channel_id, *amount, payment_sig, ctx, meter),
            ModuleCall::ConfirmClosure { channel_id } => {
                self.cmm.confirm_closure(*channel_id, ctx, state, meter)
            }
            ModuleCall::SubmitFraudProof {
                request,
                response,
                witness,
                header,
            } => self.fdm.submit_fraud_proof(
                request,
                response,
                *witness,
                header,
                ctx,
                &mut self.cmm,
                &mut self.fndm,
                state,
                meter,
            ),
            ModuleCall::SubmitBatchFraudProof {
                request,
                response,
                witness,
                headers,
            } => self.fdm.submit_batch_fraud_proof(
                request,
                response,
                *witness,
                headers,
                ctx,
                &mut self.cmm,
                &mut self.fndm,
                state,
                meter,
            ),
        }
    }

    /// Refreshes the module accounts' `storage_root` commitments so the
    /// world-state root covers module state.
    fn commit_modules(&self, state: &mut State) {
        state.account_mut(fndm_address()).storage_root = self.fndm.commitment();
        state.account_mut(cmm_address()).storage_root = self.cmm.commitment();
        state.account_mut(fdm_address()).storage_root = self.fdm.commitment();
    }
}

impl TransactionExecutor for ParpExecutor {
    fn execute(
        &mut self,
        state: &mut State,
        ctx: &BlockContext,
        tx: &SignedTransaction,
        sender: Address,
        intrinsic_gas: u64,
    ) -> ExecutionResult {
        let Some(to) = tx.tx().to else {
            return ExecutionResult::failure(intrinsic_gas);
        };
        if !Self::is_module(&to) {
            return TransferExecutor.execute(state, ctx, tx, sender, intrinsic_gas);
        }
        let mut meter = GasMeter::new();
        // ABI decode of the calldata.
        meter.process_bytes(tx.tx().data.len().min(256));
        let call = match ModuleCall::decode(&tx.tx().data) {
            Ok(call) => call,
            Err(_) => return ExecutionResult::failure(intrinsic_gas + meter.used()),
        };
        if call.target() != to {
            return ExecutionResult::failure(intrinsic_gas + meter.used());
        }
        // Revert semantics: a mark in the state's journal, a copy of the
        // modules.
        let mark = state.checkpoint();
        let modules_snapshot = self.clone();
        // Move the transaction value into the module's custody.
        if !state.transfer(&sender, to, tx.tx().value) {
            return ExecutionResult::failure(intrinsic_gas + meter.used());
        }
        match self.dispatch(&call, sender, tx.tx().value, ctx, state, &mut meter) {
            Ok((output, logs)) => {
                self.commit_modules(state);
                ExecutionResult {
                    success: true,
                    gas_used: intrinsic_gas + meter.used(),
                    logs,
                    output,
                }
            }
            Err(revert) => {
                state.revert_to(mark);
                *self = modules_snapshot;
                let mut result = ExecutionResult::failure(intrinsic_gas + meter.used());
                result.output = revert.0.into_bytes();
                result
            }
        }
    }
}
