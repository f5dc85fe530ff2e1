//! The simulated blockchain: deterministic block production over the
//! pluggable execution layer, with one materialised state (the head's),
//! per-block undo records for historical queries, and Merkle proofs —
//! everything a PARP full node needs to serve.

use crate::block::Block;
use crate::exec::{BlockContext, TransactionExecutor};
use crate::header::{empty_ommers_hash, Header};
use crate::receipt::{Log, Receipt};
use crate::state::{State, UndoRecord};
use crate::transaction::SignedTransaction;
use parp_crypto::keccak256;
use parp_primitives::{Address, H256, U256};
use parp_store::{BlockStore, ReadCounts};
use parp_trie::{ordered_pairs, FrozenTrie};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::io;
use std::mem::size_of;

/// EVM `BLOCKHASH` visibility window, which bounds fraud-proof freshness
/// exactly as in the paper's prototype (§VI).
pub const BLOCK_HASH_WINDOW: u64 = 256;

/// Seconds between consecutive blocks (Ethereum's post-merge slot time).
pub const BLOCK_INTERVAL: u64 = 12;

/// Smallest in-memory window a history-backed chain may keep: the
/// `BLOCKHASH` window plus the head, so block production never needs a
/// cold read for `recent_hashes` and fraud-proof freshness (§VI) is
/// unaffected by pruning.
pub const MIN_HISTORY_WINDOW: u64 = BLOCK_HASH_WINDOW + 1;

/// Errors from block production.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// A transaction failed pre-execution validation.
    InvalidTransaction {
        /// Index within the submitted batch.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The block's total gas exceeded the block gas limit.
    GasLimitExceeded,
    /// The attached history store could not archive the block; the
    /// chain is left unchanged so the caller can retry or detach.
    History {
        /// The underlying storage error, rendered.
        reason: String,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::InvalidTransaction { index, reason } => {
                write!(f, "transaction {index} is invalid: {reason}")
            }
            BlockError::GasLimitExceeded => write!(f, "block gas limit exceeded"),
            BlockError::History { reason } => {
                write!(f, "history store rejected the block: {reason}")
            }
        }
    }
}

impl Error for BlockError {}

/// Estimated bytes a [`Blockchain`] holds in memory, by what holds them
/// ([`Blockchain::mem_breakdown`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainMemory {
    /// The head state's account map ([`State::mem_bytes`]).
    pub head_accounts: usize,
    /// The head state's frozen trie (shared with whoever else holds its
    /// `Arc`, a runtime's snapshot cache for one).
    pub head_trie: usize,
    /// The resident blocks' undo records.
    pub undo_records: usize,
    /// The resident blocks — headers and transactions — and receipts.
    pub blocks: usize,
    /// The block-hash and transaction-hash indices and the `BLOCKHASH`
    /// window (these cover pruned blocks too).
    pub indices: usize,
}

impl ChainMemory {
    /// The sum of the parts.
    pub fn total(&self) -> usize {
        self.head_accounts + self.head_trie + self.undo_records + self.blocks + self.indices
    }
}

/// A deterministic in-process blockchain.
///
/// The chain holds **one** copy of the world state: the head's, which
/// block production writes in place. What it keeps per resident block is
/// an [`UndoRecord`] — the prior value of each account that block wrote,
/// a few hundred bytes for a transfer — so memory grows with what blocks
/// change, not with the number of accounts. [`Blockchain::state_at`]
/// rebuilds an older state on demand by rewinding a copy of the head;
/// nothing on a serving path asks for one (PARP proves accounts at the
/// head and inclusion at any depth).
///
/// # Examples
///
/// ```
/// use parp_chain::{Blockchain, Transaction, TransferExecutor};
/// use parp_crypto::SecretKey;
/// use parp_primitives::{Address, U256};
///
/// let alice = SecretKey::from_seed(b"alice");
/// let mut chain = Blockchain::new(vec![(alice.address(), U256::from(1_000_000u64))]);
/// let tx = Transaction {
///     nonce: 0,
///     gas_price: U256::ZERO,
///     gas_limit: 21_000,
///     to: Some(Address::from_low_u64_be(0xb0b)),
///     value: U256::from(123u64),
///     data: Vec::new(),
/// }
/// .sign(&alice);
/// chain.produce_block(vec![tx], &mut TransferExecutor).unwrap();
/// assert_eq!(chain.balance(&Address::from_low_u64_be(0xb0b)), U256::from(123u64));
/// ```
#[derive(Debug, Clone)]
pub struct Blockchain {
    /// Resident window: `blocks[i]` is block `base + i`. Without an
    /// attached history store the window is the whole chain
    /// (`base == 0`); with one, `produce_block` archives each block
    /// into segments and drains the front back to `window` entries.
    blocks: Vec<Block>,
    /// Per-block receipts, parallel to `blocks`.
    receipts: Vec<Vec<Receipt>>,
    /// What each resident block changed, parallel to `blocks`: rewinding
    /// `undo[i]` takes the state after block `base + i` to the one
    /// before it. Genesis changed nothing.
    undo: Vec<UndoRecord>,
    /// The state after the head block, its trie built and sealed.
    state: State,
    hash_index: HashMap<H256, u64>,
    tx_index: HashMap<H256, (u64, usize)>,
    beneficiary: Address,
    gas_limit: u64,
    genesis_timestamp: u64,
    /// Number of the first resident block.
    base: u64,
    /// Rolling `(number, hash)` window of the last
    /// [`BLOCK_HASH_WINDOW`] blocks, maintained incrementally so block
    /// production never re-hashes up to 256 headers (an O(window)
    /// keccak cost per block that dominated deep-history mining).
    recent_window: VecDeque<(u64, H256)>,
    /// Cold history segments; `None` keeps the chain fully resident.
    history: Option<BlockStore>,
    /// Resident-window size once a history store is attached.
    window: u64,
}

impl Blockchain {
    /// Creates a chain whose genesis state holds the given balances.
    pub fn new<I: IntoIterator<Item = (Address, U256)>>(alloc: I) -> Self {
        let state = State::with_alloc(alloc);
        let genesis_timestamp = 1_700_000_000;
        let genesis = Block {
            header: Header {
                parent_hash: H256::ZERO,
                ommers_hash: empty_ommers_hash(),
                beneficiary: Address::ZERO,
                state_root: state.state_root(),
                transactions_root: parp_trie::empty_root(),
                receipts_root: parp_trie::empty_root(),
                difficulty: U256::ZERO,
                number: 0,
                gas_limit: 30_000_000,
                gas_used: 0,
                timestamp: genesis_timestamp,
                extra_data: b"parp-genesis".to_vec(),
            },
            transactions: Vec::new(),
        };
        let genesis_hash = genesis.hash();
        let mut hash_index = HashMap::new();
        hash_index.insert(genesis_hash, 0);
        Blockchain {
            undo: vec![UndoRecord::default()],
            state,
            receipts: vec![Vec::new()],
            blocks: vec![genesis],
            hash_index,
            tx_index: HashMap::new(),
            recent_window: VecDeque::from([(0, genesis_hash)]),
            beneficiary: Address::from_low_u64_be(0xbe9ef1c1a97),
            gas_limit: 30_000_000,
            genesis_timestamp,
            base: 0,
            history: None,
            window: u64::MAX,
        }
    }

    /// Backs this chain's history with append-only segment storage and
    /// bounds the resident window to `window` blocks (clamped up to
    /// [`MIN_HISTORY_WINDOW`] so block production and the `BLOCKHASH`
    /// window never need a cold read).
    ///
    /// Any resident blocks the store has not yet archived are written
    /// out immediately (and fsynced), then the window is pruned. From
    /// here on every produced block is archived before the chain
    /// mutates, so cold lookups through [`Blockchain::header_encoded`]
    /// and friends are byte-identical to the resident path.
    ///
    /// # Errors
    ///
    /// Returns an error when the store already holds blocks beyond
    /// this chain's head or from a different chain (its genesis header
    /// diverges), or when archiving fails.
    pub fn attach_history(&mut self, store: BlockStore, window: u64) -> io::Result<()> {
        if store.next_number() > self.height() + 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "history store is ahead of this chain",
            ));
        }
        if !store.is_empty() {
            let stored_genesis = store.header(0)?.unwrap_or_default();
            let ours = self.blocks.first().map(|b| b.header.encode());
            if self.base != 0 || ours.as_deref() != Some(stored_genesis.as_slice()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "history store belongs to a different chain",
                ));
            }
        }
        let mut next = store.next_number();
        while next <= self.height() {
            let Some(block) = self.block(next) else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "resident window no longer covers unarchived blocks",
                ));
            };
            let header = block.header.encode();
            let transactions: Vec<Vec<u8>> = block
                .transactions
                .iter()
                .map(SignedTransaction::encode)
                .collect();
            let receipts: Vec<Vec<u8>> = self
                .receipts(next)
                .map(|rs| rs.iter().map(Receipt::encode).collect())
                .unwrap_or_default();
            store.append_block(next, &header, &transactions, &receipts)?;
            next += 1;
        }
        store.sync()?;
        self.history = Some(store);
        self.window = window.max(MIN_HISTORY_WINDOW);
        self.prune_resident();
        Ok(())
    }

    /// Drains resident blocks beyond the configured window, moving
    /// `base` forward. Only called once a history store holds them.
    fn prune_resident(&mut self) {
        let resident = self.blocks.len() as u64;
        if resident > self.window {
            let drop = (resident - self.window) as usize;
            self.blocks.drain(..drop);
            self.receipts.drain(..drop);
            self.undo.drain(..drop);
            self.base += drop as u64;
        }
    }

    /// Produces and appends a block containing `transactions`.
    ///
    /// Each transaction is validated (signature, nonce, gas purchase),
    /// executed through `executor` against the head state in place, and
    /// folded into the block's receipt and state roots.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError`] when a transaction fails validation, the
    /// block outgrows the gas limit or the history store refuses it. The
    /// chain is left unchanged in that case: the writes earlier
    /// transactions of the block made are reverted, and the head keeps
    /// the trie it had (no rebuild is paid). State a
    /// [`TransactionExecutor`] keeps of its own — `ParpExecutor`'s module
    /// state — is **not** rolled back with the block; a caller that
    /// retries after an error with such an executor must restore it
    /// itself.
    pub fn produce_block(
        &mut self,
        transactions: Vec<SignedTransaction>,
        executor: &mut dyn TransactionExecutor,
    ) -> Result<&Block, BlockError> {
        let mark = self.state.checkpoint();
        let (block, receipts, tx_hashes) = match self.execute_block(transactions, executor) {
            Ok(built) => built,
            Err(e) => {
                self.state.revert_to(mark);
                return Err(e);
            }
        };
        let number = block.number();
        let block_hash = block.hash();
        self.hash_index.insert(block_hash, number);
        self.recent_window.push_back((number, block_hash));
        while self.recent_window.len() > BLOCK_HASH_WINDOW as usize {
            self.recent_window.pop_front();
        }
        for (i, hash) in tx_hashes.into_iter().enumerate() {
            self.tx_index.insert(hash, (number, i));
        }
        // Growth is bounded: once a history store is attached,
        // `prune_resident` drains the front of all three parallel
        // vectors back to the configured window (the block just
        // archived is safe to drop whenever it ages out). Without a
        // store every block and its undo record stay resident.
        self.undo.push(self.state.seal());
        self.receipts.push(receipts);
        self.blocks.push(block);
        if self.history.is_some() {
            self.prune_resident();
        }
        Ok(self.blocks.last().expect("just pushed"))
    }

    /// Executes `transactions` on the head state and archives the block
    /// they make, touching nothing else of the chain: on `Err` the caller
    /// reverts the state and the chain is as it was. Returns the block,
    /// its receipts and its transaction hashes.
    fn execute_block(
        &mut self,
        transactions: Vec<SignedTransaction>,
        executor: &mut dyn TransactionExecutor,
    ) -> Result<(Block, Vec<Receipt>, Vec<H256>), BlockError> {
        let parent = self.blocks.last().expect("genesis always present");
        let number = parent.number() + 1;
        // The rolling window already holds `(n, hash)` for the last
        // BLOCK_HASH_WINDOW blocks (parent included) — no re-hashing.
        let parent_hash = self
            .recent_window
            .back()
            .map(|(_, hash)| *hash)
            .expect("window covers parent");
        let recent_hashes: Vec<(u64, H256)> = self.recent_window.iter().copied().collect();
        let ctx = BlockContext {
            number,
            timestamp: self.genesis_timestamp + number * BLOCK_INTERVAL,
            beneficiary: self.beneficiary,
            recent_hashes,
        };
        let mut receipts = Vec::with_capacity(transactions.len());
        let mut cumulative_gas = 0u64;
        for (index, tx) in transactions.iter().enumerate() {
            let receipt =
                Self::apply_transaction(&mut self.state, &ctx, tx, executor, cumulative_gas)
                    .map_err(|reason| BlockError::InvalidTransaction { index, reason })?;
            cumulative_gas = receipt.cumulative_gas_used;
            if cumulative_gas > self.gas_limit {
                return Err(BlockError::GasLimitExceeded);
            }
            receipts.push(receipt);
        }
        // One canonical encoding per transaction and receipt, shared by
        // the roots, the archive and the transaction index.
        let encoded_txs: Vec<Vec<u8>> =
            transactions.iter().map(SignedTransaction::encode).collect();
        let encoded_receipts: Vec<Vec<u8>> = receipts.iter().map(Receipt::encode).collect();
        let ordered_root =
            |encoded: &[Vec<u8>]| ordered_pairs(encoded).collect::<FrozenTrie>().root_hash();
        let block = Block {
            header: Header {
                parent_hash,
                ommers_hash: empty_ommers_hash(),
                beneficiary: ctx.beneficiary,
                // The first write made the head's trie the parent this
                // root is derived from.
                state_root: self.state.state_root(),
                transactions_root: ordered_root(&encoded_txs),
                receipts_root: ordered_root(&encoded_receipts),
                difficulty: U256::ZERO,
                number,
                gas_limit: self.gas_limit,
                gas_used: cumulative_gas,
                timestamp: ctx.timestamp,
                extra_data: Vec::new(),
            },
            transactions,
        };
        if let Some(history) = &self.history {
            history
                .append_block(
                    number,
                    &block.header.encode(),
                    &encoded_txs,
                    &encoded_receipts,
                )
                .map_err(|e| BlockError::History {
                    reason: e.to_string(),
                })?;
        }
        let tx_hashes = encoded_txs.iter().map(|tx| keccak256(tx)).collect();
        Ok((block, receipts, tx_hashes))
    }

    fn apply_transaction(
        state: &mut State,
        ctx: &BlockContext,
        tx: &SignedTransaction,
        executor: &mut dyn TransactionExecutor,
        cumulative_gas: u64,
    ) -> Result<Receipt, String> {
        let sender = tx
            .sender()
            .map_err(|e| format!("sender recovery failed: {e}"))?;
        let body = tx.tx();
        let expected_nonce = state.nonce(&sender);
        if body.nonce != expected_nonce {
            return Err(format!(
                "nonce mismatch: expected {expected_nonce}, got {}",
                body.nonce
            ));
        }
        let intrinsic = body.intrinsic_gas();
        if body.gas_limit < intrinsic {
            return Err(format!(
                "gas limit {} below intrinsic cost {intrinsic}",
                body.gas_limit
            ));
        }
        // Buy gas up front, like Ethereum.
        let upfront = body
            .gas_price
            .checked_mul(U256::from(body.gas_limit))
            .ok_or("gas cost overflow")?;
        if !state.debit(&sender, upfront) {
            return Err("insufficient funds for gas".to_string());
        }
        state.account_mut(sender).nonce += 1;
        let mut result = executor.execute(state, ctx, tx, sender, intrinsic);
        if result.gas_used > body.gas_limit {
            // Out of gas: consume everything, drop effects the executor
            // reported (executors revert their own state on failure).
            result.success = false;
            result.gas_used = body.gas_limit;
            result.logs.clear();
        }
        // Refund unused gas; route the fee to the beneficiary.
        let refund = body.gas_price * U256::from(body.gas_limit - result.gas_used);
        state.credit(sender, refund);
        let fee = body.gas_price * U256::from(result.gas_used);
        state.credit(ctx.beneficiary, fee);
        Ok(Receipt {
            status: result.success as u64,
            cumulative_gas_used: cumulative_gas + result.gas_used,
            logs: result.logs,
        })
    }

    /// The chain head.
    pub fn head(&self) -> &Block {
        self.blocks.last().expect("genesis always present")
    }

    /// Current chain height.
    pub fn height(&self) -> u64 {
        self.head().number()
    }

    /// Index of block `number` in the resident window, if resident.
    fn resident_index(&self, number: u64) -> Option<usize> {
        usize::try_from(number.checked_sub(self.base)?).ok()
    }

    /// Block by height, when it is still in the resident window.
    ///
    /// History-backed chains prune old blocks from memory; use the
    /// cold-capable accessors ([`Blockchain::header_encoded`],
    /// [`Blockchain::transactions_encoded`], …) to reach them.
    pub fn block(&self, number: u64) -> Option<&Block> {
        self.blocks.get(self.resident_index(number)?)
    }

    /// Block by hash.
    pub fn block_by_hash(&self, hash: &H256) -> Option<&Block> {
        self.hash_index.get(hash).and_then(|&n| self.block(n))
    }

    /// Height of a block hash, if known.
    pub fn block_number_by_hash(&self, hash: &H256) -> Option<u64> {
        self.hash_index.get(hash).copied()
    }

    /// The hash of block `number` *if it lies within the 256-block
    /// `BLOCKHASH` window* of the head — the same visibility constraint
    /// the paper's on-chain fraud verification relies on.
    pub fn recent_block_hash(&self, number: u64) -> Option<H256> {
        let head = self.height();
        if number > head || head.saturating_sub(number) >= BLOCK_HASH_WINDOW {
            return None;
        }
        self.block(number).map(Block::hash)
    }

    /// Receipts for block `number`, when still in the resident window.
    pub fn receipts(&self, number: u64) -> Option<&[Receipt]> {
        self.receipts
            .get(self.resident_index(number)?)
            .map(Vec::as_slice)
    }

    /// The state *after* executing block `number`, when that block is
    /// still in the resident window (historical state is not archived —
    /// PARP serves account proofs at the head, inclusion proofs for
    /// arbitrary depth). The head's is borrowed; an older one is rebuilt
    /// by rewinding a copy of the head through the undo records of the
    /// blocks above `number` — O(accounts) for the copy, and the first
    /// proof off it freezes a trie from scratch.
    pub fn state_at(&self, number: u64) -> Option<Cow<'_, State>> {
        let above = self.undo.get(self.resident_index(number)? + 1..)?;
        if above.is_empty() {
            return Some(Cow::Borrowed(&self.state));
        }
        let mut state = self.state.clone();
        for undo in above.iter().rev() {
            state.rewind(undo);
        }
        Some(Cow::Owned(state))
    }

    /// The current world state: the one after the head block.
    pub fn state(&self) -> &State {
        &self.state
    }

    /// Current balance of an address.
    pub fn balance(&self, address: &Address) -> U256 {
        self.state().balance(address)
    }

    /// Current nonce of an address.
    pub fn nonce(&self, address: &Address) -> u64 {
        self.state().nonce(address)
    }

    /// Locates a transaction by hash: `(block number, index)`.
    pub fn transaction_location(&self, hash: &H256) -> Option<(u64, usize)> {
        self.tx_index.get(hash).copied()
    }

    /// Account Merkle proof at a given block height, verifiable against
    /// that block's `state_root`.
    pub fn account_proof_at(&self, address: &Address, number: u64) -> Option<Vec<Vec<u8>>> {
        self.state_at(number).map(|s| s.account_proof(address))
    }

    /// Transaction inclusion proof, verifiable against the block's
    /// `transactions_root`. Falls back to the archived segments for
    /// pruned blocks; the proof bytes are identical either way (the
    /// trie is rebuilt from the same canonical encodings).
    pub fn transaction_proof(&self, number: u64, index: usize) -> Option<Vec<Vec<u8>>> {
        if self.resident_index(number).is_some() {
            return self.block(number).and_then(|b| b.transaction_proof(index));
        }
        let encoded = self.cold_transactions(number)?;
        if index >= encoded.len() {
            return None;
        }
        let trie: FrozenTrie = ordered_pairs(&encoded).collect();
        Some(trie.prove(&parp_rlp::encode_u64(index as u64)))
    }

    /// Receipt inclusion proof, verifiable against the block's
    /// `receipts_root`. Falls back to the archived segments for pruned
    /// blocks, byte-identically.
    pub fn receipt_proof(&self, number: u64, index: usize) -> Option<Vec<Vec<u8>>> {
        self.receipt_with_proof(number, index)
            .map(|(_, proof)| proof)
    }

    /// The encoded receipt at `(number, index)` and its inclusion
    /// proof, warm or cold — both taken from one ordered trie over the
    /// block's encoded receipts, so a pruned block's archived record
    /// is read once for the pair.
    pub fn receipt_with_proof(&self, number: u64, index: usize) -> Option<(Vec<u8>, Vec<Vec<u8>>)> {
        let mut encoded = self.receipts_encoded(number)?;
        if index >= encoded.len() {
            return None;
        }
        let trie: FrozenTrie = ordered_pairs(&encoded).collect();
        let proof = trie.prove(&parp_rlp::encode_u64(index as u64));
        Some((encoded.swap_remove(index), proof))
    }

    // --- cold/warm unified accessors -------------------------------

    /// Whether a history store backs this chain.
    pub fn has_history(&self) -> bool {
        self.history.is_some()
    }

    /// Number of the first block still resident in memory.
    pub fn resident_base(&self) -> u64 {
        self.base
    }

    /// Number of blocks currently held in memory.
    pub fn resident_blocks(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Bytes the attached history store occupies on disk (0 without
    /// one).
    pub fn history_disk_bytes(&self) -> u64 {
        self.history.as_ref().map_or(0, BlockStore::disk_bytes)
    }

    /// Record reads the attached history store has served, per
    /// segment (all zero without one).
    pub fn history_read_counts(&self) -> ReadCounts {
        self.history
            .as_ref()
            .map_or_else(ReadCounts::default, BlockStore::read_counts)
    }

    /// Estimated bytes this chain holds in memory, by component. Heap
    /// buffers are charged at capacity and hash maps at one slot and one
    /// control byte per 7/8 of a bucket; allocator slack is not modelled.
    pub fn mem_breakdown(&self) -> ChainMemory {
        let transactions = |block: &Block| {
            let data: usize = block.transactions.iter().map(|t| t.tx().data.len()).sum();
            block.transactions.capacity() * size_of::<SignedTransaction>() + data
        };
        let logs = |receipt: &Receipt| {
            let payload: usize = receipt
                .logs
                .iter()
                .map(|log| log.topics.capacity() * size_of::<H256>() + log.data.capacity())
                .sum();
            receipt.logs.capacity() * size_of::<Log>() + payload
        };
        let blocks: usize = self
            .blocks
            .iter()
            .map(|b| b.header.extra_data.capacity() + transactions(b))
            .sum();
        let receipts: usize = self
            .receipts
            .iter()
            .map(|rs| rs.capacity() * size_of::<Receipt>() + rs.iter().map(logs).sum::<usize>())
            .sum();
        let map_bytes = |capacity: usize, entry: usize| capacity * 8 / 7 * (entry + 1);
        ChainMemory {
            head_accounts: self.state.mem_bytes(),
            head_trie: self.state.shared_trie().mem_bytes(),
            undo_records: self.undo.iter().map(UndoRecord::mem_bytes).sum(),
            blocks: self.blocks.capacity() * size_of::<Block>()
                + blocks
                + self.receipts.capacity() * size_of::<Vec<Receipt>>()
                + receipts,
            indices: map_bytes(self.hash_index.capacity(), size_of::<(H256, u64)>())
                + map_bytes(self.tx_index.capacity(), size_of::<(H256, (u64, usize))>())
                + self.recent_window.capacity() * size_of::<(u64, H256)>(),
        }
    }

    /// Estimated bytes this chain holds in memory: the sum of
    /// [`Blockchain::mem_breakdown`].
    pub fn mem_bytes(&self) -> usize {
        size_of::<Self>() - size_of::<State>() + self.mem_breakdown().total()
    }

    /// Fsyncs the history store's segment tails.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on fsync failure.
    pub fn sync_history(&self) -> io::Result<()> {
        match &self.history {
            Some(history) => history.sync(),
            None => Ok(()),
        }
    }

    /// Archived record for `number` from the history store, if any.
    fn cold_transactions(&self, number: u64) -> Option<Vec<Vec<u8>>> {
        self.history.as_ref()?.transactions(number).ok().flatten()
    }

    fn cold_receipts(&self, number: u64) -> Option<Vec<Vec<u8>>> {
        self.history.as_ref()?.receipts(number).ok().flatten()
    }

    /// The encoded header of block `number`, served from the resident
    /// window or the archived segments — byte-identical either way.
    pub fn header_encoded(&self, number: u64) -> Option<Vec<u8>> {
        if let Some(block) = self.block(number) {
            return Some(block.header.encode());
        }
        self.history.as_ref()?.header(number).ok().flatten()
    }

    /// The decoded header of block `number` with its canonical
    /// encoding, warm or cold: a pruned block costs one segment read
    /// and one decode for the pair, which is what lets one exchange use
    /// a header both as a proof root and on the wire.
    pub fn header_record(&self, number: u64) -> Option<(Header, Vec<u8>)> {
        if let Some(block) = self.block(number) {
            return Some((block.header.clone(), block.header.encode()));
        }
        let bytes = self.history.as_ref()?.header(number).ok().flatten()?;
        let header = Header::decode(&bytes).ok()?;
        Some((header, bytes))
    }

    /// The decoded header of block `number`, warm or cold.
    pub fn header_at(&self, number: u64) -> Option<Header> {
        if let Some(block) = self.block(number) {
            return Some(block.header.clone());
        }
        let bytes = self.history.as_ref()?.header(number).ok().flatten()?;
        Header::decode(&bytes).ok()
    }

    /// The canonically encoded transactions of block `number`, in
    /// block order, warm or cold — byte-identical either way (cold
    /// records are the exact bytes whose ordered trie produced the
    /// header's `transactions_root`).
    pub fn transactions_encoded(&self, number: u64) -> Option<Vec<Vec<u8>>> {
        if let Some(block) = self.block(number) {
            return Some(
                block
                    .transactions
                    .iter()
                    .map(SignedTransaction::encode)
                    .collect(),
            );
        }
        self.cold_transactions(number)
    }

    /// The decoded transactions of block `number`, warm or cold.
    pub fn transactions_at(&self, number: u64) -> Option<Vec<SignedTransaction>> {
        if let Some(block) = self.block(number) {
            return Some(block.transactions.clone());
        }
        self.cold_transactions(number)?
            .iter()
            .map(|bytes| SignedTransaction::decode(bytes).ok())
            .collect()
    }

    /// The canonically encoded receipts of block `number`, warm or
    /// cold — byte-identical either way.
    pub fn receipts_encoded(&self, number: u64) -> Option<Vec<Vec<u8>>> {
        if let Some(receipts) = self.receipts(number) {
            return Some(receipts.iter().map(Receipt::encode).collect());
        }
        self.cold_receipts(number)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::TransferExecutor;
    use crate::transaction::Transaction;
    use parp_crypto::SecretKey;

    fn funded_chain() -> (Blockchain, SecretKey) {
        let key = SecretKey::from_seed(b"rich");
        let chain = Blockchain::new(vec![(
            key.address(),
            U256::from(10u64) * U256::from(1_000_000_000_000_000_000u64),
        )]);
        (chain, key)
    }

    fn transfer(key: &SecretKey, nonce: u64, to: u64, value: u64) -> SignedTransaction {
        Transaction {
            nonce,
            gas_price: U256::from(12_000_000_000u64),
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(to)),
            value: U256::from(value),
            data: Vec::new(),
        }
        .sign(key)
    }

    #[test]
    fn genesis_is_block_zero() {
        let (chain, _) = funded_chain();
        assert_eq!(chain.height(), 0);
        assert_eq!(chain.head().number(), 0);
        assert_eq!(chain.head().header.parent_hash, H256::ZERO);
    }

    #[test]
    fn produce_block_links_parent() {
        let (mut chain, key) = funded_chain();
        let genesis_hash = chain.head().hash();
        chain
            .produce_block(vec![transfer(&key, 0, 2, 100)], &mut TransferExecutor)
            .unwrap();
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.head().header.parent_hash, genesis_hash);
        assert_eq!(
            chain.balance(&Address::from_low_u64_be(2)),
            U256::from(100u64)
        );
    }

    #[test]
    fn fees_flow_to_beneficiary() {
        let (mut chain, key) = funded_chain();
        let before = chain.balance(&chain.beneficiary);
        chain
            .produce_block(vec![transfer(&key, 0, 2, 100)], &mut TransferExecutor)
            .unwrap();
        let after = chain.balance(&chain.beneficiary);
        assert_eq!(
            after - before,
            U256::from(21_000u64) * U256::from(12_000_000_000u64)
        );
    }

    #[test]
    fn bad_nonce_rejects_block() {
        let (mut chain, key) = funded_chain();
        let err = chain
            .produce_block(vec![transfer(&key, 5, 2, 100)], &mut TransferExecutor)
            .unwrap_err();
        assert!(matches!(
            err,
            BlockError::InvalidTransaction { index: 0, .. }
        ));
        assert_eq!(chain.height(), 0, "chain unchanged after rejection");
    }

    #[test]
    fn insufficient_gas_funds_rejected() {
        let key = SecretKey::from_seed(b"poor");
        let mut chain = Blockchain::new(vec![(key.address(), U256::from(100u64))]);
        let err = chain
            .produce_block(vec![transfer(&key, 0, 2, 1)], &mut TransferExecutor)
            .unwrap_err();
        assert!(matches!(err, BlockError::InvalidTransaction { .. }));
    }

    #[test]
    fn failed_transfer_still_charges_gas() {
        let key = SecretKey::from_seed(b"gas-only");
        // Enough for gas but not for the value.
        let gas_budget = U256::from(21_000u64) * U256::from(12_000_000_000u64);
        let mut chain = Blockchain::new(vec![(key.address(), gas_budget + U256::from(5u64))]);
        chain
            .produce_block(vec![transfer(&key, 0, 2, 1_000)], &mut TransferExecutor)
            .unwrap();
        let receipts = chain.receipts(1).unwrap();
        assert_eq!(receipts[0].status, 0);
        assert_eq!(chain.balance(&key.address()), U256::from(5u64));
        assert_eq!(chain.balance(&Address::from_low_u64_be(2)), U256::ZERO);
    }

    #[test]
    fn lookups_by_hash_and_number() {
        let (mut chain, key) = funded_chain();
        let tx = transfer(&key, 0, 2, 7);
        let tx_hash = tx.hash();
        chain
            .produce_block(vec![tx], &mut TransferExecutor)
            .unwrap();
        let head_hash = chain.head().hash();
        assert_eq!(chain.block_by_hash(&head_hash).unwrap().number(), 1);
        assert_eq!(chain.transaction_location(&tx_hash), Some((1, 0)));
        assert_eq!(chain.block_number_by_hash(&head_hash), Some(1));
    }

    #[test]
    fn recent_hash_window() {
        let (mut chain, key) = funded_chain();
        for nonce in 0..300 {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        assert_eq!(chain.height(), 300);
        assert!(chain.recent_block_hash(300).is_some());
        assert!(chain.recent_block_hash(45).is_some()); // 300 - 45 = 255 < 256
        assert!(chain.recent_block_hash(44).is_none()); // 300 - 44 = 256
        assert!(chain.recent_block_hash(301).is_none()); // future
    }

    #[test]
    fn historical_state_is_frozen() {
        let (mut chain, key) = funded_chain();
        chain
            .produce_block(vec![transfer(&key, 0, 2, 100)], &mut TransferExecutor)
            .unwrap();
        chain
            .produce_block(vec![transfer(&key, 1, 2, 50)], &mut TransferExecutor)
            .unwrap();
        let to = Address::from_low_u64_be(2);
        assert_eq!(chain.state_at(0).unwrap().balance(&to), U256::ZERO);
        assert_eq!(chain.state_at(1).unwrap().balance(&to), U256::from(100u64));
        assert_eq!(chain.state_at(2).unwrap().balance(&to), U256::from(150u64));
        // The head's is the chain's own; older ones are rebuilt, and
        // prove against their block's root all the same.
        assert!(matches!(chain.state_at(2), Some(Cow::Borrowed(_))));
        assert!(chain.state_at(3).is_none());
        let proof = chain.account_proof_at(&to, 1).unwrap();
        let root = chain.block(1).unwrap().header.state_root;
        let value = parp_trie::verify_proof(root, keccak256(to.as_bytes()).as_bytes(), &proof)
            .unwrap()
            .unwrap();
        let account = crate::account::Account::decode(&value).unwrap();
        assert_eq!(account.balance, U256::from(100u64));
    }

    #[test]
    fn proofs_verify_against_headers() {
        let (mut chain, key) = funded_chain();
        let txs: Vec<SignedTransaction> = (0..10).map(|i| transfer(&key, i, 2, i + 1)).collect();
        chain.produce_block(txs, &mut TransferExecutor).unwrap();
        let header = &chain.block(1).unwrap().header.clone();

        // Account proof against the state root.
        let proof = chain.account_proof_at(&key.address(), 1).unwrap();
        let account_key = keccak256(key.address().as_bytes());
        let value = parp_trie::verify_proof(header.state_root, account_key.as_bytes(), &proof)
            .unwrap()
            .unwrap();
        let account = crate::account::Account::decode(&value).unwrap();
        assert_eq!(account.nonce, 10);

        // Transaction proof against the transactions root.
        let tx_proof = chain.transaction_proof(1, 4).unwrap();
        let tx_key = parp_rlp::encode_u64(4);
        let tx_value = parp_trie::verify_proof(header.transactions_root, &tx_key, &tx_proof)
            .unwrap()
            .unwrap();
        assert_eq!(tx_value, chain.block(1).unwrap().transactions[4].encode());

        // Receipt proof against the receipts root.
        let receipt_proof = chain.receipt_proof(1, 4).unwrap();
        let receipt_value = parp_trie::verify_proof(header.receipts_root, &tx_key, &receipt_proof)
            .unwrap()
            .unwrap();
        let receipt = Receipt::decode(&receipt_value).unwrap();
        assert!(receipt.is_success());
    }

    /// A chain of `accounts` bystanders plus the funded key, and the
    /// estimated bytes each of 40 one-transfer blocks then adds to it.
    fn bytes_per_block(accounts: u64) -> usize {
        let key = SecretKey::from_seed(b"rich");
        let mut chain = Blockchain::new(
            (1..=accounts)
                .map(|i| (Address::from_low_u64_be(i * 31), U256::from(i)))
                .chain([(key.address(), U256::from(1u64) << 80)]),
        );
        let blocks = 40;
        // Past the first few blocks, so the vectors' doubling is in both.
        for nonce in 0..8 {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        // The head trie's superseded bytes are left out: they are bounded
        // by its compaction, not kept per block.
        let live = |chain: &Blockchain| {
            let memory = chain.mem_breakdown();
            (
                memory,
                memory.total() - chain.state.shared_trie().superseded_bytes(),
            )
        };
        let (before, live_before) = live(&chain);
        for nonce in 8..8 + blocks {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        let (after, live_after) = live(&chain);
        assert_eq!(after.head_accounts, before.head_accounts);
        // Sender, recipient, beneficiary: three prior values a block.
        assert!(chain.undo.iter().skip(1).all(|undo| undo.len() == 3));
        (live_after - live_before) / blocks as usize
    }

    #[test]
    fn a_block_retains_what_it_changed_not_a_copy_of_the_state() {
        let (small, large) = (bytes_per_block(100), bytes_per_block(2_000));
        assert!(large <= 16 * 1024, "{large} bytes per block");
        // Independent of the account count, up to the head trie's own
        // (logarithmic) growth.
        assert!(large.abs_diff(small) * 10 <= small, "{small} vs {large}");
    }

    fn history_chain(blocks: u64, window: u64) -> (Blockchain, SecretKey, std::path::PathBuf) {
        let (mut chain, key) = funded_chain();
        let dir = parp_store::scratch_dir("chain-history").unwrap();
        let store = parp_store::BlockStore::open(&dir).unwrap();
        chain.attach_history(store, window).unwrap();
        for nonce in 0..blocks {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        (chain, key, dir)
    }

    #[test]
    fn history_bounds_resident_window() {
        let (chain, _, dir) = history_chain(400, 0);
        assert_eq!(chain.height(), 400);
        assert_eq!(chain.resident_blocks(), MIN_HISTORY_WINDOW);
        assert_eq!(chain.resident_base(), 401 - MIN_HISTORY_WINDOW);
        // Resident accessors miss pruned blocks, cold accessors hit.
        assert!(chain.block(0).is_none());
        assert!(chain.block(chain.resident_base()).is_some());
        assert!(chain.header_encoded(0).is_some());
        assert!(chain.history_disk_bytes() > 0);
        // The BLOCKHASH window still works at the head.
        assert!(chain.recent_block_hash(chain.height() - 255).is_some());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn cold_reads_are_byte_identical_to_resident_reads() {
        // Two identical chains, one pruned: every cold read off the
        // pruned chain must match the fully resident one byte for byte.
        let (cold, _, dir) = history_chain(300, 0);
        let (mut warm, key) = funded_chain();
        for nonce in 0..300 {
            warm.produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        for number in [0u64, 1, 7, 150, 299, 300] {
            assert_eq!(
                cold.header_encoded(number),
                warm.block(number).map(|b| b.header.encode()),
                "header {number}"
            );
            assert_eq!(
                cold.transactions_encoded(number),
                warm.transactions_encoded(number),
                "transactions {number}"
            );
            assert_eq!(
                cold.receipts_encoded(number),
                warm.receipts_encoded(number),
                "receipts {number}"
            );
            if number >= 1 {
                assert_eq!(
                    cold.transaction_proof(number, 0),
                    warm.transaction_proof(number, 0),
                    "tx proof {number}"
                );
                assert_eq!(
                    cold.receipt_proof(number, 0),
                    warm.receipt_proof(number, 0),
                    "receipt proof {number}"
                );
            }
        }
        // Cold proofs still verify against the archived header roots.
        let header = Header::decode(&cold.header_encoded(5).unwrap()).unwrap();
        let proof = cold.transaction_proof(5, 0).unwrap();
        let value =
            parp_trie::verify_proof(header.transactions_root, &parp_rlp::encode_u64(0), &proof)
                .unwrap()
                .unwrap();
        assert_eq!(value, cold.transactions_encoded(5).unwrap()[0]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn attach_history_archives_existing_blocks() {
        let (mut chain, key) = funded_chain();
        for nonce in 0..10 {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        let dir = parp_store::scratch_dir("late-attach").unwrap();
        let store = parp_store::BlockStore::open(&dir).unwrap();
        chain.attach_history(store.clone(), 0).unwrap();
        // All 11 blocks (genesis included) were archived on attach.
        assert_eq!(store.next_number(), 11);
        assert_eq!(
            store.header(4).unwrap().as_deref(),
            Some(chain.block(4).unwrap().header.encode().as_slice())
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn foreign_history_store_is_rejected() {
        let (mut chain_a, key) = funded_chain();
        chain_a
            .produce_block(vec![transfer(&key, 0, 2, 1)], &mut TransferExecutor)
            .unwrap();
        let dir = parp_store::scratch_dir("foreign").unwrap();
        let store = parp_store::BlockStore::open(&dir).unwrap();
        chain_a.attach_history(store.clone(), 0).unwrap();
        // A different chain (different alloc ⇒ different genesis) must
        // refuse the same store.
        let mut other = Blockchain::new(vec![(Address::from_low_u64_be(7), U256::from(1u64))]);
        assert!(other.attach_history(store, 0).is_err());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn transaction_location_survives_pruning() {
        let (mut chain, key) = funded_chain();
        let tx = transfer(&key, 0, 2, 7);
        let tx_hash = tx.hash();
        let dir = parp_store::scratch_dir("txloc").unwrap();
        chain
            .attach_history(parp_store::BlockStore::open(&dir).unwrap(), 0)
            .unwrap();
        chain
            .produce_block(vec![tx], &mut TransferExecutor)
            .unwrap();
        for nonce in 1..300 {
            chain
                .produce_block(vec![transfer(&key, nonce, 2, 1)], &mut TransferExecutor)
                .unwrap();
        }
        assert!(chain.block(1).is_none(), "block 1 pruned");
        assert_eq!(chain.transaction_location(&tx_hash), Some((1, 0)));
        let decoded = chain.transactions_at(1).unwrap();
        assert_eq!(decoded[0].hash(), tx_hash);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn state_roots_differ_across_blocks() {
        let (mut chain, key) = funded_chain();
        let root0 = chain.block(0).unwrap().header.state_root;
        chain
            .produce_block(vec![transfer(&key, 0, 2, 100)], &mut TransferExecutor)
            .unwrap();
        let root1 = chain.block(1).unwrap().header.state_root;
        assert_ne!(root0, root1);
    }
}
