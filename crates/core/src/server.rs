//! The PARP-compatible full node: handshake confirmation, request
//! verification, response generation, and payment tracking (paper §IV-E,
//! §V, and the server half of Fig. 5's processing pipeline).

use crate::misbehavior::Misbehavior;
use crate::peer::{NotPeer, Peer};
use parp_chain::{Blockchain, Header, State};
use parp_contracts::{
    confirmation_digest, payment_digest, ChannelStatus, ModuleCall, ParpBatchRequest,
    ParpBatchResponse, ParpExecutor, ParpRequest, ParpResponse, ProofHashes, RpcCall,
};
use parp_crypto::{sign, KeyPair, PreparedKey, PublicKey, SecretKey, Signature};
use parp_primitives::{Address, H256, U256};
use parp_telemetry::{StageRecorder, TimeSource, TimeStamp};
use parp_trie::ProofBuf;
use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::mem::size_of;

/// Strategy that supplies state-trie proofs to the serving paths.
///
/// [`FullNode::handle_request`] and [`FullNode::handle_batch`] are
/// parameterized over this trait so a serving runtime can slot in its
/// caches and counters *without* the protocol layer depending on it —
/// the engine only decides **where** the trie a proof is cut from comes
/// from, never **which** nodes the proof holds, so responses stay
/// byte-identical across engines (the fraud checks require it).
pub trait ProofEngine {
    /// Deduplicated multiproof for `addresses` under `state`'s root —
    /// the node set of [`State::account_multiproof`] — written into
    /// `out`, the one contiguous buffer the serving loop carries across
    /// batches (cleared first; capacity is kept). The hashes `out` keeps
    /// beside the nodes are what the batch's `σ_res` signs.
    fn account_multiproof_into(&mut self, state: &State, addresses: &[Address], out: &mut ProofBuf);

    /// Single-account proof under `state`'s root, equivalent to
    /// [`State::account_proof`].
    fn account_proof(&mut self, state: &State, address: &Address) -> Vec<Vec<u8>>;

    /// Inclusion proof for transaction `index` of the block `header`
    /// heads, equivalent to [`Blockchain::transaction_proof`] — empty
    /// when the block holds no such transaction or its body cannot be
    /// read — with each node's hash, which a batch's `σ_res` signs. The
    /// serving loop resolves the header (once per exchange) and hands
    /// it in, so an engine keyed by trie root never looks it up again.
    /// This default rebuilds the block's transaction trie per lookup and
    /// hashes the proof nodes; `parp-runtime`'s `Runtime` overrides it
    /// to prove off its inclusion engine's cached page, reading the node
    /// hashes off the walk.
    fn transaction_proof(&mut self, chain: &Blockchain, header: &Header, index: usize) -> ProofBuf {
        chain
            .transaction_proof(header.number, index)
            .unwrap_or_default()
            .iter()
            .collect()
    }

    /// The encoded receipt `index` of the block `header` heads and its
    /// inclusion proof with each node's hash, equivalent to
    /// [`Blockchain::receipt_with_proof`]: the pair comes from one
    /// trie, so the receipt served is the one the proof binds. `None`
    /// when there is no such receipt to serve. This default rebuilds the
    /// receipt trie per lookup; `parp-runtime`'s `Runtime` overrides it
    /// to read both off its inclusion engine's cached page.
    fn receipt_proof(
        &mut self,
        chain: &Blockchain,
        header: &Header,
        index: usize,
    ) -> Option<(Vec<u8>, ProofBuf)> {
        let (receipt, proof) = chain.receipt_with_proof(header.number, index)?;
        Some((receipt, proof.iter().collect()))
    }
}

/// The built-in engine: proofs straight off the state's memoized trie.
/// [`FullNode::handle_request`] and
/// [`FullNode::handle_batch`] use it when no runtime is attached.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialEngine;

impl ProofEngine for SequentialEngine {
    fn account_multiproof_into(
        &mut self,
        state: &State,
        addresses: &[Address],
        out: &mut ProofBuf,
    ) {
        state.account_multiproof_into(addresses, out);
    }

    fn account_proof(&mut self, state: &State, address: &Address) -> Vec<Vec<u8>> {
        state.account_proof(address)
    }
}

/// `(m_B, R(γ), π_γ)`: the served height, result payload and proof nodes.
type CallOutput = (u64, Vec<u8>, Vec<Vec<u8>>);

/// A located inclusion lookup: its containing block, result payload and
/// proof nodes with their hashes.
type InclusionOutput = (u64, Vec<u8>, ProofBuf);

/// The headers one exchange has resolved, decoded and encoded, by
/// block number. Each referenced block is resolved once — for a pruned
/// block that is one segment read and one decode — and the same record
/// supplies the root its items are proven against and the bytes a
/// batch carries on the wire.
#[derive(Default)]
struct ExchangeHeaders(BTreeMap<u64, (Header, Vec<u8>)>);

impl ExchangeHeaders {
    fn resolve(
        &mut self,
        chain: &Blockchain,
        number: u64,
    ) -> Result<&mut (Header, Vec<u8>), ServeError> {
        Ok(match self.0.entry(number) {
            Entry::Occupied(resolved) => resolved.into_mut(),
            Entry::Vacant(slot) => slot.insert(
                chain
                    .header_record(number)
                    .ok_or(ServeError::UnknownBlock(number))?,
            ),
        })
    }
}

/// How long a handshake confirmation stays valid, in seconds.
pub const HANDSHAKE_TTL_SECS: u64 = 600;

/// The signed consent a full node returns during the handshake
/// (Algorithm 1's `HSCONFIRM` message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeConfirm {
    /// The confirming full node.
    pub full_node: Address,
    /// Expiry timestamp of this confirmation.
    pub expiry: u64,
    /// `Sign(keccak256(LC || expiry), sk_FN)`.
    pub signature: Signature,
}

/// Why a full node refuses to serve a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No such channel on-chain.
    UnknownChannel(u64),
    /// The channel is not in the `Open` state.
    ChannelNotOpen(u64),
    /// The channel names a different full node.
    NotOurChannel,
    /// `σ_req` or `σ_a` does not recover to the channel's light client.
    WrongSigner,
    /// The cumulative amount regressed or pays less than the price.
    InsufficientPayment {
        /// Amount offered by this request.
        offered: U256,
        /// Minimum acceptable cumulative amount.
        required: U256,
        /// The channel's latest redeemable `(a, σ_a)`, when the node has
        /// served on it: the evidence a client whose ledger fell behind
        /// (a response served, then lost) reconciles from — see
        /// [`crate::LightClient::reconcile_payment`]. Boxed: refusals
        /// are rare and every `Result` of a serve carries the error's
        /// size.
        held: Option<Box<(U256, Signature)>>,
    },
    /// The cumulative amount exceeds the channel budget.
    BudgetExceeded,
    /// The wrapped call could not be executed.
    Execution(String),
    /// A batch request carried no calls (it would still demand payment).
    EmptyBatch,
    /// A batch request carried a call that cannot ride in a batch
    /// (writes mutate state mid-batch and must travel as single
    /// requests).
    UnbatchableCall,
    /// The request pinned `h_B` to a block hash this node does not know
    /// (a stale fork, a typo, or a forged hash). Serving it would judge
    /// the timestamp check against a fabricated height, so the node
    /// refuses instead of silently mapping it to genesis.
    UnknownBlockHash(H256),
    /// A `GetHeader` call named a block number this node does not have
    /// (beyond the head, or pruned). The old behaviour served an empty
    /// unproven payload indistinguishable from a real answer; the node
    /// now refuses outright, mirroring [`ServeError::UnknownBlockHash`].
    UnknownBlock(u64),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownChannel(id) => write!(f, "unknown channel {id}"),
            ServeError::ChannelNotOpen(id) => write!(f, "channel {id} is not open"),
            ServeError::NotOurChannel => write!(f, "channel names a different full node"),
            ServeError::WrongSigner => write!(f, "request not signed by the channel owner"),
            ServeError::InsufficientPayment {
                offered, required, ..
            } => {
                write!(f, "payment {offered} below required {required}")
            }
            ServeError::BudgetExceeded => write!(f, "cumulative amount exceeds channel budget"),
            ServeError::Execution(e) => write!(f, "execution failed: {e}"),
            ServeError::EmptyBatch => write!(f, "batch request carries no calls"),
            ServeError::UnbatchableCall => {
                write!(f, "batch request carries a call that cannot be batched")
            }
            ServeError::UnknownBlockHash(hash) => {
                write!(f, "request pinned to unknown block hash {hash}")
            }
            ServeError::UnknownBlock(number) => {
                write!(f, "no block at height {number} to serve")
            }
        }
    }
}

impl Error for ServeError {}

/// Per-channel serving state tracked by the node (the `(a, σ_a)` pairs it
/// will redeem on-chain).
#[derive(Debug, Clone)]
pub struct ServedChannel {
    /// Highest cumulative amount received.
    pub latest_amount: U256,
    /// The matching payment signature.
    pub latest_payment_sig: Signature,
    /// Requests served on this channel.
    pub calls_served: u64,
    /// The light client's key, learned from the first served envelope
    /// that recovered to the channel's registered light client; later
    /// envelopes on this channel are checked against it instead of
    /// recovered. Held only while the channel is Open.
    client_key: Option<PreparedKey>,
}

/// What step (B) checks of a request, single or batched: the signed
/// envelope, without the calls it wraps.
struct Envelope<'a> {
    channel_id: u64,
    amount: U256,
    /// `h_req` as carried, when the request's contents hash to it
    /// (otherwise `σ_req` signs nothing this node can attribute).
    request_hash: Option<H256>,
    request_sig: &'a Signature,
    payment_sig: &'a Signature,
    /// A §V-C probe keeps its allowance while the channel is Closing.
    is_liveness_probe: bool,
    /// Calls the cumulative payment must cover.
    calls: u64,
}

impl<'a> Envelope<'a> {
    fn of_single(request: &'a ParpRequest) -> Self {
        Envelope {
            channel_id: request.channel_id,
            amount: request.amount,
            request_hash: (request.expected_hash() == request.request_hash)
                .then_some(request.request_hash),
            request_sig: &request.request_sig,
            payment_sig: &request.payment_sig,
            is_liveness_probe: matches!(request.call, RpcCall::GetChannelStatus { .. }),
            calls: 1,
        }
    }

    /// A batch's envelope, once the batch is one the node serves at all
    /// (non-empty, batchable calls only).
    fn of_batch(request: &'a ParpBatchRequest) -> Result<Self, ServeError> {
        if request.is_empty() {
            return Err(ServeError::EmptyBatch);
        }
        if !request.calls.iter().all(RpcCall::batchable) {
            return Err(ServeError::UnbatchableCall);
        }
        Ok(Envelope {
            channel_id: request.channel_id,
            amount: request.amount,
            request_hash: (request.expected_hash() == request.request_hash)
                .then_some(request.request_hash),
            request_sig: &request.request_sig,
            payment_sig: &request.payment_sig,
            // A batch made purely of liveness probes keeps the §V-C
            // Closing-channel allowance of the single-call path.
            is_liveness_probe: request
                .calls
                .iter()
                .all(|call| matches!(call, RpcCall::GetChannelStatus { .. })),
            calls: request.calls.len() as u64,
        })
    }

    /// `σ_req` and `σ_a` both attributed to `client`: checked against
    /// its key when the channel has learned it, recovered and compared —
    /// both of them — on first contact, which returns the key.
    fn signed_by(&self, client: Peer<'_>) -> Result<Option<PublicKey>, NotPeer> {
        let request_hash = self.request_hash.ok_or(NotPeer)?;
        let learned = client.signed(&request_hash, self.request_sig)?;
        client.signed(
            &payment_digest(self.channel_id, &self.amount),
            self.payment_sig,
        )?;
        Ok(learned)
    }
}

/// A PARP-compatible full node service.
///
/// The node borrows the chain (it *is* a full node, so it holds the whole
/// chain locally) and its view of the on-chain modules.
#[derive(Debug, Clone)]
pub struct FullNode {
    key: KeyPair,
    price_per_call: U256,
    channels: HashMap<u64, ServedChannel>,
    misbehavior: Misbehavior,
    requests_served: u64,
    /// Reused multiproof scratch: a warm batch loop serializes every
    /// multiproof into the same two allocations.
    proof_scratch: ProofBuf,
    /// Optional per-stage timing scratch (crypto verify / proof build /
    /// response sign), drained by the simulator to emit trace
    /// sub-spans. `None` keeps the uninstrumented path at one branch.
    stages: Option<StageRecorder>,
    /// The injected clock stage durations are measured with (the
    /// simulator shares its deterministic handle; standalone nodes
    /// default to the host clock).
    clock: TimeSource,
}

impl FullNode {
    /// Creates a full node serving at `price_per_call` wei per request.
    pub fn new(secret: SecretKey, price_per_call: U256) -> Self {
        FullNode {
            key: KeyPair::from_secret(secret),
            price_per_call,
            channels: HashMap::new(),
            misbehavior: Misbehavior::None,
            requests_served: 0,
            proof_scratch: ProofBuf::new(),
            stages: None,
            clock: TimeSource::default(),
        }
    }

    /// Estimated bytes this node holds of its own (the chain it serves
    /// is the caller's): one record per channel with the client's
    /// prepared key, and the multiproof scratch at its capacity.
    pub fn mem_bytes(&self) -> usize {
        let channels: usize = self
            .channels
            .values()
            .map(|c| {
                size_of::<(u64, ServedChannel)>()
                    + c.client_key.as_ref().map_or(0, PreparedKey::mem_bytes)
            })
            .sum();
        size_of::<Self>() - size_of::<ProofBuf>() + channels + self.proof_scratch.mem_bytes()
    }

    /// Replaces the clock stage durations are measured with (see
    /// [`FullNode::set_stage_recorder`]); the deterministic simulator
    /// injects its own handle so stage traces reproduce across hosts.
    pub fn set_time_source(&mut self, clock: TimeSource) {
        self.clock = clock;
    }

    /// Attaches (or with `None`, detaches) a [`StageRecorder`] the node
    /// stamps with wall-clock microseconds per serve stage — signature
    /// verification, proof construction, response signing. The recorder
    /// is shared atomics, so the simulator drains it after each
    /// exchange without any protocol API change.
    pub fn set_stage_recorder(&mut self, stages: Option<StageRecorder>) {
        self.stages = stages;
    }

    #[inline]
    fn stage_start(&self) -> Option<TimeStamp> {
        self.stages.is_some().then(|| self.clock.start())
    }

    #[inline]
    fn stage_verify(&self, start: Option<TimeStamp>) {
        if let (Some(stages), Some(start)) = (&self.stages, start) {
            stages.add_verify_us(self.clock.elapsed_us(start));
        }
    }

    #[inline]
    fn stage_proof(&self, start: Option<TimeStamp>) {
        if let (Some(stages), Some(start)) = (&self.stages, start) {
            stages.add_proof_us(self.clock.elapsed_us(start));
        }
    }

    #[inline]
    fn stage_sign(&self, start: Option<TimeStamp>) {
        if let (Some(stages), Some(start)) = (&self.stages, start) {
            stages.add_sign_us(self.clock.elapsed_us(start));
        }
    }

    /// The node's address.
    pub fn address(&self) -> Address {
        self.key.address()
    }

    /// The node's secret key (needed to build its module transactions).
    pub fn secret(&self) -> &SecretKey {
        self.key.secret()
    }

    /// The agreed price per RPC call.
    pub fn price_per_call(&self) -> U256 {
        self.price_per_call
    }

    /// Total requests served across all channels.
    pub fn requests_served(&self) -> u64 {
        self.requests_served
    }

    /// Configures failure injection (tests, fraud benches).
    pub fn set_misbehavior(&mut self, misbehavior: Misbehavior) {
        self.misbehavior = misbehavior;
    }

    /// Confirms a handshake: signs consent for `light_client` with an
    /// expiry of `now + HANDSHAKE_TTL_SECS` (Algorithm 1).
    pub fn confirm_handshake(&self, light_client: Address, now: u64) -> HandshakeConfirm {
        let expiry = now + HANDSHAKE_TTL_SECS;
        let signature = sign(
            self.key.secret(),
            &confirmation_digest(&light_client, expiry),
        );
        HandshakeConfirm {
            full_node: self.address(),
            expiry,
            signature,
        }
    }

    /// Serves one PARP request: verifies it (step B of Fig. 5), executes
    /// the wrapped call against the chain, and signs the response (step
    /// C). Write calls mine a block, mirroring the node's relay role.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the channel, signatures or payment are
    /// not acceptable; the request is then not served (and not charged).
    pub fn handle_request(
        &mut self,
        request: &ParpRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
    ) -> Result<ParpResponse, ServeError> {
        self.handle_request_with(request, chain, executor, &mut SequentialEngine)
    }

    /// [`FullNode::handle_request`] with an explicit [`ProofEngine`]
    /// (how a serving runtime routes single calls through its snapshot
    /// cache). The response is byte-identical for every engine.
    ///
    /// # Errors
    ///
    /// As [`FullNode::handle_request`].
    pub fn handle_request_with(
        &mut self,
        request: &ParpRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
        engine: &mut dyn ProofEngine,
    ) -> Result<ParpResponse, ServeError> {
        if let RpcCall::SendRawTransaction { .. } = request.call {
            // The only mutating call: verify, mine, prove inclusion.
            let verify_start = self.stage_start();
            let learned = self.admit(&Envelope::of_single(request), executor)?;
            self.stage_verify(verify_start);
            let request_height = chain
                .block_number_by_hash(&request.block_hash)
                .ok_or(ServeError::UnknownBlockHash(request.block_hash))?;
            let output = self.execute_write(&request.call, chain, executor, engine)?;
            return Ok(self.finish_response(request, request_height, output, learned));
        }
        self.handle_read_request(request, chain, executor, engine)
    }

    /// Serves a **read-only** request against a shared chain reference —
    /// the entry point that lets a fan-out (e.g. a gateway quorum) serve
    /// several nodes' exchanges concurrently over one `&Blockchain`:
    /// nothing here mutates chain state, so legs only need disjoint
    /// `&mut FullNode`s. Byte-identical to [`FullNode::handle_request`]
    /// for every non-write call.
    ///
    /// # Errors
    ///
    /// As [`FullNode::handle_request`], plus
    /// [`ServeError::UnbatchableCall`] when handed the write call this
    /// path cannot serve.
    pub fn handle_read_request(
        &mut self,
        request: &ParpRequest,
        chain: &Blockchain,
        executor: &ParpExecutor,
        engine: &mut dyn ProofEngine,
    ) -> Result<ParpResponse, ServeError> {
        if let RpcCall::SendRawTransaction { .. } = request.call {
            return Err(ServeError::UnbatchableCall);
        }
        let verify_start = self.stage_start();
        let learned = self.admit(&Envelope::of_single(request), executor)?;
        self.stage_verify(verify_start);
        let request_height = chain
            .block_number_by_hash(&request.block_hash)
            .ok_or(ServeError::UnknownBlockHash(request.block_hash))?;
        let proof_start = self.stage_start();
        let output = self.execute_read(&request.call, chain, executor, engine)?;
        self.stage_proof(proof_start);
        Ok(self.finish_response(request, request_height, output, learned))
    }

    /// Records a served envelope's payment — the signed cumulative
    /// amount is the node's receivable — and, on first contact, keeps
    /// the client key the envelope check recovered.
    fn record_served(
        &mut self,
        channel_id: u64,
        amount: U256,
        payment_sig: Signature,
        calls: u64,
        learned: Option<PublicKey>,
    ) {
        let channel = self.channels.entry(channel_id).or_insert(ServedChannel {
            latest_amount: U256::ZERO,
            latest_payment_sig: payment_sig,
            calls_served: 0,
            client_key: None,
        });
        channel.latest_amount = amount;
        channel.latest_payment_sig = payment_sig;
        channel.calls_served += calls;
        self.requests_served += calls;
        if let Some(public) = learned {
            channel.client_key = Some(PreparedKey::new(public));
        }
    }

    /// Payment bookkeeping + response signing, shared by the write and
    /// read serving paths.
    fn finish_response(
        &mut self,
        request: &ParpRequest,
        request_height: u64,
        (block_number, result, proof): CallOutput,
        learned: Option<PublicKey>,
    ) -> ParpResponse {
        // Record the payment before responding.
        self.record_served(
            request.channel_id,
            request.amount,
            request.payment_sig,
            1,
            learned,
        );
        let sign_start = self.stage_start();
        let honest = ParpResponse::build(self.key.secret(), request, block_number, result, proof);
        self.stage_sign(sign_start);
        self.misbehavior
            .corrupt(request, honest, self.key.secret(), request_height)
    }

    /// Serves one batched PARP request: verifies the envelope **once**
    /// (one channel lookup, two signature checks — the same cost as a
    /// single call, amortized over N items), executes state reads
    /// against a single snapshot (collapsing their proofs into one
    /// deduplicated multiproof), serves historical inclusion lookups
    /// with per-item proofs bound to their containing blocks, and
    /// carries the deduplicated header set for every referenced block —
    /// the multi-header batch envelope.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] when the batch is empty, carries a write
    /// (the only unbatchable call), names an unknown block, or fails the
    /// channel/signature/payment checks; the batch is then not served
    /// (and not charged).
    pub fn handle_batch(
        &mut self,
        request: &ParpBatchRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
    ) -> Result<ParpBatchResponse, ServeError> {
        self.handle_batch_with(request, chain, executor, &mut SequentialEngine)
    }

    /// [`FullNode::handle_batch`] with an explicit [`ProofEngine`] — the
    /// hook a serving runtime uses to count its cache traffic and to
    /// serve inclusion proofs off cached per-block tries. Engines only
    /// change *where* the proof nodes are read from; the response bytes
    /// are identical to the sequential path for any engine.
    ///
    /// # Errors
    ///
    /// As [`FullNode::handle_batch`].
    pub fn handle_batch_with(
        &mut self,
        request: &ParpBatchRequest,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
        engine: &mut dyn ProofEngine,
    ) -> Result<ParpBatchResponse, ServeError> {
        let verify_start = self.stage_start();
        let learned = self.admit(&Envelope::of_batch(request)?, executor)?;
        self.stage_verify(verify_start);
        let request_height = chain
            .block_number_by_hash(&request.block_hash)
            .ok_or(ServeError::UnknownBlockHash(request.block_hash))?;
        // One snapshot serves every state-proven and unproven item;
        // inclusion lookups bind to their own containing blocks.
        let head = chain.height();
        let state = chain.state();
        let mut headers = ExchangeHeaders::default();
        let n = request.calls.len();
        let mut results = Vec::with_capacity(n);
        let mut item_blocks = Vec::with_capacity(n);
        let mut item_proofs = Vec::with_capacity(n);
        let mut state_addresses: Vec<Address> = Vec::new();
        for call in &request.calls {
            // verify_batch_request already rejected unbatchable calls.
            match Self::inclusion_lookup(call, chain, engine, &mut headers)? {
                Some(Some((block, result, proof))) => {
                    results.push(result);
                    item_blocks.push(block);
                    item_proofs.push(proof);
                }
                // Not found: an unproven empty answer bound to the
                // snapshot, as on the single-call path.
                Some(None) => {
                    results.push(Vec::new());
                    item_blocks.push(head);
                    item_proofs.push(ProofBuf::new());
                }
                // A snapshot-provable read.
                None => {
                    results.push(Self::read_result(call, head, state, chain, executor)?);
                    item_blocks.push(head);
                    item_proofs.push(ProofBuf::new());
                    if let Some(address) = call.state_address() {
                        state_addresses.push(*address);
                    }
                }
            }
        }
        // One trie build, one deduplicated proof for all state items —
        // serialized zero-copy into the node's reused scratch buffer
        // and materialized as the wire shape exactly once.
        let mut scratch = std::mem::take(&mut self.proof_scratch);
        let proof_start = self.stage_start();
        engine.account_multiproof_into(state, &state_addresses, &mut scratch);
        let multiproof = scratch.to_vecs();
        self.stage_proof(proof_start);
        self.proof_scratch = scratch;
        // The deduplicated header set: one per distinct referenced
        // block (the snapshot plus every inclusion item's block),
        // ordered by the same function the judge zips headers against.
        let referenced = parp_contracts::referenced_blocks(head, &item_blocks);
        let mut carried: Vec<Vec<u8>> = Vec::with_capacity(referenced.len());
        for number in &referenced {
            // Warm blocks come off the resident window, pruned blocks
            // off the history segments — byte-identical either way —
            // and a block an item was proven against is not read again:
            // its bytes move out of the resolved set onto the wire.
            carried.push(std::mem::take(&mut headers.resolve(chain, *number)?.1));
        }
        self.record_served(
            request.channel_id,
            request.amount,
            request.payment_sig,
            request.calls.len() as u64,
            learned,
        );
        // `h_res` binds proof nodes by hash: every one of them is in a
        // buffer beside the hash its trie walk recorded.
        let hashes = ProofHashes::served(&self.proof_scratch, &item_proofs);
        let output = parp_contracts::BatchOutput {
            block_number: head,
            results,
            multiproof,
            item_blocks,
            item_proofs: item_proofs.iter().map(ProofBuf::to_vecs).collect(),
            headers: carried,
        };
        let sign_start = self.stage_start();
        let honest = ParpBatchResponse::build_hashed(self.key.secret(), request, output, &hashes);
        self.stage_sign(sign_start);
        Ok(self
            .misbehavior
            .corrupt_batch(request, honest, self.key.secret(), request_height))
    }

    /// Step (B) for a batch: the same envelope checks as
    /// [`FullNode::verify_request`], run once for all N items, plus the
    /// batch-specific structural checks. Payment must cover
    /// `price_per_call × N` on top of the channel's running total.
    pub fn verify_batch_request(
        &self,
        request: &ParpBatchRequest,
        executor: &ParpExecutor,
    ) -> Result<(), ServeError> {
        self.verify_envelope(&Envelope::of_batch(request)?, executor)
            .map(drop)
    }

    /// Step (B): request verification — channel lookup, then `σ_req` and
    /// `σ_a` attributed to the channel's light client: recovered on the
    /// channel's first envelope, checked against the learned key after.
    /// (`&self`: a key recovered here is not kept; serving keeps it.)
    pub fn verify_request(
        &self,
        request: &ParpRequest,
        executor: &ParpExecutor,
    ) -> Result<(), ServeError> {
        self.verify_envelope(&Envelope::of_single(request), executor)
            .map(drop)
    }

    /// Step (B) on the serving path: [`FullNode::verify_envelope`], after
    /// dropping the client key of a channel the CMM no longer reports
    /// Open — the key is serving state of an open channel, and this is
    /// where the node sees the channel stop being one.
    fn admit(
        &mut self,
        envelope: &Envelope<'_>,
        executor: &ParpExecutor,
    ) -> Result<Option<PublicKey>, ServeError> {
        let status = executor
            .cmm()
            .channel(envelope.channel_id)
            .map(|c| c.status);
        if status != Some(ChannelStatus::Open) {
            if let Some(served) = self.channels.get_mut(&envelope.channel_id) {
                served.client_key = None;
            }
        }
        self.verify_envelope(envelope, executor)
    }

    /// The envelope checks shared by single and batched requests: channel
    /// lookup and status, signer attribution, budget, and cumulative
    /// payment covering `price_per_call × calls`. Returns the client's
    /// key when this envelope was first contact on an Open channel.
    ///
    /// The two signature checks run back to back on the calling thread:
    /// each is 30–50 µs, and handing one to a scoped worker costs more
    /// than that on the hosts this runs on (see the module docs of
    /// `parp_crypto`'s `parallel.rs`).
    fn verify_envelope(
        &self,
        envelope: &Envelope<'_>,
        executor: &ParpExecutor,
    ) -> Result<Option<PublicKey>, ServeError> {
        let channel_id = envelope.channel_id;
        let channel = executor
            .cmm()
            .channel(channel_id)
            .ok_or(ServeError::UnknownChannel(channel_id))?;
        // Liveness probes (§V-C) exist to detect a channel being closed
        // behind the client's back, so they are served while the channel
        // is Closing; everything else requires Open.
        let open = channel.status == ChannelStatus::Open;
        match channel.status {
            ChannelStatus::Open => {}
            ChannelStatus::Closing { .. } if envelope.is_liveness_probe => {}
            _ => return Err(ServeError::ChannelNotOpen(channel_id)),
        }
        if channel.full_node != self.address() {
            return Err(ServeError::NotOurChannel);
        }
        // The client's key belongs to the Open channel: a probe on a
        // Closing one recovers, and names no key to keep.
        let learned = envelope
            .signed_by(Peer {
                address: channel.light_client,
                key: self.client_key(channel_id).filter(|_| open),
            })
            .map_err(|NotPeer| ServeError::WrongSigner)?
            .filter(|_| open);
        if envelope.amount > channel.budget {
            return Err(ServeError::BudgetExceeded);
        }
        let served = self.channels.get(&channel_id);
        let prev = served.map_or(U256::ZERO, |c| c.latest_amount);
        let required = prev.saturating_add(self.price_per_call * U256::from(envelope.calls));
        if envelope.amount < required {
            return Err(ServeError::InsufficientPayment {
                offered: envelope.amount,
                required,
                held: served.map(|c| Box::new((c.latest_amount, c.latest_payment_sig))),
            });
        }
        Ok(learned)
    }

    /// The result payload of a snapshot-provable read, shared between
    /// [`FullNode::execute_call`] and [`FullNode::handle_batch`] so the
    /// single-call and batched encodings cannot drift (the fraud checks
    /// require them to stay byte-identical).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownBlock`] for a `GetHeader` naming a
    /// block this node does not have — an empty payload would be
    /// indistinguishable from a real (unproven) answer, and
    /// [`ServeError::Execution`] for a call that is not snapshot-provable
    /// (the callers route those elsewhere or reject them up front).
    fn read_result(
        call: &RpcCall,
        head: u64,
        state: &parp_chain::State,
        chain: &Blockchain,
        executor: &ParpExecutor,
    ) -> Result<Vec<u8>, ServeError> {
        match call {
            // Balance and nonce reads both answer with the full RLP
            // account record the state proof binds; the client reads the
            // field it asked for out of it.
            RpcCall::GetBalance { address } | RpcCall::GetTransactionCount { address } => Ok(state
                .account(address)
                .map(parp_chain::Account::encode)
                .unwrap_or_default()),
            RpcCall::BlockNumber => Ok(parp_rlp::encode_u64(head)),
            RpcCall::GetHeader { number } => chain
                .header_encoded(*number)
                .ok_or(ServeError::UnknownBlock(*number)),
            RpcCall::GetChannelStatus { channel_id } => Ok(vec![executor
                .cmm()
                .channel(*channel_id)
                .map(|c| c.status.as_byte())
                .unwrap_or(0xff)]),
            RpcCall::SendRawTransaction { .. }
            | RpcCall::GetTransactionByHash { .. }
            | RpcCall::GetTransactionReceipt { .. } => Err(ServeError::Execution(format!(
                "not a snapshot-provable read: {call:?}"
            ))),
        }
    }

    /// Serves a historical inclusion lookup, shared between the single
    /// and batched paths so their result/proof encodings cannot drift.
    ///
    /// Returns `None` for calls that are not inclusion lookups,
    /// `Some(None)` when the queried transaction is unknown (absence by
    /// hash is not provable in an index-keyed trie — the caller serves
    /// an unproven empty answer), and `Some(Some((block, result,
    /// proof)))` for a located item bound to its containing block,
    /// whose header is resolved through `headers`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownBlock`] when the containing block's
    /// header cannot be resolved: there is then no root to prove the
    /// item against.
    fn inclusion_lookup(
        call: &RpcCall,
        chain: &Blockchain,
        engine: &mut dyn ProofEngine,
        headers: &mut ExchangeHeaders,
    ) -> Result<Option<Option<InclusionOutput>>, ServeError> {
        let (hash, wants_receipt) = match call {
            RpcCall::GetTransactionByHash { hash } => (hash, false),
            RpcCall::GetTransactionReceipt { hash } => (hash, true),
            _ => return Ok(None),
        };
        let Some((block, index)) = chain.transaction_location(hash) else {
            return Ok(Some(None));
        };
        let (header, _) = headers.resolve(chain, block)?;
        let position = parp_rlp::encode_u64(index as u64);
        if !wants_receipt {
            let proof = engine.transaction_proof(chain, header, index);
            return Ok(Some(Some((block, position, proof))));
        }
        // Located receipts normally exist; a pruned block whose archived
        // record cannot be read degrades to the unproven not-found
        // answer instead of a panic.
        Ok(Some(engine.receipt_proof(chain, header, index).map(
            |(receipt, proof)| {
                let result = parp_rlp::encode_list(&[position, parp_rlp::encode_bytes(&receipt)]);
                (block, result, proof)
            },
        )))
    }

    /// Serves [`RpcCall::SendRawTransaction`]: mine the transaction,
    /// prove its inclusion.
    fn execute_write(
        &self,
        call: &RpcCall,
        chain: &mut Blockchain,
        executor: &mut ParpExecutor,
        engine: &mut dyn ProofEngine,
    ) -> Result<CallOutput, ServeError> {
        let RpcCall::SendRawTransaction { raw } = call else {
            return Err(ServeError::Execution(
                "only SendRawTransaction is served as a write".to_string(),
            ));
        };
        let tx = parp_chain::SignedTransaction::decode(raw)
            .map_err(|e| ServeError::Execution(format!("bad transaction: {e}")))?;
        let hash = tx.hash();
        chain
            .produce_block(vec![tx], executor)
            .map_err(|e| ServeError::Execution(format!("inclusion failed: {e}")))?;
        let (block, index) = chain.transaction_location(&hash).ok_or_else(|| {
            ServeError::Execution("the mined transaction is not indexed".to_string())
        })?;
        let header = &chain
            .block(block)
            .ok_or(ServeError::UnknownBlock(block))?
            .header;
        let proof = engine.transaction_proof(chain, header, index).to_vecs();
        Ok((block, parp_rlp::encode_u64(index as u64), proof))
    }

    /// Serves every non-mutating call against a shared chain reference.
    fn execute_read(
        &self,
        call: &RpcCall,
        chain: &Blockchain,
        executor: &ParpExecutor,
        engine: &mut dyn ProofEngine,
    ) -> Result<CallOutput, ServeError> {
        match call {
            RpcCall::GetBalance { address } | RpcCall::GetTransactionCount { address } => {
                let head = chain.height();
                let state = chain.state();
                let result = Self::read_result(call, head, state, chain, executor)?;
                let proof = engine.account_proof(state, address);
                Ok((head, result, proof))
            }
            RpcCall::SendRawTransaction { .. } => Err(ServeError::Execution(
                "writes route through execute_write".to_string(),
            )),
            RpcCall::GetTransactionByHash { .. } | RpcCall::GetTransactionReceipt { .. } => {
                let mut headers = ExchangeHeaders::default();
                // Absence of a transaction by hash is not provable in
                // the transaction trie; serve an empty result at the
                // head (the client treats it as unverified data).
                Ok(Self::inclusion_lookup(call, chain, engine, &mut headers)?
                    .flatten()
                    .map(|(block, result, proof)| (block, result, proof.to_vecs()))
                    .unwrap_or_else(|| (chain.height(), Vec::new(), Vec::new())))
            }
            RpcCall::BlockNumber | RpcCall::GetHeader { .. } | RpcCall::GetChannelStatus { .. } => {
                let head = chain.height();
                let state = chain.state();
                let result = Self::read_result(call, head, state, chain, executor)?;
                Ok((head, result, Vec::new()))
            }
        }
    }

    /// The light client's key as learned on `channel_id` — `None` until
    /// the channel's first envelope has been served, and again once the
    /// node has seen the channel Closing or Closed.
    pub fn client_key(&self, channel_id: u64) -> Option<&PreparedKey> {
        self.channels.get(&channel_id)?.client_key.as_ref()
    }

    /// The serving state for a channel, if any requests arrived.
    pub fn served_channel(&self, channel_id: u64) -> Option<&ServedChannel> {
        self.channels.get(&channel_id)
    }

    /// All channels the node has served, with their receivables.
    pub fn served_channels(&self) -> impl Iterator<Item = (&u64, &ServedChannel)> {
        self.channels.iter()
    }

    /// Builds the `closeChannel` module call redeeming the node's latest
    /// signed payment state for a channel.
    pub fn close_channel_call(&self, channel_id: u64) -> Option<ModuleCall> {
        let served = self.channels.get(&channel_id)?;
        Some(ModuleCall::CloseChannel {
            channel_id,
            amount: served.latest_amount,
            payment_sig: served.latest_payment_sig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parp_contracts::{build_module_call, min_deposit};
    use parp_crypto::recover_address;

    fn setup() -> (Blockchain, ParpExecutor, FullNode, SecretKey, u64) {
        let node_key = SecretKey::from_seed(b"server-node");
        let client_key = SecretKey::from_seed(b"server-client");
        let funds = U256::from(10u64) * min_deposit();
        let mut chain = Blockchain::new(vec![
            (node_key.address(), funds),
            (client_key.address(), funds),
        ]);
        let mut executor = ParpExecutor::new();
        chain
            .produce_block(
                vec![build_module_call(
                    &node_key,
                    0,
                    ModuleCall::Deposit,
                    min_deposit(),
                )],
                &mut executor,
            )
            .unwrap();
        chain
            .produce_block(
                vec![build_module_call(
                    &node_key,
                    1,
                    ModuleCall::SetServing { serving: true },
                    U256::ZERO,
                )],
                &mut executor,
            )
            .unwrap();
        let node = FullNode::new(node_key, U256::from(10u64));
        // Open a channel for the client.
        let expiry = chain.head().header.timestamp + 600;
        let confirm = node.confirm_handshake(client_key.address(), chain.head().header.timestamp);
        assert_eq!(confirm.expiry, expiry);
        let open = build_module_call(
            &client_key,
            0,
            ModuleCall::OpenChannel {
                full_node: node.address(),
                expiry: confirm.expiry,
                confirmation_sig: confirm.signature,
            },
            U256::from(1_000_000u64),
        );
        chain.produce_block(vec![open], &mut executor).unwrap();
        assert_eq!(chain.receipts(chain.height()).unwrap()[0].status, 1);
        (chain, executor, node, client_key, 0)
    }

    fn request(
        client: &SecretKey,
        chain: &Blockchain,
        channel: u64,
        amount: u64,
        call: RpcCall,
    ) -> ParpRequest {
        ParpRequest::build(
            client,
            channel,
            chain.head().hash(),
            U256::from(amount),
            call,
        )
    }

    #[test]
    fn handshake_confirmation_verifies() {
        let node = FullNode::new(SecretKey::from_seed(b"hs"), U256::ONE);
        let lc = Address::from_low_u64_be(0x1c);
        let confirm = node.confirm_handshake(lc, 1000);
        assert_eq!(confirm.expiry, 1000 + HANDSHAKE_TTL_SECS);
        let digest = confirmation_digest(&lc, confirm.expiry);
        assert_eq!(
            recover_address(&digest, &confirm.signature).unwrap(),
            node.address()
        );
    }

    #[test]
    fn serves_balance_request_with_proof() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        let req = request(
            &client,
            &chain,
            channel,
            10,
            RpcCall::GetBalance {
                address: client.address(),
            },
        );
        let res = node
            .handle_request(&req, &mut chain, &mut executor)
            .unwrap();
        assert_eq!(res.channel_id, channel);
        assert!(!res.proof.is_empty());
        // The proof verifies against the served header's state root.
        let header = &chain.block(res.block_number).unwrap().header;
        let key = parp_crypto::keccak256(client.address().as_bytes());
        let proven = parp_trie::verify_proof(header.state_root, key.as_bytes(), &res.proof)
            .unwrap()
            .unwrap();
        assert_eq!(proven, res.result);
        assert_eq!(node.requests_served(), 1);
    }

    #[test]
    fn serves_write_request_by_mining() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        let transfer = parp_chain::Transaction {
            nonce: 1, // nonce 0 opened the channel
            gas_price: U256::ZERO,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64_be(0xaa)),
            value: U256::from(5u64),
            data: Vec::new(),
        }
        .sign(&client);
        let height_before = chain.height();
        let req = request(
            &client,
            &chain,
            channel,
            10,
            RpcCall::SendRawTransaction {
                raw: transfer.encode(),
            },
        );
        let res = node
            .handle_request(&req, &mut chain, &mut executor)
            .unwrap();
        assert_eq!(chain.height(), height_before + 1);
        assert_eq!(res.block_number, height_before + 1);
        // Proof binds the raw tx into the transactions root.
        let header = &chain.block(res.block_number).unwrap().header;
        let index = parp_rlp::decode(&res.result).unwrap().as_u64().unwrap();
        let proven = parp_trie::verify_proof(
            header.transactions_root,
            &parp_rlp::encode_u64(index),
            &res.proof,
        )
        .unwrap()
        .unwrap();
        assert_eq!(proven, transfer.encode());
    }

    #[test]
    fn rejects_underpayment_and_regression() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        // Price is 10; offering 5 fails.
        let cheap = request(&client, &chain, channel, 5, RpcCall::BlockNumber);
        assert!(matches!(
            node.handle_request(&cheap, &mut chain, &mut executor),
            Err(ServeError::InsufficientPayment { .. })
        ));
        // Pay 10, then try to reuse 10 (cumulative must grow).
        let first = request(&client, &chain, channel, 10, RpcCall::BlockNumber);
        node.handle_request(&first, &mut chain, &mut executor)
            .unwrap();
        let replay = request(&client, &chain, channel, 10, RpcCall::BlockNumber);
        assert!(matches!(
            node.handle_request(&replay, &mut chain, &mut executor),
            Err(ServeError::InsufficientPayment { .. })
        ));
    }

    #[test]
    fn rejects_overbudget() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        let req = request(&client, &chain, channel, 2_000_000, RpcCall::BlockNumber);
        assert_eq!(
            node.handle_request(&req, &mut chain, &mut executor),
            Err(ServeError::BudgetExceeded)
        );
    }

    #[test]
    fn rejects_unknown_channel_and_wrong_signer() {
        let (mut chain, mut executor, mut node, client, _) = setup();
        let ghost = request(&client, &chain, 42, 10, RpcCall::BlockNumber);
        assert_eq!(
            node.handle_request(&ghost, &mut chain, &mut executor),
            Err(ServeError::UnknownChannel(42))
        );
        let stranger = SecretKey::from_seed(b"stranger");
        let forged = ParpRequest::build(
            &stranger,
            0,
            chain.head().hash(),
            U256::from(10u64),
            RpcCall::BlockNumber,
        );
        assert_eq!(
            node.handle_request(&forged, &mut chain, &mut executor),
            Err(ServeError::WrongSigner)
        );
    }

    #[test]
    fn tracks_latest_payment_for_redemption() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        for amount in [10u64, 20, 30] {
            let req = request(&client, &chain, channel, amount, RpcCall::BlockNumber);
            node.handle_request(&req, &mut chain, &mut executor)
                .unwrap();
        }
        let served = node.served_channel(channel).unwrap();
        assert_eq!(served.latest_amount, U256::from(30u64));
        assert_eq!(served.calls_served, 3);
        let close = node.close_channel_call(channel).unwrap();
        assert!(matches!(
            close,
            ModuleCall::CloseChannel { channel_id: 0, amount, .. } if amount == U256::from(30u64)
        ));
    }

    #[test]
    fn channel_status_probe() {
        let (mut chain, mut executor, mut node, client, channel) = setup();
        let req = request(
            &client,
            &chain,
            channel,
            10,
            RpcCall::GetChannelStatus {
                channel_id: channel,
            },
        );
        let res = node
            .handle_request(&req, &mut chain, &mut executor)
            .unwrap();
        assert_eq!(res.result, vec![ChannelStatus::Open.as_byte()]);
    }
}
