//! The PARP light client: header store, handshake and channel state
//! machine (Fig. 4, Algorithm 1), request construction, response
//! verification, and fraud-evidence collection.

use crate::peer::Peer;
use crate::server::HandshakeConfirm;
use crate::verify::{
    classify_batch_paired, classify_paired, BatchClassification, Classification, InvalidReason,
};
use parp_chain::{Header, SignedTransaction, Transaction};
use parp_contracts::{
    ChannelStatus, FraudVerdict, ModuleCall, ParpBatchRequest, ParpBatchResponse, ParpRequest,
    ParpResponse, RpcCall, MODULE_CALL_GAS_LIMIT,
};
use parp_crypto::{recover_address, sign, KeyPair, PreparedKey, PublicKey, SecretKey};
use parp_primitives::{Address, H256, U256};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::error::Error;
use std::fmt;
use std::mem::size_of;

/// The light client's protocol state (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientState {
    /// No connection.
    #[default]
    Idle,
    /// `HANDSHAKE` sent, waiting for `HSCONFIRM`.
    Handshaking,
    /// `OpenChannel` sent, waiting for the receipt.
    Unbonded,
    /// Channel open; requests flowing.
    Bonded,
    /// `CloseChannel` sent, waiting for settlement.
    Unbonding,
}

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The operation requires a different protocol state.
    WrongState {
        /// State the operation requires.
        expected: ClientState,
        /// State the client is in.
        actual: ClientState,
    },
    /// No synced headers yet — cannot pick `h_B`.
    NoHeaders,
    /// The handshake confirmation failed validation.
    BadConfirmation(String),
    /// The channel budget cannot cover another call.
    BudgetExhausted,
    /// No pending request matches this response.
    UnknownResponse,
    /// A batch must carry at least one call.
    EmptyBatch,
    /// A call cannot ride in a batch (see [`RpcCall::batchable`]).
    UnbatchableCall,
    /// The client has no session with this provider.
    UnknownProvider(Address),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::WrongState { expected, actual } => {
                write!(
                    f,
                    "operation requires {expected:?} state, client is {actual:?}"
                )
            }
            ClientError::NoHeaders => write!(f, "no synced block headers"),
            ClientError::BadConfirmation(e) => write!(f, "handshake confirmation rejected: {e}"),
            ClientError::BudgetExhausted => write!(f, "channel budget exhausted"),
            ClientError::UnknownResponse => write!(f, "response matches no pending request"),
            ClientError::EmptyBatch => write!(f, "batch must carry at least one call"),
            ClientError::UnbatchableCall => {
                write!(f, "call cannot be served from a single state snapshot")
            }
            ClientError::UnknownProvider(p) => {
                write!(f, "no session with provider {p}")
            }
        }
    }
}

impl Error for ClientError {}

/// The client's view of its payment channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientChannel {
    /// Channel identifier α.
    pub id: u64,
    /// The serving full node.
    pub full_node: Address,
    /// Budget locked on-chain.
    pub budget: U256,
    /// Cumulative amount committed so far (the local `a`).
    pub spent: U256,
}

/// Everything needed to prove fraud on-chain: the request, the signed
/// response, and the header the proof is judged against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FraudEvidence {
    /// The offending request.
    pub request: ParpRequest,
    /// The fraudulent response.
    pub response: ParpResponse,
    /// Header of block `res.m_B`.
    pub header: Header,
    /// What the client's checks concluded.
    pub verdict: FraudVerdict,
}

impl FraudEvidence {
    /// Builds the `submitFraudProof` module call, to be relayed through a
    /// witness full node (§IV-F).
    pub fn to_module_call(&self, witness: Address) -> ModuleCall {
        ModuleCall::SubmitFraudProof {
            request: self.request.encode(),
            response: self.response.encode(),
            witness,
            header: self.header.encode(),
        }
    }
}

/// Everything the client holds when a batched response is provably
/// wrong: the signed exchange, the header it was judged against, and
/// which item (if any single one) carried the fraud.
///
/// The node's one batch signature commits it to every item, so evidence
/// against a single item condemns the whole signed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFraudEvidence {
    /// The offending batch request.
    pub request: ParpBatchRequest,
    /// The fraudulent batch response.
    pub response: ParpBatchResponse,
    /// The trusted headers of every block the response binds proofs to
    /// (the snapshot block `res.m_B` plus each inclusion item's
    /// containing block), ascending by height — the header set the
    /// on-chain module re-validates against the `BLOCKHASH` window.
    pub headers: Vec<Header>,
    /// What the client's checks concluded.
    pub verdict: FraudVerdict,
    /// Index of the first fraudulent item, or `None` when a batch-level
    /// condition (payment echo, stale snapshot, unverifiable multiproof)
    /// condemns the response as a whole.
    pub item: Option<usize>,
}

impl BatchFraudEvidence {
    /// Builds the `submitBatchFraudProof` module call, to be relayed
    /// through a witness full node (§IV-F), exactly as
    /// [`FraudEvidence::to_module_call`] does for single exchanges.
    pub fn to_module_call(&self, witness: Address) -> ModuleCall {
        ModuleCall::SubmitBatchFraudProof {
            request: self.request.encode(),
            response: self.response.encode(),
            witness,
            headers: self.headers.iter().map(Header::encode).collect(),
        }
    }
}

/// Outcome of processing a batched response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessBatchOutcome {
    /// Every item verified; payloads returned in call order with a
    /// per-item "was Merkle-proven" flag.
    Valid {
        /// The verified `R(γᵢ)` payloads.
        results: Vec<Vec<u8>>,
        /// Whether item `i` was backed by the state multiproof.
        proven: Vec<bool>,
    },
    /// The envelope cannot be trusted (no per-item judgement possible);
    /// the client should terminate the connection.
    Invalid(InvalidReason),
    /// At least one item is provably wrong: per-item classifications plus
    /// evidence for the on-chain fraud proof.
    Fraud {
        /// The §V-D verdict for every item, in call order.
        items: Vec<Classification>,
        /// Evidence supporting a fraud proof.
        evidence: Box<BatchFraudEvidence>,
    },
}

/// Outcome of processing a response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// Response accepted; payload returned.
    Valid {
        /// The verified `R(γ)` payload.
        result: Vec<u8>,
        /// The verified Merkle proof, if the call had one.
        proven: bool,
    },
    /// Response rejected without slashing grounds; the client should
    /// terminate the connection.
    Invalid(InvalidReason),
    /// Provable fraud; the evidence supports an on-chain proof.
    Fraud(Box<FraudEvidence>),
}

/// A signed request of either wire shape.
#[derive(Debug, Clone)]
enum Envelope {
    Single(ParpRequest),
    Batch(ParpBatchRequest),
}

/// One in-flight request: what was signed, and the height of the block
/// its `h_B` names.
#[derive(Debug, Clone)]
struct Pending {
    envelope: Envelope,
    request_height: u64,
}

/// One provider's connection state: the Fig. 4 state machine, the
/// payment channel, and the in-flight requests bound to that channel.
///
/// A multi-provider client (the gateway's orchestration layer) runs one
/// of these per full node it talks to; the single-channel API of the
/// paper operates on the *active* session.
#[derive(Debug, Clone, Default)]
struct ProviderSession {
    state: ClientState,
    channel: Option<ClientChannel>,
    /// Every in-flight request on this channel, single or batched, by
    /// request hash.
    pending: HashMap<H256, Pending>,
    /// The provider's key, learned from the first response whose
    /// signature recovered to the channel's full node; later responses
    /// are checked against it instead of recovered. Dropped with the
    /// session.
    provider_key: Option<PreparedKey>,
}

/// A PARP light client.
///
/// Holds only block headers (never full blocks), one payment channel
/// **per provider** it is connected to, and the key pair that
/// pseudonymously identifies it. The original single-channel API
/// (`request`, `channel`, `state`, …) operates on the *active*
/// provider — the one most recently handshaken — so single-provider
/// code keeps working unchanged, while a gateway can hold several
/// bonded channels at once and route per provider with
/// [`LightClient::request_from`] / [`LightClient::request_batch_from`].
#[derive(Debug, Clone)]
pub struct LightClient {
    key: KeyPair,
    price_per_call: U256,
    headers: BTreeMap<u64, Header>,
    hash_index: HashMap<H256, u64>,
    /// `(number, hash)` of the highest synced header — the `h_B` every
    /// request pins, hashed once when [`LightClient::sync_header`]
    /// advances the tip rather than once per request.
    tip_id: Option<(u64, H256)>,
    sessions: HashMap<Address, ProviderSession>,
    /// The provider the single-channel API routes to.
    active: Option<Address>,
    /// Per-provider agreed prices (a marketplace advertises different
    /// rates); providers absent here pay the default `price_per_call`.
    prices: HashMap<Address, U256>,
    valid_responses: u64,
}

impl LightClient {
    /// Creates a client paying `price_per_call` wei per request.
    pub fn new(secret: SecretKey, price_per_call: U256) -> Self {
        LightClient {
            key: KeyPair::from_secret(secret),
            price_per_call,
            headers: BTreeMap::new(),
            hash_index: HashMap::new(),
            tip_id: None,
            sessions: HashMap::new(),
            active: None,
            prices: HashMap::new(),
            valid_responses: 0,
        }
    }

    /// Estimated bytes this client holds: every synced header (the term
    /// that grows with the chain), the header index, and per provider a
    /// session with its prepared key. In-flight requests are charged their
    /// record, not the calls they carry.
    pub fn mem_bytes(&self) -> usize {
        let headers: usize = self
            .headers
            .values()
            .map(|h| size_of::<(u64, Header)>() + h.extra_data.capacity())
            .sum();
        let sessions: usize = self
            .sessions
            .values()
            .map(|s| {
                size_of::<(Address, ProviderSession)>()
                    + s.pending.capacity() * size_of::<(H256, Pending)>()
                    + s.provider_key.as_ref().map_or(0, PreparedKey::mem_bytes)
            })
            .sum();
        size_of::<Self>()
            + headers
            + self.hash_index.capacity() * size_of::<(H256, u64)>()
            + sessions
            + self.prices.capacity() * size_of::<(Address, U256)>()
    }

    /// Records the price agreed with one provider (e.g. its advertised
    /// registry rate). Subsequent requests on that provider's channel
    /// pay this instead of the client's default `price_per_call`.
    pub fn set_price_for(&mut self, provider: Address, price: U256) {
        self.prices.insert(provider, price);
    }

    /// The per-call price paid on `provider`'s channel.
    pub fn price_for(&self, provider: &Address) -> U256 {
        self.prices
            .get(provider)
            .copied()
            .unwrap_or(self.price_per_call)
    }

    /// The client's (pseudonymous) address.
    pub fn address(&self) -> Address {
        self.key.address()
    }

    /// The client's secret key (for signing its on-chain transactions).
    pub fn secret(&self) -> &SecretKey {
        self.key.secret()
    }

    /// Current protocol state **with the active provider** (Idle when no
    /// provider is active).
    pub fn state(&self) -> ClientState {
        self.active_session()
            .map(|s| s.state)
            .unwrap_or(ClientState::Idle)
    }

    /// The active provider's channel view, if connected.
    pub fn channel(&self) -> Option<&ClientChannel> {
        self.active_session().and_then(|s| s.channel.as_ref())
    }

    /// The provider the single-channel API currently routes to.
    pub fn active_provider(&self) -> Option<Address> {
        self.active
    }

    /// Routes the single-channel API to `provider`.
    ///
    /// # Errors
    ///
    /// Fails when the client has no session with `provider`.
    pub fn set_active_provider(&mut self, provider: Address) -> Result<(), ClientError> {
        if !self.sessions.contains_key(&provider) {
            return Err(ClientError::UnknownProvider(provider));
        }
        self.active = Some(provider);
        Ok(())
    }

    /// Protocol state of the session with `provider` (Idle when none).
    pub fn state_with(&self, provider: &Address) -> ClientState {
        self.sessions
            .get(provider)
            .map(|s| s.state)
            .unwrap_or(ClientState::Idle)
    }

    /// The channel with `provider`, if one is open.
    pub fn channel_with(&self, provider: &Address) -> Option<&ClientChannel> {
        self.sessions.get(provider).and_then(|s| s.channel.as_ref())
    }

    /// `provider`'s key, once a response on its session has recovered to
    /// the channel's full node (`None` until then, and again after the
    /// session is dropped: the next response recovers).
    pub fn provider_key(&self, provider: &Address) -> Option<&PreparedKey> {
        self.sessions.get(provider)?.provider_key.as_ref()
    }

    /// Every provider the client is currently **bonded** to, in
    /// unspecified order.
    pub fn bonded_providers(&self) -> Vec<Address> {
        self.sessions
            .iter()
            .filter(|(_, s)| s.state == ClientState::Bonded)
            .map(|(a, _)| *a)
            .collect()
    }

    fn active_session(&self) -> Option<&ProviderSession> {
        self.active.and_then(|a| self.sessions.get(&a))
    }

    /// Number of responses accepted as valid.
    pub fn valid_responses(&self) -> u64 {
        self.valid_responses
    }

    /// Ingests a block header from any source (headers are
    /// self-authenticating through their hashes; PARP assumes header
    /// availability, §IV-D).
    ///
    /// Returns `false` when the header conflicts with an already-stored
    /// header at the same height (which the client refuses to overwrite).
    pub fn sync_header(&mut self, header: Header) -> bool {
        if let Some(existing) = self.headers.get(&header.number) {
            return existing.hash() == header.hash();
        }
        let hash = header.hash();
        if self.tip_id.is_none_or(|(tip, _)| header.number > tip) {
            self.tip_id = Some((header.number, hash));
        }
        self.hash_index.insert(hash, header.number);
        self.headers.insert(header.number, header);
        true
    }

    /// Ingests many headers.
    pub fn sync_headers<I: IntoIterator<Item = Header>>(&mut self, headers: I) {
        for header in headers {
            self.sync_header(header);
        }
    }

    /// The latest synced header (the client's chain tip).
    pub fn tip(&self) -> Option<&Header> {
        self.headers.values().next_back()
    }

    /// Header lookup by height.
    pub fn header(&self, number: u64) -> Option<&Header> {
        self.headers.get(&number)
    }

    /// Number of headers held — the client's whole storage footprint.
    pub fn headers_len(&self) -> usize {
        self.headers.len()
    }

    /// Starts a handshake with a full node (Algorithm 1, `HANDSHAKE`)
    /// and makes it the active provider.
    ///
    /// The session **with that provider** must be Idle; channels with
    /// other providers are untouched, so a multi-provider client can
    /// hold several bonded channels at once.
    ///
    /// # Errors
    ///
    /// Fails when the session with `full_node` is not
    /// [`ClientState::Idle`] or no headers are synced.
    pub fn start_handshake(&mut self, full_node: Address) -> Result<Address, ClientError> {
        let state = self.state_with(&full_node);
        if state != ClientState::Idle {
            return Err(ClientError::WrongState {
                expected: ClientState::Idle,
                actual: state,
            });
        }
        if self.headers.is_empty() {
            return Err(ClientError::NoHeaders);
        }
        let session = self.sessions.entry(full_node).or_default();
        session.state = ClientState::Handshaking;
        self.active = Some(full_node);
        Ok(self.address())
    }

    /// Validates an `HSCONFIRM` and produces the signed `OpenChannel`
    /// transaction (Algorithm 1 lines 10-16).
    ///
    /// # Errors
    ///
    /// Fails on state mismatch, an expired or mis-signed confirmation.
    pub fn accept_confirmation(
        &mut self,
        confirm: &HandshakeConfirm,
        budget: U256,
        nonce: u64,
    ) -> Result<SignedTransaction, ClientError> {
        let active = self.require_active(ClientState::Handshaking)?;
        let now = self.tip().map(|h| h.timestamp).unwrap_or(0);
        if confirm.expiry < now {
            self.reset_session(active);
            return Err(ClientError::BadConfirmation("confirmation expired".into()));
        }
        let digest = parp_contracts::confirmation_digest(&self.address(), confirm.expiry);
        match recover_address(&digest, &confirm.signature) {
            Ok(addr) if addr == confirm.full_node => {}
            _ => {
                self.reset_session(active);
                return Err(ClientError::BadConfirmation(
                    "signature does not recover to the full node".into(),
                ));
            }
        }
        let call = ModuleCall::OpenChannel {
            full_node: confirm.full_node,
            expiry: confirm.expiry,
            confirmation_sig: confirm.signature,
        };
        let tx = Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: MODULE_CALL_GAS_LIMIT,
            to: Some(call.target()),
            value: budget,
            data: call.encode(),
        }
        .sign(self.key.secret());
        // The channel binds to the *confirming* node; re-key the session
        // if the handshake was started under a different address — but
        // never on top of a live session with the confirming node (that
        // would zero its committed spend and orphan its pending set).
        if active != confirm.full_node {
            if self.state_with(&confirm.full_node) != ClientState::Idle {
                self.reset_session(active);
                return Err(ClientError::BadConfirmation(
                    "confirming node already has an open session".into(),
                ));
            }
            self.sessions.remove(&active);
        }
        let session = self.sessions.entry(confirm.full_node).or_default();
        session.channel = Some(ClientChannel {
            id: u64::MAX, // assigned on receipt
            full_node: confirm.full_node,
            budget,
            spent: U256::ZERO,
        });
        session.state = ClientState::Unbonded;
        self.active = Some(confirm.full_node);
        Ok(tx)
    }

    /// Drops a failed session so the provider can be re-handshaken.
    fn reset_session(&mut self, provider: Address) {
        self.sessions.remove(&provider);
        if self.active == Some(provider) {
            self.active = None;
        }
    }

    /// Records the `OpenChannel` receipt: the channel id is known and the
    /// client becomes *Bonded* (Algorithm 1 lines 17-21).
    ///
    /// # Errors
    ///
    /// Fails when not [`ClientState::Unbonded`].
    pub fn channel_opened(&mut self, channel_id: u64) -> Result<(), ClientError> {
        let active = self.require_active(ClientState::Unbonded)?;
        let session = self.sessions.get_mut(&active).expect("active exists");
        if let Some(channel) = &mut session.channel {
            channel.id = channel_id;
        }
        session.state = ClientState::Bonded;
        Ok(())
    }

    /// Builds the next signed request for `call`, bumping the cumulative
    /// payment by the agreed price (§IV-E step 3).
    ///
    /// # Errors
    ///
    /// Fails when not bonded, headers are missing, or the budget cannot
    /// cover the next payment.
    pub fn request(&mut self, call: RpcCall) -> Result<ParpRequest, ClientError> {
        let active = self.require_active(ClientState::Bonded)?;
        self.request_from(active, call)
    }

    /// Builds the next signed request **on the channel with `provider`**
    /// — the per-provider entry point a multi-channel gateway routes
    /// through. Identical to [`LightClient::request`] when `provider`
    /// is the active one.
    ///
    /// # Errors
    ///
    /// Same conditions as [`LightClient::request`], judged against the
    /// session with `provider`.
    pub fn request_from(
        &mut self,
        provider: Address,
        call: RpcCall,
    ) -> Result<ParpRequest, ClientError> {
        let (channel_id, tip, amount) = self.next_payment(provider, Ok(1))?;
        let request = ParpRequest::build(self.key.secret(), channel_id, tip.1, amount, call);
        let envelope = Envelope::Single(request.clone());
        self.hold_pending(provider, request.request_hash, envelope, tip.0);
        Ok(request)
    }

    /// Builds the next signed **batch** request: one signature and one
    /// cumulative payment covering all of `calls`, bumping the committed
    /// amount by `price_per_call × N`.
    ///
    /// # Errors
    ///
    /// Fails when not bonded, headers are missing, the batch is empty or
    /// carries an unbatchable call (see [`RpcCall::batchable`]), or the
    /// budget cannot cover the batch.
    pub fn request_batch(&mut self, calls: Vec<RpcCall>) -> Result<ParpBatchRequest, ClientError> {
        let active = self.require_active(ClientState::Bonded)?;
        self.request_batch_from(active, calls)
    }

    /// Builds the next signed batch request **on the channel with
    /// `provider`** — the per-provider analogue of
    /// [`LightClient::request_batch`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`LightClient::request_batch`], judged against
    /// the session with `provider`.
    pub fn request_batch_from(
        &mut self,
        provider: Address,
        calls: Vec<RpcCall>,
    ) -> Result<ParpBatchRequest, ClientError> {
        let shape = if calls.is_empty() {
            Err(ClientError::EmptyBatch)
        } else if !calls.iter().all(RpcCall::batchable) {
            Err(ClientError::UnbatchableCall)
        } else {
            Ok(calls.len() as u64)
        };
        let (channel_id, tip, amount) = self.next_payment(provider, shape)?;
        let request = ParpBatchRequest::build(self.key.secret(), channel_id, tip.1, amount, calls);
        let envelope = Envelope::Batch(request.clone());
        self.hold_pending(provider, request.request_hash, envelope, tip.0);
        Ok(request)
    }

    /// What the next request on `provider`'s channel commits to: the
    /// channel id, the `(number, hash)` of the `h_B` it pins, and the
    /// cumulative amount after paying for `calls` more calls. `calls`
    /// arrives as the caller's own verdict on the request's shape, so
    /// that a malformed batch is refused after the session-state check
    /// and before everything else.
    fn next_payment(
        &self,
        provider: Address,
        calls: Result<u64, ClientError>,
    ) -> Result<(u64, (u64, H256), U256), ClientError> {
        let state = self.state_with(&provider);
        if state != ClientState::Bonded {
            return Err(ClientError::WrongState {
                expected: ClientState::Bonded,
                actual: state,
            });
        }
        let calls = calls?;
        let tip = self.tip_id.ok_or(ClientError::NoHeaders)?;
        let channel = self
            .channel_with(&provider)
            .ok_or(ClientError::UnknownProvider(provider))?;
        let price = self.price_for(&provider) * U256::from(calls);
        let amount = channel.spent.saturating_add(price);
        if amount > channel.budget {
            return Err(ClientError::BudgetExhausted);
        }
        Ok((channel.id, tip, amount))
    }

    /// Files a just-signed request as in flight on `provider`'s channel.
    fn hold_pending(&mut self, provider: Address, hash: H256, envelope: Envelope, height: u64) {
        if let Some(session) = self.sessions.get_mut(&provider) {
            let pending = Pending {
                envelope,
                request_height: height,
            };
            session.pending.insert(hash, pending);
        }
    }

    /// Verifies a batched response against its pending request and
    /// updates the channel ledger: the batch analogue of
    /// [`LightClient::process_response`], with per-item classification.
    ///
    /// One fraudulent item is enough to return
    /// [`ProcessBatchOutcome::Fraud`] — the node signed the whole
    /// response, so the evidence condemns it regardless of how many other
    /// items were served honestly.
    ///
    /// # Errors
    ///
    /// Fails when no pending batch matches the response.
    pub fn process_batch_response(
        &mut self,
        response: &ParpBatchResponse,
    ) -> Result<ProcessBatchOutcome, ClientError> {
        self.process_batch_response_scoped(response, None)
    }

    /// [`LightClient::process_batch_response`] for a response that
    /// arrived over `provider`'s connection: the corrupted-echo pairing
    /// fallback is confined to that provider's in-flight batches, so a
    /// response can never be (mis)attributed to another provider's
    /// channel.
    ///
    /// # Errors
    ///
    /// Fails when no pending batch matches the response.
    pub fn process_batch_response_from(
        &mut self,
        provider: Address,
        response: &ParpBatchResponse,
    ) -> Result<ProcessBatchOutcome, ClientError> {
        self.process_batch_response_scoped(response, Some(provider))
    }

    fn process_batch_response_scoped(
        &mut self,
        response: &ParpBatchResponse,
        scope: Option<Address>,
    ) -> Result<ProcessBatchOutcome, ClientError> {
        let is_batch = |envelope: &Envelope| matches!(envelope, Envelope::Batch(_));
        let (provider, pending) = self.take_pending(&response.request_hash, scope, is_batch)?;
        let Envelope::Batch(request) = pending.envelope else {
            return Err(ClientError::UnknownResponse);
        };
        let (classification, learned) = classify_batch_paired(
            &request,
            response,
            self.provider_peer(&provider)?,
            pending.request_height,
            |n| self.headers.get(&n).cloned(),
        );
        self.keep_provider_key(provider, learned);
        // The node holds σ_a either way: count the payment committed
        // (defensively on invalid/fraudulent outcomes, as with singles).
        self.commit_payment(provider, request.amount);
        let first_fraud = classification.first_fraud();
        let all_valid = classification.all_valid();
        let (fraud, items) = match classification {
            BatchClassification::Invalid(reason) => {
                return Ok(ProcessBatchOutcome::Invalid(reason));
            }
            BatchClassification::BatchFraud { verdict } => {
                let items = vec![Classification::Fraudulent(verdict); request.calls.len()];
                (Some((verdict, None)), items)
            }
            BatchClassification::Items(items) => {
                let fraud = first_fraud.map(|(index, verdict)| (verdict, Some(index)));
                (fraud, items)
            }
        };
        if let Some((verdict, item)) = fraud {
            let evidence = BatchFraudEvidence {
                headers: self.evidence_headers(response),
                request,
                response: response.clone(),
                verdict,
                item,
            };
            return Ok(ProcessBatchOutcome::Fraud {
                evidence: Box::new(evidence),
                items,
            });
        }
        // Items carry only Valid/Fraudulent verdicts; with no fraud
        // found, the batch is fully valid.
        debug_assert!(all_valid, "non-fraud items must all be valid");
        self.valid_responses += items.len() as u64;
        let proven = request
            .calls
            .iter()
            .zip(response.item_proofs.iter())
            .map(|(call, item_proof)| match call.proof_kind() {
                parp_contracts::ProofKind::State => true,
                // Inclusion items are proven unless the node
                // answered "not found" (empty, unproven).
                parp_contracts::ProofKind::Transaction | parp_contracts::ProofKind::Receipt => {
                    !item_proof.is_empty()
                }
                parp_contracts::ProofKind::None => false,
            })
            .collect();
        Ok(ProcessBatchOutcome::Valid {
            results: response.results.clone(),
            proven,
        })
    }

    /// Drops a pending entry of either wire shape for `provider` without
    /// processing any response — the simulator's hook for a request or
    /// response lost in transit (drop, crash, timeout). The channel's
    /// `spent` is untouched: it only advances when a response is
    /// processed, so a retried call re-presents the same cumulative
    /// amount and the provider is never paid for the lost exchange.
    pub fn forget_pending(&mut self, provider: Address, hash: &H256) {
        if let Some(session) = self.sessions.get_mut(&provider) {
            session.pending.remove(hash);
        }
    }

    /// [`Self::forget_pending`] under its batch-side name: one pending
    /// store holds both shapes, so the two are the same operation.
    pub fn forget_pending_batch(&mut self, provider: Address, hash: &H256) {
        self.forget_pending(provider, hash);
    }

    /// Number of requests in flight on `provider`'s channel, single and
    /// batched together.
    pub fn pending_with(&self, provider: &Address) -> usize {
        self.sessions.get(provider).map_or(0, |s| s.pending.len())
    }

    /// Removes the pending request of the asked wire shape (`of_kind`)
    /// matching `hash` from whichever session holds it (the hash pairing
    /// is provider-agnostic: hashes are unforgeable). When the echoed
    /// hash matches nothing — a corrupted echo — falls back to
    /// transport-level pairing, but **only within one session**: the
    /// `scope` provider's when given (the connection the response
    /// arrived over), else the sole session when the client has exactly
    /// one (the original single-channel behaviour), and only when that
    /// session has exactly one request of that shape in flight. The
    /// fallback never crosses sessions — a garbage response from one
    /// provider must not consume, and condemn, another provider's
    /// in-flight request — and never crosses shapes: a batch response
    /// cannot consume a single request's entry, nor the reverse.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownResponse`] when nothing pairs.
    fn take_pending(
        &mut self,
        hash: &H256,
        scope: Option<Address>,
        of_kind: fn(&Envelope) -> bool,
    ) -> Result<(Address, Pending), ClientError> {
        for (provider, session) in self.sessions.iter_mut() {
            if let Entry::Occupied(entry) = session.pending.entry(*hash) {
                if of_kind(&entry.get().envelope) {
                    return Ok((*provider, entry.remove()));
                }
            }
        }
        let unknown = ClientError::UnknownResponse;
        let (provider, session) = self.fallback_session(scope).ok_or(unknown.clone())?;
        let mut in_flight = session
            .pending
            .iter()
            .filter(|(_, p)| of_kind(&p.envelope))
            .map(|(hash, _)| *hash);
        let (Some(sole), None) = (in_flight.next(), in_flight.next()) else {
            return Err(unknown);
        };
        let pending = session.pending.remove(&sole);
        pending.map(|p| (provider, p)).ok_or(unknown)
    }

    /// The one session corrupted-echo pairing may fall back to: the
    /// scoped provider's, or the client's sole session when unscoped.
    fn fallback_session(
        &mut self,
        scope: Option<Address>,
    ) -> Option<(Address, &mut ProviderSession)> {
        match scope {
            Some(provider) => self
                .sessions
                .get_mut(&provider)
                .map(|session| (provider, session)),
            None if self.sessions.len() == 1 => self
                .sessions
                .iter_mut()
                .next()
                .map(|(provider, session)| (*provider, session)),
            None => None,
        }
    }

    /// The serving end of the channel with `provider`: the full node the
    /// channel registered, and its key once a response has named it.
    fn provider_peer(&self, provider: &Address) -> Result<Peer<'_>, ClientError> {
        let session = self.sessions.get(provider);
        let channel = session.and_then(|s| s.channel.as_ref());
        match (session, channel) {
            (Some(session), Some(channel)) => Ok(Peer {
                address: channel.full_node,
                key: session.provider_key.as_ref(),
            }),
            _ => Err(ClientError::UnknownProvider(*provider)),
        }
    }

    /// Keeps the key a first-contact classification recovered with the
    /// session it arrived on.
    fn keep_provider_key(&mut self, provider: Address, learned: Option<PublicKey>) {
        if let (Some(public), Some(session)) = (learned, self.sessions.get_mut(&provider)) {
            session.provider_key = Some(PreparedKey::new(public));
        }
    }

    /// Advances a session's committed spend to `amount` (never
    /// backwards: the channel ledger is monotone).
    fn commit_payment(&mut self, provider: Address, amount: U256) {
        if let Some(channel) = self
            .sessions
            .get_mut(&provider)
            .and_then(|s| s.channel.as_mut())
        {
            channel.spent = channel.spent.max(amount);
        }
    }

    /// The trusted headers of every block `response` binds proofs to,
    /// ascending — the set a batch fraud proof submits on-chain.
    ///
    /// # Panics
    ///
    /// Panics when a referenced header is missing from the store; the
    /// classification that produced the fraud verdict already read every
    /// one of them.
    fn evidence_headers(&self, response: &ParpBatchResponse) -> Vec<Header> {
        response
            .referenced_blocks()
            .into_iter()
            .map(|number| {
                self.headers
                    .get(&number)
                    .cloned()
                    .expect("classification used this header")
            })
            .collect()
    }

    /// A liveness probe for the client's own channel (§V-C).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LightClient::request`].
    pub fn liveness_probe(&mut self) -> Result<ParpRequest, ClientError> {
        let channel_id = self
            .channel()
            .map(|c| c.id)
            .ok_or(ClientError::WrongState {
                expected: ClientState::Bonded,
                actual: self.state(),
            })?;
        self.request(RpcCall::GetChannelStatus { channel_id })
    }

    /// Verifies a response against its pending request ((D) in Fig. 5) and
    /// updates the channel ledger.
    ///
    /// On a *valid* response the committed amount advances. On an
    /// *invalid* one the pending payment is rolled back (it was never
    /// acknowledged) and the caller should fail over to another node. On
    /// *fraud* the returned evidence supports an on-chain proof.
    ///
    /// # Errors
    ///
    /// Fails when no pending request matches the response.
    pub fn process_response(
        &mut self,
        response: &ParpResponse,
    ) -> Result<ProcessOutcome, ClientError> {
        self.process_response_scoped(response, None)
    }

    /// [`LightClient::process_response`] for a response that arrived
    /// over `provider`'s connection: the corrupted-echo pairing
    /// fallback is confined to that provider's in-flight requests, so a
    /// response can never be (mis)attributed to another provider's
    /// channel.
    ///
    /// # Errors
    ///
    /// Fails when no pending request matches the response.
    pub fn process_response_from(
        &mut self,
        provider: Address,
        response: &ParpResponse,
    ) -> Result<ProcessOutcome, ClientError> {
        self.process_response_scoped(response, Some(provider))
    }

    /// Verifies many responses that arrived concurrently, one per
    /// provider — the gateway's quorum fan-in. Pairing and ledger
    /// updates stay sequential (they mutate the session map), but the
    /// §V-D classifications — a signature check plus a Merkle proof
    /// check each — are **independent pure functions** of the paired
    /// exchanges, the session keys and the header store, so they fan
    /// out across scoped worker threads ([`parp_crypto::par_map`]).
    /// Outcomes come back in leg order.
    pub fn process_responses_from(
        &mut self,
        legs: &[(Address, ParpResponse)],
    ) -> Vec<Result<ProcessOutcome, ClientError>> {
        // Phase 1 (sequential, &mut self): pair each response with its
        // pending request, scoped to the connection it arrived over.
        let paired: Vec<_> = legs
            .iter()
            .map(|(provider, response)| self.take_single(&response.request_hash, Some(*provider)))
            .collect();
        // Phase 2 (parallel, &self): classify every paired exchange.
        let work: Vec<_> = paired.iter().zip(legs).collect();
        let classified = parp_crypto::par_map(&work, |(paired, (_, response))| {
            let (provider, request, height) = paired.as_ref().map_err(ClientError::clone)?;
            let peer = self.provider_peer(provider)?;
            let header_for = |n| self.headers.get(&n).cloned();
            let classified = classify_paired(request, response, peer, *height, header_for);
            Ok::<_, ClientError>(classified)
        });
        // Phase 3 (sequential, &mut self): apply ledger updates and
        // build outcomes in leg order.
        paired
            .into_iter()
            .zip(classified)
            .zip(legs)
            .map(|((paired, classified), (_, response))| {
                let (provider, request, _) = paired?;
                let (classification, learned) = classified?;
                self.keep_provider_key(provider, learned);
                Ok(self.apply_classification(provider, request, response, classification))
            })
            .collect()
    }

    /// Applies a §V-D classification to the channel ledger and shapes
    /// the outcome — shared by the single-response path and the parallel
    /// quorum fan-in.
    fn apply_classification(
        &mut self,
        provider: Address,
        request: ParpRequest,
        response: &ParpResponse,
        classification: Classification,
    ) -> ProcessOutcome {
        // The node holds σ_a whatever the verdict: on an invalid or
        // fraudulent response it cannot redeem the payment without
        // returning a verifiable one, but the client still counts it
        // spent defensively (and terminates per §V-D).
        self.commit_payment(provider, request.amount);
        match classification {
            Classification::Valid => {
                self.valid_responses += 1;
                ProcessOutcome::Valid {
                    result: response.result.clone(),
                    proven: !response.proof.is_empty(),
                }
            }
            Classification::Invalid(reason) => ProcessOutcome::Invalid(reason),
            Classification::Fraudulent(verdict) => {
                let header = self
                    .headers
                    .get(&response.block_number)
                    .cloned()
                    .expect("classification used this header");
                ProcessOutcome::Fraud(Box::new(FraudEvidence {
                    request,
                    response: response.clone(),
                    header,
                    verdict,
                }))
            }
        }
    }

    /// Pairs a single response's echoed hash with its pending request;
    /// when the echo is corrupted but exactly one single request is in
    /// flight on the response's connection, transport-level pairing
    /// still identifies it (and the §V-D hash check will flag the
    /// response). Returns the session's provider, the request, and the
    /// height of the block its `h_B` names.
    fn take_single(
        &mut self,
        hash: &H256,
        scope: Option<Address>,
    ) -> Result<(Address, ParpRequest, u64), ClientError> {
        let is_single = |envelope: &Envelope| matches!(envelope, Envelope::Single(_));
        let (provider, pending) = self.take_pending(hash, scope, is_single)?;
        let Envelope::Single(request) = pending.envelope else {
            return Err(ClientError::UnknownResponse);
        };
        Ok((provider, request, pending.request_height))
    }

    fn process_response_scoped(
        &mut self,
        response: &ParpResponse,
        scope: Option<Address>,
    ) -> Result<ProcessOutcome, ClientError> {
        let (provider, request, height) = self.take_single(&response.request_hash, scope)?;
        let peer = self.provider_peer(&provider)?;
        let header_for = |n| self.headers.get(&n).cloned();
        let (classification, learned) =
            classify_paired(&request, response, peer, height, header_for);
        self.keep_provider_key(provider, learned);
        Ok(self.apply_classification(provider, request, response, classification))
    }

    /// Interprets a liveness-probe result: `true` when the channel is
    /// still open according to the node.
    pub fn channel_reported_open(result: &[u8]) -> bool {
        result == [ChannelStatus::Open.as_byte()]
    }

    /// Builds the `closeChannel` call with the client's final state and
    /// transitions to *Unbonding* (§IV-E step 4).
    ///
    /// # Errors
    ///
    /// Fails when not bonded.
    pub fn close_channel_call(&mut self) -> Result<ModuleCall, ClientError> {
        let active = self.require_active(ClientState::Bonded)?;
        let session = self.sessions.get_mut(&active).expect("active exists");
        let channel = session.channel.as_ref().expect("bonded implies channel");
        let (channel_id, amount) = (channel.id, channel.spent);
        let payment_sig = sign(
            self.key.secret(),
            &parp_contracts::payment_digest(channel_id, &amount),
        );
        session.state = ClientState::Unbonding;
        Ok(ModuleCall::CloseChannel {
            channel_id,
            amount,
            payment_sig,
        })
    }

    /// Builds the `confirmClosure` call for the active channel.
    ///
    /// # Errors
    ///
    /// Fails when the client has no channel.
    pub fn confirm_closure_call(&self) -> Result<ModuleCall, ClientError> {
        let channel = self.channel().ok_or(ClientError::WrongState {
            expected: ClientState::Unbonding,
            actual: self.state(),
        })?;
        Ok(ModuleCall::ConfirmClosure {
            channel_id: channel.id,
        })
    }

    /// Records final settlement of the active channel: that session is
    /// dropped and the provider can be re-handshaken.
    pub fn channel_closed(&mut self) {
        if let Some(active) = self.active {
            self.reset_session(active);
        }
    }

    /// Abandons the active connection (fail-over after an invalid
    /// response or detected fraud): that session returns to *Idle* and
    /// the client can immediately handshake with another node, since
    /// PARP needs no sign-up (§IV-A "enhanced availability"). Channels
    /// with other providers are untouched.
    pub fn abandon_connection(&mut self) {
        if let Some(active) = self.active {
            self.reset_session(active);
        }
    }

    /// Abandons the session with one specific provider (the gateway's
    /// per-provider fail-over), leaving every other channel open.
    pub fn abandon_provider(&mut self, provider: Address) {
        self.reset_session(provider);
    }

    /// The active provider, checked to be in `expected` state.
    fn require_active(&self, expected: ClientState) -> Result<Address, ClientError> {
        let actual = self.state();
        if actual != expected {
            return Err(ClientError::WrongState { expected, actual });
        }
        Ok(self.active.expect("non-Idle state implies active"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::FullNode;
    use parp_primitives::H256;

    fn header_at(number: u64) -> Header {
        Header {
            parent_hash: H256::from_low_u64_be(number.wrapping_sub(1)),
            ommers_hash: parp_crypto::keccak256(&[0xc0]),
            beneficiary: Address::ZERO,
            state_root: parp_trie::empty_root(),
            transactions_root: parp_trie::empty_root(),
            receipts_root: parp_trie::empty_root(),
            difficulty: U256::ZERO,
            number,
            gas_limit: 30_000_000,
            gas_used: 0,
            timestamp: 1_700_000_000 + number * 12,
            extra_data: Vec::new(),
        }
    }

    fn bonded_client() -> (LightClient, FullNode) {
        let node = FullNode::new(SecretKey::from_seed(b"lc-test-node"), U256::from(10u64));
        let mut client = LightClient::new(SecretKey::from_seed(b"lc-test"), U256::from(10u64));
        client.sync_headers((0..5).map(header_at));
        client.start_handshake(node.address()).unwrap();
        let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(&confirm, U256::from(1_000u64), 0)
            .unwrap();
        client.channel_opened(7).unwrap();
        (client, node)
    }

    #[test]
    fn state_machine_follows_fig4() {
        let node = FullNode::new(SecretKey::from_seed(b"sm-node"), U256::ONE);
        let mut client = LightClient::new(SecretKey::from_seed(b"sm"), U256::ONE);
        assert_eq!(client.state(), ClientState::Idle);
        // No headers: cannot handshake.
        assert_eq!(
            client.start_handshake(node.address()),
            Err(ClientError::NoHeaders)
        );
        client.sync_header(header_at(0));
        client.start_handshake(node.address()).unwrap();
        assert_eq!(client.state(), ClientState::Handshaking);
        let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(&confirm, U256::from(100u64), 0)
            .unwrap();
        assert_eq!(client.state(), ClientState::Unbonded);
        client.channel_opened(0).unwrap();
        assert_eq!(client.state(), ClientState::Bonded);
        client.close_channel_call().unwrap();
        assert_eq!(client.state(), ClientState::Unbonding);
        client.channel_closed();
        assert_eq!(client.state(), ClientState::Idle);
        assert!(client.channel().is_none());
    }

    #[test]
    fn rejects_forged_confirmation() {
        let mut client = LightClient::new(SecretKey::from_seed(b"forge"), U256::ONE);
        client.sync_header(header_at(0));
        let node = FullNode::new(SecretKey::from_seed(b"honest"), U256::ONE);
        client.start_handshake(node.address()).unwrap();
        let mut confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        confirm.full_node = Address::from_low_u64_be(0xbad); // not the signer
        assert!(matches!(
            client.accept_confirmation(&confirm, U256::from(100u64), 0),
            Err(ClientError::BadConfirmation(_))
        ));
        // Failed confirmation resets to Idle for a retry.
        assert_eq!(client.state(), ClientState::Idle);
    }

    #[test]
    fn rejects_expired_confirmation() {
        let mut client = LightClient::new(SecretKey::from_seed(b"expired"), U256::ONE);
        client.sync_header(header_at(1000)); // tip timestamp far in the future
        let node = FullNode::new(SecretKey::from_seed(b"slow"), U256::ONE);
        client.start_handshake(node.address()).unwrap();
        let confirm = node.confirm_handshake(client.address(), 0); // expiry = TTL only
        assert!(matches!(
            client.accept_confirmation(&confirm, U256::from(100u64), 0),
            Err(ClientError::BadConfirmation(_))
        ));
    }

    #[test]
    fn requests_accumulate_payments() {
        let (mut client, _) = bonded_client();
        let r1 = client.request(RpcCall::BlockNumber).unwrap();
        assert_eq!(r1.amount, U256::from(10u64));
        // Until a response is accepted, `spent` stays; a second request
        // re-offers the same cumulative amount (r1 was never acknowledged).
        let r2 = client.request(RpcCall::BlockNumber).unwrap();
        assert_eq!(r2.amount, U256::from(10u64));
        assert_eq!(r1.channel_id, 7);
    }

    #[test]
    fn budget_exhaustion() {
        let node = FullNode::new(SecretKey::from_seed(b"be-node"), U256::from(60u64));
        let mut client = LightClient::new(SecretKey::from_seed(b"be"), U256::from(60u64));
        client.sync_header(header_at(0));
        client.start_handshake(node.address()).unwrap();
        let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(&confirm, U256::from(100u64), 0)
            .unwrap();
        client.channel_opened(0).unwrap();
        let r = client.request(RpcCall::BlockNumber).unwrap();
        // Simulate acceptance to advance spent.
        client.commit_payment(node.address(), r.amount);
        assert_eq!(
            client.request(RpcCall::BlockNumber),
            Err(ClientError::BudgetExhausted)
        );
    }

    #[test]
    fn header_conflicts_rejected() {
        let mut client = LightClient::new(SecretKey::from_seed(b"hdr"), U256::ONE);
        assert!(client.sync_header(header_at(3)));
        assert!(client.sync_header(header_at(3))); // same header is fine
        let mut conflicting = header_at(3);
        conflicting.gas_used = 999;
        assert!(!client.sync_header(conflicting));
        assert_eq!(client.headers_len(), 1);
        assert_eq!(client.tip().unwrap().number, 3);
    }

    #[test]
    fn unknown_response_rejected() {
        let (mut client, node) = bonded_client();
        let foreign_req = ParpRequest::build(
            &SecretKey::from_seed(b"other"),
            7,
            header_at(4).hash(),
            U256::from(10u64),
            RpcCall::BlockNumber,
        );
        let response = ParpResponse::build(
            node.secret(),
            &foreign_req,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        assert_eq!(
            client.process_response(&response),
            Err(ClientError::UnknownResponse)
        );
    }

    #[test]
    fn valid_response_advances_ledger() {
        let (mut client, node) = bonded_client();
        let request = client.request(RpcCall::BlockNumber).unwrap();
        let response = ParpResponse::build(
            node.secret(),
            &request,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        let outcome = client.process_response(&response).unwrap();
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
        assert_eq!(client.channel().unwrap().spent, U256::from(10u64));
        assert_eq!(client.valid_responses(), 1);
        // The next request pays more.
        let next = client.request(RpcCall::BlockNumber).unwrap();
        assert_eq!(next.amount, U256::from(20u64));
    }

    #[test]
    fn fraudulent_response_yields_evidence() {
        let (mut client, node) = bonded_client();
        let request = client.request(RpcCall::BlockNumber).unwrap();
        let mut response = ParpResponse::build(
            node.secret(),
            &request,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        response.amount = U256::ZERO; // amount mismatch
        let digest = response.expected_hash();
        response.response_sig = parp_crypto::sign(node.secret(), &digest);
        let outcome = client.process_response(&response).unwrap();
        let ProcessOutcome::Fraud(evidence) = outcome else {
            panic!("expected fraud, got {outcome:?}");
        };
        assert_eq!(evidence.verdict, FraudVerdict::AmountMismatch);
        assert_eq!(evidence.header.number, 4);
        // Evidence converts into a module call for the witness.
        let call = evidence.to_module_call(Address::from_low_u64_be(0x33));
        assert!(matches!(call, ModuleCall::SubmitFraudProof { .. }));
    }

    #[test]
    fn liveness_probe_and_interpretation() {
        let (mut client, node) = bonded_client();
        let probe = client.liveness_probe().unwrap();
        assert!(matches!(
            probe.call,
            RpcCall::GetChannelStatus { channel_id: 7 }
        ));
        let response = ParpResponse::build(
            node.secret(),
            &probe,
            4,
            vec![ChannelStatus::Open.as_byte()],
            Vec::new(),
        );
        let outcome = client.process_response(&response).unwrap();
        let ProcessOutcome::Valid { result, .. } = outcome else {
            panic!("probe should be valid");
        };
        assert!(LightClient::channel_reported_open(&result));
        assert!(!LightClient::channel_reported_open(&[
            ChannelStatus::Closed.as_byte()
        ]));
    }

    #[test]
    fn concurrent_channels_to_two_providers() {
        let node_a = FullNode::new(SecretKey::from_seed(b"multi-a"), U256::from(10u64));
        let node_b = FullNode::new(SecretKey::from_seed(b"multi-b"), U256::from(10u64));
        let mut client = LightClient::new(SecretKey::from_seed(b"multi-client"), U256::from(10u64));
        client.sync_headers((0..5).map(header_at));
        for (node, id) in [(&node_a, 1u64), (&node_b, 2u64)] {
            client.start_handshake(node.address()).unwrap();
            let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
            client
                .accept_confirmation(&confirm, U256::from(1_000u64), 0)
                .unwrap();
            client.channel_opened(id).unwrap();
        }
        // Both sessions bonded, each with its own channel.
        assert_eq!(client.state_with(&node_a.address()), ClientState::Bonded);
        assert_eq!(client.state_with(&node_b.address()), ClientState::Bonded);
        assert_eq!(client.channel_with(&node_a.address()).unwrap().id, 1);
        assert_eq!(client.channel_with(&node_b.address()).unwrap().id, 2);
        assert_eq!(client.bonded_providers().len(), 2);
        // Per-provider requests pay on their own channels and pair back
        // to them even when responses interleave.
        let req_a = client
            .request_from(node_a.address(), RpcCall::BlockNumber)
            .unwrap();
        let req_b = client
            .request_from(node_b.address(), RpcCall::BlockNumber)
            .unwrap();
        assert_eq!(req_a.channel_id, 1);
        assert_eq!(req_b.channel_id, 2);
        let res_b = ParpResponse::build(
            node_b.secret(),
            &req_b,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        let res_a = ParpResponse::build(
            node_a.secret(),
            &req_a,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        assert!(matches!(
            client.process_response(&res_b).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
        assert!(matches!(
            client.process_response(&res_a).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
        assert_eq!(
            client.channel_with(&node_a.address()).unwrap().spent,
            U256::from(10u64)
        );
        assert_eq!(
            client.channel_with(&node_b.address()).unwrap().spent,
            U256::from(10u64)
        );
        // Abandoning one provider leaves the other bonded.
        client.abandon_provider(node_a.address());
        assert_eq!(client.state_with(&node_a.address()), ClientState::Idle);
        assert_eq!(client.state_with(&node_b.address()), ClientState::Bonded);
    }

    #[test]
    fn corrupted_echo_pairing_never_crosses_sessions() {
        let node_a = FullNode::new(SecretKey::from_seed(b"scope-a"), U256::from(10u64));
        let node_b = FullNode::new(SecretKey::from_seed(b"scope-b"), U256::from(10u64));
        let mut client = LightClient::new(SecretKey::from_seed(b"scope-client"), U256::from(10u64));
        client.sync_headers((0..5).map(header_at));
        for (node, id) in [(&node_a, 1u64), (&node_b, 2u64)] {
            client.start_handshake(node.address()).unwrap();
            let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
            client
                .accept_confirmation(&confirm, U256::from(1_000u64), 0)
                .unwrap();
            client.channel_opened(id).unwrap();
        }
        // Exactly one request in flight, on A's channel.
        let req_a = client
            .request_from(node_a.address(), RpcCall::BlockNumber)
            .unwrap();
        // A response with a corrupted (unmatchable) echo arrives.
        let mut garbage = ParpResponse::build(
            node_b.secret(),
            &req_a,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        garbage.request_hash = parp_crypto::keccak256(b"corrupted echo");
        // Unscoped (two sessions): no fallback, the response is rejected
        // rather than misattributed to A's channel.
        assert_eq!(
            client.process_response(&garbage),
            Err(ClientError::UnknownResponse)
        );
        // Scoped to B's connection: B has nothing in flight — rejected.
        assert_eq!(
            client.process_response_from(node_b.address(), &garbage),
            Err(ClientError::UnknownResponse)
        );
        // A's pending request is still alive and pairs with the honest
        // response when it arrives.
        let honest = ParpResponse::build(
            node_a.secret(),
            &req_a,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        assert!(matches!(
            client
                .process_response_from(node_a.address(), &honest)
                .unwrap(),
            ProcessOutcome::Valid { .. }
        ));
    }

    #[test]
    fn confirmation_cannot_clobber_a_bonded_session() {
        let node_a = FullNode::new(SecretKey::from_seed(b"clobber-a"), U256::from(10u64));
        let node_b = FullNode::new(SecretKey::from_seed(b"clobber-b"), U256::from(10u64));
        let mut client =
            LightClient::new(SecretKey::from_seed(b"clobber-client"), U256::from(10u64));
        client.sync_headers((0..5).map(header_at));
        // Bond to B and advance its committed spend.
        client.start_handshake(node_b.address()).unwrap();
        let confirm_b = node_b.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(&confirm_b, U256::from(1_000u64), 0)
            .unwrap();
        client.channel_opened(2).unwrap();
        let req = client
            .request_from(node_b.address(), RpcCall::BlockNumber)
            .unwrap();
        let res = ParpResponse::build(
            node_b.secret(),
            &req,
            4,
            parp_rlp::encode_u64(4),
            Vec::new(),
        );
        client.process_response(&res).unwrap();
        let spent_before = client.channel_with(&node_b.address()).unwrap().spent;
        assert!(spent_before > U256::ZERO);
        // Handshake with A, but a (colluding/replayed) confirmation from
        // B arrives: accepting it must not reset B's live channel.
        client.start_handshake(node_a.address()).unwrap();
        let replayed = node_b.confirm_handshake(client.address(), 1_700_000_000);
        assert!(matches!(
            client.accept_confirmation(&replayed, U256::from(1_000u64), 1),
            Err(ClientError::BadConfirmation(_))
        ));
        assert_eq!(client.state_with(&node_b.address()), ClientState::Bonded);
        assert_eq!(
            client.channel_with(&node_b.address()).unwrap().spent,
            spent_before,
            "B's committed spend survives"
        );
    }

    #[test]
    fn abandon_allows_new_handshake() {
        let (mut client, _) = bonded_client();
        client.abandon_connection();
        assert_eq!(client.state(), ClientState::Idle);
        let other = FullNode::new(SecretKey::from_seed(b"failover"), U256::from(10u64));
        client.start_handshake(other.address()).unwrap();
        assert_eq!(client.state(), ClientState::Handshaking);
    }
}
