//! The PARP light client: header store, handshake and channel state
//! machine (Fig. 4, Algorithm 1), request construction, response
//! verification, and fraud-evidence collection.

use crate::peer::Peer;
use crate::server::HandshakeConfirm;
use crate::verify::{
    classify_batch_paired, classify_paired, BatchClassification, Classification, InvalidReason,
    Judged,
};
use parp_chain::{Header, SignedTransaction, Transaction};
use parp_contracts::{
    ChannelStatus, FraudVerdict, ModuleCall, ParpBatchRequest, ParpBatchResponse, ParpRequest,
    ParpResponse, RpcCall, MODULE_CALL_GAS_LIMIT,
};
use parp_crypto::{recover_address, sign, KeyPair, PreparedKey, PublicKey, SecretKey, Signature};
use parp_primitives::{Address, H256, U256};
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
/// A client runs one of these per full node it talks to; every
/// operation names the provider whose session it acts on.
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
/// pseudonymously identifies it. Every channel operation names its
/// provider — [`LightClient::request_from`],
/// [`LightClient::process_response_from`], [`LightClient::state_with`],
/// … — so a client moves between full nodes freely (§IV-A) and can hold
/// several bonded channels at once.
#[derive(Debug, Clone)]
pub struct LightClient {
    key: KeyPair,
    price_per_call: U256,
    headers: BTreeMap<u64, Header>,
    /// `(number, hash)` of the highest synced header — the `h_B` every
    /// request pins, hashed once when [`LightClient::sync_header`]
    /// advances the tip rather than once per request.
    tip_id: Option<(u64, H256)>,
    sessions: HashMap<Address, ProviderSession>,
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
            tip_id: None,
            sessions: HashMap::new(),
            prices: HashMap::new(),
            valid_responses: 0,
        }
    }

    /// Estimated bytes this client holds: every synced header (the term
    /// that grows with the chain) and per provider a session with its
    /// prepared key. In-flight requests are charged their
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
        if self.tip_id.is_none_or(|(tip, _)| header.number > tip) {
            self.tip_id = Some((header.number, header.hash()));
        }
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

    /// Starts a handshake with a full node (Algorithm 1, `HANDSHAKE`).
    ///
    /// The session **with that provider** must be Idle; channels with
    /// other providers are untouched, so a client can hold several
    /// bonded channels at once.
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
        Ok(self.address())
    }

    /// Validates `provider`'s `HSCONFIRM` and produces the signed
    /// `OpenChannel` transaction (Algorithm 1 lines 10-16).
    ///
    /// # Errors
    ///
    /// Fails when the session with `provider` is not handshaking, and
    /// on a confirmation that names another full node, has expired or
    /// is mis-signed (the session is then dropped for a retry).
    pub fn accept_confirmation(
        &mut self,
        provider: Address,
        confirm: &HandshakeConfirm,
        budget: U256,
        nonce: u64,
    ) -> Result<SignedTransaction, ClientError> {
        let now = self.tip().map(|h| h.timestamp).unwrap_or(0);
        let digest = parp_contracts::confirmation_digest(&self.address(), confirm.expiry);
        let refusal = if confirm.full_node != provider {
            Some("confirmation names another full node")
        } else if confirm.expiry < now {
            Some("confirmation expired")
        } else if recover_address(&digest, &confirm.signature).ok() != Some(provider) {
            Some("signature does not recover to the full node")
        } else {
            None
        };
        let session = self.session_in(provider, ClientState::Handshaking)?;
        if let Some(reason) = refusal {
            self.sessions.remove(&provider);
            return Err(ClientError::BadConfirmation(reason.into()));
        }
        session.channel = Some(ClientChannel {
            id: u64::MAX, // assigned on receipt
            full_node: provider,
            budget,
            spent: U256::ZERO,
        });
        session.state = ClientState::Unbonded;
        let call = ModuleCall::OpenChannel {
            full_node: provider,
            expiry: confirm.expiry,
            confirmation_sig: confirm.signature,
        };
        Ok(Transaction {
            nonce,
            gas_price: U256::ZERO,
            gas_limit: MODULE_CALL_GAS_LIMIT,
            to: Some(call.target()),
            value: budget,
            data: call.encode(),
        }
        .sign(self.key.secret()))
    }

    /// The session with `provider`, checked to be in `expected` state.
    fn session_in(
        &mut self,
        provider: Address,
        expected: ClientState,
    ) -> Result<&mut ProviderSession, ClientError> {
        match self.sessions.get_mut(&provider) {
            Some(session) if session.state == expected => Ok(session),
            session => Err(ClientError::WrongState {
                expected,
                actual: session.map_or(ClientState::Idle, |s| s.state),
            }),
        }
    }

    /// Records the `OpenChannel` receipt for `provider`'s channel: the
    /// channel id is known and that session becomes *Bonded*
    /// (Algorithm 1 lines 17-21).
    ///
    /// # Errors
    ///
    /// Fails when the session with `provider` is not
    /// [`ClientState::Unbonded`].
    pub fn channel_opened(
        &mut self,
        provider: Address,
        channel_id: u64,
    ) -> Result<(), ClientError> {
        let session = self.session_in(provider, ClientState::Unbonded)?;
        if let Some(channel) = &mut session.channel {
            channel.id = channel_id;
        }
        session.state = ClientState::Bonded;
        Ok(())
    }

    /// Builds the next signed request for `call` on the channel with
    /// `provider`, bumping the cumulative payment by the agreed price
    /// (§IV-E step 3).
    ///
    /// # Errors
    ///
    /// Fails when that session is not bonded, headers are missing, or
    /// the budget cannot cover the next payment.
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

    /// Builds the next signed **batch** request on the channel with
    /// `provider`: one signature and one cumulative payment covering all
    /// of `calls`, bumping the committed amount by `price × N`.
    ///
    /// # Errors
    ///
    /// Fails when that session is not bonded, headers are missing, the
    /// batch is empty or carries an unbatchable call (see
    /// [`RpcCall::batchable`]), or the budget cannot cover the batch.
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

    /// Verifies a batched response that arrived over `provider`'s
    /// connection against its pending request and updates the channel
    /// ledger: the batch analogue of [`LightClient::process_response_from`],
    /// with per-item classification.
    ///
    /// One fraudulent item is enough to return
    /// [`ProcessBatchOutcome::Fraud`] — the node signed the whole
    /// response, so the evidence condemns it regardless of how many other
    /// items were served honestly.
    ///
    /// # Errors
    ///
    /// Fails when no batch pending with `provider` pairs with the
    /// response.
    pub fn process_batch_response_from(
        &mut self,
        provider: Address,
        response: &ParpBatchResponse,
    ) -> Result<ProcessBatchOutcome, ClientError> {
        let is_batch = |envelope: &Envelope| matches!(envelope, Envelope::Batch(_));
        let pending = self.take_pending(provider, &response.request_hash, is_batch)?;
        let Envelope::Batch(request) = pending.envelope else {
            return Err(ClientError::UnknownResponse);
        };
        let (classification, learned, headers) = classify_batch_paired(
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
                headers: headers.into_values().collect(),
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
    /// response lost in transit (drop, crash, timeout) or refused. The
    /// channel's `spent` is untouched: it only advances when a response
    /// is processed. When the node *served* the lost exchange it holds
    /// the request's `σ_a` and can redeem it, so its ledger is now ahead
    /// of the client's; the next request is refused with that `(a, σ_a)`
    /// attached, and [`LightClient::reconcile_payment`] catches the
    /// client up. The client cannot tell a response lost in transit
    /// from one the node withheld, so how often it reconciles is the
    /// caller's policy: a gateway reconciles at most twice per provider
    /// between two verified responses, and bans on the next refusal.
    pub fn forget_pending(&mut self, provider: Address, hash: &H256) {
        if let Some(session) = self.sessions.get_mut(&provider) {
            session.pending.remove(hash);
        }
    }

    /// Number of requests in flight on `provider`'s channel, single and
    /// batched together.
    pub fn pending_with(&self, provider: &Address) -> usize {
        self.sessions.get(provider).map_or(0, |s| s.pending.len())
    }

    /// Removes the request of the asked wire shape (`of_kind`) pending
    /// with `provider` — the connection the response arrived over — that
    /// `hash` names. When the echoed hash names nothing of that shape (a
    /// corrupted echo), falls back to transport-level pairing: the sole
    /// request of that shape in flight with `provider`, if there is
    /// exactly one. Pairing never leaves `provider`'s session — a
    /// garbage response from one provider must not consume, and condemn,
    /// another provider's in-flight request — and never crosses shapes:
    /// a batch response cannot consume a single request's entry, nor the
    /// reverse.
    ///
    /// # Errors
    ///
    /// [`ClientError::UnknownResponse`] when nothing pairs.
    fn take_pending(
        &mut self,
        provider: Address,
        hash: &H256,
        of_kind: fn(&Envelope) -> bool,
    ) -> Result<Pending, ClientError> {
        let session = self
            .sessions
            .get_mut(&provider)
            .ok_or(ClientError::UnknownResponse)?;
        let paired = match session.pending.get(hash) {
            Some(pending) if of_kind(&pending.envelope) => *hash,
            _ => {
                let mut in_flight = session
                    .pending
                    .iter()
                    .filter(|(_, p)| of_kind(&p.envelope))
                    .map(|(hash, _)| *hash);
                let (Some(sole), None) = (in_flight.next(), in_flight.next()) else {
                    return Err(ClientError::UnknownResponse);
                };
                sole
            }
        };
        session
            .pending
            .remove(&paired)
            .ok_or(ClientError::UnknownResponse)
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

    /// Catches the ledger of the channel with `provider` up to a
    /// payment the node already holds: the `(amount, σ_a)` a
    /// [`crate::ServeError::InsufficientPayment`] refusal carries. A
    /// response the node served and the client never processed leaves
    /// the node one payment ahead; this is how the two agree again
    /// without abandoning the channel.
    ///
    /// `spent` moves to `amount` only when `payment_sig` recovers to the
    /// client's **own** address over `payment_digest(channel_id, amount)`
    /// (so the client accounts only for an amount it signed and the node
    /// can already redeem on chain), `amount` is above `spent` and
    /// within the budget. Returns whether `spent` moved; any other
    /// refusal changes nothing.
    pub fn reconcile_payment(
        &mut self,
        provider: Address,
        amount: U256,
        payment_sig: &Signature,
    ) -> bool {
        let Some(channel) = self.channel_with(&provider) else {
            return false;
        };
        if amount <= channel.spent || amount > channel.budget {
            return false;
        }
        let digest = parp_contracts::payment_digest(channel.id, &amount);
        if recover_address(&digest, payment_sig).ok() != Some(self.address()) {
            return false;
        }
        self.commit_payment(provider, amount);
        true
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

    /// A liveness probe for the client's own channel with `provider`
    /// (§V-C).
    ///
    /// # Errors
    ///
    /// Same conditions as [`LightClient::request_from`].
    pub fn liveness_probe(&mut self, provider: Address) -> Result<ParpRequest, ClientError> {
        let channel_id =
            self.channel_with(&provider)
                .map(|c| c.id)
                .ok_or(ClientError::WrongState {
                    expected: ClientState::Bonded,
                    actual: self.state_with(&provider),
                })?;
        self.request_from(provider, RpcCall::GetChannelStatus { channel_id })
    }

    /// Verifies a response that arrived over `provider`'s connection
    /// against the request pending with that provider ((D) in Fig. 5)
    /// and updates the channel ledger.
    ///
    /// On a *valid* response the committed amount advances. On an
    /// *invalid* one the client should fail over to another node. On
    /// *fraud* the returned evidence supports an on-chain proof.
    ///
    /// # Errors
    ///
    /// Fails when no request pending with `provider` pairs with the
    /// response.
    pub fn process_response_from(
        &mut self,
        provider: Address,
        response: &ParpResponse,
    ) -> Result<ProcessOutcome, ClientError> {
        let (request, height) = self.take_single(provider, &response.request_hash)?;
        let peer = self.provider_peer(&provider)?;
        let header_for = |n| self.headers.get(&n).cloned();
        let (judged, learned) = classify_paired(&request, response, peer, height, header_for);
        self.keep_provider_key(provider, learned);
        Ok(self.apply_classification(provider, request, response, judged))
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
        // Phase 1 (sequential, &mut self): pair each response with the
        // request pending on the connection it arrived over.
        let paired: Vec<_> = legs
            .iter()
            .map(|(provider, response)| self.take_single(*provider, &response.request_hash))
            .collect();
        // Phase 2 (parallel, &self): classify every paired exchange.
        let work: Vec<_> = paired.iter().zip(legs).collect();
        let classified = parp_crypto::par_map(&work, |(paired, (provider, response))| {
            let (request, height) = paired.as_ref().map_err(ClientError::clone)?;
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
            .map(|((paired, classified), (provider, response))| {
                let (request, _) = paired?;
                let (judged, learned) = classified?;
                self.keep_provider_key(*provider, learned);
                Ok(self.apply_classification(*provider, request, response, judged))
            })
            .collect()
    }

    /// Applies a §V-D verdict ([`Judged`]) to the channel
    /// ledger and shapes the outcome — shared by the single-response
    /// path and the parallel quorum fan-in.
    fn apply_classification(
        &mut self,
        provider: Address,
        request: ParpRequest,
        response: &ParpResponse,
        judged: Judged,
    ) -> ProcessOutcome {
        // The node holds σ_a whatever the verdict: on an invalid or
        // fraudulent response it cannot redeem the payment without
        // returning a verifiable one, but the client still counts it
        // spent defensively (and terminates per §V-D).
        self.commit_payment(provider, request.amount);
        match judged {
            Ok(None) => {
                self.valid_responses += 1;
                ProcessOutcome::Valid {
                    result: response.result.clone(),
                    proven: !response.proof.is_empty(),
                }
            }
            Ok(Some((verdict, header))) => ProcessOutcome::Fraud(Box::new(FraudEvidence {
                request,
                response: response.clone(),
                header,
                verdict,
            })),
            Err(reason) => ProcessOutcome::Invalid(reason),
        }
    }

    /// Pairs a single response arriving from `provider` with the single
    /// request pending there (see [`Self::take_pending`]). Returns the
    /// request and the height of the block its `h_B` names.
    fn take_single(
        &mut self,
        provider: Address,
        hash: &H256,
    ) -> Result<(ParpRequest, u64), ClientError> {
        let is_single = |envelope: &Envelope| matches!(envelope, Envelope::Single(_));
        let pending = self.take_pending(provider, hash, is_single)?;
        let Envelope::Single(request) = pending.envelope else {
            return Err(ClientError::UnknownResponse);
        };
        Ok((request, pending.request_height))
    }

    /// Interprets a liveness-probe result: `true` when the channel is
    /// still open according to the node.
    pub fn channel_reported_open(result: &[u8]) -> bool {
        result == [ChannelStatus::Open.as_byte()]
    }

    /// Builds the `closeChannel` call with the client's final state on
    /// the channel with `provider`, and moves that session to
    /// *Unbonding* (§IV-E step 4).
    ///
    /// # Errors
    ///
    /// Fails when the session with `provider` is not bonded.
    pub fn close_channel_call(&mut self, provider: Address) -> Result<ModuleCall, ClientError> {
        let session = self.session_in(provider, ClientState::Bonded)?;
        let channel = session
            .channel
            .as_ref()
            .ok_or(ClientError::UnknownProvider(provider))?;
        let (channel_id, amount) = (channel.id, channel.spent);
        session.state = ClientState::Unbonding;
        let payment_sig = sign(
            self.key.secret(),
            &parp_contracts::payment_digest(channel_id, &amount),
        );
        Ok(ModuleCall::CloseChannel {
            channel_id,
            amount,
            payment_sig,
        })
    }

    /// Builds the `confirmClosure` call for the channel with `provider`.
    ///
    /// # Errors
    ///
    /// Fails when the client has no channel with `provider`.
    pub fn confirm_closure_call(&self, provider: Address) -> Result<ModuleCall, ClientError> {
        let channel = self
            .channel_with(&provider)
            .ok_or(ClientError::WrongState {
                expected: ClientState::Unbonding,
                actual: self.state_with(&provider),
            })?;
        Ok(ModuleCall::ConfirmClosure {
            channel_id: channel.id,
        })
    }

    /// Records final settlement of the channel with `provider`: that
    /// session is dropped and the provider can be re-handshaken.
    pub fn channel_closed(&mut self, provider: Address) {
        self.sessions.remove(&provider);
    }

    /// Abandons the session with `provider` (fail-over after an invalid
    /// response or detected fraud): that session returns to *Idle* and
    /// the client can immediately handshake with another node, since
    /// PARP needs no sign-up (§IV-A "enhanced availability"). Channels
    /// with other providers are untouched.
    pub fn abandon_provider(&mut self, provider: Address) {
        self.sessions.remove(&provider);
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

    fn node(seed: &str) -> FullNode {
        FullNode::new(SecretKey::from_seed(seed.as_bytes()), U256::from(10u64))
    }

    /// A client with five synced headers, bonded to each `(node, channel
    /// id)` in turn with a 1,000 wei budget.
    fn client_bonded_to(nodes: &[(&FullNode, u64)]) -> LightClient {
        let mut client = LightClient::new(SecretKey::from_seed(b"lc-test"), U256::from(10u64));
        client.sync_headers((0..5).map(header_at));
        for (node, channel_id) in nodes {
            let provider = node.address();
            client.start_handshake(provider).unwrap();
            let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
            client
                .accept_confirmation(provider, &confirm, U256::from(1_000u64), 0)
                .unwrap();
            client.channel_opened(provider, *channel_id).unwrap();
        }
        client
    }

    fn bonded_client() -> (LightClient, FullNode) {
        let node = node("lc-test-node");
        (client_bonded_to(&[(&node, 7)]), node)
    }

    /// `node`'s honest answer to a `BlockNumber` request at height 4.
    fn tip_answer(node: &FullNode, request: &ParpRequest) -> ParpResponse {
        let result = parp_rlp::encode_u64(4);
        ParpResponse::build(node.secret(), request, 4, result, Vec::new())
    }

    #[test]
    fn state_machine_follows_fig4() {
        let node = FullNode::new(SecretKey::from_seed(b"sm-node"), U256::ONE);
        let mut client = LightClient::new(SecretKey::from_seed(b"sm"), U256::ONE);
        let provider = node.address();
        assert_eq!(client.state_with(&provider), ClientState::Idle);
        // No headers: cannot handshake.
        assert_eq!(
            client.start_handshake(provider),
            Err(ClientError::NoHeaders)
        );
        client.sync_header(header_at(0));
        client.start_handshake(provider).unwrap();
        assert_eq!(client.state_with(&provider), ClientState::Handshaking);
        let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(provider, &confirm, U256::from(100u64), 0)
            .unwrap();
        assert_eq!(client.state_with(&provider), ClientState::Unbonded);
        client.channel_opened(provider, 0).unwrap();
        assert_eq!(client.state_with(&provider), ClientState::Bonded);
        client.close_channel_call(provider).unwrap();
        assert_eq!(client.state_with(&provider), ClientState::Unbonding);
        client.channel_closed(provider);
        assert_eq!(client.state_with(&provider), ClientState::Idle);
        assert!(client.channel_with(&provider).is_none());
    }

    #[test]
    fn rejects_forged_confirmation() {
        let mut client = LightClient::new(SecretKey::from_seed(b"forge"), U256::ONE);
        client.sync_header(header_at(0));
        let node = FullNode::new(SecretKey::from_seed(b"honest"), U256::ONE);
        let provider = node.address();
        let genuine = node.confirm_handshake(client.address(), 1_700_000_000);
        // Names another node; signed by a node other than the one named;
        // signed over another expiry.
        let mut renamed = genuine.clone();
        renamed.full_node = Address::from_low_u64_be(0xbad);
        let impostor = FullNode::new(SecretKey::from_seed(b"impostor"), U256::ONE);
        let mut misattributed = impostor.confirm_handshake(client.address(), 1_700_000_000);
        misattributed.full_node = provider;
        let mut extended = genuine;
        extended.expiry += 1;
        for (confirm, reason) in [
            (renamed, "confirmation names another full node"),
            (misattributed, "signature does not recover to the full node"),
            (extended, "signature does not recover to the full node"),
        ] {
            client.start_handshake(provider).unwrap();
            assert_eq!(
                client.accept_confirmation(provider, &confirm, U256::from(100u64), 0),
                Err(ClientError::BadConfirmation(reason.into()))
            );
            // Failed confirmation resets to Idle for a retry.
            assert_eq!(client.state_with(&provider), ClientState::Idle);
        }
    }

    #[test]
    fn rejects_expired_confirmation() {
        let mut client = LightClient::new(SecretKey::from_seed(b"expired"), U256::ONE);
        client.sync_header(header_at(1000)); // tip timestamp far in the future
        let node = FullNode::new(SecretKey::from_seed(b"slow"), U256::ONE);
        client.start_handshake(node.address()).unwrap();
        let confirm = node.confirm_handshake(client.address(), 0); // expiry = TTL only
        assert!(matches!(
            client.accept_confirmation(node.address(), &confirm, U256::from(100u64), 0),
            Err(ClientError::BadConfirmation(_))
        ));
    }

    #[test]
    fn requests_accumulate_payments() {
        let (mut client, node) = bonded_client();
        let provider = node.address();
        let r1 = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        assert_eq!(r1.amount, U256::from(10u64));
        // Until a response is accepted, `spent` stays; a second request
        // re-offers the same cumulative amount (r1 was never acknowledged).
        let r2 = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        assert_eq!(r2.amount, U256::from(10u64));
        assert_eq!(r1.channel_id, 7);
    }

    /// `σ_a` as the client signs it: over `payment_digest(channel, amount)`.
    fn payment_sig(secret: &SecretKey, channel_id: u64, amount: u64) -> Signature {
        let digest = parp_contracts::payment_digest(channel_id, &U256::from(amount));
        sign(secret, &digest)
    }

    #[test]
    fn reconcile_catches_up_to_a_payment_the_client_signed() {
        let (mut client, node) = bonded_client();
        let provider = node.address();
        // Served, then lost: the node holds σ_a for 10, the client
        // committed nothing.
        let lost = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        client.forget_pending(provider, &lost.request_hash);
        assert_eq!(client.channel_with(&provider).unwrap().spent, U256::ZERO);
        assert!(client.reconcile_payment(provider, lost.amount, &lost.payment_sig));
        assert_eq!(client.channel_with(&provider).unwrap().spent, lost.amount);
        // The next request pays for one more call on top.
        let next = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        assert_eq!(next.amount, U256::from(20u64));
        // The same evidence again is stale: nothing moves.
        assert!(!client.reconcile_payment(provider, lost.amount, &lost.payment_sig));
    }

    #[test]
    fn a_lying_refusal_never_moves_spent() {
        let (mut client, node) = bonded_client();
        let provider = node.address();
        let own = *client.secret();
        let spent = 30u64;
        client.commit_payment(provider, U256::from(spent));
        let stranger = SecretKey::from_seed(b"not-the-client");
        let lies = [
            // A σ_a signed by another key, for an amount the client
            // could owe.
            ("another key", 40, payment_sig(&stranger, 7, 40)),
            // The client's own key, over another channel's digest.
            ("another channel id", 40, payment_sig(&own, 8, 40)),
            // Validly signed, but past the 1,000 wei budget.
            ("above the budget", 1_010, payment_sig(&own, 7, 1_010)),
            // Validly signed, but no further than the client already is.
            ("at spent", spent, payment_sig(&own, 7, spent)),
            ("below spent", 20, payment_sig(&own, 7, 20)),
        ];
        for (lie, amount, sig) in lies {
            assert!(
                !client.reconcile_payment(provider, U256::from(amount), &sig),
                "{lie}"
            );
            let channel = client.channel_with(&provider).unwrap();
            assert_eq!(channel.spent, U256::from(spent), "{lie}");
        }
        // An unknown provider has nothing to reconcile.
        let other = Address::from_low_u64_be(0xbad);
        assert!(!client.reconcile_payment(other, U256::from(40u64), &payment_sig(&own, 7, 40)));
    }

    #[test]
    fn budget_exhaustion() {
        let node = FullNode::new(SecretKey::from_seed(b"be-node"), U256::from(60u64));
        let mut client = LightClient::new(SecretKey::from_seed(b"be"), U256::from(60u64));
        let provider = node.address();
        client.sync_header(header_at(0));
        client.start_handshake(provider).unwrap();
        let confirm = node.confirm_handshake(client.address(), 1_700_000_000);
        client
            .accept_confirmation(provider, &confirm, U256::from(100u64), 0)
            .unwrap();
        client.channel_opened(provider, 0).unwrap();
        let r = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        // Simulate acceptance to advance spent.
        client.commit_payment(provider, r.amount);
        assert_eq!(
            client.request_from(provider, RpcCall::BlockNumber),
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
        let response = tip_answer(&node, &foreign_req);
        assert_eq!(
            client.process_response_from(node.address(), &response),
            Err(ClientError::UnknownResponse)
        );
    }

    #[test]
    fn valid_response_advances_ledger() {
        let (mut client, node) = bonded_client();
        let provider = node.address();
        let request = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        let response = tip_answer(&node, &request);
        let outcome = client.process_response_from(provider, &response).unwrap();
        assert!(matches!(outcome, ProcessOutcome::Valid { .. }));
        assert_eq!(
            client.channel_with(&provider).unwrap().spent,
            U256::from(10u64)
        );
        assert_eq!(client.valid_responses(), 1);
        // The next request pays more.
        let next = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        assert_eq!(next.amount, U256::from(20u64));
    }

    #[test]
    fn fraudulent_response_yields_evidence() {
        let (mut client, node) = bonded_client();
        let provider = node.address();
        let request = client.request_from(provider, RpcCall::BlockNumber).unwrap();
        let mut response = tip_answer(&node, &request);
        response.amount = U256::ZERO; // amount mismatch
        let digest = response.expected_hash();
        response.response_sig = parp_crypto::sign(node.secret(), &digest);
        let outcome = client.process_response_from(provider, &response).unwrap();
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
        let probe = client.liveness_probe(node.address()).unwrap();
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
        let outcome = client
            .process_response_from(node.address(), &response)
            .unwrap();
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
        let (node_a, node_b) = (node("multi-a"), node("multi-b"));
        let (a, b) = (node_a.address(), node_b.address());
        let mut client = client_bonded_to(&[(&node_a, 1), (&node_b, 2)]);
        // Both sessions bonded, each with its own channel.
        assert_eq!(client.state_with(&a), ClientState::Bonded);
        assert_eq!(client.state_with(&b), ClientState::Bonded);
        assert_eq!(client.channel_with(&a).unwrap().id, 1);
        assert_eq!(client.channel_with(&b).unwrap().id, 2);
        assert_eq!(client.bonded_providers().len(), 2);
        // Per-provider requests pay on their own channels and pair back
        // to them even when responses interleave.
        let req_a = client.request_from(a, RpcCall::BlockNumber).unwrap();
        let req_b = client.request_from(b, RpcCall::BlockNumber).unwrap();
        assert_eq!(req_a.channel_id, 1);
        assert_eq!(req_b.channel_id, 2);
        let (res_a, res_b) = (tip_answer(&node_a, &req_a), tip_answer(&node_b, &req_b));
        assert!(matches!(
            client.process_response_from(b, &res_b).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
        assert!(matches!(
            client.process_response_from(a, &res_a).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
        assert_eq!(client.channel_with(&a).unwrap().spent, U256::from(10u64));
        assert_eq!(client.channel_with(&b).unwrap().spent, U256::from(10u64));
        // Abandoning one provider leaves the other bonded.
        client.abandon_provider(a);
        assert_eq!(client.state_with(&a), ClientState::Idle);
        assert_eq!(client.state_with(&b), ClientState::Bonded);
    }

    #[test]
    fn corrupted_echo_pairing_never_crosses_sessions() {
        let (node_a, node_b) = (node("scope-a"), node("scope-b"));
        let (a, b) = (node_a.address(), node_b.address());
        let mut client = client_bonded_to(&[(&node_a, 1), (&node_b, 2)]);
        // Exactly one request in flight, on A's channel.
        let req_a = client.request_from(a, RpcCall::BlockNumber).unwrap();
        // A response with a corrupted (unmatchable) echo arrives over B's
        // connection: B has nothing in flight — rejected rather than
        // misattributed to A's channel.
        let mut garbage = tip_answer(&node_b, &req_a);
        garbage.request_hash = parp_crypto::keccak256(b"corrupted echo");
        assert_eq!(
            client.process_response_from(b, &garbage),
            Err(ClientError::UnknownResponse)
        );
        // A's pending request is still alive and pairs with the honest
        // response when it arrives.
        let honest = tip_answer(&node_a, &req_a);
        assert!(matches!(
            client.process_response_from(a, &honest).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
    }

    #[test]
    fn hash_pairing_never_crosses_sessions() {
        let (node_a, node_b) = (node("cross-a"), node("cross-b"));
        let (a, b) = (node_a.address(), node_b.address());
        let mut client = client_bonded_to(&[(&node_a, 1), (&node_b, 2)]);
        let req_b = client.request_from(b, RpcCall::BlockNumber).unwrap();
        let res_b = tip_answer(&node_b, &req_b);
        // B's response, with an intact echo, processed as arriving over
        // A's connection: A has nothing pending, so nothing pairs.
        assert_eq!(
            client.process_response_from(a, &res_b),
            Err(ClientError::UnknownResponse)
        );
        assert_eq!(client.pending_with(&b), 1);
        assert!(matches!(
            client.process_response_from(b, &res_b).unwrap(),
            ProcessOutcome::Valid { .. }
        ));
        assert_eq!(client.pending_with(&b), 0);
    }

    #[test]
    fn confirmation_cannot_clobber_a_bonded_session() {
        let (node_a, node_b) = (node("clobber-a"), node("clobber-b"));
        let (a, b) = (node_a.address(), node_b.address());
        // Bond to B and advance its committed spend.
        let mut client = client_bonded_to(&[(&node_b, 2)]);
        let req = client.request_from(b, RpcCall::BlockNumber).unwrap();
        client
            .process_response_from(b, &tip_answer(&node_b, &req))
            .unwrap();
        let spent_before = client.channel_with(&b).unwrap().spent;
        assert!(spent_before > U256::ZERO);
        // Handshake with A, but a (colluding/replayed) confirmation from
        // B arrives, naming B or relabelled to name A: either way it is
        // refused and must not reset B's live channel.
        let replayed = node_b.confirm_handshake(client.address(), 1_700_000_000);
        let mut relabelled = replayed.clone();
        relabelled.full_node = a;
        for confirm in [replayed, relabelled] {
            client.start_handshake(a).unwrap();
            assert!(matches!(
                client.accept_confirmation(a, &confirm, U256::from(1_000u64), 1),
                Err(ClientError::BadConfirmation(_))
            ));
            // The refused handshake with A is dropped for a retry.
            assert_eq!(client.state_with(&a), ClientState::Idle);
        }
        assert_eq!(client.state_with(&b), ClientState::Bonded);
        assert_eq!(
            client.channel_with(&b).unwrap().spent,
            spent_before,
            "B's committed spend survives"
        );
    }

    #[test]
    fn abandon_allows_new_handshake() {
        let (mut client, node) = bonded_client();
        client.abandon_provider(node.address());
        assert_eq!(client.state_with(&node.address()), ClientState::Idle);
        let other = FullNode::new(SecretKey::from_seed(b"failover"), U256::from(10u64));
        client.start_handshake(other.address()).unwrap();
        assert_eq!(
            client.state_with(&other.address()),
            ClientState::Handshaking
        );
    }
}
