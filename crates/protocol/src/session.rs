//! The per-role state machines of the session protocol.
//!
//! Each session owns its role's private state (master keys, plaintext
//! shard, model weights) and communicates *only* through the
//! [`WireMessage`] alphabet. Every role exposes the
//! same event-driven surface — `handle_message(&mut self, msg) ->
//! Result<Vec<Outbound>>` — so the deterministic in-process runner, the
//! transcript replayer, and the networked daemons are all thin drivers
//! over identical protocol logic:
//!
//! - [`AuthoritySession`] answers [`KeyRequest`]s, enforcing the
//!   permitted set exactly as the in-process [`KeyAuthority`] does;
//! - [`ClientSession`] builds its encryptor from the wire-delivered
//!   [`PublicParams`] and streams encrypted batch messages under
//!   credit-based flow control (a bounded window of unacknowledged
//!   batches, replenished by [`ModelDelta`] broadcasts);
//! - [`ServerSession`] consumes batch messages — reordering bounded
//!   bursts of ahead-of-schedule arrivals — trains in strict global
//!   step order, and emits the [`ModelDelta`] / [`EpochBarrier`] /
//!   [`SessionSummary`] broadcasts itself, reaching the authority only
//!   through an [`AuthorityChannel`] — the synchronous request/response
//!   hook that the runner records, the replayer feeds from a
//!   transcript, and the networked stack backs with a framed socket.
//!
//! [`ModelDelta`]: crate::ModelDelta
//! [`EpochBarrier`]: crate::EpochBarrier
//! [`SessionSummary`]: crate::SessionSummary

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use parking_lot::Mutex;

use cryptonn_core::{Client, CryptoCnn, CryptoMlp, CryptoNnConfig};
use cryptonn_fe::{
    FeError, FeboFunctionKey, FeboKeyRequest, FeboPublicKey, FeipFunctionKey, FeipPublicKey,
    KeyAuthority, KeyService, ShareAuthority, ShareSpec,
};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::{Matrix, Tensor4};
use cryptonn_parallel::Parallelism;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::checkpoint::{SessionCheckpoint, CHECKPOINT_SCHEMA};
use crate::error::ProtocolError;
use crate::messages::{
    ClientId, CnnArch, EncryptedBatchMsg, EncryptedImageBatchMsg, EpochBarrier, FeboKeysRequest,
    FeipKeysRequest, KeyRequest, KeyResponse, ModelDelta, ModelSpec, PartialKey, PublicParams,
    RegisterClient, ReshardEntry, ReshardSpec, ResumeMsg, SessionConfig, SessionPolicy,
    SessionSummary, ShareInfo, ShareRequest, TrainingStart, WireMessage,
};
use crate::transcript::Party;

/// One message a state machine wants delivered: the event-driven
/// counterpart of a send. Transports (the in-process pump, the framed
/// socket stack) route it; state machines never call each other.
#[derive(Debug, Clone, PartialEq)]
pub struct Outbound {
    /// The addressee.
    pub to: Party,
    /// The payload.
    pub msg: WireMessage,
}

impl Outbound {
    /// An outbound addressed to everyone.
    pub fn broadcast(msg: WireMessage) -> Self {
        Self {
            to: Party::Broadcast,
            msg,
        }
    }

    /// An outbound addressed to one party.
    pub fn to(to: Party, msg: WireMessage) -> Self {
        Self { to, msg }
    }
}

/// The server's synchronous line to the authority: one request in, one
/// response out. The live implementation forwards to an
/// [`AuthoritySession`] and records both directions; the replay
/// implementation pops recorded responses and verifies the requests
/// still match; the networked implementation frames both directions
/// over a dedicated socket.
pub trait AuthorityChannel: Send {
    /// Sends `req` and returns the authority's response.
    ///
    /// # Errors
    ///
    /// Transport-level failures (replay exhaustion/divergence, a lost
    /// connection).
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError>;
}

/// The key authority as a session: owns the master keys, answers
/// serializable key requests.
#[derive(Debug)]
pub struct AuthoritySession {
    authority: KeyAuthority,
}

impl AuthoritySession {
    /// Sets up the authority for a session: group from the configured
    /// level, master keys from the configured seed.
    pub fn new(config: &SessionConfig) -> Self {
        let group = SchnorrGroup::precomputed(config.level);
        Self {
            authority: KeyAuthority::with_seed(group, config.permitted, config.authority_seed),
        }
    }

    /// The underlying authority (for comm-log inspection in tests).
    pub fn authority(&self) -> &KeyAuthority {
        &self.authority
    }

    /// The session's public parameters: FEIP instances for the feature
    /// and class dimensions plus the FEBO key.
    ///
    /// The two instances are created in a fixed order (features first),
    /// so the authority's RNG evolution — and hence every derived key —
    /// is independent of the client count.
    pub fn public_params(
        &self,
        feature_dim: usize,
        classes: usize,
        config: &SessionConfig,
    ) -> PublicParams {
        PublicParams {
            x_mpk: self.authority.feip_public_key(feature_dim),
            y_mpk: self.authority.feip_public_key(classes),
            febo_mpk: self.authority.febo_public_key(),
            fp: config.fp,
        }
    }

    /// The session's public parameters, with the FEIP geometry derived
    /// from the configured model
    /// ([`ModelSpec::first_layer_dims`]) — what every driver (runner,
    /// authority daemon) publishes, so the authority's RNG evolution is
    /// identical across transports.
    pub fn public_params_for(&self, config: &SessionConfig) -> PublicParams {
        let (x_dim, classes) = config.model.first_layer_dims();
        self.public_params(x_dim, classes, config)
    }

    /// Serves one key request. Refusals (permitted-set violations,
    /// invalid operands) come back as [`KeyResponse::Denied`] rather
    /// than an `Err`: a refusal is a protocol outcome worth recording,
    /// not a transport failure.
    pub fn handle(&self, req: &KeyRequest) -> KeyResponse {
        // Requests come off the wire: a zero dimension would panic the
        // FEIP setup, so refuse it like any other bad operand.
        let dim_of = |r: &KeyRequest| match r {
            KeyRequest::FeipMpk(dim) | KeyRequest::Feip(FeipKeysRequest { dim, .. }) => Some(*dim),
            KeyRequest::Febo(_) => None,
        };
        if dim_of(req) == Some(0) {
            return KeyResponse::Denied("FEIP dimension must be positive".into());
        }
        match req {
            KeyRequest::FeipMpk(dim) => KeyResponse::FeipMpk(self.authority.feip_public_key(*dim)),
            KeyRequest::Feip(FeipKeysRequest { dim, ys }) => {
                // First-error semantics via the same batched KeyService
                // path the in-process special case uses.
                match self.authority.derive_ip_keys(*dim, ys) {
                    Ok(keys) => KeyResponse::Feip(keys),
                    Err(e) => KeyResponse::Denied(e.to_string()),
                }
            }
            KeyRequest::Febo(FeboKeysRequest { reqs }) => {
                match self.authority.derive_bo_keys(reqs) {
                    Ok(keys) => KeyResponse::Febo(keys),
                    Err(e) => KeyResponse::Denied(e.to_string()),
                }
            }
        }
    }

    /// The event-driven surface: key requests come in, responses go
    /// back to the server.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Unexpected`] for any non-request message — the
    /// authority consumes nothing else.
    pub fn handle_message(&self, msg: &WireMessage) -> Result<Vec<Outbound>, ProtocolError> {
        match msg {
            WireMessage::KeyRequest(req) => Ok(vec![Outbound::to(
                Party::Server,
                WireMessage::KeyResponse(self.handle(req)),
            )]),
            other => Err(ProtocolError::Unexpected {
                role: "authority",
                kind: other.kind(),
            }),
        }
    }
}

/// One share-holder of a t-of-n threshold authority as a session: owns
/// a [`ShareAuthority`] dealer replica and answers serializable
/// partial-derivation requests (DESIGN.md §17).
///
/// A share node also answers [`KeyRequest::FeipMpk`] (public keys are
/// common knowledge), but *refuses* full-key derivations with
/// [`KeyResponse::Denied`] — a share-holder never assembles a complete
/// function key.
#[derive(Debug)]
pub struct ShareSession {
    node: ShareAuthority,
}

impl ShareSession {
    /// Sets up share-holder `spec.index()` for a session: group from
    /// the configured level, dealer replica from the configured
    /// authority seed — so any quorum recombines to exactly the keys
    /// [`AuthoritySession::new`] would derive from the same config.
    pub fn new(config: &SessionConfig, spec: ShareSpec) -> Self {
        let group = SchnorrGroup::precomputed(config.level);
        Self {
            node: ShareAuthority::with_seed(group, config.permitted, config.authority_seed, spec),
        }
    }

    /// The underlying share-holder.
    pub fn node(&self) -> &ShareAuthority {
        &self.node
    }

    /// The session's public parameters — identical to what the single
    /// [`AuthoritySession`] publishes (same mpks, same derivation
    /// order), so the client/server sides are agnostic to the
    /// authority's deployment shape.
    pub fn public_params_for(&self, config: &SessionConfig) -> PublicParams {
        let (x_dim, classes) = config.model.first_layer_dims();
        PublicParams {
            x_mpk: self.node.feip_public_key(x_dim),
            y_mpk: self.node.feip_public_key(classes),
            febo_mpk: self.node.febo_public_key(),
            fp: config.fp,
        }
    }

    /// Serves one partial-derivation request. Refusals come back as
    /// [`PartialKey::Denied`], mirroring [`AuthoritySession::handle`].
    pub fn handle(&self, req: &ShareRequest) -> PartialKey {
        match req {
            ShareRequest::Info => {
                let spec = self.node.spec();
                PartialKey::Info(ShareInfo {
                    index: spec.index(),
                    n: spec.setup().n() as u32,
                    t: spec.setup().t() as u32,
                    febo_commitments: self.node.febo_commitments().to_vec(),
                })
            }
            ShareRequest::Feip(FeipKeysRequest { dim, ys }) => {
                if *dim == 0 {
                    return PartialKey::Denied("FEIP dimension must be positive".into());
                }
                match self.node.feip_partials(*dim, ys) {
                    Ok(partials) => PartialKey::Feip(partials),
                    Err(e) => PartialKey::Denied(e.to_string()),
                }
            }
            ShareRequest::Febo(FeboKeysRequest { reqs }) => match self.node.febo_partials(reqs) {
                Ok(partials) => PartialKey::Febo(partials),
                Err(e) => PartialKey::Denied(e.to_string()),
            },
        }
    }

    /// Serves the subset of [`KeyRequest`]s a share-holder may answer:
    /// public keys yes, full derivations never.
    pub fn handle_key(&self, req: &KeyRequest) -> KeyResponse {
        match req {
            KeyRequest::FeipMpk(0) => KeyResponse::Denied("FEIP dimension must be positive".into()),
            KeyRequest::FeipMpk(dim) => KeyResponse::FeipMpk(self.node.feip_public_key(*dim)),
            KeyRequest::Feip(_) | KeyRequest::Febo(_) => KeyResponse::Denied(
                "share-holders serve partial derivations only; ask the combiner".into(),
            ),
        }
    }

    /// The event-driven surface: partial-derivation requests (and the
    /// public-key subset of plain key requests) in, responses out.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Unexpected`] for anything else.
    pub fn handle_message(&self, msg: &WireMessage) -> Result<Vec<Outbound>, ProtocolError> {
        match msg {
            WireMessage::ShareRequest(req) => Ok(vec![Outbound::to(
                Party::Server,
                WireMessage::PartialKey(self.handle(req)),
            )]),
            WireMessage::KeyRequest(req) => Ok(vec![Outbound::to(
                Party::Server,
                WireMessage::KeyResponse(self.handle_key(req)),
            )]),
            other => Err(ProtocolError::Unexpected {
                role: "share-authority",
                kind: other.kind(),
            }),
        }
    }
}

/// A [`KeyService`] that reaches the authority over an
/// [`AuthorityChannel`]: what turns the secure steps of Algorithm 2
/// into recorded (and replayable) wire traffic.
///
/// Public keys delivered in [`PublicParams`] are cached; anything else
/// goes over the channel.
///
/// Interior mutability is a `Mutex` (not a `RefCell`) so the service —
/// and a [`CachingKeyService`](cryptonn_fe::CachingKeyService) wrapped
/// around it — is `Sync`: inference shards behind one front door share
/// a single warmed key cache (and its one authority link) through an
/// `Arc`.
pub struct ChannelKeyService {
    link: Mutex<Box<dyn AuthorityChannel>>,
    mpks: Mutex<HashMap<usize, FeipPublicKey>>,
    febo_mpk: FeboPublicKey,
}

impl ChannelKeyService {
    /// Builds the service from the session's public parameters and a
    /// channel for everything else.
    pub fn new(params: &PublicParams, link: Box<dyn AuthorityChannel>) -> Self {
        let mut mpks = HashMap::new();
        mpks.insert(params.x_mpk.dimension(), params.x_mpk.clone());
        mpks.insert(params.y_mpk.dimension(), params.y_mpk.clone());
        Self {
            link: Mutex::new(link),
            mpks: Mutex::new(mpks),
            febo_mpk: params.febo_mpk.clone(),
        }
    }

    fn exchange(&self, req: KeyRequest) -> Result<KeyResponse, FeError> {
        self.link
            .lock()
            .exchange(req)
            .map_err(|e| FeError::Protocol(e.to_string()))
    }
}

impl KeyService for ChannelKeyService {
    fn feip_public_key(&self, dim: usize) -> Result<FeipPublicKey, FeError> {
        if let Some(mpk) = self.mpks.lock().get(&dim) {
            return Ok(mpk.clone());
        }
        match self.exchange(KeyRequest::FeipMpk(dim))? {
            KeyResponse::FeipMpk(mpk) => {
                self.mpks.lock().insert(dim, mpk.clone());
                Ok(mpk)
            }
            KeyResponse::Denied(why) => Err(FeError::Protocol(why)),
            other => Err(FeError::Protocol(format!(
                "expected an mpk response, got {other:?}"
            ))),
        }
    }

    fn febo_public_key(&self) -> Result<FeboPublicKey, FeError> {
        Ok(self.febo_mpk.clone())
    }

    fn derive_ip_keys(&self, dim: usize, ys: &[Vec<i64>]) -> Result<Vec<FeipFunctionKey>, FeError> {
        let req = KeyRequest::Feip(FeipKeysRequest {
            dim,
            ys: ys.to_vec(),
        });
        match self.exchange(req)? {
            KeyResponse::Feip(keys) if keys.len() == ys.len() => Ok(keys),
            KeyResponse::Feip(keys) => Err(FeError::Protocol(format!(
                "requested {} FEIP keys, authority returned {}",
                ys.len(),
                keys.len()
            ))),
            KeyResponse::Denied(why) => Err(FeError::Protocol(why)),
            other => Err(FeError::Protocol(format!(
                "expected FEIP keys, got {other:?}"
            ))),
        }
    }

    fn derive_bo_keys(&self, reqs: &[FeboKeyRequest]) -> Result<Vec<FeboFunctionKey>, FeError> {
        let req = KeyRequest::Febo(FeboKeysRequest {
            reqs: reqs.to_vec(),
        });
        match self.exchange(req)? {
            KeyResponse::Febo(keys) if keys.len() == reqs.len() => Ok(keys),
            KeyResponse::Febo(keys) => Err(FeError::Protocol(format!(
                "requested {} FEBO keys, authority returned {}",
                reqs.len(),
                keys.len()
            ))),
            KeyResponse::Denied(why) => Err(FeError::Protocol(why)),
            other => Err(FeError::Protocol(format!(
                "expected FEBO keys, got {other:?}"
            ))),
        }
    }
}

/// Default per-client credit window: how many batches a client keeps in
/// flight before waiting for a [`ModelDelta`]
/// acknowledging one of its own steps. Two gives double-buffering —
/// the client encrypts batch `t+1` while the server trains on `t`.
pub const DEFAULT_CLIENT_WINDOW: usize = 2;

/// One data-owner: holds its plaintext shard and, once the public
/// parameters arrive, its encryptor.
///
/// As a state machine, the client consumes [`SessionConfig`] (answering
/// with its registration), [`PublicParams`] (building the encryptor),
/// [`TrainingStart`] (fixing the global schedule), and
/// [`ModelDelta`] broadcasts (replenishing its send window), and emits
/// [`EncryptedBatchMsg`]s in its local shard order tagged with the
/// global step each occupies.
///
/// [`ModelDelta`]: crate::ModelDelta
#[derive(Debug)]
pub struct ClientSession {
    id: ClientId,
    seed: u64,
    parallelism: Parallelism,
    /// This client's plaintext mini-batches `(x, one-hot y)`, in local
    /// order.
    shard: Vec<(Matrix<f64>, Matrix<f64>)>,
    client: Option<Client>,
    /// From [`SessionConfig`]: total participants.
    clients_total: Option<u32>,
    /// From [`SessionConfig`]: epochs over the sharded dataset.
    epochs: Option<u32>,
    /// From [`TrainingStart`]: total batches per epoch across clients.
    batches_per_epoch: Option<u64>,
    /// Credit window: own batches in flight before awaiting a delta.
    window: usize,
    in_flight: usize,
    /// Local batches emitted so far, across epochs.
    sent: u64,
    /// Current schedule generation (bumped by re-shards).
    gen: u32,
    /// When the schedule was re-cut: the remaining `(step, local_idx)`
    /// emissions, precomputed from the [`ReshardSpec`]. `None` means
    /// the base round-robin formula applies.
    tail: Option<VecDeque<(u64, usize)>>,
    /// Emitter parked until the server re-syncs the send cursor — set
    /// by a reconnecting driver, cleared by `Start`/`Resume`/`Reshard`.
    awaiting_resume: bool,
    done: bool,
}

impl ClientSession {
    /// Creates the session over a plaintext shard. Encryption becomes
    /// possible once [`on_public_params`](Self::on_public_params) runs.
    pub fn new(
        id: ClientId,
        seed: u64,
        parallelism: Parallelism,
        shard: Vec<(Matrix<f64>, Matrix<f64>)>,
    ) -> Self {
        Self {
            id,
            seed,
            parallelism,
            shard,
            client: None,
            clients_total: None,
            epochs: None,
            batches_per_epoch: None,
            window: DEFAULT_CLIENT_WINDOW,
            in_flight: 0,
            sent: 0,
            gen: 0,
            tail: None,
            awaiting_resume: false,
            done: false,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Number of batches in this client's shard.
    pub fn shard_len(&self) -> usize {
        self.shard.len()
    }

    /// True once every scheduled local batch has been emitted.
    pub fn fully_sent(&self) -> bool {
        match &self.tail {
            Some(tail) => tail.is_empty(),
            None => self.sent >= self.total_local_batches(),
        }
    }

    /// The schedule generation this client currently emits under.
    pub fn generation(&self) -> u32 {
        self.gen
    }

    fn total_local_batches(&self) -> u64 {
        self.shard.len() as u64 * u64::from(self.epochs.unwrap_or(0))
    }

    /// Parks the emitter until the server re-syncs the send cursor.
    ///
    /// A reconnecting driver calls this before re-sending its
    /// registration: the local cursor is stale (frames in flight when
    /// the connection died were lost, and the server may have re-cut
    /// the schedule), so nothing may be emitted until the server's
    /// `Resume` (or the `Start`/`Reshard` broadcast on a session whose
    /// schedule was not yet fixed) tells this client where it stands.
    /// Otherwise a stray `Delta` arriving between the re-registration
    /// and the `Resume` would pump stale-cursor batches.
    pub fn park_until_resume(&mut self) {
        self.awaiting_resume = true;
    }

    /// The registration message this client opens with.
    pub fn register(&self) -> RegisterClient {
        RegisterClient {
            client: self.id,
            batches_per_epoch: self.shard.len() as u64,
        }
    }

    /// Consumes the session's public parameters: builds the encryptor
    /// from the wire-delivered keys (never from a local authority).
    pub fn on_public_params(&mut self, params: &PublicParams) {
        self.client = Some(
            Client::from_keys(
                params.x_mpk.clone(),
                params.y_mpk.clone(),
                params.febo_mpk.clone(),
                params.fp,
                self.seed,
            )
            .with_parallelism(self.parallelism),
        );
    }

    /// Encrypts local batch `local_idx` for global step `step`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::MissingMessage`] before the public parameters
    /// arrived; shape errors from the encryptor.
    pub fn encrypt_step(
        &mut self,
        local_idx: usize,
        step: u64,
    ) -> Result<EncryptedBatchMsg, ProtocolError> {
        let (x, y) = self.shard.get(local_idx).ok_or_else(|| {
            ProtocolError::InvalidConfig(format!(
                "client {} has {} batches, scheduler asked for #{local_idx}",
                self.id,
                self.shard.len()
            ))
        })?;
        let client = self
            .client
            .as_mut()
            .ok_or(ProtocolError::MissingMessage("PublicParams"))?;
        let batch = client.encrypt_batch(x, y)?;
        Ok(EncryptedBatchMsg {
            client: self.id,
            step,
            gen: self.gen,
            batch,
        })
    }

    /// Adopts a re-cut schedule: resets the credit window (the server
    /// purged its reorder buffer when it cut the spec), rewinds the send
    /// cursor to what the server actually consumed, and precomputes the
    /// remaining emissions. A client the spec re-sharded *out* is left
    /// with an empty tail — it only waits for the summary.
    fn apply_reshard(&mut self, spec: &ReshardSpec) {
        self.awaiting_resume = false;
        self.gen = spec.gen;
        self.in_flight = 0;
        let shard_len = self.shard.len() as u64;
        let tail = match spec.survivor(self.id) {
            Some(entry) if shard_len > 0 => {
                self.sent = entry.delivered;
                spec.steps_for(self.id)
                    .into_iter()
                    .map(|(step, nth)| (step, ((entry.delivered + nth) % shard_len) as usize))
                    .collect()
            }
            _ => VecDeque::new(),
        };
        self.tail = Some(tail);
    }

    /// Re-syncs after a rejoin: the server tells this client how many of
    /// its batches were actually consumed (anything later was lost with
    /// the connection and must be re-encrypted and re-sent) and which
    /// schedule generation is current.
    fn apply_resume(&mut self, resume: &ResumeMsg) {
        self.awaiting_resume = false;
        self.batches_per_epoch = Some(resume.batches_per_epoch);
        self.in_flight = 0;
        match &resume.reshard {
            Some(spec) => self.apply_reshard(spec),
            None => {
                self.gen = resume.gen;
                self.sent = resume.delivered;
                self.tail = None;
            }
        }
    }

    /// The event-driven surface: session lifecycle and flow-control
    /// messages in, registration and encrypted batches out.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Unexpected`] for message kinds a data owner
    /// never consumes; encryption failures from the emitted batches.
    pub fn handle_message(&mut self, msg: &WireMessage) -> Result<Vec<Outbound>, ProtocolError> {
        match msg {
            WireMessage::Config(config) => {
                self.clients_total = Some(config.clients);
                self.epochs = Some(config.epochs);
                Ok(vec![Outbound::to(
                    Party::Server,
                    WireMessage::Register(self.register()),
                )])
            }
            WireMessage::PublicParams(params) => {
                self.on_public_params(params);
                self.pump()
            }
            WireMessage::Start(TrainingStart { batches_per_epoch }) => {
                // A client that dropped before the schedule fixed gets
                // no Resume on rejoin — the Start barrier is its
                // re-sync point (nothing was delivered yet).
                self.awaiting_resume = false;
                self.batches_per_epoch = Some(*batches_per_epoch);
                self.pump()
            }
            WireMessage::Delta(delta) => {
                if delta.client == self.id {
                    self.in_flight = self.in_flight.saturating_sub(1);
                }
                self.pump()
            }
            WireMessage::Epoch(_) => Ok(Vec::new()),
            WireMessage::Resume(resume) => {
                // Addressed to one client; drivers that broadcast
                // everything (the in-process pump) deliver it to all,
                // so everyone else ignores it.
                if resume.client != self.id {
                    return Ok(Vec::new());
                }
                self.apply_resume(resume);
                self.pump()
            }
            WireMessage::Reshard(spec) => {
                self.apply_reshard(spec);
                self.pump()
            }
            WireMessage::Summary(_) => {
                self.done = true;
                Ok(Vec::new())
            }
            other => Err(ProtocolError::Unexpected {
                role: "client",
                kind: other.kind(),
            }),
        }
    }

    /// Emits as many scheduled batches as the credit window allows.
    fn pump(&mut self) -> Result<Vec<Outbound>, ProtocolError> {
        let (Some(k), Some(b)) = (self.clients_total, self.batches_per_epoch) else {
            return Ok(Vec::new());
        };
        if self.client.is_none() || self.awaiting_resume {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        while self.in_flight < self.window && !self.fully_sent() {
            let (step, local) = match &mut self.tail {
                Some(tail) => tail.pop_front().expect("not fully sent"),
                None => {
                    let shard_len = self.shard.len() as u64;
                    let epoch = self.sent / shard_len;
                    let local = self.sent % shard_len;
                    // In-epoch batch i belongs to client i mod K at
                    // local index i / K, so local batch j of this
                    // client is in-epoch batch j·K + id.
                    (
                        epoch * b + local * u64::from(k) + u64::from(self.id.0),
                        local as usize,
                    )
                }
            };
            let msg = self.encrypt_step(local, step)?;
            self.sent += 1;
            self.in_flight += 1;
            out.push(Outbound::to(Party::Server, WireMessage::Batch(msg)));
        }
        Ok(out)
    }
}

/// The model a [`ServerSession`] trains.
#[derive(Debug)]
pub enum ServerModel {
    /// A fully-connected CryptoNN model.
    Mlp(CryptoMlp),
    /// A CryptoCNN instantiation.
    Cnn(CryptoCnn),
}

/// A buffered ahead-of-schedule batch message.
#[derive(Debug, Clone)]
enum PendingBatch {
    Mlp(EncryptedBatchMsg),
    Cnn(EncryptedImageBatchMsg),
}

impl PendingBatch {
    fn client(&self) -> ClientId {
        match self {
            PendingBatch::Mlp(msg) => msg.client,
            PendingBatch::Cnn(msg) => msg.client,
        }
    }
}

/// The training server: consumes encrypted batch messages, trains in
/// strict global step order, and reaches the authority only through
/// its channel.
///
/// As a state machine, the server consumes [`RegisterClient`] messages
/// (emitting [`TrainingStart`] once every expected client registered)
/// and encrypted batches — buffering a bounded window of
/// ahead-of-schedule arrivals so concurrent clients need no global
/// lockstep — and emits the per-step [`ModelDelta`], the per-epoch
/// [`EpochBarrier`], and the final [`SessionSummary`] broadcasts.
///
/// [`RegisterClient`]: crate::RegisterClient
/// [`ModelDelta`]: crate::ModelDelta
/// [`EpochBarrier`]: crate::EpochBarrier
/// [`SessionSummary`]: crate::SessionSummary
pub struct ServerSession {
    model: ServerModel,
    keys: ChannelKeyService,
    lr: f64,
    next_step: u64,
    losses: Vec<f64>,
    expected_clients: u32,
    epochs: u32,
    policy: SessionPolicy,
    registered: BTreeMap<ClientId, u64>,
    batches_per_epoch: Option<u64>,
    pending: BTreeMap<u64, PendingBatch>,
    reorder_cap: usize,
    /// Own batches consumed per client — what a rejoining client's send
    /// cursor rewinds to.
    delivered: BTreeMap<ClientId, u64>,
    /// Registered clients currently believed gone (transport-reported).
    disconnected: BTreeSet<ClientId>,
    /// Current schedule generation; stale-generation batches are
    /// silently dropped.
    gen: u32,
    /// The active re-cut schedule, if any.
    reshard: Option<ReshardSpec>,
    /// Steps this run will train in total — `b · epochs` once the
    /// schedule fixes, shrunk by re-shards.
    total_steps: Option<u64>,
    finished: bool,
}

impl core::fmt::Debug for ServerSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServerSession")
            .field("model", &self.model)
            .field("lr", &self.lr)
            .field("next_step", &self.next_step)
            .field("losses", &self.losses.len())
            .field("registered", &self.registered.len())
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

impl ServerSession {
    /// Builds the server from the session config and public parameters,
    /// with `link` as its line to the authority. `parallelism` is the
    /// server's local thread policy for the decryption loops (a runtime
    /// choice — results are bit-identical across policies).
    pub fn new(
        config: &SessionConfig,
        params: &PublicParams,
        link: Box<dyn AuthorityChannel>,
        parallelism: Parallelism,
    ) -> Self {
        let cc = CryptoNnConfig {
            level: config.level,
            fp: config.fp,
            grad_fp: config.grad_fp,
            parallelism,
        };
        let mut rng = StdRng::seed_from_u64(config.model_seed);
        let model = match &config.model {
            ModelSpec::Mlp(spec) => ServerModel::Mlp(CryptoMlp::new(
                spec.feature_dim,
                &spec.hidden,
                spec.classes,
                spec.objective,
                cc,
                &mut rng,
            )),
            ModelSpec::Cnn(CnnArch::Lenet5) => ServerModel::Cnn(CryptoCnn::lenet5(cc, &mut rng)),
            ModelSpec::Cnn(CnnArch::LenetSmall(classes)) => {
                ServerModel::Cnn(CryptoCnn::lenet_small(cc, *classes, &mut rng))
            }
        };
        // Bounded reorder window: enough for every client to run a full
        // default credit window ahead, with slack for uneven shards.
        let reorder_cap = (config.clients as usize).max(1) * (DEFAULT_CLIENT_WINDOW * 2);
        Self {
            model,
            keys: ChannelKeyService::new(params, link),
            lr: config.lr,
            next_step: 0,
            losses: Vec::new(),
            expected_clients: config.clients,
            epochs: config.epochs,
            policy: config.policy,
            registered: BTreeMap::new(),
            batches_per_epoch: None,
            pending: BTreeMap::new(),
            reorder_cap,
            delivered: BTreeMap::new(),
            disconnected: BTreeSet::new(),
            gen: 0,
            reshard: None,
            total_steps: None,
            finished: false,
        }
    }

    /// Rebuilds a server mid-run from a [`SessionCheckpoint`]:
    /// architecture and key channel from the (unchanged) config and
    /// parameters, trained state from the checkpoint. The reorder
    /// buffer restarts empty — a checkpoint never captures in-flight
    /// batches; clients re-send them from their `delivered` cursor.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Checkpoint`] for a schema this build does not
    /// speak; model-restore failures for an architecture mismatch.
    pub fn restore(
        config: &SessionConfig,
        params: &PublicParams,
        link: Box<dyn AuthorityChannel>,
        parallelism: Parallelism,
        ckpt: &SessionCheckpoint,
    ) -> Result<Self, ProtocolError> {
        if ckpt.schema != CHECKPOINT_SCHEMA {
            return Err(ProtocolError::Checkpoint(
                crate::checkpoint::CheckpointError::StaleSchema {
                    found: ckpt.schema,
                    expected: CHECKPOINT_SCHEMA,
                },
            ));
        }
        let mut session = Self::new(config, params, link, parallelism);
        match &mut session.model {
            ServerModel::Mlp(m) => m.restore(&ckpt.model)?,
            ServerModel::Cnn(_) => {
                return Err(ProtocolError::Checkpoint(
                    crate::checkpoint::CheckpointError::UnsupportedModel("cnn"),
                ))
            }
        }
        session.next_step = ckpt.next_step;
        session.losses = ckpt.losses.clone();
        session.registered = ckpt
            .registered
            .iter()
            .map(|c| (c.client, c.count))
            .collect();
        session.delivered = ckpt.delivered.iter().map(|c| (c.client, c.count)).collect();
        session.batches_per_epoch = ckpt.batches_per_epoch;
        session.total_steps = ckpt.total_steps;
        session.gen = ckpt.gen;
        session.reshard = ckpt.reshard.clone();
        Ok(session)
    }

    /// Captures the session's trained state for durable storage.
    /// `transcript_offset` records how much of the session's input
    /// stream (transcript entries or ledger lines) this state already
    /// reflects, so a resume replays only the suffix. The reorder
    /// buffer is deliberately excluded: buffered batches are re-sent by
    /// their owners on rejoin.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Checkpoint`] with
    /// [`UnsupportedModel`](crate::checkpoint::CheckpointError::UnsupportedModel)
    /// for CNN sessions; snapshot failures from the model.
    pub fn checkpoint(&self, transcript_offset: u64) -> Result<SessionCheckpoint, ProtocolError> {
        let model = match &self.model {
            ServerModel::Mlp(m) => m.snapshot()?,
            ServerModel::Cnn(_) => {
                return Err(ProtocolError::Checkpoint(
                    crate::checkpoint::CheckpointError::UnsupportedModel("cnn"),
                ))
            }
        };
        Ok(SessionCheckpoint {
            schema: CHECKPOINT_SCHEMA,
            transcript_offset,
            next_step: self.next_step,
            losses: self.losses.clone(),
            registered: self
                .registered
                .iter()
                .map(|(&client, &count)| crate::checkpoint::ClientCursor { client, count })
                .collect(),
            delivered: self
                .delivered
                .iter()
                .map(|(&client, &count)| crate::checkpoint::ClientCursor { client, count })
                .collect(),
            batches_per_epoch: self.batches_per_epoch,
            total_steps: self.total_steps,
            gen: self.gen,
            reshard: self.reshard.clone(),
            model,
        })
    }

    /// Backs the model's BSGS table cache with an on-disk directory so
    /// a restarted server with the same group parameters warm-starts
    /// its tables instead of rebuilding them.
    pub fn attach_table_cache(&mut self, dir: std::path::PathBuf) {
        match &mut self.model {
            ServerModel::Mlp(m) => m.attach_table_cache(dir),
            ServerModel::Cnn(m) => m.attach_table_cache(dir),
        }
    }

    /// The trained MLP, if this session trains one.
    pub fn mlp(&self) -> Option<&CryptoMlp> {
        match &self.model {
            ServerModel::Mlp(m) => Some(m),
            ServerModel::Cnn(_) => None,
        }
    }

    /// The trained CNN, if this session trains one.
    pub fn cnn(&self) -> Option<&CryptoCnn> {
        match &self.model {
            ServerModel::Cnn(m) => Some(m),
            ServerModel::Mlp(_) => None,
        }
    }

    /// Mutable access to the trained MLP (plaintext prediction passes).
    pub fn mlp_mut(&mut self) -> Option<&mut CryptoMlp> {
        match &mut self.model {
            ServerModel::Mlp(m) => Some(m),
            ServerModel::Cnn(_) => None,
        }
    }

    /// Consumes the session, returning the trained MLP if this session
    /// trained one.
    pub fn into_mlp(self) -> Option<CryptoMlp> {
        match self.model {
            ServerModel::Mlp(m) => Some(m),
            ServerModel::Cnn(_) => None,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.next_step
    }

    /// Per-step secure losses so far.
    pub fn losses(&self) -> &[f64] {
        &self.losses
    }

    /// Ahead-of-schedule batches currently held in the reorder buffer.
    pub fn pending_batches(&self) -> usize {
        self.pending.len()
    }

    /// Empties the reorder buffer. A restarted daemon calls this after
    /// replaying its ledger suffix: batches parked there were never
    /// trained, so the reconnecting clients (rewound to `delivered`)
    /// will resend them.
    pub fn purge_pending(&mut self) {
        self.pending.clear();
    }

    /// True once the final [`SessionSummary`]
    /// was emitted.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The configured churn policy.
    pub fn policy(&self) -> SessionPolicy {
        self.policy
    }

    /// The current schedule generation (0 until a re-shard happens).
    pub fn generation(&self) -> u32 {
        self.gen
    }

    /// The active re-cut schedule, if a re-shard happened.
    pub fn reshard_spec(&self) -> Option<&ReshardSpec> {
        self.reshard.as_ref()
    }

    /// Total steps this run will train, once the schedule is fixed
    /// (shrunk from `b · epochs` by re-shards).
    pub fn total_steps(&self) -> Option<u64> {
        self.total_steps
    }

    /// Own batches consumed for one client — the cursor a rejoin
    /// rewinds that client to.
    pub fn delivered(&self, client: ClientId) -> u64 {
        self.delivered.get(&client).copied().unwrap_or(0)
    }

    /// Marks every registered client as disconnected — what a restarted
    /// daemon does after restoring a session, before any client has
    /// reconnected. (A pure-replay resume skips this: its "clients" are
    /// the recorded message stream.)
    pub fn mark_all_disconnected(&mut self) {
        self.disconnected = self.registered.keys().copied().collect();
    }

    /// Transport-level notice that a client's connection is gone.
    ///
    /// Under the default fail-fast policy this is fatal (the seed
    /// behavior). Under a resume policy the client is marked away and
    /// its in-flight batches are dropped from the reorder buffer (on
    /// rejoin it re-sends from its `delivered` cursor); if the policy
    /// re-shards and the schedule is already stalled on a disconnected
    /// owner, the re-cut happens now and is broadcast.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Transport`] under fail-fast;
    /// [`ProtocolError::InvalidConfig`] if a re-shard finds no
    /// survivors.
    pub fn client_gone(&mut self, client: ClientId) -> Result<Vec<Outbound>, ProtocolError> {
        if !self.policy.resumes() {
            return Err(ProtocolError::Transport(format!(
                "{client} disconnected mid-session"
            )));
        }
        if self.registered.contains_key(&client) {
            self.disconnected.insert(client);
        }
        self.pending.retain(|_, batch| batch.client() != client);
        let mut out = Vec::new();
        self.maybe_reshard(&mut out)?;
        Ok(out)
    }

    /// Which client the current schedule expects to supply `step`.
    fn owner(&self, step: u64) -> Option<ClientId> {
        let b = self.batches_per_epoch?;
        if let Some(spec) = &self.reshard {
            if step >= spec.from_step {
                return spec.owner(step);
            }
        }
        Some(ClientId(
            ((step % b) % u64::from(self.expected_clients.max(1))) as u32,
        ))
    }

    /// Re-cuts the schedule if it is stalled on a disconnected owner
    /// and the policy allows it: the dropped client's unsent batches
    /// leave the run, survivors' remaining batches are reassigned
    /// round-robin from `next_step`, the reorder buffer is purged (its
    /// step tags belong to the old generation), and the spec is
    /// broadcast so every survivor re-syncs deterministically.
    fn maybe_reshard(&mut self, out: &mut Vec<Outbound>) -> Result<(), ProtocolError> {
        if !self.policy.reshards() || self.finished {
            return Ok(());
        }
        let Some(total) = self.total_steps else {
            return Ok(());
        };
        if self.next_step >= total {
            return Ok(());
        }
        let Some(owner) = self.owner(self.next_step) else {
            return Ok(());
        };
        if !self.disconnected.contains(&owner) {
            return Ok(());
        }
        let survivors: Vec<ReshardEntry> = self
            .registered
            .iter()
            .filter(|(client, _)| !self.disconnected.contains(client))
            .map(|(client, shard_batches)| {
                let delivered = self.delivered.get(client).copied().unwrap_or(0);
                // A client's total stake: its base schedule allotment,
                // or whatever the previous re-shard left it.
                let stake = match &self.reshard {
                    Some(old) => old
                        .survivor(*client)
                        .map(|e| e.delivered + e.remaining)
                        .unwrap_or(delivered),
                    None => shard_batches * u64::from(self.epochs),
                };
                ReshardEntry {
                    client: *client,
                    delivered,
                    remaining: stake.saturating_sub(delivered),
                }
            })
            .collect();
        if survivors.is_empty() {
            return Err(ProtocolError::InvalidConfig(
                "every client disconnected; nothing to re-shard onto".into(),
            ));
        }
        self.gen += 1;
        let spec = ReshardSpec {
            gen: self.gen,
            from_step: self.next_step,
            survivors,
        };
        self.pending.clear();
        self.total_steps = Some(spec.total_steps());
        self.reshard = Some(spec.clone());
        out.push(Outbound::broadcast(WireMessage::Reshard(spec)));
        self.maybe_finish(out);
        Ok(())
    }

    /// Emits the summary once the (possibly re-cut) schedule is done.
    fn maybe_finish(&mut self, out: &mut Vec<Outbound>) {
        if let (Some(total), false) = (self.total_steps, self.finished) {
            if self.next_step >= total {
                self.finished = true;
                out.push(Outbound::broadcast(WireMessage::Summary(self.summary())));
            }
        }
    }

    fn check_order(&self, step: u64) -> Result<(), ProtocolError> {
        if step != self.next_step {
            return Err(ProtocolError::OutOfOrder {
                expected: self.next_step,
                got: step,
            });
        }
        Ok(())
    }

    /// The shared step bookkeeping: advance the schedule, log the loss,
    /// emit the metric broadcast.
    fn finish_step(&mut self, step: u64, client: ClientId, loss: f64) -> ModelDelta {
        self.next_step += 1;
        self.losses.push(loss);
        *self.delivered.entry(client).or_insert(0) += 1;
        ModelDelta { step, client, loss }
    }

    /// One Algorithm-2 training step on an encrypted MLP batch message.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] off schedule;
    /// [`ProtocolError::InvalidConfig`] if this session trains a CNN;
    /// training failures otherwise. The model is unchanged on error.
    pub fn handle_batch(&mut self, msg: &EncryptedBatchMsg) -> Result<ModelDelta, ProtocolError> {
        self.check_order(msg.step)?;
        let out = match &mut self.model {
            ServerModel::Mlp(m) => m.train_encrypted_batch(&self.keys, &msg.batch, self.lr)?,
            ServerModel::Cnn(_) => {
                return Err(ProtocolError::InvalidConfig(
                    "MLP batch sent to a CNN session".into(),
                ))
            }
        };
        Ok(self.finish_step(msg.step, msg.client, out.loss))
    }

    /// One training step on an encrypted CNN batch message.
    ///
    /// # Errors
    ///
    /// As [`handle_batch`](Self::handle_batch), with the model kinds
    /// swapped.
    pub fn handle_image_batch(
        &mut self,
        msg: &EncryptedImageBatchMsg,
    ) -> Result<ModelDelta, ProtocolError> {
        self.check_order(msg.step)?;
        let out = match &mut self.model {
            ServerModel::Cnn(m) => m.train_encrypted_batch(&self.keys, &msg.batch, self.lr)?,
            ServerModel::Mlp(_) => {
                return Err(ProtocolError::InvalidConfig(
                    "CNN batch sent to an MLP session".into(),
                ))
            }
        };
        Ok(self.finish_step(msg.step, msg.client, out.loss))
    }

    /// The event-driven surface: registrations and encrypted batches
    /// in; schedule-start, per-step metric, epoch-barrier and final
    /// summary broadcasts out.
    ///
    /// Batches ahead of the schedule are buffered (up to the reorder
    /// cap) and trained the moment their step comes up, so concurrent
    /// clients need no lockstep with the server.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::OutOfOrder`] for a step already consumed (or
    /// duplicated), [`ProtocolError::TooFarAhead`] past the reorder
    /// window, [`ProtocolError::Unexpected`] for foreign message kinds,
    /// and training failures. The model is unchanged on error.
    pub fn handle_message(&mut self, msg: &WireMessage) -> Result<Vec<Outbound>, ProtocolError> {
        match msg {
            WireMessage::Register(reg) => self.handle_register(reg),
            WireMessage::Batch(batch) => {
                self.accept_batch(batch.step, batch.gen, PendingBatch::Mlp(batch.clone()))
            }
            WireMessage::ImageBatch(batch) => {
                self.accept_batch(batch.step, batch.gen, PendingBatch::Cnn(batch.clone()))
            }
            other => Err(ProtocolError::Unexpected {
                role: "server",
                kind: other.kind(),
            }),
        }
    }

    fn handle_register(&mut self, reg: &RegisterClient) -> Result<Vec<Outbound>, ProtocolError> {
        if reg.client.0 >= self.expected_clients {
            return Err(ProtocolError::InvalidConfig(format!(
                "{} registered but the session has {} clients",
                reg.client, self.expected_clients
            )));
        }
        if let Some(&known) = self.registered.get(&reg.client) {
            // A re-registration is a rejoin under a resume policy, a
            // protocol violation under fail-fast (the seed behavior).
            if !self.policy.resumes() {
                return Err(ProtocolError::InvalidConfig(format!(
                    "{} registered twice",
                    reg.client
                )));
            }
            if known != reg.batches_per_epoch {
                return Err(ProtocolError::InvalidConfig(format!(
                    "{} rejoined with {} batches per epoch, registered {}",
                    reg.client, reg.batches_per_epoch, known
                )));
            }
            self.disconnected.remove(&reg.client);
            // A rejoin can beat the dead connection's disconnect
            // notice (which a registered fresh writer then voids), so
            // the purge in `client_gone` may never have run: any of
            // this client's batches still buffered are remnants of the
            // old connection, and the client is about to re-send those
            // very steps — freshly encrypted, which the duplicate-step
            // check would refuse as a substitution. Purging here is
            // idempotent with the notice-first ordering.
            self.pending.retain(|_, batch| batch.client() != reg.client);
            // Before the schedule is fixed there is nothing to re-sync;
            // the Start broadcast will reach the rejoined connection.
            let Some(batches_per_epoch) = self.batches_per_epoch else {
                return Ok(Vec::new());
            };
            return Ok(vec![Outbound::to(
                Party::Client(reg.client.0),
                WireMessage::Resume(ResumeMsg {
                    client: reg.client,
                    delivered: self.delivered(reg.client),
                    batches_per_epoch,
                    gen: self.gen,
                    reshard: self.reshard.clone(),
                }),
            )]);
        }
        self.registered.insert(reg.client, reg.batches_per_epoch);
        if self.registered.len() == self.expected_clients as usize {
            let batches_per_epoch: u64 = self.registered.values().sum();
            if batches_per_epoch == 0 {
                return Err(ProtocolError::InvalidConfig(
                    "no batches registered across all clients".into(),
                ));
            }
            self.batches_per_epoch = Some(batches_per_epoch);
            self.total_steps = Some(batches_per_epoch * u64::from(self.epochs));
            return Ok(vec![Outbound::broadcast(WireMessage::Start(
                TrainingStart { batches_per_epoch },
            ))]);
        }
        Ok(Vec::new())
    }

    fn accept_batch(
        &mut self,
        step: u64,
        gen: u32,
        batch: PendingBatch,
    ) -> Result<Vec<Outbound>, ProtocolError> {
        // No training before the schedule is fixed: a peer that skips
        // registration gets a typed refusal, not free compute on a
        // session that can never emit its epoch barriers or summary.
        if self.batches_per_epoch.is_none() {
            return Err(ProtocolError::MissingMessage(
                "Register from every client (schedule not fixed)",
            ));
        }
        // A batch tagged with an older generation was in flight when
        // the schedule was re-cut: its step index is meaningless now,
        // and its owner will re-send the data under the new schedule.
        if gen != self.gen {
            return Ok(Vec::new());
        }
        // Nothing trains past the summary (a re-cut schedule can end
        // below `b · epochs`, so late stragglers are possible).
        if self.finished {
            return Ok(Vec::new());
        }
        if step > self.next_step {
            // Duplicate-step check first, and without touching the
            // buffer: the state must be unchanged on error, or a driver
            // tolerating OutOfOrder would train a substituted batch.
            if self.pending.contains_key(&step) {
                return Err(ProtocolError::OutOfOrder {
                    expected: self.next_step,
                    got: step,
                });
            }
            if self.pending.len() >= self.reorder_cap {
                return Err(ProtocolError::TooFarAhead {
                    step,
                    expected: self.next_step,
                    cap: self.reorder_cap,
                });
            }
            self.pending.insert(step, batch);
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        self.train_one(batch, &mut out)?;
        // Drain every buffered batch whose slot just opened.
        while let Some(next) = self.pending.remove(&self.next_step) {
            self.train_one(next, &mut out)?;
        }
        // The drain may have run the schedule into a disconnected
        // owner's slot: re-cut now rather than deadlock waiting for a
        // batch that can never come.
        self.maybe_reshard(&mut out)?;
        Ok(out)
    }

    fn train_one(
        &mut self,
        batch: PendingBatch,
        out: &mut Vec<Outbound>,
    ) -> Result<(), ProtocolError> {
        let delta = match &batch {
            PendingBatch::Mlp(msg) => self.handle_batch(msg)?,
            PendingBatch::Cnn(msg) => self.handle_image_batch(msg)?,
        };
        out.push(Outbound::broadcast(WireMessage::Delta(delta)));
        if let Some(b) = self.batches_per_epoch {
            if self.next_step.is_multiple_of(b) {
                let epoch = (self.next_step / b - 1) as u32;
                out.push(Outbound::broadcast(WireMessage::Epoch(EpochBarrier {
                    epoch,
                })));
            }
        }
        self.maybe_finish(out);
        Ok(())
    }

    /// The session's final fingerprint: step count, loss trajectory,
    /// and the first-layer parameters (the encrypted-path weights).
    pub fn summary(&self) -> SessionSummary {
        let (w1, b1) = match &self.model {
            ServerModel::Mlp(m) => (
                m.first_layer().weights().clone(),
                m.first_layer().bias().clone(),
            ),
            ServerModel::Cnn(m) => {
                let bias = m.first_layer().bias();
                (
                    m.first_layer().filters().clone(),
                    Matrix::from_rows(&[bias]),
                )
            }
        };
        SessionSummary {
            steps: self.next_step,
            losses: self.losses.clone(),
            final_w1: w1,
            final_b1: b1,
        }
    }
}

/// Reshapes a flat `(batch, c·h·w)` feature matrix into the `(batch,
/// c, h, w)` tensor the CNN client path encrypts — the bridge between
/// [`Dataset`](cryptonn_data::Dataset) rows and Algorithm 3 windows.
///
/// # Panics
///
/// Panics if `x.cols() != c * h * w`.
pub fn rows_to_images(x: &Matrix<f64>, c: usize, h: usize, w: usize) -> Tensor4 {
    assert_eq!(x.cols(), c * h * w, "row length must equal c*h*w");
    Tensor4::from_vec(x.rows(), c, h, w, x.as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::MlpSpec;
    use crate::runner::mlp_session_config;
    use cryptonn_core::Objective;
    use std::sync::Arc;

    fn config() -> SessionConfig {
        mlp_session_config(
            MlpSpec {
                feature_dim: 3,
                hidden: vec![2],
                classes: 2,
                objective: Objective::SoftmaxCrossEntropy,
            },
            1,
            1,
            2,
            0.5,
        )
    }

    /// A channel that forwards to an authority session and counts the
    /// exchanges, to observe the mpk cache behavior.
    struct CountingChannel {
        authority: Arc<AuthoritySession>,
        exchanges: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl AuthorityChannel for CountingChannel {
        fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
            self.exchanges
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            Ok(self.authority.handle(&req))
        }
    }

    /// Requesting an mpk dimension beyond those in PublicParams goes
    /// over the wire once, then serves from cache.
    #[test]
    fn uncached_mpk_dimension_is_fetched_then_cached() {
        let config = config();
        let authority = Arc::new(AuthoritySession::new(&config));
        let params = authority.public_params(3, 2, &config);
        let exchanges = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let service = ChannelKeyService::new(
            &params,
            Box::new(CountingChannel {
                authority: Arc::clone(&authority),
                exchanges: Arc::clone(&exchanges),
            }),
        );
        let count = || exchanges.load(std::sync::atomic::Ordering::SeqCst);

        // Published dimensions never touch the wire.
        assert_eq!(service.feip_public_key(3).unwrap().dimension(), 3);
        assert_eq!(service.feip_public_key(2).unwrap().dimension(), 2);
        assert_eq!(count(), 0);

        // An unpublished dimension is one exchange, then cached — and
        // identical to what the authority would hand out directly.
        let wire = service.feip_public_key(5).unwrap();
        assert_eq!(count(), 1);
        assert_eq!(wire, authority.authority().feip_public_key(5));
        let again = service.feip_public_key(5).unwrap();
        assert_eq!(count(), 1, "second lookup must hit the cache");
        assert_eq!(again, wire);
    }

    /// The authority state machine answers requests and refuses every
    /// other message kind.
    #[test]
    fn authority_state_machine_is_request_response_only() {
        let config = config();
        let authority = AuthoritySession::new(&config);
        let out = authority
            .handle_message(&WireMessage::KeyRequest(KeyRequest::FeipMpk(3)))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, Party::Server);
        assert!(matches!(
            out[0].msg,
            WireMessage::KeyResponse(KeyResponse::FeipMpk(_))
        ));
        assert!(matches!(
            authority.handle_message(&WireMessage::Config(config.clone())),
            Err(ProtocolError::Unexpected {
                role: "authority",
                ..
            })
        ));
    }

    /// `first_layer_dims` matches the actual first-layer geometry the
    /// server builds, so the authority publishes usable FEIP instances.
    #[test]
    fn model_dims_match_built_models() {
        use cryptonn_group::SecurityLevel;
        use cryptonn_smc::FixedPoint;
        let cc = CryptoNnConfig {
            level: SecurityLevel::Bits64,
            fp: FixedPoint::TWO_DECIMALS,
            grad_fp: FixedPoint::new(10_000),
            parallelism: Parallelism::Serial,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let small = CryptoCnn::lenet_small(cc, 3, &mut rng);
        let spec = small.first_layer().spec();
        let (dim, classes) = ModelSpec::Cnn(CnnArch::LenetSmall(3)).first_layer_dims();
        assert_eq!(dim, spec.kh * spec.kw);
        assert_eq!(classes, 3);
    }
}
