//! The deterministic in-process driver for a multi-client training
//! session.
//!
//! [`TrainingSessionRunner`] shards a dataset across `K` clients and
//! then *pumps messages*: every protocol decision — who registers,
//! which global step a batch occupies, when an epoch barrier or the
//! final summary fires — lives in the role state machines
//! ([`ClientSession`], [`ServerSession`], [`AuthoritySession`]), the
//! same ones the transcript replayer and the networked daemons drive.
//! The runner only routes [`Outbound`]s, records them into a
//! replayable [`Transcript`], and (optionally) runs the client side on
//! a producer thread so encryption of batch `t+1` overlaps training of
//! batch `t`.
//!
//! ## Determinism
//!
//! The final model is a pure function of the [`SessionConfig`] and the
//! dataset, independent of the client count `K`, the pipelining mode,
//! and every thread-count knob:
//!
//! - batches are assigned round-robin by in-epoch index (`batch i`
//!   belongs to client `i mod K`); each client emits its shard in local
//!   order, tagging each batch with its global step, and the server
//!   trains in strict global step order (reordering bounded
//!   ahead-of-schedule bursts), so the trained weights never depend on
//!   arrival interleavings;
//! - FEIP/FEBO decryption is exact on the quantized integers, so the
//!   decrypted training signal carries no trace of which client's
//!   randomness produced a ciphertext;
//! - with pipelining on, the whole client side runs sequentially on one
//!   producer thread, driven by the same broadcast stream in the same
//!   order as the serial pump, so client RNGs — and even the recorded
//!   transcript — are bit-identical either way.
//!
//! This is the client-count-invariance property the equivalence tests
//! pin down: `K ∈ {1, 2, 4}` produce bit-identical final weights.

use cryptonn_data::Dataset;
use cryptonn_matrix::Matrix;
use cryptonn_parallel::Parallelism;
use parking_lot::Mutex;

use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::Arc;

use crate::checkpoint::CheckpointStore;
use crate::error::ProtocolError;
use crate::messages::{
    ClientId, KeyRequest, KeyResponse, MlpSpec, ModelSpec, PublicParams, SessionConfig, SessionId,
    SessionSummary, WireMessage,
};
use crate::session::{AuthorityChannel, AuthoritySession, ClientSession, Outbound, ServerSession};
use crate::transcript::{Party, Transcript};

/// Scheduling knobs that are *not* part of the wire-level session
/// agreement: thread policies and whether to record or pipeline.
/// Everything that affects the trained weights lives in
/// [`SessionConfig`] instead.
#[derive(Debug, Clone, Copy)]
pub struct RunnerOptions {
    /// Run the client side on a producer thread so encryption overlaps
    /// server training (bit-identical results either way).
    pub pipelined: bool,
    /// Thread policy for client encryption and server decryption
    /// fan-outs.
    pub parallelism: Parallelism,
    /// Record the message stream into the outcome's transcript.
    /// Disabled for pure-throughput runs.
    pub record: bool,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        Self {
            pipelined: true,
            parallelism: Parallelism::Serial,
            record: true,
        }
    }
}

/// The result of a completed session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The recorded message stream (empty when recording was off).
    pub transcript: Transcript,
    /// The final model fingerprint (also the transcript's last message).
    pub summary: SessionSummary,
    /// The server session, with the trained model inside.
    pub server: ServerSession,
}

/// The live channel: forwards requests to the in-process authority and
/// records both directions of the exchange.
struct RecordingChannel {
    authority: Arc<AuthoritySession>,
    transcript: Arc<Mutex<Transcript>>,
    record: bool,
}

impl AuthorityChannel for RecordingChannel {
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
        let resp = self.authority.handle(&req);
        if self.record {
            let mut t = self.transcript.lock();
            t.push(
                Party::Server,
                Party::Authority,
                WireMessage::KeyRequest(req),
            );
            t.push(
                Party::Authority,
                Party::Server,
                WireMessage::KeyResponse(resp.clone()),
            );
        }
        Ok(resp)
    }
}

/// Splits `dataset` into `batch_size`-row mini-batches and assigns them
/// round-robin: in-epoch batch `i` belongs to client `i mod k`, at
/// local index `i / k`. This is the data-owner assignment every driver
/// shares — the runner shards in-process, the networked tests hand
/// each client driver its shard.
pub fn round_robin_shards(
    dataset: &Dataset,
    batch_size: usize,
    k: usize,
) -> Vec<Vec<(Matrix<f64>, Matrix<f64>)>> {
    let mut shards: Vec<Vec<(Matrix<f64>, Matrix<f64>)>> = vec![Vec::new(); k];
    for (i, batch) in dataset.batches(batch_size).into_iter().enumerate() {
        shards[i % k].push(batch);
    }
    shards
}

/// The deterministic driver: wires authority, clients and server
/// together and pumps the session's message stream to completion.
#[derive(Debug, Clone)]
pub struct TrainingSessionRunner {
    config: SessionConfig,
    options: RunnerOptions,
    checkpoints: Option<CheckpointPlan>,
}

/// Where and how often the runner durably checkpoints the server.
#[derive(Debug, Clone)]
struct CheckpointPlan {
    store: CheckpointStore,
    session: SessionId,
    every_steps: u64,
}

/// Everything the server-side pump loop shares between the serial and
/// pipelined drivers.
struct ServerPump {
    server: ServerSession,
    transcript: Arc<Mutex<Transcript>>,
    record: bool,
    summary: Option<SessionSummary>,
    checkpoints: Option<(CheckpointPlan, SessionConfig)>,
    last_checkpoint_step: u64,
}

impl ServerPump {
    /// Feeds one client message into the server state machine and
    /// returns the broadcasts it emitted.
    fn feed(&mut self, from: ClientId, msg: &WireMessage) -> Result<Vec<Outbound>, ProtocolError> {
        if self.record {
            self.transcript
                .lock()
                .push(Party::Client(from.0), Party::Server, msg.clone());
        }
        let outs = self.server.handle_message(msg)?;
        for ob in &outs {
            if self.record {
                self.transcript
                    .lock()
                    .push(Party::Server, ob.to, ob.msg.clone());
            }
            if let WireMessage::Summary(s) = &ob.msg {
                self.summary = Some(s.clone());
            }
        }
        self.maybe_checkpoint()?;
        Ok(outs)
    }

    /// Durably checkpoints the server once it is `every_steps` past the
    /// previous checkpoint — but only at a *clean* cut: nothing parked
    /// in the reorder buffer (a checkpoint never captures in-flight
    /// batches, so a cut with pending batches would lose them from the
    /// transcript-suffix resume) and the run not finished (a finished
    /// run needs no durability).
    fn maybe_checkpoint(&mut self) -> Result<(), ProtocolError> {
        let Some((plan, config)) = &self.checkpoints else {
            return Ok(());
        };
        let step = self.server.steps();
        if step < self.last_checkpoint_step + plan.every_steps
            || self.server.pending_batches() != 0
            || self.server.is_finished()
        {
            return Ok(());
        }
        let offset = self.transcript.lock().len() as u64;
        let ckpt = self.server.checkpoint(offset)?;
        plan.store.save(plan.session, config, &ckpt)?;
        self.last_checkpoint_step = step;
        Ok(())
    }
}

impl TrainingSessionRunner {
    /// Creates a runner for the given wire-level session agreement.
    pub fn new(config: SessionConfig) -> Self {
        Self {
            config,
            options: RunnerOptions::default(),
            checkpoints: None,
        }
    }

    /// Replaces the local scheduling options.
    pub fn with_options(mut self, options: RunnerOptions) -> Self {
        self.options = options;
        self
    }

    /// Durably checkpoints the server into `store` under `session`,
    /// every `every_steps` trained steps (at the next clean cut — see
    /// [`ServerSession::checkpoint`]). The recorded transcript offset
    /// in each checkpoint lets [`resume_from_checkpoint`] replay only
    /// the suffix.
    ///
    /// [`resume_from_checkpoint`]: crate::resume_from_checkpoint
    pub fn with_checkpoints(
        mut self,
        store: CheckpointStore,
        session: SessionId,
        every_steps: u64,
    ) -> Self {
        self.checkpoints = Some(CheckpointPlan {
            store,
            session,
            every_steps: every_steps.max(1),
        });
        self
    }

    /// The wire-level session agreement.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Runs a full multi-client MLP training session over `dataset`.
    ///
    /// The dataset is batched in order (`batch_size` rows each), and
    /// batch `i` of each epoch is owned — and encrypted — by client
    /// `i mod K`. Labels are one-hot encoded by the owning client, per
    /// the paper's client-side pre-processing.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::InvalidConfig`] for an unusable config (zero
    /// clients, more clients than batches, non-MLP model); training and
    /// encryption failures otherwise.
    pub fn run_mlp(&self, dataset: &Dataset) -> Result<SessionOutcome, ProtocolError> {
        let spec = match &self.config.model {
            ModelSpec::Mlp(spec) => spec.clone(),
            ModelSpec::Cnn(_) => {
                return Err(ProtocolError::InvalidConfig(
                    "run_mlp requires an MLP model spec".into(),
                ))
            }
        };
        if spec.feature_dim != dataset.feature_dim() || spec.classes != dataset.classes() {
            return Err(ProtocolError::InvalidConfig(format!(
                "model expects {}→{} but dataset is {}→{}",
                spec.feature_dim,
                spec.classes,
                dataset.feature_dim(),
                dataset.classes()
            )));
        }
        let k = self.config.clients as usize;
        if k == 0 {
            return Err(ProtocolError::InvalidConfig("zero clients".into()));
        }
        if self.config.batch_size == 0 {
            return Err(ProtocolError::InvalidConfig("zero batch size".into()));
        }
        if self.config.epochs == 0 {
            return Err(ProtocolError::InvalidConfig("zero epochs".into()));
        }
        let shards = round_robin_shards(dataset, self.config.batch_size as usize, k);
        if shards.iter().any(Vec::is_empty) {
            return Err(ProtocolError::InvalidConfig(format!(
                "{} clients but only {} batches to shard",
                k,
                shards.iter().map(Vec::len).sum::<usize>()
            )));
        }

        let record = self.options.record;
        let transcript = Arc::new(Mutex::new(Transcript::new()));
        if record {
            transcript.lock().push(
                Party::Scheduler,
                Party::Broadcast,
                WireMessage::Config(self.config.clone()),
            );
        }

        let clients: Vec<ClientSession> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                ClientSession::new(
                    ClientId(i as u32),
                    self.config.client_seed_base + i as u64,
                    self.options.parallelism,
                    shard,
                )
            })
            .collect();

        // --- authority setup + key distribution ----------------------
        let authority = Arc::new(AuthoritySession::new(&self.config));
        let params = authority.public_params_for(&self.config);
        if record {
            transcript.lock().push(
                Party::Authority,
                Party::Broadcast,
                WireMessage::PublicParams(params.clone()),
            );
        }

        let server = ServerSession::new(
            &self.config,
            &params,
            Box::new(RecordingChannel {
                authority: Arc::clone(&authority),
                transcript: Arc::clone(&transcript),
                record,
            }),
            self.options.parallelism,
        );
        let mut pump = ServerPump {
            server,
            transcript: Arc::clone(&transcript),
            record,
            summary: None,
            checkpoints: self
                .checkpoints
                .clone()
                .map(|plan| (plan, self.config.clone())),
            last_checkpoint_step: 0,
        };

        if self.options.pipelined {
            run_pipelined(&self.config, &params, clients, &mut pump)?;
        } else {
            run_serial(&self.config, &params, clients, &mut pump)?;
        }

        let summary = pump
            .summary
            .ok_or(ProtocolError::MissingMessage("SessionSummary"))?;
        // The server's recording channel keeps its Arc alive, so move
        // the record out rather than cloning it; the channel sees an
        // empty transcript from here on, which only affects post-session
        // handle_batch calls on the returned server (unrecorded anyway).
        let transcript = std::mem::take(&mut *transcript.lock());
        Ok(SessionOutcome {
            transcript,
            summary,
            server: pump.server,
        })
    }
}

/// Delivers one broadcast to every client (in client order) and queues
/// whatever they emit — the client half of both pump modes, kept
/// identical so the two modes produce the same message sequence.
fn deliver_to_clients(
    clients: &mut [ClientSession],
    msg: &WireMessage,
    queue: &mut VecDeque<(ClientId, WireMessage)>,
) -> Result<(), ProtocolError> {
    for client in clients.iter_mut() {
        let id = client.id();
        for ob in client.handle_message(msg)? {
            queue.push_back((id, ob.msg));
        }
    }
    Ok(())
}

/// The single-threaded pump: one deterministic event loop.
fn run_serial(
    config: &SessionConfig,
    params: &PublicParams,
    mut clients: Vec<ClientSession>,
    pump: &mut ServerPump,
) -> Result<(), ProtocolError> {
    let mut queue: VecDeque<(ClientId, WireMessage)> = VecDeque::new();
    let config_msg = WireMessage::Config(config.clone());
    let params_msg = WireMessage::PublicParams(params.clone());
    deliver_to_clients(&mut clients, &config_msg, &mut queue)?;
    deliver_to_clients(&mut clients, &params_msg, &mut queue)?;

    while let Some((from, msg)) = queue.pop_front() {
        for ob in pump.feed(from, &msg)? {
            deliver_to_clients(&mut clients, &ob.msg, &mut queue)?;
        }
        if pump.summary.is_some() {
            return Ok(());
        }
    }
    // The queue drained without a summary: the state machines stalled,
    // which the credit-window invariant rules out for a valid config —
    // surface it rather than loop forever.
    Err(ProtocolError::MissingMessage("SessionSummary"))
}

/// The pipelined pump: the whole client side (encryption included) runs
/// on one producer thread, fed the same broadcast stream in the same
/// order as the serial pump, while the server trains on the calling
/// thread. The exchanged message sequence — and therefore the recorded
/// transcript and the trained weights — is bit-identical to
/// [`run_serial`].
fn run_pipelined(
    config: &SessionConfig,
    params: &PublicParams,
    mut clients: Vec<ClientSession>,
    pump: &mut ServerPump,
) -> Result<(), ProtocolError> {
    let k = clients.len();
    // Clients keep at most `window` batches in flight each, plus the
    // initial registrations: the channel never fills beyond that, so
    // the bound is backpressure against a runaway producer, not a
    // scheduling constraint.
    let depth = k * (crate::session::DEFAULT_CLIENT_WINDOW + 1);
    let (batch_tx, batch_rx) =
        mpsc::sync_channel::<Result<(ClientId, WireMessage), ProtocolError>>(depth);
    let (bcast_tx, bcast_rx) = mpsc::channel::<WireMessage>();

    let config_msg = WireMessage::Config(config.clone());
    let params_msg = WireMessage::PublicParams(params.clone());

    std::thread::scope(|scope| {
        let producer = scope.spawn(move || {
            let mut deliver = |msg: &WireMessage| -> Result<(), ()> {
                let mut queue = VecDeque::new();
                if let Err(e) = deliver_to_clients(&mut clients, msg, &mut queue) {
                    let _ = batch_tx.send(Err(e));
                    return Err(());
                }
                for item in queue {
                    // A closed channel means the server side bailed;
                    // stop encrypting immediately.
                    batch_tx.send(Ok(item)).map_err(|_| ())?;
                }
                Ok(())
            };
            if deliver(&config_msg).is_err() || deliver(&params_msg).is_err() {
                return;
            }
            while let Ok(msg) = bcast_rx.recv() {
                let done = matches!(msg, WireMessage::Summary(_));
                if deliver(&msg).is_err() || done {
                    return;
                }
            }
        });

        let mut failure: Option<ProtocolError> = None;
        while let Ok(item) = batch_rx.recv() {
            let (from, msg) = match item {
                Ok(pair) => pair,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            match pump.feed(from, &msg) {
                Ok(outs) => {
                    for ob in outs {
                        // The producer hanging up early (all clients
                        // finished) makes trailing broadcasts moot.
                        let _ = bcast_tx.send(ob.msg);
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            if pump.summary.is_some() {
                break;
            }
        }
        // Dropping our channel ends stops the producer: its next send
        // or recv fails and it returns.
        drop(batch_rx);
        drop(bcast_tx);
        if let Err(payload) = producer.join() {
            std::panic::resume_unwind(payload);
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    })
}

/// A convenience [`SessionConfig`] for MLP sessions: fills the crypto
/// and seed fields with the workspace's fast-test defaults so tests
/// and examples only state what varies.
pub fn mlp_session_config(
    spec: MlpSpec,
    clients: u32,
    epochs: u32,
    batch_size: u32,
    lr: f64,
) -> SessionConfig {
    use cryptonn_fe::PermittedFunctions;
    use cryptonn_group::SecurityLevel;
    use cryptonn_smc::FixedPoint;
    SessionConfig {
        level: SecurityLevel::Bits64,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(spec),
        lr,
        epochs,
        batch_size,
        clients,
        authority_seed: 1009,
        model_seed: 2017,
        client_seed_base: 4001,
        policy: crate::messages::SessionPolicy::FailFast,
    }
}
