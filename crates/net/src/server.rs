//! The concurrent multi-session training server.
//!
//! [`SessionServer`] multiplexes many independent training sessions
//! over one listener:
//!
//! - **registry** — sessions are keyed by [`SessionId`]; the first
//!   client's `Hello` creates the session (fixing its config and
//!   opening the authority link), later clients must present the same
//!   config bit-for-bit;
//! - **one reactor loop for every connection** — the listener and all
//!   accepted sockets are multiplexed by a [`Reactor`] running
//!   `SessionApp`: admission (`Hello`, join-or-create, rejoin) happens
//!   on the loop thread, session creation (authority I/O, table
//!   builds) on a short-lived creator thread, so no connection ever
//!   pins a thread (DESIGN.md §15.3);
//! - **bounded inbound queues** — every session has one
//!   `sync_channel` of events; when its worker is busy training, the
//!   loop parks the frame that found the queue full and stops reading
//!   that connection, which backpressures straight down to the
//!   client's socket; the worker nudges the loop once it has room;
//! - **per-session worker** — one thread per live session (registered
//!   in a joinable [`WorkerSet`]) pumps the shared [`ServerSession`]
//!   state machine (the same one the deterministic runner and the
//!   replayer drive) and routes its outbound messages: broadcasts to
//!   every connected client, addressed frames (the `Resume` barrier)
//!   to their one recipient;
//! - **failure isolation** — under the default fail-fast policy a
//!   client disconnecting mid-session (or a training error) fails
//!   *its* session: remaining members get a `Reject` frame and the
//!   session is removed; other sessions never observe it;
//! - **churn tolerance** — under a resume policy a disconnect instead
//!   parks the session: the departed client's in-flight batches are
//!   dropped, a rejoining client is rewound to what the server
//!   actually consumed, and (with re-sharding enabled) a stalled
//!   schedule is re-cut onto the survivors;
//! - **durability** — with [`ServerOptions::durability`] set, every
//!   inbound event is appended to a per-session write-ahead ledger
//!   (length-prefixed binary records) *before* it is processed, and
//!   the trained state is checkpointed at a step cadence (DESIGN.md
//!   §14). A restarted daemon finding a ledger for a resumable session
//!   restores the latest checkpoint, replays only the ledger suffix,
//!   and continues — bit-identical to a run that never crashed.
//!   Completed sessions delete their ledger and checkpoint; failed
//!   ones keep both.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use cryptonn_parallel::{Parallelism, WorkerSet};
use cryptonn_protocol::{
    CheckpointStore, ClientId, Outbound, Party, ProtocolError, PublicParams, ServerSession,
    SessionConfig, SessionId, SessionSummary, WireMessage,
};

use crate::authority::AuthorityConnector;
use crate::error::NetError;
use crate::framing::DEFAULT_MAX_FRAME;
use crate::reactor::{ConnId, Reactor, ReactorApp, ReactorCtx, ReactorHandle, ReactorOptions};
use crate::transport::{FrameTx, Hello, NetMsg, Peer};

/// Tuning for the session server.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Maximum simultaneously live sessions; beyond it, session
    /// creation is rejected.
    pub max_sessions: usize,
    /// Bounded depth of each session's inbound event queue.
    pub queue_depth: usize,
    /// Frame cap per connection.
    pub max_frame: usize,
    /// Thread policy for the server-side decryption loops.
    pub parallelism: Parallelism,
    /// On-disk directory for the fingerprinted BSGS table cache; `None`
    /// rebuilds tables in memory per session.
    pub table_cache: Option<PathBuf>,
    /// On-disk directory for per-session write-ahead ledgers and
    /// checkpoints; `None` (the default) keeps sessions purely
    /// in-memory — a daemon restart loses them.
    pub durability: Option<PathBuf>,
    /// Checkpoint cadence in trained steps (clamped to at least one);
    /// meaningful only with [`durability`](Self::durability) set.
    /// Checkpoints are cut only at clean points (empty reorder buffer),
    /// so an eligible step may checkpoint slightly late.
    pub checkpoint_every_steps: u64,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            max_sessions: 8,
            queue_depth: 64,
            max_frame: DEFAULT_MAX_FRAME,
            parallelism: Parallelism::Serial,
            table_cache: None,
            durability: None,
            checkpoint_every_steps: 8,
        }
    }
}

/// How one session ended, as observable from the server side.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionOutcomeKind {
    /// Training completed; the summary was broadcast.
    Completed,
    /// The session failed (client loss, protocol violation, training
    /// error) with this reason.
    Failed(String),
}

/// How a restarted daemon brought one durable session back, as
/// reported by [`SessionServer::resumed_sessions`].
#[derive(Debug, Clone, PartialEq)]
pub struct ResumedSession {
    /// The session that was resumed.
    pub session: SessionId,
    /// True if a valid checkpoint anchored the resume; false when the
    /// whole ledger was replayed from offset zero (no checkpoint on
    /// disk, or one the store rejected as corrupt).
    pub from_checkpoint: bool,
    /// Ledger events replayed (the suffix past the checkpoint's cut).
    pub replayed_events: u64,
    /// Wall-clock cost of the replay, in milliseconds.
    pub replay_ms: f64,
}

/// One line of a session's write-ahead ledger. Line 0 is always
/// `Config`; every later line is appended (and flushed) *before* the
/// event it records reaches the state machine, so a crash can lose at
/// most work the ledger already knows how to redo.
// One value exists at a time, on the stack, only long enough to be
// serialized (or replayed); boxing the heavy Msg variant would buy
// nothing and cost the move-in/borrow-back pattern in the worker.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum LedgerLine {
    Config(SessionConfig),
    Msg(LedgerMsg),
    Gone(ClientId),
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LedgerMsg {
    from: ClientId,
    msg: WireMessage,
}

// Events sit in a bounded queue; WireMessage payloads are heap-heavy
// (ciphertext batches), so box them rather than inflate every slot.
enum SessionEvent {
    Msg(ClientId, Box<WireMessage>),
    // The epoch names *which* connection died, so a stale notice
    // cannot evict a rejoined client's fresh writer.
    Gone(ClientId, u64),
    // Daemon shutdown: finish as failed (keeping durable state) and
    // exit, regardless of which connection handlers still hold queue
    // senders.
    Shutdown,
}

type Conns = Arc<Mutex<HashMap<ClientId, (u64, Box<dyn FrameTx>)>>>;

struct SessionEntry {
    config: SessionConfig,
    /// The `PublicParams` reply every admitted member is sent, built
    /// once so a join borrows it instead of cloning the parameters.
    params_reply: NetMsg,
    inbound: SyncSender<SessionEvent>,
    conns: Conns,
    conn_epoch: AtomicU64,
    /// Raised by the loop when this session's full queue made it park
    /// a frame (or a `Gone` notice); the worker lowers it on its next
    /// dequeue and nudges the loop to retry.
    parked: Arc<AtomicBool>,
}

impl SessionEntry {
    /// The worker is gone, so no `Gone` notice can reach it: drop this
    /// connection epoch's writer directly if it is still registered.
    fn drop_writer(&self, client: ClientId, epoch: u64) {
        let mut conns = self.conns.lock();
        if conns.get(&client).is_some_and(|(e, _)| *e == epoch) {
            if let Some((_, mut tx)) = conns.remove(&client) {
                tx.close();
            }
        }
    }
}

/// A registry slot. `Creating` reserves the id (and pins the config)
/// while the founding connection opens the authority link *outside*
/// the registry lock, so one unreachable authority cannot stall every
/// other session's handshake.
enum Slot {
    Creating { config: SessionConfig },
    // Shared: admission clones the handle out from under the registry
    // lock, and every registered connection keeps one.
    Ready(Arc<SessionEntry>),
}

#[derive(Default)]
struct Registry {
    live: Mutex<HashMap<SessionId, Slot>>,
    finished: Mutex<Vec<(SessionId, SessionOutcomeKind)>>,
    /// Completed sessions keep their config and final summary: a member
    /// whose connection died in the final stretch (even on the summary
    /// frame itself) rejoins *after* the live entry is gone, and must be
    /// served the recorded verdict — not allowed to found a phantom
    /// second session under the spent id that waits forever for peers.
    served: Mutex<HashMap<SessionId, (SessionConfig, SessionSummary)>>,
    resumed: Mutex<Vec<ResumedSession>>,
}

impl Registry {
    fn finish(&self, id: SessionId, outcome: SessionOutcomeKind) {
        self.live.lock().remove(&id);
        self.finished.lock().push((id, outcome));
    }
}

/// The concurrent multi-session training daemon. See the module docs
/// for the concurrency model and the durability contract.
pub struct SessionServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    reactor: Option<Reactor>,
    registry: Arc<Registry>,
    workers: Arc<WorkerSet>,
}

impl SessionServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving sessions,
    /// reaching the key authority through `authority`.
    ///
    /// # Errors
    ///
    /// Bind and reactor set-up failures.
    pub fn start(
        addr: &str,
        authority: Arc<dyn AuthorityConnector>,
        options: ServerOptions,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::default());
        let workers = Arc::new(WorkerSet::new());
        let reactor_options = ReactorOptions {
            max_frame: options.max_frame,
            ..ReactorOptions::default()
        };
        let reactor = Reactor::start(listener, reactor_options, |handle| SessionApp {
            daemon: Daemon {
                options,
                registry: Arc::clone(&registry),
                authority,
                workers: Arc::clone(&workers),
                shutdown: Arc::clone(&shutdown),
                handle: handle.clone(),
            },
            conn_state: HashMap::new(),
            waiting: Vec::new(),
            creation_errors: Arc::new(Mutex::new(HashMap::new())),
            pending_gone: Vec::new(),
        })?;
        Ok(Self {
            addr,
            shutdown,
            reactor: Some(reactor),
            registry,
            workers,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently live.
    pub fn live_sessions(&self) -> usize {
        self.registry.live.lock().len()
    }

    /// Outcomes of sessions that ended, in completion order.
    pub fn finished_sessions(&self) -> Vec<(SessionId, SessionOutcomeKind)> {
        self.registry.finished.lock().clone()
    }

    /// Durable sessions this daemon brought back from their ledgers at
    /// creation time, with replay statistics.
    pub fn resumed_sessions(&self) -> Vec<ResumedSession> {
        self.registry.resumed.lock().clone()
    }

    /// Stops accepting, tears down live connections, asks every
    /// session worker to finish (in-flight durable sessions land as
    /// `Failed` with their ledgers intact, ready for a restarted
    /// daemon), and joins the reactor loop and the session workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Take the live sessions out of the registry: their queue
        // senders drop with the entries, every connection is closed,
        // and an explicit Shutdown event tells each worker to finish
        // even while the loop still holds queue senders.
        let entries: Vec<Slot> = self.registry.live.lock().drain().map(|(_, s)| s).collect();
        for slot in &entries {
            if let Slot::Ready(entry) = slot {
                for (_, conn) in entry.conns.lock().values_mut() {
                    conn.close();
                }
            }
        }
        for slot in &entries {
            let Slot::Ready(entry) = slot else { continue };
            let deadline = Instant::now() + Duration::from_secs(10);
            loop {
                match entry.inbound.try_send(SessionEvent::Shutdown) {
                    Ok(()) | Err(TrySendError::Disconnected(_)) => break,
                    // A full queue drains as the worker processes it.
                    Err(TrySendError::Full(_)) => {
                        if Instant::now() >= deadline {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
        if let Some(reactor) = self.reactor.take() {
            // The shutdown command is queued behind the connection
            // closes pushed above, so verdict frames still flush; the
            // app (and the queue senders it holds) drops on the loop
            // thread, starving any worker the Shutdown event missed.
            reactor.shutdown();
        }
        let _ = self.workers.join_all();
    }
}

impl Drop for SessionServer {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop();
        }
    }
}

// ------------------------------------------------------ admission path

/// How long a connection may wait for its session's founding authority
/// handshake before being refused.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);

/// What the reactor knows about one established connection. Connections
/// without an entry are still pre-`Hello`.
enum ConnState {
    /// Registered into a live session: frames route to its worker.
    Established {
        client: ClientId,
        epoch: u64,
        entry: Arc<SessionEntry>,
    },
    /// Served a recorded summary; inbound frames are ignored until the
    /// peer hangs up — closing a socket with the client's
    /// re-registration frame still unread would reset the summary out
    /// from under it.
    Draining,
}

/// A `Hello` parked while another member's creator thread opens the
/// authority link for its session.
struct WaitingConn {
    conn: ConnId,
    hello: Hello,
    since: Instant,
}

/// A `Gone` notice that found its session queue full; retried every
/// tick and nudge until delivered (it must not be lost — the worker's churn
/// accounting depends on it).
struct PendingGone {
    entry: Arc<SessionEntry>,
    client: ClientId,
    epoch: u64,
}

/// What every session of one daemon shares: the loop admits against
/// it, creator threads build sessions from it, and session workers
/// report to it.
#[derive(Clone)]
struct Daemon {
    options: ServerOptions,
    registry: Arc<Registry>,
    authority: Arc<dyn AuthorityConnector>,
    workers: Arc<WorkerSet>,
    shutdown: Arc<AtomicBool>,
    handle: ReactorHandle,
}

/// The session daemon's front door as a [`ReactorApp`]: one loop
/// thread admits and multiplexes every socket, [`create_session`] runs
/// on a creator thread, session workers ([`session_worker`] /
/// [`route_outbound`]) answer through [`ReactorHandle::conn_tx`]
/// writers, and a full session queue parks the frame (suspending that
/// connection's reads) until the worker nudges the loop.
struct SessionApp {
    daemon: Daemon,
    conn_state: HashMap<ConnId, ConnState>,
    waiting: Vec<WaitingConn>,
    /// Reasons sessions failed to create, keyed for the waiters that
    /// will be refused with them. Entries are rare (an unreachable
    /// authority) and tiny; one may linger if every waiter died first.
    creation_errors: Arc<Mutex<HashMap<SessionId, String>>>,
    pending_gone: Vec<PendingGone>,
}

/// Sends the verdict, then drops the line once it flushes.
fn reject_conn(ctx: &mut ReactorCtx<'_>, conn: ConnId, why: String) {
    let _ = ctx.send(conn, &NetMsg::Reject(why));
    ctx.close_after_flush(conn);
}

impl SessionApp {
    /// The full `Hello` admission: served-summary replay, failed-session
    /// refusal, then join-or-create.
    ///
    /// A spent session id never comes back to life under this daemon. A
    /// member whose last connection died in the final stretch may
    /// rejoin after the live entry is gone: it is served the recorded
    /// summary (delivery is idempotent) rather than founding a phantom
    /// session under the old id, and a failed session's verdict is
    /// restated.
    fn handshake(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, hello: Hello) {
        let Peer::Client(client) = hello.peer else {
            reject_conn(
                ctx,
                conn,
                "only clients connect to the session server".into(),
            );
            return;
        };
        if self.daemon.shutdown.load(Ordering::SeqCst) {
            reject_conn(ctx, conn, "server shutting down".into());
            return;
        }
        {
            let served = self.daemon.registry.served.lock();
            if let Some((config, summary)) = served.get(&hello.session) {
                if *config != hello.config {
                    let why = format!("{} already exists with a different config", hello.session);
                    drop(served);
                    reject_conn(ctx, conn, why);
                    return;
                }
                let summary = summary.clone();
                drop(served);
                if ctx
                    .send(conn, &NetMsg::Msg(WireMessage::Summary(summary)))
                    .is_ok()
                {
                    self.conn_state.insert(conn, ConnState::Draining);
                    ctx.set_handshaken(conn);
                } else {
                    ctx.close(conn);
                }
                return;
            }
        }
        let finished = self.daemon.registry.finished.lock();
        let failure = finished.iter().rev().find_map(|(id, o)| match o {
            SessionOutcomeKind::Failed(why) if *id == hello.session => Some(why.clone()),
            _ => None,
        });
        drop(finished);
        if let Some(why) = failure {
            reject_conn(ctx, conn, format!("{} failed: {why}", hello.session));
            return;
        }
        self.join_or_create(ctx, conn, client, hello, Instant::now());
    }

    fn join_or_create(
        &mut self,
        ctx: &mut ReactorCtx<'_>,
        conn: ConnId,
        client: ClientId,
        hello: Hello,
        since: Instant,
    ) {
        // Decide under the registry lock, act after: the lock is never
        // held across a send or a spawn.
        enum Step {
            Join(Arc<SessionEntry>),
            Wait,
            Create,
            Refuse(String),
        }
        let step = {
            let mut live = self.daemon.registry.live.lock();
            match live.get(&hello.session) {
                Some(Slot::Ready(entry)) => {
                    if entry.config != hello.config {
                        Step::Refuse(format!(
                            "{} already exists with a different config",
                            hello.session
                        ))
                    } else {
                        Step::Join(Arc::clone(entry))
                    }
                }
                Some(Slot::Creating { config }) => {
                    if *config != hello.config {
                        Step::Refuse(format!(
                            "{} already exists with a different config",
                            hello.session
                        ))
                    } else {
                        Step::Wait
                    }
                }
                None => {
                    if live.len() >= self.daemon.options.max_sessions {
                        Step::Refuse("server at session capacity".into())
                    } else {
                        live.insert(
                            hello.session,
                            Slot::Creating {
                                config: hello.config.clone(),
                            },
                        );
                        Step::Create
                    }
                }
            }
        };
        match step {
            Step::Join(entry) => self.register(ctx, conn, client, &hello, entry),
            Step::Wait => self.waiting.push(WaitingConn { conn, hello, since }),
            Step::Create => {
                self.spawn_creator(hello.session, hello.config.clone());
                self.waiting.push(WaitingConn { conn, hello, since });
            }
            Step::Refuse(why) => reject_conn(ctx, conn, why),
        }
    }

    /// Opens the authority link and builds the session *off the loop
    /// thread* — [`create_session`] does real I/O and table builds, and
    /// one unreachable authority must not stall every connection. The
    /// founding `Hello` waits in [`Self::waiting`] meanwhile.
    fn spawn_creator(&self, session: SessionId, config: SessionConfig) {
        let daemon = self.daemon.clone();
        let errors = Arc::clone(&self.creation_errors);
        let spawned = std::thread::Builder::new()
            .name(format!("{session}-create"))
            .spawn(move || {
                match create_session(session, &config, &daemon) {
                    Ok(entry) => {
                        // Decided under the registry lock against the
                        // flag `stop()` sets *before* draining: either
                        // the entry lands before the drain (and gets a
                        // Shutdown event), or it is dropped here — its
                        // queue sender with it, which ends the already-
                        // spawned worker. Never an orphan that would
                        // hang `join_all`.
                        let mut live = daemon.registry.live.lock();
                        if daemon.shutdown.load(Ordering::SeqCst) {
                            drop(entry);
                        } else {
                            live.insert(session, Slot::Ready(Arc::new(entry)));
                        }
                    }
                    Err(e) => {
                        daemon.registry.live.lock().remove(&session);
                        errors.lock().insert(session, e.to_string());
                    }
                }
                // Wake the loop so parked founders settle now, not at
                // the next tick.
                daemon.handle.nudge();
            });
        if spawned.is_err() {
            self.daemon.registry.live.lock().remove(&session);
            self.creation_errors
                .lock()
                .insert(session, "could not spawn the session creator".into());
        }
    }

    /// Registers an admitted connection into a `Ready` session: epoch
    /// allocation, duplicate/rejoin policy, the `PublicParams` reply,
    /// and the writer insert.
    fn register(
        &mut self,
        ctx: &mut ReactorCtx<'_>,
        conn: ConnId,
        client: ClientId,
        hello: &Hello,
        entry: Arc<SessionEntry>,
    ) {
        let epoch = {
            let mut conns_l = entry.conns.lock();
            if conns_l.contains_key(&client) {
                // A second connection for a registered client: a rejoin
                // under a resume policy, a duplicate to refuse otherwise.
                if !hello.config.policy.resumes() {
                    drop(conns_l);
                    reject_conn(
                        ctx,
                        conn,
                        format!("{client} is already connected to {}", hello.session),
                    );
                    return;
                }
                // Rejoin: latest connection wins. The evicted writer's
                // close lands back here as an epoch-stale Gone, which
                // cannot evict this fresh registration.
                if let Some((_, mut old)) = conns_l.remove(&client) {
                    old.close();
                }
            }
            let epoch = entry.conn_epoch.fetch_add(1, Ordering::SeqCst);
            if ctx.send(conn, &entry.params_reply).is_err() {
                // Outbound bound hit before registration: the conn is
                // already being torn down, and was never in `conns`.
                ctx.close(conn);
                return;
            }
            conns_l.insert(
                client,
                (
                    epoch,
                    Box::new(self.daemon.handle.conn_tx(conn)) as Box<dyn FrameTx>,
                ),
            );
            epoch
        };
        self.conn_state.insert(
            conn,
            ConnState::Established {
                client,
                epoch,
                entry,
            },
        );
        ctx.set_handshaken(conn);
    }

    /// Re-examines every parked `Hello` against the registry: runs on
    /// each tick and whenever a creator thread nudges the loop.
    fn settle_waiting(&mut self, ctx: &mut ReactorCtx<'_>) {
        if self.waiting.is_empty() {
            return;
        }
        enum Next {
            Join(Arc<SessionEntry>),
            Wait,
            Gone,
        }
        for w in std::mem::take(&mut self.waiting) {
            let next = {
                let live = self.daemon.registry.live.lock();
                match live.get(&w.hello.session) {
                    Some(Slot::Ready(entry)) => Next::Join(Arc::clone(entry)),
                    Some(Slot::Creating { .. }) => Next::Wait,
                    None => Next::Gone,
                }
            };
            match next {
                Next::Join(entry) => {
                    let Peer::Client(client) = w.hello.peer else {
                        continue;
                    };
                    self.register(ctx, w.conn, client, &w.hello, entry);
                }
                Next::Wait => {
                    if Instant::now() >= w.since + SETUP_DEADLINE {
                        reject_conn(ctx, w.conn, "session setup timed out".into());
                    } else {
                        self.waiting.push(w);
                    }
                }
                Next::Gone => {
                    let why = self.creation_errors.lock().remove(&w.hello.session);
                    if let Some(why) = why {
                        reject_conn(ctx, w.conn, format!("session setup failed: {why}"));
                    } else {
                        // The slot vanished for another reason — e.g.
                        // the session raced to completion while this
                        // member waited. Re-run the full admission,
                        // which serves recorded verdicts and may found
                        // a fresh attempt.
                        self.handshake(ctx, w.conn, w.hello);
                    }
                }
            }
        }
    }

    fn flush_pending_gone(&mut self) {
        self.pending_gone.retain_mut(|g| {
            let gone = SessionEvent::Gone(g.client, g.epoch);
            match g.entry.inbound.try_send(gone) {
                Ok(()) => false,
                Err(TrySendError::Full(_)) => true,
                Err(TrySendError::Disconnected(_)) => {
                    g.entry.drop_writer(g.client, g.epoch);
                    false
                }
            }
        });
    }

    /// The retry pass shared by the tick and the nudge: parked `Hello`s
    /// against the registry, undelivered `Gone` notices against their
    /// queues.
    fn retry_parked(&mut self, ctx: &mut ReactorCtx<'_>) {
        self.settle_waiting(ctx);
        self.flush_pending_gone();
    }
}

impl ReactorApp for SessionApp {
    fn on_frame(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, msg: NetMsg) -> Option<NetMsg> {
        match self.conn_state.get(&conn) {
            None => match msg {
                NetMsg::Hello(hello) => {
                    self.handshake(ctx, conn, hello);
                    None
                }
                other => {
                    if self.waiting.iter().any(|w| w.conn == conn) {
                        // Clients fire their registration frames right
                        // behind the Hello without waiting for
                        // PublicParams; while session setup is in
                        // flight, park them.
                        Some(other)
                    } else {
                        reject_conn(ctx, conn, "expected a Hello frame".into());
                        None
                    }
                }
            },
            Some(ConnState::Draining) => None,
            Some(ConnState::Established { client, entry, .. }) => {
                let client = *client;
                match msg {
                    NetMsg::Msg(m) => {
                        let event = SessionEvent::Msg(client, Box::new(m));
                        let offered = match entry.inbound.try_send(event) {
                            // Raise the park flag, then offer once more:
                            // either the worker already made room (the
                            // retry lands), or its next dequeue sees the
                            // flag and nudges the loop.
                            Err(TrySendError::Full(event)) => {
                                entry.parked.store(true, Ordering::SeqCst);
                                entry.inbound.try_send(event)
                            }
                            other => other,
                        };
                        match offered {
                            Ok(()) => None,
                            // Worker busy training: hand the frame back;
                            // the reactor parks it and stops reading this
                            // connection until the worker's nudge (or
                            // the tick) retries it.
                            Err(TrySendError::Full(SessionEvent::Msg(_, m))) => {
                                Some(NetMsg::Msg(*m))
                            }
                            Err(TrySendError::Full(_)) => None,
                            Err(TrySendError::Disconnected(_)) => {
                                // Worker gone: session completed or
                                // failed. on_closed delivers the cleanup.
                                ctx.close(conn);
                                None
                            }
                        }
                    }
                    // Anything else mid-session: the connection is
                    // done.
                    _ => {
                        ctx.close(conn);
                        None
                    }
                }
            }
        }
    }

    fn on_closed(&mut self, _ctx: &mut ReactorCtx<'_>, conn: ConnId) {
        self.waiting.retain(|w| w.conn != conn);
        if let Some(ConnState::Established {
            client,
            epoch,
            entry,
        }) = self.conn_state.remove(&conn)
        {
            match entry.inbound.try_send(SessionEvent::Gone(client, epoch)) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    // Retried on the worker's nudge, like a parked frame.
                    entry.parked.store(true, Ordering::SeqCst);
                    self.pending_gone.push(PendingGone {
                        entry,
                        client,
                        epoch,
                    });
                }
                Err(TrySendError::Disconnected(_)) => entry.drop_writer(client, epoch),
            }
        }
    }

    fn on_tick(&mut self, ctx: &mut ReactorCtx<'_>) {
        self.retry_parked(ctx);
    }

    fn on_nudge(&mut self, ctx: &mut ReactorCtx<'_>) {
        self.retry_parked(ctx);
    }
}

/// The per-session durable state: the open write-ahead ledger and the
/// checkpoint plan.
struct Durability {
    ledger: std::fs::File,
    ledger_path: PathBuf,
    store: CheckpointStore,
    every_steps: u64,
    /// Event lines in the ledger (replayed + appended); the offset the
    /// next checkpoint records.
    events: u64,
    last_checkpoint_step: u64,
}

impl Durability {
    fn append(&mut self, line: &LedgerLine) -> Result<(), NetError> {
        write_ledger_line(&mut self.ledger, line)?;
        self.ledger.flush().map_err(NetError::from)?;
        self.events += 1;
        Ok(())
    }

    /// Drops the durable state of a *completed* session.
    fn discard(&self, id: SessionId) {
        let _ = std::fs::remove_file(&self.ledger_path);
        let _ = self.store.remove(id);
    }
}

fn ledger_path(dir: &Path, id: SessionId) -> PathBuf {
    dir.join(format!("{id}.ledger"))
}

/// The file magic opening every ledger; a file without it is alien.
const LEDGER_MAGIC: [u8; 8] = *b"CNNWAL02";

/// Appends one ledger record: a `u32`-LE-length-prefixed binary
/// payload.
fn write_ledger_line(file: &mut impl std::io::Write, line: &LedgerLine) -> Result<(), NetError> {
    let payload = cryptonn_wire::to_vec(line)
        .map_err(|e| NetError::Io(format!("ledger encode failed: {e}")))?;
    let len = u32::try_from(payload.len())
        .map_err(|_| NetError::Io("ledger record overflows its length prefix".into()))?;
    file.write_all(&len.to_le_bytes())?;
    file.write_all(&payload).map_err(NetError::from)
}

/// Reads a session ledger back: checks the file magic and the `Config`
/// header against the presented config, and returns the event lines.
/// A torn final record (a crash mid-append) is dropped; a missing
/// magic, torn or alien content anywhere else — or a mismatched config
/// — rejects the whole ledger (`None`).
fn read_ledger(path: &Path, config: &SessionConfig) -> Option<Vec<LedgerLine>> {
    let bytes = std::fs::read(path).ok()?;
    let lines = parse_ledger(bytes.strip_prefix(&LEDGER_MAGIC)?)?;
    let (first, rest) = lines.split_first()?;
    match first {
        LedgerLine::Config(c) if *c == *config => {}
        _ => return None,
    }
    if rest.iter().any(|l| matches!(l, LedgerLine::Config(_))) {
        return None;
    }
    Some(rest.to_vec())
}

/// The records past the file magic: `u32`-LE-length-prefixed binary
/// payloads, back to back.
fn parse_ledger(mut rest: &[u8]) -> Option<Vec<LedgerLine>> {
    let mut out = Vec::new();
    while !rest.is_empty() {
        if rest.len() < 4 {
            break; // torn length prefix at the tail
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let Some(record) = rest.get(4..4 + len) else {
            break; // torn payload at the tail
        };
        match cryptonn_wire::from_slice::<LedgerLine>(record) {
            Ok(line) => out.push(line),
            // A record that frames whole but does not decode is a torn
            // tail only in final position; anywhere else the file is
            // alien.
            Err(_) if rest.len() == 4 + len => break,
            Err(_) => return None,
        }
        rest = &rest[4 + len..];
    }
    Some(out)
}

/// Rebuilds a mid-run server from its durable state: the latest valid
/// checkpoint (if any) plus a replay of the ledger events past its cut.
fn replay_ledger(
    id: SessionId,
    config: &SessionConfig,
    options: &ServerOptions,
    authority: &dyn AuthorityConnector,
    store: &CheckpointStore,
    events: &[LedgerLine],
) -> Result<(ServerSession, PublicParams, bool, u64), NetError> {
    let (params, link) = authority.connect(id, config)?;
    let (mut server, offset, from_checkpoint) = match store.load(id, config) {
        Ok(ckpt) => {
            let offset = (ckpt.transcript_offset as usize).min(events.len());
            let server = ServerSession::restore(config, &params, link, options.parallelism, &ckpt)?;
            (server, offset, true)
        }
        // Missing or rejected (corrupt, wrong fingerprint, stale
        // schema): the ledger alone still reconstructs the session.
        Err(_) => (
            ServerSession::new(config, &params, link, options.parallelism),
            0,
            false,
        ),
    };
    if let Some(dir) = &options.table_cache {
        server.attach_table_cache(dir.clone());
    }
    let mut replayed = 0u64;
    for line in &events[offset..] {
        match line {
            LedgerLine::Config(_) => {}
            LedgerLine::Msg(m) => match server.handle_message(&m.msg) {
                Ok(_) => {}
                // A write-ahead ledger legitimately holds duplicates: a
                // batch parked in the reorder buffer at a crash was
                // re-sent by its rewound owner after the previous
                // resume. The state machine is unchanged on this error,
                // so skipping the stale copy is sound.
                Err(ProtocolError::OutOfOrder { .. }) => {}
                Err(e) => return Err(e.into()),
            },
            LedgerLine::Gone(client) => {
                // Replayed so a re-shard the dying daemon already cut
                // is re-cut identically.
                server.client_gone(*client)?;
            }
        }
        replayed += 1;
    }
    // Batches the replay parked in the reorder buffer were never
    // trained: the reconnecting clients are rewound to `delivered` and
    // will resend them.
    server.purge_pending();
    server.mark_all_disconnected();
    Ok((server, params, from_checkpoint, replayed))
}

fn create_session(
    id: SessionId,
    config: &SessionConfig,
    daemon: &Daemon,
) -> Result<SessionEntry, NetError> {
    let Daemon {
        options,
        registry,
        authority,
        workers,
        shutdown,
        handle,
    } = daemon;
    let authority = authority.as_ref();
    if config.clients == 0 {
        return Err(NetError::Protocol(ProtocolError::InvalidConfig(
            "zero clients".into(),
        )));
    }
    let fresh = |params: &PublicParams,
                 link: Box<dyn cryptonn_protocol::AuthorityChannel>|
     -> ServerSession {
        let mut server = ServerSession::new(config, params, link, options.parallelism);
        if let Some(dir) = &options.table_cache {
            server.attach_table_cache(dir.clone());
        }
        server
    };
    let (server, params, durability) = match &options.durability {
        None => {
            let (params, link) = authority.connect(id, config)?;
            let server = fresh(&params, link);
            (server, params, None)
        }
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let store = CheckpointStore::new(dir.clone());
            let path = ledger_path(dir, id);
            let recorded = if config.policy.resumes() {
                read_ledger(&path, config)
            } else {
                None
            };
            let (server, params, events) = match recorded {
                Some(events) => {
                    let start = std::time::Instant::now();
                    let (server, params, from_checkpoint, replayed) =
                        replay_ledger(id, config, options, authority, &store, &events)?;
                    registry.resumed.lock().push(ResumedSession {
                        session: id,
                        from_checkpoint,
                        replayed_events: replayed,
                        replay_ms: start.elapsed().as_secs_f64() * 1e3,
                    });
                    (server, params, events)
                }
                None => {
                    // No usable history: any stale files under this id
                    // belong to an unresumable or alien session.
                    let _ = std::fs::remove_file(&path);
                    let _ = store.remove(id);
                    let (params, link) = authority.connect(id, config)?;
                    let server = fresh(&params, link);
                    (server, params, Vec::new())
                }
            };
            // Rewrite the ledger from its parsed form: identical
            // content, but a torn tail record (if any) is gone, so
            // appends always start on a fresh record.
            let mut file = std::fs::File::create(&path)?;
            file.write_all(&LEDGER_MAGIC)?;
            write_ledger_line(&mut file, &LedgerLine::Config(config.clone()))?;
            for line in &events {
                write_ledger_line(&mut file, line)?;
            }
            file.flush()?;
            let durability = Durability {
                ledger: file,
                ledger_path: path,
                store,
                every_steps: options.checkpoint_every_steps.max(1),
                events: events.len() as u64,
                last_checkpoint_step: server.steps(),
            };
            (server, params, Some(durability))
        }
    };
    let (inbound_tx, inbound_rx) = std::sync::mpsc::sync_channel(options.queue_depth.max(1));
    let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
    let parked = Arc::new(AtomicBool::new(false));
    let ctx = WorkerCtx {
        id,
        config: config.clone(),
        conns: Arc::clone(&conns),
        registry: Arc::clone(registry),
        shutdown: Arc::clone(shutdown),
        handle: handle.clone(),
        parked: Arc::clone(&parked),
        durability,
    };
    workers.spawn(&format!("{id}-worker"), move || {
        session_worker(ctx, server, inbound_rx);
    });
    Ok(SessionEntry {
        config: config.clone(),
        params_reply: NetMsg::Msg(WireMessage::PublicParams(params)),
        inbound: inbound_tx,
        conns,
        conn_epoch: AtomicU64::new(0),
        parked,
    })
}

/// Everything a session worker owns besides the state machine and its
/// inbound queue.
struct WorkerCtx {
    id: SessionId,
    config: SessionConfig,
    conns: Conns,
    registry: Arc<Registry>,
    shutdown: Arc<AtomicBool>,
    handle: ReactorHandle,
    parked: Arc<AtomicBool>,
    durability: Option<Durability>,
}

impl WorkerCtx {
    fn append(&mut self, line: &LedgerLine) -> Result<(), NetError> {
        match &mut self.durability {
            Some(d) => d.append(line),
            None => Ok(()),
        }
    }

    /// Cuts a checkpoint when the cadence is due and the state machine
    /// sits at a clean point (empty reorder buffer, so checkpoint +
    /// ledger suffix reconstructs the exact consumed stream).
    /// Checkpointing is best-effort: a failed save only costs a longer
    /// replay later.
    fn maybe_checkpoint(&mut self, server: &ServerSession) {
        let Some(d) = &mut self.durability else {
            return;
        };
        if server.steps() < d.last_checkpoint_step + d.every_steps
            || server.pending_batches() != 0
            || server.is_finished()
        {
            return;
        }
        if let Ok(ckpt) = server.checkpoint(d.events) {
            if d.store.save(self.id, &self.config, &ckpt).is_ok() {
                d.last_checkpoint_step = server.steps();
            }
        }
    }

    fn finish(&self, outcome: SessionOutcomeKind) {
        // A failed durable session keeps its ledger and checkpoint: a
        // restarted daemon resumes it from there.
        if outcome == SessionOutcomeKind::Completed {
            if let Some(d) = &self.durability {
                d.discard(self.id);
            }
        }
        self.registry.finish(self.id, outcome);
    }

    fn fail(&self, why: String) {
        // Lock ordering: handlers take the registry lock before a
        // session's conns lock, so never hold conns while finishing.
        {
            let mut conns = self.conns.lock();
            for (_, conn) in conns.values_mut() {
                let _ = conn.send(&NetMsg::Reject(why.clone()));
                conn.close();
            }
            conns.clear();
        }
        self.finish(SessionOutcomeKind::Failed(why));
    }
}

/// Delivers a batch of outbound messages: addressed frames to their
/// one recipient, everything else broadcast to every connected client;
/// a writer whose send fails is dropped (its reader will report
/// `Gone`). Returns true once the final summary went out, after
/// closing every connection.
fn route_outbound(conns: &Conns, outs: Vec<Outbound>) -> bool {
    let mut finished = false;
    let mut conns = conns.lock();
    for ob in outs {
        if matches!(ob.msg, WireMessage::Summary(_)) {
            finished = true;
        }
        let frame = NetMsg::Msg(ob.msg);
        match ob.to {
            Party::Client(i) => {
                let id = ClientId(i);
                let dead = match conns.get_mut(&id) {
                    Some((_, conn)) => conn.send(&frame).is_err(),
                    None => false,
                };
                if dead {
                    if let Some((_, mut conn)) = conns.remove(&id) {
                        conn.close();
                    }
                }
            }
            _ => conns.retain(|_, (_, conn)| conn.send(&frame).is_ok()),
        }
    }
    if finished {
        // Orderly close: every member got the summary; tearing the
        // connections down unblocks their handlers.
        for (_, conn) in conns.values_mut() {
            conn.close();
        }
        conns.clear();
    }
    finished
}

fn session_worker(mut ctx: WorkerCtx, mut server: ServerSession, inbound: Receiver<SessionEvent>) {
    loop {
        let event = match inbound.recv() {
            Ok(event) => event,
            // Every queue sender is gone; if we had finished we would
            // have exited below, so this session was abandoned (or the
            // daemon is going down and already drained the registry).
            Err(_) => {
                let why = if ctx.shutdown.load(Ordering::SeqCst) {
                    "server shut down mid-session"
                } else {
                    "all clients disconnected"
                };
                ctx.finish(SessionOutcomeKind::Failed(why.into()));
                return;
            }
        };
        // The dequeue made room: if the loop parked a frame on this
        // session's full queue, have it retried now rather than at the
        // next tick.
        if ctx.parked.swap(false, Ordering::SeqCst) {
            ctx.handle.nudge();
        }
        let result = match event {
            SessionEvent::Shutdown => {
                {
                    let mut conns = ctx.conns.lock();
                    for (_, conn) in conns.values_mut() {
                        conn.close();
                    }
                    conns.clear();
                }
                ctx.finish(SessionOutcomeKind::Failed(
                    "server shut down mid-session".into(),
                ));
                return;
            }
            SessionEvent::Gone(client, epoch) => {
                {
                    let mut conns = ctx.conns.lock();
                    match conns.get(&client) {
                        // The client already rejoined on a newer
                        // connection: this notice is about a corpse,
                        // not the member — dropping it (unledgered) is
                        // what keeps a slow old handler from marking a
                        // live rejoined client disconnected and
                        // stalling the schedule forever.
                        Some((e, _)) if *e != epoch => continue,
                        Some(_) => {
                            conns.remove(&client);
                        }
                        // No writer left (a failed send already evicted
                        // it): the disconnect itself is still real.
                        None => {}
                    }
                }
                if let Err(e) = ctx.append(&LedgerLine::Gone(client)) {
                    ctx.fail(format!("durability failure: {e}"));
                    return;
                }
                server.client_gone(client)
            }
            SessionEvent::Msg(client, msg) => {
                // The ledger line owns the message (no clone of the
                // heavy ciphertext payload); the state machine borrows
                // it back out.
                let line = LedgerLine::Msg(LedgerMsg {
                    from: client,
                    msg: *msg,
                });
                if let Err(e) = ctx.append(&line) {
                    ctx.fail(format!("durability failure: {e}"));
                    return;
                }
                let LedgerLine::Msg(m) = &line else {
                    unreachable!("constructed as Msg above")
                };
                server.handle_message(&m.msg)
            }
        };
        match result {
            Ok(outs) => {
                // Record the summary *before* the live entry goes away:
                // from the instant the session leaves the registry, a
                // member rejoining after a dropped final frame is
                // answered from this record.
                if let Some(summary) = outs.iter().find_map(|ob| match &ob.msg {
                    WireMessage::Summary(s) => Some(s.clone()),
                    _ => None,
                }) {
                    ctx.registry
                        .served
                        .lock()
                        .insert(ctx.id, (ctx.config.clone(), summary));
                }
                if route_outbound(&ctx.conns, outs) {
                    ctx.finish(SessionOutcomeKind::Completed);
                    return;
                }
                ctx.maybe_checkpoint(&server);
            }
            Err(e) => {
                // Under fail-fast a disconnect lands here as the
                // seed-behavior "disconnected mid-session" transport
                // error; training and protocol violations likewise.
                ctx.fail(format!("{e}"));
                return;
            }
        }
    }
}
