//! The encrypted inference serving daemon: N serving shards behind
//! one reactor-driven front door.
//!
//! [`InferenceFleet`] exposes one frozen trained model to many
//! concurrent predict clients ([`InferenceClient`](crate::InferenceClient))
//! over the framed transport. `FleetOptions { shards: 1, .. }` is the
//! single-lane server; more shards scale sweep throughput without
//! touching the protocol:
//!
//! - **Handshake** — clients open with the same `Hello` frame the
//!   training server uses; session id and config must match the
//!   serving config bit-for-bit, and the fleet answers with the
//!   session's [`PublicParams`] (fetched from the authority once, at
//!   start, so a misconfigured authority fails fast there rather than
//!   on the first client).
//! - **One listening socket, one loop thread** — a
//!   [`Reactor`] accepts every predict client and multiplexes their
//!   framed traffic; thousands of idle connections cost a slab entry
//!   each, not a thread.
//! - **Session-hashed shard routing** — each handshaken client id is
//!   hashed onto one of N [`InferenceSession`] shards (a deterministic
//!   splitmix on the id, so a client's requests stay FIFO on one
//!   shard). Every shard runs one event-driven [`InferenceSession`],
//!   fed through its own bounded queue by the loop; a full queue parks
//!   the frame in the reactor and suspends that connection's reads —
//!   TCP backpressure, end to end.
//! - **Request coalescing** — a shard worker drains whatever is in
//!   flight on its queue (up to the coalescing cap) into one sweep, so
//!   concurrent clients' requests share wNAF recodings and a single
//!   modular inversion.
//! - **Failure isolation** — serving is stateless per request: a
//!   client disconnecting (or submitting a malformed request) costs
//!   only its own connection, never the model or other clients.
//! - **One warmed key cache for the whole fleet** — the shards share a
//!   single `Arc<CachingKeyService<ChannelKeyService>>` (and its one
//!   authority link). Correctness: the cache is keyed on the exact
//!   quantized weight vectors (DESIGN.md §12), and every shard serves
//!   a replica restored from one [`MlpSnapshot`], so their key
//!   requests are identical — a key derived by any shard is a hit for
//!   all, and the steady state is authority-free fleet-wide.
//! - **One persisted table cache** — all replicas attach the same
//!   on-disk BSGS table directory (`CNNTBL04`); the fingerprinted
//!   tmp+rename protocol makes concurrent shard access safe, and a
//!   table built by one shard warm-starts the rest.
//!
//! Served predictions are bit-identical to the in-process
//! [`predict_encrypted`](cryptonn_core::CryptoMlp::predict_encrypted)
//! path — the equivalence the `inference_serving` and `reactor_scale`
//! suites pin down.
//!
//! [`MlpSnapshot`]: cryptonn_core::MlpSnapshot

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use cryptonn_core::CryptoMlp;
use cryptonn_fe::{CachingKeyService, KeyCacheStats};
use cryptonn_protocol::{
    ChannelKeyService, ClientId, InferenceOptions, InferenceSession, ModelSpec, Party,
    PublicParams, SessionConfig, SessionId, WireMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::authority::AuthorityConnector;
use crate::framing::DEFAULT_MAX_FRAME;
use crate::reactor::{
    ConnId, Reactor, ReactorApp, ReactorCtx, ReactorHandle, ReactorOptions, ReactorStats,
};
use crate::transport::{Hello, NetMsg, Peer};

/// Tuning for an [`InferenceFleet`].
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Serving shards (worker threads), each its own
    /// [`InferenceSession`] over a replica of the frozen model.
    pub shards: usize,
    /// Bounded inbound-queue depth per shard — the backpressure
    /// boundary between the loop and a shard worker.
    pub queue_depth: usize,
    /// Frame cap per connection.
    pub max_frame: usize,
    /// Each shard's coalescing and (shared) key-cache knobs.
    pub session: InferenceOptions,
    /// On-disk BSGS table cache directory shared by every shard.
    pub table_cache: Option<std::path::PathBuf>,
    /// Close handshaken connections idle longer than this.
    pub idle_timeout: Option<Duration>,
    /// Close connections that never complete the `Hello` handshake.
    pub handshake_timeout: Duration,
    /// Outbound byte bound per connection (slow-consumer cutoff).
    pub outbound_cap: usize,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self {
            shards: 2,
            queue_depth: 64,
            max_frame: DEFAULT_MAX_FRAME,
            session: InferenceOptions::default(),
            table_cache: None,
            idle_timeout: None,
            handshake_timeout: Duration::from_secs(30),
            outbound_cap: 64 * 1024 * 1024,
        }
    }
}

/// `client -> (connection, shard)`: written by the loop on handshake
/// and close, read by shard workers to address responses.
type Registry = Arc<Mutex<HashMap<ClientId, (ConnId, usize)>>>;

#[derive(Debug, Default)]
struct ShardStats {
    served: AtomicU64,
    sweeps: AtomicU64,
}

/// Deterministic client→shard assignment: a splitmix64 finalizer over
/// the client id. Stable across restarts (no per-process seed), so a
/// reconnecting client lands on the same shard.
fn shard_of(client: ClientId, shards: usize) -> usize {
    let mut z = u64::from(client.0).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

type ShardEvent = (ClientId, Box<WireMessage>);

/// The front-door application run by the reactor loop: handshakes,
/// routes, and never computes.
struct FleetApp {
    session_id: SessionId,
    config: SessionConfig,
    params: Arc<PublicParams>,
    registry: Registry,
    shard_txs: Vec<SyncSender<ShardEvent>>,
    conn_clients: HashMap<ConnId, ClientId>,
}

impl FleetApp {
    fn reject(&self, ctx: &mut ReactorCtx<'_>, conn: ConnId, why: String) {
        let _ = ctx.send(conn, &NetMsg::Reject(why));
        ctx.close_after_flush(conn);
    }

    fn handshake(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, hello: Hello) {
        let Peer::Client(client) = hello.peer else {
            self.reject(
                ctx,
                conn,
                "only clients connect to the inference fleet".into(),
            );
            return;
        };
        if hello.session != self.session_id {
            self.reject(
                ctx,
                conn,
                format!(
                    "this fleet serves {}, not {}",
                    self.session_id, hello.session
                ),
            );
            return;
        }
        if hello.config != self.config {
            self.reject(
                ctx,
                conn,
                format!("{} is served with a different config", self.session_id),
            );
            return;
        }
        let shard = shard_of(client, self.shard_txs.len());
        let evicted = self
            .registry
            .lock()
            .insert(client, (conn, shard))
            .map(|(old, _)| old);
        if let Some(old) = evicted {
            // Latest connection wins (the SessionServer rejoin rule):
            // the previous connection is dead or dying — typically a
            // half-open leftover of a client whose link dropped without
            // a FIN — and with no default idle reaping, refusing the
            // reconnect would lock the client id out permanently.
            self.conn_clients.remove(&old);
            ctx.close(old);
        }
        if ctx
            .send(
                conn,
                &NetMsg::Msg(WireMessage::PublicParams((*self.params).clone())),
            )
            .is_err()
        {
            self.registry.lock().remove(&client);
            ctx.close(conn);
            return;
        }
        self.conn_clients.insert(conn, client);
        ctx.set_handshaken(conn);
    }
}

impl ReactorApp for FleetApp {
    fn on_frame(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, msg: NetMsg) -> Option<NetMsg> {
        match self.conn_clients.get(&conn).copied() {
            None => {
                match msg {
                    NetMsg::Hello(h) => self.handshake(ctx, conn, h),
                    _ => self.reject(ctx, conn, "expected a Hello frame".into()),
                }
                None
            }
            Some(client) => match msg {
                NetMsg::Msg(m) => {
                    let shard = shard_of(client, self.shard_txs.len());
                    match self.shard_txs[shard].try_send((client, Box::new(m))) {
                        Ok(()) => None,
                        // Shard at capacity: hand the frame back; the
                        // reactor parks it and stops reading us until
                        // the worker drains and nudges.
                        Err(TrySendError::Full((_, m))) => Some(NetMsg::Msg(*m)),
                        Err(TrySendError::Disconnected(_)) => {
                            self.reject(ctx, conn, "serving shard is down".into());
                            None
                        }
                    }
                }
                NetMsg::Hello(_) => {
                    self.reject(ctx, conn, "duplicate Hello".into());
                    None
                }
                NetMsg::Reject(_) => {
                    ctx.close(conn);
                    None
                }
            },
        }
    }

    fn on_closed(&mut self, _ctx: &mut ReactorCtx<'_>, conn: ConnId) {
        if let Some(client) = self.conn_clients.remove(&conn) {
            let mut registry = self.registry.lock();
            // Only unregister if the entry still names this connection
            // (a reconnect may have raced the close).
            if registry.get(&client).is_some_and(|(c, _)| *c == conn) {
                registry.remove(&client);
            }
        }
    }
}

fn shard_worker(
    mut session: InferenceSession,
    me: usize,
    inbound: Receiver<ShardEvent>,
    registry: Registry,
    handle: ReactorHandle,
    stats: Arc<ShardStats>,
) {
    let conn_of = |client: ClientId| registry.lock().get(&client).map(|(c, _)| *c);
    loop {
        // Block for the first event, then drain whatever else is
        // already in flight — that momentary backlog is exactly the
        // coalescing window the session sweeps together.
        let first = match inbound.recv() {
            Ok(ev) => ev,
            Err(_) => return, // fleet shut down
        };
        let mut events = vec![first];
        while let Ok(ev) = inbound.try_recv() {
            events.push(ev);
        }
        let mut outs = Vec::new();
        for (client, msg) in events {
            match session.handle_message(client, &msg) {
                Ok(o) => outs.extend(o),
                Err(e) => {
                    // Malformed traffic costs the offender its
                    // connection; the shard and everyone else's
                    // requests are untouched.
                    if let Some(conn) = conn_of(client) {
                        let _ = handle.send(conn, &NetMsg::Reject(e.to_string()));
                        handle.close(conn);
                    }
                }
            }
        }
        match session.flush() {
            Ok(o) => outs.extend(o),
            Err(e) => {
                // A sweep failure loses the drained window and is not
                // attributable to one client: tell this shard's
                // clients and drop them; other shards keep serving.
                let mine: Vec<ConnId> = registry
                    .lock()
                    .iter()
                    .filter(|(_, (_, s))| *s == me)
                    .map(|(_, (conn, _))| *conn)
                    .collect();
                let why = NetMsg::Reject(format!("serving sweep failed: {e}"));
                for conn in mine {
                    let _ = handle.send(conn, &why);
                    handle.close(conn);
                }
            }
        }
        // Publish before routing: by the time a client observes a
        // response, the counters already cover its sweep.
        stats.served.store(session.served(), Ordering::SeqCst);
        stats.sweeps.store(session.sweeps(), Ordering::SeqCst);
        for ob in outs {
            let Party::Client(id) = ob.to else { continue };
            if let Some(conn) = conn_of(ClientId(id)) {
                // Dead conns drop the frame; backpressure closes are
                // the reactor's call.
                let _ = handle.send(conn, &NetMsg::Msg(ob.msg));
            }
        }
        // The queue has room again: retry frames parked on us.
        handle.nudge();
    }
}

/// The sharded serving daemon: one reactor front door, N
/// [`InferenceSession`] shards over replicas of one frozen model, one
/// shared warmed key cache. See the module docs.
pub struct InferenceFleet {
    addr: SocketAddr,
    reactor: Option<Reactor>,
    workers: Vec<JoinHandle<()>>,
    registry: Registry,
    shard_stats: Vec<Arc<ShardStats>>,
    keys: Arc<CachingKeyService<ChannelKeyService>>,
}

impl InferenceFleet {
    /// Binds `addr` and serves `model` (trained under `config`) across
    /// [`FleetOptions::shards`] shards, reaching the key authority
    /// through `authority` exactly once.
    ///
    /// Shard replicas are restored from one
    /// [`snapshot`](CryptoMlp::snapshot) of `model`, so every shard
    /// serves bit-identical weights (and therefore issues identical
    /// key requests — what makes the shared cache correct).
    ///
    /// # Errors
    ///
    /// Bind and authority failures; a non-MLP serving spec; snapshot
    /// failures.
    pub fn start(
        addr: &str,
        session_id: SessionId,
        config: &SessionConfig,
        model: CryptoMlp,
        authority: Arc<dyn AuthorityConnector>,
        options: FleetOptions,
    ) -> std::io::Result<Self> {
        let shards = options.shards.max(1);
        let (params, link) = authority
            .connect(session_id, config)
            .map_err(|e| std::io::Error::other(e.to_string()))?;
        let keys = Arc::new(CachingKeyService::new(
            ChannelKeyService::new(&params, link),
            options.session.key_cache,
        ));

        // Replicate the frozen model: shard 0 serves the original, the
        // rest are rebuilt from the spec and restored from one
        // snapshot (CryptoMlp is deliberately not Clone — its secure
        // layer holds live table state).
        let snapshot = model
            .snapshot()
            .map_err(|e| std::io::Error::other(format!("model snapshot failed: {e}")))?;
        let ModelSpec::Mlp(spec) = &config.model else {
            return Err(std::io::Error::other(
                "the inference fleet serves MLP models",
            ));
        };
        let cc = *model.config();
        let mut models = vec![model];
        for _ in 1..shards {
            let mut rng = StdRng::seed_from_u64(config.model_seed);
            let mut replica = CryptoMlp::new(
                spec.feature_dim,
                &spec.hidden,
                spec.classes,
                spec.objective,
                cc,
                &mut rng,
            );
            replica
                .restore(&snapshot)
                .map_err(|e| std::io::Error::other(format!("model restore failed: {e}")))?;
            models.push(replica);
        }

        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let params = Arc::new(params);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = std::sync::mpsc::sync_channel(options.queue_depth.max(1));
            shard_txs.push(tx);
            shard_rxs.push(rx);
        }

        let reactor = Reactor::start(
            listener,
            ReactorOptions {
                max_frame: options.max_frame,
                outbound_cap: options.outbound_cap,
                handshake_timeout: options.handshake_timeout,
                idle_timeout: options.idle_timeout,
                ..ReactorOptions::default()
            },
            |_| FleetApp {
                session_id,
                config: config.clone(),
                params: Arc::clone(&params),
                registry: Arc::clone(&registry),
                shard_txs,
                conn_clients: HashMap::new(),
            },
        )?;

        let mut workers = Vec::with_capacity(shards);
        let mut shard_stats = Vec::with_capacity(shards);
        for (me, (mut model, rx)) in models.into_iter().zip(shard_rxs).enumerate() {
            if let Some(dir) = &options.table_cache {
                model.attach_table_cache(dir.clone());
            }
            let session =
                InferenceSession::with_shared_keys(Arc::clone(&keys), model, options.session);
            let stats = Arc::new(ShardStats::default());
            shard_stats.push(Arc::clone(&stats));
            let registry = Arc::clone(&registry);
            let handle = reactor.handle();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("cryptonn-shard-{me}"))
                    .spawn(move || shard_worker(session, me, rx, registry, handle, stats))?,
            );
        }

        Ok(Self {
            addr,
            reactor: Some(reactor),
            workers,
            registry,
            shard_stats,
            keys,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far, fleet-wide.
    pub fn served(&self) -> u64 {
        self.shard_stats
            .iter()
            .map(|s| s.served.load(Ordering::SeqCst))
            .sum()
    }

    /// Secure sweeps run so far, fleet-wide (≤ served; the gap is the
    /// coalescing).
    pub fn sweeps(&self) -> u64 {
        self.shard_stats
            .iter()
            .map(|s| s.sweeps.load(Ordering::SeqCst))
            .sum()
    }

    /// The *shared* functional-key cache counters — one cache for the
    /// whole fleet.
    pub fn cache_stats(&self) -> KeyCacheStats {
        self.keys.stats()
    }

    /// Handshaken predict connections.
    pub fn live_clients(&self) -> usize {
        self.registry.lock().len()
    }

    /// The reactor's connection counters (accepted/live/peak).
    pub fn reactor_stats(&self) -> ReactorStats {
        self.reactor
            .as_ref()
            .map(|r| r.stats())
            .unwrap_or(ReactorStats {
                accepted: 0,
                live: 0,
                peak: 0,
            })
    }

    /// The front door's readiness backend: `"poll"` (the reactor's
    /// only one), or `"none"` once the fleet has shut down.
    pub fn backend(&self) -> &'static str {
        self.reactor.as_ref().map_or("none", |_| "poll")
    }

    /// Stops the loop, drops every connection, and joins the shard
    /// workers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            // Joining the loop drops the app, whose shard senders
            // starve the workers into exiting.
            reactor.shutdown();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for InferenceFleet {
    fn drop(&mut self) {
        if self.reactor.is_some() {
            self.stop();
        }
    }
}
