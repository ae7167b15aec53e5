//! The key authority as a standalone networked service.
//!
//! [`AuthorityServer`] is the paper's trusted third party (Fig. 1) cut
//! loose from the training process: it listens on a socket, keys its
//! state by [`SessionId`], derives each session's master keys from the
//! session config on first contact, publishes [`PublicParams`], and
//! then serves the server's [`KeyRequest`] traffic over the framed
//! codec. The training server reaches it through an
//! [`AuthorityConnector`] — [`RemoteAuthority`] over TCP, or
//! [`LocalAuthority`] for in-process wiring — and the connection
//! implements the same [`AuthorityChannel`] hook the deterministic
//! runner and the replayer use, so no key-derivation logic forks
//! between transports.
//!
//! [`KeyRequest`]: cryptonn_protocol::KeyRequest

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use cryptonn_fe::threshold::{
    ShareClient, ShareClientError, ShareSpec, ThresholdKeyService, ThresholdSetup,
};
use cryptonn_fe::{FeError, FeboKeyRequest, FeboPartial, FeipPublicKey, KeyService};
use cryptonn_group::{Element, Scalar, SchnorrGroup};
use cryptonn_parallel::ThreadPool;
use cryptonn_protocol::{
    AuthorityChannel, AuthoritySession, FeboKeysRequest, FeipKeysRequest, KeyRequest, KeyResponse,
    PartialKey, ProtocolError, PublicParams, SessionConfig, SessionId, ShareInfo, ShareRequest,
    ShareSession, WireMessage,
};

use crate::error::NetError;
use crate::fault::{FaultPlan, FaultyTransport};
use crate::framing::DEFAULT_MAX_FRAME;
use crate::transport::{FrameRx, FrameTx, Hello, NetMsg, Peer, TcpTransport, Transport};

/// How a training server reaches the session's key authority: one call
/// per session, yielding the published parameters and the live
/// request/response channel.
pub trait AuthorityConnector: Send + Sync {
    /// Opens the authority link for `session` under `config`.
    ///
    /// # Errors
    ///
    /// Transport failures; the authority rejecting the session (e.g. a
    /// config that disagrees with an earlier connection).
    fn connect(
        &self,
        session: SessionId,
        config: &SessionConfig,
    ) -> Result<(PublicParams, Box<dyn AuthorityChannel>), NetError>;
}

/// In-process authority wiring: each session gets its own
/// [`AuthoritySession`] behind a direct channel. The zero-network
/// arm — what the deterministic runner effectively uses — provided
/// here so a [`SessionServer`](crate::SessionServer) can run without a
/// separate authority daemon.
#[derive(Debug, Default)]
pub struct LocalAuthority;

struct DirectChannel(Arc<AuthoritySession>);

impl AuthorityChannel for DirectChannel {
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
        Ok(self.0.handle(&req))
    }
}

impl AuthorityConnector for LocalAuthority {
    fn connect(
        &self,
        _session: SessionId,
        config: &SessionConfig,
    ) -> Result<(PublicParams, Box<dyn AuthorityChannel>), NetError> {
        let authority = Arc::new(AuthoritySession::new(config));
        let params = authority.public_params_for(config);
        Ok((params, Box::new(DirectChannel(authority))))
    }
}

/// TCP connector to a running [`AuthorityServer`].
#[derive(Debug, Clone)]
pub struct RemoteAuthority {
    addr: SocketAddr,
}

impl RemoteAuthority {
    /// Points at an authority daemon.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }
}

impl AuthorityConnector for RemoteAuthority {
    fn connect(
        &self,
        session: SessionId,
        config: &SessionConfig,
    ) -> Result<(PublicParams, Box<dyn AuthorityChannel>), NetError> {
        let mut transport = TcpTransport::connect(self.addr, DEFAULT_MAX_FRAME)?;
        transport.send(&NetMsg::Hello(Hello {
            session,
            peer: Peer::Server,
            config: config.clone(),
        }))?;
        let params = match transport.recv()? {
            Some(NetMsg::Msg(WireMessage::PublicParams(p))) => p,
            Some(NetMsg::Reject(why)) => return Err(NetError::Rejected(why)),
            Some(_) => return Err(NetError::UnexpectedFrame("expected PublicParams")),
            None => return Err(NetError::Disconnected),
        };
        Ok((params, Box::new(RemoteAuthorityChannel { transport })))
    }
}

/// The [`AuthorityChannel`] over a live authority connection: each
/// exchange is one request frame out, one response frame back.
struct RemoteAuthorityChannel {
    transport: TcpTransport,
}

impl AuthorityChannel for RemoteAuthorityChannel {
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
        self.transport
            .send(&NetMsg::Msg(WireMessage::KeyRequest(req)))
            .map_err(|e| ProtocolError::Transport(e.to_string()))?;
        match self
            .transport
            .recv()
            .map_err(|e| ProtocolError::Transport(e.to_string()))?
        {
            Some(NetMsg::Msg(WireMessage::KeyResponse(resp))) => Ok(resp),
            Some(NetMsg::Reject(why)) => Err(ProtocolError::Transport(format!(
                "authority rejected the exchange: {why}"
            ))),
            Some(other) => Err(ProtocolError::Transport(format!(
                "authority sent an unexpected frame: {other:?}"
            ))),
            None => Err(ProtocolError::Transport(
                "authority closed the connection mid-session".into(),
            )),
        }
    }
}

/// Options for the authority daemon.
#[derive(Debug, Clone, Copy)]
pub struct AuthorityOptions {
    /// Bounded pool size for connection handlers.
    pub pool_threads: usize,
    /// Frame cap per connection.
    pub max_frame: usize,
    /// Run this daemon as one share-holder of a t-of-n threshold
    /// deployment instead of a full authority: it answers
    /// partial-derivation requests (and public-key lookups) but refuses
    /// full key derivations. `None` (the default) is the classic single
    /// authority.
    pub share: Option<ShareSpec>,
}

impl Default for AuthorityOptions {
    fn default() -> Self {
        Self {
            pool_threads: 16,
            max_frame: DEFAULT_MAX_FRAME,
            share: None,
        }
    }
}

impl AuthorityOptions {
    /// Options for share-holder `spec` of a threshold deployment.
    pub fn share_node(spec: ShareSpec) -> Self {
        Self {
            share: Some(spec),
            ..Self::default()
        }
    }
}

/// The per-session state behind one daemon: a full authority, or one
/// share-holder of a threshold deployment (per [`AuthorityOptions::share`]).
enum NodeRole {
    Full(Arc<AuthoritySession>),
    Share(Arc<ShareSession>),
}

impl NodeRole {
    fn for_options(options: &AuthorityOptions, config: &SessionConfig) -> (Self, PublicParams) {
        match options.share {
            Some(spec) => {
                let session = Arc::new(ShareSession::new(config, spec));
                let params = session.public_params_for(config);
                (NodeRole::Share(session), params)
            }
            None => {
                let session = Arc::new(AuthoritySession::new(config));
                let params = session.public_params_for(config);
                (NodeRole::Full(session), params)
            }
        }
    }

    fn handle_message(
        &self,
        msg: &WireMessage,
    ) -> Result<Vec<cryptonn_protocol::Outbound>, ProtocolError> {
        match self {
            NodeRole::Full(session) => session.handle_message(msg),
            NodeRole::Share(session) => session.handle_message(msg),
        }
    }

    fn clone_role(&self) -> Self {
        match self {
            NodeRole::Full(s) => NodeRole::Full(Arc::clone(s)),
            NodeRole::Share(s) => NodeRole::Share(Arc::clone(s)),
        }
    }
}

struct AuthorityEntry {
    config: SessionConfig,
    role: NodeRole,
    params: PublicParams,
}

type AuthorityRegistry = Arc<Mutex<HashMap<SessionId, AuthorityEntry>>>;

/// A handle on every live peer link, keyed by accept order: a clone of
/// each accepted stream, removed by its handler on exit. Shutting these
/// down is what wakes handlers blocked in `recv` so the pool can join.
type LinkRegistry = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// The networked key authority daemon: a session-keyed registry of
/// [`AuthoritySession`]s behind a TCP accept loop on a bounded pool.
pub struct AuthorityServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    links: LinkRegistry,
}

impl AuthorityServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(addr: &str, options: AuthorityOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let registry: AuthorityRegistry = Arc::new(Mutex::new(HashMap::new()));
        let links: LinkRegistry = Arc::new(Mutex::new(HashMap::new()));
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let registry = Arc::clone(&registry);
            let links = Arc::clone(&links);
            std::thread::spawn(move || {
                let pool = ThreadPool::new(options.pool_threads);
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    let Ok(stream) = stream else { continue };
                    // Register before checking the flag: `stop` raises
                    // the flag and then sweeps the links, so a link is
                    // either swept or seen after the flag and dropped.
                    if let Ok(handle) = stream.try_clone() {
                        links.lock().insert(id, handle);
                    }
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let registry = Arc::clone(&registry);
                    let links = Arc::clone(&links);
                    // `execute` blocks while the pool is saturated:
                    // backpressure on the accept loop rather than
                    // unbounded threads.
                    pool.execute(move || {
                        serve_authority_conn(stream, options, &registry);
                        links.lock().remove(&id);
                    });
                }
                // Dropping the pool joins the in-flight handlers.
            })
        };
        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
            links,
        })
    }

    /// The bound address (use with [`RemoteAuthority::new`]).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, closes every live peer link, and waits for the
    /// accept loop and every connection handler to exit. A peer holding
    /// a link (a training server's [`RemoteAuthority`] channel, a
    /// [`ThresholdAuthority`] node connection) sees the disconnect on
    /// its next exchange.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Handlers block in `recv` with no deadline; severing their
        // sockets is what lets the pool join them.
        for link in self.links.lock().values() {
            let _ = link.shutdown(std::net::Shutdown::Both);
        }
        // Poke the listener so the blocking accept wakes up.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for AuthorityServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

fn serve_authority_conn(
    stream: TcpStream,
    options: AuthorityOptions,
    registry: &AuthorityRegistry,
) {
    let Ok(mut transport) = TcpTransport::new(stream, options.max_frame) else {
        return;
    };
    let hello = match transport.recv() {
        Ok(Some(NetMsg::Hello(h))) => h,
        Ok(_) | Err(_) => {
            let _ = transport.send(&NetMsg::Reject("expected a Hello frame".into()));
            return;
        }
    };
    // One authority state per session, derived deterministically from
    // the session config; later connections must agree bit-for-bit so
    // a mismatched peer cannot steer key derivation.
    let (role, params) = {
        let mut reg = registry.lock();
        match reg.get(&hello.session) {
            Some(entry) if entry.config != hello.config => {
                drop(reg);
                let _ = transport.send(&NetMsg::Reject(format!(
                    "{} already exists with a different config",
                    hello.session
                )));
                return;
            }
            Some(entry) => (entry.role.clone_role(), entry.params.clone()),
            None => {
                let (role, params) = NodeRole::for_options(&options, &hello.config);
                reg.insert(
                    hello.session,
                    AuthorityEntry {
                        config: hello.config.clone(),
                        role: role.clone_role(),
                        params: params.clone(),
                    },
                );
                (role, params)
            }
        }
    };
    if transport
        .send(&NetMsg::Msg(WireMessage::PublicParams(params)))
        .is_err()
    {
        return;
    }
    loop {
        match transport.recv() {
            Ok(Some(NetMsg::Msg(msg))) => match role.handle_message(&msg) {
                Ok(outs) => {
                    for ob in outs {
                        if transport.send(&NetMsg::Msg(ob.msg)).is_err() {
                            return;
                        }
                    }
                }
                Err(e) => {
                    let _ = transport.send(&NetMsg::Reject(e.to_string()));
                    return;
                }
            },
            Ok(Some(_)) => {
                let _ = transport.send(&NetMsg::Reject("unexpected frame".into()));
                return;
            }
            Ok(None) | Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Threshold mode: share-holder clients and the t-of-n connector
// ---------------------------------------------------------------------------

/// A [`ShareClient`] over a live TCP connection to one share-holder
/// daemon (an [`AuthorityServer`] started with
/// [`AuthorityOptions::share_node`]).
///
/// Transport failures surface as [`ShareClientError::Failed`], so the
/// combiner evicts the node and retries on the surviving quorum; a
/// typed refusal from the node ([`PartialKey::Denied`]) surfaces as
/// [`ShareClientError::Refused`] and propagates — a share-holder
/// refusing a request is a protocol outcome, not a dead peer.
pub struct TcpShareClient {
    index: u32,
    transport: Box<dyn Transport + Send>,
}

impl TcpShareClient {
    fn failed(msg: impl Into<String>) -> ShareClientError {
        ShareClientError::Failed(FeError::Protocol(msg.into()))
    }

    fn ask(&mut self, msg: WireMessage) -> Result<WireMessage, ShareClientError> {
        self.transport
            .send(&NetMsg::Msg(msg))
            .map_err(|e| Self::failed(e.to_string()))?;
        match self
            .transport
            .recv()
            .map_err(|e| Self::failed(e.to_string()))?
        {
            Some(NetMsg::Msg(reply)) => Ok(reply),
            Some(NetMsg::Reject(why)) => Err(Self::failed(format!(
                "share-holder rejected the exchange: {why}"
            ))),
            Some(other) => Err(Self::failed(format!(
                "share-holder sent an unexpected frame: {other:?}"
            ))),
            None => Err(Self::failed("share-holder closed the connection")),
        }
    }

    fn ask_partial(&mut self, req: ShareRequest) -> Result<PartialKey, ShareClientError> {
        match self.ask(WireMessage::ShareRequest(req))? {
            WireMessage::PartialKey(PartialKey::Denied(why)) => {
                Err(ShareClientError::Refused(FeError::Protocol(why)))
            }
            WireMessage::PartialKey(p) => Ok(p),
            other => Err(Self::failed(format!(
                "expected a partial-key frame, got {}",
                other.kind()
            ))),
        }
    }
}

impl ShareClient for TcpShareClient {
    fn index(&self) -> u32 {
        self.index
    }

    fn feip_public_key(&mut self, dim: usize) -> Result<FeipPublicKey, ShareClientError> {
        match self.ask(WireMessage::KeyRequest(KeyRequest::FeipMpk(dim)))? {
            WireMessage::KeyResponse(KeyResponse::FeipMpk(mpk)) => Ok(mpk),
            WireMessage::KeyResponse(KeyResponse::Denied(why)) => {
                Err(ShareClientError::Refused(FeError::Protocol(why)))
            }
            other => Err(Self::failed(format!(
                "expected a FeipMpk response, got {}",
                other.kind()
            ))),
        }
    }

    fn feip_partials(
        &mut self,
        dim: usize,
        ys: &[Vec<i64>],
    ) -> Result<Vec<Scalar>, ShareClientError> {
        match self.ask_partial(ShareRequest::Feip(FeipKeysRequest {
            dim,
            ys: ys.to_vec(),
        }))? {
            PartialKey::Feip(partials) => Ok(partials),
            _ => Err(Self::failed("expected FEIP partials")),
        }
    }

    fn febo_partials(
        &mut self,
        reqs: &[FeboKeyRequest],
    ) -> Result<Vec<FeboPartial>, ShareClientError> {
        match self.ask_partial(ShareRequest::Febo(FeboKeysRequest {
            reqs: reqs.to_vec(),
        }))? {
            PartialKey::Febo(partials) => Ok(partials),
            _ => Err(Self::failed("expected FEBO partials")),
        }
    }
}

/// Connector to a t-of-n fleet of share-holder daemons: the threshold
/// replacement for [`RemoteAuthority`] (DESIGN.md §17).
///
/// `connect` dials every share-holder, checks the public parameters and
/// share commitments agree across the fleet, and hands back a channel
/// that recombines partial derivations locally. Dead or unreachable
/// nodes are tolerated as long as at least `t` answer; below that the
/// connect fails closed with [`NetError::Quorum`]. The single authority
/// is the `n = t = 1` special case pointed at one share daemon.
pub struct ThresholdAuthority {
    addrs: Vec<SocketAddr>,
    setup: ThresholdSetup,
    fault_plans: HashMap<usize, FaultPlan>,
}

impl ThresholdAuthority {
    /// Points at a fleet of share-holder daemons, one address per node
    /// (so `addrs.len()` must equal `setup.n()`).
    ///
    /// # Panics
    ///
    /// When the address count disagrees with the setup.
    pub fn new(addrs: Vec<SocketAddr>, setup: ThresholdSetup) -> Self {
        assert_eq!(
            addrs.len(),
            setup.n(),
            "one share-holder address per node required"
        );
        Self {
            addrs,
            setup,
            fault_plans: HashMap::new(),
        }
    }

    /// Parses a `t=2@host:port,host:port,…` deployment spec: the
    /// quorum threshold, then the share-holder addresses; `n` is the
    /// address count.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] on an unparseable spec or an invalid
    /// `(n, t)` combination.
    pub fn from_spec(spec: &str) -> Result<Self, NetError> {
        let bad = |why: &str| NetError::Malformed(format!("threshold spec `{spec}`: {why}"));
        let (head, tail) = spec
            .split_once('@')
            .ok_or_else(|| bad("expected `t=<quorum>@addr,addr,…`"))?;
        let t: u32 = head
            .strip_prefix("t=")
            .ok_or_else(|| bad("expected a `t=<quorum>` prefix"))?
            .parse()
            .map_err(|_| bad("quorum is not a number"))?;
        let addrs = tail
            .split(',')
            .map(|a| a.trim().parse::<SocketAddr>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|_| bad("address does not parse"))?;
        let setup = ThresholdSetup::new(addrs.len() as u32, t)
            .map_err(|e| bad(&format!("invalid setup: {e}")))?;
        Ok(Self::new(addrs, setup))
    }

    /// The `(n, t)` deployment this connector expects.
    pub fn setup(&self) -> ThresholdSetup {
        self.setup
    }

    /// Injects a [`FaultPlan`] on the connection to the node at
    /// position `pos` (0-based, in address order). The plan starts
    /// counting after the connect handshake, so `kill_after_sends(k)`
    /// kills the node after `k` derivation requests. Test-oriented: the
    /// conformance suite uses this to kill `n − t` nodes mid-run.
    pub fn with_fault_plan(mut self, pos: usize, plan: FaultPlan) -> Self {
        self.fault_plans.insert(pos, plan);
        self
    }
}

/// Builds an [`AuthorityConnector`] from a deployment spec: a
/// `t=<quorum>@addr,addr,…` string selects a [`ThresholdAuthority`]
/// fleet, a bare `host:port` a single [`RemoteAuthority`].
///
/// # Errors
///
/// [`NetError::Malformed`] when the spec is neither form.
pub fn connector_from_spec(spec: &str) -> Result<Arc<dyn AuthorityConnector>, NetError> {
    if spec.contains('@') {
        return Ok(Arc::new(ThresholdAuthority::from_spec(spec)?));
    }
    let addr: SocketAddr = spec.parse().map_err(|_| {
        NetError::Malformed(format!(
            "authority spec `{spec}`: neither a `host:port` address nor a \
             `t=<quorum>@addr,…` threshold spec"
        ))
    })?;
    Ok(Arc::new(RemoteAuthority::new(addr)))
}

impl AuthorityConnector for ThresholdAuthority {
    fn connect(
        &self,
        session: SessionId,
        config: &SessionConfig,
    ) -> Result<(PublicParams, Box<dyn AuthorityChannel>), NetError> {
        let need = self.setup.t();
        let mut params: Option<PublicParams> = None;
        let mut commitments: Option<Vec<Element>> = None;
        let mut nodes: Vec<Box<dyn ShareClient>> = Vec::new();
        for (pos, addr) in self.addrs.iter().enumerate() {
            let handshake = dial_share_node(*addr, || Hello {
                session,
                peer: Peer::Server,
                config: config.clone(),
            });
            let (transport, node_params, info) = match handshake {
                Ok(ok) => ok,
                // A rejection is a disagreement about the session (bad
                // config, an index collision), not a dead peer — it
                // would reproduce on every retry, so fail loudly.
                Err(NetError::Rejected(why)) => return Err(NetError::Rejected(why)),
                // Anything else is a dead/unreachable node: threshold
                // mode exists to tolerate exactly this.
                Err(_) => continue,
            };
            if (info.n as usize, info.t as usize) != (self.setup.n(), self.setup.t()) {
                return Err(NetError::Rejected(format!(
                    "node at {addr} reports a {}-of-{} deployment, connector expects {}-of-{}",
                    info.t,
                    info.n,
                    self.setup.t(),
                    self.setup.n(),
                )));
            }
            match &params {
                Some(first) if *first != node_params => {
                    return Err(NetError::Rejected(format!(
                        "node at {addr} disagrees on the public parameters"
                    )));
                }
                Some(_) => {}
                None => params = Some(node_params),
            }
            match &commitments {
                Some(first) if *first != info.febo_commitments => {
                    return Err(NetError::Rejected(format!(
                        "node at {addr} disagrees on the share commitments"
                    )));
                }
                Some(_) => {}
                None => commitments = Some(info.febo_commitments),
            }
            let transport: Box<dyn Transport + Send> = match self.fault_plans.get(&pos) {
                Some(plan) => Box::new(FaultyTransport::new(transport, *plan)),
                None => Box::new(transport),
            };
            nodes.push(Box::new(TcpShareClient {
                index: info.index,
                transport,
            }));
        }
        if nodes.len() < need {
            return Err(NetError::Quorum {
                have: nodes.len(),
                need,
            });
        }
        let (params, commitments) = (
            params.expect("quorum met"),
            commitments.expect("quorum met"),
        );
        let group = SchnorrGroup::precomputed(config.level);
        let service = ThresholdKeyService::new(
            group,
            self.setup,
            params.febo_mpk.clone(),
            commitments,
            nodes,
        )
        .map_err(|e| NetError::Rejected(format!("threshold deployment rejected: {e}")))?;
        Ok((params, Box::new(ThresholdChannel { service })))
    }
}

/// Dials one share-holder and runs the connect handshake: `Hello` →
/// `PublicParams`, then `ShareRequest::Info` → `PartialKey::Info`.
fn dial_share_node(
    addr: SocketAddr,
    hello: impl FnOnce() -> Hello,
) -> Result<(TcpTransport, PublicParams, ShareInfo), NetError> {
    let mut transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
    transport.send(&NetMsg::Hello(hello()))?;
    let params = match transport.recv()? {
        Some(NetMsg::Msg(WireMessage::PublicParams(p))) => p,
        Some(NetMsg::Reject(why)) => return Err(NetError::Rejected(why)),
        Some(_) => return Err(NetError::UnexpectedFrame("expected PublicParams")),
        None => return Err(NetError::Disconnected),
    };
    transport.send(&NetMsg::Msg(WireMessage::ShareRequest(ShareRequest::Info)))?;
    let info = match transport.recv()? {
        Some(NetMsg::Msg(WireMessage::PartialKey(PartialKey::Info(info)))) => info,
        Some(NetMsg::Reject(why)) => return Err(NetError::Rejected(why)),
        Some(_) => return Err(NetError::UnexpectedFrame("expected ShareInfo")),
        None => return Err(NetError::Disconnected),
    };
    Ok((transport, params, info))
}

/// The [`AuthorityChannel`] of a threshold deployment: key requests
/// answered by local Lagrange recombination over the share-holder
/// fleet, behind the exact wire contract [`AuthoritySession::handle`]
/// implements — so the server session (and the key cache above it, which
/// therefore only ever holds aggregated keys) cannot tell a quorum from
/// a single authority.
struct ThresholdChannel {
    service: ThresholdKeyService,
}

impl AuthorityChannel for ThresholdChannel {
    fn exchange(&mut self, req: KeyRequest) -> Result<KeyResponse, ProtocolError> {
        let dim_of = |r: &KeyRequest| match r {
            KeyRequest::FeipMpk(dim) | KeyRequest::Feip(FeipKeysRequest { dim, .. }) => Some(*dim),
            KeyRequest::Febo(_) => None,
        };
        if dim_of(&req) == Some(0) {
            return Ok(KeyResponse::Denied(
                "FEIP dimension must be positive".into(),
            ));
        }
        match req {
            KeyRequest::FeipMpk(dim) => {
                settle(self.service.feip_public_key(dim), KeyResponse::FeipMpk)
            }
            KeyRequest::Feip(FeipKeysRequest { dim, ys }) => {
                settle(self.service.derive_ip_keys(dim, &ys), KeyResponse::Feip)
            }
            KeyRequest::Febo(FeboKeysRequest { reqs }) => {
                settle(self.service.derive_bo_keys(&reqs), KeyResponse::Febo)
            }
        }
    }
}

/// Maps combiner outcomes onto the wire contract: refusals become
/// [`KeyResponse::Denied`] exactly as a single authority records them,
/// quorum loss fails closed as the typed [`ProtocolError::Quorum`], and
/// tampering beyond recovery is a hard transport-class failure — never
/// a silently wrong key.
fn settle<T>(
    result: Result<T, FeError>,
    ok: impl FnOnce(T) -> KeyResponse,
) -> Result<KeyResponse, ProtocolError> {
    match result {
        Ok(v) => Ok(ok(v)),
        Err(FeError::InsufficientShares { have, need }) => {
            Err(ProtocolError::Quorum { have, need })
        }
        Err(e @ (FeError::SharesTampered { .. } | FeError::Protocol(_))) => {
            Err(ProtocolError::Transport(e.to_string()))
        }
        Err(e) => Ok(KeyResponse::Denied(e.to_string())),
    }
}
