//! The reactor front door at scale: ≥1024 *concurrent* predict
//! connections on one loop thread, served bit-identically.
//!
//! The [`InferenceFleet`] holds every connection in one reactor slab —
//! an idle connection costs a slab entry, not a thread. The acceptance
//! property is twofold:
//!
//! 1. all 1024 handshakes complete and stay live *simultaneously*
//!    (reactor peak ≥ 1024);
//! 2. predictions served through the fleet are bit-identical to
//!    in-process [`predict_encrypted`] on the same ciphertexts.
//!
//! Also pinned here, on the bare [`Reactor`]: a worker's send-then-close
//! delivers the whole frame to a peer that was not reading when the
//! close was issued.
//!
//! [`predict_encrypted`]: cryptonn_core::CryptoMlp::predict_encrypted

use std::sync::Arc;

use cryptonn_core::{Client, CryptoMlp, Objective};
use cryptonn_data::clinic_dataset;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    AuthorityOptions, AuthorityServer, ConnId, FleetOptions, FrameRx, FrameTx, InferenceClient,
    InferenceFleet, NetMsg, Reactor, ReactorApp, ReactorCtx, ReactorOptions, RemoteAuthority,
    TcpTransport, DEFAULT_MAX_FRAME,
};
use cryptonn_protocol::{
    mlp_session_config, AuthoritySession, ClientId, InferenceOptions, MlpSpec, SessionConfig,
    SessionId, TrainingSessionRunner,
};

const CONNS: usize = 1024;
/// Every SAMPLE_EVERY-th connection actually predicts; the rest prove
/// the concurrency (an idle reactor connection must cost a slab entry,
/// not a thread).
const SAMPLE_EVERY: usize = 64;

fn serving_config(data: &cryptonn_data::Dataset) -> SessionConfig {
    mlp_session_config(
        MlpSpec {
            feature_dim: data.feature_dim(),
            hidden: vec![3],
            classes: data.classes(),
            objective: Objective::SoftmaxCrossEntropy,
        },
        1,
        1,
        4,
        0.7,
    )
}

fn trained_model(config: &SessionConfig, data: &cryptonn_data::Dataset) -> CryptoMlp {
    TrainingSessionRunner::new(config.clone())
        .run_mlp(data)
        .expect("training session completes")
        .server
        .into_mlp()
        .expect("MLP session")
}

fn input_for(i: usize, dim: usize) -> Matrix<f64> {
    Matrix::from_fn(1, dim, |_, c| ((i * 13 + c * 5) % 7) as f64 / 7.0)
}

/// A liveness backstop: a wedged reactor must fail fast and named, not
/// hang the suite. Disarmed on drop, including a test's own panic.
struct Watchdog(Arc<std::sync::atomic::AtomicBool>);

fn watchdog(test: &'static str) -> Watchdog {
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observed = Arc::clone(&done);
    std::thread::spawn(move || {
        let limit = std::time::Duration::from_secs(240);
        let deadline = std::time::Instant::now() + limit;
        while std::time::Instant::now() < deadline {
            if observed.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
        eprintln!("watchdog: {test} still running after {limit:?}; aborting the test binary");
        std::process::exit(101);
    });
    Watchdog(done)
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::SeqCst);
    }
}

#[test]
fn thousand_plus_concurrent_connections_serve_bit_identically() {
    let _guard = watchdog("thousand_plus_concurrent_connections_serve_bit_identically");
    let data = clinic_dataset(12, 76);
    let config = serving_config(&data);
    let session = SessionId(910);

    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session,
        &config,
        trained_model(&config, &data),
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        FleetOptions {
            shards: 2,
            session: InferenceOptions {
                max_batch: 4,
                key_cache: 256,
            },
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet");
    let addr = fleet.local_addr();

    // Phase 1: open every connection and hold them all. Each connect
    // completes the Hello/PublicParams handshake, so after the loop the
    // fleet holds CONNS fully-admitted concurrent clients.
    let mut clients = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        clients.push(
            InferenceClient::connect(
                addr,
                session,
                ClientId(i as u32),
                &config,
                9000 + i as u64,
                DEFAULT_MAX_FRAME,
            )
            .unwrap_or_else(|e| panic!("connection {i} failed: {e}")),
        );
    }
    assert_eq!(fleet.live_clients(), CONNS, "all handshakes admitted");
    let stats = fleet.reactor_stats();
    assert!(
        stats.peak as usize >= CONNS,
        "reactor peak {} < {CONNS} concurrent connections",
        stats.peak
    );

    // Phase 2: with every connection still open, a sample predicts.
    let mut served = Vec::new();
    for i in (0..CONNS).step_by(SAMPLE_EVERY) {
        let out = clients[i]
            .predict(&input_for(i, data.feature_dim()))
            .unwrap_or_else(|e| panic!("prediction on connection {i} failed: {e}"));
        served.push((i, out));
    }
    assert_eq!(fleet.served(), served.len() as u64);
    assert!(
        fleet.cache_stats().hits > 0,
        "the shared key cache must carry the fleet's steady state"
    );
    let backend = fleet.backend();
    drop(clients);
    fleet.shutdown();

    // Reference: in-process predict_encrypted on a trained twin with
    // the per-client encryptor seeds — bit-identity end to end.
    let mut reference = trained_model(&config, &data);
    let ref_authority = AuthoritySession::new(&config);
    let params = ref_authority.public_params_for(&config);
    for (i, out) in &served {
        let mut encryptor = Client::from_keys(
            params.x_mpk.clone(),
            params.y_mpk.clone(),
            params.febo_mpk.clone(),
            params.fp,
            9000 + *i as u64,
        );
        let batch = encryptor
            .encrypt_features(&input_for(*i, data.feature_dim()))
            .expect("encrypt");
        let direct = reference
            .predict_encrypted(ref_authority.authority(), &batch)
            .expect("in-process predict");
        assert_eq!(
            out, &direct,
            "fleet ({backend}) diverged from in-process on connection {i}"
        );
    }

    authority.shutdown();
}

/// A client whose previous connection is still registered — a
/// half-open leftover of a link that died without a FIN — must not be
/// locked out: the fleet evicts the stale registration and serves the
/// newcomer (latest connection wins, the SessionServer rejoin rule).
#[test]
fn reconnect_evicts_the_stale_registration() {
    let _guard = watchdog("reconnect_evicts_the_stale_registration");
    let data = clinic_dataset(12, 78);
    let config = serving_config(&data);
    let session = SessionId(912);

    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session,
        &config,
        trained_model(&config, &data),
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        FleetOptions::default(),
    )
    .expect("inference fleet");

    // The stale connection handshakes and then just sits there — from
    // the fleet's side, indistinguishable from a peer that lost power.
    let stale = InferenceClient::connect(
        fleet.local_addr(),
        session,
        ClientId(7),
        &config,
        55,
        DEFAULT_MAX_FRAME,
    )
    .expect("first connection");
    assert_eq!(fleet.live_clients(), 1);

    // Reconnecting under the same id must succeed while the stale
    // registration is still live, and the newcomer must be served.
    let mut fresh = InferenceClient::connect(
        fleet.local_addr(),
        session,
        ClientId(7),
        &config,
        55,
        DEFAULT_MAX_FRAME,
    )
    .expect("reconnect while the stale registration is live");
    let x = input_for(7, data.feature_dim());
    let first = fresh.predict(&x).expect("served after eviction");
    let second = fresh.predict(&x).expect("still served");
    assert_eq!(first, second, "same input, same frozen model");
    // The registry holds exactly the fresh connection: the eviction
    // replaced the entry, and the stale close must not remove it.
    assert_eq!(fleet.live_clients(), 1, "latest connection owns the id");

    drop(stale);
    drop(fresh);
    fleet.shutdown();
    authority.shutdown();
}

/// The splitmix shard router is deterministic and reasonably balanced:
/// a reconnecting client must land on the same shard (FIFO per client),
/// and no shard may be starved at fleet scale.
#[test]
fn shard_routing_is_deterministic_and_balanced() {
    let _guard = watchdog("shard_routing_is_deterministic_and_balanced");
    let data = clinic_dataset(12, 77);
    let config = serving_config(&data);
    let session = SessionId(911);

    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session,
        &config,
        trained_model(&config, &data),
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        FleetOptions {
            shards: 4,
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet");

    // The same client id, reconnecting, is served identically (same
    // shard replica, same frozen weights — indistinguishable outputs).
    let x = input_for(3, data.feature_dim());
    let mut first = None;
    for _round in 0..2 {
        let mut client = InferenceClient::connect(
            fleet.local_addr(),
            session,
            ClientId(42),
            &config,
            77,
            DEFAULT_MAX_FRAME,
        )
        .expect("client connects");
        let out = client.predict(&x).expect("prediction");
        match &first {
            None => first = Some(out),
            Some(prev) => assert_eq!(prev, &out, "reconnect must be served identically"),
        }
        // Dropping the client frees its id for the reconnect; give the
        // loop a moment to observe the close.
        drop(client);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while fleet.live_clients() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(fleet.live_clients(), 0, "close must reach the registry");
    }
    fleet.shutdown();
    authority.shutdown();
}

/// A bare reactor app for the close test: the first frame on a
/// connection hands its id to the test, which then plays the worker.
struct HandOff(std::sync::mpsc::Sender<ConnId>);

impl ReactorApp for HandOff {
    fn on_frame(&mut self, ctx: &mut ReactorCtx<'_>, conn: ConnId, _msg: NetMsg) -> Option<NetMsg> {
        ctx.set_handshaken(conn);
        let _ = self.0.send(conn);
        None
    }

    fn on_closed(&mut self, _ctx: &mut ReactorCtx<'_>, _conn: ConnId) {}
}

/// A worker's send-then-close (the final `Summary`, a `Reject` verdict)
/// must deliver the frame: the peer here reads nothing until a frame
/// far larger than the loopback socket buffers *and* the close have
/// both been issued, so the close finds most of the frame still queued
/// — and the peer still receives all of it, then EOF.
#[test]
fn worker_close_flushes_a_blocked_final_frame_first() {
    let _guard = watchdog("worker_close_flushes_a_blocked_final_frame_first");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("listener binds");
    let (conn_tx, conn_rx) = std::sync::mpsc::channel();
    let reactor = Reactor::start(listener, ReactorOptions::default(), |_| HandOff(conn_tx))
        .expect("reactor starts");

    let mut peer =
        TcpTransport::connect(reactor.local_addr(), DEFAULT_MAX_FRAME).expect("peer connects");
    peer.send(&NetMsg::Reject("go".into()))
        .expect("peer speaks");
    let conn = conn_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("the loop saw the peer's frame");

    let verdict = NetMsg::Reject("x".repeat(16 * 1024 * 1024));
    let handle = reactor.handle();
    handle.send(conn, &verdict).expect("frame encodes");
    handle.close(conn);
    // Give the loop time to take both commands while the peer is idle.
    std::thread::sleep(std::time::Duration::from_millis(200));
    assert_eq!(
        reactor.stats().live,
        1,
        "the frame must outsize the socket buffers, leaving the close to wait on the flush"
    );

    assert_eq!(
        peer.recv().expect("the final frame arrives whole"),
        Some(verdict)
    );
    assert_eq!(peer.recv().expect("then a clean close"), None);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while reactor.stats().live > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(reactor.stats().live, 0, "the flushed connection is closed");
    reactor.shutdown();
}
