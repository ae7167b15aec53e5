//! End-to-end sessions over TCP loopback: the networked stack must be
//! an *implementation detail* — training over real sockets, through
//! the multi-session server and the networked key authority, produces
//! weights bit-identical to the deterministic in-process runner on the
//! same config and dataset; concurrent sessions stay independent; and
//! a client disconnecting mid-epoch fails only its own session.

use std::net::SocketAddr;
use std::sync::Arc;

use cryptonn_core::Objective;
use cryptonn_data::clinic_dataset;
use cryptonn_net::{
    run_client, AuthorityConnector, AuthorityOptions, AuthorityServer, NetError, RemoteAuthority,
    ServerOptions, SessionOutcomeKind, SessionServer, TcpTransport, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    mlp_session_config, round_robin_shards, ClientId, ClientSession, KeyRequest, MlpSpec,
    SessionConfig, SessionId, SessionSummary, TrainingSessionRunner, WireMessage,
};

fn small_config(data: &cryptonn_data::Dataset, clients: u32, epochs: u32) -> SessionConfig {
    mlp_session_config(
        MlpSpec {
            feature_dim: data.feature_dim(),
            hidden: vec![3],
            classes: data.classes(),
            objective: Objective::SoftmaxCrossEntropy,
        },
        clients,
        epochs,
        3,
        0.7,
    )
}

/// A last-resort liveness backstop for the fault-injected scenarios: a
/// churn wedge (member and daemon each waiting on the other) would
/// hang the binary forever; the watchdog turns that into a fast, named
/// failure. Disarmed on drop — including a test's own panic.
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

/// The worker records a session's outcome *after* broadcasting the
/// summary, so clients can observe completion slightly before the
/// ledger does; give it a moment.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

/// Starts the two daemons wired together over loopback.
fn start_stack(options: ServerOptions) -> (AuthorityServer, SessionServer) {
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority binds");
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        options,
    )
    .expect("server binds");
    (authority, server)
}

/// Runs one full session over TCP: shards the dataset, spawns one
/// thread per client, returns every member's summary.
fn run_tcp_session(
    addr: SocketAddr,
    session: SessionId,
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
) -> Vec<Result<SessionSummary, NetError>> {
    let shards = round_robin_shards(data, config.batch_size as usize, config.clients as usize);
    let workers: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let sm = ClientSession::new(
                    ClientId(i as u32),
                    config.client_seed_base + i as u64,
                    Parallelism::Serial,
                    shard,
                );
                let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
                run_client(transport, session, sm, &config)
            })
        })
        .collect();
    workers
        .into_iter()
        .map(|w| w.join().expect("client thread must not panic"))
        .collect()
}

/// The acceptance criterion: a full MLP training session over TCP
/// loopback produces weights bit-identical to the in-process
/// deterministic runner on the same config and dataset.
#[test]
fn tcp_loopback_training_matches_in_process_runner_bitwise() {
    let data = clinic_dataset(12, 41);
    let config = small_config(&data, 2, 2);

    let in_process = TrainingSessionRunner::new(config.clone())
        .run_mlp(&data)
        .expect("in-process session runs")
        .summary;

    let (authority, server) = start_stack(ServerOptions::default());
    let summaries = run_tcp_session(server.local_addr(), SessionId(7), &config, &data);
    server.shutdown();
    authority.shutdown();

    for summary in summaries {
        let summary = summary.expect("TCP client completes");
        assert_eq!(
            summary, in_process,
            "TCP loopback training diverged from the in-process runner"
        );
    }
}

/// A one-slot session queue: with two clients streaming batches, the
/// loop keeps finding the queue full, parks the frame, suspends that
/// connection's reads, and retries on the worker's nudge — and the
/// park/retry path must not reorder, drop, or duplicate a frame: the
/// run is still bit-identical to the in-process golden.
#[test]
fn one_slot_session_queue_trains_bit_identical_to_golden() {
    let _watchdog = watchdog("one_slot_session_queue_trains_bit_identical_to_golden");
    let data = clinic_dataset(24, 43);
    let config = small_config(&data, 2, 2);

    let golden = TrainingSessionRunner::new(config.clone())
        .run_mlp(&data)
        .expect("in-process session runs")
        .summary;

    let (authority, server) = start_stack(ServerOptions {
        queue_depth: 1,
        ..ServerOptions::default()
    });
    let summaries = run_tcp_session(server.local_addr(), SessionId(8), &config, &data);
    wait_until("the session to be recorded", || {
        server.finished_sessions().len() == 1
    });
    assert_eq!(
        server.finished_sessions()[0],
        (SessionId(8), SessionOutcomeKind::Completed)
    );
    server.shutdown();
    authority.shutdown();

    for summary in summaries {
        assert_eq!(
            summary.expect("TCP client completes"),
            golden,
            "a parked-and-retried frame changed the training result"
        );
    }
}

/// S=4 simultaneous sessions × K=2 clients over one server/authority
/// pair: every session finishes with the weights its own in-process
/// run produces, and different workloads produce different weights
/// (independence).
#[test]
fn concurrent_sessions_finish_with_correct_independent_weights() {
    const S: usize = 4;
    const K: u32 = 2;
    let workloads: Vec<_> = (0..S)
        .map(|i| {
            let data = clinic_dataset(12, 100 + i as u64);
            let mut config = small_config(&data, K, 1);
            // Distinct seeds per session: independent keys and models.
            config.authority_seed += i as u64;
            config.model_seed += i as u64;
            (data, config)
        })
        .collect();

    let expected: Vec<SessionSummary> = workloads
        .iter()
        .map(|(data, config)| {
            TrainingSessionRunner::new(config.clone())
                .run_mlp(data)
                .expect("in-process session runs")
                .summary
        })
        .collect();

    let (authority, server) = start_stack(ServerOptions::default());
    let addr = server.local_addr();
    let sessions: Vec<_> = workloads
        .iter()
        .enumerate()
        .map(|(i, (data, config))| {
            let data = data.clone();
            let config = config.clone();
            std::thread::spawn(move || run_tcp_session(addr, SessionId(i as u64), &config, &data))
        })
        .collect();
    let results: Vec<Vec<_>> = sessions
        .into_iter()
        .map(|s| s.join().expect("session thread"))
        .collect();

    for (i, (result, expected)) in results.iter().zip(&expected).enumerate() {
        for summary in result {
            let summary = summary.as_ref().expect("TCP client completes");
            assert_eq!(summary, expected, "session {i} diverged from its baseline");
        }
    }
    // Independence: distinct workloads trained distinct models.
    for i in 0..S {
        for j in (i + 1)..S {
            assert_ne!(
                expected[i].final_w1, expected[j].final_w1,
                "sessions {i} and {j} should not share weights"
            );
        }
    }
    wait_until("all sessions to land in the ledger", || {
        server.finished_sessions().len() == S
    });
    let finished = server.finished_sessions();
    assert!(finished
        .iter()
        .all(|(_, outcome)| *outcome == SessionOutcomeKind::Completed));
    server.shutdown();
    authority.shutdown();
}

/// A client driver that behaves until `batches_before_drop` encrypted
/// batches are on the wire, then severs the connection mid-epoch.
fn faulty_client(
    addr: SocketAddr,
    session: SessionId,
    mut sm: ClientSession,
    config: &SessionConfig,
    batches_before_drop: usize,
) {
    use cryptonn_net::{FrameRx, FrameTx, Hello, NetMsg, Peer};
    let mut transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME).expect("connect");
    transport
        .send(&NetMsg::Hello(Hello {
            session,
            peer: Peer::Client(sm.id()),
            config: config.clone(),
        }))
        .expect("hello");
    let mut sent_batches = 0usize;
    let outs = sm
        .handle_message(&WireMessage::Config(config.clone()))
        .expect("config");
    for ob in outs {
        transport.send(&NetMsg::Msg(ob.msg)).expect("register");
    }
    while let Ok(Some(NetMsg::Msg(msg))) = transport.recv() {
        let outs = sm.handle_message(&msg).expect("handle");
        for ob in outs {
            if matches!(ob.msg, WireMessage::Batch(_)) {
                sent_batches += 1;
            }
            transport.send(&NetMsg::Msg(ob.msg)).expect("send");
            if sent_batches >= batches_before_drop {
                return; // dropping the transport severs the connection
            }
        }
    }
}

/// One client disconnecting mid-epoch fails only its own session: the
/// other member of that session is told, and an unrelated concurrent
/// session completes bit-exactly.
#[test]
fn mid_epoch_disconnect_fails_only_its_own_session() {
    // Enough batches per client that one sent batch is mid-epoch.
    let victim_data = clinic_dataset(24, 51);
    let victim_config = small_config(&victim_data, 2, 2);
    let healthy_data = clinic_dataset(12, 52);
    let healthy_config = small_config(&healthy_data, 2, 1);
    let healthy_expected = TrainingSessionRunner::new(healthy_config.clone())
        .run_mlp(&healthy_data)
        .expect("in-process session runs")
        .summary;

    let (authority, server) = start_stack(ServerOptions::default());
    let addr = server.local_addr();
    let victim_id = SessionId(66);
    let healthy_id = SessionId(67);

    // Victim session: client 0 is honest, client 1 drops after one batch.
    let shards = round_robin_shards(
        &victim_data,
        victim_config.batch_size as usize,
        victim_config.clients as usize,
    );
    let mut shards = shards.into_iter();
    let honest = {
        let shard = shards.next().unwrap();
        let config = victim_config.clone();
        std::thread::spawn(move || {
            let sm = ClientSession::new(
                ClientId(0),
                config.client_seed_base,
                Parallelism::Serial,
                shard,
            );
            let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
            run_client(transport, victim_id, sm, &config)
        })
    };
    let faulty = {
        let shard = shards.next().unwrap();
        let config = victim_config.clone();
        std::thread::spawn(move || {
            let sm = ClientSession::new(
                ClientId(1),
                config.client_seed_base + 1,
                Parallelism::Serial,
                shard,
            );
            faulty_client(addr, victim_id, sm, &config, 1);
        })
    };
    // Healthy session runs concurrently with the failing one.
    let healthy = {
        let data = healthy_data.clone();
        let config = healthy_config.clone();
        std::thread::spawn(move || run_tcp_session(addr, healthy_id, &config, &data))
    };

    faulty.join().expect("faulty client thread");
    let honest_result = honest.join().expect("honest client thread");
    match honest_result {
        Err(NetError::Rejected(why)) => {
            assert!(
                why.contains("disconnected"),
                "honest client should learn why its session died, got: {why}"
            );
        }
        Err(NetError::Disconnected) => {} // the teardown race can close first
        other => panic!("victim session must fail for its honest member, got {other:?}"),
    }

    for summary in healthy.join().expect("healthy session thread") {
        let summary = summary.expect("healthy session completes");
        assert_eq!(
            summary, healthy_expected,
            "healthy session diverged while an unrelated session failed"
        );
    }

    // The server's ledger shows one failure, one completion.
    wait_until("both sessions to land in the ledger", || {
        server.finished_sessions().len() == 2
    });
    let finished = server.finished_sessions();
    let of = |id: SessionId| {
        finished
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, outcome)| outcome.clone())
    };
    assert_eq!(of(healthy_id), Some(SessionOutcomeKind::Completed));
    match of(victim_id) {
        Some(SessionOutcomeKind::Failed(why)) => assert!(why.contains("disconnected")),
        other => panic!("victim session should be recorded as failed, got {other:?}"),
    }
    server.shutdown();
    authority.shutdown();
}

/// The same mid-epoch disconnect under the *resume* policy: the
/// session does not fail. The dropped client's resumable driver
/// reconnects, the server's `Resume` barrier rewinds its send cursor
/// to what was actually consumed, the lost in-flight batch is
/// re-encrypted and re-sent, and both members finish bit-identical to
/// the uninterrupted in-process run.
#[test]
fn mid_epoch_disconnect_under_resume_policy_rejoins_and_completes() {
    use cryptonn_net::{run_client_resumable, FaultPlan, FaultyTransport};
    use cryptonn_protocol::SessionPolicy;

    let _watchdog = watchdog("mid_epoch_disconnect_under_resume_policy_rejoins_and_completes");
    let data = clinic_dataset(24, 53);
    let mut config = small_config(&data, 2, 2);
    config.policy = SessionPolicy::resume();
    let expected = TrainingSessionRunner::new(config.clone())
        .run_mlp(&data)
        .expect("in-process session runs")
        .summary;

    let (authority, server) = start_stack(ServerOptions::default());
    let addr = server.local_addr();
    let session = SessionId(68);
    let mut shards = round_robin_shards(&data, 3, 2).into_iter();

    let steady = {
        let shard = shards.next().unwrap();
        let config = config.clone();
        std::thread::spawn(move || {
            let sm = ClientSession::new(
                ClientId(0),
                config.client_seed_base,
                Parallelism::Serial,
                shard,
            );
            let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
            run_client(transport, session, sm, &config)
        })
    };
    let churned = {
        let shard = shards.next().unwrap();
        let config = config.clone();
        std::thread::spawn(move || {
            let sm = ClientSession::new(
                ClientId(1),
                config.client_seed_base + 1,
                Parallelism::Serial,
                shard,
            );
            run_client_resumable(
                |attempt| {
                    // First connection dies mid-epoch, after two
                    // encrypted batches crossed the wire; retries are
                    // clean.
                    let plan = if attempt == 0 {
                        FaultPlan::kill_after_batches(2)
                    } else {
                        FaultPlan::default()
                    };
                    Ok(FaultyTransport::new(
                        TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?,
                        plan,
                    ))
                },
                session,
                sm,
                &config,
                4,
            )
        })
    };

    let steady = steady.join().expect("steady client thread");
    let churned = churned.join().expect("churned client thread");
    assert_eq!(
        steady.expect("steady client completes despite its peer's churn"),
        expected
    );
    assert_eq!(churned.expect("churned client rejoins"), expected);

    wait_until("the session to land in the ledger", || {
        server.finished_sessions().len() == 1
    });
    assert_eq!(
        server.finished_sessions()[0],
        (session, SessionOutcomeKind::Completed)
    );
    server.shutdown();
    authority.shutdown();
}

/// A second session under the same id with a different config is
/// refused — the registry is keyed, not last-writer-wins.
#[test]
fn config_mismatch_on_an_existing_session_is_rejected() {
    let data = clinic_dataset(12, 61);
    let config = small_config(&data, 2, 1);
    let (authority, server) = start_stack(ServerOptions::default());
    let addr = server.local_addr();
    let session = SessionId(9);

    // First client creates the session but the session cannot proceed
    // (its partner never arrives with a matching config).
    let c0 = {
        let config = config.clone();
        let shard = round_robin_shards(&data, 3, 2).remove(0);
        std::thread::spawn(move || {
            let sm = ClientSession::new(ClientId(0), 1, Parallelism::Serial, shard);
            let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
            run_client(transport, session, sm, &config)
        })
    };
    // Give the first connection time to create the session.
    std::thread::sleep(std::time::Duration::from_millis(200));
    let mut other = config.clone();
    other.lr *= 2.0;
    let shard = round_robin_shards(&data, 3, 2).remove(1);
    let sm = ClientSession::new(ClientId(1), 2, Parallelism::Serial, shard);
    let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME).expect("connect");
    let got = run_client(transport, session, sm, &other);
    assert!(
        matches!(got, Err(NetError::Rejected(ref why)) if why.contains("different config")),
        "mismatched config must be rejected, got {got:?}"
    );

    // Tear down: shutting the server down severs client 0.
    server.shutdown();
    authority.shutdown();
    let _ = c0.join().expect("client 0 thread");
}

/// Shutting the authority daemon down must not wait on its peers: a
/// handler blocked reading a live link (a server's key channel, a
/// connection that never sent `Hello`) is severed, the call returns,
/// and the peer sees the disconnect on its next exchange.
#[test]
fn authority_shutdown_returns_while_peer_links_are_open() {
    let data = clinic_dataset(12, 62);
    let config = small_config(&data, 1, 1);
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority binds");
    let addr = authority.local_addr();
    let (_params, mut channel) = RemoteAuthority::new(addr)
        .connect(SessionId(31), &config)
        .expect("authority link");
    let _silent = std::net::TcpStream::connect(addr).expect("pre-Hello link");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let stopper = std::thread::spawn(move || {
        authority.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("AuthorityServer::shutdown hung on an open peer link");
    stopper.join().expect("shutdown thread");
    assert!(
        channel.exchange(KeyRequest::FeipMpk(3)).is_err(),
        "the severed link must fail the next exchange"
    );
}
