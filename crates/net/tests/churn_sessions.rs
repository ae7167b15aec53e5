//! Fault-injected churn over the real daemon: clients dropped by a
//! [`FaultyTransport`] mid-epoch rejoin through `run_client_resumable`
//! and the session completes bit-identical to the uninterrupted
//! in-process golden run — every connection a TCP loopback dial into
//! the daemon's one admission path — and a durable daemon killed
//! mid-epoch is restarted and resumes its sessions from ledger +
//! checkpoint to the same golden weights (DESIGN.md §14).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cryptonn_core::Objective;
use cryptonn_data::clinic_dataset;
use cryptonn_net::{
    run_client, run_client_resumable, AuthorityOptions, AuthorityServer, FaultPlan,
    FaultyTransport, LocalAuthority, NetError, RemoteAuthority, ServerOptions, SessionOutcomeKind,
    SessionServer, TcpTransport, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    mlp_session_config, round_robin_shards, CheckpointStore, ClientId, ClientSession, MlpSpec,
    SessionConfig, SessionId, SessionPolicy, SessionSummary, TrainingSessionRunner,
};
use parking_lot::Mutex;

fn resume_config(data: &cryptonn_data::Dataset, clients: u32, epochs: u32) -> SessionConfig {
    let mut config = mlp_session_config(
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
    );
    config.policy = SessionPolicy::resume();
    config
}

/// The uninterrupted reference run: the policy never reaches the
/// arithmetic, so the in-process runner is the golden oracle for every
/// churned variant.
fn golden(config: &SessionConfig, data: &cryptonn_data::Dataset) -> SessionSummary {
    TrainingSessionRunner::new(config.clone())
        .run_mlp(data)
        .expect("in-process golden run")
        .summary
}

type Shard = Vec<(cryptonn_matrix::Matrix<f64>, cryptonn_matrix::Matrix<f64>)>;

fn client_sm(config: &SessionConfig, i: usize, shard: Shard) -> ClientSession {
    ClientSession::new(
        ClientId(i as u32),
        config.client_seed_base + i as u64,
        Parallelism::Serial,
        shard,
    )
}

/// A last-resort liveness backstop. The wedges this suite exists to
/// catch (a member and the daemon each waiting on the other) would
/// otherwise hang the test binary forever; the watchdog turns an
/// infinite CI hang into a fast, named failure. Disarmed on drop —
/// including a test's own panic.
struct Watchdog(Arc<std::sync::atomic::AtomicBool>);

fn watchdog(test: &'static str) -> Watchdog {
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observed = Arc::clone(&done);
    std::thread::spawn(move || {
        let limit = Duration::from_secs(240);
        let deadline = std::time::Instant::now() + limit;
        while std::time::Instant::now() < deadline {
            if observed.load(std::sync::atomic::Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(250));
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

fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !cond() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting for {what}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Dials the daemon over TCP loopback.
fn dial(server: &SessionServer) -> TcpTransport {
    TcpTransport::connect(server.local_addr(), DEFAULT_MAX_FRAME).expect("loopback dial")
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cryptonn-churn-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// A scripted kill: client 1's connection dies after two encrypted
/// batches crossed the wire mid-epoch; the resumable driver redials,
/// the server's `Resume` barrier rewinds its cursor, and both members
/// finish with the golden weights.
#[test]
fn scripted_kill_rejoins_bit_identical_to_golden() {
    let _watchdog = watchdog("scripted_kill_rejoins_bit_identical_to_golden");
    let data = clinic_dataset(24, 151);
    let config = resume_config(&data, 2, 2);
    let expected = golden(&config, &data);

    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(LocalAuthority),
        ServerOptions::default(),
    )
    .expect("server binds");
    let session = SessionId(21);
    let mut shards = round_robin_shards(&data, 3, 2).into_iter();
    let shard0 = shards.next().unwrap();
    let shard1 = shards.next().unwrap();

    let (steady, churned) = std::thread::scope(|s| {
        let steady = s.spawn(|| {
            run_client(
                dial(&server),
                session,
                client_sm(&config, 0, shard0),
                &config,
            )
        });
        let churned = s.spawn(|| {
            run_client_resumable(
                |attempt| {
                    let plan = if attempt == 0 {
                        FaultPlan::kill_after_batches(2)
                    } else {
                        FaultPlan::default()
                    };
                    Ok(FaultyTransport::new(dial(&server), plan))
                },
                session,
                client_sm(&config, 1, shard1),
                &config,
                4,
            )
        });
        (
            steady.join().expect("steady client thread"),
            churned.join().expect("churned client thread"),
        )
    });

    assert_eq!(steady.expect("steady client completes"), expected);
    assert_eq!(churned.expect("churned client rejoins"), expected);
    wait_until("the session to land in the ledger", || {
        server.finished_sessions().len() == 1
    });
    assert_eq!(
        server.finished_sessions()[0],
        (session, SessionOutcomeKind::Completed)
    );
    server.shutdown();
}

/// Seeded-random churn: every frame boundary of the churning client
/// may kill the connection (a fresh seed per attempt), yet the
/// resumable driver always converges to the golden weights — the
/// rewind is idempotent under arbitrary kill points.
#[test]
fn seeded_random_kills_still_converge_to_golden() {
    let _watchdog = watchdog("seeded_random_kills_still_converge_to_golden");
    let data = clinic_dataset(24, 152);
    let config = resume_config(&data, 2, 2);
    let expected = golden(&config, &data);

    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(LocalAuthority),
        ServerOptions::default(),
    )
    .expect("server binds");
    let session = SessionId(22);
    let mut shards = round_robin_shards(&data, 3, 2).into_iter();
    let shard0 = shards.next().unwrap();
    let shard1 = shards.next().unwrap();

    let (steady, churned) = std::thread::scope(|s| {
        let steady = s.spawn(|| {
            run_client(
                dial(&server),
                session,
                client_sm(&config, 0, shard0),
                &config,
            )
        });
        let churned = s.spawn(|| {
            run_client_resumable(
                |attempt| {
                    // A distinct seed per attempt: the fault sequence
                    // differs across reconnects but the whole scenario
                    // replays bit-identically run-to-run.
                    let plan = FaultPlan::random(9000 + u64::from(attempt), 0.04);
                    Ok(FaultyTransport::new(dial(&server), plan))
                },
                session,
                client_sm(&config, 1, shard1),
                &config,
                32,
            )
        });
        (
            steady.join().expect("steady client thread"),
            churned.join().expect("churned client thread"),
        )
    });

    assert_eq!(steady.expect("steady client completes"), expected);
    assert_eq!(churned.expect("churned client converges"), expected);
    server.shutdown();
}

/// The kill-9 scenario: a durable daemon is torn down mid-epoch with
/// two sessions in flight, then a *fresh* daemon process (same
/// durability directory, new port) takes over. One session resumes
/// from its checkpoint plus the ledger suffix; the other — checkpoint
/// deleted to model a corrupt/lost file — replays its whole ledger
/// from offset zero. Both complete bit-identical to their golden runs
/// and their durable state is reclaimed. Daemon A also finds a stale
/// JSONL (v1) ledger under one id: without the `CNNWAL02` magic it is
/// alien, so the session starts fresh instead of "resuming" it.
#[test]
fn restarted_daemon_resumes_durable_sessions_to_completion() {
    let _watchdog = watchdog("restarted_daemon_resumes_durable_sessions_to_completion");
    let dir = tempdir("crash-resume");
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority binds");
    let options = ServerOptions {
        durability: Some(dir.clone()),
        checkpoint_every_steps: 2,
        ..ServerOptions::default()
    };
    let server_a = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        options.clone(),
    )
    .expect("server A binds");
    // Clients re-resolve the daemon address on every attempt, so the
    // restarted daemon's fresh port is picked up transparently.
    let addr = Arc::new(Mutex::new(server_a.local_addr()));

    let with_ckpt = SessionId(31);
    let without_ckpt = SessionId(32);
    let workloads: Vec<(SessionId, cryptonn_data::Dataset, SessionConfig)> =
        [(with_ckpt, 161u64), (without_ckpt, 162u64)]
            .into_iter()
            .map(|(id, seed)| {
                let data = clinic_dataset(24, seed);
                let mut config = resume_config(&data, 2, 2);
                // Distinct seeds per session: independent keys + models.
                config.authority_seed += id.0;
                config.model_seed += id.0;
                (id, data, config)
            })
            .collect();
    let expected: Vec<SessionSummary> = workloads
        .iter()
        .map(|(_, data, config)| golden(config, data))
        .collect();
    let ledger_of = |id: SessionId| dir.join(format!("{id}.ledger"));
    std::fs::write(
        ledger_of(with_ckpt),
        format!(
            "{{\"Config\":{}}}\n",
            serde_json::to_string(&workloads[0].2).expect("config serializes")
        ),
    )
    .expect("plant a v1 ledger");

    let clients: Vec<_> = workloads
        .iter()
        .flat_map(|(id, data, config)| {
            let shards = round_robin_shards(data, 3, 2);
            shards.into_iter().enumerate().map({
                let id = *id;
                let config = config.clone();
                let addr = Arc::clone(&addr);
                move |(i, shard)| {
                    let sm = client_sm(&config, i, shard);
                    let config = config.clone();
                    let addr = Arc::clone(&addr);
                    std::thread::spawn(move || {
                        run_client_resumable(
                            |_attempt| {
                                // Block until a daemon is reachable: the
                                // crash-restart gap looks like transient
                                // connection refusal, not a give-up.
                                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                                loop {
                                    let target = *addr.lock();
                                    match TcpTransport::connect(target, DEFAULT_MAX_FRAME) {
                                        Ok(t) => {
                                            // Throttle every frame so the
                                            // daemon dies genuinely
                                            // mid-epoch, not post-run.
                                            return Ok(FaultyTransport::new(
                                                t,
                                                FaultPlan {
                                                    delay_every_sends: Some((
                                                        1,
                                                        Duration::from_millis(15),
                                                    )),
                                                    ..FaultPlan::default()
                                                },
                                            ));
                                        }
                                        Err(e) => {
                                            if std::time::Instant::now() >= deadline {
                                                return Err(e.into());
                                            }
                                            std::thread::sleep(Duration::from_millis(25));
                                        }
                                    }
                                }
                            },
                            id,
                            sm,
                            &config,
                            8,
                        )
                    })
                }
            })
        })
        .collect();

    // Both sessions mid-flight with a checkpoint on disk = past the
    // cadence step, with most of the schedule still untrained.
    let store = CheckpointStore::new(dir.clone());
    wait_until("both sessions to cut a checkpoint", || {
        store.path(with_ckpt).exists() && store.path(without_ckpt).exists()
    });
    assert!(
        server_a.resumed_sessions().is_empty(),
        "a JSONL ledger must be rejected, not resumed"
    );
    assert!(
        std::fs::read(ledger_of(with_ckpt))
            .expect("ledger on disk")
            .starts_with(b"CNNWAL02"),
        "the stale file must have been replaced by a binary ledger"
    );
    server_a.shutdown(); // in-flight sessions land Failed, ledgers kept

    // Model a lost/corrupt checkpoint for one session: its resume must
    // fall back to replaying the whole ledger from offset zero.
    std::fs::remove_file(store.path(without_ckpt)).expect("delete one checkpoint");

    let server_b = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        options,
    )
    .expect("server B binds");
    *addr.lock() = server_b.local_addr();

    let summaries: Vec<Result<SessionSummary, NetError>> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    for (i, summary) in summaries.into_iter().enumerate() {
        let summary = summary.expect("client completes across the daemon restart");
        assert_eq!(
            summary,
            expected[i / 2],
            "client {i} diverged from its golden run across the restart"
        );
    }

    // The restarted daemon reports how it brought each session back.
    let resumed = server_b.resumed_sessions();
    assert_eq!(resumed.len(), 2, "both sessions resumed: {resumed:?}");
    let of = |id: SessionId| {
        resumed
            .iter()
            .find(|r| r.session == id)
            .unwrap_or_else(|| panic!("{id} missing from resumed_sessions"))
            .clone()
    };
    assert!(
        of(with_ckpt).from_checkpoint,
        "the intact checkpoint must anchor the resume"
    );
    assert!(
        !of(without_ckpt).from_checkpoint,
        "the deleted checkpoint must force a full-ledger replay"
    );
    assert!(
        of(without_ckpt).replayed_events >= of(with_ckpt).replayed_events,
        "full replay covers at least the suffix the checkpoint skipped"
    );

    wait_until("both sessions to complete on the restarted daemon", || {
        server_b.finished_sessions().len() == 2
    });
    assert!(server_b
        .finished_sessions()
        .iter()
        .all(|(_, outcome)| *outcome == SessionOutcomeKind::Completed));
    // Completion reclaims the durable state: nothing left to resume.
    for id in [with_ckpt, without_ckpt] {
        assert!(
            !store.path(id).exists(),
            "{id} checkpoint must be reclaimed on completion"
        );
        assert!(
            !ledger_of(id).exists(),
            "{id} ledger must be reclaimed on completion"
        );
    }
    server_b.shutdown();
    authority.shutdown();
}

/// A member whose connection dies in the final stretch — even on the
/// summary frame itself — may only rejoin *after* the session
/// completed and left the live registry. The daemon answers from its
/// record of completed sessions: the rejoiner is served the
/// bit-identical summary, and a config mismatch under the spent id is
/// refused — never a phantom new session that would wait forever for
/// peers.
#[test]
fn rejoin_after_completion_is_served_the_recorded_summary() {
    let _watchdog = watchdog("rejoin_after_completion_is_served_the_recorded_summary");
    let data = clinic_dataset(12, 154);
    let config = resume_config(&data, 2, 1);
    let expected = golden(&config, &data);
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(LocalAuthority),
        ServerOptions::default(),
    )
    .expect("server binds");
    let session = SessionId(24);
    let shards = round_robin_shards(&data, 3, 2);
    let late_shard = shards[1].clone();

    let summaries = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let config = &config;
                let server = &server;
                s.spawn(move || {
                    run_client(dial(server), session, client_sm(config, i, shard), config)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Vec<_>>()
    });
    for summary in summaries {
        assert_eq!(summary.expect("member completes"), expected);
    }
    wait_until("the completion to be recorded", || {
        server.finished_sessions().len() == 1
    });

    // The late rejoiner: same id, same config, a fresh connection.
    let replay = run_client(
        dial(&server),
        session,
        client_sm(&config, 1, late_shard.clone()),
        &config,
    )
    .expect("a late rejoiner is served the recorded summary");
    assert_eq!(replay, expected);
    assert_eq!(
        server.live_sessions(),
        0,
        "a spent id must not found a phantom session"
    );

    // A different config under the spent id is a mismatch, not a
    // fresh session.
    let mut other = resume_config(&data, 2, 1);
    other.model_seed += 1;
    let err = run_client(
        dial(&server),
        session,
        client_sm(&other, 1, late_shard),
        &other,
    )
    .expect_err("a different config under a spent id must be refused");
    assert!(
        matches!(err, NetError::Rejected(ref why) if why.contains("different config")),
        "unexpected error: {err:?}"
    );
    assert_eq!(server.live_sessions(), 0);
    server.shutdown();
}

/// A failed session's id is spent too: a client rejoining it is told
/// the recorded verdict instead of founding a phantom replacement that
/// could never complete.
#[test]
fn rejoin_after_failure_is_rejected_with_the_verdict() {
    let _watchdog = watchdog("rejoin_after_failure_is_rejected_with_the_verdict");
    let data = clinic_dataset(12, 155);
    let mut config = resume_config(&data, 2, 1);
    config.policy = SessionPolicy::FailFast;
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(LocalAuthority),
        ServerOptions::default(),
    )
    .expect("server binds");
    let session = SessionId(25);
    let shards = round_robin_shards(&data, 3, 2);

    // A lone member that completes the handshake and then drops kills
    // a fail-fast session. (The kill lands after PublicParams crossed,
    // so the daemon has the connection registered and observes the
    // EOF.)
    run_client(
        FaultyTransport::new(
            dial(&server),
            FaultPlan {
                kill_after_recvs: Some(1),
                ..FaultPlan::default()
            },
        ),
        session,
        client_sm(&config, 0, shards[0].clone()),
        &config,
    )
    .expect_err("the killed connection cannot complete");
    wait_until("the failure to be recorded", || {
        !server.finished_sessions().is_empty()
    });

    let err = run_client(
        dial(&server),
        session,
        client_sm(&config, 0, shards[0].clone()),
        &config,
    )
    .expect_err("rejoining a failed session must be refused");
    assert!(
        matches!(err, NetError::Rejected(ref why) if why.contains("failed")),
        "unexpected error: {err:?}"
    );
    assert_eq!(server.live_sessions(), 0);
    server.shutdown();
}
