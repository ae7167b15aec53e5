//! Threshold-authority fault injection over the real daemons: training
//! and serving through a t-of-n share-holder fleet are bit-identical to
//! the single authority — including with `n − t` nodes killed mid-run —
//! losing the quorum fails closed with a typed error instead of a hang,
//! and a checkpoint cut under a single authority resumes under a 2-of-3
//! threshold service (DESIGN.md §17).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use cryptonn_core::{Client, Objective};
use cryptonn_data::clinic_dataset;
use cryptonn_fe::{febo, BasicOp, FeboKeyRequest, ShareSpec, ThresholdSetup};
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    connector_from_spec, run_client, run_client_resumable, run_inference_client,
    AuthorityConnector, AuthorityOptions, AuthorityServer, FaultPlan, FaultyTransport,
    FleetOptions, InferenceFleet, NetError, RemoteAuthority, ServerOptions, SessionOutcomeKind,
    SessionServer, TcpTransport, ThresholdAuthority, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    mlp_session_config, round_robin_shards, AuthoritySession, CheckpointStore, ClientId,
    ClientSession, FeboKeysRequest, FeipKeysRequest, KeyRequest, KeyResponse, MlpSpec,
    PublicParams, SessionConfig, SessionId, SessionPolicy, SessionSummary, TrainingSessionRunner,
};
use parking_lot::Mutex;
use rand::{rngs::StdRng, SeedableRng};

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

/// The uninterrupted single-authority reference run — the golden
/// oracle every threshold variant must match bit-for-bit.
fn golden(config: &SessionConfig, data: &cryptonn_data::Dataset) -> SessionSummary {
    TrainingSessionRunner::new(config.clone())
        .run_mlp(data)
        .expect("in-process golden run")
        .summary
}

type Shard = Vec<(Matrix<f64>, Matrix<f64>)>;

fn client_sm(config: &SessionConfig, i: usize, shard: Shard) -> ClientSession {
    ClientSession::new(
        ClientId(i as u32),
        config.client_seed_base + i as u64,
        Parallelism::Serial,
        shard,
    )
}

/// A last-resort liveness backstop: the quorum-loss scenarios this
/// suite pins must fail *closed*, so a wedge (combiner and daemon each
/// waiting on the other) becomes a fast named failure instead of an
/// infinite CI hang. Disarmed on drop — including a test's own panic.
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

fn tempdir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cryptonn-threshold-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    dir
}

/// Dials the daemon over TCP loopback.
fn dial(server: &SessionServer) -> TcpTransport {
    TcpTransport::connect(server.local_addr(), DEFAULT_MAX_FRAME).expect("loopback dial")
}

/// Starts `n` share-holder daemons of a t-of-n deployment and a
/// connector pointed at all of them.
fn share_fleet(n: u32, t: u32) -> (Vec<AuthorityServer>, ThresholdAuthority) {
    let setup = ThresholdSetup::new(n, t).expect("valid setup");
    let daemons: Vec<AuthorityServer> = (1..=n)
        .map(|i| {
            let spec = ShareSpec::new(setup, i).expect("index in range");
            AuthorityServer::start("127.0.0.1:0", AuthorityOptions::share_node(spec))
                .expect("share daemon binds")
        })
        .collect();
    let addrs = daemons.iter().map(|d| d.local_addr()).collect();
    (daemons, ThresholdAuthority::new(addrs, setup))
}

fn run_training(
    connector: ThresholdAuthority,
    session: SessionId,
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
) -> (Vec<Result<SessionSummary, NetError>>, SessionServer) {
    let server = SessionServer::start("127.0.0.1:0", Arc::new(connector), ServerOptions::default())
        .expect("server binds");
    let summaries = std::thread::scope(|s| {
        let handles: Vec<_> = round_robin_shards(data, 3, 2)
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
    (summaries, server)
}

/// One batched FEIP and one batched FEBO (all four ops) derivation
/// through `connector` — the raw traffic a training server generates.
fn derivation_sweep(
    connector: &dyn AuthorityConnector,
    session: SessionId,
    config: &SessionConfig,
    dim: usize,
) -> (PublicParams, Vec<KeyResponse>) {
    let (params, mut channel) = connector.connect(session, config).expect("authority link");
    let mut rng = StdRng::seed_from_u64(905);
    let ys = (0..4)
        .map(|k| (0..dim).map(|i| ((i + k) % 7) as i64 - 3).collect())
        .collect();
    let reqs = [BasicOp::Add, BasicOp::Sub, BasicOp::Mul, BasicOp::Div]
        .into_iter()
        .enumerate()
        .map(|(k, op)| FeboKeyRequest {
            cmt: *febo::encrypt(&params.febo_mpk, k as i64, &mut rng).commitment(),
            op,
            y: 1 + k as i64,
        })
        .collect();
    let responses = [
        KeyRequest::Feip(FeipKeysRequest { dim, ys }),
        KeyRequest::Febo(FeboKeysRequest { reqs }),
    ]
    .into_iter()
    .map(|req| channel.exchange(req).expect("derivation"))
    .collect();
    (params, responses)
}

/// Fault-free 2-of-3 training over real share daemons is bit-identical
/// to the in-process single-authority golden run — and so, below the
/// training loop, are the raw key responses: the same derivation sweep
/// answered by the share fleet and by a single authority daemon.
#[test]
fn threshold_training_is_bit_identical_to_golden() {
    let _watchdog = watchdog("threshold_training_is_bit_identical_to_golden");
    let data = clinic_dataset(24, 241);
    let config = resume_config(&data, 2, 2);
    let expected = golden(&config, &data);
    let (daemons, connector) = share_fleet(3, 2);
    let (summaries, server) = run_training(connector, SessionId(41), &config, &data);
    for summary in summaries {
        assert_eq!(summary.expect("threshold client completes"), expected);
    }
    wait_until("the session to finish", || {
        server.finished_sessions().len() == 1
    });
    assert_eq!(
        server.finished_sessions()[0],
        (SessionId(41), SessionOutcomeKind::Completed)
    );
    server.shutdown();

    let single = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("single authority binds");
    let fleet = ThresholdAuthority::new(
        daemons.iter().map(|d| d.local_addr()).collect(),
        ThresholdSetup::new(3, 2).expect("valid setup"),
    );
    let dim = data.feature_dim();
    assert_eq!(
        derivation_sweep(&fleet, SessionId(141), &config, dim),
        derivation_sweep(
            &RemoteAuthority::new(single.local_addr()),
            SessionId(141),
            &config,
            dim
        ),
        "threshold-derived keys must be bit-identical to the single authority's"
    );
    single.shutdown();
    for d in daemons {
        d.shutdown();
    }
}

/// The `n = t = 1` degenerate deployment — one share daemon behind the
/// threshold connector — is the single authority, bit for bit.
#[test]
fn single_node_threshold_degenerates_to_single_authority() {
    let _watchdog = watchdog("single_node_threshold_degenerates_to_single_authority");
    let data = clinic_dataset(12, 242);
    let config = resume_config(&data, 2, 1);
    let expected = golden(&config, &data);
    let (daemons, connector) = share_fleet(1, 1);
    let (summaries, server) = run_training(connector, SessionId(42), &config, &data);
    for summary in summaries {
        assert_eq!(summary.expect("degenerate client completes"), expected);
    }
    server.shutdown();
    for d in daemons {
        d.shutdown();
    }
}

/// Killing `n − t` share-holders mid-training: the combiner evicts the
/// dead node, recombines on the surviving quorum, and the final weights
/// are bit-identical to the fault-free golden run.
#[test]
fn killing_n_minus_t_nodes_mid_training_is_bit_identical() {
    let _watchdog = watchdog("killing_n_minus_t_nodes_mid_training_is_bit_identical");
    let data = clinic_dataset(24, 243);
    let config = resume_config(&data, 2, 2);
    let expected = golden(&config, &data);
    let (daemons, connector) = share_fleet(3, 2);
    // Node 0 dies after a few derivation frames — mid-training, after
    // key traffic has started flowing.
    let connector = connector.with_fault_plan(0, FaultPlan::kill_after_sends(3));
    let (summaries, server) = run_training(connector, SessionId(43), &config, &data);
    for summary in summaries {
        assert_eq!(
            summary.expect("client completes despite the dead node"),
            expected
        );
    }
    wait_until("the session to finish", || {
        server.finished_sessions().len() == 1
    });
    assert_eq!(
        server.finished_sessions()[0],
        (SessionId(43), SessionOutcomeKind::Completed)
    );
    server.shutdown();
    for d in daemons {
        d.shutdown();
    }
}

/// Killing `n − t + 1` share-holders loses the quorum: the session must
/// fail **closed** with the typed quorum error propagated to the
/// members — never a hang (the watchdog pins that) and never a silently
/// wrong key.
#[test]
fn losing_the_quorum_fails_closed_with_a_typed_error() {
    let _watchdog = watchdog("losing_the_quorum_fails_closed_with_a_typed_error");
    let data = clinic_dataset(24, 244);
    let mut config = resume_config(&data, 2, 2);
    config.policy = SessionPolicy::FailFast;
    let (daemons, connector) = share_fleet(3, 2);
    // Two of three nodes die at the same derivation frame: 1 < t live.
    let connector = connector
        .with_fault_plan(0, FaultPlan::kill_after_sends(2))
        .with_fault_plan(1, FaultPlan::kill_after_sends(2));
    let (summaries, server) = run_training(connector, SessionId(44), &config, &data);
    // Every member errors out — no member hangs and none completes. The
    // teardown `Reject` can race a member's in-flight send (that member
    // sees the disconnect), so the typed reason is pinned below via the
    // recorded verdict and the rejoin refusal, which carry it
    // deterministically.
    for summary in summaries {
        summary.expect_err("a below-quorum session cannot complete");
    }
    wait_until("the failure to be recorded", || {
        !server.finished_sessions().is_empty()
    });
    let (failed_id, outcome) = server.finished_sessions()[0].clone();
    assert_eq!(failed_id, SessionId(44));
    assert!(
        matches!(outcome, SessionOutcomeKind::Failed(ref why) if why.to_lowercase().contains("quorum")),
        "expected a quorum-failure verdict, got {outcome:?}"
    );
    // A member coming back for the verdict is refused with the typed
    // quorum reason — the failure is explained, not just observed.
    let err = run_client(
        dial(&server),
        SessionId(44),
        client_sm(&config, 0, round_robin_shards(&data, 3, 2)[0].clone()),
        &config,
    )
    .expect_err("rejoining the failed session must be refused");
    assert!(
        matches!(err, NetError::Rejected(ref why) if why.to_lowercase().contains("quorum")),
        "expected the quorum verdict to reach the member, got: {err:?}"
    );
    server.shutdown();
    for d in daemons {
        d.shutdown();
    }
}

/// Killing `n − t` share-holders mid-*serving*: predictions out of the
/// inference fleet stay bit-identical to the in-process reference —
/// the functional keys the surviving quorum recombines are the exact
/// keys the single authority would have derived.
#[test]
fn killing_a_node_mid_serving_keeps_predictions_bit_identical() {
    let _watchdog = watchdog("killing_a_node_mid_serving_keeps_predictions_bit_identical");
    let data = clinic_dataset(16, 245);
    let config = resume_config(&data, 1, 1);
    let train = |cfg: &SessionConfig| {
        TrainingSessionRunner::new(cfg.clone())
            .run_mlp(&data)
            .expect("training completes")
            .server
            .into_mlp()
            .expect("MLP session")
    };
    let model = train(&config);
    let mut reference = train(&config);

    let (daemons, connector) = share_fleet(3, 2);
    let connector = connector.with_fault_plan(1, FaultPlan::kill_after_sends(4));
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        SessionId(940),
        &config,
        model,
        Arc::new(connector),
        FleetOptions::default(),
    )
    .expect("inference fleet over the threshold share-holders");
    let addr = fleet.local_addr();

    let inputs: Vec<Matrix<f64>> = (0..5)
        .map(|i| {
            Matrix::from_fn(1, data.feature_dim(), |_, c| {
                ((i * 7 + c) % 11) as f64 / 11.0
            })
        })
        .collect();
    let served = run_inference_client(addr, SessionId(940), ClientId(0), &config, 7100, &inputs, 2)
        .expect("serving completes despite the dead node");
    fleet.shutdown();
    for d in daemons {
        d.shutdown();
    }

    let ref_authority = AuthoritySession::new(&config);
    let params = ref_authority.public_params_for(&config);
    let mut encryptor = Client::from_keys(
        params.x_mpk.clone(),
        params.y_mpk.clone(),
        params.febo_mpk.clone(),
        params.fp,
        7100,
    );
    for (input, served_out) in inputs.iter().zip(&served) {
        let batch = encryptor.encrypt_features(input).expect("encrypt");
        let direct = reference
            .predict_encrypted(ref_authority.authority(), &batch)
            .expect("in-process predict");
        assert_eq!(
            served_out, &direct,
            "served prediction diverged from in-process"
        );
    }
}

/// A checkpoint cut under a *single* authority daemon resumes under a
/// 2-of-3 threshold service: the share replicas replay the dealer from
/// the session's authority seed, the ledger replay re-requests keys in
/// the original order, and the resumed session completes bit-identical
/// to its golden run.
#[test]
fn single_authority_checkpoint_resumes_under_threshold_service() {
    let _watchdog = watchdog("single_authority_checkpoint_resumes_under_threshold_service");
    let dir = tempdir("ckpt-resume");
    let data = clinic_dataset(24, 246);
    let config = resume_config(&data, 2, 2);
    let expected = golden(&config, &data);
    let session = SessionId(45);

    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("single authority binds");
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
    let addr = Arc::new(Mutex::new(server_a.local_addr()));

    let clients: Vec<_> = round_robin_shards(&data, 3, 2)
        .into_iter()
        .enumerate()
        .map(|(i, shard)| {
            let sm = client_sm(&config, i, shard);
            let config = config.clone();
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                run_client_resumable(
                    |_attempt| {
                        let deadline = std::time::Instant::now() + Duration::from_secs(30);
                        loop {
                            let target = *addr.lock();
                            match TcpTransport::connect(target, DEFAULT_MAX_FRAME) {
                                Ok(t) => {
                                    // Throttle every frame so the daemon
                                    // handoff lands mid-epoch.
                                    return Ok(FaultyTransport::new(
                                        t,
                                        FaultPlan {
                                            delay_every_sends: Some((1, Duration::from_millis(15))),
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
                    session,
                    sm,
                    &config,
                    8,
                )
            })
        })
        .collect();

    let store = CheckpointStore::new(dir.clone());
    wait_until("the session to cut a checkpoint under server A", || {
        store.path(session).exists()
    });
    server_a.shutdown();
    authority.shutdown();

    // Server B resumes the same durable state — but its authority is
    // now a 2-of-3 share-holder fleet instead of the single daemon.
    let (daemons, connector) = share_fleet(3, 2);
    let server_b =
        SessionServer::start("127.0.0.1:0", Arc::new(connector), options).expect("server B binds");
    *addr.lock() = server_b.local_addr();

    for client in clients {
        let summary = client
            .join()
            .expect("client thread")
            .expect("client completes across the authority handoff");
        assert_eq!(
            summary, expected,
            "resume under the threshold service diverged from golden"
        );
    }
    let resumed = server_b.resumed_sessions();
    assert_eq!(resumed.len(), 1, "the session resumed on B: {resumed:?}");
    assert!(
        resumed[0].from_checkpoint,
        "the single-authority checkpoint must anchor the threshold resume"
    );
    wait_until("the session to complete on server B", || {
        server_b.finished_sessions().len() == 1
    });
    assert_eq!(
        server_b.finished_sessions()[0],
        (session, SessionOutcomeKind::Completed)
    );
    server_b.shutdown();
    for d in daemons {
        d.shutdown();
    }
}

/// The authority deployment-spec parser: quorum and node
/// addresses round-trip, malformed specs are typed errors.
#[test]
fn threshold_spec_parses_and_rejects_garbage() {
    let connector =
        ThresholdAuthority::from_spec("t=2@127.0.0.1:4001,127.0.0.1:4002,127.0.0.1:4003")
            .expect("a well-formed spec parses");
    assert_eq!(connector.setup().n(), 3);
    assert_eq!(connector.setup().t(), 2);
    for bad in [
        "127.0.0.1:4001",
        "t=two@127.0.0.1:4001",
        "t=2@127.0.0.1:4001",
        "t=0@127.0.0.1:4001,127.0.0.1:4002",
        "t=2@not-an-addr,127.0.0.1:4002",
    ] {
        assert!(
            matches!(
                ThresholdAuthority::from_spec(bad),
                Err(NetError::Malformed(_))
            ),
            "spec `{bad}` must be rejected"
        );
    }

    // The generic form accepts both deployments: a bare address means a
    // single remote authority, a `t=…@…` spec the threshold fleet.
    connector_from_spec("127.0.0.1:4001").expect("a bare address selects the single authority");
    connector_from_spec("t=1@127.0.0.1:4001").expect("a 1-of-1 spec selects the threshold fleet");
    assert!(matches!(
        connector_from_spec("not a spec"),
        Err(NetError::Malformed(_))
    ));
}
