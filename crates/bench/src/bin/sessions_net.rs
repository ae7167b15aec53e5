//! Networked session-layer telemetry — throughput of the concurrent
//! multi-session server over TCP loopback.
//!
//! Spins up the real daemons (the networked key authority and the
//! multi-session training server), then sweeps a grid of
//! `S sessions × K clients`: each grid point runs `S` full federated
//! MLP training sessions concurrently, every client on its own thread
//! over its own loopback socket. Reported per point:
//!
//! - **sessions/sec** — completed training sessions per wall-clock
//!   second;
//! - **steps/sec** — training steps (encrypted batches consumed)
//!   per second across all sessions;
//! - **msgs/sec** — session-protocol wire messages (handshakes,
//!   registrations, parameter/start broadcasts, batches, per-step
//!   deltas, epoch barriers, summaries, and the server↔authority key
//!   traffic) per second.
//!
//! Emits `BENCH_sessions_net.json` (schema
//! `cryptonn.bench.sessions_net/v3`, host provenance included) so CI
//! can archive the trajectory. v3 adds a **recovery** block: a recorded
//! run is re-executed twice — once from step 0 (`full_replay_ms`) and
//! once from its last durable checkpoint plus the transcript suffix
//! (`resume_ms`, `steps_replayed_on_resume`) — quantifying what a
//! crash-resume saves over a from-scratch replay. With `--check-resume`
//! the process exits non-zero unless the resume is strictly cheaper in
//! both time and replayed steps (the CI gate).
//!
//! v4 adds the **wire arm** (DESIGN.md §16): the step-dominant
//! encrypted-batch frame is encoded and decoded under both wire
//! formats (bytes/msg, encode/decode µs), and one full two-client
//! training session is replayed over TCP with the clients speaking
//! json, binary, and a mixed pair on one daemon — all three must
//! produce bit-identical summaries. `--check-wire` gates on the binary
//! frame being smaller than the JSON one at the bench level.
//!
//! v5 adds the **threshold arm** (DESIGN.md §17): the same
//! key-derivation sweep is run against a single authority daemon and
//! against a 2-of-3 share-holder fleet behind the threshold connector —
//! every response must be bit-identical between the two deployments —
//! and the wall-clock overhead of partial derivation, DLEQ validation,
//! and Lagrange recombination is recorded.
//!
//! ```text
//! cargo run --release -p cryptonn-bench --bin sessions_net -- \
//!     [--out BENCH_sessions_net.json] [--check-resume] [--check-wire]
//! ```

use std::sync::Arc;
use std::time::Instant;

use cryptonn_core::Objective;
use cryptonn_data::clinic_dataset;
use cryptonn_fe::{
    febo, BasicOp, FeboKeyRequest, KeyAuthority, PermittedFunctions, ShareSpec, ThresholdSetup,
};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    encode_frame_fmt, read_frame_sniff, run_client, AuthorityConnector, AuthorityOptions,
    AuthorityServer, NetMsg, RemoteAuthority, ServerOptions, SessionServer, TcpTransport,
    ThresholdAuthority, WireFormat, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    replay_server, resume_from_checkpoint, round_robin_shards, CheckpointStore, ClientId,
    ClientSession, EncryptedBatchMsg, FeboKeysRequest, FeipKeysRequest, KeyRequest, MlpSpec,
    ModelSpec, ReplayResolution, SessionConfig, SessionId, TrainingSessionRunner, WireMessage,
};
use cryptonn_smc::FixedPoint;
use serde::Serialize;

fn session_config(clients: u32, feature_dim: usize, classes: usize) -> SessionConfig {
    SessionConfig {
        level: cryptonn_bench::bench_level(),
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(MlpSpec {
            feature_dim,
            hidden: vec![6],
            classes,
            objective: Objective::SoftmaxCrossEntropy,
        }),
        lr: 1.0,
        epochs: 1,
        batch_size: 8,
        clients,
        authority_seed: 901,
        model_seed: 902,
        client_seed_base: 903,
        policy: cryptonn_protocol::SessionPolicy::FailFast,
    }
}

#[derive(Debug, Clone, Serialize)]
struct Measurement {
    sessions: usize,
    clients_per_session: u32,
    steps_per_session: u64,
    wall_ms: f64,
    sessions_per_sec: f64,
    steps_per_sec: f64,
    msgs_per_sec: f64,
    /// Total session-protocol messages exchanged, all transports.
    messages: u64,
}

/// Time-to-recover telemetry: replaying a recorded run from scratch vs
/// resuming it from its last durable checkpoint plus the transcript
/// suffix.
#[derive(Debug, Clone, Serialize)]
struct Recovery {
    clients: u32,
    steps_total: u64,
    checkpoint_step: u64,
    steps_replayed_on_resume: u64,
    full_replay_ms: f64,
    resume_ms: f64,
    speedup: f64,
}

/// One format's codec microbench over the step-dominant training frame
/// — a full `EncryptedBatchMsg` at the bench security level, pushed
/// through the real frame path.
#[derive(Debug, Clone, Serialize)]
struct WireCodecArm {
    format: String,
    /// Encoded frame payload size (the 4-byte length header excluded).
    payload_bytes: u64,
    encode_us: f64,
    decode_us: f64,
}

/// One client-dialect replay of the same two-client training session
/// over TCP loopback.
#[derive(Debug, Clone, Serialize)]
struct WireTrainingArm {
    /// `"json"`, `"binary"`, or `"mixed"` (one client each).
    dialect: String,
    wall_ms: f64,
    steps_per_sec: f64,
}

/// The wire-format comparison (schema v4, DESIGN.md §16).
#[derive(Debug, Serialize)]
struct WireBench {
    codec: Vec<WireCodecArm>,
    /// json over binary payload bytes on the encrypted-batch frame —
    /// the `--check-wire` gate.
    byte_reduction: f64,
    training: Vec<WireTrainingArm>,
    /// Binary over json training steps/s.
    binary_over_json: f64,
}

/// One authority deployment's key-derivation sweep over TCP loopback.
#[derive(Debug, Clone, Serialize)]
struct ThresholdArm {
    /// `"single"` or `"threshold-2of3"`.
    deployment: String,
    /// FEIP + FEBO keys derived over the sweep.
    keys: u64,
    wall_ms: f64,
    keys_per_sec: f64,
}

/// Single authority vs 2-of-3 threshold key derivation (schema v5,
/// DESIGN.md §17).
#[derive(Debug, Serialize)]
struct ThresholdBench {
    arms: Vec<ThresholdArm>,
    /// Threshold-over-single wall-time ratio — the price of partial
    /// derivation, DLEQ validation, and Lagrange recombination.
    overhead: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    generated_by: String,
    host: cryptonn_bench::HostInfo,
    level: String,
    samples_per_session: usize,
    batch_size: u32,
    measurements: Vec<Measurement>,
    recovery: Recovery,
    /// json vs binary wire codec on the training path (schema v4).
    wire: WireBench,
    /// single vs threshold authority key derivation (schema v5).
    threshold: ThresholdBench,
}

/// The middle element of `xs`, destructively.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Counts the wire messages one grid point exchanges. Derived from the
/// protocol, not sniffed: per session of K clients and B batches —
/// K hellos + K configs (driver-side) are excluded as transport
/// framing; counted are K registrations, K public-params deliveries,
/// 1 start, B batches, B deltas broadcast to K clients, E epoch
/// barriers × K, 1 summary × K, plus the authority leg: 1 hello,
/// 1 params, and 2 frames per key exchange.
fn messages_per_session(k: u64, batches: u64, epochs: u64, key_exchanges: u64) -> u64 {
    let b = batches * epochs;
    k          // Register
        + k    // PublicParams per member
        + k    // Start per member
        + b    // Batch
        + b * k // Delta broadcasts
        + epochs * k // Epoch barriers
        + k    // Summary per member
        + 2    // authority hello + params
        + 2 * key_exchanges
}

/// Records one session with periodic checkpoints, then times a full
/// replay against a checkpoint resume of the same transcript, asserting
/// both reproduce the recorded summary bit-for-bit.
fn measure_recovery(config: &SessionConfig, data: &cryptonn_data::Dataset) -> Recovery {
    let dir = std::env::temp_dir().join(format!("cryptonn-bench-ckpt-{}", std::process::id()));
    let store = CheckpointStore::new(&dir);
    let session = SessionId(0);
    let batches = (data.len() as u64).div_ceil(u64::from(config.batch_size));
    let steps_total = batches * u64::from(config.epochs);
    // Checkpoint cadence ≈ every quarter of the run: the last clean cut
    // before the summary is what the resume starts from.
    let every = (steps_total / 4).max(1);
    let outcome = TrainingSessionRunner::new(config.clone())
        .with_checkpoints(store.clone(), session, every)
        .run_mlp(data)
        .expect("recorded run");
    let ckpt = store.load(session, config).expect("checkpoint on disk");

    let start = Instant::now();
    let full = replay_server(&outcome.transcript).expect("full replay");
    let full_replay_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(full.matches_recording(), "full replay diverged");

    let start = Instant::now();
    let resumed = resume_from_checkpoint(&outcome.transcript, &ckpt).expect("resume replay");
    let resume_ms = start.elapsed().as_secs_f64() * 1e3;
    match resumed {
        ReplayResolution::Completed(outcome) => {
            assert!(outcome.matches_recording(), "resume replay diverged")
        }
        ReplayResolution::Resume(_) => panic!("resume replay did not reach the summary"),
    }

    let _ = std::fs::remove_dir_all(&dir);
    Recovery {
        clients: config.clients,
        steps_total,
        checkpoint_step: ckpt.next_step,
        steps_replayed_on_resume: steps_total - ckpt.next_step,
        full_replay_ms,
        resume_ms,
        speedup: full_replay_ms / resume_ms.max(1e-9),
    }
}

/// Encodes and decodes the frame that dominates a training session's
/// traffic — one `EncryptedBatchMsg` carrying a full batch of
/// ciphertext features and labels at the bench level — under both wire
/// formats. Returns the per-arm stats and the json-over-binary payload
/// byte ratio.
fn measure_wire_codec(
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
) -> (Vec<WireCodecArm>, f64) {
    let group = SchnorrGroup::precomputed(config.level);
    let authority = KeyAuthority::with_seed(group, config.permitted, config.authority_seed);
    let mut encryptor = cryptonn_core::Client::for_mlp(
        &authority,
        data.feature_dim(),
        data.classes(),
        config.fp,
        config.client_seed_base,
    );
    let rows = config.batch_size as usize;
    let x = Matrix::from_fn(rows, data.feature_dim(), |r, c| {
        ((r * 31 + c * 7) % 97) as f64 / 97.0
    });
    let y = Matrix::from_fn(rows, data.classes(), |r, c| {
        if r % data.classes() == c {
            1.0
        } else {
            0.0
        }
    });
    let msg = NetMsg::Msg(WireMessage::Batch(EncryptedBatchMsg {
        client: ClientId(0),
        step: 0,
        gen: 0,
        batch: encryptor
            .encrypt_batch(&x, &y)
            .expect("encrypt the codec probe"),
    }));

    let reps = 32;
    let mut arms = Vec::new();
    for format in [WireFormat::Json, WireFormat::Binary] {
        let frame = encode_frame_fmt(&msg, DEFAULT_MAX_FRAME, format).expect("encode probe");
        let payload_bytes = (frame.len() - 4) as u64;
        let mut encode_us = Vec::with_capacity(reps);
        let mut decode_us = Vec::with_capacity(reps);
        // One untimed round warms the allocator and the code paths.
        for timed in [false, true] {
            for _ in 0..reps {
                let t0 = Instant::now();
                let encoded =
                    encode_frame_fmt(&msg, DEFAULT_MAX_FRAME, format).expect("encode probe");
                let e = t0.elapsed().as_secs_f64() * 1e6;
                assert_eq!(encoded.len(), frame.len());
                let t1 = Instant::now();
                let decoded = read_frame_sniff::<_, NetMsg>(&mut &encoded[..], DEFAULT_MAX_FRAME)
                    .expect("decode probe")
                    .expect("one whole frame");
                let d = t1.elapsed().as_secs_f64() * 1e6;
                assert_eq!(decoded.1, format);
                assert_eq!(decoded.0, msg);
                if timed {
                    encode_us.push(e);
                    decode_us.push(d);
                }
            }
        }
        let arm = WireCodecArm {
            format: format.name().into(),
            payload_bytes,
            encode_us: median(&mut encode_us),
            decode_us: median(&mut decode_us),
        };
        println!(
            "wire codec {:6}: {:6} bytes/msg  encode {:7.2} us  decode {:7.2} us",
            arm.format, arm.payload_bytes, arm.encode_us, arm.decode_us
        );
        arms.push(arm);
    }
    let reduction = arms[0].payload_bytes as f64 / arms[1].payload_bytes as f64;
    println!("wire codec: binary is {reduction:.2}x smaller on the encrypted-batch frame");
    (arms, reduction)
}

/// Runs one full two-client training session over TCP with each
/// client's wire format chosen by `wire_of`, returning the arm stats
/// and the (identical) member summary.
fn run_wire_training_arm(
    dialect: &str,
    authority_addr: std::net::SocketAddr,
    session: SessionId,
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
    wire_of: fn(usize) -> WireFormat,
) -> (WireTrainingArm, cryptonn_protocol::SessionSummary) {
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority_addr)),
        ServerOptions::default(),
    )
    .expect("session server binds");
    let addr = server.local_addr();
    let shards = round_robin_shards(data, config.batch_size as usize, config.clients as usize);
    let batches = (data.len() as u64).div_ceil(u64::from(config.batch_size));
    let steps = batches * u64::from(config.epochs);

    let start = Instant::now();
    let clients: Vec<_> = shards
        .into_iter()
        .enumerate()
        .map(|(c, shard)| {
            let config = config.clone();
            std::thread::spawn(move || {
                let sm = ClientSession::new(
                    ClientId(c as u32),
                    config.client_seed_base + c as u64,
                    Parallelism::Serial,
                    shard,
                );
                let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME).expect("connect");
                transport.set_wire_format(wire_of(c));
                run_client(transport, session, sm, &config).expect("session completes")
            })
        })
        .collect();
    let mut summaries: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();
    let wall = start.elapsed().as_secs_f64();
    server.shutdown();

    let summary = summaries.pop().expect("at least one member");
    for other in &summaries {
        assert_eq!(other, &summary, "members disagree within the {dialect} arm");
    }
    let arm = WireTrainingArm {
        dialect: dialect.into(),
        wall_ms: wall * 1e3,
        steps_per_sec: steps as f64 / wall,
    };
    println!(
        "wire training {dialect:6}: {:8.1} ms wall, {:6.1} steps/s",
        arm.wall_ms, arm.steps_per_sec
    );
    (arm, summary)
}

/// The wire arm: codec microbench plus the same training session
/// replayed under the json, binary, and mixed client dialects — every
/// replay must produce bit-identical summaries.
fn measure_wire(config: &SessionConfig, data: &cryptonn_data::Dataset) -> WireBench {
    let (codec, byte_reduction) = measure_wire_codec(config, data);

    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds for the wire arm");
    let (json_arm, json_summary) = run_wire_training_arm(
        "json",
        authority.local_addr(),
        SessionId(900_000),
        config,
        data,
        |_| WireFormat::Json,
    );
    let (binary_arm, binary_summary) = run_wire_training_arm(
        "binary",
        authority.local_addr(),
        SessionId(900_001),
        config,
        data,
        |_| WireFormat::Binary,
    );
    let (mixed_arm, mixed_summary) = run_wire_training_arm(
        "mixed",
        authority.local_addr(),
        SessionId(900_002),
        config,
        data,
        |c| {
            if c % 2 == 0 {
                WireFormat::Binary
            } else {
                WireFormat::Json
            }
        },
    );
    authority.shutdown();
    assert_eq!(
        binary_summary, json_summary,
        "binary-dialect training must be bit-identical to json"
    );
    assert_eq!(
        mixed_summary, json_summary,
        "mixed-dialect training must be bit-identical to json"
    );

    let binary_over_json = binary_arm.steps_per_sec / json_arm.steps_per_sec;
    println!("wire training: binary dialect at {binary_over_json:.2}x the json arm");
    WireBench {
        codec,
        byte_reduction,
        training: vec![json_arm, binary_arm, mixed_arm],
        binary_over_json,
    }
}

/// One deployment's key-derivation sweep: alternating batched FEIP and
/// FEBO requests through the connector's authority channel, exactly
/// the traffic a training server generates. Returns the timing arm and
/// the raw responses so the caller can assert deployment bit-identity.
fn run_threshold_arm(
    deployment: &str,
    connector: &dyn AuthorityConnector,
    session: SessionId,
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
) -> (ThresholdArm, Vec<cryptonn_protocol::KeyResponse>) {
    let (params, mut channel) = connector
        .connect(session, config)
        .expect("authority connect for the threshold arm");
    let dim = data.feature_dim();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(905);
    let reps = 12usize;
    let sweeps: Vec<(KeyRequest, KeyRequest)> = (0..reps)
        .map(|r| {
            let ys: Vec<Vec<i64>> = (0..4)
                .map(|k| (0..dim).map(|i| ((i + k + r) % 7) as i64 - 3).collect())
                .collect();
            let reqs: Vec<FeboKeyRequest> =
                [BasicOp::Add, BasicOp::Sub, BasicOp::Mul, BasicOp::Div]
                    .into_iter()
                    .enumerate()
                    .map(|(k, op)| FeboKeyRequest {
                        cmt: *febo::encrypt(&params.febo_mpk, (r * 4 + k) as i64, &mut rng)
                            .commitment(),
                        op,
                        y: 1 + (r + k) as i64,
                    })
                    .collect();
            (
                KeyRequest::Feip(FeipKeysRequest { dim, ys }),
                KeyRequest::Febo(FeboKeysRequest { reqs }),
            )
        })
        .collect();

    let keys = (reps * 8) as u64;
    let start = Instant::now();
    let mut responses = Vec::with_capacity(reps * 2);
    for (feip, febo) in sweeps {
        responses.push(channel.exchange(feip).expect("FEIP derivation"));
        responses.push(channel.exchange(febo).expect("FEBO derivation"));
    }
    let wall = start.elapsed().as_secs_f64();
    let arm = ThresholdArm {
        deployment: deployment.into(),
        keys,
        wall_ms: wall * 1e3,
        keys_per_sec: keys as f64 / wall,
    };
    println!(
        "threshold {:15}: {:8.1} ms wall, {:7.1} keys/s",
        arm.deployment, arm.wall_ms, arm.keys_per_sec
    );
    (arm, responses)
}

/// The threshold arm: the same derivation sweep against a single
/// authority daemon and against a 2-of-3 share-holder fleet — every
/// response bit-identical, the overhead recorded.
fn measure_threshold(config: &SessionConfig, data: &cryptonn_data::Dataset) -> ThresholdBench {
    let single_daemon = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("single authority binds");
    let single = RemoteAuthority::new(single_daemon.local_addr());
    let (single_arm, single_responses) =
        run_threshold_arm("single", &single, SessionId(910_000), config, data);
    single_daemon.shutdown();

    let setup = ThresholdSetup::new(3, 2).expect("2-of-3");
    let share_daemons: Vec<AuthorityServer> = (1..=3)
        .map(|i| {
            let spec = ShareSpec::new(setup, i).expect("index in range");
            AuthorityServer::start("127.0.0.1:0", AuthorityOptions::share_node(spec))
                .expect("share daemon binds")
        })
        .collect();
    let fleet = ThresholdAuthority::new(
        share_daemons.iter().map(|d| d.local_addr()).collect(),
        setup,
    );
    let (threshold_arm, threshold_responses) =
        run_threshold_arm("threshold-2of3", &fleet, SessionId(910_001), config, data);
    for d in share_daemons {
        d.shutdown();
    }

    assert_eq!(
        threshold_responses, single_responses,
        "threshold-derived keys must be bit-identical to the single authority's"
    );
    let overhead = threshold_arm.wall_ms / single_arm.wall_ms.max(1e-9);
    println!("threshold: 2-of-3 derivation at {overhead:.2}x the single authority");
    ThresholdBench {
        arms: vec![single_arm, threshold_arm],
        overhead,
    }
}

fn main() {
    let mut out_path = "BENCH_sessions_net.json".to_string();
    let mut check_resume = false;
    let mut check_wire = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--check-resume" => check_resume = true,
            "--check-wire" => check_wire = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let samples = if cryptonn_bench::full_scale() { 64 } else { 32 };
    let data = clinic_dataset(samples, 301);
    let grid: &[(usize, u32)] = if cryptonn_bench::full_scale() {
        &[(1, 1), (1, 2), (2, 2), (4, 2), (4, 4), (8, 2)]
    } else {
        &[(1, 1), (2, 2), (4, 2)]
    };

    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");
    let mut measurements = Vec::new();

    for (point, &(s, k)) in grid.iter().enumerate() {
        // The authority daemon outlives every grid point and keys its
        // per-session state by id: ids must be globally unique.
        let session_base = (point as u64) * 1_000;
        let server = SessionServer::start(
            "127.0.0.1:0",
            Arc::new(RemoteAuthority::new(authority.local_addr())),
            ServerOptions {
                max_sessions: s.max(8),
                ..ServerOptions::default()
            },
        )
        .expect("session server binds");
        let addr = server.local_addr();
        let config = session_config(k, data.feature_dim(), data.classes());
        let batches = (samples as u64).div_ceil(u64::from(config.batch_size));
        let steps_per_session = batches * u64::from(config.epochs);

        let start = Instant::now();
        let sessions: Vec<_> = (0..s)
            .map(|i| {
                let config = config.clone();
                let data = data.clone();
                std::thread::spawn(move || {
                    let shards = round_robin_shards(
                        &data,
                        config.batch_size as usize,
                        config.clients as usize,
                    );
                    let clients: Vec<_> = shards
                        .into_iter()
                        .enumerate()
                        .map(|(c, shard)| {
                            let config = config.clone();
                            std::thread::spawn(move || {
                                let sm = ClientSession::new(
                                    ClientId(c as u32),
                                    config.client_seed_base + c as u64,
                                    Parallelism::Serial,
                                    shard,
                                );
                                let transport = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)
                                    .expect("connect");
                                run_client(
                                    transport,
                                    SessionId(session_base + i as u64),
                                    sm,
                                    &config,
                                )
                                .expect("session completes")
                            })
                        })
                        .collect();
                    for c in clients {
                        let summary = c.join().expect("client thread");
                        assert_eq!(summary.steps, steps_per_session, "wrong step count");
                    }
                })
            })
            .collect();
        for session in sessions {
            session.join().expect("session thread");
        }
        let wall = start.elapsed();
        server.shutdown();

        // Key exchanges per MLP step: one FEIP batch (layer-1 keys +
        // unit keys are batched) and one FEBO batch per step is the
        // dominant pattern; measure instead of guessing by running the
        // in-process runner and counting its recorded key requests.
        let key_exchanges = {
            let outcome = cryptonn_protocol::TrainingSessionRunner::new(config.clone())
                .run_mlp(&data)
                .expect("baseline run");
            outcome.transcript.of_kind("key-request").count() as u64
        };
        let msgs = (s as u64)
            * messages_per_session(
                u64::from(k),
                batches,
                u64::from(config.epochs),
                key_exchanges,
            );
        let secs = wall.as_secs_f64();
        measurements.push(Measurement {
            sessions: s,
            clients_per_session: k,
            steps_per_session,
            wall_ms: secs * 1e3,
            sessions_per_sec: s as f64 / secs,
            steps_per_sec: (s as f64) * (steps_per_session as f64) / secs,
            msgs_per_sec: msgs as f64 / secs,
            messages: msgs,
        });
        let m = measurements.last().expect("just pushed");
        println!(
            "S={s} K={k}: {:.1} ms wall, {:.2} sessions/s, {:.1} steps/s, {:.0} msgs/s",
            m.wall_ms, m.sessions_per_sec, m.steps_per_sec, m.msgs_per_sec
        );
    }
    authority.shutdown();

    let recovery = measure_recovery(
        &session_config(2, data.feature_dim(), data.classes()),
        &data,
    );
    println!(
        "recovery: {} steps total, checkpoint at {}, replay {:.1} ms full vs {:.1} ms resumed \
         ({:.1}x)",
        recovery.steps_total,
        recovery.checkpoint_step,
        recovery.full_replay_ms,
        recovery.resume_ms,
        recovery.speedup
    );
    if check_resume {
        assert!(
            recovery.steps_replayed_on_resume < recovery.steps_total,
            "resume replayed the whole run: {} of {} steps",
            recovery.steps_replayed_on_resume,
            recovery.steps_total
        );
        assert!(
            recovery.resume_ms < recovery.full_replay_ms,
            "resume ({:.1} ms) was no faster than a full replay ({:.1} ms)",
            recovery.resume_ms,
            recovery.full_replay_ms
        );
    }

    let wire = measure_wire(
        &session_config(2, data.feature_dim(), data.classes()),
        &data,
    );

    let threshold = measure_threshold(
        &session_config(2, data.feature_dim(), data.classes()),
        &data,
    );

    let report = Report {
        schema: "cryptonn.bench.sessions_net/v5".into(),
        generated_by: "cargo run --release -p cryptonn-bench --bin sessions_net".into(),
        host: cryptonn_bench::host_info(),
        level: format!("{:?}", cryptonn_bench::bench_level()),
        samples_per_session: samples,
        batch_size: 8,
        measurements,
        recovery,
        wire,
        threshold,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write telemetry JSON");
    println!("wrote {out_path}");

    if check_wire {
        assert!(
            report.wire.byte_reduction > 1.0,
            "wire gate: the binary encrypted-batch frame ({:.2}x reduction) must be smaller \
             than the JSON one",
            report.wire.byte_reduction
        );
    }
}
