//! `serve_closed` and `serve_open`: encrypted prediction against a
//! frozen model behind an [`InferenceFleet`] on loopback, binary wire.
//!
//! The load generator speaks raw sockets: requests are encrypted and
//! framed before the clock starts, replies are reassembled with
//! [`FrameDecoder`]. Every reply is compared, bit for bit, with
//! `CryptoMlp::predict_encrypted` on the same ciphertext in-process.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cryptonn_core::{CryptoMlp, CryptoNnConfig, EncryptedBatch, Objective};
use cryptonn_fe::{CachingKeyService, KeyAuthority, PermittedFunctions};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    encode_frame_fmt, AuthorityConnector, AuthorityOptions, AuthorityServer, FleetOptions,
    FrameDecoder, Hello, InferenceFleet, LocalAuthority, NetMsg, Peer, RemoteAuthority, WireFormat,
    DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    AuthoritySession, ClientId, InferenceOptions, InferenceSession, MlpSpec, ModelSpec,
    PredictRequest, Prediction, PublicParams, SessionConfig, SessionId, SessionPolicy, WireMessage,
};
use cryptonn_smc::FixedPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

use crate::config::*;
use crate::gen::{self, Stream};
use crate::host::{self, FreshDir};
use crate::levels::DotOperands;
use crate::report::{end_to_end, metric, Args, Metric, Outcome};
use crate::stats::{floats, median, obj, Summary, Windowed};
use crate::trace::Tracer;

pub fn session_config(shape: MlpShape, seed: u64, clients: u32) -> SessionConfig {
    SessionConfig {
        level: shape.level,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(MlpSpec {
            feature_dim: shape.feature_dim,
            hidden: vec![shape.hidden],
            classes: shape.classes,
            objective: Objective::SoftmaxCrossEntropy,
        }),
        lr: TRAIN_NET_LR,
        epochs: 1,
        batch_size: TRAIN_BATCH as u32,
        clients,
        authority_seed: AUTHORITY_SEED,
        model_seed: MODEL_SEED,
        client_seed_base: gen::sub_seed(seed, Stream::Clients),
        policy: SessionPolicy::FailFast,
    }
}

/// The model a daemon would build from `config`: same seed, same weights.
pub fn new_model(config: &SessionConfig, shape: MlpShape, parallelism: Parallelism) -> CryptoMlp {
    let cc = CryptoNnConfig {
        level: config.level,
        fp: config.fp,
        grad_fp: config.grad_fp,
        parallelism,
    };
    let mut rng = StdRng::seed_from_u64(config.model_seed);
    CryptoMlp::new(
        shape.feature_dim,
        &[shape.hidden],
        shape.classes,
        Objective::SoftmaxCrossEntropy,
        cc,
        &mut rng,
    )
}

pub fn local_authority(config: &SessionConfig) -> KeyAuthority {
    KeyAuthority::with_seed(
        SchnorrGroup::precomputed(config.level),
        config.permitted,
        config.authority_seed,
    )
}

// ------------------------------------------------------------------ sockets

/// One predict connection over a raw socket.
pub struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects, sends the binary `Hello`, and returns the public
    /// parameters the daemon answers with.
    pub fn open(
        addr: SocketAddr,
        session: SessionId,
        client: u32,
        config: &SessionConfig,
    ) -> (Self, PublicParams) {
        let stream = TcpStream::connect(addr).expect("connect to the fleet");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut conn = Self {
            stream,
            decoder: FrameDecoder::new(DEFAULT_MAX_FRAME),
            buf: vec![0u8; 64 * 1024],
        };
        let hello = NetMsg::Hello(Hello {
            session,
            peer: Peer::Client(ClientId(client)),
            config: config.clone(),
        });
        conn.send(&frame(&hello, WireFormat::Binary));
        match conn.recv() {
            Ok(Some(NetMsg::Msg(WireMessage::PublicParams(p)))) => (conn, p),
            other => panic!("handshake failed: {other:?}"),
        }
    }

    pub fn send(&mut self, frame: &[u8]) {
        self.stream.write_all(frame).expect("write a request frame");
    }

    /// The next frame; `Ok(None)` when a read timeout set on the socket
    /// expires first.
    pub fn recv(&mut self) -> Result<Option<NetMsg>, String> {
        loop {
            if let Some(msg) = self
                .decoder
                .next_msg::<NetMsg>()
                .map_err(|e| e.to_string())?
            {
                return Ok(Some(msg));
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("connection closed by the fleet".into()),
                Ok(n) => self
                    .decoder
                    .extend(&self.buf[..n])
                    .map_err(|e| e.to_string())?,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

pub fn frame(msg: &NetMsg, format: WireFormat) -> Vec<u8> {
    encode_frame_fmt(msg, DEFAULT_MAX_FRAME, format).expect("encode a frame")
}

pub fn decode(frame: &[u8]) -> NetMsg {
    let mut d = FrameDecoder::new(DEFAULT_MAX_FRAME);
    d.extend(frame).expect("frame within the cap");
    d.next_msg::<NetMsg>()
        .expect("well-formed frame")
        .expect("one whole frame")
}

// ------------------------------------------------------------------ inputs

/// Pre-encrypted requests of one connection, with the answer each must get.
pub struct Pool {
    pub inputs: Vec<Matrix<f64>>,
    pub requests: Vec<PredictRequest>,
    pub frames: Vec<Vec<u8>>,
    pub expected: Vec<Matrix<f64>>,
}

/// Encrypts `n` seeded batch-1 requests for connection `conn` and
/// computes their reference answers in-process.
pub fn build_pool(
    config: &SessionConfig,
    shape: MlpShape,
    seed: u64,
    conn: usize,
    n: usize,
) -> Pool {
    let local = AuthoritySession::new(config);
    let params = local.public_params_for(config);
    let mut encryptor = cryptonn_core::Client::from_keys(
        params.x_mpk,
        params.y_mpk,
        params.febo_mpk,
        params.fp,
        config.client_seed_base + conn as u64,
    );
    let mut features = gen::rng(seed.wrapping_add(conn as u64), Stream::Features);
    let mut reference = new_model(config, shape, Parallelism::Serial);
    let mut pool = Pool {
        inputs: Vec::new(),
        requests: Vec::new(),
        frames: Vec::new(),
        expected: Vec::new(),
    };
    for id in 0..n {
        let x = gen::features(1, shape.feature_dim, &mut features);
        let batch: EncryptedBatch = encryptor.encrypt_features(&x).expect("encrypt a request");
        pool.expected.push(
            reference
                .predict_encrypted(local.authority(), &batch)
                .expect("reference prediction"),
        );
        let request = PredictRequest {
            id: id as u64,
            batch,
        };
        pool.frames.push(frame(
            &NetMsg::Msg(WireMessage::Predict(request.clone())),
            WireFormat::Binary,
        ));
        pool.requests.push(request);
        pool.inputs.push(x);
    }
    pool
}

/// Does `reply` answer pool entry `idx` exactly?
fn reply_ok(reply: &NetMsg, pool: &Pool, idx: u32, corrupt: bool) -> bool {
    let NetMsg::Msg(WireMessage::Prediction(p)) = reply else {
        return false;
    };
    if p.id != u64::from(idx) {
        return false;
    }
    if corrupt {
        // The wrong-answer hook: what a flipped prediction looks like.
        let mut flipped = p.outputs.clone();
        flipped[(0, 0)] += 1.0;
        return flipped == pool.expected[idx as usize];
    }
    p.outputs == pool.expected[idx as usize]
}

// ------------------------------------------------------------------ system

/// Authority daemon, fleet, and the generator's handshaken connections.
pub struct ServeSystem {
    pub authority: AuthorityServer,
    pub fleet: InferenceFleet,
    pub conns: Vec<Conn>,
    /// The wire-delivered public parameters equal the ones the pool was
    /// encrypted under.
    pub params_match: bool,
    _tables: FreshDir,
}

/// Cold start: daemons with their `Default` options against a fresh
/// table-cache directory, one connection per warm-up frame, and one
/// untimed request on each, which derives the model's keys (a cache
/// miss, an authority RPC) and builds the lazy comb and BSGS tables.
pub fn start_system(
    config: &SessionConfig,
    shape: MlpShape,
    session: SessionId,
    warm: &[&Pool],
) -> ServeSystem {
    let tables = FreshDir::new("tables");
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session,
        config,
        new_model(config, shape, Parallelism::Serial),
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        FleetOptions {
            table_cache: Some(tables.0.clone()),
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet binds");
    let expected_params = AuthoritySession::new(config).public_params_for(config);
    let mut params_match = true;
    let mut conns = Vec::new();
    for (i, pool) in warm.iter().enumerate() {
        let (mut conn, params) = Conn::open(fleet.local_addr(), session, CLIENT_IDS[i], config);
        params_match &= params == expected_params;
        conn.send(&pool.frames[0]);
        let reply = conn
            .recv()
            .expect("warm-up reply")
            .expect("no read timeout is set");
        assert!(reply_ok(&reply, pool, 0, false), "warm-up answer is wrong");
        conns.push(conn);
    }
    ServeSystem {
        authority,
        fleet,
        conns,
        params_match,
        _tables: tables,
    }
}

impl ServeSystem {
    /// Stops both daemons and reports whether the fleet's port is free
    /// again, so that nothing of this system bleeds into the next.
    pub fn shutdown(self) -> bool {
        let addr = self.fleet.local_addr();
        drop(self.conns);
        self.fleet.shutdown();
        self.authority.shutdown();
        TcpListener::bind(addr).is_ok()
    }

    fn counters(&self) -> Value {
        let cache = self.fleet.cache_stats();
        let reactor = self.fleet.reactor_stats();
        obj(vec![
            ("served", Value::U64(self.fleet.served())),
            ("sweeps", Value::U64(self.fleet.sweeps())),
            ("key_cache_hits", Value::U64(cache.hits)),
            ("key_cache_misses", Value::U64(cache.misses)),
            ("reactor_accepted", Value::U64(reactor.accepted)),
            ("reactor_peak", Value::U64(reactor.peak as u64)),
            ("reactor_backend", Value::Str(self.fleet.backend().into())),
        ])
    }

    /// The per-layer counts read off the fleet after a serve run.
    fn counter_metrics(&self, lateness_us: &[f64]) -> Vec<Metric> {
        let cache = self.fleet.cache_stats();
        let reactor = self.fleet.reactor_stats();
        let lookups = (cache.hits + cache.misses).max(1);
        let late = Summary::of(lateness_us);
        vec![
            metric(
                "fe.key_cache_hit_ratio",
                cache.hits as f64 / lookups as f64,
                "ratio",
            ),
            metric(
                "protocol.coalesce_ratio",
                self.fleet.served() as f64 / self.fleet.sweeps().max(1) as f64,
                "ratio",
            ),
            metric("net.reactor_accepted", reactor.accepted as f64, "count"),
            metric("net.reactor_peak", reactor.peak as f64, "count"),
            metric("gen.lateness_p50_us", late.map_or(0.0, |s| s.p50), "us"),
            metric("gen.lateness_max_us", late.map_or(0.0, |s| s.max), "us"),
        ]
    }
}

/// The set-up both a run and a `--setup-probe` child time.
fn timed_setup(config: &SessionConfig, shape: MlpShape, warm: &[&Pool]) -> (ServeSystem, f64) {
    let t0 = Instant::now();
    let system = start_system(config, shape, SessionId(1), warm);
    (system, t0.elapsed().as_secs_f64())
}

/// `--setup-probe`: one cold set-up in this (fresh) process.
pub fn setup_probe(workload: &str, seed: u64) -> f64 {
    let (shape, conns) = match workload {
        "serve_closed" => (PAPER_MLP, CLOSED_CONNS),
        _ => (TINY_MLP, 1),
    };
    let config = session_config(shape, seed, 1);
    let pools: Vec<Pool> = (0..conns)
        .map(|c| build_pool(&config, shape, seed, c, 1))
        .collect();
    let (system, seconds) = timed_setup(&config, shape, &pools.iter().collect::<Vec<_>>());
    assert!(system.shutdown(), "the probe's port was not released");
    seconds
}

/// What set-up cost: the seconds of every cold set-up, and this
/// process's peak resident set when its own was done.
struct Setup {
    samples_s: Vec<f64>,
    rss_mb: f64,
}

/// Median of the cold set-ups: `probes` child processes, then this
/// process's own. Returns the system this process set up.
fn measured_setup(
    args: &Args,
    config: &SessionConfig,
    shape: MlpShape,
    warm: &[&Pool],
    probes: usize,
) -> (ServeSystem, Setup) {
    let mut samples = if args.quick || args.trace {
        Vec::new()
    } else {
        host::setup_probes(&args.workload, args.seed, probes)
    };
    let (system, own) = timed_setup(config, shape, warm);
    samples.push(own);
    (
        system,
        Setup {
            samples_s: samples,
            rss_mb: host::peak_rss_mb(),
        },
    )
}

impl Setup {
    fn end_to_end(&self, ops_per_s: f64, latency: Windowed) -> Vec<Metric> {
        end_to_end(ops_per_s, latency.p50, self.rss_mb, median(&self.samples_s))
    }
}

// ------------------------------------------------------------------ serve_closed

struct ClosedOut {
    /// `(seconds into the timed section, latency in ms)` per request.
    samples: Vec<(f64, f64)>,
    failed: u64,
}

/// One connection of the closed loop: the next request goes out only
/// after the previous reply is in.
fn closed_worker(
    conn: &mut Conn,
    pool: &Pool,
    order: &[u32],
    start: &Barrier,
    seconds: f64,
    corrupt_first: bool,
) -> ClosedOut {
    let mut out = ClosedOut {
        samples: Vec::with_capacity((seconds * 1000.0) as usize),
        failed: 0,
    };
    start.wait();
    let begin = Instant::now();
    for (k, &idx) in order.iter().cycle().enumerate() {
        let t0 = Instant::now();
        let at = (t0 - begin).as_secs_f64();
        if at >= seconds {
            break;
        }
        conn.send(&pool.frames[idx as usize]);
        let ok = matches!(conn.recv(), Ok(Some(reply)) if reply_ok(&reply, pool, idx, corrupt_first && k == 0));
        out.samples.push((at, t0.elapsed().as_secs_f64() * 1e3));
        out.failed += u64::from(!ok);
    }
    out
}

fn run_closed_loop(
    system: &mut ServeSystem,
    pools: &[Pool],
    seed: u64,
    seconds: f64,
    corrupt_first: bool,
) -> (Vec<(f64, f64)>, u64, f64) {
    let start = Barrier::new(pools.len());
    let t0 = Instant::now();
    let outs: Vec<ClosedOut> = std::thread::scope(|s| {
        let handles: Vec<_> = system
            .conns
            .iter_mut()
            .zip(pools)
            .enumerate()
            .map(|(c, (conn, pool))| {
                let order = gen::request_order(
                    4096,
                    pool.frames.len(),
                    &mut gen::rng(seed.wrapping_add(c as u64), Stream::Order),
                );
                let start = &start;
                s.spawn(move || {
                    closed_worker(conn, pool, &order, start, seconds, corrupt_first && c == 0)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let failed = outs.iter().map(|o| o.failed).sum();
    let samples = outs.into_iter().flat_map(|o| o.samples).collect();
    (samples, failed, wall)
}

pub fn run_closed(args: &Args) -> Outcome {
    let shape = PAPER_MLP;
    let config = session_config(shape, args.seed, 1);
    let t0 = Instant::now();
    let pool_size = if args.quick { 4 } else { CLOSED_POOL };
    let pools: Vec<Pool> = (0..CLOSED_CONNS)
        .map(|c| build_pool(&config, shape, args.seed, c, pool_size))
        .collect();
    let inputs_s = t0.elapsed().as_secs_f64();
    let warm: Vec<&Pool> = pools.iter().collect();
    let (mut system, setup) = measured_setup(args, &config, shape, &warm, CLOSED_SETUP_PROBES);

    if args.trace {
        let (_, failed, _) = run_closed_loop(
            &mut system,
            &pools,
            args.seed,
            (args.seconds / 5.0).min(3.0),
            false,
        );
        let mut metrics = system.counter_metrics(&[]);
        let (trace_metrics, spans) = trace_requests(args, &config, shape, &mut system, &pools[0]);
        metrics.extend(trace_metrics);
        metrics.extend(crate::layers::probe_all(args, None));
        let released = system.shutdown();
        return Outcome {
            attempted: spans,
            failed: failed + u64::from(!released),
            metrics,
            detail: obj(vec![("port_released", Value::Bool(released))]),
        };
    }

    let (samples, failed, wall) = run_closed_loop(
        &mut system,
        &pools,
        args.seed,
        args.seconds,
        args.inject_wrong_answer,
    );
    let attempted = samples.len() as u64;
    let latency = Windowed::of(&samples, args.seconds, LATENCY_WINDOWS)
        .expect("the closed loop completed requests");
    let overall = Summary::of(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).expect("as above");
    let counters = system.counters();
    let params_match = system.params_match;
    let released = system.shutdown();
    let ops_per_s = (attempted - failed) as f64 / wall;
    Outcome {
        attempted,
        failed: failed + u64::from(!released) + u64::from(!params_match),
        metrics: setup.end_to_end(ops_per_s, latency),
        detail: obj(vec![
            ("predictions_per_s", Value::F64(ops_per_s)),
            ("predict_latency_ms", latency.to_value()),
            ("predict_latency_all_samples_ms", overall.to_value()),
            ("connections", Value::U64(CLOSED_CONNS as u64)),
            ("generator_threads", Value::U64(CLOSED_CONNS as u64)),
            ("timed_wall_s", Value::F64(wall)),
            ("inputs_s", Value::F64(inputs_s)),
            ("setup_samples_s", floats(&setup.samples_s)),
            ("peak_rss_mb", Value::F64(host::peak_rss_mb())),
            ("fleet", counters),
            ("port_released", Value::Bool(released)),
            ("public_params_match", Value::Bool(params_match)),
        ]),
    }
}

// ------------------------------------------------------------------ serve_open

struct PhaseOut {
    rate: f64,
    offered: usize,
    ok: u64,
    /// Correct replies that arrived before the phase ended.
    ok_in_time: u64,
    failed: u64,
    due: Vec<f64>,
    latencies_ms: Vec<f64>,
    lateness_us: Vec<f64>,
    backlog: [i64; 3],
    backlog_growing: bool,
    duration: f64,
}

impl PhaseOut {
    /// Latency by due time, over the windows of the phase.
    fn windowed(&self) -> Option<Windowed> {
        let samples: Vec<(f64, f64)> = self
            .due
            .iter()
            .copied()
            .zip(self.latencies_ms.iter().copied())
            .collect();
        Windowed::of(&samples, self.duration, LATENCY_WINDOWS)
    }

    fn goodput(&self) -> f64 {
        self.ok_in_time as f64 / self.duration
    }

    fn to_value(&self) -> Value {
        let late = Summary::of(&self.lateness_us);
        obj(vec![
            ("offered_rps", Value::F64(self.rate)),
            ("requests", Value::U64(self.offered as u64)),
            ("ok", Value::U64(self.ok)),
            ("failed", Value::U64(self.failed)),
            ("goodput_rps", Value::F64(self.goodput())),
            (
                "latency_from_due_ms",
                self.windowed().map_or(Value::Null, Windowed::to_value),
            ),
            (
                "latency_from_due_all_samples_ms",
                Summary::of(&self.latencies_ms).map_or(Value::Null, Summary::to_value),
            ),
            (
                "generator_lateness_p50_us",
                Value::F64(late.map_or(0.0, |s| s.p50)),
            ),
            (
                "generator_lateness_max_us",
                Value::F64(late.map_or(0.0, |s| s.max)),
            ),
            (
                "backlog_at_2_3_5_6_end",
                Value::Seq(self.backlog.iter().map(|&b| Value::I64(b)).collect()),
            ),
            ("backlog_growing", Value::Bool(self.backlog_growing)),
        ])
    }
}

/// Replays one seeded Poisson phase over the system's single
/// connection, split into a sender and a receiver thread. Latency runs
/// from each request's due time, so a stall is charged to every request
/// it delays.
fn open_phase(
    system: &mut ServeSystem,
    pool: &Pool,
    rate: f64,
    duration: f64,
    seed: u64,
    corrupt_first: bool,
) -> PhaseOut {
    let due = gen::poisson_schedule(rate, duration, &mut gen::rng(seed, Stream::Schedule));
    let order = gen::request_order(
        due.len(),
        pool.frames.len(),
        &mut gen::rng(seed, Stream::Order),
    );
    let conn = &mut system.conns[0];
    let mut tx = conn
        .stream
        .try_clone()
        .expect("clone the socket for the sender");
    conn.stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set the receiver's poll interval");
    let start = Instant::now() + Duration::from_millis(20);
    let spin = Duration::from_micros(OPEN_SPIN_MICROS);

    let (lateness_us, (done_at, wrong, wrong_in_time)) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut lateness_us = Vec::with_capacity(due.len());
            for (&at, &idx) in due.iter().zip(&order) {
                let target = start + Duration::from_secs_f64(at);
                loop {
                    let now = Instant::now();
                    if now >= target {
                        break;
                    }
                    match (target - now).checked_sub(spin) {
                        Some(rest) if !rest.is_zero() => std::thread::sleep(rest),
                        _ => std::hint::spin_loop(),
                    }
                }
                let sent = Instant::now();
                if tx.write_all(&pool.frames[idx as usize]).is_err() {
                    break;
                }
                lateness_us.push((sent - target).as_secs_f64() * 1e6);
            }
            lateness_us
        });
        let receiver = s.spawn(|| {
            // Replies come back in request order: one connection, one
            // shard, FIFO sweeps.
            let give_up = start + Duration::from_secs_f64(duration + OPEN_DRAIN_SECONDS);
            let mut done_at = Vec::with_capacity(due.len());
            let (mut wrong, mut wrong_in_time) = (0u64, 0u64);
            while done_at.len() < due.len() && Instant::now() < give_up {
                match conn.recv() {
                    Ok(Some(reply)) => {
                        let k = done_at.len();
                        let at = start.elapsed().as_secs_f64();
                        done_at.push(at);
                        if !reply_ok(&reply, pool, order[k], corrupt_first && k == 0) {
                            wrong += 1;
                            wrong_in_time += u64::from(at <= duration);
                        }
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
            (done_at, wrong, wrong_in_time)
        });
        (
            sender.join().expect("sender thread"),
            receiver.join().expect("receiver thread"),
        )
    });
    conn.stream
        .set_read_timeout(None)
        .expect("clear the read timeout");

    let latencies_ms: Vec<f64> = done_at
        .iter()
        .zip(&due)
        .map(|(d, a)| (d - a) * 1e3)
        .collect();
    // Completions lag arrivals by a widening margin over the last third?
    let backlog_at = |t: f64| {
        let arrived = due.partition_point(|&a| a <= t) as i64;
        let completed = done_at.partition_point(|&d| d <= t) as i64;
        arrived - completed
    };
    let backlog = [
        backlog_at(duration * 2.0 / 3.0),
        backlog_at(duration * 5.0 / 6.0),
        backlog_at(duration),
    ];
    let backlog_growing =
        backlog[2] > backlog[1] && backlog[1] > backlog[0] && backlog[2] as f64 > 0.02 * rate;
    let missing = (due.len() - done_at.len()) as u64;
    PhaseOut {
        rate,
        offered: due.len(),
        ok: done_at.len() as u64 - wrong,
        ok_in_time: done_at.partition_point(|&d| d <= duration) as u64 - wrong_in_time,
        failed: missing + wrong,
        due,
        latencies_ms,
        lateness_us,
        backlog,
        backlog_growing,
        duration,
    }
}

pub fn run_open(args: &Args) -> Outcome {
    let shape = TINY_MLP;
    let config = session_config(shape, args.seed, 1);
    let t0 = Instant::now();
    let pool = build_pool(
        &config,
        shape,
        args.seed,
        0,
        if args.quick { 16 } else { OPEN_POOL },
    );
    let inputs_s = t0.elapsed().as_secs_f64();
    let (system, setup) = measured_setup(args, &config, shape, &[&pool], OPEN_SETUP_PROBES);

    if args.trace {
        let mut system = system;
        let phase = open_phase(
            &mut system,
            &pool,
            OPEN_RATES_RPS[OPEN_REPORT_PHASE],
            (args.seconds / 5.0).min(3.0),
            args.seed,
            false,
        );
        let mut metrics = system.counter_metrics(&phase.lateness_us);
        let (trace_metrics, spans) = trace_requests(args, &config, shape, &mut system, &pool);
        metrics.extend(trace_metrics);
        metrics.extend(crate::layers::probe_all(args, None));
        let released = system.shutdown();
        return Outcome {
            attempted: spans + phase.offered as u64,
            failed: phase.failed + u64::from(!released),
            metrics,
            detail: obj(vec![
                ("phase", phase.to_value()),
                ("port_released", Value::Bool(released)),
            ]),
        };
    }

    // Three fixed-rate phases, each against daemons of its own: a phase
    // starts only after the previous one's daemons are down and their
    // port is free.
    let mut phases = Vec::new();
    let mut all_released = true;
    let mut params_match = true;
    let mut counters = Vec::new();
    let mut next = Some(system);
    for (p, &rate) in OPEN_RATES_RPS.iter().enumerate() {
        let mut system = next
            .take()
            .unwrap_or_else(|| start_system(&config, shape, SessionId(1 + p as u64), &[&pool]));
        phases.push(open_phase(
            &mut system,
            &pool,
            rate,
            args.seconds * OPEN_PHASE_SHARE[p],
            args.seed.wrapping_add(p as u64),
            args.inject_wrong_answer && p == OPEN_REPORT_PHASE,
        ));
        counters.push(system.counters());
        params_match &= system.params_match;
        all_released &= system.shutdown();
    }

    let report = &phases[OPEN_REPORT_PHASE];
    let latency = report
        .windowed()
        .expect("the reported phase completed requests");
    let limit_met = |ph: &PhaseOut| {
        ph.failed == 0
            && !ph.backlog_growing
            && ph.windowed().is_some_and(|w| w.tail <= OPEN_TAIL_LIMIT_MS)
    };
    let max_rate_ok = phases
        .iter()
        .filter(|ph| limit_met(ph))
        .map(|ph| ph.rate)
        .fold(0.0, f64::max);
    let attempted: u64 = phases.iter().map(|ph| ph.offered as u64).sum();
    let failed: u64 = phases.iter().map(|ph| ph.failed).sum();
    Outcome {
        attempted,
        failed: failed + u64::from(!all_released) + u64::from(!params_match),
        metrics: setup.end_to_end(report.goodput(), latency),
        detail: obj(vec![
            ("predictions_per_s", Value::F64(report.goodput())),
            ("predict_latency_ms", latency.to_value()),
            ("reported_phase", Value::U64(OPEN_REPORT_PHASE as u64)),
            (
                "phases",
                Value::Seq(phases.iter().map(PhaseOut::to_value).collect()),
            ),
            ("tail_limit_ms", Value::F64(OPEN_TAIL_LIMIT_MS)),
            ("max_rate_ok_rps", Value::F64(max_rate_ok)),
            ("connections", Value::U64(1)),
            ("generator_threads", Value::U64(2)),
            ("inputs_s", Value::F64(inputs_s)),
            ("setup_samples_s", floats(&setup.samples_s)),
            ("peak_rss_mb", Value::F64(host::peak_rss_mb())),
            ("fleet_per_phase", Value::Seq(counters)),
            ("ports_released", Value::Bool(all_released)),
            ("public_params_match", Value::Bool(params_match)),
        ]),
    }
}

// ------------------------------------------------------------------ traced run

/// Pushes pool requests through every nesting level of the serving path
/// and returns the per-layer self times plus the span count.
fn trace_requests(
    args: &Args,
    config: &SessionConfig,
    shape: MlpShape,
    system: &mut ServeSystem,
    pool: &Pool,
) -> (Vec<Metric>, u64) {
    let ops = if args.quick { 4 } else { TRACE_SERVE_OPS };
    let conn = &mut system.conns[0];

    // The levels below the socket, in this process: the same session
    // state machine, model and key cache a shard runs, warmed once.
    let (params, link) = LocalAuthority
        .connect(SessionId(900), config)
        .expect("in-process authority link");
    let mut session = InferenceSession::new(
        &params,
        link,
        new_model(config, shape, Parallelism::Serial),
        InferenceOptions::default(),
    );
    let mut model = new_model(config, shape, Parallelism::Serial);
    let authority = local_authority(config);
    let keys = CachingKeyService::new(
        local_authority(config),
        InferenceOptions::default().key_cache,
    );
    let wq = config
        .fp
        .encode_matrix(&model.first_layer().weights().transpose());
    let mut rng = gen::rng(args.seed, Stream::Clients);
    let client = ClientId(CLIENT_IDS[0]);
    let warm = WireMessage::Predict(pool.requests[0].clone());
    session
        .handle_message(client, &warm)
        .expect("warm the traced session");
    session.flush().expect("warm the traced session");
    model
        .predict_encrypted_many(&keys, &[&pool.requests[0].batch])
        .expect("warm the traced model");

    let mut t = Tracer::new(true);
    for op in 0..ops as u32 {
        let idx = op as usize % pool.frames.len();
        let request = &pool.requests[idx];
        let (reply, top) = t.span("net.request", "net", None, op, || {
            conn.send(&pool.frames[idx]);
            conn.recv()
        });
        assert!(
            matches!(reply, Ok(Some(r)) if reply_ok(&r, pool, idx as u32, false)),
            "traced request got a wrong answer"
        );
        let (msg, _) = t.span("wire.decode_request", "wire", top, op, || {
            decode(&pool.frames[idx])
        });
        let answer = NetMsg::Msg(WireMessage::Prediction(Prediction {
            id: request.id,
            outputs: pool.expected[idx].clone(),
        }));
        let (answer_frame, _) = t.span("wire.encode_reply", "wire", top, op, || {
            frame(&answer, WireFormat::Binary)
        });
        t.span("wire.decode_reply", "wire", top, op, || {
            decode(&answer_frame)
        });
        let NetMsg::Msg(msg) = msg else {
            unreachable!("a request frame decodes to a session message")
        };
        let (_, sweep) = t.span("protocol.sweep", "protocol", top, op, || {
            session
                .handle_message(client, &msg)
                .expect("queue the traced request");
            session.flush().expect("sweep the traced request")
        });
        let (_, core) = t.span("core.predict_many", "core", sweep, op, || {
            model
                .predict_encrypted_many(&keys, &[&request.batch])
                .expect("traced prediction")
        });
        let xq = config.fp.encode_matrix(&pool.inputs[idx].transpose());
        let dot = DotOperands::new(&authority, &xq, &wq, &mut rng);
        let (_, smc) = t.span("smc.secure_dot", "smc", core, op, || {
            dot.smc_secure_dot(Parallelism::Serial)
        });
        let (_, fe) = t.span("fe.decrypt_cells", "fe", smc, op, || {
            dot.fe_decrypt_cells(Parallelism::Serial)
        });
        t.span("group.multi_scalar", "group", fe, op, || {
            dot.group_multi_scalar()
        });
        t.span("group.dlog_solve", "group", fe, op, || {
            dot.group_dlog_solve()
        });
    }

    // What recording costs: the same round trips with the tracer off and on.
    let reps = if args.quick { 16 } else { 400 };
    let mut walls = [0.0f64; 2];
    for (w, enabled) in walls.iter_mut().zip([false, true]) {
        let mut probe = Tracer::new(enabled);
        let t0 = Instant::now();
        for op in 0..reps as u32 {
            let idx = op as usize % pool.frames.len();
            probe.span("net.request", "net", None, op, || {
                conn.send(&pool.frames[idx]);
                conn.recv().expect("overhead round trip")
            });
        }
        *w = t0.elapsed().as_secs_f64();
    }
    let metrics = crate::layers::trace_metrics(&t, walls[1] / walls[0], "net.request");
    write_trace(&args.workload, &t);
    (metrics, t.spans.len() as u64)
}

/// Writes the spans to `benchmark/.out/trace-<workload>.json`.
pub fn write_trace(workload: &str, t: &Tracer) {
    let path = host::out_dir().join(format!("trace-{workload}.json"));
    let json = serde_json::to_string(&t.to_value()).expect("spans serialize");
    std::fs::write(&path, json + "\n").expect("write the trace file");
    println!(
        "trace: {} spans written to {}",
        t.spans.len(),
        path.display()
    );
}
