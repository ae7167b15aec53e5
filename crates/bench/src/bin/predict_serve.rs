//! Encrypted inference serving telemetry — throughput and latency of
//! the `InferenceFleet` over TCP loopback, with the functional-key
//! cache on and off.
//!
//! For each grid point (`clients × batch-size`, per security level) the
//! harness spins up the real daemons (networked key authority +
//! single-shard inference fleet), pre-encrypts every request outside
//! the timed loop, then has each client thread run its requests
//! synchronously, recording per-request latency. Two arms per point:
//!
//! - **cache_off** — the status-quo serving path: coalescing window 1
//!   and a zero-capacity key cache, so every request is its own secure
//!   sweep and re-derives the frozen model's FEIP keys through the
//!   remote authority;
//! - **cache_on** — the serving subsystem: requests coalesce (window
//!   `B`) into shared `decrypt_cells` sweeps with a single batched
//!   inversion, and the key cache makes the steady state
//!   authority-free.
//!
//! Both arms serve **bit-identical predictions** (asserted: the
//! deterministic client seeds make the ciphertexts identical across
//! arms, and exact FE decryption makes the outputs identical).
//!
//! Reported per (level, clients, batch, arm): predictions/s, p50/p99
//! request latency, sweep and cache counters; plus the cache-on vs
//! cache-off speedup per point. Emits `BENCH_predict_serve.json`
//! (schema `cryptonn.bench.predict_serve/v5`).
//!
//! The off/on ratio is *bounded* on this workload: FEIP key derivation
//! costs one `q`-sized multiplication per weight element while the
//! decrypt sweep costs ~2 `p`-sized multiplications per element, so
//! even with the wire leg the uncached arm tops out near 2x the cached
//! one (DESIGN.md §12 quantifies this). `--check-speedup X` gates on
//! the measured Bits256 single-client point.
//!
//! The report also times a cold vs warm start of the persisted table
//! cache (generator comb + BSGS tables, DESIGN.md §13);
//! `--check-warm-speedup X` gates the warm-over-cold ratio.
//!
//! The **open-loop arm**: a seeded Poisson arrival schedule over
//! hundreds of live connections (thousands under
//! `CRYPTONN_BENCH_FULL=1`), replayed against a two-shard
//! `InferenceFleet` (DESIGN.md §15). Latency is charged against each
//! request's *scheduled* arrival (no coordinated omission), reported as
//! p50/p99/p999.
//!
//! The **wire arm** (DESIGN.md §16): a codec microbench encodes and
//! decodes the production Bits256 predict frame under both wire formats
//! (bytes/msg plus encode/decode µs — the byte-reduction figure), and
//! the open-loop schedule is replayed two more times against the fleet
//! with the clients pinned to the binary codec and to a mixed
//! json/binary population — all three dialect arms must serve
//! bit-identical predictions. `--check-wire` gates on binary ≥ 1.15x
//! the json open-loop preds/s *or* ≥ 1.8x byte reduction at Bits256.
//!
//! ```text
//! cargo run --release -p cryptonn-bench --bin predict_serve -- \
//!     [--out BENCH_predict_serve.json] [--check-speedup 1.5] \
//!     [--check-warm-speedup 5.0] [--check-wire]
//! ```

use std::sync::Arc;
use std::time::Instant;

use cryptonn_core::{CryptoMlp, CryptoNnConfig, EncryptedBatch, Objective};
use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::{SchnorrGroup, SecurityLevel};
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    encode_frame_fmt, read_frame_sniff, AuthorityOptions, AuthorityServer, FleetOptions,
    InferenceClient, InferenceFleet, NetMsg, RemoteAuthority, WireFormat, DEFAULT_MAX_FRAME,
};
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    ClientId, InferenceOptions, MlpSpec, ModelSpec, PredictRequest, SessionConfig, SessionId,
    WireMessage,
};
use cryptonn_smc::FixedPoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Serialize;

const FEATURE_DIM: usize = 784;
const HIDDEN: usize = 16;
const CLASSES: usize = 10;
/// Coalescing window of the cache-on arm.
const COALESCE: usize = 4;

fn serving_config(level: SecurityLevel) -> SessionConfig {
    SessionConfig {
        level,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(MlpSpec {
            feature_dim: FEATURE_DIM,
            hidden: vec![HIDDEN],
            classes: CLASSES,
            objective: Objective::SoftmaxCrossEntropy,
        }),
        lr: 0.5,
        epochs: 1,
        batch_size: 8,
        clients: 1,
        authority_seed: 7001,
        model_seed: 7002,
        client_seed_base: 7003,
        policy: cryptonn_protocol::SessionPolicy::FailFast,
    }
}

/// The frozen model under service. Serving cost is independent of the
/// weights' history, so the harness freezes an initialized model
/// rather than spending bench time on a training run.
fn frozen_model(config: &SessionConfig) -> CryptoMlp {
    let cc = CryptoNnConfig {
        level: config.level,
        fp: config.fp,
        grad_fp: config.grad_fp,
        parallelism: Parallelism::Serial,
    };
    let mut rng = StdRng::seed_from_u64(config.model_seed);
    CryptoMlp::new(
        FEATURE_DIM,
        &[HIDDEN],
        CLASSES,
        Objective::SoftmaxCrossEntropy,
        cc,
        &mut rng,
    )
}

fn input(client: usize, req: usize, rows: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, FEATURE_DIM, |r, c| {
        ((client * 131 + req * 17 + r * 3 + c) % 97) as f64 / 97.0
    })
}

#[derive(Debug, Clone, Serialize)]
struct Measurement {
    level: String,
    clients: usize,
    batch: usize,
    arm: String,
    requests: u64,
    predictions: u64,
    wall_ms: f64,
    predictions_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    sweeps: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
}

#[derive(Debug, Clone, Serialize)]
struct Speedup {
    level: String,
    clients: usize,
    batch: usize,
    speedup: f64,
}

/// Cold vs warm start of the persisted table cache: building the
/// generator comb + BSGS tables from scratch against reloading them
/// from the fingerprinted on-disk cache.
#[derive(Debug, Clone, Serialize)]
struct WarmStart {
    level: String,
    dlog_bound: u64,
    /// Median cold (build + persist) time across measurement rounds.
    cold_ms: f64,
    /// Median warm (reload) time across measurement rounds.
    warm_ms: f64,
    /// Median of the per-round cold/warm ratios (see
    /// [`measure_warm_start`]); not `cold_ms / warm_ms`.
    warm_speedup: f64,
}

/// One format's codec microbench: the production Bits256 predict frame
/// (one row, the full 784-feature serving geometry) encoded and decoded
/// through the real frame path.
#[derive(Debug, Clone, Serialize)]
struct WireCodecArm {
    format: String,
    /// Encoded frame payload size (the 4-byte length header excluded).
    payload_bytes: u64,
    /// Median single-frame encode time.
    encode_us: f64,
    /// Median single-frame decode time (sniff + parse back to the
    /// typed message).
    decode_us: f64,
}

/// One client-dialect replay of the open-loop schedule against the
/// reactor fleet: every client json, every client binary, or an
/// alternating mixed population on the one daemon.
#[derive(Debug, Clone, Serialize)]
struct WireServeArm {
    /// `"json"`, `"binary"`, or `"mixed"`.
    dialect: String,
    completed: u64,
    predictions_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// The wire-format comparison (schema v4, DESIGN.md §16).
#[derive(Debug, Serialize)]
struct WireBench {
    /// Security level of the codec microbench — the serving geometry's
    /// production level, where hex inflation is at its worst.
    codec_level: String,
    codec: Vec<WireCodecArm>,
    /// json over binary payload bytes on the Bits256 predict frame —
    /// the `--check-wire` byte-reduction leg.
    byte_reduction_bits256: f64,
    serve: Vec<WireServeArm>,
    /// Binary over json open-loop preds/s on the reactor fleet — the
    /// `--check-wire` throughput leg.
    binary_over_json: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    schema: String,
    generated_by: String,
    host: cryptonn_bench::HostInfo,
    feature_dim: usize,
    hidden: usize,
    classes: usize,
    coalesce_window: usize,
    requests_per_client: usize,
    measurements: Vec<Measurement>,
    speedups: Vec<Speedup>,
    /// Cache-on over cache-off predictions/s at Bits256, single
    /// synchronous client, batch 1 — the pure key-cache effect.
    headline_speedup_bits256: f64,
    warm_start: WarmStart,
    /// Poisson-arrival load over many live connections against the
    /// two-shard fleet.
    open_loop: OpenLoop,
    /// json vs binary wire codec: frame bytes, codec µs, and the
    /// open-loop dialect replays.
    wire: WireBench,
}

/// Stops glibc from returning freed heap pages to the kernel
/// (`mallopt(M_TRIM_THRESHOLD, …)`). The warm-start arms allocate and
/// free a few hundred KiB of table memory per measurement round; with
/// the default trim threshold every round's free shrinks the heap, so
/// the next round re-faults the same pages — and on a virtualized
/// 1-core host those minor faults cost as much as the table load being
/// measured. A long-running server's steady-state heap does not pay
/// them, so neither should the measurement. No-op off glibc.
fn disable_heap_trim() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        unsafe extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        unsafe {
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// The middle element of `xs`, destructively.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Times the serving-table construction path (generator comb + BSGS
/// table at the serving bound) cold — empty cache directory, tables
/// built and persisted — then warm — same directory, tables reloaded.
///
/// The table path is sub-millisecond, so the measurement defends
/// against system noise rather than averaging over it: heap trimming
/// is disabled (see [`disable_heap_trim`]), one untimed cold+warm
/// cycle warms the allocator and the page cache, the cold tables are
/// dropped before the warm arm so both arms allocate under the same
/// conditions, and the reported speedup is the *median of per-round
/// paired ratios* — cold and warm from the same round share scheduler
/// and allocator state, so a slow round cancels out of its own ratio
/// instead of skewing a cross-round quotient. `cold_ms`/`warm_ms` are
/// per-arm medians, reported for context.
fn measure_warm_start(level: SecurityLevel) -> WarmStart {
    use cryptonn_group::{DlogTable, SchnorrGroup};
    disable_heap_trim();
    // The first-layer serving bound at this geometry (dim-784 rows of
    // two-decimal fixed-point operands), power-of-two rounded the way
    // `DlogTableCache` rounds it.
    let bound = cryptonn_smc::dot_bound(100, 100, FEATURE_DIM).next_power_of_two();
    let base = std::env::temp_dir().join(format!("cryptonn-warmstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // One cold+warm cycle against a fresh directory; returns the two
    // timings with the cold-arm state dropped before the warm arm.
    let cycle = |dir: &std::path::Path| -> (f64, f64) {
        let t0 = Instant::now();
        let group = SchnorrGroup::precomputed_cached(level, dir);
        let table = DlogTable::load_or_build(&group, bound, dir);
        let cold = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(table.bound(), bound);
        drop(table);
        drop(group);

        let t1 = Instant::now();
        let warm_group = SchnorrGroup::precomputed_cached(level, dir);
        let warm_table = DlogTable::load_or_build(&warm_group, bound, dir);
        let warm = t1.elapsed().as_secs_f64() * 1e3;
        let probe = warm_group.exp(&warm_group.scalar_from_i64(-12345));
        assert_eq!(warm_table.solve(&warm_group, &probe), Ok(-12345));
        (cold, warm)
    };

    let (mut colds, mut warms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..8 {
        let dir = base.join(format!("r{round}"));
        let (c, w) = cycle(&dir);
        if round > 0 {
            colds.push(c);
            warms.push(w);
            ratios.push(c / w);
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    WarmStart {
        level: format!("{level:?}"),
        dlog_bound: bound,
        cold_ms: median(&mut colds),
        warm_ms: median(&mut warms),
        warm_speedup: median(&mut ratios),
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

struct ArmOutcome {
    m: Measurement,
    outputs: Vec<Vec<Matrix<f64>>>,
}

#[allow(clippy::too_many_arguments)]
fn run_arm(
    level: SecurityLevel,
    authority_addr: std::net::SocketAddr,
    session_id: SessionId,
    clients: usize,
    batch: usize,
    requests_per_client: usize,
    arm: &str,
    options: InferenceOptions,
) -> ArmOutcome {
    let config = serving_config(level);
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session_id,
        &config,
        frozen_model(&config),
        Arc::new(RemoteAuthority::new(authority_addr)),
        FleetOptions {
            shards: 1,
            session: options,
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet binds");
    let addr = fleet.local_addr();

    // Connect and pre-encrypt everything outside the timed region; the
    // deterministic seeds make the ciphertexts identical across arms.
    let mut handles = Vec::new();
    let barrier = Arc::new(std::sync::Barrier::new(clients + 1));
    for c in 0..clients {
        let config = config.clone();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = InferenceClient::connect(
                addr,
                session_id,
                ClientId(c as u32),
                &config,
                9000 + c as u64,
                DEFAULT_MAX_FRAME,
            )
            .expect("predict client connects");
            let encrypted: Vec<EncryptedBatch> = (0..requests_per_client)
                .map(|r| {
                    client
                        .encryptor_mut()
                        .encrypt_features(&input(c, r, batch))
                        .expect("encrypt")
                })
                .collect();
            barrier.wait(); // measurement starts once everyone is ready
            let mut latencies = Vec::with_capacity(requests_per_client);
            let mut outputs = Vec::with_capacity(requests_per_client);
            for enc in encrypted {
                let t0 = Instant::now();
                let id = client.send_encrypted(enc).expect("send");
                let p = client.recv_prediction().expect("prediction");
                assert_eq!(p.id, id, "responses arrive in request order");
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                outputs.push(p.outputs);
            }
            (latencies, outputs)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut latencies = Vec::new();
    let mut outputs = Vec::new();
    for h in handles {
        let (l, o) = h.join().expect("client thread");
        latencies.extend(l);
        outputs.push(o);
    }
    let wall = start.elapsed().as_secs_f64();

    let sweeps = fleet.sweeps();
    let cache = fleet.cache_stats();
    fleet.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let requests = (clients * requests_per_client) as u64;
    let predictions = requests * batch as u64;
    let m = Measurement {
        level: format!("{level:?}"),
        clients,
        batch,
        arm: arm.into(),
        requests,
        predictions,
        wall_ms: wall * 1e3,
        predictions_per_sec: predictions as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        sweeps,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
    };
    println!(
        "{:8} C={clients} m={batch} {arm:9}: {:8.1} preds/s  p50 {:6.2} ms  p99 {:6.2} ms  (sweeps {sweeps}, hits {}, misses {})",
        m.level, m.predictions_per_sec, m.p50_ms, m.p99_ms, cache.hits, cache.misses
    );
    ArmOutcome { m, outputs }
}

// ---------------------------------------------------- wire codec arm

/// Encodes and decodes the production predict frame — one Bits256 row
/// of the 784-feature serving geometry, the exact message the grid
/// above moves — under both wire formats, through the real frame path
/// ([`encode_frame_fmt`] / [`read_frame_sniff`]). Returns the per-arm
/// stats and the json-over-binary payload byte ratio.
fn measure_wire_codec() -> (Vec<WireCodecArm>, f64) {
    let config = serving_config(SecurityLevel::Bits256);
    let group = SchnorrGroup::precomputed(config.level);
    let authority = KeyAuthority::with_seed(group, config.permitted, config.authority_seed);
    let mut encryptor = cryptonn_core::Client::for_mlp(
        &authority,
        FEATURE_DIM,
        CLASSES,
        config.fp,
        config.client_seed_base,
    );
    let batch = encryptor
        .encrypt_features(&input(0, 0, 1))
        .expect("encrypt the codec probe");
    let msg = NetMsg::Msg(WireMessage::Predict(PredictRequest { id: 0, batch }));

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
            "wire codec Bits256 {:6}: {:6} bytes/msg  encode {:7.2} us  decode {:7.2} us",
            arm.format, arm.payload_bytes, arm.encode_us, arm.decode_us
        );
        arms.push(arm);
    }
    let reduction = arms[0].payload_bytes as f64 / arms[1].payload_bytes as f64;
    println!("wire codec Bits256: binary is {reduction:.2}x smaller on the predict frame");
    (arms, reduction)
}

// ----------------------------------------------------- open-loop arm

/// Feature width of the open-loop workload. Deliberately small: this
/// arm certifies the *transport* under heavy traffic (the closed-loop
/// grid above already measures the crypto), so the secure sweep is kept
/// cheap enough that connection handling is a visible fraction of the
/// request cost.
const OPEN_FEATURE_DIM: usize = 16;
const OPEN_HIDDEN: usize = 8;
const OPEN_CLASSES: usize = 4;

fn open_loop_config() -> SessionConfig {
    SessionConfig {
        level: SecurityLevel::Bits64,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        permitted: PermittedFunctions::all(),
        model: ModelSpec::Mlp(MlpSpec {
            feature_dim: OPEN_FEATURE_DIM,
            hidden: vec![OPEN_HIDDEN],
            classes: OPEN_CLASSES,
            objective: Objective::SoftmaxCrossEntropy,
        }),
        lr: 0.5,
        epochs: 1,
        batch_size: 8,
        clients: 1,
        authority_seed: 8001,
        model_seed: 8002,
        client_seed_base: 8003,
        policy: cryptonn_protocol::SessionPolicy::FailFast,
    }
}

fn open_frozen_model(config: &SessionConfig) -> CryptoMlp {
    let cc = CryptoNnConfig {
        level: config.level,
        fp: config.fp,
        grad_fp: config.grad_fp,
        parallelism: Parallelism::Serial,
    };
    let mut rng = StdRng::seed_from_u64(config.model_seed);
    CryptoMlp::new(
        OPEN_FEATURE_DIM,
        &[OPEN_HIDDEN],
        OPEN_CLASSES,
        Objective::SoftmaxCrossEntropy,
        cc,
        &mut rng,
    )
}

fn open_input(user: usize, req: usize) -> Matrix<f64> {
    Matrix::from_fn(1, OPEN_FEATURE_DIM, |_, c| {
        ((user * 131 + req * 17 + c) % 97) as f64 / 97.0
    })
}

/// One replay of the open-loop schedule against the fleet.
#[derive(Debug, Clone, Serialize)]
struct OpenLoopArm {
    /// Readiness backend of the fleet's reactor (`"epoll"`/`"poll"`).
    backend: String,
    completed: u64,
    wall_ms: f64,
    predictions_per_sec: f64,
    /// Latency is measured against the request's *scheduled* Poisson
    /// arrival, not its actual send time, so queueing delay from a
    /// daemon that falls behind is charged to the daemon
    /// (no coordinated omission).
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    max_ms: f64,
}

#[derive(Debug, Serialize)]
struct OpenLoop {
    level: String,
    feature_dim: usize,
    /// Concurrent simulated users (one live connection each, held for
    /// the whole run). CI-sized by default; `CRYPTONN_BENCH_FULL=1`
    /// runs the thousands-of-users scale.
    users: usize,
    arrivals: usize,
    /// Single-connection closed-loop service rate measured against the
    /// same fleet configuration — the calibration anchor.
    calibration_rps: f64,
    /// Offered Poisson arrival rate (requests/s), identical for every
    /// replay: the same seeded schedule each time.
    offered_rps: f64,
    /// The json-dialect replay (the wire arm's reference).
    fleet: OpenLoopArm,
}

/// The open-loop daemon: a two-shard fleet with the coalescing window
/// and key cache on.
fn start_open_loop_fleet(
    authority_addr: std::net::SocketAddr,
    session_id: SessionId,
    config: &SessionConfig,
) -> InferenceFleet {
    InferenceFleet::start(
        "127.0.0.1:0",
        session_id,
        config,
        open_frozen_model(config),
        Arc::new(RemoteAuthority::new(authority_addr)),
        FleetOptions {
            shards: 2,
            session: InferenceOptions {
                max_batch: COALESCE,
                key_cache: 1024,
            },
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet binds")
}

/// Replays the seeded Poisson schedule against a fresh fleet: `users`
/// connections held live for the whole run, each sending its
/// pre-encrypted requests at their scheduled arrivals and recording
/// completion against the schedule. `wire_of` picks each user's wire
/// format — the daemon mirrors every connection individually, so a
/// mixed population is just a non-constant function here.
fn run_open_loop_arm(
    dialect: &str,
    authority_addr: std::net::SocketAddr,
    session_id: SessionId,
    config: &SessionConfig,
    schedule: &[Vec<f64>],
    wire_of: fn(usize) -> WireFormat,
) -> (OpenLoopArm, Vec<Vec<Matrix<f64>>>) {
    let users = schedule.len();
    let fleet = start_open_loop_fleet(authority_addr, session_id, config);
    let addr = fleet.local_addr();

    // Two barriers: everyone connected and pre-encrypted at the first,
    // the shared clock origin published between them, released at the
    // second — so every thread measures against the same instant.
    let ready = Arc::new(std::sync::Barrier::new(users + 1));
    let go = Arc::new(std::sync::Barrier::new(users + 1));
    let start_cell: Arc<std::sync::OnceLock<Instant>> = Arc::new(std::sync::OnceLock::new());

    let mut handles = Vec::with_capacity(users);
    for (u, arrivals) in schedule.iter().enumerate() {
        let config = config.clone();
        let arrivals = arrivals.clone();
        let ready = Arc::clone(&ready);
        let go = Arc::clone(&go);
        let start_cell = Arc::clone(&start_cell);
        handles.push(std::thread::spawn(move || {
            let mut client = InferenceClient::connect_with_wire(
                addr,
                session_id,
                ClientId(u as u32),
                &config,
                40_000 + u as u64,
                DEFAULT_MAX_FRAME,
                wire_of(u),
            )
            .expect("open-loop client connects");
            let encrypted: Vec<EncryptedBatch> = (0..arrivals.len())
                .map(|r| {
                    client
                        .encryptor_mut()
                        .encrypt_features(&open_input(u, r))
                        .expect("encrypt")
                })
                .collect();
            ready.wait();
            go.wait();
            let start = *start_cell.get().expect("clock origin published");
            let mut latencies = Vec::with_capacity(arrivals.len());
            let mut outputs = Vec::with_capacity(arrivals.len());
            let mut last_done = 0.0f64;
            for (enc, &at) in encrypted.into_iter().zip(&arrivals) {
                let target = start + std::time::Duration::from_secs_f64(at);
                let now = Instant::now();
                if now < target {
                    std::thread::sleep(target - now);
                }
                let id = client.send_encrypted(enc).expect("send");
                let p = client.recv_prediction().expect("prediction");
                assert_eq!(p.id, id);
                let done = start.elapsed().as_secs_f64();
                latencies.push((done - at) * 1e3);
                outputs.push(p.outputs);
                last_done = done;
            }
            (latencies, outputs, last_done)
        }));
    }
    ready.wait();
    start_cell.set(Instant::now()).expect("single origin");
    go.wait();

    let mut latencies = Vec::new();
    let mut outputs = Vec::new();
    let mut wall = 0.0f64;
    for h in handles {
        let (l, o, last) = h.join().expect("open-loop user thread");
        latencies.extend(l);
        outputs.push(o);
        wall = wall.max(last);
    }
    let backend = fleet.backend().to_string();
    fleet.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let completed = latencies.len() as u64;
    let arm = OpenLoopArm {
        backend,
        completed,
        wall_ms: wall * 1e3,
        predictions_per_sec: completed as f64 / wall,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        p999_ms: percentile(&latencies, 0.999),
        max_ms: latencies.last().copied().unwrap_or(0.0),
    };
    println!(
        "open-loop {dialect:10} ({:5}): {:8.1} preds/s  p50 {:7.2} ms  p99 {:7.2} ms  p999 {:7.2} ms",
        arm.backend, arm.predictions_per_sec, arm.p50_ms, arm.p99_ms, arm.p999_ms
    );
    (arm, outputs)
}

/// The open-loop arm: a seeded Poisson arrival schedule over many live
/// connections, replayed against the fleet under the json client
/// dialect — then twice more under the binary and mixed dialects (the
/// wire arm). Every replay must serve bit-identical predictions.
fn run_open_loop(authority_addr: std::net::SocketAddr) -> (OpenLoop, Vec<WireServeArm>, f64) {
    let config = open_loop_config();
    let (users, arrivals_n) = if cryptonn_bench::full_scale() {
        (2048usize, 8192usize)
    } else {
        (384usize, 1152usize)
    };

    // Calibrate: the single-connection closed-loop rate fixes the
    // offered load scale.
    let cal = start_open_loop_fleet(authority_addr, SessionId(6000), &config);
    let mut client = InferenceClient::connect_with_wire(
        cal.local_addr(),
        SessionId(6000),
        ClientId(0),
        &config,
        39_999,
        DEFAULT_MAX_FRAME,
        WireFormat::Json,
    )
    .expect("calibration client connects");
    let x = open_input(0, 0);
    let warmup = 8;
    let measured = 48;
    for _ in 0..warmup {
        client.predict(&x).expect("calibration warmup");
    }
    let t0 = Instant::now();
    for _ in 0..measured {
        client.predict(&x).expect("calibration request");
    }
    let calibration_rps = measured as f64 / t0.elapsed().as_secs_f64();
    drop(client);
    cal.shutdown();

    // Offered load above the single-connection rate: coalescing and
    // sharding are exactly what the fleet adds, so the schedule demands
    // them. Same seed => every arm replays the identical arrival
    // sequence.
    let offered_rps = calibration_rps * 1.5;
    let mut rng = StdRng::seed_from_u64(0x9e37_79b9);
    let mut t = 0.0f64;
    let mut schedule: Vec<Vec<f64>> = vec![Vec::new(); users];
    for k in 0..arrivals_n {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / offered_rps;
        schedule[k % users].push(t);
    }
    println!(
        "open-loop: {users} users, {arrivals_n} arrivals at {offered_rps:.1} req/s \
         (calibrated single-conn {calibration_rps:.1} req/s)"
    );

    let (fleet_arm, fleet_out) = run_open_loop_arm(
        "json",
        authority_addr,
        SessionId(6002),
        &config,
        &schedule,
        |_| WireFormat::Json,
    );

    // The wire arm: the same schedule against the same fleet, with the
    // clients speaking binary, then a mixed half-and-half population on
    // one daemon. The json serve numbers are the fleet arm itself.
    let (binary_arm, binary_out) = run_open_loop_arm(
        "binary",
        authority_addr,
        SessionId(6003),
        &config,
        &schedule,
        |_| WireFormat::Binary,
    );
    assert_eq!(
        binary_out, fleet_out,
        "binary-dialect clients must be served bit-identical predictions"
    );
    let (mixed_arm, mixed_out) = run_open_loop_arm(
        "mixed",
        authority_addr,
        SessionId(6004),
        &config,
        &schedule,
        |u| {
            if u % 2 == 0 {
                WireFormat::Binary
            } else {
                WireFormat::Json
            }
        },
    );
    assert_eq!(
        mixed_out, fleet_out,
        "a mixed-dialect population must be served bit-identical predictions"
    );
    let serve_arm = |dialect: &str, arm: &OpenLoopArm| WireServeArm {
        dialect: dialect.into(),
        completed: arm.completed,
        predictions_per_sec: arm.predictions_per_sec,
        p50_ms: arm.p50_ms,
        p99_ms: arm.p99_ms,
    };
    let serve = vec![
        serve_arm("json", &fleet_arm),
        serve_arm("binary", &binary_arm),
        serve_arm("mixed", &mixed_arm),
    ];
    let binary_over_json = binary_arm.predictions_per_sec / fleet_arm.predictions_per_sec;
    println!("open-loop: binary dialect at {binary_over_json:.2}x the json fleet arm");

    let open_loop = OpenLoop {
        level: format!("{:?}", config.level),
        feature_dim: OPEN_FEATURE_DIM,
        users,
        arrivals: arrivals_n,
        calibration_rps,
        offered_rps,
        fleet: fleet_arm,
    };
    (open_loop, serve, binary_over_json)
}

fn main() {
    let mut out_path = "BENCH_predict_serve.json".to_string();
    let mut check_speedup: Option<f64> = None;
    let mut check_warm_speedup: Option<f64> = None;
    let mut check_wire = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next().expect("--out requires a path"),
            "--check-speedup" => {
                check_speedup = Some(
                    args.next()
                        .expect("--check-speedup requires a number")
                        .parse()
                        .expect("--check-speedup requires a number"),
                )
            }
            "--check-warm-speedup" => {
                check_warm_speedup = Some(
                    args.next()
                        .expect("--check-warm-speedup requires a number")
                        .parse()
                        .expect("--check-warm-speedup requires a number"),
                )
            }
            "--check-wire" => check_wire = true,
            other => panic!("unknown argument {other}"),
        }
    }

    let requests_per_client = if cryptonn_bench::full_scale() { 32 } else { 10 };
    let levels: &[SecurityLevel] = &[SecurityLevel::Bits64, SecurityLevel::Bits256];
    let grid: &[(usize, usize)] = if cryptonn_bench::full_scale() {
        &[(1, 1), (2, 1), (4, 1), (2, 4)]
    } else {
        &[(1, 1), (4, 1), (2, 4)]
    };

    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");

    let mut measurements = Vec::new();
    let mut speedups = Vec::new();
    let mut headline = 0.0f64;
    let mut next_session = 0u64;

    for &level in levels {
        for &(clients, batch) in grid {
            let off = run_arm(
                level,
                authority.local_addr(),
                SessionId(5000 + next_session),
                clients,
                batch,
                requests_per_client,
                "cache_off",
                InferenceOptions {
                    max_batch: 1,
                    key_cache: 0,
                },
            );
            let on = run_arm(
                level,
                authority.local_addr(),
                SessionId(5000 + next_session + 1),
                clients,
                batch,
                requests_per_client,
                "cache_on",
                InferenceOptions {
                    max_batch: COALESCE,
                    key_cache: 1024,
                },
            );
            next_session += 2;

            assert_eq!(
                off.outputs, on.outputs,
                "cache arms must serve bit-identical predictions \
                 ({level:?}, C={clients}, m={batch})"
            );
            assert!(
                on.m.cache_hits > 0,
                "the cache-on arm must actually hit its cache"
            );

            let speedup = on.m.predictions_per_sec / off.m.predictions_per_sec;
            println!("{level:?} C={clients} m={batch}: cache-on speedup {speedup:.2}x");
            if level == SecurityLevel::Bits256 && clients == 1 && batch == 1 {
                headline = speedup;
            }
            speedups.push(Speedup {
                level: format!("{level:?}"),
                clients,
                batch,
                speedup,
            });
            measurements.push(off.m);
            measurements.push(on.m);
        }
    }
    authority.shutdown();

    let warm_start = measure_warm_start(SecurityLevel::Bits256Fast);
    println!(
        "table cache {} bound {}: cold {:.2} ms, warm {:.2} ms ({:.1}x)",
        warm_start.level,
        warm_start.dlog_bound,
        warm_start.cold_ms,
        warm_start.warm_ms,
        warm_start.warm_speedup
    );

    let (codec, byte_reduction_bits256) = measure_wire_codec();

    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds for the open-loop arm");
    let (open_loop, serve, binary_over_json) = run_open_loop(authority.local_addr());
    authority.shutdown();

    let wire = WireBench {
        codec_level: format!("{:?}", SecurityLevel::Bits256),
        codec,
        byte_reduction_bits256,
        serve,
        binary_over_json,
    };

    let report = Report {
        schema: "cryptonn.bench.predict_serve/v5".into(),
        generated_by: "cargo run --release -p cryptonn-bench --bin predict_serve".into(),
        host: cryptonn_bench::host_info(),
        feature_dim: FEATURE_DIM,
        hidden: HIDDEN,
        classes: CLASSES,
        coalesce_window: COALESCE,
        requests_per_client,
        measurements,
        speedups,
        headline_speedup_bits256: headline,
        warm_start,
        open_loop,
        wire,
    };
    let json = serde_json::to_string(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write telemetry JSON");
    println!("wrote {out_path} (headline Bits256 speedup {headline:.2}x)");

    if let Some(min) = check_speedup {
        assert!(
            headline >= min,
            "Bits256 cache-on speedup {headline:.2}x below the {min:.2}x gate"
        );
    }
    if let Some(min) = check_warm_speedup {
        assert!(
            report.warm_start.warm_speedup >= min,
            "warm table-cache start {:.2}x below the {min:.2}x gate",
            report.warm_start.warm_speedup
        );
    }
    if check_wire {
        assert!(
            report.wire.binary_over_json >= 1.15 || report.wire.byte_reduction_bits256 >= 1.8,
            "wire gate: binary at {:.2}x json open-loop preds/s and {:.2}x Bits256 byte \
             reduction — need ≥ 1.15x throughput or ≥ 1.8x bytes",
            report.wire.binary_over_json,
            report.wire.byte_reduction_bits256
        );
    }
}
