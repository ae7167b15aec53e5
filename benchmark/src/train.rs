//! `train_net` — Algorithm 2 over the real topology (authority daemon,
//! session server, two data-owner clients on loopback) — and
//! `train_cnn` — the in-process CryptoCNN with secure convolution.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cryptonn_core::secure_steps::{
    derive_unit_keys, secure_conv_forward, secure_conv_weight_grad, secure_cross_entropy_loss,
    secure_dense_forward, secure_dense_weight_grad, secure_output_delta,
};
use cryptonn_core::{Client, CryptoCnn, CryptoNnConfig, DlogTableCache};
use cryptonn_data::Dataset;
use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::{DlogTable, SchnorrGroup};
use cryptonn_matrix::{im2col, Matrix, Tensor4};
use cryptonn_net::{
    run_client, AuthorityOptions, AuthorityServer, FrameRx, FrameTx, NetError, NetMsg,
    RemoteAuthority, ServerOptions, SessionOutcomeKind, SessionServer, TcpTransport, Transport,
    WireFormat, DEFAULT_MAX_FRAME,
};
use cryptonn_nn::metrics::one_hot;
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    round_robin_shards, AuthoritySession, ClientId, ClientSession, EncryptedBatchMsg,
    SessionConfig, SessionId, SessionSummary, TrainingSessionRunner, WireMessage,
};
use cryptonn_smc::{derive_filter_keys, encrypt_windows_with, secure_convolution, FixedPoint};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::Value;

use crate::config::*;
use crate::gen::{self, Stream};
use crate::host::{self, FreshDir};
use crate::levels::{first_layer_delta, DotOperands, ElemOperands, GradOperands};
use crate::report::{end_to_end, Args, Metric, Outcome};
use crate::serve::{decode, frame, local_authority, new_model, session_config, write_trace};
use crate::stats::{floats, median, num, obj, Summary};
use crate::trace::{SpanId, Tracer};

fn steps_for(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).floor() as usize).max(2)
}

// ------------------------------------------------------------------ train_net

/// `steps` batches of seeded features and labels at the paper geometry.
fn dataset(seed: u64, steps: usize) -> Dataset {
    let n = steps * TRAIN_BATCH;
    let images = gen::features(
        n,
        PAPER_MLP.feature_dim,
        &mut gen::rng(seed, Stream::Features),
    );
    let labels = gen::labels(n, PAPER_MLP.classes, &mut gen::rng(seed, Stream::Labels));
    Dataset::new(images, labels, PAPER_MLP.classes)
}

/// A transport that notes when each `ModelDelta` — the end of a
/// training step, as a data owner sees it — arrives.
struct StampedTransport {
    inner: TcpTransport,
    origin: Instant,
    stamps: Arc<Mutex<Vec<f64>>>,
}

impl FrameTx for StampedTransport {
    fn send(&mut self, msg: &NetMsg) -> Result<(), NetError> {
        self.inner.send(msg)
    }
    fn close(&mut self) {
        self.inner.close();
    }
}

impl FrameRx for StampedTransport {
    fn recv(&mut self) -> Result<Option<NetMsg>, NetError> {
        let msg = self.inner.recv()?;
        if matches!(msg, Some(NetMsg::Msg(WireMessage::Delta(_)))) {
            let mut stamps = self
                .stamps
                .lock()
                .expect("no holder of the stamp lock panics");
            stamps.push(self.origin.elapsed().as_secs_f64());
        }
        Ok(msg)
    }
}

impl Transport for StampedTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        Box::new(self.inner).split()
    }
}

struct NetSystem {
    authority: AuthorityServer,
    server: SessionServer,
    _tables: FreshDir,
}

fn start_net() -> NetSystem {
    let tables = FreshDir::new("tables");
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");
    let server = SessionServer::start(
        "127.0.0.1:0",
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        ServerOptions {
            table_cache: Some(tables.0.clone()),
            ..ServerOptions::default()
        },
    )
    .expect("session server binds");
    NetSystem {
        authority,
        server,
        _tables: tables,
    }
}

struct SessionRun {
    /// One summary per client that finished.
    summaries: Vec<SessionSummary>,
    /// When client 0 saw each step end, in seconds from the first `Hello`.
    step_done_s: Vec<f64>,
    wall_s: f64,
    completed: bool,
}

impl SessionRun {
    /// Steps of this session that did not train: all of them unless the
    /// session completed and every client got the one summary; else the
    /// steps whose loss is not finite.
    fn failed_steps(&self, steps: usize) -> u64 {
        let agreed = self.summaries.len() == TRAIN_NET_CLIENTS
            && self.summaries.windows(2).all(|w| w[0] == w[1])
            && self.summaries[0].steps == steps as u64;
        if !self.completed || !agreed {
            return steps as u64;
        }
        self.summaries[0]
            .losses
            .iter()
            .filter(|l| !l.is_finite())
            .count() as u64
    }
}

/// One training session: the clients connect, register, encrypt and
/// stream their shards; the clock runs from the first `Hello` until
/// every client holds the summary.
fn run_session(
    system: &NetSystem,
    session: SessionId,
    config: &SessionConfig,
    data: &Dataset,
) -> SessionRun {
    let addr = system.server.local_addr();
    let shards = round_robin_shards(data, TRAIN_BATCH, TRAIN_NET_CLIENTS);
    let stamps = Arc::new(Mutex::new(Vec::new()));
    let origin = Instant::now();
    let results: Vec<Result<SessionSummary, NetError>> = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .enumerate()
            .map(|(c, shard)| {
                let stamps = if c == 0 {
                    Arc::clone(&stamps)
                } else {
                    Arc::default()
                };
                s.spawn(move || {
                    let sm = ClientSession::new(
                        ClientId(c as u32),
                        config.client_seed_base + c as u64,
                        Parallelism::Serial,
                        shard,
                    );
                    let inner = TcpTransport::connect(addr, DEFAULT_MAX_FRAME)?;
                    inner.set_wire_format(WireFormat::Binary);
                    let transport = StampedTransport {
                        inner,
                        origin,
                        stamps,
                    };
                    run_client(transport, session, sm, config)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = origin.elapsed().as_secs_f64();
    // The server files the outcome right after broadcasting the summary.
    let give_up = Instant::now() + Duration::from_secs(2);
    let completed = loop {
        let filed = system
            .server
            .finished_sessions()
            .into_iter()
            .find(|(id, _)| *id == session);
        match filed {
            Some((_, kind)) => break kind == SessionOutcomeKind::Completed,
            None if Instant::now() > give_up => break false,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let step_done_s = stamps.lock().expect("clients have exited").clone();
    SessionRun {
        summaries: results.into_iter().filter_map(Result::ok).collect(),
        step_done_s,
        wall_s,
        completed,
    }
}

fn net_config(seed: u64) -> SessionConfig {
    session_config(PAPER_MLP, seed, TRAIN_NET_CLIENTS as u32)
}

/// The set-up of `train_net`: both daemons cold, then the short check
/// session, which is also what warms keys, tables and client combs.
fn net_setup(seed: u64) -> (NetSystem, SessionRun, f64) {
    let config = net_config(seed);
    let data = dataset(seed, TRAIN_NET_CHECK_STEPS);
    let t0 = Instant::now();
    let system = start_net();
    let check = run_session(&system, SessionId(1), &config, &data);
    (system, check, t0.elapsed().as_secs_f64())
}

pub fn net_setup_probe(seed: u64) -> f64 {
    let (system, check, seconds) = net_setup(seed);
    assert_eq!(
        check.failed_steps(TRAIN_NET_CHECK_STEPS),
        0,
        "the probe's check session failed"
    );
    system.server.shutdown();
    system.authority.shutdown();
    seconds
}

pub fn run_train_net(args: &Args) -> Outcome {
    let config = net_config(args.seed);
    let steps = steps_for(args.seconds, TRAIN_NET_STEPS_PER_SECOND);
    // Another seed stream than the check session's data.
    let data = dataset(args.seed.wrapping_add(1), steps);
    let mut setup_samples = if args.quick || args.trace {
        Vec::new()
    } else {
        host::setup_probes(&args.workload, args.seed, TRAIN_NET_SETUP_PROBES)
    };
    let (system, mut check, own_setup) = net_setup(args.seed);
    setup_samples.push(own_setup);
    let setup_rss = host::peak_rss_mb();

    if args.trace {
        let (mut metrics, spans, runner_step_s) = trace_train_net(args, &config, &system);
        metrics.extend(crate::layers::idle_counters());
        metrics.extend(crate::layers::probe_all(args, Some(runner_step_s)));
        system.server.shutdown();
        system.authority.shutdown();
        return Outcome {
            attempted: spans,
            failed: check.failed_steps(TRAIN_NET_CHECK_STEPS),
            metrics,
            detail: obj(vec![]),
        };
    }

    let run = run_session(&system, SessionId(2), &config, &data);
    system.server.shutdown();
    system.authority.shutdown();

    // The check session's weights must equal the in-process runner's on
    // the same config and data, bit for bit.
    let reference = TrainingSessionRunner::new(config.clone())
        .run_mlp(&dataset(args.seed, TRAIN_NET_CHECK_STEPS))
        .expect("in-process reference session")
        .summary;
    if args.inject_wrong_answer {
        if let Some(s) = check.summaries.first_mut() {
            s.final_w1[(0, 0)] += 1.0;
        }
    }
    let check_failed =
        if check.failed_steps(TRAIN_NET_CHECK_STEPS) == 0 && check.summaries[0] == reference {
            0
        } else {
            TRAIN_NET_CHECK_STEPS as u64
        };

    let failed = run.failed_steps(steps);
    let samples_per_s = (steps as u64 - failed) as f64 * TRAIN_BATCH as f64 / run.wall_s;
    let mut step_ms = Vec::with_capacity(run.step_done_s.len());
    let mut prev = 0.0;
    for &done in &run.step_done_s {
        step_ms.push((done - prev) * 1e3);
        prev = done;
    }
    // No delta seen means the session failed; the wall time stands in.
    let latency = Summary::of(&step_ms);
    let latency_p50_ms = latency.map_or(run.wall_s * 1e3, |s| s.p50);
    Outcome {
        attempted: (steps + TRAIN_NET_CHECK_STEPS) as u64,
        failed: failed + check_failed,
        metrics: end_to_end(
            samples_per_s,
            latency_p50_ms,
            setup_rss,
            median(&setup_samples),
        ),
        detail: obj(vec![
            ("train_samples_per_s", Value::F64(samples_per_s)),
            ("step_ms", latency.map_or(Value::Null, Summary::to_value)),
            ("step_ms_each", floats(&step_ms)),
            ("steps", Value::U64(steps as u64)),
            ("batch", Value::U64(TRAIN_BATCH as u64)),
            ("clients", Value::U64(TRAIN_NET_CLIENTS as u64)),
            ("session_wall_s", Value::F64(run.wall_s)),
            ("session_completed", Value::Bool(run.completed)),
            (
                "check_session_matches_runner",
                Value::Bool(check_failed == 0),
            ),
            (
                "final_loss",
                num(run
                    .summaries
                    .first()
                    .and_then(|s| s.losses.last().copied())
                    .unwrap_or(f64::NAN)),
            ),
            ("setup_samples_s", floats(&setup_samples)),
            ("peak_rss_mb", Value::F64(host::peak_rss_mb())),
        ]),
    }
}

/// A plausible back-propagated delta: small, signed, `rows × cols`.
fn small_delta(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(-0.02..0.02))
}

/// The delta at the gradient resolution, as the secure gradient steps
/// quantize it: normalised by its largest entry.
fn quantize_delta(delta: &Matrix<f64>, grad_fp: FixedPoint) -> Matrix<i64> {
    let max = delta.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let factor = f64::from(grad_fp.scale()) / max;
    delta.map(|v| (v * factor).round() as i64)
}

/// The spans under one `secure_output_delta` and one secure gradient,
/// shared by both training traces.
#[allow(clippy::too_many_arguments)]
fn trace_label_and_grad_levels(
    t: &mut Tracer,
    op: u32,
    authority: &KeyAuthority,
    fp: FixedPoint,
    y: &Matrix<f64>,
    p: &Matrix<f64>,
    delta_span: SpanId,
    xq: &Matrix<i64>,
    dq: &Matrix<i64>,
    grad_span: SpanId,
    par: Parallelism,
    rng: &mut StdRng,
) {
    let elem = ElemOperands::new(
        authority,
        &fp.encode_matrix(&y.transpose()),
        &fp.encode_matrix(&p.transpose()),
        rng,
    );
    let (_, smc) = t.span("smc.secure_elementwise", "smc", delta_span, op, || {
        elem.smc_secure_elementwise(par)
    });
    t.span("fe.febo_decrypt", "fe", smc, op, || elem.fe_febo_decrypt());

    let grad = GradOperands::new(authority, xq, dq, rng);
    let (combined, _) = t.span("fe.combine", "fe", grad_span, op, || grad.fe_combine());
    let (_, read) = t.span("fe.decrypt_coordinates", "fe", grad_span, op, || {
        grad.fe_decrypt_coordinates(&combined)
    });
    t.span("group.dlog_solve", "group", read, op, || {
        grad.group_dlog_solve()
    });
}

fn trace_train_net(
    args: &Args,
    config: &SessionConfig,
    system: &NetSystem,
) -> (Vec<Metric>, u64, f64) {
    let ops = TRACE_TRAIN_OPS;
    // A few steps more than traced, so that session start-up (handshakes,
    // each client's first encryption) stays out of the ops.
    const STARTUP: usize = 3;
    let data = dataset(args.seed.wrapping_add(2), ops + STARTUP);
    let batches = data.batches(TRAIN_BATCH);
    let (fp, par) = (config.fp, Parallelism::Serial);
    let mut t = Tracer::new(true);

    // Top level: the steps of a real session over the sockets. The
    // server hands out the deltas of steps it trained back to back
    // together, so intervals between deltas are not step times; the
    // session's wall time cut evenly is, start-up included (a few
    // percent at this length).
    let s0 = t.now_ns();
    let run = run_session(system, SessionId(3), config, &data);
    assert_eq!(
        run.failed_steps(ops + STARTUP),
        0,
        "the traced session failed"
    );
    let step_ns = (run.wall_s / (ops + STARTUP) as f64 * 1e9) as u64;
    let tops: Vec<SpanId> = (0..ops as u64)
        .map(|op| {
            t.push(
                "net.session_step",
                "net",
                None,
                op as u32,
                s0 + op * step_ns,
                s0 + (op + 1) * step_ns,
            )
        })
        .collect();
    // The same steps through the in-process runner: no sockets, no
    // authority RPC, but client encryption and the protocol machines.
    let r0 = t.now_ns();
    let runner_step_s = crate::layers::runner_step_seconds(args.seed.wrapping_add(2), ops);
    let per_step = (runner_step_s * 1e9) as u64;

    let authority = local_authority(config);
    let params = AuthoritySession::new(config).public_params_for(config);
    let mut client = Client::from_keys(
        params.x_mpk,
        params.y_mpk,
        params.febo_mpk,
        fp,
        config.client_seed_base,
    );
    let mut model = new_model(config, PAPER_MLP, par);
    let mut cache = DlogTableCache::new(SchnorrGroup::precomputed(config.level));
    let unit_keys = derive_unit_keys(&authority, PAPER_MLP.feature_dim).expect("unit keys");
    let mut rng = gen::rng(args.seed, Stream::Clients);

    let untrained = new_model(config, PAPER_MLP, par);
    for (i, (x, y)) in batches.iter().skip(STARTUP).enumerate() {
        let op = i as u32;
        let top = tops[i];
        let runner = t.push(
            "protocol.runner_step",
            "protocol",
            top,
            op,
            r0 + i as u64 * per_step,
            r0 + (i as u64 + 1) * per_step,
        );
        let (enc, _) = t.span("core.encrypt_batch", "core", runner, op, || {
            client.encrypt_batch(x, y).expect("encrypt")
        });
        let msg = NetMsg::Msg(WireMessage::Batch(EncryptedBatchMsg {
            client: ClientId(0),
            step: op.into(),
            gen: 0,
            batch: enc.clone(),
        }));
        let (bytes, _) = t.span("wire.encode_batch", "wire", top, op, || {
            frame(&msg, WireFormat::Binary)
        });
        t.span("wire.decode_batch", "wire", top, op, || decode(&bytes));

        let (out, step) = t.span("core.train_step", "core", runner, op, || {
            model
                .train_encrypted_batch(&authority, &enc, config.lr)
                .expect("traced step")
        });
        let labels = enc.labels().expect("training batches carry labels");
        let (_, forward) = t.span("core.forward", "core", step, op, || {
            secure_dense_forward(&authority, &mut cache, &enc, model.first_layer(), fp, par)
                .expect("forward")
        });
        let (_, delta_span) = t.span("core.output_delta", "core", step, op, || {
            secure_output_delta(&authority, &mut cache, labels, &out.predictions, fp, par)
                .expect("delta")
        });
        t.span("core.loss", "core", step, op, || {
            secure_cross_entropy_loss(&authority, &mut cache, labels, &out.predictions, fp, par)
                .expect("loss")
        });
        let delta = first_layer_delta(
            config.model_seed,
            (PAPER_MLP.feature_dim, PAPER_MLP.hidden, PAPER_MLP.classes),
            untrained.first_layer().weights(),
            x,
            y,
        );
        let (_, grad_span) = t.span("core.weight_grad", "core", step, op, || {
            secure_dense_weight_grad(
                &authority,
                &mut cache,
                &enc,
                &delta,
                &unit_keys,
                fp,
                config.grad_fp,
                par,
            )
            .expect("weight gradient")
        });

        let xq = fp.encode_matrix(&x.transpose());
        let wq = fp.encode_matrix(&model.first_layer().weights().transpose());
        let dot = DotOperands::new(&authority, &xq, &wq, &mut rng);
        let (_, smc) = t.span("smc.secure_dot", "smc", forward, op, || {
            dot.smc_secure_dot(par)
        });
        let (_, fe) = t.span("fe.decrypt_cells", "fe", smc, op, || {
            dot.fe_decrypt_cells(par)
        });
        t.span("group.multi_scalar", "group", fe, op, || {
            dot.group_multi_scalar()
        });
        t.span("group.dlog_solve", "group", fe, op, || {
            dot.group_dlog_solve()
        });
        let dq = quantize_delta(&delta, config.grad_fp);
        trace_label_and_grad_levels(
            &mut t,
            op,
            &authority,
            fp,
            y,
            &out.predictions,
            delta_span,
            &xq,
            &dq,
            grad_span,
            par,
            &mut rng,
        );
    }

    // What recording costs, on the in-process step.
    let (x, y) = &batches[0];
    let enc = client.encrypt_batch(x, y).expect("encrypt");
    let mut walls = [0.0f64; 2];
    for (w, enabled) in walls.iter_mut().zip([false, true]) {
        let mut probe = Tracer::new(enabled);
        let t0 = Instant::now();
        probe.span("core.train_step", "core", None, 0, || {
            model
                .train_encrypted_batch(&authority, &enc, config.lr)
                .expect("overhead step")
        });
        *w = t0.elapsed().as_secs_f64();
    }
    let metrics = crate::layers::trace_metrics(&t, walls[1] / walls[0], "net.session_step");
    write_trace(&args.workload, &t);
    (metrics, t.spans.len() as u64, runner_step_s)
}

// ------------------------------------------------------------------ train_cnn

fn cnn_config() -> CryptoNnConfig {
    CryptoNnConfig {
        level: PAPER_MLP.level,
        fp: FixedPoint::TWO_DECIMALS,
        grad_fp: FixedPoint::new(10_000),
        parallelism: Parallelism::available(),
    }
}

struct CnnSystem {
    authority: KeyAuthority,
    model: CryptoCnn,
    client: Client,
    _tables: FreshDir,
}

fn cnn_batches(seed: u64, steps: usize) -> Vec<(Tensor4, Matrix<f64>)> {
    let mut features = gen::rng(seed, Stream::Features);
    let mut labels = gen::rng(seed, Stream::Labels);
    (0..steps)
        .map(|_| {
            let images = gen::images(TRAIN_BATCH, CNN_SIDE, &mut features);
            let y = one_hot(
                &gen::labels(TRAIN_BATCH, CNN_CLASSES, &mut labels),
                CNN_CLASSES,
            );
            (images, y)
        })
        .collect()
}

fn new_cnn() -> CryptoCnn {
    CryptoCnn::lenet_small(
        cnn_config(),
        CNN_CLASSES,
        &mut StdRng::seed_from_u64(MODEL_SEED),
    )
}

/// The set-up of `train_cnn`: authority, model, client, and one
/// untimed step on a throwaway twin, which builds the lazy tables into
/// the fresh cache directory the timed model then reloads from.
fn cnn_setup(seed: u64) -> (CnnSystem, f64) {
    let warm = cnn_batches(seed.wrapping_add(99), 1);
    let t0 = Instant::now();
    let cc = cnn_config();
    let tables = FreshDir::new("tables");
    let group = SchnorrGroup::precomputed_cached(cc.level, &tables.0);
    let authority = KeyAuthority::with_seed(group, PermittedFunctions::all(), AUTHORITY_SEED);
    let mut model = new_cnn();
    model.attach_table_cache(tables.0.clone());
    let spec = model.conv_spec();
    let mut client = Client::for_cnn(
        &authority,
        &spec,
        1,
        CNN_CLASSES,
        cc.fp,
        gen::sub_seed(seed, Stream::Clients),
    )
    .with_parallelism(cc.parallelism);
    let mut throwaway = new_cnn();
    throwaway.attach_table_cache(tables.0.clone());
    let (images, y) = &warm[0];
    let batch = client
        .encrypt_image_batch(images, y, &spec)
        .expect("encrypt the warm-up batch");
    throwaway
        .train_encrypted_batch(&authority, &batch, CNN_LR)
        .expect("warm-up step");
    let system = CnnSystem {
        authority,
        model,
        client,
        _tables: tables,
    };
    (system, t0.elapsed().as_secs_f64())
}

pub fn cnn_setup_probe(seed: u64) -> f64 {
    cnn_setup(seed).1
}

pub fn run_train_cnn(args: &Args) -> Outcome {
    let steps = steps_for(args.seconds, CNN_STEPS_PER_SECOND);
    let batches = cnn_batches(args.seed, steps);
    let mut setup_samples = if args.quick || args.trace {
        Vec::new()
    } else {
        host::setup_probes(&args.workload, args.seed, CNN_SETUP_PROBES)
    };
    let (mut system, own_setup) = cnn_setup(args.seed);
    setup_samples.push(own_setup);
    let setup_rss = host::peak_rss_mb();

    if args.trace {
        let (mut metrics, spans) = trace_train_cnn(args, &mut system);
        metrics.extend(crate::layers::idle_counters());
        metrics.extend(crate::layers::probe_all(args, None));
        return Outcome {
            attempted: spans,
            failed: 0,
            metrics,
            detail: obj(vec![]),
        };
    }

    let spec = system.model.conv_spec();
    let mut step_ms = Vec::with_capacity(steps);
    let mut losses = Vec::with_capacity(steps);
    let t0 = Instant::now();
    for (images, y) in &batches {
        let s0 = Instant::now();
        let batch = system
            .client
            .encrypt_image_batch(images, y, &spec)
            .expect("encrypt an image batch");
        let out = system
            .model
            .train_encrypted_batch(&system.authority, &batch, CNN_LR);
        step_ms.push(s0.elapsed().as_secs_f64() * 1e3);
        losses.push(out.map_or(f64::NAN, |o| o.loss));
    }
    let wall = t0.elapsed().as_secs_f64();

    // Off the clock: the identically-seeded plaintext twin takes the same
    // steps; the encrypted loss must track it at every one.
    if args.inject_wrong_answer {
        losses[0] += 1.0;
    }
    let mut twin = new_cnn();
    let mut worst_gap = 0.0f64;
    let mut failed = 0u64;
    for ((images, y), &loss) in batches.iter().zip(&losses) {
        let gap = (loss - twin.train_plain_batch(&images.flatten(), y, CNN_LR).loss).abs();
        // A step that failed has a NaN loss, and so a NaN gap.
        if gap.is_nan() || gap > CNN_LOSS_TOLERANCE {
            failed += 1;
        } else {
            worst_gap = worst_gap.max(gap);
        }
    }

    let samples_per_s = (steps as u64 - failed) as f64 * TRAIN_BATCH as f64 / wall;
    let latency = Summary::of(&step_ms).expect("at least two steps ran");
    Outcome {
        attempted: steps as u64,
        failed,
        metrics: end_to_end(
            samples_per_s,
            latency.p50,
            setup_rss,
            median(&setup_samples),
        ),
        detail: obj(vec![
            ("train_samples_per_s", Value::F64(samples_per_s)),
            ("step_ms", latency.to_value()),
            ("steps", Value::U64(steps as u64)),
            ("batch", Value::U64(TRAIN_BATCH as u64)),
            (
                "threads",
                Value::U64(cnn_config().parallelism.thread_count() as u64),
            ),
            ("timed_wall_s", Value::F64(wall)),
            ("worst_loss_gap_to_plain_twin", Value::F64(worst_gap)),
            ("loss_tolerance", Value::F64(CNN_LOSS_TOLERANCE)),
            ("first_loss", num(losses[0])),
            ("last_loss", num(losses[steps - 1])),
            ("setup_samples_s", floats(&setup_samples)),
            ("peak_rss_mb", Value::F64(host::peak_rss_mb())),
        ]),
    }
}

fn trace_train_cnn(args: &Args, system: &mut CnnSystem) -> (Vec<Metric>, u64) {
    let ops = if args.quick { 1 } else { TRACE_TRAIN_OPS };
    let batches = cnn_batches(args.seed.wrapping_add(2), ops);
    let cc = cnn_config();
    let (fp, par) = (cc.fp, cc.parallelism);
    let authority = &system.authority;
    let spec = system.model.conv_spec();
    let group = authority.group().clone();
    let mut cache = DlogTableCache::new(group.clone());
    let unit_keys = derive_unit_keys(authority, spec.kh * spec.kw).expect("unit keys");
    let mut rng = gen::rng(args.seed, Stream::Clients);
    let mut t = Tracer::new(true);

    for (i, (images, y)) in batches.iter().enumerate() {
        let op = i as u32;
        let ((batch, out), top) = t.span("core.train_cnn_step", "core", None, op, || {
            let batch = system
                .client
                .encrypt_image_batch(images, y, &spec)
                .expect("encrypt");
            let out = system
                .model
                .train_encrypted_batch(authority, &batch, CNN_LR)
                .expect("traced step");
            (batch, out)
        });
        t.span("core.encrypt_image_batch", "core", top, op, || {
            system
                .client
                .encrypt_image_batch(images, y, &spec)
                .expect("encrypt")
        });
        let layer = system.model.first_layer();
        let (_, forward) = t.span("core.conv_forward", "core", top, op, || {
            secure_conv_forward(authority, &mut cache, &batch, layer, fp, par)
                .expect("conv forward")
        });
        let (_, delta_span) = t.span("core.output_delta", "core", top, op, || {
            secure_output_delta(
                authority,
                &mut cache,
                batch.labels(),
                &out.predictions,
                fp,
                par,
            )
            .expect("delta")
        });
        t.span("core.loss", "core", top, op, || {
            secure_cross_entropy_loss(
                authority,
                &mut cache,
                batch.labels(),
                &out.predictions,
                fp,
                par,
            )
            .expect("loss")
        });
        let (out_c, oh, ow) = layer.out_shape();
        let grad_rows = small_delta(TRAIN_BATCH * oh * ow, out_c, &mut rng);
        let (_, grad_span) = t.span("core.conv_weight_grad", "core", top, op, || {
            secure_conv_weight_grad(
                authority, &mut cache, &batch, &grad_rows, &unit_keys, fp, cc.grad_fp, par,
            )
            .expect("filter gradient")
        });

        // Below core: the same windows and filters, encrypted afresh.
        let wq = fp.encode_matrix(layer.filters());
        let mpk = authority.feip_public_key(wq.cols());
        let windows =
            encrypt_windows_with(images, &spec, fp, &mpk, &mut rng, par).expect("encrypt windows");
        let keys = derive_filter_keys(authority, &wq).expect("filter keys");
        let xq = im2col(&images.map(|v| fp.encode(v) as f64), &spec)
            .map(|v| v as i64)
            .transpose();
        let dot = DotOperands::new(authority, &xq, &wq, &mut rng);
        let table = DlogTable::new(&group, dot.table.bound());
        let (_, smc) = t.span("smc.secure_convolution", "smc", forward, op, || {
            secure_convolution(&mpk, &windows, &keys, &wq, &table, par).expect("secure convolution")
        });
        let (_, fe) = t.span("fe.decrypt_cells", "fe", smc, op, || {
            dot.fe_decrypt_cells(par)
        });
        t.span("group.multi_scalar", "group", fe, op, || {
            dot.group_multi_scalar()
        });
        t.span("group.dlog_solve", "group", fe, op, || {
            dot.group_dlog_solve()
        });
        let dq = quantize_delta(&grad_rows, cc.grad_fp).transpose();
        trace_label_and_grad_levels(
            &mut t,
            op,
            authority,
            fp,
            y,
            &out.predictions,
            delta_span,
            &xq,
            &dq,
            grad_span,
            par,
            &mut rng,
        );
    }

    let (images, y) = &batches[0];
    let mut walls = [0.0f64; 2];
    for (w, enabled) in walls.iter_mut().zip([false, true]) {
        let mut probe = Tracer::new(enabled);
        let t0 = Instant::now();
        for op in 0..if args.quick { 1 } else { 4 } {
            probe.span("core.train_cnn_step", "core", None, op, || {
                let batch = system
                    .client
                    .encrypt_image_batch(images, y, &spec)
                    .expect("encrypt");
                system
                    .model
                    .train_encrypted_batch(authority, &batch, CNN_LR)
                    .expect("overhead step")
            });
        }
        *w = t0.elapsed().as_secs_f64();
    }
    let metrics = crate::layers::trace_metrics(&t, walls[1] / walls[0], "core.train_cnn_step");
    write_trace(&args.workload, &t);
    (metrics, t.spans.len() as u64)
}
