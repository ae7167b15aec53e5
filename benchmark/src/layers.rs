//! Per-layer metrics: the layers are the crates. Everything here is
//! timed from the benchmark's own files around a crate's public entry
//! points, at the shapes the workloads use, and reported by every
//! traced run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use cryptonn_core::secure_steps::{
    derive_unit_keys, secure_conv_forward, secure_conv_weight_grad, secure_dense_forward,
    secure_dense_weight_grad, secure_output_delta,
};
use cryptonn_core::{Client, CryptoCnn, CryptoNnConfig, DlogTableCache};
use cryptonn_data::Dataset;
use cryptonn_fe::{
    feip, local_threshold_service, CachingKeyService, KeyService, PermittedFunctions,
    ThresholdSetup,
};
use cryptonn_group::DlogTable;
use cryptonn_matrix::{im2col, Matrix};
use cryptonn_net::{
    AuthorityConnector, AuthorityOptions, AuthorityServer, LocalAuthority, NetMsg, RemoteAuthority,
    WireFormat,
};
use cryptonn_nn::metrics::one_hot;
use cryptonn_parallel::Parallelism;
use cryptonn_protocol::{
    ChannelKeyService, ClientId, EncryptedBatchMsg, InferenceOptions, InferenceSession, Prediction,
    SessionId, TrainingSessionRunner, WireMessage,
};
use cryptonn_smc::{derive_filter_keys, encrypt_windows_with, secure_convolution};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::config::*;
use crate::gen::{self, Stream};
use crate::host::{self, FreshDir};
use crate::levels::{first_layer_delta, DotOperands, ElemOperands, GradOperands};
use crate::report::{metric, Args, Metric};
use crate::serve::{
    build_pool, decode, frame, local_authority, new_model, session_config, start_system,
};
use crate::stats::median;
use crate::trace::Tracer;

/// Every per-layer metric a traced run reports: `(name, unit, better)`.
/// `BENCHMARK.json` lists the same, and a test holds the two together.
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    // Self time per op of each layer, from the traced op stream.
    ("trace.net_self_ms", "ms", "lower"),
    ("trace.wire_self_ms", "ms", "lower"),
    ("trace.protocol_self_ms", "ms", "lower"),
    ("trace.core_self_ms", "ms", "lower"),
    ("trace.smc_self_ms", "ms", "lower"),
    ("trace.fe_self_ms", "ms", "lower"),
    ("trace.group_self_ms", "ms", "lower"),
    ("trace.crypto_share", "ratio", "lower"),
    ("trace.transport_share", "ratio", "lower"),
    ("trace.dlog_share", "ratio", "lower"),
    ("trace.transport_spans", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
    // Counts read off the fleet and the generator after a serve run.
    ("fe.key_cache_hit_ratio", "ratio", "higher"),
    ("protocol.coalesce_ratio", "ratio", "higher"),
    ("net.reactor_accepted", "count", "lower"),
    ("net.reactor_peak", "count", "lower"),
    ("gen.lateness_p50_us", "us", "lower"),
    ("gen.lateness_max_us", "us", "lower"),
    // Layer probes.
    ("bigint.modpow_us", "us", "lower"),
    ("group.multi_scalar_cell_us_d784", "us", "lower"),
    ("group.dlog_solve_us", "us", "lower"),
    ("group.dlog_table_build_ms", "ms", "lower"),
    ("group.dlog_table_reload_ms", "ms", "lower"),
    ("group.fixed_base_exp_us", "us", "lower"),
    ("fe.encrypt_us_d784", "us", "lower"),
    ("fe.decrypt_cell_us_d784", "us", "lower"),
    ("fe.decrypt_cell_us_conv", "us", "lower"),
    ("fe.decrypt_coord_us", "us", "lower"),
    ("fe.febo_elem_us", "us", "lower"),
    ("fe.key_derive_us", "us", "lower"),
    ("fe.threshold_derive_us", "us", "lower"),
    ("smc.secure_dot_ms", "ms", "lower"),
    ("smc.secure_elementwise_ms", "ms", "lower"),
    ("smc.secure_convolution_ms", "ms", "lower"),
    ("core.encrypt_batch_ms", "ms", "lower"),
    ("core.forward_ms", "ms", "lower"),
    ("core.output_delta_ms", "ms", "lower"),
    ("core.weight_grad_ms", "ms", "lower"),
    ("core.conv_forward_ms", "ms", "lower"),
    ("core.conv_weight_grad_ms", "ms", "lower"),
    ("core.predict_many_ms_b1", "ms", "lower"),
    ("core.predict_many_ms_b4", "ms", "lower"),
    ("nn.plain_step_ms", "ms", "lower"),
    ("wire.predict_frame_bytes", "bytes", "lower"),
    ("wire.predict_encode_us", "us", "lower"),
    ("wire.predict_decode_us", "us", "lower"),
    ("wire.batch_frame_bytes", "bytes", "lower"),
    ("wire.batch_encode_us", "us", "lower"),
    ("wire.batch_decode_us", "us", "lower"),
    ("wire.json_predict_frame_bytes", "bytes", "lower"),
    ("wire.json_predict_encode_us", "us", "lower"),
    ("wire.json_predict_decode_us", "us", "lower"),
    ("wire.json_batch_frame_bytes", "bytes", "lower"),
    ("wire.json_batch_encode_us", "us", "lower"),
    ("wire.json_batch_decode_us", "us", "lower"),
    ("protocol.sweep_ms", "ms", "lower"),
    ("protocol.runner_step_ms", "ms", "lower"),
    ("net.serve_overhead_us", "us", "lower"),
    ("net.authority_rpc_ms", "ms", "lower"),
    ("parallel.efficiency", "ratio", "higher"),
    ("host.nproc", "count", "higher"),
];

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
        .1
}

fn m(name: &str, value: f64) -> Metric {
    metric(name, value, unit_of(name))
}

/// Median seconds of `reps` calls of `f`.
fn time<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The serve-only counters, for workloads with no fleet and no
/// schedule: training derives every key afresh (no cache to hit).
pub fn idle_counters() -> Vec<Metric> {
    [
        "fe.key_cache_hit_ratio",
        "protocol.coalesce_ratio",
        "net.reactor_accepted",
        "net.reactor_peak",
        "gen.lateness_p50_us",
        "gen.lateness_max_us",
    ]
    .iter()
    .map(|name| m(name, 0.0))
    .collect()
}

/// Layer self times and shares from a traced op stream whose top-level
/// spans are called `top`.
pub fn trace_metrics(t: &Tracer, overhead: f64, top: &str) -> Vec<Metric> {
    let self_ms = t.layer_self_ms();
    let of = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0);
    let total: f64 = self_ms.values().sum();
    let mut dlog_per_op: std::collections::BTreeMap<u32, f64> = Default::default();
    for s in t.spans.iter().filter(|s| s.name == "group.dlog_solve") {
        *dlog_per_op.entry(s.op_id).or_default() += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    let dlog_ms = if dlog_per_op.is_empty() {
        0.0
    } else {
        median(&dlog_per_op.into_values().collect::<Vec<_>>())
    };
    let transport_spans = t
        .spans
        .iter()
        .filter(|s| matches!(s.layer, "net" | "wire" | "protocol"))
        .count();
    let mut out: Vec<Metric> = ["net", "wire", "protocol", "core", "smc", "fe", "group"]
        .iter()
        .map(|layer| m(&format!("trace.{layer}_self_ms"), of(layer)))
        .collect();
    out.extend([
        m("trace.crypto_share", (of("fe") + of("group")) / total),
        m(
            "trace.transport_share",
            (of("net") + of("wire") + of("protocol")) / total,
        ),
        m(
            "trace.dlog_share",
            dlog_ms / t.median_ms(top).expect("the trace has top-level spans"),
        ),
        m("trace.transport_spans", transport_spans as f64),
        m("trace.spans", t.spans.len() as f64),
        m("trace.overhead", overhead),
    ]);
    out
}

/// Seconds one more step costs the in-process session runner at the
/// `train_net` geometry: a session of `steps + 1` steps minus a session
/// of one, so that session start-up cancels.
pub fn runner_step_seconds(seed: u64, steps: usize) -> f64 {
    let shape = PAPER_MLP;
    let config = session_config(shape, seed, TRAIN_NET_CLIENTS as u32);
    let session = |steps: usize| {
        let data = Dataset::new(
            gen::features(
                steps * TRAIN_BATCH,
                shape.feature_dim,
                &mut gen::rng(seed, Stream::Features),
            ),
            gen::labels(
                steps * TRAIN_BATCH,
                shape.classes,
                &mut gen::rng(seed, Stream::Labels),
            ),
            shape.classes,
        );
        time(1, || {
            TrainingSessionRunner::new(config.clone())
                .run_mlp(&data)
                .expect("runner session")
        })
    };
    // Two clients need a batch each, so the short session has two steps.
    (session(steps + 2) - session(2)) / steps as f64
}

/// Encode and decode of one frame under one format.
fn wire_probe(prefix: &str, msg: &NetMsg, format: WireFormat, reps: usize, out: &mut Vec<Metric>) {
    let bytes = frame(msg, format);
    out.push(m(&format!("{prefix}_frame_bytes"), bytes.len() as f64));
    out.push(m(
        &format!("{prefix}_encode_us"),
        time(reps, || frame(msg, format)) * 1e6,
    ));
    out.push(m(
        &format!("{prefix}_decode_us"),
        time(reps, || decode(&bytes)) * 1e6,
    ));
}

/// Runs every layer probe. `--quick` cuts each to one repetition.
/// `runner_step_s` hands in the runner step time when the caller has
/// already measured it (it is the one probe that takes seconds).
pub fn probe_all(args: &Args, runner_step_s: Option<f64>) -> Vec<Metric> {
    let reps = |n: usize| if args.quick { 1 } else { n };
    let seed = args.seed;
    let shape = PAPER_MLP;
    let config = session_config(shape, seed, 1);
    let (fp, grad_fp) = (config.fp, config.grad_fp);
    let authority = local_authority(&config);
    let group = authority.group().clone();
    let mut rng = gen::rng(seed, Stream::Clients);
    let serial = Parallelism::Serial;
    let mut out = vec![m("host.nproc", host::nproc() as f64)];

    // ---- bigint, group
    let elements: Vec<_> = (0..64)
        .map(|_| group.exp(&group.random_scalar(&mut rng)))
        .collect();
    let scalars: Vec<_> = (0..64).map(|_| group.random_scalar(&mut rng)).collect();
    let mut i = 0;
    out.push(m(
        "bigint.modpow_us",
        time(reps(200), || {
            i = (i + 1) % 64;
            cryptonn_bigint::modular::mod_pow(
                elements[i].value(),
                scalars[i].value(),
                group.modulus(),
            )
        }) * 1e6,
    ));
    out.push(m(
        "group.fixed_base_exp_us",
        time(reps(400), || {
            i = (i + 1) % 64;
            group.exp_table(group.generator_table(), &scalars[i])
        }) * 1e6,
    ));

    // ---- the serving sweep shape: 16 key rows × 4 ciphertexts at dim 784
    let model = new_model(&config, shape, serial);
    let wq = fp.encode_matrix(&model.first_layer().weights().transpose());
    let x4 = gen::features(4, shape.feature_dim, &mut gen::rng(seed, Stream::Features));
    let dot = DotOperands::new(
        &authority,
        &fp.encode_matrix(&x4.transpose()),
        &wq,
        &mut rng,
    );
    let cells = dot.cells() as f64;
    out.push(m(
        "group.multi_scalar_cell_us_d784",
        time(reps(5), || dot.group_multi_scalar()) / cells * 1e6,
    ));
    let fe_dot = time(reps(5), || dot.fe_decrypt_cells(serial));
    out.push(m("fe.decrypt_cell_us_d784", fe_dot / cells * 1e6));
    out.push(m(
        "smc.secure_dot_ms",
        time(reps(5), || dot.smc_secure_dot(serial)) * 1e3,
    ));
    let x_row = fp.encode_matrix(&x4).row(0).to_vec();
    out.push(m(
        "fe.encrypt_us_d784",
        time(reps(10), || {
            feip::encrypt(&dot.mpk, &x_row, &mut rng).expect("encrypt")
        }) * 1e6,
    ));
    let rows: Vec<Vec<i64>> = (0..wq.rows()).map(|r| wq.row(r).to_vec()).collect();
    let local_derive = time(reps(20), || {
        authority
            .derive_ip_keys(shape.feature_dim, &rows)
            .expect("derive")
    });
    out.push(m("fe.key_derive_us", local_derive * 1e6));
    let threshold = local_threshold_service(
        group.clone(),
        PermittedFunctions::all(),
        config.authority_seed,
        ThresholdSetup::new(3, 2).expect("2-of-3"),
    );
    out.push(m(
        "fe.threshold_derive_us",
        time(reps(5), || {
            threshold
                .derive_ip_keys(shape.feature_dim, &rows)
                .expect("threshold derive")
        }) * 1e6,
    ));
    let threads = host::nproc();
    let x8 = gen::features(
        TRAIN_BATCH,
        shape.feature_dim,
        &mut gen::rng(seed.wrapping_add(1), Stream::Features),
    );
    let xq8 = fp.encode_matrix(&x8.transpose());
    let dot8 = DotOperands::new(&authority, &xq8, &wq, &mut rng);
    let one = time(reps(3), || dot8.smc_secure_dot(serial));
    let many = time(reps(3), || {
        dot8.smc_secure_dot(Parallelism::Threads(threads))
    });
    out.push(m("parallel.efficiency", one / (threads as f64 * many)));

    // ---- the gradient shape: 16 delta rows over 8 columns of dim 784
    let labels = gen::labels(
        TRAIN_BATCH,
        shape.classes,
        &mut gen::rng(seed, Stream::Labels),
    );
    let y8 = one_hot(&labels, shape.classes);
    let delta = first_layer_delta(
        config.model_seed,
        (shape.feature_dim, shape.hidden, shape.classes),
        model.first_layer().weights(),
        &x8,
        &y8,
    );
    let max_delta = delta.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let dq = delta.map(|v| (v * f64::from(grad_fp.scale()) / max_delta).round() as i64);
    let grad = GradOperands::new(&authority, &xq8, &dq, &mut rng);
    let coords = grad.coordinates() as f64;
    out.push(m(
        "group.dlog_solve_us",
        time(reps(2), || grad.group_dlog_solve()) / coords * 1e6,
    ));
    out.push(m(
        "fe.decrypt_coord_us",
        time(1, || grad.fe_decrypt_coordinates(&grad.fe_combine())) / coords * 1e6,
    ));
    let bound = grad.table.bound();
    out.push(m(
        "group.dlog_table_build_ms",
        time(reps(5), || DlogTable::new(&group, bound)) * 1e3,
    ));
    let dir = FreshDir::new("reload");
    DlogTable::load_or_build(&group, bound, &dir.0);
    out.push(m(
        "group.dlog_table_reload_ms",
        time(reps(5), || DlogTable::load_or_build(&group, bound, &dir.0)) * 1e3,
    ));

    // ---- labels: FEBO elements, classes × batch
    let p8 = Matrix::from_fn(TRAIN_BATCH, shape.classes, |_, _| {
        1.0 / shape.classes as f64
    });
    let elem = ElemOperands::new(
        &authority,
        &fp.encode_matrix(&y8.transpose()),
        &fp.encode_matrix(&p8.transpose()),
        &mut rng,
    );
    let fe_elem = time(reps(5), || elem.fe_febo_decrypt());
    out.push(m("fe.febo_elem_us", fe_elem / elem.elements() as f64 * 1e6));
    out.push(m(
        "smc.secure_elementwise_ms",
        time(reps(5), || elem.smc_secure_elementwise(serial)) * 1e3,
    ));

    // ---- core: the secure steps of an MLP training step, and prediction
    let params = cryptonn_protocol::AuthoritySession::new(&config).public_params_for(&config);
    let mut client = Client::from_keys(
        params.x_mpk,
        params.y_mpk,
        params.febo_mpk,
        fp,
        config.client_seed_base,
    );
    out.push(m(
        "core.encrypt_batch_ms",
        time(reps(3), || client.encrypt_batch(&x8, &y8).expect("encrypt")) * 1e3,
    ));
    let batch = client.encrypt_batch(&x8, &y8).expect("encrypt");
    let mut cache = DlogTableCache::new(group.clone());
    out.push(m(
        "core.forward_ms",
        time(reps(3), || {
            secure_dense_forward(
                &authority,
                &mut cache,
                &batch,
                model.first_layer(),
                fp,
                serial,
            )
            .expect("forward")
        }) * 1e3,
    ));
    let enc_y = batch.labels().expect("labels");
    out.push(m(
        "core.output_delta_ms",
        time(reps(3), || {
            secure_output_delta(&authority, &mut cache, enc_y, &p8, fp, serial).expect("delta")
        }) * 1e3,
    ));
    let unit_keys = derive_unit_keys(&authority, shape.feature_dim).expect("unit keys");
    out.push(m(
        "core.weight_grad_ms",
        time(1, || {
            secure_dense_weight_grad(
                &authority, &mut cache, &batch, &delta, &unit_keys, fp, grad_fp, serial,
            )
            .expect("gradient")
        }) * 1e3,
    ));
    let keys = CachingKeyService::new(
        local_authority(&config),
        InferenceOptions::default().key_cache,
    );
    let pool = build_pool(&config, shape, seed, 0, 4);
    let mut serving = new_model(&config, shape, serial);
    let requests: Vec<_> = pool.requests.iter().map(|r| &r.batch).collect();
    serving
        .predict_encrypted_many(&keys, &requests)
        .expect("warm the key cache");
    for (name, n) in [
        ("core.predict_many_ms_b1", 1),
        ("core.predict_many_ms_b4", 4),
    ] {
        out.push(m(
            name,
            time(reps(10), || {
                serving
                    .predict_encrypted_many(&keys, &requests[..n])
                    .expect("predict")
            }) * 1e3,
        ));
    }
    let mut plain = new_model(&config, shape, serial);
    out.push(m(
        "nn.plain_step_ms",
        time(reps(10), || plain.train_plain_batch(&x8, &y8, config.lr)) * 1e3,
    ));

    // ---- the convolution shape: 3 filters × (8 × 196) windows of dim 9
    let cc = CryptoNnConfig {
        level: shape.level,
        fp,
        grad_fp,
        parallelism: Parallelism::available(),
    };
    let par = cc.parallelism;
    let cnn = CryptoCnn::lenet_small(
        cc,
        CNN_CLASSES,
        &mut StdRng::seed_from_u64(config.model_seed),
    );
    let spec = cnn.conv_spec();
    let images = gen::images(TRAIN_BATCH, CNN_SIDE, &mut gen::rng(seed, Stream::Features));
    let y_cnn = one_hot(
        &gen::labels(
            TRAIN_BATCH,
            CNN_CLASSES,
            &mut gen::rng(seed, Stream::Labels),
        ),
        CNN_CLASSES,
    );
    let fq = fp.encode_matrix(cnn.first_layer().filters());
    let windows_q = im2col(&images.map(|v| fp.encode(v) as f64), &spec)
        .map(|v| v as i64)
        .transpose();
    let conv = DotOperands::new(&authority, &windows_q, &fq, &mut rng);
    let fe_conv = time(reps(2), || conv.fe_decrypt_cells(par));
    out.push(m(
        "fe.decrypt_cell_us_conv",
        fe_conv / conv.cells() as f64 * 1e6,
    ));
    let windows = encrypt_windows_with(&images, &spec, fp, &conv.mpk, &mut rng, par)
        .expect("encrypt windows");
    let filter_keys = derive_filter_keys(&authority, &fq).expect("filter keys");
    out.push(m(
        "smc.secure_convolution_ms",
        time(reps(2), || {
            secure_convolution(&conv.mpk, &windows, &filter_keys, &fq, &conv.table, par)
                .expect("convolution")
        }) * 1e3,
    ));
    let mut cnn_client = Client::for_cnn(
        &authority,
        &spec,
        1,
        CNN_CLASSES,
        fp,
        config.client_seed_base,
    )
    .with_parallelism(par);
    let image_batch = cnn_client
        .encrypt_image_batch(&images, &y_cnn, &spec)
        .expect("encrypt images");
    out.push(m(
        "core.conv_forward_ms",
        time(reps(2), || {
            secure_conv_forward(
                &authority,
                &mut cache,
                &image_batch,
                cnn.first_layer(),
                fp,
                par,
            )
            .expect("conv forward")
        }) * 1e3,
    ));
    let (out_c, oh, ow) = cnn.first_layer().out_shape();
    let grad_rows = Matrix::from_fn(TRAIN_BATCH * oh * ow, out_c, |_, _| {
        rng.random_range(-0.02..0.02)
    });
    let conv_unit_keys = derive_unit_keys(&authority, fq.cols()).expect("unit keys");
    out.push(m(
        "core.conv_weight_grad_ms",
        time(reps(2), || {
            secure_conv_weight_grad(
                &authority,
                &mut cache,
                &image_batch,
                &grad_rows,
                &conv_unit_keys,
                fp,
                grad_fp,
                par,
            )
            .expect("filter gradient")
        }) * 1e3,
    ));

    // ---- wire: the predict frame and the encrypted-batch frame
    let predict = NetMsg::Msg(WireMessage::Predict(pool.requests[0].clone()));
    let batch_msg = NetMsg::Msg(WireMessage::Batch(EncryptedBatchMsg {
        client: ClientId(0),
        step: 0,
        gen: 0,
        batch,
    }));
    for (prefix, format) in [
        ("wire.", WireFormat::Binary),
        ("wire.json_", WireFormat::Json),
    ] {
        wire_probe(
            &format!("{prefix}predict"),
            &predict,
            format,
            reps(10),
            &mut out,
        );
        wire_probe(
            &format!("{prefix}batch"),
            &batch_msg,
            format,
            reps(10),
            &mut out,
        );
    }

    // ---- protocol: a sweep without sockets, a runner step without daemons
    let sweep = |shape: MlpShape, request: &WireMessage, reps: usize| {
        let config = session_config(shape, seed, 1);
        let (params, link) = LocalAuthority
            .connect(SessionId(901), &config)
            .expect("in-process link");
        let mut session = InferenceSession::new(
            &params,
            link,
            new_model(&config, shape, serial),
            InferenceOptions::default(),
        );
        let mut once = || {
            session
                .handle_message(ClientId(CLIENT_IDS[0]), request)
                .expect("queue");
            session.flush().expect("sweep")
        };
        once();
        time(reps, once)
    };
    out.push(m(
        "protocol.sweep_ms",
        sweep(
            shape,
            &WireMessage::Predict(pool.requests[0].clone()),
            reps(10),
        ) * 1e3,
    ));
    let runner_step_s =
        runner_step_s.unwrap_or_else(|| runner_step_seconds(seed.wrapping_add(3), 1));
    out.push(m("protocol.runner_step_ms", runner_step_s * 1e3));

    // ---- net: what the sockets, reactor and shard queue add to a tiny
    // request, and what an authority RPC adds to a key derivation
    let tiny = session_config(TINY_MLP, seed, 1);
    let tiny_pool = build_pool(&tiny, TINY_MLP, seed, 0, 8);
    let mut system = start_system(&tiny, TINY_MLP, SessionId(902), &[&tiny_pool]);
    let conn = &mut system.conns[0];
    let mut k = 0;
    let round_trip = time(reps(300), || {
        k = (k + 1) % tiny_pool.frames.len();
        conn.send(&tiny_pool.frames[k]);
        conn.recv().expect("round trip")
    });
    assert!(system.shutdown(), "the probe fleet's port was not released");
    let request = WireMessage::Predict(tiny_pool.requests[0].clone());
    let reply = frame(
        &NetMsg::Msg(WireMessage::Prediction(Prediction {
            id: 0,
            outputs: tiny_pool.expected[0].clone(),
        })),
        WireFormat::Binary,
    );
    let codec =
        time(reps(50), || decode(&tiny_pool.frames[0])) + 2.0 * time(reps(50), || decode(&reply));
    out.push(m(
        "net.serve_overhead_us",
        (round_trip - sweep(TINY_MLP, &request, reps(100)) - codec).max(0.0) * 1e6,
    ));
    let daemon = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())
        .expect("authority daemon binds");
    let (remote_params, link) = RemoteAuthority::new(daemon.local_addr())
        .connect(SessionId(903), &config)
        .expect("connect to the authority daemon");
    let remote = Arc::new(ChannelKeyService::new(&remote_params, link));
    let rpc = time(reps(5), || {
        remote
            .derive_ip_keys(shape.feature_dim, &rows)
            .expect("remote derive")
    });
    drop(remote);
    daemon.shutdown();
    out.push(m(
        "net.authority_rpc_ms",
        (rpc - local_derive).max(0.0) * 1e3,
    ));
    out
}
