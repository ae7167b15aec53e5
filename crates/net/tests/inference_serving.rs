//! The encrypted inference serving stack over TCP loopback.
//!
//! The acceptance property: predictions served over real sockets —
//! through the [`InferenceFleet`], its request coalescing, its key
//! cache and the networked authority — are **bit-identical** to
//! in-process [`CryptoMlp::predict_encrypted`] on the same ciphertexts
//! against the same trained model. Plus the serving-specific
//! behaviors: the steady state is authority-free, a malformed client
//! costs only itself, and the handshake rejects config mismatches.
//! Every test runs against the single-lane fleet (`shards: 1`) and the
//! default shard count.

use std::sync::Arc;

use cryptonn_core::{Client, CryptoMlp, Objective};
use cryptonn_data::clinic_dataset;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    run_inference_client, AuthorityConnector, AuthorityOptions, AuthorityServer, FleetOptions,
    InferenceClient, InferenceFleet, LocalAuthority, NetError, RemoteAuthority, DEFAULT_MAX_FRAME,
};
use cryptonn_protocol::{
    mlp_session_config, AuthoritySession, ClientId, InferenceOptions, MlpSpec, SessionConfig,
    SessionId, TrainingSessionRunner,
};

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

/// Trains the model the daemon will serve. Deterministic: training the
/// same config on the same data twice yields bit-identical twins, which
/// is how the in-process reference model is produced.
fn trained_model(config: &SessionConfig, data: &cryptonn_data::Dataset) -> CryptoMlp {
    TrainingSessionRunner::new(config.clone())
        .run_mlp(data)
        .expect("training session completes")
        .server
        .into_mlp()
        .expect("MLP session")
}

/// The shard counts every behavior is pinned at: the single-lane fleet
/// and the default.
fn shard_counts() -> [usize; 2] {
    [1, FleetOptions::default().shards]
}

fn start_fleet(
    session: SessionId,
    config: &SessionConfig,
    data: &cryptonn_data::Dataset,
    authority: Arc<dyn AuthorityConnector>,
    shards: usize,
    options: InferenceOptions,
) -> InferenceFleet {
    InferenceFleet::start(
        "127.0.0.1:0",
        session,
        config,
        trained_model(config, data),
        authority,
        FleetOptions {
            shards,
            session: options,
            ..FleetOptions::default()
        },
    )
    .expect("inference fleet")
}

fn inputs_for(seed: usize, n: usize, dim: usize) -> Vec<Matrix<f64>> {
    (0..n)
        .map(|i| {
            Matrix::from_fn(1 + (i % 2), dim, |r, c| {
                ((seed * 31 + i * 7 + r * 3 + c) % 11) as f64 / 11.0
            })
        })
        .collect()
}

/// Served predictions over TCP loopback == in-process predictions,
/// bit for bit, across several concurrent pipelined clients — with
/// coalescing and the key cache on, and with both off (window 1, a
/// zero-capacity cache: every request its own sweep, its keys
/// re-derived through the authority).
#[test]
fn served_predictions_are_bit_identical_to_in_process() {
    let data = clinic_dataset(16, 71);
    let config = serving_config(&data);
    let mut reference = trained_model(&config, &data);
    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");
    let cache_on = InferenceOptions {
        max_batch: 3,
        key_cache: 256,
    };
    let cache_off = InferenceOptions {
        max_batch: 1,
        key_cache: 0,
    };
    for (shards, options) in shard_counts()
        .into_iter()
        .flat_map(|shards| [(shards, cache_on), (shards, cache_off)])
    {
        let fleet = start_fleet(
            SessionId(900),
            &config,
            &data,
            Arc::new(RemoteAuthority::new(authority.local_addr())),
            shards,
            options,
        );
        let addr = fleet.local_addr();

        // Concurrent clients, each with its own inputs and seed: the
        // first two pipelined, the last synchronous.
        let clients = 3usize;
        let per_client = 4usize;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let config = config.clone();
                let inputs = inputs_for(c, per_client, data.feature_dim());
                let (session, id, seed) = (SessionId(900), ClientId(c as u32), 7000 + c as u64);
                std::thread::spawn(move || {
                    if c + 1 < clients {
                        run_inference_client(addr, session, id, &config, seed, &inputs, 2)
                            .expect("serving completes")
                    } else {
                        let mut client = InferenceClient::connect(
                            addr,
                            session,
                            id,
                            &config,
                            seed,
                            DEFAULT_MAX_FRAME,
                        )
                        .expect("synchronous client connects");
                        inputs
                            .iter()
                            .map(|x| client.predict(x).expect("prediction"))
                            .collect()
                    }
                })
            })
            .collect();
        let served: Vec<Vec<Matrix<f64>>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();

        assert_eq!(fleet.served(), (clients * per_client) as u64);
        let stats = fleet.cache_stats();
        if options.key_cache == 0 {
            assert_eq!(
                fleet.sweeps(),
                fleet.served(),
                "window 1: a sweep per request"
            );
            assert_eq!(stats.hits, 0, "a zero-capacity cache cannot hit");
        } else {
            assert!(
                fleet.sweeps() <= fleet.served(),
                "sweeps cannot exceed requests"
            );
            assert!(stats.hits > 0, "steady-state serving must hit the cache");
        }
        fleet.shutdown();

        // In-process reference: same trained twin, same public parameters,
        // same client seeds => bit-identical ciphertexts, whose secure
        // decryption is exact => bit-identical predictions.
        let ref_authority = AuthoritySession::new(&config);
        let params = ref_authority.public_params_for(&config);
        for (c, outputs) in served.iter().enumerate() {
            let mut encryptor = Client::from_keys(
                params.x_mpk.clone(),
                params.y_mpk.clone(),
                params.febo_mpk.clone(),
                params.fp,
                7000 + c as u64,
            );
            for (input, served_out) in inputs_for(c, per_client, data.feature_dim())
                .iter()
                .zip(outputs)
            {
                let batch = encryptor.encrypt_features(input).expect("encrypt");
                let direct = reference
                    .predict_encrypted(ref_authority.authority(), &batch)
                    .expect("in-process predict");
                assert_eq!(
                    served_out, &direct,
                    "served prediction diverged from in-process \
                     (client {c}, {shards} shards, {options:?})"
                );
            }
        }
    }
    authority.shutdown();
}

/// The serving stack also runs against the in-process authority
/// connector — same key cache, same bit-identity — so a deployment
/// without a separate authority daemon is the same code path.
#[test]
fn serving_over_local_authority_matches_in_process() {
    let data = clinic_dataset(12, 75);
    let config = serving_config(&data);
    let mut reference = trained_model(&config, &data);

    for shards in shard_counts() {
        let fleet = start_fleet(
            SessionId(904),
            &config,
            &data,
            Arc::new(LocalAuthority),
            shards,
            InferenceOptions::default(),
        );

        let mut client = InferenceClient::connect(
            fleet.local_addr(),
            SessionId(904),
            ClientId(0),
            &config,
            21,
            DEFAULT_MAX_FRAME,
        )
        .expect("client connects");
        let x = Matrix::from_fn(2, data.feature_dim(), |r, c| ((r + c) % 5) as f64 / 5.0);
        let served = client.predict(&x).expect("prediction");
        let served2 = client.predict(&x).expect("second prediction");
        assert!(fleet.cache_stats().hits > 0, "second sweep hits the cache");
        fleet.shutdown();

        let ref_authority = AuthoritySession::new(&config);
        let params = ref_authority.public_params_for(&config);
        let mut encryptor = Client::from_keys(
            params.x_mpk.clone(),
            params.y_mpk.clone(),
            params.febo_mpk.clone(),
            params.fp,
            21,
        );
        for served_out in [&served, &served2] {
            let batch = encryptor.encrypt_features(&x).expect("encrypt");
            let direct = reference
                .predict_encrypted(ref_authority.authority(), &batch)
                .expect("in-process predict");
            assert_eq!(*served_out, direct);
        }
    }
}

/// The handshake rejects a config that disagrees with the serving
/// config, and a foreign session id.
#[test]
fn mismatched_handshakes_are_rejected() {
    let data = clinic_dataset(12, 72);
    let config = serving_config(&data);
    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");

    for shards in shard_counts() {
        let fleet = start_fleet(
            SessionId(901),
            &config,
            &data,
            Arc::new(RemoteAuthority::new(authority.local_addr())),
            shards,
            InferenceOptions::default(),
        );

        // Wrong learning rate: not a serving parameter, but the config is
        // the session agreement and must match bit-for-bit.
        let mut tampered = config.clone();
        tampered.lr += 1.0;
        let err = InferenceClient::connect(
            fleet.local_addr(),
            SessionId(901),
            ClientId(0),
            &tampered,
            1,
            DEFAULT_MAX_FRAME,
        )
        .expect_err("tampered config must be rejected");
        assert!(matches!(err, NetError::Rejected(_)), "got {err:?}");

        let err = InferenceClient::connect(
            fleet.local_addr(),
            SessionId(999),
            ClientId(0),
            &config,
            1,
            DEFAULT_MAX_FRAME,
        )
        .expect_err("foreign session id must be rejected");
        assert!(matches!(err, NetError::Rejected(_)), "got {err:?}");

        fleet.shutdown();
    }
    authority.shutdown();
}

/// Serving is stateless per request: a client disconnecting abruptly
/// (and a malformed request) never affects another client's service.
#[test]
fn client_failures_are_isolated() {
    let data = clinic_dataset(12, 73);
    let config = serving_config(&data);
    let authority =
        AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default()).expect("authority");

    for shards in shard_counts() {
        let fleet = start_fleet(
            SessionId(902),
            &config,
            &data,
            Arc::new(RemoteAuthority::new(authority.local_addr())),
            shards,
            InferenceOptions {
                max_batch: 4,
                key_cache: 256,
            },
        );
        let addr = fleet.local_addr();

        // A healthy client gets one answer...
        let mut healthy = InferenceClient::connect(
            addr,
            SessionId(902),
            ClientId(0),
            &config,
            11,
            DEFAULT_MAX_FRAME,
        )
        .expect("healthy client connects");
        let x = Matrix::from_fn(1, data.feature_dim(), |_, c| c as f64 / 10.0);
        let first = healthy.predict(&x).expect("first prediction");

        // ...then a second client connects, sends one request, and drops
        // dead without reading the response.
        {
            let _abandoned = InferenceClient::connect(
                addr,
                SessionId(902),
                ClientId(1),
                &config,
                12,
                DEFAULT_MAX_FRAME,
            )
            .map(|mut c| {
                let _ = c.send_request(&x);
            });
            // Dropped here: the connection dies with requests in flight.
        }

        // A third sends a wrong-dimension batch (encrypted under a foreign
        // geometry) and is rejected — alone.
        {
            let wrong = mlp_session_config(
                MlpSpec {
                    feature_dim: data.feature_dim() + 1,
                    hidden: vec![3],
                    classes: data.classes(),
                    objective: Objective::SoftmaxCrossEntropy,
                },
                1,
                1,
                4,
                0.7,
            );
            let foreign_params = AuthoritySession::new(&wrong).public_params_for(&wrong);
            let mut foreign_encryptor = Client::from_keys(
                foreign_params.x_mpk.clone(),
                foreign_params.y_mpk.clone(),
                foreign_params.febo_mpk.clone(),
                foreign_params.fp,
                13,
            );
            let bad_batch = foreign_encryptor
                .encrypt_features(&Matrix::zeros(1, data.feature_dim() + 1))
                .expect("foreign encrypt");
            let mut offender = InferenceClient::connect(
                addr,
                SessionId(902),
                ClientId(2),
                &config,
                13,
                DEFAULT_MAX_FRAME,
            )
            .expect("offender connects");
            offender.send_encrypted(bad_batch).expect("send");
            let err = offender.recv_prediction().expect_err("must be rejected");
            assert!(
                matches!(err, NetError::Rejected(_) | NetError::Disconnected),
                "got {err:?}"
            );
        }

        // The healthy client is still being served, bit-identically.
        let second = healthy.predict(&x).expect("still served");
        assert_eq!(first, second, "same input, same frozen model");

        fleet.shutdown();
    }
    authority.shutdown();
}
