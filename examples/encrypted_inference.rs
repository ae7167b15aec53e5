//! Train once, serve forever: the full CryptoNN lifecycle over real
//! sockets — federated encrypted *training*, then encrypted inference
//! *serving* against the frozen model.
//!
//! 1. A training session runs in-process (the deterministic runner)
//!    and yields the trained model.
//! 2. The model is frozen behind an `InferenceFleet`, with the
//!    networked key authority as a separate daemon; the fleet's shards
//!    share one functional-key cache over the authority channel, so
//!    after the first sweep serving is **authority-free**.
//! 3. Concurrent predict clients stream encrypted feature batches over
//!    TCP loopback; each shard coalesces in-flight requests into
//!    shared secure sweeps and returns each client its predictions.
//! 4. The served outputs are asserted **bit-identical** to in-process
//!    `CryptoMlp::predict_encrypted` on the same ciphertexts.
//!
//! Run with:
//! `cargo run --release -p cryptonn-suite --example encrypted_inference`

use std::sync::Arc;

use cryptonn_core::{Client, Objective};
use cryptonn_data::clinic_dataset;
use cryptonn_matrix::Matrix;
use cryptonn_net::{
    run_inference_client, AuthorityOptions, AuthorityServer, FleetOptions, InferenceFleet,
    RemoteAuthority,
};
use cryptonn_protocol::{
    mlp_session_config, AuthoritySession, ClientId, InferenceOptions, MlpSpec, SessionId,
    TrainingSessionRunner,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- phase 1: train ----------------------------------------------
    let data = clinic_dataset(30, 19);
    let spec = MlpSpec {
        feature_dim: data.feature_dim(),
        hidden: vec![5],
        classes: data.classes(),
        objective: Objective::SoftmaxCrossEntropy,
    };
    let config = mlp_session_config(spec, 1, 2, 10, 1.0);
    let outcome = TrainingSessionRunner::new(config.clone()).run_mlp(&data)?;
    println!(
        "trained: {} steps, final loss {:.4}",
        outcome.summary.steps,
        outcome.summary.losses.last().copied().unwrap_or(f64::NAN)
    );
    let model = outcome.server.into_mlp().expect("MLP session");
    // The in-process reference twin (training is deterministic).
    let mut reference = TrainingSessionRunner::new(config.clone())
        .run_mlp(&data)?
        .server
        .into_mlp()
        .expect("MLP session");

    // --- phase 2: freeze and serve -----------------------------------
    let authority = AuthorityServer::start("127.0.0.1:0", AuthorityOptions::default())?;
    let session_id = SessionId(1);
    let fleet = InferenceFleet::start(
        "127.0.0.1:0",
        session_id,
        &config,
        model,
        Arc::new(RemoteAuthority::new(authority.local_addr())),
        FleetOptions {
            session: InferenceOptions {
                max_batch: 4,
                key_cache: 256,
            },
            ..FleetOptions::default()
        },
    )?;
    let addr = fleet.local_addr();
    println!(
        "serving on {addr} (authority on {})",
        authority.local_addr()
    );

    // --- phase 3: concurrent predict clients -------------------------
    let per_client = 5usize;
    let dim = data.feature_dim();
    let inputs = |c: usize| -> Vec<Matrix<f64>> {
        (0..per_client)
            .map(|i| Matrix::from_fn(2, dim, |r, k| ((c + i * 5 + r * 3 + k) % 13) as f64 / 13.0))
            .collect()
    };
    let handles: Vec<_> = (0..3usize)
        .map(|c| {
            let config = config.clone();
            let inputs = inputs(c);
            std::thread::spawn(move || {
                run_inference_client(
                    addr,
                    session_id,
                    ClientId(c as u32),
                    &config,
                    500 + c as u64,
                    &inputs,
                    2, // two requests in flight: lets a shard coalesce
                )
                .expect("serving completes")
            })
        })
        .collect();
    let served: Vec<Vec<Matrix<f64>>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = fleet.cache_stats();
    println!(
        "served {} requests in {} sweeps; key cache: {} hits / {} misses ({:.0}% hit rate)",
        fleet.served(),
        fleet.sweeps(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );
    fleet.shutdown();
    authority.shutdown();

    // --- phase 4: the served outputs are the in-process outputs ------
    let ref_authority = AuthoritySession::new(&config);
    let params = ref_authority.public_params_for(&config);
    for (c, outputs) in served.iter().enumerate() {
        let mut encryptor = Client::from_keys(
            params.x_mpk.clone(),
            params.y_mpk.clone(),
            params.febo_mpk.clone(),
            params.fp,
            500 + c as u64,
        );
        for (x, served_out) in inputs(c).iter().zip(outputs) {
            let batch = encryptor.encrypt_features(x)?;
            let direct = reference.predict_encrypted(ref_authority.authority(), &batch)?;
            assert_eq!(served_out, &direct, "served != in-process (client {c})");
        }
    }
    println!("bit-identity: served predictions == in-process CryptoMlp::predict ✓");
    Ok(())
}
