//! End-to-end encrypted training: the full CryptoNN pipeline from
//! client-side encryption to a trained server-side model.

use cryptonn_core::{Client, CryptoCnn, CryptoMlp, CryptoNnConfig};
use cryptonn_data::{clinic_dataset, split_among_clients, synthetic_digits, DigitConfig};
use cryptonn_fe::{KeyAuthority, PermittedFunctions, COMMITMENT_BYTES, KEY_BYTES, WEIGHT_BYTES};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::{Matrix, Tensor4};
use cryptonn_nn::{accuracy, binary_accuracy, one_hot};
use cryptonn_smc::FixedPoint;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn authority(config: &CryptoNnConfig, seed: u64) -> KeyAuthority {
    let group = SchnorrGroup::precomputed(config.level);
    KeyAuthority::with_seed(group, PermittedFunctions::all(), seed)
}

/// Encrypted MLP training on the clinic task must reach high held-out
/// accuracy — the paper's central claim at integration-test scale.
#[test]
fn encrypted_mlp_learns_the_clinic_task() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 1);
    let train = clinic_dataset(60, 10);
    let test = clinic_dataset(40, 11);

    let features = train.feature_dim();
    let mut client = Client::for_mlp(&auth, features, 1, config.fp, 2);
    let mut rng = StdRng::seed_from_u64(3);
    let mut model = CryptoMlp::binary(features, &[8], config, &mut rng);

    let squash = |m: &Matrix<f64>| m.map(|v: f64| (v / 3.0).clamp(-1.0, 1.0));
    for _ in 0..10 {
        for (x, y) in train.batches(12) {
            let y_bin = Matrix::from_fn(y.rows(), 1, |r, _| y[(r, 1)]);
            let batch = client.encrypt_batch(&squash(&x), &y_bin).unwrap();
            model.train_encrypted_batch(&auth, &batch, 1.5).unwrap();
        }
    }

    let pred = model.predict_plain(&squash(test.images()));
    let y_test = Matrix::from_fn(test.len(), 1, |r, _| test.labels()[r] as f64);
    let acc = binary_accuracy(&pred, &y_test);
    assert!(
        acc > 0.8,
        "encrypted training should learn the task, got {acc}"
    );
}

/// Encrypted and plaintext training must track each other batch by
/// batch (the Fig. 6 claim): same init, same data, same schedule.
#[test]
fn encrypted_and_plaintext_mlp_track_each_other() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 4);
    let train = clinic_dataset(40, 12);
    let features = train.feature_dim();

    let mut rng_a = StdRng::seed_from_u64(5);
    let mut crypto = CryptoMlp::binary(features, &[6], config, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(5);
    let mut plain = CryptoMlp::binary(features, &[6], config, &mut rng_b);

    let mut client = Client::for_mlp(&auth, features, 1, config.fp, 6);
    let squash = |m: &Matrix<f64>| m.map(|v: f64| (v / 3.0).clamp(-1.0, 1.0));

    for epoch in 0..4 {
        for (x, y) in train.batches(10) {
            let y_bin = Matrix::from_fn(y.rows(), 1, |r, _| y[(r, 1)]);
            let x = squash(&x);
            let batch = client.encrypt_batch(&x, &y_bin).unwrap();
            let enc_step = crypto.train_encrypted_batch(&auth, &batch, 1.0).unwrap();
            let plain_step = plain.train_plain_batch(&x, &y_bin, 1.0);
            assert!(
                (enc_step.loss - plain_step.loss).abs() < 0.05,
                "epoch {epoch}: losses diverged: {} vs {}",
                enc_step.loss,
                plain_step.loss
            );
        }
    }
    // Weight trajectories stay within quantization drift.
    assert!(crypto
        .first_layer()
        .weights()
        .approx_eq(plain.first_layer().weights(), 0.1));
}

/// Federated setting: three clients, one model, one mpk.
#[test]
fn multiple_clients_train_one_encrypted_model() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 7);
    let train = clinic_dataset(45, 13);
    let shards = split_among_clients(&train, 3);
    let features = train.feature_dim();

    let mut clients: Vec<Client> = (0..3u64)
        .map(|i| Client::for_mlp(&auth, features, 1, config.fp, 20 + i))
        .collect();
    let mut rng = StdRng::seed_from_u64(8);
    let mut model = CryptoMlp::binary(features, &[6], config, &mut rng);

    let squash = |m: &Matrix<f64>| m.map(|v: f64| (v / 3.0).clamp(-1.0, 1.0));
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for _ in 0..6 {
        for (shard, client) in shards.iter().zip(clients.iter_mut()) {
            for (x, y) in shard.batches(15) {
                let y_bin = Matrix::from_fn(y.rows(), 1, |r, _| y[(r, 1)]);
                let batch = client.encrypt_batch(&squash(&x), &y_bin).unwrap();
                last_loss = model
                    .train_encrypted_batch(&auth, &batch, 1.5)
                    .unwrap()
                    .loss;
                first_loss.get_or_insert(last_loss);
            }
        }
    }
    assert!(
        last_loss < first_loss.unwrap(),
        "federated encrypted training should reduce loss: {first_loss:?} -> {last_loss}"
    );
}

/// CryptoCNN on synthetic digits: the encrypted CNN must track its
/// plaintext twin and make meaningful progress.
#[test]
fn encrypted_cnn_tracks_plaintext_twin_on_digits() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 9);
    let classes = 3;
    let data = synthetic_digits(60, DigitConfig::small(), 14);
    let keep: Vec<usize> = (0..data.len())
        .filter(|&i| data.labels()[i] < classes)
        .collect();

    let mut rng_a = StdRng::seed_from_u64(10);
    let mut crypto = CryptoCnn::lenet_small(config, classes, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(10);
    let mut plain = CryptoCnn::lenet_small(config, classes, &mut rng_b);

    let spec = crypto.conv_spec();
    let mut client = Client::for_cnn(&auth, &spec, 1, classes, config.fp, 11);

    let mut enc_accs = Vec::new();
    let mut plain_accs = Vec::new();
    for chunk in keep.chunks(6).take(4) {
        let n = chunk.len();
        let mut flat = Vec::with_capacity(n * 196);
        let mut labels = Vec::with_capacity(n);
        for &i in chunk {
            flat.extend_from_slice(data.images().row(i));
            labels.push(data.labels()[i]);
        }
        let images = Tensor4::from_vec(n, 1, 14, 14, flat);
        let y = one_hot(&labels, classes);

        let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();
        let enc_step = crypto.train_encrypted_batch(&auth, &batch, 0.5).unwrap();
        let plain_step = plain.train_plain_batch(&images.flatten(), &y, 0.5);

        enc_accs.push(accuracy(&enc_step.predictions, &y));
        plain_accs.push(accuracy(&plain_step.predictions, &y));
        assert!(
            (enc_step.loss - plain_step.loss).abs() < 0.1,
            "CNN losses diverged: {} vs {}",
            enc_step.loss,
            plain_step.loss
        );
    }
    // Same-batch accuracies agree closely (predictions near-identical).
    for (e, p) in enc_accs.iter().zip(&plain_accs) {
        assert!(
            (e - p).abs() <= 0.34,
            "batch accuracies diverged: {e} vs {p}"
        );
    }
}

/// Fig. 6 / Table III: CryptoCNN and an identically initialised
/// plaintext LeNet twin, trained on the same digit batches, reach the
/// same test accuracy after every epoch and the same batch accuracy in
/// every 5-iteration bucket. `lenet_small` on 4 classes of 14×14
/// digits stands in for the paper's LeNet-5 on MNIST.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug; runs in release")]
fn cryptocnn_matches_lenet_accuracy_per_epoch_and_bucket() {
    let (classes, img, train_n, test_n, batch_n, bucket, lr) = (4, 14, 320, 80, 8, 5, 0.3);
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 901);

    let subset = |n: usize, seed: u64| -> (Matrix<f64>, Vec<usize>) {
        let d = synthetic_digits(n * 10 / classes, DigitConfig::small(), seed);
        let idx: Vec<usize> = (0..d.len())
            .filter(|&i| d.labels()[i] < classes)
            .take(n)
            .collect();
        let images = Matrix::from_fn(idx.len(), d.feature_dim(), |r, c| d.images()[(idx[r], c)]);
        (images, idx.iter().map(|&i| d.labels()[i]).collect())
    };
    let (train_x, train_y) = subset(train_n, 902);
    let (test_x, test_y) = subset(test_n, 903);
    let y_test = one_hot(&test_y, classes);

    let mut rng_a = StdRng::seed_from_u64(904);
    let mut crypto = CryptoCnn::lenet_small(config, classes, &mut rng_a);
    let mut rng_b = StdRng::seed_from_u64(904);
    let mut plain = CryptoCnn::lenet_small(config, classes, &mut rng_b);
    let spec = crypto.conv_spec();
    let mut client = Client::for_cnn(&auth, &spec, 1, classes, config.fp, 905)
        .with_parallelism(config.parallelism);

    // Per-iteration batch accuracies (CryptoCNN, LeNet) for Fig. 6.
    let mut series: Vec<(f64, f64)> = Vec::new();
    for epoch in 1..=2 {
        for start in (0..train_x.rows()).step_by(batch_n) {
            let end = (start + batch_n).min(train_x.rows());
            let x = Matrix::from_fn(end - start, train_x.cols(), |r, c| train_x[(start + r, c)]);
            let y = one_hot(&train_y[start..end], classes);
            let images = Tensor4::from_flat(&x, 1, img, img);
            let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();
            let step_c = crypto.train_encrypted_batch(&auth, &batch, lr).unwrap();
            let step_p = plain.train_plain_batch(&x, &y, lr);
            series.push((
                accuracy(&step_c.predictions, &y),
                accuracy(&step_p.predictions, &y),
            ));
        }
        // Table III: test accuracy after this epoch.
        let acc_c = accuracy(&crypto.predict_plain(&test_x), &y_test);
        let acc_p = accuracy(&plain.predict_plain(&test_x), &y_test);
        assert!(
            (acc_c - acc_p).abs() <= 0.05,
            "epoch {epoch}: CryptoCNN {acc_c} vs LeNet {acc_p}"
        );
        assert!(
            acc_c >= 0.9 && acc_p >= 0.9,
            "epoch {epoch}: test accuracy too low: CryptoCNN {acc_c}, LeNet {acc_p}"
        );
    }
    // Fig. 6: mean batch accuracy per bucket.
    for (b, chunk) in series.chunks(bucket).enumerate() {
        let n = chunk.len() as f64;
        let mean_c = chunk.iter().map(|s| s.0).sum::<f64>() / n;
        let mean_p = chunk.iter().map(|s| s.1).sum::<f64>() / n;
        assert!(
            (mean_c - mean_p).abs() <= 0.05,
            "bucket {b}: CryptoCNN {mean_c} vs LeNet {mean_p}"
        );
    }
}

/// The paper's two decimals of fixed point are enough: encrypted
/// training learns the clinic task at scales 10, 100 and 1000, and the
/// paper's scale 100 is as accurate as the finer 1000.
#[test]
fn two_decimals_of_fixed_point_suffice() {
    let train = clinic_dataset(80, 71);
    let test = clinic_dataset(60, 72);
    let squash = |m: &Matrix<f64>| m.map(|v: f64| (v / 3.0).clamp(-1.0, 1.0));
    let y_test = Matrix::from_fn(test.len(), 1, |r, _| test.labels()[r] as f64);

    let mut accs = Vec::new();
    for scale in [10u32, 100, 1000] {
        let config = CryptoNnConfig {
            fp: FixedPoint::new(scale),
            ..CryptoNnConfig::fast()
        };
        let auth = authority(&config, 73);
        let mut client = Client::for_mlp(&auth, train.feature_dim(), 1, config.fp, 74);
        let mut rng = StdRng::seed_from_u64(75);
        let mut model = CryptoMlp::binary(train.feature_dim(), &[8], config, &mut rng);

        let mut last_loss = f64::NAN;
        for _ in 0..8 {
            for (x, y) in train.batches(16) {
                let y_bin = Matrix::from_fn(y.rows(), 1, |r, _| y[(r, 1)]);
                let batch = client.encrypt_batch(&squash(&x), &y_bin).unwrap();
                last_loss = model
                    .train_encrypted_batch(&auth, &batch, 1.5)
                    .unwrap()
                    .loss;
            }
        }
        assert!(
            last_loss.is_finite(),
            "scale {scale}: final loss {last_loss}"
        );
        let acc = binary_accuracy(&model.predict_plain(&squash(test.images())), &y_test);
        assert!(acc >= 0.8, "scale {scale}: test accuracy {acc}");
        accs.push(acc);
    }
    assert!(
        (accs[1] - accs[2]).abs() <= 0.05,
        "scale 100 ({}) should match scale 1000 ({})",
        accs[1],
        accs[2]
    );
}

/// The authority's communication log reflects §IV-B2's model: per
/// iteration the server sends k·n weights and receives k keys.
#[test]
fn key_traffic_matches_the_papers_accounting() {
    let config = CryptoNnConfig::fast();
    let auth = authority(&config, 15);
    let features = 8;
    let hidden = 5;
    let mut client = Client::for_mlp(&auth, features, 1, config.fp, 16);
    let mut rng = StdRng::seed_from_u64(17);
    let mut model = CryptoMlp::binary(features, &[hidden], config, &mut rng);

    let x = Matrix::from_fn(4, features, |_, c| (c as f64) / 10.0);
    let y = Matrix::from_fn(4, 1, |r, _| (r % 2) as f64);
    let batch = client.encrypt_batch(&x, &y).unwrap();

    auth.reset_comm_log();
    model.train_encrypted_batch(&auth, &batch, 0.5).unwrap();
    let log = auth.comm_log();

    // Secure feed-forward: k keys of n weights each (k=hidden, n=features).
    // Secure gradient: n unit keys of n weights each (first iteration only)
    // + secure loss: 0 for MSE. Plus FEBO sub: classes × batch requests.
    assert!(log.ip_requests >= (hidden + features) as u64);
    assert_eq!(log.bo_requests, 4, "one FEBO Sub request per output cell");
    assert!(log.ip_weights_received >= (hidden * features + features * features) as u64);

    // Second iteration: unit keys are cached, so exactly k more IP
    // requests and 4 more FEBO requests.
    let before = auth.comm_log();
    model.train_encrypted_batch(&auth, &batch, 0.5).unwrap();
    let after = auth.comm_log();
    let (k, n, bo) = (hidden as u64, features as u64, 4);
    assert_eq!(after.ip_requests - before.ip_requests, k);
    assert_eq!(after.bo_requests - before.bo_requests, bo);
    // The paper's k·n weights to the authority, then its byte totals:
    // k·n·|w| plus one commitment and one weight per FEBO request sent,
    // one key per request received.
    assert_eq!(
        after.ip_weights_received - before.ip_weights_received,
        k * n
    );
    assert_eq!(
        after.bytes_received() - before.bytes_received(),
        k * n * WEIGHT_BYTES + bo * (COMMITMENT_BYTES + WEIGHT_BYTES)
    );
    assert_eq!(
        after.bytes_sent() - before.bytes_sent(),
        (k + bo) * KEY_BYTES
    );
}
