//! CryptoCNN on (synthetic) MNIST — the paper's headline experiment at
//! demo scale.
//!
//! Trains the scaled-down CryptoCNN (LeNet topology over 14×14 digits)
//! on encrypted images and labels, against a plaintext twin with the
//! same initialization, and reports batch accuracy for both — a mini
//! version of Fig. 6. The asserted Fig. 6 / Table III comparison is
//! `cryptocnn_matches_lenet_accuracy_per_epoch_and_bucket` in
//! `tests/end_to_end.rs`.
//!
//! Run with: `cargo run --release -p cryptonn-suite --example encrypted_mnist`

use cryptonn_core::{Client, CryptoCnn, CryptoNnConfig};
use cryptonn_data::{synthetic_digits, DigitConfig};
use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::SchnorrGroup;
use cryptonn_matrix::Tensor4;
use cryptonn_nn::accuracy;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CryptoNnConfig::fast();
    let group = SchnorrGroup::precomputed(config.level);
    let authority = KeyAuthority::with_seed(group, PermittedFunctions::all(), 606);

    // Demo scale: 2 digit classes, 14×14 images, a few dozen samples.
    let classes = 2;
    let train = synthetic_digits(96, DigitConfig::small(), 11);
    // Keep only labels < classes (synthetic_digits cycles 0..10).
    let keep: Vec<usize> = (0..train.len())
        .filter(|&i| train.labels()[i] < classes)
        .collect();
    println!(
        "training CryptoCNN vs plaintext LeNet on {} encrypted digits",
        keep.len()
    );

    let mut rng = StdRng::seed_from_u64(12);
    let mut crypto = CryptoCnn::lenet_small(config, classes, &mut rng);
    let mut rng_twin = StdRng::seed_from_u64(12);
    let mut plain = CryptoCnn::lenet_small(config, classes, &mut rng_twin);

    let spec = crypto.conv_spec();
    let mut client = Client::for_cnn(&authority, &spec, 1, classes, config.fp, 13)
        .with_parallelism(config.parallelism);

    let batch_size = 8;
    for epoch in 0..8 {
        let mut enc_correct = 0.0;
        let mut plain_correct = 0.0;
        let mut enc_loss = 0.0;
        let mut plain_loss = 0.0;
        let mut batches = 0.0;
        for chunk in keep.chunks(batch_size) {
            // Assemble the batch tensor and one-hot labels.
            let n = chunk.len();
            let mut data = Vec::with_capacity(n * 196);
            let mut labels = Vec::with_capacity(n);
            for &i in chunk {
                data.extend_from_slice(train.images().row(i));
                labels.push(train.labels()[i]);
            }
            let images = Tensor4::from_vec(n, 1, 14, 14, data);
            let y = cryptonn_nn::one_hot(&labels, classes);

            // Encrypted arm: client encrypts, server trains blind.
            let enc_batch = client.encrypt_image_batch(&images, &y, &spec)?;
            let step = crypto.train_encrypted_batch(&authority, &enc_batch, 0.3)?;
            enc_correct += accuracy(&step.predictions, &y);
            enc_loss += step.loss;

            // Plaintext twin.
            let step_p = plain.train_plain_batch(&images.flatten(), &y, 0.3);
            plain_correct += accuracy(&step_p.predictions, &y);
            plain_loss += step_p.loss;
            batches += 1.0;
        }
        println!(
            "epoch {epoch}: loss — CryptoCNN {:.4}, LeNet {:.4} | avg batch accuracy — CryptoCNN {:.3}, LeNet {:.3}",
            enc_loss / batches,
            plain_loss / batches,
            enc_correct / batches,
            plain_correct / batches
        );
    }

    let log = authority.comm_log();
    println!(
        "\nauthority key traffic: {} FEIP requests, {} FEBO requests, {:.1} KiB in, {:.1} KiB out",
        log.ip_requests,
        log.bo_requests,
        log.bytes_received() as f64 / 1024.0,
        log.bytes_sent() as f64 / 1024.0
    );
    Ok(())
}
