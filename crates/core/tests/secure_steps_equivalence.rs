//! Direct equivalence tests for each secure step of Algorithm 2:
//! every secure computation must equal its plaintext reference on the
//! quantized values, and every misuse must yield a typed error.

use cryptonn_core::secure_steps::{
    derive_unit_keys, secure_conv_weight_grad, secure_cross_entropy_loss, secure_dense_forward,
    secure_dense_weight_grad, secure_output_delta,
};
use cryptonn_core::{
    Client, CryptoCnn, CryptoMlp, CryptoNnConfig, CryptoNnError, DlogTableCache, Objective,
};
use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::{SchnorrGroup, SecurityLevel};
use cryptonn_matrix::{im2col, ConvSpec, Matrix, Tensor4};
use cryptonn_nn::metrics::one_hot;
use cryptonn_nn::Dense;
use cryptonn_smc::{FixedPoint, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    authority: KeyAuthority,
    cache: DlogTableCache,
    config: CryptoNnConfig,
}

fn fixture(seed: u64) -> Fixture {
    fixture_with(CryptoNnConfig::fast(), seed)
}

fn fixture_with(config: CryptoNnConfig, seed: u64) -> Fixture {
    let group = SchnorrGroup::precomputed(config.level);
    Fixture {
        authority: KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed),
        cache: DlogTableCache::new(group),
        config,
    }
}

#[test]
fn secure_forward_equals_quantized_plaintext_forward() {
    let mut fx = fixture(81);
    let fp = fx.config.fp;
    let (n, k, m) = (5, 3, 4);

    let mut rng = StdRng::seed_from_u64(82);
    let layer = Dense::new(n, k, &mut rng);
    let x = Matrix::from_fn(m, n, |r, c| ((r * n + c) % 10) as f64 / 10.0);
    let y = Matrix::zeros(m, 1);

    let mut client = Client::for_mlp(&fx.authority, n, 1, fp, 83);
    let batch = client.encrypt_batch(&x, &y).unwrap();

    let z = secure_dense_forward(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &layer,
        fp,
        Parallelism::Serial,
    )
    .unwrap();

    // Reference: quantize x and W the same way, multiply in plaintext.
    let xq = fp.roundtrip_matrix(&x);
    let wq = fp.roundtrip_matrix(layer.weights());
    let expect = xq.matmul(&wq).add_row_broadcast(layer.bias());
    assert!(
        z.approx_eq(&expect, 1e-9),
        "distance {}",
        z.distance(&expect)
    );
}

#[test]
fn secure_delta_equals_quantized_p_minus_y() {
    let mut fx = fixture(84);
    let fp = fx.config.fp;
    let (classes, m) = (3, 4);
    let mut client = Client::for_mlp(&fx.authority, 2, classes, fp, 85);
    let x = Matrix::zeros(m, 2);
    let y = Matrix::from_fn(m, classes, |r, c| if r % classes == c { 1.0 } else { 0.0 });
    let batch = client.encrypt_batch(&x, &y).unwrap();

    let p = Matrix::from_fn(m, classes, |r, c| ((r + c) % 5) as f64 / 5.0);
    let delta = secure_output_delta(
        &fx.authority,
        &mut fx.cache,
        batch.require_labels().unwrap(),
        &p,
        fp,
        Parallelism::Serial,
    )
    .unwrap();
    let expect = fp.roundtrip_matrix(&p).sub(&fp.roundtrip_matrix(&y));
    assert!(delta.approx_eq(&expect, 1e-9));
}

#[test]
fn secure_loss_equals_quantized_cross_entropy() {
    let mut fx = fixture(86);
    let fp = fx.config.fp;
    let (classes, m) = (4, 3);
    let mut client = Client::for_mlp(&fx.authority, 2, classes, fp, 87);
    let x = Matrix::zeros(m, 2);
    let labels = [0usize, 2, 3];
    let y = Matrix::from_fn(m, classes, |r, c| if labels[r] == c { 1.0 } else { 0.0 });
    let batch = client.encrypt_batch(&x, &y).unwrap();

    // A valid probability matrix.
    let p = Matrix::from_fn(m, classes, |r, c| {
        let logits = [(r + c) as f64 / 3.0, 0.5, 1.0, 0.2][c % 4];
        logits.exp()
    });
    let row_sums = p.sum_cols();
    let p = Matrix::from_fn(m, classes, |r, c| p[(r, c)] / row_sums[(r, 0)]);

    let loss = secure_cross_entropy_loss(
        &fx.authority,
        &mut fx.cache,
        batch.require_labels().unwrap(),
        &p,
        fp,
        Parallelism::Serial,
    )
    .unwrap();

    // Reference with the same quantization of y and log p.
    let mut expect = 0.0;
    for (r, &lab) in labels.iter().enumerate() {
        let yq = fp.roundtrip(1.0);
        let lq = fp.roundtrip(p[(r, lab)].ln());
        expect -= yq * lq;
    }
    expect /= m as f64;
    assert!((loss - expect).abs() < 1e-9, "{loss} vs {expect}");
}

#[test]
fn secure_gradient_equals_delta_x_transpose() {
    let mut fx = fixture(88);
    let fp = fx.config.fp;
    let grad_fp = fx.config.grad_fp;
    let (n, k, m) = (4, 3, 5);
    let mut client = Client::for_mlp(&fx.authority, n, 1, fp, 89);
    let x = Matrix::from_fn(m, n, |r, c| ((r * 3 + c * 7) % 10) as f64 / 10.0);
    let y = Matrix::zeros(m, 1);
    let batch = client.encrypt_batch(&x, &y).unwrap();

    let delta = Matrix::from_fn(k, m, |r, c| ((r + c) as f64 - 3.0) / 100.0);
    let unit_keys = derive_unit_keys(&fx.authority, n).unwrap();
    let grad = secure_dense_weight_grad(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &delta,
        &unit_keys,
        fp,
        grad_fp,
        Parallelism::Threads(2),
    )
    .unwrap();

    // Reference: δ·X̂ᵀ on quantized data/deltas, in layer orientation.
    let xq = fp.roundtrip_matrix(&x); // m × n
    let expect = delta.matmul(&xq).transpose(); // n × k
    assert_eq!(grad.shape(), (n, k));
    // Dynamic delta quantization at grad_fp resolution: relative error
    // ~ 1e-4 of max |δ| per term, m terms.
    assert!(
        grad.approx_eq(&expect, 1e-3),
        "distance {}",
        grad.distance(&expect)
    );
}

/// The delta at the gradient resolution, exactly as the secure gradient
/// steps quantize it, and the factor that scaled it.
fn quantize_delta(delta: &Matrix<f64>, grad_fp: FixedPoint) -> (Matrix<i64>, f64) {
    let max = delta.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    let factor = grad_fp.scale() as f64 / max;
    (delta.map(|v| (v * factor).round() as i64), factor)
}

/// The integers under a decoded gradient: `grad · denom`, rounded.
fn gradient_integers(grad: &Matrix<f64>, denom: f64) -> Matrix<i64> {
    grad.map(|v| (v * denom).round() as i64)
}

/// A small signed delta matrix with zeros sprinkled in.
fn signed_delta(rows: usize, cols: usize) -> Matrix<f64> {
    Matrix::from_fn(rows, cols, |r, c| match (r * 7 + c * 3) % 11 {
        0 => 0.0,
        v => (v as f64 - 5.5) / 173.0,
    })
}

/// A dense batch of `m` samples with `n` features, and its plaintext.
fn dense_batch(fx: &Fixture, n: usize, m: usize) -> (cryptonn_core::EncryptedBatch, Matrix<f64>) {
    let mut client = Client::for_mlp(&fx.authority, n, 1, fx.config.fp, 89);
    let x = Matrix::from_fn(m, n, |r, c| ((r * 3 + c * 7) % 10) as f64 / 10.0);
    let batch = client.encrypt_batch(&x, &Matrix::zeros(m, 1)).unwrap();
    (batch, x)
}

/// An image batch of `n` 1×`side`×`side` images under a 3×3
/// same-padding convolution (`side²` windows of dimension 9 per image),
/// and its plaintext.
fn image_batch(
    fx: &Fixture,
    n: usize,
    side: usize,
) -> (cryptonn_core::EncryptedImageBatch, Tensor4, ConvSpec) {
    let spec = ConvSpec::square(3, 1, 1);
    let images = Tensor4::from_vec(
        n,
        1,
        side,
        side,
        (0..n * side * side)
            .map(|v| ((v * 5) % 13) as f64 / 13.0)
            .collect(),
    );
    let mut client = Client::for_cnn(&fx.authority, &spec, 1, 2, fx.config.fp, 97);
    let y = one_hot(&vec![0; n], 2);
    let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();
    (batch, images, spec)
}

#[test]
fn secure_dense_gradient_recovers_the_exact_integers() {
    let mut fx = fixture(95);
    let (fp, grad_fp) = (fx.config.fp, fx.config.grad_fp);
    // 9 features: ct₀ plus two full coordinate strides and a remainder.
    let (n, k, m) = (9, 3, 5);
    let (batch, x) = dense_batch(&fx, n, m);
    let delta = signed_delta(k, m);
    let unit_keys = derive_unit_keys(&fx.authority, n).unwrap();
    let grad = secure_dense_weight_grad(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &delta,
        &unit_keys,
        fp,
        grad_fp,
        Parallelism::Threads(2),
    )
    .unwrap();

    let (dq, factor) = quantize_delta(&delta, grad_fp);
    let expect = dq.matmul(&fp.encode_matrix(&x)); // k × n
    let got = gradient_integers(&grad.transpose(), factor * fp.scale() as f64);
    assert_eq!(got, expect);
}

#[test]
fn secure_conv_gradient_recovers_the_exact_integers() {
    let mut fx = fixture(96);
    let (fp, grad_fp) = (fx.config.fp, fx.config.grad_fp);
    let (batch, images, spec) = image_batch(&fx, 2, 6);
    let (windows, out_c) = (batch.batch_size() * 36, 3);
    let grad_rows = signed_delta(windows, out_c);
    let unit_keys = derive_unit_keys(&fx.authority, batch.window_dim()).unwrap();
    let grad = secure_conv_weight_grad(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &grad_rows,
        &unit_keys,
        fp,
        grad_fp,
        Parallelism::Threads(2),
    )
    .unwrap();

    // The window plaintexts, quantized as the client encrypted them.
    let windows_q = im2col(&images.map(|v| fp.encode(v) as f64), &spec).map(|v| v as i64);
    let (gq, factor) = quantize_delta(&grad_rows, grad_fp);
    let expect = gq.transpose().matmul(&windows_q); // out_c × dim
    let got = gradient_integers(&grad, factor * fp.scale() as f64);
    assert_eq!(got, expect);
}

/// `lenet_small`'s first layer at `Bits256Fast`, the `train_cnn`
/// geometry: 3 filters over a batch of eight 14×14 images, 1 568
/// windows of dimension 9. The filter gradient recovers the exact
/// integers `Σ_w gq[w,oc]·xq[w,j]`, bit for bit on one and two threads.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow: release CI runs it")]
fn secure_conv_gradient_is_exact_at_the_lenet_small_geometry() {
    let config = CryptoNnConfig {
        level: SecurityLevel::Bits256Fast,
        ..CryptoNnConfig::fast()
    };
    let mut fx = fixture_with(config, 101);
    let (fp, grad_fp) = (fx.config.fp, fx.config.grad_fp);
    let (batch, images, spec) = image_batch(&fx, 8, 14);
    let (windows, out_c) = (batch.batch_size() * 196, 3);
    assert_eq!((windows, batch.window_dim()), (1568, 9));
    let grad_rows = signed_delta(windows, out_c);
    let unit_keys = derive_unit_keys(&fx.authority, batch.window_dim()).unwrap();
    let mut run = |parallelism| {
        secure_conv_weight_grad(
            &fx.authority,
            &mut fx.cache,
            &batch,
            &grad_rows,
            &unit_keys,
            fp,
            grad_fp,
            parallelism,
        )
        .unwrap()
    };
    let serial = run(Parallelism::Serial);
    let threaded = run(Parallelism::Threads(2));
    assert_eq!(bits(&serial), bits(&threaded));

    let windows_q = im2col(&images.map(|v| fp.encode(v) as f64), &spec).map(|v| v as i64);
    let (gq, factor) = quantize_delta(&grad_rows, grad_fp);
    let expect = gq.transpose().matmul(&windows_q);
    assert_eq!(
        gradient_integers(&serial, factor * fp.scale() as f64),
        expect
    );
}

#[test]
fn non_finite_delta_fails_closed() {
    let mut fx = fixture(98);
    let (fp, grad_fp) = (fx.config.fp, fx.config.grad_fp);
    let (batch, _) = dense_batch(&fx, 4, 3);
    let (image_batch, _, _) = image_batch(&fx, 1, 6);
    let dense_keys = derive_unit_keys(&fx.authority, 4).unwrap();
    let conv_keys = derive_unit_keys(&fx.authority, image_batch.window_dim()).unwrap();
    let windows = image_batch.batch_size() * 36;
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut delta = signed_delta(2, 3);
        delta[(1, 2)] = bad;
        let dense = secure_dense_weight_grad(
            &fx.authority,
            &mut fx.cache,
            &batch,
            &delta,
            &dense_keys,
            fp,
            grad_fp,
            Parallelism::Serial,
        );
        assert_eq!(dense, Err(CryptoNnError::NonFiniteDelta), "dense, {bad}");

        let mut grad_rows = signed_delta(windows, 2);
        grad_rows[(5, 1)] = bad;
        let conv = secure_conv_weight_grad(
            &fx.authority,
            &mut fx.cache,
            &image_batch,
            &grad_rows,
            &conv_keys,
            fp,
            grad_fp,
            Parallelism::Serial,
        );
        assert_eq!(conv, Err(CryptoNnError::NonFiniteDelta), "conv, {bad}");
    }
}

/// The bits of every parameter a model step touched.
fn bits(m: &Matrix<f64>) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn one_step_weights_do_not_depend_on_the_thread_count() {
    let step_mlp = |parallelism| {
        let config = CryptoNnConfig {
            parallelism,
            ..CryptoNnConfig::fast()
        };
        let fx = fixture(99);
        let mut model = CryptoMlp::new(
            6,
            &[5],
            2,
            Objective::SoftmaxCrossEntropy,
            config,
            &mut StdRng::seed_from_u64(100),
        );
        let mut client = Client::for_mlp(&fx.authority, 6, 2, config.fp, 101);
        let x = Matrix::from_fn(7, 6, |r, c| ((r * 5 + c * 3) % 10) as f64 / 10.0);
        let batch = client
            .encrypt_batch(&x, &one_hot(&[0, 1, 1, 0, 1, 0, 0], 2))
            .unwrap();
        let out = model
            .train_encrypted_batch(&fx.authority, &batch, 0.5)
            .unwrap();
        let snap = model.snapshot().unwrap();
        let mut all = vec![out.loss.to_bits()];
        all.extend(bits(&snap.w1));
        all.extend(bits(&snap.b1));
        for layer in &snap.rest {
            all.extend(bits(&layer.w));
            all.extend(bits(&layer.b));
        }
        all
    };
    assert_eq!(
        step_mlp(Parallelism::Serial),
        step_mlp(Parallelism::Threads(2))
    );

    let step_cnn = |parallelism| {
        let config = CryptoNnConfig {
            parallelism,
            ..CryptoNnConfig::fast()
        };
        let fx = fixture(102);
        let mut model = CryptoCnn::lenet_small(config, 3, &mut StdRng::seed_from_u64(103));
        let images = Tensor4::from_vec(
            2,
            1,
            14,
            14,
            (0..392).map(|v| (v % 9) as f64 / 9.0).collect(),
        );
        let spec = model.conv_spec();
        let mut client = Client::for_cnn(&fx.authority, &spec, 1, 3, config.fp, 104);
        let batch = client
            .encrypt_image_batch(&images, &one_hot(&[0, 2], 3), &spec)
            .unwrap();
        let out = model
            .train_encrypted_batch(&fx.authority, &batch, 0.5)
            .unwrap();
        let mut all = vec![out.loss.to_bits()];
        all.extend(bits(model.first_layer().filters()));
        all.extend(model.first_layer().bias().iter().map(|v| v.to_bits()));
        all.extend(bits(&out.predictions));
        all
    };
    assert_eq!(
        step_cnn(Parallelism::Serial),
        step_cnn(Parallelism::Threads(2))
    );
}

#[test]
fn zero_delta_short_circuits_to_zero_gradient() {
    let mut fx = fixture(90);
    let (n, k, m) = (3, 2, 2);
    let mut client = Client::for_mlp(&fx.authority, n, 1, fx.config.fp, 91);
    let batch = client
        .encrypt_batch(&Matrix::zeros(m, n), &Matrix::zeros(m, 1))
        .unwrap();
    let unit_keys = derive_unit_keys(&fx.authority, n).unwrap();
    let grad = secure_dense_weight_grad(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &Matrix::zeros(k, m),
        &unit_keys,
        fx.config.fp,
        fx.config.grad_fp,
        Parallelism::Serial,
    )
    .unwrap();
    assert!(grad.as_slice().iter().all(|&v| v == 0.0));
}

#[test]
fn shape_mismatches_yield_typed_errors() {
    let mut fx = fixture(92);
    let mut rng = StdRng::seed_from_u64(93);
    let layer = Dense::new(7, 3, &mut rng); // expects 7 features
    let mut client = Client::for_mlp(&fx.authority, 4, 1, fx.config.fp, 94);
    let batch = client
        .encrypt_batch(&Matrix::zeros(2, 4), &Matrix::zeros(2, 1))
        .unwrap();
    let err = secure_dense_forward(
        &fx.authority,
        &mut fx.cache,
        &batch,
        &layer,
        fx.config.fp,
        Parallelism::Serial,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        cryptonn_core::CryptoNnError::BatchShapeMismatch {
            expected: 7,
            got: 4,
            ..
        }
    ));
}

#[test]
fn quantization_codec_used_by_client_matches_fixed_point() {
    // The client quantizes with FixedPoint; make sure the public codec
    // agrees with what the secure forward assumed.
    let fp = FixedPoint::TWO_DECIMALS;
    for v in [0.0, 0.25, -0.999, 1.0] {
        assert!((fp.roundtrip(v) - v).abs() <= 0.005 + 1e-12);
    }
}
