//! The server-side secure computations of Algorithm 2.
//!
//! CryptoNN replaces exactly four computations of normal training with
//! secure ones; everything else stays plaintext on the server:
//!
//! 1. **Secure feed-forward** — first-layer pre-activation `W·X`
//!    ([`secure_dense_forward`]) or the first convolution
//!    ([`secure_conv_forward`]).
//! 2. **Secure evaluation** — the output-layer error `P − Y` against the
//!    encrypted labels ([`secure_output_delta`]).
//! 3. **Secure loss** — the cross-entropy `−⟨y, log p⟩`
//!    ([`secure_cross_entropy_loss`]).
//! 4. **Secure first-layer gradient** — `δ·Xᵀ`, via the linear
//!    homomorphism of FEIP ciphertexts ([`secure_dense_weight_grad`],
//!    [`secure_conv_weight_grad`]); the paper's Algorithm 2 leaves this
//!    step implicit, see DESIGN.md §4.

use cryptonn_fe::{feip, BasicOp, FeError, FeipCiphertext, FeipFunctionKey, KeyService};
use cryptonn_matrix::Matrix;
use cryptonn_nn::{Conv2D, Dense};
use cryptonn_smc::{
    derive_dot_keys, derive_elementwise_keys, derive_filter_keys, parallel_map, secure_convolution,
    secure_dot, secure_elementwise, FixedPoint, Parallelism,
};

use crate::client::{EncryptedBatch, EncryptedImageBatch};
use crate::error::CryptoNnError;
use crate::tables::DlogTableCache;

/// Largest |value| of a quantized operand matrix, floored at 1 — the
/// shared convention every dlog-bound computation uses.
pub(crate) fn max_abs_q(m: &Matrix<i64>) -> u64 {
    m.as_slice()
        .iter()
        .map(|v| v.unsigned_abs())
        .max()
        .unwrap_or(0)
        .max(1)
}

/// The dlog bound a secure product of `layer`'s weights against
/// batches whose largest |quantized feature| is `max_abs_x` needs:
/// `in_dim · max_abs_x · max|Wq|`, saturating. Quantizing is monotone
/// and odd-symmetric in the weight, so the largest |quantized weight|
/// is the quantized largest |weight| — no quantized copy of the matrix.
pub(crate) fn dense_bound(layer: &Dense, fp: FixedPoint, max_abs_x: u64) -> u64 {
    let max_w = layer
        .weights()
        .as_slice()
        .iter()
        .fold(0.0f64, |a, &w| a.max(w.abs()));
    let max_q = fp.encode(max_w).unsigned_abs().max(1);
    (layer.in_dim() as u64)
        .saturating_mul(max_abs_x)
        .saturating_mul(max_q)
}

/// Derives FEIP keys for all `dim` unit vectors — used to read the
/// coordinates of the δ-weighted combinations that make up the secure
/// gradient. The trainer caches the result across iterations.
///
/// # Errors
///
/// Propagates authority refusals.
pub fn derive_unit_keys<A: KeyService + ?Sized>(
    authority: &A,
    dim: usize,
) -> Result<Vec<FeipFunctionKey>, CryptoNnError> {
    let units: Vec<Vec<i64>> = (0..dim)
        .map(|j| {
            let mut unit = vec![0i64; dim];
            unit[j] = 1;
            unit
        })
        .collect();
    Ok(authority.derive_ip_keys(dim, &units)?)
}

/// Secure feed-forward for a dense first layer: computes
/// `Z₁ = X·W + b` (batch-major) from the encrypted batch, learning only
/// the product — exactly `a = g(skf(W)·enc(X) + b)` from §III-A before
/// the activation.
///
/// # Errors
///
/// Propagates secure-computation failures; a `DlogOutOfRange` inside
/// means the bound bookkeeping was violated (a bug, not a user error).
/// [`CryptoNnError::DlogBoundTooLarge`] if the batch's declared
/// `max_abs_x` sizes the search past [`crate::MAX_DLOG_BOUND`].
pub fn secure_dense_forward<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    batch: &EncryptedBatch,
    layer: &Dense,
    fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<Matrix<f64>, CryptoNnError> {
    let n = batch.feature_dim();
    if layer.in_dim() != n {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: layer.in_dim(),
            got: n,
            what: "feature dimension",
        });
    }
    let table = cache.table(dense_bound(layer, fp, batch.max_abs_x))?;
    // Server operand: quantized Wᵀ (out × in), one row per neuron.
    let wq = fp.encode_matrix(&layer.weights().transpose());

    let keys = derive_dot_keys(authority, &wq)?;
    let mpk = authority.feip_public_key(n)?;
    let zq = secure_dot(&mpk, &batch.x, &keys, &wq, &table, parallelism)?;
    // zq is (out × batch) carrying scale²; decode and return batch-major
    // with the bias added.
    let z = fp.decode_product_matrix(&zq).transpose();
    Ok(z.add_row_broadcast(layer.bias()))
}

/// Secure evaluation at the output layer: recovers `P − Y` from the
/// FEBO-encrypted labels and the server's plaintext predictions `p`
/// (`batch × classes`). This is the `∂L/∂A = P − Y` term of §III-D /
/// §III-E2, computed without learning `Y` itself beyond the difference.
///
/// # Errors
///
/// Propagates secure-computation failures.
pub fn secure_output_delta<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    enc_y: &cryptonn_smc::EncryptedMatrix,
    p: &Matrix<f64>,
    fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<Matrix<f64>, CryptoNnError> {
    if p.cols() != enc_y.rows() || p.rows() != enc_y.cols() {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: enc_y.rows(),
            got: p.cols(),
            what: "class count",
        });
    }
    // Server operand: quantized P in the classes × batch layout.
    let pq = fp.encode_matrix(&p.transpose());
    let scale = fp.scale() as u64;
    let bound = scale.saturating_add(max_abs_q(&pq)).saturating_mul(2);
    let table = cache.table(bound)?;

    let keys = derive_elementwise_keys(authority, enc_y, BasicOp::Sub, &pq)?;
    let febo_mpk = authority.febo_public_key()?;
    let diff = secure_elementwise(
        &febo_mpk,
        enc_y,
        &keys,
        BasicOp::Sub,
        &pq,
        &table,
        parallelism,
    )?;
    // diff = Yq − Pq at a single scale; P − Y = −decode(diff).
    Ok(fp.decode_matrix(&diff).transpose().neg())
}

/// Secure cross-entropy loss `−(1/N) Σ ⟨yₛ, log pₛ⟩` via one FEIP
/// decryption per sample against the encrypted label columns (§III-E2:
/// "the loss L = −⟨y, p′⟩ is a kind of inner-product computation").
///
/// # Errors
///
/// Propagates secure-computation failures.
pub fn secure_cross_entropy_loss<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    enc_y: &cryptonn_smc::EncryptedMatrix,
    p: &Matrix<f64>,
    fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<f64, CryptoNnError> {
    let classes = enc_y.rows();
    let samples = enc_y.cols();
    if p.rows() != samples || p.cols() != classes {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: samples,
            got: p.rows(),
            what: "batch size",
        });
    }

    // Server operand p′ = quantized log-probabilities, one row per sample.
    let logp = p.map(|v| v.max(1e-30).ln());
    let lq = fp.encode_matrix(&logp);
    let scale = fp.scale() as u64;
    let bound = (classes as u64)
        .saturating_mul(scale)
        .saturating_mul(max_abs_q(&lq));
    let table = cache.table(bound)?;

    // One key per sample (each sample has its own p′ vector), requested
    // as a single batch so a wire-backed authority sees one message.
    let ys: Vec<Vec<i64>> = (0..samples).map(|s| lq.row(s).to_vec()).collect();
    let keys = authority.derive_ip_keys(classes, &ys)?;
    let mpk = authority.feip_public_key(classes)?;
    let columns = enc_y.feip_columns()?;
    let results: Vec<Result<i64, FeError>> =
        parallel_map(samples, parallelism.thread_count(), |s| {
            feip::decrypt(&mpk, &columns[s], &keys[s], lq.row(s), &table)
        });
    let mut total = 0.0;
    for r in results {
        total += fp.decode_product(r?);
    }
    Ok(-total / samples as f64)
}

/// Quantizes a plaintext delta matrix for the secure gradient with a
/// dynamic fixed point: normalized by the batch's largest |δ| so tiny
/// deltas (vanishing gradients through sigmoid stacks) keep full
/// relative precision at the configured resolution. Returns the
/// quantized matrix and the factor it was scaled by, or `None` when
/// every delta is zero (the gradient is zero without any decryption).
///
/// # Errors
///
/// [`CryptoNnError::NonFiniteDelta`] if any entry is NaN or infinite —
/// `NaN as i64` is 0 and `±∞` saturates, so quantizing one would train
/// a diverged model on silent garbage.
fn quantize_delta(
    delta: &Matrix<f64>,
    grad_fp: FixedPoint,
) -> Result<Option<(Matrix<i64>, f64)>, CryptoNnError> {
    if delta.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(CryptoNnError::NonFiniteDelta);
    }
    let max_delta = delta.as_slice().iter().fold(0.0f64, |a, &b| a.max(b.abs()));
    if max_delta == 0.0 {
        return Ok(None);
    }
    let factor = grad_fp.scale() as f64 / max_delta;
    Ok(Some((delta.map(|v| (v * factor).round() as i64), factor)))
}

/// Secure first-layer weight gradient for a dense layer:
/// `∇W = δ·Xᵀ` where `δ` is the plaintext pre-activation delta
/// (`out × batch`) and `X` is only available encrypted. Each gradient
/// row is the δ-weighted combination of the encrypted sample columns,
/// read out coordinate-wise with the cached unit keys — all rows in one
/// [`feip::decrypt_combinations`] call, no combination materialised.
///
/// Returns the gradient in the layer's `(in, out)` orientation.
///
/// # Errors
///
/// [`CryptoNnError::NonFiniteDelta`] for a NaN or infinite delta;
/// otherwise propagates secure-computation failures.
#[allow(clippy::too_many_arguments)]
pub fn secure_dense_weight_grad<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    batch: &EncryptedBatch,
    delta: &Matrix<f64>,
    unit_keys: &[FeipFunctionKey],
    data_fp: FixedPoint,
    grad_fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<Matrix<f64>, CryptoNnError> {
    let n = batch.feature_dim();
    let m = batch.batch_size();
    if delta.cols() != m {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: m,
            got: delta.cols(),
            what: "batch size",
        });
    }
    let Some((dq, factor)) = quantize_delta(delta, grad_fp)? else {
        return Ok(Matrix::zeros(n, delta.rows()));
    };
    let bound = (m as u64)
        .saturating_mul(max_abs_q(&dq))
        .saturating_mul(batch.max_abs_x);
    let table = cache.table(bound)?;
    let mpk = authority.feip_public_key(n)?;
    let column_refs: Vec<&FeipCiphertext> = batch.x.feip_columns()?.iter().collect();
    let delta_rows: Vec<&[i64]> = dq.iter_rows().collect();

    // One fused call: the δ-weighted combinations (one per output
    // neuron) are read coordinate-wise and never materialised.
    let sums = feip::decrypt_combinations(
        &mpk,
        &column_refs,
        &delta_rows,
        unit_keys,
        &table,
        parallelism,
    )?;
    let denom = factor * data_fp.scale() as f64;
    // (out × in) → layer orientation (in × out).
    Ok(Matrix::from_vec(dq.rows(), n, sums)
        .map(|v| v as f64 / denom)
        .transpose())
}

/// Secure feed-forward for a first convolutional layer: Algorithm 3's
/// secure convolution, decoded back to floats with the layer bias added.
/// Output is `(batch, out_c·oh·ow)` in the standard layer layout.
///
/// # Errors
///
/// Propagates secure-computation failures.
pub fn secure_conv_forward<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    batch: &EncryptedImageBatch,
    layer: &Conv2D,
    fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<Matrix<f64>, CryptoNnError> {
    let dim = batch.window_dim();
    if layer.filters().cols() != dim {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: layer.filters().cols(),
            got: dim,
            what: "window dimension",
        });
    }
    let wq = fp.encode_matrix(layer.filters());
    let bound = (dim as u64)
        .saturating_mul(batch.max_abs_x)
        .saturating_mul(max_abs_q(&wq));
    let table = cache.table(bound)?;

    let keys = derive_filter_keys(authority, &wq)?;
    let mpk = authority.feip_public_key(dim)?;
    let zq = secure_convolution(&mpk, &batch.windows, &keys, &wq, &table, parallelism)?;
    let mut z = fp.decode_product_matrix(&zq);

    // Add the per-channel bias in the (oc·oh + oy)·ow + ox layout.
    let (oc, oh, ow) = layer.out_shape();
    debug_assert_eq!(z.cols(), oc * oh * ow);
    for r in 0..z.rows() {
        for c in 0..oc {
            for px in 0..oh * ow {
                z[(r, c * oh * ow + px)] += layer.bias()[c];
            }
        }
    }
    Ok(z)
}

/// Secure first-layer filter gradient for a convolutional layer:
/// `∇W[oc] = Σ_windows Gp[window, oc] · window`, the plaintext
/// per-window deltas `Gp` (`n_windows × out_c`) weighting the encrypted
/// window ciphertexts — all filters in one
/// [`feip::decrypt_combinations`] call, read coordinate-wise with the
/// cached unit keys, no combination materialised.
///
/// Returns the gradient in the layer's `(out_c, c·kh·kw)` orientation.
///
/// # Errors
///
/// [`CryptoNnError::NonFiniteDelta`] for a NaN or infinite delta;
/// otherwise propagates secure-computation failures.
#[allow(clippy::too_many_arguments)]
pub fn secure_conv_weight_grad<A: KeyService + ?Sized>(
    authority: &A,
    cache: &mut DlogTableCache,
    batch: &EncryptedImageBatch,
    grad_rows: &Matrix<f64>,
    unit_keys: &[FeipFunctionKey],
    data_fp: FixedPoint,
    grad_fp: FixedPoint,
    parallelism: Parallelism,
) -> Result<Matrix<f64>, CryptoNnError> {
    let windows = batch.windows.ciphertexts();
    if grad_rows.rows() != windows.len() {
        return Err(CryptoNnError::BatchShapeMismatch {
            expected: windows.len(),
            got: grad_rows.rows(),
            what: "window count",
        });
    }
    let dim = batch.window_dim();
    let Some((gq, factor)) = quantize_delta(grad_rows, grad_fp)? else {
        return Ok(Matrix::zeros(grad_rows.cols(), dim));
    };
    let out_c = gq.cols();
    let bound = (windows.len() as u64)
        .saturating_mul(max_abs_q(&gq))
        .saturating_mul(batch.max_abs_x);
    let table = cache.table(bound)?;

    let mpk = authority.feip_public_key(dim)?;
    let window_refs: Vec<&FeipCiphertext> = windows.iter().collect();
    // One weight row per filter: the rows of Gpᵀ.
    let gq_t = gq.transpose();
    let filter_rows: Vec<&[i64]> = gq_t.iter_rows().collect();

    let sums = feip::decrypt_combinations(
        &mpk,
        &window_refs,
        &filter_rows,
        unit_keys,
        &table,
        parallelism,
    )?;
    let denom = factor * data_fp.scale() as f64;
    Ok(Matrix::from_vec(out_c, dim, sums).map(|v| v as f64 / denom))
}
