//! The client (data-owner) role of the CryptoNN architecture (Fig. 1).
//!
//! Clients pre-process their training data — flattening images, one-hot
//! encoding labels — quantize it, and encrypt it under the authority's
//! public keys before anything leaves their machine. Several clients
//! encrypting under the same `mpk` can feed one server-side model (the
//! paper's "distributed data source" property); the session layer in
//! `cryptonn-protocol` drives exactly that topology, constructing each
//! client from the wire-delivered public parameters via
//! [`Client::from_keys`].

use cryptonn_fe::{FeboPublicKey, FeipPublicKey, KeyAuthority};
use cryptonn_matrix::{ConvSpec, Matrix, Tensor4};
use cryptonn_smc::{
    encrypt_windows_with, EncryptedMatrix, EncryptedWindows, FixedPoint, Parallelism,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::error::CryptoNnError;

/// One encrypted mini-batch for MLP-style training.
///
/// `x` holds the sample feature vectors as FEIP-encrypted *columns*
/// (`features × batch`), which serve both the secure feed-forward
/// (`W·X`) and — via ciphertext combination — the secure first-layer
/// gradient (`δ·Xᵀ`). `y` holds one-hot labels (`classes × batch`)
/// encrypted both ways: FEIP columns for the secure loss inner product
/// and FEBO elements for the secure `Ŷ − Y` evaluation. Prediction
/// batches ([`Client::encrypt_features`]) carry no labels at all.
///
/// Serializable: this is the payload that crosses the wire in the
/// session layer's `EncryptedBatchMsg`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncryptedBatch {
    pub(crate) x: EncryptedMatrix,
    pub(crate) y: Option<EncryptedMatrix>,
    pub(crate) classes: usize,
    pub(crate) batch_size: usize,
    /// Largest |quantized| feature value — public metadata the server
    /// needs to size its discrete-log search.
    pub(crate) max_abs_x: u64,
}

impl EncryptedBatch {
    /// Number of samples in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Feature dimensionality.
    pub fn feature_dim(&self) -> usize {
        self.x.rows()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The batch's declared largest |quantized feature|. It comes off
    /// the wire unchecked and sizes the server's discrete-log search,
    /// so a serving layer bounds it before queuing the batch (see
    /// [`CryptoMlp::predict_bound`](crate::CryptoMlp::predict_bound)).
    pub fn max_abs_x(&self) -> u64 {
        self.max_abs_x
    }

    /// The encrypted label matrix (`classes × batch`) if this batch was
    /// encrypted for training; `None` for prediction batches.
    pub fn labels(&self) -> Option<&EncryptedMatrix> {
        self.y.as_ref()
    }

    /// The encrypted labels, or a typed error for a prediction batch
    /// fed into a training step.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoNnError::MissingLabels`] when the batch carries
    /// no labels.
    pub fn require_labels(&self) -> Result<&EncryptedMatrix, CryptoNnError> {
        self.y.as_ref().ok_or(CryptoNnError::MissingLabels)
    }
}

/// One encrypted mini-batch for CNN training: FEIP-encrypted convolution
/// windows (Algorithm 3) plus encrypted labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EncryptedImageBatch {
    pub(crate) windows: EncryptedWindows,
    pub(crate) y: EncryptedMatrix,
    pub(crate) batch_size: usize,
    pub(crate) max_abs_x: u64,
}

impl EncryptedImageBatch {
    /// Number of images in the batch.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Window vector length (`c·kh·kw`).
    pub fn window_dim(&self) -> usize {
        self.windows.dim()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.y.rows()
    }

    /// The encrypted label matrix (`classes × batch`).
    pub fn labels(&self) -> &EncryptedMatrix {
        &self.y
    }
}

/// A CryptoNN client: quantizes and encrypts its own data under the
/// authority's public keys.
///
/// Encryption is the client's dominant cost (`η + 1` fixed-base
/// exponentiations per sample); [`with_parallelism`](Self::with_parallelism)
/// fans the per-sample work out over threads through the FE layer's
/// batch-encrypt API. The ciphertexts are bit-identical regardless of
/// the thread count.
#[derive(Debug)]
pub struct Client {
    fp: FixedPoint,
    x_mpk: FeipPublicKey,
    y_mpk: FeipPublicKey,
    febo_mpk: FeboPublicKey,
    classes: usize,
    rng: StdRng,
    parallelism: Parallelism,
}

impl Client {
    /// Creates a client directly from public keys — the form the
    /// session layer uses, where the keys arrive in a `PublicParams`
    /// wire message rather than from a co-located authority.
    ///
    /// `x_mpk` fixes the feature (or window) dimension, `y_mpk` the
    /// class count.
    pub fn from_keys(
        x_mpk: FeipPublicKey,
        y_mpk: FeipPublicKey,
        febo_mpk: FeboPublicKey,
        fp: FixedPoint,
        seed: u64,
    ) -> Self {
        let classes = y_mpk.dimension();
        Self {
            fp,
            x_mpk,
            y_mpk,
            febo_mpk,
            classes,
            rng: StdRng::seed_from_u64(seed),
            parallelism: Parallelism::Serial,
        }
    }

    /// Creates a client for MLP-style training: feature vectors of
    /// length `feature_dim`, `classes` output classes.
    pub fn for_mlp(
        authority: &KeyAuthority,
        feature_dim: usize,
        classes: usize,
        fp: FixedPoint,
        seed: u64,
    ) -> Self {
        Self::from_keys(
            authority.feip_public_key(feature_dim),
            authority.feip_public_key(classes),
            authority.febo_public_key(),
            fp,
            seed,
        )
    }

    /// Creates a client for CNN training: the server has published its
    /// first-layer convolution geometry (`spec`, `in_channels`) per
    /// Algorithm 3, which fixes the window dimension.
    pub fn for_cnn(
        authority: &KeyAuthority,
        spec: &ConvSpec,
        in_channels: usize,
        classes: usize,
        fp: FixedPoint,
        seed: u64,
    ) -> Self {
        let window_dim = in_channels * spec.kh * spec.kw;
        Self::from_keys(
            authority.feip_public_key(window_dim),
            authority.feip_public_key(classes),
            authority.febo_public_key(),
            fp,
            seed,
        )
    }

    /// Sets the thread policy for this client's encryption fan-out.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// The thread policy used for encryption.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The shared feature preamble of every encrypt path: shape checks,
    /// transpose to the paper's samples-as-columns layout, quantization,
    /// and the max-|x| metadata the server's dlog bound needs.
    fn quantize_features(&self, x: &Matrix<f64>) -> Result<(Matrix<i64>, u64), CryptoNnError> {
        if x.cols() != self.x_mpk.dimension() {
            return Err(CryptoNnError::BatchShapeMismatch {
                expected: self.x_mpk.dimension(),
                got: x.cols(),
                what: "feature dimension",
            });
        }
        let xq = self.fp.encode_matrix(&x.transpose()); // features × batch
        let max_abs_x = xq
            .as_slice()
            .iter()
            .map(|v| v.unsigned_abs())
            .max()
            .unwrap_or(0)
            .max(1);
        Ok((xq, max_abs_x))
    }

    /// The shared label preamble + encryption: shape checks, one-hot
    /// quantization, and the dual FEIP/FEBO label encryption that both
    /// the MLP and CNN batch paths use.
    fn encrypt_labels(
        &mut self,
        y_onehot: &Matrix<f64>,
        batch_size: usize,
    ) -> Result<EncryptedMatrix, CryptoNnError> {
        if y_onehot.cols() != self.classes {
            return Err(CryptoNnError::BatchShapeMismatch {
                expected: self.classes,
                got: y_onehot.cols(),
                what: "class count",
            });
        }
        if y_onehot.rows() != batch_size {
            return Err(CryptoNnError::BatchShapeMismatch {
                expected: batch_size,
                got: y_onehot.rows(),
                what: "batch size",
            });
        }
        let yq = self.fp.encode_matrix(&y_onehot.transpose()); // classes × batch
        Ok(EncryptedMatrix::encrypt_full_with(
            &yq,
            &self.y_mpk,
            &self.febo_mpk,
            &mut self.rng,
            self.parallelism,
        )?)
    }

    /// Encrypts an MLP batch: `x` is `(batch, features)`, `y_onehot` is
    /// `(batch, classes)`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoNnError::BatchShapeMismatch`] if the shapes do
    /// not match this client's configuration.
    pub fn encrypt_batch(
        &mut self,
        x: &Matrix<f64>,
        y_onehot: &Matrix<f64>,
    ) -> Result<EncryptedBatch, CryptoNnError> {
        let (xq, max_abs_x) = self.quantize_features(x)?;
        let enc_y = self.encrypt_labels(y_onehot, x.rows())?;
        let enc_x = EncryptedMatrix::encrypt_columns_with(
            &xq,
            &self.x_mpk,
            &mut self.rng,
            self.parallelism,
        )?;
        Ok(EncryptedBatch {
            x: enc_x,
            y: Some(enc_y),
            classes: self.classes,
            batch_size: x.rows(),
            max_abs_x,
        })
    }

    /// Encrypts features only, for the prediction phase. The resulting
    /// batch carries no labels — and skips the label-encryption cost
    /// entirely — so feeding it to a training step fails with
    /// [`CryptoNnError::MissingLabels`] rather than training on dummy
    /// zeros.
    ///
    /// # Errors
    ///
    /// As [`encrypt_batch`](Self::encrypt_batch) for the feature checks.
    pub fn encrypt_features(&mut self, x: &Matrix<f64>) -> Result<EncryptedBatch, CryptoNnError> {
        let (xq, max_abs_x) = self.quantize_features(x)?;
        let enc_x = EncryptedMatrix::encrypt_columns_with(
            &xq,
            &self.x_mpk,
            &mut self.rng,
            self.parallelism,
        )?;
        Ok(EncryptedBatch {
            x: enc_x,
            y: None,
            classes: self.classes,
            batch_size: x.rows(),
            max_abs_x,
        })
    }

    /// Encrypts a CNN batch: `images` is `(batch, c, h, w)`, `y_onehot`
    /// is `(batch, classes)`. The windows are extracted and encrypted
    /// per Algorithm 3 using the server-published `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoNnError::BatchShapeMismatch`] on any shape
    /// disagreement.
    pub fn encrypt_image_batch(
        &mut self,
        images: &Tensor4,
        y_onehot: &Matrix<f64>,
        spec: &ConvSpec,
    ) -> Result<EncryptedImageBatch, CryptoNnError> {
        let (n, c, _, _) = images.shape();
        let window_dim = c * spec.kh * spec.kw;
        if window_dim != self.x_mpk.dimension() {
            return Err(CryptoNnError::BatchShapeMismatch {
                expected: self.x_mpk.dimension(),
                got: window_dim,
                what: "window dimension",
            });
        }
        let enc_y = self.encrypt_labels(y_onehot, n)?;
        let max_abs_x = images
            .as_slice()
            .iter()
            .map(|&v| self.fp.encode(v).unsigned_abs())
            .max()
            .unwrap_or(0)
            .max(1);
        let windows = encrypt_windows_with(
            images,
            spec,
            self.fp,
            &self.x_mpk,
            &mut self.rng,
            self.parallelism,
        )?;
        Ok(EncryptedImageBatch {
            windows,
            y: enc_y,
            batch_size: n,
            max_abs_x,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_fe::PermittedFunctions;
    use cryptonn_group::{SchnorrGroup, SecurityLevel};

    fn authority() -> KeyAuthority {
        let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
        KeyAuthority::with_seed(group, PermittedFunctions::all(), 31)
    }

    #[test]
    fn encrypts_mlp_batch() {
        let auth = authority();
        let mut client = Client::for_mlp(&auth, 4, 3, FixedPoint::TWO_DECIMALS, 1);
        let x = Matrix::from_fn(5, 4, |r, c| (r + c) as f64 / 10.0);
        let y = Matrix::from_fn(5, 3, |r, c| if r % 3 == c { 1.0 } else { 0.0 });
        let batch = client.encrypt_batch(&x, &y).unwrap();
        assert_eq!(batch.batch_size(), 5);
        assert_eq!(batch.feature_dim(), 4);
        assert_eq!(batch.classes(), 3);
        assert!(batch.max_abs_x <= 100);
        assert!(batch.labels().is_some());
    }

    #[test]
    fn rejects_bad_shapes() {
        let auth = authority();
        let mut client = Client::for_mlp(&auth, 4, 3, FixedPoint::TWO_DECIMALS, 2);
        let x = Matrix::zeros(2, 5); // wrong feature dim
        let y = Matrix::zeros(2, 3);
        assert!(matches!(
            client.encrypt_batch(&x, &y),
            Err(CryptoNnError::BatchShapeMismatch {
                what: "feature dimension",
                ..
            })
        ));
        let x = Matrix::zeros(2, 4);
        let y = Matrix::zeros(3, 3); // wrong batch size
        assert!(matches!(
            client.encrypt_batch(&x, &y),
            Err(CryptoNnError::BatchShapeMismatch {
                what: "batch size",
                ..
            })
        ));
        let x = Matrix::zeros(2, 4);
        let y = Matrix::zeros(2, 2); // wrong class count
        assert!(matches!(
            client.encrypt_batch(&x, &y),
            Err(CryptoNnError::BatchShapeMismatch {
                what: "class count",
                ..
            })
        ));
    }

    #[test]
    fn encrypts_image_batch() {
        let auth = authority();
        let spec = ConvSpec::square(3, 1, 1);
        let mut client = Client::for_cnn(&auth, &spec, 1, 10, FixedPoint::TWO_DECIMALS, 3);
        let images = Tensor4::zeros(2, 1, 8, 8);
        let y = Matrix::from_fn(2, 10, |r, c| if c == r { 1.0 } else { 0.0 });
        let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();
        assert_eq!(batch.batch_size(), 2);
        assert_eq!(batch.window_dim(), 9);
        assert_eq!(batch.classes(), 10);
    }

    #[test]
    fn inference_batch_has_no_labels() {
        let auth = authority();
        let mut client = Client::for_mlp(&auth, 2, 2, FixedPoint::TWO_DECIMALS, 4);
        let x = Matrix::from_rows(&[&[0.1, 0.9]]);
        let batch = client.encrypt_features(&x).unwrap();
        assert_eq!(batch.batch_size(), 1);
        assert_eq!(batch.classes(), 2);
        assert!(batch.labels().is_none());
        assert!(matches!(
            batch.require_labels(),
            Err(CryptoNnError::MissingLabels)
        ));
    }

    #[test]
    fn from_keys_matches_authority_constructor() {
        let auth = authority();
        let mut a = Client::for_mlp(&auth, 3, 2, FixedPoint::TWO_DECIMALS, 9);
        let mut b = Client::from_keys(
            auth.feip_public_key(3),
            auth.feip_public_key(2),
            auth.febo_public_key(),
            FixedPoint::TWO_DECIMALS,
            9,
        );
        let x = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f64 / 10.0);
        let y = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        // Same keys, same seed: bit-identical ciphertexts.
        assert_eq!(
            a.encrypt_batch(&x, &y).unwrap(),
            b.encrypt_batch(&x, &y).unwrap()
        );
    }
}
