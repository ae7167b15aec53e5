//! CryptoCNN — the concrete CryptoNN instantiation over LeNet-5
//! (§III-E of the paper).

use cryptonn_fe::{FeipFunctionKey, KeyService};
use cryptonn_matrix::{ConvSpec, Matrix};
use cryptonn_nn::Loss;
use cryptonn_nn::{
    Activation, ActivationLayer, AvgPool2D, Conv2D, Dense, Layer, Sequential, SoftmaxCrossEntropy,
};
use rand::Rng;

use crate::client::EncryptedImageBatch;
use crate::config::CryptoNnConfig;
use crate::error::CryptoNnError;
use crate::mlp::StepOutput;
use crate::secure_steps::{
    derive_unit_keys, secure_conv_forward, secure_conv_weight_grad, secure_cross_entropy_loss,
    secure_output_delta,
};
use crate::tables::DlogTableCache;

/// A CryptoNN convolutional network: the first convolution runs over
/// FEIP-encrypted windows (Algorithm 3), the output layer evaluates
/// against FEBO/FEIP-encrypted labels, and everything in between is the
/// plaintext [`Sequential`] stack.
#[derive(Debug)]
pub struct CryptoCnn {
    first: Conv2D,
    rest: Sequential,
    config: CryptoNnConfig,
    cache: DlogTableCache,
    unit_keys: Option<Vec<FeipFunctionKey>>,
}

impl CryptoCnn {
    /// Builds a CryptoCNN from an explicit first convolution and
    /// remaining stack. The final `rest` layer must emit class logits
    /// (softmax + cross-entropy is applied per §III-E2).
    pub fn from_parts(first: Conv2D, rest: Sequential, config: CryptoNnConfig) -> Self {
        let group = cryptonn_group::SchnorrGroup::precomputed(config.level);
        Self {
            first,
            rest,
            config,
            cache: DlogTableCache::new(group),
            unit_keys: None,
        }
    }

    /// The paper's CryptoCNN: LeNet-5 over 1×28×28 inputs, 10 classes.
    pub fn lenet5<R: Rng + ?Sized>(config: CryptoNnConfig, rng: &mut R) -> Self {
        let first = Conv2D::new((1, 28, 28), 6, ConvSpec::square(5, 1, 2), rng);
        let mut rest = Sequential::new();
        rest.push(ActivationLayer::new(Activation::Sigmoid));
        rest.push(AvgPool2D::new((6, 28, 28), 2));
        rest.push(Conv2D::new((6, 14, 14), 16, ConvSpec::square(5, 1, 0), rng));
        rest.push(ActivationLayer::new(Activation::Sigmoid));
        rest.push(AvgPool2D::new((16, 10, 10), 2));
        rest.push(Dense::new(400, 120, rng));
        rest.push(ActivationLayer::new(Activation::Sigmoid));
        rest.push(Dense::new(120, 84, rng));
        rest.push(ActivationLayer::new(Activation::Sigmoid));
        rest.push(Dense::new(84, 10, rng));
        Self::from_parts(first, rest, config)
    }

    /// A scaled-down CryptoCNN over 1×14×14 inputs for fast tests and
    /// the `train_cnn` benchmark (topology mirrors `cryptonn_nn::lenet_small`).
    pub fn lenet_small<R: Rng + ?Sized>(
        config: CryptoNnConfig,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        let first = Conv2D::new((1, 14, 14), 3, ConvSpec::square(3, 1, 1), rng);
        let mut rest = Sequential::new();
        rest.push(ActivationLayer::new(Activation::Tanh));
        rest.push(AvgPool2D::new((3, 14, 14), 2));
        rest.push(Conv2D::new((3, 7, 7), 6, ConvSpec::square(4, 1, 0), rng));
        rest.push(ActivationLayer::new(Activation::Tanh));
        rest.push(AvgPool2D::new((6, 4, 4), 2));
        rest.push(Dense::new(6 * 2 * 2, 32, rng));
        rest.push(ActivationLayer::new(Activation::Tanh));
        rest.push(Dense::new(32, classes, rng));
        Self::from_parts(first, rest, config)
    }

    /// The secure first convolution's plaintext twin.
    pub fn first_layer(&self) -> &Conv2D {
        &self.first
    }

    /// The first-layer geometry — published to clients so they can
    /// window and encrypt their images (Algorithm 3, lines 9-16).
    pub fn conv_spec(&self) -> ConvSpec {
        *self.first.spec()
    }

    /// The deployment configuration.
    pub fn config(&self) -> &CryptoNnConfig {
        &self.config
    }

    /// Backs this model's BSGS table cache with an on-disk directory
    /// (see [`DlogTableCache::attach_dir`]) so warm restarts skip the
    /// table builds.
    pub fn attach_table_cache(&mut self, dir: std::path::PathBuf) {
        self.cache.attach_dir(dir);
    }

    fn unit_keys<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
    ) -> Result<Vec<FeipFunctionKey>, CryptoNnError> {
        if self.unit_keys.is_none() {
            self.unit_keys = Some(derive_unit_keys(authority, self.first.filters().cols())?);
        }
        Ok(self.unit_keys.clone().expect("just inserted"))
    }

    /// Converts a `(batch, out_c·oh·ow)` output-layout gradient to the
    /// `(batch·oh·ow, out_c)` window-row layout used by the secure
    /// gradient step.
    fn output_to_rows(&self, grad: &Matrix<f64>) -> Matrix<f64> {
        let (out_c, oh, ow) = self.first.out_shape();
        let n = grad.rows();
        let mut rows = Matrix::zeros(n * oh * ow, out_c);
        let mut row = 0;
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    for oc in 0..out_c {
                        rows[(row, oc)] = grad[(b, (oc * oh + oy) * ow + ox)];
                    }
                    row += 1;
                }
            }
        }
        rows
    }

    /// One Algorithm-2 training iteration on an encrypted image batch.
    ///
    /// # Errors
    ///
    /// Propagates secure-computation failures; the model is unchanged on
    /// error.
    pub fn train_encrypted_batch<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
        batch: &EncryptedImageBatch,
        lr: f64,
    ) -> Result<StepOutput, CryptoNnError> {
        let m = batch.batch_size() as f64;
        let (fp, grad_fp, par) = (self.config.fp, self.config.grad_fp, self.config.parallelism);

        // --- secure feed-forward: the first convolution (Algorithm 3) ---
        let z1 = secure_conv_forward(authority, &mut self.cache, batch, &self.first, fp, par)?;

        // --- normal feed-forward through the remaining layers ---
        let logits = self.rest.forward(&z1, true);
        let p = cryptonn_nn::softmax(&logits);

        // --- secure back-propagation / evaluation at the output ---
        let p_minus_y = secure_output_delta(authority, &mut self.cache, &batch.y, &p, fp, par)?;
        let loss = secure_cross_entropy_loss(authority, &mut self.cache, &batch.y, &p, fp, par)?;
        let grad_logits = p_minus_y.scale(1.0 / m);

        // --- normal back-propagation ---
        let grad_z1 = self.rest.backward(&grad_logits);

        // --- secure first-layer (filter) gradient + update ---
        let grad_rows = self.output_to_rows(&grad_z1);
        let unit_keys = self.unit_keys(authority)?;
        let grad_w = secure_conv_weight_grad(
            authority,
            &mut self.cache,
            batch,
            &grad_rows,
            &unit_keys,
            fp,
            grad_fp,
            par,
        )?;
        let grad_b = grad_rows.sum_rows();

        let new_w = self.first.filters().sub(&grad_w.scale(lr));
        let new_b: Vec<f64> = self
            .first
            .bias()
            .iter()
            .zip(grad_b.as_slice())
            .map(|(b, g)| b - lr * g)
            .collect();
        self.first.set_params(new_w, new_b);
        self.rest.update(lr);

        Ok(StepOutput {
            loss,
            predictions: p,
        })
    }

    /// Encrypted prediction: secure first convolution, plaintext rest.
    ///
    /// # Errors
    ///
    /// Propagates secure-computation failures.
    pub fn predict_encrypted<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
        batch: &EncryptedImageBatch,
    ) -> Result<Matrix<f64>, CryptoNnError> {
        let z1 = secure_conv_forward(
            authority,
            &mut self.cache,
            batch,
            &self.first,
            self.config.fp,
            self.config.parallelism,
        )?;
        let logits = self.rest.forward(&z1, false);
        Ok(cryptonn_nn::softmax(&logits))
    }

    /// Plaintext forward over flat `(batch, c·h·w)` inputs, for test-set
    /// scoring by the evaluation harness.
    pub fn predict_plain(&mut self, x: &Matrix<f64>) -> Matrix<f64> {
        let z1 = self.first.forward(x, false);
        let logits = self.rest.forward(&z1, false);
        cryptonn_nn::softmax(&logits)
    }

    /// Reference plaintext training step (baseline twin for equivalence
    /// tests and the Fig. 6 comparison).
    pub fn train_plain_batch(&mut self, x: &Matrix<f64>, y: &Matrix<f64>, lr: f64) -> StepOutput {
        let z1 = self.first.forward(x, true);
        let logits = self.rest.forward(&z1, true);
        let p = cryptonn_nn::softmax(&logits);
        let loss = SoftmaxCrossEntropy.forward(&logits, y);
        let grad_logits = SoftmaxCrossEntropy.backward(&logits, y);
        let grad_z1 = self.rest.backward(&grad_logits);
        let _ = self.first.backward(&grad_z1);
        self.first.update(lr);
        self.rest.update(lr);
        StepOutput {
            loss,
            predictions: p,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use cryptonn_fe::{KeyAuthority, PermittedFunctions};
    use cryptonn_group::SchnorrGroup;
    use cryptonn_matrix::Tensor4;
    use cryptonn_nn::metrics::one_hot;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn authority(config: &CryptoNnConfig) -> KeyAuthority {
        let group = SchnorrGroup::precomputed(config.level);
        KeyAuthority::with_seed(group, PermittedFunctions::all(), 51)
    }

    #[test]
    fn encrypted_cnn_step_close_to_plaintext_step() {
        let config = CryptoNnConfig::fast();
        let auth = authority(&config);

        let mut rng = StdRng::seed_from_u64(52);
        let mut crypto = CryptoCnn::lenet_small(config, 4, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(52);
        let mut plain = CryptoCnn::lenet_small(config, 4, &mut rng2);

        let mut data_rng = StdRng::seed_from_u64(53);
        let images = Tensor4::from_vec(
            3,
            1,
            14,
            14,
            (0..3 * 196)
                .map(|_| data_rng.random_range(0.0..1.0))
                .collect(),
        );
        let y = one_hot(&[0, 2, 3], 4);

        let spec = crypto.conv_spec();
        let mut client = Client::for_cnn(&auth, &spec, 1, 4, config.fp, 54);
        let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();

        let enc_out = crypto.train_encrypted_batch(&auth, &batch, 0.3).unwrap();
        let plain_out = plain.train_plain_batch(&images.flatten(), &y, 0.3);

        assert!(
            enc_out.predictions.approx_eq(&plain_out.predictions, 0.05),
            "encrypted and plaintext CNN predictions must track"
        );
        assert!((enc_out.loss - plain_out.loss).abs() < 0.05);
        assert!(crypto
            .first
            .filters()
            .approx_eq(plain.first.filters(), 0.05));
    }

    #[test]
    fn encrypted_prediction_matches_plain_forward() {
        let config = CryptoNnConfig::fast();
        let auth = authority(&config);
        let mut rng = StdRng::seed_from_u64(55);
        let mut model = CryptoCnn::lenet_small(config, 3, &mut rng);

        let images = Tensor4::from_vec(
            2,
            1,
            14,
            14,
            (0..392).map(|v| (v % 9) as f64 / 9.0).collect(),
        );
        let y = one_hot(&[0, 1], 3);
        let spec = model.conv_spec();
        let mut client = Client::for_cnn(&auth, &spec, 1, 3, config.fp, 56);
        let batch = client.encrypt_image_batch(&images, &y, &spec).unwrap();

        let p_enc = model.predict_encrypted(&auth, &batch).unwrap();
        let p_plain = model.predict_plain(&images.flatten());
        // Only the first layer differs (quantized vs exact); outputs are
        // probabilities, so tolerances are loose but meaningful.
        assert!(p_enc.approx_eq(&p_plain, 0.05));
    }
}
