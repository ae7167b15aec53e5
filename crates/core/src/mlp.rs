//! CryptoNN over fully-connected networks — Algorithm 2 for the
//! §III-D model family (and any MLP).

use cryptonn_fe::{FeipFunctionKey, KeyService};
use cryptonn_matrix::Matrix;
use cryptonn_nn::{
    Activation, ActivationLayer, Dense, Layer, Loss, Mse, Sequential, SoftmaxCrossEntropy,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::client::EncryptedBatch;
use crate::config::CryptoNnConfig;
use crate::error::CryptoNnError;
use crate::secure_steps::{
    derive_unit_keys, secure_cross_entropy_loss, secure_dense_forward, secure_dense_weight_grad,
    secure_output_delta,
};
use crate::tables::DlogTableCache;

/// The training objective of a CryptoNN model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Sigmoid output + mean squared error (§III-D).
    SigmoidMse,
    /// Softmax output + cross-entropy (§III-E2).
    SoftmaxCrossEntropy,
}

/// One parameterized plaintext layer's state inside an [`MlpSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSnapshot {
    /// The layer's index in the plaintext tail (network order).
    pub idx: usize,
    /// The layer's weights.
    pub w: Matrix<f64>,
    /// The layer's bias.
    pub b: Matrix<f64>,
}

/// A serializable snapshot of everything a [`CryptoMlp`] mutates
/// between training steps: the secure first layer's parameters, every
/// parameterized plaintext layer's parameters, and the lazily-derived
/// unit keys.
///
/// The unit keys are part of the snapshot on purpose: a restored model
/// that had already derived them must **not** re-request them from the
/// authority, or its key-request stream would diverge from a recorded
/// transcript of the original run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlpSnapshot {
    /// Secure first-layer weights, `(in, hidden)`.
    pub w1: Matrix<f64>,
    /// Secure first-layer bias, `(1, hidden)`.
    pub b1: Matrix<f64>,
    /// Each parameterized plaintext layer's state, in network order.
    /// Stateless layers (activations) are omitted.
    pub rest: Vec<LayerSnapshot>,
    /// The cached first-layer unit keys, if they were derived.
    pub unit_keys: Option<Vec<FeipFunctionKey>>,
}

/// Metrics returned by one encrypted training step.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// The batch loss (computed securely for cross-entropy; derived from
    /// the securely-obtained `P − Y` for MSE).
    pub loss: f64,
    /// The model outputs for the batch (`batch × classes`): softmax
    /// probabilities or sigmoid activations.
    pub predictions: Matrix<f64>,
}

/// A CryptoNN multi-layer perceptron: a [`Dense`] first layer whose
/// forward product and weight gradient are computed **over encrypted
/// inputs**, followed by plaintext hidden layers, with the output-layer
/// evaluation computed **over encrypted labels**.
///
/// The server running this model never sees the training data or labels
/// in the clear — only the functional-encryption outputs that Algorithm
/// 2 authorizes.
#[derive(Debug)]
pub struct CryptoMlp {
    first: Dense,
    rest: Sequential,
    objective: Objective,
    config: CryptoNnConfig,
    cache: DlogTableCache,
    unit_keys: Option<Vec<FeipFunctionKey>>,
}

impl CryptoMlp {
    /// Builds a CryptoNN MLP: `feature_dim → hidden[0] → … → classes`,
    /// sigmoid activations throughout (the paper's choice).
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is empty or any width is zero.
    pub fn new<R: Rng + ?Sized>(
        feature_dim: usize,
        hidden: &[usize],
        classes: usize,
        objective: Objective,
        config: CryptoNnConfig,
        rng: &mut R,
    ) -> Self {
        assert!(!hidden.is_empty(), "at least one hidden layer required");
        let first = Dense::new(feature_dim, hidden[0], rng);
        let mut rest = Sequential::new();
        rest.push(ActivationLayer::new(Activation::Sigmoid));
        let mut prev = hidden[0];
        for &width in &hidden[1..] {
            rest.push(Dense::new(prev, width, rng));
            rest.push(ActivationLayer::new(Activation::Sigmoid));
            prev = width;
        }
        rest.push(Dense::new(prev, classes, rng));
        if objective == Objective::SigmoidMse {
            rest.push(ActivationLayer::new(Activation::Sigmoid));
        }
        let group = cryptonn_group::SchnorrGroup::precomputed(config.level);
        Self {
            first,
            rest,
            objective,
            config,
            cache: DlogTableCache::new(group),
            unit_keys: None,
        }
    }

    /// The §III-D binary classifier: one output, sigmoid + MSE.
    pub fn binary<R: Rng + ?Sized>(
        feature_dim: usize,
        hidden: &[usize],
        config: CryptoNnConfig,
        rng: &mut R,
    ) -> Self {
        Self::new(feature_dim, hidden, 1, Objective::SigmoidMse, config, rng)
    }

    /// The secure first layer's plaintext twin (weights live here).
    pub fn first_layer(&self) -> &Dense {
        &self.first
    }

    /// The configured objective.
    pub fn objective(&self) -> Objective {
        self.objective
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

    /// Captures the model's between-step mutable state into a
    /// [`MlpSnapshot`].
    ///
    /// # Errors
    ///
    /// [`CryptoNnError::SnapshotUnsupported`] if a plaintext layer has
    /// trainable parameters but does not expose them via
    /// [`Layer::params`].
    pub fn snapshot(&self) -> Result<MlpSnapshot, CryptoNnError> {
        let mut rest = Vec::new();
        for idx in 0..self.rest.len() {
            let layer = self.rest.layer(idx).expect("index in range");
            match layer.params() {
                Some((w, b)) => rest.push(LayerSnapshot {
                    idx,
                    w: w.clone(),
                    b: b.clone(),
                }),
                None if layer.param_count() == 0 => {}
                None => {
                    return Err(CryptoNnError::SnapshotUnsupported {
                        layer: layer.name(),
                    })
                }
            }
        }
        Ok(MlpSnapshot {
            w1: self.first.weights().clone(),
            b1: self.first.bias().clone(),
            rest,
            unit_keys: self.unit_keys.clone(),
        })
    }

    /// Restores state previously captured by
    /// [`snapshot`](Self::snapshot). The model architecture must match
    /// the one the snapshot was taken from.
    ///
    /// # Errors
    ///
    /// [`CryptoNnError::SnapshotUnsupported`] if a snapshot entry names
    /// a layer that does not accept parameters.
    ///
    /// # Panics
    ///
    /// Panics on parameter shape mismatch (a different architecture).
    pub fn restore(&mut self, snap: &MlpSnapshot) -> Result<(), CryptoNnError> {
        self.first.set_params(snap.w1.clone(), snap.b1.clone());
        for entry in &snap.rest {
            let layer = self
                .rest
                .layer_mut(entry.idx)
                .ok_or(CryptoNnError::SnapshotUnsupported { layer: "missing" })?;
            if !layer.set_params_from(&entry.w, &entry.b) {
                return Err(CryptoNnError::SnapshotUnsupported {
                    layer: layer.name(),
                });
            }
        }
        self.unit_keys = snap.unit_keys.clone();
        Ok(())
    }

    fn unit_keys<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
    ) -> Result<&[FeipFunctionKey], CryptoNnError> {
        if self.unit_keys.is_none() {
            self.unit_keys = Some(derive_unit_keys(authority, self.first.in_dim())?);
        }
        Ok(self.unit_keys.as_deref().expect("just inserted"))
    }

    /// Converts final-layer outputs to predictions per the objective.
    fn predictions(&self, out: &Matrix<f64>) -> Matrix<f64> {
        match self.objective {
            Objective::SigmoidMse => out.clone(),
            Objective::SoftmaxCrossEntropy => cryptonn_nn::softmax(out),
        }
    }

    /// One Algorithm-2 training iteration on an encrypted batch.
    ///
    /// Secure feed-forward → plaintext forward → secure evaluation →
    /// plaintext back-propagation → secure first-layer gradient →
    /// parameter update.
    ///
    /// # Errors
    ///
    /// Propagates secure-computation failures; the model is unchanged on
    /// error.
    pub fn train_encrypted_batch<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
        batch: &EncryptedBatch,
        lr: f64,
    ) -> Result<StepOutput, CryptoNnError> {
        let m = batch.batch_size() as f64;
        let enc_y = batch.require_labels()?;
        let (fp, grad_fp, par) = (self.config.fp, self.config.grad_fp, self.config.parallelism);

        // --- secure feed-forward (Algorithm 2 lines 4-5) ---
        let z1 = secure_dense_forward(authority, &mut self.cache, batch, &self.first, fp, par)?;

        // --- normal feed-forward (line 6) ---
        let out = self.rest.forward(&z1, true);
        let p = self.predictions(&out);

        // --- secure back-propagation / evaluation (lines 7-9) ---
        let p_minus_y = secure_output_delta(authority, &mut self.cache, enc_y, &p, fp, par)?;
        let loss = match self.objective {
            Objective::SigmoidMse => {
                // L = (1/2N)‖P − Y‖², derivable from the secure P − Y.
                0.5 * p_minus_y.hadamard(&p_minus_y).sum() / m
            }
            Objective::SoftmaxCrossEntropy => {
                secure_cross_entropy_loss(authority, &mut self.cache, enc_y, &p, fp, par)?
            }
        };

        // For both objectives the output-layer gradient is (P − Y)/N:
        // w.r.t. the sigmoid activation for MSE (the sigmoid layer in
        // `rest` then applies its own derivative), w.r.t. the logits for
        // softmax cross-entropy (§III-E2).
        let grad_out = p_minus_y.scale(1.0 / m);

        // --- normal back-propagation (line 10) ---
        let grad_z1 = self.rest.backward(&grad_out);

        // --- secure first-layer gradient + update (line 11) ---
        let delta1 = grad_z1.transpose(); // (hidden × batch)
        let unit_keys = {
            // Borrow dance: unit keys are cached lazily.
            self.unit_keys(authority)?.to_vec()
        };
        let grad_w1 = secure_dense_weight_grad(
            authority,
            &mut self.cache,
            batch,
            &delta1,
            &unit_keys,
            fp,
            grad_fp,
            par,
        )?;
        let grad_b1 = grad_z1.sum_rows();

        let new_w = self.first.weights().sub(&grad_w1.scale(lr));
        let new_b = self.first.bias().sub(&grad_b1.scale(lr));
        self.first.set_params(new_w, new_b);
        self.rest.update(lr);

        Ok(StepOutput {
            loss,
            predictions: p,
        })
    }

    /// Encrypted prediction (the FE-based prediction path of §III-D):
    /// secure first layer, plaintext remainder. The server learns the
    /// prediction, as the paper's FE mode allows.
    ///
    /// # Errors
    ///
    /// Propagates secure-computation failures.
    pub fn predict_encrypted<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
        batch: &EncryptedBatch,
    ) -> Result<Matrix<f64>, CryptoNnError> {
        let z1 = secure_dense_forward(
            authority,
            &mut self.cache,
            batch,
            &self.first,
            self.config.fp,
            self.config.parallelism,
        )?;
        let out = self.rest.forward(&z1, false);
        Ok(self.predictions(&out))
    }

    /// Batched encrypted prediction: serves **several** independent
    /// encrypted feature batches in one secure sweep — the decrypt core
    /// of the inference serving layer's request coalescing.
    ///
    /// All batches share the model's quantized first-layer weights, so
    /// the function keys are derived (or, behind a
    /// [`CachingKeyService`](cryptonn_fe::CachingKeyService), looked
    /// up) **once**, every ciphertext column across every batch runs
    /// through one [`decrypt_cells`](cryptonn_fe::feip::decrypt_cells)
    /// sweep sharing a single modular inversion, and the plaintext
    /// remainder of the network runs per batch.
    ///
    /// Returns one prediction matrix per input batch, in order; each is
    /// bit-identical to a separate
    /// [`predict_encrypted`](Self::predict_encrypted) call on that
    /// batch.
    ///
    /// # Errors
    ///
    /// Propagates secure-computation failures; shape mismatches name
    /// the offending batch's feature dimension;
    /// [`CryptoNnError::DlogBoundTooLarge`] if any batch's `max_abs_x`
    /// makes [`predict_bound`](Self::predict_bound) exceed
    /// [`MAX_DLOG_BOUND`](crate::MAX_DLOG_BOUND).
    pub fn predict_encrypted_many<A: KeyService + ?Sized>(
        &mut self,
        authority: &A,
        batches: &[&EncryptedBatch],
    ) -> Result<Vec<Matrix<f64>>, CryptoNnError> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        let n = self.first.in_dim();
        let fp = self.config.fp;
        let mut max_abs_x = 1u64;
        for batch in batches {
            if batch.feature_dim() != n {
                return Err(CryptoNnError::BatchShapeMismatch {
                    expected: n,
                    got: batch.feature_dim(),
                    what: "feature dimension",
                });
            }
            max_abs_x = max_abs_x.max(batch.max_abs_x);
        }
        // One key derivation for the whole sweep (a cache hit when the
        // serving layer wraps the authority in a key cache).
        let wq = fp.encode_matrix(&self.first.weights().transpose());
        let keys = cryptonn_smc::derive_dot_keys(authority, &wq)?;
        let mpk = authority.feip_public_key(n)?;
        let table = self.cache.table(self.predict_bound(max_abs_x))?;

        let encs: Vec<&cryptonn_smc::EncryptedMatrix> = batches.iter().map(|b| &b.x).collect();
        let zqs = cryptonn_smc::secure_dot_multi(
            &mpk,
            &encs,
            &keys,
            &wq,
            &table,
            self.config.parallelism,
        )?;
        zqs.into_iter()
            .map(|zq| {
                let z = fp
                    .decode_product_matrix(&zq)
                    .transpose()
                    .add_row_broadcast(self.first.bias());
                let out = self.rest.forward(&z, false);
                Ok(self.predictions(&out))
            })
            .collect()
    }

    /// The dlog bound the secure first-layer product needs for batches
    /// whose largest |quantized feature| is `max_abs_x`:
    /// `in_dim · max_abs_x · max|Wq|`, saturating — what training and
    /// [`predict_encrypted_many`](Self::predict_encrypted_many) size
    /// their table by. A serving layer compares it with
    /// [`MAX_DLOG_BOUND`](crate::MAX_DLOG_BOUND) to refuse a request
    /// before it joins a coalesced sweep.
    pub fn predict_bound(&self, max_abs_x: u64) -> u64 {
        crate::secure_steps::dense_bound(&self.first, self.config.fp, max_abs_x)
    }

    /// Plaintext forward pass — used by the evaluation harness to score
    /// the trained model on a test set it owns.
    pub fn predict_plain(&mut self, x: &Matrix<f64>) -> Matrix<f64> {
        let z1 = self.first.forward(x, false);
        let out = self.rest.forward(&z1, false);
        self.predictions(&out)
    }

    /// Reference plaintext training step with *identical* quantization,
    /// used by the equivalence tests: the encrypted and plaintext paths
    /// must produce the same numbers up to quantization error.
    pub fn train_plain_batch(&mut self, x: &Matrix<f64>, y: &Matrix<f64>, lr: f64) -> StepOutput {
        let m = x.rows() as f64;
        let z1 = self.first.forward(x, true);
        let out = self.rest.forward(&z1, true);
        let p = self.predictions(&out);
        let loss = match self.objective {
            Objective::SigmoidMse => Mse.forward(&p, y),
            Objective::SoftmaxCrossEntropy => SoftmaxCrossEntropy.forward(&out, y),
        };
        let grad_out = p.sub(y).scale(1.0 / m);
        let grad_z1 = self.rest.backward(&grad_out);
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
    use cryptonn_nn::metrics::one_hot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn authority(config: &CryptoNnConfig) -> KeyAuthority {
        let group = SchnorrGroup::precomputed(config.level);
        KeyAuthority::with_seed(group, PermittedFunctions::all(), 41)
    }

    #[test]
    fn encrypted_step_close_to_plaintext_step() {
        let config = CryptoNnConfig::fast();
        let auth = authority(&config);
        let mut rng = StdRng::seed_from_u64(42);

        // Two identical twins.
        let mut crypto =
            CryptoMlp::new(4, &[5], 2, Objective::SoftmaxCrossEntropy, config, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(42);
        let mut plain = CryptoMlp::new(
            4,
            &[5],
            2,
            Objective::SoftmaxCrossEntropy,
            config,
            &mut rng2,
        );

        let x = Matrix::from_fn(6, 4, |r, c| ((r * 3 + c) % 7) as f64 / 7.0);
        let y = one_hot(&[0, 1, 0, 1, 1, 0], 2);

        let mut client = Client::for_mlp(&auth, 4, 2, config.fp, 43);
        let batch = client.encrypt_batch(&x, &y).unwrap();

        let enc_out = crypto.train_encrypted_batch(&auth, &batch, 0.5).unwrap();
        let plain_out = plain.train_plain_batch(&x, &y, 0.5);

        // Quantization at two decimals: predictions agree to ~1e-2.
        assert!(
            enc_out.predictions.approx_eq(&plain_out.predictions, 0.05),
            "encrypted and plaintext predictions must track each other"
        );
        assert!((enc_out.loss - plain_out.loss).abs() < 0.05);
        // Updated first-layer weights stay close.
        assert!(crypto
            .first
            .weights()
            .approx_eq(plain.first.weights(), 0.05));
    }

    /// A training batch whose peer-declared `max_abs_x` sizes the dlog
    /// search past the cap — saturating to `u64::MAX`, or 2⁴⁰ — fails
    /// the step with a typed error before any table is built, leaves
    /// the weights alone, and an honest batch still trains afterwards.
    #[test]
    fn oversized_dlog_bound_fails_the_step_typed() {
        let config = CryptoNnConfig::fast();
        let auth = authority(&config);
        let mut rng = StdRng::seed_from_u64(45);
        let mut model =
            CryptoMlp::new(4, &[5], 2, Objective::SoftmaxCrossEntropy, config, &mut rng);
        let x = Matrix::from_fn(4, 4, |r, c| ((r + c) % 5) as f64 / 5.0);
        let y = one_hot(&[0, 1, 1, 0], 2);
        let mut client = Client::for_mlp(&auth, 4, 2, config.fp, 46);
        let batch = client.encrypt_batch(&x, &y).unwrap();
        let weights = model.first.weights().clone();
        for max_abs_x in [u64::MAX, 1 << 40] {
            let mut bad = batch.clone();
            bad.max_abs_x = max_abs_x;
            let err = model.train_encrypted_batch(&auth, &bad, 0.5).unwrap_err();
            assert_eq!(
                err,
                CryptoNnError::DlogBoundTooLarge {
                    bound: model.predict_bound(max_abs_x),
                    max: crate::MAX_DLOG_BOUND,
                }
            );
            assert_eq!(model.first.weights(), &weights);
            assert_eq!(model.cache.current_bound(), None, "no table was built");
        }
        assert!(model.train_encrypted_batch(&auth, &batch, 0.5).is_ok());
    }

    #[test]
    fn encrypted_training_learns_a_separable_task() {
        let config = CryptoNnConfig::fast();
        let auth = authority(&config);
        let mut rng = StdRng::seed_from_u64(44);
        let mut model = CryptoMlp::binary(2, &[4], config, &mut rng);

        // Linearly separable blobs.
        let x = Matrix::from_fn(10, 2, |r, c| {
            let sign = if r % 2 == 0 { 0.9 } else { 0.1 };
            sign + (c as f64) * 0.01
        });
        let y = Matrix::from_fn(10, 1, |r, _| if r % 2 == 0 { 1.0 } else { 0.0 });

        let mut client = Client::for_mlp(&auth, 2, 1, config.fp, 45);
        let batch = client.encrypt_batch(&x, &y).unwrap();
        let mut losses = Vec::new();
        for _ in 0..80 {
            losses.push(
                model
                    .train_encrypted_batch(&auth, &batch, 2.0)
                    .unwrap()
                    .loss,
            );
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss should drop: {losses:?}"
        );
        // Prediction phase (encrypted features only).
        let pred_batch = client.encrypt_features(&x).unwrap();
        let p = model.predict_encrypted(&auth, &pred_batch).unwrap();
        assert!(p[(0, 0)] > 0.5 && p[(1, 0)] < 0.5);
    }

    /// The coalesced serving sweep must be bit-identical to per-batch
    /// `predict_encrypted`, and must hit a wrapping key cache after the
    /// first sweep.
    #[test]
    fn batched_prediction_matches_single_batches_bitwise() {
        use cryptonn_fe::CachingKeyService;

        let config = CryptoNnConfig::fast();
        let auth = CachingKeyService::new(authority(&config), 64);
        let mut rng = StdRng::seed_from_u64(50);
        let mut model =
            CryptoMlp::new(4, &[5], 2, Objective::SoftmaxCrossEntropy, config, &mut rng);

        let mut client = Client::for_mlp(auth.inner(), 4, 2, config.fp, 51);
        let batches: Vec<_> = (0..3)
            .map(|b| {
                let x = Matrix::from_fn(2 + b, 4, |r, c| ((r * 5 + c + b) % 9) as f64 / 9.0);
                client.encrypt_features(&x).unwrap()
            })
            .collect();
        let refs: Vec<&EncryptedBatch> = batches.iter().collect();

        let singles: Vec<Matrix<f64>> = refs
            .iter()
            .map(|b| model.predict_encrypted(&auth, b).unwrap())
            .collect();
        let stats_before = auth.stats();
        let coalesced = model.predict_encrypted_many(&auth, &refs).unwrap();

        assert_eq!(singles, coalesced, "coalesced sweep must be bit-identical");
        let stats = auth.stats();
        assert_eq!(
            stats.misses, stats_before.misses,
            "frozen weights: the coalesced sweep derives nothing new"
        );
        assert!(stats.hits > stats_before.hits, "sweep must hit the cache");

        // Empty sweep is a no-op.
        assert!(model.predict_encrypted_many(&auth, &[]).unwrap().is_empty());
    }

    #[test]
    fn training_requires_permitted_functions() {
        let config = CryptoNnConfig::fast();
        let group = SchnorrGroup::precomputed(config.level);
        // dot-product only: the secure evaluation (Sub) must be refused.
        let auth = KeyAuthority::with_seed(
            group,
            cryptonn_fe::PermittedFunctions {
                dot_product: true,
                add: false,
                sub: false,
                mul: false,
                div: false,
            },
            46,
        );
        let mut rng = StdRng::seed_from_u64(47);
        let mut model = CryptoMlp::binary(2, &[3], config, &mut rng);
        let mut client = Client::for_mlp(&auth, 2, 1, config.fp, 48);
        let x = Matrix::from_rows(&[&[0.5, 0.5]]);
        let y = Matrix::from_rows(&[&[1.0]]);
        let batch = client.encrypt_batch(&x, &y).unwrap();
        let err = model.train_encrypted_batch(&auth, &batch, 0.1).unwrap_err();
        assert!(matches!(
            err,
            CryptoNnError::Smc(cryptonn_smc::SmcError::Fe(
                cryptonn_fe::FeError::FunctionNotPermitted(_)
            ))
        ));
    }
}
