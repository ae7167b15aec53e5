//! The sequential network container and its training loop.

use cryptonn_matrix::Matrix;

use crate::layer::Layer;
use crate::loss::Loss;
use crate::metrics::accuracy;

/// A feed-forward stack of layers trained with SGD.
///
/// ```
/// use cryptonn_matrix::Matrix;
/// use cryptonn_nn::{Activation, ActivationLayer, Dense, Mse, Sequential};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 4, &mut rng));
/// net.push(ActivationLayer::new(Activation::Sigmoid));
/// net.push(Dense::new(4, 1, &mut rng));
/// net.push(ActivationLayer::new(Activation::Sigmoid));
///
/// // One SGD step on a single example.
/// let x = Matrix::from_rows(&[&[0.0, 1.0]]);
/// let y = Matrix::from_rows(&[&[1.0]]);
/// let loss = net.train_batch(&x, &y, &Mse, 0.5);
/// assert!(loss > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to a layer by index.
    pub fn layer(&self, idx: usize) -> Option<&dyn Layer> {
        self.layers.get(idx).map(|b| b.as_ref())
    }

    /// Mutable access to a layer by index (used by CryptoNN to reach the
    /// secure first layer).
    pub fn layer_mut(&mut self, idx: usize) -> Option<&mut Box<dyn Layer>> {
        self.layers.get_mut(idx)
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Runs the full forward pass.
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn forward(&mut self, input: &Matrix<f64>, train: bool) -> Matrix<f64> {
        assert!(!self.layers.is_empty(), "cannot run an empty network");
        let mut cur = self.layers[0].forward(input, train);
        for layer in &mut self.layers[1..] {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Runs the full backward pass from the loss gradient.
    pub fn backward(&mut self, grad_output: &Matrix<f64>) -> Matrix<f64> {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    /// Applies one SGD step to every layer.
    pub fn update(&mut self, lr: f64) {
        for layer in &mut self.layers {
            layer.update(lr);
        }
    }

    /// Forward in inference mode.
    pub fn predict(&mut self, input: &Matrix<f64>) -> Matrix<f64> {
        self.forward(input, false)
    }

    /// One complete SGD step (forward → loss → backward → update) on a
    /// batch; returns the batch loss.
    pub fn train_batch(
        &mut self,
        x: &Matrix<f64>,
        y: &Matrix<f64>,
        loss: &dyn Loss,
        lr: f64,
    ) -> f64 {
        let out = self.forward(x, true);
        let loss_value = loss.forward(&out, y);
        let grad = loss.backward(&out, y);
        self.backward(&grad);
        self.update(lr);
        loss_value
    }

    /// Classification accuracy of the network on `(x, one-hot y)`.
    pub fn evaluate_accuracy(&mut self, x: &Matrix<f64>, y_onehot: &Matrix<f64>) -> f64 {
        let out = self.predict(x);
        accuracy(&out, y_onehot)
    }

    /// Layer names, for architecture summaries.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Activation, ActivationLayer};
    use crate::dense::Dense;
    use crate::loss::{Mse, SoftmaxCrossEntropy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// XOR: the canonical non-linearly-separable task; a 2-layer MLP must
    /// drive the loss near zero.
    #[test]
    fn learns_xor() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(ActivationLayer::new(Activation::Tanh));
        net.push(Dense::new(8, 1, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));

        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Matrix::from_rows(&[&[0.0], &[1.0], &[1.0], &[0.0]]);

        let mut last = f64::INFINITY;
        for _ in 0..2000 {
            last = net.train_batch(&x, &y, &Mse, 1.0);
        }
        assert!(last < 0.01, "XOR loss should converge, got {last}");
        let pred = net.predict(&x);
        assert!(pred[(0, 0)] < 0.3 && pred[(3, 0)] < 0.3);
        assert!(pred[(1, 0)] > 0.7 && pred[(2, 0)] > 0.7);
    }

    #[test]
    fn learns_linear_classification_with_softmax() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 3, &mut rng));
        // Two Gaussian-ish blobs, classes 0 and 2.
        let x = Matrix::from_fn(20, 2, |r, c| {
            let base = if r < 10 { -2.0 } else { 2.0 };
            base + ((r * 3 + c * 7) % 5) as f64 * 0.1
        });
        let y = Matrix::from_fn(20, 3, |r, c| {
            if (r < 10 && c == 0) || (r >= 10 && c == 2) {
                1.0
            } else {
                0.0
            }
        });
        for _ in 0..200 {
            net.train_batch(&x, &y, &SoftmaxCrossEntropy, 0.5);
        }
        assert!(net.evaluate_accuracy(&x, &y) > 0.99);
    }

    #[test]
    fn loss_decreases_monotonically_on_average() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, &mut rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        net.push(Dense::new(5, 2, &mut rng));
        let x = Matrix::from_fn(8, 3, |r, c| ((r + c) % 3) as f64 - 1.0);
        let y = Matrix::from_fn(8, 2, |r, _| if r % 2 == 0 { 1.0 } else { 0.0 });
        let first = net.train_batch(&x, &y, &Mse, 0.3);
        let mut last = first;
        for _ in 0..100 {
            last = net.train_batch(&x, &y, &Mse, 0.3);
        }
        assert!(last < first, "loss should decrease: {first} -> {last}");
    }

    #[test]
    fn structure_introspection() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Sequential::new();
        assert!(net.is_empty());
        net.push(Dense::new(2, 3, &mut rng));
        net.push(ActivationLayer::new(Activation::Relu));
        assert_eq!(net.len(), 2);
        assert_eq!(net.layer_names(), vec!["dense", "relu"]);
        assert_eq!(net.param_count(), 9);
        assert_eq!(net.layer(0).unwrap().name(), "dense");
        assert!(net.layer(5).is_none());
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn empty_network_panics() {
        let mut net = Sequential::new();
        let _ = net.forward(&Matrix::from_rows(&[&[1.0]]), false);
    }
}
