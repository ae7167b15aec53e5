//! LeNet-5 — the paper's CryptoCNN backbone (§III-E), and the simple
//! binary-classification MLP of §III-D.

use cryptonn_matrix::ConvSpec;
use rand::Rng;

use crate::activation::{Activation, ActivationLayer};
use crate::conv_layer::Conv2D;
use crate::dense::Dense;
use crate::network::Sequential;
use crate::pool::AvgPool2D;

/// Builds the classic LeNet-5 for `1×28×28` inputs and 10 classes:
///
/// | layer | shape |
/// |-------|-------|
/// | C1: conv 6 @ 5×5, pad 2 | 6×28×28 |
/// | sigmoid + S2: avg-pool 2 | 6×14×14 |
/// | C3: conv 16 @ 5×5 | 16×10×10 |
/// | sigmoid + S4: avg-pool 2 | 16×5×5 |
/// | C5: dense 400 → 120 + sigmoid | 120 |
/// | F6: dense 120 → 84 + sigmoid | 84 |
/// | output: dense 84 → 10 (logits) | 10 |
///
/// Train with [`SoftmaxCrossEntropy`](crate::SoftmaxCrossEntropy), which
/// is the softmax + cross-entropy output the paper assumes in §III-E2.
pub fn lenet5<R: Rng + ?Sized>(rng: &mut R) -> Sequential {
    let mut net = Sequential::new();
    // C1: 1×28×28 → 6×28×28 (5×5, pad 2).
    net.push(Conv2D::new((1, 28, 28), 6, ConvSpec::square(5, 1, 2), rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    // S2: 6×28×28 → 6×14×14.
    net.push(AvgPool2D::new((6, 28, 28), 2));
    // C3: 6×14×14 → 16×10×10 (5×5, no pad).
    net.push(Conv2D::new((6, 14, 14), 16, ConvSpec::square(5, 1, 0), rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    // S4: 16×10×10 → 16×5×5.
    net.push(AvgPool2D::new((16, 10, 10), 2));
    // C5 (as dense): 400 → 120.
    net.push(Dense::new(400, 120, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    // F6: 120 → 84.
    net.push(Dense::new(120, 84, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    // Output logits: 84 → 10.
    net.push(Dense::new(84, 10, rng));
    net
}

/// A scaled-down LeNet for fast tests and the benchmark: same topology, a
/// quarter of the filters, `1×14×14` inputs.
pub fn lenet_small<R: Rng + ?Sized>(rng: &mut R, classes: usize) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2D::new((1, 14, 14), 3, ConvSpec::square(3, 1, 1), rng));
    net.push(ActivationLayer::new(Activation::Tanh));
    net.push(AvgPool2D::new((3, 14, 14), 2));
    net.push(Conv2D::new((3, 7, 7), 6, ConvSpec::square(4, 1, 0), rng));
    net.push(ActivationLayer::new(Activation::Tanh));
    net.push(AvgPool2D::new((6, 4, 4), 2));
    net.push(Dense::new(6 * 2 * 2, 32, rng));
    net.push(ActivationLayer::new(Activation::Tanh));
    net.push(Dense::new(32, classes, rng));
    net
}

/// The §III-D binary classifier: `A = θ(WX + b)` hidden layers with a
/// sigmoid output trained under MSE — `hidden` lists the hidden-layer
/// widths.
pub fn binary_mlp<R: Rng + ?Sized>(input_dim: usize, hidden: &[usize], rng: &mut R) -> Sequential {
    let mut net = Sequential::new();
    let mut prev = input_dim;
    for &width in hidden {
        net.push(Dense::new(prev, width, rng));
        net.push(ActivationLayer::new(Activation::Sigmoid));
        prev = width;
    }
    net.push(Dense::new(prev, 1, rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use cryptonn_matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lenet5_shapes_flow() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut net = lenet5(&mut rng);
        let x = Matrix::zeros(2, 784);
        let out = net.forward(&x, false);
        assert_eq!(out.shape(), (2, 10));
        // Parameter count of the classic architecture:
        // C1 6·25+6 = 156, C3 16·150+16 = 2416, C5 400·120+120 = 48120,
        // F6 120·84+84 = 10164, out 84·10+10 = 850 → 61706.
        assert_eq!(net.param_count(), 61_706);
    }

    #[test]
    fn lenet5_trains_one_step() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut net = lenet5(&mut rng);
        let x = Matrix::from_fn(4, 784, |r, c| ((r * 97 + c * 31) % 17) as f64 / 17.0);
        let y = crate::metrics::one_hot(&[0, 3, 7, 9], 10);
        let loss1 = net.train_batch(&x, &y, &crate::SoftmaxCrossEntropy, 0.1);
        let loss2 = net.train_batch(&x, &y, &crate::SoftmaxCrossEntropy, 0.1);
        assert!(loss1.is_finite() && loss2.is_finite());
        assert!(loss2 < loss1 + 0.5, "training must not diverge immediately");
    }

    #[test]
    fn lenet_small_shapes() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut net = lenet_small(&mut rng, 4);
        let x = Matrix::zeros(3, 196);
        assert_eq!(net.forward(&x, false).shape(), (3, 4));
    }

    #[test]
    fn binary_mlp_output_is_probability() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut net = binary_mlp(5, &[8, 4], &mut rng);
        let x = Matrix::from_fn(6, 5, |r, c| (r as f64 - c as f64) / 5.0);
        let out = net.forward(&x, false);
        assert_eq!(out.shape(), (6, 1));
        assert!(out.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
