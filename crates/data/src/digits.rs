//! Synthetic MNIST-like digit images.
//!
//! The paper evaluates on MNIST (60 000 train / 10 000 test, 28×28
//! grayscale digits). This offline environment has no access to the
//! MNIST files, so we substitute a deterministic generator: hand-drawn
//! 7×7 glyph templates per digit class, upsampled to 28×28 and augmented
//! with seeded random shifts, intensity jitter and pixel noise. The
//! resulting task has the same input dimensionality and class count, and
//! is hard enough that LeNet-5 must actually train to fit it — which is
//! all the Fig. 6 / Table III experiments require (both arms of the
//! comparison see identical data). See DESIGN.md §3.1.

use cryptonn_matrix::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::dataset::Dataset;

/// 7×7 glyph templates, one per digit. `#` is ink, `.` is background.
const GLYPHS: [[&str; 7]; 10] = [
    // 0
    [
        ".###...", "#...#..", "#...#..", "#...#..", "#...#..", "#...#..", ".###...",
    ],
    // 1
    [
        "..#....", ".##....", "..#....", "..#....", "..#....", "..#....", ".###...",
    ],
    // 2
    [
        ".###...", "#...#..", "....#..", "...#...", "..#....", ".#.....", "#####..",
    ],
    // 3
    [
        ".###...", "#...#..", "....#..", "..##...", "....#..", "#...#..", ".###...",
    ],
    // 4
    [
        "...#...", "..##...", ".#.#...", "#..#...", "#####..", "...#...", "...#...",
    ],
    // 5
    [
        "#####..", "#......", "####...", "....#..", "....#..", "#...#..", ".###...",
    ],
    // 6
    [
        ".###...", "#......", "#......", "####...", "#...#..", "#...#..", ".###...",
    ],
    // 7
    [
        "#####..", "....#..", "...#...", "..#....", ".#.....", ".#.....", ".#.....",
    ],
    // 8
    [
        ".###...", "#...#..", "#...#..", ".###...", "#...#..", "#...#..", ".###...",
    ],
    // 9
    [
        ".###...", "#...#..", "#...#..", ".####..", "....#..", "....#..", ".###...",
    ],
];

/// Configuration for the synthetic digit generator.
#[derive(Debug, Clone, Copy)]
pub struct DigitConfig {
    /// Output image side length (e.g. 28 for the MNIST geometry).
    pub size: usize,
    /// Maximum absolute random translation in pixels.
    pub max_shift: i32,
    /// Standard deviation of additive Gaussian pixel noise.
    pub noise: f64,
    /// Ink intensity is drawn from `[1 - jitter, 1]`.
    pub intensity_jitter: f64,
}

impl DigitConfig {
    /// The MNIST-like default: 28×28, ±2 px shift, moderate noise.
    pub fn mnist_like() -> Self {
        Self {
            size: 28,
            max_shift: 2,
            noise: 0.08,
            intensity_jitter: 0.3,
        }
    }

    /// A small 14×14 variant for fast tests.
    pub fn small() -> Self {
        Self {
            size: 14,
            max_shift: 1,
            noise: 0.05,
            intensity_jitter: 0.2,
        }
    }
}

/// Generates `n` labelled digit images with the given config and seed.
///
/// Labels cycle through the 10 classes so every class is equally
/// represented; all randomness (shift, jitter, noise) is drawn from the
/// seeded RNG, so the dataset is fully reproducible.
///
/// # Panics
///
/// Panics if `n` is zero or `config.size < 7`.
pub fn synthetic_digits(n: usize, config: DigitConfig, seed: u64) -> Dataset {
    assert!(n > 0, "dataset size must be positive");
    assert!(
        config.size >= 7,
        "image size must be at least the glyph size"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = config.size * config.size;
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let digit = i % 10;
        labels.push(digit);
        data.extend(render_digit(digit, &config, &mut rng));
    }
    Dataset::new(Matrix::from_vec(n, dim, data), labels, 10)
}

/// The standard train/test split used by the Fig. 6 / Table III
/// harness: disjoint seeds for the two sets.
pub fn synthetic_mnist(train: usize, test: usize, seed: u64) -> (Dataset, Dataset) {
    let config = DigitConfig::mnist_like();
    (
        synthetic_digits(train, config, seed),
        synthetic_digits(test, config, seed ^ 0x5eed),
    )
}

/// Renders one digit as a `size × size` image in `[0, 1]`.
fn render_digit(digit: usize, config: &DigitConfig, rng: &mut StdRng) -> Vec<f64> {
    let size = config.size;
    // Upsample factor that fits the 7×7 glyph into the image.
    let scale = size / 7;
    let glyph = &GLYPHS[digit];

    let intensity = 1.0 - rng.random_range(0.0..config.intensity_jitter);
    let dx = rng.random_range(-config.max_shift..=config.max_shift);
    let dy = rng.random_range(-config.max_shift..=config.max_shift);
    // Center the scaled glyph.
    let margin = (size - 7 * scale) / 2;

    let mut img = vec![0.0f64; size * size];
    for (gy, row) in glyph.iter().enumerate() {
        for (gx, ch) in row.bytes().enumerate() {
            if ch != b'#' {
                continue;
            }
            for sy in 0..scale {
                for sx in 0..scale {
                    let y = (margin + gy * scale + sy) as i32 + dy;
                    let x = (margin + gx * scale + sx) as i32 + dx;
                    if (0..size as i32).contains(&y) && (0..size as i32).contains(&x) {
                        img[y as usize * size + x as usize] = intensity;
                    }
                }
            }
        }
    }

    // Additive Gaussian noise (Box–Muller), clamped to [0, 1].
    if config.noise > 0.0 {
        for v in &mut img {
            *v = (*v + gaussian(rng) * config.noise).clamp(0.0, 1.0);
        }
    }
    img
}

/// A standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = synthetic_digits(30, DigitConfig::mnist_like(), 7);
        let b = synthetic_digits(30, DigitConfig::mnist_like(), 7);
        assert_eq!(a.images(), b.images());
        assert_eq!(a.labels(), b.labels());
        let c = synthetic_digits(30, DigitConfig::mnist_like(), 8);
        assert_ne!(
            a.images(),
            c.images(),
            "different seeds give different data"
        );
    }

    #[test]
    fn shapes_and_ranges() {
        let d = synthetic_digits(25, DigitConfig::mnist_like(), 1);
        assert_eq!(d.len(), 25);
        assert_eq!(d.images().shape(), (25, 784));
        assert_eq!(d.classes(), 10);
        assert!(d
            .images()
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn classes_are_balanced() {
        let d = synthetic_digits(100, DigitConfig::small(), 2);
        let mut counts = [0usize; 10];
        for &l in d.labels() {
            counts[l] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn images_have_ink() {
        let d = synthetic_digits(20, DigitConfig::mnist_like(), 3);
        for r in 0..20 {
            let ink: f64 = d.images().row(r).iter().sum();
            assert!(ink > 10.0, "image {r} should contain a visible glyph");
        }
    }

    #[test]
    fn different_classes_differ_more_than_same_class() {
        // Noise-free rendering: intra-class distance (same digit, shifted)
        // should on average be below inter-class distance.
        let config = DigitConfig {
            noise: 0.0,
            ..DigitConfig::mnist_like()
        };
        let d = synthetic_digits(200, config, 4);
        let img = |i: usize| Matrix::from_vec(1, 784, d.images().row(i).to_vec());
        // Samples i and i+10 share a class; i and i+1 do not.
        let mut intra = 0.0;
        let mut inter = 0.0;
        for i in 0..50 {
            intra += img(i).distance(&img(i + 10));
            inter += img(i).distance(&img(i + 1));
        }
        assert!(intra < inter, "intra {intra} should be below inter {inter}");
    }

    #[test]
    fn train_test_split_is_disjointly_seeded() {
        let (train, test) = synthetic_mnist(20, 20, 9);
        assert_ne!(train.images(), test.images());
    }
}
