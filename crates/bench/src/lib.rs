//! # cryptonn-bench
//!
//! Shared fixtures and workload generators for the benchmark harness
//! that regenerates every table and figure of the CryptoNN evaluation
//! (§IV of the paper). DESIGN.md §7 (Ablation index) lists the
//! experiments.
//!
//! All sweeps default to CI-sized parameters; set `CRYPTONN_BENCH_FULL=1`
//! to run paper-scale sweeps (slower by orders of magnitude, exactly as
//! the paper's own serial arms are).

use cryptonn_fe::{KeyAuthority, PermittedFunctions};
use cryptonn_group::{SchnorrGroup, SecurityLevel};
use cryptonn_matrix::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// True when paper-scale sweeps were requested via `CRYPTONN_BENCH_FULL`.
pub fn full_scale() -> bool {
    std::env::var("CRYPTONN_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// Picks the CI-sized or paper-scale parameter list.
pub fn sweep<T: Copy>(default: &[T], full: &[T]) -> Vec<T> {
    if full_scale() {
        full.to_vec()
    } else {
        default.to_vec()
    }
}

/// The group security level for benches: 64-bit by default (the same
/// algorithms as the paper's 256-bit runs, one-limb arithmetic), the
/// paper's 256 bits under `CRYPTONN_BENCH_FULL`.
pub fn bench_level() -> SecurityLevel {
    if full_scale() {
        SecurityLevel::Bits256Fast
    } else {
        SecurityLevel::Bits64
    }
}

/// A ready-made authority + group fixture.
pub fn fixture(seed: u64) -> (SchnorrGroup, KeyAuthority) {
    let group = SchnorrGroup::precomputed(bench_level());
    let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), seed);
    (group, authority)
}

/// The value ranges used in the Figs. 3–4 legends.
pub const ELEMENT_RANGES: [(i64, i64, &str); 3] = [
    (-10, 10, "[-10,10]"),
    (-100, 100, "[-100,100]"),
    (-1000, 1000, "[-1000,1000]"),
];

/// A `1 × k` matrix of uniform values in `[lo, hi]` (the element-wise
/// figures sweep the element count, shape is irrelevant).
pub fn random_elements(k: usize, lo: i64, hi: i64, seed: u64) -> Matrix<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(1, k, |_, _| rng.random_range(lo..=hi))
}

/// A `rows × cols` matrix of uniform values in `[lo, hi]`.
pub fn random_matrix(rows: usize, cols: usize, lo: i64, hi: i64, seed: u64) -> Matrix<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.random_range(lo..=hi))
}

/// Draws a deterministic RNG for client-side encryption in benches.
pub fn bench_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Thread counts for parallel-arm sweeps, capped at the machine size.
pub fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1, 2, 4, 8, 16];
    counts.retain(|&c| c <= max);
    counts
}

/// Formats a `std::time::Duration` as fractional milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_selects_default_without_env() {
        // The test environment does not set CRYPTONN_BENCH_FULL.
        if !full_scale() {
            assert_eq!(sweep(&[1, 2], &[10, 20]), vec![1, 2]);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            random_elements(5, -10, 10, 1),
            random_elements(5, -10, 10, 1)
        );
        let m = random_matrix(3, 4, -5, 5, 2);
        assert!(m.as_slice().iter().all(|v| (-5..=5).contains(v)));
    }
}
