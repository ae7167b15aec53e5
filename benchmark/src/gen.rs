//! Everything the benchmark feeds the program is generated here, from
//! `--seed` alone: feature matrices, labels, client seeds, request
//! order, and the Poisson schedule. Same seed, same bytes.

use cryptonn_matrix::{Matrix, Tensor4};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Independent seed streams cut from the one `--seed`.
#[derive(Clone, Copy)]
pub enum Stream {
    Clients = 1,
    Features,
    Labels,
    Order,
    Schedule,
}

/// The 64-bit seed of one stream (splitmix64 over seed and stream tag).
pub fn sub_seed(seed: u64, stream: Stream) -> u64 {
    let mut z = seed
        .wrapping_add((stream as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn rng(seed: u64, stream: Stream) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// `rows × dim` features in `[0, 1)` at two decimals, the resolution
/// the clients quantize to.
pub fn features(rows: usize, dim: usize, rng: &mut StdRng) -> Matrix<f64> {
    Matrix::from_fn(rows, dim, |_, _| {
        f64::from(rng.random_range(0u32..100)) / 100.0
    })
}

/// `n` single-channel `side × side` images in `[0, 1)`.
pub fn images(n: usize, side: usize, rng: &mut StdRng) -> Tensor4 {
    let data = (0..n * side * side)
        .map(|_| f64::from(rng.random_range(0u32..100)) / 100.0)
        .collect();
    Tensor4::from_vec(n, 1, side, side, data)
}

pub fn labels(n: usize, classes: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| rng.random_range(0..classes)).collect()
}

/// Due times in seconds of a Poisson process of `rate` arrivals/s over
/// `[0, duration)`.
pub fn poisson_schedule(rate: f64, duration: f64, rng: &mut StdRng) -> Vec<f64> {
    let mut due = Vec::with_capacity((rate * duration * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.random();
        t += -(1.0 - u).ln() / rate;
        if t >= duration {
            return due;
        }
        due.push(t);
    }
}

/// Which pool entry each of `n` requests sends.
pub fn request_order(n: usize, pool: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..n).map(|_| rng.random_range(0..pool as u32)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(v: &[f64]) -> Vec<u8> {
        v.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_same_schedule_and_request_stream() {
        for seed in [0u64, 7, crate::config::DEFAULT_SEED] {
            let a = poisson_schedule(500.0, 2.0, &mut rng(seed, Stream::Schedule));
            let b = poisson_schedule(500.0, 2.0, &mut rng(seed, Stream::Schedule));
            assert_eq!(bytes(&a), bytes(&b));
            assert!(a.windows(2).all(|w| w[0] < w[1]) && *a.last().unwrap() < 2.0);
            assert!(
                (a.len() as f64 - 1000.0).abs() < 150.0,
                "{} arrivals",
                a.len()
            );

            let oa = request_order(4096, 256, &mut rng(seed, Stream::Order));
            let ob = request_order(4096, 256, &mut rng(seed, Stream::Order));
            assert_eq!(oa, ob);
            assert!(oa.iter().all(|&i| i < 256));

            let fa = features(3, 16, &mut rng(seed, Stream::Features));
            let fb = features(3, 16, &mut rng(seed, Stream::Features));
            assert_eq!(bytes(fa.as_slice()), bytes(fb.as_slice()));
            assert_eq!(
                labels(32, 4, &mut rng(seed, Stream::Labels)),
                labels(32, 4, &mut rng(seed, Stream::Labels))
            );
        }
    }

    #[test]
    fn streams_and_seeds_differ() {
        let a = poisson_schedule(500.0, 1.0, &mut rng(1, Stream::Schedule));
        let b = poisson_schedule(500.0, 1.0, &mut rng(2, Stream::Schedule));
        assert_ne!(bytes(&a), bytes(&b));
        assert_ne!(sub_seed(1, Stream::Features), sub_seed(1, Stream::Clients));
    }
}
