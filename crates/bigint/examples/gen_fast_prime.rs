//! One-shot search for the Montgomery-friendly safe prime behind
//! `SecurityLevel::Bits256Fast` (DESIGN.md §13.2). Run with:
//!
//! ```sh
//! cargo run --release -p cryptonn-bigint --example gen_fast_prime
//! ```
//!
//! The search looks for a 256-bit safe prime of the shape
//! `p = k·2^64 − 1` with `k` even and the top bit of `k` set. Then
//!
//! - `p ≡ -1 (mod 2^64)`, so `m′ = -p^{-1} mod 2^64 = 1` and the
//!   `Reducer::FastP64` seam drops one multiply per CIOS round, and
//! - `q = (p−1)/2 = (k/2)·2^64 − 1` (because `k` is even), so the
//!   order-`q` scalar field gets the *same* fast reduction for free.
//!
//! The shape only matters for multi-limb moduli: any modulus below
//! `2^64` takes `Reducer::OneLimb` instead, whatever its low limb.
//!
//! Seeded so the published parameters are reproducible.

use cryptonn_bigint::prime::{is_prime, is_prime_with_rounds};
use cryptonn_bigint::U256;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(0x2019_0426);
    let mut tries = 0u64;
    loop {
        tries += 1;
        // k: 192 bits, top bit set (so p fills 256 bits), low bit clear.
        let k = U256::from_limbs([
            rng.random::<u64>() & !1,
            rng.random(),
            rng.random::<u64>() | (1 << 63),
            0,
        ]);
        let p = k.shl(64).wrapping_sub(&U256::ONE);
        let q = p.shr(1); // (p - 1) / 2, exact because p is odd

        // Cheap screen before the full 40-round certification.
        if !is_prime_with_rounds(&p, 2, &mut rng) || !is_prime_with_rounds(&q, 2, &mut rng) {
            continue;
        }
        if is_prime(&p, &mut rng) && is_prime(&q, &mut rng) {
            println!("tries = {tries}");
            println!("p = {}", p.to_hex());
            println!("q = {}", q.to_hex());
            assert_eq!(p.as_limbs()[0], u64::MAX);
            assert_eq!(q.as_limbs()[0], u64::MAX);
            assert_eq!(p.bit_len(), 256);
            return;
        }
    }
}
