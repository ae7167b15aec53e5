//! Lane-batched Montgomery multiplication: four independent products
//! per call.
//!
//! The decrypt fast path (DESIGN.md §13) advances many independent
//! cells through the *same* digit schedule, so at every step it has
//! four (or more) Montgomery products with no data dependencies between
//! them. A single CIOS product is a serial dependency chain of ~9
//! multiply-accumulates per round — far too little instruction-level
//! parallelism to saturate a modern core. Batching four products into
//! one call exposes that parallelism: the four CIOS rounds are
//! interleaved lane-by-lane in one loop, giving the out-of-order engine
//! four independent multiply chains to schedule against each other.
//!
//! It is the only kernel: the same code on every target, with no
//! runtime selection (DESIGN.md §13.1 has the measurement behind that).

use crate::limbs::{adc, mac, Limb};
use crate::montgomery::{Montgomery, Reducer};
use crate::uint::U256;

/// Lanes per batched call.
pub const LANES: usize = 4;

/// Number of 64-bit limbs in the working width.
const N: usize = U256::LIMBS;

/// The lane kernel's name, for benchmark host records and logs.
pub fn kernel_name() -> &'static str {
    "scalar"
}

/// Four interleaved scalar CIOS chains over already-reduced operands.
/// Each outer round advances every lane by one `y` limb before moving
/// on, so the four (entirely independent) multiply-accumulate chains
/// sit side by side in the instruction stream for the out-of-order
/// engine to overlap. Callers go through [`Montgomery::mont_mul_lanes`],
/// which reduces wire-range operands first.
pub(crate) fn mont_mul_x4(ctx: &Montgomery, x: &[U256; LANES], y: &[U256; LANES]) -> [U256; LANES] {
    let m = ctx.m.as_limbs();
    let mut t = [[0 as Limb; N + 2]; LANES];

    for i in 0..N {
        for lane in 0..LANES {
            let xl = x[lane].as_limbs();
            let yi = y[lane].as_limbs()[i];
            let tl = &mut t[lane];

            // tl += x * yi
            let mut carry = 0;
            for j in 0..N {
                let (lo, hi) = mac(tl[j], xl[j], yi, carry);
                tl[j] = lo;
                carry = hi;
            }
            let (sum, over) = adc(tl[N], carry, 0);
            tl[N] = sum;
            tl[N + 1] = over;

            // tl += mu * m, then shift one limb (see Montgomery::mont_mul).
            let (mu, mut carry) = match ctx.reducer {
                // OneLimb never reaches this kernel (see
                // Montgomery::mont_mul_lanes); the generic round is
                // exact for it all the same.
                Reducer::Generic | Reducer::OneLimb => {
                    let mu = tl[0].wrapping_mul(ctx.m_prime);
                    let (_, carry) = mac(tl[0], mu, m[0], 0);
                    (mu, carry)
                }
                Reducer::FastP64 => (tl[0], tl[0]),
            };
            for j in 1..N {
                let (lo, hi) = mac(tl[j], mu, m[j], carry);
                tl[j - 1] = lo;
                carry = hi;
            }
            let (sum, over) = adc(tl[N], carry, 0);
            tl[N - 1] = sum;
            tl[N] = tl[N + 1] + over;
            tl[N + 1] = 0;
        }
    }

    let mut out = [U256::ZERO; LANES];
    for lane in 0..LANES {
        let tl = &t[lane];
        let mut r = U256::from_limbs([tl[0], tl[1], tl[2], tl[3]]);
        if tl[N] != 0 || r >= ctx.m {
            r = r.wrapping_sub(&ctx.m);
        }
        out[lane] = r;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A random odd modulus that selects `reducer`.
    fn random_modulus(rng: &mut StdRng, reducer: Reducer) -> U256 {
        loop {
            let mut m = U256::random(rng);
            match reducer {
                // Force m ≡ -1 (mod 2^64).
                Reducer::FastP64 => {
                    let limbs = m.to_limbs();
                    m = U256::from_limbs([u64::MAX, limbs[1], limbs[2], limbs[3]]);
                }
                // One limb, top bit set half the time so the u128
                // carry of the first REDC round is exercised.
                Reducer::OneLimb => {
                    let top = if rng.random::<bool>() { 1 << 63 } else { 0 };
                    m = U256::from_u64(m.as_limbs()[0] | top | 1);
                }
                Reducer::Generic => {
                    if m.is_even() {
                        m = m.wrapping_add(&U256::ONE);
                    }
                }
            }
            if m > U256::ONE && m.as_limbs()[0] != 0 {
                return m;
            }
        }
    }

    /// The lane kernel must agree with four independent `mont_mul`s,
    /// for generic, fast-reduction and one-limb moduli alike.
    #[test]
    fn lanes_match_scalar_mont_mul() {
        let mut rng = StdRng::seed_from_u64(900);
        for reducer in [Reducer::Generic, Reducer::FastP64, Reducer::OneLimb] {
            for _ in 0..64 {
                let m = random_modulus(&mut rng, reducer);
                let ctx = Montgomery::new(&m).unwrap();
                assert_eq!(ctx.reducer(), reducer, "m={m}");
                let mut x = [U256::ZERO; LANES];
                let mut y = [U256::ZERO; LANES];
                for lane in 0..LANES {
                    x[lane] = U256::random_below(&mut rng, &m);
                    y[lane] = U256::random_below(&mut rng, &m);
                }
                let expect: Vec<U256> = (0..LANES).map(|l| ctx.mont_mul(&x[l], &y[l])).collect();
                let got = ctx.mont_mul_lanes(&x, &y);
                for lane in 0..LANES {
                    assert_eq!(got[lane], expect[lane], "lane {lane} m={m}");
                }
            }
        }
    }

    #[test]
    fn lanes_reduce_unreduced_operands() {
        let m = U256::from_u64(1_000_003);
        let ctx = Montgomery::new(&m).unwrap();
        let big = U256::MAX;
        let one = U256::ONE;
        let got = ctx.mont_mul_lanes(&[big; LANES], &[one; LANES]);
        let expect = ctx.mont_mul(&big.rem(&m), &one);
        assert_eq!(got, [expect; LANES]);
    }

    #[test]
    fn near_maximum_modulus_lanes() {
        // Top-bit-set fast-reduction modulus exercises the overflow limb.
        let m = U256::MAX;
        let ctx = Montgomery::new(&m).unwrap();
        let a = U256::MAX.wrapping_sub(&U256::from_u64(2));
        let b = U256::MAX.wrapping_sub(&U256::from_u64(5));
        let got = ctx.mont_mul_lanes(&[a; LANES], &[b; LANES]);
        assert_eq!(got, [ctx.mont_mul(&a, &b); LANES]);
    }
}
