//! Modular arithmetic over [`U256`] moduli.
//!
//! All functions require their operands to be already reduced
//! (`< modulus`); this is debug-asserted. The group and FE layers maintain
//! that invariant at their boundaries.

use crate::uint::{U256, U512};

/// `(a + b) mod m`.
///
/// # Panics
///
/// Panics (debug builds) if `a` or `b` is not reduced mod `m`.
pub fn mod_add(a: &U256, b: &U256, m: &U256) -> U256 {
    debug_assert!(a < m && b < m, "operands must be reduced");
    let (sum, carry) = a.overflowing_add(b);
    if carry || &sum >= m {
        sum.wrapping_sub(m)
    } else {
        sum
    }
}

/// `(a - b) mod m`.
///
/// # Panics
///
/// Panics (debug builds) if `a` or `b` is not reduced mod `m`.
pub fn mod_sub(a: &U256, b: &U256, m: &U256) -> U256 {
    debug_assert!(a < m && b < m, "operands must be reduced");
    let (diff, borrow) = a.overflowing_sub(b);
    if borrow {
        diff.wrapping_add(m)
    } else {
        diff
    }
}

/// `(-a) mod m`.
///
/// # Panics
///
/// Panics (debug builds) if `a` is not reduced mod `m`.
pub fn mod_neg(a: &U256, m: &U256) -> U256 {
    debug_assert!(a < m, "operand must be reduced");
    if a.is_zero() {
        U256::ZERO
    } else {
        m.wrapping_sub(a)
    }
}

/// `(a * b) mod m` via a full 512-bit product and Knuth division.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn mod_mul(a: &U256, b: &U256, m: &U256) -> U256 {
    a.widening_mul(b).rem_u256(m)
}

/// `(a^exp) mod m`.
///
/// Odd moduli (every prime modulus in this workspace) take the
/// Montgomery-form path: a [`Montgomery`](crate::montgomery::Montgomery)
/// context is built once and the whole exponentiation runs on CIOS
/// products, replacing one 512-bit Knuth division per multiply with two
/// 256-bit multiplies. Even moduli fall back to
/// [`mod_pow_schoolbook`]. Both paths are bit-identical (see the
/// equivalence property tests).
///
/// Callers that exponentiate repeatedly against one modulus should
/// build and reuse a [`Montgomery`](crate::montgomery::Montgomery)
/// context (or a fixed-base table in the group layer) instead of
/// calling this in a loop — the context construction is amortized here
/// over only a single exponentiation.
///
/// # Panics
///
/// Panics if `m` is zero. `m == 1` yields 0.
pub fn mod_pow(base: &U256, exp: &U256, m: &U256) -> U256 {
    assert!(!m.is_zero(), "zero modulus");
    match crate::montgomery::Montgomery::new(m) {
        Some(ctx) => ctx.pow(base, exp),
        None => mod_pow_schoolbook(base, exp, m),
    }
}

/// `(a^exp) mod m` by schoolbook square-and-multiply (left-to-right,
/// 4-bit window) with a full division-based reduction per product.
///
/// This is the pre-Montgomery generic path, kept for even moduli and as
/// the reference implementation the Montgomery path is property-tested
/// against.
///
/// # Panics
///
/// Panics if `m` is zero. `m == 1` yields 0.
pub fn mod_pow_schoolbook(base: &U256, exp: &U256, m: &U256) -> U256 {
    assert!(!m.is_zero(), "zero modulus");
    if m == &U256::ONE {
        return U256::ZERO;
    }
    let base = base.rem(m);
    if exp.is_zero() {
        return U256::ONE;
    }
    if base.is_zero() {
        return U256::ZERO;
    }

    // Precompute base^0 .. base^15 for a fixed 4-bit window.
    let mut table = [U256::ONE; 16];
    table[1] = base;
    for i in 2..16 {
        table[i] = mod_mul(&table[i - 1], &base, m);
    }

    let bits = exp.bit_len();
    let windows = bits.div_ceil(4);
    let mut acc = U256::ONE;
    for w in (0..windows).rev() {
        if w != windows - 1 {
            acc = mod_mul(&acc, &acc, m);
            acc = mod_mul(&acc, &acc, m);
            acc = mod_mul(&acc, &acc, m);
            acc = mod_mul(&acc, &acc, m);
        }
        let mut nibble = 0usize;
        for b in 0..4 {
            let idx = w * 4 + b;
            if idx < bits && exp.bit(idx) {
                nibble |= 1 << b;
            }
        }
        if nibble != 0 {
            acc = mod_mul(&acc, &table[nibble], m);
        }
    }
    acc
}

/// Modular inverse for an odd modulus, via the binary extended-GCD
/// algorithm. Returns `None` when `gcd(a, m) != 1` or `a == 0`.
///
/// # Panics
///
/// Panics if `m` is zero or even (every modulus in this crate is an odd
/// prime, and the binary algorithm requires oddness).
pub fn mod_inv(a: &U256, m: &U256) -> Option<U256> {
    assert!(!m.is_zero(), "zero modulus");
    assert!(m.is_odd(), "mod_inv requires an odd modulus");
    let a = a.rem(m);
    if a.is_zero() {
        return None;
    }

    let halve_mod = |x: &U256| -> U256 {
        if x.is_even() {
            x.shr(1)
        } else {
            // (x + m) / 2 without overflow: x/2 + m/2 + 1 (both odd).
            x.shr(1).wrapping_add(&m.shr(1)).wrapping_add(&U256::ONE)
        }
    };

    let mut u = a;
    let mut v = *m;
    let mut x1 = U256::ONE;
    let mut x2 = U256::ZERO;

    while u != U256::ONE && v != U256::ONE {
        while u.is_even() {
            u = u.shr(1);
            x1 = halve_mod(&x1);
        }
        while v.is_even() {
            v = v.shr(1);
            x2 = halve_mod(&x2);
        }
        if u >= v {
            u = u.wrapping_sub(&v);
            x1 = mod_sub(&x1, &x2, m);
        } else {
            v = v.wrapping_sub(&u);
            x2 = mod_sub(&x2, &x1, m);
        }
        if u.is_zero() || v.is_zero() {
            return None; // gcd(a, m) != 1
        }
    }

    Some(if u == U256::ONE { x1 } else { x2 })
}

/// Batch modular inversion (Montgomery's trick) for an odd modulus:
/// inverts all of `values` with a single extended-GCD inversion plus
/// `3(n−1)` multiplications. Returns `None` if any value is zero or not
/// coprime with `m` (a partial batch would corrupt later inverses).
///
/// This is the one-shot wrapper over
/// [`Montgomery::batch_inv`](crate::montgomery::Montgomery::batch_inv);
/// callers inverting repeatedly against one modulus (the group layer)
/// should build and reuse a context instead, as with [`mod_pow`].
///
/// # Panics
///
/// Panics if `m` is zero or even, as [`mod_inv`] does.
pub fn batch_mod_inv(values: &[U256], m: &U256) -> Option<Vec<U256>> {
    assert!(!m.is_zero(), "zero modulus");
    assert!(m.is_odd(), "batch_mod_inv requires an odd modulus");
    if *m == U256::ONE {
        return None;
    }
    crate::montgomery::Montgomery::new(m)
        .expect("odd modulus > 1 always has a Montgomery context")
        .batch_inv(values)
}

/// Reduces a 512-bit value modulo a 256-bit modulus.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn reduce_wide(v: &U512, m: &U256) -> U256 {
    v.rem_u256(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// A 61-bit prime for cross-checking against native u128 arithmetic.
    const P61: u64 = 2_305_843_009_213_693_951; // 2^61 - 1 (Mersenne prime)

    fn u(v: u64) -> U256 {
        U256::from_u64(v)
    }

    #[test]
    fn add_sub_neg_mod_small() {
        let m = u(97);
        assert_eq!(mod_add(&u(90), &u(10), &m), u(3));
        assert_eq!(mod_sub(&u(3), &u(10), &m), u(90));
        assert_eq!(mod_neg(&u(1), &m), u(96));
        assert_eq!(mod_neg(&U256::ZERO, &m), U256::ZERO);
    }

    #[test]
    fn mod_add_with_carry_past_width() {
        // a + b overflows 256 bits; modulus close to 2^256.
        let m = U256::MAX;
        let a = U256::MAX.wrapping_sub(&u(1));
        let b = U256::MAX.wrapping_sub(&u(2));
        // (2^256-2 + 2^256-3) mod (2^256-1) = 2^256 - 4... check via invariant:
        let s = mod_add(&a, &b, &m);
        assert!(s < m);
        // s ≡ a + b (mod m): verify (s - a) mod m == b mod m
        assert_eq!(mod_sub(&s, &a, &m), b.rem(&m));
    }

    #[test]
    fn mul_matches_u128() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = u(P61);
        for _ in 0..256 {
            let a = rng.random_range(0..P61);
            let b = rng.random_range(0..P61);
            let expect = ((a as u128 * b as u128) % P61 as u128) as u64;
            assert_eq!(mod_mul(&u(a), &u(b), &m), u(expect));
        }
    }

    #[test]
    fn pow_matches_naive() {
        let mut rng = StdRng::seed_from_u64(12);
        let m = u(1_000_003);
        for _ in 0..64 {
            let a = rng.random_range(0u64..1_000_003);
            let e = rng.random_range(0u64..50);
            let mut expect: u64 = 1;
            for _ in 0..e {
                expect = expect * a % 1_000_003;
            }
            assert_eq!(mod_pow(&u(a), &u(e), &m), u(expect), "{a}^{e}");
        }
    }

    #[test]
    fn pow_edge_cases() {
        let m = u(97);
        assert_eq!(mod_pow(&u(5), &U256::ZERO, &m), U256::ONE);
        assert_eq!(mod_pow(&U256::ZERO, &u(5), &m), U256::ZERO);
        assert_eq!(mod_pow(&u(5), &U256::ONE, &m), u(5));
        assert_eq!(mod_pow(&u(5), &u(3), &U256::ONE), U256::ZERO);
    }

    #[test]
    fn fermat_little_theorem_256bit() {
        // p = 2^255 - 19 is prime; a^(p-1) ≡ 1 (mod p).
        let p = U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap();
        let pm1 = p.wrapping_sub(&U256::ONE);
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..4 {
            let a = U256::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            assert_eq!(mod_pow(&a, &pm1, &p), U256::ONE);
        }
    }

    #[test]
    fn inverse_roundtrip() {
        let mut rng = StdRng::seed_from_u64(14);
        let m = u(P61);
        for _ in 0..128 {
            let a = u(rng.random_range(1..P61));
            let inv = mod_inv(&a, &m).expect("prime modulus, nonzero a");
            assert_eq!(mod_mul(&a, &inv, &m), U256::ONE);
        }
    }

    #[test]
    fn inverse_of_zero_and_noncoprime() {
        let m = u(15);
        assert_eq!(mod_inv(&U256::ZERO, &m), None);
        assert_eq!(mod_inv(&u(5), &m), None); // gcd(5,15)=5
        assert_eq!(mod_inv(&u(3), &m), None);
        let i = mod_inv(&u(2), &m).unwrap();
        assert_eq!(mod_mul(&u(2), &i, &m), U256::ONE);
    }

    #[test]
    fn inverse_256bit_prime() {
        let p = U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed")
            .unwrap();
        let mut rng = StdRng::seed_from_u64(15);
        for _ in 0..8 {
            let a = U256::random_below(&mut rng, &p);
            if a.is_zero() {
                continue;
            }
            let inv = mod_inv(&a, &p).unwrap();
            assert_eq!(mod_mul(&a, &inv, &p), U256::ONE);
            // Fermat inverse agrees.
            let fermat = mod_pow(&a, &p.wrapping_sub(&U256::from_u64(2)), &p);
            assert_eq!(inv, fermat);
        }
    }

    #[test]
    fn batch_mod_inv_matches_mod_inv() {
        let mut rng = StdRng::seed_from_u64(17);
        let m = u(P61);
        let values: Vec<U256> = (0..32).map(|_| u(rng.random_range(1..P61))).collect();
        let batch = batch_mod_inv(&values, &m).unwrap();
        for (v, inv) in values.iter().zip(&batch) {
            assert_eq!(*inv, mod_inv(v, &m).unwrap());
            assert_eq!(mod_mul(v, inv, &m), U256::ONE);
        }
        // Any zero poisons the whole batch.
        assert_eq!(batch_mod_inv(&[u(3), U256::ZERO], &m), None);
        assert_eq!(batch_mod_inv(&[], &m), Some(Vec::new()));
        assert_eq!(batch_mod_inv(&[u(2)], &U256::ONE), None);
    }

    #[test]
    fn reduce_wide_matches() {
        let mut rng = StdRng::seed_from_u64(16);
        for _ in 0..32 {
            let a = U256::random(&mut rng);
            let b = U256::random(&mut rng);
            let m = u(P61);
            let r = reduce_wide(&a.widening_mul(&b), &m);
            let expect = mod_mul(&a.rem(&m), &b.rem(&m), &m);
            assert_eq!(r, expect);
        }
    }
}
