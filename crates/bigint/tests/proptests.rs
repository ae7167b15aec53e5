//! Property-based tests for the big-integer layer.
//!
//! Values are cross-checked against native `u128` arithmetic where the
//! range allows it, and against algebraic identities where it does not.

use cryptonn_bigint::{modular, prime, U256};
use proptest::prelude::*;

fn u256() -> impl Strategy<Value = U256> {
    proptest::array::uniform4(any::<u64>()).prop_map(U256::from_limbs)
}

/// A non-zero modulus below 2^126 so the doubling-based reference
/// implementation in [`mulmod_shift64`] cannot overflow `u128`.
fn modulus128() -> impl Strategy<Value = u128> {
    2u128..(1u128 << 126)
}

proptest! {
    #[test]
    fn hex_roundtrip(a in u256()) {
        prop_assert_eq!(U256::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn be_bytes_roundtrip(a in u256()) {
        prop_assert_eq!(U256::from_be_bytes(a.to_be_bytes()), a);
    }

    #[test]
    fn serde_roundtrip_via_display(a in u256()) {
        // Display is `0x` + hex, and FromStr accepts the prefix.
        let s = format!("{a}");
        prop_assert_eq!(s.parse::<U256>().unwrap(), a);
    }

    #[test]
    fn add_commutes(a in u256(), b in u256()) {
        prop_assert_eq!(a.wrapping_add(&b), b.wrapping_add(&a));
    }

    #[test]
    fn add_sub_inverse(a in u256(), b in u256()) {
        prop_assert_eq!(a.wrapping_add(&b).wrapping_sub(&b), a);
    }

    #[test]
    fn add_matches_u128(a in any::<u128>() , b in any::<u128>()) {
        // Restrict to 127-bit halves so the sum cannot carry past 128 bits.
        let (a, b) = (a >> 1, b >> 1);
        let sum = U256::from_u128(a).wrapping_add(&U256::from_u128(b));
        prop_assert_eq!(sum, U256::from_u128(a + b));
    }

    #[test]
    fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
        let prod = U256::from_u64(a).wrapping_mul(&U256::from_u64(b));
        prop_assert_eq!(prod, U256::from_u128(a as u128 * b as u128));
    }

    #[test]
    fn div_rem_invariant(a in u256(), b in u256()) {
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        // a == q*b + r, computed with a full-width check: q*b must not
        // overflow since q <= a / b.
        let qb = q.checked_mul(&b);
        prop_assert!(qb.is_some());
        prop_assert_eq!(qb.unwrap().checked_add(&r), Some(a));
    }

    #[test]
    fn widening_mul_truncates_consistently(a in u256(), b in u256()) {
        let wide = a.widening_mul(&b);
        prop_assert_eq!(wide.truncate(), a.wrapping_mul(&b));
    }

    #[test]
    fn shl_shr_roundtrip(a in u256(), s in 0usize..256) {
        // Mask off the bits that would fall off the top.
        let masked = a.shl(s).shr(s);
        let expect = if s == 0 { a } else { a.shl(s).shr(s) };
        prop_assert_eq!(masked, expect);
        // shr then shl zeroes the low bits.
        let low_cleared = a.shr(s).shl(s);
        for i in 0..s {
            prop_assert!(!low_cleared.bit(i));
        }
    }

    #[test]
    fn mod_mul_matches_u128(a in any::<u128>(), b in any::<u128>(), m in modulus128()) {
        let a = a % m;
        let b = b % m;
        // Compute a*b mod m in u128 via a 64x64 split-free method:
        // only feasible when the product fits; restrict a to 64 bits.
        let a = a & (u64::MAX as u128);
        let expect = mul_mod_u128(a, b, m);
        let got = modular::mod_mul(&U256::from_u128(a), &U256::from_u128(b), &U256::from_u128(m));
        prop_assert_eq!(got, U256::from_u128(expect));
    }

    #[test]
    fn mod_add_sub_are_inverse(a in u256(), b in u256(), m in u256()) {
        prop_assume!(m > U256::ONE);
        let a = a.rem(&m);
        let b = b.rem(&m);
        let s = modular::mod_add(&a, &b, &m);
        prop_assert_eq!(modular::mod_sub(&s, &b, &m), a);
        prop_assert_eq!(modular::mod_sub(&s, &a, &m), b);
    }

    #[test]
    fn mod_pow_add_law(a in u256(), e1 in 0u64..64, e2 in 0u64..64, m in u256()) {
        // a^(e1+e2) == a^e1 * a^e2 (mod m)
        prop_assume!(m > U256::ONE);
        let a = a.rem(&m);
        let lhs = modular::mod_pow(&a, &U256::from_u64(e1 + e2), &m);
        let rhs = modular::mod_mul(
            &modular::mod_pow(&a, &U256::from_u64(e1), &m),
            &modular::mod_pow(&a, &U256::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn mod_inv_is_inverse(a in u256()) {
        // Against the 2^255 - 19 prime.
        let p = U256::from_hex(
            "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed",
        ).unwrap();
        let a = a.rem(&p);
        prop_assume!(!a.is_zero());
        let inv = modular::mod_inv(&a, &p).unwrap();
        prop_assert_eq!(modular::mod_mul(&a, &inv, &p), U256::ONE);
    }

    #[test]
    fn rem_u64_matches_rem(a in u256(), d in 1u64..) {
        let r = a.rem_u64(d);
        prop_assert_eq!(U256::from_u64(r), a.rem(&U256::from_u64(d)));
    }
}

/// Schoolbook `a * b % m` for u128 operands where `a` fits in 64 bits.
fn mul_mod_u128(a: u128, b: u128, m: u128) -> u128 {
    // a < 2^64, so a * (b >> 64) < 2^128 and a * (b & mask) < 2^128.
    let lo = b & (u64::MAX as u128);
    let hi = b >> 64;
    // a*b = a*hi*2^64 + a*lo
    let part_hi = mulmod_shift64(a.wrapping_mul(hi) % m, m);
    (part_hi + a.wrapping_mul(lo) % m) % m
}

/// Computes `(x << 64) % m` without overflow by 64 doubling steps.
fn mulmod_shift64(mut x: u128, m: u128) -> u128 {
    for _ in 0..64 {
        x <<= 1;
        if x >= m {
            x -= m;
        }
    }
    x
}

#[test]
fn random_primes_are_odd_and_sized() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(99);
    let p = prime::gen_prime(80, &mut rng);
    assert!(p.is_odd());
    assert_eq!(p.bit_len(), 80);
}

/// Safe-prime `(p, q)` test moduli. `Bits64` and `Bits256Fast` are the
/// pairs `cryptonn-group` embeds for its two `SecurityLevel`s
/// (duplicated here because a dev-dependency on the group crate would
/// be cyclic); the other five are plain safe primes at other widths, so
/// the one-limb, generic multi-limb and fast-reduction Montgomery arms
/// are all checked against schoolbook arithmetic.
const SAFE_PRIME_MODULI: &[(&str, &str, &str)] = &[
    ("32-bit", "85a1545f", "42d0aa2f"),
    ("Bits64", "e1946b58700bae4f", "70ca35ac3805d727"),
    (
        "128-bit",
        "e8a60f34154b07019e29019fd53661e7",
        "7453079a0aa58380cf1480cfea9b30f3",
    ),
    (
        "192-bit",
        "cae643bc62df98dce86d1a300a4f8dc41916bd5ee88ba403",
        "657321de316fcc6e74368d180527c6e20c8b5eaf7445d201",
    ),
    (
        "224-bit",
        "f1fcd972befe655dea418894ba5e896515c2f7f09dee7ecd12512353",
        "78fe6cb95f7f32aef520c44a5d2f44b28ae17bf84ef73f66892891a9",
    ),
    (
        "256-bit generic",
        "a504130456d8cce0af73fd190c683b02148b6371a703ba4bac786a772db736af",
        "528209822b6c667057b9fe8c86341d810a45b1b8d381dd25d63c353b96db9b57",
    ),
    // The Montgomery-friendly level: both p and q ≡ -1 (mod 2^64), so
    // every context below takes the FastP64 reducer.
    (
        "Bits256Fast",
        "9f2c45ea4d0cf9de4608fe14686ecec4ec2bde9b9326aa17ffffffffffffffff",
        "4f9622f526867cef23047f0a343767627615ef4dc993550bffffffffffffffff",
    ),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Montgomery `mod_mul` is bit-identical to the schoolbook
    /// (widening-multiply + Knuth-division) product at every test
    /// modulus's `p` and `q`.
    #[test]
    fn montgomery_mod_mul_equals_schoolbook_at_all_levels(a in u256(), b in u256()) {
        for (label, p_hex, q_hex) in SAFE_PRIME_MODULI {
            for m_hex in [p_hex, q_hex] {
                let m = U256::from_hex(m_hex).unwrap();
                let ctx = cryptonn_bigint::Montgomery::new(&m).unwrap();
                let (ar, br) = (a.rem(&m), b.rem(&m));
                prop_assert_eq!(
                    ctx.mod_mul(&ar, &br),
                    modular::mod_mul(&ar, &br, &m),
                    "{} modulus {}", label, m
                );
            }
        }
    }

    /// `mod_pow` (Montgomery path) is bit-identical to
    /// `mod_pow_schoolbook` at every test modulus.
    #[test]
    fn montgomery_mod_pow_equals_schoolbook_at_all_levels(base in u256(), exp in u256()) {
        for (label, p_hex, q_hex) in SAFE_PRIME_MODULI {
            for m_hex in [p_hex, q_hex] {
                let m = U256::from_hex(m_hex).unwrap();
                prop_assert_eq!(
                    modular::mod_pow(&base, &exp, &m),
                    modular::mod_pow_schoolbook(&base, &exp, &m),
                    "{} modulus {}", label, m
                );
            }
        }
    }

    /// The two paths also agree on arbitrary odd moduli (the fallback
    /// boundary itself: even moduli take the schoolbook path inside
    /// `mod_pow`, so both calls degenerate to the same code there).
    #[test]
    fn montgomery_mod_pow_equals_schoolbook_random_moduli(
        base in u256(),
        exp in u256(),
        m in u256(),
    ) {
        prop_assume!(m > U256::ONE);
        prop_assert_eq!(
            modular::mod_pow(&base, &exp, &m),
            modular::mod_pow_schoolbook(&base, &exp, &m),
            "modulus {}", m
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Montgomery-trick batch inversion equals element-wise `mod_inv`
    /// at every test modulus's `p` and `q`.
    #[test]
    fn batch_inversion_equals_individual_at_all_levels(
        values in proptest::collection::vec(u256(), 1..12),
    ) {
        for (label, p_hex, q_hex) in SAFE_PRIME_MODULI {
            for m_hex in [p_hex, q_hex] {
                let m = U256::from_hex(m_hex).unwrap();
                let reduced: Vec<U256> = values.iter().map(|v| v.rem(&m)).collect();
                let batch = modular::batch_mod_inv(&reduced, &m);
                let individual: Option<Vec<U256>> =
                    reduced.iter().map(|v| modular::mod_inv(v, &m)).collect();
                prop_assert_eq!(batch, individual, "{} modulus {}", label, m);
            }
        }
    }

    /// The lane-batched kernel equals four independent `mont_mul`s on
    /// unreduced (wire-range) operands, at every test modulus's `p`
    /// and `q` — generic and fast-reduction moduli alike, whatever
    /// kernel the host dispatched.
    #[test]
    fn mont_mul_lanes_equals_four_mont_muls(
        x in proptest::array::uniform4(u256()),
        y in proptest::array::uniform4(u256()),
    ) {
        use cryptonn_bigint::Montgomery;
        for (label, p_hex, q_hex) in SAFE_PRIME_MODULI {
            for m_hex in [p_hex, q_hex] {
                let m = U256::from_hex(m_hex).unwrap();
                let ctx = Montgomery::new(&m).unwrap();
                let got = ctx.mont_mul_lanes(&x, &y);
                for lane in 0..4 {
                    // mont_mul reduces wire-range operands on entry,
                    // exactly as the lane entry point documents.
                    let expect = ctx.mont_mul(&x[lane].rem(&m), &y[lane].rem(&m));
                    prop_assert_eq!(got[lane], expect, "{} modulus {} lane {}", label, m, lane);
                }
            }
        }
    }
}

/// `2^-256 mod m`, the Montgomery radix inverse, by the schoolbook
/// inverse of `2^256 mod m` — independent of the Montgomery code.
fn radix_inverse(m: &U256) -> U256 {
    let r = U256::MAX.rem(m).wrapping_add(&U256::ONE).rem(m);
    modular::mod_inv(&r, m).expect("m is odd")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One-limb moduli take the `OneLimb` reducer, and its products equal
    /// the schoolbook ones. Every case checks one modulus with the top
    /// bit set (so the first REDC round's `u128` carry can fire) and one
    /// shifted below it, so at least half of the moduli are `≥ 2^63`.
    #[test]
    fn one_limb_reducer_equals_schoolbook(
        raw in any::<u64>(),
        shift in 1u32..62,
        x in proptest::array::uniform4(any::<u64>()),
        y in proptest::array::uniform4(any::<u64>()),
        exp in u256(),
    ) {
        use cryptonn_bigint::{Montgomery, Reducer};
        for m in [raw | (1 << 63) | 1, (raw >> shift) | 3] {
            let m = U256::from_u64(m);
            let ctx = Montgomery::new(&m).unwrap();
            prop_assert_eq!(ctx.reducer(), Reducer::OneLimb, "modulus {}", m);
            let r_inv = radix_inverse(&m);
            let xr: [U256; 4] = core::array::from_fn(|l| U256::from_u64(x[l]).rem(&m));
            let yr: [U256; 4] = core::array::from_fn(|l| U256::from_u64(y[l]).rem(&m));
            let lanes = ctx.mont_mul_lanes(&xr, &yr);
            for lane in 0..4 {
                let expect = modular::mod_mul(&modular::mod_mul(&xr[lane], &yr[lane], &m), &r_inv, &m);
                prop_assert_eq!(ctx.mont_mul(&xr[lane], &yr[lane]), expect, "modulus {}", m);
                prop_assert_eq!(lanes[lane], expect, "modulus {} lane {}", m, lane);
                prop_assert_eq!(
                    ctx.mod_mul(&xr[lane], &yr[lane]),
                    modular::mod_mul(&xr[lane], &yr[lane], &m),
                    "modulus {}", m
                );
            }
            prop_assert_eq!(
                ctx.pow(&xr[0], &exp),
                modular::mod_pow_schoolbook(&xr[0], &exp, &m),
                "modulus {}", m
            );
        }
    }
}
