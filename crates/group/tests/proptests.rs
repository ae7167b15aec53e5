//! Property-based tests for the group layer: exponent homomorphisms and
//! discrete-log recovery over random values.

use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
use proptest::prelude::*;
use std::sync::OnceLock;

fn group() -> &'static SchnorrGroup {
    static G: OnceLock<SchnorrGroup> = OnceLock::new();
    G.get_or_init(|| SchnorrGroup::precomputed(SecurityLevel::Bits64))
}

fn table() -> &'static DlogTable {
    static T: OnceLock<DlogTable> = OnceLock::new();
    T.get_or_init(|| DlogTable::new(group(), 3_000_000))
}

proptest! {
    #[test]
    fn exp_is_homomorphic(a in -100_000i64..=100_000, b in -100_000i64..=100_000) {
        let g = group();
        let lhs = g.exp(&g.scalar_from_i64(a + b));
        let rhs = g.mul(&g.exp(&g.scalar_from_i64(a)), &g.exp(&g.scalar_from_i64(b)));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn pow_respects_scalar_mul(a in 1i64..=1000, b in 1i64..=1000) {
        let g = group();
        // (g^a)^b = g^(ab)
        let lhs = g.pow(&g.exp(&g.scalar_from_i64(a)), &g.scalar_from_i64(b));
        let rhs = g.exp(&g.scalar_from_i64(a * b));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn dlog_roundtrips_signed(z in -2_000_000i64..=2_000_000) {
        let g = group();
        let target = g.exp(&g.scalar_from_i64(z));
        prop_assert_eq!(table().solve(g, &target), Ok(z));
    }

    #[test]
    fn dlog_out_of_range_is_detected(z in 3_000_001i64..=4_000_000) {
        let g = group();
        for sign in [1, -1] {
            let target = g.exp(&g.scalar_from_i64(sign * z));
            prop_assert!(table().solve(g, &target).is_err());
        }
    }

    #[test]
    fn inverse_cancels(a in 1i64..=1_000_000) {
        let g = group();
        let x = g.exp(&g.scalar_from_i64(a));
        prop_assert_eq!(g.mul(&x, &g.inv(&x)), g.identity());
        prop_assert_eq!(g.div(&x, &x), g.identity());
    }

    #[test]
    fn scalar_field_distributes(a in -500i64..=500, b in -500i64..=500, c in -500i64..=500) {
        let g = group();
        let (sa, sb, sc) = (g.scalar_from_i64(a), g.scalar_from_i64(b), g.scalar_from_i64(c));
        // a(b + c) = ab + ac in Z_q
        let lhs = g.scalar_mul(&sa, &g.scalar_add(&sb, &sc));
        let rhs = g.scalar_add(&g.scalar_mul(&sa, &sb), &g.scalar_mul(&sa, &sc));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn elements_live_in_the_subgroup(a in any::<u64>()) {
        let g = group();
        let x = g.exp(&g.scalar_from_u64(a));
        // x^q = 1 for every produced element.
        let q = *g.order();
        let e = g.scalar_from_u256(q); // q ≡ 0 (mod q) → scalar zero
        prop_assert_eq!(g.pow(&x, &e), g.identity());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The `Reducer` seam is transparent at every security level: group
    /// arithmetic over the embedded parameters (OneLimb for `Bits32`
    /// and `Bits64`, FastP64 for `Bits256Fast`, Generic elsewhere)
    /// equals schoolbook
    /// multiply-then-divide in both the element and scalar fields.
    #[test]
    fn reducer_matches_schoolbook_at_every_level(
        a in proptest::collection::vec(any::<u64>(), 4),
        b in proptest::collection::vec(any::<u64>(), 4),
    ) {
        use cryptonn_bigint::{modular, U256};
        let a: [u64; 4] = [a[0], a[1], a[2], a[3]];
        let b: [u64; 4] = [b[0], b[1], b[2], b[3]];
        for level in [
            SecurityLevel::Bits32,
            SecurityLevel::Bits64,
            SecurityLevel::Bits128,
            SecurityLevel::Bits192,
            SecurityLevel::Bits224,
            SecurityLevel::Bits256,
            SecurityLevel::Bits256Fast,
        ] {
            let g = SchnorrGroup::precomputed(level);
            let (av, bv) = (U256::from_limbs(a), U256::from_limbs(b));
            // Element field Z_p.
            let (x, y) = (g.element_from_u256(av), g.element_from_u256(bv));
            if *x.value() != U256::ZERO && *y.value() != U256::ZERO {
                let got = g.mul(&x, &y);
                prop_assert_eq!(
                    *got.value(),
                    modular::mod_mul(x.value(), y.value(), g.modulus()),
                    "p-field at {:?}", level
                );
            }
            // Scalar field Z_q.
            let (s, t) = (g.scalar_from_u256(av), g.scalar_from_u256(bv));
            let got = g.scalar_mul(&s, &t);
            prop_assert_eq!(
                *got.value(),
                modular::mod_mul(s.value(), t.value(), g.order()),
                "q-field at {:?}", level
            );
        }
    }
}

/// Reference for the multi-scalar subsystem: one full-width `pow` per
/// nonzero exponent.
fn naive_multi_pow(
    g: &SchnorrGroup,
    bases: &[cryptonn_group::Element],
    y: &[i64],
) -> cryptonn_group::Element {
    let mut acc = g.identity();
    for (b, &yi) in bases.iter().zip(y) {
        if yi != 0 {
            acc = g.mul(&acc, &g.pow(b, &g.scalar_from_i64(yi)));
        }
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Straus/wNAF multi-scalar exponentiation equals the one-pow-per-base
    /// product for random signed exponents (zeros included).
    #[test]
    fn multi_scalar_matches_naive(
        y in proptest::collection::vec(-1_000_000i64..=1_000_000, 1..10),
        seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<_> = (0..y.len()).map(|_| g.exp(&g.random_scalar(&mut rng))).collect();
        prop_assert_eq!(g.multi_scalar_pow(&bases, &y), naive_multi_pow(g, &bases, &y));
    }

    /// Deferred ratios resolved through the batched inversion equal the
    /// per-ratio division, and folding an extra denominator in commutes
    /// with resolution.
    #[test]
    fn batched_ratio_resolution_matches_division(
        y in proptest::collection::vec(-50_000i64..=50_000, 1..6),
        extra in 1i64..=1_000_000,
        seed in any::<u64>(),
    ) {
        use cryptonn_group::{ElementRatio, WnafScalars};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let g = group();
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<_> = (0..y.len()).map(|_| g.exp(&g.random_scalar(&mut rng))).collect();
        let scalars = WnafScalars::recode(&y);
        let den = g.exp(&g.scalar_from_i64(extra));
        let ratio = if scalars.is_all_zero() {
            ElementRatio::from_element(g, g.identity())
        } else {
            let tables = g.odd_power_tables(&bases);
            g.multi_scalar_ratio(&tables, &scalars)
        };
        let folded = ratio.div_by(g, &den);
        let resolved = g.resolve_ratios(&[ratio, folded]);
        prop_assert_eq!(resolved[0], g.div(&naive_multi_pow(g, &bases, &y), &g.identity()));
        prop_assert_eq!(resolved[1], g.div(&naive_multi_pow(g, &bases, &y), &den));
    }
}
