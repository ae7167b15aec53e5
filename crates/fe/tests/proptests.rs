//! Property-based tests: FEIP and FEBO decryption must equal the
//! plaintext function on random inputs, and must be randomized.

use cryptonn_fe::{febo, feip, BasicOp, KeyAuthority, PermittedFunctions};
use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::OnceLock;

fn group() -> &'static SchnorrGroup {
    static GROUP: OnceLock<SchnorrGroup> = OnceLock::new();
    GROUP.get_or_init(|| SchnorrGroup::precomputed(SecurityLevel::Bits64))
}

fn table() -> &'static DlogTable {
    static TABLE: OnceLock<DlogTable> = OnceLock::new();
    // Bound covers |<x,y>| for 8-dim vectors of |v| <= 300, and all FEBO
    // results for |x|,|y| <= 1000.
    TABLE.get_or_init(|| DlogTable::new(group(), 1_100_000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn feip_decrypts_inner_product(
        x in proptest::collection::vec(-300i64..=300, 1..8),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = x.len();
        let y: Vec<i64> = (0..dim).map(|i| ((seed >> (i % 48)) as i64 % 300) - 150).collect();
        let (mpk, msk) = feip::setup(group().clone(), dim, &mut rng);
        let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = feip::key_derive(group(), &msk, &y).unwrap();
        let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert_eq!(feip::decrypt(&mpk, &ct, &sk, &y, table()).unwrap(), expected);
    }

    #[test]
    fn febo_add_sub_mul_decrypt(
        x in -1000i64..=1000,
        y in -1000i64..=1000,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mpk, msk) = febo::setup(group().clone(), &mut rng);
        for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
            let ct = febo::encrypt(&mpk, x, &mut rng);
            let sk = febo::key_derive(group(), &msk, ct.commitment(), op, y).unwrap();
            prop_assert_eq!(
                febo::decrypt(&mpk, &sk, &ct, op, y, table()).unwrap(),
                op.apply(x, y)
            );
        }
    }

    #[test]
    fn febo_exact_division(
        quotient in -1000i64..=1000,
        y in prop_oneof![1i64..=30, -30i64..=-1],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mpk, msk) = febo::setup(group().clone(), &mut rng);
        let x = quotient * y;
        let ct = febo::encrypt(&mpk, x, &mut rng);
        let sk = febo::key_derive(group(), &msk, ct.commitment(), BasicOp::Div, y).unwrap();
        prop_assert_eq!(
            febo::decrypt(&mpk, &sk, &ct, BasicOp::Div, y, table()).unwrap(),
            quotient
        );
    }

    #[test]
    fn authority_roundtrip_matches_direct_scheme(
        x in proptest::collection::vec(-100i64..=100, 3),
        y in proptest::collection::vec(-100i64..=100, 3),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let auth = KeyAuthority::with_seed(group().clone(), PermittedFunctions::all(), seed);
        let mpk = auth.feip_public_key(3);
        let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
        let sk = auth.derive_ip_key(3, &y).unwrap();
        let expected: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        prop_assert_eq!(feip::decrypt(&mpk, &ct, &sk, &y, table()).unwrap(), expected);
    }
}

/// Every embedded security level — the multi-scalar ≡ naive equivalence
/// must hold at each one (different moduli exercise different carry and
/// reduction paths).
const ALL_LEVELS: [SecurityLevel; 7] = [
    SecurityLevel::Bits32,
    SecurityLevel::Bits64,
    SecurityLevel::Bits128,
    SecurityLevel::Bits192,
    SecurityLevel::Bits224,
    SecurityLevel::Bits256,
    SecurityLevel::Bits256Fast,
];

/// The paper's first-layer geometry (dim-784 rows, two-decimal
/// fixed-point operands): the production batched sweep — shared
/// recodings, lane kernels, one batched inversion — recovers every cell
/// bit-identically to the naive one-pow-per-term reference and to the
/// plaintext inner product, at the levels the serving path runs at.
#[test]
fn feip_batched_cells_equal_naive_at_paper_geometry() {
    const DIM: usize = 784;
    let mut rng = StdRng::seed_from_u64(901);
    let mut draw = || -> Vec<i64> { (0..DIM).map(|_| rng.random_range(-100..=100)).collect() };
    let xs = [draw(), draw()];
    let ys = [draw(), draw()];
    let rows: Vec<&[i64]> = ys.iter().map(Vec::as_slice).collect();
    for level in [
        SecurityLevel::Bits64,
        SecurityLevel::Bits256,
        SecurityLevel::Bits256Fast,
    ] {
        let mut rng = StdRng::seed_from_u64(902);
        let g = SchnorrGroup::precomputed(level);
        let table = DlogTable::new(&g, 100 * 100 * DIM as u64);
        let (mpk, msk) = feip::setup(g.clone(), DIM, &mut rng);
        let cts: Vec<_> = xs
            .iter()
            .map(|x| feip::encrypt(&mpk, x, &mut rng).unwrap())
            .collect();
        let keys: Vec<_> = ys
            .iter()
            .map(|y| feip::key_derive(&g, &msk, y).unwrap())
            .collect();
        let cells = feip::decrypt_cells(
            &mpk,
            &cts,
            &keys,
            &rows,
            &table,
            cryptonn_parallel::Parallelism::Threads(2),
        )
        .unwrap();
        for (c, (ct, x)) in cts.iter().zip(&xs).enumerate() {
            for (r, y) in ys.iter().enumerate() {
                let plain: i64 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                let naive = feip::decrypt_naive(&mpk, ct, &keys[r], y, &table).unwrap();
                assert_eq!(cells[c * ys.len() + r], naive, "{level:?} cell ({c},{r})");
                assert_eq!(naive, plain, "{level:?} cell ({c},{r})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The Straus/wNAF FEIP decrypt path is bit-identical to the naive
    /// one-pow-per-term reference for random signed weight rows —
    /// including all-zero and all-negative rows — at every level.
    #[test]
    fn feip_multi_scalar_equals_naive_at_all_levels(
        x in proptest::collection::vec(-200i64..=200, 4),
        y in prop_oneof![
            proptest::collection::vec(-200i64..=200, 4),
            proptest::collection::vec(Just(0i64), 4),
            proptest::collection::vec(-200i64..=-1, 4),
        ],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for level in ALL_LEVELS {
            let g = SchnorrGroup::precomputed(level);
            let (mpk, msk) = feip::setup(g.clone(), 4, &mut rng);
            let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
            let sk = feip::key_derive(&g, &msk, &y).unwrap();
            prop_assert_eq!(
                feip::decrypt_raw(&mpk, &ct, &sk, &y).unwrap(),
                feip::decrypt_raw_naive(&mpk, &ct, &sk, &y).unwrap(),
                "level {:?}", level
            );
        }
    }

    /// Same equivalence for the FEBO fast path, across all four ops.
    #[test]
    fn febo_multi_scalar_equals_naive_at_all_levels(
        x in -500i64..=500,
        y in prop_oneof![-500i64..=-1, 1i64..=500, Just(0i64)],
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for level in ALL_LEVELS {
            let g = SchnorrGroup::precomputed(level);
            let (mpk, msk) = febo::setup(g.clone(), &mut rng);
            for op in BasicOp::ALL {
                if op == BasicOp::Div && y == 0 {
                    continue;
                }
                let ct = febo::encrypt(&mpk, x, &mut rng);
                let sk = febo::key_derive(&g, &msk, ct.commitment(), op, y).unwrap();
                prop_assert_eq!(
                    febo::decrypt_raw(&mpk, &sk, &ct, op, y).unwrap(),
                    febo::decrypt_raw_naive(&mpk, &sk, &ct, op, y).unwrap(),
                    "level {:?} op {}", level, op
                );
            }
        }
    }
}
