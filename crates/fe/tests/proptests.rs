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

/// Both embedded groups plus a generic (non-Montgomery-friendly)
/// 256-bit safe-prime group — the multi-scalar ≡ naive equivalence must
/// hold in each (OneLimb, FastP64 and Generic reduction take different
/// carry paths).
fn all_groups() -> &'static [SchnorrGroup; 3] {
    static GROUPS: OnceLock<[SchnorrGroup; 3]> = OnceLock::new();
    GROUPS.get_or_init(|| {
        use cryptonn_bigint::U256;
        let generic_256 = SchnorrGroup::from_params(
            U256::from_hex("a504130456d8cce0af73fd190c683b02148b6371a703ba4bac786a772db736af")
                .unwrap(),
            U256::from_hex("528209822b6c667057b9fe8c86341d810a45b1b8d381dd25d63c353b96db9b57")
                .unwrap(),
            U256::from_u64(4),
            &mut StdRng::seed_from_u64(0),
        )
        .unwrap();
        [
            SchnorrGroup::precomputed(SecurityLevel::Bits64),
            SchnorrGroup::precomputed(SecurityLevel::Bits256Fast),
            generic_256,
        ]
    })
}

/// The paper's first-layer geometry (dim-784 rows, two-decimal
/// fixed-point operands): the production batched sweep — shared
/// recodings, lane kernels, one batched inversion — recovers every cell
/// bit-identically to the naive one-pow-per-term reference and to the
/// plaintext inner product, in every group of [`all_groups`].
#[test]
fn feip_batched_cells_equal_naive_at_paper_geometry() {
    const DIM: usize = 784;
    let mut rng = StdRng::seed_from_u64(901);
    let mut draw = || -> Vec<i64> { (0..DIM).map(|_| rng.random_range(-100..=100)).collect() };
    let xs = [draw(), draw()];
    let ys = [draw(), draw()];
    let rows: Vec<&[i64]> = ys.iter().map(Vec::as_slice).collect();
    for g in all_groups() {
        let mut rng = StdRng::seed_from_u64(902);
        let table = DlogTable::new(g, 100 * 100 * DIM as u64);
        let (mpk, msk) = feip::setup(g.clone(), DIM, &mut rng);
        let cts: Vec<_> = xs
            .iter()
            .map(|x| feip::encrypt(&mpk, x, &mut rng).unwrap())
            .collect();
        let keys: Vec<_> = ys
            .iter()
            .map(|y| feip::key_derive(g, &msk, y).unwrap())
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
                let p = g.modulus();
                assert_eq!(cells[c * ys.len() + r], naive, "p = {p} cell ({c},{r})");
                assert_eq!(naive, plain, "p = {p} cell ({c},{r})");
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
        for g in all_groups() {
            let (mpk, msk) = feip::setup(g.clone(), 4, &mut rng);
            let ct = feip::encrypt(&mpk, &x, &mut rng).unwrap();
            let sk = feip::key_derive(g, &msk, &y).unwrap();
            prop_assert_eq!(
                feip::decrypt_raw(&mpk, &ct, &sk, &y).unwrap(),
                feip::decrypt_raw_naive(&mpk, &ct, &sk, &y).unwrap(),
                "p = {}", g.modulus()
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
        for g in all_groups() {
            let (mpk, msk) = febo::setup(g.clone(), &mut rng);
            for op in BasicOp::ALL {
                if op == BasicOp::Div && y == 0 {
                    continue;
                }
                let ct = febo::encrypt(&mpk, x, &mut rng);
                let sk = febo::key_derive(g, &msk, ct.commitment(), op, y).unwrap();
                prop_assert_eq!(
                    febo::decrypt_raw(&mpk, &sk, &ct, op, y).unwrap(),
                    febo::decrypt_raw_naive(&mpk, &sk, &ct, op, y).unwrap(),
                    "p = {} op {}", g.modulus(), op
                );
            }
        }
    }
}

/// One FEIP instance with its unit-vector keys — what the trainer holds
/// when it evaluates the secure first-layer gradient. Each proptest
/// case draws fresh plaintexts and delta rows against it.
struct GradientFixture {
    mpk: feip::FeipPublicKey,
    unit_keys: Vec<feip::FeipFunctionKey>,
    table: DlogTable,
}

/// Largest |plaintext| and |weight| the gradient cases draw.
const GRAD_MAX_X: i64 = 20;
const GRAD_MAX_W: i64 = 1000;

impl GradientFixture {
    fn new(level: SecurityLevel, dim: usize, max_cts: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(0x6AD);
        let g = SchnorrGroup::precomputed(level);
        let (mpk, msk) = feip::setup(g.clone(), dim, &mut rng);
        let unit_keys = (0..dim)
            .map(|j| {
                let mut unit = vec![0i64; dim];
                unit[j] = 1;
                feip::key_derive(&g, &msk, &unit).unwrap()
            })
            .collect();
        let table = DlogTable::new(&g, max_cts * (GRAD_MAX_X * GRAD_MAX_W) as u64);
        Self {
            mpk,
            unit_keys,
            table,
        }
    }

    /// `decrypt_combinations` over `m` fresh ciphertexts and `k` delta
    /// rows (signed, a quarter of the weights zero, the last row all
    /// zero) must equal `decrypt_coordinates(combine(..))` row by row
    /// and the plaintext `Σ wₛ·xₛ`, identically at every thread count.
    fn check(&self, m: usize, k: usize, seed: u64) -> Result<(), String> {
        use cryptonn_parallel::Parallelism;
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = self.unit_keys.len();
        let xs: Vec<Vec<i64>> = (0..m)
            .map(|_| {
                (0..dim)
                    .map(|_| rng.random_range(-GRAD_MAX_X..=GRAD_MAX_X))
                    .collect()
            })
            .collect();
        let cts: Vec<_> = xs
            .iter()
            .map(|x| feip::encrypt(&self.mpk, x, &mut rng).unwrap())
            .collect();
        let refs: Vec<&feip::FeipCiphertext> = cts.iter().collect();
        let rows: Vec<Vec<i64>> = (0..k)
            .map(|r| {
                (0..m)
                    .map(|_| {
                        if r + 1 == k || rng.random_range(0..4) == 0 {
                            0
                        } else {
                            rng.random_range(-GRAD_MAX_W..=GRAD_MAX_W)
                        }
                    })
                    .collect()
            })
            .collect();
        let row_refs: Vec<&[i64]> = rows.iter().map(Vec::as_slice).collect();
        let run = |par| {
            feip::decrypt_combinations(
                &self.mpk,
                &refs,
                &row_refs,
                &self.unit_keys,
                &self.table,
                par,
            )
            .unwrap()
        };
        let fused = run(Parallelism::Serial);
        prop_assert_eq!(fused.len(), k * dim);
        for (r, row) in rows.iter().enumerate() {
            let combined = feip::combine(&self.mpk, &refs, row).unwrap();
            let read =
                feip::decrypt_coordinates(&self.mpk, &combined, &self.unit_keys, &self.table)
                    .unwrap();
            prop_assert_eq!(&fused[r * dim..(r + 1) * dim], &read[..], "row {}", r);
            for (j, &got) in read.iter().enumerate() {
                let plain: i64 = row.iter().zip(&xs).map(|(w, x)| w * x[j]).sum();
                prop_assert_eq!(got, plain, "cell ({}, {})", r, j);
            }
        }
        prop_assert_eq!(&run(Parallelism::Threads(2)), &fused);
        prop_assert_eq!(&run(Parallelism::Threads(5)), &fused);
        Ok(())
    }
}

proptest! {
    // One case: four passes over 12 544 coordinates are ~8 s unoptimized.
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The dense first-layer gradient of `train_net`: 16 delta rows over
    /// 8 encrypted samples of dimension 784 at `Bits256Fast`.
    #[test]
    fn decrypt_combinations_equals_combine_then_read_at_dense_geometry(seed in any::<u64>()) {
        GradientFixture::new(SecurityLevel::Bits256Fast, 784, 8).check(8, 16, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The shape of `train_cnn`'s filter gradient: 3 filter rows over
    /// hundreds of encrypted 3×3 windows. `secure_conv_weight_grad`
    /// still goes through `combine`; this pins the kernel at that shape
    /// for when it switches.
    #[test]
    fn decrypt_combinations_equals_combine_then_read_at_conv_geometry(
        m in 200usize..=260,
        seed in any::<u64>(),
    ) {
        GradientFixture::new(SecurityLevel::Bits256Fast, 9, 260).check(m, 3, seed)?;
    }
}

#[test]
fn decrypt_combinations_rejects_ragged_operands() {
    use cryptonn_fe::FeError;
    use cryptonn_parallel::Parallelism::Serial;
    let fx = GradientFixture::new(SecurityLevel::Bits64, 3, 2);
    let mut rng = StdRng::seed_from_u64(5);
    let ct = |mpk: &feip::FeipPublicKey, x: &[i64], rng: &mut StdRng| {
        feip::encrypt(mpk, x, rng).unwrap()
    };
    let (a, b) = (
        ct(&fx.mpk, &[1, 2, 3], &mut rng),
        ct(&fx.mpk, &[4, 5, 6], &mut rng),
    );
    let run = |cts: &[&feip::FeipCiphertext], rows: &[&[i64]], keys: &[feip::FeipFunctionKey]| {
        feip::decrypt_combinations(&fx.mpk, cts, rows, keys, &fx.table, Serial)
    };
    assert_eq!(
        run(&[&a, &b], &[&[1, 2], &[-3, 4]], &fx.unit_keys),
        Ok(vec![9, 12, 15, 13, 14, 15])
    );
    // A weight row without one weight per ciphertext.
    assert_eq!(
        run(&[&a, &b], &[&[1, 2], &[3]], &fx.unit_keys),
        Err(FeError::DimensionMismatch {
            expected: 2,
            got: 1
        })
    );
    // Unit keys for another dimension.
    assert_eq!(
        run(&[&a, &b], &[&[1, 2]], &fx.unit_keys[..2]),
        Err(FeError::DimensionMismatch {
            expected: 3,
            got: 2
        })
    );
    // Ciphertexts of mixed dimension.
    let (mpk2, _) = feip::setup(fx.mpk.group().clone(), 2, &mut rng);
    let short = ct(&mpk2, &[7, 8], &mut rng);
    assert_eq!(
        run(&[&a, &short], &[&[1, 2]], &fx.unit_keys),
        Err(FeError::DimensionMismatch {
            expected: 3,
            got: 2
        })
    );
    // Nothing to combine, or no rows to read: empty, not a panic.
    assert_eq!(run(&[], &[&[]], &fx.unit_keys), Ok(vec![]));
    assert_eq!(run(&[&a, &b], &[], &fx.unit_keys), Ok(vec![]));
}
