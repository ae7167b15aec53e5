//! Ablation benches for the design decisions called out in DESIGN.md §7:
//!
//! - `ablation_dot_vs_febo`: FEIP dot-product vs element-wise FEBO
//!   multiply-then-sum (the paper separates dot-product "due to
//!   efficiency considerations" — this quantifies that choice).
//! - `ablation_bsgs_reuse`: reusing a precomputed BSGS table vs
//!   rebuilding per decryption.
//! - `ablation_threads`: decryption throughput vs thread count.
//! - `ablation_exponentiation`: the Montgomery + fixed-base pipeline
//!   (DESIGN.md §8) vs the pre-refactor generic exponentiation path,
//!   at the paper's 256-bit setting. The refactor's acceptance bar is
//!   ≥ 2× FEIP-encrypt throughput on `Bits256`.
//! - `ablation_multi_scalar_decrypt`: naive one-pow-per-term FEIP
//!   decryption vs the Straus/wNAF multi-scalar fast path
//!   (DESIGN.md §10), dim-784 at `Bits256`.
//! - `ablation_mont_lanes`: serial `mont_mul` vs the 4-wide lane
//!   kernel, on the generic and Montgomery-friendly 256-bit primes
//!   (DESIGN.md §13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cryptonn_bench::{bench_rng, fixture, random_matrix, thread_counts};
use cryptonn_bigint::modular::{mod_mul, mod_pow_schoolbook};
use cryptonn_bigint::U256;
use cryptonn_fe::{feip, BasicOp, FeipPublicKey, KeyAuthority, PermittedFunctions};
use cryptonn_group::{solve_dlog, DlogTable, SchnorrGroup, SecurityLevel};
use cryptonn_smc::{
    derive_dot_keys, derive_elementwise_keys, secure_dot, secure_elementwise, EncryptedMatrix,
    Parallelism,
};
use rand::rngs::StdRng;
use std::hint::black_box;
use std::time::Duration;

/// Dot-product of length-l vectors: one FEIP decryption vs l FEBO
/// multiplications plus a plaintext sum.
fn dot_vs_febo(c: &mut Criterion) {
    let (group, authority) = fixture(601);
    let febo_mpk = authority.febo_public_key();
    let table = DlogTable::new(&group, 2_000_000);
    let l = 16;

    let x = random_matrix(l, 1, 1, 50, 41);
    let w = random_matrix(1, l, 1, 50, 42);
    let mpk = authority.feip_public_key(l);
    let mut rng = bench_rng(43);
    let enc_cols = EncryptedMatrix::encrypt_columns(&x, &mpk, &mut rng).unwrap();
    let ip_keys = derive_dot_keys(&authority, &w).unwrap();

    // Element-wise route: x as an l×1 FEBO matrix, multiply by wᵀ, sum.
    let enc_elems = EncryptedMatrix::encrypt_elements(&x, &febo_mpk, &mut rng).unwrap();
    let wt = w.transpose();
    let bo_keys = derive_elementwise_keys(&authority, &enc_elems, BasicOp::Mul, &wt).unwrap();

    let mut g = c.benchmark_group("ablation_dot_vs_febo");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.bench_function("feip_dot", |b| {
        b.iter(|| {
            black_box(
                secure_dot(&mpk, &enc_cols, &ip_keys, &w, &table, Parallelism::Serial).unwrap(),
            )
        });
    });
    g.bench_function("febo_mul_then_sum", |b| {
        b.iter(|| {
            let products = secure_elementwise(
                &febo_mpk,
                &enc_elems,
                &bo_keys,
                BasicOp::Mul,
                &wt,
                &table,
                Parallelism::Serial,
            )
            .unwrap();
            black_box(products.sum())
        });
    });
    g.finish();
}

/// Amortized vs per-solve BSGS table construction.
fn bsgs_reuse(c: &mut Criterion) {
    let (group, _authority) = fixture(602);
    let bound = 100_000;
    let table = DlogTable::new(&group, bound);
    let targets: Vec<_> = (0..8)
        .map(|i| group.exp(&group.scalar_from_i64(i * 9_999 - 40_000)))
        .collect();

    let mut g = c.benchmark_group("ablation_bsgs_reuse");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.bench_function("reused_table", |b| {
        b.iter(|| {
            for t in &targets {
                black_box(table.solve(&group, t).unwrap());
            }
        });
    });
    g.bench_function("rebuilt_per_solve", |b| {
        b.iter(|| {
            for t in &targets {
                black_box(solve_dlog(&group, t, bound).unwrap());
            }
        });
    });
    g.finish();
}

/// Secure dot-product throughput vs decryption thread count.
fn threads(c: &mut Criterion) {
    let (group, authority) = fixture(603);
    let table = DlogTable::new(&group, 1_000_000);
    let (l, k) = (10, 64);
    let x = random_matrix(l, k, 1, 50, 51);
    let w = random_matrix(4, l, 1, 50, 52);
    let mpk = authority.feip_public_key(l);
    let mut rng = bench_rng(53);
    let enc = EncryptedMatrix::encrypt_columns(&x, &mpk, &mut rng).unwrap();
    let keys = derive_dot_keys(&authority, &w).unwrap();

    let mut g = c.benchmark_group("ablation_threads");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    for t in thread_counts() {
        g.bench_with_input(BenchmarkId::from_parameter(t), &t, |b, &t| {
            b.iter(|| {
                black_box(
                    secure_dot(&mpk, &enc, &keys, &w, &table, Parallelism::Threads(t)).unwrap(),
                )
            });
        });
    }
    g.finish();
}

/// The pre-refactor FEIP `Encrypt`: generic 4-bit-window schoolbook
/// exponentiation (one 512-bit Knuth division per product, no
/// precomputed bases), exactly as `cryptonn_bigint::modular::mod_pow`
/// and `SchnorrGroup::{exp, pow}` computed before the Montgomery
/// refactor. The table bases double as the public `hᵢ` values.
fn generic_feip_encrypt(mpk: &FeipPublicKey, x: &[i64], rng: &mut StdRng) -> (U256, Vec<U256>) {
    let group = mpk.group();
    let p = group.modulus();
    let g = group.generator();
    let r = group.random_scalar(rng);
    let ct0 = mod_pow_schoolbook(g.value(), r.value(), p);
    let cts = x
        .iter()
        .enumerate()
        .map(|(i, &xi)| {
            let hi = mpk.h_table(i).base();
            let hr = mod_pow_schoolbook(hi, r.value(), p);
            let gx = mod_pow_schoolbook(g.value(), group.scalar_from_i64(xi).value(), p);
            mod_mul(&hr, &gx, p)
        })
        .collect();
    (ct0, cts)
}

/// Generic schoolbook exponentiation vs the Montgomery + fixed-base
/// pipeline, on FEIP `Encrypt` at the paper's `Bits256` setting (the
/// perf-trajectory arm for the Montgomery refactor) and on the raw
/// `g^e` primitive underneath it.
fn exponentiation(c: &mut Criterion) {
    // Fixed at Bits256 regardless of CRYPTONN_BENCH_FULL: the
    // acceptance criterion is defined at the paper's setting.
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits256);
    let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 604);
    let dim = 16;
    let mpk = authority.feip_public_key(dim);
    let x: Vec<i64> = (0..dim as i64).map(|i| i * 37 - 300).collect();

    let mut g = c.benchmark_group("ablation_exponentiation");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));

    g.bench_function("feip_encrypt_bits256/generic_schoolbook", |b| {
        let mut rng = bench_rng(61);
        b.iter(|| black_box(generic_feip_encrypt(&mpk, &x, &mut rng)));
    });
    g.bench_function("feip_encrypt_bits256/montgomery_fixed_base", |b| {
        let mut rng = bench_rng(61);
        b.iter(|| black_box(feip::encrypt(&mpk, &x, &mut rng).unwrap()));
    });

    // The raw primitive: one full-width g^e. The exponent rotates
    // through a pool per iteration so the loop-invariant call cannot be
    // hoisted out of the timing loop (black_box alone does not stop
    // that here).
    let mut rng = bench_rng(62);
    let exps: Vec<_> = (0..16).map(|_| group.random_scalar(&mut rng)).collect();
    g.bench_function("g_pow_e_bits256/generic_schoolbook", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % exps.len();
            black_box(mod_pow_schoolbook(
                group.generator().value(),
                exps[i].value(),
                group.modulus(),
            ))
        });
    });
    g.bench_function("g_pow_e_bits256/fixed_base_table", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % exps.len();
            black_box(group.exp(&exps[i]))
        });
    });
    g.finish();
}

/// Naive one-pow-per-term decryption vs the Straus/wNAF multi-scalar
/// path (DESIGN.md §10), on a dim-784 FEIP `Decrypt` at the paper's
/// `Bits256` setting — the ablation arm for the decrypt fast path (the
/// benchmark carries the production number as
/// `group.multi_scalar_cell_us_d784`).
fn multi_scalar_decrypt(c: &mut Criterion) {
    // Fixed at Bits256 regardless of CRYPTONN_BENCH_FULL: the
    // acceptance criterion is defined at the paper's setting.
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits256);
    let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 605);
    let dim = 784;
    let mpk = authority.feip_public_key(dim);
    let table = DlogTable::new(&group, 784 * 100 * 100);
    let mut rng = bench_rng(71);
    let x = random_matrix(dim, 1, -100, 100, 72);
    let y: Vec<i64> = random_matrix(1, dim, -100, 100, 73).into_vec();
    let enc = EncryptedMatrix::encrypt_columns_with(
        &x,
        &mpk,
        &mut rng,
        cryptonn_smc::Parallelism::available(),
    )
    .unwrap();
    let ct = &enc.feip_columns().unwrap()[0];
    let sk = authority.derive_ip_key(dim, &y).unwrap();

    let mut g = c.benchmark_group("ablation_multi_scalar_decrypt");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));
    g.bench_function("feip_decrypt_bits256_dim784/naive", |b| {
        b.iter(|| black_box(feip::decrypt_naive(&mpk, ct, &sk, &y, &table).unwrap()));
    });
    g.bench_function("feip_decrypt_bits256_dim784/multi_scalar", |b| {
        b.iter(|| black_box(feip::decrypt(&mpk, ct, &sk, &y, &table).unwrap()));
    });
    g.finish();
}

/// Serial `mont_mul` vs the 4-wide lane kernel (`mont_mul_lanes`),
/// measured per Montgomery product, on the generic `Bits256` prime and
/// the Montgomery-friendly `Bits256Fast` prime (m′ = 1, one multiply
/// per reduction round shaved off). The interesting numbers are the
/// lane arm's per-mul amortization (four interleaved CIOS chains against
/// one) and the generic → fast-prime delta.
fn mont_lanes(c: &mut Criterion) {
    use cryptonn_bigint::Montgomery;

    let mut g = c.benchmark_group("ablation_mont_lanes");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(2));
    g.warm_up_time(Duration::from_millis(500));

    for (label, level) in [
        ("bits256_generic", SecurityLevel::Bits256),
        ("bits256_fast", SecurityLevel::Bits256Fast),
    ] {
        let group = SchnorrGroup::precomputed(level);
        let ctx = Montgomery::new(group.modulus()).expect("odd modulus");
        let mut rng = bench_rng(81);
        // Random reduced residues; the chains below keep values live so
        // the multiplies cannot be hoisted or reassociated away.
        let seeds: [U256; 4] = core::array::from_fn(|_| {
            ctx.to_mont(group.exp(&group.random_scalar(&mut rng)).value())
        });

        g.bench_function(format!("{label}/serial_mont_mul"), |b| {
            let mut acc = seeds;
            b.iter(|| {
                for lane in 0..4 {
                    acc[lane] = ctx.mont_mul(&acc[lane], &seeds[lane]);
                }
                black_box(&mut acc);
            });
        });
        g.bench_function(format!("{label}/mont_mul_lanes"), |b| {
            let mut acc = seeds;
            b.iter(|| {
                acc = ctx.mont_mul_lanes(&acc, &seeds);
                black_box(&mut acc);
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    dot_vs_febo,
    bsgs_reuse,
    threads,
    exponentiation,
    multi_scalar_decrypt,
    mont_lanes
);
criterion_main!(benches);
