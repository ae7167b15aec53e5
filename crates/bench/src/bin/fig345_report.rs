//! Compact wall-clock report for Figs. 3–5 — the same measurements as
//! the criterion benches, printed as the series the paper plots
//! (pre-process encryption / key-derive / secure computation serial and
//! parallel, per element count and value range).
//!
//! Use this for a quick shape check; use `cargo bench` for rigorous
//! statistics. `CRYPTONN_BENCH_FULL=1` switches to paper-scale sweeps.

use std::time::Instant;

use cryptonn_bench::{
    bench_rng, fixture, ms, random_elements, random_matrix, sweep, ELEMENT_RANGES,
};
use cryptonn_fe::BasicOp;
use cryptonn_group::DlogTable;
use cryptonn_smc::{
    derive_dot_keys, derive_elementwise_keys, secure_dot, secure_elementwise, EncryptedMatrix,
    Parallelism,
};

fn elementwise_report(op: BasicOp, figure: &str, sizes: &[usize], dlog_bound: u64) {
    let (group, authority) = fixture(801);
    let febo_mpk = authority.febo_public_key();
    let table = DlogTable::new(&group, dlog_bound);
    println!(
        "\n=== {figure}: element-wise {op} (group {} bits) ===",
        group.modulus().bit_len()
    );
    println!(
        "{:>8} {:>14} {:>12} {:>12} {:>14} {:>14}",
        "k", "range", "enc (ms)", "keys (ms)", "serial (ms)", "parallel (ms)"
    );
    for &k in sizes {
        for (lo, hi, label) in ELEMENT_RANGES {
            let x = random_elements(k, lo, hi, 61);
            let y = random_elements(k, lo, hi, 62);
            let mut rng = bench_rng(63);

            let t = Instant::now();
            let enc = EncryptedMatrix::encrypt_elements(&x, &febo_mpk, &mut rng).unwrap();
            let t_enc = t.elapsed();

            let t = Instant::now();
            let keys = derive_elementwise_keys(&authority, &enc, op, &y).unwrap();
            let t_keys = t.elapsed();

            let t = Instant::now();
            let z1 =
                secure_elementwise(&febo_mpk, &enc, &keys, op, &y, &table, Parallelism::Serial)
                    .unwrap();
            let t_serial = t.elapsed();

            let t = Instant::now();
            let z2 = secure_elementwise(
                &febo_mpk,
                &enc,
                &keys,
                op,
                &y,
                &table,
                Parallelism::available(),
            )
            .unwrap();
            let t_parallel = t.elapsed();
            assert_eq!(z1, z2);
            assert_eq!(z1, x.zip_map(&y, |a, b| op.apply(a, b)));

            println!(
                "{k:>8} {label:>14} {:>12.2} {:>12.2} {:>14.2} {:>14.2}",
                ms(t_enc),
                ms(t_keys),
                ms(t_serial),
                ms(t_parallel)
            );
        }
    }
}

fn dot_report(counts: &[usize]) {
    let (group, authority) = fixture(802);
    let table = DlogTable::new(&group, 1_100_000);
    println!(
        "\n=== Fig. 5: secure dot-product (group {} bits) ===",
        group.modulus().bit_len()
    );
    println!(
        "{:>8} {:>16} {:>12} {:>12} {:>14} {:>14}",
        "k", "config", "enc (ms)", "keys (ms)", "serial (ms)", "parallel (ms)"
    );
    for &k in counts {
        for (l, v, label) in [
            (10usize, 10i64, "l=10,v=[1,10]"),
            (10, 100, "l=10,v=[1,100]"),
            (100, 10, "l=100,v=[1,10]"),
            (100, 100, "l=100,v=[1,100]"),
        ] {
            let x = random_matrix(l, k, 1, v, 64);
            let w = random_matrix(1, l, 1, v, 65);
            let mpk = authority.feip_public_key(l);
            let mut rng = bench_rng(66);

            let t = Instant::now();
            let enc = EncryptedMatrix::encrypt_columns(&x, &mpk, &mut rng).unwrap();
            let t_enc = t.elapsed();

            let t = Instant::now();
            let keys = derive_dot_keys(&authority, &w).unwrap();
            let t_keys = t.elapsed();

            let t = Instant::now();
            let z1 = secure_dot(&mpk, &enc, &keys, &w, &table, Parallelism::Serial).unwrap();
            let t_serial = t.elapsed();

            let t = Instant::now();
            let z2 = secure_dot(&mpk, &enc, &keys, &w, &table, Parallelism::available()).unwrap();
            let t_parallel = t.elapsed();
            assert_eq!(z1, z2);
            assert_eq!(z1, w.matmul(&x));

            println!(
                "{k:>8} {label:>16} {:>12.2} {:>12.2} {:>14.2} {:>14.2}",
                ms(t_enc),
                ms(t_keys),
                ms(t_serial),
                ms(t_parallel)
            );
        }
    }
}

fn main() {
    let sizes_add = sweep(
        &[256usize, 512, 1024],
        &[2_000, 4_000, 6_000, 8_000, 10_000],
    );
    let sizes_mul = sweep(&[128usize, 256, 512], &[2_000, 4_000, 6_000, 8_000, 10_000]);
    let counts = sweep(&[16usize, 32, 64], &[2_000, 4_000, 6_000, 8_000, 10_000]);

    elementwise_report(BasicOp::Add, "Fig. 3", &sizes_add, 4_000);
    elementwise_report(BasicOp::Mul, "Fig. 4", &sizes_mul, 1_100_000);
    dot_report(&counts);

    println!(
        "\nShape checks vs paper: times scale ~linearly in k; multiplication ≫\n\
         addition (larger dlog range); parallel ≪ serial. Absolute numbers\n\
         differ from the paper's Python+GMP testbed; see DESIGN.md §7."
    );
}
