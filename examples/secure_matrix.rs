//! Secure matrix computation (Algorithm 1) walkthrough.
//!
//! Demonstrates every permitted function of the secure matrix scheme —
//! dot-product and all four element-wise operations — with serial vs
//! parallel decryption timings (the contrast behind Figs. 3–5).
//!
//! Run with: `cargo run --release -p cryptonn-suite --example secure_matrix`

use std::time::Instant;

use cryptonn_fe::{BasicOp, KeyAuthority, PermittedFunctions};
use cryptonn_group::{DlogTable, SchnorrGroup, SecurityLevel};
use cryptonn_matrix::Matrix;
use cryptonn_smc::{
    derive_dot_keys, derive_elementwise_keys, secure_dot, secure_elementwise, EncryptedMatrix,
    Parallelism,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let group = SchnorrGroup::precomputed(SecurityLevel::Bits64);
    let authority = KeyAuthority::with_seed(group.clone(), PermittedFunctions::all(), 99);
    let mut rng = StdRng::seed_from_u64(7);

    // Client data: X is features × samples (the paper's layout).
    let x = Matrix::from_fn(8, 16, |_, _| rng.random_range(-50i64..=50));
    let feip_mpk = authority.feip_public_key(8);
    let febo_mpk = authority.febo_public_key();

    let t = Instant::now();
    let enc = EncryptedMatrix::encrypt_full(&x, &feip_mpk, &febo_mpk, &mut rng)?;
    println!("pre-process-encryption of 8x16 matrix: {:?}", t.elapsed());

    let table = DlogTable::new(&group, 2_000_000);

    // --- dot-product: Z = W · X ---------------------------------------
    let w = Matrix::from_fn(4, 8, |_, _| rng.random_range(-50i64..=50));
    let t = Instant::now();
    let keys = derive_dot_keys(&authority, &w)?;
    println!("pre-process-key-derive (4 rows): {:?}", t.elapsed());

    for par in [Parallelism::Serial, Parallelism::available()] {
        let t = Instant::now();
        let z = secure_dot(&feip_mpk, &enc, &keys, &w, &table, par)?;
        println!("secure dot-product 4x8 · 8x16 [{par:?}]: {:?}", t.elapsed());
        assert_eq!(z, w.matmul(&x), "secure result must equal plaintext matmul");
    }

    // --- element-wise ops ----------------------------------------------
    let y = Matrix::from_fn(8, 16, |_, _| rng.random_range(1i64..=20));
    for op in [BasicOp::Add, BasicOp::Sub, BasicOp::Mul] {
        let keys = derive_elementwise_keys(&authority, &enc, op, &y)?;
        let t = Instant::now();
        let z = secure_elementwise(
            &febo_mpk,
            &enc,
            &keys,
            op,
            &y,
            &table,
            Parallelism::available(),
        )?;
        println!("secure element-wise {op} on 8x16: {:?}", t.elapsed());
        assert_eq!(z, x.zip_map(&y, |a, b| op.apply(a, b)));
    }

    // Division requires exact divisibility (a property of the paper's
    // FEBO construction) — build a divisible operand to show it working.
    let q = Matrix::from_fn(8, 16, |_, _| rng.random_range(-30i64..=30));
    let xd = q.hadamard(&y);
    let enc_d = EncryptedMatrix::encrypt_elements(&xd, &febo_mpk, &mut rng)?;
    let keys = derive_elementwise_keys(&authority, &enc_d, BasicOp::Div, &y)?;
    let z = secure_elementwise(
        &febo_mpk,
        &enc_d,
        &keys,
        BasicOp::Div,
        &y,
        &table,
        Parallelism::available(),
    )?;
    assert_eq!(z, q);
    println!("secure element-wise division (exact): ok");

    println!("\nall secure results verified against plaintext computation");
    Ok(())
}
